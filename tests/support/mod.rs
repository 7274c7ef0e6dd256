//! Helpers the root integration tests share. Each test file declares
//! `mod support;` and compiles its own copy, so a helper one file does not
//! call is dead code there — hence the crate-level allow.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::Arc;

use mergeable_summaries::cluster::ClusterConfig;
use mergeable_summaries::service::{Engine, Server, ServiceConfig};
use mergeable_summaries::workloads::StreamKind;

/// A fresh, empty scratch directory for `tag`, unique to this test binary
/// and process. Leftovers from an earlier run are removed first.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ms-{}-{tag}-{}",
        env!("CARGO_CRATE_NAME"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `n` items of the seeded Zipf(1.2) stream over 2^18 keys the
/// end-to-end tests check against exact oracles.
pub fn zipf(n: usize, seed: u64) -> Vec<u64> {
    StreamKind::Zipf {
        s: 1.2,
        universe: 1 << 18,
    }
    .generate(n, seed)
}

/// A backend node: an engine behind a TCP server on an ephemeral port.
pub struct Node {
    pub engine: Arc<Engine>,
    pub server: Server,
}

impl Node {
    pub fn start(cfg: ServiceConfig) -> Node {
        let engine = Engine::start(cfg).expect("backend engine");
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("backend server");
        Node { engine, server }
    }

    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }
}

/// Fast-failing coordinator transport so a node kill is discovered on the
/// first request after it and every health transition is deterministic.
pub fn cluster_config(addrs: impl IntoIterator<Item = String>) -> ClusterConfig {
    ClusterConfig::new(addrs)
        .timeouts(
            std::time::Duration::from_secs(2),
            std::time::Duration::from_secs(10),
        )
        .ping_interval(None)
        .dead_after(1)
}
