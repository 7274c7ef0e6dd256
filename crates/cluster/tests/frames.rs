//! A coordinator validates an ingest frame and forwards its bytes: a
//! payload the decoder would refuse never reaches a backend, and one it
//! accepts reaches a backend's WAL exactly as the client sent it.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ms_cluster::{ClusterConfig, Coordinator};
use ms_core::wire::encode_frame_into;
use ms_service::{
    Client, DurabilityConfig, Engine, FsyncPolicy, Request, Response, Server, Service,
    ServiceConfig, SummaryKind, REQUEST_TAG,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ms-cluster-frames-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_bytes(dir: &Path) -> Vec<u8> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    paths.sort();
    paths
        .iter()
        .flat_map(|p| std::fs::read(p).unwrap())
        .collect()
}

fn raw_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, REQUEST_TAG, |out| {
        out.extend_from_slice(payload)
    });
    frame
}

#[test]
fn a_coordinator_refuses_malformed_frames_itself_and_forwards_good_ones_verbatim() {
    let dirs = [temp_dir("node0"), temp_dir("node1")];
    let backends: Vec<Server> = dirs
        .iter()
        .map(|dir| {
            let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
                .shards(1)
                .durability(DurabilityConfig::new(dir).fsync(FsyncPolicy::Never));
            Server::bind(Engine::start(cfg).unwrap(), "127.0.0.1:0").unwrap()
        })
        .collect();
    let cfg =
        ClusterConfig::new(backends.iter().map(|s| s.local_addr().to_string())).ping_interval(None);
    let coordinator = Coordinator::start(cfg).unwrap();
    let front =
        Server::bind_service(Arc::clone(&coordinator) as Arc<dyn Service>, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(front.local_addr()).unwrap();
    let backend_metrics = || -> Vec<_> { backends.iter().map(|s| s.engine().metrics()).collect() };

    let malformed: [&[u8]; 4] = [
        &[1, 2, 5], // a count of 2, one item
        &[
            1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02,
        ], // overflows u64
        &[1, 0xff, 0xff, 0xff, 0x7f, 9], // a count past the buffer
        &[1, 1, 9, 0], // a trailing byte
    ];
    for payload in malformed {
        client.send_raw(&raw_frame(payload)).unwrap();
        match client.read_response().unwrap() {
            Response::Error(msg) => assert!(msg.starts_with("bad request: "), "{msg}"),
            other => panic!("malformed payload answered {other:?}"),
        }
    }
    for (node, m) in backend_metrics().iter().enumerate() {
        assert_eq!(
            (m.batches, m.frames_rejected),
            (0, 0),
            "node {node} saw a frame the coordinator should have refused"
        );
    }

    // [0, 5, 7], the zero in two bytes and the five in three: the
    // coordinator has no encoder on this path that could have written it.
    let received = [3, 0x80, 0x00, 0x85, 0x80, 0x00, 0x07];
    let opcode = Request::Ingest(Vec::new()).opcode();
    client
        .send_raw(&raw_frame(&[&[opcode][..], &received[..]].concat()))
        .unwrap();
    assert_eq!(client.read_response().unwrap(), Response::Ok);
    client.flush().unwrap();
    let metrics = backend_metrics();
    assert_eq!(metrics.iter().map(|m| m.batches).sum::<u64>(), 1);
    assert_eq!(metrics.iter().map(|m| m.updates).sum::<u64>(), 3);
    assert_eq!(metrics.iter().map(|m| m.frames_rejected).sum::<u64>(), 0);
    match client.call(&Request::Point(5)).unwrap() {
        Response::Count(n) => assert_eq!(n, 1),
        other => panic!("unexpected {other:?}"),
    }
    let logged = dirs
        .iter()
        .filter(|dir| {
            wal_bytes(dir)
                .windows(received.len())
                .any(|w| w == received)
        })
        .count();
    assert_eq!(logged, 1, "one backend logs the payload exactly as sent");

    drop(client);
    front.stop();
    for backend in backends {
        backend.stop();
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
