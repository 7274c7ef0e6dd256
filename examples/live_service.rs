//! Live service: the full serve loop in one process.
//!
//! Starts a 4-shard Misra-Gries engine behind the TCP server, streams a
//! seeded Zipf workload at it through the wire-protocol client, and
//! checks the snapshot's heavy hitters against an exact oracle — the
//! concurrent rendition of the paper's merge guarantee (the scheduler's
//! interleaving of shard folds is just another merge tree).
//!
//! Run with: `cargo run --release --example live_service`

use mergeable_summaries::core::{FrequencyOracle, Summary, Wire};
use mergeable_summaries::service::{
    Client, Engine, Request, Response, Server, ServiceConfig, ShardSummary, SummaryKind,
};
use mergeable_summaries::workloads::StreamKind;

fn main() {
    let epsilon = 0.01;
    let n = 500_000;

    let stream = StreamKind::Zipf {
        s: 1.2,
        universe: 1 << 18,
    }
    .generate(n, 42);
    let oracle = FrequencyOracle::from_stream(stream.iter().copied());

    // A 4-shard engine behind a TCP server on an ephemeral port.
    let cfg = ServiceConfig::new(SummaryKind::Mg, epsilon).shards(4);
    let engine = Engine::start(cfg).expect("engine start");
    let server = Server::bind(engine, "127.0.0.1:0").expect("bind");
    println!("serving on         : {}", server.local_addr());

    // Stream the workload through the wire protocol and flush, so the
    // published snapshot reflects every update.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for chunk in stream.chunks(4_096) {
        client.ingest(chunk.to_vec()).expect("ingest");
    }
    client.flush().expect("flush");

    let metrics = client.metrics().expect("metrics");
    println!("items ingested     : {}", metrics.updates);
    println!("compaction merges  : {}", metrics.merges);
    println!("snapshot epoch     : {}", metrics.epoch);

    // Query heavy hitters from the snapshot and self-check against the
    // exact oracle: every estimate within eps*n of the truth.
    let hits = match client.call(&Request::HeavyHitters(epsilon)).expect("query") {
        Response::Items(items) => items,
        other => panic!("unexpected response {other:?}"),
    };
    let bound = (epsilon * n as f64).ceil() as u64;
    let worst = hits
        .iter()
        .map(|(item, est)| est.abs_diff(oracle.count(item)))
        .max()
        .unwrap_or(0);
    println!("heavy hitters      : {}", hits.len());
    println!("worst freq error   : {worst} (bound eps*n = {bound})");
    assert!(worst <= bound, "paper bound violated");

    // The snapshot itself ships over the same codec the CLI files use.
    let bytes = match client.call(&Request::Summary).expect("query") {
        Response::Summary(bytes) => bytes,
        other => panic!("unexpected response {other:?}"),
    };
    let summary = ShardSummary::decode(&bytes).expect("decode");
    println!("snapshot wire bytes: {}", bytes.len());
    assert_eq!(summary.total_weight(), n as u64);

    server.stop();
    println!("self-check         : OK");
}
