//! Pinned SpaceSaving bytes (tier-1).
//!
//! A SpaceSaving shard runs Misra-Gries with one counter fewer (PAPER §3,
//! Lemma 1) and answers, encodes and checkpoints through the SpaceSaving
//! rules. These tests pin the bytes of everything a caller can read off a
//! `--kind space-saving` engine — its `Request::Summary` reply, its point
//! and heavy-hitter replies, a shard summary's encoding and the checkpoint
//! part a durable shutdown writes — as a length and a CRC-32 each, so a
//! refactor of how the service holds a SpaceSaving summary must leave
//! every one of them unchanged.
//!
//! MG and SpaceSaving bytes list the counters in their first-insertion
//! order, so a change to that order (a sorted encode, absorbing a batch
//! before pruning) moves these figures and must re-pin them.

mod support;

use mergeable_summaries::core::{crc32, Wire};
use mergeable_summaries::service::{
    DurabilityConfig, Engine, Request, Response, Service, ServiceConfig, ShardSummary, SummaryKind,
};
use mergeable_summaries::store::CheckpointStore;
use mergeable_summaries::workloads::StreamKind;

const EPS: f64 = 0.002;
const SEED: u64 = 0x55AA_2026;

/// A mildly skewed stream, so the table keeps hundreds of counters and
/// the heavy-hitter replies carry ties.
fn items() -> Vec<u64> {
    StreamKind::Zipf {
        s: 1.05,
        universe: 20_000,
    }
    .generate(60_000, SEED)
}

fn config() -> ServiceConfig {
    ServiceConfig::new(SummaryKind::SpaceSaving, EPS)
        .shards(1)
        .delta_updates(4_096)
        .seed(SEED)
}

/// `(length, CRC-32)` of `bytes`.
fn fingerprint(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32(bytes))
}

/// Feed `items` to `engine` in batches of 500 and publish.
fn ingest(engine: &Engine, items: &[u64]) {
    for batch in items.chunks(500) {
        engine.ingest(batch.to_vec()).unwrap();
    }
    engine.flush().unwrap();
}

/// Point replies for the first 2,000 distinct items of the stream, then
/// heavy-hitter replies at three thresholds, each reply encoded.
fn answers(engine: &Engine, items: &[u64]) -> Vec<u8> {
    let mut seen = std::collections::HashSet::new();
    let mut requests: Vec<Request> = items
        .iter()
        .filter(|&&item| seen.insert(item))
        .take(2_000)
        .map(|&item| Request::Point(item))
        .collect();
    assert_eq!(requests.len(), 2_000);
    requests.extend([EPS, 0.005, 0.05].map(Request::HeavyHitters));
    let mut out = Vec::new();
    for request in requests {
        let reply = engine.handle(request);
        assert!(
            matches!(reply, Response::Count(_) | Response::Items(_)),
            "{reply:?}"
        );
        reply.encode_into(&mut out);
    }
    out
}

#[test]
fn a_space_saving_engine_replies_with_pinned_bytes() {
    let items = items();
    let engine = Engine::start(config()).unwrap();
    ingest(&engine, &items);
    let summary = match engine.handle(Request::Summary) {
        Response::Summary(bytes) => bytes,
        other => panic!("{other:?}"),
    };
    assert_eq!(fingerprint(&summary), (591, 0x8158_9b48), "summary reply");
    assert_eq!(
        fingerprint(&answers(&engine, &items)),
        (4_272, 0x65cc_ce63),
        "point and heavy-hitter replies"
    );
    engine.shutdown();
}

#[test]
fn a_space_saving_shard_summary_encodes_to_pinned_bytes() {
    let mut summary = ShardSummary::new(&config(), 0);
    for batch in items().chunks(500) {
        summary.update_batch(batch);
    }
    assert_eq!(summary.kind(), SummaryKind::SpaceSaving);
    assert_eq!(fingerprint(&summary.encode()), (1_041, 0xd215_1679));
}

#[test]
fn a_durable_space_saving_shutdown_writes_a_pinned_checkpoint_part() {
    let dir = support::scratch_dir("ss-pinned-checkpoint");
    let durable = DurabilityConfig::new(&dir).checkpoint_batches(1 << 30);
    let engine = Engine::start(config().durability(durable)).unwrap();
    ingest(&engine, &items());
    engine.shutdown();
    let set = CheckpointStore::open(dir.join("ckpt"), false)
        .unwrap()
        .load_newest()
        .unwrap()
        .newest
        .expect("shutdown writes a checkpoint");
    assert_eq!(set.parts.len(), 1);
    assert_eq!(fingerprint(&set.parts[0]), (591, 0x8158_9b48));
    let _ = std::fs::remove_dir_all(&dir);
}
