//! Acceptance test for the sharded concurrent aggregation service: four
//! producer threads push a million-item seeded Zipf stream through a
//! 4-shard engine, and the published snapshot must answer heavy-hitter and
//! quantile queries within the paper's error bounds — the merge guarantee
//! (PODS'12 Definition 1) is exactly what makes the nondeterministic
//! interleaving of shard hand-offs harmless. The snapshot must also
//! survive a trip through the binary wire codec for every family, and a
//! panic inside one shard's absorb must cost that shard's delta, not the
//! connection that sent the batch.

use std::sync::Arc;

use mergeable_summaries::core::{FrequencyOracle, RankOracle, Summary, Wire};
use mergeable_summaries::service::{
    plan_fn, Client, Engine, FaultAction, Server, ServiceConfig, ShardSummary, SummaryKind,
};
use mergeable_summaries::workloads::StreamKind;

mod support;
use support::zipf;

const N: usize = 1_000_000;
const EPS: f64 = 0.01;
const SHARDS: usize = 4;
const SEED: u64 = 0xE2E;

/// Run `items` through a fresh engine with four concurrent producer
/// threads and return the final published snapshot's summary.
fn ingest_concurrently(kind: SummaryKind, items: &[u64]) -> ShardSummary {
    let cfg = ServiceConfig::new(kind, EPS)
        .shards(SHARDS)
        .delta_updates(8_192)
        .seed(SEED);
    let engine = Engine::start(cfg).expect("engine start");
    std::thread::scope(|scope| {
        for part in items.chunks(items.len().div_ceil(4)) {
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for chunk in part.chunks(1_000) {
                    engine.ingest(chunk.to_vec()).unwrap();
                }
            });
        }
    });
    let snapshot = engine.shutdown();
    assert_eq!(snapshot.summary.total_weight(), items.len() as u64);
    snapshot.summary.clone()
}

#[test]
fn concurrent_heavy_hitters_meet_the_paper_bound() {
    let items = zipf(N, SEED);
    let oracle = FrequencyOracle::from_stream(items.iter().copied());
    let bound = (EPS * N as f64).ceil() as u64;

    for kind in [SummaryKind::Mg, SummaryKind::SpaceSaving] {
        let summary = ingest_concurrently(kind, &items);

        // Frequency error ≤ εn for every item the truth says matters …
        for (item, truth) in oracle.top_k(50) {
            let est = summary.point(item).expect("counter summary");
            assert!(
                est.abs_diff(truth) <= bound,
                "{}: item {item}: est {est}, truth {truth}",
                kind.label()
            );
        }
        // … and every true φ-heavy hitter is reported at φ = 2ε.
        let phi = 2.0 * EPS;
        let reported = summary.heavy_hitters(EPS).expect("counter summary");
        for (item, truth) in oracle.iter() {
            if truth as f64 >= phi * N as f64 {
                assert!(
                    reported.iter().any(|(i, _)| i == item),
                    "{}: heavy item {item} (truth {truth}) missing",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn concurrent_quantiles_meet_the_paper_bound() {
    let items = zipf(N, SEED);
    let oracle = RankOracle::from_stream(items.iter().copied());
    let summary = ingest_concurrently(SummaryKind::HybridQuantile, &items);
    let bound = (EPS * N as f64).ceil() as u64;

    for i in 1..20 {
        let phi = i as f64 / 20.0;
        let probe = *oracle.quantile(phi).expect("nonempty");
        let est = summary.rank(probe).expect("quantile summary");
        let err = oracle.rank_error(&probe, est);
        assert!(err <= bound, "phi {phi}: rank error {err} > {bound}");
    }
}

#[test]
fn concurrent_count_min_never_underestimates() {
    let items = zipf(N, SEED);
    let oracle = FrequencyOracle::from_stream(items.iter().copied());
    let summary = ingest_concurrently(SummaryKind::CountMin, &items);
    let bound = (EPS * N as f64).ceil() as u64;

    for (item, truth) in oracle.top_k(100) {
        let est = summary.point(item).expect("counter summary");
        assert!(est >= truth, "item {item}: est {est} < truth {truth}");
        assert!(
            est - truth <= bound,
            "item {item}: overshoot {} > {bound}",
            est - truth
        );
    }
}

#[test]
fn snapshots_survive_the_wire_codec() {
    // A short stream suffices: this checks the codec, not the bounds.
    let items = StreamKind::Zipf {
        s: 1.2,
        universe: 1 << 12,
    }
    .generate(50_000, SEED);
    for kind in SummaryKind::all() {
        let cfg = ServiceConfig::new(kind, EPS).shards(SHARDS).seed(SEED);
        let engine = Engine::start(cfg).expect("engine start");
        for chunk in items.chunks(1_000) {
            engine.ingest(chunk.to_vec()).unwrap();
        }
        let snapshot = engine.shutdown();
        let back = ShardSummary::decode(&snapshot.summary.encode()).expect("decode");
        assert_eq!(back.kind(), kind);
        assert_eq!(back.total_weight(), snapshot.summary.total_weight());
        assert_eq!(back.size(), snapshot.summary.size(), "{}", kind.label());
        for probe in 0..32 {
            assert_eq!(back.point(probe), snapshot.summary.point(probe));
            assert_eq!(back.rank(probe), snapshot.summary.rank(probe));
        }
        assert_eq!(back.quantile(0.5), snapshot.summary.quantile(0.5));
    }
}

/// A panic inside one shard's absorb, over real TCP: the ingest that
/// panicked and every later one on the same connection are acked, the
/// loss is counted once, and the final weight falls short of the acked
/// weight by at most the shard's un-handed-off delta plus the batch in
/// hand.
#[test]
fn a_panicking_absorb_is_acked_and_costs_at_most_one_delta() {
    const BATCH: usize = 500;
    const DELTA: usize = 4_096;
    // One connection ingests round-robin over two shards, so batch
    // `2 * 7 + 1` is shard 1's eighth.
    const PANICKING_BATCH: usize = 15;
    let cfg = ServiceConfig::new(SummaryKind::Mg, EPS)
        .shards(2)
        .delta_updates(DELTA)
        .seed(SEED)
        .fault_plan(plan_fn(|shard, idx| {
            assert!(shard != 1 || idx != 7, "injected panic inside an absorb");
            FaultAction::Continue
        }));
    let engine = Engine::start(cfg).expect("engine start");
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut acked = 0u64;
    for (i, batch) in zipf(200 * BATCH, SEED).chunks(BATCH).enumerate() {
        client
            .ingest_slice(batch)
            .unwrap_or_else(|e| panic!("batch {i} was not acked: {e}"));
        acked += batch.len() as u64;
        let lost = engine.metrics().shards_lost;
        assert_eq!(lost, u64::from(i >= PANICKING_BATCH), "after batch {i}");
    }
    client.flush().expect("flush");
    assert_eq!(client.metrics().expect("metrics").shards_lost, 1);
    server.stop();
    let weight = engine.shutdown().summary.total_weight();
    assert!(weight < acked, "the panicking batch cannot have landed");
    assert!(
        acked - weight <= (DELTA + BATCH) as u64,
        "acked {acked}, final weight {weight}"
    );
}
