//! Acceptance test for the sharded concurrent aggregation service: four
//! producer threads push a million-item seeded Zipf stream through a
//! 4-shard engine, and the published snapshot must answer heavy-hitter and
//! quantile queries within the paper's error bounds — the merge guarantee
//! (PODS'12 Definition 1) is exactly what makes the nondeterministic
//! interleaving of concurrent writers' shard folds harmless. One
//! writer, by contrast, is served the same bytes on every run. The
//! snapshot must also survive a trip through the binary wire codec for
//! every family, and a panic inside one shard's absorb must cost that
//! shard's delta, not the connection that sent the batch.

use std::sync::Arc;

use mergeable_summaries::core::{crc32, FrequencyOracle, RankOracle, Summary, Wire};
use mergeable_summaries::service::{
    plan_fn, Client, DurabilityConfig, Engine, FaultAction, FsyncPolicy, ManualClock, Request,
    Response, SegmentConfig, Server, ServiceConfig, ShardSummary, SummaryKind,
};
use mergeable_summaries::store::CheckpointStore;
use mergeable_summaries::workloads::StreamKind;

mod support;
use support::{scratch_dir, zipf};

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

/// One writer on a cube-off engine: its batches reach the shards
/// round-robin in send order, and each shard folds its delta into the
/// global summary at the same points, in send order, so every run at a
/// given shard count is served the same `Request::Summary` bytes. A
/// durable engine too: its cadence checkpoint runs on the ingest that
/// crosses the cadence, so its barrier cuts the deltas at the same batch.
#[test]
fn one_writer_is_served_the_same_bytes_on_every_run() {
    let items = zipf(96 * 1_024, SEED);
    for durable in [false, true] {
        for kind in [
            SummaryKind::Mg,
            SummaryKind::HybridQuantile,
            SummaryKind::CountMin,
        ] {
            for shards in [1, 2, 4] {
                let served: Vec<Vec<u8>> = (0..3)
                    .map(|run| {
                        let mut cfg = ServiceConfig::new(kind, EPS)
                            .shards(shards)
                            .delta_updates(4_096)
                            .seed(SEED);
                        // A checkpoint every eight batches cuts every
                        // shard's delta short: at the same batch on every
                        // run, or the bytes differ.
                        let dir = scratch_dir(&format!("same-bytes-{run}"));
                        if durable {
                            cfg = cfg.durability(
                                DurabilityConfig::new(&dir)
                                    .fsync(FsyncPolicy::Never)
                                    .checkpoint_batches(8),
                            );
                        }
                        let engine = Engine::start(cfg).expect("engine start");
                        for batch in items.chunks(1_024) {
                            engine.ingest(batch.to_vec()).unwrap();
                        }
                        engine.flush().unwrap();
                        let server =
                            Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("bind");
                        let mut client = Client::connect(server.local_addr()).expect("connect");
                        let reply = client.call(&Request::Summary).expect("summary");
                        server.stop();
                        engine.shutdown();
                        let _ = std::fs::remove_dir_all(&dir);
                        match reply {
                            Response::Summary(bytes) => bytes,
                            other => panic!("summary request answered {other:?}"),
                        }
                    })
                    .collect();
                assert!(
                    served.windows(2).all(|w| w[0] == w[1]),
                    "{} at {shards} shard(s), durable {durable}: one writer was served \
                     different bytes",
                    kind.label()
                );
            }
        }
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

/// `(length, CRC-32)` of `bytes`.
fn fingerprint(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), crc32(bytes))
}

/// What one writer is given back, per kind: the checkpoint set
/// `checkpoint_now` writes halfway through the stream (its WAL cut and
/// the fingerprint of each part) and the flushed snapshot's encoding at
/// the end. Cube off, a label names the shard count; cube on, "cube".
type Served = (
    &'static str,
    &'static str,
    (u64, Vec<(usize, u32)>),
    (usize, u32),
);

/// One writer, durable, every kind: cube off at 1, 2 and 4 shards, and
/// cube on. The checkpoint cuts every delta short mid-stream, so these
/// pin where a barrier cuts as well as the fold order, whatever the
/// engine's threads. The checkpoint's epoch is left out: it counts
/// publishes, not data.
#[test]
fn one_writer_is_served_pinned_bytes_at_every_shard_count_and_with_a_cube() {
    let items = zipf(48 * 1_024, SEED);
    let mut served: Vec<Served> = Vec::new();
    for kind in SummaryKind::all() {
        for (label, shards, cube) in [
            ("1", 1, false),
            ("2", 2, false),
            ("4", 4, false),
            ("cube", 2, true),
        ] {
            let dir = scratch_dir(&format!("pinned-{}-{label}", kind.label()));
            let mut cfg = ServiceConfig::new(kind, EPS)
                .shards(shards)
                .delta_updates(4_096)
                .seed(SEED)
                .durability(
                    DurabilityConfig::new(&dir)
                        .fsync(FsyncPolicy::Never)
                        .checkpoint_batches(1 << 30),
                );
            if cube {
                cfg = cfg.segments(
                    SegmentConfig::new()
                        .seal_batches(8)
                        .clock(Arc::new(ManualClock::new(0))),
                );
            }
            let engine = Engine::start(cfg).expect("engine start");
            let (first, second) = items.split_at(23 * 1_024 + 300);
            for batch in first.chunks(1_000) {
                engine.ingest(batch.to_vec()).unwrap();
            }
            engine.checkpoint_now().unwrap();
            let set = CheckpointStore::open(dir.join("ckpt"), false)
                .unwrap()
                .load_newest()
                .unwrap()
                .newest
                .expect("checkpoint_now writes a set");
            let parts = set.parts.iter().map(|part| fingerprint(part)).collect();
            for batch in second.chunks(1_000) {
                engine.ingest(batch.to_vec()).unwrap();
            }
            engine.flush().unwrap();
            let snapshot = engine.snapshot();
            assert_eq!(snapshot.summary.total_weight(), items.len() as u64);
            let summary = fingerprint(&snapshot.summary.encode());
            engine.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            served.push((kind.label(), label, (set.wal_seq, parts), summary));
        }
    }
    assert_eq!(served, pinned());
}

/// The parts' and snapshot's `(length, CRC-32)`, row by row.
#[rustfmt::skip]
fn pinned() -> Vec<Served> {
    vec![
        ("mg", "1", (24, vec![(92, 0xc421_03a4)]), (253, 0x2147_c964)),
        ("mg", "2", (24, vec![(98, 0xf0ae_aae5)]), (242, 0xf045_388a)),
        ("mg", "4", (24, vec![(212, 0x08f3_f86e)]), (205, 0xa6d4_cd9e)),
        ("mg", "cube", (24, vec![(89, 0xaa52_f868)]), (151, 0xd86b_3864)),
        ("space-saving", "1", (24, vec![(93, 0x55f2_6a67)]), (254, 0x50f4_09a5)),
        ("space-saving", "2", (24, vec![(99, 0x4fd9_8a60)]), (243, 0x42e7_c29e)),
        ("space-saving", "4", (24, vec![(213, 0x1a68_66be)]), (206, 0x06e6_9365)),
        ("space-saving", "cube", (24, vec![(90, 0xe205_550f)]), (152, 0x04be_287c)),
        ("hybrid-quantile", "1", (24, vec![(4_876, 0xe9c5_c5eb)]), (5_483, 0x91c5_cef9)),
        ("hybrid-quantile", "2", (24, vec![(4_866, 0x68ed_5d26)]), (5_501, 0x291b_ab08)),
        ("hybrid-quantile", "4", (24, vec![(4_862, 0x4b24_e8c7)]), (5_486, 0x3cb8_b1e9)),
        ("hybrid-quantile", "cube", (24, vec![(4_905, 0x7795_660b)]), (5_513, 0xaef0_6c6f)),
        ("count-min", "1", (24, vec![(1_489, 0x8f8a_5a89)]), (1_660, 0x6dc4_afea)),
        ("count-min", "2", (24, vec![(1_489, 0x8f8a_5a89)]), (1_660, 0x6dc4_afea)),
        ("count-min", "4", (24, vec![(1_489, 0x8f8a_5a89)]), (1_660, 0x6dc4_afea)),
        ("count-min", "cube", (24, vec![(1_489, 0x8f8a_5a89)]), (1_660, 0x6dc4_afea)),
    ]
}
