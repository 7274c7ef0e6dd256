//! The cube feed: on a server with a segment cube, the segment fold is
//! the only absorb, whatever the engine's kind. Sealed segments are folded
//! into the global summary in seq order and the open segment is published
//! as a view, so the served summary is a function of the batch order
//! alone, a recovery feeds exactly what its checkpoint and replay lack,
//! and a barrier or checkpoint racing a leader that is sending a view
//! still cuts at a batch boundary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ms_core::{FrequencyOracle, RankOracle, Summary, Wire};
use ms_service::{
    DurabilityConfig, Engine, FsyncPolicy, ManualClock, SegmentConfig, ServiceConfig, SummaryKind,
};
use ms_workloads::StreamKind;

/// The kinds a range read answers: the families a cube streams, and
/// SpaceSaving, read off the MG one.
const STREAMED_KINDS: [SummaryKind; 3] = [
    SummaryKind::Mg,
    SummaryKind::SpaceSaving,
    SummaryKind::HybridQuantile,
];

fn zipf(n: usize, seed: u64) -> Vec<u64> {
    StreamKind::Zipf {
        s: 1.2,
        universe: 1 << 14,
    }
    .generate(n, seed)
}

/// Segments sealed by count only: the manual clock never moves.
fn segments(seal_batches: u64) -> SegmentConfig {
    SegmentConfig::new()
        .seal_batches(seal_batches)
        .clock(Arc::new(ManualClock::new(0)))
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ms-feed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `f` on its own thread and fail if it does not finish in `secs`.
fn with_deadline<F: FnOnce() + Send + 'static>(secs: u64, what: &str, f: F) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => runner.join().unwrap(),
        Err(_) => panic!("{what}: no progress after {secs}s"),
    }
}

/// One batch sequence from one thread, at 1, 2 and 4 shards: the served
/// summary's bytes are the same, because a cube server has no shards and
/// the fold order is the seq order. Count-Min is linear, so a cube server
/// of that kind also serves the bytes a cube-off engine does.
#[test]
fn a_cube_server_serves_the_same_bytes_at_any_shard_count() {
    let items = zipf(40_000, 0xFEED);
    // Uneven batches, so seals and views fall at different offsets.
    let mut batches = Vec::new();
    let mut rest = &items[..];
    for len in [250, 700, 130].iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at((*len).min(rest.len()));
        batches.push(batch.to_vec());
        rest = tail;
    }
    let cfg = |kind, shards| {
        ServiceConfig::new(kind, 0.01)
            .shards(shards)
            .delta_updates(900)
    };
    for kind in SummaryKind::all() {
        let served: Vec<Vec<u8>> = [1, 2, 4]
            .into_iter()
            .map(|shards| {
                let engine = Engine::start(cfg(kind, shards).segments(segments(5))).unwrap();
                for (i, batch) in batches.iter().enumerate() {
                    engine.ingest(batch.clone()).unwrap();
                    if i % 37 == 0 {
                        engine.flush().unwrap();
                    }
                }
                engine.flush().unwrap();
                let snap = engine.snapshot();
                assert_eq!(snap.summary.total_weight(), items.len() as u64);
                assert_eq!(snap.lineage.weight, items.len() as u64, "{kind:?}");
                engine.shutdown();
                snap.summary.encode()
            })
            .collect();
        assert!(
            served.windows(2).all(|w| w[0] == w[1]),
            "{kind:?}: the served bytes depend on the shard count"
        );
        if kind == SummaryKind::CountMin {
            let engine = Engine::start(cfg(kind, 4)).unwrap();
            for batch in &batches {
                engine.ingest(batch.clone()).unwrap();
            }
            let cube_off = engine.shutdown().summary.encode();
            assert_eq!(served[0], cube_off, "a cube changed the Count-Min sketch");
        }
    }
}

fn durable_cube(dir: &std::path::Path, kind: SummaryKind) -> ServiceConfig {
    ServiceConfig::new(kind, 0.02)
        .shards(2)
        .delta_updates(150)
        .durability(DurabilityConfig::new(dir).checkpoint_batches(1 << 20))
        .segments(segments(8))
}

/// The restart's checkpoint cut falls inside the open segment, which
/// recovery rebuilds and keeps open: the batches after the restart reach
/// the global summary once, through that segment's seal or view, and a
/// second checkpoint and restart cut the fed stream exactly.
#[test]
fn a_restart_inside_an_open_segment_feeds_each_batch_once() {
    let batches: Vec<Vec<u64>> = (0..30u64)
        .map(|i| (0..100).map(|j| (i * 17 + j * j) % 89).collect())
        .collect();
    for kind in SummaryKind::all() {
        let dir = scratch_dir(kind.label());
        let cfg = durable_cube(&dir, kind);
        let engine = Engine::start(cfg.clone()).unwrap();
        for (i, batch) in batches[..14].iter().enumerate() {
            engine.ingest(batch.clone()).unwrap();
            if i + 1 == 12 {
                // Seqs 9..12 are the open segment's.
                engine.checkpoint_now().unwrap();
            }
        }
        engine.abort();

        let weight = |upto: usize| (upto * 100) as u64;
        let engine = Engine::start(cfg.clone()).unwrap();
        let r = engine.recovery().unwrap();
        assert_eq!((r.checkpoint_seq, r.replayed_records), (12, 2), "{kind:?}");
        assert_eq!(
            r.preloaded_weight + r.replayed_weight,
            weight(14),
            "{kind:?}"
        );
        let open = engine.segment_report().unwrap().segments.pop().unwrap();
        assert_eq!((open.start_seq, open.end_seq, open.sealed), (9, 14, false));
        // Seqs 15 and 16 end the recovered segment, 17..24 seal a fed one
        // and 25..27 are open.
        for batch in &batches[14..27] {
            engine.ingest(batch.clone()).unwrap();
        }
        engine.flush().unwrap();
        assert_eq!(
            engine.snapshot().summary.total_weight(),
            weight(27),
            "{kind:?}"
        );
        engine.checkpoint_now().unwrap();
        for batch in &batches[27..] {
            engine.ingest(batch.clone()).unwrap();
        }
        engine.abort();

        let engine = Engine::start(cfg.clone()).unwrap();
        let r = engine.recovery().unwrap();
        assert_eq!((r.checkpoint_seq, r.replayed_records), (27, 3), "{kind:?}");
        assert_eq!(
            r.preloaded_weight + r.replayed_weight,
            weight(30),
            "{kind:?}"
        );
        assert_eq!(
            engine.snapshot().summary.total_weight(),
            weight(30),
            "{kind:?}"
        );
        let stream = batches.concat();
        let bound = cfg.epsilon * stream.len() as f64 + 1.0;
        let frequency = FrequencyOracle::from_stream(stream.iter().copied());
        let rank = RankOracle::from_stream(stream.iter().copied());
        // A Count-Min engine's segments fold its sketch, but no range
        // reads it.
        assert!(engine
            .range_query(0, u64::MAX, SummaryKind::CountMin)
            .is_err());
        for range_kind in STREAMED_KINDS {
            let (meta, merged) = engine.range_query(0, u64::MAX, range_kind).unwrap();
            assert_eq!(meta.covered_weight, weight(30), "{range_kind:?}");
            let merged = merged.unwrap();
            let worst = match range_kind {
                SummaryKind::HybridQuantile => (0..=89u64)
                    .map(|x| rank.rank_error(&x, merged.rank(x).unwrap()))
                    .max(),
                _ => frequency
                    .iter()
                    .map(|(item, truth)| merged.point(*item).unwrap().abs_diff(truth))
                    .max(),
            };
            assert!(
                worst.unwrap() as f64 <= bound,
                "{kind:?} / {range_kind:?}: {worst:?} > {bound}"
            );
        }
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Three writers through one group commit, whose leader sends a view every
/// 50 items folded, race a thread that flushes and checkpoints: every
/// flush holds what was acked before it, and the last racing checkpoint's
/// cut plus the replay above it recover the acked weight exactly.
#[test]
fn barriers_and_checkpoints_racing_views_cut_at_a_batch() {
    with_deadline(120, "feed race", || {
        let dir = scratch_dir("race");
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .delta_updates(50)
            .durability(
                DurabilityConfig::new(&dir)
                    .fsync(FsyncPolicy::Never)
                    .checkpoint_batches(64),
            )
            .segments(segments(7));
        let engine = Engine::start(cfg.clone()).unwrap();
        let acked = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..3u64)
            .map(|w| {
                let (engine, acked) = (Arc::clone(&engine), Arc::clone(&acked));
                std::thread::spawn(move || {
                    for i in 0..300u64 {
                        engine.ingest(vec![w * 1_000 + i % 23; 10]).unwrap();
                        acked.fetch_add(10, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        let mut cuts = 0;
        while writers.iter().any(|w| !w.is_finished()) {
            let before = acked.load(Ordering::SeqCst);
            engine.flush().unwrap();
            let served = engine.snapshot().summary.total_weight();
            assert!(served >= before, "flush served {served} of {before} acked");
            engine.checkpoint_now().unwrap();
            cuts += 1;
        }
        for w in writers {
            w.join().unwrap();
        }
        assert!(cuts > 0);
        engine.abort();

        let engine = Engine::start(cfg).unwrap();
        let r = engine.recovery().unwrap();
        assert_eq!(r.preloaded_weight + r.replayed_weight, 9_000, "{r:?}");
        assert_eq!(engine.snapshot().summary.total_weight(), 9_000);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    });
}
