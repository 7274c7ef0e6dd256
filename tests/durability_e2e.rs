//! End-to-end durability: the full data-directory lifecycle across
//! engine restarts. Every test drives the public service API only —
//! `serve --data-dir` behavior, not store internals — and checks the
//! paper's invariant that a checkpointed summary merges back with no
//! error degradation: total weight is *exactly* preserved and point
//! estimates stay within `ε·n` of an exact oracle on the replayed
//! stream.

use std::path::PathBuf;

use mergeable_summaries::core::{FrequencyOracle, ItemSummary, Summary, Wire};
use mergeable_summaries::service::{
    DurabilityConfig, Engine, SegmentConfig, ServiceConfig, ShardSummary, SummaryKind,
};
use mergeable_summaries::store::CheckpointStore;
use mergeable_summaries::SpaceSavingSummary;

mod support;
use support::scratch_dir;

const EPS: f64 = 0.05;
const BATCH: usize = 50;

fn durable_cfg(kind: SummaryKind, dir: &PathBuf) -> ServiceConfig {
    ServiceConfig::new(kind, EPS)
        .shards(2)
        .delta_updates(64)
        .durability(DurabilityConfig::new(dir).segment_bytes(1024))
}

/// A deterministic stream of `batches` batches. Two items in three cycle
/// through 17 values, keeping a few items heavy so point estimates are
/// meaningful; every third item is new, so the ≈ 1/ε counters fill up
/// and the summaries prune.
fn batches(batches: usize) -> Vec<Vec<u64>> {
    (0..batches)
        .map(|b| {
            (b * BATCH..(b + 1) * BATCH)
                .map(|j| if j % 3 == 2 { 1_000 + j } else { j % 17 } as u64)
                .collect()
        })
        .collect()
}

/// The two heavy-hitter kinds; `serve --kind space-saving` runs MG from
/// its first item and must survive restarts exactly as `--kind mg` does.
const COUNTER_KINDS: [SummaryKind; 2] = [SummaryKind::Mg, SummaryKind::SpaceSaving];

/// The recovered summary must answer every item within `ε·n` of the
/// exact counts of the stream it claims to hold.
fn assert_within_bound(engine: &Engine, stream: &[Vec<u64>]) {
    let flat: Vec<u64> = stream.iter().flatten().copied().collect();
    let oracle = FrequencyOracle::from_stream(flat.iter().copied());
    let snap = engine.snapshot();
    let bound = EPS * flat.len() as f64 + 1.0;
    for (item, truth) in oracle.iter() {
        let est = snap.summary.point(*item).unwrap_or(0);
        assert!(
            (est.abs_diff(truth) as f64) <= bound,
            "item {item}: estimate {est} vs exact {truth} outside eps*n bound {bound:.1}"
        );
    }
}

#[test]
fn empty_data_dir_starts_fresh() {
    let dir = scratch_dir("fresh");
    let engine = Engine::start(durable_cfg(SummaryKind::Mg, &dir)).unwrap();
    let report = engine.recovery().expect("durable engine reports recovery");
    assert_eq!(report.checkpoint_seq, 0);
    assert_eq!(report.checkpoint_parts, 0);
    assert_eq!(report.replayed_records, 0);
    assert_eq!(report.corrupt_records, 0);
    assert_eq!(report.corrupt_checkpoints, 0);
    assert_eq!(engine.snapshot().summary.total_weight(), 0);

    // The fresh directory is immediately usable.
    engine.ingest(vec![7; 10]).unwrap();
    engine.flush().unwrap();
    assert_eq!(engine.snapshot().summary.total_weight(), 10);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_shutdown_restart_recovers_from_checkpoint_alone() {
    for kind in COUNTER_KINDS {
        let dir = scratch_dir(&format!("clean-{}", kind.label()));
        let stream = batches(40);
        let engine = Engine::start(durable_cfg(kind, &dir)).unwrap();
        for batch in &stream {
            engine.ingest(batch.clone()).unwrap();
        }
        // A clean shutdown writes a final checkpoint covering the whole WAL.
        let weight = engine.shutdown().summary.total_weight();
        assert_eq!(weight, (40 * BATCH) as u64);

        let engine = Engine::start(durable_cfg(kind, &dir)).unwrap();
        let report = engine.recovery().unwrap();
        assert_eq!(
            report.checkpoint_seq, 40,
            "final checkpoint covers all batches"
        );
        assert_eq!(
            report.replayed_records, 0,
            "no WAL tail after a clean shutdown"
        );
        assert_eq!(report.preloaded_weight, weight);
        assert_eq!(engine.snapshot().summary.kind(), kind);
        assert_eq!(engine.snapshot().summary.total_weight(), weight);
        assert_within_bound(&engine, &stream);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn checkpoint_with_no_wal_tail_restores_exactly() {
    let dir = scratch_dir("ckpt-no-tail");
    let stream = batches(25);
    let engine = Engine::start(durable_cfg(SummaryKind::Mg, &dir)).unwrap();
    for batch in &stream {
        engine.ingest(batch.clone()).unwrap();
    }
    // Checkpoint explicitly, then die without the shutdown path: the
    // checkpoint is the only durable state that matters.
    engine.checkpoint_now().unwrap();
    engine.abort();

    let engine = Engine::start(durable_cfg(SummaryKind::Mg, &dir)).unwrap();
    let report = engine.recovery().unwrap();
    assert_eq!(report.checkpoint_seq, 25);
    assert_eq!(report.replayed_records, 0);
    assert_eq!(
        engine.snapshot().summary.total_weight(),
        (25 * BATCH) as u64
    );
    assert_within_bound(&engine, &stream);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_with_no_checkpoint_replays_everything() {
    let dir = scratch_dir("wal-only");
    let stream = batches(30);
    let engine = Engine::start(durable_cfg(SummaryKind::Mg, &dir)).unwrap();
    for batch in &stream {
        engine.ingest(batch.clone()).unwrap();
    }
    // Die before any checkpoint ever runs: the WAL alone must carry the
    // whole stream across small rotated segments.
    engine.abort();

    let engine = Engine::start(durable_cfg(SummaryKind::Mg, &dir)).unwrap();
    let report = engine.recovery().unwrap();
    assert_eq!(report.checkpoint_seq, 0);
    assert_eq!(report.checkpoint_parts, 0);
    assert_eq!(report.replayed_records, 30);
    let segments = std::fs::read_dir(dir.join("wal")).unwrap().count();
    assert!(segments > 1, "1 KiB segments must have rotated");
    assert_eq!(
        engine.snapshot().summary.total_weight(),
        (30 * BATCH) as u64
    );
    assert_within_bound(&engine, &stream);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_idempotent_across_repeated_restarts() {
    for kind in COUNTER_KINDS {
        let dir = scratch_dir(&format!("idempotent-{}", kind.label()));
        let stream = batches(20);
        let engine = Engine::start(durable_cfg(kind, &dir)).unwrap();
        for (i, batch) in stream.iter().enumerate() {
            engine.ingest(batch.clone()).unwrap();
            if i + 1 == 12 {
                engine.checkpoint_now().unwrap();
            }
        }
        engine.abort();

        // Restart twice, aborting in between so nothing new is written:
        // both recoveries must read the same state (checkpoint plus WAL
        // tail) and apply each record exactly once — replay never
        // inflates weight.
        let mut weights = Vec::new();
        for _ in 0..2 {
            let engine = Engine::start(durable_cfg(kind, &dir)).unwrap();
            let report = engine.recovery().unwrap();
            assert_eq!(report.checkpoint_seq, 12);
            assert_eq!(report.replayed_records, 8);
            assert_eq!(report.duplicate_records, 0);
            weights.push(engine.snapshot().summary.total_weight());
            assert_within_bound(&engine, &stream);
            engine.abort();
        }
        assert_eq!(weights, vec![(20 * BATCH) as u64; 2], "{}", kind.label());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Copy the data directory `from` to `to`, files and subdirectories.
fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// One directory, written with a checkpoint mid-stream and then aborted,
/// recovers to the same summary bytes at 1, 2 and 4 shards with the cube
/// off and on: the checkpoint is one part and the replayed tail another,
/// folded in that order, so the recovered summary is a function of the
/// directory alone. The weights account for every written batch.
#[test]
fn recovery_is_a_function_of_the_directory() {
    let stream: Vec<Vec<u64>> = support::zipf(40 * 500, 0x5EED)
        .chunks(500)
        .map(<[u64]>::to_vec)
        .collect();
    let written = stream.iter().map(Vec::len).sum::<usize>() as u64;
    let cfg = |kind, dir: &PathBuf, shards, cube: bool| {
        let cfg = ServiceConfig::new(kind, 0.02)
            .shards(shards)
            .delta_updates(1_000)
            .durability(DurabilityConfig::new(dir));
        match cube {
            true => cfg.segments(SegmentConfig::new().seal_batches(6)),
            false => cfg,
        }
    };
    for kind in [
        SummaryKind::Mg,
        SummaryKind::HybridQuantile,
        SummaryKind::CountMin,
    ] {
        for writer_cube in [false, true] {
            let tag = format!("function-{}-{writer_cube}", kind.label());
            let dir = scratch_dir(&tag);
            let engine = Engine::start(cfg(kind, &dir, 4, writer_cube)).unwrap();
            for (i, batch) in stream.iter().enumerate() {
                engine.ingest(batch.clone()).unwrap();
                if i + 1 == 15 {
                    engine.checkpoint_now().unwrap();
                }
            }
            engine.abort();

            let mut served = Vec::new();
            for shards in [1, 2, 4] {
                for cube in [false, true] {
                    let copy = scratch_dir(&format!("{tag}-{shards}-{cube}"));
                    copy_dir(&dir, &copy);
                    let engine = Engine::start(cfg(kind, &copy, shards, cube)).unwrap();
                    let r = engine.recovery().unwrap();
                    assert_eq!(r.checkpoint_seq, 15, "{tag}");
                    assert_eq!(r.preloaded_weight + r.replayed_weight, written, "{tag}");
                    served.push(engine.snapshot().summary.encode());
                    engine.abort();
                    let _ = std::fs::remove_dir_all(&copy);
                }
            }
            assert!(
                served.windows(2).all(|w| w[0] == w[1]),
                "{tag}: the recovered bytes depend on the shard count or the cube"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn a_streamed_space_saving_checkpoint_part_still_adopts() {
    // Engines before SpaceSaving shards ran MG form could checkpoint a
    // SpaceSaving summary that had never merged, in its streaming
    // representation. Plant one such part at cut 20 beside a WAL of 30
    // batches: recovery adopts it through Lemma 1 and replays the tail.
    let dir = scratch_dir("streamed-ss");
    let stream = batches(30);
    let cfg = || durable_cfg(SummaryKind::SpaceSaving, &dir);
    let engine = Engine::start(cfg()).unwrap();
    for batch in &stream {
        engine.ingest(batch.clone()).unwrap();
    }
    engine.abort();

    let mut streamed = SpaceSavingSummary::for_epsilon(EPS);
    for batch in &stream[..20] {
        streamed.extend_from(batch.iter().copied());
    }
    assert!(streamed.min_counter() > 0, "the streamed part must be full");
    let mut part = SummaryKind::SpaceSaving.encode();
    streamed.encode_into(&mut part);
    assert_eq!(*part.last().unwrap(), 0, "streaming representation");
    CheckpointStore::open(dir.join("ckpt"), false)
        .unwrap()
        .write_set(20, 1, &[part])
        .unwrap();

    let engine = Engine::start(cfg()).unwrap();
    let report = engine.recovery().unwrap();
    assert_eq!(report.corrupt_checkpoints, 0, "{:?}", report.notes);
    assert_eq!((report.checkpoint_seq, report.checkpoint_parts), (20, 1));
    assert_eq!(report.replayed_records, 10);
    assert_eq!(
        engine.snapshot().summary.total_weight(),
        (30 * BATCH) as u64
    );
    assert_within_bound(&engine, &stream);
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn multi_part_checkpoint_set_recovers_and_the_next_set_is_one_part() {
    // Older engines kept per-shard accumulators and wrote one checkpoint
    // part per shard. Plant exactly that — three
    // shard summaries at cut 20, same file format — beside a WAL holding
    // 30 batches, and recover from it.
    let dir = scratch_dir("multi-part");
    let stream = batches(30);
    let engine = Engine::start(durable_cfg(SummaryKind::Mg, &dir)).unwrap();
    for batch in &stream {
        engine.ingest(batch.clone()).unwrap();
    }
    engine.abort();

    let plant_shard_parts = |cut: usize| {
        let cfg = durable_cfg(SummaryKind::Mg, &dir);
        let mut shards: Vec<ShardSummary> = (0..3).map(|s| ShardSummary::new(&cfg, s)).collect();
        for (i, batch) in stream[..cut].iter().enumerate() {
            shards[i % 3].update_batch(batch);
        }
        let parts: Vec<Vec<u8>> = shards.iter().map(|s| s.encode()).collect();
        CheckpointStore::open(dir.join("ckpt"), false)
            .unwrap()
            .write_set(cut as u64, 1, &parts)
            .unwrap();
    };
    // A restart's (checkpoint seq, parts, preloaded batches, replayed WAL
    // records); whatever it recovered from, it holds all 30 batches.
    let restart = || {
        let engine = Engine::start(durable_cfg(SummaryKind::Mg, &dir)).unwrap();
        let r = engine.recovery().unwrap();
        assert_eq!(r.corrupt_checkpoints, 0, "{:?}", r.notes);
        assert_eq!(
            engine.snapshot().summary.total_weight(),
            (30 * BATCH) as u64
        );
        assert_within_bound(&engine, &stream);
        let preloaded = r.preloaded_weight / BATCH as u64;
        let found = (r.checkpoint_seq, r.checkpoint_parts, preloaded);
        (engine, found, r.replayed_records)
    };

    plant_shard_parts(20);
    let (engine, found, replayed) = restart();
    assert_eq!((found, replayed), ((20, 3, 20), 10));
    // What this engine checkpoints is the merged summary itself.
    engine.checkpoint_now().unwrap();
    engine.abort();
    let (engine, found, replayed) = restart();
    assert_eq!((found, replayed), ((30, 1, 30), 0));
    engine.abort();

    // The upgrade path: the old layout sits at the very cut the next
    // checkpoint takes (restart, no ingest, clean stop). The one-part set
    // replaces it; the old parts 1 and 2 are ignored, not a corrupt set.
    plant_shard_parts(30);
    let (engine, found, _) = restart();
    assert_eq!(found, (30, 3, 30));
    engine.shutdown();
    let (engine, found, _) = restart();
    assert_eq!(found, (30, 1, 30));
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_wal_resumes_above_the_cube_floor_when_its_files_are_lost() {
    // Segment files are synced on every seal, the WAL only every N
    // appends, so a power loss can keep segments past the WAL's end. The
    // extreme case: every WAL file gone, five sealed segments kept. New
    // batches must be numbered above the segments' last seq, or the cube
    // ignores them as already folded and range answers miss them.
    let dir = scratch_dir("cube-floor");
    let cfg = || {
        ServiceConfig::new(SummaryKind::Mg, EPS)
            .durability(DurabilityConfig::new(&dir).checkpoint_batches(1 << 20))
            .segments(SegmentConfig::new().seal_batches(4))
    };
    let items = support::zipf(2_800, 0xF1_00D5);
    let (before, after) = items.split_at(2_000);
    let engine = Engine::start(cfg()).unwrap();
    for batch in before.chunks(100) {
        engine.ingest(batch.to_vec()).unwrap();
    }
    assert_eq!(engine.cube().unwrap().persisted_floor(), 20, "five seals");
    engine.abort();
    for wal in std::fs::read_dir(dir.join("wal")).unwrap() {
        std::fs::remove_file(wal.unwrap().path()).unwrap();
    }

    let engine = Engine::start(cfg()).unwrap();
    let report = engine.recovery().unwrap();
    assert_eq!(report.cube_segments_adopted, 5, "{:?}", report.notes);
    for batch in after.chunks(100) {
        engine.ingest(batch.to_vec()).unwrap();
    }
    let (meta, answer) = engine.range_query(0, u64::MAX, SummaryKind::Mg).unwrap();
    assert_eq!(meta.covered_weight, 2_800, "every acked batch is in range");
    assert_eq!(meta.end_seq, 28);
    let answer = answer.unwrap();
    let oracle = FrequencyOracle::from_stream(items.iter().copied());
    let bound = EPS * 2_800.0 + 1.0;
    for (item, truth) in oracle.iter() {
        let est = answer.point(*item).unwrap();
        assert!((est.abs_diff(truth) as f64) <= bound, "item {item}");
    }
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
