//! The durability plane, present when the config names a data directory:
//! the group-commit WAL append on the ingest path, whose leader folds each
//! logged batch into the cube under the seq the log gave it (the cube then
//! writes the segment files it seals); the checkpoint cycle, which the
//! ingest whose append crosses the cadence runs on its own thread before
//! its ack, and the one-part checkpoint sets it writes; and the recovery
//! that reads WAL, checkpoints and segment files back at start. Ledger
//! rows `wal.append`, `checkpoint.write` and `segment.write`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::time::Instant;

use ms_core::wire::{decode_u64_slice_into, encode_u64_slice_into};
use ms_core::{lock, BufferPool, Mergeable, ServiceError, Summary, Wire, WireReader};
use ms_store::{GroupCommit, Store};

use super::{Engine, Snapshot};
use crate::config::{DurabilityConfig, ServiceConfig};
use crate::cube::SegmentCube;
use crate::protocol::IngestFrame;
use crate::summary::ShardSummary;
use crate::telemetry::EngineTelemetry;

/// What recovery found and rebuilt when a durable engine started. All
/// damage counters come from CRC verification in `ms-store`: corrupted
/// records are reported here and *excluded* from the rebuilt state,
/// never silently ingested.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// WAL cut of the checkpoint set that was merged back (0 = none).
    pub checkpoint_seq: u64,
    /// Parts in that set: one for every set this engine writes, one per
    /// shard in sets older engines wrote.
    pub checkpoint_parts: usize,
    /// Total weight restored from the checkpoint.
    pub preloaded_weight: u64,
    /// WAL records newer than the checkpoint that were re-applied.
    pub replayed_records: u64,
    /// Total weight in those replayed records.
    pub replayed_weight: u64,
    /// Damaged WAL spans skipped (CRC mismatch, resynchronized).
    pub corrupt_records: u64,
    /// Checkpoint files discarded as damaged or incomplete.
    pub corrupt_checkpoints: u64,
    /// Torn bytes truncated from the end of the log.
    pub torn_bytes: u64,
    /// WAL records dropped as duplicates (idempotent replay).
    pub duplicate_records: u64,
    /// Highest valid WAL seq found on disk.
    pub wal_last_seq: u64,
    /// Sealed cube segments adopted from disk (0 when the cube is off).
    pub cube_segments_adopted: u64,
    /// Cube segment files discarded as damaged or non-contiguous; the
    /// batches they covered were rebuilt from the WAL tail.
    pub corrupt_cube_segments: u64,
    /// Wall-clock cost of the whole recovery (scan + merge + replay).
    pub duration_micros: u64,
    /// Human-readable damage notes from the store scan.
    pub notes: Vec<String>,
}

/// The engine's durability plane. Owns the open store, whose lock comes
/// last in the engine's lock order (see `Engine::checkpointing`).
pub(super) struct Durable {
    cfg: DurabilityConfig,
    pub(super) store: Mutex<Store>,
    /// Leader–follower group commit over `store`: concurrent appends
    /// share one store-lock round and at most one fsync per group, and the
    /// leader runs [`fold_logged`] on every record it appends.
    group: GroupCommit,
    /// Recycled WAL record buffers, refilled by [`fold_logged`].
    wal_pool: Arc<BufferPool<u8>>,
    batches_since_ckpt: AtomicU64,
    /// WAL cut of the last checkpoint set written, and when.
    pub(super) last_ckpt: Mutex<(u64, Instant)>,
    pub(super) recovery: Mutex<RecoveryReport>,
}

/// The engine's cube, and its durability plane with what recovery found.
type Opened = (
    Option<Arc<SegmentCube>>,
    Option<(Durable, ms_store::Recovery)>,
);

impl Durable {
    /// Open and scan the data directory `cfg` names, if any, handing
    /// `cube` the store's segment files. What the scan found is applied by
    /// [`Engine::recover`] once the engine exists.
    pub(super) fn open(
        cfg: &ServiceConfig,
        cube: Option<SegmentCube>,
        telemetry: &Arc<EngineTelemetry>,
    ) -> Result<Opened, ServiceError> {
        let Some(dcfg) = &cfg.durability else {
            return Ok((cube.map(Arc::new), None));
        };
        let store_cfg = dcfg.store_config().cube_segments(cube.is_some());
        let (mut store, recovery) = Store::open(&store_cfg)?;
        let cube = cube.map(|cube| {
            let files = store.segments.take().expect("opened with cube segments");
            Arc::new(cube.with_store(files, Arc::clone(telemetry)))
        });
        let ckpt_seq = recovery.checkpoint.as_ref().map_or(0, |c| c.wal_seq);
        let wal_pool = Arc::new(BufferPool::new(cfg.pool_buffers));
        let durable = Durable {
            cfg: dcfg.clone(),
            store: Mutex::new(store),
            group: GroupCommit::new().with_record_hook(fold_logged(&cube, &wal_pool)),
            wal_pool,
            batches_since_ckpt: AtomicU64::new(0),
            last_ckpt: Mutex::new((ckpt_seq, Instant::now())),
            recovery: Mutex::new(RecoveryReport::default()),
        };
        Ok((cube, Some((durable, recovery))))
    }
}

/// The group-commit leader's hook: fold each appended record into the
/// cube, when there is one, under the seq the WAL gave it — so a batch is
/// in the cube before its append returns — then hand the record buffer
/// back to the pool.
fn fold_logged(
    cube: &Option<Arc<SegmentCube>>,
    wal_pool: &Arc<BufferPool<u8>>,
) -> impl Fn(u64, Vec<u8>) + Send + Sync + 'static {
    let (cube, wal_pool) = (cube.clone(), Arc::clone(wal_pool));
    // One leader at a time runs the hook, so this lock is uncontended.
    let items = Mutex::new(Vec::new());
    move |seq, record| {
        if let Some(cube) = &cube {
            let mut items = lock(&items);
            items.clear();
            decode_u64_slice_into(&mut WireReader::new(&record), &mut items)
                .expect("the WAL logs payloads validated on the way in");
            cube.record_at(seq, &items);
        }
        wal_pool.put(record);
    }
}

impl Engine {
    /// Merge the recovered checkpoint back into the engine and replay the
    /// WAL tail, validating everything *before* applying it: each part
    /// must merge cleanly with a fresh summary under this config (which
    /// catches kind, ε, and hash-seed mismatches), so must each adopted
    /// segment's families ([`crate::cube::SegmentCube::adopt`]), and
    /// each WAL payload must decode as a batch. Fails with a typed error
    /// rather than half-restoring.
    ///
    /// The replay is one part: every tail record above the checkpoint cut
    /// is absorbed, in seq order on this thread, into one summary, which
    /// is folded after the checkpoint's parts, before ingest opens. So the
    /// recovered summary is a function of the data directory alone,
    /// whatever the shard count and whether or not a cube is on. The
    /// cube, if any, refolds every record above its own floor.
    pub(super) fn recover(&self, recovery: ms_store::Recovery) -> Result<(), ServiceError> {
        let started = Instant::now();
        let mut report = RecoveryReport {
            corrupt_records: recovery.corrupt_records,
            corrupt_checkpoints: recovery.corrupt_checkpoints,
            torn_bytes: recovery.torn_bytes,
            duplicate_records: recovery.duplicates,
            wal_last_seq: recovery.last_seq,
            corrupt_cube_segments: recovery.corrupt_cube_segments,
            notes: recovery.notes,
            ..RecoveryReport::default()
        };
        if let Some(cube) = &self.cube {
            let adopt = cube.adopt(&recovery.cube)?;
            report.cube_segments_adopted = adopt.adopted as u64;
            report.corrupt_cube_segments += adopt.dropped as u64;
            report.notes.extend(adopt.notes);
        }
        if let Some(set) = recovery.checkpoint {
            report.checkpoint_seq = set.wal_seq;
            report.checkpoint_parts = set.parts.len();
            let mut parts = Vec::with_capacity(set.parts.len());
            for (i, bytes) in set.parts.iter().enumerate() {
                let part = ShardSummary::decode(bytes).map_err(|_| {
                    ServiceError::Config("checkpoint part does not decode as a shard summary")
                })?;
                let merged = ShardSummary::new(&self.cfg, i).merge(part).map_err(|_| {
                    ServiceError::Config(
                        "checkpoint incompatible with configured kind/epsilon/seed",
                    )
                })?;
                parts.push(merged);
            }
            for part in parts {
                report.preloaded_weight += part.total_weight();
                self.global.fold(part);
            }
        }
        // The tail reaches back to min(checkpoint cut, cube floor): the
        // cube replays every record above *its* floor to rebuild lost or
        // unsealed segments, while the global summary only re-applies
        // records the checkpoint has not already restored.
        let mut replayed = ShardSummary::new(&self.cfg, 0);
        let mut items = Vec::new();
        for mut entry in recovery.tail {
            let frame = IngestFrame::parse(&mut entry.payload, 0).map_err(|_| {
                ServiceError::Config("WAL record does not decode as an ingest batch")
            })?;
            items.clear();
            frame.decode_into(&mut items);
            if let Some(cube) = &self.cube {
                cube.record_at(entry.seq, &items);
            }
            if entry.seq > report.checkpoint_seq {
                report.replayed_records += 1;
                report.replayed_weight += items.len() as u64;
                replayed.update_batch(&items);
                self.count_batch(&items);
            }
        }
        if report.replayed_records > 0 {
            self.global.fold(replayed);
        }
        report.duration_micros = started.elapsed().as_micros() as u64;
        let corrupt = report.corrupt_records + report.corrupt_checkpoints;
        self.telemetry.event(
            "recovered",
            &[
                ("checkpoint_seq", report.checkpoint_seq),
                ("replayed", report.replayed_records),
                ("corrupt", corrupt),
            ],
        );
        let d = self.durable.as_ref().expect("recovered implies durable");
        *lock(&d.recovery) = report;
        Ok(())
    }

    /// Append one batch to the WAL via group commit — folding it into the
    /// cube on the way ([`fold_logged`]) — and say whether this append
    /// crossed the checkpoint cadence: then the caller runs
    /// [`Engine::checkpoint_at_cadence`] once its pause guard is gone,
    /// before its ack. No-op for in-memory engines. The caller holds the
    /// pause lock for read, so the append and the absorb that follows land
    /// on the same side of any checkpoint cut.
    ///
    /// The record is `received` verbatim ([`IngestFrame::payload`]), or
    /// `items` encoded when the batch came in process, written into a
    /// buffer that comes from (and returns to) the WAL buffer pool, so the
    /// durable hot path does not allocate in steady state.
    pub(super) fn append_durable(
        &self,
        items: &[u64],
        received: Option<&[u8]>,
    ) -> Result<bool, ServiceError> {
        let Some(d) = &self.durable else {
            return Ok(false);
        };
        let mut record = d.wal_pool.get();
        match received {
            Some(bytes) => record.extend_from_slice(bytes),
            None => encode_u64_slice_into(&mut record, items),
        }
        let outcome = d.group.append(&d.store, record)?;
        self.telemetry.record_wal_group(
            outcome.led.groups,
            outcome.led.records,
            outcome.led.bytes,
            outcome.led.fsyncs,
        );
        let since = d.batches_since_ckpt.fetch_add(1, Ordering::Relaxed) + 1;
        Ok(since % d.cfg.checkpoint_batches == 0)
    }

    /// The cadence checkpoint, on the ingesting thread whose append crossed
    /// the cadence, unless a checkpoint is running: the next crossing
    /// catches up. A failed checkpoint is not fatal: the WAL still has
    /// everything, and [`Engine::perform_checkpoint`] records the failure.
    pub(super) fn checkpoint_at_cadence(&self) {
        let Some(d) = &self.durable else {
            return;
        };
        let _one = match self.checkpointing.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        let _ = self.perform_checkpoint(d);
    }

    /// One checkpoint cycle on the caller's thread, which holds
    /// `self.checkpointing`. Fails with `Shutdown` once the engine is stopped.
    ///
    /// Consistency argument: with the pause lock held for write, no ingest
    /// is between "appended to WAL" and "absorbed", so the cut `W =
    /// last_seq` covers exactly the absorbed batches (on a cube server,
    /// the folded ones: the cube's last seq is `W`); the barrier then
    /// folds every shard's delta, or replaces the cube's open view, and
    /// publishes — the snapshot it hands back holds precisely the
    /// surviving data of seqs ≤ W. The lock is released before the files
    /// are written, so ingest resumes meanwhile.
    pub(super) fn perform_checkpoint(&self, d: &Durable) -> Result<(), ServiceError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServiceError::Shutdown);
        }
        let (cut, merged) = {
            let _pause = self.pause.write().unwrap_or_else(|e| e.into_inner());
            let cut = lock(&d.store).wal.last_seq();
            (cut, self.barrier())
        };
        let written = self.write_checkpoint(&merged, cut);
        if written.is_err() {
            self.telemetry.event("checkpoint_failed", &[]);
        }
        written
    }

    /// Persist `merged` as the one-part checkpoint set for WAL cut `cut`,
    /// then prune older sets and the segments they cover. The WAL is
    /// fsync'd first so the set never claims a cut newer than what is
    /// durable.
    pub(super) fn write_checkpoint(&self, merged: &Snapshot, cut: u64) -> Result<(), ServiceError> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        {
            let mut store = lock(&d.store);
            store.wal.sync()?;
            store
                .checkpoints
                .write_set(cut, merged.epoch, &[merged.summary.encode()])?;
            // Sets kept on disk: a damaged newest set falls back to the one
            // before it, replaying a longer tail.
            const KEEP_CHECKPOINTS: usize = 2;
            if let Some(floor) = store.checkpoints.prune_keep(KEEP_CHECKPOINTS)? {
                // The cube rebuilds lost segments from the WAL, so never
                // prune past the last *persisted* segment. A floor of 0
                // (no segment persisted yet) retains everything.
                let floor = match &self.cube {
                    Some(cube) => floor.min(cube.persisted_floor()),
                    None => floor,
                };
                store.wal.prune_covered(floor)?;
            }
        }
        *lock(&d.last_ckpt) = (cut, Instant::now());
        self.telemetry.record_checkpoint();
        self.telemetry.event("checkpoint", &[("wal_seq", cut)]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServiceConfig, SummaryKind};
    use crate::engine::tests::{durable_cfg, temp_data_dir};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn durable_shutdown_then_restart_restores_everything() {
        let dir = temp_data_dir("restart");
        let engine = Engine::start(durable_cfg(&dir)).unwrap();
        for i in 0..50u64 {
            engine.ingest(vec![i % 5; 20]).unwrap();
        }
        let before = engine.shutdown().summary.total_weight();
        assert_eq!(before, 1000);

        let engine = Engine::start(durable_cfg(&dir)).unwrap();
        let recovery = engine.recovery().expect("durable engine reports recovery");
        // Clean shutdown wrote a final checkpoint covering the whole WAL.
        assert_eq!(recovery.checkpoint_seq, 50);
        assert_eq!(recovery.replayed_records, 0);
        assert_eq!(recovery.corrupt_records, 0);
        assert_eq!(recovery.preloaded_weight, 1000);
        assert_eq!(engine.snapshot().summary.total_weight(), 1000);
        // Point estimates survive the round trip within the ε·n bound.
        let snap = engine.snapshot();
        for item in 0..5u64 {
            let est = snap.summary.point(item).unwrap();
            assert!(est <= 200 && 200 - est.min(200) <= (0.05 * 1000.0) as u64);
        }
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_abort_recovers_from_wal_replay_alone() {
        let dir = temp_data_dir("abort");
        let engine = Engine::start(durable_cfg(&dir)).unwrap();
        for _ in 0..30u64 {
            engine.ingest(vec![9; 10]).unwrap();
        }
        engine.abort();
        // No checkpoint was ever written: recovery must rebuild the full
        // stream from the WAL tail (fsync every:64 — but the process did
        // not die, so the OS page cache has every appended byte).
        let engine = Engine::start(durable_cfg(&dir)).unwrap();
        let recovery = engine.recovery().unwrap();
        assert_eq!(recovery.checkpoint_seq, 0);
        assert_eq!(recovery.replayed_records, 30);
        assert_eq!(recovery.replayed_weight, 300);
        assert_eq!(engine.snapshot().summary.total_weight(), 300);
        assert_eq!(engine.snapshot().summary.point(9), Some(300));
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn cube_cfg(dir: &std::path::Path, seal_batches: u64) -> ServiceConfig {
        durable_cfg(dir).segments(crate::config::SegmentConfig::new().seal_batches(seal_batches))
    }

    #[test]
    fn failed_segment_write_still_acks_and_a_restart_rebuilds_it() {
        let dir = temp_data_dir("segfail");
        let engine = Engine::start(cube_cfg(&dir, 4)).unwrap();
        for _ in 0..4u64 {
            engine.ingest(vec![3; 10]).unwrap();
        }
        let cube = engine.cube().unwrap();
        assert_eq!(cube.persisted_floor(), 4, "segment 0 is on disk");

        // The segment directory disappears under the running engine: the
        // write of segment 1 fails, its batches are acked all the same.
        std::fs::remove_dir_all(dir.join("seg")).unwrap();
        for _ in 0..6u64 {
            engine.ingest(vec![3; 10]).unwrap();
        }
        engine.flush().unwrap();
        assert_eq!(engine.snapshot().summary.total_weight(), 100);
        assert_eq!(engine.metrics().updates, 100);
        assert_eq!(
            cube.persisted_floor(),
            4,
            "the floor must not pass a lost segment"
        );
        let failures = engine
            .telemetry_snapshot()
            .counters
            .iter()
            .find(|(name, _)| name == "segment_persist_failed_total")
            .map(|(_, n)| *n);
        assert_eq!(failures, Some(1));
        // A checkpoint in this state keeps the WAL tail the rebuild needs.
        engine.checkpoint_now().unwrap();
        engine.abort();

        let engine = Engine::start(cube_cfg(&dir, 4)).unwrap();
        let recovery = engine.recovery().unwrap();
        assert_eq!(recovery.cube_segments_adopted, 0, "the directory was wiped");
        let report = engine.segment_report().unwrap();
        let spans: Vec<(u64, u64, bool)> = report
            .segments
            .iter()
            .map(|m| (m.start_seq, m.end_seq, m.sealed))
            .collect();
        assert_eq!(spans, vec![(1, 4, true), (5, 8, true), (9, 10, false)]);
        assert_eq!(
            engine.cube().unwrap().persisted_floor(),
            8,
            "rebuilt and rewritten"
        );
        assert_eq!(
            engine.snapshot().summary.total_weight(),
            100,
            "no double count"
        );
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_coarsened_rewrite_keeps_the_finer_files_it_replaces() {
        let dir = temp_data_dir("segcoarsen");
        let cfg = || {
            durable_cfg(&dir).segments(
                crate::config::SegmentConfig::new()
                    .seal_batches(2)
                    .coarsen_watermark(2),
            )
        };
        let engine = Engine::start(cfg()).unwrap();
        for _ in 0..8u64 {
            engine.ingest(vec![3; 10]).unwrap();
        }
        // Four seals squeezed into two coarsened files: 0 = seqs 1..4,
        // 2 = seqs 5..8. The checkpoint prunes the WAL up to them.
        let cube = engine.cube().unwrap();
        assert_eq!(cube.persisted_floor(), 8);
        engine.checkpoint_now().unwrap();

        // The next seal merges those two under id 0 and unlinks file 2.
        // Make exactly that rewrite fail (its tmp path is taken by a
        // directory) while the unlink would still succeed.
        let blocker = dir.join("seg").join(format!("seg-{:016x}.tmp", 0));
        std::fs::create_dir(&blocker).unwrap();
        for _ in 0..6u64 {
            engine.ingest(vec![3; 10]).unwrap();
        }
        engine.flush().unwrap();
        assert_eq!(engine.metrics().updates, 140, "every batch was acked");
        assert_eq!(
            cube.persisted_floor(),
            10,
            "segment 4 (seqs 9..10) was written before the rewrite failed"
        );
        assert!(
            dir.join("seg").join(format!("seg-{:016x}.seg", 2)).exists(),
            "the file the failed rewrite was to replace must stay"
        );
        // Prunes the WAL to the floor: seqs 5..8 now live in file 2 only.
        engine.checkpoint_now().unwrap();
        engine.abort();
        std::fs::remove_dir(&blocker).unwrap();

        let engine = Engine::start(cfg()).unwrap();
        let report = engine.segment_report().unwrap();
        assert_eq!(report.segments[0].start_seq, 1, "{report:?}");
        for pair in report.segments.windows(2) {
            assert_eq!(pair[1].start_seq, pair[0].end_seq + 1, "{report:?}");
        }
        assert_eq!(report.segments.last().unwrap().end_seq, 14);
        let (meta, _) = engine.range_query(0, u64::MAX, SummaryKind::Mg).unwrap();
        assert_eq!(meta.covered_weight, 140, "no history lost");
        assert_eq!(engine.snapshot().summary.total_weight(), 140);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A kill between a coarsened survivor's rename and the unlink of the
    /// file it absorbed leaves that finer file behind. A restart treats it
    /// as stale, not as a gap: it removes the file, adopts the rest,
    /// recovers gaplessly, and the full range holds ε·covered + 1 against
    /// the exact counts and ranks of the stream.
    #[test]
    fn coarsened_rewrite_killed_before_its_unlink_recovers_gaplessly() {
        use ms_core::{FrequencyOracle, RankOracle};
        let dir = temp_data_dir("segkill");
        let cfg = durable_cfg(&dir).segments(
            crate::config::SegmentConfig::new()
                .seal_batches(2)
                .coarsen_watermark(2),
        );
        let batches: Vec<Vec<u64>> = (0..7u64)
            .map(|i| (0..30).map(|j| (i * 13 + j * j) % 61).collect())
            .collect();
        let file = |id: u64| dir.join("seg").join(format!("seg-{id:016x}.seg"));
        let engine = Engine::start(cfg.clone()).unwrap();
        for batch in &batches[..4] {
            engine.ingest(batch.clone()).unwrap();
        }
        // Segments 0 (seqs 1..2) and 1 (3..4) are on disk. The third seal
        // merges them under id 0 and unlinks file 1 before the ack.
        let absorbed = std::fs::read(file(1)).unwrap();
        engine.ingest(batches[4].clone()).unwrap();
        engine.ingest(batches[5].clone()).unwrap();
        assert!(!file(1).exists(), "the coarsened rewrite unlinked it");
        assert_eq!(engine.cube().unwrap().persisted_floor(), 6);
        std::fs::write(file(1), absorbed).unwrap();
        engine.ingest(batches[6].clone()).unwrap();
        engine.abort();

        let engine = Engine::start(cfg.clone()).unwrap();
        let recovery = engine.recovery().unwrap();
        assert_eq!(recovery.cube_segments_adopted, 2, "{:?}", recovery.notes);
        assert_eq!(recovery.corrupt_cube_segments, 1, "the stale file");
        assert!(!file(1).exists(), "recovery finishes the unlink");
        let report = engine.segment_report().unwrap();
        assert_eq!(report.segments[0].start_seq, 1, "{report:?}");
        for pair in report.segments.windows(2) {
            assert_eq!(pair[1].start_seq, pair[0].end_seq + 1, "{report:?}");
        }
        assert_eq!(report.segments.last().unwrap().end_seq, 7);
        let stream = batches.concat();
        let bound = cfg.epsilon * stream.len() as f64 + 1.0;
        let frequency = FrequencyOracle::from_stream(stream.iter().copied());
        let rank = RankOracle::from_stream(stream.iter().copied());
        for kind in [SummaryKind::Mg, SummaryKind::HybridQuantile] {
            let (meta, merged) = engine.range_query(0, u64::MAX, kind).unwrap();
            assert_eq!((meta.start_seq, meta.end_seq), (1, 7), "{kind:?}");
            assert_eq!(meta.covered_weight, stream.len() as u64, "{kind:?}");
            let merged = merged.unwrap();
            let worst = match kind {
                SummaryKind::Mg => frequency
                    .iter()
                    .map(|(item, truth)| merged.point(*item).unwrap().abs_diff(truth))
                    .max(),
                _ => (0..=61u64)
                    .map(|x| rank.rank_error(&x, merged.rank(x).unwrap()))
                    .max(),
            };
            assert!(
                worst.unwrap() as f64 <= bound,
                "{kind:?}: {worst:?} > {bound}"
            );
        }
        assert_eq!(
            engine.snapshot().summary.total_weight(),
            stream.len() as u64
        );
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_floor_never_passes_a_segment_missing_from_disk() {
        const BATCHES: u64 = 300;
        let dir = temp_data_dir("segorder");
        // One batch per segment and no coarsening: segment id `i` covers
        // exactly seq `i + 1`, so a floor of F needs files 0..F on disk.
        let engine = Engine::start(cube_cfg(&dir, 1)).unwrap();
        let cube = Arc::clone(engine.cube().unwrap());
        let seg_dir = dir.join("seg");
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        for _ in 0..BATCHES / 2 {
                            engine.ingest(vec![5; 4]).unwrap();
                        }
                    })
                })
                .collect();
            let checker = scope.spawn(|| {
                start.wait();
                let mut checks = 0u64;
                while !done.load(Ordering::SeqCst) {
                    // Floor first, directory second: files only appear.
                    let floor = cube.persisted_floor();
                    let on_disk: std::collections::BTreeSet<u64> = std::fs::read_dir(&seg_dir)
                        .unwrap()
                        .filter_map(|e| {
                            let name = e.unwrap().file_name().into_string().unwrap();
                            let id = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
                            u64::from_str_radix(id, 16).ok()
                        })
                        .collect();
                    let contiguous = (0..).take_while(|id| on_disk.contains(id)).count() as u64;
                    assert!(
                        floor <= contiguous,
                        "floor {floor} is past the {contiguous} contiguous segment(s) on disk"
                    );
                    checks += 1;
                }
                checks
            });
            for writer in writers {
                writer.join().unwrap();
            }
            done.store(true, Ordering::SeqCst);
            assert!(checker.join().unwrap() > 0);
        });
        assert_eq!(
            cube.persisted_floor(),
            BATCHES,
            "in order means it catches up"
        );
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Four writers cross a two-batch cadence while `abort`, then
    /// `shutdown`, runs. Once stop returns no checkpoint file is created,
    /// renamed or removed, `checkpoint_now` fails with `Shutdown`, and a
    /// restart reads the newest set on disk at stop and every acked item.
    /// Each stop is raced several times: a checkpoint is in flight at
    /// only some of them.
    #[test]
    fn no_checkpoint_lands_after_stop_returns() {
        use std::collections::BTreeMap;
        const WRITERS: u64 = 4;
        for clean in [false, true].repeat(8) {
            let dir = temp_data_dir(&format!("stoprace-{clean}"));
            let cfg = durable_cfg(&dir).durability(
                DurabilityConfig::new(&dir)
                    .fsync(ms_store::FsyncPolicy::Never)
                    .checkpoint_batches(2),
            );
            // Every file under the checkpoint directory, `.tmp` included,
            // with its size.
            let listing = || -> BTreeMap<String, u64> {
                std::fs::read_dir(dir.join("ckpt"))
                    .unwrap()
                    .map(|e| {
                        let e = e.unwrap();
                        let name = e.file_name().into_string().unwrap();
                        (name, e.metadata().unwrap().len())
                    })
                    .collect()
            };
            let engine = Engine::start(cfg.clone()).unwrap();
            let acked = AtomicU64::new(0);
            let at_stop = std::thread::scope(|scope| {
                for w in 0..WRITERS {
                    let (engine, acked) = (&engine, &acked);
                    scope.spawn(move || loop {
                        match engine.ingest(vec![w; 16]) {
                            Ok(()) => acked.fetch_add(16, Ordering::Relaxed),
                            Err(ServiceError::Shutdown) => break,
                            Err(e) => panic!("writer {w}: {e:?}"),
                        };
                    });
                }
                let d = engine.durable.as_ref().unwrap();
                while lock(&d.last_ckpt).0 < 1_024 {
                    std::thread::yield_now();
                }
                if clean {
                    engine.shutdown();
                } else {
                    engine.abort();
                }
                listing()
            });
            // The writers are gone, each past its last cadence crossing.
            assert_eq!(listing(), at_stop, "clean {clean}");
            assert_eq!(engine.checkpoint_now(), Err(ServiceError::Shutdown));
            assert_eq!(listing(), at_stop, "clean {clean}");
            let newest = (at_stop.keys())
                .filter_map(|name| name.strip_prefix("ckpt-")?.strip_suffix("-0000.ckpt"))
                .map(|seq| u64::from_str_radix(seq, 16).unwrap())
                .max();
            drop(engine);

            let engine = Engine::start(cfg).unwrap();
            let recovery = engine.recovery().unwrap();
            assert_eq!(Some(recovery.checkpoint_seq), newest, "clean {clean}");
            assert_eq!(recovery.corrupt_checkpoints, 0, "{:?}", recovery.notes);
            let weight = engine.snapshot().summary.total_weight();
            assert_eq!(weight, acked.load(Ordering::Relaxed), "clean {clean}");
            if clean {
                assert_eq!(
                    recovery.replayed_records, 0,
                    "the final checkpoint covers all"
                );
            }
            engine.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn checkpoint_now_prunes_covered_wal_and_speeds_recovery() {
        let dir = temp_data_dir("ckptnow");
        let engine = Engine::start(durable_cfg(&dir)).unwrap();
        for _ in 0..20u64 {
            engine.ingest(vec![1; 10]).unwrap();
        }
        engine.checkpoint_now().unwrap();
        for _ in 0..7u64 {
            engine.ingest(vec![2; 10]).unwrap();
        }
        engine.abort();

        let engine = Engine::start(durable_cfg(&dir)).unwrap();
        let recovery = engine.recovery().unwrap();
        assert_eq!(recovery.checkpoint_seq, 20);
        assert_eq!(recovery.preloaded_weight, 200);
        assert_eq!(recovery.replayed_records, 7);
        assert_eq!(engine.snapshot().summary.total_weight(), 270);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_engine_exposes_wal_and_checkpoint_telemetry() {
        let dir = temp_data_dir("telemetry");
        let engine = Engine::start(durable_cfg(&dir)).unwrap();
        for _ in 0..10u64 {
            engine.ingest(vec![4; 8]).unwrap();
        }
        engine.checkpoint_now().unwrap();
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.counter("wal_records_total"), Some(10));
        assert!(snap.counter("wal_bytes_total").unwrap() > 0);
        assert!(snap.counter("checkpoints_total").unwrap() >= 1);
        assert_eq!(snap.gauge("wal_last_seq"), Some(10));
        assert_eq!(snap.gauge("checkpoint_seq"), Some(10));
        assert!(snap.gauge("checkpoint_age_micros").is_some());
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_with_wrong_kind_is_a_typed_config_error() {
        // MG and SpaceSaving hold the same table type; only the kind
        // keeps one's data directory from restarting as the other.
        for (written, restarted) in [
            (SummaryKind::Mg, SummaryKind::CountMin),
            (SummaryKind::Mg, SummaryKind::SpaceSaving),
            (SummaryKind::SpaceSaving, SummaryKind::Mg),
        ] {
            let dir = temp_data_dir("kind");
            let engine = Engine::start(ServiceConfig {
                kind: written,
                ..durable_cfg(&dir)
            })
            .unwrap();
            engine.ingest(vec![1; 10]).unwrap();
            engine.shutdown();
            let wrong = ServiceConfig::new(restarted, 0.05)
                .shards(2)
                .durability(crate::config::DurabilityConfig::new(&dir));
            assert!(
                matches!(Engine::start(wrong), Err(ServiceError::Config(_))),
                "{} restarted as {}",
                written.label(),
                restarted.label()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Segments sealed under one ε, before any checkpoint could catch
    /// the change, do not adopt under another: their families would not
    /// merge with the ones the restarted cube seals.
    #[test]
    fn restart_with_segments_of_another_epsilon_is_a_typed_config_error() {
        let dir = temp_data_dir("segeps");
        let at = |epsilon| {
            ServiceConfig::new(SummaryKind::Mg, epsilon)
                .shards(2)
                .durability(crate::config::DurabilityConfig::new(&dir))
                .segments(crate::config::SegmentConfig::new().seal_batches(2))
        };
        let engine = Engine::start(at(0.01)).unwrap();
        for i in 0..11u64 {
            engine.ingest(vec![i % 3; 10]).unwrap();
        }
        assert_eq!(engine.cube().unwrap().persisted_floor(), 10, "five seals");
        engine.abort();
        assert!(matches!(
            Engine::start(at(0.05)),
            Err(ServiceError::Config(_))
        ));
        let engine = Engine::start(at(0.01)).unwrap();
        assert_eq!(engine.recovery().unwrap().cube_segments_adopted, 5);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A data directory holding segment files in the four-slot layout
    /// and then in the two-slot one, the WAL pruned below both: a restart
    /// adopts every file, and a range across the two layouts holds
    /// ε·covered + 1 against the exact counts of the batches it covers.
    #[test]
    fn four_slot_and_two_slot_segment_files_adopt_together() {
        use ms_core::{FrequencyOracle, RankOracle};
        let dir = temp_data_dir("segmixed");
        let cfg = cube_cfg(&dir, 4);
        let batches: Vec<Vec<u64>> = (0..24u64)
            .map(|i| (0..40).map(|j| (i * 7 + j * j) % 97).collect())
            .collect();
        let store = ms_store::SegmentStore::open(dir.join("seg"), false).unwrap();
        let slots = || -> Vec<usize> {
            let loaded = store.load_all().unwrap();
            loaded.records.iter().map(|r| r.summaries.len()).collect()
        };

        // Three segments, checkpointed (which prunes the WAL below them),
        // rewritten the way files were laid out before the two-slot record.
        let engine = Engine::start(cfg.clone()).unwrap();
        for batch in &batches[..12] {
            engine.ingest(batch.clone()).unwrap();
        }
        engine.checkpoint_now().unwrap();
        engine.abort();
        for rec in store.load_all().unwrap().records {
            let items = batches[rec.start_seq as usize - 1..rec.end_seq as usize].concat();
            let four = crate::cube::four_slot_record(&rec, &items, cfg.epsilon, cfg.seed);
            store.write(&four).unwrap();
        }
        assert_eq!(slots(), [4, 4, 4]);

        // A restart adopts them and seals three more, in two slots.
        let engine = Engine::start(cfg.clone()).unwrap();
        assert_eq!(engine.recovery().unwrap().cube_segments_adopted, 3);
        for batch in &batches[12..] {
            engine.ingest(batch.clone()).unwrap();
        }
        engine.checkpoint_now().unwrap();
        engine.abort();
        assert_eq!(slots(), [4, 4, 4, 2, 2, 2]);

        let engine = Engine::start(cfg.clone()).unwrap();
        let recovery = engine.recovery().unwrap();
        assert_eq!(recovery.cube_segments_adopted, 6);
        assert_eq!(recovery.corrupt_cube_segments, 0);
        let stream = batches.concat();
        let bound = cfg.epsilon * stream.len() as f64 + 1.0;
        let frequency = FrequencyOracle::from_stream(stream.iter().copied());
        let rank = RankOracle::from_stream(stream.iter().copied());
        for kind in [SummaryKind::Mg, SummaryKind::HybridQuantile] {
            let (meta, merged) = engine.range_query(0, u64::MAX, kind).unwrap();
            assert_eq!((meta.start_seq, meta.end_seq), (1, 24), "{kind:?}");
            assert_eq!(meta.covered_weight, stream.len() as u64, "{kind:?}");
            let merged = merged.unwrap();
            let worst = match kind {
                SummaryKind::Mg => frequency
                    .iter()
                    .map(|(item, truth)| merged.point(*item).unwrap().abs_diff(truth))
                    .max(),
                _ => (0..=97u64)
                    .map(|x| rank.rank_error(&x, merged.rank(x).unwrap()))
                    .max(),
            };
            assert!(
                worst.unwrap() as f64 <= bound,
                "{kind:?}: {worst:?} > {bound}"
            );
        }
        assert!(matches!(
            engine.range_query(0, u64::MAX, SummaryKind::CountMin),
            Err(ServiceError::Config(_))
        ));
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
