//! The sharded concurrent aggregation engine.
//!
//! Mergeability (PODS'12, Definition 1) is exactly what makes this design
//! correct: the thread that receives a batch absorbs it into one of `N`
//! shard *delta* summaries, and a background compactor merges the deltas —
//! in whatever order they are handed off — into one global summary. Any
//! split of the stream into deltas is one more merge tree, and the error
//! guarantee survives arbitrary merge trees, so the concurrent engine
//! answers queries with the same `εn` bound as a single-threaded summary
//! of the whole stream.
//!
//! One fact picks the absorb: whether the engine has a segment cube.
//! Without one (data flow):
//!
//! ```text
//! ingest(batch) ──round-robin──▶ shard 0..N delta   (absorbed by the calling
//!                                │                   thread, under the shard lock)
//!                                │ full delta swapped for a spare every
//!                                │ `delta_updates` updates (bounded channel)
//!                                ▼
//!                             compactor ── merge ──▶ global summary
//!                                │ publish (epoch += 1), build the next spare
//!                                ▼
//!                    SwapCell<Snapshot>  ◀── snapshot()/queries (reads of
//!                                            an immutable value)
//! ```
//!
//! With one, whatever the kind, the segment fold is the only absorb and
//! the engine has no shards:
//!
//! ```text
//! ingest(batch) ── log ──▶ cube fold (under the fold lock, in seq order)
//!                            │ sealed segment's family  ── fold for good ──┐
//!                            │ open segment's view, every `delta_updates`  │
//!                            │ items and on every barrier (replaces the    ▼
//!                            │ last one)                             compactor
//!                            └────────── same bounded channel ──────────────┘
//!                  publish = global ⊕ view  ──▶ SwapCell<Snapshot>
//! ```
//!
//! Sealed segments are folded left-deep in seq order, so a cube server's
//! served summary is a function of the WAL order alone. Recovery hands
//! the compactor the same parts on either engine: the checkpoint's, then
//! the WAL tail above its cut absorbed into one summary in seq order (see
//! `durable.rs`), so a data directory recovers to the same bytes at any
//! shard count, cube on or off. The segment recovery leaves open feeds
//! only the batches folded after the restart.
//!
//! Readers never block writers: a query clones the current `Arc<Snapshot>`
//! out of a [`ms_core::SwapCell`] under a briefly held lock and then works
//! on the immutable snapshot; the compactor builds the next snapshot off
//! to the side and swaps it in.
//!
//! ## Stages
//!
//! One file per stage of the ledger's layer table, in the order a batch
//! meets them (DESIGN.md §3a keeps the same order):
//!
//! | File | Stage | Ledger rows |
//! |------|-------|-------------|
//! | `ingest.rs` | shed, log, absorb into a shard delta and hand off full deltas (on a cube server: log and fold) | `engine.ingest`, `summary.update_batch`, `cube.fold` |
//! | `durable.rs` | WAL group commit, checkpoints, segment files, recovery | `wal.append`, `checkpoint.write`, `segment.write` |
//! | `compactor.rs` | fold recovered parts, deltas and sealed segments, publish snapshots (with the open view), ready spares; the shared barrier | `compactor.merge_many`, `swap.publish` |
//! | `audit.rs` | accuracy self-audit against ground truth | — |
//!
//! This file holds the engine itself: start, the public methods, the
//! counters behind [`MetricsReport`] (registry counters, see
//! [`EngineTelemetry`]) and the one stop path `shutdown` and `abort`
//! share.
//!
//! ## Failure model
//!
//! The engine is built to *degrade*, not die. A shard absorb that panics
//! inside a summary (or is told to fail by [`crate::FaultPlan`]) loses
//! only that shard's un-handed-off delta and the batch in hand; a fresh delta takes
//! their place and the calling connection keeps serving. Every delta
//! already merged by the compactor stays in the published snapshot, which
//! remains a valid `ε·n'` summary of the `n'` updates that survived — that
//! is the mergeability theorem doing systems work. Each such loss counts
//! once in [`MetricsReport::shards_lost`]. Fallible operations return
//! [`ServiceError`] instead of panicking, and internal locks tolerate
//! poisoning.
//!
//! ## Hot path
//!
//! A received batch stays the bytes it arrived as until the thread that
//! received it decodes it, once, into a pooled item buffer: the WAL logs
//! the received bytes verbatim ([`IngestFrame`]) and the frame's buffer
//! stays with the connection that read it. An in-process
//! [`Engine::ingest`] joins the same path with its items in hand.
//!
//! In steady state one ingest performs **zero heap allocations** and a
//! fixed handful of short mutex sections, each paid once per *batch*,
//! never per item: the pause lock (read), the item-buffer pool
//! ([`ms_core::BufferPool`]) and the shard lock — plus, once per
//! `delta_updates` updates, the spare slot and one bounded-channel send.
//! On a cube server the fold lock takes the shard lock's place, and
//! the bounded-channel send (a view, or a sealed segment's family) is
//! made under it; the family is cloned for it, once per `delta_updates`
//! items and once per seal. Each item is summarised once.
//! Durable appends go through leader–follower group commit
//! ([`ms_store::GroupCommit`]) so the store mutex is amortized across
//! concurrent callers. See DESIGN.md §Hot path for the per-batch budget.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use ms_core::{lock, BufferPool, ServiceError, Summary, SwapCell};
use ms_obs::RegistrySnapshot;

use crate::config::{ServiceConfig, SummaryKind};
use crate::cube::SegmentCube;
use crate::overload::Admission;
use crate::protocol::{IngestFrame, RangeMeta, SegmentReport, TraceDumpReport};
use crate::summary::{MergeLineage, ShardSummary};
use crate::telemetry::EngineTelemetry;

mod audit;
mod compactor;
mod durable;
mod ingest;

pub use durable::RecoveryReport;

use audit::AuditPlane;
pub(crate) use compactor::CompactMsg;
use compactor::HANDOFF_SLOTS;
use durable::Durable;
use ingest::Shard;

/// An immutable published view of the global summary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Compaction epoch: how many publishes preceded this one.
    pub epoch: u64,
    /// The merged global summary as of this epoch.
    pub summary: ShardSummary,
    /// The merge tree that built `summary` and the weight its `ε·n`
    /// envelope applies to.
    pub lineage: MergeLineage,
    /// When this snapshot was published.
    pub published_at: Instant,
}

/// Point-in-time engine counters, cheap to copy over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsReport {
    /// Updates absorbed: into shard deltas, or, on a cube server, folded
    /// into the open segment; and those recovery replayed.
    pub updates: u64,
    /// Batches absorbed, as for `updates`.
    pub batches: u64,
    /// Always 0: nothing drops an accepted batch. The field keeps its
    /// wire slot.
    pub dropped: u64,
    /// Delta merges the compactor performed.
    pub merges: u64,
    /// Epoch of the current snapshot.
    pub epoch: u64,
    /// Age of the current snapshot in microseconds.
    pub snapshot_age_micros: u64,
    /// Total weight visible in the current snapshot.
    pub snapshot_weight: u64,
    /// Shard absorbs that failed (a panic inside a summary or an
    /// injected fault), each losing its shard's un-handed-off delta.
    pub shards_lost: u64,
    /// Wire frames the server rejected as malformed.
    pub frames_rejected: u64,
    /// Always 0: nothing reroutes a batch. The field keeps its wire slot.
    pub retries: u64,
}

impl MetricsReport {
    /// Fold another node's report into this one, cluster-wide.
    ///
    /// Work counters (updates, batches, merges, weights, losses) sum:
    /// each node did its share and the totals are exact. `epoch` and
    /// `snapshot_age_micros` are per-node gauges, not work: epochs
    /// advance independently per engine (a sum would fabricate an epoch
    /// no node ever published), so the merged report keeps the highest
    /// epoch and the *stalest* snapshot age — a federated answer is only
    /// as fresh as its stalest contributor.
    pub fn merge_from(&mut self, other: &MetricsReport) {
        self.updates += other.updates;
        self.batches += other.batches;
        self.dropped += other.dropped;
        self.merges += other.merges;
        self.epoch = self.epoch.max(other.epoch);
        self.snapshot_age_micros = self.snapshot_age_micros.max(other.snapshot_age_micros);
        self.snapshot_weight += other.snapshot_weight;
        self.shards_lost += other.shards_lost;
        self.frames_rejected += other.frames_rejected;
        self.retries += other.retries;
    }
}

/// Idle `Vec<u64>` buffers the item pool keeps at most.
const ITEM_POOL_SLOTS: usize = 8;

/// The engine: owns the shard deltas and the compactor thread. Cheap to
/// share as `Arc<Engine>`; all public methods take `&self`.
pub struct Engine {
    /// The engine itself, as the threads it spawns hold it: a `Weak`, so
    /// the engine is freed once its callers drop it, shut down or not.
    me: Weak<Engine>,
    cfg: ServiceConfig,
    /// One per shard: the delta ingesting threads absorb into, and the
    /// spare the compactor readies for its next hand-off. Empty on a cube
    /// server, whose cube is its absorb.
    shards: Vec<Shard>,
    /// Cached plain sender, never locked; a bounded channel, so a send
    /// does not allocate. The compactor exits on [`CompactMsg::Stop`],
    /// after which sends fail with a disconnect the callers map to
    /// [`ServiceError::Shutdown`].
    compact_tx: SyncSender<CompactMsg>,
    /// Recycled item buffers (`Vec<u64>`): what [`Engine::ingest_buffer`]
    /// lends an in-process caller, and what a received frame decodes into.
    item_pool: BufferPool<u64>,
    /// The published snapshot. Only the compactor swaps it.
    snapshot: SwapCell<Snapshot>,
    next_shard: AtomicUsize,
    stopped: AtomicBool,
    /// Every ingest holds this for read from its `stopped` check to the
    /// end of its absorb. Stop takes it for write to wait out the ingests
    /// already past that check, and the checkpointer to establish a WAL
    /// cut: "logged" and "absorbed" stay in lockstep.
    pause: RwLock<()>,
    /// Held for the whole drain: a concurrent second `shutdown` blocks on
    /// it and then observes the fully drained snapshot, never a partial one.
    shutdown_lock: Mutex<()>,
    compactor_handle: Mutex<Option<JoinHandle<()>>>,
    telemetry: Arc<EngineTelemetry>,
    /// Admission control / load shedding (permissive unless
    /// [`ServiceConfig::overload`] sets caps or watermarks).
    admission: Arc<Admission>,
    /// Accuracy self-audit ground truth (inert unless `cfg.audit`).
    audit: AuditPlane,
    /// WAL + checkpoints; `None` for a purely in-memory engine.
    durable: Option<Durable>,
    /// The segment cube (time-windowed range queries); `None` unless
    /// [`ServiceConfig::segments`] is set.
    cube: Option<Arc<SegmentCube>>,
}

impl Engine {
    /// Start the compactor thread for `cfg`. With durability configured
    /// this also opens the data directory, recovers its state (newest
    /// valid checkpoint merged back, WAL tail replayed — see
    /// [`Engine::recovery`]) and starts the checkpointer thread.
    pub fn start(cfg: ServiceConfig) -> Result<Arc<Engine>, ServiceError> {
        cfg.check()?;
        let telemetry = Arc::new(match cfg.segments {
            Some(_) => EngineTelemetry::for_cube(cfg.telemetry, cfg.seed),
            None => EngineTelemetry::new(cfg.shards, cfg.telemetry, cfg.seed),
        });
        // Open the store and scan before any thread starts; the recovered
        // state is applied below once the compactor runs to receive it.
        let cube = (cfg.segments.clone()).map(|scfg| SegmentCube::new(cfg.epsilon, cfg.seed, scfg));
        let (cube, opened) = Durable::open(&cfg, cube, &telemetry)?;
        let (durable, recovered) = opened.unzip();
        // Pressure reads the live queue-depth gauges, one per ingest path,
        // against `shards × queue_depth` slots whatever the paths.
        let admission = Arc::new(Admission::new(
            cfg.overload.clone(),
            telemetry.registry(),
            telemetry.queue_depth_gauges(),
            (cfg.shards * cfg.queue_depth) as u64,
        ));
        let (compact_tx, compact_rx) = mpsc::sync_channel::<CompactMsg>(HANDOFF_SLOTS);
        let shards = match cube {
            Some(_) => Vec::new(),
            None => (0..cfg.shards).map(|s| Shard::new(&cfg, s)).collect(),
        };

        let engine = Arc::new_cyclic(|me| Engine {
            me: me.clone(),
            snapshot: SwapCell::new(Snapshot {
                epoch: 0,
                summary: ShardSummary::new(&cfg, usize::MAX),
                lineage: MergeLineage::default(),
                published_at: Instant::now(),
            }),
            shards,
            compact_tx,
            // A caller holds an item buffer only for the length of one
            // call, so a few slots cover every thread that ingests at once.
            item_pool: BufferPool::new(cfg.pool_buffers.min(ITEM_POOL_SLOTS)),
            next_shard: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            pause: RwLock::new(()),
            shutdown_lock: Mutex::new(()),
            compactor_handle: Mutex::new(None),
            telemetry,
            admission,
            audit: AuditPlane::new(&cfg),
            durable,
            cube,
            cfg,
        });

        *lock(&engine.compactor_handle) = Some(engine.spawn_compactor(compact_rx)?);
        if let Some(recovery) = recovered {
            engine.recover(recovery)?;
        }
        // Whatever recovery rebuilt is in the global summary; from here on
        // the cube's folds are the engine's only absorb.
        if let Some(cube) = &engine.cube {
            let tx = engine.compact_tx.clone();
            cube.start_feed(tx, engine.cfg.kind, engine.cfg.delta_updates as u64);
        }
        Ok(engine)
    }

    /// What recovery found when this engine started, or `None` for an
    /// in-memory engine.
    pub fn recovery(&self) -> Option<RecoveryReport> {
        self.durable.as_ref().map(|d| lock(&d.recovery).clone())
    }

    /// The configuration the engine was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// A recycled buffer for building the next [`Engine::ingest`] batch:
    /// cleared, with its previous capacity intact, when one is idle;
    /// freshly allocated otherwise. [`Engine::ingest`] puts it back once
    /// the batch is absorbed, so an ingest loop that takes its buffers
    /// from here allocates nothing at all.
    pub fn ingest_buffer(&self) -> Vec<u64> {
        self.item_pool.get()
    }

    /// Item-buffer traffic: `(reuses, misses, discards)` so far.
    pub fn pool_stats(&self) -> (u64, u64, u64) {
        let p = &self.item_pool;
        (p.reuses(), p.misses(), p.discards())
    }

    /// Absorb a batch into the next shard's delta, on this thread. With
    /// durability enabled the batch is appended to the WAL (fsync'd per
    /// policy) *before* it is absorbed, so an acked batch is exactly as
    /// durable as the policy promises. The `Vec` goes back to
    /// [`Engine::ingest_buffer`]'s pool.
    pub fn ingest(&self, batch: Vec<u64>) -> Result<(), ServiceError> {
        let outcome = self.ingest_items(&batch, None);
        self.item_pool.put(batch);
        outcome
    }

    /// [`Engine::ingest`] for a batch that is still the bytes a client
    /// sent: decoded once into a pooled item buffer, logged verbatim. The
    /// frame's buffer stays with the caller.
    pub fn ingest_frame(&self, frame: &IngestFrame) -> Result<(), ServiceError> {
        let mut items = self.item_pool.get();
        frame.decode_into(&mut items);
        let outcome = self.ingest_items(&items, Some(frame.payload()));
        self.item_pool.put(items);
        outcome
    }

    /// Hand every shard's delta to the compactor and publish a fresh
    /// snapshot containing all data ingested before this call.
    pub fn flush(&self) -> Result<(), ServiceError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServiceError::Shutdown);
        }
        self.barrier()?.recv().map_err(|_| ServiceError::Shutdown)?;
        Ok(())
    }

    /// Write a checkpoint set now and wait for it to reach disk. Errors
    /// with `Config` when the engine has no data directory.
    pub fn checkpoint_now(&self) -> Result<(), ServiceError> {
        let Some(d) = &self.durable else {
            return Err(ServiceError::Config("durability is not enabled"));
        };
        let (ack_tx, ack_rx) = mpsc::channel();
        let sent = match lock(&d.trigger_tx).as_ref() {
            Some(tx) => tx.send(Some(ack_tx)).is_ok(),
            None => false,
        };
        if !sent {
            return Err(ServiceError::Shutdown);
        }
        ack_rx.recv().map_err(|_| ServiceError::Shutdown)
    }

    /// The current snapshot. The lock is held only to clone the `Arc`.
    /// Always answers, even after shutdown or a panicking absorb.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshot.load()
    }

    /// Answer a time-range query from the segment cube: merge the minimal
    /// covering segment set (open segment included when it overlaps) into
    /// one summary of family `kind`, per Definition 1. Returns the range
    /// metadata plus the merged summary, or `None` when no segment
    /// overlaps the window. Count-Min is refused: no segment keeps it.
    pub fn range_query(
        &self,
        start_micros: u64,
        end_micros: u64,
        kind: SummaryKind,
    ) -> Result<(RangeMeta, Option<ShardSummary>), ServiceError> {
        let Some(cube) = &self.cube else {
            return Err(ServiceError::Config("segment cube is not enabled"));
        };
        if kind == SummaryKind::CountMin {
            return Err(ServiceError::Config("no segment keeps a Count-Min family"));
        }
        let (meta, summary) = cube.query(start_micros, end_micros, kind);
        self.telemetry
            .record_range_covering(meta.segments_merged as u64);
        Ok((meta, summary))
    }

    /// Describe the cube's current segments (sealed and open).
    pub fn segment_report(&self) -> Result<SegmentReport, ServiceError> {
        let Some(cube) = &self.cube else {
            return Err(ServiceError::Config("segment cube is not enabled"));
        };
        Ok(cube.report())
    }

    /// The segment cube, when enabled — test and experiment seam.
    pub fn cube(&self) -> Option<&Arc<SegmentCube>> {
        self.cube.as_ref()
    }

    /// Record a wire frame the server rejected as malformed.
    pub fn record_rejected_frame(&self) {
        self.telemetry.counters.frames_rejected.inc();
    }

    /// The engine's observability plane (latency histograms, queue-depth
    /// gauges, the flight recorder).
    pub fn telemetry(&self) -> &Arc<EngineTelemetry> {
        &self.telemetry
    }

    /// The admission controller the server consults before dispatch
    /// (permissive unless [`ServiceConfig::overload`] configures caps or
    /// watermarks).
    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    /// The telemetry registry snapshot — the engine's counters included —
    /// with the pool, snapshot, durability and cube figures derived here
    /// folded in: the payload served for [`crate::Request::Telemetry`].
    /// Mergeable like any other [`RegistrySnapshot`].
    pub fn telemetry_snapshot(&self) -> RegistrySnapshot {
        let snap = self.snapshot();
        let (reuses, misses, discards) = self.pool_stats();
        let mut counters = vec![
            ("pool_discards_total", discards),
            ("pool_misses_total", misses),
            ("pool_reuses_total", reuses),
        ];
        let age = snap.published_at.elapsed().as_micros() as u64;
        let mut gauges = vec![
            ("snapshot_age_micros", age),
            ("snapshot_weight", snap.summary.total_weight()),
        ];
        if let Some(d) = &self.durable {
            let (duration, replayed, corrupt) = {
                let r = lock(&d.recovery);
                let corrupt = r.corrupt_records + r.corrupt_checkpoints;
                (r.duration_micros, r.replayed_records, corrupt)
            };
            let (ckpt_seq, ckpt_at) = *lock(&d.last_ckpt);
            let ckpt_age = ckpt_at.elapsed().as_micros() as u64;
            gauges.extend([
                ("checkpoint_seq", ckpt_seq),
                ("checkpoint_age_micros", ckpt_age),
                ("wal_last_seq", lock(&d.store).wal.last_seq()),
                ("recovery_duration_micros", duration),
                ("recovery_replayed_records", replayed),
                ("recovery_corrupt_records", corrupt),
            ]);
        }
        if let Some(cube) = &self.cube {
            let health = cube.health();
            self.telemetry.set_cube_health(&health);
            counters.extend([
                ("cube_coarsen_total", health.coarsened),
                ("cube_range_memo_hits", health.memo_hits),
                ("cube_range_memo_extends", health.memo_extends),
                ("cube_range_memo_misses", health.memo_misses),
            ]);
        }
        let engine = RegistrySnapshot {
            counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            gauges: gauges
                .iter()
                .map(|&(n, v)| (n.to_string(), v as i64))
                .collect(),
            histograms: Vec::new(),
        };
        self.telemetry.snapshot().merge(&engine)
    }

    /// The engine's flight-recorder rings as a wire-ready report — the
    /// payload served for [`crate::Request::TraceDump`].
    pub fn trace_dump(&self) -> TraceDumpReport {
        self.telemetry.trace_report()
    }

    /// Current counters plus snapshot-derived gauges.
    ///
    /// Consistency: each counter is individually monotone, and a
    /// [`ms_obs::Counter`] adds with `Release` and reads with `Acquire`,
    /// so a report observes every `shards_lost` or `frames_rejected`
    /// event that happened-before anything else it observes.
    /// The report is still not a consistent cut across *all* fields —
    /// `updates` keeps advancing while the snapshot fields are read —
    /// which is inherent to lock-free counters and fine for monitoring;
    /// tests may only assume per-field monotonicity.
    pub fn metrics(&self) -> MetricsReport {
        let c = &self.telemetry.counters;
        let snap = self.snapshot();
        MetricsReport {
            updates: c.updates.get(),
            batches: c.batches.get(),
            dropped: 0,
            merges: c.merges.get(),
            epoch: snap.epoch,
            snapshot_age_micros: snap.published_at.elapsed().as_micros() as u64,
            snapshot_weight: snap.summary.total_weight(),
            shards_lost: c.shards_lost.get(),
            frames_rejected: c.frames_rejected.get(),
            retries: 0,
        }
    }

    /// Drain everything, stop all threads, and return the final snapshot.
    /// Idempotent; later calls just return the current snapshot.
    ///
    /// Clean shutdown is lossless: stop waits out every ingest already
    /// past its `stopped` check — including ones that will be acked while
    /// shutdown is starting — before the final barrier hands off every
    /// shard's delta. A durable engine then writes a final checkpoint
    /// and fsyncs the WAL regardless of policy, so a restart restores
    /// exactly what this snapshot holds.
    pub fn shutdown(&self) -> Arc<Snapshot> {
        self.stop(true);
        self.snapshot()
    }

    /// Simulate a hard crash (`kill -9`): stop every thread *without* the
    /// final flush, checkpoint, or fsync that [`Engine::shutdown`]
    /// performs. On-disk state is whatever the fsync policy already made
    /// durable — exactly the state recovery must be able to live with.
    /// The crash/recovery fault suite drives this; it is safe (if
    /// pointless) to call in production.
    pub fn abort(&self) {
        self.stop(false);
    }

    /// The stop path `shutdown` and `abort` share: stop the checkpointer,
    /// wait out the ingests in flight (the pause lock for write), then
    /// stop and join the compactor. A `clean` stop first publishes every
    /// shard's delta and checkpoints that snapshot; otherwise queries
    /// keep answering from the last published snapshot, like a real crash
    /// survivor's client would have seen. Only the first call stops
    /// anything; a racing second one waits until the first is done.
    fn stop(&self, clean: bool) {
        let _draining = lock(&self.shutdown_lock);
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        self.stop_checkpointer();
        // Every ingest checks `stopped` under the pause lock, so once the
        // write lock is ours none is absorbing and none will again.
        drop(self.pause.write().unwrap_or_else(|e| e.into_inner()));
        let published = clean.then(|| self.barrier().map(|rx| rx.recv()));
        if let (Some(Ok(Ok(merged))), Some(d)) = (published, &self.durable) {
            // The final checkpoint fsyncs the WAL whatever the policy.
            let cut = lock(&d.store).wal.last_seq();
            if self.write_checkpoint(&merged, cut).is_err() {
                self.telemetry.event("final_checkpoint_failed", &[]);
            }
        }
        let _ = self.compact_tx.send(CompactMsg::Stop);
        if let Some(handle) = lock(&self.compactor_handle).take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    /// An engine dropped without a shutdown: tell the compactor to stop,
    /// without waiting for it (this may run on the compactor thread
    /// itself, as the last holder). A full channel needs no sentinel: the
    /// compactor's next receive finds the engine gone. The checkpointer
    /// ends when its trigger channel, dropped with the engine, closes.
    fn drop(&mut self) {
        let _ = self.compact_tx.try_send(CompactMsg::Stop);
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::config::SummaryKind;

    #[test]
    fn ingest_flush_query_roundtrip() {
        let engine = Engine::start(ServiceConfig::new(SummaryKind::Mg, 0.05).shards(2)).unwrap();
        for chunk in (0..10_000u64).collect::<Vec<_>>().chunks(100) {
            engine
                .ingest(chunk.iter().map(|&v| v % 10).collect())
                .unwrap();
        }
        engine.flush().unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.summary.total_weight(), 10_000);
        assert!(snap.epoch >= 1);
        let m = engine.metrics();
        assert_eq!(m.updates, 10_000);
        assert_eq!(m.batches, 100);
        assert_eq!(m.dropped, 0);
        assert_eq!(m.snapshot_weight, 10_000);
        assert_eq!(m.shards_lost, 0);
        assert_eq!(m.retries, 0);
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_deltas() {
        let engine =
            Engine::start(ServiceConfig::new(SummaryKind::CountMin, 0.01).shards(3)).unwrap();
        for _ in 0..30 {
            engine.ingest(vec![7; 50]).unwrap();
        }
        // No flush: shutdown itself must make all 1500 updates visible.
        let snap = engine.shutdown();
        assert_eq!(snap.summary.total_weight(), 1500);
        assert_eq!(snap.summary.point(7), Some(1500));
        // Idempotent.
        assert_eq!(engine.shutdown().summary.total_weight(), 1500);
        assert_eq!(engine.ingest(vec![1]), Err(ServiceError::Shutdown));
        assert_eq!(engine.flush(), Err(ServiceError::Shutdown));
    }
    #[test]
    fn rejects_bad_config() {
        assert!(matches!(
            Engine::start(ServiceConfig::new(SummaryKind::Mg, 0.05).shards(0)),
            Err(ServiceError::Config(_))
        ));
    }
    #[test]
    fn metrics_reads_are_monotone_under_concurrent_ingest() {
        // Hammer `metrics()` while four threads ingest: every counter in
        // successive reports must be monotone (each counter is a relaxed
        // atomic, but loads of the same counter never go backwards).
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::Mg, 0.05)
                .shards(2)
                .delta_updates(256),
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        // The writers start only once every reader has one read behind it:
        // on a busy host they used to finish before a reader was scheduled.
        let first_reads = Arc::new(std::sync::Barrier::new(3));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                let first_reads = Arc::clone(&first_reads);
                std::thread::spawn(move || {
                    let mut prev = engine.metrics();
                    let mut reads = 0u64;
                    while reads == 0 || !stop.load(Ordering::Relaxed) {
                        let m = engine.metrics();
                        assert!(m.updates >= prev.updates, "updates went backwards");
                        assert!(m.batches >= prev.batches, "batches went backwards");
                        assert!(m.merges >= prev.merges, "merges went backwards");
                        assert!(m.epoch >= prev.epoch, "epoch went backwards");
                        assert!(m.shards_lost >= prev.shards_lost);
                        assert!(m.frames_rejected >= prev.frames_rejected);
                        prev = m;
                        reads += 1;
                        if reads == 1 {
                            first_reads.wait();
                        }
                    }
                    reads
                })
            })
            .collect();
        first_reads.wait();
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        engine.ingest(vec![i % 16; 50]).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader never ran");
        }
        engine.shutdown();
        let m = engine.metrics();
        assert_eq!(m.updates, 4 * 200 * 50);
        assert_eq!(m.shards_lost, 0);
    }

    #[test]
    fn telemetry_snapshot_tracks_engine_activity() {
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::Mg, 0.05)
                .shards(2)
                .delta_updates(100),
        )
        .unwrap();
        for _ in 0..40 {
            engine.ingest(vec![2; 25]).unwrap();
        }
        engine.flush().unwrap();
        let snap = engine.telemetry_snapshot();
        let absorbed: u64 = (0..2)
            .filter_map(|s| snap.histogram(&format!("ingest_batch_micros{{shard=\"{s}\"}}")))
            .map(|h| h.count)
            .sum();
        assert_eq!(absorbed, 40, "every batch absorb must be recorded");
        let waited: u64 = (0..2)
            .filter_map(|s| snap.histogram(&format!("queue_wait_micros{{shard=\"{s}\"}}")))
            .map(|h| h.count)
            .sum();
        assert_eq!(waited, 40, "every dequeue must record its queue wait");
        // 1000 updates at delta_updates=100 hand off at least once per
        // shard that saw data; each hand-off is one compactor merge.
        let merges = snap.histogram("compact_merge_micros").unwrap();
        assert!(merges.count >= 1);
        assert_eq!(snap.gauge("epoch"), Some(engine.snapshot().epoch as i64));
        assert_eq!(snap.counter("updates_total"), Some(1000));
        // Once every absorb has returned, no batch waits on a shard.
        for s in 0..2 {
            assert_eq!(
                snap.gauge(&format!("queue_depth{{shard=\"{s}\"}}")),
                Some(0)
            );
        }
        engine.shutdown();
    }

    /// A cube server has no shards: it exports one unlabelled row of each
    /// per-path instrument, which counts every batch, and no per-shard
    /// row; the admission controller reads that one gauge against the
    /// same `shards × queue_depth` slots as a sharded engine.
    #[test]
    fn a_cube_server_exports_only_its_one_ingest_path() {
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::Mg, 0.05)
                .shards(4)
                .segments(crate::config::SegmentConfig::new().seal_batches(4)),
        )
        .unwrap();
        for i in 0..10 {
            engine.ingest(vec![i; 25]).unwrap();
        }
        engine.flush().unwrap();
        let snap = engine.telemetry_snapshot();
        let absorbed = snap.histogram("ingest_batch_micros").map(|h| h.count);
        assert_eq!(absorbed, Some(10), "every batch is one log and fold");
        assert_eq!(snap.gauge("queue_depth"), Some(0));
        let rows = (snap.histograms.iter().map(|(name, _)| name))
            .chain(snap.gauges.iter().map(|(name, _)| name));
        for name in rows {
            assert!(!name.contains("shard="), "{name} names a shard");
        }
        let gauges = engine.telemetry.queue_depth_gauges();
        assert_eq!(gauges.len(), 1);
        gauges[0].add(2 * 64);
        assert_eq!(engine.admission.pressure(), 0.5, "128 of 4 × 64 slots");
        gauges[0].add(-2 * 64);
        engine.shutdown();
    }

    #[test]
    fn telemetry_snapshot_exports_the_range_memo_counts() {
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::Mg, 0.05)
                .segments(crate::config::SegmentConfig::new().seal_batches(1)),
        )
        .unwrap();
        for i in 0..3 {
            engine.ingest(vec![i; 10]).unwrap();
        }
        for _ in 0..2 {
            engine
                .range_query(0, u64::MAX, SummaryKind::HybridQuantile)
                .unwrap();
        }
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.counter("cube_range_memo_hits"), Some(1));
        assert_eq!(snap.counter("cube_range_memo_extends"), Some(0));
        assert_eq!(snap.counter("cube_range_memo_misses"), Some(1));
        engine.shutdown();
    }
    #[test]
    fn telemetry_snapshot_exports_the_cube_resident_bytes() {
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::Mg, 0.05)
                .segments(crate::config::SegmentConfig::new().seal_batches(1)),
        )
        .unwrap();
        let gauge = |engine: &Engine| engine.telemetry_snapshot().gauge("cube_resident_bytes");
        assert_eq!(gauge(&engine), Some(0), "nothing sealed yet");
        for i in 0..3 {
            engine
                .ingest((0..500).map(|v| v * 7 + i).collect())
                .unwrap();
        }
        let resident = gauge(&engine).expect("the gauge is exported");
        assert!(resident > 0);
        let health = engine.cube().expect("a cube").health();
        assert_eq!((health.sealed, health.resident_bytes as i64), (3, resident));
        engine.shutdown();
    }

    /// The threads an engine spawns hold it weakly: once its last `Arc`
    /// goes without a shutdown, the engine is freed and its compactor
    /// and checkpointer exit.
    #[test]
    fn dropping_the_last_arc_frees_the_engine_and_ends_its_threads() {
        let dir = temp_data_dir("leak");
        let cfg = durable_cfg(&dir).segments(crate::config::SegmentConfig::new().seal_batches(2));
        let engine = Engine::start(cfg).unwrap();
        for i in 0..9 {
            engine.ingest(vec![i; 50]).unwrap();
        }
        engine.checkpoint_now().unwrap();
        let weak = Arc::downgrade(&engine);
        let compactor = lock(&engine.compactor_handle).take().unwrap();
        let d = engine.durable.as_ref().unwrap();
        let checkpointer = lock(&d.checkpointer).take().unwrap();
        drop(engine);
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while weak.strong_count() > 0 || !compactor.is_finished() || !checkpointer.is_finished() {
            assert!(
                Instant::now() < deadline,
                "engine still held ({}) or a thread still running",
                weak.strong_count()
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(weak.upgrade().is_none());
        compactor.join().unwrap();
        checkpointer.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    pub(super) fn temp_data_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ms-engine-dur-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    pub(super) fn durable_cfg(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .delta_updates(64)
            .durability(crate::config::DurabilityConfig::new(dir))
    }
    /// Each engine counter has one source: every `MetricsReport` counter
    /// equals its `*_total` in the telemetry snapshot, with telemetry on
    /// and off, after a failed absorb and a rejected frame.
    #[test]
    fn metrics_report_and_telemetry_snapshot_share_counters() {
        use crate::fault::{plan_fn, FaultAction};
        for telemetry in [true, false] {
            let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
                .shards(2)
                .delta_updates(16)
                .telemetry(telemetry)
                .fault_plan(plan_fn(|shard, idx| match (shard, idx) {
                    (0, 1) => FaultAction::Die,
                    _ => FaultAction::Continue,
                }));
            let engine = Engine::start(cfg).unwrap();
            for i in 0..8 {
                engine.ingest(vec![i; 8]).unwrap();
            }
            engine.record_rejected_frame();
            engine.flush().unwrap();

            let m = engine.metrics();
            assert_eq!((m.shards_lost, m.frames_rejected), (1, 1), "{m:?}");
            assert_eq!((m.updates, m.batches, m.dropped, m.retries), (56, 7, 0, 0));
            assert!(m.merges > 0, "{m:?}");
            let snap = engine.telemetry_snapshot();
            for (name, value) in [
                ("updates_total", m.updates),
                ("batches_total", m.batches),
                ("merges_total", m.merges),
                ("shards_lost_total", m.shards_lost),
                ("frames_rejected_total", m.frames_rejected),
            ] {
                assert_eq!(
                    snap.counter(name),
                    Some(value),
                    "{name}, telemetry {telemetry}"
                );
            }
            let weight = snap.gauge("snapshot_weight");
            assert_eq!(weight, Some(m.snapshot_weight as i64));
            engine.shutdown();
        }
    }
}
