//! The sharded concurrent aggregation engine.
//!
//! Mergeability (PODS'12, Definition 1) is exactly what makes this design
//! correct: each of `N` worker threads absorbs its slice of the stream into
//! a thread-local *delta* summary, and a background compactor merges the
//! deltas — in whatever order the scheduler produces them — into one global
//! summary. Because the error guarantee survives arbitrary merge trees, the
//! concurrent engine answers queries with the same `εn` bound as a
//! single-threaded summary of the whole stream.
//!
//! Data flow:
//!
//! ```text
//! ingest(batch) ──round-robin──▶ worker 0..N   (bounded queue, backpressure)
//!                                │ local delta, handed off every
//!                                │ `delta_updates` updates
//!                                ▼
//!                             compactor ── merge ──▶ global summary
//!                                │ publish (epoch += 1)
//!                                ▼
//!                    SwapCell<Snapshot>  ◀── snapshot()/queries (reads of
//!                                            an immutable value)
//! ```
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
//! | `ingest.rs` | shed, log, route onto a shard ring; dead-shard reroute | `engine.ingest`, `ring.push_pop` |
//! | `durable.rs` | WAL group commit, checkpoints, segment files, recovery | `wal.append`, `checkpoint.write`, `segment.write` |
//! | `worker.rs` | decode and absorb into the shard delta | `summary.update_batch` |
//! | `compactor.rs` | fold deltas, publish snapshots; the shared barrier | `compactor.merge_many`, `swap.publish` |
//! | `audit.rs` | accuracy self-audit against ground truth | — |
//!
//! This file holds the engine itself: start, the public methods, the
//! counters behind [`MetricsReport`] (registry counters, see
//! [`EngineTelemetry`]) and the one stop path `shutdown` and `abort`
//! share.
//!
//! ## Failure model
//!
//! The engine is built to *degrade*, not die. A worker thread that exits
//! without warning (injected via [`crate::FaultPlan`], or a panic inside a
//! summary) loses only its un-handed-off delta and the batch it was
//! holding; every delta already merged by the compactor stays in the
//! published snapshot, which remains a valid `ε·n'` summary of the `n'`
//! updates that survived — that is the mergeability theorem doing systems
//! work. Ingest detects the dead shard on the next send, counts it in
//! [`MetricsReport::shards_lost`], reroutes the batch (counted in
//! [`MetricsReport::retries`]) and, when `respawn_lost_shards` is set,
//! restarts the worker with a fresh delta. Batches still queued on the
//! shard's ring at the moment of death stay there and are absorbed by the
//! respawned worker (they are dropped only when the shard is tombstoned).
//! Fallible operations return [`ServiceError`] instead of panicking, and
//! internal locks tolerate poisoning (a panicking worker cannot take
//! queries down with it).
//!
//! ## Hot path
//!
//! A batch is bytes from the socket to the shard: the connection thread
//! validates the payload once ([`IngestFrame`]), the WAL logs those bytes
//! verbatim, the shard ring carries the buffer they arrived in, and the
//! worker decodes it into its own scratch right before `update_batch`.
//! An in-process [`Engine::ingest`] encodes once into a pooled frame and
//! joins the same path.
//!
//! In steady state one ingest performs **zero heap allocations** and a
//! fixed handful of short, uncontended mutex sections, each paid once per
//! *batch*, never per item: one to load the shard table
//! ([`ms_core::SwapCell`]), one to push onto the shard's bounded queue
//! ([`ms_core::Ring`]) and one per frame-buffer get or put
//! ([`ms_core::BufferPool`]). Durable appends go through leader–follower
//! group commit ([`ms_store::GroupCommit`]) so the store mutex is
//! amortized across concurrent callers. See DESIGN.md §Hot path for the
//! per-batch budget.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use ms_core::{lock, BufferPool, Ring, ServiceError, Summary, SwapCell};
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
mod worker;

pub use durable::RecoveryReport;

use audit::AuditPlane;
use compactor::CompactMsg;
use durable::Durable;
use ingest::TableSlot;

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
    /// Updates ingested by the workers.
    pub updates: u64,
    /// Batches accepted onto worker queues.
    pub batches: u64,
    /// Batches rejected by [`Engine::try_ingest`] because a queue was full.
    pub dropped: u64,
    /// Delta merges the compactor performed.
    pub merges: u64,
    /// Epoch of the current snapshot.
    pub epoch: u64,
    /// Age of the current snapshot in microseconds.
    pub snapshot_age_micros: u64,
    /// Total weight visible in the current snapshot.
    pub snapshot_weight: u64,
    /// Worker-death events detected (each respawn-or-tombstone counts once).
    pub shards_lost: u64,
    /// Wire frames the server rejected as malformed.
    pub frames_rejected: u64,
    /// Batches rerouted to another shard after a send to a dead one.
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

/// Idle `Vec<u64>` buffers [`Engine::ingest_buffer`] keeps at most.
const ITEM_POOL_SLOTS: usize = 8;

/// The engine: owns the worker and compactor threads. Cheap to share as
/// `Arc<Engine>`; all public methods take `&self`.
pub struct Engine {
    /// The engine's own `Arc`, which every thread it spawns holds.
    me: Weak<Engine>,
    cfg: ServiceConfig,
    /// The shard table, one slot per shard: the ingest hot path loads it
    /// once per batch.
    table: SwapCell<Vec<TableSlot>>,
    /// Serializes table swaps (deaths, respawns, shutdown — all rare).
    table_write: Mutex<()>,
    /// Cumulative per-shard batch indices, so a respawned worker
    /// continues the count (fault plans key off it).
    batch_indices: Vec<AtomicU64>,
    /// Cached plain sender, never locked. The compactor exits on
    /// [`CompactMsg::Stop`], after which sends fail with a disconnect the
    /// callers map to [`ServiceError::Shutdown`].
    compact_tx: Sender<CompactMsg>,
    /// Recycled frame buffers (`Vec<u8>`), one pool per shard. The front
    /// half draws the next shard's buffer and each worker returns decoded
    /// frames to its own pool, so shards stop contending for (and
    /// stealing) each other's slots — the global pool's reuse rate
    /// collapsed from 73% to 29% at 8 shards.
    pools: Vec<BufferPool<u8>>,
    /// Recycled item buffers (`Vec<u64>`) off the ring's path: what
    /// [`Engine::ingest_buffer`] lends an in-process caller, and what an
    /// in-memory cube's fold decodes a received frame into.
    item_pool: BufferPool<u64>,
    /// The published snapshot. Only the compactor swaps it.
    snapshot: SwapCell<Snapshot>,
    next_shard: AtomicUsize,
    stopped: AtomicBool,
    /// Held for the whole drain: a concurrent second `shutdown` blocks on
    /// it and then observes the fully drained snapshot, never a partial one.
    shutdown_lock: Mutex<()>,
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
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
    /// Start the worker and compactor threads for `cfg`. With durability
    /// configured this also opens the data directory, recovers its state
    /// (newest valid checkpoint merged back, WAL tail replayed — see
    /// [`Engine::recovery`]) and starts the checkpointer thread.
    pub fn start(cfg: ServiceConfig) -> Result<Arc<Engine>, ServiceError> {
        cfg.check()?;
        let telemetry = Arc::new(EngineTelemetry::new(cfg.shards, cfg.telemetry, cfg.seed));
        // Open the store and scan before any thread starts; the recovered
        // state is preloaded below once workers exist to receive it.
        let cube = (cfg.segments.clone()).map(|scfg| SegmentCube::new(cfg.epsilon, cfg.seed, scfg));
        let (cube, opened) = Durable::open(&cfg, cube, &telemetry)?;
        let (durable, recovered) = opened.unzip();
        // Pressure reads the live per-shard queue-depth gauges.
        let admission = Arc::new(Admission::new(
            cfg.overload.clone(),
            telemetry.registry(),
            telemetry.queue_depth_gauges(),
            (cfg.shards * cfg.queue_depth) as u64,
        ));
        let (compact_tx, compact_rx) = mpsc::channel::<CompactMsg>();
        // One pool per shard: capacity pool_buffers/shards (min 2 so a
        // small total still double-buffers), zero stays zero so disabling
        // recycling disables it everywhere.
        let per_shard_buffers = if cfg.pool_buffers == 0 {
            0
        } else {
            (cfg.pool_buffers / cfg.shards).max(2)
        };

        let engine = Arc::new_cyclic(|me| Engine {
            me: me.clone(),
            snapshot: SwapCell::new(Snapshot {
                epoch: 0,
                summary: ShardSummary::new(&cfg, usize::MAX),
                lineage: MergeLineage::default(),
                published_at: Instant::now(),
            }),
            table: SwapCell::new(
                (0..cfg.shards)
                    .map(|_| TableSlot {
                        gen: 0,
                        ring: Arc::new(Ring::with_capacity(cfg.queue_depth)),
                        alive: true,
                    })
                    .collect(),
            ),
            table_write: Mutex::new(()),
            batch_indices: (0..cfg.shards).map(|_| AtomicU64::new(0)).collect(),
            compact_tx,
            pools: (0..cfg.shards)
                .map(|_| BufferPool::new(per_shard_buffers))
                .collect(),
            // A caller holds an item buffer only for the length of one
            // call, so a few slots cover every thread that ingests at once.
            item_pool: BufferPool::new(cfg.pool_buffers.min(ITEM_POOL_SLOTS)),
            next_shard: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            shutdown_lock: Mutex::new(()),
            worker_handles: Mutex::new(Vec::with_capacity(cfg.shards)),
            compactor_handle: Mutex::new(None),
            telemetry,
            admission,
            audit: AuditPlane::new(&cfg),
            durable,
            cube,
            cfg,
        });

        for (shard, slot) in engine.table.load().iter().enumerate() {
            let handle = engine.spawn_worker(shard, Arc::clone(&slot.ring))?;
            lock(&engine.worker_handles).push(handle);
        }
        *lock(&engine.compactor_handle) = Some(engine.spawn_compactor(compact_rx)?);
        if let Some(recovery) = recovered {
            engine.recover(recovery)?;
        }
        Ok(engine)
    }

    /// The `Arc` a spawned thread holds. Upgrading cannot fail while a
    /// method runs on `&self`: some `Arc<Engine>` is keeping it alive.
    fn arc(&self) -> Arc<Engine> {
        self.me.upgrade().expect("engine methods run on a live Arc")
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
    /// the batch is encoded, so an ingest loop that takes its buffers from
    /// here allocates nothing at all.
    pub fn ingest_buffer(&self) -> Vec<u64> {
        self.item_pool.get()
    }

    /// Aggregate frame-buffer traffic across all shard pools:
    /// `(reuses, misses, discards)` so far.
    pub fn pool_stats(&self) -> (u64, u64, u64) {
        let sum = |(r, m, d), (a, b, c)| (r + a, m + b, d + c);
        self.shard_pool_stats().into_iter().fold((0, 0, 0), sum)
    }

    /// Per-shard frame-buffer traffic: `(reuses, misses, discards)` for
    /// each shard's pool, in shard order.
    pub fn shard_pool_stats(&self) -> Vec<(u64, u64, u64)> {
        self.pools
            .iter()
            .map(|p| (p.reuses(), p.misses(), p.discards()))
            .collect()
    }

    /// Enqueue a batch on the next live shard, blocking while its queue is
    /// full (backpressure). A dead shard is counted, respawned if
    /// configured, and the batch rerouted. With durability enabled the
    /// batch is appended to the WAL (fsync'd per policy) *before* it is
    /// enqueued, so an acked batch is exactly as durable as the policy
    /// promises. The batch is encoded once, into a pooled frame, and from
    /// there shares [`Engine::ingest_frame`]'s path; the `Vec` goes back
    /// to [`Engine::ingest_buffer`]'s pool.
    pub fn ingest(&self, batch: Vec<u64>) -> Result<(), ServiceError> {
        self.ingest_items(batch, true)
    }

    /// [`Engine::ingest`] for a batch that is still the bytes a client
    /// sent. Returns the outcome and a buffer for the caller's next frame:
    /// a recycled one when this frame went onto a ring, the frame's own
    /// when it did not.
    pub fn ingest_frame(&self, frame: IngestFrame) -> (Result<(), ServiceError>, Vec<u8>) {
        if frame.is_empty() {
            return (Ok(()), frame.into_bytes());
        }
        match self.log_batch(&frame) {
            Err(e) => (Err(e), frame.into_bytes()),
            Ok(_pause) => (self.enqueue(frame, true), self.frame_buffer()),
        }
    }

    /// Enqueue a batch without blocking. A full queue counts the batch as
    /// dropped and returns [`ServiceError::Backpressure`]; a dead shard is
    /// rerouted like [`Engine::ingest`]. With durability enabled the WAL
    /// append happens first (write-ahead discipline), so a batch dropped
    /// for backpressure is still on disk and will be restored by the next
    /// recovery — the WAL acks writes, not queue admission.
    pub fn try_ingest(&self, batch: Vec<u64>) -> Result<(), ServiceError> {
        self.ingest_items(batch, false)
    }

    /// Force every live worker to hand its delta to the compactor and
    /// publish a fresh snapshot containing all data ingested before this
    /// call. Dead shards are skipped (their loss is already accounted).
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
    /// Always answers, even after shutdown or a worker panic.
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
            let r = lock(&d.recovery).clone();
            let (ckpt_seq, ckpt_at) = *lock(&d.last_ckpt);
            let ckpt_age = ckpt_at.elapsed().as_micros() as u64;
            let corrupt = r.corrupt_records + r.corrupt_checkpoints;
            gauges.extend([
                ("checkpoint_seq", ckpt_seq),
                ("checkpoint_age_micros", ckpt_age),
                ("wal_last_seq", lock(&d.store).wal.last_seq()),
                ("recovery_duration_micros", r.duration_micros),
                ("recovery_replayed_records", r.replayed_records),
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
        let mut engine = RegistrySnapshot {
            counters: counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            gauges: gauges
                .iter()
                .map(|&(n, v)| (n.to_string(), v as i64))
                .collect(),
            histograms: Vec::new(),
        };
        // Per-shard pool reuse: integer percent of gets served from the
        // shard's own pool, plus the raw reuse counter per shard.
        for (shard, (reuses, misses, _)) in self.shard_pool_stats().into_iter().enumerate() {
            let pct = (reuses * 100).checked_div(reuses + misses).unwrap_or(0);
            let label = format!("{{shard=\"{shard}\"}}");
            (engine.counters).push((format!("pool_reuses_total{label}"), reuses));
            (engine.gauges).push((format!("pool_reuse_pct{label}"), pct as i64));
        }
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
    /// so a report observes every `shards_lost`, `frames_rejected` or
    /// `retries` event that happened-before anything else it observes
    /// (a retried batch, say, implies the death it was retried after).
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
            dropped: c.dropped.get(),
            merges: c.merges.get(),
            epoch: snap.epoch,
            snapshot_age_micros: snap.published_at.elapsed().as_micros() as u64,
            snapshot_weight: snap.summary.total_weight(),
            shards_lost: c.shards_lost.get(),
            frames_rejected: c.frames_rejected.get(),
            retries: c.retries.get(),
        }
    }

    /// Drain everything, stop all threads, and return the final snapshot.
    /// Idempotent; later calls just return the current snapshot.
    ///
    /// Clean shutdown is lossless: closing the worker queues (rather than
    /// sending a sentinel message) lets each worker drain *every* queued
    /// batch — including ones enqueued by racing ingest calls that were
    /// acked while shutdown was starting — and hand off its delta when the
    /// queue disconnects. A durable engine then writes a final checkpoint
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

    /// The stop path `shutdown` and `abort` share: stop the checkpointer
    /// (its barrier needs live workers), drain the workers, then stop and
    /// join the compactor. A `clean` stop first publishes everything the
    /// workers handed off and checkpoints that snapshot; otherwise queries
    /// keep answering from the last published snapshot, like a real crash
    /// survivor's client would have seen. Only the first call stops
    /// anything; a racing second one waits until the first is done.
    fn stop(&self, clean: bool) {
        let _draining = lock(&self.shutdown_lock);
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        self.stop_checkpointer();
        self.drain_workers();
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
        assert_eq!(engine.try_ingest(vec![1]), Err(ServiceError::Shutdown));
    }
    #[test]
    fn telemetry_snapshot_reports_per_shard_pool_reuse() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05).shards(2);
        let engine = Engine::start(cfg).unwrap();
        for _ in 0..100 {
            let mut batch = engine.ingest_buffer();
            batch.extend_from_slice(&[9; 32]);
            engine.ingest(batch).unwrap();
        }
        engine.flush().unwrap();
        let snap = engine.telemetry_snapshot();
        for shard in 0..2 {
            let reuse_key = format!("pool_reuses_total{{shard=\"{shard}\"}}");
            let pct_key = format!("pool_reuse_pct{{shard=\"{shard}\"}}");
            assert!(snap.counters.iter().any(|(k, _)| *k == reuse_key));
            let (_, pct) = snap
                .gauges
                .iter()
                .find(|(k, _)| *k == pct_key)
                .expect("per-shard reuse pct gauge");
            assert!((0..=100).contains(pct), "{pct_key} = {pct}");
        }
        engine.shutdown();
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
        // atomic, but loads of the same counter never go backwards), and
        // the derived report must never observe impossible states like
        // more retries than batches+retries attempts.
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
                        assert!(m.retries >= prev.retries);
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
        // After flush + idle workers every queue is empty.
        for s in 0..2 {
            assert_eq!(
                snap.gauge(&format!("queue_depth{{shard=\"{s}\"}}")),
                Some(0)
            );
        }
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
    /// and off, after a shard death, a reroute, a rejected frame and a
    /// `try_ingest` drop.
    #[test]
    fn metrics_report_and_telemetry_snapshot_share_counters() {
        use crate::fault::{plan_fn, FaultAction};
        for telemetry in [true, false] {
            let (entered_tx, entered_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let gate = Mutex::new((entered_tx, release_rx));
            // Shard 0 dies on its first batch; shard 1 holds its first
            // until released, so its ring fills and `try_ingest` drops.
            let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
                .shards(2)
                .queue_depth(1)
                .delta_updates(16)
                .telemetry(telemetry)
                .fault_plan(plan_fn(move |shard, idx| match (shard, idx) {
                    (0, 0) => FaultAction::Die,
                    (1, 0) => {
                        let (entered, release) = &*lock(&gate);
                        let _ = entered.send(());
                        let _ = release.recv();
                        FaultAction::Continue
                    }
                    _ => FaultAction::Continue,
                }));
            let engine = Engine::start(cfg).unwrap();
            engine.ingest(vec![1; 8]).unwrap();
            engine.ingest(vec![2; 8]).unwrap();
            entered_rx.recv().unwrap();
            let mut tries = 0u64;
            while engine.metrics().retries == 0 || engine.metrics().dropped == 0 {
                match engine.try_ingest(vec![3; 8]) {
                    Ok(()) | Err(ServiceError::Backpressure) => {}
                    Err(other) => panic!("unexpected {other:?}"),
                }
                tries += 1;
                assert!(tries < 1_000_000, "{:?}", engine.metrics());
                std::thread::yield_now();
            }
            engine.record_rejected_frame();
            release_tx.send(()).unwrap();
            engine.flush().unwrap();

            let m = engine.metrics();
            assert_eq!((m.shards_lost, m.frames_rejected), (1, 1), "{m:?}");
            assert!(m.updates > 0 && m.batches > 0 && m.merges > 0, "{m:?}");
            let snap = engine.telemetry_snapshot();
            for (name, value) in [
                ("updates_total", m.updates),
                ("batches_total", m.batches),
                ("dropped_total", m.dropped),
                ("merges_total", m.merges),
                ("shards_lost_total", m.shards_lost),
                ("frames_rejected_total", m.frames_rejected),
                ("retries_total", m.retries),
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
