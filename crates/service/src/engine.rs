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
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use ms_core::rng::splitmix64;
use ms_core::{
    lock, BufferPool, FxHashMap, Mergeable, PushError, Ring, ServiceError, Summary, SwapCell, Wire,
};
use ms_obs::{RegistrySnapshot, Reservoir};
use ms_store::{GroupCommit, SegmentRecord, Store};

use crate::config::{DurabilityConfig, ServiceConfig, SummaryKind};
use crate::cube::SegmentCube;
use crate::deadline;
use crate::fault::FaultAction;
use crate::overload::Admission;
use crate::protocol::{AccuracyAudit, IngestFrame, RangeMeta, SegmentReport, TraceDumpReport};
use crate::summary::{MergeLineage, ShardSummary};
use crate::telemetry::{timed, EngineTelemetry};

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

/// Raw items the audit reservoir holds for quantile audits.
const AUDIT_RESERVOIR: usize = 4096;
/// An item's exact count is tracked iff its seeded hash lands in this
/// mask's zero class — 1/16 of the item space, chosen by hash so the
/// audited set is adversary- and distribution-independent.
const AUDIT_SAMPLE_MASK: u64 = 0xF;

/// Ground truth for the accuracy self-audit, filled by workers as they
/// absorb batches.
struct AuditState {
    /// Seeded uniform sample of raw items (quantile audits).
    reservoir: Reservoir,
    /// Exact counts of the hash-chosen item subset (frequency audits).
    exact: FxHashMap<u64, u64>,
    /// Total item weight the audit observed.
    weight: u64,
}

/// The engine's audit plane: `None` inside unless [`ServiceConfig::audit`]
/// is set, so the default ingest path pays one branch per *batch* and
/// nothing per item. Workers call [`AuditPlane::observe`] on every batch
/// they absorb — observing at absorption (not admission) keeps the
/// ground truth aligned with what the summary actually saw: dropped and
/// rerouted batches never reach either.
struct AuditPlane {
    seed: u64,
    /// Quantile kinds sample ranks; frequency kinds count exactly.
    quantile: bool,
    state: Option<Mutex<AuditState>>,
}

impl AuditPlane {
    fn new(cfg: &ServiceConfig) -> AuditPlane {
        AuditPlane {
            seed: cfg.seed,
            quantile: cfg.kind == SummaryKind::HybridQuantile,
            state: cfg.audit.then(|| {
                Mutex::new(AuditState {
                    reservoir: Reservoir::new(AUDIT_RESERVOIR, cfg.seed),
                    exact: FxHashMap::default(),
                    weight: 0,
                })
            }),
        }
    }

    /// Is `item` in the exactly-counted audit subset for `seed`?
    fn audited(seed: u64, item: u64) -> bool {
        let mut s = seed ^ item;
        splitmix64(&mut s) & AUDIT_SAMPLE_MASK == 0
    }

    /// Observe one absorbed batch: one lock round per batch, no-op (a
    /// single branch) when the audit is disabled.
    fn observe(&self, items: &[u64]) {
        let Some(state) = &self.state else {
            return;
        };
        let mut s = lock(state);
        s.weight += items.len() as u64;
        if self.quantile {
            s.reservoir.observe_slice(items);
        } else {
            for &item in items {
                if AuditPlane::audited(self.seed, item) {
                    *s.exact.entry(item).or_insert(0) += 1;
                }
            }
        }
    }
}

#[derive(Default)]
struct Counters {
    updates: AtomicU64,
    batches: AtomicU64,
    dropped: AtomicU64,
    merges: AtomicU64,
    shards_lost: AtomicU64,
    frames_rejected: AtomicU64,
    retries: AtomicU64,
}

/// What recovery found and rebuilt when a durable engine started. All
/// damage counters come from CRC verification in `ms-store`: corrupted
/// records are reported here and *excluded* from the rebuilt state,
/// never silently ingested.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// WAL cut of the checkpoint set that was merged back (0 = none).
    pub checkpoint_seq: u64,
    /// Per-shard parts in that set.
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

/// The engine's durability plane, present when the config names a data
/// directory. Owns the open store and the checkpointer thread.
struct Durable {
    cfg: DurabilityConfig,
    /// Ingest holds this for read while appending + enqueueing one batch;
    /// the checkpointer holds it for write while establishing the WAL cut,
    /// so "appended" and "visible to the flush barrier" stay in lockstep.
    pause: RwLock<()>,
    store: Mutex<Store>,
    /// Leader–follower group commit over `store`: concurrent appends
    /// share one store-lock round and at most one fsync per group.
    group: GroupCommit,
    /// Latched by the first failed segment-store write or remove: from
    /// then on the segment directory is left alone and the cube's
    /// persisted floor stands still, so the WAL keeps every record a
    /// restart needs to rebuild what is missing on disk. Written and read
    /// only by [`Engine::persist_sealed`].
    segments_broken: AtomicBool,
    batches_since_ckpt: AtomicU64,
    /// `None` once the checkpointer stopped. A trigger may carry an ack
    /// sender ([`Engine::checkpoint_now`] waits on it).
    trigger_tx: Mutex<Option<Sender<Option<Sender<()>>>>>,
    checkpointer: Mutex<Option<JoinHandle<()>>>,
    last_ckpt_seq: AtomicU64,
    last_ckpt_at: Mutex<Instant>,
    recovery: Mutex<RecoveryReport>,
}

enum WorkerMsg {
    /// A batch, still encoded, plus its enqueue time (for queue-wait
    /// histograms).
    Batch(IngestFrame, Instant),
    Flush(Sender<()>),
}

enum CompactMsg {
    /// A delta handed off by a worker.
    Delta(ShardSummary),
    Publish(Sender<()>),
    /// Publish the global summary and hand that snapshot back: by
    /// Definition 1 the merged summary *is* the checkpoint.
    Checkpoint(Sender<Arc<Snapshot>>),
    /// Shut the compactor down. The engine caches a plain `Sender` (no
    /// lock on the hand-off path), so the channel never disconnects by
    /// itself; this sentinel is the explicit stop signal.
    Stop,
}

/// Idle `Vec<u64>` buffers [`Engine::ingest_buffer`] keeps at most.
const ITEM_POOL_SLOTS: usize = 8;

/// One ingest shard in the table: its bounded ring, a generation
/// counter so concurrent senders agree on *which* incarnation died (only
/// the first failure against a generation is a death event), and whether a
/// worker is currently consuming the ring.
#[derive(Clone)]
struct TableSlot {
    gen: u64,
    ring: Arc<Ring<WorkerMsg>>,
    alive: bool,
}

/// The shard table. Readers load it from a [`SwapCell`] once per batch;
/// topology changes (death, respawn, drain) clone-and-swap a new
/// table under the engine's `table_write` mutex.
struct ShardTable {
    slots: Vec<TableSlot>,
}

impl ShardTable {
    /// A copy of this table with `shard` replaced by `slot`.
    fn with_slot(&self, shard: usize, slot: TableSlot) -> ShardTable {
        let mut slots = self.slots.clone();
        slots[shard] = slot;
        ShardTable { slots }
    }
}

/// Poison-tolerant `RwLock` guards, for the same reason as
/// [`ms_core::lock`].
fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// The engine: owns the worker and compactor threads. Cheap to share as
/// `Arc<Engine>`; all public methods take `&self`.
pub struct Engine {
    cfg: ServiceConfig,
    /// The shard table: the ingest hot path loads it once per batch.
    table: SwapCell<ShardTable>,
    /// Serializes table swaps (deaths, respawns, shutdown — all rare).
    table_write: Mutex<()>,
    /// Cumulative per-shard batch indices, shared with workers so a
    /// respawned worker continues the count (fault plans key off it).
    batch_indices: Arc<Vec<AtomicU64>>,
    /// Cached plain sender: cloned per worker spawn, never locked. The
    /// compactor exits on [`CompactMsg::Stop`], after which sends fail
    /// with a disconnect the callers map to [`ServiceError::Shutdown`].
    compact_tx: Sender<CompactMsg>,
    /// Recycled frame buffers (`Vec<u8>`), one pool per shard. The front
    /// half draws the next shard's buffer and each worker returns decoded
    /// frames to its own pool, so shards stop contending for (and
    /// stealing) each other's slots — the global pool's reuse rate
    /// collapsed from 73% to 29% at 8 shards.
    pools: Vec<Arc<BufferPool<u8>>>,
    /// Recycled item buffers (`Vec<u64>`) off the ring's path: what
    /// [`Engine::ingest_buffer`] lends an in-process caller, and what the
    /// cube's fold decodes a received frame into.
    item_pool: BufferPool<u64>,
    /// Recycled WAL record buffers (`Vec<u8>`), refilled by the
    /// group-commit leader once a group is appended.
    wal_pool: Arc<BufferPool<u8>>,
    /// The published snapshot. Only the compactor swaps it.
    snapshot: SwapCell<Snapshot>,
    counters: Arc<Counters>,
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
    audit: Arc<AuditPlane>,
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
        // Open the store and scan before any thread starts; the recovered
        // state is preloaded below once workers exist to receive it.
        let mut opened = None;
        if let Some(dcfg) = &cfg.durability {
            let store_cfg = dcfg.store_config().cube_segments(cfg.segments.is_some());
            opened = Some(Store::open(&store_cfg)?);
        }
        let cube = cfg
            .segments
            .clone()
            .map(|scfg| Arc::new(SegmentCube::new(cfg.epsilon, cfg.seed, scfg)));
        let counters = Arc::new(Counters::default());
        let telemetry = Arc::new(EngineTelemetry::new(cfg.shards, cfg.telemetry, cfg.seed));
        // Pressure reads the live per-shard queue-depth gauges; with
        // telemetry disabled the gauge list is empty and only the
        // in-flight caps shed.
        let admission = Arc::new(Admission::new(
            cfg.overload.clone(),
            telemetry.registry(),
            telemetry.queue_depth_gauges(),
            (cfg.shards * cfg.queue_depth) as u64,
        ));
        let audit = Arc::new(AuditPlane::new(&cfg));
        let (compact_tx, compact_rx) = mpsc::channel::<CompactMsg>();
        let batch_indices = Arc::new(
            (0..cfg.shards)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>(),
        );

        // One pool per shard: capacity pool_buffers/shards (min 2 so a
        // small total still double-buffers), zero stays zero so disabling
        // recycling disables it everywhere.
        let per_shard_buffers = if cfg.pool_buffers == 0 {
            0
        } else {
            (cfg.pool_buffers / cfg.shards).max(2)
        };
        let pools: Vec<Arc<BufferPool<u8>>> = (0..cfg.shards)
            .map(|_| Arc::new(BufferPool::new(per_shard_buffers)))
            .collect();
        // A caller holds an item buffer only for the length of one call,
        // so a few slots cover every thread that ingests at once.
        let item_pool = BufferPool::new(cfg.pool_buffers.min(ITEM_POOL_SLOTS));
        // WAL record buffers only circulate on durable engines.
        let wal_pool = Arc::new(BufferPool::new(if cfg.durability.is_some() {
            cfg.pool_buffers
        } else {
            0
        }));

        let mut slots = Vec::with_capacity(cfg.shards);
        let mut worker_handles = Vec::with_capacity(cfg.shards);
        for (shard, pool) in pools.iter().enumerate() {
            let ring = Arc::new(Ring::with_capacity(cfg.queue_depth));
            let handle = spawn_worker(
                shard,
                cfg.clone(),
                Arc::clone(&ring),
                compact_tx.clone(),
                Arc::clone(&counters),
                Arc::clone(&batch_indices),
                Arc::clone(&telemetry),
                Arc::clone(pool),
                Arc::clone(&audit),
            )?;
            slots.push(TableSlot {
                gen: 0,
                ring,
                alive: true,
            });
            worker_handles.push(handle);
        }

        let (store, recovered) = match opened {
            Some((store, recovery)) => (Some(store), Some(recovery)),
            None => (None, None),
        };
        let durable = store.map(|store| {
            let ckpt_seq = recovered
                .as_ref()
                .and_then(|r| r.checkpoint.as_ref())
                .map_or(0, |c| c.wal_seq);
            let group = {
                let wal_pool = Arc::clone(&wal_pool);
                GroupCommit::new().with_recycler(move |buf| wal_pool.put(buf))
            };
            Durable {
                cfg: cfg.durability.clone().expect("checked by opened"),
                pause: RwLock::new(()),
                store: Mutex::new(store),
                group,
                segments_broken: AtomicBool::new(false),
                batches_since_ckpt: AtomicU64::new(0),
                trigger_tx: Mutex::new(None),
                checkpointer: Mutex::new(None),
                last_ckpt_seq: AtomicU64::new(ckpt_seq),
                last_ckpt_at: Mutex::new(Instant::now()),
                recovery: Mutex::new(RecoveryReport::default()),
            }
        });

        let engine = Arc::new(Engine {
            snapshot: SwapCell::new(Snapshot {
                epoch: 0,
                summary: ShardSummary::new(&cfg, usize::MAX),
                lineage: MergeLineage::default(),
                published_at: Instant::now(),
            }),
            cfg: cfg.clone(),
            table: SwapCell::new(ShardTable { slots }),
            table_write: Mutex::new(()),
            batch_indices,
            compact_tx,
            pools,
            item_pool,
            wal_pool,
            counters,
            next_shard: AtomicUsize::new(0),
            stopped: AtomicBool::new(false),
            shutdown_lock: Mutex::new(()),
            worker_handles: Mutex::new(worker_handles),
            compactor_handle: Mutex::new(None),
            telemetry,
            admission,
            audit,
            durable,
            cube,
        });

        let compactor = spawn_compactor(Arc::clone(&engine), compact_rx)?;
        *lock(&engine.compactor_handle) = Some(compactor);

        if let Some(recovery) = recovered {
            let report = engine.preload(recovery)?;
            let d = engine.durable.as_ref().expect("recovered implies durable");
            engine.telemetry.event(
                "recovered",
                &[
                    ("checkpoint_seq", report.checkpoint_seq),
                    ("replayed", report.replayed_records),
                    (
                        "corrupt",
                        report.corrupt_records + report.corrupt_checkpoints,
                    ),
                ],
            );
            *lock(&d.recovery) = report;
            let (trigger_tx, trigger_rx) = mpsc::channel();
            *lock(&d.trigger_tx) = Some(trigger_tx);
            *lock(&d.checkpointer) = Some(spawn_checkpointer(Arc::clone(&engine), trigger_rx)?);
        }
        Ok(engine)
    }

    /// Merge the recovered checkpoint back into the engine and replay the
    /// WAL tail, validating everything *before* applying it: each part
    /// must merge cleanly with a fresh summary under this config (which
    /// catches kind, ε, and hash-seed mismatches), so must each adopted
    /// segment's families ([`SegmentCube::adopt`]), and each WAL payload
    /// must decode as a batch. Fails with a typed error rather than
    /// half-restoring.
    fn preload(&self, recovery: ms_store::Recovery) -> Result<RecoveryReport, ServiceError> {
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
            self.persist_sealed(&[], &adopt.evicted);
        }
        if let Some(set) = recovery.checkpoint {
            report.checkpoint_seq = set.wal_seq;
            report.checkpoint_parts = set.parts.len();
            let mut parts = Vec::with_capacity(set.parts.len());
            for (i, bytes) in set.parts.iter().enumerate() {
                let part = ShardSummary::decode(bytes).map_err(|_| {
                    ServiceError::Config("checkpoint part does not decode as a shard summary")
                })?;
                let merged = ShardSummary::new(&self.cfg, i % self.cfg.shards)
                    .merge(part)
                    .map_err(|_| {
                        ServiceError::Config(
                            "checkpoint incompatible with configured kind/epsilon/seed",
                        )
                    })?;
                parts.push(merged);
            }
            for part in parts {
                report.preloaded_weight += part.total_weight();
                self.compact_tx
                    .send(CompactMsg::Delta(part))
                    .map_err(|_| ServiceError::Shutdown)?;
            }
        }
        // The tail reaches back to min(checkpoint cut, cube floor): the
        // cube replays every record above *its* floor to rebuild lost or
        // unsealed segments, while the global summary only re-applies
        // records the checkpoint has not already restored.
        let mut items = Vec::new();
        for mut entry in recovery.tail {
            let frame = IngestFrame::parse(&mut entry.payload, 0).map_err(|_| {
                ServiceError::Config("WAL record does not decode as an ingest batch")
            })?;
            if let Some(cube) = &self.cube {
                items.clear();
                frame.decode_into(&mut items);
                let out = cube.record_at(entry.seq, &items);
                self.persist_sealed(&out.sealed, &out.evicted);
            }
            if entry.seq > report.checkpoint_seq {
                report.replayed_records += 1;
                report.replayed_weight += frame.len() as u64;
                self.enqueue(frame, true)?;
            }
        }
        self.flush()?;
        report.duration_micros = started.elapsed().as_micros() as u64;
        Ok(report)
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

    /// A recycled frame buffer, from the pool of the shard the next
    /// enqueue will route to when it has one — the worker that decodes the
    /// frame puts it back, so each pool reaches a steady state of its own.
    /// When that pool is dry the others are asked before a buffer is
    /// minted: on few cores a worker's time slice refills its own pool
    /// while its neighbour's drains, and every buffer minted then stays
    /// resident for good.
    fn frame_buffer(&self) -> Vec<u8> {
        let shards = self.pools.len();
        let home = self.next_shard.load(Ordering::Relaxed) % shards;
        (0..shards)
            .find_map(|i| self.pools[(home + i) % shards].take())
            .unwrap_or_else(|| self.pools[home].get())
    }

    /// Aggregate frame-buffer traffic across all shard pools:
    /// `(reuses, misses, discards)` so far.
    pub fn pool_stats(&self) -> (u64, u64, u64) {
        self.pools.iter().fold((0, 0, 0), |(r, m, d), p| {
            (r + p.reuses(), m + p.misses(), d + p.discards())
        })
    }

    /// Per-shard frame-buffer traffic: `(reuses, misses, discards)` for
    /// each shard's pool, in shard order.
    pub fn shard_pool_stats(&self) -> Vec<(u64, u64, u64)> {
        self.pools
            .iter()
            .map(|p| (p.reuses(), p.misses(), p.discards()))
            .collect()
    }

    /// True when no shard has a live worker.
    fn all_shards_dead(&self) -> bool {
        self.table.load().slots.iter().all(|s| !s.alive)
    }

    /// Handle the death of `shard` at generation `gen`: count it once,
    /// respawn (if configured and not shutting down) or tombstone the slot.
    fn note_dead_shard(&self, shard: usize, gen: u64) {
        let _topology = lock(&self.table_write);
        let table = self.table.load();
        let slot = &table.slots[shard];
        if slot.gen != gen {
            // Another thread already handled this incarnation's death.
            return;
        }
        let ring = Arc::clone(&slot.ring);
        // Release pairs with the Acquire load in `metrics`: a report
        // that observes engine state derived from this death (e.g. the
        // retried batch) also observes the incremented counter.
        self.counters.shards_lost.fetch_add(1, Ordering::Release);
        self.telemetry
            .event("shard_death", &[("shard", shard as u64), ("gen", gen)]);
        // `shutdown` sets `stopped` before taking `table_write`, so a
        // worker spawned under this lock is guaranteed to be seen (and
        // joined) by the drain.
        if self.cfg.respawn_lost_shards && !self.stopped.load(Ordering::Acquire) {
            // Reopen the ring *before* the worker starts: batches queued
            // at the moment of death stay inside and are absorbed by the
            // successor instead of being lost. (A dead ring pops its
            // retained items and then reports drained, so a worker
            // started first would exit immediately.)
            ring.revive();
            match spawn_worker(
                shard,
                self.cfg.clone(),
                Arc::clone(&ring),
                self.compact_tx.clone(),
                Arc::clone(&self.counters),
                Arc::clone(&self.batch_indices),
                Arc::clone(&self.telemetry),
                Arc::clone(&self.pools[shard]),
                Arc::clone(&self.audit),
            ) {
                Ok(handle) => {
                    self.telemetry
                        .event("shard_respawn", &[("shard", shard as u64)]);
                    self.table.swap(table.with_slot(
                        shard,
                        TableSlot {
                            gen: gen + 1,
                            ring,
                            alive: true,
                        },
                    ));
                    lock(&self.worker_handles).push(handle);
                    return;
                }
                Err(_) => {
                    // Could not respawn: fall through to the tombstone
                    // path; ingest keeps rerouting to surviving shards.
                    ring.mark_dead();
                }
            }
        }
        // Tombstone the slot. Drain the dead ring now: its batches are
        // lost either way, and a retained `Flush` ack sender would
        // otherwise keep a flush barrier waiting forever.
        self.table.swap(table.with_slot(
            shard,
            TableSlot {
                gen: gen + 1,
                ring: Arc::clone(&ring),
                alive: false,
            },
        ));
        while ring.try_pop().is_some() {}
        self.telemetry.queue_reset(shard);
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

    /// What [`Engine::ingest`] and [`Engine::try_ingest`] share: encode,
    /// log, enqueue.
    fn ingest_items(&self, batch: Vec<u64>, blocking: bool) -> Result<(), ServiceError> {
        if batch.is_empty() {
            return Ok(());
        }
        let frame = IngestFrame::encode(self.frame_buffer(), &batch);
        self.item_pool.put(batch);
        let _pause = self.log_batch(&frame)?;
        self.enqueue(frame, blocking)
    }

    /// The front half of every ingest: shed doomed work, then take the
    /// checkpoint pause lock for read and log the batch (WAL, cube). The
    /// caller enqueues while still holding the returned guard, so the
    /// append and the enqueue land on the same side of any checkpoint cut.
    fn log_batch(
        &self,
        frame: &IngestFrame,
    ) -> Result<Option<RwLockReadGuard<'_, ()>>, ServiceError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServiceError::Shutdown);
        }
        // A spent deadline budget means the caller has stopped waiting:
        // appending + enqueueing now is doomed work that only deepens the
        // queues. Shed typed instead.
        if deadline::expired() {
            self.admission.note_deadline_expired();
            return Err(ServiceError::Overloaded {
                retry_after_micros: self.admission.retry_after_micros(),
            });
        }
        let pause = self.durable.as_ref().map(|d| read(&d.pause));
        match &self.cube {
            None => self.append_durable(frame.payload())?,
            // The fold reads items, so with the cube on this thread
            // decodes too, into a buffer that goes straight back.
            Some(cube) => {
                let mut items = self.item_pool.get();
                frame.decode_into(&mut items);
                let recorded = self.record_and_append(cube, &items, frame.payload());
                self.item_pool.put(items);
                recorded?
            }
        }
        Ok(pause)
    }

    /// The durable front half of ingest with the cube enabled: the WAL
    /// append runs under the cube's order lock
    /// ([`SegmentCube::record_persisting`]) so the cube's seq counter
    /// tracks the WAL seq exactly; segments sealed by this batch are
    /// handed to the segment store, in seal order, before the batch is
    /// enqueued.
    fn record_and_append(
        &self,
        cube: &SegmentCube,
        items: &[u64],
        payload: &[u8],
    ) -> Result<(), ServiceError> {
        let out = cube.record_persisting(
            items,
            || self.append_durable(payload),
            |out| self.persist_sealed(&out.sealed, &out.evicted),
        )?;
        if out.coarsened > 0 {
            self.telemetry
                .record_coarsen(out.coarsened, cube.health().max_tier);
        }
        Ok(())
    }

    /// Persist freshly sealed segments and delete evicted ones. No-op on
    /// engines without durability (the cube then lives purely in memory).
    /// Calls are serialised in seal order by the cube's persist lock (or
    /// by recovery being one thread).
    ///
    /// A segment-store error never fails the batch that sealed the
    /// segment: the batch is already in the WAL and the cube, so it must
    /// still reach a shard. The failure is traced and counted, and from
    /// then on the segment directory is left exactly as it is: files only
    /// go once everything written before them is on disk, so what is there
    /// stays a gapless prefix up to the persisted floor — a coarsened
    /// survivor that failed to write must still find the finer files it
    /// was to replace. The floor stops with it, so the WAL keeps the tail
    /// and the next recovery rebuilds whatever is missing (the
    /// crash-safety contract of [`crate::cube`]).
    fn persist_sealed(&self, sealed: &[SegmentRecord], evicted: &[u64]) {
        if sealed.is_empty() && evicted.is_empty() {
            return;
        }
        let Some(d) = &self.durable else {
            return;
        };
        if d.segments_broken.load(Ordering::Acquire) {
            return;
        }
        let cube = self.cube.as_ref().expect("sealed segments imply a cube");
        let store = lock(&d.store);
        let Some(segs) = &store.segments else {
            return;
        };
        let failed = |id: u64| {
            d.segments_broken.store(true, Ordering::Release);
            self.telemetry.record_segment_persist_failed(id);
        };
        for rec in sealed {
            if segs.write(rec).is_err() {
                return failed(rec.id);
            }
            cube.note_persisted(rec.end_seq);
            self.telemetry.event(
                "segment_sealed",
                &[("id", rec.id), ("end_seq", rec.end_seq)],
            );
        }
        for &id in evicted {
            if segs.remove(id).is_err() {
                return failed(id);
            }
        }
    }

    /// Append one batch to the WAL via group commit and trigger a
    /// background checkpoint at the configured cadence. No-op for
    /// in-memory engines. The caller holds the checkpoint pause lock for
    /// read, so the append and the subsequent enqueue land on the same
    /// side of any checkpoint cut.
    ///
    /// `payload` is the batch as received ([`IngestFrame::payload`]) and
    /// is logged verbatim: one copy into a record buffer that comes from
    /// (and returns to) `wal_pool`, so the durable hot path neither
    /// re-encodes nor allocates in steady state.
    fn append_durable(&self, payload: &[u8]) -> Result<(), ServiceError> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        let mut record = self.wal_pool.get();
        record.extend_from_slice(payload);
        let outcome = d.group.append(&d.store, record)?;
        self.telemetry.record_wal_group(
            outcome.led.groups,
            outcome.led.records,
            outcome.led.bytes,
            outcome.led.fsyncs,
        );
        let since = d.batches_since_ckpt.fetch_add(1, Ordering::Relaxed) + 1;
        if since % d.cfg.checkpoint_batches == 0 {
            if let Some(tx) = lock(&d.trigger_tx).as_ref() {
                let _ = tx.send(None);
            }
        }
        Ok(())
    }

    /// The enqueue half of every ingest: route to a live shard, rerouting
    /// off dead ones. A full ring blocks (backpressure) when `blocking`,
    /// and otherwise counts the batch as dropped, recycles its buffer and
    /// returns [`ServiceError::Backpressure`]. Recovery replay calls this
    /// directly (the records are already in the WAL).
    fn enqueue(&self, frame: IngestFrame, blocking: bool) -> Result<(), ServiceError> {
        let shard_count = self.cfg.shards;
        let mut msg = WorkerMsg::Batch(frame, Instant::now());
        let mut failures = 0usize;
        loop {
            if self.stopped.load(Ordering::Acquire) {
                return Err(ServiceError::Shutdown);
            }
            let table = self.table.load();
            let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % shard_count;
            let slot = &table.slots[shard];
            if !slot.alive {
                failures += 1;
                if failures >= shard_count && self.all_shards_dead() {
                    return Err(self.all_shards_lost());
                }
                continue;
            }
            let pushed = match blocking {
                true => slot.ring.push(msg).map_err(PushError::Closed),
                false => slot.ring.try_push(msg),
            };
            match pushed {
                Ok(()) => {
                    self.counters.batches.fetch_add(1, Ordering::Relaxed);
                    self.telemetry.queue_pushed(shard);
                    return Ok(());
                }
                Err(PushError::Full(WorkerMsg::Batch(frame, _))) => {
                    self.counters.dropped.fetch_add(1, Ordering::Relaxed);
                    self.pools[shard].put(frame.into_bytes());
                    return Err(ServiceError::Backpressure);
                }
                Err(PushError::Closed(refused)) => {
                    msg = refused;
                    self.note_dead_shard(shard, slot.gen);
                    self.counters.retries.fetch_add(1, Ordering::Release);
                    failures += 1;
                    if failures >= shard_count.saturating_mul(2) && self.all_shards_dead() {
                        return Err(self.all_shards_lost());
                    }
                }
                Err(PushError::Full(_)) => unreachable!("a push hands back what it was given"),
            }
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

    /// Total shard loss is the engine's fatal state: dump the flight
    /// recorder (first occurrence only) so the failure ships with a trace.
    fn all_shards_lost(&self) -> ServiceError {
        self.telemetry.event("all_shards_lost", &[]);
        self.telemetry.dump_flight(self.cfg.seed, "all-shards-lost");
        ServiceError::AllShardsLost
    }

    /// Force every live worker to hand its delta to the compactor and
    /// publish a fresh snapshot containing all data ingested before this
    /// call. Dead shards are skipped (their loss is already accounted).
    ///
    /// Ordering argument: each worker pushes its delta onto the compactor
    /// queue *before* acking, and the publish barrier is enqueued after all
    /// acks, so the barrier drains behind every delta.
    pub fn flush(&self) -> Result<(), ServiceError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServiceError::Shutdown);
        }
        self.flush_workers();
        let (pub_tx, pub_rx) = mpsc::channel();
        if self.compact_tx.send(CompactMsg::Publish(pub_tx)).is_err() {
            return Err(ServiceError::Shutdown);
        }
        let _ = pub_rx.recv();
        Ok(())
    }

    /// Make every live worker hand its delta to the compactor and wait for
    /// the acks. Dead shards are skipped (their loss is already accounted).
    fn flush_workers(&self) {
        let (ack_tx, ack_rx) = mpsc::channel();
        let mut waiting = 0;
        let targets: Vec<(usize, u64, Arc<Ring<WorkerMsg>>)> = {
            let table = self.table.load();
            table
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.alive)
                .map(|(i, s)| (i, s.gen, Arc::clone(&s.ring)))
                .collect()
        };
        for (shard, gen, ring) in targets {
            match ring.push(WorkerMsg::Flush(ack_tx.clone())) {
                Ok(()) => waiting += 1,
                Err(_) => self.note_dead_shard(shard, gen),
            }
        }
        drop(ack_tx);
        // A worker can die *after* our Flush landed on its ring; the ring
        // then retains the message (and its ack sender) for a successor.
        // Poll for unnoticed deaths while waiting so the respawn (which
        // acks the retained Flush) or the tombstone drain (which drops
        // it, disconnecting the channel) releases us.
        let mut received = 0;
        while received < waiting {
            match ack_rx.recv_timeout(std::time::Duration::from_millis(1)) {
                Ok(()) => received += 1,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let table = self.table.load();
                    for (shard, slot) in table.slots.iter().enumerate() {
                        if slot.alive && slot.ring.is_dead() {
                            self.note_dead_shard(shard, slot.gen);
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
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

    /// One checkpoint cycle, run on the checkpointer thread.
    ///
    /// Consistency argument: with the pause lock held for write, no ingest
    /// is between "appended to WAL" and "enqueued", so the cut `W =
    /// last_seq` covers exactly the enqueued batches; the flush barrier
    /// then pushes all of them through the workers into the compactor
    /// queue, and the `Checkpoint` message drains behind them — the
    /// snapshot it hands back holds precisely the surviving data of
    /// seqs ≤ W. The lock is released before waiting, so ingest resumes while
    /// the compactor catches up and files are written.
    fn perform_checkpoint(&self) -> Result<(), ServiceError> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        if self.stopped.load(Ordering::Acquire) {
            return Ok(());
        }
        let (cut, merged_rx) = {
            let _pause = write(&d.pause);
            let cut = lock(&d.store).wal.last_seq();
            self.flush_workers();
            let (tx, rx) = mpsc::channel();
            if self.compact_tx.send(CompactMsg::Checkpoint(tx)).is_err() {
                return Err(ServiceError::Shutdown);
            }
            (cut, rx)
        };
        let merged = merged_rx.recv().map_err(|_| ServiceError::Shutdown)?;
        self.write_checkpoint(&merged, cut)
    }

    /// Persist `merged` as the one-part checkpoint set for WAL cut `cut`,
    /// then prune older sets and the segments they cover. The WAL is
    /// fsync'd first so the set never claims a cut newer than what is
    /// durable.
    fn write_checkpoint(&self, merged: &Snapshot, cut: u64) -> Result<(), ServiceError> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        {
            let mut store = lock(&d.store);
            store.wal.sync()?;
            store
                .checkpoints
                .write_set(cut, merged.epoch, &[merged.summary.encode()])?;
            if let Some(floor) = store.checkpoints.prune_keep(d.cfg.keep_checkpoints)? {
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
        d.last_ckpt_seq.store(cut, Ordering::Release);
        *lock(&d.last_ckpt_at) = Instant::now();
        self.telemetry.record_checkpoint();
        self.telemetry.event("checkpoint", &[("wal_seq", cut)]);
        Ok(())
    }

    /// Stop the checkpointer thread (idempotent). Must run before worker
    /// drain: the checkpointer's flush barrier needs live workers.
    fn stop_checkpointer(&self) {
        let Some(d) = &self.durable else {
            return;
        };
        drop(lock(&d.trigger_tx).take());
        if let Some(handle) = lock(&d.checkpointer).take() {
            let _ = handle.join();
        }
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

    /// Publish the next epoch. Only the compactor thread calls this, so
    /// the snapshot read here is still current when `swap` replaces it.
    fn publish(&self, summary: ShardSummary, lineage: MergeLineage) {
        let last = self.snapshot.load();
        let epoch = last.epoch + 1;
        let since_last = last.published_at.elapsed().as_micros() as u64;
        drop(last);
        self.snapshot.swap(Snapshot {
            epoch,
            summary,
            lineage,
            published_at: Instant::now(),
        });
        self.telemetry.record_publish(epoch, since_last);
    }

    /// Record a wire frame the server rejected as malformed.
    pub fn record_rejected_frame(&self) {
        // Release: see `metrics` for the pairing argument.
        self.counters
            .frames_rejected
            .fetch_add(1, Ordering::Release);
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

    /// The telemetry registry snapshot with the engine's own counters and
    /// snapshot gauges folded in — the payload served for
    /// [`crate::Request::Telemetry`]. Mergeable like any other
    /// [`RegistrySnapshot`].
    pub fn telemetry_snapshot(&self) -> RegistrySnapshot {
        let m = self.metrics();
        let (pool_reuses, pool_misses, pool_discards) = self.pool_stats();
        let mut engine = RegistrySnapshot {
            counters: vec![
                ("batches_total".to_string(), m.batches),
                ("dropped_total".to_string(), m.dropped),
                ("frames_rejected_total".to_string(), m.frames_rejected),
                ("merges_total".to_string(), m.merges),
                ("pool_discards_total".to_string(), pool_discards),
                ("pool_misses_total".to_string(), pool_misses),
                ("pool_reuses_total".to_string(), pool_reuses),
                ("retries_total".to_string(), m.retries),
                ("shards_lost_total".to_string(), m.shards_lost),
                ("updates_total".to_string(), m.updates),
            ],
            gauges: vec![
                (
                    "snapshot_age_micros".to_string(),
                    m.snapshot_age_micros as i64,
                ),
                ("snapshot_weight".to_string(), m.snapshot_weight as i64),
            ],
            histograms: Vec::new(),
        };
        // Per-shard pool reuse: integer percent of gets served from the
        // shard's own pool, plus the raw reuse counter per shard.
        for (shard, (reuses, misses, _)) in self.shard_pool_stats().into_iter().enumerate() {
            let gets = reuses + misses;
            let pct = (reuses * 100).checked_div(gets).unwrap_or(0);
            engine
                .counters
                .push((format!("pool_reuses_total{{shard=\"{shard}\"}}"), reuses));
            engine
                .gauges
                .push((format!("pool_reuse_pct{{shard=\"{shard}\"}}"), pct as i64));
        }
        if let Some(d) = &self.durable {
            let recovery = lock(&d.recovery);
            engine.gauges.extend([
                (
                    "checkpoint_seq".to_string(),
                    d.last_ckpt_seq.load(Ordering::Acquire) as i64,
                ),
                (
                    "checkpoint_age_micros".to_string(),
                    lock(&d.last_ckpt_at).elapsed().as_micros() as i64,
                ),
                (
                    "wal_last_seq".to_string(),
                    lock(&d.store).wal.last_seq() as i64,
                ),
                (
                    "recovery_duration_micros".to_string(),
                    recovery.duration_micros as i64,
                ),
                (
                    "recovery_replayed_records".to_string(),
                    recovery.replayed_records as i64,
                ),
                (
                    "recovery_corrupt_records".to_string(),
                    (recovery.corrupt_records + recovery.corrupt_checkpoints) as i64,
                ),
            ]);
        }
        if let Some(cube) = &self.cube {
            let health = cube.health();
            self.telemetry.set_cube_health(
                health.sealed,
                health.open_age_micros,
                health.open_weight,
            );
            // Keep the tier gauge fresh even if no coarsen ran recently.
            self.telemetry.record_coarsen(0, health.max_tier);
            engine.counters.extend([
                ("cube_range_memo_hits".to_string(), health.memo_hits),
                ("cube_range_memo_extends".to_string(), health.memo_extends),
                ("cube_range_memo_misses".to_string(), health.memo_misses),
            ]);
        }
        self.telemetry.snapshot().merge(&engine)
    }

    /// The engine's flight-recorder rings as a wire-ready report — the
    /// payload served for [`crate::Request::TraceDump`].
    pub fn trace_dump(&self) -> TraceDumpReport {
        self.telemetry.trace_report()
    }

    /// Compare the published summary against the audit plane's ground
    /// truth and report the observed error next to the `eps·n` envelope
    /// the paper's Definition 1 promises. Requires
    /// [`ServiceConfig::audit`]; without it the report carries lineage
    /// only (`audit_weight == 0`, trivially within bound).
    ///
    /// Frequency families keep *exact* counts for a deterministic
    /// hash-chosen 1-in-16 subset of the key space, so the observed
    /// error there is a true point-query error and must sit inside
    /// `eps·n`. The quantile family keeps a seeded reservoir; its rank
    /// comparison is itself an estimate, so the report adds a
    /// `sampling_slack` term (`3n/sqrt(len)`) and checks the bound
    /// against envelope + slack. Both kinds also add any weight the
    /// audit plane never saw (checkpoint preload, lost shards) as
    /// slack, since those items reached only one side of the
    /// comparison.
    pub fn accuracy_audit(&self) -> AccuracyAudit {
        let snap = self.snapshot();
        let lineage = snap.lineage;
        let eps = self.cfg.epsilon;
        let mut report = AccuracyAudit {
            kind: self.cfg.kind.label().to_string(),
            epsilon: eps,
            weight: lineage.weight,
            envelope: lineage.envelope(eps),
            merges: lineage.merges,
            depth: lineage.depth,
            audit_weight: 0,
            audited_items: 0,
            reservoir_len: 0,
            observed_error: 0.0,
            sampling_slack: 0.0,
            within_bound: true,
            nodes: 1,
        };
        let Some(state) = &self.audit.state else {
            return report;
        };
        let state = lock(state);
        report.audit_weight = state.weight;
        // Weight that reached the summary but not the audit plane (or
        // vice versa) — checkpoint preload, recovered WAL, lost shards —
        // can legitimately move the comparison by up to eps·|delta| plus
        // the raw delta itself for exact-count keys.
        let unseen = lineage.weight.abs_diff(state.weight) as f64;
        if self.cfg.kind == SummaryKind::HybridQuantile {
            report.reservoir_len = state.reservoir.len() as u64;
            let sample = state.reservoir.sample();
            let mut worst = 0.0f64;
            for &v in sample {
                let est = snap.summary.rank(v).unwrap_or(0) as f64;
                let truth = state.reservoir.scaled_rank(v) as f64;
                worst = worst.max((est - truth).abs());
            }
            report.observed_error = worst;
            if !sample.is_empty() {
                report.sampling_slack = 3.0 * state.weight as f64 / (sample.len() as f64).sqrt();
            }
            report.sampling_slack += unseen;
        } else {
            report.audited_items = state.exact.len() as u64;
            let mut worst = 0.0f64;
            for (&item, &count) in state.exact.iter() {
                let est = snap.summary.point(item).unwrap_or(0) as f64;
                worst = worst.max((est - count as f64).abs());
            }
            report.observed_error = worst;
            report.sampling_slack = unseen;
        }
        report.within_bound = report.observed_error <= report.envelope + report.sampling_slack;
        report
    }

    /// Current counters plus snapshot-derived gauges.
    ///
    /// Consistency: each counter is individually monotone, and the
    /// `shards_lost` / `frames_rejected` / `retries` increments use
    /// `Release` paired with the `Acquire` loads here, so a report
    /// observes every such event that happened-before anything else it
    /// observes. The report is still not a consistent cut across *all*
    /// fields — `updates` keeps advancing while the snapshot fields are
    /// read — which is inherent to lock-free counters and fine for
    /// monitoring; tests may only assume per-field monotonicity.
    pub fn metrics(&self) -> MetricsReport {
        let snap = self.snapshot();
        MetricsReport {
            updates: self.counters.updates.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            merges: self.counters.merges.load(Ordering::Relaxed),
            epoch: snap.epoch,
            snapshot_age_micros: snap.published_at.elapsed().as_micros() as u64,
            snapshot_weight: snap.summary.total_weight(),
            shards_lost: self.counters.shards_lost.load(Ordering::Acquire),
            frames_rejected: self.counters.frames_rejected.load(Ordering::Acquire),
            retries: self.counters.retries.load(Ordering::Acquire),
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
        let _draining = lock(&self.shutdown_lock);
        if self.stopped.swap(true, Ordering::AcqRel) {
            // Whoever held the lock before us finished the drain.
            return self.snapshot();
        }
        // The checkpointer's flush barrier needs live workers: stop it
        // before touching them.
        self.stop_checkpointer();
        self.drain_workers();
        if let Some(d) = &self.durable {
            // All deltas are on the compactor queue; the Checkpoint
            // message drains behind them and hands back their merge.
            let (tx, rx) = mpsc::channel();
            if self.compact_tx.send(CompactMsg::Checkpoint(tx)).is_ok() {
                if let Ok(merged) = rx.recv() {
                    let cut = lock(&d.store).wal.last_seq();
                    if self.write_checkpoint(&merged, cut).is_err() {
                        self.telemetry.event("final_checkpoint_failed", &[]);
                    }
                }
            }
        }
        // Publish whatever the compactor accumulated, then stop it.
        let (pub_tx, pub_rx) = mpsc::channel();
        if self.compact_tx.send(CompactMsg::Publish(pub_tx)).is_ok() {
            let _ = pub_rx.recv();
        }
        let _ = self.compact_tx.send(CompactMsg::Stop);
        if let Some(handle) = lock(&self.compactor_handle).take() {
            let _ = handle.join();
        }
        self.snapshot()
    }

    /// Simulate a hard crash (`kill -9`): stop every thread *without* the
    /// final flush, checkpoint, or fsync that [`Engine::shutdown`]
    /// performs. On-disk state is whatever the fsync policy already made
    /// durable — exactly the state recovery must be able to live with.
    /// The crash/recovery fault suite drives this; it is safe (if
    /// pointless) to call in production.
    pub fn abort(&self) {
        let _draining = lock(&self.shutdown_lock);
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        self.stop_checkpointer();
        self.drain_workers();
        // Stop the compactor without a final publish: queries keep
        // answering from the last published snapshot, like a real crash
        // survivor's client would have seen.
        let _ = self.compact_tx.send(CompactMsg::Stop);
        if let Some(handle) = lock(&self.compactor_handle).take() {
            let _ = handle.join();
        }
    }

    /// Close every worker ring and join the workers. Each worker drains
    /// its remaining queued batches and hands off its delta when its ring
    /// reports empty-and-closed.
    fn drain_workers(&self) {
        let rings: Vec<Arc<Ring<WorkerMsg>>> = {
            let _topology = lock(&self.table_write);
            let table = self.table.load();
            // Bump every generation while closing, so a racing
            // `note_dead_shard` against the old incarnations mismatches
            // and does not count shutdown as shard deaths.
            let slots: Vec<TableSlot> = table
                .slots
                .iter()
                .map(|s| TableSlot {
                    gen: s.gen + 1,
                    ring: Arc::clone(&s.ring),
                    alive: false,
                })
                .collect();
            let rings = slots.iter().map(|s| Arc::clone(&s.ring)).collect();
            self.table.swap(ShardTable { slots });
            rings
        };
        for ring in &rings {
            ring.close();
        }
        for handle in lock(&self.worker_handles).drain(..) {
            let _ = handle.join();
        }
    }
}

/// Marks the worker's ring dead if the worker exits without finishing a
/// clean drain — an injected death or a panic inside a summary. Producers
/// then get `Closed` (and reroute) instead of blocking forever, and the
/// engine revives the ring for a respawned successor.
struct RingGuard {
    ring: Arc<Ring<WorkerMsg>>,
    clean: bool,
}

impl Drop for RingGuard {
    fn drop(&mut self) {
        if !self.clean {
            self.ring.mark_dead();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_worker(
    shard: usize,
    cfg: ServiceConfig,
    ring: Arc<Ring<WorkerMsg>>,
    compact_tx: Sender<CompactMsg>,
    counters: Arc<Counters>,
    batch_indices: Arc<Vec<AtomicU64>>,
    telemetry: Arc<EngineTelemetry>,
    pool: Arc<BufferPool<u8>>,
    audit: Arc<AuditPlane>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("ms-worker-{shard}"))
        .spawn(move || {
            let trace = telemetry.recorder().register(&format!("worker-{shard}"));
            let mut sentinel = RingGuard {
                ring: Arc::clone(&ring),
                clean: false,
            };
            let mut delta = ShardSummary::new(&cfg, shard);
            let mut pending = 0usize;
            // The one place a batch becomes items: this worker's scratch.
            let mut items: Vec<u64> = Vec::new();
            let hand_off = |delta: &mut ShardSummary, pending: &mut usize| {
                if *pending > 0 {
                    let full = std::mem::replace(delta, ShardSummary::new(&cfg, shard));
                    let _ = compact_tx.send(CompactMsg::Delta(full));
                    *pending = 0;
                }
            };
            while let Some(msg) = ring.pop_wait() {
                match msg {
                    WorkerMsg::Batch(frame, enqueued) => {
                        telemetry.queue_popped(shard);
                        telemetry.record_queue_wait(shard, enqueued.elapsed().as_micros() as u64);
                        let index = batch_indices[shard].fetch_add(1, Ordering::Relaxed);
                        match cfg.fault_plan.worker_batch(shard, index) {
                            FaultAction::Continue => {}
                            FaultAction::StallMs(ms) => {
                                trace.event("stall", &[("ms", ms)]);
                                std::thread::sleep(std::time::Duration::from_millis(ms));
                            }
                            FaultAction::Die => {
                                // Crash semantics: the pending delta and
                                // the batch in hand are lost; deltas
                                // already handed off survive in the global
                                // summary, and batches still on the ring
                                // survive for a respawned successor.
                                trace.event(
                                    "worker_die",
                                    &[("batch_index", index), ("pending", pending as u64)],
                                );
                                return;
                            }
                        }
                        items.clear();
                        frame.decode_into(&mut items);
                        // The decoded frame's buffer goes back to the
                        // pool for the next frame off a socket.
                        pool.put(frame.into_bytes());
                        counters
                            .updates
                            .fetch_add(items.len() as u64, Ordering::Relaxed);
                        // Ground truth observes exactly what the delta
                        // absorbs: dropped or fault-killed batches reach
                        // neither side of the accuracy comparison.
                        audit.observe(&items);
                        pending += items.len();
                        // Batched absorb: Count-Min goes through the
                        // hash-then-update kernel, other families through
                        // their (order-preserving) per-item loops.
                        let (_, micros) = timed(|| delta.update_batch(&items));
                        telemetry.record_ingest_batch(shard, micros);
                        if pending >= cfg.delta_updates {
                            let handed = pending as u64;
                            let (_, micros) = timed(|| hand_off(&mut delta, &mut pending));
                            trace.event("hand_off", &[("updates", handed), ("micros", micros)]);
                        }
                    }
                    WorkerMsg::Flush(ack) => {
                        hand_off(&mut delta, &mut pending);
                        let _ = ack.send(());
                    }
                }
            }
            // The ring closed and drained: everything that was ever acked
            // onto this shard — including pushes that were in flight when
            // the close landed — has been absorbed above. Hand off the
            // final delta; shutdown publishes it.
            hand_off(&mut delta, &mut pending);
            sentinel.clean = true;
        })
}

fn spawn_compactor(
    engine: Arc<Engine>,
    rx: Receiver<CompactMsg>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("ms-compactor".to_string())
        .spawn(move || {
            let cfg = engine.cfg.clone();
            let trace = engine.telemetry.recorder().register("compactor");
            let mut global = ShardSummary::new(&cfg, usize::MAX);
            let mut merge_index = 0u64;
            // Lineage mirrors the left-deep fold below: after k deltas,
            // merges == depth == k and weight == global.total_weight().
            let mut lineage = MergeLineage::leaf(global.total_weight());
            // How many backlogged deltas one compaction pass will fuse.
            // Under steady load the channel is empty and each delta is
            // folded as it arrives, exactly as before; under backlog the
            // linear families (Count-Min) fold the whole batch in a
            // single pass over the global table.
            const MAX_COMPACT_FUSE: usize = 16;
            let mut carried: Option<CompactMsg> = None;
            loop {
                let msg = match carried.take() {
                    Some(msg) => msg,
                    None => match rx.recv() {
                        Ok(msg) => msg,
                        Err(_) => break,
                    },
                };
                match msg {
                    CompactMsg::Delta(delta) => {
                        // Drain whatever backlog is already queued, stopping
                        // at the first non-delta message so barriers keep
                        // their channel ordering.
                        let mut batch = vec![delta];
                        while batch.len() < MAX_COMPACT_FUSE {
                            match rx.try_recv() {
                                Ok(CompactMsg::Delta(delta)) => batch.push(delta),
                                Ok(other) => {
                                    carried = Some(other);
                                    break;
                                }
                                Err(_) => break,
                            }
                        }
                        let fused = batch.len() as u64;
                        let mut weights = Vec::with_capacity(batch.len());
                        for delta in &batch {
                            let stall_ms = cfg.fault_plan.compactor_merge(merge_index);
                            merge_index += 1;
                            if stall_ms > 0 {
                                trace.event("stall", &[("ms", stall_ms)]);
                                std::thread::sleep(std::time::Duration::from_millis(stall_ms));
                            }
                            weights.push(delta.total_weight());
                        }
                        let mut span = ms_obs::span!(trace, "compact", merge_index = merge_index);
                        if fused > 1 {
                            span.field("fused", fused);
                        }
                        // In-place: the global summary's storage is reused
                        // across merges instead of being cloned per delta;
                        // linear families fold the whole batch in one pass.
                        let (results, micros) = timed(|| global.merge_in_place_many(batch));
                        let mut any_merged = false;
                        for (result, weight) in results.iter().zip(weights) {
                            if result.is_ok() {
                                // Deltas come from ShardSummary::new under
                                // the same config, so kinds/ε always match;
                                // a failure here would be an engine bug and
                                // leaves `global` untouched for that delta.
                                lineage.absorb(MergeLineage::leaf(weight));
                                engine.counters.merges.fetch_add(1, Ordering::Relaxed);
                                any_merged = true;
                            }
                        }
                        if any_merged {
                            // The compactor folds deltas left-deep, so the
                            // snapshot's merge tree is `merge_index` deep.
                            engine.telemetry.record_compact_merge(micros, merge_index);
                            engine.publish(global.clone(), lineage);
                            span.field("epoch", engine.snapshot().epoch);
                        }
                    }
                    CompactMsg::Publish(ack) => {
                        engine.publish(global.clone(), lineage);
                        let _ = ack.send(());
                    }
                    CompactMsg::Checkpoint(ack) => {
                        // Only this thread publishes, so the current
                        // snapshot is the one just published.
                        engine.publish(global.clone(), lineage);
                        let _ = ack.send(engine.snapshot());
                    }
                    CompactMsg::Stop => break,
                }
            }
        })
}

/// The checkpointer thread: waits for cadence triggers (sent by ingest
/// every `checkpoint_batches` batches) or explicit
/// [`Engine::checkpoint_now`] requests, and runs one checkpoint cycle per
/// trigger. Exits when the trigger channel closes (shutdown/abort).
fn spawn_checkpointer(
    engine: Arc<Engine>,
    rx: Receiver<Option<Sender<()>>>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("ms-checkpointer".to_string())
        .spawn(move || {
            for trigger in rx {
                if let Err(e) = engine.perform_checkpoint() {
                    // A failed checkpoint is not fatal: the WAL still has
                    // everything. Record it and keep serving.
                    engine.telemetry.event("checkpoint_failed", &[]);
                    let _ = e;
                }
                if let Some(ack) = trigger {
                    let _ = ack.send(());
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SummaryKind;
    use crate::fault::plan_fn;

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
    fn try_ingest_counts_drops_when_queues_fill() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.1)
            .shards(1)
            .queue_depth(1);
        let engine = Engine::start(cfg).unwrap();
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for _ in 0..2_000 {
            match engine.try_ingest(vec![1; 512]) {
                Ok(()) => accepted += 1,
                Err(ServiceError::Backpressure) => rejected += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        let m = engine.metrics();
        assert_eq!(m.batches, accepted);
        assert_eq!(m.dropped, rejected);
        engine.shutdown();
        assert_eq!(engine.metrics().updates, accepted * 512);
    }

    #[test]
    fn spent_deadline_sheds_before_logging_on_both_ingest_paths() {
        let dir = temp_data_dir("deadline");
        let engine = Engine::start(durable_cfg(&dir)).unwrap();
        deadline::with_deadline(Some(deadline::absolute(0)), || {
            for attempt in [Engine::ingest, Engine::try_ingest] {
                match attempt(&engine, vec![7; 16]) {
                    Err(ServiceError::Overloaded { .. }) => {}
                    other => panic!("spent deadline must shed typed, got {other:?}"),
                }
            }
        });
        // Doomed work was neither logged nor queued.
        let d = engine.durable.as_ref().unwrap();
        assert_eq!(lock(&d.store).wal.last_seq(), 0);
        assert_eq!(engine.metrics().batches, 0);
        // With budget left both paths log and enqueue as usual.
        deadline::with_deadline(Some(deadline::absolute(60_000_000)), || {
            engine.ingest(vec![7; 16]).unwrap();
            engine.try_ingest(vec![7; 16]).unwrap();
        });
        assert_eq!(lock(&d.store).wal.last_seq(), 2);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_disabled_degrades_to_plain_allocation_with_counted_misses() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .pool_buffers(0);
        let engine = Engine::start(cfg).unwrap();
        for _ in 0..50 {
            let mut batch = engine.ingest_buffer();
            batch.extend_from_slice(&[7; 100]);
            engine.ingest(batch).unwrap();
        }
        let (reuses, misses, _) = engine.pool_stats();
        assert_eq!(reuses, 0, "a zero-slot pool cannot serve reuses");
        assert!(misses >= 50, "every get must be a counted miss");
        let snap = engine.shutdown();
        assert_eq!(snap.summary.total_weight(), 5_000);
    }

    #[test]
    fn backpressure_recycles_the_rejected_buffer_into_the_pool() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.1)
            .shards(1)
            .queue_depth(1)
            .pool_buffers(4);
        let engine = Engine::start(cfg).unwrap();
        let mut rejected = 0u64;
        for _ in 0..2_000 {
            let mut batch = engine.ingest_buffer();
            batch.extend_from_slice(&[1; 512]);
            match engine.try_ingest(batch) {
                Ok(()) => {}
                Err(ServiceError::Backpressure) => rejected += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(rejected > 0, "queue never filled");
        // A rejected batch hands its buffer straight back to the pool, so
        // nearly every get is a reuse; if rejection dropped buffers on the
        // floor instead, every get after the bootstrap would be a miss.
        let (reuses, misses, _) = engine.pool_stats();
        assert!(
            misses < 200,
            "rejected buffers were not recycled (misses={misses}, rejected={rejected})"
        );
        assert!(reuses > 1_800, "pool served {reuses} of 2000 gets");
        engine.shutdown();
    }

    #[test]
    fn per_shard_pools_serve_a_multi_shard_ingest_loop() {
        // Default pool_buffers (512) gives each shard 128 slots — enough
        // to cover a full ring (queue_depth 64) of in-flight batches.
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05).shards(4);
        let engine = Engine::start(cfg).unwrap();
        for _ in 0..2_000 {
            let mut batch = engine.ingest_buffer();
            batch.extend_from_slice(&[3; 64]);
            engine.ingest(batch).unwrap();
        }
        engine.flush().unwrap();
        let per_shard = engine.shard_pool_stats();
        assert_eq!(per_shard.len(), 4);
        let (reuses, misses, discards) = engine.pool_stats();
        let summed = per_shard
            .iter()
            .fold((0, 0, 0), |(r, m, d), s| (r + s.0, m + s.1, d + s.2));
        assert_eq!((reuses, misses, discards), summed);
        // Round-robin ingest keeps each buffer circulating within its own
        // shard's pool, so the large majority of gets are reuses (the
        // misses are the warm-up allocations while batches are in flight).
        assert!(
            reuses > 1_200,
            "per-shard pools served only {reuses} of 2000 gets (misses={misses})"
        );
        for (shard, (r, m, _)) in per_shard.iter().enumerate() {
            assert!(r + m > 0, "shard {shard} pool saw no traffic");
        }
        engine.shutdown();
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
    fn epochs_advance_and_snapshots_are_immutable() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .delta_updates(100);
        let engine = Engine::start(cfg).unwrap();
        engine.ingest((0..500).collect()).unwrap();
        engine.flush().unwrap();
        let early = engine.snapshot();
        engine.ingest((0..500).collect()).unwrap();
        engine.flush().unwrap();
        let late = engine.snapshot();
        assert!(late.epoch > early.epoch);
        // The old snapshot still answers from its own epoch.
        assert_eq!(early.summary.total_weight(), 500);
        assert_eq!(late.summary.total_weight(), 1000);
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
    fn dead_shard_is_detected_rerouted_and_respawned() {
        // Shard 0 dies at its third batch; the engine must keep accepting
        // every batch (rerouting + respawning) and lose at most the dead
        // worker's pending delta and queued batches.
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .delta_updates(50)
            .queue_depth(4)
            .fault_plan(plan_fn(|shard, idx| {
                if shard == 0 && idx == 2 {
                    FaultAction::Die
                } else {
                    FaultAction::Continue
                }
            }));
        let engine = Engine::start(cfg).unwrap();
        let mut accepted = 0u64;
        for _ in 0..200 {
            engine.ingest(vec![3; 10]).unwrap();
            accepted += 10;
        }
        let snap = engine.shutdown();
        let m = engine.metrics();
        assert!(m.shards_lost >= 1, "death not detected: {m:?}");
        let surviving = snap.summary.total_weight();
        assert!(surviving <= accepted);
        // The respawned shard keeps absorbing, so the loss is bounded by
        // what one incarnation could hold: its pending delta (< 50 updates
        // per hand-off threshold) plus queued batches (4 × 10) plus the
        // batch it died on.
        let max_loss = 50 + 4 * 10 + 10;
        assert!(
            accepted - surviving <= max_loss,
            "lost {} > {max_loss}",
            accepted - surviving
        );
    }

    #[test]
    fn respawn_disabled_tombstones_the_shard() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .respawn_lost_shards(false)
            .fault_plan(plan_fn(|shard, idx| {
                if shard == 0 && idx == 0 {
                    FaultAction::Die
                } else {
                    FaultAction::Continue
                }
            }));
        let engine = Engine::start(cfg).unwrap();
        for _ in 0..50 {
            engine.ingest(vec![1; 4]).unwrap();
        }
        // Give the dying worker time to process its first batch, then keep
        // ingesting: every batch must land on the surviving shard.
        std::thread::sleep(std::time::Duration::from_millis(20));
        for _ in 0..50 {
            engine.ingest(vec![1; 4]).unwrap();
        }
        let m = engine.metrics();
        engine.shutdown();
        assert_eq!(m.shards_lost, 1);
        assert!(m.retries >= 1);
    }

    #[test]
    fn all_shards_dead_is_a_typed_error() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(1)
            .respawn_lost_shards(false)
            .fault_plan(plan_fn(|_, idx| {
                if idx == 0 {
                    FaultAction::Die
                } else {
                    FaultAction::Continue
                }
            }));
        let engine = Engine::start(cfg).unwrap();
        // First batch reaches the queue; the worker dies on it.
        engine.ingest(vec![1]).unwrap();
        // Eventually every send fails and the engine reports total loss.
        let mut saw_all_lost = false;
        for _ in 0..1_000 {
            match engine.ingest(vec![2]) {
                Ok(()) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Err(ServiceError::AllShardsLost) => {
                    saw_all_lost = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_all_lost);
        assert_eq!(engine.metrics().shards_lost, 1);
        // Queries still answer from the last published snapshot.
        let _ = engine.snapshot();
        engine.shutdown();
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

    #[test]
    fn accuracy_audit_stays_inside_the_envelope() {
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::Mg, 0.01)
                .shards(4)
                .audit(true)
                .seed(0xF417_5EED),
        )
        .unwrap();
        // Zipf-ish skew: heavy keys plus a long tail, 100k updates.
        for round in 0..100u64 {
            let mut batch = Vec::with_capacity(1000);
            for i in 0..1000u64 {
                let item = if i % 4 == 0 { i % 16 } else { round * 1000 + i };
                batch.push(item);
            }
            engine.ingest(batch).unwrap();
        }
        engine.flush().unwrap();
        let audit = engine.accuracy_audit();
        assert_eq!(audit.kind, "mg");
        assert_eq!(audit.weight, 100_000);
        assert_eq!(audit.audit_weight, 100_000, "audit saw every absorbed item");
        assert!(audit.audited_items > 0, "1-in-16 hash sample is non-empty");
        assert!((audit.envelope - 0.01 * 100_000.0).abs() < 1e-6);
        assert!(
            audit.within_bound,
            "observed {} > envelope {} + slack {}",
            audit.observed_error, audit.envelope, audit.sampling_slack
        );
        assert!(audit.observed_error <= audit.envelope);
        engine.shutdown();
    }

    #[test]
    fn accuracy_audit_quantile_uses_reservoir_with_slack() {
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::HybridQuantile, 0.02)
                .shards(2)
                .audit(true)
                .seed(0xB0B5_CAFE),
        )
        .unwrap();
        for round in 0..50u64 {
            engine
                .ingest(
                    (0..1000u64)
                        .map(|i| (round * 7 + i * 13) % 10_000)
                        .collect(),
                )
                .unwrap();
        }
        engine.flush().unwrap();
        let audit = engine.accuracy_audit();
        assert_eq!(audit.weight, 50_000);
        assert_eq!(audit.audit_weight, 50_000);
        assert_eq!(audit.reservoir_len, 4096);
        assert!(audit.sampling_slack > 0.0);
        assert!(
            audit.within_bound,
            "observed {} > envelope {} + slack {}",
            audit.observed_error, audit.envelope, audit.sampling_slack
        );
        engine.shutdown();
    }

    #[test]
    fn audit_disabled_reports_lineage_only() {
        let engine = Engine::start(ServiceConfig::new(SummaryKind::Mg, 0.05).shards(2)).unwrap();
        engine.ingest(vec![1; 500]).unwrap();
        engine.flush().unwrap();
        let audit = engine.accuracy_audit();
        assert_eq!(audit.weight, 500);
        assert_eq!(audit.audit_weight, 0);
        assert_eq!(audit.audited_items, 0);
        assert_eq!(audit.observed_error, 0.0);
        assert!(audit.within_bound);
        // Lineage rides on the snapshot too.
        let snap = engine.snapshot();
        assert_eq!(snap.lineage.weight, 500);
        assert!(snap.lineage.merges >= 1);
        assert_eq!(snap.lineage.envelope(0.05), 0.05 * 500.0);
        engine.shutdown();
    }

    #[test]
    fn all_shards_lost_dumps_seed_stamped_flight_recording() {
        let dir = std::env::temp_dir().join("ms-engine-flight-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("MS_FLIGHT_DIR", &dir);
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(1)
            .seed(0xDEAD_BEEF)
            .respawn_lost_shards(false)
            .fault_plan(crate::fault::plan_fn(|_, idx| {
                if idx == 0 {
                    FaultAction::Die
                } else {
                    FaultAction::Continue
                }
            }));
        let engine = Engine::start(cfg).unwrap();
        engine.ingest(vec![1]).unwrap();
        let mut lost = false;
        for _ in 0..1_000 {
            match engine.ingest(vec![2]) {
                Ok(()) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Err(ServiceError::AllShardsLost) => {
                    lost = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        std::env::remove_var("MS_FLIGHT_DIR");
        assert!(lost);
        let dump = dir.join("flight-all-shards-lost-0xdeadbeef.json");
        let text = std::fs::read_to_string(&dump)
            .unwrap_or_else(|e| panic!("missing flight dump {}: {e}", dump.display()));
        assert!(text.contains("\"seed\": \"0xdeadbeef\""), "{text}");
        assert!(text.contains("worker_die"), "{text}");
        assert!(text.contains("all_shards_lost"), "{text}");
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn temp_data_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ms-engine-dur-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_cfg(dir: &std::path::Path) -> ServiceConfig {
        ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .delta_updates(64)
            .durability(crate::config::DurabilityConfig::new(dir))
    }

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
        let dir = temp_data_dir("kind");
        let engine = Engine::start(durable_cfg(&dir)).unwrap();
        engine.ingest(vec![1; 10]).unwrap();
        engine.shutdown();
        let wrong = ServiceConfig::new(SummaryKind::CountMin, 0.05)
            .shards(2)
            .durability(crate::config::DurabilityConfig::new(&dir));
        assert!(matches!(Engine::start(wrong), Err(ServiceError::Config(_))));
        let _ = std::fs::remove_dir_all(&dir);
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

    #[test]
    fn compactor_stall_delays_but_preserves_data() {
        use std::sync::atomic::AtomicU64 as A;
        #[derive(Debug, Default)]
        struct SlowCompactor(A);
        impl crate::fault::FaultPlan for SlowCompactor {
            fn compactor_merge(&self, _merge_index: u64) -> u64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                1
            }
        }
        let plan = Arc::new(SlowCompactor::default());
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .delta_updates(100)
            .fault_plan(Arc::clone(&plan) as Arc<dyn crate::fault::FaultPlan>);
        let engine = Engine::start(cfg).unwrap();
        for _ in 0..20 {
            engine.ingest(vec![5; 100]).unwrap();
        }
        let snap = engine.shutdown();
        assert_eq!(snap.summary.total_weight(), 2000);
        assert!(plan.0.load(Ordering::Relaxed) >= 1, "stall never consulted");
    }
}
