//! The engine's observability plane: pre-registered instruments for every
//! hot path, a flight recorder for failure forensics, and the snapshot
//! the [`crate::Request::Telemetry`] opcode serves.
//!
//! Instruments are created once at engine start and stored as `Arc`s in
//! fixed per-shard / per-opcode vectors, so the hot paths never touch the
//! registry lock — recording is a few atomic adds. When the engine is
//! started with `telemetry(false)` every record method is a single branch
//! and the flight recorder is disabled. Two sets of instruments record
//! either way, because they are inputs, not observations: the engine's
//! work counters ([`crate::MetricsReport`] reads them) and the per-shard
//! queue-depth gauges (admission control reads them).
//!
//! All durations are recorded in microseconds.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ms_core::rng::splitmix64;
use ms_obs::{
    Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, RegistrySnapshot, TraceHandle,
};

use crate::cube::CubeHealth;
use crate::protocol::{ThreadTrace, TraceDumpReport, TraceEventRecord};
use crate::tracectx::{derive_span, TraceContext};

/// Events each per-thread flight-recorder ring retains.
const FLIGHT_RING_CAPACITY: usize = 256;

/// Opcode labels, indexed by the request opcode byte (see
/// [`crate::protocol::Request`]). Kept in wire-opcode order so the server
/// can index by opcode without a match.
pub const OPCODE_LABELS: [&str; 17] = [
    "ping",
    "ingest",
    "flush",
    "point",
    "heavy_hitters",
    "rank",
    "quantile",
    "metrics",
    "summary",
    "telemetry",
    "cluster_info",
    "node_summary",
    "range_quantile",
    "range_heavy_hitters",
    "segment_info",
    "trace_dump",
    "accuracy_report",
];

/// The engine's work counters, one per [`crate::MetricsReport`] counter
/// field, registered under the field's name plus `_total`.
pub(crate) struct EngineCounters {
    pub updates: Arc<Counter>,
    pub batches: Arc<Counter>,
    pub dropped: Arc<Counter>,
    pub merges: Arc<Counter>,
    pub shards_lost: Arc<Counter>,
    pub frames_rejected: Arc<Counter>,
    pub retries: Arc<Counter>,
}

/// Pre-registered instruments for one engine (and the server wrapping it).
pub struct EngineTelemetry {
    enabled: bool,
    /// Recorded whether or not `enabled`.
    pub(crate) counters: EngineCounters,
    registry: Arc<MetricsRegistry>,
    recorder: Arc<FlightRecorder>,
    /// Absorb time per ingested batch, per shard.
    ingest_batch: Vec<Arc<Histogram>>,
    /// Time a batch sat on the shard queue before the worker picked it up.
    queue_wait: Vec<Arc<Histogram>>,
    /// Batches currently sitting on each shard queue (always recorded).
    queue_depth: Vec<Arc<Gauge>>,
    /// Compactor merge duration.
    compact_merge: Arc<Histogram>,
    /// Wall-clock gap between consecutive publishes (epoch duration).
    epoch_duration: Arc<Histogram>,
    /// Depth of the compactor's (left-deep) merge tree in the snapshot.
    merge_tree_depth: Arc<Gauge>,
    /// Current published epoch.
    epoch: Arc<Gauge>,
    /// Server dispatch latency, per request opcode.
    request_latency: Vec<Arc<Histogram>>,
    /// Wire payload bytes received / sent by the server.
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    /// Durability plane: WAL records / bytes appended, fsyncs issued,
    /// checkpoint sets written. Zero (and never touched) when the engine
    /// runs without a data directory.
    wal_records: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    wal_fsyncs: Arc<Counter>,
    /// Store-mutex acquisitions by group-commit leaders; the gap between
    /// this and `wal_records` is the amortization group commit bought.
    wal_groups: Arc<Counter>,
    checkpoints: Arc<Counter>,
    /// Segments merged per range query (covering-set size).
    range_covering: Arc<Histogram>,
    /// Segment-cube health: sealed segments, open-segment age/weight and
    /// the deepest coarsening tier resident.
    cube_sealed: Arc<Gauge>,
    cube_open_age: Arc<Gauge>,
    cube_open_weight: Arc<Gauge>,
    cube_max_tier: Arc<Gauge>,
    /// Segment-store writes or removes that failed (the WAL tail then
    /// carries the segment until a restart rebuilds it).
    segment_persist_failures: Arc<Counter>,
    /// Shared handle for rare cross-thread events (shard deaths, dumps).
    engine_events: TraceHandle,
    /// First-failure latch: only the first fatal error dumps the recorder.
    flight_dumped: AtomicBool,
    /// Seed trace ids derive from (the engine / coordinator seed).
    seed: u64,
    /// Monotonic counter feeding deterministic trace and span ids.
    span_counter: AtomicU64,
}

impl EngineTelemetry {
    /// Build the instrument set for `shards` ingest shards. When
    /// `enabled` is false every instrument still exists (snapshots stay
    /// well-formed) but only the work counters and the queue-depth gauges
    /// record. `seed` feeds deterministic trace
    /// ids ([`EngineTelemetry::root_context`]), so a replayed run mints
    /// the same trace tree.
    pub fn new(shards: usize, enabled: bool, seed: u64) -> EngineTelemetry {
        let registry = Arc::new(MetricsRegistry::new());
        let recorder = Arc::new(FlightRecorder::new(FLIGHT_RING_CAPACITY));
        recorder.set_enabled(enabled);
        let per_shard_hist = |name: &str| -> Vec<Arc<Histogram>> {
            (0..shards)
                .map(|s| registry.histogram(&format!("{name}{{shard=\"{s}\"}}")))
                .collect()
        };
        let engine_events = recorder.register("engine");
        EngineTelemetry {
            enabled,
            counters: EngineCounters {
                updates: registry.counter("updates_total"),
                batches: registry.counter("batches_total"),
                dropped: registry.counter("dropped_total"),
                merges: registry.counter("merges_total"),
                shards_lost: registry.counter("shards_lost_total"),
                frames_rejected: registry.counter("frames_rejected_total"),
                retries: registry.counter("retries_total"),
            },
            ingest_batch: per_shard_hist("ingest_batch_micros"),
            queue_wait: per_shard_hist("queue_wait_micros"),
            queue_depth: (0..shards)
                .map(|s| registry.gauge(&format!("queue_depth{{shard=\"{s}\"}}")))
                .collect(),
            compact_merge: registry.histogram("compact_merge_micros"),
            epoch_duration: registry.histogram("epoch_duration_micros"),
            merge_tree_depth: registry.gauge("merge_tree_depth"),
            epoch: registry.gauge("epoch"),
            request_latency: OPCODE_LABELS
                .iter()
                .map(|op| registry.histogram(&format!("request_micros{{op=\"{op}\"}}")))
                .collect(),
            bytes_in: registry.counter("server_bytes_in_total"),
            bytes_out: registry.counter("server_bytes_out_total"),
            wal_records: registry.counter("wal_records_total"),
            wal_bytes: registry.counter("wal_bytes_total"),
            wal_fsyncs: registry.counter("wal_fsyncs_total"),
            wal_groups: registry.counter("wal_group_commits_total"),
            checkpoints: registry.counter("checkpoints_total"),
            range_covering: registry.histogram("range_covering_segments"),
            cube_sealed: registry.gauge("cube_segments_sealed"),
            cube_open_age: registry.gauge("cube_open_age_micros"),
            cube_open_weight: registry.gauge("cube_open_weight"),
            segment_persist_failures: registry.counter("segment_persist_failed_total"),
            cube_max_tier: registry.gauge("cube_max_tier"),
            engine_events,
            registry,
            recorder,
            flight_dumped: AtomicBool::new(false),
            seed,
            span_counter: AtomicU64::new(0),
        }
    }

    /// Is recording enabled?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The underlying registry (for callers adding their own instruments).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The flight recorder, for registering per-thread trace handles.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The per-shard queue-depth gauges — the admission controller's
    /// pressure signal ([`crate::overload::Admission`]). They move whether
    /// or not telemetry is enabled, so watermark shedding never depends
    /// on it.
    pub fn queue_depth_gauges(&self) -> Vec<Arc<Gauge>> {
        self.queue_depth.clone()
    }

    /// The seed trace ids derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Mint a fresh root [`TraceContext`] — a pure function of
    /// `(seed, requests rooted so far)`, so a replayed run yields the
    /// same trace ids in the same order. Minted even when telemetry is
    /// disabled: downstream nodes may be recording even if this process
    /// is not.
    pub fn root_context(&self) -> TraceContext {
        let n = self.span_counter.fetch_add(1, Ordering::Relaxed);
        let mut state = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(n.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let id = splitmix64(&mut state);
        TraceContext {
            trace_id: if id == 0 { 1 } else { id },
            parent_span: 0,
        }
    }

    /// Derive a fresh child span id under `ctx` (deterministic, unique
    /// per process even when every node shares one seed — the parent
    /// span and the local counter both feed the mix).
    pub fn next_span(&self, ctx: TraceContext) -> u64 {
        let n = self.span_counter.fetch_add(1, Ordering::Relaxed);
        derive_span(ctx.trace_id, ctx.parent_span, self.seed ^ n)
    }

    /// Export the flight recorder as a wire-encodable
    /// [`TraceDumpReport`] for the `TraceDump` opcode.
    pub fn trace_report(&self) -> TraceDumpReport {
        TraceDumpReport {
            seed: self.seed,
            ring_capacity: self.recorder.capacity() as u64,
            captured_micros: self.recorder.captured_micros(),
            threads: self
                .recorder
                .export()
                .into_iter()
                .map(|t| ThreadTrace {
                    label: t.label,
                    evicted: t.evicted,
                    events: t
                        .events
                        .into_iter()
                        .map(|e| TraceEventRecord {
                            name: e.name.to_string(),
                            start_micros: e.start_micros,
                            duration_micros: e.duration_micros,
                            fields: e
                                .fields
                                .into_iter()
                                .map(|(k, v)| (k.to_string(), v))
                                .collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Record one absorbed batch on `shard`.
    pub fn record_ingest_batch(&self, shard: usize, micros: u64) {
        if self.enabled {
            self.ingest_batch[shard].record(micros);
        }
    }

    /// Record how long a batch waited on `shard`'s queue.
    pub fn record_queue_wait(&self, shard: usize, micros: u64) {
        if self.enabled {
            self.queue_wait[shard].record(micros);
        }
    }

    /// A batch was enqueued on `shard`.
    pub fn queue_pushed(&self, shard: usize) {
        self.queue_depth[shard].inc();
    }

    /// A batch was taken off `shard`'s queue.
    pub fn queue_popped(&self, shard: usize) {
        self.queue_depth[shard].dec();
    }

    /// Zero `shard`'s queue-depth gauge (a dead worker takes its queued
    /// batches with it).
    pub fn queue_reset(&self, shard: usize) {
        self.queue_depth[shard].set(0);
    }

    /// Record one compactor merge and the resulting merge-tree depth.
    pub fn record_compact_merge(&self, micros: u64, tree_depth: u64) {
        if self.enabled {
            self.compact_merge.record(micros);
            self.merge_tree_depth.set(tree_depth as i64);
        }
    }

    /// Record a publish: the new epoch and the gap since the previous one.
    pub fn record_publish(&self, epoch: u64, since_last_micros: u64) {
        if self.enabled {
            self.epoch.set(epoch as i64);
            self.epoch_duration.record(since_last_micros);
        }
    }

    /// Record one served request by wire opcode.
    pub fn record_request(&self, opcode: u8, micros: u64) {
        if self.enabled {
            if let Some(h) = self.request_latency.get(opcode as usize) {
                h.record(micros);
            }
        }
    }

    /// Count wire payload bytes received by the server.
    pub fn add_bytes_in(&self, n: u64) {
        if self.enabled {
            self.bytes_in.add(n);
        }
    }

    /// Count wire payload bytes sent by the server.
    pub fn add_bytes_out(&self, n: u64) {
        if self.enabled {
            self.bytes_out.add(n);
        }
    }

    /// Record the WAL groups a caller *led* through group commit:
    /// `records` appends across `groups` store-lock rounds with `fsyncs`
    /// syncs. Followers report all-zero stats, so summed over every
    /// caller the totals are exact — `wal_records_total` still counts
    /// each append exactly once.
    pub fn record_wal_group(&self, groups: u64, records: u64, bytes: u64, fsyncs: u64) {
        if self.enabled && groups > 0 {
            self.wal_groups.add(groups);
            self.wal_records.add(records);
            self.wal_bytes.add(bytes);
            self.wal_fsyncs.add(fsyncs);
        }
    }

    /// Record one checkpoint set written to disk.
    pub fn record_checkpoint(&self) {
        if self.enabled {
            self.checkpoints.add(1);
        }
    }

    /// Record the covering-set size of one range query (segments merged
    /// to answer it).
    pub fn record_range_covering(&self, segments: u64) {
        if self.enabled {
            self.range_covering.record(segments);
        }
    }

    /// Refresh the segment-cube health gauges (called at snapshot time,
    /// not on the ingest path).
    pub fn set_cube_health(&self, health: &CubeHealth) {
        if self.enabled {
            self.cube_sealed.set(health.sealed as i64);
            self.cube_open_age.set(health.open_age_micros as i64);
            self.cube_open_weight.set(health.open_weight as i64);
            self.cube_max_tier.set(health.max_tier as i64);
        }
    }

    /// Record one failed segment-store operation on segment `id`: a
    /// `segment_persist_failed` trace event plus its counter.
    pub fn record_segment_persist_failed(&self, id: u64) {
        if self.enabled {
            self.segment_persist_failures.inc();
        }
        self.event("segment_persist_failed", &[("id", id)]);
    }

    /// Record a rare cross-thread event (shard death, respawn, dump).
    pub fn event(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        self.engine_events.event(name, fields);
    }

    /// Snapshot every instrument.
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Dump the flight recorder as seed-stamped JSON, once per engine:
    /// the first fatal error wins and later calls return `None`. The dump
    /// lands in `$MS_FLIGHT_DIR` (default `target/flight`), named after
    /// `reason` and `seed` so the failing run is reproducible from the
    /// filename alone.
    pub fn dump_flight(&self, seed: u64, reason: &str) -> Option<PathBuf> {
        if !self.enabled || self.flight_dumped.swap(true, Ordering::AcqRel) {
            return None;
        }
        let dir = std::env::var("MS_FLIGHT_DIR").unwrap_or_else(|_| "target/flight".to_string());
        let name = format!("flight-{reason}-{seed:#x}.json");
        self.recorder.dump_to_file(&dir, &name, seed).ok()
    }
}

/// Measure a closure's wall-clock duration in microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_micros() as u64)
}
