//! Engine configuration: which summary family each shard maintains and how
//! the sharded pipeline is sized.

use std::path::PathBuf;
use std::sync::Arc;

use ms_core::{ServiceError, Wire, WireError, WireReader};
use ms_store::FsyncPolicy;

use crate::fault::{FaultPlan, NoFaults};
use crate::overload::OverloadConfig;

/// The summary family an engine maintains (one instance per shard plus the
/// compacted global).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryKind {
    /// Misra-Gries heavy hitters (§3.1).
    Mg,
    /// SpaceSaving heavy hitters (§3.2, isomorphic to MG).
    SpaceSaving,
    /// Hybrid quantiles, no advance knowledge of `n` (§4.3).
    HybridQuantile,
    /// Count-Min linear sketch.
    CountMin,
}

impl SummaryKind {
    /// Stable label used by the CLI and the bench tables.
    pub fn label(&self) -> &'static str {
        match self {
            SummaryKind::Mg => "mg",
            SummaryKind::SpaceSaving => "space-saving",
            SummaryKind::HybridQuantile => "hybrid-quantile",
            SummaryKind::CountMin => "count-min",
        }
    }

    /// Parse a label (as accepted by the CLI).
    pub fn parse(s: &str) -> Option<SummaryKind> {
        match s {
            "mg" => Some(SummaryKind::Mg),
            "space-saving" => Some(SummaryKind::SpaceSaving),
            "hybrid-quantile" => Some(SummaryKind::HybridQuantile),
            "count-min" => Some(SummaryKind::CountMin),
            _ => None,
        }
    }

    /// All four kinds, for tests and benches.
    pub fn all() -> [SummaryKind; 4] {
        [
            SummaryKind::Mg,
            SummaryKind::SpaceSaving,
            SummaryKind::HybridQuantile,
            SummaryKind::CountMin,
        ]
    }
}

impl Wire for SummaryKind {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            SummaryKind::Mg => 0,
            SummaryKind::SpaceSaving => 1,
            SummaryKind::HybridQuantile => 2,
            SummaryKind::CountMin => 3,
        });
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(SummaryKind::Mg),
            1 => Ok(SummaryKind::SpaceSaving),
            2 => Ok(SummaryKind::HybridQuantile),
            3 => Ok(SummaryKind::CountMin),
            _ => Err(WireError::Malformed("unknown summary kind")),
        }
    }
}

/// Crash-safe durability settings: where the WAL and checkpoints live and
/// how eagerly they reach stable storage. `None` keeps the engine purely
/// in-memory (the pre-durability behavior).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Data directory holding `wal/` and `ckpt/`.
    pub data_dir: PathBuf,
    /// When WAL appends fsync (`always` / `every:N` / `never`).
    pub fsync: FsyncPolicy,
    /// Write a checkpoint set after this many ingested batches.
    pub checkpoint_batches: u64,
    /// Rotate WAL segments past this size, so checkpoints can delete
    /// whole covered files.
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// Defaults for `data_dir`: `every:64` fsyncs, a checkpoint every 512
    /// batches, 4 MiB segments.
    pub fn new(data_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::EveryN(64),
            checkpoint_batches: 512,
            segment_bytes: 4 << 20,
        }
    }

    /// Set the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> DurabilityConfig {
        self.fsync = policy;
        self
    }

    /// Set the checkpoint cadence in ingested batches.
    pub fn checkpoint_batches(mut self, batches: u64) -> DurabilityConfig {
        self.checkpoint_batches = batches;
        self
    }

    /// Set the WAL segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> DurabilityConfig {
        self.segment_bytes = bytes;
        self
    }

    /// The [`ms_store::StoreConfig`] these settings describe.
    pub fn store_config(&self) -> ms_store::StoreConfig {
        ms_store::StoreConfig::new(&self.data_dir)
            .segment_bytes(self.segment_bytes)
            .fsync(self.fsync)
    }
}

/// The segment cube's time source. Injectable so tests drive wall-clock
/// sealing deterministically (a [`ManualClock`] advanced by the test)
/// instead of sleeping — new tests must never synchronize on `sleep`.
pub trait CubeClock: Send + Sync + std::fmt::Debug {
    /// Monotone-ish microseconds; the cube clamps regressions itself.
    fn now_micros(&self) -> u64;
}

/// Production clock: microseconds since the clock was created.
#[derive(Debug)]
pub struct SystemClock {
    base: std::time::Instant,
}

impl SystemClock {
    /// A clock starting at 0 now.
    #[allow(clippy::new_without_default)]
    pub fn new() -> SystemClock {
        SystemClock {
            base: std::time::Instant::now(),
        }
    }
}

impl CubeClock for SystemClock {
    fn now_micros(&self) -> u64 {
        self.base.elapsed().as_micros() as u64
    }
}

/// Test clock: reads an atomic the test sets or advances explicitly.
#[derive(Debug, Default)]
pub struct ManualClock(std::sync::atomic::AtomicU64);

impl ManualClock {
    /// A clock frozen at `micros`.
    pub fn new(micros: u64) -> ManualClock {
        ManualClock(std::sync::atomic::AtomicU64::new(micros))
    }

    /// Jump to an absolute time.
    pub fn set(&self, micros: u64) {
        self.0.store(micros, std::sync::atomic::Ordering::Release);
    }

    /// Advance by `micros` and return the new time.
    pub fn advance(&self, micros: u64) -> u64 {
        self.0
            .fetch_add(micros, std::sync::atomic::Ordering::AcqRel)
            + micros
    }
}

impl CubeClock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }
}

/// Segmented-ingest (segment cube) settings: when the open segment seals
/// and how much history stays queryable. `None` on [`ServiceConfig`]
/// keeps the engine cube-free (the pre-range-query behavior).
#[derive(Debug, Clone)]
pub struct SegmentConfig {
    /// Seal the open segment once it holds this many batches.
    pub seal_batches: u64,
    /// Also seal once the open segment spans this much wall-clock time
    /// (checked on the next ingest; an idle engine seals lazily).
    pub seal_micros: u64,
    /// Sealed segments kept queryable (and on disk); the oldest are
    /// evicted past this.
    pub max_sealed: usize,
    /// Pressure-driven coarsening: once more than this many sealed
    /// segments are resident, the cube merges adjacent pairs into a
    /// coarser tier until back under the watermark, each time the pair
    /// whose coarser member has the lowest tier (the oldest such pair on
    /// ties) — the binary-counter shape that keeps the deepest tier
    /// logarithmic in the seals (DESIGN.md §Overload model). Memory per segment is
    /// bounded by the O(1/ε) summary sizes, so a segment-count watermark
    /// is a resident-memory watermark. `0` disables coarsening (the cube
    /// falls back to evicting past `max_sealed`, losing old history
    /// instead of coarsening it).
    pub coarsen_watermark: usize,
    /// Time source for segment boundaries and range selection.
    pub clock: Arc<dyn CubeClock>,
}

impl SegmentConfig {
    /// Defaults: seal every 64 batches or 60 s, keep 1024 segments, on
    /// the system clock.
    #[allow(clippy::new_without_default)]
    pub fn new() -> SegmentConfig {
        SegmentConfig {
            seal_batches: 64,
            seal_micros: 60_000_000,
            max_sealed: 1024,
            coarsen_watermark: 0,
            clock: Arc::new(SystemClock::new()),
        }
    }

    /// Set the batch-count seal boundary.
    pub fn seal_batches(mut self, batches: u64) -> SegmentConfig {
        self.seal_batches = batches;
        self
    }

    /// Set the wall-clock seal boundary in microseconds.
    pub fn seal_micros(mut self, micros: u64) -> SegmentConfig {
        self.seal_micros = micros;
        self
    }

    /// Set the sealed-segment retention cap.
    pub fn max_sealed(mut self, segments: usize) -> SegmentConfig {
        self.max_sealed = segments;
        self
    }

    /// Set the coarsening watermark (`0` disables coarsening).
    pub fn coarsen_watermark(mut self, segments: usize) -> SegmentConfig {
        self.coarsen_watermark = segments;
        self
    }

    /// Install a time source (tests inject a [`ManualClock`]).
    pub fn clock(mut self, clock: Arc<dyn CubeClock>) -> SegmentConfig {
        self.clock = clock;
        self
    }
}

/// Sizing and summary parameters for an [`crate::Engine`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Ingest shards: delta summaries that ingesting threads absorb into
    /// round-robin, each under its own lock.
    pub shards: usize,
    /// Batches waiting for or inside one shard's absorb that count as
    /// full queue pressure for the overload plane's watermarks (see
    /// [`crate::Admission::pressure`]). Nothing blocks or drops at it.
    pub queue_depth: usize,
    /// Updates a shard absorbs into its delta before handing it to the
    /// compactor and starting on a spare.
    pub delta_updates: usize,
    /// Slots in the engine's recycling buffer pools: the item buffers
    /// ingests decode into (at most 8 of them) and the WAL's record
    /// buffers. A steady-state ingest loop draws every buffer back out of
    /// them and allocates nothing. `0` disables recycling (every batch
    /// allocates fresh).
    pub pool_buffers: usize,
    /// Which summary family to maintain.
    pub kind: SummaryKind,
    /// Error parameter ε shared by every shard (merging requires it).
    pub epsilon: f64,
    /// Base RNG / hash seed. Linear sketches must share it across shards;
    /// randomized quantile summaries fork it per shard.
    pub seed: u64,
    /// Fault-injection schedule consulted by shard absorbs and the
    /// compactor.
    /// [`NoFaults`] in production.
    pub fault_plan: Arc<dyn FaultPlan>,
    /// Record latency histograms, gauges and flight-recorder traces
    /// (see [`crate::EngineTelemetry`]). On by default; turn off to
    /// measure the instrumentation's own overhead (`serve
    /// --no-telemetry`).
    pub telemetry: bool,
    /// Accuracy self-audit: keep a seeded reservoir of raw items plus
    /// exact counts of a hash-chosen 1/16 of the item space, so
    /// [`crate::Request::AccuracyReport`] can compare the summary's
    /// answers against ground truth live. Off by default — the audit
    /// adds per-batch work on the ingest path (`serve --audit`).
    pub audit: bool,
    /// Crash-safe durability (WAL + checkpoints under a data directory).
    /// `None` (the default) keeps the engine purely in-memory.
    pub durability: Option<DurabilityConfig>,
    /// Segmented ingest (the segment cube) for time-windowed range
    /// queries. `None` (the default) answers only "everything so far".
    pub segments: Option<SegmentConfig>,
    /// Admission control and load shedding (in-flight caps + queue
    /// pressure watermarks). Fully permissive by default.
    pub overload: OverloadConfig,
}

impl ServiceConfig {
    /// A config with sensible defaults for `kind` at `epsilon`.
    pub fn new(kind: SummaryKind, epsilon: f64) -> Self {
        ServiceConfig {
            shards: 4,
            queue_depth: 64,
            delta_updates: 16_384,
            pool_buffers: 512,
            kind,
            epsilon,
            seed: 0x5E1F,
            fault_plan: Arc::new(NoFaults),
            telemetry: true,
            audit: false,
            durability: None,
            segments: None,
            overload: OverloadConfig::default(),
        }
    }

    /// Set the shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the per-shard pressure depth.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Set the per-shard delta hand-off threshold.
    pub fn delta_updates(mut self, updates: usize) -> Self {
        self.delta_updates = updates;
        self
    }

    /// Set the recycling buffer-pool size (`0` disables recycling).
    pub fn pool_buffers(mut self, buffers: usize) -> Self {
        self.pool_buffers = buffers;
        self
    }

    /// Set the base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Install a fault-injection schedule.
    pub fn fault_plan(mut self, plan: Arc<dyn FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Enable or disable telemetry recording.
    pub fn telemetry(mut self, enabled: bool) -> Self {
        self.telemetry = enabled;
        self
    }

    /// Enable or disable the accuracy self-audit plane.
    pub fn audit(mut self, enabled: bool) -> Self {
        self.audit = enabled;
        self
    }

    /// Enable crash-safe durability under `durability.data_dir`.
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Enable the segment cube (time-windowed range queries).
    pub fn segments(mut self, segments: SegmentConfig) -> Self {
        self.segments = Some(segments);
        self
    }

    /// Install admission-control / load-shedding settings.
    pub fn overload(mut self, overload: OverloadConfig) -> Self {
        self.overload = overload;
        self
    }

    /// Validate the sizing parameters.
    pub fn check(&self) -> std::result::Result<(), ServiceError> {
        if self.shards == 0 {
            return Err(ServiceError::Config("shards must be at least 1"));
        }
        if self.queue_depth == 0 {
            return Err(ServiceError::Config("queue_depth must be at least 1"));
        }
        if self.delta_updates == 0 {
            return Err(ServiceError::Config("delta_updates must be at least 1"));
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(ServiceError::Config("epsilon must be in (0, 1)"));
        }
        if let Some(d) = &self.durability {
            if d.checkpoint_batches == 0 {
                return Err(ServiceError::Config(
                    "checkpoint_batches must be at least 1",
                ));
            }
            if d.segment_bytes < 1024 {
                return Err(ServiceError::Config("segment_bytes must be at least 1024"));
            }
        }
        if let Some(s) = &self.segments {
            if s.seal_batches == 0 {
                return Err(ServiceError::Config("seal_batches must be at least 1"));
            }
            if s.seal_micros == 0 {
                return Err(ServiceError::Config("seal_micros must be at least 1"));
            }
            if s.max_sealed == 0 {
                return Err(ServiceError::Config("max_sealed must be at least 1"));
            }
        }
        if self.overload.shed_watermark < 0.0 || self.overload.shed_watermark > 1.0 {
            return Err(ServiceError::Config("shed_watermark must be in [0, 1]"));
        }
        if self.overload.ingest_watermark < 0.0 || self.overload.ingest_watermark > 1.0 {
            return Err(ServiceError::Config("ingest_watermark must be in [0, 1]"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_roundtrip() {
        for kind in SummaryKind::all() {
            assert_eq!(SummaryKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(SummaryKind::parse("bogus"), None);
    }

    #[test]
    fn kind_wire_roundtrip() {
        for kind in SummaryKind::all() {
            assert_eq!(SummaryKind::decode(&kind.encode()).unwrap(), kind);
        }
        assert!(SummaryKind::decode(&[9]).is_err());
    }

    #[test]
    fn config_checks_sizing() {
        let good = ServiceConfig::new(SummaryKind::Mg, 0.01);
        assert!(good.check().is_ok());
        assert!(matches!(
            good.clone().shards(0).check(),
            Err(ServiceError::Config(_))
        ));
        assert!(good.clone().queue_depth(0).check().is_err());
        assert!(good.clone().delta_updates(0).check().is_err());
        let mut bad_eps = good.clone();
        bad_eps.epsilon = 1.5;
        assert!(bad_eps.check().is_err());
    }

    #[test]
    fn config_checks_segment_sizing() {
        let good = ServiceConfig::new(SummaryKind::Mg, 0.01).segments(SegmentConfig::new());
        assert!(good.check().is_ok());
        let zero_batches = ServiceConfig::new(SummaryKind::Mg, 0.01)
            .segments(SegmentConfig::new().seal_batches(0));
        assert!(zero_batches.check().is_err());
        let zero_micros =
            ServiceConfig::new(SummaryKind::Mg, 0.01).segments(SegmentConfig::new().seal_micros(0));
        assert!(zero_micros.check().is_err());
        let zero_sealed =
            ServiceConfig::new(SummaryKind::Mg, 0.01).segments(SegmentConfig::new().max_sealed(0));
        assert!(zero_sealed.check().is_err());
    }

    #[test]
    fn manual_clock_sets_and_advances() {
        let clock = ManualClock::new(10);
        assert_eq!(clock.now_micros(), 10);
        assert_eq!(clock.advance(5), 15);
        assert_eq!(clock.now_micros(), 15);
        clock.set(3);
        assert_eq!(clock.now_micros(), 3);
    }

    #[test]
    fn fault_plan_defaults_to_no_faults() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.01);
        assert_eq!(
            cfg.fault_plan.absorb_batch(0, 0),
            crate::fault::FaultAction::Continue
        );
    }
}
