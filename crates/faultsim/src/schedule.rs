//! Seeded fault schedules over a live engine (and, for the wire classes, a
//! live TCP server), each ending in the same verdict: **did the surviving
//! state still honor the paper's `ε·n` guarantee, and does its codec
//! round-trip losslessly?**
//!
//! ## The loss-slack bound
//!
//! A schedule tracks `accepted`: the total weight of batches the engine
//! (or server) *acknowledged*. Faults may destroy some of that weight —
//! a failed absorb takes its shard's un-handed-off delta with it —
//! leaving `surviving = snapshot.total_weight() ≤ accepted`. The
//! surviving multiset `S` is a sub-multiset of the accepted stream `O`
//! with `|O| − |S| = lost`, so for every item/rank query
//!
//! ```text
//! |estimate − exact_O| ≤ |estimate − exact_S| + |exact_S − exact_O|
//!                      ≤ ε·|S|               + lost
//! ```
//!
//! The first term is the mergeability theorem applied to the surviving
//! data (shard deltas merge in an arbitrary tree; a lost delta only
//! prunes a branch, which Definition 1 explicitly allows); the second is
//! the worst case of the missing weight all hitting one query. Requests
//! that were sent but never acknowledged (a client that vanished before
//! reading its response) may or may not have been applied, so their
//! weight `unacked` widens the slack the same way. Fault classes that
//! lose nothing (sheds are *rejected*, not accepted; corrupt frames are
//! never acked) run with `slack = 0` — the strict paper bound.
//!
//! ## The durability classes
//!
//! `crash-point`, `torn-write` and `bit-flip` extend the verdict across a
//! process boundary. Each runs a durable engine (WAL + checkpoints under
//! a scratch data directory), kills it with [`Engine::abort`] — no final
//! checkpoint, no flush, no fsync — then damages the on-disk files the
//! way a real crash damages them: a checkpoint part half-written or
//! missing, a WAL segment cut mid-record, a single bit flipped. A fresh
//! engine recovers from the wreckage and must land on an *exactly
//! accounted* state: the surviving weight equals the checkpoint's
//! preloaded weight plus the replayed tail's weight, recovery reports
//! every piece of damage it skipped, and the recovered summary honors the
//! same `ε·n (+ slack)` bound against an oracle over the batches that
//! provably survived.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ms_core::{
    BoundCheck, FrequencyOracle, RankOracle, Rng64, ServiceError, Summary, Wire, WireFrame,
};
use ms_service::{
    Client, ClientOptions, CubeClock, DurabilityConfig, Engine, EngineTelemetry, FsyncPolicy,
    ManualClock, OverloadConfig, Request, SegmentConfig, Server, ServiceConfig, ShardSummary,
    SummaryKind, REQUEST_TAG,
};
use ms_workloads::StreamKind;

use crate::plan::SeededPlan;
use crate::transport::{partial_prefix, Corruption};

/// Summary error parameter every schedule runs at.
pub const EPS: f64 = 0.02;

/// The fifteen injected failure modes: eleven in-process/wire classes and
/// four whole-node cluster classes (see [`crate::cluster`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Shard absorbs fail mid-stream, each losing its shard's delta.
    ShardDeath,
    /// Shard absorbs fail while the recycling buffer pool is starved, so
    /// every batch takes the allocation fallback path.
    PoolStarve,
    /// Truncated and bit-flipped frames arrive over TCP.
    CorruptFrames,
    /// Clients push partial frames and vanish mid-write.
    PartialWrites,
    /// The compactor lags behind the shards' hand-offs.
    CompactorDelay,
    /// Clients disconnect mid-epoch without flushing.
    ClientDisconnect,
    /// The process dies at a seeded point, possibly mid-checkpoint;
    /// recovery must lose nothing the WAL holds.
    CrashPoint,
    /// The last WAL segment is cut mid-record; recovery must keep the
    /// exact surviving prefix.
    TornWrite,
    /// A single bit flips in a WAL segment or checkpoint part; recovery
    /// must detect it and account for every surviving batch.
    BitFlip,
    /// A whole backend node is killed mid-ingest; the ring rebalances its
    /// range to the survivors and the lost weight widens the slack.
    NodeKill,
    /// A node is killed between ingest and query, so the coordinator
    /// discovers the death during the gather itself.
    GatherKill,
    /// A durable node is killed mid-stream, traffic rebalances, then the
    /// node restarts from its WAL and rejoins — no acked weight may be
    /// lost (strict zero-slack bound).
    RejoinRebalance,
    /// One member of a replica pair dies and rejoins empty; its partner
    /// carries the slot and read-one gathers must not double-count.
    ReplicaDivergence,
    /// The process dies right after the cube seals a segment — possibly
    /// before the segment file is durably on disk — and restart must
    /// rebuild full range coverage from the WAL; windows straddling the
    /// crash point must stay within ε·(covered weight).
    SegmentCrash,
    /// A seeded ingest flood storms a deliberately small server (slow
    /// absorbs, a shallow pressure depth, tight watermarks). The server must shed
    /// with typed `Overloaded` answers, never wedge, and never lose a
    /// byte of acked weight — the strict zero-slack bound applies to
    /// the admitted stream.
    OverloadStorm,
}

impl FaultClass {
    /// All classes, in a stable order.
    pub fn all() -> [FaultClass; 15] {
        [
            FaultClass::ShardDeath,
            FaultClass::PoolStarve,
            FaultClass::CorruptFrames,
            FaultClass::PartialWrites,
            FaultClass::CompactorDelay,
            FaultClass::ClientDisconnect,
            FaultClass::CrashPoint,
            FaultClass::TornWrite,
            FaultClass::BitFlip,
            FaultClass::NodeKill,
            FaultClass::GatherKill,
            FaultClass::RejoinRebalance,
            FaultClass::ReplicaDivergence,
            FaultClass::SegmentCrash,
            FaultClass::OverloadStorm,
        ]
    }

    /// Stable CLI label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::ShardDeath => "shard-death",
            FaultClass::PoolStarve => "pool-starve",
            FaultClass::CorruptFrames => "corrupt-frames",
            FaultClass::PartialWrites => "partial-writes",
            FaultClass::CompactorDelay => "compactor-delay",
            FaultClass::ClientDisconnect => "client-disconnect",
            FaultClass::CrashPoint => "crash-point",
            FaultClass::TornWrite => "torn-write",
            FaultClass::BitFlip => "bit-flip",
            FaultClass::NodeKill => "node-kill",
            FaultClass::GatherKill => "gather-kill",
            FaultClass::RejoinRebalance => "rejoin-rebalance",
            FaultClass::ReplicaDivergence => "replica-divergence",
            FaultClass::SegmentCrash => "segment-crash",
            FaultClass::OverloadStorm => "overload-storm",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<FaultClass> {
        FaultClass::all().into_iter().find(|c| c.label() == s)
    }
}

/// Outcome of one schedule. Printing it shows the seed that reproduces
/// the run: `run_schedule(class, kind, seed)` replays the same injection
/// decisions.
#[derive(Debug, Clone)]
pub struct ScheduleReport {
    /// Which failure mode was injected.
    pub class: FaultClass,
    /// Which summary family the engine ran.
    pub kind: SummaryKind,
    /// The seed that reproduces this schedule.
    pub seed: u64,
    /// Total weight of acknowledged batches.
    pub accepted_weight: u64,
    /// Weight sent but never acknowledged (may or may not be applied).
    pub unacked_weight: u64,
    /// Weight visible in the final snapshot.
    pub surviving_weight: u64,
    /// Slack added to the `ε·n` bound: lost + unacked weight.
    pub slack: u64,
    /// Final engine metrics.
    pub metrics: ms_service::MetricsReport,
    /// Point-estimate errors vs. the exact oracle (frequency families).
    pub point_check: Option<BoundCheck>,
    /// Rank/quantile errors vs. the exact oracle (quantile family).
    pub rank_check: Option<BoundCheck>,
    /// Encoded size of the surviving summary (whose round-trip was
    /// verified byte-for-byte).
    pub codec_bytes: usize,
}

impl fmt::Display for ScheduleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<17} {:<15} seed=0x{:X} accepted={} surviving={} slack={} \
             lost_shards={} rejected_frames={}",
            self.class.label(),
            self.kind.label(),
            self.seed,
            self.accepted_weight,
            self.surviving_weight,
            self.slack,
            self.metrics.shards_lost,
            self.metrics.frames_rejected,
        )?;
        if let Some(c) = &self.point_check {
            write!(f, " point_err={:.1}/{:.1}", c.stats.max, c.bound)?;
        }
        if let Some(c) = &self.rank_check {
            write!(f, " rank_err={:.1}/{:.1}", c.stats.max, c.bound)?;
        }
        write!(f, " codec={}B", self.codec_bytes)
    }
}

/// Everything a schedule accumulates while driving faults.
pub(crate) struct Harness {
    pub(crate) class: FaultClass,
    pub(crate) kind: SummaryKind,
    pub(crate) seed: u64,
    pub(crate) accepted: Vec<u64>,
    pub(crate) unacked_weight: u64,
    /// The engine's telemetry plane, attached after `Engine::start` so a
    /// failing verdict can dump the flight recorder for forensics.
    telemetry: Option<Arc<EngineTelemetry>>,
}

impl Harness {
    pub(crate) fn new(class: FaultClass, kind: SummaryKind, seed: u64) -> Self {
        Harness {
            class,
            kind,
            seed,
            accepted: Vec::new(),
            unacked_weight: 0,
            telemetry: None,
        }
    }

    /// Hold onto the engine's telemetry so [`Harness::fail`] can dump the
    /// flight recorder when a schedule's verdict fails.
    fn attach(&mut self, engine: &Arc<Engine>) {
        self.attach_telemetry(engine.telemetry());
    }

    /// Hold onto any telemetry plane (a coordinator's, for the
    /// whole-node classes) for failure-time flight dumps.
    pub(crate) fn attach_telemetry(&mut self, telemetry: &Arc<EngineTelemetry>) {
        self.telemetry = Some(Arc::clone(telemetry));
    }

    /// Build a failure message carrying the reproducing seed. If the
    /// engine's flight recorder is attached, dump it seed-stamped (first
    /// failure only) and cite the file in the message.
    pub(crate) fn fail(&self, msg: impl fmt::Display) -> String {
        let mut text = format!(
            "[{} {} seed=0x{:X}] {msg}",
            self.class.label(),
            self.kind.label(),
            self.seed
        );
        if let Some(telemetry) = &self.telemetry {
            if let Some(path) = telemetry.dump_flight(self.seed, self.class.label()) {
                text.push_str(&format!(" (flight recording: {})", path.display()));
            }
        }
        text
    }

    /// Final verdict: codec round-trip plus the loss-slack error bound on
    /// every query family the summary supports.
    pub(crate) fn finish(
        self,
        summary: &ShardSummary,
        metrics: ms_service::MetricsReport,
    ) -> Result<ScheduleReport, String> {
        let accepted_weight = self.accepted.len() as u64;
        let surviving_weight = summary.total_weight();
        if surviving_weight > accepted_weight + self.unacked_weight {
            return Err(self.fail(format!(
                "snapshot holds {surviving_weight} but only {accepted_weight} acked + \
                 {} unacked were ever sent",
                self.unacked_weight
            )));
        }
        let lost = accepted_weight.saturating_sub(surviving_weight);
        let slack = lost + self.unacked_weight;
        let bound = EPS * surviving_weight as f64 + slack as f64 + 1.0;

        // Lossless codec round-trip on the surviving state: the decoded
        // summary must re-encode to the same bytes and answer every query
        // identically.
        let bytes = summary.encode();
        let decoded = ShardSummary::decode(&bytes)
            .map_err(|e| self.fail(format!("surviving summary failed to decode: {e}")))?;
        if decoded.total_weight() != surviving_weight {
            return Err(self.fail("decoded summary lost weight"));
        }
        if decoded.encode() != bytes {
            return Err(self.fail("decoded summary re-encodes to other bytes"));
        }

        let mut point_check = None;
        let mut rank_check = None;
        match self.kind {
            SummaryKind::Mg | SummaryKind::SpaceSaving | SummaryKind::CountMin => {
                let oracle = FrequencyOracle::from_stream(self.accepted.iter().copied());
                for (item, _) in oracle.iter() {
                    if decoded.point(*item) != summary.point(*item) {
                        return Err(self.fail(format!(
                            "codec round-trip changed the estimate for item {item}"
                        )));
                    }
                }
                let errors: Vec<u64> = oracle
                    .iter()
                    .map(|(item, truth)| summary.point(*item).unwrap_or(0).abs_diff(truth))
                    .collect();
                let check = BoundCheck::from_u64(&errors, bound);
                if !check.ok() {
                    return Err(self.fail(format!(
                        "point error {:.1} exceeds ε·n+slack bound {:.1}",
                        check.stats.max, check.bound
                    )));
                }
                // Heavy-hitter answers must agree with the point estimates
                // they are drawn from.
                if let Some(hh) = summary.heavy_hitters(0.05) {
                    for (item, est) in hh {
                        let exact = oracle.count(&item);
                        if est.abs_diff(exact) as f64 > bound {
                            return Err(self.fail(format!(
                                "heavy hitter {item}: estimate {est} vs exact {exact} \
                                 outside bound {bound:.1}"
                            )));
                        }
                    }
                }
                point_check = Some(check);
            }
            SummaryKind::HybridQuantile => {
                let oracle = RankOracle::from_stream(self.accepted.iter().copied());
                let mut errors: Vec<u64> = Vec::new();
                // Rank queries at evenly spaced probe values.
                for i in 0..=32u64 {
                    let x = i * UNIVERSE / 32;
                    if decoded.rank(x) != summary.rank(x) {
                        return Err(
                            self.fail(format!("codec round-trip changed the rank estimate at {x}"))
                        );
                    }
                    if let Some(est) = summary.rank(x) {
                        errors.push(oracle.rank_error(&x, est));
                    }
                }
                // Quantile queries: the returned value's exact rank must be
                // within the bound of its target.
                for i in 1..20u64 {
                    let phi = i as f64 / 20.0;
                    if let Some(Some(v)) = summary.quantile(phi) {
                        let target = (phi * surviving_weight as f64).round() as u64;
                        errors.push(oracle.rank_error(&v, target));
                    }
                }
                let check = BoundCheck::from_u64(&errors, bound);
                if !check.ok() {
                    return Err(self.fail(format!(
                        "rank error {:.1} exceeds ε·n+slack bound {:.1}",
                        check.stats.max, check.bound
                    )));
                }
                rank_check = Some(check);
            }
        }

        Ok(ScheduleReport {
            class: self.class,
            kind: self.kind,
            seed: self.seed,
            accepted_weight,
            unacked_weight: self.unacked_weight,
            surviving_weight,
            slack,
            metrics,
            point_check,
            rank_check,
            codec_bytes: bytes.len(),
        })
    }
}

pub(crate) const UNIVERSE: u64 = 1 << 14;

pub(crate) fn stream(n: usize, seed: u64) -> Vec<u64> {
    StreamKind::Zipf {
        s: 1.2,
        universe: UNIVERSE,
    }
    .generate(n, seed)
}

pub(crate) fn base_config(kind: SummaryKind, seed: u64) -> ServiceConfig {
    ServiceConfig::new(kind, EPS).seed(seed ^ 0xD15EA5E)
}

fn fast_client(addr: std::net::SocketAddr) -> Result<Client, ServiceError> {
    Client::connect_with(
        addr,
        ClientOptions {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(5),
            retries: 2,
            backoff: Duration::from_millis(10),
            ..ClientOptions::default()
        },
    )
}

/// Run one seeded schedule to completion and verdict. Every injection
/// decision derives from `seed`, so a failure message's seed replays it.
pub fn run_schedule(
    class: FaultClass,
    kind: SummaryKind,
    seed: u64,
) -> Result<ScheduleReport, String> {
    match class {
        FaultClass::ShardDeath => shard_death(kind, seed),
        FaultClass::PoolStarve => pool_starve(kind, seed),
        FaultClass::CorruptFrames => corrupt_frames(kind, seed),
        FaultClass::PartialWrites => partial_writes(kind, seed),
        FaultClass::CompactorDelay => compactor_delay(kind, seed),
        FaultClass::ClientDisconnect => client_disconnect(kind, seed),
        FaultClass::CrashPoint => crash_point(kind, seed),
        FaultClass::TornWrite => torn_write(kind, seed),
        FaultClass::BitFlip => bit_flip(kind, seed),
        FaultClass::NodeKill => crate::cluster::node_kill(kind, seed),
        FaultClass::GatherKill => crate::cluster::gather_kill(kind, seed),
        FaultClass::RejoinRebalance => crate::cluster::rejoin_rebalance(kind, seed),
        FaultClass::ReplicaDivergence => crate::cluster::replica_divergence(kind, seed),
        FaultClass::SegmentCrash => segment_crash(kind, seed),
        FaultClass::OverloadStorm => overload_storm(kind, seed),
    }
}

/// Class 1: shard absorbs fail. Every batch is still acknowledged; the
/// loss is whatever each failed shard's delta held plus the batch in hand,
/// and the bound absorbs it as slack.
fn shard_death(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::ShardDeath, kind, seed);
    let plan = Arc::new(SeededPlan::new(seed).death_every(40));
    let cfg = base_config(kind, seed)
        .shards(4)
        .delta_updates(256)
        .fault_plan(Arc::clone(&plan) as Arc<dyn ms_service::FaultPlan>);
    let engine = Engine::start(cfg).map_err(|e| h.fail(e))?;
    h.attach(&engine);
    for batch in stream(40_000, seed).chunks(100) {
        engine.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
    }
    let snap = engine.shutdown();
    let metrics = engine.metrics();
    if metrics.shards_lost == 0 || plan.deaths.load(Ordering::Relaxed) == 0 {
        return Err(h.fail("no shard death was ever triggered"));
    }
    h.finish(&snap.summary, metrics)
}

/// Class 1b: shard losses while the pool is starved. A zero-slot buffer
/// pool forces every ingest onto the allocation-fallback path (each get a
/// counted miss, never an error) at the same time as seeded failed absorbs
/// lose deltas — the two degraded paths compose without violating the
/// loss-slack bound.
fn pool_starve(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::PoolStarve, kind, seed);
    let plan = Arc::new(SeededPlan::new(seed).death_every(40));
    let cfg = base_config(kind, seed)
        .shards(4)
        .delta_updates(256)
        .pool_buffers(0)
        .fault_plan(Arc::clone(&plan) as Arc<dyn ms_service::FaultPlan>);
    let engine = Engine::start(cfg).map_err(|e| h.fail(e))?;
    h.attach(&engine);
    for batch in stream(40_000, seed).chunks(100) {
        let mut buf = engine.ingest_buffer();
        buf.extend_from_slice(batch);
        engine.ingest(buf).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
    }
    let snap = engine.shutdown();
    let metrics = engine.metrics();
    let (reuses, misses, _) = engine.pool_stats();
    if misses == 0 {
        return Err(h.fail("pool was never starved"));
    }
    if reuses != 0 {
        return Err(h.fail("a zero-slot pool cannot serve reuses"));
    }
    if metrics.shards_lost == 0 || plan.deaths.load(Ordering::Relaxed) == 0 {
        return Err(h.fail("no shard death was ever triggered"));
    }
    h.finish(&snap.summary, metrics)
}

/// Class 3: corrupted frames over TCP — truncations, header bit flips,
/// foreign magic, future versions, absurd lengths. Each must be counted
/// and rejected without disturbing the clean traffic sharing the server.
fn corrupt_frames(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::CorruptFrames, kind, seed);
    let mut rng = Rng64::new(seed);
    let engine = Engine::start(base_config(kind, seed).shards(2)).map_err(|e| h.fail(e))?;
    h.attach(&engine);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| h.fail(e))?;
    let addr = server.local_addr();
    let mut clean = fast_client(addr).map_err(|e| h.fail(e))?;

    let mut corrupted = 0u64;
    for (i, batch) in stream(16_000, seed).chunks(100).enumerate() {
        clean.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
        if i % 8 == 0 {
            // A separate, doomed connection delivers the damaged frame so
            // the clean client's stream stays parseable.
            let frame =
                WireFrame::from_value(REQUEST_TAG, &Request::Ingest(batch.to_vec())).to_bytes();
            let bad = Corruption::All.apply(&frame, &mut rng);
            let mut victim = fast_client(addr).map_err(|e| h.fail(e))?;
            victim.send_raw(&bad).map_err(|e| h.fail(e))?;
            // Abandon without waiting: a corruption the server detects
            // immediately is answered and counted; one that leaves it
            // blocked mid-read resolves to a counted rejection when the
            // severed connection is observed.
            victim.abandon();
            corrupted += 1;
        }
    }
    clean.flush().map_err(|e| h.fail(e))?;
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while engine.metrics().frames_rejected < corrupted && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    server.stop();
    let snap = engine.snapshot();
    let metrics = engine.metrics();
    if metrics.frames_rejected < corrupted {
        return Err(h.fail(format!(
            "sent {corrupted} corrupt frames but only {} were counted as rejected",
            metrics.frames_rejected
        )));
    }
    h.finish(&snap.summary, metrics)
}

/// Class 4: partial TCP writes — valid frames cut mid-stream by a peer
/// that dies. The server must treat the stub as a rejected frame and the
/// accepted stream must stay exact.
fn partial_writes(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::PartialWrites, kind, seed);
    let mut rng = Rng64::new(seed);
    let engine = Engine::start(base_config(kind, seed).shards(2)).map_err(|e| h.fail(e))?;
    h.attach(&engine);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| h.fail(e))?;
    let addr = server.local_addr();
    let mut clean = fast_client(addr).map_err(|e| h.fail(e))?;

    let mut partials = 0u64;
    for (i, batch) in stream(16_000, seed).chunks(100).enumerate() {
        clean.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
        if i % 10 == 0 {
            let frame =
                WireFrame::from_value(REQUEST_TAG, &Request::Ingest(batch.to_vec())).to_bytes();
            let prefix = partial_prefix(&frame, &mut rng);
            let mut victim = fast_client(addr).map_err(|e| h.fail(e))?;
            victim.send_raw(&prefix).map_err(|e| h.fail(e))?;
            // Die mid-write: the severed connection is the fault.
            victim.abandon();
            partials += 1;
        }
    }
    clean.flush().map_err(|e| h.fail(e))?;
    // Give the connection threads a moment to observe the severed peers.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while engine.metrics().frames_rejected < partials && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    server.stop();
    let snap = engine.snapshot();
    let metrics = engine.metrics();
    if metrics.frames_rejected < partials {
        return Err(h.fail(format!(
            "sent {partials} partial frames but only {} were counted as rejected",
            metrics.frames_rejected
        )));
    }
    h.finish(&snap.summary, metrics)
}

/// Class 5: the compactor lags. Delayed merges must delay visibility, not
/// correctness — after the final flush everything accepted is visible and
/// within the strict bound.
fn compactor_delay(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::CompactorDelay, kind, seed);
    let plan = Arc::new(SeededPlan::new(seed).compactor_stall_every(3, 2));
    let cfg = base_config(kind, seed)
        .shards(4)
        .delta_updates(256)
        .fault_plan(Arc::clone(&plan) as Arc<dyn ms_service::FaultPlan>);
    let engine = Engine::start(cfg).map_err(|e| h.fail(e))?;
    h.attach(&engine);
    for batch in stream(20_000, seed).chunks(100) {
        engine.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
    }
    engine.flush().map_err(|e| h.fail(e))?;
    let snap = engine.shutdown();
    let metrics = engine.metrics();
    if plan.compactor_stalls.load(Ordering::Relaxed) == 0 {
        return Err(h.fail("compactor was never stalled"));
    }
    if snap.summary.total_weight() != h.accepted.len() as u64 {
        return Err(h.fail("a lagging compactor lost data"));
    }
    h.finish(&snap.summary, metrics)
}

/// Class 6: clients vanish mid-epoch. Acked ingests from a vanished
/// client must survive; one request abandoned before its ack may or may
/// not have landed (its weight widens the slack); a mid-frame abandon is
/// a rejected frame.
fn client_disconnect(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::ClientDisconnect, kind, seed);
    let mut rng = Rng64::new(seed);
    let engine = Engine::start(base_config(kind, seed).shards(2)).map_err(|e| h.fail(e))?;
    h.attach(&engine);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| h.fail(e))?;
    let addr = server.local_addr();

    let items = stream(18_000, seed);
    let (first, rest) = items.split_at(6_000);
    let (second, third) = rest.split_at(6_000);

    // Client A: ingests its slice, acked, then vanishes without flushing.
    let mut a = fast_client(addr).map_err(|e| h.fail(e))?;
    for batch in first.chunks(100) {
        a.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
    }
    a.abandon();

    // Client B: acked ingests, then one full request abandoned before
    // reading the ack (it may have been applied), then a frame severed
    // mid-write (never applied, counted as rejected).
    let mut b = fast_client(addr).map_err(|e| h.fail(e))?;
    let mut batches = second.chunks(100);
    let orphan = batches.next().expect("slice is non-empty");
    for batch in batches {
        b.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
    }
    let orphan_frame =
        WireFrame::from_value(REQUEST_TAG, &Request::Ingest(orphan.to_vec())).to_bytes();
    b.send_raw(&orphan_frame).map_err(|e| h.fail(e))?;
    h.unacked_weight += orphan.len() as u64;
    b.abandon();

    let mut c = fast_client(addr).map_err(|e| h.fail(e))?;
    let cut_frame =
        WireFrame::from_value(REQUEST_TAG, &Request::Ingest(orphan.to_vec())).to_bytes();
    c.send_raw(&partial_prefix(&cut_frame, &mut rng))
        .map_err(|e| h.fail(e))?;
    c.abandon();

    // Client D survives all three disconnects and finishes the stream.
    let mut d = fast_client(addr).map_err(|e| h.fail(e))?;
    for batch in third.chunks(100) {
        d.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
    }
    d.flush().map_err(|e| h.fail(e))?;

    // Wait until the severed mid-frame write is observed and any orphan
    // ingest has settled.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while engine.metrics().frames_rejected < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    d.flush().map_err(|e| h.fail(e))?;
    server.stop();
    let snap = engine.snapshot();
    let metrics = engine.metrics();
    if metrics.frames_rejected < 1 {
        return Err(h.fail("mid-frame disconnect was never observed"));
    }
    if snap.summary.total_weight() < h.accepted.len() as u64 {
        return Err(h.fail(format!(
            "acked weight {} outlived its clients but snapshot holds only {}",
            h.accepted.len(),
            snap.summary.total_weight()
        )));
    }
    h.finish(&snap.summary, metrics)
}

/// Fresh scratch data directory for one durable schedule, named by the
/// run's coordinates so concurrent suites never collide.
pub(crate) fn scratch_dir(class: FaultClass, kind: SummaryKind, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ms-faultsim-{}-{}-{seed:x}-{}",
        class.label(),
        kind.label(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable engine config for the crash classes: small segments so a
/// short stream spans several files, manual checkpoints only (the
/// schedules place them at seeded indices).
pub(crate) fn durable_config(
    kind: SummaryKind,
    seed: u64,
    dir: &Path,
    fsync: FsyncPolicy,
) -> ServiceConfig {
    base_config(kind, seed)
        .shards(2)
        .delta_updates(64)
        .durability(
            DurabilityConfig::new(dir)
                .fsync(fsync)
                .checkpoint_batches(u64::MAX)
                .segment_bytes(8192),
        )
}

/// WAL segment files under the data directory, in append order.
fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "seg"))
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

/// Part files of the newest checkpoint set on disk. Sequence numbers are
/// fixed-width hex, so the lexicographically greatest name belongs to the
/// newest set and its parts share the `ckpt-<seq>` prefix (21 chars).
fn newest_checkpoint_parts(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.join("ckpt"))
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    let Some(prefix) = files
        .last()
        .and_then(|p| p.file_name())
        .and_then(|n| n.to_str())
        .and_then(|n| n.get(..21))
        .map(str::to_owned)
    else {
        return Vec::new();
    };
    files.retain(|p| {
        p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(&prefix))
    });
    files
}

fn truncate_file(path: &Path, len: u64) -> std::io::Result<()> {
    std::fs::OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(len)
}

/// Flip one seeded bit somewhere in `path`.
fn flip_bit(path: &Path, rng: &mut Rng64) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let idx = rng.below_usize(bytes.len());
    bytes[idx] ^= 1 << rng.below(8);
    std::fs::write(path, bytes)
}

/// Class 7: the process dies at a seeded batch index with no shutdown
/// path, possibly leaving the newest checkpoint set half-written (a part
/// truncated mid-write or missing entirely). Because the WAL is synced
/// before a checkpoint set ever claims its cut, a damaged set must fall
/// back to the previous one plus a longer WAL replay — recovering *all*
/// `k` acknowledged batches, under the strict zero-slack bound.
fn crash_point(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::CrashPoint, kind, seed);
    let mut rng = Rng64::new(seed ^ 0xC4A5_4B01);
    let dir = scratch_dir(FaultClass::CrashPoint, kind, seed);

    // Two seeded checkpoints and a seeded crash index: c1 < c2 < k ≤ 200.
    let c1 = 20 + rng.below(40) as usize;
    let c2 = c1 + 20 + rng.below(40) as usize;
    let k = c2 + 10 + rng.below((200 - c2 - 10 + 1) as u64) as usize;

    let engine = Engine::start(durable_config(kind, seed, &dir, FsyncPolicy::EveryN(4)))
        .map_err(|e| h.fail(e))?;
    h.attach(&engine);
    for (i, batch) in stream(k * 100, seed).chunks(100).enumerate() {
        engine.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
        if i + 1 == c1 || i + 1 == c2 {
            engine.checkpoint_now().map_err(|e| h.fail(e))?;
        }
    }
    engine.abort();

    // Seeded crash damage: the files a dying process can leave behind.
    let damaged = match rng.below(3) {
        0 => false, // clean crash: every buffered page made it to disk
        mode => {
            let parts = newest_checkpoint_parts(&dir);
            if parts.is_empty() {
                return Err(h.fail("no checkpoint part files on disk"));
            }
            let victim = &parts[rng.below_usize(parts.len())];
            if mode == 1 {
                std::fs::remove_file(victim).map_err(|e| h.fail(e))?;
            } else {
                let len = std::fs::metadata(victim).map_err(|e| h.fail(e))?.len();
                truncate_file(victim, len / 2).map_err(|e| h.fail(e))?;
            }
            true
        }
    };

    let engine = Engine::start(durable_config(kind, seed, &dir, FsyncPolicy::EveryN(4)))
        .map_err(|e| h.fail(e))?;
    h.attach(&engine);
    let report = engine
        .recovery()
        .ok_or_else(|| h.fail("restarted engine has no recovery report"))?;
    let expect_ckpt = if damaged { c1 } else { c2 } as u64;
    if report.checkpoint_seq != expect_ckpt {
        return Err(h.fail(format!(
            "recovered from checkpoint {} but expected {expect_ckpt} (damaged={damaged})",
            report.checkpoint_seq
        )));
    }
    if damaged && report.corrupt_checkpoints == 0 {
        return Err(h.fail("damaged checkpoint set was not detected"));
    }
    if report.replayed_records != k as u64 - expect_ckpt {
        return Err(h.fail(format!(
            "replayed {} WAL records but expected {}",
            report.replayed_records,
            k as u64 - expect_ckpt
        )));
    }
    let snap = engine.shutdown();
    let metrics = engine.metrics();
    let surviving = snap.summary.total_weight();
    if surviving != (k * 100) as u64 {
        return Err(h.fail(format!(
            "crash lost acknowledged data: {surviving} of {} items survived",
            k * 100
        )));
    }
    if report.preloaded_weight + report.replayed_weight != surviving {
        return Err(h.fail(format!(
            "recovery accounting mismatch: preloaded {} + replayed {} != surviving {surviving}",
            report.preloaded_weight, report.replayed_weight
        )));
    }
    let _ = std::fs::remove_dir_all(&dir);
    h.finish(&snap.summary, metrics)
}

/// Class 8: the last WAL segment is cut mid-write (no checkpoint exists,
/// `fsync never` — the worst case). Recovery must keep exactly the
/// records wholly before the cut: an *exact prefix* of the acknowledged
/// stream, verified under the strict zero-slack bound. A cut inside the
/// final record's trailer additionally must be *reported* as a torn tail
/// and lose exactly that one record.
fn torn_write(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::TornWrite, kind, seed);
    let mut rng = Rng64::new(seed ^ 0x7042_11E5);
    let dir = scratch_dir(FaultClass::TornWrite, kind, seed);

    let engine = Engine::start(durable_config(kind, seed, &dir, FsyncPolicy::Never))
        .map_err(|e| h.fail(e))?;
    h.attach(&engine);
    for batch in stream(20_000, seed).chunks(100) {
        engine.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
    }
    engine.abort();

    let segments = wal_segments(&dir);
    let last = segments
        .last()
        .ok_or_else(|| h.fail("no WAL segments on disk"))?;
    let len = std::fs::metadata(last).map_err(|e| h.fail(e))?.len();
    // Two torn-write shapes. A cut inside the last record's 8-byte
    // trailer always leaves detectable garbage. A seeded cut in the
    // upper half may land exactly on a record boundary — in principle
    // indistinguishable from a shorter clean log, so only the
    // exact-prefix property is asserted there.
    let trailer_cut = rng.coin();
    let cut = if trailer_cut {
        len - 1 - rng.below(7)
    } else {
        len / 2 + rng.below(len / 2 - 8)
    };
    truncate_file(last, cut).map_err(|e| h.fail(e))?;

    let engine = Engine::start(durable_config(kind, seed, &dir, FsyncPolicy::Never))
        .map_err(|e| h.fail(e))?;
    h.attach(&engine);
    let report = engine
        .recovery()
        .ok_or_else(|| h.fail("restarted engine has no recovery report"))?;
    if report.checkpoint_seq != 0 {
        return Err(h.fail("no checkpoint was ever written, yet recovery found one"));
    }
    let m = report.replayed_records as usize;
    if m == 0 || m >= 200 {
        return Err(h.fail(format!("torn tail recovered {m} of 200 batches")));
    }
    if trailer_cut {
        if m != 199 {
            return Err(h.fail(format!(
                "a cut inside the final trailer must lose exactly the last record, recovered {m}"
            )));
        }
        if report.torn_bytes == 0 {
            return Err(h.fail("torn tail was not reported"));
        }
    }
    // The recovered state must be the exact prefix the cut left behind.
    h.accepted.truncate(m * 100);
    let snap = engine.shutdown();
    let metrics = engine.metrics();
    if snap.summary.total_weight() != (m * 100) as u64 {
        return Err(h.fail(format!(
            "replay of {m} batches surfaced weight {} instead of {}",
            snap.summary.total_weight(),
            m * 100
        )));
    }
    let _ = std::fs::remove_dir_all(&dir);
    h.finish(&snap.summary, metrics)
}

/// Class 9: one seeded bit flips at rest — in a WAL segment or in a part
/// of the only checkpoint set. Every flip must be *detected* (CRC-covered
/// records and parts, never trusted), the damage skipped, and the
/// surviving weight exactly equal to what recovery says it preloaded plus
/// replayed; the lost weight widens the bound as slack.
fn bit_flip(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::BitFlip, kind, seed);
    let mut rng = Rng64::new(seed ^ 0xB17F_11B5);
    let dir = scratch_dir(FaultClass::BitFlip, kind, seed);

    let c = 40 + rng.below(80) as usize;
    let engine = Engine::start(durable_config(kind, seed, &dir, FsyncPolicy::EveryN(8)))
        .map_err(|e| h.fail(e))?;
    h.attach(&engine);
    for (i, batch) in stream(20_000, seed).chunks(100).enumerate() {
        engine.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
        if i + 1 == c {
            engine.checkpoint_now().map_err(|e| h.fail(e))?;
        }
    }
    engine.abort();

    let flip_wal = rng.coin();
    let victims = if flip_wal {
        wal_segments(&dir)
    } else {
        newest_checkpoint_parts(&dir)
    };
    if victims.is_empty() {
        return Err(h.fail("no durable files on disk to damage"));
    }
    let victim = &victims[rng.below_usize(victims.len())];
    flip_bit(victim, &mut rng).map_err(|e| h.fail(e))?;

    let engine = Engine::start(durable_config(kind, seed, &dir, FsyncPolicy::EveryN(8)))
        .map_err(|e| h.fail(e))?;
    h.attach(&engine);
    let report = engine
        .recovery()
        .ok_or_else(|| h.fail("restarted engine has no recovery report"))?;
    if flip_wal {
        // A flipped WAL bit corrupts one record (an interior flip resyncs
        // past it; a final-record flip reads as a torn tail) and must
        // never disturb the checkpoint.
        if report.corrupt_records == 0 && report.torn_bytes == 0 {
            return Err(h.fail("flipped WAL bit was not detected"));
        }
        if report.checkpoint_seq != c as u64 {
            return Err(h.fail(format!(
                "WAL damage must not disturb the checkpoint, yet recovery used seq {}",
                report.checkpoint_seq
            )));
        }
    } else {
        // A flipped checkpoint bit invalidates the whole (only) set;
        // recovery degrades to whatever WAL survives pruning.
        if report.corrupt_checkpoints == 0 {
            return Err(h.fail("flipped checkpoint bit was not detected"));
        }
        if report.checkpoint_seq != 0 {
            return Err(h.fail(
                "the only checkpoint set was damaged, yet recovery claims to have used one",
            ));
        }
    }
    let snap = engine.shutdown();
    let metrics = engine.metrics();
    let surviving = snap.summary.total_weight();
    if report.preloaded_weight + report.replayed_weight != surviving {
        return Err(h.fail(format!(
            "recovery accounting mismatch: preloaded {} + replayed {} != surviving {surviving}",
            report.preloaded_weight, report.replayed_weight
        )));
    }
    let _ = std::fs::remove_dir_all(&dir);
    h.finish(&snap.summary, metrics)
}

/// Verify one range query against an exact oracle over the covered
/// sequence span. The cube's covering rule reports exactly which batch
/// seqs the merged summary holds (`meta.start_seq ..= meta.end_seq`), so
/// the oracle is the corresponding slice of the original stream and the
/// bound is the strict `ε·(covered weight) + 1` — no slack: segments are
/// rebuilt from the WAL, so a crash may shift *which* span a window
/// covers but must never blur the answer over the span it claims.
fn check_range(
    h: &Harness,
    engine: &Arc<Engine>,
    items: &[u64],
    start_micros: u64,
) -> Result<(), String> {
    for qkind in [SummaryKind::Mg, SummaryKind::HybridQuantile] {
        let (meta, merged) = engine
            .range_query(start_micros, u64::MAX, qkind)
            .map_err(|e| h.fail(e))?;
        let merged =
            merged.ok_or_else(|| h.fail("range query over live data found no coverage"))?;
        if meta.start_seq == 0 || (meta.end_seq as usize) * 100 > items.len() {
            return Err(h.fail(format!(
                "range meta claims seqs {}..={} outside the {}-batch stream",
                meta.start_seq,
                meta.end_seq,
                items.len() / 100
            )));
        }
        let span = &items[((meta.start_seq - 1) * 100) as usize..(meta.end_seq * 100) as usize];
        if meta.covered_weight != span.len() as u64 || merged.total_weight() != meta.covered_weight
        {
            return Err(h.fail(format!(
                "range meta covers weight {} but the seq span holds {} and the summary {}",
                meta.covered_weight,
                span.len(),
                merged.total_weight()
            )));
        }
        let bound = EPS * meta.covered_weight as f64 + 1.0;
        match qkind {
            SummaryKind::HybridQuantile => {
                let oracle = RankOracle::from_stream(span.iter().copied());
                let mut errors: Vec<u64> = Vec::new();
                for i in 0..=16u64 {
                    let x = i * UNIVERSE / 16;
                    if let Some(est) = merged.rank(x) {
                        errors.push(oracle.rank_error(&x, est));
                    }
                }
                let check = BoundCheck::from_u64(&errors, bound);
                if !check.ok() {
                    return Err(h.fail(format!(
                        "range rank error {:.1} exceeds ε·covered bound {:.1}",
                        check.stats.max, check.bound
                    )));
                }
            }
            _ => {
                let oracle = FrequencyOracle::from_stream(span.iter().copied());
                let errors: Vec<u64> = oracle
                    .iter()
                    .map(|(item, truth)| merged.point(*item).unwrap_or(0).abs_diff(truth))
                    .collect();
                let check = BoundCheck::from_u64(&errors, bound);
                if !check.ok() {
                    return Err(h.fail(format!(
                        "range point error {:.1} exceeds ε·covered bound {:.1}",
                        check.stats.max, check.bound
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Class 15: the process dies right after the cube seals segments,
/// possibly leaving the newest sealed-segment file missing or torn — the
/// window a real crash leaves between the in-memory seal and the
/// segment's durable rename. Restart must rebuild full range coverage
/// from the WAL (sealed prefix adopted from disk, the rest re-folded
/// from the tail), and range queries straddling the crash point — before
/// and after fresh post-restart ingest — must stay within the strict
/// `ε·(covered weight)` bound against an exact oracle. The schedule's
/// clock is a shared [`ManualClock`]: every seal boundary is seeded,
/// never slept for.
fn segment_crash(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::SegmentCrash, kind, seed);
    let mut rng = Rng64::new(seed ^ 0x5E67_C4A5);
    let dir = scratch_dir(FaultClass::SegmentCrash, kind, seed);
    let clock = Arc::new(ManualClock::new(1));
    // Odd seeds (one of the three pinned ones) also coarsen under
    // pressure, so the crash lands on a directory of merged tiers with id
    // gaps; keyed off the seed, not `rng`, so the other draws stay put.
    let seg_cfg = SegmentConfig::new()
        .seal_batches(8)
        .seal_micros(5_000)
        .coarsen_watermark(if seed & 1 == 1 { 3 } else { 0 })
        .clock(Arc::clone(&clock) as Arc<dyn CubeClock>);
    let config =
        |seg: SegmentConfig| durable_config(kind, seed, &dir, FsyncPolicy::EveryN(4)).segments(seg);

    let k1 = 40 + rng.below(40) as usize; // pre-crash batches
    let k2 = 20 + rng.below(20) as usize; // post-restart batches
    let c1 = 10 + rng.below((k1 - 15) as u64) as usize; // seeded checkpoint
    let items = stream((k1 + k2) * 100, seed);
    // Cube time at which each batch seq was recorded (window anchors).
    let mut batch_time = vec![0u64; k1 + k2 + 1];

    let engine = Engine::start(config(seg_cfg.clone())).map_err(|e| h.fail(e))?;
    h.attach(&engine);
    for (i, batch) in items[..k1 * 100].chunks(100).enumerate() {
        // Seeded clock steps; the occasional jump past `seal_micros`
        // forces a wall-clock seal mid-count.
        let step = if rng.below(10) == 0 {
            6_000
        } else {
            rng.below(1_500)
        };
        batch_time[i + 1] = clock.advance(step);
        engine.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
        if i + 1 == c1 {
            engine.checkpoint_now().map_err(|e| h.fail(e))?;
        }
    }
    let sealed_before = engine
        .segment_report()
        .map_err(|e| h.fail(e))?
        .segments
        .iter()
        .filter(|s| s.sealed)
        .count();
    if sealed_before == 0 {
        return Err(h.fail("no segment was ever sealed before the crash"));
    }
    engine.abort();

    // Seeded crash damage to the newest sealed-segment file: exactly the
    // file a crash between seal and fsync leaves missing or torn.
    let mode = rng.below(3);
    if mode > 0 {
        let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join("seg"))
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.extension().is_some_and(|x| x == "seg"))
                    .collect()
            })
            .unwrap_or_default();
        segs.sort();
        let victim = segs
            .last()
            .ok_or_else(|| h.fail("no segment files on disk to damage"))?;
        if mode == 1 {
            std::fs::remove_file(victim).map_err(|e| h.fail(e))?;
        } else {
            let len = std::fs::metadata(victim).map_err(|e| h.fail(e))?.len();
            truncate_file(victim, len / 2).map_err(|e| h.fail(e))?;
        }
    }

    let engine = Engine::start(config(seg_cfg)).map_err(|e| h.fail(e))?;
    h.attach(&engine);
    let report = engine
        .recovery()
        .ok_or_else(|| h.fail("restarted engine has no recovery report"))?;
    if mode == 0 && report.cube_segments_adopted == 0 {
        return Err(h.fail("no sealed segment survived a damage-free crash"));
    }
    if mode == 2 && report.corrupt_cube_segments == 0 {
        return Err(h.fail("torn segment file was not detected"));
    }

    // Full coverage must be back: every pre-crash batch in some segment.
    let rep = engine.segment_report().map_err(|e| h.fail(e))?;
    let covered: u64 = rep.segments.iter().map(|s| s.weight).sum();
    let max_seq = rep.segments.iter().map(|s| s.end_seq).max().unwrap_or(0);
    if covered != (k1 * 100) as u64 || max_seq != k1 as u64 {
        return Err(h.fail(format!(
            "cube lost coverage across the crash: weight {covered} of {}, max seq {max_seq} of {k1}",
            k1 * 100
        )));
    }

    // Windows spanning the crash point, against the exact oracle.
    check_range(&h, &engine, &items, 0)?;
    check_range(&h, &engine, &items, batch_time[k1 / 2])?;

    // Keep ingesting: post-restart seqs continue the WAL's numbering and
    // a straddling window now merges pre-crash and post-restart segments.
    for (i, batch) in items[k1 * 100..].chunks(100).enumerate() {
        let step = if rng.below(10) == 0 {
            6_000
        } else {
            rng.below(1_500)
        };
        batch_time[k1 + i + 1] = clock.advance(step);
        engine.ingest(batch.to_vec()).map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(batch);
    }
    check_range(&h, &engine, &items, batch_time[k1 / 2])?;
    check_range(&h, &engine, &items, batch_time[k1 + k2 / 2])?;

    engine.flush().map_err(|e| h.fail(e))?;
    let snap = engine.shutdown();
    let metrics = engine.metrics();
    if snap.summary.total_weight() != ((k1 + k2) * 100) as u64 {
        return Err(h.fail(format!(
            "crash lost acknowledged data: {} of {} items survived",
            snap.summary.total_weight(),
            (k1 + k2) * 100
        )));
    }
    let _ = std::fs::remove_dir_all(&dir);
    h.finish(&snap.summary, metrics)
}

/// Class 16: a seeded ingest flood storms a deliberately small server —
/// every batch stalls inside a single slow shard, queues are two deep,
/// and the watermarks are tight — over real TCP from four concurrent
/// clients carrying deadline envelopes. The server must answer every
/// over-pressure request with a typed `Overloaded` shed (visible in the
/// admission counters), keep serving after the storm (no wedge, no
/// leaked in-flight slots), and hold every byte of *acked* weight under
/// the strict zero-slack `ε·n` bound.
fn overload_storm(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::OverloadStorm, kind, seed);
    // The slow node: a quarter of all batches stall 1ms inside the one
    // shard's absorb, so the ingests waiting behind it push the pressure
    // signal across the watermarks —
    // but drains often enough that a real admitted stream accumulates.
    let plan = Arc::new(SeededPlan::new(seed).stall(2_500, 1));
    let overload = OverloadConfig::default()
        .max_inflight(8)
        .shed_watermark(0.5)
        .ingest_watermark(0.5)
        .retry_after_micros(5_000);
    let cfg = base_config(kind, seed)
        .shards(1)
        .queue_depth(2)
        .delta_updates(256)
        .overload(overload)
        .fault_plan(Arc::clone(&plan) as Arc<dyn ms_service::FaultPlan>);
    let engine = Engine::start(cfg).map_err(|e| h.fail(e))?;
    h.attach(&engine);
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| h.fail(e))?;
    let addr = server.local_addr();

    // Four concurrent flooders, each with a seed-sliced stream and a
    // deadline on the wire so the envelope path runs under pressure. A
    // shed answer is an answer: the batch was refused, not lost.
    let items = stream(16_000, seed);
    let workers: Vec<_> = items
        .chunks(items.len() / 4)
        .map(|slice| {
            let slice = slice.to_vec();
            std::thread::spawn(move || -> Result<(Vec<u64>, u64), ServiceError> {
                let mut client = Client::connect_with(
                    addr,
                    ClientOptions {
                        connect_timeout: Duration::from_secs(5),
                        read_timeout: Duration::from_secs(5),
                        retries: 2,
                        backoff: Duration::from_millis(10),
                        deadline: Some(Duration::from_secs(2)),
                    },
                )?;
                let mut acked = Vec::new();
                let mut shed = 0u64;
                for batch in slice.chunks(100) {
                    match client.ingest(batch.to_vec()) {
                        Ok(()) => acked.extend_from_slice(batch),
                        Err(ServiceError::Overloaded { .. }) => shed += 1,
                        Err(other) => return Err(other),
                    }
                }
                Ok((acked, shed))
            })
        })
        .collect();
    let mut client_sheds = 0u64;
    for worker in workers {
        let (acked, shed) = worker
            .join()
            .map_err(|_| h.fail("flood client panicked"))?
            .map_err(|e| h.fail(e))?;
        h.accepted.extend_from_slice(&acked);
        client_sheds += shed;
    }

    // Shed-not-wedged: after the storm a fresh client is served, the
    // sheds the clients saw are all counted, and no in-flight slot
    // leaked (a leak would hold the server at cap forever).
    let mut after = fast_client(addr).map_err(|e| h.fail(e))?;
    after.flush().map_err(|e| h.fail(e))?;
    let admission = engine.admission();
    if admission.sheds() == 0 || client_sheds == 0 {
        return Err(h.fail(format!(
            "the storm was never shed (server counted {}, clients saw {client_sheds})",
            admission.sheds()
        )));
    }
    if admission.sheds() < client_sheds {
        return Err(h.fail(format!(
            "clients saw {client_sheds} sheds but the server only counted {}",
            admission.sheds()
        )));
    }
    if admission.inflight() != 0 {
        return Err(h.fail(format!(
            "{} in-flight slots leaked past the storm",
            admission.inflight()
        )));
    }
    server.stop();
    let snap = engine.snapshot();
    let metrics = engine.metrics();
    if h.accepted.is_empty() {
        return Err(h.fail("the storm shed everything"));
    }
    if snap.summary.total_weight() != h.accepted.len() as u64 {
        return Err(h.fail(format!(
            "acked {} but snapshot holds {} — shedding must not lose acked data",
            h.accepted.len(),
            snap.summary.total_weight()
        )));
    }
    h.finish(&snap.summary, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schedule verdict that fails must leave a seed-stamped flight
    /// recording behind and cite it in the failure message — and only
    /// once: the first failure wins the latch.
    #[test]
    fn failing_verdict_dumps_seed_stamped_flight_recording() {
        let dir = std::env::temp_dir().join(format!("ms-faultsim-flight-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::env::set_var("MS_FLIGHT_DIR", &dir);

        let seed = 0xFA11ED;
        let mut h = Harness::new(FaultClass::ShardDeath, SummaryKind::Mg, seed);
        let engine = Engine::start(base_config(SummaryKind::Mg, seed).shards(2)).unwrap();
        h.attach(&engine);
        engine.ingest((0..100).collect()).unwrap();
        engine.flush().unwrap();

        let msg = h.fail("forced failure for the flight-dump test");
        std::env::remove_var("MS_FLIGHT_DIR");
        engine.shutdown();

        assert!(msg.contains("flight recording:"), "{msg}");
        let expected = dir.join(format!("flight-shard-death-{seed:#x}.json"));
        assert!(expected.exists(), "missing {}", expected.display());
        let json = std::fs::read_to_string(&expected).unwrap();
        assert!(
            json.contains(&format!("\"seed\": \"{seed:#x}\"")),
            "dump is not seed-stamped: {json}"
        );

        // The latch: a second failure on the same engine reports plainly.
        let again = h.fail("second failure");
        assert!(!again.contains("flight recording:"), "{again}");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A harness that never saw an engine (e.g. `Engine::start` itself
    /// failed) still formats a plain failure message.
    #[test]
    fn unattached_harness_fails_without_dump() {
        let h = Harness::new(FaultClass::CompactorDelay, SummaryKind::CountMin, 7);
        let msg = h.fail("boom");
        assert_eq!(msg, "[compactor-delay count-min seed=0x7] boom");
    }
}
