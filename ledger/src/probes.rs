//! Every call the ledger makes into a non-wire Rust API lives in this file:
//! one small function per stage (the names `ledger trace` reports), then the
//! fixtures those stages need. `README.md` lists the signatures pinned here;
//! changing one of them needs a `benchmark` issue, and a refactor that
//! breaks this file cannot break `ledger run`, which never compiles it.

use ms_cluster::HashRing;
use ms_core::wire::encode_u64_slice_into;
use ms_core::{crc32, Ring, SwapCell, Wire, WireFrame};
use ms_obs::MetricsRegistry;
use ms_service::{
    decode_traced_request, Admission, AdmitGuard, CubeOutcome, DurabilityConfig, Engine,
    ManualClock, OverloadConfig, RangeMeta, Request, Response, SegmentConfig, SegmentCube,
    ServiceConfig, ShardSummary, SummaryKind, RESPONSE_TAG,
};
use ms_store::{
    CheckpointStore, FsyncPolicy, GroupCommit, SegmentRecord, SegmentStore, Store, StoreConfig,
};
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

// ---- ingest stages, in the order a batch meets them ----

/// `wire.frame_read`: one frame off a byte stream into a reused payload
/// buffer; returns the tag.
pub fn wire_frame_read(mut bytes: &[u8], payload: &mut Vec<u8>) -> u8 {
    WireFrame::read_from_into(&mut bytes, payload)
        .expect("replayed frames are well-formed")
        .expect("replayed frames are complete")
}

/// `protocol.decode`: frame payload to a typed request.
pub fn protocol_decode(frame: &WireFrame) -> Request {
    decode_traced_request(frame)
        .expect("replayed requests decode")
        .0
}

/// `overload.admit`: the admission decision for an ingest.
pub fn overload_admit(admission: &Arc<Admission>, conn_inflight: &Arc<AtomicU64>) -> AdmitGuard {
    let opcode = Request::Ingest(Vec::new()).opcode();
    admission
        .try_admit(opcode, conn_inflight)
        .expect("a permissive controller admits")
}

/// `wal.encode`: a batch into its WAL payload.
pub fn wal_encode(out: &mut Vec<u8>, batch: &[u64]) {
    encode_u64_slice_into(out, batch);
}

/// `wal.crc`: the checksum every durable record carries, isolated.
pub fn wal_crc(bytes: &[u8]) -> u32 {
    crc32(bytes)
}

/// `wal.append`: one record through group commit into the log.
pub fn wal_append(group: &GroupCommit, store: &Mutex<Store>, payload: Vec<u8>) {
    group.append(store, payload).expect("WAL append");
}

/// `checkpoint.write`: one per-shard checkpoint set.
pub fn checkpoint_write(store: &CheckpointStore, wal_seq: u64, epoch: u64, parts: &[Vec<u8>]) {
    store
        .write_set(wal_seq, epoch, parts)
        .expect("checkpoint write");
}

/// `cube.fold`: one batch into the open segment (all four families).
pub fn cube_fold(cube: &SegmentCube, seq: u64, batch: &[u64]) -> CubeOutcome {
    cube.record_at(seq, batch)
}

/// `segment.write`: one sealed segment to disk.
pub fn segment_write(store: &SegmentStore, record: &SegmentRecord) {
    store.write(record).expect("segment write");
}

/// `ring.push_pop`: a batch through the shard queue (no contention).
pub fn ring_push_pop(ring: &Ring<Vec<u64>>, batch: Vec<u64>) -> Vec<u64> {
    ring.push(batch).expect("open ring accepts");
    ring.pop_wait().expect("open ring yields what was pushed")
}

/// `summary.update_batch`: the shard kernel.
pub fn summary_update_batch(summary: &mut ShardSummary, batch: &[u64]) {
    summary.update_batch(batch);
}

/// `compactor.merge_many`: the shards' deltas into the global summary.
pub fn compactor_merge_many(global: &mut ShardSummary, deltas: Vec<ShardSummary>) {
    for merged in global.merge_in_place_many(deltas) {
        merged.expect("same-family deltas merge");
    }
}

/// `swap.publish`: publish a new immutable value.
pub fn swap_publish(cell: &SwapCell<Arc<ShardSummary>>, value: Arc<ShardSummary>) {
    cell.swap(value);
}

/// `protocol.reply_encode`: the `Ok` reply into an output stream.
pub fn reply_encode(out: &mut Vec<u8>) {
    WireFrame::from_value(RESPONSE_TAG, &Response::Ok)
        .write_to(out)
        .expect("writing to a Vec");
}

/// `engine.ingest`: the whole server-side path without a socket.
pub fn engine_ingest(engine: &Engine, batch: Vec<u64>) {
    engine.ingest(batch).expect("engine ingest");
}

// ---- query stages ----

/// `summary.point`
pub fn summary_point(summary: &ShardSummary, item: u64) -> u64 {
    summary.point(item).expect("frequency summary")
}

/// `summary.heavy_hitters`
pub fn summary_heavy_hitters(summary: &ShardSummary, phi: f64) -> usize {
    summary.heavy_hitters(phi).expect("frequency summary").len()
}

/// `cube.query_*`: a quantile-family range query.
pub fn cube_query(cube: &SegmentCube, start: u64, end: u64) -> (RangeMeta, Option<ShardSummary>) {
    cube.query(start, end, SummaryKind::HybridQuantile)
}

/// `summary.encode`
pub fn summary_encode(summary: &ShardSummary) -> Vec<u8> {
    summary.encode()
}

/// `summary.decode`
pub fn summary_decode(bytes: &[u8]) -> ShardSummary {
    ShardSummary::decode(bytes).expect("round trip")
}

/// `cluster.route`: the node an item is sent to.
pub fn cluster_route(ring: &HashRing, item: u64) -> usize {
    ring.route(item, |_| false).expect("no dead node")
}

/// `cluster.merge_gather`: the coordinator's one-shot merge of the nodes'
/// summaries.
pub fn cluster_merge_gather(parts: Vec<ShardSummary>) -> ShardSummary {
    let mut parts = parts.into_iter();
    let mut merged = parts.next().expect("at least one node");
    for part in parts {
        merged
            .merge_in_place(part)
            .expect("same-family parts merge");
    }
    merged
}

// ---- fixtures ----

pub fn service_config(epsilon: f64, shards: usize) -> ServiceConfig {
    ServiceConfig::new(SummaryKind::Mg, epsilon).shards(shards)
}

pub fn new_summary(cfg: &ServiceConfig, shard: usize) -> ShardSummary {
    ShardSummary::new(cfg, shard)
}

/// `delta_updates` of the shipped configuration.
pub fn delta_updates(cfg: &ServiceConfig) -> usize {
    cfg.delta_updates
}

/// Batches between checkpoints in the shipped configuration.
pub fn checkpoint_batches() -> u64 {
    DurabilityConfig::new("unused").checkpoint_batches
}

pub fn new_admission(cfg: &ServiceConfig) -> Arc<Admission> {
    let slots = (cfg.shards * cfg.queue_depth) as u64;
    Arc::new(Admission::new(
        OverloadConfig::default(),
        &MetricsRegistry::new(),
        Vec::new(),
        slots,
    ))
}

pub fn new_ring(cfg: &ServiceConfig) -> Ring<Vec<u64>> {
    Ring::with_capacity(cfg.queue_depth)
}

pub fn new_swap(initial: ShardSummary) -> SwapCell<Arc<ShardSummary>> {
    SwapCell::new(Arc::new(initial))
}

/// A cube on a hand-driven clock (the caller advances it per batch, so
/// segment boundaries are exact).
pub fn new_cube(cfg: &ServiceConfig, seal_batches: u64) -> (SegmentCube, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new(1));
    let segments = SegmentConfig::new()
        .seal_batches(seal_batches)
        .clock(Arc::clone(&clock) as _);
    (SegmentCube::new(cfg.epsilon, cfg.seed, segments), clock)
}

/// A data directory as `serve --data-dir D --fsync never` opens it.
pub fn open_store(dir: &Path, cube: bool) -> io::Result<Store> {
    let cfg = StoreConfig::new(dir)
        .fsync(FsyncPolicy::Never)
        .cube_segments(cube);
    Store::open(&cfg).map(|(store, _recovery)| store)
}

pub fn new_group_commit() -> GroupCommit {
    GroupCommit::new()
}

pub fn hash_ring(nodes: usize) -> HashRing {
    HashRing::new(
        nodes,
        ms_cluster::ClusterConfig::new(Vec::<String>::new()).vnodes,
    )
}

/// An in-process engine as one node of the workload runs it.
pub fn start_engine(
    cfg: ServiceConfig,
    data_dir: Option<&Path>,
    segment_batches: Option<u64>,
    telemetry: bool,
) -> Arc<Engine> {
    let mut cfg = cfg.telemetry(telemetry);
    if let Some(dir) = data_dir {
        cfg = cfg.durability(DurabilityConfig::new(dir).fsync(FsyncPolicy::Never));
    }
    if let Some(batches) = segment_batches {
        cfg = cfg.segments(SegmentConfig::new().seal_batches(batches));
    }
    Engine::start(cfg).expect("engine starts")
}

pub fn engine_buffer(engine: &Engine) -> Vec<u64> {
    engine.ingest_buffer()
}

pub fn stop_engine(engine: &Engine) {
    let _ = engine.flush();
    engine.shutdown();
}
