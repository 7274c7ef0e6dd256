//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and the per-layer metric names. `BENCHMARK.json`
//! at the repository root repeats exactly these lists (a unit test in
//! `lib.rs` compares them).

/// Set-ups per run. Each starts fresh servers, warms them up and measures
/// one window of `--seconds / SETUPS`. A run reports its least disturbed
/// window (see `report::Pick`) and the median of the set-up times.
pub const SETUPS: usize = 4;
/// Items in the base stream (`Zipf{s:1.1, universe:1<<20}`), replayed
/// cyclically.
pub const BASE_ITEMS: usize = 1 << 22;
/// Zipf universe of the base stream.
pub const UNIVERSE: u64 = 1 << 20;
/// `serve --shards` on every node.
pub const SHARDS: usize = 2;
/// Sparse probe schedule of a closed-loop ingest client, per second.
pub const PROBES_PER_S: u32 = 200;

/// One end-to-end metric: what a user of the served system sees.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

/// Every workload reports every one of these (the driver's contract), so
/// the read latency is measured on the ingest workloads too, by a sparse
/// probe on client 0's connection. The bounds are what ten runs on ten
/// seeds resolve on a 2-vCPU guest, not what ISSUE 12 hoped for; README.md
/// has the spreads, and the five latencies it demoted to per-layer metrics
/// (`live.*`).
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s", 0.25),
    Metric {
        name: "ingest_items_per_s",
        unit: "items/s",
        higher_is_better: true,
        bound: 0.25,
    },
    lower("cpu_s_per_mitem", "s", 0.25),
    lower("read_p50_us", "us", 0.25),
    lower("peak_rss_mb", "MiB", 0.15),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A query the load generator can issue. `Range*` windows are sized to
/// cover about that many sealed segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    Point,
    HeavyHitters,
    /// Whole-history export of the merged summary (`Request::Summary`).
    Summary,
    RangeQuantile(u32),
    RangeHeavyHitters(u32),
}

/// Latency populations kept apart while measuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Ack = 0,
    Point = 1,
    Hh = 2,
    /// The workload's read that returns a merged summary: `RangeQuantile`
    /// over ≈8 segments where the cube is on, `Summary` elsewhere.
    Read = 3,
    Range1 = 4,
    Range64 = 5,
    RangeHh = 6,
}
pub const CLASSES: usize = 7;

impl Query {
    pub fn class(self) -> Class {
        match self {
            Query::Point => Class::Point,
            Query::HeavyHitters => Class::Hh,
            Query::Summary | Query::RangeQuantile(8) => Class::Read,
            Query::RangeQuantile(64) => Class::Range64,
            Query::RangeQuantile(_) => Class::Range1,
            Query::RangeHeavyHitters(_) => Class::RangeHh,
        }
    }
}

/// What one of the two load-generator threads does during the window.
#[derive(Debug, Clone, Copy)]
pub enum Role {
    /// Send the next batch as soon as the previous one is acked; with
    /// `probes`, also issue `Workload::probes` at `PROBES_PER_S`.
    ClosedIngest { probes: bool },
    /// Send a batch every `1/batches_per_s` seconds whatever the server does.
    OpenIngest { batches_per_s: u32 },
    /// Issue `Workload::probes` in rotation at `per_s` whatever the server does.
    OpenReader { per_s: u32 },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub epsilon: f64,
    /// `--data-dir <tmp> --fsync never`.
    pub wal: bool,
    /// `--segment-batches N` (the cube is on).
    pub segment_batches: Option<u64>,
    /// Backend nodes behind a coordinator; 0 = one plain node.
    pub cluster_nodes: usize,
    pub batch: usize,
    /// Items ingested closed-loop by both clients before the window.
    pub warmup_items: usize,
    pub roles: [Role; 2],
    pub probes: &'static [Query],
}

const SPARSE_PLAIN: &[Query] = &[
    Query::Point,
    Query::Summary,
    Query::HeavyHitters,
    Query::Summary,
];
const SPARSE_CUBE: &[Query] = &[
    Query::Point,
    Query::RangeQuantile(8),
    Query::HeavyHitters,
    Query::RangeQuantile(8),
];
const CLOSED_PAIR: [Role; 2] = [
    Role::ClosedIngest { probes: true },
    Role::ClosedIngest { probes: false },
];

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ingest-mem",
        why: "wire decode, ring and the shard update_batch kernel do all the work; WAL and cube are bypassed, so a WAL or cube change must show no movement here",
        epsilon: 0.01,
        wal: false,
        segment_batches: None,
        cluster_nodes: 0,
        batch: 1024,
        warmup_items: 1 << 21,
        roles: CLOSED_PAIR,
        probes: SPARSE_PLAIN,
    },
    Workload {
        name: "ingest-wal",
        why: "ingest-mem plus --data-dir --fsync never: isolates WAL encode, CRC, group commit and checkpoint cost",
        epsilon: 0.01,
        wal: true,
        segment_batches: None,
        cluster_nodes: 0,
        batch: 1024,
        warmup_items: 1 << 21,
        roles: CLOSED_PAIR,
        probes: SPARSE_PLAIN,
    },
    Workload {
        name: "ingest-wal-cube",
        why: "ingest-wal plus --segment-batches 64: cube lock, four-family scalar fold and segment persistence dominate; where one ingest pipeline must show",
        epsilon: 0.01,
        wal: true,
        segment_batches: Some(64),
        cluster_nodes: 0,
        batch: 1024,
        warmup_items: 1 << 21,
        roles: CLOSED_PAIR,
        probes: SPARSE_CUBE,
    },
    Workload {
        name: "read-write",
        why: "rate-fixed 128-item writer beside a rate-fixed reader of point, heavy-hitter and range queries over 1, 8 and 64 segments: per-batch overheads and cube reads beside writes",
        epsilon: 0.01,
        wal: false,
        segment_batches: Some(256),
        cluster_nodes: 0,
        batch: 128,
        // 96 sealed segments, so the 64-segment window is covered from the
        // first query on.
        warmup_items: 3 << 20,
        roles: [
            Role::OpenIngest {
                batches_per_s: 4000,
            },
            Role::OpenReader { per_s: 300 },
        ],
        // Per second: 125 range-8 (enough samples for its p99), 50 point,
        // 50 heavy hitters, 25 each of range-64, range-1 and range-hh-8. A
        // range-64 outlasts the 3.3 ms period, so the query after it starts
        // late; that slot goes to a query no bounded metric reads.
        probes: &[
            Query::Point,
            Query::RangeQuantile(8),
            Query::HeavyHitters,
            Query::RangeQuantile(8),
            Query::RangeQuantile(64),
            Query::RangeQuantile(1),
            Query::Point,
            Query::RangeQuantile(8),
            Query::HeavyHitters,
            Query::RangeQuantile(8),
            Query::RangeHeavyHitters(8),
            Query::RangeQuantile(8),
        ],
    },
    Workload {
        name: "cluster-3node",
        why: "closed-loop ingest split by consistent hash across three nodes and gathered reads through a coordinator: guards the cluster path while service, cluster and CLI get refactored",
        epsilon: 0.001,
        wal: false,
        segment_batches: None,
        cluster_nodes: 3,
        batch: 1024,
        warmup_items: 1 << 21,
        roles: [
            Role::ClosedIngest { probes: false },
            Role::OpenReader { per_s: 200 },
        ],
        probes: SPARSE_PLAIN,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// `serve` arguments of one node of this workload (without `--addr`).
    pub fn node_args(&self, data_dir: Option<&str>) -> Vec<String> {
        let mut args: Vec<String> = [
            "serve",
            "--kind",
            "mg",
            "--epsilon",
            &self.epsilon.to_string(),
            "--shards",
            &SHARDS.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(dir) = data_dir {
            args.extend(["--data-dir", dir, "--fsync", "never"].map(String::from));
        }
        if let Some(batches) = self.segment_batches {
            args.extend(["--segment-batches".to_string(), batches.to_string()]);
        }
        args
    }
}

/// Per-layer metrics every workload's traced run reports (name, unit,
/// higher is better). Stage rows come from the in-process replay, `client.*`
/// from the spans around each live round trip, the rest from counters read
/// over the wire. `BENCH_layers.json` carries more per workload (calls,
/// shares, and what only some workloads produce).
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("wire.frame_read.ns_per_item", "ns", false),
    ("protocol.decode.ns_per_item", "ns", false),
    ("overload.admit.ns_per_item", "ns", false),
    ("wal.encode.ns_per_item", "ns", false),
    ("wal.crc.ns_per_byte", "ns", false),
    ("wal.append.ns_per_item", "ns", false),
    ("checkpoint.write.ns_per_item", "ns", false),
    ("cube.fold.ns_per_item", "ns", false),
    ("segment.write.ns_per_item", "ns", false),
    ("ring.push_pop.ns_per_item", "ns", false),
    ("summary.update_batch.ns_per_item", "ns", false),
    ("compactor.merge_many.ns_per_item", "ns", false),
    ("swap.publish.ns_per_item", "ns", false),
    ("protocol.reply_encode.ns_per_item", "ns", false),
    ("engine.ingest.ns_per_item", "ns", false),
    ("server.residual_us_per_batch", "us", false),
    ("summary.point.ns_per_call", "ns", false),
    ("summary.heavy_hitters.ns_per_call", "ns", false),
    ("cube.query_us_base", "us", false),
    ("cube.query_us_per_segment", "us", false),
    ("summary.encode.ns_per_call", "ns", false),
    ("summary.decode.ns_per_call", "ns", false),
    ("cluster.route.ns_per_item", "ns", false),
    ("cluster.merge_gather.ns_per_call", "ns", false),
    ("live.ingest_ack_p50_us", "us", false),
    ("live.ingest_ack_p99_us", "us", false),
    ("live.point_p50_us", "us", false),
    ("live.hh_p50_us", "us", false),
    ("live.read_p99_us", "us", false),
    ("client.encode.p50_us", "us", false),
    ("client.send.p50_us", "us", false),
    ("client.await_reply.p50_us", "us", false),
    ("client.decode.p50_us", "us", false),
    ("trace.overhead_pct", "%", false),
    ("trace.span_cost_ns", "ns", false),
    ("obs.telemetry_overhead_pct", "%", false),
    ("obs.telemetry_overhead_spread_pct", "%", false),
    ("engine.batches", "count", true),
    ("engine.merges", "count", true),
    ("engine.epochs", "count", true),
    ("engine.dropped", "count", false),
    ("engine.retries", "count", false),
    ("engine.snapshot_lag_items", "count", false),
    ("ring.queue_wait_mean_us", "us", false),
    ("ring.queue_depth_max", "count", false),
    ("wal.bytes_per_item", "bytes", false),
    ("wal.records_per_group", "count", true),
    ("wal.fsyncs", "count", false),
    ("checkpoint.count", "count", false),
    ("cube.segments_sealed", "count", true),
    ("cube.coarsened_pairs", "count", false),
    ("pool.reuse_pct", "%", true),
    ("overload.shed_total", "count", false),
    ("wire.bytes_in_per_item", "bytes", false),
    ("accuracy.max_err_over_eps_n", "ratio", false),
    ("accuracy.hh_recall", "ratio", true),
];
