//! `mergeable` — build, merge, query and serve mergeable summaries from
//! the command line.
//!
//! Summaries are stored as binary wire frames (magic `MS`, codec version,
//! the summary-file tag, then `ShardSummary` bytes), so a fleet of
//! machines can each `build` a summary of their local data, ship the
//! files anywhere, and any machine can `merge` them and `query` the
//! result — the command-line rendition of the paper's model. `serve`
//! runs the sharded concurrent aggregation engine behind a TCP front-end
//! speaking the same codec — its `Request::Summary` payload, framed under
//! the file tag, is a summary file — and `bench-client` drives it.
//!
//! ```text
//! mergeable build --kind mg --epsilon 0.01 --out site1.ms  < site1.txt
//! mergeable build --kind mg --epsilon 0.01 --out site2.ms  < site2.txt
//! mergeable merge site1.ms site2.ms --out all.ms
//! mergeable query all.ms --heavy-hitters 0.01
//! mergeable query all.ms --estimate 42
//! mergeable info all.ms
//!
//! mergeable serve --kind mg --epsilon 0.01 --addr 127.0.0.1:7433
//! mergeable serve --kind mg --epsilon 0.01 --data-dir /var/lib/ms --fsync every:64
//! mergeable bench-client --addr 127.0.0.1:7433 --items 1000000
//! mergeable metrics --addr 127.0.0.1:7433          # human-readable
//! mergeable metrics --addr 127.0.0.1:7433 --prom   # Prometheus text
//! mergeable store inspect /var/lib/ms              # WAL/checkpoint health
//! ```
//!
//! Input data is one unsigned integer per line (blank lines ignored).

use std::fs;
use std::io::{BufRead, BufReader, Read};
use std::process::ExitCode;
use std::time::Instant;

use mergeable_summaries::cluster::{ClusterConfig, Coordinator};
use mergeable_summaries::core::{Mergeable, Summary, ToJson, WireFrame};
use mergeable_summaries::service::{
    answer_query, DurabilityConfig, Engine, FsyncPolicy, OverloadConfig, Request, Response,
    SegmentConfig, Server, ServiceConfig, ShardSummary, SummaryKind, SUMMARY_FILE_TAG,
};
use mergeable_summaries::workloads::StreamKind;

/// The frame tag summary files carried before they held `ShardSummary`
/// bytes. Its kind bytes number the families differently (kind 1 was MG,
/// which `ShardSummary` reads as SpaceSaving), so such a file is refused,
/// never decoded.
const OLD_SUMMARY_TAG: u8 = 0x01;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("bench-client") => cmd_bench_client(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'; try --help")),
    }
}

const USAGE: &str = "\
mergeable — build, merge, query and serve mergeable summaries (PODS'12)

USAGE:
  mergeable build --kind KIND --epsilon E [--seed S] [--input FILE] --out FILE
  mergeable merge FILE... --out FILE
  mergeable query FILE (--heavy-hitters PHI | --estimate ITEM | --quantile PHI | --rank X)
  mergeable query --addr A (--window W (--quantile PHI | --heavy-hitters PHI) | --segments)
  mergeable info FILE
  mergeable serve --kind KIND --epsilon E [--addr A] [--shards N] [--seed S] [--no-telemetry]
                  [--audit] [--data-dir DIR] [--fsync always|every:N|never]
                  [--checkpoint-batches N] [--segment-batches N] [--segment-secs N]
                  [--coarsen-watermark N] [--max-inflight N] [--max-inflight-per-conn N]
                  [--shed-watermark F] [--ingest-watermark F]
  mergeable serve --coordinator --nodes H:P,H:P,... [--addr A] [--replicas] [--seed S]
  mergeable bench-client --addr A [--items N] [--batch B] [--seed S]
  mergeable metrics --addr A [--prom | --accuracy]
  mergeable metrics --cluster --nodes H:P,H:P,... [--prom]
  mergeable trace --addr A [--nodes H:P,H:P,...] [--json]
  mergeable store inspect DIR [--json]

KINDS:
  mg               Misra-Gries heavy hitters (deterministic, freq error <= eps*n)
  space-saving     SpaceSaving heavy hitters (deterministic bracket)
  count-min        Count-Min sketch (probabilistic overestimate)
  hybrid-quantile  fully mergeable quantile summary (rank error <= eps*n whp)

Summary files hold exactly what a server's summary request ships: the
same binary wire frame payload, so `build`, `merge`, `serve` and a
coordinator all produce files any of the others can merge and query
(files written before this format are refused: rebuild them). `serve`
runs the sharded concurrent engine on A (default 127.0.0.1:7433) until
stdin closes. `bench-client` streams a seeded Zipf workload at it and
reports throughput and engine metrics.
`metrics` scrapes a live server's telemetry plane: per-opcode latency
histograms (p50/p95/p99/max), per-shard queue-depth gauges and byte
counters, as a table or (--prom) Prometheus text exposition.

`serve --coordinator` federates N already-running `serve` backends into
one logical service: ingest batches are consistent-hash routed across
the nodes (with automatic rebalance around dead ones), queries are
answered by scatter/gather plus a one-shot merge — the same eps*n bound
as a single node — and `--replicas` pairs consecutive nodes for
redundancy. `metrics --cluster` runs that coordinator's gather in
process, once: unreachable nodes are skipped, and the live ones' metric
planes merge (work counters sum, gauges take max, latency histograms
merge bucket-wise).

`serve --data-dir DIR` makes the engine crash-safe: every acked batch is
appended to a write-ahead log and periodically folded into a checkpoint
file under DIR, and restarting with the same DIR recovers
the state (newest valid checkpoint set + WAL tail replay) with no error
growth — summaries merge back losslessly. `--fsync` trades durability
for throughput (`always` per batch, `every:N` bounded loss window,
`never` leaves flushing to the OS); `--checkpoint-batches` sets the
checkpoint cadence. `store inspect` CRC-scans a data directory
read-only and reports per-segment and per-checkpoint health.

`serve --segment-batches N` / `--segment-secs S` turn on the **segment
cube**: ingest is split into time/sequence segments (sealed every N
batches or S seconds), each sealed segment carrying a precomputed
MG and hybrid-quantile summary (SpaceSaving ranges are read off the MG
one). `query --addr A --window 5m --quantile 0.5`
then answers over just the last five minutes by one-shot-merging the
minimal covering segment set (open segment included), at the same eps*n
bound on the queried range (Definition 1). `--window` accepts `90s`,
`5m`, `2h` or plain seconds; `--segments` lists the cube's segments.
With `--data-dir` sealed segments persist beside the checkpoints and
survive restarts. `--coarsen-watermark N` adds pressure-driven
coarsening: once more than N sealed segments are resident, adjacent
pairs are merged into coarser tiers (lossless w.r.t. eps*n on admitted
weight, Definition 1) so resident memory stays bounded under sustained
ingest.

`serve --max-inflight N` (and `--max-inflight-per-conn`,
`--shed-watermark F`, `--ingest-watermark F`) turn on the **overload
control plane**: requests beyond the in-flight caps, or arriving while
queue pressure is above the watermark for their class (queries shed
first, ingest last, control never), are refused with a typed
`Overloaded{retry-after}` answer instead of queueing —
and a request whose propagated deadline budget is already spent is shed
before dispatch. Shed/admit counters appear in `mergeable metrics`.

`trace --addr A` pulls the flight-recorder rings of a live server (and,
with `--nodes`, of every listed backend), stitches the spans into one
causally-ordered trace tree per request — coordinator request, scatter
legs, backend node requests — and prints it as an indented timeline (or
`--json`). Requests carry a deterministic trace context on the wire
(seeded ids, parent-span links), so a single query through
`serve --coordinator` shows up as one tree across every process it
touched. `serve --audit` turns on the accuracy self-audit: the engine
keeps deterministic ground truth beside the summary (exact counts for a
hash-chosen 1-in-16 key subset, or a seeded reservoir for quantiles) and
`metrics --accuracy` reports the observed error next to the eps*n
envelope the paper guarantees — merge lineage (merge count, tree depth,
total weight) included.

Input data: one unsigned integer per line (stdin unless --input is given).
";

/// Pull `--flag value` out of an argument list; returns the remainder.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        return None;
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

/// Pull a boolean `--switch` out of an argument list.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

fn read_items(input: Option<String>) -> Result<Vec<u64>, String> {
    let reader: Box<dyn Read> = match input {
        Some(path) => {
            Box::new(fs::File::open(&path).map_err(|e| format!("cannot open {path}: {e}"))?)
        }
        None => Box::new(std::io::stdin()),
    };
    let mut items = Vec::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| format!("read error: {e}"))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let value: u64 = trimmed
            .parse()
            .map_err(|e| format!("line {}: '{trimmed}': {e}", lineno + 1))?;
        items.push(value);
    }
    Ok(items)
}

fn load(path: &str) -> Result<ShardSummary, String> {
    let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let frame =
        WireFrame::from_bytes(&bytes).map_err(|e| format!("{path} is not a summary file: {e}"))?;
    match frame.tag {
        SUMMARY_FILE_TAG => frame
            .value::<ShardSummary>()
            .map_err(|e| format!("{path} is not a summary file: {e}")),
        OLD_SUMMARY_TAG => Err(format!(
            "{path} is an old-format summary file (frame tag {OLD_SUMMARY_TAG:#04x}); \
             rebuild it with `mergeable build`"
        )),
        tag => Err(format!(
            "{path} is not a summary file: unexpected frame tag {tag:#x}"
        )),
    }
}

fn store(path: &str, summary: &ShardSummary) -> Result<(), String> {
    let bytes = WireFrame::from_value(SUMMARY_FILE_TAG, summary).to_bytes();
    fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "wrote {path} ({} items, {} stored entries)",
        summary.total_weight(),
        summary.size()
    );
    Ok(())
}

fn parse_kind(kind: &str) -> Result<SummaryKind, String> {
    SummaryKind::parse(kind).ok_or_else(|| {
        format!("unknown --kind '{kind}'; use mg, space-saving, count-min or hybrid-quantile")
    })
}

fn parse_epsilon(value: &str) -> Result<f64, String> {
    let epsilon: f64 = value.parse().map_err(|e| format!("bad --epsilon: {e}"))?;
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(format!("--epsilon must be in (0, 1), got {epsilon}"));
    }
    Ok(epsilon)
}

/// Pull `--nodes host:port,host:port,...` out of an argument list.
fn take_nodes(args: &mut Vec<String>) -> Option<Vec<String>> {
    let list = take_flag(args, "--nodes")?;
    Some(
        list.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
    )
}

/// `build`: one shard's summary under the config `serve` would run, so
/// the file merges with anything a server or coordinator ships.
fn cmd_build(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let kind = parse_kind(&take_flag(&mut args, "--kind").ok_or("build requires --kind")?)?;
    let epsilon =
        parse_epsilon(&take_flag(&mut args, "--epsilon").ok_or("build requires --epsilon")?)?;
    let seed: u64 = match take_flag(&mut args, "--seed") {
        Some(s) => s.parse().map_err(|e| format!("bad --seed: {e}"))?,
        None => 0,
    };
    let input = take_flag(&mut args, "--input");
    let out = take_flag(&mut args, "--out").ok_or("build requires --out")?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let mut summary = ShardSummary::new(&ServiceConfig::new(kind, epsilon).seed(seed), 0);
    summary.update_batch(&read_items(input)?);
    store(&out, &summary)
}

fn cmd_merge(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let out = take_flag(&mut args, "--out").ok_or("merge requires --out")?;
    if args.len() < 2 {
        return Err("merge requires at least two input files".into());
    }
    let mut merged = load(&args[0])?;
    for path in &args[1..] {
        merged = merged
            .merge(load(path)?)
            .map_err(|e| format!("{path}: {e}"))?;
    }
    store(&out, &merged)
}

/// Parse a `--window` duration (`90s`, `5m`, `2h`, or plain seconds)
/// into microseconds.
fn parse_window(value: &str) -> Result<u64, String> {
    let (number, scale) = match value.as_bytes().last() {
        Some(b's') => (&value[..value.len() - 1], 1_000_000u64),
        Some(b'm') => (&value[..value.len() - 1], 60_000_000),
        Some(b'h') => (&value[..value.len() - 1], 3_600_000_000),
        _ => (value, 1_000_000),
    };
    let n: u64 = number
        .parse()
        .map_err(|e| format!("bad --window '{value}': {e}"))?;
    n.checked_mul(scale)
        .ok_or_else(|| format!("--window '{value}' overflows"))
}

/// `query --addr A --window W`: time-range queries against a live
/// server's segment cube. The window is anchored at the server's own
/// clock (from `SegmentInfo`) so the client and server need no shared
/// notion of time: the queried range is `[now - W, +inf)`, which always
/// includes the open segment.
fn cmd_query_live(mut args: Vec<String>, addr: String) -> Result<(), String> {
    let window = take_flag(&mut args, "--window");
    let quant = take_flag(&mut args, "--quantile");
    let hh = take_flag(&mut args, "--heavy-hitters");
    let segments = take_switch(&mut args, "--segments");
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }
    let mut client = mergeable_summaries::service::Client::connect(addr.as_str())
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    if segments {
        let report = client
            .segments()
            .map_err(|e| format!("segment-info failed: {e}"))?;
        println!(
            "{:>6} {:>12} {:>12} {:>16} {:>16} {:>12} {:>8}  state",
            "id", "start_seq", "end_seq", "start_micros", "end_micros", "weight", "batches"
        );
        for s in &report.segments {
            println!(
                "{:>6} {:>12} {:>12} {:>16} {:>16} {:>12} {:>8}  {}",
                s.id,
                s.start_seq,
                s.end_seq,
                s.start_micros,
                s.end_micros,
                s.weight,
                s.batches,
                if s.sealed { "sealed" } else { "open" }
            );
        }
        println!("server clock: {}us", report.now_micros);
        return Ok(());
    }

    let window = parse_window(&window.ok_or("query --addr needs --window (or --segments)")?)?;
    let report = client
        .segments()
        .map_err(|e| format!("segment-info failed: {e}"))?;
    let start = report.now_micros.saturating_sub(window);
    let end = u64::MAX;

    if let Some(phi) = quant {
        let phi: f64 = phi.parse().map_err(|e| format!("bad --quantile: {e}"))?;
        let answer = client
            .range_quantile(start, end, phi)
            .map_err(|e| format!("range-quantile failed: {e}"))?;
        match answer.value {
            Some(v) => println!("{v}"),
            None => return Err("no data in the queried window".into()),
        }
        eprintln!(
            "window [{start}, now] covered by {} segment(s){}, weight {}",
            answer.meta.segments_merged,
            if answer.meta.open_included {
                " + open"
            } else {
                ""
            },
            answer.meta.covered_weight
        );
        return Ok(());
    }
    if let Some(phi) = hh {
        let phi: f64 = phi
            .parse()
            .map_err(|e| format!("bad --heavy-hitters: {e}"))?;
        let answer = client
            .range_heavy_hitters(start, end, phi)
            .map_err(|e| format!("range-heavy-hitters failed: {e}"))?;
        for (item, count) in &answer.items {
            println!("{item}\t{count}");
        }
        eprintln!(
            "window [{start}, now] covered by {} segment(s){}, weight {}",
            answer.meta.segments_merged,
            if answer.meta.open_included {
                " + open"
            } else {
                ""
            },
            answer.meta.covered_weight
        );
        return Ok(());
    }
    Err("query --addr needs one of --quantile / --heavy-hitters / --segments".into())
}

/// `query FILE`: the request a server would get, answered the way a
/// server answers it — same φ check, same "not supported" wording.
fn cmd_query(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    if let Some(addr) = take_flag(&mut args, "--addr") {
        return cmd_query_live(args, addr);
    }
    let hh = take_flag(&mut args, "--heavy-hitters");
    let est = take_flag(&mut args, "--estimate");
    let quant = take_flag(&mut args, "--quantile");
    let rank = take_flag(&mut args, "--rank");
    let request = if let Some(phi) = hh {
        Request::HeavyHitters(
            phi.parse()
                .map_err(|e| format!("bad --heavy-hitters: {e}"))?,
        )
    } else if let Some(item) = est {
        Request::Point(item.parse().map_err(|e| format!("bad --estimate: {e}"))?)
    } else if let Some(phi) = quant {
        Request::Quantile(phi.parse().map_err(|e| format!("bad --quantile: {e}"))?)
    } else if let Some(x) = rank {
        Request::Rank(x.parse().map_err(|e| format!("bad --rank: {e}"))?)
    } else {
        return Err("query needs one of --heavy-hitters / --estimate / --quantile / --rank".into());
    };
    let [path] = args.as_slice() else {
        return Err("query requires exactly one summary file".into());
    };
    let summary = load(path)?;
    match answer_query(&request, || Ok(&summary)) {
        Response::Items(hits) => {
            for (item, count) in hits {
                println!("{item}\t{count}");
            }
        }
        Response::Count(value) | Response::Value(Some(value)) => println!("{value}"),
        Response::Value(None) => return Err("summary is empty".into()),
        Response::Error(message) => return Err(message),
        other => return Err(format!("unexpected answer {other:?}")),
    }
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("info requires exactly one summary file".into());
    };
    let summary = load(path)?;
    println!("kind:           {}", summary.kind().label());
    println!("items absorbed: {}", summary.total_weight());
    println!("stored entries: {}", summary.size());
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    if take_switch(&mut args, "--coordinator") {
        return cmd_serve_coordinator(args);
    }
    let kind = parse_kind(&take_flag(&mut args, "--kind").ok_or("serve requires --kind")?)?;
    let epsilon =
        parse_epsilon(&take_flag(&mut args, "--epsilon").ok_or("serve requires --epsilon")?)?;
    let addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7433".to_string());
    let mut cfg = ServiceConfig::new(kind, epsilon);
    if let Some(shards) = take_flag(&mut args, "--shards") {
        cfg = cfg.shards(shards.parse().map_err(|e| format!("bad --shards: {e}"))?);
    }
    if let Some(seed) = take_flag(&mut args, "--seed") {
        cfg = cfg.seed(seed.parse().map_err(|e| format!("bad --seed: {e}"))?);
    }
    if take_switch(&mut args, "--no-telemetry") {
        cfg = cfg.telemetry(false);
    }
    if take_switch(&mut args, "--audit") {
        cfg = cfg.audit(true);
    }
    let max_inflight = take_flag(&mut args, "--max-inflight");
    let max_inflight_per_conn = take_flag(&mut args, "--max-inflight-per-conn");
    let shed_watermark = take_flag(&mut args, "--shed-watermark");
    let ingest_watermark = take_flag(&mut args, "--ingest-watermark");
    if max_inflight.is_some()
        || max_inflight_per_conn.is_some()
        || shed_watermark.is_some()
        || ingest_watermark.is_some()
    {
        let mut ocfg = OverloadConfig::default();
        if let Some(v) = &max_inflight {
            ocfg = ocfg.max_inflight(v.parse().map_err(|e| format!("bad --max-inflight: {e}"))?);
        }
        if let Some(v) = &max_inflight_per_conn {
            ocfg = ocfg.max_inflight_per_conn(
                v.parse()
                    .map_err(|e| format!("bad --max-inflight-per-conn: {e}"))?,
            );
        }
        if let Some(v) = &shed_watermark {
            ocfg = ocfg.shed_watermark(
                v.parse()
                    .map_err(|e| format!("bad --shed-watermark: {e}"))?,
            );
        }
        if let Some(v) = &ingest_watermark {
            ocfg = ocfg.ingest_watermark(
                v.parse()
                    .map_err(|e| format!("bad --ingest-watermark: {e}"))?,
            );
        }
        cfg = cfg.overload(ocfg);
    }
    let segment_batches = take_flag(&mut args, "--segment-batches");
    let segment_secs = take_flag(&mut args, "--segment-secs");
    let coarsen_watermark = take_flag(&mut args, "--coarsen-watermark");
    if coarsen_watermark.is_some() && segment_batches.is_none() && segment_secs.is_none() {
        return Err("--coarsen-watermark requires --segment-batches or --segment-secs".into());
    }
    if segment_batches.is_some() || segment_secs.is_some() {
        let mut scfg = SegmentConfig::new();
        if let Some(segments) = &coarsen_watermark {
            scfg = scfg.coarsen_watermark(
                segments
                    .parse()
                    .map_err(|e| format!("bad --coarsen-watermark: {e}"))?,
            );
        }
        if let Some(batches) = &segment_batches {
            scfg = scfg.seal_batches(
                batches
                    .parse()
                    .map_err(|e| format!("bad --segment-batches: {e}"))?,
            );
        }
        if let Some(secs) = &segment_secs {
            let secs: u64 = secs
                .parse()
                .map_err(|e| format!("bad --segment-secs: {e}"))?;
            let micros = secs
                .checked_mul(1_000_000)
                .ok_or("--segment-secs overflows")?;
            scfg = scfg.seal_micros(micros);
        }
        cfg = cfg.segments(scfg);
    }
    let fsync = take_flag(&mut args, "--fsync");
    let checkpoint_batches = take_flag(&mut args, "--checkpoint-batches");
    match take_flag(&mut args, "--data-dir") {
        Some(dir) => {
            let mut durability = DurabilityConfig::new(dir);
            if let Some(policy) = &fsync {
                durability.fsync = FsyncPolicy::parse(policy).ok_or_else(|| {
                    format!("bad --fsync '{policy}'; use always, never or every:N")
                })?;
            }
            if let Some(batches) = &checkpoint_batches {
                durability.checkpoint_batches = batches
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-batches: {e}"))?;
            }
            cfg = cfg.durability(durability);
        }
        None if fsync.is_some() || checkpoint_batches.is_some() => {
            return Err("--fsync / --checkpoint-batches require --data-dir".into());
        }
        None => {}
    }
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let engine = Engine::start(cfg).map_err(|e| format!("cannot start engine: {e}"))?;
    if let Some(r) = engine.recovery() {
        println!(
            "recovered: checkpoint seq {} ({} parts, weight {}), replayed {} WAL \
             records (weight {}) in {}us",
            r.checkpoint_seq,
            r.checkpoint_parts,
            r.preloaded_weight,
            r.replayed_records,
            r.replayed_weight,
            r.duration_micros
        );
        if r.corrupt_records + r.corrupt_checkpoints + r.duplicate_records + r.torn_bytes > 0 {
            println!(
                "recovery damage: {} corrupt WAL records, {} torn bytes, {} corrupt \
                 checkpoint parts, {} duplicates skipped",
                r.corrupt_records, r.torn_bytes, r.corrupt_checkpoints, r.duplicate_records
            );
        }
        if r.cube_segments_adopted + r.corrupt_cube_segments > 0 {
            println!(
                "segment cube: {} sealed segment(s) adopted, {} dropped",
                r.cube_segments_adopted, r.corrupt_cube_segments
            );
        }
        for note in &r.notes {
            println!("recovery note: {note}");
        }
    }
    let server =
        Server::bind(engine, addr.as_str()).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "listening on {} ({} engine, epsilon {}); close stdin to stop",
        server.local_addr(),
        kind.label(),
        epsilon
    );
    // Block until stdin closes, then shut the engine down gracefully so
    // in-flight deltas are merged and the final snapshot published.
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
    server.stop();
    eprintln!("server stopped");
    Ok(())
}

/// `serve --coordinator --nodes host:port,...`: a federation coordinator
/// speaking the same wire protocol as a single node, routing ingest by
/// consistent hash and answering queries by scatter/gather + one-shot
/// merge.
fn cmd_serve_coordinator(mut args: Vec<String>) -> Result<(), String> {
    let nodes =
        take_nodes(&mut args).ok_or("serve --coordinator requires --nodes host:port,...")?;
    let addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7433".to_string());
    let mut cfg = ClusterConfig::new(nodes);
    if take_switch(&mut args, "--replicas") {
        cfg = cfg.replicas(true);
    }
    if let Some(seed) = take_flag(&mut args, "--seed") {
        cfg = cfg.seed(seed.parse().map_err(|e| format!("bad --seed: {e}"))?);
    }
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let replicas = cfg.replicas;
    let backends = cfg.nodes.len();
    let coordinator =
        Coordinator::start(cfg).map_err(|e| format!("cannot start coordinator: {e}"))?;
    let server = Server::bind_service(coordinator, addr.as_str())
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!(
        "coordinating {} backend node{} on {}{}; close stdin to stop",
        backends,
        if backends == 1 { "" } else { "s" },
        server.local_addr(),
        if replicas { " (replica pairs)" } else { "" },
    );
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
    server.stop();
    eprintln!("coordinator stopped");
    Ok(())
}

fn cmd_bench_client(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--addr").ok_or("bench-client requires --addr")?;
    let items: usize = match take_flag(&mut args, "--items") {
        Some(v) => v.parse().map_err(|e| format!("bad --items: {e}"))?,
        None => 1_000_000,
    };
    let batch: usize = match take_flag(&mut args, "--batch") {
        Some(v) => v.parse().map_err(|e| format!("bad --batch: {e}"))?,
        None => 4_096,
    };
    let seed: u64 = match take_flag(&mut args, "--seed") {
        Some(v) => v.parse().map_err(|e| format!("bad --seed: {e}"))?,
        None => 42,
    };
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let stream = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 20,
    }
    .generate(items, seed);

    let mut client = mergeable_summaries::service::Client::connect(addr.as_str())
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    match client
        .call(&Request::Ping)
        .map_err(|e| format!("ping failed: {e}"))?
    {
        Response::Ok => {}
        other => return Err(format!("unexpected ping response {other:?}")),
    }

    // Warm the client's reusable request-frame buffer so the measured
    // loop reflects steady state, then stream borrowed batches: every
    // send serializes into the same scratch, no per-batch `Vec`.
    let first = stream.chunks(batch.max(1)).next().unwrap_or(&[]);
    client
        .ingest_slice(first)
        .map_err(|e| format!("ingest failed: {e}"))?;
    let mut sent_items = 0u64;
    let start = Instant::now();
    for chunk in stream.chunks(batch.max(1)).skip(1) {
        client
            .ingest_slice(chunk)
            .map_err(|e| format!("ingest failed: {e}"))?;
        sent_items += chunk.len() as u64;
    }
    let secs = start.elapsed().as_secs_f64();
    client.flush().map_err(|e| format!("flush failed: {e}"))?;

    let m = client
        .metrics()
        .map_err(|e| format!("metrics failed: {e}"))?;
    println!(
        "sent {items} items in {secs:.3}s ({:.0} updates/sec)",
        sent_items as f64 / secs
    );
    println!("engine updates:   {}", m.updates);
    println!("engine batches:   {}", m.batches);
    println!("engine merges:    {}", m.merges);
    println!("snapshot epoch:   {}", m.epoch);
    println!("snapshot weight:  {}", m.snapshot_weight);
    println!("snapshot age:     {}us", m.snapshot_age_micros);
    println!("shards lost:      {}", m.shards_lost);
    println!("frames rejected:  {}", m.frames_rejected);

    Ok(())
}

fn cmd_store(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("inspect") => cmd_store_inspect(&args[1..]),
        Some(other) => Err(format!(
            "unknown store subcommand '{other}'; try: mergeable store inspect DIR [--json]"
        )),
        None => Err("usage: mergeable store inspect DIR [--json]".into()),
    }
}

fn cmd_store_inspect(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let json = take_switch(&mut args, "--json");
    let [dir] = args.as_slice() else {
        return Err("store inspect requires exactly one data directory".into());
    };
    let path = std::path::Path::new(dir);
    if !path.is_dir() {
        return Err(format!("{dir} is not a directory"));
    }
    let report = mergeable_summaries::store::inspect(path)
        .map_err(|e| format!("cannot inspect {dir}: {e}"))?;

    if json {
        println!("{}", report.to_json().to_string_pretty());
        return Ok(());
    }

    println!("== WAL segments ==");
    if report.segments.is_empty() {
        println!("(none)");
    } else {
        println!(
            "{:<28} {:>10} {:>8} {:>10} {:>10} {:>6} {:>10}",
            "file", "bytes", "records", "first_seq", "last_seq", "spans", "torn_bytes"
        );
        for s in &report.segments {
            println!(
                "{:<28} {:>10} {:>8} {:>10} {:>10} {:>6} {:>10}",
                s.file, s.bytes, s.records, s.first_seq, s.last_seq, s.corrupt_spans, s.torn_bytes
            );
        }
    }
    println!();
    println!("== checkpoint parts (newest set first) ==");
    if report.checkpoints.is_empty() {
        println!("(none)");
    } else {
        println!(
            "{:<34} {:>8} {:>5} {:>3} {:>10} {:>7}  status",
            "file", "bytes", "shard", "of", "wal_seq", "epoch"
        );
        for c in &report.checkpoints {
            println!(
                "{:<34} {:>8} {:>5} {:>3} {:>10} {:>7}  {}",
                c.file, c.bytes, c.shard, c.shards_total, c.wal_seq, c.epoch, c.status
            );
        }
    }
    println!();
    println!(
        "total records: {}   total damage: {}",
        report.total_records(),
        report.total_damage()
    );
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let prom = take_switch(&mut args, "--prom");
    let accuracy = take_switch(&mut args, "--accuracy");
    let cluster = take_switch(&mut args, "--cluster");
    if cluster {
        return cmd_metrics_cluster(args, prom);
    }
    let addr = take_flag(&mut args, "--addr").ok_or("metrics requires --addr")?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let mut client = mergeable_summaries::service::Client::connect(addr.as_str())
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if accuracy {
        let audit = client
            .accuracy()
            .map_err(|e| format!("accuracy scrape failed: {e}"))?;
        print_accuracy(&audit);
        return Ok(());
    }
    let snap = client
        .telemetry()
        .map_err(|e| format!("telemetry scrape failed: {e}"))?;

    if prom {
        print!("{}", mergeable_summaries::obs::render_prometheus(&snap));
        return Ok(());
    }
    print_registry(&snap);
    Ok(())
}

/// `metrics --cluster --nodes a,b,c`: one gather by an in-process
/// [`Coordinator`] over the nodes — the same fold `serve --coordinator`
/// answers `metrics` with, so a node that refuses the connection and one
/// that fails its scrape are both skipped, and the live ones merge.
fn cmd_metrics_cluster(mut args: Vec<String>, prom: bool) -> Result<(), String> {
    let nodes = take_nodes(&mut args).ok_or("metrics --cluster requires --nodes host:port,...")?;
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let coordinator = Coordinator::start(ClusterConfig::new(nodes))
        .map_err(|e| format!("cannot start coordinator: {e}"))?;
    let gathered = coordinator
        .metrics()
        .map(|report| (report, coordinator.telemetry_merged()));
    let info = coordinator.cluster_info();
    coordinator.shutdown();
    let (report, snap) = gathered.map_err(|e| format!("no node could be scraped: {e}"))?;

    if prom {
        print!("{}", mergeable_summaries::obs::render_prometheus(&snap));
        return Ok(());
    }
    println!("== cluster ==");
    for node in &info.nodes {
        println!("{:<44} {}", node.addr, node.state.label());
    }
    println!("{:<44} {}", "updates", report.updates);
    println!("{:<44} {}", "batches", report.batches);
    println!("{:<44} {}", "merges", report.merges);
    println!("{:<44} {}", "snapshot_weight", report.snapshot_weight);
    println!("{:<44} {}", "epoch (max)", report.epoch);
    println!(
        "{:<44} {}",
        "snapshot_age_micros (max)", report.snapshot_age_micros
    );
    println!("{:<44} {}", "shards_lost", report.shards_lost);
    println!("{:<44} {}", "frames_rejected", report.frames_rejected);
    println!();
    print_registry(&snap);
    Ok(())
}

/// `metrics --accuracy`: the audit plane's live comparison of the
/// served summary against its deterministic ground truth.
fn print_accuracy(audit: &mergeable_summaries::service::AccuracyAudit) {
    println!("== accuracy audit ==");
    println!("{:<24} {}", "kind", audit.kind);
    println!("{:<24} {}", "epsilon", audit.epsilon);
    println!("{:<24} {}", "weight (n)", audit.weight);
    println!("{:<24} {:.1}", "envelope (eps*n)", audit.envelope);
    println!("{:<24} {}", "merges", audit.merges);
    println!("{:<24} {}", "merge tree depth", audit.depth);
    println!("{:<24} {}", "nodes", audit.nodes);
    println!("{:<24} {}", "audit weight", audit.audit_weight);
    if audit.reservoir_len > 0 {
        println!("{:<24} {}", "reservoir size", audit.reservoir_len);
    } else {
        println!("{:<24} {}", "audited keys", audit.audited_items);
    }
    println!("{:<24} {:.1}", "observed error", audit.observed_error);
    println!("{:<24} {:.1}", "sampling slack", audit.sampling_slack);
    println!(
        "{:<24} {}",
        "within bound",
        if audit.within_bound {
            "yes (observed <= envelope + slack)"
        } else {
            "NO — bound violated"
        }
    );
    if audit.audit_weight == 0 {
        println!("note: audit plane is off; start the server with --audit for observed error");
    }
}

/// `trace --addr A [--nodes ...]`: pull every process's flight-recorder
/// rings and stitch them into causally-ordered trace trees. Ordering
/// comes from the parent-span links, never from clocks — each process
/// stamps events against its own monotonic origin.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--addr").ok_or("trace requires --addr")?;
    let json = take_switch(&mut args, "--json");
    let nodes = take_nodes(&mut args).unwrap_or_default();
    if !args.is_empty() {
        return Err(format!("unexpected arguments: {args:?}"));
    }

    let mut sources = Vec::new();
    let mut client = mergeable_summaries::service::Client::connect(addr.as_str())
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let dump = client
        .trace_dump()
        .map_err(|e| format!("{addr}: trace dump failed: {e}"))?;
    sources.push((addr.clone(), dump));
    for node in &nodes {
        let mut client = match mergeable_summaries::service::Client::connect(node.as_str()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("warning: skipping {node}: {e}");
                continue;
            }
        };
        match client.trace_dump() {
            Ok(dump) => sources.push((node.clone(), dump)),
            Err(e) => eprintln!("warning: skipping {node}: {e}"),
        }
    }

    let spans = mergeable_summaries::service::stitch(&sources);
    if json {
        print_trace_json(&spans);
        return Ok(());
    }
    if spans.is_empty() {
        println!("(no traced spans recorded — is telemetry enabled?)");
        return Ok(());
    }
    let mut current_trace = 0u64;
    let mut trace_count = 0usize;
    for span in &spans {
        if span.trace_id != current_trace {
            current_trace = span.trace_id;
            trace_count += 1;
            println!("trace {:016x}", span.trace_id);
        }
        let extras: String = span
            .fields
            .iter()
            .filter(|(k, _)| k != "trace" && k != "span" && k != "parent")
            .map(|(k, v)| format!(" {k}={v}"))
            .collect();
        println!(
            "  {:indent$}{} [{}/{}] {}us span={:x}{}",
            "",
            span.name,
            span.source,
            span.thread,
            span.duration_micros,
            span.span_id,
            extras,
            indent = 2 * span.depth,
        );
    }
    eprintln!(
        "{} span(s) in {} trace(s) across {} process(es)",
        spans.len(),
        trace_count,
        sources.len()
    );
    Ok(())
}

fn print_trace_json(spans: &[mergeable_summaries::service::StitchedSpan]) {
    println!("[");
    for (i, span) in spans.iter().enumerate() {
        let fields: String = span
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "  {{\"trace\": \"{:016x}\", \"span\": \"{:x}\", \"parent\": \"{:x}\", \
             \"depth\": {}, \"source\": \"{}\", \"thread\": \"{}\", \"name\": \"{}\", \
             \"start_micros\": {}, \"duration_micros\": {}, \"fields\": {{{}}}}}{}",
            span.trace_id,
            span.span_id,
            span.parent_span,
            span.depth,
            span.source,
            span.thread,
            span.name,
            span.start_micros,
            span.duration_micros,
            fields,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    println!("]");
}

fn print_registry(snap: &mergeable_summaries::obs::RegistrySnapshot) {
    if !snap.counters.is_empty() {
        println!("== counters ==");
        for (name, value) in &snap.counters {
            println!("{name:<44} {value}");
        }
    }
    if !snap.gauges.is_empty() {
        println!("== gauges ==");
        for (name, value) in &snap.gauges {
            println!("{name:<44} {value}");
        }
    }
    if !snap.histograms.is_empty() {
        println!("== histograms (microseconds) ==");
        println!(
            "{:<44} {:>10} {:>8} {:>8} {:>8} {:>10}",
            "name", "count", "p50", "p95", "p99", "max"
        );
        for (name, h) in &snap.histograms {
            println!(
                "{:<44} {:>10} {:>8} {:>8} {:>8} {:>10}",
                name,
                h.count,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max
            );
        }
    }
}
