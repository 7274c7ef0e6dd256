//! `ledger trace`: the per-layer half of the stage ledger (bin of the
//! `trace/` package). For each workload:
//!
//! 1. the live workload once more, half the window untraced (with the 1 Hz
//!    counter reads), half with `client.*` spans around every round trip —
//!    the difference between the two halves is the tracing overhead;
//! 2. counters read over the wire (`Metrics`, `Telemetry`, `SegmentInfo`);
//! 3. the in-process stage replay of `replay.rs`.
//!
//! Writes `ledger/results/BENCH_layers.json` and raw spans to `ledger/out/`.

mod probes;
mod replay;

use ledger::args::Args;
use ledger::check;
use ledger::conn::SpanConn;
use ledger::host;
use ledger::load::{set_up, window, WindowOut};
use ledger::report::{self, latency, Value};
use ledger::span::{self, Span};
use ledger::spec::{Class, Workload, PER_LAYER};
use ledger::stats::{median, quantile_us};
use ledger::sut;
use ms_core::json::Json;
use ms_service::Client;
use replay::Stage;
use std::io::BufWriter;
use std::process::ExitCode;

struct Layers {
    workload: &'static Workload,
    /// Every per-layer number, `PER_LAYER` ones first.
    values: Vec<Value>,
    stages: Json,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn p50_of(spans: &[Vec<Span>], name: &str) -> f64 {
    let ns: Vec<u64> = spans
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    quantile_us(&ns, 0.5)
}

fn trace_workload(args: &Args, w: &'static Workload) -> Result<Layers, String> {
    let out_dir = args.out_dir();
    let mut setup = set_up(&args.server_bin, &out_dir, w, args.seed)?;
    let half = args.seconds / 2.0;
    let untraced = window::<Client>(&mut setup, w, half, true);

    // Counters, at the boundary of the untraced window.
    let mut control = Client::connect(setup.sut.front.as_str()).map_err(|e| e.to_string())?;
    let metrics = control.metrics().map_err(|e| format!("metrics: {e}"))?;
    let telemetry = control.telemetry().map_err(|e| format!("telemetry: {e}"))?;
    let sealed = match control.segments() {
        Ok(report) => report.segments.iter().filter(|s| s.sealed).count() as f64,
        Err(_) => 0.0, // no cube on this workload
    };
    drop(control);

    let traced = window::<SpanConn>(&mut setup, w, half, false);
    let verdict = check::verify(&mut setup, w, &[&untraced, &traced]);
    let stream = &setup.stream;

    // In-process replay, in a scratch data directory of its own.
    let scratch = out_dir.join(format!("replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let path = replay::ingest_path(w, stream, &scratch.join("stages"));
    let engine_dir = w.wal.then(|| scratch.join("engine"));
    let engine_stage = replay::engine_ingest(w, stream, engine_dir.as_deref(), true);
    let crc = replay::crc(w, stream);
    let queries = replay::queries(w, stream);
    let (telemetry_pct, telemetry_spread) = replay::telemetry_overhead(w, stream);
    let _ = std::fs::remove_dir_all(&scratch);

    // Raw spans: the client side of the traced window, then the replay.
    let spans_path = out_dir.join(format!("spans-{}.csv", w.name));
    let write_spans = || -> std::io::Result<()> {
        let mut file = BufWriter::new(std::fs::File::create(&spans_path)?);
        for (thread, spans) in traced.spans.iter().enumerate() {
            span::write_csv(&mut file, thread, spans)?;
        }
        span::write_csv(&mut file, 2, &path.spans)
    };
    write_spans().map_err(|e| format!("{}: {e}", spans_path.display()))?;

    // Live latencies come from the untraced half.
    let live_latency = |class, phi| latency(std::slice::from_ref(&untraced), "", class, phi).value;
    let ack_p50_us = live_latency(Class::Ack, 0.5);
    let rate = |out: &WindowOut| out.items_per_s;
    let counter = |name: &str| telemetry.counter(name).unwrap_or(0) as f64;
    let updates = metrics.updates.max(1) as f64;

    // Stage table: every stage with calls, cost, share of the replayed
    // root and share of the live ack.
    let on_path_us_per_batch: f64 = path
        .stages
        .iter()
        .filter(|s| s.on_path)
        .map(|s| s.self_ns as f64 / 1e3 / path.batches as f64)
        .sum();
    let mut values: Vec<Value> = Vec::new();
    let mut rows = Vec::new();
    let all_stages = path
        .stages
        .iter()
        .map(|s| (s, true))
        .chain([(&crc, false), (&engine_stage, false)])
        .chain(queries.stages.iter().map(|s| (s, false)));
    for (stage, per_batch) in all_stages {
        let unit = match stage.name {
            "wal.crc" => "ns_per_byte",
            n if n.starts_with("summary.") && n != "summary.update_batch" => "ns_per_call",
            "cluster.merge_gather" => "ns_per_call",
            _ => "ns_per_item",
        };
        values.push(Value::single(
            &format!("{}.{unit}", stage.name),
            "ns",
            stage.ns_per(),
        ));
        let us_per_batch = stage.self_ns as f64 / 1e3 / path.batches as f64;
        rows.push(stage_row(
            stage,
            unit,
            per_batch.then_some((us_per_batch, path.root_ns, ack_p50_us)),
        ));
    }
    // The shards' queue-wait histograms are mergeable like everything else.
    let queue_wait = telemetry
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("queue_wait_micros"))
        .fold(ms_obs::HistogramSnapshot::default(), |all, (_, h)| {
            all.merge(h)
        });
    let pool_gets = counter("pool_reuses_total") + counter("pool_misses_total");
    let shed: f64 = telemetry
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("admission_shed_total"))
        .map(|&(_, v)| v as f64)
        .sum();
    for (name, unit, value) in [
        (
            "server.residual_us_per_batch",
            "us",
            ack_p50_us - on_path_us_per_batch,
        ),
        ("cube.query_us_base", "us", queries.cube_query_us_base),
        (
            "cube.query_us_per_segment",
            "us",
            queries.cube_query_us_per_segment,
        ),
        ("live.ingest_ack_p50_us", "us", ack_p50_us),
        (
            "live.ingest_ack_p99_us",
            "us",
            live_latency(Class::Ack, 0.99),
        ),
        ("live.point_p50_us", "us", live_latency(Class::Point, 0.5)),
        ("live.hh_p50_us", "us", live_latency(Class::Hh, 0.5)),
        ("live.read_p99_us", "us", live_latency(Class::Read, 0.99)),
        (
            "client.encode.p50_us",
            "us",
            p50_of(&traced.spans, "client.encode"),
        ),
        (
            "client.send.p50_us",
            "us",
            p50_of(&traced.spans, "client.send"),
        ),
        (
            "client.await_reply.p50_us",
            "us",
            p50_of(&traced.spans, "client.await_reply"),
        ),
        (
            "client.decode.p50_us",
            "us",
            p50_of(&traced.spans, "client.decode"),
        ),
        (
            "trace.overhead_pct",
            "%",
            (rate(&untraced) / rate(&traced) - 1.0) * 100.0,
        ),
        ("trace.span_cost_ns", "ns", path.span_cost_ns),
        ("obs.telemetry_overhead_pct", "%", telemetry_pct),
        ("obs.telemetry_overhead_spread_pct", "%", telemetry_spread),
        ("engine.batches", "count", metrics.batches as f64),
        ("engine.merges", "count", metrics.merges as f64),
        ("engine.epochs", "count", metrics.epoch as f64),
        ("engine.dropped", "count", metrics.dropped as f64),
        ("engine.retries", "count", metrics.retries as f64),
        (
            "engine.snapshot_lag_items",
            "count",
            median(&untraced.tally.lag_items),
        ),
        ("ring.queue_wait_mean_us", "us", queue_wait.mean()),
        (
            "ring.queue_depth_max",
            "count",
            untraced.tally.queue_depth_max as f64,
        ),
        (
            "wal.bytes_per_item",
            "bytes",
            counter("wal_bytes_total") / updates,
        ),
        (
            "wal.records_per_group",
            "count",
            counter("wal_records_total") / counter("wal_group_commits_total").max(1.0),
        ),
        ("wal.fsyncs", "count", counter("wal_fsyncs_total")),
        ("checkpoint.count", "count", counter("checkpoints_total")),
        ("cube.segments_sealed", "count", sealed),
        (
            "cube.coarsened_pairs",
            "count",
            counter("cube_coarsen_total"),
        ),
        (
            "pool.reuse_pct",
            "%",
            counter("pool_reuses_total") / pool_gets.max(1.0) * 100.0,
        ),
        ("overload.shed_total", "count", shed),
        (
            "wire.bytes_in_per_item",
            "bytes",
            counter("server_bytes_in_total") / updates,
        ),
        (
            "accuracy.max_err_over_eps_n",
            "ratio",
            verdict.max_err_over_eps_n,
        ),
        ("accuracy.hh_recall", "ratio", verdict.hh_recall),
    ] {
        values.push(Value::single(name, unit, value));
    }
    // `PER_LAYER` order first; what only this workload produces after it.
    let mut ordered: Vec<Value> = Vec::with_capacity(values.len());
    for (name, ..) in PER_LAYER {
        let at = values
            .iter()
            .position(|v| v.name == *name)
            .ok_or(format!("per-layer metric {name} was not measured"))?;
        ordered.push(values.swap_remove(at));
    }
    let live = [untraced, traced];
    ordered.push(Value::single(
        "ring.queue_wait_p99_us",
        "us",
        queue_wait.quantile(0.99) as f64,
    ));
    ordered.push(Value::single(
        "gen.failed_frac",
        "ratio",
        live.iter().map(|o| o.tally.failed).sum::<u64>() as f64
            / live.iter().map(|o| o.tally.attempted).sum::<u64>().max(1) as f64,
    ));
    if let Some(ms) = verdict.recover_ms.first() {
        ordered.push(Value::single("store.recover_ms", "ms", *ms));
    }
    let extras = report::extras(&live);
    let extra = |name: &str| extras.iter().find(|v| v.name == name).map(|v| v.value);
    // Live range cost per covered segment, where 1- and 64-segment windows ran.
    if let (Some(t1), Some(t64), Some(c1), Some(c64)) = (
        extra("range1_p50_us"),
        extra("range64_p50_us"),
        extra("range1_segments_merged"),
        extra("range64_segments_merged"),
    ) {
        ordered.push(Value::single(
            "cube.range_us_per_segment",
            "us",
            (t64 - t1) / (c64 - c1),
        ));
    }
    if let Some(late) = extra("gen_late_p99_us") {
        ordered.push(Value::single("gen.late_p99_us", "us", late));
    }

    Ok(Layers {
        workload: w,
        values: ordered,
        stages: Json::Arr(rows),
        attempted: live.iter().map(|o| o.tally.attempted).sum(),
        failed: live.iter().map(|o| o.tally.failed).sum(),
        failures: verdict.failures,
    })
}

/// One row of the stage table. `path` = (µs per batch, Σ root ns, live ack
/// p50 µs) for stages replayed under the per-batch root.
fn stage_row(stage: &Stage, unit: &str, path: Option<(f64, u64, f64)>) -> Json {
    let mut fields = vec![
        ("stage".to_string(), Json::Str(stage.name.to_string())),
        ("calls".to_string(), Json::U64(stage.calls)),
        (unit.to_string(), Json::F64(stage.ns_per())),
        ("on_path".to_string(), Json::Bool(stage.on_path)),
    ];
    if let Some((us_per_batch, root_ns, ack_p50_us)) = path {
        let share = |of: f64| if stage.on_path { of } else { 0.0 };
        fields.push(("us_per_batch".to_string(), Json::F64(us_per_batch)));
        fields.push((
            "share_pct".to_string(),
            Json::F64(share(stage.self_ns as f64 / root_ns as f64 * 100.0)),
        ));
        fields.push((
            "share_of_ack_pct".to_string(),
            Json::F64(share(us_per_batch / ack_p50_us * 100.0)),
        ));
    }
    Json::Obj(fields)
}

fn run(argv: impl Iterator<Item = String>) -> Result<bool, String> {
    let args = Args::parse(argv)?;
    sut::sweep_stale(&args.out_dir());
    host::pin_to_one_core();
    let mut all = Vec::new();
    for w in args.workloads() {
        let layers = trace_workload(&args, w)?;
        for v in &layers.values {
            println!("{} {} {} {}", w.name, v.name, v.value, v.unit);
        }
        for failure in &layers.failures {
            println!("{} CHECK FAILED: {failure}", w.name);
        }
        all.push(layers);
    }
    let correct = all.iter().all(|l| l.failures.is_empty() && l.failed == 0);
    if args.workload.is_none() || args.out.is_some() {
        let mut fields = report::file_head("layers", &args.root, args.seed, args.seconds);
        let workloads = all
            .iter()
            .map(|l| {
                Json::obj([
                    ("name", Json::Str(l.workload.name.to_string())),
                    (
                        "correct",
                        Json::Bool(l.failures.is_empty() && l.failed == 0),
                    ),
                    ("check_failures", Json::arr(l.failures.clone())),
                    ("stages", l.stages.clone()),
                    (
                        "metrics",
                        Json::Obj(
                            l.values
                                .iter()
                                .map(|v| {
                                    (
                                        v.name.clone(),
                                        Json::obj([
                                            ("value", Json::F64(v.value)),
                                            ("unit", Json::Str(v.unit.to_string())),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        fields.push(("workloads".to_string(), Json::Arr(workloads)));
        let path = args.result_path("BENCH_layers.json");
        report::write_file(&path, &Json::Obj(fields))?;
        println!("wrote {}", path.display());
    }
    println!("shard_scaling unmeasured (see host.shard_scaling in the result file)");
    if args.workload.is_some() {
        let l = &all[0];
        println!(
            "{}",
            report::driver_line(correct, l.attempted, l.failed, &l.values[..PER_LAYER.len()])
        );
    }
    Ok(correct)
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger trace: {e}");
            ExitCode::from(2)
        }
    }
}
