//! From measured windows to named metrics, result files and the one-line
//! result the benchmark driver reads.

use crate::check::Verdict;
use crate::host;
use crate::load::WindowOut;
use crate::spec::{self, Class, Role, Workload, END_TO_END, SHARDS};
use crate::stats::{iqr_share, median, quantile_us};
use ms_core::json::Json;
use std::path::Path;

/// How a run's per-window values become the one value it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pick {
    Median,
    /// The least disturbed window: the largest value of a
    /// higher-is-better metric, the smallest of a lower-is-better one.
    /// The benchmark host (a small KVM guest) drops for seconds at a time
    /// into a mode in which identical work costs about a quarter more CPU;
    /// a median over windows flips between the two modes from run to run,
    /// the best window does not as long as one window escapes.
    Best {
        higher_is_better: bool,
    },
}

/// One reported number and the per-window (or per-set-up) values behind it.
pub struct Value {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
    /// How far the value would move if its window had been disturbed too,
    /// as a share of the value: the distance to the runner-up window
    /// (`Pick::Best`) or the interquartile range (`Pick::Median`).
    pub spread: f64,
    /// Latency samples behind the value, 0 where that has no meaning.
    pub n: u64,
}

impl Value {
    pub fn of(name: &str, unit: &'static str, samples: Vec<f64>, pick: Pick, n: u64) -> Value {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|s| s.is_finite()).collect();
        sorted.sort_by(f64::total_cmp);
        let (value, spread) = match pick {
            Pick::Median => (median(&sorted), iqr_share(&sorted)),
            Pick::Best { higher_is_better } => {
                if higher_is_better {
                    sorted.reverse();
                }
                match sorted[..] {
                    [] => (f64::NAN, 0.0),
                    [only] => (only, 0.0),
                    [best, next, ..] => (best, ((next - best) / best).abs()),
                }
            }
        };
        Value {
            name: name.to_string(),
            unit,
            value,
            samples,
            spread,
            n,
        }
    }

    pub fn single(name: &str, unit: &'static str, value: f64) -> Value {
        Value::of(name, unit, vec![value], Pick::Median, 0)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value".to_string(), Json::F64(self.value)),
            ("unit".to_string(), Json::Str(self.unit.to_string())),
            (
                "samples".to_string(),
                Json::Arr(self.samples.iter().map(|&s| Json::F64(s)).collect()),
            ),
            ("spread".to_string(), Json::F64(self.spread)),
            ("n".to_string(), Json::U64(self.n)),
        ];
        if let Some(m) = spec::metric(&self.name) {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            fields.push(("better".to_string(), Json::Str(better.to_string())));
            fields.push(("bound".to_string(), Json::F64(m.bound)));
        }
        Json::Obj(fields)
    }
}

const LOWEST: Pick = Pick::Best {
    higher_is_better: false,
};

/// The best window's `phi`-quantile of one latency class, in µs. Windows
/// without a sample of the class are left out.
pub fn latency(outs: &[WindowOut], name: &str, class: Class, phi: f64) -> Value {
    let windows = || outs.iter().map(|out| &out.tally.lat_ns[class as usize]);
    let per_window = windows()
        .filter(|w| !w.is_empty())
        .map(|w| quantile_us(w, phi))
        .collect();
    let n = windows().map(|w| w.len() as u64).sum();
    Value::of(name, "us", per_window, LOWEST, n)
}

/// The end-to-end metrics of one run (one window per set-up), in
/// `END_TO_END` order.
pub fn end_to_end(outs: &[WindowOut], setups: &[f64]) -> Vec<Value> {
    let per_window = |pick: fn(&WindowOut) -> f64| outs.iter().map(pick).collect::<Vec<f64>>();
    let values = vec![
        Value::of("setup_s", "s", setups.to_vec(), Pick::Median, 0),
        Value::of(
            "ingest_items_per_s",
            "items/s",
            per_window(|o| o.items_per_s),
            Pick::Best {
                higher_is_better: true,
            },
            0,
        ),
        Value::of(
            "cpu_s_per_mitem",
            "s",
            per_window(|o| o.cpu_s_per_mitem),
            LOWEST,
            0,
        ),
        latency(outs, "read_p50_us", Class::Read, 0.5),
        Value::of(
            "peak_rss_mb",
            "MiB",
            per_window(|o| o.peak_rss_mib),
            LOWEST,
            0,
        ),
    ];
    debug_assert!(values
        .iter()
        .map(|v| v.name.as_str())
        .eq(END_TO_END.iter().map(|m| m.name)));
    values
}

/// What the result file keeps beside the end-to-end metrics, without a
/// bound: the five latencies the spread study demoted, the range latencies
/// only the cube workloads produce with the coverage they achieved, and the
/// open-loop generator's lateness.
pub fn extras(outs: &[WindowOut]) -> Vec<Value> {
    let mut extras = vec![
        latency(outs, "ingest_ack_p50_us", Class::Ack, 0.5),
        latency(outs, "ingest_ack_p99_us", Class::Ack, 0.99),
        latency(outs, "point_p50_us", Class::Point, 0.5),
        latency(outs, "hh_p50_us", Class::Hh, 0.5),
        latency(outs, "read_p99_us", Class::Read, 0.99),
    ];
    for (label, class) in [
        ("range1", Class::Range1),
        ("range8", Class::Read),
        ("range64", Class::Range64),
        ("range_hh8", Class::RangeHh),
    ] {
        let (sum, n) = outs.iter().fold((0, 0), |(sum, n), out| {
            let (s, k) = out.tally.covered[class as usize];
            (sum + s, n + k)
        });
        if n > 0 {
            extras.push(latency(outs, &format!("{label}_p50_us"), class, 0.5));
            extras.push(latency(outs, &format!("{label}_p99_us"), class, 0.99));
            extras.push(Value::single(
                &format!("{label}_segments_merged"),
                "count",
                sum as f64 / n as f64,
            ));
        }
    }
    let late: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.tally.late_ns.iter().copied())
        .collect();
    if !late.is_empty() {
        extras.push(Value::single(
            "gen_late_p99_us",
            "us",
            quantile_us(&late, 0.99),
        ));
    }
    extras
}

/// Everything `ledger run` learnt about one workload.
pub struct WorkloadResult {
    pub workload: &'static Workload,
    pub server: Vec<String>,
    pub metrics: Vec<Value>,
    pub extras: Vec<Value>,
    pub attempted: u64,
    pub failed: u64,
    pub verdict: Verdict,
    pub warmup_items_per_s: f64,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.verdict.failures.is_empty() && self.failed == 0
    }

    /// `workload metric value unit` lines, then the check outcome.
    pub fn print(&self) {
        let name = self.workload.name;
        for v in self.metrics.iter().chain(&self.extras) {
            println!("{name} {} {} {}", v.name, v.value, v.unit);
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{name} failed_frac {failed_frac} ratio");
        for failure in &self.verdict.failures {
            println!("{name} CHECK FAILED: {failure}");
        }
        println!(
            "{name} checks {}",
            if self.correct() { "ok" } else { "FAILED" }
        );
    }

    fn to_json(&self) -> Json {
        let w = self.workload;
        let roles: Vec<Json> = w
            .roles
            .iter()
            .map(|role| {
                Json::Str(match *role {
                    Role::ClosedIngest { probes } => format!(
                        "closed-loop ingest, {}-item batches{}",
                        w.batch,
                        if probes {
                            format!(", probes at {}/s", spec::PROBES_PER_S)
                        } else {
                            String::new()
                        }
                    ),
                    Role::OpenIngest { batches_per_s } => format!(
                        "open-loop ingest, {}-item batches at {batches_per_s}/s",
                        w.batch
                    ),
                    Role::OpenReader { per_s } => format!("open-loop reader at {per_s} q/s"),
                })
            })
            .collect();
        let named = |values: &[Value]| {
            Json::Obj(
                values
                    .iter()
                    .map(|v| (v.name.clone(), v.to_json()))
                    .collect(),
            )
        };
        Json::obj([
            ("name", Json::Str(w.name.to_string())),
            ("why", Json::Str(w.why.to_string())),
            ("server", Json::arr(self.server.clone())),
            ("clients", Json::Arr(roles)),
            (
                "probes",
                Json::arr(w.probes.iter().map(|q| format!("{q:?}"))),
            ),
            (
                "fsync",
                Json::Str(if w.wal { "never" } else { "no WAL" }.to_string()),
            ),
            ("warmup_items", Json::U64(w.warmup_items as u64)),
            ("warmup_items_per_s", Json::F64(self.warmup_items_per_s)),
            ("correct", Json::Bool(self.correct())),
            ("check_failures", Json::arr(self.verdict.failures.clone())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            (
                "failed_frac",
                Json::F64(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "max_err_over_eps_n",
                Json::F64(self.verdict.max_err_over_eps_n),
            ),
            ("hh_recall", Json::F64(self.verdict.hh_recall)),
            ("recover_ms", Json::arr(self.verdict.recover_ms.clone())),
            ("metrics", named(&self.metrics)),
            ("extras", named(&self.extras)),
        ])
    }
}

/// The head every result file carries: what was run, on what.
pub fn file_head(kind: &str, root: &Path, seed: u64, seconds: f64) -> Vec<(String, Json)> {
    vec![
        ("kind".to_string(), Json::Str(kind.to_string())),
        ("seed".to_string(), Json::U64(seed)),
        ("seconds".to_string(), Json::F64(seconds)),
        ("setups".to_string(), Json::U64(spec::SETUPS as u64)),
        (
            "reported".to_string(),
            Json::Str("best window of the set-ups; setup_s their median".to_string()),
        ),
        ("shards".to_string(), Json::U64(SHARDS as u64)),
        (
            "stream".to_string(),
            Json::Str(format!(
                "Zipf{{s:1.1, universe:{}}} x {} items, replayed cyclically",
                spec::UNIVERSE,
                spec::BASE_ITEMS
            )),
        ),
        ("host".to_string(), host::facts(root)),
    ]
}

pub fn e2e_file(root: &Path, seed: u64, seconds: f64, results: &[WorkloadResult]) -> Json {
    let mut fields = file_head("e2e", root, seed, seconds);
    fields.push((
        "workloads".to_string(),
        Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
    ));
    Json::Obj(fields)
}

/// The last line of standard output in driver mode.
pub fn driver_line(correct: bool, attempted: u64, failed: u64, metrics: &[Value]) -> String {
    let metrics = metrics
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
        .collect();
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted.max(1))),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

pub fn write_file(path: &Path, json: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, json.to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}
