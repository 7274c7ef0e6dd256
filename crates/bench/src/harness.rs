//! Self-contained micro-benchmark harness.
//!
//! The `cpu_kernels` bench (a `harness = false` binary) is built on this
//! module: it registers closures with a [`Suite`], which warms each row
//! up, sizes its iteration count from one warm call against a wall-clock
//! budget, times it in [`BATCHES`] batches, and prints an aligned table of
//! the median batch's ns/iter plus throughput. A row's first calls pay
//! for cold caches, page faults and lazily built state, which the warm-up
//! absorbs; a preempted batch moves a mean, not the median.
//!
//! Environment knobs:
//!
//! * `MS_BENCH_MS` — measurement budget per benchmark in milliseconds
//!   (default 200). `MS_BENCH_MS=1` makes a full bench run finish in
//!   seconds, for a quick smoke run of `cargo bench`.

use std::time::{Duration, Instant};

/// Timed batches per row; the row reports the median batch.
pub const BATCHES: u64 = 9;
/// Untimed calls that warm a row up, at the least (it warms for a tenth
/// of its budget).
pub const WARM_CALLS: u64 = 2;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label within its suite.
    pub label: String,
    /// Iterations actually timed, over all batches.
    pub iters: u64,
    /// Calls made before timing began: the warm-up, then the sizing call.
    pub untimed: u64,
    /// Wall-clock nanoseconds per iteration of the median batch.
    pub ns_per_iter: f64,
    /// Logical elements processed per iteration (0 = unset).
    pub elements: u64,
}

impl Measurement {
    /// Elements per second, if the benchmark declared a element count.
    pub fn throughput(&self) -> Option<f64> {
        if self.elements == 0 || self.ns_per_iter == 0.0 {
            None
        } else {
            Some(self.elements as f64 * 1e9 / self.ns_per_iter)
        }
    }
}

/// A named group of benchmarks, printed as one table by [`Suite::finish`].
pub struct Suite {
    name: String,
    budget: Duration,
    results: Vec<Measurement>,
}

impl Suite {
    /// Start a suite. Reads `MS_BENCH_MS` once, at construction.
    pub fn new(name: &str) -> Self {
        let ms = std::env::var("MS_BENCH_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(200);
        Suite {
            name: name.to_string(),
            budget: Duration::from_millis(ms.max(1)),
            results: Vec::new(),
        }
    }

    /// Benchmark `f`, reporting plain ns/iter.
    pub fn bench<T>(&mut self, label: &str, f: impl FnMut() -> T) {
        self.run(label, 0, f);
    }

    /// Benchmark `f`, additionally reporting `elements`-per-second
    /// throughput (e.g. stream items processed per call).
    pub fn bench_elems<T>(&mut self, label: &str, elements: u64, f: impl FnMut() -> T) {
        self.run(label, elements, f);
    }

    /// Benchmark `f` on a fresh input from `setup` per call, timing `f`
    /// alone — for a routine whose precondition each call consumes.
    pub fn bench_with_setup<S, T>(
        &mut self,
        label: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> T,
    ) {
        self.measure(label, 0, |calls| {
            (0..calls)
                .map(|_| {
                    let input = std::hint::black_box(setup());
                    let t0 = Instant::now();
                    std::hint::black_box(f(input));
                    t0.elapsed()
                })
                .sum()
        });
    }

    fn run<T>(&mut self, label: &str, elements: u64, mut f: impl FnMut() -> T) {
        self.measure(label, elements, |calls| {
            let start = Instant::now();
            for _ in 0..calls {
                std::hint::black_box(f());
            }
            start.elapsed()
        });
    }

    /// One row: `timed(n)` makes `n` calls and returns the time they took.
    /// Warm-up calls run for a tenth of the budget (at least
    /// [`WARM_CALLS`]), one warm call — its wall clock, with any setup —
    /// sizes the batches to fill the budget, and the row reports the
    /// median of [`BATCHES`] batches.
    fn measure(&mut self, label: &str, elements: u64, mut timed: impl FnMut(u64) -> Duration) {
        let warm = Instant::now();
        let mut untimed = 0;
        while untimed < WARM_CALLS || warm.elapsed() < self.budget / 10 {
            timed(1);
            untimed += 1;
        }
        // Wall clock, a setup included: the row fits its budget.
        let sizing = Instant::now();
        timed(1);
        let once = sizing.elapsed().max(Duration::from_nanos(1));
        untimed += 1;
        let per_batch = (self.budget.as_nanos() / once.as_nanos() / u128::from(BATCHES))
            .clamp(1, 1_000_000 / u128::from(BATCHES)) as u64;
        let mut batches: Vec<f64> = (0..BATCHES)
            .map(|_| timed(per_batch).as_nanos() as f64 / per_batch as f64)
            .collect();
        batches.sort_by(f64::total_cmp);
        self.results.push(Measurement {
            label: label.to_string(),
            iters: per_batch * BATCHES,
            untimed,
            ns_per_iter: batches[batches.len() / 2],
            elements,
        });
    }

    /// Print the table and return the measurements.
    pub fn finish(self) -> Vec<Measurement> {
        println!("\n== {} ==", self.name);
        let width = self
            .results
            .iter()
            .map(|m| m.label.len())
            .max()
            .unwrap_or(0)
            .max(9);
        println!(
            "{:<width$}  {:>12}  {:>10}  {:>14}",
            "benchmark", "ns/iter", "iters", "throughput"
        );
        for m in &self.results {
            let tput = match m.throughput() {
                Some(t) => format!("{} elem/s", si(t)),
                None => "-".to_string(),
            };
            println!(
                "{:<width$}  {:>12}  {:>10}  {:>14}",
                m.label,
                si(m.ns_per_iter),
                m.iters,
                tput
            );
        }
        self.results
    }
}

/// Render a positive quantity with an SI suffix (`12.3k`, `4.56M`).
pub fn si(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_record_iterations_and_time() {
        let mut s = Suite::new("unit");
        s.budget = Duration::from_millis(5);
        s.bench_elems("count", 100, || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            acc
        });
        let results = s.finish();
        assert_eq!(results.len(), 1);
        assert!(results[0].iters >= 1);
        assert!(results[0].ns_per_iter > 0.0);
        assert!(results[0].throughput().unwrap() > 0.0);
    }

    #[test]
    fn setup_runs_once_per_timed_call() {
        let mut s = Suite::new("unit");
        s.budget = Duration::from_millis(5);
        let (mut setups, mut calls) = (0u64, 0u64);
        s.bench_with_setup(
            "fresh",
            || setups += 1,
            |()| {
                calls += 1;
                std::hint::black_box(calls)
            },
        );
        let results = s.finish();
        // The warm-up and the sizing call, untimed, then `iters` timed
        // ones in `BATCHES` batches.
        assert!(results[0].untimed > WARM_CALLS, "{}", results[0].untimed);
        assert_eq!(results[0].iters % BATCHES, 0);
        assert_eq!(calls, results[0].untimed + results[0].iters);
        assert_eq!(setups, calls);
    }

    #[test]
    fn si_suffixes() {
        assert_eq!(si(950.0), "950");
        assert_eq!(si(12_300.0), "12.3k");
        assert_eq!(si(4_560_000.0), "4.56M");
        assert_eq!(si(2.5e9), "2.50G");
    }
}
