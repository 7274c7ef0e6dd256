//! Self-contained micro-benchmark harness.
//!
//! The `cpu_kernels` bench (a `harness = false` binary) is built on this
//! module: it registers closures with a [`Suite`], which warms up,
//! calibrates an iteration count against a wall-clock budget, measures,
//! and prints an aligned table of ns/iter plus throughput.
//!
//! Environment knobs:
//!
//! * `MS_BENCH_MS` — measurement budget per benchmark in milliseconds
//!   (default 200). `MS_BENCH_MS=1` makes a full bench run finish in
//!   seconds, for a quick smoke run of `cargo bench`.

use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label within its suite.
    pub label: String,
    /// Iterations actually timed.
    pub iters: u64,
    /// Mean wall-clock nanoseconds per iteration.
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
        let mut timed = || {
            let input = std::hint::black_box(setup());
            let t0 = Instant::now();
            std::hint::black_box(f(input));
            t0.elapsed()
        };
        let once = timed().max(Duration::from_nanos(1));
        let iters = (self.budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let total: Duration = (0..iters).map(|_| timed()).sum();
        self.results.push(Measurement {
            label: label.to_string(),
            iters,
            ns_per_iter: total.as_nanos() as f64 / iters as f64,
            elements: 0,
        });
    }

    fn run<T>(&mut self, label: &str, elements: u64, mut f: impl FnMut() -> T) {
        // Warm-up: one untimed call, also used to calibrate.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (self.budget.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let total = start.elapsed();
        self.results.push(Measurement {
            label: label.to_string(),
            iters,
            ns_per_iter: total.as_nanos() as f64 / iters as f64,
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
        // One untimed calibration call, then `iters` timed ones.
        assert_eq!(calls, results[0].iters + 1);
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
