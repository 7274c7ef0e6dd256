//! `ledger diff A.json B.json`: is run-set B worse than run-set A by more
//! than the benchmark's own bounds?

use crate::jsonio::{as_arr, as_f64, as_str, get};
use crate::spec::END_TO_END;
use ms_core::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Worse,
    /// Within one run-set the windows differ by more than the bound, so a
    /// difference of the size of the bound cannot be told from noise.
    Unresolved,
}

/// Judge one metric. `a`/`b` are `(value, spread)` as the result files
/// record them.
pub fn judge(
    a: (f64, f64),
    b: (f64, f64),
    higher_is_better: bool,
    bound: f64,
) -> (f64, f64, Outcome) {
    let worse_by = if higher_is_better {
        a.0 / b.0 - 1.0
    } else {
        b.0 / a.0 - 1.0
    };
    let spread = a.1.max(b.1);
    let outcome = if spread > bound {
        Outcome::Unresolved
    } else if worse_by > bound || !worse_by.is_finite() {
        Outcome::Worse
    } else {
        Outcome::Ok
    };
    (worse_by, spread, outcome)
}

fn metric<'a>(workload: &'a Json, name: &str) -> Option<(f64, f64, &'a str)> {
    let m = get(get(workload, "metrics")?, name)?;
    Some((
        as_f64(get(m, "value")?)?,
        as_f64(get(m, "spread")?)?,
        as_str(get(m, "unit")?)?,
    ))
}

/// Print one row per workload × end-to-end metric; returns how many rows
/// are `worse`.
pub fn diff(a: &Json, b: &Json) -> Result<usize, String> {
    let workloads_b = as_arr(get(b, "workloads").ok_or("B has no workloads")?);
    let mut worse = 0;
    println!("workload metric A B unit B/A(base=A) worse_by bound spread verdict");
    for wa in as_arr(get(a, "workloads").ok_or("A has no workloads")?) {
        let name = get(wa, "name")
            .and_then(as_str)
            .ok_or("workload without a name")?;
        let wb = workloads_b
            .iter()
            .find(|w| get(w, "name").and_then(as_str) == Some(name))
            .ok_or(format!("workload {name} is missing from B"))?;
        for m in END_TO_END {
            let (va, sa, unit) =
                metric(wa, m.name).ok_or(format!("{name} {} is missing from A", m.name))?;
            let (vb, sb, _) =
                metric(wb, m.name).ok_or(format!("{name} {} is missing from B", m.name))?;
            let (worse_by, spread, outcome) =
                judge((va, sa), (vb, sb), m.higher_is_better, m.bound);
            if outcome == Outcome::Worse {
                worse += 1;
            }
            println!(
                "{name} {} {va:.4} {vb:.4} {unit} {:.4} {:+.2}% {:.0}% {:.2}% {}",
                m.name,
                vb / va,
                worse_by * 100.0,
                m.bound * 100.0,
                spread * 100.0,
                match outcome {
                    Outcome::Ok => "ok",
                    Outcome::Worse => "worse",
                    Outcome::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judges_against_bound_and_spread() {
        let (tight, wide) = (0.01, 0.20);
        // 3% slower, bound 5%.
        assert_eq!(
            judge((100.0, tight), (103.0, tight), false, 0.05).2,
            Outcome::Ok
        );
        // 8% slower.
        assert_eq!(
            judge((100.0, tight), (108.0, tight), false, 0.05).2,
            Outcome::Worse
        );
        // Throughput: higher is better, B 8% lower than A.
        assert_eq!(
            judge((108.0, tight), (100.0, tight), true, 0.05).2,
            Outcome::Worse
        );
        assert_eq!(
            judge((100.0, tight), (108.0, tight), true, 0.05).2,
            Outcome::Ok
        );
        // Windows too far apart to resolve a 5% difference.
        assert_eq!(
            judge((100.0, wide), (108.0, tight), false, 0.05).2,
            Outcome::Unresolved
        );
    }
}
