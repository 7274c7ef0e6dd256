//! Order statistics over small sample sets.

/// `phi`-quantile of `sorted` by linear interpolation between closest ranks.
/// Empty input yields NaN, which the JSON encoder writes as `null`.
pub fn quantile_sorted(sorted: &[f64], phi: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let pos = phi.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn quantile(values: &[f64], phi: f64) -> f64 {
    quantile_sorted(&sorted(values), phi)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the "exclusive" method) — the spread the benchmark driver computes.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let cut = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to [1, n-1], delta = i*(n+1) - j*4.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = quantile_sorted(&v, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    (cut(3) - cut(1)) / mid.abs()
}

/// Quantile of nanosecond samples, in microseconds.
pub fn quantile_us(ns: &[u64], phi: f64) -> f64 {
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    quantile(&us, phi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile_us(&[3000, 1000], 1.0), 3.0);
        assert!(median(&[]).is_nan());
    }
}
