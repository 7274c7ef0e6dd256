//! Correctness of what the server answered, against exact counts of what
//! was acked. A failed check makes the run incorrect; nothing is measured
//! here.

use crate::load::{Setup, WindowOut};
use crate::spec::Workload;
use ms_service::{Client, Request, Response};

pub struct Verdict {
    /// One line per failed check; empty = correct.
    pub failures: Vec<String>,
    /// Largest point or heavy-hitter error seen, as a share of ε·n.
    pub max_err_over_eps_n: f64,
    /// Reported share of the items whose exact count is ≥ φ·n.
    pub hh_recall: f64,
    /// `recovery_duration_micros` of each node restarted after SIGKILL
    /// (durable workloads only), in ms.
    pub recover_ms: Vec<f64>,
}

impl Default for Verdict {
    fn default() -> Verdict {
        Verdict {
            failures: Vec::new(),
            max_err_over_eps_n: 0.0,
            hh_recall: 1.0,
            recover_ms: Vec::new(),
        }
    }
}

impl Verdict {
    /// Fold in the verdict on another set-up of the same run.
    pub fn absorb(&mut self, other: Verdict) {
        self.failures.extend(other.failures);
        self.max_err_over_eps_n = self.max_err_over_eps_n.max(other.max_err_over_eps_n);
        self.hh_recall = self.hh_recall.min(other.hh_recall);
        self.recover_ms.extend(other.recover_ms);
    }
}

/// Run every check of the workload against the live server, then (durable
/// workloads) SIGKILL it, restart it on the same `--data-dir` and require
/// the recovered weight to equal the acked items exactly.
pub fn verify(setup: &mut Setup, w: &Workload, windows: &[&WindowOut]) -> Verdict {
    let mut v = Verdict::default();
    if let Err(e) = live_checks(setup, w, windows, &mut v) {
        v.failures.push(e);
    }
    if w.wal && v.failures.is_empty() {
        if let Err(e) = recover_check(setup, &mut v) {
            v.failures.push(e);
        }
    }
    v
}

fn live_checks(
    setup: &Setup,
    w: &Workload,
    windows: &[&WindowOut],
    v: &mut Verdict,
) -> Result<(), String> {
    let acked = setup.progress.acked();
    let sent_items: u64 = setup.progress.sent.iter().sum::<u64>() * w.batch as u64;
    if sent_items != acked {
        v.failures.push(format!(
            "generator bookkeeping: {sent_items} items in acked batches, {acked} counted"
        ));
    }
    let mut client = Client::connect(setup.sut.front.as_str()).map_err(|e| e.to_string())?;
    client.flush().map_err(|e| format!("flush: {e}"))?;
    let metrics = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    if metrics.updates != acked {
        v.failures.push(format!(
            "Metrics.updates {} != acked items {acked}",
            metrics.updates
        ));
    }

    let exact = setup.stream.exact_counts(w.batch, setup.progress.sent);
    let eps_n = w.epsilon * acked as f64;
    let mut err = |what: &str, item: u64, estimate: u64, failures: &mut Vec<String>| {
        let truth = exact.get(item as usize).copied().unwrap_or(0);
        let e = estimate.abs_diff(truth) as f64;
        v.max_err_over_eps_n = v.max_err_over_eps_n.max(e / eps_n);
        if e > eps_n {
            failures.push(format!(
                "{what} item {item}: estimate {estimate}, exact {truth}, off by more than eps*n = {eps_n:.0}"
            ));
        }
    };

    // Point on the 100 truly most frequent items.
    let mut by_count: Vec<usize> = (0..exact.len()).collect();
    by_count.sort_unstable_by_key(|&i| std::cmp::Reverse(exact[i]));
    let mut failures = Vec::new();
    for &item in by_count.iter().take(100) {
        match client.call(&Request::Point(item as u64)) {
            Ok(Response::Count(estimate)) => err("Point", item as u64, estimate, &mut failures),
            other => failures.push(format!("Point({item}): {other:?}")),
        }
    }

    // HeavyHitters(φ = ε): every reported count within ε·n, every item
    // with exact count ≥ φ·n reported.
    match client.call(&Request::HeavyHitters(w.epsilon)) {
        Ok(Response::Items(items)) => {
            for &(item, estimate) in &items {
                err("HeavyHitters", item, estimate, &mut failures);
            }
            let heavy: Vec<u64> = by_count
                .iter()
                .take_while(|&&i| exact[i] as f64 >= eps_n)
                .map(|&i| i as u64)
                .collect();
            let found = heavy
                .iter()
                .filter(|h| items.iter().any(|(item, _)| item == *h))
                .count();
            if !heavy.is_empty() {
                v.hh_recall = found as f64 / heavy.len() as f64;
            }
            if found != heavy.len() {
                failures.push(format!(
                    "HeavyHitters reported {found} of the {} items with count >= phi*n",
                    heavy.len()
                ));
            }
        }
        other => failures.push(format!("HeavyHitters: {other:?}")),
    }
    v.failures.extend(failures);

    for out in windows.iter().map(|w| &w.tally) {
        if out.range_answers > 0 {
            // A window can be empty only when the writer stalled for longer
            // than the window reaches back (the 1-segment window is 32 ms on
            // `read-write`); more than one answer in a hundred is the cube's
            // doing.
            if out.empty_ranges * 100 > out.range_answers {
                v.failures.push(format!(
                    "{} of {} Range answers merged no segment",
                    out.empty_ranges, out.range_answers
                ));
            }
            if out.max_covered > acked {
                v.failures.push(format!(
                    "a Range answer covered weight {} > acked items {acked}",
                    out.max_covered
                ));
            }
        }
    }
    Ok(())
}

fn recover_check(setup: &mut Setup, v: &mut Verdict) -> Result<(), String> {
    let acked = setup.progress.acked();
    setup
        .sut
        .kill_and_restart()
        .map_err(|e| format!("restart: {e}"))?;
    let mut client = Client::connect(setup.sut.front.as_str()).map_err(|e| e.to_string())?;
    client
        .flush()
        .map_err(|e| format!("flush after restart: {e}"))?;
    let weight = client.metrics().map_err(|e| e.to_string())?.snapshot_weight;
    if weight != acked {
        v.failures.push(format!(
            "recovered weight {weight} != acked items {acked} after SIGKILL"
        ));
    }
    let micros = client
        .telemetry()
        .map_err(|e| e.to_string())?
        .gauge("recovery_duration_micros")
        .ok_or("restarted node reports no recovery_duration_micros")?;
    v.recover_ms.push(micros as f64 / 1e3);
    Ok(())
}
