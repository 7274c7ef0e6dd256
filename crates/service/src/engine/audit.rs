//! The accuracy self-audit: ground truth the shard absorbs fill as they
//! absorb batches, and the comparison of the published summary against it. No
//! ledger row times this stage; it is off unless [`ServiceConfig::audit`]
//! is set, and then costs one lock round per absorbed batch.

use std::sync::Mutex;

use ms_core::rng::splitmix64;
use ms_core::{lock, FxHashMap};
use ms_obs::Reservoir;

use super::Engine;
use crate::config::{ServiceConfig, SummaryKind};
use crate::protocol::AccuracyAudit;

/// Raw items the audit reservoir holds for quantile audits.
const AUDIT_RESERVOIR: usize = 4096;
/// An item's exact count is tracked iff its seeded hash lands in this
/// mask's zero class — 1/16 of the item space, chosen by hash so the
/// audited set is adversary- and distribution-independent.
const AUDIT_SAMPLE_MASK: u64 = 0xF;

/// Ground truth for the accuracy self-audit, filled as shards absorb
/// batches.
struct AuditState {
    /// Seeded uniform sample of raw items (quantile audits).
    reservoir: Reservoir,
    /// Exact counts of the hash-chosen item subset (frequency audits).
    exact: FxHashMap<u64, u64>,
    /// Total item weight the audit observed.
    weight: u64,
}

/// The engine's audit plane: `None` inside unless [`ServiceConfig::audit`]
/// is set, so the default ingest path pays one branch per *batch* and
/// nothing per item. Every absorb that succeeds calls
/// [`AuditPlane::observe`] — observing at absorption (not admission)
/// keeps the ground truth aligned with what the summary actually saw: a
/// failed absorb's batch reaches neither.
pub(super) struct AuditPlane {
    seed: u64,
    /// Quantile kinds sample ranks; frequency kinds count exactly.
    quantile: bool,
    state: Option<Mutex<AuditState>>,
}

impl AuditPlane {
    pub(super) fn new(cfg: &ServiceConfig) -> AuditPlane {
        AuditPlane {
            seed: cfg.seed,
            quantile: cfg.kind == SummaryKind::HybridQuantile,
            state: cfg.audit.then(|| {
                Mutex::new(AuditState {
                    reservoir: Reservoir::new(AUDIT_RESERVOIR, cfg.seed),
                    exact: FxHashMap::default(),
                    weight: 0,
                })
            }),
        }
    }

    /// Observe one absorbed batch: one lock round per batch, no-op (a
    /// single branch) when the audit is disabled.
    pub(super) fn observe(&self, items: &[u64]) {
        let Some(state) = &self.state else {
            return;
        };
        let mut s = lock(state);
        s.weight += items.len() as u64;
        if self.quantile {
            s.reservoir.observe_slice(items);
        } else {
            for &item in items {
                // In the exactly-counted subset for this seed?
                if splitmix64(&mut (self.seed ^ item)) & AUDIT_SAMPLE_MASK == 0 {
                    *s.exact.entry(item).or_insert(0) += 1;
                }
            }
        }
    }
}

impl Engine {
    /// Compare the published summary against the audit plane's ground
    /// truth and report the observed error next to the `eps·n` envelope
    /// the paper's Definition 1 promises. Requires
    /// [`ServiceConfig::audit`]; without it the report carries lineage
    /// only (`audit_weight == 0`, trivially within bound).
    ///
    /// Frequency families keep *exact* counts for a deterministic
    /// hash-chosen 1-in-16 subset of the key space, so the observed
    /// error there is a true point-query error and must sit inside
    /// `eps·n`. The quantile family keeps a seeded reservoir; its rank
    /// comparison is itself an estimate, so the report adds a
    /// `sampling_slack` term (`3n/sqrt(len)`) and checks the bound
    /// against envelope + slack. Both kinds also add any weight the
    /// audit plane never saw (checkpoint preload, lost shards) as
    /// slack, since those items reached only one side of the
    /// comparison.
    pub fn accuracy_audit(&self) -> AccuracyAudit {
        let snap = self.snapshot();
        let lineage = snap.lineage;
        let eps = self.cfg.epsilon;
        let mut report = AccuracyAudit {
            kind: self.cfg.kind.label().to_string(),
            epsilon: eps,
            weight: lineage.weight,
            envelope: lineage.envelope(eps),
            merges: lineage.merges,
            depth: lineage.depth,
            audit_weight: 0,
            audited_items: 0,
            reservoir_len: 0,
            observed_error: 0.0,
            sampling_slack: 0.0,
            within_bound: true,
            nodes: 1,
        };
        let Some(state) = &self.audit.state else {
            return report;
        };
        let state = lock(state);
        report.audit_weight = state.weight;
        // Weight that reached the summary but not the audit plane (or
        // vice versa) — checkpoint preload, recovered WAL, lost shards —
        // can legitimately move the comparison by up to eps·|delta| plus
        // the raw delta itself for exact-count keys.
        let unseen = lineage.weight.abs_diff(state.weight) as f64;
        if self.cfg.kind == SummaryKind::HybridQuantile {
            report.reservoir_len = state.reservoir.len() as u64;
            let sample = state.reservoir.sample();
            let mut worst = 0.0f64;
            for &v in sample {
                let est = snap.summary.rank(v).unwrap_or(0) as f64;
                let truth = state.reservoir.scaled_rank(v) as f64;
                worst = worst.max((est - truth).abs());
            }
            report.observed_error = worst;
            if !sample.is_empty() {
                report.sampling_slack = 3.0 * state.weight as f64 / (sample.len() as f64).sqrt();
            }
            report.sampling_slack += unseen;
        } else {
            report.audited_items = state.exact.len() as u64;
            let mut worst = 0.0f64;
            for (&item, &count) in state.exact.iter() {
                let est = snap.summary.point(item).unwrap_or(0) as f64;
                worst = worst.max((est - count as f64).abs());
            }
            report.observed_error = worst;
            report.sampling_slack = unseen;
        }
        report.within_bound = report.observed_error <= report.envelope + report.sampling_slack;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_audit_stays_inside_the_envelope() {
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::Mg, 0.01)
                .shards(4)
                .audit(true)
                .seed(0xF417_5EED),
        )
        .unwrap();
        // Zipf-ish skew: heavy keys plus a long tail, 100k updates.
        for round in 0..100u64 {
            let mut batch = Vec::with_capacity(1000);
            for i in 0..1000u64 {
                let item = if i % 4 == 0 { i % 16 } else { round * 1000 + i };
                batch.push(item);
            }
            engine.ingest(batch).unwrap();
        }
        engine.flush().unwrap();
        let audit = engine.accuracy_audit();
        assert_eq!(audit.kind, "mg");
        assert_eq!(audit.weight, 100_000);
        assert_eq!(audit.audit_weight, 100_000, "audit saw every absorbed item");
        assert!(audit.audited_items > 0, "1-in-16 hash sample is non-empty");
        assert!((audit.envelope - 0.01 * 100_000.0).abs() < 1e-6);
        assert!(
            audit.within_bound,
            "observed {} > envelope {} + slack {}",
            audit.observed_error, audit.envelope, audit.sampling_slack
        );
        assert!(audit.observed_error <= audit.envelope);
        engine.shutdown();
    }

    #[test]
    fn accuracy_audit_quantile_uses_reservoir_with_slack() {
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::HybridQuantile, 0.02)
                .shards(2)
                .audit(true)
                .seed(0xB0B5_CAFE),
        )
        .unwrap();
        for round in 0..50u64 {
            engine
                .ingest(
                    (0..1000u64)
                        .map(|i| (round * 7 + i * 13) % 10_000)
                        .collect(),
                )
                .unwrap();
        }
        engine.flush().unwrap();
        let audit = engine.accuracy_audit();
        assert_eq!(audit.weight, 50_000);
        assert_eq!(audit.audit_weight, 50_000);
        assert_eq!(audit.reservoir_len, 4096);
        assert!(audit.sampling_slack > 0.0);
        assert!(
            audit.within_bound,
            "observed {} > envelope {} + slack {}",
            audit.observed_error, audit.envelope, audit.sampling_slack
        );
        engine.shutdown();
    }

    #[test]
    fn audit_disabled_reports_lineage_only() {
        let engine = Engine::start(ServiceConfig::new(SummaryKind::Mg, 0.05).shards(2)).unwrap();
        engine.ingest(vec![1; 500]).unwrap();
        engine.flush().unwrap();
        let audit = engine.accuracy_audit();
        assert_eq!(audit.weight, 500);
        assert_eq!(audit.audit_weight, 0);
        assert_eq!(audit.audited_items, 0);
        assert_eq!(audit.observed_error, 0.0);
        assert!(audit.within_bound);
        // Lineage rides on the snapshot too.
        let snap = engine.snapshot();
        assert_eq!(snap.lineage.weight, 500);
        assert!(snap.lineage.merges >= 1);
        assert_eq!(snap.lineage.envelope(0.05), 0.05 * 500.0);
        engine.shutdown();
    }
}
