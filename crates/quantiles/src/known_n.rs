//! The known-n mergeable quantile summary (§4.2).
//!
//! When an upper bound `n_max` on the total data size is known when the
//! summaries are created, the construction is the plain buffer hierarchy:
//! raw values fill a base buffer of size `m`; full base buffers enter the
//! hierarchy at level 0 (weight 1 per point) and carry upward via
//! randomized same-weight merges. Merging two summaries concatenates the
//! base buffers and adds the hierarchies level-wise.
//!
//! With `m = Θ((1/ε)·√log(1/δ))` and the `log(ε·n_max)` levels the
//! hierarchy can reach, every rank estimate is within `εn` of the truth
//! with probability `1 − δ` — under *arbitrary* merge trees, because each
//! same-weight merge contributes an independent, zero-mean error bounded
//! by its level weight, and Hoeffding's inequality controls the sum.

use ms_core::error::ensure_same_capacity;
use ms_core::wire::{Wire, WireError, WireReader};
use ms_core::{MergeError, Mergeable, Result, Rng64, Summary};

use crate::buffer::{MergePoint, SortedBuffer};
use crate::hierarchy::BufferHierarchy;
use crate::RankSummary;

/// Internal failure probability target used to size buffers.
const DELTA: f64 = 0.01;

/// Mergeable quantile summary for streams of known maximum total size.
#[derive(Debug, Clone)]
pub struct KnownNQuantile<T> {
    epsilon: f64,
    m: usize,
    base: Vec<T>,
    hierarchy: BufferHierarchy<T>,
    n: u64,
    rng: Rng64,
}

impl<T: Wire + MergePoint> Wire for KnownNQuantile<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.epsilon.encode_into(out);
        self.m.encode_into(out);
        T::encode_points(&self.base, out);
        self.hierarchy.encode_into(out);
        self.n.encode_into(out);
        self.rng.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        let epsilon = f64::decode_from(r)?;
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(WireError::Malformed("epsilon out of (0, 1)"));
        }
        Ok(KnownNQuantile {
            epsilon,
            m: usize::decode_from(r)?,
            base: T::decode_points(r)?,
            hierarchy: BufferHierarchy::<T>::decode_from(r)?,
            n: u64::decode_from(r)?,
            rng: Rng64::decode_from(r)?,
        })
    }
}

/// Buffer size for a target ε and advertised maximum stream size: the
/// paper's known-n sizing `m = Θ((1/ε)·√(log(ε·n_max) + log(1/δ)))` — the
/// hierarchy reaches ~log₂(ε·n_max) levels and each level's merge coins
/// contribute independent noise, so the buffer pays a √log factor. The
/// constant keeps the p99 observed error comfortably under εn in the
/// experiments (E4).
fn buffer_size(epsilon: f64, n_max: u64) -> usize {
    let levels = (epsilon * n_max as f64).max(2.0).log2();
    let m = (1.5 / epsilon) * (levels + (2.0 / DELTA).ln()).sqrt();
    (m.ceil() as usize).max(8)
}

impl<T: MergePoint> KnownNQuantile<T> {
    /// Create a summary with rank-error target `ε·n` (w.h.p.) for streams
    /// of up to roughly `n_max` total values, seeded for reproducible
    /// merge coins. `n_max` sizes the buffers (more data → more hierarchy
    /// levels → a √log-factor larger buffer); exceeding it degrades the
    /// guarantee gracefully rather than failing. Merging requires equal
    /// buffer sizes, so all sites must agree on `(ε, n_max)` up-front —
    /// that is what "known n" means in §4.2.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn new(epsilon: f64, n_max: u64, seed: u64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        KnownNQuantile {
            epsilon,
            m: buffer_size(epsilon, n_max),
            base: Vec::new(),
            hierarchy: BufferHierarchy::new(),
            n: 0,
            rng: Rng64::new(seed),
        }
    }

    /// The error parameter ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Buffer size `m` (points per buffer).
    pub fn buffer_capacity(&self) -> usize {
        self.m
    }

    fn flush_base_if_full(&mut self) {
        if self.base.len() >= self.m {
            // Allocated at full size: `base` refills to `m` before the
            // next flush.
            let full = std::mem::replace(&mut self.base, Vec::with_capacity(self.m));
            self.hierarchy
                .push_buffer(0, SortedBuffer::from_unsorted(full), &mut self.rng);
        }
    }
}

impl<T: MergePoint> RankSummary<T> for KnownNQuantile<T> {
    fn insert(&mut self, value: T) {
        self.n += 1;
        self.base.push(value);
        self.flush_base_if_full();
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn rank(&self, x: &T) -> u64 {
        let base_count = self.base.iter().filter(|v| *v < x).count() as u64;
        base_count + self.hierarchy.weighted_count_below(x, 1)
    }

    fn quantile(&self, phi: f64) -> Option<T> {
        let mut base = self.base.clone();
        base.sort_unstable();
        let mut runs = vec![(&base[..], 1)];
        runs.extend(self.hierarchy.weighted_runs(1));
        weighted_quantile(runs, phi)
    }
}

impl<T: MergePoint> Summary for KnownNQuantile<T> {
    fn total_weight(&self) -> u64 {
        self.n
    }

    fn size(&self) -> usize {
        self.base.len() + self.hierarchy.stored_points()
    }
}

impl<T: MergePoint> Mergeable for KnownNQuantile<T> {
    fn merge(mut self, other: Self) -> Result<Self> {
        if (self.epsilon - other.epsilon).abs() > f64::EPSILON {
            return Err(MergeError::EpsilonMismatch {
                left: self.epsilon,
                right: other.epsilon,
            });
        }
        ensure_same_capacity("buffer size (m)", self.m, other.m)?;
        self.n += other.n;
        self.rng.absorb(&other.rng);
        self.hierarchy.absorb(other.hierarchy, &mut self.rng);
        for value in other.base {
            self.base.push(value);
            self.flush_base_if_full();
        }
        Ok(self)
    }
}

/// Select the value whose cumulative weight first reaches `φ` of the total
/// stored weight — the least stored `v` with `weight(points ≤ v) ≥ ⌈φ·W⌉`.
/// Each run is a sorted slice whose points all carry the paired weight.
/// Shared by the quantile summaries in this crate.
///
/// A multi-sequence selection: the runs are read in place, never copied
/// or re-sorted. Each round takes the median of the longest remaining run
/// as pivot, ranks it in every run by binary search, and either answers
/// with it or cuts every run on its wrong side — the longest run at least
/// halves, and runs drawn from one distribution all roughly do.
pub(crate) fn weighted_quantile<T: Ord + Clone>(mut runs: Vec<(&[T], u64)>, phi: f64) -> Option<T> {
    let total: u64 = runs.iter().map(|(run, w)| run.len() as u64 * w).sum();
    if total == 0 {
        return None;
    }
    // Rank sought among the points still in `runs`, counted in weight from
    // their low end; `1 ≤ target ≤ weight(runs)` holds on every round.
    let mut target = ((phi.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    loop {
        let longest = runs
            .iter()
            .map(|&(run, _)| run)
            .max_by_key(|run| run.len())
            .expect("total > 0, so there is a run");
        let pivot = &longest[longest.len() / 2];
        let (mut below, mut at_most) = (0u64, 0u64);
        for &(run, w) in &runs {
            below += w * run.partition_point(|v| v < pivot) as u64;
            at_most += w * run.partition_point(|v| v <= pivot) as u64;
        }
        if at_most < target {
            target -= at_most;
            for (run, _) in &mut runs {
                *run = &run[run.partition_point(|v| v <= pivot)..];
            }
        } else if below < target {
            return Some(pivot.clone());
        } else {
            for (run, _) in &mut runs {
                *run = &run[..run.partition_point(|v| v < pivot)];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::{merge_all, MergeTree, RankOracle};
    use ms_workloads::ValueDist;

    fn build(values: &[u64], eps: f64, seed: u64) -> KnownNQuantile<u64> {
        let mut q = KnownNQuantile::new(eps, values.len() as u64, seed);
        for &v in values {
            q.insert(v);
        }
        q
    }

    /// Max rank error over a probe grid, in units of n.
    fn max_rank_error(q: &KnownNQuantile<u64>, oracle: &RankOracle<u64>) -> f64 {
        let n = oracle.len() as f64;
        let probes: Vec<u64> = (0..=100)
            .filter_map(|i| oracle.quantile(i as f64 / 100.0).copied())
            .collect();
        probes
            .iter()
            .map(|x| oracle.rank_error(x, q.rank(x)) as f64 / n)
            .fold(0.0, f64::max)
    }

    #[test]
    fn exact_while_data_fits_in_base() {
        let q = build(&[5, 1, 9, 3], 0.1, 0);
        assert_eq!(q.count(), 4);
        assert_eq!(q.rank(&5), 2);
        assert_eq!(q.quantile(0.0), Some(1));
        assert_eq!(q.quantile(1.0), Some(9));
        assert_eq!(q.quantile(0.5), Some(3));
    }

    #[test]
    fn empty_summary() {
        let q = KnownNQuantile::<u64>::new(0.1, 100, 0);
        assert_eq!(q.quantile(0.5), None);
        assert_eq!(q.rank(&7), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn rank_error_within_epsilon_on_streams() {
        let eps = 0.05;
        for dist in ValueDist::canonical() {
            let values = dist.generate(20_000, 11);
            let oracle = RankOracle::from_stream(values.clone());
            let q = build(&values, eps, 42);
            let err = max_rank_error(&q, &oracle);
            assert!(err <= eps, "{}: max rank error {err} > {eps}", dist.label());
        }
    }

    #[test]
    fn rank_error_within_epsilon_under_merge_trees() {
        let eps = 0.05;
        let values = ValueDist::Uniform.generate(32_768, 5);
        let oracle = RankOracle::from_stream(values.clone());
        for shape in MergeTree::canonical() {
            let leaves: Vec<KnownNQuantile<u64>> = values
                .chunks(2048)
                .enumerate()
                .map(|(i, chunk)| build(chunk, eps, 100 + i as u64))
                .collect();
            let merged = merge_all(leaves, shape).unwrap();
            assert_eq!(merged.count(), values.len() as u64);
            let err = max_rank_error(&merged, &oracle);
            assert!(
                err <= eps,
                "{}: max rank error {err} > {eps}",
                shape.label()
            );
        }
    }

    #[test]
    fn quantile_answers_are_near_true_quantiles() {
        let eps = 0.02;
        let values = ValueDist::Normal.generate(50_000, 9);
        let oracle = RankOracle::from_stream(values.clone());
        let q = build(&values, eps, 3);
        for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let est = q.quantile(phi).expect("non-empty");
            // The estimate's true rank must be within εn of φn.
            let err = oracle.rank_error(&est, (phi * values.len() as f64) as u64);
            assert!(
                (err as f64) <= eps * values.len() as f64 + 1.0,
                "phi {phi}: rank error {err}"
            );
        }
    }

    #[test]
    fn size_grows_logarithmically() {
        let eps = 0.05;
        let small = build(&ValueDist::Uniform.generate(4_096, 1), eps, 1);
        let large = build(&ValueDist::Uniform.generate(262_144, 1), eps, 1);
        // 64× the data must cost far less than 64× the space — one buffer
        // per doubling.
        assert!(
            large.size() < small.size().max(1) * 12,
            "small {}, large {}",
            small.size(),
            large.size()
        );
    }

    #[test]
    fn merge_rejects_mismatched_epsilon() {
        let a = KnownNQuantile::<u64>::new(0.1, 100, 0);
        let b = KnownNQuantile::<u64>::new(0.05, 100, 0);
        assert!(matches!(
            a.merge(b),
            Err(MergeError::EpsilonMismatch { .. })
        ));
    }

    #[test]
    fn merge_is_deterministic_given_seeds() {
        let values = ValueDist::Uniform.generate(10_000, 2);
        let run = || {
            let a = build(&values[..5_000], 0.05, 7);
            let b = build(&values[5_000..], 0.05, 8);
            let m = a.merge(b).unwrap();
            (0..20).map(|i| m.rank(&(i << 48))).collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn buffer_size_scales_with_n_max() {
        let small = KnownNQuantile::<u64>::new(0.05, 1 << 10, 0).buffer_capacity();
        let large = KnownNQuantile::<u64>::new(0.05, 1 << 30, 0).buffer_capacity();
        assert!(large > small, "√log(εn) factor: {small} vs {large}");
        // But only by the √log factor, not linearly.
        assert!(large < 3 * small, "{small} vs {large}");
    }

    #[test]
    fn weighted_quantile_selection() {
        let select = |phi| weighted_quantile(vec![(&[10u64, 30][..], 1), (&[20][..], 2)], phi);
        assert_eq!(select(0.0), Some(10));
        assert_eq!(select(0.25), Some(10));
        assert_eq!(select(0.5), Some(20));
        assert_eq!(select(0.75), Some(20));
        assert_eq!(select(1.0), Some(30));
        assert_eq!(weighted_quantile(Vec::<(&[u64], u64)>::new(), 0.5), None);
        assert_eq!(weighted_quantile(vec![(&[][..] as &[u64], 4)], 0.5), None);
    }

    /// Reference: flatten, sort by value, scan the running weight.
    fn select_by_sorting(runs: &[(&[u64], u64)], phi: f64) -> Option<u64> {
        let mut points: Vec<(u64, u64)> = runs
            .iter()
            .flat_map(|&(run, w)| run.iter().map(move |&v| (v, w)))
            .collect();
        points.sort_unstable();
        let total: u64 = points.iter().map(|&(_, w)| w).sum();
        let target = ((phi * total as f64).ceil() as u64).clamp(1, total.max(1));
        let mut cumulative = 0;
        points.into_iter().find_map(|(v, w)| {
            cumulative += w;
            (cumulative >= target).then_some(v)
        })
    }

    #[test]
    fn selection_matches_the_full_sort_on_weighted_runs() {
        let mut rng = Rng64::new(0x5E1);
        let phis = [0.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0];
        for run_count in [1usize, 2, 5, 11] {
            // Universe 1 is all-equal values; 5 is almost all ties.
            for universe in [1u64, 5, 1 << 40] {
                for max_len in [1usize, 2, 300] {
                    let owned: Vec<(Vec<u64>, u64)> = (0..run_count)
                        .map(|level| {
                            let mut run: Vec<u64> = (0..rng.below_usize(max_len + 1))
                                .map(|_| rng.below(universe))
                                .collect();
                            run.sort_unstable();
                            (run, 1 << level)
                        })
                        .collect();
                    let runs: Vec<(&[u64], u64)> =
                        owned.iter().map(|(run, w)| (&run[..], *w)).collect();
                    for phi in phis {
                        assert_eq!(
                            weighted_quantile(runs.clone(), phi),
                            select_by_sorting(&runs, phi),
                            "{run_count} runs ≤ {max_len} over {universe}, phi {phi}"
                        );
                    }
                }
            }
        }
    }
}
