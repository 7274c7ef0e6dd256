//! The fully-mergeable hybrid quantile summary (§4.3).
//!
//! Without advance knowledge of `n`, a plain buffer hierarchy would grow a
//! level per doubling of the data, so its size would depend on `n`. The
//! paper's fix: keep only `L = O(log(1/ε))` levels and replace the
//! discarded bottom of the hierarchy with **random sampling** — each
//! level-0 point becomes a uniform representative of a *block* of `w` raw
//! values, where the base weight `w` doubles whenever the hierarchy would
//! overflow. Sampling error is `O(w)` per point, which stays proportional
//! to `εn/ polylog` because `w` tracks `n / (m·2^L)`; merge coins stay
//! unbiased; total size is `O((1/ε)·log^{1.5}(1/ε))` — independent of `n`.
//!
//! Implementation notes (simulation substitutions, see `DESIGN.md`):
//!
//! * the paper's careful partial-block bookkeeping is implemented as a
//!   probability-proportional merge of partial blocks (when two partial
//!   blocks of `a` and `b` raw values combine, the surviving candidate is
//!   drawn with probabilities `a/(a+b)`, `b/(a+b)`); the residual bias is
//!   `O(w)` per merge node and is absorbed by the same slack that absorbs
//!   the merge coins — the experiments confirm the `εn` shape holds;
//! * doubling the base weight relabels the hierarchy downward (old level
//!   `i+1` is new level `i`), and the orphaned old level-0 buffer is fed
//!   back through the block sampler at its own weight.

use ms_core::error::ensure_same_capacity;
use ms_core::wire::{Wire, WireError, WireReader};
use ms_core::{MergeError, Mergeable, Result, Rng64, Summary};

use crate::buffer::{MergePoint, SortedBuffer};
use crate::hierarchy::BufferHierarchy;
use crate::known_n::weighted_quantile;
use crate::RankSummary;

/// Internal failure probability target used to size buffers.
const DELTA: f64 = 0.01;

/// Fully mergeable quantile summary of size independent of `n`.
///
/// ```
/// use ms_core::Mergeable;
/// use ms_quantiles::{HybridQuantile, RankSummary};
///
/// let mut a = HybridQuantile::new(0.05, 1);
/// let mut b = HybridQuantile::new(0.05, 2);
/// for v in 0..500u64 {
///     a.insert(v);
///     b.insert(500 + v);
/// }
/// let merged = a.merge(b).unwrap();
/// assert_eq!(merged.count(), 1000);
/// let median = merged.quantile(0.5).unwrap();
/// assert!((450..=550).contains(&median));
/// ```
#[derive(Debug, Clone)]
pub struct HybridQuantile<T> {
    pub(crate) epsilon: f64,
    pub(crate) m: usize,
    pub(crate) max_levels: usize,
    /// Base weight: every level-0 point represents `w` raw values.
    pub(crate) w: u64,
    /// Raw values accumulated toward the current block (`0 ≤ count < w`).
    pub(crate) block_count: u64,
    /// Uniform candidate for the current partial block.
    pub(crate) block_candidate: Option<T>,
    /// Completed weight-`w` representatives, flushed to level 0 at `m`.
    pub(crate) base: Vec<T>,
    pub(crate) hierarchy: BufferHierarchy<T>,
    pub(crate) n: u64,
    pub(crate) rng: Rng64,
}

impl<T: Wire + MergePoint> Wire for HybridQuantile<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.epsilon.encode_into(out);
        self.m.encode_into(out);
        self.max_levels.encode_into(out);
        self.w.encode_into(out);
        self.block_count.encode_into(out);
        self.block_candidate.encode_into(out);
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
        let m = usize::decode_from(r)?;
        let max_levels = usize::decode_from(r)?;
        let w = u64::decode_from(r)?;
        if !w.is_power_of_two() {
            return Err(WireError::Malformed("base weight not a power of two"));
        }
        let block_count = u64::decode_from(r)?;
        let block_candidate = Option::<T>::decode_from(r)?;
        if block_count > 0 && block_candidate.is_none() {
            return Err(WireError::Malformed("partial block lost its candidate"));
        }
        Ok(HybridQuantile {
            epsilon,
            m,
            max_levels,
            w,
            block_count,
            block_candidate,
            base: T::decode_points(r)?,
            hierarchy: BufferHierarchy::<T>::decode_from(r)?,
            n: u64::decode_from(r)?,
            rng: Rng64::decode_from(r)?,
        })
    }
}

impl<T: MergePoint> HybridQuantile<T> {
    /// Create a summary with rank-error target `ε·n` (w.h.p.), seeded for
    /// reproducible sampling and merge coins.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn new(epsilon: f64, seed: u64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        // Constant 4 (vs 2 for the known-n summary): the hybrid additionally
        // absorbs block-sampling error and deep merge trees double its base
        // weight repeatedly, so it needs the extra slack to hold εn at p100.
        let m = {
            let m = (4.0 / epsilon) * (2.0 / DELTA).ln().sqrt();
            (m.ceil() as usize).max(8)
        };
        let max_levels = ((1.0 / epsilon).log2().ceil() as usize).max(1) + 2;
        HybridQuantile {
            epsilon,
            m,
            max_levels,
            w: 1,
            block_count: 0,
            block_candidate: None,
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

    /// Buffer size `m`.
    pub fn buffer_capacity(&self) -> usize {
        self.m
    }

    /// Current base weight `w` (power of two).
    pub fn base_weight(&self) -> u64 {
        self.w
    }

    /// Level cap `L`.
    pub fn max_levels(&self) -> usize {
        self.max_levels
    }

    /// Feed `count` raw-value equivalents represented by `candidate` into
    /// the block sampler, emitting completed weight-`w` representatives.
    fn absorb_block(&mut self, candidate: T, count: u64) {
        if count == 0 {
            return;
        }
        self.block_count += count;
        match &self.block_candidate {
            None => self.block_candidate = Some(candidate),
            Some(_) => {
                // Keep the newcomer with probability count / block_count —
                // the probability-proportional partial-block merge.
                if self.rng.below(self.block_count) < count {
                    self.block_candidate = Some(candidate);
                }
            }
        }
        while self.block_count >= self.w {
            let rep = self
                .block_candidate
                .clone()
                .expect("non-zero block has a candidate");
            self.block_count -= self.w;
            if self.block_count == 0 {
                self.block_candidate = None;
            }
            self.push_representative(rep);
        }
    }

    /// Append a completed weight-`w` representative, flushing full base
    /// buffers into the hierarchy and enforcing the level cap.
    fn push_representative(&mut self, rep: T) {
        self.base.push(rep);
        if self.base.len() >= self.m {
            self.flush_base();
        }
    }

    /// Sort the full base buffer into level 0 and enforce the level cap.
    /// The replacement is allocated at full size: `base` refills to `m`
    /// before the next flush, so growing it from empty is pure waste.
    fn flush_base(&mut self) {
        let full = std::mem::replace(&mut self.base, Vec::with_capacity(self.m));
        self.hierarchy
            .push_buffer(0, SortedBuffer::from_unsorted(full), &mut self.rng);
        self.enforce_level_cap();
    }

    /// Insert a batch of values; the summary ends in exactly the state
    /// (every encoded byte, the RNG included) that calling
    /// [`RankSummary::insert`] on each value in order would leave.
    ///
    /// While the base weight is 1 and no partial block is pending, a raw
    /// value *is* a completed representative and the block sampler draws
    /// nothing from the RNG, so whole slices are copied into the base
    /// buffer up to each flush boundary. Past the first doubling the
    /// sampler is RNG-coupled per value and the per-item path runs.
    pub fn insert_batch(&mut self, values: &[T]) {
        let mut rest = values;
        while self.w == 1 && self.block_candidate.is_none() && !rest.is_empty() {
            // `max(1)`: like `insert`, always take a value before flushing.
            let room = self.m.saturating_sub(self.base.len()).max(1);
            let (head, tail) = rest.split_at(room.min(rest.len()));
            self.n += head.len() as u64;
            self.base.extend_from_slice(head);
            if self.base.len() >= self.m {
                self.flush_base();
            }
            rest = tail;
        }
        for value in rest {
            self.insert(value.clone());
        }
    }

    /// Double the base weight once: relabel hierarchy levels downward
    /// (old level `i+1` is new level `i`), and re-feed everything that was
    /// stored at the old weight — the orphaned old level-0 buffer *and*
    /// the pending base representatives — through the block sampler at
    /// their true old weight. (Re-weighting them silently would inflate
    /// the stored mass and bias every rank estimate upward.)
    fn double_base_weight(&mut self) {
        let old_w = self.w;
        self.w *= 2;
        let old_base = std::mem::take(&mut self.base);
        let orphan = self.hierarchy.shift_down();
        for rep in old_base {
            self.absorb_block(rep, old_w);
        }
        if let Some(buffer) = orphan {
            for point in buffer.into_points() {
                self.absorb_block(point, old_w);
            }
        }
    }

    /// While the hierarchy exceeds `max_levels`, double the base weight.
    fn enforce_level_cap(&mut self) {
        while self.hierarchy.num_levels() > self.max_levels {
            self.double_base_weight();
        }
    }

    /// Bring the summary's base weight up to `target` (a power-of-two
    /// multiple of the current weight) by repeated doubling.
    fn coarsen_to(&mut self, target: u64) {
        while self.w < target {
            self.double_base_weight();
        }
    }

    /// In-place §4.3 merge: the same weight alignment, hierarchy absorb
    /// and partial-block combine as [`Mergeable::merge`], but mutating
    /// `self` instead of consuming and reallocating it — the steady-state
    /// fold into a service's global summary. On error (mismatched ε or m) `self` is left
    /// untouched, as it is when the combined `n` would overflow `u64`.
    pub fn merge_from(&mut self, mut other: Self) -> Result<()> {
        if (self.epsilon - other.epsilon).abs() > f64::EPSILON {
            return Err(MergeError::EpsilonMismatch {
                left: self.epsilon,
                right: other.epsilon,
            });
        }
        ensure_same_capacity("buffer size (m)", self.m, other.m)?;
        let n = self
            .n
            .checked_add(other.n)
            .ok_or(MergeError::Incompatible("total weight overflows u64"))?;
        self.rng.absorb(&other.rng);
        // Align base weights by coarsening the finer summary.
        let target = self.w.max(other.w);
        self.coarsen_to(target);
        other.coarsen_to(target);

        self.n = n;
        self.hierarchy.absorb(other.hierarchy, &mut self.rng);
        self.enforce_level_cap();
        for rep in std::mem::take(&mut other.base) {
            // `other`'s representatives weigh `target`. Once the cap above,
            // or a flush in this loop, has doubled `self.w` they are partial
            // blocks of the coarser base, not whole representatives.
            if self.w == target {
                self.push_representative(rep);
            } else {
                self.absorb_block(rep, target);
            }
        }
        if let Some(candidate) = other.block_candidate.take() {
            self.absorb_block(candidate, other.block_count);
        }
        self.enforce_level_cap();
        Ok(())
    }

    /// All stored points with their weights (the partial block contributes
    /// its candidate at the block's accumulated count).
    fn weighted_points(&self) -> Vec<(T, u64)> {
        let mut out: Vec<(T, u64)> = self.base.iter().map(|v| (v.clone(), self.w)).collect();
        self.hierarchy.collect_weighted(self.w, &mut out);
        if let (Some(c), count) = (&self.block_candidate, self.block_count) {
            if count > 0 {
                out.push((c.clone(), count));
            }
        }
        out
    }
}

impl<T: MergePoint + ms_core::ToJson> ms_core::ToJson for HybridQuantile<T> {
    fn to_json(&self) -> ms_core::Json {
        use ms_core::Json;
        Json::obj([
            ("epsilon", Json::F64(self.epsilon)),
            ("m", Json::U64(self.m as u64)),
            ("w", Json::U64(self.w)),
            ("block_count", Json::U64(self.block_count)),
            ("block_candidate", self.block_candidate.to_json()),
            ("base", Json::arr(self.base.iter())),
            (
                "levels",
                Json::Arr(
                    (0..self.hierarchy.num_levels())
                        .map(|_| Json::Null)
                        .collect(),
                ),
            ),
            (
                "points",
                Json::Arr(
                    self.weighted_points()
                        .iter()
                        .map(|(p, w)| Json::Arr(vec![p.to_json(), Json::U64(*w)]))
                        .collect(),
                ),
            ),
            ("n", Json::U64(self.n)),
        ])
    }
}

impl<T: MergePoint> RankSummary<T> for HybridQuantile<T> {
    fn insert(&mut self, value: T) {
        self.n += 1;
        self.absorb_block(value, 1);
    }

    fn count(&self) -> u64 {
        self.n
    }

    fn rank(&self, x: &T) -> u64 {
        let mut rank = self.hierarchy.weighted_count_below(x, self.w);
        rank += self.w * self.base.iter().filter(|v| *v < x).count() as u64;
        if let Some(c) = &self.block_candidate {
            if c < x {
                rank += self.block_count;
            }
        }
        rank
    }

    fn quantile(&self, phi: f64) -> Option<T> {
        let mut base = self.base.clone();
        base.sort_unstable();
        let mut runs = vec![(&base[..], self.w)];
        runs.extend(self.hierarchy.weighted_runs(self.w));
        if let Some(candidate) = &self.block_candidate {
            runs.push((std::slice::from_ref(candidate), self.block_count));
        }
        weighted_quantile(runs, phi)
    }
}

impl<T: MergePoint> Summary for HybridQuantile<T> {
    fn total_weight(&self) -> u64 {
        self.n
    }

    fn size(&self) -> usize {
        self.base.len()
            + self.hierarchy.stored_points()
            + usize::from(self.block_candidate.is_some())
    }
}

impl<T: MergePoint> Mergeable for HybridQuantile<T> {
    fn merge(mut self, other: Self) -> Result<Self> {
        self.merge_from(other)?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::BLOCK;
    use ms_core::{merge_all, MergeTree, RankOracle};
    use ms_workloads::ValueDist;

    fn build(values: &[u64], eps: f64, seed: u64) -> HybridQuantile<u64> {
        let mut q = HybridQuantile::new(eps, seed);
        for &v in values {
            q.insert(v);
        }
        q
    }

    fn max_rank_error(q: &HybridQuantile<u64>, oracle: &RankOracle<u64>) -> f64 {
        let n = oracle.len() as f64;
        (0..=100)
            .filter_map(|i| oracle.quantile(i as f64 / 100.0).copied())
            .map(|x| oracle.rank_error(&x, q.rank(&x)) as f64 / n)
            .fold(0.0, f64::max)
    }

    #[test]
    fn exact_for_tiny_streams() {
        let q = build(&[4, 2, 7], 0.1, 0);
        assert_eq!(q.count(), 3);
        assert_eq!(q.rank(&7), 2);
        assert_eq!(q.quantile(0.5), Some(4));
    }

    #[test]
    fn empty_summary() {
        let q = HybridQuantile::<u64>::new(0.1, 0);
        assert_eq!(q.quantile(0.3), None);
        assert_eq!(q.rank(&1), 0);
    }

    #[test]
    fn total_stored_weight_matches_n() {
        // Weight accounting must be exact: blocks + base + hierarchy = n
        // whenever no same-weight merge has dropped/added a point (we can't
        // guarantee that in general, so allow the merge slack).
        let values = ValueDist::Uniform.generate(10_000, 3);
        let q = build(&values, 0.05, 1);
        let total: u64 = q.weighted_points().iter().map(|&(_, w)| w).sum();
        let slack = (q.base_weight() * (q.max_levels() as u64 + 2)).max(16);
        assert!(
            total.abs_diff(q.count()) <= slack,
            "stored weight {total} vs n {} (slack {slack})",
            q.count()
        );
    }

    /// Every flushed buffer holds exactly `m` points, so merging two
    /// summaries must store exactly their combined `n` — including when
    /// the merge doubles the base weight while `other`'s pending base
    /// representatives (weighing the pre-doubling weight) are still to
    /// be added. Two 262,144- or 470,000-item sides double it (and used to
    /// store 580 and 290 too many); two 40,000-item sides do not.
    #[test]
    fn merge_stores_exactly_n_across_a_weight_doubling() {
        for (n, doubles) in [(262_144usize, true), (470_000, true), (40_000, false)] {
            let values = ValueDist::Uniform.generate(2 * n, 11);
            let mut q = HybridQuantile::new(0.01, 1);
            q.insert_batch(&values[..n]);
            let mut other = HybridQuantile::new(0.01, 2);
            other.insert_batch(&values[n..]);
            let w = q.base_weight();
            q.merge_from(other).unwrap();
            assert_eq!(q.base_weight() > w, doubles, "n = {n}");
            let stored: u64 = q.weighted_points().iter().map(|&(_, w)| w).sum();
            assert_eq!(stored, q.count(), "n = {n}");
        }
    }

    #[test]
    fn size_is_independent_of_n() {
        let eps = 0.05;
        let sizes: Vec<usize> = [1 << 12, 1 << 15, 1 << 18, 1 << 20]
            .iter()
            .map(|&n| build(&ValueDist::Uniform.generate(n, 7), eps, 7).size())
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap().max(&1);
        assert!(max < 3 * min, "sizes should plateau, got {sizes:?}");
        // And the plateau is O((1/ε)·log^1.5(1/ε)), far below n.
        assert!(max < 4096, "size {max} too large for eps {eps}");
    }

    #[test]
    fn base_weight_doubles_as_data_grows() {
        let eps = 0.1;
        let q_small = build(&ValueDist::Uniform.generate(1 << 10, 2), eps, 2);
        let q_large = build(&ValueDist::Uniform.generate(1 << 18, 2), eps, 2);
        assert!(q_large.base_weight() > q_small.base_weight());
        assert!(q_large.base_weight().is_power_of_two());
    }

    #[test]
    fn rank_error_within_epsilon_on_streams() {
        let eps = 0.05;
        for dist in ValueDist::canonical() {
            let values = dist.generate(100_000, 13);
            let oracle = RankOracle::from_stream(values.clone());
            let q = build(&values, eps, 99);
            let err = max_rank_error(&q, &oracle);
            assert!(err <= eps, "{}: max rank error {err} > {eps}", dist.label());
        }
    }

    #[test]
    fn rank_error_within_epsilon_under_merge_trees() {
        let eps = 0.05;
        let values = ValueDist::Uniform.generate(65_536, 17);
        let oracle = RankOracle::from_stream(values.clone());
        for shape in MergeTree::canonical() {
            let leaves: Vec<HybridQuantile<u64>> = values
                .chunks(4096)
                .enumerate()
                .map(|(i, chunk)| build(chunk, eps, 500 + i as u64))
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
    fn merging_summaries_of_very_different_sizes() {
        let eps = 0.05;
        let big_values = ValueDist::Uniform.generate(1 << 17, 19);
        let small_values = ValueDist::Uniform.generate(100, 23);
        let big = build(&big_values, eps, 1);
        let small = build(&small_values, eps, 2);
        assert!(big.base_weight() > small.base_weight());
        let merged = big.merge(small).unwrap();
        let mut all = big_values;
        all.extend(small_values);
        let oracle = RankOracle::from_stream(all);
        let err = max_rank_error(&merged, &oracle);
        assert!(err <= eps, "max rank error {err}");
    }

    #[test]
    fn merged_size_stays_bounded() {
        let eps = 0.05;
        let values = ValueDist::Uniform.generate(1 << 18, 29);
        let leaves: Vec<HybridQuantile<u64>> = values
            .chunks(1 << 12)
            .enumerate()
            .map(|(i, chunk)| build(chunk, eps, i as u64))
            .collect();
        let single = build(&values, eps, 0);
        let merged = merge_all(leaves, MergeTree::Balanced).unwrap();
        assert!(
            merged.size() <= 2 * single.size().max(64),
            "merged size {} vs single-stream size {}",
            merged.size(),
            single.size()
        );
    }

    #[test]
    fn merge_from_matches_consuming_merge_and_survives_mismatch() {
        let eps = 0.05;
        let values = ValueDist::Uniform.generate(40_000, 41);
        let (left, right) = values.split_at(20_000);
        let mut in_place = build(left, eps, 5);
        in_place.merge_from(build(right, eps, 6)).unwrap();
        let consuming = build(left, eps, 5).merge(build(right, eps, 6)).unwrap();
        let quantiles = |q: &HybridQuantile<u64>| {
            (0..=10)
                .map(|i| q.quantile(i as f64 / 10.0).unwrap())
                .collect::<Vec<u64>>()
        };
        assert_eq!(in_place.count(), consuming.count());
        assert_eq!(quantiles(&in_place), quantiles(&consuming));

        // A mismatch reports the error without touching self.
        let before = quantiles(&in_place);
        assert!(matches!(
            in_place.merge_from(HybridQuantile::new(0.2, 0)),
            Err(MergeError::EpsilonMismatch { .. })
        ));
        assert_eq!(quantiles(&in_place), before);
        assert_eq!(in_place.count(), 40_000);
    }

    #[test]
    fn merge_rejects_mismatched_epsilon() {
        let a = HybridQuantile::<u64>::new(0.1, 0);
        let b = HybridQuantile::<u64>::new(0.2, 0);
        assert!(matches!(
            a.merge(b),
            Err(MergeError::EpsilonMismatch { .. })
        ));
    }

    #[test]
    fn extreme_epsilon_values() {
        // Coarse summary (eps near 1): tiny, still answers.
        let mut coarse = HybridQuantile::new(0.9, 1);
        for v in 0..10_000u64 {
            coarse.insert(v);
        }
        assert!(coarse.size() <= 64, "size {}", coarse.size());
        assert!(coarse.quantile(0.5).is_some());
        // Values at the u64 extremes survive intact.
        let mut edge = HybridQuantile::new(0.2, 2);
        edge.insert(0u64);
        edge.insert(u64::MAX);
        assert_eq!(edge.quantile(0.0), Some(0));
        assert_eq!(edge.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn deterministic_given_seeds() {
        let values = ValueDist::Normal.generate(50_000, 31);
        let run = || {
            let q = build(&values, 0.05, 77);
            (0..=10)
                .map(|i| q.quantile(i as f64 / 10.0).unwrap())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }

    /// Packed and unpacked, a summary is the one it was — same bytes, and
    /// the same coins from there on.
    #[test]
    fn pack_round_trips_every_field() {
        // Odd length: leaves a partial block once the base weight is 2.
        let values: Vec<u64> = (0..40_001u64)
            .map(|v| (v * 2_654_435_761) % 1_000_003)
            .collect();
        let mut cases: Vec<(String, HybridQuantile<u64>)> = [0, 3, 700, 40_001]
            .into_iter()
            .map(|n| (format!("n = {n}"), build(&values[..n], 0.05, 9)))
            .collect();
        let doubled = &cases[3].1;
        assert!(doubled.base_weight() > 1 && doubled.block_candidate.is_some());
        // Buffers of `m` = 185 points end in a partial block of 57.
        assert_ne!(doubled.buffer_capacity() % BLOCK, 0);
        let extremes = [0, u64::from(u32::MAX) + 1, u64::MAX];
        let wide: Vec<u64> = extremes.iter().cycle().take(1_000).copied().collect();
        cases.push(("extremes".into(), build(&wide, 0.05, 11)));
        cases.push(("all equal".into(), build(&[u64::MAX - 1; 500], 0.05, 12)));
        // Decoded bytes may hold an empty buffer and trailing empty slots.
        let mut odd = build(&values[..700], 0.05, 13);
        let mut levels = odd.hierarchy.levels().to_vec();
        levels.insert(1, Some(SortedBuffer::from_sorted(Vec::new())));
        levels.extend([None, None]);
        odd.hierarchy = BufferHierarchy::from_levels(levels);
        cases.push(("empty and trailing levels".into(), odd));
        for (case, q) in cases {
            let mut back = q.pack().unpack();
            assert_eq!(back.encode(), q.encode(), "{case}");
            let (mut q, other) = (q, build(&values[..5_000], 0.05, 10));
            q.merge_from(other.clone()).unwrap();
            back.merge_from(other).unwrap();
            assert_eq!(back.encode(), q.encode(), "merged, {case}");
        }
    }
}
