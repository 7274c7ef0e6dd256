//! The Misra-Gries (*Frequent*) summary and the PODS'12 merge.
//!
//! # Guarantee
//!
//! An [`MgSummary`] with `k` counters over a stream of total weight `n`
//! stores at most `k` `(item, count)` pairs with total stored weight `n̂`,
//! such that for **every** item `x` (stored or not):
//!
//! ```text
//! f(x) − (n − n̂)/(k+1)  ≤  est(x)  ≤  f(x)
//! ```
//!
//! where `est(x) = 0` for unstored items. Since `n̂ ≥ 0` this is at most
//! `n/(k+1)`, i.e. error `≤ εn` for `k = ⌈1/ε⌉ − 1` counters.
//!
//! # Mergeability (Theorem 1 of the paper)
//!
//! `merge` combines two summaries counter-wise, then — if more than `k`
//! items remain — subtracts the `(k+1)`-th largest combined counter value
//! `s` from every counter and discards the non-positive ones. The combined
//! step loses nothing; the prune step increases every underestimate by at
//! most `s` while decreasing `n̂` by at least `(k+1)·s` (the top `k`
//! counters lose exactly `s` each and the `(k+1)`-th loses its entire value
//! `s`), so the invariant above survives *any* number of merges in *any*
//! order. No error metadata needs to be carried: the bound is a function of
//! the summary's own `(n, n̂, k)`.
//!
//! # Counter order
//!
//! The counters live in a dense table in first-insertion order: a counter
//! created by an update or a merge goes after every counter already
//! stored, and the weighted decrement and the merge prune drop counters
//! without reordering the rest. [`MgSummary::iter`], the encoding,
//! [`MgSummary::top_k`] and [`MgSummary::heavy_hitters`] (among equal
//! counts) follow that order, which depends only on the update and merge
//! history — never on hashing or table capacity — so decoding and
//! re-encoding a summary reproduces its bytes.

use std::hash::Hash;

use ms_core::error::ensure_same_capacity;
use ms_core::wire::{Wire, WireError, WireReader};
use ms_core::{ItemSummary, Json, MergeError, Mergeable, Result, Summary, ToJson};

use crate::table::Counters;

/// Misra-Gries summary with at most `k` counters.
///
/// ```
/// use ms_core::{ItemSummary, Mergeable, Summary};
/// use ms_frequency::MgSummary;
///
/// let mut site_a = MgSummary::for_epsilon(0.1);
/// let mut site_b = MgSummary::for_epsilon(0.1);
/// site_a.extend_from(["x", "x", "x", "y"]);
/// site_b.extend_from(["x", "z"]);
///
/// let merged = site_a.merge(site_b).unwrap();
/// assert_eq!(merged.total_weight(), 6);
/// // Estimates never overestimate and are within (n − n̂)/(k+1) below.
/// assert!(merged.estimate(&"x") <= 4);
/// assert!(merged.error_bound() <= 6.0 * 0.1);
/// ```
/// The most counters [`MgSummary::new`] reserves room for up front; a
/// larger table (ε below about 1/65536) grows as counters arrive.
const PRESIZED_COUNTERS: usize = 1 << 16;

#[derive(Debug, Clone)]
pub struct MgSummary<I> {
    k: usize,
    counters: Counters<I>,
    n: u64,
    /// Reused selection buffer for [`MgSummary::prune`]; kept empty
    /// between calls so steady-state merges stop allocating. Never part
    /// of the logical state (not encoded, not compared).
    scratch: Vec<u64>,
}

impl<I: Wire + Eq + Hash> Wire for MgSummary<I> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.k.encode_into(out);
        self.counters.encode_into(out);
        self.n.encode_into(out);
    }
    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        let k = usize::decode_from(r)?;
        if k == 0 {
            return Err(WireError::Malformed("MG capacity must be >= 1"));
        }
        let counters = Counters::decode_from(r)?;
        let n = u64::decode_from(r)?;
        MgSummary::from_decoded(k, counters, n)
    }
}

/// (internal) The stored weight `n̂` of decoded counters, refusing what
/// no encoder writes: a zero counter, or counters whose sum overflows.
/// Shared with the SpaceSaving codec.
pub(crate) fn checked_stored_weight(
    counts: impl IntoIterator<Item = u64>,
) -> std::result::Result<u64, WireError> {
    let mut sum = 0u64;
    for c in counts {
        if c == 0 {
            return Err(WireError::Malformed("zero counter"));
        }
        sum = sum
            .checked_add(c)
            .ok_or(WireError::Malformed("counter sum overflows u64"))?;
    }
    Ok(sum)
}

/// (internal) The total weight `a + b` of two summaries being merged,
/// refused before either is touched if it overflows. Each side's stored
/// weight is at most its own total, so no combined counter can overflow
/// once this sum does not.
pub(crate) fn combined_weight(a: u64, b: u64) -> Result<u64> {
    a.checked_add(b)
        .ok_or(MergeError::Incompatible("total weight overflows u64"))
}

impl<I: ToJson> ToJson for MgSummary<I> {
    fn to_json(&self) -> Json {
        Json::obj([
            ("k", Json::U64(self.k as u64)),
            (
                "counters",
                Json::Arr(
                    self.counters
                        .iter()
                        .map(|(item, count)| Json::Arr(vec![item.to_json(), Json::U64(count)]))
                        .collect(),
                ),
            ),
            ("n", Json::U64(self.n)),
        ])
    }
}

impl<I> MgSummary<I> {
    /// (internal) Build directly from parts — used by the SpaceSaving
    /// conversion, which must preserve `n` while supplying pruned counters.
    pub(crate) fn from_parts(k: usize, counters: Counters<I>, n: u64) -> Self {
        debug_assert!(counters.len() <= k);
        debug_assert!(counters.counts().all(|c| c > 0));
        MgSummary {
            k,
            counters,
            n,
            scratch: Vec::new(),
        }
    }

    /// (internal) Build from decoded parts, refusing what no encoder
    /// writes: more than `k` counters, a zero counter, or stored weight
    /// above `n`. A merged-form SpaceSaving summary decodes through here.
    pub(crate) fn from_decoded(
        k: usize,
        counters: Counters<I>,
        n: u64,
    ) -> std::result::Result<Self, WireError> {
        if counters.len() > k {
            return Err(WireError::Malformed("MG stores more than k counters"));
        }
        if checked_stored_weight(counters.counts())? > n {
            return Err(WireError::Malformed("MG stored weight exceeds n"));
        }
        Ok(MgSummary::from_parts(k, counters, n))
    }

    /// (internal) The counter table and `n` — what the SpaceSaving view
    /// over this summary encodes and iterates.
    pub(crate) fn parts(&self) -> (&Counters<I>, u64) {
        (&self.counters, self.n)
    }

    /// Counter capacity `k`.
    pub fn capacity(&self) -> usize {
        self.k
    }
}

impl<I: Eq + Hash + Clone> MgSummary<I> {
    /// Create a summary with capacity `k ≥ 1` counters. Its counter table
    /// is sized for `k` entries (up to 65,536) up front, so updates into a
    /// fresh summary do not allocate.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "MgSummary needs at least one counter");
        MgSummary {
            k,
            counters: Counters::with_capacity(k.min(PRESIZED_COUNTERS)),
            n: 0,
            scratch: Vec::new(),
        }
    }

    /// Create a summary guaranteeing error `≤ εn`: uses `k = ⌈1/ε⌉ − 1`
    /// counters (so `k + 1 ≥ 1/ε`).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn for_epsilon(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        let k = ((1.0 / epsilon).ceil() as usize).saturating_sub(1).max(1);
        Self::new(k)
    }

    /// Lower-bound estimate of the frequency of `item` (0 if unstored).
    pub fn estimate(&self, item: &I) -> u64 {
        self.counters.get(item).unwrap_or(0)
    }

    /// Upper-bound estimate: `estimate + error numerator / (k+1)` rounded up.
    pub fn estimate_upper(&self, item: &I) -> u64 {
        self.estimate(item) + self.error_numerator().div_ceil(self.k as u64 + 1)
    }

    /// Total stored weight `n̂ = Σ counters`.
    pub fn stored_weight(&self) -> u64 {
        self.counters.counts().sum()
    }

    /// The exact numerator `n − n̂` of the error bound `(n − n̂)/(k+1)`.
    ///
    /// For any item, `f(x) − est(x) ≤ (n − n̂)/(k+1)`; callers wanting an
    /// integer-exact check should verify
    /// `(f(x) − est(x)) · (k+1) ≤ error_numerator()`.
    pub fn error_numerator(&self) -> u64 {
        self.n - self.stored_weight()
    }

    /// The error bound `(n − n̂)/(k+1)` as a float (≤ `n/(k+1)`).
    pub fn error_bound(&self) -> f64 {
        self.error_numerator() as f64 / (self.k as f64 + 1.0)
    }

    /// Items whose estimate exceeds `(ε − 1/(k+1))·n` — the candidate set
    /// guaranteed to contain every true ε-heavy hitter — largest estimate
    /// first; equal estimates keep the counters' first-insertion order.
    pub fn heavy_hitters(&self, epsilon: f64) -> Vec<(I, u64)> {
        let threshold = (epsilon * self.n as f64 - self.error_bound()).max(0.0);
        let mut out: Vec<(I, u64)> = self
            .counters
            .iter()
            .filter(|&(_, c)| c as f64 > threshold)
            .map(|(i, c)| (i.clone(), c))
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.1));
        out
    }

    /// The `k` stored items with the largest estimates; equal estimates
    /// keep the counters' first-insertion order.
    pub fn top_k(&self, k: usize) -> Vec<(I, u64)> {
        let mut all: Vec<(I, u64)> = self.counters.iter().map(|(i, c)| (i.clone(), c)).collect();
        all.sort_by_key(|e| std::cmp::Reverse(e.1));
        all.truncate(k);
        all
    }

    /// Iterate over stored `(item, count)` pairs in first-insertion order:
    /// the order in which their counters were created by updates and
    /// merges (a counter dropped to zero and created again moves to the
    /// end). The encoding writes them in the same order.
    pub fn iter(&self) -> impl Iterator<Item = (&I, u64)> {
        self.counters.iter()
    }

    /// In-place Theorem 1 merge: the same counter-wise combine + prune as
    /// [`Mergeable::merge`], but mutating `self` instead of consuming and
    /// reallocating it — the compactor's steady-state path. `other`'s
    /// counters are added in their order, new items appended to `self`'s.
    /// On error (capacity mismatch, or a total weight that overflows
    /// `u64`) `self` is left untouched.
    pub fn merge_from(&mut self, other: Self) -> Result<()> {
        ensure_same_capacity("counters (k)", self.k, other.k)?;
        self.n = combined_weight(self.n, other.n)?;
        for (item, c) in other.counters.into_entries() {
            self.counters.add(item, c);
        }
        self.prune();
        Ok(())
    }

    /// Prune to at most `k` counters by subtracting the `(k+1)`-th largest
    /// value from every counter and discarding non-positive ones. No-op if
    /// at most `k` counters are stored. Selects in the reusable `scratch`
    /// buffer, so repeated prunes allocate nothing.
    fn prune(&mut self) {
        if self.counters.len() <= self.k {
            return;
        }
        let mut values = std::mem::take(&mut self.scratch);
        values.extend(self.counters.counts());
        // (k+1)-th largest = index k of the descending order. Only the
        // selected value matters, so an O(n) quickselect does.
        let (_, &mut s, _) = values.select_nth_unstable_by(self.k, |a, b| b.cmp(a));
        values.clear();
        self.scratch = values;
        self.counters.subtract_and_prune(s);
        debug_assert!(self.counters.len() <= self.k);
    }
}

impl<I: Eq + Hash + Clone> Summary for MgSummary<I> {
    fn total_weight(&self) -> u64 {
        self.n
    }

    fn size(&self) -> usize {
        self.counters.len()
    }
}

impl<I: Eq + Hash + Clone> ItemSummary<I> for MgSummary<I> {
    fn update_weighted(&mut self, item: I, weight: u64) {
        if weight == 0 {
            return;
        }
        self.n = self
            .n
            .checked_add(weight)
            .expect("total weight overflows u64");
        let Err(vacant) = self.counters.add_existing(&item, weight) else {
            return;
        };
        if self.counters.len() < self.k {
            self.counters.insert(vacant, item, weight);
            return;
        }
        // Weighted decrement: subtract the minimum d of the k+1 live
        // counters (the k stored and the newcomer's) from all of them; at
        // least the minimum hits zero and is discarded. Exactly (k+1)·d
        // weight is discarded, keeping (n − n̂) divisible by k+1 on pure
        // streams (the isomorphism tests rely on this).
        let d = self.counters.counts().fold(weight, u64::min);
        self.counters.decrement_then_push(d, item, weight);
        debug_assert!(self.counters.len() <= self.k);
    }
}

impl<I: Eq + Hash + Clone> Mergeable for MgSummary<I> {
    /// Theorem 1 merge: counter-wise combine, then prune at the `(k+1)`-th
    /// largest counter. Delegates to [`MgSummary::merge_from`] so the
    /// consuming and in-place forms can never drift apart.
    fn merge(mut self, other: Self) -> Result<Self> {
        self.merge_from(other)?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::{merge_all, FrequencyOracle, FxHashMap, MergeTree};

    /// Integer-exact check of the MG invariant for every universe item.
    fn assert_invariant(mg: &MgSummary<u64>, oracle: &FrequencyOracle<u64>) {
        assert_eq!(mg.total_weight(), oracle.total());
        let err_num = mg.error_numerator();
        let k1 = mg.capacity() as u64 + 1;
        for (item, truth) in oracle.iter() {
            let est = mg.estimate(item);
            assert!(
                est <= truth,
                "overestimate: item {item} est {est} > {truth}"
            );
            assert!(
                (truth - est) * k1 <= err_num,
                "bound violated: item {item}, truth {truth}, est {est}, \
                 err_num {err_num}, k+1 {k1}"
            );
        }
        // The bound itself must stay within n/(k+1) (≤ εn).
        assert!(err_num <= mg.total_weight());
    }

    #[test]
    fn small_stream_exact_when_under_capacity() {
        let mut mg = MgSummary::new(10);
        for item in [1u64, 2, 2, 3, 3, 3] {
            mg.update(item);
        }
        assert_eq!(mg.estimate(&1), 1);
        assert_eq!(mg.estimate(&2), 2);
        assert_eq!(mg.estimate(&3), 3);
        assert_eq!(mg.error_numerator(), 0);
        assert_eq!(mg.size(), 3);
    }

    #[test]
    fn classic_majority_example() {
        // k = 1 is the Boyer-Moore majority vote.
        let mut mg = MgSummary::new(1);
        for item in [5u64, 5, 2, 5, 3, 5, 5] {
            mg.update(item);
        }
        assert!(mg.estimate(&5) > 0);
        assert!(mg.size() <= 1);
    }

    #[test]
    fn never_overestimates_and_meets_bound() {
        let items: Vec<u64> = (0..5000).map(|i| i % 100).collect();
        let oracle = FrequencyOracle::from_stream(items.clone());
        let mut mg = MgSummary::new(9);
        mg.extend_from(items);
        assert_invariant(&mg, &oracle);
    }

    #[test]
    fn weighted_equals_repeated_unweighted() {
        let mut by_weight = MgSummary::new(4);
        let mut by_repeat = MgSummary::new(4);
        let updates = [(1u64, 5u64), (2, 3), (3, 7), (4, 1), (5, 2), (1, 4)];
        for &(item, w) in &updates {
            by_weight.update_weighted(item, w);
        }
        for &(item, w) in &updates {
            for _ in 0..w {
                by_repeat.update(item);
            }
        }
        assert_eq!(by_weight.total_weight(), by_repeat.total_weight());
        // Counter contents can differ (decrement granularity), but both
        // must satisfy the invariant; check estimates bound each other
        // within the common error budget.
        let oracle = {
            let mut o = FrequencyOracle::new();
            for &(item, w) in &updates {
                o.insert_weighted(item, w);
            }
            o
        };
        assert_invariant(&by_weight, &oracle);
        assert_invariant(&by_repeat, &oracle);
    }

    #[test]
    fn zero_weight_update_is_noop() {
        let mut mg = MgSummary::new(2);
        mg.update_weighted(9, 0);
        assert!(mg.is_empty());
        assert_eq!(mg.size(), 0);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut mg = MgSummary::new(3);
        for i in 0..1000u64 {
            mg.update(i);
            assert!(mg.size() <= 3);
        }
    }

    #[test]
    fn all_distinct_stream_leaves_bound_tight() {
        let mut mg = MgSummary::new(4);
        for i in 0..1000u64 {
            mg.update(i);
        }
        // 1000 distinct items, 4 counters: error numerator = n − n̂.
        let oracle = FrequencyOracle::from_stream(0..1000u64);
        assert_invariant(&mg, &oracle);
        assert!(mg.error_bound() <= 1000.0 / 5.0);
    }

    #[test]
    fn for_epsilon_sets_capacity() {
        assert_eq!(MgSummary::<u64>::for_epsilon(0.1).capacity(), 9);
        assert_eq!(MgSummary::<u64>::for_epsilon(0.5).capacity(), 1);
        assert_eq!(MgSummary::<u64>::for_epsilon(0.01).capacity(), 99);
        // Guarantee: error ≤ εn needs k+1 ≥ 1/ε.
        for eps in [0.3, 0.07, 0.011] {
            let k = MgSummary::<u64>::for_epsilon(eps).capacity();
            assert!((k + 1) as f64 >= 1.0 / eps - 1e-9, "eps {eps} → k {k}");
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn epsilon_one_is_rejected() {
        let _ = MgSummary::<u64>::for_epsilon(1.0);
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_capacity_is_rejected() {
        let _ = MgSummary::<u64>::new(0);
    }

    #[test]
    fn merge_capacity_mismatch_errors() {
        let a = MgSummary::<u64>::new(3);
        let b = MgSummary::<u64>::new(4);
        match a.merge(b) {
            Err(MergeError::CapacityMismatch { left, right, .. }) => {
                assert_eq!((left, right), (3, 4));
            }
            other => panic!("expected capacity mismatch, got {other:?}"),
        }
    }

    #[test]
    fn merge_disjoint_summaries_prunes_to_k() {
        // Mirrors the structure of the worked example in the extension
        // paper: two k−1-counter summaries over disjoint items.
        let mut a = MgSummary::new(4);
        let mut b = MgSummary::new(4);
        for (item, w) in [(2u64, 4u64), (3, 11), (4, 22), (5, 33)] {
            a.update_weighted(item, w);
        }
        for (item, w) in [(7u64, 10u64), (8, 20), (9, 30), (10, 45)] {
            b.update_weighted(item, w);
        }
        let m = a.merge(b).unwrap();
        assert!(m.size() <= 4);
        assert_eq!(m.total_weight(), 175);
        // (k+1)-th largest of {4,10,11,20,22,30,33,45} is 20; survivors are
        // 22−20, 30−20, 33−20, 45−20.
        assert_eq!(m.estimate(&4), 2);
        assert_eq!(m.estimate(&9), 10);
        assert_eq!(m.estimate(&5), 13);
        assert_eq!(m.estimate(&10), 25);
        assert_eq!(m.estimate(&2), 0);
    }

    #[test]
    fn merge_from_is_identical_to_consuming_merge() {
        use ms_workloads::StreamKind;
        let items = StreamKind::Zipf {
            s: 1.2,
            universe: 500,
        }
        .generate(30_000, 11);
        let build = |range: std::ops::Range<usize>| {
            let mut mg = MgSummary::new(9);
            mg.extend_from(items[range].iter().copied());
            mg
        };
        let mut in_place = build(0..10_000);
        in_place.merge_from(build(10_000..20_000)).unwrap();
        in_place.merge_from(build(20_000..30_000)).unwrap();
        let consuming = build(0..10_000)
            .merge(build(10_000..20_000))
            .unwrap()
            .merge(build(20_000..30_000))
            .unwrap();
        assert_eq!(in_place.total_weight(), consuming.total_weight());
        let sorted = |mg: &MgSummary<u64>| {
            let mut v: Vec<(u64, u64)> = mg.iter().map(|(i, c)| (*i, c)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&in_place), sorted(&consuming));
        // Error path leaves self untouched.
        let mut a = MgSummary::<u64>::new(3);
        a.update_weighted(1, 5);
        assert!(a.merge_from(MgSummary::new(4)).is_err());
        assert_eq!(a.estimate(&1), 5);
        assert_eq!(a.total_weight(), 5);
    }

    #[test]
    fn merge_overlapping_summaries_adds_counts() {
        let mut a = MgSummary::new(5);
        let mut b = MgSummary::new(5);
        a.update_weighted(1, 10);
        a.update_weighted(2, 5);
        b.update_weighted(1, 7);
        b.update_weighted(3, 2);
        let m = a.merge(b).unwrap();
        assert_eq!(m.estimate(&1), 17);
        assert_eq!(m.estimate(&2), 5);
        assert_eq!(m.estimate(&3), 2);
        assert_eq!(m.error_numerator(), 0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = MgSummary::new(3);
        a.update_weighted(1, 4);
        a.update_weighted(2, 2);
        let before: Vec<(u64, u64)> = {
            let mut v: Vec<(u64, u64)> = a.iter().map(|(i, c)| (*i, c)).collect();
            v.sort_unstable();
            v
        };
        let m = a.merge(MgSummary::new(3)).unwrap();
        let mut after: Vec<(u64, u64)> = m.iter().map(|(i, c)| (*i, c)).collect();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn invariant_survives_every_canonical_merge_tree() {
        use ms_workloads::{Partitioner, StreamKind};
        let items = StreamKind::Zipf {
            s: 1.2,
            universe: 2000,
        }
        .generate(40_000, 77);
        let oracle = FrequencyOracle::from_stream(items.clone());

        for partitioner in Partitioner::canonical() {
            let parts = partitioner.split(&items, 16);
            for shape in MergeTree::canonical() {
                let leaves: Vec<MgSummary<u64>> = parts
                    .iter()
                    .map(|part| {
                        let mut mg = MgSummary::new(19);
                        mg.extend_from(part.iter().copied());
                        mg
                    })
                    .collect();
                let merged = merge_all(leaves, shape).unwrap();
                assert_invariant(&merged, &oracle);
            }
        }
    }

    #[test]
    fn heavy_hitters_contains_all_true_heavy_hitters() {
        use ms_workloads::StreamKind;
        let eps = 0.05;
        let items = StreamKind::Zipf {
            s: 1.5,
            universe: 10_000,
        }
        .generate(100_000, 3);
        let oracle = FrequencyOracle::from_stream(items.clone());
        let mut mg = MgSummary::for_epsilon(eps);
        mg.extend_from(items);
        let reported: Vec<u64> = mg.heavy_hitters(eps).into_iter().map(|(i, _)| i).collect();
        for (item, _) in oracle.heavy_hitters(eps) {
            assert!(reported.contains(&item), "missing heavy hitter {item}");
        }
    }

    #[test]
    fn estimate_upper_is_an_upper_bound() {
        use ms_workloads::StreamKind;
        let items = StreamKind::Zipf {
            s: 1.1,
            universe: 500,
        }
        .generate(20_000, 9);
        let oracle = FrequencyOracle::from_stream(items.clone());
        let mut mg = MgSummary::new(15);
        mg.extend_from(items);
        for (item, truth) in oracle.iter() {
            assert!(mg.estimate_upper(item) >= truth);
        }
    }

    #[test]
    fn top_k_orders_by_estimate() {
        let mut mg = MgSummary::new(8);
        for (item, w) in [(1u64, 30u64), (2, 20), (3, 10), (4, 5)] {
            mg.update_weighted(item, w);
        }
        assert_eq!(mg.top_k(2), vec![(1, 30), (2, 20)]);
        assert_eq!(mg.top_k(10).len(), 4);
        assert!(mg.top_k(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn weight_overflow_is_detected() {
        let mut mg = MgSummary::new(2);
        mg.update_weighted(1u64, u64::MAX);
        mg.update_weighted(2u64, 1);
    }

    #[test]
    fn decode_rejects_a_zero_counter_or_an_overflowing_sum() {
        // k = 3, counters {1: 4, 2: c}, n = 7: legal bytes for 0 < c ≤ 3.
        // No encoder writes c = 0, and c = u64::MAX makes n̂ overflow.
        let bytes = |c: u64| {
            let mut counters = FxHashMap::default();
            counters.insert(1u64, 4u64);
            counters.insert(2u64, c);
            let mut out = Vec::new();
            3usize.encode_into(&mut out);
            counters.encode_into(&mut out);
            7u64.encode_into(&mut out);
            out
        };
        assert_eq!(MgSummary::<u64>::decode(&bytes(3)).unwrap().estimate(&2), 3);
        for c in [0, u64::MAX] {
            assert!(
                matches!(
                    MgSummary::<u64>::decode(&bytes(c)),
                    Err(WireError::Malformed(_))
                ),
                "c = {c}"
            );
        }
    }

    #[test]
    fn chain_of_many_merges_does_not_degrade() {
        // 64 sites, chain merge — error must stay ≤ n/(k+1), not 64× that.
        use ms_workloads::StreamKind;
        let items = StreamKind::Uniform { universe: 300 }.generate(64_000, 5);
        let oracle = FrequencyOracle::from_stream(items.clone());
        let leaves: Vec<MgSummary<u64>> = items
            .chunks(1000)
            .map(|chunk| {
                let mut mg = MgSummary::new(9);
                mg.extend_from(chunk.iter().copied());
                mg
            })
            .collect();
        let merged = merge_all(leaves, MergeTree::Chain).unwrap();
        assert_invariant(&merged, &oracle);
    }
}
