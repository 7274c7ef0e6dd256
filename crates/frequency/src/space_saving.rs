//! The SpaceSaving summary (Metwally et al.) and its PODS'12 merge.
//!
//! # Two representations, one guarantee
//!
//! While a summary is built by **streaming**, it uses the classic
//! SpaceSaving representation: `k` counters, every arrival increments a
//! counter (evicting a minimum counter when the item is new and the summary
//! is full), so the counters sum to exactly `n` and every stored counter is
//! an **upper bound** on the item's true frequency, over by at most the
//! minimum counter `≤ n/k`.
//!
//! **Merging** uses the isomorphism of §3 of the paper: a SpaceSaving
//! summary with `k` counters carries exactly the information of a
//! Misra-Gries summary with `k−1` counters (subtract the minimum counter
//! from every counter and drop the zeros). The merge converts both inputs
//! to MG form, applies the MG merge (Theorem 1), and keeps the result in MG
//! form — an [`MgSummary`] with `k−1` counters, so every later update,
//! merge and bound of a merged summary is `MgSummary`'s own. Its counters
//! are **lower bounds**, and the deficit `n − n̂`
//! (weight not represented in the counters) yields integer-exact upper
//! bounds `counter + ⌈(n − n̂)/k⌉`. The MG invariant
//! `(f(x) − est(x))·k ≤ n − n̂` is self-maintaining under this merge —
//! stripping the minimum `m` removes exactly `k·m` of stored weight,
//! covering the `m` of extra underestimation `k`-fold, and the prune step
//! covers itself the same way — so merged summaries keep the `εn = n/k`
//! guarantee under arbitrary merge trees with no error metadata. What
//! SpaceSaving still decides in merged form — [`estimate`],
//! [`heavy_hitters`], [`encode_merged`] — reads a borrowed `MgSummary`, so a
//! caller that keeps the MG table itself answers and encodes identically.
//!
//! The public API exposes the guarantee uniformly through
//! [`SpaceSavingSummary::lower_bound`] / [`SpaceSavingSummary::upper_bound`]:
//! in both representations the true frequency of **every** item (stored or
//! not) lies in `[lower_bound, upper_bound]`, and the bracket width is at
//! most `2·⌈n/k⌉`.

use std::hash::Hash;

use ms_core::error::ensure_same_capacity;
use ms_core::wire::{Wire, WireError, WireReader};
use ms_core::{FxHashMap, ItemSummary, Json, Mergeable, Result, Summary, ToJson};

use crate::mg::{checked_stored_weight, combined_weight, MgSummary};
use crate::table::Counters;

/// Which invariant the counter table currently satisfies.
#[derive(Debug, Clone)]
enum Repr<I> {
    /// Classic SpaceSaving: counters sum to `n`, counters overestimate.
    Stream {
        counters: FxHashMap<I, u64>,
        n: u64,
        /// Derived eviction index; rebuilt on demand after decoding.
        index: Option<MinIndex<I>>,
    },
    /// Misra-Gries form: the MG summary with `k−1` counters. Counters
    /// underestimate and `n − n̂` bounds the total underestimation
    /// `k`-fold.
    Merged(MgSummary<I>),
}

/// Value-bucket index over the streaming counter table, so evictions find
/// a minimum counter in `O(log k)` instead of scanning all `k` counters.
///
/// Maintained only in the streaming representation; rebuilt lazily after
/// deserialization (it is derived state, so it is not serialized) and
/// dropped when the summary turns into MG form.
#[derive(Debug, Clone, Default)]
struct MinIndex<I> {
    buckets: std::collections::BTreeMap<u64, ms_core::FxHashSet<I>>,
}

impl<I: Eq + Hash + Clone> MinIndex<I> {
    fn build(counters: &FxHashMap<I, u64>) -> Self {
        let mut index = MinIndex {
            buckets: std::collections::BTreeMap::new(),
        };
        for (item, &count) in counters {
            index.buckets.entry(count).or_default().insert(item.clone());
        }
        index
    }

    /// Record that `item` moved from count `old` (0 = newly inserted) to
    /// count `new`.
    fn bump(&mut self, item: &I, old: u64, new: u64) {
        if old > 0 {
            self.remove(item, old);
        }
        self.buckets.entry(new).or_default().insert(item.clone());
    }

    fn remove(&mut self, item: &I, count: u64) {
        let bucket = self
            .buckets
            .get_mut(&count)
            .expect("index out of sync: missing bucket");
        let removed = bucket.remove(item);
        debug_assert!(removed, "index out of sync: missing item");
        if bucket.is_empty() {
            self.buckets.remove(&count);
        }
    }

    /// Remove and return one arbitrary item at the minimum count.
    fn pop_min(&mut self) -> (I, u64) {
        let (&count, bucket) = self
            .buckets
            .iter_mut()
            .next()
            .expect("pop_min on empty index");
        let item = bucket.iter().next().expect("buckets are non-empty").clone();
        bucket.remove(&item);
        if bucket.is_empty() {
            self.buckets.remove(&count);
        }
        (item, count)
    }
}

/// SpaceSaving summary with at most `k` counters.
///
/// ```
/// use ms_core::{ItemSummary, Mergeable};
/// use ms_frequency::SpaceSavingSummary;
///
/// let mut ss = SpaceSavingSummary::new(4);
/// for item in [1u64, 1, 1, 2, 3, 4, 5, 1] {
///     ss.update(item);
/// }
/// // The true frequency of every item lies in [lower, upper].
/// assert!(ss.lower_bound(&1) <= 4 && 4 <= ss.upper_bound(&1));
/// // Items never seen are bounded too.
/// assert!(ss.upper_bound(&999) <= 8 / 4 + 1);
/// ```
#[derive(Debug, Clone)]
pub struct SpaceSavingSummary<I> {
    /// Counter capacity; in merged form the MG summary holds `k − 1`.
    k: usize,
    repr: Repr<I>,
}

impl<I> SpaceSavingSummary<I> {
    /// The stored `(item, raw counter)` pairs in whichever form is current.
    fn counters(&self) -> impl Iterator<Item = (&I, u64)> {
        let (stream, merged) = match &self.repr {
            Repr::Stream { counters, .. } => (Some(counters), None),
            Repr::Merged(mg) => (None, Some(mg.parts().0)),
        };
        let stream = stream.into_iter().flatten().map(|(i, &c)| (i, c));
        stream.chain(merged.into_iter().flat_map(Counters::iter))
    }
}

impl<I: Wire + Eq + Hash> Wire for SpaceSavingSummary<I> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match &self.repr {
            Repr::Stream { counters, n, .. } => {
                self.k.encode_into(out);
                counters.encode_into(out);
                n.encode_into(out);
                // The eviction index is derived state and is rebuilt lazily.
                out.push(0);
            }
            Repr::Merged(mg) => encode_merged(mg, out),
        }
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        let k = usize::decode_from(r)?;
        let counters = Counters::<I>::decode_from(r)?;
        let n = u64::decode_from(r)?;
        let repr = r.byte()?;
        if k < 2 {
            return Err(WireError::Malformed("SpaceSaving needs k >= 2"));
        }
        let repr = match repr {
            // Streaming invariant: at most k counters summing to exactly n.
            0 if counters.len() <= k && checked_stored_weight(counters.counts())? == n => {
                Repr::Stream {
                    counters: counters.into_entries().collect(),
                    n,
                    index: None,
                }
            }
            0 => return Err(WireError::Malformed("SpaceSaving stream invariant")),
            // Merged form: an MG summary with k − 1 counters, checked as one.
            1 => Repr::Merged(MgSummary::from_decoded(k - 1, counters, n)?),
            _ => return Err(WireError::Malformed("unknown SpaceSaving representation")),
        };
        Ok(SpaceSavingSummary { k, repr })
    }
}

impl<I: ToJson> ToJson for SpaceSavingSummary<I> {
    fn to_json(&self) -> Json {
        let (repr, n) = match &self.repr {
            Repr::Stream { n, .. } => ("stream", *n),
            Repr::Merged(mg) => ("merged", mg.parts().1),
        };
        Json::obj([
            ("k", Json::U64(self.k as u64)),
            ("repr", Json::Str(repr.to_string())),
            (
                "counters",
                Json::Arr(
                    self.counters()
                        .map(|(i, c)| Json::Arr(vec![i.to_json(), Json::U64(c)]))
                        .collect(),
                ),
            ),
            ("n", Json::U64(n)),
        ])
    }
}

/// The SpaceSaving point answer over `mg`: the upper bound
/// `counter + ⌈(n − n̂)/(k+1)⌉` for a stored item, 0 for an unstored one
/// (no stored counter is zero).
pub fn estimate<I: Eq + Hash + Clone>(mg: &MgSummary<I>, item: &I) -> u64 {
    match mg.estimate(item) {
        0 => 0,
        _ => mg.estimate_upper(item),
    }
}

/// The SpaceSaving heavy hitters over `mg`: stored items whose upper
/// bound exceeds `epsilon·n`, largest bound first.
pub fn heavy_hitters<I: Eq + Hash + Clone>(mg: &MgSummary<I>, epsilon: f64) -> Vec<(I, u64)> {
    let radius = mg.error_numerator().div_ceil(mg.capacity() as u64 + 1);
    let bounds = mg.iter().map(|(item, c)| (item, c + radius));
    above(bounds, epsilon * mg.total_weight() as f64)
}

/// The SpaceSaving bytes of `mg`: the merged form with `k + 1` counters,
/// which [`SpaceSavingSummary::decode_from`] reads back.
pub fn encode_merged<I: Wire + Eq + Hash>(mg: &MgSummary<I>, out: &mut Vec<u8>) {
    let (counters, n) = mg.parts();
    (mg.capacity() + 1).encode_into(out);
    counters.encode_into(out);
    n.encode_into(out);
    out.push(1);
}

/// `(item, upper bound)` pairs above `threshold`, largest bound first.
fn above<'a, I: Clone + 'a>(
    bounds: impl Iterator<Item = (&'a I, u64)>,
    threshold: f64,
) -> Vec<(I, u64)> {
    let mut out: Vec<(I, u64)> = bounds
        .filter(|&(_, ub)| ub as f64 > threshold)
        .map(|(item, ub)| (item.clone(), ub))
        .collect();
    out.sort_by_key(|e| std::cmp::Reverse(e.1));
    out
}

/// Lemma 1: the MG summary with `k−1` counters isomorphic to a streaming
/// table of `k` — when the table is saturated, subtract the minimum
/// counter from every counter and drop the zeros. The MG counters take
/// the streaming map's iteration order.
fn stream_to_mg<I: Eq + Hash + Clone>(
    k: usize,
    counters: FxHashMap<I, u64>,
    n: u64,
) -> MgSummary<I> {
    let m = if counters.len() == k {
        counters.values().copied().min().unwrap_or(0)
    } else {
        0
    };
    let mut kept = Counters::with_capacity(counters.len());
    for (item, c) in counters {
        if c > m {
            kept.add(item, c - m);
        }
    }
    MgSummary::from_parts(k - 1, kept, n)
}

impl<I: Eq + Hash + Clone> SpaceSavingSummary<I> {
    /// Create a summary with `k ≥ 2` counters (error `≤ n/k`).
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` (the MG-equivalent form needs `k−1 ≥ 1` counters).
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "SpaceSavingSummary needs at least two counters");
        SpaceSavingSummary {
            k,
            repr: Repr::Stream {
                counters: FxHashMap::default(),
                n: 0,
                index: None,
            },
        }
    }

    /// Create a summary guaranteeing error `≤ εn`: uses `k = ⌈1/ε⌉`
    /// counters.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn for_epsilon(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 1.0,
            "epsilon must be in (0, 1), got {epsilon}"
        );
        Self::new(((1.0 / epsilon).ceil() as usize).max(2))
    }

    /// Counter capacity `k`.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Smallest stored counter (0 if the summary is not saturated).
    pub fn min_counter(&self) -> u64 {
        if self.size() < self.k {
            0
        } else {
            self.counters().map(|(_, c)| c).min().unwrap_or(0)
        }
    }

    /// Guaranteed lower bound on the true frequency of `item`.
    pub fn lower_bound(&self, item: &I) -> u64 {
        match &self.repr {
            Repr::Stream { counters, .. } => {
                let c = counters.get(item).copied().unwrap_or(0);
                c.saturating_sub(self.min_counter())
            }
            Repr::Merged(mg) => mg.estimate(item),
        }
    }

    /// Guaranteed upper bound on the true frequency of `item` — also valid
    /// for items the summary has never seen.
    pub fn upper_bound(&self, item: &I) -> u64 {
        match &self.repr {
            Repr::Stream { counters, .. } => counters
                .get(item)
                .copied()
                .unwrap_or_else(|| self.min_counter()),
            Repr::Merged(mg) => mg.estimate_upper(item),
        }
    }

    /// Point estimate: the upper bound (the conventional SpaceSaving
    /// answer) for stored items, 0 for unstored items.
    pub fn estimate(&self, item: &I) -> u64 {
        match &self.repr {
            Repr::Stream { counters, .. } => counters.get(item).copied().unwrap_or(0),
            Repr::Merged(mg) => estimate(mg, item),
        }
    }

    /// The guaranteed error radius: for every item the true frequency lies
    /// within `error_bound()` of [`Self::estimate`] (taking absent items'
    /// estimate as 0 with one-sided error). Always `≤ ⌈n/k⌉`: the minimum
    /// counter in streaming form, `⌈(n − n̂)/k⌉` in MG form.
    pub fn error_bound(&self) -> u64 {
        match &self.repr {
            Repr::Stream { .. } => self.min_counter(),
            Repr::Merged(mg) => mg.error_numerator().div_ceil(self.k as u64),
        }
    }

    /// Items whose upper bound exceeds `εn` — contains every true ε-heavy
    /// hitter.
    pub fn heavy_hitters(&self, epsilon: f64) -> Vec<(I, u64)> {
        match &self.repr {
            // A stored counter is its item's upper bound.
            Repr::Stream { counters, n, .. } => {
                above(counters.iter().map(|(i, &c)| (i, c)), epsilon * *n as f64)
            }
            Repr::Merged(mg) => heavy_hitters(mg, epsilon),
        }
    }

    /// The `k` stored items with the largest upper bounds.
    pub fn top_k(&self, k: usize) -> Vec<(I, u64)> {
        let mut all: Vec<(I, u64)> = self
            .counters()
            .map(|(i, _)| (i.clone(), self.upper_bound(i)))
            .collect();
        all.sort_by_key(|e| std::cmp::Reverse(e.1));
        all.truncate(k);
        all
    }

    /// Iterate over stored `(item, raw counter)` pairs: in the MG
    /// table's first-insertion order in merged form, in unspecified order
    /// while streaming. Counter semantics depend on the representation;
    /// prefer the bound accessors for guaranteed statements.
    pub fn iter(&self) -> impl Iterator<Item = (&I, u64)> {
        self.counters()
    }

    /// Convert into the isomorphic Misra-Gries summary with `k−1` counters
    /// (§3, Lemma 1): subtract the minimum counter from every counter and
    /// drop zeros. A merged-form summary already is that MG summary and is
    /// moved out as it is.
    pub fn into_mg(self) -> MgSummary<I> {
        match self.repr {
            Repr::Stream { counters, n, .. } => stream_to_mg(self.k, counters, n),
            Repr::Merged(mg) => mg,
        }
    }

    /// The SpaceSaving summary isomorphic to `mg` (§3, Lemma 1) — the
    /// inverse of [`Self::into_mg`]: a view with `mg.capacity() + 1`
    /// counters over `mg` itself, in the merged (MG-form) representation.
    /// Updates, merges and bounds then run `MgSummary`'s own code, and on
    /// a unit-weight stream the view answers exactly as a SpaceSaving
    /// summary streamed over `mg`'s input.
    pub fn from_mg(mg: MgSummary<I>) -> Self {
        SpaceSavingSummary {
            k: mg.capacity() + 1,
            repr: Repr::Merged(mg),
        }
    }

    /// In-place §3 merge: convert both sides to the MG (`k−1`) form and
    /// apply [`MgSummary::merge_from`] — the same result as
    /// [`Mergeable::merge`] without rebuilding `self`'s counter table. On
    /// error (capacity mismatch, or a total weight that overflows `u64`)
    /// `self` is left untouched.
    pub fn merge_from(&mut self, other: Self) -> Result<()> {
        ensure_same_capacity("counters (k)", self.k, other.k)?;
        combined_weight(self.total_weight(), other.total_weight())?;
        self.make_merged().merge_from(other.into_mg())
    }

    /// Turn `self` into the MG (`k−1`) representation in place (Lemma 1)
    /// and return that MG summary.
    fn make_merged(&mut self) -> &mut MgSummary<I> {
        if let Repr::Stream { counters, n, .. } = &mut self.repr {
            let mg = stream_to_mg(self.k, std::mem::take(counters), *n);
            self.repr = Repr::Merged(mg);
        }
        match &mut self.repr {
            Repr::Merged(mg) => mg,
            Repr::Stream { .. } => unreachable!("converted above"),
        }
    }
}

impl<I: Eq + Hash + Clone> Summary for SpaceSavingSummary<I> {
    fn total_weight(&self) -> u64 {
        match &self.repr {
            Repr::Stream { n, .. } => *n,
            Repr::Merged(mg) => mg.total_weight(),
        }
    }

    fn size(&self) -> usize {
        match &self.repr {
            Repr::Stream { counters, .. } => counters.len(),
            Repr::Merged(mg) => mg.size(),
        }
    }
}

impl<I: Eq + Hash + Clone> ItemSummary<I> for SpaceSavingSummary<I> {
    fn update_weighted(&mut self, item: I, weight: u64) {
        let k = self.k;
        let (counters, n, index) = match &mut self.repr {
            Repr::Stream { counters, n, index } => (counters, n, index),
            Repr::Merged(mg) => return mg.update_weighted(item, weight),
        };
        if weight == 0 {
            return;
        }
        *n = n.checked_add(weight).expect("total weight overflows u64");
        if counters.len() >= k && index.is_none() {
            // First saturated update (or first after deserialization):
            // build the eviction index.
            *index = Some(MinIndex::build(counters));
        }
        if let Some(c) = counters.get_mut(&item) {
            let old = *c;
            *c += weight;
            if let Some(index) = index {
                index.bump(&item, old, old + weight);
            }
            return;
        }
        if counters.len() < k {
            counters.insert(item.clone(), weight);
            if let Some(index) = index {
                index.bump(&item, 0, weight);
            }
            return;
        }
        // Evict a minimum counter: the newcomer inherits its count, keeping
        // the sum of counters equal to n (the SpaceSaving invariant).
        let index = index.as_mut().expect("index built when saturated");
        let (evict, m) = index.pop_min();
        counters.remove(&evict);
        counters.insert(item.clone(), m + weight);
        index.bump(&item, 0, m + weight);
    }
}

impl<I: Eq + Hash + Clone> Mergeable for SpaceSavingSummary<I> {
    /// Merge through the MG isomorphism (§3): `SS(k) ≅ MG(k−1)`, so convert
    /// both, apply Theorem 1, and keep the MG form.
    fn merge(mut self, other: Self) -> Result<Self> {
        self.merge_from(other)?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::{merge_all, FrequencyOracle, MergeError, MergeTree};

    /// Check the bracket guarantee for every universe item and the εn error
    /// radius, in exact integer arithmetic.
    fn assert_bracket(ss: &SpaceSavingSummary<u64>, oracle: &FrequencyOracle<u64>) {
        assert_eq!(ss.total_weight(), oracle.total());
        let radius = ss.error_bound();
        // radius ≤ ⌈n/k⌉.
        assert!(
            radius <= ss.total_weight().div_ceil(ss.capacity() as u64),
            "radius {radius} exceeds n/k"
        );
        for (item, truth) in oracle.iter() {
            let lo = ss.lower_bound(item);
            let hi = ss.upper_bound(item);
            assert!(
                lo <= truth && truth <= hi,
                "bracket violated: item {item}, truth {truth}, [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn exact_below_capacity() {
        let mut ss = SpaceSavingSummary::new(8);
        for item in [1u64, 2, 2, 3, 3, 3] {
            ss.update(item);
        }
        assert_eq!(ss.estimate(&3), 3);
        assert_eq!(ss.estimate(&1), 1);
        assert_eq!(ss.lower_bound(&2), 2);
        assert_eq!(ss.upper_bound(&2), 2);
        assert_eq!(ss.error_bound(), 0);
    }

    #[test]
    fn eviction_keeps_sum_equal_to_n() {
        let mut ss = SpaceSavingSummary::new(3);
        for i in 0..100u64 {
            ss.update(i);
            let sum: u64 = ss.iter().map(|(_, c)| c).sum();
            assert_eq!(sum, ss.total_weight());
            assert!(ss.size() <= 3);
        }
    }

    #[test]
    fn stored_counters_overestimate_in_streaming() {
        let items: Vec<u64> = (0..5000).map(|i| i % 37).collect();
        let oracle = FrequencyOracle::from_stream(items.clone());
        let mut ss = SpaceSavingSummary::new(10);
        ss.extend_from(items);
        for (item, counter) in ss.iter() {
            assert!(counter >= oracle.count(item));
        }
        assert_bracket(&ss, &oracle);
    }

    #[test]
    fn absent_items_bounded_by_min_counter() {
        let mut ss = SpaceSavingSummary::new(4);
        for i in 0..1000u64 {
            ss.update(i % 100);
        }
        let unseen = 12345u64;
        assert_eq!(ss.lower_bound(&unseen), 0);
        assert!(ss.upper_bound(&unseen) <= 1000u64.div_ceil(4));
    }

    #[test]
    fn for_epsilon_sets_capacity() {
        assert_eq!(SpaceSavingSummary::<u64>::for_epsilon(0.1).capacity(), 10);
        assert_eq!(SpaceSavingSummary::<u64>::for_epsilon(0.5).capacity(), 2);
        assert_eq!(
            SpaceSavingSummary::<u64>::for_epsilon(0.003).capacity(),
            334
        );
    }

    #[test]
    fn for_epsilon_is_one_counter_above_mg() {
        // Load-bearing for the segment cube: it derives its SpaceSaving
        // family from the MG family via `from_mg`, which is only the
        // summary `for_epsilon` would have streamed if the two sizings
        // stay exactly one counter apart (Lemma 1: SS(k+1) ≅ MG(k)).
        let mut eps = 0.9;
        while eps > 1e-5 {
            assert_eq!(
                SpaceSavingSummary::<u64>::for_epsilon(eps).capacity(),
                MgSummary::<u64>::for_epsilon(eps).capacity() + 1,
                "epsilon {eps}"
            );
            eps *= 0.83;
        }
        for denom in 2..=200u32 {
            let eps = 1.0 / f64::from(denom);
            assert_eq!(
                SpaceSavingSummary::<u64>::for_epsilon(eps).capacity(),
                MgSummary::<u64>::for_epsilon(eps).capacity() + 1,
                "epsilon 1/{denom}"
            );
        }
    }

    #[test]
    fn from_mg_inverts_into_mg() {
        use ms_workloads::StreamKind;
        let items = StreamKind::Zipf {
            s: 1.2,
            universe: 700,
        }
        .generate(20_000, 11);
        let oracle = FrequencyOracle::from_stream(items.clone());
        let mut mg = MgSummary::new(15);
        let mut streamed = SpaceSavingSummary::new(16);
        for &item in &items {
            mg.update(item);
            streamed.update(item);
        }
        let derived = SpaceSavingSummary::from_mg(mg.clone());
        assert_eq!(derived.capacity(), 16);
        assert_bracket(&derived, &oracle);
        let table = |mg: MgSummary<u64>| {
            let mut v: Vec<(u64, u64)> = mg.iter().map(|(i, c)| (*i, c)).collect();
            v.sort_unstable();
            v
        };
        // Round trip is the identity, and on a unit-weight stream it is
        // the very table the streamed SS(k+1) converts to — items included.
        assert_eq!(table(derived.clone().into_mg()), table(mg));
        assert_eq!(
            table(derived.clone().into_mg()),
            table(streamed.clone().into_mg())
        );
        for (item, _) in derived.iter() {
            assert_eq!(derived.estimate(item), streamed.estimate(item));
        }
        // A derived summary still decodes under the merged-form checks.
        let back = SpaceSavingSummary::<u64>::decode(&derived.encode()).unwrap();
        assert_eq!(back.total_weight(), derived.total_weight());
    }

    #[test]
    fn decode_rejects_a_zero_counter() {
        // k = 3, counters {1: 4, 2: c}, n = 4 + c: legal bytes in either
        // representation for any c > 0, which no encoder writes for c = 0.
        let bytes = |c: u64, repr: u8| {
            let mut counters = FxHashMap::default();
            counters.insert(1u64, 4u64);
            counters.insert(2u64, c);
            let mut out = Vec::new();
            3usize.encode_into(&mut out);
            counters.encode_into(&mut out);
            (4 + c).encode_into(&mut out);
            out.push(repr);
            out
        };
        for repr in [0, 1] {
            let ss = SpaceSavingSummary::<u64>::decode(&bytes(3, repr)).unwrap();
            assert_eq!(ss.lower_bound(&2), 3, "repr {repr}");
            assert!(
                matches!(
                    SpaceSavingSummary::<u64>::decode(&bytes(0, repr)),
                    Err(WireError::Malformed(_))
                ),
                "repr {repr}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "two counters")]
    fn capacity_one_rejected() {
        let _ = SpaceSavingSummary::<u64>::new(1);
    }

    #[test]
    fn merge_capacity_mismatch_errors() {
        let a = SpaceSavingSummary::<u64>::new(4);
        let b = SpaceSavingSummary::<u64>::new(5);
        assert!(matches!(
            a.merge(b),
            Err(MergeError::CapacityMismatch { .. })
        ));
    }

    #[test]
    fn merge_of_unsaturated_summaries_is_exact() {
        let mut a = SpaceSavingSummary::new(8);
        let mut b = SpaceSavingSummary::new(8);
        a.extend_from([1u64, 1, 2]);
        b.extend_from([2u64, 3]);
        let m = a.merge(b).unwrap();
        // 4 distinct ≤ k−1 = 7 counters: everything stays exact.
        assert_eq!(m.lower_bound(&1), 2);
        assert_eq!(m.upper_bound(&1), 2);
        assert_eq!(m.lower_bound(&2), 2);
        assert_eq!(m.lower_bound(&3), 1);
        assert_eq!(m.error_bound(), 0);
    }

    #[test]
    fn paper_example_subtract_minima_then_combine() {
        // The k = 5 SpaceSaving example from the extension paper's §5.2:
        // summaries over items 1-5 (counts 5,7,12,14,18) and 6-10
        // (4,16,17,19,23). After subtracting the minima (5 and 4) the
        // MG forms hold {2:2, 3:7, 4:9, 5:13} and {7:12, 8:13, 9:15, 10:19}.
        let mut a = SpaceSavingSummary::new(5);
        for (item, w) in [(1u64, 5u64), (2, 7), (3, 12), (4, 14), (5, 18)] {
            a.update_weighted(item, w);
        }
        let mut b = SpaceSavingSummary::new(5);
        for (item, w) in [(6u64, 4u64), (7, 16), (8, 17), (9, 19), (10, 23)] {
            b.update_weighted(item, w);
        }
        let mg_a = a.clone().into_mg();
        assert_eq!(mg_a.estimate(&2), 2);
        assert_eq!(mg_a.estimate(&3), 7);
        assert_eq!(mg_a.estimate(&4), 9);
        assert_eq!(mg_a.estimate(&5), 13);
        assert_eq!(mg_a.estimate(&1), 0);

        let m = a.merge(b).unwrap();
        // Combined MG values {2,7,9,12,13,13,15,19}; prune at the 5th
        // largest (12): survivors 13−12, 13−12, 15−12, 19−12.
        assert_eq!(m.lower_bound(&5), 1);
        assert_eq!(m.lower_bound(&8), 1);
        assert_eq!(m.lower_bound(&9), 3);
        assert_eq!(m.lower_bound(&10), 7);
        assert_eq!(m.lower_bound(&3), 0);
        assert_eq!(m.total_weight(), 135);
    }

    #[test]
    fn bracket_survives_every_canonical_merge_tree() {
        use ms_workloads::{Partitioner, StreamKind};
        let items = StreamKind::Zipf {
            s: 1.2,
            universe: 2000,
        }
        .generate(40_000, 99);
        let oracle = FrequencyOracle::from_stream(items.clone());

        for partitioner in Partitioner::canonical() {
            let parts = partitioner.split(&items, 16);
            for shape in MergeTree::canonical() {
                let leaves: Vec<SpaceSavingSummary<u64>> = parts
                    .iter()
                    .map(|part| {
                        let mut ss = SpaceSavingSummary::new(20);
                        ss.extend_from(part.iter().copied());
                        ss
                    })
                    .collect();
                let merged = merge_all(leaves, shape).unwrap();
                assert_bracket(&merged, &oracle);
            }
        }
    }

    #[test]
    fn streaming_after_merge_keeps_bracket() {
        use ms_workloads::StreamKind;
        let items = StreamKind::Zipf {
            s: 1.4,
            universe: 500,
        }
        .generate(20_000, 7);
        let (first, rest) = items.split_at(10_000);
        let (a_items, b_items) = first.split_at(5_000);

        let mut a = SpaceSavingSummary::new(16);
        a.extend_from(a_items.iter().copied());
        let mut b = SpaceSavingSummary::new(16);
        b.extend_from(b_items.iter().copied());

        let mut merged = a.merge(b).unwrap();
        merged.extend_from(rest.iter().copied());

        let oracle = FrequencyOracle::from_stream(items.clone());
        assert_bracket(&merged, &oracle);
    }

    #[test]
    fn merge_from_keeps_bracket_and_survives_mismatch() {
        use ms_workloads::StreamKind;
        let items = StreamKind::Zipf {
            s: 1.3,
            universe: 800,
        }
        .generate(30_000, 17);
        let oracle = FrequencyOracle::from_stream(items.clone());
        let build = |range: std::ops::Range<usize>| {
            let mut ss = SpaceSavingSummary::new(12);
            ss.extend_from(items[range].iter().copied());
            ss
        };
        let mut acc = build(0..10_000);
        acc.merge_from(build(10_000..20_000)).unwrap();
        acc.merge_from(build(20_000..30_000)).unwrap();
        assert_bracket(&acc, &oracle);

        // A capacity mismatch reports the error without touching self.
        let sorted = |ss: &SpaceSavingSummary<u64>| {
            let mut v: Vec<(u64, u64)> = ss.iter().map(|(i, c)| (*i, c)).collect();
            v.sort_unstable();
            v
        };
        let before = sorted(&acc);
        let err = acc.merge_from(SpaceSavingSummary::new(13));
        assert!(matches!(err, Err(MergeError::CapacityMismatch { .. })));
        assert_eq!(sorted(&acc), before);
        assert_eq!(acc.total_weight(), 30_000);
    }

    #[test]
    fn heavy_hitters_contains_all_true_heavy_hitters() {
        use ms_workloads::StreamKind;
        let eps = 0.04;
        let items = StreamKind::Zipf {
            s: 1.5,
            universe: 10_000,
        }
        .generate(100_000, 21);
        let oracle = FrequencyOracle::from_stream(items.clone());
        let mut ss = SpaceSavingSummary::for_epsilon(eps);
        ss.extend_from(items);
        let reported: Vec<u64> = ss.heavy_hitters(eps).into_iter().map(|(i, _)| i).collect();
        for (item, _) in oracle.heavy_hitters(eps) {
            assert!(reported.contains(&item), "missing heavy hitter {item}");
        }
    }

    #[test]
    fn heavy_hitters_survive_merging() {
        use ms_workloads::{Partitioner, StreamKind};
        let eps = 0.05;
        let items = StreamKind::Zipf {
            s: 1.5,
            universe: 5_000,
        }
        .generate(60_000, 33);
        let oracle = FrequencyOracle::from_stream(items.clone());
        let parts = Partitioner::ByKey.split(&items, 8);
        let leaves: Vec<SpaceSavingSummary<u64>> = parts
            .iter()
            .map(|part| {
                let mut ss = SpaceSavingSummary::for_epsilon(eps);
                ss.extend_from(part.iter().copied());
                ss
            })
            .collect();
        let merged = merge_all(leaves, MergeTree::Balanced).unwrap();
        let reported: Vec<u64> = merged
            .heavy_hitters(eps)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        for (item, _) in oracle.heavy_hitters(eps) {
            assert!(reported.contains(&item), "missing heavy hitter {item}");
        }
    }

    #[test]
    fn indexed_eviction_matches_naive_reference() {
        // Differential test: the bucket-index eviction must produce the
        // same counter-value profile, total weight and bounds as a naive
        // scan-for-minimum implementation (item identity may differ on
        // ties, which the guarantee does not depend on).
        use ms_workloads::StreamKind;

        fn naive(items: &[u64], k: usize) -> (u64, Vec<u64>) {
            let mut counters: FxHashMap<u64, u64> = FxHashMap::default();
            for &item in items {
                if let Some(c) = counters.get_mut(&item) {
                    *c += 1;
                } else if counters.len() < k {
                    counters.insert(item, 1);
                } else {
                    let (&evict, &m) = counters.iter().min_by_key(|&(_, &c)| c).expect("non-empty");
                    counters.remove(&evict);
                    counters.insert(item, m + 1);
                }
            }
            let mut values: Vec<u64> = counters.values().copied().collect();
            values.sort_unstable();
            (values.iter().sum(), values)
        }

        for (kind, seed) in [
            (
                StreamKind::Zipf {
                    s: 1.2,
                    universe: 500,
                },
                1u64,
            ),
            (StreamKind::Uniform { universe: 200 }, 2),
            (StreamKind::AllDistinct, 3),
            (StreamKind::AllSame, 4),
        ] {
            let items = kind.generate(5_000, seed);
            for k in [2usize, 5, 16, 64] {
                let mut ss = SpaceSavingSummary::new(k);
                ss.extend_from(items.iter().copied());
                let mut values: Vec<u64> = ss.iter().map(|(_, c)| c).collect();
                values.sort_unstable();
                let (naive_sum, naive_values) = naive(&items, k);
                assert_eq!(
                    values.iter().sum::<u64>(),
                    naive_sum,
                    "{} k={k}: stored weight differs",
                    kind.label()
                );
                assert_eq!(
                    values,
                    naive_values,
                    "{} k={k}: counter profile differs",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn index_survives_codec_roundtrip_and_further_updates() {
        use ms_workloads::StreamKind;
        let items = StreamKind::Zipf {
            s: 1.3,
            universe: 300,
        }
        .generate(10_000, 9);
        let (first, rest) = items.split_at(5_000);
        let mut ss = SpaceSavingSummary::new(16);
        ss.extend_from(first.iter().copied());
        // Round-trip drops the derived index; updates must rebuild it and
        // produce exactly the same profile as the uninterrupted run.
        let mut restored = SpaceSavingSummary::<u64>::decode(&ss.encode()).unwrap();
        restored.extend_from(rest.iter().copied());
        ss.extend_from(rest.iter().copied());
        let profile = |s: &SpaceSavingSummary<u64>| {
            let mut v: Vec<u64> = s.iter().map(|(_, c)| c).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(profile(&restored), profile(&ss));
        assert_eq!(restored.total_weight(), ss.total_weight());
    }

    #[test]
    fn top_k_orders_by_upper_bound() {
        let mut ss = SpaceSavingSummary::new(8);
        for (item, w) in [(1u64, 30u64), (2, 20), (3, 10)] {
            ss.update_weighted(item, w);
        }
        let top = ss.top_k(2);
        assert_eq!(top[0].0, 1);
        assert_eq!(top[1].0, 2);
    }

    #[test]
    fn zero_weight_update_is_noop() {
        let mut ss = SpaceSavingSummary::new(3);
        ss.update_weighted(1, 0);
        assert!(ss.is_empty());
    }
}
