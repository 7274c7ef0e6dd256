//! Mergeable quantile summaries (PODS'12, §4).
//!
//! The paper's second main result: quantile (rank) summaries that survive
//! arbitrary merges. The building block is the **randomized same-weight
//! merge** ([`buffer`]): two sorted buffers of `m` points, each point
//! representing weight `w`, merge into one buffer of `m` points of weight
//! `2w` by keeping either the odd or the even positions of the merged order
//! — a single fair coin per merge. The resulting rank error is *unbiased*,
//! so errors across a whole merge tree cancel like a random walk instead of
//! accumulating linearly; a Hoeffding bound over the at most `log(n/m)`
//! levels gives rank error `≤ εn` with high probability for
//! `m = O((1/ε)·√log(1/εδ))`.
//!
//! Three summaries are built on this block:
//!
//! * [`KnownNQuantile`] (§4.2) — when an upper bound on the total stream
//!   size is known in advance, a binary-counter hierarchy of buffers gives
//!   a fully mergeable summary of size `O((1/ε)·log(εn)·√log(1/ε))`;
//! * [`HybridQuantile`] (§4.3) — no advance knowledge: the hierarchy keeps
//!   only `O(log(1/ε))` levels, and when it would overflow, the base
//!   weight doubles (levels relabel downward) with a block sampler feeding
//!   weight-`w` representatives into level 0. Size
//!   `O((1/ε)·log^{1.5}(1/ε))`, **independent of n**;
//! * baselines: [`GkSummary`] (Greenwald-Khanna, the classic streaming
//!   summary, whose merges *accumulate* error — experiment E6 measures the
//!   degradation) and [`BottomKSample`] (mergeable uniform sampling, which
//!   needs `Θ(1/ε²)` samples for the same guarantee).
//!
//! All summaries answer [`RankSummary::rank`] and [`RankSummary::quantile`]
//! queries and are deterministic given their construction seeds.

pub mod buffer;
pub mod gk;
pub mod hierarchy;
pub mod hybrid;
pub mod known_n;
pub mod sampling;

pub use buffer::{MergePoint, SortedBuffer};
pub use gk::GkSummary;
pub use hybrid::HybridQuantile;
pub use known_n::KnownNQuantile;
pub use sampling::BottomKSample;

/// Query interface shared by every quantile summary in this crate.
pub trait RankSummary<T: Ord> {
    /// Insert one value.
    fn insert(&mut self, value: T);

    /// Total number of values inserted (across merges).
    fn count(&self) -> u64;

    /// Estimated rank of `x`: the number of inserted values `< x`.
    fn rank(&self, x: &T) -> u64;

    /// Estimated φ-quantile, `φ ∈ [0, 1]`. `None` iff no data.
    fn quantile(&self, phi: f64) -> Option<T>;

    /// Estimated cumulative distribution at `x`: the fraction of inserted
    /// values strictly below `x`. 0 for an empty summary.
    fn cdf(&self, x: &T) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.rank(x) as f64 / self.count() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_default_impl() {
        let mut q = KnownNQuantile::new(0.1, 100, 0);
        assert_eq!(q.cdf(&5u64), 0.0);
        for v in 0..10u64 {
            q.insert(v);
        }
        assert_eq!(q.cdf(&0), 0.0);
        assert_eq!(q.cdf(&5), 0.5);
        assert_eq!(q.cdf(&10), 1.0);
    }
}
