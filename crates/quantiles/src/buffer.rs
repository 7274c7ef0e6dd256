//! Sorted buffers and the randomized same-weight merge (§4.1).
//!
//! A [`SortedBuffer`] holds `m` sorted points, each representing `w` input
//! values. [`SortedBuffer::same_weight_merge`] implements the paper's core
//! operation: merge-sort the `2m` points and keep either the even or the
//! odd positions with one fair coin flip. For any query `x`, the resulting
//! rank estimate differs from the pre-merge estimate by at most `w` and the
//! signed error is `±w/2` with equal probability — *zero in expectation* —
//! which is what makes whole merge trees behave like random walks rather
//! than accumulating worst cases.

use ms_core::simd;
use ms_core::wire::{Wire, WireError, WireReader};
use ms_core::Rng64;

/// A point a [`SortedBuffer`] can hold: ordered, cloneable, and able to
/// run the §4.1 keep-parity merge. The default method is the generic
/// stable merge loop (ties taken from `a`); `u64` overrides it with the
/// dispatched SIMD kernel, which returns the same vector because equal
/// `u64`s are indistinguishable. A point type whose ties carry a payload
/// must keep the default, since only the loop fixes which input a tie
/// comes from. Every primitive integer implements it; any other `Ord +
/// Clone` point opts in with an empty `impl`.
pub trait MergePoint: Ord + Clone {
    /// Positions `offset, offset + 2, …` (`offset` is 0 or 1) of the
    /// sorted merge of the sorted `a` and `b`.
    fn merge_keep_parity(a: &[Self], b: &[Self], offset: usize) -> Vec<Self> {
        let mut out = Vec::with_capacity((a.len() + b.len()).div_ceil(2));
        simd::merge_keep_parity_into(a, b, offset, &mut out);
        out
    }
}

impl MergePoint for u64 {
    fn merge_keep_parity(a: &[u64], b: &[u64], offset: usize) -> Vec<u64> {
        simd::merge_keep_parity_u64(a, b, offset)
    }
}

macro_rules! generic_merge_points {
    ($($t:ty),*) => { $(impl MergePoint for $t {})* };
}

generic_merge_points!(u8, u16, u32, u128, usize, i8, i16, i32, i64, i128, isize);

/// A sorted buffer of points sharing one weight (the weight itself lives in
/// the hierarchy; buffers only know their points).
#[derive(Debug, Clone, PartialEq)]
pub struct SortedBuffer<T> {
    points: Vec<T>,
}

impl<T: Wire + Ord> Wire for SortedBuffer<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.points.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        let points = Vec::<T>::decode_from(r)?;
        if points.windows(2).any(|w| w[0] > w[1]) {
            return Err(WireError::Malformed("buffer points not sorted"));
        }
        Ok(SortedBuffer { points })
    }
}

impl<T: Ord + Clone> SortedBuffer<T> {
    /// Build from unsorted points.
    pub fn from_unsorted(mut points: Vec<T>) -> Self {
        points.sort_unstable();
        SortedBuffer { points }
    }

    /// Build from points already in ascending order.
    ///
    /// # Panics
    ///
    /// Panics (debug only) if the input is not sorted.
    pub fn from_sorted(points: Vec<T>) -> Self {
        debug_assert!(points.windows(2).all(|w| w[0] <= w[1]));
        SortedBuffer { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The sorted points.
    pub fn points(&self) -> &[T] {
        &self.points
    }

    /// Consume into the sorted point vector.
    pub fn into_points(self) -> Vec<T> {
        self.points
    }

    /// Number of points strictly less than `x`.
    pub fn count_below(&self, x: &T) -> usize {
        self.points.partition_point(|v| v < x)
    }

    /// The buffer with every point sent through `f`, which must be
    /// monotone: the images are trusted to be in order, as
    /// [`SortedBuffer::from_sorted`] trusts its input.
    pub fn map<U: Ord + Clone>(&self, f: impl Fn(&T) -> U) -> SortedBuffer<U> {
        SortedBuffer::from_sorted(self.points.iter().map(f).collect())
    }
}

impl<T: MergePoint> SortedBuffer<T> {
    /// The same-weight merge: merge-sort both buffers' points and keep the
    /// positions of one parity, chosen by a fair coin. Both inputs must
    /// hold points of equal weight `w`; the output's points represent
    /// weight `2w` each and there are `⌈(|a|+|b|)/2⌉` or `⌊…⌋` of them
    /// depending on the coin (equal counts when `|a|+|b|` is even).
    pub fn same_weight_merge(
        a: SortedBuffer<T>,
        b: SortedBuffer<T>,
        rng: &mut Rng64,
    ) -> SortedBuffer<T> {
        let offset = usize::from(rng.coin());
        SortedBuffer {
            points: T::merge_keep_parity(&a.points, &b.points, offset),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the standard stable two-way merge (ties from `a`) that
    /// [`MergePoint::merge_keep_parity`] must agree with on every kept
    /// position.
    fn merge_sorted<T: Ord>(a: Vec<T>, b: Vec<T>) -> Vec<T> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let mut ia = a.into_iter().peekable();
        let mut ib = b.into_iter().peekable();
        loop {
            match (ia.peek(), ib.peek()) {
                (Some(x), Some(y)) => {
                    if x <= y {
                        out.push(ia.next().expect("peeked"));
                    } else {
                        out.push(ib.next().expect("peeked"));
                    }
                }
                (Some(_), None) => out.push(ia.next().expect("peeked")),
                (None, Some(_)) => out.push(ib.next().expect("peeked")),
                (None, None) => break,
            }
        }
        out
    }

    #[test]
    fn from_unsorted_sorts() {
        let b = SortedBuffer::from_unsorted(vec![3u64, 1, 2]);
        assert_eq!(b.points(), &[1, 2, 3]);
    }

    #[test]
    fn count_below_is_strict() {
        let b = SortedBuffer::from_sorted(vec![10u64, 20, 20, 30]);
        assert_eq!(b.count_below(&10), 0);
        assert_eq!(b.count_below(&20), 1);
        assert_eq!(b.count_below(&25), 3);
        assert_eq!(b.count_below(&99), 4);
    }

    #[test]
    fn merge_keeps_half_the_points() {
        let a = SortedBuffer::from_sorted((0..8u64).map(|i| 2 * i).collect());
        let b = SortedBuffer::from_sorted((0..8u64).map(|i| 2 * i + 1).collect());
        let mut rng = Rng64::new(1);
        let m = SortedBuffer::same_weight_merge(a, b, &mut rng);
        assert_eq!(m.len(), 8);
        assert!(m.points().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_takes_alternating_positions() {
        // Merged order is 0..8; even offset keeps 0,2,4,6; odd keeps 1,3,5,7.
        let a = SortedBuffer::from_sorted(vec![0u64, 2, 4, 6]);
        let b = SortedBuffer::from_sorted(vec![1u64, 3, 5, 7]);
        let mut seen = [false; 2];
        for seed in 0..32 {
            let mut rng = Rng64::new(seed);
            let m = SortedBuffer::same_weight_merge(a.clone(), b.clone(), &mut rng);
            match m.points() {
                [0, 2, 4, 6] => seen[0] = true,
                [1, 3, 5, 7] => seen[1] = true,
                other => panic!("unexpected selection {other:?}"),
            }
        }
        assert!(seen[0] && seen[1], "both parities must occur across seeds");
    }

    #[test]
    fn merge_rank_error_is_at_most_one_position() {
        // For any query, the estimated count below (×2 after merge) differs
        // from the combined input count by at most 1 point-weight.
        let mut rng = Rng64::new(7);
        for trial in 0..50u64 {
            let a = SortedBuffer::from_unsorted(
                (0..32)
                    .map(|i| (i * 7 + trial * 13) % 101)
                    .collect::<Vec<u64>>(),
            );
            let b = SortedBuffer::from_unsorted(
                (0..32)
                    .map(|i| (i * 11 + trial * 29) % 101)
                    .collect::<Vec<u64>>(),
            );
            let m = SortedBuffer::same_weight_merge(a.clone(), b.clone(), &mut rng);
            for x in [0u64, 25, 50, 75, 100] {
                let before = a.count_below(&x) + b.count_below(&x);
                let after = 2 * m.count_below(&x);
                assert!(
                    before.abs_diff(after) <= 1,
                    "trial {trial} x {x}: before {before}, after {after}"
                );
            }
        }
    }

    #[test]
    fn merge_error_is_unbiased_over_coins() {
        // Signed error averages to ~0 across many independent merges.
        let a = SortedBuffer::from_sorted((0..64u64).map(|i| 2 * i).collect());
        let b = SortedBuffer::from_sorted((0..64u64).map(|i| 2 * i + 1).collect());
        let x = 63u64;
        let before = (a.count_below(&x) + b.count_below(&x)) as i64;
        let mut total: i64 = 0;
        for seed in 0..400 {
            let mut rng = Rng64::new(seed);
            let m = SortedBuffer::same_weight_merge(a.clone(), b.clone(), &mut rng);
            total += 2 * m.count_below(&x) as i64 - before;
        }
        assert!(total.abs() <= 60, "bias {total} over 400 merges");
    }

    #[test]
    fn merge_of_empty_buffers() {
        let mut rng = Rng64::new(3);
        let e = SortedBuffer::<u64>::from_sorted(vec![]);
        let m = SortedBuffer::same_weight_merge(e.clone(), e, &mut rng);
        assert!(m.is_empty());
    }

    #[test]
    fn merge_sorted_interleaves() {
        assert_eq!(
            merge_sorted(vec![1, 3, 5], vec![2, 3, 4]),
            vec![1, 2, 3, 3, 4, 5]
        );
        assert_eq!(merge_sorted(Vec::<u32>::new(), vec![1]), vec![1]);
    }

    #[test]
    fn keep_parity_matches_the_reference_merge_for_both_offsets() {
        // Values only; `tests/properties.rs` pins which input a tie is
        // taken from. A universe of 4 forces long runs of ties.
        let mut rng = Rng64::new(0xB0FF);
        let lens = [0usize, 1, 2, 3, 7, 8, 64, 65];
        for &la in &lens {
            for &lb in &lens {
                for universe in [4u64, 1 << 40] {
                    let mut side = |len: usize| {
                        let mut v: Vec<u64> = (0..len).map(|_| rng.below(universe)).collect();
                        v.sort_unstable();
                        v
                    };
                    let (a, b) = (side(la), side(lb));
                    let merged = merge_sorted(a.clone(), b.clone());
                    for offset in [0usize, 1] {
                        let want: Vec<u64> =
                            merged.iter().skip(offset).step_by(2).copied().collect();
                        assert_eq!(
                            u64::merge_keep_parity(&a, &b, offset),
                            want,
                            "{la}+{lb} offset {offset}"
                        );
                    }
                }
            }
        }
    }
}
