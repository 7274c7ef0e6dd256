//! The Count-Min sketch (Cormode & Muthukrishnan).
//!
//! A `d × w` table of non-negative counters with one pairwise-independent
//! row hash each. Point queries return the minimum cell over the rows:
//! always an **overestimate**, and within `εn` of the truth with
//! probability `1 − δ` when `w = ⌈e/ε⌉` and `d = ⌈ln(1/δ)⌉`.
//!
//! Count-Min is a linear sketch: two sketches with the same shape *and the
//! same hash seeds* merge by cell-wise addition, exactly — the mergeability
//! baseline the paper's counter-based summaries are compared against
//! (experiment E3).

use std::hash::Hash;
use std::marker::PhantomData;

use ms_core::error::ensure_same_capacity;
use ms_core::simd;
use ms_core::wire::{Wire, WireError, WireReader};
use ms_core::{ItemSummary, Json, MergeError, Mergeable, Result, Summary, ToJson};

use crate::hashing::{fingerprint, PairwiseHash};

/// Count-Min sketch over items of type `I`.
///
/// ```
/// use ms_core::{ItemSummary, Mergeable};
/// use ms_sketches::CountMinSketch;
///
/// // Sketches merge only within one hash family (same seed).
/// let mut a = CountMinSketch::for_epsilon_delta(0.01, 0.01, 42);
/// let mut b = CountMinSketch::for_epsilon_delta(0.01, 0.01, 42);
/// a.update_weighted("login", 10);
/// b.update_weighted("login", 5);
/// let merged = a.merge(b).unwrap();
/// assert!(merged.estimate(&"login") >= 15); // never underestimates
/// ```
#[derive(Debug, Clone)]
pub struct CountMinSketch<I> {
    width: usize,
    depth: usize,
    seed: u64,
    rows: Vec<PairwiseHash>,
    table: Vec<u64>,
    n: u64,
    _marker: PhantomData<fn(&I)>,
}

impl<I: Hash> Wire for CountMinSketch<I> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        // The row hashes are derived from (depth, seed) and are rebuilt on
        // decode, so only the scalars and the table travel.
        self.width.encode_into(out);
        self.depth.encode_into(out);
        self.seed.encode_into(out);
        self.table.encode_into(out);
        self.n.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        let width = usize::decode_from(r)?;
        let depth = usize::decode_from(r)?;
        if width == 0 || depth == 0 {
            return Err(WireError::Malformed("sketch dimensions must be positive"));
        }
        let seed = u64::decode_from(r)?;
        let table = Vec::<u64>::decode_from(r)?;
        if width.checked_mul(depth) != Some(table.len()) {
            return Err(WireError::Malformed("sketch table has the wrong shape"));
        }
        let mut sketch = CountMinSketch::<I>::new(width, depth, seed);
        sketch.table = table;
        sketch.n = u64::decode_from(r)?;
        Ok(sketch)
    }
}

impl<I> ToJson for CountMinSketch<I> {
    fn to_json(&self) -> Json {
        Json::obj([
            ("width", Json::U64(self.width as u64)),
            ("depth", Json::U64(self.depth as u64)),
            ("seed", Json::U64(self.seed)),
            ("table", Json::arr(self.table.iter().copied())),
            ("n", Json::U64(self.n)),
        ])
    }
}

impl<I: Hash> CountMinSketch<I> {
    /// Create a `depth × width` sketch with hash functions derived from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize, seed: u64) -> Self {
        assert!(width > 0 && depth > 0, "sketch dimensions must be positive");
        let rows = (0..depth)
            .map(|r| PairwiseHash::new(seed ^ (0x9E37 + r as u64).wrapping_mul(0xA5A5_A5A5)))
            .collect();
        CountMinSketch {
            width,
            depth,
            seed,
            rows,
            table: vec![0; width * depth],
            n: 0,
            _marker: PhantomData,
        }
    }

    /// Create a sketch guaranteeing `estimate − truth ≤ εn` with
    /// probability `1 − δ` per query: `w = ⌈e/ε⌉`, `d = ⌈ln(1/δ)⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` or `delta` is not in `(0, 1)`.
    pub fn for_epsilon_delta(epsilon: f64, delta: f64, seed: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let width = (std::f64::consts::E / epsilon).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        Self::new(width, depth, seed)
    }

    /// Row width `w`.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows `d`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Seed identifying the hash family.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Upper-bound frequency estimate: minimum cell over the rows.
    pub fn estimate(&self, item: &I) -> u64 {
        let x = fingerprint(item);
        (0..self.depth)
            .map(|r| self.table[r * self.width + self.rows[r].bucket(x, self.width)])
            .min()
            .expect("depth >= 1")
    }

    /// In-place cell-wise merge — the same result as [`Mergeable::merge`]
    /// without moving the table. On error (shape or seed mismatch) `self`
    /// is left untouched.
    pub fn merge_from(&mut self, other: Self) -> Result<()> {
        self.check_compatible(&other)?;
        simd::add_slices(&mut self.table, &other.table);
        self.n += other.n;
        Ok(())
    }

    fn check_compatible(&self, other: &Self) -> Result<()> {
        ensure_same_capacity("width", self.width, other.width)?;
        ensure_same_capacity("depth", self.depth, other.depth)?;
        if self.seed != other.seed {
            return Err(MergeError::SeedMismatch {
                left: self.seed,
                right: other.seed,
            });
        }
        Ok(())
    }

    /// Fused multiway merge: one pass over the table, summing the matching
    /// cell of every source. Bit-identical to folding the sources in one
    /// at a time (cell adds commute and associate) but touches the
    /// destination once instead of `others.len()` times. All sources are
    /// validated before any cell is written, so on error `self` is
    /// untouched.
    pub fn merge_many(&mut self, others: &[&Self]) -> Result<()> {
        for other in others {
            self.check_compatible(other)?;
        }
        let tables: Vec<&[u64]> = others.iter().map(|o| o.table.as_slice()).collect();
        simd::add_slices_multi(&mut self.table, &tables);
        for other in others {
            self.n += other.n;
        }
        Ok(())
    }

    /// Batched update: the hash-then-update split. Fingerprints for a lane
    /// of items are computed first, then each row's bucket offsets are
    /// produced in one cache-friendly pass by the [`crate::batch`] kernel
    /// before the cells are bumped. Equivalent to calling
    /// [`ItemSummary::update_weighted`] with weight 1 per item — cell
    /// increments commute, so the table and count come out identical.
    pub fn update_batch(&mut self, items: &[I]) {
        self.update_batch_with(simd::active_isa(), items)
    }

    /// [`Self::update_batch`] with an explicit ISA, for differential tests
    /// and benchmarks.
    pub fn update_batch_with(&mut self, isa: simd::Isa, items: &[I]) {
        const LANE: usize = 256;
        if self.width > crate::batch::MAX_KERNEL_WIDTH {
            for item in items {
                self.update_weighted_ref(item, 1);
            }
            return;
        }
        let mut fps = [0u64; LANE];
        let mut buckets = [0u32; LANE];
        for chunk in items.chunks(LANE) {
            let k = chunk.len();
            for (f, item) in fps[..k].iter_mut().zip(chunk.iter()) {
                *f = fingerprint(item);
            }
            for r in 0..self.depth {
                crate::batch::row_buckets_with(
                    isa,
                    &self.rows[r],
                    self.width,
                    &fps[..k],
                    &mut buckets[..k],
                );
                let row = &mut self.table[r * self.width..(r + 1) * self.width];
                for &b in &buckets[..k] {
                    row[b as usize] += 1;
                }
            }
            self.n += k as u64;
        }
    }

    fn update_weighted_ref(&mut self, item: &I, weight: u64) {
        if weight == 0 {
            return;
        }
        let x = fingerprint(item);
        for r in 0..self.depth {
            let idx = r * self.width + self.rows[r].bucket(x, self.width);
            self.table[idx] += weight;
        }
        self.n += weight;
    }
}

impl<I: Hash> Summary for CountMinSketch<I> {
    fn total_weight(&self) -> u64 {
        self.n
    }

    /// Number of cells (the space proxy; each cell is one `u64`).
    fn size(&self) -> usize {
        self.table.len()
    }
}

impl<I: Hash> ItemSummary<I> for CountMinSketch<I> {
    fn update_weighted(&mut self, item: I, weight: u64) {
        self.update_weighted_ref(&item, weight);
    }
}

impl<I: Hash> Mergeable for CountMinSketch<I> {
    /// Cell-wise addition. Requires identical shape and hash family.
    fn merge(mut self, other: Self) -> Result<Self> {
        self.merge_from(other)?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::{merge_all, FrequencyOracle, MergeTree};
    use ms_workloads::StreamKind;

    #[test]
    fn never_underestimates() {
        let items = StreamKind::Zipf {
            s: 1.2,
            universe: 1000,
        }
        .generate(20_000, 1);
        let oracle = FrequencyOracle::from_stream(items.clone());
        let mut cm = CountMinSketch::new(100, 4, 7);
        cm.extend_from(items);
        for (item, truth) in oracle.iter() {
            assert!(cm.estimate(item) >= truth);
        }
    }

    #[test]
    fn error_within_epsilon_n_for_most_items() {
        let eps = 0.01;
        let items = StreamKind::Zipf {
            s: 1.1,
            universe: 5000,
        }
        .generate(100_000, 2);
        let oracle = FrequencyOracle::from_stream(items.clone());
        let mut cm = CountMinSketch::for_epsilon_delta(eps, 0.01, 3);
        cm.extend_from(items);
        let bound = (eps * cm.total_weight() as f64) as u64;
        let violations = oracle
            .iter()
            .filter(|(item, truth)| cm.estimate(item) - truth > bound)
            .count();
        // Per-query failure probability δ = 1%; allow generous slack.
        assert!(
            violations as f64 <= 0.05 * oracle.distinct() as f64,
            "{violations} of {} items out of bound",
            oracle.distinct()
        );
    }

    #[test]
    fn merge_is_exactly_linear() {
        let items = StreamKind::Uniform { universe: 500 }.generate(10_000, 4);
        let (left, right) = items.split_at(6_000);
        let mut whole = CountMinSketch::new(64, 4, 9);
        whole.extend_from(items.iter().copied());
        let mut a = CountMinSketch::new(64, 4, 9);
        a.extend_from(left.iter().copied());
        let mut b = CountMinSketch::new(64, 4, 9);
        b.extend_from(right.iter().copied());
        let merged = a.merge(b).unwrap();
        assert_eq!(merged.table, whole.table);
        assert_eq!(merged.total_weight(), whole.total_weight());
    }

    #[test]
    fn update_batch_matches_per_item_updates_bit_for_bit() {
        for seed in [0xF417_5EEDu64, 0xB0B5_CAFE, 0x2026_0806] {
            let items = StreamKind::Zipf {
                s: 1.2,
                universe: 5_000,
            }
            .generate(9_000, seed);
            let mut per_item = CountMinSketch::for_epsilon_delta(0.01, 0.01, seed);
            per_item.extend_from(items.iter().copied());
            for isa in [simd::Isa::Scalar, simd::active_isa()] {
                let mut batched = CountMinSketch::for_epsilon_delta(0.01, 0.01, seed);
                batched.update_batch_with(isa, &items);
                assert_eq!(per_item.table, batched.table, "seed {seed:#x} {isa:?}");
                assert_eq!(per_item.total_weight(), batched.total_weight());
            }
        }
    }

    #[test]
    fn merge_many_matches_sequential_folds_bit_for_bit() {
        let items = StreamKind::Uniform { universe: 800 }.generate(20_000, 13);
        let deltas: Vec<CountMinSketch<u64>> = items
            .chunks(4_000)
            .map(|chunk| {
                let mut cm = CountMinSketch::new(272, 5, 21);
                cm.extend_from(chunk.iter().copied());
                cm
            })
            .collect();
        let mut sequential = CountMinSketch::<u64>::new(272, 5, 21);
        for d in deltas.clone() {
            sequential.merge_from(d).unwrap();
        }
        let mut fused = CountMinSketch::<u64>::new(272, 5, 21);
        let refs: Vec<&CountMinSketch<u64>> = deltas.iter().collect();
        fused.merge_many(&refs).unwrap();
        assert_eq!(sequential.table, fused.table);
        assert_eq!(sequential.total_weight(), fused.total_weight());
    }

    #[test]
    fn merge_many_rejects_any_incompatible_source_without_writing() {
        let mut dst = CountMinSketch::<u64>::new(16, 2, 1);
        let mut good = CountMinSketch::<u64>::new(16, 2, 1);
        good.update(7);
        let bad = CountMinSketch::<u64>::new(16, 2, 2);
        let before = dst.table.clone();
        assert!(dst.merge_many(&[&good, &bad]).is_err());
        assert_eq!(dst.table, before);
        assert_eq!(dst.total_weight(), 0);
    }

    #[test]
    fn merge_rejects_different_seeds() {
        let a = CountMinSketch::<u64>::new(16, 2, 1);
        let b = CountMinSketch::<u64>::new(16, 2, 2);
        assert!(matches!(a.merge(b), Err(MergeError::SeedMismatch { .. })));
    }

    #[test]
    fn merge_rejects_different_shapes() {
        let a = CountMinSketch::<u64>::new(16, 2, 1);
        let b = CountMinSketch::<u64>::new(32, 2, 1);
        assert!(matches!(
            a.merge(b),
            Err(MergeError::CapacityMismatch { .. })
        ));
        let a = CountMinSketch::<u64>::new(16, 2, 1);
        let b = CountMinSketch::<u64>::new(16, 3, 1);
        assert!(matches!(
            a.merge(b),
            Err(MergeError::CapacityMismatch { .. })
        ));
    }

    #[test]
    fn estimates_survive_merge_trees() {
        let items = StreamKind::Zipf {
            s: 1.4,
            universe: 300,
        }
        .generate(30_000, 5);
        let oracle = FrequencyOracle::from_stream(items.clone());
        for shape in MergeTree::canonical() {
            let leaves: Vec<CountMinSketch<u64>> = items
                .chunks(3_000)
                .map(|chunk| {
                    let mut cm = CountMinSketch::new(128, 4, 11);
                    cm.extend_from(chunk.iter().copied());
                    cm
                })
                .collect();
            let merged = merge_all(leaves, shape).unwrap();
            // Linearity ⇒ identical estimates regardless of tree shape.
            for (item, truth) in oracle.iter() {
                let est = merged.estimate(item);
                assert!(est >= truth);
                assert!(est - truth <= merged.total_weight() / 32);
            }
        }
    }

    #[test]
    fn for_epsilon_delta_dimensions() {
        let cm = CountMinSketch::<u64>::for_epsilon_delta(0.01, 0.01, 0);
        assert_eq!(cm.width(), 272); // ⌈e/0.01⌉
        assert_eq!(cm.depth(), 5); // ⌈ln 100⌉
    }

    #[test]
    fn weighted_updates_accumulate() {
        let mut cm = CountMinSketch::new(32, 3, 1);
        cm.update_weighted("x", 10);
        cm.update_weighted("x", 5);
        assert!(cm.estimate(&"x") >= 15);
        assert_eq!(cm.total_weight(), 15);
    }

    #[test]
    fn zero_weight_is_noop() {
        let mut cm = CountMinSketch::new(32, 3, 1);
        cm.update_weighted("x", 0);
        assert!(cm.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensions")]
    fn zero_width_rejected() {
        let _ = CountMinSketch::<u64>::new(0, 2, 1);
    }
}
