//! The binary-counter buffer hierarchy shared by the known-n and hybrid
//! quantile summaries.
//!
//! Level `i` holds at most one [`SortedBuffer`] whose points each represent
//! `base_weight · 2^i` input values. Adding a buffer to an occupied level
//! triggers a same-weight merge whose result carries to level `i+1`,
//! exactly like incrementing a binary counter — which is also precisely
//! what happens when two summaries merge (their hierarchies add level-wise
//! with carries).

use ms_core::wire::{Wire, WireError, WireReader};
use ms_core::Rng64;

use crate::buffer::{MergePoint, SortedBuffer};

/// A stack of at-most-one-buffer-per-level, carrying upward on collision.
#[derive(Debug, Clone)]
pub struct BufferHierarchy<T> {
    levels: Vec<Option<SortedBuffer<T>>>,
}

impl<T: Wire + Ord> Wire for BufferHierarchy<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.levels.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        let levels = Vec::<Option<SortedBuffer<T>>>::decode_from(r)?;
        // Level `i` weighs `base_weight << i`; a 65th level has no weight.
        // The cap also bounds the runs a quantile selection walks per round.
        if levels.len() > u64::BITS as usize {
            return Err(WireError::Malformed("more levels than weight bits"));
        }
        Ok(BufferHierarchy { levels })
    }
}

impl<T: MergePoint> BufferHierarchy<T> {
    /// Empty hierarchy.
    pub fn new() -> Self {
        BufferHierarchy { levels: Vec::new() }
    }

    /// Number of levels currently allocated (index of highest occupied
    /// level + 1; 0 if empty).
    pub fn num_levels(&self) -> usize {
        self.levels
            .iter()
            .rposition(|l| l.is_some())
            .map_or(0, |i| i + 1)
    }

    /// Total stored points across all levels.
    pub fn stored_points(&self) -> usize {
        self.levels.iter().flatten().map(SortedBuffer::len).sum()
    }

    /// Insert `buffer` at `level`, performing carries while the target
    /// level is occupied. Empty buffers are dropped.
    pub fn push_buffer(&mut self, mut level: usize, mut buffer: SortedBuffer<T>, rng: &mut Rng64) {
        loop {
            if buffer.is_empty() {
                return;
            }
            if self.levels.len() <= level {
                self.levels.resize_with(level + 1, || None);
            }
            match self.levels[level].take() {
                None => {
                    self.levels[level] = Some(buffer);
                    return;
                }
                Some(existing) => {
                    buffer = SortedBuffer::same_weight_merge(existing, buffer, rng);
                    level += 1;
                }
            }
        }
    }

    /// Merge another hierarchy into this one, level-wise with carries.
    pub fn absorb(&mut self, other: BufferHierarchy<T>, rng: &mut Rng64) {
        for (level, slot) in other.levels.into_iter().enumerate() {
            if let Some(buffer) = slot {
                self.push_buffer(level, buffer, rng);
            }
        }
    }

    /// Weighted count of stored points strictly below `x`, with level-0
    /// points worth `base_weight` each.
    pub fn weighted_count_below(&self, x: &T, base_weight: u64) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.as_ref()
                    .map(|b| (base_weight << i) * b.count_below(x) as u64)
            })
            .sum()
    }

    /// Total weight represented by stored points.
    pub fn total_weight(&self, base_weight: u64) -> u64 {
        self.levels
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|b| (base_weight << i) * b.len() as u64))
            .sum()
    }

    /// Every occupied level as a sorted run and the weight of its points.
    pub fn weighted_runs(&self, base_weight: u64) -> impl Iterator<Item = (&[T], u64)> {
        self.levels
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|b| (b.points(), base_weight << i)))
    }

    /// Append every stored point with its weight to `out`.
    pub fn collect_weighted(&self, base_weight: u64, out: &mut Vec<(T, u64)>) {
        for (i, slot) in self.levels.iter().enumerate() {
            if let Some(b) = slot {
                let w = base_weight << i;
                out.extend(b.points().iter().map(|p| (p.clone(), w)));
            }
        }
    }

    /// The same hierarchy over the images of its points under the monotone
    /// `f` ([`SortedBuffer::map`]).
    pub fn map<U: Ord + Clone>(&self, f: impl Fn(&T) -> U) -> BufferHierarchy<U> {
        BufferHierarchy {
            levels: self
                .levels
                .iter()
                .map(|slot| slot.as_ref().map(|buffer| buffer.map(&f)))
                .collect(),
        }
    }

    /// Drop level 0 and shift every other level down by one, returning the
    /// removed level-0 buffer (if any). Used by the hybrid summary when it
    /// doubles its base weight: old level `i+1` *is* new level `i` under
    /// the doubled base.
    pub fn shift_down(&mut self) -> Option<SortedBuffer<T>> {
        if self.levels.is_empty() {
            return None;
        }
        self.levels.remove(0)
    }
}

impl<T: MergePoint> Default for BufferHierarchy<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(points: Vec<u64>) -> SortedBuffer<u64> {
        SortedBuffer::from_unsorted(points)
    }

    #[test]
    fn push_into_empty_level() {
        let mut h = BufferHierarchy::new();
        let mut rng = Rng64::new(1);
        h.push_buffer(0, buf(vec![1, 2]), &mut rng);
        assert_eq!(h.num_levels(), 1);
        assert_eq!(h.stored_points(), 2);
    }

    #[test]
    fn collision_carries_upward() {
        let mut h = BufferHierarchy::new();
        let mut rng = Rng64::new(2);
        h.push_buffer(0, buf(vec![1, 3]), &mut rng);
        h.push_buffer(0, buf(vec![2, 4]), &mut rng);
        // Two level-0 buffers of 2 points merge into one level-1 buffer of
        // 2 points.
        assert_eq!(h.num_levels(), 2);
        assert_eq!(h.stored_points(), 2);
    }

    #[test]
    fn binary_counter_behavior() {
        let mut h = BufferHierarchy::new();
        let mut rng = Rng64::new(3);
        for i in 0..8u64 {
            h.push_buffer(0, buf(vec![i * 10, i * 10 + 5]), &mut rng);
        }
        // 8 pushes = binary 1000: single buffer at level 3.
        assert_eq!(h.num_levels(), 4);
        assert_eq!(h.stored_points(), 2);
    }

    #[test]
    fn weight_is_preserved_through_carries() {
        let mut h = BufferHierarchy::new();
        let mut rng = Rng64::new(4);
        for i in 0..5u64 {
            h.push_buffer(0, buf(vec![i, 100 + i, 200 + i, 300 + i]), &mut rng);
        }
        // 5 buffers × 4 points × weight 1 = 20 total weight, regardless of
        // how carries distributed them.
        assert_eq!(h.total_weight(1), 20);
        assert_eq!(h.total_weight(3), 60);
    }

    #[test]
    fn weighted_count_below_tracks_truth() {
        let mut h = BufferHierarchy::new();
        let mut rng = Rng64::new(5);
        // 4 buffers of the values 0..16 → after carries, count below 8
        // must be within one top-level weight of 8.
        h.push_buffer(0, buf(vec![0, 1, 2, 3]), &mut rng);
        h.push_buffer(0, buf(vec![4, 5, 6, 7]), &mut rng);
        h.push_buffer(0, buf(vec![8, 9, 10, 11]), &mut rng);
        h.push_buffer(0, buf(vec![12, 13, 14, 15]), &mut rng);
        let est = h.weighted_count_below(&8, 1);
        assert!(est.abs_diff(8) <= 4, "estimate {est}");
    }

    #[test]
    fn absorb_merges_level_wise() {
        let mut rng = Rng64::new(6);
        let mut a = BufferHierarchy::new();
        let mut b = BufferHierarchy::new();
        a.push_buffer(0, buf(vec![1, 2]), &mut rng);
        a.push_buffer(2, buf(vec![3, 4]), &mut rng);
        b.push_buffer(0, buf(vec![5, 6]), &mut rng);
        b.push_buffer(1, buf(vec![7, 8]), &mut rng);
        a.absorb(b, &mut rng);
        // level0: collision → carry to 1; collision with b's level1 → carry
        // to 2; collision → carry to 3.
        assert_eq!(a.num_levels(), 4);
        // All point counts stayed even, so weight is conserved exactly:
        // (2 + 8) from a plus (2 + 4) from b.
        assert_eq!(a.total_weight(1), 16);
    }

    #[test]
    fn absorb_conserves_weight() {
        let mut rng = Rng64::new(7);
        let mut a = BufferHierarchy::new();
        let mut b = BufferHierarchy::new();
        for i in 0..3u64 {
            a.push_buffer(0, buf(vec![i, i + 1]), &mut rng);
            b.push_buffer(0, buf(vec![i + 10, i + 11]), &mut rng);
        }
        let wa = a.total_weight(1);
        let wb = b.total_weight(1);
        a.absorb(b, &mut rng);
        assert_eq!(a.total_weight(1), wa + wb);
    }

    #[test]
    fn shift_down_relabels_levels() {
        let mut h = BufferHierarchy::new();
        let mut rng = Rng64::new(8);
        h.push_buffer(0, buf(vec![1]), &mut rng);
        h.push_buffer(1, buf(vec![2, 3]), &mut rng);
        let removed = h.shift_down().expect("level 0 occupied");
        assert_eq!(removed.points(), &[1]);
        assert_eq!(h.num_levels(), 1);
        // Old level-1 weight (2/point at base 1) is now level-0 weight
        // under base 2: total weight conserved.
        assert_eq!(h.total_weight(2), 4);
    }

    #[test]
    fn collect_weighted_lists_everything() {
        let mut h = BufferHierarchy::new();
        let mut rng = Rng64::new(9);
        h.push_buffer(0, buf(vec![5]), &mut rng);
        h.push_buffer(1, buf(vec![7]), &mut rng);
        let mut out = Vec::new();
        h.collect_weighted(10, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![(5, 10), (7, 20)]);
    }

    #[test]
    fn decode_rejects_more_levels_than_weight_bits() {
        let mut h = BufferHierarchy::new();
        h.push_buffer(64, buf(vec![1]), &mut Rng64::new(10));
        assert!(matches!(
            BufferHierarchy::<u64>::decode(&h.encode()),
            Err(WireError::Malformed(_))
        ));
        h.levels.truncate(64);
        h.levels[63] = Some(buf(vec![1]));
        let back = BufferHierarchy::<u64>::decode(&h.encode()).expect("64 levels fit");
        assert_eq!(back.num_levels(), 64);
    }

    #[test]
    fn empty_hierarchy_queries() {
        let h = BufferHierarchy::<u64>::new();
        assert_eq!(h.num_levels(), 0);
        assert_eq!(h.weighted_count_below(&5, 1), 0);
        assert_eq!(h.total_weight(1), 0);
    }
}
