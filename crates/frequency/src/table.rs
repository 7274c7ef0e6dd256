//! (internal) The Misra-Gries counter table.
//!
//! Counters live in a dense `Vec<(item, count)>` in first-insertion order;
//! an open-addressed `Vec<u32>` index (linear probing on the high bits of
//! [`FxHasher`]) maps an item to its entry. The index is at most half
//! full and grows as entries arrive. It is derived state: a decoded table
//! rests without one — lookups scan its entries — until its first update
//! builds it, so a table that is only read or merged from (a sealed
//! segment's, a gathered reply's) never holds one. Everything a caller
//! can observe — iteration, the encoding — follows the entry order, which
//! depends only on the update and merge history, never on hashing,
//! capacity or probing: the index decides no answer and no byte.

use std::hash::{Hash, Hasher};

use ms_core::wire::{put_varint, Wire, WireError, WireReader};
use ms_core::FxHasher;

/// Slots of the smallest non-empty index.
const MIN_SLOTS: usize = 8;

#[derive(Debug, Clone)]
pub(crate) struct Counters<I> {
    /// `(item, count)` pairs in first-insertion order.
    entries: Vec<(I, u64)>,
    /// `0` marks an empty slot, `e + 1` points at `entries[e]`. A power
    /// of two long, or empty: then the table is empty too, or decoded and
    /// not updated since.
    index: Vec<u32>,
    /// `64 − log₂(index.len())`: a hash's top bits pick its home slot.
    shift: u32,
}

impl<I> Default for Counters<I> {
    fn default() -> Self {
        Counters {
            entries: Vec::new(),
            index: Vec::new(),
            shift: 64,
        }
    }
}

impl<I> Counters<I> {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// `(item, count)` pairs in entry order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&I, u64)> {
        self.entries.iter().map(|(item, c)| (item, *c))
    }

    pub(crate) fn counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|&(_, c)| c)
    }

    /// The `(item, count)` pairs, moved out in entry order.
    pub(crate) fn into_entries(self) -> std::vec::IntoIter<(I, u64)> {
        self.entries.into_iter()
    }

    /// The `(item, count)` pairs, moved out in entry order; the table is
    /// left empty, its storage kept.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, (I, u64)> {
        self.index.fill(0);
        self.entries.drain(..)
    }
}

/// The empty index slot a missing item's entry would take.
pub(crate) struct Vacant(usize);

impl<I: Eq + Hash> Counters<I> {
    /// An empty table with room for `entries` entries: its index is
    /// sized to fit them and does not grow until they are in.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        let mut table = Counters {
            entries: Vec::with_capacity(entries),
            ..Counters::default()
        };
        table.grow_to(slots_for(entries));
        table
    }

    /// The count stored for `item`.
    pub(crate) fn get(&self, item: &I) -> Option<u64> {
        self.find(item).ok().map(|e| self.entries[e].1)
    }

    /// Add `weight` to `item`'s counter, or return where its entry
    /// would go if `item` is not stored.
    #[inline]
    pub(crate) fn add_existing(&mut self, item: &I, weight: u64) -> Result<(), Vacant> {
        if self.index.is_empty() && !self.entries.is_empty() {
            self.reindex();
        }
        match self.find(item) {
            Ok(e) => {
                self.entries[e].1 += weight;
                Ok(())
            }
            Err(slot) => Err(Vacant(slot)),
        }
    }

    /// Append `item` at the end of the entry order. `at` is what
    /// [`Self::add_existing`] returned for `item`, with no change since.
    pub(crate) fn insert(&mut self, at: Vacant, item: I, weight: u64) {
        self.entries.push((item, weight));
        if 2 * self.entries.len() > self.index.len() {
            self.reindex();
        } else {
            self.index[at.0] = self.entries.len() as u32;
        }
    }

    /// Add `weight` to `item`'s counter, creating it at the end of the
    /// entry order if `item` is not stored.
    pub(crate) fn add(&mut self, item: I, weight: u64) {
        if let Err(at) = self.add_existing(&item, weight) {
            self.insert(at, item, weight);
        }
    }

    /// Subtract `d` from every counter and drop those that reach zero
    /// (one order-preserving pass), then append `item` with `weight − d`
    /// if that is positive. The Misra-Gries weighted decrement when `d`
    /// is the minimum over the stored counters and `weight`.
    pub(crate) fn decrement_then_push(&mut self, d: u64, item: I, weight: u64) {
        self.entries.retain_mut(|(_, c)| {
            *c -= d;
            *c > 0
        });
        if weight > d {
            self.entries.push((item, weight - d));
        }
        self.reindex();
    }

    /// Keep the counters above `s`, each lowered by `s` (one
    /// order-preserving pass) — the Theorem 1 prune.
    pub(crate) fn subtract_and_prune(&mut self, s: u64) {
        self.entries.retain_mut(|(_, c)| {
            if *c > s {
                *c -= s;
                true
            } else {
                false
            }
        });
        self.reindex();
    }

    /// `Ok(entry)` if `item` is stored, else `Err(slot)`: the empty slot
    /// its probe ended at (meaningless while the index is empty).
    #[inline]
    fn find(&self, item: &I) -> Result<usize, usize> {
        if self.index.is_empty() {
            return self.scan(item);
        }
        let mask = self.index.len() - 1;
        let mut slot = self.home(item);
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                e if self.entries[e as usize - 1].0 == *item => return Ok(e as usize - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// [`Self::find`] without an index: a decoded table not updated
    /// since, read by a caller that only looks (or an empty table).
    #[cold]
    #[inline(never)]
    fn scan(&self, item: &I) -> Result<usize, usize> {
        self.entries.iter().position(|(i, _)| i == item).ok_or(0)
    }

    #[inline]
    fn home(&self, item: &I) -> usize {
        let mut h = FxHasher::default();
        item.hash(&mut h);
        (h.finish() >> self.shift) as usize
    }

    /// Point the index at the entries afresh: after a pass that moved
    /// them, or grown when they outgrew it.
    fn reindex(&mut self) {
        let slots = slots_for(self.entries.len());
        if slots > self.index.len() {
            self.grow_to(slots);
        } else {
            self.index.fill(0);
        }
        // The entries hold distinct items, so each takes the first empty
        // slot from its home without comparing items.
        let mask = self.index.len().wrapping_sub(1);
        for e in 0..self.entries.len() {
            let mut slot = self.home(&self.entries[e].0);
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = e as u32 + 1;
        }
    }

    /// Replace the index with an empty one of `slots` slots.
    fn grow_to(&mut self, slots: usize) {
        self.index = vec![0; slots];
        self.shift = 64 - slots.trailing_zeros();
    }
}

/// Index slots for `entries` entries: a power of two at least twice as
/// many (none for an empty table).
fn slots_for(entries: usize) -> usize {
    if entries == 0 {
        0
    } else {
        (2 * entries).next_power_of_two().max(MIN_SLOTS)
    }
}

/// The same bytes as an `FxHashMap<I, u64>` holding these counters: a
/// length, then `(item, count)` pairs — here in entry order.
impl<I: Wire + Eq + Hash> Wire for Counters<I> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.entries.len() as u64);
        for (item, c) in &self.entries {
            item.encode_into(out);
            c.encode_into(out);
        }
    }

    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.length()?;
        let mut table = Counters::with_capacity(len);
        for _ in 0..len {
            let item = I::decode_from(r)?;
            let c = u64::decode_from(r)?;
            match table.add_existing(&item, 0) {
                Ok(()) => return Err(WireError::Malformed("duplicate map key")),
                Err(at) => table.insert(at, item, c),
            }
        }
        // The index has found any duplicate; the table rests without it.
        table.index = Vec::new();
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(t: &Counters<u64>) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = t.iter().map(|(&i, c)| (i, c)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn adds_find_their_entry_and_keep_first_insertion_order() {
        let mut t = Counters::default();
        for item in [5u64, 3, 5, 9, 3, 5] {
            t.add(item, 1);
        }
        let order: Vec<(u64, u64)> = t.iter().map(|(&i, c)| (i, c)).collect();
        assert_eq!(order, vec![(5, 3), (3, 2), (9, 1)]);
        assert_eq!(t.get(&3), Some(2));
        assert_eq!(t.get(&4), None);
        assert!(t.add_existing(&9, 4).is_ok());
        assert!(t.add_existing(&4, 4).is_err());
        assert_eq!(t.get(&9), Some(5));
    }

    #[test]
    fn the_index_grows_and_stays_at_most_half_full() {
        let mut t = Counters::default();
        for item in 0..10_000u64 {
            t.add(item.wrapping_mul(0x9E37_79B9_7F4A_7C15), item + 1);
            assert!(2 * t.len() <= t.index.len());
        }
        for item in 0..10_000u64 {
            assert_eq!(
                t.get(&item.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                Some(item + 1)
            );
        }
    }

    #[test]
    fn passes_keep_order_and_the_index_follows() {
        let mut t = Counters::default();
        for (item, c) in [(1u64, 4u64), (2, 1), (3, 7), (4, 2), (5, 9)] {
            t.add(item, c);
        }
        t.decrement_then_push(1, 6, 5);
        let order: Vec<(u64, u64)> = t.iter().map(|(&i, c)| (i, c)).collect();
        assert_eq!(order, vec![(1, 3), (3, 6), (4, 1), (5, 8), (6, 4)]);
        t.decrement_then_push(1, 7, 1);
        assert_eq!(sorted(&t), vec![(1, 2), (3, 5), (5, 7), (6, 3)]);
        t.subtract_and_prune(3);
        assert_eq!(sorted(&t), vec![(3, 2), (5, 4)]);
        for gone in [1, 2, 4, 6, 7] {
            assert_eq!(t.get(&gone), None);
        }
        t.add(6, 1);
        t.add(3, 1);
        let order: Vec<(u64, u64)> = t.iter().map(|(&i, c)| (i, c)).collect();
        assert_eq!(order, vec![(3, 3), (5, 4), (6, 1)]);
    }

    #[test]
    fn decode_of_encode_is_the_identity_and_duplicates_are_refused() {
        let mut t = Counters::default();
        for item in [7u64, 1, 99, 1 << 40, 3] {
            t.add(item, item % 5 + 1);
        }
        let bytes = t.encode();
        let mut back = Counters::<u64>::decode(&bytes).unwrap();
        assert_eq!(back.encode(), bytes);
        // Read from its entries until the first update builds the index.
        assert!(back.index.is_empty());
        assert_eq!(back.get(&(1 << 40)), t.get(&(1 << 40)));
        assert_eq!(back.get(&2), None);
        back.add(3, 1);
        back.add(2, 1);
        assert_eq!(back.index.len(), 16);
        assert_eq!(back.get(&3), Some(5));
        t.add(3, 1);
        t.add(2, 1);
        assert_eq!(back.encode(), t.encode());
        let mut dup = Vec::new();
        put_varint(&mut dup, 2);
        for _ in 0..2 {
            4u64.encode_into(&mut dup);
            1u64.encode_into(&mut dup);
        }
        assert!(matches!(
            Counters::<u64>::decode(&dup),
            Err(WireError::Malformed("duplicate map key"))
        ));
        assert_eq!(Counters::<u64>::decode(&[0]).unwrap().len(), 0);
    }
}
