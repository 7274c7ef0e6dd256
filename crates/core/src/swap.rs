//! A generation-stamped publication cell.
//!
//! [`SwapCell`] holds one immutable value behind an `Arc`. Readers
//! [`load`](SwapCell::load) a clone of that `Arc` under a briefly held
//! mutex and then work on the value with no lock at all; a writer replaces
//! it wholesale with [`SwapCell::swap`]. A value a reader still holds
//! stays alive through its `Arc` and is freed when the last holder drops
//! it, so nothing needs to be kept for the cell's lifetime.
//!
//! The engine reads its shard table once per ingest batch and its
//! published snapshot once per query, so each read is one uncontended
//! lock per batch or per query, not per item.

use std::sync::{Arc, Mutex};

use crate::lock;

/// One immutable published value and the number of swaps that replaced
/// it.
pub struct SwapCell<T> {
    current: Mutex<(Arc<T>, u64)>,
}

impl<T> SwapCell<T> {
    /// A cell publishing `value` at generation 0.
    pub fn new(value: T) -> Self {
        SwapCell {
            current: Mutex::new((Arc::new(value), 0)),
        }
    }

    /// The currently published value.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&lock(&self.current).0)
    }

    /// The number of swaps performed so far.
    pub fn generation(&self) -> u64 {
        lock(&self.current).1
    }

    /// Publish a new value. Returns the new generation. The previous value
    /// is dropped here unless a reader still holds it.
    pub fn swap(&self, value: T) -> u64 {
        let fresh = Arc::new(value);
        let mut current = lock(&self.current);
        let old = std::mem::replace(&mut current.0, fresh);
        current.1 += 1;
        let generation = current.1;
        // Free the old value, if this was its last holder, outside the lock.
        drop(current);
        drop(old);
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn load_sees_latest_swap() {
        let cell = SwapCell::new(vec![1u64]);
        assert_eq!(*cell.load(), vec![1]);
        assert_eq!(cell.swap(vec![2, 3]), 1);
        assert_eq!(*cell.load(), vec![2, 3]);
        assert_eq!(cell.generation(), 1);
    }

    #[test]
    fn borrow_taken_before_swap_stays_valid() {
        let cell = SwapCell::new(String::from("alpha"));
        let before = cell.load();
        cell.swap(String::from("beta"));
        // `before` still owns the replaced value.
        assert_eq!(*before, "alpha");
        assert_eq!(*cell.load(), "beta");
    }

    #[test]
    fn a_replaced_value_is_freed_once_no_reader_holds_it() {
        let tracked = Arc::new(());
        let cell = SwapCell::new(Arc::clone(&tracked));
        let held = cell.load();
        cell.swap(Arc::new(()));
        assert_eq!(Arc::strong_count(&tracked), 2, "the reader keeps it alive");
        drop(held);
        assert_eq!(Arc::strong_count(&tracked), 1, "nothing else does");
    }

    #[test]
    fn concurrent_readers_see_a_published_value() {
        let cell = Arc::new(SwapCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v = *cell.load();
                        assert!(v >= last, "published values went backwards");
                        last = v;
                    }
                })
            })
            .collect();
        for v in 1..200u64 {
            cell.swap(v);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.generation(), 199);
    }
}
