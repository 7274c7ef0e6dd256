//! Recycling pool for reusable `Vec` buffers.
//!
//! The aggregation service decodes every ingest batch into a `Vec<u64>`
//! and copies every durable one into a WAL record `Vec<u8>`, each done
//! with once the batch is absorbed or logged. At steady state that is one
//! heap allocation and one deallocation per batch for a buffer whose
//! capacity hardly changes. [`BufferPool`] removes both: spent buffers go
//! back with [`BufferPool::put`] and callers fetch them again with
//! [`BufferPool::get`], so the same handful of allocations circulate for
//! the life of the engine.
//!
//! The pool is a mutex around a stack of idle buffers whose room is
//! reserved up front, so neither `get` nor `put` allocates; each costs one
//! uncontended lock per batch. When the stack is empty, `get` falls back
//! to a plain `Vec::new()` and counts a **miss**; when it is full, `put`
//! drops the buffer and counts a **discard**. Both counters are exported
//! so an operator can see when the pool is undersized (misses climb) or
//! oversized (discards climb).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::lock;

/// A bounded pool of reusable `Vec<T>` buffers. Exhaustion degrades to
/// plain allocation (counted), never to an error.
pub struct BufferPool<T> {
    idle: Mutex<Vec<Vec<T>>>,
    slots: usize,
    reuses: AtomicU64,
    misses: AtomicU64,
    discards: AtomicU64,
}

impl<T> BufferPool<T> {
    /// A pool with room for `slots` idle buffers. Zero slots is allowed
    /// and turns the pool into a pass-through (every `get` is a miss,
    /// every `put` a discard).
    pub fn new(slots: usize) -> Self {
        BufferPool {
            idle: Mutex::new(Vec::with_capacity(slots)),
            slots,
            reuses: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            discards: AtomicU64::new(0),
        }
    }

    /// Fetch a cleared buffer, reusing a pooled one when available. On an
    /// empty pool this returns `Vec::new()` (no reserved capacity — the
    /// caller's first pushes will allocate) and counts a miss.
    pub fn get(&self) -> Vec<T> {
        self.take().unwrap_or_else(|| {
            self.misses.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        })
    }

    /// A pooled buffer if one is idle (a counted reuse), `None` otherwise
    /// — and no miss: the caller has somewhere else to look before it
    /// allocates.
    pub fn take(&self) -> Option<Vec<T>> {
        let buf = lock(&self.idle).pop()?;
        self.reuses.fetch_add(1, Ordering::Relaxed);
        Some(buf)
    }

    /// Return a spent buffer to the pool. The buffer is cleared (elements
    /// dropped, capacity kept); if the pool is already full it is
    /// dropped and counted as a discard.
    pub fn put(&self, mut buf: Vec<T>) {
        buf.clear();
        if buf.capacity() == 0 {
            // Nothing worth recycling; don't burn a slot on it.
            return;
        }
        let mut idle = lock(&self.idle);
        if idle.len() < self.slots {
            idle.push(buf);
            return;
        }
        drop(idle);
        self.discards.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of `get` calls served from the pool.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Number of `get` calls that fell back to a fresh allocation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of returned buffers dropped because the pool was full.
    pub fn discards(&self) -> u64 {
        self.discards.load(Ordering::Relaxed)
    }

    /// Number of buffers currently parked in the pool.
    pub fn idle(&self) -> usize {
        lock(&self.idle).len()
    }

    /// Slot capacity the pool was built with.
    pub fn capacity(&self) -> usize {
        self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn round_trip_reuses_capacity() {
        let pool = BufferPool::new(4);
        let mut buf: Vec<u64> = pool.get();
        assert_eq!(pool.misses(), 1);
        buf.extend(0..1000);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        pool.put(buf);
        let buf2 = pool.get();
        assert_eq!(pool.reuses(), 1);
        assert!(buf2.is_empty());
        assert_eq!(buf2.capacity(), cap);
        assert_eq!(buf2.as_ptr(), ptr, "same backing storage came back");
    }

    #[test]
    fn exhaustion_falls_back_to_alloc_and_counts() {
        let pool: BufferPool<u64> = BufferPool::new(2);
        for _ in 0..5 {
            let _ = pool.get();
        }
        assert_eq!(pool.misses(), 5);
        assert_eq!(pool.reuses(), 0);
    }

    #[test]
    fn overflow_discards() {
        let pool: BufferPool<u64> = BufferPool::new(1);
        pool.put(Vec::with_capacity(8));
        pool.put(Vec::with_capacity(8));
        assert_eq!(pool.discards(), 1);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn zero_capacity_pool_is_a_pass_through() {
        let pool: BufferPool<u64> = BufferPool::new(0);
        let b = pool.get();
        assert!(b.is_empty());
        pool.put(Vec::with_capacity(8));
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.discards(), 1);
    }

    #[test]
    fn empty_returned_buffers_are_not_pooled() {
        let pool: BufferPool<u64> = BufferPool::new(2);
        pool.put(Vec::new());
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.discards(), 0);
    }

    #[test]
    fn concurrent_get_put_never_duplicates_a_buffer() {
        let pool = Arc::new(BufferPool::<u64>::new(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        let mut buf = pool.get();
                        assert!(buf.is_empty(), "pooled buffer arrived dirty");
                        buf.push(t * 10_000 + i);
                        pool.put(buf);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(
            pool.reuses() + pool.misses(),
            8000,
            "every get was either a reuse or a miss"
        );
    }
}
