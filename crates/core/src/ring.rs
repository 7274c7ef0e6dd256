//! Bounded lock-free queue for the shard ingest path.
//!
//! [`Ring`] replaces `std::sync::mpsc::sync_channel` on the engine's
//! per-shard queues. The steady-state enqueue is a couple of atomic
//! operations on a fixed slot array (Vyukov's bounded MPMC design: every
//! slot carries a sequence stamp that encodes whose turn it is), so an
//! ingest caller never takes a lock and never allocates to hand a batch
//! to a worker. Mutex/condvar parking exists only on the *slow* paths —
//! a producer blocking on a full ring, the consumer idling on an empty
//! one — and is never touched while the queue is making progress.
//!
//! Unlike a channel, a ring has an explicit lifecycle, which is what the
//! engine's failure model needs:
//!
//! * **Open** — normal operation.
//! * **Draining** ([`Ring::close`]) — shutdown: producers are refused,
//!   the consumer drains every queued item (including pushes that were
//!   already in flight when the state flipped — see `pop_wait`) and then
//!   sees `None`. This is what makes clean shutdown lossless.
//! * **Dead** ([`Ring::mark_dead`]) — the consumer died. Producers are
//!   refused so they can reroute, but queued items are *retained*: a
//!   respawned worker calls [`Ring::revive`] and picks up exactly where
//!   its predecessor stopped, so batches that were acked into the queue
//!   survive a worker death instead of being dropped with the channel.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Producers and consumer both make progress.
const OPEN: u8 = 0;
/// No new pushes; consumer drains what is queued, then exits.
const DRAINING: u8 = 1;
/// The consumer died; queued items are held for a possible revive.
const DEAD: u8 = 2;

/// Safety-net park timeout: wakeups are signalled explicitly, the
/// timeout only bounds the cost of a theoretical missed signal.
const PARK: Duration = Duration::from_millis(1);

/// Why a push did not enqueue; the item is handed back in both cases.
#[derive(Debug)]
pub enum PushError<T> {
    /// The ring is at capacity (backpressure).
    Full(T),
    /// The ring is draining or its consumer is dead.
    Closed(T),
}

struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Bounded lock-free MPMC queue with an explicit Open/Draining/Dead
/// lifecycle. Capacity is rounded up to a power of two.
pub struct Ring<T> {
    buf: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    state: AtomicU8,
    /// Producers between reading `state` and publishing (or giving up).
    /// A draining consumer waits for this to reach zero before it trusts
    /// an empty ring: a producer that read Open just before `close()` has
    /// not moved `enqueue_pos` yet, but will.
    pushing: AtomicU32,
    /// Counts updated only while holding `park`; read lock-free on the
    /// fast path to decide whether a notify is needed at all.
    prod_waiting: AtomicU32,
    cons_waiting: AtomicU32,
    park: Mutex<()>,
    not_full: Condvar,
    not_empty: Condvar,
}

// SAFETY: slot values are handed between threads through the seq-stamp
// protocol (Release publish, Acquire claim); each value is touched by
// exactly one thread at a time.
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Ring<T> {
    /// A ring holding at least `capacity` items (rounded up to a power
    /// of two, minimum 2).
    ///
    /// The minimum is 2, not 1: the seq-stamp protocol tells "free for
    /// position `p`" from "filled at position `p − cap`" by the slot's
    /// stamp, and with a single slot those two states collide — a second
    /// push would overwrite an unconsumed item.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        Ring {
            buf: (0..cap)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    value: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            state: AtomicU8::new(OPEN),
            pushing: AtomicU32::new(0),
            prod_waiting: AtomicU32::new(0),
            cons_waiting: AtomicU32::new(0),
            park: Mutex::new(()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Usable capacity.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Approximate number of queued items (racy by nature).
    pub fn len(&self) -> usize {
        let tail = self.enqueue_pos.load(Ordering::Acquire);
        let head = self.dequeue_pos.load(Ordering::Acquire);
        tail.saturating_sub(head)
    }

    /// True when no items are queued (approximate, like [`Ring::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking enqueue: a couple of atomics in the common case.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        let result = self.try_push_core(value);
        if result.is_ok() {
            self.wake_consumer();
        }
        result
    }

    /// The enqueue protocol without the consumer wakeup. The under-lock
    /// double-checks in [`Ring::push`] must use this: they already hold
    /// `park`, and the wake helpers take `park` — waking through
    /// [`Ring::try_push`] there would self-deadlock on the re-lock.
    fn try_push_core(&self, value: T) -> Result<(), PushError<T>> {
        // Announce the attempt *before* reading the state (SeqCst on
        // both, and on the consumer's mirror-image reads in `pop_wait`):
        // either this push sees the ring closed, or the draining consumer
        // sees this push pending.
        self.pushing.fetch_add(1, Ordering::SeqCst);
        let result = if self.state.load(Ordering::SeqCst) == OPEN {
            self.claim_and_publish(value)
        } else {
            Err(PushError::Closed(value))
        };
        self.pushing.fetch_sub(1, Ordering::SeqCst);
        result
    }

    fn claim_and_publish(&self, value: T) -> Result<(), PushError<T>> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed this slot for us alone.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return Err(PushError::Full(value));
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Blocking enqueue: parks while the ring is full, returns the item
    /// as `Err` once the ring stops accepting (draining or dead).
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut value = value;
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(PushError::Closed(v)) => return Err(v),
                Err(PushError::Full(v)) => value = v,
            }
            // Slow path: register as a waiting producer, re-check under
            // the park lock (the consumer notifies only after seeing the
            // waiting count), then sleep until a pop frees a slot. The
            // re-check must not go through `try_push`: its wakeup helper
            // takes `park`, which this thread already holds.
            let guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
            self.prod_waiting.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            match self.try_push_core(value) {
                Ok(()) => {
                    self.prod_waiting.fetch_sub(1, Ordering::SeqCst);
                    // Already holding `park`: notify the consumer directly.
                    self.not_empty.notify_all();
                    return Ok(());
                }
                Err(PushError::Closed(v)) => {
                    self.prod_waiting.fetch_sub(1, Ordering::SeqCst);
                    return Err(v);
                }
                Err(PushError::Full(v)) => value = v,
            }
            let _unused = self
                .not_full
                .wait_timeout(guard, PARK)
                .unwrap_or_else(|e| e.into_inner());
            self.prod_waiting.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Non-blocking dequeue.
    pub fn try_pop(&self) -> Option<T> {
        let value = self.try_pop_core();
        if value.is_some() {
            self.wake_producers();
        }
        value
    }

    /// The dequeue protocol without the producer wakeup; see
    /// [`Ring::try_push_core`] for why the under-lock double-check in
    /// [`Ring::pop_wait`] needs it.
    fn try_pop_core(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS claimed this slot; the producer
                        // published the value before setting seq.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Blocking dequeue for the consumer. Returns `None` only once the
    /// ring has left the Open state **and** every in-flight push has
    /// landed and been drained — a producer that won the enqueue race
    /// just before `close()` is still honored, which is what makes
    /// engine shutdown lossless for acked batches.
    pub fn pop_wait(&self) -> Option<T> {
        loop {
            if let Some(v) = self.try_pop() {
                return Some(v);
            }
            if self.state.load(Ordering::SeqCst) != OPEN {
                // A push that saw the ring open is still pending while
                // `pushing` is non-zero; one that claimed a slot but has
                // not published it shows as enqueue_pos ahead of
                // dequeue_pos. Read in that order: once no push is
                // pending, every successful one has moved enqueue_pos.
                let pending = self.pushing.load(Ordering::SeqCst);
                let tail = self.enqueue_pos.load(Ordering::SeqCst);
                let head = self.dequeue_pos.load(Ordering::SeqCst);
                if pending == 0 && tail == head {
                    return None;
                }
                std::thread::yield_now();
                continue;
            }
            let guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
            self.cons_waiting.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            if let Some(v) = self.try_pop_core() {
                self.cons_waiting.fetch_sub(1, Ordering::SeqCst);
                // Already holding `park`: notify producers directly.
                self.not_full.notify_all();
                return Some(v);
            }
            if self.state.load(Ordering::SeqCst) == OPEN {
                let _unused = self
                    .not_empty
                    .wait_timeout(guard, PARK)
                    .unwrap_or_else(|e| e.into_inner());
            }
            self.cons_waiting.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Begin draining: refuse new pushes, let the consumer empty the
    /// ring and exit. A dead ring stays dead.
    pub fn close(&self) {
        let _ = self
            .state
            .compare_exchange(OPEN, DRAINING, Ordering::SeqCst, Ordering::SeqCst);
        self.wake_everyone();
    }

    /// Record that the consumer died. Queued items are retained for
    /// [`Ring::revive`]; producers get [`PushError::Closed`] and reroute.
    pub fn mark_dead(&self) {
        self.state.store(DEAD, Ordering::Release);
        self.wake_everyone();
    }

    /// Reopen a dead ring for a respawned consumer. Returns false if the
    /// ring was not dead (e.g. shutdown already started draining it).
    pub fn revive(&self) -> bool {
        self.state
            .compare_exchange(DEAD, OPEN, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// True once the consumer has been marked dead.
    pub fn is_dead(&self) -> bool {
        self.state.load(Ordering::Acquire) == DEAD
    }

    /// True while pushes are accepted.
    pub fn is_open(&self) -> bool {
        self.state.load(Ordering::Acquire) == OPEN
    }

    fn wake_consumer(&self) {
        fence(Ordering::SeqCst);
        if self.cons_waiting.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
            self.not_empty.notify_all();
        }
    }

    fn wake_producers(&self) {
        fence(Ordering::SeqCst);
        if self.prod_waiting.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
            self.not_full.notify_all();
        }
    }

    fn wake_everyone(&self) {
        let _guard = self.park.lock().unwrap_or_else(|e| e.into_inner());
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let ring = Ring::with_capacity(4);
        for i in 0..4 {
            ring.try_push(i).map_err(|_| "full").unwrap();
        }
        assert!(matches!(ring.try_push(9), Err(PushError::Full(9))));
        for i in 0..4 {
            assert_eq!(ring.try_pop(), Some(i));
        }
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let ring: Ring<u8> = Ring::with_capacity(5);
        assert_eq!(ring.capacity(), 8);
        let ring: Ring<u8> = Ring::with_capacity(1);
        assert_eq!(ring.capacity(), 2, "one slot cannot disambiguate laps");
    }

    #[test]
    fn close_refuses_pushes_but_drains_queued_items() {
        let ring = Ring::with_capacity(8);
        ring.try_push(1u64).map_err(|_| "full").unwrap();
        ring.try_push(2u64).map_err(|_| "full").unwrap();
        ring.close();
        assert!(matches!(ring.try_push(3), Err(PushError::Closed(3))));
        assert_eq!(ring.pop_wait(), Some(1));
        assert_eq!(ring.pop_wait(), Some(2));
        assert_eq!(ring.pop_wait(), None);
    }

    #[test]
    fn dead_ring_retains_items_until_revived() {
        let ring = Ring::with_capacity(8);
        ring.try_push(7u64).map_err(|_| "full").unwrap();
        ring.mark_dead();
        assert!(ring.is_dead());
        assert!(matches!(ring.try_push(8), Err(PushError::Closed(8))));
        assert!(ring.revive());
        assert!(!ring.revive(), "second revive is a no-op");
        ring.try_push(8u64).map_err(|_| "full").unwrap();
        assert_eq!(ring.try_pop(), Some(7), "pre-death item survived");
        assert_eq!(ring.try_pop(), Some(8));
    }

    #[test]
    fn blocking_push_waits_for_consumer_space() {
        let ring = Arc::new(Ring::with_capacity(2));
        ring.try_push(0u64).map_err(|_| "full").unwrap();
        ring.try_push(1u64).map_err(|_| "full").unwrap();
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(2u64))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ring.try_pop(), Some(0));
        producer.join().unwrap().unwrap();
        assert_eq!(ring.try_pop(), Some(1));
        assert_eq!(ring.try_pop(), Some(2));
    }

    #[test]
    fn close_unblocks_a_parked_producer() {
        let ring = Arc::new(Ring::with_capacity(2));
        ring.try_push(0u64).map_err(|_| "full").unwrap();
        ring.try_push(1u64).map_err(|_| "full").unwrap();
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.push(2u64))
        };
        std::thread::sleep(Duration::from_millis(20));
        ring.close();
        assert_eq!(producer.join().unwrap(), Err(2), "item handed back");
    }

    #[test]
    fn mpmc_stress_preserves_every_item_exactly_once() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let ring = Arc::new(Ring::with_capacity(16));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        ring.push(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut seen = vec![false; (PRODUCERS * PER_PRODUCER) as usize];
                while let Some(v) = ring.pop_wait() {
                    assert!(!seen[v as usize], "duplicate delivery of {v}");
                    seen[v as usize] = true;
                }
                seen.iter().filter(|&&s| s).count()
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        ring.close();
        let delivered = consumer.join().unwrap();
        assert_eq!(delivered as u64, PRODUCERS * PER_PRODUCER);
    }

    #[test]
    fn tiny_ring_park_paths_never_self_deadlock() {
        // Regression: the under-lock double-checks in `push`/`pop_wait`
        // used to wake the other side through `try_push`/`try_pop`, whose
        // wake helpers re-take the `park` mutex the thread already holds
        // — a self-deadlock that needed a full ring and a racing drain. A
        // capacity-2 ring keeps both slow paths hot enough to hit it.
        const ITEMS: u64 = 20_000;
        let ring = Arc::new(Ring::with_capacity(2));
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..ITEMS {
                    ring.push(i).unwrap();
                }
            })
        };
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut next = 0u64;
                while let Some(v) = ring.pop_wait() {
                    assert_eq!(v, next, "single-producer FIFO order broken");
                    next += 1;
                }
                next
            })
        };
        producer.join().unwrap();
        ring.close();
        assert_eq!(consumer.join().unwrap(), ITEMS);
    }

    #[test]
    fn close_never_strands_a_push_that_returned_ok() {
        // A producer that read Open just before close() may publish after
        // the consumer's last look at the ring; the consumer must wait for
        // it rather than exit on empty.
        for round in 0..1_000u64 {
            let ring = Arc::new(Ring::with_capacity(64));
            let producer = {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let mut acked = 0u64;
                    while ring.push(acked).is_ok() {
                        acked += 1;
                    }
                    acked
                })
            };
            let consumer = {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let mut popped = 0u64;
                    while ring.pop_wait().is_some() {
                        popped += 1;
                    }
                    popped
                })
            };
            for _ in 0..round % 50 {
                std::thread::yield_now();
            }
            ring.close();
            let (acked, popped) = (producer.join().unwrap(), consumer.join().unwrap());
            assert_eq!(popped, acked, "round {round}");
        }
    }

    #[test]
    fn drop_releases_queued_items() {
        let ring = Ring::with_capacity(4);
        let tracked = Arc::new(());
        ring.try_push(Arc::clone(&tracked)).map_err(|_| "").unwrap();
        ring.try_push(Arc::clone(&tracked)).map_err(|_| "").unwrap();
        assert_eq!(Arc::strong_count(&tracked), 3);
        drop(ring);
        assert_eq!(Arc::strong_count(&tracked), 1);
    }
}
