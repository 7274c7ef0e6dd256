//! A bounded, lossless, ordered queue with an explicit lifecycle.
//!
//! The engine no longer queues batches: the thread that receives a batch
//! absorbs it. [`Ring`]'s only user is the stage ledger's `ring.push_pop`
//! probe, whose pinned signature keeps it until that row goes too. It is
//! one mutex around a `VecDeque` plus two condvars. Every operation moves a whole batch, so one uncontended lock
//! per push and per pop is a small, amortized cost, and because push, pop
//! and the lifecycle changes all serialize on that one lock, none of them
//! can observe another half-done. The queue only has to be lossless and
//! ordered: by Definition 1 any interleaving the scheduler picks is just
//! another merge tree.
//!
//! Waiters are counted under the lock and a side notifies only when the
//! count says someone sleeps (std's `notify_one` always makes a syscall),
//! after releasing the guard so the woken thread does not block on it.
//!
//! Unlike a channel, a ring has an explicit lifecycle:
//!
//! * **Open** — normal operation.
//! * **Draining** ([`Ring::close`]) — shutdown: producers are refused,
//!   the consumer drains every queued item and then sees `None`. Every
//!   push that returned `Ok` landed before the close, so clean shutdown is
//!   lossless.
//! * **Dead** ([`Ring::mark_dead`]) — the consumer died. Producers are
//!   refused, but queued items are *retained*: a successor consumer calls
//!   [`Ring::revive`] and picks up exactly where its predecessor stopped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::lock;

/// Why a push did not enqueue; the item is handed back in both cases.
#[derive(Debug)]
pub enum PushError<T> {
    /// The ring is at capacity (backpressure).
    Full(T),
    /// The ring is draining or its consumer is dead.
    Closed(T),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Life {
    /// Producers and consumer both make progress.
    Open,
    /// No new pushes; the consumer drains what is queued, then exits.
    Draining,
    /// The consumer died; queued items are held for a possible revive.
    Dead,
}

struct State<T> {
    items: VecDeque<T>,
    life: Life,
    producers_waiting: usize,
    consumers_waiting: usize,
}

/// Bounded MPMC queue with an explicit Open/Draining/Dead lifecycle.
/// Capacity is rounded up to a power of two.
pub struct Ring<T> {
    cap: usize,
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl<T> Ring<T> {
    /// A ring holding at least `capacity` items (rounded up to a power
    /// of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        Ring {
            cap,
            state: Mutex::new(State {
                items: VecDeque::with_capacity(cap),
                life: Life::Open,
                producers_waiting: 0,
                consumers_waiting: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Usable capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of queued items (a moment's view; others may change it).
    pub fn len(&self) -> usize {
        lock(&self.state).items.len()
    }

    /// True when no items are queued (a moment's view, like [`Ring::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking enqueue.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        let st = lock(&self.state);
        if st.life != Life::Open {
            return Err(PushError::Closed(value));
        }
        if st.items.len() == self.cap {
            return Err(PushError::Full(value));
        }
        self.enqueue(st, value);
        Ok(())
    }

    /// Blocking enqueue: waits while the ring is full, returns the item
    /// as `Err` once the ring stops accepting (draining or dead).
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut st = lock(&self.state);
        loop {
            if st.life != Life::Open {
                return Err(value);
            }
            if st.items.len() < self.cap {
                self.enqueue(st, value);
                return Ok(());
            }
            st.producers_waiting += 1;
            st = self.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
            st.producers_waiting -= 1;
        }
    }

    /// Non-blocking dequeue.
    pub fn try_pop(&self) -> Option<T> {
        self.dequeue(lock(&self.state))
    }

    /// Blocking dequeue for the consumer. Returns `None` only once the
    /// ring has left the Open state and every queued item is drained.
    pub fn pop_wait(&self) -> Option<T> {
        let mut st = lock(&self.state);
        loop {
            if !st.items.is_empty() {
                return self.dequeue(st);
            }
            if st.life != Life::Open {
                return None;
            }
            st.consumers_waiting += 1;
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
            st.consumers_waiting -= 1;
        }
    }

    /// Begin draining: refuse new pushes, let the consumer empty the
    /// ring and exit. A dead ring stays dead.
    pub fn close(&self) {
        let mut st = lock(&self.state);
        if st.life == Life::Open {
            st.life = Life::Draining;
        }
        self.wake_everyone(st);
    }

    /// Record that the consumer died. Queued items are retained for
    /// [`Ring::revive`]; producers get [`PushError::Closed`] and reroute.
    pub fn mark_dead(&self) {
        let mut st = lock(&self.state);
        st.life = Life::Dead;
        self.wake_everyone(st);
    }

    /// Reopen a dead ring for a respawned consumer. Returns false if the
    /// ring was not dead (e.g. shutdown already started draining it).
    pub fn revive(&self) -> bool {
        let mut st = lock(&self.state);
        let dead = st.life == Life::Dead;
        if dead {
            st.life = Life::Open;
        }
        dead
    }

    /// True once the consumer has been marked dead.
    pub fn is_dead(&self) -> bool {
        lock(&self.state).life == Life::Dead
    }

    /// Append under `st`, then wake a waiting consumer once `st` is released.
    fn enqueue(&self, mut st: MutexGuard<'_, State<T>>, value: T) {
        st.items.push_back(value);
        let wake = st.consumers_waiting > 0;
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Pop under `st`, then wake a waiting producer once `st` is released.
    fn dequeue(&self, mut st: MutexGuard<'_, State<T>>) -> Option<T> {
        let value = st.items.pop_front();
        let wake = value.is_some() && st.producers_waiting > 0;
        drop(st);
        if wake {
            self.not_full.notify_one();
        }
        value
    }

    /// Wake every waiter on both sides once `st` is released.
    fn wake_everyone(&self, st: MutexGuard<'_, State<T>>) {
        let (producers, consumers) = (st.producers_waiting > 0, st.consumers_waiting > 0);
        drop(st);
        if producers {
            self.not_full.notify_all();
        }
        if consumers {
            self.not_empty.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

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
        assert_eq!(ring.capacity(), 2, "the minimum capacity is 2");
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

    /// Run `wake` against a thread parked in `park`, and fail instead of
    /// hanging if the parked thread misses its wakeup.
    fn parked_then_woken<R: Send + 'static>(
        ring: Ring<u64>,
        park: impl FnOnce(&Ring<u64>) -> R + Send + 'static,
        parked: impl Fn(&State<u64>) -> bool,
        wake: impl FnOnce(&Ring<u64>),
    ) -> R {
        let ring = Arc::new(ring);
        let (tx, rx) = mpsc::channel();
        {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let _ = tx.send(park(&ring));
            });
        }
        // Wake only once the other thread is really asleep on the condvar:
        // it counts itself waiting and releases the lock in one step.
        let start = Instant::now();
        while !parked(&lock(&ring.state)) {
            assert!(start.elapsed() < Duration::from_secs(2), "never parked");
            std::thread::yield_now();
        }
        wake(&ring);
        rx.recv_timeout(Duration::from_secs(2))
            .expect("a parked thread missed its wakeup")
    }

    #[test]
    fn a_push_wakes_a_consumer_parked_on_an_empty_ring() {
        let got = parked_then_woken(
            Ring::with_capacity(4),
            |ring| ring.pop_wait(),
            |st| st.consumers_waiting == 1,
            |ring| ring.push(42).unwrap(),
        );
        assert_eq!(got, Some(42));
    }

    #[test]
    fn close_wakes_a_consumer_parked_on_an_empty_ring() {
        let got = parked_then_woken(
            Ring::with_capacity(4),
            |ring| ring.pop_wait(),
            |st| st.consumers_waiting == 1,
            |ring| ring.close(),
        );
        assert_eq!(got, None);
    }

    #[test]
    fn mark_dead_hands_a_parked_producer_its_item_back() {
        let ring = Ring::with_capacity(2);
        ring.try_push(0).map_err(|_| "full").unwrap();
        ring.try_push(1).map_err(|_| "full").unwrap();
        let got = parked_then_woken(
            ring,
            |ring| ring.push(2),
            |st| st.producers_waiting == 1,
            |ring| ring.mark_dead(),
        );
        assert_eq!(got, Err(2));
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
        // A capacity-2 ring keeps both wait paths hot: a wake path that
        // re-took the lock its caller already holds would deadlock here.
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
        // A producer racing close() either lands its item before the
        // close (and the consumer drains it) or gets it back.
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
