//! Leader–follower group commit over a shared [`Store`].
//!
//! Without group commit, N concurrent ingest threads serialize on the
//! store mutex and (under `fsync always`) pay N fsyncs for N batches.
//! [`GroupCommit`] collapses that: callers enqueue their encoded payload
//! under a short state lock; the first caller to arrive becomes the
//! **leader**, drains everything queued, and appends the whole group via
//! [`Wal::append_group`] — one store-mutex acquisition and at most one
//! fsync per group. Everyone else (the **followers**) just waits on a
//! condvar for its ticket to complete.
//!
//! The log numbers the records, so the leader is where a record's seq is
//! known: it runs the hook [`GroupCommit::with_record_hook`] installs on
//! each appended `(seq, payload)`, in WAL order, before the group's
//! tickets complete — when `append` returns, its record has been through
//! the hook. Leaders follow one another, so the hook never runs twice at
//! once. A failed append runs no hook.
//!
//! Durability semantics are preserved exactly, not weakened: a caller
//! does not return until its record is appended (and fsynced when the
//! policy says so), so "acked ⇒ recoverable" holds record-for-record —
//! the group only amortizes *cost*, never the guarantee. A write error
//! is sticky: after the log fails once, every subsequent append fails
//! fast instead of silently acking into a broken log. A panicking hook
//! fails the log the same way.
//!
//! [`Wal::append_group`]: crate::wal::Wal::append_group

use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

use ms_core::lock;

use crate::Store;

/// What the leader runs on each appended record: its seq and its payload
/// buffer, which the hook owns from then on (to recycle, say).
type RecordHook = Box<dyn Fn(u64, Vec<u8>) + Send + Sync>;

/// What one group-commit append reports back.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupOutcome {
    /// True when an fsync at-or-after this record's append has already
    /// happened (the record survives power loss).
    pub synced: bool,
    /// Aggregate of the groups this caller led (all zeros for followers).
    pub led: LedStats,
}

/// Work performed while acting as group leader, for telemetry.
#[derive(Debug, Clone, Copy, Default)]
pub struct LedStats {
    /// Groups appended.
    pub groups: u64,
    /// Records appended across those groups.
    pub records: u64,
    /// Bytes written across those groups.
    pub bytes: u64,
    /// fsyncs issued across those groups.
    pub fsyncs: u64,
}

struct GroupState {
    /// Payloads queued for the next group, in ticket order.
    queue: Vec<Vec<u8>>,
    /// The emptied vector of the last group appended: the leader swaps it
    /// in for `queue`, so draining a group allocates nothing.
    spare: Vec<Vec<u8>>,
    /// A leader is currently appending.
    leader: bool,
    /// Tickets handed out (== payloads ever submitted).
    submitted: u64,
    /// Tickets whose records are appended.
    completed: u64,
    /// Highest ticket covered by an fsync.
    synced_ticket: u64,
    /// Sticky failure: the WAL broke; fail every append from now on.
    failed: Option<(io::ErrorKind, String)>,
}

/// Batches concurrent WAL appends into single-lock, single-fsync groups.
pub struct GroupCommit {
    state: Mutex<GroupState>,
    done: Condvar,
    hook: Option<RecordHook>,
}

fn sticky(failed: &(io::ErrorKind, String)) -> io::Error {
    io::Error::new(failed.0, failed.1.clone())
}

impl GroupCommit {
    /// A fresh group-commit coordinator.
    pub fn new() -> GroupCommit {
        GroupCommit {
            state: Mutex::new(GroupState {
                queue: Vec::new(),
                spare: Vec::new(),
                leader: false,
                submitted: 0,
                completed: 0,
                synced_ticket: 0,
                failed: None,
            }),
            done: Condvar::new(),
            hook: None,
        }
    }

    /// Install the hook the leader runs on every appended record, in WAL
    /// order, before the record's append returns (module doc).
    pub fn with_record_hook(
        mut self,
        hook: impl Fn(u64, Vec<u8>) + Send + Sync + 'static,
    ) -> GroupCommit {
        self.hook = Some(Box::new(hook));
        self
    }

    /// Append `payload` as one WAL record, batched with whatever other
    /// appends are in flight. Returns once the record is appended — and
    /// fsynced, when the store's policy requires it — or with the sticky
    /// error once the log has failed.
    pub fn append(&self, store: &Mutex<Store>, payload: Vec<u8>) -> io::Result<GroupOutcome> {
        let mut st = lock(&self.state);
        if let Some(failed) = &st.failed {
            return Err(sticky(failed));
        }
        st.queue.push(payload);
        st.submitted += 1;
        let ticket = st.submitted;

        if st.leader {
            // Follower: a leader is already appending and will drain our
            // payload in its next round.
            while st.completed < ticket && st.failed.is_none() {
                st = self.done.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.completed < ticket {
                let failed = st.failed.as_ref().expect("loop exits on failure");
                return Err(sticky(failed));
            }
            return Ok(GroupOutcome {
                synced: st.synced_ticket >= ticket,
                led: LedStats::default(),
            });
        }

        // Leader: drain rounds of queued payloads until none are left.
        st.leader = true;
        let mut led = LedStats::default();
        loop {
            if st.queue.is_empty() {
                st.leader = false;
                break;
            }
            let spare = std::mem::take(&mut st.spare);
            let mut group = std::mem::replace(&mut st.queue, spare);
            drop(st);
            // A panic in the store or the hook fails the log like a write
            // error, so no follower waits on a leader that is gone.
            let appended = panic::catch_unwind(AssertUnwindSafe(|| {
                let g = lock(store).wal.append_group(&group)?;
                if let Some(hook) = &self.hook {
                    (g.first_seq..)
                        .zip(group.drain(..))
                        .for_each(|(seq, p)| hook(seq, p));
                }
                Ok(g)
            }))
            .unwrap_or_else(|_| Err(io::Error::other("group-commit leader panicked")));
            group.clear();
            st = lock(&self.state);
            match appended {
                Ok(g) => {
                    st.completed += g.records;
                    if g.synced {
                        st.synced_ticket = st.completed;
                    }
                    led.groups += 1;
                    led.records += g.records;
                    led.bytes += g.bytes;
                    led.fsyncs += u64::from(g.synced);
                    self.done.notify_all();
                    st.spare = group;
                }
                Err(e) => {
                    st.failed = Some((e.kind(), e.to_string()));
                    st.leader = false;
                    self.done.notify_all();
                    return Err(e);
                }
            }
        }
        let synced = st.synced_ticket >= ticket;
        drop(st);
        Ok(GroupOutcome { synced, led })
    }

    /// Tickets completed so far (test/telemetry hook).
    pub fn completed(&self) -> u64 {
        lock(&self.state).completed
    }
}

impl Default for GroupCommit {
    fn default() -> Self {
        GroupCommit::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FsyncPolicy, StoreConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn temp_store(tag: &str, fsync: FsyncPolicy) -> (Mutex<Store>, StoreConfig) {
        let dir = std::env::temp_dir().join(format!("ms-store-group-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig::new(dir).fsync(fsync);
        let (store, _) = Store::open(&cfg).unwrap();
        (Mutex::new(store), cfg)
    }

    #[test]
    fn single_caller_appends_and_syncs() {
        let (store, cfg) = temp_store("single", FsyncPolicy::Always);
        let gc = GroupCommit::new();
        let outcome = gc.append(&store, vec![1, 2, 3]).unwrap();
        assert!(outcome.synced);
        assert_eq!(outcome.led.groups, 1);
        assert_eq!(outcome.led.records, 1);
        assert_eq!(outcome.led.fsyncs, 1);
        assert_eq!(gc.completed(), 1);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn concurrent_appends_all_land_with_fewer_lock_rounds() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 50;
        let (store, cfg) = temp_store("concurrent", FsyncPolicy::Always);
        let store = Arc::new(store);
        let gc = Arc::new(GroupCommit::new());
        let groups = Arc::new(AtomicU64::new(0));
        let fsyncs = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (store, gc) = (Arc::clone(&store), Arc::clone(&gc));
                let (groups, fsyncs) = (Arc::clone(&groups), Arc::clone(&fsyncs));
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let outcome = gc.append(&store, vec![t as u8, i as u8]).unwrap();
                        assert!(outcome.synced, "always-policy append must be synced");
                        groups.fetch_add(outcome.led.groups, Ordering::Relaxed);
                        fsyncs.fetch_add(outcome.led.fsyncs, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = THREADS * PER_THREAD;
        assert_eq!(gc.completed(), total);
        assert_eq!(
            store.lock().unwrap().wal.last_seq(),
            total,
            "every record appended exactly once"
        );
        assert!(groups.load(Ordering::Relaxed) <= total);
        assert_eq!(
            fsyncs.load(Ordering::Relaxed),
            groups.load(Ordering::Relaxed),
            "always-policy: exactly one fsync per group"
        );
        // Everything is on disk and verifies.
        drop(store);
        let (_, recovery) = Store::open(&cfg).unwrap();
        assert_eq!(recovery.tail.len() as u64, total);
        assert_eq!(recovery.corrupt_records, 0);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    /// Run `body` on its own thread and fail if it has not finished in
    /// `secs` — a wedged group commit must not hang the suite.
    fn under_watchdog(secs: u64, body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(secs)) {
            Ok(()) => handle.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(handle.join().unwrap_err())
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("watchdog: still running after {secs}s — wedged?")
            }
        }
    }

    #[test]
    fn hook_sees_every_record_once_in_wal_order_before_its_append_returns() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 60;
        let (store, cfg) = temp_store("hook", FsyncPolicy::Never);
        let store = Arc::new(store);
        // seq -> payload, as the hook saw them; and the capacity handed back.
        let hooked = Arc::new(Mutex::new(Vec::<(u64, Vec<u8>)>::new()));
        let returned = Arc::new(AtomicU64::new(0));
        let gc = {
            let (hooked, returned) = (Arc::clone(&hooked), Arc::clone(&returned));
            Arc::new(GroupCommit::new().with_record_hook(move |seq, payload| {
                returned.fetch_add(payload.capacity() as u64, Ordering::Relaxed);
                let mut hooked = lock(&hooked);
                let last = hooked.last().map_or(0, |(seq, _)| *seq);
                assert_eq!(seq, last + 1, "seqs reach the hook once each, in order");
                hooked.push((seq, payload));
            }))
        };
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (store, gc, hooked) =
                    (Arc::clone(&store), Arc::clone(&gc), Arc::clone(&hooked));
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let mut payload = Vec::with_capacity(64);
                        payload.extend_from_slice(&[t as u8, i as u8]);
                        let sent = payload.clone();
                        gc.append(&store, payload).unwrap();
                        assert!(
                            lock(&hooked).iter().any(|(_, p)| *p == sent),
                            "record {t}/{i} returned before the hook saw it"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = THREADS * PER_THREAD;
        let hooked = std::mem::take(&mut *lock(&hooked));
        assert_eq!(hooked.len() as u64, total);
        assert!(
            returned.load(Ordering::Relaxed) >= total * 64,
            "every buffer comes back"
        );
        // The hook saw at each seq the payload the log holds there.
        drop(store);
        let (_, recovery) = Store::open(&cfg).unwrap();
        assert_eq!(recovery.tail.len() as u64, total);
        for (entry, (seq, payload)) in recovery.tail.iter().zip(&hooked) {
            assert_eq!((entry.seq, &entry.payload), (*seq, payload));
        }
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn failed_group_append_runs_no_hook() {
        let (store, cfg) = temp_store("failhook", FsyncPolicy::Never);
        let ran = Arc::new(AtomicU64::new(0));
        let gc = {
            let ran = Arc::clone(&ran);
            GroupCommit::new().with_record_hook(move |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
        };
        // The log opens its first file lazily: without its directory the
        // first append fails, and so does every later one.
        std::fs::remove_dir_all(cfg.dir.join("wal")).unwrap();
        assert!(gc.append(&store, vec![1]).is_err());
        assert!(gc.append(&store, vec![2]).is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(gc.completed(), 0);
        let _ = std::fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn a_panicking_hook_fails_the_log_instead_of_wedging_it() {
        const THREADS: u64 = 8;
        under_watchdog(2, || {
            let (store, cfg) = temp_store("panic", FsyncPolicy::Never);
            let store = Arc::new(store);
            let entered = Arc::new(AtomicU64::new(0));
            let gc = {
                let entered = Arc::clone(&entered);
                Arc::new(GroupCommit::new().with_record_hook(move |seq, _| {
                    if seq == 1 {
                        // Lead until every thread has called `append`, so
                        // the others are queued behind this leader.
                        while entered.load(Ordering::SeqCst) < THREADS {
                            std::thread::yield_now();
                        }
                        panic!("the hook refuses seq {seq}");
                    }
                }))
            };
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (store, gc, entered) =
                        (Arc::clone(&store), Arc::clone(&gc), Arc::clone(&entered));
                    std::thread::spawn(move || {
                        entered.fetch_add(1, Ordering::SeqCst);
                        gc.append(&store, vec![t as u8]).map(|_| ())
                    })
                })
                .collect();
            for h in handles {
                let refused = h
                    .join()
                    .unwrap()
                    .expect_err("no append acks past the panic");
                assert!(refused.to_string().contains("panicked"), "{refused}");
            }
            assert!(gc.append(&store, vec![0]).is_err(), "the failure is sticky");
            let _ = std::fs::remove_dir_all(&cfg.dir);
        });
    }
}
