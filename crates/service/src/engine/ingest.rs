//! The front half of every ingest and the shard table it routes over:
//! shed doomed work, log the batch (WAL, cube), then push it onto the next
//! live shard's ring, rerouting off dead shards and respawning or
//! tombstoning them. Ledger rows `engine.ingest` (log and enqueue, as the
//! caller sees them) and `ring.push_pop` (the ring hand-off to a worker).

use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLockReadGuard};
use std::time::Instant;

use ms_core::{lock, PushError, Ring, ServiceError};

use super::worker::WorkerMsg;
use super::Engine;
use crate::deadline;
use crate::protocol::IngestFrame;

/// One ingest shard in the shard table: its bounded ring, a generation
/// counter so concurrent senders agree on *which* incarnation died (only
/// the first failure against a generation is a death event), and whether a
/// worker is currently consuming the ring. Readers load the table from a
/// [`ms_core::SwapCell`] once per batch; topology changes (death, respawn,
/// drain) clone-and-swap a new table under the engine's `table_write`
/// mutex.
#[derive(Clone)]
pub(super) struct TableSlot {
    pub(super) gen: u64,
    pub(super) ring: Arc<Ring<WorkerMsg>>,
    pub(super) alive: bool,
}

impl Engine {
    /// A recycled frame buffer, from the pool of the shard the next
    /// enqueue will route to when it has one — the worker that decodes the
    /// frame puts it back, so each pool reaches a steady state of its own.
    /// When that pool is dry the others are asked before a buffer is
    /// minted: on few cores a worker's time slice refills its own pool
    /// while its neighbour's drains, and every buffer minted then stays
    /// resident for good.
    pub(super) fn frame_buffer(&self) -> Vec<u8> {
        let shards = self.pools.len();
        let home = self.next_shard.load(Ordering::Relaxed) % shards;
        (0..shards)
            .find_map(|i| self.pools[(home + i) % shards].take())
            .unwrap_or_else(|| self.pools[home].get())
    }

    /// True when no shard has a live worker.
    fn all_shards_dead(&self) -> bool {
        self.table.load().iter().all(|s| !s.alive)
    }

    /// Handle the death of `shard` at generation `gen`: count it once,
    /// respawn (if configured and not shutting down) or tombstone the slot.
    pub(super) fn note_dead_shard(&self, shard: usize, gen: u64) {
        let _topology = lock(&self.table_write);
        let table = self.table.load();
        if table[shard].gen != gen {
            // Another thread already handled this incarnation's death.
            return;
        }
        let ring = Arc::clone(&table[shard].ring);
        self.telemetry.counters.shards_lost.inc();
        self.telemetry
            .event("shard_death", &[("shard", shard as u64), ("gen", gen)]);
        // `shutdown` sets `stopped` before taking `table_write`, so a
        // worker spawned under this lock is guaranteed to be seen (and
        // joined) by the drain.
        let respawned = self.cfg.respawn_lost_shards && !self.stopped.load(Ordering::Acquire) && {
            // Reopen the ring *before* the worker starts: batches queued
            // at the moment of death stay inside and are absorbed by the
            // successor instead of being lost. (A dead ring pops its
            // retained items and then reports drained, so a worker
            // started first would exit immediately.)
            ring.revive();
            match self.spawn_worker(shard, Arc::clone(&ring)) {
                Ok(handle) => {
                    self.telemetry
                        .event("shard_respawn", &[("shard", shard as u64)]);
                    lock(&self.worker_handles).push(handle);
                    true
                }
                // Could not respawn: tombstone instead; ingest keeps
                // rerouting to surviving shards.
                Err(_) => {
                    ring.mark_dead();
                    false
                }
            }
        };
        let mut slots = table.to_vec();
        slots[shard] = TableSlot {
            gen: gen + 1,
            ring: Arc::clone(&ring),
            alive: respawned,
        };
        self.table.swap(slots);
        if !respawned {
            // Drain a tombstoned ring now: its batches are lost either
            // way, and a retained `Flush` ack sender would otherwise keep
            // a flush barrier waiting forever.
            while ring.try_pop().is_some() {}
            self.telemetry.queue_reset(shard);
        }
    }

    /// What [`Engine::ingest`] and [`Engine::try_ingest`] share: encode,
    /// log, enqueue.
    pub(super) fn ingest_items(&self, batch: Vec<u64>, blocking: bool) -> Result<(), ServiceError> {
        if batch.is_empty() {
            return Ok(());
        }
        let frame = IngestFrame::encode(self.frame_buffer(), &batch);
        self.item_pool.put(batch);
        let _pause = self.log_batch(&frame)?;
        self.enqueue(frame, blocking)
    }

    /// Shed doomed work, then take the checkpoint pause lock for read and
    /// log the batch (WAL, cube). The caller enqueues while still holding
    /// the returned guard, so the append and the enqueue land on the same
    /// side of any checkpoint cut.
    pub(super) fn log_batch(
        &self,
        frame: &IngestFrame,
    ) -> Result<Option<RwLockReadGuard<'_, ()>>, ServiceError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(ServiceError::Shutdown);
        }
        // A spent deadline budget means the caller has stopped waiting:
        // appending + enqueueing now is doomed work that only deepens the
        // queues. Shed typed instead.
        if deadline::expired() {
            self.admission.note_deadline_expired();
            return Err(ServiceError::Overloaded {
                retry_after_micros: self.admission.retry_after_micros(),
            });
        }
        // Poison-tolerant, for the same reason as `ms_core::lock`.
        let pause =
            (self.durable.as_ref()).map(|d| d.pause.read().unwrap_or_else(|e| e.into_inner()));
        match (&self.durable, &self.cube) {
            // No WAL to number the batch: the cube numbers it. The fold
            // reads items, so this thread decodes too, into a buffer that
            // goes straight back.
            (None, Some(cube)) => {
                let mut items = self.item_pool.get();
                frame.decode_into(&mut items);
                cube.record(&items);
                self.item_pool.put(items);
            }
            // The group-commit leader folds the logged batch into the
            // cube, if there is one, before the append returns.
            _ => self.append_durable(frame.payload())?,
        }
        Ok(pause)
    }

    /// The enqueue half of every ingest: route to a live shard, rerouting
    /// off dead ones. A full ring blocks (backpressure) when `blocking`,
    /// and otherwise counts the batch as dropped, recycles its buffer and
    /// returns [`ServiceError::Backpressure`]. Recovery replay calls this
    /// directly (the records are already in the WAL).
    pub(super) fn enqueue(&self, frame: IngestFrame, blocking: bool) -> Result<(), ServiceError> {
        let shard_count = self.cfg.shards;
        let counters = &self.telemetry.counters;
        let mut msg = WorkerMsg::Batch(frame, Instant::now());
        let mut failures = 0usize;
        loop {
            if self.stopped.load(Ordering::Acquire) {
                return Err(ServiceError::Shutdown);
            }
            let table = self.table.load();
            let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % shard_count;
            let slot = &table[shard];
            if !slot.alive {
                failures += 1;
                if failures >= shard_count && self.all_shards_dead() {
                    return Err(self.all_shards_lost());
                }
                continue;
            }
            let pushed = match blocking {
                true => slot.ring.push(msg).map_err(PushError::Closed),
                false => slot.ring.try_push(msg),
            };
            match pushed {
                Ok(()) => {
                    counters.batches.inc();
                    self.telemetry.queue_pushed(shard);
                    return Ok(());
                }
                Err(PushError::Full(WorkerMsg::Batch(frame, _))) => {
                    counters.dropped.inc();
                    self.pools[shard].put(frame.into_bytes());
                    return Err(ServiceError::Backpressure);
                }
                Err(PushError::Closed(refused)) => {
                    msg = refused;
                    self.note_dead_shard(shard, slot.gen);
                    counters.retries.inc();
                    failures += 1;
                    if failures >= shard_count.saturating_mul(2) && self.all_shards_dead() {
                        return Err(self.all_shards_lost());
                    }
                }
                Err(PushError::Full(_)) => unreachable!("a push hands back what it was given"),
            }
        }
    }

    /// Total shard loss is the engine's fatal state: dump the flight
    /// recorder (first occurrence only) so the failure ships with a trace.
    fn all_shards_lost(&self) -> ServiceError {
        self.telemetry.event("all_shards_lost", &[]);
        self.telemetry.dump_flight(self.cfg.seed, "all-shards-lost");
        ServiceError::AllShardsLost
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::sync::Mutex;

    use ms_core::Summary;

    use super::*;
    use crate::config::{ServiceConfig, SummaryKind};
    use crate::engine::tests::{durable_cfg, temp_data_dir};
    use crate::fault::{plan_fn, FaultAction};
    use crate::overload::{OverloadConfig, ShedReason};
    use crate::protocol::Request;

    #[test]
    fn try_ingest_counts_drops_when_queues_fill() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.1)
            .shards(1)
            .queue_depth(1);
        let engine = Engine::start(cfg).unwrap();
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for _ in 0..2_000 {
            match engine.try_ingest(vec![1; 512]) {
                Ok(()) => accepted += 1,
                Err(ServiceError::Backpressure) => rejected += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        let m = engine.metrics();
        assert_eq!(m.batches, accepted);
        assert_eq!(m.dropped, rejected);
        engine.shutdown();
        assert_eq!(engine.metrics().updates, accepted * 512);
    }

    #[test]
    fn spent_deadline_sheds_before_logging_on_both_ingest_paths() {
        let dir = temp_data_dir("deadline");
        let engine = Engine::start(durable_cfg(&dir)).unwrap();
        deadline::with_deadline(Some(deadline::absolute(0)), || {
            for attempt in [Engine::ingest, Engine::try_ingest] {
                match attempt(&engine, vec![7; 16]) {
                    Err(ServiceError::Overloaded { .. }) => {}
                    other => panic!("spent deadline must shed typed, got {other:?}"),
                }
            }
        });
        // Doomed work was neither logged nor queued.
        let d = engine.durable.as_ref().unwrap();
        assert_eq!(lock(&d.store).wal.last_seq(), 0);
        assert_eq!(engine.metrics().batches, 0);
        // With budget left both paths log and enqueue as usual.
        deadline::with_deadline(Some(deadline::absolute(60_000_000)), || {
            engine.ingest(vec![7; 16]).unwrap();
            engine.try_ingest(vec![7; 16]).unwrap();
        });
        assert_eq!(lock(&d.store).wal.last_seq(), 2);
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_disabled_degrades_to_plain_allocation_with_counted_misses() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .pool_buffers(0);
        let engine = Engine::start(cfg).unwrap();
        for _ in 0..50 {
            let mut batch = engine.ingest_buffer();
            batch.extend_from_slice(&[7; 100]);
            engine.ingest(batch).unwrap();
        }
        let (reuses, misses, _) = engine.pool_stats();
        assert_eq!(reuses, 0, "a zero-slot pool cannot serve reuses");
        assert!(misses >= 50, "every get must be a counted miss");
        let snap = engine.shutdown();
        assert_eq!(snap.summary.total_weight(), 5_000);
    }

    #[test]
    fn backpressure_recycles_the_rejected_buffer_into_the_pool() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.1)
            .shards(1)
            .queue_depth(1)
            .pool_buffers(4);
        let engine = Engine::start(cfg).unwrap();
        let mut rejected = 0u64;
        for _ in 0..2_000 {
            let mut batch = engine.ingest_buffer();
            batch.extend_from_slice(&[1; 512]);
            match engine.try_ingest(batch) {
                Ok(()) => {}
                Err(ServiceError::Backpressure) => rejected += 1,
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(rejected > 0, "queue never filled");
        // A rejected batch hands its buffer straight back to the pool, so
        // nearly every get is a reuse; if rejection dropped buffers on the
        // floor instead, every get after the bootstrap would be a miss.
        let (reuses, misses, _) = engine.pool_stats();
        assert!(
            misses < 200,
            "rejected buffers were not recycled (misses={misses}, rejected={rejected})"
        );
        assert!(reuses > 1_800, "pool served {reuses} of 2000 gets");
        engine.shutdown();
    }

    #[test]
    fn per_shard_pools_serve_a_multi_shard_ingest_loop() {
        // Default pool_buffers (512) gives each shard 128 slots — enough
        // to cover a full ring (queue_depth 64) of in-flight batches.
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05).shards(4);
        let engine = Engine::start(cfg).unwrap();
        for _ in 0..2_000 {
            let mut batch = engine.ingest_buffer();
            batch.extend_from_slice(&[3; 64]);
            engine.ingest(batch).unwrap();
        }
        engine.flush().unwrap();
        let per_shard = engine.shard_pool_stats();
        assert_eq!(per_shard.len(), 4);
        let (reuses, misses, discards) = engine.pool_stats();
        let summed = per_shard
            .iter()
            .fold((0, 0, 0), |(r, m, d), s| (r + s.0, m + s.1, d + s.2));
        assert_eq!((reuses, misses, discards), summed);
        // Round-robin ingest keeps each buffer circulating within its own
        // shard's pool, so the large majority of gets are reuses (the
        // misses are the warm-up allocations while batches are in flight).
        assert!(
            reuses > 1_200,
            "per-shard pools served only {reuses} of 2000 gets (misses={misses})"
        );
        for (shard, (r, m, _)) in per_shard.iter().enumerate() {
            assert!(r + m > 0, "shard {shard} pool saw no traffic");
        }
        engine.shutdown();
    }
    #[test]
    fn dead_shard_is_detected_rerouted_and_respawned() {
        // Shard 0 dies at its third batch; the engine must keep accepting
        // every batch (rerouting + respawning) and lose at most the dead
        // worker's pending delta and queued batches.
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .delta_updates(50)
            .queue_depth(4)
            .fault_plan(plan_fn(|shard, idx| {
                if shard == 0 && idx == 2 {
                    FaultAction::Die
                } else {
                    FaultAction::Continue
                }
            }));
        let engine = Engine::start(cfg).unwrap();
        let mut accepted = 0u64;
        for _ in 0..200 {
            engine.ingest(vec![3; 10]).unwrap();
            accepted += 10;
        }
        let snap = engine.shutdown();
        let m = engine.metrics();
        assert!(m.shards_lost >= 1, "death not detected: {m:?}");
        let surviving = snap.summary.total_weight();
        assert!(surviving <= accepted);
        // The respawned shard keeps absorbing, so the loss is bounded by
        // what one incarnation could hold: its pending delta (< 50 updates
        // per hand-off threshold) plus queued batches (4 × 10) plus the
        // batch it died on.
        let max_loss = 50 + 4 * 10 + 10;
        assert!(
            accepted - surviving <= max_loss,
            "lost {} > {max_loss}",
            accepted - surviving
        );
    }

    #[test]
    fn respawn_disabled_tombstones_the_shard() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .respawn_lost_shards(false)
            .fault_plan(plan_fn(|shard, idx| {
                if shard == 0 && idx == 0 {
                    FaultAction::Die
                } else {
                    FaultAction::Continue
                }
            }));
        let engine = Engine::start(cfg).unwrap();
        for _ in 0..50 {
            engine.ingest(vec![1; 4]).unwrap();
        }
        // Give the dying worker time to process its first batch, then keep
        // ingesting: every batch must land on the surviving shard.
        std::thread::sleep(std::time::Duration::from_millis(20));
        for _ in 0..50 {
            engine.ingest(vec![1; 4]).unwrap();
        }
        let m = engine.metrics();
        engine.shutdown();
        assert_eq!(m.shards_lost, 1);
        assert!(m.retries >= 1);
    }

    #[test]
    fn all_shards_dead_is_a_typed_error() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(1)
            .respawn_lost_shards(false)
            .fault_plan(plan_fn(|_, idx| {
                if idx == 0 {
                    FaultAction::Die
                } else {
                    FaultAction::Continue
                }
            }));
        let engine = Engine::start(cfg).unwrap();
        // First batch reaches the queue; the worker dies on it.
        engine.ingest(vec![1]).unwrap();
        // Eventually every send fails and the engine reports total loss.
        let mut saw_all_lost = false;
        for _ in 0..1_000 {
            match engine.ingest(vec![2]) {
                Ok(()) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Err(ServiceError::AllShardsLost) => {
                    saw_all_lost = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw_all_lost);
        assert_eq!(engine.metrics().shards_lost, 1);
        // Queries still answer from the last published snapshot.
        let _ = engine.snapshot();
        engine.shutdown();
    }
    #[test]
    fn all_shards_lost_dumps_seed_stamped_flight_recording() {
        let dir = std::env::temp_dir().join("ms-engine-flight-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("MS_FLIGHT_DIR", &dir);
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(1)
            .seed(0xDEAD_BEEF)
            .respawn_lost_shards(false)
            .fault_plan(crate::fault::plan_fn(|_, idx| {
                if idx == 0 {
                    FaultAction::Die
                } else {
                    FaultAction::Continue
                }
            }));
        let engine = Engine::start(cfg).unwrap();
        engine.ingest(vec![1]).unwrap();
        let mut lost = false;
        for _ in 0..1_000 {
            match engine.ingest(vec![2]) {
                Ok(()) => std::thread::sleep(std::time::Duration::from_millis(1)),
                Err(ServiceError::AllShardsLost) => {
                    lost = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        std::env::remove_var("MS_FLIGHT_DIR");
        assert!(lost);
        let dump = dir.join("flight-all-shards-lost-0xdeadbeef.json");
        let text = std::fs::read_to_string(&dump)
            .unwrap_or_else(|e| panic!("missing flight dump {}: {e}", dump.display()));
        assert!(text.contains("\"seed\": \"0xdeadbeef\""), "{text}");
        assert!(text.contains("worker_die"), "{text}");
        assert!(text.contains("all_shards_lost"), "{text}");
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    /// Watermark shedding reads the queue-depth gauges, so they must move
    /// with telemetry off too: three batches queued behind a held worker
    /// put a 1-shard, 4-slot engine at pressure 3/4, past the query
    /// watermark of 1/2.
    #[test]
    fn queue_pressure_sheds_queries_with_telemetry_off() {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let gate = Mutex::new((entered_tx, release_rx));
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(1)
            .queue_depth(4)
            .telemetry(false)
            .overload(OverloadConfig::default().shed_watermark(0.5))
            .fault_plan(plan_fn(move |_, idx| {
                if idx == 0 {
                    let (entered, release) = &*lock(&gate);
                    let _ = entered.send(());
                    let _ = release.recv();
                }
                FaultAction::Continue
            }));
        let engine = Engine::start(cfg).unwrap();
        engine.ingest(vec![1; 8]).unwrap();
        // The worker has popped batch 0 and holds it.
        entered_rx.recv().unwrap();
        for _ in 0..3 {
            engine.ingest(vec![1; 8]).unwrap();
        }
        let admission = engine.admission();
        assert_eq!(admission.pressure(), 0.75);
        let conn = Arc::new(AtomicU64::new(0));
        let point = Request::Point(1).opcode();
        assert_eq!(
            admission.try_admit(point, &conn).err(),
            Some(ShedReason::Pressure)
        );
        release_tx.send(()).unwrap();
        assert_eq!(engine.shutdown().summary.total_weight(), 32);
    }
}
