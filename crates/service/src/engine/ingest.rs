//! The whole ingest path, on the thread that received the batch: shed
//! doomed work, then one of two absorbs, picked by whether the engine has
//! a cube. Without one, log the batch to the WAL (if any) and absorb it
//! into the next shard's delta under that shard's lock, handing a full
//! delta to the compactor in exchange for a spare. With one, log and fold:
//! the cube's fold is the absorb, and the engine has no shards. Ledger
//! rows `engine.ingest` (the path as the caller sees it) and
//! `summary.update_batch` (the shard absorb).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ms_core::{lock, ServiceError, Summary};

use super::compactor::CompactMsg;
use super::Engine;
use crate::config::ServiceConfig;
use crate::cube::SegmentCube;
use crate::deadline;
use crate::fault::FaultAction;
use crate::summary::ShardSummary;
use crate::telemetry::timed;

/// One ingest shard. Lock order: `live`, then `spare`; the compactor
/// takes only `spare`.
pub(super) struct Shard {
    live: Mutex<Live>,
    /// A fresh delta the compactor built for the next hand-off, so the
    /// ingesting thread never builds one in steady state.
    spare: Mutex<Option<ShardSummary>>,
}

/// What the shard lock guards.
struct Live {
    /// The delta absorbs land in; its weight is what has not been handed
    /// off yet.
    delta: ShardSummary,
    /// Batches this shard has been given, lost ones included (fault plans
    /// key off it).
    batches: u64,
}

impl Shard {
    pub(super) fn new(cfg: &ServiceConfig, shard: usize) -> Shard {
        Shard {
            live: Mutex::new(Live {
                delta: ShardSummary::new(cfg, shard),
                batches: 0,
            }),
            spare: Mutex::new(Some(ShardSummary::new(cfg, shard))),
        }
    }

    /// Put a fresh delta in the spare slot if the last hand-off took it.
    /// Only the compactor calls this, and only ingest empties the slot.
    pub(super) fn ready_spare(&self, cfg: &ServiceConfig, shard: usize) {
        if lock(&self.spare).is_none() {
            let fresh = ShardSummary::new(cfg, shard);
            *lock(&self.spare) = Some(fresh);
        }
    }
}

impl Engine {
    /// What [`Engine::ingest`] and [`Engine::ingest_frame`] share once the
    /// batch is items: shed, then log and absorb — or, on a cube server,
    /// log and fold. `received` is the batch as a client sent it, logged
    /// verbatim; an in-process batch is encoded for the WAL.
    pub(super) fn ingest_items(
        &self,
        items: &[u64],
        received: Option<&[u8]>,
    ) -> Result<(), ServiceError> {
        if items.is_empty() {
            return Ok(());
        }
        // A spent deadline budget means the caller has stopped waiting:
        // logging and absorbing now is doomed work. Shed typed instead.
        if deadline::expired() {
            self.admission.note_deadline_expired();
            return Err(ServiceError::Overloaded {
                retry_after_micros: self.admission.retry_after_micros(),
            });
        }
        {
            // Poison-tolerant, for the same reason as `ms_core::lock`.
            let _pause = self.pause.read().unwrap_or_else(|e| e.into_inner());
            if self.stopped.load(Ordering::Acquire) {
                return Err(ServiceError::Shutdown);
            }
            match &self.cube {
                Some(cube) => self.log_and_fold(cube, items, received)?,
                None => {
                    self.append_durable(items, received)?;
                    self.absorb(items);
                }
            }
        }
        // Hand the core to whatever became runnable while the batch was
        // absorbed — on a busy host, other connections' requests — outside
        // every lock. One system call when nothing else is runnable.
        std::thread::yield_now();
        Ok(())
    }

    /// A cube server's absorb: log the batch to the WAL, whose
    /// group-commit leader folds it into `cube` before the append returns,
    /// or, with no WAL to number it, fold it straight into `cube`, which
    /// numbers it. It counts what a shard absorb counts. The cube server's
    /// one queue-depth gauge counts the batch while it waits for or is
    /// inside the log and fold, so the overload plane sees the load.
    fn log_and_fold(
        &self,
        cube: &SegmentCube,
        items: &[u64],
        received: Option<&[u8]>,
    ) -> Result<(), ServiceError> {
        let telemetry = &self.telemetry;
        telemetry.queue_pushed(0);
        let (logged, micros) = timed(|| match self.durable {
            Some(_) => self.append_durable(items, received),
            None => {
                cube.record(items);
                Ok(())
            }
        });
        telemetry.queue_popped(0);
        logged?;
        telemetry.record_ingest_batch(0, micros);
        self.count_batch(items);
        Ok(())
    }

    /// Count a batch the engine's summary took in: ingested, or replayed
    /// by recovery. Ground truth observes exactly what the summary holds.
    pub(super) fn count_batch(&self, items: &[u64]) {
        let counters = &self.telemetry.counters;
        counters.updates.add(items.len() as u64);
        counters.batches.inc();
        self.audit.observe(items);
    }

    /// Absorb `items` into the next shard's delta under its lock, and hand
    /// the delta off once it holds `delta_updates` updates. A panic inside
    /// the absorb (or an injected [`FaultAction::Die`]) loses the shard's
    /// delta and this batch: both are counted in `shards_lost` and a fresh
    /// delta takes their place.
    fn absorb(&self, items: &[u64]) {
        let (cfg, telemetry) = (&self.cfg, &self.telemetry);
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        // The queue-depth gauge counts batches waiting for or inside this
        // shard's absorb: the overload plane's pressure signal.
        telemetry.queue_pushed(shard);
        let waiting = Instant::now();
        let mut live = lock(&self.shards[shard].live);
        telemetry.record_queue_wait(shard, waiting.elapsed().as_micros() as u64);
        let index = live.batches;
        live.batches += 1;
        let delta = &mut live.delta;
        let (absorbed, micros) = timed(|| {
            catch_unwind(AssertUnwindSafe(|| {
                match cfg.fault_plan.absorb_batch(shard, index) {
                    FaultAction::Die => return false,
                    FaultAction::StallMs(ms) => std::thread::sleep(Duration::from_millis(ms)),
                    FaultAction::Continue => {}
                }
                delta.update_batch(items);
                true
            }))
            .unwrap_or(false)
        });
        if absorbed {
            telemetry.record_ingest_batch(shard, micros);
            self.count_batch(items);
            if delta.total_weight() >= cfg.delta_updates as u64 {
                self.hand_off(shard, delta);
            }
        } else {
            telemetry.counters.shards_lost.inc();
            telemetry.event(
                "shard_lost",
                &[
                    ("shard", shard as u64),
                    ("batch_index", index),
                    ("pending", delta.total_weight()),
                ],
            );
            *delta = ShardSummary::new(cfg, shard);
        }
        drop(live);
        telemetry.queue_popped(shard);
    }

    /// Swap `shard`'s delta (the caller holds its lock) for the spare and
    /// send the full one to the compactor. The channel is bounded, so a
    /// compactor that falls behind holds this shard back.
    pub(super) fn hand_off(&self, shard: usize, delta: &mut ShardSummary) {
        let spare = lock(&self.shards[shard].spare).take();
        let fresh = spare.unwrap_or_else(|| ShardSummary::new(&self.cfg, shard));
        let full = std::mem::replace(delta, fresh);
        let _ = self.compact_tx.send(CompactMsg::Delta(Some(shard), full));
    }

    /// Hand off every shard's non-empty delta: the first half of the
    /// barrier.
    pub(super) fn hand_off_all(&self) {
        for (shard, s) in self.shards.iter().enumerate() {
            let mut live = lock(&s.live);
            if live.delta.total_weight() > 0 {
                self.hand_off(shard, &mut live.delta);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;
    use std::sync::{mpsc, Arc};

    use super::*;
    use crate::config::SummaryKind;
    use crate::engine::tests::{durable_cfg, temp_data_dir};
    use crate::fault::plan_fn;
    use crate::overload::{OverloadConfig, ShedReason};
    use crate::protocol::{IngestFrame, Request};

    #[test]
    fn spent_deadline_sheds_before_logging_on_both_ingest_paths() {
        let dir = temp_data_dir("deadline");
        let engine = Engine::start(durable_cfg(&dir)).unwrap();
        let frame = IngestFrame::encode(Vec::new(), &[7; 16]);
        deadline::with_deadline(Some(deadline::absolute(0)), || {
            for outcome in [engine.ingest(vec![7; 16]), engine.ingest_frame(&frame)] {
                match outcome {
                    Err(ServiceError::Overloaded { .. }) => {}
                    other => panic!("spent deadline must shed typed, got {other:?}"),
                }
            }
        });
        // Doomed work was neither logged nor absorbed.
        let d = engine.durable.as_ref().unwrap();
        assert_eq!(lock(&d.store).wal.last_seq(), 0);
        assert_eq!(engine.metrics().batches, 0);
        // With budget left both paths log and absorb as usual.
        deadline::with_deadline(Some(deadline::absolute(60_000_000)), || {
            engine.ingest(vec![7; 16]).unwrap();
            engine.ingest_frame(&frame).unwrap();
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
    fn ingest_loops_recycle_their_item_buffers() {
        // Frames and in-process batches alike are absorbed on the calling
        // thread, so one buffer circulates: only the first get misses.
        let engine = Engine::start(ServiceConfig::new(SummaryKind::Mg, 0.05).shards(4)).unwrap();
        let frame = IngestFrame::encode(Vec::new(), &[4; 64]);
        for _ in 0..1_000 {
            let mut batch = engine.ingest_buffer();
            batch.extend_from_slice(&[3; 64]);
            engine.ingest(batch).unwrap();
            engine.ingest_frame(&frame).unwrap();
        }
        assert_eq!(engine.pool_stats(), (1_999, 1, 0));
        assert_eq!(engine.shutdown().summary.total_weight(), 2_000 * 64);
    }

    #[test]
    fn failed_absorb_loses_only_its_shards_delta() {
        // One thread ingests round-robin, so shard 0 is given batches 0, 2
        // and 4; it fails on the third, holding two batches of 10.
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .delta_updates(50)
            .fault_plan(plan_fn(|shard, idx| {
                if shard == 0 && idx == 2 {
                    FaultAction::Die
                } else {
                    FaultAction::Continue
                }
            }));
        let engine = Engine::start(cfg).unwrap();
        for _ in 0..200 {
            engine.ingest(vec![3; 10]).unwrap();
        }
        let snap = engine.shutdown();
        let m = engine.metrics();
        assert_eq!(m.shards_lost, 1, "{m:?}");
        assert_eq!(snap.summary.total_weight(), 2_000 - 30);
        assert_eq!(m.updates, 2_000 - 10, "the failed batch is never counted");
    }

    #[test]
    fn a_panicking_absorb_is_caught_and_the_shard_keeps_absorbing() {
        let cfg = ServiceConfig::new(SummaryKind::CountMin, 0.05)
            .shards(1)
            .fault_plan(plan_fn(|_, idx| {
                assert!(idx != 3, "injected panic inside an absorb");
                FaultAction::Continue
            }));
        let engine = Engine::start(cfg).unwrap();
        for _ in 0..10 {
            engine.ingest(vec![5; 4]).unwrap();
        }
        let snap = engine.shutdown();
        assert_eq!(engine.metrics().shards_lost, 1);
        // Batches 0–2 went with the delta, batch 3 with the panic.
        assert_eq!(snap.summary.point(5), Some(6 * 4));
    }

    /// Watermark shedding reads the queue-depth gauges, so they must move
    /// with telemetry off too: one absorb held inside a stalled fault plan
    /// and two ingests waiting for the shard lock put a 1-shard engine of
    /// depth 4 at pressure 3/4, past the query watermark of 1/2.
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
        let ingest = || {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.ingest(vec![1; 8]).unwrap())
        };
        let held = ingest();
        entered_rx.recv().unwrap();
        let waiting = [ingest(), ingest()];
        let admission = engine.admission();
        while admission.pressure() < 0.75 {
            std::thread::yield_now();
        }
        assert_eq!(admission.pressure(), 0.75);
        let conn = Arc::new(AtomicU64::new(0));
        let point = Request::Point(1).opcode();
        assert_eq!(
            admission.try_admit(point, &conn).err(),
            Some(ShedReason::Pressure)
        );
        release_tx.send(()).unwrap();
        for t in waiting.into_iter().chain([held]) {
            t.join().unwrap();
        }
        assert_eq!(admission.pressure(), 0.0);
        assert_eq!(engine.shutdown().summary.total_weight(), 24);
    }
}
