//! The shard workers: each pops batches off its ring, decodes them into
//! its own scratch and absorbs them into a thread-local delta, which it
//! hands to the compactor every `delta_updates` updates, on a flush and
//! when its ring drains. Also the two ways the engine waits on workers:
//! the flush handshake and the shutdown drain. Ledger row
//! `summary.update_batch`.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use ms_core::{lock, Ring};

use super::compactor::CompactMsg;
use super::ingest::TableSlot;
use super::Engine;
use crate::fault::FaultAction;
use crate::protocol::IngestFrame;
use crate::summary::ShardSummary;
use crate::telemetry::timed;

/// What a shard ring carries.
pub(super) enum WorkerMsg {
    /// A batch, still encoded, plus its enqueue time (for queue-wait
    /// histograms).
    Batch(IngestFrame, Instant),
    /// Hand the delta to the compactor now, then ack.
    Flush(Sender<()>),
}

/// Marks the worker's ring dead if the worker exits without finishing a
/// clean drain — an injected death or a panic inside a summary. Producers
/// then get `Closed` (and reroute) instead of blocking forever, and the
/// engine revives the ring for a respawned successor.
struct RingGuard {
    ring: Arc<Ring<WorkerMsg>>,
    clean: bool,
}

impl Drop for RingGuard {
    fn drop(&mut self) {
        if !self.clean {
            self.ring.mark_dead();
        }
    }
}

impl Engine {
    /// Start the worker for `shard` on `ring`: [`Engine::start`] calls
    /// this for every shard, and a dead shard's respawn for its successor.
    pub(super) fn spawn_worker(
        &self,
        shard: usize,
        ring: Arc<Ring<WorkerMsg>>,
    ) -> std::io::Result<JoinHandle<()>> {
        let engine = self.arc();
        std::thread::Builder::new()
            .name(format!("ms-worker-{shard}"))
            .spawn(move || engine.run_worker(shard, ring))
    }

    fn run_worker(&self, shard: usize, ring: Arc<Ring<WorkerMsg>>) {
        let (cfg, telemetry) = (&self.cfg, &self.telemetry);
        let trace = telemetry.recorder().register(&format!("worker-{shard}"));
        let mut sentinel = RingGuard {
            ring: Arc::clone(&ring),
            clean: false,
        };
        let mut delta = ShardSummary::new(cfg, shard);
        let mut pending = 0usize;
        // The one place a batch becomes items: this worker's scratch.
        let mut items: Vec<u64> = Vec::new();
        let hand_off = |delta: &mut ShardSummary, pending: &mut usize| {
            if *pending > 0 {
                let full = std::mem::replace(delta, ShardSummary::new(cfg, shard));
                let _ = self.compact_tx.send(CompactMsg::Delta(full));
                *pending = 0;
            }
        };
        while let Some(msg) = ring.pop_wait() {
            match msg {
                WorkerMsg::Batch(frame, enqueued) => {
                    telemetry.queue_popped(shard);
                    telemetry.record_queue_wait(shard, enqueued.elapsed().as_micros() as u64);
                    let index = self.batch_indices[shard].fetch_add(1, Ordering::Relaxed);
                    match cfg.fault_plan.worker_batch(shard, index) {
                        FaultAction::Continue => {}
                        FaultAction::StallMs(ms) => {
                            trace.event("stall", &[("ms", ms)]);
                            std::thread::sleep(std::time::Duration::from_millis(ms));
                        }
                        FaultAction::Die => {
                            // Crash semantics: the pending delta and the
                            // batch in hand are lost; deltas already
                            // handed off survive in the global summary,
                            // and batches still on the ring survive for a
                            // respawned successor.
                            trace.event(
                                "worker_die",
                                &[("batch_index", index), ("pending", pending as u64)],
                            );
                            return;
                        }
                    }
                    items.clear();
                    frame.decode_into(&mut items);
                    // The decoded frame's buffer goes back to the pool for
                    // the next frame off a socket.
                    self.pools[shard].put(frame.into_bytes());
                    telemetry.counters.updates.add(items.len() as u64);
                    // Ground truth observes exactly what the delta absorbs:
                    // dropped or fault-killed batches reach neither side of
                    // the accuracy comparison.
                    self.audit.observe(&items);
                    pending += items.len();
                    // Batched absorb: Count-Min goes through the
                    // hash-then-update kernel, other families through
                    // their (order-preserving) per-item loops.
                    let (_, micros) = timed(|| delta.update_batch(&items));
                    telemetry.record_ingest_batch(shard, micros);
                    // Hand the core to whatever became runnable while the
                    // batch was absorbed — on a busy host, the connection
                    // threads answering requests — before the next batch:
                    // a request should not queue behind back-to-back
                    // worker batches. One system call when nothing else is
                    // runnable.
                    std::thread::yield_now();
                    if pending >= cfg.delta_updates {
                        let handed = pending as u64;
                        let (_, micros) = timed(|| hand_off(&mut delta, &mut pending));
                        trace.event("hand_off", &[("updates", handed), ("micros", micros)]);
                    }
                }
                WorkerMsg::Flush(ack) => {
                    hand_off(&mut delta, &mut pending);
                    let _ = ack.send(());
                }
            }
        }
        // The ring closed and drained: everything that was ever acked onto
        // this shard — including pushes that were in flight when the close
        // landed — has been absorbed above. Hand off the final delta;
        // shutdown publishes it.
        hand_off(&mut delta, &mut pending);
        sentinel.clean = true;
    }

    /// Make every live worker hand its delta to the compactor and wait for
    /// the acks. Dead shards are skipped (their loss is already accounted).
    pub(super) fn flush_workers(&self) {
        let (ack_tx, ack_rx) = mpsc::channel();
        let mut waiting = 0;
        let table = self.table.load();
        for (shard, slot) in table.iter().enumerate().filter(|(_, s)| s.alive) {
            match slot.ring.push(WorkerMsg::Flush(ack_tx.clone())) {
                Ok(()) => waiting += 1,
                Err(_) => self.note_dead_shard(shard, slot.gen),
            }
        }
        drop(ack_tx);
        // A worker can die *after* our Flush landed on its ring; the ring
        // then retains the message (and its ack sender) for a successor.
        // Poll for unnoticed deaths while waiting so the respawn (which
        // acks the retained Flush) or the tombstone drain (which drops
        // it, disconnecting the channel) releases us.
        let mut received = 0;
        while received < waiting {
            match ack_rx.recv_timeout(std::time::Duration::from_millis(1)) {
                Ok(()) => received += 1,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    for (shard, slot) in self.table.load().iter().enumerate() {
                        if slot.alive && slot.ring.is_dead() {
                            self.note_dead_shard(shard, slot.gen);
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Close every worker ring and join the workers. Each worker drains
    /// its remaining queued batches and hands off its delta when its ring
    /// reports empty-and-closed.
    pub(super) fn drain_workers(&self) {
        {
            let _topology = lock(&self.table_write);
            // Bump every generation while closing, so a racing
            // `note_dead_shard` against the old incarnations mismatches
            // and does not count shutdown as shard deaths.
            let table = self.table.load();
            self.table.swap(
                table
                    .iter()
                    .map(|s| TableSlot {
                        gen: s.gen + 1,
                        ring: Arc::clone(&s.ring),
                        alive: false,
                    })
                    .collect(),
            );
            for slot in table.iter() {
                slot.ring.close();
            }
        }
        for handle in lock(&self.worker_handles).drain(..) {
            let _ = handle.join();
        }
    }
}
