//! The compactor: one thread folds the deltas workers hand off into the
//! global summary, in whatever order they arrive (Definition 1), and
//! publishes each fold as the next immutable [`Snapshot`]. Also the one
//! barrier flush, checkpoint and shutdown share. Ledger rows
//! `compactor.merge_many` and `swap.publish`.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use ms_core::{ServiceError, Summary};

use super::{Engine, Snapshot};
use crate::summary::{MergeLineage, ShardSummary};
use crate::telemetry::timed;

/// How many backlogged deltas one compaction pass will fuse. Under steady
/// load the channel is empty and each delta is folded as it arrives;
/// under backlog the linear families (Count-Min) fold the whole batch in a
/// single pass over the global table.
const MAX_COMPACT_FUSE: usize = 16;

pub(super) enum CompactMsg {
    /// A delta handed off by a worker.
    Delta(ShardSummary),
    /// Publish the global summary and hand that snapshot back: it holds
    /// every delta queued before this message. By Definition 1 the merged
    /// summary is also the checkpoint.
    Publish(Sender<Arc<Snapshot>>),
    /// Shut the compactor down. The engine caches a plain `Sender` (no
    /// lock on the hand-off path), so the channel never disconnects by
    /// itself; this sentinel is the explicit stop signal.
    Stop,
}

impl Engine {
    /// The barrier flush, checkpoint and shutdown share: every live
    /// worker hands its delta to the compactor (after a shutdown drain
    /// none is live and the deltas are already queued), then a publish is
    /// queued behind them. The receiver yields that snapshot.
    ///
    /// Ordering argument: each worker pushes its delta onto the compactor
    /// queue *before* acking, and the publish is enqueued after all acks,
    /// so it drains behind every delta.
    pub(super) fn barrier(&self) -> Result<Receiver<Arc<Snapshot>>, ServiceError> {
        self.flush_workers();
        let (tx, rx) = mpsc::channel();
        self.compact_tx
            .send(CompactMsg::Publish(tx))
            .map_err(|_| ServiceError::Shutdown)?;
        Ok(rx)
    }

    pub(super) fn spawn_compactor(
        &self,
        rx: Receiver<CompactMsg>,
    ) -> std::io::Result<JoinHandle<()>> {
        let engine = self.arc();
        std::thread::Builder::new()
            .name("ms-compactor".to_string())
            .spawn(move || engine.run_compactor(rx))
    }

    fn run_compactor(&self, rx: Receiver<CompactMsg>) {
        let cfg = &self.cfg;
        let trace = self.telemetry.recorder().register("compactor");
        let mut global = ShardSummary::new(cfg, usize::MAX);
        let mut merge_index = 0u64;
        // Lineage mirrors the left-deep fold below: after k deltas,
        // merges == depth == k and weight == global.total_weight().
        let mut lineage = MergeLineage::leaf(global.total_weight());
        let mut carried: Option<CompactMsg> = None;
        loop {
            let msg = match carried.take() {
                Some(msg) => msg,
                None => match rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                },
            };
            match msg {
                CompactMsg::Delta(delta) => {
                    // Drain whatever backlog is already queued, stopping
                    // at the first non-delta message so barriers keep
                    // their channel ordering.
                    let mut batch = vec![delta];
                    while batch.len() < MAX_COMPACT_FUSE {
                        match rx.try_recv() {
                            Ok(CompactMsg::Delta(delta)) => batch.push(delta),
                            Ok(other) => {
                                carried = Some(other);
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    let fused = batch.len() as u64;
                    let mut weights = Vec::with_capacity(batch.len());
                    for delta in &batch {
                        let stall_ms = cfg.fault_plan.compactor_merge(merge_index);
                        merge_index += 1;
                        if stall_ms > 0 {
                            trace.event("stall", &[("ms", stall_ms)]);
                            std::thread::sleep(std::time::Duration::from_millis(stall_ms));
                        }
                        weights.push(delta.total_weight());
                    }
                    let mut span = ms_obs::span!(trace, "compact", merge_index = merge_index);
                    if fused > 1 {
                        span.field("fused", fused);
                    }
                    // In-place: the global summary's storage is reused
                    // across merges instead of being cloned per delta;
                    // linear families fold the whole batch in one pass.
                    let (results, micros) = timed(|| global.merge_in_place_many(batch));
                    let mut any_merged = false;
                    for (result, weight) in results.iter().zip(weights) {
                        if result.is_ok() {
                            // Deltas come from ShardSummary::new under the
                            // same config, so kinds/ε always match; a
                            // failure here would be an engine bug and
                            // leaves `global` untouched for that delta.
                            lineage.absorb(MergeLineage::leaf(weight));
                            self.telemetry.counters.merges.inc();
                            any_merged = true;
                        }
                    }
                    if any_merged {
                        // The compactor folds deltas left-deep, so the
                        // snapshot's merge tree is `merge_index` deep.
                        self.telemetry.record_compact_merge(micros, merge_index);
                        self.publish(global.clone(), lineage);
                        span.field("epoch", self.snapshot().epoch);
                    }
                }
                CompactMsg::Publish(ack) => {
                    self.publish(global.clone(), lineage);
                    // Only this thread publishes, so the current snapshot
                    // is the one just published.
                    let _ = ack.send(self.snapshot());
                }
                CompactMsg::Stop => break,
            }
        }
    }

    /// Publish the next epoch. Only the compactor thread calls this, so
    /// the snapshot read here is still current when `swap` replaces it.
    fn publish(&self, summary: ShardSummary, lineage: MergeLineage) {
        let last = self.snapshot.load();
        let epoch = last.epoch + 1;
        let since_last = last.published_at.elapsed().as_micros() as u64;
        drop(last);
        self.snapshot.swap(Snapshot {
            epoch,
            summary,
            lineage,
            published_at: Instant::now(),
        });
        self.telemetry.record_publish(epoch, since_last);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    use super::*;
    use crate::config::{ServiceConfig, SummaryKind};

    #[test]
    fn epochs_advance_and_snapshots_are_immutable() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .delta_updates(100);
        let engine = Engine::start(cfg).unwrap();
        engine.ingest((0..500).collect()).unwrap();
        engine.flush().unwrap();
        let early = engine.snapshot();
        engine.ingest((0..500).collect()).unwrap();
        engine.flush().unwrap();
        let late = engine.snapshot();
        assert!(late.epoch > early.epoch);
        // The old snapshot still answers from its own epoch.
        assert_eq!(early.summary.total_weight(), 500);
        assert_eq!(late.summary.total_weight(), 1000);
        engine.shutdown();
    }
    #[test]
    fn compactor_stall_delays_but_preserves_data() {
        use std::sync::atomic::AtomicU64 as A;
        #[derive(Debug, Default)]
        struct SlowCompactor(A);
        impl crate::fault::FaultPlan for SlowCompactor {
            fn compactor_merge(&self, _merge_index: u64) -> u64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                1
            }
        }
        let plan = Arc::new(SlowCompactor::default());
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(2)
            .delta_updates(100)
            .fault_plan(Arc::clone(&plan) as Arc<dyn crate::fault::FaultPlan>);
        let engine = Engine::start(cfg).unwrap();
        for _ in 0..20 {
            engine.ingest(vec![5; 100]).unwrap();
        }
        let snap = engine.shutdown();
        assert_eq!(snap.summary.total_weight(), 2000);
        assert!(plan.0.load(Ordering::Relaxed) >= 1, "stall never consulted");
    }
}
