//! The compactor: one thread folds the parts it is handed into the global
//! summary for good, in the order they arrive (Definition 1), and
//! publishes each fold as the next immutable [`Snapshot`]. A part is a
//! piece of the recovered state (a checkpoint part, or the replayed WAL
//! tail), a shard's full delta, after which the compactor builds that
//! shard's next spare, or, on a cube server, a sealed segment's family
//! ([`crate::cube`]). A cube server also sends the open segment's family
//! as a view, which each publish merges into a copy of the global summary
//! and the next view replaces. Also the one barrier flush, checkpoint and
//! shutdown share. Ledger rows `compactor.merge_many` and `swap.publish`.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use ms_core::{ServiceError, Summary};

use super::{Engine, Snapshot};
use crate::summary::{MergeLineage, ShardSummary};
use crate::telemetry::timed;

/// How many backlogged parts one compaction pass will fuse. Under steady
/// load the channel is empty and each part is folded as it arrives;
/// under backlog the linear families (Count-Min) fold the whole batch in a
/// single pass over the global table.
const MAX_COMPACT_FUSE: usize = 16;

/// Bound of the compact channel: parts, views and barrier messages in
/// flight to the compactor before a sender waits for it.
pub(super) const HANDOFF_SLOTS: usize = 16;

pub(crate) enum CompactMsg {
    /// A part to fold for good: a delta handed off by shard `Some(s)`,
    /// whose spare it took; or (`None`) a part of the recovered state, or
    /// the family of a segment the cube sealed, which also retires the
    /// open view.
    Delta(Option<usize>, ShardSummary),
    /// The cube's open segment's family as of its last fold: every
    /// publish until the next view or seal merges it in.
    View(ShardSummary),
    /// Publish the global summary and hand that snapshot back: it holds
    /// every part and view queued before this message. By Definition 1
    /// the merged summary is also the checkpoint.
    Publish(Sender<Arc<Snapshot>>),
    /// Shut the compactor down. Senders are plain cached clones (no lock
    /// on the hand-off path), so the channel need not disconnect by
    /// itself; this sentinel is the explicit stop signal.
    Stop,
}

/// What the compactor thread folds into and publishes from.
struct Compaction {
    global: ShardSummary,
    /// Mirrors the left-deep fold: after k parts, merges == depth == k
    /// and weight == global.total_weight().
    lineage: MergeLineage,
    /// The cube's open view, if one is current.
    view: Option<ShardSummary>,
    merge_index: u64,
    trace: ms_obs::TraceHandle,
}

impl Engine {
    /// The barrier flush, checkpoint and shutdown share: every shard
    /// hands its delta to the compactor, or the cube sends its open view,
    /// then a publish is queued behind them. The receiver yields that
    /// snapshot.
    ///
    /// Ordering argument: a delta enters the channel under its shard's
    /// lock and a view under the cube lock, so an absorb or fold
    /// that finished before this call has its part or view queued before
    /// the publish is.
    pub(super) fn barrier(&self) -> Result<Receiver<Arc<Snapshot>>, ServiceError> {
        self.hand_off_all();
        if let Some(cube) = &self.cube {
            cube.send_view();
        }
        let (tx, rx) = mpsc::channel();
        self.compact_tx
            .send(CompactMsg::Publish(tx))
            .map_err(|_| ServiceError::Shutdown)?;
        Ok(rx)
    }

    /// Start the compactor thread. It holds only `rx` and a `Weak` to the
    /// engine, upgraded per message, so an engine whose callers drop it
    /// without a shutdown is freed and the thread then exits.
    pub(super) fn spawn_compactor(
        &self,
        rx: Receiver<CompactMsg>,
    ) -> std::io::Result<JoinHandle<()>> {
        let me = self.me.clone();
        let compaction = Compaction {
            global: ShardSummary::new(&self.cfg, usize::MAX),
            lineage: MergeLineage::leaf(0),
            view: None,
            merge_index: 0,
            trace: self.telemetry.recorder().register("compactor"),
        };
        std::thread::Builder::new()
            .name("ms-compactor".to_string())
            .spawn(move || run_compactor(&me, &rx, compaction))
    }
}

fn run_compactor(me: &Weak<Engine>, rx: &Receiver<CompactMsg>, mut c: Compaction) {
    let mut carried: Option<CompactMsg> = None;
    loop {
        let msg = match carried.take() {
            Some(msg) => msg,
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            },
        };
        // Gone once its callers dropped it without a shutdown.
        let Some(engine) = me.upgrade() else {
            break;
        };
        match msg {
            CompactMsg::Delta(shard, part) => {
                // Drain whatever backlog is already queued, stopping at
                // the first other message so barriers and views keep
                // their channel ordering.
                let mut shards = vec![shard];
                let mut batch = vec![part];
                while batch.len() < MAX_COMPACT_FUSE {
                    match rx.try_recv() {
                        Ok(CompactMsg::Delta(shard, part)) => {
                            shards.push(shard);
                            batch.push(part);
                        }
                        Ok(other) => {
                            carried = Some(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                c.fold(&engine, batch);
                for shard in shards {
                    match shard {
                        Some(shard) => engine.shards[shard].ready_spare(&engine.cfg, shard),
                        // A sealed segment holds everything its views held.
                        None => c.view = None,
                    }
                }
                engine.publish(&c);
            }
            CompactMsg::View(view) => {
                c.view = Some(view);
                engine.publish(&c);
            }
            CompactMsg::Publish(ack) => {
                engine.publish(&c);
                // Only this thread publishes, so the current snapshot is
                // the one just published.
                let _ = ack.send(engine.snapshot());
            }
            CompactMsg::Stop => break,
        }
    }
}

impl Compaction {
    /// Fold `batch` into the global summary in place, in order.
    fn fold(&mut self, engine: &Engine, batch: Vec<ShardSummary>) {
        let fused = batch.len() as u64;
        let mut weights = Vec::with_capacity(batch.len());
        for part in &batch {
            let stall_ms = engine.cfg.fault_plan.compactor_merge(self.merge_index);
            self.merge_index += 1;
            if stall_ms > 0 {
                self.trace.event("stall", &[("ms", stall_ms)]);
                std::thread::sleep(std::time::Duration::from_millis(stall_ms));
            }
            weights.push(part.total_weight());
        }
        let mut span = ms_obs::span!(self.trace, "compact", merge_index = self.merge_index);
        if fused > 1 {
            span.field("fused", fused);
        }
        // In-place: the global summary's storage is reused across merges
        // instead of being cloned per part; linear families fold the
        // whole batch in one pass.
        let (results, micros) = timed(|| self.global.merge_in_place_many(batch));
        for (result, weight) in results.iter().zip(weights) {
            if result.is_ok() {
                // Parts come from the same config, so kinds/ε always
                // match; a failure here would be an engine bug and leaves
                // `global` untouched for that part.
                self.lineage.absorb(MergeLineage::leaf(weight));
                engine.telemetry.counters.merges.inc();
            }
        }
        // The compactor folds left-deep, so the snapshot's merge tree is
        // `merge_index` deep.
        engine
            .telemetry
            .record_compact_merge(micros, self.merge_index);
    }
}

impl Engine {
    /// Publish the next epoch: the global summary, with the open view
    /// merged into a copy of it when there is one. Only the compactor
    /// thread calls this, so the snapshot read here is still current when
    /// `swap` replaces it.
    fn publish(&self, c: &Compaction) {
        let (mut summary, mut lineage) = (c.global.clone(), c.lineage);
        if let Some(view) = &c.view {
            if summary.merge_in_place(view.clone()).is_ok() {
                lineage.absorb(MergeLineage::leaf(view.total_weight()));
            }
        }
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
