//! The global summary: every part is folded into it for good, in the order
//! its producers fold it (Definition 1), each on its own thread under the
//! lock it already holds: a shard's full delta (which the shard keeps,
//! emptied), a sealed segment's family on a cube server (which retires the
//! open view), or a piece of the recovered state. A cube server's open
//! segment is a *view* that each publish merges into a copy.
//!
//! A read publishes ([`Global::snapshot`]) when a fold or view moved the
//! summary since the last publish, sharing it copy-on-write: the next fold
//! copies it, and frees the snapshot that publish replaced, so neither
//! lands on a read (DESIGN.md §3a.4 has the measured cost). Also the one
//! barrier flush, checkpoint and shutdown share. Ledger rows
//! `compactor.merge_many` and `swap.publish`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ms_core::{lock, Summary};

use super::{Engine, Snapshot};
use crate::config::ServiceConfig;
use crate::fault::FaultPlan;
use crate::summary::{MergeLineage, ShardSummary};
use crate::telemetry::{timed, EngineTelemetry};

/// The global summary and the snapshot published from it, behind one
/// lock. Lock order: a shard's lock or the cube's, then this; a reader
/// takes only this.
pub(crate) struct Global {
    folded: Mutex<Folded>,
    fault_plan: Arc<dyn FaultPlan>,
    telemetry: Arc<EngineTelemetry>,
}

/// What the global lock guards.
struct Folded {
    /// The global summary and its lineage (the left-deep fold's), held as
    /// the next snapshot: a publish without a view shares this `Arc`, and
    /// a fold copies it first while it is shared (`Arc::make_mut`).
    global: Arc<Snapshot>,
    /// The cube's open view, if one is current.
    view: Option<ShardSummary>,
    merge_index: u64,
    /// Whether a fold or view moved the global summary since the last
    /// publish.
    moved: bool,
    published: Arc<Snapshot>,
    /// The snapshot the last publish replaced, for the next fold or view
    /// to free: a free costs a read about as much as a copy.
    retired: Option<Arc<Snapshot>>,
    trace: ms_obs::TraceHandle,
}

impl Global {
    pub(super) fn new(cfg: &ServiceConfig, telemetry: &Arc<EngineTelemetry>) -> Global {
        let global = Arc::new(Snapshot {
            epoch: 0,
            summary: ShardSummary::new(cfg, usize::MAX),
            lineage: MergeLineage::default(),
            published_at: Instant::now(),
        });
        Global {
            folded: Mutex::new(Folded {
                published: Arc::clone(&global),
                global,
                view: None,
                merge_index: 0,
                moved: false,
                retired: None,
                trace: telemetry.recorder().register("compactor"),
            }),
            fault_plan: Arc::clone(&cfg.fault_plan),
            telemetry: Arc::clone(telemetry),
        }
    }

    /// Fold `part` for good: a piece of the recovered state, or a sealed
    /// segment's family, which holds everything its views held and so
    /// retires the current one.
    pub(crate) fn fold(&self, part: ShardSummary) {
        let mut folded = lock(&self.folded);
        folded.view = None;
        let weight = part.total_weight();
        self.fold_with(&mut folded, weight, |summary| summary.merge_in_place(part));
    }

    /// Fold a shard's full `delta` for good and leave it empty to absorb
    /// into again; `fresh` replaces a delta that cannot empty in place
    /// ([`ShardSummary::merge_drain`]).
    pub(super) fn drain(&self, delta: &mut ShardSummary, fresh: impl FnOnce() -> ShardSummary) {
        let mut folded = lock(&self.folded);
        let weight = delta.total_weight();
        self.fold_with(&mut folded, weight, |summary| {
            summary.merge_drain(delta, fresh)
        });
    }

    /// Replace the cube's open view: every publish until the next view or
    /// seal merges it in.
    pub(crate) fn view(&self, view: ShardSummary) {
        let mut folded = lock(&self.folded);
        (folded.view, folded.retired) = (Some(view), None);
        folded.moved = true;
    }

    /// One fold into the global summary, on the caller's thread; a stall
    /// the fault plan asks for is served here first.
    fn fold_with(
        &self,
        folded: &mut Folded,
        weight: u64,
        merge: impl FnOnce(&mut ShardSummary) -> ms_core::Result<()>,
    ) {
        let stall_ms = self.fault_plan.compactor_merge(folded.merge_index);
        folded.merge_index += 1;
        if stall_ms > 0 {
            folded.trace.event("stall", &[("ms", stall_ms)]);
            std::thread::sleep(std::time::Duration::from_millis(stall_ms));
        }
        folded.retired = None;
        let global = Arc::make_mut(&mut folded.global);
        // A span with no fields: a field would allocate on the folding
        // thread, and the merge index is the tree-depth gauge below.
        let span = folded.trace.span("compact");
        let (merged, micros) = timed(|| merge(&mut global.summary));
        drop(span);
        // Parts come from the same config, so kinds/ε always match; a
        // failure here would be an engine bug and leaves the summary
        // untouched for that part.
        if merged.is_ok() {
            global.lineage.absorb(MergeLineage::leaf(weight));
            self.telemetry.counters.merges.inc();
        }
        folded.moved = true;
        // The folds are left-deep, so the merge tree is `merge_index` deep.
        (self.telemetry).record_compact_merge(micros, folded.merge_index);
    }

    /// The current snapshot: the published one, published anew first if
    /// `publish` is set and a fold or view moved the global summary since
    /// — the global summary as the next epoch, shared as it is, or with
    /// the open view merged into a copy of it when there is one.
    pub(super) fn snapshot(&self, publish: bool) -> Arc<Snapshot> {
        let mut guard = lock(&self.folded);
        let folded = &mut *guard;
        if publish && folded.moved {
            let last = &folded.published;
            let (epoch, since_last) = (last.epoch + 1, last.published_at.elapsed());
            // Not shared here on an engine without a cube: every fold
            // since the last publish wrote to its own copy.
            let global = Arc::make_mut(&mut folded.global);
            (global.epoch, global.published_at) = (epoch, Instant::now());
            let next = match &folded.view {
                None => Arc::clone(&folded.global),
                Some(view) => {
                    let mut next = Snapshot::clone(&folded.global);
                    if next.summary.merge_in_place(view.clone()).is_ok() {
                        next.lineage.absorb(MergeLineage::leaf(view.total_weight()));
                    }
                    Arc::new(next)
                }
            };
            folded.retired = Some(std::mem::replace(&mut folded.published, next));
            folded.moved = false;
            (self.telemetry).record_publish(epoch, since_last.as_micros() as u64);
        }
        Arc::clone(&folded.published)
    }
}

impl Engine {
    /// The barrier flush, checkpoint and shutdown share: every shard folds
    /// its delta and the cube replaces its view, then the global summary
    /// is published. The snapshot returned holds every absorb or fold that
    /// finished before this call: each took the lock its fold here takes.
    pub(super) fn barrier(&self) -> Arc<Snapshot> {
        self.hand_off_all();
        if let Some(cube) = &self.cube {
            cube.send_view();
        }
        self.global.snapshot(true)
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

    /// A read publishes only what moved: with nothing folded since, it
    /// hands back the same snapshot; after a fold, the next epoch.
    #[test]
    fn a_read_publishes_only_when_a_fold_moved_the_summary() {
        let cfg = ServiceConfig::new(SummaryKind::Mg, 0.05)
            .shards(1)
            .delta_updates(100);
        let engine = Engine::start(cfg).unwrap();
        let first = engine.snapshot();
        assert!(Arc::ptr_eq(&first, &engine.snapshot()), "nothing folded");
        engine.ingest(vec![3; 50]).unwrap();
        assert!(
            Arc::ptr_eq(&first, &engine.snapshot()),
            "the delta holds it"
        );
        engine.ingest(vec![3; 50]).unwrap();
        let folded = engine.snapshot();
        assert_eq!(
            (folded.epoch, folded.summary.total_weight()),
            (first.epoch + 1, 100)
        );
        assert!(Arc::ptr_eq(&folded, &engine.snapshot()));
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
