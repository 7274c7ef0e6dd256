//! Fault-injection seams.
//!
//! The engine consults a [`FaultPlan`] at every decision point where a real
//! deployment can fail: inside a shard's absorb of a batch (a failing
//! absorb, a stall under the shard lock) and before the compactor merges a
//! delta (compaction lag). The default plan, [`NoFaults`], says "continue"
//! everywhere and costs two virtual calls per batch — the production path
//! is unchanged.
//!
//! Plans must be deterministic functions of their inputs (shard id and a
//! per-shard batch index maintained by the engine) so that a
//! schedule is reproducible from a printed seed. `ms-faultsim` builds
//! seeded plans on top of this trait; unit tests can use closures via
//! [`plan_fn`].

use std::fmt;
use std::sync::Arc;

/// What a shard's absorb should do with the batch in hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Absorb the batch normally.
    Continue,
    /// Sleep this many milliseconds first, holding the shard lock (a stall
    /// — the shard's other ingests wait behind it and its queue-depth
    /// gauge rises).
    StallMs(u64),
    /// Fail the absorb as a panic inside the summary would: the shard's
    /// unfolded delta and this batch are lost — exactly what a
    /// crashed shard loses.
    Die,
}

/// A deterministic schedule of injected faults.
///
/// Implementations must be `Send + Sync` (consulted concurrently from every
/// ingesting thread) and should derive their answers only
/// from the arguments, so the same seed replays the same schedule.
pub trait FaultPlan: Send + Sync + fmt::Debug {
    /// Consulted inside `shard`'s absorb of a batch, under its lock: a
    /// panic here is a panicking absorb. `batch_index` counts the batches
    /// the shard was given, lost ones included, so "die at index k" fires
    /// exactly once.
    fn absorb_batch(&self, shard: usize, batch_index: u64) -> FaultAction {
        let _ = (shard, batch_index);
        FaultAction::Continue
    }

    /// Consulted before fold number `merge_index` into the global summary,
    /// on the thread that folds — an ingesting thread, under its shard's
    /// or the cube's lock and the global lock, or recovery. Returns a
    /// stall in milliseconds (0 = no fault): visibility waits, and so do
    /// that shard's ingests and every read.
    fn compactor_merge(&self, merge_index: u64) -> u64 {
        let _ = merge_index;
        0
    }
}

/// The default plan: no faults anywhere.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultPlan for NoFaults {}

/// A plan backed by a plain function, for tests:
/// `plan_fn(|shard, idx| if idx == 3 { FaultAction::Die } else { FaultAction::Continue })`.
pub fn plan_fn<F>(f: F) -> Arc<dyn FaultPlan>
where
    F: Fn(usize, u64) -> FaultAction + Send + Sync + 'static,
{
    struct FnPlan<F>(F);
    impl<F> fmt::Debug for FnPlan<F> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("FnPlan")
        }
    }
    impl<F> FaultPlan for FnPlan<F>
    where
        F: Fn(usize, u64) -> FaultAction + Send + Sync,
    {
        fn absorb_batch(&self, shard: usize, batch_index: u64) -> FaultAction {
            (self.0)(shard, batch_index)
        }
    }
    Arc::new(FnPlan(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_always_continues() {
        let plan = NoFaults;
        for shard in 0..4 {
            for idx in 0..100 {
                assert_eq!(plan.absorb_batch(shard, idx), FaultAction::Continue);
            }
        }
        assert_eq!(plan.compactor_merge(0), 0);
    }

    #[test]
    fn fn_plans_dispatch() {
        let plan = plan_fn(|shard, idx| {
            if shard == 1 && idx == 2 {
                FaultAction::Die
            } else {
                FaultAction::Continue
            }
        });
        assert_eq!(plan.absorb_batch(0, 2), FaultAction::Continue);
        assert_eq!(plan.absorb_batch(1, 2), FaultAction::Die);
        assert_eq!(format!("{plan:?}"), "FnPlan");
    }
}
