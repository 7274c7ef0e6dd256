//! Seeded, deterministic fault plans.
//!
//! A [`SeededPlan`] is a pure function of `(seed, shard, batch_index)` —
//! the same seed always produces the same injection decisions, which is
//! what makes a failed schedule reproducible from the printed seed alone.
//! The plan also keeps trigger counters so a schedule can *prove* its
//! fault class actually fired (a fault harness whose faults silently never
//! trigger tests nothing).

use std::sync::atomic::{AtomicU64, Ordering};

use ms_core::rng::splitmix64;
use ms_service::{FaultAction, FaultPlan};

/// Mix `(seed, shard, index)` into a uniform u64, deterministically.
fn mix(seed: u64, shard: u64, index: u64) -> u64 {
    let mut state = seed
        ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    splitmix64(&mut state)
}

/// A deterministic injection schedule derived from a u64 seed.
///
/// Faults are decided per `(shard, batch index)`:
///
/// * **death**: with `death_period = p > 0`, each shard's absorb fails at
///   batch indices congruent to a seed-derived offset mod `p` — guaranteed
///   to fire once a shard has been given `p` batches.
/// * **stall**: with probability `stall_per_10k / 10_000`, a batch is
///   delayed by `stall_ms` before being absorbed.
/// * **compactor stall**: every `compactor_period`-th delta merge sleeps
///   `compactor_stall_ms` before merging.
///
/// Deaths take priority over stalls at the same index.
#[derive(Debug, Default)]
pub struct SeededPlan {
    seed: u64,
    death_period: u64,
    stall_per_10k: u64,
    stall_ms: u64,
    compactor_period: u64,
    compactor_stall_ms: u64,
    /// Absorb failures injected so far.
    pub deaths: AtomicU64,
    /// Absorb stalls injected so far.
    pub stalls: AtomicU64,
    /// Compactor stalls injected so far.
    pub compactor_stalls: AtomicU64,
}

impl SeededPlan {
    /// A plan that injects nothing (counters still work).
    pub fn new(seed: u64) -> Self {
        SeededPlan {
            seed,
            ..SeededPlan::default()
        }
    }

    /// Kill each shard at seed-derived batch indices, once per `period`
    /// batches it processes.
    pub fn death_every(mut self, period: u64) -> Self {
        self.death_period = period;
        self
    }

    /// Stall a batch for `ms` with probability `per_10k / 10_000`.
    pub fn stall(mut self, per_10k: u64, ms: u64) -> Self {
        self.stall_per_10k = per_10k;
        self.stall_ms = ms;
        self
    }

    /// Sleep `ms` before every `period`-th compactor merge.
    pub fn compactor_stall_every(mut self, period: u64, ms: u64) -> Self {
        self.compactor_period = period;
        self.compactor_stall_ms = ms;
        self
    }

    /// The pure decision for `(shard, index)` — no counters touched.
    /// Exposed so determinism is testable.
    pub fn decide(&self, shard: usize, index: u64) -> FaultAction {
        if self.death_period > 0 {
            let offset = mix(self.seed, shard as u64, u64::MAX) % self.death_period;
            // Skip index 0 so a shard always absorbs something first.
            if index > 0 && index % self.death_period == offset.max(1) {
                return FaultAction::Die;
            }
        }
        if self.stall_per_10k > 0
            && mix(self.seed, shard as u64, index) % 10_000 < self.stall_per_10k
        {
            return FaultAction::StallMs(self.stall_ms);
        }
        FaultAction::Continue
    }
}

impl FaultPlan for SeededPlan {
    fn absorb_batch(&self, shard: usize, batch_index: u64) -> FaultAction {
        let action = self.decide(shard, batch_index);
        match action {
            FaultAction::Die => {
                self.deaths.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::StallMs(_) => {
                self.stalls.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Continue => {}
        }
        action
    }

    fn compactor_merge(&self, merge_index: u64) -> u64 {
        if self.compactor_period > 0 && merge_index.is_multiple_of(self.compactor_period) {
            self.compactor_stalls.fetch_add(1, Ordering::Relaxed);
            self.compactor_stall_ms
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        let a = SeededPlan::new(42).death_every(10).stall(2_000, 1);
        let b = SeededPlan::new(42).death_every(10).stall(2_000, 1);
        let c = SeededPlan::new(43).death_every(10).stall(2_000, 1);
        let mut diverged = false;
        for shard in 0..4 {
            for index in 0..200 {
                assert_eq!(a.decide(shard, index), b.decide(shard, index));
                if a.decide(shard, index) != c.decide(shard, index) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "different seeds should differ somewhere");
    }

    #[test]
    fn death_fires_within_one_period_for_every_shard() {
        let plan = SeededPlan::new(7).death_every(20);
        for shard in 0..8 {
            let died = (0..=40).any(|i| plan.decide(shard, i) == FaultAction::Die);
            assert!(died, "shard {shard} never dies in two periods");
        }
    }

    #[test]
    fn counters_track_injections() {
        let plan = SeededPlan::new(9).stall(10_000, 3);
        assert_eq!(plan.absorb_batch(0, 0), FaultAction::StallMs(3));
        assert_eq!(plan.stalls.load(Ordering::Relaxed), 1);
        assert_eq!(plan.compactor_merge(5), 0);
        let stalling = SeededPlan::new(9).compactor_stall_every(2, 4);
        assert_eq!(stalling.compactor_merge(0), 4);
        assert_eq!(stalling.compactor_merge(1), 0);
        assert_eq!(stalling.compactor_stalls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = SeededPlan::new(1);
        for shard in 0..4 {
            for index in 0..100 {
                assert_eq!(plan.decide(shard, index), FaultAction::Continue);
            }
        }
    }
}
