//! Mergeable heavy-hitter summaries (PODS'12, §3).
//!
//! This crate implements the frequency-estimation results of *Mergeable
//! summaries*:
//!
//! * [`MgSummary`] — the Misra-Gries (a.k.a. *Frequent*) summary with `k`
//!   counters. Estimates **underestimate** true frequencies by at most
//!   `(n − n̂)/(k+1) ≤ n/(k+1)`, where `n̂` is the total weight currently
//!   stored. The crate's central result is the merge algorithm that keeps
//!   exactly this bound under arbitrary merge trees (Theorem 1 of the
//!   paper): combine counter-wise, subtract the `(k+1)`-th largest combined
//!   counter from every counter, discard non-positive counters.
//! * [`SpaceSavingSummary`] — the SpaceSaving summary with `k` counters.
//!   Estimates **overestimate** by at most the minimum counter (streaming),
//!   and merging reduces to the MG merge through the isomorphism below: a
//!   merged SpaceSaving summary holds an [`MgSummary`] and runs its code.
//! * [`isomorphism`] — Lemma 1 of the paper: after the same input stream,
//!   the SpaceSaving summary with `k+1` counters equals the MG summary with
//!   `k` counters plus `(n − n̂)/(k+1)` added to every counter (and one
//!   extra counter holding exactly that value).
//! * [`ExactCounts`] — the trivially mergeable exact baseline.
//!
//! All counters hold `u64` weights and all error bounds are checked with
//! exact integer arithmetic (`(true − est)·(k+1) ≤ n − n̂`), so tests never
//! depend on floating-point rounding.

pub mod exact;
pub mod isomorphism;
pub mod mg;
pub mod space_saving;
mod table;

pub use exact::ExactCounts;
pub use mg::MgSummary;
pub use space_saving::SpaceSavingSummary;
