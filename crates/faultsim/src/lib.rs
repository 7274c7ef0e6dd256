//! Deterministic fault-injection harness for the `ms-service` engine.
//!
//! The paper's mergeability guarantee (Agarwal et al., PODS'12,
//! Definition 1) is a statement about *arbitrary* merge trees — including
//! the degenerate trees a crashing system produces: branches pruned by a
//! dead shard, folds stalled on the threads that make them, leaves that never
//! arrive because a client vanished mid-write. This crate turns that
//! observation into an executable test: seeded schedules of fourteen
//! fault classes ([`FaultClass`]) drive a live engine (and, for the wire
//! classes, a live TCP server), and every schedule ends by asserting the
//! `ε·n` error bound against an exact oracle on the surviving state, plus
//! a byte-identical codec round-trip.
//!
//! The three durability classes (`crash-point`, `torn-write`, `bit-flip`)
//! push the same verdict across a process boundary: kill a durable engine
//! with no shutdown path, damage its WAL segments and checkpoint parts
//! the way a real crash does, and require recovery to account for every
//! surviving batch exactly.
//!
//! The four whole-node classes (`node-kill`, `gather-kill`,
//! `rejoin-rebalance`, `replica-divergence`) lift the verdict to a
//! federated cluster: an `ms-cluster` coordinator over three or four real
//! TCP nodes, with seeded node kills, ring rebalances, WAL-backed rejoins
//! and replica pairs, checked against the same exact oracles.
//!
//! Everything is reproducible from a printed u64 seed:
//!
//! * [`SeededPlan`] decides absorb failure / stall / compactor delay as a
//!   pure function of `(seed, shard, batch index)`;
//! * [`Corruption`] damages wire frames with a seeded [`ms_core::Rng64`];
//! * seeded indices place checkpoints, crash points, truncation cuts and
//!   bit flips for the durability classes;
//! * [`run_schedule`]`(class, kind, seed)` replays a schedule exactly.
//!
//! The `fault-suite` binary runs the full class × family matrix over a
//! list of seeds (CI pins three) and exits nonzero on any violation.

pub mod cluster;
pub mod plan;
pub mod schedule;
pub mod transport;

pub use plan::SeededPlan;
pub use schedule::{run_schedule, FaultClass, ScheduleReport, EPS};
pub use transport::{partial_prefix, Corruption};
