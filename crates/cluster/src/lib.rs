//! Federation of `ms-service` nodes into one logical service.
//!
//! The paper's mergeability guarantee (PODS'12, Definition 1) is a
//! *distributed-systems* property: summaries built independently at N
//! sites merge — in any order, in one shot — into a summary whose `εn`
//! error bound is the same as if one site had seen the whole stream.
//! This crate cashes that in. A [`Coordinator`] forwards each ingest
//! batch whole to one backend node — *any* split of the stream merges
//! to the same bound, so the [`HashRing`] routes a batch counter, not
//! keys — answers queries by an overlapped scatter/gather + one-shot
//! merge, tracks one health state per node ([`NodeHealth`]: alive →
//! suspect → dead → rejoin) that alone decides routing, gathers, retries
//! and probes, reroutes a dead node's share of the batches to the
//! survivors, and optionally writes each slot to a **replica pair**
//! read-one-of-two so a single death never blanks a slot. A reply of any
//! kind, a shed included, proves a node alive; only the pinger and an
//! operator rejoin bring a dead one back.
//!
//! The coordinator implements the same [`ms_service::Service`] trait
//! (and wire protocol) as a single engine, so `mergeable serve
//! --coordinator` is byte-compatible with every existing client —
//! including another coordinator's.

pub mod config;
pub mod coordinator;
pub mod membership;
pub mod retry;
pub mod ring;

pub use config::ClusterConfig;
pub use coordinator::{Coordinator, GatherReport};
pub use membership::NodeHealth;
pub use retry::RetryBudget;
pub use ring::HashRing;
