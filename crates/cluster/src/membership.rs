//! Per-node health, driven by request outcomes and periodic pings.
//!
//! One state per node decides everything the coordinator does with it:
//! `Alive --failure--> Suspect --more failures--> Dead --success-->
//! Alive`. *Suspect* only means the node has failed since its last
//! success; it is still routed to, so one dropped packet does not
//! trigger a rebalance. After `dead_after` consecutive failures the node
//! is *dead*: routing walks past its ring slots, gathers skip it and no
//! retry is spent on it. Only the pinger and an operator rejoin touch a
//! dead node, and their first success revives it. Any reply at all,
//! sheds included, is a success: the node answered.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

use ms_service::NodeState;

/// Lock-free health tracker for one backend node.
#[derive(Debug)]
pub struct NodeHealth {
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    dead_after: u32,
}

impl NodeHealth {
    /// A node starts alive: the coordinator assumes the operator listed
    /// reachable backends and lets the first requests prove otherwise.
    pub fn new(dead_after: u32) -> NodeHealth {
        NodeHealth {
            state: AtomicU8::new(NodeState::Alive as u8),
            consecutive_failures: AtomicU32::new(0),
            dead_after,
        }
    }

    /// Current state.
    pub fn state(&self) -> NodeState {
        match self.state.load(Ordering::Acquire) {
            0 => NodeState::Alive,
            1 => NodeState::Suspect,
            _ => NodeState::Dead,
        }
    }

    /// Consecutive failures since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures.load(Ordering::Acquire)
    }

    /// Is the node routed around (dead)?
    pub fn is_dead(&self) -> bool {
        matches!(self.state(), NodeState::Dead)
    }

    /// Record a successful request; revives the node from any state.
    /// Returns true when this success flipped a dead node back to alive
    /// (a rejoin, worth an event in the flight recorder).
    pub fn success(&self) -> bool {
        self.consecutive_failures.store(0, Ordering::Release);
        let prev = self.state.swap(NodeState::Alive as u8, Ordering::AcqRel);
        prev == NodeState::Dead as u8
    }

    /// Record a failed request. Returns true when this failure crossed
    /// the death threshold (the moment the ring rebalances).
    pub fn failure(&self) -> bool {
        let failures = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        let next = if failures >= self.dead_after {
            NodeState::Dead
        } else {
            NodeState::Suspect
        };
        let prev = self.state.swap(next as u8, Ordering::AcqRel);
        matches!(next, NodeState::Dead) && prev != NodeState::Dead as u8
    }

    /// Force the node straight to dead (operator action or a connection
    /// refused, which needs no three-strikes grace).
    pub fn mark_dead(&self) -> bool {
        self.consecutive_failures
            .fetch_max(self.dead_after, Ordering::AcqRel);
        let prev = self.state.swap(NodeState::Dead as u8, Ordering::AcqRel);
        prev != NodeState::Dead as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_alive_suspect_dead_and_revives() {
        let h = NodeHealth::new(3);
        assert!(matches!(h.state(), NodeState::Alive));
        assert!(!h.failure()); // failed since its last success: suspect
        assert!(matches!(h.state(), NodeState::Suspect));
        assert!(!h.failure());
        assert!(h.failure()); // third failure crosses the death threshold
        assert!(matches!(h.state(), NodeState::Dead));
        assert!(!h.failure()); // already dead: no second death event
        assert!(h.success()); // rejoin
        assert!(matches!(h.state(), NodeState::Alive));
        assert_eq!(h.consecutive_failures(), 0);
    }

    #[test]
    fn mark_dead_is_immediate_and_idempotent() {
        let h = NodeHealth::new(3);
        assert!(h.mark_dead());
        assert!(!h.mark_dead());
        assert!(h.is_dead());
        assert!(h.success());
        assert!(!h.is_dead());
    }
}
