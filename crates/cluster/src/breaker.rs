//! Per-node circuit breakers and the coordinator's retry token budget
//! (DESIGN.md §Overload model).
//!
//! A [`CircuitBreaker`] guards the path to one backend node. It is a
//! three-state machine driven purely by request outcomes and an injected
//! clock, so tests replay every transition deterministically with a
//! [`ManualClock`](ms_service::ManualClock):
//!
//! ```text
//! Closed ──(failure_threshold consecutive failures)──▶ Open
//! Open ──(open_micros elapsed)──▶ HalfOpen (one probe at a time)
//! HalfOpen ──(half_open_successes probes succeed)──▶ Closed
//! HalfOpen ──(any probe fails)──▶ Open (timer restarts)
//! ```
//!
//! While open, [`CircuitBreaker::allow`] fails fast — the coordinator
//! skips the node like a dead one instead of burning a timeout on every
//! scatter leg. Half-open admits a single probe; the ping loop or the
//! next request plays that role.
//!
//! The [`RetryBudget`] is the classic token bucket that bounds *extra*
//! attempts to a fraction of real traffic: every first attempt deposits
//! `deposit_millitokens` (capped at `capacity` whole tokens), every
//! retry withdraws a whole token, and when the bucket is dry the retry
//! is denied — under a persistent outage the coordinator degrades to
//! one attempt per request instead of amplifying the overload.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ms_core::lock;
use ms_service::CubeClock;

/// Where a [`CircuitBreaker`] currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every request flows.
    Closed,
    /// Tripped: requests fail fast until the open window elapses.
    Open,
    /// Probing: one request at a time is let through to test the node.
    HalfOpen,
}

/// Knobs for [`CircuitBreaker`].
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures (while closed) that trip the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before letting a probe through.
    pub open_micros: u64,
    /// Consecutive half-open successes required to close again.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_micros: 500_000,
            half_open_successes: 1,
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    /// Clock reading when the breaker last opened.
    opened_at: u64,
    half_open_successes: u32,
    /// A half-open probe is in flight; further requests fail fast until
    /// its outcome is recorded.
    probe_inflight: bool,
}

/// Circuit breaker for the path to one backend node. Clone-free and
/// thread-safe; outcomes arrive from whichever connection thread ran
/// the request.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    clock: Arc<dyn CubeClock>,
    inner: Mutex<BreakerInner>,
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker reading time from `clock`.
    pub fn new(cfg: BreakerConfig, clock: Arc<dyn CubeClock>) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            clock,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: 0,
                half_open_successes: 0,
                probe_inflight: false,
            }),
            trips: AtomicU64::new(0),
        }
    }

    /// May a request be sent now? Open breakers transition to half-open
    /// once the open window has elapsed; half-open admits exactly one
    /// probe at a time.
    pub fn allow(&self) -> bool {
        let mut inner = lock(&self.inner);
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if self.clock.now_micros().saturating_sub(inner.opened_at) >= self.cfg.open_micros {
                    inner.state = BreakerState::HalfOpen;
                    inner.half_open_successes = 0;
                    inner.probe_inflight = true;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if inner.probe_inflight {
                    false
                } else {
                    inner.probe_inflight = true;
                    true
                }
            }
        }
    }

    /// Record the outcome of a request that [`CircuitBreaker::allow`]ed.
    pub fn record(&self, ok: bool) {
        let mut inner = lock(&self.inner);
        match inner.state {
            BreakerState::Closed => {
                if ok {
                    inner.consecutive_failures = 0;
                } else {
                    inner.consecutive_failures += 1;
                    if inner.consecutive_failures >= self.cfg.failure_threshold {
                        self.trip(&mut inner);
                    }
                }
            }
            BreakerState::HalfOpen => {
                inner.probe_inflight = false;
                if ok {
                    inner.half_open_successes += 1;
                    if inner.half_open_successes >= self.cfg.half_open_successes {
                        inner.state = BreakerState::Closed;
                        inner.consecutive_failures = 0;
                    }
                } else {
                    // The node is still sick: reopen and restart the
                    // window from *now*.
                    self.trip(&mut inner);
                }
            }
            // Outcomes of requests that were in flight when the breaker
            // tripped: the trip already encodes the bad news.
            BreakerState::Open => {}
        }
    }

    fn trip(&self, inner: &mut BreakerInner) {
        inner.state = BreakerState::Open;
        inner.opened_at = self.clock.now_micros();
        inner.consecutive_failures = 0;
        inner.probe_inflight = false;
        self.trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Operator-initiated reset: back to closed with a clean failure
    /// streak. Used by an explicit rejoin, where a human (or the
    /// membership layer) has asserted the node recovered — the automatic
    /// path stays the half-open probe.
    pub fn reset(&self) {
        let mut inner = lock(&self.inner);
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.half_open_successes = 0;
        inner.probe_inflight = false;
    }

    /// Current state (no transitions are taken by peeking).
    pub fn state(&self) -> BreakerState {
        lock(&self.inner).state
    }

    /// How many times this breaker has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Micros until an open breaker lets a probe through (0 when not
    /// open or already due) — the retry hint on fail-fast responses.
    pub fn retry_after_micros(&self) -> u64 {
        let inner = lock(&self.inner);
        match inner.state {
            BreakerState::Open => self
                .cfg
                .open_micros
                .saturating_sub(self.clock.now_micros().saturating_sub(inner.opened_at)),
            _ => 0,
        }
    }
}

/// Token bucket bounding retries to a fraction of real traffic. All
/// arithmetic is integer millitokens, so accounting is exact and
/// deterministic.
#[derive(Debug)]
pub struct RetryBudget {
    millitokens: Mutex<u64>,
    cap_milli: u64,
    deposit_milli: u64,
    denied: AtomicU64,
    withdrawn: AtomicU64,
}

impl RetryBudget {
    /// A budget holding at most `capacity` whole tokens (starts full),
    /// depositing `deposit_millitokens` per first attempt. E.g.
    /// `new(10, 100)` allows roughly one retry per ten requests in
    /// steady state, with bursts of up to ten.
    pub fn new(capacity: u64, deposit_millitokens: u64) -> RetryBudget {
        RetryBudget {
            millitokens: Mutex::new(capacity * 1_000),
            cap_milli: capacity * 1_000,
            deposit_milli: deposit_millitokens,
            denied: AtomicU64::new(0),
            withdrawn: AtomicU64::new(0),
        }
    }

    /// Note one first attempt: deposits toward future retries.
    pub fn note_request(&self) {
        let mut tokens = lock(&self.millitokens);
        *tokens = (*tokens + self.deposit_milli).min(self.cap_milli);
    }

    /// Withdraw one whole token for a retry. `false` means the budget is
    /// dry and the retry must not happen.
    pub fn try_withdraw(&self) -> bool {
        let mut tokens = lock(&self.millitokens);
        if *tokens >= 1_000 {
            *tokens -= 1_000;
            self.withdrawn.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            self.denied.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Whole tokens currently available.
    pub fn tokens(&self) -> u64 {
        *lock(&self.millitokens) / 1_000
    }

    /// Retries granted so far.
    pub fn withdrawn(&self) -> u64 {
        self.withdrawn.load(Ordering::Relaxed)
    }

    /// Retries denied because the bucket was dry.
    pub fn denied(&self) -> u64 {
        self.denied.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_service::ManualClock;

    fn breaker(cfg: BreakerConfig) -> (CircuitBreaker, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new(0));
        (CircuitBreaker::new(cfg, clock.clone()), clock)
    }

    #[test]
    fn trips_after_threshold_and_fails_fast_while_open() {
        let (b, clock) = breaker(BreakerConfig {
            failure_threshold: 3,
            open_micros: 1_000,
            half_open_successes: 1,
        });
        for _ in 0..2 {
            assert!(b.allow());
            b.record(false);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert!(b.allow());
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert!(!b.allow(), "open breaker fails fast");
        assert_eq!(b.retry_after_micros(), 1_000);
        clock.advance(999);
        assert!(!b.allow());
        assert_eq!(b.retry_after_micros(), 1);
    }

    #[test]
    fn half_open_admits_one_probe_then_closes_on_success() {
        let (b, clock) = breaker(BreakerConfig {
            failure_threshold: 1,
            open_micros: 1_000,
            half_open_successes: 2,
        });
        assert!(b.allow());
        b.record(false);
        clock.advance(1_000);
        assert!(b.allow(), "open window elapsed: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(), "only one probe in flight at a time");
        b.record(true);
        assert_eq!(b.state(), BreakerState::HalfOpen, "needs 2 successes");
        assert!(b.allow());
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
    }

    #[test]
    fn half_open_probe_failure_reopens_with_a_fresh_window() {
        let (b, clock) = breaker(BreakerConfig {
            failure_threshold: 1,
            open_micros: 1_000,
            half_open_successes: 1,
        });
        assert!(b.allow());
        b.record(false);
        clock.advance(1_000);
        assert!(b.allow());
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // The window restarts at the probe failure, not the first trip.
        clock.advance(999);
        assert!(!b.allow());
        clock.advance(1);
        assert!(b.allow());
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn closed_success_resets_the_failure_streak() {
        let (b, _clock) = breaker(BreakerConfig {
            failure_threshold: 2,
            open_micros: 1_000,
            half_open_successes: 1,
        });
        b.record(false);
        b.record(true);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn retry_budget_token_accounting_is_exact() {
        // Capacity 2 tokens, 100 millitokens per request: one retry per
        // ten requests in steady state.
        let budget = RetryBudget::new(2, 100);
        assert_eq!(budget.tokens(), 2, "starts full");
        assert!(budget.try_withdraw());
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw(), "dry after capacity withdrawals");
        assert_eq!(budget.denied(), 1);
        // 9 deposits: 900 millitokens — still shy of a whole token.
        for _ in 0..9 {
            budget.note_request();
        }
        assert!(!budget.try_withdraw());
        budget.note_request();
        assert!(budget.try_withdraw(), "10 deposits buy exactly 1 retry");
        assert_eq!(budget.withdrawn(), 3);
        // Deposits never exceed capacity.
        for _ in 0..1_000 {
            budget.note_request();
        }
        assert_eq!(budget.tokens(), 2);
    }
}
