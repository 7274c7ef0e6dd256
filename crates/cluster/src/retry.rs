//! The coordinator's retry token budget (DESIGN.md §Overload model).
//!
//! The [`RetryBudget`] is the classic token bucket that bounds *extra*
//! attempts to a fraction of real traffic: every first attempt deposits
//! `deposit_millitokens` (capped at `capacity` whole tokens), every
//! retry withdraws a whole token, and when the bucket is dry the retry
//! is denied — under a persistent outage the coordinator degrades to
//! one attempt per request instead of amplifying the overload.
//!
//! A granted retry is one more send and read on the connection lock the
//! failed leg holds, booked like the first attempt. The coordinator's
//! backend clients run no retry loop of their own, so this bucket bounds
//! every extra attempt the coordinator makes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ms_core::lock;

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
