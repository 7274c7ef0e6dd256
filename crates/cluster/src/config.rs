//! How a coordinator is built.

use std::sync::Arc;
use std::time::Duration;

use ms_service::{ClientOptions, CubeClock, SystemClock};

use crate::breaker::BreakerConfig;

/// How a coordinator is built: the backend set and the knobs on routing,
/// health, and transport.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Backend addresses (`host:port`). With [`ClusterConfig::replicas`]
    /// the count must be even; consecutive addresses pair up.
    pub nodes: Vec<String>,
    /// Pair consecutive nodes as replicas: writes go to both members,
    /// reads take the heavier one.
    pub replicas: bool,
    /// Virtual nodes per ring slot.
    pub vnodes: usize,
    /// Consecutive failures before a node is suspect.
    pub suspect_after: u32,
    /// Consecutive failures before a node is dead (routed around).
    pub dead_after: u32,
    /// Transport options for every backend client.
    pub client: ClientOptions,
    /// Ping cadence for the background prober; `None` disables it (tests
    /// drive health through request outcomes alone).
    pub ping_interval: Option<Duration>,
    /// Record coordinator telemetry.
    pub telemetry: bool,
    /// Seed for deterministic trace/span ids (and anything else the
    /// coordinator derives randomness from). Two coordinators with
    /// different seeds can never mint colliding trace ids.
    pub seed: u64,
    /// Per-node circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Retry-budget capacity in whole tokens (bucket starts full).
    pub retry_budget_capacity: u64,
    /// Millitokens deposited per first attempt: 100 allows roughly one
    /// retry per ten requests in steady state.
    pub retry_budget_deposit_milli: u64,
    /// Time source for breaker open windows (tests inject a
    /// [`ms_service::ManualClock`]).
    pub clock: Arc<dyn CubeClock>,
}

impl ClusterConfig {
    /// Defaults: no replicas, 64 vnodes, suspect after 1 failure, dead
    /// after 3, default client transport, 1s pings, telemetry on.
    pub fn new<S: Into<String>>(nodes: impl IntoIterator<Item = S>) -> ClusterConfig {
        ClusterConfig {
            nodes: nodes.into_iter().map(Into::into).collect(),
            replicas: false,
            vnodes: 64,
            suspect_after: 1,
            dead_after: 3,
            client: ClientOptions::default(),
            ping_interval: Some(Duration::from_secs(1)),
            telemetry: true,
            seed: 0x0C00_D1E5,
            breaker: BreakerConfig::default(),
            retry_budget_capacity: 10,
            retry_budget_deposit_milli: 100,
            clock: Arc::new(SystemClock::new()),
        }
    }

    /// Override the trace-id seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable replica pairs.
    pub fn replicas(mut self, on: bool) -> Self {
        self.replicas = on;
        self
    }

    /// Override the transport options.
    pub fn client_options(mut self, opts: ClientOptions) -> Self {
        self.client = opts;
        self
    }

    /// Override (or disable) the background ping cadence.
    pub fn ping_interval(mut self, interval: Option<Duration>) -> Self {
        self.ping_interval = interval;
        self
    }

    /// Override the failure thresholds.
    pub fn thresholds(mut self, suspect_after: u32, dead_after: u32) -> Self {
        self.suspect_after = suspect_after;
        self.dead_after = dead_after;
        self
    }

    /// Override the circuit-breaker thresholds.
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = breaker;
        self
    }

    /// Override the retry budget (capacity in whole tokens, deposit per
    /// request in millitokens).
    pub fn retry_budget(mut self, capacity: u64, deposit_milli: u64) -> Self {
        self.retry_budget_capacity = capacity;
        self.retry_budget_deposit_milli = deposit_milli;
        self
    }

    /// Install a time source for breaker windows (tests inject a
    /// [`ms_service::ManualClock`]).
    pub fn clock(mut self, clock: Arc<dyn CubeClock>) -> Self {
        self.clock = clock;
        self
    }
}
