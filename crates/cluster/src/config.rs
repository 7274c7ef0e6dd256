//! How a coordinator is built.

use std::time::Duration;

use ms_service::ClientOptions;

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
    /// Consecutive failures before a node is dead: routed around, left
    /// out of gathers, given no retry, and touched again only by the
    /// pinger or a rejoin. Any failure short of it makes the node
    /// suspect.
    pub dead_after: u32,
    /// Transport options for every backend client.
    pub client: ClientOptions,
    /// Ping cadence for the background prober; `None` disables it (tests
    /// drive health through request outcomes alone).
    pub ping_interval: Option<Duration>,
    /// Seed for deterministic trace/span ids (and anything else the
    /// coordinator derives randomness from). Two coordinators with
    /// different seeds can never mint colliding trace ids.
    pub seed: u64,
    /// Retry-budget capacity in whole tokens (bucket starts full).
    pub retry_budget_capacity: u64,
    /// Millitokens deposited per first attempt: 100 allows roughly one
    /// retry per ten requests in steady state.
    pub retry_budget_deposit_milli: u64,
}

impl ClusterConfig {
    /// Defaults: no replicas, 64 vnodes, dead after 3 failures, default
    /// client transport, 1s pings.
    pub fn new<S: Into<String>>(nodes: impl IntoIterator<Item = S>) -> ClusterConfig {
        ClusterConfig {
            nodes: nodes.into_iter().map(Into::into).collect(),
            replicas: false,
            vnodes: 64,
            dead_after: 3,
            client: ClientOptions::default(),
            ping_interval: Some(Duration::from_secs(1)),
            seed: 0x0C00_D1E5,
            retry_budget_capacity: 10,
            retry_budget_deposit_milli: 100,
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

    /// Override the failure threshold at which a node is dead.
    pub fn dead_after(mut self, failures: u32) -> Self {
        self.dead_after = failures;
        self
    }

    /// Override the retry budget (capacity in whole tokens, deposit per
    /// request in millitokens).
    pub fn retry_budget(mut self, capacity: u64, deposit_milli: u64) -> Self {
        self.retry_budget_capacity = capacity;
        self.retry_budget_deposit_milli = deposit_milli;
        self
    }
}
