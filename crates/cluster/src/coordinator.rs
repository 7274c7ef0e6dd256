//! The coordinator: N independent `ms-service` nodes behind one
//! [`Service`].
//!
//! Ingest batches are consistent-hash routed across backends
//! ([`HashRing`]); queries scatter to every live node, gather per-node
//! summaries, and merge them **one-shot** — by the paper's Definition 1
//! the merged answer carries the same `εn` bound as a single node that
//! saw the whole stream, so federation costs no accuracy. Membership
//! ([`NodeHealth`]) turns request outcomes and periodic pings into
//! alive/suspect/dead states; a dead node's key range drains to the
//! survivors through the ring's liveness-aware routing and returns the
//! moment the node rejoins.
//!
//! With `replicas` on, consecutive nodes form **pairs** that both
//! receive every write for their slot, so a single death never blanks
//! it; reads take one member per slot (`fold_groups` says which and why).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use ms_core::wire::FRAME_HEADER_LEN;
use ms_core::{ServiceError, Summary, Wire};
use ms_obs::{Counter, Gauge, Histogram, RegistrySnapshot, SpanGuard, TraceHandle};
use ms_service::deadline;
use ms_service::telemetry::timed;
use ms_service::tracectx::{self, FIELD_PARENT, FIELD_SPAN, FIELD_TRACE};
use ms_service::{
    answer_query, answer_range, AccuracyAudit, Client, ClientOptions, ClusterInfo, CubeClock,
    EngineTelemetry, MetricsReport, NodeInfo, OpClass, RangeMeta, Request, RequestEnvelope,
    Response, SegmentReport, Service, ShardSummary, SystemClock, TraceContext,
};

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker, RetryBudget};
use crate::membership::NodeHealth;
use crate::ring::HashRing;

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

/// One backend node as the coordinator sees it.
struct Node {
    addr: Mutex<String>,
    /// Lazily-connected client; dropped on any transport failure so a
    /// poisoned connection is never reused.
    client: Mutex<Option<Client>>,
    health: NodeHealth,
    /// Circuit breaker on the path to this node: failures and shed
    /// responses trip it; while open, requests fail fast instead of
    /// burning a timeout per scatter leg.
    breaker: CircuitBreaker,
    requests: AtomicU64,
    failures: AtomicU64,
    /// Total weight of this node's summary at the last gather.
    last_weight: AtomicU64,
}

/// Coordinator-plane instruments, registered on the same registry the
/// server's request-latency and byte counters live in, so one
/// `Telemetry` scrape sees the whole plane.
struct Instruments {
    node_latency: Vec<Arc<Histogram>>,
    node_state: Vec<Arc<Gauge>>,
    node_failures: Vec<Arc<Counter>>,
    /// Backend requests issued per gather (the fan-out depth).
    gather_fanout: Arc<Histogram>,
    /// Request bytes shipped to backends.
    scatter_bytes: Arc<Counter>,
    /// Response bytes shipped back from backends.
    gather_bytes: Arc<Counter>,
    rebalances: Arc<Counter>,
    /// Per-node breaker state (0 closed, 1 open, 2 half-open).
    breaker_state: Vec<Arc<Gauge>>,
    breaker_trips: Vec<Arc<Counter>>,
    /// Coordinator-level retries granted / denied by the token budget.
    retries_granted: Arc<Counter>,
    retries_denied: Arc<Counter>,
    retry_tokens: Arc<Gauge>,
}

/// What one scatter/gather produced: by default the cluster summary,
/// internally any reply that merges (metrics, audits, range answers).
pub struct GatherReport<R = ShardSummary> {
    /// The one-shot merge of every answering slot; `None` when none did.
    pub summary: Option<R>,
    /// Slots that contributed a reply.
    pub answered: usize,
    /// Slots with no live member — their range is missing from the
    /// merged summary (the loss-slack bound covers the gap).
    pub dark_slots: usize,
    /// Backend requests issued.
    pub fanout: usize,
    /// Fraction of slots that contributed to the merge, in [0, 1]. A
    /// partial gather (slow node tripped its breaker, a leg shed) is a
    /// valid summary of the answering slots' updates — Definition 1 —
    /// with its reduced reach made explicit here rather than failing
    /// the whole gather.
    pub coverage: f64,
}

impl<R> GatherReport<R> {
    /// The merged reply, or the typed error when nothing answered at all.
    fn live(self) -> Result<R, ServiceError> {
        self.summary.ok_or_else(no_live_backend)
    }
}

/// A federation coordinator over N backend `ms-service` nodes.
pub struct Coordinator {
    nodes: Vec<Node>,
    /// Slot → member node indices (one, or two with replicas).
    slots: Vec<Vec<usize>>,
    ring: HashRing,
    client_opts: ClientOptions,
    replicas: bool,
    telemetry: Arc<EngineTelemetry>,
    /// Flight-recorder ring the scatter legs record into; one leg span
    /// per backend request issued under a live trace context.
    scatter_ring: TraceHandle,
    instruments: Instruments,
    /// Token bucket bounding coordinator-initiated retries.
    retry_budget: RetryBudget,
    rebalanced_batches: AtomicU64,
    stopped: AtomicBool,
    /// Pinger wake/stop signal: the bool is "stop requested".
    ping_stop: Arc<(Mutex<bool>, Condvar)>,
    pinger: Mutex<Option<JoinHandle<()>>>,
}

impl Coordinator {
    /// Build a coordinator over `cfg.nodes`. Connections are lazy: a
    /// backend that is down at start is discovered by the first request
    /// (or ping) that touches it, not at construction.
    pub fn start(cfg: ClusterConfig) -> Result<Arc<Coordinator>, ServiceError> {
        if cfg.nodes.is_empty() {
            return Err(ServiceError::Config("cluster needs at least one node"));
        }
        if cfg.replicas && !cfg.nodes.len().is_multiple_of(2) {
            return Err(ServiceError::Config(
                "replica pairs need an even node count",
            ));
        }
        let slots: Vec<Vec<usize>> = if cfg.replicas {
            (0..cfg.nodes.len() / 2)
                .map(|s| vec![2 * s, 2 * s + 1])
                .collect()
        } else {
            (0..cfg.nodes.len()).map(|n| vec![n]).collect()
        };
        let ring = HashRing::new(slots.len(), cfg.vnodes.max(1));
        let telemetry = Arc::new(EngineTelemetry::new(0, cfg.telemetry, cfg.seed));
        let scatter_ring = telemetry.recorder().register("scatter");
        let registry = telemetry.registry();
        let instruments = Instruments {
            node_latency: (0..cfg.nodes.len())
                .map(|n| registry.histogram(&format!("node_request_micros{{node=\"{n}\"}}")))
                .collect(),
            node_state: (0..cfg.nodes.len())
                .map(|n| registry.gauge(&format!("node_state{{node=\"{n}\"}}")))
                .collect(),
            node_failures: (0..cfg.nodes.len())
                .map(|n| registry.counter(&format!("node_failures_total{{node=\"{n}\"}}")))
                .collect(),
            gather_fanout: registry.histogram("gather_fanout"),
            scatter_bytes: registry.counter("scatter_bytes_total"),
            gather_bytes: registry.counter("gather_bytes_total"),
            rebalances: registry.counter("ring_rebalances_total"),
            breaker_state: (0..cfg.nodes.len())
                .map(|n| registry.gauge(&format!("breaker_state{{node=\"{n}\"}}")))
                .collect(),
            breaker_trips: (0..cfg.nodes.len())
                .map(|n| registry.counter(&format!("breaker_trips_total{{node=\"{n}\"}}")))
                .collect(),
            retries_granted: registry.counter("coordinator_retries_granted_total"),
            retries_denied: registry.counter("coordinator_retries_denied_total"),
            retry_tokens: registry.gauge("retry_budget_tokens"),
        };
        let retry_budget =
            RetryBudget::new(cfg.retry_budget_capacity, cfg.retry_budget_deposit_milli);
        instruments.retry_tokens.set(retry_budget.tokens() as i64);
        let nodes = cfg
            .nodes
            .iter()
            .map(|addr| Node {
                addr: Mutex::new(addr.clone()),
                client: Mutex::new(None),
                health: NodeHealth::new(cfg.suspect_after, cfg.dead_after),
                breaker: CircuitBreaker::new(cfg.breaker.clone(), Arc::clone(&cfg.clock)),
                requests: AtomicU64::new(0),
                failures: AtomicU64::new(0),
                last_weight: AtomicU64::new(0),
            })
            .collect();
        let coordinator = Arc::new(Coordinator {
            nodes,
            slots,
            ring,
            client_opts: cfg.client.clone(),
            replicas: cfg.replicas,
            telemetry,
            scatter_ring,
            instruments,
            retry_budget,
            rebalanced_batches: AtomicU64::new(0),
            stopped: AtomicBool::new(false),
            ping_stop: Arc::new((Mutex::new(false), Condvar::new())),
            pinger: Mutex::new(None),
        });
        if let Some(interval) = cfg.ping_interval {
            let weak = Arc::downgrade(&coordinator);
            let signal = Arc::clone(&coordinator.ping_stop);
            let handle = std::thread::Builder::new()
                .name("ms-pinger".to_string())
                .spawn(move || ping_loop(weak, signal, interval))?;
            *lock(&coordinator.pinger) = Some(handle);
        }
        Ok(coordinator)
    }

    /// The coordinator's telemetry plane.
    pub fn telemetry(&self) -> &Arc<EngineTelemetry> {
        &self.telemetry
    }

    /// Stop the pinger. Backend nodes are *not* shut down: the
    /// coordinator federates processes it does not own.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::AcqRel) {
            return;
        }
        let (stop, cvar) = &*self.ping_stop;
        *lock(stop) = true;
        cvar.notify_all();
        if let Some(handle) = lock(&self.pinger).take() {
            let _ = handle.join();
        }
    }

    /// Route `items` across the cluster. Each item goes to the live slot
    /// owning its hash; with replicas every live member of the slot
    /// receives the batch (delivery succeeds when at least one member
    /// takes it). A bucket whose every member fails mid-send is rerouted
    /// to the next live slot on the ring — counted as a rebalance — so a
    /// node death during ingest loses at most the in-flight frames the
    /// retry layer could not confirm.
    pub fn ingest(&self, items: &[u64]) -> Result<(), ServiceError> {
        if items.is_empty() {
            return Ok(());
        }
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); self.slots.len()];
        let mut saw_dead_slot = false;
        for &item in items {
            let slot = self
                .ring
                .route(item, |s| self.slot_dead(s))
                .ok_or_else(no_live_backend)?;
            if self.slot_dead(self.ring.slot_of(item)) {
                saw_dead_slot = true;
            }
            buckets[slot].push(item);
        }
        if saw_dead_slot {
            self.rebalanced_batches.fetch_add(1, Ordering::Relaxed);
            self.instruments.rebalances.add(1);
        }
        for (slot, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            // Walk slots until one accepts the bucket; every hop past a
            // freshly-dead slot is a rebalance.
            let mut target = slot;
            let mut attempts = 0usize;
            loop {
                if self.send_bucket(target, &bucket)? {
                    break;
                }
                attempts += 1;
                if attempts >= self.slots.len() {
                    return Err(no_live_backend());
                }
                target = self
                    .ring
                    .route(bucket[0], |s| self.slot_dead(s))
                    .ok_or_else(no_live_backend)?;
                self.rebalanced_batches.fetch_add(1, Ordering::Relaxed);
                self.instruments.rebalances.add(1);
            }
        }
        Ok(())
    }

    /// Send one bucket to every live member of `slot`. Returns whether
    /// at least one member accepted it; transport failures mark the
    /// member's health and are otherwise swallowed here (the caller
    /// reroutes).
    fn send_bucket(&self, slot: usize, bucket: &[u64]) -> Result<bool, ServiceError> {
        let frame_bytes = ingest_frame_bytes(bucket);
        let mut delivered = false;
        let mut last_err: Option<ServiceError> = None;
        for &member in &self.slots[slot] {
            if self.nodes[member].health.is_dead() {
                continue;
            }
            // Ingest legs join the live trace and carry the remaining
            // deadline exactly as query legs do; a spent budget sheds the
            // bucket before any backend sees the frames.
            let result = self
                .leg(member, Request::Ingest(Vec::new()).opcode())
                .and_then(|(envelope, _span)| {
                    self.instruments.scatter_bytes.add(frame_bytes);
                    self.with_node(member, |c| c.ingest_slice_enveloped(envelope, bucket))
                });
            match result {
                Ok(()) => delivered = true,
                Err(e) => last_err = Some(e),
            }
        }
        match (delivered, last_err) {
            (true, _) => Ok(true),
            // A shed is not a death: rerouting the bucket would aim the
            // same storm at the next node, so surface it typed instead.
            (false, Some(e @ ServiceError::Overloaded { .. })) => Err(e),
            (false, Some(e)) if e.is_transient() => Ok(false), // reroute
            (false, Some(e)) => Err(e),                        // the backend answered and refused
            (false, None) => Ok(false),                        // every member already dead
        }
    }

    /// Flush every live node so gathers see all prior ingests.
    pub fn flush(&self) -> Result<(), ServiceError> {
        self.fold_nodes(&Request::Flush, |_| Some(()), |(), ()| {})
    }

    /// Scatter a summary request to every slot, gather the per-node
    /// summaries, and merge them one-shot. A slot with no live answer is
    /// reported dark, not an error — the merged summary is then a valid
    /// summary of the surviving updates.
    pub fn gather(&self) -> Result<GatherReport, ServiceError> {
        let mut bytes = 0u64;
        let accept = |member: usize, response| {
            let Response::Summary(raw) = response else {
                return Ok(None);
            };
            bytes +=
                (FRAME_HEADER_LEN + 1) as u64 + varint_len(raw.len() as u64) + raw.len() as u64;
            let summary = ShardSummary::decode(&raw)
                .map_err(|e| ServiceError::Protocol(format!("bad node summary: {e}")))?;
            self.nodes[member]
                .last_weight
                .store(summary.total_weight(), Ordering::Relaxed);
            Ok(Some(summary))
        };
        let report = self.gather_fold(
            &self.slots,
            &Request::Summary,
            accept,
            ShardSummary::total_weight,
            merge_summaries,
        )?;
        self.instruments.gather_fanout.record(report.fanout as u64);
        self.instruments.gather_bytes.add(bytes);
        Ok(report)
    }

    /// The gathered cluster summary that global queries answer from.
    fn gather_summary(&self) -> Result<ShardSummary, ServiceError> {
        self.gather()?.live()
    }

    /// Merge every live node's [`MetricsReport`] into one cluster-wide
    /// report (work counters sum, per-node gauges take the max).
    pub fn metrics(&self) -> Result<MetricsReport, ServiceError> {
        let accept = |response| match response {
            Response::Metrics(report) => Some(report),
            _ => None,
        };
        self.fold_nodes(&Request::Metrics, accept, |acc, report| {
            acc.merge_from(&report)
        })
    }

    /// The coordinator's own registry merged with every live backend's —
    /// the telemetry plane is itself mergeable (counters add, histograms
    /// merge bucket-wise).
    pub fn telemetry_merged(&self) -> RegistrySnapshot {
        let own = self.telemetry.snapshot();
        let accept = |response| match response {
            Response::Telemetry(snapshot) => Some(snapshot),
            _ => None,
        };
        match self.fold_nodes(&Request::Telemetry, accept, |acc, s| *acc = acc.merge(&s)) {
            Ok(nodes) => own.merge(&nodes),
            Err(_) => own,
        }
    }

    /// Membership and routing state, as served to `ClusterInfo` queries.
    pub fn cluster_info(&self) -> ClusterInfo {
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(idx, node)| NodeInfo {
                index: idx as u32,
                addr: lock(&node.addr).clone(),
                state: node.health.state(),
                consecutive_failures: node.health.consecutive_failures(),
                requests: node.requests.load(Ordering::Relaxed),
                failures: node.failures.load(Ordering::Relaxed),
                last_weight: node.last_weight.load(Ordering::Relaxed),
            })
            .collect();
        ClusterInfo {
            nodes,
            replicas: self.replicas,
            slots: self.slots.len() as u32,
            vnodes: self.ring.vnodes() as u32,
            rebalanced_batches: self.rebalanced_batches.load(Ordering::Relaxed),
        }
    }

    /// One node's raw summary bytes (the `NodeSummary` opcode).
    pub fn node_summary(&self, idx: u32) -> Result<Vec<u8>, ServiceError> {
        let idx = idx as usize;
        if idx >= self.nodes.len() {
            return Err(ServiceError::Protocol(format!(
                "node index {idx} out of range ({} nodes)",
                self.nodes.len()
            )));
        }
        match self.scatter_call(idx, &Request::Summary)? {
            Response::Summary(raw) => Ok(raw),
            other => Err(ServiceError::Protocol(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Bring a node back: optionally update its address (a restarted
    /// process rarely keeps its port), drop any stale connection, and
    /// ping it. On success the node is alive and the ring routes to it
    /// again — its WAL/checkpoint recovery already happened inside the
    /// node before it started listening.
    pub fn rejoin(&self, idx: usize, addr: Option<&str>) -> Result<(), ServiceError> {
        let node = self
            .nodes
            .get(idx)
            .ok_or(ServiceError::Config("rejoin index out of range"))?;
        if let Some(addr) = addr {
            *lock(&node.addr) = addr.to_string();
        }
        *lock(&node.client) = None;
        // The rejoin ping bypasses the breaker's fail-fast (`attempt`
        // instead of `with_node`): rejoin *is* the recovery probe, and
        // it is the operator asserting the node is back — so a
        // successful ping also resets the breaker outright instead of
        // waiting out the open window.
        match self.attempt(idx, &|client| client.call(&Request::Ping))? {
            Response::Ok => {
                node.breaker.reset();
                self.sync_breaker_instruments(idx);
                Ok(())
            }
            other => Err(ServiceError::Protocol(format!(
                "unexpected ping response {other:?}"
            ))),
        }
    }

    /// Scatter a range request to every slot and merge the per-node
    /// range summaries one-shot; a replica slot contributes the member
    /// covering more weight. The merged summary carries the same
    /// `ε·(covered weight)` bound as a single node that held every
    /// covering segment (Definition 1), so the caller recomputes the
    /// final answer from it instead of averaging per-node scalars.
    pub fn range_gather(
        &self,
        request: &Request,
    ) -> Result<(RangeMeta, Option<ShardSummary>), ServiceError> {
        type Part = (RangeMeta, Option<ShardSummary>);
        let accept = |_, response| {
            let Response::Range(answer) = response else {
                return Ok(None);
            };
            // No summary: the node is live but no segment overlaps the
            // window, and its coverage is all zeros.
            let summary = match answer.summary.as_slice() {
                [] => None,
                raw => Some(
                    ShardSummary::decode(raw)
                        .map_err(|e| ServiceError::Protocol(format!("bad range summary: {e}")))?,
                ),
            };
            Ok(Some((answer.meta, summary)))
        };
        let merge = |(meta, merged): &mut Part, (other, summary): Part| {
            meta.segments_merged += other.segments_merged;
            meta.open_included |= other.open_included;
            meta.covered_weight += other.covered_weight;
            // Seq 0 is "covered nothing", not a first seq.
            meta.start_seq = [meta.start_seq, other.start_seq]
                .into_iter()
                .filter(|&seq| seq != 0)
                .min()
                .unwrap_or(0);
            meta.end_seq = meta.end_seq.max(other.end_seq);
            match merged {
                Some(acc) => summary.map_or(Ok(()), |s| merge_summaries(acc, s)),
                None => {
                    *merged = summary;
                    Ok(())
                }
            }
        };
        self.gather_fold(
            &self.slots,
            request,
            accept,
            |(meta, _)| meta.covered_weight,
            merge,
        )?
        .live()
    }

    /// Concatenate every live node's segment report. Node-local segment
    /// ids collide across backends, so entries keep their per-node ids
    /// and `now_micros` takes the max over answering nodes.
    pub fn segment_report(&self) -> Result<SegmentReport, ServiceError> {
        let accept = |response| match response {
            Response::Segments(report) => Some(report),
            _ => None,
        };
        self.fold_nodes(&Request::SegmentInfo, accept, |acc, report| {
            acc.now_micros = acc.now_micros.max(report.now_micros);
            acc.segments.extend(report.segments);
        })
    }

    /// Gather every slot's accuracy audit and merge them like summaries:
    /// weights and envelopes adding, observed error taking the worst. The
    /// merged report's `within_bound` holds only if every contributing
    /// node held its own bound — exactly the paper's claim that merging
    /// costs no accuracy.
    pub fn accuracy_merged(&self) -> Result<AccuracyAudit, ServiceError> {
        let accept = |_, response| match response {
            Response::Accuracy(audit) => Ok(Some(audit)),
            _ => Ok(None),
        };
        let merge = |acc: &mut AccuracyAudit, audit| {
            acc.merge_from(&audit);
            Ok(())
        };
        self.gather_fold(
            &self.slots,
            &Request::AccuracyReport,
            accept,
            |audit| audit.weight,
            merge,
        )?
        .live()
    }

    /// The one gather: send `request` to every live node in `groups`,
    /// let `accept` turn each response into a reply (`None`: not an
    /// answer), and fold the replies with their own `merge`
    /// ([`fold_groups`]). Answers that add across the ring read
    /// `self.slots`; per-process answers go through
    /// [`Coordinator::fold_nodes`].
    fn gather_fold<R>(
        &self,
        groups: &[Vec<usize>],
        request: &Request,
        mut accept: impl FnMut(usize, Response) -> Result<Option<R>, ServiceError>,
        weight: impl Fn(&R) -> u64,
        merge: impl Fn(&mut R, R) -> Result<(), ServiceError>,
    ) -> Result<GatherReport<R>, ServiceError> {
        let live = |member: usize| !self.nodes[member].health.is_dead();
        let ask = |member| match self.scatter_call(member, request) {
            Ok(response) => accept(member, response),
            Err(_) => Ok(None),
        };
        fold_groups(groups, live, ask, weight, merge)
    }

    /// [`Coordinator::gather_fold`] over every live node, each its own
    /// group: nothing to decode, no replica to choose, no merge that can
    /// fail — only "nobody answered" can.
    fn fold_nodes<R>(
        &self,
        request: &Request,
        accept: impl Fn(Response) -> Option<R>,
        merge: impl Fn(&mut R, R),
    ) -> Result<R, ServiceError> {
        let every_node: Vec<Vec<usize>> = (0..self.nodes.len()).map(|n| vec![n]).collect();
        self.gather_fold(
            &every_node,
            request,
            |_, response| Ok(accept(response)),
            |_| 0,
            |acc, reply| {
                merge(acc, reply);
                Ok(())
            },
        )?
        .live()
    }

    /// Is every member of `slot` dead?
    fn slot_dead(&self, slot: usize) -> bool {
        self.slots[slot]
            .iter()
            .all(|&m| self.nodes[m].health.is_dead())
    }

    /// One request/response round-trip to node `idx`, with scatter-byte
    /// accounting on top of [`Coordinator::with_node`]'s health and
    /// latency bookkeeping.
    fn scatter_call(&self, idx: usize, request: &Request) -> Result<Response, ServiceError> {
        self.instruments
            .scatter_bytes
            .add((FRAME_HEADER_LEN + request.wire_len()) as u64);
        let (envelope, _span) = self.leg(idx, request.opcode())?;
        // A typed shed becomes the typed error, so the breaker and every
        // caller see one shape for "this leg delivered nothing".
        self.with_node(idx, |client| {
            match client.call_enveloped(envelope, request)? {
                Response::Overloaded { retry_after_micros } => {
                    Err(ServiceError::Overloaded { retry_after_micros })
                }
                response => Ok(response),
            }
        })
    }

    /// The envelope one backend leg travels in, and the scatter span that
    /// times it. Under a live trace (the server put one up before calling
    /// `handle`) the leg gets its own span and ships the context, so the
    /// backend's request span parents under it; the *decremented* deadline
    /// rides along, so time this coordinator already burned never reaches
    /// the node. Pings and other context-free, deadline-free calls get
    /// the empty envelope — a plain `REQUEST_TAG` frame. A spent deadline
    /// fails the leg locally: the caller has already given up.
    fn leg(
        &self,
        node: usize,
        opcode: u8,
    ) -> Result<(RequestEnvelope, Option<SpanGuard<'_>>), ServiceError> {
        let deadline_micros = deadline::remaining_micros();
        if deadline_micros == Some(0) {
            return Err(ServiceError::Overloaded {
                retry_after_micros: 0,
            });
        }
        let (ctx, span) = tracectx::current()
            .map(|ctx| {
                let leg = self.telemetry.next_span(ctx);
                let mut span = self.scatter_ring.span("scatter");
                span.field(FIELD_TRACE, ctx.trace_id);
                span.field(FIELD_SPAN, leg);
                span.field(FIELD_PARENT, ctx.parent_span);
                span.field("node", node as u64);
                span.field("op", opcode as u64);
                let child = TraceContext {
                    trace_id: ctx.trace_id,
                    parent_span: leg,
                };
                (child, span)
            })
            .unzip();
        Ok((
            RequestEnvelope {
                ctx,
                deadline_micros,
            },
            span,
        ))
    }

    /// Run `f` against node `idx` with the overload plane in front: an
    /// open breaker fails fast (typed [`ServiceError::Overloaded`], no
    /// connection touched, health untouched — backing off says nothing
    /// new about the node), every first attempt funds the retry budget,
    /// and one budget-gated coordinator retry replays transient
    /// *transport* failures. A shed is never retried here: the node
    /// answered and asked for air — an immediate replay would feed the
    /// storm it is shedding.
    fn with_node<T>(
        &self,
        idx: usize,
        f: impl Fn(&mut Client) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let node = &self.nodes[idx];
        if !node.breaker.allow() {
            self.sync_breaker_instruments(idx);
            return Err(ServiceError::Overloaded {
                retry_after_micros: node.breaker.retry_after_micros(),
            });
        }
        self.retry_budget.note_request();
        let mut result = self.attempt(idx, &f);
        if transport_failure(&result) && node.breaker.allow() {
            if self.retry_budget.try_withdraw() {
                self.instruments.retries_granted.add(1);
                result = self.attempt(idx, &f);
            } else {
                self.instruments.retries_denied.add(1);
            }
        }
        self.instruments
            .retry_tokens
            .set(self.retry_budget.tokens() as i64);
        result
    }

    /// One connect-and-call attempt against node `idx`'s client
    /// (connecting lazily), recording latency and translating the outcome
    /// into health and breaker state. Transport failures drop the
    /// connection and count toward death; a refused connect kills the
    /// node immediately (the process is gone, no three-strikes grace
    /// needed). Protocol-level errors mean the node answered, which is a
    /// liveness *success* — but a shed ([`ServiceError::Overloaded`])
    /// still counts against the breaker: the path is alive yet not
    /// delivering work.
    fn attempt<T>(
        &self,
        idx: usize,
        f: &impl Fn(&mut Client) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let node = &self.nodes[idx];
        let mut guard = lock(&node.client);
        if guard.is_none() {
            let addr = lock(&node.addr).clone();
            match Client::connect_with(addr.as_str(), self.client_opts.clone()) {
                Ok(client) => *guard = Some(client),
                Err(e) => {
                    drop(guard);
                    node.failures.fetch_add(1, Ordering::Relaxed);
                    self.instruments.node_failures[idx].add(1);
                    if node.health.mark_dead() {
                        self.telemetry.event("node-dead", &[("node", idx as u64)]);
                    }
                    node.breaker.record(false);
                    self.sync_state_gauge(idx);
                    self.sync_breaker_instruments(idx);
                    return Err(e);
                }
            }
        }
        let client = guard.as_mut().expect("client connected above");
        let (result, micros) = timed(|| f(client));
        let failed = transport_failure(&result);
        let shed = matches!(&result, Err(ServiceError::Overloaded { .. }));
        if failed {
            *guard = None;
        }
        drop(guard);
        self.instruments.node_latency[idx].record(micros);
        if failed {
            node.failures.fetch_add(1, Ordering::Relaxed);
            self.instruments.node_failures[idx].add(1);
            if node.health.failure() {
                self.telemetry.event("node-dead", &[("node", idx as u64)]);
            }
        } else {
            node.requests.fetch_add(1, Ordering::Relaxed);
            if node.health.success() {
                self.telemetry.event("node-rejoin", &[("node", idx as u64)]);
            }
        }
        node.breaker.record(!(failed || shed));
        self.sync_state_gauge(idx);
        self.sync_breaker_instruments(idx);
        result
    }

    fn sync_state_gauge(&self, idx: usize) {
        self.instruments.node_state[idx].set(self.nodes[idx].health.state() as i64);
    }

    fn sync_breaker_instruments(&self, idx: usize) {
        let breaker = &self.nodes[idx].breaker;
        self.instruments.breaker_state[idx].set(breaker.state() as i64);
        let counter = &self.instruments.breaker_trips[idx];
        counter.add(breaker.trips().saturating_sub(counter.get()));
    }

    /// Node `idx`'s breaker state (tests and tooling).
    pub fn breaker_state(&self, idx: usize) -> BreakerState {
        self.nodes[idx].breaker.state()
    }

    /// How many times node `idx`'s breaker has tripped open.
    pub fn breaker_trips(&self, idx: usize) -> u64 {
        self.nodes[idx].breaker.trips()
    }

    /// The coordinator's retry token budget.
    pub fn retry_budget(&self) -> &RetryBudget {
        &self.retry_budget
    }

    /// `Some(shed)` when every node's breaker is open: the cluster-wide
    /// fail-fast, hinting the soonest instant any path lets a probe
    /// through.
    fn all_breakers_open(&self) -> Option<Response> {
        let mut min_retry = u64::MAX;
        for node in &self.nodes {
            if node.breaker.state() != BreakerState::Open {
                return None;
            }
            min_retry = min_retry.min(node.breaker.retry_after_micros());
        }
        Some(Response::Overloaded {
            retry_after_micros: min_retry,
        })
    }
}

impl Service for Coordinator {
    fn handle(&self, request: Request) -> Response {
        // When every path is failing fast there is no point scattering:
        // answer the typed shed with the soonest half-open instant.
        // Control opcodes still flow — observability must keep working
        // in the middle of the storm it exists to explain.
        if OpClass::of(request.opcode()) != OpClass::Control {
            if let Some(shed) = self.all_breakers_open() {
                return shed;
            }
        }
        match request {
            Request::Ping => Response::Ok,
            Request::Ingest(items) => self
                .ingest(&items)
                .map_or_else(Into::into, |()| Response::Ok),
            Request::Flush => self.flush().map_or_else(Into::into, |()| Response::Ok),
            Request::Point(_)
            | Request::HeavyHitters(_)
            | Request::Rank(_)
            | Request::Quantile(_) => answer_query(&request, || self.gather_summary()),
            Request::Metrics => self.metrics().map_or_else(Into::into, Response::Metrics),
            Request::Summary => self
                .gather_summary()
                .map_or_else(Into::into, |s| Response::Summary(s.encode())),
            Request::Telemetry => Response::Telemetry(self.telemetry_merged()),
            Request::ClusterInfo => Response::Cluster(self.cluster_info()),
            Request::NodeSummary(idx) => self
                .node_summary(idx)
                .map_or_else(Into::into, Response::Summary),
            Request::RangeQuantile { phi, .. } | Request::RangeHeavyHitters { phi, .. } => {
                answer_range(phi, || self.range_gather(&request))
            }
            Request::SegmentInfo => self
                .segment_report()
                .map_or_else(Into::into, Response::Segments),
            // The coordinator answers with its *own* rings (request and
            // scatter spans); tooling pulls each backend's rings directly
            // and stitches the processes together by trace id.
            Request::TraceDump => Response::Trace(self.telemetry.trace_report()),
            Request::AccuracyReport => self
                .accuracy_merged()
                .map_or_else(Into::into, Response::Accuracy),
        }
    }

    fn telemetry(&self) -> &Arc<EngineTelemetry> {
        &self.telemetry
    }

    fn record_rejected_frame(&self) {
        self.telemetry.event("frame-rejected", &[]);
    }

    fn shutdown(&self) {
        Coordinator::shutdown(self);
    }

    fn abort(&self) {
        // The coordinator holds no durable state of its own: abort and
        // graceful shutdown both just stop the pinger.
        Coordinator::shutdown(self);
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn ping_loop(
    coordinator: Weak<Coordinator>,
    signal: Arc<(Mutex<bool>, Condvar)>,
    interval: Duration,
) {
    let (stop, cvar) = &*signal;
    loop {
        {
            let guard = lock(stop);
            let (guard, _) = cvar
                .wait_timeout(guard, interval)
                .unwrap_or_else(|p| p.into_inner());
            if *guard {
                return;
            }
        }
        let Some(coordinator) = coordinator.upgrade() else {
            return;
        };
        for idx in 0..coordinator.nodes.len() {
            // Ping everyone, dead nodes included: a successful ping is
            // exactly how a silently-restarted node rejoins.
            let _ = coordinator.scatter_call(idx, &Request::Ping);
        }
    }
}

/// The leg never completed a round-trip (as opposed to the node answering
/// with an error, which proves it alive).
fn transport_failure<T>(result: &Result<T, ServiceError>) -> bool {
    matches!(
        result,
        Err(ServiceError::Io { .. } | ServiceError::Timeout { .. } | ServiceError::Wire(_))
    )
}

/// Scatter to `groups` of nodes and fold the replies: dead members are
/// skipped, a silent one (`ask` returned `None`) is passed over, and each
/// group contributes exactly **one** reply — the heavier, when replicas
/// diverge. Merges are additive, not idempotent, so folding both members
/// of a pair would double-count their range; the heavier member saw every
/// write the lighter one saw, plus those delivered while the lighter one
/// was down. A group with no reply is dark, not fatal: the fold of the
/// rest is a valid answer over the surviving updates (Definition 1). An
/// `ask` or `merge` error is fatal and surfaces typed.
fn fold_groups<R>(
    groups: &[Vec<usize>],
    live: impl Fn(usize) -> bool,
    mut ask: impl FnMut(usize) -> Result<Option<R>, ServiceError>,
    weight: impl Fn(&R) -> u64,
    merge: impl Fn(&mut R, R) -> Result<(), ServiceError>,
) -> Result<GatherReport<R>, ServiceError> {
    let mut report = GatherReport {
        summary: None,
        answered: 0,
        dark_slots: 0,
        fanout: 0,
        coverage: 0.0,
    };
    for members in groups {
        let mut best: Option<R> = None;
        for &member in members.iter().filter(|&&m| live(m)) {
            report.fanout += 1;
            if let Some(reply) = ask(member)? {
                if best.as_ref().is_none_or(|b| weight(b) < weight(&reply)) {
                    best = Some(reply);
                }
            }
        }
        match (best, &mut report.summary) {
            (None, _) => report.dark_slots += 1,
            (Some(reply), None) => report.summary = Some(reply),
            (Some(reply), Some(acc)) => merge(acc, reply)?,
        }
    }
    report.answered = groups.len() - report.dark_slots;
    report.coverage = report.answered as f64 / groups.len() as f64;
    Ok(report)
}

/// The summaries' own merge, as a gather's fold step.
fn merge_summaries(acc: &mut ShardSummary, other: ShardSummary) -> Result<(), ServiceError> {
    acc.merge_in_place(other)
        .map_err(|e| ServiceError::Protocol(format!("gather merge: {e}")))
}

fn no_live_backend() -> ServiceError {
    ServiceError::Io {
        kind: std::io::ErrorKind::NotConnected,
        detail: "no live backend node".to_string(),
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Exact wire size of an `Ingest` request frame for `items`, matching
/// `Client::ingest_slice`'s encoding without re-serializing the batch.
fn ingest_frame_bytes(items: &[u64]) -> u64 {
    let mut n = (FRAME_HEADER_LEN + 1) as u64 + varint_len(items.len() as u64);
    for &item in items {
        n += varint_len(item);
    }
    n
}

/// Encoded length of one LEB128 varint.
fn varint_len(v: u64) -> u64 {
    u64::from(64 - (v | 1).leading_zeros()).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_len_matches_encoder() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            ms_core::wire::put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len() as u64, "v={v}");
        }
    }

    #[test]
    fn ingest_frame_bytes_matches_wire_encoding() {
        let items = [0u64, 1, 300, 1 << 20, u64::MAX];
        let frame = ms_core::WireFrame::from_value(
            ms_service::REQUEST_TAG,
            &Request::Ingest(items.to_vec()),
        )
        .to_bytes();
        assert_eq!(ingest_frame_bytes(&items), frame.len() as u64);
    }

    /// One scripted backend leg for [`fold_groups`].
    #[derive(Clone, Copy)]
    enum Leg {
        Dead,
        Silent,
        Weighs(u64),
        Fails,
    }
    use Leg::*;

    /// What the fold made of a script: (merged weight, answered, dark, fanout).
    type Folded = Result<(Option<u64>, usize, usize, usize), ServiceError>;

    fn fold(legs: &[Leg], groups: &[Vec<usize>]) -> Folded {
        fold_groups(
            groups,
            |node| !matches!(legs[node], Dead),
            |node| match legs[node] {
                Dead => panic!("asked dead node {node}"),
                Silent => Ok(None),
                Weighs(w) => Ok(Some(w)),
                Fails => Err(ServiceError::Protocol("bad reply".to_string())),
            },
            |&w| w,
            |acc, w| {
                *acc = acc
                    .checked_add(w)
                    .ok_or_else(|| ServiceError::Protocol("merge overflow".to_string()))?;
                Ok(())
            },
        )
        .map(|r| {
            assert_eq!(r.coverage, r.answered as f64 / groups.len() as f64);
            (r.summary, r.answered, r.dark_slots, r.fanout)
        })
    }

    #[test]
    fn fold_groups_states_the_gather_rules() {
        let pairs = [vec![0, 1], vec![2, 3]];
        let singles = [vec![0], vec![1], vec![2]];
        // The heavier member of a diverged slot wins, whichever answers first.
        let diverged = [Weighs(70), Weighs(90), Weighs(40), Weighs(10)];
        assert_eq!(fold(&diverged, &pairs), Ok((Some(130), 2, 0, 4)));
        // A dead member is never asked, a silent one is passed over.
        let degraded = [Dead, Weighs(5), Weighs(8), Silent];
        assert_eq!(fold(&degraded, &pairs), Ok((Some(13), 2, 0, 3)));
        // A slot with no live answer is dark, not fatal.
        let half_dark = [Weighs(7), Weighs(7), Dead, Silent];
        assert_eq!(fold(&half_dark, &pairs), Ok((Some(7), 1, 1, 3)));
        // Every live node contributes when each is its own group.
        let nodes = [Weighs(1), Weighs(2), Weighs(4)];
        assert_eq!(fold(&nodes, &singles), Ok((Some(7), 3, 0, 3)));
        // All dead: nothing merged — the typed "no live backend" to a
        // caller that needs an answer.
        assert_eq!(fold(&[Dead; 3], &singles), Ok((None, 0, 3, 0)));
        let nothing = fold_groups(&singles, |_| false, |_| Ok(Some(0)), |&w| w, |_, _| Ok(()));
        assert_eq!(nothing.unwrap().live(), Err(no_live_backend()));
        // A fatal leg and a failed merge both surface typed.
        let bad_reply = Err(ServiceError::Protocol("bad reply".to_string()));
        assert_eq!(fold(&[Weighs(1), Fails, Weighs(4)], &singles), bad_reply);
        let overflow = Err(ServiceError::Protocol("merge overflow".to_string()));
        assert_eq!(
            fold(&[Weighs(u64::MAX), Weighs(1), Silent], &singles),
            overflow
        );
    }

    #[test]
    fn config_rejects_odd_replica_count() {
        let cfg = ClusterConfig::new(["a:1", "b:2", "c:3"]).replicas(true);
        assert!(Coordinator::start(cfg).is_err());
    }

    #[test]
    fn config_rejects_empty_node_list() {
        let cfg = ClusterConfig::new(Vec::<String>::new());
        assert!(Coordinator::start(cfg).is_err());
    }
}
