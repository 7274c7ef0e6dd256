//! The coordinator: N independent `ms-service` nodes behind one
//! [`Service`].
//!
//! The coordinator is a node of the merge tree, not a partitioner. By
//! the paper's Definition 1 *any* split of the stream merges to the same
//! `εn` bound, so an ingest batch is forwarded **whole** to one slot —
//! the ring ([`HashRing`]) is asked for a batch counter's home, not for
//! each key's — and queries scatter to every live node, gather per-node
//! summaries, and merge them **one-shot**: federation costs no accuracy
//! and one downstream round trip per batch. Membership ([`NodeHealth`])
//! turns request outcomes and periodic pings into one alive/suspect/dead
//! state per node, and that state alone decides routing, gathers and
//! retries; a dead slot's share of the batches drains to the survivors
//! through the ring's liveness-aware routing and returns the moment the
//! node rejoins.
//!
//! With `replicas` on, consecutive nodes form **pairs** that both
//! receive every write for their slot, so a single death never blanks
//! it; reads take one member per slot (`fold_groups` says which and why).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ms_core::wire::FRAME_HEADER_LEN;
use ms_core::{lock, ServiceError, Summary, Wire};
use ms_obs::{Counter, Gauge, Histogram, RegistrySnapshot, SpanGuard, TraceHandle};
use ms_service::deadline;
use ms_service::telemetry::timed;
use ms_service::tracectx::{self, FIELD_PARENT, FIELD_SPAN, FIELD_TRACE};
use ms_service::{
    answer_query, answer_range, AccuracyAudit, Client, ClientOptions, ClusterInfo, EngineTelemetry,
    IngestFrame, MetricsReport, NodeInfo, RangeMeta, Request, RequestEnvelope, Response,
    SegmentReport, Service, ShardSummary, TraceContext,
};

use crate::config::ClusterConfig;
use crate::membership::NodeHealth;
use crate::retry::RetryBudget;
use crate::ring::HashRing;

/// One backend node as the coordinator sees it.
struct Node {
    addr: Mutex<String>,
    /// Lazily-connected client; dropped on any transport failure so a
    /// poisoned connection is never reused.
    client: Mutex<Option<Client>>,
    health: NodeHealth,
    requests: AtomicU64,
    failures: AtomicU64,
    /// Total weight of this node's summary at the last gather.
    last_weight: AtomicU64,
}

/// One gather leg between its send and its reply.
struct Flight<'a> {
    /// The node's client lock, held across both halves.
    client: MutexGuard<'a, Option<Client>>,
    /// The scatter span, open until the reply lands.
    _span: Option<SpanGuard<'a>>,
    envelope: RequestEnvelope,
    started: Instant,
    /// Outer error: the connect failed (and is already booked against the
    /// node). Inner: what the write made of it, booked when it lands.
    sent: Result<Result<(), ServiceError>, ServiceError>,
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
    /// partial gather (a slow node went dead, a leg shed) is a
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
    /// The next ingest batch's key on the ring: a counter, started at the
    /// seed — the ring's own points are the hashes of small integers, so
    /// a count from 0 would sit its first `vnodes` batches exactly on
    /// slot 0's points.
    batches: AtomicU64,
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
        let telemetry = Arc::new(EngineTelemetry::new(0, true, cfg.seed));
        let scatter_ring = telemetry.recorder().register("scatter");
        let registry = telemetry.registry();
        let per_node = |name: &str| -> Vec<String> {
            (0..cfg.nodes.len())
                .map(|n| format!("{name}{{node=\"{n}\"}}"))
                .collect()
        };
        let instruments = Instruments {
            node_latency: per_node("node_request_micros")
                .iter()
                .map(|n| registry.histogram(n))
                .collect(),
            node_state: per_node("node_state")
                .iter()
                .map(|n| registry.gauge(n))
                .collect(),
            node_failures: per_node("node_failures_total")
                .iter()
                .map(|n| registry.counter(n))
                .collect(),
            gather_fanout: registry.histogram("gather_fanout"),
            scatter_bytes: registry.counter("scatter_bytes_total"),
            gather_bytes: registry.counter("gather_bytes_total"),
            rebalances: registry.counter("ring_rebalances_total"),
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
                health: NodeHealth::new(cfg.dead_after),
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
            batches: AtomicU64::new(cfg.seed),
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

    /// Encode `items` once and [`Coordinator::forward`] the frame.
    pub fn ingest(&self, items: &[u64]) -> Result<(), ServiceError> {
        self.forward(&IngestFrame::encode(Vec::new(), items))
    }

    /// Forward a batch whole to one slot, as the bytes it already is: a
    /// coordinator never looks inside a batch, so it holds the validated
    /// frame and no items. What the ring routes is the batch — its key is
    /// this coordinator's batch counter — because no query reads a key
    /// partition: every answer is a merge over all slots, and the merge
    /// holds `εn` for any split (Definition 1). With
    /// replicas every live member of the slot receives the batch
    /// (delivery succeeds when at least one member takes it). A batch
    /// whose slot refuses it walks on round the ring to the next live
    /// slot, so a node death during ingest loses at most the in-flight
    /// frames the retry layer could not confirm; a batch that lands
    /// anywhere but its home slot counts, once, as a rebalance.
    pub fn forward(&self, frame: &IngestFrame) -> Result<(), ServiceError> {
        if frame.is_empty() {
            return Ok(());
        }
        let key = self.batches.fetch_add(1, Ordering::Relaxed);
        let dead = |slot| self.slot_dead(slot);
        if route_frame(&self.ring, key, dead, |slot| self.send_batch(slot, frame))? {
            self.rebalanced_batches.fetch_add(1, Ordering::Relaxed);
            self.instruments.rebalances.add(1);
        }
        Ok(())
    }

    /// Send one batch to every live member of `slot`. Returns whether
    /// at least one member accepted it; transport failures mark the
    /// member's health and are otherwise swallowed here (the caller
    /// walks on). An ingest is never replayed: a leg that timed out
    /// after its frame was written may yet be absorbed, so it gets no
    /// coordinator retry, and unless another member took the batch the
    /// timeout reaches the caller instead of sending the batch on.
    fn send_batch(&self, slot: usize, frame: &IngestFrame) -> Result<bool, ServiceError> {
        let mut delivered = false;
        let mut last_err: Option<ServiceError> = None;
        for &member in &self.slots[slot] {
            if self.nodes[member].health.is_dead() {
                continue;
            }
            // Ingest legs join the live trace and carry the remaining
            // deadline exactly as query legs do; a spent budget sheds the
            // batch before any backend sees the frame.
            let result = self
                .leg(member, Request::Ingest(Vec::new()).opcode())
                .and_then(|(envelope, _span)| {
                    let send = |client: &mut Client| {
                        let result = client.ingest_frame_enveloped(envelope, frame);
                        self.count_scatter(client);
                        result
                    };
                    self.attempt(member, &mut lock(&self.nodes[member].client), &send)
                });
            // A timeout outranks another member's error: the batch may be
            // in, and that is what the caller must hear.
            match (result, &last_err) {
                (Ok(()), _) => delivered = true,
                (Err(_), Some(ServiceError::Timeout { .. })) => {}
                (Err(e), _) => last_err = Some(e),
            }
        }
        match (delivered, last_err) {
            (true, _) => Ok(true),
            // A shed is not a death: rerouting the batch would aim the
            // same storm at the next node, so surface it typed instead.
            // A timed-out batch may already be absorbed: sending it on
            // could count it twice.
            (false, Some(e @ (ServiceError::Overloaded { .. } | ServiceError::Timeout { .. }))) => {
                Err(e)
            }
            (false, Some(e)) if e.is_transient() => Ok(false), // walk on
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
            bytes += (FRAME_HEADER_LEN + 1 + raw.len().wire_len() + raw.len()) as u64;
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
        if self.nodes[idx].health.is_dead() {
            return Err(no_live_backend());
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
    /// node before it started listening. On failure the node is booked
    /// like any other failed request, so a dead node stays dead.
    pub fn rejoin(&self, idx: usize, addr: Option<&str>) -> Result<(), ServiceError> {
        let node = self
            .nodes
            .get(idx)
            .ok_or(ServiceError::Config("rejoin index out of range"))?;
        if let Some(addr) = addr {
            *lock(&node.addr) = addr.to_string();
        }
        let mut client = lock(&node.client);
        *client = None;
        match self.attempt(idx, &mut client, &|c| c.call(&Request::Ping))? {
            Response::Ok => Ok(()),
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

    /// The one gather: send `request` to every live node in `groups`
    /// before reading any reply ([`Coordinator::launch`], then
    /// [`Coordinator::land`]), let `accept` turn each response into a
    /// reply (`None`: not an answer), and fold the replies with their own
    /// `merge` ([`fold_groups`]). Answers that add across the ring read
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
        let land = |member, flight| match self.land(member, flight, request) {
            Ok(response) => accept(member, response),
            Err(_) => Ok(None),
        };
        let launch = |member| self.launch(member, request);
        fold_groups(groups, live, launch, land, weight, merge)
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

    /// One request/response round-trip to node `idx`: a gather of one leg.
    fn scatter_call(&self, idx: usize, request: &Request) -> Result<Response, ServiceError> {
        self.land(idx, self.launch(idx, request), request)
    }

    /// `request` out and its reply back on `client`, as one blocking call.
    fn round_trip(
        &self,
        client: &mut Client,
        envelope: RequestEnvelope,
        request: &Request,
    ) -> Result<Response, ServiceError> {
        let reply = client.call_enveloped(envelope, request);
        self.count_scatter(client);
        reply.and_then(typed_shed)
    }

    /// Scatter-byte accounting: the request frame `client` just wrote.
    fn count_scatter(&self, client: &Client) {
        self.instruments
            .scatter_bytes
            .add(client.last_frame_len() as u64);
    }

    /// The send half of one query leg: write `request` to node `idx` and
    /// return with the reply still to come, holding the node's client
    /// lock so nothing else can interleave on the connection. A gather
    /// launches its legs in node-index order and never re-takes a lock it
    /// let go, so two gathers cannot deadlock on each other's flights.
    fn launch(&self, idx: usize, request: &Request) -> Result<Flight<'_>, ServiceError> {
        let (envelope, span) = self.leg(idx, request.opcode())?;
        let mut client = lock(&self.nodes[idx].client);
        let started = Instant::now();
        let sent = self.connect(idx, &mut client).map(|client| {
            let sent = client.send_enveloped(envelope, request);
            self.count_scatter(client);
            sent
        });
        Ok(Flight {
            client,
            _span: span,
            envelope,
            started,
            sent,
        })
    }

    /// The receive half: read the reply a [`Coordinator::launch`] left in
    /// flight and book the exchange exactly as a blocking
    /// [`Coordinator::attempt`] would have — a leg that died between its
    /// send and its reply is a transport failure like any other, and gets
    /// the same budget-gated retry (a whole round trip this time).
    fn land(
        &self,
        idx: usize,
        flight: Result<Flight<'_>, ServiceError>,
        request: &Request,
    ) -> Result<Response, ServiceError> {
        let mut flight = flight?;
        let first = flight.sent.and_then(|sent| {
            let reply = sent
                .and_then(|()| flight.client.as_mut().expect("sent on it").read_response())
                .and_then(typed_shed);
            let micros = flight.started.elapsed().as_micros() as u64;
            self.settle(idx, &mut flight.client, reply, micros)
        });
        self.retry(idx, &mut flight.client, first, &|client| {
            self.round_trip(client, flight.envelope, request)
        })
    }

    /// The gate in front of every backend leg, the envelope the leg
    /// travels in, and the scatter span that times it. A spent deadline
    /// fails the leg locally — typed [`ServiceError::Overloaded`], no
    /// connection touched, health untouched: the caller has already given
    /// up, which says nothing about the node. Every leg that passes funds
    /// the retry budget.
    /// Under a live trace (the server put one up before calling `handle`)
    /// the leg gets its own span and ships the context, so the backend's
    /// request span parents under it; the *decremented* deadline rides
    /// along, so time this coordinator already burned never reaches the
    /// node. Pings and other context-free, deadline-free calls get the
    /// empty envelope — a plain `REQUEST_TAG` frame.
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
        self.retry_budget.note_request();
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

    /// One budget-gated coordinator retry replays a transient
    /// *transport* failure, unless that failure left the node dead. A
    /// shed is never retried here: the node answered and asked for air —
    /// an immediate replay would feed the storm it is shedding.
    fn retry<T>(
        &self,
        idx: usize,
        client: &mut Option<Client>,
        mut result: Result<T, ServiceError>,
        f: &impl Fn(&mut Client) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        if transport_failure(&result) && !self.nodes[idx].health.is_dead() {
            if self.retry_budget.try_withdraw() {
                self.instruments.retries_granted.add(1);
                result = self.attempt(idx, client, f);
            } else {
                self.instruments.retries_denied.add(1);
            }
        }
        self.instruments
            .retry_tokens
            .set(self.retry_budget.tokens() as i64);
        result
    }

    /// One connect-and-call attempt on node `idx`'s (locked) client.
    fn attempt<T>(
        &self,
        idx: usize,
        client: &mut Option<Client>,
        f: &impl Fn(&mut Client) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let connected = self.connect(idx, client)?;
        let (result, micros) = timed(|| f(connected));
        self.settle(idx, client, result, micros)
    }

    /// Node `idx`'s client, connecting lazily. A refused connect kills
    /// the node immediately (the process is gone, no three-strikes grace
    /// needed).
    fn connect<'c>(
        &self,
        idx: usize,
        client: &'c mut Option<Client>,
    ) -> Result<&'c mut Client, ServiceError> {
        if client.is_none() {
            let node = &self.nodes[idx];
            let addr = lock(&node.addr).clone();
            match Client::connect_with(addr.as_str(), self.client_opts.clone()) {
                Ok(connected) => *client = Some(connected),
                Err(e) => {
                    node.failures.fetch_add(1, Ordering::Relaxed);
                    self.instruments.node_failures[idx].add(1);
                    if node.health.mark_dead() {
                        self.telemetry.event("node-dead", &[("node", idx as u64)]);
                    }
                    self.sync_state_gauge(idx);
                    return Err(e);
                }
            }
        }
        Ok(client.as_mut().expect("client connected above"))
    }

    /// Book one finished exchange with node `idx`: its latency, and its
    /// outcome into the node's health. Transport failures drop the
    /// connection (a poisoned one is never reused) and count toward
    /// death. Any reply means the node answered, which is a liveness
    /// *success* — a shed ([`ServiceError::Overloaded`]) included, which
    /// reaches the caller typed with the node's own retry hint.
    fn settle<T>(
        &self,
        idx: usize,
        client: &mut Option<Client>,
        result: Result<T, ServiceError>,
        micros: u64,
    ) -> Result<T, ServiceError> {
        let node = &self.nodes[idx];
        self.instruments.node_latency[idx].record(micros);
        if transport_failure(&result) {
            *client = None;
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
        self.sync_state_gauge(idx);
        result
    }

    fn sync_state_gauge(&self, idx: usize) {
        self.instruments.node_state[idx].set(self.nodes[idx].health.state() as i64);
    }

    /// The coordinator's retry token budget.
    pub fn retry_budget(&self) -> &RetryBudget {
        &self.retry_budget
    }
}

impl Service for Coordinator {
    fn handle(&self, request: Request) -> Response {
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

    fn ingest_frame(&self, frame: &IngestFrame) -> Response {
        self.forward(frame)
            .map_or_else(Into::into, |()| Response::Ok)
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

/// A typed shed becomes the typed error, so every caller sees one shape
/// for "this leg delivered nothing".
fn typed_shed(response: Response) -> Result<Response, ServiceError> {
    match response {
        Response::Overloaded { retry_after_micros } => {
            Err(ServiceError::Overloaded { retry_after_micros })
        }
        response => Ok(response),
    }
}

/// Deliver one batch: offer it to the first live slot at or after `key`
/// on the ring until one takes it (`send` says `true`). A slot that
/// refused has as a rule just been found dead, so the same key then walks
/// past it — that walk *is* the rebalance. `Ok(true)` when the batch
/// landed anywhere but its home, the slot that owns `key` with every slot
/// alive; the typed "no live backend" once every slot has had its offer.
fn route_frame(
    ring: &HashRing,
    key: u64,
    dead: impl Fn(usize) -> bool,
    mut send: impl FnMut(usize) -> Result<bool, ServiceError>,
) -> Result<bool, ServiceError> {
    for _ in 0..ring.slots() {
        let slot = ring.route(key, &dead).ok_or_else(no_live_backend)?;
        if send(slot)? {
            return Ok(slot != ring.slot_of(key));
        }
    }
    Err(no_live_backend())
}

/// Scatter to `groups` of nodes and fold the replies. Every live member
/// is `launch`ed — sent its request, in the order given, which is node
/// index order — before any reply is `land`ed, so the nodes work at the
/// same time and a gather costs one round trip, not one per node; every
/// flight is then landed, even past an error, because a reply left
/// unread would answer that connection's next request. Dead members are
/// skipped, a silent one (`land` returned `None`: it shed, or died after
/// its send) is passed over, and each group contributes exactly **one**
/// reply — the heavier, when replicas diverge. Merges are additive, not
/// idempotent, so folding both members of a pair would double-count
/// their share; the heavier member saw every write the lighter one saw,
/// plus those delivered while the lighter one was down. A group with no
/// reply is dark, not fatal: the fold of the rest is a valid answer over
/// the surviving updates (Definition 1). A `land` or `merge` error is
/// fatal and surfaces typed.
fn fold_groups<F, R>(
    groups: &[Vec<usize>],
    live: impl Fn(usize) -> bool,
    mut launch: impl FnMut(usize) -> F,
    mut land: impl FnMut(usize, F) -> Result<Option<R>, ServiceError>,
    weight: impl Fn(&R) -> u64,
    merge: impl Fn(&mut R, R) -> Result<(), ServiceError>,
) -> Result<GatherReport<R>, ServiceError> {
    let mut flights = Vec::new();
    for (group, members) in groups.iter().enumerate() {
        for &member in members.iter().filter(|&&m| live(m)) {
            flights.push((group, member, launch(member)));
        }
    }
    debug_assert!(flights.windows(2).all(|w| w[0].1 < w[1].1));
    let fanout = flights.len();
    let replies: Vec<_> = flights
        .into_iter()
        .map(|(group, member, flight)| (group, land(member, flight)))
        .collect();
    let mut best: Vec<Option<R>> = groups.iter().map(|_| None).collect();
    for (group, reply) in replies {
        if let Some(reply) = reply? {
            if best[group]
                .as_ref()
                .is_none_or(|b| weight(b) < weight(&reply))
            {
                best[group] = Some(reply);
            }
        }
    }
    let mut summary: Option<R> = None;
    let mut dark_slots = 0;
    for reply in best {
        match (reply, &mut summary) {
            (None, _) => dark_slots += 1,
            (Some(reply), None) => summary = Some(reply),
            (Some(reply), Some(acc)) => merge(acc, reply)?,
        }
    }
    let answered = groups.len() - dark_slots;
    Ok(GatherReport {
        summary,
        answered,
        dark_slots,
        fanout,
        coverage: answered as f64 / groups.len() as f64,
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use ms_service::Server;

    /// One scripted backend leg for [`fold_groups`].
    #[derive(Clone, Copy)]
    enum Leg {
        Dead,
        /// Answers, but not with an answer (a shed, say).
        Silent,
        /// Takes its request and is gone before the reply.
        DiesAfterSend,
        Weighs(u64),
        Fails,
    }
    use Leg::*;

    /// What a scripted gather did on the wire, in order.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Io {
        Sent(usize),
        Read(usize),
    }
    use Io::*;

    /// What the fold made of a script: (merged weight, answered, dark, fanout).
    type Folded = Result<(Option<u64>, usize, usize, usize), ServiceError>;

    fn fold_logged(legs: &[Leg], groups: &[Vec<usize>]) -> (Folded, Vec<Io>) {
        let log = std::cell::RefCell::new(Vec::new());
        let folded = fold_groups(
            groups,
            |node| !matches!(legs[node], Dead),
            |node| {
                assert!(!matches!(legs[node], Dead), "asked dead node {node}");
                log.borrow_mut().push(Sent(node));
            },
            |node, ()| {
                log.borrow_mut().push(Read(node));
                match legs[node] {
                    Dead => unreachable!("never launched"),
                    Silent | DiesAfterSend => Ok(None),
                    Weighs(w) => Ok(Some(w)),
                    Fails => Err(ServiceError::Protocol("bad reply".to_string())),
                }
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
        });
        (folded, log.into_inner())
    }

    fn fold(legs: &[Leg], groups: &[Vec<usize>]) -> Folded {
        let (folded, log) = fold_logged(legs, groups);
        // The overlap: no reply is read until every request is out, and
        // every request that went out has its reply read — in node order
        // both times — whatever any leg answered.
        let live: Vec<usize> = (0..legs.len())
            .filter(|&n| !matches!(legs[n], Dead) && groups.iter().any(|g| g.contains(&n)))
            .collect();
        let sends = live.iter().map(|&n| Sent(n));
        let reads = live.iter().map(|&n| Read(n));
        assert_eq!(log, sends.chain(reads).collect::<Vec<_>>());
        folded
    }

    #[test]
    fn fold_groups_states_the_gather_rules() {
        let pairs = [vec![0, 1], vec![2, 3]];
        let singles = [vec![0], vec![1], vec![2]];
        // Every live member is sent to before any reply is read.
        let (_, log) = fold_logged(&[Weighs(1), Weighs(2), Weighs(4)], &singles);
        assert_eq!(log, [Sent(0), Sent(1), Sent(2), Read(0), Read(1), Read(2)]);
        // The heavier member of a diverged slot wins, whichever answers first.
        let diverged = [Weighs(70), Weighs(90), Weighs(40), Weighs(10)];
        assert_eq!(fold(&diverged, &pairs), Ok((Some(130), 2, 0, 4)));
        // A dead member is never asked, a silent one is passed over.
        let degraded = [Dead, Weighs(5), Weighs(8), Silent];
        assert_eq!(fold(&degraded, &pairs), Ok((Some(13), 2, 0, 3)));
        // A leg that dies after its send is dark, not fatal — alone in its
        // slot or beside a partner that answers.
        let dies = [Weighs(3), DiesAfterSend, DiesAfterSend, Dead];
        assert_eq!(fold(&dies, &pairs), Ok((Some(3), 1, 1, 3)));
        // A slot with no live answer is dark, not fatal.
        let half_dark = [Weighs(7), Weighs(7), Dead, Silent];
        assert_eq!(fold(&half_dark, &pairs), Ok((Some(7), 1, 1, 3)));
        // Every live node contributes when each is its own group.
        let nodes = [Weighs(1), Weighs(2), Weighs(4)];
        assert_eq!(fold(&nodes, &singles), Ok((Some(7), 3, 0, 3)));
        // All dead: nothing sent, nothing merged — the typed "no live
        // backend" to a caller that needs an answer.
        assert_eq!(fold(&[Dead; 3], &singles), Ok((None, 0, 3, 0)));
        let nothing = fold_groups(
            &singles,
            |_| false,
            |_| (),
            |_, ()| Ok(Some(0)),
            |&w| w,
            |_, _| Ok(()),
        );
        assert_eq!(nothing.unwrap().live(), Err(no_live_backend()));
        // A fatal leg and a failed merge both surface typed — after every
        // reply in flight has been read (`fold` checks the log).
        let bad_reply = Err(ServiceError::Protocol("bad reply".to_string()));
        assert_eq!(fold(&[Weighs(1), Fails, Weighs(4)], &singles), bad_reply);
        let overflow = Err(ServiceError::Protocol("merge overflow".to_string()));
        assert_eq!(
            fold(&[Weighs(u64::MAX), Weighs(1), Silent], &singles),
            overflow
        );
    }

    /// Three real backends behind a coordinator that learns of a death
    /// only from a failed request (no pinger, dead on the first failure).
    fn three_nodes() -> (Vec<Option<Server>>, Arc<Coordinator>) {
        let servers: Vec<Option<Server>> = (0..3)
            .map(|_| {
                let cfg = ms_service::ServiceConfig::new(ms_service::SummaryKind::Mg, 0.01);
                let engine = ms_service::Engine::start(cfg.shards(1)).unwrap();
                Some(Server::bind(engine, "127.0.0.1:0").unwrap())
            })
            .collect();
        let addrs = servers
            .iter()
            .map(|s| s.as_ref().unwrap().local_addr().to_string());
        let cfg = ClusterConfig::new(addrs)
            .client_options(ClientOptions {
                retries: 0,
                ..ClientOptions::default()
            })
            .ping_interval(None)
            .dead_after(1);
        (servers, Coordinator::start(cfg).unwrap())
    }

    #[test]
    fn rebalanced_batches_counts_batches_not_hops() {
        let (mut servers, coordinator) = three_nodes();
        let defaults = ClusterConfig::new(["x"]);
        let ring = HashRing::new(3, defaults.vnodes);
        let key = |batch: u64| defaults.seed + batch;
        let rebalanced = || coordinator.cluster_info().rebalanced_batches;
        // Batch 0, every slot alive: delivered home.
        coordinator.ingest(&[1, 2, 3]).unwrap();
        assert_eq!(rebalanced(), 0);
        // Batch 1: its home and the slot the ring walks to next both die
        // unnoticed. Two refused hops, one batch off its home slot.
        let home = ring.slot_of(key(1));
        let next = ring.route(key(1), |s| s == home).unwrap();
        for victim in [home, next] {
            servers[victim].take().unwrap().kill();
        }
        coordinator.ingest(&[4, 5, 6]).unwrap();
        assert_eq!(rebalanced(), 1);
        // From here the deaths are known and nothing hops: a batch whose
        // home is dead counts once, one whose home is the survivor does not.
        let mut want = 1;
        for batch in 2..12 {
            coordinator.ingest(&[batch]).unwrap();
            want += u64::from([home, next].contains(&ring.slot_of(key(batch))));
            assert_eq!(rebalanced(), want, "batch {batch}");
        }
        assert!((2..11).contains(&want), "both cases exercised: {want}");
        // Every batch acked since the deaths is on the survivor, whole
        // (batch 0 too, unless it went down with its home).
        coordinator.flush().unwrap();
        let report = coordinator.gather().unwrap();
        assert_eq!((report.answered, report.dark_slots), (1, 2));
        let lost = 3 * u64::from([home, next].contains(&ring.slot_of(key(0))));
        assert_eq!(report.summary.unwrap().total_weight(), 16 - lost);
        coordinator.shutdown();
        for server in servers.into_iter().flatten() {
            server.stop();
        }
    }

    #[test]
    fn route_frame_walks_the_ring_once_round() {
        let ring = HashRing::new(3, 8);
        let home = ring.slot_of(5);
        // A refused offer that leaves the slot alive is offered again —
        // the walk is bounded by the slot count, not by the refusals.
        let offers = std::cell::Cell::new(0);
        let refused = route_frame(
            &ring,
            5,
            |_| false,
            |slot| {
                assert_eq!(slot, home);
                offers.set(offers.get() + 1);
                Ok(false)
            },
        );
        assert_eq!((refused, offers.get()), (Err(no_live_backend()), 3));
        // Nothing alive: no offer at all.
        let none = route_frame(&ring, 5, |_| true, |_| panic!("offered to a dead slot"));
        assert_eq!(none, Err(no_live_backend()));
        // A refusal that is an answer (a shed) ends the walk typed.
        let shed = ServiceError::Overloaded {
            retry_after_micros: 7,
        };
        assert_eq!(
            route_frame(&ring, 5, |_| false, |_| Err(shed.clone())),
            Err(shed)
        );
    }

    #[test]
    fn every_node_dead_answers_no_live_backend() {
        // Nothing listens at the address: the first connect kills the node.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let cfg = ClusterConfig::new([addr.to_string()]).ping_interval(None);
        let coordinator = Coordinator::start(cfg).unwrap();
        assert_eq!(coordinator.ingest(&[1]), Err(no_live_backend()));
        assert!(coordinator.nodes[0].health.is_dead());
        let no_live = Response::from(no_live_backend());
        for request in [Request::Ingest(vec![2]), Request::Quantile(0.5)] {
            assert_eq!(coordinator.handle(request), no_live);
        }
        assert_eq!(coordinator.node_summary(0), Err(no_live_backend()));
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
