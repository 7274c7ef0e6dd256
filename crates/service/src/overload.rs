//! Admission control and load shedding (DESIGN.md §Overload model).
//!
//! The server asks [`Admission::try_admit`] before dispatching every
//! decoded request. Three independent signals can shed it:
//!
//! 1. **In-flight caps** — a global cap across all connections and a
//!    per-connection cap, both counted while the request is dispatching.
//! 2. **Queue pressure** — occupancy of the engine's shard ingest queues
//!    (read from the existing `queue_depth` telemetry gauges) against two
//!    watermarks. Queries shed first at `shed_watermark`; ingest holds on
//!    until `ingest_watermark`, because dropping data is worse than
//!    degrading reads — mergeability means the summary stays valid for
//!    everything admitted either way.
//! 3. **Deadlines** — an expired budget sheds before dispatch (counted
//!    here, checked by the server / engine via [`crate::deadline`]).
//!
//! Control-plane opcodes (ping, flush, metrics, telemetry, cluster-info,
//! trace and accuracy pulls) bypass all three: an overloaded server must
//! stay observable, and those requests add no queue work — flush in
//! particular is how a client *waits out* pressure, so shedding it would
//! deny the one request that relieves the overload. Every decision lands
//! in registry counters so `mergeable metrics` shows the shed/admit split
//! live.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ms_obs::{Counter, Gauge, MetricsRegistry};

/// Priority class of a request opcode under overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Observability / liveness: never shed.
    Control,
    /// Reads: first to degrade (the client can retry a query cheaply).
    Query,
    /// Mutations (ingest): shed last — data loss is the failure mode the
    /// whole design exists to avoid.
    Ingest,
}

impl OpClass {
    /// Classify a wire opcode (see [`crate::protocol::Request::opcode`]).
    pub fn of(opcode: u8) -> OpClass {
        match opcode {
            // ping, flush, metrics, telemetry, cluster_info, trace_dump,
            // accuracy_report — flush adds no weight and is how a client
            // waits for pressure to drain, so it must never be shed
            0 | 2 | 7 | 9 | 10 | 15 | 16 => OpClass::Control,
            1 => OpClass::Ingest,
            _ => OpClass::Query,
        }
    }
}

/// Knobs for [`Admission`]. The default is fully permissive (no caps, no
/// watermarks) so an unconfigured engine behaves exactly as before.
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Requests dispatching concurrently across all connections
    /// (0 = unlimited).
    pub max_inflight: u64,
    /// Requests dispatching concurrently per connection (0 = unlimited).
    pub max_inflight_per_conn: u64,
    /// Shard-queue occupancy in [0,1] at which *queries* shed
    /// (0.0 disables watermark shedding).
    pub shed_watermark: f64,
    /// Occupancy at which *ingest* sheds too; clamped to at least
    /// `shed_watermark` so priorities cannot invert.
    pub ingest_watermark: f64,
    /// Retry hint stamped on `Overloaded` responses, in microseconds.
    pub retry_after_micros: u64,
}

impl Default for OverloadConfig {
    fn default() -> OverloadConfig {
        OverloadConfig {
            max_inflight: 0,
            max_inflight_per_conn: 0,
            shed_watermark: 0.0,
            ingest_watermark: 0.0,
            retry_after_micros: 50_000,
        }
    }
}

impl OverloadConfig {
    /// Set the global in-flight cap (0 = unlimited).
    pub fn max_inflight(mut self, n: u64) -> OverloadConfig {
        self.max_inflight = n;
        self
    }

    /// Set the per-connection in-flight cap (0 = unlimited).
    pub fn max_inflight_per_conn(mut self, n: u64) -> OverloadConfig {
        self.max_inflight_per_conn = n;
        self
    }

    /// Set the query shed watermark (queue occupancy in [0,1]).
    pub fn shed_watermark(mut self, w: f64) -> OverloadConfig {
        self.shed_watermark = w;
        self
    }

    /// Set the ingest shed watermark (queue occupancy in [0,1]).
    pub fn ingest_watermark(mut self, w: f64) -> OverloadConfig {
        self.ingest_watermark = w;
        self
    }

    /// Set the retry hint carried by `Overloaded` responses.
    pub fn retry_after_micros(mut self, micros: u64) -> OverloadConfig {
        self.retry_after_micros = micros;
        self
    }

    /// Is any overload control active at all?
    pub fn enabled(&self) -> bool {
        self.max_inflight > 0 || self.max_inflight_per_conn > 0 || self.shed_watermark > 0.0
    }
}

/// Why a request was shed (the label its counter carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The global or per-connection in-flight cap was full.
    Inflight,
    /// Queue pressure crossed the class's watermark.
    Pressure,
    /// The request's deadline budget was already spent.
    Deadline,
}

/// The admission controller: pressure signal + in-flight accounting +
/// shed/admit counters. One per engine, shared by every connection
/// thread.
pub struct Admission {
    cfg: OverloadConfig,
    /// Requests currently dispatching, across all connections.
    inflight: AtomicU64,
    /// The engine's per-shard queue-depth gauges (the pressure signal),
    /// live whether or not telemetry is enabled.
    queues: Vec<Arc<Gauge>>,
    /// Total queue slots across shards (`shards * queue_depth`).
    queue_slots: u64,
    admitted: Arc<Counter>,
    shed_query: Arc<Counter>,
    shed_ingest: Arc<Counter>,
    shed_inflight: Arc<Counter>,
    shed_deadline: Arc<Counter>,
    inflight_gauge: Arc<Gauge>,
}

impl Admission {
    /// Build a controller reading pressure from `queues` (each gauge one
    /// shard's queue depth, `queue_slots` total capacity) and registering
    /// its counters in `registry`.
    pub fn new(
        cfg: OverloadConfig,
        registry: &MetricsRegistry,
        queues: Vec<Arc<Gauge>>,
        queue_slots: u64,
    ) -> Admission {
        Admission {
            cfg,
            inflight: AtomicU64::new(0),
            queues,
            queue_slots: queue_slots.max(1),
            admitted: registry.counter("admission_admitted_total"),
            shed_query: registry.counter("admission_shed_total{class=\"query\"}"),
            shed_ingest: registry.counter("admission_shed_total{class=\"ingest\"}"),
            shed_inflight: registry.counter("admission_shed_total{class=\"inflight\"}"),
            shed_deadline: registry.counter("admission_shed_total{class=\"deadline\"}"),
            inflight_gauge: registry.gauge("inflight_requests"),
        }
    }

    /// The configuration this controller enforces.
    pub fn config(&self) -> &OverloadConfig {
        &self.cfg
    }

    /// The retry hint for `Overloaded` responses.
    pub fn retry_after_micros(&self) -> u64 {
        self.cfg.retry_after_micros
    }

    /// Current shard-queue occupancy in [0, 1].
    pub fn pressure(&self) -> f64 {
        let depth: i64 = self.queues.iter().map(|g| g.get().max(0)).sum();
        (depth as f64 / self.queue_slots as f64).clamp(0.0, 1.0)
    }

    /// Admit or shed one request. On admission the returned guard holds
    /// the global and per-connection in-flight slots until dropped; on a
    /// shed the reason is returned (and already counted).
    pub fn try_admit(
        self: &Arc<Self>,
        opcode: u8,
        conn_inflight: &Arc<AtomicU64>,
    ) -> Result<AdmitGuard, ShedReason> {
        let class = OpClass::of(opcode);
        if class == OpClass::Control {
            // Control traffic bypasses every signal AND takes no slot:
            // a metrics poller must not hold an overloaded server at cap.
            self.admitted.inc();
            return Ok(AdmitGuard {
                admission: Arc::clone(self),
                conn: Arc::clone(conn_inflight),
                counted: false,
            });
        }
        if self.cfg.max_inflight > 0
            && self.inflight.load(Ordering::Acquire) >= self.cfg.max_inflight
        {
            return Err(self.shed(ShedReason::Inflight, class));
        }
        if self.cfg.max_inflight_per_conn > 0
            && conn_inflight.load(Ordering::Acquire) >= self.cfg.max_inflight_per_conn
        {
            return Err(self.shed(ShedReason::Inflight, class));
        }
        if self.cfg.shed_watermark > 0.0 {
            let pressure = self.pressure();
            let watermark = match class {
                OpClass::Ingest => self.cfg.ingest_watermark.max(self.cfg.shed_watermark),
                // Priorities must not invert even if misconfigured.
                _ => self.cfg.shed_watermark,
            };
            if pressure >= watermark {
                return Err(self.shed(ShedReason::Pressure, class));
            }
        }
        self.admitted.inc();
        self.inflight.fetch_add(1, Ordering::AcqRel);
        self.inflight_gauge.inc();
        conn_inflight.fetch_add(1, Ordering::AcqRel);
        Ok(AdmitGuard {
            admission: Arc::clone(self),
            conn: Arc::clone(conn_inflight),
            counted: true,
        })
    }

    /// Count a request shed because its deadline budget was spent before
    /// dispatch (the server checks [`crate::deadline`] itself).
    pub fn note_deadline_expired(&self) {
        self.shed_deadline.inc();
    }

    fn shed(&self, reason: ShedReason, class: OpClass) -> ShedReason {
        match reason {
            ShedReason::Inflight => self.shed_inflight.inc(),
            ShedReason::Deadline => self.shed_deadline.inc(),
            ShedReason::Pressure => match class {
                OpClass::Ingest => self.shed_ingest.inc(),
                _ => self.shed_query.inc(),
            },
        }
        reason
    }

    /// Total sheds so far, across every reason (tests and CLI tables).
    pub fn sheds(&self) -> u64 {
        self.shed_query.get()
            + self.shed_ingest.get()
            + self.shed_inflight.get()
            + self.shed_deadline.get()
    }

    /// Requests admitted so far.
    pub fn admits(&self) -> u64 {
        self.admitted.get()
    }

    /// Requests dispatching right now.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Acquire)
    }
}

/// RAII in-flight slot: holds one unit of the global and per-connection
/// budgets for the duration of dispatch.
pub struct AdmitGuard {
    admission: Arc<Admission>,
    conn: Arc<AtomicU64>,
    /// Whether this admission took in-flight slots (control ones do not).
    counted: bool,
}

impl std::fmt::Debug for AdmitGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmitGuard").finish_non_exhaustive()
    }
}

impl Drop for AdmitGuard {
    fn drop(&mut self) {
        if self.counted {
            self.admission.inflight.fetch_sub(1, Ordering::AcqRel);
            self.admission.inflight_gauge.dec();
            self.conn.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(
        cfg: OverloadConfig,
        shards: usize,
        depth: u64,
    ) -> (Arc<Admission>, Vec<Arc<Gauge>>) {
        let registry = MetricsRegistry::new();
        let queues: Vec<Arc<Gauge>> = (0..shards)
            .map(|s| registry.gauge(&format!("queue_depth{{shard=\"{s}\"}}")))
            .collect();
        let adm = Arc::new(Admission::new(
            cfg,
            &registry,
            queues.clone(),
            shards as u64 * depth,
        ));
        (adm, queues)
    }

    #[test]
    fn opcode_classes() {
        assert_eq!(OpClass::of(0), OpClass::Control);
        assert_eq!(OpClass::of(1), OpClass::Ingest);
        assert_eq!(OpClass::of(2), OpClass::Control);
        assert_eq!(OpClass::of(6), OpClass::Query);
        assert_eq!(OpClass::of(7), OpClass::Control);
        assert_eq!(OpClass::of(12), OpClass::Query);
        assert_eq!(OpClass::of(16), OpClass::Control);
    }

    #[test]
    fn permissive_default_admits_everything() {
        let (adm, _) = controller(OverloadConfig::default(), 2, 8);
        let conn = Arc::new(AtomicU64::new(0));
        let guards: Vec<_> = (0..64)
            .map(|op| adm.try_admit(op % 17, &conn).expect("admit"))
            .collect();
        // Control-class admissions take no in-flight slot.
        let control = (0..64)
            .filter(|op| OpClass::of(op % 17) == OpClass::Control)
            .count();
        assert_eq!(adm.inflight(), 64 - control as u64);
        assert_eq!(adm.admits(), 64);
        assert_eq!(adm.sheds(), 0);
        drop(guards);
        assert_eq!(adm.inflight(), 0);
        assert_eq!(conn.load(Ordering::Acquire), 0);
    }

    #[test]
    fn global_inflight_cap_sheds_and_recovers() {
        let (adm, _) = controller(OverloadConfig::default().max_inflight(2), 1, 8);
        let conn = Arc::new(AtomicU64::new(0));
        let g1 = adm.try_admit(6, &conn).unwrap();
        let _g2 = adm.try_admit(6, &conn).unwrap();
        assert_eq!(adm.try_admit(6, &conn).unwrap_err(), ShedReason::Inflight);
        assert_eq!(adm.try_admit(1, &conn).unwrap_err(), ShedReason::Inflight);
        // Control traffic bypasses the cap: the server stays observable.
        let _m = adm.try_admit(7, &conn).unwrap();
        drop(g1);
        assert!(adm.try_admit(6, &conn).is_ok());
        assert_eq!(adm.sheds(), 2);
    }

    #[test]
    fn per_conn_cap_is_independent_of_other_connections() {
        let (adm, _) = controller(OverloadConfig::default().max_inflight_per_conn(1), 1, 8);
        let conn_a = Arc::new(AtomicU64::new(0));
        let conn_b = Arc::new(AtomicU64::new(0));
        let _ga = adm.try_admit(6, &conn_a).unwrap();
        assert_eq!(adm.try_admit(6, &conn_a).unwrap_err(), ShedReason::Inflight);
        // A different connection still gets its slot.
        assert!(adm.try_admit(6, &conn_b).is_ok());
    }

    #[test]
    fn queries_shed_before_ingest_as_pressure_rises() {
        let cfg = OverloadConfig::default()
            .shed_watermark(0.5)
            .ingest_watermark(0.9);
        let (adm, queues) = controller(cfg, 2, 10);
        let conn = Arc::new(AtomicU64::new(0));

        // Low pressure: everything admitted.
        queues[0].set(2);
        assert!(adm.try_admit(6, &conn).is_ok());
        assert!(adm.try_admit(1, &conn).is_ok());

        // Above the query watermark (12/20 = 0.6): queries shed, ingest
        // still admitted.
        queues[0].set(6);
        queues[1].set(6);
        assert_eq!(adm.try_admit(6, &conn).unwrap_err(), ShedReason::Pressure);
        assert!(adm.try_admit(1, &conn).is_ok());

        // Above the ingest watermark (19/20 = 0.95): ingest sheds too,
        // control traffic (flush, metrics) never does.
        queues[0].set(10);
        queues[1].set(9);
        assert_eq!(adm.try_admit(1, &conn).unwrap_err(), ShedReason::Pressure);
        assert!(adm.try_admit(2, &conn).is_ok(), "flush is control-plane");
        assert!(adm.try_admit(7, &conn).is_ok());

        assert_eq!(adm.shed_query.get(), 1);
        assert_eq!(adm.shed_ingest.get(), 1);
    }

    #[test]
    fn inverted_watermarks_cannot_shed_ingest_before_queries() {
        // ingest_watermark below shed_watermark is clamped up, so ingest
        // never sheds while queries are still being admitted.
        let cfg = OverloadConfig::default()
            .shed_watermark(0.8)
            .ingest_watermark(0.2);
        let (adm, queues) = controller(cfg, 1, 10);
        let conn = Arc::new(AtomicU64::new(0));
        queues[0].set(5);
        assert!(adm.try_admit(6, &conn).is_ok(), "query below watermark");
        assert!(adm.try_admit(1, &conn).is_ok(), "ingest clamped to 0.8");
    }
}
