//! Blocking TCP server and client for the engine, framed with
//! [`WireFrame`] (`std::net` only — one thread per connection, graceful
//! shutdown via a stop flag plus a wake-up connection).
//!
//! Failure paths are first-class: a malformed frame is answered with a
//! [`Response::Error`] and counted in the engine's `frames_rejected`
//! metric instead of killing the connection thread; mid-frame EOF (a peer
//! that died between bytes, or a partial TCP write) closes only that
//! connection. The [`Client`] enforces per-request timeouts and retries
//! transient failures of idempotent requests with exponential backoff
//! ([`ClientOptions`]), so a hung server surfaces as a typed
//! [`ServiceError::Timeout`] rather than a wedged caller. A client never
//! replays an ingest: a retried ingest whose first attempt *was* applied
//! would double-count its batch.

use std::borrow::Borrow;
use std::io::{self, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ms_core::wire::{encode_u64_slice_into, FRAME_HEADER_LEN};
use ms_core::{lock, ServiceError, Wire, WireFrame};
use ms_obs::RegistrySnapshot;

use crate::config::SummaryKind;
use crate::deadline;
use crate::engine::{Engine, MetricsReport};
use crate::overload::{Admission, AdmitGuard};
use crate::protocol::{
    decode_incoming, AccuracyAudit, Incoming, IngestFrame, RangeAnswer, RangeMeta, Request,
    RequestEnvelope, Response, SegmentReport, TraceDumpReport, RESPONSE_TAG,
};
use crate::summary::ShardSummary;
use crate::telemetry::{timed, EngineTelemetry};
use crate::tracectx::{self, TraceContext, FIELD_PARENT, FIELD_SPAN, FIELD_TRACE};

/// Anything a [`Server`] can front: one request in, one response out,
/// plus the telemetry plane the connection loop records into. The
/// [`Engine`] is the single-node implementation; a cluster coordinator
/// implements the same trait to serve the identical wire protocol by
/// scatter/gather over backend nodes.
pub trait Service: Send + Sync + 'static {
    /// Serve one decoded request.
    fn handle(&self, request: Request) -> Response;

    /// Serve one ingest that is still the bytes it arrived as. Returns the
    /// reply and the buffer the connection reads its next frame into: a
    /// service that keeps the frame hands back a recycled buffer, one that
    /// only looked at it hands back the frame's own.
    fn ingest_frame(&self, frame: IngestFrame) -> (Response, Vec<u8>);

    /// The telemetry plane (per-opcode latency, byte counters).
    fn telemetry(&self) -> &Arc<EngineTelemetry>;

    /// Count one malformed wire frame.
    fn record_rejected_frame(&self);

    /// Graceful shutdown: drain and publish before stopping.
    fn shutdown(&self);

    /// Hard stop with no final drain (simulated `kill -9`).
    fn abort(&self);

    /// The admission controller the connection loop consults before
    /// dispatching, if this service does load shedding. The default (no
    /// controller) admits everything.
    fn admission(&self) -> Option<&Arc<Admission>> {
        None
    }
}

impl Service for Engine {
    fn handle(&self, request: Request) -> Response {
        dispatch(self, request)
    }

    fn admission(&self) -> Option<&Arc<Admission>> {
        Some(Engine::admission(self))
    }

    fn ingest_frame(&self, frame: IngestFrame) -> (Response, Vec<u8>) {
        note_ingest_admitted(self);
        let (outcome, next) = Engine::ingest_frame(self, frame);
        (outcome.map_or_else(Into::into, |()| Response::Ok), next)
    }

    fn telemetry(&self) -> &Arc<EngineTelemetry> {
        Engine::telemetry(self)
    }

    fn record_rejected_frame(&self) {
        Engine::record_rejected_frame(self);
    }

    fn shutdown(&self) {
        Engine::shutdown(self);
    }

    fn abort(&self) {
        Engine::abort(self);
    }
}

/// A running TCP front-end over a [`Service`] (an [`Engine`] or a
/// cluster coordinator).
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    service: Arc<dyn Service>,
    /// Set only by [`Server::bind`]; [`Server::engine`] needs it.
    engine: Option<Arc<Engine>>,
    /// One cloned handle per accepted connection, so [`Server::kill`]
    /// can sever live peers the way a dying process severs them.
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// accepting connections, each served by its own thread.
    pub fn bind(engine: Arc<Engine>, addr: impl ToSocketAddrs) -> Result<Server, ServiceError> {
        let mut server = Self::bind_service(Arc::clone(&engine) as Arc<dyn Service>, addr)?;
        server.engine = Some(engine);
        Ok(server)
    }

    /// Bind `addr` over any [`Service`] implementation. The front-end is
    /// byte-identical to [`Server::bind`]; only [`Server::engine`] is
    /// unavailable.
    pub fn bind_service(
        service: Arc<dyn Service>,
        addr: impl ToSocketAddrs,
    ) -> Result<Server, ServiceError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_stop = Arc::clone(&stop);
        let accept_service = Arc::clone(&service);
        let accept_conns = Arc::clone(&conns);
        let accept_handle = std::thread::Builder::new()
            .name("ms-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if let Ok(clone) = stream.try_clone() {
                        lock(&accept_conns).push(clone);
                    }
                    let service = Arc::clone(&accept_service);
                    let _ = std::thread::Builder::new()
                        .name("ms-conn".to_string())
                        .spawn(move || serve_connection(stream, service));
                }
            })?;
        Ok(Server {
            addr,
            stop,
            accept_handle: Some(accept_handle),
            service,
            engine: None,
            conns,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine behind this server.
    ///
    /// # Panics
    ///
    /// Panics if the server was built with [`Server::bind_service`] over
    /// a non-engine service; use [`Server::service`] there.
    pub fn engine(&self) -> &Arc<Engine> {
        self.engine
            .as_ref()
            .expect("server was bound with bind_service; it has no Engine")
    }

    /// The service behind this server.
    pub fn service(&self) -> &Arc<dyn Service> {
        &self.service
    }

    /// Stop accepting connections and shut the service down gracefully.
    /// In-flight connection threads finish their current request and exit
    /// when the peer closes.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throw-away connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        self.service.shutdown();
    }

    /// Kill the node the way `kill -9` does: abort the service with no
    /// final drain and sever every live connection, so peers observe a
    /// connection reset rather than a graceful EOF. The whole-node fault
    /// schedules drive this.
    pub fn kill(mut self) {
        self.stop.store(true, Ordering::Release);
        self.service.abort();
        for conn in lock(&self.conns).drain(..) {
            let _ = conn.shutdown(NetShutdown::Both);
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve_connection(mut stream: TcpStream, service: Arc<dyn Service>) {
    let _ = stream.set_nodelay(true);
    let telemetry = Arc::clone(service.telemetry());
    // Every connection thread gets its own flight-recorder ring; the
    // per-request spans it records carry the trace context, so a
    // `TraceDump` from this process stitches into the cluster-wide tree.
    let trace_ring = telemetry.recorder().register("conn");
    // In-flight requests opened by *this* connection — the admission
    // controller's per-connection cap counts against it. Handling is
    // serial per connection today, so it only exceeds 1 if that changes;
    // the cap is enforced here so it cannot regress silently.
    let conn_inflight = Arc::new(AtomicU64::new(0));
    // One request-payload buffer and one reply scratch for the life of the
    // connection: past the largest frame seen, a request allocates nothing
    // here. An ingest takes `payload` away inside its frame, and the
    // service hands a buffer back for the next read.
    let mut payload = Vec::new();
    let mut reply = Vec::new();
    let mut respond = |stream: &mut TcpStream, response: &Response| {
        reply.clear();
        response.encode_frame_into(&mut reply);
        telemetry.add_bytes_out(reply.len() as u64);
        stream.write_all(&reply)
    };
    loop {
        let tag = match WireFrame::read_from_into(&mut stream, &mut payload) {
            Ok(Some(tag)) => tag,
            // Clean EOF at a frame boundary: the peer is done.
            Ok(None) => return,
            // Garbage header, foreign magic, or a partial frame (the peer
            // died mid-write): count it, tell the peer if it is still
            // there, and close — framing cannot be resynchronized.
            Err(e) => {
                if is_frame_rejection(&e) {
                    service.record_rejected_frame();
                    let msg = Response::Error(format!("bad frame: {e}"));
                    let _ = respond(&mut stream, &msg);
                    let _ = stream.shutdown(NetShutdown::Both);
                }
                return;
            }
        };
        telemetry.add_bytes_in((FRAME_HEADER_LEN + payload.len()) as u64);
        // The frame itself was well-formed; a payload that fails to decode
        // is a protocol error worth answering, and the connection lives on.
        let response = match decode_incoming(tag, &mut payload) {
            Ok((incoming, envelope)) => {
                let opcode = incoming.opcode();
                // Untraced (plain `REQUEST_TAG`) frames root a fresh
                // trace here, so every request belongs to exactly one
                // trace whether or not the caller propagates context.
                let ctx = envelope.ctx.unwrap_or_else(|| telemetry.root_context());
                // The envelope carries *remaining* budget; pin it to this
                // node's clock once so downstream checks are cheap.
                let abs_deadline = envelope
                    .deadline_micros
                    .map(|micros| Instant::now() + Duration::from_micros(micros));
                match admit(&service, opcode, &envelope, &conn_inflight) {
                    Err(shed) => {
                        if let Incoming::Ingest(frame) = incoming {
                            payload = frame.into_bytes();
                        }
                        shed
                    }
                    Ok(_guard) => {
                        let span_id = telemetry.next_span(ctx);
                        let mut span = trace_ring.span("request");
                        span.field(FIELD_TRACE, ctx.trace_id);
                        span.field(FIELD_SPAN, span_id);
                        span.field(FIELD_PARENT, ctx.parent_span);
                        span.field("op", opcode as u64);
                        // Whatever the handler does downstream (scatter to
                        // backend nodes, engine events) parents under this
                        // span.
                        let child = TraceContext {
                            trace_id: ctx.trace_id,
                            parent_span: span_id,
                        };
                        let serve = || match incoming {
                            Incoming::Request(request) => service.handle(request),
                            Incoming::Ingest(frame) => {
                                let (response, next) = service.ingest_frame(frame);
                                payload = next;
                                response
                            }
                        };
                        let (response, micros) = timed(|| {
                            deadline::with_deadline(abs_deadline, || {
                                tracectx::with_current(child, serve)
                            })
                        });
                        drop(span);
                        telemetry.record_request(opcode, micros);
                        response
                    }
                }
            }
            Err(e) => {
                service.record_rejected_frame();
                Response::Error(format!("bad request: {e}"))
            }
        };
        if respond(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Overload gate for one decoded request: a spent deadline budget or a
/// shed decision from the service's [`Admission`] controller answers a
/// typed [`Response::Overloaded`] instead of dispatching. Returns the
/// in-flight guard to hold for the duration of dispatch (`None` when the
/// service has no controller).
fn admit(
    service: &Arc<dyn Service>,
    opcode: u8,
    envelope: &RequestEnvelope,
    conn_inflight: &Arc<AtomicU64>,
) -> Result<Option<AdmitGuard>, Response> {
    let admission = service.admission();
    let retry_after_micros = admission
        .map(|a| a.retry_after_micros())
        .unwrap_or_else(|| crate::overload::OverloadConfig::default().retry_after_micros);
    // A request that arrives with its budget already spent is doomed no
    // matter how idle we are: the caller has stopped waiting.
    if envelope.deadline_micros == Some(0) {
        if let Some(a) = admission {
            a.note_deadline_expired();
        }
        return Err(Response::Overloaded { retry_after_micros });
    }
    match admission {
        None => Ok(None),
        Some(a) => match a.try_admit(opcode, conn_inflight) {
            Ok(guard) => Ok(Some(guard)),
            Err(_reason) => Err(Response::Overloaded { retry_after_micros }),
        },
    }
}

/// Frame-read failures that mean the *bytes* were bad (count as a rejected
/// frame), as opposed to ordinary socket teardown.
fn is_frame_rejection(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
    )
}

/// Serve one request against the engine. Public so tests and the CLI can
/// exercise the protocol without a socket.
pub fn dispatch(engine: &Engine, request: Request) -> Response {
    match request {
        Request::Ping => Response::Ok,
        Request::Ingest(items) => {
            note_ingest_admitted(engine);
            engine
                .ingest(items)
                .map_or_else(Into::into, |()| Response::Ok)
        }
        Request::Flush => engine.flush().map_or_else(Into::into, |()| Response::Ok),
        Request::Point(_) | Request::HeavyHitters(_) | Request::Rank(_) | Request::Quantile(_) => {
            let snapshot = engine.snapshot();
            answer_query(&request, || Ok(&snapshot.summary))
        }
        Request::Metrics => Response::Metrics(engine.metrics()),
        Request::Summary => Response::Summary(engine.snapshot().summary.encode()),
        Request::Telemetry => Response::Telemetry(engine.telemetry_snapshot()),
        Request::ClusterInfo | Request::NodeSummary(_) => {
            Response::Error("cluster queries are only answered by a coordinator node".to_string())
        }
        // Quantiles always come from the cube's hybrid-quantile family and
        // heavy hitters from its MG family, whatever the engine's kind is.
        Request::RangeQuantile {
            start_micros,
            end_micros,
            phi,
        } => answer_range(phi, || {
            engine.range_query(start_micros, end_micros, SummaryKind::HybridQuantile)
        }),
        Request::RangeHeavyHitters {
            start_micros,
            end_micros,
            phi,
        } => answer_range(phi, || {
            engine.range_query(start_micros, end_micros, SummaryKind::Mg)
        }),
        Request::SegmentInfo => engine
            .segment_report()
            .map_or_else(Into::into, Response::Segments),
        Request::TraceDump => Response::Trace(engine.trace_dump()),
        Request::AccuracyReport => Response::Accuracy(engine.accuracy_audit()),
    }
}

/// The engine's own ring notes an ingest's admission under the live
/// trace; worker/compactor spans for the same data then sit in the same
/// dump as this event's trace id.
fn note_ingest_admitted(engine: &Engine) {
    if let Some(ctx) = tracectx::current() {
        engine.telemetry().event(
            "ingest_admit",
            &[(FIELD_TRACE, ctx.trace_id), (FIELD_PARENT, ctx.parent_span)],
        );
    }
}

/// Answer a point / heavy-hitter / rank / quantile `request` from the
/// merged summary `merged` produces — an engine's published snapshot or a
/// coordinator's gather; by Definition 1 the answer carries the same ε
/// either way. φ is validated before `merged` runs, and a family that
/// cannot answer the query says so.
pub fn answer_query<S: Borrow<ShardSummary>>(
    request: &Request,
    merged: impl FnOnce() -> Result<S, ServiceError>,
) -> Response {
    if let Request::HeavyHitters(phi) | Request::Quantile(phi) = *request {
        if let Err(e) = check_phi(phi) {
            return Response::Error(e);
        }
    }
    let summary = match merged() {
        Ok(summary) => summary,
        Err(e) => return e.into(),
    };
    let summary = summary.borrow();
    let (answer, query) = match *request {
        Request::Point(item) => (summary.point(item).map(Response::Count), "point"),
        Request::HeavyHitters(phi) => (
            summary.heavy_hitters(phi).map(Response::Items),
            "heavy-hitters",
        ),
        Request::Rank(x) => (summary.rank(x).map(Response::Count), "rank"),
        Request::Quantile(phi) => (summary.quantile(phi).map(Response::Value), "quantile"),
        _ => (None, "these"),
    };
    answer.unwrap_or_else(|| {
        Response::Error(format!(
            "{query} queries are not supported by a {} summary",
            summary.kind().label()
        ))
    })
}

/// Answer a range request from the window's coverage and merged summary:
/// the φ-quantile when the family has quantiles, the φ-heavy hitters when
/// it has those, and the summary itself so the next merge up recomputes
/// instead of averaging scalars.
pub fn answer_range(
    phi: f64,
    merged: impl FnOnce() -> Result<(RangeMeta, Option<ShardSummary>), ServiceError>,
) -> Response {
    if let Err(e) = check_phi(phi) {
        return Response::Error(e);
    }
    match merged() {
        Err(e) => e.into(),
        Ok((meta, merged)) => Response::Range(RangeAnswer {
            meta,
            value: merged.as_ref().and_then(|s| s.quantile(phi)).flatten(),
            items: merged
                .as_ref()
                .and_then(|s| s.heavy_hitters(phi))
                .unwrap_or_default(),
            summary: merged.map(|s| s.encode()).unwrap_or_default(),
        }),
    }
}

/// φ parameters arrive as raw `f64` bits off the wire; reject NaN,
/// infinities and out-of-range values before they reach a summary.
fn check_phi(phi: f64) -> Result<(), String> {
    if phi.is_finite() && (0.0..=1.0).contains(&phi) {
        Ok(())
    } else {
        Err(format!("phi must be a finite value in [0, 1], got {phi}"))
    }
}

/// Transport behavior of a [`Client`]: per-request deadline, connect
/// deadline, and how transient failures are retried.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Deadline for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Per-request deadline: if no response byte arrives within this
    /// window, the call fails with [`ServiceError::Timeout`].
    pub read_timeout: Duration,
    /// Extra attempts after the first failure (transient failures of
    /// idempotent requests only: an ingest is never replayed).
    pub retries: u32,
    /// Backoff ceiling before the first retry; doubles on each subsequent
    /// one. Each retry sleeps a uniform draw from `[0, backoff·2^attempt]`
    /// (full jitter from a fixed seed).
    pub backoff: Duration,
    /// End-to-end budget for one logical call. When set, every request
    /// travels in a deadline-bearing envelope (the server sheds it once
    /// the budget is spent) and the retry loop stops sleeping when the
    /// budget runs out — a deadline caps retry wall-time, not just the
    /// individual socket reads.
    pub deadline: Option<Duration>,
}

/// Seed of every client's full-jitter backoff RNG: one seed, one sleep
/// schedule, so retries replay deterministically in tests.
const JITTER_SEED: u64 = 0x5EED_BACC_0FF5;

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            connect_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(30),
            retries: 3,
            backoff: Duration::from_millis(25),
            deadline: None,
        }
    }
}

/// Blocking client speaking the framed request/response protocol, with
/// timeouts and seeded-backoff retries (see [`ClientOptions`]).
pub struct Client {
    addrs: Vec<SocketAddr>,
    opts: ClientOptions,
    stream: Option<TcpStream>,
    retries_performed: u64,
    /// xorshift64 state behind the full-jitter draws (never zero).
    rng: u64,
    /// Request-frame scratch reused across [`Client::ingest_slice`] calls
    /// so a streaming client serializes every batch into the same buffer.
    scratch: Vec<u8>,
    /// Response-payload scratch reused across calls: the read side of the
    /// round-trip stops allocating once it has seen the largest response.
    resp: Vec<u8>,
}

impl Client {
    /// Connect to a server with default [`ClientOptions`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServiceError> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connect with explicit transport options.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        opts: ClientOptions,
    ) -> Result<Client, ServiceError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ServiceError::Io {
                kind: io::ErrorKind::AddrNotAvailable,
                detail: "address resolved to nothing".to_string(),
            });
        }
        let mut client = Client {
            addrs,
            rng: JITTER_SEED,
            opts,
            stream: None,
            retries_performed: 0,
            scratch: Vec::new(),
            resp: Vec::new(),
        };
        client.reconnect()?;
        Ok(client)
    }

    /// Transport-level retries performed so far (for tests and reports).
    pub fn retries_performed(&self) -> u64 {
        self.retries_performed
    }

    fn reconnect(&mut self) -> Result<(), ServiceError> {
        self.stream = None;
        let mut last: Option<io::Error> = None;
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, self.opts.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(self.opts.read_timeout))?;
                    self.stream = Some(stream);
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.map(ServiceError::from).unwrap_or(ServiceError::Io {
            kind: io::ErrorKind::AddrNotAvailable,
            detail: "no address to connect to".to_string(),
        }))
    }

    /// Send one request and wait for its response, retrying transient
    /// transport failures with exponential backoff when safe (see
    /// [`ClientOptions`]). After any failure the connection is torn down
    /// and re-established, so a late response to a timed-out request can
    /// never be mistaken for the answer to the next one.
    pub fn call(&mut self, request: &Request) -> Result<Response, ServiceError> {
        self.call_enveloped(RequestEnvelope::default(), request)
    }

    /// [`Client::call`] with the request inside `envelope`: a trace
    /// context the server adopts instead of rooting a fresh trace, and/or
    /// a remaining deadline budget. An envelope without a deadline takes
    /// [`ClientOptions::deadline`]; the coordinator passes its
    /// *decremented* budget on every scatter leg.
    pub fn call_enveloped(
        &mut self,
        envelope: RequestEnvelope,
        request: &Request,
    ) -> Result<Response, ServiceError> {
        self.send(envelope, request.is_idempotent(), |out| {
            request.encode_into(out)
        })
    }

    /// The first half of [`Client::call_enveloped`]: serialize and write
    /// the request, read nothing. A caller with several connections sends
    /// on all of them and only then collects each reply with
    /// [`Client::read_response`], so the servers work at the same time.
    /// No retry here — after an error on either half the connection must
    /// not be used again.
    pub fn send_enveloped(
        &mut self,
        envelope: RequestEnvelope,
        request: &Request,
    ) -> Result<(), ServiceError> {
        let frame = self.encode(envelope, |out| request.encode_into(out));
        let result = self.send_raw(&frame);
        self.scratch = frame;
        result
    }

    /// Bytes of the request frame most recently serialized (header,
    /// envelope and request) — what the last call put on the wire.
    pub fn last_frame_len(&self) -> usize {
        self.scratch.len()
    }

    /// Serialize one enveloped request frame into the scratch buffer this
    /// client reuses for the life of the connection, and run the retry
    /// loop on it.
    fn send(
        &mut self,
        envelope: RequestEnvelope,
        idempotent: bool,
        request: impl FnOnce(&mut Vec<u8>),
    ) -> Result<Response, ServiceError> {
        let frame = self.encode(envelope, request);
        let result = self.call_frame(&frame, idempotent);
        self.scratch = frame;
        result
    }

    /// Take the scratch buffer and fill it with one enveloped request
    /// frame (an envelope without a deadline takes
    /// [`ClientOptions::deadline`]); the caller puts it back.
    fn encode(
        &mut self,
        mut envelope: RequestEnvelope,
        request: impl FnOnce(&mut Vec<u8>),
    ) -> Vec<u8> {
        let budget = self.opts.deadline.map(|d| d.as_micros() as u64);
        envelope.deadline_micros = envelope.deadline_micros.or(budget);
        let mut frame = std::mem::take(&mut self.scratch);
        frame.clear();
        envelope.encode_frame_into(&mut frame, request);
        frame
    }

    /// Pull the server's flight-recorder rings (trace spans and events).
    pub fn trace_dump(&mut self) -> Result<TraceDumpReport, ServiceError> {
        match self.call(&Request::TraceDump)? {
            Response::Trace(report) => Ok(report),
            other => Err(protocol_error(other)),
        }
    }

    /// Fetch the accuracy self-audit: merge lineage, the `ε·n` envelope,
    /// and the observed error against the audit plane's ground truth.
    pub fn accuracy(&mut self) -> Result<AccuracyAudit, ServiceError> {
        match self.call(&Request::AccuracyReport)? {
            Response::Accuracy(report) => Ok(report),
            other => Err(protocol_error(other)),
        }
    }

    /// The retry loop behind [`Client::send`], on the serialized frame.
    fn call_frame(&mut self, frame: &[u8], idempotent: bool) -> Result<Response, ServiceError> {
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            match self.send_raw(frame).and_then(|()| self.read_response()) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    self.stream = None; // never reuse a connection that failed
                    if !(idempotent && e.is_transient()) || attempt >= self.opts.retries {
                        return Err(e);
                    }
                    // Full jitter: uniform in [0, backoff·2^attempt]. A
                    // deadline caps the sleep — and once the budget is
                    // spent, retrying is lying to the caller, so stop.
                    let ceiling = self.opts.backoff.saturating_mul(1 << attempt.min(16));
                    let mut pause = self.jitter(ceiling);
                    if let Some(budget) = self.opts.deadline {
                        let left = budget.saturating_sub(start.elapsed());
                        if left.is_zero() {
                            return Err(e);
                        }
                        pause = pause.min(left);
                    }
                    std::thread::sleep(pause);
                    attempt += 1;
                    self.retries_performed += 1;
                    if let Err(reconnect_err) = self.reconnect() {
                        if attempt >= self.opts.retries {
                            return Err(reconnect_err);
                        }
                    }
                }
            }
        }
    }

    /// One full-jitter draw: uniform in `[0, ceiling]`, from the seeded
    /// xorshift64 stream seeded from `JITTER_SEED`.
    fn jitter(&mut self, ceiling: Duration) -> Duration {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let span = ceiling.as_nanos() as u64;
        if span == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.rng % (span + 1))
    }

    /// Ingest a batch, erroring on a server-side failure.
    pub fn ingest(&mut self, items: Vec<u64>) -> Result<(), ServiceError> {
        self.ingest_slice(&items)
    }

    /// Ingest a borrowed batch without allocating on the send path: the
    /// request frame is serialized straight into a scratch buffer owned
    /// by this client and reused across calls. Byte-identical on the
    /// wire to [`Client::ingest`].
    pub fn ingest_slice(&mut self, items: &[u64]) -> Result<(), ServiceError> {
        self.ingest_slice_enveloped(RequestEnvelope::default(), items)
    }

    /// [`Client::ingest_slice`] inside `envelope` (see
    /// [`Client::call_enveloped`]): same reused scratch buffer, so the
    /// coordinator's ingest legs join the caller's trace and carry its
    /// remaining budget without allocating either.
    pub fn ingest_slice_enveloped(
        &mut self,
        envelope: RequestEnvelope,
        items: &[u64],
    ) -> Result<(), ServiceError> {
        self.send_ingest(envelope, |out| encode_u64_slice_into(out, items))
    }

    /// [`Client::ingest_slice_enveloped`] for a batch that is already
    /// encoded: the frame's payload is copied behind the opcode as it is,
    /// so a coordinator forwards a batch without decoding it.
    pub fn ingest_frame_enveloped(
        &mut self,
        envelope: RequestEnvelope,
        frame: &IngestFrame,
    ) -> Result<(), ServiceError> {
        self.send_ingest(envelope, |out| out.extend_from_slice(frame.payload()))
    }

    /// Send one [`Request::Ingest`] whose encoded batch `batch` writes.
    fn send_ingest(
        &mut self,
        envelope: RequestEnvelope,
        batch: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), ServiceError> {
        let response = self.send(envelope, false, |out| {
            out.push(Request::Ingest(Vec::new()).opcode());
            batch(out);
        })?;
        match response {
            Response::Ok => Ok(()),
            other => Err(protocol_error(other)),
        }
    }

    /// Flush the engine so later queries see all prior ingests.
    pub fn flush(&mut self) -> Result<(), ServiceError> {
        match self.call(&Request::Flush)? {
            Response::Ok => Ok(()),
            other => Err(protocol_error(other)),
        }
    }

    /// Fetch engine metrics.
    pub fn metrics(&mut self) -> Result<MetricsReport, ServiceError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m),
            other => Err(protocol_error(other)),
        }
    }

    /// Fetch the full telemetry registry snapshot (latency histograms,
    /// queue-depth gauges, byte counters).
    pub fn telemetry(&mut self) -> Result<RegistrySnapshot, ServiceError> {
        match self.call(&Request::Telemetry)? {
            Response::Telemetry(snapshot) => Ok(snapshot),
            other => Err(protocol_error(other)),
        }
    }

    /// Estimated φ-quantile over the time window `[start, end]` micros.
    pub fn range_quantile(
        &mut self,
        start_micros: u64,
        end_micros: u64,
        phi: f64,
    ) -> Result<RangeAnswer, ServiceError> {
        self.range(&Request::RangeQuantile {
            start_micros,
            end_micros,
            phi,
        })
    }

    /// Heavy hitters over the time window `[start, end]` micros.
    pub fn range_heavy_hitters(
        &mut self,
        start_micros: u64,
        end_micros: u64,
        phi: f64,
    ) -> Result<RangeAnswer, ServiceError> {
        self.range(&Request::RangeHeavyHitters {
            start_micros,
            end_micros,
            phi,
        })
    }

    fn range(&mut self, request: &Request) -> Result<RangeAnswer, ServiceError> {
        match self.call(request)? {
            Response::Range(answer) => Ok(answer),
            other => Err(protocol_error(other)),
        }
    }

    /// Fetch the segment cube's index.
    pub fn segments(&mut self) -> Result<SegmentReport, ServiceError> {
        match self.call(&Request::SegmentInfo)? {
            Response::Segments(report) => Ok(report),
            other => Err(protocol_error(other)),
        }
    }

    /// Write `bytes` raw onto the connection — every request frame goes
    /// out through here, and fault-injection tooling uses it directly to
    /// deliver deliberately corrupt frames.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ServiceError> {
        let stream = self.stream.as_mut().ok_or_else(not_connected)?;
        stream.write_all(bytes)?;
        Ok(())
    }

    /// Read one response frame into the reused response scratch (after
    /// [`Client::send_raw`]).
    pub fn read_response(&mut self) -> Result<Response, ServiceError> {
        let stream = self.stream.as_mut().ok_or_else(not_connected)?;
        let tag = match WireFrame::read_from_into(stream, &mut self.resp) {
            Ok(Some(tag)) => tag,
            // The server closed the connection between our request and its
            // response: a clean, typed EOF instead of a hang.
            Ok(None) => {
                return Err(ServiceError::Io {
                    kind: io::ErrorKind::UnexpectedEof,
                    detail: "server closed the connection".to_string(),
                })
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(ServiceError::Timeout {
                    millis: self.opts.read_timeout.as_millis() as u64,
                })
            }
            Err(e) => return Err(ServiceError::from(e)),
        };
        if tag != RESPONSE_TAG {
            return Err(ServiceError::Wire(ms_core::WireError::BadTag(tag)));
        }
        Response::decode(&self.resp).map_err(ServiceError::from)
    }

    /// Drop the connection without a clean shutdown (simulates a client
    /// that vanished mid-epoch).
    pub fn abandon(mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(NetShutdown::Both);
        }
    }
}

fn not_connected() -> ServiceError {
    ServiceError::Io {
        kind: io::ErrorKind::NotConnected,
        detail: "connection is down".to_string(),
    }
}

fn protocol_error(response: Response) -> ServiceError {
    match response {
        Response::Error(m) => ServiceError::Protocol(m),
        // A shed stays typed end to end: callers see the transient
        // `Overloaded` error (with its retry hint) and can back off.
        Response::Overloaded { retry_after_micros } => {
            ServiceError::Overloaded { retry_after_micros }
        }
        other => ServiceError::Protocol(format!("unexpected response {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use crate::protocol::REQUEST_TAG;
    use ms_core::Summary;

    fn mg_server() -> Server {
        let engine = Engine::start(ServiceConfig::new(SummaryKind::Mg, 0.02).shards(2)).unwrap();
        Server::bind(engine, "127.0.0.1:0").unwrap()
    }

    fn fast_options() -> ClientOptions {
        ClientOptions {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_millis(500),
            retries: 2,
            backoff: Duration::from_millis(5),
            ..ClientOptions::default()
        }
    }

    #[test]
    fn tcp_ingest_flush_query() {
        let server = mg_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Ok);
        for _ in 0..20 {
            client.ingest((0..100).map(|v| v % 5).collect()).unwrap();
        }
        client.flush().unwrap();
        match client.call(&Request::HeavyHitters(0.1)).unwrap() {
            Response::Items(items) => {
                assert_eq!(items.len(), 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        let m = client.metrics().unwrap();
        assert_eq!(m.updates, 2000);
        assert_eq!(m.snapshot_weight, 2000);
        assert_eq!(m.frames_rejected, 0);
        server.stop();
    }

    #[test]
    fn server_ingests_recycle_the_pool() {
        // The connection decodes each ingest into a buffer from the
        // engine's shard pools, which the workers refill: past warm-up the
        // buffers circulate and nearly every get is a reuse.
        let server = mg_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let batch: Vec<u64> = (0..256).collect();
        for sent in 1..=2_000 {
            client.ingest_slice(&batch).unwrap();
            // A get misses only while every buffer made so far is still
            // queued, so misses count the deepest backlog. Draining every
            // 50 batches bounds that by the test, not by the scheduler.
            if sent % 50 == 0 {
                client.flush().unwrap();
            }
        }
        let (reuses, misses, _) = server.engine().pool_stats();
        assert!(
            reuses >= 1_900 && misses <= 100,
            "2000 ingests over TCP: {reuses} reuses, {misses} misses"
        );
        assert_eq!(server.engine().metrics().updates, 2_000 * 256);
        server.stop();
    }

    #[test]
    fn summary_request_ships_decodable_codec_bytes() {
        let server = mg_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ingest(vec![9; 500]).unwrap();
        client.flush().unwrap();
        let bytes = match client.call(&Request::Summary).unwrap() {
            Response::Summary(bytes) => bytes,
            other => panic!("unexpected {other:?}"),
        };
        let summary = ShardSummary::decode(&bytes).unwrap();
        assert_eq!(summary.total_weight(), 500);
        assert_eq!(summary.point(9), Some(500));
        server.stop();
    }

    #[test]
    fn unsupported_queries_return_protocol_errors() {
        let server = mg_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        match client.call(&Request::Rank(3)).unwrap() {
            Response::Error(msg) => assert!(msg.contains("rank")),
            other => panic!("unexpected {other:?}"),
        }
        server.stop();
    }

    #[test]
    fn nan_and_out_of_range_phi_are_protocol_errors() {
        let server = mg_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for bad in [f64::NAN, f64::INFINITY, -0.5, 1.5] {
            match client.call(&Request::HeavyHitters(bad)).unwrap() {
                Response::Error(msg) => assert!(msg.contains("phi"), "{msg}"),
                other => panic!("unexpected {other:?} for phi {bad}"),
            }
            match client.call(&Request::Quantile(bad)).unwrap() {
                Response::Error(msg) => assert!(msg.contains("phi"), "{msg}"),
                other => panic!("unexpected {other:?} for phi {bad}"),
            }
        }
        server.stop();
    }

    #[test]
    fn malformed_payload_gets_error_response_and_connection_survives() {
        let server = mg_server();
        let mut client = Client::connect_with(server.local_addr(), fast_options()).unwrap();
        // A well-framed payload with an unknown opcode.
        let bad = WireFrame {
            tag: REQUEST_TAG,
            payload: vec![99],
        };
        client.send_raw(&bad.to_bytes()).unwrap();
        match client.read_response().unwrap() {
            Response::Error(msg) => assert!(msg.contains("bad request"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        // Same connection still serves good requests.
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Ok);
        assert_eq!(server.engine().metrics().frames_rejected, 1);
        server.stop();
    }

    #[test]
    fn bad_magic_is_rejected_and_counted() {
        let server = mg_server();
        let mut client = Client::connect_with(server.local_addr(), fast_options()).unwrap();
        client.send_raw(b"XXGARBAGE").unwrap();
        // The server answers with an error frame and closes.
        match client.read_response() {
            Ok(Response::Error(msg)) => assert!(msg.contains("bad frame"), "{msg}"),
            Ok(other) => panic!("unexpected {other:?}"),
            // Depending on timing the close can beat the error frame.
            Err(ServiceError::Io { .. }) => {}
            Err(other) => panic!("unexpected {other:?}"),
        }
        // Engine unharmed; a fresh connection works.
        let mut fresh = Client::connect(server.local_addr()).unwrap();
        assert_eq!(fresh.call(&Request::Ping).unwrap(), Response::Ok);
        assert!(server.engine().metrics().frames_rejected >= 1);
        server.stop();
    }

    #[test]
    fn client_times_out_instead_of_hanging() {
        // A listener that accepts and then never answers. The thread is
        // deliberately not joined: it blocks in accept() until the test
        // process exits.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut kept = Vec::new();
            while let Ok((stream, _)) = listener.accept() {
                kept.push(stream);
            }
        });
        let opts = ClientOptions {
            read_timeout: Duration::from_millis(100),
            retries: 1,
            backoff: Duration::from_millis(5),
            ..ClientOptions::default()
        };
        let mut client = Client::connect_with(addr, opts).unwrap();
        let start = std::time::Instant::now();
        let err = client.call(&Request::Ping).unwrap_err();
        assert!(matches!(err, ServiceError::Timeout { .. }), "{err:?}");
        // One original attempt + one retry, each bounded by the timeout.
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(client.retries_performed(), 1);
    }

    #[test]
    fn client_surfaces_clean_eof_when_server_goes_away() {
        // Accept and immediately close every connection; not joined — the
        // thread blocks in accept() until the test process exits.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                drop(stream);
            }
        });
        let opts = ClientOptions {
            read_timeout: Duration::from_millis(200),
            retries: 1,
            backoff: Duration::from_millis(5),
            ..ClientOptions::default()
        };
        let mut client = Client::connect_with(addr, opts).unwrap();
        let err = client.call(&Request::Ping).unwrap_err();
        match err {
            ServiceError::Io { kind, .. } => {
                assert!(
                    kind == io::ErrorKind::UnexpectedEof
                        || kind == io::ErrorKind::ConnectionReset
                        || kind == io::ErrorKind::BrokenPipe,
                    "{kind:?}"
                );
            }
            other => panic!("expected io error, got {other:?}"),
        }
    }

    #[test]
    fn retry_recovers_when_server_comes_back() {
        // First connection dies mid-request; the retry lands on a live
        // server and succeeds.
        let server = mg_server();
        let addr = server.local_addr();
        let opts = ClientOptions {
            read_timeout: Duration::from_millis(300),
            retries: 3,
            backoff: Duration::from_millis(5),
            ..ClientOptions::default()
        };
        let mut client = Client::connect_with(addr, opts).unwrap();
        // Poison the current connection from our side so the next write
        // fails, forcing the retry path.
        if let Some(s) = client.stream.as_ref() {
            let _ = s.shutdown(NetShutdown::Both);
        }
        assert_eq!(client.call(&Request::Ping).unwrap(), Response::Ok);
        assert!(client.retries_performed() >= 1);
        server.stop();
    }

    #[test]
    fn telemetry_opcode_serves_live_histograms() {
        let server = mg_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        for _ in 0..50 {
            client.ingest((0..100).collect()).unwrap();
        }
        client.flush().unwrap();
        let snap = client.telemetry().unwrap();
        // Per-opcode request latency: 50 ingests and 1 flush were served.
        let ingest = snap.histogram("request_micros{op=\"ingest\"}").unwrap();
        assert_eq!(ingest.count, 50);
        assert_eq!(
            snap.histogram("request_micros{op=\"flush\"}")
                .unwrap()
                .count,
            1
        );
        // Per-shard ingest-batch latency across shards covers every batch.
        let absorbed: u64 = (0..server.engine().config().shards)
            .filter_map(|s| snap.histogram(&format!("ingest_batch_micros{{shard=\"{s}\"}}")))
            .map(|h| h.count)
            .sum();
        assert_eq!(absorbed, 50);
        // Engine counters are folded in; queue-depth gauges exist.
        assert_eq!(snap.counter("updates_total"), Some(5000));
        assert_eq!(snap.counter("shards_lost_total"), Some(0));
        assert!(snap.gauge("queue_depth{shard=\"0\"}").is_some());
        // Byte accounting saw our frames in both directions.
        assert!(snap.counter("server_bytes_in_total").unwrap() > 0);
        assert!(snap.counter("server_bytes_out_total").unwrap() > 0);
        server.stop();
    }

    #[test]
    fn telemetry_disabled_serves_empty_histograms() {
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::Mg, 0.02)
                .shards(2)
                .telemetry(false),
        )
        .unwrap();
        let server = Server::bind(engine, "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ingest(vec![1; 100]).unwrap();
        client.flush().unwrap();
        let snap = client.telemetry().unwrap();
        // The snapshot stays well-formed but records nothing...
        let ingest = snap.histogram("request_micros{op=\"ingest\"}").unwrap();
        assert_eq!(ingest.count, 0);
        assert_eq!(snap.counter("server_bytes_in_total"), Some(0));
        // ...while the engine's own counters still work.
        assert_eq!(snap.counter("updates_total"), Some(100));
        server.stop();
    }

    #[test]
    fn traced_requests_adopt_context_and_plain_requests_root_fresh_traces() {
        let server = mg_server();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let ctx = TraceContext {
            trace_id: 0xABCD_EF01,
            parent_span: 7,
        };
        assert_eq!(
            client
                .call_enveloped(
                    RequestEnvelope {
                        ctx: Some(ctx),
                        deadline_micros: None,
                    },
                    &Request::Ping
                )
                .unwrap(),
            Response::Ok
        );
        client.ingest(vec![3; 100]).unwrap();
        client.flush().unwrap();
        let report = client.trace_dump().unwrap();
        assert!(report.ring_capacity > 0);
        let conn: Vec<_> = report
            .threads
            .iter()
            .filter(|t| t.label == "conn")
            .collect();
        assert!(!conn.is_empty(), "connection threads register trace rings");
        let request_spans: Vec<_> = conn
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.name == "request")
            .collect();
        // Ping + ingest + flush (+ the trace_dump request itself may or
        // may not have landed in the ring before the dump was cut).
        assert!(request_spans.len() >= 3, "{}", request_spans.len());
        let field = |e: &crate::protocol::TraceEventRecord, k: &str| {
            e.fields.iter().find(|(n, _)| n == k).map(|&(_, v)| v)
        };
        let adopted = request_spans
            .iter()
            .find(|e| field(e, "trace") == Some(0xABCD_EF01))
            .expect("the traced ping adopted the caller's trace id");
        assert_eq!(field(adopted, "parent"), Some(7));
        assert!(field(adopted, "span").unwrap() != 0);
        // The plain requests each rooted a distinct fresh trace.
        let roots: std::collections::BTreeSet<u64> = request_spans
            .iter()
            .filter(|e| field(e, "parent") == Some(0))
            .filter_map(|e| field(e, "trace"))
            .collect();
        assert!(roots.len() >= 2);
        // The engine ring saw the ingest admission under some trace.
        let admits: Vec<_> = report
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.name == "ingest_admit")
            .collect();
        assert_eq!(admits.len(), 1);
        assert!(field(admits[0], "trace").unwrap() != 0);
        // The whole report stitches: every request span is a root or a
        // child in the forest.
        let spans = tracectx::stitch(&[("node".to_string(), report.clone())]);
        assert!(spans.iter().any(|s| s.trace_id == 0xABCD_EF01));
        server.stop();
    }

    #[test]
    fn accuracy_report_travels_the_wire() {
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::Mg, 0.02)
                .shards(2)
                .audit(true),
        )
        .unwrap();
        let server = Server::bind(engine, "127.0.0.1:0").unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.ingest((0..1000).map(|v| v % 50).collect()).unwrap();
        client.flush().unwrap();
        let audit = client.accuracy().unwrap();
        assert_eq!(audit.kind, "mg");
        assert_eq!(audit.weight, 1000);
        assert_eq!(audit.audit_weight, 1000);
        assert!(audit.within_bound);
        assert!(audit.merges >= 1);
        server.stop();
    }

    #[test]
    fn stop_shuts_engine_down() {
        let server = mg_server();
        let engine = Arc::clone(server.engine());
        server.stop();
        assert!(matches!(
            engine.ingest(vec![1]),
            Err(ServiceError::Shutdown)
        ));
    }
}
