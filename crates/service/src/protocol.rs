//! Request/response protocol: `Wire`-encoded values carried in
//! [`WireFrame`]s over TCP (tag [`REQUEST_TAG`] client→server,
//! [`RESPONSE_TAG`] server→client).
//!
//! Decoding is total: any malformed frame — wrong tag, unknown opcode,
//! truncated or trailing payload — comes back as a typed [`WireError`]
//! that the server converts into a [`Response::Error`] (and counts in
//! `frames_rejected`) instead of killing the connection thread.

use ms_core::wire::{
    check_u64_slice, decode_u64_slice_into, encode_frame_into, encode_u64_slice_into,
};
use ms_core::{ServiceError, Wire, WireError, WireFrame, WireReader};
use ms_obs::RegistrySnapshot;

use crate::engine::MetricsReport;
use crate::tracectx::TraceContext;

/// Frame tag for client→server messages.
pub const REQUEST_TAG: u8 = 0x10;
/// Frame tag for server→client messages.
pub const RESPONSE_TAG: u8 = 0x11;
/// Frame tag for client→server messages carrying a distributed-trace
/// context: the payload is a [`TraceContext`] (varint trace id + varint
/// parent span id) immediately followed by the [`Request`] encoding.
/// Servers accept both tags ([`decode_traced_request`]); old clients and
/// every golden corpus frame keep their exact bytes.
///
/// A second, deadline-bearing layout rides the same tag. Trace ids are
/// never 0 ([`TraceContext`]), so a leading varint `0` discriminates it:
///
/// ```text
/// legacy:   varint trace_id (≠0) · varint parent_span · Request
/// deadline: 0x00 · varint trace_id (0 = no context) · varint parent_span
///           · varint deadline_micros · Request
/// ```
///
/// `deadline_micros` is the *remaining budget* the client grants the
/// request (relative, so nodes need no synchronized clocks); `0` means
/// the budget is already spent and the server sheds immediately with
/// [`Response::Overloaded`]. Every pre-deadline golden frame decodes
/// byte-identically through the legacy arm.
pub const TRACED_REQUEST_TAG: u8 = 0x12;

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered with [`Response::Ok`].
    Ping,
    /// Ingest a batch of items (blocking backpressure on the server side).
    Ingest(Vec<u64>),
    /// Publish a snapshot containing everything ingested so far.
    Flush,
    /// Estimated frequency of an item.
    Point(u64),
    /// Items with estimated frequency ≥ φ·n.
    HeavyHitters(f64),
    /// Estimated rank of a value.
    Rank(u64),
    /// Estimated φ-quantile.
    Quantile(f64),
    /// Engine counters and snapshot gauges.
    Metrics,
    /// The full global summary, binary-encoded.
    Summary,
    /// The full telemetry registry snapshot: latency histograms,
    /// queue-depth gauges, byte counters (see
    /// [`crate::Engine::telemetry_snapshot`]).
    Telemetry,
    /// Cluster membership and hash-ring state. Answered with
    /// [`Response::Cluster`] by a coordinator; a plain engine answers
    /// with [`Response::Error`].
    ClusterInfo,
    /// The summary held by one backend node, by node index. Answered
    /// with [`Response::Summary`] by a coordinator (which fetches it from
    /// the backend); a plain engine answers with [`Response::Error`].
    NodeSummary(u32),
    /// Estimated φ-quantile over the time window `[start, end]` (engine
    /// clock micros, inclusive), merged from the covering segments.
    /// Answered with [`Response::Range`]; requires the segment cube.
    RangeQuantile {
        /// Window start in engine-clock microseconds (inclusive).
        start_micros: u64,
        /// Window end in engine-clock microseconds (inclusive).
        end_micros: u64,
        /// Quantile rank φ in [0, 1].
        phi: f64,
    },
    /// Items with estimated frequency ≥ φ·w over the time window, where
    /// w is the window's covered weight. Answered with
    /// [`Response::Range`]; requires the segment cube.
    RangeHeavyHitters {
        /// Window start in engine-clock microseconds (inclusive).
        start_micros: u64,
        /// Window end in engine-clock microseconds (inclusive).
        end_micros: u64,
        /// Frequency threshold φ in [0, 1].
        phi: f64,
    },
    /// The segment cube's index: every sealed segment plus the open one.
    /// Answered with [`Response::Segments`]; requires the segment cube.
    SegmentInfo,
    /// Pull this process's flight-recorder rings over the wire. Answered
    /// with [`Response::Trace`]; the `mergeable trace` CLI merges dumps
    /// from the coordinator and every node into one stitched timeline.
    TraceDump,
    /// The accuracy self-audit: merge lineage, the live eps·n envelope
    /// and (when the audit plane is enabled) observed-vs-bound error.
    /// Answered with [`Response::Accuracy`]; a coordinator gathers and
    /// merges per-node audits.
    AccuracyReport,
}

impl Request {
    /// True when re-sending the request after a transport failure cannot
    /// change engine state observed by anyone ([`Request::Ingest`] is the
    /// one mutation that would double-count; `Flush` merely re-publishes).
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, Request::Ingest(_))
    }

    /// The wire opcode byte (also the index into
    /// [`crate::telemetry::OPCODE_LABELS`] for per-opcode latency
    /// histograms).
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Ingest(_) => INGEST_OPCODE,
            Request::Flush => 2,
            Request::Point(_) => 3,
            Request::HeavyHitters(_) => 4,
            Request::Rank(_) => 5,
            Request::Quantile(_) => 6,
            Request::Metrics => 7,
            Request::Summary => 8,
            Request::Telemetry => 9,
            Request::ClusterInfo => 10,
            Request::NodeSummary(_) => 11,
            Request::RangeQuantile { .. } => 12,
            Request::RangeHeavyHitters { .. } => 13,
            Request::SegmentInfo => 14,
            Request::TraceDump => 15,
            Request::AccuracyReport => 16,
        }
    }
}

/// Decode and validate a request frame: the tag must be [`REQUEST_TAG`]
/// and the payload a complete [`Request`] with no trailing bytes.
pub fn decode_request(frame: &WireFrame) -> Result<Request, WireError> {
    if frame.tag != REQUEST_TAG {
        return Err(WireError::BadTag(frame.tag));
    }
    frame.value::<Request>()
}

/// Out-of-band request metadata carried by a [`TRACED_REQUEST_TAG`]
/// envelope: the trace context (if any) and the remaining deadline
/// budget (if any). A plain [`REQUEST_TAG`] frame decodes to the empty
/// envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestEnvelope {
    /// Distributed-trace context, when the caller ships one.
    pub ctx: Option<TraceContext>,
    /// Remaining deadline budget in microseconds (relative — decremented
    /// across coordinator→node hops, never compared between clocks).
    /// `Some(0)` means the budget is already spent.
    pub deadline_micros: Option<u64>,
}

/// Decode a request frame that may carry an envelope: a plain
/// [`REQUEST_TAG`] frame yields the empty envelope, a
/// [`TRACED_REQUEST_TAG`] frame yields the context and/or deadline
/// prepended to the request (see the tag's layout docs). Any other tag
/// is rejected, and all forms enforce no-trailing-bytes like
/// [`decode_request`].
pub fn decode_traced_request(frame: &WireFrame) -> Result<(Request, RequestEnvelope), WireError> {
    let mut r = WireReader::new(&frame.payload);
    let envelope = RequestEnvelope::decode_from(frame.tag, &mut r)?;
    Ok((Request::decode(&frame.payload[r.pos()..])?, envelope))
}

/// The opcode of [`Request::Ingest`], the one request a server keeps as
/// bytes.
const INGEST_OPCODE: u8 = 1;

/// An ingest batch as the bytes that arrived, checked once: from
/// `items_at` to its end the buffer holds exactly one encoded `[u64]`
/// (varint count, then varint items) that [`decode_u64_slice_into`]
/// accepts. Canonical encoding is not required — the decoder's accept set
/// is the contract. The WAL logs [`IngestFrame::payload`] verbatim, a
/// shard ring carries the frame itself, a coordinator forwards the payload
/// under its own envelope; only the shard worker (and the segment cube)
/// ever turns it into items.
#[derive(Debug)]
pub struct IngestFrame {
    bytes: Vec<u8>,
    items_at: usize,
    len: usize,
}

impl IngestFrame {
    /// Validate `bytes[items_at..]` and, only if it is one whole batch,
    /// take the buffer (an empty `Vec` is left in its place).
    pub fn parse(bytes: &mut Vec<u8>, items_at: usize) -> Result<IngestFrame, WireError> {
        let mut r = WireReader::new(bytes.get(items_at..).ok_or(WireError::Truncated)?);
        let len = check_u64_slice(&mut r)?;
        r.finish()?;
        Ok(IngestFrame {
            bytes: std::mem::take(bytes),
            items_at,
            len,
        })
    }

    /// The frame of `items`, written over whatever `bytes` held.
    pub fn encode(mut bytes: Vec<u8>, items: &[u64]) -> IngestFrame {
        bytes.clear();
        encode_u64_slice_into(&mut bytes, items);
        IngestFrame {
            bytes,
            items_at: 0,
            len: items.len(),
        }
    }

    /// The encoded batch: a WAL record's payload, and what follows the
    /// opcode in a [`Request::Ingest`].
    pub fn payload(&self) -> &[u8] {
        &self.bytes[self.items_at..]
    }

    /// Items in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a batch of no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append the items to `out`.
    pub fn decode_into(&self, out: &mut Vec<u64>) {
        decode_u64_slice_into(&mut WireReader::new(self.payload()), out)
            .expect("an IngestFrame holds a payload the decoder accepts");
    }

    /// Give the buffer up for reuse.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// What a server reads off a request frame: an ingest stays bytes, every
/// other request is decoded.
#[derive(Debug)]
pub enum Incoming {
    /// A validated [`Request::Ingest`], holding the connection's buffer.
    Ingest(IngestFrame),
    /// Any other request.
    Request(Request),
}

impl Incoming {
    /// The wire opcode (see [`Request::opcode`]).
    pub fn opcode(&self) -> u8 {
        match self {
            Incoming::Ingest(_) => INGEST_OPCODE,
            Incoming::Request(request) => request.opcode(),
        }
    }
}

/// [`decode_traced_request`] as the connection loop runs it, on the
/// buffer the frame was read into: an ingest payload is validated, not
/// decoded, and leaves inside the [`IngestFrame`] (`payload` is then
/// empty); anything else decodes as usual and `payload` stays put.
pub fn decode_incoming(
    tag: u8,
    payload: &mut Vec<u8>,
) -> Result<(Incoming, RequestEnvelope), WireError> {
    let mut r = WireReader::new(payload);
    let envelope = RequestEnvelope::decode_from(tag, &mut r)?;
    let at = r.pos();
    let incoming = if payload.get(at) == Some(&INGEST_OPCODE) {
        Incoming::Ingest(IngestFrame::parse(payload, at + 1)?)
    } else {
        Incoming::Request(Request::decode(&payload[at..])?)
    };
    Ok((incoming, envelope))
}

impl RequestEnvelope {
    /// Read the envelope a frame tagged `tag` opens with, leaving `r` at
    /// the request. The only reader of envelope bytes.
    fn decode_from(tag: u8, r: &mut WireReader<'_>) -> Result<RequestEnvelope, WireError> {
        match tag {
            REQUEST_TAG => Ok(RequestEnvelope::default()),
            TRACED_REQUEST_TAG => {
                // Trace ids are never 0, so a leading 0 is the deadline
                // layout's sentinel; otherwise the first varint IS the id.
                let first = u64::decode_from(r)?;
                let trace_id = match first {
                    0 => u64::decode_from(r)?,
                    id => id,
                };
                let parent_span = u64::decode_from(r)?;
                Ok(RequestEnvelope {
                    ctx: (trace_id != 0).then_some(TraceContext {
                        trace_id,
                        parent_span,
                    }),
                    deadline_micros: match first {
                        0 => Some(u64::decode_from(r)?),
                        _ => None,
                    },
                })
            }
            other => Err(WireError::BadTag(other)),
        }
    }

    /// Append one complete request frame to `out`: the header, this
    /// envelope's prefix ([`TRACED_REQUEST_TAG`]'s layouts; none at all,
    /// under a plain [`REQUEST_TAG`], when the envelope is empty), then
    /// whatever `request` writes — a [`Request`] encoding. The only
    /// writer of envelope bytes.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>, request: impl FnOnce(&mut Vec<u8>)) {
        let tag = match (self.ctx, self.deadline_micros) {
            (None, None) => REQUEST_TAG,
            _ => TRACED_REQUEST_TAG,
        };
        encode_frame_into(out, tag, |out| {
            if let Some(deadline_micros) = self.deadline_micros {
                out.push(0);
                let (trace_id, parent_span) =
                    self.ctx.map_or((0, 0), |c| (c.trace_id, c.parent_span));
                trace_id.encode_into(out);
                parent_span.encode_into(out);
                deadline_micros.encode_into(out);
            } else if let Some(ctx) = self.ctx {
                ctx.encode_into(out);
            }
            request(out);
        });
    }
}

impl Wire for Request {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.opcode());
        match self {
            Request::Ingest(items) => encode_u64_slice_into(out, items),
            Request::Point(item) => item.encode_into(out),
            Request::HeavyHitters(phi) | Request::Quantile(phi) => phi.encode_into(out),
            Request::Rank(x) => x.encode_into(out),
            Request::NodeSummary(node) => node.encode_into(out),
            Request::RangeQuantile {
                start_micros,
                end_micros,
                phi,
            }
            | Request::RangeHeavyHitters {
                start_micros,
                end_micros,
                phi,
            } => {
                start_micros.encode_into(out);
                end_micros.encode_into(out);
                phi.encode_into(out);
            }
            Request::Ping
            | Request::Flush
            | Request::Metrics
            | Request::Summary
            | Request::Telemetry
            | Request::ClusterInfo
            | Request::SegmentInfo
            | Request::TraceDump
            | Request::AccuracyReport => {}
        }
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(match r.byte()? {
            0 => Request::Ping,
            INGEST_OPCODE => {
                let mut items = Vec::new();
                decode_u64_slice_into(r, &mut items)?;
                Request::Ingest(items)
            }
            2 => Request::Flush,
            3 => Request::Point(u64::decode_from(r)?),
            4 => Request::HeavyHitters(f64::decode_from(r)?),
            5 => Request::Rank(u64::decode_from(r)?),
            6 => Request::Quantile(f64::decode_from(r)?),
            7 => Request::Metrics,
            8 => Request::Summary,
            9 => Request::Telemetry,
            10 => Request::ClusterInfo,
            11 => Request::NodeSummary(u32::decode_from(r)?),
            12 => Request::RangeQuantile {
                start_micros: u64::decode_from(r)?,
                end_micros: u64::decode_from(r)?,
                phi: f64::decode_from(r)?,
            },
            13 => Request::RangeHeavyHitters {
                start_micros: u64::decode_from(r)?,
                end_micros: u64::decode_from(r)?,
                phi: f64::decode_from(r)?,
            },
            14 => Request::SegmentInfo,
            15 => Request::TraceDump,
            16 => Request::AccuracyReport,
            _ => return Err(WireError::Malformed("unknown request opcode")),
        })
    }
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Acknowledgement with no payload.
    Ok,
    /// A count (point estimate or rank).
    Count(u64),
    /// Heavy-hitter items with estimated counts.
    Items(Vec<(u64, u64)>),
    /// A quantile value; `None` if the summary is empty.
    Value(Option<u64>),
    /// Engine metrics.
    Metrics(MetricsReport),
    /// The encoded global summary.
    Summary(Vec<u8>),
    /// The request could not be served (e.g. a rank query against a
    /// heavy-hitter engine).
    Error(String),
    /// The telemetry registry snapshot.
    Telemetry(RegistrySnapshot),
    /// Cluster membership and hash-ring state (coordinator only).
    Cluster(ClusterInfo),
    /// A range-query answer with its coverage metadata.
    Range(RangeAnswer),
    /// The segment cube's index.
    Segments(SegmentReport),
    /// This process's flight-recorder rings ([`Request::TraceDump`]).
    Trace(TraceDumpReport),
    /// The accuracy self-audit ([`Request::AccuracyReport`]).
    Accuracy(AccuracyAudit),
    /// The request was shed under overload (admission control, or an
    /// expired deadline; a coordinator passes a backend's shed on as it
    /// came). Distinct from [`Response::Error`] so clients can
    /// back off politely instead of treating the shed as fatal.
    Overloaded {
        /// Suggested client wait before retrying, in microseconds.
        retry_after_micros: u64,
    },
}

/// A handler error on the wire: a shed stays typed so clients see the
/// retry hint, everything else degrades to its message.
impl Response {
    /// Append this response as one complete [`RESPONSE_TAG`] frame to
    /// `out` — the bytes of `WireFrame::from_value(RESPONSE_TAG, self)`
    /// with no payload `Vec` in between. A server connection writes every
    /// reply through here into the one scratch buffer it reuses.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        encode_frame_into(out, RESPONSE_TAG, |out| self.encode_into(out));
    }
}

impl From<ServiceError> for Response {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Overloaded { retry_after_micros } => {
                Response::Overloaded { retry_after_micros }
            }
            e => Response::Error(e.to_string()),
        }
    }
}

/// One recorded flight-recorder event, wire-encodable (the in-memory
/// [`ms_obs::TraceEvent`] uses `&'static str` names; crossing the wire
/// requires owned strings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEventRecord {
    /// Span/event name.
    pub name: String,
    /// Start offset in the recording process's flight clock (micros).
    pub start_micros: u64,
    /// Duration in micros (0 for instant events).
    pub duration_micros: u64,
    /// Named `u64` fields; trace identity rides here under
    /// [`crate::tracectx::FIELD_TRACE`] / `FIELD_SPAN` / `FIELD_PARENT`.
    pub fields: Vec<(String, u64)>,
}

impl Wire for TraceEventRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.name.encode_into(out);
        self.start_micros.encode_into(out);
        self.duration_micros.encode_into(out);
        self.fields.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(TraceEventRecord {
            name: String::decode_from(r)?,
            start_micros: u64::decode_from(r)?,
            duration_micros: u64::decode_from(r)?,
            fields: Vec::decode_from(r)?,
        })
    }
}

/// One per-thread ring in a [`TraceDumpReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Ring label (`"conn"`, `"worker3"`, `"engine"` …).
    pub label: String,
    /// Events overwritten since the ring was registered — how much
    /// history this dump has already lost.
    pub evicted: u64,
    /// Surviving events, oldest first.
    pub events: Vec<TraceEventRecord>,
}

impl Wire for ThreadTrace {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.label.encode_into(out);
        self.evicted.encode_into(out);
        self.events.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(ThreadTrace {
            label: String::decode_from(r)?,
            evicted: u64::decode_from(r)?,
            events: Vec::decode_from(r)?,
        })
    }
}

/// A process's flight-recorder contents served by
/// [`Request::TraceDump`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDumpReport {
    /// The process's telemetry seed (trace ids derive from it).
    pub seed: u64,
    /// Per-thread ring capacity in events.
    pub ring_capacity: u64,
    /// Flight-clock reading when the dump was taken.
    pub captured_micros: u64,
    /// Every registered ring.
    pub threads: Vec<ThreadTrace>,
}

impl Wire for TraceDumpReport {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.seed.encode_into(out);
        self.ring_capacity.encode_into(out);
        self.captured_micros.encode_into(out);
        self.threads.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(TraceDumpReport {
            seed: u64::decode_from(r)?,
            ring_capacity: u64::decode_from(r)?,
            captured_micros: u64::decode_from(r)?,
            threads: Vec::decode_from(r)?,
        })
    }
}

/// The accuracy self-audit served by [`Request::AccuracyReport`]: merge
/// lineage plus observed-vs-bound error, mergeable across nodes the
/// same way the summaries themselves are.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyAudit {
    /// Summary kind label (`"mg"`, `"gk"`, …).
    pub kind: String,
    /// Configured error parameter ε.
    pub epsilon: f64,
    /// Total stream weight n the summary covers.
    pub weight: u64,
    /// The bound the paper promises: ε·n at the current weight.
    pub envelope: f64,
    /// Merge operations the summary lineage has absorbed.
    pub merges: u64,
    /// Depth of the deepest merge tree in the lineage.
    pub depth: u64,
    /// Stream weight the audit plane actually observed (0 when the
    /// audit is disabled; may trail `weight` when a checkpoint preloaded
    /// state the audit never saw).
    pub audit_weight: u64,
    /// Distinct items tracked exactly (frequency audit) — 0 for
    /// quantile audits, which sample instead.
    pub audited_items: u64,
    /// Raw items held in the audit reservoir (quantile audit).
    pub reservoir_len: u64,
    /// Largest observed |estimate − reference| across the audited set.
    pub observed_error: f64,
    /// Extra error budget attributable to the audit's own sampling
    /// (0 for the exact frequency audit).
    pub sampling_slack: f64,
    /// `observed_error ≤ envelope + sampling_slack` at audit time.
    pub within_bound: bool,
    /// Nodes merged into this report (1 for a single engine).
    pub nodes: u32,
}

impl AccuracyAudit {
    /// Fold another node's audit into this one, mirroring how the
    /// summaries merge: weights, envelopes and audited sets add; the
    /// observed error, depth and slack of the merged report are the
    /// worst across members; the bound holds only if it held everywhere.
    pub fn merge_from(&mut self, other: &AccuracyAudit) {
        self.weight += other.weight;
        self.envelope += other.envelope;
        self.merges += other.merges;
        self.depth = self.depth.max(other.depth);
        self.audit_weight += other.audit_weight;
        self.audited_items += other.audited_items;
        self.reservoir_len += other.reservoir_len;
        self.observed_error = self.observed_error.max(other.observed_error);
        self.sampling_slack = self.sampling_slack.max(other.sampling_slack);
        self.within_bound = self.within_bound && other.within_bound;
        self.nodes += other.nodes;
    }
}

impl Wire for AccuracyAudit {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.kind.encode_into(out);
        self.epsilon.encode_into(out);
        self.weight.encode_into(out);
        self.envelope.encode_into(out);
        self.merges.encode_into(out);
        self.depth.encode_into(out);
        self.audit_weight.encode_into(out);
        self.audited_items.encode_into(out);
        self.reservoir_len.encode_into(out);
        self.observed_error.encode_into(out);
        self.sampling_slack.encode_into(out);
        self.within_bound.encode_into(out);
        self.nodes.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(AccuracyAudit {
            kind: String::decode_from(r)?,
            epsilon: f64::decode_from(r)?,
            weight: u64::decode_from(r)?,
            envelope: f64::decode_from(r)?,
            merges: u64::decode_from(r)?,
            depth: u64::decode_from(r)?,
            audit_weight: u64::decode_from(r)?,
            audited_items: u64::decode_from(r)?,
            reservoir_len: u64::decode_from(r)?,
            observed_error: f64::decode_from(r)?,
            sampling_slack: f64::decode_from(r)?,
            within_bound: bool::decode_from(r)?,
            nodes: u32::decode_from(r)?,
        })
    }
}

/// What a range query actually covered. Segment boundaries are batch
/// boundaries, so the answered range snaps outward to whole segments;
/// the caller reads here how far.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeMeta {
    /// Requested window start (engine-clock micros, inclusive).
    pub start_micros: u64,
    /// Requested window end (engine-clock micros, inclusive).
    pub end_micros: u64,
    /// Segments merged to answer (including the open one when covered).
    pub segments_merged: u32,
    /// True when the open (still-ingesting) segment was snapshotted in.
    pub open_included: bool,
    /// Exact total item weight of the merged segments — the `n` the
    /// eps·n error bound applies to.
    pub covered_weight: u64,
    /// First batch seq covered (0 when the window covered nothing).
    pub start_seq: u64,
    /// Last batch seq covered (0 when the window covered nothing).
    pub end_seq: u64,
}

impl Wire for RangeMeta {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.start_micros.encode_into(out);
        self.end_micros.encode_into(out);
        self.segments_merged.encode_into(out);
        self.open_included.encode_into(out);
        self.covered_weight.encode_into(out);
        self.start_seq.encode_into(out);
        self.end_seq.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(RangeMeta {
            start_micros: u64::decode_from(r)?,
            end_micros: u64::decode_from(r)?,
            segments_merged: u32::decode_from(r)?,
            open_included: bool::decode_from(r)?,
            covered_weight: u64::decode_from(r)?,
            start_seq: u64::decode_from(r)?,
            end_seq: u64::decode_from(r)?,
        })
    }
}

/// A served range query: the scalar answer plus the merged summary it
/// was computed from, so a coordinator can merge answers from many
/// nodes (Definition 1) and recompute instead of averaging scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeAnswer {
    /// Coverage metadata.
    pub meta: RangeMeta,
    /// Quantile value ([`Request::RangeQuantile`]); `None` when the
    /// window covered no weight or for heavy-hitter queries.
    pub value: Option<u64>,
    /// Heavy hitters ([`Request::RangeHeavyHitters`]); empty for
    /// quantile queries.
    pub items: Vec<(u64, u64)>,
    /// The merged per-window summary, `ShardSummary`-encoded.
    pub summary: Vec<u8>,
}

impl Wire for RangeAnswer {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.meta.encode_into(out);
        self.value.encode_into(out);
        self.items.encode_into(out);
        self.summary.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(RangeAnswer {
            meta: RangeMeta::decode_from(r)?,
            value: Option::decode_from(r)?,
            items: Vec::decode_from(r)?,
            summary: Vec::decode_from(r)?,
        })
    }
}

/// One segment in a [`SegmentReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment id (dense, increasing; the open segment is next_id).
    pub id: u64,
    /// First batch seq in the segment.
    pub start_seq: u64,
    /// Last batch seq in the segment (≥ start_seq when non-empty).
    pub end_seq: u64,
    /// Engine-clock micros when the segment opened.
    pub start_micros: u64,
    /// Engine-clock micros of the last batch (still moving while open).
    pub end_micros: u64,
    /// Total item weight in the segment.
    pub weight: u64,
    /// Batches in the segment.
    pub batches: u64,
    /// False only for the trailing open segment.
    pub sealed: bool,
    /// Coarsening tier: 0 for an as-sealed segment, `max(a,b)+1` when
    /// pressure merged two adjacent segments `a`,`b` into this one
    /// (DESIGN.md §Overload model — lossless w.r.t. eps·n on admitted
    /// weight, per Definition 1).
    pub tier: u64,
}

impl Wire for SegmentMeta {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.id.encode_into(out);
        self.start_seq.encode_into(out);
        self.end_seq.encode_into(out);
        self.start_micros.encode_into(out);
        self.end_micros.encode_into(out);
        self.weight.encode_into(out);
        self.batches.encode_into(out);
        self.sealed.encode_into(out);
        self.tier.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(SegmentMeta {
            id: u64::decode_from(r)?,
            start_seq: u64::decode_from(r)?,
            end_seq: u64::decode_from(r)?,
            start_micros: u64::decode_from(r)?,
            end_micros: u64::decode_from(r)?,
            weight: u64::decode_from(r)?,
            batches: u64::decode_from(r)?,
            sealed: bool::decode_from(r)?,
            tier: u64::decode_from(r)?,
        })
    }
}

/// The segment cube's index served by [`Request::SegmentInfo`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentReport {
    /// The engine clock's current reading, so callers can compute
    /// "last 5 minutes" windows against the same clock that stamped
    /// the segments.
    pub now_micros: u64,
    /// Sealed segments in id order, then the open segment (if any
    /// batches have arrived since the last seal).
    pub segments: Vec<SegmentMeta>,
}

impl Wire for SegmentReport {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.now_micros.encode_into(out);
        self.segments.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(SegmentReport {
            now_micros: u64::decode_from(r)?,
            segments: Vec::decode_from(r)?,
        })
    }
}

/// Liveness of one backend node, as judged by a coordinator from request
/// outcomes and periodic pings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Serving requests normally.
    Alive,
    /// At least one recent failure; still routed to, watched closely.
    Suspect,
    /// Enough consecutive failures that the hash ring routes around it
    /// until a ping or an explicit rejoin revives it.
    Dead,
}

impl NodeState {
    /// Stable display label.
    pub fn label(&self) -> &'static str {
        match self {
            NodeState::Alive => "alive",
            NodeState::Suspect => "suspect",
            NodeState::Dead => "dead",
        }
    }
}

impl Wire for NodeState {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            NodeState::Alive => 0,
            NodeState::Suspect => 1,
            NodeState::Dead => 2,
        });
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(match r.byte()? {
            0 => NodeState::Alive,
            1 => NodeState::Suspect,
            2 => NodeState::Dead,
            _ => return Err(WireError::Malformed("unknown node state")),
        })
    }
}

/// One backend node as seen from the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeInfo {
    /// Position in the coordinator's node list (also the
    /// [`Request::NodeSummary`] index).
    pub index: u32,
    /// The node's current address (rejoin may move it).
    pub addr: String,
    /// Membership state.
    pub state: NodeState,
    /// Consecutive failed requests since the last success.
    pub consecutive_failures: u32,
    /// Requests the coordinator has sent this node.
    pub requests: u64,
    /// Requests that failed (transport or engine error).
    pub failures: u64,
    /// Snapshot weight last observed on this node (0 until first seen).
    pub last_weight: u64,
}

impl Wire for NodeInfo {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.index.encode_into(out);
        self.addr.encode_into(out);
        self.state.encode_into(out);
        self.consecutive_failures.encode_into(out);
        self.requests.encode_into(out);
        self.failures.encode_into(out);
        self.last_weight.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(NodeInfo {
            index: u32::decode_from(r)?,
            addr: String::decode_from(r)?,
            state: NodeState::decode_from(r)?,
            consecutive_failures: u32::decode_from(r)?,
            requests: u64::decode_from(r)?,
            failures: u64::decode_from(r)?,
            last_weight: u64::decode_from(r)?,
        })
    }
}

/// Cluster membership + routing state served by [`Request::ClusterInfo`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterInfo {
    /// Every backend node, in index order.
    pub nodes: Vec<NodeInfo>,
    /// Whether nodes are paired into replica slots.
    pub replicas: bool,
    /// Hash-ring slots (node pairs when replicated, else one per node).
    pub slots: u32,
    /// Virtual nodes per slot on the ring.
    pub vnodes: u32,
    /// Ingest batches delivered to a slot other than their home slot
    /// because the home slot was entirely dead (ring rebalances) — each
    /// batch once, however many slots it walked past.
    pub rebalanced_batches: u64,
}

impl Wire for ClusterInfo {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.nodes.encode_into(out);
        self.replicas.encode_into(out);
        self.slots.encode_into(out);
        self.vnodes.encode_into(out);
        self.rebalanced_batches.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(ClusterInfo {
            nodes: Vec::decode_from(r)?,
            replicas: bool::decode_from(r)?,
            slots: u32::decode_from(r)?,
            vnodes: u32::decode_from(r)?,
            rebalanced_batches: u64::decode_from(r)?,
        })
    }
}

impl Wire for Response {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(0),
            Response::Count(v) => {
                out.push(1);
                v.encode_into(out);
            }
            Response::Items(items) => {
                out.push(2);
                items.encode_into(out);
            }
            Response::Value(v) => {
                out.push(3);
                v.encode_into(out);
            }
            Response::Metrics(m) => {
                out.push(4);
                m.encode_into(out);
            }
            Response::Summary(bytes) => {
                out.push(5);
                bytes.encode_into(out);
            }
            Response::Error(msg) => {
                out.push(6);
                msg.encode_into(out);
            }
            Response::Telemetry(snapshot) => {
                out.push(7);
                snapshot.encode_into(out);
            }
            Response::Cluster(info) => {
                out.push(8);
                info.encode_into(out);
            }
            Response::Range(answer) => {
                out.push(9);
                answer.encode_into(out);
            }
            Response::Segments(report) => {
                out.push(10);
                report.encode_into(out);
            }
            Response::Trace(dump) => {
                out.push(11);
                dump.encode_into(out);
            }
            Response::Accuracy(audit) => {
                out.push(12);
                audit.encode_into(out);
            }
            Response::Overloaded { retry_after_micros } => {
                out.push(13);
                retry_after_micros.encode_into(out);
            }
        }
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(match r.byte()? {
            0 => Response::Ok,
            1 => Response::Count(u64::decode_from(r)?),
            2 => Response::Items(Vec::decode_from(r)?),
            3 => Response::Value(Option::decode_from(r)?),
            4 => Response::Metrics(MetricsReport::decode_from(r)?),
            5 => Response::Summary(Vec::decode_from(r)?),
            6 => Response::Error(String::decode_from(r)?),
            7 => Response::Telemetry(RegistrySnapshot::decode_from(r)?),
            8 => Response::Cluster(ClusterInfo::decode_from(r)?),
            9 => Response::Range(RangeAnswer::decode_from(r)?),
            10 => Response::Segments(SegmentReport::decode_from(r)?),
            11 => Response::Trace(TraceDumpReport::decode_from(r)?),
            12 => Response::Accuracy(AccuracyAudit::decode_from(r)?),
            13 => Response::Overloaded {
                retry_after_micros: u64::decode_from(r)?,
            },
            _ => return Err(WireError::Malformed("unknown response opcode")),
        })
    }
}

impl Wire for MetricsReport {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.updates.encode_into(out);
        self.batches.encode_into(out);
        self.dropped.encode_into(out);
        self.merges.encode_into(out);
        self.epoch.encode_into(out);
        self.snapshot_age_micros.encode_into(out);
        self.snapshot_weight.encode_into(out);
        self.shards_lost.encode_into(out);
        self.frames_rejected.encode_into(out);
        self.retries.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(MetricsReport {
            updates: u64::decode_from(r)?,
            batches: u64::decode_from(r)?,
            dropped: u64::decode_from(r)?,
            merges: u64::decode_from(r)?,
            epoch: u64::decode_from(r)?,
            snapshot_age_micros: u64::decode_from(r)?,
            snapshot_weight: u64::decode_from(r)?,
            shards_lost: u64::decode_from(r)?,
            frames_rejected: u64::decode_from(r)?,
            retries: u64::decode_from(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Ping,
            Request::Ingest(vec![1, 2, 3, u64::MAX]),
            Request::Flush,
            Request::Point(42),
            Request::HeavyHitters(0.01),
            Request::Rank(7),
            Request::Quantile(0.5),
            Request::Metrics,
            Request::Summary,
            Request::Telemetry,
            Request::ClusterInfo,
            Request::NodeSummary(0),
            Request::NodeSummary(u32::MAX),
            Request::RangeQuantile {
                start_micros: 0,
                end_micros: u64::MAX,
                phi: 0.99,
            },
            Request::RangeHeavyHitters {
                start_micros: 1_000_000,
                end_micros: 2_000_000,
                phi: 0.01,
            },
            Request::SegmentInfo,
            Request::TraceDump,
            Request::AccuracyReport,
        ];
        for req in cases {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn an_incoming_ingest_keeps_the_buffer_it_arrived_in() {
        let request = Request::Ingest(vec![1, 2, 3, u64::MAX]);
        for envelope in [
            RequestEnvelope::default(),
            RequestEnvelope {
                ctx: None,
                deadline_micros: Some(5),
            },
        ] {
            let mut bytes = Vec::new();
            envelope.encode_frame_into(&mut bytes, |out| request.encode_into(out));
            let frame = WireFrame::from_bytes(&bytes).unwrap();
            let mut payload = frame.payload.clone();
            let arrived_at = payload.as_ptr();
            let (incoming, seen) = decode_incoming(frame.tag, &mut payload).unwrap();
            assert_eq!(seen, envelope);
            assert_eq!(incoming.opcode(), request.opcode());
            let Incoming::Ingest(ingest) = incoming else {
                panic!("an ingest must stay a frame")
            };
            assert!(payload.is_empty(), "the frame took the buffer");
            assert_eq!(ingest.len(), 4);
            // The payload is the request's bytes past envelope and opcode,
            // untouched and unmoved: what the WAL logs and a node is sent.
            assert_eq!(ingest.payload(), &vec![1u64, 2, 3, u64::MAX].encode()[..]);
            let mut items = vec![9];
            ingest.decode_into(&mut items);
            assert_eq!(items, [9, 1, 2, 3, u64::MAX]);
            let bytes = ingest.into_bytes();
            assert_eq!(bytes.as_ptr(), arrived_at);
            // Both readers see the same request.
            assert_eq!(
                decode_traced_request(&frame).unwrap(),
                (request.clone(), envelope)
            );
        }
        // Every other opcode decodes, and leaves the buffer where it was.
        let mut ping = Request::Ping.encode();
        let (incoming, _) = decode_incoming(REQUEST_TAG, &mut ping).unwrap();
        assert!(matches!(incoming, Incoming::Request(Request::Ping)));
        assert_eq!(ping, Request::Ping.encode());
    }

    #[test]
    fn a_malformed_incoming_ingest_is_rejected_like_a_decoded_one() {
        let good = Request::Ingest(vec![5, 300, u64::MAX]).encode();
        let mut damaged: Vec<Vec<u8>> = (1..good.len()).map(|cut| good[..cut].to_vec()).collect();
        damaged.push([&good[..], &[0][..]].concat()); // trailing byte
        damaged.push(vec![
            1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02,
        ]);
        damaged.push(vec![1, 0xff, 0xff, 0xff, 0x7f, 1]); // length past the buffer
        for bytes in damaged {
            let frame = WireFrame {
                tag: REQUEST_TAG,
                payload: bytes.clone(),
            };
            let mut payload = bytes.clone();
            assert_eq!(
                decode_incoming(REQUEST_TAG, &mut payload).unwrap_err(),
                decode_traced_request(&frame).unwrap_err(),
                "{bytes:02x?}"
            );
            assert_eq!(payload, bytes, "a rejected frame leaves the buffer behind");
        }
        // Legal but not canonical (an overlong zero) is accepted as it is.
        let mut overlong = vec![1, 2, 0x80, 0x00, 7];
        let (incoming, _) = decode_incoming(REQUEST_TAG, &mut overlong).unwrap();
        let Incoming::Ingest(ingest) = incoming else {
            panic!("an ingest must stay a frame")
        };
        assert_eq!(ingest.payload(), [2, 0x80, 0x00, 7]);
        let mut items = Vec::new();
        ingest.decode_into(&mut items);
        assert_eq!(items, [0, 7]);
    }

    #[test]
    fn responses_roundtrip() {
        let cases = [
            Response::Ok,
            Response::Count(99),
            Response::Items(vec![(1, 10), (2, 20)]),
            Response::Value(None),
            Response::Value(Some(123)),
            Response::Metrics(MetricsReport {
                updates: 1,
                batches: 2,
                dropped: 3,
                merges: 4,
                epoch: 5,
                snapshot_age_micros: 6,
                snapshot_weight: 7,
                shards_lost: 8,
                frames_rejected: 9,
                retries: 10,
            }),
            Response::Summary(vec![0xAB; 16]),
            Response::Error("nope".into()),
            Response::Telemetry(RegistrySnapshot::default()),
            Response::Cluster(ClusterInfo {
                nodes: vec![
                    NodeInfo {
                        index: 0,
                        addr: "127.0.0.1:7433".into(),
                        state: NodeState::Alive,
                        consecutive_failures: 0,
                        requests: 100,
                        failures: 0,
                        last_weight: 42_000,
                    },
                    NodeInfo {
                        index: 1,
                        addr: "10.0.0.2:7433".into(),
                        state: NodeState::Dead,
                        consecutive_failures: u32::MAX,
                        requests: u64::MAX,
                        failures: u64::MAX,
                        last_weight: 0,
                    },
                ],
                replicas: true,
                slots: 1,
                vnodes: 64,
                rebalanced_batches: 7,
            }),
            Response::Range(RangeAnswer {
                meta: RangeMeta {
                    start_micros: 5,
                    end_micros: u64::MAX,
                    segments_merged: 3,
                    open_included: true,
                    covered_weight: 12_345,
                    start_seq: 1,
                    end_seq: 190,
                },
                value: Some(77),
                items: vec![(9, 900), (4, 400)],
                summary: vec![0xCD; 24],
            }),
            Response::Segments(SegmentReport {
                now_micros: 99,
                segments: vec![
                    SegmentMeta {
                        id: 0,
                        start_seq: 1,
                        end_seq: 64,
                        start_micros: 0,
                        end_micros: 10,
                        weight: 6_400,
                        batches: 64,
                        sealed: true,
                        tier: 2,
                    },
                    SegmentMeta {
                        id: 1,
                        start_seq: 65,
                        end_seq: 70,
                        start_micros: 11,
                        end_micros: 99,
                        weight: 600,
                        batches: 6,
                        sealed: false,
                        tier: 0,
                    },
                ],
            }),
            Response::Trace(TraceDumpReport {
                seed: 0xF417_5EED,
                ring_capacity: 256,
                captured_micros: 1_000_000,
                threads: vec![
                    ThreadTrace {
                        label: "conn".into(),
                        evicted: 42,
                        events: vec![TraceEventRecord {
                            name: "request".into(),
                            start_micros: 5,
                            duration_micros: 17,
                            fields: vec![
                                ("trace".into(), u64::MAX),
                                ("span".into(), 9),
                                ("parent".into(), 0),
                            ],
                        }],
                    },
                    ThreadTrace {
                        label: "worker0".into(),
                        evicted: 0,
                        events: vec![],
                    },
                ],
            }),
            Response::Accuracy(AccuracyAudit {
                kind: "mg".into(),
                epsilon: 0.01,
                weight: 1_000_000,
                envelope: 10_000.0,
                merges: 37,
                depth: 6,
                audit_weight: 1_000_000,
                audited_items: 61,
                reservoir_len: 4096,
                observed_error: 42.5,
                sampling_slack: 0.0,
                within_bound: true,
                nodes: 3,
            }),
            Response::Overloaded {
                retry_after_micros: 0,
            },
            Response::Overloaded {
                retry_after_micros: u64::MAX,
            },
        ];
        // One scratch across every reply, as a server connection holds it.
        let mut scratch = Vec::new();
        for resp in cases {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
            scratch.clear();
            resp.encode_frame_into(&mut scratch);
            assert_eq!(
                scratch,
                WireFrame::from_value(RESPONSE_TAG, &resp).to_bytes()
            );
        }
    }

    #[test]
    fn telemetry_response_roundtrips_populated_snapshot() {
        let registry = ms_obs::MetricsRegistry::new();
        registry.counter("server_bytes_in_total").add(u64::MAX);
        registry.gauge("queue_depth{shard=\"0\"}").set(i64::MIN);
        let h = registry.histogram("request_micros{op=\"ingest\"}");
        h.record(0);
        h.record(u64::MAX);
        let resp = Response::Telemetry(registry.snapshot());
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn metrics_report_roundtrips_all_max_values() {
        // Every field at u64::MAX: the varint encoder's widest case. A
        // regression here would silently corrupt counters reported by
        // long-lived servers.
        let report = MetricsReport {
            updates: u64::MAX,
            batches: u64::MAX,
            dropped: u64::MAX,
            merges: u64::MAX,
            epoch: u64::MAX,
            snapshot_age_micros: u64::MAX,
            snapshot_weight: u64::MAX,
            shards_lost: u64::MAX,
            frames_rejected: u64::MAX,
            retries: u64::MAX,
        };
        assert_eq!(MetricsReport::decode(&report.encode()).unwrap(), report);
        let resp = Response::Metrics(report);
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn bad_opcodes_rejected() {
        assert!(Request::decode(&[99]).is_err());
        assert!(Response::decode(&[99]).is_err());
    }

    #[test]
    fn idempotency_classification() {
        assert!(!Request::Ingest(vec![1]).is_idempotent());
        for req in [
            Request::Ping,
            Request::Flush,
            Request::Point(1),
            Request::HeavyHitters(0.1),
            Request::Rank(1),
            Request::Quantile(0.5),
            Request::Metrics,
            Request::Summary,
            Request::Telemetry,
            Request::ClusterInfo,
            Request::NodeSummary(2),
            Request::RangeQuantile {
                start_micros: 0,
                end_micros: 1,
                phi: 0.5,
            },
            Request::RangeHeavyHitters {
                start_micros: 0,
                end_micros: 1,
                phi: 0.1,
            },
            Request::SegmentInfo,
            // Both observability pulls are pure reads: retrying after a
            // transport failure can only re-dump rings / re-run the audit.
            Request::TraceDump,
            Request::AccuracyReport,
        ] {
            assert!(req.is_idempotent(), "{req:?}");
        }
    }

    #[test]
    fn node_state_rejects_unknown_discriminant() {
        assert!(NodeState::decode(&[3]).is_err());
    }

    #[test]
    fn metrics_report_merge_sums_counters_and_maxes_gauges() {
        let a = MetricsReport {
            updates: 100,
            batches: 10,
            dropped: 1,
            merges: 5,
            epoch: 9,
            snapshot_age_micros: 50,
            snapshot_weight: 100,
            shards_lost: 0,
            frames_rejected: 2,
            retries: 3,
        };
        let mut m = a;
        m.merge_from(&MetricsReport {
            updates: 200,
            batches: 20,
            dropped: 0,
            merges: 7,
            epoch: 4,
            snapshot_age_micros: 900,
            snapshot_weight: 200,
            shards_lost: 1,
            frames_rejected: 0,
            retries: 1,
        });
        // Work counters sum across nodes...
        assert_eq!(m.updates, 300);
        assert_eq!(m.batches, 30);
        assert_eq!(m.dropped, 1);
        assert_eq!(m.merges, 12);
        assert_eq!(m.snapshot_weight, 300);
        assert_eq!(m.shards_lost, 1);
        assert_eq!(m.frames_rejected, 2);
        assert_eq!(m.retries, 4);
        // ...but per-node gauges do not: epochs advance independently, so
        // a sum would fabricate an epoch no node ever published, and the
        // cluster's snapshot is only as fresh as its stalest member.
        assert_eq!(m.epoch, 9);
        assert_eq!(m.snapshot_age_micros, 900);
    }

    #[test]
    fn decode_request_rejects_wrong_tag_and_trailing_bytes() {
        let good = WireFrame::from_value(REQUEST_TAG, &Request::Ping);
        assert_eq!(decode_request(&good).unwrap(), Request::Ping);

        let wrong_tag = WireFrame::from_value(RESPONSE_TAG, &Request::Ping);
        assert_eq!(
            decode_request(&wrong_tag).unwrap_err(),
            WireError::BadTag(RESPONSE_TAG)
        );

        let mut trailing = good.clone();
        trailing.payload.push(0xFF);
        assert_eq!(
            decode_request(&trailing).unwrap_err(),
            WireError::Trailing(1)
        );

        let truncated = WireFrame {
            tag: REQUEST_TAG,
            payload: Vec::new(),
        };
        assert_eq!(
            decode_request(&truncated).unwrap_err(),
            WireError::Truncated
        );
    }

    const CTX: Option<TraceContext> = Some(TraceContext {
        trace_id: 0xDEAD_BEEF_CAFE_F00D,
        parent_span: 77,
    });

    fn enveloped(ctx: Option<TraceContext>, deadline_micros: Option<u64>) -> RequestEnvelope {
        RequestEnvelope {
            ctx,
            deadline_micros,
        }
    }

    fn framed(envelope: RequestEnvelope, req: &Request) -> WireFrame {
        let mut bytes = Vec::new();
        envelope.encode_frame_into(&mut bytes, |out| req.encode_into(out));
        WireFrame::from_bytes(&bytes).unwrap()
    }

    #[test]
    fn envelopes_roundtrip_in_all_four_forms() {
        let req = Request::Ingest(vec![1, 2, 3]);
        for (ctx, deadline) in [(None, None), (CTX, None), (None, Some(0)), (CTX, Some(250))] {
            let envelope = enveloped(ctx, deadline);
            let frame = framed(envelope, &req);
            assert_eq!(
                decode_traced_request(&frame).unwrap(),
                (req.clone(), envelope)
            );
            // The three byte forms: no envelope bytes at all, the legacy
            // context prefix, the sentinel-0 deadline prefix.
            match (ctx, deadline) {
                (None, None) => assert_eq!(frame, WireFrame::from_value(REQUEST_TAG, &req)),
                (Some(ctx), None) => assert_eq!(frame.payload[..ctx.wire_len()], ctx.encode()),
                (_, Some(_)) => assert_eq!(frame.payload[0], 0, "sentinel discriminates v2"),
            }
            // decode_request (old entry point) rejects the traced tag, so
            // a component that never learned about tracing fails loudly
            // instead of misparsing the context bytes as an opcode.
            if envelope != RequestEnvelope::default() {
                assert_eq!(
                    decode_request(&frame).unwrap_err(),
                    WireError::BadTag(TRACED_REQUEST_TAG)
                );
            }
            // A borrowed batch written through the same envelope is
            // byte-identical to the owned `Request::Ingest`.
            let mut borrowed = Vec::new();
            envelope.encode_frame_into(&mut borrowed, |out| {
                out.push(Request::Ingest(Vec::new()).opcode());
                ms_core::wire::encode_u64_slice_into(out, &[1, 2, 3]);
            });
            assert_eq!(borrowed, frame.to_bytes());
        }
    }

    #[test]
    fn enveloped_decode_rejects_truncation_trailing_and_bad_tags() {
        // (envelope, prefix length): a sentinel alone is a truncated
        // envelope, not an empty one.
        let ctx_len = CTX.map_or(0, |c| c.wire_len());
        for (envelope, prefix) in [
            (enveloped(CTX, None), ctx_len),
            (enveloped(None, Some(9)), 1),
        ] {
            let good = framed(envelope, &Request::Flush);
            let mut trailing = good.clone();
            trailing.payload.push(0xAB);
            assert_eq!(
                decode_traced_request(&trailing).unwrap_err(),
                WireError::Trailing(1)
            );
            // Envelope present, request missing.
            for cut_at in [prefix, good.payload.len() - 1] {
                let mut cut = good.clone();
                cut.payload.truncate(cut_at);
                assert_eq!(
                    decode_traced_request(&cut).unwrap_err(),
                    WireError::Truncated
                );
            }
        }
        let response_tag = WireFrame::from_value(RESPONSE_TAG, &Request::Ping);
        assert_eq!(
            decode_traced_request(&response_tag).unwrap_err(),
            WireError::BadTag(RESPONSE_TAG)
        );
    }

    #[test]
    fn accuracy_audit_merges_like_a_summary() {
        let mut a = AccuracyAudit {
            kind: "mg".into(),
            epsilon: 0.01,
            weight: 100,
            envelope: 1.0,
            merges: 4,
            depth: 2,
            audit_weight: 100,
            audited_items: 7,
            reservoir_len: 64,
            observed_error: 0.5,
            sampling_slack: 0.0,
            within_bound: true,
            nodes: 1,
        };
        let b = AccuracyAudit {
            kind: "mg".into(),
            epsilon: 0.01,
            weight: 300,
            envelope: 3.0,
            merges: 9,
            depth: 5,
            audit_weight: 250,
            audited_items: 11,
            reservoir_len: 64,
            observed_error: 2.0,
            sampling_slack: 0.25,
            within_bound: false,
            nodes: 2,
        };
        a.merge_from(&b);
        // Additive like n itself...
        assert_eq!(a.weight, 400);
        assert_eq!(a.envelope, 4.0);
        assert_eq!(a.merges, 13);
        assert_eq!(a.audit_weight, 350);
        assert_eq!(a.audited_items, 18);
        assert_eq!(a.reservoir_len, 128);
        assert_eq!(a.nodes, 3);
        // ...worst-case for the bound-facing fields.
        assert_eq!(a.depth, 5);
        assert_eq!(a.observed_error, 2.0);
        assert_eq!(a.sampling_slack, 0.25);
        assert!(!a.within_bound, "one violating node taints the cluster");
    }
}
