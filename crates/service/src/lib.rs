//! Sharded concurrent streaming-aggregation service.
//!
//! This crate turns the paper's mergeability guarantee into a concurrent
//! systems design. An [`Engine`] keeps `N` ingest shards, each a **delta**
//! summary that the thread receiving a batch absorbs it into, of one of
//! four kinds ([`SummaryKind`]), held in three counter types: a SpaceSaving summary is the Misra-Gries
//! table it is a view of (PODS'12 §3, Lemma 1); a background **compactor** merges handed-off deltas
//! into a global summary and publishes immutable [`Snapshot`]s behind an
//! `Arc`, so queries never block ingest. Because summaries are mergeable
//! under *arbitrary* merge trees (PODS'12, Definition 1), the
//! nondeterministic interleaving of shard hand-offs does not degrade the
//! `εn` error bound — the differential tests in `tests/` check the
//! concurrent engine against a single-threaded reference on the same
//! stream.
//!
//! The [`server`] module adds a TCP front-end: [`Wire`]-encoded
//! [`Request`]/[`Response`] values carried in `WireFrame`s
//! (`ms_core::wire`), served by `mergeable serve` and exercised by
//! `mergeable bench-client`.
//!
//! The same mergeability argument covers *failure*: a failed absorb loses
//! only its shard's un-handed-off delta, and the deltas already merged stay,
//! so the engine degrades to a valid summary of the surviving updates
//! instead of dying. The [`fault`] module defines the injection seams
//! ([`FaultPlan`]) the `ms-faultsim` harness drives to prove that under
//! seeded schedules of shard loss, stalls, frame corruption and client
//! disconnects; every failure path
//! returns a typed [`ServiceError`].
//!
//! [`Wire`]: ms_core::Wire

pub mod config;
pub mod cube;
pub mod deadline;
pub mod engine;
pub mod fault;
pub mod overload;
pub mod protocol;
pub mod server;
pub mod summary;
pub mod telemetry;
pub mod tracectx;

pub use config::{
    CubeClock, DurabilityConfig, ManualClock, SegmentConfig, ServiceConfig, SummaryKind,
    SystemClock,
};
pub use cube::{AdoptOutcome, CubeOutcome, SegmentCube};
pub use engine::{Engine, MetricsReport, RecoveryReport, Snapshot};
pub use fault::{plan_fn, FaultAction, FaultPlan, NoFaults};
pub use overload::{Admission, AdmitGuard, OpClass, OverloadConfig, ShedReason};
pub use protocol::{
    decode_incoming, decode_request, decode_traced_request, AccuracyAudit, ClusterInfo, Incoming,
    IngestFrame, NodeInfo, NodeState, RangeAnswer, RangeMeta, Request, RequestEnvelope, Response,
    SegmentMeta, SegmentReport, ThreadTrace, TraceDumpReport, TraceEventRecord, REQUEST_TAG,
    RESPONSE_TAG, TRACED_REQUEST_TAG,
};
pub use server::{answer_query, answer_range, dispatch, Client, ClientOptions, Server, Service};
pub use summary::{MergeLineage, ShardSummary, SUMMARY_FILE_TAG};
pub use telemetry::{EngineTelemetry, OPCODE_LABELS};
pub use tracectx::{stitch, StitchedSpan, TraceContext};

pub use ms_core::ServiceError;
pub use ms_obs::RegistrySnapshot;
pub use ms_store::FsyncPolicy;
