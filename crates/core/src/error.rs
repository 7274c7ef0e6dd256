//! Typed errors for merge operations and the aggregation service.
//!
//! Merging is only defined between summaries built with the same parameters
//! (same ε / number of counters / buffer size / reference frame). Rather than
//! silently producing a summary with an undefined guarantee, every merge in
//! the workspace validates its inputs and returns a [`MergeError`].
//!
//! [`ServiceError`] is the failure vocabulary of the sharded aggregation
//! service (`ms-service`) and the fault-injection harness (`ms-faultsim`):
//! every failure path that used to be an `unwrap()`/`panic!` — engine
//! shutdown races, dead shard threads, saturated queues, malformed wire
//! frames, socket timeouts — is a typed, matchable variant instead, so the
//! harness can assert *which* failure occurred, not just that something
//! went wrong.

use std::fmt;
use std::io;

use crate::wire::WireError;

/// Result alias used by fallible merge operations throughout the workspace.
pub type Result<T, E = MergeError> = std::result::Result<T, E>;

/// Why two summaries could not be merged.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// The two summaries were built with different capacity parameters
    /// (number of counters, buffer size, sketch width/depth, ...).
    CapacityMismatch {
        /// Human-readable name of the mismatched parameter.
        parameter: &'static str,
        /// Value held by the left summary.
        left: usize,
        /// Value held by the right summary.
        right: usize,
    },
    /// The two summaries were built with different error parameters ε.
    EpsilonMismatch {
        /// ε of the left summary.
        left: f64,
        /// ε of the right summary.
        right: f64,
    },
    /// The two randomized summaries use different hash seeds and are
    /// therefore not in the same linear family (Count-Min, Count-Sketch).
    SeedMismatch {
        /// Seed of the left summary.
        left: u64,
        /// Seed of the right summary.
        right: u64,
    },
    /// Restricted mergeability precondition violated (ε-kernels: the two
    /// summaries must share a reference frame).
    FrameMismatch,
    /// Any other structural incompatibility.
    Incompatible(&'static str),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::CapacityMismatch {
                parameter,
                left,
                right,
            } => write!(
                f,
                "cannot merge: {parameter} differs between summaries ({left} vs {right})"
            ),
            MergeError::EpsilonMismatch { left, right } => {
                write!(f, "cannot merge: epsilon differs ({left} vs {right})")
            }
            MergeError::SeedMismatch { left, right } => write!(
                f,
                "cannot merge: hash seeds differ ({left:#x} vs {right:#x}); \
                 linear sketches must share their hash family"
            ),
            MergeError::FrameMismatch => write!(
                f,
                "cannot merge: ε-kernels were built in different reference frames \
                 (restricted mergeability requires a common frame)"
            ),
            MergeError::Incompatible(why) => write!(f, "cannot merge: {why}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Why a service operation (ingest, flush, query, RPC) failed.
///
/// Transient variants ([`ServiceError::is_transient`]) are worth retrying
/// with backoff; the rest are definitive and retrying cannot help.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The engine has been shut down; no further ingest or flush possible.
    Shutdown,
    /// The configuration failed validation.
    Config(&'static str),
    /// An OS-level failure (spawn, bind, socket I/O). The kind is preserved
    /// so callers can distinguish EOF from refused connections etc.
    Io {
        /// The `std::io::ErrorKind` of the underlying failure.
        kind: io::ErrorKind,
        /// Human-readable detail.
        detail: String,
    },
    /// A request or response did not decode.
    Wire(WireError),
    /// A request did not complete within its deadline.
    Timeout {
        /// The deadline that expired, in milliseconds.
        millis: u64,
    },
    /// The peer answered with a protocol-level error message.
    Protocol(String),
    /// The server (or an engine admission check) shed the request under
    /// overload instead of queueing doomed work. Retry after the hinted
    /// delay — sooner just feeds the storm.
    Overloaded {
        /// Suggested client wait before retrying, in microseconds.
        retry_after_micros: u64,
    },
}

impl ServiceError {
    /// True for failures that a retry with backoff may cure (I/O hiccups
    /// and timeouts); false for definitive ones (shutdown, bad config,
    /// malformed data, peer-reported errors).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ServiceError::Io { .. }
                | ServiceError::Timeout { .. }
                | ServiceError::Overloaded { .. }
        )
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Shutdown => write!(f, "engine is shut down"),
            ServiceError::Config(why) => write!(f, "invalid configuration: {why}"),
            ServiceError::Io { kind, detail } => write!(f, "i/o failure ({kind:?}): {detail}"),
            ServiceError::Wire(e) => write!(f, "wire failure: {e}"),
            ServiceError::Timeout { millis } => write!(f, "request timed out after {millis}ms"),
            ServiceError::Protocol(msg) => write!(f, "peer error: {msg}"),
            ServiceError::Overloaded { retry_after_micros } => write!(
                f,
                "request shed under overload (retry after {retry_after_micros}us)"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io {
            kind: e.kind(),
            detail: e.to_string(),
        }
    }
}

/// Check that two capacity parameters match, returning a typed error if not.
pub fn ensure_same_capacity(parameter: &'static str, left: usize, right: usize) -> Result<()> {
    if left == right {
        Ok(())
    } else {
        Err(MergeError::CapacityMismatch {
            parameter,
            left,
            right,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_capacity_mismatch() {
        let e = MergeError::CapacityMismatch {
            parameter: "counters",
            left: 8,
            right: 16,
        };
        let s = e.to_string();
        assert!(s.contains("counters"), "{s}");
        assert!(s.contains('8') && s.contains("16"), "{s}");
    }

    #[test]
    fn display_epsilon_mismatch() {
        let e = MergeError::EpsilonMismatch {
            left: 0.1,
            right: 0.01,
        };
        assert!(e.to_string().contains("0.1"));
    }

    #[test]
    fn display_seed_mismatch_is_hex() {
        let e = MergeError::SeedMismatch {
            left: 255,
            right: 0,
        };
        assert!(e.to_string().contains("0xff"));
    }

    #[test]
    fn ensure_same_capacity_accepts_equal() {
        assert!(ensure_same_capacity("k", 5, 5).is_ok());
    }

    #[test]
    fn ensure_same_capacity_rejects_unequal() {
        let err = ensure_same_capacity("k", 5, 6).unwrap_err();
        assert_eq!(
            err,
            MergeError::CapacityMismatch {
                parameter: "k",
                left: 5,
                right: 6
            }
        );
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(MergeError::FrameMismatch);
        assert!(e.to_string().contains("reference frame"));
    }

    #[test]
    fn service_error_transience() {
        assert!(ServiceError::Timeout { millis: 10 }.is_transient());
        assert!(ServiceError::Overloaded {
            retry_after_micros: 1
        }
        .is_transient());
        assert!(
            ServiceError::from(io::Error::new(io::ErrorKind::ConnectionReset, "rst"))
                .is_transient()
        );
        assert!(!ServiceError::Shutdown.is_transient());
        assert!(!ServiceError::Wire(WireError::Truncated).is_transient());
        assert!(!ServiceError::Protocol("nope".into()).is_transient());
    }

    #[test]
    fn service_error_display_and_conversions() {
        let e = ServiceError::from(WireError::BadTag(9));
        assert!(e.to_string().contains("tag 9"), "{e}");
        let io_err = io::Error::new(io::ErrorKind::UnexpectedEof, "gone");
        let e = ServiceError::from(io_err);
        assert!(matches!(
            e,
            ServiceError::Io {
                kind: io::ErrorKind::UnexpectedEof,
                ..
            }
        ));
        assert!(ServiceError::Timeout { millis: 250 }
            .to_string()
            .contains("250ms"));
        let boxed: Box<dyn std::error::Error> = Box::new(ServiceError::Shutdown);
        assert!(boxed.to_string().contains("shut down"));
    }
}
