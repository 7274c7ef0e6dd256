//! Framework types for *mergeable summaries*.
//!
//! This crate provides the shared vocabulary used by every summary in the
//! workspace, following the model of Agarwal, Cormode, Huang, Phillips, Wei
//! and Yi, *Mergeable summaries*, PODS 2012:
//!
//! * a summarization scheme `S(D, ε)` is **mergeable** if there is an
//!   algorithm taking `S(D₁, ε)` and `S(D₂, ε)` to `S(D₁ ⊎ D₂, ε)` — the same
//!   error parameter and the same size bound, no matter how many merges are
//!   performed or in what order;
//! * the [`Mergeable`] trait captures that contract, and [`tree`] provides
//!   drivers that exercise it over arbitrary merge-tree shapes (the paper's
//!   guarantees must hold for *all* of them, not just left-deep chains);
//! * [`oracle`] computes exact ground truth (frequencies, ranks) so tests and
//!   experiments can measure the error actually committed;
//! * [`metrics`] summarizes those errors;
//! * [`rng`] is a tiny deterministic RNG (splitmix64 / xoshiro256**) so every
//!   randomized merge in the workspace is reproducible from an explicit seed;
//! * [`hash`] is a fast non-cryptographic hasher for counter maps;
//! * [`wire`] is the compact, versioned binary codec summaries ship in
//!   (files, sockets, simulated links), and [`json`] a small encode-only
//!   JSON writer used for reports and byte-cost comparisons.
//!
//! Summaries in this workspace are **value types**: merging consumes both
//! inputs and returns the merged summary (or a typed [`MergeError`] when the
//! inputs are incompatible — e.g. built with different ε).

pub mod error;
pub mod geom;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod pool;
pub mod ring;
pub mod rng;
pub mod simd;
pub mod summary;
pub mod swap;
pub mod tree;
pub mod wire;

pub use error::{MergeError, Result, ServiceError};
pub use geom::{directional_width, unit_dir, Point2, Rect};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use json::{Json, ToJson};
pub use metrics::{percentile, BoundCheck, ErrorStats};
pub use oracle::{FrequencyOracle, RankOracle};
pub use pool::BufferPool;
pub use ring::{PushError, Ring};
pub use rng::Rng64;
pub use summary::{ItemSummary, Mergeable, Summary};
pub use swap::SwapCell;
pub use tree::{merge_all, MergeTree};
pub use wire::{crc32, Wire, WireError, WireFrame, WireReader};

use std::sync::{Mutex, MutexGuard};

/// Lock `m`, tolerating poison. A poisoned mutex means some thread
/// panicked while holding it; every critical section in the workspace
/// leaves its data structurally valid, so callers keep serving instead of
/// propagating the panic.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
