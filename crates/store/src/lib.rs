//! Crash-safe durability for the aggregation service.
//!
//! The paper's mergeability guarantee (PODS'12, Definition 1) is what
//! makes a *cheap* durability story possible: a summary checkpointed to
//! disk merges back into a fresh engine with no error degradation, so
//! recovery is "load the newest checkpoint per shard, replay the short
//! WAL tail, merge" — never "re-aggregate the stream from scratch".
//!
//! On-disk layout under one data directory:
//!
//! ```text
//! <data-dir>/
//!   wal/wal-<first-seq:016x>.seg     append-only ingest-batch records
//!   ckpt/ckpt-<wal-seq:016x>-<shard:04x>.ckpt   per-shard summary files
//!   seg/seg-<id:016x>.seg            sealed cube segments (cube only)
//! ```
//!
//! Every record — WAL batch or checkpoint — is an `ms_core::wire` frame
//! followed by a length + CRC-32 trailer ([`ms_core::wire::WireFrame::
//! to_durable_bytes`]). The trailer is the contract that makes recovery
//! honest: a record that does not verify is **truncated** (torn tail at
//! end of log — the normal crash artifact) or **skipped and reported**
//! (bit rot / corruption mid-file, resynchronized on the frame magic),
//! never trusted.
//!
//! The WAL is segment-based so checkpoints can garbage-collect whole
//! files, and the fsync policy ([`FsyncPolicy`]) trades durability for
//! throughput explicitly: `always` survives power loss per acked batch,
//! `every:N` bounds the loss window to N batches, `never` leaves flushing
//! to the OS (still crash-consistent, not power-loss-durable).

use std::io;
use std::path::PathBuf;

pub mod checkpoint;
mod durable;
pub mod group;
pub mod inspect;
pub mod segment;
pub mod wal;

pub use checkpoint::{CheckpointRecord, CheckpointSet, CheckpointStore, CHECKPOINT_TAG};
pub use group::{GroupCommit, GroupOutcome, LedStats};
pub use inspect::{inspect, CheckpointInfo, InspectReport, SegmentInfo};
pub use segment::{LoadedSegments, SegmentRecord, SegmentStore, SEGMENT_TAG};
pub use wal::{scan_segment, GroupAppend, SegmentScan, Wal, WalEntry, WAL_RECORD_TAG};

/// When the WAL fsyncs its segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record: an acked batch survives power
    /// loss. The slowest and safest setting.
    Always,
    /// fsync once every N appends (and on rotation, checkpoint and clean
    /// shutdown): at most N acked batches are exposed to power loss.
    EveryN(u64),
    /// Never fsync during appends; the OS flushes when it pleases. Still
    /// safe against process crashes (`kill -9`), not against power loss.
    Never,
}

impl FsyncPolicy {
    /// Parse a CLI label: `always`, `never`, or `every:N`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            _ => {
                let n: u64 = s.strip_prefix("every:")?.parse().ok()?;
                (n > 0).then_some(FsyncPolicy::EveryN(n))
            }
        }
    }

    /// True when this policy ever fsyncs on its own.
    pub fn syncs(&self) -> bool {
        !matches!(self, FsyncPolicy::Never)
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every:{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Sizing and sync policy for one data directory.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root data directory (`wal/` and `ckpt/` live under it).
    pub dir: PathBuf,
    /// Rotate WAL segments once they exceed this many bytes.
    pub segment_bytes: u64,
    /// When the WAL fsyncs.
    pub fsync: FsyncPolicy,
    /// Also open `seg/` and recover sealed cube segments (the segment
    /// cube; see [`segment`]). Off for engines without segmented ingest.
    pub cube_segments: bool,
}

impl StoreConfig {
    /// A config for `dir` with 4 MiB segments and `every:64` fsyncs.
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            segment_bytes: 4 << 20,
            fsync: FsyncPolicy::EveryN(64),
            cube_segments: false,
        }
    }

    /// Set the segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> StoreConfig {
        self.segment_bytes = bytes;
        self
    }

    /// Set the fsync policy.
    pub fn fsync(mut self, policy: FsyncPolicy) -> StoreConfig {
        self.fsync = policy;
        self
    }

    /// Enable (or disable) sealed cube-segment recovery under `seg/`.
    pub fn cube_segments(mut self, enabled: bool) -> StoreConfig {
        self.cube_segments = enabled;
        self
    }
}

/// What a [`Store::open`] recovery scan found. The caller merges
/// `checkpoint` parts back into its shards, re-applies `tail` in order,
/// and *reports* the damage counters — corrupted records must never be
/// silently ingested.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Newest complete, fully-verified checkpoint set, if any.
    pub checkpoint: Option<CheckpointSet>,
    /// Valid WAL records newer than the checkpoint, in seq order.
    pub tail: Vec<WalEntry>,
    /// Damaged spans skipped by resynchronizing on the frame magic.
    pub corrupt_records: u64,
    /// Unrecoverable trailing bytes truncated from the last segment.
    pub torn_bytes: u64,
    /// Checkpoint files discarded (CRC failure, wrong metadata, or an
    /// incomplete per-shard set).
    pub corrupt_checkpoints: u64,
    /// WAL records dropped because their seq was not strictly increasing
    /// (replay idempotence: a duplicate is never applied twice).
    pub duplicates: u64,
    /// Segment files scanned.
    pub segments: usize,
    /// Total WAL bytes scanned.
    pub wal_bytes: u64,
    /// Highest valid seq seen anywhere in the WAL (0 when empty).
    pub last_seq: u64,
    /// Intact sealed cube segments, a contiguous seq prefix in id order
    /// (empty unless [`StoreConfig::cube_segments`] is on).
    pub cube: Vec<SegmentRecord>,
    /// Cube segment files discarded (CRC failure, id mismatch, or lost
    /// past a contiguity gap).
    pub corrupt_cube_segments: u64,
    /// Highest batch seq covered by an intact sealed cube segment (0
    /// when none): the WAL tail above this floor rebuilds the open
    /// segment and any sealed-but-lost ones.
    pub cube_floor: u64,
    /// Human-readable notes about damage and fallbacks, for logs.
    pub notes: Vec<String>,
}

/// An open data directory: the live WAL plus its checkpoint store (and,
/// when the segment cube is enabled, the sealed-segment store).
pub struct Store {
    /// Append-only ingest-batch log.
    pub wal: Wal,
    /// Checkpoint sets: one part each as the engine writes them, older
    /// per-shard sets still read.
    pub checkpoints: CheckpointStore,
    /// Sealed cube segments; `None` unless [`StoreConfig::cube_segments`].
    pub segments: Option<SegmentStore>,
}

impl Store {
    /// Open (or create) a data directory and run the recovery scan:
    /// load the newest valid checkpoint set, scan every WAL segment with
    /// CRC verification, truncate the torn tail of the last segment, and
    /// position the WAL to append after the highest seq recovery holds.
    ///
    /// That seq is `max(WAL last seq, cube floor, checkpoint cut)`. The
    /// WAL can end below the other two: segment files sync on every seal
    /// while the WAL syncs every N appends, and a checkpoint covers seqs
    /// whose records may be gone. A batch numbered at or below the cube
    /// floor is ignored by the cube as already folded, and one at or
    /// below the checkpoint cut is skipped by the next recovery as
    /// already restored, so new batches start above all three.
    pub fn open(cfg: &StoreConfig) -> io::Result<(Store, Recovery)> {
        let checkpoints = CheckpointStore::open(cfg.dir.join("ckpt"), cfg.fsync.syncs())?;
        let mut recovery = Recovery::default();

        let loaded = checkpoints.load_newest()?;
        recovery.corrupt_checkpoints = loaded.discarded;
        recovery.notes.extend(loaded.notes);
        let ckpt_seq = loaded.newest.as_ref().map_or(0, |s| s.wal_seq);
        recovery.checkpoint = loaded.newest;

        // With the cube on, the WAL tail must also reach back past the
        // checkpoint cut to the last persisted segment, so lost or
        // unsealed segments can be rebuilt by replay.
        let mut segments = None;
        let mut tail_floor = ckpt_seq;
        if cfg.cube_segments {
            let store = SegmentStore::open(cfg.dir.join("seg"), cfg.fsync.syncs())?;
            let loaded = store.load_all()?;
            recovery.corrupt_cube_segments = loaded.discarded;
            recovery.notes.extend(loaded.notes);
            recovery.cube_floor = loaded.records.last().map_or(0, |r| r.end_seq);
            recovery.cube = loaded.records;
            tail_floor = tail_floor.min(recovery.cube_floor);
            segments = Some(store);
        }

        let (mut wal, scans) = Wal::open(cfg)?;
        wal.resume_after(ckpt_seq.max(recovery.cube_floor));
        recovery.segments = scans.len();
        let mut last_seq = 0u64;
        for (path, scan) in scans {
            recovery.wal_bytes += scan.bytes;
            recovery.corrupt_records += scan.corrupt_spans;
            recovery.torn_bytes += scan.torn_bytes;
            if scan.corrupt_spans > 0 || scan.torn_bytes > 0 {
                recovery.notes.push(format!(
                    "{}: {} corrupt span(s), {} torn byte(s){}",
                    path.display(),
                    scan.corrupt_spans,
                    scan.torn_bytes,
                    scan.tail_error
                        .as_ref()
                        .map(|e| format!(" ({e})"))
                        .unwrap_or_default(),
                ));
            }
            for entry in scan.entries {
                if entry.seq <= last_seq {
                    recovery.duplicates += 1;
                    continue;
                }
                last_seq = entry.seq;
                if entry.seq > tail_floor {
                    recovery.tail.push(entry);
                }
            }
        }
        recovery.last_seq = last_seq;
        Ok((
            Store {
                wal,
                checkpoints,
                segments,
            },
            recovery,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_labels_roundtrip() {
        for policy in [
            FsyncPolicy::Always,
            FsyncPolicy::Never,
            FsyncPolicy::EveryN(8),
        ] {
            assert_eq!(FsyncPolicy::parse(&policy.to_string()), Some(policy));
        }
        assert_eq!(FsyncPolicy::parse("every:0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::parse("every:x"), None);
    }

    #[test]
    fn the_wal_resumes_above_everything_recovery_holds() {
        let dir = std::env::temp_dir().join(format!("ms-store-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig::new(&dir);

        // A checkpoint cut over an empty WAL. The next recovery replays
        // only seqs above the cut, so a batch numbered at or below it
        // would be lost.
        CheckpointStore::open(dir.join("ckpt"), false)
            .unwrap()
            .write_set(100, 1, &[vec![7]])
            .unwrap();
        let (mut store, recovery) = Store::open(&cfg).unwrap();
        assert_eq!(recovery.last_seq, 0, "the WAL itself is empty");
        assert_eq!(store.wal.next_seq(), 101);
        assert_eq!(store.wal.append(b"acked").unwrap().seq, 101);
        drop(store);
        let (store, recovery) = Store::open(&cfg).unwrap();
        let tail: Vec<u64> = recovery.tail.iter().map(|e| e.seq).collect();
        assert_eq!(tail, [101], "the acked batch is replayed");
        drop(store);

        // A sealed cube segment past both: its seqs are folded already.
        SegmentStore::open(dir.join("seg"), false)
            .unwrap()
            .write(&SegmentRecord {
                id: 0,
                start_seq: 1,
                end_seq: 150,
                start_micros: 0,
                end_micros: 0,
                weight: 150,
                batches: 150,
                tier: 0,
                summaries: Vec::new(),
            })
            .unwrap();
        let (store, recovery) = Store::open(&cfg.cube_segments(true)).unwrap();
        assert_eq!(recovery.cube_floor, 150);
        assert_eq!(store.wal.next_seq(), 151);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
