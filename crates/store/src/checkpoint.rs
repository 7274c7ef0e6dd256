//! Checkpoint sets.
//!
//! A checkpoint set is one file per part, `ckpt-<wal-seq:016x>-<part:04x>
//! .ckpt`, each holding a durable-framed [`CheckpointRecord`]. The engine
//! writes one-part sets; sets of one part per shard, as older engines
//! wrote them, still load. The wal-seq in the name is the cut: every WAL
//! record with seq ≤ wal-seq is folded into the set, so recovery replays
//! only the newer tail.
//!
//! Writes are atomic per file (tmp + rename, fsync'd when the store's
//! policy syncs). A set is only *used* when every part's file is present
//! and verifies; a damaged or incomplete set is discarded with a note and
//! the loader falls back to the next-newest — mergeability (PODS'12,
//! Definition 1) guarantees the older summary merges back with the same
//! error bound, so falling back costs replay time, not accuracy.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ms_core::{Wire, WireError, WireFrame, WireReader};

use crate::durable;

/// Frame tag of checkpoint records.
pub const CHECKPOINT_TAG: u8 = 0x21;

/// One shard's checkpointed summary plus the metadata that makes the
/// file self-describing (the filename alone is never trusted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord {
    /// Which shard this part belongs to.
    pub shard: u32,
    /// How many shards the full set has.
    pub shards_total: u32,
    /// The WAL cut: records with seq ≤ this are folded in.
    pub wal_seq: u64,
    /// Engine epoch at checkpoint time (monotone per data dir).
    pub epoch: u64,
    /// The shard summary, already wire-encoded by the service.
    pub summary: Vec<u8>,
}

impl Wire for CheckpointRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.shard.encode_into(out);
        self.shards_total.encode_into(out);
        self.wal_seq.encode_into(out);
        self.epoch.encode_into(out);
        self.summary.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(CheckpointRecord {
            shard: u32::decode_from(r)?,
            shards_total: u32::decode_from(r)?,
            wal_seq: u64::decode_from(r)?,
            epoch: u64::decode_from(r)?,
            summary: Vec::<u8>::decode_from(r)?,
        })
    }
}

/// A complete, fully-verified checkpoint set, `parts` indexed by shard.
#[derive(Debug, Clone)]
pub struct CheckpointSet {
    /// WAL cut the set covers.
    pub wal_seq: u64,
    /// Engine epoch stamped at write time.
    pub epoch: u64,
    /// One encoded summary per shard.
    pub parts: Vec<Vec<u8>>,
}

/// Result of [`CheckpointStore::load_newest`].
#[derive(Debug, Default)]
pub struct LoadedCheckpoint {
    /// The newest set in which every part verified, if any.
    pub newest: Option<CheckpointSet>,
    /// Files discarded: CRC/decode failures, metadata that contradicts
    /// the filename, or members of an incomplete set.
    pub discarded: u64,
    /// Human-readable notes on what was discarded and why.
    pub notes: Vec<String>,
}

/// The checkpoint side of a data directory.
pub struct CheckpointStore {
    dir: PathBuf,
    sync: bool,
}

impl CheckpointStore {
    /// Open (or create) the checkpoint directory, clearing tmp leftovers
    /// from interrupted writes.
    pub fn open(dir: PathBuf, sync: bool) -> io::Result<CheckpointStore> {
        durable::open_dir(&dir)?;
        Ok(CheckpointStore { dir, sync })
    }

    /// Where this store keeps its files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Write a full set atomically: each part goes to a tmp file, is
    /// fsync'd (when the policy syncs), then renamed into place; the
    /// directory is fsync'd last. Returns total bytes written.
    pub fn write_set(&self, wal_seq: u64, epoch: u64, parts: &[Vec<u8>]) -> io::Result<u64> {
        let shards_total = parts.len() as u32;
        let files = parts.iter().enumerate().map(|(shard, summary)| {
            let record = CheckpointRecord {
                shard: shard as u32,
                shards_total,
                wal_seq,
                epoch,
                summary: summary.clone(),
            };
            let frame = WireFrame {
                tag: CHECKPOINT_TAG,
                payload: record.encode(),
            };
            (self.part_path(wal_seq, shard as u32), frame)
        });
        durable::write_files(&self.dir, self.sync, files)
    }

    /// Load the newest set in which every shard's part is present and
    /// verifies; damaged or incomplete sets are discarded with a note.
    pub fn load_newest(&self) -> io::Result<LoadedCheckpoint> {
        let mut loaded = LoadedCheckpoint::default();
        // Group part files by the wal-seq in their name, newest first.
        let mut sets: Vec<(u64, Vec<PathBuf>)> = Vec::new();
        for (seq, path) in self.part_files()? {
            match sets.iter_mut().find(|(s, _)| *s == seq) {
                Some((_, paths)) => paths.push(path),
                None => sets.push((seq, vec![path])),
            }
        }
        sets.sort_by_key(|set| std::cmp::Reverse(set.0));
        for (seq, paths) in sets {
            match self.load_set(seq, &paths) {
                Ok(set) if loaded.newest.is_none() => loaded.newest = Some(set),
                Ok(_) => {} // older intact set kept for pruning, not loaded
                Err(why) => {
                    loaded.discarded += paths.len() as u64;
                    loaded
                        .notes
                        .push(format!("checkpoint set {seq:#x} discarded: {why}"));
                }
            }
        }
        Ok(loaded)
    }

    /// Read and verify every part of one set; any failure rejects the
    /// whole set (a partial merge would silently lose shards).
    fn load_set(&self, wal_seq: u64, paths: &[PathBuf]) -> Result<CheckpointSet, String> {
        let mut records = Vec::with_capacity(paths.len());
        for path in paths {
            let record = read_part(path).map_err(|e| format!("{}: {e}", path.display()))?;
            if record.wal_seq != wal_seq {
                return Err(format!(
                    "{}: wal_seq {:#x} contradicts filename",
                    path.display(),
                    record.wal_seq
                ));
            }
            records.push((record, path));
        }
        // Part 0 names the set's layout. A cut can be rewritten with fewer
        // parts (a one-part merged checkpoint over an earlier engine's
        // part-per-shard set): the rename of part 0 switches the set over
        // atomically, and the old layout's higher-numbered files are
        // leftovers to ignore until the seq is pruned.
        let Some(total) = records
            .iter()
            .find(|(record, _)| record.shard == 0)
            .map(|(record, _)| record.shards_total as usize)
        else {
            return Err("incomplete set: shard 0's file is missing".to_string());
        };
        let mut parts: Vec<Option<(CheckpointRecord, PathBuf)>> = Vec::new();
        let mut epoch = 0u64;
        for (record, path) in records {
            if record.shards_total as usize != total {
                continue;
            }
            let shard = record.shard as usize;
            if parts.len() <= shard {
                parts.resize_with(shard + 1, || None);
            }
            if parts[shard].is_some() {
                return Err(format!("{}: duplicate shard {shard}", path.display()));
            }
            epoch = record.epoch;
            parts[shard] = Some((record, path.clone()));
        }
        if parts.len() != total || parts.iter().any(|p| p.is_none()) {
            return Err(format!(
                "incomplete set: {} of {total} shard file(s) present",
                parts.iter().flatten().count()
            ));
        }
        Ok(CheckpointSet {
            wal_seq,
            epoch,
            parts: parts
                .into_iter()
                .map(|p| p.expect("checked complete").0.summary)
                .collect(),
        })
    }

    /// Delete all but the `keep` newest sets (by wal-seq in the name).
    /// Returns the smallest retained wal-seq, which bounds how far the
    /// WAL may be pruned.
    pub fn prune_keep(&self, keep: usize) -> io::Result<Option<u64>> {
        let mut seqs: Vec<u64> = self.part_files()?.into_iter().map(|(s, _)| s).collect();
        seqs.sort_unstable();
        seqs.dedup();
        if seqs.len() <= keep {
            return Ok(seqs.first().copied());
        }
        let cut = seqs.len() - keep;
        let (drop_seqs, keep_seqs) = seqs.split_at(cut);
        for (seq, path) in self.part_files()? {
            if drop_seqs.contains(&seq) {
                fs::remove_file(&path)?;
            }
        }
        if self.sync {
            durable::sync_dir(&self.dir)?;
        }
        Ok(keep_seqs.first().copied())
    }

    fn part_path(&self, wal_seq: u64, shard: u32) -> PathBuf {
        self.dir
            .join(format!("ckpt-{wal_seq:016x}-{shard:04x}.ckpt"))
    }

    /// Every `.ckpt` file with a parseable name, as (wal_seq, path).
    fn part_files(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut files = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|x| x == "ckpt") {
                if let Some(seq) = parse_part_seq(&path) {
                    files.push((seq, path));
                }
            }
        }
        Ok(files)
    }
}

/// The wal-seq encoded in a part filename, if it parses.
pub(crate) fn parse_part_seq(path: &Path) -> Option<u64> {
    let name = path.file_stem()?.to_str()?.strip_prefix("ckpt-")?;
    let (seq, _shard) = name.split_once('-')?;
    u64::from_str_radix(seq, 16).ok()
}

/// Read and fully verify one part file.
pub(crate) fn read_part(path: &Path) -> Result<CheckpointRecord, WireError> {
    durable::read_file(
        path,
        CHECKPOINT_TAG,
        "trailing bytes after checkpoint record",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("ms-store-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        CheckpointStore::open(dir, false).unwrap()
    }

    fn cleanup(store: &CheckpointStore) {
        let _ = fs::remove_dir_all(store.dir());
    }

    fn parts(n: usize, stamp: u8) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![stamp, i as u8, 0xAA]).collect()
    }

    #[test]
    fn write_then_load_newest_roundtrip() {
        let store = temp_store("roundtrip");
        store.write_set(100, 1, &parts(3, 1)).unwrap();
        store.write_set(250, 2, &parts(3, 2)).unwrap();
        let loaded = store.load_newest().unwrap();
        assert_eq!(loaded.discarded, 0);
        let set = loaded.newest.unwrap();
        assert_eq!(set.wal_seq, 250);
        assert_eq!(set.epoch, 2);
        assert_eq!(set.parts, parts(3, 2));
        cleanup(&store);
    }

    #[test]
    fn damaged_newest_set_falls_back_to_older() {
        let store = temp_store("fallback");
        store.write_set(100, 1, &parts(2, 1)).unwrap();
        store.write_set(250, 2, &parts(2, 2)).unwrap();
        // Flip a payload bit in one part of the newest set.
        let victim = store.part_path(250, 1);
        let mut bytes = fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        fs::write(&victim, &bytes).unwrap();

        let loaded = store.load_newest().unwrap();
        assert_eq!(loaded.discarded, 2, "both parts of the bad set discarded");
        assert!(loaded.notes.iter().any(|n| n.contains("discarded")));
        let set = loaded.newest.unwrap();
        assert_eq!(set.wal_seq, 100, "fallback to the older intact set");
        assert_eq!(set.parts, parts(2, 1));
        cleanup(&store);
    }

    #[test]
    fn incomplete_set_is_discarded() {
        let store = temp_store("incomplete");
        store.write_set(100, 1, &parts(3, 1)).unwrap();
        fs::remove_file(store.part_path(100, 2)).unwrap();
        let loaded = store.load_newest().unwrap();
        assert!(loaded.newest.is_none());
        assert_eq!(loaded.discarded, 2);
        assert!(loaded.notes[0].contains("incomplete"));
        cleanup(&store);
    }

    #[test]
    fn part_zero_names_the_layout_of_a_rewritten_cut() {
        // An earlier engine left one part per shard at cut 100; this one
        // rewrites the cut as a single merged part. Parts 1..3 are
        // leftovers of the old layout, not an inconsistent set.
        let store = temp_store("relayout");
        store.write_set(100, 1, &parts(4, 1)).unwrap();
        store.write_set(100, 2, &parts(1, 2)).unwrap();
        let loaded = store.load_newest().unwrap();
        assert_eq!(loaded.discarded, 0, "{:?}", loaded.notes);
        let set = loaded.newest.unwrap();
        assert_eq!((set.wal_seq, set.epoch, set.parts), (100, 2, parts(1, 2)));
        // With no part 0 there is no layout to follow: incomplete.
        fs::remove_file(store.part_path(100, 0)).unwrap();
        let loaded = store.load_newest().unwrap();
        assert!(loaded.newest.is_none());
        assert!(loaded.notes[0].contains("incomplete"), "{:?}", loaded.notes);
        cleanup(&store);
    }

    #[test]
    fn filename_metadata_mismatch_rejects_the_set() {
        let store = temp_store("rename");
        store.write_set(100, 1, &parts(1, 1)).unwrap();
        // Rename the part so the filename claims a different cut: the
        // self-describing record must win and the set must be rejected.
        fs::rename(store.part_path(100, 0), store.part_path(999, 0)).unwrap();
        let loaded = store.load_newest().unwrap();
        assert!(loaded.newest.is_none());
        assert_eq!(loaded.discarded, 1);
        assert!(loaded.notes[0].contains("contradicts filename"));
        cleanup(&store);
    }

    #[test]
    fn prune_keeps_newest_sets_and_reports_floor() {
        let store = temp_store("prune");
        for (seq, epoch) in [(10u64, 1u64), (20, 2), (30, 3), (40, 4)] {
            store.write_set(seq, epoch, &parts(2, seq as u8)).unwrap();
        }
        let floor = store.prune_keep(2).unwrap();
        assert_eq!(floor, Some(30));
        let left: Vec<u64> = {
            let mut seqs: Vec<u64> = store
                .part_files()
                .unwrap()
                .iter()
                .map(|(s, _)| *s)
                .collect();
            seqs.sort_unstable();
            seqs.dedup();
            seqs
        };
        assert_eq!(left, vec![30, 40]);
        // Newest is still loadable after pruning.
        assert_eq!(store.load_newest().unwrap().newest.unwrap().wal_seq, 40);
        cleanup(&store);
    }

    #[test]
    fn open_clears_tmp_leftovers() {
        let store = temp_store("tmp");
        let tmp = store.dir().join("ckpt-0000000000000001-0000.tmp");
        fs::write(&tmp, b"half-written").unwrap();
        let reopened = CheckpointStore::open(store.dir().to_path_buf(), false).unwrap();
        assert!(!tmp.exists());
        assert!(reopened.load_newest().unwrap().newest.is_none());
        cleanup(&store);
    }
}
