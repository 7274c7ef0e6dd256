//! Sealed cube segments on disk.
//!
//! The segment cube (DESIGN.md §Segment cube) partitions the ingest
//! stream into sealed segments, each carrying one precomputed summary per
//! family. A sealed segment is persisted here as one self-describing file
//! `seg/seg-<id:016x>.seg` holding a durable-framed [`SegmentRecord`] —
//! the same CRC-trailer contract as WAL records and checkpoint parts, so
//! a torn or bit-rotted segment is *detected and dropped*, never merged.
//!
//! Recovery keeps only the longest contiguous prefix of intact segments
//! (by batch seq). Anything after the first gap — a segment file lost in
//! a crash between seal and directory fsync — is discarded with a note
//! and rebuilt from the WAL tail, which the engine never prunes past the
//! last *persisted* segment's end seq.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ms_core::{Wire, WireError, WireFrame, WireReader};

use crate::durable;

/// Frame tag of sealed-segment records.
pub const SEGMENT_TAG: u8 = 0x23;

/// One sealed segment: its coordinates in the stream plus wire-encoded
/// summaries (the store treats them as opaque bytes; the service layer
/// knows which family each slot holds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRecord {
    /// Monotone segment id (0-based, contiguous per data dir).
    pub id: u64,
    /// First WAL/batch seq folded into this segment (1-based, inclusive).
    pub start_seq: u64,
    /// Last batch seq folded in (inclusive).
    pub end_seq: u64,
    /// Arrival time of the segment's first batch (engine clock, µs).
    pub start_micros: u64,
    /// Arrival time of the segment's last batch (engine clock, µs).
    pub end_micros: u64,
    /// Total items across the segment's batches.
    pub weight: u64,
    /// Number of batches folded in.
    pub batches: u64,
    /// Coarsening tier: 0 as originally sealed; a pressure-driven merge
    /// of two adjacent segments records `max(a,b)+1` (the service layer
    /// drives this — the store just persists it).
    pub tier: u64,
    /// Wire-encoded summaries, one per slot. The service's cube writes
    /// two, `[MG, quantile]`, and still reads files that hold four, one
    /// per family in `SummaryKind::all()` order.
    pub summaries: Vec<Vec<u8>>,
}

impl Wire for SegmentRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.id.encode_into(out);
        self.start_seq.encode_into(out);
        self.end_seq.encode_into(out);
        self.start_micros.encode_into(out);
        self.end_micros.encode_into(out);
        self.weight.encode_into(out);
        self.batches.encode_into(out);
        self.tier.encode_into(out);
        self.summaries.encode_into(out);
    }

    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SegmentRecord {
            id: u64::decode_from(r)?,
            start_seq: u64::decode_from(r)?,
            end_seq: u64::decode_from(r)?,
            start_micros: u64::decode_from(r)?,
            end_micros: u64::decode_from(r)?,
            weight: u64::decode_from(r)?,
            batches: u64::decode_from(r)?,
            tier: u64::decode_from(r)?,
            summaries: Vec::decode_from(r)?,
        })
    }
}

/// Result of [`SegmentStore::load_all`].
#[derive(Debug, Default)]
pub struct LoadedSegments {
    /// Intact records forming a contiguous seq prefix, in id order.
    pub records: Vec<SegmentRecord>,
    /// Files discarded: CRC/decode failures, id/filename mismatches,
    /// stale files a coarsened segment already covers, or records after a
    /// contiguity gap.
    pub discarded: u64,
    /// Human-readable notes on what was discarded and why.
    pub notes: Vec<String>,
}

/// The sealed-segment side of a data directory.
pub struct SegmentStore {
    dir: PathBuf,
    sync: bool,
}

impl SegmentStore {
    /// Open (or create) the segment directory, clearing tmp leftovers
    /// from interrupted writes.
    pub fn open(dir: PathBuf, sync: bool) -> io::Result<SegmentStore> {
        durable::open_dir(&dir)?;
        Ok(SegmentStore { dir, sync })
    }

    /// Where this store keeps its files.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Persist one sealed segment atomically: tmp file, fsync (when the
    /// policy syncs), rename, directory fsync. Once this returns, the
    /// WAL records the segment covers may be pruned. Returns bytes
    /// written.
    pub fn write(&self, record: &SegmentRecord) -> io::Result<u64> {
        let frame = WireFrame {
            tag: SEGMENT_TAG,
            payload: record.encode(),
        };
        durable::write_files(
            &self.dir,
            self.sync,
            [(self.segment_path(record.id), frame)],
        )
    }

    /// Delete one sealed segment's file (cube eviction past `max_sealed`).
    /// Missing files are fine — eviction may race a crash that already
    /// lost the file.
    pub fn remove(&self, id: u64) -> io::Result<()> {
        match fs::remove_file(self.segment_path(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Load every intact segment, verify each fully, and keep the longest
    /// contiguous prefix by batch seq: the first gap (damaged or missing
    /// file) discards everything after it, because the cube must never
    /// answer a range with a silent hole in the middle. A file whose span
    /// the prefix already covers is removed, not treated as a gap.
    pub fn load_all(&self) -> io::Result<LoadedSegments> {
        let mut loaded = LoadedSegments::default();
        let mut files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|x| x == "seg") {
                if let Some(id) = parse_segment_id(&path) {
                    files.push((id, path));
                }
            }
        }
        files.sort_by_key(|(id, _)| *id);

        let mut records: Vec<SegmentRecord> = Vec::new();
        for (id, path) in files {
            match read_segment(&path) {
                Ok(record) if record.id != id => {
                    loaded.discarded += 1;
                    loaded.notes.push(format!(
                        "{}: record id {} contradicts filename",
                        path.display(),
                        record.id
                    ));
                }
                Ok(record) => records.push(record),
                Err(why) => {
                    loaded.discarded += 1;
                    loaded
                        .notes
                        .push(format!("{}: segment discarded: {why}", path.display()));
                }
            }
        }

        // Contiguity: each kept record must continue exactly where the
        // previous one ended. The first break truncates the prefix. Ids
        // need only strictly increase — coarsening merges adjacent
        // segments under the older id and evicts the younger, leaving id
        // gaps while seq coverage stays gapless.
        let mut dropped = 0u64;
        let mut records = records.into_iter();
        while let Some(record) = records.next() {
            let contiguous = match loaded.records.last() {
                Some(prev) => record.id > prev.id && record.start_seq == prev.end_seq + 1,
                None => record.start_seq >= 1,
            } && record.start_seq <= record.end_seq;
            // A coarsened survivor is renamed into place before the file
            // it absorbed is unlinked; a kill between the two leaves the
            // finer file behind. The kept prefix already covers its span,
            // so it is stale, not a gap: finish the interrupted unlink.
            let kept = loaded.records.first().zip(loaded.records.last());
            let stale = kept.is_some_and(|(first, last)| {
                first.start_seq <= record.start_seq && record.end_seq <= last.end_seq
            });
            if contiguous {
                loaded.records.push(record);
            } else if stale {
                self.remove(record.id)?;
                loaded.discarded += 1;
                loaded.notes.push(format!(
                    "stale segment id {} (seqs {}..={}) already covered by a coarsened \
                     segment: removed",
                    record.id, record.start_seq, record.end_seq
                ));
            } else {
                dropped = 1 + records.len() as u64;
                break;
            }
        }
        if dropped > 0 {
            loaded.discarded += dropped;
            loaded.notes.push(format!(
                "segment contiguity gap after id {}: {} later segment(s) dropped \
                 (rebuilt from the WAL tail)",
                loaded.records.last().map_or(0, |r| r.id),
                dropped
            ));
        }
        Ok(loaded)
    }

    fn segment_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("seg-{id:016x}.seg"))
    }
}

/// The id encoded in a segment filename, if it parses.
fn parse_segment_id(path: &Path) -> Option<u64> {
    let name = path.file_stem()?.to_str()?.strip_prefix("seg-")?;
    u64::from_str_radix(name, 16).ok()
}

/// Read and fully verify one segment file.
fn read_segment(path: &Path) -> Result<SegmentRecord, WireError> {
    durable::read_file(path, SEGMENT_TAG, "trailing bytes after segment record")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> SegmentStore {
        let dir = std::env::temp_dir().join(format!("ms-store-seg-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        SegmentStore::open(dir, false).unwrap()
    }

    fn cleanup(store: &SegmentStore) {
        let _ = fs::remove_dir_all(store.dir());
    }

    fn record(id: u64, start_seq: u64, end_seq: u64) -> SegmentRecord {
        SegmentRecord {
            id,
            start_seq,
            end_seq,
            start_micros: id * 1_000,
            end_micros: id * 1_000 + 999,
            weight: (end_seq - start_seq + 1) * 100,
            batches: end_seq - start_seq + 1,
            tier: 0,
            summaries: vec![vec![id as u8; 8]; 4],
        }
    }

    #[test]
    fn write_then_load_roundtrip() {
        let store = temp_store("roundtrip");
        for rec in [record(0, 1, 8), record(1, 9, 16), record(2, 17, 20)] {
            store.write(&rec).unwrap();
        }
        let loaded = store.load_all().unwrap();
        assert_eq!(loaded.discarded, 0, "{:?}", loaded.notes);
        assert_eq!(loaded.records.len(), 3);
        assert_eq!(loaded.records[2], record(2, 17, 20));
        cleanup(&store);
    }

    #[test]
    fn damaged_newest_is_dropped_and_noted() {
        let store = temp_store("damaged");
        store.write(&record(0, 1, 8)).unwrap();
        store.write(&record(1, 9, 16)).unwrap();
        let victim = store.segment_path(1);
        let len = fs::metadata(&victim).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&victim)
            .unwrap()
            .set_len(len / 2)
            .unwrap();
        let loaded = store.load_all().unwrap();
        assert_eq!(loaded.discarded, 1);
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].id, 0);
        assert!(loaded.notes[0].contains("discarded"), "{:?}", loaded.notes);
        cleanup(&store);
    }

    #[test]
    fn gap_in_the_middle_truncates_the_prefix() {
        let store = temp_store("gap");
        for rec in [record(0, 1, 8), record(1, 9, 16), record(2, 17, 20)] {
            store.write(&rec).unwrap();
        }
        fs::remove_file(store.segment_path(1)).unwrap();
        let loaded = store.load_all().unwrap();
        // Segment 2 is intact but unreachable past the hole: dropped.
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].id, 0);
        assert_eq!(loaded.discarded, 1);
        assert!(
            loaded.notes.iter().any(|n| n.contains("contiguity gap")),
            "{:?}",
            loaded.notes
        );
        cleanup(&store);
    }

    #[test]
    fn coarsened_id_gaps_load_when_seqs_stay_contiguous() {
        // Coarsening merges ids 0 and 1 under id 0 and evicts id 1: the
        // surviving files have an id gap but gapless seq coverage.
        let store = temp_store("coarse-gap");
        let mut merged = record(0, 1, 16);
        merged.tier = 1;
        for rec in [merged.clone(), record(2, 17, 20), record(5, 21, 30)] {
            store.write(&rec).unwrap();
        }
        let loaded = store.load_all().unwrap();
        assert_eq!(loaded.discarded, 0, "{:?}", loaded.notes);
        assert_eq!(loaded.records.len(), 3);
        assert_eq!(loaded.records[0], merged);
        assert_eq!(loaded.records[0].tier, 1);
        assert_eq!(loaded.records[2].id, 5);
        cleanup(&store);
    }

    #[test]
    fn stale_finer_file_left_by_a_killed_coarsen_is_skipped_and_removed() {
        // Coarsening renamed A'(1..8) into place and was killed before
        // unlinking the absorbed B(5..8): C must survive recovery.
        let store = temp_store("coarse-kill");
        let mut merged = record(0, 1, 8);
        merged.tier = 1;
        for rec in [merged.clone(), record(1, 5, 8), record(2, 9, 12)] {
            store.write(&rec).unwrap();
        }
        let loaded = store.load_all().unwrap();
        assert_eq!(loaded.records, vec![merged, record(2, 9, 12)]);
        assert_eq!(loaded.discarded, 1);
        assert!(
            loaded.notes[0].contains("stale segment id 1"),
            "{:?}",
            loaded.notes
        );
        assert!(
            !store.segment_path(1).exists(),
            "the interrupted unlink is finished"
        );
        // The next recovery sees a clean directory.
        let again = store.load_all().unwrap();
        assert_eq!((again.records.len(), again.discarded), (2, 0));
        cleanup(&store);
    }

    #[test]
    fn filename_id_mismatch_rejects_the_file() {
        let store = temp_store("rename");
        store.write(&record(0, 1, 8)).unwrap();
        fs::rename(store.segment_path(0), store.segment_path(7)).unwrap();
        let loaded = store.load_all().unwrap();
        assert!(loaded.records.is_empty());
        assert_eq!(loaded.discarded, 1);
        assert!(loaded.notes[0].contains("contradicts filename"));
        cleanup(&store);
    }

    #[test]
    fn remove_is_idempotent() {
        let store = temp_store("remove");
        store.write(&record(0, 1, 4)).unwrap();
        store.remove(0).unwrap();
        store.remove(0).unwrap();
        assert!(store.load_all().unwrap().records.is_empty());
        cleanup(&store);
    }

    #[test]
    fn record_wire_roundtrip() {
        let rec = record(3, 21, 40);
        assert_eq!(SegmentRecord::decode(&rec.encode()).unwrap(), rec);
    }
}
