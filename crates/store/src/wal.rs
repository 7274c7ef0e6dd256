//! Segment-based write-ahead log of opaque payloads (the service logs one
//! encoded ingest batch per record).
//!
//! A record on disk is `WireFrame { tag: WAL_RECORD_TAG, payload:
//! (seq, bytes) }` in durable (CRC-trailered) form. Appends go to the
//! newest segment; segments rotate at a size threshold so checkpointing
//! can delete whole covered files. The scanner never trusts a record that
//! fails verification: terminal damage is measured as a torn tail (the
//! opener truncates it), interior damage is skipped by resynchronizing on
//! the frame magic and counted — callers must surface that count.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use ms_core::wire::{put_varint, WIRE_MAGIC, WIRE_VERSION};
use ms_core::{crc32, Wire, WireError, WireFrame, WireReader};

use crate::durable::sync_dir;
use crate::StoreConfig;

/// Frame tag of WAL batch records.
pub const WAL_RECORD_TAG: u8 = 0x20;

/// One valid WAL record: its sequence number and opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalEntry {
    /// Strictly-increasing record sequence number (1-based).
    pub seq: u64,
    /// The payload as handed to [`Wal::append`].
    pub payload: Vec<u8>,
}

/// What one segment file holds, after CRC verification of every record.
#[derive(Debug, Default)]
pub struct SegmentScan {
    /// Every record that verified, in file order.
    pub entries: Vec<WalEntry>,
    /// File length in bytes (before any truncation).
    pub bytes: u64,
    /// Interior damaged spans skipped via magic resynchronization.
    pub corrupt_spans: u64,
    /// Unrecoverable bytes at the end of the file (no valid record
    /// follows the damage). A plain torn write lands here.
    pub torn_bytes: u64,
    /// Byte offset where the terminal damage begins (== `bytes` when the
    /// file is clean); the safe truncation point.
    pub valid_end: u64,
    /// The error that started the terminal damage, if any. `Truncated`
    /// is the ordinary torn-write artifact; anything else is corruption.
    pub tail_error: Option<WireError>,
}

/// Scan one segment's bytes, verifying every record trailer.
///
/// On damage the scanner searches forward for the next offset where a
/// complete record verifies (frame magic + CRC); if found, the skipped
/// span counts as corrupt and scanning resumes — if not, the remainder is
/// the torn tail.
pub fn scan_segment(bytes: &[u8]) -> SegmentScan {
    let mut scan = SegmentScan {
        bytes: bytes.len() as u64,
        valid_end: bytes.len() as u64,
        ..SegmentScan::default()
    };
    let mut pos = 0usize;
    while pos < bytes.len() {
        match read_record(&bytes[pos..]) {
            Ok((entry, consumed)) => {
                scan.entries.push(entry);
                pos += consumed;
            }
            Err(e) => match resync(bytes, pos + 1) {
                Some(next) => {
                    scan.corrupt_spans += 1;
                    if scan.tail_error.is_none() {
                        scan.tail_error = Some(e);
                    }
                    pos = next;
                }
                None => {
                    scan.torn_bytes = (bytes.len() - pos) as u64;
                    scan.valid_end = pos as u64;
                    scan.tail_error = Some(e);
                    return scan;
                }
            },
        }
    }
    scan.tail_error = None;
    scan
}

/// Parse + verify one record at the front of `bytes`; returns the entry
/// and how many bytes it consumed.
fn read_record(bytes: &[u8]) -> Result<(WalEntry, usize), WireError> {
    let mut r = WireReader::new(bytes);
    let frame = WireFrame::read_durable(&mut r)?;
    if frame.tag != WAL_RECORD_TAG {
        return Err(WireError::BadTag(frame.tag));
    }
    let (seq, payload) = <(u64, Vec<u8>)>::decode(&frame.payload)?;
    Ok((WalEntry { seq, payload }, r.pos()))
}

/// Find the next offset ≥ `from` where a complete record verifies.
fn resync(bytes: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + 1 < bytes.len() {
        if bytes[i] == b'M' && bytes[i + 1] == b'S' && read_record(&bytes[i..]).is_ok() {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Statistics one append reports back (the service feeds them into its
/// telemetry counters).
#[derive(Debug, Clone, Copy)]
pub struct WalAppend {
    /// The sequence number assigned to the record.
    pub seq: u64,
    /// Bytes written (frame + trailer).
    pub bytes: u64,
    /// Whether this append fsynced the segment.
    pub synced: bool,
}

/// Aggregate statistics of one [`Wal::append_group`] call.
#[derive(Debug, Clone, Copy)]
pub struct GroupAppend {
    /// Sequence number of the first record in the group.
    pub first_seq: u64,
    /// Records appended.
    pub records: u64,
    /// Total bytes written (frames + trailers).
    pub bytes: u64,
    /// Whether the group ended with an fsync covering every record in it.
    pub synced: bool,
}

/// The append side of the log.
pub struct Wal {
    dir: PathBuf,
    segment_bytes: u64,
    fsync: crate::FsyncPolicy,
    /// Current segment; opened lazily on the first append.
    file: Option<File>,
    /// Bytes in the current segment.
    seg_len: u64,
    /// First seq of the current segment (names the file).
    seg_start: u64,
    next_seq: u64,
    appends_since_sync: u64,
    /// Reused per-record encode buffer: steady-state appends allocate
    /// nothing.
    scratch: Vec<u8>,
}

/// Encode one durable WAL record into `out` (cleared first), byte-for-byte
/// identical to `WireFrame { tag: WAL_RECORD_TAG, payload: (seq,
/// payload.to_vec()).encode() }.to_durable_bytes()` but with zero
/// intermediate allocations. `wal_scratch_encoding_matches_wire_frame`
/// pins the equivalence.
fn encode_record_into(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    out.clear();
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(WAL_RECORD_TAG);
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    put_varint(out, seq);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    let body_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
    let frame_len = out.len() as u32;
    out.extend_from_slice(&frame_len.to_le_bytes());
    let crc = crc32(&out[..frame_len as usize]);
    out.extend_from_slice(&crc.to_le_bytes());
}

impl Wal {
    /// Scan `cfg.dir/wal`, truncate the last segment's torn tail, and
    /// return the log positioned to append after the highest valid seq,
    /// together with every segment's scan (for the recovery report).
    pub(crate) fn open(cfg: &StoreConfig) -> io::Result<(Wal, Vec<(PathBuf, SegmentScan)>)> {
        let dir = cfg.dir.join("wal");
        fs::create_dir_all(&dir)?;
        let paths = segment_paths(&dir)?;
        let mut scans = Vec::with_capacity(paths.len());
        for path in paths {
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            scans.push((path, scan_segment(&bytes)));
        }
        // The torn tail of the *last* segment is the normal crash artifact:
        // truncate it so later appends continue from a verified prefix.
        // Earlier segments are history; they are only ever read.
        if let Some((path, scan)) = scans.last() {
            if scan.torn_bytes > 0 {
                OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(scan.valid_end)?;
            }
        }
        let next_seq = scans
            .iter()
            .flat_map(|(_, s)| s.entries.iter().map(|e| e.seq))
            .max()
            .unwrap_or(0)
            + 1;
        // Resume appending into the last segment only when it is fully
        // clean (after tail truncation) and under the rotation threshold;
        // otherwise the first append starts a fresh segment.
        let resume = scans.last().and_then(|(path, scan)| {
            let clean = scan.corrupt_spans == 0;
            (clean && scan.valid_end < cfg.segment_bytes).then(|| (path.clone(), scan))
        });
        let (file, seg_len, seg_start) = match resume {
            Some((path, scan)) => {
                let file = OpenOptions::new().append(true).open(&path)?;
                let start = parse_segment_start(&path).unwrap_or(next_seq);
                (Some(file), scan.valid_end, start)
            }
            None => (None, 0, next_seq),
        };
        Ok((
            Wal {
                dir,
                segment_bytes: cfg.segment_bytes,
                fsync: cfg.fsync,
                file,
                seg_len,
                seg_start,
                next_seq,
                appends_since_sync: 0,
                scratch: Vec::new(),
            },
            scans,
        ))
    }

    /// Number the next append after `seq` when that is past the log's own
    /// last record: recovery can hold batches the log does not (the rule
    /// is [`crate::Store::open`]'s).
    pub(crate) fn resume_after(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq + 1);
    }

    /// The seq the next append will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The seq of the last appended record (0 when the log is empty).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Append one payload as the next record, rotating and fsyncing per
    /// policy. The record is durable (per the policy) when this returns.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<WalAppend> {
        let seq = self.next_seq;
        let mut scratch = std::mem::take(&mut self.scratch);
        encode_record_into(&mut scratch, seq, payload);
        let written = self.write_record(&scratch);
        let bytes = scratch.len() as u64;
        self.scratch = scratch;
        written?;
        self.appends_since_sync += 1;
        let synced = match self.fsync {
            crate::FsyncPolicy::Always => true,
            crate::FsyncPolicy::EveryN(n) => self.appends_since_sync >= n,
            crate::FsyncPolicy::Never => false,
        };
        if synced {
            self.sync()?;
        }
        Ok(WalAppend { seq, bytes, synced })
    }

    /// Append a batch of payloads as consecutive records with **one**
    /// fsync decision covering the whole group — the group-commit
    /// primitive. Policy semantics are preserved exactly: `always` means
    /// every record in the group is fsynced before this returns (one
    /// fsync amortized over the group instead of one per record), and
    /// `every:N` counts individual records, so the loss window never
    /// widens beyond N batches.
    pub fn append_group(&mut self, payloads: &[Vec<u8>]) -> io::Result<GroupAppend> {
        let first_seq = self.next_seq;
        let mut total = 0u64;
        let mut scratch = std::mem::take(&mut self.scratch);
        for payload in payloads {
            encode_record_into(&mut scratch, self.next_seq, payload);
            if let Err(e) = self.write_record(&scratch) {
                self.scratch = scratch;
                return Err(e);
            }
            total += scratch.len() as u64;
        }
        self.scratch = scratch;
        self.appends_since_sync += payloads.len() as u64;
        let synced = match self.fsync {
            crate::FsyncPolicy::Always => !payloads.is_empty(),
            crate::FsyncPolicy::EveryN(n) => self.appends_since_sync >= n,
            crate::FsyncPolicy::Never => false,
        };
        if synced {
            self.sync()?;
        }
        Ok(GroupAppend {
            first_seq,
            records: payloads.len() as u64,
            bytes: total,
            synced,
        })
    }

    /// Write one pre-encoded record: rotate if needed, open the segment
    /// lazily, advance `next_seq`. Fsync accounting is the caller's job.
    fn write_record(&mut self, bytes: &[u8]) -> io::Result<()> {
        let seq = self.next_seq;
        if self.file.is_some() && self.seg_len + bytes.len() as u64 > self.segment_bytes {
            self.rotate()?;
        }
        let file = match self.file.as_mut() {
            Some(f) => f,
            None => {
                self.seg_start = seq;
                self.seg_len = 0;
                self.file = Some(create_segment(&self.dir, seq)?);
                self.file.as_mut().expect("just created")
            }
        };
        file.write_all(bytes)?;
        self.seg_len += bytes.len() as u64;
        self.next_seq += 1;
        Ok(())
    }

    /// fsync the current segment now, regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        if let Some(file) = self.file.as_mut() {
            file.sync_data()?;
        }
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Close the current segment (fsynced unless the policy is `never`)
    /// and start the next one on the following append.
    fn rotate(&mut self) -> io::Result<()> {
        if self.fsync.syncs() {
            self.sync()?;
            // Make the finished segment's directory entry durable too.
            sync_dir(&self.dir)?;
        }
        self.file = None;
        Ok(())
    }

    /// Delete segments every record of which has seq ≤ `covered_seq`
    /// (they are fully covered by a retained checkpoint). The live
    /// segment is never deleted. Returns how many files were removed.
    pub fn prune_covered(&mut self, covered_seq: u64) -> io::Result<u64> {
        let paths = segment_paths(&self.dir)?;
        let mut removed = 0u64;
        for window in paths.windows(2) {
            let (path, next) = (&window[0], &window[1]);
            // A segment's records all precede the next segment's first seq.
            let next_start = match parse_segment_start(next) {
                Some(s) => s,
                None => continue,
            };
            let live = self.file.is_some() && parse_segment_start(path) == Some(self.seg_start);
            if !live && next_start <= covered_seq + 1 {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        if removed > 0 && self.fsync.syncs() {
            sync_dir(&self.dir)?;
        }
        Ok(removed)
    }
}

/// Segment files under `dir`, sorted by name (== by first seq: the hex
/// names are zero-padded).
pub(crate) fn segment_paths(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "seg")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

/// First seq encoded in a segment filename (`wal-<seq:016x>.seg`).
pub(crate) fn parse_segment_start(path: &Path) -> Option<u64> {
    let name = path.file_stem()?.to_str()?;
    u64::from_str_radix(name.strip_prefix("wal-")?, 16).ok()
}

fn create_segment(dir: &Path, first_seq: u64) -> io::Result<File> {
    let path = dir.join(format!("wal-{first_seq:016x}.seg"));
    OpenOptions::new().create(true).append(true).open(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FsyncPolicy, StoreConfig};

    fn temp_cfg(tag: &str) -> StoreConfig {
        let dir = std::env::temp_dir().join(format!("ms-store-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        StoreConfig::new(dir)
    }

    fn cleanup(cfg: &StoreConfig) {
        let _ = fs::remove_dir_all(&cfg.dir);
    }

    #[test]
    fn wal_scratch_encoding_matches_wire_frame() {
        // The hand-assembled record (zero-allocation path) must stay
        // byte-identical to the WireFrame reference encoding — the
        // on-disk format the golden corpus and the scanner both pin.
        for (seq, payload) in [
            (1u64, vec![]),
            (127, vec![0xAB; 3]),
            (128, (0..200).collect::<Vec<u8>>()),
            (u64::MAX, vec![1, 2, 3]),
        ] {
            let reference = WireFrame {
                tag: WAL_RECORD_TAG,
                payload: (seq, payload.clone()).encode(),
            }
            .to_durable_bytes();
            let mut fast = vec![0xFF; 7]; // pre-dirtied: must be cleared
            encode_record_into(&mut fast, seq, &payload);
            assert_eq!(fast, reference, "seq {seq}");
        }
    }

    #[test]
    fn group_append_matches_individual_appends_on_disk() {
        let cfg_one = temp_cfg("group-one").fsync(FsyncPolicy::Never);
        let cfg_grp = temp_cfg("group-grp").fsync(FsyncPolicy::Never);
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; (i as usize) + 1]).collect();
        let (mut one, _) = Wal::open(&cfg_one).unwrap();
        for p in &payloads {
            one.append(p).unwrap();
        }
        let (mut grp, _) = Wal::open(&cfg_grp).unwrap();
        let g = grp.append_group(&payloads).unwrap();
        assert_eq!((g.first_seq, g.records), (1, 10));
        assert_eq!(grp.last_seq(), one.last_seq());
        drop((one, grp));
        let seg = |cfg: &StoreConfig| {
            let path = segment_paths(&cfg.dir.join("wal")).unwrap().pop().unwrap();
            fs::read(path).unwrap()
        };
        assert_eq!(seg(&cfg_one), seg(&cfg_grp), "identical bytes on disk");
        cleanup(&cfg_one);
        cleanup(&cfg_grp);
    }

    #[test]
    fn group_append_fsync_policies() {
        // always: one fsync covers the whole group.
        let cfg = temp_cfg("group-always").fsync(FsyncPolicy::Always);
        let (mut wal, _) = Wal::open(&cfg).unwrap();
        let g = wal.append_group(&[vec![1], vec![2], vec![3]]).unwrap();
        assert!(g.synced);
        assert_eq!(wal.appends_since_sync, 0);
        cleanup(&cfg);

        // every:N counts records, not groups: a 3-record group against
        // every:4 leaves the counter at 3; the next group crosses it.
        let cfg = temp_cfg("group-everyn").fsync(FsyncPolicy::EveryN(4));
        let (mut wal, _) = Wal::open(&cfg).unwrap();
        assert!(
            !wal.append_group(&[vec![1], vec![2], vec![3]])
                .unwrap()
                .synced
        );
        assert!(wal.append_group(&[vec![4], vec![5]]).unwrap().synced);
        assert_eq!(wal.appends_since_sync, 0);
        cleanup(&cfg);

        // empty group is a no-op.
        let cfg = temp_cfg("group-empty").fsync(FsyncPolicy::Always);
        let (mut wal, _) = Wal::open(&cfg).unwrap();
        let g = wal.append_group(&[]).unwrap();
        assert_eq!((g.records, g.bytes, g.synced), (0, 0, false));
        cleanup(&cfg);
    }

    #[test]
    fn append_scan_roundtrip_across_segments() {
        let cfg = temp_cfg("roundtrip").segment_bytes(256);
        let (mut wal, scans) = Wal::open(&cfg).unwrap();
        assert!(scans.is_empty());
        for i in 0..40u64 {
            let appended = wal.append(&i.to_le_bytes()).unwrap();
            assert_eq!(appended.seq, i + 1);
        }
        wal.sync().unwrap();
        assert_eq!(wal.last_seq(), 40);

        let (wal2, scans) = Wal::open(&cfg).unwrap();
        assert!(scans.len() > 1, "256-byte segments must have rotated");
        let entries: Vec<WalEntry> = scans.iter().flat_map(|(_, s)| s.entries.clone()).collect();
        assert_eq!(entries.len(), 40);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1);
            assert_eq!(e.payload, (i as u64).to_le_bytes());
        }
        assert_eq!(wal2.next_seq(), 41);
        for (_, s) in &scans {
            assert_eq!(s.corrupt_spans, 0);
            assert_eq!(s.torn_bytes, 0);
        }
        cleanup(&cfg);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let cfg = temp_cfg("torn").fsync(FsyncPolicy::Never);
        let (mut wal, _) = Wal::open(&cfg).unwrap();
        for i in 0..10u64 {
            wal.append(&[i as u8; 16]).unwrap();
        }
        drop(wal);
        // Tear the last record: cut a few bytes off the file.
        let path = segment_paths(&cfg.dir.join("wal")).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let (mut wal, scans) = Wal::open(&cfg).unwrap();
        let scan = &scans[0].1;
        assert_eq!(scan.entries.len(), 9, "the torn record must not survive");
        assert!(scan.torn_bytes > 0);
        assert_eq!(scan.tail_error, Some(WireError::Truncated));
        // The file was truncated to the valid prefix.
        assert_eq!(fs::metadata(&path).unwrap().len(), scan.valid_end);
        // Appends continue after the highest surviving seq.
        assert_eq!(wal.append(&[0xAB]).unwrap().seq, 10);
        drop(wal);
        let (_, scans) = Wal::open(&cfg).unwrap();
        let seqs: Vec<u64> = scans
            .iter()
            .flat_map(|(_, s)| s.entries.iter().map(|e| e.seq))
            .collect();
        assert_eq!(seqs, (1..=10).collect::<Vec<u64>>());
        cleanup(&cfg);
    }

    #[test]
    fn interior_bit_flip_is_skipped_via_resync_and_counted() {
        let cfg = temp_cfg("flip").fsync(FsyncPolicy::Never);
        let (mut wal, _) = Wal::open(&cfg).unwrap();
        let mut offsets = vec![0u64];
        for i in 0..5u64 {
            let a = wal.append(&[i as u8; 32]).unwrap();
            offsets.push(offsets.last().unwrap() + a.bytes);
        }
        drop(wal);
        let path = segment_paths(&cfg.dir.join("wal")).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload bit in the middle (third) record.
        let mid = (offsets[2] + offsets[3]) / 2;
        bytes[mid as usize] ^= 0x10;
        fs::write(&path, &bytes).unwrap();

        let scan = scan_segment(&fs::read(&path).unwrap());
        assert_eq!(scan.corrupt_spans, 1, "the flipped record is damage");
        assert_eq!(scan.torn_bytes, 0);
        let seqs: Vec<u64> = scan.entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 4, 5], "resync must recover records 4–5");
        cleanup(&cfg);
    }

    #[test]
    fn fsync_policies_sync_when_promised() {
        let cfg = temp_cfg("fsync").fsync(FsyncPolicy::EveryN(3));
        let (mut wal, _) = Wal::open(&cfg).unwrap();
        let synced: Vec<bool> = (0..7).map(|_| wal.append(b"x").unwrap().synced).collect();
        assert_eq!(synced, vec![false, false, true, false, false, true, false]);
        drop(wal);

        let cfg = temp_cfg("fsync-always").fsync(FsyncPolicy::Always);
        let (mut wal, _) = Wal::open(&cfg).unwrap();
        assert!(wal.append(b"x").unwrap().synced);
        cleanup(&cfg);
    }

    #[test]
    fn prune_removes_only_fully_covered_segments() {
        let cfg = temp_cfg("prune")
            .segment_bytes(128)
            .fsync(FsyncPolicy::Never);
        let (mut wal, _) = Wal::open(&cfg).unwrap();
        for i in 0..30u64 {
            wal.append(&i.to_le_bytes()).unwrap();
        }
        let dir = cfg.dir.join("wal");
        let before = segment_paths(&dir).unwrap().len();
        assert!(before >= 3);
        wal.prune_covered(0).unwrap();
        assert_eq!(
            segment_paths(&dir).unwrap().len(),
            before,
            "nothing covered"
        );
        wal.prune_covered(30).unwrap();
        let after = segment_paths(&dir).unwrap();
        assert!(after.len() < before, "covered segments must go");
        // Every surviving record is still intact and the tail survives:
        // the newest segment (live) is never deleted.
        let (_, scans) = Wal::open(&cfg).unwrap();
        let last = scans
            .iter()
            .flat_map(|(_, s)| s.entries.iter().map(|e| e.seq))
            .max()
            .unwrap();
        assert_eq!(last, 30);
        cleanup(&cfg);
    }

    #[test]
    fn duplicate_seqs_across_reopen_are_reported_by_store_open() {
        // Hand-craft a segment holding a duplicated seq: the recovery
        // layer must apply it once (idempotent replay).
        let cfg = temp_cfg("dup");
        let dir = cfg.dir.join("wal");
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = Vec::new();
        for seq in [1u64, 2, 2, 3] {
            let frame = WireFrame {
                tag: WAL_RECORD_TAG,
                payload: (seq, vec![seq as u8]).encode(),
            };
            bytes.extend_from_slice(&frame.to_durable_bytes());
        }
        fs::write(dir.join("wal-0000000000000001.seg"), &bytes).unwrap();
        let (_, recovery) = crate::Store::open(&cfg).unwrap();
        assert_eq!(recovery.duplicates, 1);
        assert_eq!(
            recovery.tail.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        cleanup(&cfg);
    }
}
