//! The segment cube: time-segmented ingest answering range queries.
//!
//! The paper's mergeability guarantee (Definition 1) says a summary of a
//! union can be built from summaries of the parts at the same eps·n
//! bound. The cube exploits that in the time dimension: ingest is
//! partitioned into *segments* (sealed on a batch-count or wall-clock
//! boundary), each sealed segment carries one precomputed summary per
//! streamed family, and an arbitrary time window is answered by
//! one-shot merging the covering segments — error stays eps·(window
//! weight), not eps·(total stream).
//!
//! Summarise once: a segment *streams* only the two families a range
//! request reads — Misra-Gries for `RangeHeavyHitters` and the hybrid
//! quantile summary for `RangeQuantile` — and a sealed [`SegmentRecord`]
//! holds those two slots, `[MG, quantile]`. SpaceSaving range answers
//! are a view of the MG fold, taken at query time: §3 Lemma 1 of the
//! paper says SpaceSaving with `k+1` counters over a stream is
//! isomorphic to Misra-Gries with `k` counters over the same stream
//! (subtract the minimum counter, drop the zeros), and `for_epsilon` sizes
//! the two families exactly one counter apart, so the SpaceSaving answer
//! over a window is the MG fold relabelled: `ShardSummary::SpaceSaving`
//! holds an MG table and answers and encodes it by SpaceSaving's rules.
//! No segment streams or writes a Count-Min family (a Count-Min engine's
//! feed folds one beside them, see below): no request reads one, and
//! [`SegmentCube::query`] answers `None` for it.
//!
//! Files written before this layout hold four slots, one per family in
//! [`SummaryKind::all`] order. [`SegmentCube::adopt`] still reads them:
//! every slot is decoded and kind-checked, then the SpaceSaving and
//! Count-Min slots are dropped. A data directory's WAL may already be
//! pruned below such segments, so they cannot be rebuilt instead.
//!
//! Residency: the open segment's families are live. A sealed one keeps
//! each family in one resting form — its MG family as the bytes of its
//! record's slot, its quantile family bit-packed ([`PackedQuantile`]) —
//! whether it sealed, was adopted from a file or was built by
//! coarsening; a read decodes a copy of the one it asks for. The slots on
//! disk are the plain encodings either way.
//!
//! Seqs: all the cube needs from ingest is a dense batch seq in WAL
//! order. A durable engine's group-commit leader hands the cube each
//! record of its group, in WAL order, under the seq the log gave it
//! ([`SegmentCube::record_at`]), so cube seq ≡ WAL seq by construction and
//! recovery aligns sealed segments against WAL records by seq alone. An
//! engine without a WAL calls [`SegmentCube::record`], which numbers the
//! batch under the fold lock.
//!
//! Feed: on every engine with a cube, the cube's fold is the engine's
//! only absorb: the engine starts the feed once recovery is done
//! ([`SegmentCube::start_feed`]). Each seal then sends the engine's
//! family of the sealed segment to the compactor, which folds it into the
//! global summary for good, left-deep in seq order; the open segment's
//! family goes as a *view* every `delta_updates` items and on every
//! barrier ([`SegmentCube::send_view`]), and each view replaces the last.
//! Both are sent under the fold lock over the engine's bounded compact
//! channel, so they arrive in fold order and a barrier's view holds every
//! fold that finished before it; a compactor that falls behind holds the
//! folds back. The engine's family is a streamed one (MG, SpaceSaving,
//! read off the MG one, or the hybrid quantile) unless a segment keeps its
//! *own*: a Count-Min engine's segments fold its sketch beside the
//! streamed families, and the segment recovery leaves open, whose earlier
//! batches the checkpoint and the replay already gave the engine, folds
//! only the batches after the feed started. An own family is sent, never
//! written to a segment file, and never answers a range read.
//!
//! Concurrency contract — each lock guards one thing:
//!
//! * **fold** (the open segment, the highest seq recorded and the feed):
//!   held for one batch's fold and any seal it triggers, so folds run in
//!   seq order, and across the feed's sends to the compact channel (the
//!   compactor takes no cube lock).
//! * **index** (`Arc<Segment>` handles to the sealed segments plus a copy
//!   of the open segment's coordinates): held only to clone handles out
//!   or swap one in. [`SegmentCube::report`] and [`SegmentCube::health`]
//!   take nothing else. [`SegmentCube::query`] takes fold → index so its
//!   cut across sealed and open segments is consistent, clones the
//!   covering handles (and the one requested family of the open segment
//!   when the window reaches it), drops both guards, and only then
//!   merges.
//! * **memo** (the range memo, see below): taken alone — never while a
//!   cube lock is held and never across a merge — to look up and bump
//!   one entry, or to store one.
//!
//! Segment files: a durable cube owns its data directory's
//! [`SegmentStore`] (`SegmentCube::with_store`) and, once the fold lock
//! is released, writes what a fold sealed and removes what it evicted or
//! absorbed, on the thread that folded. Only one thread folds a durable
//! cube — the group-commit leader, whose turns follow one another, or
//! recovery before ingest opens — so files reach disk in seal order with
//! no lock of their own, and no reader waits on a file.
//!
//! Range memo: a handful of left-deep folds over sealed runs, least
//! recently used first out (`MEMO_ENTRIES`). An entry is keyed by the
//! streamed family and the exact list of sealed segments it covers, each
//! named by `(id, end_seq)` — coarsening keeps a survivor's id but moves
//! its `end_seq`, and ids are never reused, so a coarsened or evicted
//! segment can never match. [`SegmentCube::query`] resumes from the
//! longest memoized prefix of its covering run (after a seal, one merge
//! is left), stores the longer fold, and only then merges the open
//! segment, which is never memoized. A hit is byte-exact: the merges are
//! deterministic — the hybrid summary's generator is part of its state —
//! and a clone carries that whole state, so a clone of `fold(s₁..sₖ)`
//! merged with `x` is `fold(s₁..sₖ, x)` to the byte.
//!
//! Crash safety: the WAL is never pruned past the last *persisted*
//! segment ([`SegmentCube::persisted_floor`]), so a segment lost between
//! seal and fsync is rebuilt by replaying the WAL tail through
//! [`SegmentCube::record_at`]. A file error never fails the batch that
//! sealed the segment (it is in the WAL and already folded): it is traced
//! and counted, and from then on the directory is left as it is. Files
//! only go once everything written before them is on disk, so
//! what is there stays a gapless prefix up to the floor, which stops with
//! it — the WAL keeps the tail and the next recovery rebuilds the rest.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};

use ms_core::{lock, ServiceError, Wire, WireError};
use ms_quantiles::{HybridQuantile, PackedQuantile};
use ms_store::{SegmentRecord, SegmentStore};

use crate::config::{SegmentConfig, ServiceConfig, SummaryKind};
use crate::engine::CompactMsg;
use crate::protocol::{RangeMeta, SegmentMeta, SegmentReport};
use crate::summary::ShardSummary;
use crate::telemetry::EngineTelemetry;

/// Lemma 1: the SpaceSaving summary of `mg`'s stream is `mg`, relabelled.
fn derive_space_saving(mg: ShardSummary) -> ShardSummary {
    match mg {
        ShardSummary::Mg(mg) => ShardSummary::SpaceSaving(mg),
        other => unreachable!("slot 0 streams Misra-Gries, found {:?}", other.kind()),
    }
}

/// What recording one batch did to the cube.
#[derive(Debug, Default)]
pub struct CubeOutcome {
    /// Seq the batch was folded under (equals the WAL seq; see module doc).
    pub seq: u64,
    /// Segments sealed or re-coarsened by this batch. A cube with segment
    /// files has written these (a coarsened segment re-persists under its
    /// surviving id, atomically replacing the finer record) and removed
    /// `evicted`; without files, that is the caller's to do.
    pub sealed: Vec<SegmentRecord>,
    /// Segment ids whose files can go: evicted past `max_sealed`, or
    /// absorbed into a coarser neighbor.
    pub evicted: Vec<u64>,
    /// Pairwise coarsening merges performed while sealing (pressure
    /// crossed `coarsen_watermark`).
    pub coarsened: u64,
}

/// What adopting recovered segment records did.
#[derive(Debug, Default)]
pub struct AdoptOutcome {
    /// Records reconstructed into queryable sealed segments.
    pub adopted: usize,
    /// Records dropped (undecodable summary — version skew; everything
    /// after the first bad one goes too, preserving contiguity).
    pub dropped: usize,
    /// Human-readable notes about drops.
    pub notes: Vec<String>,
}

/// Point-in-time cube health gauges, rendered into the Prometheus
/// exposition by [`crate::Engine::telemetry_snapshot`]: how much sealed
/// precomputation exists, and how stale/heavy the open segment is. A
/// fast-growing `open_age_micros` under a wall-clock seal policy means
/// sealing has stalled; `open_weight` bounds how much of a range answer
/// comes from the unsealed (still-moving) segment. The `memo_*` fields
/// are counts since the cube was built: how its range reads used the
/// range memo (module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CubeHealth {
    /// Sealed segments currently queryable.
    pub sealed: u64,
    /// Age of the open segment (micros since it opened; 0 when none).
    pub open_age_micros: u64,
    /// Item weight accumulated in the open segment (0 when none).
    pub open_weight: u64,
    /// Deepest coarsening tier among resident sealed segments (0 when
    /// pressure never forced a merge).
    pub max_tier: u64,
    /// Heap bytes the sealed segments' families hold at rest: the packed
    /// quantile forms plus the MG slots' bytes.
    pub resident_bytes: u64,
    /// Pairwise coarsening merges since the cube was built.
    pub coarsened: u64,
    /// Range reads over two or more sealed segments whose whole sealed
    /// run was memoized.
    pub memo_hits: u64,
    /// Range reads that resumed from a shorter memoized prefix (after a
    /// seal: one merge).
    pub memo_extends: u64,
    /// Range reads over two or more sealed segments that folded from
    /// scratch.
    pub memo_misses: u64,
}

/// The families a segment streams, in the slot order of the records
/// [`Segment::seal`] writes.
const STREAMED: [SummaryKind; 2] = [SummaryKind::Mg, SummaryKind::HybridQuantile];

/// The segment being folded into, under the fold lock: its coordinates
/// plus a live summary per streamed family.
struct Open {
    meta: SegmentMeta,
    mg: ShardSummary,
    quantile: HybridQuantile<u64>,
    /// The engine's family, when the segment's streamed families cannot
    /// stand in for it: a Count-Min sketch, or the batches a recovered
    /// open segment folds after the feed started. Sent by seals and
    /// views; never written to a segment file, never read by a range.
    own: Option<ShardSummary>,
}

impl Open {
    /// A copy of the streamed family that answers for `kind`
    /// (SpaceSaving is read off the MG one — see the module doc).
    fn family(&self, kind: SummaryKind) -> ShardSummary {
        match kind {
            SummaryKind::Mg | SummaryKind::SpaceSaving => self.mg.clone(),
            SummaryKind::HybridQuantile => ShardSummary::HybridQuantile(self.quantile.clone()),
            SummaryKind::CountMin => unreachable!("no segment keeps a Count-Min family"),
        }
    }

    /// What the feed sends for this segment: a copy of the engine's
    /// family, labelled as the engine's kind. A Count-Min segment
    /// opened under the feed always has its own.
    fn fed(&self, kind: SummaryKind) -> ShardSummary {
        match (&self.own, kind) {
            (Some(own), _) => own.clone(),
            (None, SummaryKind::SpaceSaving) => derive_space_saving(self.mg.clone()),
            (None, kind) => self.family(kind),
        }
    }
}

/// Where a fed cube sends the engine's family (module doc).
struct Feed {
    tx: SyncSender<CompactMsg>,
    /// The engine's kind.
    kind: SummaryKind,
    /// Items between two views of the open segment.
    every: u64,
    /// Items folded since the last view or seal.
    since_view: u64,
}

/// A sealed segment, behind an `Arc` in the index (immutable there:
/// coarsening builds a new segment and swaps it in): its coordinates plus
/// each streamed family at rest, and a copy that answers for a family is
/// rebuilt from it. The MG family rests as its slot's bytes, the
/// encoding the record holds; the quantile family is bit-packed
/// ([`PackedQuantile`]).
///
/// The resident segments are what `peak_rss_mb` of a cube server grows
/// by, so a closed-loop server's peak follows its throughput — and the
/// throughput's spread from one run to the next. A ledger-shaped segment
/// (64 batches of 1,024 Zipf items, ε = 0.01) holds ≈ 3,800 quantile
/// points, 30 KB as live `u64`s, which pack into ≈ 2.9 KB; its MG slot
/// is a few hundred bytes at most, a fraction of the decoded table. A
/// read pays for the small rest: it decodes the slot and unpacks the
/// points (the `cube_rest` rows of `results/BENCH_kernels.json`).
/// [`SegmentCube::health`] reports what the resident families hold
/// (`resident_bytes`).
struct Segment {
    meta: SegmentMeta,
    /// The MG slot of the segment's record, as written.
    mg: Box<[u8]>,
    quantile: PackedQuantile,
}

impl Segment {
    /// A copy of the streamed family that answers for `kind`
    /// (SpaceSaving is read off the MG one — see the module doc).
    fn family(&self, kind: SummaryKind) -> ShardSummary {
        match kind {
            SummaryKind::Mg | SummaryKind::SpaceSaving => ShardSummary::decode(&self.mg)
                .expect("a resting MG slot was decoded when it came to rest"),
            SummaryKind::HybridQuantile => ShardSummary::HybridQuantile(self.quantile.unpack()),
            SummaryKind::CountMin => unreachable!("no segment keeps a Count-Min family"),
        }
    }

    /// Seal `open`: the segment at rest, and the record the store writes
    /// — one slot per [`STREAMED`] family.
    fn seal(open: Open) -> (Segment, SegmentRecord) {
        let Open {
            mut meta,
            mg,
            quantile,
            ..
        } = open;
        meta.sealed = true;
        let packed = quantile.pack();
        let summaries = vec![mg.encode(), ShardSummary::HybridQuantile(quantile).encode()];
        let record = SegmentRecord {
            id: meta.id,
            start_seq: meta.start_seq,
            end_seq: meta.end_seq,
            start_micros: meta.start_micros,
            end_micros: meta.end_micros,
            weight: meta.weight,
            batches: meta.batches,
            tier: meta.tier,
            summaries,
        };
        let segment = Segment {
            meta,
            mg: record.summaries[0].clone().into_boxed_slice(),
            quantile: packed,
        };
        (segment, record)
    }

    /// Rebuild a sealed segment from its record: the two slots
    /// [`Segment::seal`] writes, or the four of a file written before
    /// (every family in [`SummaryKind::all`] order). Every slot must
    /// decode as the family its position names; a four-slot record's
    /// SpaceSaving and Count-Min slots are then dropped.
    fn from_record(rec: &SegmentRecord) -> Result<Segment, WireError> {
        let all = SummaryKind::all();
        let kinds: &[SummaryKind] = match rec.summaries.len() {
            2 => &STREAMED,
            4 => &all,
            _ => return Err(WireError::Malformed("segment record family count")),
        };
        let (mut mg, mut quantile) = (None, None);
        for (bytes, &kind) in rec.summaries.iter().zip(kinds) {
            let fam = ShardSummary::decode(bytes)?;
            if fam.kind() != kind {
                return Err(WireError::Malformed("segment family out of order"));
            }
            match fam {
                ShardSummary::Mg(_) => mg = Some(bytes.clone().into_boxed_slice()),
                ShardSummary::HybridQuantile(q) => quantile = Some(q.pack()),
                _ => {}
            }
        }
        Ok(Segment {
            meta: SegmentMeta {
                id: rec.id,
                start_seq: rec.start_seq,
                end_seq: rec.end_seq,
                start_micros: rec.start_micros,
                end_micros: rec.end_micros,
                weight: rec.weight,
                batches: rec.batches,
                sealed: true,
                tier: rec.tier,
            },
            mg: mg.expect("both layouts hold an MG slot"),
            quantile: quantile.expect("both layouts hold a quantile slot"),
        })
    }

    /// This segment and the adjacent *later* segment `next` as one
    /// segment, sealed: spans and weights union, families one-shot merge
    /// (Definition 1 — the merged summary covers the union at the same
    /// eps·n bound), tier deepens.
    fn absorb(&self, next: &Segment) -> (Segment, SegmentRecord) {
        debug_assert_eq!(
            next.meta.start_seq,
            self.meta.end_seq + 1,
            "coarsen only adjacent"
        );
        let mut meta = self.meta.clone();
        meta.end_seq = next.meta.end_seq;
        meta.end_micros = next.meta.end_micros;
        meta.weight += next.meta.weight;
        meta.batches += next.meta.batches;
        meta.tier = meta.tier.max(next.meta.tier) + 1;
        let mut mg = self.family(SummaryKind::Mg);
        let mut quantile = self.quantile.unpack();
        let merges = [
            mg.merge_in_place(next.family(SummaryKind::Mg)),
            quantile.merge_from(next.quantile.unpack()),
        ];
        for merge in merges {
            merge.expect("same-family segment summaries always merge");
        }
        Segment::seal(Open {
            meta,
            mg,
            quantile,
            own: None,
        })
    }

    /// Heap bytes the resting families hold: the packed quantile form
    /// and the MG slot.
    fn resident_bytes(&self) -> usize {
        self.quantile.heap_bytes() + self.mg.len()
    }
}

impl Feed {
    /// Send a view of `open`. Under the fold lock, over the bounded compact
    /// channel: a compactor that falls behind holds folds back.
    fn send_view(&mut self, open: &Open) {
        let _ = self.tx.send(CompactMsg::View(open.fed(self.kind)));
        self.since_view = 0;
    }
}

/// Guarded by the fold lock: the segment being folded into.
struct Fold {
    /// Highest batch seq recorded (== WAL last seq while running).
    last_seq: u64,
    /// Id the next opened segment gets.
    next_id: u64,
    open: Option<Open>,
    /// Set once the engine's cube takes over its absorb.
    feed: Option<Feed>,
}

/// A durable cube's segment files (module doc).
struct SegmentFiles {
    store: SegmentStore,
    telemetry: Arc<EngineTelemetry>,
    /// Latched by the first failed write or remove (module doc).
    broken: AtomicBool,
}

/// Guarded by the index lock: what readers clone out of.
#[derive(Default)]
struct Index {
    sealed: VecDeque<Arc<Segment>>,
    /// Coordinates of the open segment as of its last fold.
    open: Option<SegmentMeta>,
    /// Pairwise coarsening merges since the cube was built.
    coarsened: u64,
}

/// Does a segment with these coordinates intersect `[start, end]` micros?
fn intersects(meta: &SegmentMeta, start_micros: u64, end_micros: u64) -> bool {
    meta.batches > 0 && meta.start_micros <= end_micros && meta.end_micros >= start_micros
}

/// `part` merged into `acc`, left-deep.
fn merged(mut acc: ShardSummary, part: ShardSummary) -> ShardSummary {
    acc.merge_in_place(part)
        .expect("same-family segment summaries always merge");
    acc
}

/// Folds the range memo keeps. The ledger's `read-write` reader has three
/// windows over two or more sealed segments live at once (quantile over 8
/// and 64, heavy hitters over 8); the rest is room for the folds a moved
/// left edge strands, which age out.
const MEMO_ENTRIES: usize = 8;

/// A sealed segment as the memo names it (see the module doc).
type SegKey = (u64, u64);

/// One memoized fold: `family`'s summaries of the sealed segments `run`
/// names, merged left-deep in index order.
struct MemoEntry {
    family: SummaryKind,
    run: Vec<SegKey>,
    fold: Arc<ShardSummary>,
}

/// Guarded by the memo lock.
#[derive(Default)]
struct Memo {
    /// Least recently used first.
    entries: VecDeque<MemoEntry>,
    hits: u64,
    extends: u64,
    misses: u64,
}

impl Memo {
    /// The longest memoized prefix of `run` for `family`, as its length
    /// and fold, made the most recently used entry. Counts the lookup.
    fn longest_prefix(
        &mut self,
        family: SummaryKind,
        run: &[SegKey],
    ) -> Option<(usize, Arc<ShardSummary>)> {
        let found = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.family == family && run.starts_with(&e.run))
            .max_by_key(|(_, e)| e.run.len())
            .map(|(at, _)| at);
        let Some(entry) = found.and_then(|at| self.entries.remove(at)) else {
            self.misses += 1;
            return None;
        };
        if entry.run.len() == run.len() {
            self.hits += 1;
        } else {
            self.extends += 1;
        }
        let prefix = (entry.run.len(), Arc::clone(&entry.fold));
        self.entries.push_back(entry);
        Some(prefix)
    }

    /// Keep `entry` as the most recently used, in place of every entry it
    /// extends (a racing reader's copy of the same run included).
    fn store(&mut self, entry: MemoEntry) {
        self.entries
            .retain(|e| e.family != entry.family || !entry.run.starts_with(&e.run));
        if self.entries.len() == MEMO_ENTRIES {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }
}

/// The engine's segment cube. All methods are `&self`; see the module
/// doc for what each lock guards.
pub struct SegmentCube {
    epsilon: f64,
    seed: u64,
    cfg: SegmentConfig,
    fold: Mutex<Fold>,
    index: Mutex<Index>,
    memo: Mutex<Memo>,
    /// Monotone clamp over the injected clock: segment times never
    /// regress even if the clock does.
    last_micros: AtomicU64,
    /// End seq of the newest segment known durable on disk; the WAL
    /// must never be pruned past it (0 = no segment persisted, keep
    /// everything).
    persisted_floor: AtomicU64,
    /// `None` for a cube that lives purely in memory.
    files: Option<SegmentFiles>,
}

impl SegmentCube {
    /// An empty cube. `epsilon`/`seed` size the per-segment families —
    /// they must match the engine's so per-segment linear sketches stay
    /// mergeable across nodes.
    pub fn new(epsilon: f64, seed: u64, cfg: SegmentConfig) -> SegmentCube {
        SegmentCube {
            epsilon,
            seed,
            cfg,
            fold: Mutex::new(Fold {
                last_seq: 0,
                next_id: 0,
                open: None,
                feed: None,
            }),
            index: Mutex::new(Index::default()),
            memo: Mutex::new(Memo::default()),
            last_micros: AtomicU64::new(0),
            persisted_floor: AtomicU64::new(0),
            files: None,
        }
    }

    /// This cube, writing its segment files to `store` and tracing them on
    /// `telemetry`. One thread at a time may fold into it (module doc).
    pub(crate) fn with_store(
        mut self,
        store: SegmentStore,
        telemetry: Arc<EngineTelemetry>,
    ) -> Self {
        self.files = Some(SegmentFiles {
            store,
            telemetry,
            broken: AtomicBool::new(false),
        });
        self
    }

    fn fresh(&self, kind: SummaryKind) -> ShardSummary {
        ShardSummary::new(&ServiceConfig::new(kind, self.epsilon).seed(self.seed), 0)
    }

    /// Read the clock, clamped monotone against everything recorded.
    fn now(&self) -> u64 {
        let now = self.cfg.clock.now_micros();
        now.max(self.last_micros.fetch_max(now, Ordering::AcqRel))
    }

    /// Seal the open segment into the index, then coarsen and evict. A
    /// fed cube first sends the engine's family of it to be folded for good.
    fn seal(&self, fold: &mut Fold, out: &mut CubeOutcome) {
        let Some(open) = fold.open.take() else {
            return;
        };
        if let Some(feed) = &mut fold.feed {
            let _ = feed.tx.send(CompactMsg::Delta(None, open.fed(feed.kind)));
            feed.since_view = 0;
        }
        let (seg, record) = Segment::seal(open);
        out.sealed.push(record);
        {
            let mut ix = lock(&self.index);
            ix.open = None;
            ix.sealed.push_back(Arc::new(seg));
        }
        self.coarsen(out);
        let mut ix = lock(&self.index);
        while ix.sealed.len() > self.cfg.max_sealed {
            let old = ix.sealed.pop_front().expect("non-empty past cap");
            out.evicted.push(old.meta.id);
        }
    }

    /// Pressure-driven coarsening: while the sealed count exceeds the
    /// watermark, merge one adjacent pair into a coarser tier. The pair
    /// chosen is the one whose coarser member has the *lowest* tier
    /// (oldest such pair on ties) — the binary-counter shape LSM trees
    /// use, which keeps the deepest tier logarithmic in the number of
    /// seals instead of linear. Each merge is a Definition-1 one-shot
    /// merge, so range answers over the coarser segment keep the eps·n
    /// bound on its (admitted) weight — the window just snaps outward to
    /// coarser boundaries.
    ///
    /// Runs under the fold lock, the only writer of the index, so a pair
    /// picked under one index guard is still in place under the next;
    /// the merge itself runs between the two, off the index lock.
    fn coarsen(&self, out: &mut CubeOutcome) {
        if self.cfg.coarsen_watermark == 0 {
            return;
        }
        loop {
            let (i, survivor, next) = {
                let ix = lock(&self.index);
                if ix.sealed.len() <= self.cfg.coarsen_watermark || ix.sealed.len() < 2 {
                    break;
                }
                let i = (0..ix.sealed.len() - 1)
                    .min_by_key(|&i| ix.sealed[i].meta.tier.max(ix.sealed[i + 1].meta.tier))
                    .expect("at least one adjacent pair");
                (i, Arc::clone(&ix.sealed[i]), Arc::clone(&ix.sealed[i + 1]))
            };
            // Readers may hold either handle: merge into a new segment.
            let (merged, record) = survivor.absorb(&next);
            out.evicted.push(next.meta.id);
            out.sealed.push(record);
            out.coarsened += 1;
            let mut ix = lock(&self.index);
            ix.sealed[i] = Arc::new(merged);
            ix.sealed.remove(i + 1);
            ix.coarsened += 1;
        }
        // A record both written and absorbed this call need not be
        // written at all, and only the last version per id matters.
        let evicted = &out.evicted;
        out.sealed.retain(|r| !evicted.contains(&r.id));
        let mut i = 0;
        while i < out.sealed.len() {
            if out.sealed[i + 1..].iter().any(|r| r.id == out.sealed[i].id) {
                out.sealed.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Fold batch `seq` into the open segment, under the fold lock.
    fn fold_batch(&self, fold: &mut Fold, seq: u64, batch: &[u64]) -> CubeOutcome {
        fold.last_seq = seq;
        let now = self.now();
        let mut out = CubeOutcome {
            seq,
            ..CubeOutcome::default()
        };
        // Wall-clock boundary first: an aged open segment seals *before*
        // this batch, which then opens the next segment.
        if fold
            .open
            .as_ref()
            .is_some_and(|o| now.saturating_sub(o.meta.start_micros) >= self.cfg.seal_micros)
        {
            self.seal(fold, &mut out);
        }
        if fold.open.is_none() {
            fold.open = Some(Open {
                meta: SegmentMeta {
                    id: fold.next_id,
                    start_seq: seq,
                    end_seq: seq,
                    start_micros: now,
                    end_micros: now,
                    weight: 0,
                    batches: 0,
                    sealed: false,
                    tier: 0,
                },
                mg: self.fresh(SummaryKind::Mg),
                // `self.fresh`'s quantile summary: shard 0's seed is `seed`.
                quantile: HybridQuantile::new(self.epsilon, self.seed),
                // No streamed family stands in for a Count-Min engine's.
                own: (fold.feed.as_ref())
                    .filter(|feed| feed.kind == SummaryKind::CountMin)
                    .map(|feed| self.fresh(feed.kind)),
            });
            fold.next_id += 1;
        }
        let open = fold.open.as_mut().expect("open segment just ensured");
        open.meta.end_seq = seq;
        open.meta.end_micros = now;
        open.meta.batches += 1;
        open.meta.weight += batch.len() as u64;
        // Family-major: each family sees the whole batch at once, so the
        // counter table and the quantile buffers stay hot.
        open.mg.update_batch(batch);
        open.quantile.insert_batch(batch);
        if let Some(own) = &mut open.own {
            own.update_batch(batch);
        }
        if open.meta.batches >= self.cfg.seal_batches {
            self.seal(fold, &mut out);
        } else {
            lock(&self.index).open = Some(open.meta.clone());
            if let Some(feed) = &mut fold.feed {
                feed.since_view += batch.len() as u64;
                if feed.since_view >= feed.every {
                    feed.send_view(open);
                }
            }
        }
        out
    }

    /// Make the cube the engine's only absorb: from now on every seal
    /// sends the engine's family of the segment to `tx`, and the open
    /// segment's is sent as a view every `every` items and on
    /// [`SegmentCube::send_view`]. A segment already open keeps what it
    /// folded so far to itself: the engine holds those batches already.
    pub(crate) fn start_feed(&self, tx: SyncSender<CompactMsg>, kind: SummaryKind, every: u64) {
        let mut fold = lock(&self.fold);
        if let Some(open) = &mut fold.open {
            open.own = Some(self.fresh(kind));
        }
        fold.feed = Some(Feed {
            tx,
            kind,
            every,
            since_view: 0,
        });
    }

    /// Send the open segment's view now, if the cube is fed: the barrier's
    /// cut, taken under the fold lock so it holds every finished fold.
    pub(crate) fn send_view(&self) {
        let mut fold = lock(&self.fold);
        let Fold { open, feed, .. } = &mut *fold;
        if let (Some(open), Some(feed)) = (open, feed) {
            feed.send_view(open);
        }
    }

    /// Record one batch of an engine without a WAL, numbered next under
    /// the fold lock.
    pub fn record(&self, batch: &[u64]) -> CubeOutcome {
        self.record_seq(None, batch)
    }

    /// Record the batch the WAL holds at `seq`: live from the group-commit
    /// leader, or replayed by recovery to rebuild segments lost between
    /// seal and fsync, and the open segment. Seqs at or below the highest
    /// recorded are ignored.
    pub fn record_at(&self, seq: u64, batch: &[u64]) -> CubeOutcome {
        self.record_seq(Some(seq), batch)
    }

    fn record_seq(&self, seq: Option<u64>, batch: &[u64]) -> CubeOutcome {
        let mut fold = lock(&self.fold);
        let seq = seq.unwrap_or(fold.last_seq + 1);
        if seq <= fold.last_seq {
            return CubeOutcome::default();
        }
        let out = self.fold_batch(&mut fold, seq, batch);
        drop(fold);
        self.persist(&out.sealed, &out.evicted);
        out
    }

    /// Write `sealed`, then remove `evicted`, unless the cube has no
    /// files or they broke (module doc).
    fn persist(&self, sealed: &[SegmentRecord], evicted: &[u64]) {
        let Some(files) = &self.files else {
            return;
        };
        if files.broken.load(Ordering::Acquire) {
            return;
        }
        let failed = |id: u64| {
            files.broken.store(true, Ordering::Release);
            files.telemetry.record_segment_persist_failed(id);
        };
        for rec in sealed {
            if files.store.write(rec).is_err() {
                return failed(rec.id);
            }
            self.persisted_floor
                .fetch_max(rec.end_seq, Ordering::AcqRel);
            (files.telemetry).event(
                "segment_sealed",
                &[("id", rec.id), ("end_seq", rec.end_seq)],
            );
        }
        for &id in evicted {
            if files.store.remove(id).is_err() {
                return failed(id);
            }
        }
    }

    /// Adopt sealed segments recovered from disk (called once at
    /// startup, before any replay). Stops at the first record whose
    /// summaries do not decode, preserving contiguity; the rest is
    /// rebuilt from the WAL. A record whose families do not merge with
    /// this cube's — written under another ε — is a configuration error,
    /// as it is for a checkpoint part (`Engine::recover`): the WAL may
    /// already be pruned below it, so it cannot be rebuilt.
    pub fn adopt(&self, records: &[SegmentRecord]) -> Result<AdoptOutcome, ServiceError> {
        let mut fold = lock(&self.fold);
        let mut ix = lock(&self.index);
        let (mut out, mut evicted) = (AdoptOutcome::default(), Vec::new());
        for rec in records {
            match Segment::from_record(rec) {
                Ok(seg) if !self.fits(&seg) => {
                    return Err(ServiceError::Config(
                        "segment file incompatible with configured epsilon/seed",
                    ));
                }
                Ok(seg) => {
                    fold.last_seq = seg.meta.end_seq;
                    self.last_micros
                        .fetch_max(seg.meta.end_micros, Ordering::AcqRel);
                    fold.next_id = seg.meta.id + 1;
                    ix.sealed.push_back(Arc::new(seg));
                    out.adopted += 1;
                }
                Err(why) => {
                    out.dropped = records.len() - out.adopted;
                    out.notes.push(format!(
                        "segment {}: summaries undecodable ({why}); it and {} later \
                         segment(s) rebuilt from the WAL",
                        rec.id,
                        out.dropped - 1
                    ));
                    break;
                }
            }
        }
        while ix.sealed.len() > self.cfg.max_sealed {
            evicted.push(ix.sealed.pop_front().expect("non-empty past cap").meta.id);
        }
        self.persisted_floor.store(fold.last_seq, Ordering::Release);
        drop((fold, ix));
        self.persist(&[], &evicted);
        Ok(out)
    }

    /// Does every family of `seg` merge into a fresh one of this cube's?
    fn fits(&self, seg: &Segment) -> bool {
        STREAMED
            .into_iter()
            .all(|kind| self.fresh(kind).merge_in_place(seg.family(kind)).is_ok())
    }

    /// Highest batch seq covered by a segment known durable on disk.
    /// WAL pruning must stay at or below this.
    pub fn persisted_floor(&self) -> u64 {
        self.persisted_floor.load(Ordering::Acquire)
    }

    /// Highest batch seq the cube has recorded.
    pub fn last_seq(&self) -> u64 {
        lock(&self.fold).last_seq
    }

    /// Answer a time-window query from `kind`'s family: merge the
    /// summaries of every segment intersecting `[start, end]` micros
    /// (inclusive; the open segment included live). Returns `None` when
    /// no segment intersects, and for Count-Min, which no segment keeps
    /// (module doc), with a zero-coverage `RangeMeta`. Segment times are
    /// monotone, so the covering set is the minimal contiguous run of
    /// segments whose spans intersect the window — exactly the segments
    /// whose batches a per-range oracle must replay.
    ///
    /// Under the locks this only clones handles (and the open segment's
    /// one requested family); the merge runs after both are released,
    /// resuming from the range memo (see the module doc). The reply is
    /// byte for byte the plain left-deep fold's.
    pub fn query(
        &self,
        start_micros: u64,
        end_micros: u64,
        kind: SummaryKind,
    ) -> (RangeMeta, Option<ShardSummary>) {
        let mut meta = RangeMeta {
            start_micros,
            end_micros,
            segments_merged: 0,
            open_included: false,
            covered_weight: 0,
            start_seq: 0,
            end_seq: 0,
        };
        if kind == SummaryKind::CountMin {
            return (meta, None);
        }
        let (covering, open) = self.cut(start_micros, end_micros, kind);
        meta.open_included = open.is_some();
        let segs = covering.iter().map(|seg| &seg.meta);
        for seg in segs.chain(open.as_ref().map(|(seg, _)| seg)) {
            meta.segments_merged += 1;
            meta.covered_weight += seg.weight;
            if meta.segments_merged == 1 {
                meta.start_seq = seg.start_seq;
            }
            meta.end_seq = seg.end_seq;
        }
        let mut answer = self.fold_sealed(kind, &covering);
        if let Some((_, part)) = open {
            answer = Some(match answer {
                None => part,
                Some(acc) => merged(acc, part),
            });
        }
        if kind == SummaryKind::SpaceSaving {
            answer = answer.map(derive_space_saving);
        }
        (meta, answer)
    }

    /// The sealed segments intersecting `[start, end]` micros and, when
    /// the window reaches it, the open segment's coordinates and a copy of
    /// its `kind` family: one consistent cut, taken under fold → index.
    fn cut(
        &self,
        start_micros: u64,
        end_micros: u64,
        kind: SummaryKind,
    ) -> (Vec<Arc<Segment>>, Option<(SegmentMeta, ShardSummary)>) {
        let fold = lock(&self.fold);
        let covering = lock(&self.index)
            .sealed
            .iter()
            .filter(|seg| intersects(&seg.meta, start_micros, end_micros))
            .cloned()
            .collect();
        let open = fold
            .open
            .as_ref()
            .filter(|seg| intersects(&seg.meta, start_micros, end_micros))
            .map(|seg| (seg.meta.clone(), seg.family(kind)));
        (covering, open)
    }

    /// `kind`'s family folded left-deep over the sealed run `covering`,
    /// resumed from the longest memoized prefix; a fold that merged
    /// anything is memoized. Takes only the memo lock, and never across a
    /// merge.
    fn fold_sealed(&self, kind: SummaryKind, covering: &[Arc<Segment>]) -> Option<ShardSummary> {
        let (first, rest) = covering.split_first()?;
        if rest.is_empty() {
            return Some(first.family(kind));
        }
        // SpaceSaving answers are derived from the MG family's fold.
        let family = match kind {
            SummaryKind::SpaceSaving => SummaryKind::Mg,
            other => other,
        };
        let run: Vec<SegKey> = covering
            .iter()
            .map(|seg| (seg.meta.id, seg.meta.end_seq))
            .collect();
        let prefix = lock(&self.memo).longest_prefix(family, &run);
        let (done, mut acc) = match prefix {
            Some((done, fold)) => (done, ShardSummary::clone(&fold)),
            None => (1, first.family(kind)),
        };
        if done == covering.len() {
            return Some(acc);
        }
        for seg in &covering[done..] {
            acc = merged(acc, seg.family(kind));
        }
        let fold = Arc::new(acc.clone());
        lock(&self.memo).store(MemoEntry { family, run, fold });
        Some(acc)
    }

    /// Current health gauges (sealed count and resident bytes,
    /// open-segment age/weight), read against the same monotone-clamped
    /// clock that stamps segments, and the range memo's counts.
    pub fn health(&self) -> CubeHealth {
        let mut health = {
            let ix = lock(&self.index);
            let now = self.now();
            let (open_age_micros, open_weight) = match &ix.open {
                Some(open) => (now.saturating_sub(open.start_micros), open.weight),
                None => (0, 0),
            };
            CubeHealth {
                sealed: ix.sealed.len() as u64,
                open_age_micros,
                open_weight,
                max_tier: ix.sealed.iter().map(|seg| seg.meta.tier).max().unwrap_or(0),
                resident_bytes: ix
                    .sealed
                    .iter()
                    .map(|seg| seg.resident_bytes() as u64)
                    .sum(),
                coarsened: ix.coarsened,
                ..CubeHealth::default()
            }
        };
        let memo = lock(&self.memo);
        health.memo_hits = memo.hits;
        health.memo_extends = memo.extends;
        health.memo_misses = memo.misses;
        health
    }

    /// The cube's index: sealed segments in id order, then the open one.
    pub fn report(&self) -> SegmentReport {
        let ix = lock(&self.index);
        let now = self.now();
        let segments = ix
            .sealed
            .iter()
            .map(|seg| seg.meta.clone())
            .chain(ix.open.clone())
            .collect();
        SegmentReport {
            now_micros: now,
            segments,
        }
    }
}

/// `rec` in the four-slot layout segment files had before the two-slot
/// record: every family in [`SummaryKind::all`] order, the SpaceSaving
/// slot derived from the MG one, and the Count-Min slot a sketch of
/// `items` (the segment's items) under `epsilon` and `seed`. Count-Min is linear, so
/// one sketch of the items is the sketch the segment streamed or merged.
#[cfg(test)]
pub(crate) fn four_slot_record(
    rec: &SegmentRecord,
    items: &[u64],
    epsilon: f64,
    seed: u64,
) -> SegmentRecord {
    let mg = ShardSummary::decode(&rec.summaries[0]).expect("an MG slot decodes");
    let mut count_min = ShardSummary::new(
        &ServiceConfig::new(SummaryKind::CountMin, epsilon).seed(seed),
        0,
    );
    count_min.update_batch(items);
    SegmentRecord {
        summaries: vec![
            rec.summaries[0].clone(),
            derive_space_saving(mg).encode(),
            rec.summaries[1].clone(),
            count_min.encode(),
        ],
        ..rec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ManualClock;
    use ms_core::Summary;
    use std::sync::Arc;

    const EPS: f64 = 0.02;

    /// The kinds a range query can be answered in.
    const RANGE_KINDS: [SummaryKind; 3] = [
        SummaryKind::Mg,
        SummaryKind::SpaceSaving,
        SummaryKind::HybridQuantile,
    ];

    fn cube(cfg: SegmentConfig) -> SegmentCube {
        SegmentCube::new(EPS, 42, cfg)
    }

    fn ok(cube: &SegmentCube, batch: &[u64]) -> CubeOutcome {
        cube.record(batch)
    }

    #[test]
    fn count_boundary_seals_and_seqs_are_dense() {
        let c = cube(
            SegmentConfig::new()
                .seal_batches(2)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let mut sealed = Vec::new();
        for i in 0..5u64 {
            let out = ok(&c, &[i, i, i]);
            assert_eq!(out.seq, i + 1);
            sealed.extend(out.sealed);
        }
        // 5 batches at 2/segment: segments [1,2] and [3,4] sealed, batch 5 open.
        assert_eq!(sealed.len(), 2);
        assert_eq!((sealed[0].start_seq, sealed[0].end_seq), (1, 2));
        assert_eq!((sealed[1].start_seq, sealed[1].end_seq), (3, 4));
        assert_eq!(sealed[1].id, 1);
        assert_eq!(sealed[0].weight, 6);
        let report = c.report();
        assert_eq!(report.segments.len(), 3);
        assert!(!report.segments[2].sealed);
        assert_eq!(report.segments[2].start_seq, 5);
    }

    #[test]
    fn wall_clock_boundary_seals_via_injected_clock() {
        let clock = Arc::new(ManualClock::new(0));
        let c = cube(
            SegmentConfig::new()
                .seal_batches(u64::MAX)
                .seal_micros(1_000)
                .clock(clock.clone()),
        );
        assert!(ok(&c, &[1]).sealed.is_empty());
        clock.advance(999);
        assert!(ok(&c, &[2]).sealed.is_empty(), "window not yet spanned");
        clock.advance(1);
        let out = ok(&c, &[3]);
        // The aged segment seals *before* batch 3, which opens segment 1.
        assert_eq!(out.sealed.len(), 1);
        assert_eq!((out.sealed[0].start_seq, out.sealed[0].end_seq), (1, 2));
        let report = c.report();
        assert_eq!(report.segments.last().unwrap().start_seq, 3);
    }

    #[test]
    fn clock_regression_is_clamped() {
        let clock = Arc::new(ManualClock::new(500));
        let c = cube(SegmentConfig::new().clock(clock.clone()));
        ok(&c, &[1]);
        clock.set(100);
        ok(&c, &[2]);
        let report = c.report();
        assert_eq!(report.segments[0].start_micros, 500);
        assert_eq!(report.segments[0].end_micros, 500, "never regresses");
        assert!(report.now_micros >= 500);
    }

    #[test]
    fn eviction_past_cap_reports_ids() {
        let c = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .max_sealed(2)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let mut evicted = Vec::new();
        for i in 0..5u64 {
            evicted.extend(ok(&c, &[i]).evicted);
        }
        assert_eq!(evicted, vec![0, 1, 2]);
        assert_eq!(c.report().segments.len(), 2);
    }

    #[test]
    fn query_merges_covering_segments_with_exact_weight() {
        let clock = Arc::new(ManualClock::new(0));
        let c = cube(SegmentConfig::new().seal_batches(2).clock(clock.clone()));
        // Segment 0 at t=[0,10], segment 1 at t=[20,30], open at t=40.
        ok(&c, &[1, 1]);
        clock.set(10);
        ok(&c, &[2, 2]);
        clock.set(20);
        ok(&c, &[3, 3]);
        clock.set(30);
        ok(&c, &[4, 4]);
        clock.set(40);
        ok(&c, &[5, 5]);

        let (meta, merged) = c.query(15, 35, SummaryKind::Mg);
        assert_eq!(meta.segments_merged, 1);
        assert!(!meta.open_included);
        assert_eq!(meta.covered_weight, 4);
        assert_eq!((meta.start_seq, meta.end_seq), (3, 4));
        let hh = merged.unwrap().heavy_hitters(0.3).unwrap();
        assert!(hh.iter().any(|&(item, _)| item == 3));

        let (meta, merged) = c.query(5, u64::MAX, SummaryKind::HybridQuantile);
        assert_eq!(meta.segments_merged, 3);
        assert!(meta.open_included);
        assert_eq!(meta.covered_weight, 10);
        assert!(merged.unwrap().quantile(0.5).unwrap().is_some());

        let (meta, merged) = c.query(100, 200, SummaryKind::Mg);
        assert_eq!(meta.segments_merged, 0);
        assert!(merged.is_none());
        assert_eq!(meta.covered_weight, 0);
    }

    #[test]
    fn replay_reproduces_the_same_segments() {
        let live = cube(
            SegmentConfig::new()
                .seal_batches(3)
                .clock(Arc::new(ManualClock::new(7))),
        );
        let replayed = cube(
            SegmentConfig::new()
                .seal_batches(3)
                .clock(Arc::new(ManualClock::new(7))),
        );
        let batches: Vec<Vec<u64>> = (0..10u64).map(|i| vec![i % 4; 5]).collect();
        for (i, b) in batches.iter().enumerate() {
            ok(&live, b);
            replayed.record_at(i as u64 + 1, b);
        }
        let (a, b) = (live.report(), replayed.report());
        assert_eq!(a.segments, b.segments);
        assert_eq!(live.last_seq(), replayed.last_seq());
    }

    /// Every sealed segment rests packed, whatever its values — one
    /// holding `u32::MAX + 1` too; sealed, adopted or coarsened, the copy
    /// a reader gets encodes to the record's slot.
    #[test]
    fn sealed_quantile_family_rests_packed_and_reads_back_the_same() {
        // Each sealed segment's packed form, as the bytes it unpacks to
        // and its heap size.
        let quantile_slots = |c: &SegmentCube| -> Vec<(Vec<u8>, usize)> {
            let sealed = lock(&c.index).sealed.clone();
            sealed
                .iter()
                .map(|seg| {
                    let packed: &PackedQuantile = &seg.quantile;
                    let read = seg.family(SummaryKind::HybridQuantile).encode();
                    (read, packed.heap_bytes())
                })
                .collect()
        };
        let c = cube(SegmentConfig::new().seal_batches(2));
        let mut records = Vec::new();
        for i in 0..4u64 {
            // Enough values to flush base buffers into the hierarchy.
            let batch: Vec<u64> = (0..600).map(|v| (v * 7919 + i) % 100_000).collect();
            records.extend(ok(&c, &batch).sealed);
        }
        records.extend(ok(&c, &[1, u64::from(u32::MAX) + 1]).sealed);
        records.extend(ok(&c, &[2]).sealed);
        assert_eq!(records.len(), 3);
        let slots = quantile_slots(&c);
        assert_eq!(slots.len(), 3);
        for ((read, packed), rec) in slots.iter().zip(&records) {
            assert_eq!(read, &rec.summaries[1]);
            assert!(*packed > 0, "every sealed segment rests packed");
        }
        // 1,200 values below 2¹⁷ pack under four bytes a point.
        assert!(slots[0].1 < 4 * 1_200, "{} bytes", slots[0].1);

        let adopted = cube(SegmentConfig::new().seal_batches(2));
        assert_eq!(adopted.adopt(&records).unwrap().adopted, 3);
        assert_eq!(quantile_slots(&adopted), slots);

        // Coarsening merges unpacked copies and the survivor rests packed.
        let coarse = cube(SegmentConfig::new().seal_batches(1).coarsen_watermark(1));
        let mut last = Vec::new();
        for i in 0..3u64 {
            let batch: Vec<u64> = (0..600).map(|v| v * 31 + i).collect();
            last = ok(&coarse, &batch).sealed;
        }
        let slots = quantile_slots(&coarse);
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].0, last.last().unwrap().summaries[1]);
    }

    /// A resting MG family is its record's slot, and the copy a reader
    /// decodes encodes to those bytes again — whether the segment sealed,
    /// was adopted from a two- or a four-slot record, or was coarsened.
    #[test]
    fn sealed_mg_family_rests_as_its_slot() {
        // Each sealed segment's resting MG bytes and the copy it reads.
        let mg_slots = |c: &SegmentCube| -> Vec<(Vec<u8>, Vec<u8>)> {
            let sealed = lock(&c.index).sealed.clone();
            sealed
                .iter()
                .map(|seg| (seg.mg.to_vec(), seg.family(SummaryKind::Mg).encode()))
                .collect()
        };
        let c = cube(SegmentConfig::new().seal_batches(2));
        let (mut records, mut items) = (Vec::new(), Vec::new());
        for i in 0..6u64 {
            let batch: Vec<u64> = (0..300).map(|v| (v * v + i) % 97).collect();
            records.extend(ok(&c, &batch).sealed);
            items.push(batch);
        }
        assert_eq!(records.len(), 3);
        let slots = mg_slots(&c);
        for ((rest, read), rec) in slots.iter().zip(&records) {
            assert_eq!(rest, &rec.summaries[0]);
            assert_eq!(read, &rec.summaries[0]);
        }
        let four: Vec<SegmentRecord> = records
            .iter()
            .zip(items.chunks(2))
            .map(|(rec, batches)| four_slot_record(rec, &batches.concat(), EPS, 42))
            .collect();
        for layout in [&records, &four] {
            let adopted = cube(SegmentConfig::new().seal_batches(2));
            assert_eq!(adopted.adopt(layout).unwrap().adopted, 3);
            assert_eq!(mg_slots(&adopted), slots);
        }

        // Coarsening merges decoded copies; the survivor rests as the
        // slot of the record it wrote.
        let coarse = cube(SegmentConfig::new().seal_batches(1).coarsen_watermark(1));
        let mut last = Vec::new();
        for i in 0..3u64 {
            last = ok(&coarse, &[i, i + 1, 7]).sealed;
        }
        let [(rest, read)] = &mg_slots(&coarse)[..] else {
            panic!("coarsened down to one segment");
        };
        assert_eq!(rest, &last.last().unwrap().summaries[0]);
        assert_eq!(read, rest);
    }

    /// A ledger-shaped segment — 64 batches of 1,024 Zipf items at
    /// ε = 0.01 — rests in under a byte a stored point, and
    /// `resident_bytes` is its packed blocks plus its MG slot.
    #[test]
    fn a_ledger_shaped_segment_rests_in_under_a_byte_a_point() {
        let items = ms_workloads::StreamKind::Zipf {
            s: 1.1,
            universe: 1 << 20,
        }
        .generate(64 * 1_024, 7);
        let c = SegmentCube::new(0.01, 42, SegmentConfig::new().seal_batches(64));
        for batch in items.chunks(1_024) {
            ok(&c, batch);
        }
        let sealed = lock(&c.index).sealed.clone();
        let [seg] = &sealed.iter().collect::<Vec<_>>()[..] else {
            panic!("one sealed segment, got {}", sealed.len());
        };
        let points = seg.family(SummaryKind::HybridQuantile).size();
        let packed = seg.quantile.heap_bytes();
        assert!(points > 3_000, "{points} points");
        assert!(packed < points, "{packed} bytes for {points} points");
        assert_eq!(c.health().resident_bytes, (packed + seg.mg.len()) as u64);
    }

    #[test]
    fn adopt_restores_counters_and_floor() {
        let clock = Arc::new(ManualClock::new(0));
        let c = cube(SegmentConfig::new().seal_batches(2).clock(clock.clone()));
        let mut sealed = Vec::new();
        for i in 0..6u64 {
            clock.advance(5);
            sealed.extend(ok(&c, &[i; 4]).sealed);
        }
        assert_eq!(sealed.len(), 3);

        assert!(sealed
            .iter()
            .all(|rec| rec.summaries.len() == STREAMED.len()));

        let fresh = cube(SegmentConfig::new().seal_batches(2).clock(clock.clone()));
        let out = fresh.adopt(&sealed).unwrap();
        assert_eq!(out.adopted, 3);
        assert_eq!(out.dropped, 0);
        assert_eq!(fresh.last_seq(), 6);
        assert_eq!(fresh.persisted_floor(), 6);
        // Continue ingesting: the next segment gets the next dense id.
        let out = ok(&fresh, &[9]);
        assert_eq!(out.seq, 7);
        assert_eq!(fresh.report().segments.last().unwrap().id, 3);
        // And a full-range query sees everything.
        let (meta, _) = fresh.query(0, u64::MAX, SummaryKind::Mg);
        assert_eq!(meta.covered_weight, 25);
        // No segment keeps Count-Min: nothing is covered.
        let (meta, answer) = fresh.query(0, u64::MAX, SummaryKind::CountMin);
        assert!(answer.is_none());
        assert_eq!((meta.segments_merged, meta.covered_weight), (0, 0));
    }

    #[test]
    fn adopt_stops_at_undecodable_summaries() {
        let c = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let mut sealed = Vec::new();
        for i in 0..3u64 {
            sealed.extend(ok(&c, &[i]).sealed);
        }
        let four: Vec<SegmentRecord> = sealed
            .iter()
            .zip(0u64..)
            .map(|(rec, i)| four_slot_record(rec, &[i], EPS, 42))
            .collect();
        let adopt = |records: &[SegmentRecord]| {
            let fresh = cube(
                SegmentConfig::new()
                    .seal_batches(1)
                    .clock(Arc::new(ManualClock::new(0))),
            );
            let out = fresh.adopt(records).unwrap();
            assert_eq!((out.adopted, out.dropped), (1, 2), "{:?}", out.notes);
            assert_eq!(fresh.last_seq(), 1, "floor stops at the last good record");
            assert!(out.notes[0].contains("rebuilt from the WAL"));
            out.notes[0].clone()
        };
        // Either layout: an undecodable slot, the dropped slots of a
        // four-slot record included; slots out of family order; a slot
        // count neither layout has.
        let mut bad = sealed.clone();
        bad[1].summaries[1] = vec![0xFF; 3];
        adopt(&bad);
        for slot in [1, 2, 3] {
            let mut bad = four.clone();
            bad[1].summaries[slot] = vec![0xFF; 3];
            adopt(&bad);
        }
        let mut bad = four.clone();
        bad[1].summaries.swap(1, 3);
        assert!(adopt(&bad).contains("out of order"));
        let mut bad = sealed.clone();
        bad[1].summaries.swap(0, 1);
        assert!(adopt(&bad).contains("out of order"));
        let mut bad = four;
        bad[1].summaries.pop();
        assert!(adopt(&bad).contains("family count"));
    }

    /// Records in the four-slot layout adopt into segments that answer
    /// every range kind byte for byte as the cube that sealed them does,
    /// and as one that adopted the same segments' two-slot records.
    #[test]
    fn four_slot_records_adopt_and_answer_like_two_slot_ones() {
        let cfg = |clock: Arc<ManualClock>| {
            SegmentConfig::new()
                .seal_batches(3)
                .coarsen_watermark(4)
                .clock(clock)
        };
        for seed in SEEDS {
            let clock = Arc::new(ManualClock::new(0));
            let live = cube(cfg(clock.clone()));
            let mut rng = ms_core::Rng64::new(seed);
            // 13 segments, none left open, coarsened down to the watermark.
            let batches: Vec<Vec<u64>> = (0..39)
                .map(|_| {
                    let universe = 1 << (4 + rng.below(28));
                    (0..1 + rng.below(300))
                        .map(|_| rng.below(universe))
                        .collect()
                })
                .collect();
            let mut disk = std::collections::BTreeMap::new();
            for batch in &batches {
                clock.advance(1 + rng.below(3));
                let out = ok(&live, batch);
                disk.extend(out.sealed.into_iter().map(|rec| (rec.id, rec)));
                for id in out.evicted {
                    disk.remove(&id);
                }
            }
            let two: Vec<SegmentRecord> = disk.into_values().collect();
            let four: Vec<SegmentRecord> = two
                .iter()
                .map(|rec| {
                    let items = batches[rec.start_seq as usize - 1..rec.end_seq as usize].concat();
                    four_slot_record(rec, &items, EPS, 42)
                })
                .collect();
            let adopted = |records: &[SegmentRecord]| {
                let c = cube(cfg(Arc::new(ManualClock::new(0))));
                let out = c.adopt(records).unwrap();
                assert_eq!(
                    (out.adopted, out.dropped),
                    (records.len(), 0),
                    "{:?}",
                    out.notes
                );
                c
            };
            let (from_two, from_four) = (adopted(&two), adopted(&four));
            assert!(
                live.health().max_tier >= 1,
                "seed {seed:#x}: nothing coarsened"
            );
            let segs = live.report().segments;
            let mut windows = vec![(0, u64::MAX)];
            for (i, a) in segs.iter().enumerate() {
                for b in &segs[i..] {
                    windows.push((a.start_micros, b.end_micros));
                }
            }
            for (start, end) in windows {
                for kind in RANGE_KINDS {
                    let (want_meta, want) = live.query(start, end, kind);
                    let want = want.map(|s| s.encode());
                    for c in [&from_two, &from_four] {
                        let (meta, answer) = c.query(start, end, kind);
                        let what = format!("seed {seed:#x} [{start}, {end}] {kind:?}");
                        assert_eq!(meta, want_meta, "{what}");
                        assert!(
                            answer.map(|s| s.encode()) == want,
                            "{what}: reply bytes differ"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn coarsening_holds_sealed_count_at_the_watermark() {
        let c = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .coarsen_watermark(4)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let mut coarsened = 0;
        for i in 0..32u64 {
            let out = ok(&c, &[i % 7; 10]);
            coarsened += out.coarsened;
            assert!(
                c.health().sealed <= 4,
                "sealed count must never exceed the watermark after a seal"
            );
            // Bookkeeping: nothing asks the engine to both write and
            // delete the same id, and each id is written at most once.
            for rec in &out.sealed {
                assert!(!out.evicted.contains(&rec.id));
            }
            let mut ids: Vec<u64> = out.sealed.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), out.sealed.len());
        }
        assert!(coarsened >= 27, "28 seals over watermark 4: {coarsened}");

        // Lossless w.r.t. admitted weight: the full range still covers
        // every batch, contiguously.
        let (meta, merged) = c.query(0, u64::MAX, SummaryKind::Mg);
        assert_eq!(meta.covered_weight, 320);
        assert_eq!((meta.start_seq, meta.end_seq), (1, 32));
        // And the merged answer still finds the heavy item at eps·n:
        // item 0 fills 50/320 of the stream, well above phi - eps.
        let hh = merged.unwrap().heavy_hitters(0.1).unwrap();
        assert!(hh.iter().any(|&(item, _)| item == 0), "{hh:?}");
        assert!(c.health().max_tier >= 1, "tiers must be recorded");
    }

    #[test]
    fn equal_tier_pairing_keeps_merge_trees_shallow() {
        let c = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .coarsen_watermark(2)
                .clock(Arc::new(ManualClock::new(0))),
        );
        for i in 0..16u64 {
            ok(&c, &[i]);
        }
        // 15 sealed segments squeezed into 2: balanced pairing keeps the
        // deepest tier logarithmic, not linear.
        let report = c.report();
        let max_tier = report.segments.iter().map(|m| m.tier).max().unwrap();
        assert!(
            (1..=5).contains(&max_tier),
            "expected log-ish tiers, got {max_tier}"
        );
        // Tier rides the wire in SegmentInfo.
        assert!(report.segments.iter().any(|m| m.tier > 0 && m.sealed));
    }

    #[test]
    fn coarsened_cube_adopts_and_replays_consistently() {
        let clock = Arc::new(ManualClock::new(0));
        let c = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .coarsen_watermark(2)
                .clock(clock.clone()),
        );
        // Keep only the newest record per id — what the segment store
        // would hold after the engine applied every outcome in order.
        let mut disk: std::collections::BTreeMap<u64, SegmentRecord> =
            std::collections::BTreeMap::new();
        for i in 0..9u64 {
            let out = ok(&c, &[i; 3]);
            for rec in out.sealed {
                disk.insert(rec.id, rec);
            }
            for id in out.evicted {
                disk.remove(&id);
            }
        }
        let records: Vec<SegmentRecord> = disk.into_values().collect();
        let fresh = cube(
            SegmentConfig::new()
                .seal_batches(1)
                .coarsen_watermark(2)
                .clock(clock),
        );
        let adopted = fresh.adopt(&records).unwrap();
        assert_eq!(adopted.adopted, records.len());
        assert_eq!(adopted.dropped, 0);
        let (a, b) = (c.report(), fresh.report());
        // The adopted cube sees the same sealed index, tiers included
        // (seal_batches(1) leaves no open segment to rebuild).
        let sealed_a: Vec<_> = a.segments.iter().filter(|m| m.sealed).collect();
        let sealed_b: Vec<_> = b.segments.iter().filter(|m| m.sealed).collect();
        assert_eq!(sealed_a, sealed_b);
        assert_eq!(fresh.persisted_floor(), 9);
    }

    #[test]
    fn health_tracks_sealed_count_and_open_segment_age() {
        let clock = Arc::new(ManualClock::new(0));
        let c = cube(SegmentConfig::new().seal_batches(2).clock(clock.clone()));
        assert_eq!(c.health(), CubeHealth::default(), "empty cube is all-zero");

        ok(&c, &[1, 2, 3]);
        clock.advance(40);
        let h = c.health();
        assert_eq!(h.sealed, 0);
        assert_eq!(h.open_age_micros, 40, "age reads the injected clock");
        assert_eq!(h.open_weight, 3);

        // Second batch hits the count boundary: the segment seals, the
        // open gauges reset to zero until the next batch arrives.
        ok(&c, &[4]);
        let h = c.health();
        assert_eq!(h.sealed, 1);
        assert_eq!(h.open_age_micros, 0);
        assert_eq!(h.open_weight, 0);
    }

    // ---- the range memo ----

    /// What `query` returned before the range memo: every covering
    /// segment's family merged left-deep, the open one last.
    fn query_unmemoized(
        c: &SegmentCube,
        start_micros: u64,
        end_micros: u64,
        kind: SummaryKind,
    ) -> (RangeMeta, Option<ShardSummary>) {
        let (covering, open) = c.cut(start_micros, end_micros, kind);
        let mut meta = RangeMeta {
            start_micros,
            end_micros,
            segments_merged: 0,
            open_included: open.is_some(),
            covered_weight: 0,
            start_seq: 0,
            end_seq: 0,
        };
        let mut answer: Option<ShardSummary> = None;
        let parts = covering
            .iter()
            .map(|seg| (seg.meta.clone(), seg.family(kind)))
            .chain(open);
        for (seg, part) in parts {
            meta.segments_merged += 1;
            meta.covered_weight += seg.weight;
            if meta.segments_merged == 1 {
                meta.start_seq = seg.start_seq;
            }
            meta.end_seq = seg.end_seq;
            answer = Some(match answer.take() {
                None => part,
                Some(acc) => merged(acc, part),
            });
        }
        if kind == SummaryKind::SpaceSaving {
            answer = answer.map(derive_space_saving);
        }
        (meta, answer)
    }

    fn memo_counts(c: &SegmentCube) -> (u64, u64, u64) {
        let h = c.health();
        (h.memo_hits, h.memo_extends, h.memo_misses)
    }

    /// Seeded ingest beside range reads of every kind: windows anchored
    /// at now (repeats between seals, one-seal extensions after them, a
    /// left edge that moves), sealed-only windows, windows asked again
    /// after the segments under them were coarsened or evicted, and the
    /// full range after every seal that did either. Coarsening holds the
    /// sealed count at the watermark, so a cube evicts past `max_sealed`
    /// only when that is below the watermark — hence two cubes.
    #[test]
    fn memo_replies_equal_the_unmemoized_fold() {
        for seed in SEEDS {
            for cfg in [
                SegmentConfig::new().seal_batches(3).coarsen_watermark(5),
                SegmentConfig::new()
                    .seal_batches(3)
                    .coarsen_watermark(5)
                    .max_sealed(4),
            ] {
                let clock = Arc::new(ManualClock::new(0));
                let c = cube(cfg.clock(clock.clone()));
                let mut rng = ms_core::Rng64::new(seed);
                let mut asked: VecDeque<(u64, u64)> = VecDeque::new();
                let mut gone = 0;
                for step in 0..240 {
                    // Enough items that the quantile family flushes
                    // buffers and its merges draw coins.
                    let universe = 1 << (4 + rng.below(28));
                    let batch: Vec<u64> = (0..1 + rng.below(300))
                        .map(|_| rng.below(universe))
                        .collect();
                    clock.advance(1 + rng.below(3));
                    let out = ok(&c, &batch);
                    gone += out.evicted.len();
                    let segs = c.report().segments;
                    let back = 2 + rng.below_usize(5);
                    let first = &segs[segs.len().saturating_sub(back)];
                    let mut windows = vec![(first.start_micros, u64::MAX)];
                    let sealed: Vec<&SegmentMeta> = segs.iter().filter(|s| s.sealed).collect();
                    if sealed.len() >= 2 {
                        let from = rng.below_usize(sealed.len() - 1);
                        let to = from + 1 + rng.below_usize(sealed.len() - 1 - from);
                        windows.push((sealed[from].start_micros, sealed[to].end_micros));
                    }
                    if !asked.is_empty() {
                        windows.push(asked[rng.below_usize(asked.len())]);
                    }
                    if out.coarsened > 0 || !out.evicted.is_empty() {
                        windows.push((0, u64::MAX));
                    }
                    for &(start, end) in &windows {
                        let kind = RANGE_KINDS[rng.below_usize(RANGE_KINDS.len())];
                        let (meta, answer) = c.query(start, end, kind);
                        let (want_meta, want) = query_unmemoized(&c, start, end, kind);
                        let what = format!("seed {seed:#x} step {step} [{start}, {end}] {kind:?}");
                        assert_eq!(meta, want_meta, "{what}");
                        let bytes = |s: Option<ShardSummary>| s.map(|s| s.encode());
                        assert!(bytes(answer) == bytes(want), "{what}: reply bytes differ");
                        asked.push_back((start, end));
                    }
                    while asked.len() > 12 {
                        asked.pop_front();
                    }
                }
                let (hits, extends, misses) = memo_counts(&c);
                assert!(
                    hits > 0 && extends > 0 && misses > 0,
                    "{hits} {extends} {misses}"
                );
                assert!(gone > 0, "no segment was absorbed or evicted");
            }
        }
    }

    #[test]
    fn memo_counts_hits_extends_and_misses() {
        let clock = Arc::new(ManualClock::new(0));
        let c = cube(SegmentConfig::new().seal_batches(1).clock(clock.clone()));
        // Segments 0, 1, 2 sealed at t = 10, 20, 30.
        for i in 0..3u64 {
            clock.advance(10);
            ok(&c, &[i; 5]);
        }
        c.query(0, u64::MAX, SummaryKind::HybridQuantile);
        assert_eq!(memo_counts(&c), (0, 0, 1));
        c.query(0, u64::MAX, SummaryKind::HybridQuantile);
        assert_eq!(memo_counts(&c), (1, 0, 1));
        // SpaceSaving and MG answers share the MG family's fold.
        c.query(0, u64::MAX, SummaryKind::SpaceSaving);
        c.query(0, u64::MAX, SummaryKind::Mg);
        assert_eq!(memo_counts(&c), (2, 0, 2));
        clock.advance(10);
        ok(&c, &[3; 5]);
        c.query(0, u64::MAX, SummaryKind::HybridQuantile);
        assert_eq!(memo_counts(&c), (2, 1, 2), "one seal later: extend");
        c.query(0, u64::MAX, SummaryKind::HybridQuantile);
        assert_eq!(memo_counts(&c), (3, 1, 2));
        // The left edge moves past segment 0; a window shorter than the
        // memoized run is not its prefix either.
        c.query(15, u64::MAX, SummaryKind::HybridQuantile);
        c.query(0, 25, SummaryKind::HybridQuantile);
        assert_eq!(memo_counts(&c), (3, 1, 4));
        // One sealed segment is nothing to fold: not counted.
        c.query(35, u64::MAX, SummaryKind::HybridQuantile);
        assert_eq!(memo_counts(&c), (3, 1, 4));
    }

    // ---- Lemma 1: the derived SpaceSaving family ----

    use ms_core::ItemSummary;
    use ms_frequency::{MgSummary, SpaceSavingSummary};
    use ms_workloads::StreamKind;

    const SEEDS: [u64; 3] = [0xF417_5EED, 0xB0B5_CAFE, 0x2026_0806];

    /// The SpaceSaving view of a record's MG slot.
    fn space_saving(mg_slot: &[u8]) -> SpaceSavingSummary<u64> {
        match derive_space_saving(ShardSummary::decode(mg_slot).expect("slot decodes")) {
            ShardSummary::SpaceSaving(mg) => SpaceSavingSummary::from_mg(mg),
            other => unreachable!("derived {:?}", other.kind()),
        }
    }

    fn mg_table(mg: MgSummary<u64>) -> Vec<(u64, u64)> {
        let mut table: Vec<(u64, u64)> = mg.iter().map(|(item, c)| (*item, c)).collect();
        table.sort_unstable();
        table
    }

    /// Everything a caller can read off a SpaceSaving range answer must
    /// agree between the derived summary and one actually streamed.
    fn assert_same_answers(
        derived: &SpaceSavingSummary<u64>,
        streamed: &SpaceSavingSummary<u64>,
        what: &str,
    ) {
        assert_eq!(derived.capacity(), streamed.capacity(), "{what}");
        assert_eq!(derived.total_weight(), streamed.total_weight(), "{what}");
        assert_eq!(
            mg_table(derived.clone().into_mg()),
            mg_table(streamed.clone().into_mg()),
            "{what}: MG-form counter tables"
        );
        for phi in [EPS, 1.5 * EPS, 0.05, 0.1, 0.3, 0.9] {
            let sorted = |ss: &SpaceSavingSummary<u64>| {
                let mut hh = ss.heavy_hitters(phi);
                hh.sort_unstable();
                hh
            };
            let reported = sorted(derived);
            assert_eq!(reported, sorted(streamed), "{what}: heavy_hitters({phi})");
            for (item, _) in reported {
                assert_eq!(
                    derived.estimate(&item),
                    streamed.estimate(&item),
                    "{what}: estimate({item})"
                );
            }
        }
    }

    #[test]
    fn derived_space_saving_matches_a_streamed_one() {
        let streams = [
            StreamKind::Zipf {
                s: 1.2,
                universe: 5_000,
            },
            StreamKind::Uniform { universe: 400 },
            StreamKind::AllDistinct,
            StreamKind::AllSame,
        ];
        for seed in SEEDS {
            for kind in &streams {
                let items = kind.generate(200 * 48, seed);
                for cadence in [1u64, 7, 64] {
                    let what = format!("{} seed {seed:#x} cadence {cadence}", kind.label());
                    let c = cube(
                        SegmentConfig::new()
                            .seal_batches(cadence)
                            .clock(Arc::new(ManualClock::new(0))),
                    );
                    // One streamed reference per segment, sealed in step.
                    let mut refs: Vec<SpaceSavingSummary<u64>> = Vec::new();
                    let mut current = SpaceSavingSummary::for_epsilon(EPS);
                    for batch in items.chunks(48) {
                        current.extend_from(batch.iter().copied());
                        for rec in ok(&c, batch).sealed {
                            assert_same_answers(&space_saving(&rec.summaries[0]), &current, &what);
                            refs.push(std::mem::replace(
                                &mut current,
                                SpaceSavingSummary::for_epsilon(EPS),
                            ));
                        }
                    }
                    if current.total_weight() > 0 {
                        refs.push(current);
                    }
                    // The full-range answer folds MG segments and derives
                    // once; the reference folds streamed summaries in the
                    // same order.
                    let mut folded = refs[0].clone();
                    for next in &refs[1..] {
                        folded.merge_from(next.clone()).unwrap();
                    }
                    let (meta, answer) = c.query(0, u64::MAX, SummaryKind::SpaceSaving);
                    assert_eq!(meta.covered_weight, items.len() as u64, "{what}");
                    let answer = match answer.expect("non-empty range") {
                        ShardSummary::SpaceSaving(mg) => SpaceSavingSummary::from_mg(mg),
                        other => panic!("{what}: answered with {:?}", other.kind()),
                    };
                    assert_same_answers(&answer, &folded, &what);
                }
            }
        }
    }

    #[test]
    fn derived_space_saving_survives_coarsening() {
        for seed in SEEDS {
            let items = StreamKind::Zipf {
                s: 1.1,
                universe: 3_000,
            }
            .generate(64 * 40, seed);
            let c = cube(
                SegmentConfig::new()
                    .seal_batches(1)
                    .coarsen_watermark(3)
                    .clock(Arc::new(ManualClock::new(0))),
            );
            // Mirror the cube's merge tree on streamed references, keyed
            // by surviving segment id: a coarsened record re-appears under
            // the older id and evicts the younger.
            let mut refs: std::collections::BTreeMap<u64, SpaceSavingSummary<u64>> =
                std::collections::BTreeMap::new();
            for (id, batch) in items.chunks(40).enumerate() {
                let mut streamed = SpaceSavingSummary::for_epsilon(EPS);
                streamed.extend_from(batch.iter().copied());
                refs.insert(id as u64, streamed);
                let out = ok(&c, batch);
                // Absorptions happen oldest-first within one seal; replay
                // them on the references in the same order.
                for &gone in &out.evicted {
                    let absorbed = refs.remove(&gone).expect("evicted id was live");
                    let (_, survivor) = refs.range_mut(..gone).next_back().expect("older neighbor");
                    survivor.merge_from(absorbed).unwrap();
                }
                for rec in &out.sealed {
                    assert_same_answers(
                        &space_saving(&rec.summaries[0]),
                        &refs[&rec.id],
                        &format!("seed {seed:#x} segment {} tier {}", rec.id, rec.tier),
                    );
                }
            }
            assert!(c.health().max_tier >= 2, "the run must coarsen repeatedly");
        }
    }

    #[test]
    fn a_record_with_a_streamed_space_saving_slot_still_adopts() {
        // What code before the derived slot wrote: a four-slot record
        // whose slot 1 holds a SpaceSaving summary in its streaming
        // representation.
        let items = StreamKind::Zipf {
            s: 1.3,
            universe: 2_000,
        }
        .generate(6_000, SEEDS[0]);
        let writer = cube(
            SegmentConfig::new()
                .seal_batches(2)
                .clock(Arc::new(ManualClock::new(0))),
        );
        let mut records = Vec::new();
        for segment in items.chunks(2_000) {
            let mut streamed = SpaceSavingSummary::for_epsilon(EPS);
            for batch in segment.chunks(1_000) {
                streamed.extend_from(batch.iter().copied());
                for rec in ok(&writer, batch).sealed {
                    records.push(four_slot_record(&rec, segment, EPS, 42));
                }
            }
            let rec = records.last_mut().expect("two batches seal a segment");
            let mut slot = SummaryKind::SpaceSaving.encode();
            streamed.encode_into(&mut slot);
            assert_ne!(slot, rec.summaries[1], "streaming form differs on disk");
            rec.summaries[1] = slot;
        }
        assert_eq!(records.len(), 3);

        let reader = cube(SegmentConfig::new().clock(Arc::new(ManualClock::new(0))));
        let out = reader.adopt(&records).unwrap();
        assert_eq!((out.adopted, out.dropped), (3, 0), "{:?}", out.notes);
        let (meta, answer) = reader.query(0, u64::MAX, SummaryKind::SpaceSaving);
        assert_eq!(meta.covered_weight, 6_000);
        let answer = answer.unwrap();
        let mut truth: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for &item in &items {
            *truth.entry(item).or_default() += 1;
        }
        let slack = (EPS * 6_000.0).ceil() as u64;
        for (&item, &count) in &truth {
            let est = answer.point(item).unwrap();
            assert!(
                est.abs_diff(count) <= slack,
                "item {item}: {est} vs {count}"
            );
        }
    }

    // ---- the lock split ----

    /// Run `body` on its own thread and fail loudly if it has not
    /// finished in `secs` — a deadlock must not hang the suite.
    fn under_watchdog(secs: u64, body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(std::time::Duration::from_secs(secs)) {
            Ok(()) => handle.join().unwrap(),
            // The body panicked (sender dropped): surface its message.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(handle.join().unwrap_err())
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("watchdog: still running after {secs}s — deadlock?")
            }
        }
    }

    /// A group commit whose hook folds every record into `cube` under the
    /// seq the WAL gave it, as a durable engine's does, then shows `seen`
    /// the seq, the batch and what the fold did.
    fn folding_group(
        cube: &Arc<SegmentCube>,
        seen: impl Fn(u64, &[u64], &CubeOutcome) + Send + Sync + 'static,
    ) -> ms_store::GroupCommit {
        let cube = Arc::clone(cube);
        ms_store::GroupCommit::new().with_record_hook(move |seq, record| {
            let batch = Vec::<u64>::decode(&record).unwrap();
            let out = cube.record_at(seq, &batch);
            assert_eq!(out.seq, seq, "cube seq ≡ WAL seq");
            seen(seq, &batch, &out);
        })
    }

    #[test]
    fn concurrent_ingest_and_reads_keep_seqs_dense_and_ranges_exact() {
        use ms_store::{FsyncPolicy, Store, StoreConfig};
        use std::sync::atomic::AtomicBool;

        const WRITERS: u64 = 4;
        // 4 × 151 batches at 3 per segment: one batch is left open at the end.
        const PER_WRITER: u64 = 151;

        under_watchdog(120, || {
            let dir = std::env::temp_dir().join(format!("ms-cube-conc-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store_cfg = StoreConfig::new(&dir).fsync(FsyncPolicy::Never);
            let (store, _) = Store::open(&store_cfg).unwrap();
            let store = Mutex::new(store);
            let clock = Arc::new(ManualClock::new(0));
            let c = Arc::new(cube(
                SegmentConfig::new()
                    .seal_batches(3)
                    .coarsen_watermark(5)
                    .clock(clock.clone()),
            ));
            // seq -> batch length, filled in by the hook that folded seq.
            let lens: Arc<Vec<AtomicU64>> = Arc::new(
                (0..=WRITERS * PER_WRITER)
                    .map(|_| AtomicU64::new(0))
                    .collect(),
            );
            let fold_lens = |lens: &Arc<Vec<AtomicU64>>| {
                let lens = Arc::clone(lens);
                move |seq: u64, batch: &[u64], _: &CubeOutcome| {
                    let was = lens[seq as usize].swap(batch.len() as u64, Ordering::SeqCst);
                    assert_eq!(was, 0, "seq {seq} assigned twice");
                }
            };
            let group = folding_group(&c, fold_lens(&lens));
            let writing = AtomicBool::new(true);
            // Readers and poller that have run once; the writers hold
            // their last batch until all three have, so each overlaps
            // the writes however the threads are scheduled.
            let observed = AtomicU64::new(0);
            let start = std::sync::Barrier::new(WRITERS as usize + 3);
            let mut metas: Vec<RangeMeta> = Vec::new();

            std::thread::scope(|scope| {
                let writers: Vec<_> = (0..WRITERS)
                    .map(|w| {
                        let (store, group, clock, observed, start) =
                            (&store, &group, &clock, &observed, &start);
                        scope.spawn(move || {
                            start.wait();
                            for i in 0..PER_WRITER {
                                if i == PER_WRITER - 1 {
                                    while observed.load(Ordering::SeqCst) < 3 {
                                        std::thread::yield_now();
                                    }
                                }
                                // Writer-tagged items; lengths differ so a
                                // mismatched seq shows in the weights.
                                let batch = vec![w; 1 + ((w * 31 + i * 7) % 23) as usize];
                                clock.advance(1);
                                group.append(store, batch.encode()).unwrap();
                            }
                        })
                    })
                    .collect();
                let readers: Vec<_> = (0..2u64)
                    .map(|r| {
                        let (c, writing, observed, start) = (&c, &writing, &observed, &start);
                        scope.spawn(move || {
                            start.wait();
                            let mut seen = Vec::new();
                            let kinds = RANGE_KINDS;
                            let mut turn = r as usize;
                            while writing.load(Ordering::SeqCst) {
                                let now = c.report().now_micros;
                                let from = now.saturating_sub(1 + (turn as u64 * 37) % 300);
                                let (meta, merged) =
                                    c.query(from, u64::MAX, kinds[turn % kinds.len()]);
                                if let Some(merged) = merged {
                                    assert_eq!(merged.kind(), kinds[turn % kinds.len()]);
                                    assert_eq!(merged.total_weight(), meta.covered_weight);
                                }
                                seen.push(meta);
                                if seen.len() == 1 {
                                    observed.fetch_add(1, Ordering::SeqCst);
                                }
                                turn += 1;
                            }
                            seen
                        })
                    })
                    .collect();
                let poller = {
                    let (c, writing, observed, start) = (&c, &writing, &observed, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut polls = 0u64;
                        while writing.load(Ordering::SeqCst) {
                            let report = c.report();
                            for pair in report.segments.windows(2) {
                                assert_eq!(
                                    pair[1].start_seq,
                                    pair[0].end_seq + 1,
                                    "index has a hole"
                                );
                            }
                            // A seal is visible for a moment before its
                            // coarsening merge lands.
                            assert!(c.health().sealed <= 5 + 1, "watermark holds");
                            polls += 1;
                            if polls == 1 {
                                observed.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        polls
                    })
                };
                for writer in writers {
                    writer.join().unwrap();
                }
                writing.store(false, Ordering::SeqCst);
                for reader in readers {
                    metas.extend(reader.join().unwrap());
                }
                assert!(poller.join().unwrap() > 0);
            });

            // Dense: every seq in 1..=N was folded exactly once.
            let total = WRITERS * PER_WRITER;
            assert_eq!(c.last_seq(), total);
            let lens: Vec<u64> = lens.iter().map(|l| l.load(Ordering::SeqCst)).collect();
            assert!(lens[1..].iter().all(|&l| l > 0));
            // Cube seq == WAL seq: the record the log holds at each seq
            // is the batch the cube folded under that seq.
            drop(store);
            let (_, recovery) = Store::open(&store_cfg).unwrap();
            assert_eq!(recovery.last_seq, total);
            assert_eq!(recovery.tail.len() as u64, total);
            for entry in &recovery.tail {
                let batch = Vec::<u64>::decode(&entry.payload).unwrap();
                assert_eq!(
                    batch.len() as u64,
                    lens[entry.seq as usize],
                    "seq {}",
                    entry.seq
                );
            }
            // Every range answer covered exactly the batches it names —
            // the racing readers' and one taken now, across every sealed
            // segment and the open one.
            let (full, _) = c.query(0, u64::MAX, SummaryKind::Mg);
            assert!(full.segments_merged > 1 && full.open_included, "{full:?}");
            assert_eq!((full.start_seq, full.end_seq), (1, total));
            metas.push(full);
            for meta in metas.iter().filter(|m| m.segments_merged > 0) {
                let want: u64 = lens[meta.start_seq as usize..=meta.end_seq as usize]
                    .iter()
                    .sum();
                assert_eq!(meta.covered_weight, want, "{meta:?}");
            }

            // A failed group append runs no hook: the cube is untouched.
            // (The log opens its first file lazily, so a log whose
            // directory is gone fails its first append.)
            let _ = std::fs::remove_dir_all(&dir);
            let store = Mutex::new(Store::open(&store_cfg).unwrap().0);
            std::fs::remove_dir_all(dir.join("wal")).unwrap();
            let refused = folding_group(&c, |seq, _, _| panic!("hook ran for seq {seq}"));
            let before = c.report().segments;
            for batch in [vec![1u64; 5], vec![2; 7]] {
                assert!(refused.append(&store, batch.encode()).is_err());
            }
            assert_eq!(c.last_seq(), total);
            assert_eq!(c.report().segments, before);
            let _ = std::fs::remove_dir_all(&dir);
        });
    }

    #[test]
    fn store_work_runs_in_seal_order() {
        use ms_store::{FsyncPolicy, Store, StoreConfig};

        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 200;
        under_watchdog(60, || {
            let dir = std::env::temp_dir().join(format!("ms-cube-order-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let store_cfg = StoreConfig::new(&dir)
                .fsync(FsyncPolicy::Never)
                .cube_segments(true);
            let (mut store, _) = Store::open(&store_cfg).unwrap();
            let files = store.segments.take().unwrap();
            let telemetry = Arc::new(EngineTelemetry::new(1, true, 0));
            let c = Arc::new(
                cube(
                    SegmentConfig::new()
                        .seal_batches(1)
                        .clock(Arc::new(ManualClock::new(0))),
                )
                .with_store(files, telemetry),
            );
            // end_seq of every record, in the order the cube wrote them.
            let stored = Arc::new(Mutex::new(Vec::new()));
            let group = {
                let (cube, stored, seg_dir) =
                    (Arc::clone(&c), Arc::clone(&stored), dir.join("seg"));
                folding_group(&c, move |_, _, out| {
                    for rec in &out.sealed {
                        let file = seg_dir.join(format!("seg-{:016x}.seg", rec.id));
                        assert!(file.exists(), "segment {} is on disk", rec.id);
                    }
                    let mut stored = lock(&stored);
                    stored.extend(out.sealed.iter().map(|r| r.end_seq));
                    assert_eq!(cube.persisted_floor(), *stored.last().unwrap());
                    drop(stored);
                    // Dawdle, so a racing later seal would overtake if it
                    // could.
                    std::thread::yield_now();
                })
            };
            let store = Mutex::new(store);
            std::thread::scope(|scope| {
                for w in 0..WRITERS {
                    let (group, store) = (&group, &store);
                    scope.spawn(move || {
                        for _ in 0..PER_WRITER {
                            group.append(store, vec![w].encode()).unwrap();
                        }
                    });
                }
            });
            let stored = std::mem::take(&mut *lock(&stored));
            assert_eq!(stored, (1..=WRITERS * PER_WRITER).collect::<Vec<_>>());
            let on_disk = ms_store::SegmentStore::open(dir.join("seg"), false)
                .unwrap()
                .load_all()
                .unwrap();
            assert_eq!(on_disk.records.len() as u64, WRITERS * PER_WRITER);
            let _ = std::fs::remove_dir_all(&dir);
        });
    }
}
