//! Runtime-dispatched summary: one enum over the four kinds the engine can
//! maintain, so shards, the compactor, and the wire protocol handle any
//! configured kind uniformly. Four kinds, three counter types: a
//! SpaceSaving summary is held as the Misra-Gries table it is a view of
//! (§3 Lemma 1), so the two kinds share every update, merge and size, and
//! differ only in the variant tag and in how they answer and encode.

use ms_core::{
    ItemSummary, Json, MergeError, Mergeable, Summary, ToJson, Wire, WireError, WireReader,
};
use ms_frequency::{space_saving, MgSummary, SpaceSavingSummary};
use ms_quantiles::{HybridQuantile, RankSummary};
use ms_sketches::CountMinSketch;

use crate::config::{ServiceConfig, SummaryKind};

/// Frame tag of a summary file (`mergeable build` / `merge`): a
/// `WireFrame` whose payload is [`ShardSummary`] bytes — exactly the
/// payload [`crate::Request::Summary`] answers with, so a summary shipped
/// by a server, framed under this tag, is a file the CLI can merge.
pub const SUMMARY_FILE_TAG: u8 = 0x02;

/// Merge lineage of a published summary: how the `ε·n` promise was
/// earned. The paper guarantees the bound under *any* merge tree
/// (PODS'12, Definition 1); the lineage records which tree this summary
/// actually came from — merge operations absorbed, depth of the deepest
/// path, and the total weight `n` the envelope applies to — so the
/// accuracy audit can report "observed error X against an ε·n envelope
/// of Y after M merges at depth D" instead of an unanchored number.
///
/// Lineage lives *beside* the summary (engine snapshots, audit reports),
/// never inside its wire encoding: `ShardSummary` bytes on disk and in
/// the golden corpus stay exactly as they were.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeLineage {
    /// Merge operations folded into this summary since birth.
    pub merges: u64,
    /// Depth of the deepest merge path (0 = never merged).
    pub depth: u64,
    /// Total stream weight `n` the summary covers.
    pub weight: u64,
}

impl MergeLineage {
    /// Lineage of an unmerged summary covering `weight` items.
    pub fn leaf(weight: u64) -> MergeLineage {
        MergeLineage {
            merges: 0,
            depth: 0,
            weight,
        }
    }

    /// Account for merging `other`'s summary into this one: one more
    /// merge op, a tree one level deeper than the deeper input, weights
    /// additive — exactly mirroring the summary merge it describes.
    pub fn absorb(&mut self, other: MergeLineage) {
        self.merges = self.merges + other.merges + 1;
        self.depth = self.depth.max(other.depth) + 1;
        self.weight += other.weight;
    }

    /// The live error envelope: `ε · n` at the lineage's current weight.
    pub fn envelope(&self, epsilon: f64) -> f64 {
        epsilon * self.weight as f64
    }
}

/// A summary of one of the engine's four kinds, over `u64` items.
#[derive(Debug, Clone)]
pub enum ShardSummary {
    /// Misra-Gries heavy hitters.
    Mg(MgSummary<u64>),
    /// SpaceSaving heavy hitters, held as the Misra-Gries summary with one
    /// counter fewer (§3 Lemma 1: SpaceSaving with `k+1` counters is MG
    /// with `k`). Only its answers and its bytes are SpaceSaving's
    /// (`ms_frequency::space_saving`).
    SpaceSaving(MgSummary<u64>),
    /// Hybrid quantile summary.
    HybridQuantile(HybridQuantile<u64>),
    /// Count-Min sketch.
    CountMin(CountMinSketch<u64>),
}

impl ShardSummary {
    /// A fresh, empty summary for `shard` under `cfg`.
    ///
    /// Linear sketches share `cfg.seed` across shards (merging requires the
    /// same hash family); the randomized quantile summary gets a distinct
    /// per-shard seed so shard RNG streams are independent. A SpaceSaving
    /// summary holds `MgSummary::for_epsilon`, one counter below
    /// SpaceSaving's own sizing (Lemma 1), so shards, deltas and every
    /// merge run the one Misra-Gries implementation.
    pub fn new(cfg: &ServiceConfig, shard: usize) -> Self {
        match cfg.kind {
            SummaryKind::Mg => ShardSummary::Mg(MgSummary::for_epsilon(cfg.epsilon)),
            SummaryKind::SpaceSaving => {
                ShardSummary::SpaceSaving(MgSummary::for_epsilon(cfg.epsilon))
            }
            SummaryKind::HybridQuantile => ShardSummary::HybridQuantile(HybridQuantile::new(
                cfg.epsilon,
                cfg.seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )),
            SummaryKind::CountMin => ShardSummary::CountMin(CountMinSketch::for_epsilon_delta(
                cfg.epsilon,
                0.01,
                cfg.seed,
            )),
        }
    }

    /// Which family this summary belongs to.
    pub fn kind(&self) -> SummaryKind {
        match self {
            ShardSummary::Mg(_) => SummaryKind::Mg,
            ShardSummary::SpaceSaving(_) => SummaryKind::SpaceSaving,
            ShardSummary::HybridQuantile(_) => SummaryKind::HybridQuantile,
            ShardSummary::CountMin(_) => SummaryKind::CountMin,
        }
    }

    /// Insert one occurrence of `item`.
    pub fn update(&mut self, item: u64) {
        match self {
            ShardSummary::Mg(s) | ShardSummary::SpaceSaving(s) => s.update(item),
            ShardSummary::HybridQuantile(s) => s.insert(item),
            ShardSummary::CountMin(s) => s.update(item),
        }
    }

    /// Insert a batch of items — the shard absorb on the ingest path.
    ///
    /// Every arm leaves exactly the bytes the per-item path would.
    /// Count-Min routes through its hash-then-update batch kernel (see
    /// `ms_sketches::batch`); the hybrid quantile summary copies slices
    /// into its base buffer for as long as its block sampler draws no
    /// randomness (`HybridQuantile::insert_batch`); Misra-Gries keeps the
    /// per-item loop: each update is one probe of its dense counter table,
    /// and a miss on a full table runs the weighted decrement, so the
    /// updates must apply in order.
    pub fn update_batch(&mut self, items: &[u64]) {
        match self {
            ShardSummary::CountMin(s) => s.update_batch(items),
            ShardSummary::Mg(s) | ShardSummary::SpaceSaving(s) => {
                for &item in items {
                    s.update(item);
                }
            }
            ShardSummary::HybridQuantile(s) => s.insert_batch(items),
        }
    }

    /// Estimated frequency of `item`. `None` for quantile summaries, which
    /// do not answer point queries.
    pub fn point(&self, item: u64) -> Option<u64> {
        match self {
            ShardSummary::Mg(s) => Some(s.estimate(&item)),
            ShardSummary::SpaceSaving(s) => Some(space_saving::estimate(s, &item)),
            ShardSummary::HybridQuantile(_) => None,
            ShardSummary::CountMin(s) => Some(s.estimate(&item)),
        }
    }

    /// Items with estimated frequency ≥ φ·n. `None` for families that
    /// cannot enumerate candidates (Count-Min, quantiles).
    pub fn heavy_hitters(&self, phi: f64) -> Option<Vec<(u64, u64)>> {
        match self {
            ShardSummary::Mg(s) => Some(s.heavy_hitters(phi)),
            ShardSummary::SpaceSaving(s) => Some(space_saving::heavy_hitters(s, phi)),
            ShardSummary::HybridQuantile(_) | ShardSummary::CountMin(_) => None,
        }
    }

    /// Estimated rank of `x` (values strictly below). Quantile summaries
    /// only.
    pub fn rank(&self, x: u64) -> Option<u64> {
        match self {
            ShardSummary::HybridQuantile(s) => Some(s.rank(&x)),
            _ => None,
        }
    }

    /// Estimated φ-quantile. Quantile summaries only; inner `None` means
    /// the summary is empty.
    pub fn quantile(&self, phi: f64) -> Option<Option<u64>> {
        match self {
            ShardSummary::HybridQuantile(s) => Some(s.quantile(phi)),
            _ => None,
        }
    }

    /// In-place merge: fold `other` into `self` without reallocating
    /// `self`'s storage — the compactor's steady-state path. On error
    /// (kind or parameter mismatch) `self` is left untouched.
    pub fn merge_in_place(&mut self, other: ShardSummary) -> ms_core::Result<()> {
        match (self, other) {
            (ShardSummary::Mg(a), ShardSummary::Mg(b))
            | (ShardSummary::SpaceSaving(a), ShardSummary::SpaceSaving(b)) => a.merge_from(b),
            (ShardSummary::HybridQuantile(a), ShardSummary::HybridQuantile(b)) => a.merge_from(b),
            (ShardSummary::CountMin(a), ShardSummary::CountMin(b)) => a.merge_from(b),
            _ => Err(MergeError::Incompatible(
                "cannot merge summaries of different kinds",
            )),
        }
    }

    /// Fold a backlog of deltas into `self` in one pass where the family
    /// allows it. Count-Min is a linear sketch, so the fused multiway
    /// cell-add (`CountMinSketch::merge_many`) is bit-identical to
    /// folding the deltas in sequentially but traverses the destination
    /// table once; every other family falls back to sequential
    /// `merge_in_place` in the given order. Returns one result per delta,
    /// in order — callers account each fold separately.
    pub fn merge_in_place_many(&mut self, others: Vec<ShardSummary>) -> Vec<ms_core::Result<()>> {
        if let ShardSummary::CountMin(dst) = self {
            let mut sources = Vec::with_capacity(others.len());
            let mut results = Vec::with_capacity(others.len());
            for other in &others {
                match other {
                    ShardSummary::CountMin(cm) => {
                        sources.push(cm);
                        results.push(Ok(()));
                    }
                    _ => results.push(Err(MergeError::Incompatible(
                        "cannot merge summaries of different kinds",
                    ))),
                }
            }
            match dst.merge_many(&sources) {
                Ok(()) => return results,
                Err(_) => {
                    // A shape/seed mismatch in the batch: fall through to
                    // the sequential path so only the offending deltas
                    // fail, exactly as they would have one at a time.
                }
            }
        }
        others
            .into_iter()
            .map(|other| self.merge_in_place(other))
            .collect()
    }
}

impl Summary for ShardSummary {
    fn total_weight(&self) -> u64 {
        match self {
            ShardSummary::Mg(s) | ShardSummary::SpaceSaving(s) => s.total_weight(),
            ShardSummary::HybridQuantile(s) => s.count(),
            ShardSummary::CountMin(s) => s.total_weight(),
        }
    }

    fn size(&self) -> usize {
        match self {
            ShardSummary::Mg(s) | ShardSummary::SpaceSaving(s) => s.size(),
            ShardSummary::HybridQuantile(s) => s.size(),
            ShardSummary::CountMin(s) => s.size(),
        }
    }
}

impl Mergeable for ShardSummary {
    fn merge(mut self, other: Self) -> ms_core::Result<Self> {
        self.merge_in_place(other)?;
        Ok(self)
    }
}

impl Wire for ShardSummary {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.kind().encode_into(out);
        match self {
            ShardSummary::Mg(s) => s.encode_into(out),
            ShardSummary::SpaceSaving(s) => space_saving::encode_merged(s, out),
            ShardSummary::HybridQuantile(s) => s.encode_into(out),
            ShardSummary::CountMin(s) => s.encode_into(out),
        }
    }

    fn decode_from(r: &mut WireReader<'_>) -> std::result::Result<Self, WireError> {
        Ok(match SummaryKind::decode_from(r)? {
            SummaryKind::Mg => ShardSummary::Mg(MgSummary::decode_from(r)?),
            SummaryKind::SpaceSaving => {
                ShardSummary::SpaceSaving(SpaceSavingSummary::decode_from(r)?.into_mg())
            }
            SummaryKind::HybridQuantile => {
                ShardSummary::HybridQuantile(HybridQuantile::decode_from(r)?)
            }
            SummaryKind::CountMin => ShardSummary::CountMin(CountMinSketch::decode_from(r)?),
        })
    }
}

impl ToJson for ShardSummary {
    fn to_json(&self) -> Json {
        let inner = match self {
            ShardSummary::Mg(s) | ShardSummary::SpaceSaving(s) => s.to_json(),
            ShardSummary::HybridQuantile(s) => s.to_json(),
            ShardSummary::CountMin(s) => s.to_json(),
        };
        Json::obj([
            ("kind", Json::Str(self.kind().label().to_string())),
            ("summary", inner),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(kind: SummaryKind) -> ShardSummary {
        let cfg = ServiceConfig::new(kind, 0.05);
        let mut s = ShardSummary::new(&cfg, 0);
        // Skewed so heavy-hitter summaries retain counters (a uniform
        // stream below n/(k+1) per item may legitimately empty MG).
        for i in 0..500u64 {
            s.update(i % 7);
        }
        s
    }

    #[test]
    fn lineage_mirrors_the_merge_tree() {
        // A left-deep fold of four leaves: 3 merges, depth 3, weights add.
        let mut acc = MergeLineage::leaf(100);
        for _ in 0..3 {
            acc.absorb(MergeLineage::leaf(100));
        }
        assert_eq!(acc.merges, 3);
        assert_eq!(acc.depth, 3);
        assert_eq!(acc.weight, 400);

        // A balanced tree of the same four leaves: same merges and
        // weight (the bound only depends on those), shallower depth.
        let mut left = MergeLineage::leaf(100);
        left.absorb(MergeLineage::leaf(100));
        let mut right = MergeLineage::leaf(100);
        right.absorb(MergeLineage::leaf(100));
        let mut balanced = left;
        balanced.absorb(right);
        assert_eq!(balanced.merges, 3);
        assert_eq!(balanced.depth, 2);
        assert_eq!(balanced.weight, 400);

        assert_eq!(balanced.envelope(0.01), 4.0);
        assert_eq!(MergeLineage::default().envelope(0.5), 0.0);
    }

    #[test]
    fn update_and_weight_for_every_kind() {
        for kind in SummaryKind::all() {
            let s = filled(kind);
            assert_eq!(s.kind(), kind);
            assert_eq!(s.total_weight(), 500);
            assert!(s.size() > 0);
        }
    }

    #[test]
    fn queries_dispatch_by_family() {
        let mg = filled(SummaryKind::Mg);
        assert!(mg.point(0).is_some());
        assert!(mg.heavy_hitters(0.01).is_some());
        assert!(mg.rank(10).is_none());
        assert!(mg.quantile(0.5).is_none());

        let hq = filled(SummaryKind::HybridQuantile);
        assert!(hq.point(0).is_none());
        assert!(hq.heavy_hitters(0.01).is_none());
        assert!(hq.rank(10).is_some());
        assert!(hq.quantile(0.5).unwrap().is_some());

        let cm = filled(SummaryKind::CountMin);
        assert!(cm.point(0).is_some());
        assert!(cm.heavy_hitters(0.01).is_none());
    }

    #[test]
    fn merge_same_kind_adds_weight() {
        for kind in SummaryKind::all() {
            let merged = filled(kind).merge(filled(kind)).unwrap();
            assert_eq!(merged.total_weight(), 1000, "{}", kind.label());
        }
    }

    #[test]
    fn merge_in_place_adds_weight_and_survives_mismatch() {
        for kind in SummaryKind::all() {
            let mut acc = filled(kind);
            acc.merge_in_place(filled(kind)).unwrap();
            assert_eq!(acc.total_weight(), 1000, "{}", kind.label());
        }
        // MG and SpaceSaving share a table type but never merge.
        for (a, b) in MISMATCHED {
            let mut acc = filled(a);
            let before = acc.encode();
            let err = acc.merge_in_place(filled(b)).unwrap_err();
            assert!(matches!(err, MergeError::Incompatible(_)));
            assert_eq!(acc.total_weight(), 500, "self untouched on mismatch");
            assert_eq!(acc.encode(), before, "{} into {}", b.label(), a.label());
        }
    }

    const MISMATCHED: [(SummaryKind, SummaryKind); 3] = [
        (SummaryKind::Mg, SummaryKind::CountMin),
        (SummaryKind::Mg, SummaryKind::SpaceSaving),
        (SummaryKind::SpaceSaving, SummaryKind::Mg),
    ];

    #[test]
    fn merge_kind_mismatch_errors() {
        for (a, b) in MISMATCHED {
            let err = filled(a).merge(filled(b)).unwrap_err();
            assert!(matches!(err, MergeError::Incompatible(_)));
        }
    }

    #[test]
    fn wire_roundtrip_every_kind() {
        for kind in SummaryKind::all() {
            let s = filled(kind);
            let back = ShardSummary::decode(&s.encode()).unwrap();
            assert_eq!(back.kind(), kind);
            assert_eq!(back.total_weight(), s.total_weight());
            assert_eq!(back.size(), s.size(), "{}", kind.label());
            // Losslessness: every query answers identically after a trip
            // through the codec.
            for item in 0..10 {
                assert_eq!(back.point(item), s.point(item), "{}", kind.label());
                assert_eq!(back.rank(item), s.rank(item), "{}", kind.label());
            }
            assert_eq!(
                back.heavy_hitters(0.05).map(|mut h| {
                    h.sort_unstable();
                    h
                }),
                s.heavy_hitters(0.05).map(|mut h| {
                    h.sort_unstable();
                    h
                })
            );
            assert_eq!(back.quantile(0.5), s.quantile(0.5));
        }
    }
}
