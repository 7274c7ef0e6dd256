//! Differential pinning of the batched CPU kernels (tier-1).
//!
//! The scalar kernels are the semantic source of truth; every dispatched
//! (AVX2/AVX-512) variant must be bit-identical to them. These tests prove
//! it end-to-end over the three pinned seeds, all four summary families,
//! and merge-order permutations, comparing wire encodings byte-for-byte.
//!
//! The suite runs in tier-1 regardless of host ISA: on a scalar-only host
//! (or under `MS_FORCE_SCALAR=1`) the dispatched path *is* the scalar
//! path and the comparisons pin the batch-vs-per-item split instead. CI
//! runs it twice — once per dispatch mode — via the kernels-smoke job.
//!
//! Misra-Gries has no vector path; its oracle is the `FxHashMap` table
//! its dense counter table replaced, which must hold the same counters.

use mergeable_summaries::core::simd::{self, Isa};
use mergeable_summaries::core::{FxHashMap, ItemSummary, Rng64, Summary, Wire};
use mergeable_summaries::frequency::MgSummary;
use mergeable_summaries::quantiles::{HybridQuantile, RankSummary};
use mergeable_summaries::service::{
    ManualClock, SegmentConfig, SegmentCube, ServiceConfig, ShardSummary, SummaryKind,
};
use mergeable_summaries::sketches::CountMinSketch;
use mergeable_summaries::workloads::StreamKind;

const SEEDS: [u64; 3] = [0xF417_5EED, 0xB0B5_CAFE, 0x2026_0806];

fn stream(seed: u64, items: usize) -> Vec<u64> {
    StreamKind::Zipf {
        s: 1.2,
        universe: 10_000,
    }
    .generate(items, seed)
}

fn families() -> [SummaryKind; 4] {
    SummaryKind::all()
}

/// Build one delta per chunk with the engine's own batch path.
fn deltas(kind: SummaryKind, seed: u64, chunks: usize) -> Vec<ShardSummary> {
    let cfg = ServiceConfig::new(kind, 0.02).seed(seed);
    let items = stream(seed, chunks * 3_000);
    items
        .chunks(3_000)
        .enumerate()
        .map(|(shard, chunk)| {
            let mut s = ShardSummary::new(&cfg, shard % 4);
            s.update_batch(chunk);
            s
        })
        .collect()
}

fn encoded(s: &ShardSummary) -> Vec<u8> {
    s.encode()
}

/// Every permutation of `n` indices (n! is small here: n = 4).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    for perm in permutations(n - 1) {
        for slot in 0..n {
            let mut next = perm.clone();
            next.insert(slot, n - 1);
            out.push(next);
        }
    }
    out
}

#[test]
fn count_min_batch_updates_scalar_vs_dispatched_bit_identical() {
    for &seed in &SEEDS {
        let items = stream(seed, 12_345);
        let mut scalar = CountMinSketch::<u64>::for_epsilon_delta(0.01, 0.01, seed);
        let mut dispatched = scalar.clone();
        scalar.update_batch_with(Isa::Scalar, &items);
        dispatched.update_batch_with(simd::active_isa(), &items);
        assert_eq!(
            scalar.encode(),
            dispatched.encode(),
            "seed {seed:#x}: dispatched CM update diverged from scalar"
        );
    }
}

#[test]
fn count_min_batch_updates_match_per_item_reference() {
    for &seed in &SEEDS {
        let items = stream(seed, 7_001);
        let mut per_item = CountMinSketch::<u64>::for_epsilon_delta(0.01, 0.01, seed);
        per_item.extend_from(items.iter().copied());
        let mut batched = CountMinSketch::<u64>::for_epsilon_delta(0.01, 0.01, seed);
        batched.update_batch(&items);
        assert_eq!(per_item.encode(), batched.encode(), "seed {seed:#x}");
    }
}

#[test]
fn all_families_batch_update_matches_sequential_updates() {
    for &seed in &SEEDS {
        for kind in families() {
            let cfg = ServiceConfig::new(kind, 0.02).seed(seed);
            let items = stream(seed, 5_000);
            let mut sequential = ShardSummary::new(&cfg, 0);
            for &item in &items {
                sequential.update(item);
            }
            let mut batched = ShardSummary::new(&cfg, 0);
            batched.update_batch(&items);
            assert_eq!(
                encoded(&sequential),
                encoded(&batched),
                "seed {seed:#x} kind {kind:?}: batch update diverged"
            );
        }
    }
}

/// At ε = 0.02 the 5,000-item streams above never leave the hybrid
/// summary's base weight 1, where `insert_batch` is a slice copy. ε = 0.1
/// (m = 93, L = 6) doubles the weight after ≈ 6 K items, so these odd-sized
/// batches also start on a pending partial block and cross flushes with
/// the block sampler drawing from the RNG.
#[test]
fn hybrid_batch_update_matches_sequential_updates_past_a_weight_doubling() {
    for &seed in &SEEDS {
        let cfg = ServiceConfig::new(SummaryKind::HybridQuantile, 0.1).seed(seed);
        let mut sequential = ShardSummary::new(&cfg, 0);
        let mut batched = ShardSummary::new(&cfg, 0);
        for (i, batch) in stream(seed, 30_000).chunks(257).enumerate() {
            for &item in batch {
                sequential.update(item);
            }
            batched.update_batch(batch);
            assert_eq!(
                encoded(&sequential),
                encoded(&batched),
                "seed {seed:#x} batch {i}: batch update diverged"
            );
        }
        let ShardSummary::HybridQuantile(q) = &batched else {
            panic!("hybrid config built {:?}", batched.kind());
        };
        assert!(q.base_weight() >= 4, "w = {}", q.base_weight());
    }
}

/// The segment cube folds each batch family-major through
/// `update_batch`; a per-item fold of the same batches must leave
/// byte-identical MG and quantile slots in every sealed record.
#[test]
fn cube_batched_fold_matches_per_item_reference_in_every_record() {
    const EPS: f64 = 0.02;
    // (slot in the record, family streamed into it)
    let streamed = [(0, SummaryKind::Mg), (1, SummaryKind::HybridQuantile)];
    for &seed in &SEEDS {
        let items = stream(seed, 20 * 257);
        let cube = SegmentCube::new(
            EPS,
            seed,
            SegmentConfig::new()
                .seal_batches(5)
                .clock(std::sync::Arc::new(ManualClock::new(0))),
        );
        let fresh = || {
            streamed
                .map(|(_, kind)| ShardSummary::new(&ServiceConfig::new(kind, EPS).seed(seed), 0))
        };
        let mut per_item = fresh();
        let mut records = 0;
        for batch in items.chunks(257) {
            for &item in batch {
                for fam in per_item.iter_mut() {
                    fam.update(item);
                }
            }
            let out = cube.record(batch);
            for rec in out.sealed {
                assert_eq!(rec.summaries.len(), streamed.len());
                for ((slot, kind), reference) in streamed.iter().zip(&per_item) {
                    assert_eq!(
                        rec.summaries[*slot],
                        encoded(reference),
                        "seed {seed:#x} segment {} {kind:?}: batched fold diverged",
                        rec.id
                    );
                }
                per_item = fresh();
                records += 1;
            }
        }
        assert_eq!(records, 4, "20 batches at 5 per segment");
    }
}

#[test]
fn all_families_fused_merge_matches_sequential_folds_under_every_order() {
    for &seed in &SEEDS {
        for kind in families() {
            let parts = deltas(kind, seed, 4);
            for perm in permutations(parts.len()) {
                let cfg = ServiceConfig::new(kind, 0.02).seed(seed);
                let ordered: Vec<ShardSummary> = perm.iter().map(|&i| parts[i].clone()).collect();
                let mut sequential = ShardSummary::new(&cfg, usize::MAX);
                for d in ordered.clone() {
                    sequential.merge_in_place(d).unwrap();
                }
                let mut fused = ShardSummary::new(&cfg, usize::MAX);
                for r in fused.merge_in_place_many(ordered) {
                    r.unwrap();
                }
                assert_eq!(
                    encoded(&sequential),
                    encoded(&fused),
                    "seed {seed:#x} kind {kind:?} perm {perm:?}: fused merge diverged"
                );
            }
        }
    }
}

#[test]
fn count_min_merges_are_order_independent_bit_for_bit() {
    // Linearity (PODS'12 §5): a linear sketch's merge is cell-wise
    // addition, so every merge order — and the fused multiway kernel —
    // must land on the identical table.
    for &seed in &SEEDS {
        let parts = deltas(SummaryKind::CountMin, seed, 4);
        let cfg = ServiceConfig::new(SummaryKind::CountMin, 0.02).seed(seed);
        let mut reference: Option<Vec<u8>> = None;
        for perm in permutations(parts.len()) {
            let mut global = ShardSummary::new(&cfg, usize::MAX);
            for &i in &perm {
                global.merge_in_place(parts[i].clone()).unwrap();
            }
            let bytes = encoded(&global);
            match &reference {
                None => reference = Some(bytes),
                Some(want) => assert_eq!(
                    want, &bytes,
                    "seed {seed:#x} perm {perm:?}: merge order changed a linear sketch"
                ),
            }
        }
    }
}

#[test]
fn slice_kernels_scalar_vs_dispatched_bit_identical() {
    use mergeable_summaries::core::Rng64;
    for isa in simd::supported_isas()
        .into_iter()
        .chain([simd::active_isa()])
    {
        for &seed in &SEEDS {
            let mut rng = Rng64::new(seed);
            let vals: Vec<u64> = (0..515).map(|_| rng.next_u64()).collect();
            let src: Vec<u64> = (0..515).map(|_| rng.next_u64() >> 1).collect();

            let mut a = vals.clone();
            let mut b = vals.clone();
            simd::add_slices_scalar(&mut a, &src);
            simd::add_slices_with(isa, &mut b, &src);
            assert_eq!(a, b, "seed {seed:#x} add_slices {isa:?}");

            let srcs = [&src[..], &vals[..]];
            let mut a = vals.clone();
            let mut b = vals.clone();
            simd::add_slices_multi_scalar(&mut a, &srcs);
            simd::add_slices_multi_with(isa, &mut b, &srcs);
            assert_eq!(a, b, "seed {seed:#x} add_slices_multi {isa:?}");
        }
    }
}

/// The `FxHashMap` Misra-Gries that `MgSummary`'s dense counter table
/// replaced, kept as the oracle for its counters: the same update,
/// weighted decrement and Theorem 1 prune, over a hash map.
struct MapMg {
    k: usize,
    counters: FxHashMap<u64, u64>,
    n: u64,
}

impl MapMg {
    fn new(k: usize) -> Self {
        MapMg {
            k,
            counters: FxHashMap::default(),
            n: 0,
        }
    }

    fn update(&mut self, item: u64, weight: u64) {
        self.n += weight;
        *self.counters.entry(item).or_insert(0) += weight;
        if self.counters.len() > self.k {
            let d = *self.counters.values().min().expect("non-empty");
            self.counters.retain(|_, c| {
                *c -= d;
                *c > 0
            });
        }
    }

    fn merge_from(&mut self, other: MapMg) {
        self.n += other.n;
        for (item, c) in other.counters {
            *self.counters.entry(item).or_insert(0) += c;
        }
        if self.counters.len() > self.k {
            let mut values: Vec<u64> = self.counters.values().copied().collect();
            values.sort_unstable_by(|a, b| b.cmp(a));
            let s = values[self.k];
            self.counters.retain(|_, c| {
                if *c > s {
                    *c -= s;
                    true
                } else {
                    false
                }
            });
        }
    }

    fn sorted(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.counters.iter().map(|(&i, &c)| (i, c)).collect();
        v.sort_unstable();
        v
    }
}

fn sorted(mg: &MgSummary<u64>) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = mg.iter().map(|(&i, c)| (i, c)).collect();
    v.sort_unstable();
    v
}

/// `(item, weight)` updates of one oracle input: the ledger's Zipf
/// stream, a uniform one, an all-distinct one, and weighted Zipf updates.
fn mg_inputs(seed: u64) -> [Vec<(u64, u64)>; 4] {
    const ITEMS: usize = 12_000;
    let zipf = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 20,
    }
    .generate(ITEMS, seed);
    let unit = |items: Vec<u64>| items.into_iter().map(|i| (i, 1)).collect();
    let mut rng = Rng64::new(seed);
    let weighted = zipf.iter().map(|&i| (i, 1 + rng.next_u64() % 64)).collect();
    [
        unit(zipf),
        unit(StreamKind::Uniform { universe: 3_000 }.generate(ITEMS, seed)),
        unit((0..ITEMS as u64).map(|i| i ^ seed).collect()),
        weighted,
    ]
}

/// The dense table holds exactly the map's counters: on every input, at
/// every k, after every batch — whether the batch was streamed into the
/// running summary, streamed into a decoded copy of it, or built apart
/// and folded in with `merge_from`. Only the order of the counters may
/// differ.
#[test]
fn mg_table_holds_the_counters_of_the_map_it_replaced() {
    const BATCH: usize = 1_000;
    for &seed in &SEEDS {
        for (input, updates) in mg_inputs(seed).iter().enumerate() {
            for k in [1, 9, 99, 999] {
                let (mut mg, mut map) = (MgSummary::new(k), MapMg::new(k));
                for (b, batch) in updates.chunks(BATCH).enumerate() {
                    if b % 3 == 2 {
                        // Build the batch apart, then merge it in.
                        let (mut mg_part, mut map_part) = (MgSummary::new(k), MapMg::new(k));
                        for &(item, w) in batch {
                            mg_part.update_weighted(item, w);
                            map_part.update(item, w);
                        }
                        assert_eq!(sorted(&mg_part), map_part.sorted());
                        mg.merge_from(mg_part).unwrap();
                        map.merge_from(map_part);
                    } else {
                        if b % 3 == 1 {
                            // Stream on into a decoded copy, which holds no
                            // index until its first update builds one.
                            mg = MgSummary::decode(&mg.encode()).unwrap();
                        }
                        for &(item, w) in batch {
                            mg.update_weighted(item, w);
                            map.update(item, w);
                        }
                    }
                    let at = format!("seed {seed:#x} input {input} k {k} batch {b}");
                    assert_eq!(mg.total_weight(), map.n, "{at}");
                    assert_eq!(sorted(&mg), map.sorted(), "{at}");
                }
            }
        }
    }
}

/// FNV-1a over an encoding: a digest that pins bytes across commits.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// `segments` hybrid summaries of 32 Ki items each (the ledger's Zipf
/// stream, the cube's ε = 0.01 geometry, the `read-write` segment size)
/// folded left-deep: the first one, then `merge_from` each of the rest in
/// order. It pins the merge kernel's bytes; `SegmentCube::query` folds a
/// covering run in its own order, pinned by
/// `cube_range_folds_reproduce_their_pinned_bytes`. With `rest`, each
/// part is first packed and unpacked, as a sealed segment rests.
fn segment_fold(segments: usize, rest: bool) -> HybridQuantile<u64> {
    const SEGMENT_ITEMS: usize = 32_768;
    let items = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 20,
    }
    .generate(segments * SEGMENT_ITEMS, 0x5E6_0001);
    let mut parts = items.chunks(SEGMENT_ITEMS).enumerate().map(|(i, chunk)| {
        let mut q = HybridQuantile::new(0.01, 100 + i as u64);
        q.insert_batch(chunk);
        if rest {
            q.pack().unpack()
        } else {
            q
        }
    });
    let mut acc = parts.next().expect("at least one segment");
    for part in parts {
        acc.merge_from(part).expect("same geometry");
    }
    acc
}

/// A range read's fold, pinned to its encoded bytes on whichever merge
/// kernel the host dispatches to (CI also runs this file under
/// `MS_FORCE_SCALAR=1`). The 8-segment digest predates the vector merge
/// kernel and stays at base weight 1; the 64-segment fold doubles the
/// base weight three times and is pinned with every representative
/// stored at its own weight — its stored weight is exactly `n`. Folding
/// parts that went through the packed resting form gives the same bytes.
#[test]
fn segment_folds_reproduce_their_pinned_bytes() {
    for ((segments, len, want, w), rest) in [
        (8usize, 6_961usize, 0x2A9F_6A32_F580_E23Cu64, 1u64),
        (64, 6_991, 0x00D2_36A0_9A22_4D8E, 8),
    ]
    .into_iter()
    .flat_map(|pin| [(pin, false), (pin, true)])
    {
        let folded = segment_fold(segments, rest);
        let bytes = folded.encode();
        assert_eq!(
            (bytes.len(), digest(&bytes)),
            (len, want),
            "{segments} segments on {:?}, packed at rest: {rest}",
            simd::active_isa()
        );
        assert_eq!(folded.base_weight(), w, "{segments} segments");
        // Every stream value is below 2^20, so this is the stored weight.
        assert_eq!(
            folded.rank(&u64::MAX),
            folded.count(),
            "{segments} segments"
        );
    }
}

/// The cube's quantile range reads over 64 sealed `read-write`-shaped
/// segments (256 batches of 128 items of the ledger's Zipf stream,
/// ε = 0.01, one clock micro per batch), pinned as (length, digest) of
/// the reply's summary: segments 0–7 and 0–63 (one aligned block each,
/// the balanced tree of its halves) and 3–10 (blocks [3], [4, 7], [8, 9],
/// [10], left to right). Each is read twice: cold, then through what the
/// memo kept.
#[test]
fn cube_range_folds_reproduce_their_pinned_bytes() {
    const SEGMENTS: usize = 64;
    let items = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 20,
    }
    .generate(SEGMENTS * 32_768, 0x5E6_0001);
    let clock = std::sync::Arc::new(ManualClock::new(0));
    let cfg = SegmentConfig::new().seal_batches(256).clock(clock.clone());
    let cube = SegmentCube::new(0.01, 7, cfg);
    for (seq, batch) in (1..).zip(items.chunks(128)) {
        clock.advance(1);
        cube.record_at(seq, batch);
    }
    let span = |first: u64, last: u64| (256 * first + 1, 256 * (last + 1));
    for ((first, last), len, want) in [
        ((0, 7), 6_938usize, 0x774C_66CD_0E18_0FC6u64),
        ((3, 10), 6_967, 0xD64E_60F1_7C9E_8C1C),
        ((0, 63), 6_936, 0x4B45_CAE1_38E4_1C6B),
    ] {
        let (start, end) = span(first, last);
        for read in ["cold", "again"] {
            let (meta, answer) = cube.query(start, end, SummaryKind::HybridQuantile);
            assert_eq!(meta.segments_merged as u64, last - first + 1);
            assert!(!meta.open_included);
            let bytes = answer.expect("a covered window").encode();
            assert_eq!(
                (bytes.len(), digest(&bytes)),
                (len, want),
                "segments {first}-{last}, {read}, on {:?}",
                simd::active_isa()
            );
        }
    }
}

#[test]
fn force_scalar_knob_reports_scalar() {
    // The knob is read once per process; this asserts the contract rather
    // than the toggle (CI's kernels-smoke job runs the whole suite under
    // MS_FORCE_SCALAR=1 to exercise the other mode).
    if simd::force_scalar() {
        assert_eq!(simd::active_isa(), Isa::Scalar);
    }
}
