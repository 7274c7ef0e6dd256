//! Property-based tests of the paper's invariants, driven by seeded
//! random-case generation (`ms_core::Rng64`, so every run is
//! reproducible bit-for-bit).
//!
//! Each property quantifies over streams, parameters, partitions and merge
//! orders; the invariants must hold for *every* generated instance, not in
//! expectation. Every test draws `CASES` independent instances from its
//! own seed stream.

use mergeable_summaries::core::{
    merge_all, FrequencyOracle, ItemSummary, MergeTree, Mergeable, RankOracle, Rng64, Summary,
};
use mergeable_summaries::frequency::isomorphism::check_isomorphism;
use mergeable_summaries::lowerror::{
    merge_frequent_baseline, merge_frequent_low_error, merge_space_saving_baseline,
    merge_space_saving_low_error, replay_frequent, replay_space_saving, SortedSummary,
};
use mergeable_summaries::quantiles::RankSummary;
use mergeable_summaries::workloads::ValueDist;
use mergeable_summaries::{
    BottomKSample, CountMinSketch, KnownNQuantile, MgSummary, SpaceSavingSummary,
};

const CASES: u64 = 64;

/// Small-universe streams make collisions (the hard case) likely.
fn stream(rng: &mut Rng64) -> Vec<u64> {
    let len = 1 + rng.below_usize(1_999);
    (0..len).map(|_| rng.below(64)).collect()
}

fn tree(rng: &mut Rng64) -> MergeTree {
    match rng.below(4) {
        0 => MergeTree::Chain,
        1 => MergeTree::Balanced,
        2 => MergeTree::Random {
            seed: rng.next_u64(),
        },
        _ => MergeTree::TwoLevel {
            fan: 1 + rng.below_usize(5),
        },
    }
}

/// MG invariant: `est ≤ truth` and `(truth − est)·(k+1) ≤ n − n̂`, for
/// every item, any stream, any capacity, any partition, any tree.
#[test]
fn mg_bound_holds_under_any_merge() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA100 + case);
        let items = stream(&mut rng);
        let k = 1 + rng.below_usize(19);
        let sites = 1 + rng.below_usize(7);
        let shape = tree(&mut rng);
        let oracle = FrequencyOracle::from_stream(items.iter().copied());
        let leaves: Vec<MgSummary<u64>> = items
            .chunks(items.len().div_ceil(sites).max(1))
            .map(|chunk| {
                let mut s = MgSummary::new(k);
                s.extend_from(chunk.iter().copied());
                s
            })
            .collect();
        let merged = merge_all(leaves, shape).unwrap();
        assert_eq!(merged.total_weight(), oracle.total(), "case {case}");
        assert!(merged.size() <= k, "case {case}");
        let err_num = merged.error_numerator();
        for (item, truth) in oracle.iter() {
            let est = merged.estimate(item);
            assert!(est <= truth, "case {case}: item {item}");
            assert!(
                (truth - est) * (k as u64 + 1) <= err_num,
                "case {case}: item {item}"
            );
        }
    }
}

/// SS bracket: `lower ≤ truth ≤ upper` for every item, and the radius
/// stays within ⌈n/k⌉.
#[test]
fn ss_bracket_holds_under_any_merge() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA200 + case);
        let items = stream(&mut rng);
        let k = 2 + rng.below_usize(18);
        let sites = 1 + rng.below_usize(7);
        let shape = tree(&mut rng);
        let oracle = FrequencyOracle::from_stream(items.iter().copied());
        let leaves: Vec<SpaceSavingSummary<u64>> = items
            .chunks(items.len().div_ceil(sites).max(1))
            .map(|chunk| {
                let mut s = SpaceSavingSummary::new(k);
                s.extend_from(chunk.iter().copied());
                s
            })
            .collect();
        let merged = merge_all(leaves, shape).unwrap();
        assert!(
            merged.error_bound() <= oracle.total().div_ceil(k as u64),
            "case {case}"
        );
        for (item, truth) in oracle.iter() {
            assert!(
                merged.lower_bound(item) <= truth,
                "case {case}: item {item}"
            );
            assert!(
                merged.upper_bound(item) >= truth,
                "case {case}: item {item}"
            );
        }
    }
}

/// Lemma 1 (isomorphism): MG(k) and SS(k+1) correspond on any stream.
#[test]
fn isomorphism_on_any_stream() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA300 + case);
        let items = stream(&mut rng);
        let k = 1 + rng.below_usize(15);
        let mut mg = MgSummary::new(k);
        let mut ss = SpaceSavingSummary::new(k + 1);
        for &item in &items {
            mg.update(item);
            ss.update(item);
        }
        assert!(check_isomorphism(&mg, &ss).is_ok(), "case {case}");
    }
}

/// Merging is "associative within the bound": the (n, n̂) error budget
/// of an MG merge is the same no matter the association order.
#[test]
fn mg_merge_weight_is_association_invariant() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA400 + case);
        let items = stream(&mut rng);
        let k = 1 + rng.below_usize(11);
        let third = (items.len() / 3).max(1);
        let mk = |slice: &[u64]| {
            let mut s = MgSummary::new(k);
            s.extend_from(slice.iter().copied());
            s
        };
        let (a1, b1, c1) = (
            mk(&items[..third.min(items.len())]),
            mk(&items[third.min(items.len())..(2 * third).min(items.len())]),
            mk(&items[(2 * third).min(items.len())..]),
        );
        let left = a1.merge(b1).unwrap().merge(c1).unwrap();
        let (a2, b2, c2) = (
            mk(&items[..third.min(items.len())]),
            mk(&items[third.min(items.len())..(2 * third).min(items.len())]),
            mk(&items[(2 * third).min(items.len())..]),
        );
        let right = a2.merge(b2.merge(c2).unwrap()).unwrap();
        assert_eq!(left.total_weight(), right.total_weight(), "case {case}");
        // Both satisfy the invariant; their budgets may differ, but both
        // must fit under n/(k+1).
        assert!(left.error_numerator() <= left.total_weight(), "case {case}");
        assert!(
            right.error_numerator() <= right.total_weight(),
            "case {case}"
        );
    }
}

/// Count-Min linearity: the sketch of a concatenation equals the merge
/// of the sketches, cell for cell (checked via estimates).
#[test]
fn count_min_linearity() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA500 + case);
        let a: Vec<u64> = (0..rng.below_usize(500)).map(|_| rng.below(128)).collect();
        let b: Vec<u64> = (0..rng.below_usize(500)).map(|_| rng.below(128)).collect();
        let seed = rng.next_u64();
        let mut whole = CountMinSketch::new(32, 3, seed);
        whole.extend_from(a.iter().copied().chain(b.iter().copied()));
        let mut sa = CountMinSketch::new(32, 3, seed);
        sa.extend_from(a.iter().copied());
        let mut sb = CountMinSketch::new(32, 3, seed);
        sb.extend_from(b.iter().copied());
        let merged = sa.merge(sb).unwrap();
        for probe in 0u64..128 {
            assert_eq!(
                merged.estimate(&probe),
                whole.estimate(&probe),
                "case {case}: probe {probe}"
            );
        }
    }
}

/// Count-Min never underestimates, under any merge.
#[test]
fn count_min_overestimates() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA600 + case);
        let items = stream(&mut rng);
        let seed = rng.next_u64();
        let sites = 1 + rng.below_usize(5);
        let oracle = FrequencyOracle::from_stream(items.iter().copied());
        let leaves: Vec<CountMinSketch<u64>> = items
            .chunks(items.len().div_ceil(sites).max(1))
            .map(|chunk| {
                let mut s = CountMinSketch::new(16, 2, seed);
                s.extend_from(chunk.iter().copied());
                s
            })
            .collect();
        let merged = merge_all(leaves, MergeTree::Chain).unwrap();
        for (item, truth) in oracle.iter() {
            assert!(merged.estimate(item) >= truth, "case {case}: item {item}");
        }
    }
}

/// Extension crate: the closed-form low-error merges equal a literal
/// replay of Frequent / SpaceSaving, and never exceed the baseline's
/// total error (Lemmas 4.3 and 4.6 of the extension paper).
#[test]
fn low_error_merges_exact_and_dominant() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA700 + case);
        let k = 3 + rng.below_usize(13);
        let counts_a: Vec<u64> = (0..rng.below_usize(12))
            .map(|_| 1 + rng.below(499))
            .collect();
        let counts_b: Vec<u64> = (0..rng.below_usize(12))
            .map(|_| 1 + rng.below(499))
            .collect();
        let a = SortedSummary::new(
            counts_a
                .iter()
                .take(k - 1)
                .enumerate()
                .map(|(i, &c)| (i as u64, c))
                .collect(),
        );
        let b = SortedSummary::new(
            counts_b
                .iter()
                .take(k - 1)
                .enumerate()
                .map(|(i, &c)| (100 + i as u64, c))
                .collect(),
        );
        // Frequent.
        let low = merge_frequent_low_error(&a, &b, k);
        let base = merge_frequent_baseline(&a, &b, k);
        assert_eq!(&low.summary, &replay_frequent(&a, &b, k), "case {case}");
        assert!(low.total_error <= base.total_error, "case {case}");
        // SpaceSaving (same inputs are valid: ≤ k−1 ≤ k counters).
        let low_ss = merge_space_saving_low_error(&a, &b, k);
        let base_ss = merge_space_saving_baseline(&a, &b, k);
        assert_eq!(
            &low_ss.summary,
            &replay_space_saving(&a, &b, k),
            "case {case}"
        );
        assert!(low_ss.total_error <= base_ss.total_error, "case {case}");
    }
}

/// Bottom-k sampling: merge equals the bottom-k of the union (checked
/// through the size and count bookkeeping), and rank estimates of the
/// full-retention regime are exact.
#[test]
fn bottom_k_merge_bookkeeping() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA800 + case);
        let a_len = rng.below_usize(200);
        let b_len = rng.below_usize(200);
        let k = 1 + rng.below_usize(63);
        let mut sa = BottomKSample::new(k, 1);
        for i in 0..a_len as u64 {
            sa.insert(i);
        }
        let mut sb = BottomKSample::new(k, 2);
        for i in 0..b_len as u64 {
            sb.insert(1_000 + i);
        }
        let merged = sa.merge(sb).unwrap();
        assert_eq!(merged.count(), (a_len + b_len) as u64, "case {case}");
        assert!(merged.size() <= k, "case {case}");
        assert_eq!(merged.size(), k.min(a_len + b_len), "case {case}");
    }
}

/// Known-n quantile summary: rank estimates stay within εn on uniform
/// random streams for a fixed generous ε (a smoke-level statistical
/// property kept deterministic by seeding).
#[test]
fn known_n_rank_error_bounded() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA900 + case);
        let seed = rng.below(1_000);
        let sites = 1 + rng.below_usize(5);
        let values = ValueDist::Uniform.generate(8_192, seed);
        let oracle = RankOracle::from_stream(values.clone());
        let eps = 0.1;
        let leaves: Vec<KnownNQuantile<u64>> = values
            .chunks(values.len().div_ceil(sites).max(1))
            .enumerate()
            .map(|(i, chunk)| {
                let mut q = KnownNQuantile::new(eps, values.len() as u64, seed ^ i as u64);
                for &v in chunk {
                    q.insert(v);
                }
                q
            })
            .collect();
        let merged = merge_all(leaves, MergeTree::Balanced).unwrap();
        let n = values.len() as f64;
        for phi in [0.1, 0.5, 0.9] {
            let probe = *oracle.quantile(phi).unwrap();
            let err = oracle.rank_error(&probe, merged.rank(&probe)) as f64 / n;
            assert!(err <= eps, "case {case}: phi {phi}: err {err}");
        }
    }
}

// ---------------------------------------------------------------------------
// Segment cube: partition invariants and covering-set minimality. The
// cube is driven with a ManualClock, so every seal boundary — count and
// wall-clock alike — is seeded and instantaneous.
// ---------------------------------------------------------------------------

use mergeable_summaries::service::{
    CubeClock, ManualClock, SegmentConfig, SegmentCube, SummaryKind,
};
use std::sync::Arc;

const CUBE_EPS: f64 = 0.05;

/// A seeded cube fed seeded batches under seeded clock steps, plus the
/// batches themselves (the oracle's raw material).
fn seeded_cube(rng: &mut Rng64) -> (SegmentCube, Vec<Vec<u64>>) {
    let clock = Arc::new(ManualClock::new(1));
    let cfg = SegmentConfig::new()
        .seal_batches(1 + rng.below(10))
        .seal_micros(500 + rng.below(4_000))
        .clock(Arc::clone(&clock) as Arc<dyn CubeClock>);
    let cube = SegmentCube::new(CUBE_EPS, rng.next_u64(), cfg);
    let batches: Vec<Vec<u64>> = (0..5 + rng.below_usize(40))
        .map(|_| {
            (0..1 + rng.below_usize(80))
                .map(|_| rng.below(64))
                .collect()
        })
        .collect();
    for batch in &batches {
        clock.advance(rng.below(1_200));
        cube.record(batch);
    }
    (cube, batches)
}

/// The segments partition the ingested sequence: dense ids, contiguous
/// seq ranges starting at 1, monotone non-overlapping time spans, and
/// per-segment weight/batch counts that match the raw batches exactly.
/// Quantified over seal configs, batch shapes, and clock schedules.
#[test]
fn cube_segments_partition_the_stream() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xC0BE_0001 + case);
        let (cube, batches) = seeded_cube(&mut rng);
        let report = cube.report();
        let segs = &report.segments;
        assert!(!segs.is_empty(), "case {case}");
        // The open segment, when present, is last and unique.
        let open_count = segs.iter().filter(|s| !s.sealed).count();
        assert!(open_count <= 1, "case {case}");
        if open_count == 1 {
            assert!(!segs.last().unwrap().sealed, "case {case}");
        }
        assert_eq!(segs[0].start_seq, 1, "case {case}");
        assert_eq!(
            segs.last().unwrap().end_seq,
            batches.len() as u64,
            "case {case}"
        );
        for (i, s) in segs.iter().enumerate() {
            assert!(s.start_seq <= s.end_seq, "case {case} seg {i}");
            assert!(s.start_micros <= s.end_micros, "case {case} seg {i}");
            assert_eq!(
                s.batches,
                s.end_seq - s.start_seq + 1,
                "case {case} seg {i}"
            );
            let span: u64 = batches[(s.start_seq - 1) as usize..s.end_seq as usize]
                .iter()
                .map(|b| b.len() as u64)
                .sum();
            assert_eq!(s.weight, span, "case {case} seg {i}");
            if i > 0 {
                // Dense ids, contiguous seqs, never-overlapping times.
                assert_eq!(s.id, segs[i - 1].id + 1, "case {case} seg {i}");
                assert_eq!(s.start_seq, segs[i - 1].end_seq + 1, "case {case} seg {i}");
                assert!(
                    s.start_micros >= segs[i - 1].end_micros,
                    "case {case} seg {i}"
                );
            }
        }
    }
}

/// The covering set is minimal and exact: a query's merged segment count
/// equals a brute-force scan of the report for window-intersecting
/// segments — nothing extra merged, nothing intersecting skipped — and
/// the covered weight/seq span are exactly those segments' union.
#[test]
fn cube_covering_set_matches_brute_force() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xC0BE_0002 + case);
        let (cube, _) = seeded_cube(&mut rng);
        let report = cube.report();
        let horizon = report.segments.last().unwrap().end_micros + 2_000;
        for _ in 0..20 {
            let ws = rng.below(horizon);
            let we = ws + rng.below(horizon);
            let (meta, merged) = cube.query(ws, we, SummaryKind::Mg);
            let covering: Vec<_> = report
                .segments
                .iter()
                .filter(|s| s.start_micros <= we && s.end_micros >= ws)
                .collect();
            let brute_open = covering.iter().any(|s| !s.sealed);
            assert_eq!(
                meta.segments_merged,
                covering.len() as u32,
                "case {case} [{ws},{we}]"
            );
            assert_eq!(meta.open_included, brute_open, "case {case} [{ws},{we}]");
            let brute_weight: u64 = covering.iter().map(|s| s.weight).sum();
            assert_eq!(meta.covered_weight, brute_weight, "case {case} [{ws},{we}]");
            match merged {
                None => assert!(covering.is_empty(), "case {case} [{ws},{we}]"),
                Some(summary) => {
                    assert_eq!(
                        summary.total_weight(),
                        brute_weight,
                        "case {case} [{ws},{we}]"
                    );
                    let lo = covering.iter().map(|s| s.start_seq).min().unwrap();
                    let hi = covering.iter().map(|s| s.end_seq).max().unwrap();
                    assert_eq!((meta.start_seq, meta.end_seq), (lo, hi), "case {case}");
                }
            }
        }
    }
}
