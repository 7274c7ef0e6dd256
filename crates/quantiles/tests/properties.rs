//! Property tests for the quantile summaries: structural invariants that
//! must hold for every input, independent of the probabilistic error
//! analysis. Randomized over seeded streams so failures reproduce.

use std::cmp::Ordering;

use ms_core::{Mergeable, Rng64, Summary, Wire};
use ms_quantiles::{
    BottomKSample, GkSummary, HybridQuantile, KnownNQuantile, MergePoint, RankSummary, SortedBuffer,
};

const CASES: u64 = 96;

fn values(rng: &mut Rng64, universe: u64, max_len: usize, min_len: usize) -> Vec<u64> {
    let len = min_len + rng.below_usize(max_len - min_len);
    (0..len).map(|_| rng.below(universe)).collect()
}

/// The same-weight merge keeps exactly half the points (to parity),
/// sorted, and every kept point comes from the inputs.
#[test]
fn same_weight_merge_structure() {
    let mut outer = Rng64::new(0x0A_01);
    for _ in 0..CASES {
        let a = values(&mut outer, 1000, 64, 0);
        let b = values(&mut outer, 1000, 64, 0);
        let seed = outer.next_u64();
        let total = a.len() + b.len();
        let ba = SortedBuffer::from_unsorted(a.clone());
        let bb = SortedBuffer::from_unsorted(b.clone());
        let mut rng = Rng64::new(seed);
        let merged = SortedBuffer::same_weight_merge(ba, bb, &mut rng);
        assert!(merged.len() == total / 2 || merged.len() == total.div_ceil(2));
        assert!(merged.points().windows(2).all(|w| w[0] <= w[1]));
        let mut pool: Vec<u64> = a;
        pool.extend(b);
        for p in merged.points() {
            let pos = pool.iter().position(|x| x == p);
            assert!(pos.is_some(), "merge invented point {p}");
            pool.swap_remove(pos.unwrap());
        }
    }
}

/// Rank estimates are bounded by n for all four summaries, and monotone
/// in the query for the point-set summaries. (GK's midpoint estimator is
/// *not* monotone in general — its uncertainty band can narrow across
/// tuples — so it is only checked for the bound.)
#[test]
fn ranks_are_monotone_and_bounded() {
    let mut outer = Rng64::new(0x0A_02);
    for _ in 0..CASES {
        let vals = values(&mut outer, 10_000, 800, 1);
        let n = vals.len() as u64;
        let mut known = KnownNQuantile::new(0.1, n, 1);
        let mut hybrid = HybridQuantile::new(0.1, 1);
        let mut gk = GkSummary::new(0.1);
        let mut sample = BottomKSample::new(64, 1);
        for &v in &vals {
            known.insert(v);
            hybrid.insert(v);
            gk.insert(v);
            sample.insert(v);
        }
        let probes = [0u64, 100, 1_000, 5_000, 9_999, 10_000];
        let mut prev = [0u64; 3];
        for x in probes {
            let monotone = [known.rank(&x), hybrid.rank(&x), sample.rank(&x)];
            for (i, &r) in monotone.iter().enumerate() {
                assert!(r <= n, "summary {i}: rank {r} > n {n}");
                assert!(r >= prev[i], "summary {i}: rank not monotone");
            }
            prev = monotone;
            assert!(gk.rank(&x) <= n);
        }
    }
}

/// Quantile answers are always actual inserted values and move
/// monotonically with φ.
#[test]
fn quantiles_are_data_values() {
    let mut outer = Rng64::new(0x0A_03);
    for _ in 0..CASES {
        let vals = values(&mut outer, 10_000, 500, 1);
        let seed = outer.next_u64();
        let mut hybrid = HybridQuantile::new(0.1, seed);
        for &v in &vals {
            hybrid.insert(v);
        }
        let mut prev = None;
        for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let q = hybrid.quantile(phi).expect("non-empty");
            assert!(vals.contains(&q), "quantile {q} not in the data");
            if let Some(p) = prev {
                assert!(q >= p, "quantiles not monotone in phi");
            }
            prev = Some(q);
        }
    }
}

/// Merging preserves counts exactly, for every split of the stream and
/// both randomized summaries.
#[test]
fn merge_preserves_count() {
    let mut outer = Rng64::new(0x0A_04);
    for _ in 0..CASES {
        let vals = values(&mut outer, 1000, 600, 0);
        let cut_ppm = outer.below(1_000_000);
        let cut = (vals.len() as u64 * cut_ppm / 1_000_000) as usize;
        let mk_known = |slice: &[u64], seed| {
            let mut q = KnownNQuantile::new(0.1, 1_000, seed);
            for &v in slice {
                q.insert(v);
            }
            q
        };
        let merged = mk_known(&vals[..cut], 1)
            .merge(mk_known(&vals[cut..], 2))
            .unwrap();
        assert_eq!(merged.count(), vals.len() as u64);
        assert_eq!(merged.total_weight(), vals.len() as u64);

        let mk_hybrid = |slice: &[u64], seed| {
            let mut q = HybridQuantile::new(0.1, seed);
            for &v in slice {
                q.insert(v);
            }
            q
        };
        let merged = mk_hybrid(&vals[..cut], 3)
            .merge(mk_hybrid(&vals[cut..], 4))
            .unwrap();
        assert_eq!(merged.count(), vals.len() as u64);
    }
}

/// The hybrid summary's size respects its own cap for any stream.
#[test]
fn hybrid_size_cap() {
    let mut outer = Rng64::new(0x0A_05);
    for _ in 0..CASES {
        let len = outer.below_usize(2_000);
        let seed = outer.next_u64();
        let mut q = HybridQuantile::new(0.1, seed);
        for _ in 0..len {
            q.insert(outer.next_u64());
        }
        let cap = q.buffer_capacity() * (q.max_levels() + 1) + 1;
        assert!(q.size() <= cap, "size {} over cap {cap}", q.size());
    }
}

/// GK never stores more tuples than inserted values and stays within a
/// polylog multiple of 1/ε on sorted adversarial input.
#[test]
fn gk_size_control() {
    let mut outer = Rng64::new(0x0A_06);
    for _ in 0..CASES {
        let n = 1 + outer.below_usize(2_999);
        let mut gk = GkSummary::new(0.05);
        for v in 0..n as u64 {
            gk.insert(v);
        }
        assert!(gk.size() <= n);
        assert!(gk.size() <= 400, "gk stored {} tuples", gk.size());
    }
}

/// A point ordered by `key` alone: equal keys from different inputs stay
/// distinguishable, so the merge's tie rule (take from `a`) is observable.
#[derive(Debug, Clone)]
struct Tagged {
    key: u64,
    from_b: bool,
}

impl PartialEq for Tagged {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Tagged {}
impl PartialOrd for Tagged {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tagged {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}
/// Ties carry a payload, so `Tagged` keeps the default (stable) merge.
impl MergePoint for Tagged {}

/// The textbook form of §4.1: a stable merge-sort of both inputs (ties
/// from `a`), then every second position from `offset`.
fn reference_same_weight_merge(a: &[Tagged], b: &[Tagged], offset: usize) -> Vec<Tagged> {
    let mut merged: Vec<Tagged> = a.iter().chain(b).cloned().collect();
    merged.sort(); // stable, and `a` precedes `b` in the concatenation
    merged.into_iter().skip(offset).step_by(2).collect()
}

/// The same-weight merge equals its textbook form point for point —
/// origin of every tie included — for empty, single, unequal and
/// duplicate-heavy inputs, under both coins, and draws exactly one coin.
#[test]
fn same_weight_merge_matches_the_textbook_merge() {
    let mut outer = Rng64::new(0x0A_07);
    let lens = [0usize, 1, 2, 5, 64, 93, 200];
    let mut coins = [0u32; 2];
    for &la in &lens {
        for &lb in &lens {
            // Universe 3 is almost all ties; 2^40 almost none.
            for universe in [3u64, 50, 1 << 40] {
                let side = |len: usize, from_b: bool, rng: &mut Rng64| {
                    let points = (0..len)
                        .map(|_| Tagged {
                            key: rng.below(universe),
                            from_b,
                        })
                        .collect();
                    SortedBuffer::from_unsorted(points)
                };
                let a = side(la, false, &mut outer);
                let b = side(lb, true, &mut outer);
                let seed = outer.next_u64();
                let mut expect_rng = Rng64::new(seed);
                let offset = usize::from(expect_rng.coin());
                coins[offset] += 1;
                let want = reference_same_weight_merge(a.points(), b.points(), offset);

                let mut rng = Rng64::new(seed);
                let got = SortedBuffer::same_weight_merge(a, b, &mut rng);
                let pairs = |points: &[Tagged]| -> Vec<(u64, bool)> {
                    points.iter().map(|p| (p.key, p.from_b)).collect()
                };
                assert_eq!(
                    pairs(got.points()),
                    pairs(&want),
                    "{la}+{lb} universe {universe} offset {offset}"
                );
                assert_eq!(
                    rng.next_u64(),
                    expect_rng.next_u64(),
                    "the merge must draw exactly one coin"
                );
            }
        }
    }
    assert!(coins[0] > 0 && coins[1] > 0, "both coins must occur");
}

const PHIS: [f64; 5] = [0.0, 1e-9, 0.5, 1.0 - 1e-9, 1.0];

/// While everything fits in the base buffer every stored weight is 1, so
/// `quantile(φ)` must be the exact ⌈φn⌉-th order statistic — with ties,
/// all-equal values and a single point.
#[test]
fn quantile_selection_is_exact_on_unit_weights() {
    let mut outer = Rng64::new(0x0A_08);
    let mut streams: Vec<Vec<u64>> = vec![vec![42], vec![7; 300], vec![3, 1, 2]];
    for universe in [2u64, 10, 1 << 40] {
        for len in [2usize, 25, 400] {
            streams.push((0..len).map(|_| outer.below(universe)).collect());
        }
    }
    for vals in streams {
        let n = vals.len();
        // ε = 0.005 → m = 1842 (hybrid), far above every stream here.
        let mut hybrid = HybridQuantile::new(0.005, 1);
        let mut known = KnownNQuantile::new(0.005, 1 << 20, 1);
        hybrid.insert_batch(&vals);
        vals.iter().for_each(|&v| known.insert(v));
        assert!(n < hybrid.buffer_capacity() && n < known.buffer_capacity());
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for phi in PHIS {
            let k = ((phi * n as f64).ceil() as usize).clamp(1, n);
            assert_eq!(hybrid.quantile(phi), Some(sorted[k - 1]), "n {n} phi {phi}");
            assert_eq!(known.quantile(phi), Some(sorted[k - 1]), "n {n} phi {phi}");
        }
    }
}

/// On weighted point sets (several levels, a doubled base weight, a
/// partial block) the answer is pinned by `rank` alone: it is the one
/// stored value `v` with `weight(< v) < ⌈φW⌉ ≤ weight(≤ v)`.
#[test]
fn quantile_selection_agrees_with_rank_on_weighted_points() {
    let mut outer = Rng64::new(0x0A_09);
    for case in 0..24u64 {
        // Small universes pile many weighted points on few values.
        let universe = [4u64, 100, 1 << 30][case as usize % 3];
        let len = 1 + outer.below_usize(40_000);
        let vals: Vec<u64> = (0..len).map(|_| outer.below(universe)).collect();
        let (left, right) = vals.split_at(outer.below_usize(len));
        let mut q = HybridQuantile::new(0.1, case);
        q.insert_batch(left);
        let mut other = HybridQuantile::new(0.1, !case);
        other.insert_batch(right);
        q.merge_from(other).unwrap();

        let stored = q.rank(&u64::MAX);
        for phi in PHIS.into_iter().chain([0.01, 0.25, 0.9]) {
            let target = ((phi * stored as f64).ceil() as u64).clamp(1, stored);
            let v = q.quantile(phi).expect("non-empty");
            assert!(
                q.rank(&v) < target && q.rank(&(v + 1)) >= target,
                "case {case} phi {phi}: {v} has {}..{} around target {target}",
                q.rank(&v),
                q.rank(&(v + 1))
            );
        }
    }
}

/// `insert_batch` leaves the bytes per-item `insert` leaves — RNG state
/// included — at every checkpoint of streams that double the base weight
/// twice, for chunkings that land before, on and after the flush boundary.
#[test]
fn insert_batch_matches_per_item_insert_bytewise() {
    for (eps, len) in [(0.1, 30_000usize), (0.02, 300_000)] {
        let mut outer = Rng64::new(0x0A_0A);
        let vals: Vec<u64> = (0..len).map(|_| outer.below(1 << 20)).collect();
        let m = HybridQuantile::<u64>::new(eps, 0).buffer_capacity();
        for chunk in [1, 7, m - 1, m, m + 1, 4096] {
            let mut per_item = HybridQuantile::new(eps, 0xBA7C);
            let mut batched = per_item.clone();
            let checkpoint = (len / chunk / 16).max(1);
            for (i, part) in vals.chunks(chunk).enumerate() {
                part.iter().for_each(|&v| per_item.insert(v));
                batched.insert_batch(part);
                if i % checkpoint == 0 {
                    assert_eq!(
                        per_item.encode(),
                        batched.encode(),
                        "eps {eps} chunk {chunk}: diverged by item {}",
                        (i + 1) * chunk
                    );
                }
            }
            assert_eq!(
                per_item.encode(),
                batched.encode(),
                "eps {eps} chunk {chunk}"
            );
            assert!(
                batched.base_weight() >= 4,
                "eps {eps}: stream too short for two doublings (w = {})",
                batched.base_weight()
            );
        }
    }
}
