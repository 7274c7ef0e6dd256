//! Regenerates every table/figure of the reproduction (see `DESIGN.md` §4
//! for the experiment index and `EXPERIMENTS.md` for recorded results).
//!
//! Usage:
//!
//! ```text
//! cargo run -p ms-bench --release --bin experiments            # all
//! cargo run -p ms-bench --release --bin experiments -- e1 e4   # a subset
//! ```

use std::collections::BTreeSet;

use ms_bench::report::fmt;
use ms_bench::Table;
use ms_core::{
    directional_width, merge_all, unit_dir, FrequencyOracle, ItemSummary, MergeTree, RankOracle,
    Rng64, Summary,
};
use ms_frequency::isomorphism::check_isomorphism;
use ms_frequency::{MgSummary, SpaceSavingSummary};
use ms_kernels::{EpsKernel, Frame};
use ms_lowerror::{
    merge_frequent_baseline, merge_frequent_low_error, merge_space_saving_baseline,
    merge_space_saving_low_error, SortedSummary,
};
use ms_quantiles::{BottomKSample, GkSummary, HybridQuantile, KnownNQuantile, RankSummary};
use ms_range::ranges::{count_in, grid_queries};
use ms_range::{EpsApprox2d, Halving};
use ms_sketches::CountMinSketch;
use ms_workloads::{CloudKind, Partitioner, StreamKind, ValueDist};

fn main() {
    let args: BTreeSet<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.contains("all");
    let want = |id: &str| all || args.contains(id);

    println!("# mergeable-summaries experiment run");
    if want("t1") {
        t1_size_table();
    }
    if want("e1") {
        e1_mg_merge_error();
    }
    if want("e2") {
        e2_isomorphism();
    }
    if want("e3") {
        e3_mg_vs_count_min();
    }
    if want("e4") {
        e4_known_n_quantiles();
    }
    if want("e5") {
        e5_hybrid_size();
    }
    if want("e6") {
        e6_quantile_baselines();
    }
    if want("e7") {
        e7_range_approx();
    }
    if want("e8") {
        e8_kernels();
    }
    if want("e10") {
        e10_network_cost();
        e10_cluster_bytes();
    }
    if want("e11") {
        e11_buffer_ablation();
    }
    if want("e12") {
        e12_service_scaling();
    }
    if want("e13") {
        e13_segment_merge_error();
    }
    if want("x1") {
        x1_low_error_golden();
    }
    if want("x2") {
        x2_low_error_distribution();
    }
    if want("x3") {
        x3_low_error_end_to_end();
    }
    println!("\ndone.");
}

// ---------------------------------------------------------------------------
// helpers

const SITES: usize = 64;

fn build_mg(items: &[u64], eps: f64) -> Vec<MgSummary<u64>> {
    Partitioner::ByKey
        .split(items, SITES)
        .into_iter()
        .map(|part| {
            let mut s = MgSummary::for_epsilon(eps);
            s.extend_from(part);
            s
        })
        .collect()
}

fn mg_max_error(mg: &MgSummary<u64>, oracle: &FrequencyOracle<u64>) -> u64 {
    oracle
        .iter()
        .map(|(item, truth)| truth - mg.estimate(item))
        .max()
        .unwrap_or(0)
}

fn quantile_max_error<Q: RankSummary<u64>>(q: &Q, oracle: &RankOracle<u64>) -> f64 {
    let n = oracle.len() as f64;
    (0..=100)
        .filter_map(|i| oracle.quantile(i as f64 / 100.0).copied())
        .map(|x| oracle.rank_error(&x, q.rank(&x)) as f64 / n)
        .fold(0.0, f64::max)
}

// ---------------------------------------------------------------------------
// T1 — the paper's results table, measured

fn t1_size_table() {
    let n = 1 << 20;
    let pts_n = 1 << 18;
    let items = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 22,
    }
    .generate(n, 1);
    let values = ValueDist::Uniform.generate(n, 2);
    let points = CloudKind::Disk.generate(pts_n, 3);
    let exact_distinct = FrequencyOracle::from_stream(items.iter().copied()).distinct();

    let mut table = Table::new(
        "t1",
        &format!(
            "summary sizes (stored entries) after n = {n} items / {pts_n} points, \
             {SITES}-way balanced merge; exact counting needs {exact_distinct} entries"
        ),
        &[
            "eps",
            "MG",
            "SS",
            "known-n quant",
            "hybrid quant",
            "count-min cells",
            "eps-approx 2d",
            "eps-kernel",
        ],
    );

    for eps in [0.1, 0.05, 0.02, 0.01, 0.005, 0.002] {
        let mg = merge_all(build_mg(&items, eps), MergeTree::Balanced).unwrap();
        let ss = merge_all(
            Partitioner::ByKey
                .split(&items, SITES)
                .into_iter()
                .map(|p| {
                    let mut s = SpaceSavingSummary::for_epsilon(eps);
                    s.extend_from(p);
                    s
                })
                .collect(),
            MergeTree::Balanced,
        )
        .unwrap();
        let known = merge_all(
            values
                .chunks(n / SITES)
                .enumerate()
                .map(|(i, c)| {
                    let mut q = KnownNQuantile::new(eps, n as u64, i as u64);
                    for &v in c {
                        q.insert(v);
                    }
                    q
                })
                .collect(),
            MergeTree::Balanced,
        )
        .unwrap();
        let hybrid = merge_all(
            values
                .chunks(n / SITES)
                .enumerate()
                .map(|(i, c)| {
                    let mut q = HybridQuantile::new(eps, i as u64);
                    for &v in c {
                        q.insert(v);
                    }
                    q
                })
                .collect(),
            MergeTree::Balanced,
        )
        .unwrap();
        let cm = CountMinSketch::<u64>::for_epsilon_delta(eps, 0.01, 9);
        let approx = merge_all(
            points
                .chunks(pts_n / SITES)
                .enumerate()
                .map(|(i, c)| {
                    let mut a = EpsApprox2d::for_epsilon(eps, i as u64);
                    a.extend_from(c.iter().copied());
                    a
                })
                .collect(),
            MergeTree::Balanced,
        )
        .unwrap();
        let frame = Frame::from_points(&points);
        let kernel = merge_all(
            points
                .chunks(pts_n / SITES)
                .map(|c| {
                    let mut k = EpsKernel::new(eps, frame);
                    k.extend_from(c.iter().copied());
                    k
                })
                .collect(),
            MergeTree::Balanced,
        )
        .unwrap();

        table.row(vec![
            format!("{eps}"),
            mg.size().to_string(),
            ss.size().to_string(),
            known.size().to_string(),
            hybrid.size().to_string(),
            cm.size().to_string(),
            approx.size().to_string(),
            kernel.size().to_string(),
        ]);
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// E1 — MG mergeability (§3 Theorem 1)

fn e1_mg_merge_error() {
    let n = 1 << 20;
    let eps = 0.01;
    let items = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 22,
    }
    .generate(n, 11);
    let oracle = FrequencyOracle::from_stream(items.iter().copied());

    let mut table = Table::new(
        "e1",
        &format!(
            "Misra-Gries merged error, eps = {eps}, n = {n}, Zipf(1.1); \
             bound is the summary's own (n − n̂)/(k+1)"
        ),
        &[
            "sites",
            "tree",
            "partition",
            "max err / n",
            "self bound / n",
            "εn bound ok",
        ],
    );

    for sites in [2usize, 16, 64, 256] {
        for shape in MergeTree::canonical() {
            let partitioner = Partitioner::ByKey;
            let leaves: Vec<MgSummary<u64>> = partitioner
                .split(&items, sites)
                .into_iter()
                .map(|p| {
                    let mut s = MgSummary::for_epsilon(eps);
                    s.extend_from(p);
                    s
                })
                .collect();
            let merged = merge_all(leaves, shape).unwrap();
            let max_err = mg_max_error(&merged, &oracle) as f64 / n as f64;
            let self_bound = merged.error_bound() / n as f64;
            table.row(vec![
                sites.to_string(),
                shape.label().to_string(),
                partitioner.label().to_string(),
                fmt(max_err),
                fmt(self_bound),
                (max_err <= eps).to_string(),
            ]);
        }
    }
    // Partitioner sweep at 64 sites, balanced tree.
    for partitioner in Partitioner::canonical() {
        let leaves: Vec<MgSummary<u64>> = partitioner
            .split(&items, 64)
            .into_iter()
            .map(|p| {
                let mut s = MgSummary::for_epsilon(eps);
                s.extend_from(p);
                s
            })
            .collect();
        let merged = merge_all(leaves, MergeTree::Balanced).unwrap();
        let max_err = mg_max_error(&merged, &oracle) as f64 / n as f64;
        table.row(vec![
            "64".into(),
            "balanced".into(),
            partitioner.label().to_string(),
            fmt(max_err),
            fmt(merged.error_bound() / n as f64),
            (max_err <= eps).to_string(),
        ]);
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// E2 — MG ⇄ SpaceSaving isomorphism (§3 Lemma 1)

fn e2_isomorphism() {
    let n = 200_000;
    let items = StreamKind::Zipf {
        s: 1.2,
        universe: 50_000,
    }
    .generate(n, 21);

    let mut table = Table::new(
        "e2",
        &format!("MG(k) vs SpaceSaving(k+1) on the same stream, n = {n}, Zipf(1.2)"),
        &["k", "delta = (n − n̂)/(k+1)", "profiles match"],
    );
    for k in [8usize, 16, 64, 128, 256, 512] {
        let mut mg = MgSummary::new(k);
        let mut ss = SpaceSavingSummary::new(k + 1);
        for &item in &items {
            mg.update(item);
            ss.update(item);
        }
        let outcome = check_isomorphism(&mg, &ss);
        table.row(vec![
            k.to_string(),
            outcome
                .as_ref()
                .map(|d| d.to_string())
                .unwrap_or_else(|e| format!("FAIL: {e}")),
            outcome.is_ok().to_string(),
        ]);
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// E3 — merged MG vs Count-Min at equal space (§3 comparison class)

fn e3_mg_vs_count_min() {
    let n = 1 << 20;
    // MG with k counters ≈ k × (8B item + 8B count); CM cell = 8B.
    let k = 99;
    let cm_cells = 2 * k; // equal byte budget
    let width = cm_cells / 3;

    let mut table = Table::new(
        "e3",
        &format!(
            "heavy-hitter error at equal space (~{} bytes), n = {n}: \
             deterministic MG (k = {k}) vs Count-Min ({width}×3 cells)",
            16 * k
        ),
        &[
            "zipf s",
            "MG max err",
            "MG mean err (top 100)",
            "CM max err",
            "CM mean err (top 100)",
        ],
    );

    for s in [1.0, 1.2, 1.5] {
        let items = StreamKind::Zipf {
            s,
            universe: 1 << 22,
        }
        .generate(n, 31);
        let oracle = FrequencyOracle::from_stream(items.iter().copied());

        let mg = merge_all(
            Partitioner::ByKey
                .split(&items, SITES)
                .into_iter()
                .map(|p| {
                    let mut m = MgSummary::new(k);
                    m.extend_from(p);
                    m
                })
                .collect(),
            MergeTree::Balanced,
        )
        .unwrap();
        let cm = merge_all(
            Partitioner::ByKey
                .split(&items, SITES)
                .into_iter()
                .map(|p| {
                    let mut c = CountMinSketch::new(width, 3, 0xFEED);
                    c.extend_from(p);
                    c
                })
                .collect(),
            MergeTree::Balanced,
        )
        .unwrap();

        let top: Vec<(u64, u64)> = oracle.top_k(100);
        let mg_top_mean = top
            .iter()
            .map(|(i, t)| (t - mg.estimate(i)) as f64)
            .sum::<f64>()
            / top.len() as f64;
        let cm_top_mean = top
            .iter()
            .map(|(i, t)| (cm.estimate(i) - t) as f64)
            .sum::<f64>()
            / top.len() as f64;
        let mg_max = mg_max_error(&mg, &oracle);
        let cm_max = oracle
            .iter()
            .map(|(i, t)| cm.estimate(i) - t)
            .max()
            .unwrap_or(0);

        table.row(vec![
            format!("{s}"),
            mg_max.to_string(),
            fmt(mg_top_mean),
            cm_max.to_string(),
            fmt(cm_top_mean),
        ]);
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// E4 — known-n quantiles under merge trees (§4.2)

fn e4_known_n_quantiles() {
    let n = 1 << 18;
    let eps = 0.02;
    let trials = 10;

    let mut table = Table::new(
        "e4",
        &format!(
            "known-n quantile summary, eps = {eps}, n = {n}, {SITES} sites, \
             {trials} trials: max rank error / n across the trial set"
        ),
        &["distribution", "tree", "p50", "p99", "max", "≤ eps"],
    );

    for dist in ValueDist::canonical() {
        let values = dist.generate(n, 41);
        let oracle = RankOracle::from_stream(values.clone());
        for shape in MergeTree::canonical() {
            let mut errors: Vec<f64> = Vec::with_capacity(trials);
            for trial in 0..trials {
                let leaves: Vec<KnownNQuantile<u64>> = values
                    .chunks(n / SITES)
                    .enumerate()
                    .map(|(i, c)| {
                        let mut q = KnownNQuantile::new(eps, n as u64, (trial * 1000 + i) as u64);
                        for &v in c {
                            q.insert(v);
                        }
                        q
                    })
                    .collect();
                let merged = merge_all(leaves, shape).unwrap();
                errors.push(quantile_max_error(&merged, &oracle));
            }
            errors.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let max = *errors.last().unwrap();
            table.row(vec![
                dist.label(),
                shape.label().to_string(),
                fmt(errors[errors.len() / 2]),
                fmt(errors[(errors.len() * 99 / 100).min(errors.len() - 1)]),
                fmt(max),
                (max <= eps).to_string(),
            ]);
        }
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// E5 — hybrid summary: size independent of n (§4.3)

fn e5_hybrid_size() {
    let eps = 0.05;
    let mut table = Table::new(
        "e5",
        &format!(
            "hybrid quantile summary, eps = {eps}: size must plateau as n grows \
             (fully mergeable, no advance knowledge of n)"
        ),
        &[
            "n",
            "stored points",
            "base weight w",
            "levels cap",
            "max rank err / n",
            "≤ eps",
        ],
    );
    for exp in [14u32, 16, 18, 20, 22] {
        let n = 1usize << exp;
        let values = ValueDist::Uniform.generate(n, 51);
        let oracle = RankOracle::from_stream(values.clone());
        let mut q = HybridQuantile::new(eps, 7);
        for &v in &values {
            q.insert(v);
        }
        let err = quantile_max_error(&q, &oracle);
        table.row(vec![
            format!("2^{exp}"),
            q.size().to_string(),
            q.base_weight().to_string(),
            q.max_levels().to_string(),
            fmt(err),
            (err <= eps).to_string(),
        ]);
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// E6 — quantile baselines: GK merges and sampling (§4 context)

fn e6_quantile_baselines() {
    let n = 1 << 18;
    let eps = 0.02;
    let values = ValueDist::Uniform.generate(n, 61);
    let oracle = RankOracle::from_stream(values.clone());
    let chunks: Vec<&[u64]> = values.chunks(n / SITES).collect();

    // Hybrid (the paper's summary).
    let hybrid = merge_all(
        chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut q = HybridQuantile::new(eps, i as u64);
                for &v in *c {
                    q.insert(v);
                }
                q
            })
            .collect(),
        MergeTree::Chain,
    )
    .unwrap();

    // GK with the folk combine, chained.
    let gk = merge_all(
        chunks
            .iter()
            .map(|c| {
                let mut q = GkSummary::new(eps);
                for &v in *c {
                    q.insert(v);
                }
                q
            })
            .collect(),
        MergeTree::Chain,
    )
    .unwrap();
    let gk_single = {
        let mut q = GkSummary::new(eps);
        for &v in &values {
            q.insert(v);
        }
        q
    };

    // Bottom-k sampling at two budgets.
    let sample_at = |k: usize| -> BottomKSample<u64> {
        merge_all(
            chunks
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let mut s = BottomKSample::new(k, i as u64);
                    for &v in *c {
                        s.insert(v);
                    }
                    s
                })
                .collect(),
            MergeTree::Chain,
        )
        .unwrap()
    };
    let sample_small = sample_at(hybrid.size());
    let sample_big = sample_at((1.0 / (eps * eps)) as usize);

    let mut table = Table::new(
        "e6",
        &format!("quantile baselines, eps = {eps}, n = {n}, {SITES}-way chained merge"),
        &["summary", "size", "max rank err / n", "note"],
    );
    table.row(vec![
        "hybrid (paper)".into(),
        hybrid.size().to_string(),
        fmt(quantile_max_error(&hybrid, &oracle)),
        "mergeable, size indep. of n".into(),
    ]);
    table.row(vec![
        "GK single-stream".into(),
        gk_single.size().to_string(),
        fmt(quantile_max_error(&gk_single, &oracle)),
        "streaming only".into(),
    ]);
    table.row(vec![
        "GK chained merges".into(),
        gk.size().to_string(),
        fmt(quantile_max_error(&gk, &oracle)),
        "size blows up across merges".into(),
    ]);
    table.row(vec![
        format!("bottom-k (k = {})", sample_small.size()),
        sample_small.size().to_string(),
        fmt(quantile_max_error(&sample_small, &oracle)),
        "same space as hybrid".into(),
    ]);
    table.row(vec![
        format!("bottom-k (k = {})", sample_big.size()),
        sample_big.size().to_string(),
        fmt(quantile_max_error(&sample_big, &oracle)),
        "Θ(1/eps²) space for eps error".into(),
    ]);
    table.emit();
}

// ---------------------------------------------------------------------------
// E7 — ε-approximations via merge-reduce (§5)

fn e7_range_approx() {
    use ms_range::ranges::{count_where, random_halfplanes};

    let n = 1 << 16;
    let points = CloudKind::UniformSquare.generate(n, 71);
    let queries = grid_queries(&points, 6);
    let halfplanes = random_halfplanes(&points, 500, 73);

    let mut table = Table::new(
        "e7",
        &format!(
            "2D eps-approximation, n = {n} uniform points, {SITES} sites, \
             balanced merge, {} rectangle + {} halfplane queries",
            queries.len(),
            halfplanes.len()
        ),
        &[
            "halving",
            "m",
            "stored",
            "rect max |err| / n",
            "halfplane max |err| / n",
        ],
    );

    for halving in [Halving::Random, Halving::SortedX, Halving::Hilbert] {
        for m in [64usize, 128, 256, 512] {
            let merged = merge_all(
                points
                    .chunks(n / SITES)
                    .enumerate()
                    .map(|(i, c)| {
                        let mut a = EpsApprox2d::new(m, halving, i as u64);
                        a.extend_from(c.iter().copied());
                        a
                    })
                    .collect(),
                MergeTree::Balanced,
            )
            .unwrap();
            let max_err = queries
                .iter()
                .map(|r| (merged.estimate_count(r) as f64 - count_in(&points, r) as f64).abs())
                .fold(0.0, f64::max)
                / n as f64;
            let hp_err = halfplanes
                .iter()
                .map(|h| {
                    let exact = count_where(&points, |p| h.contains(p)) as f64;
                    let est = merged.estimate_count_where(|p| h.contains(p)) as f64;
                    (est - exact).abs()
                })
                .fold(0.0, f64::max)
                / n as f64;
            table.row(vec![
                halving.label().to_string(),
                m.to_string(),
                merged.size().to_string(),
                fmt(max_err),
                fmt(hp_err),
            ]);
        }
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// E8 — ε-kernels in the restricted model (§6)

fn e8_kernels() {
    let n = 1 << 16;

    let mut table = Table::new(
        "e8",
        &format!(
            "eps-kernels, n = {n} points, {SITES} sites, random merge tree, \
             720 width probes"
        ),
        &[
            "cloud",
            "eps",
            "grid t",
            "kernel size",
            "max width err",
            "≤ eps",
        ],
    );

    let width_err = |kernel: &EpsKernel, pts: &[ms_core::Point2]| -> f64 {
        (0..720)
            .map(|i| {
                let dir = unit_dir(std::f64::consts::TAU * i as f64 / 720.0);
                let truth = directional_width(pts, dir);
                if truth == 0.0 {
                    0.0
                } else {
                    (truth - kernel.width(dir)) / truth
                }
            })
            .fold(0.0, f64::max)
    };

    for cloud in [
        CloudKind::Ring,
        CloudKind::Gaussian,
        CloudKind::Ellipse { aspect: 10.0 },
    ] {
        let pts = cloud.generate(n, 81);
        let frame = Frame::from_points(&pts);
        for eps in [0.2, 0.1, 0.05, 0.02, 0.01] {
            let merged = merge_all(
                pts.chunks(n / SITES)
                    .map(|c| {
                        let mut k = EpsKernel::new(eps, frame);
                        k.extend_from(c.iter().copied());
                        k
                    })
                    .collect(),
                MergeTree::Random { seed: 5 },
            )
            .unwrap();
            let err = width_err(&merged, &pts);
            table.row(vec![
                cloud.label(),
                format!("{eps}"),
                merged.grid_size().to_string(),
                merged.size().to_string(),
                fmt(err),
                (err <= eps).to_string(),
            ]);
        }
    }

    // Ablation: drop the shared frame on the anisotropic cloud.
    let pts = CloudKind::Ellipse { aspect: 10.0 }.generate(n, 81);
    let mut bare = EpsKernel::new(0.05, Frame::identity());
    bare.extend_from(pts.iter().copied());
    table.row(vec![
        "ellipse, identity frame".into(),
        "0.05".into(),
        bare.grid_size().to_string(),
        bare.size().to_string(),
        fmt(width_err(&bare, &pts)),
        "(ablation)".into(),
    ]);
    table.emit();
}

// ---------------------------------------------------------------------------
// E11 — ablation: quantile buffer size m vs error (the accuracy/space curve
// behind the m = Θ((1/ε)√log(1/δ)) sizing rule)

fn e11_buffer_ablation() {
    use ms_quantiles::buffer::SortedBuffer;
    use ms_quantiles::hierarchy::BufferHierarchy;

    let n = 1 << 18;
    let trials = 20;
    let values = ValueDist::Uniform.generate(n, 111);
    let oracle = RankOracle::from_stream(values.clone());

    let mut table = Table::new(
        "e11",
        &format!(
            "ablation: same-weight-merge hierarchy with raw buffer size m, \
             n = {n}, {trials} trials — max rank error / n scales as ~1/m \
             (each halving of error costs 2x space)"
        ),
        &[
            "m",
            "stored points",
            "mean of max err / n",
            "worst of max err / n",
        ],
    );

    for m in [32usize, 64, 128, 256, 512, 1024] {
        let mut maxes = Vec::with_capacity(trials);
        let mut size = 0usize;
        for trial in 0..trials as u64 {
            let mut rng = ms_core::Rng64::new(1000 + trial);
            let mut hierarchy: BufferHierarchy<u64> = BufferHierarchy::new();
            for chunk in values.chunks(m) {
                hierarchy.push_buffer(0, SortedBuffer::from_unsorted(chunk.to_vec()), &mut rng);
            }
            size = hierarchy.stored_points();
            let worst = (0..=100)
                .filter_map(|i| oracle.quantile(i as f64 / 100.0).copied())
                .map(|x| {
                    oracle.rank_error(&x, hierarchy.weighted_count_below(&x, 1)) as f64 / n as f64
                })
                .fold(0.0, f64::max);
            maxes.push(worst);
        }
        let mean = maxes.iter().sum::<f64>() / maxes.len() as f64;
        let worst = maxes.iter().copied().fold(0.0, f64::max);
        table.row(vec![m.to_string(), size.to_string(), fmt(mean), fmt(worst)]);
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// E10 — communication cost of in-network aggregation (the paper's motivation)

fn e10_network_cost() {
    use ms_netsim::{aggregate, raw_shipping_bytes, Topology};

    let sites = 64;
    let per_site = 16_384;
    let n = sites * per_site;
    let eps = 0.01;
    let items = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 22,
    }
    .generate(n, 91);
    let parts = Partitioner::RoundRobin.split(&items, sites);
    let raw = raw_shipping_bytes(&vec![per_site; sites], 8);

    let mut table = Table::new(
        "e10",
        &format!(
            "in-network aggregation traffic, {sites} sites × {per_site} items, \
             eps = {eps}; raw shipping (8 B/item, one hop) = {raw} B; \
             bytes reported under the binary wire codec and a JSON encoding"
        ),
        &[
            "summary",
            "topology",
            "messages",
            "wire bytes",
            "max message",
            "vs raw",
            "json bytes",
            "json/wire",
        ],
    );

    let mut push = |name: &str, topology: Topology, stats: &ms_netsim::NetStats| {
        table.row(vec![
            name.into(),
            topology.label().to_string(),
            stats.messages.to_string(),
            stats.total_bytes.to_string(),
            stats.max_message_bytes.to_string(),
            fmt(stats.total_bytes as f64 / raw as f64),
            stats.json_total_bytes.to_string(),
            fmt(stats.json_total_bytes as f64 / stats.total_bytes.max(1) as f64),
        ]);
    };

    for topology in Topology::canonical() {
        // Misra-Gries.
        let mg_leaves: Vec<MgSummary<u64>> = parts
            .iter()
            .map(|p| {
                let mut s = MgSummary::for_epsilon(eps);
                s.extend_from(p.iter().copied());
                s
            })
            .collect();
        let (_, stats) = aggregate(mg_leaves, topology).unwrap();
        push("misra-gries", topology, &stats);

        // Hybrid quantiles.
        let hq_leaves: Vec<HybridQuantile<u64>> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut q = HybridQuantile::new(eps, i as u64);
                for &v in p {
                    q.insert(v);
                }
                q
            })
            .collect();
        let (_, stats) = aggregate(hq_leaves, topology).unwrap();
        push("hybrid quantile", topology, &stats);

        // Count-Min (linear sketch).
        let cm_leaves: Vec<CountMinSketch<u64>> = parts
            .iter()
            .map(|p| {
                let mut s = CountMinSketch::for_epsilon_delta(eps, 0.01, 0xAB);
                s.extend_from(p.iter().copied());
                s
            })
            .collect();
        let (_, stats) = aggregate(cm_leaves, topology).unwrap();
        push("count-min", topology, &stats);
    }
    table.emit();
}

// E10b — the same accounting measured on a *live* federation: a
// coordinator scatter/gathering over three real TCP backend nodes, with
// the coordinator's own byte counters (scatter = request frames shipped
// to backends, gather = summary response frames shipped back) read per
// phase. This is the fanout topology of the first table, priced by the
// actual wire protocol instead of the abstract merge schedule.
fn e10_cluster_bytes() {
    use ms_cluster::{ClusterConfig, Coordinator};
    use ms_service::{Engine, Request, Response, Server, Service, ServiceConfig, SummaryKind};
    use std::sync::Arc;

    let nodes = 3usize;
    let per_node = 16_384usize;
    let n = nodes * per_node;
    let eps = 0.01;
    let items = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 22,
    }
    .generate(n, 91);

    let mut table = Table::new(
        "e10-cluster",
        &format!(
            "live coordinator scatter/gather wire traffic, {nodes}-node cluster, \
             {n} items ingested in 512-item batches, eps = {eps}; scatter bytes = \
             request frames shipped to backends, gather bytes = summary frames \
             merged back (non-summary responses are not counted); per phase, \
             from the coordinator's own byte counters"
        ),
        &["kind", "phase", "scatter bytes", "gather bytes"],
    );

    for kind in [SummaryKind::Mg, SummaryKind::HybridQuantile] {
        let backends: Vec<(Arc<Engine>, Server)> = (0..nodes)
            .map(|i| {
                let cfg = ServiceConfig::new(kind, eps).seed(0x10C0_FFEE + i as u64);
                let engine = Engine::start(cfg).expect("backend engine");
                let server =
                    Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("backend server");
                (engine, server)
            })
            .collect();
        let addrs: Vec<String> = backends
            .iter()
            .map(|(_, server)| server.local_addr().to_string())
            .collect();
        let coordinator =
            Coordinator::start(ClusterConfig::new(addrs).ping_interval(None)).expect("coordinator");

        let counter = |name: &str| -> u64 {
            coordinator
                .telemetry()
                .snapshot()
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let mut account = |phase: &str, run: &mut dyn FnMut()| {
            let scatter0 = counter("scatter_bytes_total");
            let gather0 = counter("gather_bytes_total");
            run();
            table.row(vec![
                kind.label().to_string(),
                phase.to_string(),
                (counter("scatter_bytes_total") - scatter0).to_string(),
                (counter("gather_bytes_total") - gather0).to_string(),
            ]);
        };

        account(&format!("ingest ({n} items)"), &mut || {
            for chunk in items.chunks(512) {
                coordinator.ingest(chunk).expect("cluster ingest");
            }
            coordinator.flush().expect("cluster flush");
        });
        let query = match kind {
            SummaryKind::Mg => ("heavy-hitters(0.01)", Request::HeavyHitters(0.01)),
            _ => ("quantile(0.5)", Request::Quantile(0.5)),
        };
        for (phase, request) in [
            query,
            ("summary (one-shot merge)", Request::Summary),
            ("metrics (merged)", Request::Metrics),
            ("telemetry (merged)", Request::Telemetry),
        ] {
            account(phase, &mut || {
                let response = coordinator.handle(request.clone());
                assert!(
                    !matches!(response, Response::Error(_)),
                    "{phase} failed: {response:?}"
                );
            });
        }

        coordinator.shutdown();
        for (_, server) in backends {
            server.stop();
        }
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// E12 — concurrent service: ingest scaling and snapshot accuracy

fn e12_service_scaling() {
    use ms_core::{ToJson, Wire};
    use ms_service::{Engine, ServiceConfig, SummaryKind};

    let n = 1 << 20;
    let eps = 0.01;
    let items = StreamKind::Zipf {
        s: 1.2,
        universe: 1 << 20,
    }
    .generate(n, 121);
    let oracle = FrequencyOracle::from_stream(items.iter().copied());
    let bound = (eps * n as f64).ceil() as u64;

    let mut table = Table::new(
        "e12",
        &format!(
            "sharded concurrent engine (mg, eps = {eps}), {n} zipf items; \
             max point error must stay within eps*n = {bound} at every shard \
             count (arbitrary merge trees do not degrade the bound)"
        ),
        &[
            "shards",
            "merges",
            "max error",
            "within eps*n",
            "snapshot wire B",
            "snapshot json B",
        ],
    );

    for shards in [1usize, 2, 4, 8] {
        let cfg = ServiceConfig::new(SummaryKind::Mg, eps)
            .shards(shards)
            .delta_updates(16_384)
            .seed(7);
        let engine = Engine::start(cfg).unwrap();
        for chunk in items.chunks(4_096) {
            engine.ingest(chunk.to_vec()).unwrap();
        }
        let snapshot = engine.shutdown();
        let m = engine.metrics();
        let max_err = oracle
            .iter()
            .map(|(item, truth)| snapshot.summary.point(*item).unwrap().abs_diff(truth))
            .max()
            .unwrap_or(0);
        table.row(vec![
            shards.to_string(),
            m.merges.to_string(),
            max_err.to_string(),
            (max_err <= bound).to_string(),
            snapshot.summary.wire_len().to_string(),
            snapshot.summary.json_len().to_string(),
        ]);
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// E13 — error vs. number of merged segments (the segment cube's range path)

/// The paper's mergeability guarantee (Definition 1) applied to the
/// segment cube: slicing one stream into S time segments, summarizing
/// each independently, and one-shot merging all S to answer a range
/// query must cost the *same* `ε·n` bound at every S — error must not
/// grow with the number of merged segments.
fn e13_segment_merge_error() {
    use ms_service::{SegmentConfig, SegmentCube, SummaryKind};
    use std::sync::Arc;

    let n = 1 << 17;
    let eps = 0.01;
    let batches = 256usize;
    let batch = n / batches;
    let items = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 16,
    }
    .generate(n, 131);
    let freq = FrequencyOracle::from_stream(items.iter().copied());
    let rank = RankOracle::from_stream(items.iter().copied());
    let bound = (eps * n as f64).ceil() as u64;

    let mut table = Table::new(
        "e13-segments",
        &format!(
            "segment cube range merge (eps = {eps}), {n} zipf items in {batches} \
             batches sliced into S segments; the full-range one-shot merge of \
             all S must keep every family within eps*n = {bound} regardless of S \
             (Definition 1: merging does not degrade the bound)"
        ),
        &[
            "segments",
            "mg max err",
            "ss max err",
            "rank max err",
            "eps*n",
            "within eps*n",
        ],
    );

    for segs in [1usize, 2, 4, 8, 16, 32, 64] {
        // A frozen manual clock: only the batch-count boundary seals, so
        // the cube holds exactly `segs` sealed segments after ingest.
        let clock = Arc::new(ms_service::ManualClock::new(1));
        let cube = SegmentCube::new(
            eps,
            131,
            SegmentConfig::new()
                .seal_batches((batches / segs) as u64)
                .seal_micros(1 << 40)
                .clock(clock as Arc<dyn ms_service::CubeClock>),
        );
        for chunk in items.chunks(batch) {
            cube.record(chunk);
        }

        let mut errs = [0u64; 3];
        let kinds = [
            SummaryKind::Mg,
            SummaryKind::SpaceSaving,
            SummaryKind::HybridQuantile,
        ];
        for (slot, kind) in kinds.into_iter().enumerate() {
            let (meta, merged) = cube.query(0, u64::MAX, kind);
            assert_eq!(meta.segments_merged as usize, segs, "covering set is all S");
            assert_eq!(
                meta.covered_weight, n as u64,
                "full range covers the stream"
            );
            let merged = merged.unwrap();
            errs[slot] = match kind {
                SummaryKind::HybridQuantile => (0..=100)
                    .filter_map(|i| rank.quantile(i as f64 / 100.0).copied())
                    .map(|x| rank.rank_error(&x, merged.rank(x).unwrap()))
                    .max()
                    .unwrap_or(0),
                _ => freq
                    .iter()
                    .map(|(item, truth)| merged.point(*item).unwrap().abs_diff(truth))
                    .max()
                    .unwrap_or(0),
            };
        }
        table.row(vec![
            segs.to_string(),
            errs[0].to_string(),
            errs[1].to_string(),
            errs[2].to_string(),
            bound.to_string(),
            errs.iter().all(|&e| e <= bound).to_string(),
        ]);
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// X1 — extension golden examples + error comparison

fn x1_low_error_golden() {
    let mut table = Table::new(
        "x1",
        "extension (low-total-error merges): golden examples from the extension \
         paper's §5, then random 2-way merges (200 trials per k)",
        &[
            "case",
            "k",
            "baseline total err",
            "low-error total err",
            "reduction",
        ],
    );

    // Golden: Frequent example (§5.1).
    let fa = SortedSummary::new(vec![(2u64, 4u64), (3, 11), (4, 22), (5, 33)]);
    let fb = SortedSummary::new(vec![(7u64, 10u64), (8, 20), (9, 30), (10, 40)]);
    let base = merge_frequent_baseline(&fa, &fb, 5);
    let low = merge_frequent_low_error(&fa, &fb, 5);
    table.row(vec![
        "golden frequent §5.1".into(),
        "5".into(),
        base.total_error.to_string(),
        low.total_error.to_string(),
        fmt(1.0 - low.total_error as f64 / base.total_error as f64),
    ]);

    // Golden: SpaceSaving example (§5.2).
    let sa = SortedSummary::new(vec![(1u64, 5u64), (2, 7), (3, 12), (4, 14), (5, 18)]);
    let sb = SortedSummary::new(vec![(6u64, 4u64), (7, 16), (8, 17), (9, 19), (10, 23)]);
    let base = merge_space_saving_baseline(&sa, &sb, 5);
    let low = merge_space_saving_low_error(&sa, &sb, 5);
    table.row(vec![
        "golden space-saving §5.2".into(),
        "5".into(),
        base.total_error.to_string(),
        low.total_error.to_string(),
        fmt(1.0 - low.total_error as f64 / base.total_error as f64),
    ]);

    // Random summaries across k.
    let mut rng = Rng64::new(0xE0);
    for k in [5usize, 16, 64, 256] {
        let mut base_f = 0u64;
        let mut low_f = 0u64;
        let mut base_s = 0u64;
        let mut low_s = 0u64;
        for _ in 0..200 {
            let mk = |rng: &mut Rng64, cap: usize, base_id: u64| {
                SortedSummary::new(
                    (0..cap)
                        .map(|i| (base_id + i as u64, 1 + rng.below(10_000)))
                        .collect(),
                )
            };
            let a = mk(&mut rng, k - 1, 0);
            let b = mk(&mut rng, k - 1, 1_000_000);
            base_f += merge_frequent_baseline(&a, &b, k).total_error;
            low_f += merge_frequent_low_error(&a, &b, k).total_error;
            let a = mk(&mut rng, k, 0);
            let b = mk(&mut rng, k, 1_000_000);
            base_s += merge_space_saving_baseline(&a, &b, k).total_error;
            low_s += merge_space_saving_low_error(&a, &b, k).total_error;
        }
        table.row(vec![
            "random frequent".into(),
            k.to_string(),
            base_f.to_string(),
            low_f.to_string(),
            fmt(1.0 - low_f as f64 / base_f as f64),
        ]);
        table.row(vec![
            "random space-saving".into(),
            k.to_string(),
            base_s.to_string(),
            low_s.to_string(),
            fmt(1.0 - low_s as f64 / base_s as f64),
        ]);
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// X3 — extension end-to-end: the low-error merge on real streams

fn x3_low_error_end_to_end() {
    use ms_lowerror::{merge_frequent_baseline, merge_frequent_low_error};

    let n = 1 << 20;
    let mut table = Table::new(
        "x3",
        &format!(
            "extension end-to-end: two sites summarize a Zipf stream (n = {n}) \
             with Frequent (k−1 counters), then merge; error = Σ |est − true| \
             over all items of the merged summary"
        ),
        &[
            "zipf s",
            "k",
            "baseline Σ|err|",
            "low-error Σ|err|",
            "baseline max",
            "low-error max",
        ],
    );

    for zipf_s in [1.1, 1.5] {
        let items = StreamKind::Zipf {
            s: zipf_s,
            universe: 1 << 22,
        }
        .generate(n, 201);
        let oracle = FrequencyOracle::from_stream(items.iter().copied());
        let parts = Partitioner::ByKey.split(&items, 2);
        for k in [64usize, 256] {
            let site = |part: &Vec<u64>| {
                let mut mg = MgSummary::new(k - 1);
                mg.extend_from(part.iter().copied());
                SortedSummary::from_mg(&mg)
            };
            let (a, b) = (site(&parts[0]), site(&parts[1]));
            let score = |summary: &SortedSummary<u64>| -> (u64, u64) {
                let mut total = 0u64;
                let mut max = 0u64;
                for (item, est) in summary.entries() {
                    let err = est.abs_diff(oracle.count(item));
                    total += err;
                    max = max.max(err);
                }
                (total, max)
            };
            let base = merge_frequent_baseline(&a, &b, k);
            let low = merge_frequent_low_error(&a, &b, k);
            let (bt, bm) = score(&base.summary);
            let (lt, lm) = score(&low.summary);
            table.row(vec![
                format!("{zipf_s}"),
                k.to_string(),
                bt.to_string(),
                lt.to_string(),
                bm.to_string(),
                lm.to_string(),
            ]);
        }
    }
    table.emit();
}

// ---------------------------------------------------------------------------
// X2 — extension: reduction distribution at scale

fn x2_low_error_distribution() {
    let trials = 1_000;
    let k = 64;
    let mut rng = Rng64::new(0xE1);
    let mut ratios_f: Vec<f64> = Vec::with_capacity(trials);
    let mut ratios_s: Vec<f64> = Vec::with_capacity(trials);
    for _ in 0..trials {
        // Zipf-profiled counters model realistic site summaries.
        let mk = |rng: &mut Rng64, cap: usize, base_id: u64| {
            SortedSummary::new(
                (0..cap)
                    .map(|i| {
                        let rank = 1 + rng.below(cap as u64);
                        (base_id + i as u64, 1 + 100_000 / rank)
                    })
                    .collect(),
            )
        };
        let a = mk(&mut rng, k - 1, 0);
        let b = mk(&mut rng, k - 1, 1_000_000);
        let base = merge_frequent_baseline(&a, &b, k).total_error;
        let low = merge_frequent_low_error(&a, &b, k).total_error;
        if base > 0 {
            ratios_f.push(low as f64 / base as f64);
        }
        let a = mk(&mut rng, k, 0);
        let b = mk(&mut rng, k, 1_000_000);
        let base = merge_space_saving_baseline(&a, &b, k).total_error;
        let low = merge_space_saving_low_error(&a, &b, k).total_error;
        if base > 0 {
            ratios_s.push(low as f64 / base as f64);
        }
    }
    let stats = |v: &mut Vec<f64>| -> (f64, f64, f64, f64) {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (
            v[v.len() / 2],
            v[v.len() * 95 / 100],
            *v.last().unwrap(),
            v.iter().filter(|&&r| r < 1.0).count() as f64 / v.len() as f64,
        )
    };
    let (f_p50, f_p95, f_max, f_frac) = stats(&mut ratios_f);
    let (s_p50, s_p95, s_max, s_frac) = stats(&mut ratios_s);

    let mut table = Table::new(
        "x2",
        &format!(
            "extension: low-error/baseline total-error ratio over {trials} random \
             2-way merges, k = {k} (ratio < 1 means the low-error merge wins)"
        ),
        &[
            "algorithm",
            "p50 ratio",
            "p95 ratio",
            "max ratio",
            "fraction improved",
        ],
    );
    table.row(vec![
        "frequent".into(),
        fmt(f_p50),
        fmt(f_p95),
        fmt(f_max),
        fmt(f_frac),
    ]);
    table.row(vec![
        "space-saving".into(),
        fmt(s_p50),
        fmt(s_p95),
        fmt(s_max),
        fmt(s_frac),
    ]);
    table.emit();
}
