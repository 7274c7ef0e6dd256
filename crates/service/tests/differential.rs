//! Differential tests: the sharded concurrent engine must satisfy the same
//! paper error bounds as a single-threaded summary of the identical seeded
//! stream. This is the mergeability theorem made operational — the split
//! into shard deltas and the order of their folds is just one more
//! arbitrary merge tree, so it cannot degrade the `εn` guarantee.

use ms_core::{FrequencyOracle, Summary};
use ms_frequency::{MgSummary, SpaceSavingSummary};
use ms_service::{Engine, ServiceConfig, ShardSummary, SummaryKind};
use ms_workloads::StreamKind;

const N: usize = 200_000;
const EPS: f64 = 0.01;

fn stream(seed: u64) -> Vec<u64> {
    StreamKind::Zipf {
        s: 1.2,
        universe: 1 << 18,
    }
    .generate(N, seed)
}

/// Run `items` through a concurrent engine and return the final summary.
fn engine_summary(kind: SummaryKind, items: &[u64], shards: usize) -> ShardSummary {
    let cfg = ServiceConfig::new(kind, EPS)
        .shards(shards)
        .delta_updates(4_096)
        .seed(0xD1FF);
    let engine = Engine::start(cfg).unwrap();
    for chunk in items.chunks(1_000) {
        engine.ingest(chunk.to_vec()).unwrap();
    }
    let snapshot = engine.shutdown();
    assert_eq!(snapshot.summary.total_weight(), items.len() as u64);
    snapshot.summary.clone()
}

/// The single-threaded reference: one summary absorbing the whole stream.
fn reference_summary(kind: SummaryKind, items: &[u64]) -> ShardSummary {
    let cfg = ServiceConfig::new(kind, EPS).seed(0xD1FF);
    let mut s = ShardSummary::new(&cfg, 0);
    for &v in items {
        s.update(v);
    }
    s
}

/// Max |estimate − truth| over all items that actually occur.
fn max_point_error(summary: &ShardSummary, oracle: &FrequencyOracle<u64>) -> u64 {
    oracle
        .iter()
        .map(|(item, truth)| summary.point(*item).unwrap().abs_diff(truth))
        .max()
        .unwrap_or(0)
}

#[test]
fn mg_concurrent_matches_reference_bound() {
    let items = stream(11);
    let oracle = FrequencyOracle::from_stream(items.iter().copied());
    let bound = (EPS * N as f64).ceil() as u64;
    let concurrent = engine_summary(SummaryKind::Mg, &items, 4);
    let reference = reference_summary(SummaryKind::Mg, &items);
    assert!(max_point_error(&concurrent, &oracle) <= bound);
    assert!(max_point_error(&reference, &oracle) <= bound);
}

#[test]
fn space_saving_concurrent_matches_reference_bound() {
    let items = stream(12);
    let oracle = FrequencyOracle::from_stream(items.iter().copied());
    let bound = (EPS * N as f64).ceil() as u64;
    let concurrent = engine_summary(SummaryKind::SpaceSaving, &items, 4);
    let reference = reference_summary(SummaryKind::SpaceSaving, &items);
    assert!(max_point_error(&concurrent, &oracle) <= bound);
    assert!(max_point_error(&reference, &oracle) <= bound);
}

/// Lemma 1 in the engine: a SpaceSaving engine runs MG(k−1) from its
/// first item. With one shard the merge tree is fixed by the batches, so
/// the SpaceSaving snapshot must be the MG engine's table, items included,
/// and answer exactly as the SpaceSaving view of the MG snapshot.
#[test]
fn one_shard_space_saving_engine_is_the_mg_engine_viewed() {
    let items = stream(16);
    let oracle = FrequencyOracle::from_stream(items.iter().copied());
    let (ss, mg) = match (
        engine_summary(SummaryKind::SpaceSaving, &items, 1),
        engine_summary(SummaryKind::Mg, &items, 1),
    ) {
        (ShardSummary::SpaceSaving(ss), ShardSummary::Mg(mg)) => {
            (SpaceSavingSummary::from_mg(ss), mg)
        }
        (a, b) => panic!("kinds {:?} and {:?}", a.kind(), b.kind()),
    };
    let table = |mg: MgSummary<u64>| {
        let mut t: Vec<(u64, u64)> = mg.iter().map(|(item, c)| (*item, c)).collect();
        t.sort_unstable();
        t
    };
    assert!(mg.size() > 0);
    assert_eq!(table(ss.clone().into_mg()), table(mg.clone()));

    let view = SpaceSavingSummary::from_mg(mg);
    let absent = (1u64 << 40)..(1u64 << 40) + 100;
    for item in oracle.iter().map(|(item, _)| *item).chain(absent) {
        assert_eq!(ss.estimate(&item), view.estimate(&item), "item {item}");
    }
    assert!(!view.heavy_hitters(EPS).is_empty());
    for phi in [EPS, 0.02, 0.05, 0.1] {
        let sorted = |s: &SpaceSavingSummary<u64>| {
            let mut hh = s.heavy_hitters(phi);
            hh.sort_unstable();
            hh
        };
        assert_eq!(sorted(&ss), sorted(&view), "heavy_hitters({phi})");
    }
}

#[test]
fn count_min_concurrent_matches_reference_bound() {
    let items = stream(13);
    let oracle = FrequencyOracle::from_stream(items.iter().copied());
    // Count-Min: per-item overestimate within εn with probability 1−δ;
    // check every occurring item against the bound (seeded, so stable).
    let bound = (EPS * N as f64).ceil() as u64;
    let concurrent = engine_summary(SummaryKind::CountMin, &items, 4);
    let reference = reference_summary(SummaryKind::CountMin, &items);
    for (item, truth) in oracle.iter() {
        let est_c = concurrent.point(*item).unwrap();
        let est_r = reference.point(*item).unwrap();
        assert!(est_c >= truth, "count-min never underestimates");
        assert!(est_r >= truth);
        assert!(est_c - truth <= bound, "item {item}: {est_c} vs {truth}");
        assert!(est_r - truth <= bound);
    }
    // The linear sketch is *identical* regardless of sharding: merging
    // cell-wise additions commutes exactly, so the concurrent sketch equals
    // the single-threaded one cell for cell.
    for probe in 0..1_000u64 {
        assert_eq!(concurrent.point(probe), reference.point(probe));
    }
}

#[test]
fn hybrid_quantile_concurrent_matches_reference_bound() {
    let items = stream(14);
    let mut sorted = items.clone();
    sorted.sort_unstable();
    let true_rank = |x: u64| sorted.partition_point(|&v| v < x) as u64;
    let bound = (EPS * N as f64).ceil() as u64;

    let concurrent = engine_summary(SummaryKind::HybridQuantile, &items, 4);
    let reference = reference_summary(SummaryKind::HybridQuantile, &items);
    let probes: Vec<u64> = (1..40).map(|i| i * (1 << 18) / 40).collect();
    for &x in &probes {
        let truth = true_rank(x);
        assert!(
            concurrent.rank(x).unwrap().abs_diff(truth) <= bound,
            "concurrent rank({x})"
        );
        assert!(
            reference.rank(x).unwrap().abs_diff(truth) <= bound,
            "reference rank({x})"
        );
    }
}

#[test]
fn shard_count_does_not_change_the_guarantee() {
    let items = stream(15);
    let oracle = FrequencyOracle::from_stream(items.iter().copied());
    let bound = (EPS * N as f64).ceil() as u64;
    for shards in [1, 2, 4, 8] {
        let summary = engine_summary(SummaryKind::Mg, &items, shards);
        assert!(
            max_point_error(&summary, &oracle) <= bound,
            "{shards} shards"
        );
    }
}
