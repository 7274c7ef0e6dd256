//! Definition 1 under either split of the stream across cluster slots.
//!
//! The coordinator forwards each ingest batch whole to the slot its batch
//! counter hashes to; it used to hash every key. The paper's Definition 1
//! promises `ε·n` for *any* split and any merge tree, so both must hold
//! the same bound — which is what licenses routing frames. No sockets
//! here: three local [`ShardSummary`]s stand in for the nodes and the
//! split goes through the same [`HashRing`] the coordinator asks.

use ms_cluster::{ClusterConfig, HashRing};
use ms_core::{FrequencyOracle, RankOracle, Summary};
use ms_service::{ServiceConfig, ShardSummary, SummaryKind};
use ms_workloads::StreamKind;

const EPS: f64 = 0.01;
const N: usize = 300_000;
const BATCH: usize = 256;
const SLOTS: usize = 3;

/// One summary per slot, fed by `slot_of(batch index, item)`, then the
/// coordinator's one-shot merge. Returns the merge and the per-slot weights.
fn split_and_merge(
    kind: SummaryKind,
    stream: &[u64],
    slot_of: impl Fn(u64, u64) -> usize,
) -> (ShardSummary, Vec<u64>) {
    let cfg = ServiceConfig::new(kind, EPS).seed(0xDEF1);
    let mut nodes: Vec<ShardSummary> = (0..SLOTS).map(|n| ShardSummary::new(&cfg, n)).collect();
    for (batch, items) in stream.chunks(BATCH).enumerate() {
        for &item in items {
            nodes[slot_of(batch as u64, item)].update(item);
        }
    }
    let weights: Vec<u64> = nodes.iter().map(|s| s.total_weight()).collect();
    let mut nodes = nodes.into_iter();
    let mut merged = nodes.next().expect("three slots");
    for node in nodes {
        merged.merge_in_place(node).expect("same family, same ε");
    }
    (merged, weights)
}

#[test]
fn key_split_and_frame_split_both_hold_eps_n() {
    let stream = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 16,
    }
    .generate(N, 0x5EED_00D1);
    let defaults = ClusterConfig::new(["x"]);
    let ring = HashRing::new(SLOTS, defaults.vnodes);
    let home = |key: u64| ring.route(key, |_| false).expect("no dead slot");
    let bound = EPS * N as f64;

    let exact = FrequencyOracle::from_stream(stream.iter().copied());
    let mut probes: Vec<u64> = exact.top_k(100).into_iter().map(|(item, _)| item).collect();
    probes.extend((0..100).map(|i| i * 601)); // and the tail, absent items included
    let ranks = RankOracle::from_stream(stream.iter().copied());
    let cuts: Vec<u64> = (1..100)
        .map(|p| *ranks.quantile(p as f64 / 100.0).expect("non-empty"))
        .collect();

    for kind in [
        SummaryKind::Mg,
        SummaryKind::SpaceSaving,
        SummaryKind::CountMin,
        SummaryKind::HybridQuantile,
    ] {
        let per_key = split_and_merge(kind, &stream, |_, item| home(item));
        // The coordinator's batch counter starts at its seed.
        let per_frame = split_and_merge(kind, &stream, |batch, _| home(defaults.seed + batch));
        for (split, (merged, weights)) in [("key", &per_key), ("frame", &per_frame)] {
            let what = format!("{} under the {split} split", kind.label());
            assert_eq!(merged.total_weight(), N as u64, "{what}: weight");
            assert_eq!(
                weights.iter().sum::<u64>(),
                N as u64,
                "{what}: slot weights"
            );
            if kind == SummaryKind::HybridQuantile {
                for &x in &cuts {
                    let err = ranks.rank_error(&x, merged.rank(x).expect("quantile family"));
                    assert!(err as f64 <= bound, "{what}: rank({x}) off by {err}");
                }
            } else {
                for &item in &probes {
                    let estimate = merged.point(item).expect("frequency family");
                    let err = estimate.abs_diff(exact.count(&item));
                    assert!(err as f64 <= bound, "{what}: point({item}) off by {err}");
                }
            }
        }
        // The vnode arcs balance a counter as they balance keys: every
        // slot summarises about a third of the stream.
        for (slot, &w) in per_frame.1.iter().enumerate() {
            let share = w as f64 / (N / SLOTS) as f64;
            assert!(
                (0.75..=1.25).contains(&share),
                "{}: slot {slot} holds {share:.2} of a third ({:?})",
                kind.label(),
                per_frame.1
            );
        }
    }
}
