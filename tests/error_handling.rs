//! Failure injection: incompatible summaries must merge into typed errors,
//! never into a silently wrong summary.

use mergeable_summaries::core::{ItemSummary, MergeError, Mergeable, Summary, Wire};
use mergeable_summaries::range::{EpsApprox2d, Halving};
use mergeable_summaries::{
    AmsF2Sketch, BottomKSample, CountMinSketch, CountSketch, EpsKernel, Frame, GkSummary,
    HybridQuantile, KnownNQuantile, MgSummary, SpaceSavingSummary,
};

#[test]
fn mg_capacity_mismatch() {
    let mut a = MgSummary::new(4);
    a.update(1u64);
    let b = MgSummary::new(5);
    match a.merge(b) {
        Err(MergeError::CapacityMismatch {
            parameter,
            left,
            right,
        }) => {
            assert!(parameter.contains("counters"));
            assert_eq!((left, right), (4, 5));
        }
        other => panic!("expected CapacityMismatch, got {other:?}"),
    }
}

#[test]
fn ss_capacity_mismatch() {
    let a = SpaceSavingSummary::<u64>::new(4);
    let b = SpaceSavingSummary::<u64>::new(8);
    assert!(matches!(
        a.merge(b),
        Err(MergeError::CapacityMismatch { .. })
    ));
}

/// Bytes of an MG summary with `k` counters, one counter `{1: 5}` and
/// total weight `n`, followed by `tail`.
fn mg_bytes(k: usize, n: u64, tail: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    k.encode_into(&mut out);
    1u64.encode_into(&mut out); // one counter
    1u64.encode_into(&mut out);
    5u64.encode_into(&mut out);
    n.encode_into(&mut out);
    out.extend_from_slice(tail);
    out
}

#[test]
fn a_merge_whose_total_weight_overflows_is_refused_and_leaves_self_untouched() {
    // Each side decodes legally (stored weight 5 ≤ n), but the merged
    // n = 2·(2⁶³ + 7) does not fit in a u64.
    let n = (1u64 << 63) + 7;
    let bytes = mg_bytes(3, n, &[]);
    let mut a = MgSummary::<u64>::decode(&bytes).unwrap();
    let b = MgSummary::<u64>::decode(&bytes).unwrap();
    match a.merge_from(b) {
        Err(MergeError::Incompatible(msg)) => assert!(msg.contains("overflows"), "{msg}"),
        other => panic!("expected Incompatible, got {other:?}"),
    }
    assert_eq!(a.encode(), bytes);
    assert_eq!((a.total_weight(), a.estimate(&1)), (n, 5));

    // SpaceSaving merges run the same code: merged form, k = 4.
    let bytes = mg_bytes(4, n, &[1]);
    let mut a = SpaceSavingSummary::<u64>::decode(&bytes).unwrap();
    let b = SpaceSavingSummary::<u64>::decode(&bytes).unwrap();
    assert!(matches!(a.merge_from(b), Err(MergeError::Incompatible(_))));
    assert_eq!(a.encode(), bytes);
}

#[test]
fn count_min_shape_and_seed_mismatches() {
    let base = || CountMinSketch::<u64>::new(32, 4, 7);
    assert!(matches!(
        base().merge(CountMinSketch::new(64, 4, 7)),
        Err(MergeError::CapacityMismatch { .. })
    ));
    assert!(matches!(
        base().merge(CountMinSketch::new(32, 5, 7)),
        Err(MergeError::CapacityMismatch { .. })
    ));
    assert!(matches!(
        base().merge(CountMinSketch::new(32, 4, 8)),
        Err(MergeError::SeedMismatch { .. })
    ));
}

#[test]
fn count_sketch_and_ams_family_mismatches() {
    let cs = CountSketch::<u64>::new(16, 3, 1);
    assert!(matches!(
        cs.merge(CountSketch::new(16, 3, 2)),
        Err(MergeError::SeedMismatch { .. })
    ));
    let ams = AmsF2Sketch::<u64>::new(8, 3, 1);
    assert!(matches!(
        ams.merge(AmsF2Sketch::new(16, 3, 1)),
        Err(MergeError::CapacityMismatch { .. })
    ));
}

#[test]
fn quantile_epsilon_mismatches() {
    let a = KnownNQuantile::<u64>::new(0.1, 1_000, 0);
    let b = KnownNQuantile::<u64>::new(0.01, 1_000, 0);
    assert!(matches!(
        a.merge(b),
        Err(MergeError::EpsilonMismatch { .. })
    ));
    let a = HybridQuantile::<u64>::new(0.1, 0);
    let b = HybridQuantile::<u64>::new(0.01, 0);
    assert!(matches!(
        a.merge(b),
        Err(MergeError::EpsilonMismatch { .. })
    ));
    let a = GkSummary::<u64>::new(0.1);
    let b = GkSummary::<u64>::new(0.2);
    assert!(matches!(
        a.merge(b),
        Err(MergeError::EpsilonMismatch { .. })
    ));
}

#[test]
fn sample_capacity_mismatch() {
    let a = BottomKSample::<u64>::new(16, 0);
    let b = BottomKSample::<u64>::new(32, 0);
    assert!(matches!(
        a.merge(b),
        Err(MergeError::CapacityMismatch { .. })
    ));
}

#[test]
fn approx2d_parameter_mismatches() {
    let a = EpsApprox2d::new(64, Halving::Hilbert, 0);
    let b = EpsApprox2d::new(32, Halving::Hilbert, 0);
    assert!(matches!(
        a.merge(b),
        Err(MergeError::CapacityMismatch { .. })
    ));
    let a = EpsApprox2d::new(64, Halving::Hilbert, 0);
    let b = EpsApprox2d::new(64, Halving::SortedX, 0);
    assert!(matches!(a.merge(b), Err(MergeError::Incompatible(_))));
}

#[test]
fn kernel_frame_mismatch() {
    let a = EpsKernel::new(0.1, Frame::identity());
    let b = EpsKernel::new(
        0.1,
        Frame {
            x0: 0.0,
            y0: 0.0,
            sx: 2.0,
            sy: 1.0,
        },
    );
    assert!(matches!(a.merge(b), Err(MergeError::FrameMismatch)));
}

#[test]
fn error_messages_name_the_parameter() {
    let a = MgSummary::<u64>::new(4);
    let err = a.merge(MgSummary::new(5)).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("counters") && msg.contains('4') && msg.contains('5'),
        "{msg}"
    );

    let k = EpsKernel::new(0.1, Frame::identity());
    let err = k
        .merge(EpsKernel::new(
            0.1,
            Frame {
                x0: 1.0,
                y0: 0.0,
                sx: 1.0,
                sy: 1.0,
            },
        ))
        .unwrap_err();
    assert!(err.to_string().contains("frame"), "{err}");
}

#[test]
fn failed_merges_do_not_panic_in_trees() {
    // A mismatched leaf inside a tree surfaces as an error from merge_all.
    use mergeable_summaries::core::{merge_all, MergeTree};
    let mut leaves: Vec<MgSummary<u64>> = (0..4).map(|_| MgSummary::new(4)).collect();
    leaves.push(MgSummary::new(5));
    let result = merge_all(leaves, MergeTree::Balanced);
    assert!(matches!(result, Err(MergeError::CapacityMismatch { .. })));
}
