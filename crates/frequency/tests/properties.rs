//! Property tests for the heavy-hitter summaries: the §3 invariants over
//! randomized weighted update sequences (seeded, so failures reproduce).

use ms_core::{ItemSummary, Mergeable, Rng64, Summary, Wire};
use ms_frequency::isomorphism::{check_isomorphism, mg_offset};
use ms_frequency::{ExactCounts, MgSummary, SpaceSavingSummary};

const CASES: u64 = 96;

/// Weighted updates over a small universe (collisions likely).
fn updates(rng: &mut Rng64) -> Vec<(u64, u64)> {
    let len = rng.below_usize(600);
    (0..len)
        .map(|_| (rng.below(40), 1 + rng.below(49)))
        .collect()
}

/// MG with weighted updates: never overestimates, integer-exact error
/// bound, capacity respected, total weight exact.
#[test]
fn mg_weighted_invariant() {
    let mut rng = Rng64::new(0xF0_01);
    for _ in 0..CASES {
        let updates = updates(&mut rng);
        let k = 1 + rng.below_usize(23);
        let mut mg = MgSummary::new(k);
        let mut exact = ExactCounts::new();
        for &(item, w) in &updates {
            mg.update_weighted(item, w);
            exact.update_weighted(item, w);
        }
        assert_eq!(mg.total_weight(), exact.total_weight());
        assert!(mg.size() <= k);
        let err_num = mg.error_numerator();
        for item in 0u64..40 {
            let truth = exact.estimate(&item);
            let est = mg.estimate(&item);
            assert!(est <= truth);
            assert!((truth - est) * (k as u64 + 1) <= err_num);
            assert!(mg.estimate_upper(&item) >= truth);
        }
    }
}

/// SpaceSaving with weighted updates: bracket always correct, sum of
/// counters equals n in the streaming representation.
#[test]
fn ss_weighted_invariant() {
    let mut rng = Rng64::new(0xF0_02);
    for _ in 0..CASES {
        let updates = updates(&mut rng);
        let k = 2 + rng.below_usize(22);
        let mut ss = SpaceSavingSummary::new(k);
        let mut exact = ExactCounts::new();
        for &(item, w) in &updates {
            ss.update_weighted(item, w);
            exact.update_weighted(item, w);
        }
        assert_eq!(ss.total_weight(), exact.total_weight());
        assert!(ss.size() <= k);
        let stored: u64 = ss.iter().map(|(_, c)| c).sum();
        assert_eq!(stored, ss.total_weight(), "stream repr sums to n");
        for item in 0u64..40 {
            let truth = exact.estimate(&item);
            assert!(ss.lower_bound(&item) <= truth);
            assert!(ss.upper_bound(&item) >= truth);
        }
    }
}

/// The isomorphism lemma holds for weighted streams too (the decrement
/// argument carries through with weights).
#[test]
fn isomorphism_with_weights() {
    let mut rng = Rng64::new(0xF0_03);
    for _ in 0..CASES {
        let updates = updates(&mut rng);
        let k = 1 + rng.below_usize(15);
        let mut mg = MgSummary::new(k);
        let mut ss = SpaceSavingSummary::new(k + 1);
        for &(item, w) in &updates {
            mg.update_weighted(item, w);
            ss.update_weighted(item, w);
        }
        assert!(check_isomorphism(&mg, &ss).is_ok());
        assert!(mg_offset(&mg).is_some());
    }
}

/// Splitting a weighted stream at any point and merging the halves keeps
/// the invariant (merge = concatenation, error-wise).
#[test]
fn split_anywhere_and_merge() {
    let mut rng = Rng64::new(0xF0_04);
    for _ in 0..CASES {
        let updates = updates(&mut rng);
        let k = 1 + rng.below_usize(15);
        let cut_ppm = rng.below(1_000_000);
        let cut = (updates.len() as u64 * cut_ppm / 1_000_000) as usize;
        let mut left = MgSummary::new(k);
        let mut right = MgSummary::new(k);
        let mut exact = ExactCounts::new();
        for &(item, w) in &updates[..cut] {
            left.update_weighted(item, w);
            exact.update_weighted(item, w);
        }
        for &(item, w) in &updates[cut..] {
            right.update_weighted(item, w);
            exact.update_weighted(item, w);
        }
        let merged = left.merge(right).unwrap();
        let err_num = merged.error_numerator();
        assert!(err_num <= merged.total_weight());
        for item in 0u64..40 {
            let truth = exact.estimate(&item);
            let est = merged.estimate(&item);
            assert!(est <= truth);
            assert!((truth - est) * (k as u64 + 1) <= err_num);
        }
    }
}

/// A SpaceSaving view over an MG summary runs MG's own code: driven in
/// lockstep with a bare `MgSummary` through the same weighted updates and
/// merges, after every step it holds the same MG table (same bytes) and
/// its bounds are MG's `estimate` / `estimate_upper`, stored or absent.
#[test]
fn ss_view_is_mg_in_lockstep() {
    let mut rng = Rng64::new(0xF0_06);
    let assert_lockstep = |mg: &MgSummary<u64>, ss: &SpaceSavingSummary<u64>| {
        assert_eq!(ss.clone().into_mg().encode(), mg.encode());
        // Items 0..40 are the update universe; 40..48 are never stored.
        for item in 0u64..48 {
            assert_eq!(ss.lower_bound(&item), mg.estimate(&item));
            assert_eq!(ss.upper_bound(&item), mg.estimate_upper(&item));
        }
    };
    for _ in 0..CASES {
        let k = 1 + rng.below_usize(15);
        let mut mg = MgSummary::new(k);
        let mut ss = SpaceSavingSummary::from_mg(MgSummary::new(k));
        for (item, w) in updates(&mut rng) {
            if rng.below(16) == 0 {
                // A merge step: fold in a side summary built in lockstep.
                let mut side_mg = MgSummary::new(k);
                let mut side_ss = SpaceSavingSummary::from_mg(MgSummary::new(k));
                for (item, w) in updates(&mut rng).into_iter().take(40) {
                    side_mg.update_weighted(item, w);
                    side_ss.update_weighted(item, w);
                }
                mg.merge_from(side_mg).unwrap();
                ss.merge_from(side_ss).unwrap();
            } else {
                mg.update_weighted(item, w);
                ss.update_weighted(item, w);
            }
            assert_lockstep(&mg, &ss);
        }
    }
}

/// SpaceSaving's conversion to MG form preserves the total weight and
/// produces a valid MG summary.
#[test]
fn ss_into_mg_is_valid() {
    let mut rng = Rng64::new(0xF0_05);
    for _ in 0..CASES {
        let updates = updates(&mut rng);
        let k = 2 + rng.below_usize(14);
        let mut ss = SpaceSavingSummary::new(k);
        let mut exact = ExactCounts::new();
        for &(item, w) in &updates {
            ss.update_weighted(item, w);
            exact.update_weighted(item, w);
        }
        let mg = ss.into_mg();
        assert_eq!(mg.total_weight(), exact.total_weight());
        assert!(mg.size() < k);
        let err_num = mg.error_numerator();
        for item in 0u64..40 {
            let truth = exact.estimate(&item);
            let est = mg.estimate(&item);
            assert!(est <= truth);
            assert!((truth - est) * (k as u64) <= err_num);
        }
    }
}
