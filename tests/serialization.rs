//! Serialization round-trips: the whole point of a mergeable summary is to
//! be shipped between nodes, so every summary must survive
//! encode → decode → merge with identical answers. All shipping uses the
//! workspace's compact binary wire codec (`ms_core::Wire`).

use mergeable_summaries::core::{ItemSummary, Mergeable, Summary, Wire};
use mergeable_summaries::quantiles::RankSummary;
use mergeable_summaries::range::{EpsApprox2d, Halving};
use mergeable_summaries::service::{ServiceConfig, ShardSummary, SummaryKind};
use mergeable_summaries::workloads::{CloudKind, StreamKind, ValueDist};
use mergeable_summaries::{
    AmsF2Sketch, BottomKSample, CountMinSketch, CountSketch, EpsKernel, Frame, GkSummary,
    HybridQuantile, KnownNQuantile, MgSummary, SpaceSavingSummary,
};

fn roundtrip<T: Wire>(value: &T) -> T {
    T::decode(&value.encode()).expect("decode")
}

#[test]
fn mg_roundtrip_preserves_estimates_and_merging() {
    let items = StreamKind::Zipf {
        s: 1.2,
        universe: 1000,
    }
    .generate(20_000, 1);
    let mut mg = MgSummary::for_epsilon(0.02);
    mg.extend_from(items.iter().copied());

    let restored: MgSummary<u64> = roundtrip(&mg);
    assert_eq!(restored.total_weight(), mg.total_weight());
    assert_eq!(restored.capacity(), mg.capacity());
    for probe in 0..1000u64 {
        assert_eq!(restored.estimate(&probe), mg.estimate(&probe));
    }

    // A decoded summary must still merge (the shipping scenario).
    let mut other = MgSummary::for_epsilon(0.02);
    other.extend_from(items.iter().copied());
    let merged = restored.merge(other).unwrap();
    assert_eq!(merged.total_weight(), 2 * mg.total_weight());
}

#[test]
fn space_saving_roundtrip_both_representations() {
    let items = StreamKind::Uniform { universe: 500 }.generate(10_000, 2);
    let mut ss = SpaceSavingSummary::new(32);
    ss.extend_from(items.iter().copied());

    // Streaming representation.
    let restored = roundtrip(&ss);
    for probe in 0..500u64 {
        assert_eq!(restored.upper_bound(&probe), ss.upper_bound(&probe));
        assert_eq!(restored.lower_bound(&probe), ss.lower_bound(&probe));
    }

    // Merged representation.
    let mut other = SpaceSavingSummary::new(32);
    other.extend_from(items.iter().copied());
    let merged = ss.merge(other).unwrap();
    let restored = roundtrip(&merged);
    for probe in 0..500u64 {
        assert_eq!(restored.upper_bound(&probe), merged.upper_bound(&probe));
    }
}

#[test]
fn quantile_summaries_roundtrip() {
    let values = ValueDist::Normal.generate(30_000, 3);

    let mut known = KnownNQuantile::new(0.05, 30_000, 5);
    let mut hybrid = HybridQuantile::new(0.05, 5);
    let mut gk = GkSummary::new(0.05);
    let mut sample = BottomKSample::new(256, 5);
    for &v in &values {
        known.insert(v);
        hybrid.insert(v);
        gk.insert(v);
        sample.insert(v);
    }

    let (k2, h2, g2, s2) = (
        roundtrip(&known),
        roundtrip(&hybrid),
        roundtrip(&gk),
        roundtrip(&sample),
    );
    for phi in [0.1, 0.5, 0.9] {
        assert_eq!(k2.quantile(phi), known.quantile(phi));
        assert_eq!(h2.quantile(phi), hybrid.quantile(phi));
        assert_eq!(g2.quantile(phi), gk.quantile(phi));
        assert_eq!(s2.quantile(phi), sample.quantile(phi));
    }
    let probe = values[17];
    assert_eq!(k2.rank(&probe), known.rank(&probe));
    assert_eq!(h2.rank(&probe), hybrid.rank(&probe));
}

#[test]
fn deserialized_randomized_summaries_merge_deterministically() {
    // The RNG state must survive the round-trip: merging two restored
    // summaries gives exactly the merge of the originals.
    let values = ValueDist::Uniform.generate(20_000, 7);
    let mk = |seed: u64, slice: &[u64]| {
        let mut q = HybridQuantile::new(0.05, seed);
        for &v in slice {
            q.insert(v);
        }
        q
    };
    let a = mk(1, &values[..10_000]);
    let b = mk(2, &values[10_000..]);
    let direct = a.clone().merge(b.clone()).unwrap();
    let shipped = roundtrip(&a).merge(roundtrip(&b)).unwrap();
    for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
        assert_eq!(direct.quantile(phi), shipped.quantile(phi));
    }
}

#[test]
fn sketches_roundtrip_bit_exact() {
    let items = StreamKind::Zipf {
        s: 1.1,
        universe: 2000,
    }
    .generate(15_000, 9);
    let mut cm = CountMinSketch::new(64, 4, 11);
    let mut cs = CountSketch::new(64, 4, 11);
    let mut ams = AmsF2Sketch::new(32, 3, 11);
    for &item in &items {
        cm.update(item);
        cs.update(item);
        ams.update(item);
    }
    let cm2 = roundtrip(&cm);
    let cs2 = roundtrip(&cs);
    let ams2 = roundtrip(&ams);
    // Array-backed sketches re-encode to the exact same bytes.
    assert_eq!(cm2.encode(), cm.encode());
    assert_eq!(cs2.encode(), cs.encode());
    assert_eq!(ams2.encode(), ams.encode());
    for probe in 0..2000u64 {
        assert_eq!(cm2.estimate(&probe), cm.estimate(&probe));
        assert_eq!(cs2.estimate(&probe), cs.estimate(&probe));
    }
    assert_eq!(ams2.estimate_f2(), ams.estimate_f2());
    // Restored sketches stay in the same linear family.
    assert!(cm2.merge(cm).is_ok());
}

#[test]
fn geometric_summaries_roundtrip() {
    let pts = CloudKind::Disk.generate(5_000, 13);
    let frame = Frame::from_points(&pts);
    let mut kernel = EpsKernel::new(0.05, frame);
    kernel.extend_from(pts.iter().copied());
    let mut approx = EpsApprox2d::new(128, Halving::Hilbert, 1);
    approx.extend_from(pts.iter().copied());

    let k2: EpsKernel = roundtrip(&kernel);
    assert_eq!(k2.size(), kernel.size());
    for i in 0..90 {
        let dir = mergeable_summaries::core::unit_dir(i as f64 * 0.07);
        assert_eq!(k2.width(dir), kernel.width(dir));
    }
    // Restored kernel keeps its frame and still merges.
    assert!(k2.merge(kernel).is_ok());

    let a2: EpsApprox2d = roundtrip(&approx);
    let query = mergeable_summaries::core::Rect::new(-0.5, 0.5, -0.5, 0.5);
    assert_eq!(a2.estimate_count(&query), approx.estimate_count(&query));
}

#[test]
fn service_summaries_roundtrip_for_every_family() {
    // The engine's runtime-dispatched summary (what the TCP protocol and
    // the snapshot API ship) round-trips losslessly for all four families.
    let items = StreamKind::Zipf {
        s: 1.2,
        universe: 4096,
    }
    .generate(50_000, 21);
    for kind in SummaryKind::all() {
        let cfg = ServiceConfig::new(kind, 0.02).seed(21);
        let mut s = ShardSummary::new(&cfg, 0);
        for &v in &items {
            s.update(v);
        }
        let back = roundtrip(&s);
        assert_eq!(back.kind(), kind);
        assert_eq!(back.total_weight(), s.total_weight());
        assert_eq!(back.size(), s.size(), "{}", kind.label());
        for probe in 0..64 {
            assert_eq!(back.point(probe), s.point(probe), "{}", kind.label());
            assert_eq!(back.rank(probe), s.rank(probe), "{}", kind.label());
        }
        assert_eq!(back.quantile(0.5), s.quantile(0.5), "{}", kind.label());
        // Decoding keeps every byte: re-encoding gives the same bytes.
        assert_eq!(back.encode(), s.encode(), "{}", kind.label());
        // Decoded summaries must still merge with live ones.
        assert!(back.merge(s).is_ok());
    }
}
