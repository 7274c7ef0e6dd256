//! End-to-end differential harness for the segment cube's range path,
//! over the real wire protocol: a durable engine behind a TCP
//! [`Server`], driven by a [`Client`], answers seeded randomized time
//! windows that are replayed against an exact per-window oracle.
//!
//! For every window the harness independently derives the covering
//! segment set from the `SegmentInfo` index (inclusive intersection on
//! `[start_micros, end_micros]`), so coverage metadata — segment count,
//! open-segment inclusion, seq span, covered weight — is checked
//! exactly, and the merged answer's error is checked against the
//! `ε·n + 1` bound where `n` is the weight of *the queried range*, not
//! the whole stream. Windows straddling the still-open segment are
//! drawn on purpose, and each pinned seed ends with a `kill -9`-style
//! crash, a recovery, fresh ingest, and a re-query of windows spanning
//! the crash point.
//!
//! Time never passes by sleeping: the engine runs on a shared
//! [`ManualClock`] and every seal boundary is seeded.

use std::path::PathBuf;
use std::sync::Arc;

use mergeable_summaries::core::{FrequencyOracle, RankOracle, Rng64, Summary, Wire};
use mergeable_summaries::service::{
    Client, CubeClock, DurabilityConfig, Engine, ManualClock, SegmentConfig, SegmentMeta, Server,
    ServiceConfig, ShardSummary, SummaryKind,
};

mod support;
use support::scratch_dir;

const EPS: f64 = 0.05;
const BATCH: usize = 100;
const UNIVERSE: u64 = 64;
/// Randomized windows replayed per pinned seed (the ISSUE floor is 100).
const WINDOWS: usize = 120;

/// Small universe keeps collisions (the hard case for the frequency
/// families) likely and gives the rank probes meaningful mass.
fn stream(rng: &mut Rng64, batches: usize) -> Vec<u64> {
    (0..batches * BATCH).map(|_| rng.below(UNIVERSE)).collect()
}

fn config(seed: u64, dir: &PathBuf, clock: &Arc<ManualClock>) -> ServiceConfig {
    ServiceConfig::new(SummaryKind::Mg, EPS)
        .shards(2)
        .delta_updates(64)
        .seed(seed)
        .durability(DurabilityConfig::new(dir))
        .segments(
            SegmentConfig::new()
                .seal_batches(8)
                .seal_micros(5_000)
                .clock(Arc::clone(clock) as Arc<dyn CubeClock>),
        )
}

/// Ingest `batches` over the wire with seeded clock steps, recording the
/// cube time at which each batch seq landed. The occasional jump past
/// `seal_micros` forces wall-clock seals between the batch-count ones.
fn ingest(
    client: &mut Client,
    clock: &Arc<ManualClock>,
    rng: &mut Rng64,
    items: &[u64],
    batch_time: &mut Vec<u64>,
) {
    for batch in items.chunks(BATCH) {
        let step = if rng.below(10) == 0 {
            6_000
        } else {
            rng.below(1_500)
        };
        batch_time.push(clock.advance(step));
        client.ingest(batch.to_vec()).unwrap();
    }
}

/// The covering segment set a correct engine must merge for
/// `[ws, we]`: every indexed segment whose time span intersects the
/// window (inclusive on both ends), open segment included.
fn covering(index: &[SegmentMeta], ws: u64, we: u64) -> Vec<SegmentMeta> {
    index
        .iter()
        .filter(|s| s.batches > 0 && s.start_micros <= we && s.end_micros >= ws)
        .cloned()
        .collect()
}

/// Check one window against the exact oracle: coverage metadata first
/// (derived independently from the segment index), then the merged
/// answer's error on the covered span. Returns the covered weight so
/// callers can count non-empty windows.
fn check_window(
    client: &mut Client,
    index: &[SegmentMeta],
    items: &[u64],
    ws: u64,
    we: u64,
    phi: f64,
) -> u64 {
    let cover = covering(index, ws, we);
    let q = client.range_quantile(ws, we, phi).unwrap();
    let hh = client.range_heavy_hitters(ws, we, phi).unwrap();

    for (label, answer) in [("quantile", &q), ("heavy-hitters", &hh)] {
        let meta = &answer.meta;
        assert_eq!(meta.start_micros, ws, "{label}: window start echoed");
        assert_eq!(meta.end_micros, we, "{label}: window end echoed");
        assert_eq!(
            meta.segments_merged,
            cover.len() as u32,
            "{label} [{ws},{we}]: merged segment count vs index covering set"
        );
        assert_eq!(
            meta.open_included,
            cover.iter().any(|s| !s.sealed),
            "{label} [{ws},{we}]: open-segment inclusion"
        );
        if cover.is_empty() {
            assert_eq!(meta.covered_weight, 0, "{label}: empty covering weight");
            assert_eq!(meta.start_seq, 0, "{label}: empty covering start seq");
            assert_eq!(meta.end_seq, 0, "{label}: empty covering end seq");
            assert!(answer.summary.is_empty(), "{label}: no summary when empty");
            continue;
        }
        let start_seq = cover.iter().map(|s| s.start_seq).min().unwrap();
        let end_seq = cover.iter().map(|s| s.end_seq).max().unwrap();
        assert_eq!(meta.start_seq, start_seq, "{label} [{ws},{we}]: start seq");
        assert_eq!(meta.end_seq, end_seq, "{label} [{ws},{we}]: end seq");
        let span = &items[(start_seq as usize - 1) * BATCH..end_seq as usize * BATCH];
        assert_eq!(
            meta.covered_weight,
            span.len() as u64,
            "{label} [{ws},{we}]: covered weight vs exact seq span"
        );
        let merged = ShardSummary::decode(&answer.summary).unwrap();
        assert_eq!(
            merged.total_weight(),
            meta.covered_weight,
            "{label} [{ws},{we}]: merged summary weight"
        );

        let bound = EPS * meta.covered_weight as f64 + 1.0;
        match label {
            "quantile" => {
                // The merged summary's rank estimates, probed across the
                // universe, and the returned φ-quantile itself must stay
                // within ε·(covered weight) of the span's exact ranks.
                let oracle = RankOracle::from_stream(span.iter().copied());
                for i in 0..=16u64 {
                    let x = i * UNIVERSE / 16;
                    let est = merged.rank(x).expect("range quantile merges rank family");
                    let err = oracle.rank_error(&x, est);
                    assert!(
                        (err as f64) <= bound,
                        "[{ws},{we}]: rank({x}) error {err} above bound {bound:.1}"
                    );
                }
                let value = q.value.expect("non-empty window has a quantile");
                let target = (phi * span.len() as f64) as u64;
                let err = oracle.rank_error(&value, target);
                assert!(
                    (err as f64) <= bound,
                    "[{ws},{we}]: phi={phi:.2} quantile {value} rank error {err} above {bound:.1}"
                );
            }
            _ => {
                // Every reported heavy hitter is accurate, and every
                // true heavy hitter above the φ+ε threshold is reported.
                let oracle = FrequencyOracle::from_stream(span.iter().copied());
                for &(item, est) in &hh.items {
                    let truth = oracle.count(&item);
                    assert!(
                        (est.abs_diff(truth) as f64) <= bound,
                        "[{ws},{we}]: item {item} estimate {est} vs exact {truth}, bound {bound:.1}"
                    );
                }
                let threshold = (phi + EPS) * span.len() as f64 + 1.0;
                for (item, truth) in oracle.iter() {
                    if (truth as f64) >= threshold {
                        assert!(
                            hh.items.iter().any(|(i, _)| i == item),
                            "[{ws},{we}]: true heavy hitter {item} ({truth}) missing"
                        );
                    }
                }
            }
        }
    }
    q.meta.covered_weight
}

/// One seeded window: anchored at (jittered) batch landing times so
/// windows align with real segment boundaries often, with a tail of the
/// draws deliberately running past the newest data to straddle the open
/// segment (`we = u64::MAX`) or cover nothing at all.
fn draw_window(rng: &mut Rng64, batch_time: &[u64], now: u64) -> (u64, u64) {
    let anchor = batch_time[rng.below_usize(batch_time.len())];
    let ws = match rng.below(4) {
        0 => 0,
        1 => anchor,
        _ => anchor.saturating_sub(rng.below(2_000)),
    };
    let we = match rng.below(4) {
        // Open-ended: always straddles the open segment.
        0 => u64::MAX,
        // Past the newest batch but finite: open-straddling too.
        1 => now + 1 + rng.below(10_000),
        _ => ws + rng.below(now.saturating_sub(ws).max(1) + 5_000),
    };
    (ws, we.max(ws))
}

/// The full lifecycle for one pinned seed: ingest → ≥100 randomized
/// windows → crash (`Server::kill`) → recover → fresh ingest → re-query
/// windows spanning the crash point.
fn run_seed(seed: u64, tag: &str) {
    let dir = scratch_dir(tag);
    let clock = Arc::new(ManualClock::new(1));
    let mut rng = Rng64::new(seed);

    let k1 = 50 + rng.below_usize(30); // pre-crash batches
    let k2 = 20 + rng.below_usize(15); // post-recovery batches
    let items = stream(&mut rng, k1 + k2);
    let mut batch_time = Vec::with_capacity(k1 + k2);

    let engine = Engine::start(config(seed, &dir, &clock)).unwrap();
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    ingest(
        &mut client,
        &clock,
        &mut rng,
        &items[..k1 * BATCH],
        &mut batch_time,
    );

    // The index the windows are checked against; `now_micros` reads the
    // same clock that stamped the segments.
    let report = client.segments().unwrap();
    assert!(
        report.segments.iter().filter(|s| s.sealed).count() >= 2,
        "seeded ingest must seal several segments"
    );
    assert_eq!(
        report.segments.iter().map(|s| s.weight).sum::<u64>(),
        (k1 * BATCH) as u64,
        "index covers the whole stream"
    );

    let mut straddled = 0usize;
    let mut nonempty = 0usize;
    for _ in 0..WINDOWS {
        let (ws, we) = draw_window(&mut rng, &batch_time, report.now_micros);
        let phi = 0.05 + 0.4 * (rng.below(1_000) as f64) / 1_000.0;
        let open_hit = !covering(&report.segments, ws, we).iter().all(|s| s.sealed);
        let covered = check_window(
            &mut client,
            &report.segments,
            &items[..k1 * BATCH],
            ws,
            we,
            phi,
        );
        straddled += usize::from(open_hit);
        nonempty += usize::from(covered > 0);
    }
    assert!(
        straddled >= WINDOWS / 10,
        "only {straddled} of {WINDOWS} windows straddled the open segment"
    );
    assert!(
        nonempty >= WINDOWS / 2,
        "only {nonempty} of {WINDOWS} windows covered any data"
    );

    // Crash the node mid-flight the way `kill -9` does, then recover on
    // the same data dir and the same (monotone) clock.
    server.kill();
    drop(client);

    let engine = Engine::start(config(seed, &dir, &clock)).unwrap();
    let recovery = engine.recovery().expect("durable engine reports recovery");
    assert!(
        recovery.cube_segments_adopted > 0,
        "no sealed segment survived the crash"
    );
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Fresh post-recovery ingest: seqs continue the WAL's numbering, so
    // straddling windows now merge pre-crash and post-recovery segments.
    ingest(
        &mut client,
        &clock,
        &mut rng,
        &items[k1 * BATCH..],
        &mut batch_time,
    );
    let report = client.segments().unwrap();
    assert_eq!(
        report.segments.iter().map(|s| s.weight).sum::<u64>(),
        ((k1 + k2) * BATCH) as u64,
        "post-recovery index covers pre-crash and fresh batches"
    );

    // Re-query across the crash point: a window anchored mid-phase-1
    // reaching past the crash into phase-2 data, and the full stream.
    for &(ws, we) in &[
        (batch_time[k1 / 2], u64::MAX),
        (batch_time[k1 - 1], batch_time[k1 + k2 / 2]),
        (0, u64::MAX),
    ] {
        let covered = check_window(&mut client, &report.segments, &items, ws, we, 0.1);
        assert!(covered > 0, "crash-spanning window [{ws},{we}] was empty");
    }
    // And a fresh seeded spread over the now-two-epoch index.
    for _ in 0..WINDOWS / 4 {
        let (ws, we) = draw_window(&mut rng, &batch_time, report.now_micros);
        check_window(&mut client, &report.segments, &items, ws, we, 0.1);
    }

    drop(client);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn range_differential_seed_f4175eed() {
    run_seed(0xF417_5EED, "f4175eed");
}

#[test]
fn range_differential_seed_b0b5cafe() {
    run_seed(0xB0B5_CAFE, "b0b5cafe");
}

#[test]
fn range_differential_seed_20260806() {
    run_seed(0x2026_0806, "20260806");
}
