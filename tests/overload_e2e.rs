//! Acceptance tests for the overload control plane, end to end over real
//! TCP and with no sleeps anywhere:
//!
//! 1. A seeded 4-client ingest storm against a deliberately small server
//!    (one slow shard, two-deep queues, tight watermarks) must be shed
//!    with typed `Overloaded` answers — never a wedge, never a lost byte
//!    of *acked* weight — and the shed/admit split must be visible in
//!    the telemetry registry.
//! 2. A request arriving with its deadline budget already spent is shed
//!    before dispatch.
//! 3. A coordinator facing a dead node trips that node's circuit
//!    breaker within the retry budget, keeps answering partial gathers
//!    with an explicit `coverage` fraction, and closes the breaker via
//!    a half-open probe once the node rejoins — breaker windows driven
//!    by a manual clock, not wall time.
//! 4. Pressure-driven coarsening holds the sealed-segment count at the
//!    watermark while range queries stay within `ε·n` of exact ranks on
//!    the admitted stream (PODS'12 Definition 1: merging summaries —
//!    here adjacent segments — does not degrade the bound).

use std::sync::Arc;
use std::time::Duration;

use mergeable_summaries::cluster::{BreakerConfig, BreakerState, ClusterConfig, Coordinator};
use mergeable_summaries::core::{RankOracle, ServiceError, Summary};
use mergeable_summaries::service::{
    plan_fn, Client, ClientOptions, Engine, FaultAction, ManualClock, OverloadConfig, Request,
    RequestEnvelope, Response, SegmentConfig, Server, ServiceConfig, SummaryKind, TraceContext,
};
use mergeable_summaries::workloads::StreamKind;

const EPS: f64 = 0.02;
const SEED: u64 = 0x0E2E_10AD;

fn stream(n: usize) -> Vec<u64> {
    StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 14,
    }
    .generate(n, SEED)
}

fn fast_options() -> ClientOptions {
    ClientOptions {
        connect_timeout: Duration::from_secs(5),
        read_timeout: Duration::from_secs(5),
        retries: 1,
        backoff: Duration::from_millis(5),
        ..ClientOptions::default()
    }
}

/// Storm scenario: four concurrent flooders against a server whose
/// capacity is roughly a quarter of the offered load. Every request is
/// either acked or answered with a typed shed; afterwards a fresh client
/// is served immediately and the snapshot holds exactly the acked weight.
#[test]
fn storm_is_shed_typed_never_wedges_and_loses_no_acked_weight() {
    let cfg = ServiceConfig::new(SummaryKind::Mg, EPS)
        .shards(1)
        .queue_depth(2)
        .delta_updates(256)
        .seed(SEED)
        .overload(
            OverloadConfig::default()
                .max_inflight(8)
                .shed_watermark(0.5)
                .ingest_watermark(0.5)
                .retry_after_micros(5_000),
        )
        // A quarter of all batches stall 1ms inside the single shard, so
        // the two-deep queue saturates under concurrent load.
        .fault_plan(plan_fn(|_, idx| {
            if idx % 4 == 0 {
                FaultAction::StallMs(1)
            } else {
                FaultAction::Continue
            }
        }));
    let engine = Engine::start(cfg).expect("engine");
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("server");
    let addr = server.local_addr();

    let items = stream(16_000);
    let workers: Vec<_> = items
        .chunks(items.len() / 4)
        .map(|slice| {
            let slice = slice.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect_with(
                    addr,
                    ClientOptions {
                        deadline: Some(Duration::from_secs(2)),
                        ..fast_options()
                    },
                )
                .expect("flood client");
                let mut acked = 0u64;
                let mut sheds = 0u64;
                for batch in slice.chunks(100) {
                    match client.ingest(batch.to_vec()) {
                        Ok(()) => acked += batch.len() as u64,
                        Err(ServiceError::Overloaded { retry_after_micros }) => {
                            assert!(retry_after_micros > 0, "shed must carry a retry hint");
                            sheds += 1;
                        }
                        Err(other) => panic!("storm must shed typed, got {other}"),
                    }
                }
                (acked, sheds)
            })
        })
        .collect();
    let mut acked = 0u64;
    let mut client_sheds = 0u64;
    for worker in workers {
        let (a, s) = worker.join().expect("flood thread");
        acked += a;
        client_sheds += s;
    }

    // Shed-not-wedged: a *fresh* client connects and is served right
    // away — flush is control-plane and doubles as the drain barrier.
    let mut after = Client::connect_with(addr, fast_options()).expect("post-storm client");
    after.flush().expect("post-storm flush");
    assert!(client_sheds > 0, "the storm never overloaded the server");
    assert!(acked > 0, "the storm shed everything");

    let admission = engine.admission();
    assert!(admission.sheds() >= client_sheds, "every shed is counted");
    assert_eq!(admission.inflight(), 0, "no in-flight slot leaked");

    // The shed/admit split is observable: registry counters carry it.
    let telemetry = after.telemetry().expect("telemetry rpc");
    let counter = |name: &str| {
        telemetry
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("counter {name} missing from registry"))
    };
    assert!(counter("admission_admitted_total") > 0);
    assert!(counter("admission_shed_total{class=\"ingest\"}") > 0);

    // No acked loss: the snapshot holds exactly the admitted weight.
    server.stop();
    let snap = engine.snapshot();
    assert_eq!(
        snap.summary.total_weight(),
        acked,
        "shedding must not lose acked data"
    );
}

/// A request whose deadline budget is already spent must be refused
/// before it queues — and counted as a deadline shed.
#[test]
fn spent_deadline_is_shed_before_dispatch() {
    let engine = Engine::start(ServiceConfig::new(SummaryKind::SpaceSaving, EPS).seed(SEED))
        .expect("engine");
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("server");
    let mut client = Client::connect_with(server.local_addr(), fast_options()).expect("client");
    let budget = |deadline_micros| RequestEnvelope {
        ctx: Some(TraceContext {
            trace_id: 0x51,
            parent_span: 0,
        }),
        deadline_micros: Some(deadline_micros),
    };

    // A generous budget flows through untouched.
    let ok = client
        .call_enveloped(budget(5_000_000), &Request::Ping)
        .expect("ping under budget");
    assert_eq!(ok, Response::Ok);

    // A spent budget is shed before dispatch, typed.
    let shed = client
        .call_enveloped(budget(0), &Request::Quantile(0.5))
        .expect("transport ok; shed is in-band");
    let Response::Overloaded { .. } = shed else {
        panic!("spent deadline must shed, got {shed:?}");
    };
    assert!(engine.admission().sheds() >= 1, "deadline shed not counted");
    server.stop();
}

fn backend(kind: SummaryKind) -> (Arc<Engine>, Server) {
    let engine = Engine::start(ServiceConfig::new(kind, EPS).shards(2).seed(SEED)).expect("engine");
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("server");
    (engine, server)
}

/// Breaker lifecycle against a *slow* node — a listener that accepts
/// (via the kernel backlog) but never answers, so every request times
/// out. Closed → open on consecutive timeouts (the retry drawn from the
/// budget), partial gathers with explicit coverage while open, a failed
/// half-open probe re-trips, and an operator rejoin resets. The open
/// window runs on a manual clock; the only real time spent is the
/// client's read timeout on the dark socket — there is no sleep
/// anywhere.
#[test]
fn breaker_opens_on_slow_node_and_partial_gathers_report_coverage() {
    let clock = Arc::new(ManualClock::new(0));
    let nodes: Vec<_> = (0..2).map(|_| backend(SummaryKind::Mg)).collect();
    // Node 2 is dark: connects land in the accept backlog, reads hang.
    let dark = std::net::TcpListener::bind("127.0.0.1:0").expect("dark listener");
    let mut addrs: Vec<String> = nodes
        .iter()
        .map(|(_, s)| s.local_addr().to_string())
        .collect();
    addrs.push(dark.local_addr().expect("dark addr").to_string());
    let coordinator = Coordinator::start(
        ClusterConfig::new(addrs)
            .client_options(ClientOptions {
                connect_timeout: Duration::from_secs(2),
                read_timeout: Duration::from_millis(150),
                retries: 0,
                backoff: Duration::from_millis(1),
                ..ClientOptions::default()
            })
            .ping_interval(None)
            // Keep membership out of the picture: timeouts only count
            // toward suspect/dead via these thresholds, set far above
            // anything this test generates, so every fail-fast below is
            // the breaker's decision, not the ring's.
            .thresholds(100, 200)
            .breaker(BreakerConfig {
                failure_threshold: 2,
                open_micros: 1_000_000,
                half_open_successes: 1,
            })
            .retry_budget(10, 1_000)
            .clock(Arc::clone(&clock) as Arc<dyn mergeable_summaries::service::CubeClock>),
    )
    .expect("coordinator");

    // First gather: the dark leg times out, the budget grants one retry,
    // it times out too — `failure_threshold` consecutive failures, the
    // breaker trips. The survivors still answer: partial gather with an
    // explicit coverage fraction, not an error.
    let report = coordinator.gather().expect("partial gather");
    assert_eq!(report.answered, 2, "two live nodes answer");
    assert!(
        (report.coverage - 2.0 / 3.0).abs() < 1e-9,
        "coverage must report the dark third, got {}",
        report.coverage
    );
    assert_eq!(coordinator.breaker_state(2), BreakerState::Open);
    assert_eq!(coordinator.breaker_trips(2), 1);
    assert!(
        coordinator.retry_budget().withdrawn() >= 1,
        "the timeout retry must draw from the budget"
    );
    assert!(
        coordinator.retry_budget().tokens() > 0,
        "the breaker must open long before the budget drains"
    );

    // While open, the leg fails fast: same partial coverage, no socket
    // touched, no new trip.
    let fast = coordinator.gather().expect("gather while open");
    assert_eq!(fast.answered, 2);
    assert_eq!(coordinator.breaker_trips(2), 1, "fail-fast is not a trip");

    // Advance past the open window while the node is still dark: the
    // next leg is the half-open probe, it times out, and the breaker
    // reopens with a fresh window — the automatic path never trusts a
    // node that has not proven itself.
    clock.advance(1_000_001);
    let probed = coordinator.gather().expect("gather around failed probe");
    assert_eq!(probed.answered, 2, "failed probe keeps the leg dark");
    assert_eq!(coordinator.breaker_state(2), BreakerState::Open);
    assert_eq!(coordinator.breaker_trips(2), 2, "probe failure re-trips");

    // Replace the dark node with a real one and rejoin it. Rejoin is
    // the operator asserting recovery: its ping bypasses the fail-fast
    // and a success resets the breaker outright — no window to wait
    // out.
    drop(dark);
    let (replacement_engine, replacement) = backend(SummaryKind::Mg);
    let new_addr = replacement.local_addr().to_string();
    coordinator.rejoin(2, Some(&new_addr)).expect("rejoin");
    assert_eq!(coordinator.breaker_state(2), BreakerState::Closed);

    // Full service restored: ingest spreads over all three nodes and a
    // gather covers every slot again.
    coordinator
        .ingest(&stream(3_000))
        .expect("post-heal ingest");
    coordinator.flush().expect("flush");
    let healed = coordinator.gather().expect("gather after rejoin");
    assert_eq!(healed.answered, 3, "rejoin restores the leg");
    assert!((healed.coverage - 1.0).abs() < 1e-9);
    let merged = healed.summary.expect("merged summary");
    assert_eq!(merged.total_weight(), 3_000);
    assert_eq!(coordinator.breaker_state(2), BreakerState::Closed);
    drop(replacement_engine);
    coordinator.shutdown();
}

/// Coarsening under segment pressure: with `seal_batches(1)` every batch
/// seals a segment, so 24 batches cross a watermark of 4 twenty times.
/// The cube must merge adjacent segments (tier > 0) to hold the sealed
/// count at the watermark, and a full-window range quantile must still
/// land within `ε·n` of the exact rank over everything admitted.
#[test]
fn coarsening_holds_sealed_count_and_range_accuracy() {
    let clock = Arc::new(ManualClock::new(1_000));
    let cfg = ServiceConfig::new(SummaryKind::HybridQuantile, EPS)
        .shards(2)
        .seed(SEED)
        .segments(
            SegmentConfig::new()
                .seal_batches(1)
                .coarsen_watermark(4)
                .clock(Arc::clone(&clock) as Arc<dyn mergeable_summaries::service::CubeClock>),
        );
    let engine = Engine::start(cfg).expect("engine");
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("server");
    let mut client = Client::connect_with(server.local_addr(), fast_options()).expect("client");

    let items = stream(24_000);
    for batch in items.chunks(1_000) {
        client.ingest(batch.to_vec()).expect("ingest");
        client.flush().expect("flush seals the batch");
        clock.advance(1_000);
    }

    let report = client.segments().expect("segment report");
    let sealed: Vec<_> = report.segments.iter().filter(|s| s.sealed).collect();
    assert!(
        sealed.len() <= 4,
        "coarsening must hold sealed count at the watermark, got {}",
        sealed.len()
    );
    assert!(
        sealed.iter().any(|s| s.tier > 0),
        "24 seals over watermark 4 must have coarsened"
    );
    let total: u64 = sealed.iter().map(|s| s.weight).sum();
    assert_eq!(
        total,
        items.len() as u64,
        "coarsening is lossless on weight"
    );

    // Accuracy on the admitted stream: the full window covers every
    // item, and the merged (coarsened) summary owes the same ε·n bound
    // an uncoarsened one does.
    let answer = client
        .range_quantile(0, report.now_micros, 0.5)
        .expect("range quantile");
    assert_eq!(answer.meta.covered_weight, items.len() as u64);
    let value = answer.value.expect("median over full window");
    let oracle = RankOracle::from_stream(items.iter().copied());
    let target = (0.5 * items.len() as f64) as u64;
    let err = oracle.rank_error(&value, target);
    let bound = EPS * items.len() as f64;
    assert!(
        err as f64 <= bound,
        "median rank error {err} above ε·n bound {bound:.1}"
    );
    server.stop();
}
