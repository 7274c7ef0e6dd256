//! Acceptance tests for the overload control plane, end to end over real
//! TCP and with no sleeps but the one stall test 5 waits out:
//!
//! 1. A seeded 4-client ingest storm against a deliberately small server
//!    (one slow shard, two-deep queues, tight watermarks) must be shed
//!    with typed `Overloaded` answers — never a wedge, never a lost byte
//!    of *acked* weight — and the shed/admit split must be visible in
//!    the telemetry registry.
//! 2. A request arriving with its deadline budget already spent is shed
//!    before dispatch.
//! 3. A coordinator facing a silent node marks it dead within the retry
//!    budget, keeps answering partial gathers with an explicit
//!    `coverage` fraction without touching it again, and routes to it
//!    only once an operator rejoin proves it back.
//! 4. A shed is an answer: it reaches the coordinator's caller typed,
//!    with the backend's own retry hint, and keeps the node alive.
//! 5. A timed-out ingest is neither replayed nor sent on: it reaches the
//!    caller typed, and the backend that was slow to absorb it holds it
//!    once.
//! 6. Pressure-driven coarsening holds the sealed-segment count at the
//!    watermark while range queries stay within `ε·n` of exact ranks on
//!    the admitted stream (PODS'12 Definition 1: merging summaries —
//!    here adjacent segments — does not degrade the bound).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mergeable_summaries::cluster::{ClusterConfig, Coordinator};
use mergeable_summaries::core::wire::FRAME_HEADER_LEN;
use mergeable_summaries::core::{RankOracle, ServiceError, Summary, WireFrame};
use mergeable_summaries::service::{
    plan_fn, Client, ClientOptions, Engine, FaultAction, ManualClock, NodeState, OverloadConfig,
    Request, RequestEnvelope, Response, SegmentConfig, Server, ServiceConfig, SummaryKind,
    TraceContext, RESPONSE_TAG,
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

/// Health lifecycle against a *slow* node — a listener that accepts (via
/// the kernel backlog) but never answers, so every request times out. A
/// timeout makes the node suspect, the retry drawn from the budget times
/// out too and makes it dead; gathers then report partial coverage
/// without touching it, a rejoin against the still-dark listener fails,
/// and a rejoin against a real node restores it. The only real time spent
/// is the client's read timeout on the dark socket — there is no sleep
/// anywhere. The name keeps "breaker": the node's health state is what
/// opens (goes dead) and closes (rejoins) here.
#[test]
fn breaker_opens_on_slow_node_and_partial_gathers_report_coverage() {
    let nodes: Vec<_> = (0..2).map(|_| backend(SummaryKind::Mg)).collect();
    // Node 2 is dark: connects land in the accept backlog, reads hang.
    let dark = TcpListener::bind("127.0.0.1:0").expect("dark listener");
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
            .dead_after(2)
            .retry_budget(10, 1_000),
    )
    .expect("coordinator");
    let node2 = || coordinator.cluster_info().nodes[2].clone();

    // First gather: the dark leg times out (suspect), the budget grants
    // one retry, it times out too — two consecutive failures, the node
    // is dead. The survivors still answer: partial gather with an
    // explicit coverage fraction, not an error.
    let report = coordinator.gather().expect("partial gather");
    assert_eq!(report.answered, 2, "two live nodes answer");
    assert!(
        (report.coverage - 2.0 / 3.0).abs() < 1e-9,
        "coverage must report the dark third, got {}",
        report.coverage
    );
    assert_eq!(node2().state, NodeState::Dead);
    assert_eq!(node2().failures, 2, "the first attempt and its retry");
    assert_eq!(coordinator.retry_budget().withdrawn(), 1);
    assert!(
        coordinator.retry_budget().tokens() > 0,
        "the node must die long before the budget drains"
    );

    // A dead node is left out: same partial coverage, no socket touched.
    let skipped = coordinator.gather().expect("gather around the dead node");
    assert_eq!((skipped.answered, skipped.fanout), (2, 2));
    assert_eq!(node2().failures, 2, "a gather never touches a dead node");

    // Only the pinger or a rejoin touches a dead node. A rejoin against
    // the still-dark listener times out, and the node stays dead.
    assert!(coordinator.rejoin(2, None).is_err(), "dark node rejoined");
    assert_eq!(node2().state, NodeState::Dead);

    // Replace the dark node with a real one and rejoin it: the ping
    // succeeds and the node is alive at once.
    drop(dark);
    let (replacement_engine, replacement) = backend(SummaryKind::Mg);
    let new_addr = replacement.local_addr().to_string();
    coordinator.rejoin(2, Some(&new_addr)).expect("rejoin");
    assert_eq!(node2().state, NodeState::Alive);

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
    assert_eq!(node2().state, NodeState::Alive);
    drop(replacement_engine);
    coordinator.shutdown();
}

/// A scripted backend: it takes one connection and answers every frame
/// on it with the same typed shed, whatever the frame asked, until the
/// peer hangs up.
fn shedding_backend(retry_after_micros: u64) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("scripted backend");
    let addr = listener.local_addr().expect("scripted addr");
    let shed = WireFrame::from_value(RESPONSE_TAG, &Response::Overloaded { retry_after_micros })
        .to_bytes();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("coordinator connects");
        let mut header = [0u8; FRAME_HEADER_LEN];
        while conn.read_exact(&mut header).is_ok() {
            let len = u32::from_le_bytes(header[5..].try_into().expect("4 bytes"));
            let mut payload = vec![0u8; len as usize];
            if conn.read_exact(&mut payload).is_err() || conn.write_all(&shed).is_err() {
                return;
            }
        }
    });
    (addr, server)
}

/// A shed proves the node alive: every ingest against a backend that
/// sheds everything reaches the caller as that backend's own typed shed,
/// and the node never leaves `Alive` — however many sheds in a row.
#[test]
fn backend_sheds_reach_the_caller_typed_and_keep_the_node_alive() {
    let (addr, backend) = shedding_backend(777);
    let coordinator = Coordinator::start(
        ClusterConfig::new([addr.to_string()])
            .client_options(fast_options())
            .ping_interval(None),
    )
    .expect("coordinator");
    for call in 0..5 {
        assert_eq!(
            coordinator.ingest(&[1, 2, 3]),
            Err(ServiceError::Overloaded {
                retry_after_micros: 777
            }),
            "ingest {call}"
        );
        let node = &coordinator.cluster_info().nodes[0];
        assert_eq!(node.state, NodeState::Alive, "ingest {call}");
    }
    // Dropping the coordinator hangs up on the backend, which then ends.
    drop(coordinator);
    backend.join().expect("scripted backend");
}

/// An ingest leg that times out after its frame was written may still be
/// absorbed, so the coordinator must neither replay it nor send it on.
/// The one backend stalls its first absorb past the coordinator's read
/// timeout, under the default `dead_after(3)`, so the node stays alive
/// and a retry would find it: the caller hears the timeout, and once the
/// stall is over the backend holds the batch exactly once.
#[test]
fn a_timed_out_ingest_reaches_the_caller_and_lands_once() {
    let engine = Engine::start(
        ServiceConfig::new(SummaryKind::Mg, EPS)
            .shards(1)
            .seed(SEED)
            .fault_plan(plan_fn(|_, idx| match idx {
                0 => FaultAction::StallMs(600),
                _ => FaultAction::Continue,
            })),
    )
    .expect("engine");
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("server");
    let coordinator = Coordinator::start(
        ClusterConfig::new([server.local_addr().to_string()])
            .client_options(ClientOptions {
                read_timeout: Duration::from_millis(150),
                ..fast_options()
            })
            .ping_interval(None),
    )
    .expect("coordinator");
    let batch = stream(1_000);
    let weight = batch.len() as u64;
    let timed_out = coordinator.ingest(&batch);
    // The stalled absorb, and anything sent after it, is done once the
    // backend has nothing in flight.
    let give_up = Instant::now() + Duration::from_secs(30);
    while engine.admission().inflight() > 0 {
        assert!(Instant::now() < give_up, "the stalled absorb never ended");
        std::thread::sleep(Duration::from_millis(5));
    }
    engine.flush().expect("flush");
    assert_eq!(
        engine.snapshot().summary.total_weight(),
        weight,
        "the backend must hold the batch once"
    );
    assert!(
        matches!(timed_out, Err(ServiceError::Timeout { .. })),
        "the caller must hear the timeout, got {timed_out:?}"
    );
    // One timeout leaves the node alive: the next batch lands.
    coordinator.ingest(&batch).expect("ingest after the stall");
    coordinator.flush().expect("flush through the coordinator");
    assert_eq!(engine.snapshot().summary.total_weight(), 2 * weight);
    assert_eq!(coordinator.cluster_info().nodes[0].state, NodeState::Alive);
    coordinator.shutdown();
    server.stop();
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
