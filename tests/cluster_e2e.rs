//! Acceptance test for the federated cluster: a coordinator over three
//! real TCP backend nodes, itself fronted by a TCP server and driven
//! exclusively through the wire protocol, must push a million-item
//! seeded Zipf stream through a node kill and a WAL-backed rejoin and
//! still answer heavy-hitter and quantile queries within the paper's
//! strict `ε·n` bound against exact oracles.
//!
//! The kill lands at a batch boundary and the victim runs with
//! fsync-always durability, so every acked item is either on a survivor
//! or in the victim's WAL — after the rejoin the cluster must account
//! for all `n` items exactly, and the one-shot scatter/gather merge
//! (PODS'12 Definition 1) owes the same error bound a single node does.

use std::path::PathBuf;
use std::sync::Arc;

use mergeable_summaries::cluster::Coordinator;
use mergeable_summaries::core::{FrequencyOracle, RankOracle, Summary, Wire};
use mergeable_summaries::service::{
    Client, DurabilityConfig, FsyncPolicy, NodeState, Request, Response, Server, ServiceConfig,
    ShardSummary, SummaryKind,
};

mod support;
use support::{cluster_config, scratch_dir, zipf, Node};

const N: usize = 1_000_000;
const EPS: f64 = 0.01;
const SEED: u64 = 0xC1E2E;
/// Ingest batch size; the kill lands on a batch boundary.
const CHUNK: usize = 2_000;
/// Stream index where the victim dies (mid-ingest).
const KILL_AT: usize = 400_000;
/// Stream index where the revived victim rejoins the ring.
const REJOIN_AT: usize = 700_000;

/// The victim's config: fsync-always WAL so a `kill -9` loses nothing
/// that was acked.
fn durable_config(kind: SummaryKind, dir: &PathBuf) -> ServiceConfig {
    ServiceConfig::new(kind, EPS)
        .shards(2)
        .seed(SEED)
        .durability(
            DurabilityConfig::new(dir)
                .fsync(FsyncPolicy::Always)
                .checkpoint_batches(64),
        )
}

fn plain_config(kind: SummaryKind) -> ServiceConfig {
    ServiceConfig::new(kind, EPS).shards(2).seed(SEED)
}

fn cluster_info(client: &mut Client) -> mergeable_summaries::service::ClusterInfo {
    match client
        .call(&Request::ClusterInfo)
        .expect("cluster-info rpc")
    {
        Response::Cluster(info) => info,
        other => panic!("unexpected cluster-info response {other:?}"),
    }
}

/// Run the whole kill/rejoin scenario for one summary kind, driving the
/// coordinator purely over the wire, and return the final one-shot
/// merged summary (decoded from a `Summary` response) plus a client
/// still connected to the front server for follow-up query opcodes.
fn run_scenario(kind: SummaryKind, tag: &str) -> (ShardSummary, Client, Server, Vec<Node>) {
    let items = zipf(N, SEED);
    let dir = scratch_dir(tag);

    // Node 0 is the victim and the only durable node.
    let victim = Node::start(durable_config(kind, &dir));
    let others: Vec<Node> = (0..2).map(|_| Node::start(plain_config(kind))).collect();
    let mut addrs = vec![victim.addr()];
    addrs.extend(others.iter().map(Node::addr));

    let coordinator = Coordinator::start(cluster_config(addrs)).expect("coordinator");
    let front = Server::bind_service(
        Arc::clone(&coordinator) as Arc<dyn mergeable_summaries::service::Service>,
        "127.0.0.1:0",
    )
    .expect("front server");
    let mut client = Client::connect(front.local_addr()).expect("front client");

    // Phase 1: ingest up to the kill point, over the wire.
    for chunk in items[..KILL_AT].chunks(CHUNK) {
        client.ingest_slice(chunk).expect("pre-kill ingest");
    }

    // `kill -9` the victim at a batch boundary: abort the engine, sever
    // its connections. Every batch it acked is in its fsync-always WAL.
    let victim_engine = victim.engine;
    victim.server.kill();
    drop(victim_engine);

    // Phase 2: the rebalance window. The coordinator discovers the death
    // on the first routed batch and walks the ring past the dead slot.
    for chunk in items[KILL_AT..REJOIN_AT].chunks(CHUNK) {
        client.ingest_slice(chunk).expect("rebalance-window ingest");
    }
    let info = cluster_info(&mut client);
    assert_eq!(
        info.nodes[0].state,
        NodeState::Dead,
        "killed node should be dead in the wire-visible membership"
    );
    assert!(
        info.rebalanced_batches > 0,
        "node death should have rebalanced at least one batch"
    );

    // Phase 3: revive the victim from its data directory (checkpoint
    // load + WAL tail replay inside Engine::start) and rejoin it.
    let revived = Node::start(durable_config(kind, &dir));
    let recovery = revived
        .engine
        .recovery()
        .expect("revived node must report recovery");
    assert!(
        recovery.preloaded_weight + recovery.replayed_weight > 0,
        "revived node recovered nothing from its WAL"
    );
    let new_addr = revived.addr();
    coordinator
        .rejoin(0, Some(&new_addr))
        .expect("rejoin should succeed against the revived node");
    let info = cluster_info(&mut client);
    assert_eq!(
        info.nodes[0].state,
        NodeState::Alive,
        "rejoined node should be alive in the wire-visible membership"
    );

    // Phase 4: the rest of the stream routes on the original ring again.
    for chunk in items[REJOIN_AT..].chunks(CHUNK) {
        client.ingest_slice(chunk).expect("post-rejoin ingest");
    }
    client.flush().expect("cluster flush");

    // The one-shot merged summary, fetched over the wire. With a
    // boundary kill and fsync-always durability, every acked item
    // survived somewhere — the merge must account for all n exactly.
    let summary = match client.call(&Request::Summary).expect("summary rpc") {
        Response::Summary(raw) => ShardSummary::decode(&raw).expect("summary decodes"),
        other => panic!("unexpected summary response {other:?}"),
    };
    assert_eq!(
        summary.total_weight(),
        N as u64,
        "kill + WAL rejoin must preserve every acked item"
    );

    // The per-node summaries (new NodeSummary opcode) must partition the
    // stream: their weights sum to exactly n.
    let mut node_weight_sum = 0u64;
    for idx in 0..3u32 {
        match client
            .call(&Request::NodeSummary(idx))
            .expect("node-summary rpc")
        {
            Response::Summary(raw) => {
                node_weight_sum += ShardSummary::decode(&raw)
                    .expect("node summary decodes")
                    .total_weight();
            }
            other => panic!("unexpected node-summary response {other:?}"),
        }
    }
    assert_eq!(
        node_weight_sum, N as u64,
        "per-node summaries must partition the stream"
    );

    // The backends keep serving: the caller still queries through the
    // front server before dropping everything.
    let mut nodes = vec![revived];
    nodes.extend(others);
    (summary, client, front, nodes)
}

#[test]
fn federated_heavy_hitters_survive_kill_and_rejoin() {
    let items = zipf(N, SEED);
    let oracle = FrequencyOracle::from_stream(items.iter().copied());
    let bound = (EPS * N as f64).ceil() as u64;

    let (summary, mut client, front, _nodes) = run_scenario(SummaryKind::Mg, "mg");

    // Point estimates within ε·n for every item the truth says matters,
    // both on the gathered summary and via the wire Point opcode.
    for (item, truth) in oracle.top_k(50) {
        let est = summary.point(item).expect("counter summary");
        assert!(
            est.abs_diff(truth) <= bound,
            "item {item}: est {est}, truth {truth}, bound {bound}"
        );
        match client.call(&Request::Point(item)).expect("point rpc") {
            Response::Count(wire_est) => assert!(
                wire_est.abs_diff(truth) <= bound,
                "wire point {item}: est {wire_est}, truth {truth}"
            ),
            other => panic!("unexpected point response {other:?}"),
        }
    }

    // Every true φ-heavy hitter is reported at φ = 2ε, over the wire.
    let phi = 2.0 * EPS;
    let reported = match client.call(&Request::HeavyHitters(EPS)).expect("hh rpc") {
        Response::Items(items) => items,
        other => panic!("unexpected heavy-hitters response {other:?}"),
    };
    for (item, truth) in oracle.iter() {
        if truth as f64 >= phi * N as f64 {
            assert!(
                reported.iter().any(|(i, _)| i == item),
                "heavy item {item} (truth {truth}) missing from wire answer"
            );
        }
    }
    front.stop();
}

#[test]
fn federated_quantiles_survive_kill_and_rejoin() {
    let items = zipf(N, SEED);
    let oracle = RankOracle::from_stream(items.iter().copied());
    let bound = (EPS * N as f64).ceil() as u64;

    let (summary, mut client, front, _nodes) = run_scenario(SummaryKind::HybridQuantile, "hq");

    for i in 1..20 {
        let phi = i as f64 / 20.0;
        // Rank error on the gathered summary …
        let probe = *oracle.quantile(phi).expect("nonempty");
        let est = summary.rank(probe).expect("quantile summary");
        let err = oracle.rank_error(&probe, est);
        assert!(err <= bound, "phi {phi}: rank error {err} > {bound}");
        // … and the Quantile opcode end-to-end: the returned value's true
        // rank is within ε·n of the requested one.
        match client.call(&Request::Quantile(phi)).expect("quantile rpc") {
            Response::Value(Some(v)) => {
                let target = (phi * N as f64) as u64;
                let err = oracle.rank_error(&v, target);
                assert!(err <= bound, "wire phi {phi}: value {v}, rank error {err}");
            }
            other => panic!("unexpected quantile response {other:?}"),
        }
    }
    front.stop();
}
