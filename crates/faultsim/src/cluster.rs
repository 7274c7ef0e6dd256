//! Whole-node fault schedules: a seeded coordinator over real TCP
//! backend nodes, with node kills, rejoins and replica divergence.
//!
//! These classes extend the loss-slack argument (see [`crate::schedule`])
//! across *process* boundaries. A killed node takes its un-gathered
//! summary with it exactly the way a dying shard takes its delta: the
//! survivors still merge into a valid summary of the surviving updates,
//! and the missing weight widens the bound as slack. Durability closes
//! the gap — a node that recovers its WAL and rejoins restores its weight
//! and the verdict tightens back to the strict zero-slack `ε·n` bound —
//! and replica pairs avoid the gap entirely, provided gathers read
//! exactly one member per slot (additive merge would double-count).
//!
//! Every kill here lands at a batch boundary between coordinator ingest
//! calls. That is deliberate: an acked batch is then unambiguously on
//! some node, so the verdict can demand exact accounting. The in-flight
//! ambiguity of a mid-call death is covered by the coordinator's reroute
//! path, which these schedules trigger by killing *before* the routing
//! tables notice.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use ms_cluster::{ClusterConfig, Coordinator};
use ms_core::{Rng64, ServiceError, Summary};
use ms_service::{
    ClientOptions, Engine, FsyncPolicy, NodeState, Server, ServiceConfig, SummaryKind,
};

use crate::schedule::{
    base_config, durable_config, scratch_dir, stream, FaultClass, Harness, ScheduleReport,
};

/// One backend process stand-in: an engine behind a real TCP server.
struct TestNode {
    engine: Arc<Engine>,
    server: Server,
}

impl TestNode {
    fn start(cfg: ServiceConfig) -> Result<TestNode, ServiceError> {
        let engine = Engine::start(cfg)?;
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0")?;
        Ok(TestNode { engine, server })
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// `kill -9`: abort the engine (no final flush/checkpoint/fsync) and
    /// sever every live connection.
    fn kill(self) -> Arc<Engine> {
        let engine = self.engine;
        self.server.kill();
        engine
    }

    fn stop(self) {
        self.server.stop();
    }
}

/// Coordinator transport tuned for schedules: fast timeouts, one retry,
/// no background pinger (health moves only on request outcomes, so every
/// transition is seed-deterministic), death on the first failure.
fn cluster_config(addrs: impl IntoIterator<Item = String>) -> ClusterConfig {
    ClusterConfig::new(addrs)
        .client_options(ClientOptions {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            retries: 1,
            backoff: Duration::from_millis(5),
            ..ClientOptions::default()
        })
        .ping_interval(None)
        .dead_after(1)
}

/// Drive `items` through the coordinator in batches of 100. A batch the
/// coordinator acks is accepted; a batch that errors mid-cluster-outage
/// may have been partially delivered, so its weight widens the slack as
/// unacked instead of being retried.
fn drive(coordinator: &Coordinator, h: &mut Harness, items: &[u64]) -> Result<(), String> {
    for batch in items.chunks(100) {
        match coordinator.ingest(batch) {
            Ok(()) => h.accepted.extend_from_slice(batch),
            Err(e) if e.is_transient() => h.unacked_weight += batch.len() as u64,
            Err(e) => return Err(h.fail(e)),
        }
    }
    Ok(())
}

/// Gather and finish: flush the survivors, merge their summaries one-shot
/// and hand the merged summary to the standard loss-slack verdict.
fn finish_cluster(coordinator: &Coordinator, h: Harness) -> Result<ScheduleReport, String> {
    coordinator.flush().map_err(|e| h.fail(e))?;
    let gathered = coordinator.gather().map_err(|e| h.fail(e))?;
    let summary = gathered
        .summary
        .ok_or_else(|| h.fail("gather produced no summary at all"))?;
    let metrics = coordinator.metrics().map_err(|e| h.fail(e))?;
    h.finish(&summary, metrics)
}

/// Class 11: a node dies mid-ingest. Its key range must rebalance to the
/// survivors, the coordinator must report it dead, and the merged answer
/// must honor `ε·n` + slack where the slack is exactly the dead node's
/// unrecovered weight.
pub(crate) fn node_kill(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::NodeKill, kind, seed);
    let mut rng = Rng64::new(seed ^ 0x4E0D_E417);
    let nodes: Vec<TestNode> = (0..3)
        .map(|_| TestNode::start(base_config(kind, seed).shards(2)))
        .collect::<Result<_, _>>()
        .map_err(|e| h.fail(e))?;
    let coordinator =
        Coordinator::start(cluster_config(nodes.iter().map(|n| n.addr().to_string())))
            .map_err(|e| h.fail(e))?;
    h.attach_telemetry(coordinator.telemetry());

    let items = stream(30_000, seed);
    let victim = rng.below(3) as usize;
    // Kill somewhere in the middle third of the stream.
    let kill_at = (10_000 + rng.below(10_000)) as usize;

    drive(&coordinator, &mut h, &items[..kill_at])?;
    let mut nodes = nodes;
    let killed = nodes.remove(victim).kill();
    drive(&coordinator, &mut h, &items[kill_at..])?;

    let info = coordinator.cluster_info();
    if !matches!(info.nodes[victim].state, NodeState::Dead) {
        return Err(h.fail(format!(
            "killed node {victim} is {} instead of dead",
            info.nodes[victim].state.label()
        )));
    }
    if info.rebalanced_batches == 0 {
        return Err(h.fail("node death never rebalanced a batch"));
    }
    let gathered = coordinator.gather().map_err(|e| h.fail(e))?;
    if gathered.dark_slots != 1 {
        return Err(h.fail(format!(
            "expected exactly the dead node's slot dark, saw {}",
            gathered.dark_slots
        )));
    }
    let report = finish_cluster(&coordinator, h)?;
    coordinator.shutdown();
    drop(killed);
    for node in nodes {
        node.stop();
    }
    Ok(report)
}

/// Class 12: a node dies *between* ingest and query, so the gather itself
/// discovers the death: the scatter to the dead node fails, the slot goes
/// dark, and the degraded merge still honors the slack bound.
pub(crate) fn gather_kill(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::GatherKill, kind, seed);
    let mut rng = Rng64::new(seed ^ 0x6A74_E411);
    let nodes: Vec<TestNode> = (0..3)
        .map(|_| TestNode::start(base_config(kind, seed).shards(2)))
        .collect::<Result<_, _>>()
        .map_err(|e| h.fail(e))?;
    let coordinator =
        Coordinator::start(cluster_config(nodes.iter().map(|n| n.addr().to_string())))
            .map_err(|e| h.fail(e))?;
    h.attach_telemetry(coordinator.telemetry());

    drive(&coordinator, &mut h, &stream(30_000, seed))?;
    coordinator.flush().map_err(|e| h.fail(e))?;

    let victim = rng.below(3) as usize;
    let mut nodes = nodes;
    let killed = nodes.remove(victim).kill();

    // The coordinator has not touched the dead node since the kill, so
    // this gather is the discovery: fan-out still counts the dead member,
    // and the slot comes back dark.
    let first = coordinator.gather().map_err(|e| h.fail(e))?;
    if first.fanout != 3 {
        return Err(h.fail(format!(
            "discovery gather should scatter to all 3 nodes, reached {}",
            first.fanout
        )));
    }
    if first.dark_slots != 1 || first.answered != 2 {
        return Err(h.fail(format!(
            "expected 2 answers + 1 dark slot, saw {} + {}",
            first.answered, first.dark_slots
        )));
    }
    if !coordinator.cluster_info().nodes[victim]
        .state
        .label()
        .eq("dead")
    {
        return Err(h.fail("gather failure did not mark the node dead"));
    }
    // A second gather routes around the corpse without retrying it.
    let second = coordinator.gather().map_err(|e| h.fail(e))?;
    if second.fanout != 2 {
        return Err(h.fail(format!(
            "post-discovery gather still scatters to {} nodes",
            second.fanout
        )));
    }
    let summary = second
        .summary
        .ok_or_else(|| h.fail("two live nodes produced no summary"))?;
    let metrics = coordinator.metrics().map_err(|e| h.fail(e))?;
    let report = h.finish(&summary, metrics)?;
    coordinator.shutdown();
    drop(killed);
    for node in nodes {
        node.stop();
    }
    Ok(report)
}

/// Class 13: kill a *durable* node mid-stream, let the ring rebalance,
/// then restart it from its WAL on a fresh port and rejoin it while
/// traffic continues. `FsyncPolicy::Always` means the abort loses
/// nothing, so after rejoin every acknowledged batch is on some node and
/// the verdict runs under the strict zero-slack bound.
pub(crate) fn rejoin_rebalance(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::RejoinRebalance, kind, seed);
    let mut rng = Rng64::new(seed ^ 0x4E30_1B1D);
    let dir = scratch_dir(FaultClass::RejoinRebalance, kind, seed);
    let victim = rng.below(3) as usize;

    let mut nodes: Vec<Option<TestNode>> = (0..3)
        .map(|i| {
            let cfg = if i == victim {
                durable_config(kind, seed, &dir, FsyncPolicy::Always)
            } else {
                base_config(kind, seed).shards(2)
            };
            TestNode::start(cfg).map(Some)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| h.fail(e))?;
    let coordinator = Coordinator::start(cluster_config(
        nodes
            .iter()
            .map(|n| n.as_ref().expect("all started").addr().to_string()),
    ))
    .map_err(|e| h.fail(e))?;
    h.attach_telemetry(coordinator.telemetry());

    let items = stream(30_000, seed);
    let kill_at = (8_000 + rng.below(6_000)) as usize;
    let rejoin_at = (18_000 + rng.below(6_000)) as usize;

    drive(&coordinator, &mut h, &items[..kill_at])?;
    let killed = nodes[victim].take().expect("victim running").kill();
    // Rebalance window: the victim's range drains to the survivors.
    drive(&coordinator, &mut h, &items[kill_at..rejoin_at])?;
    if coordinator.cluster_info().rebalanced_batches == 0 {
        return Err(h.fail("rebalance window produced no rebalanced batches"));
    }
    drop(killed);

    // Restart from the same data directory: WAL replay + checkpoint load
    // happen inside Engine::start, before the node accepts traffic.
    let revived = TestNode::start(durable_config(kind, seed, &dir, FsyncPolicy::Always))
        .map_err(|e| h.fail(e))?;
    let recovery = revived
        .engine
        .recovery()
        .ok_or_else(|| h.fail("restarted node has no recovery report"))?;
    if recovery.preloaded_weight + recovery.replayed_weight == 0 {
        return Err(h.fail("restarted node recovered nothing from its WAL"));
    }
    let new_addr = revived.addr().to_string();
    coordinator
        .rejoin(victim, Some(&new_addr))
        .map_err(|e| h.fail(format!("rejoin failed: {e}")))?;
    if !matches!(
        coordinator.cluster_info().nodes[victim].state,
        NodeState::Alive
    ) {
        return Err(h.fail("rejoined node is not alive"));
    }
    nodes[victim] = Some(revived);

    // Post-rejoin traffic routes to the original ring layout again.
    drive(&coordinator, &mut h, &items[rejoin_at..])?;

    // Flush before gathering: the revived node's replayed weight (and
    // everyone's recent ingests) become visible at the next publish.
    coordinator.flush().map_err(|e| h.fail(e))?;
    let gathered = coordinator.gather().map_err(|e| h.fail(e))?;
    if gathered.dark_slots != 0 {
        return Err(h.fail(format!(
            "{} slots still dark after rejoin",
            gathered.dark_slots
        )));
    }
    if h.unacked_weight == 0
        && gathered.summary.as_ref().map(|s| s.total_weight()) != Some(h.accepted.len() as u64)
    {
        return Err(h.fail(format!(
            "fsync-always kill + rejoin must preserve every acked item: \
             {} acked, {} surviving",
            h.accepted.len(),
            gathered
                .summary
                .as_ref()
                .map(|s| s.total_weight())
                .unwrap_or(0)
        )));
    }
    let report = finish_cluster(&coordinator, h)?;
    coordinator.shutdown();
    for node in nodes.into_iter().flatten() {
        node.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// Class 14: one member of a replica pair dies mid-stream and rejoins
/// *empty*. Its partner absorbed every write in the window, so the pair's
/// summaries genuinely diverge; the slot never went dark (no rebalance),
/// and the read-one gather must pick the heavier member and land exactly
/// on the accepted weight — merging both members would double-count.
pub(crate) fn replica_divergence(kind: SummaryKind, seed: u64) -> Result<ScheduleReport, String> {
    let mut h = Harness::new(FaultClass::ReplicaDivergence, kind, seed);
    let mut rng = Rng64::new(seed ^ 0x4E11_1CA5);
    let mut nodes: Vec<Option<TestNode>> = (0..4)
        .map(|_| TestNode::start(base_config(kind, seed).shards(2)).map(Some))
        .collect::<Result<_, _>>()
        .map_err(|e| h.fail(e))?;
    let coordinator = Coordinator::start(
        cluster_config(
            nodes
                .iter()
                .map(|n| n.as_ref().expect("all started").addr().to_string()),
        )
        .replicas(true),
    )
    .map_err(|e| h.fail(e))?;
    h.attach_telemetry(coordinator.telemetry());

    let items = stream(30_000, seed);
    let victim = rng.below(4) as usize;
    let partner = victim ^ 1; // pairs are (0,1) and (2,3)
    let kill_at = (10_000 + rng.below(6_000)) as usize;
    let rejoin_at = (22_000 + rng.below(4_000)) as usize;

    drive(&coordinator, &mut h, &items[..kill_at])?;
    let killed = nodes[victim].take().expect("victim running").kill();
    // Divergence window: the partner alone carries the slot.
    drive(&coordinator, &mut h, &items[kill_at..rejoin_at])?;
    drop(killed);

    // Rejoin with a *fresh, empty* engine: a node that lost its disk.
    let revived = TestNode::start(base_config(kind, seed).shards(2)).map_err(|e| h.fail(e))?;
    let new_addr = revived.addr().to_string();
    coordinator
        .rejoin(victim, Some(&new_addr))
        .map_err(|e| h.fail(format!("rejoin failed: {e}")))?;
    nodes[victim] = Some(revived);
    drive(&coordinator, &mut h, &items[rejoin_at..])?;

    let info = coordinator.cluster_info();
    // The partner absorbed the whole window: the pair never counted as
    // dead, so nothing rebalanced.
    if info.rebalanced_batches != 0 {
        return Err(h.fail(format!(
            "replica pair should absorb the death without rebalancing, saw {}",
            info.rebalanced_batches
        )));
    }
    coordinator.flush().map_err(|e| h.fail(e))?;
    let gathered = coordinator.gather().map_err(|e| h.fail(e))?;
    if gathered.dark_slots != 0 {
        return Err(h.fail("no slot may go dark while one pair member lives"));
    }
    let info = coordinator.cluster_info();
    let vw = info.nodes[victim].last_weight;
    let pw = info.nodes[partner].last_weight;
    if vw >= pw {
        return Err(h.fail(format!(
            "divergence never happened: rejoined-empty member holds {vw}, partner {pw}"
        )));
    }
    // Read-one on the heavier member recovers *every* acked item: the
    // strict zero-slack bound, and the proof no double-count happened.
    let summary = gathered
        .summary
        .ok_or_else(|| h.fail("gather produced no summary"))?;
    if h.unacked_weight == 0 && summary.total_weight() != h.accepted.len() as u64 {
        return Err(h.fail(format!(
            "read-one gather holds {} of {} acked items",
            summary.total_weight(),
            h.accepted.len()
        )));
    }
    let metrics = coordinator.metrics().map_err(|e| h.fail(e))?;
    let report = h.finish(&summary, metrics)?;
    coordinator.shutdown();
    for node in nodes.into_iter().flatten() {
        node.stop();
    }
    Ok(report)
}
