//! Acceptance tests for the observability plane: distributed tracing
//! stitched across a real TCP cluster, and the accuracy self-audit
//! holding the paper's `ε·n` envelope on a million-item differential
//! run.
//!
//! The tracing test drives one traced query through a coordinator
//! fronting three backend nodes and requires the *same* trace id to
//! show up in every process's flight-recorder rings, with the merged
//! timeline forming a single causally ordered tree: coordinator
//! request → scatter legs → node requests. No sleeps anywhere — every
//! assertion rides on synchronous RPCs and parent-span links, never on
//! wall-clock ordering across processes.

use std::sync::Arc;

use mergeable_summaries::cluster::Coordinator;
use mergeable_summaries::service::{
    stitch, Client, Engine, RequestEnvelope, Server, ServiceConfig, SummaryKind, TraceContext,
};

mod support;
use support::{cluster_config, zipf, Node};

/// The three pinned node seeds CI sweeps (see `trace-smoke`).
const NODE_SEEDS: [u64; 3] = [0xF417_5EED, 0xB0B5_CAFE, 0x2026_0806];
const COORD_SEED: u64 = 0x5717_C4ED;
const EPS: f64 = 0.01;

#[test]
fn one_query_stitches_into_a_single_cross_process_trace_tree() {
    let nodes: Vec<Node> = NODE_SEEDS
        .iter()
        .map(|&seed| {
            Node::start(
                ServiceConfig::new(SummaryKind::Mg, EPS)
                    .shards(2)
                    .seed(seed)
                    .telemetry(true),
            )
        })
        .collect();
    let addrs: Vec<String> = nodes
        .iter()
        .map(|n| n.server.local_addr().to_string())
        .collect();

    let coordinator =
        Coordinator::start(cluster_config(addrs.clone()).seed(COORD_SEED)).expect("coordinator");
    let front = Server::bind_service(
        Arc::clone(&coordinator) as Arc<dyn mergeable_summaries::service::Service>,
        "127.0.0.1:0",
    )
    .expect("front server");
    let mut client = Client::connect(front.local_addr()).expect("front client");

    // A traced ingest: enough keys to land buckets on every node, all
    // under one caller-chosen trace id.
    let ingest_ctx = TraceContext {
        trace_id: 0x1263_E577_AB1E,
        parent_span: 0,
    };
    let items: Vec<u64> = (0..4096).collect();
    let traced = |ctx| RequestEnvelope {
        ctx: Some(ctx),
        deadline_micros: None,
    };
    client
        .ingest_slice_enveloped(traced(ingest_ctx), &items)
        .expect("traced ingest");
    client.flush().expect("cluster flush");

    // One traced query. Its trace id is caller-chosen, so the test can
    // hunt for it in every process's rings without guessing the seeded
    // root id the coordinator would otherwise mint.
    let query_ctx = TraceContext {
        trace_id: 0xDEAD_BEEF_F00D_CAFE,
        parent_span: 0,
    };
    let response = client
        .call_enveloped(
            traced(query_ctx),
            &mergeable_summaries::service::Request::Summary,
        )
        .expect("traced summary rpc");
    assert!(
        matches!(response, mergeable_summaries::service::Response::Summary(_)),
        "unexpected summary response {response:?}"
    );

    // Pull every process's flight-recorder rings over the wire: the
    // coordinator's own via the front server, each backend directly.
    let mut sources = vec![(
        "coordinator".to_string(),
        client.trace_dump().expect("coordinator dump"),
    )];
    for addr in &addrs {
        let mut node_client = Client::connect(addr.as_str()).expect("node client");
        sources.push((addr.clone(), node_client.trace_dump().expect("node dump")));
    }

    // The query's trace id must appear in every node's rings.
    for (source, report) in sources.iter().skip(1) {
        let saw_query = report.threads.iter().any(|t| {
            t.events.iter().any(|e| {
                e.fields
                    .iter()
                    .any(|(k, v)| k == "trace" && *v == query_ctx.trace_id)
            })
        });
        assert!(saw_query, "{source}: query trace id missing from rings");
    }

    // The traced ingest must have reached at least one node's engine
    // ring as an `ingest_admit` event carrying the caller's trace id.
    let admits = sources
        .iter()
        .skip(1)
        .flat_map(|(_, report)| &report.threads)
        .flat_map(|t| &t.events)
        .filter(|e| {
            e.name == "ingest_admit"
                && e.fields
                    .iter()
                    .any(|(k, v)| k == "trace" && *v == ingest_ctx.trace_id)
        })
        .count();
    assert!(admits > 0, "no node recorded the traced ingest admission");

    // Stitch all four processes into one timeline and isolate the query
    // trace: one root, three scatter legs, one request span per node.
    let spans = stitch(&sources);
    let query: Vec<_> = spans
        .iter()
        .filter(|s| s.trace_id == query_ctx.trace_id)
        .collect();
    assert!(!query.is_empty(), "stitched timeline lost the query trace");

    let roots: Vec<_> = query.iter().filter(|s| s.depth == 0).collect();
    assert_eq!(roots.len(), 1, "one traced query must form one tree");
    assert_eq!(roots[0].source, "coordinator");
    assert_eq!(roots[0].name, "request");
    assert_eq!(roots[0].parent_span, query_ctx.parent_span);

    let scatters: Vec<_> = query.iter().filter(|s| s.name == "scatter").collect();
    assert_eq!(
        scatters.len(),
        3,
        "a gather over three live nodes takes three scatter legs"
    );
    for leg in &scatters {
        assert_eq!(leg.source, "coordinator");
        assert_eq!(leg.depth, 1, "scatter legs hang off the request root");
        assert_eq!(leg.parent_span, roots[0].span_id);
    }

    let node_requests: Vec<_> = query
        .iter()
        .filter(|s| s.name == "request" && s.depth == 2)
        .collect();
    let mut seen_sources: Vec<&str> = node_requests.iter().map(|s| s.source.as_str()).collect();
    seen_sources.sort_unstable();
    seen_sources.dedup();
    let mut want: Vec<&str> = addrs.iter().map(String::as_str).collect();
    want.sort_unstable();
    assert_eq!(
        seen_sources, want,
        "every backend must contribute a request span to the query trace"
    );
    for req in &node_requests {
        assert!(
            scatters.iter().any(|leg| leg.span_id == req.parent_span),
            "node request span must parent under a coordinator scatter leg"
        );
    }

    // Causal order: in the flattened timeline every parent precedes its
    // children, and depth steps by exactly one across each link.
    let mut seen = std::collections::BTreeSet::new();
    for span in &query {
        if span.parent_span != 0 {
            assert!(
                seen.contains(&span.parent_span),
                "span {:x} appeared before its parent {:x}",
                span.span_id,
                span.parent_span
            );
            let parent = query
                .iter()
                .find(|s| s.span_id == span.parent_span)
                .expect("parent present");
            assert_eq!(span.depth, parent.depth + 1);
        }
        seen.insert(span.span_id);
    }

    front.stop();
    coordinator.shutdown();
    for node in nodes {
        node.server.stop();
    }
}

/// A million-item differential run: the audit plane's exact ground
/// truth (a deterministic 1/16 key subset) must observe point-estimate
/// error inside the paper's `ε·n` envelope, on every pinned CI seed.
#[test]
fn million_item_audit_observes_error_inside_the_envelope() {
    const N: usize = 1_000_000;
    for &seed in &NODE_SEEDS {
        let engine = Engine::start(
            ServiceConfig::new(SummaryKind::Mg, EPS)
                .shards(4)
                .seed(seed)
                .audit(true),
        )
        .expect("audited engine");
        let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("server");
        let mut client = Client::connect(server.local_addr()).expect("client");

        for chunk in zipf(N, seed).chunks(4096) {
            client.ingest_slice(chunk).expect("ingest");
        }
        client.flush().expect("flush");

        let audit = client.accuracy().expect("accuracy rpc");
        assert_eq!(audit.kind, "mg", "seed {seed:#x}");
        assert_eq!(audit.weight, N as u64, "seed {seed:#x}");
        assert_eq!(
            audit.audit_weight, N as u64,
            "seed {seed:#x}: ground truth must see every absorbed item"
        );
        assert!(audit.audited_items > 0, "seed {seed:#x}");
        let envelope = EPS * N as f64;
        assert!(
            (audit.envelope - envelope).abs() < 1e-6,
            "seed {seed:#x}: envelope {} != ε·n {envelope}",
            audit.envelope
        );
        assert!(
            audit.observed_error <= envelope,
            "seed {seed:#x}: observed {} breaks ε·n {envelope}",
            audit.observed_error
        );
        assert!(audit.within_bound, "seed {seed:#x}");
        server.stop();
    }
}

/// Same differential run through the quantile path: the reservoir's
/// rank estimates must stay inside envelope + sampling slack.
#[test]
fn million_item_quantile_audit_stays_inside_envelope_plus_slack() {
    const N: usize = 1_000_000;
    let seed = NODE_SEEDS[0];
    let engine = Engine::start(
        ServiceConfig::new(SummaryKind::HybridQuantile, EPS)
            .shards(4)
            .seed(seed)
            .audit(true),
    )
    .expect("audited engine");
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0").expect("server");
    let mut client = Client::connect(server.local_addr()).expect("client");

    for chunk in zipf(N, seed).chunks(4096) {
        client.ingest_slice(chunk).expect("ingest");
    }
    client.flush().expect("flush");

    let audit = client.accuracy().expect("accuracy rpc");
    assert_eq!(audit.kind, "hybrid-quantile");
    assert_eq!(audit.weight, N as u64);
    assert!(audit.reservoir_len > 0, "reservoir never filled");
    assert!(audit.sampling_slack > 0.0, "reservoir audits carry slack");
    assert!(
        audit.observed_error <= audit.envelope + audit.sampling_slack,
        "observed {} breaks envelope {} + slack {}",
        audit.observed_error,
        audit.envelope,
        audit.sampling_slack
    );
    assert!(audit.within_bound);
    server.stop();
}

/// The coordinator's scatter/gather audit merge: three audited nodes,
/// one wire-visible report whose lineage covers the whole stream.
#[test]
fn cluster_accuracy_report_merges_every_nodes_audit() {
    const N: usize = 300_000;
    let nodes: Vec<Node> = NODE_SEEDS
        .iter()
        .map(|&seed| {
            Node::start(
                ServiceConfig::new(SummaryKind::Mg, EPS)
                    .shards(2)
                    .seed(seed)
                    .audit(true),
            )
        })
        .collect();
    let addrs: Vec<String> = nodes
        .iter()
        .map(|n| n.server.local_addr().to_string())
        .collect();

    let coordinator =
        Coordinator::start(cluster_config(addrs).seed(COORD_SEED)).expect("coordinator");
    let front = Server::bind_service(
        Arc::clone(&coordinator) as Arc<dyn mergeable_summaries::service::Service>,
        "127.0.0.1:0",
    )
    .expect("front server");
    let mut client = Client::connect(front.local_addr()).expect("front client");

    for chunk in zipf(N, COORD_SEED).chunks(4096) {
        client.ingest_slice(chunk).expect("ingest");
    }
    client.flush().expect("flush");

    let audit = client.accuracy().expect("merged accuracy rpc");
    assert_eq!(audit.nodes, 3, "merged audit must cover every live node");
    assert_eq!(
        audit.weight, N as u64,
        "merged lineage must account for the whole stream"
    );
    assert_eq!(
        audit.audit_weight, N as u64,
        "every node audits its own partition"
    );
    assert!(
        audit.observed_error <= audit.envelope + audit.sampling_slack,
        "observed {} breaks merged envelope {} + slack {}",
        audit.observed_error,
        audit.envelope,
        audit.sampling_slack
    );
    assert!(audit.within_bound);

    front.stop();
    coordinator.shutdown();
    for node in nodes {
        node.server.stop();
    }
}
