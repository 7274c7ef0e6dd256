//! In-process stage replay: the workload's own batches pushed
//! single-threaded through each layer's public function (see `probes.rs`),
//! under one root span per batch. Gives each stage's cost in isolation and
//! its share of the replayed path.

use crate::probes;
use ledger::load::Stream;
use ledger::span::{self_times, Span, Spans};
use ledger::spec::{Workload, SHARDS};
use ledger::stats::median;
use ms_core::wire::{encode_frame_into, encode_u64_slice_into};
use ms_core::WireFrame;
use ms_service::{Request, REQUEST_TAG};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Items pushed through the ingest stages per replay.
const REPLAY_ITEMS: usize = 1 << 21;

/// One stage of the ledger.
pub struct Stage {
    pub name: &'static str,
    pub calls: u64,
    /// Σ self time over all calls.
    pub self_ns: u64,
    /// What `self_ns` is divided by: items replayed for ingest stages
    /// (amortizing stages that run every Nth batch), calls for query
    /// stages, bytes for `wal.crc`.
    pub per: u64,
    /// On the ingest path of this workload (a WAL stage is not, on a
    /// workload without `--data-dir`): only these enter shares and the
    /// residual.
    pub on_path: bool,
}

impl Stage {
    pub fn ns_per(&self) -> f64 {
        self.self_ns as f64 / self.per.max(1) as f64
    }
}

pub struct Replay {
    pub stages: Vec<Stage>,
    /// Batches replayed, and Σ root span time without the off-path stages:
    /// the base of `share_pct`.
    pub batches: u64,
    pub root_ns: u64,
    /// Cost of recording one empty span (two clock reads and a push).
    pub span_cost_ns: f64,
    pub spans: Vec<Span>,
}

/// A closure timed as one leaf span.
fn leaf<T>(
    spans: &mut Spans,
    name: &'static str,
    parent: u32,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = spans.now();
    let value = f();
    let t1 = spans.now();
    spans.leaf(name, (t0, t1), parent, request);
    value
}

/// The ingest path of `w`, batch by batch. `dir` is an empty scratch
/// directory for the WAL, checkpoints and segments.
pub fn ingest_path(w: &Workload, stream: &Stream, dir: &Path) -> Replay {
    let cfg = probes::service_config(w.epsilon, SHARDS);
    let cube_on = w.segment_batches.is_some();
    let admission = probes::new_admission(&cfg);
    let conn_inflight = Arc::new(AtomicU64::new(0));
    // Stages that the workload bypasses still run (their cost is reported)
    // but are marked off-path.
    let store = Mutex::new(probes::open_store(dir, true).expect("scratch data dir"));
    let group = probes::new_group_commit();
    let (cube, clock) = probes::new_cube(&cfg, w.segment_batches.unwrap_or(64));
    let ring = probes::new_ring(&cfg);
    let mut shards: Vec<_> = (0..SHARDS).map(|s| probes::new_summary(&cfg, s)).collect();
    let mut absorbed = [0usize; SHARDS];
    let mut global = probes::new_summary(&cfg, 0);
    let cell = probes::new_swap(probes::new_summary(&cfg, 0));
    let delta_updates = probes::delta_updates(&cfg);
    let checkpoint_every = probes::checkpoint_batches();

    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let batches = REPLAY_ITEMS / w.batch;
    let opcode = Request::Ingest(Vec::new()).opcode();
    let (mut frame_bytes, mut payload, mut wal_buf, mut reply) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..batches {
        let request = i as u64;
        let seq = request + 1;
        // The client's work, outside every span: the request frame.
        let batch = &stream.items[i * w.batch..(i + 1) * w.batch];
        frame_bytes.clear();
        encode_frame_into(&mut frame_bytes, REQUEST_TAG, |out| {
            out.push(opcode);
            encode_u64_slice_into(out, batch);
        });

        let root = spans.open();
        let t_root = spans.now();
        let tag = leaf(&mut spans, "wire.frame_read", root, request, || {
            probes::wire_frame_read(&frame_bytes, &mut payload)
        });
        let frame = WireFrame {
            tag,
            payload: std::mem::take(&mut payload),
        };
        let decoded = leaf(&mut spans, "protocol.decode", root, request, || {
            probes::protocol_decode(&frame)
        });
        payload = frame.payload;
        let Request::Ingest(items) = decoded else {
            unreachable!("an ingest frame was encoded");
        };
        let guard = leaf(&mut spans, "overload.admit", root, request, || {
            probes::overload_admit(&admission, &conn_inflight)
        });

        wal_buf.clear();
        leaf(&mut spans, "wal.encode", root, request, || {
            probes::wal_encode(&mut wal_buf, &items)
        });
        let record = std::mem::take(&mut wal_buf);
        leaf(&mut spans, "wal.append", root, request, || {
            probes::wal_append(&group, &store, record)
        });
        if seq.is_multiple_of(checkpoint_every) {
            let parts: Vec<Vec<u8>> = shards.iter().map(probes::summary_encode).collect();
            let locked = store.lock().expect("single-threaded");
            leaf(&mut spans, "checkpoint.write", root, request, || {
                probes::checkpoint_write(&locked.checkpoints, seq, seq / checkpoint_every, &parts)
            });
        }

        clock.advance(1000);
        let outcome = leaf(&mut spans, "cube.fold", root, request, || {
            probes::cube_fold(&cube, seq, &items)
        });
        for sealed in &outcome.sealed {
            let locked = store.lock().expect("single-threaded");
            let segments = locked.segments.as_ref().expect("opened with the cube on");
            leaf(&mut spans, "segment.write", root, request, || {
                probes::segment_write(segments, sealed)
            });
        }

        let items = leaf(&mut spans, "ring.push_pop", root, request, || {
            probes::ring_push_pop(&ring, items)
        });
        let shard = i % SHARDS;
        leaf(&mut spans, "summary.update_batch", root, request, || {
            probes::summary_update_batch(&mut shards[shard], &items)
        });
        absorbed[shard] += items.len();
        // Fan-in = shards: once every shard has filled a delta, the
        // compactor folds them all and publishes.
        if absorbed.iter().all(|&n| n >= delta_updates) {
            let deltas: Vec<_> = shards
                .iter_mut()
                .enumerate()
                .map(|(s, d)| std::mem::replace(d, probes::new_summary(&cfg, s)))
                .collect();
            absorbed.fill(0);
            leaf(&mut spans, "compactor.merge_many", root, request, || {
                probes::compactor_merge_many(&mut global, deltas)
            });
            let snapshot = Arc::new(global.clone());
            leaf(&mut spans, "swap.publish", root, request, || {
                probes::swap_publish(&cell, snapshot)
            });
        }

        reply.clear();
        leaf(&mut spans, "protocol.reply_encode", root, request, || {
            probes::reply_encode(&mut reply)
        });
        drop(guard);
        let t_end = spans.now();
        spans.close(root, "batch", (t_root, t_end), 0, request);
    }

    let items = (batches * w.batch) as u64;
    let off_path = |name: &str| {
        (!w.wal && (name.starts_with("wal.") || name == "checkpoint.write"))
            || (!cube_on && name == "cube.fold")
            || (!(cube_on && w.wal) && name == "segment.write")
    };
    // The root as this workload walks it: its own self time (the glue
    // between stages) plus the on-path stages.
    let mut root_ns = 0;
    let mut stages = Vec::new();
    for (name, calls, self_ns) in self_times(&spans.spans) {
        if name == "batch" || !off_path(name) {
            root_ns += self_ns;
        }
        if name == "batch" {
            continue;
        }
        stages.push(Stage {
            name,
            calls,
            self_ns,
            per: items,
            on_path: !off_path(name),
        });
    }

    // The cost of a span itself, so a reader can discount the cheapest stages.
    let mut probe = Spans::new(epoch);
    let t0 = Instant::now();
    for i in 0..100_000u64 {
        leaf(&mut probe, "empty", 0, i, || ());
    }
    let span_cost_ns = t0.elapsed().as_nanos() as f64 / 100_000.0;

    Replay {
        stages,
        batches: batches as u64,
        root_ns,
        span_cost_ns,
        spans: spans.spans,
    }
}

/// Time `calls` invocations of `f` as one stage (per call).
fn timed(name: &'static str, calls: u64, mut f: impl FnMut(u64)) -> Stage {
    let t0 = Instant::now();
    for i in 0..calls {
        f(i);
    }
    Stage {
        name,
        calls,
        self_ns: t0.elapsed().as_nanos() as u64,
        per: calls,
        on_path: true,
    }
}

/// `wal.crc` in isolation, per byte.
pub fn crc(w: &Workload, stream: &Stream) -> Stage {
    let mut record = Vec::new();
    probes::wal_encode(&mut record, &stream.items[..w.batch]);
    let calls = 20_000;
    let mut stage = timed("wal.crc", calls, |_| {
        black_box(probes::wal_crc(black_box(&record)));
    });
    stage.per = calls * record.len() as u64;
    stage.on_path = false; // already inside wal.append
    stage
}

/// `engine.ingest`: the composite, through an in-process engine configured
/// like one node of the workload.
pub fn engine_ingest(w: &Workload, stream: &Stream, dir: Option<&Path>, telemetry: bool) -> Stage {
    let cfg = probes::service_config(w.epsilon, SHARDS);
    let engine = probes::start_engine(cfg, dir, w.segment_batches, telemetry);
    let batches = REPLAY_ITEMS / w.batch;
    let t0 = Instant::now();
    for i in 0..batches {
        let mut buf = probes::engine_buffer(&engine);
        buf.extend_from_slice(&stream.items[i * w.batch..(i + 1) * w.batch]);
        probes::engine_ingest(&engine, buf);
    }
    let elapsed = t0.elapsed();
    probes::stop_engine(&engine);
    Stage {
        name: "engine.ingest",
        calls: batches as u64,
        self_ns: elapsed.as_nanos() as u64,
        per: (batches * w.batch) as u64,
        on_path: false, // the composite of the stages above, not one more
    }
}

/// `obs.telemetry_overhead_pct`: in-process `Engine::ingest` with telemetry
/// on against off, five alternating pairs. Returns `(median, max − min)` of
/// the per-pair overhead in percent.
pub fn telemetry_overhead(w: &Workload, stream: &Stream) -> (f64, f64) {
    let pairs: Vec<f64> = (0..5)
        .map(|_| {
            let on = engine_ingest(w, stream, None, true).ns_per();
            let off = engine_ingest(w, stream, None, false).ns_per();
            (on / off - 1.0) * 100.0
        })
        .collect();
    let spread = pairs.iter().cloned().fold(f64::MIN, f64::max)
        - pairs.iter().cloned().fold(f64::MAX, f64::min);
    (median(&pairs), spread)
}

pub struct Queries {
    pub stages: Vec<Stage>,
    /// `cube.query` cost model from exactly 1 and 64 covered segments:
    /// `us = base + per_segment * (covered - 1)` — the first segment is a
    /// clone, every further one a merge.
    pub cube_query_us_base: f64,
    pub cube_query_us_per_segment: f64,
}

/// The query stages, each timed alone over a summary (or cube) built from
/// the workload's stream.
pub fn queries(w: &Workload, stream: &Stream) -> Queries {
    let cfg = probes::service_config(w.epsilon, SHARDS);
    let mut summary = probes::new_summary(&cfg, 0);
    probes::summary_update_batch(&mut summary, &stream.items[..1 << 20]);
    let encoded = probes::summary_encode(&summary);
    let mut stages = vec![
        timed("summary.point", 200_000, |i| {
            black_box(probes::summary_point(&summary, i % 4096));
        }),
        timed("summary.heavy_hitters", 5_000, |_| {
            black_box(probes::summary_heavy_hitters(&summary, w.epsilon));
        }),
        timed("summary.encode", 5_000, |_| {
            black_box(probes::summary_encode(&summary));
        }),
        timed("summary.decode", 5_000, |_| {
            black_box(probes::summary_decode(&encoded));
        }),
    ];

    let ring = probes::hash_ring(3);
    let routed = &stream.items[..1 << 18];
    let mut route = timed("cluster.route", 1, |_| {
        for &item in routed {
            black_box(probes::cluster_route(&ring, item));
        }
    });
    route.per = routed.len() as u64;
    stages.push(route);

    // Three nodes' summaries, each of a third of 3 Mi items.
    let parts: Vec<_> = (0..3)
        .map(|node| {
            let mut part = probes::new_summary(&cfg, node);
            probes::summary_update_batch(&mut part, &stream.items[node << 20..(node + 1) << 20]);
            part
        })
        .collect();
    let calls = 500;
    let mut gather_ns = 0;
    for _ in 0..calls {
        let nodes = parts.clone();
        let t0 = Instant::now();
        black_box(probes::cluster_merge_gather(nodes));
        gather_ns += t0.elapsed().as_nanos() as u64;
    }
    stages.push(Stage {
        name: "cluster.merge_gather",
        calls,
        self_ns: gather_ns,
        per: calls,
        on_path: true,
    });

    // A cube of 66 sealed segments of the workload's segment size (capped
    // at 32 Ki items), one clock tick per batch, so a window of k segment
    // lengths ending at the last seal covers exactly k sealed segments.
    let seal_batches = w
        .segment_batches
        .unwrap_or(64)
        .min((32768 / w.batch) as u64);
    let (cube, clock) = probes::new_cube(&cfg, seal_batches);
    let fill = 66 * seal_batches;
    for seq in 1..=fill {
        clock.advance(1);
        let at = (seq as usize * w.batch) % (stream.items.len() - w.batch);
        probes::cube_fold(&cube, seq, &stream.items[at..at + w.batch]);
    }
    let now = clock.advance(0);
    let mut fit = Vec::new();
    for (covered, calls) in [(1u64, 400u64), (64, 40)] {
        let start = now - covered * seal_batches + 1;
        let (meta, _) = probes::cube_query(&cube, start, now);
        assert_eq!(u64::from(meta.segments_merged), covered, "window sizing");
        let samples: Vec<f64> = (0..calls)
            .map(|_| {
                let t0 = Instant::now();
                black_box(probes::cube_query(&cube, start, now));
                t0.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        fit.push((covered as f64, median(&samples)));
    }
    Queries {
        stages,
        cube_query_us_base: fit[0].1,
        cube_query_us_per_segment: (fit[1].1 - fit[0].1) / (fit[1].0 - fit[0].0),
    }
}
