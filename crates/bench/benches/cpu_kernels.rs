//! Batched CPU hot-path kernels: Count-Min batch update and multiway
//! merge, scalar reference vs runtime-dispatched (AVX2/AVX-512) variants,
//! the hybrid quantile kernels, the segment cube's range read cold and
//! through its memo, a sealed segment's bit-packed resting form (pack,
//! unpack and bytes per point), the batch
//! varint codec beside the byte-at-a-time
//! loops it replaced, and a Misra-Gries shard's update and merge.
//! Persists `results/BENCH_kernels.json`.
//!
//! Deterministic and meaningful on a 1-CPU host: every row is a
//! single-threaded kernel measured over seeded inputs, so the
//! scalar-vs-dispatched ratio does not depend on core count.
//!
//! `MS_KERNEL_GATE=<ratio>` turns this into a CI gate: the process exits
//! non-zero unless the dispatched Count-Min update and merge kernels —
//! and, on a tier that has one, the keep-parity merge kernel — are at
//! least `ratio`× their scalar baselines. On hosts where no vector path
//! exists (or under `MS_FORCE_SCALAR=1`) every number is still recorded
//! and the gate self-skips with a logged reason; a vector tier without a
//! merge kernel (AVX2) skips that leg the same way.
//!
//! `MS_BENCH_MS` is the budget knob, as in the other benches.

use ms_bench::{Measurement, Suite};
use ms_core::simd::{self, Isa};
use ms_core::wire::{check_u64_slice, decode_u64_slice_into, encode_u64_slice_into, put_varint};
use ms_core::{ItemSummary, Json, Rng64, Summary, ToJson, Wire, WireReader};
use ms_quantiles::{HybridQuantile, RankSummary};
use ms_service::{
    ManualClock, SegmentConfig, SegmentCube, ServiceConfig, ShardSummary, SummaryKind,
};
use ms_sketches::batch;
use ms_sketches::hashing::PairwiseHash;
use ms_sketches::CountMinSketch;
use ms_workloads::StreamKind;
use std::sync::Arc;

/// ε = 0.01 Count-Min geometry (width 272 × depth 5) for the update rows.
const UPDATE_EPS: f64 = 0.01;
/// ε = 0.001 geometry (width 2719 × depth 5) for the merge rows: big
/// enough that the table walk, not loop setup, dominates.
const MERGE_TABLE_CELLS: usize = 2719 * 5;
/// Sources fused per multiway merge — the compactor's backlog fan-in.
const MERGE_SOURCES: usize = 8;
/// The segment cube's hybrid quantile geometry (m = 921, L = 9).
const HYBRID_EPS: f64 = 0.01;
/// Items in one sealed segment of the ledger's `read-write` workload
/// (256 batches × 128).
const SEGMENT_ITEMS: usize = 32_768;
/// Points in one buffer of that geometry.
const HYBRID_M: usize = 921;
/// Items per ingest batch on the hybrid insert rows.
const INSERT_BATCH: usize = 1_024;
/// The ledger's `read-write` segment: 256 batches of 128 items.
const SEGMENT_BATCHES: u64 = 256;
const SEGMENT_BATCH: usize = 128;
/// Distinct windows a cold row rotates over: more than the range memo
/// keeps, so every window's fold has aged out before it comes round.
const COLD_WINDOWS: usize = 16;

fn rate(measurements: &[Measurement], label: &str) -> f64 {
    measurements
        .iter()
        .find(|m| m.label == label)
        .and_then(Measurement::throughput)
        .unwrap_or(0.0)
}

/// The batch codec over `items` in ingest-sized batches, the word-at-a-time
/// kernels beside the per-item loops they replaced (same bytes, same
/// accept set — `ms-core`'s differential test holds them to that).
fn varint_rows(name: &str, items: &[u64]) -> Vec<Measurement> {
    let n = items.len() as u64;
    let frames: Vec<Vec<u8>> = items
        .chunks(INSERT_BATCH)
        .map(|batch| {
            let mut frame = Vec::new();
            encode_u64_slice_into(&mut frame, batch);
            frame
        })
        .collect();
    let mut bytes = Vec::new();
    let mut decoded = Vec::new();
    let mut suite = Suite::new(name);
    suite.bench_elems("encode_bytewise", n, || {
        for batch in items.chunks(INSERT_BATCH) {
            bytes.clear();
            put_varint(&mut bytes, batch.len() as u64);
            for &v in std::hint::black_box(batch) {
                put_varint(&mut bytes, v);
            }
        }
        std::hint::black_box(bytes.len())
    });
    suite.bench_elems("encode", n, || {
        for batch in items.chunks(INSERT_BATCH) {
            bytes.clear();
            encode_u64_slice_into(&mut bytes, std::hint::black_box(batch));
        }
        std::hint::black_box(bytes.len())
    });
    suite.bench_elems("decode_bytewise", n, || {
        for frame in &frames {
            decoded.clear();
            let mut r = WireReader::new(std::hint::black_box(frame));
            for _ in 0..r.length().expect("a length prefix") {
                decoded.push(r.varint().expect("a valid varint"));
            }
        }
        std::hint::black_box(decoded.len())
    });
    suite.bench_elems("decode", n, || {
        for frame in &frames {
            decoded.clear();
            let mut r = WireReader::new(std::hint::black_box(frame));
            decode_u64_slice_into(&mut r, &mut decoded).expect("a valid batch");
        }
        std::hint::black_box(decoded.len())
    });
    suite.bench_elems("check", n, || {
        frames
            .iter()
            .map(|frame| check_u64_slice(&mut WireReader::new(std::hint::black_box(frame))))
            .map(|count| count.expect("a valid batch"))
            .sum::<usize>()
    });
    let rows = suite.finish();
    for m in &rows {
        println!("{:<16} {:>6.2} ns/item", m.label, m.ns_per_iter / n as f64);
    }
    rows
}

/// A cube of `segments` sealed `read-write`-shaped segments (Zipf items,
/// ε = 0.01, one clock micro per batch) and each one's `[start, end]`.
fn sealed_cube(segments: usize) -> (SegmentCube, Vec<(u64, u64)>) {
    let clock = Arc::new(ManualClock::new(0));
    let cfg = SegmentConfig::new()
        .seal_batches(SEGMENT_BATCHES)
        .clock(clock.clone());
    let cube = SegmentCube::new(HYBRID_EPS, 7, cfg);
    let mut seq = 0;
    for i in 0..segments as u64 {
        let items = StreamKind::Zipf {
            s: 1.1,
            universe: 1 << 20,
        }
        .generate(SEGMENT_ITEMS, 0x5E6_0100 + i);
        for batch in items.chunks(SEGMENT_BATCH) {
            clock.advance(1);
            seq += 1;
            cube.record_at(seq, batch);
        }
    }
    let spans = cube
        .report()
        .segments
        .iter()
        .map(|seg| (seg.start_micros, seg.end_micros))
        .collect();
    (cube, spans)
}

/// The range memo's counts: hits, extends, misses.
fn memo_counts(cube: &SegmentCube) -> [u64; 3] {
    let h = cube.health();
    [h.memo_hits, h.memo_extends, h.memo_misses]
}

fn main() {
    let n: usize = 65_536;
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let isa = simd::active_isa();
    println!(
        "cpu kernels: dispatch={} host_cpus={host_cpus} forced_scalar={}",
        isa.label(),
        simd::force_scalar()
    );

    let items = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 20,
    }
    .generate(n, 0xF417_5EED);

    // -- Count-Min batch update: per-item (pre-batching), scalar batch
    // kernel (semantic source of truth), dispatched batch kernel.
    let mut update = Suite::new("cm_update (eps=0.01, 272x5)");
    update.bench_elems("per_item", n as u64, || {
        let mut s = CountMinSketch::for_epsilon_delta(UPDATE_EPS, 0.01, 7);
        for &item in &items {
            s.update(std::hint::black_box(item));
        }
        std::hint::black_box(s.total_weight())
    });
    update.bench_elems("batch_scalar", n as u64, || {
        let mut s = CountMinSketch::for_epsilon_delta(UPDATE_EPS, 0.01, 7);
        s.update_batch_with(Isa::Scalar, std::hint::black_box(&items));
        std::hint::black_box(s.total_weight())
    });
    update.bench_elems("batch_dispatched", n as u64, || {
        let mut s = CountMinSketch::for_epsilon_delta(UPDATE_EPS, 0.01, 7);
        s.update_batch_with(isa, std::hint::black_box(&items));
        std::hint::black_box(s.total_weight())
    });
    let update_rows = update.finish();

    // -- Row-bucket hash kernel in isolation: hash + Mersenne reduce +
    // `% width`, the arithmetic the AVX2 path rewrites (magic-multiply
    // division instead of one hardware `div` per item).
    let mut hash = Suite::new("row_buckets (width=272)");
    let hash_fn = PairwiseHash::new(0xB0B5_CAFE);
    let mut rng = Rng64::new(0x2026_0806);
    let fps: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let mut out = vec![0u32; n];
    for tier in simd::supported_isas() {
        hash.bench_elems(tier.label(), n as u64, || {
            batch::row_buckets_with(tier, &hash_fn, 272, &fps, &mut out);
            std::hint::black_box(out[n - 1])
        });
    }
    let hash_rows = hash.finish();

    // -- Count-Min merge: the compactor's backlog fold. The scalar
    // baseline is what the engine shipped before this change — eight
    // sequential pairwise table adds — and the dispatched kernel is the
    // fused multiway add that walks the destination once.
    let mut merge = Suite::new(&format!(
        "cm_merge (eps=0.001, 2719x5, {MERGE_SOURCES} sources)"
    ));
    let mut rng = Rng64::new(0xF417_5EED);
    let sources: Vec<Vec<u64>> = (0..MERGE_SOURCES)
        .map(|_| {
            (0..MERGE_TABLE_CELLS)
                .map(|_| rng.next_u64() >> 8)
                .collect()
        })
        .collect();
    let source_refs: Vec<&[u64]> = sources.iter().map(Vec::as_slice).collect();
    let mut dst = vec![0u64; MERGE_TABLE_CELLS];
    let cells = (MERGE_TABLE_CELLS * MERGE_SOURCES) as u64;
    merge.bench_elems("sequential_scalar", cells, || {
        for src in &source_refs {
            simd::add_slices_with(Isa::Scalar, &mut dst, std::hint::black_box(src));
        }
        std::hint::black_box(dst[0])
    });
    merge.bench_elems("sequential_dispatched", cells, || {
        for src in &source_refs {
            simd::add_slices_with(isa, &mut dst, std::hint::black_box(src));
        }
        std::hint::black_box(dst[0])
    });
    merge.bench_elems("fused_scalar", cells, || {
        simd::add_slices_multi_with(Isa::Scalar, &mut dst, std::hint::black_box(&source_refs));
        std::hint::black_box(dst[0])
    });
    merge.bench_elems("fused_dispatched", cells, || {
        simd::add_slices_multi_with(isa, &mut dst, std::hint::black_box(&source_refs));
        std::hint::black_box(dst[0])
    });
    let merge_rows = merge.finish();

    // -- Hybrid quantile (§4.3): the three kernels every cube fold,
    // range read and quantile answer bottoms out in. Only the merge
    // kernel's pair rows are gated; the rest exist so a change to them is
    // a number, not a guess.
    let mut hybrid_insert = Suite::new("hybrid_insert (eps=0.01, m=921)");
    hybrid_insert.bench_elems("per_item", n as u64, || {
        let mut q = HybridQuantile::new(HYBRID_EPS, 7);
        for &item in &items {
            q.insert(std::hint::black_box(item));
        }
        std::hint::black_box(q.count())
    });
    hybrid_insert.bench_elems("batch", n as u64, || {
        let mut q = HybridQuantile::new(HYBRID_EPS, 7);
        for batch in items.chunks(INSERT_BATCH) {
            q.insert_batch(std::hint::black_box(batch));
        }
        std::hint::black_box(q.count())
    });
    let hybrid_insert_rows = hybrid_insert.finish();

    // Eight sealed-segment-sized summaries, merged the way
    // `SegmentCube::query` merges them: clone each part, fold pairwise.
    let segments: Vec<HybridQuantile<u64>> = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 20,
    }
    .generate(MERGE_SOURCES * SEGMENT_ITEMS, 0x5E6_0001)
    .chunks(SEGMENT_ITEMS)
    .enumerate()
    .map(|(i, chunk)| {
        let mut q = HybridQuantile::new(HYBRID_EPS, 100 + i as u64);
        q.insert_batch(chunk);
        q
    })
    .collect();
    let fold = |parts: &[HybridQuantile<u64>]| {
        let mut acc = parts[0].clone();
        for part in &parts[1..] {
            acc.merge_from(part.clone()).expect("same geometry");
        }
        acc
    };
    // The §4.1 keep-parity merge alone, on m-point sorted buffers of the
    // stream, both coins: the scalar loop beside the dispatched kernel.
    let buffers: Vec<Vec<u64>> = items
        .chunks_exact(HYBRID_M)
        .map(|chunk| {
            let mut buffer = chunk.to_vec();
            buffer.sort_unstable();
            buffer
        })
        .collect();
    let mut hybrid_merge = Suite::new("hybrid_merge (32Ki-item summaries; m = 921 buffers)");
    // Every pair row rotates over adjacent pairs: one pair merged over and
    // over is a branch pattern the predictor learns, which flatters any
    // merge loop that branches on the data.
    for (label, tier) in [("pair_scalar", Isa::Scalar), ("pair_dispatched", isa)] {
        let mut at = 0;
        hybrid_merge.bench_elems(label, 2 * HYBRID_M as u64, || {
            at = (at + 1) % (buffers.len() - 1);
            let (a, b) = (&buffers[at], &buffers[at + 1]);
            let (a, b) = (std::hint::black_box(a), std::hint::black_box(b));
            simd::merge_keep_parity_u64_with(tier, a, b, at & 1).len()
        });
    }
    let mut at = 0;
    hybrid_merge.bench("pair", || {
        at = (at + 1) % (MERGE_SOURCES - 1);
        std::hint::black_box(fold(&segments[at..at + 2])).count()
    });
    hybrid_merge.bench("fold8", || std::hint::black_box(fold(&segments)).count());
    let hybrid_merge_rows = hybrid_merge.finish();

    let merged = fold(&segments);
    let mut hybrid_quantile = Suite::new("hybrid_quantile (8 merged segments)");
    hybrid_quantile.bench("answer", || merged.quantile(std::hint::black_box(0.5)));
    let hybrid_quantile_rows = hybrid_quantile.finish();

    // -- The segment cube's quantile range read over 8 and 64 sealed
    // segments, through `SegmentCube::query` and its range memo: a cold
    // fold (the window rotates past what the memo keeps), a repeat of a
    // memoized window, and a window one sealed segment longer than a
    // memoized one (the read after a seal). The ledger's in-process
    // replay repeats one window, so its `cube.query_us_per_segment` reads
    // the hit path; the cold rows are where a fold's per-segment cost
    // stays measured. Each row checks it took the memo path it names.
    let (cube, spans) = sealed_cube(64 + COLD_WINDOWS);
    let window = |first: usize, len: usize| (spans[first].0, spans[first + len - 1].1);
    let read = |(start, end): (u64, u64)| cube.query(start, end, SummaryKind::HybridQuantile);
    // Ages every memoized fold out (more distinct runs than the memo
    // keeps) and returns the counts to measure a row's lookups from.
    let fresh_memo = || {
        for first in 0..COLD_WINDOWS {
            cube.query(spans[first].0, spans[first + 1].1, SummaryKind::Mg);
        }
        memo_counts(&cube)
    };
    let since = |before: [u64; 3]| -> [u64; 3] {
        let now = memo_counts(&cube);
        std::array::from_fn(|i| now[i] - before[i])
    };
    let mut cube_range = Suite::new("cube_range (read-write segments: 32Ki items, eps=0.01)");
    for len in [8, 64] {
        let before = fresh_memo();
        let mut at = 0;
        cube_range.bench(&format!("fold{len}_cold"), || {
            at = (at + 1) % COLD_WINDOWS;
            read(window(at, len))
        });
        let [hits, extends, _] = since(before);
        assert_eq!((hits, extends), (0, 0), "fold{len}_cold must miss");
        let before = fresh_memo();
        read(window(0, len));
        cube_range.bench(&format!("fold{len}_hit"), || read(window(0, len)));
        let [_, extends, misses] = since(before);
        assert_eq!((extends, misses), (0, 1), "fold{len}_hit must hit");
    }
    let before = fresh_memo();
    let mut at = 0;
    cube_range.bench_with_setup(
        "fold8_extend",
        || {
            at = (at + 1) % COLD_WINDOWS;
            read(window(at, 7));
            at
        },
        |at| read(window(at, 8)),
    );
    let [hits, extends, misses] = since(before);
    assert!(hits == 0 && extends == misses, "fold8_extend must extend");
    let cube_range_rows = cube_range.finish();

    // -- A sealed segment's resting form: packing the quantile family of
    // a ledger-shaped segment (64 batches of 1,024 Zipf items, the cube's
    // ε = 0.01) into bit-width blocks when it seals, and unpacking the
    // copy a range read merges; then what the whole segment rests in —
    // the packed quantile blocks and the MG slot, `resident_bytes` of a
    // cube that sealed it. Ungated: the rows keep the read cost, the
    // write cost and the space of the resting form committed numbers.
    let mut segment = HybridQuantile::new(HYBRID_EPS, 7);
    for batch in items.chunks(INSERT_BATCH) {
        segment.insert_batch(batch);
    }
    let packed = segment.pack();
    assert_eq!(packed.unpack().encode(), segment.encode());
    let mut cube_rest = Suite::new(&format!(
        "cube_rest (ledger segment: 64x1024 items, eps=0.01, {} points in {} bytes)",
        segment.size(),
        packed.heap_bytes()
    ));
    cube_rest.bench("pack", || std::hint::black_box(&segment).pack());
    cube_rest.bench("unpack", || std::hint::black_box(&packed).unpack());
    let cube_rest_rows = cube_rest.finish();
    let sealed = SegmentCube::new(HYBRID_EPS, 7, SegmentConfig::new().seal_batches(64));
    for batch in items.chunks(INSERT_BATCH) {
        sealed.record(batch);
    }
    let resident = sealed.health().resident_bytes;
    let quantile_per_point = packed.heap_bytes() as f64 / segment.size() as f64;
    let resident_per_point = resident as f64 / segment.size() as f64;
    println!(
        "cube_rest bytes: quantile {quantile_per_point:.3} B/point, \
         segment resident {resident} B ({resident_per_point:.3} B/point)"
    );
    let cube_rest_bytes = Json::obj([
        ("points", segment.size().to_json()),
        ("quantile_bytes", packed.heap_bytes().to_json()),
        ("quantile_bytes_per_point", quantile_per_point.to_json()),
        ("resident_bytes", resident.to_json()),
        ("resident_bytes_per_point", resident_per_point.to_json()),
    ]);

    // -- Batch varint codec: what every ingest frame, WAL record and
    // coordinator leg goes through. The ledger's stream, and a uniform
    // one that lives on the 9- and 10-byte slow path.
    let varint_zipf_rows = varint_rows("varint (zipf 1.1 over 2^20, 1024-item batches)", &items);
    let varint_uniform_rows = varint_rows("varint (uniform u64, 1024-item batches)", &fps);

    // -- Misra-Gries, the family every ledger workload serves: a shard's
    // `update_batch` over the stream in ingest-sized batches, at the
    // ledger's ε and at ε = 0.001, and the compactor's `merge_in_place`
    // of two full tables (each half the stream). Ungated: the rows exist
    // so the counter table's cost is a committed number.
    let mut mg_update = Suite::new("mg_update (zipf 1.1 over 2^20, 1024-item batches)");
    for eps in [0.01, 0.001] {
        let cfg = ServiceConfig::new(SummaryKind::Mg, eps);
        let shard = |items: &[u64]| {
            let mut s = ShardSummary::new(&cfg, 0);
            for batch in items.chunks(INSERT_BATCH) {
                s.update_batch(std::hint::black_box(batch));
            }
            s
        };
        mg_update.bench_elems(&format!("update_batch_eps{eps}"), n as u64, || {
            shard(&items).total_weight()
        });
        let (a, b) = (shard(&items[..n / 2]), shard(&items[n / 2..]));
        mg_update.bench_with_setup(
            &format!("merge_in_place_eps{eps}"),
            || (a.clone(), b.clone()),
            |(mut a, b)| {
                a.merge_in_place(b).expect("same geometry");
                a
            },
        );
    }
    let mg_update_rows = mg_update.finish();

    let update_scalar = rate(&update_rows, "batch_scalar");
    let update_dispatched = rate(&update_rows, "batch_dispatched");
    let update_ratio = update_dispatched / update_scalar.max(1.0);
    let merge_scalar = rate(&merge_rows, "sequential_scalar");
    let merge_dispatched = rate(&merge_rows, "fused_dispatched");
    let merge_ratio = merge_dispatched / merge_scalar.max(1.0);
    let pair_scalar = rate(&hybrid_merge_rows, "pair_scalar");
    let pair_dispatched = rate(&hybrid_merge_rows, "pair_dispatched");
    let pair_ratio = pair_dispatched / pair_scalar.max(1.0);
    println!(
        "\ncm_update dispatched/scalar: {update_ratio:.2}x   \
         cm_merge fused-dispatched/sequential-scalar: {merge_ratio:.2}x   \
         hybrid_merge pair dispatched/scalar: {pair_ratio:.2}x"
    );

    if let Ok(gate) = std::env::var("MS_KERNEL_GATE") {
        let gate: f64 = gate.parse().expect("MS_KERNEL_GATE must be a number");
        let ratios = format!(
            "update {update_ratio:.2}x, merge {merge_ratio:.2}x, \
             hybrid merge {pair_ratio:.2}x, gate {gate:.2}x"
        );
        if !isa.is_vector() {
            let reason = if simd::force_scalar() {
                "MS_FORCE_SCALAR set"
            } else {
                "host ISA has no vector path"
            };
            println!("kernel gate SKIPPED ({reason}): every number recorded — {ratios}");
        } else {
            // The hybrid merge leg applies only where a merge kernel exists.
            let gated_pair = simd::has_merge_kernel(isa);
            if !gated_pair {
                println!(
                    "kernel gate: hybrid merge leg SKIPPED ({} has no keep-parity merge \
                     kernel; the scalar loop runs): {pair_ratio:.2}x recorded",
                    isa.label()
                );
            }
            if update_ratio < gate || merge_ratio < gate || (gated_pair && pair_ratio < gate) {
                eprintln!("kernel gate FAILED on {}: {ratios}", isa.label());
                std::process::exit(1);
            }
            println!("kernel gate passed on {}: {ratios}", isa.label());
        }
    }

    let suite_json = |rows: &[Measurement]| {
        Json::Arr(
            rows.iter()
                .map(|m| {
                    Json::obj([
                        ("label", m.label.to_json()),
                        ("ns_per_iter", m.ns_per_iter.to_json()),
                        ("updates_per_sec", m.throughput().unwrap_or(0.0).to_json()),
                    ])
                })
                .collect(),
        )
    };
    let record = Json::obj([
        ("id", "bench_kernels".to_json()),
        ("items", n.to_json()),
        ("host_cpus", host_cpus.to_json()),
        ("dispatched_isa", isa.label().to_json()),
        ("forced_scalar", simd::force_scalar().to_json()),
        ("cm_update", suite_json(&update_rows)),
        ("row_buckets", suite_json(&hash_rows)),
        ("cm_merge", suite_json(&merge_rows)),
        ("hybrid_insert", suite_json(&hybrid_insert_rows)),
        ("hybrid_merge", suite_json(&hybrid_merge_rows)),
        ("hybrid_quantile", suite_json(&hybrid_quantile_rows)),
        ("cube_range", suite_json(&cube_range_rows)),
        ("cube_rest", suite_json(&cube_rest_rows)),
        ("cube_rest_bytes", cube_rest_bytes),
        ("varint_zipf", suite_json(&varint_zipf_rows)),
        ("varint_uniform", suite_json(&varint_uniform_rows)),
        ("mg_update", suite_json(&mg_update_rows)),
        (
            "ratios",
            Json::obj([
                ("cm_update_dispatched_vs_scalar", update_ratio.to_json()),
                (
                    "cm_merge_fused_dispatched_vs_sequential_scalar",
                    merge_ratio.to_json(),
                ),
                (
                    "hybrid_merge_pair_dispatched_vs_scalar",
                    pair_ratio.to_json(),
                ),
            ]),
        ),
    ]);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let path = dir.join("BENCH_kernels.json");
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, record.to_string_pretty()))
    {
        eprintln!("warning: could not persist BENCH_kernels.json: {e}");
    } else {
        println!("wrote {}", path.display());
    }
}
