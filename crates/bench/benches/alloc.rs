//! Allocation-count harness for the ingest hot path.
//!
//! Installs a counting global allocator and measures how many heap
//! allocations the *caller thread* performs per ingest batch once the
//! engine's buffer pool is primed. The acceptance bar is exactly zero:
//! a pooled buffer is fetched, filled, handed to a shard ring, absorbed
//! by the worker, and recycled — no `Vec` is born or dies on the way.
//!
//! Counting is scoped to the measuring thread via a const-initialised
//! thread-local (worker and compactor threads allocate freely — deltas
//! grow, snapshots serialize — and none of that is on the caller's
//! critical path). Attribution-by-thread is what makes a zero assert
//! meaningful on a machine where background threads are always busy.
//!
//! Scheduling noise can leave a pool temporarily empty right after
//! start-up, so the zero-allocation claim is checked over a few rounds:
//! steady state must show up within [`ROUNDS`] attempts or the harness
//! fails the build. The client's send path (`Client::ingest_slice` over
//! a loopback connection) is held to the same zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ms_core::Summary;
use ms_service::{Client, Engine, Server, ServiceConfig, SummaryKind};
use ms_workloads::StreamKind;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Delegates to the system allocator, bumping a thread-local counter on
/// every allocating call made while that thread has counting enabled.
struct CountingAlloc;

impl CountingAlloc {
    fn record() {
        // `try_with` instead of `with`: the allocator runs during thread
        // teardown when TLS may already be gone.
        let _ = ENABLED.try_with(|e| {
            if e.get() {
                let _ = COUNT.try_with(|c| c.set(c.get() + 1));
            }
        });
    }
}

// SAFETY: pure pass-through to `System`; the counter is a thread-local
// `Cell` touched only by the current thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` with allocation counting enabled on this thread and return
/// how many allocations it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(0));
    ENABLED.with(|e| e.set(true));
    f();
    ENABLED.with(|e| e.set(false));
    COUNT.with(|c| c.get())
}

const BATCH: usize = 4_096;
const CHUNKS: usize = 64;
const WARMUP_PASSES: usize = 8;
const MEASURE_PASSES: usize = 4;
const ROUNDS: usize = 5;

fn main() {
    let items = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 20,
    }
    .generate(BATCH * CHUNKS, 42);

    let cfg = ServiceConfig::new(SummaryKind::Mg, 0.01)
        .shards(2)
        .delta_updates(16_384)
        .seed(7);
    let engine = Engine::start(cfg).unwrap();

    // Prime the pool: the first pass mints buffers (misses), later passes
    // recirculate them until the in-flight population stabilises.
    for _ in 0..WARMUP_PASSES {
        for chunk in items.chunks(BATCH) {
            let mut batch = engine.ingest_buffer();
            batch.extend_from_slice(chunk);
            engine.ingest(batch).unwrap();
        }
    }

    // Contrast figure: the naive path pays at least one allocation per
    // batch for the `to_vec` clone alone.
    let naive_batches = CHUNKS as u64;
    let naive_allocs = count_allocs(|| {
        for chunk in items.chunks(BATCH) {
            engine.ingest(chunk.to_vec()).unwrap();
        }
    });

    let measured_batches = (MEASURE_PASSES * CHUNKS) as u64;
    let mut steady = None;
    for round in 1..=ROUNDS {
        let allocs = count_allocs(|| {
            for _ in 0..MEASURE_PASSES {
                for chunk in items.chunks(BATCH) {
                    let mut batch = engine.ingest_buffer();
                    batch.extend_from_slice(chunk);
                    engine.ingest(batch).unwrap();
                }
            }
        });
        println!("round {round}: {allocs} allocations across {measured_batches} pooled batches");
        if allocs == 0 {
            steady = Some(round);
            break;
        }
    }

    // The wire side of the same claim: `Client::ingest_slice` writes
    // every frame into one scratch and reads every reply into another,
    // both reused for the connection's lifetime.
    let server = Server::bind(std::sync::Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // One pass first: the scratch grows to the largest frame it has sent,
    // and the chunks do not all encode to the same length.
    for chunk in items.chunks(BATCH) {
        client.ingest_slice(chunk).unwrap();
    }
    let client_allocs = count_allocs(|| {
        for chunk in items.chunks(BATCH) {
            client.ingest_slice(chunk).unwrap();
        }
    });
    println!("client ingest_slice: {client_allocs} allocations across {CHUNKS} sends");
    assert_eq!(client_allocs, 0, "the client's send path allocates");
    drop(client);

    let (reuses, misses, discards) = engine.pool_stats();
    server.stop();
    let snapshot = engine.shutdown();
    assert!(snapshot.summary.total_weight() > 0);

    println!(
        "naive to_vec path: {:.2} allocations/batch ({naive_allocs} over {naive_batches})",
        naive_allocs as f64 / naive_batches as f64
    );
    println!("pool stats: reuses={reuses} misses={misses} discards={discards}");
    match steady {
        Some(round) => println!(
            "steady-state ingest: 0 allocations/batch on the caller thread (round {round})"
        ),
        None => panic!(
            "ingest hot path still allocates after {ROUNDS} rounds of \
             {measured_batches} batches — the zero-allocation invariant regressed"
        ),
    }
}
