//! Allocation-count harness for the ingest hot path.
//!
//! Installs a counting global allocator and measures how many heap
//! allocations the *caller thread* performs per ingest batch once the
//! engine's buffer pool is primed. The acceptance bar is exactly zero:
//! a pooled buffer is fetched, filled, absorbed into a shard delta on the
//! calling thread and recycled, and a full delta is folded into the
//! global summary on that same thread and emptied in place — no `Vec` is
//! born or dies on the way. Two engine rounds hold that bar: Misra-Gries
//! and Count-Min, the two families whose deltas empty in place. The
//! rounds read nothing: the first fold after a read's publish copies the
//! global summary the snapshot shares (copy-on-write), once per publish.
//!
//! Counting is scoped to the measuring thread via a const-initialised
//! thread-local, so whatever another thread allocates (a connection
//! thread serving the client below, say) is not counted against the
//! caller.
//!
//! A folded-into global summary grows to its working size over its first
//! folds, so the zero-allocation claim is checked over a few rounds:
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

/// Ingest `items` through a fresh engine of `kind` from pooled buffers
/// until a measured round allocates nothing on this thread; the round
/// that did, or `None`. Prints the naive `to_vec` path's figure beside it.
fn steady_state(kind: SummaryKind, items: &[u64]) -> Option<usize> {
    let cfg = ServiceConfig::new(kind, 0.01)
        .shards(2)
        .delta_updates(16_384)
        .seed(7);
    let engine = Engine::start(cfg).unwrap();
    let pooled_pass = || {
        for chunk in items.chunks(BATCH) {
            let mut batch = engine.ingest_buffer();
            batch.extend_from_slice(chunk);
            engine.ingest(batch).unwrap();
        }
    };

    // Prime the pool: the first pass mints buffers (misses), later passes
    // recirculate them until the in-flight population stabilises.
    for _ in 0..WARMUP_PASSES {
        pooled_pass();
    }

    // Contrast figure: the naive path pays at least one allocation per
    // batch for the `to_vec` clone alone.
    let naive_allocs = count_allocs(|| {
        for chunk in items.chunks(BATCH) {
            engine.ingest(chunk.to_vec()).unwrap();
        }
    });

    let label = kind.label();
    let measured_batches = (MEASURE_PASSES * CHUNKS) as u64;
    let mut steady = None;
    for round in 1..=ROUNDS {
        let allocs = count_allocs(|| (0..MEASURE_PASSES).for_each(|_| pooled_pass()));
        println!(
            "{label} round {round}: {allocs} allocations across {measured_batches} pooled batches"
        );
        if allocs == 0 {
            steady = Some(round);
            break;
        }
    }
    let (reuses, misses, discards) = engine.pool_stats();
    let snapshot = engine.shutdown();
    assert!(snapshot.summary.total_weight() > 0);
    println!(
        "{label} naive to_vec path: {:.2} allocations/batch ({naive_allocs} over {CHUNKS})",
        naive_allocs as f64 / CHUNKS as f64
    );
    println!("{label} pool stats: reuses={reuses} misses={misses} discards={discards}");
    steady
}

fn main() {
    let items = StreamKind::Zipf {
        s: 1.1,
        universe: 1 << 20,
    }
    .generate(BATCH * CHUNKS, 42);

    for kind in [SummaryKind::Mg, SummaryKind::CountMin] {
        let label = kind.label();
        match steady_state(kind, &items) {
            Some(round) => println!(
                "{label} steady-state ingest: 0 allocations/batch on the caller thread (round {round})"
            ),
            None => panic!(
                "{label} ingest hot path still allocates after {ROUNDS} rounds of \
                 {} batches — the zero-allocation invariant regressed",
                MEASURE_PASSES * CHUNKS
            ),
        }
    }

    // The wire side of the same claim: `Client::ingest_slice` writes
    // every frame into one scratch and reads every reply into another,
    // both reused for the connection's lifetime.
    let engine = Engine::start(ServiceConfig::new(SummaryKind::Mg, 0.01).seed(7)).unwrap();
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
    server.stop();
    engine.shutdown();
}
