//! Shutdown-ordering torture tests: drop-while-ingesting, concurrent
//! double-shutdown, query-after-shutdown and a durable shutdown racing
//! ingests must all produce typed errors (or valid answers), never a
//! deadlock, a panic or a lost acked batch.
//!
//! Every test runs many seeded iterations under a watchdog: a deadlock
//! fails the test with a message instead of hanging the suite.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ms_core::{Rng64, ServiceError, Summary};
use ms_service::{DurabilityConfig, Engine, FsyncPolicy, ServiceConfig, SummaryKind};

const ITERATIONS: u64 = 120;

/// Run `f` on its own thread and fail loudly if it doesn't finish in
/// `secs` — a hung shutdown path must fail the test, not the CI job.
fn with_deadline<F: FnOnce() + Send + 'static>(secs: u64, what: &str, f: F) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => runner.join().unwrap(),
        Err(_) => panic!("{what}: deadlocked (no progress after {secs}s)"),
    }
}

fn small_engine(kind: SummaryKind, seed: u64) -> Arc<Engine> {
    Engine::start(
        ServiceConfig::new(kind, 0.05)
            .shards(2)
            .queue_depth(2)
            .delta_updates(64)
            .seed(seed),
    )
    .unwrap()
}

#[test]
fn shutdown_while_ingesting_errors_instead_of_deadlocking() {
    with_deadline(120, "shutdown-while-ingesting", || {
        let mut rng = Rng64::new(0x5D0_0001);
        let clean_exits = Arc::new(AtomicU64::new(0));
        for i in 0..ITERATIONS {
            let engine = small_engine(SummaryKind::Mg, i);
            let pusher = {
                let engine = Arc::clone(&engine);
                let clean_exits = Arc::clone(&clean_exits);
                std::thread::spawn(move || loop {
                    match engine.ingest(vec![1, 2, 3, 4]) {
                        Ok(()) => {}
                        Err(ServiceError::Shutdown) => {
                            clean_exits.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        Err(other) => panic!("unexpected {other:?}"),
                    }
                })
            };
            // Shut down at a seeded, varying point in the ingest stream.
            std::thread::sleep(Duration::from_micros(rng.below(2_000)));
            let snap = engine.shutdown();
            // Whatever was accepted before the cut is fully visible.
            assert_eq!(snap.summary.total_weight(), engine.metrics().updates);
            pusher.join().unwrap();
        }
        // The pusher always exits via the typed Shutdown error.
        assert_eq!(clean_exits.load(Ordering::Relaxed), ITERATIONS);
    });
}

#[test]
fn concurrent_double_shutdown_is_idempotent() {
    with_deadline(120, "double-shutdown", || {
        for i in 0..ITERATIONS {
            let engine = small_engine(SummaryKind::SpaceSaving, i);
            for _ in 0..10 {
                engine.ingest(vec![9; 32]).unwrap();
            }
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    std::thread::spawn(move || engine.shutdown().summary.total_weight())
                })
                .collect();
            let weights: Vec<u64> = racers.into_iter().map(|h| h.join().unwrap()).collect();
            // Both callers observe the same fully-drained final state.
            assert_eq!(weights[0], 320);
            assert_eq!(weights[1], 320);
            // And a third, sequential shutdown is a no-op.
            assert_eq!(engine.shutdown().summary.total_weight(), 320);
        }
    });
}

#[test]
fn queries_after_shutdown_answer_and_mutations_error() {
    with_deadline(120, "query-after-shutdown", || {
        for i in 0..ITERATIONS {
            let engine = small_engine(SummaryKind::HybridQuantile, i);
            for _ in 0..5 {
                engine.ingest((0..64).collect()).unwrap();
            }
            engine.shutdown();
            // Reads still serve from the final snapshot…
            let snap = engine.snapshot();
            assert_eq!(snap.summary.total_weight(), 320);
            assert!(snap.summary.rank(32).is_some());
            assert_eq!(engine.metrics().updates, 320);
            // …while every mutation is a typed error, not a hang.
            assert_eq!(engine.ingest(vec![1]), Err(ServiceError::Shutdown));
            assert_eq!(engine.flush(), Err(ServiceError::Shutdown));
        }
    });
}

#[test]
fn clean_shutdown_preserves_every_acked_batch() {
    with_deadline(120, "shutdown-flush", || {
        let mut rng = Rng64::new(0x5D0_0002);
        for i in 0..ITERATIONS {
            let engine = small_engine(SummaryKind::Mg, i);
            // The pusher races shutdown and counts exactly the batches the
            // engine acknowledged with Ok before the cut.
            let pusher = {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut acked = 0u64;
                    loop {
                        match engine.ingest(vec![1, 2, 3, 4, 5, 6, 7, 8]) {
                            Ok(()) => acked += 1,
                            Err(ServiceError::Shutdown) => return acked,
                            Err(other) => panic!("unexpected {other:?}"),
                        }
                    }
                })
            };
            std::thread::sleep(Duration::from_micros(rng.below(2_000)));
            let snap = engine.shutdown();
            let acked = pusher.join().unwrap();
            // Clean shutdown waits out in-flight absorbs and folds every
            // delta before it publishes: the final snapshot holds
            // *exactly* the acked batches — an Ok ingest is never lost, a
            // rejected one never counted.
            assert_eq!(
                snap.summary.total_weight(),
                acked * 8,
                "iteration {i}: acked {acked} batches of 8"
            );
        }
    });
}

#[test]
fn durable_shutdown_waits_out_ingests_past_their_check() {
    // Under `fsync always` an ingest spends most of its time in the WAL
    // append, after its `stopped` check and before its absorb. Shutdown
    // must wait those out before its final barrier, or an acked batch is
    // absorbed after the barrier and missing from the final snapshot.
    with_deadline(300, "durable-shutdown-race", || {
        let mut rng = Rng64::new(0x5D0_0003);
        for i in 0..30 {
            let dir = std::env::temp_dir().join(format!(
                "ms-service-shutdown-race-{i}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let durability = DurabilityConfig::new(&dir).fsync(FsyncPolicy::Always);
            let engine = Engine::start(
                ServiceConfig::new(SummaryKind::Mg, 0.05)
                    .shards(2)
                    .delta_updates(64)
                    .seed(i)
                    .durability(durability),
            )
            .unwrap();
            let pushers: Vec<_> = (0..3)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    std::thread::spawn(move || {
                        let mut acked = 0u64;
                        loop {
                            match engine.ingest(vec![1, 2, 3, 4, 5, 6, 7, 8]) {
                                Ok(()) => acked += 1,
                                Err(ServiceError::Shutdown) => return acked,
                                Err(other) => panic!("unexpected {other:?}"),
                            }
                        }
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_micros(rng.below(5_000)));
            let snap = engine.shutdown();
            let acked: u64 = pushers.into_iter().map(|p| p.join().unwrap()).sum();
            assert_eq!(snap.summary.total_weight(), acked * 8, "iteration {i}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    });
}

#[test]
fn drop_without_shutdown_does_not_hang_the_process() {
    with_deadline(120, "drop-without-shutdown", || {
        for i in 0..ITERATIONS {
            let engine = small_engine(SummaryKind::CountMin, i);
            engine.ingest(vec![5; 100]).unwrap();
            // Dropping the last caller's Arc without calling shutdown
            // leaks no lock and blocks nothing: the engine starts no
            // thread and nothing inside it holds it, so it is freed here.
            drop(engine);
        }
    });
}
