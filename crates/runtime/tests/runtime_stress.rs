//! Native stress for the runtime: real preemption and oversubscription,
//! with exactly-once accounting so any lost or duplicated task, or a
//! missed wakeup, turns into an assertion failure or a watchdog abort.
//!
//! `LSGD_STRESS_THREADS` (the contention CI job sets it to 2× nproc) sizes
//! the runtime; nightly TSan runs this suite instrumented.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lsgd_runtime::Runtime;

fn stress_threads() -> usize {
    lsgd_check::env::positive_usize("LSGD_STRESS_THREADS")
        .filter(|&n| n >= 2)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().max(2))
                .unwrap_or(4)
        })
}

/// Abort (via panic in a watchdog thread) if the stress body hangs — a
/// missed-wakeup livelock would otherwise stall CI for the full job timeout.
fn with_watchdog(limit: Duration, f: impl FnOnce()) {
    let done = Arc::new(AtomicUsize::new(0));
    let flag = Arc::clone(&done);
    let dog = std::thread::spawn(move || {
        let start = Instant::now();
        while flag.load(Ordering::Acquire) == 0 {
            if start.elapsed() > limit {
                eprintln!("runtime_stress watchdog: body exceeded {limit:?}; aborting");
                std::process::abort();
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    f();
    done.store(1, Ordering::Release);
    dog.join().unwrap();
}

/// Oversubscribed `parallel_for` churn: many external threads hammer one
/// runtime's task queue; exactly-once accounting on every job.
#[test]
fn parallel_for_exactly_once_oversubscribed() {
    let threads = stress_threads();
    let rt = Runtime::new(threads);
    let callers = threads; // callers + helpers ≈ 2× threads ⇒ oversubscribed
    with_watchdog(Duration::from_secs(120), || {
        std::thread::scope(|s| {
            for c in 0..callers {
                let rt = &rt;
                s.spawn(move || {
                    for round in 0..300 {
                        let ntasks = 1 + (c + round) % 33;
                        let hits: Vec<AtomicUsize> =
                            (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
                        rt.parallel_for(ntasks, &|i| {
                            hits[i].fetch_add(1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
                        });
                        for (i, h) in hits.iter().enumerate() {
                            assert_eq!(
                                h.load(Ordering::Relaxed), // ORDERING: Relaxed test tally; join/scope exit orders the read.
                                1,
                                "caller {c} round {round} task {i}"
                            );
                        }
                    }
                });
            }
        });
    });
}

/// Trainer-shaped load: scoped long-lived tasks, each running nested
/// `parallel_for` splits on one shared runtime, repeated so scope setup
/// and teardown churn.
#[test]
fn scope_and_splits_share_workers() {
    let threads = stress_threads();
    let rt = Runtime::new(threads);
    with_watchdog(Duration::from_secs(120), || {
        for _ in 0..20 {
            let nworkers = 3usize;
            let sums: Vec<AtomicUsize> = (0..nworkers).map(|_| AtomicUsize::new(0)).collect();
            rt.scope(|s| {
                for sum in &sums {
                    s.spawn(|| {
                        for _ in 0..50 {
                            rt.parallel_for(16, &|i| {
                                sum.fetch_add(i + 1, Ordering::Relaxed); // ORDERING: Relaxed test tally; join/scope exit orders the read.
                            });
                        }
                    });
                }
            });
            for sum in &sums {
                assert_eq!(sum.load(Ordering::Relaxed), 50 * 16 * 17 / 2); // ORDERING: Relaxed test tally; join/scope exit orders the read.
            }
        }
    });
}
