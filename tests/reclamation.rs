//! Memory-reclamation safety and bounds under load (paper Lemma 2), and
//! the slot pool's exclusive handoff.

mod common;

use common::{stress_threads, Watchdog, STRESS_LIMIT};
use leashed_sgd::core::mem::MemoryGauge;
use leashed_sgd::core::paramvec::{outstanding_bound, LeashedShared};
use leashed_sgd::core::pool::BufferPool;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

fn make(dim: usize) -> (Arc<MemoryGauge>, LeashedShared) {
    let gauge = Arc::new(MemoryGauge::new());
    let pool = BufferPool::new(dim, Arc::clone(&gauge));
    (gauge, LeashedShared::new(&vec![0.0f32; dim], pool))
}

/// Lemma 2 (ii): the number of simultaneously live ParameterVector
/// buffers is bounded by `outstanding_bound(m, 0)` (no monitor reads).
#[test]
fn outstanding_buffers_bounded_by_lemma_2() {
    let _watchdog = Watchdog::arm("outstanding_buffers_bounded_by_lemma_2", STRESS_LIMIT);
    let dim = 512;
    for m in [1usize, 2, 4, 8] {
        let (_gauge, s) = make(dim);
        let s = Arc::new(s);
        std::thread::scope(|sc| {
            for _ in 0..m {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    let grad = vec![0.01f32; dim];
                    for _ in 0..300 {
                        let g = s.latest();
                        let _first = g.theta()[0];
                        drop(g);
                        s.publish_update(&grad, 0.005, Some(1), |_| {});
                    }
                });
            }
        });
        let peak = s.pool().outstanding_peak();
        let bound = outstanding_bound(m, 0);
        assert!(peak <= bound, "m={m}: peak {peak} exceeds {bound}");
    }
}

/// Steady-state execution allocates a bounded number of fresh buffers and
/// recycles the rest — the "dynamic memory management" claim.
#[test]
fn steady_state_recycles_rather_than_allocates() {
    let _watchdog = Watchdog::arm("steady_state_recycles_rather_than_allocates", STRESS_LIMIT);
    let dim = 256;
    let (gauge, s) = make(dim);
    let grad = vec![0.01f32; dim];
    for _ in 0..2_000 {
        s.publish_update(&grad, 0.005, None, |_| {});
    }
    assert!(
        gauge.total_allocs() <= 4,
        "single-threaded run should allocate O(1) buffers, got {}",
        gauge.total_allocs()
    );
    assert!(s.pool().reuses() >= 1_999);
}

/// Everything is reclaimed when the shared state is dropped: no leaks,
/// even with vectors still unreturned (the final published one).
#[test]
fn drop_reclaims_all_memory() {
    let _watchdog = Watchdog::arm("drop_reclaims_all_memory", STRESS_LIMIT);
    let dim = 128;
    let gauge = Arc::new(MemoryGauge::new());
    {
        let pool = BufferPool::new(dim, Arc::clone(&gauge));
        let s = Arc::new(LeashedShared::new(&vec![0.0f32; dim], pool));
        std::thread::scope(|sc| {
            for _ in 0..4 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    let grad = vec![0.5f32; dim];
                    for _ in 0..500 {
                        s.publish_update(&grad, 0.1, Some(2), |_| {});
                    }
                });
            }
        });
        assert!(gauge.live() > 0);
    }
    assert_eq!(gauge.live(), 0, "drop must free every buffer");
}

/// A reader guard held across many publishes keeps exactly its one vector
/// alive; memory does not creep while it is held.
#[test]
fn long_lived_reader_pins_one_vector_only() {
    let _watchdog = Watchdog::arm("long_lived_reader_pins_one_vector_only", STRESS_LIMIT);
    let dim = 64;
    let (_gauge, s) = make(dim);
    let grad = vec![0.01f32; dim];
    let pinned = s.latest();
    let before = pinned.theta().to_vec();
    for _ in 0..1_000 {
        s.publish_update(&grad, 0.005, None, |_| {});
    }
    // published (1) + pinned (1).
    assert_eq!(s.pool().outstanding(), 2);
    assert_eq!(pinned.theta(), &before[..], "pinned contents immutable");
    drop(pinned);
    assert_eq!(s.pool().outstanding(), 1);
}

/// The memory gauge's peak reflects the true high-water mark across a
/// concurrent run (sanity for the Fig. 10 experiment).
#[test]
fn gauge_peak_dominates_every_live_sample() {
    let _watchdog = Watchdog::arm("gauge_peak_dominates_every_live_sample", STRESS_LIMIT);
    let dim = 128;
    let (gauge, s) = make(dim);
    let s = Arc::new(s);
    let mut samples = Vec::new();
    std::thread::scope(|sc| {
        let worker = {
            let s = Arc::clone(&s);
            sc.spawn(move || {
                let grad = vec![0.1f32; dim];
                for _ in 0..3_000 {
                    s.publish_update(&grad, 0.01, None, |_| {});
                }
            })
        };
        for _ in 0..50 {
            samples.push(gauge.live());
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        worker.join().unwrap();
    });
    let peak = gauge.peak();
    for &sample in &samples {
        assert!(sample <= peak, "sample {sample} above recorded peak {peak}");
    }
}

/// The buffer pool must never hand the same pointer to two *live*
/// acquirers — the concurrent counterpart of the single-thread proptest.
/// A shared registry of live addresses is checked on every acquire.
#[test]
fn pool_never_double_hands_a_live_buffer() {
    let _watchdog = Watchdog::arm("pool_never_double_hands_a_live_buffer", STRESS_LIMIT);
    let threads = stress_threads().max(4);
    let pool = Arc::new(BufferPool::new(64, Arc::new(MemoryGauge::new())));
    let live: Arc<Mutex<HashSet<usize>>> = Arc::new(Mutex::new(HashSet::new()));

    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = Arc::clone(&pool);
            let live = Arc::clone(&live);
            s.spawn(move || {
                let mut held = Vec::new();
                for i in 0..3_000usize {
                    let ptr = pool.acquire();
                    {
                        let mut set = live.lock().unwrap();
                        assert!(
                            set.insert(ptr as usize),
                            "pool handed live buffer {ptr:?} out twice"
                        );
                    }
                    held.push(ptr);
                    // Vary hold depth so free-list pressure oscillates.
                    if held.len() > 1 + (i + t) % 4 {
                        let ptr = held.remove(0);
                        live.lock().unwrap().remove(&(ptr as usize));
                        unsafe { pool.release(ptr) };
                    }
                }
                for ptr in held {
                    live.lock().unwrap().remove(&(ptr as usize));
                    unsafe { pool.release(ptr) };
                }
            });
        }
    });
    assert_eq!(pool.outstanding(), 0);
    assert!(live.lock().unwrap().is_empty());
}
