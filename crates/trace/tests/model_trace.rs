//! Model checks for the trace data plane: the single-writer counter
//! cells and the SPSC span-event ring, i.e. the producer→collector
//! handoff that runs concurrently with training when tracing is on.
//!
//! Run with `RUSTFLAGS="--cfg lsgd_model" cargo test -p lsgd_trace
//! --test model_trace`. The mutation test additionally needs
//! `--cfg lsgd_mutate_relaxed_ring`, which flips the ring's head
//! `Release` publish to `Relaxed`; the regular invariants are compiled
//! out under that cfg because they would (correctly) fail.
#![cfg(lsgd_model)]

use lsgd_check::thread;
use lsgd_trace::ring::{EventRing, SpanRecord};
use lsgd_trace::{Counter, CounterCell};
use std::sync::Arc;

fn rec(label: u32) -> SpanRecord {
    SpanRecord { label, start_ns: u64::from(label) * 10, dur_ns: 1 }
}

/// A worker bumps its own cell while the collector reads concurrently:
/// concurrent reads are monotone and bounded, and after join the
/// collector sees every increment (no lost updates from the
/// plain load+store single-writer increment).
#[cfg(not(lsgd_mutate_relaxed_ring))]
#[test]
fn counter_handoff_loses_no_increments() {
    lsgd_check::model(|| {
        let cell = Arc::new(CounterCell::new());
        let c2 = Arc::clone(&cell);
        let worker = thread::spawn(move || {
            for _ in 0..3 {
                c2.add(Counter::PublishAttempt, 1);
            }
            c2.add(Counter::PublishRetry, 2);
        });
        // Collector samples mid-flight: monotone, never above the total.
        let mut last = 0;
        for _ in 0..2 {
            let v = cell.get(Counter::PublishAttempt);
            assert!(v >= last && v <= 3, "non-monotone or overshooting read: {v}");
            last = v;
            thread::yield_now();
        }
        worker.join().unwrap();
        // Join gives happens-before: the final snapshot must be exact.
        let snap = cell.snapshot();
        assert_eq!(snap[Counter::PublishAttempt as usize], 3, "lost increment");
        assert_eq!(snap[Counter::PublishRetry as usize], 2, "lost bulk increment");
    });
}

/// Two workers write their own cells while the collector aggregates
/// across both — per-worker isolation means totals add up exactly.
#[cfg(not(lsgd_mutate_relaxed_ring))]
#[test]
fn per_worker_cells_aggregate_exactly() {
    lsgd_check::model(|| {
        let cells: Arc<[CounterCell; 2]> = Arc::new([CounterCell::new(), CounterCell::new()]);
        let handles: Vec<_> = (0..2)
            .map(|w| {
                let cells = Arc::clone(&cells);
                thread::spawn(move || {
                    cells[w].add(Counter::Park, (w + 1) as u64);
                })
            })
            .collect();
        // Mid-flight aggregate is a lower bound of the final total.
        let partial: u64 = cells.iter().map(|c| c.get(Counter::Park)).sum();
        assert!(partial <= 3);
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = cells.iter().map(|c| c.get(Counter::Park)).sum();
        assert_eq!(total, 3, "cross-cell aggregation lost an increment");
    });
}

/// Producer pushes across a wraparound of a tiny ring while the
/// collector drains concurrently: every record is either delivered in
/// order or counted as dropped — never lost, duplicated, or torn. The
/// checker's vector-clock race detection validates the slot accesses on
/// every explored schedule.
#[cfg(not(lsgd_mutate_relaxed_ring))]
#[test]
fn ring_wraparound_conserves_records_in_order() {
    lsgd_check::model(|| {
        let ring = Arc::new(EventRing::new(2));
        let r2 = Arc::clone(&ring);
        let n = 4u32;
        let producer = thread::spawn(move || {
            for i in 0..n {
                r2.push(rec(i));
            }
        });
        let mut out = Vec::new();
        // Interleave a couple of drains with the producer, then join and
        // take the final drain.
        for _ in 0..2 {
            ring.drain(&mut out);
            thread::yield_now();
        }
        producer.join().unwrap();
        ring.drain(&mut out);
        let labels: Vec<u32> = out.iter().map(|r| r.label).collect();
        // Conservation: delivered + dropped == pushed.
        assert_eq!(
            labels.len() as u64 + ring.dropped(),
            u64::from(n),
            "records lost or duplicated: delivered {labels:?}, dropped {}",
            ring.dropped()
        );
        // Order: delivered records are a strictly increasing subsequence
        // (drop-newest never reorders survivors).
        assert!(
            labels.windows(2).all(|w| w[0] < w[1]),
            "delivered out of order: {labels:?}"
        );
        // Integrity: each record arrived whole, not torn.
        for r in &out {
            assert_eq!(r.start_ns, u64::from(r.label) * 10, "torn record: {r:?}");
            assert_eq!(r.dur_ns, 1, "torn record: {r:?}");
        }
    });
}

/// THE mutation test: with `--cfg lsgd_mutate_relaxed_ring`, the
/// producer's head publish is `Relaxed` instead of `Release`, so the
/// collector's slot read has no happens-before edge to the producer's
/// slot write. The checker must report that as a data race — proving a
/// green run of the other tests actually depends on the `Release`.
#[cfg(lsgd_mutate_relaxed_ring)]
#[test]
fn weakened_ring_release_is_caught() {
    let report = lsgd_check::explore(lsgd_check::Config::default(), || {
        let ring = Arc::new(EventRing::new(2));
        let r2 = Arc::clone(&ring);
        let producer = thread::spawn(move || r2.push(rec(7)));
        let mut out = Vec::new();
        while out.is_empty() {
            ring.drain(&mut out);
            thread::yield_now();
        }
        let _ = producer.join();
    });
    let failure = report
        .failure
        .expect("the checker must catch the weakened ring publish");
    assert!(
        failure.message.contains("data race"),
        "expected a data-race report, got: {}",
        failure.message
    );
    assert!(!failure.seed.is_empty(), "failure must carry a replay seed");
}
