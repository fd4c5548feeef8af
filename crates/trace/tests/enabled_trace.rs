//! Integration test for the compiled-in (`--features enabled`) trace
//! path: gate, per-thread slots, span rings, collector deltas, and the
//! Chrome-trace export round-trip.
//!
//! The registry and counters are process-global, so everything runs in
//! one sequential test function — parallel test threads would bleed
//! counter deltas into each other's collector windows.
#![cfg(feature = "enabled")]
#![cfg(not(lsgd_model))]

use lsgd_trace::{chrome, Collector, Counter, Phase};

#[test]
fn traced_run_end_to_end() {
    // The constant IS the claim under test: this cfg must imply probes.
    #[allow(clippy::assertions_on_constants)]
    {
        assert!(lsgd_trace::COMPILED);
    }
    lsgd_trace::enable();
    assert!(lsgd_trace::enabled());

    // --- Run 1: two workers produce counters and spans concurrently. ---
    let collector = Collector::new();

    let handles: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..10 {
                    lsgd_trace::count(Counter::PublishAttempt);
                    let g = lsgd_trace::span(Phase::GradCompute);
                    std::hint::black_box(0u64);
                    drop(g);
                    let g = lsgd_trace::span(Phase::Publish);
                    std::hint::black_box(0u64);
                    drop(g);
                }
                lsgd_trace::count_n(Counter::PublishRetry, 3);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let dump = collector.finish();

    assert_eq!(dump.counter(Counter::PublishAttempt), 20);
    assert_eq!(dump.counter(Counter::PublishRetry), 6);
    assert_eq!(dump.counter(Counter::QueueEmptyPop), 0);
    let grad = dump.phases.get(Phase::GradCompute).expect("phase stats collected");
    assert_eq!(grad.count(), 20);
    let publish = dump.phases.get(Phase::Publish).expect("phase stats collected");
    assert_eq!(publish.count(), 20);
    assert_eq!(dump.events.len(), 40, "every span drained from the rings exactly once");
    // Two producing threads → at least two distinct event lanes.
    let mut lanes: Vec<u32> = dump.events.iter().map(|e| e.worker).collect();
    lanes.sort_unstable();
    lanes.dedup();
    assert!(lanes.len() >= 2, "expected ≥2 worker lanes, got {lanes:?}");
    assert_eq!(dump.dropped, 0);
    let report = dump.report();
    assert!(report.contains("grad-compute"));
    assert!(report.contains("publish.attempt"));

    // --- Chrome export round-trips through the validator. ---
    let path = std::env::temp_dir().join("lsgd_trace_enabled_test.json");
    let path_s = path.to_str().unwrap();
    chrome::append_run(path_s, "run-1", &dump).unwrap();
    let summary = chrome::validate_file(path_s).unwrap();
    assert_eq!(summary.runs, 1);
    assert!(summary.named_lanes >= 2);
    assert!(summary.min_spans_per_lane() >= 1, "every worker lane needs a complete span");
    let _ = std::fs::remove_file(path);

    // --- Run 2: a fresh collector sees only its own window. ---
    let collector = Collector::new();
    lsgd_trace::count(Counter::SnapshotRetry);
    let dump2 = collector.finish();
    assert_eq!(dump2.counter(Counter::SnapshotRetry), 1);
    assert_eq!(
        dump2.counter(Counter::PublishAttempt),
        0,
        "per-run deltas must not leak across collector windows"
    );
}
