//! Seed-determinism contract for the armed fault plane: the same
//! `(spec, seed)` pair must draw the identical per-thread decision
//! sequence every run, and re-installing resets the streams so a
//! replay starts from scratch. Compiled only with `--features enabled`
//! (the chaos CI job).

#![cfg(feature = "enabled")]

use lsgd_fault::{Site, Tallies};
use std::sync::{Mutex, OnceLock};

/// Fault state (plan, tallies, thread streams) is process-global, so
/// tests that arm it must not interleave.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs a fixed probe schedule as worker 0 and returns which of the
/// `n` publish-probe visits stalled (a bitmap of fired decisions).
fn fired_pattern(spec: &str, seed: u64, n: usize) -> Vec<bool> {
    lsgd_fault::install(spec, seed).expect("spec parses");
    let _tag = lsgd_fault::worker_tag(0);
    let mut fired = Vec::with_capacity(n);
    let mut stalls_so_far = 0;
    for _ in 0..n {
        lsgd_fault::point(Site::Publish);
        let now = lsgd_fault::tallies().stalls[Site::Publish as usize];
        fired.push(now > stalls_so_far);
        stalls_so_far = now;
    }
    fired
}

#[test]
fn same_seed_replays_the_same_decision_sequence() {
    let _guard = serial();
    // us=0: decisions are drawn and tallied but no time is wasted.
    let spec = "stall:publish,p=0.3,us=0";
    let a = fired_pattern(spec, 0x5eed, 256);
    let b = fired_pattern(spec, 0x5eed, 256);
    assert_eq!(a, b, "identical (spec, seed) must replay identically");
    let fired = a.iter().filter(|f| **f).count();
    assert!(fired > 0 && fired < 256, "p=0.3 over 256 draws fired {fired} times");
    lsgd_fault::clear();
}

#[test]
fn different_seed_draws_a_different_sequence() {
    let _guard = serial();
    let spec = "stall:publish,p=0.5,us=0";
    let a = fired_pattern(spec, 1, 256);
    let b = fired_pattern(spec, 2, 256);
    assert_ne!(a, b, "256 p=0.5 draws colliding across seeds is ~2^-256");
    lsgd_fault::clear();
}

#[test]
fn install_resets_tallies() {
    let _guard = serial();
    let spec = "stall:acquire,p=1,us=0";
    lsgd_fault::install(spec, 7).unwrap();
    let _tag = lsgd_fault::worker_tag(0);
    for _ in 0..3 {
        lsgd_fault::point(Site::PoolAcquire);
    }
    assert_eq!(lsgd_fault::tallies().stalls[Site::PoolAcquire as usize], 3);

    // Re-install: the tallies restart.
    lsgd_fault::install(spec, 7).unwrap();
    assert_eq!(lsgd_fault::tallies(), Tallies::default());
    lsgd_fault::point(Site::PoolAcquire);
    assert_eq!(lsgd_fault::tallies().stalls_total(), 1, "counting restarted");
    lsgd_fault::clear();
}

#[test]
fn crash_rules_target_only_the_tagged_worker() {
    let _guard = serial();
    lsgd_fault::install("crash:w1@step5", 0).unwrap();
    {
        let _tag = lsgd_fault::worker_tag(0);
        for step in 0..10 {
            lsgd_fault::worker_step(step); // worker 0: no rule, no panic
        }
    }
    let crashed = std::panic::catch_unwind(|| {
        let _tag = lsgd_fault::worker_tag(1);
        for step in 0..10 {
            lsgd_fault::worker_step(step);
        }
    });
    let msg = *crashed
        .expect_err("worker 1 must crash at step 5")
        .downcast::<String>()
        .expect("injected crash carries a formatted message");
    assert!(msg.contains("injected crash"), "{msg}");
    assert!(msg.contains("worker 1") && msg.contains("step 5"), "{msg}");
    assert_eq!(lsgd_fault::tallies().crashes, 1);
    lsgd_fault::clear();
}

#[test]
fn clear_disarms_probes() {
    let _guard = serial();
    lsgd_fault::install("stall:acquire,p=1,us=0", 0).unwrap();
    assert!(lsgd_fault::active());
    lsgd_fault::clear();
    assert!(!lsgd_fault::active());
    let _tag = lsgd_fault::worker_tag(0);
    lsgd_fault::point(Site::PoolAcquire);
    assert_eq!(lsgd_fault::tallies().stalls_total(), 0);
}
