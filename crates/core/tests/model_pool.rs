//! Model check for the slot pool's handoff: a released slot's free bit
//! carries its previous owner's writes to the next owner that claims it.
//!
//! Run with `RUSTFLAGS="--cfg lsgd_model" cargo test -p lsgd_core --test
//! model_pool`. The pool is used bare, with no ParameterVector protocol
//! around it: `LeashedShared`'s SeqCst state-word RMWs would order the
//! handoff on their own and hide a missing Release on the free bit.
//! Under `--cfg lsgd_mutate_relaxed_free_bit` (which demotes `release`'s
//! `fetch_or` to Relaxed) only the mutation test is compiled, and it
//! requires the checker to report the race.
#![cfg(lsgd_model)]

use lsgd_check::{annotate, thread};
use lsgd_core::mem::MemoryGauge;
use lsgd_core::pool::BufferPool;
use std::sync::Arc;

/// Two threads each acquire a slot, write it and release it. Whenever
/// the second acquire recycles the first thread's slot, the two writes
/// are ordered only by the free bit's release/acquire pair.
fn handoff_scenario() {
    let pool = Arc::new(BufferPool::new(2, Arc::new(MemoryGauge::new())));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                let slot = pool.acquire();
                annotate::data_write(slot as usize);
                // SAFETY: `slot` came from `acquire` on this pool and is
                // not touched after this call.
                unsafe { pool.release(slot) };
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(pool.outstanding(), 0);
    assert!(pool.outstanding_peak() <= 2);
}

#[cfg(not(lsgd_mutate_relaxed_free_bit))]
#[test]
fn recycled_slot_is_handed_over_in_order() {
    lsgd_check::model(handoff_scenario);
}

/// THE mutation test: with `--cfg lsgd_mutate_relaxed_free_bit` the
/// release no longer publishes the owner's writes, so a recycled slot's
/// next write races with its last one, and the checker must say so.
#[cfg(lsgd_mutate_relaxed_free_bit)]
#[test]
fn relaxed_free_bit_is_caught() {
    let report = lsgd_check::explore(lsgd_check::Config::default(), handoff_scenario);
    let failure = report
        .failure
        .expect("the checker must catch a recycled slot handed over unordered");
    assert!(
        failure.message.contains("data race"),
        "expected a data-race report, got: {}",
        failure.message
    );
    assert!(!failure.seed.is_empty(), "failure must carry a replay seed");
}
