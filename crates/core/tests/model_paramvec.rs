//! Model checks for the ParameterVector protocol (paper Algorithms 1
//! and 3): LAU-SPC publication is exactly-once, counted reads are never
//! torn and never touch a reclaimed buffer, and `safe_delete` frees
//! each buffer at most once across every explored interleaving.
//!
//! Run with `RUSTFLAGS="--cfg lsgd_model" cargo test -p lsgd_core
//! --test model_paramvec`. Buffer reads/writes are keyed at the buffer
//! base address (`annotate::data_read`/`data_write` in
//! `ParamVec::theta`/`theta_mut`), so a read that is not happens-before
//! ordered with a publication — or any access to a buffer the pool has
//! truly freed — fails the run with a replayable seed.
//!
//! Slots are recycled, so two tests pin the two hazards that brings: a
//! reader whose increment lands on a recycled slot, and a publisher whose
//! base is recycled under it. Under `--cfg lsgd_mutate_skip_root_check`
//! (which drops `latest()`'s re-check of `P`) only the mutation test is
//! compiled, and it requires the checker to catch the late reader.
#![cfg(lsgd_model)]

use lsgd_check::thread;
use lsgd_core::mem::MemoryGauge;
#[cfg_attr(lsgd_mutate_skip_root_check, allow(unused_imports))]
use lsgd_core::paramvec::{outstanding_bound, LeashedShared, PublishOutcome};
use lsgd_core::pool::BufferPool;
use std::sync::Arc;

const DIM: usize = 2;

fn shared(init: f32) -> Arc<LeashedShared> {
    let pool = BufferPool::new(DIM, Arc::new(MemoryGauge::new()));
    Arc::new(LeashedShared::new(&[init; DIM], pool))
}

/// Two racing publishers: the loser's CAS must fail and retry on the
/// winner's vector, so both updates land (dense sequence numbers, no
/// lost update) and both displaced vectors are reclaimed exactly once.
#[cfg(not(lsgd_mutate_skip_root_check))]
#[test]
fn racing_publishers_lose_no_update_and_leak_no_buffer() {
    lsgd_check::model(|| {
        let s = shared(0.0);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                // eta 1.0, grad -1.0: each publish adds +1 to every
                // component, so contents must equal the sequence number.
                thread::spawn(move || {
                    let out = s.publish_update(&[-1.0; DIM], 1.0, None, |_| {});
                    assert!(matches!(out, PublishOutcome::Published { .. }));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.current_seq(), 2, "an update was lost or duplicated");
        let g = s.latest();
        assert_eq!(g.theta(), &[2.0; DIM], "both updates must be applied");
        drop(g);
        assert_eq!(
            s.pool().outstanding(),
            1,
            "displaced vectors must be reclaimed (exactly the published one lives)"
        );
        assert!(
            s.pool().outstanding_peak() <= outstanding_bound(2, 0),
            "Lemma 2"
        );
    });
}

/// A reader racing one publisher: every acquired view is internally
/// consistent (all components carry the same update count, matching the
/// vector's sequence number) and — via the checker's region tracking —
/// is never a reclaimed buffer. This is the paper's P3 guarantee.
#[cfg(not(lsgd_mutate_skip_root_check))]
#[test]
fn counted_reads_are_never_torn_and_never_dangle() {
    lsgd_check::model(|| {
        let s = shared(0.0);
        let writer = {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                s.publish_update(&[-1.0; DIM], 1.0, None, |_| {});
            })
        };
        for _ in 0..2 {
            let g = s.latest();
            let th = g.theta();
            assert_eq!(th[0], th[1], "torn read: mixed update counts");
            assert_eq!(th[0] as u64, g.seq(), "contents must match seq");
        }
        writer.join().unwrap();
        assert_eq!(s.latest().theta(), &[1.0; DIM]);
        assert!(
            s.pool().outstanding_peak() <= outstanding_bound(1, 1),
            "Lemma 2"
        );
    });
}

/// A persistence-bound abort racing a publisher: the abandoned vector
/// must be recycled (not leaked, not double-freed), and the winner's
/// update must survive intact.
#[cfg(not(lsgd_mutate_skip_root_check))]
#[test]
fn aborted_update_recycles_its_buffer_exactly_once() {
    lsgd_check::model(|| {
        let s = shared(0.0);
        let contender = {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                // Tp = 0: a single lost CAS abandons the update.
                matches!(
                    s.publish_update(&[-1.0; DIM], 1.0, Some(0), |_| {}),
                    PublishOutcome::Published { .. }
                )
            })
        };
        let published_main = matches!(
            s.publish_update(&[-1.0; DIM], 1.0, Some(0), |_| {}),
            PublishOutcome::Published { .. }
        );
        let published_other = contender.join().unwrap();
        let wins = published_main as u64 + published_other as u64;
        assert!(wins >= 1, "at least one CAS must win (lock-freedom)");
        assert_eq!(s.current_seq(), wins, "sequence counts exactly the winners");
        assert_eq!(s.latest().theta(), &[wins as f32; DIM]);
        assert_eq!(
            s.pool().outstanding(),
            1,
            "abandoned and displaced buffers must all return to the pool"
        );
    });
}

/// The first publication replaces the initial vector's slot; once
/// unread, that slot is claimed from the pool again as the second
/// publication's private vector and is published again. A reader that
/// loaded `P` before all that may land its increment anywhere in
/// between; whatever it returns must be a published, untorn vector.
fn late_reader_scenario() {
    let s = shared(0.0);
    let writer = {
        let s = Arc::clone(&s);
        thread::spawn(move || {
            for _ in 0..2 {
                s.publish_update(&[-1.0; DIM], 1.0, None, |_| {});
            }
        })
    };
    let g = s.latest();
    let th = g.theta();
    assert_eq!(th[0], th[1], "torn read: mixed update counts");
    assert_eq!(th[0] as u64, g.seq(), "contents must match seq");
    drop(g);
    writer.join().unwrap();
    assert_eq!(s.current_seq(), 2);
    assert_eq!(s.pool().outstanding(), 1, "late increments must balance");
}

#[cfg(not(lsgd_mutate_skip_root_check))]
#[test]
fn late_reader_on_a_recycled_slot_backs_off() {
    lsgd_check::model(late_reader_scenario);
}

/// One publisher copies its base and, before its CAS, the other
/// publishes twice — enough for the base's slot to be recycled and
/// republished if nothing pinned it, so that a CAS on the same address
/// would succeed on a newer vector. The publisher's counted read of its
/// base until after the CAS rules that out: all three updates land.
#[cfg(not(lsgd_mutate_skip_root_check))]
#[test]
fn recycled_base_cannot_swallow_an_update() {
    lsgd_check::model(|| {
        let s = shared(0.0);
        let other = {
            let s = Arc::clone(&s);
            thread::spawn(move || {
                s.publish_update(&[-1.0; DIM], 1.0, None, |_| {});
            })
        };
        for _ in 0..2 {
            s.publish_update(&[-1.0; DIM], 1.0, None, |_| {});
        }
        other.join().unwrap();
        assert_eq!(s.current_seq(), 3, "an update was lost or duplicated");
        assert_eq!(
            s.latest().theta(),
            &[3.0; DIM],
            "every update must be applied"
        );
        assert_eq!(s.pool().outstanding(), 1);
    });
}

/// THE mutation test: with `--cfg lsgd_mutate_skip_root_check`, a
/// reader trusts its increment alone, so a late increment on a slot that
/// a publisher has just claimed from the pool lets it read a private
/// buffer while it is being written. The checker must report that race —
/// proving a green run of the test above depends on the re-check.
#[cfg(lsgd_mutate_skip_root_check)]
#[test]
fn skipped_root_check_is_caught() {
    let report = lsgd_check::explore(lsgd_check::Config::default(), late_reader_scenario);
    let failure = report
        .failure
        .expect("the checker must catch a reader of a recycled private slot");
    assert!(
        failure.message.contains("data race"),
        "expected a data-race report, got: {}",
        failure.message
    );
    assert!(!failure.seed.is_empty(), "failure must carry a replay seed");
}
