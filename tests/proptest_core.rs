//! Property-based tests over the core protocol and metrics plumbing.

use leashed_sgd::core::mem::MemoryGauge;
use leashed_sgd::core::paramvec::{LeashedShared, PublishOutcome};
use leashed_sgd::core::pool::BufferPool;
use leashed_sgd::metrics::{BoxStats, Histogram, OnlineStats};
use proptest::prelude::*;
use std::sync::Arc;

fn shared(dim: usize, init: f32) -> LeashedShared {
    let pool = BufferPool::new(dim, Arc::new(MemoryGauge::new()));
    LeashedShared::new(&vec![init; dim], pool)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequential publishes behave exactly like sequential SGD: the final
    /// vector equals init - eta * Σ grads (integer-exact with eta = 1).
    #[test]
    fn sequential_publishes_match_sequential_sgd(
        grads in proptest::collection::vec(-8i32..8, 1..40),
        dim in 1usize..32,
    ) {
        let s = shared(dim, 0.0);
        let mut expected = 0i64;
        for g in &grads {
            let gv = vec![*g as f32; dim];
            let out = s.publish_update(&gv, 1.0, None, |_| {});
            let published = matches!(out, PublishOutcome::Published { .. });
            prop_assert!(published);
            expected -= *g as i64;
        }
        let guard = s.latest();
        prop_assert_eq!(guard.seq(), grads.len() as u64);
        for &v in guard.theta() {
            prop_assert_eq!(v as i64, expected);
        }
    }

    /// Concurrent publishes from 2 threads: exact-once application holds
    /// for arbitrary integer gradient mixes.
    #[test]
    fn concurrent_publishes_sum_exactly(
        ga in 1i32..6,
        gb in 1i32..6,
        reps in 10u32..120,
    ) {
        let dim = 16;
        let s = Arc::new(shared(dim, 0.0));
        std::thread::scope(|sc| {
            for g in [ga, gb] {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    let gv = vec![-(g as f32); dim];
                    for _ in 0..reps {
                        s.publish_update(&gv, 1.0, None, |_| {});
                    }
                });
            }
        });
        let guard = s.latest();
        let expected = (ga as i64 + gb as i64) * reps as i64;
        for &v in guard.theta() {
            prop_assert_eq!(v as i64, expected);
        }
        prop_assert_eq!(guard.seq(), 2 * reps as u64);
    }

    /// Histogram merge is equivalent to recording the concatenation.
    #[test]
    fn histogram_merge_is_concat(
        xs in proptest::collection::vec(0u64..64, 0..100),
        ys in proptest::collection::vec(0u64..64, 0..100),
    ) {
        let mut a = Histogram::new(32);
        let mut b = Histogram::new(32);
        let mut all = Histogram::new(32);
        for &x in &xs { a.record(x); all.record(x); }
        for &y in &ys { b.record(y); all.record(y); }
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        prop_assert_eq!(a.overflow(), all.overflow());
        prop_assert!((a.mean() - all.mean()).abs() < 1e-9);
        for v in 0..32 {
            prop_assert_eq!(a.bin(v), all.bin(v));
        }
    }

    /// OnlineStats merge is order-insensitive and matches the batch stats.
    #[test]
    fn online_stats_merge_associative(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..60),
        split in 0usize..60,
    ) {
        let split = split.min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs { whole.record(x); }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..split] { left.record(x); }
        for &x in &xs[split..] { right.record(x); }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-6);
    }

    /// BoxStats quartiles are ordered and bracket the median for any
    /// sample; whiskers sit inside [min, max].
    #[test]
    fn boxstats_invariants(xs in proptest::collection::vec(-1e6f64..1e6, 1..80)) {
        let b = BoxStats::from_samples(&xs).unwrap();
        prop_assert!(b.q1 <= b.median && b.median <= b.q3);
        prop_assert!(b.whisker_lo <= b.q1 && b.q3 <= b.whisker_hi);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(b.whisker_lo >= min && b.whisker_hi <= max);
        prop_assert_eq!(b.n, xs.len());
    }

    /// The fluid model's closed form equals its recurrence for any stable
    /// parameter set (Theorem 3 as an algebraic property).
    #[test]
    fn fluid_closed_form_equals_recurrence(
        m in 1.0f64..128.0,
        tc in 2.0f64..200.0,
        tu in 2.0f64..200.0,
        n0 in 0.0f64..32.0,
    ) {
        let f = leashed_sgd::dynamics::FluidModel::new(m, tc, tu);
        prop_assume!(f.is_stable());
        let traj = f.trajectory(n0, 64);
        for (t, &n) in traj.iter().enumerate() {
            let cf = f.closed_form(n0, t as u32);
            prop_assert!((n - cf).abs() < 1e-6 * (1.0 + n.abs()), "t={}: {} vs {}", t, n, cf);
        }
    }

    /// The pool never hands the same slot to two live acquirers, for
    /// arbitrary acquire/release schedules: a released slot may be
    /// re-issued, a held one must not be.
    #[test]
    fn pool_never_aliases_live_buffers(ops in proptest::collection::vec(any::<bool>(), 1..250)) {
        let pool = BufferPool::new(4, Arc::new(MemoryGauge::new()));
        let mut held = Vec::new();
        let mut live = std::collections::HashSet::new();
        for acquire in ops {
            if acquire || held.is_empty() {
                let ptr = pool.acquire();
                prop_assert!(
                    live.insert(ptr as usize),
                    "pool aliased a live buffer: {:?}", ptr
                );
                held.push(ptr);
            } else {
                let ptr = held.pop().unwrap();
                live.remove(&(ptr as usize));
                unsafe { pool.release(ptr) };
            }
        }
        for ptr in held.drain(..) {
            unsafe { pool.release(ptr) };
        }
    }

    /// Pool acquire/release round-trips keep the outstanding counter
    /// exact for arbitrary schedules.
    #[test]
    fn pool_outstanding_counter_is_exact(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let pool = BufferPool::new(8, Arc::new(MemoryGauge::new()));
        let mut held = Vec::new();
        for acquire in ops {
            if acquire || held.is_empty() {
                held.push(pool.acquire());
            } else {
                let ptr = held.pop().unwrap();
                unsafe { pool.release(ptr) };
            }
            prop_assert_eq!(pool.outstanding(), held.len());
        }
        for ptr in held.drain(..) {
            unsafe { pool.release(ptr) };
        }
        prop_assert_eq!(pool.outstanding(), 0);
    }
}
