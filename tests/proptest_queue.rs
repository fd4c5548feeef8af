//! Property tests for `lsgd_sync::SegQueue` against a reference model.
//!
//! Single-threaded differential testing: an arbitrary op sequence is
//! replayed against `VecDeque`, the semantics oracle. Randomised lengths
//! make the sequences straddle segment boundaries (31-slot segments),
//! which is where the lock-free index/hop bookkeeping lives.

use leashed_sgd::sync::SegQueue;
use proptest::prelude::*;
use std::collections::VecDeque;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay push/pop/len/is_empty against the `VecDeque` model.
    /// `(true, v)` = push(v); `(false, _)` = pop. Up to 400 ops crosses
    /// many segment hops.
    #[test]
    fn queue_matches_vecdeque_model(
        ops in proptest::collection::vec((any::<bool>(), 0u32..1_000_000), 1..400),
    ) {
        let q = SegQueue::new();
        let mut model = VecDeque::new();
        for (push, v) in ops {
            if push {
                q.push(v);
                model.push_back(v);
            } else {
                prop_assert_eq!(q.pop(), model.pop_front());
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
        // Drain both; tails must agree element-for-element.
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(q.pop(), Some(expected));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }

    /// Pushing exactly `n` then popping `n` returns the exact sequence —
    /// targeted at off-by-one bugs around the 31-slot segment capacity
    /// (n ranges over several laps).
    #[test]
    fn burst_roundtrip_is_identity(n in 1usize..200) {
        let q = SegQueue::new();
        for i in 0..n {
            q.push(i);
        }
        prop_assert_eq!(q.len(), n);
        for i in 0..n {
            prop_assert_eq!(q.pop(), Some(i));
        }
        prop_assert_eq!(q.pop(), None);
    }
}
