//! Per-worker counter cells: single-writer event counts with no
//! cross-thread read-modify-write on the hot path.
//!
//! Each worker owns one [`CounterCell`] (cache-line padded by the
//! registry in `lib.rs`). The owning worker bumps a counter with a plain
//! load+store — not `fetch_add` — which the single-writer discipline
//! makes safe and keeps the hot path free of atomic RMW traffic. The
//! collector reads the cells Relaxed from any thread; since each counter
//! is monotone, a concurrent read just sees a slightly stale prefix,
//! which is exactly what periodic sampling wants. The model suite
//! (`tests/model_trace.rs`) checks the no-lost-increments claim.

use lsgd_check::sync::{AtomicU64, Ordering};

/// Every protocol event the instrumentation layer counts. The variants
/// mirror the four instrumented layers: `lsgd_sync::SegQueue`,
/// `LeashedShared`/`ShardedShared` publication, the `lsgd_runtime`
/// scheduler, and snapshot reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// `SegQueue::pop` found the queue empty.
    QueueEmptyPop,
    /// `SegQueue::push` lost a CAS and retried.
    QueuePushRetry,
    /// `SegQueue::pop` lost a CAS and retried.
    QueuePopRetry,
    /// A dense (full-vector) publish was issued.
    PublishDense,
    /// A sparse (delta-indexed) publish was issued.
    PublishSparse,
    /// One attempt iteration inside the publish CAS loop.
    PublishAttempt,
    /// The publish CAS lost to a concurrent publisher and retried.
    PublishRetry,
    /// The publish gave up (persistence bound exhausted / aborted).
    PublishAbort,
    /// A snapshot read observed a stale pointer and retried.
    ReadRetry,
    /// A sharded Consistent snapshot failed validation and retried.
    SnapshotRetry,
    /// A runtime helper parked on the task-queue condvar.
    Park,
    /// A parked runtime helper was woken.
    Unpark,
    /// A trainer worker panicked and was contained (run continued on
    /// the survivors).
    WorkerPanic,
    /// The monitor saw a worker make no progress for a full stall
    /// window.
    HeartbeatStall,
    /// A Consistent sharded snapshot exhausted its validate retries and
    /// degraded to a per-shard Fast read.
    SnapshotDegraded,
}

impl Counter {
    /// Number of counter variants (array size of a [`CounterCell`]).
    pub const COUNT: usize = 15;

    /// All variants, in declaration order (index == discriminant).
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::QueueEmptyPop,
        Counter::QueuePushRetry,
        Counter::QueuePopRetry,
        Counter::PublishDense,
        Counter::PublishSparse,
        Counter::PublishAttempt,
        Counter::PublishRetry,
        Counter::PublishAbort,
        Counter::ReadRetry,
        Counter::SnapshotRetry,
        Counter::Park,
        Counter::Unpark,
        Counter::WorkerPanic,
        Counter::HeartbeatStall,
        Counter::SnapshotDegraded,
    ];

    /// Stable dotted name used in reports and the Chrome-trace export.
    pub fn name(self) -> &'static str {
        match self {
            Counter::QueueEmptyPop => "queue.empty_pop",
            Counter::QueuePushRetry => "queue.push_cas_retry",
            Counter::QueuePopRetry => "queue.pop_cas_retry",
            Counter::PublishDense => "publish.dense",
            Counter::PublishSparse => "publish.sparse",
            Counter::PublishAttempt => "publish.attempt",
            Counter::PublishRetry => "publish.cas_retry",
            Counter::PublishAbort => "publish.abort",
            Counter::ReadRetry => "read.stale_retry",
            Counter::SnapshotRetry => "snapshot.validate_retry",
            Counter::Park => "runtime.park",
            Counter::Unpark => "runtime.unpark",
            Counter::WorkerPanic => "trainer.worker_panic",
            Counter::HeartbeatStall => "trainer.heartbeat_stall",
            Counter::SnapshotDegraded => "snapshot.degraded_fast",
        }
    }
}

/// One worker's counters. Single writer (the owning worker), any number
/// of concurrent Relaxed readers (the collector).
pub struct CounterCell {
    counts: [AtomicU64; Counter::COUNT],
}

impl Default for CounterCell {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterCell {
    /// Creates a zeroed cell.
    pub fn new() -> Self {
        CounterCell {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Owner-only increment: plain load+store, no RMW. Safe because each
    /// cell has exactly one writer; concurrent collector reads are
    /// monotone-prefix reads, never writes.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        let a = &self.counts[c as usize];
        // ORDERING: Relaxed — single-writer counter: the owner always
        // sees its own latest store, and readers only need a monotone
        // (possibly stale) value, with no ordering against other memory.
        let v = a.load(Ordering::Relaxed);
        // ORDERING: Relaxed — same single-writer argument as the load.
        a.store(v + n, Ordering::Relaxed);
    }

    /// Collector-side read of one counter.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        // ORDERING: Relaxed — see `add`: monotone value, staleness is
        // acceptable for periodic sampling.
        self.counts[c as usize].load(Ordering::Relaxed)
    }

    /// Collector-side snapshot of all counters.
    pub fn snapshot(&self) -> [u64; Counter::COUNT] {
        std::array::from_fn(|i| {
            // ORDERING: Relaxed — see `add`.
            self.counts[i].load(Ordering::Relaxed)
        })
    }
}

#[cfg(all(test, not(lsgd_model)))]
mod tests {
    use super::*;

    #[test]
    fn all_table_matches_discriminants() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn add_and_snapshot_roundtrip() {
        let cell = CounterCell::new();
        cell.add(Counter::PublishRetry, 3);
        cell.add(Counter::PublishRetry, 2);
        cell.add(Counter::Park, 1);
        assert_eq!(cell.get(Counter::PublishRetry), 5);
        let snap = cell.snapshot();
        assert_eq!(snap[Counter::PublishRetry as usize], 5);
        assert_eq!(snap[Counter::Park as usize], 1);
        assert_eq!(snap[Counter::QueueEmptyPop as usize], 0);
    }
}
