//! Single-producer / single-consumer span-event ring, built on the
//! `lsgd_check` shim atomics so the producer→collector handoff is
//! verified by the in-tree model checker (`tests/model_trace.rs`).
//!
//! Protocol: a classic Lamport ring with power-of-two capacity.
//!
//! * The **producer** (the instrumented worker thread) owns `head`: it
//!   loads `head` Relaxed (it is the only writer), loads `tail` Acquire
//!   to see how much room the consumer has freed, writes the slot via
//!   `UnsafeCell::with_mut`, and publishes with a **Release** store of
//!   `head + 1`. When the ring is full it drops the newest event and
//!   bumps a `dropped` counter instead of blocking — observability must
//!   never stall the training step.
//! * The **consumer** (the collector, any thread, one at a time) owns
//!   `tail`: Acquire load of `head` (synchronizes with the producer's
//!   Release store, making the slot contents visible), Relaxed load of
//!   its own `tail`, reads slots via `UnsafeCell::with`, then frees them
//!   with a **Release** store of the new `tail` (so the producer's
//!   Acquire load of `tail` knows the slots are no longer being read).
//!
//! The `lsgd_mutate_relaxed_ring` cfg deliberately weakens the
//! producer's Release publish to Relaxed; the mutation-sentinel test
//! proves the model checker catches the resulting data race, i.e. that
//! the checker actually guards this protocol.

use lsgd_check::sync::{AtomicU64, AtomicUsize, Ordering, UnsafeCell};

/// One completed span: a phase label plus start/duration in
/// nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanRecord {
    /// Label id: the discriminant of the span's `Phase` (`0..PHASES`).
    pub label: u32,
    /// Span start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Fixed-capacity SPSC ring of [`SpanRecord`]s. Capacity must be a
/// power of two.
pub struct EventRing {
    slots: Box<[UnsafeCell<SpanRecord>]>,
    mask: usize,
    /// Producer cursor: total records ever published.
    head: AtomicUsize,
    /// Consumer cursor: total records ever drained.
    tail: AtomicUsize,
    /// Records discarded because the ring was full (producer-side).
    dropped: AtomicU64,
}

// SAFETY: the head/tail protocol above ensures a slot is accessed by at
// most one thread at a time: the producer only writes slots in
// `[tail, head)`-complement (free space, proven free by its Acquire load
// of `tail`), and the consumer only reads slots in `[tail, head)`
// (proven published by its Acquire load of `head`). The model suite
// checks exactly this claim, including at wraparound.
unsafe impl Send for EventRing {}
// SAFETY: the one producer and one consumer share the ring through `&self`;
// the same head/tail protocol keeps their slot accesses disjoint.
unsafe impl Sync for EventRing {}

impl EventRing {
    /// Creates a ring holding `cap` records. `cap` must be a nonzero
    /// power of two.
    pub fn new(cap: usize) -> Self {
        assert!(cap.is_power_of_two(), "EventRing capacity must be a power of two");
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(SpanRecord::default()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            slots,
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer side: append one record, dropping it (and counting the
    /// drop) if the ring is full. Must only be called from the single
    /// producer thread that owns this ring.
    pub fn push(&self, rec: SpanRecord) {
        // ORDERING: Relaxed — the producer is the only thread that ever
        // stores `head`, so it always sees its own latest value.
        let head = self.head.load(Ordering::Relaxed);
        // ORDERING: Acquire — pairs with the consumer's Release store of
        // `tail` in `drain`, ensuring the consumer has finished reading
        // any slot we are about to overwrite.
        let tail = self.tail.load(Ordering::Acquire);
        if head - tail > self.mask {
            // ORDERING: Relaxed — `dropped` is a single-writer counter
            // read only after the producer quiesces (or approximately,
            // mid-run); no ordering with other memory is required.
            let d = self.dropped.load(Ordering::Relaxed);
            // ORDERING: Relaxed — same single-writer argument as the load.
            self.dropped.store(d + 1, Ordering::Relaxed);
            return;
        }
        self.slots[head & self.mask].with_mut(|p| {
            // SAFETY: `head - tail <= mask` proved this slot is free, and
            // single-producer means no other writer exists.
            unsafe { *p = rec }
        });
        #[cfg(not(lsgd_mutate_relaxed_ring))]
        // Release pairs with the consumer's Acquire load of `head`,
        // publishing the slot write above.
        self.head.store(head + 1, Ordering::Release);
        #[cfg(lsgd_mutate_relaxed_ring)]
        // ORDERING: deliberately wrong (mutation sentinel) — Relaxed
        // lets the consumer observe the new head before the slot write,
        // a data race the model checker must report.
        self.head.store(head + 1, Ordering::Relaxed);
    }

    /// Consumer side: drain all published records into `out`. Must not
    /// be called concurrently with itself (single consumer at a time).
    pub fn drain(&self, out: &mut Vec<SpanRecord>) {
        // ORDERING: Acquire — pairs with the producer's Release store,
        // making the slot contents written before that store visible.
        let head = self.head.load(Ordering::Acquire);
        // ORDERING: Relaxed — the consumer is the only thread that ever
        // stores `tail`, so it always sees its own latest value.
        let mut tail = self.tail.load(Ordering::Relaxed);
        while tail != head {
            let rec = self.slots[tail & self.mask].with(|p| {
                // SAFETY: `tail < head` proves the slot was published,
                // and the producer never rewrites a slot until we free
                // it by advancing `tail` below.
                unsafe { *p }
            });
            out.push(rec);
            tail += 1;
        }
        // ORDERING: Release — pairs with the producer's Acquire load of
        // `tail`, guaranteeing our slot reads above complete before the
        // producer is allowed to overwrite them.
        self.tail.store(tail, Ordering::Release);
    }

    /// Number of records discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        // ORDERING: Relaxed — monotone counter, read for reporting only.
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(all(test, not(lsgd_model)))]
mod tests {
    use super::*;

    fn rec(label: u32, start: u64) -> SpanRecord {
        SpanRecord { label, start_ns: start, dur_ns: 1 }
    }

    #[test]
    fn push_then_drain_preserves_order() {
        let ring = EventRing::new(8);
        for i in 0..5 {
            ring.push(rec(i, u64::from(i) * 10));
        }
        let mut out = Vec::new();
        ring.drain(&mut out);
        assert_eq!(out.len(), 5);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.label, i as u32);
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_newest_and_counts() {
        let ring = EventRing::new(4);
        for i in 0..7 {
            ring.push(rec(i, 0));
        }
        assert_eq!(ring.dropped(), 3);
        let mut out = Vec::new();
        ring.drain(&mut out);
        // The first 4 survive; the last 3 were dropped (drop-newest).
        assert_eq!(out.iter().map(|r| r.label).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn drain_frees_capacity_across_wraparound() {
        let ring = EventRing::new(4);
        let mut out = Vec::new();
        let mut expected = Vec::new();
        for round in 0u32..10 {
            for i in 0..3 {
                let l = round * 3 + i;
                ring.push(rec(l, 0));
                expected.push(l);
            }
            ring.drain(&mut out);
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(out.iter().map(|r| r.label).collect::<Vec<_>>(), expected);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = EventRing::new(6);
    }
}
