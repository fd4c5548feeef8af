//! A lock-free, unbounded, MPMC FIFO queue (segmented Michael–Scott).
//!
//! # Structure
//!
//! The queue is a singly linked list of fixed-size **segments**
//! ([`SEG_CAP`] slots each), in the style of Michael & Scott's two-pointer
//! queue lifted from nodes-of-one to nodes-of-many: a `head` cursor
//! (segment pointer + monotone slot index) for poppers and a `tail`
//! cursor for pushers. Push claims the next tail index with one CAS,
//! writes its value into the claimed slot, then flags the slot WRITTEN.
//! Pop claims the next head index with one CAS, awaits the slot's WRITTEN
//! flag, takes the value, then flags the slot CONSUMED. The thread whose
//! claim fills a segment allocates/installs the successor segment; both
//! cursors then hop segment boundaries without ever touching a lock.
//!
//! Indices are global (never reset per segment) and strictly monotone, so
//! every `(segment, slot)` pair is claimed by exactly one pusher and one
//! popper over the queue's lifetime — segments are **one-shot**, never
//! reused, which is what makes the CAS on the cursor index ABA-free.
//!
//! # Reclamation (why freeing segments under concurrent poppers is safe)
//!
//! A segment may only be freed once no thread can ever dereference it
//! again. Rather than a global epoch scheme, reclamation rides on the
//! per-slot state machine (`0 → WRITTEN → WRITTEN|CONSUMED`), exploiting
//! two facts:
//!
//! 1. **Access is bracketed by slot claims.** A popper dereferences a
//!    segment only between *winning the head-index CAS for a slot in it*
//!    and *setting that slot's CONSUMED bit* (its last touch of the
//!    segment). A pusher's last touch is setting WRITTEN, and CONSUMED
//!    can only follow WRITTEN, so a slot whose CONSUMED bit is set has
//!    been fully vacated by both its pusher and its popper.
//! 2. **Each slot is claimed exactly once per side** (monotone global
//!    indices, one-shot segments).
//!
//! The popper of a segment's **last** slot initiates teardown: it scans
//! the segment's slots, and for each one either observes CONSUMED
//! (that slot's popper is gone for good — by 1 and 2 it can never come
//! back) or atomically sets an ABANDONED bit in the slot's state. A
//! popper that later finishes such a slot sees ABANDONED when it sets
//! CONSUMED and *takes over* the teardown, continuing the scan from the
//! next slot. Whoever completes the scan — the initiator, if every slot
//! was already CONSUMED, or the last straggling popper otherwise — frees
//! the segment. Exactly one thread can complete the scan (each handoff
//! transfers responsibility via a single atomic RMW on a slot's state),
//! and by construction it does so only after every slot is CONSUMED,
//! i.e. after the last possible dereference. The teardown initiator
//! itself holds the only other reference path (the head cursor), which
//! it has already advanced past the segment before initiating.
//!
//! No locks, no timestamps, no deferred-free lists: memory is bounded by
//! live elements plus at most one retiring segment per in-flight popper.
//!
//! # Progress
//!
//! Push and pop are CAS-only; a failed cursor CAS always means another
//! thread's push/pop succeeded, so the system as a whole makes progress
//! (lock-freedom). Two bounded waits exist, the same ones the published
//! `crossbeam` SegQueue has: a popper awaiting its claimed slot's WRITTEN
//! flag, and a cursor awaiting a successor segment mid-installation. Both
//! wait on a *specific already-claimed step* of another thread and spin
//! with [`Backoff::snooze`], which yields the timeslice so the awaited
//! thread runs even on an oversubscribed box. The buffer-pool caller
//! additionally never blocks on an empty queue: `pop` returns `None`
//! immediately when head catches tail.
//!
//! # Memory ordering contract (call sites rely on this)
//!
//! `push(v)` **releases** and the `pop()` that returns `v` **acquires**:
//! every write the pusher made before `push` — including plain
//! non-atomic writes to memory reachable through `v`, such as the
//! contents of a buffer whose address is queued — happens-before
//! anything the popper does after `pop`. The edge is the pusher's
//! `Release` store of WRITTEN into the slot state paired with the
//! popper's `Acquire` wait on it. `lsgd_core`'s `BufferPool` depends on
//! this to hand raw buffer addresses between threads without other
//! synchronisation.

use crate::backoff::Backoff;
use lsgd_check::annotate;
use lsgd_check::sync::{fence, AtomicPtr, AtomicUsize, Ordering, UnsafeCell};
use std::mem::MaybeUninit;

/// Slots per segment. One less than `LAP` so that, per segment lap,
/// index offset `SEG_CAP` is a reserved "cursor is mid-hop to the next
/// segment" state distinguishable from every claimable slot.
///
/// Under `--cfg lsgd_model` the capacity drops to 3 so model tests hit
/// segment boundaries (successor install, teardown handoff) within a
/// handful of operations instead of 31.
pub const SEG_CAP: usize = if cfg!(lsgd_model) { 3 } else { 31 };

/// Indices advance by `LAP` per segment (offset `SEG_CAP` is the hop
/// marker; see [`SEG_CAP`]).
const LAP: usize = SEG_CAP + 1;

/// Slot state bit: the pusher has finished writing the value.
const WRITTEN: usize = 1;
/// Slot state bit: the popper has finished taking the value.
const CONSUMED: usize = 2;
/// Slot state bit: segment teardown reached this slot while its popper
/// was still mid-read; that popper continues the teardown.
const ABANDONED: usize = 4;

/// Cursor indices are shifted left by one; the freed-up low bit is used
/// on the **head** index (only — the tail's stays 0) as a hint that a
/// successor segment is already installed past the head's current one,
/// letting poppers skip the empty-check against the tail.
const SHIFT: usize = 1;
const HAS_NEXT: usize = 1;

/// One value cell plus its state machine.
struct Slot<T> {
    value: UnsafeCell<MaybeUninit<T>>,
    /// Combination of [`WRITTEN`] / [`CONSUMED`] / [`ABANDONED`].
    state: AtomicUsize,
}

impl<T> Slot<T> {
    /// Spins until the pusher that claimed this slot lands its value.
    fn await_written(&self) {
        let mut backoff = Backoff::new();
        while self.state.load(Ordering::Acquire) & WRITTEN == 0 {
            backoff.snooze();
        }
    }
}

/// A one-shot block of [`SEG_CAP`] slots in the segment list.
struct Segment<T> {
    /// Successor segment, installed by the pusher that claims the last
    /// slot; null until then.
    next: AtomicPtr<Segment<T>>,
    slots: [Slot<T>; SEG_CAP],
}

impl<T> Segment<T> {
    /// A fresh segment with null `next` and all-zero slot states.
    fn new_boxed() -> Box<Segment<T>> {
        // SAFETY: `AtomicPtr`, `AtomicUsize`, and `MaybeUninit<T>` are
        // all valid when zero-initialised, hence so is `Segment<T>`.
        unsafe { Box::new(MaybeUninit::<Segment<T>>::zeroed().assume_init()) }
    }

    /// Spins until the successor segment is installed.
    fn await_next(&self) -> *mut Segment<T> {
        let mut backoff = Backoff::new();
        loop {
            let next = self.next.load(Ordering::Acquire);
            if !next.is_null() {
                return next;
            }
            backoff.snooze();
        }
    }

    /// Continues (or initiates, with `start == 0`) teardown of `seg`
    /// from slot `start`: frees the segment once every slot is observed
    /// CONSUMED, handing responsibility to a straggling popper otherwise.
    ///
    /// # Safety
    /// `seg` must be fully popped (head cursor advanced past it) and the
    /// caller must hold teardown responsibility: it is either the popper
    /// of the segment's last slot (initiation) or a popper that just
    /// observed ABANDONED on its own slot (handoff).
    unsafe fn teardown(seg: *mut Segment<T>, start: usize) {
        // The last slot never needs an ABANDONED handoff: its popper is
        // the teardown initiator, so it is already past its read.
        for i in start..SEG_CAP - 1 {
            let slot = &(*seg).slots[i];
            // If the slot's popper is still mid-read, flag the slot and
            // delegate the rest of the teardown to that popper.
            if slot.state.load(Ordering::Acquire) & CONSUMED == 0
                && slot.state.fetch_or(ABANDONED, Ordering::AcqRel) & CONSUMED == 0
            {
                return;
            }
        }
        // Every slot is CONSUMED: no thread can touch `seg` again.
        annotate::retire(seg as usize, std::mem::size_of::<Segment<T>>());
        drop(Box::from_raw(seg));
    }
}

/// A queue cursor: a monotone slot index (shifted, low bit = HAS_NEXT on
/// the tail side) plus the segment that index currently falls in.
struct Cursor<T> {
    index: AtomicUsize,
    segment: AtomicPtr<Segment<T>>,
}

/// Pad the two cursors to distinct cache lines: pushers and poppers
/// otherwise false-share one line and every CAS invalidates both sides.
#[repr(align(128))]
struct CachePadded<T>(T);

/// An unbounded lock-free MPMC FIFO queue (drop-in for
/// `crossbeam::queue::SegQueue`). See the module docs for the algorithm,
/// reclamation argument, and memory-ordering contract.
pub struct SegQueue<T> {
    head: CachePadded<Cursor<T>>,
    tail: CachePadded<Cursor<T>>,
}

// SAFETY: values are moved in by value and out by value; all shared
// internal state is atomics plus slots governed by the claim protocol
// (each slot has one writer then one reader, ordered by WRITTEN).
unsafe impl<T: Send> Send for SegQueue<T> {}
unsafe impl<T: Send> Sync for SegQueue<T> {}

impl<T> SegQueue<T> {
    /// Creates an empty queue. The first segment is allocated lazily by
    /// the first push, so `new` is allocation-free and `const`.
    pub const fn new() -> Self {
        SegQueue {
            head: CachePadded(Cursor {
                index: AtomicUsize::new(0),
                segment: AtomicPtr::new(std::ptr::null_mut()),
            }),
            tail: CachePadded(Cursor {
                index: AtomicUsize::new(0),
                segment: AtomicPtr::new(std::ptr::null_mut()),
            }),
        }
    }

    /// Pushes `value` onto the back of the queue.
    pub fn push(&self, value: T) {
        let mut backoff = Backoff::new();
        let mut tail = self.tail.0.index.load(Ordering::Acquire);
        let mut seg = self.tail.0.segment.load(Ordering::Acquire);
        // Pre-allocated successor, carried across CAS retries so a lost
        // race does not leak or re-allocate it.
        let mut next_seg: Option<Box<Segment<T>>> = None;

        loop {
            let offset = (tail >> SHIFT) % LAP;
            if offset == SEG_CAP {
                // Another pusher claimed the last slot and is installing
                // the successor segment; wait for the cursor to hop.
                backoff.snooze();
                tail = self.tail.0.index.load(Ordering::Acquire);
                seg = self.tail.0.segment.load(Ordering::Acquire);
                continue;
            }

            // About to claim the last slot: have the successor ready so
            // the install happens promptly after the claim.
            if offset + 1 == SEG_CAP && next_seg.is_none() {
                next_seg = Some(Segment::new_boxed());
            }

            if seg.is_null() {
                // First-ever push: race to install the initial segment.
                let first = Box::into_raw(Segment::new_boxed());
                // ORDERING: failure side is Relaxed — the loser only
                // reclaims its own never-published allocation and
                // re-reads the cursors with Acquire below.
                if self
                    .tail
                    .0
                    .segment
                    .compare_exchange(seg, first, Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    annotate::fresh(first as usize, std::mem::size_of::<Segment<T>>());
                    self.head.0.segment.store(first, Ordering::Release);
                    seg = first;
                } else {
                    // SAFETY: `first` never escaped; reclaim it whole.
                    next_seg = Some(unsafe { Box::from_raw(first) });
                    tail = self.tail.0.index.load(Ordering::Acquire);
                    seg = self.tail.0.segment.load(Ordering::Acquire);
                    continue;
                }
            }

            let new_tail = tail + (1 << SHIFT);
            // ORDERING: SeqCst on the claim CAS pairs with the SeqCst
            // fence in pop's empty check — a pop that still sees
            // head == tail after its fence is guaranteed no push
            // completed a claim before the pop's head load.
            match self.tail.0.index.compare_exchange_weak(
                tail,
                new_tail,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                Ok(_) => unsafe {
                    // Claimed slot `offset` in `seg`. If it is the last
                    // one, install the successor before writing so other
                    // pushers stop spinning as soon as possible.
                    if offset + 1 == SEG_CAP {
                        let next = Box::into_raw(next_seg.take().unwrap());
                        annotate::fresh(next as usize, std::mem::size_of::<Segment<T>>());
                        // Hop the cursor over the reserved offset.
                        let next_index = new_tail.wrapping_add(1 << SHIFT);
                        self.tail.0.segment.store(next, Ordering::Release);
                        self.tail.0.index.store(next_index, Ordering::Release);
                        (*seg).next.store(next, Ordering::Release);
                    }
                    // Land the value, then publish it. This Release store
                    // is the producer half of the module-docs ordering
                    // contract.
                    let slot = &(*seg).slots[offset];
                    // SAFETY: this pusher won the claim CAS for `offset`,
                    // so it is the slot's only writer.
                    slot.value.with_mut(|p| p.write(MaybeUninit::new(value)));
                    #[cfg(not(lsgd_mutate_relaxed_written))]
                    slot.state.fetch_or(WRITTEN, Ordering::Release);
                    // ORDERING: deliberately wrong — this cfg exists so
                    // the model checker's mutation test can prove it
                    // detects the weakened publication (see
                    // crates/sync/tests/model_queue.rs).
                    #[cfg(lsgd_mutate_relaxed_written)]
                    slot.state.fetch_or(WRITTEN, Ordering::Relaxed);
                    return;
                },
                Err(current) => {
                    lsgd_trace::count(lsgd_trace::Counter::QueuePushRetry);
                    tail = current;
                    seg = self.tail.0.segment.load(Ordering::Acquire);
                    backoff.spin();
                }
            }
        }
    }

    /// Pops from the front of the queue; `None` if empty. Never blocks
    /// on an empty queue.
    pub fn pop(&self) -> Option<T> {
        // Injection seam: an armed `stall:pop` rule delays this popper
        // before it reads the head cursor (exercising slot-state races).
        lsgd_fault::point(lsgd_fault::Site::QueuePop);
        let mut backoff = Backoff::new();
        let mut head = self.head.0.index.load(Ordering::Acquire);
        let mut seg = self.head.0.segment.load(Ordering::Acquire);

        loop {
            let offset = (head >> SHIFT) % LAP;
            if offset == SEG_CAP {
                // The popper of the previous slot is mid-hop to the next
                // segment; wait for the cursor to land.
                backoff.snooze();
                head = self.head.0.index.load(Ordering::Acquire);
                seg = self.head.0.segment.load(Ordering::Acquire);
                continue;
            }

            let mut new_head = head + (1 << SHIFT);

            if new_head & HAS_NEXT == 0 {
                // Successor not known to exist: check emptiness against
                // the tail. A relaxed tail read may lag, but lagging only
                // *underestimates* tail — seeing `tail > head` therefore
                // proves the slot at `head` was already claimed by a
                // pusher, and claiming it is safe with no fence at all.
                // Only the "looks empty" answer needs certainty: there
                // the SeqCst fence (pairing with the SeqCst index CASes)
                // orders this re-read after the head load, so a push
                // that completed before the head load cannot be missed.
                // This keeps the fence off the hot non-empty path.
                // ORDERING: Relaxed tail reads are safe because lag only
                // underestimates (see the comment above); the SeqCst
                // fence pairs with the SeqCst claim CASes to make the
                // "looks empty" answer authoritative.
                let mut tail = self.tail.0.index.load(Ordering::Relaxed);
                if head >> SHIFT == tail >> SHIFT {
                    // ORDERING: the SeqCst fence pairs with the SeqCst
                    // claim CASes (see the comment above); the Relaxed
                    // re-read after it is then authoritative.
                    fence(Ordering::SeqCst);
                    // ORDERING: Relaxed — ordered by the fence above.
                    tail = self.tail.0.index.load(Ordering::Relaxed);
                    if head >> SHIFT == tail >> SHIFT {
                        lsgd_trace::count(lsgd_trace::Counter::QueueEmptyPop);
                        return None;
                    }
                }
                // Tail already left this segment → a successor exists;
                // remember that in the claimed index. (A lagging tail
                // read can only under-set this hint, which is safe: the
                // next pop just re-derives it the slow way.)
                if (head >> SHIFT) / LAP != (tail >> SHIFT) / LAP {
                    new_head |= HAS_NEXT;
                }
            }

            if seg.is_null() {
                // Tail is non-empty but the first segment is still being
                // installed by the first pusher.
                backoff.snooze();
                head = self.head.0.index.load(Ordering::Acquire);
                seg = self.head.0.segment.load(Ordering::Acquire);
                continue;
            }

            // ORDERING: SeqCst on the claim CAS pairs with the SeqCst
            // fence in the empty check above (same contract as the tail
            // CAS in push).
            match self.head.0.index.compare_exchange_weak(
                head,
                new_head,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                Ok(_) => unsafe {
                    // Claimed slot `offset` in `seg`. `seg` cannot be
                    // freed before this popper sets CONSUMED (reclamation
                    // argument in the module docs), so dereferencing it
                    // is safe from here to that store.
                    if offset + 1 == SEG_CAP {
                        // Last slot of the segment: hop the head cursor,
                        // then (below) initiate teardown.
                        let next = (*seg).await_next();
                        let mut next_index = (new_head & !HAS_NEXT).wrapping_add(1 << SHIFT);
                        // ORDERING: Relaxed — a lagging null read only
                        // under-sets the HAS_NEXT hint, which the next
                        // pop re-derives the slow way; never a
                        // correctness input.
                        if !(*next).next.load(Ordering::Relaxed).is_null() {
                            next_index |= HAS_NEXT;
                        }
                        self.head.0.segment.store(next, Ordering::Release);
                        self.head.0.index.store(next_index, Ordering::Release);
                    }
                    let slot = &(*seg).slots[offset];
                    slot.await_written();
                    // SAFETY: this popper won the claim CAS for `offset`
                    // and WRITTEN is set, so the value is initialised and
                    // this is its only reader; the read moves it out.
                    let value = slot.value.with_mut(|p| p.read()).assume_init();
                    if offset + 1 == SEG_CAP {
                        // Popper of the last slot initiates teardown; its
                        // own slot needs no CONSUMED mark (it *is* the
                        // initiator, per the reclamation argument).
                        Segment::teardown(seg, 0);
                    } else if slot.state.fetch_or(CONSUMED, Ordering::AcqRel) & ABANDONED != 0 {
                        // Teardown already swept past this slot and
                        // delegated to us; carry it forward.
                        Segment::teardown(seg, offset + 1);
                    }
                    return Some(value);
                },
                Err(current) => {
                    lsgd_trace::count(lsgd_trace::Counter::QueuePopRetry);
                    head = current;
                    seg = self.head.0.segment.load(Ordering::Acquire);
                    backoff.spin();
                }
            }
        }
    }

    /// Whether the queue is empty at the instant of the check.
    pub fn is_empty(&self) -> bool {
        // ORDERING: SeqCst puts both cursor reads in the single total
        // order with the SeqCst claim CASes, so the answer reflects a
        // real instant rather than two unrelated lagging reads.
        let head = self.head.0.index.load(Ordering::SeqCst);
        // ORDERING: SeqCst — see above.
        let tail = self.tail.0.index.load(Ordering::SeqCst);
        head >> SHIFT == tail >> SHIFT
    }

    /// Number of elements at the instant of a consistent index snapshot.
    pub fn len(&self) -> usize {
        loop {
            // ORDERING: SeqCst as in is_empty; the tail re-read below
            // additionally validates the pair as one snapshot.
            let mut tail = self.tail.0.index.load(Ordering::SeqCst);
            // ORDERING: SeqCst — see above.
            let mut head = self.head.0.index.load(Ordering::SeqCst);
            // Re-read to make sure the pair is a consistent snapshot.
            // ORDERING: SeqCst — validates the pair as one snapshot.
            if self.tail.0.index.load(Ordering::SeqCst) == tail {
                // Strip HAS_NEXT, then normalise mid-hop cursors (offset
                // SEG_CAP counts as the start of the next segment).
                tail &= !((1 << SHIFT) - 1);
                head &= !((1 << SHIFT) - 1);
                if (tail >> SHIFT) % LAP == SEG_CAP {
                    tail = tail.wrapping_add(1 << SHIFT);
                }
                if (head >> SHIFT) % LAP == SEG_CAP {
                    head = head.wrapping_add(1 << SHIFT);
                }
                let lap = (head >> SHIFT) / LAP;
                tail = tail.wrapping_sub((lap * LAP) << SHIFT);
                head = head.wrapping_sub((lap * LAP) << SHIFT);
                tail >>= SHIFT;
                head >>= SHIFT;
                // One index per lap is the reserved hop marker, not an
                // element.
                return tail - head - tail / LAP;
            }
        }
    }
}

impl<T> Default for SegQueue<T> {
    fn default() -> Self {
        SegQueue::new()
    }
}

impl<T> std::fmt::Debug for SegQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegQueue").field("len", &self.len()).finish()
    }
}

impl<T> Drop for SegQueue<T> {
    fn drop(&mut self) {
        // Exclusive access (&mut self): walk head→tail dropping the
        // values still queued, freeing each segment as it is passed.
        let mut head = *self.head.0.index.get_mut() & !HAS_NEXT;
        let tail = *self.tail.0.index.get_mut() & !HAS_NEXT;
        let mut seg = *self.head.0.segment.get_mut();
        unsafe {
            while head != tail {
                let offset = (head >> SHIFT) % LAP;
                if offset < SEG_CAP {
                    let slot = &(*seg).slots[offset];
                    (*slot.value.get()).assume_init_drop();
                } else {
                    let next = *(*seg).next.get_mut();
                    annotate::retire(seg as usize, std::mem::size_of::<Segment<T>>());
                    drop(Box::from_raw(seg));
                    seg = next;
                }
                head = head.wrapping_add(1 << SHIFT);
            }
            if !seg.is_null() {
                annotate::retire(seg as usize, std::mem::size_of::<Segment<T>>());
                drop(Box::from_raw(seg));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_within_and_across_segments() {
        let q = SegQueue::new();
        // 5 * LAP elements crosses several segment boundaries.
        let n = 5 * LAP as u64;
        for i in 0..n {
            q.push(i);
        }
        assert_eq!(q.len(), n as usize);
        for i in 0..n {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_through_segment_hops() {
        let q = SegQueue::new();
        assert_eq!(q.len(), 0);
        for lap in 0..3usize {
            for i in 0..SEG_CAP {
                q.push(0u8);
                assert_eq!(q.len(), lap * SEG_CAP + i + 1);
            }
        }
        for i in (0..3 * SEG_CAP).rev() {
            q.pop().unwrap();
            assert_eq!(q.len(), i);
        }
    }

    #[test]
    fn empty_pop_is_none_not_blocking() {
        let q: SegQueue<u32> = SegQueue::new();
        assert_eq!(q.pop(), None);
        q.push(7);
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn drop_releases_queued_values() {
        // Drop counting via Arc strong counts.
        let marker = Arc::new(());
        {
            let q = SegQueue::new();
            for _ in 0..100 {
                q.push(Arc::clone(&marker));
            }
            for _ in 0..40 {
                q.pop().unwrap();
            }
            assert_eq!(Arc::strong_count(&marker), 61);
        }
        assert_eq!(Arc::strong_count(&marker), 1, "queue drop leaks values");
    }

    #[test]
    fn interleaved_push_pop_stays_fifo() {
        let q = SegQueue::new();
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        // Irregular interleaving that repeatedly drains to empty.
        for round in 0..200u64 {
            for _ in 0..(round % 7) {
                q.push(next_push);
                next_push += 1;
            }
            for _ in 0..(round % 5) {
                if let Some(v) = q.pop() {
                    assert_eq!(v, next_pop);
                    next_pop += 1;
                }
            }
        }
        while let Some(v) = q.pop() {
            assert_eq!(v, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, next_push);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 40k-element stress loop: minutes under Miri, no extra coverage
    fn concurrent_mpmc_conserves_elements() {
        let q = Arc::new(SegQueue::new());
        let producers = 4u64;
        let per = 10_000u64;
        let popped: u64 = std::thread::scope(|s| {
            for t in 0..producers {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..per {
                        q.push(t * per + i);
                    }
                });
            }
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut sum = 0u64;
                        let mut misses = 0u32;
                        while misses < 10_000 {
                            match q.pop() {
                                Some(v) => {
                                    sum += v;
                                    misses = 0;
                                }
                                None => {
                                    misses += 1;
                                    std::thread::yield_now();
                                }
                            }
                        }
                        sum
                    })
                })
                .collect();
            consumers.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let leftover: u64 = std::iter::from_fn(|| q.pop()).sum();
        let expected: u64 = (0..producers * per).sum();
        assert_eq!(popped + leftover, expected);
    }
}
