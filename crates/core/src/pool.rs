//! Lock-free recycling pool of ParameterVector slots.
//!
//! Leashed-SGD takes a fresh ParameterVector for every update and relies
//! on recycling to bound memory (paper §III P2, Lemma 2). This pool
//! provides the recycling. A slot is a [`ParamVec`] header that owns its
//! θ buffer; both are allocated together on the pool's first demand and
//! freed only when the pool drops. Slots that `safe_delete` releases go
//! onto a lock-free free list and are handed back out by later
//! acquires, so in steady state a publication allocates neither a header
//! nor a buffer. The free list is an `lsgd_sync::SegQueue`, which still
//! allocates a segment every 31 pushes and frees it once drained.
//!
//! The recycle fast path (`acquire` hitting the free list, `release`)
//! takes no lock. Cross-thread slot reuse is data-race-free because the
//! queue guarantees that a `push(addr)` happens-before the `pop()`
//! returning `addr` (release/acquire on the queue slot state; see
//! `lsgd_sync::queue`'s memory-ordering contract), so the previous
//! owner's last writes to the buffer are visible before the next
//! owner's first writes. A reader may still hold a late increment on a
//! released slot; [`acquire`](BufferPool::acquire) keeps its count (see
//! [`paramvec`](crate::paramvec)'s safety model).
//!
//! The pool retains logical ownership of every slot it ever created and
//! frees them all on drop, so nothing leaks even if callers lose track of
//! outstanding slots (as happens to the final published vector of a run).

use crate::mem::MemoryGauge;
use crate::paramvec::ParamVec;
use lsgd_sync::SegQueue;
use parking_lot::Mutex;
// Deliberately std (not the lsgd_check shims): `outstanding` and
// `outstanding_peak` are diagnostic tallies outside the verified
// protocol; keeping them off the model scheduler keeps model-state
// space focused on the real handoff atomics. The `slots` Mutex is
// likewise model-safe as plain parking_lot: it is only taken around
// straight-line code with no shimmed operation (= no model schedule
// point) inside the critical section, so a model thread can never be
// descheduled while holding it.
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A recycling allocator of [`ParamVec`] slots of one fixed dimension.
pub struct BufferPool {
    dim: usize,
    free: SegQueue<usize>,
    /// Every slot ever allocated (addresses), freed on drop. Locked only
    /// on fresh allocation, never on the recycled fast path.
    slots: Mutex<Vec<usize>>,
    outstanding: AtomicUsize,
    outstanding_peak: AtomicUsize,
    gauge: Arc<MemoryGauge>,
}

impl BufferPool {
    /// Creates a recycling pool of `dim`-length slots reporting to
    /// `gauge`.
    pub fn new(dim: usize, gauge: Arc<MemoryGauge>) -> Self {
        assert!(dim > 0, "buffer dimension must be positive");
        BufferPool {
            dim,
            free: SegQueue::new(),
            slots: Mutex::new(Vec::new()),
            outstanding: AtomicUsize::new(0),
            outstanding_peak: AtomicUsize::new(0),
            gauge,
        }
    }

    /// [`new`](Self::new), kept for callers that still pass the old
    /// recycling switch.
    ///
    /// # Panics
    /// Panics if `recycle` is `false`: a slot pool always recycles.
    pub fn new_with_recycling(dim: usize, gauge: Arc<MemoryGauge>, recycle: bool) -> Self {
        assert!(recycle, "the slot pool always recycles");
        Self::new(dim, gauge)
    }

    /// Buffer dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes per θ buffer.
    pub fn buf_bytes(&self) -> usize {
        self.dim * std::mem::size_of::<f32>()
    }

    /// Acquires a slot (recycled when possible). Buffer contents are
    /// unspecified; callers always fully overwrite.
    pub fn acquire(&self) -> *mut ParamVec {
        // Injection seam: an armed `stall:acquire` rule fires here.
        lsgd_fault::point(lsgd_fault::Site::PoolAcquire);
        let slot = self.pop_free().unwrap_or_else(|| self.alloc_fresh());
        // ORDERING: Relaxed — `outstanding`/`outstanding_peak` are
        // diagnostic tallies that publish nothing; cross-thread exactness
        // is only asserted after a `thread::scope` join, which is itself
        // a synchronisation point. Slot handoff never reads them.
        let out = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        // ORDERING: Relaxed — see above; the peak CAS loop tolerates any
        // interleaving and only ever ratchets upward.
        let mut peak = self.outstanding_peak.load(Ordering::Relaxed);
        while out > peak {
            // ORDERING: Relaxed — see above.
            match self.outstanding_peak.compare_exchange_weak(
                peak,
                out,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
        slot
    }

    /// Takes a released slot off the free list, made usable again.
    fn pop_free(&self) -> Option<*mut ParamVec> {
        // Ordering: the releasing thread's writes to the slot are
        // visible here via the queue's push→pop release/acquire edge; no
        // extra fence is needed before handing it to a new owner. The
        // model checker verifies exactly this: a recycled buffer keeps
        // its region identity (no re-fresh here), so the next owner's
        // writes race with the previous owner's accesses unless the
        // queue edge really orders them.
        let slot = self.free.pop()? as *mut ParamVec;
        self.gauge.note_reuse();
        // SAFETY: every address on the free list is a live slot of this
        // pool (slots are freed only in `drop`).
        unsafe { (*slot).reuse() };
        Some(slot)
    }

    /// Empty-free-list slow path: allocates a fresh slot.
    fn alloc_fresh(&self) -> *mut ParamVec {
        let slot = ParamVec::alloc(self.dim);
        self.gauge.add(self.buf_bytes());
        self.slots.lock().push(slot as usize);
        slot
    }

    /// Returns a slot to the free list.
    ///
    /// # Safety
    /// `slot` must have been produced by [`BufferPool::acquire`] on this
    /// pool, and its buffer must not be accessed after release.
    pub unsafe fn release(&self, slot: *mut ParamVec) {
        debug_assert!(!slot.is_null());
        // ORDERING: Relaxed — diagnostic tally; see `acquire`.
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        // The queue's push is a release operation on the queue slot that
        // carries the address, so this thread's final writes to the
        // buffer happen-before the next `acquire` that pops it (see the
        // module docs). The Relaxed counter above rides along: it orders
        // nothing and needs to order nothing.
        self.free.push(slot as usize);
    }

    /// Slots currently held by callers (not on the free list).
    pub fn outstanding(&self) -> usize {
        // ORDERING: Relaxed — diagnostic; exact only after a join.
        self.outstanding.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently outstanding slots — the quantity
    /// Lemma 2 bounds by [`outstanding_bound`](crate::paramvec::outstanding_bound).
    pub fn outstanding_peak(&self) -> usize {
        // ORDERING: Relaxed — diagnostic; exact only after a join.
        self.outstanding_peak.load(Ordering::Relaxed)
    }

    /// The memory gauge this pool reports to.
    pub fn gauge(&self) -> &Arc<MemoryGauge> {
        &self.gauge
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        // Free every slot the pool created, whether or not it was
        // returned — the pool outlives all users (it is dropped only
        // after the training scope joins all workers). The free list
        // holds a subset of `slots`, so this frees each exactly once.
        for addr in std::mem::take(self.slots.get_mut()) {
            // SAFETY: made by `ParamVec::alloc` in `alloc_fresh`, recorded
            // once, and (post-join, `&mut self`) no longer in use.
            unsafe { ParamVec::free(addr as *mut ParamVec) };
            self.gauge.sub(self.buf_bytes());
        }
    }
}

// SAFETY: the queue and the slot list store plain addresses; slot
// ownership transfer is governed by the ParameterVector protocol (see
// paramvec.rs safety notes).
unsafe impl Send for BufferPool {}
// SAFETY: `&self` methods touch only the lock-free queue, the slot list
// under its lock, atomic counters, and the state word of a popped slot
// (an atomic); the slots they hand out are owned per the same protocol.
unsafe impl Sync for BufferPool {}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(dim: usize) -> BufferPool {
        BufferPool::new(dim, Arc::new(MemoryGauge::new()))
    }

    #[test]
    fn acquire_allocates_then_recycles() {
        let p = pool(64);
        let a = p.acquire();
        assert_eq!(p.gauge().total_allocs(), 1);
        unsafe { p.release(a) };
        let b = p.acquire();
        assert_eq!(b, a, "freed buffer should be recycled");
        assert_eq!(p.gauge().total_allocs(), 1);
        assert_eq!(p.gauge().pool_reuses(), 1);
        unsafe { p.release(b) };
    }

    #[test]
    fn outstanding_and_peak_counters() {
        let p = pool(8);
        let a = p.acquire();
        let b = p.acquire();
        assert_eq!(p.outstanding(), 2);
        unsafe { p.release(a) };
        assert_eq!(p.outstanding(), 1);
        assert_eq!(p.outstanding_peak(), 2);
        unsafe { p.release(b) };
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn gauge_counts_bytes() {
        let g = Arc::new(MemoryGauge::new());
        let p = BufferPool::new(100, Arc::clone(&g));
        let a = p.acquire();
        assert_eq!(g.live(), 400);
        let b = p.acquire();
        assert_eq!(g.live(), 800);
        unsafe {
            p.release(a);
            p.release(b);
        }
        // Released buffers stay owned by the pool until drop.
        assert_eq!(g.live(), 800);
        drop(p);
        assert_eq!(g.live(), 0);
    }

    #[test]
    fn drop_reclaims_outstanding_buffers_too() {
        let g = Arc::new(MemoryGauge::new());
        {
            let p = BufferPool::new(10, Arc::clone(&g));
            let _leaked_by_caller = p.acquire();
            assert_eq!(g.live(), 40);
        }
        assert_eq!(g.live(), 0, "pool drop must free unreturned buffers");
    }

    #[test]
    fn concurrent_acquire_release_is_balanced() {
        let p = Arc::new(BufferPool::new(32, Arc::new(MemoryGauge::new())));
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    let mut held = Vec::new();
                    for i in 0..2000 {
                        held.push(p.acquire());
                        if (i + t) % 3 == 0 {
                            if let Some(ptr) = held.pop() {
                                unsafe { p.release(ptr) };
                            }
                        }
                        while held.len() > 4 {
                            let ptr = held.remove(0);
                            unsafe { p.release(ptr) };
                        }
                    }
                    for ptr in held {
                        unsafe { p.release(ptr) };
                    }
                });
            }
        });
        assert_eq!(p.outstanding(), 0);
        assert!(p.outstanding_peak() <= 4 * 5);
        // Steady state should be dominated by reuse.
        assert!(p.gauge().pool_reuses() > p.gauge().total_allocs());
    }
}
