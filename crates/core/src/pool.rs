//! Lock-free recycling pool for `theta` buffers.
//!
//! Leashed-SGD allocates a fresh ParameterVector for every update and
//! relies on recycling to bound memory (paper §III P2, Lemma 2). This pool
//! provides the recycling: buffers released by `safe_delete` go onto a
//! lock-free free list and are handed back out to subsequent allocations,
//! so in steady state no θ buffer is heap-allocated. The paper's memory
//! bound covers these θ buffers only. The `ParamVec` header each
//! publication `Box`es is kept until the store drops (see
//! [`LeashedShared`](crate::paramvec::LeashedShared)), so headers grow as
//! O(published), off the [`MemoryGauge`]. The header arena and this
//! pool's free list are `SegQueue`s, which also allocate a segment every
//! 31 pushes.
//!
//! The free list is `lsgd_sync::SegQueue` — CAS-only push/pop — so the
//! recycle fast path (`acquire` hitting the free list, `release` in
//! recycling mode) takes no lock; with PR 2 the end-to-end hot path is
//! genuinely lock-free, as the paper claims. Cross-thread buffer reuse
//! is data-race-free because the queue guarantees that a `push(addr)`
//! happens-before the `pop()` returning `addr` (release/acquire on the
//! slot state; see `lsgd_sync::queue`'s memory-ordering contract), so
//! the previous owner's last writes to the buffer are visible before
//! the next owner's first writes.
//!
//! Buffers are fixed-dimension `d` `f32` arrays, passed around as raw
//! pointers because ownership moves through the lock-free ParameterVector
//! protocol rather than through Rust scopes. The pool itself retains
//! logical ownership of every buffer it ever created and frees them all on
//! drop, so nothing leaks even if callers lose track of outstanding
//! buffers (as happens to the final published vector of a run).
//!
//! [`BufferPool::new_with_recycling`]`(.., false)` builds a pool with
//! recycling disabled: every release then frees eagerly and every acquire
//! heap-allocates — the behaviour of a naive implementation of Algorithm
//! 3's `new ParamVector()`. Training never builds one; the switch serves
//! the pool's own tests and the `benchmark` package's
//! `ShardedShared::new(.., recycle)` calls, whose signature is kept.

use crate::mem::MemoryGauge;
use lsgd_check::annotate;
use lsgd_sync::SegQueue;
use parking_lot::Mutex;
use std::collections::HashSet;
// Deliberately std (not the lsgd_check shims): `outstanding` and
// `outstanding_peak` are diagnostic tallies outside the verified
// protocol; keeping them off the model scheduler keeps model-state
// space focused on the real handoff atomics. The `registry` Mutex is
// likewise model-safe as plain parking_lot: it is only taken around
// straight-line code with no shimmed operation (= no model schedule
// point) inside the critical section, so a model thread can never be
// descheduled while holding it.
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A recycling allocator of `f32` buffers of one fixed dimension.
pub struct BufferPool {
    dim: usize,
    recycle: bool,
    free: SegQueue<usize>,
    /// Every currently-allocated buffer (addresses), for final
    /// reclamation and for eager-free bookkeeping. Locked only on fresh
    /// allocation / eager free — never on the recycled fast path.
    registry: Mutex<HashSet<usize>>,
    outstanding: AtomicUsize,
    outstanding_peak: AtomicUsize,
    gauge: Arc<MemoryGauge>,
}

impl BufferPool {
    /// Creates a recycling pool of `dim`-length buffers reporting to
    /// `gauge`.
    pub fn new(dim: usize, gauge: Arc<MemoryGauge>) -> Self {
        Self::new_with_recycling(dim, gauge, true)
    }

    /// Creates a pool with recycling switched on or off (off = eager
    /// free + fresh allocation each time; see the module docs).
    pub fn new_with_recycling(dim: usize, gauge: Arc<MemoryGauge>, recycle: bool) -> Self {
        assert!(dim > 0, "buffer dimension must be positive");
        BufferPool {
            dim,
            recycle,
            free: SegQueue::new(),
            registry: Mutex::new(HashSet::new()),
            outstanding: AtomicUsize::new(0),
            outstanding_peak: AtomicUsize::new(0),
            gauge,
        }
    }

    /// Buffer dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Bytes per buffer.
    pub fn buf_bytes(&self) -> usize {
        self.dim * std::mem::size_of::<f32>()
    }

    /// Whether recycling is enabled.
    pub fn recycling(&self) -> bool {
        self.recycle
    }

    /// Acquires a buffer (recycled when possible). Contents are
    /// unspecified; callers always fully overwrite.
    ///
    /// Under memory pressure — the gauge's soft cap would be exceeded,
    /// or an injected `oom:` fault fires — the slow path briefly polls
    /// the free list for a recyclable buffer before allocating anyway.
    /// The wait is strictly bounded: a worker may be holding the very
    /// buffer the cap is waiting for, so blocking here indefinitely
    /// could deadlock the protocol. Waits and forced allocations are
    /// counted (`pool.pressure_wait` / `pool.pressure_forced`).
    pub fn acquire(&self) -> *mut f32 {
        // Injection seam: an armed `stall:acquire` rule fires here.
        lsgd_fault::point(lsgd_fault::Site::PoolAcquire);
        let ptr = if let Some(addr) = self.free.pop() {
            // Ordering: the releasing thread's writes to *addr are
            // visible here via the queue's push→pop release/acquire
            // edge; no extra fence is needed before handing the buffer
            // to a new owner. The model checker verifies exactly this:
            // a recycled buffer keeps its region identity (no re-fresh
            // here), so the next owner's writes race with the previous
            // owner's accesses unless the queue edge really orders them.
            self.gauge.note_reuse();
            addr as *mut f32
        } else {
            self.alloc_fresh()
        };
        // ORDERING: Relaxed — `outstanding`/`outstanding_peak` are
        // diagnostic tallies that publish nothing; cross-thread exactness
        // is only asserted after a `thread::scope` join, which is itself
        // a synchronisation point. Buffer handoff never reads them.
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
        ptr
    }

    /// Empty-free-list slow path: allocate fresh, with the bounded
    /// pressure wait described on [`acquire`](Self::acquire).
    fn alloc_fresh(&self) -> *mut f32 {
        // How many free-list polls a pressured allocation performs
        // before forcing through: a few cache-hot spins, then scheduler
        // yields. Worst case is a handful of microseconds — liveness
        // always beats the (advisory) cap.
        const PRESSURE_POLLS: usize = 64;
        const PRESSURE_SPINS: usize = 8;
        if self.gauge.would_exceed(self.buf_bytes()) || lsgd_fault::oom_on_alloc() {
            lsgd_trace::count(lsgd_trace::Counter::PoolPressureWait);
            for poll in 0..PRESSURE_POLLS {
                if let Some(addr) = self.free.pop() {
                    // Same push→pop edge as the fast path (see `acquire`).
                    self.gauge.note_reuse();
                    return addr as *mut f32;
                }
                if poll < PRESSURE_SPINS {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
            lsgd_trace::count(lsgd_trace::Counter::PoolPressureForced);
        }
        let boxed: Box<[f32]> = vec![0.0f32; self.dim].into_boxed_slice();
        let ptr = Box::into_raw(boxed) as *mut f32;
        // Model checker: a genuinely new region; tracked until the
        // pool retires it (eager free or pool drop).
        annotate::fresh(ptr as usize, self.buf_bytes());
        self.gauge.add(self.buf_bytes());
        self.registry.lock().insert(ptr as usize);
        ptr
    }

    /// Returns a buffer: to the free list (recycling mode) or to the heap
    /// (eager mode).
    ///
    /// # Safety
    /// `ptr` must have been produced by [`BufferPool::acquire`] on this
    /// pool and must not be accessed after release.
    pub unsafe fn release(&self, ptr: *mut f32) {
        debug_assert!(!ptr.is_null());
        // ORDERING: Relaxed — diagnostic tally; see `acquire`.
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        if self.recycle {
            // The queue's push is a release operation on the slot that
            // carries `ptr`, so this thread's final writes to the buffer
            // happen-before the next `acquire` that pops it (see the
            // module docs). The Relaxed counter above rides along: it
            // orders nothing and needs to order nothing.
            self.free.push(ptr as usize);
        } else {
            let removed = self.registry.lock().remove(&(ptr as usize));
            debug_assert!(removed, "released pointer not owned by this pool");
            // Model checker: eager mode really frees — close the region
            // so any straggling access is a use-after-free report.
            annotate::retire(ptr as usize, self.buf_bytes());
            let slice: *mut [f32] = std::ptr::slice_from_raw_parts_mut(ptr, self.dim);
            drop(Box::from_raw(slice));
            self.gauge.sub(self.buf_bytes());
        }
    }

    /// Buffers currently held by callers (not on the free list).
    pub fn outstanding(&self) -> usize {
        // ORDERING: Relaxed — diagnostic; exact only after a join.
        self.outstanding.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently outstanding buffers — the quantity
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
        // Reclaim every buffer the pool still owns, whether or not it was
        // returned — the pool outlives all users (it is dropped only after
        // the training scope joins all workers). The free list holds a
        // subset of the registry, so draining the registry frees
        // everything exactly once.
        let registry = std::mem::take(&mut *self.registry.lock());
        for addr in registry {
            let ptr = addr as *mut f32;
            // Model checker: close the region (post-join, so no recorded
            // access can be concurrent with this free).
            annotate::retire(addr, self.buf_bytes());
            // SAFETY: allocated by `acquire` via Box<[f32]> of len dim and
            // not yet freed (eager frees remove themselves from the
            // registry).
            unsafe {
                let slice: *mut [f32] = std::ptr::slice_from_raw_parts_mut(ptr, self.dim);
                drop(Box::from_raw(slice));
            }
            self.gauge.sub(self.buf_bytes());
        }
    }
}

// SAFETY: the queues store plain addresses; buffer ownership transfer is
// governed by the ParameterVector protocol (see paramvec.rs safety notes).
unsafe impl Send for BufferPool {}
// SAFETY: `&self` methods touch only the lock-free queues and atomic
// counters; the addresses they hand out are owned per the same protocol.
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
    fn no_recycle_mode_frees_eagerly() {
        let g = Arc::new(MemoryGauge::new());
        let p = BufferPool::new_with_recycling(16, Arc::clone(&g), false);
        assert!(!p.recycling());
        let a = p.acquire();
        assert_eq!(g.live(), 64);
        unsafe { p.release(a) };
        assert_eq!(g.live(), 0, "eager mode frees on release");
        let b = p.acquire();
        assert_eq!(g.total_allocs(), 2, "no reuse in eager mode");
        assert_eq!(g.pool_reuses(), 0);
        unsafe { p.release(b) };
        drop(p);
        assert_eq!(g.live(), 0);
    }

    #[test]
    fn no_recycle_drop_frees_outstanding() {
        let g = Arc::new(MemoryGauge::new());
        {
            let p = BufferPool::new_with_recycling(16, Arc::clone(&g), false);
            let _held = p.acquire();
            assert_eq!(g.live(), 64);
        }
        assert_eq!(g.live(), 0);
    }

    #[test]
    fn capped_pool_recycles_under_pressure_but_never_deadlocks() {
        let g = Arc::new(MemoryGauge::new());
        let p = BufferPool::new(32, Arc::clone(&g));
        g.set_cap(Some(2 * p.buf_bytes()));
        let a = p.acquire();
        let b = p.acquire();
        assert_eq!(g.total_allocs(), 2);
        // At the cap with a free buffer: acquire recycles instead of growing.
        unsafe { p.release(a) };
        let c = p.acquire();
        assert_eq!(c, a);
        assert_eq!(g.total_allocs(), 2, "pressure must prefer recycling");
        // At the cap with nothing free: the bounded wait expires and the
        // allocation is forced through — a stuck worker holding a buffer
        // must never be able to wedge its peers.
        let d = p.acquire();
        assert_eq!(g.total_allocs(), 3, "bounded wait, then forced alloc");
        assert!(g.live() > g.cap().unwrap(), "cap is advisory");
        unsafe {
            p.release(b);
            p.release(c);
            p.release(d);
        }
    }

    #[test]
    fn concurrent_pressure_drains_releases() {
        // One thread releases while others sit in the pressure wait: the
        // waiters should pick the freed buffers up instead of forcing.
        let g = Arc::new(MemoryGauge::new());
        let p = Arc::new(BufferPool::new(64, Arc::clone(&g)));
        g.set_cap(Some(4 * p.buf_bytes()));
        let held: Vec<*mut f32> = (0..4).map(|_| p.acquire()).collect();
        let held: Vec<usize> = held.into_iter().map(|p| p as usize).collect();
        std::thread::scope(|s| {
            {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    for addr in held {
                        std::thread::yield_now();
                        unsafe { p.release(addr as *mut f32) };
                    }
                });
            }
            for _ in 0..2 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..2 {
                        let ptr = p.acquire();
                        unsafe { p.release(ptr) };
                    }
                });
            }
        });
        assert_eq!(p.outstanding(), 0);
        // 4 initial allocations; the pressured acquires may force a few
        // more, but the wait must have absorbed most of the demand.
        assert!(g.total_allocs() <= 8, "allocs {}", g.total_allocs());
    }

    #[test]
    fn concurrent_acquire_release_is_balanced() {
        for recycle in [true, false] {
            let p = Arc::new(BufferPool::new_with_recycling(
                32,
                Arc::new(MemoryGauge::new()),
                recycle,
            ));
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
            if recycle {
                // Steady state should be dominated by reuse.
                assert!(p.gauge().pool_reuses() > p.gauge().total_allocs());
            } else {
                assert_eq!(p.gauge().pool_reuses(), 0);
                assert_eq!(p.gauge().live(), 0);
            }
        }
    }
}
