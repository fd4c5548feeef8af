//! Lock-free recycling pool of ParameterVector slots.
//!
//! Leashed-SGD takes a fresh ParameterVector for every update and relies
//! on recycling to bound memory (paper §III P2, Lemma 2). This pool
//! provides the recycling. A slot is a [`ParamVec`] header that owns its
//! θ buffer; both are allocated together on the pool's first demand and
//! freed only when the pool drops, so in steady state a publication
//! allocates nothing.
//!
//! Slots live in chunks of 64. Each chunk has one free-bit word: bit `i`
//! set means slot `i` of the chunk is free. [`acquire`](BufferPool::acquire)
//! claims the lowest set bit with a `fetch_and`; [`release`](BufferPool::release)
//! sets the bit its slot's header names with a `fetch_or`. A bit names a
//! slot, not a pointer, so there is no ABA. Only when no bit is free does
//! `acquire` allocate, under a lock that nothing on the recycle path
//! takes; every 64th allocation appends a chunk.
//!
//! Cross-thread slot reuse is data-race-free because the release's
//! `fetch_or` is a Release RMW and the claim's `fetch_and` an Acquire one
//! on the same word, so the previous owner's last writes to the buffer
//! happen-before the next owner's first writes (`tests/model_pool.rs`
//! checks exactly this, with a mutation sentinel). A reader may still
//! hold a late increment on a released slot; [`acquire`](BufferPool::acquire)
//! keeps its count (see [`paramvec`](crate::paramvec)'s safety model).
//!
//! The tallies take no shared write of their own. Outstanding slots are
//! the slot count minus the free bits. Slots are allocated only when no
//! bit is free, so the slot count is the high-water mark Lemma 2 bounds
//! (larger than the exact peak only by releases in flight). Reuses are
//! counted in each claimed slot's own header and summed on demand.

use crate::mem::MemoryGauge;
use crate::paramvec::ParamVec;
use lsgd_check::sync::{AtomicU64, Ordering};
// Deliberately std (not the lsgd_check shims): the slot and chunk
// pointers are written once, under `grow`, before any bit can name them,
// so they carry no protocol of their own, and keeping them off the model
// scheduler leaves no schedule point inside the `grow` critical section:
// a model thread is never descheduled while holding it.
use std::sync::atomic::AtomicPtr;
use std::sync::{Arc, Mutex, PoisonError};

/// Slots per chunk: one per bit of the free word.
const CHUNK: usize = 64;

/// 64 slots and the word of their free bits.
struct Chunk {
    /// Bit `i` set: slot `i` is free.
    free: AtomicU64,
    slots: [AtomicPtr<ParamVec>; CHUNK],
    /// The next chunk, appended under `grow`; null until then.
    next: AtomicPtr<Chunk>,
}

impl Chunk {
    fn new() -> Chunk {
        Chunk {
            free: AtomicU64::new(0),
            slots: std::array::from_fn(|_| AtomicPtr::default()),
            next: AtomicPtr::default(),
        }
    }

    fn next(&self) -> Option<&Chunk> {
        // SAFETY: a non-null `next` is a chunk the pool frees only in its
        // `Drop`.
        unsafe { self.next.load(Ordering::Acquire).as_ref() }
    }

    /// Claims the lowest free slot, if any.
    fn claim(&self) -> Option<*mut ParamVec> {
        // ORDERING: Relaxed — only a hint of which bit to try; the
        // `fetch_and` below is what claims, and it acquires.
        let mut free = self.free.load(Ordering::Relaxed);
        while free != 0 {
            let bit = free.trailing_zeros() as usize;
            // Acquire pairs with `release`'s Release `fetch_or` of this
            // bit: the previous owner's writes happen-before ours.
            let prev = self.free.fetch_and(!(1 << bit), Ordering::Acquire);
            if prev & (1 << bit) != 0 {
                return Some(self.slots[bit].load(Ordering::Acquire));
            }
            free = prev;
        }
        None
    }
}

/// What one or more pools did (see [`ParamStore::pool_tally`](crate::ParamStore::pool_tally)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolTally {
    /// Slots allocated: [`BufferPool::outstanding_peak`].
    pub slots: usize,
    /// Acquires served by a recycled slot: [`BufferPool::reuses`].
    pub reuses: u64,
}

/// A recycling allocator of [`ParamVec`] slots of one fixed dimension.
pub struct BufferPool {
    dim: usize,
    /// The first chunk; later ones hang off its `next`.
    chunks: Chunk,
    /// Slots allocated so far. Locked only to allocate (and to read it),
    /// never on the recycle path.
    grow: Mutex<usize>,
    gauge: Arc<MemoryGauge>,
}

impl BufferPool {
    /// Creates a recycling pool of `dim`-length slots reporting to
    /// `gauge`.
    pub fn new(dim: usize, gauge: Arc<MemoryGauge>) -> Self {
        assert!(dim > 0, "buffer dimension must be positive");
        BufferPool {
            dim,
            chunks: Chunk::new(),
            grow: Mutex::new(0),
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
        let Some(slot) = self.chunks().find_map(Chunk::claim) else {
            return self.alloc_fresh();
        };
        // SAFETY: a claimed bit names a live slot of this pool (slots are
        // freed only in `drop`), now owned by us.
        unsafe { (*slot).reuse() };
        slot
    }

    /// No-free-bit slow path: allocates a fresh slot, and a chunk for it
    /// every 64 slots.
    fn alloc_fresh(&self) -> *mut ParamVec {
        let mut slots = self.grow.lock().unwrap_or_else(PoisonError::into_inner);
        let index = *slots;
        if index > 0 && index % CHUNK == 0 {
            let chunk = Box::into_raw(Box::new(Chunk::new()));
            self.chunk(index / CHUNK - 1)
                .next
                .store(chunk, Ordering::Release);
        }
        let slot = ParamVec::alloc(self.dim, index);
        self.chunk(index / CHUNK).slots[index % CHUNK].store(slot, Ordering::Release);
        *slots += 1;
        self.gauge.add(self.buf_bytes());
        slot
    }

    fn chunk(&self, n: usize) -> &Chunk {
        self.chunks().nth(n).expect("a slot's chunk exists")
    }

    /// Returns a slot to the pool by setting its free bit.
    ///
    /// # Safety
    /// `slot` must have been produced by [`BufferPool::acquire`] on this
    /// pool, and its buffer must not be accessed after release.
    pub unsafe fn release(&self, slot: *mut ParamVec) {
        debug_assert!(!slot.is_null());
        let index = (*slot).index();
        let free = &self.chunk(index / CHUNK).free;
        let bit = 1 << (index % CHUNK);
        // Release: this owner's final writes to the buffer happen-before
        // the `fetch_and` that next claims the bit (see the module docs).
        #[cfg(not(lsgd_mutate_relaxed_free_bit))]
        free.fetch_or(bit, Ordering::Release);
        // ORDERING: deliberately wrong — this cfg exists so the model
        // checker's mutation test can prove it detects the weakened
        // handoff (see crates/core/tests/model_pool.rs).
        #[cfg(lsgd_mutate_relaxed_free_bit)]
        free.fetch_or(bit, Ordering::Relaxed);
    }

    /// Every chunk, first to last.
    fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        std::iter::successors(Some(&self.chunks), |c| c.next())
    }

    /// Every slot allocated so far.
    fn slots(&self) -> impl Iterator<Item = *mut ParamVec> + '_ {
        let slots = self.outstanding_peak();
        let all = self.chunks().flat_map(|c| &c.slots);
        all.take(slots).map(|s| s.load(Ordering::Acquire))
    }

    /// Slots currently held by callers (allocated and not free). Exact
    /// only after a join: a slot allocated and released while this reads
    /// can show as free and not yet counted.
    pub fn outstanding(&self) -> usize {
        // ORDERING: Relaxed — a diagnostic tally, exact only after a join.
        let free = self
            .chunks()
            .map(|c| c.free.load(Ordering::Relaxed).count_ones());
        self.outstanding_peak()
            .saturating_sub(free.sum::<u32>() as usize)
    }

    /// Slots allocated so far: the high-water mark of concurrently
    /// outstanding slots that Lemma 2 bounds by
    /// [`outstanding_bound`](crate::paramvec::outstanding_bound), since a
    /// slot is allocated only when none is free.
    pub fn outstanding_peak(&self) -> usize {
        *self.grow.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires served by a recycled slot. Exact only after a join.
    pub fn reuses(&self) -> u64 {
        // SAFETY: every slot lives until the pool drops.
        self.slots().map(|s| unsafe { (*s).reuses() }).sum()
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
        // after the training scope joins all workers).
        for s in self.slots() {
            // SAFETY: made by `ParamVec::alloc` in `alloc_fresh`, stored
            // once, and (post-join, `&mut self`) no longer in use.
            unsafe { ParamVec::free(s) };
            self.gauge.sub(self.buf_bytes());
        }
        let mut next = *self.chunks.next.get_mut();
        while !next.is_null() {
            // SAFETY: each appended chunk came from `Box::into_raw` in
            // `alloc_fresh` and is linked exactly once.
            let mut chunk = unsafe { Box::from_raw(next) };
            next = *chunk.next.get_mut();
        }
    }
}

// SAFETY: the chunks hold plain slot addresses and atomics; slot
// ownership transfer is governed by the free bits and the
// ParameterVector protocol (see paramvec.rs safety notes).
unsafe impl Send for BufferPool {}
// SAFETY: `&self` methods touch only atomics, the slot count under its
// lock, and the header of a slot they claimed (or, for `reuses`, an
// atomic tally in any header); the slots they hand out are owned per the
// same protocol.
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
        assert_eq!(p.reuses(), 1);
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
    fn slots_across_three_chunks_recycle_without_growth() {
        let p = pool(4);
        let mut held: Vec<_> = (0..150).map(|_| p.acquire()).collect();
        assert_eq!(p.outstanding(), 150);
        for &s in &held {
            unsafe { p.release(s) };
        }
        assert_eq!(p.outstanding(), 0);
        let mut again: Vec<_> = (0..150).map(|_| p.acquire()).collect();
        assert_eq!(
            p.outstanding_peak(),
            150,
            "re-acquiring must not grow the pool"
        );
        assert_eq!(p.gauge().total_allocs(), 150);
        assert_eq!(p.reuses(), 150);
        held.sort_unstable();
        again.sort_unstable();
        assert_eq!(again, held, "every slot comes back, each once");
        for s in again {
            unsafe { p.release(s) };
        }
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
        assert!(p.reuses() > p.gauge().total_allocs());
    }
}
