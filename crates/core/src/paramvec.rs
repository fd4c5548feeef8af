//! The ParameterVector data structure and the Leashed-SGD publication
//! protocol (paper Algorithms 1 and 3).
//!
//! A [`LeashedShared`] is one publication domain. The trainer runs it as
//! a shard of [`ShardedShared`](crate::shard::ShardedShared): Leashed-SGD
//! is that store with one shard.
//!
//! # Protocol recap
//!
//! A global pointer `P` refers to the most recently *published*
//! [`ParamVec`]. Workers:
//!
//! 1. acquire `P` through the `latest_pointer()` retry loop
//!    ([`LeashedShared::latest`]), which increments the vector's reader
//!    count and re-checks that it is still the published one (paper P3);
//! 2. compute a gradient directly from the published buffer (no copy);
//! 3. run the **LAU-SPC** loop ([`LeashedShared::publish_update`]):
//!    re-acquire the latest vector, copy it into a private vector from
//!    the pool, apply the gradient, and attempt to swing `P` with a
//!    single CAS (paper P1/P5). Failed CASes retry up to the persistence
//!    bound `Tp`, after which the update is abandoned (contention
//!    regulation, §IV.2);
//! 4. a replaced vector is flagged stale and returned to the pool by its
//!    last reader (paper P2/P4, `safe_delete`).
//!
//! A `ParamVec` is one pool slot: a header that owns its θ buffer. The
//! pool allocates both together and frees them only when it drops, so a
//! slot goes round publish → stale → free → private → publish with
//! no allocation. The header's reader count and its `STALE` and
//! `DELETED` flags share one state word.
//!
//! # Safety model (why the `unsafe` here is sound)
//!
//! * **Slots are never freed during a run.** Every pointer ever loaded
//!   from `P` stays dereferenceable until the [`LeashedShared`] (and its
//!   pool) drops, strictly after all workers have joined, so touching a
//!   header's atomics is always memory-safe. What recycling changes is
//!   which logical vector a slot holds. Two rules make that harmless.
//! * **The CAS is ABA-free.** A publisher keeps its counted read of the
//!   base vector until after the CAS. A counted slot cannot be reclaimed,
//!   so it cannot be recycled and republished while the CAS is pending:
//!   `P` still equal to the base means no publication happened since the
//!   copy, and a successful CAS loses no update.
//! * **A late increment is harmless.** A reader that loaded `P` may
//!   increment the count only after the slot was replaced, reclaimed and
//!   claimed again by a publisher. Re-acquiring a slot clears
//!   `STALE | DELETED` with one `fetch_and` that keeps the count, so the
//!   late reader's decrement always balances. After its increment, the
//!   reader re-loads `P` and backs off unless `P` still points at the
//!   slot, so it never reads a free or private buffer. `safe_delete` is
//!   one CAS from exactly `STALE` with 0 readers to `STALE | DELETED`, so
//!   a backing-off reader cannot free a slot that is published, private
//!   or already free.
//! * **A buffer is dereferenced only under the read protocol.** Every
//!   change to a slot's state word is an RMW, so they fall in one
//!   modification order. A reclamation CAS after a reader's increment in
//!   that order sees the count and fails. One before it must have been
//!   followed by a re-acquire (else the reader sees `STALE` and backs
//!   off). The CAS that moved `P` off the slot before that reclamation
//!   happens-before the increment (its `STALE` flag heads the release
//!   sequence the increment reads from), so the reader's re-load of `P`
//!   can return the slot only from a later republication, whose writes
//!   it then acquires. Either way the buffer cannot be released while it
//!   is readable. Published buffers are never written (updates go to
//!   private slots), so `&[f32]` views are race-free.
//! * **Writes to a private buffer happen-before its publication.** The
//!   publishing CAS is `AcqRel`; readers load `P` with `Acquire`. A
//!   slot's previous owner's accesses happen-before its next owner's
//!   through the slot's free bit in the pool (the release's Release
//!   `fetch_or`, then the claim's Acquire `fetch_and`).

use crate::pool::BufferPool;
use lsgd_check::annotate;
use lsgd_check::sync::{AtomicPtr, AtomicU64, Ordering};
use std::ptr::NonNull;

/// State-word flag: the vector was replaced as the published one (or its
/// update was abandoned).
const STALE: u64 = 1 << 63;
/// State-word flag: `safe_delete` returned the slot to the pool.
const DELETED: u64 = 1 << 62;

/// One ParameterVector instance: a pool slot holding the metadata header
/// and its `theta` buffer (paper Algorithm 1).
pub struct ParamVec {
    /// Sequence number of the most recent update applied to `theta`
    /// (Algorithm 1 line 2). Published vectors are totally ordered by it.
    t: AtomicU64,
    /// Active reader count (`n_rdrs`) in the low bits, plus [`STALE`]
    /// and [`DELETED`].
    state: AtomicU64,
    /// The parameter array, owned by this slot for the pool's lifetime.
    buf: NonNull<f32>,
    /// Buffer length `d`.
    dim: usize,
    /// This slot's index in its pool, which names its free bit.
    index: usize,
    /// Times the pool handed this slot out again. Deliberately std: a
    /// diagnostic tally written only by the slot's current owner.
    reuses: std::sync::atomic::AtomicU64,
}

// SAFETY: `t`, `state` and `reuses` are atomics, and `dim` and `index`
// never change. `buf` is
// the only raw field: the pool owns the allocation and frees it only on
// drop, and the buffer is written only by the slot's private owner and
// read only under the counted-reader protocol (module docs), so sending
// or sharing a header across threads races on nothing.
unsafe impl Send for ParamVec {}
// SAFETY: as for `Send`: every `&self` access to `buf` follows the
// counted-reader protocol.
unsafe impl Sync for ParamVec {}

impl ParamVec {
    /// Allocates slot `index` of a pool: a header and its zeroed
    /// `dim`-length buffer.
    pub(crate) fn alloc(dim: usize, index: usize) -> *mut ParamVec {
        let buf: Box<[f32]> = vec![0.0f32; dim].into_boxed_slice();
        let buf = NonNull::new(Box::into_raw(buf) as *mut f32).expect("Box is non-null");
        let slot = Box::into_raw(Box::new(ParamVec {
            t: AtomicU64::new(0),
            state: AtomicU64::new(0),
            buf,
            dim,
            index,
            reuses: Default::default(),
        }));
        // Model checker: both regions are tracked until the pool frees
        // the slot, so any access after that is a use-after-free report.
        annotate::fresh(buf.as_ptr() as usize, dim * std::mem::size_of::<f32>());
        annotate::fresh(slot as usize, std::mem::size_of::<ParamVec>());
        slot
    }

    /// Frees a slot made by [`alloc`](Self::alloc).
    ///
    /// # Safety
    /// `slot` came from `alloc`, is freed once, and has no other user.
    pub(crate) unsafe fn free(slot: *mut ParamVec) {
        let pv = Box::from_raw(slot);
        annotate::retire(slot as usize, std::mem::size_of::<ParamVec>());
        annotate::retire(
            pv.buf.as_ptr() as usize,
            pv.dim * std::mem::size_of::<f32>(),
        );
        drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
            pv.buf.as_ptr(),
            pv.dim,
        )));
    }

    /// Makes a slot the pool just claimed usable again: clears
    /// `STALE | DELETED` and keeps the count of any late reader, whose
    /// own decrement will balance it. Counts the reuse.
    pub(crate) fn reuse(&self) {
        // ORDERING: SeqCst — in the same total order as the late
        // readers' increments and `latest`'s re-load of `P`, which the
        // module's safety argument quantifies over.
        self.state.fetch_and(!(STALE | DELETED), Ordering::SeqCst);
        // ORDERING: Relaxed — single-writer tally: successive owners are
        // ordered by the free bit's release/acquire handoff, and readers
        // sum it only after a join.
        let n = self.reuses.load(Ordering::Relaxed);
        // ORDERING: Relaxed — same single-writer argument as the load.
        self.reuses.store(n + 1, Ordering::Relaxed);
    }

    /// This slot's index in its pool.
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Times the pool handed this slot out again.
    pub(crate) fn reuses(&self) -> u64 {
        // ORDERING: Relaxed — diagnostic; exact only after a join.
        self.reuses.load(Ordering::Relaxed)
    }

    /// Sequence number of this vector.
    #[inline]
    pub fn seq(&self) -> u64 {
        // ORDERING: SeqCst keeps `t` in the same total order as the
        // publication CAS and the state-word protocol it is read alongside.
        self.t.load(Ordering::SeqCst)
    }

    /// Algorithm 1 `safe_delete`: `state` is the word the caller's own
    /// RMW just produced. Only a caller that left it at exactly `STALE`
    /// (no readers, not yet reclaimed) tries to reclaim, and the CAS to
    /// `STALE | DELETED` lets only one of them win.
    fn safe_delete(&self, state: u64, pool: &BufferPool) {
        // ORDERING: SeqCst — the safety argument (module docs) relies on
        // the SeqCst total order to prove a counted reader that saw `P`
        // still on this slot is visible to every later reclamation CAS.
        if state == STALE
            && self
                .state
                .compare_exchange(STALE, STALE | DELETED, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            // SAFETY: the CAS makes this thread the only reclaimer, and
            // stale with no readers means no current or future reader
            // (see the module-level safety model).
            unsafe { pool.release(self as *const ParamVec as *mut ParamVec) };
        }
    }

    /// Flags the vector stale (P2 retirement, or an abandoned update) and
    /// reclaims it if no reader holds it.
    fn mark_stale(&self, pool: &BufferPool) {
        // ORDERING: SeqCst — flags retirement inside the protocol's total
        // order so no reader past its P3 check is missed by safe_delete.
        let state = self.state.fetch_or(STALE, Ordering::SeqCst) | STALE;
        self.safe_delete(state, pool);
    }

    /// Algorithm 1 `stop_reading`: drop one reader and attempt reclaim.
    fn stop_reading(&self, pool: &BufferPool) {
        // ORDERING: SeqCst — the decrement must order after this reader's
        // buffer reads and before the reclamation CAS (its own or any
        // other thread's), which the SeqCst total order provides.
        let prev = self.state.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(
            (prev & !(STALE | DELETED)) > 0,
            "stop_reading without start_reading"
        );
        self.safe_delete(prev - 1, pool);
    }

    /// Immutable view of theta.
    ///
    /// # Safety
    /// Caller must hold the read protocol (a counted reader that saw `P`
    /// still on this slot) or exclusive pre-publication ownership.
    #[inline]
    unsafe fn theta(&self) -> &[f32] {
        // Model checker: a counted read of the whole buffer. The base
        // address keys the buffer as one object, so any write that is
        // not happens-before ordered with this read is a reported race.
        annotate::data_read(self.buf.as_ptr() as usize);
        std::slice::from_raw_parts(self.buf.as_ptr(), self.dim)
    }

    /// Mutable view of theta.
    ///
    /// # Safety
    /// Caller must have exclusive pre-publication ownership.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn theta_mut(&self) -> &mut [f32] {
        // Model checker: an exclusive write to the whole buffer; races
        // with any unordered read or write are reported.
        annotate::data_write(self.buf.as_ptr() as usize);
        std::slice::from_raw_parts_mut(self.buf.as_ptr(), self.dim)
    }
}

/// RAII guard for a counted read of the latest published vector.
pub struct ReadGuard<'a> {
    pv: &'a ParamVec,
    shared: &'a LeashedShared,
}

impl<'a> ReadGuard<'a> {
    /// The parameter values (valid for the guard's lifetime).
    #[inline]
    pub fn theta(&self) -> &[f32] {
        // SAFETY: guard holds a counted read that saw `P` on its slot.
        unsafe { self.pv.theta() }
    }

    /// The vector's sequence number `t`.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.pv.seq()
    }

    /// Whether this vector is still the published one. The guard keeps
    /// its slot from being recycled, so `true` means no publication
    /// since the read.
    pub(crate) fn is_latest(&self) -> bool {
        // ORDERING: SeqCst — a double-collect validation read, kept after
        // every shard's acquisition (its SeqCst increment and re-load of
        // `P`) in the single total order.
        self.shared.p.load(Ordering::SeqCst) == self.raw()
    }

    fn raw(&self) -> *mut ParamVec {
        self.pv as *const ParamVec as *mut ParamVec
    }
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        self.pv.stop_reading(&self.shared.pool);
    }
}

/// Outcome of one LAU-SPC publication attempt sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOutcome {
    /// CAS succeeded. `t_new` is the published sequence number; `t_base`
    /// the sequence number of the vector the update was applied to;
    /// `failed_cas` the number of lost races along the way.
    Published {
        /// Sequence number of the newly published vector.
        t_new: u64,
        /// Sequence number of the base vector the gradient was applied to.
        t_base: u64,
        /// Sequence number of the base vector of the *first* attempt — the
        /// reference point for the scheduling staleness `τs` of §IV.2
        /// (`τs = t_new - 1 - t_first_base`): competitors that won the
        /// LAU-SPC race after this update was first ready to publish.
        t_first_base: u64,
        /// CAS failures before success.
        failed_cas: u32,
    },
    /// The persistence bound was exceeded; the update was abandoned and
    /// its memory recycled (paper Algorithm 3 lines 36–39).
    Aborted {
        /// CAS failures (= `Tp + 1`).
        failed_cas: u32,
    },
}

/// Lemma 2's bound on the pool slots one [`LeashedShared`] has
/// outstanding at once, with `workers` publishing threads and `readers`
/// threads that only read.
///
/// One slot is the published vector. A publishing worker holds at most
/// two more: the private vector of its LAU-SPC attempt, and one counted
/// read — the gradient read, or the copy-latest read inside an attempt,
/// held until after its CAS, never both — which can pin a vector that
/// has since been replaced. A pure reader pins at most one vector.
/// Hence `2·workers + 1 + readers`: `2m+1` for m bare workers, and
/// `2m+2` under `train`, whose convergence monitor is one reader
/// ([`LeashedShared::snapshot_into`] holds its guard for the whole copy).
pub const fn outstanding_bound(workers: usize, readers: usize) -> usize {
    2 * workers + 1 + readers
}

/// The shared state of a Leashed-SGD run: the global pointer `P` and the
/// pool of ParameterVector slots.
///
/// ```
/// use lsgd_core::paramvec::{LeashedShared, PublishOutcome};
/// use lsgd_core::pool::BufferPool;
/// use lsgd_core::mem::MemoryGauge;
/// use std::sync::Arc;
///
/// let pool = BufferPool::new(4, Arc::new(MemoryGauge::new()));
/// let shared = LeashedShared::new(&[1.0; 4], pool);
///
/// // A counted, consistent read (paper Algorithm 3, latest_pointer()):
/// assert_eq!(shared.latest().theta(), &[1.0; 4]);
///
/// // One LAU-SPC publication: theta -= eta * grad, one CAS.
/// let out = shared.publish_update(&[1.0; 4], 0.5, None, |_| {});
/// assert!(matches!(out, PublishOutcome::Published { t_new: 1, .. }));
/// assert_eq!(shared.latest().theta(), &[0.5; 4]);
/// ```
pub struct LeashedShared {
    p: AtomicPtr<ParamVec>,
    pool: BufferPool,
    dim: usize,
}

impl LeashedShared {
    /// Creates the shared state and publishes the initial vector with the
    /// contents of `init` at sequence number 0.
    pub fn new(init: &[f32], pool: BufferPool) -> Self {
        assert_eq!(init.len(), pool.dim(), "init length must match pool dim");
        let pv = pool.acquire();
        // SAFETY: exclusive ownership before first publication.
        unsafe { (*pv).theta_mut().copy_from_slice(init) };
        LeashedShared {
            // Moving `self` to the workers orders the initial contents
            // before their first read.
            p: AtomicPtr::new(pv),
            pool,
            dim: init.len(),
        }
    }

    /// Parameter dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The slot pool (for memory diagnostics).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Paper Algorithm 3 `latest_pointer()`: acquire the most recent
    /// published vector under the counted-reader protocol. Lock-free: a
    /// retry implies another thread published (system-wide progress).
    pub fn latest(&self) -> ReadGuard<'_> {
        loop {
            // ORDERING: Acquire pairs with the publishing AcqRel CAS so
            // the vector's contents happen-before this reader's use.
            let ptr = self.p.load(Ordering::Acquire);
            // SAFETY: slots are never freed while the pool lives.
            let pv = unsafe { &*ptr };
            // ORDERING: SeqCst increment-then-check (P3): the increment
            // must precede the re-load of `P` in the single total order
            // the reclamation proof quantifies over; see safe_delete.
            let was = pv.state.fetch_add(1, Ordering::SeqCst);
            // The slot may have been recycled between the load and the
            // increment; only a slot `P` still points at is readable.
            // ORDERING: SeqCst — the other half of the P3 handshake.
            #[cfg(not(lsgd_mutate_skip_root_check))]
            let current = self.p.load(Ordering::SeqCst) == ptr;
            // Mutation sentinel: trust the increment alone, so a late
            // reader can read a recycled private slot;
            // `model_paramvec.rs`'s `skipped_root_check_is_caught` must
            // report it.
            #[cfg(lsgd_mutate_skip_root_check)]
            let current = true;
            if was & STALE == 0 && current {
                return ReadGuard { pv, shared: self };
            }
            // Raced with a publisher: back off this vector (possibly
            // reclaiming it) and fetch a fresher one.
            lsgd_trace::count(lsgd_trace::Counter::ReadRetry);
            pv.stop_reading(&self.pool);
        }
    }

    /// Sequence number of the currently published vector.
    pub fn current_seq(&self) -> u64 {
        self.latest().seq()
    }

    /// The LAU-SPC loop (paper Algorithm 3 lines 23–40): take a private
    /// vector from the pool, copy the latest published parameters into
    /// it, apply `grad` scaled by `-eta`, and publish with a CAS; retry on
    /// failure up to `persistence` times (`None` = unbounded).
    ///
    /// `on_attempt` is invoked once per attempt with the attempt's
    /// duration in seconds — the quantity the paper reports as `Tu`.
    pub fn publish_update(
        &self,
        grad: &[f32],
        eta: f32,
        persistence: Option<u32>,
        on_attempt: impl FnMut(f64),
    ) -> PublishOutcome {
        assert_eq!(grad.len(), self.dim, "gradient length");
        lsgd_trace::count(lsgd_trace::Counter::PublishDense);
        self.publish_with(
            persistence,
            |dst| lsgd_tensor::ops::sgd_step(dst, grad, eta),
            on_attempt,
        )
    }

    /// Sparse LAU-SPC publication: identical protocol to
    /// [`publish_update`](Self::publish_update), but the update step applies only the given
    /// `(index, value)` pairs (`theta[i - offset] -= eta * v`) instead of
    /// a dense axpy, so the per-attempt cost is the O(d') base copy plus
    /// O(k) for k pairs rather than O(d') + O(d'). `offset` lets a sharded
    /// caller pass global coordinate indices for a shard that owns the
    /// range `[offset, offset + dim)` without rewriting the pair list.
    ///
    /// # Panics
    /// Panics (debug) if any `index - offset` falls outside `0..dim`.
    pub fn publish_update_sparse(
        &self,
        pairs: &[(u32, f32)],
        offset: u32,
        eta: f32,
        persistence: Option<u32>,
        on_attempt: impl FnMut(f64),
    ) -> PublishOutcome {
        debug_assert!(pairs
            .iter()
            .all(|&(i, _)| (i >= offset) && ((i - offset) as usize) < self.dim));
        lsgd_trace::count(lsgd_trace::Counter::PublishSparse);
        self.publish_with(
            persistence,
            |dst| {
                for &(i, v) in pairs {
                    dst[(i - offset) as usize] -= eta * v;
                }
            },
            on_attempt,
        )
    }

    /// The shared LAU-SPC attempt loop: copy-latest, `apply` the update to
    /// the private vector, single CAS, retry up to the persistence bound.
    /// `apply` is re-invoked on every attempt (the base copy is re-taken
    /// from the then-latest vector).
    fn publish_with(
        &self,
        persistence: Option<u32>,
        mut apply: impl FnMut(&mut [f32]),
        mut on_attempt: impl FnMut(f64),
    ) -> PublishOutcome {
        let new_ptr = self.pool.acquire();
        // SAFETY: slots outlive the run; this one is private until the
        // CAS below publishes it.
        let new_pv = unsafe { &*new_ptr };
        let mut failed: u32 = 0;
        let mut t_first_base: Option<u64> = None;
        loop {
            lsgd_trace::count(lsgd_trace::Counter::PublishAttempt);
            // Injection seam: an armed `stall:publish` rule widens the
            // copy→CAS window here, driving contention/retries up.
            lsgd_fault::point(lsgd_fault::Site::Publish);
            let t0 = std::time::Instant::now();
            // Counted until after the CAS, so the base slot cannot be
            // recycled and republished in between (see the safety model).
            let base = self.latest();
            let t_base = base.seq();
            t_first_base.get_or_insert(t_base);
            {
                // SAFETY: new_pv is still private: the publishing CAS
                // below has not run, and a failed CAS loops back here
                // with it still private. `base` is a counted read.
                let dst = unsafe { new_pv.theta_mut() };
                dst.copy_from_slice(base.theta());
                // update(): theta -= eta * grad (Algorithm 1 line 15).
                apply(dst);
            }
            // update(): t += 1.
            // ORDERING: SeqCst on a still-private vector; the publishing
            // CAS below makes it visible, SeqCst keeps every `t` access
            // in one total order.
            new_pv.t.store(t_base + 1, Ordering::SeqCst);
            // ORDERING: AcqRel on success — Release publishes the private
            // writes to the new vector (pairs with latest()'s Acquire);
            // Acquire orders the retirement of the displaced vector after
            // its publication. Acquire on failure: the retry re-reads the
            // winner's vector next loop.
            let succ = self
                .p
                .compare_exchange(base.raw(), new_ptr, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
            on_attempt(t0.elapsed().as_secs_f64());
            if succ {
                // P2: the replaced vector goes stale; the last reader,
                // perhaps this guard's drop, returns it to the pool.
                base.pv.mark_stale(&self.pool);
                drop(base);
                return PublishOutcome::Published {
                    t_new: t_base + 1,
                    t_base,
                    t_first_base: t_first_base.unwrap_or(t_base),
                    failed_cas: failed,
                };
            }
            drop(base);
            failed += 1;
            lsgd_trace::count(lsgd_trace::Counter::PublishRetry);
            if let Some(tp) = persistence {
                if failed > tp {
                    // Abandon: recycle the never-published vector.
                    new_pv.mark_stale(&self.pool);
                    lsgd_trace::count(lsgd_trace::Counter::PublishAbort);
                    return PublishOutcome::Aborted { failed_cas: failed };
                }
            }
        }
    }

    /// Copies the current published parameters into `dst` (used by the
    /// convergence monitor).
    pub fn snapshot_into(&self, dst: &mut [f32]) -> u64 {
        let guard = self.latest();
        dst.copy_from_slice(guard.theta());
        guard.seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemoryGauge;
    use lsgd_check::sync::AtomicBool;
    use std::sync::Arc;

    fn shared(dim: usize, init: f32) -> LeashedShared {
        let pool = BufferPool::new(dim, Arc::new(MemoryGauge::new()));
        LeashedShared::new(&vec![init; dim], pool)
    }

    #[test]
    fn initial_vector_is_readable() {
        let s = shared(8, 1.5);
        let g = s.latest();
        assert_eq!(g.seq(), 0);
        assert!(g.theta().iter().all(|&v| v == 1.5));
    }

    #[test]
    fn publish_applies_sgd_step() {
        let s = shared(4, 1.0);
        let grad = vec![1.0, 2.0, 3.0, 4.0];
        let out = s.publish_update(&grad, 0.5, None, |_| {});
        match out {
            PublishOutcome::Published {
                t_new,
                t_base,
                t_first_base,
                failed_cas,
            } => {
                assert_eq!(t_new, 1);
                assert_eq!(t_base, 0);
                assert_eq!(t_first_base, 0);
                assert_eq!(failed_cas, 0);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        let g = s.latest();
        assert_eq!(g.seq(), 1);
        assert_eq!(g.theta(), &[0.5, 0.0, -0.5, -1.0]);
    }

    #[test]
    fn sparse_publish_matches_dense_equivalent() {
        let dense = shared(6, 1.0);
        let sparse = shared(6, 1.0);
        let grad = vec![0.0, 2.0, 0.0, 0.0, -4.0, 0.0];
        dense.publish_update(&grad, 0.5, None, |_| {});
        let out = sparse.publish_update_sparse(&[(1, 2.0), (4, -4.0)], 0, 0.5, None, |_| {});
        assert!(matches!(out, PublishOutcome::Published { t_new: 1, .. }));
        assert_eq!(dense.latest().theta(), sparse.latest().theta());
        assert_eq!(sparse.latest().theta(), &[1.0, 0.0, 1.0, 1.0, 3.0, 1.0]);
    }

    #[test]
    fn sparse_publish_offset_rebases_indices() {
        let s = shared(4, 0.0);
        // Global indices 10..14 belong to a shard whose range starts at 10.
        s.publish_update_sparse(&[(10, 1.0), (13, 2.0)], 10, 1.0, None, |_| {});
        assert_eq!(s.latest().theta(), &[-1.0, 0.0, 0.0, -2.0]);
    }

    #[test]
    fn sequence_numbers_are_dense_and_monotone() {
        let s = shared(2, 0.0);
        for i in 1..=10u64 {
            let out = s.publish_update(&[0.1, 0.1], 0.1, None, |_| {});
            assert!(matches!(out, PublishOutcome::Published { t_new, .. } if t_new == i));
        }
        assert_eq!(s.current_seq(), 10);
    }

    #[test]
    fn replaced_vector_is_reclaimed_when_unread() {
        let s = shared(16, 0.0);
        for _ in 0..50 {
            s.publish_update(&[0.0; 16], 0.1, None, |_| {});
        }
        // Single-threaded: only the published vector should remain
        // outstanding (plus nothing else).
        assert_eq!(s.pool().outstanding(), 1);
        // Steady state must recycle rather than allocate.
        assert!(s.pool().reuses() >= 49);
    }

    #[test]
    fn reader_prevents_reclamation_until_dropped() {
        let s = shared(4, 7.0);
        let g = s.latest();
        s.publish_update(&[1.0; 4], 1.0, None, |_| {});
        // The old vector is stale but still held by `g`.
        assert_eq!(s.pool().outstanding(), 2);
        assert_eq!(g.theta(), &[7.0; 4], "guarded contents stay intact");
        drop(g);
        assert_eq!(s.pool().outstanding(), 1, "last reader reclaims");
    }

    #[test]
    fn monitor_snapshot_matches_latest() {
        let s = shared(3, 2.0);
        s.publish_update(&[1.0, 1.0, 1.0], 1.0, None, |_| {});
        let mut buf = vec![0.0; 3];
        let seq = s.snapshot_into(&mut buf);
        assert_eq!(seq, 1);
        assert_eq!(buf, vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn attempt_callback_fires_once_per_attempt() {
        let s = shared(4, 0.0);
        let mut calls = 0;
        s.publish_update(&[0.0; 4], 0.1, Some(3), |_| calls += 1);
        assert_eq!(calls, 1, "uncontended publish takes one attempt");
    }

    #[test]
    fn concurrent_publishes_keep_sequence_dense() {
        // The core consistency property (paper P1): published vectors are
        // totally ordered with dense sequence numbers — no update is ever
        // half-applied or lost once its CAS succeeds.
        let s = Arc::new(shared(64, 0.0));
        let per_thread = 200u64;
        let threads = 4u64;
        std::thread::scope(|sc| {
            for tid in 0..threads {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    let grad = vec![tid as f32 * 0.01; 64];
                    for _ in 0..per_thread {
                        let out = s.publish_update(&grad, 0.001, None, |_| {});
                        assert!(matches!(out, PublishOutcome::Published { .. }));
                    }
                });
            }
        });
        assert_eq!(s.current_seq(), per_thread * threads);
        assert_eq!(s.pool().outstanding(), 1);
    }

    #[test]
    fn persistence_zero_aborts_under_contention() {
        // With Tp = 0 and heavy contention, some updates must abort; all
        // published ones had zero failed CASes.
        let s = Arc::new(shared(256, 0.0));
        let mut any_aborts = false;
        std::thread::scope(|sc| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                let s = Arc::clone(&s);
                handles.push(sc.spawn(move || {
                    let grad = vec![0.01; 256];
                    let mut aborted = 0u64;
                    let mut published = 0u64;
                    for _ in 0..300 {
                        match s.publish_update(&grad, 0.001, Some(0), |_| {}) {
                            PublishOutcome::Published { failed_cas, .. } => {
                                assert_eq!(failed_cas, 0);
                                published += 1;
                            }
                            PublishOutcome::Aborted { failed_cas } => {
                                assert_eq!(failed_cas, 1);
                                aborted += 1;
                            }
                        }
                    }
                    (published, aborted)
                }));
            }
            let mut total_published = 0;
            for h in handles {
                let (p, a) = h.join().unwrap();
                total_published += p;
                any_aborts |= a > 0;
            }
            assert_eq!(s.current_seq(), total_published);
        });
        // On a multicore box contention is virtually guaranteed, but do
        // not hard-fail on a machine that happens to serialise perfectly.
        if !any_aborts {
            eprintln!("warning: no aborts observed; contention too low to exercise Tp=0");
        }
    }

    #[test]
    fn memory_stays_bounded_under_concurrency() {
        let m = 4usize;
        let s = Arc::new(shared(32, 0.0));
        std::thread::scope(|sc| {
            for _ in 0..m {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    let grad = vec![0.5; 32];
                    for _ in 0..500 {
                        let g = s.latest();
                        let _sum: f32 = g.theta().iter().sum();
                        drop(g);
                        s.publish_update(&grad, 0.001, Some(2), |_| {});
                    }
                });
            }
        });
        let peak = s.pool().outstanding_peak();
        let bound = outstanding_bound(m, 0);
        assert!(
            peak <= bound,
            "outstanding peak {peak} exceeds Lemma 2's {bound}"
        );
    }

    #[test]
    fn readers_see_consistent_snapshots_during_publishes() {
        // Consistency: every read sees a vector where *all* components
        // carry the same number of applied updates (no torn/mixed state),
        // because updates happen on private copies. We encode the update
        // count in every component.
        let s = Arc::new(shared(128, 0.0));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|sc| {
            let writer = {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                sc.spawn(move || {
                    let grad = vec![-1.0; 128]; // eta 1.0 → +1 per component
                    let mut n = 0u64;
                    // ORDERING: Relaxed — a test stop flag; it carries no
                    // data, only "eventually observe true".
                    while !stop.load(Ordering::Relaxed) {
                        s.publish_update(&grad, 1.0, None, |_| {});
                        n += 1;
                    }
                    n
                })
            };
            for _ in 0..2 {
                let s = Arc::clone(&s);
                sc.spawn(move || {
                    for _ in 0..2000 {
                        let g = s.latest();
                        let th = g.theta();
                        let first = th[0];
                        assert!(
                            th.iter().all(|&v| v == first),
                            "torn read: mixed update counts in one vector"
                        );
                        assert_eq!(first as u64, g.seq(), "contents match seq");
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            // ORDERING: Relaxed — see the paired load above.
            stop.store(true, Ordering::Relaxed);
            let _ = writer.join();
        });
    }
}
