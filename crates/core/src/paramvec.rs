//! The ParameterVector data structure and the Leashed-SGD publication
//! protocol (paper Algorithms 1 and 3).
//!
//! # Protocol recap
//!
//! A global pointer `P` refers to the most recently *published*
//! [`ParamVec`]. Workers:
//!
//! 1. acquire `P` through the `latest_pointer()` retry loop
//!    ([`LeashedShared::latest`]), which increments the vector's reader
//!    count and re-checks its stale flag (paper P3);
//! 2. compute a gradient directly from the published buffer (no copy);
//! 3. run the **LAU-SPC** loop ([`LeashedShared::publish_update`]):
//!    re-acquire the latest vector, copy it into a private fresh vector,
//!    apply the gradient, and attempt to swing `P` with a single CAS
//!    (paper P1/P5). Failed CASes retry up to the persistence bound `Tp`,
//!    after which the update is abandoned (contention regulation, §IV.2);
//! 4. a replaced vector is flagged stale and reclaimed by its last reader
//!    (paper P2/P4, `safe_delete`).
//!
//! # Safety model (why the `unsafe` here is sound)
//!
//! * **Headers are never freed during a run.** Algorithm 1's
//!   `safe_delete` frees only the `theta` array; we mirror that by
//!   arena-registering every header and freeing them when the
//!   [`LeashedShared`] is dropped (strictly after all workers have
//!   joined). Consequently the CAS on `P` is ABA-free — a header address
//!   is never recycled into a *different* logical vector — and reading a
//!   header's atomics is always safe.
//! * **A buffer is dereferenced only under the read protocol.** A reader
//!   increments `n_rdrs` *before* checking `stale` (SeqCst); reclamation
//!   requires `stale ∧ n_rdrs = 0 ∧ CAS(deleted)` (SeqCst). In the SeqCst
//!   total order, a reader that observed `¬stale` after its increment is
//!   counted by any later reclamation check, so the buffer cannot be
//!   released while it is readable. Published buffers are never written
//!   (updates go to private fresh buffers), so `&[f32]` views are
//!   race-free.
//! * **Writes to a private buffer happen-before its publication.** The
//!   publishing CAS is `AcqRel`; readers load `P` with `Acquire`.

use crate::algorithm::Algorithm;
use crate::mem::GaugeHold;
use crate::pool::BufferPool;
use crate::store::{Direction, ParamStore, StepOutcome};
use lsgd_check::annotate;
use lsgd_check::sync::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use lsgd_metrics::OnlineStats;
use lsgd_sync::SegQueue;
use std::sync::Arc;

/// One ParameterVector instance: metadata header + owned `theta` buffer
/// (paper Algorithm 1).
pub struct ParamVec {
    /// Sequence number of the most recent update applied to `theta`
    /// (Algorithm 1 line 2). Published vectors are totally ordered by it.
    t: AtomicU64,
    /// Active reader count (`n_rdrs`).
    n_rdrs: AtomicU32,
    /// Set once the vector has been replaced as the global one.
    stale: AtomicBool,
    /// Set by the (single) reclaimer; guards double-free.
    deleted: AtomicBool,
    /// The parameter array; null after reclamation.
    buf: AtomicPtr<f32>,
    /// Buffer length `d`.
    dim: usize,
}

impl ParamVec {
    /// Sequence number of this vector.
    #[inline]
    pub fn seq(&self) -> u64 {
        // ORDERING: SeqCst keeps `t` in the same total order as the
        // publication CAS and stale/n_rdrs protocol it is read alongside.
        self.t.load(Ordering::SeqCst)
    }

    /// Whether this vector has been replaced (stale vectors must not be
    /// read; `latest()` retries past them).
    #[inline]
    pub fn is_stale(&self) -> bool {
        // ORDERING: SeqCst — part of the P3 read protocol's total order
        // (see `latest`); a weaker load could miss a concurrent retire.
        self.stale.load(Ordering::SeqCst)
    }

    /// Current reader count (diagnostic).
    #[inline]
    pub fn readers(&self) -> u32 {
        // ORDERING: SeqCst for consistency with the protocol's other
        // n_rdrs accesses; this getter is diagnostic only.
        self.n_rdrs.load(Ordering::SeqCst)
    }

    /// Algorithm 1 `safe_delete`: reclaim the buffer iff stale, unread and
    /// not already reclaimed.
    fn safe_delete(&self, pool: &BufferPool) {
        // ORDERING: SeqCst on stale, n_rdrs and the deleted CAS — the
        // safety argument (module docs) relies on the SeqCst total order
        // to prove a counted reader that saw ¬stale is visible to every
        // later reclamation check. Release/acquire alone does not give
        // the needed read(n_rdrs) / write(stale) ordering both ways.
        if self.stale.load(Ordering::SeqCst)
            && self.n_rdrs.load(Ordering::SeqCst) == 0
            && self
                .deleted
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            // ORDERING: SeqCst swap publishes the null and joins the
            // winning reclaimer into the total order; the deleted CAS
            // already guarantees exclusivity.
            let ptr = self.buf.swap(std::ptr::null_mut(), Ordering::SeqCst);
            debug_assert!(!ptr.is_null(), "published vector reclaimed twice");
            // SAFETY: `deleted` CAS guarantees exactly one reclaimer; the
            // stale/n_rdrs conditions guarantee no current or future
            // readers (see module-level safety model).
            unsafe { pool.release(ptr) };
        }
    }

    /// Algorithm 1 `stop_reading`: drop one reader and attempt reclaim.
    fn stop_reading(&self, pool: &BufferPool) {
        // ORDERING: SeqCst — the decrement must order after this reader's
        // buffer reads and before the safe_delete checks (its own and any
        // other thread's), which the SeqCst total order provides.
        let prev = self.n_rdrs.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "stop_reading without start_reading");
        self.safe_delete(pool);
    }

    /// Immutable view of theta.
    ///
    /// # Safety
    /// Caller must hold the read protocol (counted reader that observed
    /// `¬stale`) or exclusive pre-publication ownership.
    #[inline]
    unsafe fn theta(&self) -> &[f32] {
        // ORDERING: Acquire pairs with the Release publication of the
        // buffer pointer (pool handoff / header init) so the pointee is
        // fully initialised before we build a slice over it.
        let ptr = self.buf.load(Ordering::Acquire);
        debug_assert!(!ptr.is_null());
        // Model checker: a counted read of the whole buffer. The base
        // address keys the buffer as one object, so any write that is
        // not happens-before ordered with this read is a reported race.
        annotate::data_read(ptr as usize);
        std::slice::from_raw_parts(ptr, self.dim)
    }

    /// Mutable view of theta.
    ///
    /// # Safety
    /// Caller must have exclusive pre-publication ownership.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn theta_mut(&self) -> &mut [f32] {
        // ORDERING: Acquire — same pairing as `theta`; the writer must
        // also see the previous owner's handoff before reusing a
        // recycled buffer.
        let ptr = self.buf.load(Ordering::Acquire);
        debug_assert!(!ptr.is_null());
        // Model checker: an exclusive write to the whole buffer; races
        // with any unordered read or write are reported.
        annotate::data_write(ptr as usize);
        std::slice::from_raw_parts_mut(ptr, self.dim)
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
        // SAFETY: guard holds a counted read that observed ¬stale.
        unsafe { self.pv.theta() }
    }

    /// The vector's sequence number `t`.
    #[inline]
    pub fn seq(&self) -> u64 {
        self.pv.seq()
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

/// The shared state of a Leashed-SGD run: the global pointer `P`, the
/// buffer pool, and the header arena.
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
    /// Every header ever allocated, freed on drop (never during the run).
    ///
    /// Ordering audit (PR 2): this queue is an arena *registry*, not a
    /// publication channel — header contents reach other threads through
    /// the `AcqRel` CAS on `p`, never through this queue, so nothing
    /// here relies on the queue's push→pop release/acquire edge. Drop
    /// drains it under `&mut self`, after every worker has joined.
    headers: SegQueue<usize>,
    dim: usize,
}

// SAFETY: all cross-thread access goes through the atomic protocol
// described in the module docs; raw pointers are either owned exclusively
// (pre-publication) or read under the counted-reader protocol.
unsafe impl Send for LeashedShared {}
unsafe impl Sync for LeashedShared {}

impl LeashedShared {
    /// Creates the shared state and publishes the initial vector with the
    /// contents of `init` at sequence number 0.
    pub fn new(init: &[f32], pool: BufferPool) -> Self {
        assert_eq!(init.len(), pool.dim(), "init length must match pool dim");
        let shared = LeashedShared {
            p: AtomicPtr::new(std::ptr::null_mut()),
            pool,
            headers: SegQueue::new(),
            dim: init.len(),
        };
        let pv = shared.alloc_header();
        // SAFETY: exclusive ownership before first publication.
        unsafe { (*pv).theta_mut().copy_from_slice(init) };
        // ORDERING: Release — the initial publication; pairs with the
        // Acquire load in `latest` so workers see the initialised
        // header and buffer contents.
        shared.p.store(pv, Ordering::Release);
        shared
    }

    /// Parameter dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The buffer pool (for memory diagnostics).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Allocates a fresh ParameterVector header + buffer, registered in
    /// the header arena.
    fn alloc_header(&self) -> *mut ParamVec {
        let buf = self.pool.acquire();
        let pv = Box::into_raw(Box::new(ParamVec {
            t: AtomicU64::new(0),
            n_rdrs: AtomicU32::new(0),
            stale: AtomicBool::new(false),
            deleted: AtomicBool::new(false),
            buf: AtomicPtr::new(buf),
            dim: self.dim,
        }));
        // Model checker: register the header region so use-after-free /
        // leak tracking covers headers as well as buffers.
        annotate::fresh(pv as usize, std::mem::size_of::<ParamVec>());
        self.headers.push(pv as usize);
        pv
    }

    /// Paper Algorithm 3 `latest_pointer()`: acquire the most recent
    /// published vector under the counted-reader protocol. Lock-free: a
    /// retry implies another thread published (system-wide progress).
    pub fn latest(&self) -> ReadGuard<'_> {
        loop {
            // ORDERING: Acquire pairs with the publishing AcqRel CAS (or
            // the initial Release store) so the vector's contents
            // happen-before this reader's use of them.
            let ptr = self.p.load(Ordering::Acquire);
            // SAFETY: headers are never freed during the run.
            let pv = unsafe { &*ptr };
            // ORDERING: SeqCst increment-then-check (P3): the increment
            // must precede the stale check in the single total order the
            // reclamation proof quantifies over; see safe_delete.
            pv.n_rdrs.fetch_add(1, Ordering::SeqCst);
            // ORDERING: SeqCst — the other half of the P3 handshake.
            if !pv.stale.load(Ordering::SeqCst) {
                return ReadGuard { pv, shared: self };
            }
            // Raced with a publisher: back off this vector (possibly
            // reclaiming it) and fetch a fresher one.
            lsgd_trace::count(lsgd_trace::Counter::ReadRetry);
            pv.stop_reading(&self.pool);
        }
    }

    /// Sequence number of the currently published vector (no read guard;
    /// used for staleness bookkeeping).
    pub fn current_seq(&self) -> u64 {
        // SAFETY: headers are never freed during the run; reading the
        // sequence number of a just-replaced vector is benign (it only
        // under-estimates, exactly like the C++ original).
        // ORDERING: Acquire — same pairing as `latest`; `seq()` then
        // reads `t` inside the acquired header.
        unsafe { (*self.p.load(Ordering::Acquire)).seq() }
    }

    /// The LAU-SPC loop (paper Algorithm 3 lines 23–40): allocate a fresh
    /// vector, copy the latest published parameters into it, apply
    /// `grad` scaled by `-eta`, and publish with a CAS; retry on failure
    /// up to `persistence` times (`None` = unbounded).
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
    /// [`publish_update`], but the update step applies only the given
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
    /// the private fresh buffer, single CAS, retry up to the persistence
    /// bound. `apply` is re-invoked on every attempt (the base copy is
    /// re-taken from the then-latest vector).
    fn publish_with(
        &self,
        persistence: Option<u32>,
        mut apply: impl FnMut(&mut [f32]),
        mut on_attempt: impl FnMut(f64),
    ) -> PublishOutcome {
        let new_ptr = self.alloc_header();
        // SAFETY: exclusive ownership until published.
        let new_pv = unsafe { &*new_ptr };
        let mut failed: u32 = 0;
        let mut t_first_base: Option<u64> = None;
        loop {
            lsgd_trace::count(lsgd_trace::Counter::PublishAttempt);
            // Injection seam: an armed `stall:publish` rule widens the
            // copy→CAS window here, driving contention/retries up.
            lsgd_fault::point(lsgd_fault::Site::Publish);
            let t0 = std::time::Instant::now();
            let latest = self.latest();
            let t_base = latest.seq();
            t_first_base.get_or_insert(t_base);
            {
                // SAFETY: exclusive pre-publication ownership of new_pv;
                // counted read of latest.
                let dst = unsafe { new_pv.theta_mut() };
                dst.copy_from_slice(latest.theta());
            }
            // ORDERING: SeqCst stores to `t` on a still-private vector;
            // visibility is actually guaranteed by the publishing CAS
            // below — SeqCst here keeps every `t` access in one total
            // order so seq() comparisons never run backwards.
            new_pv.t.store(t_base, Ordering::SeqCst);
            let latest_raw = latest.raw();
            drop(latest); // stop_reading before the CAS, as in Algorithm 3
            // update(): t += 1; theta -= eta * grad  (Algorithm 1 line 15).
            // ORDERING: SeqCst — see the store above.
            new_pv.t.fetch_add(1, Ordering::SeqCst);
            {
                let dst = unsafe { new_pv.theta_mut() };
                apply(dst);
            }
            // ORDERING: AcqRel on success — Release publishes the private
            // writes to the new vector (pairs with latest()'s Acquire);
            // Acquire orders the subsequent stale/safe_delete handling of
            // the displaced vector after its publication. Acquire on
            // failure: the retry re-reads the winner's vector next loop.
            let succ = self
                .p
                .compare_exchange(
                    latest_raw,
                    new_ptr,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok();
            on_attempt(t0.elapsed().as_secs_f64());
            if succ {
                // SAFETY: header arena keeps latest_raw alive.
                let old = unsafe { &*latest_raw };
                // ORDERING: SeqCst — flags P2 retirement inside the
                // protocol's total order so no reader past its P3 check
                // can be missed by the safe_delete that follows.
                old.stale.store(true, Ordering::SeqCst);
                old.safe_delete(&self.pool);
                return PublishOutcome::Published {
                    t_new: t_base + 1,
                    t_base,
                    t_first_base: t_first_base.unwrap_or(t_base),
                    failed_cas: failed,
                };
            }
            failed += 1;
            lsgd_trace::count(lsgd_trace::Counter::PublishRetry);
            if let Some(tp) = persistence {
                if failed > tp {
                    // Abandon: recycle the never-published vector.
                    // ORDERING: SeqCst — same protocol as the success
                    // path; the vector was never shared, so this only
                    // feeds safe_delete's own checks.
                    new_pv.stale.store(true, Ordering::SeqCst);
                    new_pv.safe_delete(&self.pool);
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

impl Drop for LeashedShared {
    fn drop(&mut self) {
        // Free all headers; their buffers belong to the pool, which
        // reclaims them in its own drop.
        while let Some(addr) = self.headers.pop() {
            // Model checker: close the header's region before the free.
            annotate::retire(addr, std::mem::size_of::<ParamVec>());
            // SAFETY: allocated via Box::into_raw in alloc_header; freed
            // exactly once, and only after all users are gone (&mut self).
            unsafe { drop(Box::from_raw(addr as *mut ParamVec)) };
        }
    }
}

/// Worker state for [`LeashedShared`]: the sequence number of the last
/// read and the persistence bound `Tp`. Holds the gauge bytes for the
/// worker's gradient only — the vectors it works on come from the
/// recycling pool.
pub struct LeashedWorker {
    t0: u64,
    persistence: Option<u32>,
    _hold: GaugeHold,
}

/// Leashed-SGD as a [`ParamStore`] (Algorithm 3 thread body).
impl ParamStore for LeashedShared {
    type Worker = LeashedWorker;

    fn worker(&self, algorithm: &Algorithm) -> LeashedWorker {
        let Algorithm::Leashed { persistence } = *algorithm else {
            panic!("LeashedShared runs Algorithm::Leashed, not {algorithm}");
        };
        LeashedWorker {
            t0: 0,
            persistence,
            _hold: GaugeHold::new(Arc::clone(self.pool.gauge()), self.worker_bytes()),
        }
    }

    fn read<R>(&self, w: &mut LeashedWorker, f: impl FnOnce(&[f32]) -> R) -> R {
        let guard = self.latest();
        w.t0 = guard.seq();
        // `f` runs directly on the published memory — the zero-copy read
        // of paper P3. The guard's counted read is released on drop, also
        // when `f` unwinds.
        f(guard.theta())
    }

    fn tau_est(&self, w: &LeashedWorker) -> u64 {
        self.current_seq().saturating_sub(w.t0)
    }

    fn publish(
        &self,
        w: &mut LeashedWorker,
        direction: Direction<'_>,
        eta: f32,
        tu: &mut OnlineStats,
    ) -> StepOutcome {
        let on_attempt = |secs| tu.record(secs);
        let outcome = match direction {
            Direction::Dense(g) => self.publish_update(g, eta, w.persistence, on_attempt),
            Direction::Sparse(pairs) => {
                self.publish_update_sparse(pairs, 0, eta, w.persistence, on_attempt)
            }
        };
        match outcome {
            PublishOutcome::Published {
                t_new,
                t_first_base,
                failed_cas,
                ..
            } => StepOutcome {
                published: true,
                failed_cas,
                // τ: concurrent updates between the read (t0) and this
                // update taking effect (t_new labels position t_new-1+1).
                tau: t_new - 1 - w.t0,
                // τs: competitors that won the LAU-SPC race after this
                // update was first ready to publish (§IV.2); exactly 0 for
                // every published update when Tp = 0.
                tau_s: Some(t_new - 1 - t_first_base),
                ..StepOutcome::default()
            },
            PublishOutcome::Aborted { failed_cas } => StepOutcome {
                failed_cas,
                ..StepOutcome::default()
            },
        }
    }

    fn snapshot_into(&self, dst: &mut [f32]) {
        // The inherent method of the same name (it also returns the seq).
        LeashedShared::snapshot_into(self, dst);
    }

    fn worker_bytes(&self) -> usize {
        self.dim * std::mem::size_of::<f32>()
    }

    fn pool_outstanding_peak(&self) -> usize {
        self.pool.outstanding_peak()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemoryGauge;

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
        assert!(s.pool().gauge().pool_reuses() >= 49);
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
        // Lemma 2: at most ~2m+1 pool buffers live at once (m new_params +
        // m read-held + 1 published).
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
        assert!(
            peak <= 2 * m + 1,
            "outstanding peak {peak} exceeds Lemma-2 style bound {}",
            2 * m + 1
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
