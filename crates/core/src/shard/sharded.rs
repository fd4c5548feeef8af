//! [`ShardedShared`]: S independent LAU-SPC publication domains over one
//! logical parameter vector.

use super::snapshot::{ShardedSnapshot, SnapshotMode};
use crate::algorithm::Algorithm;
use crate::mem::{GaugeHold, MemoryGauge};
use crate::paramvec::{LeashedShared, PublishOutcome};
use crate::pool::BufferPool;
use crate::store::{Direction, ParamStore, StepOutcome};
use lsgd_metrics::OnlineStats;
use std::sync::Arc;

/// Aggregate outcome of one multi-shard publication: how many shards the
/// update touched, how each fared, and the worst-case staleness observed
/// across the published shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedPublish {
    /// Shards with nonzero gradient mass (the only ones copied + CASed).
    pub dirty: u32,
    /// Dirty shards whose CAS eventually succeeded.
    pub published: u32,
    /// Dirty shards abandoned via the persistence bound.
    pub aborted: u32,
    /// Total failed CAS attempts across all shards.
    pub failed_cas: u32,
    /// Max over published shards of `t_new - 1 - base_seq` — total
    /// staleness τ against the caller's read (0 when no `base_seqs` were
    /// supplied).
    pub tau_max: u64,
    /// Max over published shards of `t_new - 1 - t_first_base` —
    /// scheduling staleness τs (§IV.2), per shard.
    pub tau_s_max: u64,
}

impl ShardedPublish {
    fn absorb(&mut self, outcome: PublishOutcome, base_seq: Option<u64>) {
        self.dirty += 1;
        match outcome {
            PublishOutcome::Published {
                t_new,
                t_first_base,
                failed_cas,
                ..
            } => {
                self.published += 1;
                self.failed_cas += failed_cas;
                if let Some(b) = base_seq {
                    self.tau_max = self.tau_max.max(t_new - 1 - b.min(t_new - 1));
                }
                self.tau_s_max = self.tau_s_max.max(t_new - 1 - t_first_base);
            }
            PublishOutcome::Aborted { failed_cas } => {
                self.aborted += 1;
                self.failed_cas += failed_cas;
            }
        }
    }
}

/// The sharded ParameterVector: the logical dimension `d` is split into
/// fixed-width shards (`width = ceil(d / S)`, the last shard possibly
/// narrower), each an independent [`LeashedShared`] publication domain
/// with its own sequence number, head pointer, and recycling pool. See
/// the [module docs](super) for the protocol and consistency model.
pub struct ShardedShared {
    shards: Vec<LeashedShared>,
    dim: usize,
    width: usize,
}

impl ShardedShared {
    /// Creates `min(num_shards, d)` shard domains (at least 1) publishing
    /// the contents of `init` at per-shard sequence number 0. All shard
    /// pools report to the same `gauge`.
    ///
    /// # Panics
    /// Panics if `recycle` is `false`, as
    /// [`BufferPool::new_with_recycling`] does: slot pools always recycle.
    pub fn new(init: &[f32], num_shards: usize, gauge: Arc<MemoryGauge>, recycle: bool) -> Self {
        let dim = init.len();
        assert!(dim > 0, "parameter dimension must be positive");
        let s = num_shards.clamp(1, dim);
        let width = dim.div_ceil(s);
        let count = dim.div_ceil(width);
        let shards = (0..count)
            .map(|i| {
                let lo = i * width;
                let hi = (lo + width).min(dim);
                let pool = BufferPool::new_with_recycling(hi - lo, Arc::clone(&gauge), recycle);
                LeashedShared::new(&init[lo..hi], pool)
            })
            .collect();
        ShardedShared { shards, dim, width }
    }

    /// Logical parameter dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shard domains `S`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Width of every shard but (possibly) the last.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The coordinate range `[lo, hi)` owned by shard `s`.
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        let lo = s * self.width;
        (lo, (lo + self.width).min(self.dim))
    }

    /// The shard owning coordinate `idx`.
    #[inline]
    pub fn shard_of(&self, idx: usize) -> usize {
        idx / self.width
    }

    /// Direct access to one shard domain (tests).
    pub fn shard(&self, s: usize) -> &LeashedShared {
        &self.shards[s]
    }

    /// The memory gauge all shard pools report to.
    pub fn gauge(&self) -> &Arc<MemoryGauge> {
        self.shards[0].pool().gauge()
    }

    /// Sum of the per-shard pool high-water marks — an upper bound on the
    /// concurrently outstanding buffers across the whole vector (the
    /// per-shard peaks need not coincide in time).
    pub fn pool_outstanding_peak(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.pool().outstanding_peak())
            .sum()
    }

    /// Acquires a multi-shard read. `Fast` performs one counted read per
    /// shard; `Consistent` runs the double-collect validation loop,
    /// **degrading** after `max_retries` failed validations: the stale
    /// guards are dropped and one fresh per-shard Fast read is returned,
    /// flagged inconsistent and [degraded](ShardedSnapshot::is_degraded)
    /// — pass `u32::MAX` for an effectively unbounded, lock-free retry
    /// loop.
    pub fn snapshot(&self, mode: SnapshotMode, max_retries: u32) -> ShardedSnapshot<'_> {
        let s = self.shards.len();
        let mut retries = 0u32;
        // Allocated once; retries clear and refill (dropping a guard runs
        // its stop_reading, so clearing also releases the counted reads).
        let mut guards = Vec::with_capacity(s);
        let mut seqs = Vec::with_capacity(s);
        loop {
            // Injection seam: an armed `stall:snapshot` rule widens the
            // collect/validate window here, forcing validation failures.
            lsgd_fault::point(lsgd_fault::Site::SnapshotValidate);
            for shard in &self.shards {
                let g = shard.latest();
                seqs.push(g.seq());
                guards.push(g);
            }
            // A single shard is trivially consistent; Fast mode skips
            // validation entirely.
            if s == 1 || mode == SnapshotMode::Fast {
                return ShardedSnapshot {
                    guards,
                    seqs,
                    consistent: s == 1,
                    degraded: false,
                    retries,
                };
            }
            // Second collect: every shard's `P` still on the slot its
            // guard pins (which the guard keeps from being recycled) ⇒ no
            // shard published between the last acquisition and the first
            // validation read ⇒ linearizable.
            let valid = guards.iter().all(|g| g.is_latest());
            if valid {
                return ShardedSnapshot {
                    guards,
                    seqs,
                    consistent: true,
                    degraded: false,
                    retries,
                };
            }
            if retries >= max_retries {
                // Graceful degradation: under sustained publish pressure
                // the validated point may never arrive. Drop the stale
                // acquisition (releasing its counted reads — holding old
                // guards would pin reclamation) and take one fresh Fast
                // collect, so the caller proceeds on the newest per-shard
                // values instead of spinning or computing on an old view.
                lsgd_trace::count(lsgd_trace::Counter::SnapshotDegraded);
                guards.clear();
                seqs.clear();
                for shard in &self.shards {
                    let g = shard.latest();
                    seqs.push(g.seq());
                    guards.push(g);
                }
                return ShardedSnapshot {
                    guards,
                    seqs,
                    consistent: false,
                    degraded: true,
                    retries,
                };
            }
            retries += 1;
            lsgd_trace::count(lsgd_trace::Counter::SnapshotRetry);
            guards.clear();
            seqs.clear();
        }
    }

    /// Copies a consistent (best-effort, bounded-retry) view of the full
    /// parameter vector into `dst`; returns the view's total sequence
    /// number. Used by the convergence monitor. One shard is copied
    /// straight from its published buffer, without [`snapshot`](Self::snapshot).
    pub fn snapshot_into(&self, dst: &mut [f32]) -> u64 {
        if let [shard] = self.shards.as_slice() {
            return shard.snapshot_into(dst);
        }
        let snap = self.snapshot(SnapshotMode::Consistent, 8);
        snap.gather_into(dst);
        snap.total_seq()
    }

    /// Publishes a dense gradient, copying and CASing **only the shards
    /// with nonzero gradient mass** (`grad.len()` must equal `d`).
    /// `base_seqs`, when given, is the per-shard sequence vector of the
    /// read this gradient was computed from (for the τ statistic);
    /// `on_attempt` fires once per per-shard CAS attempt with its
    /// duration in seconds.
    pub fn publish_dense(
        &self,
        grad: &[f32],
        eta: f32,
        persistence: Option<u32>,
        base_seqs: Option<&[u64]>,
        mut on_attempt: impl FnMut(f64),
    ) -> ShardedPublish {
        assert_eq!(grad.len(), self.dim, "gradient length");
        let mut agg = ShardedPublish::default();
        for (s, shard) in self.shards.iter().enumerate() {
            let (lo, hi) = self.shard_range(s);
            let sub = &grad[lo..hi];
            if sub.iter().all(|&v| v == 0.0) {
                continue; // clean shard: no copy, no CAS
            }
            let out = shard.publish_update(sub, eta, persistence, &mut on_attempt);
            agg.absorb(out, base_seqs.map(|b| b[s]));
        }
        agg
    }

    /// Publishes a sparse gradient given as `(index, value)` pairs with
    /// **ascending global indices**: pairs are grouped into per-shard
    /// runs and each dirty shard receives one sparse LAU-SPC publication
    /// ([`LeashedShared::publish_update_sparse`]), so the cost is
    /// O(dirty_shards · width + k) instead of O(d).
    ///
    /// # Panics
    /// Panics (debug) if indices are not strictly ascending or out of
    /// range.
    pub fn publish_sparse(
        &self,
        pairs: &[(u32, f32)],
        eta: f32,
        persistence: Option<u32>,
        base_seqs: Option<&[u64]>,
        mut on_attempt: impl FnMut(f64),
    ) -> ShardedPublish {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "indices ascending");
        debug_assert!(pairs.last().map_or(true, |&(i, _)| (i as usize) < self.dim));
        let mut agg = ShardedPublish::default();
        let mut i = 0usize;
        while i < pairs.len() {
            let s = self.shard_of(pairs[i].0 as usize);
            let (lo, hi) = self.shard_range(s);
            let mut j = i + 1;
            while j < pairs.len() && (pairs[j].0 as usize) < hi {
                j += 1;
            }
            let out = self.shards[s].publish_update_sparse(
                &pairs[i..j],
                lo as u32,
                eta,
                persistence,
                &mut on_attempt,
            );
            agg.absorb(out, base_seqs.map(|b| b[s]));
            i = j;
        }
        agg
    }
}

/// Per-worker bound on the consistent snapshot's validate-and-retry loop:
/// after this many failed double-collects the worker proceeds with its
/// last (possibly mixed-version) view — SGD tolerates the relaxation, and
/// a bounded loop keeps read latency predictable under heavy publishing.
const WORKER_SNAPSHOT_RETRIES: u32 = 32;

/// Worker state for [`ShardedShared`]: the per-shard sequence vector of
/// the last read and the algorithm's read/publish parameters. With more
/// than one shard it also holds the gathered local copy of θ (the shards
/// are not contiguous in memory). It holds gauge bytes for
/// [`worker_bytes`](ParamStore::worker_bytes).
pub struct ShardedWorker {
    local: Vec<f32>,
    base_seqs: Vec<u64>,
    persistence: Option<u32>,
    mode: SnapshotMode,
    degraded: u64,
    _hold: GaugeHold,
}

/// Leashed-SGD, sharded or not, as a [`ParamStore`]. One shard (which is
/// what [`Algorithm::Leashed`] runs on) is read in place: `f` sees the
/// published buffer, the zero-copy read of paper P3. More shards are read
/// by a multi-shard counted read gathered into a local copy. Publication
/// touches only the dirty shards — sparse `(index, value)` pairs straight
/// into [`publish_sparse`](ShardedShared::publish_sparse), dense
/// per-shard sub-gradients otherwise.
impl ParamStore for ShardedShared {
    type Worker = ShardedWorker;

    fn worker(&self, algorithm: &Algorithm) -> ShardedWorker {
        let (persistence, mode) = match *algorithm {
            Algorithm::ShardedLeashed {
                persistence,
                snapshot,
                ..
            } => (persistence, snapshot),
            Algorithm::Leashed { persistence } if self.num_shards() == 1 => {
                (persistence, SnapshotMode::Consistent)
            }
            _ => panic!(
                "ShardedShared with {} shards cannot run {algorithm}",
                self.num_shards()
            ),
        };
        let local = if self.num_shards() == 1 {
            Vec::new()
        } else {
            vec![0.0; self.dim]
        };
        ShardedWorker {
            local,
            base_seqs: Vec::with_capacity(self.num_shards()),
            persistence,
            mode,
            degraded: 0,
            _hold: GaugeHold::new(Arc::clone(self.gauge()), self.worker_bytes()),
        }
    }

    fn read<R>(&self, w: &mut ShardedWorker, f: impl FnOnce(&[f32]) -> R) -> R {
        w.base_seqs.clear();
        if let [shard] = self.shards.as_slice() {
            let guard = shard.latest();
            w.base_seqs.push(guard.seq());
            // `f` runs directly on the published memory. The guard's
            // counted read is released on drop, also when `f` unwinds.
            return f(guard.theta());
        }
        {
            let snap = self.snapshot(w.mode, WORKER_SNAPSHOT_RETRIES);
            if snap.is_degraded() {
                w.degraded += 1;
            }
            w.base_seqs.extend_from_slice(snap.seqs());
            snap.gather_into(&mut w.local);
        }
        f(&w.local)
    }

    fn publish(
        &self,
        w: &mut ShardedWorker,
        direction: Direction<'_>,
        eta: f32,
        tu: &mut OnlineStats,
    ) -> StepOutcome {
        let base = Some(w.base_seqs.as_slice());
        let on_attempt = |secs| tu.record(secs);
        let out = match direction {
            Direction::Dense(g) => self.publish_dense(g, eta, w.persistence, base, on_attempt),
            Direction::Sparse(pairs) => {
                self.publish_sparse(pairs, eta, w.persistence, base, on_attempt)
            }
        };
        StepOutcome {
            // An update counts as published when at least one of its
            // dirty shards landed; fully abandoned updates count as
            // aborted. An exactly-zero gradient (dirty = 0) is a
            // successful no-op that bumps no sequence number; counting it
            // keeps the max_updates budget advancing (and the run
            // terminating) when gradients vanish at convergence.
            published: out.published > 0 || out.dirty == 0,
            failed_cas: out.failed_cas,
            tau: out.tau_max,
            tau_s: Some(out.tau_s_max),
            dirty: Some(out.dirty),
        }
    }

    fn snapshot_into(&self, dst: &mut [f32]) {
        // The inherent method of the same name (it also returns the seq).
        ShardedShared::snapshot_into(self, dst);
    }

    /// The local gradient, plus the local copy when there is more than
    /// one shard.
    fn worker_bytes(&self) -> usize {
        let copies = if self.num_shards() == 1 { 1 } else { 2 };
        copies * self.dim * std::mem::size_of::<f32>()
    }

    fn pool_outstanding_peak(&self) -> usize {
        ShardedShared::pool_outstanding_peak(self)
    }

    fn degraded_reads(&self, w: &ShardedWorker) -> u64 {
        w.degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded(dim: usize, s: usize, init: f32) -> ShardedShared {
        ShardedShared::new(&vec![init; dim], s, Arc::new(MemoryGauge::new()), true)
    }

    #[test]
    fn geometry_covers_dim_exactly() {
        for (dim, s) in [(10, 4), (10, 64), (7, 1), (64, 8), (65, 8)] {
            let sh = sharded(dim, s, 0.0);
            assert!(sh.num_shards() <= s.clamp(1, dim));
            let mut covered = 0;
            for i in 0..sh.num_shards() {
                let (lo, hi) = sh.shard_range(i);
                assert_eq!(lo, covered);
                assert!(hi > lo);
                covered = hi;
            }
            assert_eq!(covered, dim, "dim {dim} S {s}");
            for idx in 0..dim {
                let s_of = sh.shard_of(idx);
                let (lo, hi) = sh.shard_range(s_of);
                assert!(lo <= idx && idx < hi);
            }
        }
    }

    #[test]
    fn dense_publish_matches_unsharded_for_any_shard_count() {
        let dim = 13;
        let grad: Vec<f32> = (0..dim).map(|i| (i as f32) - 6.0).collect();
        let oracle = {
            let pool = BufferPool::new(dim, Arc::new(MemoryGauge::new()));
            let o = LeashedShared::new(&vec![1.0; dim], pool);
            o.publish_update(&grad, 0.25, None, |_| {});
            let mut buf = vec![0.0; dim];
            o.snapshot_into(&mut buf);
            buf
        };
        for s in [1, 2, 3, 5, 13] {
            let sh = sharded(dim, s, 1.0);
            let out = sh.publish_dense(&grad, 0.25, None, None, |_| {});
            assert_eq!(out.published + (out.dirty - out.published), out.dirty);
            let mut buf = vec![0.0; dim];
            sh.snapshot_into(&mut buf);
            assert_eq!(buf, oracle, "S={s}");
        }
    }

    #[test]
    fn clean_shards_are_skipped() {
        let sh = sharded(16, 4, 0.0); // 4 shards of width 4
        let mut grad = vec![0.0f32; 16];
        grad[5] = 1.0; // only shard 1 dirty
        let out = sh.publish_dense(&grad, 1.0, None, None, |_| {});
        assert_eq!(out.dirty, 1);
        assert_eq!(out.published, 1);
        let seqs: Vec<u64> = (0..4).map(|s| sh.shard(s).current_seq()).collect();
        assert_eq!(seqs, vec![0, 1, 0, 0], "untouched shards keep seq 0");
        let mut buf = vec![0.0f32; 16];
        sh.snapshot_into(&mut buf);
        assert_eq!(buf[5], -1.0);
        assert_eq!(buf.iter().filter(|&&v| v != 0.0).count(), 1);
    }

    #[test]
    fn sparse_publish_touches_only_owning_shards() {
        let sh = sharded(64, 8, 0.0); // width 8
        let pairs = [(3u32, 1.0f32), (7, 2.0), (40, -1.0)];
        let out = sh.publish_sparse(&pairs, 1.0, None, None, |_| {});
        assert_eq!(out.dirty, 2, "indices 3,7 share shard 0; 40 is shard 5");
        assert_eq!(out.published, 2);
        let mut buf = vec![0.0f32; 64];
        sh.snapshot_into(&mut buf);
        assert_eq!(buf[3], -1.0);
        assert_eq!(buf[7], -2.0);
        assert_eq!(buf[40], 1.0);
        assert_eq!(lsgd_tensor::ops::dot(&buf, &buf), 1.0 + 4.0 + 1.0);
    }

    #[test]
    fn sparse_and_dense_publications_agree() {
        let dim = 37;
        let pairs = [(0u32, 0.5f32), (11, -2.0), (12, 1.5), (36, 4.0)];
        let mut grad = vec![0.0f32; dim];
        for &(i, v) in &pairs {
            grad[i as usize] = v;
        }
        for s in [1, 4, 37] {
            let a = sharded(dim, s, 2.0);
            let b = sharded(dim, s, 2.0);
            a.publish_dense(&grad, 0.1, None, None, |_| {});
            b.publish_sparse(&pairs, 0.1, None, None, |_| {});
            let (mut va, mut vb) = (vec![0.0; dim], vec![0.0; dim]);
            a.snapshot_into(&mut va);
            b.snapshot_into(&mut vb);
            assert_eq!(va, vb, "S={s}");
        }
    }

    #[test]
    fn consistent_snapshot_validates_seq_vector() {
        let sh = sharded(32, 4, 0.0);
        let grad = vec![1.0f32; 32];
        sh.publish_dense(&grad, 1.0, None, None, |_| {});
        let snap = sh.snapshot(SnapshotMode::Consistent, u32::MAX);
        assert!(snap.is_consistent());
        assert_eq!(snap.seqs(), &[1, 1, 1, 1]);
        assert_eq!(snap.total_seq(), 4);
        let mut buf = vec![0.0f32; 32];
        snap.gather_into(&mut buf);
        assert!(buf.iter().all(|&v| v == -1.0));
    }

    #[test]
    fn fast_snapshot_is_flagged_inconsistent_for_multiple_shards() {
        let sh = sharded(8, 2, 0.0);
        let fast = sh.snapshot(SnapshotMode::Fast, 0);
        assert!(!fast.is_consistent());
        assert!(!fast.is_degraded(), "Fast mode never 'degrades'");
        drop(fast);
        let single = sharded(8, 1, 0.0);
        assert!(single.snapshot(SnapshotMode::Fast, 0).is_consistent());
    }

    #[test]
    fn consistent_snapshot_degrades_to_fresh_fast_under_pressure() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let sh = sharded(16, 4, 0.0);
        // Uncontended, a zero retry budget still validates first try.
        let snap = sh.snapshot(SnapshotMode::Consistent, 0);
        assert!(snap.is_consistent() && !snap.is_degraded());
        drop(snap);

        // Under a publish storm, a zero-retry Consistent snapshot must
        // eventually fail validation — and then *degrade* (fresh Fast
        // re-collect with live guards), not spin and not panic. The race
        // window is a publish landing mid-collect; on a single CPU that
        // only happens when the OS preempts this thread mid-snapshot, so
        // the loop is wall-clock-bounded and — deliberately — never
        // yields: a voluntary yield between snapshots would move every
        // context switch outside the vulnerable window.
        let stop = AtomicBool::new(false);
        let grad = vec![1.0f32; 16];
        std::thread::scope(|s| {
            s.spawn(|| {
                // ORDERING: Relaxed — plain test shutdown flag; the scope
                // join is the real synchronisation point.
                while !stop.load(Ordering::Relaxed) {
                    sh.publish_dense(&grad, 1e-6, None, None, |_| {});
                }
            });
            // Wait until the publisher demonstrably runs.
            let t0 = sh.shard(0).current_seq();
            while sh.shard(0).current_seq() == t0 {
                std::thread::yield_now();
            }
            let mut saw_degraded = false;
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while std::time::Instant::now() < deadline {
                let snap = sh.snapshot(SnapshotMode::Consistent, 0);
                assert_eq!(snap.num_shards(), 4);
                if snap.is_degraded() {
                    assert!(!snap.is_consistent());
                    assert_eq!(snap.retries(), 0, "budget was zero");
                    // The degraded view is a live, gatherable acquisition.
                    let mut buf = vec![0.0f32; 16];
                    snap.gather_into(&mut buf);
                    saw_degraded = true;
                    break;
                }
            }
            // ORDERING: Relaxed — see above.
            stop.store(true, Ordering::Relaxed);
            assert!(saw_degraded, "publish storm never tripped degradation");
        });
    }

    #[test]
    fn staleness_fields_report_against_base_seqs() {
        let sh = sharded(8, 2, 0.0);
        let grad = vec![1.0f32; 8];
        // Two publishes move every shard to seq 2.
        sh.publish_dense(&grad, 1.0, None, None, |_| {});
        sh.publish_dense(&grad, 1.0, None, None, |_| {});
        // A stale base (seq vector all zero) yields tau_max = 2.
        let out = sh.publish_dense(&grad, 1.0, None, Some(&[0, 0]), |_| {});
        assert_eq!(out.tau_max, 2);
        assert_eq!(out.tau_s_max, 0, "uncontended: no lost races");
    }

    #[test]
    fn shards_share_one_gauge_and_recycle() {
        let gauge = Arc::new(MemoryGauge::new());
        let sh = ShardedShared::new(&vec![0.0; 64], 8, Arc::clone(&gauge), true);
        let grad = vec![1.0f32; 64];
        for _ in 0..20 {
            sh.publish_dense(&grad, 0.1, None, None, |_| {});
        }
        // Single-threaded steady state: one outstanding buffer per shard.
        let outstanding: usize = (0..sh.num_shards())
            .map(|s| sh.shard(s).pool().outstanding())
            .sum();
        assert_eq!(outstanding, sh.num_shards());
        assert!(gauge.pool_reuses() > 0, "recycling must engage");
    }
}
