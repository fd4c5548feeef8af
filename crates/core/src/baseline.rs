//! Shared parameter state for the baseline algorithms (paper Algorithms 2
//! and 4): the lock-based AsyncSGD and the synchronisation-free HOGWILD!.

use crate::algorithm::Algorithm;
use crate::mem::{GaugeHold, MemoryGauge};
use crate::store::{Direction, ParamStore, StepOutcome};
use lsgd_metrics::OnlineStats;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Lock-protected shared parameters — Algorithm 2. Reads (full copy) and
/// updates are serialised through one mutex; a global sequence number
/// provides the total order used for staleness measurement.
pub struct LockedParams {
    theta: Mutex<Vec<f32>>,
    seq: AtomicU64,
    gauge: Arc<MemoryGauge>,
    bytes: usize,
}

impl LockedParams {
    /// Wraps an initial parameter vector.
    pub fn new(init: Vec<f32>, gauge: Arc<MemoryGauge>) -> Self {
        let bytes = std::mem::size_of_val(init.as_slice());
        gauge.add(bytes);
        LockedParams {
            theta: Mutex::new(init),
            seq: AtomicU64::new(0),
            gauge,
            bytes,
        }
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.theta.lock().len()
    }

    /// Copies the shared parameters into `dst` under the lock; returns the
    /// sequence number of the copied state (Algorithm 2 lines 11–13).
    pub fn read_into(&self, dst: &mut [f32]) -> u64 {
        let guard = self.theta.lock();
        dst.copy_from_slice(&guard);
        // Read the seq while holding the lock: it labels this exact state.
        // ORDERING: SeqCst — one total order over seq labels so staleness
        // math (t_new - t_base) never observes reordered labels.
        self.seq.load(Ordering::SeqCst)
    }

    /// Applies `theta -= eta * grad` under the lock (Algorithm 2 lines
    /// 15–17); returns the new sequence number.
    pub fn update(&self, grad: &[f32], eta: f32) -> u64 {
        let mut guard = self.theta.lock();
        lsgd_tensor::ops::sgd_step(&mut guard, grad, eta);
        // ORDERING: SeqCst — seq labels share one total order; the data
        // itself is protected by the mutex.
        self.seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// [`update`](Self::update) for a direction given as `(index, value)`
    /// pairs: `theta[i] -= eta * v` under the lock.
    ///
    /// # Panics
    /// Panics (debug) if indices are not strictly ascending or out of
    /// range.
    pub fn update_sparse(&self, pairs: &[(u32, f32)], eta: f32) -> u64 {
        let mut guard = self.theta.lock();
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "indices ascending");
        debug_assert!(pairs.last().map_or(true, |&(i, _)| (i as usize) < guard.len()));
        for &(i, v) in pairs {
            guard[i as usize] -= eta * v;
        }
        // ORDERING: SeqCst — as in `update`.
        self.seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Current sequence number.
    pub fn current_seq(&self) -> u64 {
        // ORDERING: SeqCst — same total order as read_into/update.
        self.seq.load(Ordering::SeqCst)
    }
}

impl Drop for LockedParams {
    fn drop(&mut self) {
        self.gauge.sub(self.bytes);
    }
}

/// Unsynchronised shared parameters — Algorithm 4 (HOGWILD!).
///
/// C++ HOGWILD! races plain `float` reads/writes; in Rust that is UB, so
/// each component is an `AtomicU32` accessed with `Relaxed` bit-cast
/// loads/stores — on x86 these compile to the same `mov` instructions the
/// C++ emits, preserving the algorithm's behaviour (word-level atomicity,
/// vector-level inconsistency) with defined semantics.
pub struct HogwildParams {
    theta: Box<[AtomicU32]>,
    seq: AtomicU64,
    gauge: Arc<MemoryGauge>,
    bytes: usize,
}

impl HogwildParams {
    /// Wraps an initial parameter vector.
    pub fn new(init: &[f32], gauge: Arc<MemoryGauge>) -> Self {
        let bytes = std::mem::size_of_val(init);
        gauge.add(bytes);
        HogwildParams {
            theta: init.iter().map(|&v| AtomicU32::new(v.to_bits())).collect(),
            seq: AtomicU64::new(0),
            gauge,
            bytes,
        }
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.theta.len()
    }

    /// Component read.
    #[inline]
    pub fn get(&self, i: usize) -> f32 {
        // ORDERING: Relaxed — HOGWILD! is *defined* by unsynchronised
        // component access; only word-level atomicity is wanted.
        f32::from_bits(self.theta[i].load(Ordering::Relaxed))
    }

    /// Copies the (possibly inconsistent) current state into `dst` with
    /// relaxed per-component loads; returns the sequence number observed
    /// *before* the copy, matching the paper's staleness bookkeeping.
    ///
    /// # Panics
    /// Panics if `dst.len() != d`, like [`LockedParams::read_into`].
    pub fn read_into(&self, dst: &mut [f32]) -> u64 {
        assert_eq!(dst.len(), self.theta.len(), "read_into: length mismatch");
        // ORDERING: SeqCst — seq labels stay totally ordered even though
        // the component reads below are deliberately unordered.
        let t = self.seq.load(Ordering::SeqCst);
        for (d, a) in dst.iter_mut().zip(self.theta.iter()) {
            // ORDERING: Relaxed — the HOGWILD! racy read; see `get`.
            *d = f32::from_bits(a.load(Ordering::Relaxed));
        }
        t
    }

    /// The HOGWILD! update: component-wise racy read-modify-write
    /// `theta[i] -= eta * grad[i]` with no coordination (Algorithm 1 line
    /// 15–18 applied directly to the shared vector). Returns the new
    /// sequence number (`FetchAndAdd`, as in Algorithm 1 line 16).
    ///
    /// # Panics
    /// Panics if `grad.len() != d`, like [`LockedParams::update`].
    pub fn update(&self, grad: &[f32], eta: f32) -> u64 {
        assert_eq!(grad.len(), self.theta.len(), "update: length mismatch");
        // ORDERING: SeqCst — the paper's FetchAndAdd total order on t.
        let t = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        for (a, &g) in self.theta.iter().zip(grad) {
            racy_sub(a, eta * g);
        }
        t
    }

    /// [`update`](Self::update) for a direction given as `(index, value)`
    /// pairs: the same racy read-modify-write, on the listed components
    /// only.
    ///
    /// # Panics
    /// Panics (debug) if indices are not strictly ascending or out of
    /// range.
    pub fn update_sparse(&self, pairs: &[(u32, f32)], eta: f32) -> u64 {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "indices ascending");
        debug_assert!(pairs.last().map_or(true, |&(i, _)| (i as usize) < self.theta.len()));
        // ORDERING: SeqCst — the paper's FetchAndAdd total order on t.
        let t = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        for &(i, v) in pairs {
            racy_sub(&self.theta[i as usize], eta * v);
        }
        t
    }

    /// Current sequence number.
    pub fn current_seq(&self) -> u64 {
        // ORDERING: SeqCst — same total order as read_into/update.
        self.seq.load(Ordering::SeqCst)
    }
}

/// `*a -= delta` as a racy read-modify-write, exactly like the
/// unsynchronised C++: concurrent updates to the same component can be
/// lost.
#[inline]
fn racy_sub(a: &AtomicU32, delta: f32) {
    // ORDERING: Relaxed — deliberately unsynchronised; see `get`.
    let cur = f32::from_bits(a.load(Ordering::Relaxed));
    // ORDERING: Relaxed — see above.
    a.store((cur - delta).to_bits(), Ordering::Relaxed);
}

impl Drop for HogwildParams {
    fn drop(&mut self) {
        self.gauge.sub(self.bytes);
    }
}

/// Worker state of the two copy-on-read stores: the local copy of θ and
/// the sequence number it was read at. Holds the gauge bytes for that
/// copy and the worker's gradient (ASYNC/HOG hold `2m + 1` vectors in the
/// paper's memory model: copy + gradient per thread, plus the shared
/// one).
pub struct CopyWorker {
    local: Vec<f32>,
    t0: u64,
    _hold: GaugeHold,
}

/// `LockedParams` and `HogwildParams` plug into the step the same way:
/// `read_into` a local copy, `update` (or `update_sparse` on the pairs
/// only) in place, one `Tu` sample per update, staleness from the global
/// sequence number.
macro_rules! copy_on_read_store {
    ($store:ty) => {
        impl ParamStore for $store {
            type Worker = CopyWorker;

            fn worker(&self, _algorithm: &Algorithm) -> CopyWorker {
                CopyWorker {
                    local: vec![0.0; self.bytes / std::mem::size_of::<f32>()],
                    t0: 0,
                    _hold: GaugeHold::new(Arc::clone(&self.gauge), self.worker_bytes()),
                }
            }

            fn read<R>(&self, w: &mut CopyWorker, f: impl FnOnce(&[f32]) -> R) -> R {
                w.t0 = self.read_into(&mut w.local);
                f(&w.local)
            }

            fn publish(
                &self,
                w: &mut CopyWorker,
                direction: Direction<'_>,
                eta: f32,
                tu: &mut OnlineStats,
            ) -> StepOutcome {
                let tu_start = Instant::now();
                let t_pub = match direction {
                    Direction::Dense(g) => self.update(g, eta),
                    Direction::Sparse(pairs) => self.update_sparse(pairs, eta),
                };
                tu.record(tu_start.elapsed().as_secs_f64());
                StepOutcome {
                    published: true,
                    tau: t_pub - 1 - w.t0,
                    ..StepOutcome::default()
                }
            }

            fn snapshot_into(&self, dst: &mut [f32]) {
                self.read_into(dst);
            }

            fn worker_bytes(&self) -> usize {
                2 * self.bytes
            }
        }
    };
}

copy_on_read_store!(LockedParams);
copy_on_read_store!(HogwildParams);

#[cfg(test)]
mod tests {
    use super::*;

    fn gauge() -> Arc<MemoryGauge> {
        Arc::new(MemoryGauge::new())
    }

    #[test]
    fn locked_read_after_update() {
        let p = LockedParams::new(vec![1.0; 4], gauge());
        let t0 = p.update(&[1.0, 1.0, 1.0, 1.0], 0.5);
        assert_eq!(t0, 1);
        let mut buf = vec![0.0; 4];
        let t = p.read_into(&mut buf);
        assert_eq!(t, 1);
        assert_eq!(buf, vec![0.5; 4]);
    }

    #[test]
    fn locked_updates_are_serialised() {
        let p = Arc::new(LockedParams::new(vec![0.0; 8], gauge()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..1000 {
                        p.update(&[-1.0; 8], 1.0); // += 1 per component
                    }
                });
            }
        });
        let mut buf = vec![0.0; 8];
        p.read_into(&mut buf);
        assert_eq!(p.current_seq(), 4000);
        // Mutex-serialised updates lose nothing.
        assert!(buf.iter().all(|&v| v == 4000.0), "{buf:?}");
    }

    #[test]
    fn hogwild_single_thread_matches_sgd() {
        let p = HogwildParams::new(&[1.0, 2.0], gauge());
        p.update(&[0.5, -0.5], 0.2);
        assert!((p.get(0) - 0.9).abs() < 1e-7);
        assert!((p.get(1) - 2.1).abs() < 1e-7);
        assert_eq!(p.current_seq(), 1);
    }

    #[test]
    fn hogwild_concurrent_updates_may_lose_but_stay_finite() {
        let p = Arc::new(HogwildParams::new(&vec![0.0; 64], gauge()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..2000 {
                        p.update(&[-1.0; 64], 1.0);
                    }
                });
            }
        });
        assert_eq!(p.current_seq(), 8000);
        let mut buf = vec![0.0; 64];
        p.read_into(&mut buf);
        for &v in &buf {
            // Lost updates are allowed (that is HOGWILD!'s deal) but the
            // value must be finite, word-atomic, and at most the total.
            assert!(v.is_finite());
            assert!(v <= 8000.0 + 0.5);
            assert!(v > 0.0);
        }
    }

    // A wrong-length buffer is an upstream shape bug; both stores reject
    // it instead of copying or updating a prefix.
    #[test]
    #[should_panic]
    fn locked_read_into_rejects_length_mismatch() {
        LockedParams::new(vec![0.0; 4], gauge()).read_into(&mut [0.0; 3]);
    }

    #[test]
    #[should_panic]
    fn locked_update_rejects_length_mismatch() {
        LockedParams::new(vec![0.0; 4], gauge()).update(&[1.0; 5], 0.1);
    }

    #[test]
    #[should_panic]
    fn hogwild_read_into_rejects_length_mismatch() {
        HogwildParams::new(&[0.0; 4], gauge()).read_into(&mut [0.0; 3]);
    }

    #[test]
    #[should_panic]
    fn hogwild_update_rejects_length_mismatch() {
        HogwildParams::new(&[0.0; 4], gauge()).update(&[1.0; 5], 0.1);
    }

    // `Direction::Sparse` promises strictly ascending indices; the sparse
    // arms check it in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "indices ascending")]
    fn locked_update_sparse_rejects_unsorted_pairs() {
        LockedParams::new(vec![0.0; 4], gauge()).update_sparse(&[(2, 1.0), (1, 1.0)], 0.1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "indices ascending")]
    fn hogwild_update_sparse_rejects_unsorted_pairs() {
        HogwildParams::new(&[0.0; 4], gauge()).update_sparse(&[(2, 1.0), (1, 1.0)], 0.1);
    }

    #[test]
    fn gauges_track_shared_buffer_lifetime() {
        let g = gauge();
        {
            let _p = LockedParams::new(vec![0.0; 100], Arc::clone(&g));
            assert_eq!(g.live(), 400);
        }
        assert_eq!(g.live(), 0);
        {
            let _p = HogwildParams::new(&[0.0; 25], Arc::clone(&g));
            assert_eq!(g.live(), 100);
        }
        assert_eq!(g.live(), 0);
    }
}
