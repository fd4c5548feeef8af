//! Memory accounting for the Fig. 10 experiments.
//!
//! The paper samples process RSS via `ps` at second granularity. We track
//! the quantity it actually reasons about — bytes held by ParameterVector
//! buffers and worker-local gradient/copy buffers — exactly, with atomic
//! live/peak counters that every allocation site in this crate reports to.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Live/peak byte accounting shared by one training run.
///
/// Optionally carries a soft **cap** ([`set_cap`](Self::set_cap)): the
/// gauge itself never rejects anything — it only answers
/// [`would_exceed`](Self::would_exceed), which the [`BufferPool`]
/// (crate::pool) consults to back off (and eventually force through)
/// under memory pressure instead of allocating unboundedly.
#[derive(Debug, Default)]
pub struct MemoryGauge {
    live: AtomicUsize,
    peak: AtomicUsize,
    total_allocs: AtomicU64,
    pool_reuses: AtomicU64,
    /// Soft cap in bytes; 0 = uncapped.
    cap: AtomicUsize,
}

impl MemoryGauge {
    /// Fresh gauge with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `bytes` of newly allocated buffer space.
    pub fn add(&self, bytes: usize) {
        // ORDERING: Relaxed throughout this gauge — pure statistics
        // counters that publish no data; exactness is only asserted
        // after joins, which synchronise. Same rationale at every site.
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        // ORDERING: Relaxed — see above.
        self.total_allocs.fetch_add(1, Ordering::Relaxed);
        // Lock-free max update.
        // ORDERING: Relaxed — see above; the CAS loop only ratchets up.
        let mut peak = self.peak.load(Ordering::Relaxed);
        while live > peak {
            // ORDERING: Relaxed — see above.
            match self.peak.compare_exchange_weak(
                peak,
                live,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
    }

    /// Registers release of `bytes` previously added.
    pub fn sub(&self, bytes: usize) {
        // ORDERING: Relaxed — statistics only; see `add`.
        let prev = self.live.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "memory gauge underflow");
    }

    /// Notes a buffer handed out from a recycling pool (no new allocation).
    pub fn note_reuse(&self) {
        // ORDERING: Relaxed — statistics only; see `add`.
        self.pool_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Currently live bytes.
    pub fn live(&self) -> usize {
        // ORDERING: Relaxed — statistics only; see `add`.
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of live bytes.
    pub fn peak(&self) -> usize {
        // ORDERING: Relaxed — statistics only; see `add`.
        self.peak.load(Ordering::Relaxed)
    }

    /// Number of fresh allocations.
    pub fn total_allocs(&self) -> u64 {
        // ORDERING: Relaxed — statistics only; see `add`.
        self.total_allocs.load(Ordering::Relaxed)
    }

    /// Number of pool reuses (recycled buffers).
    pub fn pool_reuses(&self) -> u64 {
        // ORDERING: Relaxed — statistics only; see `add`.
        self.pool_reuses.load(Ordering::Relaxed)
    }

    /// Sets the soft cap in bytes (`None` = uncapped). Advisory: the
    /// gauge keeps counting past it; consumers decide how to react.
    pub fn set_cap(&self, cap: Option<usize>) {
        // 0 is the "uncapped" sentinel; an explicit 0-byte cap (which
        // every buffer exceeds) is kept meaningful as a 1-byte cap.
        let raw = match cap {
            None => 0,
            Some(0) => 1,
            Some(c) => c,
        };
        // ORDERING: Relaxed — the cap is a configuration value read by
        // the same advisory pressure checks as the statistics; a stale
        // read only mistimes backoff by one allocation.
        self.cap.store(raw, Ordering::Relaxed);
    }

    /// The soft cap, if one is set.
    pub fn cap(&self) -> Option<usize> {
        // ORDERING: Relaxed — see `set_cap`.
        match self.cap.load(Ordering::Relaxed) {
            0 => None,
            c => Some(c),
        }
    }

    /// Whether allocating `bytes` more would push `live` past the cap.
    /// Always `false` when uncapped. Advisory — the answer can be stale
    /// by the time the caller acts on it, which the pool's
    /// backoff-then-force policy tolerates by design.
    pub fn would_exceed(&self, bytes: usize) -> bool {
        match self.cap() {
            None => false,
            Some(cap) => self.live().saturating_add(bytes) > cap,
        }
    }
}

/// RAII gauge accounting for worker-local buffers: the matching `sub`
/// must run even when the worker unwinds from a contained panic, or the
/// run's live-byte accounting (and any cap) leaks permanently.
#[derive(Debug)]
pub struct GaugeHold {
    gauge: Arc<MemoryGauge>,
    bytes: usize,
}

impl GaugeHold {
    /// Registers `bytes` with `gauge` until the hold is dropped.
    pub fn new(gauge: Arc<MemoryGauge>, bytes: usize) -> GaugeHold {
        gauge.add(bytes);
        GaugeHold { gauge, bytes }
    }
}

impl Drop for GaugeHold {
    fn drop(&mut self) {
        self.gauge.sub(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_tracks_live() {
        let g = MemoryGauge::new();
        g.add(100);
        g.add(50);
        assert_eq!(g.live(), 150);
        g.sub(100);
        assert_eq!(g.live(), 50);
        assert_eq!(g.peak(), 150);
    }

    #[test]
    fn peak_is_monotone() {
        let g = MemoryGauge::new();
        g.add(10);
        g.sub(10);
        g.add(5);
        assert_eq!(g.peak(), 10);
        assert_eq!(g.live(), 5);
    }

    #[test]
    fn concurrent_updates_are_consistent() {
        let g = Arc::new(MemoryGauge::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        g.add(8);
                        g.sub(8);
                    }
                });
            }
        });
        assert_eq!(g.live(), 0);
        assert!(g.peak() >= 8);
        assert!(g.peak() <= 32, "peak {} cannot exceed 4 threads × 8B", g.peak());
        assert_eq!(g.total_allocs(), 40_000);
    }

    #[test]
    fn reuse_counter() {
        let g = MemoryGauge::new();
        g.note_reuse();
        g.note_reuse();
        assert_eq!(g.pool_reuses(), 2);
    }

    #[test]
    fn cap_is_advisory_and_optional() {
        let g = MemoryGauge::new();
        assert_eq!(g.cap(), None);
        assert!(!g.would_exceed(usize::MAX), "uncapped never exceeds");

        g.set_cap(Some(100));
        assert_eq!(g.cap(), Some(100));
        g.add(80);
        assert!(!g.would_exceed(20));
        assert!(g.would_exceed(21));
        // The gauge itself never rejects: counting continues past the cap.
        g.add(50);
        assert_eq!(g.live(), 130);
        assert!(g.would_exceed(1));

        g.set_cap(None);
        assert!(!g.would_exceed(1));
        // An explicit 0-byte cap stays a cap (everything exceeds it).
        g.set_cap(Some(0));
        assert!(g.cap().is_some());
        assert!(g.would_exceed(1));
    }
}
