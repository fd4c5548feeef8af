//! Discrete-event simulation of the LAU-SPC thread dynamics.
//!
//! The fluid model of [`crate::fluid`] is a mean-field idealisation; this
//! simulator runs the actual stochastic system — `m` threads alternating
//! between gradient computation (`~Tc`) and LAU-SPC attempts (`~Tu`) —
//! and measures loop occupancy, publish throughput, persistence aborts and
//! the scheduling-staleness component `τs` the paper analyses in §IV.2.
//!
//! Two departure semantics:
//!
//! * [`CasMode::Idealized`] — every completed attempt publishes. This is
//!   the assumption behind the paper's departure rate `μ = n/Tu`; the
//!   simulator's time-averaged occupancy should then match `n*`.
//! * [`CasMode::Realistic`] — an attempt publishes only if no other thread
//!   published since the attempt began (true CAS semantics), so under
//!   contention most attempts fail and retry. This quantifies how far the
//!   published fluid model sits from a faithful CAS execution — the gap
//!   the persistence bound `Tp` is designed to close.

use lsgd_metrics::Histogram;
use lsgd_tensor::SmallRng64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Departure semantics for completed LAU-SPC attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasMode {
    /// Every attempt succeeds (paper's fluid-model assumption).
    Idealized,
    /// An attempt succeeds only when no concurrent publish intervened.
    Realistic,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct DesConfig {
    /// Number of worker threads.
    pub m: usize,
    /// Mean gradient-computation time.
    pub tc: f64,
    /// Mean attempt (copy + update + CAS) time.
    pub tu: f64,
    /// Relative uniform jitter on every duration, in `[0, 1)`.
    pub jitter: f64,
    /// Persistence bound `Tp`: max failed CASes before aborting the
    /// update; `None` = unbounded (`LSH_ps∞`).
    pub persistence: Option<u32>,
    /// Departure semantics.
    pub mode: CasMode,
    /// Simulated time horizon.
    pub horizon: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DesConfig {
    fn default() -> Self {
        DesConfig {
            m: 16,
            tc: 40.0,
            tu: 0.8,
            jitter: 0.2,
            persistence: None,
            mode: CasMode::Realistic,
            horizon: 10_000.0,
            seed: 1,
        }
    }
}

/// Aggregated simulation outputs.
#[derive(Debug, Clone)]
pub struct DesResult {
    /// Time-averaged number of threads inside the LAU-SPC loop.
    pub mean_occupancy: f64,
    /// Total successful publishes.
    pub publishes: u64,
    /// Updates abandoned after exceeding the persistence bound.
    pub aborted: u64,
    /// Total failed CAS attempts.
    pub failed_attempts: u64,
    /// Per-publish scheduling staleness `τs` (publishes by others between
    /// loop entry and own publish), as a histogram.
    pub tau_s: Histogram,
    /// Publish throughput per unit time.
    pub throughput: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    FinishCompute,
    FinishAttempt,
}

/// Runs the simulation.
pub fn simulate(cfg: &DesConfig) -> DesResult {
    assert!(cfg.m > 0 && cfg.tc > 0.0 && cfg.tu > 0.0);
    assert!((0.0..1.0).contains(&cfg.jitter));
    let mut rng = SmallRng64::new(cfg.seed);
    let jittered = |mean: f64, rng: &mut SmallRng64| {
        mean * (1.0 + rng.range_f32(-cfg.jitter as f32, cfg.jitter as f32) as f64)
    };

    // Event queue ordered by time; simulated times are always finite, so
    // a total order on the f64 key is sound.
    #[derive(PartialEq)]
    struct OrdF64(f64);
    impl Eq for OrdF64 {}
    impl PartialOrd for OrdF64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for OrdF64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0
                .partial_cmp(&other.0)
                .expect("simulated time is never NaN")
        }
    }

    let mut queue: BinaryHeap<Reverse<(OrdF64, usize, Event)>> = BinaryHeap::new();

    // Per-thread state.
    let mut fails = vec![0u32; cfg.m];
    let mut loop_entry_pub = vec![0u64; cfg.m];
    let mut attempt_start_pub = vec![0u64; cfg.m];
    let mut publish_count = 0u64;

    // Stagger initial compute completions.
    for tid in 0..cfg.m {
        let t = jittered(cfg.tc, &mut rng) * (tid as f64 + 1.0) / cfg.m as f64;
        queue.push(Reverse((OrdF64(t), tid, Event::FinishCompute)));
    }

    let mut occupancy = 0usize;
    let mut occ_weighted = 0.0f64;
    let mut last_t = 0.0f64;
    let mut publishes = 0u64;
    let mut aborted = 0u64;
    let mut failed_attempts = 0u64;
    let mut tau_s = Histogram::new(4 * cfg.m + 16);

    while let Some(Reverse((OrdF64(t), tid, ev))) = queue.pop() {
        if t > cfg.horizon {
            break;
        }
        occ_weighted += occupancy as f64 * (t - last_t);
        last_t = t;
        match ev {
            Event::FinishCompute => {
                // Enter the LAU-SPC loop.
                occupancy += 1;
                fails[tid] = 0;
                loop_entry_pub[tid] = publish_count;
                attempt_start_pub[tid] = publish_count;
                let dt = jittered(cfg.tu, &mut rng);
                queue.push(Reverse((OrdF64(t + dt), tid, Event::FinishAttempt)));
            }
            Event::FinishAttempt => {
                let success = match cfg.mode {
                    CasMode::Idealized => true,
                    CasMode::Realistic => attempt_start_pub[tid] == publish_count,
                };
                if success {
                    publish_count += 1;
                    publishes += 1;
                    tau_s.record(publish_count - 1 - loop_entry_pub[tid]);
                    occupancy -= 1;
                    let dt = jittered(cfg.tc, &mut rng);
                    queue.push(Reverse((OrdF64(t + dt), tid, Event::FinishCompute)));
                } else {
                    failed_attempts += 1;
                    fails[tid] += 1;
                    let exceeded = cfg
                        .persistence
                        .map(|tp| fails[tid] > tp)
                        .unwrap_or(false);
                    if exceeded {
                        // Abort: delete new_param, go recompute a gradient.
                        aborted += 1;
                        occupancy -= 1;
                        let dt = jittered(cfg.tc, &mut rng);
                        queue.push(Reverse((OrdF64(t + dt), tid, Event::FinishCompute)));
                    } else {
                        attempt_start_pub[tid] = publish_count;
                        let dt = jittered(cfg.tu, &mut rng);
                        queue.push(Reverse((OrdF64(t + dt), tid, Event::FinishAttempt)));
                    }
                }
            }
        }
    }

    let elapsed = last_t.max(f64::EPSILON);
    DesResult {
        mean_occupancy: occ_weighted / elapsed,
        publishes,
        aborted,
        failed_attempts,
        tau_s,
        throughput: publishes as f64 / elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fluid::FluidModel;

    fn base() -> DesConfig {
        DesConfig {
            m: 16,
            tc: 40.0,
            tu: 0.8,
            jitter: 0.2,
            persistence: None,
            mode: CasMode::Idealized,
            horizon: 50_000.0,
            seed: 7,
        }
    }

    #[test]
    fn idealized_occupancy_matches_fluid_fixed_point() {
        let cfg = base();
        let res = simulate(&cfg);
        let fluid = FluidModel::new(cfg.m as f64, cfg.tc, cfg.tu);
        let predicted = fluid.fixed_point();
        let rel = (res.mean_occupancy - predicted).abs() / predicted;
        assert!(
            rel < 0.25,
            "occupancy {} vs fluid n* {predicted} (rel {rel})",
            res.mean_occupancy
        );
    }

    #[test]
    fn idealized_mode_never_fails() {
        let res = simulate(&base());
        assert_eq!(res.failed_attempts, 0);
        assert_eq!(res.aborted, 0);
        assert!(res.publishes > 1000);
    }

    #[test]
    fn realistic_mode_fails_under_contention() {
        // Tc/Tu small → crowded retry loop → failed CASes.
        let cfg = DesConfig {
            tc: 4.0,
            tu: 2.0,
            mode: CasMode::Realistic,
            horizon: 10_000.0,
            ..base()
        };
        let res = simulate(&cfg);
        assert!(res.failed_attempts > 0, "contention must cause CAS failures");
        assert!(res.publishes > 0);
    }

    #[test]
    fn persistence_zero_forces_zero_tau_s() {
        // The paper's §IV.2 claim: with Tp = 0, every published update had
        // no failed CAS, hence no competing publish since its gradient was
        // ready → τs = 0 exactly.
        let cfg = DesConfig {
            tc: 4.0,
            tu: 2.0,
            mode: CasMode::Realistic,
            persistence: Some(0),
            horizon: 20_000.0,
            ..base()
        };
        let res = simulate(&cfg);
        assert!(res.publishes > 100);
        assert_eq!(
            res.tau_s.bin(0),
            res.tau_s.count(),
            "all published updates must have tau_s = 0 under Tp = 0"
        );
        assert!(res.aborted > 0, "contended Tp=0 should abort some updates");
    }

    #[test]
    fn persistence_bound_reduces_mean_tau_s() {
        let mk = |tp: Option<u32>| {
            simulate(&DesConfig {
                tc: 8.0,
                tu: 2.0,
                mode: CasMode::Realistic,
                persistence: tp,
                horizon: 30_000.0,
                ..base()
            })
        };
        let unbounded = mk(None);
        let bounded = mk(Some(1));
        assert!(
            bounded.tau_s.mean() <= unbounded.tau_s.mean() + 1e-9,
            "Tp=1 mean τs {} should not exceed unbounded {}",
            bounded.tau_s.mean(),
            unbounded.tau_s.mean()
        );
    }

    #[test]
    fn throughput_bounded_by_service_rate() {
        // In realistic mode at most ~1 publish per Tu can occur.
        let cfg = DesConfig {
            tc: 2.0,
            tu: 1.0,
            mode: CasMode::Realistic,
            horizon: 20_000.0,
            ..base()
        };
        let res = simulate(&cfg);
        assert!(
            res.throughput <= 1.05 / cfg.tu,
            "throughput {} exceeds CAS serialisation bound",
            res.throughput
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = simulate(&base());
        let b = simulate(&base());
        assert_eq!(a.publishes, b.publishes);
        assert!((a.mean_occupancy - b.mean_occupancy).abs() < 1e-12);
    }

    #[test]
    fn more_threads_raise_occupancy() {
        let small = simulate(&DesConfig { m: 4, ..base() });
        let large = simulate(&DesConfig { m: 32, ..base() });
        assert!(large.mean_occupancy > small.mean_occupancy);
    }
}
