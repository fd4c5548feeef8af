//! Staleness estimators built on the Section-IV fixed points.
//!
//! The paper decomposes the staleness of an update as `τ = τc + τs`
//! (following \[4\] in its reference list): `τc` counts updates published
//! while the gradient was being computed; `τs` counts competing updates
//! that won the LAU-SPC race before it. §IV.2 estimates `E[τs] ≈ n*_γ`
//! and observes that the compute-phase component behaves like the number
//! of other threads publishing during one computation.

use crate::fluid::FluidModel;

/// Model-based staleness estimates for a Leashed-SGD configuration.
#[derive(Debug, Clone, Copy)]
pub struct StalenessEstimate {
    /// Expected scheduling staleness `E[τs] ≈ n*_γ`.
    pub tau_s: f64,
    /// Expected compute-phase staleness `E[τc]`: publishes by other
    /// threads during one gradient computation.
    pub tau_c: f64,
    /// Expected total staleness `E[τ] = E[τc] + E[τs]`.
    pub tau_total: f64,
}

/// Estimates staleness for `m` threads with times `Tc`, `Tu` and a
/// persistence-induced extra departure factor `gamma ≥ 0`.
///
/// `E[τc]` is derived from throughput at the fixed point: the system
/// publishes at rate `n*_γ/Tu · 1/(1+something)` in the fluid idealisation;
/// using the paper's departure rate `μ = n(1+γ)/Tu` at the fixed point,
/// aggregate publish rate is `(m - n*_γ)/Tc` (flow balance), of which the
/// fraction `(m-1)/m` comes from *other* threads. One gradient computation
/// lasts `Tc`, so `E[τc] ≈ (m-1)/m · (m - n*_γ)/Tc · Tc = (m-1)/m · (m - n*_γ)`.
pub fn estimate(m: f64, tc: f64, tu: f64, gamma: f64) -> StalenessEstimate {
    let fluid = FluidModel::new(m, tc, tu);
    let n_star = fluid.fixed_point_gamma(gamma);
    let tau_s = n_star;
    let others = if m > 1.0 { (m - 1.0) / m } else { 0.0 };
    let tau_c = others * (m - n_star);
    StalenessEstimate {
        tau_s,
        tau_c,
        tau_total: tau_s + tau_c,
    }
}

/// Maps a persistence bound `Tp` onto the fluid model's extra departure
/// factor `γ`. With bound `Tp`, a thread departs forcibly after `Tp + 1`
/// failed attempts; treating each failed attempt as an independent
/// Bernoulli loss against the current winner, the forced-departure rate is
/// roughly proportional to `1/(Tp + 1)` of the service rate.
pub fn gamma_for_persistence(tp: Option<u32>) -> f64 {
    match tp {
        None => 0.0,
        Some(tp) => 1.0 / (tp as f64 + 1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_s_equals_gamma_fixed_point() {
        let est = estimate(16.0, 40.0, 0.8, 0.5);
        let fluid = FluidModel::new(16.0, 40.0, 0.8);
        assert!((est.tau_s - fluid.fixed_point_gamma(0.5)).abs() < 1e-12);
    }

    #[test]
    fn total_is_sum_of_components() {
        let est = estimate(16.0, 40.0, 0.8, 0.0);
        assert!((est.tau_total - (est.tau_c + est.tau_s)).abs() < 1e-12);
    }

    #[test]
    fn single_thread_has_no_staleness_from_others() {
        let est = estimate(1.0, 10.0, 1.0, 0.0);
        assert_eq!(est.tau_c, 0.0);
        // τs can be ≤ n* < 1 — a single thread never loses the CAS race in
        // practice; the fluid value is its occupancy, not a count of losses.
        assert!(est.tau_s < 1.0);
    }

    #[test]
    fn staleness_grows_with_threads() {
        let small = estimate(4.0, 40.0, 0.8, 0.0);
        let large = estimate(64.0, 40.0, 0.8, 0.0);
        assert!(large.tau_total > small.tau_total);
    }

    #[test]
    fn persistence_reduces_tau_s() {
        let unbounded = estimate(16.0, 4.0, 2.0, gamma_for_persistence(None));
        let tp0 = estimate(16.0, 4.0, 2.0, gamma_for_persistence(Some(0)));
        let tp1 = estimate(16.0, 4.0, 2.0, gamma_for_persistence(Some(1)));
        assert!(tp0.tau_s < tp1.tau_s);
        assert!(tp1.tau_s < unbounded.tau_s);
    }

    #[test]
    fn gamma_mapping_monotone() {
        assert_eq!(gamma_for_persistence(None), 0.0);
        assert!(gamma_for_persistence(Some(0)) > gamma_for_persistence(Some(1)));
        assert!(gamma_for_persistence(Some(1)) > gamma_for_persistence(Some(10)));
    }
}
