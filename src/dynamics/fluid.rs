//! The fluid (mean-field) model of thread progression — paper Section IV.1.
//!
//! Threads outside the LAU-SPC retry loop arrive at rate `(m - n)/Tc`;
//! threads inside depart at rate `n/Tu` (times `1 + γ` under a persistence
//! bound). All equation numbers refer to the paper.

/// The Section-IV fluid model, parameterised by thread count `m`, gradient
/// computation time `Tc` and update/attempt time `Tu` (in the same
/// arbitrary time unit; one recurrence step advances one unit).
///
/// ```
/// use leashed_sgd::dynamics::FluidModel;
///
/// // 16 threads, Tc = 3 time units, Tu = 1 (contended regime).
/// let m = FluidModel::new(16.0, 3.0, 1.0);
/// assert_eq!(m.fixed_point(), 4.0);              // n* = m/(Tc/Tu + 1)
/// assert_eq!(m.balance(), 0.25);                 // n*/m = Tu/(Tu+Tc)
/// // The trajectory settles at the fixed point (Corollary 3.1):
/// let n_t = *m.trajectory(0.0, 500).last().unwrap();
/// assert!((n_t - 4.0).abs() < 1e-9);
/// // A persistence bound shifts it down (Corollary 3.2):
/// assert!(m.fixed_point_gamma(1.0) < m.fixed_point());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidModel {
    /// Number of worker threads `m`.
    pub m: f64,
    /// Gradient computation time `Tc`.
    pub tc: f64,
    /// Update (LAU-SPC attempt) time `Tu`.
    pub tu: f64,
}

impl FluidModel {
    /// Creates a model.
    ///
    /// # Panics
    /// Panics unless `m > 0`, `tc > 0`, `tu > 0`.
    pub fn new(m: f64, tc: f64, tu: f64) -> Self {
        assert!(m > 0.0 && tc > 0.0 && tu > 0.0, "parameters must be positive");
        FluidModel { m, tc, tu }
    }

    /// The contraction factor `r = 1 - 1/Tc - 1/Tu` of the recurrence.
    pub fn contraction(&self) -> f64 {
        1.0 - 1.0 / self.tc - 1.0 / self.tu
    }

    /// True iff the discrete recurrence converges (`|r| < 1`).
    pub fn is_stable(&self) -> bool {
        self.contraction().abs() < 1.0
    }

    /// One step of recurrence (4): `n + (m - n)/Tc - n/Tu`.
    pub fn step(&self, n: f64) -> f64 {
        n + (self.m - n) / self.tc - n / self.tu
    }

    /// The trajectory `n_0, n_1, …, n_steps` by iterating (4).
    pub fn trajectory(&self, n0: f64, steps: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(steps + 1);
        let mut n = n0;
        out.push(n);
        for _ in 0..steps {
            n = self.step(n);
            out.push(n);
        }
        out
    }

    /// Closed form (5), Theorem 3:
    /// `n_t = (1 - r^t)/(1 + Tc/Tu) · m + r^t · n_0`.
    pub fn closed_form(&self, n0: f64, t: u32) -> f64 {
        let r = self.contraction();
        let rt = r.powi(t as i32);
        (1.0 - rt) / (1.0 + self.tc / self.tu) * self.m + rt * n0
    }

    /// Fixed point `n* = m / (Tc/Tu + 1)` (Corollary 3.1).
    pub fn fixed_point(&self) -> f64 {
        self.m / (self.tc / self.tu + 1.0)
    }

    /// Persistence-shifted fixed point (7), Corollary 3.2:
    /// `n*_γ = m / ((1+γ) Tc/Tu + 1)`.
    pub fn fixed_point_gamma(&self, gamma: f64) -> f64 {
        assert!(gamma >= 0.0, "gamma must be non-negative");
        self.m / ((1.0 + gamma) * self.tc / self.tu + 1.0)
    }

    /// Thread balance at the fixed point, `n*/m = Tu/(Tu + Tc)` — the
    /// paper's observation that balance depends only on the ratio `Tu/Tc`.
    pub fn balance(&self) -> f64 {
        self.tu / (self.tu + self.tc)
    }

    /// Returns an equivalent model whose time unit is `dt` of the original
    /// (i.e. `Tc`, `Tu` divided by `dt`). The fixed points are invariant;
    /// the recurrence becomes a finer discretisation of the same flow.
    ///
    /// The paper's recurrence (4) advances one time unit per step and is
    /// only stable when `1/Tc + 1/Tu < 2`; with a sub-millisecond `Tu`
    /// expressed in milliseconds it oscillates divergently. Rescaling to
    /// `dt ≤ min(Tc, Tu)/2` restores stability without changing the
    /// steady state — use [`FluidModel::rescaled_stable`] for an automatic
    /// choice.
    pub fn rescaled(&self, dt: f64) -> FluidModel {
        assert!(dt > 0.0, "dt must be positive");
        FluidModel::new(self.m, self.tc / dt, self.tu / dt)
    }

    /// Rescales the time unit to `min(Tc, Tu) / 4`, guaranteeing a stable
    /// discretisation of the flow (contraction factor in `(0, 1)`).
    pub fn rescaled_stable(&self) -> FluidModel {
        self.rescaled(self.tc.min(self.tu) / 4.0)
    }

    /// Steps until the trajectory is within `tol` of the fixed point,
    /// starting from `n0` (None if not reached in `max_steps`).
    pub fn settling_time(&self, n0: f64, tol: f64, max_steps: usize) -> Option<usize> {
        let target = self.fixed_point();
        let mut n = n0;
        for t in 0..=max_steps {
            if (n - target).abs() <= tol {
                return Some(t);
            }
            n = self.step(n);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FluidModel {
        // MLP-like ratio from the paper's Fig. 9: Tc ≈ 40 ms, Tu ≈ 0.8 ms.
        FluidModel::new(16.0, 40.0, 0.8)
    }

    #[test]
    fn fixed_point_is_stationary() {
        let m = model();
        let n_star = m.fixed_point();
        assert!((m.step(n_star) - n_star).abs() < 1e-12);
    }

    #[test]
    fn fixed_point_formula() {
        let m = FluidModel::new(16.0, 3.0, 1.0);
        assert!((m.fixed_point() - 4.0).abs() < 1e-12); // 16 / (3 + 1)
    }

    #[test]
    fn closed_form_matches_recurrence() {
        let m = model();
        let traj = m.trajectory(2.0, 50);
        for (t, &n) in traj.iter().enumerate() {
            let cf = m.closed_form(2.0, t as u32);
            assert!((n - cf).abs() < 1e-9, "t={t}: {n} vs {cf}");
        }
    }

    #[test]
    fn converges_to_fixed_point_from_any_start() {
        let m = model();
        for n0 in [0.0, 1.0, 8.0, 16.0] {
            let last = *m.trajectory(n0, 2000).last().unwrap();
            assert!(
                (last - m.fixed_point()).abs() < 1e-6,
                "from n0={n0}: {last} vs {}",
                m.fixed_point()
            );
        }
    }

    #[test]
    fn gamma_shrinks_fixed_point() {
        let m = model();
        let base = m.fixed_point();
        let mut prev = base;
        for gamma in [0.5, 1.0, 2.0, 8.0] {
            let ng = m.fixed_point_gamma(gamma);
            assert!(ng < prev, "n*_γ must decrease in γ");
            prev = ng;
        }
        // Cor. 3.2 (ii): vanishes as γ grows.
        assert!(m.fixed_point_gamma(1e9) < 1e-5);
    }

    #[test]
    fn gamma_zero_recovers_base_fixed_point() {
        let m = model();
        assert!((m.fixed_point_gamma(0.0) - m.fixed_point()).abs() < 1e-12);
    }

    #[test]
    fn balance_depends_only_on_ratio() {
        let a = FluidModel::new(8.0, 10.0, 2.0);
        let b = FluidModel::new(64.0, 50.0, 10.0);
        assert!((a.balance() - b.balance()).abs() < 1e-12);
        assert!((a.fixed_point() / a.m - a.balance()).abs() < 1e-12);
    }

    #[test]
    fn stability_condition() {
        assert!(FluidModel::new(4.0, 10.0, 2.0).is_stable());
        // 1/Tc + 1/Tu = 2.5 → r = -1.5 → unstable oscillation.
        assert!(!FluidModel::new(4.0, 0.8, 0.5).is_stable());
    }

    #[test]
    fn settling_time_decreases_with_faster_service() {
        let slow = FluidModel::new(16.0, 100.0, 10.0);
        let fast = FluidModel::new(16.0, 10.0, 1.0);
        let ts = slow.settling_time(0.0, 0.01, 100_000).unwrap();
        let tf = fast.settling_time(0.0, 0.01, 100_000).unwrap();
        assert!(tf < ts, "faster dynamics settle sooner: {tf} vs {ts}");
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_parameters() {
        FluidModel::new(0.0, 1.0, 1.0);
    }

    #[test]
    fn rescaling_preserves_fixed_points() {
        let m = FluidModel::new(16.0, 100.0, 0.25); // unstable as written
        assert!(!m.is_stable());
        let r = m.rescaled_stable();
        assert!(r.is_stable());
        assert!((r.fixed_point() - m.fixed_point()).abs() < 1e-12);
        assert!((r.fixed_point_gamma(0.5) - m.fixed_point_gamma(0.5)).abs() < 1e-12);
        assert!((r.balance() - m.balance()).abs() < 1e-12);
    }

    #[test]
    fn rescaled_trajectory_converges_where_original_diverges() {
        let m = FluidModel::new(16.0, 100.0, 0.25);
        let r = m.rescaled_stable();
        let last = *r.trajectory(0.0, 50_000).last().unwrap();
        assert!(
            (last - m.fixed_point()).abs() < 1e-6,
            "rescaled trajectory settles at the shared fixed point"
        );
        let diverged = m.trajectory(0.0, 100).last().unwrap().abs() > 1e6;
        assert!(diverged, "original coarse recurrence must oscillate out");
    }
}
