//! The paper's Section IV thread-dynamics model.
//!
//! Section IV of the Leashed-SGD paper models how worker threads flow
//! between gradient computation (duration `Tc`) and the LAU-SPC retry loop
//! (attempt duration `Tu`) as a fluid system:
//!
//! ```text
//! n_{t+1} = n_t + (m - n_t)/Tc - n_t/Tu          (eq. 4)
//! ```
//!
//! with closed form (Theorem 3), stable fixed point
//! `n* = m / (Tc/Tu + 1)` (Corollary 3.1), persistence-shifted fixed point
//! `n*_γ = m / ((1+γ) Tc/Tu + 1)` (Corollary 3.2), and the staleness
//! estimate `E[τs] ≈ n*_γ`.
//!
//! * [`fluid`] — the analytical model exactly as published.
//! * [`des`] — a discrete-event simulator of the same system, in both the
//!   paper's idealised departure semantics and a realistic CAS-contention
//!   mode, used to validate the fluid predictions (and the paper's claim
//!   that `Tp = 0` forces `τs = 0`).
//! * [`staleness`] — staleness estimators built on the fixed points.

pub mod des;
pub mod fluid;
pub mod staleness;

pub use des::{CasMode, DesConfig, DesResult};
pub use fluid::FluidModel;
