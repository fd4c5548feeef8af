#![warn(missing_docs)]
//! # lsgd-metrics — experiment metrics for the Leashed-SGD reproduction
//!
//! Everything the paper's evaluation section measures, as reusable
//! components:
//!
//! * [`histogram::Histogram`] — integer-bin histograms for the staleness
//!   distributions of Fig. 6 / Fig. 7 (right).
//! * [`histogram::LogHistogram`] — log-bucketed latency histograms with
//!   ≈ 3%-tight quantile bounds, feeding the per-phase p50/p95/p99
//!   reporting of the `lsgd_trace` observability layer.
//! * [`stats::OnlineStats`] — Welford mean/variance for the Tc/Tu timing
//!   measurements of Fig. 9.
//! * [`boxstats::BoxStats`] — five-number summaries with 1.5·IQR outliers,
//!   the box-plot statistics every convergence-rate figure reports.
//! * [`convergence::ConvergenceTracker`] — ε-convergence detection
//!   relative to the initial loss, with the paper's Crash (numerical
//!   instability) / Diverge (budget exhausted) outcome classification.
//! * [`series::Series`] — loss-over-time traces (Fig. 5) with downsampling.
//! * [`table`] — plain-text and CSV rendering for the harness's figures.

pub mod boxstats;
pub mod convergence;
pub mod histogram;
pub mod series;
pub mod stats;
pub mod table;

pub use boxstats::BoxStats;
pub use convergence::{ConvergenceTracker, Outcome};
pub use histogram::{Histogram, LogHistogram};
pub use series::Series;
pub use stats::OnlineStats;
