#![warn(missing_docs)]
//! # lsgd-core — Leashed-SGD: consistent lock-free parallel SGD
//!
//! Rust implementation of the IPDPS 2021 paper *"Consistent Lock-free
//! Parallel Stochastic Gradient Descent for Fast and Stable Convergence"*
//! (Bäckström, Walulya, Papatriantafilou, Tsigas).
//!
//! The crate provides:
//!
//! * [`paramvec`] — the **ParameterVector** shared data structure
//!   (Algorithm 1) with safe lock-free memory recycling, and the
//!   **LAU-SPC** publication loop of **Leashed-SGD** (Algorithm 3) with a
//!   configurable persistence bound `Tp`: one publication domain.
//! * [`shard`] — [`ShardedShared`], S such domains over one vector.
//!   Leashed-SGD runs on it with S = 1, the sharded extension with S > 1.
//! * [`baseline`] — the evaluated baselines: lock-based AsyncSGD
//!   (Algorithm 2) and HOGWILD! (Algorithm 4).
//! * [`store`] — the [`ParamStore`] trait those three shared-parameter
//!   types implement: how θ is read and how an update lands.
//! * [`trainer`] — the `m`-thread asynchronous training executor — one
//!   worker loop over any [`ParamStore`] — with the
//!   paper's full measurement instrumentation (staleness distributions,
//!   `Tc`/`Tu` timings, ε-convergence with Crash/Diverge classification,
//!   memory accounting).
//! * [`problem`] — the optimisation-problem abstraction; DL problems
//!   (MLP/CNN on image data) and convex regression problems ship ready.
//!
//! ## Quick start
//!
//! ```
//! use lsgd_core::prelude::*;
//!
//! // A small classification problem (3 Gaussian blobs).
//! let data = lsgd_data::blobs::gaussian_blobs(600, 6, 3, 0.3, 42);
//! let net = lsgd_nn::tiny_mlp(6, 16, 3);
//! let problem = NnProblem::new(net, data, 32, 256);
//!
//! // Train with Leashed-SGD, persistence bound 1, two workers.
//! let cfg = TrainConfig {
//!     algorithm: Algorithm::Leashed { persistence: Some(1) },
//!     threads: 2,
//!     eta: 0.1,
//!     epsilons: vec![0.5],
//!     max_wall: std::time::Duration::from_secs(10),
//!     ..TrainConfig::default()
//! };
//! let result = train(&problem, &cfg);
//! assert!(result.published > 0);
//! println!("{}", result.summary());
//! ```

pub mod algorithm;
pub mod baseline;
pub mod heartbeat;
pub mod mem;
pub mod paramvec;
pub mod pool;
pub mod problem;
pub mod result;
pub mod shard;
pub mod store;
pub mod trainer;

/// Checked `LSGD_*` environment-variable parsing (re-exported from
/// `lsgd_check::env` so every layer shares one implementation): malformed
/// values fall back to the documented default with a one-time warning
/// instead of silently diverging per call site.
pub use lsgd_check::env;

pub use algorithm::Algorithm;
pub use paramvec::{LeashedShared, PublishOutcome, ReadGuard};
pub use problem::{NnProblem, Problem, RegressionProblem, SparseLogRegProblem};
pub use result::{RunResult, UpdateHistograms, WorkerCrash};
pub use shard::{ShardedPublish, ShardedShared, ShardedSnapshot, SnapshotMode};
pub use store::{Direction, ParamStore, StepOutcome};
pub use trainer::{train, TrainConfig};

/// Convenient glob import for examples and harnesses.
pub mod prelude {
    pub use crate::algorithm::Algorithm;
    pub use crate::problem::{NnProblem, Problem, RegressionProblem, SparseLogRegProblem};
    pub use crate::result::RunResult;
    pub use crate::shard::SnapshotMode;
    pub use crate::trainer::{train, TrainConfig};
}
