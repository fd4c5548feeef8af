#![warn(missing_docs)]
//! # lsgd-tensor — dense linear-algebra substrate for Leashed-SGD
//!
//! The Leashed-SGD paper implements its deep-learning workloads on top of
//! Eigen (C++). This crate is the Rust equivalent substrate: a small,
//! dependency-light dense linear-algebra kernel tuned for the shapes the
//! experiments use (minibatch GEMMs on the order of `512 × 784 × 128` and
//! small convolution lowerings).
//!
//! Provided here:
//!
//! * [`Matrix`] — row-major `f32` matrix with cheap row views.
//! * [`gemm`] — packed, register-blocked matrix multiplication with
//!   transpose variants (`C = alpha * op(A) * op(B) + beta * C`), the
//!   workhorse of both the dense layers and the im2col convolution
//!   lowering. [`pack`] holds the panel-packing routines;
//!   `gemm::gemm_slices_parallel_in` / `gemm::gemm_flex_parallel_in` split
//!   across an `lsgd_runtime::Runtime`'s workers.
//! * [`ops`] — BLAS-1 style vector kernels (`axpy`, `dot`, `scale`, …) used
//!   by the SGD update rule itself.
//! * [`rng`] — seeded random sources, including the Box–Muller normal
//!   sampler used for the paper's `N(0, 0.01)` parameter initialisation.
//! * [`numeric`] — numerically-stable softmax / log-sum-exp helpers.
//!
//! Everything is deterministic under a seed and allocation-conscious: the
//! hot paths (`gemm`, `ops`) never allocate.

pub mod gemm;
pub mod matrix;
pub mod numeric;
pub mod ops;
pub mod pack;
pub mod panels;
pub mod rng;

pub use gemm::{gemm, gemm_naive, Transpose};
pub use matrix::Matrix;
pub use panels::{PackedA, PackedB, PackedPanelCache};
pub use rng::SmallRng64;
