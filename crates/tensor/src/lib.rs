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
//! * [`gemm`](mod@gemm) — packed, register-blocked matrix multiplication with
//!   transpose variants (`C = alpha * op(A) * op(B) + beta * C`), the
//!   workhorse of both the dense layers and the im2col convolution
//!   lowering. [`pack`] holds the panel-packing routines. One entry,
//!   `gemm::gemm_flex`, takes slice, prepacked or packer operands,
//!   picks the kernel, and splits across an `lsgd_runtime::Runtime`'s
//!   helper threads and the caller when handed one.
//! * [`panels`] — [`PackedA`] / [`PackedB`], a weight operand packed in
//!   full ahead of the products that read it; each layer keeps one of
//!   each and repacks it in place whenever it packs.
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

pub use gemm::{gemm, Transpose};
pub use matrix::Matrix;
pub use panels::{PackedA, PackedB};
pub use rng::SmallRng64;
