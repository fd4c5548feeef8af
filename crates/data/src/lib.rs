#![warn(missing_docs)]
//! # lsgd-data — datasets for the Leashed-SGD experiments
//!
//! The paper evaluates on MNIST (60,000 28×28 hand-written digits,
//! minibatch 512). This environment has no network access, so the primary
//! dataset here is [`synth_digits`]: a procedural generator that renders
//! digit-like glyphs from per-class stroke skeletons with randomised
//! affine jitter, stroke thickness and pixel noise. It produces any number
//! of samples, deterministically under a seed, in the exact MNIST format
//! (28×28 grayscale in `[0,1]`, 10 classes) — preserving the non-convex
//! multi-class image-classification loss surface and the gradient cost
//! profile of the paper's workloads. See DESIGN.md for the substitution
//! rationale.
//!
//! Also provided for the convex experiments and fast tests:
//!
//! * [`blobs`] — Gaussian mixture classification in arbitrary dimension.
//! * [`regression`] — (sparse) linear-regression instances, the workload
//!   class for which HOGWILD!-style algorithms were originally analysed.
//! * [`sparse_logreg`] — high-dimensional sparse logistic regression with
//!   power-law (text-like) token frequencies, the workload exercising the
//!   sharded dirty-shard publication path.

pub mod blobs;
pub mod dataset;
pub mod regression;
pub mod sparse_logreg;
pub mod synth_digits;

pub use dataset::Dataset;
pub use sparse_logreg::SparseLogReg;
pub use synth_digits::SynthDigits;
