#![warn(missing_docs)]
//! # lsgd-nn — neural-network substrate over a flat parameter vector
//!
//! The Leashed-SGD paper's experimental framework is a refactored MiniDNN
//! (C++) in which *all learnable parameters are extracted into a single
//! collective data structure, the ParameterVector* (paper §V.1). This crate
//! is the Rust equivalent: every layer reads its weights from — and writes
//! its gradients to — sub-slices of one flat `&[f32]`, so the same
//! [`Network`] drives sequential SGD, lock-based AsyncSGD, HOGWILD! and
//! Leashed-SGD without copies or per-algorithm glue.
//!
//! Contents:
//!
//! * [`layer::Layer`] — the layer trait (`forward` / `backward` over flat
//!   parameter slices).
//! * [`dense::Dense`], [`conv::Conv2d`], [`pool::MaxPool2d`],
//!   [`activation::Relu`] — the layer zoo the paper's MLP/CNN need.
//! * [`loss`] — fused softmax + cross-entropy (the paper's output layer).
//! * [`network::Network`] — a sequential container computing minibatch
//!   loss and gradient; [`network::Workspace`] holds per-thread scratch so
//!   `m` asynchronous workers never contend on temporaries.
//! * [`architectures`] — the exact Table II MLP (`d = 134,794`) and
//!   Table III CNN (`d = 27,354`).
//! * [`gradcheck`] — finite-difference gradient verification used by the
//!   test-suite.

pub mod activation;
pub mod architectures;
pub mod conv;
pub mod dense;
pub mod gradcheck;
pub mod layer;
pub mod loss;
pub mod network;
pub mod pool;

pub use architectures::{cnn_mnist, mlp_mnist, tiny_mlp};
pub use layer::{Layer, LayerCache, StepCtx};
pub use network::{Network, Workspace};
