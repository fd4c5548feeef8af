#![warn(missing_docs)]
//! Umbrella crate re-exporting the full Leashed-SGD reproduction API,
//! plus the paper's Section IV model ([`dynamics`]).
pub use lsgd_core as core;
pub use lsgd_data as data;
pub use lsgd_fault as fault;
pub use lsgd_metrics as metrics;
pub use lsgd_nn as nn;
pub use lsgd_sync as sync;
pub use lsgd_tensor as tensor;
pub use lsgd_trace as trace;

pub mod dynamics;
