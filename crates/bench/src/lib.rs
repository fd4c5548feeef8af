#![warn(missing_docs)]
//! # lsgd-bench — experiment harness for the Leashed-SGD reproduction
//!
//! One binary, `paper <id>...`, regenerates the paper's tables and
//! figures (`table1`, `fig3`…`fig10`, `sec4`); `paper --help` lists the
//! ids. Each id prints the same rows/series the paper plots, plus a
//! `paper-vs-measured` note stating the published claim the output should
//! be compared against.
//!
//! Every id accepts a common set of flags (see [`cli::Args`]):
//!
//! ```text
//! --full            paper-scale parameters (68 threads, 11 reps, 60k samples)
//! --threads=a,b,c   thread counts to sweep
//! --reps=N          repetitions per configuration (paper: 11)
//! --samples=N       dataset size (paper: 60,000)
//! --batch=N         minibatch size (paper: 512)
//! --wall=SECS       per-run wall-clock budget
//! --seed=N          base RNG seed
//! --csv=DIR         also write one record row per run to DIR/<id>.csv
//! ```
//!
//! Defaults are scaled down so every figure regenerates in minutes on a
//! small machine; `--full` restores the paper's parameters (expect hours,
//! and a ≥36-core box for the high-parallelism points to be meaningful).
//!
//! This crate times nothing below a whole training run: step, phase and
//! kernel timings are the repo benchmark's (`BENCHMARK.json`, package
//! `benchmark/`).

pub mod cli;
pub mod expect;

pub use cli::Args;
