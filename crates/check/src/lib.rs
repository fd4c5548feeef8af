//! `lsgd_check` — a loom-style deterministic concurrency model checker
//! (plus an ordering-audit lint) for the Leashed-SGD lock-free core.
//!
//! The lock-free protocols this workspace implements — LAU-SPC
//! parameter publication with counted readers, consistent sharded
//! snapshots, CAS-only slot reclamation, the slot pool's free-bit
//! handoff, the trace rings — are
//! correct only under specific atomic-ordering contracts. Stress tests
//! sample a vanishing fraction of the interleavings those contracts
//! must survive. This crate checks them *systematically*: the code
//! under test is compiled against the shim types in [`sync`] (and the
//! thread shims in [`thread`]), which are zero-cost std wrappers in a
//! normal build and, under `--cfg lsgd_model`, route every atomic
//! access through a controlled scheduler that enumerates thread
//! interleavings exhaustively up to a preemption bound.
//!
//! # Using it
//!
//! ```text
//! RUSTFLAGS="--cfg lsgd_model" cargo test -p lsgd_core --test model_pool
//! ```
//!
//! A model test wraps a small concurrent scenario in [`model`]:
//!
//! ```no_run
//! lsgd_check::model(|| {
//!     // build the structure, spawn lsgd_check::thread::spawn threads,
//!     // join them, assert invariants — the closure runs once per
//!     // explored schedule.
//! });
//! ```
//!
//! On failure the panic message includes a **seed** — the exact
//! sequence of scheduling decisions. Re-run just that interleaving
//! (deterministically, e.g. under a debugger) with
//! `LSGD_MODEL_SEED=<seed>` or [`replay`].
//!
//! # What a failure means
//!
//! The checker fails a schedule on: assertion panics in the test
//! closure, happens-before data races on [`sync::UnsafeCell`] /
//! [`annotate`]d buffer accesses, use-after-free / double-free / leaks
//! of [`annotate::fresh`]-tracked regions, deadlock, and (optionally)
//! unsynchronized `Relaxed` reads. See [`exec`](crate::sync) module
//! docs for the semantics.
//!
//! # Soundness limits — read before trusting a green run
//!
//! * **Bounded preemptions.** By default only schedules with ≤ 2
//!   preemptive context switches are explored (the CHESS result: most
//!   concurrency bugs need very few). A pass is *not* a proof over all
//!   interleavings; raise `LSGD_MODEL_PREEMPTIONS` for more coverage.
//! * **Sequentially consistent values.** Atomic loads observe the
//!   globally latest store. Ordering bugs are caught through the
//!   happens-before model (races on the data the atomics guard), not
//!   through stale-value execution; a protocol whose failure mode is
//!   *only* a stale value with no guarded non-atomic data can slip
//!   through. ThreadSanitizer/Miri in CI complement this from the
//!   value side.
//! * **No spurious CAS failures**; `compare_exchange_weak` behaves
//!   like the strong form under the model.
//! * **Max [`clock::MAX_THREADS`] threads** per execution.
//!
//! The complementary layers (stress, proptest, Miri, TSan) and when to
//! reach for each are described in the workspace README's
//! "Verification" section.

#![warn(missing_docs)]

pub mod annotate;
pub mod audit;
pub mod clock;
pub mod env;
#[cfg_attr(not(lsgd_model), allow(dead_code))]
mod exec;
pub mod sync;
pub mod thread;

pub use exec::{Config, Failure, Report};

/// Whether the calling thread is currently inside a model execution
/// (always `false` in builds without `--cfg lsgd_model`). Shimmed code
/// uses this to turn off probes that would perturb exploration and to
/// force real yields in spin loops.
#[inline]
pub fn model_active() -> bool {
    #[cfg(lsgd_model)]
    {
        exec::model_active()
    }
    #[cfg(not(lsgd_model))]
    {
        false
    }
}

/// Explores the schedule space of `f` under `config` and returns the
/// [`Report`] (no panic on failure — the caller inspects it).
///
/// Without `--cfg lsgd_model` the closure simply runs once on the
/// current thread with std semantics.
pub fn explore(config: Config, f: impl Fn() + Sync) -> Report {
    exec::explore_impl(config, f, None)
}

/// Re-executes exactly one schedule of `f`: the one encoded by `seed`
/// (as printed in a failure message). Deterministic — the same seed
/// always replays the same interleaving or fails loudly if the test
/// closure has diverged.
pub fn replay(config: Config, seed: &str, f: impl Fn() + Sync) -> Report {
    exec::explore_impl(config, f, Some(seed.to_string()))
}

/// Model-checks `f` with [`Config::default`] (plus environment
/// overrides), panicking with the failing seed if any explored
/// schedule fails. This is the entry point model tests use.
///
/// If `LSGD_MODEL_SEED` is set, only that schedule is replayed.
pub fn model(f: impl Fn() + Sync) {
    model_with(Config::default().from_env(), f);
}

/// [`model`] with an explicit configuration (environment overrides and
/// `LSGD_MODEL_SEED` replay still apply).
pub fn model_with(config: Config, f: impl Fn() + Sync) {
    let config = config.from_env();
    let max_schedules = config.max_schedules;
    let report = match env::var("LSGD_MODEL_SEED") {
        Some(seed) => replay(config, &seed, f),
        None => explore(config, f),
    };
    if let Some(failure) = &report.failure {
        panic!(
            "model check failed after {} schedule(s)\n  seed: {:?}  (re-run with \
             LSGD_MODEL_SEED={} to replay this exact interleaving)\n  failure: {}",
            report.schedules, failure.seed, failure.seed, failure.message
        );
    }
    if !report.complete && cfg!(lsgd_model) {
        eprintln!(
            "lsgd_check: exploration stopped at max_schedules={} without exhausting \
             the space (pass a larger Config::max_schedules or LSGD_MODEL_MAX_SCHEDULES)",
            max_schedules
        );
    }
}
