//! End-to-end reproduction pipeline at test scale: the paper's workloads
//! and algorithm lineup, miniaturised to run in seconds.
//!
//! Two tiers live in this file:
//!
//! * **Smoke tests** (default `cargo test`): every workload × algorithm
//!   is driven end to end for a bounded number of updates — wiring,
//!   crash-freedom, and cheap invariants, a couple of seconds total.
//! * **Convergence tests** (`#[ignore]`, run with `cargo test --
//!   --ignored`; CI's `slow-suite` job): the original 30 s-budget runs
//!   that assert the paper's convergence and staleness-ordering claims.
//!   These took ~100 s of wall time, which is why they are off the
//!   default path.

use leashed_sgd::core::prelude::*;
use leashed_sgd::data::SynthDigits;
use std::time::Duration;

/// A miniature of the paper's MLP workload: Table II network, synthetic
/// MNIST-format digits.
fn mini_mlp_problem() -> NnProblem {
    let data = SynthDigits::default().generate(400, 1);
    NnProblem::new(leashed_sgd::nn::mlp_mnist(), data, 32, 200)
}

fn cfg(algorithm: Algorithm, threads: usize) -> TrainConfig {
    TrainConfig {
        algorithm,
        threads,
        eta: 0.1,
        epsilons: vec![0.5],
        max_updates: u64::MAX,
        max_wall: Duration::from_secs(30),
        eval_every: Duration::from_millis(40),
        seed: 2,
        staleness_cap: 512,
    }
}

/// Smoke profile: same workload, bounded updates instead of a
/// convergence budget — finishes in well under a second per run.
fn smoke_cfg(algorithm: Algorithm, threads: usize) -> TrainConfig {
    let mut c = cfg(algorithm, threads);
    c.max_updates = 400;
    c.max_wall = Duration::from_secs(10);
    c.epsilons = vec![0.9]; // shallow target a smoke run can plausibly hit
    c
}

// ---------------------------------------------------------------------
// Smoke tier (default `cargo test`)
// ---------------------------------------------------------------------

#[test]
fn smoke_full_lineup_runs_on_mlp_digits() {
    let p = mini_mlp_problem();
    for algo in Algorithm::paper_lineup() {
        let r = train(&p, &smoke_cfg(algo, 2));
        assert!(!r.crashed, "{algo}: {}", r.summary());
        assert!(r.published > 0, "{algo}: no updates published");
        assert!(
            r.final_loss.is_finite(),
            "{algo}: loss diverged: {}",
            r.summary()
        );
    }
}

#[test]
fn smoke_cnn_workload_runs() {
    let data = SynthDigits::default().generate(60, 2);
    let p = NnProblem::new(leashed_sgd::nn::cnn_mnist(), data, 8, 32);
    let mut c = smoke_cfg(Algorithm::Leashed { persistence: None }, 2);
    c.max_updates = 24; // the CNN is slow per gradient; two dozen proves the path
    let r = train(&p, &c);
    assert!(!r.crashed, "{}", r.summary());
    assert!(r.published > 0, "no CNN updates published");
    assert!(r.final_loss.is_finite());
}

#[test]
fn smoke_persistence_zero_forces_zero_tau_s() {
    // Tp = 0 forces τs = 0 by construction — no convergence needed.
    let p = mini_mlp_problem();
    let r = train(&p, &smoke_cfg(Algorithm::Leashed { persistence: Some(0) }, 4));
    assert!(!r.crashed, "{}", r.summary());
    assert_eq!(r.tau_s.mean(), 0.0, "Tp=0 must force τs = 0");
}

#[test]
fn monitor_trace_time_axis_is_monotone() {
    // Monotonicity of the monitor's time axis needs updates, not
    // convergence — smoke budget suffices.
    let p = mini_mlp_problem();
    let r = train(&p, &smoke_cfg(Algorithm::AsyncLock, 2));
    let pts = r.loss_trace.points();
    for w in pts.windows(2) {
        assert!(w[1].0 >= w[0].0, "trace time went backwards");
    }
    assert!(pts[0].0 == 0.0, "trace starts at t = 0 with initial loss");
}

#[test]
fn initial_loss_is_ln10_for_ten_classes() {
    // The paper states f(θ₀) ≈ 2.3 (= ln 10) for both architectures.
    let p = mini_mlp_problem();
    let theta = p.init_theta(0);
    let mut scratch = p.scratch();
    let l0 = p.eval_loss(&theta, &mut scratch);
    assert!(
        (l0 - 10f64.ln()).abs() < 0.15,
        "initial loss {l0} should be ≈ ln 10 ≈ 2.303"
    );
}

#[test]
fn same_seed_same_initial_loss_across_algorithms() {
    // Controlled comparison: every algorithm starts from an identical θ₀.
    let p = mini_mlp_problem();
    let mut first: Option<f64> = None;
    for algo in [
        Algorithm::Sequential,
        Algorithm::Hogwild,
        Algorithm::Leashed { persistence: None },
    ] {
        let mut c = cfg(algo, 1);
        c.max_updates = 5; // barely run; we only need initial_loss
        c.epsilons = vec![1e-12];
        c.max_wall = Duration::from_secs(5);
        let r = train(&p, &c);
        match first {
            None => first = Some(r.initial_loss),
            Some(f) => assert_eq!(f, r.initial_loss, "{algo}"),
        }
    }
}

// ---------------------------------------------------------------------
// Convergence tier (#[ignore] — `cargo test -- --ignored`, CI slow-suite)
// ---------------------------------------------------------------------

#[test]
#[ignore = "30 s-budget convergence run; exercised by the CI slow-suite job"]
fn full_lineup_converges_on_mlp_digits() {
    let p = mini_mlp_problem();
    for algo in Algorithm::paper_lineup() {
        let r = train(&p, &cfg(algo, 2));
        assert!(!r.crashed, "{algo}: {}", r.summary());
        assert!(
            r.fully_converged(),
            "{algo} failed 50%-convergence: {}",
            r.summary()
        );
        assert!(r.published > 50, "{algo}: too few updates");
    }
}

#[test]
#[ignore = "30 s-budget convergence run; exercised by the CI slow-suite job"]
fn cnn_workload_trains_and_has_high_tc_tu_ratio() {
    // The CNN's Tc/Tu ratio is the paper's explanation for its low
    // contention (Fig. 9); verify the ratio ordering holds end-to-end.
    let data = SynthDigits::default().generate(300, 2);
    let p = NnProblem::new(leashed_sgd::nn::cnn_mnist(), data, 16, 128);
    let mut c = cfg(Algorithm::Leashed { persistence: None }, 2);
    c.epsilons = vec![0.9]; // shallow target: the CNN is slow per gradient
    let r = train(&p, &c);
    assert!(!r.crashed, "{}", r.summary());
    assert!(r.published > 10);
    let ratio = r.tc.mean() / r.tu.mean().max(1e-12);
    assert!(
        ratio > 50.0,
        "CNN Tc/Tu ratio should be large, got {ratio:.1}"
    );
}

#[test]
#[ignore = "three 30 s-budget convergence runs; exercised by the CI slow-suite job"]
fn leashed_persistence_zero_has_lowest_tau_s() {
    // §IV.2 ordering: mean τs(ps0) ≤ mean τs(ps1) ≤ mean τs(ps∞), with
    // ps0 exactly zero.
    let p = mini_mlp_problem();
    let mut means = Vec::new();
    for tp in [Some(0), Some(1), None] {
        let mut c = cfg(Algorithm::Leashed { persistence: tp }, 4);
        c.epsilons = vec![0.7];
        let r = train(&p, &c);
        means.push((tp, r.tau_s.mean()));
    }
    assert_eq!(means[0].1, 0.0, "Tp=0 forces τs = 0: {means:?}");
    assert!(
        means[0].1 <= means[2].1 + 1e-9,
        "τs(ps0) must not exceed τs(ps∞): {means:?}"
    );
}

#[test]
#[ignore = "convergence-budget run; exercised by the CI slow-suite job"]
fn statistical_efficiency_is_recorded_when_converged() {
    let p = mini_mlp_problem();
    let r = train(&p, &cfg(Algorithm::Hogwild, 2));
    assert!(r.fully_converged(), "{}", r.summary());
    let (eps, iters) = r.iters_to_eps[0];
    assert_eq!(eps, 0.5);
    let iters = iters.expect("converged run must record iterations");
    assert!(iters > 0 && iters <= r.published);
}
