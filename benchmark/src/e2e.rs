//! The end-to-end half: untraced, budget-terminated `lsgd_core::train`
//! calls for the whole lineup, the checks on their outputs, and every
//! metric that is read off a `RunResult`.

use crate::report::{Checks, Metrics};
use crate::spec::{self, Eps, Sizes, Workload, ALGOS};
use crate::stats::{median, Value};
use lsgd_core::prelude::*;

/// The `TrainConfig` of every timed and warm-up call. ε is not among the
/// thresholds: the unreachable 0.0 keeps `train` from returning early, and
/// time-to-ε is read from the loss trace afterwards (see [`crossing`]).
pub fn train_config(
    wl: &Workload,
    sizes: &Sizes,
    tag: &str,
    seed: u64,
    max_updates: u64,
) -> TrainConfig {
    TrainConfig {
        algorithm: spec::algorithm(tag),
        threads: spec::THREADS,
        eta: wl.eta,
        epsilons: vec![0.0],
        max_updates,
        eval_every: sizes.eval_every,
        seed,
        staleness_cap: 1024,
        ..TrainConfig::default()
    }
}

/// One `train` call and when it reached its repetition's ε.
pub struct Timed {
    pub run: RunResult,
    /// Seconds to ε; the budget's wall time on a workload without an ε;
    /// `None` when ε was missed (a failed check).
    pub time_to_eps: Option<f64>,
}

/// Every algorithm's repetitions: `runs[a][rep]`, `a` indexing [`ALGOS`].
pub struct Lineup {
    pub runs: Vec<Vec<Timed>>,
}

/// First time the loss trace is at or below `level`, interpolated between
/// the two monitor observations around the crossing: the monitor looks
/// every 25 ms plus one evaluation, which alone is 2–4 % of a time-to-ε
/// here, so `RunResult::time_to`'s first-observation time would spend a
/// third of the metric's bound on quantisation.
pub fn crossing(points: &[(f64, f64)], level: f64) -> Option<f64> {
    if points.first().is_some_and(|&(_, v)| v <= level) {
        return Some(points[0].0);
    }
    points.windows(2).find(|w| w[1].1 <= level).map(|w| {
        let ((t0, v0), (t1, v1)) = (w[0], w[1]);
        t0 + (t1 - t0) * (v0 - level) / (v0 - v1)
    })
}

/// The loss `seq` has reached after `share` of its budget, as a share of
/// `f(θ₀)`.
fn seq_level(seq: &RunResult, share: f64, budget: u64) -> f64 {
    let at = share * budget as f64 / seq.updates_per_sec();
    let loss = seq.loss_trace.value_at(at).unwrap_or(seq.initial_loss);
    loss / seq.initial_loss
}

/// The output checks of one `train` call.
fn run_failures(t: &Timed, tag: &str, eps: Option<f64>, budget: u64) -> Vec<String> {
    let run = &t.run;
    let mut f = Vec::new();
    if run.crashed || !run.final_loss.is_finite() {
        f.push("non-finite loss (crashed)".to_string());
    }
    if run.published < budget {
        f.push(format!("published {} < budget {budget}", run.published));
    }
    if !run.worker_crashes.is_empty() {
        f.push(format!(
            "{} contained worker panics",
            run.worker_crashes.len()
        ));
    }
    if run.degraded_snapshots != 0 {
        f.push(format!("{} degraded snapshots", run.degraded_snapshots));
    }
    match eps {
        Some(eps) if t.time_to_eps.is_none() => f.push(format!(
            "missed eps {eps:.4} within budget (best {:.4})",
            run.best_loss / run.initial_loss
        )),
        None if run.best_loss > 1.01 * run.initial_loss => {
            f.push(format!("best loss {} above 1.01 f(theta0)", run.best_loss));
        }
        _ => {}
    }
    if tag == "seq" && run.staleness.mean() != 0.0 {
        f.push(format!("seq staleness {}", run.staleness.mean()));
    }
    f
}

/// Runs `reps` repetitions of the lineup, repetitions outermost so slow
/// drift of the machine lands on every algorithm alike, and checks every
/// run.
pub fn run_lineup<P: Problem>(
    problem: &P,
    wl: &Workload,
    sizes: &Sizes,
    seed: u64,
    reps: usize,
    checks: &mut Checks,
) -> Lineup {
    let (budget, rule) = (sizes.budget, sizes.eps);
    let mut lineup = Lineup {
        runs: ALGOS.iter().map(|_| Vec::with_capacity(reps)).collect(),
    };
    for rep in 0..reps {
        let mut eps = match rule {
            Eps::Level(e) => Some(e),
            // Set below by `seq`, which leads the lineup.
            Eps::None | Eps::SeqAt { .. } => None,
        };
        for (a, tag) in ALGOS.iter().enumerate() {
            let cfg = train_config(wl, sizes, tag, seed + 1000 * rep as u64, budget);
            let run = train(problem, &cfg);
            let mut failures = Vec::new();
            if let (Eps::SeqAt { share, ceiling }, "seq") = (rule, *tag) {
                let e = seq_level(&run, share, budget);
                eps = Some(e);
                // Without a ceiling a build that converges worse everywhere
                // would only loosen its own target.
                if e > ceiling {
                    failures.push(format!(
                        "only at {e:.4} of f(theta0) after {share} of the budget (ceiling {ceiling})"
                    ));
                }
            }
            let time_to_eps = match eps {
                Some(e) => crossing(run.loss_trace.points(), e * run.initial_loss),
                None => Some(run.wall.as_secs_f64()),
            };
            let timed = Timed { run, time_to_eps };
            failures.extend(run_failures(&timed, tag, eps, budget));
            checks.attempt(&format!("{tag} rep {rep}"), failures);
            lineup.runs[a].push(timed);
        }
    }
    lineup
}

impl Lineup {
    /// Median over an algorithm's repetitions of `f(run)`, skipping runs
    /// where it is undefined (those already failed a check).
    fn over_reps(&self, a: usize, f: impl Fn(&Timed) -> Option<f64>) -> Option<Value> {
        let xs: Vec<f64> = self.runs[a].iter().filter_map(f).collect();
        (!xs.is_empty()).then(|| median(&xs))
    }

    fn put(&self, m: &mut Metrics, name: String, a: usize, f: impl Fn(&Timed) -> Option<f64>) {
        if let Some(v) = self.over_reps(a, f) {
            m.insert(name, v);
        }
    }

    /// `updates_per_s.<a>` and `time_to_eps_s.<a>`. With fewer than two
    /// cores an `m = 2` wall clock is scheduler noise, so those are left
    /// out and only `seq` is reported.
    pub fn end_to_end_metrics(&self, m: &mut Metrics, nproc: usize) {
        for (a, tag) in ALGOS.iter().enumerate() {
            if spec::workers(tag) > nproc {
                continue;
            }
            self.put(m, format!("updates_per_s.{tag}"), a, |t| {
                Some(t.run.updates_per_sec())
            });
            self.put(m, format!("time_to_eps_s.{tag}"), a, |t| t.time_to_eps);
        }
    }

    /// Section A of the per-layer metrics: everything a `RunResult` holds.
    pub fn layer_metrics(&self, m: &mut Metrics) {
        let us = 1e6;
        for (a, tag) in ALGOS.iter().enumerate() {
            self.put(m, format!("trainer.iter_mean_us.{tag}"), a, |t| {
                Some(t.run.iter_time.mean() * us)
            });
            self.put(m, format!("trainer.tc_mean_us.{tag}"), a, |t| {
                Some(t.run.tc.mean() * us)
            });
            self.put(m, format!("trainer.tu_mean_us.{tag}"), a, |t| {
                Some(t.run.tu.mean() * us)
            });
            self.put(m, format!("trainer.staleness_mean.{tag}"), a, |t| {
                Some(t.run.staleness.mean())
            });
            // Time-to-ε in updates; without an ε, the budget's updates.
            self.put(m, format!("trainer.updates_to_eps.{tag}"), a, |t| {
                t.time_to_eps.map(|s| s * t.run.updates_per_sec())
            });
            self.put(m, format!("mem.peak_bytes.{tag}"), a, |t| {
                Some(t.run.mem_peak_bytes as f64)
            });
        }
        let seq_rate = self.over_reps(0, |t| Some(t.run.updates_per_sec()));
        for (a, tag) in ALGOS.iter().enumerate().skip(1) {
            let rate = self.over_reps(a, |t| Some(t.run.updates_per_sec()));
            if let (Some(rate), Some(seq)) = (rate, seq_rate) {
                let eff = rate.value / (spec::THREADS as f64 * seq.value);
                m.insert(
                    format!("trainer.scaling_eff.{tag}"),
                    Value { value: eff, ..rate },
                );
            }
        }
        // The two LAU-SPC stores, `lsh` and `shard`.
        for (a, tag) in ALGOS.iter().enumerate().skip(3) {
            let steps = |r: &RunResult| (r.published + r.aborted).max(1) as f64;
            self.put(m, format!("publish.failed_cas_per_update.{tag}"), a, |t| {
                Some(t.run.failed_cas as f64 / t.run.published.max(1) as f64)
            });
            self.put(m, format!("publish.aborted_share.{tag}"), a, |t| {
                Some(t.run.aborted as f64 / steps(&t.run))
            });
            self.put(m, format!("pool.reuse_share.{tag}"), a, |t| {
                Some(t.run.mem_reuses as f64 / (t.run.mem_reuses + t.run.mem_allocs).max(1) as f64)
            });
            if *tag == "shard" {
                self.put(m, "shard.dirty_mean".into(), a, |t| {
                    Some(t.run.dirty_shards.mean())
                });
                self.put(m, "shard.degraded_share".into(), a, |t| {
                    Some(t.run.degraded_snapshots as f64 / steps(&t.run))
                });
            } else {
                self.put(m, "pool.outstanding_peak.lsh".into(), a, |t| {
                    Some(t.run.pool_outstanding_peak as f64)
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossing_interpolates_the_first_descent_through_the_level() {
        let trace = [(0.0, 2.0), (1.0, 1.5), (2.0, 0.5), (3.0, 0.4)];
        assert_eq!(crossing(&trace, 1.0), Some(1.5));
        assert_eq!(crossing(&trace, 1.5), Some(1.0));
        assert_eq!(crossing(&trace, 2.5), Some(0.0));
        assert_eq!(crossing(&trace, 0.1), None);
        // Noise that dips below and comes back still counts from the dip.
        let noisy = [(0.0, 2.0), (1.0, 0.9), (2.0, 1.2), (3.0, 0.8)];
        assert!((crossing(&noisy, 1.0).unwrap() - 10.0 / 11.0).abs() < 1e-12);
    }
}
