//! Results of one training run: everything the paper's figures plot.

use crate::algorithm::Algorithm;
use lsgd_metrics::{Histogram, OnlineStats, Outcome, Series};
use lsgd_trace::PhaseStats;
use std::time::Duration;

/// The per-update unit-bin histogram trio every run records (total
/// staleness τ, scheduling staleness τs, dirty shards per publication) —
/// one constructor so the trainer's worker stats, merged results, and
/// test fixtures can't drift apart on caps.
#[derive(Debug, Clone)]
pub struct UpdateHistograms {
    /// Total staleness distribution τ (Fig. 6).
    pub staleness: Histogram,
    /// Scheduling staleness τs (Leashed-SGD; §IV.2).
    pub tau_s: Histogram,
    /// Dirty shards per update (sharded Leashed-SGD only).
    pub dirty_shards: Histogram,
}

impl UpdateHistograms {
    /// Creates the trio with one shared unit-bin cap.
    pub fn new(cap: usize) -> Self {
        UpdateHistograms {
            staleness: Histogram::new(cap),
            tau_s: Histogram::new(cap),
            dirty_shards: Histogram::new(cap),
        }
    }

    /// Merges another trio (caps must match, as for [`Histogram::merge`]).
    pub fn merge(&mut self, other: &UpdateHistograms) {
        self.staleness.merge(&other.staleness);
        self.tau_s.merge(&other.tau_s);
        self.dirty_shards.merge(&other.dirty_shards);
    }
}

/// One contained trainer-worker panic: the run kept going on the
/// surviving workers; this records who died and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerCrash {
    /// The crashed worker's id.
    pub worker: usize,
    /// The panic payload, stringified (`"<non-string panic payload>"`
    /// when the payload was neither `&str` nor `String`).
    pub message: String,
}

/// Aggregated outcome of a [`crate::trainer::train`] run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The algorithm configuration.
    pub algorithm: Algorithm,
    /// Number of worker threads `m`.
    pub threads: usize,
    /// Loss at initialisation `f(θ₀)`.
    pub initial_loss: f64,
    /// Loss at the last monitor observation.
    pub final_loss: f64,
    /// Best (lowest) observed loss.
    pub best_loss: f64,
    /// True if the run hit numerical instability (paper's "Crash").
    pub crashed: bool,
    /// Per-ε outcome: `(fraction, Converged(time)/Diverged/Crashed)`.
    pub outcomes: Vec<(f64, Outcome)>,
    /// Published updates at the moment each ε was reached (statistical
    /// efficiency, Fig. 8 right).
    pub iters_to_eps: Vec<(f64, Option<u64>)>,
    /// Evaluation loss over wall-clock time (Fig. 5).
    pub loss_trace: Series,
    /// Live ParameterVector bytes over time (Fig. 10).
    pub mem_trace: Series,
    /// Total staleness distribution τ (Fig. 6).
    pub staleness: Histogram,
    /// Scheduling staleness τs (Leashed-SGD; §IV.2).
    pub tau_s: Histogram,
    /// Dirty shards per update — how many shard domains each publication
    /// copied + CASed (sharded Leashed-SGD only; empty otherwise).
    pub dirty_shards: Histogram,
    /// Successfully published updates.
    pub published: u64,
    /// Updates abandoned via the persistence bound.
    pub aborted: u64,
    /// Total failed CAS attempts (Leashed-SGD).
    pub failed_cas: u64,
    /// Gradient computation time Tc in seconds (Fig. 9 left).
    pub tc: OnlineStats,
    /// Update application time Tu in seconds (Fig. 9 right).
    pub tu: OnlineStats,
    /// Full iteration latency in seconds (Fig. 3 right).
    pub iter_time: OnlineStats,
    /// Total wall-clock duration of the run.
    pub wall: Duration,
    /// Peak live parameter-buffer bytes.
    pub mem_peak_bytes: usize,
    /// Slots the pools allocated: the high-water mark of outstanding
    /// slots (Leashed; Lemma 2).
    pub pool_outstanding_peak: usize,
    /// Fresh parameter-buffer allocations during the run.
    pub mem_allocs: u64,
    /// Acquires served by a recycled pool slot.
    pub mem_reuses: u64,
    /// Per-phase latency histograms (snapshot-read / grad-compute / pack
    /// / publish / monitor-eval) with p50/p95/p99 — populated only for
    /// traced runs (`--features trace` + `LSGD_TRACE=1`), empty (and
    /// allocation-free) otherwise.
    pub phase_stats: PhaseStats,
    /// Per-run protocol counter deltas from `lsgd_trace` (`(name, count)`
    /// pairs: publish attempts/retries/aborts, snapshot retries, queue
    /// and scheduler events). Empty for untraced runs.
    pub trace_counters: Vec<(&'static str, u64)>,
    /// Workers that panicked and were contained (the run continued on
    /// the survivors). Empty for a clean run.
    pub worker_crashes: Vec<WorkerCrash>,
    /// Consistent-mode snapshots that exhausted their validate budget
    /// and degraded to a fresh per-shard Fast read.
    pub degraded_snapshots: u64,
    /// Worker stalls detected by the monitor's heartbeat watchdog (one
    /// per entered stall span, not per poll).
    pub heartbeat_stalls: u64,
}

impl RunResult {
    /// Wall-clock seconds to reach the ε fraction, if converged.
    pub fn time_to(&self, fraction: f64) -> Option<f64> {
        self.outcomes
            .iter()
            .find(|(f, _)| (*f - fraction).abs() < 1e-12)
            .and_then(|(_, o)| o.secs())
    }

    /// Outcome for the ε fraction.
    pub fn outcome_for(&self, fraction: f64) -> Option<Outcome> {
        self.outcomes
            .iter()
            .find(|(f, _)| (*f - fraction).abs() < 1e-12)
            .map(|(_, o)| *o)
    }

    /// Published updates per second (throughput).
    pub fn updates_per_sec(&self) -> f64 {
        self.published as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// True if every tracked ε was reached.
    pub fn fully_converged(&self) -> bool {
        self.outcomes.iter().all(|(_, o)| o.converged())
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        let conv: Vec<String> = self
            .outcomes
            .iter()
            .map(|(f, o)| match o {
                Outcome::Converged(d) => format!("{:.0}%:{:.2}s", f * 100.0, d.as_secs_f64()),
                Outcome::Diverged => format!("{:.0}%:div", f * 100.0),
                Outcome::Crashed => format!("{:.0}%:crash", f * 100.0),
            })
            .collect();
        let dirty = if self.dirty_shards.count() > 0 {
            format!(" dirty(mean {:.1})", self.dirty_shards.mean())
        } else {
            String::new()
        };
        let faults = if self.worker_crashes.is_empty() && self.heartbeat_stalls == 0 {
            String::new()
        } else {
            format!(
                " faults(wcrash {} stall {})",
                self.worker_crashes.len(),
                self.heartbeat_stalls
            )
        };
        format!(
            "{} m={} upd={} ({:.0}/s) abort={} loss {:.3}->{:.3} [{}] stale(mean {:.1}){}{} mem {}KB",
            self.algorithm.label(),
            self.threads,
            self.published,
            self.updates_per_sec(),
            self.aborted,
            self.initial_loss,
            self.final_loss,
            conv.join(" "),
            self.staleness.mean(),
            dirty,
            faults,
            self.mem_peak_bytes / 1024,
        )
    }

    /// Multi-line observability report for traced runs: the per-phase
    /// p50/p95/p99 table plus nonzero protocol counters. Empty string
    /// when the run was untraced (so callers can print unconditionally).
    pub fn trace_report(&self) -> String {
        let mut s = self.phase_stats.table();
        let nonzero: Vec<_> = self
            .trace_counters
            .iter()
            .filter(|&&(_, v)| v != 0)
            .collect();
        if !nonzero.is_empty() {
            let mut t = lsgd_metrics::table::Table::new(vec!["counter", "count"]);
            for &&(name, v) in &nonzero {
                t.row(vec![name.to_string(), v.to_string()]);
            }
            s.push_str(&t.render());
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> RunResult {
        RunResult {
            algorithm: Algorithm::Hogwild,
            threads: 4,
            initial_loss: 2.3,
            final_loss: 0.5,
            best_loss: 0.4,
            crashed: false,
            outcomes: vec![
                (0.5, Outcome::Converged(Duration::from_secs_f64(1.5))),
                (0.1, Outcome::Diverged),
            ],
            iters_to_eps: vec![(0.5, Some(100)), (0.1, None)],
            loss_trace: Series::new(),
            mem_trace: Series::new(),
            staleness: Histogram::new(8),
            tau_s: Histogram::new(8),
            dirty_shards: Histogram::new(8),
            phase_stats: PhaseStats::empty(),
            trace_counters: Vec::new(),
            published: 500,
            aborted: 0,
            failed_cas: 3,
            tc: OnlineStats::new(),
            tu: OnlineStats::new(),
            iter_time: OnlineStats::new(),
            wall: Duration::from_secs(2),
            mem_peak_bytes: 4096,
            pool_outstanding_peak: 0,
            mem_allocs: 0,
            mem_reuses: 0,
            worker_crashes: Vec::new(),
            degraded_snapshots: 0,
            heartbeat_stalls: 0,
        }
    }

    #[test]
    fn time_to_finds_matching_fraction() {
        let r = dummy();
        assert_eq!(r.time_to(0.5), Some(1.5));
        assert_eq!(r.time_to(0.1), None);
        assert_eq!(r.time_to(0.9), None);
    }

    #[test]
    fn throughput_is_published_over_wall() {
        let r = dummy();
        assert!((r.updates_per_sec() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn fully_converged_requires_all() {
        let mut r = dummy();
        assert!(!r.fully_converged());
        r.outcomes = vec![(0.5, Outcome::Converged(Duration::from_secs(1)))];
        assert!(r.fully_converged());
    }

    #[test]
    fn summary_mentions_algorithm_and_outcomes() {
        let s = dummy().summary();
        assert!(s.contains("HOG"));
        assert!(s.contains("50%:1.50s"));
        assert!(s.contains("10%:div"));
    }

    #[test]
    fn summary_reports_contained_faults_only_when_present() {
        let mut r = dummy();
        assert!(!r.summary().contains("faults"));
        r.worker_crashes.push(WorkerCrash { worker: 2, message: "boom".into() });
        r.heartbeat_stalls = 3;
        let s = r.summary();
        assert!(s.contains("faults(wcrash 1 stall 3)"), "{s}");
    }

    #[test]
    fn update_histograms_share_one_cap_and_merge() {
        let mut a = UpdateHistograms::new(16);
        let mut b = UpdateHistograms::new(16);
        a.staleness.record(3);
        b.staleness.record(5);
        b.dirty_shards.record(2);
        a.merge(&b);
        assert_eq!(a.staleness.count(), 2);
        assert_eq!(a.dirty_shards.count(), 1);
        assert_eq!(a.tau_s.count(), 0);
    }

    #[test]
    fn untraced_run_has_empty_trace_report() {
        let r = dummy();
        assert!(r.phase_stats.is_empty());
        assert!(r.trace_report().is_empty());
    }
}
