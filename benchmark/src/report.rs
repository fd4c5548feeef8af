//! What a run produces: metric values, the outcome of the output checks,
//! the environment stamp, and their text and JSON forms.

use crate::spec::MetricDef;
use crate::stats::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

/// Metric values by name.
pub type Metrics = BTreeMap<String, Value>;

/// Tally of the output checks. An attempt is one `train` call or one
/// traced loop; it fails when any of its checks does.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// The issue's statements about how the workloads separate the layers
    /// at HEAD: reported, never failing, because the optimisations this
    /// benchmark exists to judge are meant to move them.
    pub separation: Vec<String>,
}

impl Checks {
    /// Records one attempt with the failures its checks found.
    pub fn attempt(&mut self, what: &str, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        self.failures
            .extend(failures.into_iter().map(|f| format!("{what}: {f}")));
    }

    /// Records whether a statement about HEAD's layer shares still holds.
    pub fn separates(&mut self, holds: bool, statement: String) {
        let verdict = if holds { "holds" } else { "DOES NOT HOLD" };
        self.separation.push(format!("{verdict}: {statement}"));
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Where and on what the numbers were taken.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub nproc: usize,
    pub runtime_threads: usize,
    pub cpu_features: String,
    pub git_head: String,
    pub rustc: String,
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub reps: usize,
    pub traced: bool,
    pub smoke: bool,
}

/// Standard output of `program args`, trimmed; "unknown" when it cannot
/// run (the driver's checkout is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads visible to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut found = Vec::new();
        if std::arch::is_x86_feature_detected!("avx2") {
            found.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            found.push("fma");
        }
        found.join("+")
    }
    #[cfg(not(target_arch = "x86_64"))]
    String::new()
}

impl Stamp {
    pub fn take(opts: &crate::Opts, reps: usize) -> Stamp {
        Stamp {
            nproc: nproc(),
            runtime_threads: lsgd_runtime::global().threads(),
            cpu_features: cpu_features(),
            git_head: tool_line("git", &["rev-parse", "HEAD"]),
            rustc: tool_line("rustc", &["--version"]),
            workload: opts.workload.name.to_string(),
            seed: opts.seed,
            seconds: opts.seconds,
            reps,
            traced: opts.trace,
            smoke: opts.smoke,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"runtime_threads\": {}, \"cpu_features\": \"{}\", \"git_head\": \"{}\", \"rustc\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"reps\": {}, \"traced\": {}, \"smoke\": {}}}",
            self.nproc,
            self.runtime_threads,
            escape(&self.cpu_features),
            escape(&self.git_head),
            escape(&self.rustc),
            self.workload,
            self.seed,
            self.seconds,
            self.reps,
            self.traced,
            self.smoke,
        )
    }
}

/// JSON string escaping for the few free-text fields (tool output,
/// failure lines).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finished run.
pub struct Report {
    pub stamp: Stamp,
    pub metrics: Metrics,
    pub checks: Checks,
}

impl Report {
    /// The metrics of `defs` the run has a finite value for, in `defs`
    /// order (a non-finite number is not JSON).
    fn listed<'a>(&'a self, defs: &'a [MetricDef]) -> Vec<(&'a MetricDef, &'a Value)> {
        defs.iter()
            .filter_map(|d| self.metrics.get(&d.name).map(|v| (d, v)))
            .filter(|(_, v)| v.value.is_finite())
            .collect()
    }

    /// Names in `defs` the run has no finite value for.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<String> {
        defs.iter()
            .filter(|d| {
                !self
                    .metrics
                    .get(&d.name)
                    .is_some_and(|v| v.value.is_finite())
            })
            .map(|d| d.name.clone())
            .collect()
    }

    /// One line per metric: name, value, unit, sample count, quantile.
    pub fn text(&self, defs: &[MetricDef]) -> String {
        let mut out = format!("# {}\n", self.stamp.json());
        for (d, v) in self.listed(defs) {
            let _ = write!(
                out,
                "{:<36} {:>16.6} {:<10} n={}",
                d.name, v.value, d.unit, v.n
            );
            if let Some(q) = v.quantile {
                let _ = write!(out, " q={q:.4}");
            }
            out.push('\n');
        }
        for line in &self.checks.separation {
            let _ = writeln!(out, "# separation {line}");
        }
        for line in &self.checks.failures {
            let _ = writeln!(out, "# FAILED {line}");
        }
        out
    }

    fn metrics_json(&self, defs: &[MetricDef], detail: bool) -> String {
        let rows: Vec<String> = self
            .listed(defs)
            .into_iter()
            .map(|(d, v)| {
                let mut row = format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                    d.name, v.value, d.unit
                );
                if detail {
                    let _ = write!(row, ", \"n\": {}", v.n);
                    if let Some(q) = v.quantile {
                        let _ = write!(row, ", \"quantile\": {q}");
                    }
                }
                row.push('}');
                row
            })
            .collect();
        format!("{{{}}}", rows.join(", "))
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.checks.correct(),
            self.checks.attempted,
            self.checks.failed,
            self.metrics_json(defs, false),
        )
    }

    /// The `--out` record `compare` reads: the result line's fields plus
    /// the stamp, sample counts, quantiles and check lines.
    pub fn record(&self, defs: &[MetricDef]) -> String {
        let lines = |xs: &[String]| {
            let q: Vec<String> = xs.iter().map(|s| format!("\"{}\"", escape(s))).collect();
            q.join(", ")
        };
        format!(
            "{{\"stamp\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"separation\": [{}], \"metrics\": {}}}",
            self.stamp.json(),
            self.checks.correct(),
            self.checks.attempted,
            self.checks.failed,
            lines(&self.checks.failures),
            lines(&self.checks.separation),
            self.metrics_json(defs, true),
        )
    }
}
