//! `benchmark compare <a.jsonl> <b.jsonl>`: the A/A and before/after
//! tool. Both inputs are `--out` files, one record per run; a workload
//! present in both is compared metric by metric.

use crate::spec::{self, MetricDef};
use crate::stats::{median, spread};
use lsgd_trace::chrome::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `values[workload][metric]`, one entry per run in the file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn text(j: Option<&Json>) -> Option<&str> {
    match j {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

/// Parses one `--out` file.
pub fn parse_runs(content: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (i, line) in content
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = parse_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = text(rec.get("stamp").and_then(|s| s.get("workload")))
            .ok_or_else(|| format!("line {}: no stamp.workload", i + 1))?;
        let Some(Json::Obj(metrics)) = rec.get("metrics") else {
            return Err(format!("line {}: no metrics object", i + 1));
        };
        let per_metric = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(Json::Num(v)) = m.get("value") {
                per_metric.entry(name.clone()).or_default().push(*v);
            }
        }
    }
    Ok(runs)
}

/// How one (metric, workload) pair came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and both sides steadier than the bound.
    Ok,
    /// Worse by more than the bound.
    Regression,
    /// An input's own spread exceeds the bound: the pair says nothing.
    Unresolved,
    /// A per-layer metric: shown, not judged.
    Unbounded,
}

/// `b` against `a`: the share of `a`'s median by which `b`'s is worse
/// (negative when better), and the verdict against the metric's bound.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (median(a).value, median(b).value);
    let change = (mb - ma) / ma.abs();
    let worse = if def.better == "lower" {
        change
    } else {
        -change
    };
    let verdict = match def.bound {
        None => Verdict::Unbounded,
        Some(bound) if spread(a).max(spread(b)) > bound => Verdict::Unresolved,
        Some(bound) if worse > bound => Verdict::Regression,
        Some(_) => Verdict::Ok,
    };
    (worse, verdict)
}

/// One row per (metric, workload) present in both inputs, and whether any
/// row regressed.
pub fn compare(a: &Runs, b: &Runs) -> (String, bool) {
    let defs: Vec<MetricDef> = spec::end_to_end()
        .into_iter()
        .chain(spec::per_layer())
        .collect();
    let mut table = format!(
        "{:<14} {:<36} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict\n",
        "workload", "metric", "median a", "median b", "worse", "bound", "spread", "n a/b"
    );
    let mut regressed = false;
    for (workload, ma) in a {
        let Some(mb) = b.get(workload) else { continue };
        for def in &defs {
            let (Some(xa), Some(xb)) = (ma.get(&def.name), mb.get(&def.name)) else {
                continue;
            };
            let (worse, verdict) = judge(def, xa, xb);
            regressed |= verdict == Verdict::Regression;
            let bound = def
                .bound
                .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0));
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
                Verdict::Unbounded => "-",
            };
            let _ = writeln!(
                table,
                "{:<14} {:<36} {:>14.6} {:>14.6} {:>+7.1}% {:>8} {:>7.1}% {:>3}/{:<3} {label}",
                workload,
                def.name,
                median(xa).value,
                median(xb).value,
                worse * 100.0,
                bound,
                spread(xa).max(spread(xb)) * 100.0,
                xa.len(),
                xb.len(),
            );
        }
    }
    (table, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: &'static str, bound: Option<f64>) -> MetricDef {
        MetricDef {
            name: "x".into(),
            unit: "s",
            better,
            bound,
        }
    }

    #[test]
    fn judges_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let lower = def("lower", Some(0.1));
        assert_eq!(judge(&lower, &steady, &slower).1, Verdict::Regression);
        assert_eq!(judge(&lower, &slower, &steady).1, Verdict::Ok);
        let higher = def("higher", Some(0.1));
        assert_eq!(judge(&higher, &steady, &slower).1, Verdict::Ok);
        assert_eq!(judge(&higher, &slower, &steady).1, Verdict::Regression);
        // A side whose own quartiles are further apart than the bound
        // cannot resolve a change of the bound's size.
        let noisy = [70.0, 130.0, 100.0, 85.0, 115.0];
        assert_eq!(judge(&lower, &steady, &noisy).1, Verdict::Unresolved);
        assert_eq!(
            judge(&def("lower", None), &steady, &slower).1,
            Verdict::Unbounded
        );
        let (worse, _) = judge(&lower, &steady, &slower);
        assert!((worse - 0.2).abs() < 1e-9);
    }

    #[test]
    fn parses_out_records_and_flags_a_regression() {
        let rec = |w: &str, v: f64| {
            format!(
                r#"{{"stamp": {{"workload": "{w}"}}, "metrics": {{"setup_s": {{"value": {v}, "unit": "s", "n": 3}}}}}}"#
            )
        };
        let a = parse_runs(&format!(
            "{}\n{}\n\n{}\n",
            rec("mlp", 1.0),
            rec("mlp", 1.02),
            rec("cnn", 2.0)
        ))
        .unwrap();
        assert_eq!(a["mlp"]["setup_s"], [1.0, 1.02]);
        let (same, regressed) = compare(&a, &a);
        assert!(!regressed, "A/A is clean");
        assert_eq!(same.lines().count(), 3);
        let b = parse_runs(&format!("{}\n{}\n", rec("mlp", 1.5), rec("mlp", 1.52))).unwrap();
        let (table, regressed) = compare(&a, &b);
        assert!(regressed, "50 % slower set-up");
        assert!(table.contains("REGRESSION") && !table.contains("cnn"));
        assert!(parse_runs("{\"metrics\": {}}").is_err());
    }
}
