//! The repo benchmark: updates/s and time-to-ε per algorithm on four
//! workloads (`--trace 0`), and a layer-by-layer traced run (`--trace 1`).
//! See `README.md` beside `Cargo.toml`; `BENCHMARK.json` at the repo root
//! is this program's `--list`.

mod compare;
mod e2e;
mod probes;
mod report;
mod spec;
mod stats;
mod traced;

use lsgd_core::prelude::*;
use lsgd_data::sparse_logreg::sparse_logreg;
use lsgd_data::SynthDigits;
use report::{Checks, Metrics, Report, Stamp};
use spec::{Kind, Sizes, Workload};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  benchmark --workload <mlp|cnn|sparse|sparse_wide> [--seed N] [--seconds S] [--trace 0|1]
            [--out runs.jsonl] [--spans trace.json] [--smoke]
  benchmark compare <a.jsonl> <b.jsonl>
  benchmark --list";

/// A parsed `--workload` invocation.
pub struct Opts {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Appends the run's record here, for `compare`.
    pub out: Option<PathBuf>,
    /// Writes the traced run's spans here as a Chrome trace.
    pub spans: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: &spec::WORKLOADS[0],
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        spans: None,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                opts.workload =
                    spec::workload(name).ok_or_else(|| format!("unknown workload {name}"))?;
                named = true;
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&opts.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            "--spans" => opts.spans = Some(PathBuf::from(value()?)),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// Variables that silently change what `shard`, the probes or the GEMM
/// fan-out do; a run under any of them measures something else.
const FORBIDDEN_ENV: [&str; 5] = [
    "LSGD_SHARDS",
    "LSGD_TRACE",
    "LSGD_TRACE_JSON",
    "LSGD_FAULT",
    "LSGD_GEMM_THREADS",
];

/// Pins the environment before the global runtime is first touched.
fn pin_env() -> Result<(), String> {
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; unset it, the benchmark fixes its own configuration"
        ));
    }
    std::env::set_var("LSGD_THREADS", spec::THREADS.to_string());
    Ok(())
}

/// One set-up: generate the data, build the problem, and give every
/// algorithm a short `train` call so the runtime, the pool, the packed
/// panels and any lazy initialisation are in place before timing.
fn set_up<P: Problem>(opts: &Opts, sizes: &Sizes, build: &impl Fn(u64) -> P) -> P {
    let problem = build(opts.seed);
    for tag in spec::ALGOS {
        let cfg = e2e::train_config(opts.workload, sizes, tag, opts.seed, sizes.warmup_updates);
        train(&problem, &cfg);
    }
    problem
}

/// The whole run on one problem type.
fn run<P: Problem>(opts: &Opts, build: impl Fn(u64) -> P) -> Report {
    let wl = opts.workload;
    let sizes = wl.sizes(opts.smoke);
    let mut metrics = Metrics::new();
    let mut checks = Checks::default();

    let mut setup_s = Vec::with_capacity(sizes.setups);
    let mut problem = None;
    for _ in 0..sizes.setups {
        let start = Instant::now();
        problem = Some(set_up(opts, &sizes, &build));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let problem = problem.expect("at least one set-up");
    metrics.insert("setup_s".into(), stats::median(&setup_s));

    // The traced run spends two thirds of its time on the loops and
    // probes, so it takes one repetition of the lineup.
    let reps = if opts.trace || opts.smoke {
        1
    } else {
        (opts.seconds / spec::REP_SECONDS).max(1) as usize
    };
    let lineup = e2e::run_lineup(&problem, wl, &sizes, opts.seed, reps, &mut checks);
    if opts.trace {
        lineup.layer_metrics(&mut metrics);
        let spans = traced::run(
            &problem,
            wl,
            sizes.trace_steps,
            opts.seed,
            &mut metrics,
            &mut checks,
        );
        if let Some(path) = &opts.spans {
            if let Err(e) = std::fs::write(path, traced::chrome_trace(&spans)) {
                checks.attempt(
                    "span file",
                    vec![format!("cannot write {}: {e}", path.display())],
                );
            }
        }
        probes::run(&problem, wl, opts.seed, opts.smoke, &mut metrics);
    } else {
        lineup.end_to_end_metrics(&mut metrics, report::nproc());
    }
    Report {
        stamp: Stamp::take(opts, reps),
        metrics,
        checks,
    }
}

fn nn_problem(net: lsgd_nn::Network, batch: usize, seed: u64) -> NnProblem {
    NnProblem::new(
        net,
        SynthDigits::default().generate(4_000, seed),
        batch,
        512,
    )
}

/// Builds the workload's problem from the seed and runs on it.
fn run_workload(opts: &Opts) -> Report {
    let wl = opts.workload;
    match wl.kind {
        Kind::Mlp => run(opts, |seed| {
            nn_problem(lsgd_nn::mlp_mnist(), wl.batch, seed)
        }),
        Kind::Cnn => run(opts, |seed| {
            nn_problem(lsgd_nn::cnn_mnist(), wl.batch, seed)
        }),
        Kind::Sparse { dim } => run(opts, |seed| {
            SparseLogRegProblem::new(sparse_logreg(20_000, dim, 12, seed), wl.batch)
        }),
    }
}

/// Runs the workload and prints the report; the last line of standard
/// output is the result object.
fn benchmark(opts: &Opts) -> Result<bool, String> {
    let mut report = run_workload(opts);
    let defs = if opts.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    // With one core the `m = 2` wall-clock metrics are absent on purpose.
    let missing = report.missing(&defs);
    if !missing.is_empty() && report.stamp.nproc >= spec::THREADS {
        report.checks.attempt(
            "report",
            vec![format!("no value for {}", missing.join(", "))],
        );
    }
    if let Some(path) = &opts.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        writeln!(file, "{}", report.record(&defs))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    print!("{}", report.text(&defs));
    println!("{}", report.result_line(&defs));
    Ok(report.checks.correct())
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        let content =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        compare::parse_runs(&content).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = compare::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["--list"] => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        ["compare", a, b] => compare_files(a, b),
        _ => pin_env()
            .and_then(|()| parse_opts(&args))
            .and_then(|opts| benchmark(&opts)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A failed check or a regression: the report says which.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse_opts(&args(
            "--workload sparse_wide --seed 7 --seconds 21 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload.name, o.seed, o.seconds, o.trace),
            ("sparse_wide", 7, 21, true)
        );
        assert!(parse_opts(&args("--seed 7")).is_err());
        assert!(parse_opts(&args("--workload nope")).is_err());
        assert!(parse_opts(&args("--workload mlp --trace 2")).is_err());
        assert!(parse_opts(&args("--workload mlp --seconds 0")).is_err());
        assert!(parse_opts(&args("--workload mlp --seed")).is_err());
    }

    /// Drives all four workloads through both modes and every check at a
    /// fiftieth of the budgets, so the harness cannot rot unnoticed.
    #[test]
    fn smoke_covers_every_workload_mode_and_check() {
        pin_env().expect("no LSGD_* override in the test environment");
        let start = Instant::now();
        for wl in &spec::WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    workload: wl,
                    seed: 3,
                    seconds: spec::RUN_SECONDS,
                    trace,
                    smoke: true,
                    out: None,
                    spans: None,
                };
                let report = run_workload(&opts);
                assert!(
                    report.checks.correct(),
                    "{} trace {trace}: {:?}",
                    wl.name,
                    report.checks.failures
                );
                let defs = if trace {
                    spec::per_layer()
                } else {
                    spec::end_to_end()
                };
                assert_eq!(
                    report.missing(&defs),
                    Vec::<String>::new(),
                    "{} trace {trace}",
                    wl.name
                );
                assert!(report.checks.attempted >= 5);
                let line = report.result_line(&defs);
                let doc = lsgd_trace::chrome::parse_json(&line).expect("result line is JSON");
                assert_eq!(
                    doc.get("correct"),
                    Some(&lsgd_trace::chrome::Json::Bool(true))
                );
            }
        }
        assert!(
            start.elapsed().as_secs() < 10,
            "smoke took {:?}",
            start.elapsed()
        );
    }
}
