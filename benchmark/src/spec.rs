//! What the benchmark measures: the algorithm lineup, the four workloads
//! and every metric name with its unit. `BENCHMARK.json` is this module
//! printed by `--list`; a unit test holds the two together.

use lsgd_core::prelude::*;
use std::fmt::Write as _;
use std::time::Duration;

/// Closed loop: `m = 2` workers on the box's two cores (`seq` runs one).
pub const THREADS: usize = 2;
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 21;
/// Nominal wall time of one repetition of the whole lineup at HEAD: every
/// budget below is sized to it, and `--seconds / REP_SECONDS` is `R`.
pub const REP_SECONDS: u64 = 7;
/// Monitor cadence of every timed `train` call.
pub const EVAL_EVERY_MS: u64 = 25;
/// Updates of the warm-up `train` call each algorithm gets during set-up.
pub const WARMUP_UPDATES: u64 = 200;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// `--smoke` divides every budget and step count by this.
pub const SMOKE_DIVISOR: u64 = 50;

/// Algorithm tags, in lineup order.
pub const ALGOS: [&str; 5] = ["seq", "async", "hog", "lsh", "shard"];

/// The `TrainConfig` algorithm behind a tag.
pub fn algorithm(tag: &str) -> Algorithm {
    match tag {
        "seq" => Algorithm::Sequential,
        "async" => Algorithm::AsyncLock,
        "hog" => Algorithm::Hogwild,
        "lsh" => Algorithm::Leashed { persistence: None },
        "shard" => Algorithm::ShardedLeashed {
            persistence: SHARD_PERSISTENCE,
            shards: 0,
            snapshot: SnapshotMode::Fast,
        },
        other => unreachable!("unknown algorithm tag {other}"),
    }
}

/// Persistence bound of the `shard` lineup entry.
pub const SHARD_PERSISTENCE: Option<u32> = Some(1);

/// Worker count a tag runs with.
pub fn workers(tag: &str) -> usize {
    if tag == "seq" {
        1
    } else {
        THREADS
    }
}

/// Which problem a workload trains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Table II MLP on `SynthDigits`.
    Mlp,
    /// Table III CNN on `SynthDigits`.
    Cnn,
    /// `sparse_logreg(20_000, dim, 12, seed)`.
    Sparse { dim: usize },
}

/// How a workload's ε (a share of `f(θ₀)`) is fixed. The loss curve's
/// shape decides; the README shows the three curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Eps {
    /// No ε repeats within a tenth (the CNN's plateau escape moves between
    /// 7.5k and > 16k updates): `time_to_eps_s.*` is the budget's wall time.
    None,
    /// A constant. Right where the curve is a plateau and then a cliff
    /// through the level, as on the MLP: the crossing is steep, so monitor
    /// noise cannot move it.
    Level(f64),
    /// The level `seq` has reached after `share` of its budget in the same
    /// repetition, on the same data and θ₀; the run fails if that is still
    /// above `ceiling`. Right where the curve is smooth but its scale moves
    /// with the seed: `sparse_logreg` reaches a fixed ε=0.5 after 17k, 35k
    /// or 44k updates for seeds 1, 2, 3, and a time that moves 2.5x with
    /// the seed can gate nothing.
    SeqAt { share: f64, ceiling: f64 },
}

/// One workload: the problem, its step configuration and its sizes.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub batch: usize,
    pub eta: f32,
    /// `max_updates` of every timed `train` call.
    pub budget: u64,
    pub eps: Eps,
    /// Steps per worker of the traced loop.
    pub trace_steps: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mlp",
        why: "Dense-GEMM gradient with the largest theta (d=134,794): every lsh publish copies 539 KB and shard publishes with all shards dirty",
        kind: Kind::Mlp,
        batch: 64,
        eta: 0.25,
        budget: 1_700,
        eps: Eps::Level(0.5),
        trace_steps: 400,
    },
    Workload {
        name: "cnn",
        why: "im2col/conv-bound gradient (Tc/Tu > 150): nn and tensor do the step, so every store, pool or queue change should leave it unmoved",
        kind: Kind::Cnn,
        batch: 32,
        eta: 0.05,
        budget: 900,
        eps: Eps::None,
        trace_steps: 250,
    },
    Workload {
        name: "sparse",
        why: "3 us gradient on a cache-resident 64 KB theta: read, publish, pool, queue and trainer scaffold are the step; every parallel algorithm is slower than seq",
        kind: Kind::Sparse { dim: 16_384 },
        batch: 16,
        eta: 1.0,
        budget: 120_000,
        eps: Eps::SeqAt { share: 0.7, ceiling: 0.75 },
        trace_steps: 40_000,
    },
    Workload {
        name: "sparse_wide",
        why: "Same sparse gradient on a 1 MB theta: anything dense in d dominates, so a sparse-read or few-dirty-shard fast path shows here and a CAS micro-optimisation does not",
        kind: Kind::Sparse { dim: 262_144 },
        batch: 16,
        eta: 1.0,
        budget: 10_500,
        eps: Eps::SeqAt { share: 0.7, ceiling: 0.9 },
        trace_steps: 2_500,
    },
];

/// A workload's sizes for one run: the table's, or a fiftieth of them
/// under `--smoke`, which is too short to converge and so carries no ε.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub budget: u64,
    pub warmup_updates: u64,
    pub trace_steps: usize,
    pub eps: Eps,
    pub setups: usize,
    /// Monitor cadence of every `train` call.
    pub eval_every: Duration,
}

impl Workload {
    pub fn sizes(&self, smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                budget: self.budget / SMOKE_DIVISOR,
                warmup_updates: WARMUP_UPDATES / SMOKE_DIVISOR,
                trace_steps: (self.trace_steps / SMOKE_DIVISOR as usize).max(12),
                eps: Eps::None,
                setups: 1,
                // A `train` call lasts at least one monitor cycle.
                eval_every: Duration::from_millis(EVAL_EVERY_MS / 5),
            }
        } else {
            Sizes {
                budget: self.budget,
                warmup_updates: WARMUP_UPDATES,
                trace_steps: self.trace_steps,
                eps: self.eps,
                setups: SETUPS,
                eval_every: Duration::from_millis(EVAL_EVERY_MS),
            }
        }
    }
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

fn def(name: String, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// `stem.<a>` for every tag in `tags`.
fn per_algo(
    out: &mut Vec<MetricDef>,
    stem: &str,
    tags: &[&str],
    unit: &'static str,
    better: &'static str,
    bound: Option<f64>,
) {
    for a in tags {
        out.push(def(format!("{stem}.{a}"), unit, better, bound));
    }
}

/// How much worse a metric's median may get before a change is rejected.
/// One value, the contract's maximum, because of what the A/A runs in the
/// README show on this two-core VM: between calm minutes (spreads of 2-5 %)
/// come noisy-neighbour minutes that slow whole runs by 10-20 % and took
/// one set's `updates_per_s.async` spread on `cnn` to 15 %, and the MLP's
/// plateau escape moves `time_to_eps_s.*` by 10 % with theta0 alone. A
/// tighter bound would reject the benchmark on a bad day, not a regression.
pub const BOUND: f64 = 0.25;

/// The end-to-end metrics, reported by `--trace 0`.
pub fn end_to_end() -> Vec<MetricDef> {
    let mut out = vec![def("setup_s".into(), "s", "lower", Some(BOUND))];
    per_algo(
        &mut out,
        "updates_per_s",
        &ALGOS,
        "1/s",
        "higher",
        Some(BOUND),
    );
    per_algo(&mut out, "time_to_eps_s", &ALGOS, "s", "lower", Some(BOUND));
    out
}

/// The per-layer metrics, reported by `--trace 1`.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = Vec::new();
    let leashed = ["lsh", "shard"];
    // A: read from the untraced `RunResult`s.
    for stem in [
        "trainer.iter_mean_us",
        "trainer.tc_mean_us",
        "trainer.tu_mean_us",
    ] {
        per_algo(&mut out, stem, &ALGOS, "us", "lower", None);
    }
    per_algo(
        &mut out,
        "trainer.staleness_mean",
        &ALGOS,
        "count",
        "lower",
        None,
    );
    per_algo(
        &mut out,
        "trainer.updates_to_eps",
        &ALGOS,
        "count",
        "lower",
        None,
    );
    per_algo(
        &mut out,
        "trainer.scaling_eff",
        &ALGOS[1..],
        "ratio",
        "higher",
        None,
    );
    per_algo(
        &mut out,
        "publish.failed_cas_per_update",
        &leashed,
        "ratio",
        "lower",
        None,
    );
    per_algo(
        &mut out,
        "publish.aborted_share",
        &leashed,
        "ratio",
        "lower",
        None,
    );
    out.push(def("shard.dirty_mean".into(), "count", "lower", None));
    out.push(def("shard.degraded_share".into(), "ratio", "lower", None));
    per_algo(
        &mut out,
        "pool.reuse_share",
        &leashed,
        "ratio",
        "higher",
        None,
    );
    out.push(def(
        "pool.outstanding_peak.lsh".into(),
        "count",
        "lower",
        None,
    ));
    per_algo(&mut out, "mem.peak_bytes", &ALGOS, "bytes", "lower", None);
    // B: the traced step loop.
    for stem in [
        "step.p50_us",
        "step.tail_us",
        "step.unattributed_us",
        "read.p50_us",
    ] {
        per_algo(&mut out, stem, &ALGOS, "us", "lower", None);
    }
    per_algo(&mut out, "read.busy_share", &ALGOS, "ratio", "lower", None);
    for stem in ["grad.p50_us", "publish.p50_us", "publish.tail_us"] {
        per_algo(&mut out, stem, &ALGOS, "us", "lower", None);
    }
    per_algo(
        &mut out,
        "publish.busy_share",
        &ALGOS,
        "ratio",
        "lower",
        None,
    );
    out.push(def(
        "shard.snapshot_retries_per_read".into(),
        "ratio",
        "lower",
        None,
    ));
    per_algo(&mut out, "trainer.scaffold_us", &ALGOS, "us", "lower", None);
    per_algo(
        &mut out,
        "trace.overhead_share",
        &ALGOS,
        "ratio",
        "lower",
        None,
    );
    // C: layer probes.
    out.push(def("monitor.eval_ms".into(), "ms", "lower", None));
    out.push(def("monitor.busy_share".into(), "ratio", "lower", None));
    out.push(def("pool.acquire_release_ns".into(), "ns", "lower", None));
    out.push(def("queue.push_pop_ns.t1".into(), "ns", "lower", None));
    out.push(def("queue.push_pop_ns.t2".into(), "ns", "lower", None));
    out.push(def("runtime.scope_fanout_us".into(), "us", "lower", None));
    out.push(def("runtime.parallel_for_us".into(), "us", "lower", None));
    out.push(def("gemm.gflops".into(), "gflop/s", "higher", None));
    out.push(def(
        "gemm.flops_per_byte".into(),
        "flop/byte",
        "higher",
        None,
    ));
    out.push(def("nn.fwd_us".into(), "us", "lower", None));
    out.push(def("nn.bwd_us".into(), "us", "lower", None));
    out
}

/// The driver's command; it appends `--workload … --seed … --seconds …
/// --trace …`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];
/// The benchmark's directory.
pub const PATHS: [&str; 1] = ["benchmark"];

fn quoted(items: &[&str]) -> String {
    let q: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    q.join(", ")
}

fn metric_rows(defs: &[MetricDef]) -> String {
    let rows: Vec<String> = defs
        .iter()
        .map(|d| {
            let mut row = format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            if let Some(b) = d.bound {
                let _ = write!(row, ", \"bound\": {b}");
            }
            row.push('}');
            row
        })
        .collect();
    rows.join(",\n")
}

/// `BENCHMARK.json`, exactly.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        RUN_SECONDS,
        workloads.join(",\n"),
        metric_rows(&end_to_end()),
        metric_rows(&per_layer()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgd_trace::chrome::{parse_json, Json};

    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_follow_the_grammar() {
        let all: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for d in &all {
            assert!(name_ok(&d.name, 64, "_.-"), "name {}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name_ok(d.unit, 16, "_/%.-"), "unit {}", d.unit);
            assert!(d.better == "lower" || d.better == "higher");
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name, 64, "_.-") && seen.insert(w.name.to_string()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
    }

    #[test]
    fn counts_match_the_issue_and_the_contract() {
        // 12 in the issue; `failed_share` is 0 at HEAD, so the contract's
        // `failed` key carries it instead.
        assert_eq!(end_to_end().len(), 11);
        assert_eq!(per_layer().len(), 110);
        assert_eq!(WORKLOADS.len(), 4);
        assert!(end_to_end()
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = &end_to_end()[0];
        assert_eq!(
            (setup.name.as_str(), setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
        assert!(end_to_end().iter().all(|d| d.bound <= setup.bound));
    }

    fn field<'a>(doc: &'a Json, key: &str) -> &'a Json {
        doc.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
    }

    fn text(j: &Json) -> &str {
        match j {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn items(j: &Json) -> &[Json] {
        match j {
            Json::Arr(a) => a,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn parsed_metrics(doc: &Json, key: &str) -> Vec<MetricDef> {
        items(field(doc, key))
            .iter()
            .map(|m| MetricDef {
                name: text(field(m, "name")).to_string(),
                // Leaked so the parsed side has the spec's `&'static str`.
                unit: Box::leak(text(field(m, "unit")).to_string().into_boxed_str()),
                better: Box::leak(text(field(m, "better")).to_string().into_boxed_str()),
                bound: match m.get("bound") {
                    Some(Json::Num(b)) => Some(*b),
                    _ => None,
                },
            })
            .collect()
    }

    /// Both directions at once: the committed file parses to exactly the
    /// lists `--list` prints, order included.
    #[test]
    fn benchmark_json_agrees_with_list() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let content = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            content,
            benchmark_json(),
            "regenerate with `benchmark --list`"
        );
        let doc = parse_json(&content).expect("BENCHMARK.json parses");
        assert_eq!(parsed_metrics(&doc, "end_to_end"), end_to_end());
        assert_eq!(parsed_metrics(&doc, "per_layer"), per_layer());
        let names: Vec<&str> = items(field(&doc, "workloads"))
            .iter()
            .map(|w| text(field(w, "name")))
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
        assert_eq!(field(&doc, "run_seconds"), &Json::Num(RUN_SECONDS as f64));
    }
}
