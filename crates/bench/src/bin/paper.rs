//! `paper` — regenerates the paper's evaluation: Table I, Figs. 3–10
//! and the Section IV model checks. Each id prints one table or figure:
//!
//! ```text
//! cargo run --release -p lsgd_bench --bin paper -- fig3 fig8 --threads=1,2 --csv=out
//! cargo run --release -p lsgd_bench --bin paper -- --help
//! ```
//!
//! A training id is a run [`Grid`] over (workload, m, η, algorithm,
//! repetition), with the tables to print from it. [`run`] trains every
//! cell of the grid; a table is a view that aggregates each cell's runs
//! into named [`column()`]s. With `--csv=DIR` the runs are also written
//! to `DIR/<id>.csv`, one row per run with the columns of [`RECORD`].

use lsgd_bench::expect::{print_expectation, EXPECTATIONS};
use lsgd_bench::Args;
use lsgd_core::prelude::*;
use lsgd_data::SynthDigits;
use lsgd_dynamics::des::{simulate, CasMode, DesConfig};
use lsgd_dynamics::staleness::{estimate, gamma_for_persistence};
use lsgd_dynamics::FluidModel;
use lsgd_metrics::table::Table;
use lsgd_metrics::{BoxStats, Outcome};
use std::time::Duration;

const IDS: &str = "table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 sec4";

#[derive(Clone, Copy)]
enum Workload {
    /// Table II network on MNIST-format digits.
    Mlp,
    /// Table III network on the same digits.
    Cnn,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Mlp => "MLP",
            Workload::Cnn => "CNN",
        }
    }

    fn dim(self) -> usize {
        match self {
            Workload::Mlp => lsgd_nn::architectures::MLP_D,
            Workload::Cnn => lsgd_nn::architectures::CNN_D,
        }
    }

    fn net(self) -> lsgd_nn::Network {
        match self {
            Workload::Mlp => lsgd_nn::mlp_mnist(),
            Workload::Cnn => lsgd_nn::cnn_mnist(),
        }
    }

    fn problem(self, a: &Args) -> NnProblem {
        // Each network trains on its own draw of the digits.
        let seed = a.seed + if matches!(self, Workload::Cnn) { 7 } else { 0 };
        let data = SynthDigits::default().generate(a.samples, seed);
        NnProblem::new(self.net(), data, a.batch, (a.samples / 4).clamp(256, 2048))
    }
}

/// A training id's run grid: `reps` runs of every combination of its
/// lists, its banner (`Fig. 3 — …`; the paper's claims for that figure
/// print after its tables) and the tables printed from it.
struct Grid {
    title: &'static str,
    workloads: Vec<Workload>,
    m: Vec<usize>,
    /// `None`: the paper lineup at m = 1, the parallel lineup otherwise.
    lineup: Option<Vec<Algorithm>>,
    etas: Vec<f32>,
    eps: Vec<f64>,
    reps: usize,
    /// `title|column|…` per table; see [`show`].
    views: Vec<&'static str>,
}

/// The grid behind training id `id` at the scale `a` asks for.
fn grid(id: &str, a: &Args) -> Grid {
    let last = *a.threads.last().unwrap_or(&2);
    let leashed = |persistence| Algorithm::Leashed { persistence };
    let quarters = vec![0.75, 0.5, 0.25, 0.1];
    let mut g = Grid {
        title: "",
        workloads: vec![Workload::Mlp],
        m: a.threads.clone(),
        lineup: None,
        etas: vec![a.eta],
        eps: vec![0.5],
        reps: a.reps,
        views: vec![],
    };
    match id {
        "fig3" => {
            g.views = vec![
                "--- Fig. 3 left: convergence rate ---|m|algo|time to eps=50%|diverge|crash|updates/s",
                "--- Fig. 3 right: computational efficiency ---|m|algo|time/iter (mean)|Tc mean|Tu mean",
            ];
            g.title = "Fig. 3 — MLP scalability: time to eps=50% + time/iteration";
        }
        "fig4" => {
            g.eps = quarters;
            if a.full {
                // Table I's S2 (m = 16) and S4 (m = 34, 68) precisions
                // at all three thread counts.
                g.m = vec![16, 34, 68];
                g.eps.extend([0.05, 0.025]);
            }
            g.views = vec!["\n--- m = {m} threads ---|algo|{eps}"];
            g.title = "Fig. 4 — MLP time-to-eps at increasing precision";
        }
        // Trajectories and distributions: one run per cell, for the
        // whole wall budget.
        "fig5" => {
            (g.eps, g.reps) = (vec![0.02], 1);
            g.title = "Fig. 5 — MLP training loss over time";
        }
        "fig6" => {
            (g.eps, g.reps) = (vec![0.02], 1);
            g.views = vec![
                "\n--- m = {m} threads ---\
                 |algo|updates|tau mean|tau p50|tau p95|tau max|tau_s mean|aborted",
            ];
            g.title = "Fig. 6 — MLP staleness distributions";
        }
        "fig7" => {
            (g.workloads, g.eps) = (vec![Workload::Cnn], quarters);
            g.m = vec![if a.full { 16 } else { last }];
            g.views = vec!["\n--- time to eps (m = {m}) ---|algo|{eps}|best 10% run|stale mean"];
            g.title = "Fig. 7 — CNN convergence, trajectories, staleness (m fixed)";
        }
        "fig8" => {
            g.m = vec![if a.full { 16 } else { last }];
            // η/5 … 9η/5: 0.01–0.09 at the quick η, 0.001–0.009 at the
            // paper's.
            g.etas = [0.2, 0.6, 1.0, 1.4, 1.8].map(|k| scaled(a.eta, k)).to_vec();
            g.views = vec![
                "--- convergence rate (wall-clock) ---|eta|algo|time to 50%|diverge|crash",
                "--- statistical efficiency (iterations) ---|eta|algo|iterations to 50% (median)",
            ];
            g.title = "Fig. 8 — step-size sweep: time + iterations to eps=50%";
        }
        "fig9" => {
            (g.workloads, g.m) = (vec![Workload::Mlp, Workload::Cnn], vec![2]);
            (g.lineup, g.eps, g.reps) = (Some(vec![leashed(None)]), vec![0.01], 1);
            g.views = vec!["|arch|d|Tc mean|Tc min..max|Tu mean|Tu min..max|Tc/Tu|n*/m (m=16)"];
            g.title = "Fig. 9 — gradient computation (Tc) and update (Tu) times";
        }
        "fig10" => {
            g.workloads = vec![Workload::Mlp, Workload::Cnn];
            (g.eps, g.reps) = (vec![0.02], 1);
            g.views = vec![
                "\n--- {arch} (d = {d}) ---|m|algo|mean live|peak live|pool peak (<=2m+1)|reuse/alloc",
            ];
            g.title = "Fig. 10 — memory consumption (MLP and CNN)";
        }
        other => panic!("{other} is not a training id"),
    }
    g
}

/// `eta · k`, rounded to 6 decimals so sweep labels print as written.
fn scaled(eta: f32, k: f64) -> f32 {
    ((eta as f64 * k * 1e6).round() / 1e6) as f32
}

/// One training run: its cell keys and its measurements.
struct Run {
    workload: Workload,
    eta: f32,
    rep: usize,
    seed: u64,
    r: RunResult,
}

/// All repetitions of one grid cell.
type Cell = Vec<Run>;

/// Trains every cell of `g`. The only place this binary calls `train`.
fn run(g: &Grid, a: &Args) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &workload in &g.workloads {
        let problem = workload.problem(a);
        for &m in &g.m {
            let lineup = g.lineup.clone().unwrap_or_else(|| match m {
                1 => Algorithm::paper_lineup(),
                _ => Algorithm::parallel_lineup(),
            });
            for &eta in &g.etas {
                for &algorithm in &lineup {
                    let cell = (0..g.reps).map(|rep| {
                        let seed = a.seed.wrapping_add(1000 * rep as u64);
                        let cfg = TrainConfig {
                            algorithm,
                            threads: m,
                            eta,
                            epsilons: g.eps.clone(),
                            max_updates: u64::MAX,
                            max_wall: a.wall,
                            eval_every: Duration::from_millis(60),
                            seed,
                            staleness_cap: 1024,
                        };
                        let r = train(&problem, &cfg);
                        Run {
                            workload,
                            eta,
                            rep,
                            seed,
                            r,
                        }
                    });
                    cells.push(cell.collect());
                }
            }
        }
    }
    cells
}

/// A record column: its CSV header and its value for one run.
type Field = (&'static str, fn(&Run) -> String);

/// The record schema: one CSV row per run, cell keys first. List-valued
/// columns hold one `;`-separated entry per ε.
const RECORD: &[Field] = &[
    ("workload", |x| x.workload.name().into()),
    ("m", |x| x.r.threads.to_string()),
    ("algo", |x| x.r.algorithm.label()),
    ("eta", |x| x.eta.to_string()),
    ("rep", |x| x.rep.to_string()),
    ("seed", |x| x.seed.to_string()),
    ("eps", |x| join(&x.r.outcomes, |(eps, _)| eps.to_string())),
    ("outcome", |x| {
        join(&x.r.outcomes, |(_, o)| outcome_name(o).into())
    }),
    ("time_to_eps_s", |x| {
        join(&x.r.outcomes, |(_, o)| opt(o.secs(), |s| format!("{s:.4}")))
    }),
    ("updates_to_eps", |x| {
        join(&x.r.iters_to_eps, |(_, u)| opt(*u, |u| u.to_string()))
    }),
    ("updates_per_s", |x| format!("{:.1}", x.r.updates_per_sec())),
    ("published", |x| x.r.published.to_string()),
    ("aborted", |x| x.r.aborted.to_string()),
    ("iter_mean_ms", |x| ms(x.r.iter_time.mean(), 4)),
    ("tc_mean_ms", |x| ms(x.r.tc.mean(), 4)),
    ("tc_min_ms", |x| ms(x.r.tc.min(), 4)),
    ("tc_max_ms", |x| ms(x.r.tc.max(), 4)),
    ("tu_mean_ms", |x| ms(x.r.tu.mean(), 4)),
    ("tu_min_ms", |x| ms(x.r.tu.min(), 4)),
    ("tu_max_ms", |x| ms(x.r.tu.max(), 4)),
    ("tau_mean", |x| format!("{:.3}", x.r.staleness.mean())),
    ("tau_p50", |x| x.r.staleness.quantile(0.5).to_string()),
    ("tau_p95", |x| x.r.staleness.quantile(0.95).to_string()),
    ("tau_max", |x| x.r.staleness.max().to_string()),
    ("tau_s_mean", |x| format!("{:.3}", x.r.tau_s.mean())),
    ("mem_mean_bytes", |x| format!("{:.0}", mem_mean(&x.r))),
    ("mem_peak_bytes", |x| x.r.mem_peak_bytes.to_string()),
    ("pool_peak", |x| x.r.pool_outstanding_peak.to_string()),
    ("mem_reuses", |x| x.r.mem_reuses.to_string()),
    ("mem_allocs", |x| x.r.mem_allocs.to_string()),
];

fn join<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<_>>().join(";")
}

fn opt<T>(v: Option<T>, f: impl Fn(T) -> String) -> String {
    v.map_or_else(|| "-".into(), f)
}

fn outcome_name(o: &Outcome) -> &'static str {
    match o {
        Outcome::Converged(_) => "converged",
        Outcome::Diverged => "diverged",
        Outcome::Crashed => "crashed",
    }
}

/// Seconds as milliseconds with `prec` decimals.
fn ms(secs: f64, prec: usize) -> String {
    format!("{:.prec$}", secs * 1e3)
}

/// Mean live parameter-buffer bytes over the run's memory trace.
fn mem_mean(r: &RunResult) -> f64 {
    let pts = r.mem_trace.points();
    pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len().max(1) as f64
}

/// The run's mean gradient time over its mean update time.
fn tc_per_tu(r: &RunResult) -> f64 {
    r.tc.mean() / r.tu.mean().max(1e-12)
}

/// Mean of `f` over a cell's runs.
fn mean(c: &[Run], f: impl Fn(&RunResult) -> f64) -> f64 {
    c.iter().map(|x| f(&x.r)).sum::<f64>() / c.len() as f64
}

/// How many of a cell's runs ended ε index `i` with outcome `o`.
fn tally(c: &[Run], i: usize, o: Outcome) -> usize {
    c.iter().filter(|x| x.r.outcomes[i].1 == o).count()
}

/// Seconds to ε index `i` of the cell's converged runs.
fn times(c: &[Run], i: usize) -> Vec<f64> {
    c.iter().filter_map(|x| x.r.outcomes[i].1.secs()).collect()
}

/// Index of ε `f` in the cell's ε list.
fn eps_index(c: &[Run], f: f64) -> usize {
    let mut eps = c[0].r.outcomes.iter();
    eps.position(|(e, _)| (e - f).abs() < 1e-9)
        .expect("ε is in the grid")
}

/// One table entry: column `name` over one cell's runs (box statistics,
/// mean, total or peak across repetitions; the single-run grids of
/// Figs. 6, 9 and 10 read their one run).
fn column(name: &str, c: &[Run]) -> String {
    let (x, r) = (&c[0], &c[0].r);
    let leashed = r.algorithm.is_leashed();
    let peak_kb = c.iter().map(|x| x.r.mem_peak_bytes).max().unwrap_or(0) / 1024;
    match name {
        "m" => r.threads.to_string(),
        "algo" => r.algorithm.label(),
        "eta" => x.eta.to_string(),
        "arch" => x.workload.name().into(),
        "d" => x.workload.dim().to_string(),
        "time to eps=50%" | "time to 50%" => column("eps=50%", c),
        "diverge" => tally(c, 0, Outcome::Diverged).to_string(),
        "crash" => tally(c, 0, Outcome::Crashed).to_string(),
        "updates/s" => format!("{:.0}", mean(c, |r| r.updates_per_sec())),
        "time/iter (mean)" => format!("{}ms", ms(mean(c, |r| r.iter_time.mean()), 2)),
        "Tc mean" => format!("{}ms", ms(mean(c, |r| r.tc.mean()), 2)),
        "Tu mean" => format!("{}ms", ms(mean(c, |r| r.tu.mean()), 3)),
        "Tc min..max" => format!("{}..{}ms", ms(r.tc.min(), 2), ms(r.tc.max(), 2)),
        "Tu min..max" => format!("{}..{}ms", ms(r.tu.min(), 3), ms(r.tu.max(), 3)),
        "Tc/Tu" => format!("{:.0}", tc_per_tu(r)),
        "n*/m (m=16)" => {
            let fluid = FluidModel::new(16.0, r.tc.mean(), r.tu.mean().max(1e-12));
            format!("{:.4}", fluid.balance())
        }
        "iterations to 50% (median)" => {
            // Statistical efficiency: published updates when 50% was hit.
            let mut n: Vec<u64> = c.iter().filter_map(|x| x.r.iters_to_eps[0].1).collect();
            n.sort_unstable();
            opt(n.get(n.len() / 2), |u| u.to_string())
        }
        "best 10% run" => {
            let best = times(c, eps_index(c, 0.1)).into_iter().reduce(f64::min);
            opt(best, |s| format!("{s:.2}s"))
        }
        "updates" => r.published.to_string(),
        "tau mean" => format!("{:.2}", r.staleness.mean()),
        "tau p50" => r.staleness.quantile(0.5).to_string(),
        "tau p95" => r.staleness.quantile(0.95).to_string(),
        "tau max" => r.staleness.max().to_string(),
        "tau_s mean" if leashed => format!("{:.2}", r.tau_s.mean()),
        "aborted" => r.aborted.to_string(),
        "stale mean" => format!("{:.2}", mean(c, |r| r.staleness.mean())),
        "mean live" => format!("{:.0}KB", mem_mean(r) / 1024.0),
        "peak live" => format!("{peak_kb}KB"),
        "pool peak (<=2m+1)" if leashed => r.pool_outstanding_peak.to_string(),
        "tau_s mean" | "pool peak (<=2m+1)" => "-".into(),
        "reuse/alloc" => {
            let reuses: u64 = c.iter().map(|x| x.r.mem_reuses).sum();
            let allocs: u64 = c.iter().map(|x| x.r.mem_allocs).sum();
            format!("{reuses}/{allocs}")
        }
        // `eps=75%`: box statistics of the time to that ε, or the
        // diverge/crash tally when no run reached it.
        eps => {
            let pct = eps.strip_prefix("eps=").and_then(|p| p.strip_suffix('%'));
            let pct: f64 = pct.and_then(|p| p.parse().ok()).expect("a known column");
            let i = eps_index(c, pct / 100.0);
            match BoxStats::from_samples(&times(c, i)) {
                Some(b) => format!("{:.2}s (q1 {:.2}, q3 {:.2})", b.median, b.q1, b.q3),
                None => {
                    let div = tally(c, i, Outcome::Diverged);
                    format!("- (div {div}, crash {})", tally(c, i, Outcome::Crashed))
                }
            }
        }
    }
}

/// Prints one view of `cells`, given as `title|column|…`. `{eps}` among
/// the columns stands for one `eps=…%` column per ε of the grid. The
/// title may name `{m}`, `{arch}` or `{d}`; a new titled section starts
/// wherever the filled-in title changes.
fn show(cells: &[Cell], view: &str) {
    let eps = cells[0][0].r.outcomes.iter();
    let eps: Vec<String> = eps.map(|(f, _)| format!("eps={}%", f * 100.0)).collect();
    let view = view.replace("{eps}", &eps.join("|"));
    let (title, cols) = view.split_once('|').expect("a view is title|columns");
    let cols: Vec<&str> = cols.split('|').collect();
    let fill = |c: &[Run]| {
        let keys = ["m", "arch", "d"].iter();
        keys.fold(title.to_string(), |t, k| {
            t.replace(&format!("{{{k}}}"), &column(k, c))
        })
    };
    let mut sections: Vec<(String, Table)> = Vec::new();
    for c in cells {
        let title = fill(c);
        if sections.last().map_or(true, |(last, _)| *last != title) {
            sections.push((title, Table::new(cols.clone())));
        }
        let table = &mut sections.last_mut().expect("pushed above").1;
        table.row(cols.iter().map(|name| column(name, c)).collect());
    }
    for (title, table) in sections {
        if !title.is_empty() {
            println!("{title}");
        }
        println!("{}", table.render());
    }
}

/// Fig. 5: each run's loss trace on a common time grid. The paper plots
/// the raw curves; `--csv` keeps every point.
fn loss_curves(a: &Args, cells: &[Cell]) {
    let (t_max, points) = (a.wall.as_secs_f64(), 9);
    let grid = (0..points).map(|i| format!("{:.1}s", t_max * i as f64 / (points - 1) as f64));
    let headers = [vec!["algo".to_string()], grid.collect()].concat();
    for m in &a.threads {
        let section: Vec<&Cell> = cells.iter().filter(|c| c[0].r.threads == *m).collect();
        let mut table = Table::new(headers.clone());
        for c in &section {
            let r = &c[0].r;
            let crash = if r.crashed { " (CRASH)" } else { "" };
            let loss = r.loss_trace.resample_uniform(t_max, points).into_iter();
            let loss = loss.map(|(_, v)| format!("{v:.3}"));
            let algo = format!("{}{crash}", column("algo", c));
            table.row([vec![algo], loss.collect()].concat());
        }
        println!("\n--- m = {m} threads ---\n{}", table.render());
        for c in section {
            let name = format!("fig5_loss_m{m}_{}.csv", column("algo", c));
            a.maybe_write_csv(&name, &c[0].r.loss_trace.to_csv("t_secs", "loss"));
        }
    }
}

/// Trains, prints and records training id `id`.
fn figure(id: &str, a: &Args) {
    let g = grid(id, a);
    let scale = if a.full { "FULL (paper)" } else { "quick" };
    println!("\n=== {} ===", g.title);
    println!(
        "  scale: {scale} | samples {} | batch {} | eta {} | reps {} | wall {:?}",
        a.samples, a.batch, a.eta, a.reps, a.wall
    );
    let cells = run(&g, a);
    g.views.iter().for_each(|view| show(&cells, view));
    let mut records = Table::new(RECORD.iter().map(|&(name, _)| name).collect());
    for x in cells.iter().flatten() {
        records.row(RECORD.iter().map(|(_, field)| field(x)).collect());
    }
    match id {
        "fig5" => loss_curves(a, &cells),
        "fig6" => {
            let mut bins = table("m|algo|tau|count");
            for c in &cells {
                for (tau, n) in c[0].r.staleness.nonzero_bins() {
                    let (m, algo) = (column("m", c), column("algo", c));
                    bins.row(vec![m, algo, tau.to_string(), n.to_string()]);
                }
            }
            a.maybe_write_csv("fig6_tau.csv", &bins.to_csv());
        }
        "fig9" => {
            let (mlp, cnn) = (tc_per_tu(&cells[0][0].r), tc_per_tu(&cells[1][0].r));
            let order = if cnn > mlp { ">" } else { "<= (MISMATCH)" };
            println!(
                "  shape check: CNN Tc/Tu ({cnn:.0}) {order} MLP Tc/Tu ({mlp:.0}) \
                 — paper expects CNN >> MLP"
            );
        }
        _ => {}
    }
    // `Fig. 3` prints the claims filed as `Fig. 3 (left)` and `(right)`.
    let (fig, _) = g.title.split_once(" — ").expect("Fig. N — …");
    for e in EXPECTATIONS.iter().map(|e| e.id) {
        if e == fig || e.starts_with(&format!("{fig} (")) {
            print_expectation(e);
        }
    }
    a.maybe_write_csv(&format!("{id}.csv"), &records.to_csv());
}

/// A table whose column headers are given as `a|b|…`.
fn table(headers: &str) -> Table {
    Table::new(headers.split('|').collect())
}

/// Table I — the experiment matrix — plus Tables II/III (architectures)
/// with their parameter-count fingerprints verified at runtime.
fn table1() {
    println!("=== Table I — summary of experiments (paper ids) ===\n");
    let mut t1 =
        table("Step|Architecture|Description|Threads m|Precision eps|Step size eta|Harness target");
    for row in [
        "S1|MLP|Hyper-parameter selection|1-68|50%|0.01-0.09|paper fig3 fig8",
        "S2|MLP|High-precision convergence|16|50,10,5,2.5%|0.005|paper fig4 fig5 fig6",
        "S3|CNN|Convergence rate|16|75,50,25,10%|0.005|paper fig7",
        "S4|MLP|High parallelism|24,34,68|75,50,25,10%|0.005|paper fig4 --threads=24,34,68",
        "S5|MLP+CNN|Memory consumption|16,24,34|any|0.005|paper fig10",
    ] {
        t1.row(row.split('|').collect());
    }
    println!("{}", t1.render());
    for (table, w) in [("II", Workload::Mlp), ("III", Workload::Cnn)] {
        println!("\n=== Table {table} — {} architecture ===\n", w.name());
        let net = w.net();
        print!("{}", net.describe());
        assert_eq!(net.param_len(), w.dim());
        println!("  ✓ parameter count matches the paper's d = {}", w.dim());
    }
}

/// Section IV validation — the fluid model (Theorem 3, Corollaries
/// 3.1/3.2) against the discrete-event simulator, parameterised by the
/// Tc/Tu ratios measured in Fig. 9.
///
/// Three checks:
/// 1. the closed form (5) equals the recurrence (4) and settles at the
///    fixed point `n* = m/(Tc/Tu + 1)`;
/// 2. the DES in idealised mode reproduces `n*`, and in realistic CAS
///    mode shows the extra occupancy that persistence then removes;
/// 3. `E[τs]` falls as the persistence bound tightens, reaching exactly 0
///    at `Tp = 0` (the paper's §IV.2 claim).
fn sec4() {
    // (label, Tc, Tu) — the MLP and CNN regimes of Fig. 9 (ms).
    let regimes = [("MLP-like", 40.0, 0.8), ("CNN-like", 100.0, 0.25)];
    let ms = [16usize, 34, 68];
    // Every DES run: 20 % jitter over a 60,000-unit horizon.
    let des = |m, (tc, tu), persistence, mode, seed| {
        let (jitter, horizon) = (0.2, 60_000.0);
        simulate(&DesConfig {
            m,
            tc,
            tu,
            jitter,
            persistence,
            mode,
            horizon,
            seed,
        })
    };

    println!("=== fixed points and closed form (Theorem 3 / Cor. 3.1) ===\n");
    println!(
        "  note: recurrence (4) advances one unit per step and requires\n\
         \x20 1/Tc + 1/Tu < 2 for stability; times are rescaled to a stable\n\
         \x20 unit (fixed points are invariant under rescaling).\n"
    );
    let mut t =
        table("regime|m|n* (fluid)|n*/m = Tu/(Tu+Tc)|closed form (settled)|recurrence (settled)");
    for (name, tc, tu) in regimes {
        for &m in &ms {
            let f = FluidModel::new(m as f64, tc, tu).rescaled_stable();
            let steps = 40_000;
            let traj = f.trajectory(0.0, steps);
            t.row(vec![
                name.to_string(),
                m.to_string(),
                format!("{:.4}", f.fixed_point()),
                format!("{:.5}", f.balance()),
                format!("{:.4}", f.closed_form(0.0, steps as u32)),
                format!("{:.4}", traj[steps]),
            ]);
        }
    }
    println!("{}", t.render());

    println!("\n=== DES vs fluid occupancy ===\n");
    let mut t = table("regime|m|fluid n*|DES idealized|DES realistic CAS");
    for (name, tc, tu) in regimes {
        for &m in &ms {
            let f = FluidModel::new(m as f64, tc, tu);
            let ideal = des(m, (tc, tu), None, CasMode::Idealized, 42);
            let real = des(m, (tc, tu), None, CasMode::Realistic, 42);
            t.row(vec![
                name.to_string(),
                m.to_string(),
                format!("{:.3}", f.fixed_point()),
                format!("{:.3}", ideal.mean_occupancy),
                format!("{:.3}", real.mean_occupancy),
            ]);
        }
    }
    println!("{}", t.render());

    println!("\n=== persistence regulation of tau_s (Cor. 3.2 / §IV.2) ===\n");
    let mut t = table("regime|Tp|gamma|E[tau_s] model (= n*_gamma)|E[tau_s] DES|aborted frac");
    for (name, tc, tu) in [("contended", 4.0, 2.0), ("MLP-like", 40.0, 0.8)] {
        for tp in [None, Some(4), Some(1), Some(0)] {
            let gamma = gamma_for_persistence(tp);
            let est = estimate(16.0, tc, tu, gamma);
            let sim = des(16, (tc, tu), tp, CasMode::Realistic, 7);
            let abort_frac = sim.aborted as f64 / (sim.publishes + sim.aborted).max(1) as f64;
            t.row(vec![
                name.to_string(),
                tp.map(|v| v.to_string()).unwrap_or_else(|| "inf".into()),
                format!("{gamma:.2}"),
                format!("{:.3}", est.tau_s),
                format!("{:.3}", sim.tau_s.mean()),
                format!("{abort_frac:.3}"),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "  notes: tau_s falls monotonically as Tp tightens and is exactly 0 at\n\
         \x20 Tp=0 (paper §IV.2). In the heavily contended regime the fluid\n\
         \x20 model (which assumes every attempt departs) underestimates the\n\
         \x20 realistic-CAS tau_s for Tp=inf — the gap the persistence bound\n\
         \x20 exists to close."
    );
    print_expectation("Sec. IV");
}

fn main() {
    let (ids, flags): (Vec<String>, Vec<String>) = std::env::args()
        .skip(1)
        .partition(|arg| !arg.starts_with('-'));
    if ids.is_empty() || flags.iter().any(|f| f == "--help" || f == "-h") {
        eprintln!("usage: paper <id>... [flags]\nids: {IDS}");
        // Prints the common flags and exits on --help.
        Args::parse_from(flags, Args::default());
        std::process::exit(2);
    }
    for id in &ids {
        assert!(
            IDS.split_whitespace().any(|known| known == id),
            "unknown id {id}; try --help"
        );
    }
    for id in &ids {
        // Figs. 4 and 7 chase tighter ε, so their runs get a longer
        // default budget.
        let wall = if id == "fig4" || id == "fig7" { 30 } else { 15 };
        let defaults = Args {
            wall: Duration::from_secs(wall),
            ..Args::default()
        };
        let a = Args::parse_from(flags.clone(), defaults);
        match id.as_str() {
            "table1" => table1(),
            "sec4" => sec4(),
            _ => figure(id, &a),
        }
    }
}
