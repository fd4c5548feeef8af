//! End-to-end SGD **step latency**: parameter read + minibatch gradient +
//! publication, per workload × algorithm — the quantity the paper's
//! convergence-per-second results are made of (`T_it ≈ Tc + Tu`). Every
//! row runs the trainer's own `WorkerState::step`, so the heartbeat, the
//! `Tc`/`Tu` timers and the statistics are inside the measured step, as
//! they are in `lsgd_core::train`.
//!
//! Workloads: the Table II MLP (`d = 134,794`), the Table III CNN
//! (`d = 27,354`, im2col-dominated `Tc`), and the PR 4 sparse
//! logistic-regression instance (native sparse gradients). Algorithms:
//! SEQ-style locked, HOGWILD!, Leashed-SGD, and sharded Leashed-SGD at
//! the heuristic shard count.
//!
//! Set `LSGD_BENCH_SMOKE=1` for short windows (CI) and
//! `LSGD_BENCH_JSON=BENCH_sgd_step.json` to emit the machine-readable
//! trajectory file. Throughput is reported as parameters/s
//! (`d / step-latency`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lsgd_core::baseline::{HogwildParams, LockedParams};
use lsgd_core::heartbeat::HeartbeatBoard;
use lsgd_core::mem::MemoryGauge;
use lsgd_core::pool::BufferPool;
use lsgd_core::prelude::*;
use lsgd_core::shard::default_shards;
use lsgd_core::trainer::{WorkerCtx, WorkerState};
use lsgd_core::{LeashedShared, ParamStore, ShardedShared};
use lsgd_data::sparse_logreg::sparse_logreg;
use lsgd_data::SynthDigits;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Step size: small enough that thousands of benchmark steps cannot
/// destabilise the iterates (a diverged `theta` would change gradient
/// timing mid-measurement).
const ETA: f32 = 1e-4;

/// Builds the parameter store behind bench row `$kind` over `$theta0` and
/// evaluates `$body` with `$store` bound to it and `$cfg` to the
/// [`TrainConfig`] its workers step under. A macro because the four stores
/// are four types: `$body` is instantiated once per store, exactly as
/// `lsgd_core::train` instantiates its worker loop.
macro_rules! with_store {
    ($kind:expr, $theta0:expr, $workers:expr, |$store:ident, $cfg:ident| $body:expr) => {{
        let gauge = Arc::new(MemoryGauge::new());
        let cfg_for = |algorithm| TrainConfig {
            algorithm,
            eta: ETA,
            seed: 99,
            ..TrainConfig::default()
        };
        match $kind {
            "SEQ" => {
                let $cfg = cfg_for(Algorithm::Sequential);
                let $store = LockedParams::new($theta0.to_vec(), gauge);
                $body
            }
            "HOG" => {
                let $cfg = cfg_for(Algorithm::Hogwild);
                let $store = HogwildParams::new($theta0, gauge);
                $body
            }
            "LSH" => {
                let $cfg = cfg_for(Algorithm::Leashed { persistence: None });
                let pool = BufferPool::new_with_recycling($theta0.len(), gauge, true);
                let $store = LeashedShared::new($theta0, pool);
                $body
            }
            "LSH_sharded" => {
                let shards = default_shards($theta0.len(), $workers);
                let $cfg = cfg_for(Algorithm::ShardedLeashed {
                    persistence: None,
                    shards,
                    snapshot: SnapshotMode::Fast,
                });
                let $store = ShardedShared::new($theta0, shards, gauge, true);
                $body
            }
            other => unreachable!("unknown algorithm {other}"),
        }
    }};
}

/// Benchmarks `algos` step latency on one workload under `name`: one
/// worker running the trainer's own [`WorkerState::step`] (read the shared
/// parameters, compute a minibatch gradient, publish the scaled update).
fn bench_workload<P: Problem>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    problem: &P,
    algos: &[&str],
) {
    let theta0 = problem.init_theta(1);
    group.throughput(Throughput::Elements(problem.dim() as u64));
    for &kind in algos {
        with_store!(kind, &theta0, 4, |store, cfg| bench_steps(
            group,
            BenchmarkId::new(name, kind),
            problem,
            &store,
            &cfg,
            None
        ));
    }
}

/// Fig. 3-style worker-scaling rows: `workers` concurrent trainer-style
/// tasks step against one shared backend, scheduled as scoped tasks on
/// the unified work-stealing runtime (exactly how [`lsgd_core::train`]
/// runs its workers, including any intra-step GEMM splits sharing the
/// same worker threads). One timed iteration = every worker completes
/// one step, so the `elements` throughput is `d × workers`: under
/// perfect scaling the per-iteration latency stays flat as `workers`
/// grows and `Melem/s` grows linearly; lock contention (SEQ) shows up
/// as latency growth instead.
fn bench_scaling<P: Problem>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    problem: &P,
    workers: usize,
    algos: &[&str],
) {
    let theta0 = problem.init_theta(1);
    group.throughput(Throughput::Elements((problem.dim() * workers) as u64));
    for &kind in algos {
        with_store!(kind, &theta0, workers, |store, cfg| bench_steps(
            group,
            BenchmarkId::new(format!("scaling_{name}_w{workers}"), kind),
            problem,
            &store,
            &cfg,
            Some(workers)
        ));
    }
}

/// Times [`WorkerState::step`] against `store`: one worker on the calling
/// thread (`scoped = None`), or `Some(w)` workers as scoped runtime tasks.
fn bench_steps<P: Problem, S: ParamStore>(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    problem: &P,
    store: &S,
    cfg: &TrainConfig,
    scoped: Option<usize>,
) {
    let workers = scoped.unwrap_or(1);
    let board = HeartbeatBoard::new(workers);
    let start = Instant::now();
    // Per-worker step state, handed to the scoped tasks through
    // `iter_mut` the same way the trainer distributes stats slots.
    let mut states: Vec<_> = (0..workers)
        .map(|worker_id| {
            let ctx = WorkerCtx { board: &board, worker_id, start };
            WorkerState::new(problem, store, cfg, ctx)
        })
        .collect();
    let rt = lsgd_runtime::global();
    group.bench_with_input(id, &(), |bench, _| {
        if scoped.is_none() {
            bench.iter(|| states[0].step());
            return;
        }
        bench.iter_custom(|iters| {
            let start = Instant::now();
            rt.scope(|scope| {
                for state in states.iter_mut() {
                    scope.spawn(move || {
                        for _ in 0..iters {
                            state.step();
                        }
                    });
                }
            });
            start.elapsed()
        });
    });
}

fn bench_sgd_step(c: &mut Criterion) {
    let smoke = lsgd_core::env::flag("LSGD_BENCH_SMOKE");
    // Optional trace window over the whole suite: needs both the probes
    // compiled in (`--features trace` — NOT the default, so the reference
    // bench stays untraced) and the runtime gate (`LSGD_TRACE=1`). The
    // dump then explains bench medians with protocol counters (publish
    // retries, snapshot retries, queue contention).
    let collector = lsgd_trace::enabled().then(lsgd_trace::Collector::new);
    let mut group = c.benchmark_group("sgd_step");
    if smoke {
        group
            .warm_up_time(Duration::from_millis(150))
            .measurement_time(Duration::from_millis(500))
            .sample_size(10);
    } else {
        group
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(2))
            .sample_size(10);
    }
    let all: [&str; 4] = ["SEQ", "HOG", "LSH", "LSH_sharded"];
    let samples = if smoke { 512 } else { 2048 };

    // Table II MLP, minibatch 128.
    let mlp_data = SynthDigits::default().generate(samples, 1);
    let mlp = NnProblem::new(lsgd_nn::mlp_mnist(), mlp_data, 128, 1);
    bench_workload(&mut group, "mlp", &mlp, &all);

    // Table III CNN, minibatch 64 — the im2col-dominated workload.
    let cnn_data = SynthDigits::default().generate(samples, 8);
    let cnn = NnProblem::new(lsgd_nn::cnn_mnist(), cnn_data, 64, 1);
    bench_workload(&mut group, "cnn", &cnn, &all);

    // Sparse logistic regression (PR 4 workload), minibatch 16: the
    // sharded row exercises the native sparse dirty-shard publication.
    let logreg = SparseLogRegProblem::new(sparse_logreg(2 * samples, 16_384, 12, 9), 16);
    bench_workload(&mut group, "sparse_logreg", &logreg, &all);

    // Fig. 3-style scaling: m ∈ {1, 2, 4} concurrent workers on the
    // unified runtime, NN workloads × {SEQ, HOG, LSH}. The w1 medians
    // double as a regression check against the single-worker rows above.
    let scaling: [&str; 3] = ["SEQ", "HOG", "LSH"];
    for &workers in &[1usize, 2, 4] {
        bench_scaling(&mut group, "mlp", &mlp, workers, &scaling);
        bench_scaling(&mut group, "cnn", &cnn, workers, &scaling);
    }

    group.finish();

    if let Some(collector) = collector {
        let dump = collector.finish();
        print!("{}", dump.report());
        if let Some(path) = lsgd_trace::chrome_path() {
            match lsgd_trace::chrome::append_run(&path, "sgd_step bench", &dump) {
                Ok(_) => println!("chrome trace appended to {path}"),
                Err(e) => eprintln!("failed to write {path}: {e}"),
            }
        }
    }
}

criterion_group!(benches, bench_sgd_step);
criterion_main!(benches);
