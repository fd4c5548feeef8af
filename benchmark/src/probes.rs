//! Section C of the per-layer metrics: a few hundred milliseconds on each
//! layer's public functions alone, at the workload's sizes.

use crate::report::Metrics;
use crate::spec::{self, Kind, Workload};
use crate::stats::{median, Value};
use lsgd_core::mem::MemoryGauge;
use lsgd_core::pool::BufferPool;
use lsgd_core::prelude::*;
use lsgd_data::SynthDigits;
use lsgd_sync::SegQueue;
use lsgd_tensor::{gemm, Matrix, SmallRng64, Transpose};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median over `rounds` of the per-call time of `calls` calls, in
/// nanoseconds; one untimed round first.
fn per_call_ns(rounds: usize, calls: usize, mut f: impl FnMut()) -> Value {
    let mut round = || {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    };
    round();
    let xs: Vec<f64> = (0..rounds).map(|_| round()).collect();
    Value {
        n: rounds * calls,
        ..median(&xs)
    }
}

fn scaled(v: Value, by: f64) -> Value {
    Value {
        value: v.value * by,
        ..v
    }
}

/// Rounds and calls divided down for `--smoke`.
struct Effort {
    smoke: bool,
}

impl Effort {
    fn calls(&self, n: usize) -> usize {
        if self.smoke {
            (n / spec::SMOKE_DIVISOR as usize).max(2)
        } else {
            n
        }
    }

    fn rounds(&self) -> usize {
        if self.smoke {
            2
        } else {
            9
        }
    }
}

/// All of section C.
pub fn run<P: Problem>(problem: &P, wl: &Workload, seed: u64, smoke: bool, m: &mut Metrics) {
    let effort = Effort { smoke };
    problem_probes(problem, seed, &effort, m);
    substrate_probes(&effort, m);
    nn_probes(wl, seed, &effort, m);
}

/// The probes that need the workload's own problem: the monitor's
/// evaluation and the pool at the workload's `d`.
fn problem_probes<P: Problem>(problem: &P, seed: u64, effort: &Effort, m: &mut Metrics) {
    let theta = problem.init_theta(seed);
    let mut scratch = problem.scratch();
    let eval = per_call_ns(effort.rounds(), effort.calls(8), || {
        black_box(problem.eval_loss(black_box(&theta), &mut scratch));
    });
    let eval_ms = scaled(eval, 1e-6);
    m.insert("monitor.eval_ms".into(), eval_ms);
    m.insert(
        "monitor.busy_share".into(),
        scaled(eval_ms, 1.0 / spec::EVAL_EVERY_MS as f64),
    );

    let pool = BufferPool::new(problem.dim(), Arc::new(MemoryGauge::new()));
    let pair = per_call_ns(effort.rounds(), effort.calls(200_000), || {
        let buf = pool.acquire();
        // SAFETY: `buf` came from `acquire` on this pool one line up and is
        // not touched after this call.
        unsafe { pool.release(black_box(buf)) };
    });
    m.insert("pool.acquire_release_ns".into(), pair);
}

/// `SegQueue` push/pop pairs; with two threads, both hammer one queue and
/// the time is what each thread waits per pair.
fn queue_probe(effort: &Effort, threads: usize) -> Value {
    let queue = SegQueue::new();
    let pairs = effort.calls(400_000);
    let mut rounds = Vec::new();
    for round in 0..=effort.rounds() {
        let start = Instant::now();
        lsgd_runtime::global().scope(|scope| {
            for _ in 0..threads {
                let queue = &queue;
                scope.spawn(move || {
                    for i in 0..pairs {
                        queue.push(i);
                        black_box(queue.pop());
                    }
                });
            }
        });
        if round > 0 {
            rounds.push(start.elapsed().as_nanos() as f64 / pairs as f64);
        }
    }
    Value {
        n: rounds.len() * pairs * threads,
        ..median(&rounds)
    }
}

/// The probes that do not depend on the problem: queue and runtime.
fn substrate_probes(effort: &Effort, m: &mut Metrics) {
    m.insert("queue.push_pop_ns.t1".into(), queue_probe(effort, 1));
    m.insert(
        "queue.push_pop_ns.t2".into(),
        queue_probe(effort, spec::THREADS),
    );
    let rt = lsgd_runtime::global();
    let fanout = per_call_ns(effort.rounds(), effort.calls(2_000), || {
        rt.scope(|scope| {
            scope.spawn(|| {});
            scope.spawn(|| {});
        });
    });
    m.insert("runtime.scope_fanout_us".into(), scaled(fanout, 1e-3));
    let pfor = per_call_ns(effort.rounds(), effort.calls(5_000), || {
        rt.parallel_for(8, &|i| {
            black_box(i);
        });
    });
    m.insert("runtime.parallel_for_us".into(), scaled(pfor, 1e-3));
}

/// The network, batch and dominant GEMM `(m, k, n)` the nn/gemm probes
/// run at. The sparse workloads have no network, so there the probes keep
/// the Table II MLP as a fixed reference: the numbers then say how fast
/// these layers are on this machine, not where the workload spends time.
fn nn_reference(wl: &Workload) -> (lsgd_nn::Network, usize, (usize, usize, usize)) {
    match wl.kind {
        // Second conv layer as im2col: 8 filters x (4*3*3) patch x (11*11*batch).
        Kind::Cnn => (lsgd_nn::cnn_mnist(), wl.batch, (8, 36, 121 * wl.batch)),
        // First dense layer: batch x 784 x 128.
        Kind::Mlp => (lsgd_nn::mlp_mnist(), wl.batch, (wl.batch, 784, 128)),
        Kind::Sparse { .. } => (lsgd_nn::mlp_mnist(), 64, (64, 784, 128)),
    }
}

/// `gemm.*` on the dominant GEMM shape, `nn.fwd_us` and `nn.bwd_us`.
fn nn_probes(wl: &Workload, seed: u64, effort: &Effort, m: &mut Metrics) {
    let (net, batch, (gm, gk, gn)) = nn_reference(wl);
    let mut rng = SmallRng64::new(seed);
    let a = Matrix::from_fn(gm, gk, |_, _| rng.next_normal());
    let b = Matrix::from_fn(gk, gn, |_, _| rng.next_normal());
    let mut c = Matrix::zeros(gm, gn);
    let call = per_call_ns(effort.rounds(), effort.calls(200), || {
        gemm(
            1.0,
            black_box(&a),
            Transpose::No,
            black_box(&b),
            Transpose::No,
            0.0,
            &mut c,
        );
        black_box(&c);
    });
    let flops = 2.0 * (gm * gk * gn) as f64;
    m.insert(
        "gemm.gflops".into(),
        Value {
            value: flops / call.value,
            ..call
        },
    );
    // Computed from the shape, not measured: each operand moved once.
    let bytes = 4.0 * (gm * gk + gk * gn + gm * gn) as f64;
    m.insert("gemm.flops_per_byte".into(), Value::one(flops / bytes));

    let data = SynthDigits::default().generate(batch, seed);
    let theta = net.init_params(seed);
    let mut grad = vec![0.0; theta.len()];
    let mut ws = net.workspace(batch);
    let fwd = per_call_ns(effort.rounds(), effort.calls(60), || {
        black_box(net.forward(black_box(&theta), &data.images, &mut ws));
    });
    let both = per_call_ns(effort.rounds(), effort.calls(60), || {
        black_box(net.loss_grad(
            black_box(&theta),
            &data.images,
            &data.labels,
            &mut grad,
            &mut ws,
        ));
    });
    m.insert("nn.fwd_us".into(), scaled(fwd, 1e-3));
    m.insert(
        "nn.bwd_us".into(),
        Value {
            value: (both.value - fwd.value) * 1e-3,
            ..both
        },
    );
}
