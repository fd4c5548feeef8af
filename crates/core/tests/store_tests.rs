//! What the shared `WorkerState::step` and the `ParamStore` trait make
//! checkable: every store lands exactly the update a sequential
//! `theta -= eta * g` would, and every store honours the same contract.

use lsgd_core::baseline::{HogwildParams, LockedParams};
use lsgd_core::heartbeat::HeartbeatBoard;
use lsgd_core::mem::MemoryGauge;
use lsgd_core::pool::BufferPool;
use lsgd_core::prelude::*;
use lsgd_core::sparsify::sparsify_top_frac;
use lsgd_core::trainer::{Step, WorkerCtx, WorkerState};
use lsgd_core::{Direction, LeashedShared, ParamStore, ShardedShared};
use lsgd_data::blobs::gaussian_blobs;
use lsgd_data::sparse_logreg::sparse_logreg;
use lsgd_metrics::OnlineStats;
use lsgd_tensor::SmallRng64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

const STEPS: u64 = 60;

fn gauge() -> Arc<MemoryGauge> {
    Arc::new(MemoryGauge::new())
}

/// `STEPS` steps of textbook SGD on worker 0's RNG stream.
fn oracle<P: Problem>(p: &P, cfg: &TrainConfig) -> Vec<f32> {
    let mut theta = p.init_theta(cfg.seed);
    // The trainer's worker-stream derivation, for worker_id = 0.
    let mut rng = SmallRng64::new(cfg.seed ^ 0x5bd1e995u64.wrapping_mul(1));
    let mut scratch = p.scratch();
    let mut grad = vec![0.0f32; p.dim()];
    let mut velocity = vec![0.0f32; p.dim()];
    let mut tmp = Vec::new();
    for _ in 0..STEPS {
        p.grad(&theta, &mut grad, &mut scratch, &mut rng);
        if let Some(frac) = cfg.sparsify {
            sparsify_top_frac(&mut grad, frac, &mut tmp);
        }
        if cfg.momentum != 0.0 {
            for (v, g) in velocity.iter_mut().zip(&mut grad) {
                *v = cfg.momentum * *v + *g;
                *g = *v;
            }
        }
        for (t, g) in theta.iter_mut().zip(&grad) {
            *t -= cfg.eta * g;
        }
    }
    theta
}

/// Drives one worker through `STEPS` steps on `store`; returns the final θ.
fn drive<P: Problem, S: ParamStore>(p: &P, store: &S, cfg: &TrainConfig) -> Vec<f32> {
    let board = HeartbeatBoard::new(1);
    let ctx = WorkerCtx {
        board: &board,
        worker_id: 0,
        start: Instant::now(),
    };
    let mut worker = WorkerState::new(p, store, cfg, ctx);
    for _ in 0..STEPS {
        assert_eq!(worker.step(), Step::Published);
    }
    let stats = worker.stats();
    assert_eq!(stats.published, STEPS);
    assert_eq!((stats.aborted, stats.failed_cas, stats.degraded), (0, 0, 0));
    assert_eq!(stats.hists.staleness.count(), STEPS);
    assert_eq!(stats.hists.staleness.max(), 0, "one worker is never stale");
    assert_eq!(stats.hists.tau_s.max(), 0, "one worker never loses a race");
    let mut theta = vec![0.0f32; p.dim()];
    store.snapshot_into(&mut theta);
    theta
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: theta[{i}] = {g}, oracle {w}");
    }
}

/// Every store, stepped single-threaded, must equal the oracle bit for bit.
fn check_all_stores<P: Problem>(p: &P, what: &str, cfg: &TrainConfig) {
    let want = oracle(p, cfg);
    assert!(want.iter().all(|v| v.is_finite()));
    let theta0 = p.init_theta(cfg.seed);
    assert_ne!(want, theta0, "{what}: the oracle must have moved");
    let with = |algorithm| TrainConfig {
        algorithm,
        ..cfg.clone()
    };

    let locked = LockedParams::new(theta0.clone(), gauge());
    let got = drive(p, &locked, &with(Algorithm::Sequential));
    assert_bits_eq(&got, &want, &format!("{what} SEQ"));

    let hog = HogwildParams::new(&theta0, gauge());
    let got = drive(p, &hog, &with(Algorithm::Hogwild));
    assert_bits_eq(&got, &want, &format!("{what} HOG"));

    let leashed = LeashedShared::new(&theta0, BufferPool::new(p.dim(), gauge()));
    let algorithm = Algorithm::Leashed {
        persistence: Some(0),
    };
    let got = drive(p, &leashed, &with(algorithm));
    assert_bits_eq(&got, &want, &format!("{what} LSH"));

    for (shards, snapshot) in [
        (1, SnapshotMode::Fast),
        (4, SnapshotMode::Fast),
        (4, SnapshotMode::Consistent),
    ] {
        let sharded = ShardedShared::new(&theta0, shards, gauge(), true);
        let algorithm = Algorithm::ShardedLeashed {
            persistence: Some(0),
            shards,
            snapshot,
        };
        let got = drive(p, &sharded, &with(algorithm));
        assert_bits_eq(&got, &want, &format!("{what} sharded S={shards} {snapshot:?}"));
    }
}

/// The three step configurations: plain (on `sparse_logreg` the sharded
/// store takes its sparse-native path), momentum (dense everywhere) and
/// top-10 % sparsification (index pairs for the sharded store, zeroing
/// for the others).
fn variants(eta: f32) -> [(&'static str, TrainConfig); 3] {
    let base = TrainConfig {
        eta,
        seed: 7,
        ..TrainConfig::default()
    };
    [
        ("plain", base.clone()),
        (
            "momentum",
            TrainConfig {
                momentum: 0.9,
                ..base.clone()
            },
        ),
        (
            "sparsify",
            TrainConfig {
                sparsify: Some(0.1),
                ..base
            },
        ),
    ]
}

#[test]
fn every_store_is_bit_identical_to_sequential_sgd_on_sparse_logreg() {
    let p = SparseLogRegProblem::new(sparse_logreg(400, 256, 8, 3), 8);
    for (name, cfg) in variants(0.5) {
        check_all_stores(&p, &format!("sparse_logreg/{name}"), &cfg);
    }
}

#[test]
fn every_store_is_bit_identical_to_sequential_sgd_on_a_tiny_mlp() {
    let data = gaussian_blobs(300, 6, 3, 0.3, 5);
    let p = NnProblem::new(lsgd_nn::tiny_mlp(6, 16, 3), data, 16, 64);
    for (name, cfg) in variants(0.1) {
        check_all_stores(&p, &format!("tiny_mlp/{name}"), &cfg);
    }
}

/// The `ParamStore` contract, checked against one implementation.
fn conformance<S: ParamStore>(
    algorithm: Algorithm,
    make: impl FnOnce(&[f32], Arc<MemoryGauge>) -> S,
) {
    const DIM: usize = 8;
    let gauge = gauge();
    let theta0: Vec<f32> = (0..DIM).map(|i| i as f32).collect();
    let store = make(&theta0, Arc::clone(&gauge));
    let mut tu = OnlineStats::new();
    let read = |w: &mut S::Worker| store.read(w, |theta| theta.to_vec());
    let snapshot = || {
        let mut dst = vec![0.0f32; DIM];
        store.snapshot_into(&mut dst);
        dst
    };

    // A worker's buffers are on the gauge exactly while it lives.
    let before = gauge.live();
    let mut w = store.worker(&algorithm);
    assert_eq!(gauge.live(), before + store.worker_bytes());
    assert!(store.worker_bytes() >= DIM * 4, "at least the gradient");

    // `read` sees exactly what the last `publish` wrote; `snapshot_into`
    // sees what `read` sees.
    let mut want = theta0.clone();
    assert_eq!(read(&mut w), want);
    let g: Vec<f32> = (0..DIM).map(|i| i as f32 - 3.0).collect();
    let out = store.publish(&mut w, Direction::Dense(&g), 0.5, &mut tu);
    assert!(out.published);
    assert_eq!((out.tau, out.failed_cas), (0, 0));
    for (t, g) in want.iter_mut().zip(&g) {
        *t -= 0.5 * g;
    }
    assert_eq!(read(&mut w), want);
    assert_eq!(snapshot(), want);

    // A sparse direction lands like its dense scatter, on every store.
    let pairs = [(1u32, 2.0f32), (DIM as u32 - 1, -1.0)];
    assert!(store.publish(&mut w, Direction::Sparse(&pairs), 0.25, &mut tu).published);
    for &(i, v) in &pairs {
        want[i as usize] -= 0.25 * v;
    }
    assert_eq!(read(&mut w), want);
    assert_eq!(snapshot(), want);
    assert!(tu.count() >= 2, "Tu is sampled on every publish");

    // `tau_est` = publishes since the worker's read; a publish from that
    // stale read then reports the same number as its τ.
    let mut stale = store.worker(&algorithm);
    read(&mut stale);
    assert_eq!(store.tau_est(&stale), 0);
    let ones = [1.0f32; DIM];
    for k in 1..=3 {
        read(&mut w);
        assert!(store.publish(&mut w, Direction::Dense(&ones), 0.0, &mut tu).published);
        assert_eq!(store.tau_est(&stale), k);
    }
    let out = store.publish(&mut stale, Direction::Dense(&ones), 0.0, &mut tu);
    assert!(out.published);
    assert_eq!(out.tau, 3);
    assert_eq!(read(&mut stale), want, "eta = 0 publishes moved nothing");
    assert_eq!(store.tau_est(&stale), 0);
    assert_eq!(store.degraded_reads(&stale), 0);

    // A panic inside the read closure releases the read and the worker's
    // gauge bytes, and leaves the store usable.
    let before_panic = gauge.live();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let mut doomed = store.worker(&algorithm);
        store.read(&mut doomed, |_| panic!("grad blew up"))
    }));
    assert!(unwound.is_err());
    assert_eq!(gauge.live(), before_panic);
    assert!(store.publish(&mut w, Direction::Dense(&g), 0.5, &mut tu).published);
    for (t, g) in want.iter_mut().zip(&g) {
        *t -= 0.5 * g;
    }
    assert_eq!(read(&mut w), want);

    // Workers, then the store: the gauge returns to where it started.
    drop((w, stale));
    drop(store);
    assert_eq!(gauge.live(), 0);
}

#[test]
fn locked_params_honours_the_param_store_contract() {
    conformance(Algorithm::AsyncLock, |init, gauge| {
        LockedParams::new(init.to_vec(), gauge)
    });
}

#[test]
fn hogwild_params_honours_the_param_store_contract() {
    conformance(Algorithm::Hogwild, HogwildParams::new);
}

#[test]
fn leashed_shared_honours_the_param_store_contract() {
    conformance(Algorithm::Leashed { persistence: None }, |init, gauge| {
        LeashedShared::new(init, BufferPool::new(init.len(), gauge))
    });
}

#[test]
fn sharded_shared_honours_the_param_store_contract() {
    for (shards, snapshot) in [(1, SnapshotMode::Fast), (4, SnapshotMode::Consistent)] {
        let algorithm = Algorithm::ShardedLeashed {
            persistence: None,
            shards,
            snapshot,
        };
        conformance(algorithm, |init, gauge| {
            ShardedShared::new(init, shards, gauge, true)
        });
    }
}
