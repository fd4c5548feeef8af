//! What the shared `WorkerState::step` and the `ParamStore` trait make
//! checkable: every store lands exactly the update a sequential
//! `theta -= eta * g` would, and every store honours the same contract.

use lsgd_core::baseline::{HogwildParams, LockedParams};
use lsgd_core::heartbeat::HeartbeatBoard;
use lsgd_core::mem::MemoryGauge;
use lsgd_core::prelude::*;
use lsgd_core::trainer::{Step, WorkerCtx, WorkerState};
use lsgd_core::{Direction, ParamStore, ShardedShared};
use lsgd_data::blobs::gaussian_blobs;
use lsgd_data::sparse_logreg::sparse_logreg;
use lsgd_metrics::OnlineStats;
use lsgd_tensor::SmallRng64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

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
    for _ in 0..STEPS {
        p.grad(&theta, &mut grad, &mut scratch, &mut rng);
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

    let sharded = |shards, snapshot| Algorithm::ShardedLeashed {
        persistence: Some(0),
        shards,
        snapshot,
    };
    let lsh = Algorithm::Leashed {
        persistence: Some(0),
    };
    for (shards, algorithm) in [
        (1, lsh),
        (1, sharded(1, SnapshotMode::Fast)),
        (4, sharded(4, SnapshotMode::Fast)),
        (4, sharded(4, SnapshotMode::Consistent)),
    ] {
        let store = ShardedShared::new(&theta0, shards, gauge(), true);
        let got = drive(p, &store, &with(algorithm));
        assert_bits_eq(&got, &want, &format!("{what} {algorithm} S={shards}"));
    }
}

/// The step configuration the stores are checked at (on `sparse_logreg`
/// the sharded store takes its sparse-native path).
fn config(eta: f32) -> TrainConfig {
    TrainConfig {
        eta,
        seed: 7,
        ..TrainConfig::default()
    }
}

#[test]
fn every_store_is_bit_identical_to_sequential_sgd_on_sparse_logreg() {
    let p = SparseLogRegProblem::new(sparse_logreg(400, 256, 8, 3), 8);
    check_all_stores(&p, "sparse_logreg", &config(0.5));
}

#[test]
fn every_store_is_bit_identical_to_sequential_sgd_on_a_tiny_mlp() {
    let data = gaussian_blobs(300, 6, 3, 0.3, 5);
    let p = NnProblem::new(lsgd_nn::tiny_mlp(6, 16, 3), data, 16, 64);
    check_all_stores(&p, "tiny_mlp", &config(0.1));
}

/// The `ParamStore` contract, checked against one implementation that
/// charges each worker `copies` θ-sized buffers.
fn conformance<S: ParamStore>(
    algorithm: Algorithm,
    copies: usize,
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
    assert_eq!(store.worker_bytes(), copies * DIM * 4, "{algorithm}");

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

    // A publish from a read that three fresh publishes overtook reports
    // τ = 3; each of those three was fresh itself.
    let mut stale = store.worker(&algorithm);
    read(&mut stale);
    let ones = [1.0f32; DIM];
    for _ in 0..3 {
        read(&mut w);
        let out = store.publish(&mut w, Direction::Dense(&ones), 0.0, &mut tu);
        assert!(out.published);
        assert_eq!(out.tau, 0);
    }
    let out = store.publish(&mut stale, Direction::Dense(&ones), 0.0, &mut tu);
    assert!(out.published);
    assert_eq!(out.tau, 3);
    assert_eq!(read(&mut stale), want, "eta = 0 publishes moved nothing");
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
    conformance(Algorithm::AsyncLock, 2, |init, gauge| {
        LockedParams::new(init.to_vec(), gauge)
    });
}

#[test]
fn hogwild_params_honours_the_param_store_contract() {
    conformance(Algorithm::Hogwild, 2, HogwildParams::new);
}

/// Leashed-SGD is the sharded store with one shard: the worker keeps no
/// copy (only the gradient is charged), and `read` hands `f` the
/// published buffer itself.
#[test]
fn leashed_shared_honours_the_param_store_contract() {
    let algorithm = Algorithm::Leashed { persistence: None };
    conformance(algorithm, 1, |init, gauge| {
        ShardedShared::new(init, 1, gauge, true)
    });
    let store = ShardedShared::new(&[1.0; 8], 1, gauge(), true);
    let mut w = store.worker(&algorithm);
    let read = store.read(&mut w, |theta| theta.as_ptr());
    assert_eq!(read, store.shard(0).latest().theta().as_ptr(), "zero-copy read");
}

#[test]
fn sharded_shared_honours_the_param_store_contract() {
    for (shards, snapshot, copies) in [
        (1, SnapshotMode::Fast, 1),
        (4, SnapshotMode::Consistent, 2),
    ] {
        let algorithm = Algorithm::ShardedLeashed {
            persistence: None,
            shards,
            snapshot,
        };
        conformance(algorithm, copies, |init, gauge| {
            ShardedShared::new(init, shards, gauge, true)
        });
    }
}
