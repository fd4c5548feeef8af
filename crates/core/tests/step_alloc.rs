//! A warm `WorkerState::step` allocates nothing on the copy-on-read
//! stores.
//!
//! A counting `#[global_allocator]` tallies every allocation the test
//! thread makes while counting is on. One worker, driven on the test
//! thread, takes 50 warm-up steps on `LockedParams` and on
//! `HogwildParams`, which size its local copy, its gradient and its
//! problem scratch. The next 500 steps must then allocate nothing, on
//! `sparse_logreg` (a sparse gradient into the dense buffer) and on a
//! tiny MLP.
//!
//! The LAU-SPC store (`ShardedShared`) is the exception and is not
//! checked here: its θ buffers are recycled by the pool, but every shard
//! publication `Box`es a fresh `ParamVec` header that is kept until the
//! store drops, and the header arena and the pool's free list are
//! `SegQueue`s that add a segment every 31 pushes.

use lsgd_core::baseline::{HogwildParams, LockedParams};
use lsgd_core::heartbeat::HeartbeatBoard;
use lsgd_core::mem::MemoryGauge;
use lsgd_core::prelude::*;
use lsgd_core::trainer::{Step, WorkerCtx, WorkerState};
use lsgd_core::ParamStore;
use lsgd_data::blobs::gaussian_blobs;
use lsgd_data::sparse_logreg::sparse_logreg;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// `Some(n)` while this thread counts: `n` allocations so far.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `note` only touches a const-initialised thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    f();
    COUNT.with(|c| c.replace(None)).unwrap()
}

const WARM_UP: usize = 50;
const COUNTED: usize = 500;

/// Steps one worker `WARM_UP` times, then asserts that `COUNTED` more
/// steps allocate nothing.
fn assert_warm_steps_allocate_nothing<P: Problem, S: ParamStore>(
    p: &P,
    store: &S,
    algorithm: Algorithm,
    what: &str,
) {
    let cfg = TrainConfig {
        algorithm,
        eta: 0.05,
        ..TrainConfig::default()
    };
    let board = HeartbeatBoard::new(1);
    let ctx = WorkerCtx {
        board: &board,
        worker_id: 0,
    };
    let mut worker = WorkerState::new(p, store, &cfg, ctx);
    for _ in 0..WARM_UP {
        assert_eq!(worker.step(), Step::Published, "{what}");
    }
    let n = allocations(|| {
        for _ in 0..COUNTED {
            worker.step();
        }
    });
    assert_eq!(n, 0, "{what}: {COUNTED} warm steps allocated {n} times");
    assert_eq!(
        worker.stats().published,
        (WARM_UP + COUNTED) as u64,
        "{what}"
    );
}

fn on_both_stores<P: Problem>(p: &P, what: &str) {
    let theta0 = p.init_theta(1);
    let gauge = || Arc::new(MemoryGauge::new());
    let locked = LockedParams::new(theta0.clone(), gauge());
    assert_warm_steps_allocate_nothing(p, &locked, Algorithm::AsyncLock, &format!("{what} locked"));
    let hog = HogwildParams::new(&theta0, gauge());
    assert_warm_steps_allocate_nothing(p, &hog, Algorithm::Hogwild, &format!("{what} hogwild"));
}

#[test]
fn warm_sparse_logreg_step_allocates_nothing() {
    let p = SparseLogRegProblem::new(sparse_logreg(400, 256, 8, 3), 8);
    on_both_stores(&p, "sparse_logreg");
}

#[test]
fn warm_tiny_mlp_step_allocates_nothing() {
    let data = gaussian_blobs(300, 6, 3, 0.3, 5);
    let p = NnProblem::new(lsgd_nn::tiny_mlp(6, 16, 3), data, 16, 64);
    on_both_stores(&p, "tiny_mlp");
}
