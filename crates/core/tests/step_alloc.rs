//! What a warm `WorkerState::step` allocates, store by store.
//!
//! A counting `#[global_allocator]` tallies every allocation the test
//! thread makes while counting is on. One worker, driven on the test
//! thread, takes 50 warm-up steps, which size its local copy, its
//! gradient and its problem scratch; the next 500 steps are counted, on
//! `sparse_logreg` (a sparse gradient, published as `(index, value)`
//! pairs) and on a tiny MLP.
//!
//! On the copy-on-read stores (`LockedParams`, `HogwildParams`) the
//! count is 0.
//!
//! On the LAU-SPC store (`ShardedShared`, at S = 1 as `Leashed` and at
//! S = 4 as `ShardedLeashed`) every ParameterVector slot, header and θ
//! buffer together, is recycled by the pool through its free bits, so
//! the count is 0 at S = 1. At S > 1 it is exactly the two `Vec`s, guards
//! and sequence numbers, that every read's `snapshot` allocates.
//!
//! The last test counts live bytes as well: 18,000 more warm steps hold
//! not one byte more.

use lsgd_core::baseline::{HogwildParams, LockedParams};
use lsgd_core::heartbeat::HeartbeatBoard;
use lsgd_core::mem::MemoryGauge;
use lsgd_core::prelude::*;
use lsgd_core::trainer::{Step, WorkerCtx, WorkerState};
use lsgd_core::{ParamStore, ShardedShared};
use lsgd_data::blobs::gaussian_blobs;
use lsgd_data::sparse_logreg::sparse_logreg;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

/// What this thread did while counting: allocations, and bytes allocated
/// minus bytes freed.
#[derive(Clone, Copy, Default)]
struct Tally {
    allocs: usize,
    live: isize,
}

thread_local! {
    /// `Some` while this thread counts.
    static COUNT: Cell<Option<Tally>> = const { Cell::new(None) };
}

fn note(allocs: usize, bytes: isize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| {
        c.set(c.get().map(|t| Tally {
            allocs: t.allocs + allocs,
            live: t.live + bytes,
        }))
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `note` only touches a const-initialised thread-local `Cell`
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `f` allocated on this thread.
fn tally(f: impl FnOnce()) -> Tally {
    COUNT.with(|c| c.set(Some(Tally::default())));
    f();
    COUNT.with(|c| c.replace(None)).unwrap()
}

const WARM_UP: usize = 50;
const COUNTED: usize = 500;

/// Steps one worker `warm_up` times, then `counted` more; returns what
/// those counted steps allocated.
fn warm_steps<P: Problem, S: ParamStore>(
    p: &P,
    store: &S,
    algorithm: Algorithm,
    (warm_up, counted): (usize, usize),
    what: &str,
) -> Tally {
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
    for _ in 0..warm_up {
        assert_eq!(worker.step(), Step::Published, "{what}");
    }
    let n = tally(|| {
        for _ in 0..counted {
            worker.step();
        }
    });
    assert_eq!(
        worker.stats().published,
        (warm_up + counted) as u64,
        "{what}"
    );
    n
}

/// Asserts that `COUNTED` warm steps allocate nothing.
fn assert_warm_steps_allocate_nothing<P: Problem, S: ParamStore>(
    p: &P,
    store: &S,
    algorithm: Algorithm,
    what: &str,
) {
    let n = warm_steps(p, store, algorithm, (WARM_UP, COUNTED), what).allocs;
    assert_eq!(n, 0, "{what}: {COUNTED} warm steps allocated {n} times");
}

fn on_both_stores<P: Problem>(p: &P, what: &str) {
    let theta0 = p.init_theta(1);
    let gauge = || Arc::new(MemoryGauge::new());
    let locked = LockedParams::new(theta0.clone(), gauge());
    assert_warm_steps_allocate_nothing(p, &locked, Algorithm::AsyncLock, &format!("{what} locked"));
    let hog = HogwildParams::new(&theta0, gauge());
    assert_warm_steps_allocate_nothing(p, &hog, Algorithm::Hogwild, &format!("{what} hogwild"));
}

/// Asserts the allocations of `COUNTED` warm steps on `ShardedShared` at
/// S = 1 and S = 4: none, and the two snapshot `Vec`s per read at S > 1.
fn on_lau_spc_store<P: Problem>(p: &P, what: &str) {
    let theta0 = p.init_theta(1);
    let persistence = None;
    let sharded = Algorithm::ShardedLeashed {
        persistence,
        shards: 4,
        snapshot: SnapshotMode::Fast,
    };
    for (shards, algorithm) in [(1, Algorithm::Leashed { persistence }), (4, sharded)] {
        let store = ShardedShared::new(&theta0, shards, Arc::new(MemoryGauge::new()), true);
        let what = format!("{what} S={shards}");
        let n = warm_steps(p, &store, algorithm, (WARM_UP, COUNTED), &what).allocs;
        let snapshot_vecs = if shards > 1 { 2 * COUNTED } else { 0 };
        assert_eq!(
            n, snapshot_vecs,
            "{what}: {COUNTED} warm steps allocated {n} times"
        );
    }
}

#[test]
fn warm_sparse_logreg_step_allocates_nothing() {
    let p = SparseLogRegProblem::new(sparse_logreg(400, 256, 8, 3), 8);
    on_both_stores(&p, "sparse_logreg");
}

#[test]
fn warm_tiny_mlp_step_allocates_nothing() {
    on_both_stores(&tiny_mlp(), "tiny_mlp");
}

#[test]
fn warm_sparse_logreg_lau_spc_step_allocates_per_publication() {
    let p = SparseLogRegProblem::new(sparse_logreg(400, 256, 8, 3), 8);
    on_lau_spc_store(&p, "sparse_logreg");
}

#[test]
fn warm_tiny_mlp_lau_spc_step_allocates_per_publication() {
    on_lau_spc_store(&tiny_mlp(), "tiny_mlp");
}

/// Memory a LAU-SPC run holds stays flat in the number of publications:
/// 18,000 warm steps after the first 2,000 leave no byte more live.
#[test]
fn lau_spc_live_bytes_stay_flat_over_20k_publications() {
    let p = SparseLogRegProblem::new(sparse_logreg(400, 256, 8, 3), 8);
    let theta0 = p.init_theta(1);
    let persistence = None;
    let sharded = Algorithm::ShardedLeashed {
        persistence,
        shards: 4,
        snapshot: SnapshotMode::Fast,
    };
    for (shards, algorithm) in [(1, Algorithm::Leashed { persistence }), (4, sharded)] {
        let store = ShardedShared::new(&theta0, shards, Arc::new(MemoryGauge::new()), true);
        let what = format!("sparse_logreg S={shards}");
        let n = warm_steps(&p, &store, algorithm, (2_000, 18_000), &what);
        assert!(
            n.live <= 0,
            "{what}: live bytes grew by {} over 18,000 publications",
            n.live
        );
    }
}

fn tiny_mlp() -> NnProblem {
    let data = gaussian_blobs(300, 6, 3, 0.3, 5);
    NnProblem::new(lsgd_nn::tiny_mlp(6, 16, 3), data, 16, 64)
}
