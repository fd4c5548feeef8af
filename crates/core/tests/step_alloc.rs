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
//! S = 4 as `ShardedLeashed`) the θ buffers are recycled by the pool,
//! but the count is not 0, and it is exactly what the protocol implies:
//!
//! * every dirty-shard publication `Box`es a fresh `ParamVec` header,
//!   kept in the shard's header arena until the store drops;
//! * the header arena and the pool's free list are `SegQueue`s, and each
//!   adds a segment every `SEG_CAP` (31) pushes: one push per
//!   publication on each, so about `2 · dirty / 31` segments, give or
//!   take one per queue for where its current segment stood;
//! * at S > 1 every read's `snapshot` allocates its guard and sequence
//!   `Vec`s.
//!
//! The dirty-shard total comes from the worker's own histogram. A
//! header arena that recycled headers and segments would show here as
//! this count dropping to 0.

use lsgd_core::baseline::{HogwildParams, LockedParams};
use lsgd_core::heartbeat::HeartbeatBoard;
use lsgd_core::mem::MemoryGauge;
use lsgd_core::prelude::*;
use lsgd_core::trainer::{Step, WorkerCtx, WorkerState};
use lsgd_core::{ParamStore, ShardedShared};
use lsgd_data::blobs::gaussian_blobs;
use lsgd_data::sparse_logreg::sparse_logreg;
use lsgd_metrics::Histogram;
use lsgd_sync::queue::SEG_CAP;
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

/// Steps one worker `WARM_UP` times, then `COUNTED` more; returns the
/// allocations those counted steps made and the dirty shards they
/// published (0 on a store that publishes no shards).
fn warm_steps<P: Problem, S: ParamStore>(
    p: &P,
    store: &S,
    algorithm: Algorithm,
    what: &str,
) -> (usize, u64) {
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
    let dirty_before = dirty_total(&worker.stats().hists.dirty_shards);
    let n = allocations(|| {
        for _ in 0..COUNTED {
            worker.step();
        }
    });
    assert_eq!(
        worker.stats().published,
        (WARM_UP + COUNTED) as u64,
        "{what}"
    );
    let dirty = dirty_total(&worker.stats().hists.dirty_shards) - dirty_before;
    (n, dirty)
}

/// Sum of the recorded dirty-shard counts.
fn dirty_total(h: &Histogram) -> u64 {
    (0..=h.max() as usize).map(|v| v as u64 * h.bin(v)).sum()
}

/// Asserts that `COUNTED` warm steps allocate nothing.
fn assert_warm_steps_allocate_nothing<P: Problem, S: ParamStore>(
    p: &P,
    store: &S,
    algorithm: Algorithm,
    what: &str,
) {
    let (n, _) = warm_steps(p, store, algorithm, what);
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
/// S = 1 and S = 4: one header per dirty-shard publication, the two
/// snapshot `Vec`s per read at S > 1, and the queue segments, each of
/// the 2·S queues within one segment of its pushes / `SEG_CAP`.
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
        let (n, dirty) = warm_steps(p, &store, algorithm, &what);
        let dirty = dirty as usize;
        assert!(dirty >= COUNTED, "{what}: {dirty} dirty shards");
        let snapshot_vecs = if shards > 1 { 2 * COUNTED } else { 0 };
        let fixed = format!("{n} allocations, {dirty} headers, {snapshot_vecs} snapshot Vecs");
        let segments = n.checked_sub(dirty + snapshot_vecs).expect(&fixed);
        let pushes = 2 * dirty;
        assert!(
            (segments * SEG_CAP).abs_diff(pushes) < 2 * shards * SEG_CAP,
            "{what}: {fixed}, {segments} queue segments for {pushes} pushes"
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

fn tiny_mlp() -> NnProblem {
    let data = gaussian_blobs(300, 6, 3, 0.3, 5);
    NnProblem::new(lsgd_nn::tiny_mlp(6, 16, 3), data, 16, 64)
}
