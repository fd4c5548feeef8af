//! A warm gradient step allocates nothing.
//!
//! A counting `#[global_allocator]` tallies every allocation the test
//! thread makes while counting is on. Three warm-up `loss_grad` calls
//! through one workspace size every buffer: activations, each layer's
//! packed weight slots, the conv slabs and the thread-local GEMM and
//! lowering scratch. The next five calls must then allocate nothing, on
//! the paper's MLP (batch 64) and CNN (batch 32), each on an injected
//! `Runtime::new(1)` and `Runtime::new(2)`.
//!
//! The counter is thread-local: it sees only the calling thread. On one
//! thread every split runs inline there, so it sees the whole step. On
//! two threads it sees the caller's share of the step — its GEMM bands
//! and conv sample ranges, and the fan-out itself (task queue, range
//! arithmetic) — but not what the helper thread runs.

use lsgd_nn::Network;
use lsgd_runtime::Runtime;
use lsgd_tensor::{Matrix, SmallRng64};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

fn assert_warm_steps_allocate_nothing(net: &Network, batch: usize) {
    for threads in [1, 2] {
        assert_warm_steps_allocate_nothing_on(net, batch, threads);
    }
}

fn assert_warm_steps_allocate_nothing_on(net: &Network, batch: usize, threads: usize) {
    let theta = net.init_params(1);
    let mut rng = SmallRng64::new(2);
    let x = Matrix::from_fn(batch, net.in_dim(), |_, _| rng.next_f32() - 0.5);
    let y: Vec<u8> = (0..batch)
        .map(|_| rng.next_below(net.n_classes()) as u8)
        .collect();
    let mut ws = net.workspace(batch);
    ws.set_runtime(Runtime::new(threads).into());
    let mut grad = vec![0.0f32; net.param_len()];
    // The cold call fills the packed slots: proof that the counter is live.
    let cold = allocations(|| {
        net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
    });
    assert!(cold > 0, "the cold call must allocate its packed slots");
    for _ in 0..2 {
        net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
    }
    let n = allocations(|| {
        for _ in 0..5 {
            net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
        }
    });
    assert_eq!(
        n, 0,
        "5 warm loss_grad calls at batch {batch} on {threads} threads allocated {n} times"
    );
}

#[test]
fn warm_mlp_step_allocates_nothing() {
    assert_warm_steps_allocate_nothing(&lsgd_nn::mlp_mnist(), 64);
}

#[test]
fn warm_cnn_step_allocates_nothing() {
    assert_warm_steps_allocate_nothing(&lsgd_nn::cnn_mnist(), 32);
}
