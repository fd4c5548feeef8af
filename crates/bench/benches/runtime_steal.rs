//! Scheduling-overhead microbench: dispatch + join cost of the
//! work-stealing runtime's `parallel_for` on a synthetic panel kernel.
//!
//! * `fanout_<n>x<w>` — `n` tasks of `w` inner saxpy passes each. The
//!   small-`w` rows are dominated by scheduling (the regime where the
//!   deque's lock-free claim path matters); the large-`w` rows carry real
//!   GEMM-panel-sized work per task.
//!
//! `LSGD_BENCH_SMOKE=1` shortens the windows for CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lsgd_runtime::Runtime;
use std::sync::Mutex;
use std::time::Duration;

/// One task: `passes` saxpy sweeps over a private 1 KiB panel — the
/// shape of a packed GEMM micro-tile, scaled by `passes` to move the
/// scheduling/compute ratio.
fn panel_kernel(buf: &mut [f32], passes: usize) {
    for p in 0..passes {
        let a = 1.0 + (p as f32) * 1e-3;
        for x in buf.iter_mut() {
            *x = a * *x + 0.5;
        }
    }
}

fn bench_runtime_steal(c: &mut Criterion) {
    let smoke = lsgd_core::env::flag("LSGD_BENCH_SMOKE");
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rt = Runtime::new(threads);

    let mut group = c.benchmark_group("runtime_steal");
    if smoke {
        group
            .warm_up_time(Duration::from_millis(100))
            .measurement_time(Duration::from_millis(400))
            .sample_size(10);
    } else {
        group
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(1))
            .sample_size(10);
    }

    // (ntasks, passes): scheduling-bound → compute-bound.
    for &(ntasks, passes) in &[(64usize, 1usize), (64, 16), (256, 4), (1024, 1)] {
        let mut bufs: Vec<Vec<f32>> = (0..ntasks).map(|_| vec![1.0f32; 256]).collect();
        let slots: Vec<Mutex<&mut [f32]>> =
            bufs.iter_mut().map(|b| Mutex::new(b.as_mut_slice())).collect();
        group.throughput(Throughput::Elements(ntasks as u64));
        let name = format!("fanout_{ntasks}x{passes}");
        group.bench_with_input(BenchmarkId::new(&name, "steal"), &(), |bench, _| {
            bench.iter(|| {
                rt.parallel_for(ntasks, &|i| {
                    panel_kernel(&mut slots[i].lock().unwrap(), passes);
                });
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_runtime_steal);
criterion_main!(benches);
