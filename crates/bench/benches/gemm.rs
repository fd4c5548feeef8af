//! Criterion bench: GEMM throughput on the shapes the paper's workloads
//! exercise (MLP layer products and CNN im2col products).
//!
//! Three rows per shape:
//!
//! * `packed/*`   — the packed micro-kernel path ([`lsgd_tensor::gemm::gemm`]),
//! * `naive/*`    — the retained pre-packing kernel
//!   ([`lsgd_tensor::gemm::gemm_naive`]), kept as the regression baseline,
//! * `parallel/*` — [`lsgd_tensor::gemm::gemm_slices_parallel_in`] on the
//!   global work-stealing runtime (equals `packed` when the host or
//!   `LSGD_THREADS` gives the runtime a single thread, or for
//!   sub-threshold products).
//!
//! Set `LSGD_BENCH_SMOKE=1` to shrink warm-up/measurement windows — used
//! by the CI smoke step so throughput regressions show up in logs without
//! a full measurement run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lsgd_tensor::gemm::{gemm, gemm_naive, gemm_slices_parallel_in, Transpose};
use lsgd_tensor::{Matrix, SmallRng64};
use std::hint::black_box;
use std::time::Duration;

fn rand_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng64::new(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.next_f32() - 0.5)
}

type Kernel = fn(f32, &Matrix, Transpose, &Matrix, Transpose, f32, &mut Matrix);

/// The `parallel/*` kernel: the slice entry point on the global runtime.
fn parallel_kernel(
    alpha: f32,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    beta: f32,
    c: &mut Matrix,
) {
    let (a_shape, b_shape, c_shape) = (
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        (c.rows(), c.cols()),
    );
    gemm_slices_parallel_in(
        lsgd_runtime::global(),
        alpha,
        a.as_slice(),
        a_shape,
        ta,
        b.as_slice(),
        b_shape,
        tb,
        beta,
        c.as_mut_slice(),
        c_shape,
    );
}

fn bench_gemm(c: &mut Criterion) {
    let smoke = lsgd_core::env::flag("LSGD_BENCH_SMOKE");
    let mut group = c.benchmark_group("gemm");
    if smoke {
        group
            .warm_up_time(Duration::from_millis(100))
            .measurement_time(Duration::from_millis(400))
            .sample_size(10);
    } else {
        group
            .warm_up_time(Duration::from_millis(300))
            .measurement_time(Duration::from_secs(2))
            .sample_size(10);
    }

    // (name, m, k, n): the forward products of the paper's networks at
    // batch 512 plus the CNN's per-sample im2col products.
    let shapes = [
        ("mlp_l1_512x784x128", 512, 784, 128),
        ("mlp_hidden_512x128x128", 512, 128, 128),
        ("mlp_out_512x128x10", 512, 128, 10),
        ("cnn_im2col_4x9x676", 4, 9, 676),
        ("cnn_im2col_8x36x121", 8, 36, 121),
    ];
    let kernels: [(&str, Kernel); 3] = [
        ("packed", gemm),
        ("naive", gemm_naive),
        ("parallel", parallel_kernel),
    ];
    for (name, m, k, n) in shapes {
        let a = rand_mat(m, k, 1);
        let b = rand_mat(k, n, 2);
        let mut out = Matrix::zeros(m, n);
        group.throughput(Throughput::Elements((2 * m * k * n) as u64));
        for (kind, kernel) in kernels {
            group.bench_with_input(BenchmarkId::new(kind, name), &(), |bench, _| {
                bench.iter(|| {
                    kernel(
                        1.0,
                        black_box(&a),
                        Transpose::No,
                        black_box(&b),
                        Transpose::No,
                        0.0,
                        &mut out,
                    );
                });
            });
        }
    }

    // The transposed orientations backpropagation actually issues on the
    // big MLP product (dW = dYᵀ·X is `tn`, the forward X·Wᵀ is `nt`);
    // these used to hit scalar fallbacks and now ride the packed path.
    let (m, k, n) = (512, 784, 128);
    let a_t = rand_mat(k, m, 3); // stored k×m, used as Aᵀ
    let b_nt = rand_mat(n, k, 4); // stored n×k, used as Bᵀ
    let a_n = rand_mat(m, k, 5);
    let b_n = rand_mat(k, n, 6);
    let mut out = Matrix::zeros(m, n);
    group.throughput(Throughput::Elements((2 * m * k * n) as u64));
    for (kind, kernel) in [("packed", gemm as Kernel), ("naive", gemm_naive as Kernel)] {
        group.bench_with_input(
            BenchmarkId::new(kind, "mlp_l1_tn_512x784x128"),
            &(),
            |bench, _| {
                bench.iter(|| {
                    kernel(
                        1.0,
                        black_box(&a_t),
                        Transpose::Yes,
                        black_box(&b_n),
                        Transpose::No,
                        0.0,
                        &mut out,
                    );
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new(kind, "mlp_l1_nt_512x784x128"),
            &(),
            |bench, _| {
                bench.iter(|| {
                    kernel(
                        1.0,
                        black_box(&a_n),
                        Transpose::No,
                        black_box(&b_nt),
                        Transpose::Yes,
                        0.0,
                        &mut out,
                    );
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
