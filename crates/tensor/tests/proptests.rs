//! Property-based tests for the linear-algebra substrate.
//!
//! GEMM is the single most load-bearing kernel in the reproduction — every
//! gradient the SGD algorithms exchange flows through it — so its algebraic
//! identities are checked against randomly generated shapes and contents.

use lsgd_tensor::gemm::{gemm, Transpose};
use lsgd_tensor::ops;
use lsgd_tensor::Matrix;
use proptest::prelude::*;

/// Strategy: random small shape triple (m, n, k).
fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 1usize..12, 1usize..24)
}

/// `op(A) * op(B)` into a fresh output, through the packed `gemm`.
fn matmul(a: &Matrix, ta: Transpose, b: &Matrix, tb: Transpose) -> Matrix {
    let m = if ta.is_t() { a.cols() } else { a.rows() };
    let n = if tb.is_t() { b.rows() } else { b.cols() };
    let mut c = Matrix::zeros(m, n);
    gemm(1.0, a, ta, b, tb, 0.0, &mut c);
    c
}

fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        (0..a.cols()).map(|k| a.get(i, k) * b.get(k, j)).sum()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A·B matches the naive triple loop.
    #[test]
    fn gemm_matches_naive((m, n, k) in shape(), seed in 0u64..1000) {
        let mut rng = lsgd_tensor::SmallRng64::new(seed);
        let a = Matrix::from_fn(m, k, |_, _| rng.next_f32() - 0.5);
        let b = Matrix::from_fn(k, n, |_, _| rng.next_f32() - 0.5);
        let fast = matmul(&a, Transpose::No, &b, Transpose::No);
        let slow = naive_matmul(&a, &b);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-4 * k as f32);
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_of_product((m, n, k) in shape(), seed in 0u64..1000) {
        let mut rng = lsgd_tensor::SmallRng64::new(seed);
        let a = Matrix::from_fn(m, k, |_, _| rng.next_f32() - 0.5);
        let b = Matrix::from_fn(k, n, |_, _| rng.next_f32() - 0.5);
        let lhs = matmul(&a, Transpose::No, &b, Transpose::No).transposed();
        let rhs = matmul(&b, Transpose::Yes, &a, Transpose::Yes);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4 * k as f32);
    }

    /// A·(B + C) = A·B + A·C (distributivity).
    #[test]
    fn distributivity((m, n, k) in shape(), seed in 0u64..1000) {
        let mut rng = lsgd_tensor::SmallRng64::new(seed);
        let a = Matrix::from_fn(m, k, |_, _| rng.next_f32() - 0.5);
        let b = Matrix::from_fn(k, n, |_, _| rng.next_f32() - 0.5);
        let c = Matrix::from_fn(k, n, |_, _| rng.next_f32() - 0.5);
        let bc = Matrix::from_fn(k, n, |i, j| b.get(i, j) + c.get(i, j));
        let lhs = matmul(&a, Transpose::No, &bc, Transpose::No);
        let mut rhs = matmul(&a, Transpose::No, &b, Transpose::No);
        let ac = matmul(&a, Transpose::No, &c, Transpose::No);
        for (r, x) in rhs.as_mut_slice().iter_mut().zip(ac.as_slice()) {
            *r += x;
        }
        prop_assert!(lhs.max_abs_diff(&rhs) < 2e-4 * k as f32);
    }

    /// beta accumulation: gemm(alpha, A, B, 1.0, C) == C + alpha*A*B.
    #[test]
    fn beta_one_accumulates((m, n, k) in shape(), alpha in -2.0f32..2.0, seed in 0u64..1000) {
        let mut rng = lsgd_tensor::SmallRng64::new(seed);
        let a = Matrix::from_fn(m, k, |_, _| rng.next_f32() - 0.5);
        let b = Matrix::from_fn(k, n, |_, _| rng.next_f32() - 0.5);
        let c0 = Matrix::from_fn(m, n, |_, _| rng.next_f32() - 0.5);
        let mut c = c0.clone();
        gemm(alpha, &a, Transpose::No, &b, Transpose::No, 1.0, &mut c);
        let prod = matmul(&a, Transpose::No, &b, Transpose::No);
        let expected = Matrix::from_fn(m, n, |i, j| c0.get(i, j) + alpha * prod.get(i, j));
        prop_assert!(c.max_abs_diff(&expected) < 2e-4 * k as f32);
    }

    /// axpy then reverse axpy restores the original vector.
    #[test]
    fn axpy_involution(xs in proptest::collection::vec(-10.0f32..10.0, 1..64), a in -5.0f32..5.0) {
        let x: Vec<f32> = xs.iter().map(|v| v * 0.5).collect();
        let orig = xs.clone();
        let mut y = xs;
        ops::axpy(a, &x, &mut y);
        ops::axpy(-a, &x, &mut y);
        for (got, want) in y.iter().zip(&orig) {
            prop_assert!((got - want).abs() < 1e-3);
        }
    }

    /// Softmax output is a probability distribution for any finite input.
    #[test]
    fn softmax_is_distribution(xs in proptest::collection::vec(-50.0f32..50.0, 1..32)) {
        let mut x = xs;
        lsgd_tensor::numeric::softmax_inplace(&mut x);
        let sum: f32 = x.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(x.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
    }

    /// dot(x, x) == |x|².
    #[test]
    fn dot_self_is_norm_squared(xs in proptest::collection::vec(-3.0f32..3.0, 1..64)) {
        let d = ops::dot(&xs, &xs);
        let n = ops::norm2(&xs);
        prop_assert!((d - n * n).abs() < 1e-2);
    }
}
