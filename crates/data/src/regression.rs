//! Linear-regression instances, dense and sparse.
//!
//! HOGWILD! was originally analysed for *sparse* convex problems, where
//! uncoordinated component-wise updates rarely collide (paper §I/§VI).
//! These generators let the examples and tests reproduce that regime —
//! and contrast it with the dense non-convex DL regime the paper targets.

use lsgd_tensor::{Matrix, SmallRng64};

/// A least-squares problem instance `y ≈ X w*` with known ground truth.
#[derive(Clone)]
pub struct RegressionData {
    /// Design matrix `(n, dim)`.
    pub x: Matrix,
    /// Targets, length `n`.
    pub y: Vec<f32>,
    /// The generating weight vector `w*` (for recovery checks).
    pub w_star: Vec<f32>,
}

impl RegressionData {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// Mean squared error of parameters `w` on the full data.
    pub fn mse(&self, w: &[f32]) -> f32 {
        assert_eq!(w.len(), self.dim());
        let mut total = 0.0f64;
        for i in 0..self.len() {
            let pred = lsgd_tensor::ops::dot(self.x.row(i), w);
            let e = (pred - self.y[i]) as f64;
            total += e * e;
        }
        (total / self.len().max(1) as f64) as f32
    }

    /// The least-squares gradient of one sample: `2 (xᵀw - y) x`, written
    /// into `grad` (dense).
    pub fn sample_grad(&self, i: usize, w: &[f32], grad: &mut [f32]) {
        let row = self.x.row(i);
        let err = 2.0 * (lsgd_tensor::ops::dot(row, w) - self.y[i]);
        for (g, &xi) in grad.iter_mut().zip(row) {
            *g = err * xi;
        }
    }
}

/// Dense instance: `x ~ N(0,1)^dim`, `w* ~ N(0,1)`, `y = x·w* + noise`.
pub fn dense_regression(n: usize, dim: usize, noise_std: f32, seed: u64) -> RegressionData {
    let mut rng = SmallRng64::new(seed);
    let w_star: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
    let mut x = Matrix::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let row = x.row_mut(i);
        for v in row.iter_mut() {
            *v = rng.next_normal();
        }
        let t = lsgd_tensor::ops::dot(row, &w_star) + rng.next_normal() * noise_std;
        y.push(t);
    }
    RegressionData { x, y, w_star }
}

/// Sparse instance: each sample touches only `nnz` random coordinates —
/// the gradient-sparsity regime where HOGWILD!'s analysis applies.
pub fn sparse_regression(
    n: usize,
    dim: usize,
    nnz: usize,
    noise_std: f32,
    seed: u64,
) -> RegressionData {
    assert!(nnz <= dim, "nnz must not exceed dim");
    let mut rng = SmallRng64::new(seed);
    let w_star: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();
    let mut x = Matrix::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let row = x.row_mut(i);
        for _ in 0..nnz {
            let j = rng.next_below(dim);
            row[j] = rng.next_normal();
        }
        let t = lsgd_tensor::ops::dot(row, &w_star) + rng.next_normal() * noise_std;
        y.push(t);
    }
    RegressionData { x, y, w_star }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_has_near_zero_mse() {
        let d = dense_regression(200, 8, 0.0, 1);
        assert!(d.mse(&d.w_star) < 1e-6);
    }

    #[test]
    fn zero_weights_have_high_mse() {
        let d = dense_regression(200, 8, 0.0, 2);
        assert!(d.mse(&[0.0; 8]) > 0.5);
    }

    #[test]
    fn noise_raises_ground_truth_mse() {
        let d = dense_regression(2000, 4, 0.5, 3);
        let mse = d.mse(&d.w_star);
        assert!((mse - 0.25).abs() < 0.08, "expected ~noise², got {mse}");
    }

    #[test]
    fn sparse_rows_have_bounded_support() {
        let d = sparse_regression(100, 50, 3, 0.0, 4);
        for i in 0..d.len() {
            let nnz = d.x.row(i).iter().filter(|&&v| v != 0.0).count();
            assert!(nnz <= 3, "row {i} has {nnz} nonzeros");
        }
    }

    #[test]
    fn sample_grad_is_zero_at_optimum_noiseless() {
        let d = dense_regression(50, 6, 0.0, 5);
        let mut g = vec![0.0f32; 6];
        d.sample_grad(7, &d.w_star, &mut g);
        assert!(g.iter().all(|v| v.abs() < 1e-4), "{g:?}");
    }

    #[test]
    fn sgd_on_regression_recovers_w_star() {
        let d = dense_regression(500, 5, 0.01, 6);
        let mut w = vec![0.0f32; 5];
        let mut g = vec![0.0f32; 5];
        let mut rng = SmallRng64::new(7);
        for _ in 0..4000 {
            let i = rng.next_below(d.len());
            d.sample_grad(i, &w, &mut g);
            lsgd_tensor::ops::sgd_step(&mut w, &g, 0.02);
        }
        let err = lsgd_tensor::ops::dist2_sq(&w, &d.w_star).sqrt();
        assert!(err < 0.15, "recovery error {err}");
    }
}
