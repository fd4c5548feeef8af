//! Fused softmax + cross-entropy loss.
//!
//! The paper's output layer applies softmax and trains against the
//! cross-entropy loss `L = -Σ y_i log(ŷ_i)` (Appendix). Fusing the two
//! yields the numerically friendly gradient `dL/dz = (softmax(z) - onehot)/B`
//! and avoids ever materialising log-probabilities.

use lsgd_tensor::numeric;
use lsgd_tensor::Matrix;

/// Mean cross-entropy of a batch of logits against integer class labels.
///
/// Returns the mean loss; `labels[i]` must be `< logits.cols()`.
///
/// # Panics
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn cross_entropy_loss(logits: &Matrix, labels: &[u8]) -> f32 {
    assert_eq!(logits.rows(), labels.len(), "batch size mismatch");
    let mut total = 0.0f32;
    for (r, &y) in labels.iter().enumerate() {
        total += numeric::cross_entropy_from_logits(logits.row(r), y as usize);
    }
    total / labels.len().max(1) as f32
}

/// Computes the mean cross-entropy loss *and* the logit gradient
/// `(softmax(z) - onehot(y)) / batch` in one pass.
///
/// `grad` must have the same shape as `logits`.
///
/// # Panics
/// Panics on shape mismatches or out-of-range labels.
pub fn cross_entropy_loss_grad(logits: &Matrix, labels: &[u8], grad: &mut Matrix) -> f32 {
    assert_eq!(logits.rows(), labels.len(), "batch size mismatch");
    assert_eq!(grad.rows(), logits.rows());
    assert_eq!(grad.cols(), logits.cols());
    let batch = labels.len().max(1) as f32;
    let inv_batch = 1.0 / batch;
    let mut total = 0.0f32;
    for (r, &y) in labels.iter().enumerate() {
        let y = y as usize;
        assert!(y < logits.cols(), "label {y} out of range");
        let z = logits.row(r);
        let g = grad.row_mut(r);
        g.copy_from_slice(z);
        numeric::softmax_inplace(g);
        // loss contribution: -log softmax[y], computed stably from logits.
        total += numeric::cross_entropy_from_logits(z, y);
        g[y] -= 1.0;
        for v in g.iter_mut() {
            *v *= inv_batch;
        }
    }
    total * inv_batch
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_k() {
        let logits = Matrix::zeros(4, 10);
        let labels = [0u8, 3, 7, 9];
        let loss = cross_entropy_loss(&logits, &labels);
        assert!((loss - (10f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_gives_near_zero_loss() {
        let mut logits = Matrix::zeros(2, 3);
        logits.set(0, 1, 30.0);
        logits.set(1, 2, 30.0);
        let loss = cross_entropy_loss(&logits, &[1, 2]);
        assert!(loss < 1e-5);
    }

    #[test]
    fn grad_matches_softmax_minus_onehot() {
        let logits = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let mut grad = Matrix::zeros(1, 3);
        cross_entropy_loss_grad(&logits, &[0], &mut grad);
        let mut sm = [1.0f32, 2.0, 3.0];
        lsgd_tensor::numeric::softmax_inplace(&mut sm);
        assert!((grad.get(0, 0) - (sm[0] - 1.0)).abs() < 1e-6);
        assert!((grad.get(0, 1) - sm[1]).abs() < 1e-6);
        assert!((grad.get(0, 2) - sm[2]).abs() < 1e-6);
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Matrix::from_vec(2, 4, vec![0.5, -1.0, 2.0, 0.0, 3.0, 3.0, 3.0, 3.0]);
        let mut grad = Matrix::zeros(2, 4);
        cross_entropy_loss_grad(&logits, &[2, 0], &mut grad);
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn loss_and_grad_loss_agree() {
        let logits = Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 0.3, 0.2, 0.1]);
        let labels = [2u8, 1];
        let mut grad = Matrix::zeros(2, 3);
        let l1 = cross_entropy_loss(&logits, &labels);
        let l2 = cross_entropy_loss_grad(&logits, &labels, &mut grad);
        assert!((l1 - l2).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn out_of_range_label_panics() {
        let logits = Matrix::zeros(1, 3);
        let mut grad = Matrix::zeros(1, 3);
        cross_entropy_loss_grad(&logits, &[3], &mut grad);
    }
}
