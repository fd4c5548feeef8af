//! BLAS-1 style vector kernels.
//!
//! These are the primitives behind the SGD update itself
//! (`theta[i] -= eta * delta[i]`, Algorithm 1 line 18 of the paper) and
//! assorted glue in the layers. All functions are allocation-free and
//! panic on length mismatch, which turns silent shape bugs into loud ones.

/// `y += a * x`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// The SGD update step `theta -= eta * grad` (eq. (1) of the paper).
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn sgd_step(theta: &mut [f32], grad: &[f32], eta: f32) {
    axpy(-eta, grad, theta);
}

/// Dot product.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = 0.0f32;
    for (a, b) in x.iter().zip(y) {
        acc += a * b;
    }
    acc
}

/// `x *= a`.
#[inline]
pub fn scale(x: &mut [f32], a: f32) {
    for v in x {
        *v *= a;
    }
}

/// Element-wise `out = x - y`.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn sub(x: &[f32], y: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), y.len());
    assert_eq!(x.len(), out.len());
    for i in 0..out.len() {
        out[i] = x[i] - y[i];
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f32]) -> f32 {
    x.iter().map(|v| v * v).sum::<f32>().sqrt()
}

/// Squared Euclidean distance between two vectors.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn dist2_sq(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum()
}

/// Mean of a slice (0 for empty input).
#[inline]
pub fn mean(x: &[f32]) -> f32 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f32>() / x.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 10.0, 10.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 14.0, 16.0]);
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut theta = [1.0, 1.0];
        sgd_step(&mut theta, &[0.5, -0.5], 0.1);
        assert!((theta[0] - 0.95).abs() < 1e-7);
        assert!((theta[1] - 1.05).abs() < 1e-7);
    }

    #[test]
    #[should_panic]
    fn axpy_length_mismatch_panics() {
        let mut y = [0.0; 2];
        axpy(1.0, &[1.0; 3], &mut y);
    }

    #[test]
    fn dot_orthogonal_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn norms_and_distances() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-7);
        assert!((dist2_sq(&[0.0, 0.0], &[3.0, 4.0]) - 25.0).abs() < 1e-6);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn scale_and_sub() {
        let mut x = [1.0, -2.0];
        scale(&mut x, -3.0);
        assert_eq!(x, [-3.0, 6.0]);
        let mut out = [0.0; 2];
        sub(&[5.0, 5.0], &[2.0, 7.0], &mut out);
        assert_eq!(out, [3.0, -2.0]);
    }
}
