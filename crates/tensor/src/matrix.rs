//! Row-major `f32` matrix.
//!
//! The experiments only ever need two-dimensional dense data (minibatches
//! of flattened images, weight matrices, im2col buffers), so a simple
//! row-major `Vec<f32>` wrapper is the right amount of machinery: it keeps
//! indexing branch-free and lets the GEMM kernel work on contiguous rows.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major `f32` matrix.
///
/// Storage is a single contiguous `Vec<f32>` of length `rows * cols`;
/// element `(r, c)` lives at `r * cols + c`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from an existing backing vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "backing vector length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix by evaluating `f(r, c)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements (`rows * cols`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable view of the backing storage (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the backing storage (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor; prefer [`Matrix::row`] in hot loops.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element setter; prefer [`Matrix::row_mut`] in hot loops.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Reshapes in place. The element count must be preserved.
    ///
    /// # Panics
    /// Panics if `rows * cols != self.len()`.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        assert_eq!(rows * cols, self.data.len(), "reshape must preserve size");
        self.rows = rows;
        self.cols = cols;
    }

    /// Resizes the matrix, discarding contents, reusing the allocation when
    /// possible. All elements are reset to zero.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Resizes the matrix *without* resetting retained elements: contents
    /// are unspecified (a mix of stale values and zeros) and the caller
    /// must overwrite every element before reading any.
    ///
    /// This exists for the gradient hot path, where buffers like the
    /// activation stack are fully overwritten every iteration and the
    /// `O(rows·cols)` zero-fill of [`Matrix::resize_zeroed`] was pure
    /// overhead per step. Steady-state calls with an unchanged shape cost
    /// nothing.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Returns the transposed matrix (allocates).
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            let src = self.row(r);
            for (c, &v) in src.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Index (within each row) of the maximum element, one per row.
    /// Ties resolve to the lowest index. Used for classification argmax.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                let mut best = 0usize;
                let mut best_v = row[0];
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > best_v {
                        best_v = v;
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Maximum absolute difference between two same-shape matrices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix (no allocation).
    fn default() -> Self {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 6.min(self.rows);
        for r in 0..max_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|v| format!("{v:9.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
        assert_eq!(m[(0, 1)], 1.0);
    }

    #[test]
    fn row_views_are_contiguous() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(m.row(1), &[2.0, 3.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(4, 7, |r, c| (r * 100 + c) as f32);
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn transpose_swaps_indices() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        for r in 0..2 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), t.get(c, r));
            }
        }
    }

    #[test]
    fn argmax_rows_with_ties_picks_first() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 3.0, 3.0, -1.0, -5.0, -0.5]);
        assert_eq!(m.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut m = Matrix::from_fn(2, 6, |r, c| (r * 6 + c) as f32);
        m.reshape(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.get(2, 3), 11.0);
    }

    #[test]
    #[should_panic]
    fn reshape_size_mismatch_panics() {
        let mut m = Matrix::zeros(2, 2);
        m.reshape(3, 3);
    }

    #[test]
    fn max_abs_diff_reports_largest_gap() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![1.5, 2.0, 0.5]);
        assert_eq!(a.max_abs_diff(&b), 2.5);
    }

    #[test]
    fn resize_zeroed_resets() {
        let mut m = Matrix::from_vec(1, 2, vec![5.0, 6.0]);
        m.resize_zeroed(2, 2);
        assert_eq!(m.rows(), 2);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }
}
