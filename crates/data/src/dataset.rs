//! Labelled dataset container and minibatch sampling.

use lsgd_tensor::{Matrix, SmallRng64};

/// A labelled classification dataset: `images` is `(n, dim)` row-major,
/// `labels[i] < n_classes`.
#[derive(Clone)]
pub struct Dataset {
    /// Feature matrix, one sample per row.
    pub images: Matrix,
    /// Integer class labels, one per row of `images`.
    pub labels: Vec<u8>,
    /// Number of classes.
    pub n_classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating invariants.
    ///
    /// # Panics
    /// Panics if lengths disagree or a label is out of range.
    pub fn new(images: Matrix, labels: Vec<u8>, n_classes: usize) -> Self {
        assert_eq!(images.rows(), labels.len(), "image/label count mismatch");
        assert!(
            labels.iter().all(|&y| (y as usize) < n_classes),
            "label out of range"
        );
        Dataset {
            images,
            labels,
            n_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-sample feature dimension.
    pub fn dim(&self) -> usize {
        self.images.cols()
    }

    /// A copy of the first `n` samples (used to carve out fixed evaluation
    /// subsets, as the convergence monitor does).
    pub fn head(&self, n: usize) -> Dataset {
        let n = n.min(self.len());
        let mut images = Matrix::zeros(n, self.dim());
        for r in 0..n {
            images.row_mut(r).copy_from_slice(self.images.row(r));
        }
        Dataset {
            images,
            labels: self.labels[..n].to_vec(),
            n_classes: self.n_classes,
        }
    }

    /// Fills `x`/`y` with a uniformly sampled (with replacement) minibatch.
    /// `x` must be `(batch, dim)`; `y` is resized to `batch`.
    pub fn sample_batch(&self, rng: &mut SmallRng64, x: &mut Matrix, y: &mut Vec<u8>) {
        assert_eq!(x.cols(), self.dim(), "batch buffer width");
        let batch = x.rows();
        y.clear();
        for r in 0..batch {
            let i = rng.next_below(self.len());
            x.row_mut(r).copy_from_slice(self.images.row(i));
            y.push(self.labels[i]);
        }
    }

    /// Class frequency counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &y in &self.labels {
            counts[y as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        let images = Matrix::from_fn(n, 3, |r, c| (r * 3 + c) as f32);
        let labels = (0..n).map(|i| (i % 4) as u8).collect();
        Dataset::new(images, labels, 4)
    }

    #[test]
    fn invariants_enforced() {
        let d = toy(8);
        assert_eq!(d.len(), 8);
        assert_eq!(d.dim(), 3);
        assert_eq!(d.class_counts(), vec![2, 2, 2, 2]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_label_rejected() {
        Dataset::new(Matrix::zeros(1, 2), vec![5], 4);
    }

    #[test]
    fn head_takes_prefix() {
        let d = toy(10);
        let h = d.head(4);
        assert_eq!(h.len(), 4);
        assert_eq!(h.images.row(2), d.images.row(2));
        assert_eq!(h.labels, &d.labels[..4]);
    }

    #[test]
    fn sample_batch_draws_valid_rows() {
        let d = toy(5);
        let mut rng = SmallRng64::new(1);
        let mut x = Matrix::zeros(16, 3);
        let mut y = Vec::new();
        d.sample_batch(&mut rng, &mut x, &mut y);
        assert_eq!(y.len(), 16);
        for (r, &label) in y.iter().enumerate() {
            // Every sampled row must be an exact copy of some source row.
            let first = x.row(r)[0];
            let src = (first as usize) / 3;
            assert!(src < 5);
            assert_eq!(x.row(r), d.images.row(src));
            assert_eq!(label, d.labels[src]);
        }
    }

    /// One `batch`-row minibatch drawn with `rng`: (pixels, labels).
    fn draw(d: &Dataset, rng: &mut SmallRng64, batch: usize) -> (Vec<f32>, Vec<u8>) {
        let mut x = Matrix::zeros(batch, d.dim());
        let mut y = Vec::new();
        d.sample_batch(rng, &mut x, &mut y);
        (x.as_slice().to_vec(), y)
    }

    #[test]
    fn batcher_is_deterministic_per_seed() {
        let d = toy(20);
        let (mut r1, mut r2) = (SmallRng64::new(9), SmallRng64::new(9));
        for _ in 0..5 {
            assert_eq!(draw(&d, &mut r1, 4), draw(&d, &mut r2, 4));
        }
    }

    #[test]
    fn batchers_with_different_seeds_differ() {
        let d = toy(50);
        let (_, y1) = draw(&d, &mut SmallRng64::new(1), 8);
        let (_, y2) = draw(&d, &mut SmallRng64::new(2), 8);
        assert_ne!(y1, y2, "different streams should diverge immediately");
    }
}
