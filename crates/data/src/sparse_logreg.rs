//! High-dimensional sparse logistic regression with power-law features —
//! the text-classification-like workload the ROADMAP's "sparse logistic
//! regression at scale" item asks for.
//!
//! Each sample is a synthetic "document": a handful of token draws from a
//! Zipf (power-law) distribution over a `dim`-sized vocabulary, turned
//! into a log-tf, L2-normalised bag-of-words row. Labels come from a
//! ground-truth separating vector `w*` through a logistic link, so the
//! instance is genuinely learnable and `w*` gives a reference accuracy.
//! Rows are stored CSR-style (`offsets`/`indices`/`values`) with strictly
//! ascending indices per row — exactly the `(index, value)` shape the
//! sharded dirty-shard publication path consumes.

use lsgd_tensor::SmallRng64;

/// A sparse binary-classification instance `y ~ Bernoulli(σ(margin·x·w*))`
/// with CSR rows and known ground truth.
#[derive(Clone)]
pub struct SparseLogReg {
    /// Column indices, strictly ascending within each row.
    indices: Vec<u32>,
    /// Feature values aligned with `indices`.
    values: Vec<f32>,
    /// Row start offsets into `indices`/`values`, length `n + 1`.
    offsets: Vec<usize>,
    /// Binary labels (0 / 1), length `n`.
    pub labels: Vec<u8>,
    /// Vocabulary size (parameter dimension).
    dim: usize,
    /// The generating separator `w*` (for reference accuracy checks).
    pub w_star: Vec<f32>,
}

impl SparseLogReg {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature (parameter) dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The sparse row `i` as `(indices, values)` slices.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Mean nonzeros per row.
    pub fn avg_nnz(&self) -> f64 {
        self.indices.len() as f64 / self.len().max(1) as f64
    }

    /// The linear margin `x_i · theta` (sparse dot product).
    pub fn margin(&self, i: usize, theta: &[f32]) -> f32 {
        let (idx, val) = self.row(i);
        idx.iter()
            .zip(val)
            .map(|(&j, &v)| v * theta[j as usize])
            .sum()
    }

    /// Mean logistic loss of `theta` over the full dataset (numerically
    /// stable form).
    pub fn logloss(&self, theta: &[f32]) -> f64 {
        let mut total = 0.0f64;
        for i in 0..self.len() {
            let z = self.margin(i, theta) as f64;
            let y = self.labels[i] as f64;
            // max(z,0) - z·y + ln(1 + e^{-|z|})
            total += z.max(0.0) - z * y + (-z.abs()).exp().ln_1p();
        }
        total / self.len().max(1) as f64
    }

    /// Classification accuracy of `theta` (margin sign vs. label).
    pub fn accuracy(&self, theta: &[f32]) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let correct = (0..self.len())
            .filter(|&i| (self.margin(i, theta) > 0.0) == (self.labels[i] == 1))
            .count();
        correct as f32 / self.len() as f32
    }
}

/// Cumulative (unnormalised) Zipf weights over `dim` ranks:
/// `cdf[k] = Σ_{j=0..=k} 1/(j+1)^exponent`.
fn zipf_cdf(dim: usize, exponent: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(dim);
    let mut acc = 0.0f64;
    for k in 0..dim {
        acc += 1.0 / ((k + 1) as f64).powf(exponent);
        cdf.push(acc);
    }
    cdf
}

/// Draws one rank from the distribution described by a [`zipf_cdf`]
/// (inverse-CDF via binary search).
fn zipf_draw(cdf: &[f64], rng: &mut SmallRng64) -> usize {
    let total = *cdf.last().expect("non-empty cdf");
    let u = rng.next_f64() * total;
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// The Zipf exponent used by [`sparse_logreg`] (classic text-like decay).
const ZIPF_EXPONENT: f64 = 1.1;

/// Generates `n` samples over a `dim`-token vocabulary with roughly
/// `avg_nnz` tokens per document, deterministically under `seed`.
///
/// Token draws follow a Zipf distribution with exponent ≈ 1.1 (classic
/// text-like frequencies: a few head tokens appear in most documents, a
/// long tail almost never), counts become log-tf values, and each row is
/// L2-normalised so margins are O(1) regardless of document length.
///
/// # Panics
/// Panics if `n == 0`, `dim == 0`, or `avg_nnz` is 0 or exceeds `dim`.
pub fn sparse_logreg(n: usize, dim: usize, avg_nnz: usize, seed: u64) -> SparseLogReg {
    assert!(n > 0 && dim > 0, "need samples and a vocabulary");
    assert!(avg_nnz > 0 && avg_nnz <= dim, "avg_nnz in 1..=dim");
    let mut rng = SmallRng64::new(seed);
    let w_star: Vec<f32> = (0..dim).map(|_| rng.next_normal()).collect();

    let cdf = zipf_cdf(dim, ZIPF_EXPONENT);

    let margin_scale = 6.0f32; // strong but not deterministic separation
    let mut indices = Vec::with_capacity(n * avg_nnz);
    let mut values = Vec::with_capacity(n * avg_nnz);
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut labels = Vec::with_capacity(n);
    let mut draws: Vec<u32> = Vec::new();
    for _ in 0..n {
        // Document length uniform in [avg/2, 3·avg/2] (≥ 1).
        let len = (avg_nnz / 2 + rng.next_below(avg_nnz + 1)).max(1);
        draws.clear();
        for _ in 0..len {
            draws.push(zipf_draw(&cdf, &mut rng) as u32);
        }
        draws.sort_unstable();
        // Collapse repeated tokens into log-tf values.
        let row_start = values.len();
        let mut k = 0usize;
        while k < draws.len() {
            let tok = draws[k];
            let mut count = 1usize;
            while k + count < draws.len() && draws[k + count] == tok {
                count += 1;
            }
            indices.push(tok);
            values.push(1.0 + (count as f32).ln());
            k += count;
        }
        // L2-normalise the row.
        let norm = values[row_start..]
            .iter()
            .map(|v| v * v)
            .sum::<f32>()
            .sqrt()
            .max(1e-12);
        for v in &mut values[row_start..] {
            *v /= norm;
        }
        offsets.push(indices.len());
        // Label through the logistic link on the ground-truth margin.
        let z: f32 = indices[row_start..]
            .iter()
            .zip(&values[row_start..])
            .map(|(&j, &v)| v * w_star[j as usize])
            .sum();
        let p = 1.0 / (1.0 + (-margin_scale * z).exp());
        labels.push(u8::from(rng.next_f32() < p));
    }
    SparseLogReg {
        indices,
        values,
        offsets,
        labels,
        dim,
        w_star,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparseLogReg {
        sparse_logreg(500, 512, 12, 7)
    }

    #[test]
    fn rows_are_sorted_unique_and_bounded() {
        let d = small();
        assert_eq!(d.len(), 500);
        for i in 0..d.len() {
            let (idx, val) = d.row(i);
            assert!(!idx.is_empty(), "row {i} empty");
            assert_eq!(idx.len(), val.len());
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "row {i} unsorted");
            assert!(idx.iter().all(|&j| (j as usize) < d.dim()));
            let norm: f32 = val.iter().map(|v| v * v).sum();
            assert!((norm - 1.0).abs() < 1e-4, "row {i} norm {norm}");
        }
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let a = sparse_logreg(100, 256, 8, 3);
        let b = sparse_logreg(100, 256, 8, 3);
        assert_eq!(a.labels, b.labels);
        for i in 0..a.len() {
            assert_eq!(a.row(i), b.row(i));
        }
        let c = sparse_logreg(100, 256, 8, 4);
        assert_ne!(a.labels, c.labels, "different seed, different data");
    }

    #[test]
    fn token_frequencies_follow_a_power_law() {
        let d = sparse_logreg(2000, 1024, 16, 1);
        let mut freq = vec![0u32; d.dim()];
        for i in 0..d.len() {
            for &j in d.row(i).0 {
                freq[j as usize] += 1;
            }
        }
        let head: u32 = freq[..8].iter().sum();
        let mid: u32 = freq[256..264].iter().sum();
        let tail: u32 = freq[1016..].iter().sum();
        assert!(
            head > 20 * mid.max(1),
            "head tokens ({head}) should dwarf mid-rank tokens ({mid})"
        );
        assert!(
            mid > tail,
            "frequencies must keep decaying down the tail ({mid} vs {tail})"
        );
    }

    #[test]
    fn ground_truth_separates_and_zero_does_not() {
        let d = small();
        assert!(
            d.accuracy(&d.w_star) > 0.85,
            "w* accuracy {}",
            d.accuracy(&d.w_star)
        );
        // θ = 0: logloss is exactly ln 2, accuracy is chance-like.
        let zero = vec![0.0f32; d.dim()];
        assert!((d.logloss(&zero) - std::f64::consts::LN_2).abs() < 1e-9);
        assert!(d.logloss(&d.w_star) < d.logloss(&zero) * 0.8);
    }

    #[test]
    fn both_classes_appear() {
        let d = small();
        let pos = d.labels.iter().filter(|&&y| y == 1).count();
        assert!(pos > d.len() / 10 && pos < d.len() * 9 / 10, "pos {pos}");
    }
}
