//! The optimisation-problem abstraction the SGD algorithms train on.
//!
//! The paper's framework is "application-specific [but applies] as
//! parallelization of SGD for any optimization problem" (§V.1): the
//! algorithms only ever see a flat parameter vector and a stochastic
//! gradient oracle. [`Problem`] captures exactly that interface;
//! [`NnProblem`] instantiates it with the paper's DL workloads (network ×
//! dataset × minibatch), and [`RegressionProblem`] with the convex
//! workload class HOGWILD! was originally built for.

use lsgd_data::regression::RegressionData;
use lsgd_data::sparse_logreg::SparseLogReg;
use lsgd_data::Dataset;
use lsgd_nn::Network;
use lsgd_tensor::{Matrix, SmallRng64};

/// A stochastic optimisation problem over a flat `f32` parameter vector.
pub trait Problem: Send + Sync {
    /// Per-thread scratch state (workspaces, batch buffers).
    type Scratch: Send;

    /// Parameter dimension `d`.
    fn dim(&self) -> usize;

    /// Samples the initial parameter vector (the paper's `rand_init`).
    fn init_theta(&self, seed: u64) -> Vec<f32>;

    /// Creates per-thread scratch. Problems with intra-step parallelism
    /// (e.g. [`NnProblem`]'s GEMM fan-out) run their splits on the shared
    /// global runtime, whose `LSGD_THREADS - 1` helpers serve every
    /// trainer worker — no per-worker sizing is needed here.
    fn scratch(&self) -> Self::Scratch;

    /// Computes a stochastic minibatch gradient of the loss at `theta`
    /// into `grad` (overwriting it); returns the minibatch loss.
    fn grad(
        &self,
        theta: &[f32],
        grad: &mut [f32],
        scratch: &mut Self::Scratch,
        rng: &mut SmallRng64,
    ) -> f32;

    /// Deterministic evaluation loss used for ε-convergence tracking.
    fn eval_loss(&self, theta: &[f32], scratch: &mut Self::Scratch) -> f64;

    /// Sparse-gradient path: computes a stochastic minibatch gradient as
    /// **ascending** `(index, value)` pairs written into `pairs` and
    /// returns the minibatch loss, or `None` when the problem has no
    /// native sparse representation (the default). The step asks this
    /// first and falls back to [`grad`](Self::grad) only on `None`; every
    /// store writes just the pairs, without touching a dense buffer.
    fn grad_sparse(
        &self,
        _theta: &[f32],
        _pairs: &mut Vec<(u32, f32)>,
        _scratch: &mut Self::Scratch,
        _rng: &mut SmallRng64,
    ) -> Option<f32> {
        None
    }
}

/// The paper's DL workloads: a [`Network`] trained on a [`Dataset`] with
/// uniformly sampled minibatches; evaluation loss on a fixed subset.
pub struct NnProblem {
    net: Network,
    data: Dataset,
    eval: Dataset,
    batch: usize,
}

/// Scratch for [`NnProblem`]: forward/backward workspace + batch buffers.
pub struct NnScratch {
    ws: lsgd_nn::Workspace,
    x: Matrix,
    y: Vec<u8>,
}

impl NnProblem {
    /// Bundles a network with training data. `eval_subset` bounds the
    /// evaluation set size (the convergence monitor's cost per check).
    ///
    /// # Panics
    /// Panics if dataset dimension does not match the network input.
    pub fn new(net: Network, data: Dataset, batch: usize, eval_subset: usize) -> Self {
        assert_eq!(data.dim(), net.in_dim(), "data/network dimension mismatch");
        assert!(batch > 0 && !data.is_empty());
        let eval = data.head(eval_subset.max(1));
        NnProblem { net, data, eval, batch }
    }

    /// The wrapped network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The training dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// Minibatch size.
    pub fn batch(&self) -> usize {
        self.batch
    }
}

impl Problem for NnProblem {
    type Scratch = NnScratch;

    fn dim(&self) -> usize {
        self.net.param_len()
    }

    fn init_theta(&self, seed: u64) -> Vec<f32> {
        self.net.init_params(seed)
    }

    fn scratch(&self) -> NnScratch {
        let max_batch = self.batch.max(self.eval.len());
        NnScratch {
            ws: self.net.workspace(max_batch),
            x: Matrix::zeros(self.batch, self.data.dim()),
            y: Vec::with_capacity(self.batch),
        }
    }

    fn grad(
        &self,
        theta: &[f32],
        grad: &mut [f32],
        scratch: &mut NnScratch,
        rng: &mut SmallRng64,
    ) -> f32 {
        self.data.sample_batch(rng, &mut scratch.x, &mut scratch.y);
        self.net
            .loss_grad(theta, &scratch.x, &scratch.y, grad, &mut scratch.ws)
    }

    fn eval_loss(&self, theta: &[f32], scratch: &mut NnScratch) -> f64 {
        self.net
            .loss(theta, &self.eval.images, &self.eval.labels, &mut scratch.ws) as f64
    }
}

/// Convex least-squares problem over [`RegressionData`] minibatches.
pub struct RegressionProblem {
    data: RegressionData,
    batch: usize,
    init_scale: f32,
}

impl RegressionProblem {
    /// Wraps a regression instance with the given minibatch size.
    pub fn new(data: RegressionData, batch: usize) -> Self {
        assert!(batch > 0 && !data.is_empty());
        RegressionProblem {
            data,
            batch,
            init_scale: 0.0,
        }
    }

    /// The wrapped data.
    pub fn data(&self) -> &RegressionData {
        &self.data
    }
}

impl Problem for RegressionProblem {
    type Scratch = Vec<f32>; // per-sample gradient accumulator

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn init_theta(&self, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng64::new(seed);
        (0..self.data.dim())
            .map(|_| rng.next_normal() * self.init_scale)
            .collect()
    }

    fn scratch(&self) -> Vec<f32> {
        vec![0.0; self.data.dim()]
    }

    fn grad(
        &self,
        theta: &[f32],
        grad: &mut [f32],
        scratch: &mut Vec<f32>,
        rng: &mut SmallRng64,
    ) -> f32 {
        grad.iter_mut().for_each(|g| *g = 0.0);
        let mut loss = 0.0f32;
        for _ in 0..self.batch {
            let i = rng.next_below(self.data.len());
            self.data.sample_grad(i, theta, scratch);
            let inv = 1.0 / self.batch as f32;
            lsgd_tensor::ops::axpy(inv, scratch, grad);
            let pred = lsgd_tensor::ops::dot(self.data.x.row(i), theta);
            let e = pred - self.data.y[i];
            loss += e * e * inv;
        }
        loss
    }

    fn eval_loss(&self, theta: &[f32], _scratch: &mut Vec<f32>) -> f64 {
        self.data.mse(theta) as f64
    }
}

/// High-dimensional sparse logistic regression over [`SparseLogReg`]
/// minibatches — the workload exercising the sharded dirty-shard
/// publication path. Every algorithm's step takes the native sparse
/// [`Problem::grad_sparse`]: one minibatch touches only the union of its
/// documents' token coordinates. The dense [`Problem::grad`] is the same
/// gradient scattered into d slots, kept as the reference the tests check
/// the sparse path against.
pub struct SparseLogRegProblem {
    data: SparseLogReg,
    batch: usize,
}

/// Scratch for [`SparseLogRegProblem`]: a dense accumulator that is kept
/// all-zero between calls (only the `touched` coordinates are dirtied and
/// re-zeroed), so sparse minibatch gradients cost O(batch · nnz) rather
/// than O(d).
pub struct SparseLogRegScratch {
    acc: Vec<f32>,
    touched: Vec<u32>,
}

impl SparseLogRegProblem {
    /// Wraps a sparse logistic-regression instance with the given
    /// minibatch size.
    pub fn new(data: SparseLogReg, batch: usize) -> Self {
        assert!(batch > 0 && !data.is_empty());
        SparseLogRegProblem { data, batch }
    }

    /// The wrapped data.
    pub fn data(&self) -> &SparseLogReg {
        &self.data
    }

    /// Accumulates one minibatch's logistic gradient into the scratch
    /// accumulator (recording touched coordinates) and returns the mean
    /// minibatch loss. `scratch.acc` must be all-zero on entry.
    fn accumulate_batch(
        &self,
        theta: &[f32],
        scratch: &mut SparseLogRegScratch,
        rng: &mut SmallRng64,
    ) -> f32 {
        debug_assert!(scratch.touched.is_empty());
        let inv = 1.0 / self.batch as f32;
        let mut loss = 0.0f32;
        for _ in 0..self.batch {
            let i = rng.next_below(self.data.len());
            let z = self.data.margin(i, theta);
            let y = self.data.labels[i] as f32;
            // Stable mean logistic loss: max(z,0) - z·y + ln(1+e^{-|z|}).
            loss += (z.max(0.0) - z * y + (-z.abs()).exp().ln_1p()) * inv;
            let e = (1.0 / (1.0 + (-z).exp()) - y) * inv; // (σ(z) - y)/B
            let (idx, val) = self.data.row(i);
            for (&j, &v) in idx.iter().zip(val) {
                if scratch.acc[j as usize] == 0.0 {
                    scratch.touched.push(j);
                }
                scratch.acc[j as usize] += e * v;
            }
        }
        loss
    }

    /// Clears the touched accumulator coordinates (restoring the all-zero
    /// invariant) without an O(d) sweep.
    fn reset_scratch(scratch: &mut SparseLogRegScratch) {
        for &j in &scratch.touched {
            scratch.acc[j as usize] = 0.0;
        }
        scratch.touched.clear();
    }
}

impl Problem for SparseLogRegProblem {
    type Scratch = SparseLogRegScratch;

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn init_theta(&self, _seed: u64) -> Vec<f32> {
        // The zero vector is the canonical logistic-regression start
        // (loss exactly ln 2) and keeps differential runs comparable.
        vec![0.0; self.data.dim()]
    }

    fn scratch(&self) -> SparseLogRegScratch {
        SparseLogRegScratch {
            acc: vec![0.0; self.data.dim()],
            touched: Vec::new(),
        }
    }

    fn grad(
        &self,
        theta: &[f32],
        grad: &mut [f32],
        scratch: &mut SparseLogRegScratch,
        rng: &mut SmallRng64,
    ) -> f32 {
        let loss = self.accumulate_batch(theta, scratch, rng);
        grad.iter_mut().for_each(|g| *g = 0.0);
        for &j in &scratch.touched {
            grad[j as usize] = scratch.acc[j as usize];
        }
        Self::reset_scratch(scratch);
        loss
    }

    fn eval_loss(&self, theta: &[f32], _scratch: &mut SparseLogRegScratch) -> f64 {
        self.data.logloss(theta)
    }

    fn grad_sparse(
        &self,
        theta: &[f32],
        pairs: &mut Vec<(u32, f32)>,
        scratch: &mut SparseLogRegScratch,
        rng: &mut SmallRng64,
    ) -> Option<f32> {
        let loss = self.accumulate_batch(theta, scratch, rng);
        scratch.touched.sort_unstable();
        // A coordinate can enter `touched` twice if an exact cancellation
        // zeroed it mid-batch and a later sample touched it again.
        scratch.touched.dedup();
        pairs.clear();
        pairs.extend(
            scratch
                .touched
                .iter()
                .map(|&j| (j, scratch.acc[j as usize]))
                // Exact cancellations carry no update mass.
                .filter(|&(_, v)| v != 0.0),
        );
        Self::reset_scratch(scratch);
        Some(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgd_data::blobs::gaussian_blobs;
    use lsgd_data::regression::dense_regression;
    use lsgd_data::sparse_logreg::sparse_logreg;
    use lsgd_nn::tiny_mlp;

    fn blob_problem() -> NnProblem {
        let data = gaussian_blobs(300, 6, 3, 0.3, 1);
        NnProblem::new(tiny_mlp(6, 16, 3), data, 32, 128)
    }

    #[test]
    fn dims_line_up() {
        let p = blob_problem();
        assert_eq!(p.dim(), 6 * 16 + 16 + 16 * 3 + 3);
        assert_eq!(p.init_theta(0).len(), p.dim());
    }

    #[test]
    fn eval_loss_starts_near_log_k() {
        let p = blob_problem();
        let theta = p.init_theta(1);
        let mut s = p.scratch();
        let l = p.eval_loss(&theta, &mut s);
        assert!((l - (3f64).ln()).abs() < 0.1, "initial loss {l}");
    }

    #[test]
    fn sgd_loop_on_problem_converges() {
        let p = blob_problem();
        let mut theta = p.init_theta(2);
        let mut s = p.scratch();
        let mut rng = SmallRng64::new(3);
        let mut grad = vec![0.0; p.dim()];
        let initial = p.eval_loss(&theta, &mut s);
        for _ in 0..400 {
            p.grad(&theta, &mut grad, &mut s, &mut rng);
            lsgd_tensor::ops::sgd_step(&mut theta, &grad, 0.2);
        }
        let fin = p.eval_loss(&theta, &mut s);
        assert!(fin < initial * 0.4, "{initial} -> {fin}");
    }

    #[test]
    fn grad_is_deterministic_given_rng_state() {
        let p = blob_problem();
        let theta = p.init_theta(4);
        let mut s = p.scratch();
        let mut g1 = vec![0.0; p.dim()];
        let mut g2 = vec![0.0; p.dim()];
        p.grad(&theta, &mut g1, &mut s, &mut SmallRng64::new(9));
        p.grad(&theta, &mut g2, &mut s, &mut SmallRng64::new(9));
        assert_eq!(g1, g2);
    }

    #[test]
    fn regression_problem_gradient_descends() {
        let p = RegressionProblem::new(dense_regression(400, 8, 0.05, 5), 16);
        let mut theta = p.init_theta(0);
        let mut s = p.scratch();
        let mut rng = SmallRng64::new(1);
        let mut grad = vec![0.0; p.dim()];
        let initial = p.eval_loss(&theta, &mut s);
        for _ in 0..1500 {
            p.grad(&theta, &mut grad, &mut s, &mut rng);
            lsgd_tensor::ops::sgd_step(&mut theta, &grad, 0.02);
        }
        let fin = p.eval_loss(&theta, &mut s);
        assert!(fin < initial * 0.05, "{initial} -> {fin}");
    }

    fn logreg_problem() -> SparseLogRegProblem {
        SparseLogRegProblem::new(sparse_logreg(600, 512, 12, 9), 16)
    }

    #[test]
    fn sparse_and_dense_gradients_agree() {
        let p = logreg_problem();
        let theta: Vec<f32> = (0..p.dim()).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect();
        let mut dense = vec![0.0f32; p.dim()];
        let mut pairs = Vec::new();
        let mut s1 = p.scratch();
        let mut s2 = p.scratch();
        let l1 = p.grad(&theta, &mut dense, &mut s1, &mut SmallRng64::new(5));
        let l2 = p
            .grad_sparse(&theta, &mut pairs, &mut s2, &mut SmallRng64::new(5))
            .expect("native sparse path");
        assert_eq!(l1, l2, "same RNG stream, same minibatch, same loss");
        let mut rebuilt = vec![0.0f32; p.dim()];
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        for &(j, v) in &pairs {
            rebuilt[j as usize] = v;
        }
        assert_eq!(rebuilt, dense);
        // Sparse: a 16-doc minibatch touches far fewer than d coordinates.
        assert!(pairs.len() < p.dim() / 2, "{} pairs", pairs.len());
        // Scratch invariant: accumulator restored to all-zero.
        assert!(s2.acc.iter().all(|&v| v == 0.0));
        assert!(s2.touched.is_empty());
    }

    #[test]
    fn sparse_logreg_sgd_converges() {
        let p = logreg_problem();
        let mut theta = p.init_theta(0);
        let mut s = p.scratch();
        let mut rng = SmallRng64::new(2);
        let mut pairs = Vec::new();
        let initial = p.eval_loss(&theta, &mut s);
        assert!((initial - std::f64::consts::LN_2).abs() < 1e-9);
        for _ in 0..800 {
            p.grad_sparse(&theta, &mut pairs, &mut s, &mut rng).unwrap();
            for &(j, v) in &pairs {
                theta[j as usize] -= 1.0 * v;
            }
        }
        let fin = p.eval_loss(&theta, &mut s);
        assert!(fin < initial * 0.6, "{initial} -> {fin}");
        assert!(p.data().accuracy(&theta) > 0.75);
    }

    #[test]
    fn dense_problems_have_no_sparse_path() {
        let p = blob_problem();
        let theta = p.init_theta(1);
        let mut s = p.scratch();
        let mut pairs = Vec::new();
        assert!(p
            .grad_sparse(&theta, &mut pairs, &mut s, &mut SmallRng64::new(1))
            .is_none());
    }
}
