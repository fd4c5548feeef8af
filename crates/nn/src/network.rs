//! Sequential network container over a flat parameter vector.
//!
//! [`Network`] is the concrete realisation of what the paper calls
//! "extracting all learnable parameters into a collective data structure":
//! the network holds only architecture (layers and their parameter
//! offsets); parameters arrive as a flat `&[f32]` — in the parallel
//! algorithms, directly the contents of a published ParameterVector — and
//! the minibatch gradient leaves as a flat `&mut [f32]`.
//!
//! [`Workspace`] carries all per-thread scratch (activations, gradient
//! ping-pong buffers, layer caches) so `m` concurrent workers share the
//! immutable `Network` and nothing else.

use crate::layer::{Layer, LayerCache};
use crate::loss;
use lsgd_runtime::Handle;
use lsgd_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An immutable sequence of layers with precomputed parameter offsets.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    offsets: Vec<usize>,
    d: usize,
    n_classes: usize,
}

impl Network {
    /// Builds a network from a layer stack.
    ///
    /// # Panics
    /// Panics if consecutive layer dimensions do not match or the stack is
    /// empty.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_dim(),
                pair[1].in_dim(),
                "layer dimension mismatch: {} out={} vs {} in={}",
                pair[0].describe(),
                pair[0].out_dim(),
                pair[1].describe(),
                pair[1].in_dim()
            );
        }
        let mut offsets = Vec::with_capacity(layers.len() + 1);
        let mut acc = 0usize;
        for l in &layers {
            offsets.push(acc);
            acc += l.param_len();
        }
        offsets.push(acc);
        let n_classes = layers.last().unwrap().out_dim();
        Network {
            layers,
            offsets,
            d: acc,
            n_classes,
        }
    }

    /// Total number of learnable parameters `d` (the dimension of the
    /// ParameterVector).
    #[inline]
    pub fn param_len(&self) -> usize {
        self.d
    }

    /// Flattened input dimension per sample.
    #[inline]
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension (= number of classes for classification).
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of layers.
    #[inline]
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// The parameter slice belonging to layer `i` within a flat vector.
    pub fn layer_params<'a>(&self, i: usize, theta: &'a [f32]) -> &'a [f32] {
        &theta[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Samples a fresh parameter vector, `N(0, 0.01)` per the paper's
    /// `rand_init`, deterministic under `seed`.
    pub fn init_params(&self, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut theta = vec![0.0f32; self.d];
        for (i, l) in self.layers.iter().enumerate() {
            l.init_params(&mut theta[self.offsets[i]..self.offsets[i + 1]], &mut rng);
        }
        theta
    }

    /// Creates the per-thread scratch for minibatches of at most
    /// `max_batch` samples.
    pub fn workspace(&self, max_batch: usize) -> Workspace {
        let mut activations = Vec::with_capacity(self.layers.len() + 1);
        activations.push(Matrix::zeros(max_batch, self.in_dim()));
        for l in &self.layers {
            activations.push(Matrix::zeros(max_batch, l.out_dim()));
        }
        let widest = self
            .layers
            .iter()
            .map(|l| l.in_dim().max(l.out_dim()))
            .max()
            .unwrap();
        Workspace {
            activations,
            grad_a: Matrix::zeros(max_batch, widest),
            grad_b: Matrix::zeros(max_batch, widest),
            caches: self.layers.iter().map(|_| LayerCache::default()).collect(),
            runtime: Handle::default(),
            max_batch,
        }
    }

    /// Forward pass: fills `ws` with activations, returns the logits (the
    /// last activation) for `x` `(batch, in_dim)`.
    ///
    /// # Panics
    /// Panics if `theta.len() != d`, the batch exceeds the workspace
    /// capacity, or `x` has the wrong width.
    pub fn forward<'w>(&self, theta: &[f32], x: &Matrix, ws: &'w mut Workspace) -> &'w Matrix {
        self.forward_fill(theta, x, ws);
        ws.activations.last().unwrap()
    }

    /// Forward pass that only populates the workspace (no borrow of the
    /// result), letting callers split field borrows afterwards. Each layer
    /// packs its weights from `theta` afresh, so `theta` may be a buffer
    /// whose contents changed since the last pass.
    fn forward_fill(&self, theta: &[f32], x: &Matrix, ws: &mut Workspace) {
        assert_eq!(theta.len(), self.d, "parameter vector length");
        assert!(x.rows() <= ws.max_batch, "batch exceeds workspace");
        assert_eq!(x.cols(), self.in_dim(), "input width");
        let batch = x.rows();
        let Workspace {
            activations,
            caches,
            runtime,
            ..
        } = ws;
        let rt = runtime.get();
        // Every buffer below is fully overwritten by its producer (the
        // Layer::forward contract), so plain reshapes suffice — no
        // per-step zero-fill.
        activations[0].resize_for_overwrite(batch, self.in_dim());
        activations[0].as_mut_slice().copy_from_slice(x.as_slice());
        for (i, l) in self.layers.iter().enumerate() {
            let (before, after) = activations.split_at_mut(i + 1);
            let input = &before[i];
            let output = &mut after[0];
            output.resize_for_overwrite(batch, l.out_dim());
            l.forward(self.layer_params(i, theta), input, output, &mut caches[i], rt);
        }
    }

    /// Mean loss of a labelled minibatch under parameters `theta`.
    pub fn loss(&self, theta: &[f32], x: &Matrix, y: &[u8], ws: &mut Workspace) -> f32 {
        let logits = self.forward(theta, x, ws);
        loss::cross_entropy_loss(logits, y)
    }

    /// Classification accuracy of a labelled minibatch.
    pub fn accuracy(&self, theta: &[f32], x: &Matrix, y: &[u8], ws: &mut Workspace) -> f32 {
        let logits = self.forward(theta, x, ws);
        loss::accuracy(logits, y)
    }

    /// Computes the minibatch loss and writes the full flat gradient into
    /// `grad` — the `comp_grad` of the paper's Algorithms 2–4.
    ///
    /// # Panics
    /// Panics if `grad.len() != d` or on input shape mismatches.
    pub fn loss_grad(
        &self,
        theta: &[f32],
        x: &Matrix,
        y: &[u8],
        grad: &mut [f32],
        ws: &mut Workspace,
    ) -> f32 {
        assert_eq!(grad.len(), self.d, "gradient buffer length");
        let batch = x.rows();
        self.forward_fill(theta, x, ws);
        let Workspace {
            activations,
            grad_a,
            grad_b,
            caches,
            runtime,
            ..
        } = ws;
        let rt = runtime.get();
        // Disjoint field borrows: logits live in `activations`, the logit
        // gradient goes into `grad_a`. The loss gradient (like every
        // layer's backward) writes all of its output, so the gradient
        // ping-pong buffers are reshaped without zero-filling.
        grad_a.resize_for_overwrite(batch, self.n_classes);
        let logits = activations.last().unwrap();
        let loss_val = loss::cross_entropy_loss_grad(logits, y, grad_a);
        // Backward sweep, ping-ponging grad_a (d output) and grad_b (d input).
        for i in (0..self.layers.len()).rev() {
            let l = &self.layers[i];
            grad_b.resize_for_overwrite(batch, l.in_dim());
            let input = &activations[i];
            let output = &activations[i + 1];
            l.backward(
                self.layer_params(i, theta),
                input,
                output,
                grad_a,
                &mut caches[i],
                rt,
                &mut grad[self.offsets[i]..self.offsets[i + 1]],
                grad_b,
            );
            std::mem::swap(grad_a, grad_b);
        }
        loss_val
    }

    /// Multi-line architecture summary (à la Tables II/III of the paper).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for (i, l) in self.layers.iter().enumerate() {
            out.push_str(&format!(
                "{:>2}  {:<40} params={}\n",
                i + 1,
                l.describe(),
                l.param_len()
            ));
        }
        out.push_str(&format!("    total d = {}\n", self.d));
        out
    }
}

/// Per-thread scratch: activation stack, gradient ping-pong buffers,
/// layer caches (including each layer's packed weights), and the handle
/// of the runtime intra-step splits run on. Create one per worker via
/// [`Network::workspace`].
pub struct Workspace {
    activations: Vec<Matrix>,
    grad_a: Matrix,
    grad_b: Matrix,
    caches: Vec<LayerCache>,
    runtime: Handle,
    max_batch: usize,
}

impl Workspace {
    /// The activation matrix produced by layer `i` during the last forward
    /// pass (`i = 0` is the input copy). Exposed for tests/diagnostics.
    pub fn activation(&self, i: usize) -> &Matrix {
        &self.activations[i]
    }

    /// Runs all subsequent passes through this workspace on `runtime`
    /// instead of the process-global one (gradients are bitwise identical
    /// at every runtime width).
    pub fn set_runtime(&mut self, runtime: Handle) {
        self.runtime = runtime;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::dense::Dense;

    fn two_layer() -> Network {
        Network::new(vec![
            Box::new(Dense::new(4, 8)),
            Box::new(Relu::new(8)),
            Box::new(Dense::new(8, 3)),
        ])
    }

    #[test]
    fn offsets_partition_the_vector() {
        let net = two_layer();
        assert_eq!(net.param_len(), (4 * 8 + 8) + (8 * 3 + 3));
        assert_eq!(net.layer_params(0, &vec![0.0; net.param_len()]).len(), 40);
        assert_eq!(net.layer_params(1, &vec![0.0; net.param_len()]).len(), 0);
        assert_eq!(net.layer_params(2, &vec![0.0; net.param_len()]).len(), 27);
    }

    #[test]
    #[should_panic]
    fn mismatched_layers_rejected() {
        Network::new(vec![
            Box::new(Dense::new(4, 8)),
            Box::new(Dense::new(9, 3)),
        ]);
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let net = two_layer();
        assert_eq!(net.init_params(5), net.init_params(5));
        assert_ne!(net.init_params(5), net.init_params(6));
    }

    #[test]
    fn forward_shapes() {
        let net = two_layer();
        let theta = net.init_params(0);
        let mut ws = net.workspace(16);
        let x = Matrix::zeros(7, 4);
        let logits = net.forward(&theta, &x, &mut ws);
        assert_eq!((logits.rows(), logits.cols()), (7, 3));
    }

    #[test]
    fn initial_loss_is_log_k() {
        // With N(0, 0.01) weights the logits are near zero → loss ≈ ln(3).
        let net = two_layer();
        let theta = net.init_params(1);
        let mut ws = net.workspace(8);
        let x = Matrix::from_fn(8, 4, |r, c| ((r + c) % 3) as f32 * 0.1);
        let y = [0u8, 1, 2, 0, 1, 2, 0, 1];
        let loss = net.loss(&theta, &x, &y, &mut ws);
        assert!((loss - 3f32.ln()).abs() < 0.05, "loss {loss}");
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        let net = two_layer();
        // N(0, 0.3) init: the paper's N(0, 0.01) is so close to the origin
        // that a test-sized problem barely moves in a few hundred steps.
        let mut theta = net.init_params(2);
        theta.iter_mut().for_each(|v| *v *= 30.0);
        let mut ws = net.workspace(8);
        let mut rng = lsgd_tensor::SmallRng64::new(3);
        let x = Matrix::from_fn(8, 4, |_, _| rng.next_f32() - 0.5);
        let y = [0u8, 1, 2, 0, 1, 2, 0, 1];
        let mut grad = vec![0.0f32; net.param_len()];
        let initial = net.loss(&theta, &x, &y, &mut ws);
        for _ in 0..300 {
            net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
            lsgd_tensor::ops::sgd_step(&mut theta, &grad, 1.0);
        }
        let fin = net.loss(&theta, &x, &y, &mut ws);
        assert!(
            fin < initial * 0.5,
            "training should reduce loss: {initial} -> {fin}"
        );
    }

    #[test]
    fn loss_grad_returns_same_loss_as_loss() {
        let net = two_layer();
        let theta = net.init_params(4);
        let mut ws = net.workspace(4);
        let x = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32 * 0.01);
        let y = [0u8, 1, 2, 0];
        let mut grad = vec![0.0f32; net.param_len()];
        let l1 = net.loss(&theta, &x, &y, &mut ws);
        let l2 = net.loss_grad(&theta, &x, &y, &mut grad, &mut ws);
        assert!((l1 - l2).abs() < 1e-6);
    }

    #[test]
    fn workspace_reuse_across_batch_sizes() {
        let net = two_layer();
        let theta = net.init_params(0);
        let mut ws = net.workspace(8);
        for batch in [8usize, 3, 5, 1, 8] {
            let x = Matrix::zeros(batch, 4);
            let logits = net.forward(&theta, &x, &mut ws);
            assert_eq!(logits.rows(), batch);
        }
    }
}
