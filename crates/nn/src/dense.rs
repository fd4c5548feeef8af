//! Densely-connected (fully-connected) layer.
//!
//! Implements the MLP building block of the paper's Appendix:
//! `o(l) = x · Wᵀ + b` with `W : (out, in)` and `b : (out)` taken from the
//! flat parameter slice as `[W row-major | b]`.
//!
//! The weight matrix participates in two of the three GEMMs a training
//! step issues — forward `Y = X·Wᵀ` and backward `dX = dY·W` — in two
//! different pack orientations. Both packings are served from the
//! per-step [`PackedPanelCache`](lsgd_tensor::PackedPanelCache) (packed on first touch, reused by the
//! other pass), and every product goes through the `_in` parallel kernels
//! on the [`StepCtx`] runtime: they fan out when the runtime has more
//! than one thread and the product is large enough, run the serial rect
//! otherwise, and are bitwise identical either way. `dW = dYᵀ·X` involves
//! only per-batch operands, so it packs fresh.

use crate::layer::{Layer, LayerCache, StepCtx};
use lsgd_tensor::gemm::{
    gemm_flex_parallel_in, gemm_slices_parallel_in, small_m_prefers_naive, ASource, BSource,
    Transpose,
};
use lsgd_tensor::Matrix;

/// Fully-connected layer `y = x Wᵀ + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    /// Creates a dense layer mapping `in_dim` features to `out_dim`.
    pub fn new(in_dim: usize, out_dim: usize) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dense layer dims must be > 0");
        Dense { in_dim, out_dim }
    }

    /// Splits this layer's parameter slice into `(weights, bias)`.
    #[inline]
    fn split<'a>(&self, params: &'a [f32]) -> (&'a [f32], &'a [f32]) {
        params.split_at(self.in_dim * self.out_dim)
    }

    /// Splits this layer's mutable parameter slice into `(weights, bias)`.
    #[inline]
    fn split_mut<'a>(&self, params: &'a mut [f32]) -> (&'a mut [f32], &'a mut [f32]) {
        params.split_at_mut(self.in_dim * self.out_dim)
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "Dense"
    }

    fn in_dim(&self) -> usize {
        self.in_dim
    }

    fn out_dim(&self) -> usize {
        self.out_dim
    }

    fn param_len(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn forward(
        &self,
        params: &[f32],
        input: &Matrix,
        output: &mut Matrix,
        _cache: &mut LayerCache,
        ctx: &mut StepCtx,
    ) {
        debug_assert_eq!(input.cols(), self.in_dim);
        let batch = input.rows();
        let (w, b) = self.split(params);
        let w_shape = (self.out_dim, self.in_dim);
        let (panels, pool) = (&mut ctx.panels, ctx.runtime.get());
        // Y = X · Wᵀ   (batch,in) x (out,in)ᵀ -> (batch,out)
        // `tb = Yes` always takes the packed kernel, so the prepacked
        // orientation of W is usable at every batch size.
        let pb = panels.get_b(w, w_shape, Transpose::Yes);
        let asrc = ASource::Slices {
            a: input.as_slice(),
            shape: (batch, self.in_dim),
            trans: Transpose::No,
        };
        let bsrc = BSource::Prepacked(pb);
        let c_shape = (batch, self.out_dim);
        gemm_flex_parallel_in(pool, 1.0, &asrc, &bsrc, 0.0, output.as_mut_slice(), c_shape);
        // += bias, broadcast over rows.
        for r in 0..batch {
            let row = output.row_mut(r);
            for (o, &bi) in row.iter_mut().zip(b) {
                *o += bi;
            }
        }
    }

    fn backward(
        &self,
        params: &[f32],
        input: &Matrix,
        _output: &Matrix,
        grad_out: &Matrix,
        _cache: &mut LayerCache,
        ctx: &mut StepCtx,
        grad_params: &mut [f32],
        grad_in: &mut Matrix,
    ) {
        let batch = input.rows();
        let (w, _) = self.split(params);
        let w_shape = (self.out_dim, self.in_dim);
        let (dw, db) = self.split_mut(grad_params);
        let (panels, pool) = (&mut ctx.panels, ctx.runtime.get());

        // dW = dYᵀ · X   (out,batch) x (batch,in) -> (out,in)
        // `tn` rides the packed kernel via A-panel packing — no
        // transposed copy of dY is materialised and no scalar fallback
        // runs (this product dominated Tc before the packed kernel).
        // Both operands are fresh per step, so nothing to prepack.
        gemm_slices_parallel_in(
            pool,
            1.0,
            grad_out.as_slice(),
            (batch, self.out_dim),
            Transpose::Yes,
            input.as_slice(),
            (batch, self.in_dim),
            Transpose::No,
            0.0,
            dw,
            w_shape,
        );
        // db = column sums of dY.
        db.iter_mut().for_each(|v| *v = 0.0);
        for r in 0..batch {
            let row = grad_out.row(r);
            for (d, &g) in db.iter_mut().zip(row) {
                *d += g;
            }
        }
        // dX = dY · W   (batch,out) x (out,in) -> (batch,in)
        // Tiny batches prefer the streaming naive kernel; matching that
        // policy here (instead of forcing the prepacked packed kernel)
        // keeps results bitwise identical to the fresh-operand path.
        if !small_m_prefers_naive(batch, Transpose::No) {
            let pb = panels.get_b(w, w_shape, Transpose::No);
            let asrc = ASource::Slices {
                a: grad_out.as_slice(),
                shape: (batch, self.out_dim),
                trans: Transpose::No,
            };
            let bsrc = BSource::Prepacked(pb);
            let c_shape = (batch, self.in_dim);
            gemm_flex_parallel_in(pool, 1.0, &asrc, &bsrc, 0.0, grad_in.as_mut_slice(), c_shape);
        } else {
            gemm_slices_parallel_in(
                pool,
                1.0,
                grad_out.as_slice(),
                (batch, self.out_dim),
                Transpose::No,
                w,
                w_shape,
                Transpose::No,
                0.0,
                grad_in.as_mut_slice(),
                (batch, self.in_dim),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsgd_tensor::rng::std_rng;

    #[test]
    fn param_len_counts_weights_and_bias() {
        let l = Dense::new(784, 128);
        assert_eq!(l.param_len(), 784 * 128 + 128);
    }

    #[test]
    fn forward_matches_manual_single_neuron() {
        let l = Dense::new(2, 1);
        // W = [2, 3], b = [1] → y = 2x0 + 3x1 + 1
        let params = vec![2.0, 3.0, 1.0];
        let x = Matrix::from_vec(2, 2, vec![1.0, 1.0, 0.5, -1.0]);
        let mut y = Matrix::zeros(2, 1);
        let mut cache = LayerCache::default();
        l.forward(&params, &x, &mut y, &mut cache, &mut StepCtx::default());
        assert!((y.get(0, 0) - 6.0).abs() < 1e-6);
        assert!((y.get(1, 0) - (-1.0)).abs() < 1e-6);
    }

    #[test]
    fn bias_broadcasts_across_batch() {
        let l = Dense::new(1, 3);
        let params = vec![0.0, 0.0, 0.0, 10.0, 20.0, 30.0]; // zero W, bias only
        let x = Matrix::zeros(4, 1);
        let mut y = Matrix::zeros(4, 3);
        l.forward(
            &params,
            &x,
            &mut y,
            &mut LayerCache::default(),
            &mut StepCtx::default(),
        );
        for r in 0..4 {
            assert_eq!(y.row(r), &[10.0, 20.0, 30.0]);
        }
    }

    #[test]
    fn backward_shapes_and_bias_grad() {
        let l = Dense::new(3, 2);
        let mut rng = std_rng(1);
        let mut params = vec![0.0f32; l.param_len()];
        l.init_params(&mut params, &mut rng);
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let mut y = Matrix::zeros(2, 2);
        let mut cache = LayerCache::default();
        let mut ctx = StepCtx::default();
        l.forward(&params, &x, &mut y, &mut cache, &mut ctx);
        let dy = Matrix::from_vec(2, 2, vec![1.0, 0.0, 1.0, 0.0]);
        let mut dp = vec![0.0f32; l.param_len()];
        let mut dx = Matrix::zeros(2, 3);
        l.backward(&params, &x, &y, &dy, &mut cache, &mut ctx, &mut dp, &mut dx);
        // bias gradient = column sums of dy = [2, 0]
        assert_eq!(&dp[6..], &[2.0, 0.0]);
        // dW row 0 = sum over batch of x rows = [5, 7, 9]; row 1 = zeros
        assert_eq!(&dp[0..3], &[5.0, 7.0, 9.0]);
        assert_eq!(&dp[3..6], &[0.0, 0.0, 0.0]);
    }

    /// Runtime-width invariance through the layer API: a fresh context on
    /// `Runtime::new(1)` is the reference; a 4-thread runtime, and a warm
    /// second step through the same context (panels repacked in place),
    /// must match it bit for bit. The shapes are big enough that the
    /// 4-thread run really fans out (`2·m·n·k ≥ 2²¹`, `batch ≥ 2·MC`).
    #[test]
    fn panel_cache_and_parallel_paths_agree_bitwise() {
        use lsgd_runtime::Runtime;
        let l = Dense::new(128, 64);
        let batch = 160;
        let mut rng = lsgd_tensor::SmallRng64::new(5);
        let params: Vec<f32> = (0..l.param_len()).map(|_| rng.next_f32() - 0.5).collect();
        let x = Matrix::from_fn(batch, 128, |_, _| rng.next_f32() - 0.5);
        let dy = Matrix::from_fn(batch, 64, |_, _| rng.next_f32() - 0.5);

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let step = |ctx: &mut StepCtx| {
            ctx.panels.begin_step();
            let mut cache = LayerCache::default();
            let mut y = Matrix::zeros(batch, 64);
            l.forward(&params, &x, &mut y, &mut cache, ctx);
            let mut dp = vec![0.0f32; l.param_len()];
            let mut dx = Matrix::zeros(batch, 128);
            l.backward(&params, &x, &y, &dy, &mut cache, ctx, &mut dp, &mut dx);
            (bits(y.as_slice()), bits(&dp), bits(dx.as_slice()))
        };
        let ctx_on = |threads: usize| StepCtx {
            runtime: Runtime::new(threads).into(),
            ..StepCtx::default()
        };
        let mut serial = ctx_on(1);
        let reference = step(&mut serial);
        assert!(step(&mut serial) == reference, "warm second step, 1 thread");
        let mut wide = ctx_on(4);
        assert!(step(&mut wide) == reference, "cold step, 4 threads");
        assert!(step(&mut wide) == reference, "warm second step, 4 threads");
    }

    #[test]
    fn init_params_draws_small_values() {
        let l = Dense::new(100, 100);
        let mut rng = std_rng(7);
        let mut params = vec![0.0f32; l.param_len()];
        l.init_params(&mut params, &mut rng);
        let max = params.iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        assert!(max < 0.1, "N(0,0.01) samples should be small, got {max}");
        assert!(params.iter().any(|&v| v != 0.0));
    }
}
