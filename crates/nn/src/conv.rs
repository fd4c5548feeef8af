//! 2-D convolution layer (valid padding, stride 1) via im2col + GEMM.
//!
//! Matches the paper's CNN building block (Appendix, Table III): filters of
//! shape `k × k` over `in_c` input channels, no padding — which is exactly
//! what reproduces the published parameter count `d = 27,354`.
//!
//! Data layout: each sample's feature map is flattened NCHW into one matrix
//! row, i.e. `row = [c0 row-major HxW | c1 ... ]`. The im2col lowering
//! turns each sample into a `(out_h*out_w, in_c*k*k)` patch matrix so the
//! convolution becomes one GEMM per sample — the same "many small GEMMs"
//! cost profile the paper measures for its CNN (high `Tc`, low `Tu`).
//!
//! # The zero-realloc path
//!
//! The execution path restructures that cost profile in three ways, all
//! bitwise-neutral to the result:
//!
//! 1. **Fused lowering** — the forward pass never materialises the im2col
//!    matrix. The GEMM's `B` operand is generated *directly in packed
//!    panel layout* from the sample's feature map
//!    ([`Conv2d::pack_patches`] plugged in as a [`BSource::Packer`]),
//!    producing byte-identical panels to `im2col` + `pack_b` while
//!    skipping one full write+strided-read pass over the lowered data.
//! 2. **Prepacked filters** — the filter matrix `W` participates in every
//!    per-sample product of the minibatch, in two orientations (as `A` in
//!    the forward product, as `B` in the backward `dcols` product). Both
//!    packings are produced once per SGD step via the worker's
//!    [`PackedPanelCache`] and reused across all samples.
//! 3. **Threaded sample loop** — per-sample work (lowering, GEMMs,
//!    col2im) fans out over the [`StepCtx`] runtime in contiguous sample
//!    ranges when it has more than one thread and the pass is heavy
//!    enough. Weight gradients are computed into per-sample slab
//!    entries (`LayerCache::grad_slab`) and reduced in ascending sample
//!    order afterwards, so the floating-point association — and thus
//!    every output bit — is the same at every runtime width.
//!
//! The references for this path are independent of it: a direct
//! convolution (`conv_ref`), the fused packer against materialised
//! im2col + `pack_b` panels, finite-difference `gradcheck`, and
//! runtime-width invariance (`Runtime::new(1)` vs `Runtime::new(4)` vs a
//! warm second step) in `tests/fastpath_differential.rs`.

use crate::layer::{Layer, LayerCache, RowsPtr, StepCtx};
use lsgd_runtime::split_ranges;
use lsgd_tensor::gemm::{gemm_flex, gemm_slices, ASource, BSource, Transpose};
use lsgd_tensor::{Matrix, PackedA, PackedB};
use std::cell::RefCell;
use std::ops::Range;

/// Minimum per-call flop count (`2 · filters · patch · ohw · batch`)
/// before the per-sample loop fans out across the runtime; below it
/// the dispatch overhead exceeds the win.
const CONV_PAR_MIN_FLOPS: usize = 1 << 20;

thread_local! {
    /// Per-thread lowering scratch (`cols`, `dcols`) for the backward
    /// sample loop: tasks run on pool worker threads, so per-thread reuse
    /// makes the steady state allocation-free without sharing across
    /// concurrently processed samples.
    static LOWER_SCRATCH: RefCell<(Matrix, Matrix)> =
        RefCell::new((Matrix::default(), Matrix::default()));
}

/// Convolutional layer: `filters` output channels, `k × k` kernels, valid
/// padding, stride 1, bias per filter.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    in_h: usize,
    in_w: usize,
    filters: usize,
    k: usize,
}

impl Conv2d {
    /// Creates a conv layer over `in_c × in_h × in_w` inputs.
    ///
    /// # Panics
    /// Panics if the kernel does not fit the input.
    pub fn new(in_c: usize, in_h: usize, in_w: usize, filters: usize, k: usize) -> Self {
        assert!(k > 0 && filters > 0);
        assert!(
            in_h >= k && in_w >= k,
            "kernel {k}x{k} larger than input {in_h}x{in_w}"
        );
        Conv2d {
            in_c,
            in_h,
            in_w,
            filters,
            k,
        }
    }

    /// Output height (valid padding, stride 1).
    #[inline]
    pub fn out_h(&self) -> usize {
        self.in_h - self.k + 1
    }

    /// Output width (valid padding, stride 1).
    #[inline]
    pub fn out_w(&self) -> usize {
        self.in_w - self.k + 1
    }

    /// Output channel count.
    #[inline]
    pub fn out_c(&self) -> usize {
        self.filters
    }

    #[inline]
    fn patch_len(&self) -> usize {
        self.in_c * self.k * self.k
    }

    /// Lowers one sample (flattened NCHW row) into the im2col patch matrix
    /// `(out_h*out_w, in_c*k*k)`.
    ///
    /// Dispatches to a const-kernel-size body for the common sizes: with
    /// `k` known at compile time the `k`-element row copies inline
    /// (a runtime-length 12-byte `copy_from_slice` compiles to a
    /// `memcpy` *call*, which dominated the lowering cost — ~0.5 ms per
    /// CNN minibatch step before this dispatch). Values and order are
    /// identical in every arm.
    fn im2col(&self, sample: &[f32], cols: &mut Matrix) {
        debug_assert_eq!(cols.rows(), self.out_h() * self.out_w());
        debug_assert_eq!(cols.cols(), self.patch_len());
        match self.k {
            1 => self.im2col_k::<1>(sample, cols),
            3 => self.im2col_k::<3>(sample, cols),
            5 => self.im2col_k::<5>(sample, cols),
            _ => self.im2col_k::<0>(sample, cols),
        }
    }

    /// `im2col` body; `K` is the compile-time kernel size (`0` = use the
    /// runtime `self.k`).
    fn im2col_k<const K: usize>(&self, sample: &[f32], cols: &mut Matrix) {
        let (oh, ow) = (self.out_h(), self.out_w());
        let k = if K == 0 { self.k } else { K };
        let hw = self.in_h * self.in_w;
        for oy in 0..oh {
            for ox in 0..ow {
                let dst = cols.row_mut(oy * ow + ox);
                let mut idx = 0;
                for c in 0..self.in_c {
                    let chan = &sample[c * hw..(c + 1) * hw];
                    for ky in 0..k {
                        let src_off = (oy + ky) * self.in_w + ox;
                        dst[idx..idx + k].copy_from_slice(&chan[src_off..src_off + k]);
                        idx += k;
                    }
                }
            }
        }
    }

    /// Fused im2col→panel lowering: fills `dst` with exactly the packed
    /// `B` block that `pack_b(im2col(sample)ᵀ block at (k0, j0))` would
    /// produce — `⌈nc/NR⌉` micro-panels of `NR` output positions, laid
    /// out k-major and zero-padded at the ragged edge — without ever
    /// materialising the im2col matrix.
    ///
    /// Logical operand: `B[k][j] = sample[chan(k), (oy(j)+ky(k)) ·
    /// in_w + ox(j)+kx(k)]` with `j` in output-raster order. For a fixed
    /// patch coordinate `k`, consecutive output positions within one
    /// output row map to *consecutive* input addresses, so each panel row
    /// is assembled from at most `⌈NR/out_w⌉ + 1` contiguous copies.
    fn pack_patches(
        &self,
        sample: &[f32],
        dst: &mut [f32],
        k0: usize,
        j0: usize,
        kc: usize,
        nc: usize,
    ) {
        use lsgd_tensor::gemm::NR;
        let (ow, kk) = (self.out_w(), self.k);
        let hw = self.in_h * self.in_w;
        let panels = nc.div_ceil(NR);
        debug_assert!(dst.len() >= panels * NR * kc);
        for p in 0..panels {
            let jb = j0 + p * NR;
            let cols = NR.min(j0 + nc - jb);
            let panel = &mut dst[p * NR * kc..(p + 1) * NR * kc];
            for (kr, chunk) in panel.chunks_exact_mut(NR).enumerate().take(kc) {
                let pk = k0 + kr;
                let c = pk / (kk * kk);
                let rem = pk % (kk * kk);
                let (ky, kx) = (rem / kk, rem % kk);
                let base = c * hw + ky * self.in_w + kx;
                let (oy0, ox0) = (jb / ow, jb % ow);
                if cols == NR && ox0 + NR <= ow {
                    // Whole panel row inside one output row: a single
                    // const-length copy (the dominant case; a
                    // runtime-length copy here compiles to a memcpy call
                    // and throttles the fused lowering).
                    let src = base + oy0 * self.in_w + ox0;
                    let dst: &mut [f32; NR] = chunk.try_into().unwrap();
                    let s: &[f32; NR] = sample[src..src + NR].try_into().unwrap();
                    *dst = *s;
                    continue;
                }
                // Ragged/wrapping panel row: copy contiguous output-row
                // spans of input values.
                let mut written = 0;
                while written < cols {
                    let j = jb + written;
                    let (oy, ox) = (j / ow, j % ow);
                    let span = (ow - ox).min(cols - written);
                    let src = base + oy * self.in_w + ox;
                    for (d, s) in chunk[written..written + span]
                        .iter_mut()
                        .zip(&sample[src..src + span])
                    {
                        *d = *s;
                    }
                    written += span;
                }
                chunk[cols..].iter_mut().for_each(|v| *v = 0.0);
            }
        }
    }

    /// Scatter-adds a column-gradient matrix `(out_h*out_w, in_c*k*k)` back
    /// into one sample's input gradient (col2im). Const-kernel-size
    /// dispatch for the same reason as [`Conv2d::im2col`].
    fn col2im_add(&self, dcols: &Matrix, dsample: &mut [f32]) {
        match self.k {
            1 => self.col2im_add_k::<1>(dcols, dsample),
            3 => self.col2im_add_k::<3>(dcols, dsample),
            5 => self.col2im_add_k::<5>(dcols, dsample),
            _ => self.col2im_add_k::<0>(dcols, dsample),
        }
    }

    /// `col2im_add` body; `K` as in [`Conv2d::im2col_k`].
    fn col2im_add_k<const K: usize>(&self, dcols: &Matrix, dsample: &mut [f32]) {
        let (oh, ow) = (self.out_h(), self.out_w());
        let k = if K == 0 { self.k } else { K };
        let hw = self.in_h * self.in_w;
        for oy in 0..oh {
            for ox in 0..ow {
                let src = dcols.row(oy * ow + ox);
                let mut idx = 0;
                for c in 0..self.in_c {
                    let chan = &mut dsample[c * hw..(c + 1) * hw];
                    for ky in 0..k {
                        let dst_off = (oy + ky) * self.in_w + ox;
                        for kx in 0..k {
                            chan[dst_off + kx] += src[idx + kx];
                        }
                        idx += k;
                    }
                }
            }
        }
    }

    /// Splits this layer's parameter slice into `(filter weights, bias)`.
    #[inline]
    fn split<'a>(&self, params: &'a [f32]) -> (&'a [f32], &'a [f32]) {
        params.split_at(self.filters * self.patch_len())
    }

    /// Whether a `batch`-sample pass is heavy enough to fan out.
    #[inline]
    fn parallel_worthwhile(&self, batch: usize) -> bool {
        2 * self.filters * self.patch_len() * self.out_h() * self.out_w() * batch
            >= CONV_PAR_MIN_FLOPS
    }

    /// Runs `work` over `0..batch` split into at most `rt.threads()`
    /// contiguous ranges — on the runtime when that is more than one
    /// range, inline otherwise. `work` must touch only sample-disjoint
    /// state.
    fn for_sample_ranges(
        rt: &lsgd_runtime::Runtime,
        batch: usize,
        work: &(dyn Fn(Range<usize>) + Sync),
    ) {
        let ranges = split_ranges(batch, rt.threads());
        if ranges.len() <= 1 {
            work(0..batch);
        } else {
            rt.parallel_for(ranges.len(), &|t| work(ranges[t].clone()));
        }
    }

    /// One sample's forward product + bias: `out_row = W · colsᵀ + b`,
    /// with `colsᵀ` generated in packed layout straight from the sample.
    fn forward_sample(&self, pa: &PackedA, bias: &[f32], sample: &[f32], out_row: &mut [f32]) {
        let ohw = self.out_h() * self.out_w();
        let patch = self.patch_len();
        let packer = |dst: &mut [f32], k0: usize, j0: usize, kc: usize, nc: usize| {
            self.pack_patches(sample, dst, k0, j0, kc, nc);
        };
        let bsrc = BSource::Packer {
            pack: &packer,
            shape: (patch, ohw),
        };
        let asrc = ASource::Prepacked(pa);
        gemm_flex(1.0, &asrc, &bsrc, 0.0, out_row, (self.filters, ohw));
        for f in 0..self.filters {
            let b = bias[f];
            for v in &mut out_row[f * ohw..(f + 1) * ohw] {
                *v += b;
            }
        }
    }

    /// One sample's backward work: `dcols = dYᵀ·W` → col2im into the
    /// sample's input-gradient row, and `(dW_s | db_s)` into its slab
    /// entry (`beta = 0` products; the caller reduces slabs in sample
    /// order, which reproduces the serial accumulation bit-for-bit).
    #[allow(clippy::too_many_arguments)]
    fn backward_sample(
        &self,
        w: &[f32],
        pb: Option<&PackedB>,
        dy: &[f32],
        sample: &[f32],
        gi_row: &mut [f32],
        slab_row: &mut [f32],
        cols: &mut Matrix,
        dcols: &mut Matrix,
    ) {
        let ohw = self.out_h() * self.out_w();
        let patch = self.patch_len();
        // dcols = dYᵀ (ohw, filters) · W (filters, patch); fully
        // overwritten (beta = 0), so no zero-fill of the scratch.
        dcols.resize_for_overwrite(ohw, patch);
        let asrc = ASource::Slices {
            a: dy,
            shape: (self.filters, ohw),
            trans: Transpose::Yes,
        };
        match pb {
            Some(pb) => gemm_flex(
                1.0,
                &asrc,
                &BSource::Prepacked(pb),
                0.0,
                dcols.as_mut_slice(),
                (ohw, patch),
            ),
            None => gemm_slices(
                1.0,
                dy,
                (self.filters, ohw),
                Transpose::Yes,
                w,
                (self.filters, patch),
                Transpose::No,
                0.0,
                dcols.as_mut_slice(),
                (ohw, patch),
            ),
        }
        self.col2im_add(dcols, gi_row);

        // dW_s = dY (filters, ohw) · cols (ohw, patch). With the paper
        // CNN's filter counts this sits below gemm's small-m cutoff and
        // streams the materialised cols on the naive path — which is why
        // the lowering is still materialised here (the forward pass is
        // not).
        cols.resize_for_overwrite(ohw, patch);
        self.im2col(sample, cols);
        let (dw_s, db_s) = slab_row.split_at_mut(self.filters * patch);
        gemm_slices(
            1.0,
            dy,
            (self.filters, ohw),
            Transpose::No,
            cols.as_slice(),
            (ohw, patch),
            Transpose::No,
            0.0,
            dw_s,
            (self.filters, patch),
        );
        for f in 0..self.filters {
            db_s[f] = dy[f * ohw..(f + 1) * ohw].iter().sum::<f32>();
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn in_dim(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    fn out_dim(&self) -> usize {
        self.filters * self.out_h() * self.out_w()
    }

    fn param_len(&self) -> usize {
        self.filters * self.patch_len() + self.filters
    }

    fn forward(
        &self,
        params: &[f32],
        input: &Matrix,
        output: &mut Matrix,
        _cache: &mut LayerCache,
        ctx: &mut StepCtx,
    ) {
        let batch = input.rows();
        let (w, b) = self.split(params);
        let patch = self.patch_len();
        let (panels, pool) = (&mut ctx.panels, ctx.runtime.get());
        let par = pool.threads().min(batch) > 1 && self.parallel_worthwhile(batch);

        // Filters prepacked once per step, fused lowering, and (when
        // worthwhile) the sample loop split across the pool.
        let pa = panels.get_a(w, (self.filters, patch), Transpose::No);
        let out = RowsPtr::of(output);
        let work = |range: Range<usize>| {
            for s in range {
                // SAFETY: ranges are disjoint, tasks are joined before
                // `output`'s borrow ends (RowsPtr contract).
                let out_row = unsafe { out.row(s) };
                self.forward_sample(pa, b, input.row(s), out_row);
            }
        };
        if par {
            Self::for_sample_ranges(pool, batch, &work);
        } else {
            work(0..batch);
        }
    }

    fn backward(
        &self,
        params: &[f32],
        input: &Matrix,
        _output: &Matrix,
        grad_out: &Matrix,
        cache: &mut LayerCache,
        ctx: &mut StepCtx,
        grad_params: &mut [f32],
        grad_in: &mut Matrix,
    ) {
        let batch = input.rows();
        let (w, _) = self.split(params);
        let patch = self.patch_len();
        let pl = self.param_len();

        grad_in.fill_zero();
        let (panels, pool) = (&mut ctx.panels, ctx.runtime.get());
        let par = pool.threads().min(batch) > 1 && self.parallel_worthwhile(batch);

        // Per-sample gradients land in the slab (fully overwritten per
        // sample — no zero-fill) and are reduced in ascending sample
        // order below, which is the serial association exactly.
        cache.grad_slab.resize(batch * pl, 0.0);
        // Prepacked W is only usable where the fresh-operand path would
        // also take the packed kernel (m = out_h·out_w rows in the dcols
        // product); tiny outputs prefer the streaming naive kernel, and
        // matching that policy keeps the paths bitwise identical.
        let use_pb = !lsgd_tensor::gemm::small_m_prefers_naive(
            self.out_h() * self.out_w(),
            Transpose::No,
        );
        let pb = use_pb.then(|| panels.get_b(w, (self.filters, patch), Transpose::No));
        let gi = RowsPtr::of(grad_in);
        let slab = RowsPtr::of_slab(&mut cache.grad_slab, pl);
        let work = |range: Range<usize>| {
            LOWER_SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                let (ref mut cols, ref mut dcols) = *scratch;
                for s in range {
                    // SAFETY: disjoint rows per task, joined before the
                    // borrows of `grad_in` / `grad_slab` end.
                    let (gi_row, slab_row) = unsafe { (gi.row(s), slab.row(s)) };
                    self.backward_sample(
                        w,
                        pb,
                        grad_out.row(s),
                        input.row(s),
                        gi_row,
                        slab_row,
                        cols,
                        dcols,
                    );
                }
            });
        };
        if par {
            Self::for_sample_ranges(pool, batch, &work);
        } else {
            work(0..batch);
        }

        // Ordered reduction: grad_params = Σ_s slab[s], s ascending.
        grad_params.iter_mut().for_each(|v| *v = 0.0);
        for s in 0..batch {
            let row = &cache.grad_slab[s * pl..(s + 1) * pl];
            for (g, &r) in grad_params.iter_mut().zip(row) {
                *g += r;
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "Conv2d {}x{}x{} -> {}x{}x{} (k={})",
            self.in_c,
            self.in_h,
            self.in_w,
            self.filters,
            self.out_h(),
            self.out_w(),
            self.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (non-im2col) reference convolution for one sample.
    fn conv_ref(l: &Conv2d, params: &[f32], sample: &[f32]) -> Vec<f32> {
        let (w, b) = l.split(params);
        let (oh, ow, k) = (l.out_h(), l.out_w(), l.k);
        let hw = l.in_h * l.in_w;
        let mut out = vec![0.0f32; l.filters * oh * ow];
        for f in 0..l.filters {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b[f];
                    for c in 0..l.in_c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iv = sample[c * hw + (oy + ky) * l.in_w + (ox + kx)];
                                let wv = w[f * l.patch_len() + c * k * k + ky * k + kx];
                                acc += iv * wv;
                            }
                        }
                    }
                    out[f * oh * ow + oy * ow + ox] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn table_iii_parameter_counts() {
        // Conv1: 4 filters, 3x3, 1 channel → 4*9 + 4 = 40 params.
        let c1 = Conv2d::new(1, 28, 28, 4, 3);
        assert_eq!(c1.param_len(), 40);
        assert_eq!(c1.out_dim(), 4 * 26 * 26);
        // Conv2: 8 filters, 3x3 over 4 channels of 13x13 → 8*36 + 8 = 296.
        let c2 = Conv2d::new(4, 13, 13, 8, 3);
        assert_eq!(c2.param_len(), 296);
        assert_eq!(c2.out_dim(), 8 * 11 * 11);
    }

    #[test]
    fn forward_matches_direct_convolution() {
        let l = Conv2d::new(2, 6, 5, 3, 3);
        let mut rng = lsgd_tensor::SmallRng64::new(42);
        let params: Vec<f32> = (0..l.param_len()).map(|_| rng.next_f32() - 0.5).collect();
        let x = Matrix::from_fn(2, l.in_dim(), |_, _| rng.next_f32() - 0.5);
        let mut y = Matrix::zeros(2, l.out_dim());
        l.forward(
            &params,
            &x,
            &mut y,
            &mut LayerCache::default(),
            &mut StepCtx::default(),
        );
        for s in 0..2 {
            let want = conv_ref(&l, &params, x.row(s));
            for (a, b) in y.row(s).iter().zip(&want) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_packer_matches_materialized_im2col_panels() {
        use lsgd_tensor::gemm::NR;
        use lsgd_tensor::pack::pack_b;
        // Irregular geometry: 2 channels, non-square input, ow < NR so
        // panel rows straddle output-row boundaries.
        let l = Conv2d::new(2, 7, 6, 3, 3);
        let mut rng = lsgd_tensor::SmallRng64::new(9);
        let sample: Vec<f32> = (0..l.in_dim()).map(|_| rng.next_f32() - 0.5).collect();
        let (ohw, patch) = (l.out_h() * l.out_w(), l.patch_len());
        let mut cols = Matrix::zeros(ohw, patch);
        l.im2col(&sample, &mut cols);
        for (k0, j0, kc, nc) in [
            (0, 0, patch, ohw),
            (1, 0, patch - 1, ohw),
            (0, NR, 3, ohw - NR),
            (2, NR + 1, patch - 2, 5),
        ] {
            let len = nc.div_ceil(NR) * NR * kc;
            let mut want = vec![f32::NAN; len];
            pack_b(&mut want, cols.as_slice(), patch, true, k0, j0, kc, nc);
            let mut got = vec![f32::NAN; len];
            l.pack_patches(&sample, &mut got, k0, j0, kc, nc);
            assert_eq!(got, want, "block k0={k0} j0={j0} kc={kc} nc={nc}");
        }
    }

    /// Runtime-width invariance through the layer API: a fresh context on
    /// `Runtime::new(1)` is the reference; a 4-thread runtime, and a warm
    /// second step through the same context and cache, must match it bit
    /// for bit. The batch is big enough that the 4-thread run really
    /// splits the sample loop (`CONV_PAR_MIN_FLOPS`).
    #[test]
    fn runtime_widths_and_warm_steps_agree_bitwise() {
        use lsgd_runtime::Runtime;
        let l = Conv2d::new(2, 14, 13, 4, 3);
        let batch = 60;
        assert!(l.parallel_worthwhile(batch));
        let mut rng = lsgd_tensor::SmallRng64::new(11);
        let params: Vec<f32> = (0..l.param_len()).map(|_| rng.next_f32() - 0.5).collect();
        let x = Matrix::from_fn(batch, l.in_dim(), |_, _| rng.next_f32() - 0.5);
        let dy = Matrix::from_fn(batch, l.out_dim(), |_, _| rng.next_f32() - 0.5);

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let step = |ctx: &mut StepCtx, cache: &mut LayerCache| {
            ctx.panels.begin_step();
            let mut y = Matrix::zeros(batch, l.out_dim());
            l.forward(&params, &x, &mut y, cache, ctx);
            let mut dp = vec![0.0f32; l.param_len()];
            let mut dx = Matrix::zeros(batch, l.in_dim());
            l.backward(&params, &x, &y, &dy, cache, ctx, &mut dp, &mut dx);
            (bits(y.as_slice()), bits(&dp), bits(dx.as_slice()))
        };
        let ctx_on = |threads: usize| StepCtx {
            runtime: Runtime::new(threads).into(),
            ..StepCtx::default()
        };
        let (mut serial, mut serial_cache) = (ctx_on(1), LayerCache::default());
        let reference = step(&mut serial, &mut serial_cache);
        assert!(
            step(&mut serial, &mut serial_cache) == reference,
            "warm second step, 1 thread"
        );
        let (mut wide, mut wide_cache) = (ctx_on(4), LayerCache::default());
        assert!(step(&mut wide, &mut wide_cache) == reference, "cold step, 4 threads");
        assert!(step(&mut wide, &mut wide_cache) == reference, "warm second step, 4 threads");
    }

    #[test]
    fn identity_kernel_recovers_input_patch() {
        // Single 1x1 filter with weight 1, bias 0 → output == input.
        let l = Conv2d::new(1, 4, 4, 1, 1);
        let params = vec![1.0, 0.0];
        let x = Matrix::from_fn(1, 16, |_, c| c as f32);
        let mut y = Matrix::zeros(1, 16);
        l.forward(
            &params,
            &x,
            &mut y,
            &mut LayerCache::default(),
            &mut StepCtx::default(),
        );
        assert_eq!(x.as_slice(), y.as_slice());
    }

    #[test]
    fn bias_only_network_outputs_bias() {
        let l = Conv2d::new(1, 5, 5, 2, 3);
        let mut params = vec![0.0f32; l.param_len()];
        params[l.filters * l.patch_len()] = 1.5; // bias of filter 0
        params[l.filters * l.patch_len() + 1] = -2.5; // bias of filter 1
        let x = Matrix::zeros(1, 25);
        let mut y = Matrix::zeros(1, l.out_dim());
        l.forward(
            &params,
            &x,
            &mut y,
            &mut LayerCache::default(),
            &mut StepCtx::default(),
        );
        let ohw = 9;
        assert!(y.row(0)[..ohw].iter().all(|&v| v == 1.5));
        assert!(y.row(0)[ohw..].iter().all(|&v| v == -2.5));
    }

    #[test]
    fn backward_bias_gradient_sums_spatial_positions() {
        let l = Conv2d::new(1, 4, 4, 1, 3);
        let params = vec![0.0f32; l.param_len()];
        let x = Matrix::zeros(1, 16);
        let y = Matrix::zeros(1, 4);
        let dy = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let mut dp = vec![0.0f32; l.param_len()];
        let mut dx = Matrix::zeros(1, 16);
        l.backward(
            &params,
            &x,
            &y,
            &dy,
            &mut LayerCache::default(),
            &mut StepCtx::default(),
            &mut dp,
            &mut dx,
        );
        assert_eq!(dp[l.param_len() - 1], 10.0);
    }
}
