//! The layer abstraction: forward/backward over flat parameter slices.
//!
//! A [`Layer`] owns no parameters — only shape information. Parameters are
//! passed in as a `&[f32]` slice of the global flat parameter vector and
//! gradients are written to the matching slice of a flat gradient buffer.
//! This is the interface the paper's ParameterVector refactor of MiniDNN
//! introduces: it is what lets the parallel SGD algorithms treat the model
//! as one shared object with bulk read/update operations.
//!
//! Every forward/backward call additionally receives the [`Runtime`] that
//! intra-step splits run on. Layers are free to ignore it (activations,
//! pooling); the GEMM-heavy layers use it to fan products and per-sample
//! work out across the runtime's `parallel_for`.

use lsgd_runtime::Runtime;
use lsgd_tensor::{Matrix, PackedA, PackedB};
use rand::rngs::StdRng;

/// Per-layer, per-thread scratch space reused across iterations.
///
/// Layers that need to remember forward-pass state for their backward pass
/// (max-pool argmax indices) or want allocation-free per-step scratch (the
/// conv layer's per-sample weight-gradient slab, packed weight operands)
/// store it here instead of in the layer itself, keeping layers immutable
/// and shareable across the `m` asynchronous workers.
#[derive(Default)]
pub struct LayerCache {
    /// Flat argmax indices recorded by max-pool forward (one per output
    /// element), consumed by its backward scatter.
    pub argmax: Vec<u32>,
    /// Per-sample `(dW_s | db_s)` slab for the conv backward pass: sample
    /// `s` occupies `[s * param_len, (s + 1) * param_len)`. Samples are
    /// computed independently (possibly in parallel) and then reduced in
    /// ascending sample order, which keeps the summation association —
    /// and therefore every gradient bit — identical to a serial sweep.
    pub grad_slab: Vec<f32>,
    /// The conv layer's filters packed as the `A` operand of its forward
    /// product; repacked on every forward call.
    pub packed_a: PackedA,
    /// A weight operand packed as `B`: a dense layer's `Wᵀ` (forward) and
    /// then `W` (backward `dX`), the conv layer's filters (backward
    /// `dcols`). Every use repacks it first, so it never holds panels of
    /// an earlier parameter version.
    pub packed_b: PackedB,
}

/// A neural-network layer operating on minibatches.
///
/// Batch convention: activations are row-major [`Matrix`] of shape
/// `(batch, dim)`; multi-channel feature maps are flattened NCHW per row.
pub trait Layer: Send + Sync {
    /// Short human-readable name (for `describe` tables).
    fn name(&self) -> &'static str;

    /// Flattened input dimension per sample.
    fn in_dim(&self) -> usize;

    /// Flattened output dimension per sample.
    fn out_dim(&self) -> usize;

    /// Number of learnable parameters this layer consumes from the flat
    /// parameter vector (0 for activations / pooling).
    fn param_len(&self) -> usize;

    /// Initialises this layer's parameter slice. The paper uses
    /// `N(0, 0.01)` for all parameters (Algorithm 1, `rand_init`).
    fn init_params(&self, params: &mut [f32], rng: &mut StdRng) {
        lsgd_tensor::rng::fill_normal(rng, params, 0.0, 0.01);
    }

    /// Forward pass: reads `input` `(batch, in_dim)`, writes **every**
    /// element of `output` `(batch, out_dim)` (already correctly shaped
    /// by the caller, contents unspecified on entry).
    fn forward(
        &self,
        params: &[f32],
        input: &Matrix,
        output: &mut Matrix,
        cache: &mut LayerCache,
        rt: &Runtime,
    );

    /// Backward pass.
    ///
    /// * `grad_out` — `dL/d output`, shape `(batch, out_dim)`.
    /// * `grad_params` — `dL/d params` written (not accumulated) here.
    /// * `grad_in` — `dL/d input`: **every** element written, shape
    ///   `(batch, in_dim)` (contents unspecified on entry).
    ///
    /// `input`/`output` are the activations recorded by the forward pass.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        params: &[f32],
        input: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
        cache: &mut LayerCache,
        rt: &Runtime,
        grad_params: &mut [f32],
        grad_in: &mut Matrix,
    );

    /// One-line architecture description, e.g. `Dense 784 -> 128`.
    fn describe(&self) -> String {
        format!("{} {} -> {}", self.name(), self.in_dim(), self.out_dim())
    }
}

/// Raw base pointer to a row-major matrix whose **disjoint rows** are
/// written concurrently by per-sample tasks.
///
/// Sending one base pointer (rather than overlapping `&mut` row slices)
/// keeps the aliasing model honest, mirroring the GEMM kernel's `CPtr`.
/// All dereferences go through [`RowsPtr::row`] under its contract.
#[derive(Clone, Copy)]
pub(crate) struct RowsPtr {
    ptr: *mut f32,
    stride: usize,
}

// SAFETY: the pointer is only dereferenced through `RowsPtr::row`, whose
// contract gives every task a disjoint row range of a buffer that
// outlives the joined tasks.
unsafe impl Send for RowsPtr {}
// SAFETY: as for `Send`: tasks sharing one `RowsPtr` write disjoint rows.
unsafe impl Sync for RowsPtr {}

impl RowsPtr {
    /// Wraps a matrix; `stride` is its column count.
    pub(crate) fn of(m: &mut Matrix) -> Self {
        RowsPtr {
            ptr: m.as_mut_slice().as_mut_ptr(),
            stride: m.cols(),
        }
    }

    /// Wraps a flat slab of `stride`-length consecutive records.
    pub(crate) fn of_slab(buf: &mut [f32], stride: usize) -> Self {
        debug_assert!(stride == 0 || buf.len() % stride == 0);
        RowsPtr {
            ptr: buf.as_mut_ptr(),
            stride,
        }
    }

    /// Mutable view of row `r`.
    ///
    /// # Safety
    /// `r` must be in bounds for the wrapped buffer, the underlying
    /// `&mut` borrow must outlive all uses (callers join their tasks
    /// before returning), and no two live references to the same row may
    /// exist — upheld by giving each task a disjoint row range.
    #[inline]
    #[allow(clippy::mut_from_ref)] // disjoint-row aliasing is the caller's contract, per above
    pub(crate) unsafe fn row(&self, r: usize) -> &mut [f32] {
        std::slice::from_raw_parts_mut(self.ptr.add(r * self.stride), self.stride)
    }
}
