//! Packed, register-blocked general matrix multiplication.
//!
//! `gemm` computes `C = alpha * op(A) * op(B) + beta * C` where `op` is
//! identity or transpose, covering the four orientations backpropagation
//! needs (`X·Wᵀ`, `dYᵀ·X`, `dY·W`, …) without materialising transposed
//! copies.
//!
//! Entry points:
//!
//! * [`gemm`] over [`Matrix`] operands, and
//! * [`gemm_slices`] over raw `&[f32]` row-major buffers with explicit
//!   shapes — used by the neural-network layers, whose weight matrices are
//!   *sub-slices of the flat ParameterVector* (the paper's central data
//!   structure) and must be multiplied in place without copies;
//! * [`gemm_slices_parallel_in`] — the same contract, with the M (or, for
//!   wide outputs, N) panel loop split across a work-stealing
//!   [`Runtime`] (callers pass [`lsgd_runtime::global`] or an injected
//!   one). Small products fall back to the serial path so the paper's
//!   tiny CNN im2col GEMMs never pay dispatch overhead;
//! * [`gemm_flex`] / [`gemm_flex_parallel_in`] — either operand may be
//!   prepacked panels, or (for `B`) a custom block packer;
//! * [`gemm_naive`] / [`gemm_naive_slices`] — the previous blocked-loop
//!   kernel, retained as the differential-testing oracle and the
//!   benchmark baseline.
//!
//! # Kernel design (BLIS-style packed panels)
//!
//! The fast path is a three-level cache-blocked loop nest in the style of
//! Goto/BLIS (`jc → pc → ic` over `NC × KC × MC` blocks):
//!
//! 1. [`crate::pack::pack_b`] copies one `KC × NC` block of `op(B)` into a
//!    contiguous buffer of `NR`-column micro-panels (zero-padded at ragged
//!    edges);
//! 2. [`crate::pack::pack_a`] copies one `MC × KC` block of `op(A)` into
//!    `MR`-row micro-panels;
//! 3. the macro-kernel sweeps `MR × NR` tiles of `C`, each computed by a
//!    register-blocked micro-kernel that keeps the whole accumulator tile
//!    in registers for the full `KC` reduction — `C` traffic per tile is
//!    one read-modify-write instead of one per `k` step, and the `MR`/`NR`
//!    loads are contiguous by construction, so the compiler auto-vectorises
//!    the fused loop without explicit intrinsics.
//!
//! Because packing resolves the orientation up front, all four `(ta, tb)`
//! combinations — including `Aᵀ·B` and `Aᵀ·Bᵀ`, which previously ran
//! scalar fallbacks — funnel through this same micro-kernel; a transpose
//! costs one strided *pack* (amortised over panel reuse) rather than a
//! strided inner loop.
//!
//! Packing scratch lives in thread-local buffers sized to the block
//! limits, so steady-state calls do not allocate.

use crate::matrix::Matrix;
use crate::pack::{pack_a, pack_b};
use crate::panels::{PackedA, PackedB};
use lsgd_runtime::Runtime;
use std::cell::RefCell;

/// Whether an operand participates as itself or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

impl Transpose {
    /// True for [`Transpose::Yes`].
    #[inline]
    pub fn is_t(self) -> bool {
        matches!(self, Transpose::Yes)
    }
}

/// Micro-kernel tile rows: the register block holds `MR × NR` accumulators.
pub const MR: usize = 6;
/// Micro-kernel tile columns (kept a multiple of the 4-lane SSE width).
pub const NR: usize = 8;
/// Cache block over the reduction (k) dimension: one `MR × KC` A
/// micro-panel plus one `KC × NR` B micro-panel stay L1-resident.
pub const KC: usize = 256;
/// Cache block over the M dimension: the packed `MC × KC` A panel targets
/// L2. A multiple of `MR` so interior blocks carry no zero-padded rows.
pub const MC: usize = 72;
/// Cache block over the N dimension: the packed `KC × NC` B panel targets L2/L3.
pub const NC: usize = 256;

/// The serial jc-loop and the parallel N-split must place block starts at
/// the same positions modulo the AVX2 pair width (2·NR) or panel pairing
/// — and FMA rounding — would differ between them.
const _: () = assert!(NC % (2 * NR) == 0, "NC must be a multiple of 2*NR");
const _: () = assert!(MC % MR == 0, "MC must be a multiple of MR");

/// Minimum `2·m·n·k` flop count before [`gemm_slices_parallel_in`] fans out;
/// below this the dispatch overhead exceeds the win (the paper's CNN
/// im2col products sit well under it).
const PAR_MIN_FLOPS: usize = 1 << 21;

/// `C = alpha * op(A) * op(B) + beta * C` over raw row-major slices.
///
/// `a_shape`, `b_shape` are the *stored* shapes `(rows, cols)` of the
/// buffers (before `op` is applied); `c_shape` is the shape of `C`.
///
/// # Panics
/// Panics if any buffer length or the operand shapes are inconsistent.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slices(
    alpha: f32,
    a: &[f32],
    a_shape: (usize, usize),
    ta: Transpose,
    b: &[f32],
    b_shape: (usize, usize),
    tb: Transpose,
    beta: f32,
    c: &mut [f32],
    c_shape: (usize, usize),
) {
    let (m, n, k) = validate(a, a_shape, ta, b, b_shape, tb, c, c_shape);
    scale_c(beta, c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    if small_m_prefers_naive(m, tb) {
        return naive_dispatch(alpha, a, b, c, ta, tb, m, n, k);
    }
    let asrc = ASource::Slices { a, shape: a_shape, trans: ta };
    let bsrc = BSource::Slices { b, shape: b_shape, trans: tb };
    // SAFETY: `c` is the unique mutable borrow of the full `m × n` output
    // and this call covers the whole rectangle serially.
    unsafe {
        packed_rect(alpha, &asrc, &bsrc, CPtr(c.as_mut_ptr()), n, (0, m), (0, n), k);
    }
}

/// With only a handful of output rows and an untransposed `B`, the
/// packed kernel cannot amortise its `B`-panel copy (each packed element
/// is used `⌈m/MR⌉ ≈ 1` time) and pads `A` up to a full `MR` micro-panel,
/// while the naive `ikj`/rank-1 loops stream `B` straight from memory at
/// full vector width. The paper's per-sample CNN im2col products
/// (`4 × 9 × 676`) sit squarely in this regime.
///
/// Public so callers holding *prepacked* operands (which can only feed
/// the packed kernel) can apply the identical policy — falling back to a
/// fresh-operand [`gemm_slices`] call for shapes this predicate claims —
/// and thereby stay bitwise identical to the fresh-pack path on every
/// shape.
#[inline]
pub fn small_m_prefers_naive(m: usize, tb: Transpose) -> bool {
    !tb.is_t() && m < 8
}


/// Orientation dispatch into the retained naive kernels (post-validation,
/// post-`beta`).
#[allow(clippy::too_many_arguments)]
fn naive_dispatch(
    alpha: f32,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
) {
    match (ta.is_t(), tb.is_t()) {
        (false, false) => gemm_nn(alpha, a, b, c, m, n, k),
        (false, true) => gemm_nt(alpha, a, b, c, m, n, k),
        (true, false) => gemm_tn(alpha, a, b, c, m, n, k),
        (true, true) => gemm_tt(alpha, a, b, c, m, n, k),
    }
}

/// `C = alpha * op(A) * op(B) + beta * C` over [`Matrix`] operands.
///
/// # Panics
/// Panics if the shapes are inconsistent.
pub fn gemm(
    alpha: f32,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    beta: f32,
    c: &mut Matrix,
) {
    let a_shape = (a.rows(), a.cols());
    let b_shape = (b.rows(), b.cols());
    let c_shape = (c.rows(), c.cols());
    gemm_slices(
        alpha,
        a.as_slice(),
        a_shape,
        ta,
        b.as_slice(),
        b_shape,
        tb,
        beta,
        c.as_mut_slice(),
        c_shape,
    );
}

/// Convenience wrapper allocating the output: `op(A) * op(B)`.
pub fn matmul(a: &Matrix, ta: Transpose, b: &Matrix, tb: Transpose) -> Matrix {
    let m = if ta.is_t() { a.cols() } else { a.rows() };
    let n = if tb.is_t() { b.rows() } else { b.cols() };
    let mut c = Matrix::zeros(m, n);
    gemm(1.0, a, ta, b, tb, 0.0, &mut c);
    c
}

// ---------------------------------------------------------------------------
// Parallel entry points
// ---------------------------------------------------------------------------

/// [`gemm_slices`] with the panel loop split across `pool`.
///
/// Falls back to the serial kernel when the pool has a single thread or
/// the product is too small to amortise dispatch (see `PAR_MIN_FLOPS`).
/// Results are bitwise identical to the serial kernel: threads partition
/// `C` disjointly and each partition runs the same blocked loop.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slices_parallel_in(
    pool: &Runtime,
    alpha: f32,
    a: &[f32],
    a_shape: (usize, usize),
    ta: Transpose,
    b: &[f32],
    b_shape: (usize, usize),
    tb: Transpose,
    beta: f32,
    c: &mut [f32],
    c_shape: (usize, usize),
) {
    let (m, n, k) = validate(a, a_shape, ta, b, b_shape, tb, c, c_shape);
    scale_c(beta, c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    if small_m_prefers_naive(m, tb) {
        // Same fast path as the serial entry point: keeps parallel and
        // serial results bitwise identical for every shape.
        return naive_dispatch(alpha, a, b, c, ta, tb, m, n, k);
    }
    let asrc = ASource::Slices { a, shape: a_shape, trans: ta };
    let bsrc = BSource::Slices { b, shape: b_shape, trans: tb };
    let cp = CPtr(c.as_mut_ptr());
    let threads = pool.threads();
    if threads <= 1 || 2 * m * n * k < PAR_MIN_FLOPS {
        // SAFETY: unique borrow of C, whole rectangle, serial.
        unsafe {
            packed_rect(alpha, &asrc, &bsrc, cp, n, (0, m), (0, n), k);
        }
        return;
    }

    // Partition C into disjoint rectangles: by M-panels when there are
    // enough rows to feed every thread a micro-panel multiple, otherwise
    // (short-and-wide outputs) by N-panels.
    let (split_rows, chunk, ntasks) = if m >= threads * MR {
        let chunk = m.div_ceil(threads).next_multiple_of(MR);
        (true, chunk, m.div_ceil(chunk))
    } else if n >= threads * NR {
        // Column chunks are aligned to the *paired* panel width (2·NR),
        // not NR: the AVX2 macro-kernel consumes B panels in pairs
        // starting from each block's first panel, so only 2·NR-aligned
        // block starts keep the pair grouping — and therefore the FMA
        // rounding of every element — identical to the serial kernel's
        // NC-aligned blocks (NC is a multiple of 2·NR by const assert).
        let chunk = n.div_ceil(threads).next_multiple_of(2 * NR);
        (false, chunk, n.div_ceil(chunk))
    } else {
        (true, m, 1)
    };
    pool.parallel_for(ntasks, &|t| {
        let (rows, cols) = if split_rows {
            ((t * chunk, ((t + 1) * chunk).min(m)), (0, n))
        } else {
            ((0, m), (t * chunk, ((t + 1) * chunk).min(n)))
        };
        // SAFETY: tasks cover pairwise-disjoint rectangles of C (distinct
        // `t` ⇒ distinct row or column ranges), and `parallel_for` joins
        // every task before returning, so the `&mut c` borrow outlives
        // all writes through `cp`.
        unsafe {
            packed_rect(alpha, &asrc, &bsrc, cp, n, rows, cols, k);
        }
    });
}

// ---------------------------------------------------------------------------
// Flexible-source entry points (prepacked panels / fused custom packing)
// ---------------------------------------------------------------------------

/// Where the `A` operand of a [`gemm_flex`] call comes from.
pub enum ASource<'a> {
    /// A row-major slice packed fresh per cache block (the classic path).
    Slices {
        /// Stored row-major buffer.
        a: &'a [f32],
        /// Stored `(rows, cols)` before `op` is applied.
        shape: (usize, usize),
        /// Orientation.
        trans: Transpose,
    },
    /// Panels prepacked once (e.g. a weight matrix reused across every
    /// GEMM of an SGD step — see [`crate::panels`]). Skips `pack_a`.
    Prepacked(&'a PackedA),
}

impl ASource<'_> {
    /// Logical `(m, k)` after `op`.
    fn dims(&self) -> (usize, usize) {
        match self {
            ASource::Slices { a, shape, trans } => {
                assert_eq!(a.len(), shape.0 * shape.1, "gemm_flex: A buffer length");
                if trans.is_t() {
                    (shape.1, shape.0)
                } else {
                    *shape
                }
            }
            ASource::Prepacked(pa) => pa.dims(),
        }
    }
}

/// A caller-supplied block packer: `pack(dst, k0, j0, kc, nc)` fills
/// `dst` with the panel-layout block `[k0..k0+kc) x [j0..j0+nc)` of the
/// logical operand (see [`BSource::Packer`]).
pub type BlockPacker<'a> = dyn Fn(&mut [f32], usize, usize, usize, usize) + Sync + 'a;

/// Where the `B` operand of a [`gemm_flex`] call comes from.
pub enum BSource<'a> {
    /// A row-major slice packed fresh per cache block (the classic path).
    Slices {
        /// Stored row-major buffer.
        b: &'a [f32],
        /// Stored `(rows, cols)` before `op` is applied.
        shape: (usize, usize),
        /// Orientation.
        trans: Transpose,
    },
    /// Panels prepacked once per SGD step (see [`crate::panels`]).
    Prepacked(&'a PackedB),
    /// A custom block packer, for operands that are cheaper to *generate*
    /// in panel layout than to materialise and re-pack — the conv layer's
    /// fused im2col lowering. `pack(dst, k0, j0, kc, nc)` must fill `dst`
    /// with exactly what [`crate::pack::pack_b`] would produce for that
    /// block of the logical `k × n` operand (zero-padded `NR`-column
    /// micro-panels), so results stay bitwise identical to materialising
    /// the operand and calling [`gemm_slices`].
    Packer {
        /// Block packer: `(dst, k0, j0, kc, nc)`.
        pack: &'a BlockPacker<'a>,
        /// Logical `(k, n)` of the operand.
        shape: (usize, usize),
    },
}

impl BSource<'_> {
    /// Logical `(k, n)` after `op`.
    fn dims(&self) -> (usize, usize) {
        match self {
            BSource::Slices { b, shape, trans } => {
                assert_eq!(b.len(), shape.0 * shape.1, "gemm_flex: B buffer length");
                if trans.is_t() {
                    (shape.1, shape.0)
                } else {
                    *shape
                }
            }
            BSource::Prepacked(pb) => pb.dims(),
            BSource::Packer { shape, .. } => *shape,
        }
    }
}

/// `C = alpha * op(A) * op(B) + beta * C` where either operand may be a
/// plain slice, a prepacked panel set, or (for `B`) a custom block
/// packer. Always runs the packed kernel; results are bitwise identical
/// to [`gemm_slices`] whenever that call would take the packed path
/// (callers holding prepacked operands should consult
/// [`small_m_prefers_naive`] and fall back to [`gemm_slices`] for shapes
/// it claims, as the nn layers do).
///
/// # Panics
/// Panics on shape/buffer-length inconsistencies.
pub fn gemm_flex(
    alpha: f32,
    a: &ASource<'_>,
    b: &BSource<'_>,
    beta: f32,
    c: &mut [f32],
    c_shape: (usize, usize),
) {
    let (m, n, k) = validate_flex(a, b, c, c_shape);
    scale_c(beta, c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    // SAFETY: unique mutable borrow of the whole `m × n` output, serial.
    unsafe {
        packed_rect(alpha, a, b, CPtr(c.as_mut_ptr()), n, (0, m), (0, n), k);
    }
}

/// [`gemm_flex`] with the M-panel loop split across `pool`.
///
/// Unlike [`gemm_slices_parallel_in`] this splits **rows only** (each task
/// sweeps the full `jc`/`pc` block loops from column 0), because
/// prepacked `B` blocks exist only at `NC`-aligned starts; row chunks are
/// `MC`-aligned so prepacked `A` blocks line up too. Serial and parallel
/// results are bitwise identical for the same reason as
/// [`gemm_slices_parallel_in`]: tasks own disjoint row bands of `C` and run
/// the identical blocked loop over them.
pub fn gemm_flex_parallel_in(
    pool: &Runtime,
    alpha: f32,
    a: &ASource<'_>,
    b: &BSource<'_>,
    beta: f32,
    c: &mut [f32],
    c_shape: (usize, usize),
) {
    let (m, n, k) = validate_flex(a, b, c, c_shape);
    scale_c(beta, c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    let threads = pool.threads();
    let cp = CPtr(c.as_mut_ptr());
    if threads <= 1 || 2 * m * n * k < PAR_MIN_FLOPS || m < 2 * MC {
        // SAFETY: unique borrow of C, whole rectangle, serial.
        unsafe {
            packed_rect(alpha, a, b, cp, n, (0, m), (0, n), k);
        }
        return;
    }
    // MC-aligned row chunks keep every task's `ic` block starts at the
    // positions prepacked A blocks live at (multiples of MC from zero).
    let chunk = m.div_ceil(threads).next_multiple_of(MC);
    let ntasks = m.div_ceil(chunk);
    pool.parallel_for(ntasks, &|t| {
        let rows = (t * chunk, ((t + 1) * chunk).min(m));
        // SAFETY: tasks cover pairwise-disjoint row bands of C, and
        // `parallel_for` joins every task before returning, so the
        // `&mut c` borrow outlives all writes through `cp`.
        unsafe {
            packed_rect(alpha, a, b, cp, n, rows, (0, n), k);
        }
    });
}

/// Shape validation for the flexible-source entry points.
fn validate_flex(
    a: &ASource<'_>,
    b: &BSource<'_>,
    c: &[f32],
    c_shape: (usize, usize),
) -> (usize, usize, usize) {
    let (m, k) = a.dims();
    let (kb, n) = b.dims();
    assert_eq!(k, kb, "gemm_flex: inner dimensions disagree ({k} vs {kb})");
    assert_eq!(c.len(), c_shape.0 * c_shape.1, "gemm_flex: C buffer length");
    assert_eq!(c_shape, (m, n), "gemm_flex: C shape");
    (m, n, k)
}

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

/// Checks buffer lengths and operand shapes; returns the logical `(m, n, k)`.
#[allow(clippy::too_many_arguments)]
fn validate(
    a: &[f32],
    a_shape: (usize, usize),
    ta: Transpose,
    b: &[f32],
    b_shape: (usize, usize),
    tb: Transpose,
    c: &[f32],
    c_shape: (usize, usize),
) -> (usize, usize, usize) {
    assert_eq!(a.len(), a_shape.0 * a_shape.1, "gemm: A buffer length");
    assert_eq!(b.len(), b_shape.0 * b_shape.1, "gemm: B buffer length");
    assert_eq!(c.len(), c_shape.0 * c_shape.1, "gemm: C buffer length");
    let (m, k) = if ta.is_t() {
        (a_shape.1, a_shape.0)
    } else {
        a_shape
    };
    let (kb, n) = if tb.is_t() {
        (b_shape.1, b_shape.0)
    } else {
        b_shape
    };
    assert_eq!(k, kb, "gemm: inner dimensions disagree ({k} vs {kb})");
    assert_eq!(c_shape, (m, n), "gemm: C shape");
    (m, n, k)
}

/// Applies the `beta * C` term. `beta == 0` overwrites (so pre-existing
/// NaN/Inf in `C` cannot propagate), `beta == 1` is a no-op.
fn scale_c(beta: f32, c: &mut [f32]) {
    if beta != 1.0 {
        if beta == 0.0 {
            c.iter_mut().for_each(|v| *v = 0.0);
        } else {
            c.iter_mut().for_each(|v| *v *= beta);
        }
    }
}

/// Raw pointer to `C` that may cross a thread boundary.
///
/// Each parallel task owns a disjoint rectangle of `C`; sending the base
/// pointer (rather than overlapping `&mut` slices) keeps the aliasing
/// model honest. All dereferences happen in [`packed_rect`] under
/// its documented disjointness contract.
#[derive(Clone, Copy)]
struct CPtr(*mut f32);
unsafe impl Send for CPtr {}
unsafe impl Sync for CPtr {}

thread_local! {
    /// Per-thread packing scratch (`A` panel, `B` panel), grown on demand
    /// and reused across calls so steady-state GEMMs never allocate.
    static PACK_SCRATCH: RefCell<(Vec<f32>, Vec<f32>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The three-level blocked loop nest over any operand sources. Block
/// geometry is *identical* regardless of source — prepacked operands
/// store blocks at exactly the `(MC, KC, NC)`-aligned starts this loop
/// visits, and custom packers fill the same `pack_b` panel layout — so
/// every source combination feeds the macro-kernel the same bytes in the
/// same order and results are bitwise identical across them.
///
/// # Safety
/// `cp` must point to a live `.. × c_cols` row-major buffer covering the
/// rectangle `rows × cols`, and no other thread may read or write that
/// rectangle for the duration of the call. Additionally, prepacked
/// operands require their aligned block starts: `rows.0 % MC == 0` when
/// `A` is prepacked, `cols.0 % NC == 0` when `B` is (upheld by the
/// public entry points, which row-split at `MC` multiples and never
/// column-split non-slice sources).
#[allow(clippy::too_many_arguments)]
unsafe fn packed_rect(
    alpha: f32,
    a: &ASource<'_>,
    b: &BSource<'_>,
    cp: CPtr,
    c_cols: usize,
    rows: (usize, usize),
    cols: (usize, usize),
    k: usize,
) {
    let (i_lo, i_hi) = rows;
    let (j_lo, j_hi) = cols;
    if i_lo >= i_hi || j_lo >= j_hi {
        return;
    }
    PACK_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let (ref mut abuf, ref mut bbuf) = *scratch;
        let kc_max = KC.min(k);
        let mc_max = MC.min(i_hi - i_lo).div_ceil(MR) * MR;
        let nc_max = NC.min(j_hi - j_lo).div_ceil(NR) * NR;
        abuf.resize(mc_max * kc_max, 0.0);
        bbuf.resize(nc_max * kc_max, 0.0);

        for jc in (j_lo..j_hi).step_by(NC) {
            let nc = NC.min(j_hi - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let bpanel: &[f32] = match b {
                    BSource::Slices { b, shape, trans } => {
                        pack_b(bbuf, b, shape.1, trans.is_t(), pc, jc, kc, nc);
                        bbuf
                    }
                    BSource::Prepacked(pb) => pb.block(pc, jc),
                    BSource::Packer { pack, .. } => {
                        pack(&mut bbuf[..nc.div_ceil(NR) * NR * kc], pc, jc, kc, nc);
                        bbuf
                    }
                };
                for ic in (i_lo..i_hi).step_by(MC) {
                    let mc = MC.min(i_hi - ic);
                    let apanel: &[f32] = match a {
                        ASource::Slices { a, shape, trans } => {
                            pack_a(abuf, a, shape.1, trans.is_t(), ic, pc, mc, kc);
                            abuf
                        }
                        ASource::Prepacked(pa) => pa.block(ic, pc),
                    };
                    macro_kernel(alpha, apanel, bpanel, mc, nc, kc, cp, c_cols, ic, jc);
                }
            }
        }
    });
}

/// Sweeps `MR × NR` tiles of one `mc × nc` block of `C`, invoking the
/// micro-kernel on packed panels and clipping zero-padded edges on
/// write-back.
///
/// Safety: see [`packed_rect`] — `cp` covers the block exclusively.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    alpha: f32,
    packed_a: &[f32],
    packed_b: &[f32],
    mc: usize,
    nc: usize,
    kc: usize,
    cp: CPtr,
    c_cols: usize,
    i0: usize,
    j0: usize,
) {
    let npanels = nc.div_ceil(NR);
    let wide = cpu_has_avx2_fma();
    let mut jp = 0;
    while jp < npanels {
        // When the host has AVX2+FMA, consume B micro-panels in pairs so
        // the tile is MR × 2·NR across 256-bit registers; the pairing
        // changes only which register an element lands in, never its
        // per-k accumulation order, so results stay identical across
        // kernels up to the FMA contraction.
        let pair = wide && jp + 2 <= npanels;
        let width = if pair { 2 * NR } else { NR };
        let cols = width.min(nc - jp * NR);
        for ip in 0..mc.div_ceil(MR) {
            let pa = &packed_a[ip * MR * kc..(ip + 1) * MR * kc];
            let rows = MR.min(mc - ip * MR);
            let (ci, cj) = (i0 + ip * MR, j0 + jp * NR);
            if pair {
                let pb0 = &packed_b[jp * NR * kc..(jp + 1) * NR * kc];
                let pb1 = &packed_b[(jp + 1) * NR * kc..(jp + 2) * NR * kc];
                let mut acc = [[0.0f32; 2 * NR]; MR];
                // SAFETY: `cpu_has_avx2_fma()` verified the features.
                #[cfg(target_arch = "x86_64")]
                unsafe {
                    microkernel_avx2(kc, pa, pb0, pb1, &mut acc)
                };
                write_tile(alpha, &acc[..rows], cp, c_cols, ci, cj, cols);
            } else {
                let pb = &packed_b[jp * NR * kc..(jp + 1) * NR * kc];
                let mut acc = [[0.0f32; NR]; MR];
                microkernel_portable(kc, pa, pb, &mut acc);
                write_tile(alpha, &acc[..rows], cp, c_cols, ci, cj, cols);
            }
        }
        jp += if pair { 2 } else { 1 };
    }
}

/// `C[ci..ci+rows][cj..cj+cols] += alpha * acc`, clipping the tile's
/// zero-padded edge columns.
///
/// Safety of the raw write: the rows/columns addressed lie inside the
/// rectangle this thread exclusively owns (contract of
/// [`packed_rect`]).
#[inline(always)]
fn write_tile<const W: usize>(
    alpha: f32,
    acc: &[[f32; W]],
    cp: CPtr,
    c_cols: usize,
    ci: usize,
    cj: usize,
    cols: usize,
) {
    for (r, arow) in acc.iter().enumerate() {
        // SAFETY: see function docs.
        let crow =
            unsafe { std::slice::from_raw_parts_mut(cp.0.add((ci + r) * c_cols + cj), cols) };
        for (dst, &v) in crow.iter_mut().zip(arow.iter()) {
            *dst += alpha * v;
        }
    }
}

/// Whether the host supports the 256-bit FMA micro-kernel (checked once).
#[inline]
fn cpu_has_avx2_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX2_FMA: OnceLock<bool> = OnceLock::new();
        *AVX2_FMA.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// 256-bit micro-kernel: an `MR × 2·NR` tile over a *pair* of packed B
/// panels, one FMA per accumulator register per `k` step. Only reached
/// after [`cpu_has_avx2_fma`] returns true.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_avx2(
    kc: usize,
    pa: &[f32],
    pb0: &[f32],
    pb1: &[f32],
    acc: &mut [[f32; 2 * NR]; MR],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(NR, 8, "kernel assumes one __m256 per packed B panel row");
    let mut vacc = [[_mm256_setzero_ps(); 2]; MR];
    for k in 0..kc {
        let b0 = _mm256_loadu_ps(pb0.as_ptr().add(k * NR));
        let b1 = _mm256_loadu_ps(pb1.as_ptr().add(k * NR));
        for (r, vrow) in vacc.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*pa.as_ptr().add(k * MR + r));
            vrow[0] = _mm256_fmadd_ps(a, b0, vrow[0]);
            vrow[1] = _mm256_fmadd_ps(a, b1, vrow[1]);
        }
    }
    for (r, vrow) in vacc.iter().enumerate() {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), vrow[0]);
        _mm256_storeu_ps(acc[r].as_mut_ptr().add(NR), vrow[1]);
    }
}

/// Register-blocked `MR × NR` micro-kernel over packed panels.
///
/// `pa` holds `kc` steps of `MR` contiguous A values, `pb` holds `kc`
/// steps of `NR` contiguous B values; the accumulator tile stays in
/// registers for the whole reduction. The iterator shape (exact chunks,
/// fixed-size inner loops) is what lets the compiler keep `acc` in vector
/// registers and emit SIMD without intrinsics.
#[inline(always)]
fn microkernel_portable(kc: usize, pa: &[f32], pb: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (ach, bch) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)).take(kc) {
        let bvals: &[f32; NR] = bch.try_into().unwrap();
        for (r, arow) in acc.iter_mut().enumerate() {
            let ar = ach[r];
            for (dst, &bv) in arow.iter_mut().zip(bvals.iter()) {
                *dst += ar * bv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Retained baseline kernel (differential oracle + bench baseline)
// ---------------------------------------------------------------------------

/// The pre-packing blocked kernel over raw slices: cache-blocked `ikj`
/// loops for the `No/No` orientation, dot/axpy loops for the transposed
/// ones (scalar for `tt`). Kept verbatim as the differential-testing
/// oracle and the `gemm` bench baseline; new code should call
/// [`gemm_slices`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_naive_slices(
    alpha: f32,
    a: &[f32],
    a_shape: (usize, usize),
    ta: Transpose,
    b: &[f32],
    b_shape: (usize, usize),
    tb: Transpose,
    beta: f32,
    c: &mut [f32],
    c_shape: (usize, usize),
) {
    let (m, n, k) = validate(a, a_shape, ta, b, b_shape, tb, c, c_shape);
    scale_c(beta, c);
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }
    naive_dispatch(alpha, a, b, c, ta, tb, m, n, k);
}

/// [`gemm_naive_slices`] over [`Matrix`] operands.
pub fn gemm_naive(
    alpha: f32,
    a: &Matrix,
    ta: Transpose,
    b: &Matrix,
    tb: Transpose,
    beta: f32,
    c: &mut Matrix,
) {
    let a_shape = (a.rows(), a.cols());
    let b_shape = (b.rows(), b.cols());
    let c_shape = (c.rows(), c.cols());
    gemm_naive_slices(
        alpha,
        a.as_slice(),
        a_shape,
        ta,
        b.as_slice(),
        b_shape,
        tb,
        beta,
        c.as_mut_slice(),
        c_shape,
    );
}

#[inline]
fn row(buf: &[f32], r: usize, cols: usize) -> &[f32] {
    &buf[r * cols..(r + 1) * cols]
}

#[inline]
fn row_mut(buf: &mut [f32], r: usize, cols: usize) -> &mut [f32] {
    &mut buf[r * cols..(r + 1) * cols]
}

/// C += alpha * A * B — A is m×k, B is k×n. ikj loop, blocked.
///
/// For `m ≤ MR` (the small-m regime this kernel is kept for — per-sample
/// conv products like `dW = dY·cols`), the loop nest is swapped to
/// `k`-outer so each B row is loaded once and streamed to all `m` output
/// rows, instead of `m` full passes over B. Each `C[i][j]` still
/// accumulates its `k` terms in ascending-`k` order, so the result is
/// **bitwise identical** to the blocked `ikj` order — only memory
/// traffic changes (~1.5× faster on the CNN's `dW` products).
fn gemm_nn(alpha: f32, a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    if m <= MR {
        for kk in 0..k {
            let brow = row(b, kk, n);
            for i in 0..m {
                let aik = alpha * a[i * k + kk];
                if aik == 0.0 {
                    continue;
                }
                axpy_inner(aik, brow, row_mut(c, i, n));
            }
        }
        return;
    }
    for i0 in (0..m).step_by(MC) {
        let i1 = (i0 + MC).min(m);
        for k0 in (0..k).step_by(KC) {
            let k1 = (k0 + KC).min(k);
            for i in i0..i1 {
                let arow = &row(a, i, k)[k0..k1];
                let crow = row_mut(c, i, n);
                for (kk, &aik) in arow.iter().enumerate() {
                    let aik = alpha * aik;
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = row(b, k0 + kk, n);
                    axpy_inner(aik, brow, crow);
                }
            }
        }
    }
}

/// C += alpha * A * Bᵀ — A is m×k, B is n×k (C[i][j] = A-row i · B-row j).
fn gemm_nt(alpha: f32, a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    for i in 0..m {
        let arow = row(a, i, k);
        let crow = row_mut(c, i, n);
        for (j, cij) in crow.iter_mut().enumerate().take(n) {
            let brow = row(b, j, k);
            *cij += alpha * dot_inner(arow, brow);
        }
    }
}

/// C += alpha * Aᵀ * B — A is k×m, B is k×n. Accumulate rank-1 updates row by row.
fn gemm_tn(alpha: f32, a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    for kk in 0..k {
        let arow = row(a, kk, m);
        let brow = row(b, kk, n);
        for (i, &aik) in arow.iter().enumerate().take(m) {
            let aik = alpha * aik;
            if aik == 0.0 {
                continue;
            }
            let crow = row_mut(c, i, n);
            axpy_inner(aik, brow, crow);
        }
    }
}

/// C += alpha * Aᵀ * Bᵀ — A is k×m, B is n×k. Rare orientation; explicit indexing.
fn gemm_tt(alpha: f32, a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            let brow = row(b, j, k);
            for (kk, &bjk) in brow.iter().enumerate() {
                acc += a[kk * m + i] * bjk;
            }
            c[i * n + j] += alpha * acc;
        }
    }
}

/// y += a * x over equal-length slices; shaped for auto-vectorisation.
///
/// Lengths must match: a mismatch here means an upstream shape bug, and
/// silently truncating (as this once did) would turn it into quietly
/// wrong gradients instead of a loud test failure.
#[inline]
fn axpy_inner(a: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len(), "axpy_inner: slice lengths differ");
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &mut y[..n]);
    for i in 0..n {
        y[i] += a * x[i];
    }
}

/// Dot product over equal-length slices with 4-way unrolling for ILP.
///
/// Lengths must match — see [`axpy_inner`] on why truncation is a bug.
#[inline]
fn dot_inner(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len(), "dot_inner: slice lengths differ");
    let n = x.len().min(y.len());
    let (x, y) = (&x[..n], &y[..n]);
    let mut acc = [0.0f32; 4];
    let chunks = n / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = 0.0f32;
    for i in chunks * 4..n {
        tail += x[i] * y[i];
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: naive triple loop with explicit transposes.
    fn gemm_ref(
        alpha: f32,
        a: &Matrix,
        ta: Transpose,
        b: &Matrix,
        tb: Transpose,
        beta: f32,
        c: &Matrix,
    ) -> Matrix {
        let at = |i: usize, k: usize| {
            if ta.is_t() {
                a.get(k, i)
            } else {
                a.get(i, k)
            }
        };
        let bt = |k: usize, j: usize| {
            if tb.is_t() {
                b.get(j, k)
            } else {
                b.get(k, j)
            }
        };
        let (m, k) = if ta.is_t() {
            (a.cols(), a.rows())
        } else {
            (a.rows(), a.cols())
        };
        let n = if tb.is_t() { b.rows() } else { b.cols() };
        Matrix::from_fn(m, n, |i, j| {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += at(i, kk) * bt(kk, j);
            }
            alpha * acc + beta * c.get(i, j)
        })
    }

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = crate::rng::SmallRng64::new(seed);
        Matrix::from_fn(rows, cols, |_, _| s.next_f32() * 2.0 - 1.0)
    }

    fn check_all_orientations(m: usize, n: usize, k: usize, seed: u64) {
        for (ta, ar, ac) in [(Transpose::No, m, k), (Transpose::Yes, k, m)] {
            for (tb, br, bc) in [(Transpose::No, k, n), (Transpose::Yes, n, k)] {
                let a = rand_mat(ar, ac, seed);
                let b = rand_mat(br, bc, seed + 1);
                let c0 = rand_mat(m, n, seed + 2);
                let expected = gemm_ref(0.7, &a, ta, &b, tb, 0.3, &c0);
                for kernel in [gemm, gemm_naive] {
                    let mut c = c0.clone();
                    kernel(0.7, &a, ta, &b, tb, 0.3, &mut c);
                    let err = c.max_abs_diff(&expected);
                    assert!(
                        err < 1e-3 * (k as f32).max(1.0),
                        "orientation ({ta:?},{tb:?}) m={m} n={n} k={k}: err {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn small_square() {
        check_all_orientations(4, 4, 4, 11);
    }

    #[test]
    fn rectangular_shapes() {
        check_all_orientations(3, 7, 5, 22);
        check_all_orientations(7, 3, 5, 33);
        check_all_orientations(1, 9, 2, 44);
    }

    #[test]
    fn shapes_crossing_block_boundaries() {
        check_all_orientations(65, 17, 260, 55);
        check_all_orientations(130, 5, 257, 66);
    }

    #[test]
    fn shapes_straddling_microtile_boundaries() {
        for (m, n, k) in [
            (MR - 1, NR + 1, 3),
            (MR + 1, NR - 1, KC + 1),
            (MC + MR - 1, NC + NR - 1, 7),
        ] {
            check_all_orientations(m, n, k, 77);
        }
    }

    #[test]
    fn degenerate_dimensions() {
        // k = 0 leaves beta*C.
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let mut c = Matrix::from_vec(2, 3, vec![1.0; 6]);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);
        assert!(c.as_slice().iter().all(|&v| (v - 0.5).abs() < 1e-7));
    }

    #[test]
    fn alpha_zero_scales_c_only() {
        let a = rand_mat(3, 3, 1);
        let b = rand_mat(3, 3, 2);
        let mut c = Matrix::from_vec(3, 3, vec![2.0; 9]);
        gemm(0.0, &a, Transpose::No, &b, Transpose::No, 2.0, &mut c);
        assert!(c.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn beta_zero_overwrites_nan_and_inf() {
        let a = rand_mat(3, 4, 5);
        let b = rand_mat(4, 2, 6);
        let expected = matmul(&a, Transpose::No, &b, Transpose::No);
        let mut c = Matrix::from_vec(3, 2, vec![f32::NAN, f32::INFINITY, -1.0, f32::NAN, 0.0, 9.0]);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
        assert!(c.as_slice().iter().all(|v| v.is_finite()));
        assert!(c.max_abs_diff(&expected) < 1e-5);
    }

    #[test]
    fn identity_multiplication() {
        let n = 9;
        let eye = Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 });
        let x = rand_mat(n, n, 7);
        let got = matmul(&eye, Transpose::No, &x, Transpose::No);
        assert!(got.max_abs_diff(&x) < 1e-6);
        let got = matmul(&x, Transpose::No, &eye, Transpose::No);
        assert!(got.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn matmul_shapes() {
        let a = rand_mat(2, 5, 3);
        let b = rand_mat(5, 4, 4);
        let c = matmul(&a, Transpose::No, &b, Transpose::No);
        assert_eq!((c.rows(), c.cols()), (2, 4));
        let c = matmul(&a, Transpose::Yes, &a, Transpose::No);
        assert_eq!((c.rows(), c.cols()), (5, 5));
    }

    #[test]
    fn transpose_equivalence_against_materialized() {
        // op(A)=Aᵀ must equal multiplying by the materialised transpose.
        let a = rand_mat(6, 4, 9);
        let b = rand_mat(6, 5, 10);
        let fast = matmul(&a, Transpose::Yes, &b, Transpose::No);
        let slow = matmul(&a.transposed(), Transpose::No, &b, Transpose::No);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn slice_api_matches_matrix_api() {
        let a = rand_mat(5, 6, 20);
        let b = rand_mat(6, 4, 21);
        let mut c1 = Matrix::zeros(5, 4);
        gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c1);
        let mut c2 = vec![0.0f32; 20];
        gemm_slices(
            1.0,
            a.as_slice(),
            (5, 6),
            Transpose::No,
            b.as_slice(),
            (6, 4),
            Transpose::No,
            0.0,
            &mut c2,
            (5, 4),
        );
        assert_eq!(c1.as_slice(), &c2[..]);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // Parallel partitioning must not change the reduction order, so
        // results are bitwise equal, not merely close. The shape list
        // covers both sub-threshold serial fallbacks AND products big
        // enough to actually fan out (2·m·n·k ≥ 2²¹), in both split
        // directions: (256, 256, 64) row-splits, (16, 160, 512) and
        // (12, 2048, 50) have too few rows for 4 threads and N-split —
        // the arm where AVX2 panel pairing must stay chunk-invariant.
        let pool = Runtime::new(4);
        for (m, n, k) in [
            (70, 33, 129),
            (257, 64, 40),
            (3, 300, 80),
            (256, 256, 64),
            (16, 160, 512),
            (12, 2048, 50),
        ] {
            let a = rand_mat(m, k, 91);
            let b = rand_mat(k, n, 92);
            let mut c1 = Matrix::zeros(m, n);
            gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c1);
            let mut c2 = Matrix::zeros(m, n);
            gemm_slices_parallel_in(
                &pool,
                1.0,
                a.as_slice(),
                (m, k),
                Transpose::No,
                b.as_slice(),
                (k, n),
                Transpose::No,
                0.0,
                c2.as_mut_slice(),
                (m, n),
            );
            assert_eq!(c1.as_slice(), c2.as_slice(), "m={m} n={n} k={k}");
        }
    }

    #[test]
    #[should_panic]
    fn slice_api_rejects_bad_buffer_length() {
        let mut c = vec![0.0f32; 4];
        gemm_slices(
            1.0,
            &[1.0; 5],
            (2, 3),
            Transpose::No,
            &[1.0; 6],
            (3, 2),
            Transpose::No,
            0.0,
            &mut c,
            (2, 2),
        );
    }
}
