//! Weight operands packed in full, ahead of the GEMM calls that read them.
//!
//! The packed kernel in [`crate::gemm`](mod@crate::gemm) copies one cache block of each
//! operand into micro-kernel-shaped panels *per call*. A conv layer's
//! filter matrix is the same operand for every per-sample product of
//! the minibatch, so the layer packs it once per pass and serves all of
//! those products from the one packing. A dense layer packs `Wᵀ` for the
//! forward product and `W` for the backward `dX` product: two different
//! orientations, each read by exactly one call.
//!
//! [`PackedA`] / [`PackedB`] hold a matrix packed **in full** (all
//! `MC×KC` / `KC×NC` cache blocks, in exactly the geometry the blocked
//! loop nest consumes), so a GEMM can skip `pack_a`/`pack_b` entirely.
//! Each layer keeps one of each in its per-worker `LayerCache` and
//! repacks it in place (reusing the allocation) every time it packs, so
//! a packing never outlives the parameter version it was made from and
//! the steady state allocates nothing. Every pack opens a
//! `Phase::Pack` trace span.
//!
//! Packed contents are produced by the same [`crate::pack`] routines the
//! fresh-pack path uses, and consumed by the same macro/micro-kernels, so
//! results are **bitwise identical** to a fresh-pack [`crate::gemm::gemm`]
//! call (asserted by `tests/prepacked_differential.rs`).

use crate::gemm::{Transpose, KC, MC, MR, NC, NR};
use crate::pack::{pack_a, pack_b};

/// A full `op(A)` operand packed as `MR`-row micro-panels, one entry per
/// `(ic, pc)` cache block of the blocked loop nest.
#[derive(Debug, Default)]
pub struct PackedA {
    buf: Vec<f32>,
    /// Logical operand rows `m` (after `op` is applied).
    m: usize,
    /// Logical operand columns `k`.
    k: usize,
    /// Block start offsets, `ic`-major: `offsets[ic_idx * n_pc + pc_idx]`.
    offsets: Vec<usize>,
    n_pc: usize,
}

impl PackedA {
    /// Packs the whole of `op(A)` (stored row-major `a_shape`, orientation
    /// `ta`), reusing this value's allocations.
    pub fn pack(&mut self, a: &[f32], a_shape: (usize, usize), ta: Transpose) {
        let _span = lsgd_trace::span(lsgd_trace::Phase::Pack);
        assert_eq!(a.len(), a_shape.0 * a_shape.1, "PackedA: buffer length");
        let (m, k) = if ta.is_t() {
            (a_shape.1, a_shape.0)
        } else {
            a_shape
        };
        self.m = m;
        self.k = k;
        self.n_pc = k.div_ceil(KC).max(1);
        self.offsets.clear();
        self.buf.clear();
        let mut off = 0usize;
        for ic in (0..m.max(1)).step_by(MC) {
            let mc = MC.min(m - ic.min(m));
            for pc in (0..k.max(1)).step_by(KC) {
                let kc = KC.min(k - pc.min(k));
                self.offsets.push(off);
                off += mc.div_ceil(MR) * MR * kc;
            }
        }
        self.buf.resize(off, 0.0);
        if m == 0 || k == 0 {
            return;
        }
        let mut idx = 0usize;
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let start = self.offsets[idx];
                let len = mc.div_ceil(MR) * MR * kc;
                pack_a(
                    &mut self.buf[start..start + len],
                    a,
                    a_shape.1,
                    ta.is_t(),
                    ic,
                    pc,
                    mc,
                    kc,
                );
                idx += 1;
            }
        }
    }

    /// Logical `(m, k)` of the packed operand.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.m, self.k)
    }

    /// The packed block starting at logical `(ic, pc)`; both must be the
    /// block-aligned starts the loop nest produces (multiples of `MC`/`KC`
    /// from zero).
    #[inline]
    pub(crate) fn block(&self, ic: usize, pc: usize) -> &[f32] {
        debug_assert_eq!(ic % MC, 0, "PackedA: unaligned ic");
        debug_assert_eq!(pc % KC, 0, "PackedA: unaligned pc");
        let idx = (ic / MC) * self.n_pc + pc / KC;
        let start = self.offsets[idx];
        let end = self
            .offsets
            .get(idx + 1)
            .copied()
            .unwrap_or(self.buf.len());
        &self.buf[start..end]
    }
}

/// A full `op(B)` operand packed as `NR`-column micro-panels, one entry
/// per `(jc, pc)` cache block of the blocked loop nest.
#[derive(Debug, Default)]
pub struct PackedB {
    buf: Vec<f32>,
    /// Logical operand rows `k`.
    k: usize,
    /// Logical operand columns `n`.
    n: usize,
    /// Block start offsets, `jc`-major: `offsets[jc_idx * n_pc + pc_idx]`.
    offsets: Vec<usize>,
    n_pc: usize,
}

impl PackedB {
    /// Packs the whole of `op(B)` (stored row-major `b_shape`, orientation
    /// `tb`), reusing this value's allocations.
    pub fn pack(&mut self, b: &[f32], b_shape: (usize, usize), tb: Transpose) {
        let _span = lsgd_trace::span(lsgd_trace::Phase::Pack);
        assert_eq!(b.len(), b_shape.0 * b_shape.1, "PackedB: buffer length");
        let (k, n) = if tb.is_t() {
            (b_shape.1, b_shape.0)
        } else {
            b_shape
        };
        self.k = k;
        self.n = n;
        self.n_pc = k.div_ceil(KC).max(1);
        self.offsets.clear();
        self.buf.clear();
        let mut off = 0usize;
        for jc in (0..n.max(1)).step_by(NC) {
            let nc = NC.min(n - jc.min(n));
            for pc in (0..k.max(1)).step_by(KC) {
                let kc = KC.min(k - pc.min(k));
                self.offsets.push(off);
                off += nc.div_ceil(NR) * NR * kc;
            }
        }
        self.buf.resize(off, 0.0);
        if k == 0 || n == 0 {
            return;
        }
        let mut idx = 0usize;
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let start = self.offsets[idx];
                let len = nc.div_ceil(NR) * NR * kc;
                pack_b(
                    &mut self.buf[start..start + len],
                    b,
                    b_shape.1,
                    tb.is_t(),
                    pc,
                    jc,
                    kc,
                    nc,
                );
                idx += 1;
            }
        }
    }

    /// Logical `(k, n)` of the packed operand.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// The packed block starting at logical `(pc, jc)`; both must be the
    /// block-aligned starts the loop nest produces (multiples of `KC`/`NC`
    /// from zero).
    #[inline]
    pub(crate) fn block(&self, pc: usize, jc: usize) -> &[f32] {
        debug_assert_eq!(jc % NC, 0, "PackedB: unaligned jc");
        debug_assert_eq!(pc % KC, 0, "PackedB: unaligned pc");
        let idx = (jc / NC) * self.n_pc + pc / KC;
        let start = self.offsets[idx];
        let end = self
            .offsets
            .get(idx + 1)
            .copied()
            .unwrap_or(self.buf.len());
        &self.buf[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 * 0.25 - 3.0).collect()
    }

    /// Prepacked blocks must byte-match a fresh `pack_a`/`pack_b` of the
    /// same block — the property the whole bitwise-identity argument
    /// rests on.
    #[test]
    fn packed_blocks_match_fresh_packing() {
        // Large enough to produce multiple MC/KC/NC blocks.
        let (rows, cols) = (2 * MC + 5, KC + 7);
        let a = seq(rows * cols);
        for ta in [Transpose::No, Transpose::Yes] {
            let (m, k) = if ta.is_t() { (cols, rows) } else { (rows, cols) };
            let mut pa = PackedA::default();
            pa.pack(&a, (rows, cols), ta);
            assert_eq!(pa.dims(), (m, k));
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    let mut fresh = vec![f32::NAN; mc.div_ceil(MR) * MR * kc];
                    pack_a(&mut fresh, &a, cols, ta.is_t(), ic, pc, mc, kc);
                    assert_eq!(pa.block(ic, pc), &fresh[..], "A ic={ic} pc={pc}");
                }
            }
        }
        let (rows, cols) = (KC + 3, NC + NR + 1);
        let b = seq(rows * cols);
        for tb in [Transpose::No, Transpose::Yes] {
            let (k, n) = if tb.is_t() { (cols, rows) } else { (rows, cols) };
            let mut pb = PackedB::default();
            pb.pack(&b, (rows, cols), tb);
            assert_eq!(pb.dims(), (k, n));
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for pc in (0..k).step_by(KC) {
                    let kc = KC.min(k - pc);
                    let mut fresh = vec![f32::NAN; nc.div_ceil(NR) * NR * kc];
                    pack_b(&mut fresh, &b, cols, tb.is_t(), pc, jc, kc, nc);
                    assert_eq!(pb.block(pc, jc), &fresh[..], "B jc={jc} pc={pc}");
                }
            }
        }
    }

    #[test]
    fn degenerate_dims_pack_empty() {
        let mut pa = PackedA::default();
        pa.pack(&[], (0, 5), Transpose::No);
        assert_eq!(pa.dims(), (0, 5));
        let mut pb = PackedB::default();
        pb.pack(&[], (3, 0), Transpose::No);
        assert_eq!(pb.dims(), (3, 0));
    }
}
