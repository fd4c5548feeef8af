//! Prepacked weight panels reused across GEMM calls within one SGD step.
//!
//! The packed kernel in [`crate::gemm`](mod@crate::gemm) copies one cache block of each
//! operand into micro-kernel-shaped panels *per call*. For the
//! neural-network hot path that is wasteful in a very specific way: the
//! weight operand of a layer is **identical for every GEMM the layer
//! issues during one SGD step** — every per-sample conv product in the
//! minibatch reuses the same filter matrix, and the forward (`X·Wᵀ`) and
//! backward (`dY·W`) products of a dense layer reuse the same `W` (in two
//! different pack orientations). Re-packing it each call re-pays the
//! strided gather that packing exists to amortise.
//!
//! This module provides the missing reuse layer:
//!
//! * [`PackedA`] / [`PackedB`] — a weight matrix packed **in full** (all
//!   `MC×KC` / `KC×NC` cache blocks, in exactly the geometry the blocked
//!   loop nest consumes), so a GEMM can skip `pack_a`/`pack_b` entirely;
//! * [`PackedPanelCache`] — a small per-worker cache of such packings,
//!   keyed by `(buffer pointer, length, stored shape, orientation)` and an
//!   **epoch** stamp. [`PackedPanelCache::begin_step`] bumps the epoch;
//!   entries from a previous epoch are repacked in place (reusing their
//!   allocation) on next access. The epoch is what makes the cheap
//!   pointer key sound: workers that gather parameters into a *stable*
//!   local buffer (HOGWILD!, lock-based, sharded) overwrite the same
//!   allocation every iteration, so the pointer alone cannot detect a new
//!   parameter version — but within one `begin_step` span (one forward +
//!   backward sweep over a single `θ`) the contents cannot change.
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

/// Identity of a packable operand: which buffer, which stored shape,
/// which orientation. Cheap to compute and compare in the per-call hot
/// path; sound only *within one epoch* (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PanelKey {
    ptr: usize,
    len: usize,
    rows: usize,
    cols: usize,
    trans: bool,
}

impl PanelKey {
    #[inline]
    fn of(buf: &[f32], shape: (usize, usize), t: Transpose) -> Self {
        PanelKey {
            ptr: buf.as_ptr() as usize,
            len: buf.len(),
            rows: shape.0,
            cols: shape.1,
            trans: t.is_t(),
        }
    }
}

/// Per-worker cache of fully prepacked weight operands, valid for one
/// SGD step at a time (see module docs for the invalidation model).
///
/// Slots are never evicted: the population is bounded by the number of
/// distinct (layer, orientation) weight operands in the network —
/// a handful — and each slot's buffers are reused across steps, so the
/// steady-state hot path performs **zero allocation**.
#[derive(Debug, Default)]
pub struct PackedPanelCache {
    epoch: u64,
    a_slots: Vec<(PanelKey, u64, PackedA)>,
    b_slots: Vec<(PanelKey, u64, PackedB)>,
    hits: u64,
    misses: u64,
}

impl PackedPanelCache {
    /// An empty cache at epoch zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new SGD step: every cached packing becomes stale and will
    /// be repacked (in place) on its next access. Call this exactly once
    /// per parameter version — e.g. at the top of each forward pass.
    #[inline]
    pub fn begin_step(&mut self) {
        self.epoch += 1;
    }

    /// Current epoch (diagnostics/tests).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `(hits, misses)` counters over `get_a`/`get_b` calls (tests and
    /// diagnostics; a miss is any access that had to pack).
    #[inline]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// The prepacked `op(A)` panels for `a`, packing (or repacking a
    /// stale/mismatched slot in place) on miss.
    pub fn get_a(&mut self, a: &[f32], a_shape: (usize, usize), ta: Transpose) -> &PackedA {
        let key = PanelKey::of(a, a_shape, ta);
        let idx = self.a_slots.iter().position(|(k, _, _)| *k == key);
        let idx = match idx {
            Some(i) => {
                if self.a_slots[i].1 != self.epoch {
                    let _span = lsgd_trace::span(lsgd_trace::Phase::Pack);
                    self.a_slots[i].2.pack(a, a_shape, ta);
                    self.a_slots[i].1 = self.epoch;
                    self.misses += 1;
                } else {
                    self.hits += 1;
                }
                i
            }
            None => {
                let _span = lsgd_trace::span(lsgd_trace::Phase::Pack);
                let mut packed = PackedA::default();
                packed.pack(a, a_shape, ta);
                self.a_slots.push((key, self.epoch, packed));
                self.misses += 1;
                self.a_slots.len() - 1
            }
        };
        &self.a_slots[idx].2
    }

    /// The prepacked `op(B)` panels for `b`, packing (or repacking a
    /// stale/mismatched slot in place) on miss.
    pub fn get_b(&mut self, b: &[f32], b_shape: (usize, usize), tb: Transpose) -> &PackedB {
        let key = PanelKey::of(b, b_shape, tb);
        let idx = self.b_slots.iter().position(|(k, _, _)| *k == key);
        let idx = match idx {
            Some(i) => {
                if self.b_slots[i].1 != self.epoch {
                    let _span = lsgd_trace::span(lsgd_trace::Phase::Pack);
                    self.b_slots[i].2.pack(b, b_shape, tb);
                    self.b_slots[i].1 = self.epoch;
                    self.misses += 1;
                } else {
                    self.hits += 1;
                }
                i
            }
            None => {
                let _span = lsgd_trace::span(lsgd_trace::Phase::Pack);
                let mut packed = PackedB::default();
                packed.pack(b, b_shape, tb);
                self.b_slots.push((key, self.epoch, packed));
                self.misses += 1;
                self.b_slots.len() - 1
            }
        };
        &self.b_slots[idx].2
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
    fn cache_hits_within_epoch_and_repacks_after_begin_step() {
        let mut cache = PackedPanelCache::new();
        let mut w = seq(40 * 30);
        let pb_buf_before = {
            let pb = cache.get_b(&w, (40, 30), Transpose::Yes);
            pb.dims()
        };
        assert_eq!(pb_buf_before, (30, 40));
        assert_eq!(cache.stats(), (0, 1));
        // Same key, same epoch: hit, no repack.
        cache.get_b(&w, (40, 30), Transpose::Yes);
        assert_eq!(cache.stats(), (1, 1));
        // Mutate the buffer in place (same pointer — the stable-local-copy
        // worker pattern). Without begin_step the cache serves stale data
        // by design; begin_step must force a repack that sees new values.
        let probe = {
            let pb = cache.get_b(&w, (40, 30), Transpose::Yes);
            pb.block(0, 0)[0]
        };
        w[0] += 100.0; // logical op(B)[0][0] for tb=Yes is w[0]
        cache.begin_step();
        let pb = cache.get_b(&w, (40, 30), Transpose::Yes);
        assert_eq!(pb.block(0, 0)[0], probe + 100.0, "stale panels survived");
        assert_eq!(cache.stats(), (2, 2));
        // One slot only: the repack reused the existing entry.
        assert_eq!(cache.b_slots.len(), 1);
    }

    #[test]
    fn distinct_operands_get_distinct_slots() {
        let mut cache = PackedPanelCache::new();
        let w1 = seq(12 * 8);
        let w2 = seq(12 * 8);
        cache.get_b(&w1, (12, 8), Transpose::No);
        cache.get_b(&w2, (12, 8), Transpose::No);
        cache.get_b(&w1, (12, 8), Transpose::Yes); // same buffer, other orientation
        cache.get_a(&w1, (12, 8), Transpose::No);
        assert_eq!(cache.b_slots.len(), 3);
        assert_eq!(cache.a_slots.len(), 1);
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
