//! Panel packing for the blocked GEMM kernel.
//!
//! The packed kernel in [`crate::gemm`](mod@crate::gemm) never walks the original operand
//! buffers in its inner loop. Instead it copies one cache-block of `op(A)`
//! and `op(B)` at a time into contiguous, micro-kernel-shaped buffers:
//!
//! * [`pack_a`] lays an `mc × kc` block of `op(A)` out as `⌈mc/MR⌉`
//!   *micro-panels*. Micro-panel `p` stores rows `p*MR .. p*MR+MR` in
//!   k-major order: for each `k`, the `MR` values `op(A)[i][k]` are
//!   adjacent. The micro-kernel thus loads one contiguous `MR`-vector of
//!   `A` per `k` step.
//! * [`pack_b`] lays a `kc × nc` block of `op(B)` out as `⌈nc/NR⌉`
//!   micro-panels storing, for each `k`, the `NR` contiguous values
//!   `op(B)[k][j]`.
//!
//! Ragged edges (when `mc % MR != 0` or `nc % NR != 0`) are **zero-padded**
//! so the micro-kernel is always a full `MR × NR` tile; the macro-kernel
//! clips the zero rows/columns when writing back to `C`. Because the
//! orientation (`Transpose`) is resolved *here*, all four `(ta, tb)`
//! combinations reach the identical micro-kernel — transposition costs one
//! strided read during packing (amortised over the `mc`/`nc` reuse of the
//! packed panel) instead of a strided inner loop.

use crate::gemm::{MR, NR};

/// Packs the `mc × kc` block of `op(A)` starting at logical row `i0`,
/// logical column `k0` into `packed` as zero-padded `MR`-row micro-panels.
///
/// `a` is the *stored* row-major buffer with `a_cols` columns; `ta`
/// selects whether the logical operand is `A` or `Aᵀ`. `packed` must hold
/// at least `mc.div_ceil(MR) * MR * kc` elements.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn pack_a(
    packed: &mut [f32],
    a: &[f32],
    a_cols: usize,
    ta: bool,
    i0: usize,
    k0: usize,
    mc: usize,
    kc: usize,
) {
    let panels = mc.div_ceil(MR);
    debug_assert!(packed.len() >= panels * MR * kc);
    for p in 0..panels {
        let ib = i0 + p * MR;
        let rows = MR.min(i0 + mc - ib);
        let dst = &mut packed[p * MR * kc..(p + 1) * MR * kc];
        if ta {
            // op(A)[i][k] = a[k * a_cols + i]: each k step is one
            // contiguous run of `rows` elements of the stored buffer.
            for (k, chunk) in dst.chunks_exact_mut(MR).enumerate().take(kc) {
                let src = &a[(k0 + k) * a_cols + ib..][..rows];
                chunk[..rows].copy_from_slice(src);
                chunk[rows..].iter_mut().for_each(|v| *v = 0.0);
            }
        } else {
            // op(A)[i][k] = a[i * a_cols + k]: gather `rows` strided
            // values per k step (the only strided access in the kernel).
            for (k, chunk) in dst.chunks_exact_mut(MR).enumerate().take(kc) {
                for (r, slot) in chunk.iter_mut().enumerate() {
                    *slot = if r < rows {
                        a[(ib + r) * a_cols + (k0 + k)]
                    } else {
                        0.0
                    };
                }
            }
        }
    }
}

/// Packs the `kc × nc` block of `op(B)` starting at logical row `k0`,
/// logical column `j0` into `packed` as zero-padded `NR`-column
/// micro-panels.
///
/// `b` is the *stored* row-major buffer with `b_cols` columns; `tb`
/// selects whether the logical operand is `B` or `Bᵀ`. `packed` must hold
/// at least `nc.div_ceil(NR) * NR * kc` elements.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn pack_b(
    packed: &mut [f32],
    b: &[f32],
    b_cols: usize,
    tb: bool,
    k0: usize,
    j0: usize,
    kc: usize,
    nc: usize,
) {
    let panels = nc.div_ceil(NR);
    debug_assert!(packed.len() >= panels * NR * kc);
    for p in 0..panels {
        let jb = j0 + p * NR;
        let cols = NR.min(j0 + nc - jb);
        let dst = &mut packed[p * NR * kc..(p + 1) * NR * kc];
        if tb {
            // op(B)[k][j] = b[j * b_cols + k]: strided gather per k step.
            for (k, chunk) in dst.chunks_exact_mut(NR).enumerate().take(kc) {
                for (c, slot) in chunk.iter_mut().enumerate() {
                    *slot = if c < cols {
                        b[(jb + c) * b_cols + (k0 + k)]
                    } else {
                        0.0
                    };
                }
            }
        } else {
            // op(B)[k][j] = b[k * b_cols + j]: contiguous copy per k step.
            for (k, chunk) in dst.chunks_exact_mut(NR).enumerate().take(kc) {
                let src = &b[(k0 + k) * b_cols + jb..][..cols];
                chunk[..cols].copy_from_slice(src);
                chunk[cols..].iter_mut().for_each(|v| *v = 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Logical element of op(M) for a stored row-major buffer.
    fn op_at(m: &[f32], cols: usize, t: bool, r: usize, c: usize) -> f32 {
        if t {
            m[c * cols + r]
        } else {
            m[r * cols + c]
        }
    }

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32 + 1.0).collect()
    }

    #[test]
    fn pack_a_both_orientations_match_logical_layout() {
        // Stored 7x5; as op(A) either 7x5 (No) or 5x7 (Yes).
        let a = seq(35);
        for (ta, lr, lc) in [(false, 7usize, 5usize), (true, 5, 7)] {
            for (i0, k0, mc, kc) in [(0, 0, lr, lc), (1, 2, lr - 2, lc - 2), (0, 0, 3, 2)] {
                let stored_cols = 5;
                let panels = mc.div_ceil(MR);
                let mut packed = vec![f32::NAN; panels * MR * kc];
                pack_a(&mut packed, &a, stored_cols, ta, i0, k0, mc, kc);
                for p in 0..panels {
                    for k in 0..kc {
                        for r in 0..MR {
                            let got = packed[p * MR * kc + k * MR + r];
                            let i = p * MR + r;
                            let want = if i < mc {
                                op_at(&a, stored_cols, ta, i0 + i, k0 + k)
                            } else {
                                0.0
                            };
                            assert_eq!(got, want, "ta={ta} p={p} k={k} r={r}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pack_b_both_orientations_match_logical_layout() {
        let b = seq(54); // stored 6x9
        for (tb, lr, lc) in [(false, 6usize, 9usize), (true, 9, 6)] {
            for (k0, j0, kc, nc) in [(0, 0, lr, lc), (1, 1, lr - 1, lc - 1), (0, 2, 2, 3)] {
                let stored_cols = 9;
                let panels = nc.div_ceil(NR);
                let mut packed = vec![f32::NAN; panels * NR * kc];
                pack_b(&mut packed, &b, stored_cols, tb, k0, j0, kc, nc);
                for p in 0..panels {
                    for k in 0..kc {
                        for c in 0..NR {
                            let got = packed[p * NR * kc + k * NR + c];
                            let j = p * NR + c;
                            let want = if j < nc {
                                op_at(&b, stored_cols, tb, k0 + k, j0 + j)
                            } else {
                                0.0
                            };
                            assert_eq!(got, want, "tb={tb} p={p} k={k} c={c}");
                        }
                    }
                }
            }
        }
    }
}
