//! Differential property suite for the prepacked-panel GEMM paths.
//!
//! The zero-realloc gradient hot path rests on one claim: serving a GEMM
//! from panels packed *earlier* (a layer's [`PackedB`] slot packed once
//! per call, or a custom fused packer generating panels on the fly)
//! changes **nothing** about the computation — the macro/micro-kernels
//! consume the same bytes in the same order, so results are bitwise
//! identical to a fresh-pack `gemm_flex` call over slice operands
//! wherever that call takes the packed kernel. This suite pits every
//! flexible source combination against the fresh-pack kernel across the
//! same adversarial shape pool as `gemm_differential.rs`, including:
//!
//! * prepacked `B` (the dense layers' `W` orientations), serial and
//!   pool-parallel, served from a used slot: packed first in the other
//!   orientation, then repacked after the backing buffer was mutated
//!   **in place** (the copy-on-read worker pattern: same pointer, new
//!   contents), and compared against a fresh pack — or, for the short
//!   products where slice operands take the naive kernel (dense `dX` at
//!   batch < 8), against `gemm_naive_slices` within tolerance;
//! * prepacked `A` (the conv layer's filter matrix);
//! * a custom `B` packer that mimics the conv layer's fused im2col by
//!   delegating to `pack_b` over a materialised operand.

use lsgd_tensor::gemm::{
    gemm_flex, gemm_naive_slices, ASource, BSource, Transpose, KC, MC, MR, NC, NR,
};
use lsgd_tensor::pack::pack_b;
use lsgd_tensor::panels::{PackedA, PackedB};

use lsgd_tensor::SmallRng64;
use proptest::prelude::*;
use lsgd_runtime::Runtime;
use std::sync::OnceLock;

/// Shared injected 4-thread runtime so the parallel path is exercised
/// regardless of the host's core count (CI runners are often single-core).
fn pool() -> &'static Runtime {
    static RT: OnceLock<Runtime> = OnceLock::new();
    RT.get_or_init(|| Runtime::new(4))
}

fn dim(pool: &'static [usize]) -> impl Strategy<Value = usize> {
    (0..pool.len()).prop_map(move |i| pool[i])
}

const M_POOL: &[usize] = &[1, 2, MR, MR + 1, MC - 1, MC, MC + 1, 2 * MC + 5, 70];
const N_POOL: &[usize] = &[1, 2, NR, NR + 1, NC - 1, NC, NC + 1, 33];
const K_POOL: &[usize] = &[1, 2, 7, KC - 1, KC, KC + 1, 300];

fn fill(rng: &mut SmallRng64, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

fn bits_eq(x: &[f32], y: &[f32]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Prepacked-B GEMM (serial and parallel, from a used slot repacked
    /// with new contents) is bitwise identical to fresh-pack slice
    /// operands for both B orientations wherever those take the packed
    /// kernel, and matches the naive kernel within tolerance where they
    /// do not (`m < 8` with `tb = No`).
    #[test]
    fn prepacked_b_matches_fresh_pack_bitwise(
        m in dim(M_POOL),
        n in dim(N_POOL),
        k in dim(K_POOL),
        tbi in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let tb = [Transpose::No, Transpose::Yes][tbi];
        let b_shape = if tb.is_t() { (n, k) } else { (k, n) };
        let mut rng = SmallRng64::new(seed);
        let a = fill(&mut rng, m * k);
        let mut b = fill(&mut rng, b_shape.0 * b_shape.1);
        let c0 = fill(&mut rng, m * n);

        // Use the slot first for the *other* orientation of a previous
        // parameter version, then mutate the buffer in place and repack:
        // the slot must hold exactly the new operand.
        let other = [Transpose::Yes, Transpose::No][tbi];
        let mut pb = PackedB::default();
        pb.pack(&b, b_shape, other);
        for v in &mut b {
            *v = -*v + 0.125;
        }
        pb.pack(&b, b_shape, tb);
        prop_assert_eq!(pb.dims(), (k, n));

        let asrc = ASource::Slices { a: &a, shape: (m, k), trans: Transpose::No };
        let mut c_pre = c0.clone();
        gemm_flex(None, 1.0, &asrc, &BSource::Prepacked(&pb), 0.5, &mut c_pre, (m, n));
        if m >= 8 || tb.is_t() {
            let mut c_fresh = c0.clone();
            let bsrc = BSource::Slices { b: &b, shape: b_shape, trans: tb };
            gemm_flex(None, 1.0, &asrc, &bsrc, 0.5, &mut c_fresh, (m, n));
            prop_assert!(bits_eq(&c_pre, &c_fresh), "serial prepacked-B diverged (m={m} n={n} k={k} tb={tb:?})");
        } else {
            let mut c_naive = c0.clone();
            gemm_naive_slices(
                1.0, &a, (m, k), Transpose::No, &b, b_shape, tb, 0.5, &mut c_naive, (m, n),
            );
            // gemm_differential's reassociation tolerance.
            let tol = 1e-5 * (k as f32 + 1.0) + 1e-6;
            prop_assert!(
                c_pre.iter().zip(&c_naive).all(|(x, y)| (x - y).abs() <= tol),
                "serial prepacked-B vs naive (m={m} n={n} k={k} tb={tb:?})"
            );
        }

        let mut c_par = c0.clone();
        gemm_flex(Some(pool()), 1.0, &asrc, &BSource::Prepacked(&pb), 0.5, &mut c_par, (m, n));
        prop_assert!(bits_eq(&c_par, &c_pre), "parallel prepacked-B diverged (m={m} n={n} k={k} tb={tb:?})");
    }

    /// Prepacked-A GEMM (the conv forward's packed filter matrix, both
    /// orientations) is bitwise identical to fresh-pack slice operands,
    /// serial and row-parallel.
    #[test]
    fn prepacked_a_matches_fresh_pack_bitwise(
        m in dim(M_POOL),
        n in dim(N_POOL),
        k in dim(K_POOL),
        tai in 0usize..2,
        seed in 0u64..10_000,
    ) {
        let ta = [Transpose::No, Transpose::Yes][tai];
        let a_shape = if ta.is_t() { (k, m) } else { (m, k) };
        let mut rng = SmallRng64::new(seed);
        let a = fill(&mut rng, a_shape.0 * a_shape.1);
        let b = fill(&mut rng, n * k); // stored n×k, used transposed
        let c0 = fill(&mut rng, m * n);

        // tb=Yes keeps fresh-pack slice operands on the packed kernel for
        // every m (the conv-forward shape class: tiny m, B transposed).
        let asrc = ASource::Slices { a: &a, shape: a_shape, trans: ta };
        let bsrc = BSource::Slices { b: &b, shape: (n, k), trans: Transpose::Yes };
        let mut c_fresh = c0.clone();
        gemm_flex(None, 1.0, &asrc, &bsrc, 0.0, &mut c_fresh, (m, n));

        let mut pa = PackedA::default();
        pa.pack(&a, a_shape, ta);
        let mut c_pre = c0.clone();
        gemm_flex(None, 1.0, &ASource::Prepacked(&pa), &bsrc, 0.0, &mut c_pre, (m, n));
        prop_assert!(bits_eq(&c_pre, &c_fresh), "serial prepacked-A diverged (m={m} n={n} k={k} ta={ta:?})");

        let mut c_par = c0.clone();
        gemm_flex(Some(pool()), 1.0, &ASource::Prepacked(&pa), &bsrc, 0.0, &mut c_par, (m, n));
        prop_assert!(bits_eq(&c_par, &c_fresh), "parallel prepacked-A diverged (m={m} n={n} k={k} ta={ta:?})");
    }

    /// A custom B packer producing `pack_b`-layout blocks yields results
    /// bitwise identical to materialising the operand — the contract the
    /// conv layer's fused im2col lowering relies on.
    #[test]
    fn custom_packer_matches_materialized_operand(
        m in dim(M_POOL),
        n in dim(N_POOL),
        k in dim(K_POOL),
        seed in 0u64..10_000,
    ) {
        // m >= 8 keeps the materialised slice operands on the packed
        // kernel (a packer always runs it).
        let m = m.max(8);
        let mut rng = SmallRng64::new(seed);
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n); // the "materialised" operand, k×n
        let c0 = fill(&mut rng, m * n);

        let asrc = ASource::Slices { a: &a, shape: (m, k), trans: Transpose::No };
        let bsrc = BSource::Slices { b: &b, shape: (k, n), trans: Transpose::No };
        let mut c_fresh = c0.clone();
        gemm_flex(None, 1.0, &asrc, &bsrc, 1.0, &mut c_fresh, (m, n));

        let packer = |dst: &mut [f32], k0: usize, j0: usize, kc: usize, nc: usize| {
            pack_b(dst, &b, n, false, k0, j0, kc, nc);
        };
        let bsrc = BSource::Packer { pack: &packer, shape: (k, n) };
        let mut c_custom = c0.clone();
        gemm_flex(None, 1.0, &asrc, &bsrc, 1.0, &mut c_custom, (m, n));
        prop_assert!(bits_eq(&c_custom, &c_fresh), "custom packer diverged (m={m} n={n} k={k})");
    }

    /// The two parallel splits `gemm_flex` chooses between — row-or-column
    /// for slice operands, row-only MC-aligned for a prepacked `B` — must
    /// both agree bitwise with the serial slice call: both are anchored
    /// to the serial reduction order.
    #[test]
    fn flex_parallel_slices_matches_classic_parallel(
        m in dim(M_POOL),
        n in dim(N_POOL),
        k in dim(K_POOL),
        seed in 0u64..10_000,
    ) {
        let m = m.max(8);
        let mut rng = SmallRng64::new(seed);
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n);
        let c0 = fill(&mut rng, m * n);

        let asrc = ASource::Slices { a: &a, shape: (m, k), trans: Transpose::No };
        let bsrc = BSource::Slices { b: &b, shape: (k, n), trans: Transpose::No };
        let mut c_serial = c0.clone();
        gemm_flex(None, 1.0, &asrc, &bsrc, 0.0, &mut c_serial, (m, n));
        let mut c_classic = c0.clone();
        gemm_flex(Some(pool()), 1.0, &asrc, &bsrc, 0.0, &mut c_classic, (m, n));
        let mut pb = PackedB::default();
        pb.pack(&b, (k, n), Transpose::No);
        let mut c_flex = c0.clone();
        gemm_flex(Some(pool()), 1.0, &asrc, &BSource::Prepacked(&pb), 0.0, &mut c_flex, (m, n));
        prop_assert!(bits_eq(&c_classic, &c_serial), "slice-operand parallel diverged");
        prop_assert!(bits_eq(&c_flex, &c_serial), "prepacked-B parallel diverged");
    }
}
