//! Differential property suite for the prepacked-panel GEMM paths.
//!
//! The zero-realloc gradient hot path rests on one claim: serving a GEMM
//! from panels packed *earlier* (a [`PackedPanelCache`] entry packed once
//! per SGD step, or a custom fused packer generating panels on the fly)
//! changes **nothing** about the computation — the macro/micro-kernels
//! consume the same bytes in the same order, so results are bitwise
//! identical to a fresh-pack [`gemm_slices`] call. This suite pits every
//! flexible source combination against the fresh-pack kernel across the
//! same adversarial shape pool as `gemm_differential.rs`, including:
//!
//! * prepacked `B` (the dense layers' cached `W` orientations), serial
//!   and pool-parallel;
//! * prepacked `A` (the conv layer's cached filter matrix);
//! * a custom `B` packer that mimics the conv layer's fused im2col by
//!   delegating to `pack_b` over a materialised operand;
//! * forced stale-key invalidation: panels packed for one parameter
//!   version, the backing buffer mutated **in place** (the stable
//!   local-copy worker pattern where the pointer key alone cannot see the
//!   change), `begin_step`, and the repacked result compared fresh.

use lsgd_tensor::gemm::{
    gemm_slices, gemm_slices_parallel_in, ASource, BSource, Transpose, KC, MC, MR, NC, NR,
};
use lsgd_tensor::gemm::{gemm_flex, gemm_flex_parallel_in};
use lsgd_tensor::pack::pack_b;
use lsgd_tensor::panels::{PackedA, PackedPanelCache};

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

    /// Prepacked-B GEMM (serial and parallel, via the panel cache with a
    /// forced stale-key repack) is bitwise identical to fresh-pack
    /// `gemm_slices` for both B orientations.
    #[test]
    fn prepacked_b_matches_fresh_pack_bitwise(
        m in dim(M_POOL),
        n in dim(N_POOL),
        k in dim(K_POOL),
        tbi in 0usize..2,
        seed in 0u64..10_000,
    ) {
        // m >= 8 keeps fresh-pack gemm_slices on the packed kernel for
        // tb=No (below that it prefers the streaming naive path, which
        // is exactly why the nn layers consult small_m_prefers_naive
        // before using prepacked panels).
        let m = m.max(8);
        let tb = [Transpose::No, Transpose::Yes][tbi];
        let b_shape = if tb.is_t() { (n, k) } else { (k, n) };
        let mut rng = SmallRng64::new(seed);
        let a = fill(&mut rng, m * k);
        let mut b = fill(&mut rng, b_shape.0 * b_shape.1);
        let c0 = fill(&mut rng, m * n);

        let mut cache = PackedPanelCache::new();
        // Pack for a *previous* parameter version, then mutate the buffer
        // in place and begin a new step: the cache must repack.
        cache.begin_step();
        cache.get_b(&b, b_shape, tb);
        for v in &mut b {
            *v = -*v + 0.125;
        }
        cache.begin_step();

        let mut c_fresh = c0.clone();
        gemm_slices(
            1.0, &a, (m, k), Transpose::No, &b, b_shape, tb, 0.5, &mut c_fresh, (m, n),
        );

        let asrc = ASource::Slices { a: &a, shape: (m, k), trans: Transpose::No };
        let pb = cache.get_b(&b, b_shape, tb);
        let mut c_pre = c0.clone();
        gemm_flex(1.0, &asrc, &BSource::Prepacked(pb), 0.5, &mut c_pre, (m, n));
        prop_assert!(bits_eq(&c_pre, &c_fresh), "serial prepacked-B diverged (m={m} n={n} k={k} tb={tb:?})");

        let mut c_par = c0.clone();
        gemm_flex_parallel_in(
            pool(), 1.0, &asrc, &BSource::Prepacked(pb), 0.5, &mut c_par, (m, n),
        );
        prop_assert!(bits_eq(&c_par, &c_fresh), "parallel prepacked-B diverged (m={m} n={n} k={k} tb={tb:?})");
    }

    /// Prepacked-A GEMM (the conv forward's cached filter matrix, both
    /// orientations) is bitwise identical to fresh-pack `gemm_slices`,
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

        // tb=Yes keeps fresh-pack gemm_slices on the packed kernel for
        // every m (the conv-forward shape class: tiny m, B transposed).
        let mut c_fresh = c0.clone();
        gemm_slices(
            1.0, &a, a_shape, ta, &b, (n, k), Transpose::Yes, 0.0, &mut c_fresh, (m, n),
        );

        let mut pa = PackedA::default();
        pa.pack(&a, a_shape, ta);
        let bsrc = BSource::Slices { b: &b, shape: (n, k), trans: Transpose::Yes };
        let mut c_pre = c0.clone();
        gemm_flex(1.0, &ASource::Prepacked(&pa), &bsrc, 0.0, &mut c_pre, (m, n));
        prop_assert!(bits_eq(&c_pre, &c_fresh), "serial prepacked-A diverged (m={m} n={n} k={k} ta={ta:?})");

        let mut c_par = c0.clone();
        gemm_flex_parallel_in(
            pool(), 1.0, &ASource::Prepacked(&pa), &bsrc, 0.0, &mut c_par, (m, n),
        );
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
        let m = m.max(8);
        let mut rng = SmallRng64::new(seed);
        let a = fill(&mut rng, m * k);
        let b = fill(&mut rng, k * n); // the "materialised" operand, k×n
        let c0 = fill(&mut rng, m * n);

        let mut c_fresh = c0.clone();
        gemm_slices(
            1.0, &a, (m, k), Transpose::No, &b, (k, n), Transpose::No, 1.0, &mut c_fresh, (m, n),
        );

        let packer = |dst: &mut [f32], k0: usize, j0: usize, kc: usize, nc: usize| {
            pack_b(dst, &b, n, false, k0, j0, kc, nc);
        };
        let asrc = ASource::Slices { a: &a, shape: (m, k), trans: Transpose::No };
        let bsrc = BSource::Packer { pack: &packer, shape: (k, n) };
        let mut c_custom = c0.clone();
        gemm_flex(1.0, &asrc, &bsrc, 1.0, &mut c_custom, (m, n));
        prop_assert!(bits_eq(&c_custom, &c_fresh), "custom packer diverged (m={m} n={n} k={k})");
    }

    /// Slices/Slices `gemm_flex_parallel_in` must agree bitwise with
    /// `gemm_slices_parallel_in` *and* serial `gemm_slices` — the two
    /// parallel splits (row-only MC-aligned vs row-or-column) are both
    /// anchored to the serial reduction order.
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

        let mut c_serial = c0.clone();
        gemm_slices(
            1.0, &a, (m, k), Transpose::No, &b, (k, n), Transpose::No, 0.0, &mut c_serial, (m, n),
        );
        let mut c_classic = c0.clone();
        gemm_slices_parallel_in(
            pool(), 1.0, &a, (m, k), Transpose::No, &b, (k, n), Transpose::No, 0.0,
            &mut c_classic, (m, n),
        );
        let asrc = ASource::Slices { a: &a, shape: (m, k), trans: Transpose::No };
        let bsrc = BSource::Slices { b: &b, shape: (k, n), trans: Transpose::No };
        let mut c_flex = c0.clone();
        gemm_flex_parallel_in(pool(), 1.0, &asrc, &bsrc, 0.0, &mut c_flex, (m, n));
        prop_assert!(bits_eq(&c_classic, &c_serial), "classic parallel diverged");
        prop_assert!(bits_eq(&c_flex, &c_serial), "flex parallel diverged");
    }
}

/// Within one epoch the cache must *hit* (no repacking work) for repeated
/// weight lookups — the property that makes per-sample conv GEMMs cheap.
#[test]
fn cache_hits_across_repeated_lookups_within_a_step() {
    let mut rng = SmallRng64::new(7);
    let w = fill(&mut rng, 64 * 48);
    let mut cache = PackedPanelCache::new();
    cache.begin_step();
    for _ in 0..10 {
        cache.get_b(&w, (64, 48), Transpose::Yes);
        cache.get_a(&w, (64, 48), Transpose::No);
    }
    let (hits, misses) = cache.stats();
    assert_eq!(misses, 2, "one pack per operand per step");
    assert_eq!(hits, 18);
}
