//! Differential property suite: the packed GEMM kernel (serial and
//! parallel) against the retained naive kernel.
//!
//! The packed kernel funnels all four `(ta, tb)` orientations through one
//! micro-kernel via panel packing, so a single packing bug would corrupt
//! every gradient in the reproduction. This suite pits it against
//! [`lsgd_tensor::gemm::gemm_naive_slices`] — the pre-packing blocked
//! loops, kept precisely as this oracle — across:
//!
//! * all four orientations (including `tn`/`tt`, which used to run scalar
//!   fallbacks and now must match through the fast path);
//! * `alpha ∈ {0, 1, 0.5}` and `beta ∈ {0, 1, 2}` (the identity-ish
//!   values every special-cased branch keys on);
//! * degenerate dims (`m/n/k ∈ {0, 1}`) and shapes straddling the
//!   `MR`/`NR` micro-tile and `MC`/`KC`/`NC` cache-block boundaries;
//! * `gemm_flex` with no runtime, a 1-thread and a 4-thread runtime,
//!   which must agree with each other **bitwise** (partitioning may not
//!   change any element's reduction order).

use lsgd_tensor::gemm::{
    gemm_flex, gemm_naive_slices, ASource, BSource, Transpose, KC, MC, MR, NC, NR,
};

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

/// Shared 1-thread runtime: `Some` but serial.
fn one() -> &'static Runtime {
    static RT: OnceLock<Runtime> = OnceLock::new();
    RT.get_or_init(|| Runtime::new(1))
}

/// `gemm_flex` over two row-major slice operands (`rt = None`: serial).
#[allow(clippy::too_many_arguments)]
fn gemm_slices(
    rt: Option<&Runtime>,
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
    let asrc = ASource::Slices { a, shape: a_shape, trans: ta };
    let bsrc = BSource::Slices { b, shape: b_shape, trans: tb };
    gemm_flex(rt, alpha, &asrc, &bsrc, beta, c, c_shape);
}

/// Strategy drawing a dimension from a pool of adversarial values:
/// degenerate sizes plus every block boundary ±1.
fn dim(pool: &'static [usize]) -> impl Strategy<Value = usize> {
    (0..pool.len()).prop_map(move |i| pool[i])
}

const M_POOL: &[usize] = &[0, 1, 2, MR - 1, MR, MR + 1, 2 * MR + 1, MC - 1, MC, MC + 1, 70];
const N_POOL: &[usize] = &[0, 1, 2, NR - 1, NR, NR + 1, 3 * NR + 1, NC - 1, NC, NC + 1, 33];
const K_POOL: &[usize] = &[0, 1, 2, 7, KC - 1, KC, KC + 1, 300];
const ALPHAS: &[f32] = &[0.0, 1.0, 0.5];
const BETAS: &[f32] = &[0.0, 1.0, 2.0];

fn fill(rng: &mut SmallRng64, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.next_f32() * 2.0 - 1.0).collect()
}

fn orientations(i: usize) -> (Transpose, Transpose) {
    [
        (Transpose::No, Transpose::No),
        (Transpose::No, Transpose::Yes),
        (Transpose::Yes, Transpose::No),
        (Transpose::Yes, Transpose::Yes),
    ][i]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Serial `gemm_flex` == naive oracle (within float reassociation
    /// slack), and the same call on a 1-thread and a 4-thread runtime ==
    /// serial bitwise.
    #[test]
    fn packed_matches_naive_all_orientations(
        m in dim(M_POOL),
        n in dim(N_POOL),
        k in dim(K_POOL),
        oi in 0usize..4,
        ai in 0usize..ALPHAS.len(),
        bi in 0usize..BETAS.len(),
        seed in 0u64..10_000,
    ) {
        let (ta, tb) = orientations(oi);
        let (alpha, beta) = (ALPHAS[ai], BETAS[bi]);
        let a_shape = if ta == Transpose::Yes { (k, m) } else { (m, k) };
        let b_shape = if tb == Transpose::Yes { (n, k) } else { (k, n) };
        let mut rng = SmallRng64::new(seed);
        let a = fill(&mut rng, a_shape.0 * a_shape.1);
        let b = fill(&mut rng, b_shape.0 * b_shape.1);
        let c0 = fill(&mut rng, m * n);

        let mut c_oracle = c0.clone();
        gemm_naive_slices(alpha, &a, a_shape, ta, &b, b_shape, tb, beta, &mut c_oracle, (m, n));

        let mut c_packed = c0.clone();
        gemm_slices(None, alpha, &a, a_shape, ta, &b, b_shape, tb, beta, &mut c_packed, (m, n));

        // Reassociation (blocking, FMA) perturbs each element by at most
        // O(k·eps) relative to the naive left-to-right sum.
        let tol = 1e-5 * (k as f32 + 1.0) + 1e-6;
        for (i, (got, want)) in c_packed.iter().zip(&c_oracle).enumerate() {
            prop_assert!(
                (got - want).abs() <= tol,
                "({ta:?},{tb:?}) alpha={alpha} beta={beta} m={m} n={n} k={k} \
                 elem {i}: packed {got} vs naive {want}"
            );
        }

        for rt in [one(), pool()] {
            let mut c_par = c0.clone();
            gemm_slices(
                Some(rt), alpha, &a, a_shape, ta, &b, b_shape, tb, beta, &mut c_par, (m, n),
            );
            prop_assert!(
                c_par.iter().zip(&c_packed).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{}-thread result diverged from serial for ({ta:?},{tb:?}) m={m} n={n} k={k}",
                rt.threads()
            );
        }
    }

    /// `beta == 0` must *overwrite* C: pre-existing NaN/Inf garbage (e.g.
    /// an uninitialised or poisoned gradient buffer) may not leak into
    /// the product through `0 * NaN`.
    #[test]
    fn beta_zero_overwrites_poisoned_c(
        m in dim(M_POOL),
        n in dim(N_POOL),
        k in dim(K_POOL),
        oi in 0usize..4,
        seed in 0u64..10_000,
    ) {
        let (ta, tb) = orientations(oi);
        let a_shape = if ta == Transpose::Yes { (k, m) } else { (m, k) };
        let b_shape = if tb == Transpose::Yes { (n, k) } else { (k, n) };
        let mut rng = SmallRng64::new(seed);
        let a = fill(&mut rng, a_shape.0 * a_shape.1);
        let b = fill(&mut rng, b_shape.0 * b_shape.1);
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let c0: Vec<f32> = (0..m * n).map(|i| poison[i % poison.len()]).collect();

        for (run, rt) in [("serial", None), ("parallel", Some(pool()))] {
            let mut c = c0.clone();
            gemm_slices(rt, 1.0, &a, a_shape, ta, &b, b_shape, tb, 0.0, &mut c, (m, n));
            prop_assert!(
                c.iter().all(|v| v.is_finite()),
                "{run} ({ta:?},{tb:?}) m={m} n={n} k={k}: NaN/Inf survived beta=0"
            );
        }
    }
}

/// Shapes that genuinely cross the parallel fan-out threshold
/// (`2·m·n·k ≥ 2²¹`) in both split directions — the random dimension
/// pools above cannot reach the N-split arm (their small-`m` × max-`n·k`
/// products sit just under the threshold), so it is pinned here: packed
/// parallel must match naive within tolerance and serial bitwise.
#[test]
fn parallel_fanout_row_and_col_split_match_naive_and_serial() {
    // (m, n, k): first row-splits across 4 threads, the rest N-split
    // (m < 4·MR), including a non-16-aligned n and an AVX2 pair-odd
    // panel count.
    for (m, n, k) in [(256, 256, 64), (16, 160, 512), (12, 2040, 50), (13, 1000, 90)] {
        for oi in 0..4 {
            let (ta, tb) = orientations(oi);
            let a_shape = if ta == Transpose::Yes { (k, m) } else { (m, k) };
            let b_shape = if tb == Transpose::Yes { (n, k) } else { (k, n) };
            let mut rng = SmallRng64::new(4242 + oi as u64);
            let a = fill(&mut rng, a_shape.0 * a_shape.1);
            let b = fill(&mut rng, b_shape.0 * b_shape.1);
            let c0 = fill(&mut rng, m * n);

            let mut want = c0.clone();
            gemm_naive_slices(0.5, &a, a_shape, ta, &b, b_shape, tb, 2.0, &mut want, (m, n));
            let mut serial = c0.clone();
            gemm_slices(None, 0.5, &a, a_shape, ta, &b, b_shape, tb, 2.0, &mut serial, (m, n));
            let mut par = c0.clone();
            gemm_slices(
                Some(pool()),
                0.5,
                &a,
                a_shape,
                ta,
                &b,
                b_shape,
                tb,
                2.0,
                &mut par,
                (m, n),
            );

            let tol = 1e-5 * (k as f32 + 1.0) + 1e-6;
            assert!(
                par.iter().zip(&want).all(|(x, y)| (x - y).abs() <= tol),
                "parallel vs naive ({ta:?},{tb:?}) m={m} n={n} k={k}"
            );
            assert!(
                par.iter().zip(&serial).all(|(x, y)| x.to_bits() == y.to_bits()),
                "parallel vs serial not bitwise ({ta:?},{tb:?}) m={m} n={n} k={k}"
            );
        }
    }
}

/// Deterministic sweep of every dimension-pool combination at the default
/// orientation mix — a safety net in case the random sampler misses a
/// specific boundary product.
#[test]
fn exhaustive_block_boundary_sweep_nn_tt() {
    for &m in &[0usize, 1, MR, MR + 1, MC + 1] {
        for &n in &[0usize, 1, NR, NR + 1, NC + 1] {
            for &k in &[0usize, 1, KC, KC + 1] {
                for (ta, tb) in [(Transpose::No, Transpose::No), (Transpose::Yes, Transpose::Yes)] {
                    let a_shape = if ta == Transpose::Yes { (k, m) } else { (m, k) };
                    let b_shape = if tb == Transpose::Yes { (n, k) } else { (k, n) };
                    let mut rng = SmallRng64::new(m as u64 * 31 + n as u64 * 7 + k as u64);
                    let a = fill(&mut rng, a_shape.0 * a_shape.1);
                    let b = fill(&mut rng, b_shape.0 * b_shape.1);
                    let c0 = fill(&mut rng, m * n);
                    let mut want = c0.clone();
                    gemm_naive_slices(0.5, &a, a_shape, ta, &b, b_shape, tb, 1.0, &mut want, (m, n));
                    let mut got = c0.clone();
                    gemm_slices(None, 0.5, &a, a_shape, ta, &b, b_shape, tb, 1.0, &mut got, (m, n));
                    let tol = 1e-5 * (k as f32 + 1.0) + 1e-6;
                    assert!(
                        got.iter().zip(&want).all(|(x, y)| (x - y).abs() <= tol),
                        "({ta:?},{tb:?}) m={m} n={n} k={k}"
                    );
                }
            }
        }
    }
}
