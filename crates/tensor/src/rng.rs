//! Seeded random sources.
//!
//! Two generators are provided:
//!
//! * [`SmallRng64`] — a tiny, dependency-free SplitMix64/xorshift-based
//!   generator used inside this crate's tests and in hot data-generation
//!   loops where constructing a full `StdRng` per call would dominate.
//! * Re-exported helpers over [`rand`]'s `StdRng` for code that wants the
//!   external crate's ecosystem (distribution of work across the other
//!   crates in the workspace).
//!
//! The Box–Muller [`normal`]/[`fill_normal`] helpers implement the paper's
//! parameter initialisation `theta ~ N(0, 0.01)` (Algorithm 1,
//! `rand_init`), avoiding an extra `rand_distr` dependency.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimal xorshift64* PRNG. Deterministic, `Copy`-cheap, good enough for
/// data synthesis and shuffling (not for cryptography).
#[derive(Debug, Clone)]
pub struct SmallRng64 {
    state: u64,
    /// Second Box–Muller variate banked by [`Self::next_normal`].
    cached_normal: Option<f32>,
}

impl SmallRng64 {
    /// Creates a generator from a seed; a zero seed is remapped to a fixed
    /// non-zero constant because xorshift has an all-zero fixed point.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        // SplitMix64 scramble so that consecutive seeds give uncorrelated streams.
        s = s.wrapping_add(0x9E3779B97F4A7C15);
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D049BB133111EB);
        s ^= s >> 31;
        if s == 0 {
            s = 0x9E3779B97F4A7C15;
        }
        SmallRng64 {
            state: s,
            cached_normal: None,
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        // 24 mantissa-significant bits.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_below: empty range");
        // Multiply-shift bounded sampling; bias is negligible for n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// `lo + (hi - lo) * u` can round up to exactly `hi` (e.g. when the
    /// f32 spacing around `hi` exceeds `(hi - lo) * (1 - u)`), which
    /// would violate the half-open contract; such samples are clamped to
    /// the largest float below `hi`. Degenerate inputs (`lo >= hi`)
    /// return `lo`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        if lo >= hi {
            return lo;
        }
        let u = self.next_f32();
        let span = hi - lo;
        // For ranges wider than f32::MAX the span overflows to +inf and
        // `lo + span * u` would be +inf for every u > 0; the two-sided
        // affine form keeps each term finite there.
        let v = if span.is_finite() {
            lo + span * u
        } else {
            lo * (1.0 - u) + hi * u
        };
        if v >= hi {
            prev_f32(hi).max(lo)
        } else {
            v
        }
    }

    /// Standard normal sample via Box–Muller.
    ///
    /// Each Box–Muller transform yields an independent *pair* of
    /// variates (cos and sin branches); the second is banked and
    /// returned by the next call, halving RNG and transcendental cost in
    /// initialisation loops. `u1 == 0` (where `ln` diverges) is handled
    /// by rejection — `u1` is uniform on `[0, 1)` so the retry
    /// probability is 2⁻⁵³, not by clamping, which would bias the tail.
    #[inline]
    pub fn next_normal(&mut self) -> f32 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        let u1 = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached_normal = Some((r * theta.sin()) as f32);
        (r * theta.cos()) as f32
    }
}

/// Largest finite `f32` strictly below `x` (requires `x` finite,
/// non-NaN, and not `-inf`). Equivalent to `f32::next_down` but kept
/// in-tree to respect the workspace MSRV.
#[inline]
fn prev_f32(x: f32) -> f32 {
    debug_assert!(x.is_finite());
    if x == 0.0 {
        return -f32::from_bits(1); // smallest-magnitude negative subnormal
    }
    let bits = x.to_bits();
    // IEEE-754 monotonicity: for positive floats the predecessor is
    // bits - 1; for negative floats it is bits + 1.
    f32::from_bits(if x > 0.0 { bits - 1 } else { bits + 1 })
}

/// Seeded `StdRng` constructor, the conventional entry point for the rest
/// of the workspace.
pub fn std_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// One `N(mean, std²)` sample from an arbitrary [`rand::Rng`], via
/// Box–Muller. `u1 == 0` is rejected (not clamped) for the same reason
/// as in [`SmallRng64::next_normal`].
pub fn normal<R: Rng>(rng: &mut R, mean: f32, std: f32) -> f32 {
    let u1: f64 = loop {
        let u = rng.random::<f64>();
        if u > 0.0 {
            break u;
        }
    };
    let u2: f64 = rng.random::<f64>();
    let z: f64 = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    mean + std * z as f32
}

/// Fills `out` with i.i.d. `N(mean, std²)` samples — the paper's
/// `rand_init()` with `mean = 0`, `std = 0.01`.
pub fn fill_normal<R: Rng>(rng: &mut R, out: &mut [f32], mean: f32, std: f32) {
    for v in out {
        *v = normal(rng, mean, std);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let mut a = SmallRng64::new(42);
        let mut b = SmallRng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng64::new(1);
        let mut b = SmallRng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut r = SmallRng64::new(7);
        for _ in 0..10_000 {
            let v = r.next_f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SmallRng64::new(3);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = r.next_below(5);
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn range_f32_stays_below_hi_where_rounding_forces_hi() {
        // In [2²³, 2²⁴) the f32 spacing is exactly 1, so for lo = 2²⁴ - 1,
        // hi = 2²⁴ every u ≥ 0.5 makes lo + (hi - lo) * u round to hi:
        // roughly half of all draws violated the half-open contract
        // before the clamp.
        let (lo, hi) = (16_777_215.0f32, 16_777_216.0f32);
        let mut r = SmallRng64::new(13);
        let mut clamped = 0;
        for _ in 0..10_000 {
            let v = r.range_f32(lo, hi);
            assert!((lo..hi).contains(&v), "sample {v} escaped [{lo}, {hi})");
            if v == prev_f32(hi) {
                clamped += 1;
            }
        }
        assert!(clamped > 0, "the rounding-up path was never exercised");
        // Extreme-magnitude ranges (huge spans, tiny spans, subnormal gaps).
        let cases = [
            // Span wider than f32::MAX (hi - lo overflows to +inf).
            (-3e38f32, 3e38f32),
            (f32::MIN, f32::MAX),
            (-1e38f32, 1e38f32),
            (0.0, f32::MIN_POSITIVE),
            (1e-40, 2e-40),
            (-16_777_216.0, -16_777_215.0),
            (3.0, 3.0000002),
        ];
        for (lo, hi) in cases {
            let mut r = SmallRng64::new(99);
            for _ in 0..2_000 {
                let v = r.range_f32(lo, hi);
                assert!((lo..hi).contains(&v), "sample {v} escaped [{lo}, {hi})");
            }
        }
        // Degenerate range: lo == hi has no half-open representation;
        // documented to return lo.
        assert_eq!(SmallRng64::new(1).range_f32(2.5, 2.5), 2.5);
    }

    #[test]
    fn prev_f32_is_the_immediate_predecessor() {
        for x in [1.0f32, 16_777_216.0, f32::MIN_POSITIVE, -2.5, 1e38] {
            let p = prev_f32(x);
            assert!(p < x);
            // Nothing representable lies strictly between p and x.
            let mid = (p as f64 + x as f64) / 2.0;
            let back = mid as f32;
            assert!(back == p || back == x);
        }
        assert!(prev_f32(0.0) < 0.0);
    }

    #[test]
    fn next_normal_pairs_are_deterministic_and_independent_of_interleaving() {
        // The banked sin-branch variate must not change the values a
        // fixed seed produces across clones.
        let mut a = SmallRng64::new(5);
        let mut b = SmallRng64::new(5);
        for _ in 0..100 {
            assert_eq!(a.next_normal().to_bits(), b.next_normal().to_bits());
        }
        // Consecutive samples must not be equal (cache returned twice).
        let mut r = SmallRng64::new(8);
        let pairs: Vec<f32> = (0..64).map(|_| r.next_normal()).collect();
        assert!(pairs.windows(2).all(|w| w[0] != w[1]));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = SmallRng64::new(11);
        let n = 50_000;
        let (mut sum, mut sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let v = r.next_normal() as f64;
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn fill_normal_matches_requested_std() {
        let mut rng = std_rng(5);
        let mut buf = vec![0.0f32; 20_000];
        fill_normal(&mut rng, &mut buf, 0.0, 0.01);
        let mean = buf.iter().map(|&v| v as f64).sum::<f64>() / buf.len() as f64;
        let var =
            buf.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / buf.len() as f64;
        assert!(mean.abs() < 1e-3, "mean {mean}");
        assert!((var.sqrt() - 0.01).abs() < 1e-3, "std {}", var.sqrt());
    }
}
