//! Integer-bin histograms (staleness distributions, retry counts) and a
//! log-bucketed latency histogram for p99-grade tail reporting.

/// A histogram over non-negative integer values with unit-width bins up to
/// a cap; values beyond the cap land in an overflow bin.
#[derive(Debug, Clone)]
pub struct Histogram {
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    max_seen: u64,
}

impl Histogram {
    /// Creates a histogram with unit bins `0..cap` plus an overflow bin.
    pub fn new(cap: usize) -> Self {
        Histogram {
            bins: vec![0; cap],
            overflow: 0,
            count: 0,
            sum: 0,
            max_seen: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        if (v as usize) < self.bins.len() {
            self.bins[v as usize] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += v as u128;
        self.max_seen = self.max_seen.max(v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest value observed.
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// Count in unit bin `v` (not including overflow).
    pub fn bin(&self, v: usize) -> u64 {
        self.bins.get(v).copied().unwrap_or(0)
    }

    /// Observations beyond the bin cap.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Approximate `q`-quantile (0..=1) from the binned counts; overflow
    /// observations are treated as `cap`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        for (v, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen > target {
                return v as u64;
            }
        }
        self.bins.len() as u64
    }

    /// Merges another histogram into this one (bin caps must match).
    ///
    /// # Panics
    /// Panics if the bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bins.len(), other.bins.len(), "bin cap mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.max_seen = self.max_seen.max(other.max_seen);
    }

    /// Non-empty `(value, count)` pairs, for printing distributions.
    pub fn nonzero_bins(&self) -> Vec<(u64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
            .collect()
    }
}

/// Sub-bucket resolution of [`LogHistogram`]: each power-of-two range is
/// split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// error of any quantile estimate by `2^-SUB_BITS` (≈ 3.1%).
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Number of buckets needed to cover the full `u64` range at `SUB_BITS`
/// resolution: `SUB` exact unit buckets for `0..SUB`, then `SUB`
/// sub-buckets per remaining exponent `SUB_BITS..=63`.
const LOG_BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// An HDR-style histogram over `u64` values (latencies in nanoseconds)
/// with geometric buckets: values below `SUB` are recorded exactly,
/// larger values land in one of `SUB` linear sub-buckets per power of
/// two, so every bucket spans at most a `1/SUB` relative range. Quantile
/// *bounds* are therefore tight to ≈ 3% at any scale — nanoseconds to
/// minutes — with a fixed footprint, unlike [`Histogram`]'s unit bins
/// which need a cap chosen in advance.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min_seen: u64,
    max_seen: u64,
}

/// Bucket index for a value (monotone in `v`).
fn log_bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // 2^exp <= v, exp >= SUB_BITS
    let sub = (v >> (exp - SUB_BITS)) - SUB; // top SUB_BITS bits after the leading 1
    ((exp - SUB_BITS) as u64 * SUB + SUB + sub) as usize
}

/// Inclusive `[lo, hi]` value range of bucket `i` (inverse of
/// [`log_bucket`]).
fn log_bucket_bounds(i: usize) -> (u64, u64) {
    if (i as u64) < SUB {
        return (i as u64, i as u64);
    }
    let g = (i as u64 - SUB) / SUB; // exponent group, exp = g + SUB_BITS
    let s = (i as u64 - SUB) % SUB;
    let lo = (SUB + s) << g;
    // Parenthesised so the top bucket (hi == u64::MAX) doesn't overflow.
    let hi = lo + ((1u64 << g) - 1);
    (lo, hi)
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram (fixed bucket layout; no cap needed).
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; LOG_BUCKETS],
            count: 0,
            sum: 0,
            min_seen: u64::MAX,
            max_seen: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[log_bucket(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min_seen = self.min_seen.min(v);
        self.max_seen = self.max_seen.max(v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest value observed (0 when empty).
    pub fn max(&self) -> u64 {
        self.max_seen
    }

    /// Smallest value observed (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_seen
        }
    }

    /// `[lo, hi]` bounds on the `q`-quantile (0..=1): the true order
    /// statistic at rank `round(q·(n-1))` is guaranteed to lie in the
    /// returned range, and `hi - lo < lo / SUB` (≈ 3% relative width).
    /// `(0, 0)` when empty.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let target = (q.clamp(0.0, 1.0) * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > target {
                let (lo, hi) = log_bucket_bounds(i);
                // The bucket bounds can only be tightened by the actual
                // extremes seen.
                return (lo.max(self.min()), hi.min(self.max_seen));
            }
        }
        unreachable!("cumulative bucket counts must reach self.count");
    }

    /// Conservative (upper-bound) `q`-quantile estimate — what latency
    /// reports print for p50/p95/p99.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_bounds(q).1
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_aggregate() {
        let mut h = Histogram::new(10);
        for v in [1u64, 1, 2, 3, 3, 3] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bin(3), 3);
        assert_eq!(h.bin(0), 0);
        assert!((h.mean() - 13.0 / 6.0).abs() < 1e-9);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn overflow_bin_catches_large_values() {
        let mut h = Histogram::new(4);
        h.record(100);
        h.record(2);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let mut h = Histogram::new(100);
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(1.0), 99);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(8);
        let mut b = Histogram::new(8);
        a.record(1);
        b.record(1);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.bin(1), 2);
        assert_eq!(a.bin(7), 1);
    }

    #[test]
    #[should_panic]
    fn merge_rejects_mismatched_caps() {
        let mut a = Histogram::new(8);
        a.merge(&Histogram::new(4));
    }

    #[test]
    fn empty_histogram_defaults() {
        let h = Histogram::new(4);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn log_bucket_roundtrips_every_boundary() {
        // The bucket of a value must contain it, and bucketing must be
        // monotone across every power-of-two boundary.
        for exp in 0..64u32 {
            for off in [0u64, 1, 2] {
                let v = (1u64 << exp).saturating_add(off);
                let i = log_bucket(v);
                let (lo, hi) = log_bucket_bounds(i);
                assert!(lo <= v && v <= hi, "v={v} bucket={i} [{lo},{hi}]");
            }
        }
        for v in 0..200u64 {
            assert!(log_bucket(v) <= log_bucket(v + 1), "monotone at {v}");
        }
        assert!(log_bucket(u64::MAX) < LOG_BUCKETS);
    }

    #[test]
    fn log_small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 5, 31] {
            h.record(v);
        }
        assert_eq!(h.quantile_bounds(0.0), (0, 0));
        assert_eq!(h.quantile_bounds(1.0), (31, 31));
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn log_quantile_bounds_bracket_true_order_statistics() {
        let mut h = LogHistogram::new();
        let mut vals: Vec<u64> = (0..1000u64).map(|i| i * i * 37 + 5).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = (q * (vals.len() as f64 - 1.0)).round() as usize;
            let truth = vals[rank];
            let (lo, hi) = h.quantile_bounds(q);
            assert!(lo <= truth && truth <= hi, "q={q}: {truth} not in [{lo},{hi}]");
            assert!(hi - lo <= lo / SUB + 1, "q={q}: bucket too wide [{lo},{hi}]");
        }
    }

    #[test]
    fn log_merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [3u64, 70, 900, 1_000_000] {
            a.record(v);
            both.record(v);
        }
        for v in [12u64, 44, 123_456_789] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(a.quantile_bounds(q), both.quantile_bounds(q));
        }
    }

    #[test]
    fn log_empty_defaults() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile_bounds(0.99), (0, 0));
    }
}
