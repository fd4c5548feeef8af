//! Order statistics: medians, the tail-percentile rule and the
//! quartile spread the driver judges steadiness by.

/// One reported number: the value, how many samples it summarises and,
/// for a percentile, which quantile it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub n: usize,
    pub quantile: Option<f64>,
}

impl Value {
    /// A single measurement or count.
    pub fn one(value: f64) -> Value {
        Value {
            value,
            n: 1,
            quantile: None,
        }
    }

    /// The mean over `n` samples.
    pub fn mean_of(value: f64, n: usize) -> Value {
        Value {
            value,
            n,
            quantile: None,
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples when `n` is even).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> Value {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    let value = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Value {
        value,
        n,
        quantile: Some(0.5),
    }
}

/// The highest percentile with at least ten samples beyond it; with ten
/// samples or fewer there is none, and the maximum is reported as
/// quantile 1.
pub fn tail(xs: &[f64]) -> Value {
    assert!(!xs.is_empty(), "tail of no samples");
    let v = sorted(xs);
    let n = v.len();
    let (idx, quantile) = if n > 10 {
        (n - 11, (n - 10) as f64 / n as f64)
    } else {
        (n - 1, 1.0)
    };
    Value {
        value: v[idx],
        n,
        quantile: Some(quantile),
    }
}

/// Python's `statistics.quantiles(xs, n=4)` (the exclusive method), so a
/// spread computed here is the one the driver computes.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let v = sorted(xs);
    let len = v.len();
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median; 0 for a single sample.
pub fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(xs);
    (q3 - q1) / median(xs).value.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.quantile, Some(0.99));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // 11 samples: the lowest has exactly ten beyond it.
        let t = tail(&xs[..11]);
        assert_eq!((t.value, t.n), (1.0, 11));
        // Ten or fewer: no percentile qualifies, the maximum says so.
        let t = tail(&xs[..10]);
        assert_eq!((t.value, t.quantile), (10.0, Some(1.0)));
    }

    #[test]
    fn median_handles_both_parities() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).value, 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]).value, 2.5);
        assert_eq!(median(&[7.0]).n, 1);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
