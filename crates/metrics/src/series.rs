//! Time-series traces (loss over wall-clock time, Fig. 5 / Fig. 7 middle).

/// A `(seconds, value)` time series with helpers for downsampling and
/// rendering — the loss-vs-time traces of the paper's Figures 5 and 7.
#[derive(Debug, Clone, Default)]
pub struct Series {
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Empty series.
    pub fn new() -> Self {
        Series { points: Vec::new() }
    }

    /// Appends an observation; time must be non-decreasing (enforced in
    /// debug builds).
    pub fn push(&mut self, t_secs: f64, value: f64) {
        debug_assert!(
            self.points.last().map_or(true, |&(pt, _)| t_secs >= pt),
            "time must be non-decreasing"
        );
        self.points.push((t_secs, value));
    }

    /// All points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, if any.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// Linear interpolation at time `t` (clamped to the series range).
    /// Returns `None` for an empty series.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        if t <= self.points[0].0 {
            return Some(self.points[0].1);
        }
        if t >= self.points.last().unwrap().0 {
            return Some(self.points.last().unwrap().1);
        }
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        let (t0, v0) = self.points[idx - 1];
        let (t1, v1) = self.points[idx];
        if t1 == t0 {
            return Some(v1);
        }
        let f = (t - t0) / (t1 - t0);
        Some(v0 * (1.0 - f) + v1 * f)
    }

    /// Resamples onto a uniform grid of `n` points over `[0, t_max]`.
    pub fn resample_uniform(&self, t_max: f64, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let t = t_max * i as f64 / (n - 1).max(1) as f64;
                (t, self.value_at(t).unwrap_or(f64::NAN))
            })
            .collect()
    }

    /// CSV rendering with the given column headers.
    pub fn to_csv(&self, t_name: &str, v_name: &str) -> String {
        let mut out = format!("{t_name},{v_name}\n");
        for &(t, v) in &self.points {
            out.push_str(&format!("{t:.6},{v:.6}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Series {
        let mut s = Series::new();
        for i in 0..=10 {
            s.push(i as f64, (i * 2) as f64);
        }
        s
    }

    #[test]
    fn push_and_len() {
        let s = ramp();
        assert_eq!(s.len(), 11);
        assert_eq!(s.last_value(), Some(20.0));
    }

    #[test]
    fn interpolation_between_points() {
        let s = ramp();
        assert_eq!(s.value_at(2.5), Some(5.0));
        assert_eq!(s.value_at(0.0), Some(0.0));
    }

    #[test]
    fn interpolation_clamps_to_range() {
        let s = ramp();
        assert_eq!(s.value_at(-5.0), Some(0.0));
        assert_eq!(s.value_at(100.0), Some(20.0));
    }

    #[test]
    fn empty_series_interpolation_is_none() {
        assert_eq!(Series::new().value_at(1.0), None);
        assert!(Series::new().is_empty());
    }

    #[test]
    fn resample_uniform_grid() {
        let s = ramp();
        let grid = s.resample_uniform(10.0, 6);
        assert_eq!(grid.len(), 6);
        assert_eq!(grid[0], (0.0, 0.0));
        assert_eq!(grid[5], (10.0, 20.0));
        assert!((grid[1].1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut s = Series::new();
        s.push(0.0, 1.5);
        let csv = s.to_csv("t", "loss");
        assert!(csv.starts_with("t,loss\n"));
        assert!(csv.contains("0.000000,1.500000"));
    }
}
