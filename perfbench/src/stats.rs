//! Order statistics over timed samples.

use crate::json::Json;

/// Nearest-rank percentile (`q` in `[0, 1]`) of an already sorted slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (mean of the two middle values for even
/// counts); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// A sample of durations (or any measurements) with its count, so every
/// reported percentile carries the number of observations behind it.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    values: Vec<f64>,
}

impl Dist {
    /// Records one observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Percentile `q` (nearest rank); `0.0` when empty.
    pub fn pct(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        percentile_sorted(&v, q)
    }

    /// Median; `0.0` when empty.
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Summary for the detail report: count, min, p50, p90, p99, max.
    pub fn summary(&self) -> Json {
        let mut o = Json::obj();
        o.set("n", self.len());
        if !self.is_empty() {
            o.set("min", self.pct(0.0))
                .set("p50", self.pct(0.5))
                .set("p90", self.pct(0.9))
                .set("p99", self.pct(0.99))
                .set("max", self.pct(1.0));
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
