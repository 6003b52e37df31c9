//! Medians, percentiles, quartile spread and the bound comparison.
//!
//! Every reported value is a median of repetition values, never a best-of.
//! The spread is computed the way the acceptance check computes it, so the
//! number `repeat` prints is the number that check will see.

/// Median of a sample (mean of the two middle values for an even count).
/// Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A percentile of an ascending-sorted sample, or `None` when fewer than
/// ten samples lie beyond it: a tail read off a handful of samples is the
/// value of those samples, not of the distribution.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> Option<u32> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    let beyond = sorted.len() - 1 - idx;
    (beyond >= 10).then(|| sorted[idx])
}

/// Quartiles by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`), which the acceptance check uses.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        // Position k * (n + 1) / 4, one-based, clamped into the sample.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, _, q3)) => {
            let m = median(values);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1) / m.abs()
            }
        }
        None => 0.0,
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// By what share of `first` the value `second` is worse (negative when it
/// is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (first - second) / first.abs(),
        Better::Lower => (second - first) / first.abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), Some(501));
        // p99 of 1000 samples has 10 beyond it; p99.9 has 1.
        assert_eq!(percentile_sorted(&sorted, 99.0), Some(990));
        assert_eq!(percentile_sorted(&sorted, 99.9), None);
        let few: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&few, 99.0), None);
        assert_eq!(percentile_sorted(&few, 50.0), Some(51));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, _, q3) = quartiles(&[20.0, 10.0]).unwrap();
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn worsening_respects_direction() {
        // Throughput fell 8%.
        assert!((worsening(100.0, 92.0, Better::Higher) - 0.08).abs() < 1e-12);
        // Latency rose 30%.
        assert!((worsening(10.0, 13.0, Better::Lower) - 0.30).abs() < 1e-12);
        // An improvement is a negative worsening in either direction.
        assert!(worsening(10.0, 5.0, Better::Lower) < 0.0);
        assert!(worsening(100.0, 150.0, Better::Higher) < 0.0);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }
}
