//! Order statistics used by every reported number: median, quartiles, the
//! percentile rule and the run-to-run spread.

/// The value at quantile `q` (0..=1) of `sorted`, by linear interpolation between
/// the two nearest ranks. `sorted` must be ascending and non-empty.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(values), 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method: rank `(n + 1) * k / 4`, clamped).
/// Fewer than two values have no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        n => {
            let at = |k: usize| {
                let rank = (n + 1) as f64 * k as f64 / 4.0;
                let j = (rank.floor() as usize).clamp(1, n - 1);
                let delta = rank - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            (at(1), at(3))
        }
    }
}

/// Distance between the quartiles as a share of the median — the run-to-run
/// spread the benchmark contract bounds. 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The percentile rule: the highest whole percentile (at most 99) that still has
/// at least ten samples beyond it, or `None` with fewer than twenty samples (below
/// that not even the median has ten samples on its far side).
pub fn highest_supported_percentile(samples: usize) -> Option<u32> {
    if samples < 20 {
        return None;
    }
    let p = ((samples - 10) * 100 / samples) as u32;
    Some(p.min(99))
}

/// Percentile `p` (0..=100) of `values` (nearest-rank with interpolation); 0 for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(values), p / 100.0)
}

/// [`percentile`] over integer nanosecond samples, returned in the same unit.
pub fn percentile_u64(values: &[u64], p: f64) -> f64 {
    let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    percentile(&as_f64, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let (q1, q3) = quartiles(&[8.0, 1.0, 4.0, 2.0]);
        assert!((q1 - 1.25).abs() < 1e-12 && (q3 - 7.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(199), Some(94));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(1_000), Some(99));
        assert_eq!(highest_supported_percentile(1_000_000), Some(99));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&[10.0, 20.0], 50.0), 15.0);
        assert_eq!(percentile_u64(&[1, 2, 3], 100.0), 3.0);
    }
}
