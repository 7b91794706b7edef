//! Order statistics used by every report row.

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the smallest
/// value with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the even-count midpoint (what `statistics.median` gives, so
/// the benchmark's own medians agree with the driver's).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median`: the run-to-run noise floor printed beside a
/// median of rounds. Zero when the median is zero (all-zero counters).
pub fn noise_floor(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // 100 samples: p90 leaves exactly ten beyond it.
        let h: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&h, 90.0), 90.0);
    }

    #[test]
    fn median_of_rounds_and_noise_floor() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(noise_floor(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(noise_floor(&[0.0, 0.0, 0.0]), 0.0);
    }
}
