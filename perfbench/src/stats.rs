//! Summary statistics for host-time samples.

/// First quartile, median and third quartile of `values`, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so the spreads printed here match the ones a
/// script computes from the emitted values.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

/// The median of `values` (the middle quartile).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Minimum number of samples that must lie beyond a tail percentile before
/// it is reported: with fewer, the "percentile" is one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Number of samples strictly beyond the nearest-rank `p`-th percentile of
/// `count` samples.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    count.saturating_sub(nearest_rank(count, p))
}

/// 1-based nearest rank of the `p`-th percentile among `count` samples;
/// the small offset keeps `99.9 / 100 × 1000` from rounding up past 999.
fn nearest_rank(count: usize, p: f64) -> usize {
    ((p / 100.0 * count as f64 - 1e-9).ceil() as usize).clamp(1, count.max(1))
}

/// The highest of `candidates` (percentiles in `[0, 100]`) that has at
/// least [`MIN_TAIL_SAMPLES`] samples beyond it, or `None` when even the
/// lowest does not.
pub fn highest_reportable_percentile(count: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(count, p) >= MIN_TAIL_SAMPLES)
        .max_by(|a, b| a.partial_cmp(b).expect("percentiles are never NaN"))
}

/// Nearest-rank `p`-th percentile of `values` (`p` in `[0, 100]`).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    data[nearest_rank(data.len(), p) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 6.0, 7.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // 1000 samples: exactly 10 lie beyond p99, 1 beyond p99.9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(1000, 99.9), 1);
        assert_eq!(
            highest_reportable_percentile(1000, &[90.0, 99.0, 99.9]),
            Some(99.0)
        );
        // 999 samples leave only 9 beyond p99, so p90 is the highest.
        assert_eq!(
            highest_reportable_percentile(999, &[90.0, 99.0, 99.9]),
            Some(90.0)
        );
        // Nine samples support no tail percentile at all.
        assert_eq!(highest_reportable_percentile(9, &[50.0, 90.0]), None);
        assert_eq!(highest_reportable_percentile(20, &[50.0, 90.0]), Some(50.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }
}
