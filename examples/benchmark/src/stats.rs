//! Order statistics and counter-window helpers.
//!
//! Latencies are kept as raw nanosecond samples and reduced with exact
//! order statistics: the repository's `LatencyHistogram` has 256 log-spaced
//! buckets (≈9 % steps), so its p50 cannot repeat to within a tenth.

/// Exact `q`-quantile (0 ≤ q ≤ 1) of an ascending-sorted slice by the
/// nearest-rank rule: the smallest sample with at least `q` of the samples
/// at or below it. Returns 0.0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean_u64(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64
}

/// Median of a set of values; the mean of the middle two for an even count.
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

/// Median of per-slice event counts, scaled to events per second. A slice
/// that a stall empties pulls a mean down by its whole share; the median
/// moves only when most slices do.
pub fn median_of_slices(counts: &[u64], slice_secs: f64) -> f64 {
    let per_sec: Vec<f64> = counts.iter().map(|&c| c as f64 / slice_secs).collect();
    median(&per_sec)
}

/// Median over slices of each slice's exact `q`-quantile; slices without a
/// sample are skipped. One slice that a stall or a background burst
/// inflates moves a pooled tail percentile, and leaves this one alone.
pub fn median_slice_percentile(sorted_slices: &[Vec<u64>], q: f64) -> f64 {
    let per_slice: Vec<f64> = sorted_slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile_sorted(s, q))
        .collect();
    median(&per_slice)
}

/// First, second and third quartiles as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// which is what the benchmark driver uses for its spread check.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median (the driver's spread).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// Windowed value of a monotone counter: end minus start, never negative
/// (a counter re-bound to a fresh instance mid-window reads as zero).
pub fn delta(start: u64, end: u64) -> u64 {
    end.saturating_sub(start)
}

/// Element-wise [`delta`] of two counter vectors of equal length.
pub fn delta_vec(start: &[u64], end: &[u64]) -> Vec<u64> {
    start.iter().zip(end).map(|(&s, &e)| delta(s, e)).collect()
}

/// `numerator / denominator`, or 0.0 when the denominator is zero.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Largest element over the mean of all elements (1.0 = perfectly even).
pub fn imbalance(values: &[u64]) -> f64 {
    let total: u64 = values.iter().sum();
    let max = values.iter().copied().max().unwrap_or(0);
    ratio(max as f64 * values.len() as f64, total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.50), 50.0);
        assert_eq!(percentile_sorted(&s, 0.95), 95.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7], 0.95), 7.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        // Four samples: p50 is the second, not an interpolation.
        assert_eq!(percentile_sorted(&[10, 20, 30, 40], 0.5), 20.0);
        assert_eq!(percentile_sorted(&[10, 20, 30, 40], 0.51), 30.0);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_of_slices_ignores_one_stalled_slice() {
        // Nine healthy half-second slices and one stalled to zero.
        let mut counts = vec![500u64; 9];
        counts.push(0);
        assert_eq!(median_of_slices(&counts, 0.5), 1000.0);
    }

    #[test]
    fn slice_percentile_shrugs_off_one_bad_slice() {
        let calm: Vec<u64> = (1..=100).collect();
        let stalled: Vec<u64> = (1..=100).map(|x| x * 50).collect();
        let slices = vec![calm.clone(), stalled, calm.clone(), Vec::new(), calm];
        assert_eq!(median_slice_percentile(&slices, 0.95), 95.0);
        assert_eq!(median_slice_percentile(&[], 0.95), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn delta_windows_counters_and_never_goes_negative() {
        assert_eq!(delta(10, 25), 15);
        assert_eq!(delta(25, 10), 0);
        assert_eq!(delta_vec(&[1, 5, 9], &[4, 5, 7]), vec![3, 0, 0]);
    }

    #[test]
    fn ratio_and_imbalance_guard_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(imbalance(&[10, 10, 10, 10]), 1.0);
        assert_eq!(imbalance(&[40, 0, 0, 0]), 4.0);
        assert_eq!(imbalance(&[]), 0.0);
    }
}
