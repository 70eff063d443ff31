//! Order statistics the benchmark reports: medians, quartile spread and the "highest
//! percentile the sample supports" rule.

/// Median of `values` (mean of the two middle values for an even count); 0 when empty.
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value at quantile `q` in `[0, 1]` by the exclusive method, the same rule as
/// Python's `statistics.quantiles` (which the acceptance check uses for its spreads).
fn quantile_exclusive(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let position = q * (n as f64 + 1.0);
    let lower = (position.floor() as usize).clamp(1, n - 1);
    let fraction = position - lower as f64;
    sorted[lower - 1] + (sorted[lower] - sorted[lower - 1]) * fraction
}

/// Distance between the first and third quartile as a share of the median — the
/// run-to-run spread `--compare` weighs against a metric's bound. `None` for fewer than
/// two values or a zero median.
pub(crate) fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = median(&sorted);
    if mid == 0.0 {
        return None;
    }
    let iqr = quantile_exclusive(&sorted, 0.75) - quantile_exclusive(&sorted, 0.25);
    Some((iqr / mid).abs())
}

/// The tail percentiles the benchmark is willing to report, highest last.
const TAIL_PERCENTILES: [f64; 4] = [50.0, 75.0, 90.0, 99.0];

/// The highest percentile of [`TAIL_PERCENTILES`] that has at least ten samples beyond
/// it in a sample of `count` values (a p99 read off 30 samples is one outlier, not a
/// percentile). Falls back to the median for small samples.
pub(crate) fn supported_percentile(count: usize) -> f64 {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|p| (count as f64 * (100.0 - p) / 100.0).floor() >= 10.0)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(5), 50.0);
        assert_eq!(supported_percentile(20), 50.0);
        assert_eq!(supported_percentile(40), 75.0);
        assert_eq!(supported_percentile(99), 75.0);
        assert_eq!(supported_percentile(100), 90.0);
        assert_eq!(supported_percentile(999), 90.0);
        assert_eq!(supported_percentile(1000), 99.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 50.0);
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(percentile(&values, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }
}
