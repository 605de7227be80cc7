//! Order statistics shared by every workload: medians, nearest-rank
//! percentiles and geometric means.

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `values`: the smallest
/// sample with at least `q` of all samples at or below it. `None` when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// How many samples lie strictly above the nearest-rank `q`-quantile
/// (the number a tail percentile rests on).
pub fn samples_beyond(count: usize, q: f64) -> usize {
    let rank = ((q * count as f64).ceil() as usize).clamp(1, count.max(1));
    count.saturating_sub(rank)
}

/// The geometric mean of strictly positive `values`; `None` when empty or
/// when any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.50), Some(50.0));
        assert_eq!(percentile(&values, 0.99), Some(99.0));
        assert_eq!(percentile(&values, 1.0), Some(100.0));
        // A quantile below the first rank clamps to the minimum.
        assert_eq!(percentile(&values, 0.001), Some(1.0));
        assert_eq!(percentile(&[5.0, 1.0], 0.5), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_of_a_thousand_rests_on_ten_samples() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn geomean_matches_closed_form() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn one_heavy_value_moves_geomean_less_than_mean() {
        let values = [1.0, 1.0, 1.0, 1000.0];
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!(geomean(&values).unwrap() < mean / 40.0);
    }
}
