//! Order statistics with the conventions of Python's `statistics`
//! module, so a reader can recompute any reported number with
//! `statistics.median` and `statistics.quantiles(values, n=4)`.

/// Median of `values`; the mean of the two middle values for an even
/// count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// that `statistics.quantiles(values, n=4)` uses by default. Like
/// Python, it extrapolates beyond the data for very small samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Exact integer arithmetic as in CPython: delta may be negative.
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Distance between the quartiles as a share of the median: the
/// run-to-run spread every bound in `BENCHMARK.json` is compared with.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    // Expected values are what CPython 3 prints for the same calls.
    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_with_ties() {
        assert_eq!(median(&[2.0, 2.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 1.0, 3.0, 3.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1,2,2,2,3], n=4)
        assert_eq!(quartiles(&[1.0, 2.0, 2.0, 2.0, 3.0]), [1.5, 2.0, 2.5]);
        // statistics.quantiles([5, 1], n=4): extrapolates
        assert_eq!(quartiles(&[5.0, 1.0]), [0.0, 3.0, 6.0]);
        // statistics.quantiles([4, 4, 4, 4, 4], n=4): all ties
        assert_eq!(quartiles(&[4.0; 5]), [4.0, 4.0, 4.0]);
        assert_eq!(quartiles(&[9.0]), [9.0, 9.0, 9.0]);
    }

    #[test]
    fn quartiles_ignore_input_order() {
        let a = quartiles(&[0.9, 1.3, 1.0, 1.1, 1.2, 0.8]);
        let b = quartiles(&[1.3, 1.2, 1.1, 1.0, 0.9, 0.8]);
        assert_eq!(a, b);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[3.0; 4]), 0.0);
    }
}
