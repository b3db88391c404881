//! Order statistics for reporting timings: median, quartiles, and the
//! tail-percentile rule (a percentile is only reported when at least ten
//! samples lie beyond it).

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `xs` (finite values only).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Median of `xs`; the mean of the middle pair for an even count. Zero
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (its default "exclusive" method,
/// including its extrapolation for tiny samples), so spreads computed
/// here match spreads computed from the printed values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let v = sorted(xs);
    let ld = v.len() as i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// True when percentile `p` of `n` samples leaves at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn percentile_valid(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= MIN_BEYOND as f64 - 1e-9
}

/// The highest percentile of `n` samples that still leaves
/// [`MIN_BEYOND`] samples beyond it, or `None` below that many samples.
pub fn highest_valid_percentile(n: usize) -> Option<f64> {
    (n >= MIN_BEYOND).then(|| 100.0 * (1.0 - MIN_BEYOND as f64 / n as f64))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(!percentile_valid(99, 90.0));
        assert!(percentile_valid(100, 90.0));
        assert!(percentile_valid(1000, 99.0));
        assert!(!percentile_valid(999, 99.0));
        assert!(percentile_valid(20, 50.0));
    }

    #[test]
    fn highest_valid_percentile_leaves_ten_beyond() {
        assert_eq!(highest_valid_percentile(9), None);
        assert_eq!(highest_valid_percentile(10), Some(0.0));
        assert_eq!(highest_valid_percentile(100), Some(90.0));
        assert_eq!(highest_valid_percentile(400), Some(97.5));
        let p = highest_valid_percentile(137).unwrap();
        assert!(percentile_valid(137, p));
        assert!(!percentile_valid(137, p + 0.1));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }
}
