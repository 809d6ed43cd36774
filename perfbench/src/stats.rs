//! Order statistics for the benchmark's summaries.

/// Median of `xs`: the middle value, or the mean of the two middle values
/// for an even count. `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three cut points of `xs` into quarters, by the same rule as
/// Python's `statistics.quantiles(xs, n=4)` (its default "exclusive"
/// method), so the spread this benchmark reports is the spread a reader
/// recomputes from its printed samples. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, n - 1);
        // Signed: the clamp can put j past i*m/4 for tiny n.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// The highest whole percentile of `xs` that still has at least `beyond`
/// samples above it, with its nearest-rank value: `(percentile, value)`.
/// `None` when the count is too small for any percentile to have that
/// many samples beyond it.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(u32, f64)> {
    let s = sorted(xs);
    let n = s.len();
    (1..100u32).rev().find_map(|p| {
        // Nearest rank: the smallest 1-based rank k with k >= p*n/100.
        let k = (p as usize * n).div_ceil(100).max(1);
        (n >= k + beyond).then(|| (p, s[k - 1]))
    })
}

/// `num / den`, or `0.0` when the denominator is zero (a ratio over work
/// the workload never did).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_enough_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), Some((90, 90.0)));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), Some((50, 10.0)));
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs, 10), None);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
