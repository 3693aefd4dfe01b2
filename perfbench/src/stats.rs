//! Order statistics over measured samples.

/// Median of `xs`: the middle value, or the mean of the two middle
/// values for an even count. `NaN` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (0–100] of already **sorted** samples:
/// the smallest sample with at least `p`% of the samples at or below
/// it. `NaN` for an empty slice.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Sorts `xs` in place and returns its nearest-rank percentile `p`.
#[must_use]
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    percentile_sorted(xs, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 50.0), 50.0);
        assert_eq!(percentile(&mut xs, 99.0), 99.0);
        assert_eq!(percentile(&mut xs, 100.0), 100.0);
        assert_eq!(percentile(&mut xs, 0.5), 1.0);
        // Ten samples: p99 is the largest, p50 the fifth.
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&mut ten, 99.0), 10.0);
        assert_eq!(percentile(&mut ten, 50.0), 5.0);
        assert!(percentile(&mut [], 50.0).is_nan());
    }
}
