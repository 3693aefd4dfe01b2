//! One-pass mean/variance accumulation (Welford).

/// Streaming mean, variance, min and max over `f64` samples.
///
/// Uses Welford's algorithm, which is numerically stable for the long
/// accumulation runs the simulator produces (10⁶–10⁸ samples).
///
/// # Examples
///
/// ```
/// use memlat_stats::StreamingStats;
///
/// let mut s = StreamingStats::new();
/// s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds a block of samples — bit-identical to pushing each element in
    /// order (Welford's recurrence is inherently sequential, so the win is
    /// one call and one bounds check per block instead of per sample).
    #[inline]
    pub fn push_slice(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x);
        }
    }

    /// Number of samples seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (`/n`); 0 when fewer than two samples.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (`/(n−1)`); 0 when fewer than two samples.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean, `s/√n`.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest sample (`+∞` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`−∞` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for StreamingStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for StreamingStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn single_sample() {
        let s: StreamingStats = [5.0].into_iter().collect();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn textbook_variance() {
        let s: StreamingStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.population_variance(), 4.0);
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let whole: StreamingStats = xs.iter().copied().collect();
        let mut a: StreamingStats = xs[..300].iter().copied().collect();
        let b: StreamingStats = xs[300..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: StreamingStats = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&StreamingStats::new());
        assert_eq!(s, before);
        let mut e = StreamingStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn numerical_stability_with_large_offset() {
        // Welford keeps precision where naive Σx² fails.
        let offset = 1e9;
        let s: StreamingStats = (0..10_000).map(|i| offset + (i % 7) as f64).collect();
        assert!((s.mean() - (offset + 3.0)).abs() < 1e-3);
        assert!(s.population_variance() > 3.9 && s.population_variance() < 4.1);
    }
}
