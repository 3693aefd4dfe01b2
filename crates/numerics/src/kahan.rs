//! Compensated (Kahan–Babuška) summation.

/// A running sum with Neumaier's improved Kahan compensation.
///
/// Long simulation runs accumulate millions of latency samples; naive `f64`
/// summation loses precision once the running sum dwarfs the increments.
/// `KahanSum` keeps a correction term so the result is accurate to within a
/// few ulps regardless of length.
///
/// # Examples
///
/// ```
/// use memlat_numerics::KahanSum;
///
/// let mut s = KahanSum::new();
/// for _ in 0..10_000 {
///     s.add(0.1);
/// }
/// assert!((s.sum() - 1000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// Creates an empty sum.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one term to the running sum.
    pub fn add(&mut self, value: f64) {
        let t = self.sum + value;
        if self.sum.abs() >= value.abs() {
            self.compensation += (self.sum - t) + value;
        } else {
            self.compensation += (value - t) + self.sum;
        }
        self.sum = t;
    }

    /// Returns the compensated total.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for v in iter {
            s.add(v);
        }
        s
    }
}

impl Extend<f64> for KahanSum {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

/// Sums a slice with compensation; convenience wrapper over [`KahanSum`].
///
/// # Examples
///
/// ```
/// let total = memlat_numerics::kahan::compensated_sum(&[1.0, 1e100, 1.0, -1e100]);
/// assert_eq!(total, 2.0);
/// ```
#[must_use]
pub fn compensated_sum(values: &[f64]) -> f64 {
    values.iter().copied().collect::<KahanSum>().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(KahanSum::new().sum(), 0.0);
    }

    #[test]
    fn catastrophic_cancellation_is_compensated() {
        // Naive summation yields 0.0 here; Neumaier keeps the small terms.
        assert_eq!(compensated_sum(&[1.0, 1e100, 1.0, -1e100]), 2.0);
    }

    #[test]
    fn many_small_terms() {
        let mut s = KahanSum::new();
        for _ in 0..1_000_000 {
            s.add(1e-6);
        }
        assert!((s.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: KahanSum = [1.0, 2.0, 3.0].into_iter().collect();
        s.extend([4.0]);
        assert_eq!(s.sum(), 10.0);
    }
}
