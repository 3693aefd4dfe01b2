//! Empirical cumulative distribution functions.

/// An empirical CDF over a sorted sample set.
///
/// Provides exact order-statistic quantiles (inverse-CDF convention:
/// the smallest sample `x` with `F̂(x) ≥ p`) and the Kolmogorov–Smirnov
/// distance against a model CDF — the tool used to compare simulated
/// per-key latency against the paper's eq. (9) band (Fig. 4).
///
/// # Examples
///
/// ```
/// use memlat_stats::Ecdf;
/// let e = Ecdf::from_samples(&[3.0, 1.0, 2.0]);
/// assert_eq!(e.quantile(0.0), 1.0);
/// assert_eq!(e.quantile(0.99), 3.0);
/// assert!((e.cdf(2.0) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples (copied and sorted; NaNs are dropped).
    ///
    /// # Panics
    ///
    /// Panics if no finite samples remain.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|x| !x.is_nan()).collect();
        assert!(!sorted.is_empty(), "ECDF needs at least one finite sample");
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    /// Builds an ECDF from an already-sorted vector (takes ownership, no
    /// copy).
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is empty or not sorted.
    #[must_use]
    pub fn from_sorted(sorted: Vec<f64>) -> Self {
        assert!(!sorted.is_empty(), "ECDF needs at least one sample");
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "from_sorted requires sorted input"
        );
        Self { sorted }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF is empty (never true for a constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F̂(x)`: fraction of samples `≤ x`.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `p`-th quantile (inverse CDF): smallest sample with
    /// `F̂ ≥ p`; `p ∈ [0, 1]` (1 returns the maximum).
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ [0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile requires p in [0,1], got {p}"
        );
        let n = self.sorted.len();
        if p <= 0.0 {
            return self.sorted[0];
        }
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[idx - 1]
    }

    /// Sample mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        memlat_numerics::kahan::compensated_sum(&self.sorted) / self.sorted.len() as f64
    }

    /// Minimum sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Kolmogorov–Smirnov statistic `sup_x |F̂(x) − F(x)|` against a model
    /// CDF.
    #[must_use]
    pub fn ks_distance(&self, model_cdf: impl Fn(f64) -> f64) -> f64 {
        let n = self.sorted.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = model_cdf(x);
            let lo = i as f64 / n;
            let hi = (i + 1) as f64 / n;
            d = d.max((f - lo).abs()).max((hi - f).abs());
        }
        d
    }

    /// A view of the sorted samples.
    #[must_use]
    pub fn as_sorted(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_panics() {
        let _ = Ecdf::from_samples(&[]);
    }

    #[test]
    fn nan_filtered() {
        let e = Ecdf::from_samples(&[1.0, f64::NAN, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn cdf_step_values() {
        let e = Ecdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(10.0), 1.0);
    }

    #[test]
    fn quantiles_are_order_statistics() {
        let e = Ecdf::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(e.quantile(0.2), 1.0);
        assert_eq!(e.quantile(0.21), 2.0);
        assert_eq!(e.quantile(0.5), 3.0);
        assert_eq!(e.quantile(1.0), 5.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 5.0);
    }

    #[test]
    fn ks_distance_of_perfect_uniform_sample() {
        // Samples at i/(n+1): KS vs U(0,1) is small.
        let n = 1000;
        let xs: Vec<f64> = (1..=n).map(|i| i as f64 / (n + 1) as f64).collect();
        let e = Ecdf::from_samples(&xs);
        let d = e.ks_distance(|x| x.clamp(0.0, 1.0));
        assert!(d < 0.01, "d={d}");
    }

    #[test]
    fn ks_distance_detects_mismatch() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64 / 101.0).collect();
        let e = Ecdf::from_samples(&xs);
        // Compare against Exp(1): grossly different from U(0,1).
        let d = e.ks_distance(|x| 1.0 - (-x).exp());
        assert!(d > 0.2, "d={d}");
    }

    #[test]
    fn exponential_sample_matches_model() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let lam = 2.0;
        let xs: Vec<f64> = (0..20_000)
            .map(|_| {
                let u = rng.next_u64() as f64 / u64::MAX as f64;
                -(1.0 - u).max(1e-12).ln() / lam
            })
            .collect();
        let e = Ecdf::from_samples(&xs);
        let d = e.ks_distance(|x| 1.0 - (-lam * x).exp());
        assert!(d < 0.02, "d={d}");
    }

    #[test]
    fn mean_matches_arithmetic() {
        let e = Ecdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.mean(), 2.5);
    }
}
