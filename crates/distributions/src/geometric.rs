//! The geometric batch-size distribution of the paper's `GI^X/M/1` model.

use rand::RngCore;

use crate::{open_unit, Discrete, ParamError};

/// Batch size `X` on `{1, 2, …}` with `P{X = n} = q^{n-1}(1 − q)`.
///
/// `q` is the paper's *concurrent probability*: each additional key in a
/// batch arrives "concurrently" (within <1 µs) with probability `q`
/// (Facebook measured `q ≈ 0.1159`, the paper's experiments use `q = 0.1`).
/// The mean batch size is `1/(1−q)`.
///
/// # Examples
///
/// ```
/// use memlat_dist::{Discrete, GeometricBatch};
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let x = GeometricBatch::new(0.1)?;
/// assert!((x.mean() - 1.0 / 0.9).abs() < 1e-12);
/// assert!((x.pmf(1) - 0.9).abs() < 1e-12);
/// assert!((x.pmf(2) - 0.09).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricBatch {
    q: f64,
    // ln(q), hoisted out of the per-draw inverse CDF (−∞ when q = 0,
    // where the single-key fast path never reads it).
    ln_q: f64,
}

impl GeometricBatch {
    /// Creates a batch-size distribution with concurrency probability
    /// `q ∈ [0, 1)`.
    ///
    /// `q = 0` means every batch has exactly one key.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `q ∉ [0, 1)`.
    pub fn new(q: f64) -> Result<Self, ParamError> {
        if !(q.is_finite() && (0.0..1.0).contains(&q)) {
            return Err(ParamError::new(format!(
                "concurrency probability must satisfy 0 <= q < 1, got {q}"
            )));
        }
        Ok(Self { q, ln_q: q.ln() })
    }

    /// The concurrency probability `q`.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl GeometricBatch {
    /// Draws one batch size through a concrete RNG type — the
    /// monomorphized twin of [`Discrete::sample`], bit-identical draw
    /// for draw.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.q == 0.0 {
            return 1;
        }
        // Inverse CDF: smallest n with 1 − q^n ≥ u ⇔ n ≥ ln(1−u)/ln(q).
        let u = open_unit(rng);
        // n = 1 ⇔ u ≤ 1 − q: the common case (q ≪ 1) needs only the
        // compare, not the log — 1 − u ≥ q gives ln(1−u)/ln(q) ≤ 1.
        if u <= 1.0 - self.q {
            return 1;
        }
        let n = (crate::simd::dln(1.0 - u) / self.ln_q).ceil();
        (n as u64).max(1)
    }
}

impl Discrete for GeometricBatch {
    fn pmf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        self.q.powi((k - 1) as i32) * (1.0 - self.q)
    }

    fn cdf(&self, k: u64) -> f64 {
        if k == 0 {
            0.0
        } else {
            1.0 - self.q.powi(k as i32)
        }
    }

    fn mean(&self) -> f64 {
        1.0 / (1.0 - self.q)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> u64 {
        self.sample_with(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_q() {
        assert!(GeometricBatch::new(1.0).is_err());
        assert!(GeometricBatch::new(-0.1).is_err());
        assert!(GeometricBatch::new(f64::NAN).is_err());
    }

    #[test]
    fn q_zero_is_always_one() {
        let x = GeometricBatch::new(0.0).unwrap();
        assert_eq!(x.mean(), 1.0);
        assert_eq!(x.pmf(1), 1.0);
        assert_eq!(x.pmf(2), 0.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(x.sample(&mut rng), 1);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let x = GeometricBatch::new(0.3).unwrap();
        let total: f64 = (1..200).map(|k| x.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_consistent_with_pmf() {
        let x = GeometricBatch::new(0.45).unwrap();
        let mut acc = 0.0;
        for k in 1..50 {
            acc += x.pmf(k);
            assert!((x.cdf(k) - acc).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn facebook_concurrency_probability() {
        // P{X >= 2} = q: the paper's "two or more keys within <1 µs with
        // probability 0.1159".
        let x = GeometricBatch::new(0.1159).unwrap();
        assert!((1.0 - x.cdf(1) - 0.1159).abs() < 1e-12);
    }

    #[test]
    fn sample_distribution_matches_pmf() {
        let x = GeometricBatch::new(0.25).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 400_000;
        let mut counts = [0u64; 6];
        let mut mean = 0.0;
        for _ in 0..n {
            let v = x.sample(&mut rng);
            mean += v as f64;
            if v <= 5 {
                counts[v as usize] += 1;
            }
        }
        mean /= n as f64;
        assert!((mean - x.mean()).abs() < 0.01, "mean={mean}");
        for k in 1..=4u64 {
            let freq = counts[k as usize] as f64 / n as f64;
            assert!((freq - x.pmf(k)).abs() < 0.005, "k={k} freq={freq}");
        }
    }
}
