//! The hyperexponential distribution (probabilistic mixture of
//! exponentials).

use rand::RngCore;

use crate::{open_unit, Continuous, ParamError};

/// Hyperexponential distribution: with probability `w_i`, the variate is
/// `Exp(λ_i)`.
///
/// Hyperexponentials are *more* variable than a single exponential
/// (coefficient of variation > 1), making them a light-weight stand-in for
/// bursty arrivals with a closed-form Laplace transform — handy for
/// validating the numeric-transform path used by the Generalized Pareto
/// law.
///
/// # Examples
///
/// ```
/// use memlat_dist::{Continuous, Hyperexponential};
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let h = Hyperexponential::new(&[0.9, 0.1], &[10.0, 0.5])?;
/// // L(s) = Σ w_i λ_i/(λ_i + s)
/// let s = 2.0;
/// let expect = 0.9 * 10.0 / 12.0 + 0.1 * 0.5 / 2.5;
/// assert!((h.laplace(s) - expect).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperexponential {
    weights: Vec<f64>,
    rates: Vec<f64>,
}

impl Hyperexponential {
    /// Creates a hyperexponential from mixture weights and per-phase rates.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the slices differ in length or are empty,
    /// if any weight is negative or any rate non-positive, or if the
    /// weights do not sum to 1 (within 1e-9).
    pub fn new(weights: &[f64], rates: &[f64]) -> Result<Self, ParamError> {
        if weights.is_empty() || weights.len() != rates.len() {
            return Err(ParamError::new(
                "hyperexponential needs equal, non-zero numbers of weights and rates",
            ));
        }
        let sum: f64 = weights.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(ParamError::new(format!("weights must sum to 1, got {sum}")));
        }
        for &w in weights {
            if !(w.is_finite() && w >= 0.0) {
                return Err(ParamError::new(format!(
                    "weight must be non-negative, got {w}"
                )));
            }
        }
        for &r in rates {
            if !(r.is_finite() && r > 0.0) {
                return Err(ParamError::new(format!("rate must be positive, got {r}")));
            }
        }
        Ok(Self {
            weights: weights.to_vec(),
            rates: rates.to_vec(),
        })
    }

    /// Builds a two-phase hyperexponential with the given mean and squared
    /// coefficient of variation `scv > 1`, using balanced means.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `mean ≤ 0` or `scv ≤ 1`.
    pub fn with_mean_scv(mean: f64, scv: f64) -> Result<Self, ParamError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(ParamError::new(format!(
                "mean must be positive, got {mean}"
            )));
        }
        if !(scv.is_finite() && scv > 1.0) {
            return Err(ParamError::new(format!(
                "hyperexponential requires scv > 1, got {scv}"
            )));
        }
        // Balanced-means H2 fit (Whitt): p = (1 + sqrt((scv-1)/(scv+1)))/2.
        let p = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
        let l1 = 2.0 * p / mean;
        let l2 = 2.0 * (1.0 - p) / mean;
        Self::new(&[p, 1.0 - p], &[l1, l2])
    }

    /// Number of phases.
    #[must_use]
    pub fn phases(&self) -> usize {
        self.rates.len()
    }
}

impl Hyperexponential {
    /// Draws one sample through a concrete RNG type — the monomorphized
    /// twin of [`Continuous::sample`], bit-identical draw for draw (the
    /// phase's exponential draw is inlined, same formula).
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = open_unit(rng);
        let mut acc = 0.0;
        for (w, r) in self.weights.iter().zip(&self.rates) {
            acc += w;
            if u <= acc {
                return -crate::simd::dln(open_unit(rng)) / *r;
            }
        }
        // Floating-point slack: fall through to the last phase.
        -crate::simd::dln(open_unit(rng)) / *self.rates.last().expect("non-empty")
    }
}

impl Continuous for Hyperexponential {
    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        self.weights
            .iter()
            .zip(&self.rates)
            .map(|(w, r)| w * -(-r * t).exp_m1())
            .sum()
    }

    fn mean(&self) -> f64 {
        self.weights
            .iter()
            .zip(&self.rates)
            .map(|(w, r)| w / r)
            .sum()
    }

    fn variance(&self) -> f64 {
        let m = self.mean();
        let m2: f64 = self
            .weights
            .iter()
            .zip(&self.rates)
            .map(|(w, r)| 2.0 * w / (r * r))
            .sum();
        m2 - m * m
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn laplace(&self, s: f64) -> f64 {
        assert!(s >= 0.0, "laplace transform requires s >= 0, got {s}");
        self.weights
            .iter()
            .zip(&self.rates)
            .map(|(w, r)| w * r / (r + s))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_params() {
        assert!(Hyperexponential::new(&[], &[]).is_err());
        assert!(Hyperexponential::new(&[0.5, 0.4], &[1.0, 2.0]).is_err()); // sum != 1
        assert!(Hyperexponential::new(&[0.5, 0.5], &[1.0]).is_err());
        assert!(Hyperexponential::new(&[0.5, 0.5], &[1.0, -2.0]).is_err());
        assert!(Hyperexponential::with_mean_scv(1.0, 0.5).is_err());
    }

    #[test]
    fn single_phase_is_exponential() {
        let h = Hyperexponential::new(&[1.0], &[3.0]).unwrap();
        let e = crate::Exponential::new(3.0).unwrap();
        for t in [0.1, 1.0, 2.0] {
            assert!((h.cdf(t) - e.cdf(t)).abs() < 1e-14);
        }
        assert!((h.mean() - e.mean()).abs() < 1e-15);
    }

    #[test]
    fn with_mean_scv_hits_targets() {
        let h = Hyperexponential::with_mean_scv(2.0, 4.0).unwrap();
        assert!((h.mean() - 2.0).abs() < 1e-12);
        let scv = h.variance() / (h.mean() * h.mean());
        assert!((scv - 4.0).abs() < 1e-9, "scv={scv}");
    }

    #[test]
    fn laplace_closed_vs_numeric() {
        let h = Hyperexponential::new(&[0.7, 0.3], &[5.0, 0.8]).unwrap();
        for s in [0.1, 1.0, 10.0] {
            let numeric = crate::laplace::numeric_laplace(&|t| h.cdf(t), s, h.mean());
            assert!((h.laplace(s) - numeric).abs() < 1e-10, "s={s}");
        }
    }

    #[test]
    fn sample_mean_converges() {
        let h = Hyperexponential::with_mean_scv(1.0, 9.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 400_000;
        let mean: f64 = (0..n).map(|_| h.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
    }
}
