//! The exponential distribution.

use rand::RngCore;

use crate::{open_unit, Continuous, ParamError};

/// Exponential distribution with rate `λ` (mean `1/λ`).
///
/// Models service times at memcached servers and at the database in the
/// paper's `GI^X/M/1` and `M/M/1` stages, and doubles as the Poisson
/// inter-arrival law (the paper's `ξ = 0` burst-degree case).
///
/// # Examples
///
/// ```
/// use memlat_dist::{Continuous, Exponential};
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let d = Exponential::new(80_000.0)?; // μ_S = 80 Kps
/// assert!((d.mean() - 12.5e-6).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `rate` is finite and positive.
    pub fn new(rate: f64) -> Result<Self, ParamError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ParamError::new(format!(
                "exponential rate must be positive, got {rate}"
            )));
        }
        Ok(Self { rate })
    }

    /// Creates an exponential distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `mean` is finite and positive.
    pub fn with_mean(mean: f64) -> Result<Self, ParamError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(ParamError::new(format!(
                "exponential mean must be positive, got {mean}"
            )));
        }
        Self::new(1.0 / mean)
    }

    /// The rate parameter `λ`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Exponential {
    /// Draws one sample through a concrete RNG type — the monomorphized
    /// twin of [`Continuous::sample`], bit-identical draw for draw.
    ///
    /// Uses the deterministic [`crate::simd::dln`] kernel so that scalar
    /// draws and the AVX2 [`crate::simd::exp_from_bits`] lane produce the
    /// same bits.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        -crate::simd::dln(open_unit(rng)) / self.rate
    }
}

impl Continuous for Exponential {
    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            -(-self.rate * t).exp_m1()
        }
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn laplace(&self, s: f64) -> f64 {
        assert!(s >= 0.0, "laplace transform requires s >= 0, got {s}");
        self.rate / (self.rate + s)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&p),
            "quantile requires p in [0,1), got {p}"
        );
        -(-p).ln_1p() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::with_mean(f64::INFINITY).is_err());
    }

    #[test]
    fn moments() {
        let d = Exponential::new(4.0).unwrap();
        assert_eq!(d.mean(), 0.25);
        assert_eq!(d.variance(), 0.0625);
    }

    #[test]
    fn cdf_values() {
        let d = Exponential::new(1.0).unwrap();
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.cdf(1.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-15);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Exponential::new(3.0).unwrap();
        for p in [0.0, 0.1, 0.5, 0.9, 0.999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn laplace_matches_numeric_default() {
        let d = Exponential::new(2.5).unwrap();
        for s in [0.1, 1.0, 10.0] {
            let closed = d.laplace(s);
            let numeric = crate::laplace::numeric_laplace(&|t| d.cdf(t), s, d.mean());
            assert!((closed - numeric).abs() < 1e-10, "s={s}");
        }
    }

    #[test]
    fn sample_mean_converges() {
        let d = Exponential::new(2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn memorylessness_of_samples() {
        // P{T > a+b | T > a} = P{T > b}: check via survival function.
        let d = Exponential::new(1.5).unwrap();
        let (a, b) = (0.4, 0.9);
        let lhs = d.survival(a + b) / d.survival(a);
        assert!((lhs - d.survival(b)).abs() < 1e-12);
    }
}
