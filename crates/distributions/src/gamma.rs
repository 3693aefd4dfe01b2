//! The gamma distribution (Erlang for integer shape).

use memlat_numerics::special::gamma_p;
use rand::RngCore;

use crate::{open_unit, Continuous, ParamError};

/// Gamma distribution with shape `k > 0` and rate `β > 0` (mean `k/β`).
///
/// Integer shapes give the Erlang family — sums of exponential phases —
/// which provide *less* bursty-than-Poisson arrival processes for
/// sensitivity sweeps around the paper's burst-degree axis (Erlang sits
/// between deterministic and exponential in variability).
///
/// # Examples
///
/// ```
/// use memlat_dist::{Continuous, Gamma};
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let erlang4 = Gamma::erlang(4, 2.0)?;
/// assert_eq!(erlang4.mean(), 2.0);
/// // L(s) = (β/(β+s))^k
/// assert!((erlang4.laplace(1.0) - (2.0f64 / 3.0).powi(4)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    rate: f64,
}

impl Gamma {
    /// Creates a gamma distribution with the given shape and rate.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless both parameters are finite and
    /// positive.
    pub fn new(shape: f64, rate: f64) -> Result<Self, ParamError> {
        if !(shape.is_finite() && shape > 0.0) {
            return Err(ParamError::new(format!(
                "gamma shape must be positive, got {shape}"
            )));
        }
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ParamError::new(format!(
                "gamma rate must be positive, got {rate}"
            )));
        }
        Ok(Self { shape, rate })
    }

    /// Creates an Erlang-`k` distribution with the given **mean**: the sum
    /// of `k` exponential phases, each with mean `mean/k`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `k == 0` or `mean ≤ 0`.
    pub fn erlang(k: u32, mean: f64) -> Result<Self, ParamError> {
        if k == 0 {
            return Err(ParamError::new("erlang shape must be at least 1"));
        }
        if !(mean.is_finite() && mean > 0.0) {
            return Err(ParamError::new(format!(
                "erlang mean must be positive, got {mean}"
            )));
        }
        Self::new(f64::from(k), f64::from(k) / mean)
    }

    /// Shape parameter `k`.
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Rate parameter `β`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Draws one sample through a concrete RNG type — the monomorphized
    /// twin of [`Continuous::sample`], bit-identical draw for draw.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.shape >= 1.0 {
            Self::sample_shape_ge_one(self.shape, rng) / self.rate
        } else {
            // Boost: Gamma(k) = Gamma(k+1) · U^{1/k}.
            let g = Self::sample_shape_ge_one(self.shape + 1.0, rng);
            let u = open_unit(rng);
            g * u.powf(1.0 / self.shape) / self.rate
        }
    }

    /// Marsaglia–Tsang sampler for shape ≥ 1.
    fn sample_shape_ge_one<R: RngCore + ?Sized>(shape: f64, rng: &mut R) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            // Standard normal via Box–Muller.
            let u1 = open_unit(rng);
            let u2 = open_unit(rng);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let v = (1.0 + c * z).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = open_unit(rng);
            if u < 1.0 - 0.0331 * z.powi(4) || u.ln() < 0.5 * z * z + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

impl Continuous for Gamma {
    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, self.rate * t)
        }
    }

    fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    fn variance(&self) -> f64 {
        self.shape / (self.rate * self.rate)
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn laplace(&self, s: f64) -> f64 {
        assert!(s >= 0.0, "laplace transform requires s >= 0, got {s}");
        (self.rate / (self.rate + s)).powf(self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_params() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::erlang(0, 1.0).is_err());
        assert!(Gamma::erlang(2, -1.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        let g = Gamma::new(1.0, 2.0).unwrap();
        let e = crate::Exponential::new(2.0).unwrap();
        for t in [0.1, 0.5, 1.0, 3.0] {
            assert!((g.cdf(t) - e.cdf(t)).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn erlang_cdf_closed_form() {
        // Erlang(3, rate β): F(t) = 1 - e^{-βt}(1 + βt + (βt)²/2)
        let g = Gamma::new(3.0, 1.5).unwrap();
        for t in [0.2f64, 1.0, 2.0, 5.0] {
            let x = 1.5 * t;
            let expect = 1.0 - (-x).exp() * (1.0 + x + x * x / 2.0);
            assert!((g.cdf(t) - expect).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn laplace_closed_vs_numeric() {
        let g = Gamma::new(2.5, 3.0).unwrap();
        for s in [0.1, 1.0, 10.0] {
            let numeric = crate::laplace::numeric_laplace(&|t| g.cdf(t), s, g.mean());
            assert!((g.laplace(s) - numeric).abs() < 1e-9, "s={s}");
        }
    }

    #[test]
    fn erlang_less_variable_than_exponential() {
        let erl = Gamma::erlang(8, 1.0).unwrap();
        let exp = crate::Exponential::with_mean(1.0).unwrap();
        assert!(erl.variance() < exp.variance());
        assert_eq!(erl.mean(), exp.mean());
    }

    #[test]
    fn sample_moments_converge() {
        let g = Gamma::new(3.0, 2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.5).abs() < 0.01, "mean={mean}");
        assert!((var - 0.75).abs() < 0.02, "var={var}");
    }

    #[test]
    fn small_shape_sampler() {
        let g = Gamma::new(0.5, 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }
}
