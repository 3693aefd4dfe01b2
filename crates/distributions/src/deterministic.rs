//! The deterministic (degenerate) distribution.

use rand::RngCore;

use crate::{Continuous, ParamError};

/// A point mass at `value ≥ 0`.
///
/// Models perfectly paced arrivals (the `D/M/1` baseline — the least bursty
/// arrival pattern, useful as the opposite pole from the heavy-tailed
/// Facebook trace) and constant network delays.
///
/// # Examples
///
/// ```
/// use memlat_dist::{Continuous, Deterministic};
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let d = Deterministic::new(16e-6)?;
/// assert_eq!(d.variance(), 0.0);
/// assert!((d.laplace(1000.0) - (-16e-3f64).exp()).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Creates a point mass at `value`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `value` is finite and non-negative.
    pub fn new(value: f64) -> Result<Self, ParamError> {
        if !(value.is_finite() && value >= 0.0) {
            return Err(ParamError::new(format!(
                "deterministic value must be finite and non-negative, got {value}"
            )));
        }
        Ok(Self { value })
    }

    /// The constant value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl Deterministic {
    /// Draws one sample through a concrete RNG type — the monomorphized
    /// twin of [`Continuous::sample`] (no RNG state is consumed).
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, _rng: &mut R) -> f64 {
        self.value
    }
}

impl Continuous for Deterministic {
    fn cdf(&self, t: f64) -> f64 {
        if t >= self.value {
            1.0
        } else {
            0.0
        }
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn variance(&self) -> f64 {
        0.0
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn laplace(&self, s: f64) -> f64 {
        assert!(s >= 0.0, "laplace transform requires s >= 0, got {s}");
        (-s * self.value).exp()
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&p),
            "quantile requires p in [0,1), got {p}"
        );
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_value() {
        assert!(Deterministic::new(-1.0).is_err());
        assert!(Deterministic::new(f64::NAN).is_err());
    }

    #[test]
    fn step_cdf() {
        let d = Deterministic::new(2.0).unwrap();
        assert_eq!(d.cdf(1.999), 0.0);
        assert_eq!(d.cdf(2.0), 1.0);
        assert_eq!(d.cdf(3.0), 1.0);
    }

    #[test]
    fn sampling_is_constant() {
        let d = Deterministic::new(0.5).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 0.5);
        }
    }

    #[test]
    fn zero_point_mass() {
        let d = Deterministic::new(0.0).unwrap();
        assert_eq!(d.cdf(0.0), 1.0);
        assert_eq!(d.laplace(5.0), 1.0);
    }
}
