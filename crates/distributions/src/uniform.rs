//! The continuous uniform distribution on `[a, b]`, `0 ≤ a < b`.

use rand::RngCore;

use crate::{open_unit, Continuous, ParamError};

/// Uniform distribution on `[lo, hi]` with non-negative support.
///
/// Models jittered-but-bounded arrival pacing; a low-variability foil to
/// the heavy-tailed Generalized Pareto law in sensitivity sweeps.
///
/// # Examples
///
/// ```
/// use memlat_dist::{Continuous, Uniform};
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let d = Uniform::new(0.0, 4.0)?;
/// assert_eq!(d.mean(), 2.0);
/// assert_eq!(d.cdf(1.0), 0.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `0 ≤ lo < hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self, ParamError> {
        if !(lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo < hi) {
            return Err(ParamError::new(format!(
                "uniform bounds must satisfy 0 <= lo < hi, got [{lo}, {hi}]"
            )));
        }
        Ok(Self { lo, hi })
    }

    /// Creates a uniform distribution on `[0, 2·mean]` (the maximum-entropy
    /// uniform with the given mean).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] unless `mean` is finite and positive.
    pub fn with_mean(mean: f64) -> Result<Self, ParamError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(ParamError::new(format!(
                "uniform mean must be positive, got {mean}"
            )));
        }
        Self::new(0.0, 2.0 * mean)
    }

    /// Lower bound.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl Uniform {
    /// Draws one sample through a concrete RNG type — the monomorphized
    /// twin of [`Continuous::sample`], bit-identical draw for draw.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + (self.hi - self.lo) * open_unit(rng)
    }
}

impl Continuous for Uniform {
    fn cdf(&self, t: f64) -> f64 {
        ((t - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn laplace(&self, s: f64) -> f64 {
        assert!(s >= 0.0, "laplace transform requires s >= 0, got {s}");
        if s == 0.0 {
            return 1.0;
        }
        let w = self.hi - self.lo;
        ((-s * self.lo).exp() - (-s * self.hi).exp()) / (s * w)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&p),
            "quantile requires p in [0,1), got {p}"
        );
        self.lo + p * (self.hi - self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_bounds() {
        assert!(Uniform::new(1.0, 1.0).is_err());
        assert!(Uniform::new(-0.5, 1.0).is_err());
        assert!(Uniform::new(2.0, 1.0).is_err());
    }

    #[test]
    fn with_mean_centers_correctly() {
        let d = Uniform::with_mean(3.0).unwrap();
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.lo(), 0.0);
        assert_eq!(d.hi(), 6.0);
    }

    #[test]
    fn laplace_closed_vs_numeric() {
        let d = Uniform::new(0.5, 2.5).unwrap();
        for s in [0.1, 1.0, 10.0] {
            let closed = d.laplace(s);
            let numeric = crate::laplace::numeric_laplace(&|t| d.cdf(t), s, d.mean());
            assert!((closed - numeric).abs() < 1e-10, "s={s}");
        }
    }

    #[test]
    fn samples_within_bounds() {
        let d = Uniform::new(1.0, 2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((1.0..2.0).contains(&x));
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Uniform::new(0.0, 10.0).unwrap();
        for p in [0.0, 0.25, 0.5, 0.75, 0.99] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-12);
        }
    }
}
