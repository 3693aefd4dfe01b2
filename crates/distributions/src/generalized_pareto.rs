//! The Generalized Pareto distribution — the paper's Facebook inter-arrival
//! law.

use rand::RngCore;

use crate::{open_unit, Continuous, ParamError};

/// Generalized Pareto distribution (location 0) with shape `ξ ≥ 0` and
/// scale `σ > 0`:
///
/// ```text
/// F(t) = 1 − (1 + ξ t / σ)^{-1/ξ}        (ξ > 0)
/// F(t) = 1 − e^{-t/σ}                    (ξ = 0, the exponential limit)
/// ```
///
/// The paper (eq. 24, after Atikoglu et al.'s Facebook measurements) uses
/// this law for the inter-arrival gap of batched keys, parameterized by an
/// *average rate* `λ` and *burst degree* `ξ`:
/// `F(t) = 1 − (1 + ξλt/(1−ξ))^{-1/ξ}`, i.e. `σ = (1−ξ)/λ`, which makes the
/// mean exactly `1/λ` for any `ξ < 1`. Use [`GeneralizedPareto::facebook`]
/// for that parameterization.
///
/// For `ξ ≥ 1` the mean is infinite and the queueing model breaks down, so
/// construction is restricted to `0 ≤ ξ < 1`. Variance is infinite for
/// `ξ ≥ 0.5` (the paper sweeps ξ up to 0.95 — Table 4 — which this type
/// supports).
///
/// # Examples
///
/// ```
/// use memlat_dist::{Continuous, GeneralizedPareto};
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// // Facebook workload: ξ = 0.15, batch rate λ_B.
/// let d = GeneralizedPareto::facebook(0.15, 56_250.0)?;
/// assert!((d.mean() - 1.0 / 56_250.0).abs() < 1e-15);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralizedPareto {
    xi: f64,
    sigma: f64,
    // σ/ξ, hoisted out of the per-draw inverse CDF (0 when ξ = 0, where
    // the exponential branch never reads it).
    sigma_over_xi: f64,
}

impl GeneralizedPareto {
    /// Creates a GPD with shape `xi ∈ [0, 1)` and scale `sigma > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `xi ∉ [0, 1)` or `sigma ≤ 0` (or either is
    /// non-finite).
    pub fn new(xi: f64, sigma: f64) -> Result<Self, ParamError> {
        if !(xi.is_finite() && (0.0..1.0).contains(&xi)) {
            return Err(ParamError::new(format!(
                "generalized pareto shape must satisfy 0 <= xi < 1, got {xi}"
            )));
        }
        if !(sigma.is_finite() && sigma > 0.0) {
            return Err(ParamError::new(format!(
                "generalized pareto scale must be positive, got {sigma}"
            )));
        }
        Ok(Self {
            xi,
            sigma,
            sigma_over_xi: if xi == 0.0 { 0.0 } else { sigma / xi },
        })
    }

    /// The paper's eq. (24) parameterization: burst degree `xi` and average
    /// arrival rate `rate` (the resulting mean gap is exactly `1/rate`).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `xi ∉ [0, 1)` or `rate ≤ 0`.
    pub fn facebook(xi: f64, rate: f64) -> Result<Self, ParamError> {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(ParamError::new(format!(
                "arrival rate must be positive, got {rate}"
            )));
        }
        if xi == 0.0 {
            // Exponential limit: σ = 1/rate.
            return Self::new(0.0, 1.0 / rate);
        }
        Self::new(xi, (1.0 - xi) / rate)
    }

    /// Creates a GPD with shape `xi` and the given mean.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] under the same conditions as
    /// [`GeneralizedPareto::new`].
    pub fn with_mean(xi: f64, mean: f64) -> Result<Self, ParamError> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(ParamError::new(format!(
                "mean must be positive, got {mean}"
            )));
        }
        Self::new(xi, mean * (1.0 - xi))
    }

    /// Shape parameter `ξ` (the paper's burst degree).
    #[must_use]
    pub fn shape(&self) -> f64 {
        self.xi
    }

    /// Scale parameter `σ`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.sigma
    }
}

impl GeneralizedPareto {
    /// Draws one sample through a concrete RNG type — the monomorphized
    /// twin of [`Continuous::sample`], bit-identical draw for draw.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = open_unit(rng);
        if self.xi == 0.0 {
            -self.sigma * crate::simd::dln(u)
        } else {
            // Inverse CDF with 1-U ~ U: ((U^{-ξ}) − 1) σ/ξ, computed as the
            // deterministic `dexp(-ξ·dln(u))` composition (not libm `powf`)
            // so the scalar reference and the AVX2 `gp_from_bits` lane
            // kernel behind [`Self::fill_from_bits`] produce the same bits.
            self.sigma_over_xi * (crate::simd::dexp(-self.xi * crate::simd::dln(u)) - 1.0)
        }
    }

    /// Appends one sample per raw `next_u64` draw in `bits` onto `out` —
    /// bit-identical to feeding the same bits through
    /// [`Self::sample_with`] draw for draw. This is the gap lane of the
    /// speculative block arrival pipeline: the caller banks raw bits in
    /// scalar stream order and transforms the whole slice at once.
    pub fn fill_from_bits(&self, bits: &[u64], out: &mut Vec<f64>) {
        if self.xi == 0.0 {
            crate::simd::exp_scale_from_bits(bits, self.sigma, out);
        } else {
            crate::simd::gp_from_bits(bits, self.xi, self.sigma_over_xi, out);
        }
    }
}

impl Continuous for GeneralizedPareto {
    fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        if self.xi == 0.0 {
            -(-t / self.sigma).exp_m1()
        } else {
            1.0 - (1.0 + self.xi * t / self.sigma).powf(-1.0 / self.xi)
        }
    }

    fn mean(&self) -> f64 {
        self.sigma / (1.0 - self.xi)
    }

    fn variance(&self) -> f64 {
        if self.xi >= 0.5 {
            f64::INFINITY
        } else {
            self.sigma * self.sigma / ((1.0 - self.xi).powi(2) * (1.0 - 2.0 * self.xi))
        }
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&p),
            "quantile requires p in [0,1), got {p}"
        );
        if self.xi == 0.0 {
            -self.sigma * (-p).ln_1p()
        } else {
            self.sigma / self.xi * ((1.0 - p).powf(-self.xi) - 1.0)
        }
    }

    fn laplace(&self, s: f64) -> f64 {
        assert!(s >= 0.0, "laplace transform requires s >= 0, got {s}");
        if self.xi == 0.0 {
            // Exponential limit: closed form.
            let rate = 1.0 / self.sigma;
            return rate / (rate + s);
        }
        crate::laplace::numeric_laplace(&|t| self.cdf(t), s, self.mean())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_params() {
        assert!(GeneralizedPareto::new(-0.1, 1.0).is_err());
        assert!(GeneralizedPareto::new(1.0, 1.0).is_err());
        assert!(GeneralizedPareto::new(0.5, 0.0).is_err());
        assert!(GeneralizedPareto::facebook(0.15, -2.0).is_err());
    }

    #[test]
    fn facebook_parameterization_has_mean_one_over_rate() {
        for xi in [0.0, 0.15, 0.5, 0.8, 0.95] {
            let d = GeneralizedPareto::facebook(xi, 62_500.0).unwrap();
            assert!((d.mean() - 1.6e-5).abs() < 1e-18, "xi={xi}");
        }
    }

    #[test]
    fn xi_zero_is_exponential() {
        let gpd = GeneralizedPareto::facebook(0.0, 3.0).unwrap();
        let exp = crate::Exponential::new(3.0).unwrap();
        for t in [0.01, 0.1, 1.0, 5.0] {
            assert!((gpd.cdf(t) - exp.cdf(t)).abs() < 1e-14, "t={t}");
        }
    }

    #[test]
    fn cdf_matches_paper_eq_24() {
        // F(t) = 1 - (1 + ξλt/(1-ξ))^{-1/ξ}
        let (xi, lam) = (0.15, 62_500.0);
        let d = GeneralizedPareto::facebook(xi, lam).unwrap();
        for t in [1e-6, 16e-6, 100e-6, 1e-3] {
            let expect = 1.0 - (1.0 + xi * lam * t / (1.0 - xi)).powf(-1.0 / xi);
            assert!((d.cdf(t) - expect).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn heavy_tail_has_infinite_variance() {
        assert!(GeneralizedPareto::facebook(0.6, 1.0)
            .unwrap()
            .variance()
            .is_infinite());
        assert!(GeneralizedPareto::facebook(0.3, 1.0)
            .unwrap()
            .variance()
            .is_finite());
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = GeneralizedPareto::facebook(0.4, 10.0).unwrap();
        for p in [0.0, 0.2, 0.5, 0.9, 0.999] {
            let t = d.quantile(p);
            assert!((d.cdf(t) - p).abs() < 1e-10, "p={p}");
        }
    }

    #[test]
    fn sample_mean_converges() {
        // ξ=0.15 has finite variance, so the LLN is well-behaved.
        let d = GeneralizedPareto::facebook(0.15, 1.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 400_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn fill_from_bits_matches_sample_with() {
        use rand::RngCore;
        // Both GP branches: ξ > 0 (power law) and ξ = 0 (exponential limit).
        for d in [
            GeneralizedPareto::facebook(0.15, 56_250.0).unwrap(),
            GeneralizedPareto::facebook(0.0, 56_250.0).unwrap(),
        ] {
            let mut bits_rng = rand::rngs::StdRng::seed_from_u64(31);
            let bits: Vec<u64> = (0..1000).map(|_| bits_rng.next_u64()).collect();
            let mut lane = Vec::new();
            d.fill_from_bits(&bits, &mut lane);
            let mut draw_rng = rand::rngs::StdRng::seed_from_u64(31);
            for (i, &x) in lane.iter().enumerate() {
                let y = d.sample_with(&mut draw_rng);
                assert_eq!(x.to_bits(), y.to_bits(), "draw {i}");
            }
        }
    }

    #[test]
    fn samples_heavier_than_exponential_in_tail() {
        // With matched means, the GPD's high quantiles dominate the
        // exponential's — the "burst" the paper models.
        let gpd = GeneralizedPareto::facebook(0.5, 1.0).unwrap();
        let exp = crate::Exponential::new(1.0).unwrap();
        assert!(gpd.quantile(0.999) > 2.0 * exp.quantile(0.999));
    }

    #[test]
    fn numeric_laplace_sane() {
        use crate::Continuous;
        let d = GeneralizedPareto::facebook(0.15, 56_250.0).unwrap();
        // L is decreasing in s, within (0,1), and L(0)=1.
        assert_eq!(d.laplace(0.0), 1.0);
        let mut prev = 1.0;
        for s in [1.0, 10.0, 1e3, 1e4, 1e5] {
            let l = d.laplace(s);
            assert!(l > 0.0 && l < prev, "s={s} l={l}");
            prev = l;
        }
        // First-moment check: (1 - L(s))/s → mean as s → 0.
        let s = 1e-3;
        let approx_mean = (1.0 - d.laplace(s)) / s;
        assert!((approx_mean - d.mean()).abs() < 1e-7);
    }
}
