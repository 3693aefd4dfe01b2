//! The Zipf distribution over key ranks — the source of the paper's
//! unbalanced load.

use rand::RngCore;

use crate::{open_unit, Discrete, ParamError};

/// Zipf distribution on ranks `{1, …, n}` with exponent `s ≥ 0`:
/// `P{X = k} ∝ k^{-s}`.
///
/// The paper attributes the unbalanced load distribution `{p_j}` across
/// memcached servers to skewed key popularity ("a small percentage of
/// values are accessed quite frequently", after Facebook's measurements).
/// `memlat-workload` uses this distribution to draw keys, from which the
/// per-server load shares emerge through hashing.
///
/// Sampling uses rejection-inversion (Hörmann & Derflinger), which is
/// `O(1)` per sample with no precomputed tables, so key spaces of hundreds
/// of millions of items cost nothing to set up.
///
/// # Examples
///
/// ```
/// use memlat_dist::{Discrete, Zipf};
/// # fn main() -> Result<(), memlat_dist::ParamError> {
/// let z = Zipf::new(1000, 0.99)?;
/// assert!(z.pmf(1) > z.pmf(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    n: u64,
    exponent: f64,
    h_integral_x1: f64,
    h_integral_n: f64,
    rejection_s: f64,
    /// Generalized harmonic normalizer Σ k^{-s}; computed lazily because
    /// `pmf`/`cdf` are only needed for analysis, not sampling.
    norm: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `{1, …, n}` with the given
    /// exponent.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `n == 0` or the exponent is negative or
    /// non-finite.
    ///
    /// # Panics
    ///
    /// Never panics for validated inputs.
    pub fn new(n: u64, exponent: f64) -> Result<Self, ParamError> {
        if n == 0 {
            return Err(ParamError::new("zipf needs at least one rank"));
        }
        if !(exponent.is_finite() && exponent >= 0.0) {
            return Err(ParamError::new(format!(
                "zipf exponent must be non-negative, got {exponent}"
            )));
        }
        let h_integral_x1 = h_integral(1.5, exponent) - 1.0;
        let h_integral_n = h_integral(n as f64 + 0.5, exponent);
        let rejection_s =
            2.0 - h_integral_inverse(h_integral(2.5, exponent) - h(2.0, exponent), exponent);
        // Normalizer: exact sum for small n, Euler–Maclaurin beyond.
        let norm = if n <= 1_000_000 {
            let mut acc = memlat_numerics::KahanSum::new();
            for k in 1..=n {
                acc.add((k as f64).powf(-exponent));
            }
            acc.sum()
        } else {
            let head: f64 = (1..=1000u64).map(|k| (k as f64).powf(-exponent)).sum();
            // ∫_{1000.5}^{n+0.5} x^{-s} dx (midpoint-corrected tail).
            let a: f64 = 1000.5;
            let b = n as f64 + 0.5;
            let tail = if (exponent - 1.0).abs() < 1e-12 {
                (b / a).ln()
            } else {
                (b.powf(1.0 - exponent) - a.powf(1.0 - exponent)) / (1.0 - exponent)
            };
            head + tail
        };
        Ok(Self {
            n,
            exponent,
            h_integral_x1,
            h_integral_n,
            rejection_s,
            norm,
        })
    }

    /// Number of ranks.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew exponent `s`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Draws one rank through a concrete RNG type — the monomorphized
    /// twin of [`Discrete::sample`], bit-identical draw for draw.
    #[inline]
    pub fn sample_with<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_integral_n + open_unit(rng) * (self.h_integral_x1 - self.h_integral_n);
            let x = h_integral_inverse(u, self.exponent);
            let k64 = (x + 0.5).floor();
            let k = (k64.max(1.0) as u64).min(self.n);
            let kf = k as f64;
            if kf - x <= self.rejection_s
                || u >= h_integral(kf + 0.5, self.exponent) - h(kf, self.exponent)
            {
                return k;
            }
        }
    }
}

/// `H(x) = ∫ x^{-s} dx = (x^{1-s} − 1)/(1 − s)`, computed stably (limit
/// `ln x` at `s = 1`).
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - s) * log_x) * log_x
}

/// `h(x) = x^{-s}`.
fn h(x: f64, s: f64) -> f64 {
    (-s * x.ln()).exp()
}

/// Inverse of [`h_integral`].
fn h_integral_inverse(y: f64, s: f64) -> f64 {
    let mut t = y * (1.0 - s);
    if t < -1.0 {
        // Numerical guard near the boundary of the domain.
        t = -1.0;
    }
    (helper1(t) * y).exp()
}

/// `ln(1+x)/x`, stable near zero.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x / 2.0 + x * x / 3.0
    }
}

/// `(e^x − 1)/x`, stable near zero.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x / 2.0 * (1.0 + x / 3.0)
    }
}

impl Discrete for Zipf {
    fn pmf(&self, k: u64) -> f64 {
        if k == 0 || k > self.n {
            0.0
        } else {
            (k as f64).powf(-self.exponent) / self.norm
        }
    }

    fn cdf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        if k >= self.n {
            return 1.0;
        }
        // Exact partial sum; acceptable because analysis uses modest k.
        (1..=k).map(|i| self.pmf(i)).sum::<f64>().min(1.0)
    }

    fn mean(&self) -> f64 {
        // E[X] = Σ k · k^{-s} / norm = Σ k^{1-s} / norm.
        if self.n <= 1_000_000 {
            let mut acc = memlat_numerics::KahanSum::new();
            for k in 1..=self.n {
                acc.add((k as f64).powf(1.0 - self.exponent));
            }
            acc.sum() / self.norm
        } else {
            // Integral approximation of the numerator.
            let s = self.exponent;
            let b = self.n as f64 + 0.5;
            let num = if (s - 2.0).abs() < 1e-12 {
                b.ln() - 0.5f64.ln()
            } else {
                (b.powf(2.0 - s) - 0.5f64.powf(2.0 - s)) / (2.0 - s)
            };
            num / self.norm
        }
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
    fn rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn pmf_sums_to_one() {
        for s in [0.0, 0.5, 1.0, 1.5] {
            let z = Zipf::new(100, s).unwrap();
            let total: f64 = (1..=100).map(|k| z.pmf(k)).sum();
            assert!((total - 1.0).abs() < 1e-10, "s={s}");
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(50, 0.0).unwrap();
        for k in 1..=50 {
            assert!((z.pmf(k) - 0.02).abs() < 1e-12, "k={k}");
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| z.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        assert!((mean - 25.5).abs() < 0.2, "mean={mean}");
    }

    #[test]
    fn sampler_matches_pmf() {
        let z = Zipf::new(1000, 0.99).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 500_000;
        let mut counts = [0u64; 11];
        for _ in 0..n {
            let k = z.sample(&mut rng);
            assert!((1..=1000).contains(&k));
            if k <= 10 {
                counts[k as usize] += 1;
            }
        }
        for k in 1..=10u64 {
            let freq = counts[k as usize] as f64 / n as f64;
            let expect = z.pmf(k);
            assert!(
                (freq - expect).abs() < 0.004 + 0.05 * expect,
                "k={k} freq={freq} expect={expect}"
            );
        }
    }

    #[test]
    fn skew_concentrates_mass_on_head() {
        let mild = Zipf::new(10_000, 0.5).unwrap();
        let steep = Zipf::new(10_000, 1.2).unwrap();
        assert!(steep.cdf(10) > mild.cdf(10));
        assert!(steep.pmf(1) > 10.0 * mild.pmf(1));
    }

    #[test]
    fn huge_keyspace_normalizer_is_consistent() {
        // Compare the Euler–Maclaurin normalizer against brute force just
        // above the switch-over threshold.
        let exact = Zipf::new(1_000_000, 1.01).unwrap();
        let approx = Zipf::new(1_000_001, 1.01).unwrap();
        assert!((exact.norm - approx.norm).abs() / exact.norm < 1e-3);
    }

    #[test]
    fn sampler_works_on_large_n() {
        let z = Zipf::new(100_000_000, 1.01).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!((1..=100_000_000).contains(&k));
        }
    }
}
