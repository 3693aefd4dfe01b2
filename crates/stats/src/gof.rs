//! Goodness-of-fit tests: Kolmogorov–Smirnov and chi-square.
//!
//! The conformance harness needs to answer one question many times:
//! *does this stream of simulator samples actually follow the law the
//! analytical model claims?* These primitives turn a sample set plus a
//! closed-form CDF/PMF into a statistic and an asymptotic p-value, so a
//! sampler bug fails a `p ≥ α` assertion instead of silently skewing a
//! latency sweep.
//!
//! # Examples
//!
//! ```
//! use memlat_stats::gof::ks_one_sample;
//! // 1000 points of an exact uniform grid against the U(0,1) CDF.
//! let xs: Vec<f64> = (1..=1000).map(|i| f64::from(i) / 1001.0).collect();
//! let t = ks_one_sample(&xs, |x| x.clamp(0.0, 1.0));
//! assert!(t.p_value > 0.99);
//! ```

use crate::ecdf::Ecdf;

/// Outcome of a goodness-of-fit test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GofTest {
    /// The test statistic (KS sup-distance `D`, or the chi-square sum).
    pub statistic: f64,
    /// Asymptotic p-value: probability under H₀ of a statistic at least
    /// this extreme. Small values reject the null.
    pub p_value: f64,
}

impl GofTest {
    /// Whether the test *fails to reject* the null at significance
    /// `alpha` (i.e. the sample is consistent with the model law).
    #[must_use]
    pub fn passes(&self, alpha: f64) -> bool {
        self.p_value >= alpha
    }
}

/// Survival function of the Kolmogorov distribution,
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}`, clamped to `[0, 1]`.
///
/// This is the asymptotic null law of `√n·D_n`; the series converges in
/// a handful of terms for any λ of practical interest.
#[must_use]
pub fn kolmogorov_survival(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    if lambda < 0.2 {
        // Below the support of interest the alternating series needs
        // many terms; the probability is 1 to double precision anyway.
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let k = f64::from(k);
        let term = (-2.0 * k * k * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-16 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// One-sample Kolmogorov–Smirnov test of `samples` against the model
/// CDF, with the Stephens small-sample correction
/// `λ = (√n + 0.12 + 0.11/√n)·D` feeding the asymptotic p-value.
///
/// For a *discrete* model law the p-value is conservative (the true
/// rejection probability is smaller), so `passes(α)` stays a sound
/// acceptance check.
///
/// # Panics
///
/// Panics if `samples` is empty (after NaN filtering, per
/// [`Ecdf::from_samples`]).
#[must_use]
pub fn ks_one_sample(samples: &[f64], model_cdf: impl Fn(f64) -> f64) -> GofTest {
    let ecdf = Ecdf::from_samples(samples);
    ks_from_ecdf(&ecdf, model_cdf)
}

/// One-sample KS test directly from an already-built [`Ecdf`].
#[must_use]
fn ks_from_ecdf(ecdf: &Ecdf, model_cdf: impl Fn(f64) -> f64) -> GofTest {
    let d = ecdf.ks_distance(model_cdf);
    let n = ecdf.len() as f64;
    let sqrt_n = n.sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    GofTest {
        statistic: d,
        p_value: kolmogorov_survival(lambda),
    }
}

/// Two-sample Kolmogorov–Smirnov test: are `a` and `b` draws from the
/// same (unknown) distribution? Uses the effective sample size
/// `n_e = n_a·n_b/(n_a+n_b)` in the asymptotic p-value.
///
/// Ties are handled by advancing both empirical CDFs through the full
/// tied group before comparing, so heavily discrete samples (e.g. two
/// Zipf key streams) get the exact sup-distance of the step functions.
///
/// # Panics
///
/// Panics if either sample is empty after NaN filtering.
#[must_use]
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> GofTest {
    let ea = Ecdf::from_samples(a);
    let eb = Ecdf::from_samples(b);
    let (xa, xb) = (ea.as_sorted(), eb.as_sorted());
    let (na, nb) = (xa.len() as f64, xb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < xa.len() || j < xb.len() {
        // Next sample point; advance through the whole tied group in
        // both samples before evaluating the gap.
        let x = match (xa.get(i), xb.get(j)) {
            (Some(&u), Some(&v)) => u.min(v),
            (Some(&u), None) => u,
            (None, Some(&v)) => v,
            (None, None) => unreachable!("loop condition"),
        };
        while i < xa.len() && xa[i] <= x {
            i += 1;
        }
        while j < xb.len() && xb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    let ne = na * nb / (na + nb);
    GofTest {
        statistic: d,
        p_value: kolmogorov_survival(ne.sqrt() * d),
    }
}

/// Pearson chi-square test of observed category counts against expected
/// counts, with `len − 1 − ddof` degrees of freedom (`ddof` = number of
/// model parameters estimated from the data, usually 0 here since the
/// model laws are fully specified).
///
/// The p-value is the upper tail of the χ²_df law, computed from the
/// regularized incomplete gamma. Categories with `expected ≤ 0` are
/// rejected — merge sparse tail bins before calling (the usual rule of
/// thumb wants expected ≥ 5 per bin for the asymptotics to hold).
///
/// # Panics
///
/// Panics if the slices differ in length, fewer than `2 + ddof`
/// categories remain, or any expected count is nonpositive.
#[must_use]
pub fn chi_square(observed: &[u64], expected: &[f64], ddof: usize) -> GofTest {
    assert_eq!(
        observed.len(),
        expected.len(),
        "observed/expected length mismatch"
    );
    assert!(
        observed.len() >= 2 + ddof,
        "chi-square needs at least {} categories, got {}",
        2 + ddof,
        observed.len()
    );
    let mut stat = 0.0;
    for (&o, &e) in observed.iter().zip(expected) {
        assert!(e > 0.0, "expected count must be positive, got {e}");
        let diff = o as f64 - e;
        stat += diff * diff / e;
    }
    let df = (observed.len() - 1 - ddof) as f64;
    GofTest {
        statistic: stat,
        p_value: memlat_numerics::special::gamma_q(df / 2.0, stat / 2.0),
    }
}

/// Chi-square homogeneity test: do two count vectors over the same
/// categories come from the same underlying distribution?
///
/// Standard 2×k contingency-table statistic with `k − 1` degrees of
/// freedom; categories empty in *both* samples are skipped.
///
/// # Panics
///
/// Panics if the slices differ in length, either total is zero, or
/// fewer than two non-empty categories remain.
#[must_use]
pub fn chi_square_homogeneity(a: &[u64], b: &[u64]) -> GofTest {
    assert_eq!(a.len(), b.len(), "category count mismatch");
    let ta: u64 = a.iter().sum();
    let tb: u64 = b.iter().sum();
    assert!(ta > 0 && tb > 0, "both samples must be non-empty");
    let (ta, tb) = (ta as f64, tb as f64);
    let total = ta + tb;
    let mut stat = 0.0;
    let mut cats = 0usize;
    for (&oa, &ob) in a.iter().zip(b) {
        let col = (oa + ob) as f64;
        if col == 0.0 {
            continue;
        }
        cats += 1;
        let ea = col * ta / total;
        let eb = col * tb / total;
        stat += (oa as f64 - ea).powi(2) / ea + (ob as f64 - eb).powi(2) / eb;
    }
    assert!(cats >= 2, "need at least two occupied categories");
    let df = (cats - 1) as f64;
    GofTest {
        statistic: stat,
        p_value: memlat_numerics::special::gamma_q(df / 2.0, stat / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn exp_samples(rate: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| -(1.0 - rng.gen::<f64>()).max(1e-15).ln() / rate)
            .collect()
    }

    #[test]
    fn kolmogorov_survival_reference() {
        // Q(λ) table values: Q(0.5) ≈ 0.9639, Q(1.0) ≈ 0.2700,
        // Q(1.358) ≈ 0.05 (the classic 5% critical value), Q(2) ≈ 6.7e-4.
        assert!((kolmogorov_survival(0.5) - 0.9639).abs() < 5e-4);
        assert!((kolmogorov_survival(1.0) - 0.2700).abs() < 5e-4);
        assert!((kolmogorov_survival(1.358) - 0.05).abs() < 5e-4);
        assert!(kolmogorov_survival(2.0) < 1e-3);
        assert_eq!(kolmogorov_survival(0.0), 1.0);
        assert_eq!(kolmogorov_survival(-1.0), 1.0);
    }

    #[test]
    fn ks_accepts_correct_law() {
        let xs = exp_samples(2.0, 3000, 42);
        let t = ks_one_sample(&xs, |x| 1.0 - (-2.0 * x).exp());
        assert!(t.passes(0.01), "p={} d={}", t.p_value, t.statistic);
    }

    #[test]
    fn ks_rejects_wrong_law() {
        let xs = exp_samples(2.0, 3000, 43);
        // Claim rate 3 instead of 2: decisively rejected.
        let t = ks_one_sample(&xs, |x| 1.0 - (-3.0 * x).exp());
        assert!(t.p_value < 1e-6, "p={}", t.p_value);
        assert!(!t.passes(0.01));
    }

    #[test]
    fn ks_two_sample_same_vs_different() {
        let a = exp_samples(1.0, 2000, 1);
        let b = exp_samples(1.0, 2500, 2);
        let same = ks_two_sample(&a, &b);
        assert!(same.passes(0.01), "p={}", same.p_value);

        let c = exp_samples(1.35, 2500, 3);
        let diff = ks_two_sample(&a, &c);
        assert!(diff.p_value < 1e-4, "p={}", diff.p_value);
    }

    #[test]
    fn ks_two_sample_handles_ties() {
        // Identical heavily-tied discrete samples: D = 0, p = 1.
        let a: Vec<f64> = (0..900).map(|i| f64::from(i % 3)).collect();
        let b: Vec<f64> = (0..600).map(|i| f64::from(i % 3)).collect();
        let t = ks_two_sample(&a, &b);
        assert_eq!(t.statistic, 0.0);
        assert_eq!(t.p_value, 1.0);
    }

    #[test]
    fn chi_square_fair_die() {
        // 6000 rolls of a fair die, near-uniform counts.
        let observed = [1005u64, 998, 1003, 989, 1011, 994];
        let expected = [1000.0; 6];
        let t = chi_square(&observed, &expected, 0);
        assert!(t.statistic < 1.0);
        assert!(t.p_value > 0.9);
    }

    #[test]
    fn chi_square_rejects_biased_die() {
        let observed = [1500u64, 900, 900, 900, 900, 900];
        let expected = [1000.0; 6];
        let t = chi_square(&observed, &expected, 0);
        assert!(t.p_value < 1e-10, "p={}", t.p_value);
    }

    #[test]
    fn chi_square_df_reference() {
        // A statistic equal to the 95th percentile of χ²_5 (≈ 11.0705)
        // must give p ≈ 0.05.
        let observed = [0u64; 6]; // counts unused below; build stat directly
        let _ = observed;
        let p = memlat_numerics::special::gamma_q(2.5, 11.0705 / 2.0);
        assert!((p - 0.05).abs() < 1e-4, "p={p}");
    }

    #[test]
    fn homogeneity_accepts_and_rejects() {
        let a = [500u64, 300, 200, 0];
        let b = [1010u64, 590, 400, 0];
        let same = chi_square_homogeneity(&a, &b);
        assert!(same.passes(0.01), "p={}", same.p_value);

        let c = [200u64, 300, 500, 0];
        let diff = chi_square_homogeneity(&a, &c);
        assert!(diff.p_value < 1e-10, "p={}", diff.p_value);
    }

    #[test]
    #[should_panic(expected = "expected count must be positive")]
    fn chi_square_rejects_zero_expected() {
        let _ = chi_square(&[1, 2, 3], &[1.0, 0.0, 2.0], 0);
    }
}
