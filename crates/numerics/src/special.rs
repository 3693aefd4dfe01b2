//! Special functions: `ln Γ`, regularized incomplete gamma, harmonic
//! numbers.
//!
//! These back the Erlang/gamma distribution CDFs and the exact
//! max-of-exponentials statistics (`E[max_{i≤K} Exp(μ)] = H_K/μ`) used to
//! quantify the paper's `ln(K+1)` approximation.

/// Euler–Mascheroni constant γ.
const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, 9 coefficients), accurate to
/// ~1e-13 relative error across the positive axis.
///
/// # Panics
///
/// Panics if `x <= 0` (the reflection formula is intentionally not
/// implemented; the model never needs it).
///
/// # Examples
///
/// ```
/// use memlat_numerics::special::ln_gamma;
/// assert!((ln_gamma(1.0)).abs() < 1e-12);          // Γ(1) = 1
/// assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-11); // Γ(5) = 24
/// ```
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Γ(x) = Γ(x+1)/x
        return ln_gamma(x + 1.0) - x.ln();
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)`.
///
/// This is the CDF of a Gamma(shape `a`, rate 1) random variable at `x`.
/// Follows Numerical Recipes: series expansion for `x < a + 1`, continued
/// fraction for the complement otherwise.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
///
/// # Examples
///
/// ```
/// use memlat_numerics::special::gamma_p;
/// // Gamma(1, 1) is Exp(1): P(1, x) = 1 - e^{-x}.
/// assert!((gamma_p(1.0, 2.0) - (1.0 - (-2f64).exp())).abs() < 1e-12);
/// ```
#[must_use]
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_contfrac(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 - P(a, x)`.
///
/// # Panics
///
/// Same contract as [`gamma_p`].
///
/// # Examples
///
/// ```
/// use memlat_numerics::special::{gamma_p, gamma_q};
/// assert!((gamma_p(2.5, 1.3) + gamma_q(2.5, 1.3) - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_q requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_contfrac(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_contfrac(a: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (-x + a * x.ln() - ln_gamma(a)).exp() * h
}

/// Regularized incomplete beta function `I_x(a, b)`.
///
/// This is the CDF of a Beta(a, b) random variable at `x`, the kernel
/// behind the Student-t CDF (and therefore the t critical values the
/// conformance harness uses for replication confidence intervals).
/// Follows Numerical Recipes: continued fraction on whichever side of
/// the mean converges fast, symmetry for the other.
///
/// # Panics
///
/// Panics if `a <= 0`, `b <= 0`, or `x ∉ [0, 1]`.
///
/// # Examples
///
/// ```
/// use memlat_numerics::special::beta_inc;
/// // Beta(1,1) is Uniform(0,1): I_x(1,1) = x.
/// assert!((beta_inc(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
/// ```
#[must_use]
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0, "beta_inc requires a > 0, got {a}");
    assert!(b > 0.0, "beta_inc requires b > 0, got {b}");
    assert!(
        (0.0..=1.0).contains(&x),
        "beta_inc requires x in [0,1], got {x}"
    );
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    // The prefactor is symmetric under (a, x) ↔ (b, 1−x).
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_contfrac(a, b, x) / a
    } else {
        1.0 - front * beta_contfrac(b, a, 1.0 - x) / b
    }
}

/// Lentz continued fraction for the incomplete beta (NR `betacf`).
fn beta_contfrac(a: f64, b: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// The `n`-th harmonic number `H_n = Σ_{i=1}^{n} 1/i`.
///
/// Exact summation up to `n = 10_000`; the asymptotic expansion
/// `ln n + γ + 1/(2n) − 1/(12n²)` beyond that (error < 1e-14 there).
/// `H_0 = 0`.
///
/// This gives the exact expectation of the maximum of `n` i.i.d.
/// exponentials, which the paper approximates by `ln(n + 1)` in eq. (21).
///
/// # Examples
///
/// ```
/// use memlat_numerics::special::harmonic;
/// assert_eq!(harmonic(0), 0.0);
/// assert!((harmonic(3) - (1.0 + 0.5 + 1.0 / 3.0)).abs() < 1e-15);
/// ```
#[must_use]
pub fn harmonic(n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n <= 10_000 {
        let mut s = crate::KahanSum::new();
        // Summing small-to-large keeps the compensation effective.
        for i in (1..=n).rev() {
            s.add(1.0 / i as f64);
        }
        s.sum()
    } else {
        let nf = n as f64;
        nf.ln() + EULER_GAMMA + 1.0 / (2.0 * nf) - 1.0 / (12.0 * nf * nf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_factorials() {
        let mut fact = 1.0f64;
        for n in 1..15u32 {
            // Γ(n) = (n-1)!
            assert!((ln_gamma(n as f64) - fact.ln()).abs() < 1e-10, "n={n}");
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn gamma_p_is_exponential_cdf_for_shape_one() {
        for x in [0.0f64, 0.1, 1.0, 3.0, 10.0] {
            let expect = 1.0 - (-x).exp();
            assert!((gamma_p(1.0, x) - expect).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn gamma_p_erlang_2() {
        // Erlang(2, rate 1) CDF: 1 - e^{-x}(1 + x).
        for x in [0.5f64, 1.0, 2.0, 5.0, 20.0] {
            let expect = 1.0 - (-x).exp() * (1.0 + x);
            assert!((gamma_p(2.0, x) - expect).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn gamma_p_q_complement() {
        for a in [0.3, 1.0, 2.5, 10.0, 50.0] {
            for x in [0.01, 0.5, 1.0, 5.0, 60.0] {
                let s = gamma_p(a, x) + gamma_q(a, x);
                assert!((s - 1.0).abs() < 1e-12, "a={a} x={x} s={s}");
            }
        }
    }

    #[test]
    fn gamma_p_monotone_in_x() {
        let mut prev = 0.0;
        for i in 0..100 {
            let x = i as f64 * 0.2;
            let v = gamma_p(3.0, x);
            assert!(v >= prev - 1e-15);
            prev = v;
        }
    }

    #[test]
    fn beta_inc_uniform_is_identity() {
        for x in [0.0, 0.1, 0.25, 0.5, 0.9, 1.0] {
            assert!((beta_inc(1.0, 1.0, x) - x).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn beta_inc_arcsine_law() {
        // I_x(1/2, 1/2) = (2/π) asin(√x).
        for x in [0.05f64, 0.3, 0.5, 0.7, 0.95] {
            let expect = 2.0 / std::f64::consts::PI * x.sqrt().asin();
            assert!((beta_inc(0.5, 0.5, x) - expect).abs() < 1e-10, "x={x}");
        }
    }

    #[test]
    fn beta_inc_symmetry_and_monotonicity() {
        for (a, b) in [(2.0, 3.0), (0.5, 5.0), (10.0, 10.0), (1.5, 0.7)] {
            let mut prev = 0.0;
            for i in 0..=50 {
                let x = f64::from(i) / 50.0;
                let v = beta_inc(a, b, x);
                assert!(v >= prev - 1e-12, "a={a} b={b} x={x}");
                assert!(
                    (v + beta_inc(b, a, 1.0 - x) - 1.0).abs() < 1e-10,
                    "a={a} b={b} x={x}"
                );
                prev = v;
            }
        }
    }

    #[test]
    fn beta_inc_binomial_identity() {
        // I_p(k, n−k+1) = P{Bin(n, p) ≥ k}; n=5, k=3, p=0.4:
        // P = sum_{j=3}^{5} C(5,j) 0.4^j 0.6^(5−j) = 0.31744.
        assert!((beta_inc(3.0, 3.0, 0.4) - 0.317_44).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "requires x in [0,1]")]
    fn beta_inc_rejects_out_of_range() {
        let _ = beta_inc(1.0, 1.0, 1.5);
    }

    #[test]
    fn harmonic_small_values() {
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(10) - 2.928_968_253_968_254).abs() < 1e-12);
        assert!((harmonic(100) - 5.187_377_517_639_621).abs() < 1e-10);
    }

    #[test]
    fn harmonic_asymptotic_continuity() {
        // The switch between exact and asymptotic must be seamless.
        let exact: f64 = (1..=10_000u64).map(|i| 1.0 / i as f64).sum();
        let asym =
            10_001f64.ln() + EULER_GAMMA + 1.0 / 20_002.0 - 1.0 / (12.0 * 10_001f64 * 10_001f64);
        assert!((harmonic(10_000) - exact).abs() < 1e-12);
        assert!((harmonic(10_001) - asym).abs() < 1e-12);
        assert!((harmonic(10_001) - harmonic(10_000)).abs() < 1.1 / 10_000.0);
    }

    #[test]
    fn harmonic_matches_ln_plus_gamma_for_large_n() {
        let n = 1_000_000u64;
        let h = harmonic(n);
        assert!((h - ((n as f64).ln() + EULER_GAMMA)).abs() < 1e-6);
    }
}
