//! Property-based tests for the numerics substrate.

use memlat_numerics::integrate::adaptive_simpson;
use memlat_numerics::kahan::compensated_sum;
use memlat_numerics::roots::{bisect, brent, unit_fixed_point};
use memlat_numerics::special::{gamma_p, harmonic, ln_gamma};
use proptest::prelude::*;

proptest! {
    /// Both root finders locate the root of a shifted cubic anywhere in the
    /// bracket, to the requested tolerance.
    #[test]
    fn root_finders_agree_on_monotone_cubic(c in -8.0f64..8.0) {
        let f = |x: f64| x * x * x - c;
        let r1 = bisect(f, -10.0, 10.0, 1e-12, 500).unwrap();
        let r2 = brent(f, -10.0, 10.0, 1e-12, 200).unwrap();
        prop_assert!((r1 - c.cbrt()).abs() < 1e-9);
        prop_assert!((r2 - c.cbrt()).abs() < 1e-9);
    }

    /// The GI/M/1-shaped fixed point for Poisson arrivals is exactly ρ.
    #[test]
    fn poisson_fixed_point_is_rho(rho in 0.01f64..0.995) {
        let d = unit_fixed_point(|x| rho / (rho + (1.0 - x)), 1e-13).unwrap();
        prop_assert!((d - rho).abs() < 1e-7);
    }

    /// Simpson integrates affine functions exactly (up to fp noise).
    #[test]
    fn simpson_affine_exact(a in -5.0f64..5.0, b in -5.0f64..5.0, lo in -3.0f64..0.0, hi in 0.1f64..3.0) {
        let v = adaptive_simpson(|x| a * x + b, lo, hi, 1e-13);
        let exact = a * (hi * hi - lo * lo) / 2.0 + b * (hi - lo);
        prop_assert!((v - exact).abs() < 1e-9 * (1.0 + exact.abs()));
    }

    /// Compensated summation is permutation-insensitive for benign inputs.
    #[test]
    fn kahan_order_insensitive(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let fwd = compensated_sum(&xs);
        xs.reverse();
        let rev = compensated_sum(&xs);
        prop_assert!((fwd - rev).abs() <= 1e-6 * (1.0 + fwd.abs()));
    }

    /// ln Γ satisfies the recurrence Γ(x+1) = xΓ(x).
    #[test]
    fn ln_gamma_recurrence(x in 0.05f64..50.0) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = ln_gamma(x) + x.ln();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    /// The regularized incomplete gamma is a CDF: within [0,1] and
    /// monotone in x.
    #[test]
    fn gamma_p_is_cdf(a in 0.1f64..30.0, x in 0.0f64..100.0, dx in 0.0f64..10.0) {
        let p1 = gamma_p(a, x);
        let p2 = gamma_p(a, x + dx);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p1));
        prop_assert!(p2 >= p1 - 1e-12);
    }

    /// Harmonic numbers are increasing with decreasing increments.
    #[test]
    fn harmonic_concave_increasing(n in 1u64..5000) {
        let a = harmonic(n);
        let b = harmonic(n + 1);
        let c = harmonic(n + 2);
        prop_assert!(b > a);
        prop_assert!(c - b <= b - a + 1e-15);
    }
}
