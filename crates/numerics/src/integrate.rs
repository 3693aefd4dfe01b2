//! Numerical quadrature.
//!
//! Used by `memlat-dist` to evaluate Laplace–Stieltjes transforms of
//! distributions without a closed form (most importantly the Generalized
//! Pareto inter-arrival law of the Facebook workload).

/// Adaptive Simpson quadrature of `f` over the finite interval `[a, b]`.
///
/// Recursively subdivides until the local Richardson error estimate drops
/// below the requested tolerance. `f` must be finite on `[a, b]`.
///
/// # Panics
///
/// Does not panic; non-finite inputs yield NaN which propagates to the
/// caller.
///
/// # Examples
///
/// ```
/// use memlat_numerics::adaptive_simpson;
/// let v = adaptive_simpson(|x| x.sin(), 0.0, std::f64::consts::PI, 1e-12);
/// assert!((v - 2.0).abs() < 1e-10);
/// ```
#[must_use]
pub fn adaptive_simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = simpson_panel(a, b, fa, fm, fb);
    adaptive_step(&f, a, b, fa, fm, fb, whole, tol.max(f64::EPSILON), 60)
}

fn simpson_panel(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn adaptive_step<F: Fn(f64) -> f64>(
    f: &F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson_panel(a, m, fa, flm, fm);
    let right = simpson_panel(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        // Richardson extrapolation: the composite estimate plus the
        // fourth-order correction term.
        left + right + delta / 15.0
    } else {
        adaptive_step(f, a, m, fa, flm, fm, left, tol * 0.5, depth - 1)
            + adaptive_step(f, m, b, fm, frm, fb, right, tol * 0.5, depth - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpson_polynomial_is_exact() {
        let v = adaptive_simpson(|x| 3.0 * x * x, 0.0, 2.0, 1e-12);
        assert!((v - 8.0).abs() < 1e-12);
    }

    #[test]
    fn simpson_zero_width() {
        assert_eq!(adaptive_simpson(|x| x, 1.0, 1.0, 1e-12), 0.0);
    }

    #[test]
    fn simpson_oscillatory() {
        let v = adaptive_simpson(|x| (10.0 * x).cos(), 0.0, 1.0, 1e-12);
        assert!((v - 10f64.sin() / 10.0).abs() < 1e-10);
    }

    #[test]
    fn simpson_reversed_interval_is_negated() {
        let fwd = adaptive_simpson(|x| x.exp(), 0.0, 1.0, 1e-12);
        let rev = adaptive_simpson(|x| x.exp(), 1.0, 0.0, 1e-12);
        assert!((fwd + rev).abs() < 1e-10);
    }
}
