//! `E[T_D(N)]` — processing latency at the database (paper §4.4).

use memlat_dist::{Binomial, Discrete};
use memlat_numerics::special::harmonic;

/// Probability that none of the `N` keys miss: `P{K = 0} = (1 − r)^N`
/// (paper eq. 15).
///
/// # Examples
///
/// ```
/// let p = memlat_model::database::prob_no_miss(150, 0.01);
/// assert!((p - 0.99f64.powi(150)).abs() < 1e-12);
/// ```
#[must_use]
pub fn prob_no_miss(n: u64, r: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&r));
    (1.0 - r).powi(n.min(i32::MAX as u64) as i32)
}

/// The paper's estimate of the expected database stage latency (eq. 23):
///
/// ```text
/// E[T_D(N)] ≈ (1 − (1−r)^N)/μ_D · ln( N·r / (1 − (1−r)^N) + 1 )
/// ```
///
/// # Panics
///
/// Debug-panics if `r ∉ [0, 1]` or `mu_d ≤ 0`.
///
/// # Examples
///
/// Table 3's value (`N = 150`, `r = 0.01`, `1/μ_D = 1 ms`):
///
/// ```
/// let t = memlat_model::database::db_latency_mean(150, 0.01, 1_000.0);
/// assert!((t - 836e-6).abs() < 2e-6);
/// ```
#[must_use]
pub fn db_latency_mean(n: u64, r: f64, mu_d: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&r));
    debug_assert!(mu_d > 0.0);
    if r == 0.0 || n == 0 {
        return 0.0;
    }
    let p_any = 1.0 - prob_no_miss(n, r);
    if p_any <= 0.0 {
        return 0.0;
    }
    p_any / mu_d * (n as f64 * r / p_any + 1.0).ln()
}

/// **Exact** (under the model) expected database stage latency:
/// `E[T_D(N)] = Σ_K P{K = k}·H_k/μ_D` with `K ~ Bin(N, r)`.
///
/// This is the extension the paper's Fig. 11 gap motivates: the residual
/// between this value and [`db_latency_mean`] is the error of the
/// `ln(K+1)` and `E[K|K>0]` approximations, not of the queueing model.
///
/// The binomial sum is truncated ten standard deviations above the mean
/// (tail mass < 1e-20).
///
/// # Examples
///
/// ```
/// use memlat_model::database::{db_latency_mean, db_latency_mean_exact};
/// let approx = db_latency_mean(150, 0.01, 1_000.0);
/// let exact = db_latency_mean_exact(150, 0.01, 1_000.0);
/// // Eq. 23's approximation error stays within ~35% (worst near N·r ≈ 0.1).
/// assert!((approx - exact).abs() / exact < 0.35);
/// ```
#[must_use]
pub fn db_latency_mean_exact(n: u64, r: f64, mu_d: f64) -> f64 {
    debug_assert!(mu_d > 0.0);
    if r == 0.0 || n == 0 {
        return 0.0;
    }
    if r == 1.0 {
        return harmonic(n) / mu_d;
    }
    let dist = Binomial::new(n, r).expect("validated r");
    let mean = n as f64 * r;
    let sd = (n as f64 * r * (1.0 - r)).sqrt();
    let hi = ((mean + 10.0 * sd).ceil() as u64).min(n).max(8);
    let mut acc = 0.0;
    let mut mass = 0.0;
    for k in 0..=hi {
        let p = dist.pmf(k);
        mass += p;
        acc += p * harmonic(k);
    }
    // Assign the (negligible) untruncated tail the harmonic value at the
    // cut, keeping the estimate a slight lower... rather: upper-bound-safe.
    acc += (1.0 - mass).max(0.0) * harmonic(hi);
    acc / mu_d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_misses_no_latency() {
        assert_eq!(db_latency_mean(150, 0.0, 1_000.0), 0.0);
        assert_eq!(db_latency_mean(0, 0.5, 1_000.0), 0.0);
        assert_eq!(db_latency_mean_exact(150, 0.0, 1_000.0), 0.0);
    }

    #[test]
    fn table3_value() {
        // 0.7785/1000 · ln(1.5/0.7785 + 1) = 836 µs.
        let t = db_latency_mean(150, 0.01, 1_000.0);
        assert!((t * 1e6 - 836.0).abs() < 1.0, "{}", t * 1e6);
    }

    #[test]
    fn certainty_of_miss_reduces_to_log() {
        // r = 1: every key misses, E[T_D(N)] ≈ ln(N+1)/μ_D per eq. 23 and
        // exactly H_N/μ_D.
        let approx = db_latency_mean(100, 1.0, 1.0);
        assert!((approx - 101f64.ln()).abs() < 1e-12);
        let exact = db_latency_mean_exact(100, 1.0, 1.0);
        assert!((exact - harmonic(100)).abs() < 1e-12);
    }

    #[test]
    fn growth_is_linear_in_r_for_small_n() {
        // Eq. 25: for small N, E[T_D(N)] = Θ(r).
        let t1 = db_latency_mean(4, 0.001, 1_000.0);
        let t2 = db_latency_mean(4, 0.002, 1_000.0);
        let t4 = db_latency_mean(4, 0.004, 1_000.0);
        assert!((t2 / t1 - 2.0).abs() < 0.05, "{}", t2 / t1);
        assert!((t4 / t2 - 2.0).abs() < 0.05, "{}", t4 / t2);
    }

    #[test]
    fn growth_is_logarithmic_in_r_for_large_n() {
        // Eq. 25: for large N, E[T_D(N)] = Θ(log r): equal increments per
        // decade of r.
        let t1 = db_latency_mean(100_000, 1e-4, 1_000.0);
        let t2 = db_latency_mean(100_000, 1e-3, 1_000.0);
        let t3 = db_latency_mean(100_000, 1e-2, 1_000.0);
        let d1 = t2 - t1;
        let d2 = t3 - t2;
        assert!((d2 / d1 - 1.0).abs() < 0.05, "d1={d1} d2={d2}");
    }

    #[test]
    fn growth_is_logarithmic_in_n() {
        let t1 = db_latency_mean(10_000, 0.01, 1_000.0);
        let t2 = db_latency_mean(100_000, 0.01, 1_000.0);
        let t3 = db_latency_mean(1_000_000, 0.01, 1_000.0);
        let d1 = t2 - t1;
        let d2 = t3 - t2;
        assert!((d2 / d1 - 1.0).abs() < 0.05);
    }

    #[test]
    fn exact_below_approx_in_fig11_regime() {
        // The paper's Fig. 11 shows the experiment slightly below
        // Theorem 1 for moderate N — attributable to ln(K+1) ≥ H_K − γ…;
        // verify the exact value is close but not identical.
        for n in [10u64, 100, 1_000] {
            let a = db_latency_mean(n, 0.01, 1_000.0);
            let e = db_latency_mean_exact(n, 0.01, 1_000.0);
            assert!(e > 0.0);
            // The gap peaks near N·r ≈ 0.1 (Jensen on ln(K+1)): ~30%.
            assert!((a - e).abs() / e < 0.35, "n={n}: approx={a} exact={e}");
        }
    }

    #[test]
    fn large_n_exact_is_finite_and_fast() {
        let e = db_latency_mean_exact(1_000_000, 0.001, 1_000.0);
        // K ≈ 1000 misses: E[max] ≈ H_1000 ms ≈ 7.49 ms.
        assert!((e * 1e3 - 7.49).abs() < 0.1, "{}", e * 1e3);
    }
}
