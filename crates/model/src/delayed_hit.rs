//! Delayed-hit latency under per-key fetch coalescing (extension).
//!
//! The source paper relays every cache miss to the database as an
//! independent trip. Real caches coalesce: while a fetch for key `k` is
//! outstanding, further misses for `k` park as waiters and resolve at
//! the fetch's completion — **delayed hits** (Atre et al., SIGCOMM
//! 2020). This module carries the closed forms from Jiang & Ma,
//! *"Modeling and Analysis of Delayed-Hit Caching with Stochastic Miss
//! Latency"* (arXiv 2505.15531), specialized to the regime our
//! simulator can realize exactly.
//!
//! **Setting.** Misses for one key form a Poisson process with rate
//! `λ`; each dispatched fetch takes a random latency `Z` (i.i.d.,
//! independent of arrivals). A miss arriving while no fetch is
//! outstanding dispatches one (and itself waits `Z`); a miss arriving
//! during an outstanding fetch is a delayed hit waiting the residual of
//! that `Z`. By renewal–reward over dispatch cycles (one fetch of
//! length `Z`, then an `Exp(λ)` idle gap to the next dispatch):
//!
//! * a fraction `λ·E[Z] / (1 + λ·E[Z])` of misses are delayed hits,
//! * fetches dispatch at rate `λ / (1 + λ·E[Z])`,
//! * the mean database-path latency over all misses is
//!
//! ```text
//! E[L] = (E[Z] + λ·E[Z²]/2) / (1 + λ·E[Z])
//! ```
//!
//! (the dispatching miss waits `E[Z]`; a delayed hit waits the
//! length-biased residual, mean `E[Z²]/(2·E[Z])`, and there are
//! `λ·E[Z]` of them per dispatch on average).
//!
//! **The memoryless identity.** When `Z ~ Exp(ν)`, `E[Z²] = 2/ν²` and
//! the formula collapses to `E[L] = 1/ν` — coalescing leaves the
//! *marginal* latency of every database-path resolution exactly
//! `Exp(ν)`: the residual of an exponential fetch is again `Exp(ν)`.
//! Mean *and every quantile* are then known in closed form, which is
//! what the conformance harness gates. Coalescing still matters through
//! the *dispatch rate*: fewer fetches mean less database load, which is
//! where the simulator shows mean/p99 reductions once shards are
//! loaded.

use crate::ModelError;

fn check_rate(name: &str, x: f64) -> Result<(), ModelError> {
    if !(x.is_finite() && x >= 0.0) {
        return Err(ModelError::InvalidParam(format!(
            "{name} must be finite and non-negative, got {x}"
        )));
    }
    Ok(())
}

fn check_positive(name: &str, x: f64) -> Result<(), ModelError> {
    if !(x.is_finite() && x > 0.0) {
        return Err(ModelError::InvalidParam(format!(
            "{name} must be finite and positive, got {x}"
        )));
    }
    Ok(())
}

/// Fraction of misses for one key that resolve as delayed hits:
/// `λ·E[Z] / (1 + λ·E[Z])`.
///
/// # Errors
///
/// Rejects a negative/non-finite `lambda` or non-positive `mean_z`.
pub fn delayed_fraction(lambda: f64, mean_z: f64) -> Result<f64, ModelError> {
    check_rate("lambda", lambda)?;
    check_positive("mean_z", mean_z)?;
    let a = lambda * mean_z;
    Ok(a / (1.0 + a))
}

/// Rate at which fetches are actually dispatched for one key:
/// `λ / (1 + λ·E[Z])`. Always `≤ λ` (coalescing never adds fetches) and
/// `≤ 1/E[Z]` (at most one outstanding fetch at a time).
///
/// # Errors
///
/// Rejects a negative/non-finite `lambda` or non-positive `mean_z`.
pub fn dispatch_rate(lambda: f64, mean_z: f64) -> Result<f64, ModelError> {
    check_rate("lambda", lambda)?;
    check_positive("mean_z", mean_z)?;
    Ok(lambda / (1.0 + lambda * mean_z))
}

/// Mean database-path latency over all misses for one key:
/// `(E[Z] + λ·E[Z²]/2) / (1 + λ·E[Z])`.
///
/// # Errors
///
/// Rejects invalid rates and a second moment below `E[Z]²` (impossible
/// for any distribution).
pub fn mean_latency(lambda: f64, mean_z: f64, second_moment_z: f64) -> Result<f64, ModelError> {
    check_rate("lambda", lambda)?;
    check_positive("mean_z", mean_z)?;
    if !(second_moment_z.is_finite() && second_moment_z >= mean_z * mean_z) {
        return Err(ModelError::InvalidParam(format!(
            "second_moment_z must be finite and >= mean_z^2, got {second_moment_z}"
        )));
    }
    Ok((mean_z + lambda * second_moment_z / 2.0) / (1.0 + lambda * mean_z))
}

/// [`mean_latency`] for exponential fetch latency `Z ~ Exp(nu)`: exactly
/// `1/ν` for **every** `λ` (the memoryless identity — residuals of an
/// exponential are exponential).
///
/// # Errors
///
/// Rejects a non-positive `nu`.
pub fn exponential_mean_latency(nu: f64) -> Result<f64, ModelError> {
    check_positive("nu", nu)?;
    Ok(1.0 / nu)
}

/// The `p`-quantile of the database-path latency when `Z ~ Exp(nu)`:
/// `−ln(1−p)/ν`, for any `λ` — both direct misses (full fetch) and
/// delayed hits (residual) are marginally `Exp(ν)`.
///
/// # Errors
///
/// Rejects a non-positive `nu` or `p ∉ [0, 1)`.
pub fn exponential_latency_quantile(nu: f64, p: f64) -> Result<f64, ModelError> {
    check_positive("nu", nu)?;
    if !(p.is_finite() && (0.0..1.0).contains(&p)) {
        return Err(ModelError::InvalidParam(format!(
            "quantile level must be in [0, 1), got {p}"
        )));
    }
    Ok(-(1.0 - p).ln() / nu)
}

/// Aggregate delayed-hit fraction over a keyspace with per-key Poisson
/// miss rates `rates`: each key contributes misses proportionally to its
/// rate, so the pooled fraction is
/// `Σ_k λ_k²·E[Z]/(1+λ_k·E[Z]) / Σ_k λ_k`.
///
/// Returns 0 when every rate is zero.
///
/// # Errors
///
/// Rejects invalid rates or a non-positive `mean_z`.
pub fn aggregate_delayed_fraction(rates: &[f64], mean_z: f64) -> Result<f64, ModelError> {
    check_positive("mean_z", mean_z)?;
    let mut num = 0.0;
    let mut den = 0.0;
    for &lam in rates {
        check_rate("rate", lam)?;
        num += lam * (lam * mean_z) / (1.0 + lam * mean_z);
        den += lam;
    }
    Ok(if den > 0.0 { num / den } else { 0.0 })
}

/// Aggregate fetch dispatch rate over a keyspace with per-key Poisson
/// miss rates `rates`: `Σ_k λ_k/(1+λ_k·E[Z])`.
///
/// # Errors
///
/// Rejects invalid rates or a non-positive `mean_z`.
pub fn aggregate_dispatch_rate(rates: &[f64], mean_z: f64) -> Result<f64, ModelError> {
    check_positive("mean_z", mean_z)?;
    let mut total = 0.0;
    for &lam in rates {
        check_rate("rate", lam)?;
        total += lam / (1.0 + lam * mean_z);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_fetch_is_the_memoryless_identity() {
        // For Z ~ Exp(ν): E[Z] = 1/ν, E[Z²] = 2/ν² ⇒ E[L] = 1/ν at any λ.
        let nu = 1_000.0;
        for lambda in [0.0, 1.0, 500.0, 1e6] {
            let m = mean_latency(lambda, 1.0 / nu, 2.0 / (nu * nu)).unwrap();
            assert!((m - 1.0 / nu).abs() < 1e-15, "lambda={lambda}: {m}");
        }
        assert_eq!(exponential_mean_latency(nu).unwrap(), 1.0 / nu);
        // Median of Exp(1000): ln 2 ms.
        let q = exponential_latency_quantile(nu, 0.5).unwrap();
        assert!((q - 2.0f64.ln() / nu).abs() < 1e-15);
        assert_eq!(exponential_latency_quantile(nu, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn deterministic_fetch_mean_decreases_with_lambda() {
        // Deterministic fetches (E[Z²] = z²): delayed hits wait on average
        // z/2 < z, so the mixture mean falls from z (λ=0) toward z/2 (λ→∞).
        let z = 10e-3;
        let m0 = mean_latency(0.0, z, z * z).unwrap();
        let m1 = mean_latency(100.0, z, z * z).unwrap();
        let m2 = mean_latency(10_000.0, z, z * z).unwrap();
        assert!((m0 - z).abs() < 1e-15);
        assert!(m1 < m0 && m2 < m1, "{m0} {m1} {m2}");
        assert!(m2 > z / 2.0);
    }

    #[test]
    fn fraction_and_dispatch_rate_bounds() {
        let mean_z = 5e-3;
        let mut prev = -1.0;
        for lambda in [0.0, 1.0, 10.0, 100.0, 1e4, 1e8] {
            let f = delayed_fraction(lambda, mean_z).unwrap();
            assert!((0.0..1.0).contains(&f) || (f - 1.0).abs() < 1e-9);
            assert!(f > prev, "fraction must be strictly increasing");
            prev = f;
            let d = dispatch_rate(lambda, mean_z).unwrap();
            assert!(d <= lambda + 1e-12, "never more fetches than misses");
            assert!(d <= 1.0 / mean_z + 1e-9, "at most one outstanding fetch");
        }
        assert_eq!(delayed_fraction(0.0, mean_z).unwrap(), 0.0);
        // λ·E[Z] = 1 ⇒ half the misses are delayed hits.
        let f = delayed_fraction(200.0, mean_z).unwrap();
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregates_reduce_to_scalars_on_one_key() {
        let mean_z = 2e-3;
        let lam = 300.0;
        let f = aggregate_delayed_fraction(&[lam], mean_z).unwrap();
        assert!((f - delayed_fraction(lam, mean_z).unwrap()).abs() < 1e-15);
        let d = aggregate_dispatch_rate(&[lam], mean_z).unwrap();
        assert!((d - dispatch_rate(lam, mean_z).unwrap()).abs() < 1e-15);
    }

    #[test]
    fn aggregates_weight_by_rate() {
        // One hot key (coalesces a lot) + many cold keys (never): the
        // pooled fraction sits between the per-key extremes, nearer the
        // hot key's, and the dispatch rate is dominated by cold keys.
        let mean_z = 10e-3;
        let mut rates = vec![1_000.0];
        rates.extend(std::iter::repeat_n(0.1, 100));
        let f = aggregate_delayed_fraction(&rates, mean_z).unwrap();
        let hot = delayed_fraction(1_000.0, mean_z).unwrap();
        let cold = delayed_fraction(0.1, mean_z).unwrap();
        assert!(f > cold && f < hot);
        let d = aggregate_dispatch_rate(&rates, mean_z).unwrap();
        let total: f64 = rates.iter().sum();
        assert!(d < total, "coalescing must shed dispatches");
        // Zero traffic: zero everything, no division blowup.
        assert_eq!(aggregate_delayed_fraction(&[0.0], mean_z).unwrap(), 0.0);
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(delayed_fraction(-1.0, 1.0).is_err());
        assert!(delayed_fraction(1.0, 0.0).is_err());
        assert!(mean_latency(1.0, 1.0, 0.5).is_err(), "E[Z²] < E[Z]²");
        assert!(exponential_latency_quantile(1.0, 1.0).is_err());
        assert!(exponential_latency_quantile(0.0, 0.5).is_err());
        assert!(dispatch_rate(f64::NAN, 1.0).is_err());
    }
}
