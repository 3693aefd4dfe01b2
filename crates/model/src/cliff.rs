//! Proposition 2 — the latency cliff utilization `ρ_S(ξ)` and Table 4.
//!
//! The paper proves that `δ` depends only on the *shape* of the
//! inter-arrival law and the utilization (scale invariance), so the
//! utilization at which `E[T_S(N)]` "reaches a cliff point" is a function
//! of the burst degree `ξ` alone. The paper never states the numeric
//! criterion behind its Table 4; we reverse-engineered it as a **fixed-δ
//! threshold**: the cliff is where `δ(ρ, ξ)` crosses [`DELTA_STAR`],
//! equivalently where the latency multiplier `1/(1−δ)` crosses a fixed
//! value. `DELTA_STAR = 0.80` is a one-parameter least-squares fit to the
//! twenty Table 4 rows (RMSE ≈ 0.033 utilization points); all rows are
//! then *predictions* of the calibrated criterion. See EXPERIMENTS.md for
//! the row-by-row comparison.

use crate::{params::ArrivalPattern, ModelError};

/// The calibrated δ threshold that defines the latency cliff.
///
/// At the cliff the mean per-key latency is `1/(1−δ*) = 5×` the no-queue
/// service time of a batch.
pub const DELTA_STAR: f64 = 0.80;

/// Solves `δ` for the given arrival shape at utilization `ρ` and
/// concurrency `q` (scale-free: the absolute rates cancel per
/// Proposition 2).
///
/// # Errors
///
/// Propagates solver errors; `ρ ≥ 1` is unstable.
fn delta_at_utilization(pattern: ArrivalPattern, rho: f64, q: f64) -> Result<f64, ModelError> {
    if !(rho.is_finite() && rho > 0.0 && rho < 1.0) {
        return Err(ModelError::InvalidParam(format!(
            "utilization must be in (0,1), got {rho}"
        )));
    }
    // Work at an arbitrary μ_S = 1: λ = ρ, batch rate (1−q)ρ, batch
    // service (1−q).
    let gaps = pattern.gap_law((1.0 - q) * rho)?;
    let delta = memlat_queue::solve_delta(&gaps, 1.0 - q)?;
    Ok(delta)
}

/// The utilization at which `δ(ρ)` crosses `threshold` for a
/// Generalized-Pareto workload with burst degree `ξ`, by bisection.
///
/// # Errors
///
/// Returns [`ModelError::InvalidParam`] for `ξ ∉ [0, 1)`, `q ∉ [0, 1)`
/// or a threshold outside `(0, 1)`.
fn cliff_utilization_with_threshold(xi: f64, q: f64, threshold: f64) -> Result<f64, ModelError> {
    if !(threshold.is_finite() && threshold > 0.0 && threshold < 1.0) {
        return Err(ModelError::InvalidParam(format!(
            "delta threshold must be in (0,1), got {threshold}"
        )));
    }
    let pattern = ArrivalPattern::GeneralizedPareto { xi };
    // δ(ρ) is increasing in ρ; bisect.
    let (mut lo, mut hi) = (1e-4, 1.0 - 1e-6);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        let d = delta_at_utilization(pattern, mid, q)?;
        if d < threshold {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// The cliff utilization `ρ_S(ξ)` for a Generalized-Pareto workload with
/// burst degree `ξ` — the paper's Proposition 2 / Table 4 quantity: where
/// `δ(ρ)` crosses the calibrated [`DELTA_STAR`].
///
/// # Errors
///
/// Returns [`ModelError::InvalidParam`] for `ξ ∉ [0, 1)` or `q ∉ [0, 1)`.
///
/// # Examples
///
/// ```
/// use memlat_model::cliff::cliff_utilization;
/// # fn main() -> Result<(), memlat_model::ModelError> {
/// // Facebook workload (ξ = 0.15): paper reports ≈75%.
/// let rho = cliff_utilization(0.15, 0.1)?;
/// assert!((rho - 0.75).abs() < 0.06);
/// # Ok(())
/// # }
/// ```
pub fn cliff_utilization(xi: f64, q: f64) -> Result<f64, ModelError> {
    cliff_utilization_with_threshold(xi, q, DELTA_STAR)
}

/// The paper's Table 4 values `(ξ, ρ_S(ξ))` as published, for comparison.
pub const TABLE4_PAPER: [(f64, f64); 20] = [
    (0.00, 0.77),
    (0.05, 0.76),
    (0.10, 0.76),
    (0.15, 0.75),
    (0.20, 0.74),
    (0.25, 0.73),
    (0.30, 0.72),
    (0.35, 0.71),
    (0.40, 0.69),
    (0.45, 0.67),
    (0.50, 0.65),
    (0.55, 0.62),
    (0.60, 0.59),
    (0.65, 0.55),
    (0.70, 0.50),
    (0.75, 0.45),
    (0.80, 0.39),
    (0.85, 0.31),
    (0.90, 0.21),
    (0.95, 0.09),
];

/// Regenerates Table 4: for each of the paper's ξ values, the cliff
/// utilization under the calibrated criterion.
///
/// # Errors
///
/// Propagates solver errors (none occur for the published grid).
pub fn table4(q: f64) -> Result<Vec<(f64, f64)>, ModelError> {
    TABLE4_PAPER
        .iter()
        .map(|&(xi, _)| Ok((xi, cliff_utilization(xi, q)?)))
        .collect()
}

/// An alternative, criterion-free knee detector (for the ablation in
/// EXPERIMENTS.md): the point of maximum distance below the chord of the
/// normalized latency–utilization curve `1/(1−δ(ρ))` over
/// `ρ ∈ [lo, hi]`.
///
/// Unlike the fixed-δ criterion this depends on the sweep range and turns
/// out to be nearly independent of ξ — evidence that the paper's Table 4
/// was *not* produced this way.
///
/// # Errors
///
/// Propagates solver errors.
pub fn knee_utilization(
    pattern: ArrivalPattern,
    q: f64,
    lo: f64,
    hi: f64,
    samples: usize,
) -> Result<f64, ModelError> {
    if !(0.0 < lo && lo < hi && hi < 1.0) {
        return Err(ModelError::InvalidParam(format!(
            "need 0 < lo < hi < 1, got [{lo}, {hi}]"
        )));
    }
    let n = samples.max(8);
    let l_lo = 1.0 / (1.0 - delta_at_utilization(pattern, lo, q)?);
    let l_hi = 1.0 / (1.0 - delta_at_utilization(pattern, hi, q)?);
    let mut best = (f64::MIN, lo);
    for i in 0..=n {
        let rho = lo + (hi - lo) * i as f64 / n as f64;
        let l = 1.0 / (1.0 - delta_at_utilization(pattern, rho, q)?);
        let xn = (rho - lo) / (hi - lo);
        let yn = (l - l_lo) / (l_hi - l_lo);
        if xn - yn > best.0 {
            best = (xn - yn, rho);
        }
    }
    Ok(best.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_cliff_is_delta_star() {
        // For ξ = 0 (Poisson), δ = ρ, so the cliff is exactly δ*.
        let rho = cliff_utilization(0.0, 0.1).unwrap();
        assert!((rho - DELTA_STAR).abs() < 1e-6, "{rho}");
    }

    #[test]
    fn facebook_cliff_near_75_percent() {
        let rho = cliff_utilization(0.15, 0.1).unwrap();
        assert!((rho - 0.75).abs() < 0.06, "{rho}");
    }

    #[test]
    fn cliff_decreases_with_burstiness() {
        let mut prev = 1.0;
        for xi in [0.0, 0.2, 0.4, 0.6, 0.8, 0.95] {
            let rho = cliff_utilization(xi, 0.1).unwrap();
            assert!(rho < prev, "xi={xi}: {rho} !< {prev}");
            prev = rho;
        }
    }

    #[test]
    fn table4_within_tolerance_of_paper() {
        // Reproduction criterion: every row within 9 utilization points,
        // RMSE under 0.05 (the criterion itself is reverse-engineered).
        let mine = table4(0.1).unwrap();
        let mut sse = 0.0;
        for ((xi, rho), (xi_p, rho_p)) in mine.iter().zip(TABLE4_PAPER.iter()) {
            assert_eq!(xi, xi_p);
            let err = (rho - rho_p).abs();
            assert!(err < 0.09, "xi={xi}: mine={rho:.3} paper={rho_p}");
            sse += err * err;
        }
        let rmse = (sse / 20.0f64).sqrt();
        assert!(rmse < 0.05, "rmse={rmse}");
    }

    #[test]
    fn cliff_is_insensitive_to_q() {
        // Proposition 2: the value is determined by the burst degree; q
        // only rescales both axes of the δ fixed point.
        let a = cliff_utilization(0.3, 0.0).unwrap();
        let b = cliff_utilization(0.3, 0.1).unwrap();
        let c = cliff_utilization(0.3, 0.4).unwrap();
        assert!((a - b).abs() < 0.02, "{a} {b}");
        assert!((b - c).abs() < 0.05, "{b} {c}");
    }

    #[test]
    fn custom_threshold_monotone() {
        let low = cliff_utilization_with_threshold(0.15, 0.1, 0.6).unwrap();
        let high = cliff_utilization_with_threshold(0.15, 0.1, 0.9).unwrap();
        assert!(low < high);
        assert!(cliff_utilization_with_threshold(0.15, 0.1, 1.5).is_err());
    }

    #[test]
    fn knee_detector_is_range_sensitive_not_xi_sensitive() {
        let a = knee_utilization(
            ArrivalPattern::GeneralizedPareto { xi: 0.0 },
            0.1,
            0.1,
            0.95,
            100,
        )
        .unwrap();
        let b = knee_utilization(
            ArrivalPattern::GeneralizedPareto { xi: 0.6 },
            0.1,
            0.1,
            0.95,
            100,
        )
        .unwrap();
        // Both knees sit high and close together — the ablation result.
        assert!(a > 0.6 && b > 0.6);
        assert!((a - b).abs() < 0.15);
        assert!(knee_utilization(ArrivalPattern::Poisson, 0.1, 0.5, 0.4, 10).is_err());
    }
}
