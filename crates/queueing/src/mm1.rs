//! The M/M/1 queue — the paper's database stage.

use crate::QueueError;

/// A classic M/M/1 queue with arrival rate `λ` and service rate `μ`.
///
/// The paper formulates the cache-miss stage as M/M/1 and then exploits
/// that the database is heavily offloaded (`ρ ≪ 1`), approximating the
/// per-key database latency as `Exp(μ_D)` (eq. 19). Both the exact sojourn
/// law and that light-load approximation are provided.
///
/// # Examples
///
/// ```
/// use memlat_queue::MM1;
/// # fn main() -> Result<(), memlat_queue::QueueError> {
/// let db = MM1::new(25.0, 1_000.0)?;
/// assert!((db.utilization() - 0.025).abs() < 1e-12);
/// // Sojourn is Exp((1−ρ)μ): mean ≈ 1/μ at light load.
/// assert!((db.mean_sojourn() - 1.0 / 975.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MM1 {
    arrival_rate: f64,
    service_rate: f64,
}

impl MM1 {
    /// Creates a stable M/M/1 queue.
    ///
    /// # Errors
    ///
    /// [`QueueError::InvalidParam`] for non-positive rates;
    /// [`QueueError::Unstable`] when `λ ≥ μ`.
    pub fn new(arrival_rate: f64, service_rate: f64) -> Result<Self, QueueError> {
        if !(arrival_rate.is_finite() && arrival_rate >= 0.0) {
            return Err(QueueError::InvalidParam(format!(
                "arrival rate must be non-negative, got {arrival_rate}"
            )));
        }
        if !(service_rate.is_finite() && service_rate > 0.0) {
            return Err(QueueError::InvalidParam(format!(
                "service rate must be positive, got {service_rate}"
            )));
        }
        if arrival_rate >= service_rate {
            return Err(QueueError::Unstable {
                utilization: arrival_rate / service_rate,
            });
        }
        Ok(Self {
            arrival_rate,
            service_rate,
        })
    }

    /// Utilization `ρ = λ/μ`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.arrival_rate / self.service_rate
    }

    /// Service rate `μ`.
    #[must_use]
    pub fn service_rate(&self) -> f64 {
        self.service_rate
    }

    /// Sojourn-time CDF: `1 − e^{-(1−ρ)μt}` (exact for M/M/1).
    #[must_use]
    pub fn sojourn_cdf(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            -(-(1.0 - self.utilization()) * self.service_rate * t).exp_m1()
        }
    }

    /// Mean sojourn time `1/((1−ρ)μ) = 1/(μ−λ)`.
    #[must_use]
    pub fn mean_sojourn(&self) -> f64 {
        1.0 / (self.service_rate - self.arrival_rate)
    }

    /// Mean waiting time `ρ/(μ−λ)`.
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        self.utilization() / (self.service_rate - self.arrival_rate)
    }

    /// `k`-th quantile of the sojourn time.
    ///
    /// # Panics
    ///
    /// Panics unless `k ∈ [0, 1)`.
    #[must_use]
    pub fn sojourn_quantile(&self, k: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&k),
            "quantile requires k in [0,1), got {k}"
        );
        -(1.0 - k).ln() / ((1.0 - self.utilization()) * self.service_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_params() {
        assert!(MM1::new(-1.0, 1.0).is_err());
        assert!(MM1::new(1.0, 0.0).is_err());
        assert!(matches!(
            MM1::new(2.0, 1.0),
            Err(QueueError::Unstable { .. })
        ));
        assert!(matches!(
            MM1::new(1.0, 1.0),
            Err(QueueError::Unstable { .. })
        ));
    }

    #[test]
    fn textbook_values() {
        let q = MM1::new(3.0, 4.0).unwrap();
        assert_eq!(q.utilization(), 0.75);
        assert_eq!(q.mean_sojourn(), 1.0);
        assert_eq!(q.mean_wait(), 0.75);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let q = MM1::new(2.0, 10.0).unwrap();
        for k in [0.1, 0.5, 0.99] {
            assert!((q.sojourn_cdf(q.sojourn_quantile(k)) - k).abs() < 1e-12);
        }
    }

    #[test]
    fn agrees_with_gi_m_1_solver() {
        use memlat_dist::Exponential;
        let gaps = Exponential::new(6.0).unwrap();
        let general = crate::GiM1::solve(&gaps, 10.0).unwrap();
        let closed = MM1::new(6.0, 10.0).unwrap();
        assert!((general.mean_sojourn() - closed.mean_sojourn()).abs() < 1e-6);
        for t in [0.05, 0.2, 1.0] {
            assert!(
                (general.sojourn_cdf(t) - closed.sojourn_cdf(t)).abs() < 1e-6,
                "t={t}"
            );
        }
    }

    #[test]
    fn zero_arrivals_allowed() {
        let q = MM1::new(0.0, 5.0).unwrap();
        assert_eq!(q.utilization(), 0.0);
        assert_eq!(q.mean_sojourn(), 0.2);
    }
}
