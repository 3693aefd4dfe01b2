//! Queueing-theory substrate for the memcached latency model.
//!
//! The paper (Cheng et al., ICDCS 2017) models each memcached server as a
//! **GI^X/M/1** queue — general, independent batch arrivals (the burst and
//! concurrency of key traffic) with exponential per-key service — and the
//! cache-miss database stage as **M/M/1**. This crate implements:
//!
//! * [`gim1`] — the GI/M/1 queue: the fixed point `σ = L_A((1−σ)μ)`,
//!   waiting/sojourn laws, quantiles.
//! * [`gixm1`] — the paper's GI^X/M/1 batch queue, reduced to GI/M/1 by
//!   collapsing each geometric batch into one exponential "super-job" with
//!   rate `(1−q)μ_S` (§3 of the paper); per-key latency bounds of eq. (9).
//! * [`mm1`] — closed-form M/M/1 (the database stage).
//! * [`exact_key`] — the exact per-key latency law, against which the
//!   eq. (9) bounds are checked.
//! * [`delta`] — the `δ`-root solver shared by all of the above.
//!
//! # Examples
//!
//! Solve the paper's Table 3 configuration (Facebook workload):
//!
//! ```
//! use memlat_dist::GeneralizedPareto;
//! use memlat_queue::GixM1;
//!
//! # fn main() -> Result<(), memlat_queue::QueueError> {
//! // Per-server key rate λ = 62.5 Kps, concurrency q = 0.1 ⇒ batch rate
//! // (1−q)λ = 56.25 Kps; burst degree ξ = 0.15; service μ_S = 80 Kps.
//! let gaps = GeneralizedPareto::facebook(0.15, 56_250.0)
//!     .map_err(memlat_queue::QueueError::from)?;
//! let queue = GixM1::new(&gaps, 0.1, 80_000.0)?;
//! assert!((queue.utilization() - 0.78125).abs() < 1e-9);
//! assert!(queue.delta() > 0.78 && queue.delta() < 0.85);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod delta;
pub mod exact_key;
pub mod gim1;
pub mod gixm1;
pub mod mm1;

pub use delta::solve_delta;
pub use exact_key::ExactKeyLatency;
pub use gim1::GiM1;
pub use gixm1::GixM1;
pub use mm1::MM1;

/// Error produced by the queueing solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// The offered load is at or beyond capacity: no stationary regime.
    Unstable {
        /// The offered utilization `ρ = λ/μ`.
        utilization: f64,
    },
    /// A parameter was out of its valid range.
    InvalidParam(String),
    /// The fixed-point solver failed (e.g. the numeric Laplace transform
    /// misbehaved).
    Solver(memlat_numerics::RootError),
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::Unstable { utilization } => {
                write!(f, "queue is unstable (utilization {utilization} >= 1)")
            }
            QueueError::InvalidParam(what) => write!(f, "invalid queue parameter: {what}"),
            QueueError::Solver(e) => write!(f, "fixed-point solver failed: {e}"),
        }
    }
}

impl std::error::Error for QueueError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueueError::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<memlat_numerics::RootError> for QueueError {
    fn from(e: memlat_numerics::RootError) -> Self {
        QueueError::Solver(e)
    }
}

impl From<memlat_dist::ParamError> for QueueError {
    fn from(e: memlat_dist::ParamError) -> Self {
        QueueError::InvalidParam(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(QueueError::Unstable { utilization: 1.2 }
            .to_string()
            .contains("1.2"));
        assert!(QueueError::InvalidParam("x".into())
            .to_string()
            .contains('x'));
        let s: QueueError = memlat_numerics::RootError::NotANumber.into();
        assert!(s.to_string().contains("solver"));
    }

    #[test]
    fn solver_error_has_source() {
        use std::error::Error;
        let e = QueueError::Solver(memlat_numerics::RootError::NotANumber);
        assert!(e.source().is_some());
        assert!(QueueError::Unstable { utilization: 1.0 }.source().is_none());
    }
}
