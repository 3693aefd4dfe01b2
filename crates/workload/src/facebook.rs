//! The Facebook workload preset (paper §5.1, after Atikoglu et al.).
//!
//! The paper's basic-validation workload, in one place (the network
//! latency and `M` are `ModelParams`'s defaults):
//!
//! | quantity | value | source |
//! |---|---|---|
//! | concurrency probability `q` | 0.1 | §5.1 (measured 0.1159) |
//! | burst degree `ξ` | 0.15 | §5.1 / eq. 24 |
//! | per-server key rate `λ` | 62.5 Kps | §5.1 |
//! | memcached service rate `μ_S` | 80 Kps | §5.1 (measured) |
//! | cache miss ratio `r` | 0.01 | §5.1 |
//! | database service time `1/μ_D` | 1 ms | §5.1 |
//! | network latency | 20 µs | Table 3 (prose says ~50 µs; see EXPERIMENTS.md) |
//! | keys per request `N` | 150 | §5.1 |
//! | servers `M` | 4 | §5.1 |

use memlat_dist::{GeneralizedPareto, ParamError};

use crate::arrival::BatchArrivals;

/// Concurrency probability `q` used in the paper's experiments.
pub const CONCURRENCY_Q: f64 = 0.1;

/// Burst degree `ξ` of the Generalized Pareto inter-arrival law.
const BURST_XI: f64 = 0.15;

/// Per-server key arrival rate `λ` (keys/s).
pub const KEY_RATE: f64 = 62_500.0;

/// Memcached per-key service rate `μ_S` (keys/s).
pub const SERVICE_RATE: f64 = 80_000.0;

/// Cache miss ratio `r`.
pub const MISS_RATIO: f64 = 0.01;

/// Database service rate `μ_D` (keys/s; 1/μ_D = 1 ms).
pub const DB_SERVICE_RATE: f64 = 1_000.0;

/// Keys per end-user request `N`.
pub const KEYS_PER_REQUEST: u64 = 150;

/// The batch inter-arrival law for one server at the preset rates:
/// Generalized Pareto with `ξ = 0.15` and batch rate `(1−q)·λ`, so the
/// per-key rate is exactly `λ`.
///
/// # Errors
///
/// Never fails for the preset constants.
pub fn interarrival() -> Result<GeneralizedPareto, ParamError> {
    GeneralizedPareto::facebook(BURST_XI, (1.0 - CONCURRENCY_Q) * KEY_RATE)
}

/// A ready-to-run per-server batch arrival stream at the preset rates.
///
/// # Errors
///
/// Never fails for the preset constants.
pub fn batch_arrivals() -> Result<BatchArrivals, ParamError> {
    BatchArrivals::new(interarrival()?, CONCURRENCY_Q)
}

/// Value-size law (bytes): heavy-tailed with median ≈ 135 B (ETC pool);
/// modeled as a Generalized Pareto with mean 329 B (ξ = 0.35).
///
/// # Errors
///
/// Never fails for the preset constants.
pub fn value_size_bytes() -> Result<GeneralizedPareto, ParamError> {
    GeneralizedPareto::with_mean(0.35, 329.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memlat_dist::Continuous;

    #[test]
    fn preset_rates_consistent() {
        let s = batch_arrivals().unwrap();
        assert!((s.key_rate() - KEY_RATE).abs() < 1e-6);
        assert!((s.concurrency() - CONCURRENCY_Q).abs() < 1e-12);
        // Utilization of the paper's testbed: 78%.
        assert!((KEY_RATE / SERVICE_RATE - 0.781_25).abs() < 1e-9);
    }

    #[test]
    fn interarrival_matches_eq_24() {
        let d = interarrival().unwrap();
        assert_eq!(d.shape(), BURST_XI);
        // Mean batch gap = 1/((1−q)λ).
        assert!((d.mean() - 1.0 / (0.9 * KEY_RATE)).abs() < 1e-15);
    }

    #[test]
    fn value_size_law_has_a_sane_mean() {
        assert!((value_size_bytes().unwrap().mean() - 329.0).abs() < 1e-6);
    }
}
