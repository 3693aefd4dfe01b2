//! Discrete-event simulator of a full memcached deployment — the
//! reproduction's stand-in for the paper's physical testbed.
//!
//! The simulated system realizes exactly the generative process the
//! paper's model assumes (and, in [`e2e`] mode, relaxes one of its
//! assumptions):
//!
//! * per-server **batch key arrivals** with a configurable gap law
//!   (Generalized Pareto for the Facebook workload) and geometric batch
//!   sizes (`q`),
//! * **exponential per-key service** at rate `μ_S`, FCFS,
//! * a **cache-miss stage**: each key misses with fixed probability `r`
//!   — or, in the cache-backed extension, by actually consulting a
//!   slab/LRU [`memlat_cache::Store`] fed with Zipf-popular keys — and is
//!   relayed to a sharded `M/M/1` database,
//! * constant **network latency**, and
//! * **request assembly**: an end-user request's `N` keys split
//!   multinomially over servers per the load shares `{p_j}`, and the
//!   request completes at the maximum key latency (the fork-join join).
//!
//! | module | role |
//! |---|---|
//! | [`config`] | [`SimConfig`]: model parameters + simulation controls |
//! | [`fault`] | [`FaultPlan`] crash/slowdown schedules + [`ClientPolicy`] timeout/retry/hedging |
//! | [`miss`] | per-server miss state: fixed-ratio coin flip, or an LRU-backed store (independent or consistent-hash routed) |
//! | [`server`] | one memcached server: batches → FCFS exp(μ_S) → miss decision |
//! | [`database`] | sharded M/M/1 database stage (independent or per-key coalescing relay) + a fast db-only experiment path |
//! | [`sim`] | [`ClusterSim`]: orchestrates servers → database, produces [`SimOutput`] |
//! | [`columns`] | [`KeyColumns`]: column-major per-key `(s, d)` storage |
//! | [`assembly`] | synthetic request assembly and latency breakdowns |
//! | [`e2e`] | end-to-end mode: explicit request fan-out (tests the independence assumption) |
//! | [`runner`] | parallel replications with confidence intervals |
//! | [`pool`] | the one worker pool: round-robin items over caller-owned worker states, nested pools inline |
//!
//! # Examples
//!
//! ```
//! use memlat_cluster::{ClusterSim, SimConfig};
//! use memlat_model::ModelParams;
//!
//! # fn main() -> Result<(), memlat_cluster::SimError> {
//! let params = ModelParams::builder().build()?;
//! let cfg = SimConfig::new(params).duration(0.3).seed(7);
//! let out = ClusterSim::run(&cfg)?;
//! assert!(out.total_keys() > 10_000);
//! // Measured E[T_S(N)] lands in the model's Theorem-1 band (± noise).
//! let measured = out.expected_server_latency(150);
//! assert!(measured > 100e-6 && measured < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod assembly;
pub mod columns;
pub mod config;
pub mod database;
pub mod e2e;
pub mod fault;
pub mod miss;
pub mod pool;
pub mod runner;
pub mod server;
pub mod sim;

pub use assembly::{RequestAssembler, RequestSample, RequestStats};
pub use columns::KeyColumns;
pub use config::{CacheBackedConfig, CacheRouting, MissMode, MissRelay, Retention, SimConfig};
pub use e2e::{E2eConfig, E2eOutput};
pub use fault::{ClientPolicy, FaultEvent, FaultKind, FaultPlan, HedgePolicy, RetryPolicy};
pub use miss::{build_miss_state, FixedRatioMiss, LruBackedMiss, MissState, RoutedHandle};
pub use runner::{run_replications, ReplicatedStats};
pub use sim::{ClusterSim, ServerSummary, SimOutput, SimScratch};

/// Error type of the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Invalid simulation configuration.
    InvalidConfig(String),
    /// The model parameters were rejected (validation or instability).
    Model(memlat_model::ModelError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(what) => write!(f, "invalid simulation config: {what}"),
            SimError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Model(e) => Some(e),
            SimError::InvalidConfig(_) => None,
        }
    }
}

impl From<memlat_model::ModelError> for SimError {
    fn from(e: memlat_model::ModelError) -> Self {
        SimError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SimError::InvalidConfig("zero duration".into());
        assert!(e.to_string().contains("zero duration"));
        let m: SimError = memlat_model::ModelError::InvalidParam("x".into()).into();
        assert!(m.to_string().contains("model error"));
    }
}
