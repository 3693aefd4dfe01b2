//! # memlat — Modeling and Analyzing Latency in the Memcached System
//!
//! A reproduction of *"Modeling and Analyzing Latency in the Memcached
//! system"* (Cheng, Ren, Jiang, Zhang — ICDCS 2017): an analytical latency
//! model for memcached deployments together with a discrete-event simulator
//! that plays the role of the paper's physical testbed.
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! * [`model`] — the paper's contribution: Theorem 1 latency estimation,
//!   Proposition 1/2, cliff utilization, factor analysis.
//! * [`queueing`] — GI/M/1, GI^X/M/1 (batch) and M/M/1 machinery.
//! * [`dist`] — probability distributions with Laplace transforms.
//! * [`cluster`] — the full-system discrete-event simulator.
//! * [`workload`] — arrival processes, key popularity, placement,
//!   Facebook workload presets.
//! * [`cache`] — memcached server internals (slab allocator + LRU store).
//! * [`des`] — the discrete-event kernel.
//! * [`stats`] — streaming statistics, ECDFs, quantiles.
//! * [`numerics`] — root finding, quadrature, special functions.
//!
//! # Quickstart
//!
//! Estimate end-user latency for the paper's Facebook-workload
//! configuration (Table 3):
//!
//! ```
//! use memlat::model::{ArrivalPattern, ModelParams};
//!
//! let params = ModelParams::builder()
//!     .servers(4)
//!     .keys_per_request(150)
//!     .arrival(ArrivalPattern::GeneralizedPareto { xi: 0.15 })
//!     .key_rate_per_server(62_500.0)
//!     .concurrency(0.1)
//!     .service_rate(80_000.0)
//!     .miss_ratio(0.01)
//!     .db_service_rate(1_000.0)
//!     .network_latency(20e-6)
//!     .build()?;
//!
//! let est = params.estimate()?;
//! // The paper's Table 3: T_S(N) ∈ [351 µs, 366 µs], T_D(N) ≈ 836 µs.
//! assert!(est.server.upper > 300e-6 && est.server.upper < 450e-6);
//! assert!((est.database - 836e-6).abs() < 30e-6);
//! # Ok::<(), memlat::model::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use memlat_cache as cache;
pub use memlat_cluster as cluster;
pub use memlat_des as des;
pub use memlat_dist as dist;
pub use memlat_model as model;
pub use memlat_numerics as numerics;
pub use memlat_queue as queueing;
pub use memlat_stats as stats;
pub use memlat_workload as workload;
