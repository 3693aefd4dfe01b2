//! Discrete-event simulation kernel for the memlat cluster simulator.
//!
//! A deliberately small kernel: the memcached system model is
//! feed-forward (clients → servers → database), so every stage is
//! simulated in virtual time with a measured FCFS station evaluated by
//! the Lindley recursion; streams whose order is only known globally
//! (cache misses reaching the database from many servers) are merged by
//! sorting, not through an event heap.
//!
//! * [`fcfs`] — [`FcfsStation`]: a single-server FCFS queue evaluated in
//!   virtual time by the Lindley recursion; each [`Completion`] carries
//!   its job's wait and sojourn, and the station keeps its busy time
//!   for utilization.
//! * [`metrics`] — per-server activity, resilience and coalescing
//!   counters; the resilience and coalescing ones merge across servers.
//! * [`fault`] — [`fault::Window`] / [`fault::Timeline`]: scheduled
//!   crash/degradation windows a station owner can query in virtual
//!   time.
//! * [`rng`] — deterministic per-stream RNG derivation, so adding a new
//!   random stream never perturbs existing ones.
//!
//! # Examples
//!
//! ```
//! use memlat_des::FcfsStation;
//!
//! let mut s = FcfsStation::new();
//! assert_eq!(s.submit(0.0, 2.0).departure, 2.0);
//! // Arrives while the first job is in service: waits 1 s.
//! let c = s.submit(1.0, 1.0);
//! assert_eq!((c.wait(), c.departure), (1.0, 3.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod fcfs;
pub mod metrics;
pub mod rng;

pub use fcfs::{Completion, FcfsStation};
pub use metrics::{ResilienceCounters, ServerCounters};
pub use rng::stream_rng;
