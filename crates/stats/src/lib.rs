//! Measurement substrate for the memlat simulator and experiments.
//!
//! Everything the experiments need to turn raw latency samples into the
//! numbers the paper reports:
//!
//! * [`streaming`] — Welford mean/variance accumulators (one pass, stable).
//! * [`ecdf`] — empirical CDFs with exact quantiles and
//!   Kolmogorov–Smirnov distances against model CDFs.
//! * [`gof`] — goodness-of-fit tests (one/two-sample KS with asymptotic
//!   p-values, chi-square) backing the conformance harness.
//! * [`sketch`] — mergeable log-binned quantile sketch (bounded relative
//!   error, exact merge) backing the parallel simulator's streaming
//!   summaries.
//! * [`ci`] — confidence intervals, normal-approximation for large
//!   sample counts and Student-t for small replication counts (the
//!   paper quotes 95% CIs in Table 3).
//! * [`maxstat`] — max-statistics helpers: `E[max of N] ≈ (N/(N+1))`-th
//!   quantile, the approximation at the heart of the paper's eq. 12.
//!
//! # Examples
//!
//! ```
//! use memlat_stats::{Ecdf, StreamingStats};
//!
//! let samples = [1.0, 2.0, 3.0, 4.0, 5.0];
//! let mut s = StreamingStats::new();
//! for &x in &samples {
//!     s.push(x);
//! }
//! assert_eq!(s.mean(), 3.0);
//!
//! let e = Ecdf::from_samples(&samples);
//! assert_eq!(e.quantile(0.5), 3.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod ecdf;
pub mod gof;
pub mod maxstat;
pub mod sketch;
pub mod streaming;

pub use ci::ConfidenceInterval;
pub use ecdf::Ecdf;
pub use gof::GofTest;
pub use maxstat::max_order_quantile;
pub use sketch::QuantileSketch;
pub use streaming::StreamingStats;
