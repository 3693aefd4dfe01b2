//! Numerical substrate for the `memlat` workspace.
//!
//! This crate provides the small set of numerical routines the analytical
//! memcached-latency model relies on:
//!
//! * [`roots`] — bracketing root finders (bisection, Brent) used to solve the
//!   GI/M/1 fixed point `δ = L((1-δ)μ)`.
//! * [`integrate`] — adaptive Simpson quadrature and fixed-order
//!   Gauss–Legendre rules used for numeric Laplace transforms of
//!   heavy-tailed inter-arrival distributions.
//! * [`special`] — `ln Γ`, regularized incomplete gamma (Erlang/gamma CDFs)
//!   and related special functions.
//! * [`kahan`] — compensated summation for long accumulation loops.
//!
//! Everything here is dependency-free, deterministic and `f64`-based.
//!
//! # Examples
//!
//! ```
//! use memlat_numerics::roots::bisect;
//!
//! // Solve x^2 = 2 on [0, 2].
//! let root = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200).unwrap();
//! assert!((root - 2f64.sqrt()).abs() < 1e-10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod integrate;
pub mod kahan;
pub mod roots;
pub mod special;

pub use integrate::adaptive_simpson;
pub use kahan::KahanSum;
pub use roots::{bisect, brent, RootError};
