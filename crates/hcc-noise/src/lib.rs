//! Differential-privacy primitives (Section 3.2 of the paper).
//!
//! * [`GeometricMechanism`] — the geometric mechanism of Ghosh,
//!   Roughgarden & Sundararajan: adds integer *double-geometric*
//!   noise with scale `Δ(q)/ε`. Preferred by the paper because the
//!   output is integral, the variance is lower than Laplace, and it is
//!   immune to the floating-point side channel of naive Laplace
//!   implementations (Mironov 2012).
//! * [`LaplaceMechanism`] — continuous Laplace noise; used only by the
//!   omniscient yardstick baseline and the public-`K` estimation
//!   helper, never for released values.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod geometric;
pub mod laplace;

pub use geometric::{DoubleGeometric, GeometricMechanism};
pub use laplace::LaplaceMechanism;
