//! Isotonic regression and related projections (Sections 4.1–4.3 of
//! the paper).
//!
//! The paper's estimators all post-process noisy integer vectors with
//! one of three exact, special-purpose solvers:
//!
//! * [`isotonic_l2`] / [`isotonic_l2_weighted`] — pool-adjacent-
//!   violators (PAV) for `min ‖x − y‖₂² s.t. x non-decreasing`, `O(n)`.
//!   Used by the `Hg` method and the L2 variant of the `Hc` method.
//! * [`isotonic_l1`] — L1 isotonic regression for
//!   `min ‖x − y‖₁ s.t. x non-decreasing` by the slope trick: a
//!   forward pass over a max-heap of cost breakpoints and a backward
//!   running minimum, `O(n + span)` with a counting heap for inputs of
//!   narrow value span, `O(n log n)` with a `BinaryHeap` otherwise.
//!   Returns the lower-median PAV fit, so integer inputs produce
//!   integer fits, matching the paper's observation that "the L1
//!   version mostly returns integers". Preferred variant for the `Hc`
//!   method. The hot-path entry point is [`PavL1Workspace`], whose
//!   streaming [`L1Pass`] takes each value as it is produced and whose
//!   retained buffers make repeated passes allocation-free;
//!   [`isotonic_l1_heap`] is the seed PAV with mergeable median
//!   blocks, kept as oracle and perf baseline.
//! * [`project_simplex`] — exact Euclidean projection onto
//!   `{x ≥ 0, Σx = s}` (the quadratic program of the naive method).
//!
//! [`anchored_cumulative`] composes isotonic regression with the `Hc`
//! method's boundary conditions (`0 ≤ Ĥc`, non-decreasing,
//! `Ĥc[K] = G`), and [`round_preserving_sum`] / [`apportion`]
//! implement the paper's largest-remainder integer rounding
//! (Section 4.1 and footnote 10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anchored;
pub mod fit;
pub mod pav_l1;
pub mod pav_l1_weighted;
pub mod pav_l2;
pub mod rounding;
pub mod simplex;

pub use anchored::{anchored_cumulative, anchored_cumulative_into, CumulativeLoss};
pub use fit::{Block, IsotonicFit};
pub use pav_l1::{isotonic_l1, isotonic_l1_heap, isotonic_l1_with, L1Fit, L1Pass, PavL1Workspace};
pub use pav_l1_weighted::isotonic_l1_weighted;
pub use pav_l2::{isotonic_l2, isotonic_l2_weighted};
pub use rounding::{apportion, round_preserving_sum};
pub use simplex::project_simplex;
