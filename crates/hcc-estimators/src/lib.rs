//! Single-node differentially private count-of-counts estimators
//! (Section 4 of the paper).
//!
//! Three strategies produce a private estimate `Ĥ` of one node's
//! count-of-counts histogram:
//!
//! * [`NaiveEstimator`] — geometric noise with scale `2/ε` on every
//!   cell of `H` followed by a nonnegative, sum-to-`G` least-squares
//!   projection. Orders of magnitude worse than the alternatives
//!   (§4.1, confirmed by the §6.2.1 experiment); included as the
//!   paper's strawman.
//! * [`UnattributedEstimator`] (`Hg` method, §4.2) — noise with scale
//!   `1/ε` on the length-`G` unattributed histogram, then L2 isotonic
//!   regression. Accurate for large groups, weak on small ones.
//! * [`CumulativeEstimator`] (`Hc` method, §4.3) — noise with scale
//!   `1/ε` on the cumulative histogram, then anchored isotonic
//!   regression (L1 by default). The paper's recommended default.
//!
//! Every estimator returns a [`NodeEstimate`]: the integral histogram
//! plus the per-group variance estimates of Section 5.1 that the
//! hierarchical consistency step consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod estimate;
pub mod hc;
pub mod hg;
pub mod k_bound;
pub mod naive;
pub mod workspace;

pub use adaptive::AdaptiveEstimator;
pub use estimate::{NodeEstimate, VarianceRun};
pub use hc::CumulativeEstimator;
pub use hg::UnattributedEstimator;
pub use k_bound::estimate_size_bound;
pub use naive::NaiveEstimator;
pub use workspace::EstimatorWorkspace;

use hcc_core::CountOfCounts;
use rand::Rng;

/// A differentially private estimator of a single node's
/// count-of-counts histogram.
///
/// `hist` is the sensitive data; `g` is the *public* number of groups
/// (from the Groups table) which the released histogram must total;
/// `epsilon` is this invocation's privacy budget.
pub trait Estimator {
    /// Short display name used by the experiment harness
    /// (e.g. `"Hc"`, `"Hg"`, `"naive"`).
    fn name(&self) -> &'static str;

    /// Produces the private estimate. The output satisfies
    /// integrality, nonnegativity, and `Σ Ĥ[i] = g`.
    ///
    /// Convenience wrapper over [`Estimator::estimate_in`] with a
    /// throwaway workspace; results are **bit-identical** between the
    /// two entry points — a workspace only recycles buffers, never
    /// changes the RNG draw order or the arithmetic.
    fn estimate<R: Rng + ?Sized>(
        &self,
        hist: &CountOfCounts,
        g: u64,
        epsilon: f64,
        rng: &mut R,
    ) -> NodeEstimate {
        self.estimate_in(
            hist,
            g,
            epsilon,
            rng,
            &mut workspace::EstimatorWorkspace::new(),
        )
    }

    /// [`Estimator::estimate`] reusing caller-owned scratch buffers —
    /// the hot-path entry point. Callers estimating many nodes (a
    /// hierarchy walk, an ε-sweep) hold one warm
    /// [`EstimatorWorkspace`] per worker thread and pass it to every
    /// call, eliminating the per-node dense allocations of the seed
    /// pipeline.
    fn estimate_in<R: Rng + ?Sized>(
        &self,
        hist: &CountOfCounts,
        g: u64,
        epsilon: f64,
        rng: &mut R,
        ws: &mut workspace::EstimatorWorkspace,
    ) -> NodeEstimate;
}
