//! Single-node differentially private count-of-counts estimators
//! (Section 4 of the paper).
//!
//! [`LevelMethod`] names the strategy a hierarchy level uses and runs
//! it on one node, producing a private estimate `Ĥ` of that node's
//! count-of-counts histogram:
//!
//! * [`LevelMethod::Naive`] (§4.1) — geometric noise with scale `2/ε`
//!   on every cell of `H` followed by a nonnegative, sum-to-`G`
//!   least-squares projection. Orders of magnitude worse than the
//!   alternatives (confirmed by the §6.2.1 experiment); included as
//!   the paper's strawman.
//! * [`LevelMethod::Unattributed`] (`Hg`, §4.2) — noise with scale
//!   `1/ε` on the length-`G` unattributed histogram, then L2 isotonic
//!   regression. Accurate for large groups, weak on small ones.
//! * [`LevelMethod::Cumulative`] (`Hc`, §4.3) — noise with scale `1/ε`
//!   on the cumulative histogram, then anchored L1 isotonic
//!   regression. The paper's recommended default;
//!   [`LevelMethod::CumulativeL2`] post-processes with L2 instead.
//! * [`LevelMethod::Adaptive`] — a private sparsity probe picks `Hc`
//!   or `Hg` per node (the selection the paper's footnote 4 defers).
//!
//! Every method returns a [`NodeEstimate`]: the integral histogram
//! plus the per-group variance estimates of Section 5.1 that the
//! hierarchical consistency step consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
pub mod estimate;
mod hc;
mod hg;
pub mod k_bound;
mod naive;
pub mod workspace;

pub use estimate::{NodeEstimate, VarianceRun, MAX_ESTIMATE_SIZE};
pub use k_bound::estimate_size_bound;
pub use workspace::EstimatorWorkspace;

use hcc_core::CountOfCounts;
use rand::Rng;

/// Which single-node estimator a hierarchy level uses (the paper's
/// `Hc`/`Hg` per-level selection, e.g. `Hg × Hc × Hc`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LevelMethod {
    /// The `Hc` method with L1 post-processing (paper's default
    /// recommendation) and public size bound `K`.
    Cumulative {
        /// Public upper bound `K` on group size.
        bound: u64,
    },
    /// The `Hc` method with L2 post-processing (for the paper's
    /// L1-vs-L2 ablation).
    CumulativeL2 {
        /// Public upper bound `K` on group size.
        bound: u64,
    },
    /// The `Hg` (unattributed histogram) method.
    Unattributed,
    /// The naive cell-noise method (strawman; §6.2.1).
    Naive {
        /// Public upper bound `K` on group size.
        bound: u64,
    },
    /// Per-node data-adaptive selection between `Hc` and `Hg` via a
    /// private sparsity probe (the extension the paper delegates to
    /// Pythia / Chaudhuri et al. in footnote 4).
    Adaptive {
        /// Public upper bound `K` on group size.
        bound: u64,
    },
}

impl LevelMethod {
    /// Display name matching the paper's notation.
    pub fn name(&self) -> &'static str {
        match self {
            LevelMethod::Cumulative { .. } => "Hc",
            LevelMethod::CumulativeL2 { .. } => "Hc-L2",
            LevelMethod::Unattributed => "Hg",
            LevelMethod::Naive { .. } => "naive",
            LevelMethod::Adaptive { .. } => "adaptive",
        }
    }

    /// Produces the private estimate of one node's histogram `hist`.
    /// `g` is the *public* number of groups (from the Groups table)
    /// which the released histogram must total; `epsilon` is this
    /// invocation's privacy budget. The output satisfies integrality,
    /// nonnegativity, and `Σ Ĥ[i] = g`.
    ///
    /// Convenience wrapper over [`LevelMethod::estimate_in`] with a
    /// throwaway workspace; results are **bit-identical** between the
    /// two entry points — a workspace only recycles buffers, never
    /// changes the RNG draw order or the arithmetic.
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        hist: &CountOfCounts,
        g: u64,
        epsilon: f64,
        rng: &mut R,
    ) -> NodeEstimate {
        self.estimate_in(hist, g, epsilon, rng, &mut EstimatorWorkspace::new())
    }

    /// [`LevelMethod::estimate`] reusing caller-owned scratch buffers —
    /// the hot-path entry point. Callers estimating many nodes (a
    /// hierarchy walk, an ε-sweep) hold one warm
    /// [`EstimatorWorkspace`] per worker thread and pass it to every
    /// call.
    pub fn estimate_in<R: Rng + ?Sized>(
        &self,
        hist: &CountOfCounts,
        g: u64,
        epsilon: f64,
        rng: &mut R,
        ws: &mut EstimatorWorkspace,
    ) -> NodeEstimate {
        debug_assert_eq!(hist.num_groups(), g, "public G must match the data");
        match *self {
            LevelMethod::Cumulative { bound } => hc::estimate_l1(hist, g, epsilon, bound, rng, ws),
            LevelMethod::CumulativeL2 { bound } => {
                hc::estimate_l2(hist, g, epsilon, bound, rng, ws)
            }
            LevelMethod::Unattributed => hg::estimate(hist, g, epsilon, rng, ws),
            LevelMethod::Naive { bound } => naive::estimate(hist, g, epsilon, bound, rng, ws),
            LevelMethod::Adaptive { bound } => adaptive::estimate(hist, g, epsilon, bound, rng, ws),
        }
    }
}
