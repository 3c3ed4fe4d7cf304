//! Reusable per-worker scratch buffers for the estimation hot path.
//!
//! The `Hc` method privatizes a `bound`-length cumulative histogram
//! at every hierarchy node. The seed implementation allocated four
//! dense vectors afresh per node (true cumulative view → noisy copy →
//! isotonic fit → fitted cells), so a release over a deep hierarchy
//! (and even more so an ε-sweep) spent its time in the allocator
//! rather than in arithmetic. The L1 path now needs none of them: one
//! streaming pass per node works out each cumulative cell from the
//! sparse histogram, draws its noise, clamps it to `[0, G]` and
//! pushes it into the slope-trick heap, and a backward running
//! minimum over the recorded heap tops emits the estimate's runs. The
//! clamp moves into the stream because clamping commutes with the L1
//! isotonic fit: the fit of the clamped cells is the clamped fit. An
//! [`EstimatorWorkspace`] owns what remains (the heap, its tops, the
//! `Hg` and `Hc`-L2 buffers); one workspace per worker thread, reused
//! across every node it estimates (the engine's workers keep theirs
//! across jobs), keeps the hot loop in cache-resident storage with no
//! steady-state allocations.
//!
//! **Determinism.** Buffer reuse never changes results: every buffer
//! is fully overwritten (cleared, then written for exactly the
//! current node's length) before it is read, and the RNG draw order
//! is untouched — the streaming and slice-filling noise entry points
//! draw in exactly the per-cell order. The golden bit-identity suite
//! in `hcc-engine` pins this: releases through warm workspaces hash
//! identically to the seed pipeline's.

use hcc_isotonic::PavL1Workspace;
use hcc_noise::GeometricMechanism;

/// Scratch buffers for one estimation worker. Create once per thread
/// and pass to
/// [`Estimator::estimate_in`](crate::Estimator::estimate_in) for
/// every node.
#[derive(Default)]
pub struct EstimatorWorkspace {
    /// Noisy integer view (`Hc`-L2, naive).
    pub(crate) noisy: Vec<i64>,
    /// Dense f64 scratch: the `Hg` method's noisy unattributed
    /// vector, and the `Hc`-L2 branch's fitted expansion.
    pub(crate) values: Vec<f64>,
    /// Fitted cumulative cells (`Hc`-L2).
    pub(crate) fitted: Vec<u64>,
    /// L1 isotonic solver state: the `Hc` kernel's slope-trick heap.
    pub(crate) pav: PavL1Workspace,
    /// The last noise mechanism built, reused while `(ε, Δ)` repeats
    /// (see [`cached_mechanism`]).
    pub(crate) mech: Option<GeometricMechanism>,
    /// The same for the adaptive method's selection probe, whose
    /// `(ε, Δ)` differs from the estimator's it then runs.
    pub(crate) probe_mech: Option<GeometricMechanism>,
}

/// The geometric mechanism for `(epsilon, sensitivity)` from `slot`,
/// rebuilt only when either differs bit for bit from the cached one.
/// Building one precomputes the sampler's inversion table; every node
/// of a release shares one ε, so a worker builds it about once per
/// release (once per ε of a sweep) instead of once per node.
pub(crate) fn cached_mechanism(
    slot: &mut Option<GeometricMechanism>,
    epsilon: f64,
    sensitivity: f64,
) -> &GeometricMechanism {
    let stale = |m: &GeometricMechanism| {
        m.epsilon().to_bits() != epsilon.to_bits()
            || m.sensitivity().to_bits() != sensitivity.to_bits()
    };
    if slot.as_ref().is_some_and(stale) {
        *slot = None;
    }
    slot.get_or_insert_with(|| GeometricMechanism::new(epsilon, sensitivity))
}

impl EstimatorWorkspace {
    /// An empty workspace. No buffer allocates until first use, so
    /// constructing one ad hoc (as the convenience
    /// [`Estimator::estimate`](crate::Estimator::estimate) wrapper
    /// does) costs nothing beyond what the seed pipeline paid.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mechanism_is_rebuilt_only_when_its_key_changes() {
        let mut slot = None;
        let first: *const GeometricMechanism = cached_mechanism(&mut slot, 0.5, 1.0);
        let again: *const GeometricMechanism = cached_mechanism(&mut slot, 0.5, 1.0);
        assert_eq!(first, again);
        assert_eq!(cached_mechanism(&mut slot, 0.25, 1.0).epsilon(), 0.25);
        assert_eq!(cached_mechanism(&mut slot, 0.25, 2.0).sensitivity(), 2.0);
        // A one-ULP change of ε is a different key.
        let m = cached_mechanism(&mut slot, 0.25 + f64::EPSILON, 2.0);
        assert_eq!(m.epsilon().to_bits(), (0.25 + f64::EPSILON).to_bits());
    }
}
