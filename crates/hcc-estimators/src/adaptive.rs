//! Data-adaptive method selection between the `Hc` and `Hg` methods.
//!
//! The paper observes that neither method dominates: `Hc` wins on
//! *dense* supports (White race data — "many groups from size 0 to
//! size 3000") while `Hg` wins on *gappy* ones (the housing data —
//! "many small groups followed by large gaps between group sizes"),
//! and defers fine-grained selection to tools like Pythia or
//! Chaudhuri et al. (footnote 4, §6.2). This module provides a
//! self-contained private selector in that spirit:
//!
//! 1. spend a small slice of the node's budget measuring the support
//!    *occupancy*: a noisy count of distinct group sizes (global
//!    sensitivity 2 — one person moving between sizes can open one
//!    cell and close another) and a noisy maximum size (sensitivity 1,
//!    footnote 6's procedure);
//! 2. if the occupied fraction `distinct / max` is below a threshold,
//!    the support is gappy → use `Hg`; otherwise use `Hc`;
//! 3. spend the remaining budget on the chosen method.
//!
//! Sequential composition across the three queries keeps the whole
//! estimator ε-differentially private.

use hcc_core::CountOfCounts;
use hcc_isotonic::CumulativeLoss;
use hcc_noise::GeometricMechanism;
use rand::Rng;

use crate::hc::CumulativeEstimator;
use crate::hg::UnattributedEstimator;
use crate::k_bound::estimate_size_bound;
use crate::workspace::cached_mechanism;
use crate::{Estimator, EstimatorWorkspace, NodeEstimate};

/// Chooses between [`CumulativeEstimator`] and
/// [`UnattributedEstimator`] per node using a private sparsity probe.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveEstimator {
    /// Public size bound `K` handed to the `Hc` method.
    pub bound: u64,
    /// Fraction of the node budget spent on the selection probe
    /// (split evenly between the distinct-size and max-size queries).
    pub selector_fraction: f64,
    /// Occupancy threshold: supports sparser than this use `Hg`.
    pub occupancy_threshold: f64,
}

impl AdaptiveEstimator {
    /// Sensible defaults: 5 % of budget on selection, 5 % occupancy
    /// threshold.
    pub fn new(bound: u64) -> Self {
        Self {
            bound,
            selector_fraction: 0.05,
            occupancy_threshold: 0.05,
        }
    }

    /// Overrides the probe budget fraction.
    pub fn with_selector_fraction(mut self, f: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&f) && f > 0.0,
            "fraction must be in (0, 1)"
        );
        self.selector_fraction = f;
        self
    }

    /// Overrides the occupancy threshold.
    pub fn with_occupancy_threshold(mut self, t: f64) -> Self {
        assert!(t > 0.0, "threshold must be positive");
        self.occupancy_threshold = t;
        self
    }

    /// The private selection probe: returns `true` when `Hg` should
    /// be used (gappy support), consuming `eps_probe` of budget.
    /// `mech` caches the probe's mechanism across nodes.
    fn probe_prefers_hg<R: Rng + ?Sized>(
        &self,
        hist: &CountOfCounts,
        eps_probe: f64,
        rng: &mut R,
        mech: &mut Option<GeometricMechanism>,
    ) -> bool {
        let half = eps_probe / 2.0;
        // Distinct-size count, sensitivity 2.
        let mech = cached_mechanism(mech, half, 2.0);
        let distinct = mech.privatize(hist.distinct_sizes() as u64, rng).max(1) as f64;
        // Maximum size, sensitivity 1 (with the footnote-6 cushion the
        // bound overshoots; that only makes the occupancy conservative).
        let max = estimate_size_bound(hist, half, rng).max(1) as f64;
        distinct / max < self.occupancy_threshold
    }
}

impl Estimator for AdaptiveEstimator {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn estimate_in<R: Rng + ?Sized>(
        &self,
        hist: &CountOfCounts,
        g: u64,
        epsilon: f64,
        rng: &mut R,
        ws: &mut EstimatorWorkspace,
    ) -> NodeEstimate {
        if g == 0 {
            return NodeEstimate::new(CountOfCounts::new(), Vec::new());
        }
        let eps_probe = epsilon * self.selector_fraction;
        let eps_rest = epsilon - eps_probe;
        if self.probe_prefers_hg(hist, eps_probe, rng, &mut ws.probe_mech) {
            UnattributedEstimator::new().estimate_in(hist, g, eps_rest, rng, ws)
        } else {
            CumulativeEstimator::with_loss(self.bound, CumulativeLoss::L1)
                .estimate_in(hist, g, eps_rest, rng, ws)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Dense support: sizes 1..=200 all occupied.
    fn dense() -> CountOfCounts {
        CountOfCounts::from_group_sizes((1..=200u64).flat_map(|s| [s, s]))
    }

    /// Gappy support: a few tiny sizes plus isolated huge outliers.
    fn gappy() -> CountOfCounts {
        let mut sizes = vec![1u64; 300];
        sizes.extend([5_000, 20_000, 90_000]);
        CountOfCounts::from_group_sizes(sizes)
    }

    #[test]
    fn probe_separates_dense_from_gappy() {
        let est = AdaptiveEstimator::new(100_000);
        let mut rng = StdRng::seed_from_u64(41);
        let mut dense_hg = 0;
        let mut gappy_hg = 0;
        for _ in 0..20 {
            if est.probe_prefers_hg(&dense(), 0.5, &mut rng, &mut None) {
                dense_hg += 1;
            }
            if est.probe_prefers_hg(&gappy(), 0.5, &mut rng, &mut None) {
                gappy_hg += 1;
            }
        }
        assert!(dense_hg <= 2, "dense data picked Hg {dense_hg}/20 times");
        assert!(
            gappy_hg >= 18,
            "gappy data picked Hg only {gappy_hg}/20 times"
        );
    }

    #[test]
    fn estimate_satisfies_contract_on_both_profiles() {
        let est = AdaptiveEstimator::new(100_000);
        let mut rng = StdRng::seed_from_u64(42);
        for h in [dense(), gappy()] {
            let g = h.num_groups();
            let out = est.estimate(&h, g, 1.0, &mut rng);
            assert_eq!(out.hist().num_groups(), g);
        }
    }

    #[test]
    fn zero_groups() {
        let est = AdaptiveEstimator::new(16);
        let mut rng = StdRng::seed_from_u64(43);
        let out = est.estimate(&CountOfCounts::new(), 0, 1.0, &mut rng);
        assert!(out.hist().is_empty());
    }

    #[test]
    fn builder_validation() {
        let est = AdaptiveEstimator::new(16)
            .with_selector_fraction(0.1)
            .with_occupancy_threshold(0.2);
        assert_eq!(est.selector_fraction, 0.1);
        assert_eq!(est.occupancy_threshold, 0.2);
        assert_eq!(est.name(), "adaptive");
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn invalid_fraction_panics() {
        let _ = AdaptiveEstimator::new(16).with_selector_fraction(1.5);
    }

    #[test]
    fn adaptive_tracks_the_better_method_on_average() {
        // On gappy data at moderate ε, adaptive should be close to
        // pure Hg (within noise), far from the Hc failure mode.
        use hcc_core::emd;
        let h = gappy();
        let g = h.num_groups();
        let mut rng = StdRng::seed_from_u64(44);
        let runs = 5;
        fn avg<E: Estimator>(
            est: &E,
            h: &CountOfCounts,
            g: u64,
            runs: usize,
            rng: &mut StdRng,
        ) -> f64 {
            (0..runs)
                .map(|_| emd(est.estimate(h, g, 0.2, rng).hist(), h) as f64)
                .sum::<f64>()
                / runs as f64
        }
        let adaptive = avg(&AdaptiveEstimator::new(100_000), &h, g, runs, &mut rng);
        let hg = avg(&UnattributedEstimator::new(), &h, g, runs, &mut rng);
        assert!(
            adaptive < 10.0 * (hg + 1.0),
            "adaptive {adaptive} strayed far from Hg {hg}"
        );
    }
}
