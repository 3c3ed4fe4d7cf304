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
use hcc_noise::GeometricMechanism;
use rand::Rng;

use crate::k_bound::estimate_size_bound;
use crate::workspace::cached_mechanism;
use crate::{hc, hg, EstimatorWorkspace, NodeEstimate};

/// Fraction of the node budget spent on the selection probe (split
/// evenly between the distinct-size and max-size queries).
const SELECTOR_FRACTION: f64 = 0.05;

/// Occupancy threshold: supports sparser than this use `Hg`.
const OCCUPANCY_THRESHOLD: f64 = 0.05;

/// The adaptive kernel: the probe picks `Hg`, or `Hc` (L1) with public
/// size bound `K = bound`, and the rest of the budget runs it.
pub(crate) fn estimate<R: Rng + ?Sized>(
    hist: &CountOfCounts,
    g: u64,
    epsilon: f64,
    bound: u64,
    rng: &mut R,
    ws: &mut EstimatorWorkspace,
) -> NodeEstimate {
    if g == 0 {
        return NodeEstimate::new(CountOfCounts::new(), Vec::new());
    }
    let eps_probe = epsilon * SELECTOR_FRACTION;
    let eps_rest = epsilon - eps_probe;
    if probe_prefers_hg(hist, eps_probe, rng, &mut ws.probe_mech) {
        hg::estimate(hist, g, eps_rest, rng, ws)
    } else {
        hc::estimate_l1(hist, g, eps_rest, bound, rng, ws)
    }
}

/// The private selection probe: returns `true` when `Hg` should be
/// used (gappy support), consuming `eps_probe` of budget. `mech`
/// caches the probe's mechanism across nodes.
fn probe_prefers_hg<R: Rng + ?Sized>(
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
    distinct / max < OCCUPANCY_THRESHOLD
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LevelMethod;
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
        let mut rng = StdRng::seed_from_u64(41);
        let mut dense_hg = 0;
        let mut gappy_hg = 0;
        for _ in 0..20 {
            if probe_prefers_hg(&dense(), 0.5, &mut rng, &mut None) {
                dense_hg += 1;
            }
            if probe_prefers_hg(&gappy(), 0.5, &mut rng, &mut None) {
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
        let est = LevelMethod::Adaptive { bound: 100_000 };
        let mut rng = StdRng::seed_from_u64(42);
        for h in [dense(), gappy()] {
            let g = h.num_groups();
            let out = est.estimate(&h, g, 1.0, &mut rng);
            assert_eq!(out.hist().num_groups(), g);
        }
    }

    #[test]
    fn zero_groups() {
        let est = LevelMethod::Adaptive { bound: 16 };
        let mut rng = StdRng::seed_from_u64(43);
        let out = est.estimate(&CountOfCounts::new(), 0, 1.0, &mut rng);
        assert!(out.hist().is_empty());
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
        fn avg(est: LevelMethod, h: &CountOfCounts, g: u64, runs: usize, rng: &mut StdRng) -> f64 {
            (0..runs)
                .map(|_| emd(est.estimate(h, g, 0.2, rng).hist(), h) as f64)
                .sum::<f64>()
                / runs as f64
        }
        let adaptive = avg(
            LevelMethod::Adaptive { bound: 100_000 },
            &h,
            g,
            runs,
            &mut rng,
        );
        let hg = avg(LevelMethod::Unattributed, &h, g, runs, &mut rng);
        assert!(
            adaptive < 10.0 * (hg + 1.0),
            "adaptive {adaptive} strayed far from Hg {hg}"
        );
    }
}
