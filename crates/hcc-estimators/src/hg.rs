//! The unattributed-histogram method (`Hg`, Section 4.2).
//!
//! Privatizes via the unattributed representation: add
//! double-geometric noise with scale `1/ε` to every entry of the
//! length-`G` non-decreasing vector `Hg` (sensitivity 1, Hay et al.),
//! restore monotonicity with L2 isotonic regression, round to the
//! nearest integer, and convert back to a count-of-counts histogram.
//!
//! The paper uses the L2 (PAV) variant because `Hg` "can have length
//! in the hundreds of millions" where PAV's linear time matters; we
//! follow that choice. The vector is never built: one streaming pass
//! per node walks the histogram's runs in ascending size, draws each
//! group's noisy size and pushes it into the workspace's PAV stack,
//! then reads the fit out clamped at zero, with equal neighbours
//! merged, and rounds each block into a run.
//!
//! Per-group variances (Section 5.1.1): a group in an isotonic
//! partition of size `|S|` gets variance `2 / (|S| ε²)` — the Laplace
//! approximation of the noise variance divided by the number of noisy
//! cells averaged by PAV.

use hcc_core::CountOfCounts;
use rand::Rng;

use crate::estimate::VarianceRun;
use crate::workspace::cached_mechanism;
use crate::{EstimatorWorkspace, NodeEstimate};

/// Sensitivity of the unattributed histogram query.
const SENSITIVITY: f64 = 1.0;

/// The `Hg` kernel.
pub(crate) fn estimate<R: Rng + ?Sized>(
    hist: &CountOfCounts,
    g: u64,
    epsilon: f64,
    rng: &mut R,
    ws: &mut EstimatorWorkspace,
) -> NodeEstimate {
    if g == 0 {
        return NodeEstimate::new(CountOfCounts::new(), Vec::new());
    }
    let mech = cached_mechanism(&mut ws.mech, epsilon, SENSITIVITY);
    // Groups in ascending size, as the dense `Hg` lists them, each
    // drawn in that order.
    let mut pass = ws.pav_l2.begin();
    for (size, &count) in hist.as_slice().iter().enumerate() {
        let count = usize::try_from(count).expect("G exceeds memory");
        let sizes = std::iter::repeat_n(size as i64, count);
        pass.extend(mech.privatize_iter(sizes, rng).map(|v| v as f64));
    }
    // Round block-wise; pool variance where rounding merges
    // adjacent blocks to the same size.
    let per_cell_var = 2.0 / (epsilon * epsilon);
    let mut runs = Vec::with_capacity(pass.blocks().len());
    runs.extend(pass.clamped(0.0, f64::INFINITY).map(|b| VarianceRun {
        size: b.value.round().max(0.0) as u64,
        count: b.len as u64,
        variance: per_cell_var / b.len as f64,
    }));
    NodeEstimate::from_variance_runs(runs)
}

#[cfg(test)]
mod tests {
    use crate::{EstimatorWorkspace, LevelMethod};
    use hcc_core::{emd, CountOfCounts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preserves_group_count() {
        let h = CountOfCounts::from_group_sizes([1, 2, 2, 9, 100]);
        let mut rng = StdRng::seed_from_u64(5);
        let est = LevelMethod::Unattributed.estimate(&h, 5, 0.5, &mut rng);
        assert_eq!(est.hist().num_groups(), 5);
    }

    #[test]
    fn empty_node() {
        let h = CountOfCounts::new();
        let mut rng = StdRng::seed_from_u64(6);
        let est = LevelMethod::Unattributed.estimate(&h, 0, 1.0, &mut rng);
        assert!(est.hist().is_empty());
        assert!(est.variances().is_empty());
    }

    #[test]
    fn high_epsilon_recovers_truth() {
        let h = CountOfCounts::from_group_sizes([1, 1, 4, 4, 7]);
        let mut rng = StdRng::seed_from_u64(7);
        let est = LevelMethod::Unattributed.estimate(&h, 5, 500.0, &mut rng);
        assert_eq!(est.hist(), &h);
    }

    #[test]
    fn large_groups_estimated_accurately() {
        // §4.2: "this method is very good at estimating large group
        // sizes". One group of 10 000 at ε = 1 should land within a
        // few noise standard deviations.
        let h = CountOfCounts::from_group_sizes([10_000]);
        let mut rng = StdRng::seed_from_u64(8);
        let est = LevelMethod::Unattributed.estimate(&h, 1, 1.0, &mut rng);
        let got = est.hist().to_unattributed().runs()[0].size;
        assert!(got.abs_diff(10_000) < 50, "estimated {got}");
    }

    #[test]
    fn variances_shrink_with_partition_size() {
        // Many equal-sized groups pool into a large partition whose
        // per-group variance is divided by the partition length.
        let h = CountOfCounts::from_counts(vec![0, 1000]);
        let mut rng = StdRng::seed_from_u64(9);
        let est = LevelMethod::Unattributed.estimate(&h, 1000, 1.0, &mut rng);
        let vr = est.variance_runs();
        // Biggest run should carry a tiny variance (≤ 2/ε² / ~100).
        let dominant = vr.iter().max_by_key(|r| r.count).unwrap();
        assert!(dominant.count > 100);
        assert!(dominant.variance < 2.0 / 100.0);
    }

    #[test]
    fn emd_reasonable_at_moderate_epsilon() {
        let sizes: Vec<u64> = (0..500).map(|i| 1 + (i % 5)).collect();
        let h = CountOfCounts::from_group_sizes(sizes);
        let mut rng = StdRng::seed_from_u64(10);
        let est = LevelMethod::Unattributed.estimate(&h, 500, 1.0, &mut rng);
        let e = emd(est.hist(), &h);
        // 500 groups with sizes 1..5; the Hg method's error should be
        // far below total mass (~1500).
        assert!(e < 500, "emd {e} too large");
    }

    #[test]
    fn warm_workspace_is_bit_identical_to_fresh() {
        let mut ws = EstimatorWorkspace::new();
        let hists = [
            CountOfCounts::from_group_sizes([1, 2, 2, 9, 100]),
            CountOfCounts::from_counts(vec![0, 50]),
            CountOfCounts::new(),
        ];
        for (i, h) in hists.iter().enumerate() {
            let g = h.num_groups();
            let mut a = StdRng::seed_from_u64(700 + i as u64);
            let mut b = StdRng::seed_from_u64(700 + i as u64);
            let fresh = LevelMethod::Unattributed.estimate(h, g, 0.8, &mut a);
            let warm = LevelMethod::Unattributed.estimate_in(h, g, 0.8, &mut b, &mut ws);
            assert_eq!(fresh, warm, "hist {i}");
        }
    }

    #[test]
    fn name() {
        assert_eq!(LevelMethod::Unattributed.name(), "Hg");
    }
}
