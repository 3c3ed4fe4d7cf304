//! The naive strategy (Section 4.1): noise directly on `H`.
//!
//! Adds double-geometric noise with scale `2/ε` to every cell of the
//! (truncated, zero-padded) histogram `H'`, then projects onto
//! `{Ĥ ≥ 0, Σ Ĥ = G}` and rounds with the largest-remainder rule.
//!
//! The global sensitivity of `H'` is 2 (Lemma 3): moving one person
//! between group sizes changes two cells by one each.
//!
//! The paper rules this method out empirically — its EMD error is
//! several orders of magnitude above the `Hg`/`Hc` methods because
//! noise lands on the (many) empty cells and the cumulative error
//! accumulates as `O(n²)` — but it is reproduced here as the §6.2.1
//! baseline.

use hcc_core::CountOfCounts;
use hcc_isotonic::{project_simplex, round_preserving_sum};
use rand::Rng;

use crate::workspace::cached_mechanism;
use crate::{EstimatorWorkspace, NodeEstimate};

/// Sensitivity of the truncated histogram query (Lemma 3).
const SENSITIVITY: f64 = 2.0;

/// The naive kernel, with public size bound `K = bound`.
pub(crate) fn estimate<R: Rng + ?Sized>(
    hist: &CountOfCounts,
    g: u64,
    epsilon: f64,
    bound: u64,
    rng: &mut R,
    ws: &mut EstimatorWorkspace,
) -> NodeEstimate {
    assert!(bound > 0, "the public size bound must be positive");
    // The strawman stays off the hot path (the paper rules it
    // out), but the noise and f64 staging reuse workspace buffers
    // anyway; the simplex projection keeps its own output vector.
    let dense = hist.truncated(bound).padded(bound);
    let mech = cached_mechanism(&mut ws.mech, epsilon, SENSITIVITY);
    mech.privatize_into(&dense, &mut ws.noisy, rng);
    ws.values.clear();
    ws.values.extend(ws.noisy.iter().map(|&v| v as f64));
    let projected = project_simplex(&ws.values, g as f64);
    let rounded = round_preserving_sum(&projected, g);
    let est = CountOfCounts::from_counts(rounded);
    // The naive method plays no role in the hierarchy, but the
    // estimate contract wants variances: use the raw per-cell noise
    // variance spread over each size run (a crude upper bound).
    let var = mech.variance().max(f64::MIN_POSITIVE);
    let runs = est.to_unattributed().runs().len();
    NodeEstimate::new(est, vec![var; runs])
}

#[cfg(test)]
mod tests {
    use crate::LevelMethod;
    use hcc_core::{emd, CountOfCounts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_satisfies_desiderata() {
        let h = CountOfCounts::from_group_sizes([1, 1, 2, 5, 40]);
        let mut rng = StdRng::seed_from_u64(1);
        let est = LevelMethod::Naive { bound: 50 }.estimate(&h, 5, 1.0, &mut rng);
        assert_eq!(est.hist().num_groups(), 5);
        assert!(est.hist().max_size().unwrap_or(0) <= 50);
    }

    #[test]
    fn oversized_groups_are_truncated_to_bound() {
        let h = CountOfCounts::from_group_sizes([100, 100]);
        let mut rng = StdRng::seed_from_u64(2);
        let est = LevelMethod::Naive { bound: 10 }.estimate(&h, 2, 5.0, &mut rng);
        assert!(est.hist().max_size().unwrap_or(0) <= 10);
        assert_eq!(est.hist().num_groups(), 2);
    }

    #[test]
    fn high_epsilon_recovers_truth_approximately() {
        let h = CountOfCounts::from_group_sizes([1, 1, 1, 2, 3, 3]);
        let mut rng = StdRng::seed_from_u64(3);
        let est = LevelMethod::Naive { bound: 8 }.estimate(&h, 6, 200.0, &mut rng);
        assert_eq!(emd(est.hist(), &h), 0);
    }

    #[test]
    fn error_grows_with_bound_via_empty_cells() {
        // The defining pathology: with a huge K, noise on empty cells
        // dominates. Compare average EMD for K=16 vs K=512.
        let h = CountOfCounts::from_group_sizes(vec![1u64; 20]);
        let mut rng = StdRng::seed_from_u64(4);
        let avg = |bound: u64, rng: &mut StdRng| -> f64 {
            let e = LevelMethod::Naive { bound };
            (0..10)
                .map(|_| emd(e.estimate(&h, 20, 1.0, rng).hist(), &h) as f64)
                .sum::<f64>()
                / 10.0
        };
        let small = avg(16, &mut rng);
        let large = avg(512, &mut rng);
        assert!(
            large > 4.0 * small,
            "expected error blow-up with K: {small} vs {large}"
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bound_rejected() {
        let h = CountOfCounts::from_group_sizes([1]);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = LevelMethod::Naive { bound: 0 }.estimate(&h, 1, 1.0, &mut rng);
    }

    #[test]
    fn name() {
        assert_eq!(LevelMethod::Naive { bound: 1 }.name(), "naive");
    }
}
