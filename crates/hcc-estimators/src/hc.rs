//! The cumulative-histogram method (`Hc`, Section 4.3).
//!
//! Privatizes via the cumulative representation: add double-geometric
//! noise with scale `1/ε` to every cell of `Hc` (sensitivity 1,
//! Lemma 4), then solve the anchored isotonic regression
//! `min ‖Ĥc − H̃c‖_p` subject to `0 ≤ Ĥc` non-decreasing and
//! `Ĥc[K] = G`, and difference back into a histogram.
//!
//! EMD is *defined* as the L1 distance between cumulative histograms,
//! so privatizing `Hc` directly optimises the right metric; the paper
//! found the L1 post-processing variant best and it is the default.
//!
//! Per-group variances (Section 5.1.2): each cell of `Ĥc` carries
//! (over)estimated variance `2/ε²`, a count `Ĥ[j] = Ĥc[j] − Ĥc[j−1]`
//! has variance `4/ε²`, and dividing by the number of groups sharing
//! that size gives `4 / (ε² · Ĥ[j])` per group.

use hcc_core::CountOfCounts;
use rand::Rng;

use crate::estimate::VarianceRun;
use crate::workspace::cached_mechanism;
use crate::{EstimatorWorkspace, NodeEstimate};

/// Sensitivity of the cumulative histogram query (Lemma 4).
const SENSITIVITY: f64 = 1.0;

/// The `Hc` kernel with L1 post-processing, in one pass: each cell is
/// drawn, clamped to `[0, G]` and pushed into the slope trick.
/// Clamping commutes with the fit, so this is the clamped fit of the
/// noisy cells. The anchor cell enters as `G`, at or above every other
/// cell, so it pins the last fitted cell to `G` and leaves the rest
/// alone.
pub(crate) fn estimate_l1<R: Rng + ?Sized>(
    hist: &CountOfCounts,
    g: u64,
    epsilon: f64,
    bound: u64,
    rng: &mut R,
    ws: &mut EstimatorWorkspace,
) -> NodeEstimate {
    let mech = cached_mechanism(&mut ws.mech, epsilon, SENSITIVITY);
    let cells = cumulative_cells(hist, bound);
    let g_cell = i64::try_from(g).expect("group count exceeds i64::MAX");
    let mut pass = ws.pav.begin(0, g_cell);
    pass.extend(mech.privatize_iter(cells, rng));
    pass.push(g_cell);
    let fit = pass.finish();
    // The fit's runs come last to first; turn them ascending.
    ws.fit_runs.clear();
    ws.fit_runs.extend(fit.runs_rev().map(|(start, value)| {
        let value = u64::try_from(value).expect("fitted cells are clamped at zero");
        (start, value)
    }));
    ws.fit_runs.reverse();
    difference(&ws.fit_runs, epsilon)
}

/// The `Hc` kernel with L2 post-processing: the same stream into the
/// L2 pool stack, read out clamped to `[0, G]` and rounded as
/// `anchored_cumulative_into` rounds (`as u64` saturates; the integer
/// `min` is the exact clamp), then the anchor cell.
pub(crate) fn estimate_l2<R: Rng + ?Sized>(
    hist: &CountOfCounts,
    g: u64,
    epsilon: f64,
    bound: u64,
    rng: &mut R,
    ws: &mut EstimatorWorkspace,
) -> NodeEstimate {
    let mech = cached_mechanism(&mut ws.mech, epsilon, SENSITIVITY);
    let cells = cumulative_cells(hist, bound);
    let mut pass = ws.pav_l2.begin();
    pass.extend(mech.privatize_iter(cells, rng).map(|v| v as f64));
    let fit = pass
        .clamped(0.0, g as f64)
        .map(|b| (b.start, (b.value.round().max(0.0) as u64).min(g)));
    let anchor = usize::try_from(bound).expect("bound too large");
    ws.fit_runs.clear();
    ws.fit_runs.extend(fit.chain([(anchor, g)]));
    difference(&ws.fit_runs, epsilon)
}

/// The true cumulative cells `Hc[0..K]` of `hist`, below the anchor
/// cell `K`: the running sums of the counts, then constant at the
/// total once the counts run out. They equal `to_cumulative_into`'s
/// cells without the dense buffer, and the noise draw reads them as
/// `i64`s, as `privatize_into` converts them. One noise draw per cell
/// below the anchor cell `K`, which is released as the public `G` and
/// so draws no noise.
fn cumulative_cells(hist: &CountOfCounts, bound: u64) -> impl Iterator<Item = i64> + '_ {
    assert!(bound > 0, "the public size bound must be positive");
    let k = usize::try_from(bound).expect("bound too large");
    let counts = hist.as_slice();
    // Every cell is at most the total, so one check covers them all.
    let total = counts
        .iter()
        .try_fold(0u64, |acc, &c| acc.checked_add(c))
        .expect("cumulative histogram total overflows u64");
    let total = i64::try_from(total).expect("count exceeds i64::MAX");
    let head = &counts[..counts.len().min(k)];
    let mut acc = 0i64;
    let rising = head.iter().map(move |&c| {
        acc += c as i64;
        acc
    });
    rising.chain(std::iter::repeat_n(total, k - head.len()))
}

/// Differences a fitted cumulative histogram, given as its maximal
/// constant runs in ascending order (`(start, value)`, values
/// non-decreasing), into the estimate's non-zero counts, each with the
/// variance of Section 5.1.2: a run rises at its start above the run
/// before it, the first one from zero.
fn difference(fit_runs: &[(usize, u64)], epsilon: f64) -> NodeEstimate {
    let mut runs = Vec::with_capacity(fit_runs.len());
    let mut below = 0;
    for &(start, cell) in fit_runs {
        // Checked: a wrap here would flow a garbage count silently
        // into the release.
        let count = cell
            .checked_sub(below)
            .expect("fitted cumulative cells must be non-decreasing");
        below = cell;
        if count > 0 {
            runs.push(VarianceRun {
                size: start as u64,
                count,
                variance: 4.0 / (epsilon * epsilon * count as f64),
            });
        }
    }
    NodeEstimate::from_variance_runs(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LevelMethod;
    use hcc_core::emd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preserves_group_count_and_bound() {
        let h = CountOfCounts::from_group_sizes([0, 1, 2, 2, 7, 30]);
        let mut rng = StdRng::seed_from_u64(11);
        let est = LevelMethod::Cumulative { bound: 64 }.estimate(&h, 6, 0.5, &mut rng);
        assert_eq!(est.hist().num_groups(), 6);
        assert!(est.hist().max_size().unwrap_or(0) <= 64);
    }

    #[test]
    fn high_epsilon_recovers_truth() {
        let h = CountOfCounts::from_group_sizes([1, 1, 4, 4, 7]);
        let mut rng = StdRng::seed_from_u64(12);
        for method in [
            LevelMethod::Cumulative { bound: 16 },
            LevelMethod::CumulativeL2 { bound: 16 },
        ] {
            let est = method.estimate(&h, 5, 500.0, &mut rng);
            assert_eq!(est.hist(), &h, "{method:?}");
        }
    }

    #[test]
    fn small_groups_estimated_accurately() {
        // §4.3: "this method is accurate for small group sizes". With
        // 1000 size-1 groups at ε = 1, the estimate should keep almost
        // all of them at size ~1.
        let h = CountOfCounts::from_counts(vec![0, 1000]);
        let mut rng = StdRng::seed_from_u64(13);
        let est = LevelMethod::Cumulative { bound: 100 }.estimate(&h, 1000, 1.0, &mut rng);
        let e = emd(est.hist(), &h);
        assert!(e < 200, "emd {e}");
    }

    #[test]
    fn insensitive_to_large_bound() {
        // Footnote 6: the method tolerates K an order of magnitude
        // above the true max. Compare errors with K=100 and K=10_000
        // for data maxing at 50.
        let sizes: Vec<u64> = (0..200).map(|i| 1 + i % 50).collect();
        let h = CountOfCounts::from_group_sizes(sizes);
        let mut rng = StdRng::seed_from_u64(14);
        let avg = |bound: u64, rng: &mut StdRng| -> f64 {
            let est = LevelMethod::Cumulative { bound };
            (0..5)
                .map(|_| emd(est.estimate(&h, 200, 1.0, rng).hist(), &h) as f64)
                .sum::<f64>()
                / 5.0
        };
        let tight = avg(100, &mut rng);
        let loose = avg(10_000, &mut rng);
        // Loose bound costs something but not orders of magnitude.
        assert!(
            loose < 30.0 * (tight + 10.0),
            "tight {tight} vs loose {loose}"
        );
    }

    #[test]
    fn variance_runs_follow_formula() {
        let h = CountOfCounts::from_group_sizes([1, 1, 1, 1, 9]);
        let mut rng = StdRng::seed_from_u64(15);
        let eps = 2.0;
        let est = LevelMethod::Cumulative { bound: 20 }.estimate(&h, 5, eps, &mut rng);
        for r in est.variance_runs() {
            let expected = 4.0 / (eps * eps * r.count as f64);
            assert!((r.variance - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn warm_workspace_is_bit_identical_to_fresh() {
        // One deliberately dirty workspace across nodes of different
        // bounds: every estimate must match the throwaway-workspace
        // wrapper draw for draw.
        let mut ws = EstimatorWorkspace::new();
        let hists = [
            CountOfCounts::from_group_sizes([0, 1, 2, 2, 7, 30]),
            CountOfCounts::from_group_sizes([5, 5, 5]),
            CountOfCounts::new(),
            CountOfCounts::from_group_sizes((0..100).map(|i| i % 13)),
        ];
        for (i, h) in hists.iter().enumerate() {
            let methods = [8u64, 64, 1000].into_iter().flat_map(|bound| {
                [
                    LevelMethod::Cumulative { bound },
                    LevelMethod::CumulativeL2 { bound },
                ]
            });
            for est in methods {
                let g = h.num_groups();
                let mut a = StdRng::seed_from_u64(900 + i as u64);
                let mut b = StdRng::seed_from_u64(900 + i as u64);
                let fresh = est.estimate(h, g, 0.4, &mut a);
                let warm = est.estimate_in(h, g, 0.4, &mut b, &mut ws);
                assert_eq!(fresh, warm, "hist {i} {est:?}");
            }
        }
    }

    #[test]
    fn zero_groups() {
        let h = CountOfCounts::new();
        let mut rng = StdRng::seed_from_u64(16);
        let est = LevelMethod::Cumulative { bound: 10 }.estimate(&h, 0, 1.0, &mut rng);
        assert_eq!(est.hist().num_groups(), 0);
    }

    #[test]
    fn names() {
        assert_eq!(LevelMethod::Cumulative { bound: 5 }.name(), "Hc");
        assert_eq!(LevelMethod::CumulativeL2 { bound: 5 }.name(), "Hc-L2");
    }
}
