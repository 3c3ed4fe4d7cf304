//! The cumulative-histogram method (`Hc`, Section 4.3).

use hcc_core::CountOfCounts;
use hcc_isotonic::{anchored_cumulative_into, CumulativeLoss};
use hcc_noise::GeometricMechanism;
use rand::Rng;

use crate::estimate::VarianceRun;
use crate::workspace::cached_mechanism;
use crate::{Estimator, EstimatorWorkspace, NodeEstimate};

/// Privatizes via the cumulative representation: add double-geometric
/// noise with scale `1/ε` to every cell of `Hc` (sensitivity 1,
/// Lemma 4), then solve the anchored isotonic regression
/// `min ‖Ĥc − H̃c‖_p` subject to `0 ≤ Ĥc` non-decreasing and
/// `Ĥc[K] = G`, and difference back into a histogram.
///
/// EMD is *defined* as the L1 distance between cumulative histograms,
/// so privatizing `Hc` directly optimises the right metric; the paper
/// found the L1 post-processing variant best and we default to it.
///
/// Per-group variances (Section 5.1.2): each cell of `Ĥc` carries
/// (over)estimated variance `2/ε²`, a count `Ĥ[j] = Ĥc[j] − Ĥc[j−1]`
/// has variance `4/ε²`, and dividing by the number of groups sharing
/// that size gives `4 / (ε² · Ĥ[j])` per group.
#[derive(Clone, Copy, Debug)]
pub struct CumulativeEstimator {
    /// Public upper bound `K` on group size.
    pub bound: u64,
    /// Norm minimised by the isotonic post-processing.
    pub loss: CumulativeLoss,
}

impl CumulativeEstimator {
    /// Sensitivity of the cumulative histogram query (Lemma 4).
    pub const SENSITIVITY: f64 = 1.0;

    /// Estimator with the paper's preferred L1 post-processing.
    pub fn new(bound: u64) -> Self {
        Self::with_loss(bound, CumulativeLoss::L1)
    }

    /// Estimator with an explicit choice of post-processing norm.
    pub fn with_loss(bound: u64, loss: CumulativeLoss) -> Self {
        assert!(bound > 0, "the public size bound must be positive");
        Self { bound, loss }
    }
}

impl Estimator for CumulativeEstimator {
    fn name(&self) -> &'static str {
        match self.loss {
            CumulativeLoss::L1 => "Hc",
            CumulativeLoss::L2 => "Hc-L2",
        }
    }

    fn estimate_in<R: Rng + ?Sized>(
        &self,
        hist: &CountOfCounts,
        g: u64,
        epsilon: f64,
        rng: &mut R,
        ws: &mut EstimatorWorkspace,
    ) -> NodeEstimate {
        debug_assert_eq!(hist.num_groups(), g, "public G must match the data");
        let mech = cached_mechanism(&mut ws.mech, epsilon, Self::SENSITIVITY);
        let g_cell = i64::try_from(g).expect("group count exceeds i64::MAX");
        let cells = cumulative_cells(hist, self.bound);
        match self.loss {
            CumulativeLoss::L1 => {
                // One pass: each cell is drawn, clamped to [0, G] and
                // pushed into the slope trick. Clamping commutes with
                // the fit, so this is the clamped fit of the noisy
                // cells. The anchor cell enters as G, at or above
                // every other cell, so it pins the last fitted cell to
                // G and leaves the rest alone.
                let mut pass = ws.pav.begin(0, g_cell);
                pass.extend(mech.privatize_iter(cells, rng));
                spend_anchor_draw(mech, rng);
                pass.push(g_cell);
                variance_runs(pass.finish().runs_rev(), epsilon)
            }
            CumulativeLoss::L2 => {
                ws.noisy.clear();
                ws.noisy.extend(mech.privatize_iter(cells, rng));
                spend_anchor_draw(mech, rng);
                ws.noisy.push(g_cell);
                anchored_cumulative_into(
                    &ws.noisy,
                    g,
                    self.loss,
                    &mut ws.pav,
                    &mut ws.values,
                    &mut ws.fitted,
                );
                let mut end = ws.fitted.len();
                let runs = ws.fitted.chunk_by(|a, b| a == b).rev().map(|run| {
                    end -= run.len();
                    (end, run[0] as i64)
                });
                variance_runs(runs, epsilon)
            }
        }
    }
}

/// The true cumulative cells `Hc[0..K]` of `hist`, below the anchor
/// cell `K`: the running sums of the counts, then constant at the
/// total once the counts run out. They equal `to_cumulative_into`'s
/// cells without the dense buffer, and the noise draw reads them as
/// `i64`s, as `privatize_into` converts them.
fn cumulative_cells(hist: &CountOfCounts, bound: u64) -> impl Iterator<Item = i64> + '_ {
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

/// The anchor cell `K` is fixed to the public `G`, yet releases are
/// pinned to one draw per cell including it (sizes above `K` fold onto
/// it), so the stream spends that draw to keep every later draw in
/// place.
fn spend_anchor_draw<R: Rng + ?Sized>(mech: &GeometricMechanism, rng: &mut R) {
    let _ = mech.distribution().sample(rng);
}

/// Differences a fitted cumulative histogram, given as its maximal
/// constant runs from last to first (`(start, value)`, values strictly
/// decreasing), into the estimate's non-zero counts: each run rises at
/// its start above the run before it, the first one from zero.
fn variance_runs(runs_rev: impl Iterator<Item = (usize, i64)>, epsilon: f64) -> NodeEstimate {
    let mut runs = Vec::new();
    let mut above: Option<(usize, i64)> = None;
    // The trailing (0, 0) is the zero below the first run.
    for (start, value) in runs_rev.chain([(0, 0)]) {
        if let Some((size, upper)) = above {
            // Checked: a wrap here would flow a garbage count silently
            // into the release.
            let count = u64::try_from(upper - value)
                .expect("fitted cumulative cells must be non-decreasing");
            if count > 0 {
                runs.push(VarianceRun {
                    size: size as u64,
                    count,
                    variance: 4.0 / (epsilon * epsilon * count as f64),
                });
            }
        }
        above = Some((start, value));
    }
    // Sizes came last to first.
    runs.reverse();
    NodeEstimate::from_variance_runs(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_core::emd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preserves_group_count_and_bound() {
        let h = CountOfCounts::from_group_sizes([0, 1, 2, 2, 7, 30]);
        let mut rng = StdRng::seed_from_u64(11);
        let est = CumulativeEstimator::new(64).estimate(&h, 6, 0.5, &mut rng);
        assert_eq!(est.hist().num_groups(), 6);
        assert!(est.hist().max_size().unwrap_or(0) <= 64);
    }

    #[test]
    fn high_epsilon_recovers_truth() {
        let h = CountOfCounts::from_group_sizes([1, 1, 4, 4, 7]);
        let mut rng = StdRng::seed_from_u64(12);
        for loss in [CumulativeLoss::L1, CumulativeLoss::L2] {
            let est = CumulativeEstimator::with_loss(16, loss).estimate(&h, 5, 500.0, &mut rng);
            assert_eq!(est.hist(), &h, "loss {loss:?}");
        }
    }

    #[test]
    fn small_groups_estimated_accurately() {
        // §4.3: "this method is accurate for small group sizes". With
        // 1000 size-1 groups at ε = 1, the estimate should keep almost
        // all of them at size ~1.
        let h = CountOfCounts::from_counts(vec![0, 1000]);
        let mut rng = StdRng::seed_from_u64(13);
        let est = CumulativeEstimator::new(100).estimate(&h, 1000, 1.0, &mut rng);
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
            let est = CumulativeEstimator::new(bound);
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
        let est = CumulativeEstimator::new(20).estimate(&h, 5, eps, &mut rng);
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
            for loss in [CumulativeLoss::L1, CumulativeLoss::L2] {
                for bound in [8u64, 64, 1000] {
                    let est = CumulativeEstimator::with_loss(bound, loss);
                    let g = h.num_groups();
                    let mut a = StdRng::seed_from_u64(900 + i as u64);
                    let mut b = StdRng::seed_from_u64(900 + i as u64);
                    let fresh = est.estimate(h, g, 0.4, &mut a);
                    let warm = est.estimate_in(h, g, 0.4, &mut b, &mut ws);
                    assert_eq!(fresh, warm, "hist {i} {loss:?} bound {bound}");
                }
            }
        }
    }

    #[test]
    fn zero_groups() {
        let h = CountOfCounts::new();
        let mut rng = StdRng::seed_from_u64(16);
        let est = CumulativeEstimator::new(10).estimate(&h, 0, 1.0, &mut rng);
        assert_eq!(est.hist().num_groups(), 0);
    }

    #[test]
    fn names() {
        assert_eq!(CumulativeEstimator::new(5).name(), "Hc");
        assert_eq!(
            CumulativeEstimator::with_loss(5, CumulativeLoss::L2).name(),
            "Hc-L2"
        );
    }
}
