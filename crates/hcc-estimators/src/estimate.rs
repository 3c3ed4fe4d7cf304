//! The output of a single-node estimator: a histogram plus per-group
//! variance estimates.

use hcc_core::{CountOfCounts, Unattributed};

/// The largest group size an estimate may hold, `2^24`.
/// [`NodeEstimate::from_variance_runs`] panics on a larger one before
/// it allocates the dense histogram (one `u64` per size, so at most
/// 128 MiB per node); the engine fails that job and keeps serving.
///
/// Served groups and bounds are at most 10^6 (`MAX_GROUP_SIZE` in
/// `hcc-consistency` asserts it stays below an eighth of this cap), so
/// the rest is noise headroom: an `Hg` draw of scale `1/ε` crosses it
/// with odds about `e^(−1.5·10^7·ε)`, never at an experiment's ε. A
/// vanishing ε does cross it: an `Hg` node at ε = 10^−9 draws sizes
/// near 10^9 and would otherwise allocate some 8 GB. Local data is not
/// held to `MAX_GROUP_SIZE`, so an `Hg` release of a group above the
/// cap fails the same way.
pub const MAX_ESTIMATE_SIZE: u64 = 1 << 24;

/// A run of consecutive groups (in the sorted-by-size order of the
/// unattributed histogram `Ĥg`) sharing one size and one variance
/// estimate.
///
/// Section 5.1 assigns every group `i` a variance `τ.Vg[i]` that
/// depends only on the *run* of equal-sized groups containing `i` —
/// `2/(|S_i| ε₁²)` for the `Hg` method, `4/(ε₁² · #groups of that
/// size)` for the `Hc` method — so variances are stored run-length
/// encoded in lockstep with [`Unattributed`] runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VarianceRun {
    /// The common group size of the run.
    pub size: u64,
    /// Number of groups in the run.
    pub count: u64,
    /// Estimated variance of each group's size estimate.
    pub variance: f64,
}

/// A differentially private estimate of one node's histogram together
/// with the variance bookkeeping needed by hierarchical consistency.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeEstimate {
    hist: CountOfCounts,
    variances: Vec<f64>,
}

impl NodeEstimate {
    /// Pairs a histogram with per-run variances. `variances[k]` is the
    /// variance of every group in the `k`-th run of
    /// `hist.to_unattributed()`; the lengths must agree.
    pub fn new(hist: CountOfCounts, variances: Vec<f64>) -> Self {
        let runs = hist.to_unattributed().runs().len();
        assert_eq!(
            runs,
            variances.len(),
            "variance vector must align with the histogram's {runs} size runs"
        );
        assert!(
            variances.iter().all(|v| v.is_finite() && *v > 0.0),
            "variances must be positive and finite"
        );
        Self { hist, variances }
    }

    /// The estimated histogram.
    pub fn hist(&self) -> &CountOfCounts {
        &self.hist
    }

    /// Consumes the estimate, returning the histogram.
    pub fn into_hist(self) -> CountOfCounts {
        self.hist
    }

    /// The per-run variances, aligned with
    /// `self.hist().to_unattributed().runs()`.
    pub fn variances(&self) -> &[f64] {
        &self.variances
    }

    /// The unattributed view zipped with variances: one
    /// [`VarianceRun`] per distinct size.
    pub fn variance_runs(&self) -> Vec<VarianceRun> {
        let ua: Unattributed = self.hist.to_unattributed();
        ua.runs()
            .iter()
            .zip(self.variances.iter())
            .map(|(r, &variance)| VarianceRun {
                size: r.size,
                count: r.count,
                variance,
            })
            .collect()
    }

    /// Builds an estimate from explicit variance runs (used by the
    /// estimators, and by the consistency layer when reconstructing
    /// merged estimates). Runs may come in any order; runs of one size
    /// merge, their variances pooled weighted by count in input order,
    /// and empty runs are dropped.
    ///
    /// # Panics
    ///
    /// If a non-empty run's size exceeds [`MAX_ESTIMATE_SIZE`].
    pub fn from_variance_runs(mut runs: Vec<VarianceRun>) -> Self {
        runs.retain(|r| r.count > 0);
        // Stable, so the runs of one size pool in their input order.
        // The estimators emit sizes in ascending order already.
        if !runs.is_sorted_by_key(|r| r.size) {
            runs.sort_by_key(|r| r.size);
        }
        let max = runs.last().map_or(0, |r| r.size);
        assert!(
            max <= MAX_ESTIMATE_SIZE,
            "estimated group size {max} exceeds MAX_ESTIMATE_SIZE = {MAX_ESTIMATE_SIZE}: \
             epsilon is too small to release"
        );
        let mut counts = vec![0u64; usize::try_from(max).expect("size too large") + 1];
        let same_size = |a: &VarianceRun, b: &VarianceRun| a.size == b.size;
        let mut variances = Vec::with_capacity(runs.chunk_by(same_size).count());
        for same in runs.chunk_by(same_size) {
            let (wsum, count) = same.iter().fold((0.0, 0u64), |(wsum, count), r| {
                (wsum + r.variance * r.count as f64, count + r.count)
            });
            counts[same[0].size as usize] = count;
            variances.push(wsum / count as f64);
        }
        Self {
            hist: CountOfCounts::from_counts(counts),
            variances,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_is_enforced() {
        let h = CountOfCounts::from_group_sizes([1, 1, 3]);
        // Two runs (size 1 ×2, size 3 ×1) need two variances.
        let est = NodeEstimate::new(h.clone(), vec![0.5, 2.0]);
        let runs = est.variance_runs();
        assert_eq!(runs.len(), 2);
        assert_eq!(
            runs[0],
            VarianceRun {
                size: 1,
                count: 2,
                variance: 0.5
            }
        );
        assert_eq!(
            runs[1],
            VarianceRun {
                size: 3,
                count: 1,
                variance: 2.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_variances_panic() {
        let h = CountOfCounts::from_group_sizes([1, 1, 3]);
        let _ = NodeEstimate::new(h, vec![0.5]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn nonpositive_variance_panics() {
        let h = CountOfCounts::from_group_sizes([2]);
        let _ = NodeEstimate::new(h, vec![0.0]);
    }

    #[test]
    fn from_variance_runs_normalises_and_pools() {
        let est = NodeEstimate::from_variance_runs(vec![
            VarianceRun {
                size: 5,
                count: 1,
                variance: 2.0,
            },
            VarianceRun {
                size: 2,
                count: 3,
                variance: 1.0,
            },
            VarianceRun {
                size: 5,
                count: 3,
                variance: 6.0,
            },
        ]);
        assert_eq!(
            est.hist(),
            &CountOfCounts::from_group_sizes([2, 2, 2, 5, 5, 5, 5])
        );
        // Size-5 variance pooled: (2·1 + 6·3)/4 = 5.
        assert_eq!(est.variances(), &[1.0, 5.0]);
    }

    #[test]
    fn into_hist_returns_histogram() {
        let h = CountOfCounts::from_group_sizes([7]);
        let est = NodeEstimate::new(h.clone(), vec![1.0]);
        assert_eq!(est.into_hist(), h);
    }
}
