//! The frozen **seed-style estimation path** and the shared fixtures
//! for the `release_hot_path` benchmark and its tier-1 perf smoke.
//!
//! PR 5 rebuilt the per-node `Hc` pipeline around reusable
//! [`hcc_estimators::EstimatorWorkspace`] buffers. To keep the win measurable (and
//! honest) across future PRs, this module preserves the pre-workspace
//! pipeline exactly as the seed wrote it: fresh dense vectors per
//! node, per-element `BinaryHeap` pairs in the L1 PAV
//! ([`hcc_isotonic::isotonic_l1_heap`]), and per-draw `ln α`
//! recomputation in the noise sampler, which draws by the release
//! format's defining `ln` formula ([`seed_sample`]; format 2, one RNG
//! word per draw). [`SeedBaseline::estimate`]
//! produces **bit-identical** [`NodeEstimate`]s to the optimized
//! path — same RNG draw order, same arithmetic — so baseline-vs-new
//! comparisons time the implementation, not different work.

use hcc_consistency::HierarchicalCounts;
use hcc_core::{CountOfCounts, Cumulative};
use hcc_estimators::{NodeEstimate, VarianceRun};
use hcc_hierarchy::{Hierarchy, HierarchyBuilder};
use hcc_isotonic::isotonic_l1_heap;
use rand::Rng;

/// The benchmark's public size bound: the ISSUE-5 workload pins the
/// hot-path comparison at a 3-level, `bound = 50 000` release.
pub const HOT_PATH_BOUND: u64 = 50_000;

/// A deterministic 3-level hierarchy (root → 2 states → 2 counties
/// each) whose leaves mix small-group mass with sizes well below the
/// truncation bound — the shape that makes the `Hc` cumulative view
/// long and mostly flat, exactly where the seed path allocated and
/// pooled hardest.
pub fn three_level_dataset() -> (Hierarchy, HierarchicalCounts) {
    let mut b = HierarchyBuilder::new("nation");
    let mut leaves = Vec::new();
    for s in 0..2 {
        let state = b.add_child(Hierarchy::ROOT, format!("s{s}"));
        for c in 0..2 {
            leaves.push(b.add_child(state, format!("s{s}c{c}")));
        }
    }
    let h = b.build();
    let data = HierarchicalCounts::from_leaves(
        &h,
        leaves
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let i = i as u64;
                (
                    l,
                    CountOfCounts::from_group_sizes(
                        (0..400u64).map(move |k| (k * (i + 3) * 13) % 2_000),
                    ),
                )
            })
            .collect(),
    )
    .expect("fixture leaves cover the hierarchy");
    (h, data)
}

/// The pre-PR5 `Hc` estimator, reproduced operation for operation.
#[derive(Clone, Copy, Debug)]
pub struct SeedBaseline {
    /// Public upper bound `K` on group size.
    pub bound: u64,
}

impl SeedBaseline {
    /// One node's estimate via the seed pipeline: allocating
    /// truncate + cumulative clone, per-draw `ln α` noise, heap PAV,
    /// allocating clamp/round, and histogram reconstruction.
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        hist: &CountOfCounts,
        g: u64,
        epsilon: f64,
        rng: &mut R,
    ) -> NodeEstimate {
        let cum: Cumulative = hist.truncated(self.bound).to_cumulative(self.bound);
        // Like the seed `DoubleGeometric`: α computed once per
        // mechanism (per node), `ln α` recomputed on every draw. The
        // anchor cell `K` is released as `G` and draws nothing.
        let alpha = (-epsilon).exp();
        let below = &cum.as_slice()[..cum.as_slice().len() - 1];
        let noisy: Vec<i64> = below
            .iter()
            .map(|&v| {
                let v = i64::try_from(v).expect("count exceeds i64::MAX");
                v.saturating_add(seed_sample(alpha, rng))
            })
            .collect();
        let fitted = seed_anchored_l1(&noisy, g);
        let est = Cumulative::from_vec(fitted)
            .expect("anchored fit is a valid cumulative vector")
            .to_hist();
        let runs: Vec<VarianceRun> = est
            .to_unattributed()
            .runs()
            .iter()
            .map(|r| VarianceRun {
                size: r.size,
                count: r.count,
                variance: 4.0 / (epsilon * epsilon * r.count as f64),
            })
            .collect();
        NodeEstimate::from_variance_runs(runs)
    }
}

/// The double-geometric draw by its defining formula, with the seed
/// sampler's waste: `ln α` recomputed on **every** draw (the modern
/// sampler hoists it into construction and replaces the formula by a
/// table lookup). One RNG word: its top 53 bits give the grid point
/// `m`, the magnitude is `floor(ln W / ln α)` with
/// `W = (1 − m·2⁻⁵³)·(1 + α)/2`, and bit 0 set negates it.
/// Bit-identical outputs — the transcendental produces the same value,
/// just repeatedly.
pub fn seed_sample<R: Rng + ?Sized>(alpha: f64, rng: &mut R) -> i64 {
    let word = rng.next_u64();
    let u = 1.0 - (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let w = u * ((1.0 + alpha) / 2.0);
    let a = (w.ln() / alpha.ln()).floor();
    let a = if a.is_finite() && a < i64::MAX as f64 {
        a.max(0.0) as i64
    } else {
        i64::MAX
    };
    if word & 1 == 1 {
        -a
    } else {
        a
    }
}

/// A release-format-1 draw, for tests that compare the formats in
/// distribution: two one-sided geometrics `floor(ln U / ln α)` with
/// `U = 1 − m·2⁻⁵³`, one RNG word each, and their difference.
pub fn format1_sample<R: Rng + ?Sized>(alpha: f64, rng: &mut R) -> i64 {
    let mut one_sided = || {
        let u = 1.0 - (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let g = (u.ln() / alpha.ln()).floor();
        if g.is_finite() && g < i64::MAX as f64 {
            g.max(0.0) as i64
        } else {
            i64::MAX
        }
    };
    one_sided() - one_sided()
}

/// The seed anchored post-processing of the noisy cells below the
/// anchor: heap-PAV them, build a fresh clamped fit, push cells one by
/// one, then the anchor `G`.
fn seed_anchored_l1(noisy: &[i64], g: u64) -> Vec<u64> {
    let clamped = isotonic_l1_heap(noisy).clamped(0.0, g as f64);
    let mut out: Vec<u64> = Vec::with_capacity(noisy.len() + 1);
    for b in clamped.blocks() {
        let v = b.value.round().max(0.0).min(g as f64) as u64;
        for _ in 0..b.len {
            out.push(v);
        }
    }
    out.push(g);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_estimators::{EstimatorWorkspace, LevelMethod};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The baseline must track the optimized estimator bit for bit —
    /// otherwise the benchmark compares different computations.
    #[test]
    fn seed_baseline_matches_workspace_estimator() {
        let (h, data) = three_level_dataset();
        let mut ws = EstimatorWorkspace::new();
        let bound = 4_000; // smaller bound: this is a correctness test
        for (i, node) in h.iter().enumerate() {
            let hist = data.node(node);
            let g = hist.num_groups();
            let mut a = StdRng::seed_from_u64(50 + i as u64);
            let mut b = StdRng::seed_from_u64(50 + i as u64);
            let old = SeedBaseline { bound }.estimate(hist, g, 0.5, &mut a);
            let new = LevelMethod::Cumulative { bound }.estimate_in(hist, g, 0.5, &mut b, &mut ws);
            assert_eq!(old, new, "node {node}");
        }
    }
}
