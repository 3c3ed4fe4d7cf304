//! The Bottom-Up (BU) baseline (Section 6.2.2).
//!
//! BU spends the *entire* privacy budget at the leaves and defines
//! every internal node's histogram as the sum of its children's.
//! Consistency holds trivially, leaf error is the best achievable
//! (leaves see `ε` instead of `ε/(L+1)`), but error compounds up the
//! tree: the root sums the independent errors of every leaf, which the
//! paper shows is far worse than Algorithm 1 at levels 0 and 1.

use hcc_estimators::LevelMethod;
use hcc_hierarchy::Hierarchy;
use rand::Rng;

use crate::counts::{ConsistencyError, HierarchicalCounts};

/// Releases private histograms by estimating only the leaves (with
/// the full budget `epsilon` — parallel composition across disjoint
/// leaf regions) and aggregating upward.
pub fn bottom_up_release<R: Rng + ?Sized>(
    hierarchy: &Hierarchy,
    data: &HierarchicalCounts,
    method: LevelMethod,
    epsilon: f64,
    rng: &mut R,
) -> Result<HierarchicalCounts, ConsistencyError> {
    if !hierarchy.is_uniform_depth() {
        return Err(ConsistencyError::NotUniformDepth);
    }
    let mut leaves = Vec::new();
    for leaf in hierarchy.leaves() {
        let h = data.node(leaf);
        let est = method.estimate(h, h.num_groups(), epsilon, rng);
        leaves.push((leaf, est.into_hist()));
    }
    HierarchicalCounts::from_leaves(hierarchy, leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_core::emd;
    use hcc_core::CountOfCounts;
    use hcc_hierarchy::HierarchyBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fan_out(hierarchy_leaves: usize, groups_per_leaf: u64) -> (Hierarchy, HierarchicalCounts) {
        let mut b = HierarchyBuilder::new("root");
        let mut ids = Vec::new();
        for i in 0..hierarchy_leaves {
            ids.push(b.add_child(Hierarchy::ROOT, format!("leaf{i}")));
        }
        let h = b.build();
        let leaves = ids
            .iter()
            .map(|&id| {
                (
                    id,
                    CountOfCounts::from_group_sizes((1..=groups_per_leaf).map(|s| s % 7 + 1)),
                )
            })
            .collect();
        let data = HierarchicalCounts::from_leaves(&h, leaves).unwrap();
        (h, data)
    }

    #[test]
    fn output_is_consistent_and_group_preserving() {
        let (h, data) = fan_out(5, 30);
        let mut rng = StdRng::seed_from_u64(6);
        let released = bottom_up_release(
            &h,
            &data,
            LevelMethod::Cumulative { bound: 32 },
            1.0,
            &mut rng,
        )
        .unwrap();
        released.assert_desiderata(&h);
        for node in h.iter() {
            assert_eq!(released.groups(node), data.groups(node));
        }
    }

    #[test]
    fn leaf_error_beats_top_down_budget_split() {
        // BU gives each leaf the full ε, so leaf error should (on
        // average) not exceed a same-method estimate at ε/(L+1).
        let (h, data) = fan_out(8, 60);
        let mut rng = StdRng::seed_from_u64(7);
        let method = LevelMethod::Cumulative { bound: 16 };
        let mut bu_err = 0u64;
        let mut split_err = 0u64;
        for _ in 0..5 {
            let bu = bottom_up_release(&h, &data, method, 1.0, &mut rng).unwrap();
            for leaf in h.leaves() {
                bu_err += emd(bu.node(leaf), data.node(leaf));
                let est = method.estimate(data.node(leaf), data.groups(leaf), 0.5, &mut rng);
                split_err += emd(est.hist(), data.node(leaf));
            }
        }
        assert!(
            bu_err <= split_err * 2,
            "BU at full budget should not be much worse: {bu_err} vs {split_err}"
        );
    }

    #[test]
    fn high_epsilon_recovers_everything() {
        let (h, data) = fan_out(3, 10);
        let mut rng = StdRng::seed_from_u64(8);
        let released = bottom_up_release(
            &h,
            &data,
            LevelMethod::Cumulative { bound: 16 },
            1000.0,
            &mut rng,
        )
        .unwrap();
        for node in h.iter() {
            assert_eq!(emd(released.node(node), data.node(node)), 0);
        }
    }
}
