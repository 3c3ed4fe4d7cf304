//! The top-down consistency algorithm (Algorithm 1).

use hcc_core::CountOfCounts;
use hcc_estimators::{EstimatorWorkspace, LevelMethod, NodeEstimate};
use hcc_hierarchy::{Hierarchy, NodeId};
use rand::Rng;

use crate::counts::{ConsistencyError, HierarchicalCounts};
use crate::matching::match_groups;
use crate::merge::{merge_segments, MergeStrategy};

/// Configuration for [`top_down_release`].
#[derive(Clone, Debug)]
pub struct TopDownConfig {
    epsilon: f64,
    methods: Vec<LevelMethod>,
    merge: MergeStrategy,
}

impl TopDownConfig {
    /// The paper's default public bound `K = 100 000` (§6.1 uses it
    /// for every dataset even though true maxima were ~10 000).
    pub const DEFAULT_BOUND: u64 = 100_000;

    /// A configuration spending total privacy budget `epsilon`, using
    /// the `Hc` method at every level (the paper's recommended
    /// default) and weighted-average merging.
    pub fn new(epsilon: f64) -> Self {
        Self {
            epsilon,
            methods: vec![LevelMethod::Cumulative {
                bound: Self::DEFAULT_BOUND,
            }],
            merge: MergeStrategy::WeightedAverage,
        }
    }

    /// Uses `method` at every level.
    pub fn with_method(mut self, method: LevelMethod) -> Self {
        self.methods = vec![method];
        self
    }

    /// Uses `methods[l]` at level `l` (the paper's `Hg × Hc × Hc`
    /// style selection). If the hierarchy is deeper than the vector,
    /// the last entry repeats.
    pub fn with_level_methods(mut self, methods: Vec<LevelMethod>) -> Self {
        assert!(!methods.is_empty(), "need at least one level method");
        self.methods = methods;
        self
    }

    /// Selects the merge strategy (Section 5.3).
    pub fn with_merge(mut self, merge: MergeStrategy) -> Self {
        self.merge = merge;
        self
    }

    /// Total privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The merge strategy.
    pub fn merge(&self) -> MergeStrategy {
        self.merge
    }

    /// The method used at hierarchy level `l`.
    pub fn method_for_level(&self, l: usize) -> LevelMethod {
        *self.methods.get(l).unwrap_or(
            self.methods
                .last()
                .expect("methods is checked non-empty at construction"),
        )
    }

    /// The per-level budget slice `ε / (L + 1)` for a hierarchy with
    /// `levels` levels (sequential composition across levels).
    pub fn level_epsilon(&self, levels: usize) -> f64 {
        self.epsilon / levels as f64
    }
}

/// Draws one RNG seed per hierarchy node, sequentially and in
/// iteration order, from the caller's master RNG.
///
/// This is the derivation both [`top_down_release`] and any external
/// executor (e.g. the `hcc-engine` worker pool) must share: node `i`
/// of `hierarchy.iter()` gets its own `StdRng` seeded with `seeds[i]`,
/// making the noise stream a pure function of the master seed and
/// independent of estimation order or thread count.
pub fn node_seeds<R: Rng + ?Sized>(hierarchy: &Hierarchy, rng: &mut R) -> Vec<u64> {
    (0..hierarchy.num_nodes()).map(|_| rng.gen()).collect()
}

/// Partitions the hierarchy into estimation tasks: one task per node
/// at the chosen split level (that node plus all its descendants), and
/// one task for everything above the split level. The split level is
/// the shallowest level with at least `min_tasks` nodes (when the tree
/// allows it), so an executor wanting `t` concurrent lanes passes
/// `min_tasks = 2 * t` and gets enough slack for load balancing.
///
/// Tasks only *group* nodes — every node appears in exactly one task,
/// and estimating a task's nodes with their own [`node_seeds`]-derived
/// RNG streams stays bit-identical to the serial release no matter
/// which executor runs which task, in whatever order.
pub fn subtree_tasks(hierarchy: &Hierarchy, min_tasks: usize) -> Vec<Vec<NodeId>> {
    let levels = hierarchy.num_levels();
    let want = min_tasks.max(1);
    let split = (0..levels)
        .find(|&l| hierarchy.level(l).len() >= want)
        .unwrap_or(levels - 1);
    let mut tasks: Vec<Vec<NodeId>> = Vec::new();
    for &root in hierarchy.level(split) {
        // The subtree rooted at `root`, depth-first.
        let mut nodes = Vec::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            nodes.push(n);
            stack.extend_from_slice(hierarchy.children(n));
        }
        tasks.push(nodes);
    }
    if split > 0 {
        let above: Vec<NodeId> = (0..split)
            .flat_map(|l| hierarchy.level(l).to_vec())
            .collect();
        tasks.push(above);
    }
    tasks
}

/// Estimates one node with its own seeded RNG stream, reusing the
/// worker's scratch buffers. The per-node RNG makes the estimate
/// independent of which worker (and hence which workspace) runs it —
/// this is the single node-estimation entry point shared by
/// [`top_down_release`] and external executors like the `hcc-engine`
/// work-stealing scheduler.
pub fn estimate_node(
    hierarchy: &Hierarchy,
    data: &HierarchicalCounts,
    cfg: &TopDownConfig,
    eps_level: f64,
    node: NodeId,
    seed: u64,
    ws: &mut EstimatorWorkspace,
) -> NodeEstimate {
    use rand::SeedableRng;
    let method = cfg.method_for_level(hierarchy.level_of(node));
    let h = data.node(node);
    let mut local = rand::rngs::StdRng::seed_from_u64(seed);
    method.estimate_in(h, h.num_groups(), eps_level, &mut local, ws)
}

/// Algorithm 1: releases ε-differentially-private count-of-counts
/// histograms for every node of the hierarchy, satisfying all four
/// desiderata (integral, non-negative, correct public `G` per node,
/// children summing to parents).
///
/// Budget accounting: the hierarchy has `L + 1` levels; each level
/// receives `ε / (L + 1)` (sequential composition across levels,
/// parallel composition within a level because sibling regions hold
/// disjoint groups). Everything after the per-node estimates is
/// post-processing and consumes no budget (Theorem 1).
///
/// ```
/// use hcc_consistency::{top_down_release, HierarchicalCounts, LevelMethod, TopDownConfig};
/// use hcc_core::CountOfCounts;
/// use hcc_hierarchy::{Hierarchy, HierarchyBuilder};
/// use rand::SeedableRng;
///
/// let mut b = HierarchyBuilder::new("country");
/// let east = b.add_child(Hierarchy::ROOT, "east");
/// let west = b.add_child(Hierarchy::ROOT, "west");
/// let hierarchy = b.build();
/// let data = HierarchicalCounts::from_leaves(&hierarchy, vec![
///     (east, CountOfCounts::from_group_sizes([1, 2, 2, 5])),
///     (west, CountOfCounts::from_group_sizes([1, 1, 3])),
/// ]).unwrap();
///
/// let cfg = TopDownConfig::new(1.0)
///     .with_method(LevelMethod::Cumulative { bound: 16 });
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let released = top_down_release(&hierarchy, &data, &cfg, &mut rng).unwrap();
///
/// released.assert_desiderata(&hierarchy);           // children sum to parents
/// assert_eq!(released.groups(east), 4);             // public G preserved
/// assert_eq!(released.groups(Hierarchy::ROOT), 7);
/// ```
pub fn top_down_release<R: Rng + ?Sized>(
    hierarchy: &Hierarchy,
    data: &HierarchicalCounts,
    cfg: &TopDownConfig,
    rng: &mut R,
) -> Result<HierarchicalCounts, ConsistencyError> {
    if !hierarchy.is_uniform_depth() {
        return Err(ConsistencyError::NotUniformDepth);
    }
    let eps_level = cfg.level_epsilon(hierarchy.num_levels());

    // Lines 1–4: independent per-node estimates, one budget slice per
    // level, each node on its own seeded stream. Within a level this is
    // parallel composition (disjoint regions); the engine's scheduler
    // computes the same estimates concurrently.
    let seeds = node_seeds(hierarchy, rng);
    let mut ws = EstimatorWorkspace::new();
    let estimates = hierarchy
        .iter()
        .zip(seeds)
        .map(|(node, seed)| estimate_node(hierarchy, data, cfg, eps_level, node, seed, &mut ws))
        .collect();
    top_down_from_estimates(hierarchy, cfg, estimates)
}

/// The post-processing half of Algorithm 1: given one independent
/// [`NodeEstimate`] per node (in `hierarchy.iter()` order), performs
/// the top-down matching + merging and upward back-substitution,
/// returning the consistent release.
///
/// [`top_down_release`] computes the estimates and calls this; an
/// external executor (e.g. the `hcc-engine` worker pool) can instead
/// compute the per-node estimates on its own scheduler — they are
/// embarrassingly parallel — and feed them here. Everything in this
/// function is deterministic post-processing (Theorem 1), so the
/// release is a pure function of the estimates.
pub fn top_down_from_estimates(
    hierarchy: &Hierarchy,
    cfg: &TopDownConfig,
    estimates: Vec<NodeEstimate>,
) -> Result<HierarchicalCounts, ConsistencyError> {
    if !hierarchy.is_uniform_depth() {
        return Err(ConsistencyError::NotUniformDepth);
    }
    if estimates.len() != hierarchy.num_nodes() {
        return Err(ConsistencyError::WrongNodeCount {
            got: estimates.len(),
            expected: hierarchy.num_nodes(),
        });
    }
    let levels = hierarchy.num_levels();
    let mut estimates: Vec<Option<NodeEstimate>> = estimates.into_iter().map(Some).collect();

    // Lines 8–12: top-down matching + merging. `updated[n]` holds the
    // merged estimate Ĥ' for nodes whose level has been processed.
    let mut updated: Vec<Option<NodeEstimate>> = vec![None; hierarchy.num_nodes()];
    updated[Hierarchy::ROOT.index()] = estimates[Hierarchy::ROOT.index()].take();
    for l in 0..levels - 1 {
        for &node in hierarchy.level(l) {
            let parent = updated[node.index()]
                .as_ref()
                .expect("parent level already processed");
            let children: &[NodeId] = hierarchy.children(node);
            let parent_runs = parent.variance_runs();
            let child_runs: Vec<_> = children
                .iter()
                .map(|c| {
                    estimates[c.index()]
                        .take()
                        .expect("child estimated exactly once")
                        .variance_runs()
                })
                .collect();
            let segments = match_groups(&parent_runs, &child_runs)?;
            let merged = merge_segments(&segments, cfg.merge, children.len());
            for (c, est) in children.iter().zip(merged) {
                updated[c.index()] = Some(est);
            }
        }
    }

    // Lines 13–15: leaves become final; back-substitute upward.
    let mut out: Vec<CountOfCounts> = vec![CountOfCounts::new(); hierarchy.num_nodes()];
    for leaf in hierarchy.leaves() {
        out[leaf.index()] = updated[leaf.index()]
            .take()
            .expect("every leaf received a merged estimate")
            .into_hist();
    }
    for l in (0..levels - 1).rev() {
        for &node in hierarchy.level(l) {
            let mut acc = CountOfCounts::new();
            for &c in hierarchy.children(node) {
                acc.add_assign(&out[c.index()]);
            }
            out[node.index()] = acc;
        }
    }
    HierarchicalCounts::from_node_histograms(hierarchy, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_core::emd;
    use hcc_hierarchy::HierarchyBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn three_level_data() -> (Hierarchy, HierarchicalCounts) {
        let mut b = HierarchyBuilder::new("nation");
        let s1 = b.add_child(Hierarchy::ROOT, "s1");
        let s2 = b.add_child(Hierarchy::ROOT, "s2");
        let c1 = b.add_child(s1, "c1");
        let c2 = b.add_child(s1, "c2");
        let c3 = b.add_child(s2, "c3");
        let c4 = b.add_child(s2, "c4");
        let h = b.build();
        let mk = |sizes: Vec<u64>| CountOfCounts::from_group_sizes(sizes);
        let data = HierarchicalCounts::from_leaves(
            &h,
            vec![
                (c1, mk(vec![1, 1, 2, 3])),
                (c2, mk(vec![1, 2, 2, 8])),
                (c3, mk(vec![4, 4, 5])),
                (c4, mk(vec![1, 1, 1, 1, 20])),
            ],
        )
        .unwrap();
        (h, data)
    }

    #[test]
    fn released_histograms_satisfy_all_desiderata() {
        let (h, data) = three_level_data();
        let mut rng = StdRng::seed_from_u64(42);
        for method in [
            LevelMethod::Cumulative { bound: 64 },
            LevelMethod::CumulativeL2 { bound: 64 },
            LevelMethod::Unattributed,
        ] {
            let cfg = TopDownConfig::new(3.0).with_method(method);
            let released = top_down_release(&h, &data, &cfg, &mut rng).unwrap();
            released.assert_desiderata(&h);
            // Public group counts preserved at every node.
            for node in h.iter() {
                assert_eq!(
                    released.groups(node),
                    data.groups(node),
                    "method {} node {node}",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn high_budget_recovers_truth_everywhere() {
        let (h, data) = three_level_data();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = TopDownConfig::new(3000.0).with_method(LevelMethod::Cumulative { bound: 64 });
        let released = top_down_release(&h, &data, &cfg, &mut rng).unwrap();
        for node in h.iter() {
            assert_eq!(
                emd(released.node(node), data.node(node)),
                0,
                "node {node} diverged despite huge budget"
            );
        }
    }

    #[test]
    fn mixed_level_methods() {
        let (h, data) = three_level_data();
        let mut rng = StdRng::seed_from_u64(2);
        // Hg at the root, Hc below — the paper's Hg × Hc × Hc.
        let cfg = TopDownConfig::new(3.0).with_level_methods(vec![
            LevelMethod::Unattributed,
            LevelMethod::Cumulative { bound: 64 },
        ]);
        assert_eq!(cfg.method_for_level(0).name(), "Hg");
        assert_eq!(cfg.method_for_level(1).name(), "Hc");
        assert_eq!(cfg.method_for_level(2).name(), "Hc"); // repeats last
        let released = top_down_release(&h, &data, &cfg, &mut rng).unwrap();
        released.assert_desiderata(&h);
    }

    #[test]
    fn plain_average_merge_also_valid() {
        let (h, data) = three_level_data();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = TopDownConfig::new(2.0)
            .with_method(LevelMethod::Cumulative { bound: 64 })
            .with_merge(MergeStrategy::PlainAverage);
        let released = top_down_release(&h, &data, &cfg, &mut rng).unwrap();
        released.assert_desiderata(&h);
    }

    #[test]
    fn root_only_hierarchy() {
        let h = HierarchyBuilder::new("solo").build();
        let data = HierarchicalCounts::from_leaves(
            &h,
            vec![(Hierarchy::ROOT, CountOfCounts::from_group_sizes([1, 2, 3]))],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 16 });
        let released = top_down_release(&h, &data, &cfg, &mut rng).unwrap();
        assert_eq!(released.groups(Hierarchy::ROOT), 3);
    }

    #[test]
    fn empty_regions_are_handled() {
        let mut b = HierarchyBuilder::new("top");
        let a = b.add_child(Hierarchy::ROOT, "a");
        let _empty = b.add_child(Hierarchy::ROOT, "empty");
        let h = b.build();
        let data =
            HierarchicalCounts::from_leaves(&h, vec![(a, CountOfCounts::from_group_sizes([2, 2]))])
                .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 16 });
        let released = top_down_release(&h, &data, &cfg, &mut rng).unwrap();
        released.assert_desiderata(&h);
        assert_eq!(released.groups(a), 2);
    }

    #[test]
    fn ragged_hierarchy_is_rejected() {
        let mut b = HierarchyBuilder::new("r");
        let mid = b.add_child(Hierarchy::ROOT, "mid");
        let _deep = b.add_child(mid, "deep");
        let _shallow = b.add_child(Hierarchy::ROOT, "shallow");
        let h = b.build();
        // Construct data bypassing from_leaves validation (it would
        // reject too): hand-build node histograms.
        let hists = vec![CountOfCounts::new(); h.num_nodes()];
        let data = HierarchicalCounts::from_node_histograms(&h, hists);
        assert!(data.is_err());
    }

    #[test]
    fn config_accessors() {
        let cfg = TopDownConfig::new(0.5);
        assert_eq!(cfg.epsilon(), 0.5);
        assert_eq!(cfg.merge(), MergeStrategy::WeightedAverage);
        assert_eq!(cfg.method_for_level(0).name(), "Hc");
    }
}

/// The pieces an external executor (the engine's scheduler) builds on:
/// seed derivation, subtree tasks, and the post-processing half.
#[cfg(test)]
mod parallel_tests {
    use super::*;
    use hcc_hierarchy::HierarchyBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data() -> (Hierarchy, HierarchicalCounts) {
        let mut b = HierarchyBuilder::new("root");
        let leaves: Vec<_> = (0..24)
            .map(|i| b.add_child(Hierarchy::ROOT, format!("l{i}")))
            .collect();
        let h = b.build();
        let data = HierarchicalCounts::from_leaves(
            &h,
            leaves
                .iter()
                .enumerate()
                .map(|(i, &l)| {
                    (
                        l,
                        CountOfCounts::from_group_sizes(
                            (0..30u64).map(|k| 1 + (k * (i as u64 + 1)) % 9),
                        ),
                    )
                })
                .collect(),
        )
        .unwrap();
        (h, data)
    }

    #[test]
    fn from_estimates_matches_release_and_validates_length() {
        let (h, d) = data();
        let cfg = TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 64 });
        let eps_level = cfg.level_epsilon(h.num_levels());
        let mut rng = StdRng::seed_from_u64(83);
        let seeds = node_seeds(&h, &mut rng);
        let mut ws = EstimatorWorkspace::new();
        let estimates: Vec<NodeEstimate> = h
            .iter()
            .zip(&seeds)
            .map(|(node, &seed)| estimate_node(&h, &d, &cfg, eps_level, node, seed, &mut ws))
            .collect();
        let via_estimates = top_down_from_estimates(&h, &cfg, estimates).unwrap();
        let mut rng = StdRng::seed_from_u64(83);
        let direct = top_down_release(&h, &d, &cfg, &mut rng).unwrap();
        assert_eq!(via_estimates, direct);

        let err = top_down_from_estimates(&h, &cfg, Vec::new()).unwrap_err();
        assert!(matches!(err, ConsistencyError::WrongNodeCount { .. }));
    }

    #[test]
    fn subtree_tasks_cover_every_node_exactly_once() {
        let (h, _) = data();
        for min_tasks in [1, 2, 8, 64] {
            let tasks = subtree_tasks(&h, min_tasks);
            let mut seen = vec![0usize; h.num_nodes()];
            for task in &tasks {
                for &n in task {
                    seen[n.index()] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "min_tasks={min_tasks}: {seen:?}"
            );
        }
    }
}
