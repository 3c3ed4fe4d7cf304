//! A hierarchy-aligned set of count-of-counts histograms.

use hcc_core::{children_sum_to_parent, CountOfCounts};
use hcc_hierarchy::{Hierarchy, NodeId};

/// Errors raised while assembling or validating hierarchical counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyError {
    /// The hierarchy has leaves at different depths; the level-by-level
    /// algorithms require a uniform-depth tree.
    NotUniformDepth,
    /// A histogram was supplied for a node that is not a leaf.
    NotALeaf(NodeId),
    /// Two histograms were supplied for the same leaf.
    DuplicateLeaf(NodeId),
    /// The supplied per-node histograms are not additive up the tree.
    Inconsistent {
        /// The parent node at which the mismatch was detected.
        node: NodeId,
    },
    /// A per-node vector had the wrong length for the hierarchy.
    WrongNodeCount {
        /// Number of histograms supplied.
        got: usize,
        /// Number of nodes in the hierarchy.
        expected: usize,
    },
    /// Algorithm 2 was asked to match a parent whose group total
    /// disagrees with its children's pooled total. The public Groups
    /// table guarantees `τ.G = Σ_c c.G` for well-formed inputs, so
    /// this only arises from adversarial or corrupted data — a served
    /// engine must reject it instead of dying.
    GroupTotalsMismatch {
        /// Number of groups in the parent's histogram.
        parent: u64,
        /// Pooled number of groups across the children.
        children: u64,
    },
    /// An edit named a node that does not exist in the hierarchy.
    UnknownNode(NodeId),
    /// An edit removes more groups of a size than the leaf holds.
    MissingGroups {
        /// The leaf the removal targets.
        node: NodeId,
        /// The group size being removed.
        size: u64,
        /// How many groups the edit wants to remove.
        requested: u64,
        /// How many groups of that size the leaf actually holds.
        present: u64,
    },
    /// An edit would push a histogram cell past `u64::MAX`.
    EditOverflow {
        /// The node whose cell would overflow.
        node: NodeId,
        /// The group size of the overflowing cell.
        size: u64,
    },
    /// An edit names a group size beyond [`MAX_GROUP_SIZE`]. The
    /// dense histograms allocate one cell per representable size, so
    /// an unbounded size on an untrusted edit would let a single delta
    /// line demand a near-2^64-element allocation and abort the
    /// process.
    GroupSizeTooLarge {
        /// The offending group size.
        size: u64,
        /// The [`MAX_GROUP_SIZE`] bound.
        max: u64,
    },
}

/// Largest group size a served dataset may hold, whichever way it
/// arrives: a `PREPARE` or inline dataset record (checked by the
/// engine when it decodes one) or a `DERIVE`/`APPEND` edit (checked by
/// [`HierarchicalCounts::apply_edits`]). Sizes are dense histogram
/// indices, so the limit caps what one untrusted size can make every
/// node on its path allocate at 8 MB. Data built in-process, e.g. from
/// CSV tables for a local release, is bounded by its row count and
/// never consults it.
pub const MAX_GROUP_SIZE: u64 = 1_000_000;

// An estimate refuses sizes above `MAX_ESTIMATE_SIZE`; served data
// stays far below it and leaves the rest of it to noise.
const _: () = assert!(MAX_GROUP_SIZE < hcc_estimators::MAX_ESTIMATE_SIZE / 8);

impl std::fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyError::NotUniformDepth => {
                write!(f, "hierarchy leaves must all sit at the deepest level")
            }
            ConsistencyError::NotALeaf(n) => write!(f, "node {n} is not a leaf"),
            ConsistencyError::DuplicateLeaf(n) => {
                write!(f, "leaf {n} was supplied more than once")
            }
            ConsistencyError::Inconsistent { node } => {
                write!(f, "children do not sum to parent at node {node}")
            }
            ConsistencyError::WrongNodeCount { got, expected } => {
                write!(
                    f,
                    "got {got} histograms for a hierarchy of {expected} nodes"
                )
            }
            ConsistencyError::GroupTotalsMismatch { parent, children } => {
                write!(f, "parent has {parent} groups but children pool {children}")
            }
            ConsistencyError::UnknownNode(n) => {
                write!(f, "node {n} does not exist in the hierarchy")
            }
            ConsistencyError::MissingGroups {
                node,
                size,
                requested,
                present,
            } => {
                write!(
                    f,
                    "cannot remove {requested} group(s) of size {size} at {node}: \
                     only {present} present"
                )
            }
            ConsistencyError::EditOverflow { node, size } => {
                write!(f, "edit overflows the size-{size} cell at {node}")
            }
            ConsistencyError::GroupSizeTooLarge { size, max } => {
                write!(
                    f,
                    "edit group size {size} exceeds the supported maximum {max}"
                )
            }
        }
    }
}

impl std::error::Error for ConsistencyError {}

/// One signed change to a leaf's count-of-counts cell: `delta > 0`
/// adds that many groups of size `size` to `leaf`, `delta < 0` removes
/// them. The consistency desideratum is maintained by re-aggregating
/// the leaf's root path, so an edit costs O(depth), not O(dataset).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafEdit {
    /// The leaf region the groups live in.
    pub leaf: NodeId,
    /// The group size whose cell changes.
    pub size: u64,
    /// Signed change to the number of groups of that size.
    pub delta: i64,
}

/// One count-of-counts histogram per hierarchy node, guaranteed (by
/// construction or validation) to be *consistent*: every internal
/// node's histogram equals the sum of its children's.
///
/// Used both for the sensitive input data and for the released
/// private output — the desiderata of Section 3 are invariants of
/// this type.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalCounts {
    hists: Vec<CountOfCounts>,
}

impl HierarchicalCounts {
    /// Builds from per-leaf histograms, aggregating internal nodes by
    /// summation. Leaves not mentioned are treated as empty regions.
    pub fn from_leaves(
        hierarchy: &Hierarchy,
        leaves: Vec<(NodeId, CountOfCounts)>,
    ) -> Result<Self, ConsistencyError> {
        if !hierarchy.is_uniform_depth() {
            return Err(ConsistencyError::NotUniformDepth);
        }
        let mut hists = vec![CountOfCounts::new(); hierarchy.num_nodes()];
        let mut seen = vec![false; hierarchy.num_nodes()];
        for (node, h) in leaves {
            if !hierarchy.is_leaf(node) {
                return Err(ConsistencyError::NotALeaf(node));
            }
            if seen[node.index()] {
                return Err(ConsistencyError::DuplicateLeaf(node));
            }
            seen[node.index()] = true;
            hists[node.index()] = h;
        }
        // Aggregate bottom-up, deepest level first.
        for l in (0..hierarchy.num_levels().saturating_sub(1)).rev() {
            for &node in hierarchy.level(l) {
                let mut acc = CountOfCounts::new();
                for &c in hierarchy.children(node) {
                    acc.add_assign(&hists[c.index()]);
                }
                hists[node.index()] = acc;
            }
        }
        Ok(Self { hists })
    }

    /// Wraps a full per-node histogram vector (indexed by
    /// [`NodeId::index`]), validating hierarchy shape and additivity.
    pub fn from_node_histograms(
        hierarchy: &Hierarchy,
        hists: Vec<CountOfCounts>,
    ) -> Result<Self, ConsistencyError> {
        if hists.len() != hierarchy.num_nodes() {
            return Err(ConsistencyError::WrongNodeCount {
                got: hists.len(),
                expected: hierarchy.num_nodes(),
            });
        }
        if !hierarchy.is_uniform_depth() {
            return Err(ConsistencyError::NotUniformDepth);
        }
        let out = Self { hists };
        out.validate(hierarchy)?;
        Ok(out)
    }

    /// Checks the consistency desideratum at every internal node.
    pub fn validate(&self, hierarchy: &Hierarchy) -> Result<(), ConsistencyError> {
        for node in hierarchy.iter() {
            if hierarchy.is_leaf(node) {
                continue;
            }
            let children = hierarchy
                .children(node)
                .iter()
                .map(|c| &self.hists[c.index()]);
            if children_sum_to_parent(&self.hists[node.index()], children).is_err() {
                return Err(ConsistencyError::Inconsistent { node });
            }
        }
        Ok(())
    }

    /// Panicking variant of [`HierarchicalCounts::validate`], for
    /// tests and examples.
    pub fn assert_desiderata(&self, hierarchy: &Hierarchy) {
        self.validate(hierarchy)
            .expect("released histograms violate the consistency desideratum");
    }

    /// Applies per-leaf cell edits **in place**, re-aggregating only
    /// the root-to-leaf paths the edits touch — O(edits · depth)
    /// instead of the O(dataset) full bottom-up aggregation of
    /// [`HierarchicalCounts::from_leaves`]. Consistency is preserved
    /// by construction: each edit adjusts the same cell at the leaf
    /// and every ancestor.
    ///
    /// Edits are validated *before* anything is applied (membership in
    /// the hierarchy, leaf-ness, removal availability in edit order,
    /// cell overflow), so an `Err` leaves `self` untouched.
    pub fn apply_edits(
        &mut self,
        hierarchy: &Hierarchy,
        edits: &[LeafEdit],
    ) -> Result<(), ConsistencyError> {
        // Validation pass: project every touched (node, size) cell
        // through the edit sequence without mutating anything. Edits
        // interact (an add can fund a later removal of the same cell),
        // so availability is tracked in order.
        let mut projected: std::collections::BTreeMap<(usize, u64), u64> =
            std::collections::BTreeMap::new();
        for e in edits {
            if e.leaf.index() >= hierarchy.num_nodes() {
                return Err(ConsistencyError::UnknownNode(e.leaf));
            }
            if !hierarchy.is_leaf(e.leaf) {
                return Err(ConsistencyError::NotALeaf(e.leaf));
            }
            // Sizes are dense-vector indices: an unbounded size on an
            // untrusted edit is an allocation bomb, not a data point.
            if e.size > MAX_GROUP_SIZE {
                return Err(ConsistencyError::GroupSizeTooLarge {
                    size: e.size,
                    max: MAX_GROUP_SIZE,
                });
            }
            let mut cur = Some(e.leaf);
            while let Some(node) = cur {
                let cell = projected
                    .entry((node.index(), e.size))
                    .or_insert_with(|| self.hists[node.index()].count_of(e.size));
                if e.delta >= 0 {
                    *cell = cell
                        .checked_add(e.delta.unsigned_abs())
                        .ok_or(ConsistencyError::EditOverflow { node, size: e.size })?;
                } else {
                    let need = e.delta.unsigned_abs();
                    if *cell < need {
                        // By additivity an ancestor cell is at least
                        // its leaf's, so the first (and only) node
                        // that can trip this is the leaf itself.
                        return Err(ConsistencyError::MissingGroups {
                            node,
                            size: e.size,
                            requested: need,
                            present: *cell,
                        });
                    }
                    *cell -= need;
                }
                cur = hierarchy.parent(node);
            }
        }
        // Apply pass — infallible after validation.
        for e in edits {
            let mut cur = Some(e.leaf);
            while let Some(node) = cur {
                let h = &mut self.hists[node.index()];
                if e.delta >= 0 {
                    h.add_groups(e.size, e.delta.unsigned_abs());
                } else {
                    h.remove_groups(e.size, e.delta.unsigned_abs())
                        .expect("validated edit cannot underflow");
                }
                cur = hierarchy.parent(node);
            }
        }
        Ok(())
    }

    /// The histogram at a node.
    pub fn node(&self, node: NodeId) -> &CountOfCounts {
        &self.hists[node.index()]
    }

    /// The (public) number of groups at a node.
    pub fn groups(&self, node: NodeId) -> u64 {
        self.hists[node.index()].num_groups()
    }

    /// The per-node histograms, indexed by [`NodeId::index`].
    pub fn as_slice(&self) -> &[CountOfCounts] {
        &self.hists
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_hierarchy::HierarchyBuilder;

    fn two_level() -> (Hierarchy, NodeId, NodeId) {
        let mut b = HierarchyBuilder::new("top");
        let a = b.add_child(Hierarchy::ROOT, "a");
        let c = b.add_child(Hierarchy::ROOT, "b");
        (b.build(), a, c)
    }

    #[test]
    fn from_leaves_aggregates() {
        let (h, a, c) = two_level();
        let data = HierarchicalCounts::from_leaves(
            &h,
            vec![
                (a, CountOfCounts::from_group_sizes([4, 1])),
                (c, CountOfCounts::from_group_sizes([2, 1])),
            ],
        )
        .unwrap();
        assert_eq!(
            data.node(Hierarchy::ROOT),
            &CountOfCounts::from_group_sizes([1, 1, 2, 4])
        );
        assert_eq!(data.groups(Hierarchy::ROOT), 4);
        assert_eq!(data.groups(a), 2);
        data.assert_desiderata(&h);
    }

    #[test]
    fn missing_leaves_are_empty() {
        let (h, a, _) = two_level();
        let data =
            HierarchicalCounts::from_leaves(&h, vec![(a, CountOfCounts::from_group_sizes([3]))])
                .unwrap();
        assert_eq!(data.groups(Hierarchy::ROOT), 1);
        data.assert_desiderata(&h);
    }

    #[test]
    fn rejects_internal_node_as_leaf() {
        let (h, _, _) = two_level();
        let err =
            HierarchicalCounts::from_leaves(&h, vec![(Hierarchy::ROOT, CountOfCounts::new())])
                .unwrap_err();
        assert_eq!(err, ConsistencyError::NotALeaf(Hierarchy::ROOT));
    }

    #[test]
    fn rejects_duplicate_leaf() {
        let (h, a, _) = two_level();
        let err = HierarchicalCounts::from_leaves(
            &h,
            vec![
                (a, CountOfCounts::new()),
                (a, CountOfCounts::from_group_sizes([1])),
            ],
        )
        .unwrap_err();
        assert_eq!(err, ConsistencyError::DuplicateLeaf(a));
    }

    #[test]
    fn rejects_ragged_hierarchy() {
        let mut b = HierarchyBuilder::new("r");
        let mid = b.add_child(Hierarchy::ROOT, "mid");
        let _deep = b.add_child(mid, "deep");
        let _shallow = b.add_child(Hierarchy::ROOT, "shallow");
        let h = b.build();
        let err = HierarchicalCounts::from_leaves(&h, vec![]).unwrap_err();
        assert_eq!(err, ConsistencyError::NotUniformDepth);
    }

    #[test]
    fn from_node_histograms_validates() {
        let (h, _, _) = two_level();
        let good = vec![
            CountOfCounts::from_group_sizes([1, 2]),
            CountOfCounts::from_group_sizes([1]),
            CountOfCounts::from_group_sizes([2]),
        ];
        assert!(HierarchicalCounts::from_node_histograms(&h, good).is_ok());

        let bad = vec![
            CountOfCounts::from_group_sizes([1, 1]),
            CountOfCounts::from_group_sizes([1]),
            CountOfCounts::from_group_sizes([2]),
        ];
        let err = HierarchicalCounts::from_node_histograms(&h, bad).unwrap_err();
        assert_eq!(
            err,
            ConsistencyError::Inconsistent {
                node: Hierarchy::ROOT
            }
        );

        let err =
            HierarchicalCounts::from_node_histograms(&h, vec![CountOfCounts::new()]).unwrap_err();
        assert!(matches!(
            err,
            ConsistencyError::WrongNodeCount {
                got: 1,
                expected: 3
            }
        ));
    }

    #[test]
    fn error_messages_render() {
        for e in [
            ConsistencyError::NotUniformDepth,
            ConsistencyError::NotALeaf(Hierarchy::ROOT),
            ConsistencyError::DuplicateLeaf(Hierarchy::ROOT),
            ConsistencyError::Inconsistent {
                node: Hierarchy::ROOT,
            },
            ConsistencyError::WrongNodeCount {
                got: 1,
                expected: 2,
            },
            ConsistencyError::GroupTotalsMismatch {
                parent: 3,
                children: 4,
            },
            ConsistencyError::UnknownNode(Hierarchy::ROOT),
            ConsistencyError::MissingGroups {
                node: Hierarchy::ROOT,
                size: 3,
                requested: 2,
                present: 1,
            },
            ConsistencyError::EditOverflow {
                node: Hierarchy::ROOT,
                size: 3,
            },
            ConsistencyError::GroupSizeTooLarge {
                size: u64::MAX,
                max: MAX_GROUP_SIZE,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// Three-level tree so path re-aggregation crosses an internal
    /// node: root → {mid1 → {a, b}, mid2 → {c}}.
    fn three_level() -> (Hierarchy, NodeId, NodeId, NodeId) {
        let mut b = HierarchyBuilder::new("root");
        let m1 = b.add_child(Hierarchy::ROOT, "mid1");
        let m2 = b.add_child(Hierarchy::ROOT, "mid2");
        let a = b.add_child(m1, "a");
        let bb = b.add_child(m1, "b");
        let c = b.add_child(m2, "c");
        let _ = bb;
        (b.build(), a, bb, c)
    }

    #[test]
    fn apply_edits_matches_full_reaggregation() {
        let (h, a, b, c) = three_level();
        let mut data = HierarchicalCounts::from_leaves(
            &h,
            vec![
                (a, CountOfCounts::from_group_sizes([1, 2, 2])),
                (b, CountOfCounts::from_group_sizes([3])),
                (c, CountOfCounts::from_group_sizes([1, 5])),
            ],
        )
        .unwrap();
        // Add two groups of size 4 at a, remove one of size 2 at a,
        // resize c's size-5 group to 6 (remove + add).
        data.apply_edits(
            &h,
            &[
                LeafEdit {
                    leaf: a,
                    size: 4,
                    delta: 2,
                },
                LeafEdit {
                    leaf: a,
                    size: 2,
                    delta: -1,
                },
                LeafEdit {
                    leaf: c,
                    size: 5,
                    delta: -1,
                },
                LeafEdit {
                    leaf: c,
                    size: 6,
                    delta: 1,
                },
            ],
        )
        .unwrap();
        let expected = HierarchicalCounts::from_leaves(
            &h,
            vec![
                (a, CountOfCounts::from_group_sizes([1, 2, 4, 4])),
                (b, CountOfCounts::from_group_sizes([3])),
                (c, CountOfCounts::from_group_sizes([1, 6])),
            ],
        )
        .unwrap();
        assert_eq!(data, expected);
        data.assert_desiderata(&h);
    }

    #[test]
    fn apply_edits_rejects_bad_edits_without_mutating() {
        let (h, a, _, _) = three_level();
        let mid1 = h.parent(a).unwrap();
        let data =
            HierarchicalCounts::from_leaves(&h, vec![(a, CountOfCounts::from_group_sizes([1, 2]))])
                .unwrap();

        let mut scratch = data.clone();
        // Non-leaf target.
        assert_eq!(
            scratch.apply_edits(
                &h,
                &[LeafEdit {
                    leaf: mid1,
                    size: 1,
                    delta: 1
                }]
            ),
            Err(ConsistencyError::NotALeaf(mid1))
        );
        // Removing more than present — even when a *later* edit in the
        // batch would have re-funded the cell, validation is in order.
        let err = scratch
            .apply_edits(
                &h,
                &[
                    LeafEdit {
                        leaf: a,
                        size: 2,
                        delta: -2,
                    },
                    LeafEdit {
                        leaf: a,
                        size: 2,
                        delta: 5,
                    },
                ],
            )
            .unwrap_err();
        assert_eq!(
            err,
            ConsistencyError::MissingGroups {
                node: a,
                size: 2,
                requested: 2,
                present: 1,
            }
        );
        // An allocation-bomb size is rejected in validation — before
        // any vector is resized (this must return, not abort).
        let err = scratch
            .apply_edits(
                &h,
                &[LeafEdit {
                    leaf: a,
                    size: u64::MAX,
                    delta: 1,
                }],
            )
            .unwrap_err();
        assert_eq!(
            err,
            ConsistencyError::GroupSizeTooLarge {
                size: u64::MAX,
                max: MAX_GROUP_SIZE,
            }
        );
        // The limit itself is the largest size a dataset may hold.
        let edit = |size| LeafEdit {
            leaf: a,
            size,
            delta: 1,
        };
        assert_eq!(
            scratch.apply_edits(&h, &[edit(MAX_GROUP_SIZE + 1)]),
            Err(ConsistencyError::GroupSizeTooLarge {
                size: MAX_GROUP_SIZE + 1,
                max: MAX_GROUP_SIZE,
            })
        );
        let mut at_limit = scratch.clone();
        at_limit.apply_edits(&h, &[edit(MAX_GROUP_SIZE)]).unwrap();
        assert_eq!(at_limit.node(a).max_size(), Some(MAX_GROUP_SIZE));
        // Overflowing a cell.
        let err = scratch
            .apply_edits(
                &h,
                &[
                    LeafEdit {
                        leaf: a,
                        size: 1,
                        delta: i64::MAX,
                    },
                    LeafEdit {
                        leaf: a,
                        size: 1,
                        delta: i64::MAX,
                    },
                    LeafEdit {
                        leaf: a,
                        size: 1,
                        delta: i64::MAX,
                    },
                ],
            )
            .unwrap_err();
        assert!(
            matches!(err, ConsistencyError::EditOverflow { .. }),
            "{err}"
        );
        // Every rejection left the counts untouched.
        assert_eq!(scratch, data);

        // An add can fund a later removal of the same cell.
        let mut scratch = data.clone();
        scratch
            .apply_edits(
                &h,
                &[
                    LeafEdit {
                        leaf: a,
                        size: 2,
                        delta: 3,
                    },
                    LeafEdit {
                        leaf: a,
                        size: 2,
                        delta: -4,
                    },
                ],
            )
            .unwrap();
        assert_eq!(scratch.node(a).count_of(2), 0);
        scratch.assert_desiderata(&h);
    }
}
