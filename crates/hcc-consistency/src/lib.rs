//! Hierarchical consistency for differentially private count-of-counts
//! histograms (Section 5 of the paper).
//!
//! Independent per-node estimates disagree across levels: the same
//! household has one size estimate inside the Virginia histogram and
//! another inside the Fairfax County histogram, and children's
//! histograms do not sum to their parents'. Standard mean-consistency
//! cannot repair this (it emits negative and fractional counts and
//! needs variances that have no closed form here), so the paper's
//! Algorithm 1 instead:
//!
//! 1. estimates every node with an ε/(L+1) slice of budget
//!    ([`hcc_estimators`]);
//! 2. estimates per-group variances from the isotonic-regression
//!    structure (Section 5.1, computed in [`hcc_estimators`]);
//! 3. finds an **optimal least-cost matching** between the groups of a
//!    parent and the pooled groups of its children (Section 5.2,
//!    [`matching`]). The paper states Algorithm 2 over dense
//!    one-entry-per-group histograms; this crate runs it on size runs
//!    only, and the dense form appears solely as a test oracle;
//! 4. **merges** each matched pair's two size estimates by
//!    inverse-variance weighting (Section 5.3, [`merge`]);
//! 5. recurses top-down, then back-substitutes leaf histograms upward
//!    so children sum exactly to parents ([`topdown`]).
//!
//! Baselines for the paper's evaluation live alongside:
//! [`bottom_up`] (all budget at the leaves), [`mean_consistency`]
//! (the Hay et al. approach, reproducing its negativity failure), and
//! [`omniscient`] (the non-private yardstick of Section 6.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottom_up;
pub mod counts;
pub mod export;
pub mod matching;
pub mod mean_consistency;
pub mod merge;
pub mod omniscient;
pub mod topdown;

pub use bottom_up::bottom_up_release;
pub use counts::{ConsistencyError, HierarchicalCounts, LeafEdit, MAX_GROUP_SIZE};
pub use export::{from_csv, to_csv, ExportError};
pub use hcc_estimators::LevelMethod;
pub use matching::{match_groups, MatchSegment};
pub use mean_consistency::{mean_consistency_release, MeanConsistencyReport};
pub use merge::MergeStrategy;
pub use omniscient::{omniscient_expected_error, omniscient_release};
pub use topdown::{
    estimate_node, node_seeds, subtree_tasks, top_down_from_estimates, top_down_release,
    TopDownConfig,
};
