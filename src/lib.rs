//! # hccount — Differentially Private Hierarchical Count-of-Counts Histograms
//!
//! Facade crate re-exporting the full public API of the workspace, a
//! reproduction of Kuo et al., *Differentially Private Hierarchical
//! Count-of-Counts Histograms*, PVLDB 11(12), 2018.
//!
//! ## Quickstart
//!
//! ```
//! use hccount::prelude::*;
//! use rand::SeedableRng;
//!
//! // Build a tiny hierarchy: a country with two states.
//! let mut b = HierarchyBuilder::new("country");
//! let va = b.add_child(Hierarchy::ROOT, "VA");
//! let md = b.add_child(Hierarchy::ROOT, "MD");
//! let hierarchy = b.build();
//!
//! // Attach the true (sensitive) count-of-counts histograms at the
//! // leaves; internal nodes aggregate automatically.
//! let mut data = HierarchicalCounts::from_leaves(
//!     &hierarchy,
//!     vec![
//!         (va, CountOfCounts::from_group_sizes([1, 2, 2, 4])),
//!         (md, CountOfCounts::from_group_sizes([1, 1, 3])),
//!     ],
//! ).unwrap();
//!
//! // Release ε-differentially-private, mutually consistent histograms.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let cfg = TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 100 });
//! let released = top_down_release(&hierarchy, &data, &cfg, &mut rng).unwrap();
//!
//! // Children sum to parents and every node keeps its public G.
//! released.assert_desiderata(&hierarchy);
//! # let _ = &mut data;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hcc_consistency as consistency;
pub use hcc_core as core;
pub use hcc_data as data;
pub use hcc_engine as engine;
pub use hcc_estimators as estimators;
pub use hcc_hierarchy as hierarchy;
pub use hcc_isotonic as isotonic;
pub use hcc_noise as noise;
pub use hcc_store as store;
pub use hcc_tables as tables;

/// Convenience prelude with the most commonly used items.
pub mod prelude {
    pub use hcc_consistency::{
        bottom_up_release, top_down_release, HierarchicalCounts, LevelMethod, MergeStrategy,
        TopDownConfig,
    };
    pub use hcc_core::{emd, CountOfCounts, Cumulative, Run, Unattributed};
    pub use hcc_data::{Dataset, DatasetDelta, DatasetKind, DeltaOp};
    pub use hcc_engine::{DatasetHandle, Engine, EngineConfig, JobStatus, ReleaseRequest};
    pub use hcc_hierarchy::{Hierarchy, HierarchyBuilder, NodeId};
    pub use hcc_noise::{GeometricMechanism, LaplaceMechanism};
}
