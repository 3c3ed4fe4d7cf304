//! Incremental dataset updates: the delta between two releases of the
//! same hierarchy.
//!
//! The paper's motivating workloads drift between releases — census
//! households form and dissolve, taxi medallions change hands — but
//! the region hierarchy is stable for years. A [`DatasetDelta`]
//! captures that drift as a list of per-leaf group edits (add, remove,
//! resize) so a downstream consumer can move a prepared dataset
//! forward in O(delta · depth) instead of re-aggregating everything
//! (see [`HierarchicalCounts::apply_edits`]).
//!
//! Deltas serialise to a small CSV table (`op,region,size,new_size,
//! count`) so they travel over the engine wire protocol's `DELTA`
//! section the same way the base tables do.

use hcc_consistency::{ConsistencyError, HierarchicalCounts, LeafEdit};
use hcc_hierarchy::{Hierarchy, NodeId};

/// One group-level change at a named leaf region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// `count` new groups of size `size` appear in `region`.
    Add {
        /// Leaf region name.
        region: String,
        /// Size of each new group.
        size: u64,
        /// Number of groups added.
        count: u64,
    },
    /// `count` groups of size `size` disappear from `region`.
    Remove {
        /// Leaf region name.
        region: String,
        /// Size of each removed group.
        size: u64,
        /// Number of groups removed.
        count: u64,
    },
    /// `count` groups in `region` change size from `old_size` to
    /// `new_size` (members joined or left, the group persisted).
    Resize {
        /// Leaf region name.
        region: String,
        /// Size before the change.
        old_size: u64,
        /// Size after the change.
        new_size: u64,
        /// Number of groups resized.
        count: u64,
    },
}

impl DeltaOp {
    /// The leaf region the op touches.
    pub fn region(&self) -> &str {
        match self {
            DeltaOp::Add { region, .. }
            | DeltaOp::Remove { region, .. }
            | DeltaOp::Resize { region, .. } => region,
        }
    }
}

/// Errors raised while parsing or applying a delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// A CSV line did not parse.
    Parse {
        /// 1-based line number in the delta CSV.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An op names a region absent from the hierarchy.
    UnknownRegion(String),
    /// An op names an internal (non-leaf) region; groups live only in
    /// leaves.
    NotALeaf(String),
    /// A resize with `old_size == new_size` (a no-op the producer
    /// almost certainly did not intend).
    TrivialResize(String),
    /// An op's `count` exceeds `i64::MAX` and cannot be lowered to a
    /// signed cell edit. Rejected rather than clamped: silently
    /// applying a different count than the delta stated would break
    /// `derive(prepare(T), δ) == prepare(apply(δ, T))`.
    CountOutOfRange(u64),
    /// The underlying cell edits failed (missing groups, overflow).
    Apply(ConsistencyError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Parse { line, message } => {
                write!(f, "delta line {line}: {message}")
            }
            DeltaError::UnknownRegion(r) => {
                write!(f, "delta references unknown region {r:?}")
            }
            DeltaError::NotALeaf(r) => {
                write!(
                    f,
                    "delta region {r:?} is not a leaf (groups live in leaves)"
                )
            }
            DeltaError::TrivialResize(r) => {
                write!(f, "delta resize at {r:?} has old_size == new_size")
            }
            DeltaError::CountOutOfRange(c) => {
                write!(
                    f,
                    "delta op count {c} exceeds the supported maximum {}",
                    i64::MAX
                )
            }
            DeltaError::Apply(e) => write!(f, "applying delta: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<ConsistencyError> for DeltaError {
    fn from(e: ConsistencyError) -> Self {
        DeltaError::Apply(e)
    }
}

/// An ordered batch of group edits against a dataset. Order matters:
/// removals are validated against the running state, so an `Add` can
/// fund a later `Remove` of the same cell.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatasetDelta {
    /// The edits, applied first to last.
    pub ops: Vec<DeltaOp>,
}

/// Header line of the delta CSV serialisation.
const HEADER: &str = "op,region,size,new_size,count";

impl DatasetDelta {
    /// An empty delta (applying it is the identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ops in the delta.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the delta contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Serialises as the `op,region,size,new_size,count` CSV table
    /// (the `new_size` column is empty for add/remove).
    ///
    /// Region names containing commas, newlines, or carriage returns
    /// are not representable in this line format and panic — the same
    /// restriction the hierarchy/groups tables already impose.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(HEADER);
        out.push('\n');
        for op in &self.ops {
            assert!(
                !op.region().contains([',', '\n', '\r']),
                "region name {:?} is not CSV-safe",
                op.region()
            );
            match op {
                DeltaOp::Add {
                    region,
                    size,
                    count,
                } => out.push_str(&format!("add,{region},{size},,{count}\n")),
                DeltaOp::Remove {
                    region,
                    size,
                    count,
                } => out.push_str(&format!("remove,{region},{size},,{count}\n")),
                DeltaOp::Resize {
                    region,
                    old_size,
                    new_size,
                    count,
                } => out.push_str(&format!("resize,{region},{old_size},{new_size},{count}\n")),
            }
        }
        out
    }

    /// Parses the CSV form produced by [`DatasetDelta::to_csv`]. The
    /// header line is required; blank lines are ignored; `count` may
    /// be omitted (defaults to 1).
    pub fn from_csv(text: &str) -> Result<Self, DeltaError> {
        let parse_err = |line: usize, message: String| DeltaError::Parse { line, message };
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == HEADER => {}
            other => {
                return Err(parse_err(
                    1,
                    format!(
                        "expected header {HEADER:?}, got {:?}",
                        other.map(|(_, l)| l).unwrap_or("")
                    ),
                ))
            }
        }
        let mut ops = Vec::new();
        for (i, line) in lines {
            let lineno = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 5 {
                return Err(parse_err(
                    lineno,
                    format!("expected 5 fields, got {}", fields.len()),
                ));
            }
            let num = |name: &str, v: &str| -> Result<u64, DeltaError> {
                v.trim()
                    .parse()
                    .map_err(|_| parse_err(lineno, format!("{name}: cannot parse {v:?}")))
            };
            let count = if fields[4].trim().is_empty() {
                1
            } else {
                num("count", fields[4])?
            };
            let region = fields[1].trim().to_string();
            if region.is_empty() {
                return Err(parse_err(lineno, "empty region name".to_string()));
            }
            let op = match fields[0].trim() {
                "add" => DeltaOp::Add {
                    region,
                    size: num("size", fields[2])?,
                    count,
                },
                "remove" => DeltaOp::Remove {
                    region,
                    size: num("size", fields[2])?,
                    count,
                },
                "resize" => DeltaOp::Resize {
                    region,
                    old_size: num("size", fields[2])?,
                    new_size: num("new_size", fields[3])?,
                    count,
                },
                other => {
                    return Err(parse_err(
                        lineno,
                        format!("unknown op {other:?} (add|remove|resize)"),
                    ))
                }
            };
            ops.push(op);
        }
        Ok(Self { ops })
    }

    /// Resolves every op's region name against `hierarchy` and lowers
    /// the delta to per-leaf cell edits, without touching any data.
    /// Region names must name *leaves* of the hierarchy — the same
    /// membership rule the Groups table imposes.
    pub fn to_edits(&self, hierarchy: &Hierarchy) -> Result<Vec<LeafEdit>, DeltaError> {
        // Name → leaf lookup once per delta, not once per op.
        let by_name: std::collections::HashMap<&str, NodeId> =
            hierarchy.iter().map(|n| (hierarchy.name(n), n)).collect();
        let resolve = |region: &str| -> Result<NodeId, DeltaError> {
            let node = *by_name
                .get(region)
                .ok_or_else(|| DeltaError::UnknownRegion(region.to_string()))?;
            if !hierarchy.is_leaf(node) {
                return Err(DeltaError::NotALeaf(region.to_string()));
            }
            Ok(node)
        };
        let signed = |count: u64| -> Result<i64, DeltaError> {
            i64::try_from(count).map_err(|_| DeltaError::CountOutOfRange(count))
        };
        let mut edits = Vec::with_capacity(self.ops.len() * 2);
        for op in &self.ops {
            match op {
                DeltaOp::Add {
                    region,
                    size,
                    count,
                } => edits.push(LeafEdit {
                    leaf: resolve(region)?,
                    size: *size,
                    delta: signed(*count)?,
                }),
                DeltaOp::Remove {
                    region,
                    size,
                    count,
                } => edits.push(LeafEdit {
                    leaf: resolve(region)?,
                    size: *size,
                    delta: -signed(*count)?,
                }),
                DeltaOp::Resize {
                    region,
                    old_size,
                    new_size,
                    count,
                } => {
                    if old_size == new_size {
                        return Err(DeltaError::TrivialResize(region.clone()));
                    }
                    let leaf = resolve(region)?;
                    edits.push(LeafEdit {
                        leaf,
                        size: *old_size,
                        delta: -signed(*count)?,
                    });
                    edits.push(LeafEdit {
                        leaf,
                        size: *new_size,
                        delta: signed(*count)?,
                    });
                }
            }
        }
        Ok(edits)
    }

    /// Synthetic drift for benchmarks and perf smokes: a delta that
    /// resizes roughly one in `one_in` of `dataset`'s groups (size
    /// `s` → `s + 1`), walking leaves in order until the budget is
    /// spent. Always valid against `dataset` by construction. Used by
    /// the `ledger_churn` benchmark workload and the tier-1
    /// derive-vs-prepare perf smoke, so both exercise the same delta
    /// shape.
    pub fn resize_sample(dataset: &crate::dataset::Dataset, one_in: u64) -> DatasetDelta {
        let total = dataset.data.node(Hierarchy::ROOT).num_groups();
        let mut budget = (total / one_in.max(1)).max(1);
        let mut ops = Vec::new();
        'leaves: for leaf in dataset.hierarchy.leaves() {
            for (size, &count) in dataset.data.node(leaf).as_slice().iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let take = count.min(budget);
                ops.push(DeltaOp::Resize {
                    region: dataset.hierarchy.name(leaf).to_string(),
                    old_size: size as u64,
                    new_size: size as u64 + 1,
                    count: take,
                });
                budget -= take;
                if budget == 0 {
                    break 'leaves;
                }
            }
        }
        DatasetDelta { ops }
    }

    /// Applies the delta to `data` in place, re-aggregating only the
    /// touched root-to-leaf paths (O(ops · depth)). Validation happens
    /// before mutation, so an `Err` leaves `data` untouched.
    pub fn apply_to(
        &self,
        hierarchy: &Hierarchy,
        data: &mut HierarchicalCounts,
    ) -> Result<(), DeltaError> {
        let edits = self.to_edits(hierarchy)?;
        data.apply_edits(hierarchy, &edits)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_core::CountOfCounts;
    use hcc_hierarchy::HierarchyBuilder;

    fn sample() -> (Hierarchy, NodeId, NodeId) {
        let mut b = HierarchyBuilder::new("nation");
        let va = b.add_child(Hierarchy::ROOT, "VA");
        let fx = b.add_child(va, "fairfax");
        let ar = b.add_child(va, "arlington");
        (b.build(), fx, ar)
    }

    fn delta() -> DatasetDelta {
        DatasetDelta {
            ops: vec![
                DeltaOp::Add {
                    region: "fairfax".into(),
                    size: 3,
                    count: 2,
                },
                DeltaOp::Remove {
                    region: "arlington".into(),
                    size: 1,
                    count: 1,
                },
                DeltaOp::Resize {
                    region: "fairfax".into(),
                    old_size: 2,
                    new_size: 5,
                    count: 1,
                },
            ],
        }
    }

    #[test]
    fn csv_round_trips() {
        let d = delta();
        let csv = d.to_csv();
        assert!(csv.starts_with("op,region,size,new_size,count\n"), "{csv}");
        assert_eq!(DatasetDelta::from_csv(&csv).unwrap(), d);
        // Empty delta round-trips too.
        let empty = DatasetDelta::new();
        assert!(empty.is_empty());
        assert_eq!(DatasetDelta::from_csv(&empty.to_csv()).unwrap(), empty);
    }

    #[test]
    fn csv_parse_errors_name_the_line() {
        for (text, needle) in [
            ("", "expected header"),
            ("nope\n", "expected header"),
            ("op,region,size,new_size,count\nadd,x,3\n", "5 fields"),
            ("op,region,size,new_size,count\nfrob,x,3,,1\n", "unknown op"),
            ("op,region,size,new_size,count\nadd,x,huge,,1\n", "size"),
            ("op,region,size,new_size,count\nadd,,3,,1\n", "empty region"),
        ] {
            let err = DatasetDelta::from_csv(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
        }
        // Omitted count defaults to 1; blank lines are skipped.
        let d = DatasetDelta::from_csv("op,region,size,new_size,count\n\nadd,x,3,,\n").unwrap();
        assert_eq!(
            d.ops,
            vec![DeltaOp::Add {
                region: "x".into(),
                size: 3,
                count: 1
            }]
        );
    }

    #[test]
    fn resize_sample_is_valid_and_budgeted() {
        use crate::dataset::{Dataset, DatasetKind};

        let ds = Dataset::generate(DatasetKind::Housing, 0.05, 7);
        let delta = DatasetDelta::resize_sample(&ds, 100);
        let touched: u64 = delta
            .ops
            .iter()
            .map(|op| match op {
                DeltaOp::Resize { count, .. } => *count,
                _ => unreachable!("resize_sample emits only resizes"),
            })
            .sum();
        assert_eq!(touched, (ds.stats().groups / 100).max(1));
        // Valid against the dataset by construction, and group count
        // is conserved (resizes move groups, never create them).
        let post = ds.apply_delta(&delta).unwrap();
        assert_eq!(post.stats().groups, ds.stats().groups);
        post.data.assert_desiderata(&post.hierarchy);
    }

    #[test]
    fn apply_matches_full_reaggregation() {
        let (h, fx, ar) = sample();
        let mut data = HierarchicalCounts::from_leaves(
            &h,
            vec![
                (fx, CountOfCounts::from_group_sizes([1, 2, 2])),
                (ar, CountOfCounts::from_group_sizes([1, 4])),
            ],
        )
        .unwrap();
        delta().apply_to(&h, &mut data).unwrap();
        let expected = HierarchicalCounts::from_leaves(
            &h,
            vec![
                (fx, CountOfCounts::from_group_sizes([1, 2, 3, 3, 5])),
                (ar, CountOfCounts::from_group_sizes([4])),
            ],
        )
        .unwrap();
        assert_eq!(data, expected);
        data.assert_desiderata(&h);
    }

    #[test]
    fn membership_and_validity_are_enforced() {
        let (h, fx, _) = sample();
        let base =
            HierarchicalCounts::from_leaves(&h, vec![(fx, CountOfCounts::from_group_sizes([2]))])
                .unwrap();
        let cases = [
            (
                DeltaOp::Add {
                    region: "nowhere".into(),
                    size: 1,
                    count: 1,
                },
                DeltaError::UnknownRegion("nowhere".into()),
            ),
            (
                DeltaOp::Add {
                    region: "VA".into(),
                    size: 1,
                    count: 1,
                },
                DeltaError::NotALeaf("VA".into()),
            ),
            (
                DeltaOp::Resize {
                    region: "fairfax".into(),
                    old_size: 2,
                    new_size: 2,
                    count: 1,
                },
                DeltaError::TrivialResize("fairfax".into()),
            ),
            (
                // A count beyond i64::MAX is rejected, never clamped
                // to a different count than the delta stated.
                DeltaOp::Add {
                    region: "fairfax".into(),
                    size: 1,
                    count: u64::MAX,
                },
                DeltaError::CountOutOfRange(u64::MAX),
            ),
            (
                // An allocation-bomb size is a typed rejection before
                // any dense vector is resized.
                DeltaOp::Add {
                    region: "fairfax".into(),
                    size: u64::MAX,
                    count: 1,
                },
                DeltaError::Apply(ConsistencyError::GroupSizeTooLarge {
                    size: u64::MAX,
                    max: hcc_consistency::MAX_GROUP_SIZE,
                }),
            ),
        ];
        for (op, expected) in cases {
            let mut data = base.clone();
            let d = DatasetDelta { ops: vec![op] };
            assert_eq!(d.apply_to(&h, &mut data), Err(expected));
            assert_eq!(data, base, "failed delta must not mutate");
        }
        // Removing absent groups surfaces the consistency error.
        let mut data = base.clone();
        let d = DatasetDelta {
            ops: vec![DeltaOp::Remove {
                region: "fairfax".into(),
                size: 9,
                count: 1,
            }],
        };
        let err = d.apply_to(&h, &mut data).unwrap_err();
        assert!(
            matches!(
                err,
                DeltaError::Apply(ConsistencyError::MissingGroups { .. })
            ),
            "{err}"
        );
        assert_eq!(data, base);
    }
}
