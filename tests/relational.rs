//! Integration of the relational substrate with the release pipeline:
//! raw Entities/Groups rows → group-by aggregation → private release.

use hccount::consistency::{top_down_release, HierarchicalCounts, LevelMethod, TopDownConfig};
use hccount::hierarchy::{Hierarchy, HierarchyBuilder};
use hccount::tables::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn tables_to_release_round_trip() {
    let mut b = HierarchyBuilder::new("top");
    let s1 = b.add_child(Hierarchy::ROOT, "s1");
    let s2 = b.add_child(Hierarchy::ROOT, "s2");
    let l1 = b.add_child(s1, "l1");
    let l2 = b.add_child(s1, "l2");
    let l3 = b.add_child(s2, "l3");
    let h = b.build();

    let mut db = Database::new();
    for (leaf, sizes) in [
        (l1, vec![1u64, 1, 2, 4]),
        (l2, vec![0, 3, 3]),
        (l3, vec![2, 2, 2, 7, 9]),
    ] {
        for s in sizes {
            db.add_group_with_size(&h, leaf, s);
        }
    }

    // The aggregation must agree with the public Groups table.
    let g = db.groups_per_node(&h);
    assert_eq!(g[Hierarchy::ROOT.index()], 12);
    let hists = db.node_histograms(&h);
    for node in h.iter() {
        assert_eq!(hists[node.index()].num_groups(), g[node.index()]);
    }

    let data = HierarchicalCounts::from_node_histograms(&h, hists)
        .expect("aggregation is consistent by construction");

    let mut rng = StdRng::seed_from_u64(4);
    let cfg = TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 32 });
    let rel = top_down_release(&h, &data, &cfg, &mut rng).unwrap();
    rel.assert_desiderata(&h);
    for node in h.iter() {
        assert_eq!(rel.groups(node), g[node.index()]);
    }
}

#[test]
fn budget_accounting_matches_algorithm1_splits() {
    // A 3-level hierarchy spends exactly ε in L + 1 = 3 equal level
    // slices, as Theorem 1's sequential-composition argument requires.
    let mut b = HierarchyBuilder::new("top");
    let state = b.add_child(Hierarchy::ROOT, "state");
    b.add_child(state, "county");
    let h = b.build();
    assert_eq!(h.num_levels(), 3);
    let cfg = TopDownConfig::new(0.7);
    let slice = cfg.level_epsilon(h.num_levels());
    let spent: f64 = (0..h.num_levels()).map(|_| slice).sum();
    assert!((spent - 0.7).abs() < 1e-12, "spent {spent}");
}

#[test]
fn empty_and_singleton_groups_flow_through() {
    let mut b = HierarchyBuilder::new("top");
    let leaf = b.add_child(Hierarchy::ROOT, "leaf");
    let h = b.build();
    let mut db = Database::new();
    db.add_group(&h, leaf); // size 0
    db.add_group_with_size(&h, leaf, 1);
    let data = HierarchicalCounts::from_node_histograms(&h, db.node_histograms(&h)).unwrap();
    assert_eq!(data.node(leaf).count_of(0), 1);

    let mut rng = StdRng::seed_from_u64(9);
    let cfg = TopDownConfig::new(2.0).with_method(LevelMethod::Cumulative { bound: 8 });
    let rel = top_down_release(&h, &data, &cfg, &mut rng).unwrap();
    assert_eq!(rel.groups(leaf), 2);
}
