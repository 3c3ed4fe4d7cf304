//! Tour of the library's extensions beyond the paper's core
//! algorithm:
//!
//! * CSV ingest of the Entities/Groups tables ([`hccount::tables::CsvLoader`]);
//! * private estimation of the public size bound `K` (footnote 6);
//! * adaptive per-node selection between `Hc` and `Hg` (footnote 4);
//! * skewness/quantile queries on the released histograms — the class
//!   of analyses count-of-counts tables exist to answer.
//!
//! Run with: `cargo run --release --example extensions`

use hccount::consistency::{top_down_release, LevelMethod, TopDownConfig};
use hccount::core::{kth_largest, quantile, size_stats};
use hccount::estimators::estimate_size_bound;
use hccount::hierarchy::{Hierarchy, HierarchyBuilder};
use hccount::prelude::HierarchicalCounts;
use hccount::tables::CsvLoader;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // --- 1. CSV ingest -------------------------------------------------
    let mut b = HierarchyBuilder::new("city");
    b.add_child(Hierarchy::ROOT, "north");
    b.add_child(Hierarchy::ROOT, "south");
    let hierarchy = b.build();

    let groups_csv = "\
group_id,region_name
h1,north
h2,north
h3,north
h4,south
h5,south
h6,south
h7,south";
    // Household memberships: h1 has 3 people, h2 has 1, …
    let entities_csv: String = [
        ("h1", 3u64),
        ("h2", 1),
        ("h3", 2),
        ("h4", 2),
        ("h5", 5),
        ("h6", 1),
        ("h7", 90), // a dormitory
    ]
    .iter()
    .flat_map(|&(g, n)| (0..n).map(move |i| format!("{g}-p{i},{g}")))
    .collect::<Vec<_>>()
    .join("\n");

    let mut loader = CsvLoader::new(&hierarchy);
    loader.load_groups(groups_csv).expect("well-formed groups");
    loader
        .load_entities(&entities_csv)
        .expect("well-formed entities");
    let db = loader.finish();
    println!(
        "ingested {} groups / {} entities from CSV",
        db.num_groups(),
        db.num_entities()
    );

    let data = HierarchicalCounts::from_node_histograms(&hierarchy, db.node_histograms(&hierarchy))
        .expect("aggregation is consistent");

    let mut rng = StdRng::seed_from_u64(2018);

    // --- 2. Private K estimation (footnote 6) --------------------------
    let k = estimate_size_bound(data.node(Hierarchy::ROOT), 0.05, &mut rng);
    println!("privately estimated size bound K = {k} (true max 90)");

    // --- 3. Release with adaptive per-node method selection ------------
    let cfg = TopDownConfig::new(1.0).with_method(LevelMethod::Adaptive { bound: k });
    let released = top_down_release(&hierarchy, &data, &cfg, &mut rng).expect("uniform depth");
    released.assert_desiderata(&hierarchy);

    // --- 4. Skewness analyses on the released table --------------------
    let h = released.node(Hierarchy::ROOT);
    let s = size_stats(h).expect("non-empty");
    println!("\nreleased city-level household statistics:");
    println!("  mean size      {:.2}", s.mean);
    println!("  median size    {}", s.median);
    println!("  90th pct size  {}", quantile(h, 0.9).unwrap());
    println!("  largest group  {}", kth_largest(h, 1).unwrap());
    println!("  skewness       {:.2}", s.skewness);
    println!("\nall computed from the ε-DP release — no further privacy cost.");
}
