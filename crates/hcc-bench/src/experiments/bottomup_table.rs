//! §6.2.2 — Bottom-Up aggregation vs the consistency algorithm.
//!
//! Paper (ε = 1 total, 3 levels): BU wins slightly at the leaves
//! (level 2) but loses by large factors at level 1 and especially at
//! the root, e.g. White level 0: BU 448,909 vs Hc 17,000.

use hcc_consistency::{bottom_up_release, top_down_release, LevelMethod, TopDownConfig};
use hcc_data::{housing, race, taxi, Dataset, HousingConfig, RaceConfig, RaceProfile, TaxiConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{mean_std, per_level_emd, MeanSe};
use crate::ExpConfig;

/// Builds the 3-level datasets. `west_coast` restricts the census-like
/// data to CA/OR/WA (used by Figure 6, as in the paper, "for
/// computational reasons"); the BU comparison uses the full national
/// hierarchy because BU's root-level error accumulation — the effect
/// the table demonstrates — grows with the number of leaves.
pub fn datasets(cfg: &ExpConfig, west_coast: bool) -> Vec<Dataset> {
    vec![
        housing(&HousingConfig {
            scale: 1e-3 * cfg.scale,
            seed: cfg.seed,
            west_coast_only: west_coast,
            ..Default::default()
        }),
        race(&RaceConfig {
            scale: 0.01 * cfg.scale,
            seed: cfg.seed,
            west_coast_only: west_coast,
            ..RaceConfig::new(RaceProfile::White)
        }),
        race(&RaceConfig {
            scale: 0.01 * cfg.scale,
            seed: cfg.seed,
            west_coast_only: west_coast,
            ..RaceConfig::new(RaceProfile::Hawaiian)
        }),
        // The taxi generator is cheap (28 leaves), so it runs at 5×
        // the relative scale of the census data: the BU-vs-top-down
        // contrast at the root is driven by per-leaf bias accumulation
        // and only emerges once leaves hold thousands of groups (the
        // paper's leaves hold ~12 900).
        taxi(&TaxiConfig {
            scale: (0.5 * cfg.scale).min(1.0),
            seed: cfg.seed,
            ..Default::default()
        }),
    ]
}

/// The west-coast 3-level datasets used by Figure 6.
pub fn three_level_datasets(cfg: &ExpConfig) -> Vec<Dataset> {
    datasets(cfg, true)
}

/// One dataset level's average per-node EMD under bottom-up
/// aggregation and under top-down `Hc` consistency.
#[derive(Clone, Debug)]
pub struct BottomUpRow {
    /// Dataset name.
    pub dataset: String,
    /// Hierarchy level (0 = root).
    pub level: usize,
    /// Bottom-up aggregation of the leaves' `Hc` estimates.
    pub bottom_up: MeanSe,
    /// Top-down consistency (Algorithm 1) with `Hc` at every level.
    pub top_down: MeanSe,
}

/// Measures BU against top-down `Hc` consistency at total ε = 1 on
/// the national 3-level datasets.
pub fn measure(cfg: &ExpConfig) -> Vec<BottomUpRow> {
    let eps_total = 1.0;
    let method = LevelMethod::Cumulative { bound: cfg.bound };
    let mut rows = Vec::new();
    for ds in datasets(cfg, false) {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xB0);
        let levels = ds.hierarchy.num_levels();
        let mut bu_acc = vec![Vec::new(); levels];
        let mut td_acc = vec![Vec::new(); levels];
        for _ in 0..cfg.runs {
            let bu = bottom_up_release(&ds.hierarchy, &ds.data, method, eps_total, &mut rng)
                .expect("uniform-depth hierarchy");
            for (l, e) in per_level_emd(&ds.hierarchy, &ds.data, &bu)
                .into_iter()
                .enumerate()
            {
                bu_acc[l].push(e);
            }
            let tdc = TopDownConfig::new(eps_total).with_method(method);
            let td = top_down_release(&ds.hierarchy, &ds.data, &tdc, &mut rng)
                .expect("uniform-depth hierarchy");
            for (l, e) in per_level_emd(&ds.hierarchy, &ds.data, &td)
                .into_iter()
                .enumerate()
            {
                td_acc[l].push(e);
            }
        }
        rows.extend((0..levels).map(|l| BottomUpRow {
            dataset: ds.name.clone(),
            level: l,
            bottom_up: mean_std(&bu_acc[l]),
            top_down: mean_std(&td_acc[l]),
        }));
    }
    rows
}

/// Runs the comparison: a printed table and `bottomup_table.csv`.
pub fn run(cfg: &ExpConfig) -> String {
    let mut report = format!(
        "{:<20} {:>7} {:>14} {:>14} {:>9}\n",
        "dataset", "level", "BottomUp", "Hc-consist", "BU/Hc"
    );
    let mut rows = Vec::new();
    for r in measure(cfg) {
        let (bu_m, td_m) = (r.bottom_up.0, r.top_down.0);
        let ratio = if td_m > 0.0 { bu_m / td_m } else { f64::NAN };
        report.push_str(&format!(
            "{:<20} {:>7} {:>14.1} {:>14.1} {:>9.2}\n",
            r.dataset, r.level, bu_m, td_m, ratio
        ));
        rows.push(format!("{},{},{:.2},{:.2}", r.dataset, r.level, bu_m, td_m));
    }
    cfg.write_csv(
        "bottomup_table.csv",
        "dataset,level,bottom_up_emd,hc_consistency_emd",
        &rows,
    );
    report.push_str("(expected shape: BU/Hc >> 1 at level 0-1, < 1 at the leaf level)\n");
    report
}
