//! Figure 5 — 2-level consistency, per level, against the omniscient
//! yardstick.
//!
//! Compares `Hc×Hc` and `Hg×Hg` (both with weighted merging) and the
//! omniscient baseline across the per-level budget sweep. Expected
//! shape: the best method tracks the omniscient line within a small
//! factor; `Hc` wins on dense data (White), `Hg` competes on sparse /
//! gappy data (partially synthetic housing).

use hcc_consistency::{omniscient_expected_error, top_down_release, LevelMethod, TopDownConfig};
use hcc_data::{taxi, Dataset, TaxiConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::experiments::figure4::two_level_datasets;
use crate::harness::{mean_std, per_level_emd, MeanSe};
use crate::ExpConfig;

/// All four 2-level datasets (census ones from Figure 4's helper plus
/// the 2-level taxi variant).
pub fn datasets(cfg: &ExpConfig) -> Vec<Dataset> {
    let mut ds = two_level_datasets(cfg);
    ds.push(taxi(&TaxiConfig {
        scale: 0.1 * cfg.scale,
        seed: cfg.seed,
        levels: 2,
    }));
    ds
}

/// Runs the 2-level consistency comparison.
pub fn run(cfg: &ExpConfig) -> String {
    run_with_levels(cfg, datasets(cfg), "figure5.csv")
}

/// One (dataset, budget, level) point: average per-node EMD of
/// top-down `Hc` and `Hg` releases, and the omniscient yardstick.
#[derive(Clone, Debug)]
pub struct ConsistencyRow {
    /// Dataset name.
    pub dataset: String,
    /// Per-level privacy budget.
    pub eps: f64,
    /// Hierarchy level (0 = root).
    pub level: usize,
    /// Top-down consistency with `Hc` at every level.
    pub hc: MeanSe,
    /// Top-down consistency with `Hg` at every level.
    pub hg: MeanSe,
    /// The omniscient algorithm's analytic expected error (no spread).
    pub omniscient: f64,
}

/// Measures `Hc×…` vs `Hg×…` vs omniscient on `datasets` over the ε
/// sweep of `cfg`; Figures 5 and 6 share it.
pub fn measure(cfg: &ExpConfig, datasets: &[Dataset]) -> Vec<ConsistencyRow> {
    let mut rows = Vec::new();
    for ds in datasets {
        let levels = ds.hierarchy.num_levels();
        for &eps in &cfg.epsilons {
            let total_eps = eps * levels as f64;
            let mut hc_acc = vec![Vec::new(); levels];
            let mut hg_acc = vec![Vec::new(); levels];
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF5);
            for _ in 0..cfg.runs {
                let hc_cfg = TopDownConfig::new(total_eps)
                    .with_method(LevelMethod::Cumulative { bound: cfg.bound });
                let rel = top_down_release(&ds.hierarchy, &ds.data, &hc_cfg, &mut rng)
                    .expect("uniform depth");
                for (l, e) in per_level_emd(&ds.hierarchy, &ds.data, &rel)
                    .into_iter()
                    .enumerate()
                {
                    hc_acc[l].push(e);
                }
                let hg_cfg = TopDownConfig::new(total_eps).with_method(LevelMethod::Unattributed);
                let rel = top_down_release(&ds.hierarchy, &ds.data, &hg_cfg, &mut rng)
                    .expect("uniform depth");
                for (l, e) in per_level_emd(&ds.hierarchy, &ds.data, &rel)
                    .into_iter()
                    .enumerate()
                {
                    hg_acc[l].push(e);
                }
            }
            for l in 0..levels {
                // The paper's yardstick is the *analytic* expected
                // error of the omniscient algorithm (its §6.2 worked
                // example computes the formula, not a simulation):
                // avg over the level's nodes of distinct_sizes·√2/ε.
                let nodes = ds.hierarchy.level(l);
                let omniscient = nodes
                    .iter()
                    .map(|&n| omniscient_expected_error(ds.data.node(n).distinct_sizes(), eps))
                    .sum::<f64>()
                    / nodes.len() as f64;
                rows.push(ConsistencyRow {
                    dataset: ds.name.clone(),
                    eps,
                    level: l,
                    hc: mean_std(&hc_acc[l]),
                    hg: mean_std(&hg_acc[l]),
                    omniscient,
                });
            }
        }
    }
    rows
}

/// Figures 5 and 6 share this: a printed table and the CSV
/// `csv` of [`measure`] on `datasets`.
pub fn run_with_levels(cfg: &ExpConfig, datasets: Vec<Dataset>, csv: &str) -> String {
    let mut report = format!(
        "{:<20} {:>6} {:>5} {:>13} {:>13} {:>13}\n",
        "dataset", "eps/lv", "level", "Hc", "Hg", "omniscient"
    );
    let mut rows = Vec::new();
    for r in measure(cfg, &datasets) {
        let (hc, hg, om) = (r.hc.0, r.hg.0, r.omniscient);
        rows.push(format!(
            "{},{},{},{:.2},{:.2},{:.2}",
            r.dataset, r.eps, r.level, hc, hg, om
        ));
        if (r.eps - 0.1).abs() < 1e-12 || (r.eps - 1.0).abs() < 1e-12 {
            report.push_str(&format!(
                "{:<20} {:>6} {:>5} {:>13.1} {:>13.1} {:>13.1}\n",
                r.dataset, r.eps, r.level, hc, hg, om
            ));
        }
    }
    crate::harness::write_csv(
        &cfg.out_dir.join(csv),
        "dataset,eps_per_level,level,hc_emd,hg_emd,omniscient_emd",
        &rows,
    );
    report.push_str("(expected shape: best private method within a small factor of omniscient)\n");
    report
}
