//! Figure 4 — weighted-average vs plain-average merging.
//!
//! Two-level hierarchies (National/State); method combinations
//! `Hc×Hc`, `Hc×Hg`, `Hg×Hc` (the paper omits `Hg×Hg` from the plot
//! because plain averaging's error there "would visually skew the
//! results" — we include it in the CSV for completeness); x-axis is
//! the per-level privacy budget. Expected shape: weighted averaging
//! yields large error reductions at the top level and modest ones at
//! the second level, for every budget and combination.

use hcc_consistency::{top_down_release, LevelMethod, MergeStrategy, TopDownConfig};
use hcc_data::{housing, race, Dataset, HousingConfig, RaceConfig, RaceProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{mean_std, per_level_emd, MeanSe};
use crate::ExpConfig;

/// The 2-level datasets used by the merge comparison.
pub fn two_level_datasets(cfg: &ExpConfig) -> Vec<Dataset> {
    vec![
        housing(&HousingConfig {
            scale: 1e-3 * cfg.scale,
            seed: cfg.seed,
            levels: 2,
            ..Default::default()
        }),
        race(&RaceConfig {
            scale: 0.01 * cfg.scale,
            seed: cfg.seed,
            levels: 2,
            ..RaceConfig::new(RaceProfile::White)
        }),
        race(&RaceConfig {
            scale: 0.01 * cfg.scale,
            seed: cfg.seed,
            levels: 2,
            ..RaceConfig::new(RaceProfile::Hawaiian)
        }),
    ]
}

/// Method combinations plotted by the paper (top level × second
/// level), plus `Hg×Hg` for the CSV.
pub fn combos(bound: u64) -> Vec<(&'static str, Vec<LevelMethod>)> {
    let hc = LevelMethod::Cumulative { bound };
    let hg = LevelMethod::Unattributed;
    vec![
        ("HcxHc", vec![hc, hc]),
        ("HcxHg", vec![hc, hg]),
        ("HgxHc", vec![hg, hc]),
        ("HgxHg", vec![hg, hg]),
    ]
}

/// One (dataset, combination, budget, level) point: average per-node
/// EMD under weighted and under plain averaging.
#[derive(Clone, Debug)]
pub struct MergeRow {
    /// Dataset name.
    pub dataset: String,
    /// Method combination, top level first (e.g. `HcxHg`).
    pub combo: &'static str,
    /// Per-level privacy budget.
    pub eps: f64,
    /// Hierarchy level (0 = root).
    pub level: usize,
    /// Inverse-variance weighted merging (the paper's).
    pub weighted: MeanSe,
    /// Plain averaging.
    pub plain: MeanSe,
}

/// Measures the merge strategies over every dataset, combination and
/// budget of `cfg`.
pub fn measure(cfg: &ExpConfig) -> Vec<MergeRow> {
    let mut rows = Vec::new();
    for ds in two_level_datasets(cfg) {
        for (combo, methods) in combos(cfg.bound) {
            for &eps in &cfg.epsilons {
                let total_eps = eps * ds.hierarchy.num_levels() as f64;
                let mut acc: [[Vec<f64>; 2]; 2] = Default::default();
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF4);
                for _ in 0..cfg.runs {
                    for (si, strategy) in
                        [MergeStrategy::WeightedAverage, MergeStrategy::PlainAverage]
                            .into_iter()
                            .enumerate()
                    {
                        let tdc = TopDownConfig::new(total_eps)
                            .with_level_methods(methods.clone())
                            .with_merge(strategy);
                        let rel = top_down_release(&ds.hierarchy, &ds.data, &tdc, &mut rng)
                            .expect("uniform depth");
                        for (l, e) in per_level_emd(&ds.hierarchy, &ds.data, &rel)
                            .into_iter()
                            .enumerate()
                        {
                            acc[si][l].push(e);
                        }
                    }
                }
                rows.extend((0..2).map(|level| MergeRow {
                    dataset: ds.name.clone(),
                    combo,
                    eps,
                    level,
                    weighted: mean_std(&acc[0][level]),
                    plain: mean_std(&acc[1][level]),
                }));
            }
        }
    }
    rows
}

/// Runs the merge-strategy comparison: a printed table and
/// `figure4.csv`.
pub fn run(cfg: &ExpConfig) -> String {
    let mut report = format!(
        "{:<16} {:<7} {:>6} {:>5} {:>14} {:>14} {:>8}\n",
        "dataset", "combo", "eps/lv", "level", "weighted", "plain", "plain/wt"
    );
    let mut rows = Vec::new();
    for r in measure(cfg) {
        let (w, p) = (r.weighted.0, r.plain.0);
        rows.push(format!(
            "{},{},{},{},{:.2},{:.2}",
            r.dataset, r.combo, r.eps, r.level, w, p
        ));
        // Keep the printed table readable: only eps = 0.1 and 1.0 rows
        // (the CSV has the full sweep).
        if (r.eps - 0.1).abs() < 1e-12 || (r.eps - 1.0).abs() < 1e-12 {
            let ratio = if w > 0.0 { p / w } else { f64::NAN };
            report.push_str(&format!(
                "{:<16} {:<7} {:>6} {:>5} {:>14.1} {:>14.1} {:>8.2}\n",
                r.dataset, r.combo, r.eps, r.level, w, p, ratio
            ));
        }
    }
    cfg.write_csv(
        "figure4.csv",
        "dataset,combo,eps_per_level,level,weighted_emd,plain_emd",
        &rows,
    );
    report.push_str("(expected shape: plain/weighted >> 1 at level 0, ≥ 1 at level 1)\n");
    report
}
