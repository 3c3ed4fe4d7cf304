//! §6.2.1 — ruling out the naive method.
//!
//! Paper (ε = 1, full scale): naive EMD is in the billions —
//! Synthetic 4.46 B, White 4.81 B, Hawaiian 4.03 B, Taxi 0.21 B —
//! several orders of magnitude above the `Hc`/`Hg` methods, because
//! noise lands on every one of the `K` cells and half the spurious
//! mass survives the nonnegativity projection.

use hcc_core::emd;
use hcc_data::{Dataset, DatasetKind};
use hcc_estimators::LevelMethod;
use hcc_hierarchy::Hierarchy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{mean_std, MeanSe};
use crate::ExpConfig;

/// One dataset's root-node EMD under each method at ε = 1.
#[derive(Clone, Debug)]
pub struct NaiveRow {
    /// Dataset name.
    pub dataset: String,
    /// The naive method (noise on every one of the `K` cells).
    pub naive: MeanSe,
    /// `Hc` with L1 post-processing.
    pub hc: MeanSe,
    /// `Hg`.
    pub hg: MeanSe,
}

/// Measures the naive method at ε = 1 on every dataset's root node,
/// with the `Hc` and `Hg` methods alongside.
pub fn measure(cfg: &ExpConfig) -> Vec<NaiveRow> {
    let eps = 1.0;
    DatasetKind::ALL
        .into_iter()
        .map(|kind| {
            let ds = Dataset::generate(kind, cfg.scale, cfg.seed);
            let truth = ds.data.node(Hierarchy::ROOT);
            let g = truth.num_groups();
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA1);
            let mut errors = |method: LevelMethod| -> MeanSe {
                let xs: Vec<f64> = (0..cfg.runs)
                    .map(|_| emd(method.estimate(truth, g, eps, &mut rng).hist(), truth) as f64)
                    .collect();
                mean_std(&xs)
            };
            let naive = errors(LevelMethod::Naive { bound: cfg.bound });
            let hc = errors(LevelMethod::Cumulative { bound: cfg.bound });
            let hg = errors(LevelMethod::Unattributed);
            NaiveRow {
                dataset: ds.name,
                naive,
                hc,
                hg,
            }
        })
        .collect()
}

/// Runs the comparison: a printed table and `naive_table.csv`.
pub fn run(cfg: &ExpConfig) -> String {
    let mut report = format!(
        "{:<16} {:>16} {:>12} {:>12}   (avg EMD at root, eps=1)\n",
        "dataset", "naive", "Hc", "Hg"
    );
    let mut rows = Vec::new();
    for r in measure(cfg) {
        report.push_str(&format!(
            "{:<16} {:>16.0} {:>12.0} {:>12.0}\n",
            r.dataset, r.naive.0, r.hc.0, r.hg.0
        ));
        rows.push(format!(
            "{},{:.1},{:.1},{:.1}",
            r.dataset, r.naive.0, r.hc.0, r.hg.0
        ));
    }
    cfg.write_csv("naive_table.csv", "dataset,naive_emd,hc_emd,hg_emd", &rows);
    report.push_str(
        "(paper full-scale naive EMD: synthetic 4.46e9, white 4.81e9, hawaiian 4.03e9, taxi 2.09e8)\n",
    );
    report
}
