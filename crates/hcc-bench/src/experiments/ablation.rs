//! Ablation: L1 vs L2 post-processing for the `Hc` method.
//!
//! Section 4.3 reports that "the L1 version of the problem performs
//! better than the L2 version", consistent with Lin & Kifer's
//! observations on unattributed histograms, and that the L1 solution
//! is almost always integral. This ablation quantifies both claims on
//! all four datasets.

use hcc_core::emd;
use hcc_data::{Dataset, DatasetKind};
use hcc_estimators::LevelMethod;
use hcc_hierarchy::Hierarchy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{mean_std, MeanSe};
use crate::ExpConfig;

/// One (dataset, budget) point: the root's EMD under `Hc` with L1
/// and with L2 post-processing.
#[derive(Clone, Debug)]
pub struct LossRow {
    /// Dataset name.
    pub dataset: String,
    /// Privacy budget.
    pub eps: f64,
    /// L1 isotonic post-processing (the paper's default).
    pub l1: MeanSe,
    /// L2 isotonic post-processing.
    pub l2: MeanSe,
}

/// Measures L1 against L2 post-processing at every dataset's root
/// over the ε sweep of `cfg`.
pub fn measure(cfg: &ExpConfig) -> Vec<LossRow> {
    let mut rows = Vec::new();
    for kind in DatasetKind::ALL {
        let ds = Dataset::generate(kind, cfg.scale, cfg.seed);
        let truth = ds.data.node(Hierarchy::ROOT);
        let g = truth.num_groups();
        for &eps in &cfg.epsilons {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xAB);
            let mut avg = |method: LevelMethod| -> MeanSe {
                let xs: Vec<f64> = (0..cfg.runs)
                    .map(|_| emd(method.estimate(truth, g, eps, &mut rng).hist(), truth) as f64)
                    .collect();
                mean_std(&xs)
            };
            let l1 = avg(LevelMethod::Cumulative { bound: cfg.bound });
            let l2 = avg(LevelMethod::CumulativeL2 { bound: cfg.bound });
            rows.push(LossRow {
                dataset: ds.name.clone(),
                eps,
                l1,
                l2,
            });
        }
    }
    rows
}

/// Runs the L1-vs-L2 comparison: a printed table and
/// `ablation_l1_vs_l2.csv`.
pub fn run(cfg: &ExpConfig) -> String {
    let mut report = format!(
        "{:<16} {:>6} {:>12} {:>12} {:>8}\n",
        "dataset", "eps", "Hc-L1", "Hc-L2", "L2/L1"
    );
    let mut rows = Vec::new();
    for r in measure(cfg) {
        let (l1, l2) = (r.l1.0, r.l2.0);
        rows.push(format!("{},{},{:.2},{:.2}", r.dataset, r.eps, l1, l2));
        if (r.eps - 0.1).abs() < 1e-12 || (r.eps - 1.0).abs() < 1e-12 {
            let ratio = if l1 > 0.0 { l2 / l1 } else { f64::NAN };
            report.push_str(&format!(
                "{:<16} {:>6} {:>12.1} {:>12.1} {:>8.2}\n",
                r.dataset, r.eps, l1, l2, ratio
            ));
        }
    }
    cfg.write_csv(
        "ablation_l1_vs_l2.csv",
        "dataset,eps,hc_l1_emd,hc_l2_emd",
        &rows,
    );
    report.push_str("(paper: the L1 variant performs better — expect L2/L1 ≥ 1)\n");
    report
}
