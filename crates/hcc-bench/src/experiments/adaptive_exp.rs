//! Extension experiment: per-node adaptive method selection.
//!
//! The paper defers per-node `Hc`-vs-`Hg` selection to external tools
//! (footnote 4). Our [`LevelMethod::Adaptive`] spends 5 %
//! of each node's budget on a private sparsity probe. This experiment
//! checks the selector against the two fixed choices across all four
//! datasets: a good selector should track the better fixed method on
//! each dataset (minus the probe's small budget tax).

use hcc_consistency::{top_down_release, LevelMethod, TopDownConfig};
use hcc_data::{Dataset, DatasetKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{mean_std, per_level_emd};
use crate::ExpConfig;

/// Runs adaptive vs fixed Hc vs fixed Hg on 2-level hierarchies.
pub fn run(cfg: &ExpConfig) -> String {
    let mut report = format!(
        "{:<16} {:>6} {:>5} {:>12} {:>12} {:>12}\n",
        "dataset", "eps/lv", "level", "Hc", "Hg", "adaptive"
    );
    let mut rows = Vec::new();
    for kind in DatasetKind::ALL {
        let ds = Dataset::generate(kind, cfg.scale, cfg.seed);
        let levels = ds.hierarchy.num_levels();
        for &eps in &cfg.epsilons {
            let total = eps * levels as f64;
            let methods = [
                LevelMethod::Cumulative { bound: cfg.bound },
                LevelMethod::Unattributed,
                LevelMethod::Adaptive { bound: cfg.bound },
            ];
            let mut acc: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); levels]; 3];
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xAD);
            for _ in 0..cfg.runs {
                for (mi, &m) in methods.iter().enumerate() {
                    let tdc = TopDownConfig::new(total).with_method(m);
                    let rel = top_down_release(&ds.hierarchy, &ds.data, &tdc, &mut rng)
                        .expect("uniform depth");
                    for (l, e) in per_level_emd(&ds.hierarchy, &ds.data, &rel)
                        .into_iter()
                        .enumerate()
                    {
                        acc[mi][l].push(e);
                    }
                }
            }
            #[allow(clippy::needless_range_loop)]
            for l in 0..levels {
                let hc = mean_std(&acc[0][l]).0;
                let hg = mean_std(&acc[1][l]).0;
                let ad = mean_std(&acc[2][l]).0;
                rows.push(format!(
                    "{},{},{},{:.2},{:.2},{:.2}",
                    ds.name, eps, l, hc, hg, ad
                ));
                if ((eps - 0.1).abs() < 1e-12 || (eps - 1.0).abs() < 1e-12) && l == 0 {
                    report.push_str(&format!(
                        "{:<16} {:>6} {:>5} {:>12.1} {:>12.1} {:>12.1}\n",
                        ds.name, eps, l, hc, hg, ad
                    ));
                }
            }
        }
    }
    cfg.write_csv(
        "adaptive.csv",
        "dataset,eps_per_level,level,hc_emd,hg_emd,adaptive_emd",
        &rows,
    );
    report.push_str("(expected: adaptive ≈ the better fixed method per dataset)\n");
    report
}
