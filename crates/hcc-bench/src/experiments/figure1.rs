//! Figure 1 — where each method's error lives.
//!
//! The paper visualises per-group estimation error against the
//! cumulative group-size position: the `Hg` method's error
//! concentrates on the *small* group sizes, while the `Hc` method's
//! error is spread across the rest of the range. We reproduce the
//! underlying series: for each method, the absolute difference
//! between the estimated and true unattributed histograms, bucketed
//! into percentiles of the group index.

use hcc_data::{housing, HousingConfig};
use hcc_estimators::LevelMethod;
use hcc_hierarchy::Hierarchy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ExpConfig;

const BUCKETS: usize = 20;

/// Per-bucket mean absolute error of `Ĥg` vs `Hg`.
fn bucket_errors(truth: &[u64], est: &[u64]) -> Vec<f64> {
    assert_eq!(truth.len(), est.len());
    let n = truth.len();
    let mut sums = [0.0f64; BUCKETS];
    let mut counts = [0u64; BUCKETS];
    for i in 0..n {
        let b = (i * BUCKETS / n).min(BUCKETS - 1);
        sums[b] += truth[i].abs_diff(est[i]) as f64;
        counts[b] += 1;
    }
    sums.iter()
        .zip(counts.iter())
        .map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect()
}

/// Runs the Figure 1 experiment on the housing dataset's root node at
/// ε = 1.
pub fn run(cfg: &ExpConfig) -> String {
    let ds = housing(&HousingConfig {
        scale: 1e-3 * cfg.scale,
        seed: cfg.seed,
        levels: 2,
        ..Default::default()
    });
    let truth = ds.data.node(Hierarchy::ROOT);
    let truth_dense = truth.to_unattributed().to_dense();
    let g = truth.num_groups();
    // The paper's figure is drawn where estimation error is clearly
    // visible; at reduced dataset scale that means a small per-level
    // budget.
    let eps = 0.05;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut avg = |method: LevelMethod| -> Vec<f64> {
        let mut acc = vec![0.0; BUCKETS];
        for _ in 0..cfg.runs {
            let est = method.estimate(truth, g, eps, &mut rng).into_hist();
            let est = est.to_unattributed().to_dense();
            for (a, e) in acc.iter_mut().zip(bucket_errors(&truth_dense, &est)) {
                *a += e;
            }
        }
        acc.iter_mut().for_each(|a| *a /= cfg.runs as f64);
        acc
    };
    let hg = avg(LevelMethod::Unattributed);
    let hc = avg(LevelMethod::Cumulative { bound: cfg.bound });

    let rows: Vec<String> = (0..BUCKETS)
        .map(|b| format!("{},{:.3},{:.3}", (b + 1) * 100 / BUCKETS, hg[b], hc[b]))
        .collect();
    cfg.write_csv(
        "figure1.csv",
        "group_index_percentile,hg_abs_err,hc_abs_err",
        &rows,
    );

    // Summary: fraction of each method's total error carried by the
    // smallest 25 % of groups (the paper's qualitative claim is that
    // Hg concentrates there, Hc does not).
    let frac_small = |e: &[f64]| -> f64 {
        let total: f64 = e.iter().sum();
        let small: f64 = e[..BUCKETS / 4].iter().sum();
        if total > 0.0 {
            small / total
        } else {
            0.0
        }
    };
    let mut report = format!(
        "{:<28} {:>10} {:>10}\n",
        "group-index percentile", "Hg |err|", "Hc |err|"
    );
    for b in 0..BUCKETS {
        report.push_str(&format!(
            "{:<28} {:>10.3} {:>10.3}\n",
            format!("≤ {}%", (b + 1) * 100 / BUCKETS),
            hg[b],
            hc[b]
        ));
    }
    report.push_str(&format!(
        "error share in smallest 25% of groups:  Hg {:.1}%   Hc {:.1}%\n",
        100.0 * frac_small(&hg),
        100.0 * frac_small(&hc)
    ));
    report
}
