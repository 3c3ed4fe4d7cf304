//! Release formats 1 and 2 are equal in distribution.
//!
//! Format 2 draws each double-geometric value from one RNG word;
//! format 1 drew two one-sided geometrics. The bytes differ, so the
//! golden hashes were re-pinned, but the released *distribution* must
//! not move. On nodes of the housing fixture that the `national_hc`
//! workload releases (K = 20 000, ε = 1/4 per level), this compares the
//! served `Hc` kernel with format-1 noise through the same anchored L1
//! fit, over a few hundred seeds each: the mean per-node EMD and its
//! spread must agree within `Z` standard errors.

use hcc_bench::hotpath::format1_sample;
use hccount::core::{emd, CountOfCounts, Cumulative};
use hccount::data::{housing, HousingConfig};
use hccount::estimators::{EstimatorWorkspace, LevelMethod};
use hccount::hierarchy::Hierarchy;
use hccount::isotonic::{anchored_cumulative, CumulativeLoss};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BOUND: u64 = 20_000;
const EPSILON: f64 = 0.25;
/// Seeds per format and node.
const SEEDS: u64 = 300;
/// Standard errors a difference may reach.
const Z: f64 = 4.0;

/// One format-1 `Hc` estimate's EMD: format-1 noise on every cell
/// below the anchor, then the staged anchored L1 fit.
fn format1_emd(hist: &CountOfCounts, rng: &mut StdRng) -> f64 {
    let alpha = (-EPSILON).exp();
    let mut cum = Vec::new();
    hist.to_cumulative_into(BOUND, &mut cum);
    let mut noisy: Vec<i64> = cum[..cum.len() - 1]
        .iter()
        .map(|&v| v as i64 + format1_sample(alpha, rng))
        .collect();
    noisy.push(0); // The anchor cell: replaced by G.
    let fitted = anchored_cumulative(&noisy, hist.num_groups(), CumulativeLoss::L1);
    let est = Cumulative::from_vec(fitted).expect("a valid cumulative fit");
    emd(&est.to_hist(), hist) as f64
}

/// Mean and sample standard deviation.
fn mean_sd(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

#[test]
fn formats_1_and_2_have_the_same_per_node_emd_distribution() {
    let ds = housing(&HousingConfig {
        scale: 2e-5,
        seed: 6,
        ..Default::default()
    });
    let h = &ds.hierarchy;
    // The root, and the most populous node one level down and at the
    // leaves: thousands, hundreds and tens of groups.
    let busiest = |level: usize| {
        h.level(level)
            .iter()
            .copied()
            .max_by_key(|&n| ds.data.node(n).num_groups())
            .expect("a non-empty level")
    };
    let nodes = [Hierarchy::ROOT, busiest(1), busiest(h.num_levels() - 1)];
    let est = LevelMethod::Cumulative { bound: BOUND };
    let mut ws = EstimatorWorkspace::new();
    for node in nodes {
        let hist = ds.data.node(node);
        let g = hist.num_groups();
        let mut v1 = Vec::new();
        let mut v2 = Vec::new();
        for seed in 0..SEEDS {
            v1.push(format1_emd(hist, &mut StdRng::seed_from_u64(seed)));
            let served = est.estimate_in(
                hist,
                g,
                EPSILON,
                &mut StdRng::seed_from_u64(1 << 32 | seed),
                &mut ws,
            );
            v2.push(emd(served.hist(), hist) as f64);
        }
        let ((m1, s1), (m2, s2)) = (mean_sd(&v1), mean_sd(&v2));
        let n = SEEDS as f64;
        let what = format!("{} (G = {g})", h.name(node));
        // The mean's standard error is s/√n; the sample standard
        // deviation's is about s/√(2(n − 1)).
        let mean_se = (s1 * s1 / n + s2 * s2 / n).sqrt();
        assert!(
            (m1 - m2).abs() <= Z * mean_se,
            "{what}: mean EMD {m1:.1} (format 1) vs {m2:.1} (format 2), standard error {mean_se:.2}"
        );
        let sd_se = (s1 * s1 + s2 * s2).sqrt() / (2.0 * (n - 1.0)).sqrt();
        assert!(
            (s1 - s2).abs() <= Z * sd_se,
            "{what}: EMD spread {s1:.1} (format 1) vs {s2:.1} (format 2), standard error {sd_se:.2}"
        );
    }
}
