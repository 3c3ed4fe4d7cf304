//! Shared experiment infrastructure: configuration, statistics,
//! per-level error evaluation and CSV output.

use std::fs;
use std::path::{Path, PathBuf};

use hcc_consistency::HierarchicalCounts;
use hcc_core::{emd, CountOfCounts};
use hcc_hierarchy::Hierarchy;

/// Experiment configuration, populated from environment variables
/// (see the crate docs for the table of overrides).
#[derive(Clone, Debug)]
pub struct ExpConfig {
    /// Repetitions averaged per data point (the paper uses 10).
    pub runs: usize,
    /// Dataset scale multiplier applied to each generator's default.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Public group-size bound `K` (paper: 100 000).
    pub bound: u64,
    /// Output directory for CSV series.
    pub out_dir: PathBuf,
    /// Per-level privacy budgets swept on figure x-axes.
    pub epsilons: Vec<f64>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            runs: 3,
            scale: 0.2,
            seed: 42,
            bound: 100_000,
            out_dir: PathBuf::from("target/experiments"),
            epsilons: vec![0.01, 0.05, 0.1, 0.5, 1.0, 2.0],
        }
    }
}

impl ExpConfig {
    /// Reads overrides from the environment.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("HCC_RUNS") {
            cfg.runs = v.parse().expect("HCC_RUNS must be an integer");
        }
        if let Ok(v) = std::env::var("HCC_SCALE") {
            cfg.scale = v.parse().expect("HCC_SCALE must be a float");
        }
        if let Ok(v) = std::env::var("HCC_SEED") {
            cfg.seed = v.parse().expect("HCC_SEED must be an integer");
        }
        if let Ok(v) = std::env::var("HCC_BOUND") {
            cfg.bound = v.parse().expect("HCC_BOUND must be an integer");
        }
        if let Ok(v) = std::env::var("HCC_OUT") {
            cfg.out_dir = PathBuf::from(v);
        }
        cfg
    }

    /// Writes a CSV file under the configured output directory.
    pub fn write_csv(&self, name: &str, header: &str, rows: &[String]) -> PathBuf {
        let path = self.out_dir.join(name);
        write_csv(&path, header, rows);
        path
    }
}

/// A mean over runs and its standard error, as [`mean_std`] returns
/// them.
pub type MeanSe = (f64, f64);

/// Mean and standard deviation *of the mean* (the paper plots 1-σ
/// error bars of the 10-run average, i.e. sample σ divided by √runs).
pub fn mean_std(xs: &[f64]) -> MeanSe {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Average earth-mover's distance per node at each hierarchy level,
/// comparing a released set of histograms against the truth.
pub fn per_level_emd(
    hierarchy: &Hierarchy,
    truth: &HierarchicalCounts,
    released: &HierarchicalCounts,
) -> Vec<f64> {
    per_level_emd_nodes(hierarchy, truth, released.as_slice())
}

/// As [`per_level_emd`] but for baselines that produce a raw per-node
/// histogram vector (e.g. the omniscient yardstick).
pub fn per_level_emd_nodes(
    hierarchy: &Hierarchy,
    truth: &HierarchicalCounts,
    released: &[CountOfCounts],
) -> Vec<f64> {
    (0..hierarchy.num_levels())
        .map(|l| {
            let nodes = hierarchy.level(l);
            let total: u64 = nodes
                .iter()
                .map(|&n| emd(truth.node(n), &released[n.index()]))
                .sum();
            total as f64 / nodes.len() as f64
        })
        .collect()
}

/// Writes a CSV file, creating parent directories.
pub fn write_csv(path: &Path, header: &str, rows: &[String]) {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).expect("create output directory");
    }
    let mut content = String::with_capacity(rows.len() * 32 + header.len() + 1);
    content.push_str(header);
    content.push('\n');
    for r in rows {
        content.push_str(r);
        content.push('\n');
    }
    fs::write(path, content).expect("write CSV");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_hierarchy::HierarchyBuilder;

    #[test]
    fn mean_std_basics() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]), (5.0, 0.0));
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        // sample var = 2, σ_mean = sqrt(2/2) = 1.
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_level_emd_averages_nodes() {
        let mut b = HierarchyBuilder::new("r");
        let a = b.add_child(Hierarchy::ROOT, "a");
        let c = b.add_child(Hierarchy::ROOT, "b");
        let h = b.build();
        let truth = HierarchicalCounts::from_leaves(
            &h,
            vec![
                (a, CountOfCounts::from_group_sizes([1, 1])),
                (c, CountOfCounts::from_group_sizes([2])),
            ],
        )
        .unwrap();
        let released = HierarchicalCounts::from_leaves(
            &h,
            vec![
                (a, CountOfCounts::from_group_sizes([1, 2])), // emd 1
                (c, CountOfCounts::from_group_sizes([2])),    // emd 0
            ],
        )
        .unwrap();
        let lv = per_level_emd(&h, &truth, &released);
        assert_eq!(lv.len(), 2);
        assert_eq!(lv[0], 1.0); // root: single node, emd 1
        assert_eq!(lv[1], 0.5); // two leaves averaging (1 + 0) / 2
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("hcc_bench_test");
        let path = dir.join("x.csv");
        write_csv(&path, "a,b", &["1,2".into(), "3,4".into()]);
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn config_default_epsilons_ascend() {
        let cfg = ExpConfig::default();
        assert!(cfg.epsilons.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(cfg.bound, 100_000);
    }
}
