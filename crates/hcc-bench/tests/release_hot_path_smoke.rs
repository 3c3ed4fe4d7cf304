//! Tier-1 perf smoke for the PR-5 workspace pipeline: on the ISSUE-5
//! workload (3-level hierarchy, `bound = 50 000`, `Hc` at every
//! level) the allocation-free estimation path must release at least
//! **2×** faster than the seed-style per-node-allocation path — and
//! produce the very same bytes while doing it.
//!
//! The margin is generous on purpose (release builds measure 5–20×):
//! the test must stay green on loaded CI machines while still
//! catching a regression that quietly reintroduces per-node
//! allocations or per-element heaps.

use std::time::{Duration, Instant};

use hcc_bench::hotpath::{three_level_dataset, SeedBaseline, HOT_PATH_BOUND};
use hcc_consistency::{node_seeds, top_down_from_estimates, LevelMethod, TopDownConfig};
use hcc_estimators::{EstimatorWorkspace, NodeEstimate};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn min_time<T>(reps: usize, mut run: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<Duration> = None;
    let mut out = None;
    for _ in 0..reps {
        let t = Instant::now();
        let value = run();
        let dt = t.elapsed();
        if best.is_none_or(|b| dt < b) {
            best = Some(dt);
        }
        out = Some(value);
    }
    (best.expect("reps >= 1"), out.expect("reps >= 1"))
}

#[test]
fn workspace_release_is_at_least_2x_faster_than_seed_path() {
    let (h, data) = three_level_dataset();
    let cfg = TopDownConfig::new(0.25).with_method(LevelMethod::Cumulative {
        bound: HOT_PATH_BOUND,
    });
    let eps_level = cfg.level_epsilon(h.num_levels());
    let mut master = StdRng::seed_from_u64(5);
    let seeds = node_seeds(&h, &mut master);

    let baseline = SeedBaseline {
        bound: HOT_PATH_BOUND,
    };
    let est = LevelMethod::Cumulative {
        bound: HOT_PATH_BOUND,
    };
    let mut ws = EstimatorWorkspace::new();

    // Warm-up: one untimed pass apiece (JIT-free, but page faults and
    // lazy buffer growth should not count against either side).
    let _ = estimate_all(&h, &data, &seeds, |hist, g, rng| {
        baseline.estimate(hist, g, eps_level, rng)
    });
    let _ = estimate_all(&h, &data, &seeds, |hist, g, rng| {
        est.estimate_in(hist, g, eps_level, rng, &mut ws)
    });

    let (old_dt, old_estimates) = min_time(2, || {
        estimate_all(&h, &data, &seeds, |hist, g, rng| {
            baseline.estimate(hist, g, eps_level, rng)
        })
    });
    let (new_dt, new_estimates) = min_time(2, || {
        estimate_all(&h, &data, &seeds, |hist, g, rng| {
            est.estimate_in(hist, g, eps_level, rng, &mut ws)
        })
    });

    // Same estimates, byte for byte — the speedup changes nothing.
    assert_eq!(old_estimates, new_estimates);
    let old_release = top_down_from_estimates(&h, &cfg, old_estimates).unwrap();
    let new_release = top_down_from_estimates(&h, &cfg, new_estimates).unwrap();
    assert_eq!(old_release, new_release);

    eprintln!(
        "release_hot_path smoke: seed path {old_dt:?}, workspace path {new_dt:?} \
         ({:.1}x)",
        old_dt.as_secs_f64() / new_dt.as_secs_f64().max(1e-9)
    );
    assert!(
        new_dt * 2 <= old_dt,
        "workspace pipeline must be >= 2x faster than the seed path: \
         seed {old_dt:?} vs workspace {new_dt:?}"
    );
}

fn estimate_all(
    h: &hcc_hierarchy::Hierarchy,
    data: &hcc_consistency::HierarchicalCounts,
    seeds: &[u64],
    mut estimate: impl FnMut(&hcc_core::CountOfCounts, u64, &mut StdRng) -> NodeEstimate,
) -> Vec<NodeEstimate> {
    h.iter()
        .zip(seeds)
        .map(|(node, &seed)| {
            let hist = data.node(node);
            let mut rng = StdRng::seed_from_u64(seed);
            estimate(hist, hist.num_groups(), &mut rng)
        })
        .collect()
}
