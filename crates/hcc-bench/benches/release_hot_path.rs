//! The PR-5 tentpole benchmark: the full per-node estimation hot
//! path (3-level hierarchy, `Hc` at `bound = 50 000`) through the
//! allocation-free workspace pipeline versus the seed-style
//! per-node-allocation path it replaced. Both sides produce
//! bit-identical estimates (asserted by the `hcc-bench` unit tests
//! and the tier-1 perf smoke), so the gap is pure implementation.
//!
//! The master seed honours `HCC_SEED` (default 0) so `scripts/bench.sh`
//! can pin the noise stream and make `BENCH_<n>.json` numbers
//! comparable across PRs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hcc_bench::hotpath::{three_level_dataset, SeedBaseline, HOT_PATH_BOUND};
use hcc_consistency::{node_seeds, top_down_from_estimates, LevelMethod, TopDownConfig};
use hcc_estimators::{EstimatorWorkspace, NodeEstimate};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn master_seed() -> u64 {
    std::env::var("HCC_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn bench_release_hot_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("release_hot_path");
    g.sample_size(10);

    let (h, data) = three_level_dataset();
    let cfg = TopDownConfig::new(0.25).with_method(LevelMethod::Cumulative {
        bound: HOT_PATH_BOUND,
    });
    let eps_level = cfg.level_epsilon(h.num_levels());
    let mut master = StdRng::seed_from_u64(master_seed());
    let seeds = node_seeds(&h, &mut master);

    let estimate_release = |mut estimate: &mut dyn FnMut(usize) -> NodeEstimate| {
        let estimates: Vec<NodeEstimate> = (0..h.num_nodes()).map(&mut estimate).collect();
        top_down_from_estimates(&h, &cfg, estimates).unwrap()
    };

    let nodes: Vec<_> = h.iter().collect();
    let est = LevelMethod::Cumulative {
        bound: HOT_PATH_BOUND,
    };
    let mut ws = EstimatorWorkspace::new();
    g.bench_function("workspace_pipeline", |b| {
        b.iter(|| {
            let rel = estimate_release(&mut |i| {
                let hist = data.node(nodes[i]);
                let mut rng = StdRng::seed_from_u64(seeds[i]);
                est.estimate_in(hist, hist.num_groups(), eps_level, &mut rng, &mut ws)
            });
            black_box(rel)
        })
    });

    let baseline = SeedBaseline {
        bound: HOT_PATH_BOUND,
    };
    g.bench_function("seed_baseline", |b| {
        b.iter(|| {
            let rel = estimate_release(&mut |i| {
                let hist = data.node(nodes[i]);
                let mut rng = StdRng::seed_from_u64(seeds[i]);
                baseline.estimate(hist, hist.num_groups(), eps_level, &mut rng)
            });
            black_box(rel)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_release_hot_path);
criterion_main!(benches);
