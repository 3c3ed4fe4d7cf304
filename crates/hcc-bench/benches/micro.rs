//! Criterion micro-benchmarks for the performance-critical kernels:
//! the isotonic solvers (both losses), Algorithm 2's run-length
//! matching, EMD, the noise samplers, the per-node `Hc` and `Hg`
//! kernels, the dataset digest, and the engine's cache-hit path.
//! End-to-end releases, ε-sweeps and dataset derivation are timed by
//! the `perfbench` package (`national_hc`, `hg_sweep`,
//! `ledger_churn`), not here.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hcc_consistency::{match_groups, LevelMethod, TopDownConfig};
use hcc_core::{emd, CountOfCounts};
use hcc_data::{housing, HousingConfig};
use hcc_estimators::{EstimatorWorkspace, VarianceRun};
use hcc_hierarchy::Hierarchy;
use hcc_isotonic::{
    anchored_cumulative, isotonic_l1, isotonic_l2, project_simplex, CumulativeLoss,
};
use hcc_noise::{DoubleGeometric, GeometricMechanism};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn noisy_cumulative(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| (i / 7) as i64 + rng.gen_range(-8..8))
        .collect()
}

fn bench_isotonic(c: &mut Criterion) {
    let mut g = c.benchmark_group("isotonic");
    g.sample_size(20);
    for &n in &[1_000usize, 10_000, 100_000] {
        let y = noisy_cumulative(n, 1);
        let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
        g.bench_with_input(BenchmarkId::new("pav_l2", n), &yf, |b, y| {
            b.iter(|| isotonic_l2(black_box(y)))
        });
        g.bench_with_input(BenchmarkId::new("pav_l1_median", n), &y, |b, y| {
            b.iter(|| isotonic_l1(black_box(y)))
        });
        g.bench_with_input(BenchmarkId::new("anchored_l1", n), &y, |b, y| {
            b.iter(|| anchored_cumulative(black_box(y), (n / 7) as u64, CumulativeLoss::L1))
        });
    }
    g.finish();
}

fn bench_simplex(c: &mut Criterion) {
    let mut g = c.benchmark_group("simplex_projection");
    g.sample_size(20);
    for &n in &[1_000usize, 100_000] {
        let mut rng = StdRng::seed_from_u64(2);
        let y: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &y, |b, y| {
            b.iter(|| project_simplex(black_box(y), 500.0))
        });
    }
    g.finish();
}

/// Run-length matching: the paper's Algorithm 2 is O(G log G) over
/// dense per-group sizes; the run-length variant is O(R log R) in
/// distinct sizes R, whatever the group count.
fn bench_matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching");
    g.sample_size(20);
    for &groups in &[10_000u64, 100_000, 1_000_000] {
        // 200 distinct sizes, 4 children.
        let runs_per_child = 50;
        let mut children: Vec<Vec<VarianceRun>> = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for c_i in 0..4u64 {
            let mut v = Vec::new();
            for r in 0..runs_per_child {
                v.push(VarianceRun {
                    size: 1 + 4 * r + c_i,
                    count: groups / (4 * runs_per_child),
                    variance: 1.0 + rng.gen::<f64>(),
                });
            }
            children.push(v);
        }
        let total: u64 = children.iter().flatten().map(|r| r.count).sum();
        // Parent: same group count, shifted sizes.
        let parent: Vec<VarianceRun> = (0..100)
            .map(|r| VarianceRun {
                size: 2 + 2 * r,
                count: total / 100,
                variance: 0.5,
            })
            .collect();
        let parent_total: u64 = parent.iter().map(|r| r.count).sum();
        assert_eq!(parent_total, total);
        g.bench_with_input(
            BenchmarkId::new("run_length", groups),
            &(parent, children),
            |b, (p, cs)| b.iter(|| match_groups(black_box(p), black_box(cs)).unwrap()),
        );
    }
    g.finish();
}

fn bench_emd(c: &mut Criterion) {
    let mut g = c.benchmark_group("emd");
    g.sample_size(30);
    for &n in &[1_000u64, 100_000] {
        let mut rng = StdRng::seed_from_u64(4);
        let a = CountOfCounts::from_group_sizes((0..n).map(|_| rng.gen_range(0..2000)));
        let b_h = CountOfCounts::from_group_sizes((0..n).map(|_| rng.gen_range(0..2000)));
        g.bench_with_input(BenchmarkId::from_parameter(n), &(a, b_h), |b, (x, y)| {
            b.iter(|| emd(black_box(x), black_box(y)))
        });
    }
    g.finish();
}

fn bench_noise(c: &mut Criterion) {
    let mut g = c.benchmark_group("noise");
    let dist = DoubleGeometric::new(0.5, 1.0);
    let mut rng = StdRng::seed_from_u64(5);
    g.bench_function("double_geometric_sample", |b| {
        b.iter(|| dist.sample(black_box(&mut rng)))
    });
    let mech = GeometricMechanism::new(0.5, 1.0);
    let values: Vec<u64> = (0..10_000).collect();
    g.bench_function("privatize_vec_10k", |b| {
        b.iter(|| mech.privatize_vec(black_box(&values), &mut rng))
    });
    g.finish();
}

/// Filling a bound-length slice with double-geometric noise: the
/// threshold-table sampler through `DoubleGeometric::fill` and through
/// the per-cell `sample` loop, against the seed-style sampler that
/// evaluates the defining `ln` formula (recomputing `ln α`) on every
/// draw. All three produce the identical noise stream, one RNG word
/// per draw. `construct` is the table's one-off build cost.
fn bench_noise_fill(c: &mut Criterion) {
    use hcc_bench::hotpath::seed_sample;

    let mut g = c.benchmark_group("noise_fill");
    g.sample_size(20);
    const N: usize = 50_000;
    g.bench_function("construct", |b| {
        b.iter(|| DoubleGeometric::new(black_box(0.25), 1.0))
    });
    let dist = DoubleGeometric::new(0.25, 1.0);
    let mut out = vec![0i64; N];
    let mut rng = StdRng::seed_from_u64(8);
    g.bench_function("fill_50k", |b| {
        b.iter(|| dist.fill(black_box(&mut out), &mut rng))
    });
    g.bench_function("per_cell_sample_50k", |b| {
        b.iter(|| {
            for slot in out.iter_mut() {
                *slot = dist.sample(&mut rng);
            }
            black_box(&mut out);
        })
    });
    let alpha = (-0.25f64).exp();
    g.bench_function("seed_per_draw_ln_50k", |b| {
        b.iter(|| {
            for slot in out.iter_mut() {
                *slot = seed_sample(alpha, &mut rng);
            }
            black_box(&mut out);
        })
    });
    g.finish();
}

/// The L1 isotonic kernel: the slope-trick workspace solver against
/// the seed PAV with per-element `BinaryHeap` median blocks, on the
/// hot-path shape (noisy cumulative histogram: a rising prefix and a
/// long flat tail). Identical fits, very different constants.
fn bench_isotonic_l1_old_vs_new(c: &mut Criterion) {
    use hcc_isotonic::{isotonic_l1_heap, isotonic_l1_with, PavL1Workspace};

    let mut g = c.benchmark_group("isotonic_l1");
    g.sample_size(20);
    for &n in &[10_000usize, 50_000] {
        // Rising for the first fifth, then a noisy plateau — the
        // truncated-bound shape the Hc estimator feeds the solver.
        let mut rng = StdRng::seed_from_u64(9);
        let y: Vec<i64> = (0..n)
            .map(|i| (i.min(n / 5) / 3) as i64 + rng.gen_range(-12..12))
            .collect();
        g.bench_with_input(BenchmarkId::new("seed_heap", n), &y, |b, y| {
            b.iter(|| isotonic_l1_heap(black_box(y)))
        });
        let mut ws = PavL1Workspace::new();
        g.bench_with_input(BenchmarkId::new("slope_trick", n), &y, |b, y| {
            b.iter(|| isotonic_l1_with(black_box(y), &mut ws))
        });
    }
    g.finish();
}

/// The `Hc` kernel on one node of `K + 1 = 20 001` cells (the
/// national release's bound), per cell: one streaming pass that draws
/// each cumulative cell, clamps it to `[0, G]` and pushes it into the
/// slope-trick heap, then the backward pass that emits the estimate.
/// The node's shape follows the housing fixture's root: `G` in the
/// thousands, sizes far below the bound, ε of one level of four.
/// (perfbench's `hc_stage.*` metrics time the staged replica instead.)
fn bench_hc_stage(c: &mut Criterion) {
    const BOUND: u64 = 20_000;
    let mut g = c.benchmark_group("hc_stage");
    g.sample_size(20);
    g.throughput(Throughput::Elements(BOUND + 1));
    let hist = CountOfCounts::from_group_sizes((0..2_500u64).map(|i| 1 + (i * 7_919) % 14));
    let groups = hist.num_groups();
    let est = LevelMethod::Cumulative { bound: BOUND };
    let mut ws = EstimatorWorkspace::new();
    let mut rng = StdRng::seed_from_u64(12);
    g.bench_function("fused", |b| {
        b.iter(|| est.estimate_in(black_box(&hist), groups, 0.25, &mut rng, &mut ws))
    });
    g.finish();
}

/// The `Hg` kernel on the housing fixture's root (about 120 000
/// groups, sizes from 1 to the 10 000-entity outliers), per group: one
/// streaming pass that draws each group's noisy size and pushes it
/// into the L2 PAV pool stack, then the clamped read-out that rounds
/// the blocks into the estimate's runs. ε is one level of four.
fn bench_hg_stage(c: &mut Criterion) {
    let ds = housing(&HousingConfig {
        seed: 6,
        ..Default::default()
    });
    let root = ds.data.node(Hierarchy::ROOT).clone();
    let groups = root.num_groups();
    let mut g = c.benchmark_group("hg_stage");
    g.sample_size(20);
    g.throughput(Throughput::Elements(groups));
    let mut ws = EstimatorWorkspace::new();
    let mut rng = StdRng::seed_from_u64(13);
    g.bench_function("fused", |b| {
        b.iter(|| {
            LevelMethod::Unattributed.estimate_in(black_box(&root), groups, 0.25, &mut rng, &mut ws)
        })
    });
    g.finish();
}

/// The dataset digest that names a prepared handle, per dense cell,
/// on quarter-scale housing (about 327 000 cells, over 99% of them
/// zero). Boot recovery, `PREPARE`, `DERIVE` and `APPEND` each pay it
/// once per dataset.
fn bench_fingerprint(c: &mut Criterion) {
    use hcc_data::{Dataset, DatasetKind};
    use hcc_engine::dataset_fingerprint;

    let ds = Dataset::generate(DatasetKind::Housing, 0.25, 6);
    let cells: usize = ds.data.as_slice().iter().map(CountOfCounts::len).sum();
    let mut g = c.benchmark_group("fingerprint");
    g.sample_size(20);
    g.throughput(Throughput::Elements(cells as u64));
    g.bench_function("dataset_housing", |b| {
        b.iter(|| dataset_fingerprint(black_box(&ds.hierarchy), black_box(&ds.data)))
    });
    g.finish();
}

/// The engine's cache-hit fast path through the full job API. (How
/// the engine scales across workers is checked by the tier-1
/// `scaling_smoke` test, not timed here.)
fn bench_engine(c: &mut Criterion) {
    use std::sync::Arc;

    use hcc_engine::{Engine, EngineConfig, ReleaseRequest};

    let mut g = c.benchmark_group("engine_throughput");
    g.sample_size(10);
    let ds = housing(&HousingConfig {
        scale: 2e-5,
        seed: 6,
        ..Default::default()
    });
    let hierarchy = Arc::new(ds.hierarchy);
    let data = Arc::new(ds.data);
    let cfg = TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 20_000 });
    let request = |seed: u64| {
        ReleaseRequest::new(Arc::clone(&hierarchy), Arc::clone(&data), cfg.clone(), seed)
    };

    // Repeat request: after the first computation every submission is
    // a fingerprint lookup.
    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let id = engine.submit(request(0)).unwrap();
    engine.wait(id).unwrap();
    g.bench_function("cache_hit", |b| {
        b.iter(|| {
            let id = engine.submit(request(0)).unwrap();
            black_box(engine.wait(id).unwrap())
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_isotonic,
    bench_isotonic_l1_old_vs_new,
    bench_simplex,
    bench_matching,
    bench_emd,
    bench_noise,
    bench_noise_fill,
    bench_hc_stage,
    bench_hg_stage,
    bench_fingerprint,
    bench_engine
);
criterion_main!(benches);
