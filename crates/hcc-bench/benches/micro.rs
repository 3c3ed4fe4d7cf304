//! Criterion micro-benchmarks for the performance-critical kernels:
//! the isotonic solvers (both losses), Algorithm 2's run-length
//! matching (against the dense expansion it replaces), EMD, the noise
//! samplers, and the end-to-end top-down release.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hcc_consistency::matching_dense::match_groups_dense_from_runs;
use hcc_consistency::{match_groups, top_down_release, LevelMethod, TopDownConfig};
use hcc_core::{emd, CountOfCounts};
use hcc_data::{housing, HousingConfig};
use hcc_estimators::VarianceRun;
use hcc_isotonic::{
    anchored_cumulative, isotonic_l1, isotonic_l1_weighted, isotonic_l2, project_simplex,
    CumulativeLoss,
};
use hcc_noise::{DiscreteGaussian, DoubleGeometric, GeometricMechanism};
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
        let w = vec![1u64; n];
        g.bench_with_input(BenchmarkId::new("pav_l1_weighted_unit", n), &y, |b, y| {
            b.iter(|| isotonic_l1_weighted(black_box(y), &w))
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

/// Run-length matching vs the dense-size matching it supersedes: the
/// paper's Algorithm 2 is O(G log G); the run-length variant is
/// O(R log R) in distinct sizes R.
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
            &(parent.clone(), children.clone()),
            |b, (p, cs)| b.iter(|| match_groups(black_box(p), black_box(cs)).unwrap()),
        );
        // The dense O(G log G) reference from the paper, for the
        // run-length-vs-dense ablation (skip the largest size: the
        // expansion alone allocates 8 MB+ per iteration).
        if groups <= 100_000 {
            g.bench_with_input(
                BenchmarkId::new("dense_reference", groups),
                &(parent, children),
                |b, (p, cs)| b.iter(|| match_groups_dense_from_runs(black_box(p), black_box(cs))),
            );
        }
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
    let dg = DiscreteGaussian::new(4.0);
    g.bench_function("discrete_gaussian_sample", |b| {
        b.iter(|| dg.sample(black_box(&mut rng)))
    });
    g.finish();
}

/// Filling a bound-length slice with double-geometric noise: the
/// threshold-table sampler through `DoubleGeometric::fill` and through
/// the per-cell `sample` loop, against the seed sampler that inverted
/// `ln U / ln α` (recomputing `ln α`) on every one-sided draw. All
/// three produce the identical noise stream. `construct` is the
/// table's one-off build cost.
fn bench_noise_fill(c: &mut Criterion) {
    use hcc_bench::hotpath::seed_sample_one_sided;

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
                *slot =
                    seed_sample_one_sided(alpha, &mut rng) - seed_sample_one_sided(alpha, &mut rng);
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

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    let ds = housing(&HousingConfig {
        scale: 2e-5,
        seed: 6,
        ..Default::default()
    });
    for (name, method) in [
        ("topdown_hc", LevelMethod::Cumulative { bound: 20_000 }),
        ("topdown_hg", LevelMethod::Unattributed),
    ] {
        let cfg = TopDownConfig::new(1.0).with_method(method);
        g.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| {
                top_down_release(
                    black_box(&ds.hierarchy),
                    black_box(&ds.data),
                    &cfg,
                    &mut rng,
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

/// The engine's cache-hit fast path through the full job API. (The
/// multi-worker batch curve is `engine_scaling/jobs_batch8/*`, from
/// the `scaling` binary.)
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

/// The prepared-dataset amortization win: an 8-point ε sweep over one
/// prepared handle versus 8 cold inline submits of the same dataset,
/// both through the real TCP server. Every inline submit ships and
/// re-parses the CSV tables and re-aggregates the per-node true
/// views; the prepared sweep pays that load exactly once (at setup)
/// and each point costs only the release itself. The result cache is
/// disabled so all 8 points *compute* in both variants — the measured
/// gap is purely the amortized load, which must put the sweep at well
/// under half the cold wall-time.
fn bench_engine_sweep(c: &mut Criterion) {
    use std::sync::Arc;

    use std::net::TcpStream;

    use hcc_data::{Dataset, DatasetKind};
    use hcc_engine::protocol::frame::{
        read_frame, submit_frame, write_frame, Frame, T_HELLO, T_RESULT,
    };
    use hcc_engine::{protocol::SubmitParams, serve, Engine, EngineConfig, MuxClient};

    let mut g = c.benchmark_group("engine_sweep");
    g.sample_size(10);

    // A dataset big enough that table load dominates one release: a
    // couple hundred thousand entity rows against a tiny bound K.
    let ds = Dataset::generate(DatasetKind::Housing, 1.0, 6);
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    const EPS: [f64; 8] = [0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0];
    let base = SubmitParams {
        epsilon: 1.0,
        method: "hc".into(),
        bound: 500,
        seed: 0,
        handle: None,
    };

    let engine = Engine::start(
        EngineConfig::default()
            .with_workers(2)
            .with_cache_capacity(0),
    );
    let server = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = MuxClient::connect(server.addr()).unwrap();
    let handle = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();

    // Distinct seeds per iteration keep requests unique even if a
    // cache were enabled.
    let mut round = 0u64;
    g.bench_function("prepared_sweep8", |b| {
        b.iter(|| {
            round += 1;
            let params = SubmitParams {
                seed: round,
                ..base.clone()
            };
            for point in client.sweep(&params, handle, &EPS).unwrap() {
                black_box(point.outcome.unwrap());
            }
        })
    });
    // The cold variant gets the same write-all-then-read pipelining
    // as the sweep (raw frames on one connection, since the client's
    // inline submit blocks per request), so the measured gap isolates
    // the amortized table load rather than conflating it with batch
    // parallelism.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut raw, &Frame::empty(T_HELLO, 1)).unwrap();
    read_frame(&mut raw, u32::MAX).unwrap();
    let tables = Some([
        hierarchy_csv.as_str(),
        groups_csv.as_str(),
        entities_csv.as_str(),
    ]);
    let mut rid = 1u64;
    g.bench_function("cold_inline_submits8", |b| {
        b.iter(|| {
            round += 1;
            for &epsilon in &EPS {
                let params = SubmitParams {
                    epsilon,
                    seed: round,
                    ..base.clone()
                };
                rid += 1;
                write_frame(&mut raw, &submit_frame(rid, &params, tables, false)).unwrap();
            }
            for _ in EPS {
                let reply = read_frame(&mut raw, u32::MAX).unwrap();
                assert_eq!(reply.ftype, T_RESULT);
                black_box(reply);
            }
        })
    });
    g.finish();
}

/// The delta-derivation win: moving a prepared dataset forward by a
/// 1%-of-groups delta with `DERIVE` versus a cold `PREPARE` of the
/// post-delta tables, both through the real TCP server. The cold path
/// re-ships and re-parses every table row and re-aggregates the whole
/// hierarchy; `DERIVE` ships only the delta CSV and re-aggregates
/// only the touched root-to-leaf paths, so it must come in at ≥5×
/// faster (in practice far more — no entity row ever crosses the
/// wire).
fn bench_engine_derive(c: &mut Criterion) {
    use std::sync::Arc;

    use hcc_data::{Dataset, DatasetDelta, DatasetKind};
    use hcc_engine::{serve, Engine, EngineConfig, MuxClient};

    let mut g = c.benchmark_group("engine_derive");
    g.sample_size(10);

    let ds = Dataset::generate(DatasetKind::Housing, 1.0, 6);
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();

    // A delta touching ~1% of all groups (shared builder with the
    // tier-1 derive-vs-prepare perf smoke).
    let delta = DatasetDelta::resize_sample(&ds, 100);
    let post = ds.apply_delta(&delta).unwrap();
    let (post_hierarchy_csv, post_groups_csv, post_entities_csv) = post.to_csv_tables();

    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let server = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = MuxClient::connect(server.addr()).unwrap();
    let parent = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();

    g.bench_function("derive_1pct", |b| {
        b.iter(|| black_box(client.derive(parent, &delta).unwrap().unwrap()))
    });
    g.bench_function("cold_prepare_post_delta", |b| {
        b.iter(|| {
            black_box(
                client
                    .prepare(&post_hierarchy_csv, &post_groups_csv, &post_entities_csv)
                    .unwrap()
                    .unwrap(),
            )
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
    bench_end_to_end,
    bench_engine,
    bench_engine_sweep,
    bench_engine_derive
);
criterion_main!(benches);
