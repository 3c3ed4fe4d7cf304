//! Golden bit-identity suite for the estimation hot path and the
//! engine's work-stealing scheduler.
//!
//! Optimizations must not change a single released byte: for three
//! fixed seeds × every level method (Hc, Hg, Hc-L2, naive and
//! adaptive), the release CSV must hash to the value
//! pinned for the current release format. A changed hash here means
//! an optimization altered the RNG draw order or the post-processing
//! arithmetic — a correctness bug, not a perf regression. Only a new
//! release format (`hcc_engine::RELEASE_FORMAT`, which also keys the
//! result cache) re-pins the table.
//!
//! The engine layer extends the same pin across scheduling: single
//! jobs and 8-job batches through [`Engine`] at {1, 2, 4, 8} workers
//! (full oversubscription contention forced via
//! `with_active_limit(workers)`) must reproduce the identical hashes,
//! making "bit-identical under stealing" a checked invariant. CI also
//! runs the suite pinned to one worker count per lane via
//! `HCC_SCHED_WORKERS`, so races that only reproduce under a
//! particular contention level get their own run.

use std::sync::Arc;

use hcc_consistency::{to_csv, top_down_release, HierarchicalCounts, LevelMethod, TopDownConfig};
use hcc_core::CountOfCounts;
use hcc_engine::{Engine, EngineConfig, ReleaseRequest};
use hcc_hierarchy::{Hierarchy, HierarchyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a 64-bit; dependency-free and stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic 3-level dataset (nation → 3 states → 3 counties
/// each) with mixed dense/sparse leaf histograms, including size-0
/// groups and sizes near the truncation bound.
fn dataset() -> (Arc<Hierarchy>, Arc<HierarchicalCounts>) {
    let mut b = HierarchyBuilder::new("nation");
    let mut leaves = Vec::new();
    for s in 0..3 {
        let state = b.add_child(Hierarchy::ROOT, format!("s{s}"));
        for c in 0..3 {
            leaves.push(b.add_child(state, format!("s{s}c{c}")));
        }
    }
    let h = b.build();
    let data = HierarchicalCounts::from_leaves(
        &h,
        leaves
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                (
                    l,
                    CountOfCounts::from_group_sizes(
                        (0..40u64).map(|k| (k * (i as u64 + 2) * 7) % 90),
                    ),
                )
            })
            .collect(),
    )
    .unwrap();
    (Arc::new(h), Arc::new(data))
}

/// Golden FNV-1a hashes of the release CSV from `top_down_release`,
/// at release format 2 (`hcc_engine::RELEASE_FORMAT`: one RNG word
/// per double-geometric draw). They were re-pinned once, when the
/// format changed; format 1's were captured before the hot-path
/// refactors and held through every one of them. One entry per
/// (seed, method); the release is thread-count invariant, so every
/// thread count must reproduce the same hash. The Hc-L2, naive and
/// adaptive rows were added later, computed at format 2.
const GOLDEN: &[(u64, &str, u64)] = &[
    (101, "hc", 0x0f35ae1c179f1a63),
    (202, "hc", 0x21fcffb9a5296f40),
    (303, "hc", 0x47182d238842698b),
    (101, "hg", 0xb30fccdbcdc3e386),
    (202, "hg", 0x5f02167eddc18159),
    (303, "hg", 0x2d5d733bb0ef59bc),
    (101, "hc-l2", 0xdac227926d63994a),
    (202, "hc-l2", 0xfdcae7a65bf876cc),
    (303, "hc-l2", 0xe7f1d797e098eb76),
    (101, "naive", 0x02c2d4d09fc4071c),
    (202, "naive", 0xcb3a118adbeb411f),
    (303, "naive", 0x08e5de26581d0b90),
    (101, "adaptive", 0xda815e9f4096f4f4),
    (202, "adaptive", 0xb525302e9e42c4d8),
    (303, "adaptive", 0x4d5ce6a75763670b),
];

fn method_for(name: &str) -> LevelMethod {
    match name {
        "hc" => LevelMethod::Cumulative { bound: 128 },
        "hc-l2" => LevelMethod::CumulativeL2 { bound: 128 },
        "hg" => LevelMethod::Unattributed,
        "naive" => LevelMethod::Naive { bound: 128 },
        "adaptive" => LevelMethod::Adaptive { bound: 128 },
        other => panic!("unknown method {other}"),
    }
}

/// Worker counts under test: all of {1, 2, 4, 8} by default, or the
/// single count named by `HCC_SCHED_WORKERS` (the CI contention
/// lanes).
fn worker_counts() -> Vec<usize> {
    match std::env::var("HCC_SCHED_WORKERS") {
        Ok(v) => vec![v
            .parse()
            .expect("HCC_SCHED_WORKERS must be a positive integer")],
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// An engine whose scheduler really runs `workers`-way contention:
/// the result cache is off (every submission must compute) and the
/// compute gate is widened to `workers` so even a single-core host
/// time-slices that many interleaved estimation working sets.
fn contended_engine(workers: usize) -> Engine {
    Engine::start(
        EngineConfig::default()
            .with_workers(workers)
            .with_active_limit(workers)
            .with_cache_capacity(0),
    )
}

#[test]
fn release_csv_hashes_match_pre_refactor_goldens() {
    let (h, d) = dataset();
    for &(seed, method, want) in GOLDEN {
        let cfg = TopDownConfig::new(1.0).with_method(method_for(method));
        // Reference path: the direct single-threaded release.
        let mut rng = StdRng::seed_from_u64(seed);
        let direct = top_down_release(&h, &d, &cfg, &mut rng).unwrap();
        let csv = to_csv(&h, &direct);
        let got = fnv1a64(csv.as_bytes());
        assert_eq!(
            got, want,
            "seed {seed} method {method}: top_down_release CSV hash \
             {got:#018x} != golden {want:#018x} — an optimization changed \
             released bytes"
        );
        // The engine's scheduler is pinned against the same hashes by
        // the two engine tests below.
    }
}

/// Single jobs through the work-stealing engine: every worker count
/// in {1, 2, 4, 8} must release the exact pre-refactor bytes for all
/// 3 seeds × every method in the golden table. New coverage for this PR: the 2- and 8-worker
/// columns, and the engine path itself (subtree tasks interleaved
/// across per-worker deques instead of a per-job thread pool).
#[test]
fn engine_single_jobs_match_goldens_at_every_worker_count() {
    let (h, d) = dataset();
    for &workers in &worker_counts() {
        let mut engine = contended_engine(workers);
        for &(seed, method, want) in GOLDEN {
            let cfg = TopDownConfig::new(1.0).with_method(method_for(method));
            let id = engine
                .submit(ReleaseRequest::new(
                    Arc::clone(&h),
                    Arc::clone(&d),
                    cfg,
                    seed,
                ))
                .unwrap();
            let (result, _) = engine.wait(id).unwrap();
            let got = fnv1a64(result.csv.as_bytes());
            assert_eq!(
                got, want,
                "seed {seed} method {method} workers {workers}: engine \
                 release diverged from the golden hash"
            );
        }
        engine.shutdown();
    }
}

/// 8-job batches in flight at once: node tasks from all eight jobs
/// interleave on the same deques (and get stolen across workers), yet
/// each job's CSV must still hash to its serial value. Seeds 101-303
/// are pinned by the golden table; 404-808 are checked against a live
/// `top_down_release` oracle computed up front.
#[test]
fn engine_8_job_batches_match_goldens_at_every_worker_count() {
    const BATCH_SEEDS: [u64; 8] = [101, 202, 303, 404, 505, 606, 707, 808];
    let (h, d) = dataset();
    for method in ["hc", "hg"] {
        let cfg = TopDownConfig::new(1.0).with_method(method_for(method));
        let want: Vec<u64> = BATCH_SEEDS
            .iter()
            .map(|&seed| {
                GOLDEN
                    .iter()
                    .find(|&&(s, m, _)| s == seed && m == method)
                    .map(|&(_, _, hash)| hash)
                    .unwrap_or_else(|| {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let rel = top_down_release(&h, &d, &cfg, &mut rng).unwrap();
                        fnv1a64(to_csv(&h, &rel).as_bytes())
                    })
            })
            .collect();
        for &workers in &worker_counts() {
            let mut engine = contended_engine(workers);
            let ids: Vec<_> = BATCH_SEEDS
                .iter()
                .map(|&seed| {
                    engine
                        .submit(ReleaseRequest::new(
                            Arc::clone(&h),
                            Arc::clone(&d),
                            cfg.clone(),
                            seed,
                        ))
                        .unwrap()
                })
                .collect();
            for (i, id) in ids.into_iter().enumerate() {
                let (result, _) = engine.wait(id).unwrap();
                let got = fnv1a64(result.csv.as_bytes());
                assert_eq!(
                    got, want[i],
                    "seed {} method {method} workers {workers}: batched \
                     engine release diverged from its serial hash",
                    BATCH_SEEDS[i]
                );
            }
            engine.shutdown();
        }
    }
}

/// Regenerates the golden table: `cargo test -p hcc-engine --test
/// golden_release -- --ignored --nocapture print_golden_hashes`.
/// Only legitimate together with a bump of `RELEASE_FORMAT`, a change
/// that *intends* to change released bytes (e.g. a new noise
/// sampler) — never to paper over an optimization diff.
#[test]
#[ignore]
fn print_golden_hashes() {
    let (h, d) = dataset();
    for method in ["hc", "hg", "hc-l2", "naive", "adaptive"] {
        for seed in [101u64, 202, 303] {
            let cfg = TopDownConfig::new(1.0).with_method(method_for(method));
            let mut rng = StdRng::seed_from_u64(seed);
            let rel = top_down_release(&h, &d, &cfg, &mut rng).unwrap();
            let hash = fnv1a64(to_csv(&h, &rel).as_bytes());
            println!("    ({seed}, {method:?}, {hash:#018x}),");
        }
    }
}
