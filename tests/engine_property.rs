//! Property tests of the engine: across random hierarchy shapes, leaf
//! data, seeds, and level methods, the multi-worker engine release is
//! bit-identical to a direct single-threaded `top_down_release` with
//! the same seed; and across random operation sequences with restarts,
//! a capped budget ledger never resets or under-counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hccount::consistency::{to_csv, top_down_release, LevelMethod, TopDownConfig};
use hccount::core::CountOfCounts;
use hccount::engine::{
    dataset_fingerprint, DatasetHandle, Engine, EngineConfig, EngineError, ReleaseRequest,
};
use hccount::hierarchy::{Hierarchy, HierarchyBuilder, NodeId};
use hccount::prelude::HierarchicalCounts;
use hccount::store::Store;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a uniform-depth hierarchy with the given per-level fan-outs
/// and recycles the generated group-size multisets across the leaves.
fn build_case(fanouts: &[usize], leaf_sizes: &[Vec<u64>]) -> (Hierarchy, HierarchicalCounts) {
    let mut b = HierarchyBuilder::new("root");
    let mut frontier = vec![Hierarchy::ROOT];
    for &f in fanouts {
        let mut next = Vec::new();
        for &node in &frontier {
            for i in 0..f {
                next.push(b.add_child(node, format!("{node}-{i}")));
            }
        }
        frontier = next;
    }
    let h = b.build();
    let leaves: Vec<(NodeId, CountOfCounts)> = frontier
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let sizes = leaf_sizes
                .get(i % leaf_sizes.len().max(1))
                .cloned()
                .unwrap_or_default();
            (n, CountOfCounts::from_group_sizes(sizes))
        })
        .collect();
    let data = HierarchicalCounts::from_leaves(&h, leaves).expect("uniform by construction");
    (h, data)
}

fn method_for(selector: u8) -> LevelMethod {
    match selector % 5 {
        0 => LevelMethod::Cumulative { bound: 64 },
        1 => LevelMethod::CumulativeL2 { bound: 64 },
        2 => LevelMethod::Unattributed,
        3 => LevelMethod::Naive { bound: 64 },
        _ => LevelMethod::Adaptive { bound: 64 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_release_bit_identical_to_direct_top_down_release(
        fanouts in prop::collection::vec(1usize..4, 1..4),
        leaf_sizes in prop::collection::vec(
            prop::collection::vec(0u64..40, 0..10), 1..5),
        seed in any::<u64>(),
        eps in 0.05f64..5.0,
        selector in any::<u8>(),
        workers in 2usize..5,
    ) {
        let (h, data) = build_case(&fanouts, &leaf_sizes);
        let cfg = TopDownConfig::new(eps).with_method(method_for(selector));

        let direct = {
            let mut rng = StdRng::seed_from_u64(seed);
            to_csv(&h, &top_down_release(&h, &data, &cfg, &mut rng).unwrap())
        };

        // The full engine: queue, work-stealing pool, cache.
        let engine = Engine::start(EngineConfig::default().with_workers(workers));
        let id = engine
            .submit(ReleaseRequest::new(
                Arc::new(h),
                Arc::new(data),
                cfg,
                seed,
            ))
            .unwrap();
        let (result, _) = engine.wait(id).unwrap();
        prop_assert_eq!(&result.csv, &direct);
    }
}

/// Distinguishes the store directories of one run's cases.
static LEDGER_CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random PREPARE, prepared submit, inline submit, cache-hit
    /// resubmit, UNPREPARE and restart steps against a capped store.
    /// After every step the engine's spend equals the sum of the
    /// charges it acknowledged, restarts included, and stays within
    /// the cap; a submit past the cap is refused with `BudgetExhausted`.
    #[test]
    fn capped_ledger_survives_restarts_and_never_exceeds_the_cap(
        steps in prop::collection::vec((0u8..6, 0usize..2, 0usize..3), 4..28),
    ) {
        const CAP: f64 = 2.0;
        const EPS: [f64; 3] = [0.25, 0.5, 1.0];
        let case = LEDGER_CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("hcc-ledger-prop-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.hcc");
        let boot = || {
            let config = EngineConfig::default().with_workers(1).with_budget_cap(CAP);
            Engine::start_with_store(config, Store::open(&path).unwrap()).unwrap()
        };
        let config = |e: usize| {
            TopDownConfig::new(EPS[e]).with_method(LevelMethod::Cumulative { bound: 32 })
        };
        let datasets: Vec<(Arc<Hierarchy>, Arc<HierarchicalCounts>)> =
            [vec![vec![1, 2, 2, 3]], vec![vec![1, 1, 4], vec![5]]]
                .iter()
                .map(|sizes| {
                    let (h, data) = build_case(&[3], sizes);
                    (Arc::new(h), Arc::new(data))
                })
                .collect();
        let accounts: Vec<DatasetHandle> = datasets
            .iter()
            .map(|(h, data)| DatasetHandle(dataset_fingerprint(h, data)))
            .collect();
        let inline = |d: usize, e: usize, seed: u64| {
            let (h, data) = &datasets[d];
            ReleaseRequest::new(Arc::clone(h), Arc::clone(data), config(e), seed)
        };

        let mut engine = boot();
        let mut acked = [0.0f64; 2];
        let mut refs = [0u64; 2];
        // Releases this process computed, so still in its result cache.
        let mut cached: Vec<(usize, usize, u64)> = Vec::new();
        let mut next_seed = 0u64;
        for (op, d, e) in steps {
            match op {
                0 => {
                    let (h, data) = &datasets[d];
                    let handle = engine.prepare(Arc::clone(h), Arc::clone(data)).unwrap();
                    prop_assert_eq!(handle, accounts[d]);
                    refs[d] += 1;
                }
                1 | 2 => {
                    next_seed += 1;
                    let submitted = if op == 1 {
                        engine.submit_prepared(accounts[d], config(e), next_seed)
                    } else {
                        engine.submit(inline(d, e, next_seed))
                    };
                    match submitted {
                        Err(EngineError::UnknownDataset(h)) if op == 1 && refs[d] == 0 => {
                            prop_assert_eq!(h, accounts[d]);
                        }
                        Err(EngineError::BudgetExhausted { handle, spent, cap, requested }) => {
                            prop_assert!(acked[d] + EPS[e] > CAP, "refused under the cap");
                            prop_assert_eq!(handle, accounts[d]);
                            prop_assert_eq!((spent, cap, requested), (acked[d], CAP, EPS[e]));
                        }
                        Ok(id) => {
                            prop_assert!(acked[d] + EPS[e] <= CAP, "admitted past the cap");
                            prop_assert!(op == 2 || refs[d] > 0, "unprepared handle resolved");
                            let (_, from_cache) = engine.wait(id).unwrap();
                            prop_assert!(!from_cache);
                            acked[d] += EPS[e];
                            cached.push((d, e, next_seed));
                        }
                        Err(other) => panic!("unexpected refusal {other}"),
                    }
                }
                3 => {
                    if let Some(&(cd, ce, seed)) = cached.get((d * 3 + e) % cached.len().max(1)) {
                        let id = engine.submit(inline(cd, ce, seed)).unwrap();
                        prop_assert!(engine.wait(id).unwrap().1, "resubmit missed the cache");
                    }
                }
                4 => match engine.unprepare(accounts[d]) {
                    Ok(remaining) => {
                        refs[d] -= 1;
                        prop_assert_eq!(remaining, refs[d]);
                    }
                    Err(EngineError::UnknownDataset(_)) => prop_assert_eq!(refs[d], 0),
                    Err(other) => panic!("unexpected unprepare error {other}"),
                },
                _ => {
                    drop(engine);
                    engine = boot();
                    cached.clear();
                    let live = refs.iter().filter(|&&r| r > 0).count();
                    prop_assert_eq!(engine.prepared_len(), live);
                }
            }
            for (account, &charged) in accounts.iter().zip(&acked) {
                let spent = engine.budget_spent(*account).unwrap();
                prop_assert_eq!(spent, charged);
                prop_assert!(spent <= CAP);
            }
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
