//! The `Hg` estimator's one-pass kernel against the staged chain it
//! replaced, bit for bit.
//!
//! The kernel draws each group's noisy size and pushes it straight
//! into the L2 PAV pool stack, then reads the fit out clamped at zero
//! and rounds its blocks into runs. It must equal the staged chain
//! (`privatize` per group into a dense vector → the stack-loop PAV →
//! `clamped(0, ∞)` → `from_variance_runs`) exactly: the same estimate,
//! the same variance bits, and the same RNG words consumed.

use std::collections::BTreeMap;

use hccount::core::{CountOfCounts, Run, Unattributed};
use hccount::estimators::{EstimatorWorkspace, LevelMethod, NodeEstimate, VarianceRun};
use hccount::isotonic::{Block, IsotonicFit};
use hccount::noise::GeometricMechanism;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// ε values covering the sampler's regimes: `ln`-fallback draws
/// (ε = 1e-3), the table, and α = 0, where every draw is 0. A
/// tinier ε is left out: the estimate's dense histogram is as long as
/// the largest noisy size.
const EPSILONS: [f64; 5] = [1e-3, 0.25, 1.0, 4.0, 800.0];

/// The stack-loop PAV the `Hg` kernel ran before the pass: both means
/// are recomputed on every comparison.
fn stack_isotonic_l2(y: &[f64]) -> IsotonicFit {
    struct Pool {
        start: usize,
        len: usize,
        ysum: f64,
    }
    impl Pool {
        fn value(&self) -> f64 {
            self.ysum / self.len as f64
        }
    }
    let mut stack: Vec<Pool> = Vec::new();
    for (i, &yi) in y.iter().enumerate() {
        stack.push(Pool {
            start: i,
            len: 1,
            ysum: yi,
        });
        while stack.len() >= 2 {
            let last = &stack[stack.len() - 1];
            let prev = &stack[stack.len() - 2];
            if prev.value() > last.value() {
                let last = stack.pop().expect("len >= 2");
                let prev = stack.last_mut().expect("len >= 1");
                prev.len += last.len;
                prev.ysum += last.ysum;
            } else {
                break;
            }
        }
    }
    IsotonicFit::from_blocks(
        stack
            .into_iter()
            .map(|p| Block {
                start: p.start,
                len: p.len,
                value: p.value(),
            })
            .collect(),
    )
}

/// The staged chain over a dense noisy vector, as the estimator ran
/// it before the stages were fused.
fn staged(hist: &CountOfCounts, epsilon: f64, rng: &mut StdRng) -> NodeEstimate {
    if hist.num_groups() == 0 {
        return NodeEstimate::new(CountOfCounts::new(), Vec::new());
    }
    let mech = GeometricMechanism::new(epsilon, 1.0);
    let mut noisy = Vec::new();
    for (size, &count) in hist.as_slice().iter().enumerate() {
        for _ in 0..count {
            noisy.push(mech.privatize(size as u64, rng) as f64);
        }
    }
    let fit = stack_isotonic_l2(&noisy).clamped(0.0, f64::INFINITY);
    let per_cell_var = 2.0 / (epsilon * epsilon);
    let runs = fit
        .blocks()
        .iter()
        .map(|b| VarianceRun {
            size: b.value.round().max(0.0) as u64,
            count: b.len as u64,
            variance: per_cell_var / b.len as f64,
        })
        .collect();
    NodeEstimate::from_variance_runs(runs)
}

fn assert_same_bits(a: &NodeEstimate, b: &NodeEstimate, what: &str) {
    assert_eq!(a.hist(), b.hist(), "{what}: histograms differ");
    let bits = |e: &NodeEstimate| {
        e.variances()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(a), bits(b), "{what}: variance bits differ");
}

/// Runs the fused kernel (in `ws`) and the staged chain from one seed
/// and checks the estimates and the RNG positions.
fn check_node(hist: &CountOfCounts, epsilon: f64, seed: u64, ws: &mut EstimatorWorkspace) {
    let what = format!(
        "G {} max size {:?} eps {epsilon} seed {seed}",
        hist.num_groups(),
        hist.max_size()
    );
    let g = hist.num_groups();
    let mut a = StdRng::seed_from_u64(seed);
    let fused = LevelMethod::Unattributed.estimate_in(hist, g, epsilon, &mut a, ws);
    let mut b = StdRng::seed_from_u64(seed);
    let chain = staged(hist, epsilon, &mut b);
    assert_same_bits(&fused, &chain, &format!("fused vs staged, {what}"));
    assert_eq!(
        a.next_u64(),
        b.next_u64(),
        "RNG words consumed differ, {what}"
    );
}

/// A workspace left dirty by a larger `Hg` node and an `Hc`-L2 node,
/// so a pool stack or buffer that is not reset would show.
fn dirty_workspace() -> EstimatorWorkspace {
    let mut ws = EstimatorWorkspace::new();
    let mut rng = StdRng::seed_from_u64(1);
    let big = CountOfCounts::from_counts(vec![0, 3_000, 400, 0, 90, 7]);
    LevelMethod::Unattributed.estimate_in(&big, big.num_groups(), 0.5, &mut rng, &mut ws);
    let narrow = CountOfCounts::from_group_sizes([3, 3, 9]);
    LevelMethod::CumulativeL2 { bound: 40 }.estimate_in(&narrow, 3, 0.5, &mut rng, &mut ws);
    ws
}

#[test]
fn edge_nodes_match_the_staged_chain() {
    let mut ws = dirty_workspace();
    let nodes = [
        // G = 0: nothing is drawn.
        CountOfCounts::new(),
        // G = 1, at size 0 and above it.
        CountOfCounts::from_counts(vec![1]),
        CountOfCounts::from_group_sizes([12]),
        // A single run, and one with every group at size 0.
        CountOfCounts::from_counts(vec![0, 0, 0, 50]),
        CountOfCounts::from_counts(vec![40]),
        CountOfCounts::from_group_sizes([0, 1, 1, 2, 9, 40, 40, 10_000]),
    ];
    for hist in &nodes {
        for (i, &epsilon) in EPSILONS.iter().enumerate() {
            check_node(hist, epsilon, 40 + i as u64, &mut ws);
        }
    }
}

#[test]
fn alpha_zero_releases_the_true_histogram() {
    // ε = 800: α underflows to 0, so no noise, yet each group still
    // takes its one RNG word.
    let hist = CountOfCounts::from_group_sizes([1, 1, 4, 4, 7]);
    let mut rng = StdRng::seed_from_u64(3);
    let est = LevelMethod::Unattributed.estimate(&hist, 5, 800.0, &mut rng);
    assert_eq!(est.hist(), &hist);
    let mut fresh = StdRng::seed_from_u64(3);
    for _ in 0..5 {
        fresh.next_u64();
    }
    assert_eq!(rng.next_u64(), fresh.next_u64());
}

/// `from_variance_runs` as it was written before it dropped its size
/// map: normalise the runs through `Unattributed`, then pool each
/// size's variances in input order.
fn variance_runs_by_map(runs: &[VarianceRun]) -> NodeEstimate {
    let ua = Unattributed::from_unnormalized_runs(
        runs.iter()
            .map(|r| Run {
                size: r.size,
                count: r.count,
            })
            .collect(),
    );
    let mut by_size: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    for r in runs.iter().filter(|r| r.count > 0) {
        let e = by_size.entry(r.size).or_insert((0.0, 0));
        e.0 += r.variance * r.count as f64;
        e.1 += r.count;
    }
    let variances = ua
        .runs()
        .iter()
        .map(|r| {
            let (wsum, c) = by_size[&r.size];
            wsum / c as f64
        })
        .collect();
    NodeEstimate::new(ua.to_hist(), variances)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random nodes through one reused workspace. The count scale
    /// spans nodes of a few groups to tens of thousands.
    #[test]
    fn fused_kernel_matches_staged_chain(
        nodes in prop::collection::vec(
            (prop::collection::vec(0u64..4, 0..120), 0usize..3), 1..4),
        eps_pick in 0usize..EPSILONS.len(),
        seed in any::<u64>(),
    ) {
        let mut ws = dirty_workspace();
        for (i, (counts, scale_pick)) in nodes.into_iter().enumerate() {
            let scale = [1, 7, 60][scale_pick];
            let hist = CountOfCounts::from_counts(counts.into_iter().map(|c| c * scale).collect());
            check_node(&hist, EPSILONS[eps_pick], seed.wrapping_add(i as u64), &mut ws);
        }
    }

    /// Unsorted runs, repeated sizes and empty runs build the same
    /// estimate, variance bits included, as the size-map version.
    #[test]
    fn from_variance_runs_matches_the_size_map(
        runs in prop::collection::vec((0u64..12, 0u64..5, 1u64..1_000), 0..24),
    ) {
        let runs: Vec<VarianceRun> = runs
            .into_iter()
            .map(|(size, count, v)| VarianceRun { size, count, variance: v as f64 / 7.0 })
            .collect();
        let want = variance_runs_by_map(&runs);
        assert_same_bits(&NodeEstimate::from_variance_runs(runs), &want, "runs");
    }
}
