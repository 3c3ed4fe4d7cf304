//! The `Hc` estimator's one-pass kernel against the two pipelines it
//! replaced, bit for bit.
//!
//! The kernel draws each cumulative cell below the anchor `K`, clamps
//! it to `[0, G]` and pushes it into the slope-trick heap in one
//! streaming pass. It must equal the staged chain (`to_cumulative_into`
//! → `privatize_into` of the cells below the anchor →
//! `anchored_cumulative_into`, then differencing) and the frozen seed
//! pipeline (`hcc_bench::hotpath::SeedBaseline`) exactly: the same
//! estimate, the same variance bits, and the same RNG words consumed,
//! one per cell below the anchor. The `Hc`-L2 variant streams the same
//! cells into the L2 pool stack and is held to its staged chain (the
//! dense `isotonic_l2` fit) the same way.

use hcc_bench::hotpath::SeedBaseline;
use hccount::core::CountOfCounts;
use hccount::estimators::{EstimatorWorkspace, LevelMethod, NodeEstimate, VarianceRun};
use hccount::isotonic::{anchored_cumulative, CumulativeLoss};
use hccount::noise::GeometricMechanism;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// ε values covering the sampler's regimes: `ln`-fallback draws far
/// wider than any `G` (tiny ε), the table (moderate ε), and α = 0,
/// where every draw is 0.
const EPSILONS: [f64; 6] = [1e-15, 1e-3, 0.25, 1.0, 4.0, 800.0];

/// The staged chain over dense buffers, as the estimator ran it
/// before the stages were fused: the anchor cell `K` draws no noise
/// and enters the fit as `G`, which `anchored_cumulative` imposes.
fn staged(
    hist: &CountOfCounts,
    bound: u64,
    epsilon: f64,
    loss: CumulativeLoss,
    rng: &mut StdRng,
) -> NodeEstimate {
    let mut cum = Vec::new();
    hist.to_cumulative_into(bound, &mut cum);
    let mut noisy = Vec::new();
    let below = &cum[..cum.len() - 1];
    GeometricMechanism::new(epsilon, 1.0).privatize_into(below, &mut noisy, rng);
    noisy.push(i64::try_from(hist.num_groups()).expect("G fits in i64"));
    let fitted = anchored_cumulative(&noisy, hist.num_groups(), loss);
    let mut runs = Vec::new();
    let mut prev = 0;
    for (size, &cell) in fitted.iter().enumerate() {
        let count = cell.checked_sub(prev).expect("the fit is non-decreasing");
        prev = cell;
        if count > 0 {
            runs.push(VarianceRun {
                size: size as u64,
                count,
                variance: 4.0 / (epsilon * epsilon * count as f64),
            });
        }
    }
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

/// Runs the fused kernel (in `ws`), the staged chain and the seed
/// baseline from one seed and checks estimates and RNG positions;
/// then the same for `Hc`-L2 against its staged chain.
fn check_node(
    hist: &CountOfCounts,
    bound: u64,
    epsilon: f64,
    seed: u64,
    ws: &mut EstimatorWorkspace,
) {
    let what = format!(
        "G {} max size {:?} K {bound} eps {epsilon} seed {seed}",
        hist.num_groups(),
        hist.max_size()
    );
    let g = hist.num_groups();
    let mut a = StdRng::seed_from_u64(seed);
    let fused = LevelMethod::Cumulative { bound }.estimate_in(hist, g, epsilon, &mut a, ws);
    let mut b = StdRng::seed_from_u64(seed);
    let chain = staged(hist, bound, epsilon, CumulativeLoss::L1, &mut b);
    // The seed pipeline clamps through f64, exact below 2⁵³.
    let mut c = StdRng::seed_from_u64(seed);
    let seed_path = SeedBaseline { bound }.estimate(hist, g, epsilon, &mut c);
    assert_same_bits(&fused, &chain, &format!("fused vs staged, {what}"));
    assert_same_bits(
        &fused,
        &seed_path,
        &format!("fused vs seed baseline, {what}"),
    );
    let next = a.next_u64();
    assert_eq!(
        next,
        b.next_u64(),
        "RNG words consumed differ from staged, {what}"
    );
    assert_eq!(
        next,
        c.next_u64(),
        "RNG words consumed differ from seed, {what}"
    );

    let mut a = StdRng::seed_from_u64(seed);
    let l2 = LevelMethod::CumulativeL2 { bound }.estimate_in(hist, g, epsilon, &mut a, ws);
    let mut b = StdRng::seed_from_u64(seed);
    let chain = staged(hist, bound, epsilon, CumulativeLoss::L2, &mut b);
    assert_same_bits(&l2, &chain, &format!("L2 vs staged, {what}"));
    assert_eq!(a.next_u64(), b.next_u64(), "L2 RNG words differ, {what}");
}

/// A workspace left dirty by a wide (`BinaryHeap`) L1 node and an L2
/// node, so stale buffers of either form would show.
fn dirty_workspace() -> EstimatorWorkspace {
    let mut ws = EstimatorWorkspace::new();
    let wide = CountOfCounts::from_counts(vec![40_000, 0, 30_000, 5]);
    let mut rng = StdRng::seed_from_u64(1);
    let g = wide.num_groups();
    LevelMethod::Cumulative { bound: 900 }.estimate_in(&wide, g, 0.5, &mut rng, &mut ws);
    let narrow = CountOfCounts::from_group_sizes([3, 3, 9]);
    LevelMethod::CumulativeL2 { bound: 40 }.estimate_in(&narrow, 3, 0.5, &mut rng, &mut ws);
    ws
}

#[test]
fn edge_nodes_match_both_pipelines() {
    let mut ws = dirty_workspace();
    let nodes = [
        // G = 0: nothing to estimate, but every cell below K still
        // draws.
        CountOfCounts::new(),
        CountOfCounts::from_counts(vec![0, 0, 0]),
        // All mass at size 0, and all mass above the bound.
        CountOfCounts::from_counts(vec![7]),
        CountOfCounts::from_counts(vec![0, 0, 0, 0, 0, 12]),
        CountOfCounts::from_group_sizes([0, 1, 1, 2, 9, 40]),
        // G ≥ 2¹⁶: the pass takes the BinaryHeap form.
        CountOfCounts::from_counts(vec![1 << 16, 3, 0, 1]),
    ];
    for hist in &nodes {
        for bound in [1, 2, 3, 64] {
            for (i, &epsilon) in EPSILONS.iter().enumerate() {
                check_node(hist, bound, epsilon, 40 + i as u64, &mut ws);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random nodes through one reused workspace. The bound often
    /// falls below the largest size (truncation onto cell K), and the
    /// count scale spans the counting heap and the BinaryHeap form.
    #[test]
    fn fused_kernel_matches_staged_chain_and_seed_baseline(
        nodes in prop::collection::vec(
            (prop::collection::vec(0u64..4, 0..120), 0usize..3, 1u64..150), 1..4),
        eps_pick in 0usize..EPSILONS.len(),
        seed in any::<u64>(),
    ) {
        let mut ws = dirty_workspace();
        for (i, (counts, scale_pick, bound)) in nodes.into_iter().enumerate() {
            let scale = [1, 9, 2_500][scale_pick];
            let hist = CountOfCounts::from_counts(counts.into_iter().map(|c| c * scale).collect());
            check_node(&hist, bound, EPSILONS[eps_pick], seed.wrapping_add(i as u64), &mut ws);
        }
    }
}
