//! Accuracy gate: the orderings of the paper's §6 evaluation, asserted
//! on the experiment harness at small scale with fixed seeds.
//!
//! Every point is a mean over [`RUNS`] releases with its standard
//! error (sample σ / √RUNS, from `mean_std`). An ordering allows for
//! that noise and nothing else: "A is no worse than B" holds when A
//! exceeds B by at most [`Z`] standard errors of the difference, and
//! "A beats B" when A falls below B by more than that. The margins
//! therefore shrink as the run count grows; none is fitted to the
//! data.
//!
//! What is gated, and what is not:
//! - naive error is at least an order of magnitude (10×) above both
//!   `Hc` and `Hg` on every dataset (§6.2.1);
//! - top-down consistency is no worse than bottom-up aggregation at
//!   the root of every census dataset, and beats it summed over those
//!   roots (§6.2.2). The census hierarchies have 320 counties, so the
//!   leaves' biases that bottom-up sums are there; the taxi hierarchy
//!   has 28 leaves, and at this scale bottom-up wins there and at
//!   level 1, so neither is asserted;
//! - weighted merging is no worse than plain averaging at the top
//!   level for every budget and plotted combination (Figure 4 omits
//!   `Hg×Hg`), and beats it summed over them;
//! - the better of top-down `Hc` and `Hg` stays within [`OMNISCIENT_FACTOR`]
//!   of the omniscient yardstick at every level and budget of Figures
//!   5 and 6;
//! - `Hc` with L1 post-processing is no worse than with L2 (§4.3).

use hcc_bench::experiments::{ablation, bottomup_table, figure4, figure5, naive_table};
use hcc_bench::harness::MeanSe;
use hcc_bench::ExpConfig;

/// Releases averaged per point.
const RUNS: usize = 6;

/// Standard errors of a difference that an ordering tolerates (or,
/// for "beats", must clear).
const Z: f64 = 3.0;

/// "Within a small factor of omniscient", taken as 3.
const OMNISCIENT_FACTOR: f64 = 3.0;

/// At scale 0.02 the census datasets' largest groups stay below the
/// bound 10 000, so it truncates nothing there. Taxi's largest
/// medallions exceed it (about 20 000 trips at seed 7) and fold onto
/// cell `K` for `Hc` and naive, as under any bound a release names.
fn cfg() -> ExpConfig {
    ExpConfig {
        runs: RUNS,
        scale: 0.02,
        seed: 7,
        bound: 10_000,
        out_dir: std::env::temp_dir().join("hcc_accuracy"),
        epsilons: vec![0.1, 1.0],
    }
}

/// `Z` standard errors of `a − b`.
fn margin(a: MeanSe, b: MeanSe) -> f64 {
    Z * a.1.hypot(b.1)
}

fn no_worse(a: MeanSe, b: MeanSe) -> bool {
    a.0 <= b.0 + margin(a, b)
}

fn beats(a: MeanSe, b: MeanSe) -> bool {
    a.0 + margin(a, b) < b.0
}

/// `k · a`, standard error included.
fn times(k: f64, a: MeanSe) -> MeanSe {
    (k * a.0, k * a.1)
}

/// The sum of independent means, standard errors in quadrature.
fn total(xs: impl IntoIterator<Item = MeanSe>) -> MeanSe {
    xs.into_iter()
        .fold((0.0, 0.0), |(m, s), (xm, xs)| (m + xm, s.hypot(xs)))
}

#[test]
fn naive_is_an_order_of_magnitude_above_hc_and_hg() {
    for r in naive_table::measure(&cfg()) {
        for (name, e) in [("Hc", r.hc), ("Hg", r.hg)] {
            assert!(
                beats(times(10.0, e), r.naive),
                "{}: naive {:?} is not 10× above {name} {e:?}",
                r.dataset,
                r.naive
            );
        }
    }
}

#[test]
fn top_down_beats_bottom_up_at_the_census_roots() {
    let roots: Vec<_> = bottomup_table::measure(&cfg())
        .into_iter()
        .filter(|r| r.level == 0 && r.dataset != "taxi")
        .collect();
    assert_eq!(roots.len(), 3, "housing, race-white and race-hawaiian");
    for r in &roots {
        assert!(
            no_worse(r.top_down, r.bottom_up),
            "{} root: top-down {:?} vs bottom-up {:?}",
            r.dataset,
            r.top_down,
            r.bottom_up
        );
    }
    let (td, bu) = (
        total(roots.iter().map(|r| r.top_down)),
        total(roots.iter().map(|r| r.bottom_up)),
    );
    assert!(beats(td, bu), "summed roots: top-down {td:?} vs {bu:?}");
}

#[test]
fn weighted_merging_beats_plain_averaging_at_the_top_level() {
    let top: Vec<_> = figure4::measure(&cfg())
        .into_iter()
        .filter(|r| r.level == 0 && r.combo != "HgxHg")
        .collect();
    assert_eq!(top.len(), 3 * 3 * 2, "datasets × combinations × budgets");
    for r in &top {
        assert!(
            no_worse(r.weighted, r.plain),
            "{} {} ε {}: weighted {:?} vs plain {:?}",
            r.dataset,
            r.combo,
            r.eps,
            r.weighted,
            r.plain
        );
    }
    let (w, p) = (
        total(top.iter().map(|r| r.weighted)),
        total(top.iter().map(|r| r.plain)),
    );
    assert!(beats(w, p), "summed: weighted {w:?} vs plain {p:?}");
}

#[test]
fn top_down_stays_within_a_small_factor_of_omniscient() {
    let cfg = cfg();
    let two = figure5::measure(&cfg, &figure5::datasets(&cfg));
    let three = figure5::measure(&cfg, &bottomup_table::three_level_datasets(&cfg));
    for r in two.iter().chain(&three) {
        let yardstick = (OMNISCIENT_FACTOR * r.omniscient, 0.0);
        assert!(
            no_worse(r.hc, yardstick) || no_worse(r.hg, yardstick),
            "{} level {} ε {}: Hc {:?} and Hg {:?} both above {OMNISCIENT_FACTOR}× \
             omniscient {}",
            r.dataset,
            r.level,
            r.eps,
            r.hc,
            r.hg,
            r.omniscient
        );
    }
}

#[test]
fn l1_post_processing_is_no_worse_than_l2() {
    for r in ablation::measure(&cfg()) {
        assert!(
            no_worse(r.l1, r.l2),
            "{} ε {}: L1 {:?} vs L2 {:?}",
            r.dataset,
            r.eps,
            r.l1,
            r.l2
        );
    }
}
