//! Cross-crate statistical properties of the noise machinery that the
//! privacy guarantees lean on.

use hcc_bench::hotpath::seed_sample;
use hccount::noise::{DoubleGeometric, GeometricMechanism, LaplaceMechanism};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The DP-defining property of the double-geometric, checked across
/// several adjacent output pairs: `P(X = k)/P(X = k+1) = e^(ε/Δ)` for
/// `k ≥ 0`, so no output shift is more informative than ε allows.
#[test]
fn geometric_likelihood_ratios_bounded_by_epsilon() {
    let eps = 0.8;
    let d = DoubleGeometric::new(eps, 1.0);
    let mut rng = StdRng::seed_from_u64(301);
    let n = 600_000;
    let mut freq = std::collections::HashMap::new();
    for _ in 0..n {
        *freq.entry(d.sample(&mut rng)).or_insert(0u64) += 1;
    }
    let bound = eps.exp();
    for k in 0..4i64 {
        let a = freq.get(&k).copied().unwrap_or(0) as f64;
        let b = freq.get(&(k + 1)).copied().unwrap_or(0) as f64;
        if b < 1000.0 {
            continue; // not enough mass for a stable ratio
        }
        let ratio = a / b;
        assert!(
            (ratio - bound).abs() < 0.25 * bound,
            "P({k})/P({}) = {ratio}, expected ≈ {bound}",
            k + 1
        );
    }
}

/// Geometric noise variance beats the Laplace mechanism it replaces —
/// one of the paper's two reasons for choosing it.
#[test]
fn geometric_variance_below_laplace() {
    for &eps in &[0.1, 0.5, 1.0, 2.0] {
        let g = GeometricMechanism::new(eps, 1.0);
        let l = LaplaceMechanism::new(eps, 1.0);
        assert!(
            g.variance() < l.variance(),
            "ε = {eps}: geometric {} ≥ laplace {}",
            g.variance(),
            l.variance()
        );
    }
}

/// Mechanism noise is integer-valued end to end — the integrality
/// desideratum starts at the noise layer.
#[test]
fn outputs_are_integers_by_construction() {
    let mut rng = StdRng::seed_from_u64(303);
    let g = GeometricMechanism::new(0.5, 2.0);
    for v in [0u64, 1, 1_000_000] {
        // i64 return types make this a compile-time fact; spot-check
        // values round-trip.
        let _a: i64 = g.privatize(v, &mut rng);
    }
}

/// Two-sided draws follow the double-geometric pmf
/// `P(0) = (1−α)/(1+α)`, `P(±k) = (1−α)α^k/(1+α)`: a fixed-seed
/// chi-square over 10⁶ draws, binned by sign and magnitude. Each
/// magnitude gets its own bin while it and the tail beyond it both
/// expect at least 5 draws; the rest pool into one tail bin per sign.
/// The table-mass test below pins each magnitude; this one checks the
/// draws, sign included.
#[test]
fn two_sided_draws_pass_a_chi_square_against_the_pmf() {
    const N: u64 = 1_000_000;
    for eps in [1.0 / 3.0, 1.0] {
        let d = DoubleGeometric::new(eps, 1.0);
        let alpha = d.alpha();
        let n = N as f64;
        let pmf = |k: u64| (1.0 - alpha) * alpha.powi(k as i32) / (1.0 + alpha);
        // P(z ≥ k) on one side.
        let tail = |k: u64| alpha.powi(k as i32) / (1.0 + alpha);
        let mut last = 0u64;
        while n * pmf(last + 1) >= 5.0 && n * tail(last + 2) >= 5.0 {
            last += 1;
        }
        // Bin 0 holds z = 0; bins 2k−1 and 2k hold z = +k and z = −k,
        // with k = last + 1 standing for the pooled tail.
        let bin = |z: i64| match z.unsigned_abs().min(last + 1) {
            0 => 0,
            k if z > 0 => 2 * k as usize - 1,
            k => 2 * k as usize,
        };
        let mut expected = vec![n * pmf(0)];
        for k in 1..=last + 1 {
            let p = if k > last { tail(k) } else { pmf(k) };
            expected.extend([n * p, n * p]);
        }
        let mut observed = vec![0u64; expected.len()];
        let mut rng = StdRng::seed_from_u64(305);
        for _ in 0..N {
            observed[bin(d.sample(&mut rng))] += 1;
        }
        let stat: f64 = observed
            .iter()
            .zip(&expected)
            .map(|(&o, &e)| (o as f64 - e).powi(2) / e)
            .sum();
        // The 0.999 quantile of χ²(df) by the Wilson–Hilferty
        // approximation, within 0.5% of the exact value for df ≥ 20.
        let df = (expected.len() - 1) as f64;
        let h = 2.0 / (9.0 * df);
        let q999 = df * (1.0 - h + 3.090_232 * h.sqrt()).powi(3);
        assert!(
            df >= 20.0 && stat < q999,
            "ε {eps}: χ² = {stat:.1} over {df} df, 0.999 quantile {q999:.1}"
        );
    }
}

// ---------------------------------------------------------------------------
// Exactness of the threshold-table sampler against the `ln` formula.
// ---------------------------------------------------------------------------

/// The grid of magnitudes: `m = next_u64() >> 11`.
const GRID: u64 = 1 << 53;

/// ε/Δ values covering every table shape: capped at its longest
/// (1e-12, where most draws take the `ln` fallback), long (0.05), the
/// benchmark release's per-level ε (1/3), short (1, 10), ending at a
/// magnitude no grid point reaches (40), and α = 0 (800), where every
/// magnitude is 0.
const EXACTNESS_EPS: [f64; 7] = [1e-12, 0.05, 1.0 / 3.0, 1.0, 10.0, 40.0, 800.0];

/// An RNG that replays one given word, then panics.
struct Replay(u64, bool);

impl RngCore for Replay {
    fn next_u64(&mut self) -> u64 {
        assert!(!self.1, "a draw takes one word");
        self.1 = true;
        self.0
    }
}

/// The defining formula's magnitude at grid point `m` (sign bit
/// clear): `floor(ln W / ln α)` with `W = (1 − m·2⁻⁵³)·(1 + α)/2`.
fn ln_draw(alpha: f64, m: u64) -> i64 {
    seed_sample(alpha, &mut Replay(m << 11, false))
}

/// The table sampler's magnitude at grid point `m` (sign bit clear).
fn table_draw(d: &DoubleGeometric, m: u64) -> i64 {
    d.sample(&mut Replay(m << 11, false))
}

/// Every threshold is what a 53-step binary search over the `ln`
/// formula finds: the smallest grid point whose magnitude reaches `k`,
/// or 2⁵³ when none does.
#[test]
fn sampler_thresholds_equal_binary_search_over_ln_inversion() {
    for eps in EXACTNESS_EPS {
        let d = DoubleGeometric::new(eps, 1.0);
        let t = d.inversion_thresholds();
        assert_eq!(t[0], 0);
        assert!(t.len() > 1, "ε {eps}: empty table");
        for (k, &tk) in t.iter().enumerate().skip(1) {
            let (mut lo, mut hi) = (0u64, GRID);
            for _ in 0..53 {
                let mid = lo + (hi - lo) / 2;
                if ln_draw(d.alpha(), mid) >= k as i64 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            assert_eq!(hi - lo, 1);
            assert_eq!(tk, hi, "ε {eps}: threshold {k}");
        }
        if d.alpha() == 0.0 {
            assert_eq!(t, [0, GRID], "α = 0: magnitude 1 is unreachable");
        }
    }
}

/// Around every threshold, where a table off by one would show, the
/// table draw equals the `ln` formula grid point by grid point, and
/// the sign bit negates it.
#[test]
fn sampler_agrees_with_ln_inversion_near_every_threshold() {
    for eps in EXACTNESS_EPS {
        let d = DoubleGeometric::new(eps, 1.0);
        for &tk in d.inversion_thresholds() {
            for m in tk.saturating_sub(2000)..(tk + 2000).min(GRID) {
                let want = ln_draw(d.alpha(), m);
                assert_eq!(table_draw(&d, m), want, "ε {eps}: grid point {m}");
                assert_eq!(
                    d.sample(&mut Replay(m << 11 | 1, false)),
                    -want,
                    "ε {eps}: grid point {m}, sign bit set"
                );
            }
        }
    }
}

/// Whole noise streams are the `ln` formula's, draw for draw, and
/// consume the same RNG words: one per draw.
#[test]
fn sampler_stream_equals_seed_sampler() {
    for eps in EXACTNESS_EPS {
        let d = DoubleGeometric::new(eps, 1.0);
        let alpha = d.alpha();
        // 10⁷ draws at the benchmark's ε, 10⁶ at the others.
        let n = if eps == 1.0 / 3.0 {
            10_000_000
        } else {
            1_000_000
        };
        let mut a = StdRng::seed_from_u64(304);
        let mut b = StdRng::seed_from_u64(304);
        for i in 0..n {
            let want = seed_sample(alpha, &mut b);
            assert_eq!(d.sample(&mut a), want, "ε {eps}: draw {i}");
        }
        assert_eq!(a.next_u64(), b.next_u64(), "ε {eps}: RNG streams diverged");
    }
}

/// The exact pmf: the table gives magnitude `k` to `t_{k+1} − t_k` of
/// the 2⁵³ grid points, which must be `(1 − α)/(1 + α)` of them for
/// `k = 0` and `2(1 − α)α^k/(1 + α)` for `k ≥ 1`, up to the grid point
/// or two that rounding moves a boundary by.
#[test]
fn sampler_table_mass_is_the_geometric_pmf() {
    for eps in EXACTNESS_EPS {
        let d = DoubleGeometric::new(eps, 1.0);
        let alpha = d.alpha();
        let t = d.inversion_thresholds();
        for (k, w) in t.windows(2).enumerate() {
            let mass = (w[1] - w[0]) as f64;
            let sides = if k == 0 { 1.0 } else { 2.0 };
            let want = sides * (1.0 - alpha) * alpha.powi(k as i32) / (1.0 + alpha) * GRID as f64;
            assert!(
                (mass - want).abs() <= 2.0,
                "ε {eps}: magnitude {k} has {mass} grid points, pmf says {want}"
            );
        }
    }
}
