//! The geometric mechanism and its double-geometric noise
//! distribution.

use std::fmt;

use rand::Rng;

/// Number of points on the uniform grid a draw inverts: the top 53
/// bits of the RNG word, `m = next_u64() >> 11`.
const GRID: u64 = 1 << 53;

/// Most magnitudes the threshold table covers. Larger draws (likely
/// only at tiny `ε/Δ`) take the `ln` fallback.
const TABLE_MAX: usize = 1024;

/// The table stops at the first magnitude `T` whose tail mass
/// `P(|Z| ≥ T)` is at most `2^-TAIL_BITS`; past it the `ln` fallback
/// is too rare to cost anything.
const TAIL_BITS: u32 = 20;

/// The guide table has `2^GUIDE_BITS` entries, indexed by the top
/// bits of `m`.
const GUIDE_BITS: u32 = 10;
const GUIDE_SHIFT: u32 = 53 - GUIDE_BITS;

/// Set on a guide entry whose slice of the grid holds a threshold (or
/// reaches the `ln` tail): a draw there walks on from the entry's
/// magnitude. Clear, the entry is the magnitude for its whole slice.
const WALK: u16 = 1 << 15;

/// The two-sided (double) geometric distribution with parameter
/// `alpha = e^(−ε/Δ)`:
///
/// `P(Z = k) = (1 − α) / (1 + α) · α^|k|` for `k ∈ ℤ`.
///
/// This is Definition 3 of the paper with scale `Δ(q)/ε`.
///
/// # One RNG word per draw (release format 2)
///
/// Each draw takes exactly one `next_u64`. Its top 53 bits give a
/// grid point `m`, its lowest bit the sign `s`, and the magnitude is
///
/// `|Z| = floor(ln W / ln α)` with `W = (1 − m·2⁻⁵³)·(1 + α)/2`,
///
/// so `|Z| ≥ k` exactly when `W ≤ α^k`, which gives
/// `P(|Z| = 0) = (1 − α)/(1 + α)` and
/// `P(|Z| = k) = 2(1 − α)α^k/(1 + α)` for `k ≥ 1`. The sign is applied
/// without a branch, and a zero magnitude ignores it, so each nonzero
/// value gets half of its magnitude's mass: the PMF above.
///
/// `1 − m·2⁻⁵³` is exact and `(1 + α)/2` a per-distribution constant,
/// so the magnitude is a function of the integer `m` alone, and a
/// non-decreasing step function of it: the product and the division
/// by the negative `ln α` round monotonically, and the logarithms of
/// two distinct `W`s lie at least ~0.18 ULP apart (a relative gap of
/// `2⁻⁵³`, or the grid's `1/j` near `W = c·j·2⁻⁵³`), so a `ln`
/// accurate to about half an ULP (glibc's is within 0.52) keeps their
/// order. `tests/noise_properties.rs` checks the table against the
/// formula around every threshold and over long streams. Construction
/// therefore precomputes the integer thresholds
/// `t_k = min { m : |Z|(m) ≥ k }` for `k = 1..=T` (an `expm1` estimate,
/// then a galloping search that evaluates the formula itself), plus a
/// guide table mapping the top bits of `m` to the magnitude at the
/// start of that slice of the grid. Most slices hold no threshold,
/// and there the guide entry is the magnitude; elsewhere a short walk
/// over the thresholds follows, and `m ≥ t_T` falls back to evaluating
/// the formula. Every draw equals the formula's, bit for bit.
///
/// Release format 1 drew two one-sided geometrics per value, two RNG
/// words; the two formats are equal in distribution, not in bytes.
#[derive(Clone)]
pub struct DoubleGeometric {
    alpha: f64,
    /// `ln α`. The formula *divides* by it: a multiply by its
    /// reciprocal rounds differently and would move thresholds.
    ln_alpha: f64,
    /// `(1 + α)/2`, the scale of `W`.
    half_one_plus_alpha: f64,
    /// `thresholds[k] = t_k` (`t_0 = 0`); the last entry is `t_T`, or
    /// `2⁵³` when magnitude `T` is unreachable on the grid.
    thresholds: Box<[u64]>,
    /// `guide[b]`: the largest `k ≤ T` with `t_k ≤ b·2^GUIDE_SHIFT`,
    /// flagged [`WALK`] unless every `m` of slice `b` draws `k < T`.
    guide: Box<[u16; 1 << GUIDE_BITS]>,
}

impl fmt::Debug for DoubleGeometric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DoubleGeometric")
            .field("alpha", &self.alpha)
            .field("table_magnitudes", &(self.thresholds.len() - 1))
            .finish()
    }
}

impl DoubleGeometric {
    /// Creates the distribution for a query with global sensitivity
    /// `sensitivity` released under privacy budget `epsilon`.
    ///
    /// Panics if `epsilon` or `sensitivity` is not strictly positive
    /// and finite — a zero or negative budget provides no privacy
    /// semantics and indicates a configuration bug. Also panics if
    /// `epsilon / sensitivity` is so small that `α = e^(−ε/Δ)` rounds
    /// to exactly 1.0 (below ≈1e-16): at α = 1 the PMF is improper
    /// (every integer equally likely), the formula divides by
    /// `ln 1 = 0`, and the resulting `-inf` or NaN magnitude would
    /// release true counts at the strictest budgets.
    ///
    /// Builds the threshold table: up to 1024 entries, a
    /// few `ln` evaluations each.
    pub fn new(epsilon: f64, sensitivity: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be positive and finite, got {epsilon}"
        );
        assert!(
            sensitivity.is_finite() && sensitivity > 0.0,
            "sensitivity must be positive and finite, got {sensitivity}"
        );
        let alpha = (-epsilon / sensitivity).exp();
        assert!(
            alpha < 1.0,
            "epsilon/sensitivity = {} is too small: alpha rounds to 1 and the \
             double-geometric becomes improper (draws would overflow i64)",
            epsilon / sensitivity
        );
        let ln_alpha = alpha.ln();
        let half_one_plus_alpha = (1.0 + alpha) / 2.0;
        // α = 0 (ε/Δ above ~745): `ln α = −∞`, every magnitude is 0,
        // and the table is [0, 2⁵³].
        let mut thresholds = vec![0u64];
        for k in 1..=TABLE_MAX {
            let t = threshold(alpha, ln_alpha, half_one_plus_alpha, k as i64);
            thresholds.push(t);
            if GRID - t <= GRID >> TAIL_BITS {
                break;
            }
        }
        let last = thresholds.len() - 1;
        let mut k = 0;
        let guide: Box<[u16]> = (0..1u64 << GUIDE_BITS)
            .map(|b| {
                while k < last && thresholds[k + 1] <= b << GUIDE_SHIFT {
                    k += 1;
                }
                let whole = k < last && thresholds[k + 1] >= (b + 1) << GUIDE_SHIFT;
                // k ≤ TABLE_MAX < WALK.
                k as u16 | if whole { 0 } else { WALK }
            })
            .collect();
        let guide = guide.try_into().expect("the guide has one entry per slice");
        Self {
            alpha,
            ln_alpha,
            half_one_plus_alpha,
            thresholds: thresholds.into(),
            guide,
        }
    }

    /// The distribution parameter `α = e^(−ε/Δ)`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The magnitude thresholds: entry `k` is the smallest 53-bit grid
    /// point `m` whose magnitude `|Z|` is at least `k` (entry 0 is 0).
    /// The last entry is `2⁵³` when that magnitude cannot be drawn at
    /// all; draws at or above a reachable last entry are computed by
    /// the `ln` formula.
    pub fn inversion_thresholds(&self) -> &[u64] {
        &self.thresholds
    }

    /// Variance of the distribution: `2α / (1 − α)²`.
    pub fn variance(&self) -> f64 {
        2.0 * self.alpha / ((1.0 - self.alpha) * (1.0 - self.alpha))
    }

    /// Draws one noise value from exactly one `next_u64`.
    #[inline(always)]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        let word = rng.next_u64();
        let m = word >> 11;
        let entry = self.guide[(m >> GUIDE_SHIFT) as usize];
        let magnitude = if entry & WALK == 0 {
            i64::from(entry)
        } else {
            self.walk(usize::from(entry & !WALK), m)
        };
        // Bit 0 lies outside `m`; negate when it is set.
        let s = (word & 1) as i64;
        (magnitude ^ -s) + s
    }

    /// Fills `out` with i.i.d. noise values, in exactly the order
    /// repeated [`DoubleGeometric::sample`] calls would draw them —
    /// slice-filling is a hot-loop convenience, never a different
    /// noise stream, so releases stay bit-identical whichever entry
    /// point the caller uses.
    pub fn fill<R: Rng + ?Sized>(&self, out: &mut [i64], rng: &mut R) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }

    /// The magnitude for `m`, from magnitude `k ≤ |Z|(m)` on.
    #[inline(never)]
    fn walk(&self, mut k: usize, m: u64) -> i64 {
        let t = &*self.thresholds;
        let last = t.len() - 1;
        while k < last && t[k + 1] <= m {
            k += 1;
        }
        if k < last {
            k as i64
        } else {
            magnitude(self.ln_alpha, self.half_one_plus_alpha, m)
        }
    }
}

/// The magnitude `|Z|` for grid point `m` by the defining `ln`
/// formula, used for the table's tail and to build it. Cold: a draw
/// takes it about once in 2²⁰.
#[cold]
fn magnitude(ln_alpha: f64, half_one_plus_alpha: f64, m: u64) -> i64 {
    // 1 − m·2⁻⁵³ ∈ (0, 1], so W > 0 and ln W is finite.
    let w = (1.0 - m as f64 * (1.0 / GRID as f64)) * half_one_plus_alpha;
    let a = (w.ln() / ln_alpha).floor();
    // Clamp the extreme tail to i64::MAX instead of casting raw, so a
    // signed draw stays in [−i64::MAX, i64::MAX].
    if a.is_finite() && a < i64::MAX as f64 {
        debug_assert!(a >= 0.0, "a magnitude must be non-negative");
        a.max(0.0) as i64
    } else {
        i64::MAX
    }
}

/// `t_k`: the smallest grid point whose magnitude is at least `k ≥ 1`,
/// or `2⁵³` when no grid point reaches `k`. Starts from the
/// real-valued boundary `2⁵³·(1 − 2α^k/(1 + α))` and gallops outward
/// until the search brackets the threshold, so a good estimate costs a
/// handful of `ln` evaluations and a bad one still converges.
fn threshold(alpha: f64, ln_alpha: f64, half_one_plus_alpha: f64, k: i64) -> u64 {
    // `m = 2⁵³` stands for "unreachable"; `m = 0` never reaches k ≥ 1.
    let reaches = |m: u64| m >= GRID || magnitude(ln_alpha, half_one_plus_alpha, m) >= k;
    // 1 − 2α^k/(1 + α) = ((1 − α^k) + α(1 − α^(k−1))) / (1 + α), with
    // each 1 − α^j as −expm1(j·ln α) to keep its digits near α = 1.
    let one_minus_pow = |j: i64| {
        if j == 0 {
            0.0
        } else {
            -(j as f64 * ln_alpha).exp_m1()
        }
    };
    let est = (one_minus_pow(k) + alpha * one_minus_pow(k - 1)) / (1.0 + alpha);
    let est = (est * GRID as f64).ceil();
    let est = if est >= GRID as f64 {
        GRID
    } else if est >= 1.0 {
        est as u64
    } else {
        1
    };
    // Invariant once bracketed: !reaches(lo) && reaches(hi).
    let (mut lo, mut hi);
    let mut step = 1;
    if reaches(est) {
        hi = est;
        loop {
            lo = hi.saturating_sub(step);
            if !reaches(lo) {
                break;
            }
            hi = lo;
            step *= 2;
        }
    } else {
        lo = est;
        loop {
            hi = (lo + step).min(GRID);
            if reaches(hi) {
                break;
            }
            lo = hi;
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The geometric mechanism: privatizes an integer-valued query by
/// adding i.i.d. [`DoubleGeometric`] noise to every coordinate.
#[derive(Clone, Debug)]
pub struct GeometricMechanism {
    dist: DoubleGeometric,
    epsilon: f64,
    sensitivity: f64,
}

impl GeometricMechanism {
    /// Mechanism for a vector query with L1 global sensitivity
    /// `sensitivity`, satisfying `epsilon`-differential privacy
    /// (Lemma 2).
    pub fn new(epsilon: f64, sensitivity: f64) -> Self {
        Self {
            dist: DoubleGeometric::new(epsilon, sensitivity),
            epsilon,
            sensitivity,
        }
    }

    /// The privacy budget consumed by one invocation.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The calibrated sensitivity.
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The per-coordinate noise distribution.
    pub fn distribution(&self) -> &DoubleGeometric {
        &self.dist
    }

    /// Per-coordinate noise variance (used by the paper's Section 5.1
    /// variance estimates, approximated there as `2/ε₁²` per unit
    /// sensitivity).
    pub fn variance(&self) -> f64 {
        self.dist.variance()
    }

    /// Adds noise to one true count.
    pub fn privatize<R: Rng + ?Sized>(&self, value: u64, rng: &mut R) -> i64 {
        let v = i64::try_from(value).expect("count exceeds i64::MAX");
        v.saturating_add(self.dist.sample(rng))
    }

    /// Adds i.i.d. noise to every coordinate of a counts vector.
    pub fn privatize_vec<R: Rng + ?Sized>(&self, values: &[u64], rng: &mut R) -> Vec<i64> {
        values.iter().map(|&v| self.privatize(v, rng)).collect()
    }

    /// Adds noise to every value, lazily: the same draws, in the same
    /// order and with the same saturating add, as
    /// [`GeometricMechanism::privatize`] per value. A streaming kernel
    /// consumes each noisy cell as it is drawn instead of buffering
    /// the vector.
    pub fn privatize_iter<'a, I, R>(
        &'a self,
        values: I,
        rng: &'a mut R,
    ) -> impl Iterator<Item = i64> + 'a
    where
        I: IntoIterator<Item = i64>,
        I::IntoIter: 'a,
        R: Rng + ?Sized,
    {
        values
            .into_iter()
            .map(move |v| v.saturating_add(self.dist.sample(rng)))
    }

    /// [`GeometricMechanism::privatize_vec`] into a caller-owned
    /// buffer (cleared first): same draws in the same order, but the
    /// hot loop reuses one allocation across nodes instead of
    /// allocating a `bound`-length vector per hierarchy node.
    pub fn privatize_into<R: Rng + ?Sized>(&self, values: &[u64], out: &mut Vec<i64>, rng: &mut R) {
        out.clear();
        out.extend(values.iter().map(|&v| self.privatize(v, rng)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn zero_epsilon_rejected() {
        let _ = DoubleGeometric::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "sensitivity must be positive")]
    fn zero_sensitivity_rejected() {
        let _ = DoubleGeometric::new(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha rounds to 1")]
    fn epsilon_below_f64_resolution_is_rejected() {
        // Regression: ε/Δ below ~1e-16 makes α = e^(−ε/Δ) round to
        // exactly 1.0. The `ln` formula then divides by ln 1 = 0; an
        // earlier sampler's raw cast turned the resulting -inf into
        // i64::MIN, its two one-sided draws cancelled to zero net
        // noise, and the mechanism silently released true counts at
        // the strictest budgets. Such budgets must be rejected at
        // construction.
        let _ = DoubleGeometric::new(1e-300, 1.0);
    }

    #[test]
    fn tiny_epsilon_tail_is_clamped_not_overflowed() {
        // The smallest admissible budgets produce astronomically
        // heavy tails (mean magnitude ≈ Δ/ε). Every draw must
        // stay inside [−i64::MAX, i64::MAX] so downstream integer
        // arithmetic cannot overflow, while still being huge.
        let d = DoubleGeometric::new(1e-12, 1.0);
        assert!(d.alpha() < 1.0);
        let m = GeometricMechanism::new(1e-12, 1.0);
        let mut rng = StdRng::seed_from_u64(99);
        let mut saw_large = false;
        for _ in 0..1000 {
            let s = d.sample(&mut rng);
            assert!(s >= -i64::MAX, "draw {s} escaped the clamp");
            saw_large |= s.unsigned_abs() > 1_000_000_000;
            // privatize() must saturate rather than wrap on top of
            // such draws.
            let _ = m.privatize(u64::try_from(i64::MAX).unwrap(), &mut rng);
        }
        assert!(saw_large, "tiny-epsilon tails should be enormous");
    }

    /// An RNG that counts the words it hands out.
    struct Counting(StdRng, u64);

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn every_draw_takes_exactly_one_rng_word() {
        // Tail-heavy (most draws take the `ln` fallback), table-only,
        // and α = 0, where every draw is 0 yet still takes its word.
        for eps in [1e-12, 1.0 / 3.0, 800.0] {
            let d = DoubleGeometric::new(eps, 1.0);
            let mut rng = Counting(StdRng::seed_from_u64(31), 0);
            let zeros = (0..10_000).filter(|_| d.sample(&mut rng) == 0).count();
            assert_eq!(rng.1, 10_000, "eps {eps}");
            if eps == 800.0 {
                assert_eq!(zeros, 10_000, "α = 0 adds no noise");
            }
        }
    }

    #[test]
    fn alpha_matches_definition() {
        let d = DoubleGeometric::new(1.0, 2.0);
        assert!((d.alpha() - (-0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn empirical_mean_is_near_zero() {
        let d = DoubleGeometric::new(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let sum: i64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        // std of the mean ≈ sqrt(var/n) ≈ 0.0035 for ε=1.
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
    }

    #[test]
    fn empirical_variance_matches_formula() {
        for &(eps, sens) in &[(1.0, 1.0), (0.5, 1.0), (1.0, 2.0), (2.0, 1.0)] {
            let d = DoubleGeometric::new(eps, sens);
            let mut rng = StdRng::seed_from_u64(7);
            let n = 200_000;
            let mut sum = 0f64;
            let mut sumsq = 0f64;
            for _ in 0..n {
                let x = d.sample(&mut rng) as f64;
                sum += x;
                sumsq += x * x;
            }
            let mean = sum / n as f64;
            let var = sumsq / n as f64 - mean * mean;
            let expected = d.variance();
            assert!(
                (var - expected).abs() / expected < 0.05,
                "eps={eps} sens={sens}: var {var} vs expected {expected}"
            );
        }
    }

    #[test]
    fn pmf_ratio_respects_epsilon() {
        // Empirical check of the DP-defining likelihood ratio: the
        // frequency of k and k+1 should differ by at most e^(ε/Δ)
        // (up to sampling error), since P(k)/P(k+1) = e^(ε/Δ) for k ≥ 0.
        let d = DoubleGeometric::new(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(13);
        let n = 400_000;
        let mut freq = std::collections::HashMap::new();
        for _ in 0..n {
            *freq.entry(d.sample(&mut rng)).or_insert(0u64) += 1;
        }
        let f0 = freq[&0] as f64;
        let f1 = freq[&1] as f64;
        let ratio = f0 / f1;
        let e = 1f64.exp();
        assert!(
            (ratio - e).abs() < 0.25,
            "P(0)/P(1) = {ratio}, expected ≈ {e}"
        );
    }

    #[test]
    fn privatize_vec_adds_integer_noise() {
        let m = GeometricMechanism::new(0.5, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        let out = m.privatize_vec(&[10, 0, 1_000_000], &mut rng);
        assert_eq!(out.len(), 3);
        // Noise is unbounded but astronomically unlikely to exceed 1e6
        // at this scale.
        assert!((out[0] - 10).abs() < 1000);
        assert!(out[2] > 900_000);
    }

    #[test]
    fn fill_matches_repeated_sample_bit_for_bit() {
        let d = DoubleGeometric::new(0.7, 1.0);
        let mut a = StdRng::seed_from_u64(21);
        let mut b = StdRng::seed_from_u64(21);
        let mut filled = vec![0i64; 4096];
        d.fill(&mut filled, &mut a);
        let singles: Vec<i64> = (0..4096).map(|_| d.sample(&mut b)).collect();
        assert_eq!(filled, singles, "fill must preserve the draw order");
    }

    #[test]
    fn privatize_into_matches_privatize_vec_and_reuses_buffer() {
        let m = GeometricMechanism::new(0.5, 1.0);
        let values: Vec<u64> = (0..1000).map(|i| i * 3).collect();
        let mut a = StdRng::seed_from_u64(22);
        let mut b = StdRng::seed_from_u64(22);
        let reference = m.privatize_vec(&values, &mut a);
        let mut out = vec![7i64; 5]; // stale shorter buffer must be replaced
        m.privatize_into(&values, &mut out, &mut b);
        assert_eq!(out, reference);
        // A second use with fewer values shrinks, not appends.
        m.privatize_into(&values[..10], &mut out, &mut b);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn privatize_iter_matches_privatize_draw_for_draw() {
        // A heavy tail (`ln` fallback, saturating adds) and α = 0
        // (zero noise) included: the stream must leave the RNG
        // exactly where per-value `privatize` calls leave it.
        let values: Vec<u64> = vec![0, 5, 1 << 40, i64::MAX as u64, 7];
        let cells = || values.iter().map(|&v| v as i64);
        for eps in [0.5, 1e-12, 800.0] {
            let m = GeometricMechanism::new(eps, 1.0);
            let mut a = StdRng::seed_from_u64(23);
            let reference: Vec<i64> = values.iter().map(|&v| m.privatize(v, &mut a)).collect();
            let mut b = StdRng::seed_from_u64(23);
            let pulled: Vec<i64> = m.privatize_iter(cells(), &mut b).collect();
            assert_eq!(pulled, reference, "eps {eps}");
            assert_eq!(
                b.next_u64(),
                a.next_u64(),
                "eps {eps}: RNG streams diverged"
            );
        }
    }

    #[test]
    fn mechanism_accessors() {
        let m = GeometricMechanism::new(0.25, 2.0);
        assert_eq!(m.epsilon(), 0.25);
        assert_eq!(m.sensitivity(), 2.0);
        assert!(m.variance() > 0.0);
        // Laplace approximation used by the paper: 2/(ε/Δ)² = 128; the
        // exact double-geometric variance is slightly smaller.
        let laplace_approx = 2.0 / (0.25f64 / 2.0).powi(2);
        assert!(m.variance() < laplace_approx);
        assert!(m.variance() > 0.5 * laplace_approx);
    }
}
