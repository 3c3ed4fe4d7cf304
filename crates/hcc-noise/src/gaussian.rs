//! Extension: the discrete Gaussian mechanism and zCDP accounting.
//!
//! After this paper, the U.S. Census Bureau's production disclosure
//! avoidance system (the 2020 TopDown Algorithm) moved from pure-ε
//! geometric noise to **discrete Gaussian** noise accounted in
//! zero-concentrated differential privacy (zCDP) — a natural
//! future-work direction for hierarchical count-of-counts releases,
//! since zCDP composes more gracefully over many levels.
//!
//! The sampler is the exact rejection scheme of Canonne, Kamath &
//! Steinke ("The Discrete Gaussian for Differential Privacy", 2020):
//! propose from a discrete Laplace of scale `t ≈ σ`, accept with
//! probability `exp(−(|y| − σ²/t)² / (2σ²))`. Outputs are integers;
//! no continuous Gaussian is ever materialised.

use rand::Rng;

use crate::geometric::DoubleGeometric;

/// The discrete Gaussian distribution `N_ℤ(0, σ²)`:
/// `P(X = k) ∝ exp(−k²/(2σ²))` over the integers.
#[derive(Clone, Debug)]
pub struct DiscreteGaussian {
    sigma: f64,
    proposal: DoubleGeometric,
    t: f64,
}

impl DiscreteGaussian {
    /// Creates the distribution with standard-deviation parameter
    /// `sigma` (the true variance is marginally below `σ²` for small
    /// `σ`; they agree rapidly as `σ` grows).
    pub fn new(sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be positive and finite, got {sigma}"
        );
        let t = sigma.floor() + 1.0;
        // Discrete Laplace with scale t: P(y) ∝ e^(−|y|/t); reuse the
        // double-geometric sampler with ε/Δ = 1/t.
        let proposal = DoubleGeometric::new(1.0, t);
        Self { sigma, proposal, t }
    }

    /// The configured `σ`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one sample by rejection from the discrete Laplace
    /// proposal. Expected number of iterations is < 2 for all `σ`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        let s2 = self.sigma * self.sigma;
        loop {
            let y = self.proposal.sample(rng);
            let d = (y.abs() as f64) - s2 / self.t;
            let accept_p = (-(d * d) / (2.0 * s2)).exp();
            if rng.gen::<f64>() < accept_p {
                return y;
            }
        }
    }
}

/// The discrete Gaussian mechanism: adds `N_ℤ(0, σ²)` noise to every
/// coordinate of an integer query with L2 sensitivity `Δ₂`, satisfying
/// `Δ₂²/(2σ²)`-zCDP.
#[derive(Clone, Debug)]
pub struct GaussianMechanism {
    dist: DiscreteGaussian,
    l2_sensitivity: f64,
}

impl GaussianMechanism {
    /// Mechanism achieving `rho`-zCDP for a query with L2 sensitivity
    /// `l2_sensitivity`: `σ = Δ₂ / √(2ρ)`.
    pub fn with_rho(rho: f64, l2_sensitivity: f64) -> Self {
        assert!(rho.is_finite() && rho > 0.0, "rho must be positive");
        assert!(
            l2_sensitivity.is_finite() && l2_sensitivity > 0.0,
            "sensitivity must be positive"
        );
        Self {
            dist: DiscreteGaussian::new(l2_sensitivity / (2.0 * rho).sqrt()),
            l2_sensitivity,
        }
    }

    /// The zCDP parameter `ρ = Δ₂²/(2σ²)` of one invocation.
    pub fn rho(&self) -> f64 {
        let s = self.dist.sigma();
        self.l2_sensitivity * self.l2_sensitivity / (2.0 * s * s)
    }

    /// The per-coordinate noise distribution.
    pub fn distribution(&self) -> &DiscreteGaussian {
        &self.dist
    }

    /// Adds noise to one true count.
    pub fn privatize<R: Rng + ?Sized>(&self, value: u64, rng: &mut R) -> i64 {
        let v = i64::try_from(value).expect("count exceeds i64::MAX");
        v.saturating_add(self.dist.sample(rng))
    }

    /// Adds i.i.d. noise to a counts vector.
    pub fn privatize_vec<R: Rng + ?Sized>(&self, values: &[u64], rng: &mut R) -> Vec<i64> {
        values.iter().map(|&v| self.privatize(v, rng)).collect()
    }
}

/// zCDP budget accounting: `ρ` adds linearly under composition, and a
/// total of `ρ` implies `(ε, δ)`-DP with
/// `ε = ρ + 2·√(ρ·ln(1/δ))` for every `δ > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZCdpBudget {
    total: f64,
    spent: f64,
}

impl ZCdpBudget {
    /// A fresh budget of `rho`.
    pub fn new(rho: f64) -> Self {
        assert!(rho.is_finite() && rho > 0.0, "total rho must be positive");
        Self {
            total: rho,
            spent: 0.0,
        }
    }

    /// The configured total ρ.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// ρ consumed so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// ρ still available.
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// Even per-level split, mirroring Algorithm 1's `ε/(L+1)`. Under
    /// zCDP the per-level cost also simply adds.
    pub fn per_level(&self, parts: usize) -> f64 {
        assert!(parts > 0, "cannot split a budget into zero parts");
        self.total / parts as f64
    }

    /// Records consumption of `rho` under composition, failing when
    /// the budget would be exceeded (with the same 1e-9 relative
    /// tolerance as the pure-ε accountant).
    pub fn spend(&mut self, rho: f64) -> Result<(), crate::budget::BudgetError> {
        if !(rho.is_finite() && rho > 0.0) {
            return Err(crate::budget::BudgetError::NonPositive { amount: rho });
        }
        let tol = self.total * 1e-9;
        if self.spent + rho > self.total + tol {
            return Err(crate::budget::BudgetError::Exhausted {
                requested: rho,
                remaining: self.remaining(),
            });
        }
        self.spent += rho;
        Ok(())
    }

    /// The `(ε, δ)`-DP guarantee implied by the *total* budget:
    /// `ε(δ) = ρ + 2√(ρ ln(1/δ))`.
    pub fn epsilon(&self, delta: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&delta) && delta > 0.0,
            "delta must be in (0, 1)"
        );
        self.total + 2.0 * (self.total * (1.0 / delta).ln()).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn zero_sigma_rejected() {
        let _ = DiscreteGaussian::new(0.0);
    }

    #[test]
    fn empirical_moments_match_sigma() {
        for &sigma in &[1.0f64, 3.0, 10.0] {
            let d = DiscreteGaussian::new(sigma);
            let mut rng = StdRng::seed_from_u64(71);
            let n = 100_000;
            let mut sum = 0f64;
            let mut sumsq = 0f64;
            for _ in 0..n {
                let x = d.sample(&mut rng) as f64;
                sum += x;
                sumsq += x * x;
            }
            let mean = sum / n as f64;
            let var = sumsq / n as f64 - mean * mean;
            assert!(mean.abs() < 0.05 * sigma + 0.02, "σ={sigma}: mean {mean}");
            assert!(
                (var - sigma * sigma).abs() < 0.05 * sigma * sigma + 0.05,
                "σ={sigma}: var {var} vs {}",
                sigma * sigma
            );
        }
    }

    #[test]
    fn distribution_is_symmetric() {
        let d = DiscreteGaussian::new(2.0);
        let mut rng = StdRng::seed_from_u64(72);
        let n = 200_000;
        let mut pos = 0i64;
        let mut neg = 0i64;
        for _ in 0..n {
            match d.sample(&mut rng).signum() {
                1 => pos += 1,
                -1 => neg += 1,
                _ => {}
            }
        }
        let imbalance = (pos - neg).abs() as f64 / n as f64;
        assert!(imbalance < 0.01, "P(+) − P(−) = {imbalance}");
    }

    #[test]
    fn mechanism_rho_round_trips() {
        let m = GaussianMechanism::with_rho(0.125, 2.0);
        assert!((m.rho() - 0.125).abs() < 1e-12);
        // σ = Δ/√(2ρ) = 2/0.5 = 4.
        assert!((m.distribution().sigma() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn privatize_vec_centers_on_values() {
        let m = GaussianMechanism::with_rho(0.5, 1.0);
        let mut rng = StdRng::seed_from_u64(73);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| m.privatize(50, &mut rng) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 50.0).abs() < 0.1, "mean {mean}");
        assert_eq!(m.privatize_vec(&[1, 2, 3], &mut rng).len(), 3);
    }

    #[test]
    fn zcdp_budget_accounting() {
        let mut b = ZCdpBudget::new(0.3);
        let lvl = b.per_level(3);
        assert!((lvl - 0.1).abs() < 1e-15);
        for _ in 0..3 {
            b.spend(lvl).unwrap();
        }
        assert!(b.remaining() < 1e-9);
        assert!(b.spend(0.1).is_err());
        assert!(b.spend(-1.0).is_err());
    }

    #[test]
    fn zcdp_to_approximate_dp() {
        let b = ZCdpBudget::new(0.5);
        // ε(1e-10) = 0.5 + 2√(0.5·ln 1e10) ≈ 7.29.
        let eps = b.epsilon(1e-10);
        assert!((eps - 7.29).abs() < 0.05, "got {eps}");
        // Smaller δ costs more ε.
        assert!(b.epsilon(1e-12) > eps);
    }

    #[test]
    #[should_panic(expected = "delta must be in")]
    fn invalid_delta_panics() {
        let _ = ZCdpBudget::new(0.1).epsilon(0.0);
    }
}
