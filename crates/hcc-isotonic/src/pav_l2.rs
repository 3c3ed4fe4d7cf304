//! Pool-adjacent-violators for least-squares isotonic regression.
//!
//! One implementation serves every caller. [`PavL2Workspace::begin`]
//! opens an [`L2Pass`], which takes values as they are produced (it
//! is `Extend<f64>`) and keeps the classic PAV stack of pools: a new
//! value opens a pool, and while the pool below has a larger mean the
//! two merge. A pool's mean is `ysum / len as f64`, computed when the
//! pool is created or merged and cached, so a comparison reads two
//! stored values. After any prefix the stack *is* the fit of that
//! prefix, read out as raw blocks ([`L2Pass::blocks`]) or clamped to a
//! box with equal neighbours merged ([`L2Pass::clamped`]). The `Hg`
//! method streams each group's noisy size straight into a pass held in
//! the worker's workspace, so a warm pass allocates nothing;
//! [`isotonic_l2`] is the same pass over a slice.

use crate::fit::{Block, Coalesce, IsotonicFit};

/// Reusable pool stack for the L2 solver. One warm workspace per
/// worker thread runs every pass without allocating.
#[derive(Default)]
pub struct PavL2Workspace {
    pools: Vec<Pool>,
}

/// A run of pooled inputs and its cached mean.
#[derive(Clone, Copy)]
struct Pool {
    start: usize,
    len: usize,
    ysum: f64,
    mean: f64,
}

impl Pool {
    #[inline(always)]
    fn new(start: usize, len: usize, ysum: f64) -> Self {
        Self {
            start,
            len,
            ysum,
            mean: ysum / len as f64,
        }
    }
}

impl PavL2Workspace {
    /// An empty workspace; the stack grows on first use and is
    /// retained for later passes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a pass over an empty input, dropping the previous pass's
    /// pools.
    pub fn begin(&mut self) -> L2Pass<'_> {
        self.pools.clear();
        L2Pass {
            pools: &mut self.pools,
        }
    }
}

/// One streaming PAV pass, opened by [`PavL2Workspace::begin`]. Its
/// pools are always the least-squares isotonic fit of the values
/// taken so far.
pub struct L2Pass<'a> {
    pools: &'a mut Vec<Pool>,
}

impl L2Pass<'_> {
    /// The fit's PAV blocks, left to right. Adjacent blocks may share
    /// a value (a pool merges only into a strictly larger mean).
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = Block> + '_ {
        self.pools.iter().map(|p| Block {
            start: p.start,
            len: p.len,
            value: p.mean,
        })
    }

    /// The fit's blocks with every value clamped into `[lo, hi]` and
    /// adjacent blocks of exactly equal value merged: the blocks of
    /// [`IsotonicFit::clamped`] without building either fit.
    pub fn clamped(&self, lo: f64, hi: f64) -> impl Iterator<Item = Block> + '_ {
        assert!(lo <= hi, "invalid clamp range [{lo}, {hi}]");
        Coalesce::new(self.blocks().map(move |b| Block {
            value: b.value.clamp(lo, hi),
            ..b
        }))
    }
}

impl Extend<f64> for L2Pass<'_> {
    /// Pushes every value in order.
    fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        let pools = &mut *self.pools;
        let first = pools.last().map_or(0, |p| p.start + p.len);
        for (i, y) in (first..).zip(values) {
            let mut pool = Pool::new(i, 1, y);
            // Merge down while the pool below has a larger mean; the
            // merged pool keeps the lower pool's start.
            while let Some(&below) = pools.last() {
                if below.mean > pool.mean {
                    pools.pop();
                    pool = Pool::new(below.start, below.len + pool.len, below.ysum + pool.ysum);
                } else {
                    break;
                }
            }
            pools.push(pool);
        }
    }
}

/// Solves `min Σ (x_i − y_i)² s.t. x_0 ≤ x_1 ≤ … ≤ x_{n−1}` in `O(n)`:
/// one [`L2Pass`] over the slice in a fresh workspace. Each block's
/// value is the mean of its pooled inputs.
pub fn isotonic_l2(y: &[f64]) -> IsotonicFit {
    let mut ws = PavL2Workspace::new();
    let mut pass = ws.begin();
    pass.extend(y.iter().copied());
    IsotonicFit::from_blocks(pass.blocks().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The stack loop the pass replaced, which recomputes both means
    /// on every comparison: the oracle for the cached means.
    fn stack_oracle(y: &[f64]) -> IsotonicFit {
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

    fn bits(blocks: &[Block]) -> Vec<(usize, usize, u64)> {
        blocks
            .iter()
            .map(|b| (b.start, b.len, b.value.to_bits()))
            .collect()
    }

    proptest! {
        /// The pass equals the stack loop bit for bit, on reals and on
        /// thirds of small integers, whose pools often tie and whose
        /// pooled sums and means round.
        #[test]
        fn isotonic_l2_matches_the_stack_oracle(
            y in prop::collection::vec(-50.0f64..50.0, 0..80),
            ints in prop::collection::vec(-6i64..6, 0..80),
        ) {
            prop_assert_eq!(bits(isotonic_l2(&y).blocks()), bits(stack_oracle(&y).blocks()));
            let y: Vec<f64> = ints.iter().map(|&v| v as f64 / 3.0).collect();
            prop_assert_eq!(bits(isotonic_l2(&y).blocks()), bits(stack_oracle(&y).blocks()));
        }

        /// A warm pass, extended one value at a time and read clamped,
        /// gives the clamped oracle's blocks, so ties the clamp or the
        /// fit leaves between neighbours are merged.
        #[test]
        fn reused_pass_reads_out_the_clamped_fit(
            inputs in prop::collection::vec(prop::collection::vec(-8i64..8, 0..60), 1..4),
            lo in -3.0f64..0.0,
        ) {
            let mut ws = PavL2Workspace::new();
            for ints in &inputs {
                let y: Vec<f64> = ints.iter().map(|&v| v as f64).collect();
                let mut pass = ws.begin();
                for &v in &y {
                    pass.extend([v]);
                }
                let got: Vec<Block> = pass.clamped(lo, 2.0).collect();
                prop_assert_eq!(bits(&got), bits(stack_oracle(&y).clamped(lo, 2.0).blocks()));
            }
        }
    }

    #[test]
    fn equal_neighbours_stay_apart_until_read_clamped() {
        // [1, 2, 0, 3]: 2 and 0 pool to 1, equal to the first block
        // but not above it, so PAV keeps two blocks of value 1.
        let y = [1.0, 2.0, 0.0, 3.0];
        let fit = isotonic_l2(&y);
        assert_eq!(fit.blocks().len(), 3);
        let mut ws = PavL2Workspace::new();
        let mut pass = ws.begin();
        pass.extend(y);
        let merged: Vec<Block> = pass.clamped(0.0, f64::INFINITY).collect();
        assert_eq!(merged, fit.clamped(0.0, f64::INFINITY).blocks());
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].len, 3);
    }

    #[test]
    fn already_sorted_is_identity() {
        let y = [1.0, 2.0, 3.0];
        assert_eq!(isotonic_l2(&y).values(), y.to_vec());
    }

    #[test]
    fn single_violation_pools_to_mean() {
        let y = [3.0, 1.0];
        assert_eq!(isotonic_l2(&y).values(), vec![2.0, 2.0]);
    }

    #[test]
    fn paper_figure2_example() {
        // Figure 2: noisy [0, 4, 2, 4, 5, 3] → [0, 3, 3, 4, 4, 4].
        let y = [0.0, 4.0, 2.0, 4.0, 5.0, 3.0];
        assert_eq!(isotonic_l2(&y).values(), vec![0.0, 3.0, 3.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn all_decreasing_pools_to_global_mean() {
        let y = [5.0, 4.0, 3.0, 2.0, 1.0];
        let f = isotonic_l2(&y);
        assert_eq!(f.blocks().len(), 1);
        assert_eq!(f.values(), vec![3.0; 5]);
    }

    #[test]
    fn empty_input() {
        assert!(isotonic_l2(&[]).is_empty());
    }

    /// Exhaustive optimality check on small inputs: the PAV solution
    /// must beat every monotone vector drawn from a lattice of
    /// candidate values.
    fn l2_cost(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum()
    }

    proptest! {
        #[test]
        fn pav_is_feasible_and_not_beaten_by_random_feasible_points(
            y in prop::collection::vec(-10.0f64..10.0, 1..12),
            perturb in prop::collection::vec(-5.0f64..5.0, 12),
        ) {
            let fit = isotonic_l2(&y);
            let x = fit.values();
            // Feasibility.
            for w in x.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12);
            }
            let cost = l2_cost(&x, &y);
            // Construct a random feasible competitor by sorting a
            // perturbation of the fit.
            let mut comp: Vec<f64> = x
                .iter()
                .zip(perturb.iter())
                .map(|(a, p)| a + p)
                .collect();
            comp.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(cost <= l2_cost(&comp, &y) + 1e-9);
        }

        /// PAV preserves the weighted mean (projection property).
        #[test]
        fn pav_preserves_total_mass(
            y in prop::collection::vec(-100.0f64..100.0, 1..50),
        ) {
            let x = isotonic_l2(&y).values();
            let sy: f64 = y.iter().sum();
            let sx: f64 = x.iter().sum();
            prop_assert!((sx - sy).abs() < 1e-6 * (1.0 + sy.abs()));
        }
    }
}
