//! The `Hc` method's constrained isotonic regression (Section 4.3).
//!
//! Given the noisy cumulative histogram `H̃c` (one cell per size
//! `0..=K`) and the public group count `G`, solve
//!
//! ```text
//! min ‖Ĥc − H̃c‖_p   s.t.   0 ≤ Ĥc[0] ≤ … ≤ Ĥc[K],  Ĥc[K] = G
//! ```
//!
//! for `p ∈ {1, 2}`. The terminal equality lets us fix the last cell
//! and solve a box-constrained isotonic problem on the prefix; for a
//! constant box, clamping the unconstrained isotonic solution is
//! exact for any separable convex loss.

use crate::pav_l1::PavL1Workspace;
use crate::pav_l2::isotonic_l2;

/// Which norm the `Hc` post-processing minimises. The paper found L1
/// "performs better than the L2 version" and mostly yields integers;
/// both are provided so the comparison can be reproduced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CumulativeLoss {
    /// Least absolute deviations (paper's preferred choice).
    #[default]
    L1,
    /// Least squares.
    L2,
}

/// Post-processes a noisy cumulative histogram into a valid one:
/// non-decreasing, within `[0, G]`, final cell exactly `G`, all cells
/// integers.
///
/// `noisy` must be non-empty (the caller always has at least the cell
/// for size 0, and `K ≥ 0`).
pub fn anchored_cumulative(noisy: &[i64], g: u64, loss: CumulativeLoss) -> Vec<u64> {
    let mut out = Vec::new();
    anchored_cumulative_into(
        noisy,
        g,
        loss,
        &mut PavL1Workspace::new(),
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// [`anchored_cumulative`] with every buffer caller-owned: `pav`
/// holds the L1 solver state, `scratch` the dense f64 expansion the
/// L2 loss needs, and `out` receives the fitted cells (cleared
/// first). A warm workspace makes the `Hc` hot path allocation-free;
/// the produced cells are bit-identical to the allocating wrapper.
///
/// The final clamp to `[0, G]` is done on integers: `G as f64` rounds
/// *up* for some `G > 2⁵³` (`2⁵⁴ − 1` becomes `2⁵⁴`), so an f64
/// clamp could emit a cell above `G`. Below `2⁵³` both clamps agree.
pub fn anchored_cumulative_into(
    noisy: &[i64],
    g: u64,
    loss: CumulativeLoss,
    pav: &mut PavL1Workspace,
    scratch: &mut Vec<f64>,
    out: &mut Vec<u64>,
) {
    assert!(
        !noisy.is_empty(),
        "a cumulative histogram has at least one cell"
    );
    let prefix = &noisy[..noisy.len() - 1];
    out.clear();
    out.reserve(noisy.len());
    match loss {
        CumulativeLoss::L1 => {
            // Clamping the isotonic fit cell-wise keeps it monotone
            // and is exact for the box constraint.
            pav.solve(prefix);
            out.extend(pav.fit().iter().map(|&v| v.max(0).unsigned_abs().min(g)));
        }
        CumulativeLoss::L2 => {
            scratch.clear();
            scratch.extend(prefix.iter().map(|&v| v as f64));
            let fit = isotonic_l2(scratch).clamped(0.0, g as f64);
            fit.values_into(scratch);
            // `as u64` saturates; the integer `min` is the exact clamp.
            out.extend(scratch.iter().map(|&v| (v.round().max(0.0) as u64).min(g)));
        }
    }
    out.push(g);
    debug_assert!(out.windows(2).all(|w| w[0] <= w[1]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clean_input_passes_through() {
        let noisy = [0, 2, 3, 5];
        assert_eq!(
            anchored_cumulative(&noisy, 5, CumulativeLoss::L1),
            vec![0, 2, 3, 5]
        );
        assert_eq!(
            anchored_cumulative(&noisy, 5, CumulativeLoss::L2),
            vec![0, 2, 3, 5]
        );
    }

    #[test]
    fn negative_noise_is_clamped_to_zero() {
        let noisy = [-3, -1, 2, 5];
        let out = anchored_cumulative(&noisy, 5, CumulativeLoss::L1);
        assert_eq!(out, vec![0, 0, 2, 5]);
    }

    #[test]
    fn values_above_g_are_clamped() {
        let noisy = [1, 9, 9, 5];
        let out = anchored_cumulative(&noisy, 5, CumulativeLoss::L1);
        assert!(out.iter().all(|&v| v <= 5));
        assert_eq!(*out.last().unwrap(), 5);
    }

    #[test]
    fn last_cell_is_ignored_and_replaced_by_g() {
        // The noisy final cell is wild; the anchor overrides it.
        let noisy = [0, 1, 1, -999];
        let out = anchored_cumulative(&noisy, 7, CumulativeLoss::L1);
        assert_eq!(out, vec![0, 1, 1, 7]);
    }

    #[test]
    fn single_cell_histogram() {
        // K = 0: only the anchor cell exists... the prefix is empty.
        let out = anchored_cumulative(&[123], 9, CumulativeLoss::L2);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn bounds_beyond_2_pow_53_stay_at_or_below_g() {
        // `G = 2⁵⁴ − 1` is not an f64; an f64 clamp rounded it up to
        // 2⁵⁴ and emitted a cell above the anchor, which broke
        // monotonicity.
        let g = (1u64 << 54) - 1;
        let noisy = [(1i64 << 54) + 100, 0];
        for loss in [CumulativeLoss::L1, CumulativeLoss::L2] {
            assert_eq!(anchored_cumulative(&noisy, g, loss), vec![g, g], "{loss:?}");
        }
        // Cells between 2⁵³ and G pass through exactly under L1.
        let noisy = [(1i64 << 53) + 1, (1i64 << 53) + 3, 0];
        assert_eq!(
            anchored_cumulative(&noisy, g, CumulativeLoss::L1),
            vec![(1 << 53) + 1, (1 << 53) + 3, g]
        );
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn empty_input_panics() {
        let _ = anchored_cumulative(&[], 3, CumulativeLoss::L1);
    }

    proptest! {
        /// The buffer-reusing variant is byte-identical to the
        /// allocating wrapper for both losses, across reuses of one
        /// (deliberately stale) workspace.
        #[test]
        fn into_variant_matches_wrapper(
            inputs in prop::collection::vec(
                (prop::collection::vec(-100i64..100, 1..40), 0u64..60), 1..4),
            use_l1 in any::<bool>(),
        ) {
            let loss = if use_l1 { CumulativeLoss::L1 } else { CumulativeLoss::L2 };
            let mut pav = crate::pav_l1::PavL1Workspace::new();
            let mut scratch = vec![3.5; 7];
            let mut out = vec![9u64; 3];
            for (noisy, g) in &inputs {
                anchored_cumulative_into(noisy, *g, loss, &mut pav, &mut scratch, &mut out);
                prop_assert_eq!(&out, &anchored_cumulative(noisy, *g, loss));
            }
        }

        /// Output is always a valid cumulative histogram regardless of
        /// noise.
        #[test]
        fn output_is_valid_cumulative(
            noisy in prop::collection::vec(-100i64..100, 1..40),
            g in 0u64..60,
            use_l1 in any::<bool>(),
        ) {
            let loss = if use_l1 { CumulativeLoss::L1 } else { CumulativeLoss::L2 };
            let out = anchored_cumulative(&noisy, g, loss);
            prop_assert_eq!(out.len(), noisy.len());
            prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(out.iter().all(|&v| v <= g));
            prop_assert_eq!(*out.last().unwrap(), g);
        }

        /// L1 on integer inputs never needs rounding: fitted values are
        /// exactly the clamped medians.
        #[test]
        fn l1_solution_cost_not_beaten_by_shifts(
            noisy in prop::collection::vec(-20i64..40, 2..15),
            g in 1u64..30,
        ) {
            let out = anchored_cumulative(&noisy, g, CumulativeLoss::L1);
            let cost: i64 = out[..out.len()-1].iter().zip(noisy[..noisy.len()-1].iter())
                .map(|(&o, &y)| (o as i64 - y).abs()).sum();
            // Competitor: shift the whole prefix by ±1 where feasible.
            for delta in [-1i64, 1] {
                let comp: Vec<i64> = out[..out.len()-1].iter()
                    .map(|&o| (o as i64 + delta).clamp(0, g as i64)).collect();
                let comp_cost: i64 = comp.iter().zip(noisy[..noisy.len()-1].iter())
                    .map(|(&o, &y)| (o - y).abs()).sum();
                prop_assert!(cost <= comp_cost, "shift by {} improves cost", delta);
            }
        }
    }
}
