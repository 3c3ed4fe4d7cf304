//! L1 (least-absolute-deviations) isotonic regression.
//!
//! The paper found that the L1 variant of the `Hc` method outperforms
//! L2 (consistent with Lin & Kifer's observations on unattributed
//! histograms) and that its solutions are almost always integral. We
//! realise the "almost always" as *always* by taking the **lower
//! median** of every pooled block: any value between the lower and
//! upper median minimises the block's absolute deviation, and the
//! lower median of integers is an integer.
//!
//! Two implementations return that same fit:
//!
//! * [`PavL1Workspace::solve`] — the hot-path solver, the *slope
//!   trick*. A forward pass keeps a max-heap of the breakpoints of the
//!   prefix problem's cost function: push `y_i`; if the heap's max
//!   exceeds `y_i`, pop the max and push `y_i` once more; record the
//!   max as `top_i`, the smallest optimal last value of the prefix
//!   ending at `i`. A backward pass then reads the fit off as
//!   `x_{n−1} = top_{n−1}`, `x_i = min(x_{i+1}, top_i)`. Taking the
//!   *smallest* minimiser everywhere is what lower-median pooling
//!   does, so the reconstruction equals the lower-median PAV solution
//!   exactly; the property tests check it against the oracle below.
//!   The heap is a value-indexed count array (an `O(1)` bucket
//!   update per push, plus an occupancy bitmap so a pop finds the
//!   next maximum by word scans) when the input's values span at most
//!   2¹⁶, and a `BinaryHeap` otherwise: the input alone picks the
//!   form. `O(n + span)` or `O(n log n)`, and a warm workspace solves
//!   without allocating.
//! * [`isotonic_l1_heap`] — the seed implementation (PAV with two
//!   fresh `BinaryHeap`s per input element), kept as the property-test
//!   oracle and as the perf baseline for the `release_hot_path`
//!   benchmarks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fit::{Block, IsotonicFit};

/// Widest value span (`max − min + 1`) the counting heap takes: 256
/// KB of `u32` counts to zero per solve, and a pop's scan for the
/// next maximum reads at most `COUNT_SPAN_MAX / 64` bitmap words.
/// The `Hc` method's inputs span `G` plus the noise, far below it on
/// the benchmark hierarchies; wider inputs take the `BinaryHeap`.
const COUNT_SPAN_MAX: u64 = 1 << 16;

/// Reusable state for the L1 solver. One warm workspace per worker
/// thread makes [`PavL1Workspace::solve`] allocation-free across the
/// thousands of `bound`-length fits a hierarchical release performs.
#[derive(Default)]
pub struct PavL1Workspace {
    /// The forward pass's `top_i`, turned into the fit in place.
    fit: Vec<i64>,
    /// Counting heap: multiplicity of value `min + i` at index `i`.
    counts: Vec<u32>,
    /// Counting heap: bit `i` set iff `counts[i] > 0`.
    occupied: Vec<u64>,
    /// The heap for inputs too wide to count.
    heap: BinaryHeap<i64>,
}

impl PavL1Workspace {
    /// An empty workspace; buffers grow on first use and are retained
    /// for later solves.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves `min Σ |x_i − y_i|` over non-decreasing `x`, leaving the
    /// fit readable through [`PavL1Workspace::fit`] until the next
    /// solve.
    pub fn solve(&mut self, y: &[i64]) {
        self.fit.clear();
        let (Some(&lo), Some(&hi)) = (y.iter().min(), y.iter().max()) else {
            return;
        };
        // Each element adds at most two counts.
        if hi.abs_diff(lo) < COUNT_SPAN_MAX && y.len() < (u32::MAX / 2) as usize {
            self.forward_counting(y, lo, hi.abs_diff(lo) as usize + 1);
        } else {
            self.forward_heap(y);
        }
        let mut run = i64::MAX;
        for x in self.fit.iter_mut().rev() {
            run = run.min(*x);
            *x = run;
        }
    }

    /// The fit of the last solve: one non-decreasing value per input
    /// element.
    pub fn fit(&self) -> &[i64] {
        &self.fit
    }

    /// Forward pass over a count array indexed by `v − lo`.
    fn forward_counting(&mut self, y: &[i64], lo: i64, span: usize) {
        let counts = &mut self.counts;
        let occupied = &mut self.occupied;
        counts.clear();
        counts.resize(span, 0);
        occupied.clear();
        occupied.resize(span.div_ceil(64), 0);
        // The heap's max; the first element always lands at or above
        // index 0, so the empty heap needs no special case.
        let mut top = 0usize;
        for &v in y {
            let b = v.abs_diff(lo) as usize;
            // Branch-free on the coin flip of a noisy tail: when v is
            // below the max, push it twice and pop the max; otherwise
            // push it once and it becomes the max.
            let pop = b < top;
            occupied[b / 64] |= 1 << (b % 64);
            counts[b] += 1 + u32::from(pop);
            counts[top] -= u32::from(pop);
            top = top.max(b);
            if counts[top] == 0 {
                occupied[top / 64] &= !(1 << (top % 64));
                top = highest_set_below(occupied, top);
            }
            self.fit.push(lo + top as i64);
        }
    }

    /// Forward pass over a `BinaryHeap`.
    fn forward_heap(&mut self, y: &[i64]) {
        let heap = &mut self.heap;
        heap.clear();
        for &v in y {
            // Replacing a max above v by v, then pushing v, is the
            // push-pop-push of the slope trick with one sift fewer.
            if let Some(mut max) = heap.peek_mut() {
                if *max > v {
                    *max = v;
                }
            }
            heap.push(v);
            self.fit.push(heap.peek().copied().unwrap_or(v));
        }
    }
}

/// Index of the highest set bit strictly below `idx`. The caller
/// guarantees one exists.
fn highest_set_below(occupied: &[u64], idx: usize) -> usize {
    let mut w = idx / 64;
    let mut word = occupied[w] & ((1u64 << (idx % 64)) - 1);
    while word == 0 {
        w -= 1;
        word = occupied[w];
    }
    w * 64 + 63 - word.leading_zeros() as usize
}

/// The maximal constant runs of a non-decreasing fit, as blocks.
fn runs(fit: &[i64]) -> Vec<Block> {
    let mut start = 0;
    fit.chunk_by(|a, b| a == b)
        .map(|run| {
            let block = Block {
                start,
                len: run.len(),
                value: run[0] as f64,
            };
            start += run.len();
            block
        })
        .collect()
}

/// Solves `min Σ |x_i − y_i| s.t. x non-decreasing`, returning integer
/// block values (lower medians).
///
/// ```
/// use hcc_isotonic::isotonic_l1;
/// // The paper's Figure 2 input: [0, 4, 2, 4, 5, 3]. L1 pools the
/// // violating stretches to medians.
/// let fit = isotonic_l1(&[0, 4, 2, 4, 5, 3]);
/// let v = fit.values();
/// assert!(v.windows(2).all(|w| w[0] <= w[1]));
/// assert!(v.iter().all(|x| x.fract() == 0.0)); // integral
/// ```
pub fn isotonic_l1(y: &[i64]) -> IsotonicFit {
    isotonic_l1_with(y, &mut PavL1Workspace::new())
}

/// [`isotonic_l1`] reusing a caller-owned workspace — same fit, no
/// per-call solver allocations (the returned [`IsotonicFit`] still
/// owns its block list, one block per maximal constant run; use
/// [`PavL1Workspace::fit`] directly when even that must be avoided).
pub fn isotonic_l1_with(y: &[i64], ws: &mut PavL1Workspace) -> IsotonicFit {
    ws.solve(y);
    IsotonicFit::from_blocks(runs(ws.fit()))
}

// ---------------------------------------------------------------------------
// Seed implementation (oracle + perf baseline).
// ---------------------------------------------------------------------------

/// A multiset of integers supporting O(log n) insertion and O(1)
/// lower-median queries.
#[derive(Debug, Default)]
struct MedianHeap {
    /// Max-heap holding the lower half (including the lower median).
    lo: BinaryHeap<i64>,
    /// Min-heap holding the upper half.
    hi: BinaryHeap<Reverse<i64>>,
}

impl MedianHeap {
    fn len(&self) -> usize {
        self.lo.len() + self.hi.len()
    }

    fn push(&mut self, x: i64) {
        match self.lo.peek() {
            Some(&m) if x > m => self.hi.push(Reverse(x)),
            _ => self.lo.push(x),
        }
        self.rebalance();
    }

    fn rebalance(&mut self) {
        // Invariant: lo.len() == hi.len() or lo.len() == hi.len() + 1,
        // so the lower median is always lo's max.
        if self.lo.len() > self.hi.len() + 1 {
            let x = self.lo.pop().expect("lo non-empty");
            self.hi.push(Reverse(x));
        } else if self.hi.len() > self.lo.len() {
            let Reverse(x) = self.hi.pop().expect("hi non-empty");
            self.lo.push(x);
        }
    }

    /// The lower median. Panics on an empty heap.
    fn median(&self) -> i64 {
        *self.lo.peek().expect("median of empty block")
    }

    /// Merges `other` into `self`, draining the smaller side.
    fn absorb(&mut self, mut other: MedianHeap) {
        if other.len() > self.len() {
            std::mem::swap(self, &mut other);
        }
        for x in other.lo {
            self.push(x);
        }
        for Reverse(x) in other.hi {
            self.push(x);
        }
    }
}

/// The seed (pre-workspace) L1 PAV: allocates two `BinaryHeap`s per
/// input element. Kept verbatim as the property-test oracle for
/// [`PavL1Workspace::solve`] and as the "per-node-allocation path"
/// baseline that the `release_hot_path` benchmark and tier-1 perf
/// smoke measure the workspace pipeline against. Not for production
/// use — call [`isotonic_l1`] instead.
pub fn isotonic_l1_heap(y: &[i64]) -> IsotonicFit {
    struct Pool {
        start: usize,
        len: usize,
        heap: MedianHeap,
    }
    let mut stack: Vec<Pool> = Vec::new();
    for (i, &yi) in y.iter().enumerate() {
        let mut heap = MedianHeap::default();
        heap.push(yi);
        stack.push(Pool {
            start: i,
            len: 1,
            heap,
        });
        while stack.len() >= 2 {
            let last_med = stack[stack.len() - 1].heap.median();
            let prev_med = stack[stack.len() - 2].heap.median();
            if prev_med > last_med {
                let last = stack.pop().expect("len >= 2");
                let prev = stack.last_mut().expect("len >= 1");
                prev.len += last.len;
                prev.heap.absorb(last.heap);
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
                value: p.heap.median() as f64,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sorted_input_is_identity() {
        let y = [1, 2, 2, 5];
        assert_eq!(isotonic_l1(&y).values(), vec![1.0, 2.0, 2.0, 5.0]);
    }

    #[test]
    fn violation_pools_to_lower_median() {
        // Block {3, 1}: lower median 1.
        assert_eq!(isotonic_l1(&[3, 1]).values(), vec![1.0, 1.0]);
        // [5, 1, 2] has two optimal fits of cost 4 ([1,1,2] and
        // [2,2,2]); lower-median pooling picks [1,1,2].
        let fit = isotonic_l1(&[5, 1, 2]);
        assert_eq!(fit.values(), vec![1.0, 1.0, 2.0]);
        let cost: i64 = fit
            .values()
            .iter()
            .zip([5i64, 1, 2])
            .map(|(&x, y)| (x as i64 - y).abs())
            .sum();
        assert_eq!(cost, 4);
    }

    #[test]
    fn integer_outputs_for_integer_inputs() {
        let y = [9, -3, 4, 4, 0, 7, 7, 2];
        for v in isotonic_l1(&y).values() {
            assert_eq!(v, v.round(), "value {v} not integral");
        }
    }

    #[test]
    fn empty_input() {
        assert!(isotonic_l1(&[]).is_empty());
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        // Both heap forms store raw i64s (no negation tricks), so
        // i64::MIN is a legal input.
        let y = [i64::MAX, i64::MIN, 0, i64::MIN];
        let mut ws = PavL1Workspace::new();
        ws.solve(&y);
        assert_eq!(ws.fit(), [i64::MIN; 4]);
        assert_eq!(isotonic_l1(&y).values(), isotonic_l1_heap(&y).values());
        // A narrow span at either end of the range takes the
        // counting form, whose `lo + index` must not overflow.
        for y in [
            [i64::MAX, i64::MAX - 3, i64::MAX - 1],
            [i64::MIN + 2, i64::MIN, i64::MIN + 1],
        ] {
            assert_eq!(isotonic_l1(&y).values(), isotonic_l1_heap(&y).values());
        }
    }

    /// A noisy plateau (the `Hc` hot-path shape) with a value span
    /// far below the cap.
    fn plateau(n: u64, width: u64) -> Vec<i64> {
        (0..n)
            .map(|i| {
                let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                500 + ((z >> 33) % width) as i64 - (width / 2) as i64
            })
            .collect()
    }

    #[test]
    fn heap_form_follows_the_input_span() {
        // A plateau must take the counting heap — if that choice
        // bit-rots, the solver silently runs at BinaryHeap speed — and
        // an input one value wider than the cap must not.
        let narrow = plateau(20_000, 41);
        let mut ws = PavL1Workspace::new();
        ws.solve(&narrow);
        assert_eq!(ws.counts.len(), 41);
        assert!(ws.heap.is_empty());
        assert_eq!(
            isotonic_l1_with(&narrow, &mut ws).values(),
            isotonic_l1_heap(&narrow).values()
        );
        let mut wide = narrow.clone();
        wide[7] = wide.iter().min().unwrap() + COUNT_SPAN_MAX as i64;
        let mut ws = PavL1Workspace::new();
        ws.solve(&wide);
        assert!(ws.counts.is_empty());
        assert!(!ws.heap.is_empty());
        assert_eq!(
            isotonic_l1_with(&wide, &mut ws).values(),
            isotonic_l1_heap(&wide).values()
        );
    }

    #[test]
    fn blocks_are_maximal_runs() {
        // PAV may leave two adjacent blocks at one value; the
        // workspace fit reports maximal runs, so its blocks are the
        // oracle's coalesced blocks.
        let y = [3, 1, 2, 0, 5, 5, 9, 4];
        assert_eq!(
            isotonic_l1(&y).blocks(),
            isotonic_l1_heap(&y).coalesced().blocks()
        );
    }

    #[test]
    fn workspace_reuse_across_solves_is_clean() {
        let mut ws = PavL1Workspace::new();
        let a = isotonic_l1_with(&[5, 1, 2], &mut ws);
        assert_eq!(a.values(), vec![1.0, 1.0, 2.0]);
        // A second, longer solve must not see stale state…
        let b = isotonic_l1_with(&[9, -3, 4, 4, 0, 7, 7, 2], &mut ws);
        assert_eq!(
            b.values(),
            isotonic_l1_heap(&[9, -3, 4, 4, 0, 7, 7, 2]).values()
        );
        // …nor must a shorter or empty one.
        let c = isotonic_l1_with(&[2], &mut ws);
        assert_eq!(c.values(), vec![2.0]);
        let d = isotonic_l1_with(&[], &mut ws);
        assert!(d.is_empty());
    }

    /// Reference: exact L1 isotonic regression by dynamic programming
    /// over candidate values (an optimal solution always exists whose
    /// values are drawn from the input multiset).
    fn brute_force_l1_cost(y: &[i64]) -> i64 {
        let mut cands: Vec<i64> = y.to_vec();
        cands.sort_unstable();
        cands.dedup();
        let m = cands.len();
        // dp[j] = min cost so far ending with value cands[j];
        // prefix-min makes the monotonicity constraint cheap.
        let mut dp = vec![0i64; m];
        for &yi in y {
            let mut best = i64::MAX;
            for j in 0..m {
                best = best.min(dp[j]);
                dp[j] = best + (cands[j] - yi).abs();
            }
        }
        dp.into_iter().min().unwrap_or(0)
    }

    fn l1_cost(x: &[f64], y: &[i64]) -> f64 {
        x.iter().zip(y).map(|(a, &b)| (a - b as f64).abs()).sum()
    }

    /// SplitMix64, for input shapes the strategies cannot express.
    fn mix(z: &mut u64) -> u64 {
        *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    proptest! {
        /// The slope-trick solution achieves the exact optimal L1 cost
        /// computed by dynamic programming.
        #[test]
        fn pav_l1_is_optimal(y in prop::collection::vec(-20i64..20, 1..14)) {
            let fit = isotonic_l1(&y);
            let x = fit.values();
            for w in x.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            let pav = l1_cost(&x, &y);
            let opt = brute_force_l1_cost(&y) as f64;
            prop_assert!(
                (pav - opt).abs() < 1e-9,
                "fit cost {} but optimum is {}", pav, opt
            );
        }

        /// The workspace solver reproduces the seed heap PAV value for
        /// value on one reused workspace, so stale state would be
        /// caught too. Narrow inputs take the counting heap, wide ones
        /// the `BinaryHeap`, and the interleaving of both is wide.
        #[test]
        fn flat_solver_matches_heap_oracle(
            narrow in prop::collection::vec(-50i64..50, 0..200),
            wide in prop::collection::vec(-1_000_000i64..1_000_000, 0..200),
        ) {
            let mixed: Vec<i64> = narrow
                .iter()
                .zip(&wide)
                .flat_map(|(&a, &b)| [a, b])
                .collect();
            let mut ws = PavL1Workspace::new();
            for y in [&narrow, &wide, &mixed] {
                let fast = isotonic_l1_with(y, &mut ws);
                let heap = isotonic_l1_heap(y);
                prop_assert_eq!(fast.values(), heap.values());
            }
        }

        /// Slope-trick values equal the oracle's on the shapes that
        /// stress each heap form: tie-heavy small inputs, the `Hc`
        /// hot-path ramp with a flat noisy tail, spans just above the
        /// counting cap, and values at the ends of the i64 range.
        #[test]
        fn slope_trick_matches_heap_oracle(
            seed in any::<u64>(),
            ties in prop::collection::vec(0i64..3, 0..40),
            n in 1usize..3000,
            ramp_frac in 0u64..100,
            noise in 1u64..40,
        ) {
            let mut z = seed;
            let ramp_len = (n as u64 * ramp_frac / 100).max(1);
            let plateau = 1_000 + (mix(&mut z) % 4_000) as i64;
            let hot: Vec<i64> = (0..n as u64)
                .map(|i| {
                    let level = plateau * i.min(ramp_len) as i64 / ramp_len as i64;
                    level + (mix(&mut z) % (2 * noise + 1)) as i64 - noise as i64
                })
                .collect();
            let over_cap: Vec<i64> = (0..n)
                .map(|i| match i % 5 {
                    0 => COUNT_SPAN_MAX as i64 + (mix(&mut z) % 7) as i64,
                    _ => (mix(&mut z) % 50) as i64,
                })
                .collect();
            let extremes: Vec<i64> = (0..n.min(64))
                .map(|_| {
                    let off = (mix(&mut z) % 5) as i64;
                    if mix(&mut z) & 1 == 0 {
                        i64::MIN + off
                    } else {
                        i64::MAX - off
                    }
                })
                .collect();
            // Narrow, so counted, at one end of the range.
            let end = if seed & 1 == 0 { i64::MIN } else { i64::MAX - 8 };
            let one_end: Vec<i64> = (0..n.min(64))
                .map(|_| end + (mix(&mut z) % 9) as i64)
                .collect();
            let mut ws = PavL1Workspace::new();
            for y in [&ties, &hot, &over_cap, &extremes, &one_end] {
                let fast = isotonic_l1_with(y, &mut ws);
                prop_assert_eq!(fast.values(), isotonic_l1_heap(y).values());
            }
        }

        /// Median heap returns the lower median of any sequence.
        #[test]
        fn median_heap_matches_sort(xs in prop::collection::vec(-50i64..50, 1..60)) {
            let mut h = MedianHeap::default();
            for &x in &xs {
                h.push(x);
            }
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            let lower_median = sorted[(sorted.len() - 1) / 2];
            prop_assert_eq!(h.median(), lower_median);
        }
    }

    #[test]
    fn absorb_smaller_into_larger_keeps_median() {
        let mut a = MedianHeap::default();
        for x in [1, 2, 3, 4, 5, 6, 7] {
            a.push(x);
        }
        let mut b = MedianHeap::default();
        b.push(100);
        b.push(-100);
        a.absorb(b);
        // Multiset {-100,1..=7,100}: 9 elements, lower median = 4.
        assert_eq!(a.median(), 4);
        assert_eq!(a.len(), 9);
    }
}
