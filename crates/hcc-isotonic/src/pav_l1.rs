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
//! * [`PavL1Workspace`] — the hot-path solver, the *slope trick*. A
//!   forward pass keeps a max-heap of the breakpoints of the prefix
//!   problem's cost function: push `y_i`; if the heap's max exceeds
//!   `y_i`, pop the max and push `y_i` once more; record the max as
//!   `top_i`, the smallest optimal last value of the prefix ending at
//!   `i`. A backward running minimum then reads the fit off as
//!   `x_{n−1} = top_{n−1}`, `x_i = min(x_{i+1}, top_i)`. Taking the
//!   *smallest* minimiser everywhere is what lower-median pooling
//!   does, so the reconstruction equals the lower-median PAV solution
//!   exactly; the property tests check it against the oracle below.
//!   The forward pass streams: [`PavL1Workspace::begin`] opens an
//!   [`L1Pass`] that clamps its values to `[lo, hi]`,
//!   [`L1Pass::push`] and `extend` take values as they are produced,
//!   and [`L1Pass::finish`] hands back the [`L1Fit`], read as its
//!   maximal constant runs. [`PavL1Workspace::solve`] is that pass
//!   over a slice, with the box spanning the slice's values. The heap is a value-indexed count array (an `O(1)` bucket
//!   update per push, plus an occupancy bitmap so a pop finds the
//!   next maximum by word scans) when `[lo, hi]` spans at most 2¹⁶
//!   values, and a `BinaryHeap` otherwise. `O(n + span)` or
//!   `O(n log n)`, and a warm workspace runs a pass without
//!   allocating.
//! * [`isotonic_l1_heap`] — the seed implementation (PAV with two
//!   fresh `BinaryHeap`s per input element), kept as the property-test
//!   oracle and as the perf baseline for the `release_hot_path`
//!   benchmarks.
//!
//! **Monotone maps commute with the fit.** For a non-decreasing `f`,
//! the fit of `f(y)` is `f` of the fit of `y`: a push compares two
//! values and keeps the smaller, and a step where `f` merges them
//! swaps equal `f`-values, so the heap of `f(y)` is `f` of the heap of
//! `y`, and max and min commute with `f`. Clamping to `[lo, hi]` is
//! such a map, so fitting clamped input equals clamping the fit. The
//! `Hc` kernel relies on it to clamp each cell to `[0, G]` as it is
//! drawn, which also fixes the span before the first value arrives.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::fit::{Block, IsotonicFit};

/// Widest value span (`hi − lo + 1`) the counting heap takes: a pass
/// zeroes at most 256 KB of `u32` counts, and a pop's scan for the
/// next maximum reads at most `COUNT_SPAN_MAX / 64` bitmap words. The
/// `Hc` kernel's span is `G + 1`, far below it on the benchmark
/// hierarchies; wider passes take the `BinaryHeap`.
const COUNT_SPAN_MAX: usize = 1 << 16;

/// Reusable state for the L1 solver. One warm workspace per worker
/// thread makes every pass allocation-free across the thousands of
/// `bound`-length fits a hierarchical release performs.
#[derive(Default)]
pub struct PavL1Workspace {
    /// [`PavL1Workspace::solve`]'s fit.
    fit: Vec<i64>,
    /// A counted pass's `top_i`, as offsets from its `lo`, in the
    /// first entries (as many as the pass took); the rest are stale
    /// slots a later pass overwrites rather than zeroes.
    tops: Vec<u32>,
    /// A `BinaryHeap` pass's `top_i`.
    wide_tops: Vec<i64>,
    /// Counting heap: multiplicity of value `lo + i` at index `i`.
    /// Empty, or a power of two (at least 64) long.
    counts: Vec<u32>,
    /// Counting heap: bit `i` set iff value `lo + i` is in the heap.
    /// `counts.len() / 64` long.
    occupied: Vec<u64>,
    /// The heap for passes too wide to count.
    heap: BinaryHeap<i64>,
}

impl PavL1Workspace {
    /// An empty workspace; buffers grow on first use and are retained
    /// for later passes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a streaming pass that fits its values clamped to
    /// `[lo, hi]`: by the clamp lemma (see the module docs), the fit of
    /// the values clamped to the box. The bounds also pick the heap
    /// form. Panics if `lo > hi`.
    pub fn begin(&mut self, lo: i64, hi: i64) -> L1Pass<'_> {
        assert!(lo <= hi, "empty value range [{lo}, {hi}]");
        let counted = hi.abs_diff(lo) < COUNT_SPAN_MAX as u64;
        if counted {
            let span = hi.abs_diff(lo) as usize + 1;
            // Power-of-two lengths let a pass mask its indices (see
            // `push_counted`); buckets past the span are never touched.
            let len = span.next_power_of_two().max(64);
            if self.counts.len() < len {
                self.counts.resize(len, 0);
                self.occupied.resize(len / 64, 0);
            }
            self.counts[..span].fill(0);
            self.occupied[..span.div_ceil(64)].fill(0);
        } else {
            self.heap.clear();
            self.wide_tops.clear();
        }
        L1Pass {
            ws: self,
            lo,
            hi,
            counted,
            taken: 0,
            top: 0,
            top_count: 0,
        }
    }

    /// Solves `min Σ |x_i − y_i|` over non-decreasing `x`, leaving the
    /// fit readable through [`PavL1Workspace::fit`] until the next
    /// solve.
    pub fn solve(&mut self, y: &[i64]) {
        let mut out = std::mem::take(&mut self.fit);
        if let (Some(&lo), Some(&hi)) = (y.iter().min(), y.iter().max()) {
            let mut pass = self.begin(lo, hi);
            pass.extend(y.iter().copied());
            pass.finish().values_into(&mut out);
        } else {
            out.clear();
        }
        self.fit = out;
    }

    /// The fit of the last solve: one non-decreasing value per input
    /// element.
    pub fn fit(&self) -> &[i64] {
        &self.fit
    }
}

/// One streaming slope-trick pass, opened by
/// [`PavL1Workspace::begin`] and fed by [`L1Pass::push`] or, for a
/// whole stream, [`Extend::extend`]. `extend` runs the stream in one
/// loop that keeps the heap's max in registers; prefer it to a loop
/// of pushes.
pub struct L1Pass<'a> {
    ws: &'a mut PavL1Workspace,
    lo: i64,
    hi: i64,
    /// Counting heap (else `BinaryHeap`).
    counted: bool,
    /// Counting heap: values taken so far.
    taken: usize,
    /// Counting heap: the max's bucket, and its multiplicity (see
    /// [`push_counted`]).
    top: usize,
    top_count: u32,
}

impl<'a> L1Pass<'a> {
    /// Takes the next value, clamped to the pass's `[lo, hi]`, and
    /// returns `top_i`: the smallest optimal last value of the prefix
    /// fit so far.
    pub fn push(&mut self, v: i64) -> i64 {
        self.extend([v]);
        if self.counted {
            self.lo + self.top as i64
        } else {
            *self.ws.heap.peek().expect("the heap holds v")
        }
    }

    /// Ends the pass: the fit of every value pushed.
    pub fn finish(self) -> L1Fit<'a> {
        let ws: &'a PavL1Workspace = self.ws;
        let tops = if self.counted {
            // A bucket gains at most one net count per push.
            assert!(
                u32::try_from(self.taken).is_ok(),
                "a counted pass takes at most u32::MAX values"
            );
            Tops::Counted {
                lo: self.lo,
                tops: &ws.tops[..self.taken],
            }
        } else {
            Tops::Heap(&ws.wide_tops)
        };
        L1Fit { tops }
    }
}

impl Extend<i64> for L1Pass<'_> {
    /// Pushes every value in order, each clamped to the pass's
    /// `[lo, hi]`.
    fn extend<I: IntoIterator<Item = i64>>(&mut self, values: I) {
        let values = values.into_iter();
        let (lo, hi) = (self.lo, self.hi);
        let ws = &mut *self.ws;
        if !self.counted {
            for v in values {
                push_heap(&mut ws.heap, &mut ws.wide_tops, v.clamp(lo, hi));
            }
            return;
        }
        let (counts, occupied, tops) = (&mut ws.counts[..], &mut ws.occupied[..], &mut ws.tops);
        // Tops are written by index into slots sized from the length
        // hint, so the loop does not carry the vector's length through
        // memory; slots left from earlier passes are reused as they
        // are.
        let mut n = self.taken;
        let needed = n + values.size_hint().0;
        if tops.len() < needed {
            tops.resize(needed, 0);
        }
        // The max lives in locals for the whole loop, not in `self`,
        // so the loop carries it in registers.
        let (mut top, mut count) = (self.top, self.top_count);
        for v in values {
            let b = v.clamp(lo, hi).abs_diff(lo) as usize;
            push_counted(counts, occupied, &mut top, &mut count, b);
            if n == tops.len() {
                grow(tops);
            }
            // `top < COUNT_SPAN_MAX`, so the offset fits.
            tops[n] = top as u32;
            n += 1;
        }
        (self.taken, self.top, self.top_count) = (n, top, count);
    }
}

/// One more slot for a stream longer than its length hint.
#[cold]
fn grow(tops: &mut Vec<u32>) {
    tops.push(0);
}

/// One counting-heap push of bucket `b`. Invariant: `counts[i]` is
/// the multiplicity of bucket `i` for every `i ≠ top`, and `count` is
/// the max bucket's. The max's multiplicity lives in the caller's
/// register; `counts[top]` is stale while it is the max and is written
/// back only when a larger value displaces it, so a push never waits
/// on a count it stored one push earlier.
#[inline(always)]
fn push_counted(
    counts: &mut [u32],
    occupied: &mut [u64],
    top: &mut usize,
    count: &mut u32,
    b: usize,
) {
    // Every bucket index is below the span, so masking with the
    // power-of-two lengths changes none of them; it lets the compiler
    // drop the bounds checks.
    let (mask, word_mask) = (counts.len() - 1, occupied.len() - 1);
    let (t, c) = (*top, *count);
    // Below the max, push v twice and pop the max; above it, v becomes
    // the max with multiplicity 1; equal, the max gains one. Branch-free
    // on the coin flip of a noisy tail; only the rarer displacement of
    // the max branches (on a tail clamped to [0, G], which piles up at
    // G, it stops once the max reaches G).
    let pop = b < t;
    counts[b & mask] += 2 * u32::from(pop);
    occupied[(b / 64) & word_mask] |= 1 << (b % 64);
    if b > t {
        // v displaces the max: park its multiplicity in its bucket.
        counts[t & mask] = c;
    }
    *top = t.max(b);
    *count = if b > t { 1 } else { c + 1 - 2 * u32::from(pop) };
    if *count == 0 {
        counts[t] = 0;
        occupied[t / 64] &= !(1 << (t % 64));
        *top = highest_set_below(occupied, t);
        *count = counts[*top];
    }
}

/// The fit of a finished [`L1Pass`]: one non-decreasing value per
/// pushed value, held as the pass's `top_i` and read as the backward
/// running minimum.
pub struct L1Fit<'a> {
    tops: Tops<'a>,
}

#[derive(Clone, Copy)]
enum Tops<'a> {
    Counted { lo: i64, tops: &'a [u32] },
    Heap(&'a [i64]),
}

impl<'a> L1Fit<'a> {
    /// Number of fitted values.
    pub fn len(&self) -> usize {
        match self.tops {
            Tops::Counted { tops, .. } => tops.len(),
            Tops::Heap(tops) => tops.len(),
        }
    }

    /// Whether the pass took no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overwrites `out` with the fitted values, in order: the
    /// backward running minimum of the tops.
    fn values_into(&self, out: &mut Vec<i64>) {
        // Every entry is overwritten below, so only growth is zeroed.
        out.resize(self.len(), 0);
        let mut run = i64::MAX;
        match self.tops {
            Tops::Counted { lo, tops } => {
                for (x, &t) in out.iter_mut().zip(tops).rev() {
                    run = run.min(lo + i64::from(t));
                    *x = run;
                }
            }
            Tops::Heap(tops) => {
                for (x, &t) in out.iter_mut().zip(tops).rev() {
                    run = run.min(t);
                    *x = run;
                }
            }
        }
    }

    /// The fit's maximal constant runs from last to first, each as
    /// `(start, value)`: a run covers `start` up to the previous
    /// run's start (the end of the fit, for the first). Values
    /// strictly decrease from run to run.
    pub fn runs_rev(&self) -> impl Iterator<Item = (usize, i64)> + 'a {
        RunsRev {
            tops: self.tops,
            end: self.len(),
        }
    }
}

/// Iterator of [`L1Fit::runs_rev`].
struct RunsRev<'a> {
    tops: Tops<'a>,
    /// The runs from here on are yielded.
    end: usize,
}

impl Iterator for RunsRev<'_> {
    type Item = (usize, i64);

    fn next(&mut self) -> Option<(usize, i64)> {
        let (start, value) = match self.tops {
            Tops::Counted { lo, tops } => {
                let (start, top) = last_run(&tops[..self.end])?;
                (start, lo + i64::from(top))
            }
            Tops::Heap(tops) => last_run(&tops[..self.end])?,
        };
        self.end = start;
        Some((start, value))
    }
}

/// The last maximal run of the running minimum from the right, as
/// `(start, value)`. The fit value at the end is the last top itself
/// (a run before it ended exactly where a top dropped below it), and
/// the run reaches back to just after the last smaller top.
fn last_run<T: Copy + Ord>(tops: &[T]) -> Option<(usize, T)> {
    let &value = tops.last()?;
    let start = tops.iter().rposition(|&t| t < value).map_or(0, |i| i + 1);
    Some((start, value))
}

/// One `BinaryHeap` push of `v`, recording the new max.
#[inline(never)]
fn push_heap(heap: &mut BinaryHeap<i64>, tops: &mut Vec<i64>, v: i64) {
    // Replacing a max above v by v, then pushing v, is the
    // push-pop-push of the slope trick with one sift fewer.
    if let Some(mut max) = heap.peek_mut() {
        if *max > v {
            *max = v;
        }
    }
    heap.push(v);
    tops.push(heap.peek().copied().unwrap_or(v));
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
        assert_eq!(ws.tops.len(), narrow.len());
        assert!(ws.wide_tops.is_empty());
        assert_eq!(
            isotonic_l1_with(&narrow, &mut ws).values(),
            isotonic_l1_heap(&narrow).values()
        );
        let mut wide = narrow.clone();
        wide[7] = wide.iter().min().unwrap() + COUNT_SPAN_MAX as i64;
        let mut ws = PavL1Workspace::new();
        ws.solve(&wide);
        assert!(ws.counts.is_empty());
        assert_eq!(ws.wide_tops.len(), wide.len());
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

        /// The clamp lemma the `Hc` kernel rests on: for any `y` and
        /// `lo ≤ hi`, the fit of `y` clamped to `[lo, hi]` is the fit
        /// of `y`, clamped. Checked through `solve`, whose form follows
        /// the data (so clamping can switch forms), and through a pass
        /// over `[lo, hi]` that clamps each value as it takes it, on
        /// the counting heap (narrow box) and the `BinaryHeap` (a box
        /// wider than the counting cap).
        #[test]
        fn clamp_commutes_with_the_fit(
            narrow in prop::collection::vec(-3_000i64..3_000, 0..300),
            wide in prop::collection::vec(-300_000i64..300_000, 0..300),
            a in -3_500i64..3_500,
            b in -3_500i64..3_500,
            c in -320_000i64..-40_000,
            d in 40_000i64..320_000,
        ) {
            let mut ws = PavL1Workspace::new();
            let boxes = [(a.min(b), a.max(b)), (c, d)];
            for y in [&narrow, &wide] {
                for (lo, hi) in boxes {
                    ws.solve(y);
                    let clamped_fit: Vec<i64> = ws.fit().iter().map(|&v| v.clamp(lo, hi)).collect();
                    let clamped: Vec<i64> = y.iter().map(|&v| v.clamp(lo, hi)).collect();
                    ws.solve(&clamped);
                    prop_assert_eq!(ws.fit(), &clamped_fit[..]);
                    let mut pass = ws.begin(lo, hi);
                    pass.extend(y.iter().copied());
                    let fit = pass.finish();
                    let mut streamed = vec![0; fit.len()];
                    let mut end = fit.len();
                    for (start, value) in fit.runs_rev() {
                        streamed[start..end].fill(value);
                        end = start;
                    }
                    prop_assert_eq!(streamed, clamped_fit);
                }
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
