//! The result of an isotonic regression: a non-decreasing step
//! function described by its constant blocks.

/// A maximal constant segment of an isotonic fit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Block {
    /// Index of the first element of the block.
    pub start: usize,
    /// Number of elements in the block (≥ 1).
    pub len: usize,
    /// The fitted value shared by all elements of the block.
    pub value: f64,
}

impl Block {
    /// One-past-the-end index of the block.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// A non-decreasing step function produced by PAV.
///
/// The paper's Section 5.1 variance estimates need the *partition
/// structure* of the solution — "the consecutive entries in the
/// solution that have the same value" — which is exactly the
/// coalesced block list ([`IsotonicFit::coalesced`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IsotonicFit {
    blocks: Vec<Block>,
}

impl IsotonicFit {
    /// Wraps a block list. Blocks must tile `0..n` contiguously with
    /// non-decreasing values; this is checked with debug assertions
    /// (the solvers in this crate construct valid lists by design).
    pub fn from_blocks(blocks: Vec<Block>) -> Self {
        #[cfg(debug_assertions)]
        {
            let mut next = 0usize;
            let mut prev = f64::NEG_INFINITY;
            for b in &blocks {
                debug_assert_eq!(b.start, next, "blocks must tile contiguously");
                debug_assert!(b.len >= 1, "blocks must be non-empty");
                debug_assert!(b.value >= prev, "block values must be non-decreasing");
                next = b.end();
                prev = b.value;
            }
        }
        Self { blocks }
    }

    /// The blocks, left to right.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Total number of fitted elements.
    pub fn len(&self) -> usize {
        self.blocks.last().map(|b| b.end()).unwrap_or(0)
    }

    /// Whether the fit covers zero elements.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Expands to the dense fitted vector.
    pub fn values(&self) -> Vec<f64> {
        let mut v = Vec::new();
        self.values_into(&mut v);
        v
    }

    /// Expands the dense fitted vector into a caller-owned buffer
    /// (cleared first). The estimators call this once per node with a
    /// per-worker scratch buffer, so the expansion costs a run-length
    /// `resize` per block instead of a fresh `len()`-sized allocation
    /// per call.
    pub fn values_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.len());
        for b in &self.blocks {
            out.resize(out.len() + b.len, b.value);
        }
    }

    /// Clamps every value into `[lo, hi]` and merges blocks that the
    /// clamp made equal. Clamping an isotonic solution to a constant
    /// box yields the exact box-constrained isotonic solution for any
    /// separable convex loss.
    pub fn clamped(&self, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "invalid clamp range [{lo}, {hi}]");
        let clamped = self.blocks.iter().map(|b| Block {
            value: b.value.clamp(lo, hi),
            ..*b
        });
        Self::coalesce(clamped)
    }

    /// Merges adjacent blocks with exactly equal values, yielding the
    /// maximal-constant-run partition used for variance estimation.
    pub fn coalesced(&self) -> Self {
        Self::coalesce(self.blocks.iter().copied())
    }

    fn coalesce<I: IntoIterator<Item = Block>>(blocks: I) -> Self {
        Self {
            blocks: Coalesce::new(blocks.into_iter()).collect(),
        }
    }

    /// For each element index, the length of the maximal constant run
    /// containing it (the `|S_i|` of Section 5.1.1).
    pub fn partition_sizes(&self) -> Vec<usize> {
        let co = self.coalesced();
        let mut out = Vec::with_capacity(self.len());
        for b in co.blocks() {
            for _ in 0..b.len {
                out.push(b.len);
            }
        }
        out
    }
}

/// Merges each run of adjacent blocks with exactly equal values into
/// its first block.
pub(crate) struct Coalesce<I: Iterator<Item = Block>> {
    blocks: std::iter::Peekable<I>,
}

impl<I: Iterator<Item = Block>> Coalesce<I> {
    pub(crate) fn new(blocks: I) -> Self {
        Self {
            blocks: blocks.peekable(),
        }
    }
}

impl<I: Iterator<Item = Block>> Iterator for Coalesce<I> {
    type Item = Block;

    fn next(&mut self) -> Option<Block> {
        let mut block = self.blocks.next()?;
        while let Some(next) = self.blocks.next_if(|b| b.value == block.value) {
            block.len += next.len;
        }
        Some(block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(vals: &[(usize, f64)]) -> IsotonicFit {
        let mut blocks = Vec::new();
        let mut start = 0;
        for &(len, value) in vals {
            blocks.push(Block { start, len, value });
            start += len;
        }
        IsotonicFit::from_blocks(blocks)
    }

    #[test]
    fn values_expand_blocks() {
        let f = fit(&[(2, 1.0), (1, 3.0)]);
        assert_eq!(f.values(), vec![1.0, 1.0, 3.0]);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
    }

    #[test]
    fn values_into_replaces_stale_contents() {
        let f = fit(&[(2, 1.0), (1, 3.0)]);
        let mut out = vec![9.0; 10];
        f.values_into(&mut out);
        assert_eq!(out, f.values());
        fit(&[(1, 5.0)]).values_into(&mut out);
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn clamp_merges_saturated_blocks() {
        let f = fit(&[(1, -2.0), (1, -1.0), (1, 3.0), (1, 9.0), (1, 11.0)]);
        let c = f.clamped(0.0, 10.0);
        assert_eq!(c.values(), vec![0.0, 0.0, 3.0, 9.0, 10.0]);
        // The two negative blocks collapse into one zero block.
        assert_eq!(c.blocks().len(), 4);
    }

    #[test]
    fn partition_sizes_reflect_equal_runs() {
        // Two PAV blocks that happen to share a value count as one
        // partition for Section 5.1.
        let f = fit(&[(2, 5.0), (3, 5.0), (1, 7.0)]);
        assert_eq!(f.partition_sizes(), vec![5, 5, 5, 5, 5, 1]);
    }

    #[test]
    fn empty_fit() {
        let f = IsotonicFit::default();
        assert_eq!(f.len(), 0);
        assert!(f.is_empty());
        assert!(f.values().is_empty());
        assert!(f.partition_sizes().is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid clamp range")]
    fn clamp_rejects_inverted_range() {
        let f = fit(&[(1, 0.0)]);
        let _ = f.clamped(1.0, 0.0);
    }
}
