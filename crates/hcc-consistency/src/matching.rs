//! Optimal parent–child group matching (Section 5.2, Algorithm 2).
//!
//! Every group appears once in the parent's unattributed histogram and
//! once in exactly one child's. To reconcile their two independent
//! size estimates we need a least-cost perfect matching of the
//! bipartite graph whose edge weights are `|τ.Ĥg[i] − c.Ĥg[j]|`.
//! Generic matching is `O(G³)`; the paper's Algorithm 2 exploits the
//! absolute-difference weight structure to match greedily
//! smallest-to-smallest in `O(G log G)` — and on run-length encoded
//! histograms the cost drops further to `O(R log R)` in the number of
//! distinct sizes `R`.
//!
//! Lemma 5 proves the greedy matching optimal; the property tests
//! below verify it against the sorted-order lower bound on random
//! inputs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hcc_estimators::VarianceRun;
use hcc_isotonic::apportion;

use crate::counts::ConsistencyError;

/// A compressed bundle of matched pairs: `count` groups that are the
/// `parent_size`-valued groups of the parent matched one-to-one with
/// `child_size`-valued groups of child `child`.
///
/// Within a run the paper notes the assignment is "completely
/// unimportant" (equal-sized groups are indistinguishable), so a
/// segment never needs to name individual indices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatchSegment {
    /// Index of the child (into the `children` slice given to
    /// [`match_groups`]).
    pub child: usize,
    /// Number of matched pairs in this segment.
    pub count: u64,
    /// Size estimate from the parent's histogram.
    pub parent_size: u64,
    /// Variance of the parent's estimate.
    pub parent_variance: f64,
    /// Size estimate from the child's histogram.
    pub child_size: u64,
    /// Variance of the child's estimate.
    pub child_variance: f64,
}

impl MatchSegment {
    /// The matching cost contributed by this segment:
    /// `count · |parent_size − child_size|`.
    ///
    /// Returned as `u128`: `count` and the size gap are both u64s from
    /// untrusted estimates, so the product can exceed `u64::MAX` at
    /// census scale (it used to wrap — or panic in debug — there).
    pub fn cost(&self) -> u128 {
        u128::from(self.count) * u128::from(self.parent_size.abs_diff(self.child_size))
    }
}

/// Runs Algorithm 2: matches the parent's groups to the pooled groups
/// of its children, smallest unmatched size against smallest unmatched
/// size, apportioning proportionally (largest-remainder, footnote 10)
/// when a parent run must split across children.
///
/// `parent` and each entry of `children` are the variance-annotated
/// size runs of the respective unattributed histograms, sorted by
/// strictly increasing size (as produced by
/// [`hcc_estimators::NodeEstimate::variance_runs`]).
///
/// Errors with [`ConsistencyError::GroupTotalsMismatch`] if the total
/// group counts disagree — well-formed callers guarantee
/// `τ.G = Σ_c c.G` from the public Groups table, but a served engine
/// must reject adversarial inputs instead of panicking.
pub fn match_groups(
    parent: &[VarianceRun],
    children: &[Vec<VarianceRun>],
) -> Result<Vec<MatchSegment>, ConsistencyError> {
    // Pool totals in u128: run counts are untrusted u64s, so their sum
    // must not be allowed to wrap (a wrapped sum could spuriously
    // *pass* the equality check below).
    let parent_total: u128 = parent.iter().map(|r| r.count as u128).sum();
    let child_total: u128 = children
        .iter()
        .flat_map(|c| c.iter())
        .map(|r| r.count as u128)
        .sum();
    if parent_total != child_total {
        return Err(ConsistencyError::GroupTotalsMismatch {
            parent: u64::try_from(parent_total).unwrap_or(u64::MAX),
            children: u64::try_from(child_total).unwrap_or(u64::MAX),
        });
    }

    // Per-child cursor into its run list + remaining count of the
    // current run; a min-heap over (current size, child) locates the
    // globally smallest unmatched child groups.
    let mut cursor: Vec<usize> = vec![0; children.len()];
    let mut remaining: Vec<u64> = children
        .iter()
        .map(|c| c.first().map(|r| r.count).unwrap_or(0))
        .collect();
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = children
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .map(|(i, c)| Reverse((c[0].size, i)))
        .collect();

    let mut segments: Vec<MatchSegment> = Vec::new();
    let mut pi = 0usize; // parent run index
    let mut p_remaining = parent.first().map(|r| r.count).unwrap_or(0);

    // Advances a child's cursor past an exhausted run.
    let advance_child = |c: usize,
                         cursor: &mut Vec<usize>,
                         remaining: &mut Vec<u64>,
                         heap: &mut BinaryHeap<Reverse<(u64, usize)>>| {
        cursor[c] += 1;
        if let Some(run) = children[c].get(cursor[c]) {
            remaining[c] = run.count;
            heap.push(Reverse((run.size, c)));
        } else {
            remaining[c] = 0;
        }
    };

    while pi < parent.len() {
        if p_remaining == 0 {
            pi += 1;
            p_remaining = parent.get(pi).map(|r| r.count).unwrap_or(0);
            continue;
        }
        let prun = &parent[pi];

        // Pop every child run tied at the minimum size: together they
        // form the paper's G_b.
        let Reverse((sb, first_child)) = *heap.peek().expect("children exhausted early");
        let mut gb: Vec<usize> = Vec::new();
        while let Some(&Reverse((s, c))) = heap.peek() {
            if s != sb {
                break;
            }
            heap.pop();
            gb.push(c);
        }
        debug_assert!(gb.contains(&first_child));
        // u128 again: per-child counts are individually u64, but tied
        // children pool — totals above u64::MAX pass the equality
        // check, so this sum must not wrap either.
        let gb_total: u128 = gb.iter().map(|&c| u128::from(remaining[c])).sum();

        if u128::from(p_remaining) >= gb_total {
            // |G_t| ≥ |G_b|: every child group at size sb matches now.
            for &c in &gb {
                let crun = &children[c][cursor[c]];
                segments.push(MatchSegment {
                    child: c,
                    count: remaining[c],
                    parent_size: prun.size,
                    parent_variance: prun.variance,
                    child_size: crun.size,
                    child_variance: crun.variance,
                });
                advance_child(c, &mut cursor, &mut remaining, &mut heap);
            }
            // gb_total ≤ p_remaining ≤ u64::MAX here, so the cast back
            // is exact.
            p_remaining -= gb_total as u64;
        } else {
            // |G_t| < |G_b|: apportion the parent's remaining groups
            // across the tied children proportionally.
            let weights: Vec<u64> = gb.iter().map(|&c| remaining[c]).collect();
            let shares = apportion(p_remaining, &weights);
            for (&c, &share) in gb.iter().zip(shares.iter()) {
                let crun = &children[c][cursor[c]];
                if share > 0 {
                    segments.push(MatchSegment {
                        child: c,
                        count: share,
                        parent_size: prun.size,
                        parent_variance: prun.variance,
                        child_size: crun.size,
                        child_variance: crun.variance,
                    });
                    remaining[c] -= share;
                }
                if remaining[c] == 0 {
                    advance_child(c, &mut cursor, &mut remaining, &mut heap);
                } else {
                    // Still groups left at this size: re-arm the heap.
                    heap.push(Reverse((crun.size, c)));
                }
            }
            p_remaining = 0;
        }
    }
    Ok(segments)
}

/// The optimal matching cost computed directly: sort the parent's
/// group sizes and the pooled children's group sizes and pair them in
/// order. For absolute-difference weights this is the classical
/// optimal transport on the line, so it lower-bounds (and Lemma 5:
/// equals) any matching cost. Used to cross-check [`match_groups`].
///
/// Runs entirely on run-length encodings — `O(R log R)` in the number
/// of runs `R` and `O(R)` memory. Expanding every run into a dense
/// per-group `Vec<u64>` would allocate `O(G)`, gigabytes at census
/// scale; that expansion survives only as the `dense_sorted_order_cost`
/// oracle in this module's tests.
/// As before, `parent` must arrive sorted by size (it does by
/// construction); extra groups on the longer side are ignored, like
/// the dense zip truncating at the shorter sequence.
pub fn sorted_order_cost(parent: &[VarianceRun], children: &[Vec<VarianceRun>]) -> u128 {
    // Pool the children's runs and sort by size; equal sizes need no
    // merging — the pairing below just consumes them consecutively.
    let mut pooled: Vec<(u64, u64)> = children
        .iter()
        .flat_map(|ch| ch.iter().map(|r| (r.size, r.count)))
        .collect();
    pooled.sort_unstable_by_key(|&(size, _)| size);

    let mut cost = 0u128;
    let mut ci = 0usize;
    let mut c_rem = pooled.first().map(|&(_, count)| count).unwrap_or(0);
    for prun in parent {
        let mut p_rem = prun.count;
        while p_rem > 0 {
            if c_rem == 0 {
                ci += 1;
                match pooled.get(ci) {
                    Some(&(_, count)) => c_rem = count,
                    None => return cost, // children exhausted
                }
                continue;
            }
            let take = p_rem.min(c_rem);
            cost += u128::from(take) * u128::from(prun.size.abs_diff(pooled[ci].0));
            p_rem -= take;
            c_rem -= take;
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn runs(pairs: &[(u64, u64)]) -> Vec<VarianceRun> {
        pairs
            .iter()
            .map(|&(size, count)| VarianceRun {
                size,
                count,
                variance: 1.0,
            })
            .collect()
    }

    fn total_cost(segs: &[MatchSegment]) -> u128 {
        segs.iter().map(|s| s.cost()).sum()
    }

    fn matched_per_child(segs: &[MatchSegment], n: usize) -> Vec<u64> {
        let mut out = vec![0u64; n];
        for s in segs {
            out[s.child] += s.count;
        }
        out
    }

    /// The seed `sorted_order_cost`: expands every run into dense
    /// per-group vectors. Kept only as the regression oracle for the
    /// run-length rewrite (it allocates O(G)).
    fn dense_sorted_order_cost(parent: &[VarianceRun], children: &[Vec<VarianceRun>]) -> u128 {
        let expand = |runs: &[VarianceRun]| -> Vec<u64> {
            let mut v = Vec::new();
            for r in runs {
                for _ in 0..r.count {
                    v.push(r.size);
                }
            }
            v
        };
        let p = expand(parent);
        let mut c: Vec<u64> = children.iter().flat_map(|ch| expand(ch)).collect();
        c.sort_unstable();
        p.iter()
            .zip(c.iter())
            .map(|(&a, &b)| u128::from(a.abs_diff(b)))
            .sum()
    }

    #[test]
    fn run_length_cost_matches_dense_on_edge_shapes() {
        let cases: Vec<(Vec<VarianceRun>, Vec<Vec<VarianceRun>>)> = vec![
            // Empty everything.
            (runs(&[]), vec![]),
            (runs(&[]), vec![runs(&[]), runs(&[])]),
            // Parent longer than the pooled children (zip truncates).
            (runs(&[(1, 5), (9, 2)]), vec![runs(&[(3, 4)])]),
            // Children longer than the parent.
            (runs(&[(4, 1)]), vec![runs(&[(1, 3)]), runs(&[(2, 3)])]),
            // Duplicate sizes across children, zero-count runs mixed in.
            (
                runs(&[(2, 6), (7, 3)]),
                vec![runs(&[(2, 2), (5, 0), (9, 3)]), runs(&[(2, 4)])],
            ),
        ];
        for (parent, children) in cases {
            assert_eq!(
                sorted_order_cost(&parent, &children),
                dense_sorted_order_cost(&parent, &children),
                "parent {parent:?} children {children:?}"
            );
        }
    }

    #[test]
    fn run_length_cost_handles_census_scale_counts() {
        // The dense oracle would need u64::MAX expansions here; the
        // run-length form must answer exactly in O(runs).
        let parent = runs(&[(10, u64::MAX), (20, 3)]);
        let children = vec![runs(&[(12, u64::MAX)]), runs(&[(27, 3)])];
        // u64::MAX pairs move |10-12| = 2, three pairs move |20-27| = 7.
        assert_eq!(
            sorted_order_cost(&parent, &children),
            2 * u128::from(u64::MAX) + 21
        );
    }

    #[test]
    fn exact_sizes_match_with_zero_cost() {
        let parent = runs(&[(1, 2), (2, 1), (3, 2)]);
        let c1 = runs(&[(1, 1), (3, 2)]);
        let c2 = runs(&[(1, 1), (2, 1)]);
        let segs = match_groups(&parent, &[c1, c2]).unwrap();
        assert_eq!(total_cost(&segs), 0);
        assert_eq!(matched_per_child(&segs, 2), vec![3, 2]);
    }

    #[test]
    fn paper_proportional_example() {
        // §5.2.1: parent has 300 groups of size 1; children c1, c2, c3
        // have 200, 100, 100 groups of size 1 (400 total, so 100 child
        // groups of size 1 remain and must match parent size-2 groups).
        let parent = runs(&[(1, 300), (2, 100)]);
        let children = vec![runs(&[(1, 200)]), runs(&[(1, 100)]), runs(&[(1, 100)])];
        let segs = match_groups(&parent, &children).unwrap();
        // The 300 parent size-1 groups split 50% / 25% / 25%.
        let at_size1: Vec<u64> = (0..3)
            .map(|c| {
                segs.iter()
                    .filter(|s| s.child == c && s.parent_size == 1)
                    .map(|s| s.count)
                    .sum()
            })
            .collect();
        assert_eq!(at_size1, vec![150, 75, 75]);
        // The leftover 100 child size-1 groups match parent size-2.
        let leftover: u64 = segs
            .iter()
            .filter(|s| s.parent_size == 2)
            .map(|s| s.count)
            .sum();
        assert_eq!(leftover, 100);
        assert_eq!(total_cost(&segs), 100); // 100 pairs at |2-1| = 1
    }

    #[test]
    fn single_child_is_identity_pairing() {
        let parent = runs(&[(1, 1), (5, 1), (9, 1)]);
        let child = runs(&[(2, 1), (4, 1), (9, 1)]);
        let segs = match_groups(&parent, std::slice::from_ref(&child)).unwrap();
        assert_eq!(total_cost(&segs), sorted_order_cost(&parent, &[child]));
    }

    #[test]
    fn mismatched_totals_are_an_error_not_a_panic() {
        // Regression: this used to assert (killing an engine worker on
        // adversarial input); it must surface as a typed error.
        let parent = runs(&[(1, 2)]);
        let child = runs(&[(1, 1)]);
        let err = match_groups(&parent, &[child]).unwrap_err();
        assert_eq!(
            err,
            ConsistencyError::GroupTotalsMismatch {
                parent: 2,
                children: 1
            }
        );
        assert!(err.to_string().contains("children pool"), "{err}");
    }

    #[test]
    fn pooled_totals_beyond_u64_do_not_wrap_mid_match() {
        // Regression: totals above u64::MAX pass the (u128) equality
        // check, but the per-tie pool `gb_total` and apportion's
        // weight sum used to still accumulate in u64 — a debug panic
        // (dead engine worker) or wrapped totals emitting corrupt
        // segments in release.
        let parent = runs(&[(5, u64::MAX), (6, 1)]);
        let children = vec![runs(&[(5, u64::MAX)]), runs(&[(5, 1)])];
        let segs = match_groups(&parent, &children).unwrap();
        let matched: Vec<u128> = (0..2)
            .map(|c| {
                segs.iter()
                    .filter(|s| s.child == c)
                    .map(|s| u128::from(s.count))
                    .sum()
            })
            .collect();
        assert_eq!(matched, vec![u128::from(u64::MAX), 1]);
        // Exactly one leftover child group matches the size-6 parent
        // group: total cost 1.
        assert_eq!(total_cost(&segs), 1);
    }

    #[test]
    fn segment_cost_does_not_overflow_u64() {
        // Regression: `cost` used to multiply count × |Δsize| in u64,
        // which wraps (debug: panics) for census-scale counts against
        // an adversarial size estimate. u64::MAX groups that each
        // moved 3 sizes must report the exact u128 cost.
        let seg = MatchSegment {
            child: 0,
            count: u64::MAX,
            parent_size: 1,
            parent_variance: 1.0,
            child_size: 4,
            child_variance: 1.0,
        };
        assert_eq!(seg.cost(), 3 * u128::from(u64::MAX));
        // The summation sites accumulate in u128 too: two such
        // segments together exceed any u64.
        let total = total_cost(&[seg, seg]);
        assert_eq!(total, 6 * u128::from(u64::MAX));
        assert!(total > u128::from(u64::MAX));
    }

    #[test]
    fn empty_parent_and_children() {
        let segs = match_groups(&[], &[vec![], vec![]]).unwrap();
        assert!(segs.is_empty());
    }

    #[test]
    fn variances_are_carried_through() {
        let parent = vec![VarianceRun {
            size: 3,
            count: 1,
            variance: 0.25,
        }];
        let child = vec![VarianceRun {
            size: 4,
            count: 1,
            variance: 4.0,
        }];
        let segs = match_groups(&parent, &[child]).unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].parent_variance, 0.25);
        assert_eq!(segs[0].child_variance, 4.0);
        assert_eq!(segs[0].cost(), 1);
    }

    // Random parent/children decompositions: Algorithm 2's cost must
    // equal the sorted-order optimal transport cost (Lemma 5), every
    // child must have all its groups matched, and the number of
    // segments stays run-polynomial.
    proptest! {
        /// The run-length sorted-order cost equals the dense expansion
        /// it replaced, including mismatched totals (zip truncation)
        /// and duplicate sizes scattered across children.
        #[test]
        fn run_length_cost_matches_dense(
            parent_runs in prop::collection::vec((0u64..40, 0u64..6), 0..12),
            child_runs in prop::collection::vec((0u64..40, 0u64..6), 0..20),
            nchild in 1usize..4,
        ) {
            // Parent must be sorted by size (as produced by
            // variance_runs); children need no order.
            let mut sorted = parent_runs.clone();
            sorted.sort_unstable_by_key(|&(size, _)| size);
            let parent: Vec<VarianceRun> = sorted
                .into_iter()
                .map(|(size, count)| VarianceRun { size, count, variance: 1.0 })
                .collect();
            let mut children: Vec<Vec<VarianceRun>> = vec![Vec::new(); nchild];
            for (k, &(size, count)) in child_runs.iter().enumerate() {
                children[k % nchild].push(VarianceRun { size, count, variance: 1.0 });
            }
            for c in &mut children {
                c.sort_unstable_by_key(|r| r.size);
            }
            prop_assert_eq!(
                sorted_order_cost(&parent, &children),
                dense_sorted_order_cost(&parent, &children)
            );
        }

        #[test]
        fn greedy_matching_is_optimal(
            sizes in prop::collection::vec((0u64..30, 1u64..5), 1..20),
            nchild in 1usize..5,
            assignment in prop::collection::vec(0usize..5, 20),
        ) {
            // Build children by scattering runs, then derive a parent
            // with a *different* (noisy) view: here simply the pooled
            // child sizes re-labelled — the parent's multiset size must
            // equal the pool, values may differ arbitrarily; emulate by
            // shifting sizes.
            let mut children: Vec<Vec<VarianceRun>> = vec![Vec::new(); nchild];
            let mut pool = 0u64;
            for (k, &(size, count)) in sizes.iter().enumerate() {
                let c = assignment[k % assignment.len()] % nchild;
                children[c].push(VarianceRun { size, count, variance: 1.0 });
                pool += count;
            }
            for c in &mut children {
                c.sort_by_key(|r| r.size);
                // merge duplicate sizes
                let mut merged: Vec<VarianceRun> = Vec::new();
                for r in c.drain(..) {
                    match merged.last_mut() {
                        Some(last) if last.size == r.size => last.count += r.count,
                        _ => merged.push(r),
                    }
                }
                *c = merged;
            }
            // Parent: same number of groups, sizes shifted by +1 in a
            // single run-length list (distinct multiset).
            let parent = vec![VarianceRun { size: 7, count: pool, variance: 1.0 }];
            let segs = match_groups(&parent, &children).unwrap();
            prop_assert_eq!(total_cost(&segs), sorted_order_cost(&parent, &children));
            let per_child = matched_per_child(&segs, nchild);
            for (c, runs) in children.iter().enumerate() {
                let expect: u64 = runs.iter().map(|r| r.count).sum();
                prop_assert_eq!(per_child[c], expect);
            }
        }

        #[test]
        fn greedy_matching_optimal_general_parent(
            child_sizes in prop::collection::vec((0u64..25, 1u64..4), 1..15),
            parent_shift in prop::collection::vec(-3i64..4, 15),
            nchild in 1usize..4,
        ) {
            // Children: scatter runs round-robin.
            let mut children: Vec<Vec<VarianceRun>> = vec![Vec::new(); nchild];
            let mut all: Vec<u64> = Vec::new();
            for (k, &(size, count)) in child_sizes.iter().enumerate() {
                children[k % nchild].push(VarianceRun { size, count, variance: 1.0 });
                for _ in 0..count {
                    all.push(size);
                }
            }
            for c in &mut children {
                c.sort_by_key(|r| r.size);
                let mut merged: Vec<VarianceRun> = Vec::new();
                for r in c.drain(..) {
                    match merged.last_mut() {
                        Some(last) if last.size == r.size => last.count += r.count,
                        _ => merged.push(r),
                    }
                }
                *c = merged;
            }
            // Parent: perturb each pooled size by a small shift, then
            // re-encode as runs (keeps the multiset size equal).
            all.sort_unstable();
            let shifted: Vec<u64> = all.iter().enumerate()
                .map(|(i, &s)| (s as i64 + parent_shift[i % parent_shift.len()]).max(0) as u64)
                .collect();
            let mut sorted = shifted.clone();
            sorted.sort_unstable();
            let mut parent: Vec<VarianceRun> = Vec::new();
            for s in sorted {
                match parent.last_mut() {
                    Some(last) if last.size == s => last.count += 1,
                    _ => parent.push(VarianceRun { size: s, count: 1, variance: 1.0 }),
                }
            }
            let segs = match_groups(&parent, &children).unwrap();
            prop_assert_eq!(total_cost(&segs), sorted_order_cost(&parent, &children));
            let per_child = matched_per_child(&segs, nchild);
            for (c, runs) in children.iter().enumerate() {
                let expect: u64 = runs.iter().map(|r| r.count).sum();
                prop_assert_eq!(per_child[c], expect);
            }
        }
    }
}
