//! A warm workspace holds every served kernel's scratch, so estimating
//! a node allocates only the estimate itself: its run list, its dense
//! counts and its per-run variances, 3 allocations for `Hc` (L1 and
//! L2) and `Hg` alike. The slope-trick heap, the PAV pool stack and
//! the `Hc` fit's runs stop growing once the workspace has seen the
//! nodes.
//!
//! A counting global allocator tallies allocations per thread, so
//! tests running on other threads do not add to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hccount::core::CountOfCounts;
use hccount::estimators::{EstimatorWorkspace, LevelMethod};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation and reallocation on
/// the calling thread.
struct Counting;

fn count() {
    // A thread's allocations after its locals are torn down go
    // uncounted; none of them are the ones measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its caller's arguments unchanged to
// `System`, so `System`'s guarantees are the caller's; the count is a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Nodes shaped like the `national_hc` workload's: thousands of groups
/// at small sizes, a few hundred spread wide, and two sizes only.
fn nodes() -> Vec<CountOfCounts> {
    vec![
        CountOfCounts::from_group_sizes((0..2_500u64).map(|i| 1 + (i * 7_919) % 14)),
        CountOfCounts::from_group_sizes((0..400u64).map(|i| (i * i) % 3_000)),
        CountOfCounts::from_counts(vec![0, 1_000, 0, 20]),
    ]
}

#[test]
fn a_warm_node_allocates_three_times() {
    let nodes = nodes();
    for method in [
        LevelMethod::Cumulative { bound: 20_000 },
        LevelMethod::CumulativeL2 { bound: 20_000 },
        LevelMethod::Unattributed,
    ] {
        let mut ws = EstimatorWorkspace::new();
        // The same nodes and seeds twice: the first pass grows every
        // buffer to what the second needs.
        let pass = |ws: &mut EstimatorWorkspace| -> Vec<u64> {
            nodes
                .iter()
                .enumerate()
                .map(|(i, hist)| {
                    let g = hist.num_groups();
                    let mut rng = StdRng::seed_from_u64(i as u64);
                    allocations(|| drop(method.estimate_in(hist, g, 0.25, &mut rng, ws)))
                })
                .collect()
        };
        pass(&mut ws);
        let warm = pass(&mut ws);
        assert_eq!(
            warm,
            vec![3; nodes.len()],
            "{}: allocations per warm node",
            method.name()
        );
    }
}
