//! Tier-1 scaling smoke: the engine-wide work-stealing pool must
//! never scale *negatively* with worker count, and must actually
//! speed up where the hardware allows it.
//!
//! The pre-refactor engine ran two levels of parallelism (N workers ×
//! M per-job threads) and got *slower* as workers were added (−12% at
//! 4 workers in BENCH_5). This test pins the fix with assertions
//! gated on `available_parallelism()`, because the guarantee that is
//! physically checkable differs by host:
//!
//! * ≥ 4 cores: ≥1.5× speedup at 4 workers over 1, and the 1→2→4
//!   curve is monotonically non-increasing (within noise).
//! * 2–3 cores: ≥1.1× at 4 workers, same monotonicity tolerance.
//! * 1 core: no speedup is possible; assert extra workers cost no
//!   more than a noise-tolerance factor over the 1-worker burst —
//!   exactly the regression the old engine failed.
//!
//! Workload: best-of-2 8-job bursts per point via the
//! [`hcc_bench::scaling::ScalingWorkload`] harness, scaled down so the
//! test stays cheap in debug builds.

use hcc_bench::scaling::ScalingWorkload;

/// Run-to-run noise allowance on wall-clock ratios. Generous because
/// tier-1 runs in debug on shared machines; the failure it must catch
/// (systematic oversubscription slowdown) compounds well past this.
const NOISE: f64 = 1.35;

#[test]
fn batch_throughput_does_not_regress_as_workers_are_added() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut workload = ScalingWorkload::census(1e-5, 1_000);
    let curve = workload.curve(&[1, 2, 4], 2);
    let secs: Vec<f64> = curve.iter().map(|&(_, dt)| dt.as_secs_f64()).collect();
    let (t1, t2, t4) = (secs[0], secs[1], secs[2]);
    let detail = format!("1w={t1:.3}s 2w={t2:.3}s 4w={t4:.3}s cores={cores}");

    // Adding workers must never make the batch slower (the old
    // two-level engine's failure mode), on any host.
    assert!(t2 <= t1 * NOISE, "2 workers regressed: {detail}");
    assert!(t4 <= t1 * NOISE, "4 workers regressed: {detail}");

    if cores >= 4 {
        assert!(
            t1 >= 1.5 * t4,
            "4 workers on {cores} cores must be >=1.5x faster: {detail}"
        );
        assert!(t4 <= t2 * NOISE, "2->4 workers regressed: {detail}");
    } else if cores >= 2 {
        assert!(
            t1 >= 1.1 * t4,
            "4 workers on {cores} cores must be >=1.1x faster: {detail}"
        );
    }
    // 1 core: the no-regression assertions above are the whole
    // physically checkable contract.
}
