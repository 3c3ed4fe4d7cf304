//! The engine scaling-curve harness: batch-release wall time as a
//! function of engine worker count.
//!
//! The paper's census deployment is many *independent* releases over
//! shared prepared data, so the serving-scale check is the wall time
//! of an 8-job batch at several engine worker counts. Its consumer is
//! the tier-1 smoke (`tests/scaling_smoke.rs`), which asserts the
//! work-stealing scheduler actually scales (≥1.5× at 4 workers on a
//! ≥4-core host) and never *regresses* with extra workers.
//!
//! Wall-clock methodology follows DDIA's scalability framing: hold
//! the load constant (the batch), vary the resource (workers), and
//! report the response-time curve; best-of-`reps` per point removes
//! scheduler warm-up and one-off page faults, not variance you should
//! know about.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hcc_consistency::{HierarchicalCounts, LevelMethod, TopDownConfig};
use hcc_data::{housing, HousingConfig};
use hcc_engine::{Engine, EngineConfig, ReleaseRequest};
use hcc_hierarchy::Hierarchy;

/// Jobs per timed burst. Eight independent jobs keep every worker
/// count in `{1, 2, 4, 8}` saturated without letting the queue (and
/// hence queueing *policy*) dominate the measurement.
pub const BATCH: u64 = 8;

/// A reusable batch-release workload over one census-style dataset.
///
/// Seeds advance monotonically across bursts so no request ever
/// repeats — the measured path is always the full release, never the
/// result cache.
pub struct ScalingWorkload {
    hierarchy: Arc<Hierarchy>,
    data: Arc<HierarchicalCounts>,
    cfg: TopDownConfig,
    round: u64,
}

impl ScalingWorkload {
    /// The benchmark workload: the housing dataset at `scale` with the
    /// `Hc` estimator under public bound `K = bound`.
    pub fn census(scale: f64, bound: u64) -> Self {
        let ds = housing(&HousingConfig {
            scale,
            seed: 6,
            ..Default::default()
        });
        Self {
            hierarchy: Arc::new(ds.hierarchy),
            data: Arc::new(ds.data),
            cfg: TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound }),
            round: 0,
        }
    }

    /// A release request for `seed` over the workload's dataset.
    pub fn request(&self, seed: u64) -> ReleaseRequest {
        ReleaseRequest::new(
            Arc::clone(&self.hierarchy),
            Arc::clone(&self.data),
            self.cfg.clone(),
            seed,
        )
    }

    /// Submits one [`BATCH`]-job burst of fresh seeds and blocks until
    /// every job finishes, returning the burst's wall time.
    pub fn time_batch(&mut self, engine: &Engine) -> Duration {
        self.round += 1;
        let start = Instant::now();
        let ids: Vec<_> = (0..BATCH)
            .map(|i| {
                engine
                    .submit(self.request(self.round * BATCH + i))
                    .expect("scaling burst fits the default queue")
            })
            .collect();
        for id in ids {
            engine.wait(id).expect("scaling job completes");
        }
        start.elapsed()
    }

    /// Best-of-`reps` burst wall time at each worker count, each point
    /// on a freshly booted engine with the result cache disabled.
    pub fn curve(&mut self, workers: &[usize], reps: usize) -> Vec<(usize, Duration)> {
        workers
            .iter()
            .map(|&w| {
                let engine = Engine::start(
                    EngineConfig::default()
                        .with_workers(w)
                        .with_cache_capacity(0),
                );
                // Untimed warm-up burst: first-touch page faults and
                // workspace growth belong to no worker count.
                self.time_batch(&engine);
                let best = (0..reps.max(1))
                    .map(|_| self.time_batch(&engine))
                    .min()
                    .expect("reps >= 1");
                (w, best)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_never_repeat_a_seed() {
        let mut w = ScalingWorkload::census(2e-6, 200);
        let engine = Engine::start(EngineConfig::default().with_workers(2));
        w.time_batch(&engine);
        w.time_batch(&engine);
        let stats = engine.stats();
        assert_eq!(stats.submitted, 2 * BATCH);
        assert_eq!(stats.cache_hits, 0, "fresh seeds must never hit the cache");
    }

    #[test]
    fn curve_reports_every_requested_worker_count() {
        let mut w = ScalingWorkload::census(2e-6, 200);
        let curve = w.curve(&[1, 2], 1);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].0, 1);
        assert_eq!(curve[1].0, 2);
        assert!(curve.iter().all(|&(_, dt)| dt > Duration::ZERO));
    }
}
