//! Engine-wide work-stealing scheduler primitives.
//!
//! The engine used to run one *whole release* per worker, each release
//! spawning its own scoped threads — two levels of parallelism that
//! oversubscribed cores and made batch throughput regress as workers
//! were added. This module flips the grain: every queued job is
//! expanded once into node-level subtree tasks
//! ([`hcc_consistency::subtree_tasks`]) and all engine workers drain
//! one engine-wide pool of such tasks. The pool is a set of per-worker
//! deques in the chase-lev spirit: the owner pushes and pops at the
//! back (LIFO, staying on the job it just expanded), thieves steal
//! from the front (FIFO, taking the oldest — and typically
//! largest-remaining — work). The deques are mutex-guarded
//! `VecDeque`s rather than lock-free ring buffers because `hcc-engine`
//! forbids `unsafe` code; the per-task critical section is two pointer
//! moves, invisible next to a node estimation.
//!
//! Determinism: a task only *groups* nodes. Node `i` is always
//! estimated with its own `StdRng` seeded from [`ActiveJob`]'s
//! `seeds[i]` (the [`hcc_consistency::node_seeds`] derivation), so
//! which worker runs a task — and when, and from whose deque it was
//! stolen — never changes the released bytes. The golden-hash suite
//! in `tests/golden_release.rs` pins this across worker counts.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hcc_consistency::{node_seeds, subtree_tasks};
use hcc_estimators::NodeEstimate;
use hcc_hierarchy::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fingerprint::Fingerprint;
use crate::job::{JobId, OnDone, ReleaseRequest};
use crate::locks::{Rank, RankedMutex};

/// A job whose subtree tasks are in (or entering) the task pool.
///
/// All scheduling state lives here: which nodes each task estimates,
/// the per-node RNG seeds, the estimate slots the tasks fill, the
/// countdown that tells the worker finishing the last task to run the
/// deterministic top-down phase, and the consumer that worker hands
/// the outcome to.
pub(crate) struct ActiveJob {
    /// The job's number in trace spans.
    pub id: JobId,
    /// The release being computed.
    pub request: ReleaseRequest,
    /// Result-cache key precomputed at submission (`None` when the
    /// cache is disabled).
    pub key: Option<Fingerprint>,
    /// Per-level budget slice `ε / levels`.
    pub eps_level: f64,
    /// Per-node RNG seeds in `hierarchy.iter()` order — the
    /// [`node_seeds`] derivation that makes estimates independent of
    /// scheduling.
    pub seeds: Vec<u64>,
    /// Node groups, one scheduler task each.
    pub tasks: Vec<Vec<NodeId>>,
    /// When the job was expanded; `compute_time` is measured from
    /// here, spanning every task plus the top-down phase.
    pub started: Instant,
    /// One slot per node, filled by whichever task covers it.
    estimates: RankedMutex<Vec<Option<NodeEstimate>>>,
    /// Tasks not yet finished; the worker decrementing this to zero
    /// finalizes the job.
    remaining: AtomicUsize,
    /// First failure message wins; later ones are dropped.
    failure: RankedMutex<Option<String>>,
    /// Quick-check flag for [`ActiveJob::failure`]: once set, tasks
    /// still in the pool skip their estimation work entirely.
    cancelled: AtomicBool,
    /// The job's one consumer, taken by the worker that finalizes it.
    on_done: RankedMutex<Option<OnDone>>,
}

impl ActiveJob {
    /// Expands a queued job for an engine with `workers` workers:
    /// derives the per-node seeds and partitions the hierarchy into
    /// `≈ 2 × workers` subtree tasks — enough slack for stealing to
    /// balance uneven subtrees without shredding tasks into per-node
    /// slivers.
    pub fn new(
        id: JobId,
        request: ReleaseRequest,
        key: Option<Fingerprint>,
        workers: usize,
        on_done: OnDone,
    ) -> Self {
        let mut master = StdRng::seed_from_u64(request.seed);
        let seeds = node_seeds(&request.hierarchy, &mut master);
        let eps_level = request.config.level_epsilon(request.hierarchy.num_levels());
        let tasks = subtree_tasks(&request.hierarchy, 2 * workers.max(1));
        let slots = request.hierarchy.num_nodes();
        Self {
            id,
            key,
            eps_level,
            seeds,
            remaining: AtomicUsize::new(tasks.len()),
            tasks,
            started: Instant::now(),
            estimates: RankedMutex::new(Rank::Job, vec![None; slots]),
            failure: RankedMutex::new(Rank::Job, None),
            cancelled: AtomicBool::new(false),
            on_done: RankedMutex::new(Rank::Job, Some(on_done)),
            request,
        }
    }

    /// Whether a sibling task already failed this job. Checked before
    /// estimating, so a failed job's remaining tasks drain at
    /// deque-pop speed instead of burning estimation time.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Records a task failure and cancels the job's remaining tasks.
    /// The first message is the one surfaced to waiters.
    pub fn record_failure(&self, message: String) {
        let mut failure = self.failure.lock();
        if failure.is_none() {
            *failure = Some(message);
        }
        drop(failure);
        self.cancelled.store(true, Ordering::Release);
    }

    /// Stores one task's `(node index, estimate)` results.
    pub fn store(&self, results: Vec<(usize, NodeEstimate)>) {
        let mut estimates = self.estimates.lock();
        for (index, estimate) in results {
            // hcc-lint: allow(panic-policy, reason = "index originates from node.index() of this job's own hierarchy; estimates was sized to num_nodes at construction")
            estimates[index] = Some(estimate);
        }
    }

    /// Marks one task finished; `true` means this was the last one
    /// and the caller must finalize the job.
    pub fn finish_task(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// After the last task: the full estimate vector in
    /// `hierarchy.iter()` order, or the first failure message.
    pub fn take_outcome(&self) -> Result<Vec<NodeEstimate>, String> {
        if let Some(message) = self.failure.lock().take() {
            return Err(message);
        }
        self.estimates
            .lock()
            .drain(..)
            .map(|slot| slot.ok_or_else(|| "internal: node estimate missing".to_string()))
            .collect()
    }

    /// After the last task: the job's one consumer (`None` only on a
    /// second call).
    pub fn take_on_done(&self) -> Option<OnDone> {
        self.on_done.lock().take()
    }
}

/// Admission control for the compute hot path: at most `limit`
/// workers run node tasks *simultaneously*. Extra workers still pop,
/// steal, expand jobs, and take over at every release point — they
/// just never pile more hot estimation working sets onto the cores
/// than the cores can hold. Without this, worker counts beyond the
/// host's parallelism make the OS time-slice several
/// hundreds-of-KB estimation workspaces through the same caches, and
/// throughput *drops* as workers are added; with it, oversubscribed
/// configurations degrade to the single-core schedule instead of
/// below it.
pub(crate) struct ComputeGate {
    permits: RankedMutex<usize>,
    released: std::sync::Condvar,
}

impl ComputeGate {
    pub fn new(limit: usize) -> Self {
        Self {
            permits: RankedMutex::new(Rank::Gate, limit.max(1)),
            released: std::sync::Condvar::new(),
        }
    }

    /// Blocks until a compute permit is free and takes it.
    pub fn acquire(&self) {
        let mut permits = self.permits.lock();
        while *permits == 0 {
            permits = permits.wait(&self.released);
        }
        *permits -= 1;
    }

    /// Returns a permit and wakes one waiting worker.
    pub fn release(&self) {
        let mut permits = self.permits.lock();
        *permits += 1;
        drop(permits);
        self.released.notify_one();
    }
}

/// One unit of schedulable work: estimate task `index` of `job`.
pub(crate) struct NodeTask {
    pub job: Arc<ActiveJob>,
    pub index: usize,
}

/// The engine-wide task pool: one deque per worker plus a pool-wide
/// pending count the sleep/wake protocol in `engine.rs` reads.
pub(crate) struct TaskDeques {
    lanes: Vec<RankedMutex<VecDeque<NodeTask>>>,
    /// Tasks pushed but not yet popped or stolen. Advisory on its own
    /// — sleep decisions pair it with the engine state lock (see the
    /// lost-wakeup note in `engine.rs`).
    pending: AtomicUsize,
}

impl TaskDeques {
    pub fn new(workers: usize) -> Self {
        Self {
            lanes: (0..workers.max(1))
                .map(|_| RankedMutex::new(Rank::Lanes, VecDeque::new()))
                .collect(),
            pending: AtomicUsize::new(0),
        }
    }

    /// Tasks currently sitting in the deques (not counting tasks
    /// already claimed and running).
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// Pushes every task of `job` onto `worker`'s own lane: task 0
    /// lands at the steal end, the last task at the owner's end.
    pub fn push_job(&self, worker: usize, job: &Arc<ActiveJob>) {
        // hcc-lint: allow(panic-policy, reason = "worker < lanes.len(): the caller is engine worker `worker` of the pool the lanes were sized for")
        let mut lane = self.lanes[worker].lock();
        for index in 0..job.tasks.len() {
            lane.push_back(NodeTask {
                job: Arc::clone(job),
                index,
            });
        }
        drop(lane);
        self.pending.fetch_add(job.tasks.len(), Ordering::AcqRel);
    }

    /// Owner pop: newest first, keeping the worker on the job it just
    /// expanded while thieves drain the other end.
    pub fn pop(&self, worker: usize) -> Option<NodeTask> {
        // hcc-lint: allow(panic-policy, reason = "worker < lanes.len(): the caller is engine worker `worker` of the pool the lanes were sized for")
        let task = self.lanes[worker].lock().pop_back()?;
        self.pending.fetch_sub(1, Ordering::AcqRel);
        Some(task)
    }

    /// Steals the oldest task from the first non-empty other lane,
    /// scanning round-robin from the thief's right neighbour. The
    /// second element counts empty lanes probed along the way — the
    /// scheduler telemetry's `steal_failed_probes`, which separates
    /// "stole on the first try" from "scanned the whole pool for
    /// nothing" when diagnosing steal-granularity problems.
    pub fn steal(&self, thief: usize) -> (Option<NodeTask>, usize) {
        let lanes = self.lanes.len();
        let mut failed_probes = 0;
        for offset in 1..lanes {
            let victim = (thief + offset) % lanes;
            // hcc-lint: allow(panic-policy, reason = "victim = (thief + offset) % lanes.len() is in bounds by the modulo")
            let task = self.lanes[victim].lock().pop_front();
            if let Some(task) = task {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                return (Some(task), failed_probes);
            }
            failed_probes += 1;
        }
        (None, failed_probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_consistency::{HierarchicalCounts, TopDownConfig};
    use hcc_core::CountOfCounts;
    use hcc_hierarchy::{Hierarchy, HierarchyBuilder};

    fn job(workers: usize) -> Arc<ActiveJob> {
        let mut b = HierarchyBuilder::new("root");
        let leaves: Vec<_> = (0..8)
            .map(|i| b.add_child(Hierarchy::ROOT, format!("l{i}")))
            .collect();
        let h = Arc::new(b.build());
        let data = Arc::new(
            HierarchicalCounts::from_leaves(
                &h,
                leaves
                    .iter()
                    .map(|&l| (l, CountOfCounts::from_group_sizes([1, 2, 3])))
                    .collect(),
            )
            .unwrap(),
        );
        let request = ReleaseRequest::new(h, data, TopDownConfig::new(1.0), 7);
        Arc::new(ActiveJob::new(
            JobId(0),
            request,
            None,
            workers,
            Box::new(|_| {}),
        ))
    }

    #[test]
    fn tasks_cover_every_node_and_seeds_match_node_count() {
        let job = job(2);
        let nodes = job.request.hierarchy.num_nodes();
        assert_eq!(job.seeds.len(), nodes);
        let mut seen = vec![0usize; nodes];
        for task in &job.tasks {
            for &n in task {
                seen[n.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn owner_pops_lifo_thieves_steal_fifo() {
        let deques = TaskDeques::new(2);
        let job = job(2);
        let total = job.tasks.len();
        assert!(total >= 3, "need a few tasks for order checks");
        deques.push_job(0, &job);
        assert_eq!(deques.pending(), total);

        let owned = deques.pop(0).unwrap();
        assert_eq!(owned.index, total - 1, "owner takes the newest task");
        let (stolen, failed_probes) = deques.steal(1);
        assert_eq!(stolen.unwrap().index, 0, "thief takes the oldest task");
        assert_eq!(failed_probes, 0, "lane 0 is non-empty: first probe hits");
        assert_eq!(deques.pending(), total - 2);

        // The thief's own lane is empty; it must not steal from itself.
        assert!(deques.pop(1).is_none());
        // Draining the rest empties the pool.
        while deques.steal(1).0.is_some() {}
        assert_eq!(deques.pending(), 0);
        assert!(deques.pop(0).is_none());
        // An empty pool: the failed scan probed every other lane.
        let (none, failed_probes) = deques.steal(1);
        assert!(none.is_none());
        assert_eq!(failed_probes, 1, "one victim lane in a 2-lane pool");
    }

    #[test]
    fn failure_cancels_and_first_message_wins() {
        let job = job(1);
        assert!(!job.is_cancelled());
        job.record_failure("first".into());
        job.record_failure("second".into());
        assert!(job.is_cancelled());
        for _ in 0..job.tasks.len() {
            job.finish_task();
        }
        assert_eq!(job.take_outcome().unwrap_err(), "first");
    }

    #[test]
    fn missing_estimates_surface_as_internal_error_not_panic() {
        let job = job(1);
        // Finish every task without storing anything: take_outcome
        // must degrade to an error, never index into empty slots.
        let mut last = false;
        for _ in 0..job.tasks.len() {
            last = job.finish_task();
        }
        assert!(last, "the final decrement reports last=true");
        assert!(job.take_outcome().unwrap_err().contains("internal"));
    }
}
