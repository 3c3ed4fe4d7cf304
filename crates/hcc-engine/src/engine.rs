//! The release engine: a bounded job queue drained by one engine-wide
//! work-stealing worker pool, fronted by the result cache.
//!
//! Lifecycle of a job:
//!
//! ```text
//! submit_with(submission, on_done) ─▶ queued ─▶ running ─▶ Done { result, from_cache }
//!        │                                        └─────▶ Failed(message)
//!        ├─▶ Done { from_cache: true } instantly on a cache hit
//!        └─▶ Err(QueueFull) when the bounded queue is at capacity
//! ```
//!
//! The consumer is part of the submission: the queued job, and then
//! the running one, carries `on_done` until the terminal status is
//! handed to it, so the engine keeps no table of jobs and never looks
//! one up. [`Engine::submit`] binds a channel whose receiving end is
//! the returned [`Ticket`], which [`Engine::wait`] redeems. Repeat
//! requests are served by the result cache.
//!
//! Admission consults the [`ResultCache`] by request
//! fingerprint first, so hits complete at submission without touching
//! the queue. Execution is a single level of parallelism: a worker
//! with nothing to run pops the next queued job, re-checks the cache
//! (an identical job may have finished in the meantime), and *expands*
//! it into node-level subtree tasks pushed onto its own deque
//! ([`crate::scheduler`]); all workers pop their own deque LIFO and
//! steal FIFO from the others, interleaving tasks from every in-flight
//! job. Each worker permanently owns one [`EstimatorWorkspace`], so
//! the node-task hot path takes no pool lock — and neither the result
//! cache nor the prepared-dataset registry sits on it (each lives
//! behind its own mutex, touched only at job granularity). Jobs are
//! only expanded when the task pool is dry, which keeps the number of
//! concurrently-active working sets near the core count instead of
//! the queue depth. Dropping the engine finishes every queued job,
//! then joins the pool.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar};
use std::thread::JoinHandle;
use std::time::Instant;

use hcc_consistency::{
    estimate_node, to_csv, top_down_from_estimates, ConsistencyError, HierarchicalCounts,
    TopDownConfig,
};
use hcc_estimators::EstimatorWorkspace;
use hcc_hierarchy::Hierarchy;
use hcc_store::Store;

use crate::cache::ResultCache;
use crate::fingerprint::{dataset_fingerprint, request_fingerprint, Fingerprint};
use crate::job::{
    EngineError, JobId, JobStatus, OnDone, ReleaseRequest, ReleaseResult, Submission, Ticket,
};
use crate::ledger::Ledger;
use crate::locks::{Rank, RankedGuard, RankedMutex};
use crate::registry::{DatasetHandle, DatasetRegistry};
use crate::scheduler::{ActiveJob, ComputeGate, NodeTask, TaskDeques};
use crate::telemetry::{MethodKind, SpanEvent, SpanKind, Telemetry, TelemetrySnapshot};

/// Sizing knobs for [`Engine::start`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads in the engine-wide work-stealing pool. This is
    /// the engine's *only* parallelism: releases decompose into node
    /// tasks drained by these workers, with no per-job thread spawns.
    pub workers: usize,
    /// How many workers may run node tasks *simultaneously* —
    /// `None` (the default) means `min(workers, available
    /// parallelism)`. Worker threads beyond this limit still pop,
    /// steal, and expand jobs; they just wait their turn at the
    /// compute gate, so oversubscribed worker counts add scheduling
    /// diversity without time-slicing more estimation working sets
    /// through the caches than the cores can hold. Tests force full
    /// oversubscription contention with
    /// [`EngineConfig::with_active_limit`]`(workers)`.
    pub active_limit: Option<usize>,
    /// Bounded queue capacity; [`Engine::submit`] returns
    /// [`EngineError::QueueFull`] beyond it.
    pub queue_capacity: usize,
    /// Result-cache capacity in releases; `0` disables caching.
    pub cache_capacity: usize,
    /// Capacity of the prepared-dataset registry in datasets; beyond
    /// it, the least-recently-used dataset is evicted. `0` disables
    /// [`Engine::prepare`].
    pub prepared_capacity: usize,
    /// Per-worker span-ring capacity for the telemetry trace recorder
    /// (`0`, the default, disables span recording; counters and
    /// histograms are always on). When full, the oldest spans are
    /// overwritten and counted as dropped.
    pub trace_capacity: usize,
    /// Per-dataset privacy-budget cap: a submission whose cumulative
    /// ε charge against its dataset would exceed this is rejected
    /// with [`EngineError::BudgetExhausted`] *before* any budget is
    /// charged or noise drawn. A cap needs the durable store of
    /// [`Engine::start_with_store`]. `None` (the default) disables
    /// enforcement; a store still records every charge.
    pub budget_cap: Option<f64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            active_limit: None,
            queue_capacity: 64,
            cache_capacity: 32,
            prepared_capacity: 16,
            trace_capacity: 0,
            budget_cap: None,
        }
    }
}

impl EngineConfig {
    /// Sets the worker-pool size.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Caps how many workers compute simultaneously (see
    /// [`EngineConfig::active_limit`]).
    pub fn with_active_limit(mut self, limit: usize) -> Self {
        assert!(limit >= 1, "active limit must be at least 1");
        self.active_limit = Some(limit);
        self
    }

    /// The effective compute-gate width: the configured
    /// [`EngineConfig::active_limit`], or `min(workers, available
    /// parallelism)` when unset.
    pub fn effective_active_limit(&self) -> usize {
        self.active_limit.unwrap_or_else(|| {
            let cores = std::thread::available_parallelism().map_or(self.workers, |n| n.get());
            self.workers.min(cores).max(1)
        })
    }

    /// Sets the bounded queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        self.queue_capacity = capacity;
        self
    }

    /// Sets the result-cache capacity (`0` disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the prepared-dataset registry capacity (`0` disables
    /// preparation).
    pub fn with_prepared_capacity(mut self, capacity: usize) -> Self {
        self.prepared_capacity = capacity;
        self
    }

    /// Enables the span recorder with the given per-worker ring
    /// capacity (`0` disables recording; see
    /// [`EngineConfig::trace_capacity`]).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Caps the cumulative per-dataset privacy spend (see
    /// [`EngineConfig::budget_cap`]).
    pub fn with_budget_cap(mut self, cap: f64) -> Self {
        assert!(
            cap.is_finite() && cap > 0.0,
            "budget cap must be positive and finite"
        );
        self.budget_cap = Some(cap);
        self
    }
}

/// Point-in-time counters. The snapshot is internally consistent:
/// the job counters are copied together under the engine state lock,
/// so `completed + failed ≤ submitted` always holds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs admitted by [`Engine::submit_with`] (cache hits included).
    pub submitted: u64,
    /// Jobs finished successfully (cache hits included).
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Completions served from the result cache.
    pub cache_hits: u64,
    /// Completions that had to compute.
    pub cache_misses: u64,
    /// `PREPARE` calls accepted (repeat preparations of identical
    /// content included).
    pub prepared: u64,
    /// `DERIVE`/`APPEND` calls accepted.
    pub derived: u64,
    /// Node-level subtree tasks executed by the work-stealing pool.
    pub tasks_executed: u64,
    /// Tasks a worker stole from another worker's deque (a subset of
    /// `tasks_executed`; high ratios mean the pool is load-balancing).
    pub tasks_stolen: u64,
}

struct QueuedJob {
    id: JobId,
    request: ReleaseRequest,
    /// Precomputed at submission (None when caching is disabled) so
    /// workers never re-hash the request.
    key: Option<Fingerprint>,
    /// When [`Engine::submit_with`] accepted the job; queue-wait
    /// telemetry measures from here to expansion.
    submitted_at: Instant,
    /// The job's one consumer.
    on_done: OnDone,
}

/// Counters with no cross-field invariant, updated off the job
/// lifecycle: relaxed atomics are fine here. The *job* counters
/// (submitted/completed/failed/cache hits/misses) live in [`State`]
/// instead, under the state lock, so a [`Engine::stats`] snapshot is
/// internally consistent — `completed + failed ≤ submitted` and
/// `cache_hits + cache_misses ≤ submitted` hold mid-flight, which
/// separate atomics read field-by-field cannot guarantee.
#[derive(Default)]
struct Counters {
    prepared: AtomicU64,
    derived: AtomicU64,
}

struct State {
    queue: VecDeque<QueuedJob>,
    next_id: u64,
    /// Job-lifecycle counters (see [`Counters`] for why they live
    /// under the lock). Every writer already holds the lock at the
    /// increment site, so this costs nothing extra.
    submitted: u64,
    completed: u64,
    failed: u64,
    cache_hits: u64,
    cache_misses: u64,
}

struct Shared {
    state: RankedMutex<State>,
    /// Signalled when a job is queued, a job's tasks enter the pool,
    /// or the engine shuts down.
    ///
    /// Lost-wakeup protocol: a worker only sleeps after observing, in
    /// one critical section of `state`, that the queue is empty *and*
    /// [`TaskDeques::pending`] is zero; every pusher makes its work
    /// visible first, then passes through the `state` lock before
    /// notifying. A pusher racing a would-be sleeper therefore either
    /// publishes before the sleeper's check, or notifies after the
    /// sleeper is parked on the condvar.
    work: Condvar,
    /// Completed releases by request fingerprint. Its own lock, off
    /// the node-task path: touched once per job at expansion (hit
    /// re-check) and once at finalisation (insert), never per task.
    cache: RankedMutex<ResultCache>,
    /// Prepared datasets. Its own lock for the same reason — handle
    /// resolution at submission never contends with running tasks.
    registry: RankedMutex<DatasetRegistry>,
    /// Budget ledger over the durable store; `None` without a store,
    /// so the common ephemeral configuration pays nothing on the
    /// submit path.
    ledger: Option<RankedMutex<Ledger>>,
    /// The engine-wide work-stealing task pool.
    deques: TaskDeques,
    /// Caps simultaneous compute (see [`EngineConfig::active_limit`]).
    gate: ComputeGate,
    shutting_down: AtomicBool,
    counters: Counters,
    /// Per-worker metrics and the span recorder
    /// ([`crate::telemetry`]).
    telemetry: Telemetry,
    config: EngineConfig,
}

/// A long-running release service: submit jobs, each with its one
/// consumer, and share results through the cache.
///
/// ```
/// use std::sync::Arc;
/// use hcc_consistency::{HierarchicalCounts, TopDownConfig};
/// use hcc_core::CountOfCounts;
/// use hcc_engine::{Engine, EngineConfig, ReleaseRequest};
/// use hcc_hierarchy::{Hierarchy, HierarchyBuilder};
///
/// let mut b = HierarchyBuilder::new("country");
/// let va = b.add_child(Hierarchy::ROOT, "VA");
/// let hierarchy = Arc::new(b.build());
/// let data = Arc::new(HierarchicalCounts::from_leaves(
///     &hierarchy,
///     vec![(va, CountOfCounts::from_group_sizes([1, 2, 2]))],
/// ).unwrap());
///
/// let engine = Engine::start(EngineConfig::default());
/// let req = ReleaseRequest::new(hierarchy, data, TopDownConfig::new(1.0), 7);
/// let ticket = engine.submit(req).unwrap();
/// let (result, _from_cache) = engine.wait(ticket).unwrap();
/// assert!(result.csv.starts_with("region,level,size,count"));
/// ```
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Boots the worker pool without a durable store.
    ///
    /// # Panics
    ///
    /// If [`EngineConfig::budget_cap`] is set: a cap that a restart
    /// resets does not bound ε, so it needs [`Engine::start_with_store`].
    pub fn start(config: EngineConfig) -> Self {
        assert!(
            config.budget_cap.is_none(),
            "a budget cap needs a durable store: boot with Engine::start_with_store"
        );
        let registry = DatasetRegistry::new(config.prepared_capacity);
        Self::boot(config, registry, None)
    }

    /// Boots the worker pool on top of an already-opened durable
    /// store: every dataset the store holds is rebuilt and re-registered
    /// at its persisted reference count, and the budget ledger resumes
    /// from the recovered cumulative charges.
    ///
    /// Each reloaded dataset's content fingerprint is **recomputed
    /// from the reloaded bytes** and must equal the stored handle —
    /// a mismatch means the snapshot or WAL replay did not reproduce
    /// the acknowledged data byte-identically, and boot fails rather
    /// than serving silently different data under an old handle.
    pub fn start_with_store(config: EngineConfig, store: Store) -> Result<Self, EngineError> {
        let mut registry = DatasetRegistry::new(config.prepared_capacity);
        let ledger = Ledger::recover(config.budget_cap, store, &mut registry)?;
        Ok(Self::boot(config, registry, Some(ledger)))
    }

    fn boot(config: EngineConfig, registry: DatasetRegistry, ledger: Option<Ledger>) -> Self {
        assert!(config.workers >= 1, "need at least one worker");
        let shared = Arc::new(Shared {
            state: RankedMutex::new(
                Rank::State,
                State {
                    queue: VecDeque::new(),
                    next_id: 0,
                    submitted: 0,
                    completed: 0,
                    failed: 0,
                    cache_hits: 0,
                    cache_misses: 0,
                },
            ),
            work: Condvar::new(),
            cache: RankedMutex::new(Rank::Cache, ResultCache::new(config.cache_capacity)),
            registry: RankedMutex::new(Rank::Registry, registry),
            ledger: ledger.map(|l| RankedMutex::new(Rank::Store, l)),
            deques: TaskDeques::new(config.workers),
            gate: ComputeGate::new(config.effective_active_limit()),
            shutting_down: AtomicBool::new(false),
            counters: Counters::default(),
            telemetry: Telemetry::new(config.workers, config.trace_capacity),
            config: config.clone(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hcc-engine-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    // hcc-lint: allow(panic-policy, reason = "startup fail-fast: an engine that cannot spawn its pool has no degraded mode to fall back to")
                    .expect("spawning engine worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Enqueues a release job, returning the [`Ticket`] that
    /// [`Engine::wait`] redeems: [`Engine::submit_with`] with a
    /// channel as the consumer. Dropping the ticket drops the outcome
    /// as soon as the job ends.
    pub fn submit(&self, request: ReleaseRequest) -> Result<Ticket, EngineError> {
        self.ticketed(Submission::Inline(request))
    }

    /// Admits a job together with its one consumer: `on_done` is
    /// called exactly once with the job's terminal status. A request
    /// whose release is already cached completes at submission — it
    /// consumes no queue slot and no worker dispatch, so cache hits
    /// are never rejected by a full queue.
    ///
    /// On such a cache hit `on_done` runs on the calling thread before
    /// this returns; otherwise it runs on the worker thread that
    /// finishes the job. Either way it is invoked *outside* every
    /// engine lock, so it may call back into the engine (e.g. submit
    /// a follow-up job) freely — but it must stay cheap, since on the
    /// deferred path it borrows a pool worker. Its panics are caught
    /// and discarded; they never take down a worker.
    ///
    /// Fails with [`EngineError::QueueFull`] when the bounded queue is
    /// at capacity — callers decide whether to retry, shed load, or
    /// block. On any error the job was not admitted and `on_done` is
    /// dropped uncalled.
    pub fn submit_with(
        &self,
        submission: Submission,
        on_done: impl FnOnce(JobStatus) + Send + 'static,
    ) -> Result<(), EngineError> {
        let on_done: OnDone = Box::new(on_done);
        match submission {
            Submission::Inline(request) => {
                // The dataset digest serves double duty: the cache key
                // folds it with config + seed, and the budget ledger
                // charges against it — so an inline submission of the
                // same tables a client PREPAREd draws from the same
                // budget line.
                let dataset = (self.shared.config.cache_capacity > 0)
                    .then(|| dataset_fingerprint(&request.hierarchy, &request.data));
                let key = dataset.map(|ds| {
                    request_fingerprint(
                        ds,
                        request.hierarchy.num_levels(),
                        &request.config,
                        request.seed,
                    )
                });
                self.admit(request, key, dataset, on_done)
            }
            Submission::Prepared {
                handle,
                config,
                seed,
            } => {
                // Resolution holds only the registry lock; the job
                // keeps its `Arc`s from here on, so a concurrent
                // unprepare/eviction can't invalidate the submission
                // being admitted. The cache key costs O(levels), not a
                // data walk.
                let (hierarchy, data) = self.lock_registry().get(handle)?;
                let key = (self.shared.config.cache_capacity > 0)
                    .then(|| request_fingerprint(handle.0, hierarchy.num_levels(), &config, seed));
                self.admit(
                    ReleaseRequest::new(hierarchy, data, config, seed),
                    key,
                    Some(handle.0),
                    on_done,
                )
            }
        }
    }

    /// [`Engine::submit_with`] whose consumer is a channel; the
    /// ticket holds the receiving end.
    fn ticketed(&self, submission: Submission) -> Result<Ticket, EngineError> {
        let (tx, rx) = mpsc::channel();
        self.submit_with(submission, move |status| {
            // With the ticket dropped the send fails, and the status —
            // the release in it — is dropped right here.
            let _ = tx.send(status);
        })?;
        Ok(Ticket(rx))
    }

    /// Registers a dataset in the prepared registry, returning its
    /// content-addressed handle. Preparing identical content again
    /// returns the same handle and adds a reference; beyond the
    /// configured capacity the least-recently-used dataset is
    /// evicted. Submissions via [`Engine::submit_prepared`] skip the
    /// data digest entirely.
    pub fn prepare(
        &self,
        hierarchy: Arc<Hierarchy>,
        data: Arc<HierarchicalCounts>,
    ) -> Result<DatasetHandle, EngineError> {
        // The content digest scans every histogram cell; compute it
        // before taking the lock.
        let handle = DatasetHandle(dataset_fingerprint(&hierarchy, &data));
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(EngineError::ShuttingDown);
        }
        self.register_dataset(handle, hierarchy, data)?;
        self.shared
            .counters
            .prepared
            .fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }

    /// Inserts into the registry and, when a durable store is
    /// attached, persists the new state *before* the handle is
    /// acknowledged: a `PREPARE`/`DERIVE` only returns `OK` once the
    /// dataset (or its refcount bump) is WAL-appended and fsynced.
    /// On a store failure the in-memory insert is rolled back, so
    /// memory never runs ahead of disk for acknowledged handles.
    ///
    /// The registry lock is held across the persist (rank `registry`
    /// < rank `store`), keeping on-disk reference counts ordered
    /// identically to the in-memory ones under concurrent
    /// prepare/unprepare of one handle.
    fn register_dataset(
        &self,
        handle: DatasetHandle,
        hierarchy: Arc<Hierarchy>,
        data: Arc<HierarchicalCounts>,
    ) -> Result<(), EngineError> {
        let mut registry = self.lock_registry();
        let (refs, evicted) = registry.insert(handle, Arc::clone(&hierarchy), Arc::clone(&data))?;
        let persisted = self.lock_ledger().map_or(Ok(()), |mut ledger| {
            ledger.persist_dataset(handle, refs, &hierarchy, &data, &evicted)
        });
        if let Err(e) = persisted {
            let _ = registry.release(handle);
            return Err(e);
        }
        Ok(())
    }

    /// Drops one reference to a prepared dataset, removing it when no
    /// references remain. Returns the number of references still
    /// held. In-flight jobs keep their `Arc`s, so unpreparing never
    /// invalidates running work. With a durable store attached the
    /// new reference count is persisted first (dropping the dataset
    /// record entirely at zero — its budget account survives), so a
    /// failed write leaves the reference held: retrying a failed
    /// `UNPREPARE` can never release a reference another client holds.
    pub fn unprepare(&self, handle: DatasetHandle) -> Result<u64, EngineError> {
        let mut registry = self.lock_registry();
        let remaining = registry.refs(handle)? - 1;
        if let Some(mut ledger) = self.lock_ledger() {
            ledger.set_refs(handle, remaining)?;
        }
        registry.release(handle)
    }

    /// Registers the dataset obtained by applying `delta` to the
    /// prepared dataset `parent`, returning the derived handle. The
    /// parent keeps all its references; the derived dataset starts at
    /// one (like a fresh [`Engine::prepare`]).
    ///
    /// The *re-aggregation* is **O(delta · depth)**: only the
    /// root-to-leaf paths the delta touches are re-summed
    /// ([`hcc_data::DatasetDelta::apply_to`]), never the whole
    /// hierarchy. The remaining per-derive cost is an in-memory clone
    /// of the per-node histograms and their content re-digest — a
    /// scan of the dense cells that multiplies only at non-zero ones
    /// (see [`dataset_fingerprint`]) — tiny next to what a cold
    /// `PREPARE` of the post-delta tables pays: shipping and parsing
    /// one CSV row *per entity* plus a full bottom-up aggregation.
    /// `tests/engine.rs::derive_beats_cold_prepare_by_a_wide_margin`
    /// holds a 1%-changed census-style dataset to at least 4×, and the
    /// `ledger_churn` benchmark workload times the derive path.
    ///
    /// **Fingerprint chaining.** The derived handle is the content
    /// fingerprint of the post-delta dataset — i.e.
    /// `derive(prepare(T), δ) == prepare(apply(δ, T))`, byte for
    /// byte. Chained derivations compose the same way, so a derived
    /// handle plugs into the cheap (handle, config, seed) request
    /// fingerprint of PR 3 unchanged, and submissions against a
    /// derived handle share cache entries with inline or
    /// cold-prepared submissions of the same post-delta data.
    pub fn derive(
        &self,
        parent: DatasetHandle,
        delta: &hcc_data::DatasetDelta,
    ) -> Result<DatasetHandle, EngineError> {
        // Resolve under the lock; clone, apply, and re-digest outside
        // it (the clone is the only O(dataset) step and must not
        // stall every submitter).
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(EngineError::ShuttingDown);
        }
        let (hierarchy, data) = self.lock_registry().get(parent)?;
        let mut derived = (*data).clone();
        delta
            .apply_to(&hierarchy, &mut derived)
            .map_err(|e| EngineError::BadDelta(e.to_string()))?;
        let handle = DatasetHandle(dataset_fingerprint(&hierarchy, &derived));
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(EngineError::ShuttingDown);
        }
        self.register_dataset(handle, hierarchy, Arc::new(derived))?;
        self.shared.counters.derived.fetch_add(1, Ordering::Relaxed);
        Ok(handle)
    }

    /// Rolling-update variant of [`Engine::derive`]: registers the
    /// derived dataset, then drops one reference on the parent — the
    /// "my dataset moved forward" flow, so a client appending releases
    /// month after month holds one registry slot, not a growing
    /// chain. Deriving with an *empty* delta is a no-op overall (the
    /// derived handle is the parent, whose reference count is bumped
    /// and then dropped).
    pub fn append(
        &self,
        parent: DatasetHandle,
        delta: &hcc_data::DatasetDelta,
    ) -> Result<DatasetHandle, EngineError> {
        let handle = self.derive(parent, delta)?;
        // Best-effort: if the parent was concurrently unprepared or
        // evicted, the goal state (parent no longer held by this
        // caller) is already reached.
        let _ = self.unprepare(parent);
        Ok(handle)
    }

    /// Number of datasets currently held by the prepared registry.
    pub fn prepared_len(&self) -> usize {
        self.lock_registry().len()
    }

    /// Enqueues a release of a prepared dataset. Equivalent to
    /// [`Engine::submit`] with the dataset the handle was prepared
    /// from — including sharing cache entries with inline submissions
    /// of the same data — but the cache key costs O(levels) instead
    /// of a full data walk, so ε-sweeps over one handle are cheap to
    /// fingerprint.
    pub fn submit_prepared(
        &self,
        handle: DatasetHandle,
        config: TopDownConfig,
        seed: u64,
    ) -> Result<Ticket, EngineError> {
        self.ticketed(Submission::Prepared {
            handle,
            config,
            seed,
        })
    }

    /// The shared back half of submission, in this order: consult the
    /// cache, check queue capacity, charge the budget ledger, enqueue.
    ///
    /// The capacity check runs before the charge, so a `QueueFull`
    /// rejection — the retryable error clients loop on — never burns
    /// budget. The charge (an fsync) runs outside the state lock, and
    /// the enqueue after it is unconditional: a racing burst can
    /// overshoot the queue bound by the number of in-flight charges,
    /// which is bounded by the submitter count and strictly better
    /// than charging for work that is then rejected.
    fn admit(
        &self,
        request: ReleaseRequest,
        key: Option<Fingerprint>,
        dataset: Option<Fingerprint>,
        on_done: OnDone,
    ) -> Result<(), EngineError> {
        if self.shared.shutting_down.load(Ordering::Acquire) {
            return Err(EngineError::ShuttingDown);
        }
        // Cache consultation takes only the cache lock; a racing
        // identical submission at worst enqueues twice, and the
        // worker-side re-check at expansion serves the second from
        // the cache anyway. A cache hit re-serves already-released
        // bytes, so it spends no budget and is never charged.
        let cached = key.and_then(|k| self.lock_cache().get(k));
        if let Some(result) = cached {
            let mut state = self.lock_state();
            state.submitted += 1;
            state.cache_hits += 1;
            drop(state);
            finish_job(
                &self.shared,
                on_done,
                Ok(JobStatus::Done {
                    result,
                    from_cache: true,
                }),
            );
            return Ok(());
        }
        let mut state = self.lock_state();
        if state.queue.len() >= self.shared.config.queue_capacity {
            return Err(EngineError::QueueFull {
                capacity: self.shared.config.queue_capacity,
            });
        }
        if let Some(ledger) = &self.shared.ledger {
            drop(state);
            let account =
                dataset.unwrap_or_else(|| dataset_fingerprint(&request.hierarchy, &request.data));
            ledger.lock().charge(account, request.config.epsilon())?;
            state = self.lock_state();
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.queue.push_back(QueuedJob {
            id,
            request,
            key,
            submitted_at: Instant::now(),
            on_done,
        });
        state.submitted += 1;
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Cumulative ε charged against a dataset, or `None` when the
    /// engine runs without a durable store. Spend survives
    /// `UNPREPARE` and eviction — it is keyed by content, not by
    /// registry slot.
    pub fn budget_spent(&self, handle: DatasetHandle) -> Option<f64> {
        Some(self.lock_ledger()?.spent(handle.0))
    }

    /// Blocks until the ticket's job finishes, returning the release
    /// and whether the cache served it. A failed job is
    /// [`EngineError::JobFailed`]; one that can no longer finish is
    /// [`EngineError::ShuttingDown`].
    pub fn wait(&self, ticket: Ticket) -> Result<(Arc<ReleaseResult>, bool), EngineError> {
        match ticket.0.recv() {
            Ok(JobStatus::Done { result, from_cache }) => Ok((result, from_cache)),
            Ok(JobStatus::Failed(msg)) => Err(EngineError::JobFailed(msg)),
            Err(mpsc::RecvError) => Err(EngineError::ShuttingDown),
        }
    }

    /// Current counter values, as one internally consistent snapshot:
    /// the job counters are read together under the state lock (held
    /// only for five copies), so `completed + failed ≤ submitted` and
    /// `cache_hits + cache_misses ≤ submitted` hold even mid-flight.
    pub fn stats(&self) -> EngineStats {
        let state = self.lock_state();
        self.stats_locked(&state)
    }

    /// Assembles [`EngineStats`] while the caller holds the state
    /// lock. Task counters are per-worker relaxed atomics summed here;
    /// they carry no cross-field invariant with the job counters.
    fn stats_locked(&self, state: &State) -> EngineStats {
        let c = &self.shared.counters;
        let (mut tasks_executed, mut tasks_stolen) = (0, 0);
        for i in 0..self.shared.config.workers {
            let w = self.shared.telemetry.worker(i);
            tasks_executed += w.tasks_executed.load(Ordering::Relaxed);
            tasks_stolen += w.tasks_stolen.load(Ordering::Relaxed);
        }
        EngineStats {
            submitted: state.submitted,
            completed: state.completed,
            failed: state.failed,
            cache_hits: state.cache_hits,
            cache_misses: state.cache_misses,
            prepared: c.prepared.load(Ordering::Relaxed),
            derived: c.derived.load(Ordering::Relaxed),
            tasks_executed,
            tasks_stolen,
        }
    }

    /// A structured telemetry snapshot: [`Engine::stats`] plus queue
    /// depth, per-worker scheduler counters, and the latency
    /// histograms (see [`crate::telemetry`]). Aggregation cost is paid
    /// here by the caller; workers never stop to publish.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let (stats, queued) = {
            let state = self.lock_state();
            (self.stats_locked(&state), state.queue.len())
        };
        TelemetrySnapshot {
            stats,
            workers: self.shared.config.workers,
            queued,
            prepared_datasets: self.lock_registry().len(),
            uptime: self.shared.telemetry.uptime(),
            per_worker: self.shared.telemetry.worker_snapshots(),
            trace_enabled: self.shared.telemetry.tracing(),
            spans_dropped: self.shared.telemetry.spans_dropped(),
        }
    }

    /// Drains the span recorder, returning all recorded spans in
    /// start order (empty unless the engine was started with
    /// [`EngineConfig::with_trace_capacity`]). Render with
    /// [`crate::telemetry::chrome_trace_json`].
    pub fn take_trace(&self) -> Vec<SpanEvent> {
        self.shared.telemetry.take_spans()
    }

    /// The configuration the engine was started with.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// Finishes all queued jobs, then stops the workers (idempotent;
    /// also runs on drop). Each finished job's outcome goes to its
    /// consumer, so a ticket can still be redeemed with
    /// [`Engine::wait`] afterwards. New submissions are rejected with
    /// [`EngineError::ShuttingDown`].
    pub fn shutdown(&mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        // Pass through the state lock before notifying so a worker
        // between its sleep-check and its wait can't miss the signal.
        drop(self.lock_state());
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // A clean shutdown leaves a short WAL.
        if let Some(mut ledger) = self.lock_ledger() {
            ledger.checkpoint();
        }
    }

    fn lock_state(&self) -> RankedGuard<'_, State> {
        self.shared.state.lock()
    }

    fn lock_cache(&self) -> RankedGuard<'_, ResultCache> {
        self.shared.cache.lock()
    }

    fn lock_registry(&self) -> RankedGuard<'_, DatasetRegistry> {
        self.shared.registry.lock()
    }

    fn lock_ledger(&self) -> Option<RankedGuard<'_, Ledger>> {
        self.shared.ledger.as_ref().map(RankedMutex::lock)
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    // Permanently owned workspace: scratch buffers stay warm across
    // every task this worker ever runs, with no pool lock on the hot
    // path. Which workspace estimates which node never matters —
    // buffers are fully overwritten per node and each node draws from
    // its own seeded RNG stream.
    let mut ws = EstimatorWorkspace::new();
    // Trace-only: when the previous task started handing the compute
    // gate off, so the claim of the next task is recorded from
    // *before* the release — on an oversubscribed host the hand-off
    // notify is exactly where a worker loses the CPU, and that time
    // must land inside a span for traces to tile wall-clock.
    let mut handoff: Option<Instant> = None;
    loop {
        let sched_t0 = handoff
            .take()
            .or_else(|| shared.telemetry.tracing().then(Instant::now));
        // Hot path: own deque first (LIFO), then steal (FIFO). The
        // compute gate is taken *after* claiming a task: claiming is
        // cheap, and a claimed task is guaranteed to run, so waiting
        // at the gate can't strand work.
        if let Some(task) = shared.deques.pop(me) {
            record_sched(shared, me, &task, sched_t0);
            handoff = run_task_gated(shared, me, &task, &mut ws);
            continue;
        }
        let (stolen, failed_probes) = shared.deques.steal(me);
        {
            let w = shared.telemetry.worker(me);
            w.steal_attempts.fetch_add(1, Ordering::Relaxed);
            w.steal_failed_probes
                .fetch_add(failed_probes as u64, Ordering::Relaxed);
            if stolen.is_some() {
                w.steal_successes.fetch_add(1, Ordering::Relaxed);
                w.tasks_stolen.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(task) = stolen {
            record_sched(shared, me, &task, sched_t0);
            handoff = run_task_gated(shared, me, &task, &mut ws);
            continue;
        }
        // No runnable task anywhere: expand the next queued job, or
        // sleep until there is something to do. Expanding lazily —
        // only when the task pool is dry — keeps jobs flowing
        // depth-first: workers help finish in-flight releases before
        // admitting new working sets.
        //
        // Idle telemetry starts at the first condvar wait, not at the
        // lock: a worker that finds work without sleeping was never
        // idle. The open-ended park after the *last* job is only
        // recorded once the worker wakes — live spans have no end.
        let mut idle_since: Option<Instant> = None;
        let next = {
            let mut state = shared.state.lock();
            // The claim came up dry: close its span at the point the
            // state lock was won, so a contended lock still shows up
            // as sched time rather than a hole in the trace.
            if let Some(t0) = sched_t0 {
                shared.telemetry.span(me, SpanKind::Sched, None, None, t0);
            }
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if shared.deques.pending() > 0 {
                    // Tasks appeared while we were taking the lock.
                    break None;
                }
                if shared.shutting_down.load(Ordering::Acquire) {
                    drop(state);
                    record_idle(shared, me, idle_since);
                    return;
                }
                idle_since.get_or_insert_with(Instant::now);
                state = state.wait(&shared.work);
            }
        };
        record_idle(shared, me, idle_since);
        if let Some(job) = next {
            expand_job(shared, me, job);
        }
    }
}

/// Closes out an idle stretch, if one happened.
fn record_idle(shared: &Shared, me: usize, idle_since: Option<Instant>) {
    if let Some(t0) = idle_since {
        shared.telemetry.worker(me).idle.record(t0.elapsed());
        shared.telemetry.span(me, SpanKind::Idle, None, None, t0);
    }
}

/// Closes out the trace-mode claim span for a just-claimed task.
fn record_sched(shared: &Shared, me: usize, task: &NodeTask, sched_t0: Option<Instant>) {
    if let Some(t0) = sched_t0 {
        shared
            .telemetry
            .span(me, SpanKind::Sched, Some(task.job.id), Some(task.index), t0);
    }
}

/// Takes the compute gate (timing the wait), runs the task, returns
/// the permit. In trace mode, also returns the instant the gate
/// release began, opening the next claim span.
fn run_task_gated(
    shared: &Shared,
    me: usize,
    task: &NodeTask,
    ws: &mut EstimatorWorkspace,
) -> Option<Instant> {
    let gate_t0 = Instant::now();
    shared.gate.acquire();
    shared
        .telemetry
        .worker(me)
        .gate_wait
        .record(gate_t0.elapsed());
    shared.telemetry.span(
        me,
        SpanKind::GateWait,
        Some(task.job.id),
        Some(task.index),
        gate_t0,
    );
    run_task(shared, me, task, ws);
    let handoff = shared.telemetry.tracing().then(Instant::now);
    shared.gate.release();
    handoff
}

/// Turns a queued job into node tasks on `me`'s deque (or finishes it
/// straight away on a late cache hit / invalid hierarchy).
fn expand_job(shared: &Shared, me: usize, job: QueuedJob) {
    let QueuedJob {
        id,
        request,
        key,
        submitted_at,
        on_done,
    } = job;
    shared
        .telemetry
        .worker(me)
        .queue_wait
        .record(submitted_at.elapsed());
    // Submission missed the cache, but an identical job may have
    // completed while this one sat in the queue — re-check before
    // paying for a release.
    let cached = key.and_then(|k| shared.cache.lock().get(k));
    if let Some(result) = cached {
        shared.state.lock().cache_hits += 1;
        finish_job(
            shared,
            on_done,
            Ok(JobStatus::Done {
                result,
                from_cache: true,
            }),
        );
        return;
    }
    let expand_t0 = Instant::now();
    shared.state.lock().cache_misses += 1;
    if !request.hierarchy.is_uniform_depth() {
        finish_job(
            shared,
            on_done,
            Err(ConsistencyError::NotUniformDepth.to_string()),
        );
        return;
    }
    let job = Arc::new(ActiveJob::new(
        id,
        request,
        key,
        shared.config.workers,
        on_done,
    ));
    shared.deques.push_job(me, &job);
    // Lock-then-notify (see the `work` field docs) so sleepy workers
    // can't miss these tasks.
    drop(shared.state.lock());
    shared.work.notify_all();
    shared
        .telemetry
        .worker(me)
        .expand
        .record(expand_t0.elapsed());
    shared
        .telemetry
        .span(me, SpanKind::Expand, Some(id), None, expand_t0);
}

/// Runs one node task; the worker finishing a job's last task also
/// runs the deterministic top-down phase and publishes the result.
fn run_task(shared: &Shared, me: usize, task: &NodeTask, ws: &mut EstimatorWorkspace) {
    let job = &task.job;
    let w = shared.telemetry.worker(me);
    let task_t0 = Instant::now();
    if !job.is_cancelled() {
        // A panicking estimator (degenerate budget, internal assert)
        // must fail its *job*, not kill the worker: an unwound worker
        // would shrink the pool and strand its jobs unfinished,
        // hanging every waiter. Reusing `ws` after an unwind is sound
        // — its buffers are fully overwritten per node.
        let computed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let request = &job.request;
            // hcc-lint: allow(panic-policy, reason = "task.index < tasks.len() by construction: NodeTask indices are minted by ActiveJob::new from this very vector")
            job.tasks[task.index]
                .iter()
                .map(|&node| {
                    // Per-node timing, split by the level method that
                    // will estimate this node (the paper's Hc/Hg cost
                    // asymmetry): one Instant pair per node, recorded
                    // with a relaxed fetch_add — noise next to the
                    // estimation itself.
                    let kind = MethodKind::of(
                        request
                            .config
                            .method_for_level(request.hierarchy.level_of(node)),
                    );
                    let node_t0 = Instant::now();
                    let estimate = estimate_node(
                        &request.hierarchy,
                        &request.data,
                        &request.config,
                        job.eps_level,
                        node,
                        // hcc-lint: allow(panic-policy, reason = "seeds has one slot per hierarchy node and `node` comes from this hierarchy's task list")
                        job.seeds[node.index()],
                        ws,
                    );
                    w.estimate_for(kind).record(node_t0.elapsed());
                    (node.index(), estimate)
                })
                .collect::<Vec<_>>()
        }));
        match computed {
            Ok(results) => job.store(results),
            Err(panic) => job.record_failure(panic_message(panic)),
        }
    }
    w.task_run.record(task_t0.elapsed());
    w.tasks_executed.fetch_add(1, Ordering::Relaxed);
    shared
        .telemetry
        .span(me, SpanKind::Task, Some(job.id), Some(task.index), task_t0);
    if job.finish_task() {
        // Telemetry for the finalize phase is recorded *before* the
        // status is published: once `Engine::wait` returns, every
        // counter and span belonging to the job is already visible to
        // `telemetry()` / `take_trace()`.
        let finalize_t0 = Instant::now();
        let status = finalize_job(shared, job);
        w.finalize.record(finalize_t0.elapsed());
        shared
            .telemetry
            .span(me, SpanKind::Finalize, Some(job.id), None, finalize_t0);
        if let Some(on_done) = job.take_on_done() {
            finish_job(shared, on_done, status);
        }
    }
}

/// The post-estimation half of a job: deterministic matching/merging,
/// CSV serialisation, cache insert. Returns the terminal status for
/// `finish_job` to publish.
fn finalize_job(shared: &Shared, job: &ActiveJob) -> Result<JobStatus, String> {
    let outcome = job.take_outcome().and_then(|estimates| {
        // The top-down phase and the CSV serialisation stay inside a
        // guard too — any panic past this point must become a Failed
        // job, never a dead worker.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            top_down_from_estimates(&job.request.hierarchy, &job.request.config, estimates)
                .map(|release| {
                    let csv = to_csv(&job.request.hierarchy, &release);
                    let rows = csv.lines().count().saturating_sub(1);
                    Arc::new(ReleaseResult {
                        csv,
                        rows,
                        compute_time: job.started.elapsed(),
                    })
                })
                .map_err(|e| e.to_string())
        }))
        .map_err(panic_message)
        .and_then(|computed| computed)
    });
    outcome.map(|result| {
        if let Some(key) = job.key {
            shared.cache.lock().insert(key, Arc::clone(&result));
        }
        JobStatus::Done {
            result,
            from_cache: false,
        }
    })
}

/// Counts a job's terminal status, then hands it to the job's one
/// consumer outside every engine lock, isolating panics: deferred
/// consumers run on pool worker threads, and a panicking callback
/// must not kill a worker.
fn finish_job(shared: &Shared, on_done: OnDone, status: Result<JobStatus, String>) {
    let status = {
        let mut state = shared.state.lock();
        match status {
            Ok(status) => {
                state.completed += 1;
                status
            }
            Err(msg) => {
                state.failed += 1;
                JobStatus::Failed(msg)
            }
        }
    };
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || on_done(status)));
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_consistency::{top_down_release, HierarchicalCounts, LevelMethod, TopDownConfig};
    use hcc_core::CountOfCounts;
    use hcc_hierarchy::{Hierarchy, HierarchyBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn request(seed: u64) -> ReleaseRequest {
        let mut b = HierarchyBuilder::new("root");
        let leaves: Vec<_> = (0..6)
            .map(|i| b.add_child(Hierarchy::ROOT, format!("l{i}")))
            .collect();
        let h = Arc::new(b.build());
        let data = Arc::new(
            HierarchicalCounts::from_leaves(
                &h,
                leaves
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| {
                        (
                            l,
                            CountOfCounts::from_group_sizes(
                                (0..12u64).map(|k| 1 + (k + i as u64) % 7),
                            ),
                        )
                    })
                    .collect(),
            )
            .unwrap(),
        );
        let cfg = TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 32 });
        ReleaseRequest::new(h, data, cfg, seed)
    }

    #[test]
    fn submit_wait_matches_direct_release() {
        let engine = Engine::start(EngineConfig::default().with_workers(3));
        let req = request(11);
        let direct = {
            let mut rng = StdRng::seed_from_u64(11);
            let rel = top_down_release(&req.hierarchy, &req.data, &req.config, &mut rng).unwrap();
            to_csv(&req.hierarchy, &rel)
        };
        let id = engine.submit(req).unwrap();
        let (result, from_cache) = engine.wait(id).unwrap();
        assert!(!from_cache);
        assert_eq!(result.csv, direct);
        assert_eq!(result.rows, direct.lines().count() - 1);
    }

    #[test]
    fn cache_serves_repeat_requests() {
        let engine = Engine::start(EngineConfig::default().with_workers(1));
        let a = engine.submit(request(5)).unwrap();
        let (first, _) = engine.wait(a).unwrap();
        let b = engine.submit(request(5)).unwrap();
        let (second, from_cache) = engine.wait(b).unwrap();
        assert!(from_cache, "identical request must hit the cache");
        assert!(Arc::ptr_eq(&first, &second), "cache shares the Arc");
        let c = engine.submit(request(6)).unwrap();
        let (_, from_cache) = engine.wait(c).unwrap();
        assert!(!from_cache, "different seed is a different release");
        let stats = engine.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn many_concurrent_jobs_all_finish_deterministically() {
        let engine = Engine::start(
            EngineConfig::default()
                .with_workers(4)
                .with_cache_capacity(0),
        );
        let tickets: Vec<Ticket> = (0..16)
            .map(|s| engine.submit(request(s)).unwrap())
            .collect();
        for (seed, ticket) in tickets.into_iter().enumerate() {
            let (result, _) = engine.wait(ticket).unwrap();
            let req = request(seed as u64);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let direct =
                top_down_release(&req.hierarchy, &req.data, &req.config, &mut rng).unwrap();
            assert_eq!(result.csv, to_csv(&req.hierarchy, &direct), "seed {seed}");
        }
        let stats = engine.stats();
        assert_eq!(stats.completed, 16);
        assert!(
            stats.tasks_executed >= 16,
            "every job decomposes into at least one task: {stats:?}"
        );
        assert!(
            stats.tasks_stolen <= stats.tasks_executed,
            "steals are a subset of executions: {stats:?}"
        );
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        // One worker, capacity 1: with the worker parked on the first
        // job, the second fills the queue and the third must bounce.
        let engine = Engine::start(
            EngineConfig::default()
                .with_workers(1)
                .with_queue_capacity(1),
        );
        let mut accepted = 0;
        let mut rejected = 0;
        for s in 0..50 {
            match engine.submit(request(s)) {
                Ok(_) => accepted += 1,
                Err(EngineError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(accepted >= 1);
        assert!(rejected >= 1, "a 50-deep burst must overflow capacity 1");
    }

    /// A dropped ticket leaves its release to the cache alone, whether
    /// it is dropped before its job finishes or after.
    #[test]
    fn dropped_tickets_leave_each_release_to_the_cache() {
        // One worker behind a one-permit compute gate: while the test
        // holds the permit, no node task runs.
        let engine = Engine::start(EngineConfig::default().with_workers(1).with_active_limit(1));
        engine.shared.gate.acquire();
        let mut tickets: Vec<Ticket> = (1..=4)
            .map(|seed| engine.submit(request(seed)).unwrap())
            .collect();
        // Seeds 3 and 4 lose their tickets before their jobs can finish.
        tickets.truncate(2);
        engine.shared.gate.release();
        // One worker runs jobs in order, and its consumer call returns
        // before the next job starts: once a fifth job is done, every
        // earlier consumer has run.
        let fence = engine.submit(request(5)).unwrap();
        assert!(!engine.wait(fence).unwrap().1);
        assert_eq!(engine.stats().completed, 5);
        // Seeds 1 and 2 lose theirs after.
        drop(tickets);
        for seed in 1..=4 {
            let req = request(seed);
            let key = request_fingerprint(
                dataset_fingerprint(&req.hierarchy, &req.data),
                req.hierarchy.num_levels(),
                &req.config,
                req.seed,
            );
            let release = engine.lock_cache().get(key).expect("the release is cached");
            assert_eq!(
                Arc::strong_count(&release),
                2,
                "seed {seed}: only the cache and this probe may hold the release"
            );
        }
    }

    #[test]
    fn cache_hits_bypass_a_full_queue() {
        let engine = Engine::start(
            EngineConfig::default()
                .with_workers(1)
                .with_queue_capacity(1),
        );
        // Prime the cache.
        let id = engine.submit(request(0)).unwrap();
        engine.wait(id).unwrap();
        // Saturate the pool and the queue with uncached work.
        let mut burst = Vec::new();
        for s in 1..50 {
            match engine.submit(request(s)) {
                Ok(id) => burst.push(id),
                Err(EngineError::QueueFull { .. }) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        // The cached request must still be accepted and complete
        // instantly, no matter how full the queue is.
        let id = engine.submit(request(0)).unwrap();
        let (_, from_cache) = engine.wait(id).unwrap();
        assert!(from_cache);
        for id in burst {
            engine.wait(id).unwrap();
        }
    }

    #[test]
    fn panicking_release_fails_the_job_but_not_the_worker() {
        let engine = Engine::start(EngineConfig::default().with_workers(1));
        // A negative budget trips the noise mechanism's assert; the
        // panic must surface as a Failed job, not a dead worker.
        let mut bad = request(1);
        bad.config = TopDownConfig::new(-1.0);
        let id = engine.submit(bad).unwrap();
        let err = engine.wait(id).unwrap_err();
        assert!(matches!(err, EngineError::JobFailed(_)), "{err:?}");
        assert_eq!(engine.stats().failed, 1);
        // The lone worker is still alive and serves the next job.
        let id = engine.submit(request(2)).unwrap();
        assert!(engine.wait(id).is_ok());
    }

    #[test]
    fn prepared_submission_is_byte_identical_to_inline() {
        // Cache disabled: both paths must *compute* and still agree.
        let engine = Engine::start(
            EngineConfig::default()
                .with_workers(2)
                .with_cache_capacity(0),
        );
        let req = request(21);
        let handle = engine
            .prepare(Arc::clone(&req.hierarchy), Arc::clone(&req.data))
            .unwrap();
        let inline_id = engine.submit(req.clone()).unwrap();
        let prepared_id = engine
            .submit_prepared(handle, req.config.clone(), req.seed)
            .unwrap();
        let (inline, _) = engine.wait(inline_id).unwrap();
        let (prepared, _) = engine.wait(prepared_id).unwrap();
        assert_eq!(inline.csv, prepared.csv);
    }

    #[test]
    fn prepared_and_inline_submissions_share_the_cache() {
        let engine = Engine::start(EngineConfig::default().with_workers(1));
        let req = request(13);
        let id = engine.submit(req.clone()).unwrap();
        let (first, _) = engine.wait(id).unwrap();
        // Same data through the prepared path: the request fingerprint
        // must collide with the inline one and hit the cache.
        let handle = engine
            .prepare(Arc::clone(&req.hierarchy), Arc::clone(&req.data))
            .unwrap();
        let id = engine
            .submit_prepared(handle, req.config.clone(), req.seed)
            .unwrap();
        let (second, from_cache) = engine.wait(id).unwrap();
        assert!(from_cache, "prepared submission must reuse the cache entry");
        assert!(Arc::ptr_eq(&first, &second));
        // A different ε over the same handle computes fresh.
        let id = engine
            .submit_prepared(
                handle,
                TopDownConfig::new(2.0).with_method(LevelMethod::Cumulative { bound: 32 }),
                req.seed,
            )
            .unwrap();
        let (_, from_cache) = engine.wait(id).unwrap();
        assert!(!from_cache);
    }

    #[test]
    fn prepare_is_content_addressed_and_refcounted() {
        let engine = Engine::start(EngineConfig::default());
        let req = request(1);
        let a = engine
            .prepare(Arc::clone(&req.hierarchy), Arc::clone(&req.data))
            .unwrap();
        let b = engine
            .prepare(Arc::clone(&req.hierarchy), Arc::clone(&req.data))
            .unwrap();
        assert_eq!(a, b, "identical content gets one handle");
        assert_eq!(engine.prepared_len(), 1);
        assert_eq!(engine.stats().prepared, 2);
        assert_eq!(engine.unprepare(a).unwrap(), 1);
        assert_eq!(engine.unprepare(a).unwrap(), 0);
        assert!(matches!(
            engine.submit_prepared(a, req.config.clone(), 1),
            Err(EngineError::UnknownDataset(_))
        ));
        assert!(matches!(
            engine.unprepare(a),
            Err(EngineError::UnknownDataset(_))
        ));
    }

    #[test]
    fn registry_eviction_surfaces_as_evicted_error() {
        let engine = Engine::start(EngineConfig::default().with_prepared_capacity(1));
        let first = {
            let req = request(0);
            engine.prepare(req.hierarchy, req.data).unwrap()
        };
        // A second, different dataset evicts the first (capacity 1).
        let mut b = HierarchyBuilder::new("other");
        let leaf = b.add_child(Hierarchy::ROOT, "x");
        let h = Arc::new(b.build());
        let d = Arc::new(
            HierarchicalCounts::from_leaves(&h, vec![(leaf, CountOfCounts::from_group_sizes([2]))])
                .unwrap(),
        );
        let second = engine.prepare(h, d).unwrap();
        assert_ne!(first, second);
        let cfg = TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 32 });
        assert!(matches!(
            engine.submit_prepared(first, cfg.clone(), 7),
            Err(EngineError::DatasetEvicted(_))
        ));
        let id = engine.submit_prepared(second, cfg, 7).unwrap();
        assert!(engine.wait(id).is_ok());
    }

    #[test]
    fn derive_chains_content_fingerprints() {
        use hcc_data::{DatasetDelta, DeltaOp};

        let engine = Engine::start(EngineConfig::default().with_workers(1));
        let req = request(3);
        let parent = engine
            .prepare(Arc::clone(&req.hierarchy), Arc::clone(&req.data))
            .unwrap();
        let delta = DatasetDelta {
            ops: vec![
                DeltaOp::Add {
                    region: "l0".into(),
                    size: 9,
                    count: 2,
                },
                DeltaOp::Resize {
                    region: "l1".into(),
                    old_size: 1,
                    new_size: 3,
                    count: 1,
                },
            ],
        };
        let derived = engine.derive(parent, &delta).unwrap();
        assert_ne!(derived, parent);
        assert_eq!(engine.prepared_len(), 2, "parent stays registered");

        // Fingerprint chaining: the derived handle must equal a cold
        // PREPARE of the post-delta data.
        let mut post = (*req.data).clone();
        delta.apply_to(&req.hierarchy, &mut post).unwrap();
        let cold = engine
            .prepare(Arc::clone(&req.hierarchy), Arc::new(post))
            .unwrap();
        assert_eq!(cold, derived);

        // Releases from the derived handle must compute against the
        // post-delta data: same bytes as submitting it inline.
        let id = engine
            .submit_prepared(derived, req.config.clone(), 7)
            .unwrap();
        let (from_handle, _) = engine.wait(id).unwrap();
        let mut post = (*req.data).clone();
        delta.apply_to(&req.hierarchy, &mut post).unwrap();
        let direct = {
            let mut rng = StdRng::seed_from_u64(7);
            let rel = top_down_release(&req.hierarchy, &post, &req.config, &mut rng).unwrap();
            to_csv(&req.hierarchy, &rel)
        };
        assert_eq!(from_handle.csv, direct);
        assert_eq!(engine.stats().derived, 1);

        // A bad delta is a typed rejection, not a panic, and derives
        // from unknown parents say so.
        let bad = DatasetDelta {
            ops: vec![DeltaOp::Remove {
                region: "l0".into(),
                size: 777,
                count: 1,
            }],
        };
        assert!(matches!(
            engine.derive(parent, &bad),
            Err(EngineError::BadDelta(_))
        ));
        let bogus = DatasetHandle(crate::fingerprint::Fingerprint(42));
        assert!(matches!(
            engine.derive(bogus, &delta),
            Err(EngineError::UnknownDataset(_))
        ));
    }

    #[test]
    fn append_is_a_rolling_update() {
        use hcc_data::{DatasetDelta, DeltaOp};

        let engine = Engine::start(EngineConfig::default());
        let req = request(4);
        let parent = engine
            .prepare(Arc::clone(&req.hierarchy), Arc::clone(&req.data))
            .unwrap();
        let delta = DatasetDelta {
            ops: vec![DeltaOp::Add {
                region: "l2".into(),
                size: 5,
                count: 1,
            }],
        };
        let derived = engine.append(parent, &delta).unwrap();
        assert_ne!(derived, parent);
        // The parent's single reference was dropped: only the derived
        // dataset remains registered.
        assert_eq!(engine.prepared_len(), 1);
        assert!(matches!(
            engine.unprepare(parent),
            Err(EngineError::UnknownDataset(_))
        ));
        // An empty delta is a no-op: handle unchanged, refcount level.
        let same = engine.append(derived, &DatasetDelta::new()).unwrap();
        assert_eq!(same, derived);
        assert_eq!(engine.prepared_len(), 1);
        assert_eq!(engine.unprepare(derived).unwrap(), 0);
    }

    #[test]
    fn shutdown_finishes_queued_work_then_rejects_new_jobs() {
        let mut engine = Engine::start(EngineConfig::default().with_workers(2));
        let tickets: Vec<Ticket> = (0..6).map(|s| engine.submit(request(s)).unwrap()).collect();
        engine.shutdown();
        // Every queued job finished, so each ticket holds its outcome.
        for ticket in tickets {
            assert!(engine.wait(ticket).is_ok());
        }
        assert_eq!(engine.stats().completed, 6);
        assert!(matches!(
            engine.submit(request(0)),
            Err(EngineError::ShuttingDown)
        ));
    }

    #[test]
    fn ragged_hierarchy_fails_the_job_with_a_typed_message() {
        // A ragged hierarchy can't carry its own HierarchicalCounts,
        // but a request can (wrongly) pair one with data built from a
        // *different* uniform hierarchy of equal node count — the
        // expansion-time guard must fail the job, not panic a worker.
        let mut b = HierarchyBuilder::new("r");
        let mid = b.add_child(Hierarchy::ROOT, "mid");
        let _deep = b.add_child(mid, "deep");
        let _shallow = b.add_child(Hierarchy::ROOT, "shallow");
        let ragged = Arc::new(b.build());
        let mut b = HierarchyBuilder::new("u");
        let leaves: Vec<_> = (0..3)
            .map(|i| b.add_child(Hierarchy::ROOT, format!("l{i}")))
            .collect();
        let uniform = b.build();
        assert_eq!(uniform.num_nodes(), ragged.num_nodes());
        let data = Arc::new(
            HierarchicalCounts::from_leaves(
                &uniform,
                leaves
                    .iter()
                    .map(|&l| (l, CountOfCounts::from_group_sizes([1, 2])))
                    .collect(),
            )
            .unwrap(),
        );
        let engine = Engine::start(EngineConfig::default().with_workers(2));
        let id = engine
            .submit(ReleaseRequest::new(
                ragged,
                data,
                TopDownConfig::new(1.0),
                1,
            ))
            .unwrap();
        match engine.wait(id) {
            Err(EngineError::JobFailed(msg)) => {
                assert!(msg.contains("deepest level"), "{msg}");
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hcc-engine-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A capped engine over a fresh store in `dir`.
    fn capped(dir: &std::path::Path, config: EngineConfig) -> Engine {
        let store = hcc_store::Store::open(dir.join("engine.hcc")).unwrap();
        Engine::start_with_store(config, store).unwrap()
    }

    #[test]
    #[should_panic(expected = "a budget cap needs a durable store")]
    fn a_cap_without_a_store_fails_at_boot() {
        Engine::start(EngineConfig::default().with_budget_cap(1.0));
    }

    #[test]
    fn budget_cap_charges_per_dataset_and_rejects_over_cap() {
        // request() carries ε=1.0; a 2.5 cap admits two charged
        // releases and refuses the third before any noise is drawn.
        let dir = store_dir("cap");
        let engine = capped(
            &dir,
            EngineConfig::default().with_workers(1).with_budget_cap(2.5),
        );
        let req = request(1);
        let handle = engine
            .prepare(Arc::clone(&req.hierarchy), Arc::clone(&req.data))
            .unwrap();
        let id = engine
            .submit_prepared(handle, req.config.clone(), 1)
            .unwrap();
        engine.wait(id).unwrap();
        assert_eq!(engine.budget_spent(handle), Some(1.0));
        // A cache hit re-serves the computed release for free.
        let id = engine
            .submit_prepared(handle, req.config.clone(), 1)
            .unwrap();
        let (_, from_cache) = engine.wait(id).unwrap();
        assert!(from_cache);
        assert_eq!(engine.budget_spent(handle), Some(1.0));
        // A fresh seed computes and charges again.
        let id = engine
            .submit_prepared(handle, req.config.clone(), 2)
            .unwrap();
        engine.wait(id).unwrap();
        assert_eq!(engine.budget_spent(handle), Some(2.0));
        // 2.0 + 1.0 > 2.5: typed refusal, ledger untouched.
        match engine.submit_prepared(handle, req.config.clone(), 3) {
            Err(EngineError::BudgetExhausted {
                handle: h,
                spent,
                cap,
                requested,
            }) => {
                assert_eq!(h, handle);
                assert_eq!(spent, 2.0);
                assert_eq!(cap, 2.5);
                assert_eq!(requested, 1.0);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        assert_eq!(engine.budget_spent(handle), Some(2.0));
        // Inline submission of the same tables draws from the same
        // budget line: an uncached seed is also refused.
        let mut inline = req;
        inline.seed = 99;
        assert!(matches!(
            engine.submit(inline),
            Err(EngineError::BudgetExhausted { .. })
        ));
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_overflow_never_burns_budget() {
        let dir = store_dir("overflow");
        let engine = capped(
            &dir,
            EngineConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_cache_capacity(0)
                .with_budget_cap(1000.0),
        );
        let req = request(0);
        let handle = engine
            .prepare(Arc::clone(&req.hierarchy), Arc::clone(&req.data))
            .unwrap();
        let mut accepted = 0u32;
        let mut ids = Vec::new();
        for s in 0..50 {
            match engine.submit_prepared(handle, req.config.clone(), s) {
                Ok(id) => {
                    accepted += 1;
                    ids.push(id);
                }
                Err(EngineError::QueueFull { .. }) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        for id in ids {
            engine.wait(id).unwrap();
        }
        // Every admitted job charged ε=1.0 exactly once; every
        // QueueFull bounce charged nothing, so a BUSY retry loop
        // never drains the budget.
        assert_eq!(engine.budget_spent(handle), Some(f64::from(accepted)));
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_unprepare_keeps_the_reference() {
        let dir = store_dir("unprepare");
        let policy = hcc_store::FailPolicy::new().with_crash_point("append.refs");
        let store = hcc_store::Store::open_with(dir.join("engine.hcc"), policy).unwrap();
        let engine = Engine::start_with_store(EngineConfig::default(), store).unwrap();
        let req = request(1);
        // A first PREPARE is a put, so the armed crash point stays quiet.
        let handle = engine.prepare(req.hierarchy, req.data).unwrap();
        // The first write wedges the store, the retry meets the wedge;
        // neither may drop the reference in memory.
        for _ in 0..2 {
            assert!(matches!(
                engine.unprepare(handle),
                Err(EngineError::StoreFailed(_))
            ));
        }
        assert!(engine.lock_registry().get(handle).is_ok());
        assert_eq!(engine.prepared_len(), 1);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_store_restores_handles_refs_and_ledger() {
        let dir = store_dir("roundtrip");
        let path = dir.join("engine.hcc");
        let req = request(9);
        let handle = {
            let store = hcc_store::Store::open(&path).unwrap();
            let mut engine = Engine::start_with_store(
                EngineConfig::default()
                    .with_workers(1)
                    .with_budget_cap(10.0),
                store,
            )
            .unwrap();
            let handle = engine
                .prepare(Arc::clone(&req.hierarchy), Arc::clone(&req.data))
                .unwrap();
            // Prepare again: refcount 2 must survive the restart.
            engine
                .prepare(Arc::clone(&req.hierarchy), Arc::clone(&req.data))
                .unwrap();
            let id = engine
                .submit_prepared(handle, req.config.clone(), 1)
                .unwrap();
            engine.wait(id).unwrap();
            assert_eq!(engine.budget_spent(handle), Some(1.0));
            engine.shutdown();
            handle
        };
        // Cold process: everything comes back from the file alone.
        let store = hcc_store::Store::open(&path).unwrap();
        let engine = Engine::start_with_store(
            EngineConfig::default()
                .with_workers(1)
                .with_budget_cap(10.0),
            store,
        )
        .unwrap();
        assert_eq!(engine.prepared_len(), 1);
        assert_eq!(engine.budget_spent(handle), Some(1.0));
        // The reloaded dataset answers under its original handle and
        // produces byte-identical releases.
        let id = engine
            .submit_prepared(handle, req.config.clone(), 2)
            .unwrap();
        assert!(engine.wait(id).is_ok());
        assert_eq!(engine.budget_spent(handle), Some(2.0));
        // Both persisted references are intact.
        assert_eq!(engine.unprepare(handle).unwrap(), 1);
        assert_eq!(engine.unprepare(handle).unwrap(), 0);
        // Spend is keyed by content: it survives UNPREPARE.
        assert_eq!(engine.budget_spent(handle), Some(2.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_rejects_bytes_that_do_not_reproduce_the_handle() {
        let dir = store_dir("badhandle");
        let path = dir.join("engine.hcc");
        {
            let mut store = hcc_store::Store::open(&path).unwrap();
            // A structurally valid record filed under a handle its
            // content does not digest to.
            store
                .put_dataset(&hcc_store::DatasetRecord {
                    handle: 42,
                    names: vec!["root".into(), "leaf".into()],
                    parents: vec![u64::MAX, 0],
                    histograms: vec![vec![(1, 3)], vec![(1, 3)]],
                    refs: 1,
                })
                .unwrap();
        }
        let store = hcc_store::Store::open(&path).unwrap();
        match Engine::start_with_store(EngineConfig::default(), store) {
            Err(EngineError::StoreFailed(msg)) => {
                assert!(msg.contains("do not reproduce"), "{msg}");
            }
            Err(other) => panic!("expected StoreFailed, got {other:?}"),
            Ok(_) => panic!("boot must refuse a fingerprint mismatch"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn boot_reproduces_the_pinned_dataset_handles() {
        // Handles name store files, budget accounts and request keys,
        // so the dataset digest must never move. Three housing datasets
        // (the `national_hc` fixture, quarter and full scale) are filed
        // under their pinned handles; boot re-digests every record and
        // refuses any that does not reproduce its handle.
        use hcc_data::{housing, Dataset, DatasetKind, HousingConfig};
        let fixture = housing(&HousingConfig {
            scale: 2e-5,
            seed: 6,
            ..Default::default()
        });
        let pinned = [
            (fixture, "1dd479fadb039f9db09a456218a65d1e"),
            (
                Dataset::generate(DatasetKind::Housing, 0.25, 6),
                "fa8df80d5006d1a7e471f9c6347dea9f",
            ),
            (
                Dataset::generate(DatasetKind::Housing, 1.0, 6),
                "0901aa46d7e9de1600a5cfab5e50a85c",
            ),
        ];
        let handle = |hex: &str| DatasetHandle(Fingerprint(u128::from_str_radix(hex, 16).unwrap()));
        let dir = store_dir("pinned");
        let path = dir.join("engine.hcc");
        {
            let mut store = hcc_store::Store::open(&path).unwrap();
            for (ds, hex) in &pinned {
                assert_eq!(
                    dataset_fingerprint(&ds.hierarchy, &ds.data).to_string(),
                    *hex,
                    "{}",
                    ds.name
                );
                let record =
                    crate::ledger::dataset_record(handle(hex).0 .0, &ds.hierarchy, &ds.data, 1);
                store.put_dataset(&record).unwrap();
            }
        }
        let store = hcc_store::Store::open(&path).unwrap();
        let engine = Engine::start_with_store(EngineConfig::default().with_workers(1), store)
            .expect("every record reproduces its pinned handle");
        assert_eq!(engine.prepared_len(), pinned.len());
        for (_, hex) in &pinned {
            assert!(engine.lock_registry().get(handle(hex)).is_ok(), "{hex}");
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
