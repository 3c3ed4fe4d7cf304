//! Engine telemetry: per-worker counters, log-bucketed latency
//! histograms, and a bounded span recorder.
//!
//! The job counters say *what* the engine did; this module also says
//! *where the time went* — the prerequisite for closing the remaining
//! multi-core scaling gap (steal granularity, gate hand-off latency,
//! queue wait) without guessing. Three layers:
//!
//! * **`WorkerMetrics`** (crate-private) — one cache-line-aligned
//!   block of relaxed atomics per worker, written only by the owning
//!   worker thread on the hot path: counters (steal attempts /
//!   successes / failed probes, tasks executed / stolen) and
//!   `AtomicHistogram`s for queue wait, job expansion, compute-gate
//!   wait, node-task run time, per-node estimation time **split by
//!   level method** (`Hc` vs `Hg` vs the rest — the paper's §4.3 cost
//!   asymmetry, observable per release), job finalization, and worker
//!   idle time. Recording is one relaxed `fetch_add` per field — no
//!   locks, no allocation, no cross-worker cache-line sharing.
//! * **Snapshots** — [`TelemetrySnapshot`] aggregates the per-worker
//!   blocks on demand (the *reader* pays, never the workers) and
//!   renders Prometheus-style text exposition ([`TelemetrySnapshot::
//!   to_prometheus`], served by the `METRICS` wire verb) with
//!   p50/p95/p99 derived from the histogram buckets.
//! * **Span recorder** — when enabled (per-server flag; off by
//!   default), each worker appends [`SpanEvent`]s (worker, job, task,
//!   start, end, kind) to its own bounded ring buffer, overwriting
//!   the oldest beyond capacity. [`chrome_trace_json`] renders a dump
//!   as `chrome://tracing` / Perfetto JSON (`hcc trace --out
//!   trace.json`). Span kinds tile a worker's wall-clock — sched,
//!   expand, gate wait, task, finalize, idle — so a trace accounts
//!   for where every worker spent its time, not just what it
//!   computed.
//!
//! Everything here is hand-rolled on `std` (the build has no
//! crates.io access) and `unsafe`-free like the rest of the crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::locks::{Rank, RankedMutex};

use hcc_consistency::LevelMethod;

use crate::engine::EngineStats;
use crate::job::JobId;

/// Number of log₂ latency buckets. Bucket `i < HIST_BUCKETS - 1`
/// counts durations below [`bucket_upper_ns`]`(i)`; the last bucket
/// is the +Inf overflow.
pub const HIST_BUCKETS: usize = 32;

/// The smallest bucket's upper bound is `2^MIN_SHIFT` ns (128 ns);
/// each bucket doubles from there, so the finite range tops out near
/// `2^(MIN_SHIFT + HIST_BUCKETS - 2)` ns ≈ 18 minutes.
const MIN_SHIFT: u32 = 7;

/// Exclusive upper bound of bucket `i`, in nanoseconds
/// (`u64::MAX` for the +Inf bucket).
pub fn bucket_upper_ns(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        1u64 << (MIN_SHIFT + i as u32)
    }
}

/// The bucket a duration of `ns` nanoseconds lands in.
fn bucket_of(ns: u64) -> usize {
    if ns < (1 << MIN_SHIFT) {
        0
    } else {
        ((ns.ilog2() + 1 - MIN_SHIFT) as usize).min(HIST_BUCKETS - 1)
    }
}

/// A log-bucketed latency histogram writable with relaxed atomics.
///
/// `record` is the only writer-side operation: one bucket increment
/// plus count/sum/max updates, all `Ordering::Relaxed` — the snapshot
/// path tolerates torn cross-field reads (counts are monotone, and
/// consistency across *fields* is not load-bearing for quantiles).
pub(crate) struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl AtomicHistogram {
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        // hcc-lint: allow(panic-policy, reason = "bucket_of clamps to BUCKETS - 1")
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one `AtomicHistogram`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts, `HIST_BUCKETS` long (last bucket = +Inf).
    pub buckets: Vec<u64>,
    /// Total recorded durations.
    pub count: u64,
    /// Sum of recorded durations in nanoseconds.
    pub sum_ns: u64,
    /// Largest recorded duration in nanoseconds.
    pub max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Accumulates another snapshot (e.g. per-worker → engine-wide).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds, estimated as
    /// the upper bound of the bucket holding the target rank and
    /// clamped to the observed maximum. `0` for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_ns(i).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

/// Estimation-method families the per-node timing is split by — the
/// wire/metric labels for [`LevelMethod`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// `Hc` with L1 post-processing.
    Hc,
    /// `Hc` with L2 post-processing.
    HcL2,
    /// `Hg` (unattributed histogram).
    Hg,
    /// Naive cell noise.
    Naive,
    /// Data-adaptive `Hc`/`Hg` selection.
    Adaptive,
}

impl MethodKind {
    /// Every kind, in label order.
    pub const ALL: [MethodKind; 5] = [
        MethodKind::Hc,
        MethodKind::HcL2,
        MethodKind::Hg,
        MethodKind::Naive,
        MethodKind::Adaptive,
    ];

    /// The kind of a [`LevelMethod`].
    pub fn of(method: LevelMethod) -> Self {
        match method {
            LevelMethod::Cumulative { .. } => MethodKind::Hc,
            LevelMethod::CumulativeL2 { .. } => MethodKind::HcL2,
            LevelMethod::Unattributed => MethodKind::Hg,
            LevelMethod::Naive { .. } => MethodKind::Naive,
            LevelMethod::Adaptive { .. } => MethodKind::Adaptive,
        }
    }

    /// Stable metric-label text (`method="<label>"`).
    pub fn label(self) -> &'static str {
        match self {
            MethodKind::Hc => "hc",
            MethodKind::HcL2 => "hc_l2",
            MethodKind::Hg => "hg",
            MethodKind::Naive => "naive",
            MethodKind::Adaptive => "adaptive",
        }
    }

    fn index(self) -> usize {
        match self {
            MethodKind::Hc => 0,
            MethodKind::HcL2 => 1,
            MethodKind::Hg => 2,
            MethodKind::Naive => 3,
            MethodKind::Adaptive => 4,
        }
    }
}

/// One worker's hot-path telemetry block. Alignment keeps two
/// workers' counters off one cache line — the exact false-sharing
/// hazard ROADMAP item 1 wants to measure, not introduce.
#[repr(align(64))]
pub(crate) struct WorkerMetrics {
    /// Job submission → expansion (time spent in the bounded queue).
    pub queue_wait: AtomicHistogram,
    /// Job expansion (seed derivation + task partitioning + push).
    pub expand: AtomicHistogram,
    /// Compute-gate acquisition wait.
    pub gate_wait: AtomicHistogram,
    /// Whole node-task run time (all nodes of one task).
    pub task_run: AtomicHistogram,
    /// Per-node estimation time, split by [`MethodKind`].
    pub estimate: [AtomicHistogram; 5],
    /// Top-down + CSV + cache-insert finalization.
    pub finalize: AtomicHistogram,
    /// Parked/idle stretches (no queued job, no pending task).
    pub idle: AtomicHistogram,
    pub steal_attempts: AtomicU64,
    pub steal_successes: AtomicU64,
    /// Lanes probed during steal scans that held no task.
    pub steal_failed_probes: AtomicU64,
    pub tasks_executed: AtomicU64,
    pub tasks_stolen: AtomicU64,
}

impl WorkerMetrics {
    fn new() -> Self {
        Self {
            queue_wait: AtomicHistogram::new(),
            expand: AtomicHistogram::new(),
            gate_wait: AtomicHistogram::new(),
            task_run: AtomicHistogram::new(),
            estimate: std::array::from_fn(|_| AtomicHistogram::new()),
            finalize: AtomicHistogram::new(),
            idle: AtomicHistogram::new(),
            steal_attempts: AtomicU64::new(0),
            steal_successes: AtomicU64::new(0),
            steal_failed_probes: AtomicU64::new(0),
            tasks_executed: AtomicU64::new(0),
            tasks_stolen: AtomicU64::new(0),
        }
    }

    /// The estimation histogram for one method family.
    pub fn estimate_for(&self, kind: MethodKind) -> &AtomicHistogram {
        // hcc-lint: allow(panic-policy, reason = "kind.index() < 5 by definition and estimate is [_; 5]")
        &self.estimate[kind.index()]
    }

    fn snapshot(&self) -> WorkerSnapshot {
        WorkerSnapshot {
            queue_wait: self.queue_wait.snapshot(),
            expand: self.expand.snapshot(),
            gate_wait: self.gate_wait.snapshot(),
            task_run: self.task_run.snapshot(),
            // hcc-lint: allow(panic-policy, reason = "k.index() < 5 by definition and estimate is [_; 5]")
            estimate: MethodKind::ALL.map(|k| self.estimate[k.index()].snapshot()),
            finalize: self.finalize.snapshot(),
            idle: self.idle.snapshot(),
            steal_attempts: self.steal_attempts.load(Ordering::Relaxed),
            steal_successes: self.steal_successes.load(Ordering::Relaxed),
            steal_failed_probes: self.steal_failed_probes.load(Ordering::Relaxed),
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            tasks_stolen: self.tasks_stolen.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one worker's `WorkerMetrics` (also used,
/// merged, for the engine-wide totals).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Job submission → expansion latency.
    pub queue_wait: HistogramSnapshot,
    /// Job expansion time.
    pub expand: HistogramSnapshot,
    /// Compute-gate wait.
    pub gate_wait: HistogramSnapshot,
    /// Node-task run time.
    pub task_run: HistogramSnapshot,
    /// Per-node estimation time in [`MethodKind::ALL`] order.
    pub estimate: [HistogramSnapshot; 5],
    /// Job finalization time.
    pub finalize: HistogramSnapshot,
    /// Idle/parked stretches.
    pub idle: HistogramSnapshot,
    /// Steal scans started.
    pub steal_attempts: u64,
    /// Steal scans that yielded a task.
    pub steal_successes: u64,
    /// Empty lanes probed across all steal scans.
    pub steal_failed_probes: u64,
    /// Node tasks this worker ran.
    pub tasks_executed: u64,
    /// Node tasks this worker stole before running.
    pub tasks_stolen: u64,
}

impl WorkerSnapshot {
    /// Accumulates another worker's snapshot into this one.
    pub fn merge(&mut self, other: &WorkerSnapshot) {
        self.queue_wait.merge(&other.queue_wait);
        self.expand.merge(&other.expand);
        self.gate_wait.merge(&other.gate_wait);
        self.task_run.merge(&other.task_run);
        for (a, b) in self.estimate.iter_mut().zip(&other.estimate) {
            a.merge(b);
        }
        self.finalize.merge(&other.finalize);
        self.idle.merge(&other.idle);
        self.steal_attempts += other.steal_attempts;
        self.steal_successes += other.steal_successes;
        self.steal_failed_probes += other.steal_failed_probes;
        self.tasks_executed += other.tasks_executed;
        self.tasks_stolen += other.tasks_stolen;
    }

    /// The estimation snapshot for one method family.
    pub fn estimate_for(&self, kind: MethodKind) -> &HistogramSnapshot {
        // hcc-lint: allow(panic-policy, reason = "kind.index() < 5 by definition and estimate is [_; 5]")
        &self.estimate[kind.index()]
    }
}

/// What a recorded span was doing. The kinds tile a worker's
/// wall-clock: between consecutive spans of one worker lies only a
/// handful of instructions, so a trace accounts for (nearly) all of
/// each worker's time — including time spent preempted on an
/// oversubscribed host, which lands inside whichever span was open.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Claiming the next task: gate hand-off from the previous task,
    /// own-deque pop, steal scan.
    Sched,
    /// Expanding a queued job into node tasks.
    Expand,
    /// Waiting at the compute gate.
    GateWait,
    /// Running one node task (estimating its nodes).
    Task,
    /// Finalizing a job (top-down phase, CSV, cache insert).
    Finalize,
    /// Parked: no queued job and no pending task.
    Idle,
}

impl SpanKind {
    /// Stable wire/trace label.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Sched => "sched",
            SpanKind::Expand => "expand",
            SpanKind::GateWait => "gate_wait",
            SpanKind::Task => "task",
            SpanKind::Finalize => "finalize",
            SpanKind::Idle => "idle",
        }
    }

    /// Parses a [`SpanKind::label`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sched" => SpanKind::Sched,
            "expand" => SpanKind::Expand,
            "gate_wait" => SpanKind::GateWait,
            "task" => SpanKind::Task,
            "finalize" => SpanKind::Finalize,
            "idle" => SpanKind::Idle,
            _ => return None,
        })
    }
}

/// One recorded span: worker `worker` spent
/// `[start_ns, end_ns]` (nanoseconds since the engine booted) doing
/// `kind`, on behalf of `job`/`task` when they apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Worker index within the pool.
    pub worker: u32,
    /// What the worker was doing.
    pub kind: SpanKind,
    /// The job involved, if any (idle spans have none).
    pub job: Option<u64>,
    /// The task index within the job, if any.
    pub task: Option<u32>,
    /// Span start, nanoseconds since engine boot.
    pub start_ns: u64,
    /// Span end, nanoseconds since engine boot.
    pub end_ns: u64,
}

impl SpanEvent {
    /// Renders the `TRACE` wire line:
    /// `worker,kind,job,task,start_ns,end_ns` (empty job/task when
    /// absent).
    pub fn to_wire_line(&self) -> String {
        format!(
            "{},{},{},{},{},{}",
            self.worker,
            self.kind.label(),
            self.job.map(|j| j.to_string()).unwrap_or_default(),
            self.task.map(|t| t.to_string()).unwrap_or_default(),
            self.start_ns,
            self.end_ns
        )
    }

    /// Parses a [`SpanEvent::to_wire_line`] line.
    pub fn from_wire_line(line: &str) -> Result<Self, String> {
        let fields: Vec<&str> = line.split(',').collect();
        let [worker, kind, job, task, start_ns, end_ns] = fields.as_slice() else {
            return Err(format!("expected 6 span fields, got {line:?}"));
        };
        let opt = |s: &str, what: &str| -> Result<Option<u64>, String> {
            if s.is_empty() {
                Ok(None)
            } else {
                s.parse()
                    .map(Some)
                    .map_err(|_| format!("{what}: cannot parse {s:?}"))
            }
        };
        Ok(Self {
            worker: worker
                .parse()
                .map_err(|_| format!("worker: cannot parse {worker:?}"))?,
            kind: SpanKind::parse(kind).ok_or_else(|| format!("unknown span kind {kind:?}"))?,
            job: opt(job, "job")?,
            task: opt(task, "task")?.map(|t| t as u32),
            start_ns: start_ns
                .parse()
                .map_err(|_| format!("start_ns: cannot parse {start_ns:?}"))?,
            end_ns: end_ns
                .parse()
                .map_err(|_| format!("end_ns: cannot parse {end_ns:?}"))?,
        })
    }
}

/// Bounded per-worker span storage: a ring that overwrites the
/// oldest event past capacity, counting what it dropped.
struct SpanRing {
    events: Vec<SpanEvent>,
    /// Next write position once `events` reached capacity.
    next: usize,
    dropped: u64,
}

impl SpanRing {
    fn push(&mut self, event: SpanEvent, capacity: usize) {
        if self.events.len() < capacity {
            self.events.push(event);
        } else {
            // hcc-lint: allow(panic-policy, reason = "next < capacity == events.len() here: maintained by the modulo below and the branch above")
            self.events[self.next] = event;
            self.next = (self.next + 1) % capacity;
            self.dropped += 1;
        }
    }
}

/// The engine's telemetry hub: per-worker metric blocks plus the
/// optional span rings, all keyed to one boot-time epoch.
pub(crate) struct Telemetry {
    epoch: Instant,
    workers: Vec<WorkerMetrics>,
    rings: Vec<RankedMutex<SpanRing>>,
    /// Per-worker ring capacity; `0` disables span recording (the
    /// histograms and counters above stay always-on).
    trace_capacity: usize,
}

impl Telemetry {
    pub fn new(workers: usize, trace_capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            workers: (0..workers).map(|_| WorkerMetrics::new()).collect(),
            rings: (0..workers)
                .map(|_| {
                    RankedMutex::new(
                        Rank::Telemetry,
                        SpanRing {
                            events: Vec::new(),
                            next: 0,
                            dropped: 0,
                        },
                    )
                })
                .collect(),
            trace_capacity,
        }
    }

    /// The metric block worker `i` writes.
    pub fn worker(&self, i: usize) -> &WorkerMetrics {
        // hcc-lint: allow(panic-policy, reason = "i is an engine worker index; both vectors were sized to the worker count at construction")
        &self.workers[i]
    }

    /// Whether span recording is on.
    pub fn tracing(&self) -> bool {
        self.trace_capacity > 0
    }

    /// Engine uptime.
    pub fn uptime(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Records a span that started at `start` and ends now. No-op
    /// unless tracing is enabled; the only cost in the disabled case
    /// is this branch.
    pub fn span(
        &self,
        worker: usize,
        kind: SpanKind,
        job: Option<JobId>,
        task: Option<usize>,
        start: Instant,
    ) {
        if !self.tracing() {
            return;
        }
        let start_ns =
            u64::try_from(start.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(0);
        let end_ns = u64::try_from(
            Instant::now()
                .saturating_duration_since(self.epoch)
                .as_nanos(),
        )
        .unwrap_or(u64::MAX);
        let event = SpanEvent {
            worker: worker as u32,
            kind,
            job: job.map(|j| j.0),
            task: task.map(|t| t as u32),
            start_ns,
            end_ns,
        };
        // Owner-only writes: this lock is uncontended except while a
        // TRACE dump drains the ring.
        // hcc-lint: allow(panic-policy, reason = "worker is an engine worker index; rings was sized to the worker count at construction")
        self.rings[worker].lock().push(event, self.trace_capacity);
    }

    /// Drains every worker's ring, returning all recorded spans in
    /// start order.
    pub fn take_spans(&self) -> Vec<SpanEvent> {
        let mut all = Vec::new();
        for ring in &self.rings {
            let mut ring = ring.lock();
            all.append(&mut ring.events);
            ring.next = 0;
        }
        all.sort_by_key(|e| (e.start_ns, e.worker));
        all
    }

    /// Spans overwritten because a ring was full.
    pub fn spans_dropped(&self) -> u64 {
        self.rings.iter().map(|ring| ring.lock().dropped).sum()
    }

    /// Per-worker metric snapshots.
    pub fn worker_snapshots(&self) -> Vec<WorkerSnapshot> {
        self.workers.iter().map(|w| w.snapshot()).collect()
    }
}

/// A structured, internally consistent point-in-time view of the
/// whole engine: job counters, per-worker scheduler metrics, and
/// latency histograms. Produced by `Engine::telemetry`; rendered for
/// the wire by [`TelemetrySnapshot::to_prometheus`].
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// The job-level counters (same numbers as `Engine::stats`).
    pub stats: EngineStats,
    /// Worker-pool size.
    pub workers: usize,
    /// Jobs waiting in the bounded queue at snapshot time.
    pub queued: usize,
    /// Datasets in the prepared registry at snapshot time.
    pub prepared_datasets: usize,
    /// Time since the engine booted.
    pub uptime: Duration,
    /// One snapshot per worker, index-aligned with the pool.
    pub per_worker: Vec<WorkerSnapshot>,
    /// Whether the span recorder is enabled.
    pub trace_enabled: bool,
    /// Spans lost to ring-buffer overwrites.
    pub spans_dropped: u64,
}

impl TelemetrySnapshot {
    /// All workers merged into one engine-wide view.
    pub fn totals(&self) -> WorkerSnapshot {
        let mut total = WorkerSnapshot::default();
        for w in &self.per_worker {
            total.merge(w);
        }
        total
    }

    /// Renders Prometheus text exposition: counters and gauges for
    /// the job/scheduler state, one histogram series per lifecycle
    /// stage (with per-method labels for estimation), and
    /// `*_quantile` gauges (p50/p95/p99) derived from the buckets.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(16 * 1024);
        let s = &self.stats;
        for (name, help, value) in [
            (
                "hcc_jobs_submitted_total",
                "Jobs accepted by submit",
                s.submitted,
            ),
            (
                "hcc_jobs_completed_total",
                "Jobs finished successfully (cache hits included)",
                s.completed,
            ),
            ("hcc_jobs_failed_total", "Jobs that failed", s.failed),
            (
                "hcc_cache_hits_total",
                "Completions served from the result cache",
                s.cache_hits,
            ),
            (
                "hcc_cache_misses_total",
                "Completions that had to compute",
                s.cache_misses,
            ),
            (
                "hcc_datasets_prepared_total",
                "PREPARE calls accepted",
                s.prepared,
            ),
            (
                "hcc_datasets_derived_total",
                "DERIVE/APPEND calls accepted",
                s.derived,
            ),
            (
                "hcc_trace_spans_dropped_total",
                "Spans lost to ring-buffer overwrites",
                self.spans_dropped,
            ),
        ] {
            push_series(&mut out, name, "counter", help, &[("", value)]);
        }
        for (name, help, value) in [
            ("hcc_workers", "Worker-pool size", self.workers as u64),
            (
                "hcc_queue_depth",
                "Jobs waiting in the bounded queue",
                self.queued as u64,
            ),
            (
                "hcc_prepared_datasets",
                "Datasets currently in the prepared registry",
                self.prepared_datasets as u64,
            ),
        ] {
            push_series(&mut out, name, "gauge", help, &[("", value)]);
        }
        out.push_str("# HELP hcc_uptime_seconds Time since the engine booted\n");
        out.push_str("# TYPE hcc_uptime_seconds gauge\n");
        out.push_str(&format!(
            "hcc_uptime_seconds {}\n",
            fmt_seconds(u64::try_from(self.uptime.as_nanos()).unwrap_or(u64::MAX))
        ));

        // Per-worker scheduler counters.
        let worker_counter = |snap: &WorkerSnapshot, field: fn(&WorkerSnapshot) -> u64| field(snap);
        for (name, help, field) in [
            (
                "hcc_tasks_executed_total",
                "Node tasks run by this worker",
                (|w| w.tasks_executed) as fn(&WorkerSnapshot) -> u64,
            ),
            (
                "hcc_tasks_stolen_total",
                "Node tasks stolen from another worker's deque",
                |w| w.tasks_stolen,
            ),
            (
                "hcc_steal_attempts_total",
                "Steal scans started by this worker",
                |w| w.steal_attempts,
            ),
            (
                "hcc_steal_successes_total",
                "Steal scans that yielded a task",
                |w| w.steal_successes,
            ),
            (
                "hcc_steal_failed_probes_total",
                "Empty victim lanes probed during steal scans",
                |w| w.steal_failed_probes,
            ),
        ] {
            let series: Vec<(String, u64)> = self
                .per_worker
                .iter()
                .enumerate()
                .map(|(i, w)| (format!("{{worker=\"{i}\"}}"), worker_counter(w, field)))
                .collect();
            let refs: Vec<(&str, u64)> = series.iter().map(|(l, v)| (l.as_str(), *v)).collect();
            push_series(&mut out, name, "counter", help, &refs);
        }
        // Per-worker idle time as a plain counter (seconds).
        out.push_str("# HELP hcc_worker_idle_seconds_total Time this worker spent parked\n");
        out.push_str("# TYPE hcc_worker_idle_seconds_total counter\n");
        for (i, w) in self.per_worker.iter().enumerate() {
            out.push_str(&format!(
                "hcc_worker_idle_seconds_total{{worker=\"{i}\"}} {}\n",
                fmt_seconds(w.idle.sum_ns)
            ));
        }

        // Engine-wide latency histograms + derived quantiles.
        let totals = self.totals();
        for (name, help, hist) in [
            (
                "hcc_queue_wait_seconds",
                "Job submission to expansion",
                &totals.queue_wait,
            ),
            (
                "hcc_expand_seconds",
                "Job expansion into node tasks",
                &totals.expand,
            ),
            (
                "hcc_gate_wait_seconds",
                "Compute-gate acquisition wait",
                &totals.gate_wait,
            ),
            ("hcc_task_seconds", "Node-task run time", &totals.task_run),
            (
                "hcc_finalize_seconds",
                "Job finalization (top-down phase, CSV, cache insert)",
                &totals.finalize,
            ),
            (
                "hcc_worker_idle_seconds",
                "Length of individual idle stretches",
                &totals.idle,
            ),
        ] {
            push_histogram(&mut out, name, help, "", hist);
        }
        out.push_str(
            "# HELP hcc_estimate_seconds Per-node estimation time by level method\n\
             # TYPE hcc_estimate_seconds histogram\n",
        );
        for kind in MethodKind::ALL {
            push_histogram_body(
                &mut out,
                "hcc_estimate_seconds",
                &format!("method=\"{}\"", kind.label()),
                totals.estimate_for(kind),
            );
        }
        for kind in MethodKind::ALL {
            push_quantiles(
                &mut out,
                "hcc_estimate_seconds",
                &format!("method=\"{}\"", kind.label()),
                totals.estimate_for(kind),
            );
        }
        out
    }
}

/// Writes `# HELP`/`# TYPE` plus one sample line per `(labels,
/// value)` pair (`labels` already braced, or empty).
fn push_series(out: &mut String, name: &str, kind: &str, help: &str, samples: &[(&str, u64)]) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for (labels, value) in samples {
        out.push_str(&format!("{name}{labels} {value}\n"));
    }
}

/// Formats nanoseconds as decimal seconds without float rounding
/// surprises (9 fractional digits, trailing zeros trimmed).
fn fmt_seconds(ns: u64) -> String {
    let whole = ns / 1_000_000_000;
    let frac = ns % 1_000_000_000;
    if frac == 0 {
        return format!("{whole}");
    }
    let mut s = format!("{whole}.{frac:09}");
    while s.ends_with('0') {
        s.pop();
    }
    s
}

/// Writes a full histogram: HELP/TYPE header, buckets, sum, count,
/// then the derived quantile gauges.
fn push_histogram(out: &mut String, name: &str, help: &str, labels: &str, h: &HistogramSnapshot) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    push_histogram_body(out, name, labels, h);
    push_quantiles(out, name, labels, h);
}

/// Writes the `_bucket`/`_sum`/`_count` lines of one histogram
/// (header emitted by the caller, so label variants share one TYPE).
fn push_histogram_body(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    let sep = if labels.is_empty() { "" } else { "," };
    for (i, &c) in h.buckets.iter().enumerate() {
        cumulative += c;
        let le = if i == HIST_BUCKETS - 1 {
            "+Inf".to_string()
        } else {
            fmt_seconds(bucket_upper_ns(i))
        };
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    let braced = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_sum{braced} {}\n", fmt_seconds(h.sum_ns)));
    out.push_str(&format!("{name}_count{braced} {}\n", h.count));
}

/// Writes the p50/p95/p99 gauge lines derived from one histogram.
fn push_quantiles(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
        out.push_str(&format!(
            "{name}_quantile{{{labels}{sep}q=\"{label}\"}} {}\n",
            fmt_seconds(h.quantile_ns(q))
        ));
    }
}

/// Renders recorded spans as Chrome-trace JSON (the object form with
/// a `traceEvents` array), loadable in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev): one complete (`"ph":"X"`)
/// event per span, timestamps in microseconds since engine boot,
/// `tid` = worker index, plus thread-name metadata so workers are
/// labelled in the UI.
pub fn chrome_trace_json(spans: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(128 + 96 * spans.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let workers: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.worker).collect();
    let mut first = true;
    for w in workers {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{w},\
             \"args\":{{\"name\":\"worker-{w}\"}}}}"
        ));
    }
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        let ts_us = s.start_ns as f64 / 1_000.0;
        let dur_us = s.end_ns.saturating_sub(s.start_ns) as f64 / 1_000.0;
        let mut args = String::new();
        if let Some(job) = s.job {
            args.push_str(&format!("\"job\":{job}"));
        }
        if let Some(task) = s.task {
            if !args.is_empty() {
                args.push(',');
            }
            args.push_str(&format!("\"task\":{task}"));
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"hcc\",\"ph\":\"X\",\"ts\":{ts_us:.3},\
             \"dur\":{dur_us:.3},\"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
            s.kind.label(),
            s.worker
        ));
    }
    out.push_str("]}");
    out
}

/// Connection-level counters of the reactor wire path. All relaxed
/// atomics bumped from the reactor thread (and, for `backpressure`,
/// wherever a shed happens): no cross-field invariant, read only when
/// a snapshot is taken — same discipline as the per-worker
/// `WorkerMetrics` counters.
#[derive(Debug, Default)]
pub struct WireStats {
    /// Connections accepted and registered with the reactor.
    pub accepted: AtomicU64,
    /// Currently-open connections (gauge: incremented on accept,
    /// decremented on close).
    pub active: AtomicU64,
    /// Connections turned away at the `max_connections` bound.
    pub rejected: AtomicU64,
    /// Bytes read off client sockets.
    pub bytes_in: AtomicU64,
    /// Bytes written to client sockets.
    pub bytes_out: AtomicU64,
    /// Framed requests decoded.
    pub frames_in: AtomicU64,
    /// Response frames sent.
    pub frames_out: AtomicU64,
    /// BUSY backpressure frames sent (load shed to a framed client).
    pub backpressure: AtomicU64,
    /// Framed requests currently parked awaiting an engine queue slot
    /// or lane quota (gauge).
    pub parked: AtomicU64,
}

impl WireStats {
    /// Copies the counters into a plain snapshot.
    pub fn snapshot(&self) -> WireSnapshot {
        WireSnapshot {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            backpressure: self.backpressure.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of [`WireStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Connections accepted.
    pub accepted: u64,
    /// Currently-open connections.
    pub active: u64,
    /// Connections rejected at the connection bound.
    pub rejected: u64,
    /// Bytes read from clients.
    pub bytes_in: u64,
    /// Bytes written to clients.
    pub bytes_out: u64,
    /// Framed requests decoded.
    pub frames_in: u64,
    /// Response frames sent.
    pub frames_out: u64,
    /// BUSY backpressure frames sent.
    pub backpressure: u64,
    /// Requests currently parked for admission.
    pub parked: u64,
}

impl WireSnapshot {
    /// Renders the wire counters as Prometheus text exposition; the
    /// reactor appends this to the engine's `METRICS` payload.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let counters: [(&str, &str, u64); 7] = [
            (
                "hcc_wire_connections_accepted_total",
                "Connections accepted by the reactor",
                self.accepted,
            ),
            (
                "hcc_wire_connections_rejected_total",
                "Connections rejected at the connection bound",
                self.rejected,
            ),
            (
                "hcc_wire_bytes_in_total",
                "Bytes read from clients",
                self.bytes_in,
            ),
            (
                "hcc_wire_bytes_out_total",
                "Bytes written to clients",
                self.bytes_out,
            ),
            (
                "hcc_wire_frames_in_total",
                "Framed requests decoded",
                self.frames_in,
            ),
            (
                "hcc_wire_frames_out_total",
                "Response frames sent",
                self.frames_out,
            ),
            (
                "hcc_wire_backpressure_total",
                "BUSY backpressure frames sent",
                self.backpressure,
            ),
        ];
        for (name, help, value) in counters {
            push_series(&mut out, name, "counter", help, &[("", value)]);
        }
        push_series(
            &mut out,
            "hcc_wire_connections_active",
            "gauge",
            "Currently-open connections",
            &[("", self.active)],
        );
        push_series(
            &mut out,
            "hcc_wire_parked_requests",
            "gauge",
            "Framed requests parked awaiting admission",
            &[("", self.parked)],
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_full_u64_range_monotonically() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(127), 0);
        assert_eq!(bucket_of(128), 1);
        assert_eq!(bucket_of(255), 1);
        assert_eq!(bucket_of(256), 2);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let mut prev = 0;
        for ns in [1u64, 100, 1_000, 50_000, 1 << 20, 1 << 40, u64::MAX] {
            let b = bucket_of(ns);
            assert!(b >= prev, "bucket_of must be monotone");
            assert!(
                ns < bucket_upper_ns(b) || b == HIST_BUCKETS - 1,
                "{ns} must sit below its bucket bound"
            );
            prev = b;
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let h = AtomicHistogram::new();
        for us in 1..=100u64 {
            h.record(Duration::from_micros(us));
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum_ns, (1..=100u64).sum::<u64>() * 1_000);
        assert_eq!(snap.max_ns, 100_000);
        let p50 = snap.quantile_ns(0.50);
        let p99 = snap.quantile_ns(0.99);
        // Log buckets: quantiles are upper bounds, so p50 lands in
        // [50µs, 128µs] and p99 within the max.
        assert!((50_000..=131_072).contains(&p50), "p50 = {p50}");
        assert!((99_000..=100_000).contains(&p99), "p99 = {p99}");
        assert_eq!(HistogramSnapshot::default().quantile_ns(0.5), 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        a.record(Duration::from_nanos(100));
        b.record(Duration::from_micros(10));
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 2);
        assert_eq!(m.sum_ns, 100 + 10_000);
        assert_eq!(m.max_ns, 10_000);
    }

    #[test]
    fn span_wire_lines_round_trip() {
        let spans = [
            SpanEvent {
                worker: 3,
                kind: SpanKind::Task,
                job: Some(17),
                task: Some(2),
                start_ns: 1_000,
                end_ns: 5_000,
            },
            SpanEvent {
                worker: 0,
                kind: SpanKind::Idle,
                job: None,
                task: None,
                start_ns: 0,
                end_ns: 99,
            },
        ];
        for s in spans {
            assert_eq!(SpanEvent::from_wire_line(&s.to_wire_line()).unwrap(), s);
        }
        assert!(SpanEvent::from_wire_line("nope").is_err());
        assert!(SpanEvent::from_wire_line("0,bogus,,,1,2").is_err());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let tel = Telemetry::new(1, 2);
        let t0 = Instant::now();
        for _ in 0..3 {
            tel.span(0, SpanKind::Idle, None, None, t0);
        }
        assert_eq!(tel.spans_dropped(), 1);
        let spans = tel.take_spans();
        assert_eq!(spans.len(), 2);
        // Draining resets the ring but keeps the drop counter.
        assert!(tel.take_spans().is_empty());
        assert_eq!(tel.spans_dropped(), 1);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let tel = Telemetry::new(2, 0);
        tel.span(0, SpanKind::Task, Some(JobId(1)), Some(0), Instant::now());
        assert!(!tel.tracing());
        assert!(tel.take_spans().is_empty());
        assert_eq!(tel.spans_dropped(), 0);
    }

    #[test]
    fn chrome_trace_json_shape() {
        let spans = vec![SpanEvent {
            worker: 1,
            kind: SpanKind::Task,
            job: Some(4),
            task: Some(0),
            start_ns: 2_500,
            end_ns: 12_500,
        }];
        let json = chrome_trace_json(&spans);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"task\""));
        assert!(json.contains("\"ts\":2.500"));
        assert!(json.contains("\"dur\":10.000"));
        assert!(json.contains("\"args\":{\"job\":4,\"task\":0}"));
        assert!(json.contains("thread_name"));
        // Balanced braces = parseable by any JSON reader.
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn fmt_seconds_is_exact_decimal() {
        assert_eq!(fmt_seconds(0), "0");
        assert_eq!(fmt_seconds(1), "0.000000001");
        assert_eq!(fmt_seconds(1_500_000_000), "1.5");
        assert_eq!(fmt_seconds(128), "0.000000128");
        assert_eq!(fmt_seconds(2_000_000_000), "2");
    }

    #[test]
    fn method_kind_labels_are_stable() {
        assert_eq!(
            MethodKind::of(LevelMethod::Cumulative { bound: 1 }).label(),
            "hc"
        );
        assert_eq!(
            MethodKind::of(LevelMethod::CumulativeL2 { bound: 1 }).label(),
            "hc_l2"
        );
        assert_eq!(MethodKind::of(LevelMethod::Unattributed).label(), "hg");
        assert_eq!(
            MethodKind::of(LevelMethod::Naive { bound: 1 }).label(),
            "naive"
        );
        assert_eq!(
            MethodKind::of(LevelMethod::Adaptive { bound: 1 }).label(),
            "adaptive"
        );
        for (i, k) in MethodKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
