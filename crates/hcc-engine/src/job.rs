//! Job types: what a client submits and what the engine hands back.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use hcc_consistency::{HierarchicalCounts, TopDownConfig};
use hcc_hierarchy::Hierarchy;

use crate::DatasetHandle;

/// The number the engine gives a queued job; it names the job in
/// trace spans only.
#[derive(Clone, Copy, Debug)]
pub(crate) struct JobId(pub u64);

/// A job's one consumer, bound at admission and called exactly once
/// with the job's terminal status.
pub(crate) type OnDone = Box<dyn FnOnce(JobStatus) + Send>;

/// One release to compute: the hierarchy, the sensitive per-node
/// histograms, the algorithm configuration, and the master RNG seed.
///
/// Hierarchy and data are shared via [`Arc`] so a request is cheap to
/// move into the queue even for large inputs.
#[derive(Clone, Debug)]
pub struct ReleaseRequest {
    /// The region hierarchy.
    pub hierarchy: Arc<Hierarchy>,
    /// True (sensitive) histograms, consistent by construction.
    pub data: Arc<HierarchicalCounts>,
    /// Budget, per-level methods, and merge strategy.
    pub config: TopDownConfig,
    /// Master seed; the released bytes are a pure function of
    /// (hierarchy, data, config, seed).
    pub seed: u64,
}

impl ReleaseRequest {
    /// Bundles a request.
    pub fn new(
        hierarchy: Arc<Hierarchy>,
        data: Arc<HierarchicalCounts>,
        config: TopDownConfig,
        seed: u64,
    ) -> Self {
        Self {
            hierarchy,
            data,
            config,
            seed,
        }
    }
}

/// What [`crate::Engine::submit_with`] admits: a release over inline
/// tables, or over a prepared dataset.
#[derive(Clone, Debug)]
pub enum Submission {
    /// Inline tables, already parsed and aggregated.
    Inline(ReleaseRequest),
    /// A release of the dataset prepared under `handle`.
    Prepared {
        /// The prepared dataset.
        handle: DatasetHandle,
        /// Budget, per-level methods, and merge strategy.
        config: TopDownConfig,
        /// Master seed.
        seed: u64,
    },
}

/// The claim on one submitted job's outcome, redeemed by
/// [`crate::Engine::wait`]. Dropping it drops the outcome, and the
/// release in it, as soon as the job ends.
#[derive(Debug)]
pub struct Ticket(pub(crate) mpsc::Receiver<JobStatus>);

/// A finished release.
#[derive(Clone, Debug)]
pub struct ReleaseResult {
    /// The release serialised as `region,level,size,count` CSV.
    pub csv: String,
    /// Number of data rows in `csv` (excluding the header).
    pub rows: usize,
    /// Wall-clock time the original computation took. A cache hit
    /// shares the originally computed result, so this stays the
    /// first run's duration — use the `from_cache` flag (not this
    /// field) to detect cache service.
    pub compute_time: Duration,
}

/// How a submitted job ended, as handed to its one consumer.
#[derive(Clone, Debug)]
pub enum JobStatus {
    /// Finished; `from_cache` tells whether the result was served
    /// from the result cache instead of recomputed.
    Done {
        /// The finished release.
        result: Arc<ReleaseResult>,
        /// Whether the result cache served it.
        from_cache: bool,
    },
    /// The release failed (e.g. a ragged hierarchy).
    Failed(String),
}

/// Errors surfaced by the engine's job API.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The bounded job queue is at capacity; retry later.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The engine is shutting down and accepts no new jobs.
    ShuttingDown,
    /// The job ran and failed.
    JobFailed(String),
    /// No dataset with the given handle was ever prepared.
    UnknownDataset(crate::DatasetHandle),
    /// The dataset was prepared but has since been evicted by the
    /// registry's LRU bound; prepare it again.
    DatasetEvicted(crate::DatasetHandle),
    /// Different content digested to an already-registered handle.
    /// FNV-1a is not collision-resistant, so the registry verifies
    /// content equality on repeat preparations and refuses to alias
    /// two datasets under one handle.
    DatasetCollision(crate::DatasetHandle),
    /// The engine was started with a zero-capacity prepared-dataset
    /// registry, so `PREPARE` is unavailable.
    RegistryDisabled,
    /// A `DERIVE`/`APPEND` delta failed validation against the parent
    /// dataset (unknown region, non-leaf region, removing groups that
    /// are not there, malformed delta CSV).
    BadDelta(String),
    /// Admitting the submission would push the dataset's cumulative
    /// privacy spend past the configured budget cap. Nothing was
    /// charged and no noise was drawn; the request must not be
    /// retried with the same ε.
    BudgetExhausted {
        /// The dataset whose budget is exhausted.
        handle: crate::DatasetHandle,
        /// ε already charged against this dataset.
        spent: f64,
        /// The configured per-dataset cap.
        cap: f64,
        /// ε this submission asked for.
        requested: f64,
    },
    /// The durable store could not persist a mutation (WAL append or
    /// checkpoint failed). The engine refuses to acknowledge work it
    /// cannot make durable.
    StoreFailed(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::QueueFull { capacity } => {
                write!(f, "job queue is full ({capacity} jobs)")
            }
            EngineError::ShuttingDown => write!(f, "engine is shutting down"),
            EngineError::JobFailed(msg) => write!(f, "job failed: {msg}"),
            EngineError::UnknownDataset(handle) => {
                write!(f, "unknown dataset handle {handle}")
            }
            EngineError::DatasetEvicted(handle) => {
                write!(
                    f,
                    "dataset {handle} was evicted from the prepared registry; \
                     PREPARE it again"
                )
            }
            EngineError::DatasetCollision(handle) => {
                write!(
                    f,
                    "dataset handle collision: different content digests to {handle}; \
                     refusing to alias it"
                )
            }
            EngineError::RegistryDisabled => {
                write!(f, "the prepared-dataset registry is disabled (capacity 0)")
            }
            EngineError::BadDelta(msg) => write!(f, "bad delta: {msg}"),
            EngineError::BudgetExhausted {
                handle,
                spent,
                cap,
                requested,
            } => {
                write!(
                    f,
                    "privacy budget exhausted for {handle}: \
                     spent ε={spent} of cap ε={cap}, requested ε={requested}"
                )
            }
            EngineError::StoreFailed(msg) => {
                write!(f, "durable store failed: {msg}")
            }
        }
    }
}

impl std::error::Error for EngineError {}
