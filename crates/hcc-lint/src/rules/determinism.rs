//! Rule `determinism`: ban nondeterminism sources on the release path.
//!
//! Releases must be bit-identical across worker counts and across runs
//! (golden-hash suites pin this). `HashMap`/`HashSet` iteration order is
//! seeded per-process by `RandomState`, `thread_rng` and `SystemTime` are
//! ambient entropy — none of them may appear in code that computes or
//! serializes a release. Use `BTreeMap`/`BTreeSet` (deterministic order) and
//! per-node seeded RNG streams instead.

use crate::rules::Finding;
use crate::syntax::SourceFile;

/// Identifiers that are banned in release-path code.
const BANNED: [(&str, &str); 6] = [
    (
        "HashMap",
        "iteration order is randomized per process; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order is randomized per process; use BTreeSet",
    ),
    ("RandomState", "per-process random hasher seed"),
    ("thread_rng", "ambient entropy; derive seeds via node_seeds"),
    (
        "from_entropy",
        "ambient entropy; derive seeds via node_seeds",
    ),
    (
        "SystemTime",
        "wall-clock reads are nondeterministic; use Instant only for telemetry durations",
    ),
];

/// Release-path crates: every file under these `src/` trees is in scope.
/// hcc-store is included because recovery must replay to the *same* bytes
/// on every run — a nondeterministic store invalidates the fingerprint
/// check at boot.
const SCOPED_CRATES: [&str; 6] = [
    "crates/hcc-core/src/",
    "crates/hcc-noise/src/",
    "crates/hcc-isotonic/src/",
    "crates/hcc-estimators/src/",
    "crates/hcc-consistency/src/",
    "crates/hcc-store/src/",
];

/// Task-execution files of hcc-engine (the scheduler, everything a worker
/// touches while computing a release, and the ledger that admits it).
/// Telemetry, server and protocol code never feed released bytes and are
/// exempt.
const SCOPED_ENGINE_FILES: [&str; 8] = [
    "crates/hcc-engine/src/engine.rs",
    "crates/hcc-engine/src/ledger.rs",
    "crates/hcc-engine/src/scheduler.rs",
    "crates/hcc-engine/src/job.rs",
    "crates/hcc-engine/src/cache.rs",
    "crates/hcc-engine/src/registry.rs",
    "crates/hcc-engine/src/fingerprint.rs",
    "crates/hcc-engine/src/locks.rs",
];

/// True when `rel` is on the release path.
pub fn in_scope(rel: &str) -> bool {
    SCOPED_CRATES.iter().any(|p| rel.starts_with(p)) || SCOPED_ENGINE_FILES.contains(&rel)
}

/// Run the rule over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(&file.rel) {
        return;
    }
    for (_, tok) in file.code() {
        for (name, why) in BANNED {
            if tok.is_ident(name) {
                out.push(Finding {
                    rule: "determinism",
                    path: file.rel.clone(),
                    line: tok.line,
                    message: format!("`{name}` on the release path: {why}"),
                });
            }
        }
    }
}
