//! The host and settings a run records beside its numbers.

use std::path::{Path, PathBuf};

/// Where runs write spans and their scratch stores: `out/` beside this
/// crate's manifest, inside the checkout it was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type of the mount holding `path` (longest matching
/// mount point in `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// The checkout's commit, read from `.git` when the checkout is a git
/// repository.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(git.join(r))
                .or_else(|| {
                    read(git.join("packed-refs")).and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next())
                            .map(str::to_string)
                    })
                })
                .unwrap_or_else(|| format!("unresolved {r}")),
            None => head,
        },
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// One report line per host fact and setting.
pub fn describe(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    store: Option<&Path>,
) -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut lines = vec![
        format!(
            "# workload {workload}, seed {seed}, {seconds} s, trace {}",
            u8::from(trace)
        ),
        format!(
            "# host: nproc {nproc}, cpu {}, engine workers {}",
            cpu_model(),
            crate::harness::WORKERS
        ),
        format!("# commit: {}", commit()),
    ];
    if let Some(store) = store {
        let fs = filesystem_of(store);
        lines.push(format!("# store: {} on {fs}", store.display()));
        if fs != "tmpfs" {
            lines.push(format!(
                "# WARNING: the store is on {fs}, not tmpfs: fsync latency of the shared disk \
                 enters the ledger_churn numbers"
            ));
        }
    }
    lines
}
