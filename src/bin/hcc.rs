//! `hcc` — command-line front end for differentially private
//! hierarchical count-of-counts releases.
//!
//! ```text
//! hcc generate --kind housing --scale 0.01 --seed 7 --out-dir data/
//!     writes hierarchy.csv, groups.csv, entities.csv
//!
//! hcc release  --hierarchy data/hierarchy.csv --groups data/groups.csv \
//!              --entities data/entities.csv --epsilon 1.0 \
//!              [--method hc|hc-l2|hg|naive|adaptive] [--bound 100000] [--seed 42] \
//!              [--threads N] --out release.csv
//!     runs Algorithm 1 on a one-shot N-worker engine and writes the
//!     consistent private release (the same bytes at every N)
//!
//! hcc stats    --hierarchy data/hierarchy.csv --release release.csv \
//!              [--region NAME]
//!     prints group-size statistics of a (released) table
//!
//! hcc stats    --addr 127.0.0.1:7878 [--watch SECS] [--raw]
//!     fetches the METRICS exposition from a running server and
//!     renders a live telemetry summary (--raw dumps the Prometheus
//!     text verbatim; --watch repeats every SECS seconds, on a fresh
//!     connection each time)
//!
//! hcc trace    --addr 127.0.0.1:7878 --out trace.json
//!     drains the server's span recorder (requires `hcc serve
//!     --trace N`) and writes Chrome-trace JSON for chrome://tracing
//!
//! hcc evaluate --hierarchy data/hierarchy.csv --release release.csv \
//!              --truth truth.csv
//!     prints per-level earth-mover's distance between two releases
//!
//! hcc serve    --addr 127.0.0.1:7878 --threads 4
//!     boots the hcc-engine job server (bounded queue, worker pool,
//!     result cache) and serves release requests over TCP — an epoll
//!     reactor speaking the framed protocol
//!
//! hcc submit   --addr 127.0.0.1:7878 --hierarchy data/hierarchy.csv \
//!              --groups data/groups.csv --entities data/entities.csv \
//!              --epsilon 1.0 --out release.csv
//!     submits one release to a running server and fetches the result
//!
//! hcc prepare  --addr 127.0.0.1:7878 --hierarchy data/hierarchy.csv \
//!              --groups data/groups.csv --entities data/entities.csv
//!     aggregates the tables locally and registers their per-node
//!     histograms in the server's prepared-dataset registry
//!     and prints the content-addressed handle
//!
//! hcc sweep    --addr 127.0.0.1:7878 --handle ds-... \
//!              --eps 0.1,0.5,1,2 --out-dir sweeps/
//!     batch-submits an ε grid over one prepared handle on one
//!     connection, streaming per-ε results as they complete
//!
//! hcc derive   --addr 127.0.0.1:7878 --handle ds-... --delta delta.csv \
//!              [--append]
//!     applies a delta table (op,region,size,new_size,count) to a
//!     prepared dataset server-side and prints the derived handle;
//!     --append also drops one reference on the parent (rolling
//!     update)
//!
//! hcc unprepare --addr 127.0.0.1:7878 --handle ds-...
//!     drops one reference to a prepared dataset
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use hccount::consistency::{from_csv as release_from_csv, HierarchicalCounts};
use hccount::core::size_stats;
use hccount::data::{Dataset, DatasetKind};
use hccount::engine::{
    level_method, protocol::SubmitParams, serve_reactor, DatasetHandle, Engine, EngineConfig,
    MuxClient, ReactorConfig, ReleaseRequest, RetryPolicy,
};
use hccount::hierarchy::{hierarchy_from_csv, Hierarchy};
use hccount::tables::CsvLoader;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    // `stats` reads files, or with `--addr` a live server: one row
    // each, so neither mode takes the other's options.
    let mode = match cmd.as_str() {
        "stats" if rest.iter().any(|a| a == "--addr") => "stats --addr",
        cmd => cmd,
    };
    let Some(&(_, run, known)) = COMMANDS.iter().find(|(name, ..)| *name == mode) else {
        eprintln!("error: unknown subcommand {cmd:?}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest, known) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e} for `hcc {mode}`\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  hcc generate --kind housing|race-white|race-hawaiian|taxi [--scale F] [--seed N] --out-dir DIR
  hcc release  --hierarchy F --groups F --entities F --epsilon F [--method hc|hc-l2|hg|naive|adaptive]
               [--bound N] [--seed N] [--threads N] --out F
  hcc stats    --hierarchy F --release F [--region NAME]
  hcc stats    --addr HOST:PORT [--watch SECS] [--raw] [--no-retry]
  hcc evaluate --hierarchy F --release F --truth F
  hcc serve    --addr HOST:PORT [--threads N] [--queue N] [--cache N]
               [--prepared N] [--read-timeout SECS (0 disables, default 30)]
               [--trace N (span-recorder capacity per worker, default 0 = off)]
               [--connections N] [--inflight N] [--bulk-inflight N] [--park N]
               [--store F.hcc (durable dataset store + WAL'd budget ledger)]
               [--budget-cap EPS (per-dataset cumulative ε ceiling; needs --store)]
  hcc submit   --addr HOST:PORT --hierarchy F --groups F --entities F --epsilon F
               [--method hc|hc-l2|hg|naive|adaptive] [--bound N] [--seed N] [--out F]
               [--no-retry (fail on the first BUSY shed instead of backing off)]
  hcc prepare  --addr HOST:PORT --hierarchy F --groups F --entities F
  hcc sweep    --addr HOST:PORT --eps F,F,... (--handle ds-HEX | --hierarchy F --groups F --entities F)
               [--method hc|hc-l2|hg|naive|adaptive] [--bound N] [--seed N] [--out-dir DIR]
               [--no-retry (fail on the first BUSY shed instead of backing off)]
  hcc derive   --addr HOST:PORT --handle ds-HEX --delta F [--append]
  hcc unprepare --addr HOST:PORT --handle ds-HEX
  hcc trace    --addr HOST:PORT [--out F (default stdout)]

environment:
  HCC_THREADS  default for --threads: the engine worker-pool size in
               `release` and `serve` (a fixed seed gives the same release
               at every thread count)
  HCC_SCALE, HCC_RUNS, HCC_SEED, HCC_BOUND, HCC_OUT
               experiment-harness knobs honoured by the hcc-bench binaries";

type Opts = HashMap<String, String>;

type Command = fn(&Opts) -> Result<(), String>;

/// Each subcommand, its entry point, and the options it reads
/// (space-separated); any other option is refused before it runs.
const COMMANDS: &[(&str, Command, &str)] = &[
    ("generate", cmd_generate, "kind scale seed out-dir"),
    (
        "release",
        cmd_release,
        "hierarchy groups entities epsilon method bound seed threads out",
    ),
    ("stats", cmd_stats, "hierarchy release region"),
    ("stats --addr", cmd_stats_server, "addr watch raw no-retry"),
    ("evaluate", cmd_evaluate, "hierarchy release truth"),
    (
        "serve",
        cmd_serve,
        "addr threads queue cache prepared read-timeout trace \
        connections inflight bulk-inflight park store budget-cap",
    ),
    (
        "submit",
        cmd_submit,
        "addr hierarchy groups entities epsilon method bound seed out no-retry",
    ),
    (
        "prepare",
        cmd_prepare,
        "addr hierarchy groups entities no-retry",
    ),
    (
        "sweep",
        cmd_sweep,
        "addr eps handle hierarchy groups entities method bound seed out-dir \
        no-retry",
    ),
    ("derive", cmd_derive, "addr handle delta append no-retry"),
    ("unprepare", cmd_unprepare, "addr handle no-retry"),
    ("trace", cmd_trace, "addr out no-retry"),
];

/// Options that are bare flags (present/absent) rather than
/// `--key value` pairs.
const FLAGS: &[&str] = &["append", "raw", "no-retry"];

/// Parses `--key value` pairs and bare flags, refusing any option not
/// in the space-separated `known`.
fn parse_opts(args: &[String], known: &str) -> Result<Opts, String> {
    let mut opts = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --option, got {key:?}"))?;
        if !known.split_whitespace().any(|k| k == key) {
            return Err(format!("unknown option --{key}"));
        }
        if FLAGS.contains(&key) {
            opts.insert(key.to_string(), "true".to_string());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{key} requires a value"))?;
        opts.insert(key.to_string(), value.clone());
    }
    Ok(opts)
}

fn required<'a>(opts: &'a Opts, key: &str) -> Result<&'a str, String> {
    opts.get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required option --{key}"))
}

fn parsed<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse {v:?}")),
    }
}

/// A count option that must be at least 1, like `--threads`: a zero
/// would leave the server unable to take any work.
fn at_least_one(opts: &Opts, key: &str, default: usize) -> Result<usize, String> {
    match parsed(opts, key, default)? {
        0 => Err(format!("--{key} must be at least 1")),
        n => Ok(n),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

fn write(path: &Path, content: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, content).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Loads hierarchy + the two row tables and aggregates to consistent
/// per-node histograms. Every IO or parse failure names the file it
/// came from.
fn load_all(opts: &Opts) -> Result<(Hierarchy, HierarchicalCounts), String> {
    let hierarchy_path = required(opts, "hierarchy")?;
    let (hierarchy, _) =
        hierarchy_from_csv(&read(hierarchy_path)?).map_err(|e| format!("{hierarchy_path}: {e}"))?;
    let mut loader = CsvLoader::new(&hierarchy);
    loader
        .load_groups_file(required(opts, "groups")?)
        .map_err(|e| e.to_string())?;
    loader
        .load_entities_file(required(opts, "entities")?)
        .map_err(|e| e.to_string())?;
    let db = loader.finish();
    let data = HierarchicalCounts::from_node_histograms(&hierarchy, db.node_histograms(&hierarchy))
        .map_err(|e| e.to_string())?;
    Ok((hierarchy, data))
}

/// Connects a framed client to `addr`. `--no-retry` turns BUSY
/// backpressure into an immediate failure; the default is the bounded
/// jittered backoff ladder.
fn connect(addr: &str, opts: &Opts) -> Result<MuxClient, String> {
    let retry = if opts.contains_key("no-retry") {
        RetryPolicy::disabled()
    } else {
        RetryPolicy::default()
    };
    MuxClient::connect(addr)
        .map(|client| client.with_retry_policy(retry))
        .map_err(|e| format!("connecting to {addr}: {e}"))
}

/// Resolves `--threads`, falling back to `HCC_THREADS`, then `default`.
fn threads_opt(opts: &Opts, default: usize) -> Result<usize, String> {
    let n = match opts.get("threads") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--threads: cannot parse {v:?}"))?,
        None => match std::env::var("HCC_THREADS") {
            Ok(v) => v
                .parse()
                .map_err(|_| format!("HCC_THREADS: cannot parse {v:?}"))?,
            Err(_) => default,
        },
    };
    if n == 0 {
        return Err("thread count must be at least 1".to_string());
    }
    Ok(n)
}

fn cmd_generate(opts: &Opts) -> Result<(), String> {
    let kind = match required(opts, "kind")? {
        "housing" => DatasetKind::Housing,
        "race-white" => DatasetKind::RaceWhite,
        "race-hawaiian" => DatasetKind::RaceHawaiian,
        "taxi" => DatasetKind::Taxi,
        other => return Err(format!("unknown dataset kind {other:?}")),
    };
    let scale: f64 = parsed(opts, "scale", 0.01)?;
    let seed: u64 = parsed(opts, "seed", 42)?;
    let out_dir = PathBuf::from(required(opts, "out-dir")?);
    let ds = Dataset::generate(kind, scale, seed);

    // Emit the hierarchy plus groups/entities rows from the leaf
    // histograms (shared with tests and benches via `to_csv_tables`).
    let (hierarchy_csv, groups, entities) = ds.to_csv_tables();
    write(&out_dir.join("hierarchy.csv"), &hierarchy_csv)?;
    write(&out_dir.join("groups.csv"), &groups)?;
    write(&out_dir.join("entities.csv"), &entities)?;
    let stats = ds.stats();
    println!(
        "wrote {} regions, {} groups, {} entities under {}",
        ds.hierarchy.num_nodes(),
        stats.groups,
        stats.entities,
        out_dir.display()
    );
    Ok(())
}

fn cmd_release(opts: &Opts) -> Result<(), String> {
    let params = SubmitParams {
        epsilon: required(opts, "epsilon")?
            .parse()
            .map_err(|_| "--epsilon: not a number".to_string())?,
        method: opts.get("method").cloned().unwrap_or_else(|| "hc".into()),
        bound: parsed(opts, "bound", 100_000)?,
        seed: parsed(opts, "seed", 42)?,
        handle: None,
    };
    // The checks `hcc serve` makes before admission, so a bad ε or
    // bound is one error line rather than a worker panic.
    let cfg = params.config()?;
    let (hierarchy, data) = load_all(opts)?;
    let threads = threads_opt(opts, 1)?;
    // A one-shot engine: the scheduler is the only parallel executor,
    // and its output is byte-identical at every worker count.
    let regions = hierarchy.num_nodes();
    let engine = Engine::start(EngineConfig::default().with_workers(threads));
    let method = cfg.method_for_level(0).name();
    let request = ReleaseRequest::new(Arc::new(hierarchy), Arc::new(data), cfg, params.seed);
    let id = engine.submit(request).map_err(|e| e.to_string())?;
    let (result, _) = engine.wait(id).map_err(|e| e.to_string())?;
    let out = PathBuf::from(required(opts, "out")?);
    write(&out, &result.csv)?;
    println!(
        "released {regions} regions under ε = {} ({method}) to {}",
        params.epsilon,
        out.display()
    );
    Ok(())
}

/// The group-size report of a release file.
fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let (hierarchy, _) =
        hierarchy_from_csv(&read(required(opts, "hierarchy")?)?).map_err(|e| e.to_string())?;
    let release = release_from_csv(&hierarchy, &read(required(opts, "release")?)?)
        .map_err(|e| e.to_string())?;
    let nodes: Vec<_> = match opts.get("region") {
        Some(name) => {
            let node = hierarchy
                .iter()
                .find(|&n| hierarchy.name(n) == name)
                .ok_or_else(|| format!("unknown region {name:?}"))?;
            vec![node]
        }
        None => hierarchy.iter().collect(),
    };
    println!(
        "{:<20} {:>10} {:>12} {:>9} {:>9} {:>8} {:>10}",
        "region", "groups", "entities", "mean", "median", "max", "skewness"
    );
    for node in nodes {
        let h = release.node(node);
        match size_stats(h) {
            Some(s) => println!(
                "{:<20} {:>10} {:>12} {:>9.2} {:>9} {:>8} {:>10.2}",
                hierarchy.name(node),
                s.groups,
                s.entities,
                s.mean,
                s.median,
                s.max,
                s.skewness
            ),
            None => println!("{:<20} {:>10}", hierarchy.name(node), 0),
        }
    }
    Ok(())
}

/// Live-server telemetry: fetches the `METRICS` exposition and
/// renders a summary (or dumps it verbatim with `--raw`). `--watch N`
/// repeats every N seconds until killed, on a fresh connection per
/// sample so a watch period longer than the server's read timeout
/// never finds its connection closed as idle.
fn cmd_stats_server(opts: &Opts) -> Result<(), String> {
    let addr = required(opts, "addr")?;
    let raw = opts.contains_key("raw");
    let watch_secs: u64 = parsed(opts, "watch", 0)?;
    loop {
        let mut client = connect(addr, opts)?;
        let text = client
            .metrics()
            .map_err(|e| format!("talking to {addr}: {e}"))?;
        let _ = client.quit();
        if raw {
            print!("{text}");
        } else {
            print!("{}", render_metrics_summary(&text));
        }
        if watch_secs == 0 {
            break;
        }
        println!();
        std::thread::sleep(std::time::Duration::from_secs(watch_secs));
    }
    Ok(())
}

/// Parses Prometheus text exposition into `full-series-name → value`
/// (labels kept verbatim in the key), skipping `#` comment lines.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut map = HashMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                map.insert(name.to_string(), v);
            }
        }
    }
    map
}

/// Renders the human summary of one METRICS exposition: job/cache
/// counters, scheduler totals (summed over per-worker series), and a
/// per-stage latency table from the derived quantile gauges.
fn render_metrics_summary(text: &str) -> String {
    let m = parse_exposition(text);
    let get = |name: &str| m.get(name).copied().unwrap_or(0.0);
    // Per-worker counters carry a `{worker="i"}` label; sum them.
    let sum_labeled = |prefix: &str| -> f64 {
        m.iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.as_bytes().get(prefix.len()) == Some(&b'{'))
            .map(|(_, v)| v)
            .sum()
    };
    let mut out = String::new();
    out.push_str(&format!(
        "jobs      submitted {}  completed {}  failed {}  queued {}\n",
        get("hcc_jobs_submitted_total"),
        get("hcc_jobs_completed_total"),
        get("hcc_jobs_failed_total"),
        get("hcc_queue_depth"),
    ));
    out.push_str(&format!(
        "cache     hits {}  misses {}\n",
        get("hcc_cache_hits_total"),
        get("hcc_cache_misses_total"),
    ));
    out.push_str(&format!(
        "datasets  registry {}  prepared {}  derived {}\n",
        get("hcc_prepared_datasets"),
        get("hcc_datasets_prepared_total"),
        get("hcc_datasets_derived_total"),
    ));
    out.push_str(&format!(
        "workers   {}  uptime {:.1}s  trace spans dropped {}\n",
        get("hcc_workers"),
        get("hcc_uptime_seconds"),
        get("hcc_trace_spans_dropped_total"),
    ));
    out.push_str(&format!(
        "wire      conns {} active ({} accepted, {} rejected)  \
         frames {} in / {} out  busy {}  parked {}\n",
        get("hcc_wire_connections_active"),
        get("hcc_wire_connections_accepted_total"),
        get("hcc_wire_connections_rejected_total"),
        get("hcc_wire_frames_in_total"),
        get("hcc_wire_frames_out_total"),
        get("hcc_wire_backpressure_total"),
        get("hcc_wire_parked_requests"),
    ));
    out.push_str(&format!(
        "tasks     executed {}  stolen {}\n",
        sum_labeled("hcc_tasks_executed_total"),
        sum_labeled("hcc_tasks_stolen_total"),
    ));
    out.push_str(&format!(
        "steals    attempts {}  successes {}  failed probes {}\n",
        sum_labeled("hcc_steal_attempts_total"),
        sum_labeled("hcc_steal_successes_total"),
        sum_labeled("hcc_steal_failed_probes_total"),
    ));
    out.push_str(&format!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}\n",
        "stage", "count", "p50", "p95", "p99"
    ));
    let fmt_latency = |secs: f64| -> String {
        if secs >= 1.0 {
            format!("{secs:.2}s")
        } else if secs >= 1e-3 {
            format!("{:.2}ms", secs * 1e3)
        } else if secs >= 1e-6 {
            format!("{:.2}us", secs * 1e6)
        } else {
            format!("{:.0}ns", secs * 1e9)
        }
    };
    let stage_row = |label: &str, series: &str, labels: &str| {
        let sep = if labels.is_empty() { "" } else { "," };
        let count = get(&format!(
            "{series}_count{}",
            if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            }
        ));
        if count == 0.0 {
            return String::new();
        }
        let q = |qs: &str| {
            fmt_latency(get(&format!(
                "{series}_quantile{{{labels}{sep}q=\"{qs}\"}}"
            )))
        };
        format!(
            "{label:<22} {count:>10} {:>10} {:>10} {:>10}\n",
            q("0.5"),
            q("0.95"),
            q("0.99")
        )
    };
    for (label, series) in [
        ("queue_wait", "hcc_queue_wait_seconds"),
        ("expand", "hcc_expand_seconds"),
        ("gate_wait", "hcc_gate_wait_seconds"),
        ("task", "hcc_task_seconds"),
        ("finalize", "hcc_finalize_seconds"),
        ("worker_idle", "hcc_worker_idle_seconds"),
    ] {
        out.push_str(&stage_row(label, series, ""));
    }
    for method in ["hc", "hc_l2", "hg", "naive", "adaptive"] {
        out.push_str(&stage_row(
            &format!("estimate[{method}]"),
            "hcc_estimate_seconds",
            &format!("method=\"{method}\""),
        ));
    }
    out
}

/// Drains a running server's span recorder and writes Chrome-trace
/// JSON (load in `chrome://tracing` or Perfetto). Requires the server
/// to have been started with `--trace N`; with the recorder off the
/// dump is valid but empty.
fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let addr = required(opts, "addr")?;
    let mut client = connect(addr, opts)?;
    let spans = client
        .trace()
        .map_err(|e| format!("talking to {addr}: {e}"))?;
    let json = hccount::engine::chrome_trace_json(&spans);
    match opts.get("out") {
        Some(out) => {
            let out = PathBuf::from(out);
            write(&out, &json)?;
            println!("{} spans written to {}", spans.len(), out.display());
        }
        None => println!("{json}"),
    }
    let _ = client.quit();
    Ok(())
}

/// Boots the hcc-engine worker pool and serves it over TCP until
/// killed. Prints one `listening` line (with the actual port, so
/// `--addr host:0` is scriptable) before blocking.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let addr = required(opts, "addr")?;
    let default_workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let workers = threads_opt(opts, default_workers)?;
    let queue = at_least_one(opts, "queue", 64)?;
    let cache: usize = parsed(opts, "cache", 32)?;
    let prepared: usize = parsed(opts, "prepared", 16)?;
    let read_timeout_secs: u64 = parsed(opts, "read-timeout", 30)?;
    let trace: usize = parsed(opts, "trace", 0)?;
    let inflight = at_least_one(opts, "inflight", 256)?;
    let bulk_inflight = at_least_one(opts, "bulk-inflight", 64)?;
    let park: usize = parsed(opts, "park", 64)?;
    let connections = at_least_one(opts, "connections", 1024)?;
    let budget_cap: Option<f64> = match opts.get("budget-cap") {
        Some(v) => {
            let cap: f64 = v
                .parse()
                .map_err(|_| format!("--budget-cap: cannot parse {v:?}"))?;
            if !(cap.is_finite() && cap > 0.0) {
                return Err("--budget-cap must be a positive finite ε".to_string());
            }
            Some(cap)
        }
        None => None,
    };
    if budget_cap.is_some() && !opts.contains_key("store") {
        return Err(
            "--budget-cap needs --store: a cap that a restart resets does not bound ε".into(),
        );
    }
    let mut engine_cfg = EngineConfig::default()
        .with_workers(workers)
        .with_queue_capacity(queue)
        .with_cache_capacity(cache)
        .with_prepared_capacity(prepared)
        .with_trace_capacity(trace);
    if let Some(cap) = budget_cap {
        engine_cfg = engine_cfg.with_budget_cap(cap);
    }
    let engine = match opts.get("store") {
        Some(path) => {
            // Recovery happens inside `open` (WAL replay) and
            // `start_with_store` (fingerprint-verified reload); the
            // summary line is printed before serving so restart
            // scripts can compare budgets across a crash.
            let store = hccount::store::Store::open(Path::new(path))
                .map_err(|e| format!("opening store {path}: {e}"))?;
            println!(
                "store {path}: {} dataset(s), total spent eps={:.6}, cap {}",
                store.datasets().len(),
                store.total_spent(),
                budget_cap.map_or("off".to_string(), |c| format!("eps={c}")),
            );
            Engine::start_with_store(engine_cfg, store)
                .map_err(|e| format!("recovering store {path}: {e}"))?
        }
        None => Engine::start(engine_cfg),
    };
    // `--read-timeout 0` disables the idle disconnect.
    let read_timeout =
        (read_timeout_secs > 0).then(|| std::time::Duration::from_secs(read_timeout_secs));
    let reactor_cfg = ReactorConfig::default()
        .with_read_timeout(read_timeout)
        .with_max_connections(connections)
        .with_interactive_inflight(inflight)
        .with_bulk_inflight(bulk_inflight)
        .with_park_capacity(park);
    let handle = serve_reactor(Arc::new(engine), addr, reactor_cfg)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!(
        "hcc-engine listening on {} ({workers} workers, queue {queue}, cache {cache}, \
         prepared {prepared}, lanes {inflight}/{bulk_inflight}, park {park}, \
         read timeout {}, trace {})",
        handle.addr(),
        if read_timeout_secs > 0 {
            format!("{read_timeout_secs}s")
        } else {
            "off".to_string()
        },
        if trace > 0 {
            format!("{trace} spans/worker")
        } else {
            "off".to_string()
        }
    );
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

/// Client mode: submits one release request to a running `hcc serve`
/// and downloads the result.
fn cmd_submit(opts: &Opts) -> Result<(), String> {
    let addr = required(opts, "addr")?;
    let params = SubmitParams {
        epsilon: required(opts, "epsilon")?
            .parse()
            .map_err(|_| "--epsilon: not a number".to_string())?,
        method: opts.get("method").cloned().unwrap_or_else(|| "hc".into()),
        bound: parsed(opts, "bound", 100_000)?,
        seed: parsed(opts, "seed", 42)?,
        handle: None,
    };
    // Validate the method locally for a fast, friendly error.
    level_method(&params.method, params.bound)?;
    let hierarchy_csv = read(required(opts, "hierarchy")?)?;
    let groups_csv = read(required(opts, "groups")?)?;
    let entities_csv = read(required(opts, "entities")?)?;

    let mut client = connect(addr, opts)?;
    let release = client
        .submit_release(&params, &hierarchy_csv, &groups_csv, &entities_csv)
        .map_err(|e| format!("talking to {addr}: {e}"))?
        .map_err(|e| format!("request refused: {e}"))?;
    let _ = client.quit();
    match opts.get("out") {
        Some(out) => {
            let out = PathBuf::from(out);
            write(&out, &release.csv)?;
            println!(
                "submitted: {} rows ({}) written to {}",
                release.csv.lines().count().saturating_sub(1),
                if release.from_cache {
                    "cache hit"
                } else {
                    "computed"
                },
                out.display()
            );
        }
        None => print!("{}", release.csv),
    }
    Ok(())
}

/// Loads the three tables into a running server's prepared-dataset
/// registry and prints the content-addressed handle.
fn cmd_prepare(opts: &Opts) -> Result<(), String> {
    let addr = required(opts, "addr")?;
    let hierarchy_csv = read(required(opts, "hierarchy")?)?;
    let groups_csv = read(required(opts, "groups")?)?;
    let entities_csv = read(required(opts, "entities")?)?;
    let mut client = connect(addr, opts)?;
    let handle = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .map_err(|e| format!("talking to {addr}: {e}"))?
        .map_err(|e| format!("tables not prepared: {e}"))?;
    println!("prepared {handle}");
    let _ = client.quit();
    Ok(())
}

/// Applies a delta CSV to a prepared dataset server-side (`DERIVE`,
/// or `APPEND` with `--append`) and prints the derived handle.
fn cmd_derive(opts: &Opts) -> Result<(), String> {
    let addr = required(opts, "addr")?;
    let parent: DatasetHandle = required(opts, "handle")?.parse()?;
    let delta_path = required(opts, "delta")?;
    let delta = hccount::data::DatasetDelta::from_csv(&read(delta_path)?)
        .map_err(|e| format!("{delta_path}: {e}"))?;
    let append = opts.contains_key("append");
    let mut client = connect(addr, opts)?;
    let io_err = |e: std::io::Error| format!("talking to {addr}: {e}");
    let derived = if append {
        client.append(parent, &delta)
    } else {
        client.derive(parent, &delta)
    }
    .map_err(io_err)?
    .map_err(|e| format!("server rejected the delta: {e}"))?;
    println!(
        "derived {derived} from {parent} ({} delta op(s){})",
        delta.len(),
        if append {
            ", parent reference dropped"
        } else {
            ""
        }
    );
    let _ = client.quit();
    Ok(())
}

/// Drops one reference to a prepared dataset on the server.
fn cmd_unprepare(opts: &Opts) -> Result<(), String> {
    let addr = required(opts, "addr")?;
    let handle: DatasetHandle = required(opts, "handle")?.parse()?;
    let mut client = connect(addr, opts)?;
    let refs = client
        .unprepare(handle)
        .map_err(|e| format!("talking to {addr}: {e}"))?
        .map_err(|e| format!("server rejected the request: {e}"))?;
    println!("unprepared {handle} ({refs} references remain)");
    let _ = client.quit();
    Ok(())
}

/// Batch-submits an ε grid over one prepared handle on a single
/// connection. With table paths instead of `--handle`, prepares them
/// first (and unprepares on the way out). Each release is written to
/// `--out-dir/release-eps-<ε>.csv` when given; otherwise only the
/// per-ε summary lines are printed. Every grid point is pipelined up
/// front on one connection; the server computes them concurrently and
/// the responses come back matched by request id.
fn cmd_sweep(opts: &Opts) -> Result<(), String> {
    let addr = required(opts, "addr")?;
    let eps_tokens: Vec<String> = required(opts, "eps")?
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(String::from)
        .collect();
    if eps_tokens.is_empty() {
        return Err("--eps needs at least one value".to_string());
    }
    let epsilons: Vec<f64> = eps_tokens
        .iter()
        .map(|t| {
            t.parse::<f64>()
                .map_err(|_| format!("--eps: cannot parse {t:?}"))
        })
        .collect::<Result<_, _>>()?;
    let base = SubmitParams {
        epsilon: 1.0,
        method: opts.get("method").cloned().unwrap_or_else(|| "hc".into()),
        bound: parsed(opts, "bound", 100_000)?,
        seed: parsed(opts, "seed", 42)?,
        handle: None,
    };
    level_method(&base.method, base.bound)?;
    let out_dir = opts.get("out-dir").map(PathBuf::from);
    let io_err = |e: std::io::Error| format!("talking to {addr}: {e}");

    let mut client = connect(addr, opts)?;
    let (handle, auto_prepared) = match opts.get("handle") {
        Some(h) => (h.parse::<DatasetHandle>()?, false),
        None => {
            let hierarchy_csv = read(required(opts, "hierarchy")?)?;
            let groups_csv = read(required(opts, "groups")?)?;
            let entities_csv = read(required(opts, "entities")?)?;
            let handle = client
                .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
                .map_err(io_err)?
                .map_err(|e| format!("tables not prepared: {e}"))?;
            println!("prepared {handle}");
            (handle, true)
        }
    };
    let points = client.sweep(&base, handle, &epsilons).map_err(io_err)?;
    let mut failures = 0usize;
    let mut write_err: Option<String> = None;
    // The token is positional: value-matching would alias distinct
    // tokens that parse equal (`--eps 1,1.0`) and silently skip an
    // output file.
    for (token, point) in eps_tokens.iter().zip(points) {
        let release = match point.outcome {
            Ok(release) => release,
            Err(e) => {
                failures += 1;
                eprintln!("eps={token}: failed: {e}");
                continue;
            }
        };
        let rows = release.csv.lines().count().saturating_sub(1);
        let source = if release.from_cache {
            "cache hit"
        } else {
            "computed"
        };
        let Some(dir) = &out_dir else {
            println!("eps={token}: {rows} rows ({source})");
            continue;
        };
        let path = dir.join(format!("release-eps-{token}.csv"));
        match write(&path, &release.csv) {
            Ok(()) => println!("eps={token}: {rows} rows ({source}) -> {}", path.display()),
            Err(e) => {
                failures += 1;
                write_err.get_or_insert(e);
            }
        }
    }
    if auto_prepared {
        let _ = client.unprepare(handle);
    }
    let _ = client.quit();

    if let Some(e) = write_err {
        return Err(e);
    }
    if failures > 0 {
        return Err(format!(
            "{failures} of {} sweep points failed",
            epsilons.len()
        ));
    }
    Ok(())
}

fn cmd_evaluate(opts: &Opts) -> Result<(), String> {
    let (hierarchy, _) =
        hierarchy_from_csv(&read(required(opts, "hierarchy")?)?).map_err(|e| e.to_string())?;
    let a = release_from_csv(&hierarchy, &read(required(opts, "release")?)?)
        .map_err(|e| e.to_string())?;
    let b = release_from_csv(&hierarchy, &read(required(opts, "truth")?)?)
        .map_err(|e| e.to_string())?;
    println!("{:<8} {:>8} {:>16}", "level", "nodes", "avg EMD/node");
    for l in 0..hierarchy.num_levels() {
        let nodes = hierarchy.level(l);
        let total: u64 = nodes
            .iter()
            .map(|&n| {
                hccount::core::try_emd(a.node(n), b.node(n))
                    .unwrap_or_else(|_| a.node(n).num_entities().abs_diff(b.node(n).num_entities()))
            })
            .sum();
        println!(
            "{:<8} {:>8} {:>16.2}",
            l,
            nodes.len(),
            total as f64 / nodes.len() as f64
        );
    }
    Ok(())
}
