//! The traced run's serial in-process replay: what the workload's
//! traffic sent — the tables it PREPAREs, a release it was served, its
//! APPEND delta and its store writes — pushed once more through each
//! crate's public functions, one span per call, so every layer's self
//! time can be read off the recorder.
//!
//! Only layers the workload's traffic reaches are replayed. The others
//! (the store and APPEND outside `ledger_churn`, the estimator the
//! workload does not use) report 0, the work that traffic does there,
//! and the run names them in a report line.
//!
//! The `Hc` and `Hg` stage replicas re-implement the two estimators
//! stage by stage from the same public building blocks. Each must
//! reproduce `estimate_node` bit for bit on every node, or the replay
//! fails and names the stage chain that drifted: a stale replica
//! would otherwise time a path the program no longer runs.

use std::path::Path;
use std::sync::Arc;

use hcc_consistency::{
    estimate_node, node_seeds, to_csv, top_down_from_estimates, HierarchicalCounts, LevelMethod,
    TopDownConfig,
};
use hcc_core::CountOfCounts;
use hcc_data::{Dataset, DatasetDelta};
use hcc_engine::protocol::frame;
use hcc_engine::protocol::SubmitParams;
use hcc_engine::{dataset_fingerprint, Engine, EngineConfig, MuxClient};
use hcc_estimators::{EstimatorWorkspace, NodeEstimate, VarianceRun};
use hcc_hierarchy::{hierarchy_from_csv, Hierarchy};
use hcc_isotonic::{anchored_cumulative_into, isotonic_l2, CumulativeLoss, PavL1Workspace};
use hcc_noise::GeometricMechanism;
use hcc_store::{DatasetRecord, Store};
use hcc_tables::CsvLoader;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{release_config, Live, WORKERS};
use crate::report::{Metric, Outcome};
use crate::trace::Recorder;

/// Repetitions of each single-call probe; the median is reported.
const REPS: usize = 3;

/// One store write the workload's traffic makes.
#[derive(Clone, Copy)]
pub enum StoreOp {
    /// A new dataset record: a PREPARE (or APPEND) of content the
    /// store does not hold.
    Put,
    /// A reference-count update: an APPEND of content already held, or
    /// an UNPREPARE (to 0, which drops the record).
    Refs(u64),
    /// A budget charge of one release.
    Charge(f64),
}

/// What the workload's traffic sent, for the replay to repeat.
pub struct ReplayInput<'a> {
    /// The dataset the workload PREPAREs over the wire, and its tables.
    pub prepared: &'a Dataset,
    pub tables: [&'a str; 3],
    /// A release the workload was served, and the dataset it came from.
    pub released: &'a Dataset,
    pub release: SubmitParams,
    /// The workload's APPEND, if it sends one: parent and delta.
    pub append: Option<(&'a Dataset, &'a DatasetDelta)>,
    /// The workload's store traffic, if it runs with a store.
    pub store: Option<StoreTraffic<'a>>,
}

/// A workload's store writes and the store it boots from.
pub struct StoreTraffic<'a> {
    /// The store the workload booted from, for the boot probe.
    pub boot: &'a Path,
    /// Directory for the replay's own store.
    pub scratch: &'a Path,
    /// The store writes of `cycles` consecutive workload cycles, in
    /// order.
    pub writes: &'a [StoreOp],
    pub cycles: usize,
}

/// Runs the replay and adds the per-layer metrics it measures to
/// `out`, 0 for the layers the workload's traffic does not reach.
pub fn replay(
    input: &ReplayInput<'_>,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut unreached = Vec::new();
    let metrics = &mut out.per_layer;
    metrics.extend(load_probe(input.prepared, input.tables, rec)?);
    metrics.extend(registry_probe(input.prepared, rec)?);
    metrics.extend(match input.append {
        Some((parent, delta)) => append_probe(parent, delta, rec)?,
        None => {
            unreached.push("APPEND (registry.derive, delta.apply)");
            append_metrics(0.0, 0.0)
        }
    });
    let cfg = release_config(&input.release)?;
    let (estimates, hc, hg) = match cfg.method_for_level(0) {
        LevelMethod::Cumulative { bound } => {
            unreached.push("the Hg estimator (hg_stage, estimate.hg)");
            let (estimates, hc) = hc_probe(input, &cfg, bound, rec)?;
            (estimates, hc, hg_metrics(0.0, 0.0, 0.0))
        }
        _ => {
            unreached.push("the Hc estimator (hc_stage, estimate.hc)");
            let (estimates, hg) = hg_probe(input, &cfg, rec)?;
            (estimates, hc_metrics(0.0, 0.0, 0.0, 0.0, 0.0), hg)
        }
    };
    metrics.extend(hc);
    metrics.extend(hg);
    let csv = consistency_probe(&input.released.hierarchy, &cfg, estimates, rec, metrics)?;
    metrics.extend(codec_probe(&csv, rec)?);
    metrics.push(wire_overhead_probe(input, rec)?);
    metrics.extend(match &input.store {
        Some(store) => store_probe(store, input.prepared, rec)?,
        None => {
            unreached.push("the store (store.*, engine.boot_rebuild)");
            store_metrics(0.0, 0.0, 0.0, 0.0, 0.0)
        }
    });
    out.notes.push(format!(
        "not reached by this workload's traffic, reported as 0: {}",
        unreached.join("; ")
    ));
    Ok(())
}

fn median_ms(rec: &Recorder, name: &str) -> f64 {
    rec.median_self_ns(name) / 1e6
}

/// `hcc-tables` / `hcc-hierarchy::parse` / aggregation of the tables
/// the workload PREPAREs.
fn load_probe(
    prepared: &Dataset,
    tables: [&str; 3],
    rec: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let [h_csv, g_csv, e_csv] = tables;
    let want = dataset_fingerprint(&prepared.hierarchy, &prepared.data);
    for _ in 0..REPS {
        let parsed = rec.time("load.parse", 0, || {
            let (hierarchy, _) = hierarchy_from_csv(h_csv).map_err(|e| e.to_string())?;
            let mut loader = CsvLoader::new(&hierarchy);
            loader.load_groups(g_csv).map_err(|e| e.to_string())?;
            loader.load_entities(e_csv).map_err(|e| e.to_string())?;
            let db = loader.finish();
            Ok::<_, String>((hierarchy, db))
        })?;
        let (hierarchy, db) = parsed;
        let data = rec.time("load.aggregate", 0, || {
            HierarchicalCounts::from_node_histograms(&hierarchy, db.node_histograms(&hierarchy))
                .map_err(|e| e.to_string())
        })?;
        if dataset_fingerprint(&hierarchy, &data) != want {
            return Err("replay: the parsed tables do not reproduce the dataset".to_string());
        }
    }
    let bytes: usize = tables.iter().map(|t| t.len()).sum();
    let parse_ms = median_ms(rec, "load.parse");
    Ok(vec![
        Metric::new("load.parse_ms", "ms", parse_ms),
        Metric::new(
            "load.parse_mb_per_s",
            "MB/s",
            bytes as f64 / 1e6 / (parse_ms / 1e3),
        ),
        Metric::new("load.aggregate_ms", "ms", median_ms(rec, "load.aggregate")),
    ])
}

/// Fingerprint and registry prepare of the PREPAREd dataset, on an
/// engine of their own.
fn registry_probe(prepared: &Dataset, rec: &mut Recorder) -> Result<Vec<Metric>, String> {
    let (hierarchy, data) = (&prepared.hierarchy, &prepared.data);
    for _ in 0..REPS {
        rec.time("fingerprint.dataset", 0, || {
            dataset_fingerprint(hierarchy, data)
        });
    }
    let engine = Engine::start(EngineConfig::default().with_workers(WORKERS));
    let (h, d) = (Arc::new(hierarchy.clone()), Arc::new(data.clone()));
    for _ in 0..REPS {
        let handle = rec
            .time("registry.prepare", 0, || {
                engine.prepare(Arc::clone(&h), Arc::clone(&d))
            })
            .map_err(|e| e.to_string())?;
        engine.unprepare(handle).map_err(|e| e.to_string())?;
    }
    Ok(vec![
        Metric::new(
            "fingerprint.dataset_ms",
            "ms",
            median_ms(rec, "fingerprint.dataset"),
        ),
        Metric::new(
            "registry.prepare_ms",
            "ms",
            median_ms(rec, "registry.prepare"),
        ),
    ])
}

/// The workload's APPEND: the delta on its own, and the registry
/// derive that applies it and re-digests the result.
fn append_probe(
    parent: &Dataset,
    delta: &DatasetDelta,
    rec: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let (hierarchy, data) = (&parent.hierarchy, &parent.data);
    for _ in 0..REPS {
        let mut copy = data.clone();
        rec.time("delta.apply", 0, || delta.apply_to(hierarchy, &mut copy))
            .map_err(|e| e.to_string())?;
    }
    let engine = Engine::start(EngineConfig::default().with_workers(WORKERS));
    let handle = engine
        .prepare(Arc::new(hierarchy.clone()), Arc::new(data.clone()))
        .map_err(|e| e.to_string())?;
    for _ in 0..REPS {
        let derived = rec
            .time("registry.derive", 0, || engine.derive(handle, delta))
            .map_err(|e| e.to_string())?;
        engine.unprepare(derived).map_err(|e| e.to_string())?;
    }
    Ok(append_metrics(
        median_ms(rec, "registry.derive"),
        median_ms(rec, "delta.apply"),
    ))
}

fn append_metrics(derive_ms: f64, apply_ms: f64) -> Vec<Metric> {
    vec![
        Metric::new("registry.derive_ms", "ms", derive_ms),
        Metric::new("delta.apply_ms", "ms", apply_ms),
    ]
}

/// Scratch buffers of the `Hc` replica.
#[derive(Default)]
struct HcBuffers {
    cum: Vec<u64>,
    noisy: Vec<i64>,
    values: Vec<f64>,
    fitted: Vec<u64>,
    pav: PavL1Workspace,
}

fn same_bits(a: &NodeEstimate, b: &NodeEstimate) -> bool {
    a.hist() == b.hist()
        && a.variances().len() == b.variances().len()
        && a.variances()
            .iter()
            .zip(b.variances())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `Hc` per node: cumulative view → double-geometric noise → anchored
/// L1 fit → differenced runs.
fn hc_replica(
    hist: &CountOfCounts,
    epsilon: f64,
    bound: u64,
    rng: &mut StdRng,
    b: &mut HcBuffers,
    rec: &mut Recorder,
) -> NodeEstimate {
    rec.time("hc_stage.cumulative", 0, || {
        hist.to_cumulative_into(bound, &mut b.cum)
    });
    let mech = GeometricMechanism::new(epsilon, 1.0);
    rec.time("hc_stage.noise", 0, || {
        mech.privatize_into(&b.cum, &mut b.noisy, rng)
    });
    rec.time("hc_stage.fit", 0, || {
        anchored_cumulative_into(
            &b.noisy,
            hist.num_groups(),
            CumulativeLoss::L1,
            &mut b.pav,
            &mut b.values,
            &mut b.fitted,
        )
    });
    let mut runs = Vec::new();
    let mut prev = 0u64;
    for (size, &cell) in b.fitted.iter().enumerate() {
        let count = cell.saturating_sub(prev);
        prev = cell;
        if count > 0 {
            runs.push(VarianceRun {
                size: size as u64,
                count,
                variance: 4.0 / (epsilon * epsilon * count as f64),
            });
        }
    }
    NodeEstimate::from_variance_runs(runs)
}

/// `Hg` per node: noise on every group's size in ascending order →
/// L2 isotonic fit clamped at zero → runs.
fn hg_replica(
    hist: &CountOfCounts,
    epsilon: f64,
    rng: &mut StdRng,
    noisy: &mut Vec<f64>,
    rec: &mut Recorder,
) -> NodeEstimate {
    if hist.num_groups() == 0 {
        return NodeEstimate::new(CountOfCounts::new(), Vec::new());
    }
    let mech = GeometricMechanism::new(epsilon, 1.0);
    rec.time("hg_stage.noise", 0, || {
        noisy.clear();
        for (size, &count) in hist.as_slice().iter().enumerate() {
            for _ in 0..count {
                noisy.push(mech.privatize(size as u64, rng) as f64);
            }
        }
    });
    let fit = rec.time("hg_stage.fit", 0, || {
        isotonic_l2(noisy).clamped(0.0, f64::INFINITY)
    });
    let per_cell_var = 2.0 / (epsilon * epsilon);
    let runs = fit
        .blocks()
        .iter()
        .map(|b| VarianceRun {
            size: b.value.round().max(0.0) as u64,
            count: b.len as u64,
            variance: per_cell_var / b.len as f64,
        })
        .collect();
    NodeEstimate::from_variance_runs(runs)
}

/// Per-node seeds and the ε of each level, as the server derives them.
fn node_plan(input: &ReplayInput<'_>, cfg: &TopDownConfig) -> (Vec<u64>, f64) {
    let hierarchy = &input.released.hierarchy;
    let seeds = node_seeds(hierarchy, &mut StdRng::seed_from_u64(input.release.seed));
    (seeds, cfg.level_epsilon(hierarchy.num_levels()))
}

/// The workload's `Hc` release, node by node, once through
/// `estimate_node` and once through the stage replica.
fn hc_probe(
    input: &ReplayInput<'_>,
    cfg: &TopDownConfig,
    bound: u64,
    rec: &mut Recorder,
) -> Result<(Vec<NodeEstimate>, Vec<Metric>), String> {
    let (hierarchy, data) = (&input.released.hierarchy, &input.released.data);
    let (seeds, eps_level) = node_plan(input, cfg);
    let mut ws = EstimatorWorkspace::new();
    let mut bufs = HcBuffers::default();
    let mut estimates = Vec::new();
    for (node, &seed) in hierarchy.iter().zip(&seeds) {
        let served = rec.time("estimate.hc", 0, || {
            estimate_node(hierarchy, data, cfg, eps_level, node, seed, &mut ws)
        });
        let replica = hc_replica(
            data.node(node),
            eps_level,
            bound,
            &mut StdRng::seed_from_u64(seed),
            &mut bufs,
            rec,
        );
        if !same_bits(&served, &replica) {
            return Err(format!(
                "stale Hc stage replica (cumulative -> noise -> fit) at node {}: it no longer \
                 reproduces estimate_node",
                hierarchy.name(node)
            ));
        }
        estimates.push(served);
    }
    let cells = (bound + 1) * seeds.len() as u64;
    let per_cell = |name: &str| rec.self_ms(name) * 1e6 / cells.max(1) as f64;
    let metrics = hc_metrics(
        per_cell("hc_stage.cumulative"),
        per_cell("hc_stage.noise"),
        per_cell("hc_stage.fit"),
        cells as f64,
        rec.self_ms("estimate.hc"),
    );
    Ok((estimates, metrics))
}

fn hc_metrics(cumulative: f64, noise: f64, fit: f64, cells: f64, release_ms: f64) -> Vec<Metric> {
    vec![
        Metric::new("hc_stage.cumulative_ns_per_cell", "ns", cumulative),
        Metric::new("hc_stage.noise_ns_per_cell", "ns", noise),
        Metric::new("hc_stage.fit_ns_per_cell", "ns", fit),
        Metric::new("hc_stage.cells_per_release", "count", cells),
        Metric::new("estimate.hc_release_ms", "ms", release_ms),
    ]
}

/// The workload's `Hg` release, node by node, once through
/// `estimate_node` and once through the stage replica.
fn hg_probe(
    input: &ReplayInput<'_>,
    cfg: &TopDownConfig,
    rec: &mut Recorder,
) -> Result<(Vec<NodeEstimate>, Vec<Metric>), String> {
    let (hierarchy, data) = (&input.released.hierarchy, &input.released.data);
    let (seeds, eps_level) = node_plan(input, cfg);
    let mut ws = EstimatorWorkspace::new();
    let mut noisy = Vec::new();
    let mut estimates = Vec::new();
    let mut groups = 0u64;
    for (node, &seed) in hierarchy.iter().zip(&seeds) {
        let served = rec.time("estimate.hg", 0, || {
            estimate_node(hierarchy, data, cfg, eps_level, node, seed, &mut ws)
        });
        let replica = hg_replica(
            data.node(node),
            eps_level,
            &mut StdRng::seed_from_u64(seed),
            &mut noisy,
            rec,
        );
        if !same_bits(&served, &replica) {
            return Err(format!(
                "stale Hg stage replica (noise -> L2 fit) at node {}: it no longer reproduces \
                 estimate_node",
                hierarchy.name(node)
            ));
        }
        groups += data.node(node).num_groups();
        estimates.push(served);
    }
    let per_group = |name: &str| rec.self_ms(name) * 1e6 / groups.max(1) as f64;
    let metrics = hg_metrics(
        per_group("hg_stage.noise"),
        per_group("hg_stage.fit"),
        rec.self_ms("estimate.hg"),
    );
    Ok((estimates, metrics))
}

fn hg_metrics(noise: f64, fit: f64, release_ms: f64) -> Vec<Metric> {
    vec![
        Metric::new("hg_stage.noise_ns_per_group", "ns", noise),
        Metric::new("hg_stage.fit_ns_per_group", "ns", fit),
        Metric::new("estimate.hg_release_ms", "ms", release_ms),
    ]
}

/// Matching, merge and back-substitution, then CSV export, of the
/// workload's own release.
fn consistency_probe(
    hierarchy: &Hierarchy,
    cfg: &TopDownConfig,
    estimates: Vec<NodeEstimate>,
    rec: &mut Recorder,
    metrics: &mut Vec<Metric>,
) -> Result<String, String> {
    let release = rec
        .time("consistency.topdown", 0, || {
            top_down_from_estimates(hierarchy, cfg, estimates)
        })
        .map_err(|e| e.to_string())?;
    let csv = rec.time("consistency.export", 0, || to_csv(hierarchy, &release));
    metrics.push(Metric::new(
        "consistency.topdown_ms",
        "ms",
        rec.self_ms("consistency.topdown"),
    ));
    metrics.push(Metric::new(
        "consistency.export_ms",
        "ms",
        rec.self_ms("consistency.export"),
    ));
    Ok(csv)
}

/// The result frame's encode and decode for the workload's release.
fn codec_probe(csv: &str, rec: &mut Recorder) -> Result<Vec<Metric>, String> {
    let rows = u32::try_from(csv.lines().count().saturating_sub(1)).unwrap_or(u32::MAX);
    for _ in 0..5 {
        let mut buf = Vec::new();
        rec.time("wire.result_encode", 0, || {
            frame::encode_frame(&mut buf, &frame::result_frame(1, false, rows, csv))
        });
        let decoded = rec.time("wire.result_decode", 0, || {
            match frame::decode_frame(&buf, u32::MAX) {
                Ok(Some((f, _))) => frame::parse_result(&f.payload),
                Ok(None) => Err("truncated frame".to_string()),
                Err(e) => Err(e.to_string()),
            }
        })?;
        if decoded.csv != csv {
            return Err("result frame did not round-trip the release".to_string());
        }
    }
    Ok(vec![
        Metric::new(
            "wire.result_encode_us",
            "us",
            rec.median_self_ns("wire.result_encode") / 1e3,
        ),
        Metric::new(
            "wire.result_decode_us",
            "us",
            rec.median_self_ns("wire.result_decode") / 1e3,
        ),
    ])
}

/// The workload's release request served from the result cache, once
/// over `MuxClient` and once in process (`submit_prepared` + `wait`),
/// alternately; the difference of the medians is what the wire adds.
fn wire_overhead_probe(input: &ReplayInput<'_>, rec: &mut Recorder) -> Result<Metric, String> {
    let engine = Engine::start(EngineConfig::default().with_workers(WORKERS));
    let live = Live::start(engine)?;
    let handle = live
        .engine
        .prepare(
            Arc::new(input.released.hierarchy.clone()),
            Arc::new(input.released.data.clone()),
        )
        .map_err(|e| e.to_string())?;
    let cfg = release_config(&input.release)?;
    let seed = input.release.seed;
    let in_process = |engine: &Engine| -> Result<(), String> {
        let id = engine
            .submit_prepared(handle, cfg.clone(), seed)
            .map_err(|e| e.to_string())?;
        engine.wait(id).map(|_| ()).map_err(|e| e.to_string())
    };
    in_process(&live.engine)?;
    let mut mux = MuxClient::connect(live.addr()).map_err(|e| e.to_string())?;
    for i in 0..7u64 {
        rec.time("wire.in_process", i, || in_process(&live.engine))?;
        let got = rec.time("wire.mux", i, || {
            mux.submit_prepared(&input.release, handle)
        });
        match got {
            Ok(Ok(r)) if r.from_cache => {}
            Ok(Ok(_)) => return Err("wire probe: repeat request missed the cache".to_string()),
            Ok(Err(e)) => return Err(format!("wire probe: {e}")),
            Err(e) => return Err(format!("wire probe: {e}")),
        }
    }
    let _ = mux.quit();
    live.stop();
    Ok(Metric::new(
        "wire.overhead_ms",
        "ms",
        (rec.median_self_ns("wire.mux") - rec.median_self_ns("wire.in_process")) / 1e6,
    ))
}

/// The record the engine persists for a prepared dataset.
fn dataset_record(dataset: &Dataset) -> DatasetRecord {
    let (hierarchy, data) = (&dataset.hierarchy, &dataset.data);
    let mut rec = DatasetRecord {
        handle: dataset_fingerprint(hierarchy, data).0,
        names: Vec::new(),
        parents: Vec::new(),
        histograms: Vec::new(),
        refs: 1,
    };
    for node in hierarchy.iter() {
        rec.names.push(hierarchy.name(node).to_string());
        rec.parents.push(
            hierarchy
                .parent(node)
                .map_or(u64::MAX, |p| p.index() as u64),
        );
        rec.histograms.push(
            data.node(node)
                .as_slice()
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(size, &count)| (size as u64, count))
                .collect(),
        );
    }
    rec
}

fn store_err(e: impl std::fmt::Display) -> String {
    format!("store: {e}")
}

/// `hcc-store`: the workload's store writes, `REPS` times over, into
/// a store of the replay's own (each write timed, the WAL growth
/// counted), and a warm boot (open + engine rebuild) of the store the
/// workload booted from.
fn store_probe(
    traffic: &StoreTraffic<'_>,
    prepared: &Dataset,
    rec: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let record = dataset_record(prepared);
    let handle = record.handle;
    let dir = traffic.scratch.join("replay-store");
    std::fs::create_dir_all(&dir).map_err(store_err)?;
    let mut store = Store::open(dir.join("store.db")).map_err(store_err)?;
    // No checkpoint may truncate the WAL while it is being measured.
    store.set_checkpoint_bytes(u64::MAX);
    let before = store.wal_len();
    for _ in 0..REPS {
        for op in traffic.writes {
            match *op {
                StoreOp::Put => rec.time("store.put_dataset", 0, || store.put_dataset(&record)),
                StoreOp::Refs(refs) => {
                    rec.time("store.set_refs", 0, || store.set_refs(handle, refs))
                }
                StoreOp::Charge(eps) => rec
                    .time("store.charge", 0, || store.charge(handle, eps))
                    .map(|_| ()),
            }
            .map_err(store_err)?;
        }
    }
    let wal_per_cycle = (store.wal_len() - before) as f64 / (REPS * traffic.cycles).max(1) as f64;
    drop(store);

    for _ in 0..REPS {
        let store = rec
            .time("store.open", 0, || Store::open(traffic.boot))
            .map_err(store_err)?;
        let mut engine = rec
            .time("engine.boot_rebuild", 0, || {
                Engine::start_with_store(
                    EngineConfig::default()
                        .with_workers(WORKERS)
                        .with_prepared_capacity(64),
                    store,
                )
            })
            .map_err(store_err)?;
        engine.shutdown();
    }
    Ok(store_metrics(
        median_ms(rec, "store.open"),
        median_ms(rec, "engine.boot_rebuild"),
        median_ms(rec, "store.put_dataset"),
        rec.median_self_ns("store.charge") / 1e3,
        wal_per_cycle,
    ))
}

fn store_metrics(
    open_ms: f64,
    boot_rebuild_ms: f64,
    put_dataset_ms: f64,
    charge_us: f64,
    wal_bytes_per_cycle: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("store.open_ms", "ms", open_ms),
        Metric::new("engine.boot_rebuild_ms", "ms", boot_rebuild_ms),
        Metric::new("store.put_dataset_ms", "ms", put_dataset_ms),
        Metric::new("store.charge_us", "us", charge_us),
        Metric::new("store.wal_bytes_per_cycle", "bytes", wal_bytes_per_cycle),
    ]
}
