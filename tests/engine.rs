//! Integration tests of the `hcc-engine` subsystem: multi-worker
//! byte-identity with the direct library call, and the TCP server
//! driven end-to-end over a loopback connection with the framed
//! client.

use std::sync::Arc;
use std::time::Duration;

use hccount::consistency::{
    to_csv, top_down_release, HierarchicalCounts, LevelMethod, TopDownConfig,
};
use hccount::core::CountOfCounts;
use hccount::data::{Dataset, DatasetKind};
use hccount::data::{DatasetDelta, DeltaOp};
use hccount::engine::protocol::frame::{
    self, parse_error, read_frame, Frame, DEFAULT_MAX_FRAME, E_PROTO, E_REJECTED, E_TIMEOUT,
    T_ERROR, T_HELLO, T_HELLO_OK, T_PING, T_PONG,
};
use hccount::engine::{
    protocol::SubmitParams, serve, serve_reactor, DatasetHandle, Engine, EngineConfig, EngineError,
    Fingerprint, JobStatus, MuxClient, ReactorConfig, ReleaseRequest, Submission,
};
use hccount::hierarchy::{Hierarchy, HierarchyBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> Dataset {
    Dataset::generate(DatasetKind::Housing, 0.001, 5)
}

fn config() -> TopDownConfig {
    TopDownConfig::new(1.0).with_method(LevelMethod::Cumulative { bound: 1000 })
}

/// An `Hg` release at a vanishing ε draws noisy sizes near 10^9. The
/// estimate refuses a size above `MAX_ESTIMATE_SIZE` before it
/// allocates its dense histogram (some 8 GB here), so the job fails
/// with a message naming the cap, and the lone worker serves the next
/// request.
#[test]
fn tiny_epsilon_fails_the_job_not_the_process() {
    let hierarchy = Arc::new(HierarchyBuilder::new("root").build());
    let node = CountOfCounts::from_group_sizes([1, 2, 2, 5, 9]);
    let data = Arc::new(
        HierarchicalCounts::from_leaves(&hierarchy, vec![(Hierarchy::ROOT, node)]).unwrap(),
    );
    let engine = Engine::start(EngineConfig::default().with_workers(1));
    let submit = |cfg: &TopDownConfig| {
        let request =
            ReleaseRequest::new(Arc::clone(&hierarchy), Arc::clone(&data), cfg.clone(), 7);
        engine.wait(engine.submit(request).unwrap())
    };

    let tiny = TopDownConfig::new(1e-9).with_method(LevelMethod::Unattributed);
    match submit(&tiny) {
        Err(EngineError::JobFailed(msg)) => {
            assert!(msg.contains("MAX_ESTIMATE_SIZE"), "{msg}")
        }
        other => panic!("a tiny-epsilon Hg release must fail its job, got {other:?}"),
    }

    let normal = TopDownConfig::new(1.0).with_method(LevelMethod::Unattributed);
    let (result, _) = submit(&normal).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let direct = top_down_release(&hierarchy, &data, &normal, &mut rng).unwrap();
    assert_eq!(result.csv, to_csv(&hierarchy, &direct));
}

/// Acceptance criterion: the engine with ≥2 workers produces a
/// byte-identical release CSV to a direct single-threaded
/// `top_down_release` call with the same seed.
#[test]
fn engine_multi_worker_release_is_byte_identical_to_direct_call() {
    let ds = dataset();
    let cfg = config();
    let direct = {
        let mut rng = StdRng::seed_from_u64(99);
        to_csv(
            &ds.hierarchy,
            &top_down_release(&ds.hierarchy, &ds.data, &cfg, &mut rng).unwrap(),
        )
    };

    let engine = Engine::start(EngineConfig::default().with_workers(4));
    let hierarchy = Arc::new(ds.hierarchy);
    let data = Arc::new(ds.data);
    for _ in 0..2 {
        // Second round exercises the cache path; bytes must not change.
        let id = engine
            .submit(ReleaseRequest::new(
                Arc::clone(&hierarchy),
                Arc::clone(&data),
                cfg.clone(),
                99,
            ))
            .unwrap();
        let (result, _) = engine.wait(id).unwrap();
        assert_eq!(result.csv, direct);
    }
    let stats = engine.stats();
    assert_eq!((stats.cache_misses, stats.cache_hits), (1, 1));
}

/// The three CSV tables a server submission needs (the `hcc
/// generate` emitter, shared via [`Dataset::to_csv_tables`]).
fn tables(ds: &Dataset) -> (String, String, String) {
    ds.to_csv_tables()
}

/// A raw framed connection past its `HELLO`, for requests the typed
/// client cannot express (a malformed handle).
fn raw_framed(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    frame::write_frame(&mut stream, &Frame::empty(T_HELLO, 1)).unwrap();
    let hello = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(hello.ftype, T_HELLO_OK);
    stream
}

/// Sends `request` then a `PING` on a raw framed connection and
/// asserts the request is refused with an error frame naming `needle`
/// while the `PONG` still arrives: the connection survives. Returns
/// the refusal's error code.
fn assert_refused_then_pong(addr: std::net::SocketAddr, request: Frame, needle: &str) -> u8 {
    let mut stream = raw_framed(addr);
    let rid = request.request_id;
    frame::write_frame(&mut stream, &request).unwrap();
    frame::write_frame(&mut stream, &Frame::empty(T_PING, rid + 1)).unwrap();
    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((reply.ftype, reply.request_id), (T_ERROR, rid));
    let (code, msg) = parse_error(&reply.payload);
    assert!(msg.contains(needle), "{msg}");
    let pong = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((pong.ftype, pong.request_id), (T_PONG, rid + 1));
    code
}

/// Frame type `0x03` is retired and reserved: the server refuses it
/// like any unknown frame type, with a typed `E_PROTO` error, and the
/// connection keeps serving.
#[test]
fn retired_frame_type_0x03_is_refused_cleanly() {
    let engine = Engine::start(EngineConfig::default().with_workers(1));
    let handle = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let code = assert_refused_then_pong(
        handle.addr(),
        Frame::empty(0x03, 2),
        "unknown frame type 0x03",
    );
    assert_eq!(code, E_PROTO);
    handle.shutdown();
}

/// Acceptance criterion: submit → result over a real loopback TCP
/// connection, then the same request again from the cache.
#[test]
fn serve_end_to_end_over_loopback() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    let expected = {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = TopDownConfig::new(2.0).with_method(LevelMethod::Cumulative { bound: 500 });
        to_csv(
            &ds.hierarchy,
            &top_down_release(&ds.hierarchy, &ds.data, &cfg, &mut rng).unwrap(),
        )
    };

    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let handle = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = MuxClient::connect(handle.addr()).unwrap();
    assert!(client.ping().unwrap());

    let params = SubmitParams {
        epsilon: 2.0,
        method: "hc".into(),
        bound: 500,
        seed: 7,
        handle: None,
    };
    // The released bytes must match the direct library call (the
    // server round-trips CSV losslessly).
    let fetched = client
        .submit_release(&params, &hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .expect("server accepts a well-formed submission");
    assert_eq!(fetched.csv, expected);
    assert!(!fetched.from_cache);

    // A second identical submission is served from the cache.
    let again = client
        .submit_release(&params, &hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    assert_eq!(again.csv, expected);
    assert!(again.from_cache);

    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("hcc_cache_hits_total 1\n"), "{metrics}");
    assert!(
        metrics.contains("hcc_jobs_submitted_total 2\n"),
        "{metrics}"
    );

    client.quit().unwrap();
    handle.shutdown();
}

/// Acceptance criterion: `PREPARE` → `SUBMIT`-by-handle → `UNPREPARE`
/// over loopback TCP. Releases via a prepared handle are byte-
/// identical to inline submissions with the same seed, and an ε-sweep
/// over one handle streams per-ε results on a single connection.
#[test]
fn prepare_sweep_unprepare_over_loopback() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let handle = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = MuxClient::connect(handle.addr()).unwrap();

    let ds_handle = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .expect("server accepts well-formed tables");
    // Content-addressed: preparing the same tables again returns the
    // same handle (and bumps the refcount).
    let again = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    assert_eq!(ds_handle, again);
    let metrics = client.metrics().unwrap();
    // `hcc_datasets_prepared_total` counts PREPARE calls accepted
    // (mirrors `EngineStats::prepared`); `hcc_prepared_datasets` is the
    // live registry size — two preparations of identical content are
    // one dataset.
    assert!(
        metrics.contains("hcc_datasets_prepared_total 2\n"),
        "{metrics}"
    );
    assert!(metrics.contains("hcc_prepared_datasets 1\n"), "{metrics}");

    // Inline and by-handle submissions of the same request must be
    // byte-identical — and share one cache entry.
    let params = SubmitParams {
        epsilon: 1.5,
        method: "hc".into(),
        bound: 500,
        seed: 3,
        handle: None,
    };
    let inline = client
        .submit_release(&params, &hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let by_handle = client.submit_prepared(&params, ds_handle).unwrap().unwrap();
    assert_eq!(inline.csv, by_handle.csv);
    assert!(
        by_handle.from_cache,
        "handle submission must hit the cache entry the inline one filled"
    );

    // ε-sweep over the prepared handle, returned in grid order.
    let epsilons = [0.5, 1.0, 2.0];
    let points = client.sweep(&params, ds_handle, &epsilons).unwrap();
    let seen: Vec<f64> = points.iter().map(|p| p.epsilon).collect();
    assert_eq!(seen, epsilons);
    for point in points {
        let release = point.outcome.expect("sweep point succeeds");
        // Every sweep point must match a direct library release with
        // the same seed.
        let mut rng = StdRng::seed_from_u64(3);
        let cfg =
            TopDownConfig::new(point.epsilon).with_method(LevelMethod::Cumulative { bound: 500 });
        let direct = to_csv(
            &ds.hierarchy,
            &top_down_release(&ds.hierarchy, &ds.data, &cfg, &mut rng).unwrap(),
        );
        assert_eq!(release.csv, direct, "eps={}", point.epsilon);
    }

    // Two references were taken; both must be dropped to free it.
    assert_eq!(client.unprepare(ds_handle).unwrap().unwrap(), 1);
    assert_eq!(client.unprepare(ds_handle).unwrap().unwrap(), 0);
    let err = client
        .submit_prepared(&params, ds_handle)
        .unwrap()
        .unwrap_err();
    assert!(err.contains("unknown dataset handle"), "{err}");

    client.quit().unwrap();
    handle.shutdown();
}

/// A sweep wider than the server's bounded job queue must still
/// complete: the reactor parks the points the queue pushes back and
/// re-admits them as slots free, preserving grid order.
#[test]
fn sweep_wider_than_the_queue_backpressures_and_completes() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    // One worker, one queue slot, no cache: at most two points can be
    // in flight, so a 5-point grid must exercise the retry path.
    let engine = Engine::start(
        EngineConfig::default()
            .with_workers(1)
            .with_queue_capacity(1)
            .with_cache_capacity(0),
    );
    let handle = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = MuxClient::connect(handle.addr()).unwrap();
    let ds_handle = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let params = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };
    let epsilons = [0.5, 0.75, 1.0, 1.5, 2.0];
    let points = client.sweep(&params, ds_handle, &epsilons).unwrap();
    for p in &points {
        assert!(
            p.outcome.is_ok(),
            "every point completes despite queue pressure: {:?}",
            p.outcome
        );
    }
    let seen: Vec<f64> = points.iter().map(|p| p.epsilon).collect();
    assert_eq!(seen, epsilons, "results return in grid order");
    client.quit().unwrap();
    handle.shutdown();
}

/// Unknown and evicted handles are distinguishable wire errors, and a
/// SUBMIT that carries both a handle and data sections is rejected.
#[test]
fn unknown_and_evicted_handles_over_loopback() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    // Capacity-1 registry: the second PREPARE evicts the first.
    let engine = Engine::start(EngineConfig::default().with_prepared_capacity(1));
    let handle = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = MuxClient::connect(handle.addr()).unwrap();
    let params = SubmitParams::default();

    // Never-prepared handle.
    let bogus: DatasetHandle = "ds-00000000000000000000000000000000".parse().unwrap();
    let err = client.submit_prepared(&params, bogus).unwrap().unwrap_err();
    assert!(err.contains("unknown dataset handle"), "{err}");
    let err = client.unprepare(bogus).unwrap().unwrap_err();
    assert!(err.contains("unknown dataset handle"), "{err}");

    // Prepare A, then B (a different dataset): A is evicted and says so.
    let a = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let other = Dataset::generate(DatasetKind::Housing, 0.001, 6);
    let (h2, g2, e2) = tables(&other);
    let b = client.prepare(&h2, &g2, &e2).unwrap().unwrap();
    assert_ne!(a, b);
    let err = client.submit_prepared(&params, a).unwrap().unwrap_err();
    assert!(err.contains("evicted"), "{err}");
    assert!(client.submit_prepared(&params, b).unwrap().is_ok());

    // Handle + tables on one SUBMIT is malformed (but well-framed,
    // so the connection survives).
    let mut p = params.clone();
    p.handle = Some(b);
    let err = client
        .submit_release(&p, &hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap_err();
    assert!(err.contains("takes no data sections"), "{err}");
    assert!(client.ping().unwrap());

    // Malformed handle on a raw framed connection: the server rejects
    // it with an error frame and the connection stays usable.
    assert_refused_then_pong(
        handle.addr(),
        frame::unprepare_frame(2, "nope"),
        "malformed dataset handle",
    );

    client.quit().unwrap();
    handle.shutdown();
}

/// Acceptance criterion: `DERIVE`/`APPEND` over loopback TCP. The
/// derived handle chains content fingerprints (equal to a cold
/// `PREPARE` of the post-delta tables), releases from it are
/// byte-identical to a direct library release of the post-delta
/// dataset, and `APPEND` drops one reference on the parent.
#[test]
fn derive_and_append_over_loopback() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    // A delta built from real data so it is valid at any scale: one
    // group resized, two added, one removed.
    let leaf = ds
        .hierarchy
        .leaves()
        .find(|&l| !ds.data.node(l).is_empty())
        .expect("generated data has an occupied leaf");
    let size = ds.data.node(leaf).max_size().unwrap();
    let region = ds.hierarchy.name(leaf).to_string();
    let delta = DatasetDelta {
        ops: vec![
            DeltaOp::Resize {
                region: region.clone(),
                old_size: size,
                new_size: size + 2,
                count: 1,
            },
            DeltaOp::Add {
                region: region.clone(),
                size: 1,
                count: 2,
            },
        ],
    };
    let post = ds.apply_delta(&delta).unwrap();

    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let handle = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = MuxClient::connect(handle.addr()).unwrap();
    let parent = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();

    let derived = client.derive(parent, &delta).unwrap().unwrap();
    assert_ne!(derived, parent);

    // Fingerprint chaining: a cold PREPARE of the post-delta tables
    // must return the *same* handle as the server-side derivation.
    let (h2, g2, e2) = post.to_csv_tables();
    let cold = client.prepare(&h2, &g2, &e2).unwrap().unwrap();
    assert_eq!(cold, derived);

    // Releases from the derived handle equal a direct library release
    // of the post-delta dataset.
    let params = SubmitParams {
        epsilon: 1.25,
        method: "hc".into(),
        bound: 500,
        seed: 17,
        handle: None,
    };
    let release = client.submit_prepared(&params, derived).unwrap().unwrap();
    let direct = {
        let mut rng = StdRng::seed_from_u64(17);
        let cfg = TopDownConfig::new(1.25).with_method(LevelMethod::Cumulative { bound: 500 });
        to_csv(
            &post.hierarchy,
            &top_down_release(&post.hierarchy, &post.data, &cfg, &mut rng).unwrap(),
        )
    };
    assert_eq!(release.csv, direct);

    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("hcc_datasets_derived_total 1\n"),
        "{metrics}"
    );

    // APPEND: derives and drops one reference on the parent. The
    // parent held one reference, so it disappears.
    let append_delta = DatasetDelta {
        ops: vec![DeltaOp::Add {
            region,
            size: 2,
            count: 1,
        }],
    };
    let chained = client.append(derived, &append_delta).unwrap().unwrap();
    assert_ne!(chained, derived);
    // `derived` had two references (DERIVE + cold PREPARE); APPEND
    // dropped one, so it is still registered.
    assert_eq!(client.unprepare(derived).unwrap().unwrap(), 0);
    assert!(client.submit_prepared(&params, chained).unwrap().is_ok());

    // Bad deltas are rejections that keep the connection: removing
    // groups that are not there, then a malformed parent handle.
    let bad = DatasetDelta {
        ops: vec![DeltaOp::Remove {
            region: "nowhere".into(),
            size: 1,
            count: 1,
        }],
    };
    let err = client.derive(chained, &bad).unwrap().unwrap_err();
    assert!(err.contains("unknown region"), "{err}");
    // `derived` was fully unprepared above, so deriving from it is a
    // distinguishable unknown-handle rejection.
    let err = client.derive(derived, &append_delta).unwrap().unwrap_err();
    assert!(err.contains("unknown dataset handle"), "{err}");
    assert_refused_then_pong(
        handle.addr(),
        frame::derive_frame(
            2,
            frame::T_DERIVE,
            "nope",
            "op,region,size,new_size,count\n",
        ),
        "malformed dataset handle",
    );
    assert!(client.ping().unwrap());

    client.quit().unwrap();
    handle.shutdown();
}

/// Acceptance smoke for the O(delta) win: deriving a 1%-changed
/// dataset over the wire must beat a cold `PREPARE` of the post-delta
/// tables by a conservative 4× — the derive ships a few-line delta and
/// re-aggregates touched paths, the cold prepare re-ships and
/// re-parses one CSV row per entity.
#[test]
fn derive_beats_cold_prepare_by_a_wide_margin() {
    let ds = Dataset::generate(DatasetKind::Housing, 0.3, 6);
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    // Resize ~1% of all groups (the shared builder the `ledger_churn`
    // benchmark workload also uses).
    let delta = DatasetDelta::resize_sample(&ds, 100);
    let post = ds.apply_delta(&delta).unwrap();
    let (post_h, post_g, post_e) = post.to_csv_tables();

    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let handle = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = MuxClient::connect(handle.addr()).unwrap();
    let parent = client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();

    // Min-of-3 on both sides keeps the comparison robust to load
    // spikes on shared CI machines.
    let mut derive_time = Duration::MAX;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        client.derive(parent, &delta).unwrap().unwrap();
        derive_time = derive_time.min(t.elapsed());
    }
    let mut prepare_time = Duration::MAX;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        client.prepare(&post_h, &post_g, &post_e).unwrap().unwrap();
        prepare_time = prepare_time.min(t.elapsed());
    }
    assert!(
        derive_time * 4 < prepare_time,
        "derive {derive_time:?} must be at least 4x faster than cold prepare {prepare_time:?}"
    );
    client.quit().unwrap();
    handle.shutdown();
}

/// Satellite regression: an idle connection must not pin one of the
/// bounded connection slots forever. With a one-slot server and a
/// short read timeout, an idle client is disconnected and a
/// subsequent client's submit goes through.
#[test]
fn idle_client_no_longer_blocks_a_subsequent_submit() {
    use std::net::TcpStream;

    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = tables(&ds);
    let engine = Engine::start(EngineConfig::default().with_workers(1));
    let handle = serve_reactor(
        Arc::new(engine),
        "127.0.0.1:0",
        ReactorConfig::default()
            .with_max_connections(1)
            .with_read_timeout(Some(Duration::from_millis(150))),
    )
    .unwrap();

    // The idle client takes the only slot and sends nothing.
    let mut idle = TcpStream::connect(handle.addr()).unwrap();

    // While the slot is held, new clients are turned away with a
    // "server busy" error frame (this also proves the slot really was
    // pinned).
    let mut probe = TcpStream::connect(handle.addr()).unwrap();
    let busy = read_frame(&mut probe, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((busy.ftype, busy.request_id), (T_ERROR, 0));
    let (code, msg) = parse_error(&busy.payload);
    assert_eq!(code, E_REJECTED, "{msg}");
    assert!(msg.contains("server busy"), "{msg}");

    // The idle client is disconnected once the read timeout fires...
    let notice = read_frame(&mut idle, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((notice.ftype, notice.request_id), (T_ERROR, 0));
    let (code, msg) = parse_error(&notice.payload);
    assert_eq!(code, E_TIMEOUT, "{msg}");
    assert!(msg.contains("idle timeout"), "{msg}");
    let mut rest = Vec::new();
    std::io::Read::read_to_end(&mut idle, &mut rest).unwrap();
    assert!(rest.is_empty(), "closed");

    // ...freeing the slot: a real client now connects and submits.
    // The reactor may need a beat to recycle the slot, so retry
    // connecting briefly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let submitted = loop {
        if let Ok(mut client) = MuxClient::connect(handle.addr()) {
            let release = client
                .submit_release(
                    &SubmitParams {
                        bound: 500,
                        ..SubmitParams::default()
                    },
                    &hierarchy_csv,
                    &groups_csv,
                    &entities_csv,
                )
                .unwrap()
                .unwrap();
            client.quit().unwrap();
            break release;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed after the idle timeout"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(submitted.csv.starts_with("region,level,size,count"));
    handle.shutdown();
}

/// Runs `sweep` over `ds_handle` on its own connection to the server
/// at `addr` and, once `engine` (the one serving it) reports the first
/// completed job, calls `sabotage` from a second connection while the
/// rest of the grid is still parked. Returns the sweep's per-point
/// outcomes in grid order.
fn sweep_with_sabotage(
    addr: std::net::SocketAddr,
    engine: &Engine,
    ds_handle: DatasetHandle,
    params: &SubmitParams,
    epsilons: &[f64],
    sabotage: impl FnOnce(&mut MuxClient),
) -> Vec<(f64, Result<usize, String>)> {
    let mut saboteur = MuxClient::connect(addr).unwrap();
    let sweeper = {
        let params = params.clone();
        let epsilons = epsilons.to_vec();
        std::thread::spawn(move || {
            let mut client = MuxClient::connect(addr).unwrap();
            let points = client.sweep(&params, ds_handle, &epsilons).unwrap();
            client.quit().unwrap();
            points
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while engine.stats().completed == 0 {
        assert!(std::time::Instant::now() < deadline, "no point completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    sabotage(&mut saboteur);
    saboteur.quit().unwrap();
    sweeper
        .join()
        .unwrap()
        .into_iter()
        .map(|p| (p.epsilon, p.outcome.map(|r| r.csv.len())))
        .collect()
}

/// Satellite regression: unpreparing (or evicting) a handle while a
/// sweep is in flight against it must surface the distinguishable
/// re-prepare error on the remaining points — never a hang and never
/// a wrong result. Points accepted before the unprepare still complete
/// (jobs hold their own `Arc`s).
#[test]
fn unprepare_and_eviction_mid_sweep_fail_cleanly() {
    // Slow-ish releases (large isotonic bound) on one worker with one
    // queue slot: while the first point runs, the reactor parks the
    // rest of the grid, and the saboteur pulls the dataset out from
    // under them.
    let ds = Dataset::generate(DatasetKind::Housing, 0.001, 5);
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let params = SubmitParams {
        bound: 20_000,
        ..SubmitParams::default()
    };
    let epsilons = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0];
    let engine = |prepared: usize| {
        Engine::start(
            EngineConfig::default()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_cache_capacity(0)
                .with_prepared_capacity(prepared),
        )
    };

    // Scenario 1: UNPREPARE to zero references mid-sweep.
    {
        let engine = Arc::new(engine(16));
        let handle = serve(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let ds_handle = MuxClient::connect(handle.addr())
            .unwrap()
            .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
            .unwrap()
            .unwrap();
        let outcomes =
            sweep_with_sabotage(handle.addr(), &engine, ds_handle, &params, &epsilons, |c| {
                assert_eq!(c.unprepare(ds_handle).unwrap().unwrap(), 0);
            });
        // Grid order and length are preserved even through failures.
        let seen: Vec<f64> = outcomes.iter().map(|(e, _)| *e).collect();
        assert_eq!(seen, epsilons);
        let failures: Vec<&String> = outcomes
            .iter()
            .filter_map(|(_, r)| r.as_ref().err())
            .collect();
        assert!(
            !failures.is_empty(),
            "queue pressure must have parked at least one post-unprepare point"
        );
        for f in &failures {
            assert!(f.contains("unknown dataset handle"), "{f}");
        }
        // Points accepted before the unprepare still completed.
        assert!(outcomes.iter().any(|(_, r)| r.is_ok()));
        handle.shutdown();
    }

    // Scenario 2: LRU eviction mid-sweep (capacity-1 registry, the
    // saboteur prepares a different dataset) — the distinguishable
    // "re-prepare" error, not "unknown".
    {
        let engine = Arc::new(engine(1));
        let handle = serve(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let ds_handle = MuxClient::connect(handle.addr())
            .unwrap()
            .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
            .unwrap()
            .unwrap();
        let other = Dataset::generate(DatasetKind::Housing, 0.001, 6);
        let (h2, g2, e2) = other.to_csv_tables();
        let outcomes =
            sweep_with_sabotage(handle.addr(), &engine, ds_handle, &params, &epsilons, |c| {
                c.prepare(&h2, &g2, &e2).unwrap().unwrap();
            });
        let failures: Vec<&String> = outcomes
            .iter()
            .filter_map(|(_, r)| r.as_ref().err())
            .collect();
        assert!(outcomes.iter().any(|(_, r)| r.is_ok()));
        assert!(!failures.is_empty());
        for f in &failures {
            assert!(
                f.contains("evicted") && f.contains("PREPARE it again"),
                "{f}"
            );
        }
        handle.shutdown();
    }
}

/// Malformed wire requests get error replies and keep the connection
/// usable.
#[test]
fn server_reports_errors_and_survives_them() {
    let engine = Engine::start(EngineConfig::default());
    let handle = serve(Arc::new(engine), "127.0.0.1:0").unwrap();
    let mut client = MuxClient::connect(handle.addr()).unwrap();

    // Bad submission: groups referencing a region missing from the
    // hierarchy. The error names the bad region.
    let err = client
        .submit_release(
            &SubmitParams::default(),
            "region,parent\nroot,\nva,root\n",
            "g1,nowhere\n",
            "e1,g1\n",
        )
        .unwrap()
        .unwrap_err();
    assert!(err.contains("nowhere"), "{err}");

    // Bad parameter line: the frame boundary is known, so the server
    // rejects the request and the connection stays in sync.
    let err = client
        .submit_release(
            &SubmitParams {
                epsilon: 0.0,
                ..SubmitParams::default()
            },
            "region,parent\nroot,\nva,root\n",
            "g1,va\n",
            "e1,g1\n",
        )
        .unwrap()
        .unwrap_err();
    assert!(err.contains("positive and finite"), "{err}");

    // Connection still works afterwards.
    assert!(client.ping().unwrap());
    client.quit().unwrap();
    handle.shutdown();
}

/// The consumer bound at admission, behind the reactor's event-driven
/// result delivery: `submit_with`'s callback fires exactly once with
/// the terminal status — on a worker for a job that computes, and on
/// the calling thread before `submit_with` returns for a cache hit —
/// and a refused submission drops it uncalled.
#[test]
fn submit_with_fires_once_with_the_terminal_status() {
    let ds = dataset();
    let engine = Engine::start(EngineConfig::default().with_workers(1));
    let submission = Submission::Inline(ReleaseRequest::new(
        Arc::new(ds.hierarchy),
        Arc::new(ds.data),
        config(),
        11,
    ));
    let submitter = std::thread::current().id();
    let submit = |submission: Submission| {
        let (tx, rx) = std::sync::mpsc::channel();
        let admitted = engine.submit_with(submission, move |status| {
            tx.send((std::thread::current().id(), status)).unwrap()
        });
        (admitted, rx)
    };

    // Deferred path: the job computes, and its worker calls back.
    let (admitted, rx) = submit(submission.clone());
    admitted.unwrap();
    let (thread, status) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    assert_ne!(
        thread, submitter,
        "a computed job calls back from its worker"
    );
    let JobStatus::Done {
        result,
        from_cache: false,
    } = status
    else {
        panic!("expected a computed release, got {status:?}");
    };
    assert!(rx.recv().is_err(), "the callback fires once, then is gone");

    // Immediate path: the same request again is a cache hit, terminal
    // at admission, so the callback has run before `submit_with`
    // returns, on the calling thread.
    let (admitted, rx) = submit(submission);
    admitted.unwrap();
    let (thread, status) = rx
        .try_recv()
        .expect("a cache hit calls back before submit_with returns");
    assert_eq!(thread, submitter);
    let JobStatus::Done {
        result: cached,
        from_cache: true,
    } = status
    else {
        panic!("expected a cache hit, got {status:?}");
    };
    assert_eq!(cached.csv, result.csv);
    assert!(rx.recv().is_err(), "the callback fires once, then is gone");

    // Refused: an unknown handle is an error, and the callback is
    // dropped without being called.
    let (admitted, rx) = submit(Submission::Prepared {
        handle: DatasetHandle(Fingerprint(42)),
        config: config(),
        seed: 1,
    });
    assert!(matches!(admitted, Err(EngineError::UnknownDataset(_))));
    assert!(rx.recv().is_err(), "a refused submission never calls back");
}
