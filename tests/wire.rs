//! Integration tests of the event-driven wire path: the epoll reactor
//! serving the framed multiplexed protocol.
//!
//! The load-bearing claims: (1) results over the framed wire are
//! byte-identical to the direct library release, (2) a client that
//! does not speak the framed protocol gets one typed error and is
//! closed without disturbing anyone else, (3) many connections
//! multiplex onto the single reactor thread, (4) admission control
//! sheds with structured `BUSY` frames instead of stalling, and (5) a
//! version mismatch is answered with a typed error, never a hang or a
//! panic.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hccount::consistency::{to_csv, top_down_release, LevelMethod, TopDownConfig};
use hccount::consistency::{HierarchicalCounts, MAX_GROUP_SIZE};
use hccount::data::{Dataset, DatasetDelta, DatasetKind, DeltaOp};
use hccount::engine::protocol::frame::{
    dataset_section, encode_frame, parse_busy, parse_error, parse_result, prepare_frame,
    read_frame, submit_frame, Frame, B_QUOTA, DEFAULT_MAX_FRAME, E_BUDGET, E_PROTO, E_VERSION,
    T_BUSY, T_ERROR, T_HELLO, T_HELLO_OK, T_OK_TEXT, T_PING, T_PONG, T_PREPARE, T_RESULT,
};
use hccount::engine::{
    dataset_fingerprint,
    protocol::{SubmitParams, MAX_BOUND, MAX_DENSE_CELLS},
    serve_reactor, DatasetHandle, Engine, EngineConfig, MuxClient, ReactorConfig, RetryPolicy,
};
use hccount::hierarchy::hierarchy_from_csv;
use hccount::store::{DatasetRecord, Store};
use hccount::tables::CsvLoader;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> Dataset {
    Dataset::generate(DatasetKind::Housing, 0.001, 5)
}

fn engine(workers: usize) -> Arc<Engine> {
    Arc::new(Engine::start(
        EngineConfig::default()
            .with_workers(workers)
            .with_queue_capacity(64),
    ))
}

/// A one-worker engine capped at `cap`, over a fresh store (a cap
/// needs one).
fn capped_engine(tag: &str, cap: f64) -> Arc<Engine> {
    let dir = std::env::temp_dir().join("hcc_wire_tests").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = Store::open(dir.join("engine.hcc")).unwrap();
    let config = EngineConfig::default().with_workers(1).with_budget_cap(cap);
    Arc::new(Engine::start_with_store(config, store).unwrap())
}

/// Acceptance criterion: a 32-point ε sweep pipelined on one framed
/// connection returns, point for point, the bytes of a direct
/// `top_down_release` with the same seed — the wire is an encoding,
/// not a second code path with its own numerics.
#[test]
fn framed_pipelined_sweep_is_bit_identical_to_the_direct_release() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let epsilons: Vec<f64> = (1..=32).map(|i| i as f64 / 8.0).collect();
    let base = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };

    // Framed wire, reactor server: every point pipelined up front.
    let reactor = serve_reactor(engine(2), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    let handle = mux
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let points = mux.sweep(&base, handle, &epsilons).unwrap();
    mux.quit().unwrap();
    reactor.shutdown();

    assert_eq!(points.len(), epsilons.len());
    for (i, (point, &eps)) in points.iter().zip(&epsilons).enumerate() {
        let cfg = TopDownConfig::new(eps).with_method(LevelMethod::Cumulative { bound: 500 });
        let mut rng = StdRng::seed_from_u64(base.seed);
        let direct = to_csv(
            &ds.hierarchy,
            &top_down_release(&ds.hierarchy, &ds.data, &cfg, &mut rng).unwrap(),
        );
        let csv = &point.outcome.as_ref().unwrap().csv;
        assert_eq!(
            csv, &direct,
            "ε grid point {i} differs between the framed wire and the direct release"
        );
    }
}

/// Satellite regression: a client speaking a text line protocol
/// (first byte is ASCII, not the frame magic) gets exactly one
/// `E_PROTO` error frame and is closed, while a framed client
/// connected at the same time is unaffected.
#[test]
fn line_protocol_client_gets_one_proto_error_and_is_closed() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let reactor = serve_reactor(engine(1), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();

    let mut text = TcpStream::connect(reactor.addr()).unwrap();
    text.write_all(b"PING\n").unwrap();
    let reply = read_frame(&mut text, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((reply.ftype, reply.request_id), (T_ERROR, 0));
    let (code, msg) = parse_error(&reply.payload);
    assert_eq!(code, E_PROTO, "{msg}");
    assert!(msg.contains("magic"), "{msg}");
    let mut rest = Vec::new();
    text.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "exactly one frame, then close: {rest:?}");

    assert!(mux.ping().unwrap());
    let release = mux
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
    assert!(release.csv.starts_with("region,level,size,count"));
    mux.quit().unwrap();
    reactor.shutdown();
}

/// Satellite regression: the server's idle-timeout notice (a
/// request-id-0 `ERROR` frame sent just before it closes the
/// connection) reaches the caller as an error carrying the server's
/// message, not as an anonymous EOF.
#[test]
fn idle_timeout_notice_surfaces_as_the_client_error() {
    let reactor = serve_reactor(
        engine(1),
        "127.0.0.1:0",
        ReactorConfig::default().with_read_timeout(Some(Duration::from_millis(100))),
    )
    .unwrap();
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    // The idle sweep runs every 500 ms and closes on its second
    // strike, so 2.5 s of silence is past the close with margin.
    std::thread::sleep(Duration::from_millis(2_500));
    let err = mux.ping().unwrap_err();
    assert!(err.to_string().contains("idle timeout"), "{err}");
    reactor.shutdown();
}

/// Acceptance criterion: 64 concurrent framed connections multiplex
/// onto the reactor; every submit completes with byte-identical
/// results (same prepared handle, same seed).
#[test]
fn sixty_four_concurrent_connections_all_complete() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let reactor = serve_reactor(engine(2), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let addr = reactor.addr();

    let mut seed_client = MuxClient::connect(addr).unwrap();
    let handle = seed_client
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let params = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };
    let expected = seed_client
        .submit_prepared(&params, handle)
        .unwrap()
        .unwrap()
        .csv;

    let threads: Vec<_> = (0..64)
        .map(|_| {
            let params = params.clone();
            std::thread::spawn(move || {
                let mut client = MuxClient::connect(addr).unwrap();
                let release = client.submit_prepared(&params, handle).unwrap().unwrap();
                client.quit().unwrap();
                release.csv
            })
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().unwrap(), expected);
    }
    seed_client.quit().unwrap();
    reactor.shutdown();
}

/// Satellite regression: with a one-request interactive quota and no
/// park buffer, the second of two pipelined submits is shed with a
/// structured `BUSY` frame carrying the quota code — the connection
/// stays open and the first request still completes.
#[test]
fn quota_overflow_sheds_with_a_busy_frame() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let reactor = serve_reactor(
        engine(1),
        "127.0.0.1:0",
        ReactorConfig::default()
            .with_interactive_inflight(1)
            .with_park_capacity(0),
    )
    .unwrap();

    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    let mut out = Vec::new();
    encode_frame(&mut out, &Frame::empty(T_HELLO, 1));
    stream.write_all(&out).unwrap();
    let hello = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(hello.ftype, T_HELLO_OK);

    // Both submits land in one segment, so the reactor admits the
    // first and judges the second against a full quota before the
    // first can possibly complete.
    let dataset = dataset_section([&hierarchy_csv, &groups_csv, &entities_csv]).unwrap();
    let params = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };
    let mut out = Vec::new();
    encode_frame(&mut out, &submit_frame(2, &params, Some(&dataset), false));
    encode_frame(&mut out, &submit_frame(3, &params, Some(&dataset), false));
    stream.write_all(&out).unwrap();

    let first = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((first.ftype, first.request_id), (T_BUSY, 3));
    let busy = parse_busy(&first.payload).unwrap();
    assert_eq!(busy.code, B_QUOTA);
    assert!(busy.retry_ms > 0);

    let second = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((second.ftype, second.request_id), (T_RESULT, 2));
    reactor.shutdown();
}

/// Satellite regression: a HELLO declaring an unsupported protocol
/// version — a future one, or version 1, whose PREPARE and SUBMIT
/// carried CSV tables — is answered with a typed `E_VERSION` error
/// frame and the connection is closed — not ignored, not a panic.
#[test]
fn version_mismatch_is_rejected_with_a_typed_error() {
    let reactor = serve_reactor(engine(1), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    for version in [99, 1] {
        let mut stream = TcpStream::connect(reactor.addr()).unwrap();
        let mut out = Vec::new();
        encode_frame(&mut out, &Frame::empty(T_HELLO, 1));
        out[1] = version;
        stream.write_all(&out).unwrap();

        let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(reply.ftype, T_ERROR);
        let (code, msg) = parse_error(&reply.payload);
        assert_eq!(code, E_VERSION, "{msg}");
        assert!(msg.contains(&format!("version {version}")), "{msg}");

        // The server closes after the error frame drains.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
    }
    reactor.shutdown();
}

/// Satellite: `BUSY` sheds are retried with the bounded backoff
/// ladder. The server is pinned to one bulk-inflight slot and a
/// one-slot park buffer, so a four-point pipelined sweep *must* shed
/// at least one point — the default policy resubmits until every
/// point completes, and `RetryPolicy::disabled` surfaces the shed as
/// a typed `busy:` failure instead.
#[test]
fn busy_sheds_are_retried_with_bounded_backoff() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let epsilons: Vec<f64> = (1..=4).map(f64::from).collect();
    let reactor = serve_reactor(
        engine(1),
        "127.0.0.1:0",
        ReactorConfig::default()
            .with_bulk_inflight(1)
            .with_park_capacity(1),
    )
    .unwrap();

    // Default ladder: sheds are invisible — all four points complete.
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    let handle = mux
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let base = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };
    let points = mux.sweep(&base, handle, &epsilons).unwrap();
    for (i, p) in points.iter().enumerate() {
        assert!(
            p.outcome.is_ok(),
            "point {i} failed despite retries: {:?}",
            p.outcome
        );
    }
    mux.quit().unwrap();

    // `--no-retry`: the overflow point fails fast with the stable
    // `busy:` token (a fresh seed keeps the cache out of the way).
    let mut mux = MuxClient::connect(reactor.addr())
        .unwrap()
        .with_retry_policy(RetryPolicy::disabled());
    let handle = mux
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let base = SubmitParams {
        bound: 500,
        seed: 43,
        ..SubmitParams::default()
    };
    let points = mux.sweep(&base, handle, &epsilons).unwrap();
    let shed = points
        .iter()
        .filter(|p| matches!(&p.outcome, Err(m) if m.starts_with(hccount::engine::protocol::BUSY)))
        .count();
    assert!(
        shed >= 1,
        "a 4-point sweep against 1 bulk slot + 1 park slot must shed: {:?}",
        points.iter().map(|p| p.outcome.is_ok()).collect::<Vec<_>>()
    );
    assert!(
        points.iter().any(|p| p.outcome.is_ok()),
        "the admitted points still complete"
    );
    mux.quit().unwrap();
    reactor.shutdown();
}

/// Tentpole acceptance: a submit pushing a dataset's cumulative ε
/// past `--budget-cap` is refused with the *typed* `E_BUDGET` error —
/// inline or by handle, since both key the ledger by the same content
/// digest — and the refusal is not retryable backpressure.
#[test]
fn budget_cap_refusal_is_typed_for_inline_and_handle_submits() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let engine = capped_engine("budget_cap_refusal", 2.5);
    let reactor = serve_reactor(engine, "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let base = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };

    // Spend ε=2.0 of the 2.5 cap.
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    let handle = mux
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    for seed in [42, 43] {
        let params = SubmitParams {
            epsilon: 1.0,
            seed,
            ..base.clone()
        };
        mux.submit_prepared(&params, handle).unwrap().unwrap();
    }

    // Both submission forms are refused with the E_BUDGET code.
    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    let mut out = Vec::new();
    encode_frame(&mut out, &Frame::empty(T_HELLO, 1));
    stream.write_all(&out).unwrap();
    assert_eq!(
        read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap().ftype,
        T_HELLO_OK
    );
    let dataset = dataset_section([&hierarchy_csv, &groups_csv, &entities_csv]).unwrap();
    let by_handle = SubmitParams {
        epsilon: 1.0,
        seed: 44,
        handle: Some(handle),
        ..base.clone()
    };
    let inline = SubmitParams {
        epsilon: 1.0,
        seed: 45,
        ..base.clone()
    };
    let mut out = Vec::new();
    encode_frame(&mut out, &submit_frame(2, &by_handle, None, false));
    encode_frame(&mut out, &submit_frame(3, &inline, Some(&dataset), false));
    stream.write_all(&out).unwrap();
    for rid in [2, 3] {
        let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!((reply.ftype, reply.request_id), (T_ERROR, rid));
        let (code, msg) = parse_error(&reply.payload);
        assert_eq!(code, E_BUDGET, "{msg}");
        assert!(msg.contains("privacy budget exhausted"), "{msg}");
    }

    // An under-cap point on the same client still works: the refusals
    // poisoned nothing.
    let ok = mux.submit_prepared(
        &SubmitParams {
            epsilon: 0.25,
            seed: 46,
            ..base.clone()
        },
        handle,
    );
    ok.unwrap().unwrap();
    mux.quit().unwrap();
    reactor.shutdown();
}

/// A submit whose public bound is zero, or above `MAX_BOUND`, is
/// refused with a typed `E_PROTO` error before admission: it spends
/// no budget and reaches no worker. (A zero bound used to be charged
/// and then panic the worker, so the next valid submit met a budget
/// that a request without a result had spent.)
#[test]
fn out_of_range_bound_is_refused_before_any_budget_is_spent() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let engine = capped_engine("out_of_range_bound", 1.5);
    let reactor = serve_reactor(engine, "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    let handle = mux
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();

    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    let mut out = Vec::new();
    encode_frame(&mut out, &Frame::empty(T_HELLO, 1));
    stream.write_all(&out).unwrap();
    assert_eq!(
        read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap().ftype,
        T_HELLO_OK
    );
    let bad = [(2, "hc", 0), (3, "hg", 0), (4, "hc", MAX_BOUND + 1)];
    let mut out = Vec::new();
    for (rid, method, bound) in bad {
        let params = SubmitParams {
            epsilon: 1.0,
            method: method.to_string(),
            bound,
            seed: rid,
            handle: Some(handle),
        };
        encode_frame(&mut out, &submit_frame(rid, &params, None, false));
    }
    stream.write_all(&out).unwrap();
    for (rid, _, bound) in bad {
        let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!((reply.ftype, reply.request_id), (T_ERROR, rid));
        let (code, msg) = parse_error(&reply.payload);
        assert_eq!(code, E_PROTO, "{msg}");
        assert!(msg.contains(&format!("bound {bound} is outside")), "{msg}");
    }

    // The whole cap is still unspent: ε = 1 fits, with the largest
    // admitted bound (Hg does not read it, so this stays quick).
    let full = SubmitParams {
        epsilon: 1.0,
        method: "hg".to_string(),
        bound: MAX_BOUND,
        seed: 5,
        handle: None,
    };
    mux.submit_prepared(&full, handle).unwrap().unwrap();
    // The cap still binds what was charged: another ε = 1 is refused.
    let over = mux
        .submit_prepared(
            &SubmitParams {
                method: "hc".to_string(),
                bound: 500,
                seed: 6,
                ..full
            },
            handle,
        )
        .unwrap();
    assert!(
        over.unwrap_err().contains("privacy budget exhausted"),
        "the second ε = 1 must exceed the 1.5 cap"
    );
    mux.quit().unwrap();
    reactor.shutdown();
}

/// Request ids are the client's to choose, repeats included: two
/// SUBMITs in flight under one id each get their own `RESULT`, and
/// both give their lane slots back, so the connection's full quota is
/// free for the next submits.
#[test]
fn repeated_request_ids_each_get_their_reply() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let reactor = serve_reactor(
        engine(1),
        "127.0.0.1:0",
        ReactorConfig::default()
            .with_interactive_inflight(2)
            .with_park_capacity(0),
    )
    .unwrap();
    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut out = Vec::new();
    encode_frame(&mut out, &Frame::empty(T_HELLO, 1));
    stream.write_all(&out).unwrap();
    assert_eq!(
        read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap().ftype,
        T_HELLO_OK
    );
    let dataset = dataset_section([&hierarchy_csv, &groups_csv, &entities_csv]).unwrap();
    let params = |seed| SubmitParams {
        bound: 500,
        seed,
        ..SubmitParams::default()
    };
    let mut submit_all = |submits: &[(u64, u64)]| {
        let mut out = Vec::new();
        for &(rid, seed) in submits {
            encode_frame(
                &mut out,
                &submit_frame(rid, &params(seed), Some(&dataset), false),
            );
        }
        stream.write_all(&out).unwrap();
        let mut replies: Vec<(u64, String)> = submits
            .iter()
            .map(|_| {
                let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
                let text = String::from_utf8_lossy(&reply.payload).into_owned();
                assert_eq!(reply.ftype, T_RESULT, "{text}");
                let csv = parse_result(&reply.payload).unwrap().csv;
                (reply.request_id, csv)
            })
            .collect();
        replies.sort();
        replies
    };

    let replies = submit_all(&[(7, 1), (7, 2)]);
    assert_eq!(replies.iter().map(|r| r.0).collect::<Vec<_>>(), [7, 7]);
    assert_ne!(replies[0].1, replies[1].1, "two seeds, two releases");
    // Both lane slots came back: two more submits fit the quota of 2.
    let replies = submit_all(&[(8, 3), (9, 4)]);
    assert_eq!(replies.iter().map(|r| r.0).collect::<Vec<_>>(), [8, 9]);
    reactor.shutdown();
}

/// Opens a raw framed connection and completes the HELLO.
fn raw_connection(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut out = Vec::new();
    encode_frame(&mut out, &Frame::empty(T_HELLO, 1));
    stream.write_all(&out).unwrap();
    assert_eq!(
        read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap().ftype,
        T_HELLO_OK
    );
    stream
}

/// Sends one frame and returns the `E_PROTO` message it is refused
/// with.
fn refused(stream: &mut TcpStream, frame: &Frame) -> String {
    let mut out = Vec::new();
    encode_frame(&mut out, frame);
    stream.write_all(&out).unwrap();
    let reply = read_frame(stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((reply.ftype, reply.request_id), (T_ERROR, frame.request_id));
    let (code, msg) = parse_error(&reply.payload);
    assert_eq!(code, E_PROTO, "{msg}");
    msg
}

fn prepare_of(request_id: u64, payload: Vec<u8>) -> Frame {
    Frame {
        ftype: T_PREPARE,
        flags: 0,
        request_id,
        payload,
    }
}

fn section(rec: &DatasetRecord) -> Vec<u8> {
    let mut out = Vec::new();
    rec.encode_nodes(&mut out);
    out
}

/// A valid three-node record: `r` over leaves `a` (two groups of one)
/// and `b` (one group of three).
fn small_record() -> DatasetRecord {
    DatasetRecord {
        handle: 0,
        names: vec!["r".into(), "a".into(), "b".into()],
        parents: vec![u64::MAX, 0, 0],
        histograms: vec![vec![(1, 2), (3, 1)], vec![(1, 2)], vec![(3, 1)]],
        refs: 0,
    }
}

/// The client parses and aggregates the tables, and the server only
/// decodes counts, yet the handle a wire PREPARE returns is exactly
/// the content fingerprint of the dataset the CSV tables load to.
#[test]
fn wire_prepare_returns_the_fingerprint_of_the_csv_loaded_dataset() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let (hierarchy, _) = hierarchy_from_csv(&hierarchy_csv).unwrap();
    let mut loader = CsvLoader::new(&hierarchy);
    loader.load_groups(&groups_csv).unwrap();
    loader.load_entities(&entities_csv).unwrap();
    let db = loader.finish();
    let data = HierarchicalCounts::from_node_histograms(&hierarchy, db.node_histograms(&hierarchy))
        .unwrap();

    let reactor = serve_reactor(engine(1), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    let handle = mux
        .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    assert_eq!(
        handle,
        DatasetHandle(dataset_fingerprint(&hierarchy, &data))
    );
    assert_eq!(
        handle,
        DatasetHandle(dataset_fingerprint(&ds.hierarchy, &ds.data))
    );
    mux.quit().unwrap();
    reactor.shutdown();
}

/// An inline SUBMIT ships the record, not the rows, and its RESULT is
/// byte-identical to the serial library release.
#[test]
fn inline_submit_is_byte_identical_to_the_serial_release() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let reactor = serve_reactor(engine(2), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    let params = SubmitParams {
        epsilon: 0.75,
        bound: 500,
        seed: 11,
        ..SubmitParams::default()
    };
    let release = mux
        .submit_release(&params, &hierarchy_csv, &groups_csv, &entities_csv)
        .unwrap()
        .unwrap();
    let cfg = TopDownConfig::new(0.75).with_method(LevelMethod::Cumulative { bound: 500 });
    let mut rng = StdRng::seed_from_u64(11);
    let direct = to_csv(
        &ds.hierarchy,
        &top_down_release(&ds.hierarchy, &ds.data, &cfg, &mut rng).unwrap(),
    );
    assert_eq!(release.csv, direct);
    mux.quit().unwrap();
    reactor.shutdown();
}

/// `prepare_frame` stays infallible: tables that do not parse make a
/// PREPARE the server refuses with one `E_PROTO`, and the connection
/// keeps serving. `MuxClient` reports the same tables locally.
#[test]
fn raw_prepare_of_malformed_csv_gets_one_proto_error_and_still_pongs() {
    let reactor = serve_reactor(engine(1), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let dup = ["r,\na,r\na,r\n", "g1,a\n", "e1,g1\n"];
    let mut stream = raw_connection(reactor.addr());
    refused(&mut stream, &prepare_frame(2, dup));
    let mut out = Vec::new();
    encode_frame(&mut out, &Frame::empty(T_PING, 3));
    stream.write_all(&out).unwrap();
    let pong = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((pong.ftype, pong.request_id), (T_PONG, 3));

    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    let err = mux.prepare(dup[0], dup[1], dup[2]).unwrap().unwrap_err();
    assert!(err.starts_with("hierarchy:"), "{err}");
    let err = mux
        .submit_release(&SubmitParams::default(), "r,\n", "g1,nowhere\n", "")
        .unwrap()
        .unwrap_err();
    assert!(err.starts_with("groups:"), "{err}");
    assert!(mux.ping().unwrap());
    mux.quit().unwrap();
    reactor.shutdown();
}

/// Every refusal class of the dataset decoder, over loopback: each
/// bad record is answered with `E_PROTO` naming the rule, on PREPARE
/// and inline SUBMIT alike, and the connection keeps serving.
#[test]
fn malformed_dataset_records_are_refused_with_e_proto() {
    let edit = |f: &dyn Fn(&mut DatasetRecord)| {
        let mut rec = small_record();
        f(&mut rec);
        section(&rec)
    };
    let mut more_nodes_than_bytes = section(&small_record());
    more_nodes_than_bytes[0] = 4;
    let bomb = DatasetRecord {
        handle: 0,
        names: (0..300).map(|i| format!("n{i}")).collect(),
        parents: std::iter::once(u64::MAX)
            .chain(std::iter::repeat_n(0, 299))
            .collect(),
        histograms: vec![vec![(MAX_GROUP_SIZE, 1)]; 300],
        refs: 0,
    };
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        ("ragged", more_nodes_than_bytes, "need"),
        ("wrong root", edit(&|r| r.parents[0] = 0), "not a root"),
        (
            "parent order",
            edit(&|r| r.parents[1] = 2),
            "does not precede",
        ),
        (
            "duplicate name",
            edit(&|r| r.names[2] = "a".into()),
            "twice",
        ),
        (
            "comma",
            edit(&|r| r.names[1] = "a,x".into()),
            "not a region name",
        ),
        (
            "carriage return",
            edit(&|r| r.names[1] = "a\r".into()),
            "not a region name",
        ),
        (
            "line feed",
            edit(&|r| r.names[1] = "a\nx".into()),
            "not a region name",
        ),
        (
            "leading space",
            edit(&|r| r.names[1] = " a".into()),
            "not a region name",
        ),
        (
            "trailing space",
            edit(&|r| r.names[2] = "b\t".into()),
            "not a region name",
        ),
        (
            "size above MAX_GROUP_SIZE",
            edit(&|r| r.histograms[2] = vec![(MAX_GROUP_SIZE + 1, 1)]),
            "exceeds",
        ),
        (
            "group total overflow",
            edit(&|r| r.histograms[1] = vec![(1, u64::MAX)]),
            "overflow",
        ),
        (
            "entity total overflow",
            edit(&|r| r.histograms[1] = vec![(4, 1 << 62)]),
            "overflow",
        ),
        ("dense-cell bomb", section(&bomb), "histogram cells"),
        (
            "children do not sum",
            edit(&|r| r.histograms[0] = vec![(1, 2)]),
            "inconsistent",
        ),
    ];
    assert!(bomb.names.len() as u64 * (MAX_GROUP_SIZE + 1) > MAX_DENSE_CELLS);
    let reactor = serve_reactor(engine(1), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut stream = raw_connection(reactor.addr());
    let inline = SubmitParams {
        bound: 10,
        ..SubmitParams::default()
    };
    for (rid, (class, payload, want)) in (2u64..).step_by(2).zip(&cases) {
        let msg = refused(&mut stream, &prepare_of(rid, payload.clone()));
        assert!(msg.contains(want), "PREPARE, {class}: {msg}");
        let submit = submit_frame(rid + 1, &inline, Some(payload), false);
        let msg = refused(&mut stream, &submit);
        assert!(msg.contains(want), "SUBMIT, {class}: {msg}");
    }
    let mut out = Vec::new();
    encode_frame(&mut out, &prepare_of(99, section(&small_record())));
    stream.write_all(&out).unwrap();
    let ok = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((ok.ftype, ok.request_id), (T_OK_TEXT, 99));
    reactor.shutdown();
}

/// A refused dataset costs nothing durable: under a budget cap with a
/// store, a PREPARE or inline SUBMIT the decoder refuses appends no
/// WAL record and leaves every account's spend where it was.
#[test]
fn refused_datasets_write_no_wal_record_and_charge_nothing() {
    let engine = capped_engine("refused_datasets", 2.0);
    let wal = std::env::temp_dir()
        .join("hcc_wire_tests")
        .join("refused_datasets")
        .join("engine.hcc.wal");
    let reactor =
        serve_reactor(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut stream = raw_connection(reactor.addr());
    let valid = small_record();
    let ok: DatasetHandle = {
        let mut out = Vec::new();
        encode_frame(&mut out, &prepare_of(2, section(&valid)));
        stream.write_all(&out).unwrap();
        let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(reply.ftype, T_OK_TEXT);
        String::from_utf8(reply.payload).unwrap().parse().unwrap()
    };
    let mut mux = MuxClient::connect(reactor.addr()).unwrap();
    let params = SubmitParams {
        epsilon: 0.5,
        bound: 10,
        ..SubmitParams::default()
    };
    mux.submit_prepared(&params, ok).unwrap().unwrap();
    let spent = engine.budget_spent(ok);
    let wal_len = std::fs::metadata(&wal).unwrap().len();

    let mut bad = valid;
    bad.histograms[1] = vec![(1, 3)];
    refused(&mut stream, &prepare_of(3, section(&bad)));
    refused(
        &mut stream,
        &submit_frame(4, &params, Some(&section(&bad)), false),
    );
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), wal_len);
    assert_eq!(engine.budget_spent(ok), spent);
    assert_eq!(spent, Some(0.5));
    mux.quit().unwrap();
    reactor.shutdown();
}

/// One group-size limit for every way into a dataset: a `DERIVE` or
/// `APPEND` that adds a group a `PREPARE` record could not hold is
/// refused up front with the same text whether or not the server has
/// a store, registers nothing, and writes nothing durable.
#[test]
fn derive_and_append_refuse_groups_prepare_would_refuse_with_or_without_a_store() {
    let ds = dataset();
    let (hierarchy_csv, groups_csv, entities_csv) = ds.to_csv_tables();
    let leaf = ds.hierarchy.leaves().next().unwrap();
    let delta = DatasetDelta {
        ops: vec![DeltaOp::Add {
            region: ds.hierarchy.name(leaf).to_string(),
            size: 2_000_000,
            count: 1,
        }],
    };
    const { assert!(2_000_000 > MAX_GROUP_SIZE) };
    let dir = std::env::temp_dir()
        .join("hcc_wire_tests")
        .join("oversized_edits");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let wal = dir.join("engine.hcc.wal");
    let stored = Engine::start_with_store(
        EngineConfig::default().with_workers(1),
        Store::open(dir.join("engine.hcc")).unwrap(),
    )
    .unwrap();
    let mut refusals = Vec::new();
    for engine in [engine(1), Arc::new(stored)] {
        let reactor =
            serve_reactor(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
        let mut mux = MuxClient::connect(reactor.addr()).unwrap();
        let parent = mux
            .prepare(&hierarchy_csv, &groups_csv, &entities_csv)
            .unwrap()
            .unwrap();
        let wal_len = std::fs::metadata(&wal).map(|m| m.len()).ok();
        let derived = mux.derive(parent, &delta).unwrap().unwrap_err();
        let appended = mux.append(parent, &delta).unwrap().unwrap_err();
        assert_eq!(std::fs::metadata(&wal).map(|m| m.len()).ok(), wal_len);
        // The parent keeps its one reference: APPEND dropped none.
        assert_eq!(mux.unprepare(parent).unwrap().unwrap(), 0);
        assert!(mux.ping().unwrap());
        refusals.push((derived, appended));
        mux.quit().unwrap();
        reactor.shutdown();
    }
    for (derived, appended) in &refusals {
        for msg in [derived, appended] {
            assert!(
                msg.contains("group size 2000000 exceeds the supported maximum 1000000"),
                "{msg}"
            );
        }
    }
    assert_eq!(refusals[0], refusals[1], "with and without a store");
}
