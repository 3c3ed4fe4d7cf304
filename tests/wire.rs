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
use hccount::data::{Dataset, DatasetKind};
use hccount::engine::protocol::frame::{
    encode_frame, parse_busy, parse_error, read_frame, submit_frame, Frame, B_QUOTA,
    DEFAULT_MAX_FRAME, E_BUDGET, E_PROTO, E_VERSION, T_BUSY, T_ERROR, T_HELLO, T_HELLO_OK,
    T_RESULT,
};
use hccount::engine::{
    protocol::{SubmitParams, MAX_BOUND},
    serve_reactor, Engine, EngineConfig, MuxClient, ReactorConfig, RetryPolicy,
};
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
    let tables = Some([
        hierarchy_csv.as_str(),
        groups_csv.as_str(),
        entities_csv.as_str(),
    ]);
    let params = SubmitParams {
        bound: 500,
        ..SubmitParams::default()
    };
    let mut out = Vec::new();
    encode_frame(&mut out, &submit_frame(2, &params, tables, false));
    encode_frame(&mut out, &submit_frame(3, &params, tables, false));
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
/// version is answered with a typed `E_VERSION` error frame and the
/// connection is closed — not ignored, not a panic.
#[test]
fn version_mismatch_is_rejected_with_a_typed_error() {
    let reactor = serve_reactor(engine(1), "127.0.0.1:0", ReactorConfig::default()).unwrap();
    let mut stream = TcpStream::connect(reactor.addr()).unwrap();
    let mut out = Vec::new();
    encode_frame(&mut out, &Frame::empty(T_HELLO, 1));
    out[1] = 99; // future protocol version
    stream.write_all(&out).unwrap();

    let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(reply.ftype, T_ERROR);
    let (code, msg) = parse_error(&reply.payload);
    assert_eq!(code, E_VERSION, "{msg}");
    assert!(msg.contains("version"), "{msg}");

    // The server closes after the error frame drains.
    use std::io::Read;
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
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
    let engine = Arc::new(Engine::start(
        EngineConfig::default().with_workers(1).with_budget_cap(2.5),
    ));
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
    let tables = [
        hierarchy_csv.as_str(),
        groups_csv.as_str(),
        entities_csv.as_str(),
    ];
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
    encode_frame(&mut out, &submit_frame(3, &inline, Some(tables), false));
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
    let engine = Arc::new(Engine::start(
        EngineConfig::default().with_workers(1).with_budget_cap(1.5),
    ));
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
