//! `ledger_churn`: the write path. The server runs with a durable
//! store and a budget cap the run never reaches. Connection A runs a
//! closed loop of cycles: APPEND a 0.5% `resize_sample` delta to the
//! quarter-scale housing dataset, then four charged `Hg` releases on
//! the new handle, one of which repeats an earlier request and so is a
//! free cache hit. Every fourth cycle a cold PREPARE of another
//! dataset's tables goes out on connection B; while the reactor parses
//! it, the same thread PINGs on A and times the reply (the reactor
//! stall), then UNPREPAREs the new handle. Set-up is a warm boot of a
//! store holding 16 persisted datasets.
//!
//! The delta alternates with its inverse, so the dataset moves between
//! two states and every cycle does the same work however long the run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hcc_data::{Dataset, DatasetDelta, DatasetKind, DeltaOp};
use hcc_engine::protocol::frame;
use hcc_engine::protocol::SubmitParams;
use hcc_engine::{
    dataset_fingerprint, DatasetHandle, Engine, EngineConfig, Fingerprint, MuxClient,
};
use hcc_store::Store;
use rand::Rng;

use crate::harness::{check_release, cpu_timed, ms, setup_median, Live, RawConn, Window, WORKERS};
use crate::layers::{replay, ReplayInput, StoreOp, StoreTraffic};
use crate::report::{Outcome, Samples};
use crate::{Ctx, OpError};

const EPSILON: f64 = 0.5;
/// One group in 200 resized per APPEND: a 0.5% delta.
const ONE_IN: u64 = 200;
const PERSISTED: u64 = 16;
const PREPARE_EVERY: u64 = 4;
/// Far above anything a run can spend, so no release is refused.
const BUDGET_CAP: f64 = 1e9;

fn engine_config() -> EngineConfig {
    EngineConfig::default()
        .with_workers(WORKERS)
        .with_budget_cap(BUDGET_CAP)
        .with_prepared_capacity(64)
}

fn params(seed: u64) -> SubmitParams {
    SubmitParams {
        epsilon: EPSILON,
        method: "hg".to_string(),
        bound: 20_000,
        seed,
        handle: None,
    }
}

/// Undoes a `resize_sample` delta: each resize reversed, in reverse
/// order.
fn inverse(delta: &DatasetDelta) -> Result<DatasetDelta, String> {
    let ops = delta
        .ops
        .iter()
        .rev()
        .map(|op| match op {
            DeltaOp::Resize {
                region,
                old_size,
                new_size,
                count,
            } => Ok(DeltaOp::Resize {
                region: region.clone(),
                old_size: *new_size,
                new_size: *old_size,
                count: *count,
            }),
            other => Err(format!("cannot invert {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    Ok(DatasetDelta { ops })
}

fn ds(handle: u128) -> DatasetHandle {
    DatasetHandle(Fingerprint(handle))
}

fn handle_of(d: &Dataset) -> u128 {
    dataset_fingerprint(&d.hierarchy, &d.data).0
}

/// A released request kept for the correctness check.
struct Kept {
    handle: u128,
    params: SubmitParams,
    csv: String,
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    // Inputs: the two states of the churned dataset, the deltas
    // between them, fifteen more datasets for the store, and the
    // tables of the dataset the cold PREPAREs load.
    let d0 = Dataset::generate(DatasetKind::Housing, 0.25, 6);
    let forward = DatasetDelta::resize_sample(&d0, ONE_IN);
    let backward = inverse(&forward)?;
    let d1 = d0.apply_delta(&forward).map_err(|e| e.to_string())?;
    let (h0, h1) = (handle_of(&d0), handle_of(&d1));
    let back = d1.apply_delta(&backward).map_err(|e| e.to_string())?;
    if handle_of(&back) != h0 {
        return Err("the inverse delta does not restore the dataset".to_string());
    }
    let cold = Dataset::generate(DatasetKind::Housing, 0.25, 7);
    let cold_handle = handle_of(&cold);
    let (ch, cg, ce) = cold.to_csv_tables();
    let cold_tables = [ch.as_str(), cg.as_str(), ce.as_str()];

    let store_dir = ctx.scratch.join("store");
    std::fs::create_dir_all(&store_dir).map_err(|e| format!("store dir: {e}"))?;
    let store_path = store_dir.join("store.db");
    ctx.store_path = Some(store_dir.clone());
    {
        let store = Store::open(&store_path).map_err(|e| e.to_string())?;
        let mut engine =
            Engine::start_with_store(engine_config(), store).map_err(|e| e.to_string())?;
        let mut datasets = vec![d0.clone()];
        for i in 1..PERSISTED {
            let delta = DatasetDelta::resize_sample(&d0, 50 + i);
            datasets.push(d0.apply_delta(&delta).map_err(|e| e.to_string())?);
        }
        for d in datasets {
            engine
                .prepare(d.hierarchy.into(), d.data.into())
                .map_err(|e| e.to_string())?;
        }
        if engine.prepared_len() != PERSISTED as usize {
            return Err("the persisted datasets are not distinct".to_string());
        }
        engine.shutdown();
    }
    ctx.inputs_built()?;

    // Set-up: warm boot of the store, reactor, two connections.
    let setup = || {
        let store = Store::open(&store_path).map_err(|e| e.to_string())?;
        let engine = Engine::start_with_store(engine_config(), store).map_err(|e| e.to_string())?;
        let live = Live::start(engine)?;
        let a = MuxClient::connect(live.addr()).map_err(|e| e.to_string())?;
        let b = RawConn::connect(live.addr())?;
        Ok((live, a, b))
    };
    let ((live, mut a, mut b), first_setup) = cpu_timed(setup)?;

    // What the ledger must hold afterwards, per dataset.
    let mut expected: BTreeMap<u128, f64> = BTreeMap::new();
    let warm = OpError::of(a.submit_prepared(&params(ctx.rng.gen()), ds(h0)))
        .map_err(|e| format!("warm-up release: {e}"))?;
    if !warm.from_cache {
        *expected.entry(h0).or_default() += EPSILON;
    }

    let mut out = Outcome::default();
    let mut append = Samples::default();
    let mut charged = Samples::default();
    let mut cached = Samples::default();
    let mut prepare = Samples::default();
    let mut stall = Samples::default();
    let mut releases = 0u64;
    let mut appended: Vec<(u128, u128)> = Vec::new();
    let mut prepared: Vec<u128> = Vec::new();
    let mut hit_mismatches = 0u64;
    let mut kept: Vec<Kept> = Vec::new();
    let mut current = h0;
    let mut cycle = 0u64;
    let window = Window::open(&live, ctx.inputs_rss_mb);
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    'cycles: while Instant::now() < deadline {
        cycle += 1;
        // APPEND.
        let (delta, want) = if current == h0 {
            (&forward, h1)
        } else {
            (&backward, h0)
        };
        out.tally.attempted += 1;
        let op = out.tally.attempted;
        let t = Instant::now();
        let got = ctx
            .rec
            .time("client.append", op, || a.append(ds(current), delta));
        let took = ms(t.elapsed());
        match OpError::of(got) {
            Ok(handle) => {
                append.push(took);
                appended.push((handle.0 .0, want));
                current = handle.0 .0;
            }
            Err(e) => {
                append.push_failed();
                out.tally.fail("append", &e.to_string());
                break 'cycles;
            }
        }

        // Four releases; the third repeats the first.
        let seeds: [u64; 3] = [ctx.rng.gen(), ctx.rng.gen(), ctx.rng.gen()];
        for (i, seed) in [seeds[0], seeds[1], seeds[0], seeds[2]]
            .into_iter()
            .enumerate()
        {
            let p = params(seed);
            out.tally.attempted += 1;
            let op = out.tally.attempted;
            let t = Instant::now();
            let got = ctx
                .rec
                .time("client.release", op, || a.submit_prepared(&p, ds(current)));
            let took = ms(t.elapsed());
            match OpError::of(got) {
                Ok(r) => {
                    releases += 1;
                    if r.from_cache != (i == 2) {
                        hit_mismatches += 1;
                    }
                    if r.from_cache {
                        cached.push(took);
                    } else {
                        charged.push(took);
                        *expected.entry(current).or_default() += EPSILON;
                        if !kept.iter().any(|k| k.handle == current) {
                            kept.push(Kept {
                                handle: current,
                                params: p,
                                csv: r.csv,
                            });
                        }
                    }
                }
                Err(e) => {
                    charged.push_failed();
                    out.tally.fail("release", &e.to_string());
                    if e.fatal() {
                        break 'cycles;
                    }
                }
            }
        }

        if !cycle.is_multiple_of(PREPARE_EVERY) {
            continue;
        }
        // Cold PREPARE on B; PING on A while the reactor parses it.
        out.tally.attempted += 2;
        let op = out.tally.attempted - 1;
        let frames_before = live.wire().frames_in;
        let t = Instant::now();
        let span = ctx.rec.enter("client.prepare", op);
        let sent = b.send(|rid| frame::prepare_frame(rid, cold_tables));
        let in_flight = sent.and_then(|()| {
            let limit = Instant::now() + Duration::from_secs(30);
            while live.wire().frames_in == frames_before {
                if Instant::now() > limit {
                    return Err("the reactor never picked up the PREPARE".to_string());
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            Ok(())
        });
        let pinged = in_flight.and_then(|()| {
            let t = Instant::now();
            let pong = ctx
                .rec
                .time("client.ping", op + 1, || a.ping())
                .map_err(|e| e.to_string())?;
            Ok((pong, ms(t.elapsed())))
        });
        let reply = pinged.and_then(|(pong, stalled)| {
            let reply = b.recv()?;
            Ok((pong, stalled, reply))
        });
        ctx.rec.exit(span);
        let took = ms(t.elapsed());
        let (pong, stalled, reply) = match reply {
            Ok(r) => r,
            Err(e) => {
                prepare.push_failed();
                stall.push_failed();
                out.tally.fail("prepare", &e);
                out.tally.fail("ping", &e);
                break 'cycles;
            }
        };
        if pong {
            stall.push(stalled);
        } else {
            stall.push_failed();
            out.tally.fail("ping", "no PONG");
        }
        let handle = match reply.ftype {
            frame::T_OK_TEXT => String::from_utf8_lossy(&reply.payload).parse::<DatasetHandle>(),
            frame::T_ERROR => Err(frame::parse_error(&reply.payload).1),
            other => Err(format!("unexpected frame type 0x{other:02X}")),
        };
        let handle = match handle {
            Ok(h) => {
                prepare.push(took);
                prepared.push(h.0 .0);
                h
            }
            Err(e) => {
                prepare.push_failed();
                out.tally.fail("prepare", &e);
                continue;
            }
        };
        out.tally.attempted += 1;
        let op = out.tally.attempted;
        let dropped = ctx.rec.time("client.unprepare", op, || a.unprepare(handle));
        match OpError::of(dropped) {
            Ok(0) => {}
            Ok(refs) => out
                .tally
                .fail("unprepare", &format!("{refs} references remain")),
            Err(e) => out.tally.fail("unprepare", &e.to_string()),
        }
    }
    let phase = window.close(&live);

    // Correctness, outside the timed window.
    out.check(
        "derived handles",
        match appended.iter().find(|(got, want)| got != want) {
            Some((got, want)) => Err(format!(
                "APPEND returned ds-{got:032x}, the apply_delta chain gives ds-{want:032x}"
            )),
            None => Ok(()),
        },
    );
    out.check(
        "cold PREPARE handles",
        match prepared.iter().find(|&&h| h != cold_handle) {
            Some(h) => Err(format!(
                "PREPARE returned ds-{h:032x}, expected ds-{cold_handle:032x}"
            )),
            None => Ok(()),
        },
    );
    out.check(
        "cache hits",
        if hit_mismatches == 0 {
            Ok(())
        } else {
            Err(format!(
                "{hit_mismatches} releases hit or missed the cache unexpectedly"
            ))
        },
    );
    for (&handle, &want) in expected.iter().chain([(&cold_handle, &0.0)]) {
        let spent = live.engine.budget_spent(ds(handle)).unwrap_or(f64::NAN);
        out.check(
            "budget ledger",
            if (spent - want).abs() <= 1e-9 {
                Ok(())
            } else {
                Err(format!(
                    "ds-{handle:032x}: ledger holds eps {spent}, acknowledged charged releases sum to {want}"
                ))
            },
        );
    }
    for k in &kept {
        let d = if k.handle == h0 { &d0 } else { &d1 };
        out.check(
            "sampled release",
            check_release(&d.hierarchy, &d.data, &k.params, &k.csv),
        );
    }

    out.notes.push(append.describe("append (0.5% delta)"));
    out.notes.push(charged.describe("charged release (Hg)"));
    out.notes.push(cached.describe("cache-hit release"));
    out.notes.push(prepare.describe("cold prepare"));
    out.notes
        .push(stall.describe("ping stalled behind prepare"));
    out.notes.push(format!("cycles: {cycle}"));
    out.notes.extend(phase.describe(releases));
    stop((live, a, b));
    let setup_s = setup_median(first_setup, setup, stop, &mut out.notes)?;
    let p50 = charged.median().unwrap_or(f64::NAN);
    out.end_to_end = phase.end_to_end(setup_s, releases, p50);

    if ctx.rec.enabled() {
        out.per_layer = phase.layer_metrics(releases);
        let (released, release) = kept.first().map_or_else(
            || (&d0, params(ctx.seed)),
            |k| (if k.handle == h0 { &d0 } else { &d1 }, k.params.clone()),
        );
        // The store writes of PREPARE_EVERY cycles once both states
        // are stored: each APPEND lands on content the store holds, a
        // reference-count update (the count itself only grows), then
        // three charged releases; the cold PREPARE puts a record and
        // its UNPREPARE drops it.
        let mut writes = Vec::new();
        for _ in 0..PREPARE_EVERY {
            writes.extend([
                StoreOp::Refs(2),
                StoreOp::Charge(EPSILON),
                StoreOp::Charge(EPSILON),
                StoreOp::Charge(EPSILON),
            ]);
        }
        writes.extend([StoreOp::Put, StoreOp::Refs(0)]);
        let input = ReplayInput {
            prepared: &cold,
            tables: cold_tables,
            released,
            release,
            append: Some((&d0, &forward)),
            store: Some(StoreTraffic {
                boot: &store_path,
                scratch: &ctx.scratch,
                writes: &writes,
                cycles: PREPARE_EVERY as usize,
            }),
        };
        ctx.finish_timed_phase(phase.wall, &mut out);
        replay(&input, &mut ctx.rec, &mut out)?;
    }
    Ok(out)
}

fn stop((live, a, b): (Live, MuxClient, RawConn)) {
    let _ = a.quit();
    drop(b);
    live.stop();
}
