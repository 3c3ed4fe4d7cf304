//! `national_hc`: the paper's headline release. One connection in a
//! closed loop submits `Hc` releases (K = 20 000) of the prepared
//! 372-node housing fixture, each with a fresh seed, cache off, no
//! store. Per-node estimation is nearly all of the time, so a faster
//! `Hc` kernel shows here and almost nowhere else.

use std::time::{Duration, Instant};

use hcc_data::{housing, HousingConfig};
use hcc_engine::protocol::SubmitParams;
use hcc_engine::{DatasetHandle, Engine, EngineConfig, MuxClient};
use rand::Rng;

use crate::harness::{check_release, cpu_timed, ms, setup_median, Live, Window, WORKERS};
use crate::layers::{replay, ReplayInput};
use crate::report::{Outcome, Samples};
use crate::{Ctx, OpError};

const EPSILON: f64 = 1.0;
const BOUND: u64 = 20_000;

fn params(seed: u64) -> SubmitParams {
    SubmitParams {
        epsilon: EPSILON,
        method: "hc".to_string(),
        bound: BOUND,
        seed,
        handle: None,
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    // Inputs, before any clock starts.
    let fixture = housing(&HousingConfig {
        scale: 2e-5,
        seed: 6,
        ..Default::default()
    });
    let (h_csv, g_csv, e_csv) = fixture.to_csv_tables();
    ctx.inputs_built()?;

    // Set-up: engine + reactor boot, HELLO, PREPARE over the wire.
    let setup = || {
        let engine = Engine::start(
            EngineConfig::default()
                .with_workers(WORKERS)
                .with_cache_capacity(0),
        );
        let live = Live::start(engine)?;
        let mut conn = MuxClient::connect(live.addr()).map_err(|e| e.to_string())?;
        let handle = conn
            .prepare(&h_csv, &g_csv, &e_csv)
            .map_err(|e| e.to_string())??;
        Ok((live, conn, handle))
    };
    let ((live, mut conn, handle), first_setup) = cpu_timed(setup)?;
    // Untimed warm-up release.
    conn.submit_prepared(&params(ctx.rng.gen()), handle)
        .map_err(|e| e.to_string())??;

    let mut out = Outcome::default();
    let mut latency = Samples::default();
    let mut sample = None;
    let window = Window::open(&live, ctx.inputs_rss_mb);
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    while Instant::now() < deadline {
        let p = params(ctx.rng.gen());
        out.tally.attempted += 1;
        let op = out.tally.attempted;
        let t = Instant::now();
        let got = ctx
            .rec
            .time("client.release", op, || conn.submit_prepared(&p, handle));
        let took = ms(t.elapsed());
        match OpError::of(got) {
            Ok(release) => {
                latency.push(took);
                if sample.is_none() {
                    sample = Some((p, release.csv));
                }
            }
            Err(e) => {
                latency.push_failed();
                out.tally.fail("release", &e.to_string());
                if e.fatal() {
                    break;
                }
            }
        }
    }
    let phase = window.close(&live);
    let releases = latency.len() as u64 - out.tally.failed;

    // Correctness, outside the timed window.
    match &sample {
        Some((p, csv)) => out.check(
            "sampled release",
            check_release(&fixture.hierarchy, &fixture.data, p, csv),
        ),
        None => out.check("sampled release", Err("no release completed".to_string())),
    }

    let _ = conn.quit();
    live.stop();
    let setup_s = setup_median(first_setup, setup, stop, &mut out.notes)?;

    out.notes.push(latency.describe("release (Hc, K=20000)"));
    out.notes.extend(phase.describe(releases));
    let p50 = latency.median().unwrap_or(f64::NAN);
    out.end_to_end = phase.end_to_end(setup_s, releases, p50);

    if ctx.rec.enabled() {
        out.per_layer = phase.layer_metrics(releases);
        let release = sample.map_or_else(|| params(ctx.seed), |(p, _)| p);
        let input = ReplayInput {
            prepared: &fixture,
            tables: [&h_csv, &g_csv, &e_csv],
            released: &fixture,
            release,
            append: None,
            store: None,
        };
        ctx.finish_timed_phase(phase.wall, &mut out);
        replay(&input, &mut ctx.rec, &mut out)?;
    }
    Ok(out)
}

fn stop((live, conn, _): (Live, MuxClient, DatasetHandle)) {
    let _ = conn.quit();
    live.stop();
}
