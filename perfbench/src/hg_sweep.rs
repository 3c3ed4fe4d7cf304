//! `hg_sweep`: an analyst exploring privacy against utility. One
//! connection in a closed loop sends pipelined 16-point `Hg` ε-sweeps
//! (`MuxClient::sweep`) over one prepared full-scale housing dataset
//! (~240k groups), a fresh seed per sweep. This drives the scheduler
//! queue (16 jobs at once), the O(groups) `Hg` estimator, consistency
//! and the result frames — and no dense `Hc` kernel.

use std::time::{Duration, Instant};

use hcc_data::{Dataset, DatasetKind};
use hcc_engine::protocol::SubmitParams;
use hcc_engine::{DatasetHandle, Engine, EngineConfig, MuxClient};
use rand::Rng;

use crate::harness::{check_release, cpu_timed, ms, setup_median, Live, Window, WORKERS};
use crate::layers::{replay, ReplayInput};
use crate::report::{Outcome, Samples};
use crate::Ctx;

/// Points per sweep.
const POINTS: usize = 16;

/// ε grid: 0.1 · 2^(i/3), from 0.1 to about 3.2.
fn grid() -> Vec<f64> {
    (0..POINTS)
        .map(|i| 0.1 * 2f64.powf(i as f64 / 3.0))
        .collect()
}

fn base(seed: u64) -> SubmitParams {
    SubmitParams {
        epsilon: 1.0,
        method: "hg".to_string(),
        bound: 20_000,
        seed,
        handle: None,
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let dataset = Dataset::generate(DatasetKind::Housing, 1.0, 6);
    let (h_csv, g_csv, e_csv) = dataset.to_csv_tables();
    let eps = grid();
    ctx.inputs_built()?;

    // Set-up: engine + reactor boot, HELLO, PREPARE over the wire.
    let setup = || {
        let live = Live::start(Engine::start(EngineConfig::default().with_workers(WORKERS)))?;
        let mut conn = MuxClient::connect(live.addr()).map_err(|e| e.to_string())?;
        let handle = conn
            .prepare(&h_csv, &g_csv, &e_csv)
            .map_err(|e| e.to_string())??;
        Ok((live, conn, handle))
    };
    let ((live, mut conn, handle), first_setup) = cpu_timed(setup)?;
    // Untimed warm-up sweep.
    conn.sweep(&base(ctx.rng.gen()), handle, &eps)
        .map_err(|e| e.to_string())?;

    let mut out = Outcome::default();
    let mut latency = Samples::default();
    let mut releases = 0u64;
    let mut sample = None;
    let window = Window::open(&live, ctx.inputs_rss_mb);
    let deadline = Instant::now() + Duration::from_secs(ctx.seconds);
    while Instant::now() < deadline {
        let b = base(ctx.rng.gen());
        let op = out.tally.attempted + 1;
        out.tally.attempted += POINTS as u64;
        let t = Instant::now();
        let got = ctx
            .rec
            .time("client.sweep", op, || conn.sweep(&b, handle, &eps));
        let took = ms(t.elapsed());
        let points = match got {
            Ok(points) => points,
            Err(e) => {
                latency.push_failed();
                for _ in 0..POINTS {
                    out.tally.fail("sweep", &e.to_string());
                }
                break;
            }
        };
        let mut all_ok = points.len() == POINTS;
        for p in &points {
            match &p.outcome {
                Ok(_) => releases += 1,
                Err(msg) => {
                    all_ok = false;
                    out.tally.fail("sweep point", msg);
                }
            }
        }
        if all_ok {
            latency.push(took);
        } else {
            latency.push_failed();
        }
        if sample.is_none() && all_ok {
            sample = Some((b, points));
        }
    }
    let phase = window.close(&live);

    match &sample {
        Some((b, points)) => {
            for idx in [0, POINTS / 2, POINTS - 1] {
                let Some(point) = points.get(idx) else {
                    continue;
                };
                let p = SubmitParams {
                    epsilon: point.epsilon,
                    ..b.clone()
                };
                let csv = point.outcome.as_ref().map(|r| r.csv.as_str());
                out.check(
                    "sampled sweep point",
                    csv.map_err(Clone::clone)
                        .and_then(|csv| check_release(&dataset.hierarchy, &dataset.data, &p, csv)),
                );
            }
        }
        None => out.check("sampled sweep", Err("no sweep completed".to_string())),
    }

    let _ = conn.quit();
    live.stop();
    let setup_s = setup_median(first_setup, setup, stop, &mut out.notes)?;

    out.notes
        .push(latency.describe("sweep (16 x Hg, pipelined)"));
    out.notes.extend(phase.describe(releases));
    let p50 = latency.median().unwrap_or(f64::NAN);
    out.end_to_end = phase.end_to_end(setup_s, releases, p50);

    if ctx.rec.enabled() {
        out.per_layer = phase.layer_metrics(releases);
        let seed = sample.as_ref().map_or(ctx.seed, |(b, _)| b.seed);
        let input = ReplayInput {
            prepared: &dataset,
            tables: [&h_csv, &g_csv, &e_csv],
            released: &dataset,
            release: SubmitParams {
                epsilon: eps[POINTS / 2],
                ..base(seed)
            },
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
