#![forbid(unsafe_code)]

//! Benchmark of the hccount release server.
//!
//! ```text
//! perfbench --workload <national_hc|hg_sweep|ledger_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Boots `Engine` + `serve_reactor` in process, drives them from one
//! generator thread over framed connections in a closed loop for
//! `--seconds`, checks the outputs, and prints one JSON line last:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics
//! (from a traced run plus a serial replay through each crate's
//! public functions) with `--trace 1`. Exits nonzero when an op fails
//! or a correctness check does. See `README.md` beside this crate.

mod harness;
mod hg_sweep;
mod host;
mod layers;
mod ledger_churn;
mod national_hc;
mod report;
mod trace;

use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use report::{Metric, Outcome};
use trace::Recorder;

const WORKLOADS: [&str; 3] = ["national_hc", "hg_sweep", "ledger_churn"];

/// What every workload needs from the command line and the run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    /// Draws every per-op seed; seeded from `--seed`.
    pub rng: StdRng,
    pub rec: Recorder,
    /// This run's private directory under `out/`, removed at the end.
    pub scratch: PathBuf,
    /// The workload's store directory, when it has one.
    pub store_path: Option<PathBuf>,
    /// Resident set once the inputs were built; see `inputs_built`.
    pub inputs_rss_mb: f64,
}

impl Ctx {
    /// Marks the end of input generation: restarts the process's peak
    /// resident set, so generation's own peak is not counted, and
    /// records the resident set the inputs keep.
    pub fn inputs_built(&mut self) -> Result<(), String> {
        report::reset_peak_rss()?;
        self.inputs_rss_mb = report::rss_mb()?;
        Ok(())
    }

    /// Adds the span recorder's own time as a share of the timed
    /// phase. The generator thread is on every op's critical path, so
    /// this is the in-run estimate of what tracing adds; `spread.py
    /// --overhead` compares traced with untraced runs.
    pub fn finish_timed_phase(&self, wall: Duration, out: &mut Outcome) {
        out.per_layer.push(Metric::new(
            "trace.overhead_pct",
            "%",
            100.0 * self.rec.cost_ns() as f64 / wall.as_nanos().max(1) as f64,
        ));
    }
}

/// A failed client call: the connection broke (fatal for the run), or
/// the server answered with an error, `BUSY` past the retries, or
/// `E_BUDGET`.
pub enum OpError {
    Transport(String),
    Server(String),
}

impl OpError {
    pub fn of<T, E: fmt::Display>(r: Result<Result<T, String>, E>) -> Result<T, OpError> {
        match r {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(msg)) => Err(OpError::Server(msg)),
            Err(e) => Err(OpError::Transport(e.to_string())),
        }
    }

    pub fn fatal(&self) -> bool {
        matches!(self, OpError::Transport(_))
    }
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Transport(e) => write!(f, "transport: {e}"),
            OpError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = host::out_dir();
    let scratch = out_dir.join(format!("run-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        rng: StdRng::seed_from_u64(args.seed),
        rec: Recorder::new(args.trace),
        scratch: scratch.clone(),
        store_path: None,
        inputs_rss_mb: f64::NAN,
    };
    let result = match args.workload.as_str() {
        "national_hc" => national_hc::run(&mut ctx),
        "hg_sweep" => hg_sweep::run(&mut ctx),
        _ => ledger_churn::run(&mut ctx),
    };
    for line in host::describe(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        ctx.store_path.as_deref(),
    ) {
        println!("{line}");
    }
    let code = match result {
        Ok(mut out) => {
            if args.trace {
                let spans = out_dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
                match ctx.rec.write_chrome(&spans) {
                    Ok(()) => out.notes.push(format!("spans: {}", spans.display())),
                    Err(e) => out.check("span file", Err(e)),
                }
            }
            print_outcome(&out, args.trace);
            if out.correct() && out.tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

fn print_outcome(out: &Outcome, trace: bool) {
    for note in &out.notes {
        println!("# {note}");
    }
    let t = &out.tally;
    println!(
        "# ops: attempted {}, succeeded {}, failed {}",
        t.attempted,
        t.attempted - t.failed,
        t.failed
    );
    for m in &t.messages {
        println!("# failed op: {m}");
    }
    for c in &out.check_failures {
        println!("# FAILED CHECK: {c}");
    }
    let shown = if trace { &out.per_layer[..] } else { &[] };
    for m in out.end_to_end.iter().chain(shown) {
        println!("# {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    // A traced run also gives its end-to-end numbers in the untraced
    // run's form, to set against it (`spread.py --overhead`).
    if trace {
        println!("# end-to-end: {}", out.json(false));
    }
    println!("{}", out.json(trace));
}
