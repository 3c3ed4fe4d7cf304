//! The server under test and the pieces every workload shares: an
//! in-process `serve_reactor` over an `Engine`, a minimal raw framed
//! connection for requests that must stay in flight while the same
//! thread does something else, the telemetry window around a timed
//! phase, and the release correctness check.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcc_consistency::{from_csv, to_csv, top_down_release, HierarchicalCounts, TopDownConfig};
use hcc_engine::protocol::frame::{self, Frame};
use hcc_engine::protocol::SubmitParams;
use hcc_engine::telemetry::WireSnapshot;
use hcc_engine::{
    level_method, serve_reactor, Engine, HistogramSnapshot, ReactorConfig, ServerHandle,
    TelemetrySnapshot, WorkerSnapshot,
};
use hcc_hierarchy::Hierarchy;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Metric;

/// Engine workers: the bench host has two cores.
pub const WORKERS: usize = 2;

/// How many set-ups each run times; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// An engine served by the epoll reactor on a loopback port.
pub struct Live {
    pub engine: Arc<Engine>,
    server: ServerHandle,
}

impl Live {
    pub fn start(engine: Engine) -> Result<Live, String> {
        let engine = Arc::new(engine);
        let server = serve_reactor(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default())
            .map_err(|e| format!("serve_reactor: {e}"))?;
        Ok(Live { engine, server })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn wire(&self) -> WireSnapshot {
        self.server.wire_stats().unwrap_or_default()
    }

    /// Stops the reactor, then the engine (which checkpoints its
    /// store, if it has one), and waits for every thread.
    pub fn stop(self) {
        self.server.shutdown();
        if let Ok(mut engine) = Arc::try_unwrap(self.engine) {
            engine.shutdown();
        }
    }
}

/// A framed connection driven by hand: it can leave a request in
/// flight while the caller does something else, which `MuxClient`'s
/// blocking calls cannot.
pub struct RawConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl RawConn {
    pub fn connect(addr: SocketAddr) -> Result<RawConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut conn = RawConn {
            writer: stream,
            reader,
            next_id: 1,
        };
        conn.send(|rid| Frame::empty(frame::T_HELLO, rid))?;
        match conn.recv()?.ftype {
            frame::T_HELLO_OK => Ok(conn),
            other => Err(format!("HELLO answered with frame type 0x{other:02X}")),
        }
    }

    /// Writes one request frame with a fresh request id.
    pub fn send(&mut self, build: impl FnOnce(u64) -> Frame) -> Result<(), String> {
        let rid = self.next_id;
        self.next_id += 1;
        let mut buf = Vec::new();
        frame::encode_frame(&mut buf, &build(rid));
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("write: {e}"))
    }

    pub fn recv(&mut self) -> Result<Frame, String> {
        frame::read_frame(&mut self.reader, u32::MAX).map_err(|e| format!("read: {e}"))
    }
}

/// On-CPU time, in nanoseconds, of this process's threads whose name
/// starts with `prefix` (all threads for `""`), from the scheduler's
/// per-thread accounting. Time the hypervisor steals is not in it.
pub fn thread_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// The number of this process's threads.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// The server's threads: engine workers and the reactor.
const SERVER_THREADS: &str = "hcc-engine-";

/// Host-wide (busy, steal) CPU ticks from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    // user nice system idle iowait irq softirq steal
    (at(0) + at(1) + at(2) + at(5) + at(6), at(7))
}

/// Telemetry and wire counters at the start of a timed phase.
pub struct Window {
    started: Instant,
    telemetry: TelemetrySnapshot,
    wire: WireSnapshot,
    cpu_ns: u64,
    ticks: (u64, u64),
    peak_rss_mb: f64,
    inputs_rss_mb: f64,
}

/// What the engine and the reactor did during a timed phase.
pub struct PhaseCounters {
    pub wall: Duration,
    pub workers: WorkerSnapshot,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub tasks_executed: u64,
    pub tasks_stolen: u64,
    pub wire_bytes: u64,
    /// On-CPU time of the server threads.
    pub server_cpu_ns: u64,
    /// Share of the CPU time the host's threads asked for that the
    /// hypervisor gave to other machines instead.
    pub stolen: f64,
    /// Peak resident set of the process before the timed phase,
    /// counted from when the inputs were built: the inputs, the run's
    /// set-up and the warm-up. Taken there because during the phase
    /// the engine keeps up to `retained_jobs` finished results, so the
    /// resident set grows with how many releases the phase happened to
    /// complete.
    pub peak_rss_mb: f64,
    /// Resident set once the benchmark's own inputs were built: the
    /// harness's share of `peak_rss_mb`.
    pub inputs_rss_mb: f64,
}

impl Window {
    /// `inputs_rss_mb` is the resident set once the inputs were built
    /// (see `Ctx::inputs_built`).
    pub fn open(live: &Live, inputs_rss_mb: f64) -> Window {
        Window {
            telemetry: live.engine.telemetry(),
            wire: live.wire(),
            cpu_ns: thread_cpu_ns(SERVER_THREADS),
            ticks: cpu_ticks(),
            peak_rss_mb: crate::report::peak_rss_mb().unwrap_or(f64::NAN),
            inputs_rss_mb,
            started: Instant::now(),
        }
    }

    pub fn close(self, live: &Live) -> PhaseCounters {
        let wall = self.started.elapsed();
        let after = live.engine.telemetry();
        let wire = live.wire();
        let cpu_ns = thread_cpu_ns(SERVER_THREADS);
        let ticks = cpu_ticks();
        let (b, a) = (&self.telemetry.stats, &after.stats);
        PhaseCounters {
            wall,
            workers: diff_workers(&after.totals(), &self.telemetry.totals()),
            cache_hits: a.cache_hits - b.cache_hits,
            cache_misses: a.cache_misses - b.cache_misses,
            tasks_executed: a.tasks_executed - b.tasks_executed,
            tasks_stolen: a.tasks_stolen - b.tasks_stolen,
            wire_bytes: (wire.bytes_in + wire.bytes_out)
                - (self.wire.bytes_in + self.wire.bytes_out),
            server_cpu_ns: cpu_ns.saturating_sub(self.cpu_ns),
            peak_rss_mb: self.peak_rss_mb,
            inputs_rss_mb: self.inputs_rss_mb,
            stolen: {
                let (busy, steal) = (ticks.0 - self.ticks.0, ticks.1 - self.ticks.1);
                steal as f64 / (busy + steal).max(1) as f64
            },
        }
    }
}

fn diff_hist(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: a
            .buckets
            .iter()
            .zip(&b.buckets)
            .map(|(x, y)| x - y)
            .collect(),
        count: a.count - b.count,
        sum_ns: a.sum_ns - b.sum_ns,
        max_ns: a.max_ns,
    }
}

fn diff_workers(a: &WorkerSnapshot, b: &WorkerSnapshot) -> WorkerSnapshot {
    WorkerSnapshot {
        queue_wait: diff_hist(&a.queue_wait, &b.queue_wait),
        gate_wait: diff_hist(&a.gate_wait, &b.gate_wait),
        task_run: diff_hist(&a.task_run, &b.task_run),
        idle: diff_hist(&a.idle, &b.idle),
        ..WorkerSnapshot::default()
    }
}

impl PhaseCounters {
    /// The share of the phase this machine actually ran: wall time
    /// minus what the hypervisor stole.
    pub fn unstolen(&self) -> f64 {
        1.0 - self.stolen
    }

    /// The end-to-end metrics every workload reports, from this phase
    /// and the median set-up CPU time. `latency_p50_ms` is the
    /// workload's own op, scaled like the throughput to the time the
    /// machine ran; the report lines carry the raw wall-clock values.
    pub fn end_to_end(&self, setup_s: f64, releases: u64, latency_p50_ms: f64) -> Vec<Metric> {
        let unstolen = self.unstolen();
        vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new(
                "releases_per_s",
                "1/s",
                releases as f64 / (self.wall.as_secs_f64() * unstolen),
            ),
            Metric::new("latency_p50_ms", "ms", latency_p50_ms * unstolen),
            Metric::new(
                "cpu_ms_per_release",
                "ms",
                self.server_cpu_ns as f64 / 1e6 / releases.max(1) as f64,
            ),
            Metric::new("peak_rss_mb", "MB", self.peak_rss_mb),
        ]
    }

    /// Wall-clock throughput, steal and the resident set, for the
    /// report.
    pub fn describe(&self, releases: u64) -> [String; 2] {
        [
            format!(
                "wall clock: {releases} releases in {:.3} s ({:.3}/s); hypervisor stole {:.1}% \
                 of the CPU time asked for",
                self.wall.as_secs_f64(),
                releases as f64 / self.wall.as_secs_f64(),
                100.0 * self.stolen
            ),
            format!(
                "peak resident set before the timed phase: {:.1} MB, of which the benchmark's \
                 own inputs {:.1} MB",
                self.peak_rss_mb, self.inputs_rss_mb
            ),
        ]
    }

    /// The scheduler, cache and wire metrics of the traced run.
    pub fn layer_metrics(&self, releases: u64) -> Vec<Metric> {
        let capacity = self.wall.as_nanos() as f64 * WORKERS as f64;
        let share = |h: &HistogramSnapshot| h.sum_ns as f64 / capacity;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        vec![
            Metric::new(
                "sched.queue_wait_p50_ms",
                "ms",
                self.workers.queue_wait.quantile_ns(0.5) as f64 / 1e6,
            ),
            Metric::new(
                "sched.task_busy_share",
                "ratio",
                share(&self.workers.task_run),
            ),
            Metric::new(
                "sched.gate_wait_share",
                "ratio",
                share(&self.workers.gate_wait),
            ),
            Metric::new("sched.idle_share", "ratio", share(&self.workers.idle)),
            Metric::new(
                "sched.steal_ratio",
                "ratio",
                ratio(self.tasks_stolen, self.tasks_executed),
            ),
            Metric::new(
                "sched.tasks_per_release",
                "count",
                ratio(self.tasks_executed, self.cache_misses),
            ),
            Metric::new(
                "cache.hit_ratio",
                "ratio",
                ratio(self.cache_hits, self.cache_hits + self.cache_misses),
            ),
            Metric::new(
                "wire.bytes_per_release",
                "bytes",
                ratio(self.wire_bytes, releases),
            ),
        ]
    }
}

/// The release configuration the server builds from `params`.
pub fn release_config(params: &SubmitParams) -> Result<TopDownConfig, String> {
    let method = level_method(&params.method, params.bound)?;
    Ok(TopDownConfig::new(params.epsilon).with_method(method))
}

/// Checks a release served over the wire: byte-identical to the
/// serial `top_down_release` for the same seed, and satisfying the
/// paper's desiderata — children sum to parents (`validate`, the
/// non-panicking `assert_desiderata`) and every node keeps its public
/// group count `G`. Integrality and non-negativity hold by parsing.
pub fn check_release(
    hierarchy: &Hierarchy,
    data: &HierarchicalCounts,
    params: &SubmitParams,
    served: &str,
) -> Result<(), String> {
    let cfg = release_config(params)?;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let reference = top_down_release(hierarchy, data, &cfg, &mut rng)
        .map(|release| to_csv(hierarchy, &release))
        .map_err(|e| e.to_string())?;
    if reference != served {
        return Err(format!(
            "seed {} eps {} {}: served release differs from serial top_down_release \
             ({} vs {} bytes)",
            params.seed,
            params.epsilon,
            params.method,
            served.len(),
            reference.len()
        ));
    }
    let parsed = from_csv(hierarchy, served).map_err(|e| e.to_string())?;
    parsed.validate(hierarchy).map_err(|e| e.to_string())?;
    for node in hierarchy.iter() {
        let (got, want) = (parsed.groups(node), data.groups(node));
        if got != want {
            return Err(format!(
                "node {} releases {got} groups, public G is {want}",
                hierarchy.name(node)
            ));
        }
    }
    Ok(())
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs one set-up and returns it with the CPU time, in seconds,
/// that it took across all of the process's threads. CPU time rather
/// than wall time, because on a shared virtual machine the wall time
/// swings with what the hypervisor steals.
///
/// The sum covers the threads alive when it is read, so a thread of an
/// earlier teardown that ended during the set-up would take its time
/// out of it: the set-up waits, up to a second, until no thread but
/// the caller's is left.
pub fn cpu_timed<T>(build: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let limit = Instant::now() + Duration::from_secs(1);
    while thread_count() > 1 && Instant::now() < limit {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = thread_cpu_ns("");
    let built = build()?;
    Ok((built, thread_cpu_ns("").saturating_sub(before) as f64 / 1e9))
}

/// Repeats a set-up until `SETUP_REPS` have run, counting the run's
/// own (`first_s`), tearing each down, and returns the median CPU
/// seconds; every set-up's time goes into a report line. The repeats
/// run after the timed phase, so what they leave in the allocator
/// never reaches `peak_rss_mb`.
pub fn setup_median<T>(
    first_s: f64,
    mut build: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
    notes: &mut Vec<String>,
) -> Result<f64, String> {
    let mut times = vec![first_s];
    for _ in 1..SETUP_REPS {
        let (built, took) = cpu_timed(&mut build)?;
        times.push(took);
        teardown(built);
    }
    let each: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    notes.push(format!(
        "set-up CPU s, the run's own first: {}",
        each.join(" ")
    ));
    Ok(crate::report::median_of(&times).unwrap_or(first_s))
}
