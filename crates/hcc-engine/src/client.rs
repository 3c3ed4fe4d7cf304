//! TCP client for the engine server: [`MuxClient`] speaks the
//! versioned framed protocol and pipelines — many requests may be in
//! flight on one connection, with responses matched back by request
//! id in whatever order the server finishes them. The client parses
//! and aggregates CSV tables itself ([`load_tables`]) and ships only
//! the per-node histograms, so a bad table fails here, before any
//! round trip.

use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use hcc_consistency::HierarchicalCounts;
use hcc_hierarchy::{hierarchy_from_csv, Hierarchy};
use hcc_tables::CsvLoader;

use crate::protocol::frame::{
    self, dataset_section, parse_busy, parse_error, parse_hello_ok, parse_result, read_frame,
    Frame, HelloLimits, T_BUSY, T_ERROR, T_GOODBYE, T_HELLO, T_HELLO_OK, T_METRICS, T_OK_TEXT,
    T_PING, T_PONG, T_PREPARE, T_RESULT, T_TRACE,
};
use crate::protocol::SubmitParams;
use crate::registry::DatasetHandle;
use crate::telemetry::SpanEvent;

/// A release fetched over the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct FetchedRelease {
    /// The `region,level,size,count` CSV, exactly as released.
    pub csv: String,
    /// Whether the server's result cache served it.
    pub from_cache: bool,
}

/// How a client reacts to `BUSY` backpressure: bounded exponential
/// backoff seeded from the server's retry hint, with deterministic
/// jitter (no ambient entropy — two clients built with the same seed
/// sleep the same schedule).
///
/// Attempt `n` sleeps `min(hint << n, max_delay_ms)` plus a jitter of
/// up to a quarter of that, then resubmits; after `max_attempts`
/// sheds the request fails with the server's `busy:` text instead of
/// retrying forever. [`RetryPolicy::disabled`] (the CLI's
/// `--no-retry`) surfaces the first shed immediately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// How many sheds are retried before giving up (0 = fail on the
    /// first `BUSY`).
    pub max_attempts: u32,
    /// Ceiling on any single backoff sleep, in milliseconds.
    pub max_delay_ms: u32,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            max_delay_ms: 2_000,
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// Never retry: the first `BUSY` shed is surfaced to the caller.
    pub fn disabled() -> Self {
        Self {
            max_attempts: 0,
            ..Self::default()
        }
    }

    /// The bounded, jittered sleep before retry number `attempt`
    /// (0-based), given the server's `retry_ms` hint. Pure: the same
    /// (policy, attempt, hint) always yields the same delay.
    pub fn delay_ms(&self, attempt: u32, hint_ms: u32) -> u32 {
        let base = u64::from(hint_ms.max(1))
            .saturating_mul(1u64 << attempt.min(16))
            .min(u64::from(self.max_delay_ms));
        // splitmix-style scramble keyed by (seed, attempt): spreads
        // synchronized clients without consulting a clock or OS RNG.
        let mut x = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let jitter = x % (base / 4 + 1);
        u32::try_from(
            base.saturating_add(jitter)
                .min(u64::from(self.max_delay_ms)),
        )
        .unwrap_or(self.max_delay_ms)
    }

    /// The failure text reported when every allowed retry was shed.
    fn exhausted(&self, last: &str) -> String {
        format!(
            "{} server backpressure persisted after {} retries: {last}",
            crate::protocol::BUSY,
            self.max_attempts
        )
    }
}

/// One ε-grid point's outcome from [`MuxClient::sweep`], in grid
/// order.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The grid point's privacy budget.
    pub epsilon: f64,
    /// The fetched release, or the server's rejection/failure text.
    pub outcome: Result<FetchedRelease, String>,
}

/// Multiplexed framed-protocol client: one connection, many requests
/// in flight, responses matched by request id.
///
/// A sweep writes a whole batch of frames back-to-back and collects
/// the responses as the server finishes them, collapsing `n` round
/// trips into roughly one. Structured [`frame::T_BUSY`]
/// backpressure is honoured transparently: shed submits are
/// resubmitted after the server's retry hint.
pub struct MuxClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    limits: HelloLimits,
    /// Responses read while looking for a different request id.
    stash: VecDeque<Frame>,
    retry: RetryPolicy,
}

/// Response-size cap: a client trusts its own server, and release CSVs
/// can be large.
const CLIENT_MAX_FRAME: u32 = u32::MAX;

impl MuxClient {
    /// Connects and performs the `HELLO` handshake, learning the
    /// server's advertised limits.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = MuxClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            next_id: 1,
            limits: HelloLimits {
                max_frame: frame::DEFAULT_MAX_FRAME,
                interactive_inflight: 1,
                bulk_inflight: 1,
                park_capacity: 0,
            },
            stash: VecDeque::new(),
            retry: RetryPolicy::default(),
        };
        let rid = client.send(|rid| Frame::empty(T_HELLO, rid))?;
        let reply = client.recv_for(rid)?;
        match reply.ftype {
            T_HELLO_OK => {
                client.limits = parse_hello_ok(&reply.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                Ok(client)
            }
            T_ERROR => {
                let (_, msg) = parse_error(&reply.payload);
                Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("handshake rejected: {msg}"),
                ))
            }
            other => Err(unexpected_frame(other)),
        }
    }

    /// The limits the server advertised during the handshake.
    pub fn limits(&self) -> HelloLimits {
        self.limits
    }

    /// Replaces the `BUSY` backoff policy (see [`RetryPolicy`]).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builds a frame with a fresh request id and writes it out.
    fn send(&mut self, build: impl FnOnce(u64) -> Frame) -> io::Result<u64> {
        let rid = self.next_id;
        self.next_id += 1;
        let f = build(rid);
        frame::write_frame(&mut self.writer, &f)?;
        Ok(rid)
    }

    /// Reads one frame off the socket. A request-id-0 `ERROR` frame
    /// answers no request: the server sends it just before closing
    /// the connection (idle timeout, connection bound, a desynced
    /// stream), so it surfaces as an error carrying the server's
    /// message rather than as a later EOF.
    fn read_response(&mut self) -> io::Result<Frame> {
        let f = read_frame(&mut self.reader, CLIENT_MAX_FRAME)?;
        if f.request_id == 0 && f.ftype == T_ERROR {
            let (_, msg) = parse_error(&f.payload);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                format!("server closed the connection: {msg}"),
            ));
        }
        Ok(f)
    }

    /// Reads the next response frame (stashed frames first).
    fn recv_any(&mut self) -> io::Result<Frame> {
        if let Some(f) = self.stash.pop_front() {
            return Ok(f);
        }
        self.read_response()
    }

    /// Reads until the response for `rid` arrives, stashing any
    /// out-of-band responses for other in-flight requests.
    fn recv_for(&mut self, rid: u64) -> io::Result<Frame> {
        if let Some(pos) = self.stash.iter().position(|f| f.request_id == rid) {
            if let Some(f) = self.stash.remove(pos) {
                return Ok(f);
            }
        }
        loop {
            let f = self.read_response()?;
            if f.request_id == rid {
                return Ok(f);
            }
            self.stash.push_back(f);
        }
    }

    /// One request/response exchange resolving to `OK <text>`-style
    /// replies.
    fn rpc_text(&mut self, build: impl FnOnce(u64) -> Frame) -> io::Result<Result<String, String>> {
        let rid = self.send(build)?;
        let reply = self.recv_for(rid)?;
        match reply.ftype {
            T_OK_TEXT => Ok(Ok(String::from_utf8_lossy(&reply.payload).into_owned())),
            T_ERROR => {
                let (_, msg) = parse_error(&reply.payload);
                Ok(Err(msg))
            }
            other => Err(unexpected_frame(other)),
        }
    }

    /// Health check.
    pub fn ping(&mut self) -> io::Result<bool> {
        let rid = self.send(|rid| Frame::empty(T_PING, rid))?;
        Ok(self.recv_for(rid)?.ftype == T_PONG)
    }

    /// The server's Prometheus-style metrics text, wire counters
    /// included.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.rpc_text(|rid| Frame::empty(T_METRICS, rid))?
            .map_err(io::Error::other)
    }

    /// Drains the server's span recorder (the `TRACE` verb),
    /// returning the recorded scheduler spans. Empty unless the
    /// server was started with tracing enabled (`hcc serve
    /// --trace N`). Draining is destructive: each span is returned
    /// once.
    pub fn trace(&mut self) -> io::Result<Vec<SpanEvent>> {
        let text = self
            .rpc_text(|rid| Frame::empty(T_TRACE, rid))?
            .map_err(io::Error::other)?;
        text.lines()
            .map(|line| {
                SpanEvent::from_wire_line(line).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad span line: {e}"))
                })
            })
            .collect()
    }

    /// Registers the three CSV tables as a prepared dataset on the
    /// server, returning its content-addressed handle. The tables are
    /// parsed and aggregated here, and only the per-node histograms
    /// travel; a table that does not parse is the inner `Err`, with no
    /// round trip. Later [`MuxClient::submit_prepared`] calls
    /// reference the handle and ship no dataset at all.
    pub fn prepare(
        &mut self,
        hierarchy_csv: &str,
        groups_csv: &str,
        entities_csv: &str,
    ) -> io::Result<Result<DatasetHandle, String>> {
        let payload = match dataset_section([hierarchy_csv, groups_csv, entities_csv]) {
            Ok(payload) => payload,
            Err(e) => return Ok(Err(e)),
        };
        let reply = self.rpc_text(|request_id| Frame {
            ftype: T_PREPARE,
            flags: 0,
            request_id,
            payload,
        })?;
        Ok(reply.and_then(|text| text.parse()))
    }

    /// Derives a new prepared dataset on the server by applying
    /// `delta` to the prepared dataset `parent`, returning the derived
    /// content-addressed handle. Only the delta CSV travels, and the
    /// server re-aggregates just the touched root-to-leaf paths (see
    /// [`crate::Engine::derive`]). The parent keeps its references.
    pub fn derive(
        &mut self,
        parent: DatasetHandle,
        delta: &hcc_data::DatasetDelta,
    ) -> io::Result<Result<DatasetHandle, String>> {
        let csv = delta.to_csv();
        let parent = parent.to_string();
        let reply =
            self.rpc_text(|rid| frame::derive_frame(rid, frame::T_DERIVE, &parent, &csv))?;
        Ok(reply.and_then(|text| text.parse()))
    }

    /// Rolling-update variant of [`MuxClient::derive`]: the server
    /// also drops one reference on `parent`, so repeatedly appending
    /// deltas holds one registry slot rather than a growing chain.
    pub fn append(
        &mut self,
        parent: DatasetHandle,
        delta: &hcc_data::DatasetDelta,
    ) -> io::Result<Result<DatasetHandle, String>> {
        let csv = delta.to_csv();
        let parent = parent.to_string();
        let reply =
            self.rpc_text(|rid| frame::derive_frame(rid, frame::T_APPEND, &parent, &csv))?;
        Ok(reply.and_then(|text| text.parse()))
    }

    /// Drops one reference to a prepared dataset; returns how many
    /// references the server still holds.
    pub fn unprepare(&mut self, handle: DatasetHandle) -> io::Result<Result<u64, String>> {
        let handle = handle.to_string();
        let reply = self.rpc_text(|rid| frame::unprepare_frame(rid, &handle))?;
        Ok(reply.and_then(|text| {
            text.strip_prefix("refs=")
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("unexpected reply {text:?}"))
        }))
    }

    /// Submits one release from raw CSV tables and blocks until its
    /// result frame arrives. As with [`MuxClient::prepare`], the
    /// tables are aggregated here and a bad table fails locally.
    /// `BUSY` sheds are retried after the server's hint.
    pub fn submit_release(
        &mut self,
        params: &SubmitParams,
        hierarchy_csv: &str,
        groups_csv: &str,
        entities_csv: &str,
    ) -> io::Result<Result<FetchedRelease, String>> {
        match dataset_section([hierarchy_csv, groups_csv, entities_csv]) {
            Ok(dataset) => self.submit_with_retry(params, Some(&dataset)),
            Err(e) => Ok(Err(e)),
        }
    }

    /// Submits one release of a prepared dataset and blocks until its
    /// result frame arrives.
    pub fn submit_prepared(
        &mut self,
        params: &SubmitParams,
        handle: DatasetHandle,
    ) -> io::Result<Result<FetchedRelease, String>> {
        let params = SubmitParams {
            handle: Some(handle),
            ..params.clone()
        };
        self.submit_with_retry(&params, None)
    }

    /// Submits one release on the interactive lane and blocks for its
    /// outcome, retrying `BUSY` sheds along the [`RetryPolicy`]
    /// ladder.
    fn submit_with_retry(
        &mut self,
        params: &SubmitParams,
        dataset: Option<&[u8]>,
    ) -> io::Result<Result<FetchedRelease, String>> {
        let mut attempt = 0u32;
        loop {
            let rid = self.send(|rid| frame::submit_frame(rid, params, dataset, false))?;
            let reply = self.recv_for(rid)?;
            match self.submit_outcome(&reply, attempt)? {
                SubmitOutcome::Done(outcome) => return Ok(outcome),
                SubmitOutcome::Retry { delay_ms } => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(u64::from(delay_ms)));
                }
            }
        }
    }

    /// Resolves one submit's reply frame, given how many times the
    /// request was already shed: a `RESULT` or `ERROR` ends it, and a
    /// `BUSY` shed asks for a resubmit after a backoff — or ends it
    /// with the server's `busy:` text once the retry budget is spent.
    fn submit_outcome(&self, reply: &Frame, attempt: u32) -> io::Result<SubmitOutcome> {
        Ok(match reply.ftype {
            T_RESULT => {
                let parsed = parse_result(&reply.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                SubmitOutcome::Done(Ok(FetchedRelease {
                    csv: parsed.csv,
                    from_cache: parsed.from_cache,
                }))
            }
            T_ERROR => {
                let (_, msg) = parse_error(&reply.payload);
                SubmitOutcome::Done(Err(msg))
            }
            T_BUSY => {
                let busy = parse_busy(&reply.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                if attempt >= self.retry.max_attempts {
                    let last = format!("retry in {}ms", busy.retry_ms);
                    SubmitOutcome::Done(Err(self.retry.exhausted(&last)))
                } else {
                    SubmitOutcome::Retry {
                        delay_ms: self.retry.delay_ms(attempt, busy.retry_ms),
                    }
                }
            }
            other => return Err(unexpected_frame(other)),
        })
    }

    /// Pipelined ε-sweep over one prepared handle: every grid point's
    /// submit frame is written before any response is read, so the
    /// sweep costs roughly one round trip instead of one per point.
    /// Results return in grid order regardless of completion order;
    /// `BUSY` sheds resubmit after the server's retry hint. Points
    /// beyond the first are submitted on the bulk lane, keeping a big
    /// sweep from starving the connection's interactive quota.
    pub fn sweep(
        &mut self,
        base: &SubmitParams,
        handle: DatasetHandle,
        epsilons: &[f64],
    ) -> io::Result<Vec<SweepPoint>> {
        let mut outcomes: Vec<Option<Result<FetchedRelease, String>>> =
            epsilons.iter().map(|_| None).collect();
        // Per-point shed count: the backoff ladder climbs point by
        // point, so one hot grid entry cannot exhaust its neighbours.
        let mut attempts: Vec<u32> = epsilons.iter().map(|_| 0).collect();
        // request id → grid index
        let mut pending: Vec<(u64, usize)> = Vec::with_capacity(epsilons.len());
        for (idx, &epsilon) in epsilons.iter().enumerate() {
            let params = SubmitParams {
                epsilon,
                handle: Some(handle),
                ..base.clone()
            };
            let rid = self.send(|rid| frame::submit_frame(rid, &params, None, idx > 0))?;
            pending.push((rid, idx));
        }
        let mut done = 0usize;
        while done < epsilons.len() {
            let reply = self.recv_any()?;
            let Some(pos) = pending.iter().position(|&(rid, _)| rid == reply.request_id) else {
                // A response for nothing we sent — fatal for the
                // sweep.
                return Err(unexpected_frame(reply.ftype));
            };
            let (_, idx) = pending.swap_remove(pos);
            let attempt = attempts.get(idx).copied().unwrap_or(0);
            match self.submit_outcome(&reply, attempt)? {
                SubmitOutcome::Done(outcome) => {
                    if let Some(slot) = outcomes.get_mut(idx) {
                        *slot = Some(outcome);
                    }
                    done += 1;
                }
                SubmitOutcome::Retry { delay_ms } => {
                    if let Some(a) = attempts.get_mut(idx) {
                        *a += 1;
                    }
                    std::thread::sleep(Duration::from_millis(u64::from(delay_ms)));
                    let params = SubmitParams {
                        epsilon: epsilons.get(idx).copied().unwrap_or(base.epsilon),
                        handle: Some(handle),
                        ..base.clone()
                    };
                    let rid = self.send(|rid| frame::submit_frame(rid, &params, None, idx > 0))?;
                    pending.push((rid, idx));
                }
            }
        }
        Ok(epsilons
            .iter()
            .zip(outcomes)
            .map(|(&epsilon, outcome)| SweepPoint {
                epsilon,
                outcome: outcome.unwrap_or_else(|| Err("sweep point never resolved".to_string())),
            })
            .collect())
    }

    /// Says goodbye and closes the connection.
    pub fn quit(mut self) -> io::Result<()> {
        let rid = self.send(|rid| Frame::empty(T_GOODBYE, rid))?;
        let _ = self.recv_for(rid)?;
        Ok(())
    }
}

/// A submit's reply frame, resolved.
enum SubmitOutcome {
    /// The request is over: its release, or the server's error text.
    Done(Result<FetchedRelease, String>),
    /// Shed with retries left: resubmit after this backoff.
    Retry { delay_ms: u32 },
}

/// Parses the three CSV tables (hierarchy, groups, entities) and
/// aggregates the per-node true histograms — the O(rows) load the
/// client does so that the server never reads a table row. Errors
/// name the table that failed.
pub(crate) fn load_tables(
    [hierarchy_csv, groups_csv, entities_csv]: [&str; 3],
) -> Result<(Hierarchy, HierarchicalCounts), String> {
    let (hierarchy, _) =
        hierarchy_from_csv(hierarchy_csv).map_err(|e| format!("hierarchy: {e}"))?;
    let mut loader = CsvLoader::new(&hierarchy);
    loader
        .load_groups(groups_csv)
        .map_err(|e| format!("groups: {e}"))?;
    loader
        .load_entities(entities_csv)
        .map_err(|e| format!("entities: {e}"))?;
    let db = loader.finish();
    let data = HierarchicalCounts::from_node_histograms(&hierarchy, db.node_histograms(&hierarchy))
        .map_err(|e| e.to_string())?;
    Ok((hierarchy, data))
}

fn unexpected_frame(ftype: u8) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response frame type 0x{ftype:02X}"),
    )
}
