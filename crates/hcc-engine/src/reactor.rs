//! Event-driven wire path: a single-thread epoll reactor multiplexing
//! every connection.
//!
//! A hand-rolled reactor (std-only, no async runtime) that serves the
//! binary framed protocol ([`crate::protocol::frame`]):
//!
//! - **One reactor thread.** A level-triggered epoll instance watches
//!   the listener, a wake pipe, and every client socket; accept, read,
//!   decode, dispatch, and write all happen on this thread. Job
//!   execution stays on the engine's worker pool: each SUBMIT goes in
//!   through [`crate::Engine::submit_with`] with a watcher that
//!   carries the connection token, the request id, and the lane, so
//!   the reactor never blocks on a job and keeps no table of them.
//!   Reactor threads stay at `1` no matter how many connections or
//!   jobs are open.
//! - **Pipelining.** Requests carry client-chosen ids and responses
//!   echo them, so one connection can keep many requests in flight
//!   and receive answers out of order. Ids may repeat: each request
//!   gets its own response all the same. A connection whose first byte
//!   is not [`frame::MAGIC`] gets one `E_PROTO` error frame and is
//!   closed.
//! - **Multi-tenant admission control.** Each connection has two
//!   request lanes — interactive ([`frame::FLAG_BULK`] clear) and bulk
//!   (set) — with separate in-flight quotas, plus a bounded park
//!   buffer absorbing short engine-queue-full spikes. When both the
//!   quota (or queue) and the park buffer are exhausted, the request
//!   is shed with a structured [`frame::T_BUSY`] frame, never
//!   silently dropped. Parked interactive requests re-admit before
//!   bulk ones.
//!
//! Completions cross from worker threads to the reactor through
//! [`CompletionQueue`]: a `wire`-ranked mutex (last in the lock order,
//! so a watcher fired under no engine lock can always take it) plus a
//! nonblocking wake pipe that interrupts `epoll_wait`.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hcc_data::DatasetDelta;

use crate::job::{EngineError, JobStatus, ReleaseRequest, Submission};
use crate::ledger::decode_dataset;
use crate::locks::{Rank, RankedMutex};
use crate::protocol::frame::{
    self, busy_frame, decode_frame, encode_frame, error_frame, hello_ok_frame, ok_text_frame,
    parse_derive, parse_submit, parse_unprepare, result_frame, Frame, FrameError, HelloLimits,
    B_QUEUE, B_QUOTA, E_BUDGET, E_FAILED, E_PROTO, E_REJECTED, E_TIMEOUT, E_VERSION, FLAG_BULK,
    T_APPEND, T_DERIVE, T_GOODBYE, T_HELLO, T_METRICS, T_PING, T_PONG, T_PREPARE, T_SUBMIT,
    T_TRACE, T_UNPREPARE,
};
use crate::protocol::one_line;
use crate::registry::DatasetHandle;
use crate::server::ServerHandle;
use crate::telemetry::WireStats;
use crate::Engine;

/// Minimal epoll FFI. The only unsafe code in the workspace lives in
/// this module; every call site carries a `hcc-lint` hygiene waiver
/// stating why it is sound. libc is already linked by std, so the
/// symbols resolve without any build-script or dependency work.
#[allow(unsafe_code)]
mod sys {
    use std::io;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Mirrors the kernel's `struct epoll_event`. On x86-64 the kernel
    /// ABI packs it (no padding between `events` and `data`); other
    /// 64-bit targets use the naturally-aligned layout.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Creates a close-on-exec epoll instance.
    pub fn epoll_create() -> io::Result<i32> {
        // hcc-lint: allow(hygiene, reason = "audited FFI: epoll_create1 takes no pointers; the returned fd is checked before use")
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(fd)
        }
    }

    /// Adds/modifies/deletes `fd`'s interest set. An event struct is
    /// passed even for DEL (required by kernels before 2.6.9, ignored
    /// since).
    pub fn ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // hcc-lint: allow(hygiene, reason = "audited FFI: the event pointer refers to a live stack value for exactly the duration of the call")
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    /// Waits for events, returning how many were written into
    /// `events`. `EINTR` is reported as zero events.
    pub fn wait(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
        if max == 0 {
            return Ok(0);
        }
        // hcc-lint: allow(hygiene, reason = "audited FFI: the pointer/length pair comes from one live mutable slice; the kernel writes at most `max` entries")
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), max, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(usize::try_from(n).unwrap_or(0))
    }

    /// Closes an fd this module opened (best-effort).
    pub fn close_fd(fd: i32) {
        // hcc-lint: allow(hygiene, reason = "audited FFI: closes only the epoll fd this module created; double-close is impossible because the owner is dropped exactly once")
        let _ = unsafe { close(fd) };
    }
}

/// Safe owner of one epoll instance.
struct Epoll {
    fd: i32,
}

impl Epoll {
    fn new() -> io::Result<Epoll> {
        Ok(Epoll {
            fd: sys::epoll_create()?,
        })
    }

    fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        sys::ctl(self.fd, sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        sys::ctl(self.fd, sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: i32) {
        let _ = sys::ctl(self.fd, sys::EPOLL_CTL_DEL, fd, 0, 0);
    }

    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        sys::wait(self.fd, events, timeout_ms)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

/// Reactor transport and admission knobs, applied by
/// [`serve_reactor`].
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Close a connection idle this long with nothing in flight
    /// (`None` disables the sweep).
    pub read_timeout: Option<Duration>,
    /// Most concurrent connections; beyond this, new clients get one
    /// `E_REJECTED` "server busy" error frame and are dropped.
    pub max_connections: usize,
    /// Interactive-lane (default) in-flight job quota per connection.
    pub interactive_inflight: usize,
    /// Bulk-lane ([`FLAG_BULK`]) in-flight job quota per connection.
    pub bulk_inflight: usize,
    /// Requests parked per connection (awaiting quota or an engine
    /// queue slot) before further submits are shed with `BUSY`.
    pub park_capacity: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            read_timeout: Some(Duration::from_secs(30)),
            max_connections: 1024,
            interactive_inflight: 256,
            bulk_inflight: 64,
            park_capacity: 64,
        }
    }
}

impl ReactorConfig {
    /// Sets the idle timeout (`None` disables it).
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the concurrent-connection bound.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        assert!(max >= 1, "need at least one connection slot");
        self.max_connections = max;
        self
    }

    /// Sets the interactive-lane in-flight quota.
    pub fn with_interactive_inflight(mut self, quota: usize) -> Self {
        assert!(quota >= 1, "need at least one interactive slot");
        self.interactive_inflight = quota;
        self
    }

    /// Sets the bulk-lane in-flight quota.
    pub fn with_bulk_inflight(mut self, quota: usize) -> Self {
        assert!(quota >= 1, "need at least one bulk slot");
        self.bulk_inflight = quota;
        self
    }

    /// Sets the per-connection park-buffer capacity (may be zero:
    /// every over-quota submit is shed immediately).
    pub fn with_park_capacity(mut self, capacity: usize) -> Self {
        self.park_capacity = capacity;
        self
    }

    /// The in-flight quota of one lane.
    fn quota(&self, bulk: bool) -> usize {
        if bulk {
            self.bulk_inflight
        } else {
            self.interactive_inflight
        }
    }
}

/// Token of the listening socket in the epoll interest set.
const TOK_LISTENER: u64 = 0;
/// Token of the wake pipe's read end.
const TOK_WAKE: u64 = 1;
/// First token handed to a client connection (monotonic, never
/// reused, so a stale event cannot alias a new connection).
const FIRST_CONN_TOKEN: u64 = 2;
/// Retry hint carried in `BUSY` frames.
const BUSY_RETRY_MS: u32 = 50;
/// A connection whose peer stops reading may buffer at most this many
/// unsent response bytes before being dropped.
const OUTBUF_CAP: usize = 1 << 30;
/// How often the idle sweep runs.
const SWEEP_EVERY: Duration = Duration::from_millis(500);

/// A job completion crossing from a worker thread to the reactor; the
/// response is a `RESULT`/`ERROR` frame keyed by request id, and the
/// job's lane gets its in-flight slot back.
struct Completion {
    token: u64,
    request_id: u64,
    bulk: bool,
    status: JobStatus,
}

/// The worker→reactor handoff: completions land in a `wire`-ranked
/// vector (the last rank, so watchers may push while holding no other
/// lock and the reactor drains without ordering hazards), and a byte
/// on the wake pipe interrupts `epoll_wait`.
struct CompletionQueue {
    completions: RankedMutex<Vec<Completion>>,
    wake: UnixStream,
}

impl CompletionQueue {
    fn push(&self, completion: Completion) {
        self.completions.lock().push(completion);
        // Nonblocking: a full pipe already guarantees a pending wake.
        let _ = (&self.wake).write(&[1]);
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock())
    }
}

/// A request admitted past parsing but not yet submitted to the
/// engine (it may wait in the park buffer for a queue slot or lane
/// quota).
struct Pending {
    request_id: u64,
    bulk: bool,
    work: Submission,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written to the socket.
    out_at: usize,
    last_activity: Instant,
    /// Close once `outbuf` drains (goodbye, fatal error, idle sweep).
    close_after_flush: bool,
    /// Whether the epoll interest set currently includes `EPOLLOUT`.
    wants_writable: bool,
    /// Whether the framed handshake (`HELLO`) has completed.
    hello_done: bool,
    /// Consecutive idle-sweep passes that saw this connection past the
    /// read timeout with nothing in flight. Closing needs two strikes,
    /// so a client that is merely starved for CPU (not gone) gets a
    /// full sweep period to show life after the first observation.
    idle_strikes: u8,
    /// Submits in the engine, per lane.
    inflight_interactive: usize,
    inflight_bulk: usize,
    /// Requests parked for admission, oldest first.
    parked: VecDeque<Pending>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            out_at: 0,
            last_activity: Instant::now(),
            close_after_flush: false,
            wants_writable: false,
            hello_done: false,
            idle_strikes: 0,
            inflight_interactive: 0,
            inflight_bulk: 0,
            parked: VecDeque::new(),
        }
    }

    /// The in-flight count of one lane.
    fn inflight(&mut self, bulk: bool) -> &mut usize {
        if bulk {
            &mut self.inflight_bulk
        } else {
            &mut self.inflight_interactive
        }
    }
}

fn clamp_u16(v: usize) -> u16 {
    u16::try_from(v).unwrap_or(u16::MAX)
}

/// The reactor: all connection state, owned by its one thread.
struct Reactor {
    engine: Arc<Engine>,
    cfg: ReactorConfig,
    epoll: Epoll,
    listener: TcpListener,
    wake_rx: UnixStream,
    stop: Arc<AtomicBool>,
    wire: Arc<WireStats>,
    completions: Arc<CompletionQueue>,
    conns: BTreeMap<u64, Conn>,
    next_token: u64,
    /// Connections with (possibly) new response bytes this loop pass.
    touched: Vec<u64>,
}

/// Binds `addr` and serves the engine through the epoll reactor until
/// the handle is shut down. [`crate::serve`] is this with default
/// configuration; use this entry point for the admission-control
/// knobs.
pub fn serve_reactor(
    engine: Arc<Engine>,
    addr: impl ToSocketAddrs,
    config: ReactorConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), sys::EPOLLIN, TOK_LISTENER)?;
    epoll.add(wake_rx.as_raw_fd(), sys::EPOLLIN, TOK_WAKE)?;
    let stop = Arc::new(AtomicBool::new(false));
    let wire = Arc::new(WireStats::default());
    let completions = Arc::new(CompletionQueue {
        completions: RankedMutex::new(Rank::Wire, Vec::new()),
        wake: wake_tx.try_clone()?,
    });
    let reactor = Reactor {
        engine,
        cfg: config,
        epoll,
        listener,
        wake_rx,
        stop: Arc::clone(&stop),
        wire: Arc::clone(&wire),
        completions,
        conns: BTreeMap::new(),
        next_token: FIRST_CONN_TOKEN,
        touched: Vec::new(),
    };
    let thread = std::thread::Builder::new()
        .name("hcc-engine-reactor".to_string())
        .spawn(move || reactor.run())?;
    Ok(ServerHandle::new(addr, stop, wake_tx, thread, wire))
}

impl Reactor {
    fn run(mut self) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let mut last_sweep = Instant::now();
        while !self.stop.load(Ordering::Acquire) {
            let n = match self.epoll.wait(&mut events, 500) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in events.iter().take(n) {
                let token = ev.data;
                let bits = ev.events;
                match token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKE => self.drain_wake(),
                    token => {
                        if bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR)
                            != 0
                        {
                            self.handle_readable(token);
                        }
                        if bits & sys::EPOLLOUT != 0 {
                            self.touched.push(token);
                        }
                    }
                }
            }
            self.drain_completions();
            if last_sweep.elapsed() >= SWEEP_EVERY {
                self.sweep_idle();
                last_sweep = Instant::now();
            }
            self.flush_touched();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.register_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // Transient accept failures (EMFILE etc.): epoll is
                // level-triggered, so the pending connection re-fires
                // next round; no busy spin.
                Err(_) => return,
            }
        }
    }

    fn register_conn(&mut self, mut stream: TcpStream) {
        if self.conns.len() >= self.cfg.max_connections {
            self.wire.rejected.fetch_add(1, Ordering::Relaxed);
            let max = self.cfg.max_connections;
            // The socket is still blocking here; one request-id-0
            // error frame tells the client why before it is dropped.
            let mut out = Vec::new();
            let msg = format!("server busy ({max} connections)");
            encode_frame(&mut out, &error_frame(0, E_REJECTED, &msg));
            let _ = stream.write_all(&out);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Responses are small and latency-sensitive; never Nagle them.
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .epoll
            .add(stream.as_raw_fd(), sys::EPOLLIN | sys::EPOLLRDHUP, token)
            .is_err()
        {
            return;
        }
        self.wire.accepted.fetch_add(1, Ordering::Relaxed);
        self.wire.active.fetch_add(1, Ordering::Relaxed);
        self.conns.insert(token, Conn::new(stream));
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn handle_readable(&mut self, token: u64) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.idle_strikes = 0;
                    conn.inbuf.extend_from_slice(buf.get(..n).unwrap_or(&[]));
                    self.wire.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    // Process after every chunk so pipelined requests
                    // are consumed as they complete instead of
                    // accumulating in the input buffer.
                    self.process_conn(token);
                    self.touched.push(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Decodes and dispatches every complete request currently
    /// buffered on `token`.
    fn process_conn(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.close_after_flush {
                return;
            }
            // The decoder rejects a declared length above
            // `DEFAULT_MAX_FRAME` before buffering it, so `inbuf` stays
            // bounded by one frame plus one read chunk.
            match decode_frame(&conn.inbuf, frame::DEFAULT_MAX_FRAME) {
                Ok(None) => return,
                Ok(Some((frame, used))) => {
                    conn.inbuf.drain(..used);
                    self.handle_frame(token, frame);
                }
                // The stream is desynced: report once, then close.
                Err(e) => {
                    let code = match e {
                        FrameError::BadVersion(_) => E_VERSION,
                        _ => E_PROTO,
                    };
                    self.push_frame(token, error_frame(0, code, &e.to_string()));
                    self.set_close(token);
                    return;
                }
            }
        }
    }

    /// Dispatches one framed request.
    fn handle_frame(&mut self, token: u64, f: Frame) {
        self.wire.frames_in.fetch_add(1, Ordering::Relaxed);
        let engine = Arc::clone(&self.engine);
        let rid = f.request_id;
        let hello_done = self
            .conns
            .get(&token)
            .map(|c| c.hello_done)
            .unwrap_or(false);
        if !hello_done {
            if f.ftype != T_HELLO {
                self.push_frame(
                    token,
                    error_frame(
                        rid,
                        E_PROTO,
                        "HELLO must be the first frame on a connection",
                    ),
                );
                self.set_close(token);
                return;
            }
            // Version negotiation happened at the header level: a
            // HELLO with an unsupported version never decodes, and the
            // client learns the server's version from the E_VERSION
            // error. Reaching here means the versions agree.
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.hello_done = true;
            }
            let limits = HelloLimits {
                max_frame: frame::DEFAULT_MAX_FRAME,
                interactive_inflight: clamp_u16(self.cfg.interactive_inflight),
                bulk_inflight: clamp_u16(self.cfg.bulk_inflight),
                park_capacity: clamp_u16(self.cfg.park_capacity),
            };
            self.push_frame(token, hello_ok_frame(rid, &limits));
            return;
        }
        match f.ftype {
            T_HELLO => self.push_frame(token, error_frame(rid, E_PROTO, "duplicate HELLO")),
            T_PING => self.push_frame(token, Frame::empty(T_PONG, rid)),
            T_METRICS => {
                let mut text = engine.telemetry().to_prometheus();
                text.push_str(&self.wire.snapshot().to_prometheus());
                self.push_frame(token, ok_text_frame(rid, &text));
            }
            T_TRACE => {
                // Drains the span recorder (empty unless the engine
                // was started with a trace capacity).
                let text: String = engine
                    .take_trace()
                    .iter()
                    .map(|span| span.to_wire_line() + "\n")
                    .collect();
                self.push_frame(token, ok_text_frame(rid, &text));
            }
            T_UNPREPARE => {
                let reply = match parse_unprepare(&f.payload)
                    .and_then(|text| text.parse::<DatasetHandle>())
                {
                    Err(e) => error_frame(rid, E_PROTO, &one_line(&e)),
                    Ok(handle) => match engine.unprepare(handle) {
                        Ok(refs) => ok_text_frame(rid, &format!("refs={refs}")),
                        Err(e) => error_frame(rid, E_REJECTED, &one_line(&e.to_string())),
                    },
                };
                self.push_frame(token, reply);
            }
            T_PREPARE => {
                let reply = match decode_dataset(&f.payload) {
                    Err(e) => error_frame(rid, E_PROTO, &one_line(&e)),
                    Ok((hierarchy, data)) => {
                        match engine.prepare(Arc::new(hierarchy), Arc::new(data)) {
                            Ok(handle) => ok_text_frame(rid, &handle.to_string()),
                            Err(e) => error_frame(rid, E_REJECTED, &one_line(&e.to_string())),
                        }
                    }
                };
                self.push_frame(token, reply);
            }
            T_DERIVE | T_APPEND => {
                let append = f.ftype == T_APPEND;
                let reply = match parse_derive(&f.payload) {
                    Err(e) => error_frame(rid, E_PROTO, &one_line(&e)),
                    Ok((parent, delta_csv)) => {
                        let derived = parent
                            .parse::<DatasetHandle>()
                            .and_then(|parent| {
                                DatasetDelta::from_csv(&delta_csv)
                                    .map(|delta| (parent, delta))
                                    .map_err(|e| e.to_string())
                            })
                            .and_then(|(parent, delta)| {
                                if append {
                                    engine.append(parent, &delta)
                                } else {
                                    engine.derive(parent, &delta)
                                }
                                .map_err(|e| e.to_string())
                            });
                        match derived {
                            Ok(handle) => ok_text_frame(rid, &handle.to_string()),
                            Err(e) => error_frame(rid, E_REJECTED, &one_line(&e)),
                        }
                    }
                };
                self.push_frame(token, reply);
            }
            T_SUBMIT => self.handle_submit(token, f),
            T_GOODBYE => {
                self.push_frame(token, ok_text_frame(rid, "BYE"));
                self.set_close(token);
            }
            other => self.push_frame(
                token,
                error_frame(rid, E_PROTO, &format!("unknown frame type 0x{other:02X}")),
            ),
        }
    }

    /// Parses a framed `SUBMIT` and runs it through admission control.
    fn handle_submit(&mut self, token: u64, f: Frame) {
        let rid = f.request_id;
        let bulk = f.flags & FLAG_BULK != 0;
        let parsed = parse_submit(&f.payload).and_then(|(params, dataset)| {
            let config = params.config()?;
            Ok(match params.handle {
                Some(handle) => Submission::Prepared {
                    handle,
                    config,
                    seed: params.seed,
                },
                None => {
                    let (hierarchy, data) = decode_dataset(dataset)?;
                    Submission::Inline(ReleaseRequest::new(
                        Arc::new(hierarchy),
                        Arc::new(data),
                        config,
                        params.seed,
                    ))
                }
            })
        });
        let work = match parsed {
            Ok(work) => work,
            Err(e) => {
                self.push_frame(token, error_frame(rid, E_PROTO, &one_line(&e)));
                return;
            }
        };
        self.admit(
            token,
            Pending {
                request_id: rid,
                bulk,
                work,
            },
        );
    }

    /// Admission control for one framed submit: lane quota → engine
    /// queue → park buffer → structured backpressure.
    fn admit(&mut self, token: u64, pending: Pending) {
        let (at_quota, park_room, queued) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let at_quota = *conn.inflight(pending.bulk) >= self.cfg.quota(pending.bulk);
            (
                at_quota,
                conn.parked.len() < self.cfg.park_capacity,
                u32::try_from(conn.parked.len()).unwrap_or(u32::MAX),
            )
        };
        if at_quota {
            if park_room {
                self.park(token, pending);
            } else {
                self.shed(token, &pending, B_QUOTA, queued);
            }
            return;
        }
        if !self.submit(token, &pending) {
            if park_room {
                self.park(token, pending);
            } else {
                self.shed(token, &pending, B_QUEUE, queued);
            }
        }
    }

    fn park(&mut self, token: u64, pending: Pending) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.parked.push_back(pending);
            self.wire.parked.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sheds one request with a structured backpressure frame.
    fn shed(&mut self, token: u64, pending: &Pending, code: u8, queued: u32) {
        self.wire.backpressure.fetch_add(1, Ordering::Relaxed);
        let msg = match code {
            B_QUOTA => "per-connection lane quota and park buffer full",
            _ => "engine queue and park buffer full",
        };
        self.push_frame(
            token,
            busy_frame(pending.request_id, code, BUSY_RETRY_MS, queued, msg),
        );
    }

    /// Submits `pending` to the engine with a watcher that carries its
    /// status back to this connection, and counts it against its lane.
    /// Returns `false`, having sent nothing, when the engine queue is
    /// full; any other refusal is answered with an error frame.
    fn submit(&mut self, token: u64, pending: &Pending) -> bool {
        let queue = Arc::clone(&self.completions);
        let (request_id, bulk) = (pending.request_id, pending.bulk);
        let submitted = self
            .engine
            .submit_with(pending.work.clone(), move |status| {
                queue.push(Completion {
                    token,
                    request_id,
                    bulk,
                    status,
                });
            });
        match submitted {
            // A cache hit has already queued its completion, but the
            // reactor drains completions only after this returns.
            Ok(()) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    *conn.inflight(bulk) += 1;
                }
            }
            Err(EngineError::QueueFull { .. }) => return false,
            Err(e) => {
                let code = match e {
                    EngineError::BudgetExhausted { .. } => E_BUDGET,
                    _ => E_REJECTED,
                };
                self.push_frame(
                    token,
                    error_frame(request_id, code, &one_line(&e.to_string())),
                );
            }
        }
        true
    }

    /// Delivers finished jobs to their connections, then re-admits
    /// parked requests into the freed capacity.
    fn drain_completions(&mut self) {
        let drained = self.completions.drain();
        if drained.is_empty() {
            return;
        }
        for c in drained {
            let Some(conn) = self.conns.get_mut(&c.token) else {
                // Connection closed while the job ran: the status is
                // dropped here; a repeat request is served by the
                // result cache.
                continue;
            };
            let inflight = conn.inflight(c.bulk);
            *inflight = inflight.saturating_sub(1);
            let reply = match c.status {
                JobStatus::Done { result, from_cache } => {
                    let rows = u32::try_from(result.rows).unwrap_or(u32::MAX);
                    result_frame(c.request_id, from_cache, rows, &result.csv)
                }
                JobStatus::Failed(msg) => error_frame(c.request_id, E_FAILED, &one_line(&msg)),
            };
            self.push_frame(c.token, reply);
        }
        self.drain_parked();
    }

    /// Re-admits parked requests after completions free capacity.
    /// Interactive lanes drain before bulk lanes, round-robin across
    /// connections; a full engine queue stops the whole pass.
    fn drain_parked(&mut self) {
        for bulk_pass in [false, true] {
            let tokens: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| c.parked.iter().any(|p| p.bulk == bulk_pass))
                .map(|(t, _)| *t)
                .collect();
            for token in tokens {
                loop {
                    let pending = {
                        let Some(conn) = self.conns.get_mut(&token) else {
                            break;
                        };
                        if *conn.inflight(bulk_pass) >= self.cfg.quota(bulk_pass) {
                            break;
                        }
                        let Some(pos) = conn.parked.iter().position(|p| p.bulk == bulk_pass) else {
                            break;
                        };
                        match conn.parked.remove(pos) {
                            Some(p) => p,
                            None => break,
                        }
                    };
                    self.wire.parked.fetch_sub(1, Ordering::Relaxed);
                    if !self.submit(token, &pending) {
                        // Still no queue slot: put it back and stop the
                        // whole drain until the next completion.
                        self.wire.parked.fetch_add(1, Ordering::Relaxed);
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.parked.push_front(pending);
                        }
                        return;
                    }
                    self.touched.push(token);
                }
            }
        }
    }

    /// Closes connections idle past the read timeout with nothing in
    /// flight (in-flight work exempts a connection: the timer guards
    /// slots against idle peers, not against slow jobs).
    fn sweep_idle(&mut self) {
        let Some(timeout) = self.cfg.read_timeout else {
            return;
        };
        let mut idle: Vec<u64> = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            let quiet = !conn.close_after_flush
                && conn.inflight_interactive == 0
                && conn.inflight_bulk == 0
                && conn.parked.is_empty()
                && conn.last_activity.elapsed() >= timeout;
            if !quiet {
                conn.idle_strikes = 0;
                continue;
            }
            conn.idle_strikes = conn.idle_strikes.saturating_add(1);
            // Two strikes before closing: with sweeps every
            // `SWEEP_EVERY`, a peer observed idle once gets a full
            // sweep period of grace. A loaded host can starve a live
            // client past a short timeout between two of its requests;
            // only a peer quiet across consecutive sweeps is treated
            // as gone.
            if conn.idle_strikes >= 2 {
                idle.push(token);
            }
        }
        for token in idle {
            self.push_frame(
                token,
                error_frame(0, E_TIMEOUT, "idle timeout; closing connection"),
            );
            self.set_close(token);
        }
    }

    /// Appends one response frame to a connection's output buffer.
    fn push_frame(&mut self, token: u64, frame: Frame) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        encode_frame(&mut conn.outbuf, &frame);
        self.wire.frames_out.fetch_add(1, Ordering::Relaxed);
        self.touched.push(token);
    }

    fn set_close(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.close_after_flush = true;
        }
    }

    /// Flushes every connection touched since the last pass.
    fn flush_touched(&mut self) {
        let mut tokens = std::mem::take(&mut self.touched);
        tokens.sort_unstable();
        tokens.dedup();
        for token in tokens {
            self.flush_conn(token);
        }
    }

    /// Writes as much buffered output as the socket accepts, managing
    /// `EPOLLOUT` interest and deferred closes.
    fn flush_conn(&mut self, token: u64) {
        enum After {
            Nothing,
            Close,
            Modify(i32, u32),
        }
        let mut wrote = 0u64;
        let after = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut failed = false;
            loop {
                let pending = match conn.outbuf.get(conn.out_at..) {
                    Some(p) if !p.is_empty() => p,
                    _ => break,
                };
                match conn.stream.write(pending) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.out_at += n;
                        wrote += n as u64;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if failed {
                After::Close
            } else if conn.out_at >= conn.outbuf.len() {
                conn.outbuf.clear();
                conn.out_at = 0;
                if conn.close_after_flush {
                    After::Close
                } else if conn.wants_writable {
                    conn.wants_writable = false;
                    After::Modify(conn.stream.as_raw_fd(), sys::EPOLLIN | sys::EPOLLRDHUP)
                } else {
                    After::Nothing
                }
            } else {
                // Partial write: drop the sent prefix once it is large
                // enough to matter, enforce the slow-reader bound, and
                // subscribe for writability.
                if conn.out_at > (1 << 20) {
                    conn.outbuf.drain(..conn.out_at);
                    conn.out_at = 0;
                }
                if conn.outbuf.len().saturating_sub(conn.out_at) > OUTBUF_CAP {
                    After::Close
                } else if !conn.wants_writable {
                    conn.wants_writable = true;
                    After::Modify(
                        conn.stream.as_raw_fd(),
                        sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLOUT,
                    )
                } else {
                    After::Nothing
                }
            }
        };
        if wrote > 0 {
            self.wire.bytes_out.fetch_add(wrote, Ordering::Relaxed);
        }
        match after {
            After::Nothing => {}
            After::Close => self.close_conn(token),
            After::Modify(fd, events) => {
                if self.epoll.modify(fd, events, token).is_err() {
                    self.close_conn(token);
                }
            }
        }
    }

    /// Tears down one connection. In-flight jobs keep running; their
    /// completions find the connection gone and are dropped (a repeat
    /// request is served by the result cache).
    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll.delete(conn.stream.as_raw_fd());
            self.wire.active.fetch_sub(1, Ordering::Relaxed);
            let parked = conn.parked.len() as u64;
            if parked > 0 {
                self.wire.parked.fetch_sub(parked, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_u16_saturates() {
        assert_eq!(clamp_u16(7), 7);
        assert_eq!(clamp_u16(1 << 20), u16::MAX);
    }
}
