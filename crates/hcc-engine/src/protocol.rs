//! The wire protocol spoken by the server: the binary framed protocol
//! in [`frame`] (length-prefixed frames with request ids, pipelining,
//! and out-of-order responses; spoken by
//! [`MuxClient`](crate::MuxClient); full specification in
//! `docs/protocol.md`), plus the pieces its payloads share — the
//! [`SubmitParams`] `key=value` line and the [`level_method`] name
//! table.
//!
//! `PREPARE` and an inline `SUBMIT` carry a dataset as its
//! per-node count-of-counts histograms, not as rows: the client
//! parses and aggregates the CSV tables ([`frame::dataset_section`]),
//! and the server only decodes and checks the record. That record is
//! the node section of the durable store's
//! [`DatasetRecord`](hcc_store::DatasetRecord), so the wire and the
//! disk share one dataset codec. `PREPARE` registers the dataset
//! under a content-addressed handle (see [`crate::registry`]); an
//! ε-sweep then submits by handle and ships no dataset at all.
//!
//! `DERIVE` moves a prepared dataset forward by a
//! [`hcc_data::DatasetDelta`] without re-shipping or re-parsing any
//! table: the server applies the delta to the in-memory parent in
//! O(delta · depth) and registers the result under its own
//! content-addressed handle (equal, by fingerprint chaining, to what
//! a cold `PREPARE` of the post-delta tables would return). `APPEND`
//! is `DERIVE` plus dropping one reference on the parent.
//!
//! `METRICS` serves the engine's telemetry snapshot
//! ([`crate::telemetry`]) as Prometheus-style text exposition —
//! counters, gauges, latency histograms, and derived p50/p95/p99
//! quantiles. `TRACE` drains the span recorder (enabled with
//! `hcc serve --trace N`); each line parses with
//! [`SpanEvent::from_wire_line`](crate::telemetry::SpanEvent) and the
//! set renders to Chrome-trace JSON with
//! [`chrome_trace_json`](crate::telemetry::chrome_trace_json).

use hcc_consistency::{LevelMethod, TopDownConfig};

use crate::registry::DatasetHandle;

/// Stable machine-readable marker leading the failure text of a
/// request whose `BUSY` sheds outlasted the client's retry policy;
/// callers key on this token, never on the prose after it.
pub const BUSY: &str = "busy:";

/// Maps a wire method name + bound to the estimator selection — the
/// single source of truth for which method names the protocol admits.
pub fn level_method(method: &str, bound: u64) -> Result<LevelMethod, String> {
    match method {
        "hc" => Ok(LevelMethod::Cumulative { bound }),
        "hc-l2" => Ok(LevelMethod::CumulativeL2 { bound }),
        "hg" => Ok(LevelMethod::Unattributed),
        "naive" => Ok(LevelMethod::Naive { bound }),
        "adaptive" => Ok(LevelMethod::Adaptive { bound }),
        other => Err(format!(
            "unknown method {other:?} (hc|hc-l2|hg|naive|adaptive)"
        )),
    }
}

/// Largest public group-size bound `K` a `SUBMIT` may name (ten times
/// the default). Every `Hc`, naive and adaptive node estimate works
/// through `K + 1` cells, so the limit caps the per-node work and
/// scratch memory one request can demand of every worker. Submits
/// outside `1..=MAX_BOUND` are refused before admission, so they
/// spend no privacy budget.
pub const MAX_BOUND: u64 = 1_000_000;

/// Largest dense expansion a dataset section may decode to: Σ over
/// nodes of (largest group size + 1) histogram cells, 2 GiB of
/// counts. Every CSV row takes at least 4 bytes (`a,b\n`), so tables
/// that fit one [`frame::DEFAULT_MAX_FRAME`] payload hold at most a
/// quarter that many nodes plus entities. A node's largest group is
/// no larger than its entity count, and each entity sits in one node
/// per level, so every such dataset of up to four levels fits.
pub const MAX_DENSE_CELLS: u64 = frame::DEFAULT_MAX_FRAME as u64;

/// The release parameters carried on a `SUBMIT` line.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitParams {
    /// Total privacy budget ε.
    pub epsilon: f64,
    /// Estimator selection: `hc`, `hc-l2`, `hg`, `naive`, or
    /// `adaptive`.
    pub method: String,
    /// Public group-size bound `K`, in `1..=`[`MAX_BOUND`].
    pub bound: u64,
    /// Master RNG seed.
    pub seed: u64,
    /// Prepared-dataset handle. When set, the submission carries no
    /// dataset — the server resolves the handle against its
    /// registry.
    pub handle: Option<DatasetHandle>,
}

impl Default for SubmitParams {
    fn default() -> Self {
        Self {
            epsilon: 1.0,
            method: "hc".to_string(),
            bound: 100_000,
            seed: 42,
            handle: None,
        }
    }
}

impl SubmitParams {
    /// Renders the `key=value` tail of a `SUBMIT` line.
    pub fn encode(&self) -> String {
        let mut line = format!(
            "epsilon={} method={} bound={} seed={}",
            self.epsilon, self.method, self.bound, self.seed
        );
        if let Some(handle) = self.handle {
            line.push_str(&format!(" handle={handle}"));
        }
        line
    }

    /// Parses the `key=value` tokens of a `SUBMIT` line; `epsilon` is
    /// required, everything else defaults.
    pub fn decode(tail: &str) -> Result<Self, String> {
        let mut params = Self::default();
        let mut saw_epsilon = false;
        for token in tail.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {token:?}"))?;
            match key {
                "epsilon" => {
                    params.epsilon = value
                        .parse()
                        .map_err(|_| format!("epsilon: cannot parse {value:?}"))?;
                    saw_epsilon = true;
                }
                "method" => {
                    level_method(value, 0)?;
                    params.method = value.to_string();
                }
                "bound" => {
                    params.bound = value
                        .parse()
                        .map_err(|_| format!("bound: cannot parse {value:?}"))?;
                }
                "seed" => {
                    params.seed = value
                        .parse()
                        .map_err(|_| format!("seed: cannot parse {value:?}"))?;
                }
                "handle" => {
                    params.handle = Some(value.parse()?);
                }
                other => return Err(format!("unknown parameter {other:?}")),
            }
        }
        if !saw_epsilon {
            return Err("missing required parameter epsilon".to_string());
        }
        check_epsilon(params.epsilon)?;
        Ok(params)
    }

    /// Builds the release configuration these parameters describe,
    /// refusing an ε that is not positive and finite and a bound
    /// outside `1..=`[`MAX_BOUND`]. The server runs it before
    /// admission, so a refused request is never charged; `hcc release`
    /// runs it before starting its one-shot engine.
    pub fn config(&self) -> Result<TopDownConfig, String> {
        check_epsilon(self.epsilon)?;
        if !(1..=MAX_BOUND).contains(&self.bound) {
            return Err(format!("bound {} is outside 1..={MAX_BOUND}", self.bound));
        }
        let method = level_method(&self.method, self.bound)?;
        Ok(TopDownConfig::new(self.epsilon).with_method(method))
    }
}

/// The noise mechanisms assert a positive, finite ε; refusing any
/// other up front keeps a bad request from panicking an engine worker.
fn check_epsilon(epsilon: f64) -> Result<(), String> {
    if epsilon.is_finite() && epsilon > 0.0 {
        Ok(())
    } else {
        Err(format!(
            "epsilon must be positive and finite, got {epsilon}"
        ))
    }
}

/// Flattens a multi-line error message onto one protocol line.
pub fn one_line(msg: &str) -> String {
    msg.replace(['\n', '\r'], "; ")
}

pub mod frame {
    //! The binary framed protocol (version 2) spoken by the reactor
    //! server ([`crate::serve`]) and the [`MuxClient`](crate::MuxClient).
    //!
    //! Every frame is a 16-byte little-endian header followed by the
    //! payload:
    //!
    //! ```text
    //! offset  size  field
    //! 0       1     magic (0xFA — outside ASCII, so a text client
    //!               that connects by mistake fails on its first byte)
    //! 1       1     protocol version (currently 2)
    //! 2       1     frame type
    //! 3       1     flags (bit 0: bulk lane)
    //! 4       4     payload length, u32 LE
    //! 8       8     request id, u64 LE (echoed on the response)
    //! 16      len   payload
    //! ```
    //!
    //! Requests carry client-chosen request ids; responses echo them, so
    //! many requests can be pipelined on one connection and answered out
    //! of order. The full specification (payload layouts, version
    //! negotiation, backpressure semantics) lives in `docs/protocol.md`.
    //!
    //! Decoding is incremental and never panics: a truncated buffer
    //! yields `Ok(None)` (read more bytes), while a bad magic byte, an
    //! unsupported version, or an oversized declared length yields a
    //! typed [`FrameError`] — the connection is desynchronized beyond
    //! repair only in those cases. A *malformed payload* inside a
    //! well-framed frame is recoverable: the frame boundary is known, so
    //! the server answers with an [`T_ERROR`] frame and keeps the
    //! connection.

    use std::io::{self, Read, Write};

    use super::SubmitParams;

    /// First byte of every frame. Deliberately a non-ASCII value, so a
    /// text-protocol client is rejected on the first byte it sends
    /// ([`FrameError::BadMagic`]) instead of being misparsed.
    pub const MAGIC: u8 = 0xFA;
    /// Protocol version this build speaks.
    pub const VERSION: u8 = 2;
    /// Bytes in a frame header.
    pub const HEADER_LEN: usize = 16;
    /// Flag bit 0: route this request on the bulk lane (sweeps) rather
    /// than the interactive lane (see the reactor's admission control,
    /// `docs/protocol.md`).
    pub const FLAG_BULK: u8 = 0b0000_0001;
    /// Default cap on one frame's payload (256 MiB).
    pub const DEFAULT_MAX_FRAME: u32 = 1 << 28;

    /// Request: must be the first frame on a connection; negotiates the
    /// protocol version. Empty payload.
    pub const T_HELLO: u8 = 0x01;
    /// Request: health check. Empty payload.
    pub const T_PING: u8 = 0x02;
    // 0x03 is retired and reserved: an older client may still send
    // it, so it is never reused, and a server answers it as an
    // unknown frame type.
    /// Request: Prometheus text exposition. Empty payload.
    pub const T_METRICS: u8 = 0x04;
    /// Request: submit a release job (an inline dataset or a handle).
    pub const T_SUBMIT: u8 = 0x05;
    /// Request: register a prepared dataset from an inline dataset.
    pub const T_PREPARE: u8 = 0x06;
    /// Request: derive a prepared dataset by a delta.
    pub const T_DERIVE: u8 = 0x07;
    /// Request: derive + drop one parent reference (rolling update).
    pub const T_APPEND: u8 = 0x08;
    /// Request: drop one reference on a prepared dataset.
    pub const T_UNPREPARE: u8 = 0x09;
    /// Request: orderly goodbye; the server flushes and closes.
    pub const T_GOODBYE: u8 = 0x0A;
    /// Request: drain the span recorder. Empty payload; the reply is
    /// [`T_OK_TEXT`] with one span line per recorded span.
    pub const T_TRACE: u8 = 0x0B;

    /// Response to [`T_HELLO`]: the server's limits and quotas.
    pub const T_HELLO_OK: u8 = 0x81;
    /// Response to [`T_PING`].
    pub const T_PONG: u8 = 0x82;
    /// Response carrying text (metrics, trace, handles).
    pub const T_OK_TEXT: u8 = 0x83;
    /// Response carrying a finished release.
    pub const T_RESULT: u8 = 0x84;
    /// Backpressure: the request was shed, retry later (see payload).
    pub const T_BUSY: u8 = 0x85;
    /// The request failed; payload is a code byte plus a message.
    pub const T_ERROR: u8 = 0x86;

    /// [`T_ERROR`] code: malformed request payload.
    pub const E_PROTO: u8 = 1;
    /// [`T_ERROR`] code: unsupported protocol version in `HELLO`.
    pub const E_VERSION: u8 = 2;
    /// [`T_ERROR`] code: the engine rejected the request.
    pub const E_REJECTED: u8 = 3;
    /// [`T_ERROR`] code: the job ran and failed.
    pub const E_FAILED: u8 = 4;
    /// [`T_ERROR`] code: the connection idled past the server's read
    /// timeout with nothing in flight and is being closed.
    pub const E_TIMEOUT: u8 = 5;
    /// [`T_ERROR`] code: the submission would push its dataset's
    /// cumulative privacy spend past the server's budget cap. Not
    /// retryable — unlike `T_BUSY`, waiting does not help.
    pub const E_BUDGET: u8 = 6;
    /// [`T_BUSY`] code: the engine's bounded job queue (and this
    /// connection's park buffer) are full.
    pub const B_QUEUE: u8 = 1;
    /// [`T_BUSY`] code: this connection's per-lane in-flight quota (and
    /// its park buffer) are full.
    pub const B_QUOTA: u8 = 2;

    /// Why a buffer failed to decode as a frame.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum FrameError {
        /// The first byte is not [`MAGIC`].
        BadMagic(u8),
        /// The header declares an unsupported protocol version.
        BadVersion(u8),
        /// The header declares a payload larger than the configured cap.
        Oversized {
            /// Declared payload length.
            len: u32,
            /// The configured cap it exceeds.
            max: u32,
        },
        /// The buffer is structurally broken (e.g. shorter than a
        /// header where one was promised).
        Malformed(String),
    }

    impl std::fmt::Display for FrameError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                FrameError::BadMagic(b) => {
                    write!(f, "bad frame magic 0x{b:02X} (expected 0x{MAGIC:02X})")
                }
                FrameError::BadVersion(v) => {
                    write!(
                        f,
                        "unsupported protocol version {v} (this server speaks {VERSION})"
                    )
                }
                FrameError::Oversized { len, max } => {
                    write!(f, "frame declares a {len}-byte payload (limit {max})")
                }
                FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            }
        }
    }

    impl std::error::Error for FrameError {}

    /// One decoded frame: type, flags, request id, raw payload.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Frame {
        /// Frame type (`T_*`).
        pub ftype: u8,
        /// Flag bits ([`FLAG_BULK`]).
        pub flags: u8,
        /// Client-chosen request id, echoed on responses.
        pub request_id: u64,
        /// Raw payload bytes.
        pub payload: Vec<u8>,
    }

    impl Frame {
        /// A payload-less frame.
        pub fn empty(ftype: u8, request_id: u64) -> Frame {
            Frame {
                ftype,
                flags: 0,
                request_id,
                payload: Vec::new(),
            }
        }
    }

    /// Appends the wire encoding of `frame` to `out`.
    pub fn encode_frame(out: &mut Vec<u8>, frame: &Frame) {
        let len = u32::try_from(frame.payload.len());
        // A >4 GiB payload cannot be framed; this is a programming
        // error on the sending side, not peer input.
        assert!(len.is_ok(), "frame payload exceeds u32::MAX bytes");
        out.push(MAGIC);
        out.push(VERSION);
        out.push(frame.ftype);
        out.push(frame.flags);
        out.extend_from_slice(&len.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&frame.request_id.to_le_bytes());
        out.extend_from_slice(&frame.payload);
    }

    fn u32_at(buf: &[u8], at: usize) -> Option<u32> {
        let bytes: [u8; 4] = buf.get(at..at.checked_add(4)?)?.try_into().ok()?;
        Some(u32::from_le_bytes(bytes))
    }

    fn u64_at(buf: &[u8], at: usize) -> Option<u64> {
        let bytes: [u8; 8] = buf.get(at..at.checked_add(8)?)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }

    /// A parsed frame header (the first [`HEADER_LEN`] bytes).
    #[derive(Clone, Copy, Debug)]
    pub struct Header {
        /// Protocol version byte.
        pub version: u8,
        /// Frame type (`T_*`).
        pub ftype: u8,
        /// Flag bits.
        pub flags: u8,
        /// Declared payload length.
        pub len: u32,
        /// Request id.
        pub request_id: u64,
    }

    /// Parses and validates the header at the front of `buf` (which
    /// must hold at least [`HEADER_LEN`] bytes). Checks magic, version,
    /// and the payload cap — everything knowable without the payload.
    pub fn parse_header(buf: &[u8], max_payload: u32) -> Result<Header, FrameError> {
        let magic = buf.first().copied().unwrap_or(0);
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Malformed(format!(
                "header needs {HEADER_LEN} bytes, got {}",
                buf.len()
            )));
        }
        let version = buf.get(1).copied().unwrap_or(0);
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let len = u32_at(buf, 4).unwrap_or(0);
        if len > max_payload {
            return Err(FrameError::Oversized {
                len,
                max: max_payload,
            });
        }
        Ok(Header {
            version,
            ftype: buf.get(2).copied().unwrap_or(0),
            flags: buf.get(3).copied().unwrap_or(0),
            len,
            request_id: u64_at(buf, 8).unwrap_or(0),
        })
    }

    /// Incremental decode: tries to decode one frame from the front of
    /// `buf`. Returns `Ok(None)` when more bytes are needed, and
    /// `Ok(Some((frame, consumed)))` once a full frame is buffered.
    /// Never panics on any input.
    pub fn decode_frame(
        buf: &[u8],
        max_payload: u32,
    ) -> Result<Option<(Frame, usize)>, FrameError> {
        let Some(&magic) = buf.first() else {
            return Ok(None);
        };
        if magic != MAGIC {
            return Err(FrameError::BadMagic(magic));
        }
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let header = parse_header(buf, max_payload)?;
        let total = HEADER_LEN + header.len as usize;
        let Some(payload) = buf.get(HEADER_LEN..total) else {
            return Ok(None);
        };
        Ok(Some((
            Frame {
                ftype: header.ftype,
                flags: header.flags,
                request_id: header.request_id,
                payload: payload.to_vec(),
            },
            total,
        )))
    }

    /// Writes one frame to a blocking stream.
    pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
        let mut buf = Vec::with_capacity(HEADER_LEN + frame.payload.len());
        encode_frame(&mut buf, frame);
        w.write_all(&buf)
    }

    /// Reads one frame from a blocking stream, validating the header
    /// against `max_payload`. Frame errors surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_frame(r: &mut impl Read, max_payload: u32) -> io::Result<Frame> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let header = parse_header(&header, max_payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let mut payload = vec![0u8; header.len as usize];
        r.read_exact(&mut payload)?;
        Ok(Frame {
            ftype: header.ftype,
            flags: header.flags,
            request_id: header.request_id,
            payload,
        })
    }

    /// Bounds-checked little-endian payload reader; every accessor
    /// returns a `String` error instead of panicking, so peer-shaped
    /// bytes can never take down a connection handler.
    pub struct Cur<'a> {
        buf: &'a [u8],
        at: usize,
    }

    impl<'a> Cur<'a> {
        /// Starts reading `buf` from the front.
        pub fn new(buf: &'a [u8]) -> Cur<'a> {
            Cur { buf, at: 0 }
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
            let end = self
                .at
                .checked_add(n)
                .ok_or_else(|| "payload length overflow".to_string())?;
            let bytes = self.buf.get(self.at..end).ok_or_else(|| {
                format!("payload truncated at byte {} (wanted {n} more)", self.at)
            })?;
            self.at = end;
            Ok(bytes)
        }

        /// Reads one byte.
        pub fn u8(&mut self) -> Result<u8, String> {
            Ok(self.take(1)?.first().copied().unwrap_or(0))
        }

        /// Reads a little-endian u16.
        pub fn u16(&mut self) -> Result<u16, String> {
            let bytes: [u8; 2] = self.take(2)?.try_into().map_err(|_| "u16".to_string())?;
            Ok(u16::from_le_bytes(bytes))
        }

        /// Reads a little-endian u32.
        pub fn u32(&mut self) -> Result<u32, String> {
            let bytes: [u8; 4] = self.take(4)?.try_into().map_err(|_| "u32".to_string())?;
            Ok(u32::from_le_bytes(bytes))
        }

        /// Reads a u16-length-prefixed UTF-8 string.
        pub fn str_u16(&mut self) -> Result<String, String> {
            let len = self.u16()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8".to_string())
        }

        /// Reads a u32-length-prefixed UTF-8 blob.
        pub fn blob_u32(&mut self) -> Result<String, String> {
            let len = self.u32()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| "blob is not UTF-8".to_string())
        }

        /// Consumes the rest of the payload as raw bytes.
        pub fn rest(&mut self) -> &'a [u8] {
            let bytes = self.buf.get(self.at..).unwrap_or(&[]);
            self.at = self.buf.len();
            bytes
        }

        /// Consumes the rest of the payload as UTF-8 text.
        pub fn rest_str(&mut self) -> Result<String, String> {
            String::from_utf8(self.rest().to_vec()).map_err(|_| "text is not UTF-8".to_string())
        }

        /// Asserts the payload is fully consumed (trailing garbage is a
        /// malformed request).
        pub fn done(&self) -> Result<(), String> {
            if self.at == self.buf.len() {
                Ok(())
            } else {
                Err(format!(
                    "{} trailing bytes after the payload",
                    self.buf.len() - self.at
                ))
            }
        }
    }

    fn push_str_u16(out: &mut Vec<u8>, s: &str) {
        let len = u16::try_from(s.len());
        assert!(len.is_ok(), "u16-prefixed string exceeds 64 KiB");
        out.extend_from_slice(&len.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    fn push_blob_u32(out: &mut Vec<u8>, s: &str) {
        let len = u32::try_from(s.len());
        assert!(len.is_ok(), "u32-prefixed blob exceeds u32::MAX bytes");
        out.extend_from_slice(&len.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    /// Builds a [`T_SUBMIT`] frame: the encoded [`SubmitParams`], then
    /// the [`dataset_section`] of an inline submission, or nothing for
    /// a submission by `handle=`.
    pub fn submit_frame(
        request_id: u64,
        params: &SubmitParams,
        dataset: Option<&[u8]>,
        bulk: bool,
    ) -> Frame {
        let mut payload = Vec::new();
        push_str_u16(&mut payload, &params.encode());
        payload.extend_from_slice(dataset.unwrap_or_default());
        Frame {
            ftype: T_SUBMIT,
            flags: if bulk { FLAG_BULK } else { 0 },
            request_id,
            payload,
        }
    }

    /// Parses a [`T_SUBMIT`] payload into its params and dataset
    /// section. Exactly one of the two names the data: the section is
    /// empty if and only if the params carry a `handle=`.
    pub fn parse_submit(payload: &[u8]) -> Result<(SubmitParams, &[u8]), String> {
        let mut cur = Cur::new(payload);
        let params = SubmitParams::decode(&cur.str_u16()?)?;
        let dataset = cur.rest();
        match (params.handle.is_some(), dataset.is_empty()) {
            (true, false) => Err("SUBMIT with handle= takes no data sections".to_string()),
            (false, true) => Err("SUBMIT needs an inline dataset or a handle=".to_string()),
            _ => Ok((params, dataset)),
        }
    }

    /// Parses and aggregates three CSV tables (hierarchy, groups,
    /// entities) into the dataset section a [`T_PREPARE`] or inline
    /// [`T_SUBMIT`] carries: the node section of the store's dataset
    /// record (layout in `docs/protocol.md`). A table that does not
    /// parse is named in the error (`hierarchy:`, `groups:`,
    /// `entities:`).
    pub fn dataset_section(tables: [&str; 3]) -> Result<Vec<u8>, String> {
        let (hierarchy, data) = crate::client::load_tables(tables)?;
        Ok(crate::ledger::encode_dataset(&hierarchy, &data))
    }

    /// Builds a [`T_PREPARE`] frame from three CSV tables. Tables that
    /// do not parse give an empty payload, which the server refuses
    /// with [`E_PROTO`]; call [`dataset_section`] first to see why.
    pub fn prepare_frame(request_id: u64, tables: [&str; 3]) -> Frame {
        Frame {
            ftype: T_PREPARE,
            flags: 0,
            request_id,
            payload: dataset_section(tables).unwrap_or_default(),
        }
    }

    /// Builds a [`T_DERIVE`]/[`T_APPEND`] frame: the parent handle plus
    /// the delta CSV.
    pub fn derive_frame(request_id: u64, ftype: u8, parent: &str, delta_csv: &str) -> Frame {
        let mut payload = Vec::new();
        push_str_u16(&mut payload, parent);
        push_blob_u32(&mut payload, delta_csv);
        Frame {
            ftype,
            flags: 0,
            request_id,
            payload,
        }
    }

    /// Parses a [`T_DERIVE`]/[`T_APPEND`] payload into (parent handle
    /// text, delta CSV).
    pub fn parse_derive(payload: &[u8]) -> Result<(String, String), String> {
        let mut cur = Cur::new(payload);
        let parent = cur.str_u16()?;
        let delta = cur.blob_u32()?;
        cur.done()?;
        Ok((parent, delta))
    }

    /// Builds a [`T_UNPREPARE`] frame carrying the handle to release.
    pub fn unprepare_frame(request_id: u64, handle: &str) -> Frame {
        let mut payload = Vec::new();
        push_str_u16(&mut payload, handle);
        Frame {
            ftype: T_UNPREPARE,
            flags: 0,
            request_id,
            payload,
        }
    }

    /// Parses a [`T_UNPREPARE`] payload into the handle text.
    pub fn parse_unprepare(payload: &[u8]) -> Result<String, String> {
        let mut cur = Cur::new(payload);
        let handle = cur.str_u16()?;
        cur.done()?;
        Ok(handle)
    }

    /// Builds a [`T_HELLO_OK`] response advertising the server limits.
    pub fn hello_ok_frame(request_id: u64, limits: &HelloLimits) -> Frame {
        let mut payload = Vec::new();
        payload.extend_from_slice(&limits.max_frame.to_le_bytes());
        payload.extend_from_slice(&limits.interactive_inflight.to_le_bytes());
        payload.extend_from_slice(&limits.bulk_inflight.to_le_bytes());
        payload.extend_from_slice(&limits.park_capacity.to_le_bytes());
        Frame {
            ftype: T_HELLO_OK,
            flags: 0,
            request_id,
            payload,
        }
    }

    /// Server limits advertised in [`T_HELLO_OK`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct HelloLimits {
        /// Largest payload the server will accept in one frame.
        pub max_frame: u32,
        /// Interactive-lane in-flight quota per connection.
        pub interactive_inflight: u16,
        /// Bulk-lane in-flight quota per connection.
        pub bulk_inflight: u16,
        /// Requests parked per connection before `BUSY` is shed.
        pub park_capacity: u16,
    }

    /// Parses a [`T_HELLO_OK`] payload.
    pub fn parse_hello_ok(payload: &[u8]) -> Result<HelloLimits, String> {
        let mut cur = Cur::new(payload);
        let limits = HelloLimits {
            max_frame: cur.u32()?,
            interactive_inflight: cur.u16()?,
            bulk_inflight: cur.u16()?,
            park_capacity: cur.u16()?,
        };
        cur.done()?;
        Ok(limits)
    }

    /// Builds a [`T_RESULT`] response carrying a finished release.
    pub fn result_frame(request_id: u64, from_cache: bool, rows: u32, csv: &str) -> Frame {
        let mut payload = Vec::with_capacity(5 + csv.len());
        payload.push(u8::from(from_cache));
        payload.extend_from_slice(&rows.to_le_bytes());
        payload.extend_from_slice(csv.as_bytes());
        Frame {
            ftype: T_RESULT,
            flags: 0,
            request_id,
            payload,
        }
    }

    /// A parsed [`T_RESULT`] payload.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WireResult {
        /// Whether the server's result cache served it.
        pub from_cache: bool,
        /// Data rows in the CSV (excluding the header).
        pub rows: u32,
        /// The release CSV, exactly as released.
        pub csv: String,
    }

    /// Parses a [`T_RESULT`] payload.
    pub fn parse_result(payload: &[u8]) -> Result<WireResult, String> {
        let mut cur = Cur::new(payload);
        let from_cache = cur.u8()? != 0;
        let rows = cur.u32()?;
        let csv = cur.rest_str()?;
        Ok(WireResult {
            from_cache,
            rows,
            csv,
        })
    }

    /// Builds a [`T_OK_TEXT`] response.
    pub fn ok_text_frame(request_id: u64, text: &str) -> Frame {
        Frame {
            ftype: T_OK_TEXT,
            flags: 0,
            request_id,
            payload: text.as_bytes().to_vec(),
        }
    }

    /// Builds a [`T_ERROR`] response (`E_*` code + message).
    pub fn error_frame(request_id: u64, code: u8, msg: &str) -> Frame {
        let mut payload = Vec::with_capacity(1 + msg.len());
        payload.push(code);
        payload.extend_from_slice(msg.as_bytes());
        Frame {
            ftype: T_ERROR,
            flags: 0,
            request_id,
            payload,
        }
    }

    /// Parses a [`T_ERROR`] payload into (code, message).
    pub fn parse_error(payload: &[u8]) -> (u8, String) {
        let mut cur = Cur::new(payload);
        let code = cur.u8().unwrap_or(0);
        let msg = cur.rest_str().unwrap_or_else(|e| e);
        (code, msg)
    }

    /// Builds a [`T_BUSY`] backpressure response.
    pub fn busy_frame(request_id: u64, code: u8, retry_ms: u32, queued: u32, msg: &str) -> Frame {
        let mut payload = Vec::with_capacity(9 + msg.len());
        payload.push(code);
        payload.extend_from_slice(&retry_ms.to_le_bytes());
        payload.extend_from_slice(&queued.to_le_bytes());
        payload.extend_from_slice(msg.as_bytes());
        Frame {
            ftype: T_BUSY,
            flags: 0,
            request_id,
            payload,
        }
    }

    /// A parsed [`T_BUSY`] payload.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct BusyInfo {
        /// Which bound was hit (`B_*`).
        pub code: u8,
        /// Server's retry hint, in milliseconds.
        pub retry_ms: u32,
        /// How many requests this connection had parked when the shed
        /// happened.
        pub queued: u32,
        /// Human-readable explanation.
        pub msg: String,
    }

    /// Parses a [`T_BUSY`] payload.
    pub fn parse_busy(payload: &[u8]) -> Result<BusyInfo, String> {
        let mut cur = Cur::new(payload);
        Ok(BusyInfo {
            code: cur.u8()?,
            retry_ms: cur.u32()?,
            queued: cur.u32()?,
            msg: cur.rest_str()?,
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn frame_round_trips() {
            let f = submit_frame(7, &SubmitParams::default(), Some(b"nodes"), true);
            let mut buf = Vec::new();
            encode_frame(&mut buf, &f);
            let (decoded, used) = decode_frame(&buf, DEFAULT_MAX_FRAME).unwrap().unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(decoded, f);
            let (params, dataset) = parse_submit(&decoded.payload).unwrap();
            assert_eq!(params, SubmitParams::default());
            assert_eq!(dataset, b"nodes");
        }

        #[test]
        fn truncated_frames_need_more_bytes_never_error() {
            let f = result_frame(3, true, 2, "region,level\na,0\nb,0\n");
            let mut buf = Vec::new();
            encode_frame(&mut buf, &f);
            // Every strict prefix decodes to "need more", never an error
            // and never a panic.
            for cut in 0..buf.len() {
                let out = decode_frame(&buf[..cut], DEFAULT_MAX_FRAME);
                assert_eq!(out, Ok(None), "prefix of {cut} bytes");
            }
            assert!(decode_frame(&buf, DEFAULT_MAX_FRAME).unwrap().is_some());
        }

        #[test]
        fn bad_magic_is_detected_on_the_first_byte() {
            assert_eq!(
                decode_frame(b"PING\n", DEFAULT_MAX_FRAME),
                Err(FrameError::BadMagic(b'P'))
            );
        }

        #[test]
        fn version_mismatch_is_a_typed_error() {
            let mut buf = Vec::new();
            encode_frame(&mut buf, &Frame::empty(T_HELLO, 1));
            buf[1] = 9;
            assert_eq!(
                decode_frame(&buf, DEFAULT_MAX_FRAME),
                Err(FrameError::BadVersion(9))
            );
        }

        #[test]
        fn oversized_declared_length_is_rejected_before_buffering() {
            let mut buf = Vec::new();
            encode_frame(&mut buf, &Frame::empty(T_PING, 1));
            buf[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_eq!(
                decode_frame(&buf, 1 << 20),
                Err(FrameError::Oversized {
                    len: u32::MAX,
                    max: 1 << 20
                })
            );
        }

        #[test]
        fn malformed_payloads_error_never_panic() {
            // Adversarial: parse every payload parser against random-ish
            // deterministic garbage and truncations of valid payloads.
            let valid = submit_frame(1, &SubmitParams::default(), None, false).payload;
            for cut in 0..valid.len() {
                let _ = parse_submit(&valid[..cut]);
            }
            let mut junk = Vec::new();
            let mut x: u64 = 0x9E3779B97F4A7C15;
            for _ in 0..4096 {
                x = x.wrapping_mul(0xD1342543DE82EF95).wrapping_add(1);
                junk.push((x >> 56) as u8);
            }
            for start in 0..64 {
                let body = &junk[start..];
                let _ = parse_submit(body);
                let _ = crate::ledger::decode_dataset(body);
                let _ = parse_derive(body);
                let _ = parse_hello_ok(body);
                let _ = parse_result(body);
                let _ = parse_busy(body);
                let _ = parse_error(body);
                let _ = decode_frame(body, DEFAULT_MAX_FRAME);
            }
        }

        /// A submission names its data exactly once: by `handle=` or
        /// by an inline dataset, never both and never neither.
        #[test]
        fn mixed_table_presence_is_rejected() {
            let handle = "ds-000000000000000000000000deadbeef".parse().unwrap();
            let by_handle = SubmitParams {
                handle: Some(handle),
                ..SubmitParams::default()
            };
            let both = submit_frame(1, &by_handle, Some(b"nodes"), false);
            let err = parse_submit(&both.payload).unwrap_err();
            assert!(err.contains("takes no data sections"), "{err}");
            let neither = submit_frame(2, &SubmitParams::default(), None, false);
            let err = parse_submit(&neither.payload).unwrap_err();
            assert!(err.contains("inline dataset or a handle="), "{err}");
            assert!(parse_submit(&submit_frame(3, &by_handle, None, false).payload).is_ok());
        }

        #[test]
        fn trailing_garbage_is_malformed() {
            let tables = ["r,\na,r\n", "g1,a\n", "e1,g1\ne2,g1\n"];
            let mut f = prepare_frame(1, tables);
            assert!(crate::ledger::decode_dataset(&f.payload).is_ok());
            f.payload.push(0xFF);
            let err = crate::ledger::decode_dataset(&f.payload).unwrap_err();
            assert!(err.contains("trailing"), "{err}");
            let mut f = derive_frame(2, T_DERIVE, "ds-00", "add,a,1,2\n");
            f.payload.push(0xFF);
            assert!(parse_derive(&f.payload).is_err());
        }

        #[test]
        fn tables_that_do_not_parse_make_an_empty_prepare() {
            let err = dataset_section(["r,\nr,r\n", "", ""]).unwrap_err();
            assert!(err.starts_with("hierarchy:"), "{err}");
            let err = dataset_section(["r,\n", "g1,nowhere\n", ""]).unwrap_err();
            assert!(err.starts_with("groups:"), "{err}");
            let err = dataset_section(["r,\n", "g1,r\n", "e1,g9\n"]).unwrap_err();
            assert!(err.starts_with("entities:"), "{err}");
            assert!(prepare_frame(1, ["r,\nr,r\n", "", ""]).payload.is_empty());
            assert!(crate::ledger::decode_dataset(&[]).is_err());
        }

        #[test]
        fn busy_and_error_round_trip() {
            let b = busy_frame(9, B_QUOTA, 50, 3, "bulk lane at quota");
            let info = parse_busy(&b.payload).unwrap();
            assert_eq!(info.code, B_QUOTA);
            assert_eq!(info.retry_ms, 50);
            assert_eq!(info.queued, 3);
            assert_eq!(info.msg, "bulk lane at quota");
            let e = error_frame(9, E_REJECTED, "queue full");
            assert_eq!(
                parse_error(&e.payload),
                (E_REJECTED, "queue full".to_string())
            );
        }

        #[test]
        fn blocking_read_write_round_trip() {
            let f = derive_frame(5, T_APPEND, "ds-00", "add,a,1,2,3\n");
            let mut buf = Vec::new();
            write_frame(&mut buf, &f).unwrap();
            let mut r = &buf[..];
            assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(), f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_round_trip() {
        let p = SubmitParams {
            epsilon: 0.5,
            method: "adaptive".into(),
            bound: 1234,
            seed: 9,
            handle: None,
        };
        assert_eq!(SubmitParams::decode(&p.encode()).unwrap(), p);
    }

    #[test]
    fn handle_param_round_trips_and_validates() {
        let p = SubmitParams {
            handle: Some("ds-000000000000000000000000deadbeef".parse().unwrap()),
            ..SubmitParams::default()
        };
        let line = p.encode();
        assert!(line.contains("handle=ds-"), "{line}");
        assert_eq!(SubmitParams::decode(&line).unwrap(), p);
        assert!(SubmitParams::decode("epsilon=1").unwrap().handle.is_none());
        let err = SubmitParams::decode("epsilon=1 handle=nope").unwrap_err();
        assert!(err.contains("malformed dataset handle"), "{err}");
    }

    #[test]
    fn params_defaults_and_errors() {
        let p = SubmitParams::decode("epsilon=2").unwrap();
        assert_eq!(p.method, "hc");
        assert_eq!(p.bound, 100_000);
        assert_eq!(p.seed, 42);
        assert!(SubmitParams::decode("").unwrap_err().contains("epsilon"));
        assert!(SubmitParams::decode("epsilon=1 method=bogus").is_err());
        assert!(SubmitParams::decode("epsilon=1 what=no").is_err());
        assert!(SubmitParams::decode("epsilon=abc").is_err());
        // Degenerate budgets are rejected at the wire, not asserted in
        // a worker thread.
        for eps in ["0", "-1", "NaN", "inf"] {
            let err = SubmitParams::decode(&format!("epsilon={eps}")).unwrap_err();
            assert!(err.contains("positive and finite"), "{eps}: {err}");
        }
    }
}
