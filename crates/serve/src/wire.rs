//! The wire protocol: a versioned, length-prefixed binary codec for
//! [`QueryRequest`] / [`QueryResponse`] plus the admin operations
//! (reload, stats, metrics, health, shutdown) that `cpd-server`
//! speaks over TCP.
//!
//! # Frame layout
//!
//! Every frame — request or response — is self-describing:
//!
//! ```text
//! ┌───────────┬─────────┬─────┬──────────────┬───────────────┐
//! │ magic (2) │ ver (1) │ tag │ len u32 (LE) │ payload (len) │
//! └───────────┴─────────┴─────┴──────────────┴───────────────┘
//! ```
//!
//! * **magic** [`WIRE_MAGIC`] — rejects non-CPD peers on the first
//!   frame instead of misparsing garbage;
//! * **version** [`WIRE_VERSION`] — a reader accepts
//!   [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`] (v3 frames decode as
//!   traceless) and refuses anything else by name (mirroring the
//!   model file format's policy in `cpd_core::io`), so protocol
//!   evolution is an explicit error, never silent misdecoding;
//! * **tag** — the frame class (query, reload, stats, shutdown on the
//!   request side; response, reloaded, stats, shutting-down, error on
//!   the response side);
//! * **len** — payload bytes. Frames beyond [`MAX_FRAME_PAYLOAD`] are
//!   rejected **before any allocation**, so a hostile or corrupt length
//!   prefix cannot balloon server memory.
//!
//! Payloads are hand-rolled little-endian primitives (`f64` as raw IEEE
//! bits, so an encode → decode round trip is byte-exact, NaN payloads
//! included; collections length-prefixed with counts validated against
//! the remaining payload before allocating). Decoding is strict: every
//! payload must consume exactly its declared length, unknown variant
//! tags are [`WireError::Malformed`], and a truncated stream is
//! distinguishable from a clean end-of-stream ([`read_request`] /
//! [`read_response`] return `Ok(None)` only at a frame boundary).
//!
//! Malformed frames never kill a connection silently: the server
//! answers with a [`ResponseFrame::Error`] before closing (payload-
//! level garbage after a valid header keeps the stream synchronized, so
//! those connections even survive).

use crate::cache::CacheStats;
use crate::foldin::{FoldInItem, FoldedProfile};
use crate::runtime::{
    ClassStats, HealthState, HealthStatus, NetStats, QueryRequest, QueryResponse, ServeDiagnostics,
};
use cpd_telemetry::{KeepReason, SpanRecord, Trace, TraceContext};
use social_graph::{UserId, WordId};
use std::io::{Read, Write};

/// First two bytes of every frame.
pub const WIRE_MAGIC: [u8; 2] = [0xC9, 0xDF];

/// Protocol version this build speaks.
///
/// * v1 — queries + reload/stats/shutdown admin frames.
/// * v2 — adds the `Metrics` (Prometheus text) and `Health` admin
///   frames, and extends each [`ClassStats`] in a `Stats` reply with
///   histogram-backed p50/p99/p999 microsecond fields. The stats
///   payload layout changed, so v1 peers are refused by name rather
///   than misdecoded.
/// * v3 — overload hardening: `Query` frames carry an optional
///   deadline budget (milliseconds the client is still willing to
///   wait), responses gain the `Overloaded { retry_after_ms }`
///   variant, `Health` replies carry the Ok/Degraded state byte, and
///   `Stats` replies add the shed / deadline-exceeded counters. The
///   query and health payload layouts changed, so v2 peers are
///   refused by name.
/// * v4 — request tracing: `Query` frames carry an optional
///   [`TraceContext`] (trace id, parent span id, sampled flag) after
///   the deadline field, `Response` frames mirror the trace id back,
///   and the `Traces` admin frame pair dumps the server's completed
///   [`Trace`] ring. Uniquely, v4 is **backward compatible on the
///   read side**: the new fields are strictly additive, so a v4
///   reader accepts v3 frames (≥ [`MIN_WIRE_VERSION`]) as traceless
///   and a v4 server answers each connection in the version its peer
///   spoke — stale v3 clients keep working untraced.
pub const WIRE_VERSION: u8 = 4;

/// Oldest frame version a v4 reader still accepts. v3 `Query` frames
/// decode as traceless requests; v3 peers never see trace fields or
/// the (v4-only) `Traces` admin pair in replies.
pub const MIN_WIRE_VERSION: u8 = 3;

/// Hard ceiling on a frame's payload length — anything larger is
/// rejected from the 8-byte header alone, before any payload
/// allocation.
pub const MAX_FRAME_PAYLOAD: u32 = 16 << 20;

/// Bytes in the fixed frame header.
pub const FRAME_HEADER_LEN: usize = 8;

// Request-side frame tags.
const TAG_QUERY: u8 = 0x01;
const TAG_RELOAD: u8 = 0x02;
const TAG_STATS: u8 = 0x03;
const TAG_SHUTDOWN: u8 = 0x04;
const TAG_METRICS: u8 = 0x05;
const TAG_HEALTH: u8 = 0x06;
const TAG_TRACES: u8 = 0x07;
// Response-side frame tags (high bit set).
const TAG_RESPONSE: u8 = 0x81;
const TAG_RELOADED: u8 = 0x82;
const TAG_STATS_REPLY: u8 = 0x83;
const TAG_SHUTTING_DOWN: u8 = 0x84;
const TAG_METRICS_REPLY: u8 = 0x85;
const TAG_HEALTH_REPLY: u8 = 0x86;
const TAG_TRACES_REPLY: u8 = 0x87;
const TAG_ERROR: u8 = 0xFF;

/// A client → server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestFrame {
    /// One query for the serving pool; consecutive `Query` frames on a
    /// connection are batched into one `submit_batch` call.
    Query {
        /// The query itself.
        request: QueryRequest,
        /// Optional deadline budget: how many more milliseconds the
        /// client is willing to wait for this answer. The server
        /// anchors the budget at decode time and propagates the
        /// resulting deadline into the runtime queue, where an
        /// expired job is dropped as `Overloaded` instead of
        /// executed. `None` = no client-imposed deadline (the
        /// runtime's own `max_queue_wait` still applies).
        deadline_ms: Option<u32>,
        /// Optional trace context (v4): the trace this query belongs
        /// to and the client span it parents under. `None` = untraced
        /// (the server may still head-sample it at its own edge). A
        /// context with `sampled == false` labels the request with a
        /// trace id (for tail sampling and fault logs) without paying
        /// for span recording.
        trace: Option<TraceContext>,
    },
    /// Admin: hot-reload the index from a model snapshot on the
    /// server's filesystem, answered with [`ResponseFrame::Reloaded`].
    Reload {
        /// Path (server-side) of the `cpd-model` snapshot to load.
        path: String,
    },
    /// Admin: fetch the live [`ServeDiagnostics`].
    Stats,
    /// Admin: ask the server to stop accepting connections and drain.
    Shutdown,
    /// Admin: fetch the full metric registry rendered in the
    /// Prometheus text exposition format. Answered inline on the
    /// connection thread — never queued behind the worker pool — so a
    /// scrape succeeds even when the runtime is saturated.
    Metrics,
    /// Admin: liveness/readiness probe, answered inline like
    /// [`Metrics`](RequestFrame::Metrics).
    Health,
    /// Admin (v4): fetch the server's completed-trace ring — newest
    /// first, head-sampled and tail-kept traces alike. Answered
    /// inline on the connection thread like
    /// [`Metrics`](RequestFrame::Metrics).
    Traces,
}

/// A server → client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseFrame {
    /// Answer to one [`RequestFrame::Query`], in request order.
    Response {
        /// The answer itself.
        response: QueryResponse,
        /// The request's trace id mirrored back (v4), so a pipelined
        /// client can correlate each answer with a trace without
        /// relying on slot order alone. Omitted on the wire for v3
        /// peers.
        trace_id: Option<u64>,
    },
    /// A reload landed; the new snapshot generation.
    Reloaded {
        /// Generation of the now-live index.
        generation: u64,
    },
    /// Answer to [`RequestFrame::Stats`]. Boxed: the per-class quantile
    /// fields make [`ServeDiagnostics`] by far the widest payload, and
    /// every other variant would pay its footprint inline.
    Stats(Box<ServeDiagnostics>),
    /// Acknowledges [`RequestFrame::Shutdown`]; the server stops
    /// accepting new connections and drains the existing ones.
    ShuttingDown,
    /// Answer to [`RequestFrame::Metrics`]: the registry rendered as
    /// Prometheus text (UTF-8).
    Metrics(String),
    /// Answer to [`RequestFrame::Health`].
    Health(HealthStatus),
    /// Answer to [`RequestFrame::Traces`] (v4): the completed-trace
    /// ring, newest first.
    Traces(Vec<Trace>),
    /// A frame-level failure: the offending frame could not be decoded
    /// (or an admin operation failed). Query-level validation errors
    /// travel inside [`QueryResponse::Error`] instead.
    Error(String),
}

/// Decode-side failures.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The bytes are not a valid frame (bad magic, unknown version or
    /// tag, truncated or trailing payload bytes, …).
    Malformed(String),
    /// The header declared a payload larger than [`MAX_FRAME_PAYLOAD`];
    /// nothing was allocated.
    Oversized {
        /// Declared payload length.
        len: u32,
    },
    /// The transport's read timeout expired. `mid_frame` is the
    /// severity split: `false` means the stream timed out **between**
    /// frames (an idle peer — harmless, the stream is still
    /// synchronized and the caller may keep waiting), `true` means it
    /// expired with a frame partially read (a half-dead or slow-loris
    /// peer — the stream is desynchronized and must be closed).
    Timeout {
        /// Whether the deadline expired inside a frame.
        mid_frame: bool,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire io error: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Oversized { len } => write!(
                f,
                "oversized frame: payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD} limit"
            ),
            WireError::Timeout { mid_frame: true } => {
                write!(f, "read timed out mid-frame (half-dead peer)")
            }
            WireError::Timeout { mid_frame: false } => {
                write!(f, "read timed out between frames (idle peer)")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Payload writer: plain little-endian pushes into a `Vec`.
struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, x: u8) {
        self.0.push(x);
    }
    fn u32(&mut self, x: u32) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.0.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    fn words(&mut self, ws: &[WordId]) {
        self.u32(ws.len() as u32);
        for w in ws {
            self.u32(w.0);
        }
    }
    fn users(&mut self, us: &[UserId]) {
        self.u32(us.len() as u32);
        for u in us {
            self.u32(u.0);
        }
    }
    fn f64s(&mut self, xs: &[f64]) {
        self.u32(xs.len() as u32);
        for &x in xs {
            self.f64(x);
        }
    }
    fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn class(&mut self, c: &ClassStats) {
        self.u64(c.queries);
        self.f64(c.seconds);
        self.f64(c.p50_micros);
        self.f64(c.p99_micros);
        self.f64(c.p999_micros);
    }
    fn trace_ctx(&mut self, t: &Option<TraceContext>) {
        match t {
            Some(ctx) => {
                self.u8(1);
                self.u64(ctx.trace_id);
                self.u64(ctx.parent_span);
                self.u8(ctx.sampled as u8);
            }
            None => self.u8(0),
        }
    }
    fn trace(&mut self, t: &Trace) {
        self.u64(t.trace_id);
        self.u8(t.keep.as_u8());
        self.u64(t.duration_nanos);
        self.u64(t.dropped_spans);
        self.u32(t.spans.len() as u32);
        for s in &t.spans {
            self.u64(s.id);
            self.u64(s.parent);
            self.string(&s.name);
            self.u64(s.start_nanos);
            self.u64(s.end_nanos);
        }
    }
}

fn encode_query(e: &mut Enc, q: &QueryRequest) {
    match q {
        QueryRequest::RankCommunities { query } => {
            e.u8(0);
            e.words(query);
        }
        QueryRequest::QueryTopics { query } => {
            e.u8(1);
            e.words(query);
        }
        QueryRequest::TopWords { topic, k } => {
            e.u8(2);
            e.u64(*topic as u64);
            e.u64(*k as u64);
        }
        QueryRequest::CommunityTopics { community, k } => {
            e.u8(3);
            e.u64(*community as u64);
            e.u64(*k as u64);
        }
        QueryRequest::PairTopics { from, to, k } => {
            e.u8(4);
            e.u64(*from as u64);
            e.u64(*to as u64);
            e.u64(*k as u64);
        }
        QueryRequest::UserProfile { user } => {
            e.u8(5);
            e.u32(user.0);
        }
        QueryRequest::FriendshipScore { u, v } => {
            e.u8(6);
            e.u32(u.0);
            e.u32(v.0);
        }
        QueryRequest::DiffusionScore { u, v, words, at } => {
            e.u8(7);
            e.u32(u.0);
            e.u32(v.0);
            e.words(words);
            e.u32(*at);
        }
        QueryRequest::FoldIn { item, seed } => {
            e.u8(8);
            e.u32(item.docs.len() as u32);
            for doc in &item.docs {
                e.words(doc);
            }
            e.users(&item.friends);
            e.u64(*seed);
        }
    }
}

fn encode_response_payload(e: &mut Enc, r: &QueryResponse) {
    match r {
        QueryResponse::Ranking(pairs) => {
            e.u8(0);
            e.u32(pairs.len() as u32);
            for &(id, score) in pairs {
                e.u64(id as u64);
                e.f64(score);
            }
        }
        QueryResponse::Profile {
            membership,
            dominant,
        } => {
            e.u8(1);
            e.f64s(membership);
            e.u64(*dominant as u64);
        }
        QueryResponse::Score(s) => {
            e.u8(2);
            e.f64(*s);
        }
        QueryResponse::FoldedIn(p) => {
            e.u8(3);
            e.f64s(&p.membership);
            e.f64s(&p.topics);
            e.u32(p.doc_topics.len() as u32);
            for row in &p.doc_topics {
                e.f64s(row);
            }
        }
        QueryResponse::Error(msg) => {
            e.u8(4);
            e.string(msg);
        }
        QueryResponse::Overloaded { retry_after_ms } => {
            e.u8(5);
            e.u64(*retry_after_ms);
        }
    }
}

/// Most documents a fold-in answer over `c_n` communities and `z_n`
/// topics can carry in one response frame. It counts the bytes that
/// [`encode_response`] writes for a traced [`ResponseFrame::Response`]
/// holding a [`QueryResponse::FoldedIn`]: the trace field (flag and
/// id), the variant tag, the membership and topic rows (each a `u32`
/// length and its `f64`s), the row count, and one `z_n`-wide row per
/// document. A larger answer would be swapped for a frame-limit error
/// after its chain had run, so the runtime refuses such items first.
pub(crate) fn max_fold_in_docs(c_n: usize, z_n: usize) -> usize {
    let fixed = (1 + 8) + 1 + (4 + 8 * c_n) + (4 + 8 * z_n) + 4;
    let per_doc = 4 + 8 * z_n;
    (MAX_FRAME_PAYLOAD as usize).saturating_sub(fixed) / per_doc
}

fn encode_diagnostics(e: &mut Enc, d: &ServeDiagnostics) {
    e.u64(d.workers as u64);
    e.u64(d.batches);
    e.u64(d.generation);
    e.u64(d.queue_high_water);
    e.u64(d.shed);
    e.u64(d.deadline_exceeded);
    e.u64(d.cache.hits);
    e.u64(d.cache.misses);
    e.u64(d.cache.evictions);
    e.u64(d.cache.entries);
    e.u64(d.net.connections);
    e.u64(d.net.frames_in);
    e.u64(d.net.frames_out);
    e.class(&d.ranking);
    e.class(&d.top_words);
    e.class(&d.profile);
    e.class(&d.fold_in);
    e.class(&d.link_score);
}

fn frame_versioned(version: u8, tag: u8, payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(version);
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Serialize a request frame (header + payload) at [`WIRE_VERSION`].
pub fn encode_request(req: &RequestFrame) -> Vec<u8> {
    encode_request_versioned(req, WIRE_VERSION)
}

/// Serialize a request frame at an explicit protocol version (within
/// [`MIN_WIRE_VERSION`]..=[`WIRE_VERSION`]) — how the interop tests
/// speak like a stale v3 client. A v3 frame simply omits the trace
/// field; the (v4-only) `Traces` admin frame cannot be expressed at
/// v3 and panics, as does an out-of-range version (programmer error,
/// not wire input).
pub fn encode_request_versioned(req: &RequestFrame, version: u8) -> Vec<u8> {
    assert!(
        (MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version),
        "cannot encode wire version {version} (this build speaks {MIN_WIRE_VERSION}..={WIRE_VERSION})"
    );
    let mut e = Enc(Vec::new());
    let tag = match req {
        RequestFrame::Query {
            request,
            deadline_ms,
            trace,
        } => {
            // Deadline budget first, so the server can anchor it
            // before touching the (arbitrarily large) query payload.
            match deadline_ms {
                Some(ms) => {
                    e.u8(1);
                    e.u32(*ms);
                }
                None => e.u8(0),
            }
            // Trace context second (v4+): still ahead of the query
            // payload so the edge can adopt the trace before the
            // decode span's bulk work.
            if version >= 4 {
                e.trace_ctx(trace);
            }
            encode_query(&mut e, request);
            TAG_QUERY
        }
        RequestFrame::Reload { path } => {
            e.string(path);
            TAG_RELOAD
        }
        RequestFrame::Stats => TAG_STATS,
        RequestFrame::Shutdown => TAG_SHUTDOWN,
        RequestFrame::Metrics => TAG_METRICS,
        RequestFrame::Health => TAG_HEALTH,
        RequestFrame::Traces => {
            assert!(version >= 4, "the Traces admin frame requires wire v4");
            TAG_TRACES
        }
    };
    frame_versioned(version, tag, e.0)
}

/// Serialize a response frame (header + payload) at [`WIRE_VERSION`].
/// A payload that would exceed [`MAX_FRAME_PAYLOAD`] (possible for
/// pathological fold-in responses: the request limit does not bound
/// the response size) is replaced by an in-band
/// [`ResponseFrame::Error`] — the stream stays framed and the peer
/// gets a typed failure instead of a frame its own reader must reject
/// (or, past `u32`, a silently corrupt length prefix).
pub fn encode_response(resp: &ResponseFrame) -> Vec<u8> {
    encode_response_versioned(resp, WIRE_VERSION)
}

/// Serialize a response frame at an explicit protocol version — the
/// server answers each connection in the version its peer spoke, so a
/// stale v3 client receives v3 frames (trace mirror omitted). Panics
/// on an out-of-range version or a v4-only `Traces` reply forced to
/// v3 (both programmer errors: a v3 peer cannot have sent the
/// `Traces` request).
pub fn encode_response_versioned(resp: &ResponseFrame, version: u8) -> Vec<u8> {
    assert!(
        (MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version),
        "cannot encode wire version {version} (this build speaks {MIN_WIRE_VERSION}..={WIRE_VERSION})"
    );
    let mut e = Enc(Vec::new());
    let tag = match resp {
        ResponseFrame::Response { response, trace_id } => {
            if version >= 4 {
                match trace_id {
                    Some(id) => {
                        e.u8(1);
                        e.u64(*id);
                    }
                    None => e.u8(0),
                }
            }
            encode_response_payload(&mut e, response);
            TAG_RESPONSE
        }
        ResponseFrame::Reloaded { generation } => {
            e.u64(*generation);
            TAG_RELOADED
        }
        ResponseFrame::Stats(d) => {
            encode_diagnostics(&mut e, d);
            TAG_STATS_REPLY
        }
        ResponseFrame::ShuttingDown => TAG_SHUTTING_DOWN,
        ResponseFrame::Metrics(text) => {
            e.string(text);
            TAG_METRICS_REPLY
        }
        ResponseFrame::Health(h) => {
            e.u8(h.ready as u8);
            e.u8(h.live as u8);
            e.u8(match h.state {
                HealthState::Ok => 0,
                HealthState::Degraded => 1,
            });
            e.u64(h.generation);
            e.f64(h.uptime_seconds);
            TAG_HEALTH_REPLY
        }
        ResponseFrame::Traces(traces) => {
            assert!(version >= 4, "the Traces reply requires wire v4");
            e.u32(traces.len() as u32);
            for t in traces {
                e.trace(t);
            }
            TAG_TRACES_REPLY
        }
        ResponseFrame::Error(msg) => {
            e.string(msg);
            TAG_ERROR
        }
    };
    if e.0.len() > MAX_FRAME_PAYLOAD as usize {
        let mut err = Enc(Vec::new());
        err.string(&format!(
            "response of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte frame limit",
            e.0.len()
        ));
        return frame_versioned(version, TAG_ERROR, err.0);
    }
    frame_versioned(version, tag, e.0)
}

/// Write one request frame. Refuses (without writing) a request whose
/// payload exceeds [`MAX_FRAME_PAYLOAD`] — the server would reject the
/// frame from its header anyway, and past `u32` the length prefix
/// would silently wrap and desynchronize the stream.
pub fn write_request<W: Write>(w: &mut W, req: &RequestFrame) -> std::io::Result<()> {
    let bytes = encode_request(req);
    if bytes.len() - FRAME_HEADER_LEN > MAX_FRAME_PAYLOAD as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "request payload of {} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte frame limit",
                bytes.len() - FRAME_HEADER_LEN
            ),
        ));
    }
    w.write_all(&bytes)
}

/// Write one response frame at [`WIRE_VERSION`].
pub fn write_response<W: Write>(w: &mut W, resp: &ResponseFrame) -> std::io::Result<()> {
    w.write_all(&encode_response(resp))
}

/// Write one response frame at an explicit peer version (see
/// [`encode_response_versioned`]).
pub fn write_response_versioned<W: Write>(
    w: &mut W,
    resp: &ResponseFrame,
    version: u8,
) -> std::io::Result<()> {
    w.write_all(&encode_response_versioned(resp, version))
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// Strict payload cursor: every read is bounds-checked, and the frame
/// decoders assert full consumption before returning.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed(format!(
                "payload truncated: wanted {n} more bytes, had {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length prefix for elements of at least `elem_size` bytes,
    /// refusing counts the remaining payload cannot possibly hold — so
    /// a corrupt count cannot drive a huge `Vec` pre-allocation.
    fn count(&mut self, elem_size: usize, what: &str) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size) > self.remaining() {
            return Err(WireError::Malformed(format!(
                "{what} count {n} exceeds the remaining {} payload bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn words(&mut self) -> Result<Vec<WordId>, WireError> {
        let n = self.count(4, "word list")?;
        (0..n).map(|_| Ok(WordId(self.u32()?))).collect()
    }

    fn users(&mut self) -> Result<Vec<UserId>, WireError> {
        let n = self.count(4, "user list")?;
        (0..n).map(|_| Ok(UserId(self.u32()?))).collect()
    }

    fn f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.count(8, "float row")?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.count(1, "string")?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| WireError::Malformed("string is not valid UTF-8".into()))
    }

    /// A strict boolean byte: anything but 0/1 is malformed (so a
    /// desynchronized stream fails loudly instead of decoding as
    /// `true`).
    fn bool(&mut self, what: &str) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(WireError::Malformed(format!("{what} byte {v} is not 0/1"))),
        }
    }

    fn usize(&mut self, what: &str) -> Result<usize, WireError> {
        usize::try_from(self.u64()?)
            .map_err(|_| WireError::Malformed(format!("{what} does not fit in usize")))
    }

    fn class(&mut self) -> Result<ClassStats, WireError> {
        Ok(ClassStats {
            queries: self.u64()?,
            seconds: self.f64()?,
            p50_micros: self.f64()?,
            p99_micros: self.f64()?,
            p999_micros: self.f64()?,
        })
    }

    fn trace_ctx(&mut self) -> Result<Option<TraceContext>, WireError> {
        if !self.bool("trace flag")? {
            return Ok(None);
        }
        Ok(Some(TraceContext {
            trace_id: self.u64()?,
            parent_span: self.u64()?,
            sampled: self.bool("trace sampled flag")?,
        }))
    }

    fn trace(&mut self) -> Result<Trace, WireError> {
        let trace_id = self.u64()?;
        let keep_byte = self.u8()?;
        let keep = KeepReason::from_u8(keep_byte)
            .ok_or_else(|| WireError::Malformed(format!("unknown keep reason {keep_byte}")))?;
        let duration_nanos = self.u64()?;
        let dropped_spans = self.u64()?;
        // Each span is at least 36 bytes (id + parent + name length +
        // start + end), bounding the pre-allocation.
        let n = self.count(36, "span list")?;
        let spans = (0..n)
            .map(|_| {
                Ok(SpanRecord {
                    id: self.u64()?,
                    parent: self.u64()?,
                    name: std::borrow::Cow::Owned(self.string()?),
                    start_nanos: self.u64()?,
                    end_nanos: self.u64()?,
                })
            })
            .collect::<Result<Vec<_>, WireError>>()?;
        Ok(Trace {
            trace_id,
            keep,
            duration_nanos,
            dropped_spans,
            spans,
        })
    }

    fn finish(self, what: &str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{what} payload has {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn decode_query(d: &mut Dec<'_>) -> Result<QueryRequest, WireError> {
    Ok(match d.u8()? {
        0 => QueryRequest::RankCommunities { query: d.words()? },
        1 => QueryRequest::QueryTopics { query: d.words()? },
        2 => QueryRequest::TopWords {
            topic: d.usize("topic")?,
            k: d.usize("k")?,
        },
        3 => QueryRequest::CommunityTopics {
            community: d.usize("community")?,
            k: d.usize("k")?,
        },
        4 => QueryRequest::PairTopics {
            from: d.usize("from")?,
            to: d.usize("to")?,
            k: d.usize("k")?,
        },
        5 => QueryRequest::UserProfile {
            user: UserId(d.u32()?),
        },
        6 => QueryRequest::FriendshipScore {
            u: UserId(d.u32()?),
            v: UserId(d.u32()?),
        },
        7 => QueryRequest::DiffusionScore {
            u: UserId(d.u32()?),
            v: UserId(d.u32()?),
            words: d.words()?,
            at: d.u32()?,
        },
        8 => {
            let n_docs = d.count(4, "document list")?;
            let docs = (0..n_docs)
                .map(|_| d.words())
                .collect::<Result<Vec<_>, _>>()?;
            QueryRequest::FoldIn {
                item: FoldInItem {
                    docs,
                    friends: d.users()?,
                },
                seed: d.u64()?,
            }
        }
        v => return Err(WireError::Malformed(format!("unknown query variant {v}"))),
    })
}

fn decode_response_payload(d: &mut Dec<'_>) -> Result<QueryResponse, WireError> {
    Ok(match d.u8()? {
        0 => {
            let n = d.count(16, "ranking")?;
            let pairs = (0..n)
                .map(|_| Ok((d.usize("ranked id")?, d.f64()?)))
                .collect::<Result<Vec<_>, WireError>>()?;
            QueryResponse::Ranking(pairs)
        }
        1 => QueryResponse::Profile {
            membership: d.f64s()?,
            dominant: d.usize("dominant community")?,
        },
        2 => QueryResponse::Score(d.f64()?),
        3 => {
            let membership = d.f64s()?;
            let topics = d.f64s()?;
            let n_docs = d.count(4, "doc-topic rows")?;
            let doc_topics = (0..n_docs)
                .map(|_| d.f64s())
                .collect::<Result<Vec<_>, _>>()?;
            QueryResponse::FoldedIn(Box::new(FoldedProfile {
                membership,
                topics,
                doc_topics,
            }))
        }
        4 => QueryResponse::Error(d.string()?),
        5 => QueryResponse::Overloaded {
            retry_after_ms: d.u64()?,
        },
        v => {
            return Err(WireError::Malformed(format!(
                "unknown response variant {v}"
            )))
        }
    })
}

fn decode_diagnostics(d: &mut Dec<'_>) -> Result<ServeDiagnostics, WireError> {
    Ok(ServeDiagnostics {
        workers: d.usize("workers")?,
        batches: d.u64()?,
        generation: d.u64()?,
        queue_high_water: d.u64()?,
        shed: d.u64()?,
        deadline_exceeded: d.u64()?,
        cache: CacheStats {
            hits: d.u64()?,
            misses: d.u64()?,
            evictions: d.u64()?,
            entries: d.u64()?,
        },
        net: NetStats {
            connections: d.u64()?,
            frames_in: d.u64()?,
            frames_out: d.u64()?,
        },
        ranking: d.class()?,
        top_words: d.class()?,
        profile: d.class()?,
        fold_in: d.class()?,
        link_score: d.class()?,
    })
}

/// Read one frame header + payload, returning the frame's version
/// alongside its tag. `Ok(None)` = clean end-of-stream (EOF exactly
/// at a frame boundary); EOF anywhere inside a frame is
/// [`WireError::Malformed`]. The payload is allocated only after the
/// length passed the [`MAX_FRAME_PAYLOAD`] check. Versions outside
/// [`MIN_WIRE_VERSION`]..=[`WIRE_VERSION`] are refused by name.
fn read_frame<R: Read>(r: &mut R) -> Result<Option<(u8, u8, Vec<u8>)>, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // First byte by hand so a clean EOF is distinguishable from a
    // truncated header.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // A timeout before the first byte is an *idle* peer: the
            // stream is still at a frame boundary and perfectly
            // usable, so the caller gets the recoverable variant.
            Err(e) if is_timeout(&e) => return Err(WireError::Timeout { mid_frame: false }),
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    header[0] = first[0];
    read_exact_frame(r, &mut header[1..], "frame header")?;
    if header[..2] != WIRE_MAGIC {
        return Err(WireError::Malformed(format!(
            "bad magic {:#04x}{:02x} (not a CPD wire peer?)",
            header[0], header[1]
        )));
    }
    let version = header[2];
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(WireError::Malformed(format!(
            "unsupported wire version {version} (this build speaks {MIN_WIRE_VERSION}..={WIRE_VERSION})"
        )));
    }
    let tag = header[3];
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_frame(r, &mut payload, "frame payload")?;
    Ok(Some((version, tag, payload)))
}

/// `true` for the two kinds a socket read deadline surfaces as
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// `read_exact` that reports truncation as [`WireError::Malformed`]
/// (mid-frame EOF is a protocol violation, not a transport failure)
/// and a read deadline as the mid-frame [`WireError::Timeout`] — the
/// stream is desynchronized either way, so the connection must close.
fn read_exact_frame<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), WireError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Malformed(format!("{what} truncated"))
        } else if is_timeout(&e) {
            WireError::Timeout { mid_frame: true }
        } else {
            WireError::Io(e)
        }
    })
}

/// Read one request frame (`Ok(None)` = clean end-of-stream),
/// discarding the peer's frame version. Servers that answer in the
/// peer's version use [`read_request_versioned`] instead.
pub fn read_request<R: Read>(r: &mut R) -> Result<Option<RequestFrame>, WireError> {
    Ok(read_request_versioned(r)?.map(|(frame, _)| frame))
}

/// Read one request frame plus the protocol version it was encoded at
/// (`Ok(None)` = clean end-of-stream). A v3 `Query` decodes with
/// `trace: None`; the v4-only `Traces` frame is malformed below v4.
pub fn read_request_versioned<R: Read>(r: &mut R) -> Result<Option<(RequestFrame, u8)>, WireError> {
    let Some((version, tag, payload)) = read_frame(r)? else {
        return Ok(None);
    };
    let mut d = Dec::new(&payload);
    let frame = match tag {
        TAG_QUERY => {
            let deadline_ms = if d.bool("query deadline flag")? {
                Some(d.u32()?)
            } else {
                None
            };
            let trace = if version >= 4 { d.trace_ctx()? } else { None };
            RequestFrame::Query {
                request: decode_query(&mut d)?,
                deadline_ms,
                trace,
            }
        }
        TAG_RELOAD => RequestFrame::Reload { path: d.string()? },
        TAG_STATS => RequestFrame::Stats,
        TAG_SHUTDOWN => RequestFrame::Shutdown,
        TAG_METRICS => RequestFrame::Metrics,
        TAG_HEALTH => RequestFrame::Health,
        TAG_TRACES if version >= 4 => RequestFrame::Traces,
        TAG_TRACES => {
            return Err(WireError::Malformed(format!(
                "the Traces admin frame requires wire v4 (frame spoke v{version})"
            )))
        }
        t => {
            return Err(WireError::Malformed(format!(
                "unknown request frame tag {t:#04x}"
            )))
        }
    };
    d.finish("request")?;
    Ok(Some((frame, version)))
}

/// Read one response frame (`Ok(None)` = clean end-of-stream). A v3
/// `Response` decodes with `trace_id: None`.
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<ResponseFrame>, WireError> {
    let Some((version, tag, payload)) = read_frame(r)? else {
        return Ok(None);
    };
    let mut d = Dec::new(&payload);
    let frame = match tag {
        TAG_RESPONSE => {
            let trace_id = if version >= 4 {
                if d.bool("response trace flag")? {
                    Some(d.u64()?)
                } else {
                    None
                }
            } else {
                None
            };
            ResponseFrame::Response {
                response: decode_response_payload(&mut d)?,
                trace_id,
            }
        }
        TAG_RELOADED => ResponseFrame::Reloaded {
            generation: d.u64()?,
        },
        TAG_STATS_REPLY => ResponseFrame::Stats(Box::new(decode_diagnostics(&mut d)?)),
        TAG_SHUTTING_DOWN => ResponseFrame::ShuttingDown,
        TAG_METRICS_REPLY => ResponseFrame::Metrics(d.string()?),
        TAG_HEALTH_REPLY => {
            let ready = d.bool("health.ready")?;
            let live = d.bool("health.live")?;
            let state = match d.u8()? {
                0 => HealthState::Ok,
                1 => HealthState::Degraded,
                v => {
                    return Err(WireError::Malformed(format!(
                        "unknown health state {v} (0 = Ok, 1 = Degraded)"
                    )))
                }
            };
            ResponseFrame::Health(HealthStatus {
                ready,
                live,
                state,
                generation: d.u64()?,
                uptime_seconds: d.f64()?,
            })
        }
        TAG_TRACES_REPLY if version >= 4 => {
            // A trace is at least 29 payload bytes (id + keep +
            // duration + dropped + span count).
            let n = d.count(29, "trace list")?;
            ResponseFrame::Traces((0..n).map(|_| d.trace()).collect::<Result<Vec<_>, _>>()?)
        }
        TAG_TRACES_REPLY => {
            return Err(WireError::Malformed(format!(
                "the Traces reply requires wire v4 (frame spoke v{version})"
            )))
        }
        TAG_ERROR => ResponseFrame::Error(d.string()?),
        t => {
            return Err(WireError::Malformed(format!(
                "unknown response frame tag {t:#04x}"
            )))
        }
    };
    d.finish("response")?;
    Ok(Some(frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let frames = vec![
            RequestFrame::Query {
                request: QueryRequest::RankCommunities {
                    query: vec![WordId(3), WordId(1)],
                },
                deadline_ms: None,
                trace: None,
            },
            RequestFrame::Query {
                request: QueryRequest::FoldIn {
                    item: FoldInItem {
                        docs: vec![vec![WordId(0)], vec![]],
                        friends: vec![UserId(9)],
                    },
                    seed: u64::MAX,
                },
                deadline_ms: Some(1_500),
                trace: Some(TraceContext {
                    trace_id: 0xDEAD_BEEF,
                    parent_span: 7,
                    sampled: true,
                }),
            },
            RequestFrame::Reload {
                path: "/tmp/model.cpd".into(),
            },
            RequestFrame::Stats,
            RequestFrame::Shutdown,
            RequestFrame::Traces,
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            write_request(&mut bytes, f).unwrap();
        }
        let mut r = &bytes[..];
        for f in &frames {
            let (got, version) = read_request_versioned(&mut r).unwrap().unwrap();
            assert_eq!(&got, f);
            assert_eq!(version, WIRE_VERSION);
        }
        assert!(read_request(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn v3_interop_decodes_traceless_and_replies_traceless() {
        // A stale v3 client's query decodes with `trace: None`…
        let sent = RequestFrame::Query {
            request: QueryRequest::TopWords { topic: 2, k: 5 },
            deadline_ms: Some(250),
            trace: None,
        };
        let bytes = encode_request_versioned(&sent, 3);
        assert_eq!(bytes[2], 3, "header carries the peer's version");
        let (got, version) = read_request_versioned(&mut &bytes[..]).unwrap().unwrap();
        assert_eq!(got, sent);
        assert_eq!(version, 3);

        // …and the v3-encoded reply omits the trace mirror but still
        // decodes on a v4 reader.
        let reply = ResponseFrame::Response {
            response: QueryResponse::Score(0.5),
            trace_id: Some(42),
        };
        let v3 = encode_response_versioned(&reply, 3);
        let v4 = encode_response_versioned(&reply, 4);
        assert!(v3.len() < v4.len(), "v3 frame has no trace mirror");
        match read_response(&mut &v3[..]).unwrap().unwrap() {
            ResponseFrame::Response { trace_id, .. } => assert_eq!(trace_id, None),
            other => panic!("unexpected frame {other:?}"),
        }
        match read_response(&mut &v4[..]).unwrap().unwrap() {
            ResponseFrame::Response { trace_id, .. } => assert_eq!(trace_id, Some(42)),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn traces_reply_round_trips() {
        let trace = Trace {
            trace_id: 0xC0FFEE,
            keep: KeepReason::Slow,
            duration_nanos: 1_234_567,
            dropped_spans: 1,
            spans: vec![SpanRecord {
                id: 1,
                parent: 0,
                name: std::borrow::Cow::Borrowed("request"),
                start_nanos: 0,
                end_nanos: 1_234_567,
            }],
        };
        let bytes = encode_response(&ResponseFrame::Traces(vec![trace.clone()]));
        match read_response(&mut &bytes[..]).unwrap().unwrap() {
            ResponseFrame::Traces(got) => assert_eq!(got, vec![trace]),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    #[test]
    fn out_of_range_versions_are_refused_by_name() {
        for bad in [2u8, WIRE_VERSION + 1] {
            let mut bytes = encode_request(&RequestFrame::Stats);
            bytes[2] = bad;
            let err = read_request(&mut &bytes[..]).unwrap_err();
            assert!(
                matches!(&err, WireError::Malformed(m) if m.contains("unsupported wire version")),
                "{err}"
            );
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_allocation() {
        let mut bytes = vec![WIRE_MAGIC[0], WIRE_MAGIC[1], WIRE_VERSION, TAG_QUERY];
        bytes.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        // No payload follows — if the length were trusted, read would
        // try to allocate and fill 16 MiB + 1.
        let err = read_request(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, WireError::Oversized { len } if len == MAX_FRAME_PAYLOAD + 1));
    }

    #[test]
    fn max_fold_in_docs_is_the_largest_answer_a_response_frame_carries() {
        let answer = |c_n: usize, z_n: usize, d_n: usize| ResponseFrame::Response {
            response: QueryResponse::FoldedIn(Box::new(FoldedProfile {
                membership: vec![0.5; c_n],
                topics: vec![0.25; z_n],
                doc_topics: vec![vec![0.125; z_n]; d_n],
            })),
            trace_id: Some(u64::MAX),
        };
        // The serving shape, and a wide one whose bound is small.
        for (c_n, z_n) in [(50, 50), (2, 1000)] {
            let max = max_fold_in_docs(c_n, z_n);
            let fits = encode_response(&answer(c_n, z_n, max));
            assert_eq!(
                fits[3], TAG_RESPONSE,
                "|C| = {c_n}, |Z| = {z_n}: {max} docs"
            );
            assert!(fits.len() - FRAME_HEADER_LEN <= MAX_FRAME_PAYLOAD as usize);
            let over = encode_response(&answer(c_n, z_n, max + 1));
            assert_eq!(
                over[3],
                TAG_ERROR,
                "|C| = {c_n}, |Z| = {z_n}: {} docs",
                max + 1
            );
        }
        assert_eq!(max_fold_in_docs(50, 50), 41_525);
    }

    #[test]
    fn corrupt_count_cannot_force_huge_allocation() {
        // A word list claiming u32::MAX entries inside a 16-byte
        // payload must fail the remaining-bytes check, not allocate.
        let mut e = Enc(Vec::new());
        e.u8(0); // no deadline
        e.u8(0); // no trace context
        e.u8(0); // RankCommunities
        e.u32(u32::MAX);
        e.u32(0);
        e.u32(0);
        let bytes = frame_versioned(WIRE_VERSION, TAG_QUERY, e.0);
        let err = read_request(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, WireError::Malformed(m) if m.contains("count")));
    }
}
