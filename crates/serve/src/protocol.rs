//! The wire protocol: length-prefixed JSON frames and the request/response
//! vocabulary.
//!
//! Every message is one frame: a 4-byte big-endian length followed by that
//! many bytes of UTF-8 JSON.  Frames above [`MAX_FRAME_LEN`] are rejected
//! *before* any allocation, truncated frames are I/O errors, and malformed
//! JSON is reported with the parser's byte offset — the server never
//! panics on untrusted input.  A frame goes out in one write: header and
//! body are built in one buffer.
//!
//! The codec is typed and generated from the `wire!` tables below, one per
//! message type.  The writer appends each message's JSON straight to the
//! frame buffer; the reader decodes a frame's text straight into the
//! message through [`serde::json::Reader`], with no document tree in
//! between.  Decoding accepts any JSON object that carries the message:
//! keys in any order and with any whitespace, unknown keys skipped, an
//! optional field `null` or absent, the first of duplicate keys winning,
//! and the tag anywhere among the keys (every frame this code writes puts
//! the tag first).  [`DecodeError`] keeps the two fault classes apart: text
//! that is not JSON is [`DecodeError::Malformed`] wherever the fault sits,
//! even after a field fault; JSON that is not a valid message is
//! [`DecodeError::Invalid`] and names the field.  Fields that carry whole
//! documents (networks, provenance, traces, the repair config) read and
//! write a [`Value`] subtree.
//!
//! Floating-point payloads (model weights, eval inputs/outputs) use the
//! JSON writer's shortest-round-trip formatting, so a value crossing the
//! wire arrives bit-identical — the end-to-end tests assert served results
//! equal direct library calls exactly.

use prdnn_core::{OutputPolytope, PointSpec, RepairConfig};
use prdnn_linalg::Matrix;
use serde::json::{self, ParseError, Reader, Value};
use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::time::Instant;

pub use crate::metrics::ServerStats;

/// Upper bound on a frame's payload length (16 MiB): far above any
/// legitimate request, far below an allocation-of-death.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Errors surfaced while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly before a frame started.
    Closed,
    /// The 4-byte header announced more than [`MAX_FRAME_LEN`] bytes.
    Oversized(usize),
    /// The header announced an empty frame.
    Empty,
    /// A socket read/write timeout expired (the peer stalled mid-frame);
    /// distinct from [`FrameError::Io`] so both ends can classify a
    /// slowloris-style stall separately from a broken stream.
    TimedOut,
    /// The stream ended or failed mid-frame.
    Io(io::Error),
    /// The payload was not valid UTF-8 JSON.
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Oversized(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte cap"
                )
            }
            FrameError::Empty => write!(f, "empty frame"),
            FrameError::TimedOut => write!(f, "socket timeout mid-frame"),
            FrameError::Io(e) => write!(f, "i/o error mid-frame: {e}"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Whether an I/O error is a socket read/write timeout.  Unix reports an
/// expired `set_read_timeout` as `WouldBlock`; Windows as `TimedOut`.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn io_frame_error(e: io::Error) -> FrameError {
    if is_timeout(&e) {
        FrameError::TimedOut
    } else {
        FrameError::Io(e)
    }
}

/// Sends one frame holding the JSON that `encode` appends, header and body
/// in one write.
///
/// # Errors
///
/// I/O errors from the underlying writer; `InvalidData` if the body exceeds
/// [`MAX_FRAME_LEN`] (nothing is written in that case).
fn send_frame(w: &mut impl Write, encode: impl FnOnce(&mut String)) -> io::Result<()> {
    // Four placeholder bytes for the header (NUL is valid UTF-8).
    let mut frame = String::with_capacity(256);
    frame.push_str("\0\0\0\0");
    encode(&mut frame);
    let len = frame.len() - 4;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the cap"),
        ));
    }
    let mut bytes = frame.into_bytes();
    bytes[..4].copy_from_slice(&(len as u32).to_be_bytes());
    w.write_all(&bytes)?;
    w.flush()
}

/// Writes one length-prefixed frame holding a JSON document.  The typed
/// messages send themselves (`Request::send`, `Response::send`); this is
/// for tests that craft raw frames.
///
/// # Errors
///
/// As for the typed path: I/O errors, or `InvalidData` (nothing written)
/// if the document exceeds [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, value: &Value) -> io::Result<()> {
    send_frame(w, |out| value.write_json(out))
}

/// Reads one length-prefixed frame and returns its text, with the instant
/// its first bytes arrived.  The instant is captured after the first
/// successful header read, so idle time between requests is excluded while
/// a peer that trickles a frame in (or a proxy that delays mid-frame) *is*
/// charged — this is the request arrival time the server's telemetry
/// measures from.
///
/// # Errors
///
/// See [`FrameError`]; a clean close before the header is
/// [`FrameError::Closed`], a close mid-header or mid-body is an I/O error
/// (truncated frame), and a body that is not UTF-8 is
/// [`FrameError::Malformed`].  The length is checked against the cap
/// before the body is allocated.
pub fn read_frame_text(r: &mut impl Read) -> Result<(String, Instant), FrameError> {
    let mut header = [0u8; 4];
    // Distinguish "no frame at all" (clean close) from a truncated header.
    let arrival = match r.read(&mut header) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(n) => {
            let arrival = Instant::now();
            r.read_exact(&mut header[n..]).map_err(io_frame_error)?;
            arrival
        }
        Err(e) => return Err(io_frame_error(e)),
    };
    let len = u32::from_be_bytes(header) as usize;
    if len == 0 {
        return Err(FrameError::Empty);
    }
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(io_frame_error)?;
    let text = String::from_utf8(body)
        .map_err(|e| FrameError::Malformed(format!("invalid UTF-8: {e}")))?;
    Ok((text, arrival))
}

/// Reads one length-prefixed frame as a JSON document, for tests that
/// inspect raw frames.
///
/// # Errors
///
/// See [`read_frame_text`]; text that is not JSON is
/// [`FrameError::Malformed`].
pub fn read_frame(r: &mut impl Read) -> Result<Value, FrameError> {
    let (text, _) = read_frame_text(r)?;
    Value::parse(&text).map_err(|e| FrameError::Malformed(e.to_string()))
}

/// A `request_id` the protocol honours: a positive integer up to 9e15
/// (far below 2^53, so it round-trips as a JSON number).
fn valid_request_id(x: f64) -> Option<u64> {
    (x >= 1.0 && x.fract() == 0.0 && x <= 9.0e15).then_some(x as u64)
}

/// Reads a `request_id` value: its id if valid, `None` for any other value.
fn read_request_id(r: &mut Reader<'_>) -> Result<Option<u64>, ParseError> {
    match r.f64()? {
        Some(x) => Ok(valid_request_id(x)),
        None => r.skip_value().map(|()| None),
    }
}

/// The optional `request_id` correlation field of a request or response
/// document.  Clients may set it themselves; the server assigns one
/// otherwise and echoes it in every response as its last key.  The typed
/// codec carries it beside the message (`encode`/`decode`); this reads it
/// from a raw document.
pub fn request_id_of(v: &Value) -> Option<u64> {
    v.get("request_id")?.as_f64().and_then(valid_request_id)
}

/// Stamps `request_id` onto a raw request or response document.
pub fn embed_request_id(v: &mut Value, request_id: u64) {
    if let Value::Obj(fields) = v {
        fields.retain(|(k, _)| k != "request_id");
        fields.push(("request_id".to_owned(), Value::Num(request_id as f64)));
    }
}

/// A reference to a stored model: a name plus an optional pinned version
/// (`None` = latest).
///
/// The textual forms are `"name"`, `"name@latest"`, and `"name@vN"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRef {
    /// The model's name in the store.
    pub name: String,
    /// Pinned version, or `None` for latest.
    pub version: Option<u32>,
}

impl ModelRef {
    /// A reference to the latest version of `name`.
    pub fn latest(name: impl Into<String>) -> Self {
        ModelRef {
            name: name.into(),
            version: None,
        }
    }

    /// A reference to a specific version of `name`.
    pub fn version(name: impl Into<String>, version: u32) -> Self {
        ModelRef {
            name: name.into(),
            version: Some(version),
        }
    }

    /// Parses `"name"`, `"name@latest"`, or `"name@vN"`.
    ///
    /// # Errors
    ///
    /// Returns a message for empty names and malformed version suffixes.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (name, suffix) = match s.split_once('@') {
            None => (s, None),
            Some((name, suffix)) => (name, Some(suffix)),
        };
        if name.is_empty() {
            return Err(format!("model reference {s:?}: empty model name"));
        }
        let version = match suffix {
            None | Some("latest") => None,
            Some(v) => match v.strip_prefix('v').and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => Some(n),
                _ => {
                    return Err(format!(
                        "model reference {s:?}: expected \"@latest\" or \"@vN\""
                    ))
                }
            },
        };
        Ok(ModelRef {
            name: name.to_owned(),
            version,
        })
    }
}

impl std::fmt::Display for ModelRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.version {
            None => write!(f, "{}@latest", self.name),
            Some(v) => write!(f, "{}@v{}", self.name, v),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Load a model built by a `prdnn-datasets` generator spec and publish
    /// it as version 1 of `name`.
    LoadGenerator {
        /// Store name for the new model.
        name: String,
        /// Generator spec (see `prdnn_datasets::registry`).
        generator: String,
    },
    /// Load a model from its serialised JSON form (see `prdnn_nn::io`).
    LoadNetwork {
        /// Store name for the new model.
        name: String,
        /// The network document.
        network: Value,
    },
    /// Evaluate a model version on a batch of inputs.
    Eval {
        /// Which model version.
        model: ModelRef,
        /// The input points.
        inputs: Vec<Vec<f64>>,
        /// Per-request deadline override in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Compute the linear regions of a model version restricted to input
    /// polytopes (segments or planar polygons given by vertices).
    LinRegions {
        /// Which model version.
        model: ModelRef,
        /// One vertex list per polytope.
        polytopes: Vec<Vec<Vec<f64>>>,
        /// Per-request deadline override in milliseconds.
        deadline_ms: Option<u64>,
    },
    /// Enqueue a provable point repair; the reply carries a job id to poll.
    Repair {
        /// Which model version to repair (the new version's parent).
        model: ModelRef,
        /// The layer to repair.
        layer: usize,
        /// The pointwise specification to enforce.
        spec: PointSpec,
        /// Repair configuration (thread count is server-controlled).
        config: RepairConfig,
    },
    /// Poll a repair job.
    JobStatus {
        /// The id returned by [`Response::JobQueued`].
        job: u64,
    },
    /// Fetch a model version's full serialised form (both DDNN channels
    /// plus provenance) — the durability e2e uses this to check recovered
    /// weights bit-for-bit against what was acknowledged.
    GetNetwork {
        /// Which model version.
        model: ModelRef,
    },
    /// List stored models and their latest versions.
    ListModels,
    /// List every version of one model with provenance.
    ListVersions {
        /// The model name.
        name: String,
    },
    /// Read the server's request/batch counters.
    Stats,
    /// Read every counter as Prometheus text exposition format (the same
    /// numbers as [`Request::Stats`], rendered for scrapers).
    Metrics,
    /// Read the retained slow-request span chains (see the `telemetry`
    /// module): requests whose server residence crossed `--slow-ms`.
    Trace,
    /// Begin graceful shutdown: stop accepting, drain queues, exit.
    Shutdown,
}

/// One linear region on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionWire {
    /// The region's vertices in input space.
    pub vertices: Vec<Vec<f64>>,
    /// A point in the region's relative interior.
    pub interior: Vec<f64>,
}

/// One model version's provenance on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionInfo {
    /// The version number (1 = originally loaded model).
    pub version: u32,
    /// Where the version came from (generator spec, file, or parent repair).
    pub source: String,
    /// Content hash of the repair spec, as `0x`-prefixed hex (repairs only).
    pub spec_hash: Option<String>,
    /// ℓ1 norm of the repair delta (repairs only).
    pub delta_l1: Option<f64>,
    /// ℓ∞ norm of the repair delta (repairs only).
    pub delta_linf: Option<f64>,
    /// The repaired layer (repairs only).
    pub layer: Option<usize>,
}

/// A repair job's state on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting in the FIFO.
    Queued,
    /// A worker is running the repair.
    Running,
    /// The repair succeeded and published `version`.
    Done {
        /// The model the new version belongs to.
        model: String,
        /// The published version number.
        version: u32,
        /// ℓ1 norm of the applied delta.
        delta_l1: f64,
        /// ℓ∞ norm of the applied delta.
        delta_linf: f64,
        /// Simplex pivots the repair's LP solve performed.
        lp_pivots: u64,
        /// Basis refactorisations the repair's LP solve performed.
        lp_refactorizations: u64,
    },
    /// The repair failed (infeasible spec, iteration limit, bad layer, ...).
    Failed {
        /// Human-readable failure reason.
        message: String,
    },
}

/// Machine-readable error categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The named model is not in the store.
    UnknownModel,
    /// The model exists but the pinned version does not.
    UnknownVersion,
    /// The named job id was never issued.
    UnknownJob,
    /// The request was malformed or semantically invalid.
    BadRequest,
    /// A bounded queue was full; retry later.
    Overloaded,
    /// The per-request deadline expired before the batch ran.
    DeadlineExceeded,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// The durable backend refused the operation (failed fsync, disk
    /// full); nothing was published — safe to retry once storage heals.
    Unavailable,
    /// Unexpected server-side failure.
    Internal,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// A model was loaded and published.
    Loaded {
        /// The store name.
        name: String,
        /// The published version (always 1 for loads).
        version: u32,
    },
    /// Batched evaluation results, in request order.
    Outputs(Vec<Vec<f64>>),
    /// Linear regions, one list per requested polytope.
    Regions(Vec<Vec<RegionWire>>),
    /// A repair job was accepted.
    JobQueued {
        /// Id to poll with [`Request::JobStatus`].
        job: u64,
    },
    /// Reply to [`Request::JobStatus`].
    Job(JobState),
    /// Reply to [`Request::GetNetwork`].
    Network {
        /// The model name.
        name: String,
        /// The resolved version number.
        version: u32,
        /// Where the version came from.
        source: String,
        /// The activation channel (`prdnn_nn::io` document).
        activation: Value,
        /// The value channel (`prdnn_nn::io` document).
        value: Value,
        /// The repair provenance document (`None` for loaded versions).
        provenance: Option<Value>,
    },
    /// Reply to [`Request::ListModels`]: `(name, latest_version)` pairs.
    Models(Vec<(String, u32)>),
    /// Reply to [`Request::ListVersions`].
    Versions(Vec<VersionInfo>),
    /// Reply to [`Request::Stats`].
    Stats(ServerStats),
    /// Reply to [`Request::Metrics`]: Prometheus text exposition.
    Metrics {
        /// The rendered metrics document (see [`crate::metrics::exposition`]).
        text: String,
    },
    /// Reply to [`Request::Trace`]: recent slow-request span chains.
    Trace {
        /// An array of slow-request traces, oldest first.  Each entry is
        /// an object `{request_id, kind, total_ms, spans}` where `spans`
        /// is an array of `{stage, start_ms, duration_ms, outcome}`
        /// objects ordered by start time (`start_ms` is measured from
        /// server start).
        slow: Value,
    },
    /// Reply to [`Request::Shutdown`].
    ShuttingDown,
    /// The request failed.
    Error {
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
        /// For shed requests (`overloaded`): how long the server suggests
        /// waiting before a retry.  Advisory, not a promise.
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// An error response with no retry hint.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Error {
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// An error response carrying a retry-after hint (shed requests).
    pub fn error_retry_after(
        kind: ErrorKind,
        message: impl Into<String>,
        retry_after_ms: u64,
    ) -> Response {
        Response::Error {
            kind,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }
}

// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

/// Why a frame's text did not decode into a message.
#[derive(Debug, PartialEq)]
pub enum DecodeError {
    /// The text is not JSON.
    Malformed(ParseError),
    /// The text is JSON but not a valid message: a field is missing or
    /// mistyped.
    Invalid {
        /// What is wrong, naming the field.
        message: String,
        /// The document's `request_id`, if it carries a valid one.
        request_id: Option<u64>,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Malformed(e) => write!(f, "{e}"),
            DecodeError::Invalid { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A decoding fault before it is classed: the reader stops at the first.
pub(crate) enum Fault {
    /// The text is not JSON.
    Syntax(ParseError),
    /// JSON of the wrong shape.
    Field(String),
}

impl From<ParseError> for Fault {
    fn from(e: ParseError) -> Self {
        Fault::Syntax(e)
    }
}

impl Fault {
    fn field(message: impl Into<String>) -> Fault {
        Fault::Field(message.into())
    }

    /// Prefixes a field fault's message with `context`.
    fn within(self, context: impl std::fmt::Display) -> Fault {
        match self {
            Fault::Field(message) => Fault::Field(format!("{context}: {message}")),
            syntax => syntax,
        }
    }
}

/// Where a type sends the keys of its object that it does not own: the
/// enclosing message's handler, which must consume each key's value.
pub(crate) type Other<'o, 'a> = dyn FnMut(&str, &mut Reader<'a>) -> Result<(), Fault> + 'o;

/// A value carried in one named field of a wire message.
pub(crate) trait Field: Sized {
    /// Appends the field's JSON value.
    fn write(&self, out: &mut String);
    /// Reads a present field.
    fn read(r: &mut Reader<'_>) -> Result<Self, Fault>;
    /// Decodes an absent field: an error unless the field is optional.
    fn absent() -> Result<Self, String> {
        Err("missing".to_owned())
    }
}

/// A value whose fields sit directly in the enclosing JSON object: the
/// tagged messages below and the `stats` counters.
pub(crate) trait Fields: Sized {
    /// Appends the `"key":value` pairs, comma-separated, in wire order.
    fn write_fields(&self, out: &mut String);
    /// Reads the fields of the object `r` has just opened; each key that is
    /// not one of them goes to `other`.
    fn read_fields<'a>(r: &mut Reader<'a>, other: &mut Other<'_, 'a>) -> Result<Self, Fault>;
}

/// Appends `"key":` for a key that needs no escaping.
pub(crate) fn write_key(out: &mut String, key: &str) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

/// Hands every key of the open object to `field`, which consumes its
/// value.
pub(crate) fn read_keys<'a>(
    r: &mut Reader<'a>,
    mut field: impl FnMut(&str, &mut Reader<'a>) -> Result<(), Fault>,
) -> Result<(), Fault> {
    while let Some(key) = r.next_key()? {
        field(&key, r)?;
    }
    Ok(())
}

/// Reads an object, handing each key to `field` (see [`read_keys`]).
fn read_object<'a>(
    r: &mut Reader<'a>,
    field: impl FnMut(&str, &mut Reader<'a>) -> Result<(), Fault>,
) -> Result<(), Fault> {
    if !r.begin_object()? {
        return Err(Fault::field("expected an object"));
    }
    read_keys(r, field)
}

/// Reads field `key` into `slot`; a repeated key is skipped, so the first
/// one wins.
pub(crate) fn slot<T: Field>(
    slot: &mut Option<T>,
    key: &str,
    r: &mut Reader<'_>,
) -> Result<(), Fault> {
    if slot.is_some() {
        return Ok(r.skip_value()?);
    }
    *slot = Some(T::read(r).map_err(|f| f.within(format_args!("\"{key}\"")))?);
    Ok(())
}

/// The field read into `slot`, or its value when absent.
pub(crate) fn take<T: Field>(slot: Option<T>, key: &str) -> Result<T, Fault> {
    match slot {
        Some(value) => Ok(value),
        None => T::absent().map_err(|m| Fault::Field(format!("\"{key}\": {m}"))),
    }
}

/// Skips a key nobody owns.
fn skip(_: &str, r: &mut Reader<'_>) -> Result<(), Fault> {
    Ok(r.skip_value()?)
}

/// The string under `key` in the object `r` has just opened, found by
/// looking ahead (the first such key wins).
fn find_tag<'a>(r: &Reader<'a>, key: &str) -> Result<Cow<'a, str>, Fault> {
    let mut ahead = r.clone();
    while let Some(k) = ahead.next_key()? {
        if k == key {
            return read_str(&mut ahead).map_err(|f| f.within(format_args!("\"{key}\"")));
        }
        ahead.skip_value()?;
    }
    Err(Fault::field(format!("\"{key}\": missing")))
}

/// Appends a message as one JSON object, `request_id` (when given) last.
fn encode_message(message: &impl Fields, request_id: Option<u64>, out: &mut String) {
    out.push('{');
    message.write_fields(out);
    if let Some(id) = request_id {
        out.push_str(",\"request_id\":");
        json::write_f64(out, id as f64);
    }
    out.push('}');
}

/// Decodes a message document and its `request_id`.
fn decode_message<M: Fields>(text: &str) -> Result<(M, Option<u64>), DecodeError> {
    let mut request_id = None;
    match read_message(&mut Reader::new(text), &mut request_id) {
        Ok(message) => Ok((message, request_id.flatten())),
        Err(Fault::Syntax(e)) => Err(DecodeError::Malformed(e)),
        // The reader stopped at a field fault: the rest of the text
        // decides whether the frame is JSON at all, and may hold the id.
        Err(Fault::Field(message)) => {
            let mut request_id = None;
            match read_message::<AnyObject>(&mut Reader::new(text), &mut request_id) {
                Err(Fault::Syntax(e)) => Err(DecodeError::Malformed(e)),
                _ => Err(DecodeError::Invalid {
                    message,
                    request_id: request_id.flatten(),
                }),
            }
        }
    }
}

/// Reads one message document; its first `request_id` key lands in
/// `request_id`.
fn read_message<M: Fields>(
    r: &mut Reader<'_>,
    request_id: &mut Option<Option<u64>>,
) -> Result<M, Fault> {
    if !r.begin_object()? {
        // Not a message; whether it is JSON decides the fault's class.
        r.skip_value()?;
        r.end()?;
        return Err(Fault::field("expected an object"));
    }
    let message = M::read_fields(r, &mut |key, r| {
        if key == "request_id" && request_id.is_none() {
            *request_id = Some(read_request_id(r)?);
            Ok(())
        } else {
            skip(key, r)
        }
    })?;
    r.end()?;
    Ok(message)
}

/// Any object, read only to check it: every key goes to `other`.
struct AnyObject;

impl Fields for AnyObject {
    fn write_fields(&self, _: &mut String) {}

    fn read_fields<'a>(r: &mut Reader<'a>, other: &mut Other<'_, 'a>) -> Result<Self, Fault> {
        read_keys(r, other).map(|()| AnyObject)
    }
}

/// Generates the codecs of the wire vocabulary, one table per type:
///
/// * `enum T by "key" { "tag" => Variant BODY, .. }` — a message tagged
///   under `key`.  `BODY` is `{ a, b }` (named fields, each under its own
///   name; `{}` for a unit variant), `(name)` (a single tuple field under
///   `name`), or `(..name)` (a single tuple field whose own [`Fields`] are
///   spread into the message).  Generates `kind`, `encode`, `send`,
///   `decode`, the `to_value`/`from_value` test adapters, and the
///   [`Fields`] impl;
/// * `struct T { a, b }` — an object with one key per field;
/// * `enum T as str { Variant = "text", .. }` — a unit enum sent as a
///   string.
macro_rules! wire {
    (@pat $ty:ident $variant:ident { $($f:ident),* }) => { $ty::$variant { $($f),* } };
    (@pat $ty:ident $variant:ident ($(..)? $f:ident)) => { $ty::$variant($f) };
    (@write $out:ident { $($f:ident),* }) => {
        $(
            $out.push_str(concat!(",\"", stringify!($f), "\":"));
            Field::write($f, $out);
        )*
    };
    (@write $out:ident (.. $f:ident)) => {
        $out.push(',');
        $f.write_fields($out);
    };
    (@write $out:ident ($f:ident)) => { wire!(@write $out { $f }) };
    (@read $r:ident $other:ident $key:literal $ty:ident $variant:ident { $($f:ident),* }) => {{
        $(let mut $f = None;)*
        read_keys($r, |key, r| match key {
            $(stringify!($f) => slot(&mut $f, key, r),)*
            $key => skip(key, r),
            _ => $other(key, r),
        })?;
        $ty::$variant { $($f: take($f, stringify!($f))?),* }
    }};
    (@read $r:ident $other:ident $key:literal $ty:ident $variant:ident (.. $f:ident)) => {
        $ty::$variant(Fields::read_fields($r, $other)?)
    };
    (@read $r:ident $other:ident $key:literal $ty:ident $variant:ident ($f:ident)) => {{
        let mut $f = None;
        read_keys($r, |key, r| match key {
            stringify!($f) => slot(&mut $f, key, r),
            $key => skip(key, r),
            _ => $other(key, r),
        })?;
        $ty::$variant(take($f, stringify!($f))?)
    }};
    (enum $ty:ident by $key:literal { $($tag:literal => $variant:ident $body:tt),* $(,)? }) => {
        impl $ty {
            /// The variant's wire tag.
            pub fn kind(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $tag,)*
                }
            }

            /// Appends the message as one JSON object, with `request_id`
            /// (when given) as its last key.
            pub fn encode(&self, request_id: Option<u64>, out: &mut String) {
                encode_message(self, request_id, out);
            }

            /// Sends the message as one frame, in one write.
            ///
            /// # Errors
            ///
            /// I/O errors; `InvalidData` (nothing written) if the message
            /// exceeds [`MAX_FRAME_LEN`].
            pub fn send(&self, w: &mut impl Write, request_id: Option<u64>) -> io::Result<()> {
                send_frame(w, |out| self.encode(request_id, out))
            }

            /// Decodes a frame's text into the message and its
            /// `request_id`.
            ///
            /// # Errors
            ///
            /// [`DecodeError::Malformed`] if the text is not JSON,
            /// [`DecodeError::Invalid`] if it is not this message.
            pub fn decode(text: &str) -> Result<(Self, Option<u64>), DecodeError> {
                decode_message(text)
            }

            /// The message as a JSON document, for tests that craft raw
            /// frames.
            pub fn to_value(&self) -> Value {
                let mut text = String::new();
                self.encode(None, &mut text);
                Value::parse(&text).expect("the message codec writes JSON")
            }

            /// Decodes a JSON document, for tests that read raw frames.
            ///
            /// # Errors
            ///
            /// Returns a message describing the first malformed field.
            pub fn from_value(v: &Value) -> Result<Self, String> {
                Self::decode(&v.to_json()).map(|(message, _)| message).map_err(|e| e.to_string())
            }
        }

        impl Fields for $ty {
            fn write_fields(&self, out: &mut String) {
                match self {
                    $(wire!(@pat $ty $variant $body) => {
                        out.push_str(concat!("\"", $key, "\":\"", $tag, "\""));
                        wire!(@write out $body);
                    })*
                }
            }

            fn read_fields<'a>(r: &mut Reader<'a>, other: &mut Other<'_, 'a>) -> Result<Self, Fault> {
                let tag = find_tag(r, $key).map_err(|f| f.within(stringify!($ty)))?;
                let mut read = || {
                    Ok(match &*tag {
                        $($tag => wire!(@read r other $key $ty $variant $body),)*
                        _ => return Err(Fault::field(concat!("unknown ", $key))),
                    })
                };
                read().map_err(|f| f.within(format_args!("{} {tag:?}", stringify!($ty))))
            }
        }
    };
    (struct $ty:ident { $first:ident $(, $f:ident)* $(,)? }) => {
        impl Field for $ty {
            fn write(&self, out: &mut String) {
                out.push_str(concat!("{\"", stringify!($first), "\":"));
                self.$first.write(out);
                $(
                    out.push_str(concat!(",\"", stringify!($f), "\":"));
                    self.$f.write(out);
                )*
                out.push('}');
            }

            fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
                let mut $first = None;
                $(let mut $f = None;)*
                read_object(r, |key, r| match key {
                    stringify!($first) => slot(&mut $first, key, r),
                    $(stringify!($f) => slot(&mut $f, key, r),)*
                    _ => skip(key, r),
                })?;
                Ok($ty {
                    $first: take($first, stringify!($first))?,
                    $($f: take($f, stringify!($f))?),*
                })
            }
        }
    };
    (enum $ty:ident as str { $($variant:ident = $text:literal),* $(,)? }) => {
        impl Field for $ty {
            fn write(&self, out: &mut String) {
                out.push_str(match self { $($ty::$variant => concat!("\"", $text, "\""),)* });
            }

            fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
                match &*read_str(r)? {
                    $($text => Ok($ty::$variant),)*
                    other => Err(Fault::field(format!("unknown {} {other:?}", stringify!($ty)))),
                }
            }
        }
    };
}

wire! {
    enum Request by "type" {
        "ping" => Ping {},
        "load_generator" => LoadGenerator { name, generator },
        "load_network" => LoadNetwork { name, network },
        "eval" => Eval { model, inputs, deadline_ms },
        "lin_regions" => LinRegions { model, polytopes, deadline_ms },
        "repair" => Repair { model, layer, spec, config },
        "job_status" => JobStatus { job },
        "get_network" => GetNetwork { model },
        "list_models" => ListModels {},
        "list_versions" => ListVersions { name },
        "stats" => Stats {},
        "metrics" => Metrics {},
        "trace" => Trace {},
        "shutdown" => Shutdown {},
    }
}

wire! {
    enum Response by "type" {
        "pong" => Pong {},
        "loaded" => Loaded { name, version },
        "outputs" => Outputs(outputs),
        "regions" => Regions(regions),
        "job_queued" => JobQueued { job },
        "job" => Job(..state),
        "network" => Network { name, version, source, activation, value, provenance },
        "models" => Models(models),
        "versions" => Versions(versions),
        "stats" => Stats(..stats),
        "metrics" => Metrics { text },
        "trace" => Trace { slow },
        "shutting_down" => ShuttingDown {},
        "error" => Error { kind, message, retry_after_ms },
    }
}

wire! {
    enum JobState by "state" {
        "queued" => Queued {},
        "running" => Running {},
        "done" => Done { model, version, delta_l1, delta_linf, lp_pivots, lp_refactorizations },
        "failed" => Failed { message },
    }
}

wire! { struct RegionWire { vertices, interior } }

wire! { struct VersionInfo { version, source, spec_hash, delta_l1, delta_linf, layer } }

wire! {
    enum ErrorKind as str {
        UnknownModel = "unknown_model",
        UnknownVersion = "unknown_version",
        UnknownJob = "unknown_job",
        BadRequest = "bad_request",
        Overloaded = "overloaded",
        DeadlineExceeded = "deadline_exceeded",
        ShuttingDown = "shutting_down",
        Unavailable = "unavailable",
        Internal = "internal",
    }
}

fn read_str<'a>(r: &mut Reader<'a>) -> Result<Cow<'a, str>, Fault> {
    r.str()?.ok_or_else(|| Fault::field("expected a string"))
}

impl Field for String {
    fn write(&self, out: &mut String) {
        json::write_str(out, self);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
        read_str(r).map(Cow::into_owned)
    }
}

impl Field for f64 {
    fn write(&self, out: &mut String) {
        json::write_f64(out, *self);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
        r.f64()?.ok_or_else(|| Fault::field("expected a number"))
    }
}

macro_rules! integer_field {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn write(&self, out: &mut String) {
                json::write_f64(out, *self as f64);
            }

            fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
                r.f64()?
                    .and_then(json::exact_u64)
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| Fault::field(concat!("expected a non-negative integer (", stringify!($ty), ")")))
            }
        }
    )*};
}

integer_field!(u32, u64, usize);

/// Arbitrary JSON documents (networks, provenance, traces) pass through.
impl Field for Value {
    fn write(&self, out: &mut String) {
        self.write_json(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
        Ok(r.value()?)
    }
}

/// Optional fields are sent as `null` and may also be left out.
impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(value) => value.write(out),
            None => out.push_str("null"),
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
        if r.null()? {
            Ok(None)
        } else {
            T::read(r).map(Some)
        }
    }

    fn absent() -> Result<Self, String> {
        Ok(None)
    }
}

fn write_list<T: Field>(out: &mut String, items: &[T]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write(out);
    }
    out.push(']');
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        write_list(out, self);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
        if !r.begin_array()? {
            return Err(Fault::field("expected an array"));
        }
        let mut items = Vec::new();
        while r.next_element()? {
            items.push(T::read(r)?);
        }
        Ok(items)
    }
}

impl Field for ModelRef {
    fn write(&self, out: &mut String) {
        json::write_str(out, &self.to_string());
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
        ModelRef::parse(&read_str(r)?).map_err(Fault::Field)
    }
}

/// One `(name, latest version)` entry of the `models` reply.
impl Field for (String, u32) {
    fn write(&self, out: &mut String) {
        out.push_str("{\"name\":");
        self.0.write(out);
        out.push_str(",\"latest\":");
        self.1.write(out);
        out.push('}');
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
        let (mut name, mut latest) = (None, None);
        read_object(r, |key, r| match key {
            "name" => slot(&mut name, key, r),
            "latest" => slot(&mut latest, key, r),
            _ => skip(key, r),
        })?;
        Ok((take(name, "name")?, take(latest, "latest")?))
    }
}

// The repair-config document format is owned by `prdnn_core` (it is shared
// with the durable version log's on-disk records); the wire simply embeds
// it.
impl Field for RepairConfig {
    fn write(&self, out: &mut String) {
        self.to_json().write_json(out);
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
        RepairConfig::from_json(&r.value()?).map_err(Fault::Field)
    }
}

impl Field for OutputPolytope {
    fn write(&self, out: &mut String) {
        out.push_str("{\"rows\":");
        self.a.rows().write(out);
        out.push_str(",\"cols\":");
        self.a.cols().write(out);
        out.push_str(",\"a\":");
        write_list(out, self.a.as_slice());
        out.push_str(",\"b\":");
        self.b.write(out);
        out.push('}');
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
        let (mut rows, mut cols, mut a, mut b) = (None, None, None, None);
        read_object(r, |key, r| match key {
            "rows" => slot(&mut rows, key, r),
            "cols" => slot(&mut cols, key, r),
            "a" => slot(&mut a, key, r),
            "b" => slot(&mut b, key, r),
            _ => skip(key, r),
        })?;
        let (rows, cols): (usize, usize) = (take(rows, "rows")?, take(cols, "cols")?);
        let (a, b): (Vec<f64>, Vec<f64>) = (take(a, "a")?, take(b, "b")?);
        // Checked: crafted documents with huge dims must be rejected, not
        // wrapped past the size check in release builds.
        if Some(a.len()) != rows.checked_mul(cols) {
            return Err(Fault::Field(format!(
                "{} entries in \"a\" do not match rows {rows} × cols {cols}",
                a.len()
            )));
        }
        if b.len() != rows {
            return Err(Fault::Field(format!(
                "{} entries in \"b\" but rows = {rows}",
                b.len()
            )));
        }
        Ok(OutputPolytope::new(Matrix::from_flat(rows, cols, a), b))
    }
}

impl Field for PointSpec {
    fn write(&self, out: &mut String) {
        out.push_str("{\"points\":");
        self.points.write(out);
        out.push_str(",\"constraints\":");
        self.constraints.write(out);
        out.push('}');
    }

    fn read(r: &mut Reader<'_>) -> Result<Self, Fault> {
        let (mut points, mut constraints) = (None, None);
        read_object(r, |key, r| match key {
            "points" => slot(&mut points, key, r),
            "constraints" => slot(&mut constraints, key, r),
            _ => skip(key, r),
        })?;
        let spec = PointSpec {
            points: take(points, "points")?,
            constraints: take(constraints, "constraints")?,
        };
        if spec.points.len() != spec.constraints.len() {
            return Err(Fault::Field(format!(
                "{} points but {} constraints",
                spec.points.len(),
                spec.constraints.len()
            )));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn model_refs_parse_and_print() {
        assert_eq!(ModelRef::parse("m").unwrap(), ModelRef::latest("m"));
        assert_eq!(ModelRef::parse("m@latest").unwrap(), ModelRef::latest("m"));
        assert_eq!(ModelRef::parse("m@v3").unwrap(), ModelRef::version("m", 3));
        assert_eq!(ModelRef::version("m", 3).to_string(), "m@v3");
        assert_eq!(ModelRef::latest("m").to_string(), "m@latest");
        for bad in ["", "@v1", "m@", "m@v0", "m@3", "m@vx"] {
            assert!(ModelRef::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let value = Request::Eval {
            model: ModelRef::latest("n1"),
            inputs: vec![vec![0.5], vec![1.5]],
            deadline_ms: Some(250),
        }
        .to_value();
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        let back = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(back, value);
        // A second read on the exhausted stream reports a clean close.
        let mut cursor = Cursor::new(&buf);
        read_frame(&mut cursor).unwrap();
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn metrics_request_response_and_done_state_round_trip() {
        let req = Request::Metrics;
        assert_eq!(Request::from_value(&req.to_value()).unwrap(), req);

        let resp = Response::Metrics {
            text: "# HELP prdnn_x y\n# TYPE prdnn_x counter\nprdnn_x 1\n".to_owned(),
        };
        assert_eq!(Response::from_value(&resp.to_value()).unwrap(), resp);

        let done = Response::Job(JobState::Done {
            model: "m".to_owned(),
            version: 3,
            delta_l1: 1.5,
            delta_linf: 0.5,
            lp_pivots: 42,
            lp_refactorizations: 2,
        });
        assert_eq!(Response::from_value(&done.to_value()).unwrap(), done);
    }

    #[test]
    fn prometheus_rendering_covers_every_stats_field() {
        // Give every field a distinct value so a transposed entry in the
        // registry cannot cancel out.
        let mut stats = ServerStats::default();
        let doc = Response::Stats(stats).to_value();
        let Value::Obj(fields) = &doc else {
            panic!("stats must encode as an object")
        };
        let keys: Vec<String> = fields
            .iter()
            .map(|(k, _)| k.clone())
            .filter(|k| k != "type")
            .collect();
        // Assign 1, 2, 3, ... in encoder order, then decode it back.
        let mut numbered = vec![("type".to_owned(), Value::Str("stats".to_owned()))];
        for (i, k) in keys.iter().enumerate() {
            numbered.push((k.clone(), Value::Num((i + 1) as f64)));
        }
        let Response::Stats(filled) = Response::from_value(&Value::Obj(numbered)).unwrap() else {
            panic!("expected stats")
        };
        stats = filled;

        // Point-in-time metrics render as bare-named gauges; everything
        // else is a counter and carries the conventional `_total` suffix.
        let gauges = [
            "open_connections",
            "cache_bytes",
            "cache_entries",
            "repair_queue_depth",
            "repair_in_flight",
        ];
        let text = stats.to_prometheus();
        for (i, key) in keys.iter().enumerate() {
            let rendered = if gauges.contains(&key.as_str()) {
                format!("prdnn_{key}")
            } else {
                format!("prdnn_{key}_total")
            };
            assert!(
                text.contains(&format!("# HELP {rendered} ")),
                "metric {key} missing HELP"
            );
            assert!(
                text.contains(&format!("# TYPE {rendered} ")),
                "metric {key} missing TYPE"
            );
            assert!(
                text.lines().any(|l| l == format!("{rendered} {}", i + 1)),
                "metric {key} missing sample with value {}",
                i + 1
            );
        }
        for gauge in gauges {
            assert!(
                text.contains(&format!("# TYPE prdnn_{gauge} gauge")),
                "{gauge} not typed as a gauge"
            );
        }
        let counters = text.lines().filter(|l| l.ends_with(" counter")).count();
        assert_eq!(counters, keys.len() - gauges.len());
    }

    #[test]
    fn trace_request_and_response_round_trip() {
        let req = Request::Trace;
        assert_eq!(Request::from_value(&req.to_value()).unwrap(), req);
        assert_eq!(req.kind(), "trace");

        let resp = Response::Trace {
            slow: Value::Arr(vec![Value::obj([
                ("request_id", Value::Num(7.0)),
                ("kind", Value::Str("eval".to_owned())),
                ("total_ms", Value::Num(120.5)),
                ("spans", Value::Arr(vec![])),
            ])]),
        };
        assert_eq!(Response::from_value(&resp.to_value()).unwrap(), resp);
    }

    #[test]
    fn request_ids_embed_echo_and_survive_the_codec() {
        let mut doc = Request::Ping.to_value();
        assert_eq!(request_id_of(&doc), None);
        embed_request_id(&mut doc, 42);
        assert_eq!(request_id_of(&doc), Some(42));
        // Embedding twice replaces rather than duplicates.
        embed_request_id(&mut doc, 43);
        assert_eq!(request_id_of(&doc), Some(43));
        // The typed codec ignores the correlation field entirely.
        assert_eq!(Request::from_value(&doc).unwrap(), Request::Ping);
        // Junk ids are ignored, not misread.
        let junk = Value::obj([("request_id", Value::Num(-1.0))]);
        assert_eq!(request_id_of(&junk), None);
        let frac = Value::obj([("request_id", Value::Num(1.5))]);
        assert_eq!(request_id_of(&frac), None);
    }

    #[test]
    fn decoding_rejects_missing_fields_wrong_types_and_shape_mismatches() {
        let request = |text: &str| Request::decode(text).map(|(request, _)| request);
        let response = |text: &str| Response::decode(text).map(|(response, _)| response);
        let repair = |constraints: &str| {
            request(&format!(
                r#"{{"type":"repair","model":"m","layer":0,"config":{{}},
                    "spec":{{"points":[[0.5]],"constraints":{constraints}}}}}"#
            ))
        };
        // The well-formed baselines the rejected documents deviate from.
        assert!(repair(r#"[{"rows":2,"cols":1,"a":[1,-1],"b":[0,0.2]}]"#).is_ok());
        assert!(response(r#"{"type":"loaded","name":"m","version":1}"#).is_ok());
        for bad in [
            "{}",
            r#"{"type":7}"#,
            r#"{"type":"nope"}"#,
            r#"{"type":"eval","model":"m"}"#,
            r#"{"type":"eval","model":"m","inputs":"x"}"#,
            r#"{"type":"eval","model":"m","inputs":[[1,"a"]]}"#,
            r#"{"type":"eval","model":"m@v0","inputs":[]}"#,
            r#"{"type":"eval","model":"m","inputs":[],"deadline_ms":-1}"#,
            r#"{"type":"job_status","job":1.5}"#,
            r#"{"type":"load_network","name":"m"}"#,
            r#"{"type":"repair","model":"m","layer":0,"spec":{"points":[],"constraints":[]}}"#,
            // 2^64 does not fit a u64 (it used to saturate to u64::MAX).
            r#"{"type":"job_status","job":18446744073709551616}"#,
            "[]",
            "null",
        ] {
            assert!(
                matches!(request(bad), Err(DecodeError::Invalid { .. })),
                "accepted request {bad}"
            );
        }
        // The largest double below 2^64 does fit.
        assert_eq!(
            request(r#"{"type":"job_status","job":18446744073709549568}"#),
            Ok(Request::JobStatus {
                job: 18446744073709549568
            })
        );
        // Numbers outside RFC 8259 §6 make the frame malformed, not just
        // the field.
        for bad in [
            r#"{"type":"job_status","job":01}"#,
            r#"{"type":"job_status","job":00}"#,
            r#"{"type":"job_status","job":1.}"#,
            r#"{"type":"eval","model":"m","inputs":[[-.5]]}"#,
            r#"{"type":"eval","model":"m","inputs":[[1.e5]]}"#,
        ] {
            assert!(
                matches!(request(bad), Err(DecodeError::Malformed(_))),
                "accepted request {bad}"
            );
        }
        for constraints in [
            // rows × cols overflows usize: the checked multiply must reject it.
            r#"[{"rows":4294967296,"cols":4294967296,"a":[],"b":[]}]"#,
            r#"[{"rows":2,"cols":1,"a":[1,-1,3],"b":[0,0.2]}]"#,
            r#"[{"rows":2,"cols":1,"a":[1,-1],"b":[0]}]"#,
            r#"[{"rows":2,"a":[1,-1],"b":[0,0.2]}]"#,
            // Two constraints for one point.
            r#"[{"rows":1,"cols":1,"a":[1],"b":[0]},{"rows":1,"cols":1,"a":[1],"b":[0]}]"#,
        ] {
            assert!(repair(constraints).is_err(), "accepted spec {constraints}");
        }
        for bad in [
            r#"{"type":"loaded","name":"m","version":"1"}"#,
            r#"{"type":"job"}"#,
            r#"{"type":"job","state":"paused"}"#,
            r#"{"type":"job","state":"done","model":"m","version":2}"#,
            r#"{"type":"error","kind":"nope","message":"x"}"#,
            r#"{"type":"error","kind":"internal","message":"x","retry_after_ms":-5}"#,
            r#"{"type":"stats","eval_requests":1}"#,
            r#"{"type":"versions","versions":[{"version":1,"source":"s","spec_hash":5}]}"#,
            r#"{"type":"models","models":[{"name":"m"}]}"#,
            r#"{"type":"regions","regions":[[{"vertices":[[0]]}]]}"#,
            r#"{"type":"network","name":"m","version":1,"source":"s","value":{}}"#,
        ] {
            assert!(response(bad).is_err(), "accepted response {bad}");
        }
    }

    #[test]
    fn a_tag_that_is_not_the_first_key_still_decodes() {
        let text = r#" { "inputs" : [[0.5]], "deadline_ms": null, "model": "m@v2",
            "type": "eval", "type": "ping", "model": "ignored" } "#;
        assert_eq!(
            Request::decode(text).unwrap(),
            (
                Request::Eval {
                    model: ModelRef::version("m", 2),
                    inputs: vec![vec![0.5]],
                    deadline_ms: None,
                },
                None
            )
        );
        // A spread message finds its own tag wherever it sits too.
        let text = r#"{"version":2,"state":"done","model":"m","type":"job","delta_l1":0.5,
            "delta_linf":0.25,"lp_pivots":3,"lp_refactorizations":0}"#;
        assert!(matches!(
            Response::decode(text),
            Ok((Response::Job(JobState::Done { version: 2, .. }), None))
        ));
    }

    #[test]
    fn typed_frames_carry_the_request_id_last_and_go_out_in_one_write() {
        /// Counts `write` calls.
        struct Writes(Vec<u8>, usize);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(buf);
                self.1 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writes(Vec::new(), 0);
        Response::JobQueued { job: 7 }
            .send(&mut w, Some(42))
            .unwrap();
        assert_eq!(w.1, 1, "header and body in one write");
        let (text, _) = read_frame_text(&mut Cursor::new(&w.0)).unwrap();
        assert_eq!(text, r#"{"type":"job_queued","job":7.0,"request_id":42.0}"#);
        assert_eq!(
            Response::decode(&text).unwrap(),
            (Response::JobQueued { job: 7 }, Some(42))
        );
        let mut w = Writes(Vec::new(), 0);
        write_frame(&mut w, &Value::Null).unwrap();
        assert_eq!((w.1, &w.0[4..]), (1, &b"null"[..]));
    }

    #[test]
    fn oversized_and_empty_headers_are_rejected() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        oversized.extend_from_slice(b"xxxx");
        assert!(matches!(
            read_frame(&mut Cursor::new(&oversized)),
            Err(FrameError::Oversized(_))
        ));
        let empty = 0u32.to_be_bytes().to_vec();
        assert!(matches!(
            read_frame(&mut Cursor::new(&empty)),
            Err(FrameError::Empty)
        ));
    }
}
