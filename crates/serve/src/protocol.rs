//! The serving wire protocol: length-prefixed frames, JSON but for one
//! raw block of weights.
//!
//! Every message — request or response — is one **frame**: a 4-byte
//! big-endian `u32` payload length followed by exactly that many bytes.
//! Every request and every response is UTF-8 JSON; the one raw frame is
//! protocol 2's weight block (see [Versions](#versions)). Requests are the
//! externally-tagged [`Request`] enum;
//! responses are [`Response`], either `{"Ok": …}` or `{"Err": {code,
//! message, retry_after_ms}}`. A connection is a strict
//! request/response sequence, except `Observe`, which streams one
//! `{"Ok":{"Event":…}}` frame per job event and terminates with
//! `{"Ok":{"ObserveEnd":…}}`, and a completed `Join` under protocol 2,
//! whose `Joined` is followed by its weight block.
//!
//! # Versions
//!
//! `Hello` negotiates the version. Protocol 1 ([`PROTOCOL_VERSION`]) is
//! the default, and a `Hello` that names none gets it: every frame is
//! JSON. Protocol 2 ([`PROTOCOL_RAW_WEIGHTS`]) differs in one answer
//! only. A `Join` of a completed job is answered with two frames: the
//! `Joined` JSON with `weights` and `weights_bits` null, then one raw
//! frame of 8·d bytes, each weight's IEEE-754 bit pattern little-endian
//! ([`JoinedReply::encode_raw`]; the client rebuilds both fields from it
//! with [`WireTrained::attach_weight_block`]). A cancelled or failed job's
//! `Joined` carries no weights, so it is the one JSON frame under both
//! versions.
//!
//! # Framing
//!
//! **Writing.** A frame is built in place: [`encode_frame_into`]
//! reserves the four header bytes in the output buffer, has the typed
//! serializer write the payload directly behind them, and patches the
//! length in afterwards. There is no intermediate `String`, `Value` tree
//! or payload copy. Every frame the server queues comes from
//! [`encode_shared_frame`]: one encode into a reused per-thread scratch
//! buffer, one copy into an exact-size `Arc<[u8]>` that every observer
//! shares — one allocation per frame. The `Joined` answer is written from
//! borrowed parts by [`JoinedReply`]: under protocol 1 both weight arrays
//! straight off the bound weight slice, under protocol 2 a copy of its
//! bytes behind the JSON ([`JoinedReply::encode_raw`]). The `Stats`
//! answer is written by [`StatsReply`], which
//! copies each finished job's row as it was encoded once
//! ([`EncodedRow`]). [`encode_frame`] remains for owned frames (clients,
//! tools), and [`write_message`] is the blocking writer over it.
//!
//! **Reading.** [`FrameDecoder`] (push-driven, what the reactor feeds
//! from nonblocking sockets) cuts the byte stream into payloads, and
//! [`read_frame`] is the same decoder pulled through a blocking
//! `BufRead`; a payload is then decoded straight into its typed message by
//! `serde_json::from_slice`, which validates UTF-8 once and reads the
//! fields off a byte cursor (a `Stats` row's status borrows its literal,
//! see [`WireJob`]). What that decoder accepts — missing keys
//! read as `null`, unknown keys are skipped, the last duplicate wins, an
//! enum object's first key is its tag, 128 levels of nesting at most — is
//! specified in the vendored `serde` crate docs and pinned by
//! `tests/wire_semantics.rs`.
//!
//! Two rules keep malformed clients from hurting anyone else:
//!
//! - an **oversized** frame (length above the server's `max_frame`) is
//!   drained from the socket without buffering and answered with a typed
//!   `oversized_frame` error — the connection survives;
//! - a frame whose payload is not valid JSON for [`Request`] is answered
//!   with `bad_frame` (the message names the first syntax error and its
//!   byte offset, or the first mismatched field) — the connection
//!   survives, because the framing layer already knows where the next
//!   frame starts.
//!
//! In JSON, floats cross the wire twice: as plain JSON numbers (readable,
//! and round-trip-exact under Rust's shortest-representation formatting;
//! NaN and the infinities are `null`) and as 16-hex-digit IEEE-754 bit
//! patterns (`*_bits` fields), which are the authoritative values for
//! bit-exactness checks. A protocol-2 weight block carries the bit
//! patterns alone, NaN payloads included.

use std::borrow::Cow;
use std::cell::RefCell;
use std::io::{self, BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

use ml4all::{
    AlgorithmPin, DataSource, GdVariant, GradientKind, JobEvent, JobStatus, SamplingMethod,
    TrainRequest,
};
use serde::de::{self, Deserializer, Slot};
use serde::ser::{Compound, Serializer};
use serde::{Deserialize, Serialize};

/// The default wire protocol, all JSON: a `Hello` that asks for no
/// version gets it. A client asking for a version other than this or
/// [`PROTOCOL_RAW_WEIGHTS`] is refused with `unsupported_protocol`.
pub const PROTOCOL_VERSION: u32 = 1;

/// The protocol whose completed `Joined` sends the weights as one raw
/// little-endian block after the JSON (see the module docs).
pub const PROTOCOL_RAW_WEIGHTS: u32 = 2;

/// Default cap on a single frame's payload bytes (1 MiB).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Typed error codes a server can answer with ([`WireError::code`]).
pub mod code {
    /// The payload was not valid JSON for the expected type, or the
    /// frame length was zero.
    pub const BAD_FRAME: &str = "bad_frame";
    /// The frame length exceeded the server's `max_frame`; the payload
    /// was drained and ignored.
    pub const OVERSIZED_FRAME: &str = "oversized_frame";
    /// A verb other than `Hello` arrived before `Hello` on this
    /// connection.
    pub const HELLO_REQUIRED: &str = "hello_required";
    /// The client asked for a protocol version this server does not
    /// speak.
    pub const UNSUPPORTED_PROTOCOL: &str = "unsupported_protocol";
    /// The request was well-formed JSON but semantically invalid
    /// (unknown gradient, non-positive epsilon, …).
    pub const INVALID_REQUEST: &str = "invalid_request";
    /// Admission refused the job: the tenant's queue-byte quota is full.
    /// [`super::WireError::retry_after_ms`] carries a backoff hint —
    /// never a silent drop.
    pub const BUSY: &str = "busy";
    /// The job id is not known to this server.
    pub const UNKNOWN_JOB: &str = "unknown_job";
    /// The job belongs to a different tenant.
    pub const FORBIDDEN: &str = "forbidden";
    /// The verb itself failed (train/explain/predict error); the message
    /// carries the rendered error.
    pub const FAILED: &str = "failed";
    /// The connection's outbound buffer hit the server's per-connection
    /// write cap (the peer stopped reading while the server kept
    /// producing). The server sends this as a final frame — preceded
    /// only by frames that were already fully buffered — and closes the
    /// connection once it drains.
    pub const SLOW_CONSUMER: &str = "slow_consumer";
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// One framing-layer read outcome.
#[derive(Debug)]
pub enum FrameIn {
    /// A complete payload within the size cap.
    Frame(Vec<u8>),
    /// The announced length exceeded the cap; the payload has already
    /// been drained off the socket, so the stream is still in sync.
    Oversized {
        /// The announced payload length.
        len: u32,
    },
    /// The peer closed the connection cleanly (EOF at a frame boundary).
    Eof,
}

/// Read one frame: a blocking drive of the [`FrameDecoder`], which owns
/// the header, cap and drain rules. EOF mid-frame (after any header
/// byte) is an `UnexpectedEof` error; EOF exactly at a frame boundary is
/// [`FrameIn::Eof`]. Nothing past the frame is consumed from `reader`.
pub fn read_frame(reader: &mut impl BufRead, max_frame: usize) -> io::Result<FrameIn> {
    let mut decoder = FrameDecoder::new(max_frame);
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return if decoder.mid_frame() {
                Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame",
                ))
            } else {
                Ok(FrameIn::Eof)
            };
        }
        let (used, item) = decoder.advance(available);
        reader.consume(used);
        match item {
            Some(Decoded::Frame(payload)) => return Ok(FrameIn::Frame(payload)),
            Some(Decoded::Oversized { len }) => return Ok(FrameIn::Oversized { len }),
            None => {}
        }
    }
}

/// Write one frame (length header + payload). The caller flushes.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large for u32"))?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(payload)
}

/// Serialize a value and write it as one frame, in one `write_all`. The
/// caller flushes.
pub fn write_message(writer: &mut impl Write, message: &impl Serialize) -> io::Result<()> {
    writer.write_all(&encode_frame(message)?)
}

/// Serialize a value into a complete frame (header + payload) as owned
/// bytes.
pub fn encode_frame(message: &impl Serialize) -> io::Result<Vec<u8>> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, message)?;
    Ok(frame)
}

/// Append one complete frame to `buf`: reserve the header, serialize the
/// payload straight behind it, then patch the length in — the message is
/// encoded exactly once and never copied. With a reused `buf` of enough
/// capacity this allocates nothing. On error `buf` is left as it was.
pub fn encode_frame_into(buf: &mut Vec<u8>, message: &impl Serialize) -> io::Result<()> {
    frame_into(buf, |out| message.serialize(&mut Serializer::compact(out)))
}

/// Append one frame whose payload `write` appends to the buffer it is
/// handed: the header is reserved in front and patched in afterwards.
fn frame_into(buf: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    write(buf);
    match u32::try_from(buf.len() - start - 4) {
        Ok(len) => {
            buf[start..start + 4].copy_from_slice(&len.to_be_bytes());
            Ok(())
        }
        Err(_) => {
            buf.truncate(start);
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame too large for u32",
            ))
        }
    }
}

/// A thread's scratch buffer survives a frame up to this size; a larger
/// frame drops it after use, so one wide `Joined` does not pin its size
/// on the thread.
const SCRATCH_KEEP: usize = 64 << 10;

thread_local! {
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Serialize a value into a complete frame shared as `Arc<[u8]>`, in one
/// allocation: the frame is encoded into this thread's reused scratch
/// buffer, then copied once into an exact-size `Arc<[u8]>`. This is every
/// frame the server queues — an event fanned out to all its observers, a
/// verb's answer, a goodbye.
pub fn encode_shared_frame(message: &impl Serialize) -> io::Result<Arc<[u8]>> {
    with_scratch(|buf| encode_frame_into(buf, message).map(|()| Arc::from(buf.as_slice())))
}

/// Run `encode` on this thread's scratch buffer, emptied; the buffer is
/// dropped afterwards if it grew past [`SCRATCH_KEEP`].
fn with_scratch<T>(encode: impl FnOnce(&mut Vec<u8>) -> T) -> T {
    SCRATCH.with(|scratch| {
        let mut buf = scratch.borrow_mut();
        buf.clear();
        let encoded = encode(&mut buf);
        if buf.capacity() > SCRATCH_KEEP {
            *buf = Vec::new();
        }
        encoded
    })
}

// ---------------------------------------------------------------------
// Incremental decoding (nonblocking sockets)
// ---------------------------------------------------------------------

/// One complete item out of the [`FrameDecoder`].
#[derive(Debug)]
pub enum Decoded {
    /// A complete payload within the size cap.
    Frame(Vec<u8>),
    /// A frame whose announced length exceeded the cap. Emitted once the
    /// payload has been fully consumed (and discarded), so the stream is
    /// back in sync at the next frame boundary.
    Oversized {
        /// The announced payload length.
        len: u32,
    },
}

enum DecodeState {
    /// Accumulating the 4-byte big-endian length header.
    Header { buf: [u8; 4], filled: usize },
    /// Accumulating `buf.capacity()` payload bytes.
    Body { buf: Vec<u8> },
    /// Discarding an oversized payload without buffering it.
    Drain { len: u32, remaining: u64 },
}

/// The one implementation of the framing rules: a push-driven state
/// machine that accepts bytes in whatever slices the socket yields — one
/// byte at a time, or several frames at once — and emits complete items.
///
/// An oversized payload is counted off and discarded without allocation,
/// and [`Decoded::Oversized`] is emitted at the next frame boundary.
pub struct FrameDecoder {
    max_frame: usize,
    state: DecodeState,
}

impl FrameDecoder {
    /// A decoder enforcing `max_frame` payload bytes.
    pub fn new(max_frame: usize) -> Self {
        Self {
            max_frame,
            state: DecodeState::Header {
                buf: [0; 4],
                filled: 0,
            },
        }
    }

    /// Consume a prefix of `input`, returning how many bytes were used
    /// and at most one completed item. Call in a loop until it reports
    /// `(input.len(), None)` — everything consumed, mid-item, needs more
    /// bytes from the socket.
    pub fn advance(&mut self, input: &[u8]) -> (usize, Option<Decoded>) {
        match &mut self.state {
            DecodeState::Header { buf, filled } => {
                let take = (4 - *filled).min(input.len());
                buf[*filled..*filled + take].copy_from_slice(&input[..take]);
                *filled += take;
                if *filled < 4 {
                    return (take, None);
                }
                let len = u32::from_be_bytes(*buf);
                if len as usize > self.max_frame {
                    self.state = DecodeState::Drain {
                        len,
                        remaining: u64::from(len),
                    };
                } else if len == 0 {
                    self.reset();
                    return (take, Some(Decoded::Frame(Vec::new())));
                } else {
                    self.state = DecodeState::Body {
                        buf: Vec::with_capacity(len as usize),
                    };
                }
                (take, None)
            }
            DecodeState::Body { buf } => {
                let want = buf.capacity() - buf.len();
                let take = want.min(input.len());
                buf.extend_from_slice(&input[..take]);
                if buf.len() < buf.capacity() {
                    return (take, None);
                }
                let frame = std::mem::take(buf);
                self.reset();
                (take, Some(Decoded::Frame(frame)))
            }
            DecodeState::Drain { len, remaining } => {
                let take = (*remaining).min(input.len() as u64) as usize;
                *remaining -= take as u64;
                if *remaining > 0 {
                    return (take, None);
                }
                let len = *len;
                self.reset();
                (take, Some(Decoded::Oversized { len }))
            }
        }
    }

    /// `true` when the decoder is mid-item — a clean EOF here means the
    /// peer died inside a frame rather than at a boundary.
    pub fn mid_frame(&self) -> bool {
        !matches!(self.state, DecodeState::Header { filled: 0, .. })
    }

    fn reset(&mut self) {
        self.state = DecodeState::Header {
            buf: [0; 4],
            filled: 0,
        };
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A client request, externally tagged: `{"Submit": {"train": …}}`,
/// `"Stats"`, ….
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Open the conversation: authenticate as `tenant` and negotiate the
    /// protocol. Required before any other verb.
    Hello {
        /// Tenant id this connection acts as.
        tenant: String,
        /// Protocol version the client speaks; `null` takes the default,
        /// [`PROTOCOL_VERSION`].
        protocol: Option<u32>,
    },
    /// Enqueue a training job; answers `Submitted` with the job id
    /// immediately (admission permitting).
    Submit {
        /// The training request.
        train: WireTrain,
    },
    /// Stream the job's events from sequence number `from` (default 0)
    /// until the job finishes. Replayable: a reconnecting observer gets
    /// the full buffered prefix.
    Observe {
        /// Job id from `Submitted`.
        job: u64,
        /// First event sequence number to deliver (resume point).
        from: Option<u64>,
    },
    /// Request cooperative cancellation of a job this tenant owns.
    Cancel {
        /// Job id from `Submitted`.
        job: u64,
    },
    /// Block until the job finishes and return its outcome (with
    /// bit-exact weights on success).
    Join {
        /// Job id from `Submitted`.
        job: u64,
    },
    /// Run the cost-based optimizer and return the costed plan table
    /// without executing the winner.
    Explain {
        /// The training request to explain.
        train: WireTrain,
        /// Also profile every plan for the conformance column.
        measured: Option<bool>,
    },
    /// Score a dataset with one of this tenant's bound models.
    Predict {
        /// Model name as given at submit time.
        model: String,
        /// Test data.
        source: WireSource,
    },
    /// This tenant's admission counters, quotas, and job table.
    Stats,
    /// The reactor's transport-level counters (connections, wake-ups,
    /// bytes, slow-consumer disconnects). Unlike `Stats`, these are
    /// server-wide, not per-tenant.
    ServerStats,
}

/// Where a wire request's data comes from (the catalog-resolvable subset
/// of [`DataSource`]; in-memory handover cannot cross a socket).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireSource {
    /// Resolve by name: registered dataset, then registry analog, then
    /// file — `{"Named": "adult"}`.
    Named(String),
    /// A Table 2 registry analog only.
    Registry(String),
    /// A data file under the server's data dir.
    File(String),
}

impl From<&WireSource> for DataSource {
    fn from(source: &WireSource) -> Self {
        match source {
            WireSource::Named(name) => DataSource::Named {
                name: name.clone(),
                columns: None,
            },
            WireSource::Registry(name) => DataSource::Registry(name.clone()),
            WireSource::File(path) => DataSource::File {
                path: path.into(),
                format: ml4all::FileFormat::Auto,
                columns: None,
            },
        }
    }
}

/// A training request as JSON: the wire analog of [`TrainRequest`].
/// Only `gradient` and `source` are required.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireTrain {
    /// Gradient function: `"logistic"`, `"squared"`, or `"hinge"`.
    pub gradient: String,
    /// Training data.
    pub source: WireSource,
    /// Convergence tolerance ε.
    pub epsilon: Option<f64>,
    /// Iteration cap (fixed iterations when no epsilon).
    pub max_iter: Option<u64>,
    /// Step size β for the `β/√i` schedule.
    pub step: Option<f64>,
    /// MGD mini-batch size.
    pub batch: Option<u64>,
    /// Pin the GD algorithm: `"bgd"`, `"sgd"`, or `"mgd"`.
    pub algorithm: Option<String>,
    /// Pin the sampler: `"bernoulli"`, `"random"`, or `"shuffle"`.
    pub sampler: Option<String>,
    /// RNG seed (default 0; part of the plan-cache key).
    pub seed: Option<u64>,
    /// Result name to bind (namespaced per tenant by the server).
    pub name: Option<String>,
    /// Progress-tick cadence in iterations.
    pub progress_every: Option<u64>,
    /// Real wall-clock execution limit in milliseconds.
    pub wall_limit_ms: Option<u64>,
    /// Simulated-cost budget in milliseconds (`having time …`).
    pub time_budget_ms: Option<u64>,
    /// Write a durability checkpoint every this many iterations (servers
    /// started with `--state-dir` only; absent or 0 disables).
    pub checkpoint_every: Option<u64>,
    /// Resume from this request's persisted checkpoint when one exists
    /// (servers started with `--state-dir` only; a missing checkpoint
    /// starts cold).
    pub resume: Option<bool>,
}

impl WireTrain {
    /// A minimal wire request: `gradient` on `source`, everything else
    /// at the defaults.
    pub fn new(gradient: &str, source: WireSource) -> Self {
        Self {
            gradient: gradient.to_string(),
            source,
            epsilon: None,
            max_iter: None,
            step: None,
            batch: None,
            algorithm: None,
            sampler: None,
            seed: None,
            name: None,
            progress_every: None,
            wall_limit_ms: None,
            time_budget_ms: None,
            checkpoint_every: None,
            resume: None,
        }
    }

    /// Lower onto a typed [`TrainRequest`], validating eagerly so a bad
    /// request is refused at the door instead of failing inside a job.
    pub fn to_request(&self) -> Result<TrainRequest, WireError> {
        let invalid = |message: String| WireError {
            code: code::INVALID_REQUEST.to_string(),
            message,
            retry_after_ms: None,
        };
        // The wire's own aliases on top of the canonical function names.
        let gradient = match self.gradient.as_str() {
            "linear" => Some(GradientKind::LinearRegression),
            "classification" => Some(GradientKind::LogisticRegression),
            "svm" => Some(GradientKind::Svm),
            name => GradientKind::from_function_name(name),
        }
        .ok_or_else(|| {
            invalid(format!(
                "unknown gradient `{}` (expected `logistic`, `squared`, or `hinge`)",
                self.gradient
            ))
        })?;
        let mut request = TrainRequest::new(gradient, DataSource::from(&self.source));
        if let Some(epsilon) = self.epsilon {
            request = request.epsilon(epsilon);
        }
        if let Some(max_iter) = self.max_iter {
            request = request.max_iter(max_iter);
        }
        if let Some(step) = self.step {
            request = request.step(step);
        }
        if let Some(batch) = self.batch {
            request = request.batch(batch);
        }
        if let Some(algorithm) = &self.algorithm {
            match algorithm.as_str() {
                "bgd" | "batch" => request = request.algorithm(GdVariant::Batch),
                "sgd" | "stochastic" => request = request.algorithm(GdVariant::Stochastic),
                // Pin MGD while letting the planner default the batch
                // size when the request leaves it out.
                "mgd" | "minibatch" => {
                    request.spec.algorithm = Some(AlgorithmPin::MiniBatch { batch: self.batch })
                }
                other => {
                    return Err(invalid(format!(
                        "unknown algorithm `{other}` (expected `bgd`, `sgd`, or `mgd`)"
                    )))
                }
            }
        }
        if let Some(sampler) = &self.sampler {
            let sampler = match sampler.as_str() {
                "bernoulli" => SamplingMethod::Bernoulli,
                "random" | "random-partition" => SamplingMethod::RandomPartition,
                "shuffle" | "shuffled-partition" => SamplingMethod::ShuffledPartition,
                other => {
                    return Err(invalid(format!(
                        "unknown sampler `{other}` (expected `bernoulli`, `random`, or `shuffle`)"
                    )))
                }
            };
            request = request.sampler(sampler);
        }
        if let Some(seed) = self.seed {
            request = request.seed(seed);
        }
        if let Some(name) = &self.name {
            request = request.named(name.clone());
        }
        if let Some(every) = self.progress_every {
            request = request.progress_every(every);
        }
        if let Some(ms) = self.wall_limit_ms {
            request = request.wall_limit(Duration::from_millis(ms));
        }
        if let Some(ms) = self.time_budget_ms {
            request = request.time_budget(Duration::from_millis(ms));
        }
        if let Some(every) = self.checkpoint_every {
            request = request.checkpoint_every(every);
        }
        if let Some(resume) = self.resume {
            request = request.resume(resume);
        }
        request.config().map_err(|e| invalid(e.to_string()))?;
        Ok(request)
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// A server response: `{"Ok": <payload>}` or `{"Err": <error>}`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// The verb succeeded.
    Ok(Payload),
    /// The verb was refused or failed; typed, never a silent drop.
    Err(WireError),
}

/// A typed server-side refusal or failure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireError {
    /// One of the [`code`] constants.
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// For `busy`: suggested client backoff before retrying.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// Build an error with no backoff hint.
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        Self {
            code: code.to_string(),
            message: message.into(),
            retry_after_ms: None,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (retry after {ms}ms)")?;
        }
        Ok(())
    }
}

/// Success payloads, one variant per verb (plus the observe stream).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Payload {
    /// Answer to `Hello`.
    Hello {
        /// Server name and version (`ml4all-serve x.y.z`).
        server: String,
        /// Wire protocol version in effect.
        protocol: u32,
        /// The deterministic RNG stream version — two servers reporting
        /// the same value produce bit-identical results for the same
        /// request.
        rng_stream_version: u32,
        /// The server's frame payload cap in bytes.
        max_frame: u64,
    },
    /// Answer to `Submit`: the job was admitted (queued or dispatched).
    Submitted {
        /// Server-assigned job id; the handle for
        /// observe/cancel/join/stats.
        job: u64,
    },
    /// One observe-stream element.
    Event {
        /// Sequence number (0-based, dense) — the resume cursor for
        /// `Observe.from`.
        seq: u64,
        /// The event.
        event: WireEvent,
    },
    /// Observe-stream terminator: no more events will ever come.
    ObserveEnd {
        /// The job observed.
        job: u64,
        /// Terminal status: `completed` / `cancelled` / `failed`.
        status: String,
    },
    /// Answer to `Cancel`: the cancellation request was delivered (the
    /// job still stops only at its next wave boundary).
    Cancelled {
        /// The job.
        job: u64,
    },
    /// Answer to `Join`.
    Joined(WireTrained),
    /// Answer to `Explain`.
    Explained(WireReport),
    /// Answer to `Predict`.
    Predicted {
        /// Number of points scored.
        n: u64,
        /// Mean squared error against the source labels.
        mse: f64,
        /// Sign accuracy (classification models only).
        accuracy: Option<f64>,
    },
    /// Answer to `Stats`.
    Stats(WireStats),
    /// Answer to `ServerStats`.
    ServerStats(WireServerStats),
}

/// A job event as JSON (the wire analog of [`JobEvent`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireEvent {
    /// The optimizer started speculative runs.
    SpeculationStarted,
    /// The optimizer committed to a plan.
    PlanChosen {
        /// Rendered plan (`mgd(1000)/shuffle/…`).
        plan: String,
        /// Iterations the optimizer expects.
        estimated_iterations: u64,
        /// One-time preparation cost (simulated seconds).
        preparation_s: f64,
        /// Per-iteration cost (simulated seconds).
        per_iteration_s: f64,
        /// Total estimated cost (simulated seconds).
        total_s: f64,
        /// Served from the plan cache.
        cache_hit: bool,
        /// Backend the plan executes on.
        backend: String,
    },
    /// The job restored a persisted durability checkpoint and continues
    /// from it (bit-identically to the interrupted run).
    Resumed {
        /// Iteration the checkpoint was taken at; execution continues at
        /// the next one.
        iteration: u64,
    },
    /// The job switched plans mid-flight: observed convergence diverged
    /// from the estimate and the chooser re-ran with calibrated costs.
    Replanned {
        /// Iteration the switch took effect at (a wave boundary).
        iteration: u64,
        /// Rendered plan the job was executing.
        from: String,
        /// Rendered plan the job continues under.
        to: String,
        /// Revised cost of the new plan minus the old (simulated
        /// seconds; negative = the switch is predicted cheaper).
        cost_delta: f64,
    },
    /// A convergence checkpoint.
    Progress {
        /// Iteration just completed (1-based).
        iteration: u64,
        /// Convergence delta.
        delta: f64,
        /// IEEE-754 bits of `delta` (authoritative).
        delta_bits: String,
        /// Simulated seconds elapsed.
        sim_time_s: f64,
        /// IEEE-754 bits of `sim_time_s` (authoritative).
        sim_time_bits: String,
    },
    /// The job finished and its model was bound.
    Completed {
        /// Bound result name (tenant-visible, unprefixed).
        name: String,
        /// Iterations executed.
        iterations: u64,
        /// Why the run stopped (`Converged`, `MaxIterations`, …).
        stop: String,
        /// Whether the tolerance was reached.
        converged: bool,
        /// Simulated training seconds.
        sim_time_s: f64,
    },
    /// The job stopped at its cancellation token.
    Cancelled {
        /// Iterations completed before the stop.
        iterations: u64,
    },
    /// The job failed.
    Failed {
        /// Rendered error.
        message: String,
    },
}

impl WireEvent {
    /// Lower an engine [`JobEvent`], stripping `prefix` from bound names
    /// so tenants see their own namespace.
    pub fn from_job_event(event: &JobEvent, prefix: &str) -> Self {
        match event {
            JobEvent::SpeculationStarted => Self::SpeculationStarted,
            JobEvent::PlanChosen {
                plan,
                estimated_iterations,
                preparation_s,
                per_iteration_s,
                total_s,
                cache_hit,
                backend,
            } => Self::PlanChosen {
                plan: plan.to_string(),
                estimated_iterations: *estimated_iterations,
                preparation_s: *preparation_s,
                per_iteration_s: *per_iteration_s,
                total_s: *total_s,
                cache_hit: *cache_hit,
                backend: (*backend).to_string(),
            },
            JobEvent::Resumed { iteration } => Self::Resumed {
                iteration: *iteration,
            },
            JobEvent::Replanned {
                iteration,
                from,
                to,
                cost_delta,
            } => Self::Replanned {
                iteration: *iteration,
                from: from.to_string(),
                to: to.to_string(),
                cost_delta: *cost_delta,
            },
            JobEvent::Progress {
                iteration,
                delta,
                sim_time_s,
                ..
            } => Self::Progress {
                iteration: *iteration,
                delta: *delta,
                delta_bits: f64_to_bits_hex(*delta),
                sim_time_s: *sim_time_s,
                sim_time_bits: f64_to_bits_hex(*sim_time_s),
            },
            JobEvent::Completed {
                name,
                iterations,
                stop,
                converged,
                sim_time_s,
            } => Self::Completed {
                name: name.strip_prefix(prefix).unwrap_or(name).to_string(),
                iterations: *iterations,
                stop: format!("{stop:?}"),
                converged: *converged,
                sim_time_s: *sim_time_s,
            },
            JobEvent::Cancelled { iterations } => Self::Cancelled {
                iterations: *iterations,
            },
            JobEvent::Failed { message } => Self::Failed {
                message: message.clone(),
            },
        }
    }
}

/// A finished job's outcome (the wire analog of
/// [`Trained`](ml4all::Trained) plus the bound weights).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WireTrained {
    /// The job.
    pub job: u64,
    /// Terminal status: `completed` / `cancelled` / `failed`.
    pub status: String,
    /// Bound result name (tenant-visible), on success.
    pub name: Option<String>,
    /// Rendered winning plan, on success.
    pub plan: Option<String>,
    /// Iterations executed (success or cancellation).
    pub iterations: Option<u64>,
    /// Whether the tolerance was reached, on success.
    pub converged: Option<bool>,
    /// Simulated training seconds, on success.
    pub sim_time_s: Option<f64>,
    /// Model weights as JSON numbers (round-trip-exact), on success.
    pub weights: Option<Vec<f64>>,
    /// Model weights as IEEE-754 bit patterns (authoritative), on
    /// success.
    pub weights_bits: Option<Vec<String>>,
    /// Rendered error, on failure.
    pub error: Option<String>,
}

/// The server's `Joined` answer written from borrowed parts: it
/// serializes as the whole `Response::Ok(Payload::Joined(..))`, byte for
/// byte what the derived [`WireTrained`] with the same fields encodes
/// to (`tests/wire_semantics.rs` holds the two together), but writes
/// both weight arrays straight from the bound weight slice — no copied
/// vector and no `String` per weight.
#[derive(Debug, Default)]
pub struct JoinedReply<'a> {
    /// The job.
    pub job: u64,
    /// Terminal status: `completed` / `cancelled` / `failed`.
    pub status: &'a str,
    /// Bound result name (tenant-visible), on success.
    pub name: Option<&'a str>,
    /// Rendered winning plan, on success.
    pub plan: Option<String>,
    /// Iterations executed (success or cancellation).
    pub iterations: Option<u64>,
    /// Whether the tolerance was reached, on success.
    pub converged: Option<bool>,
    /// Simulated training seconds, on success.
    pub sim_time_s: Option<f64>,
    /// The bound model weights, on success: written as `weights` and as
    /// `weights_bits`.
    pub weights: Option<&'a [f64]>,
    /// Rendered error, on failure.
    pub error: Option<String>,
}

/// Frame bytes a typical weight takes in both arrays: up to 24 digits
/// and a comma, 18 quoted hex digits and a comma. Longer spellings
/// (tiny or huge magnitudes) only cost the buffer another doubling.
const JOINED_BYTES_PER_WEIGHT: usize = 44;

impl Serialize for JoinedReply<'_> {
    fn serialize(&self, out: &mut Serializer<'_>) {
        if let Some(weights) = self.weights {
            out.reserve(weights.len() * JOINED_BYTES_PER_WEIGHT);
        }
        let mut response = out.begin_object();
        out.key(&mut response, "Ok");
        let mut payload = out.begin_object();
        out.key(&mut payload, "Joined");
        let mut fields = out.begin_object();
        out.field(&mut fields, "job", &self.job);
        out.field(&mut fields, "status", self.status);
        out.field(&mut fields, "name", &self.name);
        out.field(&mut fields, "plan", &self.plan);
        out.field(&mut fields, "iterations", &self.iterations);
        out.field(&mut fields, "converged", &self.converged);
        out.field(&mut fields, "sim_time_s", &self.sim_time_s);
        out.field(&mut fields, "weights", &self.weights);
        out.field(&mut fields, "weights_bits", &self.weights.map(WeightBits));
        out.field(&mut fields, "error", &self.error);
        out.end_object(fields);
        out.end_object(payload);
        out.end_object(response);
    }
}

impl JoinedReply<'_> {
    /// Protocol 2's `Joined` answer as one buffer of two frames: this
    /// reply with `weights` and `weights_bits` null, then, when it carries
    /// weights, the raw block frame, each weight's bit pattern in 8
    /// little-endian bytes. Without weights it is the protocol-1 frame.
    ///
    /// `fits` is asked the buffer's length before the buffer exists, and
    /// `None` comes back if it says no. The JSON is encoded in this
    /// thread's scratch buffer, so the answer with weights costs two
    /// allocations whatever d: the buffer and its shared copy.
    pub fn encode_raw(mut self, fits: impl FnOnce(usize) -> bool) -> io::Result<Option<Arc<[u8]>>> {
        let weights = self.weights.take();
        with_scratch(|header| {
            frame_into(header, |out| self.serialize(&mut Serializer::compact(out)))?;
            let Some(weights) = weights else {
                return Ok(fits(header.len()).then(|| Arc::from(header.as_slice())));
            };
            let len = header.len() + 4 + 8 * weights.len();
            if !fits(len) {
                return Ok(None);
            }
            let mut frame = Vec::with_capacity(len);
            frame.extend_from_slice(header);
            frame_into(&mut frame, |out| {
                for weight in weights {
                    out.extend_from_slice(&weight.to_le_bytes());
                }
            })?;
            Ok(Some(Arc::from(frame)))
        })
    }
}

/// A weight slice as its array of bit patterns.
struct WeightBits<'a>(&'a [f64]);

impl Serialize for WeightBits<'_> {
    fn serialize(&self, out: &mut Serializer<'_>) {
        let mut array = out.begin_array();
        for &weight in self.0 {
            out.element(&mut array, &BitsHex::new(weight));
        }
        out.end_array(array);
    }
}

/// The optimizer's costed plan table (the wire analog of
/// [`OptimizerReport`](ml4all::OptimizerReport)).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireReport {
    /// Served from the plan cache.
    pub cache_hit: bool,
    /// Rendered winning (cheapest) plan.
    pub best: String,
    /// Simulated optimizer overhead: the sample collection plus the
    /// speculative runs made, one per GD variant the request left
    /// choosable.
    pub speculation_sim_s: f64,
    /// Every enumerated plan, cheapest first.
    pub choices: Vec<WireChoice>,
}

/// One row of the plan table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireChoice {
    /// Rendered plan.
    pub plan: String,
    /// Iterations the optimizer expects.
    pub estimated_iterations: u64,
    /// One-time preparation cost (simulated seconds).
    pub preparation_s: f64,
    /// Per-iteration cost (simulated seconds).
    pub per_iteration_s: f64,
    /// Total estimated cost (simulated seconds).
    pub total_s: f64,
    /// Ledger-measured cost, when profiled (`Explain.measured`).
    pub measured_s: Option<f64>,
}

/// Answer to `Stats`: this tenant's admission state and jobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireStats {
    /// The tenant these stats are for.
    pub tenant: String,
    /// This tenant's jobs currently dispatched and unfinished.
    pub in_flight: u64,
    /// This tenant's jobs waiting in the admission queue.
    pub queued: u64,
    /// Bytes of queued request frames counted against the byte quota.
    pub queued_bytes: u64,
    /// Quota: max dispatched-and-unfinished jobs.
    pub quota_max_in_flight: u64,
    /// Quota: max queued request bytes before `busy`.
    pub quota_max_queued_bytes: u64,
    /// Dispatched-and-unfinished jobs across all tenants.
    pub global_in_flight: u64,
    /// The server's global in-flight cap.
    pub global_capacity: u64,
    /// Engine plan-cache hits since boot (shared across tenants).
    pub plan_cache_hits: u64,
    /// Engine plan-cache misses since boot.
    pub plan_cache_misses: u64,
    /// Engine plan-cache entries.
    pub plan_cache_len: u64,
    /// Durability checkpoints written by the engine since boot (0 when
    /// the server runs without `--state-dir`).
    pub checkpoints_written: u64,
    /// Jobs the engine restored from a persisted checkpoint since boot.
    pub jobs_resumed: u64,
    /// Current cost-model calibration generation (`None` when the server
    /// runs with calibration off).
    pub calibration_generation: Option<u64>,
    /// Residual-model confidence in `[0, 1]` at the current generation
    /// (`None` when calibration is off).
    pub calibration_confidence: Option<f64>,
    /// Mid-flight plan switches performed by the engine since boot.
    pub replans: u64,
    /// This tenant's jobs, submission order.
    pub jobs: Vec<WireJob>,
}

/// Answer to `ServerStats`: the reactor's transport counters since boot.
/// All counters are monotone except `active_connections`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireServerStats {
    /// The readiness backend: always `epoll` (the crate is Linux-only).
    pub backend: String,
    /// Connections currently registered with the reactor (including the
    /// one asking).
    pub active_connections: u64,
    /// Connections ever accepted.
    pub total_connections: u64,
    /// Times the event loop woke from its poller (readiness, wake-up
    /// pipe, or timeout).
    pub wakeups: u64,
    /// Payload + header bytes read off sockets.
    pub bytes_in: u64,
    /// Payload + header bytes written to sockets.
    pub bytes_out: u64,
    /// Writes that could not flush a connection's full buffer in one
    /// syscall (backpressure events, not errors).
    pub partial_writes: u64,
    /// Connections dropped for exceeding the per-connection write-buffer
    /// cap (`slow_consumer`).
    pub slow_consumer_disconnects: u64,
}

/// One row of a tenant's job table.
///
/// Its decoder is the derived one's rules and error texts — a missing key
/// reads as `null`, the last duplicate wins — except that a `status`
/// spelling one of the five [`JobStatus::name`] literals borrows that
/// literal: decoding a row allocates for its name only.
#[derive(Debug, Clone, Serialize)]
pub struct WireJob {
    /// Server-assigned job id.
    pub job: u64,
    /// Engine-assigned id once dispatched (`null` while queued).
    pub engine_id: Option<u64>,
    /// Requested result name (tenant-visible).
    pub name: Option<String>,
    /// `queued` / `running` / `completed` / `cancelled` / `failed` — one
    /// of the five literals, borrowed; any other text is owned.
    pub status: Cow<'static, str>,
}

impl Deserialize for WireJob {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, de::Error> {
        let (mut job, mut engine_id, mut name) = (Slot::Missing, Slot::Missing, Slot::Missing);
        let mut status = Slot::Missing;
        de.object_fields("expected object for WireJob", |key, de| match key {
            "job" => job.read(de),
            "engine_id" => engine_id.read(de),
            "name" => name.read(de),
            "status" => status.read_with(de, status_literal),
            _ => de.skip_value(),
        })?;
        Ok(Self {
            job: job.finish()?,
            engine_id: engine_id.finish()?,
            name: name.finish()?,
            status: status.finish()?,
        })
    }
}

/// A row's status text: the [`JobStatus::name`] literal it spells,
/// borrowed, or an owned copy of anything else.
fn status_literal(de: &mut Deserializer<'_>) -> Result<Cow<'static, str>, de::Error> {
    const STATUSES: [JobStatus; 5] = [
        JobStatus::Queued,
        JobStatus::Running,
        JobStatus::Completed,
        JobStatus::Cancelled,
        JobStatus::Failed,
    ];
    if de.begin_value()? != b'"' {
        return Err(de::Error::custom("expected string"));
    }
    let text = de.parse_str()?;
    let literal = STATUSES
        .map(JobStatus::name)
        .into_iter()
        .find(|s| *s == text);
    Ok(literal.map_or_else(|| Cow::Owned(text.into_owned()), Cow::Borrowed))
}

/// One row of a tenant's job table written from borrowed parts: it
/// serializes byte for byte as the derived [`WireJob`] with the same
/// fields, without owning the name.
#[derive(Debug, Clone, Copy)]
pub struct JobRow<'a> {
    /// Server-assigned job id.
    pub job: u64,
    /// Engine-assigned id once dispatched (`null` while queued).
    pub engine_id: Option<u64>,
    /// Requested result name (tenant-visible).
    pub name: Option<&'a str>,
    /// `queued` / `running` / `completed` / `cancelled` / `failed`.
    pub status: &'a str,
}

impl JobRow<'_> {
    /// This row as compact JSON in an exact-size buffer, one allocation:
    /// a finished job's row, encoded once and copied into every `Stats`
    /// answer from then on ([`StatsRows::encoded`]).
    pub fn encode(&self) -> EncodedRow {
        with_scratch(|buf| {
            self.serialize(&mut Serializer::compact(buf));
            EncodedRow(buf.as_slice().into())
        })
    }
}

impl Serialize for JobRow<'_> {
    fn serialize(&self, out: &mut Serializer<'_>) {
        let mut fields = out.begin_object();
        out.field(&mut fields, "job", &self.job);
        out.field(&mut fields, "engine_id", &self.engine_id);
        out.field(&mut fields, "name", &self.name);
        out.field(&mut fields, "status", self.status);
        out.end_object(fields);
    }
}

/// A [`JobRow`] as compact JSON ([`JobRow::encode`]) — the only text
/// [`StatsRows::encoded`] splices into a frame.
#[derive(Debug, Clone)]
pub struct EncodedRow(Box<[u8]>);

/// The server's `Stats` answer written from borrowed parts: the fields of
/// [`WireStats`] but its rows, which the caller feeds through
/// [`StatsRows`] — each a [`JobRow`] encoded on the spot or an
/// [`EncodedRow`] copied in. The frame is byte for byte what the derived
/// `WireStats` with the same fields and rows encodes to
/// (`tests/wire_semantics.rs` holds the two together). It has one writer,
/// the compact frame of [`StatsReply::encode_shared`], and is no
/// [`Serialize`] value: copied rows are compact text that a pretty writer
/// could not lay out.
#[derive(Debug, Default)]
pub struct StatsReply<'a> {
    /// The tenant these stats are for.
    pub tenant: &'a str,
    /// This tenant's jobs currently dispatched and unfinished.
    pub in_flight: u64,
    /// This tenant's jobs waiting in the admission queue.
    pub queued: u64,
    /// Bytes of queued request frames counted against the byte quota.
    pub queued_bytes: u64,
    /// Quota: max dispatched-and-unfinished jobs.
    pub quota_max_in_flight: u64,
    /// Quota: max queued request bytes before `busy`.
    pub quota_max_queued_bytes: u64,
    /// Dispatched-and-unfinished jobs across all tenants.
    pub global_in_flight: u64,
    /// The server's global in-flight cap.
    pub global_capacity: u64,
    /// Engine plan-cache hits since boot (shared across tenants).
    pub plan_cache_hits: u64,
    /// Engine plan-cache misses since boot.
    pub plan_cache_misses: u64,
    /// Engine plan-cache entries.
    pub plan_cache_len: u64,
    /// Durability checkpoints written by the engine since boot.
    pub checkpoints_written: u64,
    /// Jobs the engine restored from a persisted checkpoint since boot.
    pub jobs_resumed: u64,
    /// Current cost-model calibration generation (`None` when off).
    pub calibration_generation: Option<u64>,
    /// Residual-model confidence at the current generation (`None` when
    /// off).
    pub calibration_confidence: Option<f64>,
    /// Mid-flight plan switches performed by the engine since boot.
    pub replans: u64,
}

/// Frame bytes a `Stats` answer reserves up front for its header fields.
const STATS_HEADER_BYTES: usize = 512;

/// … and per row: a row of short name and ids takes about 64, separator
/// included. Longer rows only cost the buffer another doubling.
const STATS_BYTES_PER_ROW: usize = 72;

impl StatsReply<'_> {
    /// Encode the whole `Response::Ok(Payload::Stats(..))` frame, shared
    /// as `Arc<[u8]>` in one allocation as [`encode_shared_frame`] does.
    /// `rows` writes the job table, in order; `rows_hint`, how many rows
    /// it writes at most, sizes the buffer once up front.
    pub fn encode_shared(
        &self,
        rows_hint: usize,
        rows: impl FnOnce(&mut StatsRows<'_>),
    ) -> io::Result<Arc<[u8]>> {
        with_scratch(|buf| {
            buf.reserve(STATS_HEADER_BYTES + rows_hint * STATS_BYTES_PER_ROW);
            frame_into(buf, |buf| self.write(buf, rows)).map(|()| Arc::from(buf.as_slice()))
        })
    }

    fn write(&self, buf: &mut Vec<u8>, rows: impl FnOnce(&mut StatsRows<'_>)) {
        let mut out = Serializer::compact(buf);
        let mut response = out.begin_object();
        out.key(&mut response, "Ok");
        let mut payload = out.begin_object();
        out.key(&mut payload, "Stats");
        let mut fields = out.begin_object();
        out.field(&mut fields, "tenant", self.tenant);
        out.field(&mut fields, "in_flight", &self.in_flight);
        out.field(&mut fields, "queued", &self.queued);
        out.field(&mut fields, "queued_bytes", &self.queued_bytes);
        out.field(
            &mut fields,
            "quota_max_in_flight",
            &self.quota_max_in_flight,
        );
        out.field(
            &mut fields,
            "quota_max_queued_bytes",
            &self.quota_max_queued_bytes,
        );
        out.field(&mut fields, "global_in_flight", &self.global_in_flight);
        out.field(&mut fields, "global_capacity", &self.global_capacity);
        out.field(&mut fields, "plan_cache_hits", &self.plan_cache_hits);
        out.field(&mut fields, "plan_cache_misses", &self.plan_cache_misses);
        out.field(&mut fields, "plan_cache_len", &self.plan_cache_len);
        out.field(
            &mut fields,
            "checkpoints_written",
            &self.checkpoints_written,
        );
        out.field(&mut fields, "jobs_resumed", &self.jobs_resumed);
        out.field(
            &mut fields,
            "calibration_generation",
            &self.calibration_generation,
        );
        out.field(
            &mut fields,
            "calibration_confidence",
            &self.calibration_confidence,
        );
        out.field(&mut fields, "replans", &self.replans);
        out.key(&mut fields, "jobs");
        let jobs = out.begin_array();
        let mut table = StatsRows { out, jobs };
        rows(&mut table);
        let StatsRows { mut out, jobs } = table;
        out.end_array(jobs);
        out.end_object(fields);
        out.end_object(payload);
        out.end_object(response);
    }
}

/// The job table of a [`StatsReply`] being written: rows go out in the
/// order they are handed in.
#[derive(Debug)]
pub struct StatsRows<'b> {
    out: Serializer<'b>,
    jobs: Compound,
}

impl StatsRows<'_> {
    /// A row encoded on the spot: a queued or running job, whose status
    /// still moves.
    pub fn row(&mut self, row: &JobRow<'_>) {
        self.out.element(&mut self.jobs, row);
    }

    /// A row encoded earlier, copied as it is: a finished job, whose row
    /// no longer changes.
    pub fn encoded(&mut self, row: &EncodedRow) {
        self.out.raw_element(&mut self.jobs, &row.0);
    }
}

// ---------------------------------------------------------------------
// Bit-exact float transport
// ---------------------------------------------------------------------

/// An `f64`'s bit pattern as 16 lowercase hex digits, on the stack: the
/// one nibble writer behind [`f64_to_bits_hex`] and `Joined`'s
/// `weights_bits`.
struct BitsHex([u8; 16]);

impl BitsHex {
    fn new(x: f64) -> Self {
        let bits = x.to_bits();
        let mut digits = [0; 16];
        for (i, digit) in digits.iter_mut().enumerate() {
            *digit = b"0123456789abcdef"[(bits >> (60 - 4 * i)) as usize & 0xf];
        }
        Self(digits)
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }
}

impl Serialize for BitsHex {
    fn serialize(&self, out: &mut Serializer<'_>) {
        out.ident(self.as_str());
    }
}

/// The authoritative wire form of an `f64`: its IEEE-754 bit pattern as
/// 16 lowercase hex digits.
pub fn f64_to_bits_hex(x: f64) -> String {
    BitsHex::new(x).as_str().to_owned()
}

/// Parse [`f64_to_bits_hex`]'s output back to the identical float.
///
/// Only the canonical spelling is a bit pattern: exactly 16 ASCII hex
/// digits, lowercase as the encoder writes them. A sign, uppercase
/// digits, any other length or a non-ASCII character is `None` — a
/// string this function accepts re-encodes to itself.
pub fn f64_from_bits_hex(s: &str) -> Option<f64> {
    let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    if !canonical {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

impl WireTrained {
    /// Fill `weights` and `weights_bits` from a protocol-2 weight block,
    /// bit for bit what the protocol-1 JSON carries: the numbers keep
    /// every bit, NaN payloads included, and the bit patterns are spelled
    /// as [`f64_to_bits_hex`] spells them. This costs a `String` per
    /// weight and two exact-size vectors. A block whose length is not a
    /// multiple of 8, or a `Joined` that already carries weights, is
    /// refused with a description.
    pub fn attach_weight_block(&mut self, block: &[u8]) -> Result<(), String> {
        if self.weights.is_some() || self.weights_bits.is_some() {
            return Err("a Joined followed by a weight block carries weights of its own".into());
        }
        if !block.len().is_multiple_of(8) {
            return Err(format!(
                "a weight block of {} bytes is not a whole number of 8-byte weights",
                block.len()
            ));
        }
        let weights: Vec<f64> = block
            .chunks_exact(8)
            .map(|bytes| f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
            .collect();
        self.weights_bits = Some(weights.iter().copied().map(f64_to_bits_hex).collect());
        self.weights = Some(weights);
        Ok(())
    }
}

/// Encode a weight vector in both wire forms (numbers + bit patterns).
pub fn encode_weights(weights: &[f64]) -> (Vec<f64>, Vec<String>) {
    (
        weights.to_vec(),
        weights.iter().copied().map(f64_to_bits_hex).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"a\":1}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut reader = io::Cursor::new(buf);
        let FrameIn::Frame(first) = read_frame(&mut reader, 64).unwrap() else {
            panic!("expected frame");
        };
        assert_eq!(first, b"{\"a\":1}");
        let FrameIn::Frame(second) = read_frame(&mut reader, 64).unwrap() else {
            panic!("expected frame");
        };
        assert!(second.is_empty());
        assert!(matches!(read_frame(&mut reader, 64).unwrap(), FrameIn::Eof));
    }

    #[test]
    fn oversized_frames_are_drained_and_the_stream_stays_in_sync() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b'x'; 100]).unwrap();
        write_frame(&mut buf, b"ok").unwrap();
        let mut reader = io::Cursor::new(buf);
        let FrameIn::Oversized { len } = read_frame(&mut reader, 10).unwrap() else {
            panic!("expected oversized");
        };
        assert_eq!(len, 100);
        // The next frame is intact: the oversized payload was drained.
        let FrameIn::Frame(next) = read_frame(&mut reader, 10).unwrap() else {
            panic!("expected frame");
        };
        assert_eq!(next, b"ok");
    }

    #[test]
    fn truncated_frames_error_instead_of_hanging_state() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(6); // header + 2 of 5 payload bytes
        let mut reader = io::Cursor::new(buf);
        let err = read_frame(&mut reader, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Feed `input` to `decoder` in `chunk`-byte slices, collecting
    /// every completed item.
    fn drive(decoder: &mut FrameDecoder, input: &[u8], chunk: usize) -> Vec<Decoded> {
        let mut out = Vec::new();
        for piece in input.chunks(chunk) {
            let mut offset = 0;
            while offset < piece.len() {
                let (used, item) = decoder.advance(&piece[offset..]);
                assert!(used > 0, "decoder must always make progress");
                offset += used;
                out.extend(item);
            }
        }
        out
    }

    #[test]
    fn decoder_matches_blocking_reads_at_every_chunk_size() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"{\"a\":1}").unwrap();
        write_frame(&mut stream, b"").unwrap();
        write_frame(&mut stream, &[b'x'; 100]).unwrap(); // oversized at cap 64
        write_frame(&mut stream, b"after").unwrap();
        for chunk in [1, 2, 3, 5, 7, stream.len()] {
            let mut decoder = FrameDecoder::new(64);
            let items = drive(&mut decoder, &stream, chunk);
            assert_eq!(items.len(), 4, "chunk={chunk}");
            assert!(matches!(&items[0], Decoded::Frame(f) if f == b"{\"a\":1}"));
            assert!(matches!(&items[1], Decoded::Frame(f) if f.is_empty()));
            assert!(matches!(items[2], Decoded::Oversized { len: 100 }));
            assert!(matches!(&items[3], Decoded::Frame(f) if f == b"after"));
            assert!(!decoder.mid_frame(), "chunk={chunk}");
        }
    }

    /// A reader that hands out at most `step` bytes per call, whichever
    /// of its two traits it is read through.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(self.data.len()).min(buf.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    impl io::BufRead for Trickle<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            Ok(&self.data[..self.step.min(self.data.len())])
        }

        fn consume(&mut self, n: usize) {
            self.data = &self.data[n..];
        }
    }

    /// `read_frame` over `stream` must report what a [`FrameDecoder`]
    /// fed the same bytes reports: the same items, each leaving the same
    /// bytes unread, then `Eof` at a boundary or `UnexpectedEof` inside
    /// a frame.
    fn assert_blocking_reads_match_the_decoder(stream: &[u8], max_frame: usize, step: usize) {
        let mut decoder = FrameDecoder::new(max_frame);
        let mut reader = Trickle { data: stream, step };
        let mut offset = 0;
        while offset < stream.len() {
            let (used, item) = decoder.advance(&stream[offset..]);
            offset += used;
            let Some(item) = item else { continue };
            let read = read_frame(&mut reader, max_frame).expect("a complete frame reads");
            match (item, read) {
                (Decoded::Frame(want), FrameIn::Frame(got)) => assert_eq!(want, got),
                (Decoded::Oversized { len: want }, FrameIn::Oversized { len: got }) => {
                    assert_eq!(want, got);
                }
                (want, got) => panic!("decoder saw {want:?}, read_frame saw {got:?}"),
            }
            assert_eq!(
                reader.data.len(),
                stream.len() - offset,
                "nothing past the frame is consumed"
            );
        }
        match read_frame(&mut reader, max_frame) {
            Ok(FrameIn::Eof) => assert!(!decoder.mid_frame()),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => assert!(decoder.mid_frame()),
            other => panic!("expected end of stream, got {other:?}"),
        }
    }

    #[test]
    fn blocking_reads_match_the_decoder_on_random_and_truncated_streams() {
        const CAP: usize = 16;
        let mut rng = proptest::TestRng::for_test("blocking_reads_match_the_decoder");
        for _ in 0..64 {
            let mut stream = Vec::new();
            for _ in 0..1 + rng.below(5) {
                let len = match rng.below(5) {
                    0 => 0,
                    1 => CAP,
                    2 => CAP + 1,
                    3 => CAP + 1 + rng.below(48) as usize,
                    _ => rng.below(CAP as u64) as usize,
                };
                let payload: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                write_frame(&mut stream, &payload).unwrap();
            }
            // An oversized frame, then a valid one: the stream stays in
            // sync past the drain.
            write_frame(&mut stream, &[b'x'; 3 * CAP]).unwrap();
            write_frame(&mut stream, b"valid").unwrap();
            for step in [1, stream.len()] {
                assert_blocking_reads_match_the_decoder(&stream, CAP, step);
                for cut in 0..stream.len() {
                    assert_blocking_reads_match_the_decoder(&stream[..cut], CAP, step);
                }
            }
        }
    }

    #[test]
    fn decoder_reports_mid_frame_for_half_open_peers() {
        let mut decoder = FrameDecoder::new(64);
        assert!(!decoder.mid_frame());
        // Two header bytes, then silence: mid-frame.
        decoder.advance(&[0, 0]);
        assert!(decoder.mid_frame());
        // The rest of the header announcing 5 bytes, 2 of 5 delivered:
        // still mid-frame.
        decoder.advance(&[0, 5]);
        decoder.advance(b"he");
        assert!(decoder.mid_frame());
        let (_, item) = decoder.advance(b"llo");
        assert!(matches!(item, Some(Decoded::Frame(f)) if f == b"hello"));
        assert!(!decoder.mid_frame());
    }

    #[test]
    fn decoder_never_buffers_oversized_payloads() {
        let mut decoder = FrameDecoder::new(16);
        let huge = u32::MAX;
        let (used, item) = decoder.advance(&huge.to_be_bytes());
        assert_eq!(used, 4);
        assert!(item.is_none());
        // 4 GiB announced, fed in 1 KiB slices: constant memory, and the
        // item surfaces exactly when the count runs out.
        let junk = [0u8; 1024];
        let mut remaining = u64::from(huge);
        loop {
            let (used, item) = decoder.advance(&junk[..junk.len().min(remaining as usize)]);
            remaining -= used as u64;
            if let Some(item) = item {
                assert!(matches!(item, Decoded::Oversized { len } if len == huge));
                break;
            }
        }
        assert_eq!(remaining, 0);
        assert!(!decoder.mid_frame());
    }

    #[test]
    fn encode_frame_bytes_equal_write_message_bytes() {
        let message = Response::Ok(Payload::Submitted { job: 9 });
        let mut written = Vec::new();
        write_message(&mut written, &message).unwrap();
        assert_eq!(encode_frame(&message).unwrap(), written);
    }

    #[test]
    fn requests_round_trip_through_json() {
        let requests = [
            Request::Hello {
                tenant: "acme".into(),
                protocol: Some(PROTOCOL_VERSION),
            },
            Request::Submit {
                train: WireTrain::new("logistic", WireSource::Registry("adult".into())),
            },
            Request::Observe { job: 7, from: None },
            Request::Cancel { job: 7 },
            Request::Stats,
        ];
        for request in &requests {
            let text = serde_json::to_string(request).unwrap();
            let back: Request = serde_json::from_str(&text).unwrap();
            // Round-trip sameness via re-serialization (no PartialEq on
            // the wire types).
            assert_eq!(text, serde_json::to_string(&back).unwrap());
        }
    }

    #[test]
    fn unit_verbs_serialize_as_plain_strings() {
        assert_eq!(serde_json::to_string(&Request::Stats).unwrap(), "\"Stats\"");
    }

    #[test]
    fn bits_hex_is_exact_for_awkward_floats() {
        for x in [
            0.1f64,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.5e-300,
            -0.0,
            6.02214076e23,
        ] {
            let hex = f64_to_bits_hex(x);
            assert_eq!(hex.len(), 16);
            let back = f64_from_bits_hex(&hex).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        assert_eq!(f64_from_bits_hex("xyz"), None);
        assert_eq!(f64_from_bits_hex("3ff"), None);
    }

    #[test]
    fn bits_hex_accepts_only_the_canonical_spelling() {
        assert_eq!(f64_to_bits_hex(1.0), "3ff0000000000000");
        assert_eq!(f64_to_bits_hex(-0.0), "8000000000000000");
        assert_eq!(
            f64_to_bits_hex(f64::from_bits(0x0123_4567_89ab_cdef)),
            "0123456789abcdef"
        );
        assert_eq!(f64_from_bits_hex("3ff0000000000000"), Some(1.0));
        for refused in [
            "+ff0000000000000", // sign + 15 digits: `from_str_radix` takes it
            "-ff0000000000000",
            "3FF0000000000000",  // uppercase is not what the encoder writes
            "3ff000000000000",   // 15 digits
            "3ff00000000000000", // 17 digits
            "3ff00000000000é",   // 16 bytes, not ASCII
            "３ff000000000000",  // full-width digit
            " 3ff000000000000",
            "0x3ff00000000000",
            "",
        ] {
            assert_eq!(f64_from_bits_hex(refused), None, "{refused:?}");
        }
    }

    #[test]
    fn frames_are_encoded_in_place_behind_their_header() {
        let message = Response::Ok(Payload::Submitted { job: 9 });
        let payload = serde_json::to_string(&message).unwrap();
        let mut buf = b"keep".to_vec();
        encode_frame_into(&mut buf, &message).unwrap();
        encode_frame_into(&mut buf, &Request::Stats).unwrap();
        let mut expected = b"keep".to_vec();
        write_frame(&mut expected, payload.as_bytes()).unwrap();
        write_frame(&mut expected, b"\"Stats\"").unwrap();
        assert_eq!(buf, expected);
    }

    #[test]
    fn wire_train_lowers_onto_a_validated_request() {
        let mut wire = WireTrain::new("logistic", WireSource::Registry("adult".into()));
        wire.max_iter = Some(25);
        wire.algorithm = Some("mgd".into());
        wire.sampler = Some("shuffle".into());
        wire.seed = Some(42);
        let request = wire.to_request().unwrap();
        assert_eq!(request.seed, 42);
        assert!(matches!(
            request.spec.algorithm,
            Some(AlgorithmPin::MiniBatch { batch: None })
        ));

        // Bad values are refused at the door with a typed code.
        let mut bad = WireTrain::new("logistic", WireSource::Registry("adult".into()));
        bad.epsilon = Some(-1.0);
        assert_eq!(bad.to_request().unwrap_err().code, code::INVALID_REQUEST);
        let unknown = WireTrain::new("quadratic", WireSource::Registry("adult".into()));
        assert_eq!(
            unknown.to_request().unwrap_err().code,
            code::INVALID_REQUEST
        );
    }

    /// Every spelling each front end accepts today, pinned: the wire's
    /// `WireTrain` fields, the statement planner, and the model-file
    /// header. The fronts diverge on purpose: on the wire `classification`
    /// means logistic, in the language it is Table 3's hinge task.
    #[test]
    fn front_end_spellings_are_pinned() {
        use ml4all_core::lang::{parse_statement, train_spec, Query, TrainSpec};
        use AlgorithmPin::{Batch, MiniBatch, Stochastic};
        use GradientKind::Svm as Hinge;
        use GradientKind::{LinearRegression as Squared, LogisticRegression as Logistic};
        use SamplingMethod::{Bernoulli, RandomPartition as Random, ShuffledPartition as Shuffle};
        const MGD: AlgorithmPin = MiniBatch { batch: None };

        let wire = |edit: &dyn Fn(&mut WireTrain)| -> Option<TrainSpec> {
            let mut train = WireTrain::new("logistic", WireSource::Registry("adult".into()));
            edit(&mut train);
            train.to_request().ok().map(|request| request.spec)
        };
        for (name, kind) in [
            ("squared", Squared),
            ("linear", Squared),
            ("logistic", Logistic),
            ("classification", Logistic),
            ("hinge", Hinge),
            ("svm", Hinge),
        ] {
            let spec = wire(&|t| t.gradient = name.into());
            assert_eq!(spec.map(|s| s.gradient), Some(kind), "wire gradient {name}");
        }
        for (name, pin) in [
            ("bgd", Batch),
            ("batch", Batch),
            ("sgd", Stochastic),
            ("stochastic", Stochastic),
            ("mgd", MGD),
            ("minibatch", MGD),
        ] {
            let spec = wire(&|t| t.algorithm = Some(name.into()));
            assert_eq!(
                spec.and_then(|s| s.algorithm),
                Some(pin),
                "wire algorithm {name}"
            );
        }
        for (name, sampler) in [
            ("bernoulli", Bernoulli),
            ("random", Random),
            ("random-partition", Random),
            ("shuffle", Shuffle),
            ("shuffled-partition", Shuffle),
        ] {
            let spec = wire(&|t| t.sampler = Some(name.into()));
            assert_eq!(
                spec.and_then(|s| s.sampler),
                Some(sampler),
                "wire sampler {name}"
            );
        }
        for name in ["Logistic", "regression", "hinge()", ""] {
            assert!(
                wire(&|t| t.gradient = name.into()).is_none(),
                "wire gradient {name}"
            );
        }
        for name in ["BGD", "mini-batch"] {
            let spec = wire(&|t| t.algorithm = Some(name.into()));
            assert!(spec.is_none(), "wire algorithm {name}");
        }
        for name in ["Bernoulli", "shuffled", "random_partition"] {
            let spec = wire(&|t| t.sampler = Some(name.into()));
            assert!(spec.is_none(), "wire sampler {name}");
        }

        let statement = |task: &str, using: &str| -> Option<TrainSpec> {
            let parsed = parse_statement(&format!("run {task} on d.txt{using};")).ok()?;
            let Query::Run(run) = parsed.query else {
                return None;
            };
            train_spec(&run).ok()
        };
        for (task, kind) in [
            ("classification", Hinge),
            ("CLASSIFICATION", Hinge),
            ("regression", Squared),
            ("hinge()", Hinge),
            ("Hinge()", Hinge),
            ("logistic()", Logistic),
            ("squared()", Squared),
        ] {
            let spec = statement(task, "");
            assert_eq!(
                spec.map(|s| s.gradient),
                Some(kind),
                "statement task {task}"
            );
        }
        for (name, pin) in [
            ("BGD", Batch),
            ("batch", Batch),
            ("Sgd", Stochastic),
            ("STOCHASTIC", Stochastic),
            ("MGD", MGD),
            ("minibatch", MGD),
            ("mini-batch", MGD),
        ] {
            let spec = statement("hinge()", &format!(" using algorithm {name}"));
            assert_eq!(
                spec.and_then(|s| s.algorithm),
                Some(pin),
                "statement algorithm {name}"
            );
        }
        for (name, sampler) in [
            ("bernoulli", Bernoulli),
            ("random", Random),
            ("random_partition", Random),
            ("random-partition", Random),
            ("shuffled", Shuffle),
            ("Shuffle", Shuffle),
            ("shuffled_partition", Shuffle),
            ("shuffled-partition()", Shuffle),
        ] {
            let spec = statement("hinge()", &format!(" using sampler {name}"));
            assert_eq!(
                spec.and_then(|s| s.sampler),
                Some(sampler),
                "statement sampler {name}"
            );
        }
        for task in ["logistic", "svm()", "linear()", "classification()"] {
            assert!(statement(task, "").is_none(), "statement task {task}");
        }
        assert!(statement("hinge()", " using algorithm gd").is_none());
        assert!(statement("hinge()", " using sampler reservoir").is_none());

        let dir = std::env::temp_dir().join(format!("ml4all-spellings-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model = |gradient: &str| {
            let path = dir.join("model.txt");
            std::fs::write(
                &path,
                format!("ml4all-model v1\ngradient:{gradient}\ndims: 1\n0\n"),
            )
            .unwrap();
            ml4all::Model::load(&path).ok().map(|model| model.gradient)
        };
        for (name, kind) in [
            (" hinge", Hinge),
            (" logistic", Logistic),
            (" squared ", Squared),
        ] {
            assert_eq!(model(name), Some(kind), "model header {name}");
        }
        for name in [" svm", " Logistic", " linear", " classification"] {
            assert_eq!(model(name), None, "model header {name}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
