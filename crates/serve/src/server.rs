//! The TCP serving front end: a reactor-driven event loop multiplexing
//! every connection on one thread.
//!
//! ## Architecture
//!
//! ```text
//!                 ┌────────────────────────────────────────────┐
//!  TCP clients ──▶│ reactor thread (epoll, 1 thread)            │
//!                 │  accept · decode · verbs · admission drain  │
//!                 │  owns the job table and every job's frames  │
//!                 │  observer fan-out · bounded write buffers   │
//!                 └───────┬────────────────────▲───────────────┘
//!      training jobs,     │                    │ Action queue + waker
//!      Explain, Predict,  │                    │ (Event, Finished, Respond)
//!      protocol-1 Joins   │                    │
//!                 ┌───────▼────────────────────┴───────────────┐
//!                 │ engine runtime: one worker pool, one lane   │
//!                 │ per tenant (EventSink encodes each event    │
//!                 │ and the ObserveEnd frame, then posts them)  │
//!                 └────────────────────────────────────────────┘
//! ```
//!
//! The reactor ([`crate::reactor`]) owns every socket: nonblocking
//! reads feed an incremental [`FrameDecoder`], and verbs that answer
//! from in-memory state (`Hello`, `Submit`, `Cancel`, `Join`, `Observe`,
//! `Stats`, `ServerStats`) run inline. Everything that computes runs on
//! the engine's runtime, the process's one worker pool, in the
//! requesting tenant's lane: admitted training jobs, and the lane verbs
//! (`Explain`, `Predict`, and a protocol-1 `Join` of a finished job),
//! which stay outside the admission quotas and answer through the action
//! queue. Within a lane jobs run FIFO, across lanes round-robin, so one
//! tenant's burst of cold `Explain`s cannot hold back another tenant's
//! `Predict`. The reactor alone owns the job table and every job's
//! frames, unlocked: a training job's worker serializes each
//! [`ml4all::JobEvent`] **once** into a length-prefixed frame shared
//! (`Arc<[u8]>`) by every observer and posts it as an `Event`, then its
//! `ObserveEnd` frame and outcome as `Finished`.
//! So a thousand idle observers cost file descriptors and buffer space,
//! not threads, and replay from any sequence number is a buffer copy.
//! Applying `Finished`, the reactor encodes the job's `Stats` row once,
//! and answers `Stats` by copying finished rows into the frame.
//!
//! A finished job keeps its `Joined` answer as `JoinedParts` — the
//! outcome's fields and the job's own model, shared with the engine's
//! registry — and no encoded `Joined` frame: an answer is encoded only
//! when a `Join` asks for it, under the protocol its connection
//! negotiated, and lives until it is written. A protocol-2 `Join` is
//! answered by the reactor on the spot, the small JSON header and a copy
//! of the model's 8·d bytes behind it. A protocol-1 `Join` of a finished
//! job is a lane verb like `Explain`/`Predict`: it leaves the job's
//! waiters, and the tenant's lane encodes the JSON frame from the parts.
//! So the history holds each model once, as `f64`s, and the reactor never
//! formats weights.
//!
//! Outbound data sits in a per-connection write buffer capped at
//! [`ServeConfig::max_write_buffer`] bytes, under one rule: a frame fits
//! if it stays under the cap, or if it is larger than the whole cap and
//! the buffer is empty. Everything a connection waits on is paced by that
//! rule — an `Observe`'s events and terminal frame, a `Join`'s answer, a
//! lane verb's answer — and topped up as the socket drains, so a large
//! backlog or a large answer is lag, never an offence. An inline answer
//! that does not fit a non-empty buffer, or an observer whose socket
//! absorbs nothing while its stream keeps producing, makes the peer a
//! slow consumer: its undelivered whole frames are dropped, it receives a
//! final typed `slow_consumer` error frame, and is disconnected once that
//! drains — the partially-written head frame is always completed first so
//! the stream stays frame-aligned to the end.
//!
//! Determinism: the server adds no randomness and no wall-clock values
//! to any response — a wire-submitted job runs the exact
//! [`Engine::submit`] code path (same plan-cache key, same RNG
//! streams), so its weights are bit-identical to the same request
//! submitted in process. Transport-level counters (wake-ups, bytes)
//! are nondeterministic and therefore live in the separate
//! `ServerStats` verb, never in `Stats`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ml4all::RNG_STREAM_VERSION;
use ml4all::{Engine, EventSink, JobEvent, JobHandle, JobStatus, ModelRef, PredictRequest};
use ml4all::{ExplainRequest, GdPlan, Model, SessionError, TrainRequest, Trained};

use crate::admission::{Admission, TenantQuota};
use crate::protocol::{
    self, code, encode_shared_frame, Decoded, EncodedRow, FrameDecoder, JobRow, JoinedReply,
    Payload, Request, Response, StatsReply, WireError, WireEvent, WireServerStats,
    DEFAULT_MAX_FRAME, PROTOCOL_RAW_WEIGHTS, PROTOCOL_VERSION,
};
use crate::reactor::{Event, Interest, Poller, Waker};

/// Server configuration: address, framing cap, and admission policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Frame payload cap in bytes; larger frames are drained and
    /// refused with `oversized_frame`.
    pub max_frame: usize,
    /// Max jobs dispatched-and-unfinished across all tenants.
    pub global_in_flight: usize,
    /// Quota for tenants without an explicit entry.
    pub default_quota: TenantQuota,
    /// Per-tenant quota overrides.
    pub tenant_quotas: Vec<(String, TenantQuota)>,
    /// Cap on a connection's buffered outbound bytes. Everything a
    /// connection waits on — `Observe`, `Join`, and the `Explain`/`Predict`
    /// answers from the lane — is paced through it; an inline answer may
    /// overshoot it only into an empty buffer, and one that overflows a
    /// non-empty buffer is a `slow_consumer` disconnect (see the module
    /// docs).
    pub max_write_buffer: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_frame: DEFAULT_MAX_FRAME,
            global_in_flight: 8,
            default_quota: TenantQuota::default(),
            tenant_quotas: Vec::new(),
            max_write_buffer: 4 << 20,
        }
    }
}

/// Deficit-round-robin credit per admission lane visit, in bytes.
const DRR_QUANTUM: usize = 4096;

/// Served jobs kept for replay after they finish. Terminal jobs beyond
/// this count are pruned on submit, each the oldest of the tenant holding
/// the most ([`Jobs::prune`]). A retained job holds about 8·d bytes for
/// its model's d weights, plus its event frames, its `Stats` row and its
/// record: ≈ 2.2 KB at d = 123. No `Joined` frame is kept: a protocol-1
/// one, ≈ 32·d bytes of JSON text, lives only until it is written.
const SERVED_HISTORY_CAP: usize = 4096;

/// Parsed requests a connection may queue while a verb is pending;
/// beyond this the reactor stops reading from it (TCP backpressure).
const INBOX_PAUSE: usize = 32;

/// Event deliveries an observer may sit out — write buffer saturated,
/// cursor not advancing — before it is disconnected as a slow
/// consumer. Replay is paced by the write cap, so a reader that merely
/// lags a large backlog keeps its cursor moving and never strikes out;
/// only a peer whose socket absorbs nothing while the stream keeps
/// producing accumulates strikes.
const OBSERVER_STALL_STRIKES: u32 = 4;

/// The listener's poller token; connections count up from
/// [`FIRST_CONN_TOKEN`].
const LISTENER_TOKEN: u64 = 0;
const FIRST_CONN_TOKEN: u64 = 2;

/// A finished job's record. Its weights live once, in the model its
/// [`JoinedParts`] share with the engine's registry; no `Joined` frame is
/// kept.
struct Finished {
    /// The job's `Stats` row, final — status `completed`, `cancelled` or
    /// `failed` — and encoded once.
    row: EncodedRow,
    /// Pre-framed `ObserveEnd` response.
    end: Arc<[u8]>,
    /// What every `Joined` answer of the job is encoded from.
    parts: JoinedParts,
}

/// One wire-submitted job and its progress, owned by the reactor. Events
/// are stored pre-framed — serialized exactly once by the job's worker,
/// shared by every observer, indexed by sequence number.
#[derive(Default)]
struct ServedJob {
    id: u64,
    /// The owning tenant, shared with its connections.
    tenant: Arc<str>,
    /// Tenant-visible result name (always set; the engine sees it
    /// prefixed with `tenant:`).
    name: String,
    /// The engine's handle while the job runs: its status and
    /// cancellation. `None` while queued, for a job cancelled before its
    /// turn came, and once finished — dropping it frees the engine's copy
    /// of the outcome, bound weights included, which the history of
    /// finished jobs would otherwise keep.
    handle: Option<JobHandle>,
    /// The engine's id for the job, once dispatched.
    engine_id: Option<u64>,
    cancel_requested: bool,
    /// `frames[seq]` is the complete `Event{seq, …}` response frame.
    frames: Vec<Arc<[u8]>>,
    /// Set by the job's last action, after its last event frame, so
    /// `Some` implies `frames` is complete.
    finished: Option<Finished>,
    /// Tokens of the connections observing or joining the job; a job
    /// with waiters is never pruned.
    waiters: Vec<u64>,
}

impl ServedJob {
    fn new(id: u64, tenant: Arc<str>, name: String) -> Self {
        Self {
            id,
            tenant,
            name,
            ..Self::default()
        }
    }

    /// The job's `Stats` row under `status`.
    fn row(&self, status: JobStatus) -> JobRow<'_> {
        JobRow {
            job: self.id,
            engine_id: self.engine_id,
            name: Some(&self.name),
            status: status.name(),
        }
    }

    /// Drop `token` from the waiters. A terminal job's list gives its
    /// capacity back once the last waiter leaves: `retain` keeps it.
    fn unwait(&mut self, token: u64) {
        self.waiters.retain(|&t| t != token);
        if self.waiters.is_empty() && self.finished.is_some() {
            self.waiters = Vec::new();
        }
    }
}

/// Work pool workers hand to the reactor through [`Shared::post`]. A
/// worker only encodes; the reactor, the one owner of the job table,
/// applies what it is posted.
enum Action {
    /// A lane verb's answer: park `frame` on connection `token`'s pending
    /// verb, for the paced top-up to queue.
    Respond { token: u64, frame: Arc<[u8]> },
    /// Job `job`'s event `seq`, pre-framed, to append to its frames.
    Event {
        job: u64,
        seq: u64,
        frame: Arc<[u8]>,
    },
    /// Job `job` ended, after its last event: the parts of its `Joined`
    /// answer, and its pre-framed `ObserveEnd` answer.
    Finished {
        job: u64,
        parts: JoinedParts,
        end: Arc<[u8]>,
    },
}

struct Shared {
    engine: Engine,
    config: ServeConfig,
    protocol_errors: AtomicU64,
    shutdown: AtomicBool,
    actions: Mutex<VecDeque<Action>>,
    waker: Waker,
}

impl Shared {
    fn new(engine: Engine, config: ServeConfig, waker: Waker) -> Self {
        Self {
            engine,
            config,
            protocol_errors: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            actions: Mutex::new(VecDeque::new()),
            waker,
        }
    }

    /// Hand `action` to the reactor. Only the push that makes the queue
    /// non-empty writes the wake pipe: the reactor pops until the queue is
    /// empty on every wake-up, so a push onto a non-empty queue is already
    /// covered by the wake before it.
    fn post(&self, action: Action) {
        let mut queue = self.actions.lock().expect("action queue");
        queue.push_back(action);
        let first = queue.len() == 1;
        drop(queue);
        if first {
            self.waker.wake();
        }
    }

    /// The reactor's next action, in posting order.
    fn next_action(&self) -> Option<Action> {
        self.actions.lock().expect("action queue").pop_front()
    }
}

/// A running serving front end. Dropping it shuts the reactor down;
/// jobs already handed to the engine run to completion.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr` and serve `engine` until
    /// [`Server::shutdown`] or drop. Starts one thread, the reactor; all
    /// compute runs on the engine's runtime.
    pub fn start(engine: Engine, config: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let mut poller = Poller::new()?;
        poller.register(&listener, LISTENER_TOKEN, Interest::READ)?;
        let shared = Arc::new(Shared::new(engine, config, poller.waker()));
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || Reactor::new(shared, poller, listener).run())
        };
        Ok(Self {
            shared,
            local_addr,
            reactor: Some(reactor),
        })
    }

    /// The bound address (with the resolved port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Framing-layer violations seen so far (bad or oversized frames) —
    /// each was answered with a typed error, never a dropped
    /// connection.
    pub fn protocol_errors(&self) -> u64 {
        self.shared.protocol_errors.load(Ordering::Relaxed)
    }

    /// Stop accepting, serving, and dispatching. Idempotent; also runs
    /// on drop. Jobs already handed to the engine run to completion.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// The event sink: engine worker → pre-framed event buffer → reactor
// ---------------------------------------------------------------------

/// Runs on the engine worker executing the job: serializes each event,
/// and at the end the `ObserveEnd` frame, and posts them to the reactor,
/// which owns the job's frame buffer. No pump thread exists per job —
/// this *is* the push path.
struct JobSink {
    shared: Arc<Shared>,
    job: u64,
    /// `"{tenant}:"`, the prefix stripped from bound names on the wire.
    prefix: String,
    /// The next event's sequence number (a job emits its events one
    /// after another).
    seq: AtomicU64,
}

impl JobSink {
    fn new(shared: &Arc<Shared>, job: &ServedJob) -> Self {
        Self {
            shared: Arc::clone(shared),
            job: job.id,
            prefix: format!("{}:", job.tenant),
            seq: AtomicU64::new(0),
        }
    }
}

impl EventSink for JobSink {
    fn event(&self, event: JobEvent) {
        let wire = WireEvent::from_job_event(&event, &self.prefix);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let frame = encode_shared_frame(&Response::Ok(Payload::Event { seq, event: wire }))
            .expect("serialize event");
        self.shared.post(Action::Event {
            job: self.job,
            seq,
            frame,
        });
    }

    /// Build the job's [`JoinedParts`] once, encode its `ObserveEnd`
    /// frame, and post both. The parts keep the job's own model, the `Arc`
    /// the engine's registry holds, so no weight is copied, and no
    /// `Joined` frame is encoded until a `Join` asks for one.
    fn finished(&self, outcome: &Result<Trained, SessionError>) {
        let parts = JoinedParts::new(outcome);
        let end = encode_shared_frame(&Response::Ok(Payload::ObserveEnd {
            job: self.job,
            status: parts.status().name().to_string(),
        }))
        .expect("serialize");
        self.shared.post(Action::Finished {
            job: self.job,
            parts,
            end,
        });
    }
}

/// A job's outcome as its `Joined` answer is written from: the one
/// projection of an outcome onto the wire. Every `Joined` answer is
/// [`JoinedParts::reply`] to it, encoded under the joining connection's
/// protocol.
#[derive(Clone)]
enum JoinedParts {
    /// The plan, counters and the model this job bound, shared with the
    /// engine's registry: its own weights, whatever a later job binds
    /// under the same name.
    Completed {
        plan: GdPlan,
        iterations: u64,
        converged: bool,
        sim_time_s: f64,
        model: Arc<Model>,
    },
    /// Cancelled after `iterations`.
    Cancelled { iterations: u64 },
    /// Failed with this rendered error.
    Failed { error: String },
}

impl JoinedParts {
    fn new(outcome: &Result<Trained, SessionError>) -> Self {
        match outcome {
            Ok(trained) => Self::Completed {
                plan: trained.summary.plan,
                iterations: trained.summary.iterations,
                converged: trained.summary.converged,
                sim_time_s: trained.summary.sim_time_s,
                model: Arc::clone(&trained.model),
            },
            Err(SessionError::Cancelled { iterations }) => Self::Cancelled {
                iterations: *iterations,
            },
            Err(other) => Self::Failed {
                error: other.to_string(),
            },
        }
    }

    /// The job's terminal status.
    fn status(&self) -> JobStatus {
        match self {
            Self::Completed { .. } => JobStatus::Completed,
            Self::Cancelled { .. } => JobStatus::Cancelled,
            Self::Failed { .. } => JobStatus::Failed,
        }
    }

    /// Job `job`'s `Joined` answer, bound as `name` on success.
    fn reply<'a>(&'a self, job: u64, name: &'a str) -> JoinedReply<'a> {
        let mut reply = JoinedReply {
            job,
            status: self.status().name(),
            ..JoinedReply::default()
        };
        match self {
            Self::Completed {
                plan,
                iterations,
                converged,
                sim_time_s,
                model,
            } => {
                reply.name = Some(name);
                reply.plan = Some(plan.to_string());
                reply.iterations = Some(*iterations);
                reply.converged = Some(*converged);
                reply.sim_time_s = Some(*sim_time_s);
                reply.weights = Some(model.weights.as_slice());
            }
            Self::Cancelled { iterations } => reply.iterations = Some(*iterations),
            Self::Failed { error } => reply.error = Some(error.clone()),
        }
        reply
    }

    /// The protocol-1 `Joined` frame of job `job`, bound as `name` on
    /// success.
    fn encode(&self, job: u64, name: &str) -> Arc<[u8]> {
        encode_shared_frame(&self.reply(job, name)).expect("serialize")
    }
}

// ---------------------------------------------------------------------
// Explain and Predict: lane verbs, jobs in the tenant's runtime lane
// ---------------------------------------------------------------------

fn explain(engine: &Engine, train: &protocol::WireTrain, measured: bool) -> Response {
    match train.to_request() {
        Err(e) => Response::Err(e),
        Ok(request) => match engine.explain(ExplainRequest::new(request).measured(measured)) {
            Err(e) => Response::Err(WireError::new(code::FAILED, e.to_string())),
            Ok(report) => Response::Ok(Payload::Explained(protocol::WireReport {
                cache_hit: report.cache_hit,
                best: report.best().plan.to_string(),
                speculation_sim_s: report.speculation_sim_s,
                choices: report
                    .choices
                    .iter()
                    .map(|c| protocol::WireChoice {
                        plan: c.plan.to_string(),
                        estimated_iterations: c.estimated_iterations,
                        preparation_s: c.preparation_s,
                        per_iteration_s: c.per_iteration_s,
                        total_s: c.total_s,
                        measured_s: c.measured_s,
                    })
                    .collect(),
            })),
        },
    }
}

fn predict(engine: &Engine, tenant: &str, model: &str, source: &protocol::WireSource) -> Response {
    // Model names resolve inside the tenant's namespace only.
    let namespaced = format!("{tenant}:{model}");
    let request = PredictRequest::new(
        ml4all::DataSource::from(source),
        ModelRef::Named(namespaced),
    );
    match engine.predict(request) {
        Err(e) => Response::Err(WireError::new(code::FAILED, e.to_string())),
        Ok(p) => Response::Ok(Payload::Predicted {
            n: p.predictions.len() as u64,
            mse: p.mse,
            accuracy: p.accuracy,
        }),
    }
}

// ---------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------

/// What a connection is waiting on (strict request/response sequencing:
/// further parsed requests sit in the inbox until this resolves).
enum PendingVerb {
    /// Waiting on a job: its events from `cursor` (`Observe`; `None` for
    /// a `Join`, which streams none), then its terminal frame —
    /// `ObserveEnd`, or a protocol-2 `Joined`; a protocol-1 `Join` of a
    /// finished job turns into a [`PendingVerb::Lane`].
    Job {
        job: u64,
        cursor: Option<usize>,
        /// Consecutive event deliveries that moved `cursor` by nothing
        /// because the write buffer stayed saturated (see
        /// [`OBSERVER_STALL_STRIKES`]).
        stalls: u32,
    },
    /// Waiting for a lane verb's answer (`Explain`, `Predict`, or a
    /// protocol-1 `Join` of a finished job), then, once it is parked here,
    /// for room to queue it, as a job's terminal frame waits.
    Lane(Option<Arc<[u8]>>),
}

/// One connection: a readiness-driven state machine.
struct Conn {
    stream: TcpStream,
    /// Set by `Hello`; each verb and job takes a reference to it.
    tenant: Option<Arc<str>>,
    /// Set by a `Hello` that asked for protocol 2: a completed `Joined`
    /// is answered with its weights as a raw block.
    raw_weights: bool,
    decoder: FrameDecoder,
    /// Outbound frames; the head may be partially written.
    wbuf: VecDeque<Arc<[u8]>>,
    /// Bytes of `wbuf[0]` already written.
    wbuf_off: usize,
    /// Total unwritten bytes across `wbuf`.
    wbuf_bytes: usize,
    /// Parsed requests deferred behind `pending`, with the byte cost
    /// (frame length) each arrived under.
    inbox: VecDeque<(Request, usize)>,
    pending: Option<PendingVerb>,
    /// Close once the write buffer drains (slow consumer).
    doomed: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: usize) -> Self {
        Self {
            stream,
            tenant: None,
            raw_weights: false,
            decoder: FrameDecoder::new(max_frame),
            wbuf: VecDeque::new(),
            wbuf_off: 0,
            wbuf_bytes: 0,
            inbox: VecDeque::new(),
            pending: None,
            doomed: false,
            interest: Interest::READ,
        }
    }

    /// The interest this connection's state calls for.
    fn desired_interest(&self) -> Interest {
        Interest {
            read: !self.doomed && self.inbox.len() < INBOX_PAUSE,
            write: !self.wbuf.is_empty(),
        }
    }

    /// Whether `len` more bytes fit the write cap `max`: under it, or — a
    /// single frame larger than the whole cap — into an empty buffer,
    /// where progress beats a livelock and the overshoot is one frame
    /// deep.
    fn fits(&self, len: usize, max: usize) -> bool {
        self.wbuf.is_empty() || self.wbuf_bytes + len <= max
    }

    /// Queue `frame` if it [`fits`](Conn::fits) the write cap `max`.
    /// Returns whether it was queued.
    fn queue(&mut self, frame: &Arc<[u8]>, max: usize) -> bool {
        let fits = self.fits(frame.len(), max);
        if fits {
            self.wbuf_bytes += frame.len();
            self.wbuf.push_back(Arc::clone(frame));
        }
        fits
    }
}

// ---------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------

struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    /// The transport counters the `ServerStats` verb reports.
    counters: WireServerStats,
    jobs: Jobs,
    /// Jobs the actions of the current drain touched, each once.
    touched: Vec<u64>,
    /// The waiters a delivery walks, copied out of their job's list.
    tokens: Vec<u64>,
    next_token: u64,
}

impl Reactor {
    fn new(shared: Arc<Shared>, poller: Poller, listener: TcpListener) -> Self {
        let jobs = Jobs::new(&shared.config);
        Self {
            shared,
            poller,
            listener,
            conns: HashMap::new(),
            counters: WireServerStats {
                backend: Poller::BACKEND.to_string(),
                active_connections: 0,
                total_connections: 0,
                wakeups: 0,
                bytes_in: 0,
                bytes_out: 0,
                partial_writes: 0,
                slow_consumer_disconnects: 0,
            },
            jobs,
            touched: Vec::new(),
            tokens: Vec::new(),
            next_token: FIRST_CONN_TOKEN,
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // The timeout is a lost-wakeup backstop, not a schedule —
            // every real transition arrives as readiness or a wake.
            if self
                .poller
                .wait(&mut events, Some(Duration::from_millis(500)))
                .is_err()
            {
                return;
            }
            self.counters.wakeups += 1;
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            self.drain_actions();
            for &event in &events {
                if event.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_ready(event);
                }
            }
        }
    }

    /// Apply every queued action — actions posted meanwhile, such as a
    /// queued cancel finishing through its sink, included — then top up
    /// each touched job's waiters once: one delivery per job per drain,
    /// the cadence [`OBSERVER_STALL_STRIKES`] counts.
    fn drain_actions(&mut self) {
        while let Some(action) = self.shared.next_action() {
            match action {
                // A lane verb's one answer is parked on the connection's
                // pending verb and queued by the paced top-up; a connection
                // that died meanwhile is skipped.
                Action::Respond { token, frame } => {
                    let pending = self.conns.get_mut(&token).and_then(|c| c.pending.as_mut());
                    if let Some(PendingVerb::Lane(answer)) = pending {
                        *answer = Some(frame);
                        self.service(token);
                    }
                }
                action => {
                    let job = self.jobs.apply(&self.shared, action);
                    if !self.touched.contains(&job) {
                        self.touched.push(job);
                    }
                }
            }
        }
        while let Some(job) = self.touched.pop() {
            self.deliver_job(job);
        }
    }

    // -- accept path --------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Small request/response frames: never Nagle-delay
                    // them behind an un-ACKed segment.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(&stream, token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns
                        .insert(token, Conn::new(stream, self.shared.config.max_frame));
                    self.counters.total_connections += 1;
                    self.counters.active_connections += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    // -- per-connection readiness -------------------------------------

    fn conn_ready(&mut self, event: Event) {
        if event.readable || event.hangup {
            self.readable(event.token);
        }
        if self.conns.contains_key(&event.token) && event.writable {
            self.service(event.token);
        }
    }

    /// Read until `WouldBlock` (bounded per wake-up; level-triggered
    /// readiness re-fires if data remains), decode, and process.
    fn readable(&mut self, token: u64) {
        let mut scratch = [0u8; 16 * 1024];
        let mut items: Vec<Decoded> = Vec::new();
        let mut closed = false;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        for _ in 0..8 {
            match conn.stream.read(&mut scratch) {
                Ok(n) if n > 0 => {
                    self.counters.bytes_in += n as u64;
                    let mut offset = 0;
                    while offset < n {
                        let (used, item) = conn.decoder.advance(&scratch[offset..n]);
                        offset += used;
                        items.extend(item);
                    }
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EOF (including a peer's half-close) or a failed read ends
                // the conversation; buffered responses are abandoned with
                // the socket.
                _ => {
                    closed = true;
                    break;
                }
            }
        }
        for item in items {
            if !self.conns.contains_key(&token) {
                return; // a response path closed it mid-batch
            }
            match item {
                Decoded::Oversized { len } => {
                    self.shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let max = self.shared.config.max_frame;
                    self.respond(
                        token,
                        &Response::Err(WireError::new(
                            code::OVERSIZED_FRAME,
                            format!("frame of {len} bytes exceeds the {max} byte cap"),
                        )),
                    );
                }
                Decoded::Frame(payload) => match serde_json::from_slice::<Request>(&payload) {
                    Ok(request) => {
                        // The admission byte cost of this request: its
                        // frame as received, header included.
                        let cost = payload.len() + 4;
                        let conn = self.conns.get_mut(&token).expect("checked above");
                        if conn.pending.is_some() {
                            conn.inbox.push_back((request, cost));
                        } else {
                            self.handle_request(token, request, cost);
                        }
                    }
                    Err(e) => {
                        self.shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        self.respond(
                            token,
                            &Response::Err(WireError::new(code::BAD_FRAME, e.to_string())),
                        );
                    }
                },
            }
        }
        if closed {
            self.close(token);
        } else {
            self.service(token);
        }
    }

    // -- verb handling ------------------------------------------------

    /// Answer one parsed request. Only called when nothing is pending on
    /// the connection; every verb but `Hello` needs the tenant it names.
    fn handle_request(&mut self, token: u64, request: Request, cost: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let response = match (request, conn.tenant.clone()) {
            (Request::Hello { tenant, protocol }, _) => match protocol {
                Some(asked) if asked != PROTOCOL_VERSION && asked != PROTOCOL_RAW_WEIGHTS => {
                    Response::Err(WireError::new(
                        code::UNSUPPORTED_PROTOCOL,
                        format!(
                            "server speaks protocols {PROTOCOL_VERSION} and \
                             {PROTOCOL_RAW_WEIGHTS}, not {asked}"
                        ),
                    ))
                }
                _ => {
                    let protocol = protocol.unwrap_or(PROTOCOL_VERSION);
                    conn.tenant = Some(tenant.into());
                    conn.raw_weights = protocol == PROTOCOL_RAW_WEIGHTS;
                    Response::Ok(Payload::Hello {
                        server: concat!("ml4all-serve ", env!("CARGO_PKG_VERSION")).to_string(),
                        protocol,
                        rng_stream_version: RNG_STREAM_VERSION,
                        max_frame: self.shared.config.max_frame as u64,
                    })
                }
            },
            (_, None) => Response::Err(WireError::new(
                code::HELLO_REQUIRED,
                "send Hello with your tenant id first",
            )),
            (Request::Submit { train }, Some(tenant)) => self.jobs.submit(&tenant, &train, cost),
            (Request::Observe { job, from }, Some(tenant)) => match self.jobs.owned(&tenant, job) {
                Err(e) => Response::Err(e),
                Ok(_) => {
                    let cursor = usize::try_from(from.unwrap_or(0)).unwrap_or(usize::MAX);
                    return self.wait_on(token, job, Some(cursor));
                }
            },
            (Request::Join { job }, Some(tenant)) => match self.jobs.owned(&tenant, job) {
                Err(e) => Response::Err(e),
                Ok(_) => return self.wait_on(token, job, None),
            },
            (Request::Cancel { job }, Some(tenant)) => match self.jobs.owned(&tenant, job) {
                Err(e) => Response::Err(e),
                Ok(served) => {
                    if served.finished.is_none() {
                        match &served.handle {
                            Some(handle) => handle.cancel(),
                            // Still queued: dispatch finishes it as
                            // cancelled when its turn comes.
                            None => served.cancel_requested = true,
                        }
                    }
                    Response::Ok(Payload::Cancelled { job })
                }
            },
            (Request::Explain { train, measured }, Some(tenant)) => {
                let measured = measured.unwrap_or(false);
                return self.run_in_lane(token, &tenant, move |engine| {
                    encode_shared_frame(&explain(engine, &train, measured)).expect("serialize")
                });
            }
            (Request::Predict { model, source }, Some(tenant)) => {
                let owner = Arc::clone(&tenant);
                return self.run_in_lane(token, &tenant, move |engine| {
                    encode_shared_frame(&predict(engine, &owner, &model, &source))
                        .expect("serialize")
                });
            }
            (Request::Stats, Some(tenant)) => {
                let frame = self.jobs.stats(&self.shared, &tenant);
                return self.send(token, &frame);
            }
            (Request::ServerStats, Some(_)) => {
                Response::Ok(Payload::ServerStats(self.counters.clone()))
            }
        };
        let admitted = matches!(response, Response::Ok(Payload::Submitted { .. }));
        self.respond(token, &response);
        if admitted {
            self.jobs.dispatch(&self.shared);
        }
    }

    /// Run a lane verb as a job in `tenant`'s runtime lane: the frame
    /// `encode` returns — or `failed` with the panic message, if it panics
    /// — comes back as [`Action::Respond`], and is queued, paced, by
    /// [`Reactor::top_up`]. The connection's inbox waits meanwhile.
    fn run_in_lane(
        &mut self,
        token: u64,
        tenant: &str,
        encode: impl FnOnce(&Engine) -> Arc<[u8]> + Send + 'static,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.pending = Some(PendingVerb::Lane(None));
        let poster = Arc::clone(&self.shared);
        self.shared.engine.spawn_in_lane(
            tenant,
            move |engine| Ok(encode(engine)),
            move |outcome| {
                let frame = outcome.unwrap_or_else(|e| {
                    let failed = Response::Err(WireError::new(code::FAILED, e.to_string()));
                    encode_shared_frame(&failed).expect("serialize response")
                });
                poster.post(Action::Respond { token, frame });
            },
        );
    }

    /// Wait on `job`: its events from `cursor` (`Observe`; `None` for a
    /// `Join`), then its terminal frame, fed by the paced top-up in
    /// [`Reactor::service`]. A backlog or a `Joined` larger than the
    /// write cap drains as the socket accepts it — lag, not a protocol
    /// violation. A wait the first top-up neither finishes nor hands to
    /// the tenant's lane joins the job's waiters, to be fed as the job
    /// produces.
    fn wait_on(&mut self, token: u64, job: u64, cursor: Option<usize>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.doomed {
            return;
        }
        conn.pending = Some(PendingVerb::Job {
            job,
            cursor,
            stalls: 0,
        });
        self.top_up(token);
        let waiting = matches!(self.conns[&token].pending, Some(PendingVerb::Job { .. }));
        if let Some(served) = self.jobs.table.get_mut(&job).filter(|_| waiting) {
            served.waiters.push(token);
        }
        self.service(token);
    }

    // -- job fan-out --------------------------------------------------

    /// Top up every connection waiting on job `id`. An event stream that
    /// sits out [`OBSERVER_STALL_STRIKES`] deliveries in a row is
    /// disconnected as a slow consumer; a join only waits for its frame.
    fn deliver_job(&mut self, id: u64) {
        let Some(job) = self.jobs.table.get(&id) else {
            return;
        };
        // Walk a copy: servicing a waiter may end its wait, or start a
        // new one on this job, either of which edits the job's list.
        let mut tokens = std::mem::take(&mut self.tokens);
        tokens.clone_from(&job.waiters);
        for &token in &tokens {
            let before = match self.conns.get(&token).and_then(|c| c.pending.as_ref()) {
                Some(PendingVerb::Job { job, cursor, .. }) if *job == id => *cursor,
                _ => continue,
            };
            // service() runs the paced top-up/flush loop; it may finish
            // the wait, block on the socket, or close the connection.
            self.service(token);
            let waiting = self.conns.get_mut(&token).and_then(|c| c.pending.as_mut());
            let Some(PendingVerb::Job { cursor, stalls, .. }) = waiting else {
                continue;
            };
            // An event stream saturated and absorbing nothing while the
            // job keeps producing.
            let stalled = cursor.is_some() && *cursor == before;
            *stalls = if stalled { *stalls + 1 } else { 0 };
            if *stalls >= OBSERVER_STALL_STRIKES {
                self.doom_slow_consumer(token);
                self.service(token);
            }
        }
        self.tokens = tokens;
    }

    /// Feed a connection's pending verb, paced by the write cap
    /// ([`Conn::queue`]). A lane verb's answer is queued once it is parked
    /// and fits. A wait on a job is fed from the job's frame buffer: the
    /// events from its cursor, then — once the job is terminal and every
    /// event went out — the terminal frame, which finishes the wait. A
    /// reader catching up on a large backlog is drip-fed at the rate its
    /// socket drains instead of tripping the cap. A protocol-2 `Joined` is
    /// encoded here, once it fits; a protocol-1 `Join` of a finished job
    /// leaves the job for the tenant's lane. Returns whether anything was
    /// queued.
    fn top_up(&mut self, token: u64) -> bool {
        let max = self.shared.config.max_write_buffer;
        let Some(conn) = self.conns.get_mut(&token).filter(|c| !c.doomed) else {
            return false;
        };
        let (id, cursor) = match &conn.pending {
            Some(PendingVerb::Job { job, cursor, .. }) => (*job, *cursor),
            Some(PendingVerb::Lane(answer)) => {
                let answer = answer.clone();
                let queued = answer.is_some_and(|frame| conn.queue(&frame, max));
                if queued {
                    conn.pending = None;
                }
                return queued;
            }
            None => return false,
        };
        // A waited-on job is never pruned.
        let Some(job) = self.jobs.table.get_mut(&id) else {
            return false;
        };
        let (queued, mut cursor) = (conn.wbuf.len(), cursor);
        if let Some(at) = cursor.as_mut() {
            while job.frames.get(*at).is_some_and(|f| conn.queue(f, max)) {
                *at += 1;
            }
        }
        // Frames are never appended after a job turns terminal, so the
        // stream is complete once it is.
        let mut lane_join = None;
        let done = job.finished.as_ref().is_some_and(|f| match cursor {
            Some(at) => at >= job.frames.len() && conn.queue(&f.end, max),
            None if conn.raw_weights => {
                let reply = f.parts.reply(id, &job.name);
                let frame = reply.encode_raw(|len| conn.fits(len, max));
                let frame = frame.expect("serialize");
                frame.is_some_and(|frame| conn.queue(&frame, max))
            }
            None => {
                lane_join = Some((f.parts.clone(), job.name.clone()));
                true
            }
        });
        let queued = conn.wbuf.len() > queued;
        if done {
            conn.pending = None;
            job.unwait(token);
        } else if let Some(PendingVerb::Job { cursor: at, .. }) = &mut conn.pending {
            *at = cursor;
        }
        if let Some((parts, name)) = lane_join {
            let tenant = Arc::clone(&job.tenant);
            self.run_in_lane(token, &tenant, move |_| parts.encode(id, &name));
        }
        queued
    }

    // -- write path ---------------------------------------------------

    /// Serialize, queue, and flush one response frame.
    fn respond(&mut self, token: u64, response: &Response) {
        self.send(
            token,
            &encode_shared_frame(response).expect("serialize response"),
        );
    }

    /// Queue one inline answer frame under the write cap ([`Conn::queue`])
    /// and flush. A frame that does not fit a non-empty buffer makes the
    /// connection a slow consumer; a lane verb's answer waits for room
    /// instead ([`Reactor::top_up`]).
    fn send(&mut self, token: u64, frame: &Arc<[u8]>) {
        let max = self.shared.config.max_write_buffer;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.doomed && !conn.queue(frame, max) {
            self.doom_slow_consumer(token);
        }
        self.service(token);
    }

    /// Declare a connection a slow consumer: drop every frame not yet
    /// on the wire — except the partially-written head, which must
    /// complete for the stream to stay frame-aligned — then say why
    /// and hang up once it drains.
    fn doom_slow_consumer(&mut self, token: u64) {
        let max = self.shared.config.max_write_buffer;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.doomed {
            return;
        }
        self.counters.slow_consumer_disconnects += 1;
        conn.wbuf.truncate(usize::from(conn.wbuf_off > 0));
        conn.wbuf_bytes = conn
            .wbuf
            .front()
            .map_or(0, |head| head.len() - conn.wbuf_off);
        let goodbye = encode_shared_frame(&Response::Err(WireError::new(
            code::SLOW_CONSUMER,
            format!("outbound buffer exceeded {max} bytes; undelivered frames dropped"),
        )))
        .expect("serialize");
        conn.wbuf_bytes += goodbye.len();
        conn.wbuf.push_back(goodbye);
        conn.doomed = true;
        if let Some(PendingVerb::Job { job, .. }) = conn.pending {
            conn.pending = None;
            if let Some(job) = self.jobs.table.get_mut(&job) {
                job.unwait(token);
            }
        }
    }

    /// Flush what the socket will take, then reconcile poller interest
    /// — the single place a connection's registration is kept in step
    /// with its state. Closes the connection on write failure or a
    /// drained doomed buffer.
    fn service(&mut self, token: u64) {
        // Alternate flushing with observer top-up: every byte the
        // socket absorbs frees cap budget, which pulls the next slice
        // of a lagging observer's backlog — replay pacing without
        // timers. The first iteration always tops up so fresh event
        // frames flow even when nothing was buffered.
        let mut first = true;
        loop {
            let flushed = self.flush_wbuf(token);
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            let saturated = conn.wbuf_bytes >= self.shared.config.max_write_buffer;
            if (!first && !flushed) || saturated || !self.top_up(token) {
                break;
            }
            first = false;
        }
        // A resolved verb unblocks the inbox.
        while let Some((request, cost)) = self
            .conns
            .get_mut(&token)
            .filter(|c| c.pending.is_none() && !c.doomed)
            .and_then(|c| c.inbox.pop_front())
        {
            self.handle_request(token, request, cost);
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = conn.desired_interest();
        if want != conn.interest && self.poller.update(&conn.stream, token, want).is_ok() {
            conn.interest = want;
        }
    }

    /// Write as much of the buffered outbound data as the socket will
    /// take. Returns whether any bytes left. Closes the connection on
    /// write failure or a drained doomed buffer.
    fn flush_wbuf(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let mut dead = false;
        let mut wrote = false;
        'flush: while !conn.wbuf.is_empty() {
            // Vectored write: an observer batch of many small event
            // frames leaves in one syscall.
            let mut slices: Vec<IoSlice> = Vec::with_capacity(conn.wbuf.len().min(64));
            for (i, frame) in conn.wbuf.iter().take(64).enumerate() {
                let start = if i == 0 { conn.wbuf_off } else { 0 };
                slices.push(IoSlice::new(&frame[start..]));
            }
            match conn.stream.write_vectored(&slices) {
                Ok(0) => {
                    dead = true;
                    break 'flush;
                }
                Ok(mut n) => {
                    wrote = true;
                    self.counters.bytes_out += n as u64;
                    // Retire the frames written whole; what is left of
                    // `n`, counted from the head's start, is the new offset.
                    conn.wbuf_bytes -= n;
                    n += conn.wbuf_off;
                    while let Some(head) = conn.wbuf.front().filter(|head| head.len() <= n) {
                        n -= head.len();
                        conn.wbuf.pop_front();
                    }
                    conn.wbuf_off = n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.counters.partial_writes += 1;
                    break 'flush;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break 'flush;
                }
            }
        }
        if dead || (conn.doomed && conn.wbuf.is_empty()) {
            self.close(token);
            return false;
        }
        wrote
    }

    /// Tear a connection down: poller, waiter lists, counters.
    fn close(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(&conn.stream);
        if let Some(PendingVerb::Job { job, .. }) = conn.pending {
            if let Some(job) = self.jobs.table.get_mut(&job) {
                job.unwait(token);
            }
        }
        self.counters.active_connections -= 1;
    }
}

// ---------------------------------------------------------------------
// The job table
// ---------------------------------------------------------------------

/// Every wire-submitted job, live or retained for replay, by id (which is
/// submission order), and the admission queues they wait in. The reactor
/// owns both: workers reach them only through the [`Action`]s it applies,
/// so nothing here takes a lock.
struct Jobs {
    table: BTreeMap<u64, ServedJob>,
    /// The last job id handed out.
    last_id: u64,
    /// How many of each tenant's jobs in `table` are terminal.
    terminal: HashMap<Arc<str>, usize>,
    /// Admitted jobs waiting for dispatch: job id and engine request.
    admission: Admission<(u64, TrainRequest)>,
}

impl Jobs {
    /// An empty table under `config`'s admission policy.
    fn new(config: &ServeConfig) -> Self {
        let admission = Admission::new(DRR_QUANTUM, config.global_in_flight, config.default_quota);
        for (tenant, quota) in &config.tenant_quotas {
            admission.set_quota(tenant, *quota);
        }
        Self {
            table: BTreeMap::new(),
            last_id: 0,
            terminal: HashMap::new(),
            admission,
        }
    }

    /// Admit one training job: namespace its name, register it, and queue
    /// it (or refuse with typed `busy` backpressure).
    fn submit(&mut self, tenant: &Arc<str>, train: &protocol::WireTrain, cost: usize) -> Response {
        let mut request = match train.to_request() {
            Ok(request) => request,
            Err(e) => return Response::Err(e),
        };
        self.last_id += 1;
        let id = self.last_id;
        // Every wire job gets an explicit, tenant-prefixed result name so
        // tenants cannot observe (or shadow) each other's models.
        let visible = request.name.clone().unwrap_or_else(|| format!("j{id}"));
        request = request.named(format!("{tenant}:{visible}"));
        self.table
            .insert(id, ServedJob::new(id, Arc::clone(tenant), visible));
        self.prune();
        match self.admission.offer(tenant, cost, (id, request)) {
            Ok(()) => Response::Ok(Payload::Submitted { job: id }),
            Err(busy) => {
                // Refused at the door: forget the job id again.
                self.table.remove(&id);
                Response::Err(WireError {
                    code: code::BUSY.to_string(),
                    message: format!("tenant `{tenant}` queued-byte quota is full"),
                    retry_after_ms: Some(busy.retry_after_ms),
                })
            }
        }
    }

    /// Bound the history at [`SERVED_HISTORY_CAP`] jobs by pruning
    /// terminal ones, each the oldest of the tenant holding the most (on a
    /// tie, the tenant whose oldest is older): one tenant's burst evicts
    /// its own history, not another's. A running or queued job, or one a
    /// connection still waits on, is never pruned.
    fn prune(&mut self) {
        while self.table.len() > SERVED_HISTORY_CAP {
            let most = self.terminal.values().max();
            let victim = self.table.values().find(|job| {
                job.finished.is_some()
                    && job.waiters.is_empty()
                    && self.terminal.get(&job.tenant) == most
            });
            let Some(id) = victim.map(|job| job.id) else {
                return;
            };
            let job = self.table.remove(&id).expect("found above");
            if let Some(count) = self.terminal.get_mut(&job.tenant) {
                *count -= 1;
            }
        }
    }

    /// Hand every currently-dispatchable admitted job to the engine.
    fn dispatch(&mut self, shared: &Arc<Shared>) {
        while let Some(dispatched) = self.admission.try_next() {
            let (job, request) = dispatched.item;
            // An admitted job is live, so never pruned.
            let Some(job) = self.table.get_mut(&job) else {
                continue;
            };
            let sink = Arc::new(JobSink::new(shared, job));
            if job.cancel_requested {
                // Cancelled before its turn: it finishes through its own
                // sink, exactly as a run cancelled at iteration 0 would;
                // the reactor applies both actions on its next pop.
                sink.event(JobEvent::Cancelled { iterations: 0 });
                sink.finished(&Err(SessionError::Cancelled { iterations: 0 }));
                continue;
            }
            let handle = shared.engine.submit_with_sink(request, &job.tenant, sink);
            job.engine_id = Some(handle.id());
            job.handle = Some(handle);
        }
    }

    /// Apply an action a job's worker posted; returns the job. An event
    /// frame is appended. A finish drops the engine handle, encodes the
    /// `Stats` row once from the engine id stored at dispatch, frees the
    /// admission slot, and dispatches what that made room for.
    fn apply(&mut self, shared: &Arc<Shared>, action: Action) -> u64 {
        match action {
            Action::Event {
                job: id,
                seq,
                frame,
            } => {
                if let Some(job) = self.table.get_mut(&id) {
                    debug_assert_eq!(seq, job.frames.len() as u64, "job {id}'s events in order");
                    job.frames.push(frame);
                }
                id
            }
            Action::Finished {
                job: id,
                parts,
                end,
            } => {
                if let Some(job) = self.table.get_mut(&id) {
                    job.handle = None;
                    let row = job.row(parts.status()).encode();
                    job.finished = Some(Finished { row, end, parts });
                    match self.terminal.get_mut(&job.tenant) {
                        Some(count) => *count += 1,
                        None => drop(self.terminal.insert(Arc::clone(&job.tenant), 1)),
                    }
                    self.admission.complete(&job.tenant);
                }
                self.dispatch(shared);
                id
            }
            Action::Respond { .. } => unreachable!("the reactor answers connections"),
        }
    }

    /// This tenant's `Stats` answer frame: admission counters plus its
    /// jobs in submission order (the table's id order). A finished job's
    /// row was encoded once, when it finished, and is copied; a queued or
    /// dispatched job's row is encoded from its live state, the status its
    /// engine handle reports.
    fn stats(&self, shared: &Shared, tenant: &str) -> Arc<[u8]> {
        let lane = self.admission.stats(tenant);
        let cache = shared.engine.plan_cache();
        let calibration = shared.engine.calibration();
        let reply = StatsReply {
            tenant,
            in_flight: lane.in_flight as u64,
            queued: lane.queued as u64,
            queued_bytes: lane.queued_bytes as u64,
            quota_max_in_flight: lane.quota.max_in_flight as u64,
            quota_max_queued_bytes: lane.quota.max_queued_bytes as u64,
            global_in_flight: lane.global_in_flight as u64,
            global_capacity: lane.global_capacity as u64,
            plan_cache_hits: cache.hits(),
            plan_cache_misses: cache.misses(),
            plan_cache_len: cache.len() as u64,
            checkpoints_written: shared.engine.checkpoints_written(),
            jobs_resumed: shared.engine.jobs_resumed(),
            calibration_generation: calibration.as_ref().map(|snapshot| snapshot.generation),
            calibration_confidence: calibration
                .as_ref()
                .map(|snapshot| snapshot.residual_confidence()),
            replans: shared.engine.replans(),
        };
        reply
            .encode_shared(self.table.len(), |rows| {
                for job in self.table.values().filter(|job| *job.tenant == *tenant) {
                    match &job.finished {
                        Some(finished) => rows.encoded(&finished.row),
                        None => {
                            let handle = job.handle.as_ref();
                            rows.row(&job.row(handle.map_or(JobStatus::Queued, JobHandle::status)));
                        }
                    }
                }
            })
            .expect("serialize")
    }

    /// Look job `id` up for `tenant`. Jobs are tenant-private but their
    /// ids are not secret: another tenant's job is refused as `forbidden`,
    /// an id that names no job as `unknown_job`.
    fn owned(&mut self, tenant: &str, id: u64) -> Result<&mut ServedJob, WireError> {
        let job = self
            .table
            .get_mut(&id)
            .ok_or_else(|| WireError::new(code::UNKNOWN_JOB, format!("no job {id}")))?;
        if *job.tenant != *tenant {
            return Err(WireError::new(
                code::FORBIDDEN,
                format!("job {id} is not owned by tenant `{tenant}`"),
            ));
        }
        Ok(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{WireJob, WireSource, WireStats, WireTrain};
    use ml4all::{DataSource, GradientKind};

    fn shared() -> Arc<Shared> {
        let poller = Poller::new().expect("poller");
        let engine = Engine::new().with_registry_cap(1000);
        Arc::new(Shared::new(engine, ServeConfig::default(), poller.waker()))
    }

    /// Apply every action the jobs' sinks posted, as the reactor's drain
    /// does.
    fn settle(jobs: &mut Jobs, shared: &Arc<Shared>) {
        while let Some(action) = shared.next_action() {
            jobs.apply(shared, action);
        }
    }

    /// Register job `id` of `tenant` (dispatched as engine job
    /// `engine_id`) and finish it with `outcome` through its sink.
    fn finish_job(
        jobs: &mut Jobs,
        shared: &Arc<Shared>,
        (id, tenant, engine_id): (u64, &str, Option<u64>),
        outcome: &Result<Trained, SessionError>,
    ) {
        let mut job = ServedJob::new(id, tenant.into(), format!("j{id}"));
        job.engine_id = engine_id;
        let sink = JobSink::new(shared, &job);
        jobs.table.insert(id, job);
        sink.finished(outcome);
        settle(jobs, shared);
    }

    /// Submit `train` as `tenant`; the new job's id.
    fn submitted(jobs: &mut Jobs, tenant: &str, train: &WireTrain) -> u64 {
        let Response::Ok(Payload::Submitted { job }) = jobs.submit(&tenant.into(), train, 100)
        else {
            panic!("submit refused");
        };
        jobs.owned(tenant, job).expect("submitted job").id
    }

    /// The rows `stats` built per call before finished rows were encoded
    /// once: every job of `tenant` in the table, sorted by id, its status
    /// the recorded outcome (`outcome(id)` here) or else what its engine
    /// handle says.
    fn rows_built_per_call(
        jobs: &Jobs,
        tenant: &str,
        outcome: &dyn Fn(u64) -> JobStatus,
    ) -> Vec<WireJob> {
        let mut rows: Vec<WireJob> = jobs
            .table
            .values()
            .filter(|job| *job.tenant == *tenant)
            .map(|job| {
                let status = match (&job.finished, &job.handle) {
                    (Some(_), _) => outcome(job.id),
                    (None, Some(handle)) => handle.status(),
                    (None, None) => JobStatus::Queued,
                };
                let row = serde_json::json!({
                    "job": job.id,
                    "engine_id": job.engine_id,
                    "name": job.name,
                    "status": status.name(),
                });
                serde_json::from_value::<WireJob>(&row).expect("a job row")
            })
            .collect();
        rows.sort_by_key(|row| row.job);
        rows
    }

    /// `tenant`'s `Stats` frame, checked against the derived encoding of
    /// the rows built per call; returns the job ids it lists.
    fn stats_ids(
        jobs: &Jobs,
        shared: &Shared,
        tenant: &str,
        outcome: &dyn Fn(u64) -> JobStatus,
    ) -> Vec<u64> {
        let frame = jobs.stats(shared, tenant);
        let Ok(Response::Ok(Payload::Stats(decoded))) = serde_json::from_slice(&frame[4..]) else {
            panic!("not a Stats answer");
        };
        let ids = decoded.jobs.iter().map(|row| row.job).collect();
        let derived = WireStats {
            jobs: rows_built_per_call(jobs, tenant, outcome),
            ..decoded
        };
        let derived = encode_shared_frame(&Response::Ok(Payload::Stats(derived))).expect("encode");
        assert!(
            frame[..] == derived[..],
            "tenant {tenant}: Stats bytes differ from the derived encoding"
        );
        ids
    }

    /// Apply posted actions until `done` holds for job `id` (bounded).
    fn wait_for(jobs: &mut Jobs, shared: &Arc<Shared>, id: u64, done: impl Fn(&ServedJob) -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            settle(jobs, shared);
            if done(&jobs.table[&id]) {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "job {id} stuck");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A training request no run finishes: it stays running until
    /// cancelled.
    fn endless() -> WireTrain {
        let mut train = WireTrain::new("logistic", WireSource::Registry("adult".into()));
        train.epsilon = Some(f64::MIN_POSITIVE);
        train.max_iter = Some(u64::MAX >> 8);
        train
    }

    /// Past the history cap, each tenant's `Stats` lists exactly its own
    /// retained rows in submission order, in the bytes the derived encoding
    /// of the per-call rows gives; and a live row turns into its terminal
    /// row as its job finishes, so a copied row is never stale.
    #[test]
    fn stats_lists_each_tenants_retained_rows_and_never_goes_stale() {
        let shared = shared();
        let mut jobs = Jobs::new(&shared.config);
        let trained = shared
            .engine
            .train(
                TrainRequest::new(
                    GradientKind::LogisticRegression,
                    DataSource::registry("adult"),
                )
                .max_iter(3),
            )
            .expect("train");
        let tenant = |id: u64| if id.is_multiple_of(2) { "a" } else { "b" };
        let terminal = SERVED_HISTORY_CAP as u64 + 50;
        for id in 1..=terminal {
            let outcome = match id % 3 {
                0 => Ok(trained.clone()),
                1 => Err(SessionError::Cancelled { iterations: id }),
                _ => Err(SessionError::UnknownName(format!("m{id}"))),
            };
            let engine_id = (id % 5 != 0).then_some(id + 7);
            finish_job(&mut jobs, &shared, (id, tenant(id), engine_id), &outcome);
        }
        // The statuses those outcomes record; the two live jobs below end
        // cancelled.
        let outcome = |id: u64| match id % 3 {
            _ if id > terminal => JobStatus::Cancelled,
            0 => JobStatus::Completed,
            1 => JobStatus::Cancelled,
            _ => JobStatus::Failed,
        };
        jobs.last_id = terminal;

        // One long job of `a` dispatched and running, one job of `b` left
        // queued; each submit prunes the oldest terminal jobs to the cap.
        let train = endless();
        let running = submitted(&mut jobs, "a", &train);
        jobs.dispatch(&shared);
        let queued = submitted(&mut jobs, "b", &train);
        wait_for(&mut jobs, &shared, running, |job| {
            job.handle
                .as_ref()
                .is_some_and(|h| h.status() == JobStatus::Running)
        });
        assert_eq!(
            jobs.table.len(),
            SERVED_HISTORY_CAP,
            "two submits past the cap prune back to it"
        );
        // 52 terminal jobs were pruned, oldest first: ids 1..=52.
        let retained =
            |t: &str| -> Vec<u64> { (53..=terminal).filter(|&id| tenant(id) == t).collect() };
        let with = |mut ids: Vec<u64>, live: u64| {
            ids.push(live);
            ids
        };
        assert_eq!(
            stats_ids(&jobs, &shared, "a", &outcome),
            with(retained("a"), running)
        );
        assert_eq!(
            stats_ids(&jobs, &shared, "b", &outcome),
            with(retained("b"), queued)
        );

        // Both live jobs finish; their rows turn terminal on the next call.
        jobs.table[&running]
            .handle
            .as_ref()
            .expect("dispatched")
            .cancel();
        jobs.owned("b", queued).expect("queued").cancel_requested = true;
        jobs.dispatch(&shared);
        for job in [running, queued] {
            wait_for(&mut jobs, &shared, job, |job| job.finished.is_some());
        }
        assert_eq!(
            stats_ids(&jobs, &shared, "a", &outcome),
            with(retained("a"), running)
        );
        assert_eq!(
            stats_ids(&jobs, &shared, "b", &outcome),
            with(retained("b"), queued)
        );
        let frame = jobs.stats(&shared, "b");
        let text = std::str::from_utf8(&frame[4..]).expect("utf-8");
        assert!(text.ends_with(&format!(
            r#"{{"job":{},"engine_id":null,"name":"j{}","status":"cancelled"}}]}}}}}}"#,
            queued, queued
        )));
    }

    /// Past the history cap, the prune takes from the tenant holding the
    /// most terminal jobs: a hog's burst of submits leaves a quiet tenant's
    /// finished jobs in its `Stats`.
    #[test]
    fn a_hogs_burst_prunes_its_own_history_not_a_quiet_tenants() {
        let shared = shared();
        let mut jobs = Jobs::new(&shared.config);
        let cancelled = Err(SessionError::Cancelled { iterations: 0 });
        let terminal = SERVED_HISTORY_CAP as u64 + 10;
        for id in 1..=terminal {
            let tenant = if id <= 10 { "quiet" } else { "hog" };
            finish_job(&mut jobs, &shared, (id, tenant, Some(id)), &cancelled);
        }
        jobs.last_id = terminal;
        let train = endless();
        let burst: Vec<u64> = (0..3)
            .map(|_| submitted(&mut jobs, "hog", &train))
            .collect();
        assert_eq!(jobs.table.len(), SERVED_HISTORY_CAP);
        let cancelled = |_| JobStatus::Cancelled;
        assert_eq!(
            stats_ids(&jobs, &shared, "quiet", &cancelled),
            (1..=10).collect::<Vec<u64>>(),
            "the quiet tenant keeps every finished job"
        );
        // The hog lost its 13 oldest finished jobs, ids 11..=23.
        let mut hog: Vec<u64> = (24..=terminal).collect();
        hog.extend(&burst);
        assert_eq!(stats_ids(&jobs, &shared, "hog", &cancelled), hog);
    }

    /// A reactor driven by hand on the test's thread: no event loop runs,
    /// the test applies its actions with [`Reactor::drain_actions`].
    fn reactor() -> Reactor {
        reactor_with(ServeConfig::default())
    }

    fn reactor_with(config: ServeConfig) -> Reactor {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let poller = Poller::new().expect("poller");
        let engine = Engine::new().with_registry_cap(1000);
        let shared = Arc::new(Shared::new(engine, config, poller.waker()));
        Reactor::new(shared, poller, listener)
    }

    /// A client connection of `tenant`, past `Hello`.
    struct Peer {
        token: u64,
        reader: std::io::BufReader<TcpStream>,
    }

    impl Peer {
        /// A protocol-1 connection: it names no protocol.
        fn connect(reactor: &mut Reactor, tenant: &str) -> Self {
            Self::connect_with(reactor, tenant, None)
        }

        fn connect_with(reactor: &mut Reactor, tenant: &str, protocol: Option<u32>) -> Self {
            let addr = reactor.listener.local_addr().expect("address");
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .expect("timeout");
            let token = reactor.next_token;
            reactor.accept_ready();
            assert!(reactor.conns.contains_key(&token), "accepted");
            let hello = Request::Hello {
                tenant: tenant.to_string(),
                protocol,
            };
            reactor.handle_request(token, hello, 0);
            let mut peer = Self {
                token,
                reader: std::io::BufReader::new(stream),
            };
            peer.frame();
            peer
        }

        /// The next frame the server sent, header included.
        fn frame(&mut self) -> Vec<u8> {
            match protocol::read_frame(&mut self.reader, 1 << 20).expect("a frame") {
                protocol::FrameIn::Frame(payload) => {
                    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
                    frame.extend(payload);
                    frame
                }
                other => panic!("not a frame: {other:?}"),
            }
        }

        /// Send `Join` for job `id`.
        fn join(&self, reactor: &mut Reactor, id: u64) {
            reactor.handle_request(self.token, Request::Join { job: id }, 0);
        }

        /// Apply posted actions until this peer's pending verb resolves,
        /// then read its answer.
        fn answer(&mut self, reactor: &mut Reactor) -> Vec<u8> {
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            while reactor.conns[&self.token].pending.is_some() {
                assert!(std::time::Instant::now() < deadline, "no answer");
                std::thread::sleep(Duration::from_millis(1));
                reactor.drain_actions();
            }
            self.frame()
        }
    }

    /// Finished job `id`'s record, whose shape is checked: its `Stats`
    /// row, its `ObserveEnd` frame and its `Joined` parts, and no encoded
    /// `Joined` frame.
    fn finished_of(reactor: &Reactor, id: u64) -> &Finished {
        let finished = reactor.jobs.table[&id].finished.as_ref();
        let finished = finished.expect("finished");
        // Exhaustive: a field added to the record must be checked here.
        let Finished { row: _, end, parts } = finished;
        let observe_end = Response::Ok(Payload::ObserveEnd {
            job: id,
            status: parts.status().name().to_string(),
        });
        let observe_end = encode_shared_frame(&observe_end).expect("encode");
        assert_eq!(
            end[..],
            observe_end[..],
            "job {id}: `end` is its ObserveEnd"
        );
        finished
    }

    /// Job `id`'s protocol-1 `Joined` frame, encoded from its parts.
    fn v1_frame(reactor: &Reactor, id: u64) -> Arc<[u8]> {
        let job = &reactor.jobs.table[&id];
        finished_of(reactor, id).parts.encode(id, &job.name)
    }

    /// Whether connection `token` waits on a lane verb.
    fn in_lane(reactor: &Reactor, token: u64) -> bool {
        matches!(reactor.conns[&token].pending, Some(PendingVerb::Lane(_)))
    }

    /// `Joined.weights_bits` of a `Joined` frame.
    fn weights_bits(frame: &[u8]) -> Option<Vec<String>> {
        let Response::Ok(Payload::Joined(wire)) =
            serde_json::from_slice(&frame[4..]).expect("decode Joined")
        else {
            panic!("not a Joined answer");
        };
        wire.weights_bits
    }

    /// A finished job's record keeps no `Joined` frame. Each protocol-1
    /// `Join` of a completed, a cancelled and a failed job leaves the job's
    /// waiters for the tenant's lane, which encodes the frame from the
    /// job's parts; every later `Join`, from the same connection or
    /// another, reads the first `Join`'s bytes.
    #[test]
    fn a_late_join_of_a_compacted_job_reads_the_first_joins_bytes() {
        let mut reactor = reactor();
        let shared = Arc::clone(&reactor.shared);
        let trained = shared
            .engine
            .train(
                TrainRequest::new(
                    GradientKind::LogisticRegression,
                    DataSource::registry("adult"),
                )
                .max_iter(3)
                .named("acme:j1"),
            )
            .expect("train");
        let outcomes = [
            Ok(trained),
            Err(SessionError::Cancelled { iterations: 7 }),
            Err(SessionError::UnknownName("m".to_string())),
        ];
        let mut first = Peer::connect(&mut reactor, "acme");
        let mut second = Peer::connect(&mut reactor, "acme");
        for (id, outcome) in (1..).zip(&outcomes) {
            finish_job(&mut reactor.jobs, &shared, (id, "acme", Some(id)), outcome);
            first.join(&mut reactor, id);
            let taken = first.answer(&mut reactor);
            assert_eq!(taken, v1_frame(&reactor, id)[..]);
            for peer in [&mut first, &mut second] {
                peer.join(&mut reactor, id);
                assert!(in_lane(&reactor, peer.token), "job {id}: a lane verb");
                assert!(reactor.jobs.table[&id].waiters.is_empty(), "job {id}");
                assert_eq!(
                    peer.answer(&mut reactor),
                    taken,
                    "job {id}: a late join reads the first join's bytes"
                );
                finished_of(&reactor, id);
            }
        }
    }

    /// Two protocol-1 `Join`s waiting on a running job leave its waiters
    /// for the tenant's lane once it finishes, and each reads the frame
    /// encoded from the job's parts; the job's waiter list gives its
    /// capacity back.
    #[test]
    fn two_joins_waiting_on_a_running_job_leave_for_the_lane_when_it_finishes() {
        let mut reactor = reactor();
        let shared = Arc::clone(&reactor.shared);
        let job = ServedJob::new(1, "acme".into(), "j1".to_string());
        let sink = JobSink::new(&shared, &job);
        reactor.jobs.table.insert(1, job);
        let mut peers = [
            Peer::connect(&mut reactor, "acme"),
            Peer::connect(&mut reactor, "acme"),
        ];
        for peer in &peers {
            peer.join(&mut reactor, 1);
        }
        let tokens: Vec<u64> = peers.iter().map(|peer| peer.token).collect();
        assert_eq!(reactor.jobs.table[&1].waiters, tokens);

        let outcome = Err(SessionError::Cancelled { iterations: 4 });
        sink.finished(&outcome);
        reactor.drain_actions();
        for token in tokens {
            assert!(in_lane(&reactor, token), "both joins left for the lane");
        }
        let waiters = &reactor.jobs.table[&1].waiters;
        assert!(waiters.is_empty() && waiters.capacity() == 0);
        let expected = JoinedParts::new(&outcome).encode(1, "j1");
        for peer in &mut peers {
            assert_eq!(peer.answer(&mut reactor), expected[..]);
        }
        finished_of(&reactor, 1);
    }

    /// A protocol-2 `Join` of a finished job is answered on the spot, the
    /// JSON header and the raw block straight from the job's model: no
    /// lane encode, and no frame kept.
    #[test]
    fn a_raw_join_is_answered_on_the_spot_and_keeps_no_frame() {
        let mut reactor = reactor();
        let shared = Arc::clone(&reactor.shared);
        let trained = shared
            .engine
            .train(
                TrainRequest::new(
                    GradientKind::LogisticRegression,
                    DataSource::registry("adult"),
                )
                .max_iter(3)
                .named("acme:j1"),
            )
            .expect("train");
        let weights = trained.model.weights.as_slice().to_vec();
        finish_job(
            &mut reactor.jobs,
            &shared,
            (1, "acme", Some(1)),
            &Ok(trained),
        );
        let mut peer = Peer::connect_with(&mut reactor, "acme", Some(PROTOCOL_RAW_WEIGHTS));
        peer.join(&mut reactor, 1);
        assert!(reactor.conns[&peer.token].pending.is_none(), "answered");
        assert!(shared.next_action().is_none(), "no lane encode");
        let parts = &finished_of(&reactor, 1).parts;

        let header = peer.frame();
        assert_eq!(weights_bits(&header), None, "the header carries no weights");
        let block = peer.frame();
        let bytes: Vec<u8> = weights.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(block[4..], bytes[..]);
        let mut reply = parts.reply(1, "j1");
        reply.weights = None;
        let expected = encode_shared_frame(&reply).expect("encode");
        assert_eq!(header, expected[..], "the protocol-1 frame without weights");
    }

    /// A lane verb's answer that arrives while the write buffer still holds
    /// earlier bytes, and does not fit under the cap beside them, waits on
    /// the connection and goes out once the buffer drains: lag, not a slow
    /// consumer.
    #[test]
    fn a_lane_answer_past_the_cap_waits_for_the_buffer_to_drain() {
        let max = 1024;
        let mut reactor = reactor_with(ServeConfig {
            max_write_buffer: max,
            ..ServeConfig::default()
        });
        let mut peer = Peer::connect(&mut reactor, "acme");
        let token = peer.token;
        // Fill the socket's kernel buffers while the peer reads nothing, so
        // what the reactor queues next stays in its own buffer.
        let mut stuffed = 0;
        loop {
            let before = stuffed;
            let mut stream = &reactor.conns[&token].stream;
            loop {
                match stream.write(&[0; 64 << 10]) {
                    Ok(n) => stuffed += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("stuffing the socket: {e}"),
                }
            }
            if stuffed == before {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let failed = |text: String| {
            let response = Response::Err(WireError::new(code::FAILED, text));
            encode_shared_frame(&response).expect("encode")
        };
        let earlier = failed("e".repeat(600));
        let answer = failed("a".repeat(600));
        reactor.send(token, &earlier);
        let buffered = reactor.conns[&token].wbuf_bytes;
        assert!(buffered > 0 && buffered + answer.len() > max, "no room");

        let lane_answer = Arc::clone(&answer);
        reactor.run_in_lane(token, "acme", move |_| lane_answer);
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !matches!(
            reactor.conns[&token].pending,
            Some(PendingVerb::Lane(Some(_)))
        ) {
            assert!(std::time::Instant::now() < deadline, "no answer parked");
            std::thread::sleep(Duration::from_millis(1));
            reactor.drain_actions();
        }
        assert_eq!(reactor.conns[&token].wbuf_bytes, buffered, "it waits");
        assert!(!reactor.conns[&token].doomed);

        // The peer reads the filler; the reactor flushes as the socket takes
        // more, as on a writable event, and the answer follows.
        let mut filler = (&mut peer.reader).take(stuffed as u64);
        let read = io::copy(&mut filler, &mut io::sink()).expect("read");
        assert_eq!(read, stuffed as u64);
        loop {
            let conn = &reactor.conns[&token];
            if conn.pending.is_none() && conn.wbuf.is_empty() {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "not flushed");
            std::thread::sleep(Duration::from_millis(1));
            reactor.service(token);
        }
        assert_eq!(peer.frame(), earlier[..]);
        assert_eq!(peer.frame(), answer[..]);
        assert_eq!(reactor.counters.slow_consumer_disconnects, 0);
    }

    /// Two same-named jobs of one tenant may run at once; whichever binds
    /// the name last, each job's `Joined` carries the weights it trained,
    /// under either protocol, even once the name was rebound.
    #[test]
    fn joined_carries_its_own_jobs_weights() {
        let mut reactor = reactor();
        let shared = Arc::clone(&reactor.shared);
        let request = |max_iter| {
            TrainRequest::new(
                GradientKind::LogisticRegression,
                DataSource::registry("adult"),
            )
            .max_iter(max_iter)
            .named("acme:m")
        };
        let a = shared.engine.train(request(3)).expect("train A");
        let a_model = shared.engine.model("acme:m").expect("A bound");
        shared.engine.train(request(6)).expect("train B");
        let b_model = shared.engine.model("acme:m").expect("B bound");
        assert_ne!(
            a_model.weights, b_model.weights,
            "the two runs must differ to tell"
        );

        let job = ServedJob::new(1, "acme".into(), "m".to_string());
        JobSink::new(&shared, &job).finished(&Ok(a));
        let action = shared
            .next_action()
            .expect("the sink posts the finished job");
        assert!(matches!(action, Action::Finished { .. }));
        reactor.jobs.table.insert(1, job);
        reactor.jobs.apply(&shared, action);

        let expected: Vec<String> = a_model
            .weights
            .as_slice()
            .iter()
            .copied()
            .map(protocol::f64_to_bits_hex)
            .collect();
        let mut peer = Peer::connect(&mut reactor, "acme");
        for _ in 0..2 {
            peer.join(&mut reactor, 1);
            assert_eq!(
                weights_bits(&peer.answer(&mut reactor)),
                Some(expected.clone())
            );
        }
        let mut raw = Peer::connect_with(&mut reactor, "acme", Some(PROTOCOL_RAW_WEIGHTS));
        raw.join(&mut reactor, 1);
        let Response::Ok(Payload::Joined(mut wire)) =
            serde_json::from_slice(&raw.answer(&mut reactor)[4..]).expect("decode header")
        else {
            panic!("not a Joined answer");
        };
        wire.attach_weight_block(&raw.frame()[4..])
            .expect("a weight block");
        assert_eq!(wire.weights_bits, Some(expected));
    }
}
