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
//!      Explain, Predict   │                    │ (Event, Finished, Respond)
//!                 ┌───────▼────────────────────┴───────────────┐
//!                 │ engine runtime: one worker pool, one lane   │
//!                 │ per tenant (EventSink encodes each event    │
//!                 │ and the terminal frames, then posts them)   │
//!                 └────────────────────────────────────────────┘
//! ```
//!
//! The reactor ([`crate::reactor`]) owns every socket: nonblocking
//! reads feed an incremental [`FrameDecoder`], and verbs that answer
//! from in-memory state (`Hello`, `Submit`, `Cancel`, `Join`, `Observe`,
//! `Stats`, `ServerStats`) run inline. Everything that computes runs on
//! the engine's runtime, the process's one worker pool, in the
//! requesting tenant's lane: admitted training jobs, and the two verbs
//! that do real work (`Explain`, `Predict`), which stay outside the
//! admission quotas and answer through the action queue. Within a lane
//! jobs run FIFO, across lanes round-robin, so one tenant's burst of
//! cold `Explain`s cannot hold back another tenant's `Predict`. The
//! reactor alone owns the job table and every job's frames, unlocked: a
//! training job's worker serializes each [`ml4all::JobEvent`] **once**
//! into a length-prefixed frame shared (`Arc<[u8]>`) by every observer
//! and posts it as an `Event`, then its terminal frames as `Finished`.
//! So a thousand idle observers cost file descriptors and buffer space,
//! not threads, and replay from any sequence number is a buffer copy.
//! Applying `Finished`, the reactor encodes the job's `Stats` row once,
//! and answers `Stats` by copying finished rows into the frame.
//!
//! Outbound data sits in a per-connection write buffer capped at
//! [`ServeConfig::max_write_buffer`] bytes, under one rule: a frame fits
//! if it stays under the cap, or if it is larger than the whole cap and
//! the buffer is empty. A connection waiting on a job (`Observe`, `Join`)
//! is paced by that rule — its events, then its terminal frame, are
//! topped up as the socket drains — so a large backlog or a large
//! `Joined` is lag, never an offence. A one-shot answer that does not fit
//! a non-empty buffer, or an observer whose socket absorbs nothing while
//! its stream keeps producing, makes the peer a slow consumer: its
//! undelivered whole frames are dropped, it receives a final typed
//! `slow_consumer` error frame, and is disconnected once that drains —
//! the partially-written head frame is always completed first so the
//! stream stays frame-aligned to the end.
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

use ml4all::{Engine, EventSink, JobEvent, JobHandle, JobStatus, ModelRef, PredictRequest};
use ml4all::{ExplainRequest, SessionError, TrainRequest, Trained, RNG_STREAM_VERSION};

use crate::admission::{Admission, TenantQuota};
use crate::protocol::{
    self, code, encode_shared_frame, Decoded, EncodedRow, FrameDecoder, JobRow, JoinedReply,
    Payload, Request, Response, StatsReply, WireError, WireEvent, WireServerStats,
    DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
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
    /// Cap on a connection's buffered outbound bytes. `Observe` and
    /// `Join` are paced through it; a one-shot answer may overshoot it
    /// only into an empty buffer, and one that overflows a non-empty
    /// buffer is a `slow_consumer` disconnect (see the module docs).
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
/// the most ([`Jobs::prune`]).
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

/// A finished job's record: the weights live once, in the encoded
/// `Joined` frame.
struct Finished {
    /// The job's `Stats` row, final — status `completed`, `cancelled` or
    /// `failed` — and encoded once.
    row: EncodedRow,
    /// Pre-framed `Joined(outcome)` response.
    joined: Arc<[u8]>,
    /// Pre-framed `ObserveEnd` response.
    end: Arc<[u8]>,
}

/// One wire-submitted job and its progress, owned by the reactor. Events
/// are stored pre-framed — serialized exactly once by the job's worker,
/// shared by every observer, indexed by sequence number.
#[derive(Default)]
struct ServedJob {
    id: u64,
    tenant: String,
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
    fn new(id: u64, tenant: &str, name: String) -> Self {
        let tenant = tenant.to_string();
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
}

/// Work pool workers hand to the reactor through [`Shared::post`]. A
/// worker only encodes; the reactor, the one owner of the job table,
/// applies what it is posted.
enum Action {
    /// An `Explain`/`Predict` answer: queue `frame` on connection
    /// `token`.
    Respond { token: u64, frame: Arc<[u8]> },
    /// Job `job`'s event `seq`, pre-framed, to append to its frames.
    Event {
        job: u64,
        seq: u64,
        frame: Arc<[u8]>,
    },
    /// Job `job` ended under `status`, after its last event, with its
    /// pre-framed `Joined` and `ObserveEnd` answers.
    Finished {
        job: u64,
        status: JobStatus,
        joined: Arc<[u8]>,
        end: Arc<[u8]>,
    },
}

struct Shared {
    engine: Engine,
    config: ServeConfig,
    /// Admitted jobs waiting for dispatch: job id and engine request.
    admission: Admission<(u64, TrainRequest)>,
    protocol_errors: AtomicU64,
    shutdown: AtomicBool,
    actions: Mutex<VecDeque<Action>>,
    waker: Waker,
}

impl Shared {
    fn new(engine: Engine, config: ServeConfig, waker: Waker) -> Self {
        let admission = Admission::new(DRR_QUANTUM, config.global_in_flight, config.default_quota);
        for (tenant, quota) in &config.tenant_quotas {
            admission.set_quota(tenant, *quota);
        }
        Self {
            engine,
            config,
            admission,
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
            std::thread::spawn(move || {
                Reactor {
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
                    jobs: Jobs::default(),
                    touched: Vec::new(),
                    tokens: Vec::new(),
                    next_token: FIRST_CONN_TOKEN,
                }
                .run();
            })
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
/// and at the end the terminal frames, and posts them to the reactor,
/// which owns the job's frame buffer. No pump thread exists per job —
/// this *is* the push path.
struct JobSink {
    shared: Arc<Shared>,
    job: u64,
    /// `"{tenant}:{name}"`: the prefix stripped from bound names on the
    /// wire, then the job's visible name.
    qualified: String,
    /// Where the prefix ends in `qualified`.
    split: usize,
    /// The next event's sequence number (a job emits its events one
    /// after another).
    seq: AtomicU64,
}

impl JobSink {
    fn new(shared: &Arc<Shared>, job: &ServedJob) -> Self {
        Self {
            shared: Arc::clone(shared),
            job: job.id,
            qualified: format!("{}:{}", job.tenant, job.name),
            split: job.tenant.len() + 1,
            seq: AtomicU64::new(0),
        }
    }
}

impl EventSink for JobSink {
    fn event(&self, event: JobEvent) {
        let wire = WireEvent::from_job_event(&event, &self.qualified[..self.split]);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let frame = encode_shared_frame(&Response::Ok(Payload::Event { seq, event: wire }))
            .expect("serialize event");
        self.shared.post(Action::Event {
            job: self.job,
            seq,
            frame,
        });
    }

    fn finished(&self, outcome: &Result<Trained, SessionError>) {
        let (status, reply) = project_outcome(self.job, &self.qualified[self.split..], outcome);
        let end = encode_shared_frame(&Response::Ok(Payload::ObserveEnd {
            job: self.job,
            status: status.name().to_string(),
        }))
        .expect("serialize");
        let joined = encode_shared_frame(&reply).expect("serialize");
        self.shared.post(Action::Finished {
            job: self.job,
            status,
            joined,
            end,
        });
    }
}

/// The one projection of a job's outcome onto the wire: its terminal
/// status and `Joined` answer — bound name, plan and the weights this job
/// bound on success, iterations on cancellation, the rendered error on
/// failure.
fn project_outcome<'a>(
    job: u64,
    name: &'a str,
    outcome: &'a Result<Trained, SessionError>,
) -> (JobStatus, JoinedReply<'a>) {
    let mut reply = JoinedReply {
        job,
        ..JoinedReply::default()
    };
    let status = match outcome {
        Ok(trained) => {
            reply.name = Some(name);
            reply.plan = Some(trained.summary.plan.to_string());
            reply.iterations = Some(trained.summary.iterations);
            reply.converged = Some(trained.summary.converged);
            reply.sim_time_s = Some(trained.summary.sim_time_s);
            reply.weights = Some(trained.model.weights.as_slice());
            JobStatus::Completed
        }
        Err(SessionError::Cancelled { iterations }) => {
            reply.iterations = Some(*iterations);
            JobStatus::Cancelled
        }
        Err(other) => {
            reply.error = Some(other.to_string());
            JobStatus::Failed
        }
    };
    reply.status = status.name();
    (status, reply)
}

// ---------------------------------------------------------------------
// Explain/Predict: jobs in the tenant's runtime lane
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
    /// `ObserveEnd`, or `Joined` for a join.
    Job {
        job: u64,
        cursor: Option<usize>,
        /// Consecutive event deliveries that moved `cursor` by nothing
        /// because the write buffer stayed saturated (see
        /// [`OBSERVER_STALL_STRIKES`]).
        stalls: u32,
    },
    /// Waiting for an `Explain`/`Predict` job in the tenant's lane.
    Lane,
}

/// One connection: a readiness-driven state machine.
struct Conn {
    stream: TcpStream,
    tenant: Option<String>,
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

    /// Queue `frame` if it fits the write cap `max`: under it, or — a
    /// single frame larger than the whole cap — into an empty buffer,
    /// where progress beats a livelock and the overshoot is one frame
    /// deep. Returns whether it was queued.
    fn queue(&mut self, frame: &Arc<[u8]>, max: usize) -> bool {
        let fits = self.wbuf.is_empty() || self.wbuf_bytes + frame.len() <= max;
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
                // A lane verb's one answer resolves the connection's
                // pending verb; a connection that died meanwhile is skipped.
                Action::Respond { token, frame } => {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.pending = None;
                        self.send(token, &frame);
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
                Some(asked) if asked != PROTOCOL_VERSION => Response::Err(WireError::new(
                    code::UNSUPPORTED_PROTOCOL,
                    format!("server speaks protocol {PROTOCOL_VERSION}, not {asked}"),
                )),
                _ => {
                    conn.tenant = Some(tenant);
                    Response::Ok(Payload::Hello {
                        server: concat!("ml4all-serve ", env!("CARGO_PKG_VERSION")).to_string(),
                        protocol: PROTOCOL_VERSION,
                        rng_stream_version: RNG_STREAM_VERSION,
                        max_frame: self.shared.config.max_frame as u64,
                    })
                }
            },
            (_, None) => Response::Err(WireError::new(
                code::HELLO_REQUIRED,
                "send Hello with your tenant id first",
            )),
            (Request::Submit { train }, Some(tenant)) => {
                self.jobs.submit(&self.shared, &tenant, &train, cost)
            }
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
                    explain(engine, &train, measured)
                });
            }
            (Request::Predict { model, source }, Some(tenant)) => {
                let owner = tenant.clone();
                return self.run_in_lane(token, &tenant, move |engine| {
                    predict(engine, &owner, &model, &source)
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

    /// Run a computing verb as a job in `tenant`'s runtime lane; its
    /// answer — or `failed` with the panic message, if it panics —
    /// comes back as [`Action::Respond`]. The connection's inbox waits
    /// meanwhile.
    fn run_in_lane(
        &mut self,
        token: u64,
        tenant: &str,
        verb: impl FnOnce(&Engine) -> Response + Send + 'static,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.pending = Some(PendingVerb::Lane);
        let shared = Arc::clone(&self.shared);
        self.shared.engine.spawn_in_lane(
            tenant,
            move |engine| Ok(verb(engine)),
            move |outcome| {
                let response = outcome
                    .unwrap_or_else(|e| Response::Err(WireError::new(code::FAILED, e.to_string())));
                let frame = encode_shared_frame(&response).expect("serialize response");
                shared.post(Action::Respond { token, frame });
            },
        );
    }

    /// Wait on `job`: its events from `cursor` (`Observe`; `None` for a
    /// `Join`), then its terminal frame, fed by the paced top-up in
    /// [`Reactor::service`]. A backlog or a `Joined` larger than the
    /// write cap drains as the socket accepts it — lag, not a protocol
    /// violation. A wait the first top-up cannot finish joins the job's
    /// waiters, to be fed as the job produces.
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
        let waiting = self.conns[&token].pending.is_some();
        if let Some(job) = self.jobs.table.get_mut(&job).filter(|_| waiting) {
            job.waiters.push(token);
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

    /// Feed a connection waiting on a job from the job's frame buffer,
    /// paced by the write cap ([`Conn::queue`]): the events from its
    /// cursor, then — once the job is terminal and every event went out
    /// — the terminal frame, which finishes the wait. A reader catching
    /// up on a large backlog is drip-fed at the rate its socket drains
    /// instead of tripping the cap. Returns whether anything was queued.
    fn top_up(&mut self, token: u64) -> bool {
        let max = self.shared.config.max_write_buffer;
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        let Some(PendingVerb::Job { job, cursor, .. }) = conn.pending else {
            return false;
        };
        // A waited-on job is never pruned.
        let Some(job) = self.jobs.table.get_mut(&job) else {
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
        let done = job.finished.as_ref().is_some_and(|f| match cursor {
            Some(at) => at >= job.frames.len() && conn.queue(&f.end, max),
            None => conn.queue(&f.joined, max),
        });
        let queued = conn.wbuf.len() > queued;
        if done {
            conn.pending = None;
            job.waiters.retain(|&t| t != token);
        } else if let Some(PendingVerb::Job { cursor: at, .. }) = &mut conn.pending {
            *at = cursor;
        }
        queued
    }

    /// Drop one token from a job's waiter list.
    fn unwait(&mut self, job_id: u64, token: u64) {
        if let Some(job) = self.jobs.table.get_mut(&job_id) {
            job.waiters.retain(|&t| t != token);
        }
    }

    // -- write path ---------------------------------------------------

    /// Serialize, queue, and flush one response frame.
    fn respond(&mut self, token: u64, response: &Response) {
        self.send(
            token,
            &encode_shared_frame(response).expect("serialize response"),
        );
    }

    /// Queue one answer frame under the write cap ([`Conn::queue`]) and
    /// flush. A frame that does not fit a non-empty buffer makes the
    /// connection a slow consumer.
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
            self.unwait(job, token);
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
            self.unwait(job, token);
        }
        self.counters.active_connections -= 1;
    }
}

// ---------------------------------------------------------------------
// The job table
// ---------------------------------------------------------------------

/// Every wire-submitted job, live or retained for replay, by id (which is
/// submission order). The reactor owns it: workers reach it only through
/// the [`Action`]s it applies, so nothing here takes a lock.
#[derive(Default)]
struct Jobs {
    table: BTreeMap<u64, ServedJob>,
    /// The last job id handed out.
    last_id: u64,
    /// How many of each tenant's jobs in `table` are terminal.
    terminal: HashMap<String, usize>,
}

impl Jobs {
    /// Admit one training job: namespace its name, register it, and queue
    /// it (or refuse with typed `busy` backpressure).
    fn submit(
        &mut self,
        shared: &Shared,
        tenant: &str,
        train: &protocol::WireTrain,
        cost: usize,
    ) -> Response {
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
        self.table.insert(id, ServedJob::new(id, tenant, visible));
        self.prune();
        match shared.admission.offer(tenant, cost, (id, request)) {
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
        while let Some(dispatched) = shared.admission.try_next() {
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
                status,
                joined,
                end,
            } => {
                if let Some(job) = self.table.get_mut(&id) {
                    job.handle = None;
                    let row = job.row(status).encode();
                    job.finished = Some(Finished { row, joined, end });
                    match self.terminal.get_mut(&job.tenant) {
                        Some(count) => *count += 1,
                        None => drop(self.terminal.insert(job.tenant.clone(), 1)),
                    }
                    shared.admission.complete(&job.tenant);
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
        let lane = shared.admission.stats(tenant);
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
                for job in self.table.values().filter(|job| job.tenant == tenant) {
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
        if job.tenant != tenant {
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
        let mut job = ServedJob::new(id, tenant, format!("j{id}"));
        job.engine_id = engine_id;
        let sink = JobSink::new(shared, &job);
        jobs.table.insert(id, job);
        sink.finished(outcome);
        settle(jobs, shared);
    }

    /// Submit `train` as `tenant`; the new job's id.
    fn submitted(jobs: &mut Jobs, shared: &Shared, tenant: &str, train: &WireTrain) -> u64 {
        let Response::Ok(Payload::Submitted { job }) = jobs.submit(shared, tenant, train, 100)
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
            .filter(|job| job.tenant == tenant)
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
        let mut jobs = Jobs::default();
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
        let running = submitted(&mut jobs, &shared, "a", &train);
        jobs.dispatch(&shared);
        let queued = submitted(&mut jobs, &shared, "b", &train);
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
        let mut jobs = Jobs::default();
        let cancelled = Err(SessionError::Cancelled { iterations: 0 });
        let terminal = SERVED_HISTORY_CAP as u64 + 10;
        for id in 1..=terminal {
            let tenant = if id <= 10 { "quiet" } else { "hog" };
            finish_job(&mut jobs, &shared, (id, tenant, Some(id)), &cancelled);
        }
        jobs.last_id = terminal;
        let train = endless();
        let burst: Vec<u64> = (0..3)
            .map(|_| submitted(&mut jobs, &shared, "hog", &train))
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

    /// Two same-named jobs of one tenant may run at once; whichever binds
    /// the name last, each job's `Joined` carries the weights it trained.
    #[test]
    fn joined_carries_its_own_jobs_weights() {
        let shared = shared();
        let request = |max_iter| {
            TrainRequest::new(
                GradientKind::LogisticRegression,
                DataSource::registry("adult"),
            )
            .max_iter(max_iter)
            .named("acme:m")
        };
        let a = shared.engine.train(request(3)).expect("train A");
        let a_weights = shared.engine.model("acme:m").expect("A bound").weights;
        shared.engine.train(request(6)).expect("train B");
        let b_weights = shared.engine.model("acme:m").expect("B bound").weights;
        assert_ne!(a_weights, b_weights, "the two runs must differ to tell");

        let job = ServedJob::new(1, "acme", "m".to_string());
        JobSink::new(&shared, &job).finished(&Ok(a));
        let Some(Action::Finished { joined, .. }) = shared.next_action() else {
            panic!("the sink posts the finished job");
        };
        let Response::Ok(Payload::Joined(wire)) =
            serde_json::from_slice(&joined[4..]).expect("decode Joined")
        else {
            panic!("not a Joined answer");
        };
        let expected: Vec<String> = a_weights
            .as_slice()
            .iter()
            .copied()
            .map(protocol::f64_to_bits_hex)
            .collect();
        assert_eq!(wire.weights_bits, Some(expected));
    }
}
