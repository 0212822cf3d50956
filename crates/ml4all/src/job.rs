//! Jobs: the observable unit of work an [`crate::Engine`] runs.
//!
//! [`Engine::submit`](crate::Engine::submit) returns a [`JobHandle`]
//! immediately; the training runs on the shared worker pool. The handle
//! streams [`JobEvent`]s (`progress()`), supports cooperative
//! cancellation (`cancel()`), and joins the final result (`join()`).

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

use ml4all_dataflow::{CancelToken, CostBreakdown};
use ml4all_gd::{GdPlan, StopReason};

use crate::engine::Trained;
use crate::SessionError;

/// A job's lifecycle state, observable via [`JobHandle::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted; not yet picked up by a worker.
    Queued,
    /// Running (resolving data, optimizing, or iterating).
    Running,
    /// Finished successfully; [`JobHandle::join`] returns `Ok`.
    Completed,
    /// Stopped by [`JobHandle::cancel`]; `join` returns
    /// [`SessionError::Cancelled`].
    Cancelled,
    /// Failed; `join` returns the error.
    Failed,
}

impl JobStatus {
    /// The status's one spelling, lowercase (`queued`, `running`,
    /// `completed`, `cancelled`, `failed`) — as the wire reports it.
    pub fn name(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Completed => "completed",
            Self::Cancelled => "cancelled",
            Self::Failed => "failed",
        }
    }
}

/// One event of a job's progress stream.
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// The optimizer started its speculative runs (Algorithm 1). Not
    /// emitted for fixed-iteration requests or plan-cache hits.
    SpeculationStarted,
    /// The optimizer committed to a plan, with its cost vector.
    PlanChosen {
        /// The winning plan.
        plan: GdPlan,
        /// Iterations the optimizer expects.
        estimated_iterations: u64,
        /// One-time preparation cost (simulated seconds).
        preparation_s: f64,
        /// Expected per-iteration cost (simulated seconds).
        per_iteration_s: f64,
        /// Total estimated cost (simulated seconds).
        total_s: f64,
        /// `true` when the decision came from the plan cache (speculation
        /// skipped).
        cache_hit: bool,
        /// Backend the plan executes on (`"local"` /
        /// `"simulated-cluster"`).
        backend: &'static str,
    },
    /// The job restored a persisted durability checkpoint instead of
    /// starting at iteration 0: execution continues from `iteration`,
    /// bit-identical to the run that was interrupted. Emitted right after
    /// [`JobEvent::PlanChosen`].
    Resumed {
        /// Iterations already completed by the checkpointed run.
        iteration: u64,
    },
    /// Mid-flight replanning: the iteration count the observed
    /// convergence implies left the replan band around the plan's priced
    /// count, the chooser re-ran with calibrated costs on the iterations
    /// that count leaves, and the job switched plans at a wave boundary.
    /// At most one per job; a re-choice that reaffirms the executing plan
    /// emits nothing.
    Replanned {
        /// Wave boundary (iteration) the switch happened at.
        iteration: u64,
        /// Plan the job was executing.
        from: GdPlan,
        /// Plan the job continues under.
        to: GdPlan,
        /// Estimated remaining-cost change of the switch (new minus old,
        /// simulated seconds; negative = projected savings).
        cost_delta: f64,
    },
    /// A per-K-iteration convergence checkpoint.
    Progress {
        /// Iteration just completed (1-based).
        iteration: u64,
        /// Convergence delta at that iteration.
        delta: f64,
        /// Simulated seconds elapsed.
        sim_time_s: f64,
        /// Cost ledger snapshot.
        cost: CostBreakdown,
    },
    /// The job finished and its model was bound.
    Completed {
        /// Bound result name.
        name: String,
        /// Iterations executed.
        iterations: u64,
        /// Why the run stopped.
        stop: StopReason,
        /// Whether the tolerance was reached.
        converged: bool,
        /// Simulated training seconds.
        sim_time_s: f64,
    },
    /// The job observed its cancellation token and stopped.
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

/// Render a job's event stream as a deterministic text trace (no wall
/// clock, stable float formatting) — the surface pinned by the golden
/// trace snapshot.
pub fn render_trace(events: &[JobEvent]) -> String {
    let mut out = String::new();
    for event in events {
        match event {
            JobEvent::SpeculationStarted => out.push_str("speculation started\n"),
            JobEvent::PlanChosen {
                plan,
                estimated_iterations,
                preparation_s,
                per_iteration_s,
                total_s,
                cache_hit,
                backend,
            } => out.push_str(&format!(
                "plan chosen: {plan}  cache={}  est.iter {estimated_iterations}  \
                 prep {preparation_s:.3}s  iter {per_iteration_s:.6}s  total {total_s:.3}s  \
                 on {backend}\n",
                if *cache_hit { "hit" } else { "miss" },
            )),
            JobEvent::Resumed { iteration } => {
                out.push_str(&format!(
                    "resumed from checkpoint at iteration {iteration}\n"
                ));
            }
            JobEvent::Replanned {
                iteration,
                from,
                to,
                cost_delta,
            } => out.push_str(&format!(
                "replanned at iter {iteration}: {from} -> {to}  cost delta {cost_delta:+.3}s\n"
            )),
            JobEvent::Progress {
                iteration,
                delta,
                sim_time_s,
                ..
            } => out.push_str(&format!(
                "tick: iter {iteration}  delta {delta:.6}  sim {sim_time_s:.3}s\n"
            )),
            JobEvent::Completed {
                name,
                iterations,
                stop,
                converged,
                sim_time_s,
            } => out.push_str(&format!(
                "completed [{name}]: {iterations} iterations  stop {stop:?}  \
                 converged {converged}  sim {sim_time_s:.3}s\n"
            )),
            JobEvent::Cancelled { iterations } => {
                out.push_str(&format!("cancelled after {iterations} iterations\n"));
            }
            JobEvent::Failed { message } => out.push_str(&format!("failed: {message}\n")),
        }
    }
    out
}

/// The consumer of a job's event stream. Every job has at most one: the
/// channel behind [`JobHandle::progress`] for
/// [`Engine::submit`](crate::Engine::submit), or the caller's own for
/// [`Engine::submit_with_sink`](crate::Engine::submit_with_sink) — for
/// callers (like a serving front end's reactor) that must not park a
/// thread per job.
///
/// Both callbacks run **on the worker thread executing the job**, so
/// they must be quick and must never block on the job itself (calling
/// [`JobHandle::join`] from inside `event` would deadlock; from inside
/// `finished` it would merely be redundant — the outcome is already in
/// hand as an argument). The job drops its sink right after `finished`
/// returns, so a sink may own whatever owns the job's handle.
pub trait EventSink: Send + Sync + 'static {
    /// One progress event, in emission order. Terminal events
    /// (`Completed` / `Cancelled` / `Failed`) arrive here *before*
    /// `finished` fires.
    fn event(&self, event: JobEvent);
    /// The job reached a terminal state: every event has been delivered
    /// and the outcome is final. Runs *before* joiners blocked in
    /// [`JobHandle::join`] / [`JobHandle::wait`] wake, so state the sink
    /// publishes here is visible to anyone the join unblocks.
    fn finished(&self, outcome: &Result<Trained, SessionError>);
}

/// The pull-mode sink behind [`JobHandle::progress`]: events queue on an
/// unbounded channel, and the stream ends when the finished job drops
/// this sink, and the sender with it.
struct ChannelSink(Sender<JobEvent>);

impl EventSink for ChannelSink {
    fn event(&self, event: JobEvent) {
        // A dropped handle no longer listens; the job runs on regardless.
        let _ = self.0.send(event);
    }

    fn finished(&self, _outcome: &Result<Trained, SessionError>) {}
}

/// The carrier of one training run — submitted or synchronous — shared
/// between its [`JobHandle`] (if any) and the thread running it.
pub(crate) struct JobState {
    pub(crate) cancel: CancelToken,
    status: Mutex<JobStatus>,
    /// `None` for a run nobody observes (a synchronous
    /// [`Engine::train`](crate::Engine::train)), and once finished.
    sink: Mutex<Option<Arc<dyn EventSink>>>,
    outcome: Mutex<Option<Result<Trained, SessionError>>>,
    done: Condvar,
}

impl JobState {
    pub(crate) fn new(sink: Option<Arc<dyn EventSink>>) -> Self {
        Self {
            cancel: CancelToken::new(),
            status: Mutex::new(JobStatus::Queued),
            sink: Mutex::new(sink),
            outcome: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    /// A job whose events feed the returned channel.
    pub(crate) fn with_channel() -> (Self, Receiver<JobEvent>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (Self::new(Some(Arc::new(ChannelSink(tx)))), rx)
    }

    pub(crate) fn set_status(&self, status: JobStatus) {
        *self.status.lock().expect("job status") = status;
    }

    /// Deliver one event to the sink. `event` is built only when a sink
    /// is attached, so an unobserved run pays nothing for its trace.
    pub(crate) fn emit(&self, event: impl FnOnce() -> JobEvent) {
        // Clone the sink out of the lock so a sink callback can never
        // deadlock against another emitter.
        let sink = self.sink.lock().expect("job sink").clone();
        if let Some(sink) = sink {
            sink.event(event());
        }
    }

    /// Set the terminal status, hand the outcome to the sink and release
    /// it (closing a `progress()` stream), then publish the outcome and
    /// wake every joiner.
    pub(crate) fn finish(&self, outcome: Result<Trained, SessionError>) {
        self.set_status(match &outcome {
            Ok(_) => JobStatus::Completed,
            Err(SessionError::Cancelled { .. }) => JobStatus::Cancelled,
            Err(_) => JobStatus::Failed,
        });
        // Notify the sink before publishing the outcome, outside every
        // lock: a `finished` implementation can therefore take its own
        // locks freely, and anything it publishes is visible before
        // joiners wake.
        let sink = self.sink.lock().expect("job sink").take();
        if let Some(sink) = sink {
            sink.finished(&outcome);
        }
        *self.outcome.lock().expect("job outcome") = Some(outcome);
        self.done.notify_all();
    }
}

/// A handle on a submitted job: observe progress, cancel cooperatively,
/// and join the result.
///
/// ```
/// use ml4all::{Engine, GradientKind, JobEvent, TrainRequest};
///
/// # fn main() -> Result<(), ml4all::SessionError> {
/// let engine = Engine::new();
/// let handle = engine.submit(
///     TrainRequest::new(GradientKind::LogisticRegression, "adult")
///         .max_iter(25)
///         .progress_every(10),
/// );
/// // Stream progress while the job runs on the shared pool.
/// for event in handle.progress() {
///     if let JobEvent::PlanChosen { plan, .. } = &event {
///         println!("optimizer picked {plan}");
///     }
/// }
/// let trained = handle.join()?;
/// assert!(trained.summary.iterations >= 1);
/// # Ok(())
/// # }
/// ```
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) state: Arc<JobState>,
    pub(crate) events: Receiver<JobEvent>,
}

impl JobHandle {
    /// The engine-assigned job id (monotonic per engine, never reused).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's current lifecycle state.
    pub fn status(&self) -> JobStatus {
        *self.state.status.lock().expect("job status")
    }

    /// Request cooperative cancellation: the executor observes the token
    /// at the next wave boundary and stops there, keeping all shared
    /// state consistent. Idempotent; a no-op once the job finished.
    pub fn cancel(&self) {
        self.state.cancel.cancel();
    }

    /// Block until the job reaches a terminal state and return it,
    /// *without* consuming the handle or the outcome (unlike
    /// [`JobHandle::join`]).
    pub fn wait(&self) -> JobStatus {
        let mut outcome = self.state.outcome.lock().expect("job outcome");
        while outcome.is_none() {
            outcome = self.state.done.wait(outcome).expect("job wait");
        }
        drop(outcome);
        self.status()
    }

    /// Iterate the job's event stream. Blocks between events while the
    /// job runs and ends once the job finishes (events already emitted
    /// are buffered, so iterating after `join`-readiness yields the full
    /// trace).
    pub fn progress(&self) -> impl Iterator<Item = JobEvent> + '_ {
        self.events.iter()
    }

    /// Block until the job finishes and return its result. A cancelled
    /// job returns [`SessionError::Cancelled`] with the iterations it
    /// completed.
    pub fn join(self) -> Result<Trained, SessionError> {
        let mut outcome = self.state.outcome.lock().expect("job outcome");
        while outcome.is_none() {
            outcome = self.state.done.wait(outcome).expect("job join");
        }
        outcome.take().expect("outcome present")
    }
}
