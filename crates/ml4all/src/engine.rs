//! The concurrent, job-oriented engine: the system's primary entry point
//! and its whole typed API.
//!
//! An [`Engine`] is cheap to clone and safe to share across threads: every
//! verb takes `&self`, jobs submitted with [`Engine::submit`] multiplex
//! onto the shared `ml4all-runtime` worker pool, and all mutable state —
//! the model registry, the dataset catalog, the plan cache — lives behind
//! interior locks. [`crate::Session`] adds only the statement language on
//! top.
//!
//! Concurrency never perturbs results: each job's execution is
//! deterministic at any worker count (see `ml4all-runtime`), so N jobs
//! submitted concurrently produce bit-identical weights and plan tables
//! to the same N requests run sequentially.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ml4all_calibrate::{
    observed_iterations, should_replan, Calibrator, CalibratorConfig, JobObservation,
};
use ml4all_core::calibration::{plan_feature_key, CalibrationSnapshot};
use ml4all_core::chooser::{
    backend_for, choose_plan, profile_choice, IterationsSource, OptimizerConfig, OptimizerReport,
    PlanChoice,
};
use ml4all_core::estimator::SpeculationConfig;
use ml4all_core::plancache::{PlanCache, PlanCacheKey};
use ml4all_dataflow::{
    Backend, CheckpointError, ClusterSpec, ExecState, PartitionedDataset, Runtime, SimEnv,
    UsageMeter, RNG_STREAM_VERSION,
};
use ml4all_datasets::catalog::{EvictedDataset, SharedResolver};
use ml4all_gd::{execute_plan_observed, ExecHooks, GdPlan, IterationTick, StopReason, TrainResult};

#[cfg(test)]
use crate::durable::{hex_name, unhex_name};
use crate::durable::{JobCheckpoint, StateWriter};
use crate::job::{JobEvent, JobHandle, JobState, JobStatus};
use crate::model::Model;
use crate::request::{ExplainRequest, ModelRef, PredictRequest, TrainRequest};
use crate::SessionError;

/// Seed used when materializing Table 2 registry analogs by name.
pub(crate) const REGISTRY_SEED: u64 = 7;

/// Progress-tick cadence (iterations per [`JobEvent::Progress`]) for jobs
/// that don't set their own.
const DEFAULT_TICK_EVERY: u64 = 100;

/// Tenant tag for jobs submitted through plain [`Engine::submit`].
const LOCAL_TENANT: &str = "local";

/// The engine's shared interior: everything a job needs, behind one `Arc`.
struct EngineCore {
    cluster: ClusterSpec,
    speculation: SpeculationConfig,
    runtime: Arc<Runtime>,
    resolver: SharedResolver,
    /// Bound models by name, shared with the [`Trained`] that bound each.
    models: Mutex<HashMap<String, Arc<Model>>>,
    plan_cache: PlanCache,
    auto_name: AtomicU64,
    next_job: AtomicU64,
    /// Durability root ([`Engine::with_state_dir`]) and its one writer:
    /// plan cache, calibration profile, model registry, and job
    /// checkpoints persist under it. `None` keeps the engine fully
    /// in-memory.
    state: Option<StateWriter>,
    jobs_resumed: AtomicU64,
    /// Online cost-model calibrator ([`Engine::with_calibration`]).
    /// `None` keeps every estimate exactly as the static Eq. 3–9 model
    /// prices it — the cold-start path is bit-identical to an engine
    /// built before calibration existed.
    calibration: Option<Mutex<Calibrator>>,
    /// Mid-flight replanning ([`Engine::with_replanning`]).
    replan: bool,
    replans: AtomicU64,
}

/// The thread-safe, job-oriented entry point: submit training jobs,
/// observe their progress, score and persist models — concurrently.
///
/// ```
/// use ml4all::{Engine, GradientKind, TrainRequest};
///
/// # fn main() -> Result<(), ml4all::SessionError> {
/// let engine = Engine::new();
/// // Two concurrent jobs on the shared worker pool.
/// let a = engine.submit(
///     TrainRequest::new(GradientKind::LogisticRegression, "adult").max_iter(25),
/// );
/// let b = engine.submit(
///     TrainRequest::new(GradientKind::LogisticRegression, "covtype").max_iter(25),
/// );
/// let (a, b) = (a.join()?, b.join()?);
/// assert!(engine.model(&a.name).is_some());
/// assert!(engine.model(&b.name).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Engine {
    core: Arc<EngineCore>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine on the paper's simulated testbed, reading data files
    /// relative to the current directory.
    pub fn new() -> Self {
        Self::with_cluster(ClusterSpec::paper_testbed())
    }

    /// An engine on a custom cluster.
    ///
    /// **Builder contract:** the `with_*` methods reconfigure the engine
    /// in place and compose in any order, but they require exclusive
    /// ownership — call them *before* cloning the engine, wrapping it in
    /// another holder, or submitting jobs; afterwards they panic.
    pub fn with_cluster(cluster: ClusterSpec) -> Self {
        let registry_cap = 4000;
        Self {
            core: Arc::new(EngineCore {
                resolver: SharedResolver::new(".", registry_cap, REGISTRY_SEED, cluster.clone()),
                cluster,
                speculation: SpeculationConfig::default(),
                runtime: Runtime::global(),
                models: Mutex::new(HashMap::new()),
                plan_cache: PlanCache::new(),
                auto_name: AtomicU64::new(0),
                next_job: AtomicU64::new(0),
                state: None,
                jobs_resumed: AtomicU64::new(0),
                calibration: None,
                replan: false,
                replans: AtomicU64::new(0),
            }),
        }
    }

    /// Exclusive access for the builder methods below.
    ///
    /// # Panics
    ///
    /// Panics when the engine is already shared (a clone or a submitted
    /// job holds it): plain configuration fields are read lock-free by
    /// concurrent jobs, so reconfiguring a shared engine is not allowed.
    /// Configure first, share after.
    fn configure(&mut self) -> &mut EngineCore {
        Arc::get_mut(&mut self.core)
            .expect("configure an Engine before sharing it (clone/submit after the builders)")
    }

    /// Resolve dataset paths relative to `dir`. Registered datasets and
    /// memoized analogs are preserved — the builders compose in any
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already shared (see the builder contract
    /// on [`Engine::with_cluster`]).
    pub fn with_data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.configure().resolver.set_data_dir(dir);
        self
    }

    /// Override the speculation settings used by speculative requests.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already shared (see the builder contract
    /// on [`Engine::with_cluster`]).
    pub fn with_speculation(mut self, speculation: SpeculationConfig) -> Self {
        self.configure().speculation = speculation;
        self
    }

    /// Cap the physical rows materialized for registry analogs. Already-
    /// materialized analogs are re-generated at the new cap on next use;
    /// registered datasets are untouched.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already shared (see the builder contract
    /// on [`Engine::with_cluster`]).
    pub fn with_registry_cap(mut self, cap: usize) -> Self {
        self.configure().resolver.set_registry_cap(cap);
        self
    }

    /// Cap the registered-dataset catalog (LRU eviction beyond the cap;
    /// see [`Engine::register_dataset`]). Shrinking below the current
    /// occupancy evicts down immediately, LRU-first.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already shared (see the builder contract
    /// on [`Engine::with_cluster`]).
    pub fn with_catalog_cap(mut self, cap: usize) -> Self {
        self.configure().resolver.set_catalog_cap(cap);
        self
    }

    /// Dispatch jobs and waves through an explicit worker pool instead of
    /// the process-wide runtime.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already shared (see the builder contract
    /// on [`Engine::with_cluster`]).
    pub fn with_runtime(mut self, runtime: Arc<Runtime>) -> Self {
        self.configure().runtime = runtime;
        self
    }

    /// Make the engine durable: plan-cache decisions, bound models, and
    /// job checkpoints persist under `dir` (created on first use) and are
    /// reloaded here, so a fresh engine pointed at the same directory
    /// resumes where a killed process stopped. Every file under the state
    /// directory is written crash-safely (temp sibling + fsync + rename).
    ///
    /// # Panics
    ///
    /// Panics if the engine is already shared (see the builder contract
    /// on [`Engine::with_cluster`]), or if the state directory cannot be
    /// created or read — a serving engine must not come up silently
    /// non-durable — or if its persisted plan cache is stale (see
    /// [`Engine::try_with_state_dir`] for the typed variant).
    pub fn with_state_dir(self, dir: impl Into<PathBuf>) -> Self {
        self.try_with_state_dir(dir)
            .expect("load state dir (use try_with_state_dir for a typed error)")
    }

    /// [`Engine::with_state_dir`] with typed errors: a persisted plan
    /// cache whose entries predate calibration generations (or were
    /// hand-edited to drop them) is refused with
    /// [`OptimizerError::StalePlanCache`](ml4all_core::OptimizerError::StalePlanCache)
    /// instead of silently serving decisions whose pricing provenance is
    /// unknown.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already shared (see the builder contract
    /// on [`Engine::with_cluster`]), or on unreadable state (I/O and
    /// malformed-JSON problems stay panics: they mean the directory is
    /// not a state dir at all).
    pub fn try_with_state_dir(mut self, dir: impl Into<PathBuf>) -> Result<Self, SessionError> {
        let state = StateWriter::open(dir.into());
        let core = self.configure();
        state.load_plan_cache(&core.plan_cache)?;
        *core.models.get_mut().expect("model registry") = state.load_models();
        // A calibrator installed before the state dir reloads its
        // persisted profile now (the builders compose in any order).
        if let Some(cal) = &mut core.calibration {
            if let Some(loaded) = state.load_calibrator(CalibratorConfig::default()) {
                *cal.get_mut().expect("calibrator") = loaded;
            }
        }
        core.state = Some(state);
        Ok(self)
    }

    /// Turn on online cost-model calibration: after every completed job
    /// the engine feeds (predicted cost vector, measured ledger) into a
    /// robust per-operator EWMA that refits unit-cost scales and a
    /// residual model keyed on plan features. Subsequent decisions price
    /// plans with the calibrated estimator; each refit bumps a monotone
    /// *calibration generation* that is part of the plan-cache key, so
    /// stale decisions are never served. With a state dir, the profile
    /// persists to `calibration.json` (atomic rename) and reloads here.
    ///
    /// A cold calibrator (zero observations) is exactly the identity:
    /// decisions, keys, and weights are bit-identical to an uncalibrated
    /// engine.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already shared (see the builder contract
    /// on [`Engine::with_cluster`]), or if a persisted calibration
    /// profile exists but cannot be parsed.
    pub fn with_calibration(mut self) -> Self {
        let core = self.configure();
        let config = CalibratorConfig::default();
        let calibrator = core
            .state
            .as_ref()
            .and_then(|state| state.load_calibrator(config))
            .unwrap_or_else(|| Calibrator::new(config));
        core.calibration = Some(Mutex::new(calibrator));
        self
    }

    /// Turn on deterministic mid-flight replanning: when the iteration
    /// count a job's observed convergence implies leaves `[0.5, 2]` times
    /// the count its plan was priced at
    /// ([`ml4all_calibrate::should_replan`]), the executor yields at a
    /// wave boundary, the chooser re-runs with calibrated costs on the
    /// iterations the observed count leaves, and the job switches plans —
    /// [`JobEvent::Replanned`] records the switch. The trigger is a pure
    /// function of the progress-tick stream, so the decision is
    /// bit-identical at any worker count and across kill/resume.
    ///
    /// # Panics
    ///
    /// Panics if the engine is already shared (see the builder contract
    /// on [`Engine::with_cluster`]).
    pub fn with_replanning(mut self) -> Self {
        self.configure().replan = true;
        self
    }

    /// The cluster this engine simulates.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.core.cluster
    }

    /// Durability checkpoints written by this engine instance.
    pub fn checkpoints_written(&self) -> u64 {
        self.core
            .state
            .as_ref()
            .map_or(0, StateWriter::checkpoints_written)
    }

    /// Offered durability checkpoints that never reached disk: a newer
    /// one replaced them before they were written, or their job completed
    /// first and spent them. Offered checkpoints are written, superseded,
    /// or counted in [`Engine::state_write_failures`].
    pub fn checkpoints_superseded(&self) -> u64 {
        self.core
            .state
            .as_ref()
            .map_or(0, StateWriter::checkpoints_superseded)
    }

    /// State-dir writes that failed: a checkpoint, the plan cache, the
    /// calibration profile, or the removal of a spent checkpoint. None of
    /// them fails a job; each is counted here.
    pub fn state_write_failures(&self) -> u64 {
        self.core.state.as_ref().map_or(0, StateWriter::failures)
    }

    /// Block until every state-dir write offered so far — checkpoints,
    /// `plancache.json`, `calibration.json` — has reached disk or failed
    /// (failures are counted in [`Engine::state_write_failures`]). The
    /// engine's last drop does the same. A no-op without a state dir.
    pub fn sync(&self) {
        if let Some(state) = &self.core.state {
            state.sync();
        }
    }

    /// Jobs this engine instance restored from a persisted checkpoint.
    pub fn jobs_resumed(&self) -> u64 {
        self.core.jobs_resumed.load(Ordering::Relaxed)
    }

    /// The plan cache (hit/miss counters and size, for observability).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.core.plan_cache
    }

    /// The current calibration state, if calibration is on: generation,
    /// per-operator scales, learned residuals. `None` on an uncalibrated
    /// engine.
    pub fn calibration(&self) -> Option<CalibrationSnapshot> {
        self.core
            .calibration
            .as_ref()
            .map(|cal| cal.lock().expect("calibrator").snapshot())
    }

    /// Mid-flight plan switches performed by this engine instance.
    pub fn replans(&self) -> u64 {
        self.core.replans.load(Ordering::Relaxed)
    }

    /// Register an in-memory dataset under a name usable in queries.
    ///
    /// The catalog is capped (see [`Engine::with_catalog_cap`]); when a
    /// new registration exceeds the cap, the least-recently-used entry —
    /// resolution and registration both count as uses, tracked by a
    /// strict counter, so the order is deterministic — is evicted and
    /// returned instead of being silently dropped.
    pub fn register_dataset(
        &self,
        name: impl Into<String>,
        data: PartitionedDataset,
    ) -> Option<EvictedDataset> {
        self.core.resolver.register(name, data)
    }

    /// A previously-trained model by name: the registry's shared model —
    /// the same `Arc` as the binding job's [`Trained::model`] — not a copy.
    pub fn model(&self, name: &str) -> Option<Arc<Model>> {
        self.core
            .models
            .lock()
            .expect("model registry")
            .get(name)
            .cloned()
    }

    /// Submit a training job: returns immediately with a [`JobHandle`]
    /// streaming the job's [`JobEvent`]s. The job runs on the shared
    /// worker pool; any number of jobs may be in flight, and their
    /// results are bit-identical to running the same requests
    /// sequentially. The engine keeps no table of its jobs: the returned
    /// handle is the record (id, status, cancellation, outcome).
    pub fn submit(&self, request: TrainRequest) -> JobHandle {
        let (state, events) = JobState::with_channel();
        self.submit_inner(request, LOCAL_TENANT, state, events)
    }

    /// [`Engine::submit`] under a tenant tag, with the caller's own
    /// push-mode [`EventSink`](crate::EventSink) as the job's event
    /// consumer. The job is dispatched through the runtime's per-tenant
    /// fairness lane ([`Runtime::spawn_in_lane`]), so one tenant queueing
    /// a burst of jobs cannot starve another tenant's submission.
    /// `sink.event` fires per event and `sink.finished` once the outcome
    /// is final, both on the worker thread running the job — so a
    /// serving front end can fan events out to any number of observers
    /// without parking a pump thread per job. The returned handle's
    /// `progress()` iterator is empty; `cancel`/`join`/`wait` work
    /// unchanged. Execution is bit-identical to [`Engine::submit`].
    pub fn submit_with_sink(
        &self,
        request: TrainRequest,
        tenant: &str,
        sink: Arc<dyn crate::EventSink>,
    ) -> JobHandle {
        // An inert receiver keeps the handle shape uniform; nothing is
        // ever sent on it.
        let (_tx, events) = std::sync::mpsc::channel();
        self.submit_inner(request, tenant, JobState::new(Some(sink)), events)
    }

    fn submit_inner(
        &self,
        request: TrainRequest,
        tenant: &str,
        state: JobState,
        events: std::sync::mpsc::Receiver<JobEvent>,
    ) -> JobHandle {
        let id = self.core.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        let state = Arc::new(state);
        let (running, done) = (Arc::clone(&state), Arc::clone(&state));
        self.spawn_in_lane(
            tenant,
            move |engine| {
                running.set_status(JobStatus::Running);
                run_train(&engine.core, &request, &running)
            },
            move |outcome| {
                if let Err(e) = &outcome {
                    match e {
                        SessionError::Cancelled { .. } => {}
                        other => done.emit(|| JobEvent::Failed {
                            message: other.to_string(),
                        }),
                    }
                }
                done.finish(outcome);
            },
        );
        JobHandle { id, state, events }
    }

    /// Run `work` as a detached job in `tenant`'s fairness lane of the
    /// engine's runtime ([`Runtime::spawn_in_lane`]) — the lane every
    /// training job of that tenant runs in — and hand its outcome to
    /// `done` on the same worker. Jobs run FIFO within a lane and
    /// round-robin across lanes. A panic inside `work` reaches `done` as
    /// [`SessionError::JobPanicked`], exactly as a panicking training job
    /// fails.
    pub fn spawn_in_lane<R>(
        &self,
        tenant: &str,
        work: impl FnOnce(&Engine) -> Result<R, SessionError> + Send + 'static,
        done: impl FnOnce(Result<R, SessionError>) + Send + 'static,
    ) {
        let engine = self.clone();
        self.core.runtime.spawn_in_lane(tenant, move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(&engine)))
                .unwrap_or_else(|panic| Err(SessionError::JobPanicked(panic_message(&*panic))));
            // Released before `done` reports: when this was the engine's
            // last clone, its state dir is synced before anyone waiting
            // on the outcome moves on.
            drop(engine);
            done(outcome);
        });
    }

    /// Train synchronously on the calling thread: the exact code path of
    /// [`Engine::submit`] as a job nobody observes (bit-identical
    /// results), blocking until the model is bound.
    ///
    /// ```
    /// use ml4all::{Engine, GradientKind, TrainRequest};
    ///
    /// # fn main() -> Result<(), ml4all::SessionError> {
    /// let engine = Engine::new();
    /// let request = TrainRequest::new(GradientKind::LogisticRegression, "adult")
    ///     .max_iter(25);
    /// let trained = engine.train(request)?;
    /// assert!(engine.model(&trained.name).is_some());
    /// # Ok(())
    /// # }
    /// ```
    pub fn train(&self, request: TrainRequest) -> Result<Trained, SessionError> {
        run_train(&self.core, &request, &JobState::new(None))
    }

    /// Run the cost-based optimizer for a training request and report the
    /// full costed plan table — every enumerated plan with modelled cost,
    /// estimated iterations, and per-operator platform mapping — without
    /// executing the winner. The best row is exactly the plan
    /// [`Engine::train`] would execute for the same request (both take
    /// one decision path), and a repeated request is served from the plan
    /// cache ([`OptimizerReport::cache_hit`] marks it).
    ///
    /// ```
    /// use ml4all::{Engine, ExplainRequest, GradientKind, TrainRequest};
    ///
    /// # fn main() -> Result<(), ml4all::SessionError> {
    /// let engine = Engine::new();
    /// let request = TrainRequest::new(GradientKind::LogisticRegression, "adult")
    ///     .max_iter(25);
    /// let report = engine.explain(ExplainRequest::new(request))?;
    /// assert_eq!(report.choices.len(), 11);
    /// println!("{}", ml4all::render_report(&report));
    /// # Ok(())
    /// # }
    /// ```
    pub fn explain(&self, request: ExplainRequest) -> Result<OptimizerReport, SessionError> {
        let Decision {
            config,
            data,
            mut report,
            ..
        } = decide(&self.core, &request.train, &JobState::new(None))?;
        if request.measured {
            for choice in &mut report.choices {
                choice.measured_s = profile_choice(choice, &data, &config, &self.core.cluster)?
                    .map(|result| result.sim_time_s);
            }
        }
        Ok(report)
    }

    /// Score a dataset with a model, straight off the columnar storage
    /// (no point materialization; see [`Model::predict_batch`]). A bound
    /// model scores as it is shared, with no copy, and MSE and accuracy
    /// come from one pass over the label columns in input order.
    pub fn predict(&self, request: PredictRequest) -> Result<Predictions, SessionError> {
        let model = match request.model {
            ModelRef::Named(name) => match self.model(&name) {
                Some(m) => m,
                None => Model::load(self.core.resolver.data_dir().join(&name))
                    .map(Arc::new)
                    .map_err(|e| match e {
                        crate::ModelError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => {
                            SessionError::Model(crate::ModelError::Format(format!(
                                "`{name}` is neither an engine result nor a readable model file"
                            )))
                        }
                        other => SessionError::Model(other),
                    })?,
            },
            ModelRef::File(path) => {
                Arc::new(Model::load(self.core.resolver.data_dir().join(path))?)
            }
            ModelRef::Inline(model) => model,
        };
        let data = self
            .core
            .resolver
            .resolve_for_predict(&request.source, Some(model.weights.dim()))?;
        // The hint above only pads sparse LIBSVM files; any remaining
        // width mismatch must fail typed here — the dot kernels index the
        // weight slice by feature position and would panic (sparse) or
        // silently truncate (dense).
        let dims = data.descriptor().dims;
        if dims != model.weights.dim() {
            return Err(SessionError::DimensionMismatch {
                model: model.weights.dim(),
                data: dims,
            });
        }
        let predictions = model.predict_batch(&data);
        let (mse, accuracy) = ml4all_datasets::score(&predictions, data.input_order_labels());
        let accuracy = model.gradient.is_classification().then_some(accuracy);
        Ok(Predictions {
            predictions,
            mse,
            accuracy,
        })
    }

    /// Persist the named result to a model file under the data dir.
    pub fn persist(&self, name: &str, path: &str) -> Result<PathBuf, SessionError> {
        let model = self
            .model(name)
            .ok_or_else(|| SessionError::UnknownName(name.to_string()))?;
        let path = self.core.resolver.data_dir().join(path);
        model.save(&path)?;
        Ok(path)
    }
}

/// Summary of a completed training run.
#[derive(Debug, Clone)]
pub struct TrainSummary {
    /// The plan the job finished under: the optimizer's choice, or the
    /// plan a mid-flight replan or an adopted checkpoint switched to.
    pub plan: GdPlan,
    /// Iterations executed.
    pub iterations: u64,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Simulated training seconds.
    pub sim_time_s: f64,
    /// Simulated optimizer (speculation) overhead: the report's
    /// [`OptimizerReport::speculation_sim_s`], the sample collection plus
    /// one speculative run per GD variant the request left choosable (one
    /// under a pinned algorithm).
    pub speculation_s: f64,
    /// Backend the plan executed on, chosen from its platform mapping:
    /// `"simulated-cluster"` when any operator maps to Spark, `"local"`
    /// otherwise.
    pub backend: &'static str,
    /// Physical usage metered by the backend (empty for local runs).
    pub usage: UsageMeter,
}

/// A bound training result: what [`Engine::train`] and
/// [`JobHandle::join`] return.
#[derive(Debug, Clone)]
pub struct Trained {
    /// The bound result name (explicit or generated).
    pub name: String,
    /// Run summary.
    pub summary: TrainSummary,
    /// The model this job bound under `name`, shared with the registry:
    /// its own weights, whatever a later job binds under the same name.
    pub model: Arc<Model>,
}

/// Scores over a test set: what [`Engine::predict`] returns.
#[derive(Debug, Clone)]
pub struct Predictions {
    /// Per-point predictions, in input order.
    pub predictions: Vec<f64>,
    /// Mean squared error against the source's labels.
    pub mse: f64,
    /// Sign accuracy (classification models only).
    pub accuracy: Option<f64>,
}

fn bind_auto_name(core: &EngineCore) -> String {
    format!("Q{}", core.auto_name.fetch_add(1, Ordering::Relaxed) + 1)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// What the decide phase hands on: the job's configuration, its resolved
/// data, its plan-cache key, and the costed plan table.
struct Decision {
    config: OptimizerConfig,
    data: PartitionedDataset,
    key: PlanCacheKey,
    report: OptimizerReport,
}

/// Decide: configure the request, resolve its source, render its
/// plan-cache key, and serve the plan decision from the cache — or
/// optimize cold and populate it. The one decision path of
/// [`Engine::explain`] and every training job. Emits
/// [`JobEvent::SpeculationStarted`] only when a cold decision actually
/// speculates.
fn decide(
    core: &EngineCore,
    request: &TrainRequest,
    job: &JobState,
) -> Result<Decision, SessionError> {
    // The engine's speculation settings apply only when the request
    // actually speculates: a `max iter`-only request keeps its `Fixed`
    // path (Section 8.3).
    let mut config = request.config()?;
    if matches!(config.iterations, IterationsSource::Speculate(_)) {
        config = config.with_speculation(core.speculation.clone());
    }
    config = config.with_runtime(Arc::clone(&core.runtime));
    // Snapshot the calibrator exactly once per job: every use downstream
    // (cache key, pricing, replanning) sees the same generation even if
    // another job bumps the calibrator concurrently.
    if let Some(cal) = &core.calibration {
        config = config.with_calibration(cal.lock().expect("calibrator").snapshot());
    }
    let data = core.resolver.resolve(&request.source)?;
    // The one place a request is rendered into its plan-cache key; a
    // checkpoint's identity derives from the same key.
    let key = PlanCacheKey::new(
        data.fingerprint(),
        &request.spec,
        request.seed,
        &core.speculation,
        &core.cluster,
        config
            .calibration
            .as_ref()
            .map_or(0, |snapshot| snapshot.generation),
    );
    let report = match core.plan_cache.get(&key) {
        Some(report) => report,
        None => {
            if matches!(config.iterations, IterationsSource::Speculate(_)) {
                job.emit(|| JobEvent::SpeculationStarted);
            }
            let report = choose_plan(&data, &config, &core.cluster)?;
            core.plan_cache.insert(key.clone(), &report);
            if let Some(state) = &core.state {
                state.offer_plan_cache(&core.plan_cache, &core.runtime);
            }
            report
        }
    };
    Ok(Decision {
        config,
        data,
        key,
        report,
    })
}

/// The plan a job is executing: its row of the job's costed table, the
/// backend that row maps to, and whether the job has left the chooser's
/// pick — by adopting a checkpoint's plan or by a mid-flight replan. A
/// switched job never replans again and never feeds the calibrator: its
/// run no longer matches one prediction.
struct RunningPlan<'r> {
    row: &'r PlanChoice,
    backend: Backend,
    switched: bool,
}

impl<'r> RunningPlan<'r> {
    fn at(row: &'r PlanChoice, cluster: &ClusterSpec) -> Self {
        Self {
            row,
            backend: backend_for(&row.mapping, cluster),
            switched: false,
        }
    }

    fn switch_to(&mut self, row: &'r PlanChoice, cluster: &ClusterSpec) {
        *self = Self {
            switched: true,
            ..Self::at(row, cluster)
        };
    }
}

/// One training job's fixed inputs, shared by its phases.
struct TrainJob<'a> {
    core: &'a EngineCore,
    request: &'a TrainRequest,
    job: &'a JobState,
    decision: Decision,
    /// The job's checkpoint file (engines with a state dir only).
    durable: Option<JobCheckpoint<'a>>,
}

/// One training job, start to finish: decide, restore, execute in
/// segments, finish. The synchronous [`Engine::train`] and submitted jobs
/// both run exactly this, each under its own [`JobState`], so the two are
/// bit-identical by construction.
fn run_train(
    core: &EngineCore,
    request: &TrainRequest,
    job: &JobState,
) -> Result<Trained, SessionError> {
    let decision = decide(core, request, job)?;
    let run = TrainJob {
        durable: core
            .state
            .as_ref()
            .map(|state| state.checkpoint(&decision.key, decision.config.max_iter, &core.runtime)),
        core,
        request,
        job,
        decision,
    };
    let report = &run.decision.report;
    let mut running = RunningPlan::at(report.best(), &core.cluster);
    job.emit(|| JobEvent::PlanChosen {
        plan: running.row.plan,
        estimated_iterations: running.row.estimated_iterations,
        preparation_s: running.row.preparation_s,
        per_iteration_s: running.row.per_iteration_s,
        total_s: running.row.total_s,
        cache_hit: report.cache_hit,
        backend: running.backend.name(),
    });
    let resume = run.restore(&mut running)?;
    let result = run.segments(&mut running, resume)?;
    run.finish(&running, result)
}

impl TrainJob<'_> {
    /// Restore: when the request resumes and a checkpoint is on disk,
    /// validate it against this job and adopt the plan it was written
    /// under. Returns the state to continue from; with no checkpoint on
    /// disk the job simply starts cold — restart scripts need no
    /// existence probe.
    fn restore<'r>(
        &'r self,
        running: &mut RunningPlan<'r>,
    ) -> Result<Option<ExecState>, SessionError> {
        let Some(durable) = self.durable.as_ref().filter(|_| self.request.resume) else {
            return Ok(None);
        };
        let Some(ckpt) = durable.read()? else {
            return Ok(None);
        };
        // Under replanning a checkpoint may legitimately carry a different
        // plan than today's argmin: the earlier run switched mid-flight,
        // or a calibration refit moved the argmin between runs. Any plan
        // from this request's own costed table is acceptable — same data,
        // spec, seed, and cluster by construction.
        let written_under = self
            .decision
            .report
            .choices
            .iter()
            .find(|choice| choice.plan.to_string() == ckpt.plan)
            .filter(|row| row.plan == running.row.plan || self.core.replan)
            .filter(|_| {
                ckpt.key_hash == durable.key_hash && ckpt.rng_stream_version == RNG_STREAM_VERSION
            });
        let Some(row) = written_under else {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint {} was written by a different job \
                 (key/plan/rng-stream mismatch)",
                durable.path().display()
            ))
            .into());
        };
        if row.plan != running.row.plan {
            running.switch_to(row, &self.core.cluster);
        }
        self.core.jobs_resumed.fetch_add(1, Ordering::Relaxed);
        self.job.emit(|| JobEvent::Resumed {
            iteration: ckpt.state.iteration,
        });
        Ok(Some(ckpt.state))
    }

    /// Segments: execute the running plan under the job's hooks. On a
    /// replan yield, re-choose on the convergence actually observed and
    /// continue — possibly under another plan — from the carried state.
    fn segments<'r>(
        &'r self,
        running: &mut RunningPlan<'r>,
        mut resume: Option<ExecState>,
    ) -> Result<TrainResult, SessionError> {
        let (core, job) = (self.core, self.job);
        let Decision {
            config,
            data,
            report,
            ..
        } = &self.decision;
        let mut params = config.train_params();
        // A wall limit budgets the segment actually executed: a resumed job
        // gets the full limit again for its continuation.
        params.wall_budget = self.request.wall_limit;
        let on_tick = |tick: IterationTick| {
            job.emit(|| JobEvent::Progress {
                iteration: tick.iteration,
                delta: tick.delta,
                sim_time_s: tick.sim_time_s,
                cost: tick.cost,
            });
        };
        let checkpoint_every = self
            .durable
            .as_ref()
            .and(self.request.checkpoint_every)
            .unwrap_or(0);
        let checkpoint_to = self.durable.as_ref().filter(|_| checkpoint_every > 0);

        // Mid-flight replanning arms only when it is turned on, the winner's
        // iteration count was speculated (a fixed-iteration job runs the
        // count it asked for, hence nothing to contradict), and the job has
        // not switched plans already. The trigger is a pure function of
        // the progress-tick stream — bit-identical at any worker count and
        // across kill/resume — and reads only the priced count.
        let mut replan_armed = core.replan
            && matches!(config.iterations, IterationsSource::Speculate(_))
            && !running.switched;
        let (priced, epsilon, max_iter) = (
            running.row.estimated_iterations,
            params.tolerance,
            params.max_iter,
        );
        let replan_trigger =
            move |tick: &IterationTick| should_replan(priced, tick, epsilon, max_iter);

        loop {
            let plan = running.row.plan;
            let on_checkpoint =
                checkpoint_to.map(|durable| move |state: ExecState| durable.offer(plan, state));
            let hooks = ExecHooks {
                cancel: Some(job.cancel.clone()),
                tick_every: self.request.progress_every.unwrap_or(DEFAULT_TICK_EVERY),
                on_tick: Some(&on_tick),
                checkpoint_every,
                on_checkpoint: on_checkpoint
                    .as_ref()
                    .map(|f| f as &(dyn Fn(ExecState) + Sync)),
                resume: resume.take(),
                replan: if replan_armed {
                    Some(&replan_trigger)
                } else {
                    None
                },
            };
            let mut env = SimEnv::with_runtime(core.cluster.clone(), Arc::clone(&core.runtime))
                .with_backend(running.backend.clone());
            let result = execute_plan_observed(&plan, data, &params, &mut env, &hooks)?;
            if result.stop != StopReason::Replan {
                return Ok(result);
            }
            // The executor yielded at a wave boundary: re-run the chooser
            // on the convergence actually observed, under the job's own
            // calibration snapshot, then continue from the carried state.
            // At most one replan per job.
            replan_armed = false;
            let mut state = *result
                .resume_state
                .expect("a replan yield carries its resume state");
            let observed =
                observed_iterations(state.iteration, state.final_delta, epsilon, max_iter);
            let remaining = observed.saturating_sub(state.iteration).max(1);
            // Cache deliberately bypassed: the remaining iteration count is
            // job-local knowledge, not a reusable decision.
            let revision = choose_plan(
                data,
                &config.clone().with_fixed_iterations(remaining),
                &core.cluster,
            )?;
            let to = revision.best();
            if to.plan != plan {
                let from = revision
                    .choices
                    .iter()
                    .find(|choice| choice.plan == plan)
                    .expect("the executing plan is in the revised table");
                job.emit(|| JobEvent::Replanned {
                    iteration: state.iteration,
                    from: plan,
                    to: to.plan,
                    cost_delta: to.ranking_s() - from.ranking_s(),
                });
                core.replans.fetch_add(1, Ordering::Relaxed);
                // A different sampling operator cannot adopt the old
                // sampler's cursor; it starts fresh (deterministically
                // seeded). Same-sampler switches carry the cursor.
                if to.plan.sampling != plan.sampling {
                    state.sampler = None;
                }
                // The revision prices the job's own plans with the same
                // platform mappings (neither depends on the iteration
                // count), so the job continues on its own table's row.
                let row = report
                    .choices
                    .iter()
                    .find(|choice| choice.plan == to.plan)
                    .expect("the revision re-prices the job's own plans");
                running.switch_to(row, &core.cluster);
            }
            resume = Some(state);
        }
    }

    /// Finish: spend the checkpoint, feed calibration, bind the model.
    fn finish(
        &self,
        running: &RunningPlan<'_>,
        result: TrainResult,
    ) -> Result<Trained, SessionError> {
        let (core, job) = (self.core, self.job);
        // A finished job's checkpoint is spent. A cancelled or
        // wall-budget stop keeps its latest one on disk: that is exactly
        // the resumable case, and a resumed segment gets a fresh budget.
        let complete = !matches!(result.stop, StopReason::Cancelled | StopReason::WallBudget);
        if let Some(durable) = &self.durable {
            if complete {
                durable.spend();
            } else {
                durable.keep();
            }
        }
        if result.stop == StopReason::Cancelled {
            job.emit(|| JobEvent::Cancelled {
                iterations: result.iterations,
            });
            return Err(SessionError::Cancelled {
                iterations: result.iterations,
            });
        }
        // Close the loop: feed (predicted cost vector, measured ledger)
        // into the calibrator so the NEXT decision prices plans better —
        // only for a job that ran its chosen plan to the end (a switched
        // job's ledger spans two plans or a plan nobody priced for it; a
        // wall-budget stop is incomplete). Each observation bumps the
        // calibration generation; the state writer persists the profile
        // while the model is written below.
        let Decision { config, data, .. } = &self.decision;
        let row = running.row;
        let feed = core
            .calibration
            .as_ref()
            .filter(|_| complete && !running.switched);
        let observed = feed.zip(row.cost_at(result.iterations));
        if let Some((cal, predicted)) = observed {
            let observation = JobObservation {
                key: plan_feature_key(
                    &format!("{:?}", config.gradient),
                    &row.plan,
                    result.backend,
                    data.descriptor(),
                ),
                predicted,
                predicted_total_s: row.total_at(result.iterations),
                measured: result.cost,
                measured_total_s: result.sim_time_s,
                usage: result.usage.clone(),
            };
            let mut guard = cal.lock().expect("calibrator");
            guard.observe(&observation);
            if let Some(state) = &core.state {
                state.offer_calibration(guard.snapshot(), &core.runtime);
            }
        }

        let name = self
            .request
            .name
            .clone()
            .unwrap_or_else(|| bind_auto_name(core));
        let converged = result.converged();
        let model = Arc::new(Model::new(config.gradient, result.weights));
        if let Some(state) = &core.state {
            model.save(state.model_path(&name))?;
            // The profile this job refit is on disk when it returns; its
            // write overlapped the model's.
            if observed.is_some() {
                state.settle_calibration();
            }
        }
        core.models
            .lock()
            .expect("model registry")
            .insert(name.clone(), Arc::clone(&model));
        job.emit(|| JobEvent::Completed {
            name: name.clone(),
            iterations: result.iterations,
            stop: result.stop,
            converged,
            sim_time_s: result.sim_time_s,
        });
        Ok(Trained {
            name,
            summary: TrainSummary {
                plan: row.plan,
                iterations: result.iterations,
                converged,
                sim_time_s: result.sim_time_s,
                speculation_s: self.decision.report.speculation_sim_s,
                backend: result.backend,
                usage: result.usage,
            },
            model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GradientKind;
    use ml4all_datasets::synth::{dense_classification_columns, DenseClassConfig};
    use std::time::Duration;

    fn quick_engine() -> Engine {
        Engine::new()
            .with_registry_cap(1000)
            .with_speculation(SpeculationConfig {
                sample_size: 300,
                max_iterations: 2000,
                ..SpeculationConfig::default()
            })
    }

    fn mem(n: usize, seed: u64) -> PartitionedDataset {
        let points = dense_classification_columns(&DenseClassConfig {
            n,
            dims: 4,
            noise: 0.05,
            seed,
        });
        PartitionedDataset::from_columns(
            format!("mem-{seed}"),
            &points,
            ml4all_dataflow::PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap()
    }

    fn adult_request() -> TrainRequest {
        TrainRequest::new(
            GradientKind::LogisticRegression,
            crate::DataSource::registry("adult"),
        )
        .max_iter(60)
    }

    #[test]
    fn submitted_jobs_match_synchronous_train_bit_for_bit() {
        let concurrent = quick_engine();
        let serial = quick_engine();
        let handle = concurrent.submit(adult_request().named("J").seed(3));
        // `wait` reports the terminal state and leaves the outcome to `join`.
        assert_eq!(handle.wait(), JobStatus::Completed);
        let job = handle.join().unwrap();
        let sync = serial.train(adult_request().named("J").seed(3)).unwrap();
        assert_eq!(job.name, sync.name);
        assert_eq!(job.summary.plan, sync.summary.plan);
        assert_eq!(job.summary.iterations, sync.summary.iterations);
        assert_eq!(
            job.summary.sim_time_s.to_bits(),
            sync.summary.sim_time_s.to_bits()
        );
        assert_eq!(
            concurrent.model("J").unwrap().weights,
            serial.model("J").unwrap().weights
        );
    }

    #[test]
    fn a_panicking_lane_job_reports_job_panicked() {
        let engine = quick_engine();
        let (tx, rx) = std::sync::mpsc::channel();
        engine.spawn_in_lane(
            "acme",
            |_| -> Result<(), SessionError> { panic!("boom") },
            move |outcome| tx.send(outcome).unwrap(),
        );
        let outcome = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(
            matches!(&outcome, Err(SessionError::JobPanicked(message)) if message == "boom"),
            "{outcome:?}"
        );
        // The panic poisoned nothing: another tenant's training job on the
        // same engine runs to completion.
        let request = TrainRequest::new(
            GradientKind::LogisticRegression,
            crate::DataSource::registry("adult"),
        )
        .max_iter(20)
        .named("healthy");
        let (state, events) = JobState::with_channel();
        let healthy = engine.submit_inner(request, "globex", state, events);
        assert_eq!(healthy.wait(), JobStatus::Completed);
        let trained = healthy.join().expect("a healthy job after the panic");
        assert_eq!(trained.name, "healthy");
    }

    #[test]
    fn job_events_stream_in_lifecycle_order() {
        let engine = quick_engine();
        let request = TrainRequest::new(
            GradientKind::LogisticRegression,
            crate::DataSource::registry("adult"),
        )
        .epsilon(0.01)
        .max_iter(500)
        .progress_every(50)
        .named("evt");
        let handle = engine.submit(request);
        let events: Vec<JobEvent> = handle.progress().collect();
        assert!(matches!(events[0], JobEvent::SpeculationStarted));
        let JobEvent::PlanChosen {
            cache_hit, total_s, ..
        } = &events[1]
        else {
            panic!("expected PlanChosen, got {:?}", events[1]);
        };
        assert!(!cache_hit);
        assert!(*total_s > 0.0);
        let JobEvent::Completed { name, .. } = events.last().unwrap() else {
            panic!("expected Completed, got {:?}", events.last());
        };
        assert_eq!(name, "evt");
        // Ticks (if any) sit between PlanChosen and Completed, in order.
        let ticks: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                JobEvent::Progress { iteration, .. } => Some(*iteration),
                _ => None,
            })
            .collect();
        assert!(ticks.windows(2).all(|w| w[0] < w[1]));
        assert!(ticks.iter().all(|i| i % 50 == 0));
        assert_eq!(handle.status(), JobStatus::Completed);
        handle.join().unwrap();
    }

    #[test]
    fn train_serves_repeated_requests_from_the_plan_cache() {
        let engine = quick_engine();
        let request = || {
            TrainRequest::new(
                GradientKind::LogisticRegression,
                crate::DataSource::registry("adult"),
            )
            .epsilon(0.01)
            .max_iter(400)
        };
        let cold = engine.train(request()).unwrap();
        assert_eq!(engine.plan_cache().misses(), 1);
        assert_eq!(engine.plan_cache().hits(), 0);
        let warm = engine.train(request()).unwrap();
        assert_eq!(engine.plan_cache().hits(), 1);
        assert_eq!(warm.summary.plan, cold.summary.plan);
        assert_eq!(
            warm.summary.sim_time_s.to_bits(),
            cold.summary.sim_time_s.to_bits()
        );
        // The cache-hit marker surfaces on the job's PlanChosen event.
        let handle = engine.submit(request());
        let events: Vec<JobEvent> = handle.progress().collect();
        assert!(
            events.iter().any(|e| matches!(
                e,
                JobEvent::PlanChosen {
                    cache_hit: true,
                    ..
                }
            )),
            "{events:?}"
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, JobEvent::SpeculationStarted)),
            "cache hits skip speculation"
        );
        handle.join().unwrap();
    }

    #[test]
    fn explain_cache_hits_return_the_cold_plan_choice() {
        let engine = quick_engine();
        let request = || ExplainRequest::new(adult_request().epsilon(0.01).max_iter(700));
        let cold = engine.explain(request()).unwrap();
        let warm = engine.explain(request()).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(
            serde_json::to_string(&warm.choices).unwrap(),
            serde_json::to_string(&cold.choices).unwrap(),
            "a hit returns the same PlanChoice table as the cold run"
        );
    }

    #[test]
    fn distinct_seeds_and_specs_miss_the_cache() {
        let engine = quick_engine();
        engine.train(adult_request().seed(1)).unwrap();
        engine.train(adult_request().seed(2)).unwrap();
        engine.train(adult_request().seed(1).max_iter(61)).unwrap();
        assert_eq!(engine.plan_cache().hits(), 0);
        assert_eq!(engine.plan_cache().len(), 3);
    }

    #[test]
    fn concurrent_jobs_share_one_resolved_dataset_storage() {
        let engine = quick_engine();
        let a = engine
            .core
            .resolver
            .resolve(&crate::DataSource::registry("adult"))
            .unwrap();
        let jobs: Vec<JobHandle> = (0..4)
            .map(|seed| engine.submit(adult_request().seed(seed)))
            .collect();
        assert!(jobs.windows(2).all(|pair| pair[0].id() < pair[1].id()));
        for job in jobs {
            job.join().unwrap();
        }
        let b = engine
            .core
            .resolver
            .resolve(&crate::DataSource::registry("adult"))
            .unwrap();
        assert_eq!(
            a.storage_id(),
            b.storage_id(),
            "jobs resolve the shared materialized analog, never a copy"
        );
    }

    #[test]
    fn cancelled_jobs_report_cancellation_and_leave_clean_state() {
        let engine = quick_engine();
        engine.register_dataset("train", mem(2000, 5));
        // A tolerance far below reach keeps the loop running until the
        // cancellation lands.
        let request = || {
            TrainRequest::new(GradientKind::LogisticRegression, "train")
                .epsilon(1e-12)
                .max_iter(100_000)
                .progress_every(1)
                .seed(9)
        };
        let handle = engine.submit(request().named("C"));
        // Cancel as soon as the first tick proves the loop is running.
        for event in handle.progress() {
            if matches!(event, JobEvent::Progress { .. }) {
                handle.cancel();
                break;
            }
        }
        let err = handle.join().unwrap_err();
        let SessionError::Cancelled { iterations } = err else {
            panic!("expected Cancelled, got {err:?}");
        };
        assert!(iterations >= 1);
        assert!(
            engine.model("C").is_none(),
            "a cancelled job binds no model"
        );
        // No poisoned shared state: the same engine trains the same
        // request to completion afterwards, identically to a fresh one.
        let rerun = engine.train(request().max_iter(200).named("R")).unwrap();
        let fresh_engine = quick_engine();
        fresh_engine.register_dataset("train", mem(2000, 5));
        let fresh = fresh_engine
            .train(request().max_iter(200).named("R"))
            .unwrap();
        assert_eq!(rerun.summary.plan, fresh.summary.plan);
        assert_eq!(
            engine.model("R").unwrap().weights,
            fresh_engine.model("R").unwrap().weights
        );
    }

    #[test]
    fn over_budget_files_train_through_the_mapped_slab_path_identically() {
        use ml4all_dataflow::PartitionScheme;
        use ml4all_datasets::MEMORY_BUDGET_ENV;

        // A CSV file several times larger than the memory budget: the
        // resolver must spill it to a memory-mapped slab and train on
        // zero-copy windows, producing bit-identical weights to the same
        // rows held in memory with the same (contiguous) partitioning.
        let dir = std::env::temp_dir().join(format!("ml4all-engine-ooc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rows = dense_classification_columns(&DenseClassConfig {
            n: 2000,
            dims: 4,
            noise: 0.05,
            seed: 11,
        });
        ml4all_datasets::csv::write_csv(
            std::fs::File::create(dir.join("big.csv")).unwrap(),
            &rows.to_points(),
        )
        .unwrap();
        let file_len = std::fs::metadata(dir.join("big.csv")).unwrap().len();

        let engine = quick_engine().with_data_dir(&dir);
        let request = |name: &str, source: crate::DataSource| {
            TrainRequest::new(GradientKind::LogisticRegression, source)
                .max_iter(80)
                .seed(3)
                .named(name)
        };
        std::env::set_var(MEMORY_BUDGET_ENV, "16k");
        assert!(file_len > 16 * 1024, "file must exceed the budget");
        let mapped = engine.train(request("ooc", crate::DataSource::named("big.csv")));
        std::env::remove_var(MEMORY_BUDGET_ENV);
        let mapped = mapped.unwrap();

        // The same rows in memory, partitioned with the same scheme and
        // logical name as the mapped dataset (window partitioning matches
        // contiguous dealing row for row).
        let owned = PartitionedDataset::from_columns(
            "big.csv",
            &rows,
            PartitionScheme::Contiguous,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap();
        let in_mem = engine
            .train(request("mem", crate::DataSource::InMemory(owned)))
            .unwrap();

        // Same content fingerprint → the second job reuses the first
        // job's cached plan; training over the mapped windows is
        // bit-identical to training over the heap store.
        assert!(engine.plan_cache().hits() >= 1);
        assert_eq!(mapped.summary.plan, in_mem.summary.plan);
        assert_eq!(mapped.summary.iterations, in_mem.summary.iterations);
        assert_eq!(
            engine.model("ooc").unwrap().weights,
            engine.model("mem").unwrap().weights
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wall_limit_stops_jobs_at_a_wave_boundary() {
        let engine = quick_engine();
        engine.register_dataset("train", mem(2000, 5));
        let trained = engine
            .train(
                TrainRequest::new(GradientKind::LogisticRegression, "train")
                    .epsilon(1e-12)
                    .max_iter(10_000_000)
                    .wall_limit(Duration::from_millis(50)),
            )
            .unwrap();
        assert!(!trained.summary.converged);
        assert!(trained.summary.iterations >= 1);
        // The engine stays healthy for subsequent work.
        assert!(engine.model(&trained.name).is_some());
    }

    #[test]
    fn failed_jobs_surface_the_error_through_join_and_events() {
        let engine = quick_engine();
        let handle = engine.submit(TrainRequest::new(
            GradientKind::LogisticRegression,
            "no-such-dataset",
        ));
        let events: Vec<JobEvent> = handle.progress().collect();
        assert!(
            events.iter().any(|e| matches!(e, JobEvent::Failed { .. })),
            "{events:?}"
        );
        assert_eq!(handle.status(), JobStatus::Failed);
        assert!(matches!(
            handle.join().unwrap_err(),
            SessionError::Source(_)
        ));
    }

    #[test]
    fn dimension_mismatched_predict_errors_instead_of_panicking() {
        let engine = quick_engine();
        engine.register_dataset("train", mem(400, 5)); // 4 features
        let trained = engine
            .train(TrainRequest::new(GradientKind::LogisticRegression, "train").max_iter(20))
            .unwrap();
        let model = engine.model(&trained.name).unwrap();
        // Scoring 123-feature adult with a 4-weight model must fail typed.
        let err = engine
            .predict(crate::PredictRequest::new(
                crate::DataSource::registry("adult"),
                model,
            ))
            .unwrap_err();
        assert!(
            matches!(
                err,
                SessionError::DimensionMismatch {
                    model: 4,
                    data: 123
                }
            ),
            "{err:?}"
        );
    }

    fn state_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ml4all-engine-state-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn state_dir_persists_models_and_plan_decisions_across_engines() {
        let dir = state_dir("persist");
        let first = quick_engine().with_state_dir(&dir);
        let trained = first.train(adult_request().named("Q").seed(3)).unwrap();
        assert_eq!(first.plan_cache().misses(), 1);
        drop(first);

        // A fresh engine on the same directory — as after a process death
        // — serves the model and the plan decision from disk.
        let second = quick_engine().with_state_dir(&dir);
        let reloaded = second.model("Q").expect("model survives process death");
        assert_eq!(reloaded.weights, second.model("Q").unwrap().weights);
        let warm = second.train(adult_request().named("Q2").seed(3)).unwrap();
        assert_eq!(second.plan_cache().hits(), 1);
        assert_eq!(second.plan_cache().misses(), 0);
        assert_eq!(warm.summary.plan, trained.summary.plan);
        assert_eq!(
            warm.summary.sim_time_s.to_bits(),
            trained.summary.sim_time_s.to_bits()
        );
        assert_eq!(
            second.model("Q2").unwrap().weights,
            reloaded.weights,
            "the persisted decision replays to identical weights"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn model_names_round_trip_through_their_on_disk_encoding() {
        for name in ["Q1", "weird name/with:stuff", "训练", ""] {
            assert_eq!(unhex_name(&hex_name(name)).as_deref(), Some(name));
        }
        // Foreign stems are skipped, not fatal: anything but `hex_name`'s
        // own lowercase spelling, including a non-ASCII stem and the signs
        // and capitals `from_str_radix` would accept.
        for stem in ["odd", "zz", "ab€c", "+f", "4A"] {
            assert_eq!(unhex_name(stem), None, "{stem}");
        }
        assert_eq!(unhex_name("4a").as_deref(), Some("J"));
    }

    #[test]
    fn foreign_model_files_are_skipped_at_engine_start() {
        let dir = state_dir("foreign");
        let models = dir.join("models");
        std::fs::create_dir_all(&models).unwrap();
        let model = |w: f64| {
            Model::new(
                GradientKind::LogisticRegression,
                ml4all_linalg::DenseVector::new(vec![w]),
            )
        };
        for stem in ["ab€c", "+f", "4A"] {
            model(2.0).save(models.join(format!("{stem}.txt"))).unwrap();
        }
        model(1.0)
            .save(models.join(format!("{}.txt", hex_name("J"))))
            .unwrap();

        let engine = quick_engine().with_state_dir(&dir);
        assert_eq!(
            engine.model("J"),
            Some(Arc::new(model(1.0))),
            "only `4a.txt` is J"
        );
        assert_eq!(engine.core.models.lock().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn completed_jobs_spend_their_checkpoint_cancelled_jobs_keep_it() {
        let dir = state_dir("spend");
        let engine = quick_engine().with_state_dir(&dir);
        engine.register_dataset("train", mem(2000, 5));
        let request = || {
            TrainRequest::new(GradientKind::LogisticRegression, "train")
                .epsilon(1e-12)
                .max_iter(40)
                .checkpoint_every(10)
                .seed(9)
        };
        engine.train(request().named("done")).unwrap();
        assert!(engine.checkpoints_written() >= 1);
        let ckpts = || std::fs::read_dir(dir.join("checkpoints")).unwrap().count();
        assert_eq!(ckpts(), 0, "a finished job's checkpoint is deleted");

        // Cancel mid-run: the checkpoint stays for resumption.
        let handle = engine.submit(request().max_iter(100_000).progress_every(1).named("C"));
        for event in handle.progress() {
            if matches!(event, JobEvent::Progress { iteration, .. } if iteration >= 10) {
                handle.cancel();
                break;
            }
        }
        handle.join().unwrap_err();
        assert_eq!(ckpts(), 1, "a cancelled job's checkpoint survives");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resuming_a_foreign_checkpoint_fails_typed() {
        use ml4all_dataflow::checkpoint::{read_checkpoint, write_checkpoint};
        let dir = state_dir("foreign");
        let engine = quick_engine().with_state_dir(&dir);
        engine.register_dataset("train", mem(2000, 5));
        let request = || {
            TrainRequest::new(GradientKind::LogisticRegression, "train")
                .epsilon(1e-12)
                .max_iter(100_000)
                .progress_every(1)
                .checkpoint_every(10)
                .seed(9)
        };
        let handle = engine.submit(request().named("C"));
        for event in handle.progress() {
            if matches!(event, JobEvent::Progress { iteration, .. } if iteration >= 10) {
                handle.cancel();
                break;
            }
        }
        handle.join().unwrap_err();
        // Rewrite the checkpoint as if another job had produced it.
        let path = std::fs::read_dir(dir.join("checkpoints"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut ckpt = read_checkpoint(&path).unwrap();
        ckpt.key_hash ^= 1;
        write_checkpoint(&path, &ckpt).unwrap();
        let err = engine.train(request().resume(true)).unwrap_err();
        assert!(
            matches!(&err, SessionError::Checkpoint(CheckpointError::Mismatch(_))),
            "{err:?}"
        );
        // A corrupted file fails the checksum, typed, no panic.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        let err = engine.train(request().resume(true)).unwrap_err();
        assert!(
            matches!(
                &err,
                SessionError::Checkpoint(CheckpointError::Checksum { .. })
            ),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resume_without_a_checkpoint_starts_cold() {
        let dir = state_dir("cold");
        let engine = quick_engine().with_state_dir(&dir);
        let trained = engine
            .train(adult_request().named("Q").seed(3).resume(true))
            .unwrap();
        assert_eq!(engine.jobs_resumed(), 0);
        assert!(trained.summary.iterations >= 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn catalog_eviction_surfaces_through_the_engine() {
        let engine = Engine::new().with_catalog_cap(2);
        assert!(engine.register_dataset("a", mem(20, 1)).is_none());
        assert!(engine.register_dataset("b", mem(20, 2)).is_none());
        let evicted = engine.register_dataset("c", mem(20, 3)).expect("at cap");
        assert_eq!(evicted.name, "a");
        assert_eq!(evicted.dataset.physical_n(), 20);
    }

    #[test]
    fn a_cold_calibrator_prices_and_trains_bit_identically() {
        let plain = quick_engine();
        let calibrated = quick_engine().with_calibration();
        plain.register_dataset("train", mem(2000, 5));
        calibrated.register_dataset("train", mem(2000, 5));
        let request = || {
            TrainRequest::new(GradientKind::LogisticRegression, "train")
                .epsilon(1e-4)
                .max_iter(200)
                .seed(9)
                .named("J")
        };
        // Identity scales calibrate to the exact same bits: the column
        // exists, the numbers don't move.
        let report = calibrated.explain(ExplainRequest::new(request())).unwrap();
        assert_eq!(report.calibration.unwrap().generation, 0);
        for choice in &report.choices {
            assert_eq!(
                choice.calibrated_s.unwrap().to_bits(),
                choice.total_s.to_bits(),
                "cold calibration must be the identity"
            );
        }
        let a = plain.train(request()).unwrap();
        let b = calibrated.train(request()).unwrap();
        assert_eq!(a.summary.plan, b.summary.plan);
        assert_eq!(
            a.summary.sim_time_s.to_bits(),
            b.summary.sim_time_s.to_bits()
        );
        assert_eq!(
            plain.model("J").unwrap().weights,
            calibrated.model("J").unwrap().weights
        );
    }

    #[test]
    fn calibration_observes_completed_jobs_and_keys_decisions_by_generation() {
        let dir = state_dir("calibration");
        let engine = quick_engine().with_calibration().with_state_dir(&dir);
        engine.register_dataset("train", mem(2000, 5));
        let request = |name: &str| {
            TrainRequest::new(GradientKind::LogisticRegression, "train")
                .epsilon(1e-4)
                .max_iter(200)
                .seed(9)
                .named(name)
        };
        assert_eq!(engine.calibration().unwrap().generation, 0);
        engine.train(request("a")).unwrap();
        let snapshot = engine.calibration().unwrap();
        assert_eq!(snapshot.generation, 1, "each completed job refits once");
        assert!(ml4all_calibrate::profile_path(&dir).exists());
        // The bumped generation is part of the cache key: the same
        // request re-optimizes instead of serving a stale decision.
        engine.train(request("b")).unwrap();
        assert_eq!(engine.plan_cache().misses(), 2);
        assert_eq!(engine.plan_cache().hits(), 0);
        assert_eq!(engine.calibration().unwrap().generation, 2);
        // The newer decision replaced the older one: one entry in memory
        // and one key on disk.
        assert_eq!(engine.plan_cache().len(), 1);
        engine.sync();
        let persisted: Vec<ml4all_core::PlanCacheEntry> =
            serde_json::from_str(&std::fs::read_to_string(dir.join("plancache.json")).unwrap())
                .unwrap();
        assert_eq!(persisted.len(), 1);
        assert_eq!(persisted[0].calibration_generation, Some(1));
        drop(engine);
        // A fresh engine on the same state dir resumes the learned
        // profile, not a cold one.
        let second = quick_engine().with_calibration().with_state_dir(&dir);
        assert_eq!(second.calibration().unwrap().generation, 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_plan_cache_without_generations_is_refused_typed() {
        let dir = state_dir("stale-cache");
        let engine = quick_engine().with_state_dir(&dir);
        engine.train(adult_request().named("Q").seed(3)).unwrap();
        drop(engine);
        // Hand-edit the persisted cache into its pre-calibration shape:
        // entries without a pricing generation.
        let path = dir.join("plancache.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"calibration_generation\": 0"));
        let edited = text.replace(
            "\"calibration_generation\": 0",
            "\"calibration_generation\": null",
        );
        std::fs::write(&path, edited).unwrap();
        let err = quick_engine()
            .try_with_state_dir(&dir)
            .err()
            .expect("a stale plan cache must be refused, not silently served");
        assert!(
            matches!(
                &err,
                SessionError::Optimizer(ml4all_core::OptimizerError::StalePlanCache { .. })
            ),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn an_induced_misprediction_replans_mid_job_deterministically() {
        let setup = || {
            let engine = quick_engine().with_replanning();
            engine.register_dataset("train", mem(3000, 7));
            engine
        };
        let request = || {
            TrainRequest::new(GradientKind::LogisticRegression, "train")
                .epsilon(1e-6)
                .max_iter(400)
                .progress_every(4)
                .seed(11)
                .named("R")
        };
        let doctor = |engine: &Engine| plant_misprediction(engine, &request());

        let first = setup();
        let bad = doctor(&first);
        let handle = first.submit(request());
        let events: Vec<JobEvent> = handle.progress().collect();
        let trained = handle.join().unwrap();
        let (from, to, at, cost_delta) = events
            .iter()
            .find_map(|event| match *event {
                JobEvent::Replanned {
                    iteration,
                    from,
                    to,
                    cost_delta,
                } => Some((from, to, iteration, cost_delta)),
                _ => None,
            })
            .expect("the misprediction must trigger a mid-job replan");
        assert_eq!(from, bad);
        assert_ne!(to, bad, "the honest re-choice abandons the planted plan");
        assert_eq!(
            trained.summary.plan, to,
            "the job finished under the new plan"
        );
        assert_eq!(first.replans(), 1);
        assert_eq!(at % 4, 0, "the switch lands on a tick boundary");

        // The revision prices only the iterations the job can still run:
        // the observed count sits at the cap, so `max_iter − at` of them.
        let Decision { config, data, .. } =
            decide(&first.core, &request(), &JobState::new(None)).unwrap();
        assert_eq!(config.max_iter - at, 392);
        let revision = choose_plan(
            &data,
            &config.clone().with_fixed_iterations(config.max_iter - at),
            &first.core.cluster,
        )
        .unwrap();
        let from_row = revision.choices.iter().find(|c| c.plan == from).unwrap();
        assert_eq!(revision.best().plan, to);
        assert_eq!(
            cost_delta.to_bits(),
            (revision.best().ranking_s() - from_row.ranking_s()).to_bits()
        );

        // Replay on an identical engine: same switch, bit-identical weights.
        let second = setup();
        doctor(&second);
        let replay = second.train(request()).unwrap();
        assert_eq!(replay.summary.plan, trained.summary.plan);
        assert_eq!(replay.summary.iterations, trained.summary.iterations);
        assert_eq!(second.replans(), 1);
        assert_eq!(
            first.model("R").unwrap().weights,
            second.model("R").unwrap().weights
        );
    }

    /// Plant a doctored decision for `request` in `engine`'s plan cache:
    /// the *worst* plan is served as the winner, priced at one iteration,
    /// so the count the executed deltas imply falls far outside the replan
    /// band. Returns the planted plan.
    fn plant_misprediction(engine: &Engine, request: &TrainRequest) -> ml4all_gd::GdPlan {
        let Decision {
            key, mut report, ..
        } = decide(&engine.core, request, &JobState::new(None)).unwrap();
        report.choices.rotate_right(1);
        report.choices[0].estimated_iterations = 1;
        engine.core.plan_cache.insert(key, &report);
        report.choices[0].plan
    }

    /// A `max_iter`-only request runs the count it asked for, so a
    /// replanning engine leaves it as one without replanning would, even
    /// under a plant that would make an armed trigger fire.
    #[test]
    fn a_fixed_iteration_request_never_arms_the_replan_trigger() {
        let request = TrainRequest::new(GradientKind::LogisticRegression, "train")
            .max_iter(200)
            .progress_every(4)
            .seed(11)
            .named("F");
        let run = |engine: Engine| {
            engine.register_dataset("train", mem(3000, 7));
            plant_misprediction(&engine, &request);
            let handle = engine.submit(request.clone());
            let events: Vec<JobEvent> = handle.progress().collect();
            handle.join().unwrap();
            (events, engine)
        };
        let (events, replanning) = run(quick_engine().with_replanning());
        let (_, plain) = run(quick_engine());

        let config = request.config().unwrap();
        assert!(matches!(config.iterations, IterationsSource::Fixed(200)));
        let would_fire = |event: &JobEvent| match *event {
            JobEvent::Progress {
                iteration,
                delta,
                sim_time_s,
                cost,
            } => {
                let tick = IterationTick {
                    iteration,
                    delta,
                    sim_time_s,
                    cost,
                };
                should_replan(1, &tick, config.tolerance, config.max_iter)
            }
            _ => false,
        };
        assert!(events.iter().any(would_fire));
        assert!(!events
            .iter()
            .any(|event| matches!(event, JobEvent::Replanned { .. })));
        assert_eq!(replanning.replans(), 0);
        assert_eq!(
            replanning.model("F").unwrap().weights,
            plain.model("F").unwrap().weights
        );
    }

    /// Cancels its job at the first tick after a mid-flight switch. It runs
    /// on the thread executing the job, so the stop lands on the same wave
    /// boundary every run.
    #[derive(Default)]
    struct CancelAfterSwitch {
        cancel: std::sync::OnceLock<ml4all_dataflow::CancelToken>,
        switched: std::sync::atomic::AtomicBool,
    }

    impl crate::EventSink for CancelAfterSwitch {
        fn event(&self, event: JobEvent) {
            match event {
                JobEvent::Replanned { .. } => self.switched.store(true, Ordering::Relaxed),
                JobEvent::Progress { .. } if self.switched.load(Ordering::Relaxed) => {
                    self.cancel.get().expect("token installed").cancel();
                }
                _ => {}
            }
        }

        fn finished(&self, _outcome: &Result<Trained, SessionError>) {}
    }

    #[test]
    fn only_jobs_that_ran_their_chosen_plan_to_the_end_feed_calibration() {
        let setup = |dir: Option<&std::path::Path>| {
            let mut engine = quick_engine().with_calibration().with_replanning();
            if let Some(dir) = dir {
                engine = engine.with_state_dir(dir);
            }
            engine.register_dataset("train", mem(3000, 7));
            engine
        };
        let request = || {
            TrainRequest::new(GradientKind::LogisticRegression, "train")
                .epsilon(1e-6)
                .max_iter(400)
                .progress_every(4)
                .seed(11)
                .named("R")
        };
        let generation = |engine: &Engine| engine.calibration().unwrap().generation;

        // A job that switched plans mid-flight: its ledger spans two plans.
        let switched = setup(None);
        plant_misprediction(&switched, &request());
        switched.train(request()).unwrap();
        assert_eq!(switched.replans(), 1);
        assert_eq!(generation(&switched), 0, "a switched job feeds nothing");

        // A job stopped right after its switch keeps a checkpoint written
        // under the new plan; resuming it adopts that plan.
        let dir = state_dir("calibration-gate");
        let killed = setup(Some(&dir));
        let bad = plant_misprediction(&killed, &request());
        let sink = Arc::new(CancelAfterSwitch::default());
        let job = JobState::new(Some(sink.clone()));
        let _ = sink.cancel.set(job.cancel.clone());
        let err = run_train(&killed.core, &request().checkpoint_every(1), &job).unwrap_err();
        assert!(matches!(err, SessionError::Cancelled { .. }), "{err:?}");
        assert_eq!(killed.replans(), 1);
        assert_eq!(generation(&killed), 0, "a cancelled job feeds nothing");
        drop(killed);
        let resumed = setup(Some(&dir));
        plant_misprediction(&resumed, &request());
        let trained = resumed
            .train(request().checkpoint_every(1).resume(true))
            .unwrap();
        assert_eq!(resumed.jobs_resumed(), 1);
        assert_eq!(resumed.replans(), 0, "an adopted plan never replans");
        assert_ne!(trained.summary.plan, bad, "the post-switch plan is adopted");
        assert_eq!(generation(&resumed), 0, "an adopting job feeds nothing");
        drop(resumed);
        let _ = std::fs::remove_dir_all(&dir);

        // A job stopped by its wall budget is incomplete.
        let stopped = setup(None);
        let trained = stopped.train(request().wall_limit(Duration::ZERO)).unwrap();
        assert!(!trained.summary.converged);
        assert_eq!(generation(&stopped), 0, "a wall-budget stop feeds nothing");

        // A re-choice that reaffirms the executing plan is no switch: the
        // job ran its chosen plan to the end and feeds the calibrator.
        let reaffirmed = setup(None);
        let pinned = || request().algorithm(ml4all_gd::GdVariant::Batch);
        plant_misprediction(&reaffirmed, &pinned());
        reaffirmed.train(pinned()).unwrap();
        assert_eq!(reaffirmed.replans(), 0);
        assert_eq!(generation(&reaffirmed), 1, "a reaffirmed job feeds once");
    }

    /// The trigger reads the winner's priced count, so a decision served
    /// from the plan cache replans exactly as the cold one it memoizes.
    /// Here the winner is priced at `max_iter` and every tick's observed
    /// count sits at the cap too: the job runs exactly the iterations it
    /// was priced for, so it never replans. (MGD: with BGD pinned there is one plan, so a
    /// replan cannot switch.)
    #[test]
    fn a_winner_priced_and_observed_at_the_cap_never_replans() {
        let engine = quick_engine().with_replanning();
        engine.register_dataset("train", mem(3000, 7));
        let request = TrainRequest::new(GradientKind::LogisticRegression, "train")
            .algorithm(ml4all_gd::GdVariant::MiniBatch { batch: 100 })
            .epsilon(1e-6)
            .max_iter(100)
            .progress_every(1)
            .seed(11);
        // The decision's cache provenance and the job's trajectory.
        let run = |name: &str| {
            let handle = engine.submit(request.clone().named(name));
            let mut cache_hit = None;
            let mut trajectory = Vec::new();
            for event in handle.progress() {
                match event {
                    JobEvent::PlanChosen { cache_hit: hit, .. } => cache_hit = Some(hit),
                    JobEvent::Progress { .. } | JobEvent::Replanned { .. } => {
                        trajectory.push(event)
                    }
                    _ => {}
                }
            }
            handle.join().unwrap();
            (cache_hit, trajectory)
        };

        let (cold_hit, cold) = run("cold");
        let (served_hit, served) = run("served");
        assert_eq!((cold_hit, served_hit), (Some(false), Some(true)));
        assert_eq!(format!("{served:?}"), format!("{cold:?}"));
        assert_eq!(
            engine.model("cold").unwrap().weights,
            engine.model("served").unwrap().weights
        );

        let Decision { config, report, .. } =
            decide(&engine.core, &request, &JobState::new(None)).unwrap();
        assert_eq!(report.best().estimated_iterations, config.max_iter);
        assert_eq!(cold.len() as u64, config.max_iter, "one tick per iteration");
        for event in &cold {
            let JobEvent::Progress {
                iteration, delta, ..
            } = *event
            else {
                panic!("replanned: {event:?}");
            };
            let observed = observed_iterations(iteration, delta, config.tolerance, config.max_iter);
            assert_eq!(observed, config.max_iter, "iteration {iteration}");
        }
        assert_eq!(engine.replans(), 0);
    }
}
