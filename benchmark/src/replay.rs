//! The traced replay: one job driven *by hand* through the crates' public
//! functions, in the order `ml4all::Engine` and `ml4all_serve::Server`
//! call them, each call under a span of the benchmark's recorder.
//!
//! The engine keeps its phases private, so the only way to time them from
//! outside is to hold its parts — resolver, plan cache, calibrator, state
//! dir — here and make the same calls. The replay is only trusted because
//! it is checked: its weights, plan, iterations and simulated time must
//! equal the engine's bit for bit, or the run fails.
//!
//! Span names (later issues cite them): `serve.client_encode`,
//! `serve.decode`, `datasets.resolve`, `dataflow.fingerprint`,
//! `core.plancache_get`, `core.choose_plan`, `ml4all.plancache_persist`,
//! `gd.execute_plan`, `dataflow.checkpoint_write`, `calibrate.observe`,
//! `ml4all.model_bind`, `serve.encode_frame`, `serve.client_decode`,
//! `ml4all.predict_batch`.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use ml4all::{DataSource, GdPlan, Model, TrainRequest};
use ml4all_calibrate::{profile_path, Calibrator, CalibratorConfig, JobObservation};
use ml4all_core::calibration::plan_feature_key;
use ml4all_core::chooser::{backend_for, choose_plan, IterationsSource};
use ml4all_core::estimator::SpeculationConfig;
use ml4all_core::plancache::{PlanCache, PlanCacheKey};
use ml4all_dataflow::checkpoint::{fnv1a64, write_checkpoint, Checkpoint};
use ml4all_dataflow::{
    atomic_write, ClusterSpec, ExecState, PartitionedDataset, Runtime, SimEnv, RNG_STREAM_VERSION,
};
use ml4all_datasets::SharedResolver;
use ml4all_gd::{execute_plan_observed, ExecHooks, IterationTick};
use ml4all_linalg::DenseVector;
use ml4all_serve::protocol::{encode_frame, encode_weights, Decoded, FrameDecoder};
use ml4all_serve::{Payload, Request, Response, WireTrain, WireTrained, DEFAULT_MAX_FRAME};

use crate::trace::Recorder;
use crate::workload::{Error, Reference};

/// Seed `ml4all::Engine` materialises registry analogs with (its private
/// `REGISTRY_SEED`; a mismatch fails the replay's bit-identity check).
pub const ENGINE_REGISTRY_SEED: u64 = 7;
/// `ml4all::Engine`'s default registry row cap and progress cadence.
pub const ENGINE_REGISTRY_CAP: usize = 4000;
const ENGINE_TICK_EVERY: u64 = 100;

/// One request frame through `FrameDecoder::advance` and the JSON parser,
/// the way the reactor takes it off a socket.
pub fn decode_request(frame: &[u8]) -> Result<Request, Error> {
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
    let mut input = frame;
    let payload = loop {
        let (used, item) = decoder.advance(input);
        input = &input[used..];
        match item {
            Some(Decoded::Frame(payload)) => break payload,
            Some(Decoded::Oversized { len }) => {
                return Err(format!("oversized {len}-byte request frame").into())
            }
            None if input.is_empty() => return Err("truncated request frame".into()),
            None => {}
        }
    };
    Ok(serde_json::from_slice::<Request>(&payload)?)
}

/// What a replayed job produced.
pub struct Outcome {
    pub plan: GdPlan,
    pub iterations: u64,
    pub converged: bool,
    pub sim_time_s: f64,
    pub weights: DenseVector,
}

impl Outcome {
    pub fn check(&self, reference: &Reference) -> Result<(), Error> {
        let same = self.plan.to_string() == reference.plan
            && self.iterations == reference.iterations
            && self.sim_time_s.to_bits() == reference.sim_time_bits
            && reference.matches_weights(self.weights.as_slice());
        if same {
            Ok(())
        } else {
            Err(format!(
                "replay diverged from the engine: plan {} vs {}, iterations {} vs {}",
                self.plan, reference.plan, self.iterations, reference.iterations
            )
            .into())
        }
    }
}

/// The engine's parts, held by hand.
pub struct HandEngine {
    cluster: ClusterSpec,
    speculation: SpeculationConfig,
    runtime: Arc<Runtime>,
    resolver: SharedResolver,
    cache: PlanCache,
    calibrator: Option<Mutex<Calibrator>>,
    state_dir: Option<PathBuf>,
}

impl HandEngine {
    /// The parts of `Engine::with_cluster(cluster).with_data_dir(dir)`.
    pub fn new(cluster: ClusterSpec, data_dir: impl Into<PathBuf>) -> Self {
        Self {
            resolver: SharedResolver::new(
                data_dir,
                ENGINE_REGISTRY_CAP,
                ENGINE_REGISTRY_SEED,
                cluster.clone(),
            ),
            cluster,
            speculation: SpeculationConfig::default(),
            runtime: Runtime::global(),
            cache: PlanCache::new(),
            calibrator: None,
            state_dir: None,
        }
    }

    /// `Engine::with_speculation(speculation)`.
    pub fn with_speculation(mut self, speculation: SpeculationConfig) -> Self {
        self.speculation = speculation;
        self
    }

    /// `Engine::with_calibration()` on a fresh state dir.
    pub fn with_calibration(mut self) -> Self {
        self.calibrator = Some(Mutex::new(Calibrator::new(CalibratorConfig::default())));
        self
    }

    /// `Engine::with_state_dir(dir)` on a directory with nothing to reload.
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Result<Self, Error> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("checkpoints"))?;
        std::fs::create_dir_all(dir.join("models"))?;
        self.state_dir = Some(dir);
        Ok(self)
    }

    pub fn register(&self, name: &str, data: PartitionedDataset) {
        self.resolver.register(name, data);
    }

    /// `Engine::train`, call for call.
    pub fn train(&self, request: &TrainRequest, rec: &Recorder) -> Result<Outcome, Error> {
        let mut config = request.config()?;
        if matches!(config.iterations, IterationsSource::Speculate(_)) {
            config = config.with_speculation(self.speculation.clone());
        }
        config = config.with_runtime(Arc::clone(&self.runtime));
        if let Some(cal) = &self.calibrator {
            config = config.with_calibration(cal.lock().expect("calibrator").snapshot());
        }
        let data = rec.span("datasets.resolve", || {
            self.resolver.resolve(&request.source)
        })?;
        let fingerprint = rec.span("dataflow.fingerprint", || data.fingerprint());
        let generation = config.calibration.as_ref().map_or(0, |s| s.generation);
        let key = PlanCacheKey::new(
            fingerprint,
            &request.spec,
            request.seed,
            &self.speculation,
            &self.cluster,
            generation,
        );
        let cached = rec.span("core.plancache_get", || self.cache.get(&key));
        let report = match cached {
            Some(report) => report,
            None => {
                let report = rec.span("core.choose_plan", || {
                    choose_plan(&data, &config, &self.cluster)
                })?;
                self.cache.insert(key.clone(), &report);
                if let Some(dir) = &self.state_dir {
                    rec.span("ml4all.plancache_persist", || {
                        let json = serde_json::to_string_pretty(&self.cache.export())
                            .expect("plan cache serialises");
                        atomic_write(dir.join("plancache.json"), json.as_bytes())
                    })?;
                }
                report
            }
        };
        let best = report.best();
        let backend = backend_for(&best.mapping, &self.cluster);
        let plan_string = best.plan.to_string();
        let durable = self.state_dir.as_deref().map(|dir| {
            let key_hash = fnv1a64(key.durable_identity().as_bytes());
            let path = dir
                .join("checkpoints")
                .join(format!("{key_hash:016x}.ckpt"));
            (path, key_hash)
        });
        let checkpoint_every = match &durable {
            Some(_) => request.checkpoint_every.unwrap_or(0),
            None => 0,
        };
        let on_tick = |_tick: IterationTick| {};
        let on_checkpoint = |state: ExecState| {
            let Some((path, key_hash)) = &durable else {
                return;
            };
            let ckpt = Checkpoint {
                key_hash: *key_hash,
                plan: plan_string.clone(),
                rng_stream_version: RNG_STREAM_VERSION,
                state,
            };
            let _ = rec.span("dataflow.checkpoint_write", || {
                write_checkpoint(path, &ckpt)
            });
        };
        let hooks = ExecHooks {
            tick_every: request.progress_every.unwrap_or(ENGINE_TICK_EVERY),
            on_tick: Some(&on_tick),
            checkpoint_every,
            on_checkpoint: (checkpoint_every > 0).then_some(&on_checkpoint as _),
            ..ExecHooks::default()
        };
        let mut params = config.train_params();
        params.wall_budget = request.wall_limit;
        let mut env = SimEnv::with_runtime(self.cluster.clone(), Arc::clone(&self.runtime))
            .with_backend(backend);
        let result = rec.span("gd.execute_plan", || {
            execute_plan_observed(&best.plan, &data, &params, &mut env, &hooks)
        })?;
        if let Some((path, _)) = &durable {
            let _ = std::fs::remove_file(path);
        }
        if let Some(cal) = &self.calibrator {
            if let (Some(prep), Some(iter)) = (&best.prep_cost, &best.iter_cost) {
                rec.span("calibrate.observe", || {
                    let iters = result.iterations as f64;
                    let observation = JobObservation {
                        key: plan_feature_key(
                            &format!("{:?}", config.gradient),
                            &best.plan,
                            result.backend,
                            data.descriptor(),
                        ),
                        predicted: prep.plus(&iter.times(iters)),
                        predicted_total_s: best.preparation_s + iters * best.per_iteration_s,
                        measured: result.cost,
                        measured_total_s: result.sim_time_s,
                        usage: result.usage.clone(),
                    };
                    let mut guard = cal.lock().expect("calibrator");
                    guard.observe(&observation);
                    if let Some(dir) = &self.state_dir {
                        let _ = guard.save(&profile_path(dir));
                    }
                });
            }
        }
        let model = rec.span("ml4all.model_bind", || -> Result<Model, Error> {
            let model = Model::new(config.gradient, result.weights.clone());
            if let Some(dir) = &self.state_dir {
                // The engine names the file by the hex of the result name;
                // any fixed name costs the same write.
                model.save(dir.join("models").join("71.txt"))?;
            }
            Ok(model)
        })?;
        Ok(Outcome {
            plan: best.plan,
            iterations: result.iterations,
            converged: result.converged(),
            sim_time_s: result.sim_time_s,
            weights: model.weights,
        })
    }

    /// `Engine::predict` on `source` with `weights`, rows scored.
    pub fn predict(
        &self,
        source: &DataSource,
        model: &Model,
        rec: &Recorder,
    ) -> Result<usize, Error> {
        let data = rec.span("datasets.resolve", || {
            self.resolver
                .resolve_for_predict(source, Some(model.weights.dim()))
        })?;
        let scored = rec.span("ml4all.predict_batch", || model.predict_batch(&data));
        Ok(std::hint::black_box(scored).len())
    }

    /// A wire `Submit … Join` around [`HandEngine::train`]: the client
    /// encodes the request frame, the server decodes and lowers it, the
    /// job runs, the server frames the `Joined` outcome, the client
    /// parses it.
    pub fn wire_job(&self, train: &WireTrain, rec: &Recorder) -> Result<Outcome, Error> {
        let frame = rec.span("serve.client_encode", || {
            encode_frame(&Request::Submit {
                train: train.clone(),
            })
        })?;
        let request = rec.span("serve.decode", || -> Result<TrainRequest, Error> {
            match decode_request(&frame)? {
                Request::Submit { train } => train.to_request().map_err(|e| e.to_string().into()),
                other => Err(format!("expected Submit, decoded {other:?}").into()),
            }
        })?;
        let outcome = self.train(&request, rec)?;
        let response = rec.span("serve.encode_frame", || {
            let (weights, weights_bits) = encode_weights(outcome.weights.as_slice());
            encode_frame(&Response::Ok(Payload::Joined(WireTrained {
                job: 1,
                status: "completed".to_string(),
                name: train.name.clone(),
                plan: Some(outcome.plan.to_string()),
                iterations: Some(outcome.iterations),
                converged: Some(outcome.converged),
                sim_time_s: Some(outcome.sim_time_s),
                weights: Some(weights),
                weights_bits: Some(weights_bits),
                error: None,
            })))
        })?;
        let parsed = rec.span("serve.client_decode", || {
            serde_json::from_slice::<Response>(&response[4..])
        })?;
        match parsed {
            Response::Ok(Payload::Joined(joined)) if joined.status == "completed" => Ok(outcome),
            other => Err(format!("replayed Joined frame parsed as {other:?}").into()),
        }
    }
}
