//! The typed requests of [`crate::Engine`]'s verbs — and what the
//! declarative statements of [`crate::Session`] lower onto.
//!
//! A [`TrainRequest`] pairs a [`DataSource`] with the typed
//! [`TrainSpec`] of the planner, so programs state tasks as values
//! instead of formatting Appendix A statements. [`PredictRequest`] and
//! [`ExplainRequest`] complete the verb set.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ml4all_core::chooser::OptimizerConfig;
use ml4all_core::lang::{AlgorithmPin, TrainSpec};
use ml4all_core::OptimizerError;
use ml4all_dataflow::SamplingMethod;
use ml4all_datasets::source::DataSource;
use ml4all_gd::{GdVariant, GradientKind};

use crate::Model;

/// A typed training request: what [`crate::Engine::train`] and
/// [`crate::Engine::submit`] consume, and what `run` statements lower onto.
#[derive(Debug, Clone)]
pub struct TrainRequest {
    /// Where the training data comes from.
    pub source: DataSource,
    /// The typed task specification (gradient, constraints, directives).
    pub spec: TrainSpec,
    /// Result name to bind (`Q1 = run …`); auto-generated when `None`.
    pub name: Option<String>,
    /// RNG seed for training and sampling.
    pub seed: u64,
    /// Optional real wall-clock limit on the execution phase: the run is
    /// stopped cooperatively at the next wave boundary once it expires
    /// (distinct from [`TrainSpec::time_budget`], which constrains the
    /// *simulated* cost the optimizer accepts).
    pub wall_limit: Option<Duration>,
    /// Emit a [`crate::JobEvent::Progress`] tick every this many
    /// iterations; `None` uses the engine's default cadence.
    pub progress_every: Option<u64>,
    /// Write a durability checkpoint every this many iterations (engines
    /// with a state directory only; `None` disables checkpointing). A
    /// checkpointed job killed mid-run can be resubmitted with
    /// [`TrainRequest::resume`] and continues bit-identically.
    pub checkpoint_every: Option<u64>,
    /// Resume from the persisted checkpoint of this same logical request
    /// when one exists (engines with a state directory only); a missing
    /// checkpoint falls back to a cold run.
    pub resume: bool,
}

impl TrainRequest {
    /// A request to learn `gradient` on `source` with the Appendix A
    /// defaults (tolerance 10⁻³, speculation on).
    pub fn new(gradient: GradientKind, source: impl Into<DataSource>) -> Self {
        Self {
            source: source.into(),
            spec: TrainSpec::new(gradient),
            name: None,
            seed: 0,
            wall_limit: None,
            progress_every: None,
            checkpoint_every: None,
            resume: false,
        }
    }

    /// `having epsilon …` — the tolerance ε.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.spec.epsilon = Some(epsilon);
        self
    }

    /// `having max iter …` — the iteration cap. Without an epsilon this
    /// fixes the iteration count and skips speculation.
    pub fn max_iter(mut self, max_iter: u64) -> Self {
        self.spec.max_iter = Some(max_iter);
        self
    }

    /// `having time …` — bound on the chosen plan's predicted training
    /// time in simulated seconds, checked once when the plan is chosen
    /// (a real-time limit on the run is [`TrainRequest::wall_limit`]).
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.spec.time_budget = Some(budget);
        self
    }

    /// `using step …` — β for the `β/√i` schedule.
    pub fn step(mut self, beta: f64) -> Self {
        self.spec.step = Some(beta);
        self
    }

    /// `using batch …` — MGD mini-batch size.
    pub fn batch(mut self, batch: u64) -> Self {
        self.spec.batch = Some(batch);
        self
    }

    /// `using algorithm …` — restrict the search to one GD algorithm. An
    /// explicit `MiniBatch { batch }` size is authoritative over
    /// [`batch`](Self::batch), whichever is called first.
    pub fn algorithm(mut self, variant: GdVariant) -> Self {
        self.spec.algorithm = Some(match variant {
            GdVariant::Batch => AlgorithmPin::Batch,
            GdVariant::Stochastic => AlgorithmPin::Stochastic,
            GdVariant::MiniBatch { batch } => AlgorithmPin::MiniBatch {
                batch: Some(batch as u64),
            },
        });
        self
    }

    /// `using sampler …` — restrict the search to one sampling strategy.
    pub fn sampler(mut self, sampler: SamplingMethod) -> Self {
        self.spec.sampler = Some(sampler);
        self
    }

    /// Bind the result to `name` (`Q1 = run …`).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Stop execution cooperatively once `limit` of real wall-clock has
    /// elapsed (checked at wave boundaries; the partial result is kept).
    pub fn wall_limit(mut self, limit: Duration) -> Self {
        self.wall_limit = Some(limit);
        self
    }

    /// Emit a progress tick every `every` iterations (overrides the
    /// engine's default cadence; 0 disables ticks for this job).
    pub fn progress_every(mut self, every: u64) -> Self {
        self.progress_every = Some(every);
        self
    }

    /// Write a durability checkpoint every `every` iterations (0 disables
    /// checkpointing). Takes effect on engines configured with
    /// [`crate::Engine::with_state_dir`]; ignored otherwise.
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = if every == 0 { None } else { Some(every) };
        self
    }

    /// Resume from this request's persisted checkpoint when one exists.
    /// The continued run is bit-identical — weights, ledger, and event
    /// suffix — to the run that was interrupted; with no checkpoint on
    /// disk the job simply starts cold.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Validate and produce the optimizer configuration (shared with the
    /// statement front-end via [`TrainSpec::to_config`]).
    pub fn config(&self) -> Result<OptimizerConfig, OptimizerError> {
        let mut config = self.spec.to_config()?;
        config.seed = self.seed;
        Ok(config)
    }
}

/// How a predict request names its model.
#[derive(Debug, Clone)]
pub enum ModelRef {
    /// A name resolved first against the engine's trained results, then
    /// as a model file — the `with <model>` interpretation.
    Named(String),
    /// A model file on disk only.
    File(PathBuf),
    /// A model value handed over directly — shared, e.g. the one
    /// [`Engine::model`](crate::Engine::model) returns, so scoring with it
    /// copies no weights.
    Inline(Arc<Model>),
}

impl From<&str> for ModelRef {
    fn from(name: &str) -> Self {
        Self::Named(name.to_string())
    }
}

impl From<String> for ModelRef {
    fn from(name: String) -> Self {
        Self::Named(name)
    }
}

impl From<Model> for ModelRef {
    fn from(model: Model) -> Self {
        Self::Inline(Arc::new(model))
    }
}

impl From<Arc<Model>> for ModelRef {
    fn from(model: Arc<Model>) -> Self {
        Self::Inline(model)
    }
}

/// A typed prediction request: score `source` with `model`.
#[derive(Debug, Clone)]
pub struct PredictRequest {
    /// Test data.
    pub source: DataSource,
    /// The model to score with.
    pub model: ModelRef,
}

impl PredictRequest {
    /// Score `source` with `model`.
    pub fn new(source: impl Into<DataSource>, model: impl Into<ModelRef>) -> Self {
        Self {
            source: source.into(),
            model: model.into(),
        }
    }
}

/// A typed explain request: run the cost-based optimizer for a training
/// request and report the full costed plan table without executing the
/// winner.
#[derive(Debug, Clone)]
pub struct ExplainRequest {
    /// The training request to explain.
    pub train: TrainRequest,
    /// Also *execute* every enumerated plan through its mapped backend for
    /// exactly the costed iteration count and report the ledger-measured
    /// cost beside the prediction (the conformance column).
    pub measured: bool,
}

impl ExplainRequest {
    /// Explain `train`.
    pub fn new(train: TrainRequest) -> Self {
        Self {
            train,
            measured: false,
        }
    }

    /// Request the predicted-vs-measured column.
    pub fn measured(mut self, measured: bool) -> Self {
        self.measured = measured;
        self
    }
}

impl From<TrainRequest> for ExplainRequest {
    fn from(train: TrainRequest) -> Self {
        Self::new(train)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4all_core::chooser::IterationsSource;
    use ml4all_gd::StepSize;

    #[test]
    fn builder_mirrors_planner_semantics() {
        let req = TrainRequest::new(GradientKind::Svm, "adult")
            .epsilon(0.01)
            .max_iter(500)
            .step(2.0)
            .sampler(SamplingMethod::ShuffledPartition);
        let cfg = req.config().unwrap();
        assert_eq!(cfg.tolerance, 0.01);
        assert_eq!(cfg.max_iter, 500);
        assert_eq!(cfg.step, StepSize::BetaOverSqrtI { beta: 2.0 });
        assert_eq!(cfg.pinned_sampling, Some(SamplingMethod::ShuffledPartition));
        assert!(matches!(cfg.iterations, IterationsSource::Speculate(_)));
    }

    #[test]
    fn max_iter_without_epsilon_fixes_iterations() {
        let cfg = TrainRequest::new(GradientKind::Svm, "adult")
            .max_iter(100)
            .config()
            .unwrap();
        assert!(matches!(cfg.iterations, IterationsSource::Fixed(100)));
    }

    #[test]
    fn minibatch_pin_carries_its_batch_size() {
        let cfg = TrainRequest::new(GradientKind::Svm, "adult")
            .algorithm(GdVariant::MiniBatch { batch: 64 })
            .config()
            .unwrap();
        assert_eq!(cfg.pinned_variant, Some(GdVariant::MiniBatch { batch: 64 }));
        assert_eq!(cfg.batch_size, 64);
    }

    #[test]
    fn minibatch_pin_and_batch_compose_order_independently() {
        let pin_then_batch = TrainRequest::new(GradientKind::Svm, "adult")
            .algorithm(GdVariant::MiniBatch { batch: 1000 })
            .batch(64)
            .config()
            .unwrap();
        let batch_then_pin = TrainRequest::new(GradientKind::Svm, "adult")
            .batch(64)
            .algorithm(GdVariant::MiniBatch { batch: 1000 })
            .config()
            .unwrap();
        for cfg in [pin_then_batch, batch_then_pin] {
            // The size written inside the pin is authoritative.
            assert_eq!(
                cfg.pinned_variant,
                Some(GdVariant::MiniBatch { batch: 1000 })
            );
            assert_eq!(cfg.batch_size, 1000);
        }
    }

    #[test]
    fn invalid_values_are_rejected_like_the_language() {
        assert!(TrainRequest::new(GradientKind::Svm, "adult")
            .epsilon(-1.0)
            .config()
            .is_err());
        assert!(TrainRequest::new(GradientKind::Svm, "adult")
            .max_iter(0)
            .config()
            .is_err());
        assert!(TrainRequest::new(GradientKind::Svm, "adult")
            .step(0.0)
            .config()
            .is_err());
    }
}
