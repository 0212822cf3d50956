//! The planner: turn a training specification into an [`OptimizerConfig`]
//! (Section 3's "translate a declarative query into a GD plan").
//!
//! The typed [`TrainSpec`] is the real planning input; [`plan_query`] is
//! the statement front-end that lowers a parsed `run` query onto it via
//! [`train_spec`]. Programs using the typed engine API build a
//! `TrainSpec` directly and share every validation rule with the language
//! path.

use std::time::Duration;

use ml4all_dataflow::SamplingMethod;
use ml4all_gd::{GdVariant, GradientKind, StepSize};

use crate::chooser::OptimizerConfig;
use crate::lang::ast::{RunQuery, TaskSpec};
use crate::OptimizerError;

/// Default tolerance when the query gives none (Appendix A: "in case no
/// tolerance is specified, the system uses the value 10⁻³ as default").
pub const DEFAULT_TOLERANCE: f64 = 1e-3;

/// A GD algorithm restriction (`using algorithm …`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmPin {
    /// Batch GD only.
    Batch,
    /// Stochastic GD only.
    Stochastic,
    /// Mini-batch GD only. An explicit `batch` (the typed API's
    /// `GdVariant::MiniBatch { batch }`) is authoritative; `None` (the
    /// language's bare `algorithm MGD`) takes the size from
    /// [`TrainSpec::batch`] or the default — so the pin means the same
    /// thing regardless of builder-call order.
    MiniBatch {
        /// Explicit mini-batch size, overriding [`TrainSpec::batch`].
        batch: Option<u64>,
    },
}

/// The typed training specification every front-end lowers onto: the
/// Table 3 gradient plus the optional `having` constraints and `using`
/// directives of Appendix A, as values instead of strings.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSpec {
    /// Gradient function (Table 3 task).
    pub gradient: GradientKind,
    /// `having epsilon …` — tolerance ε.
    pub epsilon: Option<f64>,
    /// `having max iter …` — iteration cap. Without an epsilon this fixes
    /// the iteration count and skips speculation (Section 8.3).
    pub max_iter: Option<u64>,
    /// `having time …` — bound on the chosen plan's predicted training
    /// time in simulated seconds, checked once when the plan is chosen.
    pub time_budget: Option<Duration>,
    /// `using step …` — β for the `β/√i` schedule.
    pub step: Option<f64>,
    /// `using batch …` — MGD mini-batch size.
    pub batch: Option<u64>,
    /// `using algorithm …` — restrict the search to one GD algorithm.
    pub algorithm: Option<AlgorithmPin>,
    /// `using sampler …` — restrict the search to one sampling strategy.
    pub sampler: Option<SamplingMethod>,
}

impl TrainSpec {
    /// An unconstrained specification for `gradient`.
    pub fn new(gradient: GradientKind) -> Self {
        Self {
            gradient,
            epsilon: None,
            max_iter: None,
            time_budget: None,
            step: None,
            batch: None,
            algorithm: None,
            sampler: None,
        }
    }

    /// Validate the specification and produce the optimizer configuration.
    ///
    /// This is the single source of planning semantics: positive-value
    /// checks, the default 10⁻³ tolerance, and the "`max iter` without
    /// `epsilon` fixes the iteration count" rule all live here.
    pub fn to_config(&self) -> Result<OptimizerConfig, OptimizerError> {
        let mut config = OptimizerConfig::new(self.gradient).with_tolerance(DEFAULT_TOLERANCE);

        if let Some(eps) = self.epsilon {
            if eps <= 0.0 {
                return Err(OptimizerError::UnsatisfiableConstraint(
                    "epsilon must be positive".into(),
                ));
            }
            config.tolerance = eps;
        }
        if let Some(max_iter) = self.max_iter {
            if max_iter == 0 {
                return Err(OptimizerError::UnsatisfiableConstraint(
                    "max iter must be positive".into(),
                ));
            }
            config.max_iter = max_iter;
            if self.epsilon.is_none() {
                // Pure iteration budget: no speculation needed (Section
                // 8.3's sub-100 ms optimization path).
                config = config.with_fixed_iterations(max_iter);
            }
        }
        if let Some(budget) = self.time_budget {
            config.time_budget = Some(budget);
        }

        if let Some(step) = self.step {
            if step <= 0.0 {
                return Err(OptimizerError::UnsatisfiableConstraint(
                    "step must be positive".into(),
                ));
            }
            config.step = StepSize::BetaOverSqrtI { beta: step };
        }
        if let Some(batch) = self.batch {
            config.batch_size = batch.max(1) as usize;
        }
        if let Some(alg) = self.algorithm {
            config.pinned_variant = Some(match alg {
                AlgorithmPin::Batch => GdVariant::Batch,
                AlgorithmPin::Stochastic => GdVariant::Stochastic,
                AlgorithmPin::MiniBatch { batch } => {
                    // An explicit pin size wins over `using batch …`; keep
                    // `batch_size` aligned so the enumerated MGD plans run
                    // at the pinned size.
                    let b = batch
                        .map(|b| b.max(1) as usize)
                        .unwrap_or(config.batch_size);
                    config.batch_size = b;
                    GdVariant::MiniBatch { batch: b }
                }
            });
        }
        if let Some(sampler) = self.sampler {
            config.pinned_sampling = Some(sampler);
        }
        Ok(config)
    }
}

/// Lower a parsed `run` query to the typed [`TrainSpec`].
///
/// Task names map to Table 3 gradients: `classification` → hinge (SVM),
/// `regression` → squared loss; explicit gradient functions (`hinge()`,
/// `logistic()`, `squared()`) select directly. Algorithm and sampler names
/// map to their enums.
pub fn train_spec(run: &RunQuery) -> Result<TrainSpec, OptimizerError> {
    let gradient = match &run.task {
        TaskSpec::Classification => GradientKind::Svm,
        TaskSpec::Regression => GradientKind::LinearRegression,
        TaskSpec::GradientFunction(name) => {
            GradientKind::from_function_name(name).ok_or_else(|| OptimizerError::Language {
                span: run.task_span,
                message: format!("unknown gradient function `{name}` (hinge, logistic, squared)"),
            })?
        }
    };

    let algorithm = match &run.using.algorithm {
        None => None,
        Some(alg) => Some(match alg.text.to_ascii_uppercase().as_str() {
            "BGD" | "BATCH" => AlgorithmPin::Batch,
            "SGD" | "STOCHASTIC" => AlgorithmPin::Stochastic,
            "MGD" | "MINIBATCH" | "MINI-BATCH" => AlgorithmPin::MiniBatch { batch: None },
            other => {
                return Err(OptimizerError::Language {
                    span: alg.span,
                    message: format!("unknown algorithm `{other}` (BGD, SGD, MGD)"),
                })
            }
        }),
    };
    let sampler = match &run.using.sampler {
        None => None,
        Some(sampler) => Some(match sampler.text.to_ascii_lowercase().as_str() {
            "bernoulli" => SamplingMethod::Bernoulli,
            "random" | "random_partition" | "random-partition" => SamplingMethod::RandomPartition,
            "shuffled" | "shuffle" | "shuffled_partition" | "shuffled-partition" => {
                SamplingMethod::ShuffledPartition
            }
            other => {
                return Err(OptimizerError::Language {
                    span: sampler.span,
                    message: format!("unknown sampler `{other}` (bernoulli, random, shuffled)"),
                })
            }
        }),
    };

    Ok(TrainSpec {
        gradient,
        epsilon: run.having.epsilon,
        max_iter: run.having.max_iter,
        time_budget: run.having.time,
        step: run.using.step,
        batch: run.using.batch,
        algorithm,
        sampler,
    })
}

/// Map a `run` query to an optimizer configuration: the statement
/// front-end, lowering through [`train_spec`] and [`TrainSpec::to_config`].
pub fn plan_query(run: &RunQuery) -> Result<OptimizerConfig, OptimizerError> {
    train_spec(run)?.to_config()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::IterationsSource;
    use crate::lang::parser::parse_query;
    use crate::lang::Query;

    fn run(q: &str) -> RunQuery {
        match parse_query(q).unwrap() {
            Query::Run(r) => r,
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn classification_defaults_to_hinge_and_1e3_tolerance() {
        let cfg = plan_query(&run("run classification on d.txt;")).unwrap();
        assert_eq!(cfg.gradient, GradientKind::Svm);
        assert_eq!(cfg.tolerance, DEFAULT_TOLERANCE);
        assert!(matches!(cfg.iterations, IterationsSource::Speculate(_)));
    }

    #[test]
    fn explicit_gradients_map_to_table3() {
        assert_eq!(
            plan_query(&run("run logistic() on d.txt;"))
                .unwrap()
                .gradient,
            GradientKind::LogisticRegression
        );
        assert_eq!(
            plan_query(&run("run squared() on d.txt;"))
                .unwrap()
                .gradient,
            GradientKind::LinearRegression
        );
        assert!(plan_query(&run("run mystery() on d.txt;")).is_err());
    }

    #[test]
    fn constraints_flow_into_config() {
        let cfg = plan_query(&run(
            "run classification on d.txt having time 1h30m, epsilon 0.01, max iter 500;",
        ))
        .unwrap();
        assert_eq!(cfg.tolerance, 0.01);
        assert_eq!(cfg.max_iter, 500);
        assert_eq!(cfg.time_budget, Some(std::time::Duration::from_secs(5400)));
        // Epsilon present → still speculative.
        assert!(matches!(cfg.iterations, IterationsSource::Speculate(_)));
    }

    #[test]
    fn max_iter_without_epsilon_fixes_iterations() {
        let cfg = plan_query(&run("run classification on d.txt having max iter 100;")).unwrap();
        assert!(matches!(cfg.iterations, IterationsSource::Fixed(100)));
    }

    #[test]
    fn using_directives_pin_choices() {
        let cfg = plan_query(&run(
            "run classification on d.txt using algorithm SGD, sampler shuffled, step 2, batch 64;",
        ))
        .unwrap();
        assert_eq!(cfg.pinned_variant, Some(GdVariant::Stochastic));
        assert_eq!(cfg.pinned_sampling, Some(SamplingMethod::ShuffledPartition));
        assert_eq!(cfg.step, StepSize::BetaOverSqrtI { beta: 2.0 });
        assert_eq!(cfg.batch_size, 64);
    }

    #[test]
    fn typed_spec_and_parsed_query_agree() {
        let parsed = plan_query(&run(
            "run logistic() on d.txt having epsilon 0.01, max iter 500 \
             using algorithm MGD, batch 64, sampler random, step 2;",
        ))
        .unwrap();
        let mut spec = TrainSpec::new(GradientKind::LogisticRegression);
        spec.epsilon = Some(0.01);
        spec.max_iter = Some(500);
        spec.step = Some(2.0);
        spec.batch = Some(64);
        spec.algorithm = Some(AlgorithmPin::MiniBatch { batch: None });
        spec.sampler = Some(SamplingMethod::RandomPartition);
        let typed = spec.to_config().unwrap();
        assert_eq!(typed.gradient, parsed.gradient);
        assert_eq!(typed.tolerance, parsed.tolerance);
        assert_eq!(typed.max_iter, parsed.max_iter);
        assert_eq!(typed.step, parsed.step);
        assert_eq!(typed.batch_size, parsed.batch_size);
        assert_eq!(typed.pinned_variant, parsed.pinned_variant);
        assert_eq!(typed.pinned_sampling, parsed.pinned_sampling);
    }

    #[test]
    fn mgd_pin_expands_with_the_spec_batch_size() {
        let mut spec = TrainSpec::new(GradientKind::Svm);
        spec.algorithm = Some(AlgorithmPin::MiniBatch { batch: None });
        let cfg = spec.to_config().unwrap();
        assert_eq!(
            cfg.pinned_variant,
            Some(GdVariant::MiniBatch { batch: 1000 })
        );
        spec.batch = Some(64);
        let cfg = spec.to_config().unwrap();
        assert_eq!(cfg.pinned_variant, Some(GdVariant::MiniBatch { batch: 64 }));
    }

    #[test]
    fn explicit_mgd_pin_size_wins_regardless_of_spec_batch() {
        let mut spec = TrainSpec::new(GradientKind::Svm);
        spec.batch = Some(64);
        spec.algorithm = Some(AlgorithmPin::MiniBatch { batch: Some(1000) });
        let cfg = spec.to_config().unwrap();
        assert_eq!(
            cfg.pinned_variant,
            Some(GdVariant::MiniBatch { batch: 1000 })
        );
        assert_eq!(cfg.batch_size, 1000);
    }

    #[test]
    fn invalid_constraints_are_rejected() {
        assert!(plan_query(&run("run classification on d.txt having epsilon -1;")).is_err());
        assert!(plan_query(&run("run classification on d.txt having max iter 0;")).is_err());
        assert!(plan_query(&run("run classification on d.txt using step -1;")).is_err());
        assert!(plan_query(&run("run classification on d.txt using algorithm ADAM;")).is_err());
        assert!(plan_query(&run("run classification on d.txt using sampler sobol;")).is_err());
    }
}
