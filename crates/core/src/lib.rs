//! The ML4all cost-based gradient-descent optimizer — the paper's primary
//! contribution (Sections 3, 5, 6, 7 and Appendix A).
//!
//! Given a declarative ML task ("run classification on data having epsilon
//! 0.01"), the optimizer:
//!
//! 1. **estimates the number of iterations** each GD algorithm needs to
//!    reach the requested tolerance, by *speculation*: run the algorithm on
//!    a small sample under an iteration cap, record the error sequence, fit
//!    `T(ε) = a/ε`, extrapolate ([`estimator`], Algorithm 1);
//! 2. **enumerates the plan space** of Figure 5 — {BGD} ∪ {SGD, MGD} ×
//!    {eager, lazy} × {Bernoulli, random-partition, shuffled-partition},
//!    pruned to 11 plans ([`planspace`]);
//! 3. **costs each plan** with the operator cost model of Equations 3–6
//!    composed into the per-plan formulas of Equations 7–9 ([`cost`]);
//! 4. **picks the cheapest plan** and reports the full cost table plus the
//!    speculation overhead ([`chooser`]);
//! 5. optionally parses the whole task from the declarative language of
//!    Appendix A ([`lang`]).
//!
//! # Quickstart
//!
//! ```no_run
//! use ml4all_core::chooser::{choose_plan, OptimizerConfig};
//! use ml4all_dataflow::{ClusterSpec, SimEnv};
//! use ml4all_gd::{execute_plan, GradientKind, TrainParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = ClusterSpec::paper_testbed();
//! let data = ml4all_datasets::registry::covtype().build(10_000, 7, &cluster)?;
//! let config = OptimizerConfig::new(GradientKind::LogisticRegression)
//!     .with_tolerance(0.001);
//! let report = choose_plan(&data, &config, &cluster)?;
//! println!("best plan: {}", report.best().plan);
//!
//! let mut env = SimEnv::new(cluster);
//! let params = config.train_params();
//! let result = execute_plan(&report.best().plan, &data, &params, &mut env)?;
//! println!("trained in {} iterations", result.iterations);
//! # Ok(())
//! # }
//! ```

pub mod calibration;
pub mod chooser;
pub mod cost;
pub mod curvefit;
pub mod estimator;
pub mod lang;
pub mod plancache;
pub mod planspace;
pub mod platform;

pub use calibration::{
    plan_feature_key, CalibrationSnapshot, CalibrationStamp, CostScales, ResidualEntry,
};
pub use chooser::{choose_plan, OptimizerConfig, OptimizerReport, PlanChoice};
pub use curvefit::CurveFit;
pub use estimator::{estimate_iterations, IterationsEstimate, SpeculationConfig};
pub use plancache::{PlanCache, PlanCacheEntry, PlanCacheKey};
pub use planspace::{enumerate_plans, enumerate_plans_for_variants};
pub use platform::{map_plan, Platform, PlatformMapping};

/// Errors raised by the optimizer.
#[derive(Debug)]
pub enum OptimizerError {
    /// The speculative run produced no usable error sequence (e.g. the
    /// algorithm diverged or emitted a single point).
    InsufficientSpeculation {
        /// Which plan was being speculated.
        plan: String,
        /// Number of usable `(iteration, error)` pairs observed.
        pairs: usize,
    },
    /// Underlying GD execution failed.
    Gd(ml4all_gd::GdError),
    /// Dataset-level failure.
    Dataflow(ml4all_dataflow::DataflowError),
    /// The declarative query is malformed.
    Language {
        /// Byte span of the offending token in the query text (empty for
        /// semantic errors raised after parsing).
        span: lang::lexer::Span,
        /// What went wrong.
        message: String,
    },
    /// The query's constraints cannot be satisfied (the paper: "if the
    /// system cannot satisfy any of these constraints, it informs the
    /// user which constraint she has to revisit").
    UnsatisfiableConstraint(String),
    /// A persisted plan-cache entry predates calibration-generation
    /// keying (or lost its generation to hand editing) and cannot be
    /// trusted to price plans correctly — refused on load, never replayed.
    StalePlanCache {
        /// The offending entry's cache key.
        key: String,
    },
}

impl std::fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InsufficientSpeculation { plan, pairs } => write!(
                f,
                "speculation for {plan} produced only {pairs} usable error points"
            ),
            Self::Gd(e) => write!(f, "gd error: {e}"),
            Self::Dataflow(e) => write!(f, "dataflow error: {e}"),
            Self::Language { span, message } => {
                write!(f, "query error at byte {}: {message}", span.start)
            }
            Self::UnsatisfiableConstraint(msg) => write!(f, "unsatisfiable constraint: {msg}"),
            Self::StalePlanCache { key } => write!(
                f,
                "stale plan-cache entry (no calibration generation): {key}"
            ),
        }
    }
}

impl std::error::Error for OptimizerError {}

impl From<ml4all_gd::GdError> for OptimizerError {
    fn from(e: ml4all_gd::GdError) -> Self {
        Self::Gd(e)
    }
}

impl From<ml4all_dataflow::DataflowError> for OptimizerError {
    fn from(e: ml4all_dataflow::DataflowError) -> Self {
        Self::Dataflow(e)
    }
}
