//! Abstract syntax of the Appendix A language.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::lang::lexer::Span;

/// A word together with its byte span in the statement text, for names the
/// planner validates after parsing (algorithm, sampler) — lowering errors
/// can then point at the offending token.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpannedWord {
    /// The word as written.
    pub text: String,
    /// Its byte span in the statement.
    pub span: Span,
}

impl SpannedWord {
    /// A spanned word.
    pub fn new(text: impl Into<String>, span: Span) -> Self {
        Self {
            text: text.into(),
            span,
        }
    }
}

/// The ML task named in a `run` query, or an explicit gradient function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskSpec {
    /// `run classification …` — SVM or logistic regression (the planner
    /// defaults to SVM's hinge unless a gradient function is given).
    Classification,
    /// `run regression …` — linear regression.
    Regression,
    /// An explicit gradient function: `hinge()`, `logistic()`,
    /// `squared()`, or a user-registered name.
    GradientFunction(String),
}

/// `having` constraints (all optional and independent).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Constraints {
    /// `time 1h30m` — bound on the chosen plan's predicted training time
    /// in simulated seconds, checked once when the plan is chosen.
    pub time: Option<Duration>,
    /// `epsilon 0.01` — tolerance.
    pub epsilon: Option<f64>,
    /// `max iter 1000` — iteration cap.
    pub max_iter: Option<u64>,
}

/// `using` directives for advanced users (all optional).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct UsingClause {
    /// `algorithm SGD|BGD|MGD` — pin the GD algorithm.
    pub algorithm: Option<SpannedWord>,
    /// `step 1.0` — fixed β for the step schedule.
    pub step: Option<f64>,
    /// `sampler bernoulli|random|shuffled` — pin the sampling strategy.
    pub sampler: Option<SpannedWord>,
    /// `convergence cnvg()` — named convergence UDF.
    pub convergence: Option<String>,
    /// `batch 1000` — MGD batch size.
    pub batch: Option<u64>,
}

/// Column selection on the input (`input.txt:2, input.txt:4-20`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnSpec {
    /// 1-based label column.
    pub label: u32,
    /// 1-based inclusive feature-column range.
    pub features: (u32, u32),
}

/// A `run` query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunQuery {
    /// What to learn.
    pub task: TaskSpec,
    /// Byte span of the task word (for unknown-gradient-function errors).
    pub task_span: Span,
    /// Input dataset path or registered name.
    pub dataset: String,
    /// Optional label/feature column selection.
    pub columns: Option<ColumnSpec>,
    /// `having` constraints.
    pub having: Constraints,
    /// `using` directives.
    pub using: UsingClause,
}

/// A complete statement of the language.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// `run <task> on <dataset> [having …] [using …];`
    Run(RunQuery),
    /// `explain [run] <task> on <dataset> [having …] [using …];` — report
    /// the optimizer's full costed plan table instead of executing the
    /// winning plan (the database `EXPLAIN` verb over Section 7's search).
    Explain(RunQuery),
    /// `persist <name> on <path>;`
    Persist {
        /// The query result to persist.
        name: String,
        /// Destination path.
        path: String,
    },
    /// `[result =] predict on <dataset> with <model>;`
    Predict {
        /// Test dataset path.
        dataset: String,
        /// Stored model path.
        model: String,
    },
}
