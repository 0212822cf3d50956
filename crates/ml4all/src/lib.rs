//! The ML4all system facade: the paper's end-to-end user experience.
//!
//! [`Engine`] is the one typed API: [`Engine::train`] / [`Engine::submit`],
//! [`Engine::predict`], [`Engine::explain`] and [`Engine::persist`] accept
//! [`TrainRequest`]/[`PredictRequest`]/[`ExplainRequest`] values over a
//! first-class [`DataSource`] (registered in-memory data, Table 2 registry
//! analogs by name, or LIBSVM/CSV files with column selection):
//!
//! ```
//! use ml4all::{DataSource, Engine, GradientKind, TrainRequest};
//!
//! # fn main() -> Result<(), ml4all::SessionError> {
//! let engine = Engine::new();
//! let request = TrainRequest::new(GradientKind::LogisticRegression, "adult")
//!     .max_iter(25)
//!     .named("Q1");
//! let trained = engine.train(request)?;
//! assert_eq!(trained.name, "Q1");
//! assert!(trained.summary.iterations >= 1);
//! # Ok(())
//! # }
//! ```
//!
//! The declarative statements of Appendix A are a thin front end that
//! lowers onto the same requests — a [`Session`] over an engine parses,
//! lowers, and dispatches each statement, including the `explain` verb
//! that reports the optimizer's full costed plan table instead of
//! executing the winner:
//!
//! ```no_run
//! use ml4all::{Engine, Session};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let session = Session::new(Engine::new());
//! session.execute("Q1 = run logistic() on train.txt having epsilon 0.01;")?;
//! session.execute("persist Q1 on my_model.txt;")?;
//! let out = session.execute("explain logistic() on train.txt having epsilon 0.01;")?;
//! println!("{out:?}");
//! # Ok(())
//! # }
//! ```

mod durable;
pub mod engine;
pub mod explain;
pub mod job;
pub mod model;
pub mod request;
pub mod session;

pub use engine::{Engine, Predictions, TrainSummary, Trained};
pub use explain::render_report;
pub use job::{render_trace, EventSink, JobEvent, JobHandle, JobStatus};
pub use model::{Model, ModelError};
pub use request::{ExplainRequest, ModelRef, PredictRequest, TrainRequest};
pub use session::{Session, SessionOutput};

// The vocabulary the typed requests are written in, re-exported so facade
// users need only the `ml4all` crate.
pub use ml4all_calibrate::CalibratorConfig;
pub use ml4all_core::calibration::{CalibrationSnapshot, CalibrationStamp};
pub use ml4all_core::chooser::{OptimizerReport, PlanChoice};
pub use ml4all_core::lang::{AlgorithmPin, TrainSpec};
pub use ml4all_core::plancache::PlanCache;
pub use ml4all_core::platform::{Platform, PlatformMapping};
pub use ml4all_core::OptimizerError;
pub use ml4all_dataflow::{
    Backend, CancelToken, Checkpoint, CheckpointError, ExecState, Runtime, SamplingMethod,
    UsageMeter, RNG_STREAM_VERSION,
};
pub use ml4all_datasets::catalog::EvictedDataset;
pub use ml4all_datasets::source::{DataSource, FileFormat, SourceError};
pub use ml4all_gd::{GdPlan, GdVariant, GradientKind, StopReason};

use ml4all_core::lang::Span;

/// A malformed statement, carrying the statement text and the byte span of
/// the offending token so the error can point at it.
#[derive(Debug)]
pub struct ParseError {
    /// The statement as given to [`Session::execute`].
    pub statement: String,
    /// Byte span of the offending token (empty at end of input).
    pub span: Span,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "parse error: {}", self.message)?;
        writeln!(f, "  {}", self.statement)?;
        // Char-based alignment so multi-byte input keeps the caret under
        // the offending token.
        let start = self.span.start.min(self.statement.len());
        let end = self.span.end.clamp(start, self.statement.len());
        let pad = self.statement[..start].chars().count();
        let width = self.statement[start..end].chars().count().max(1);
        write!(f, "  {}{}", " ".repeat(pad), "^".repeat(width))
    }
}

/// Errors surfaced by the engine and its statement layer, grouped by the
/// stage that failed.
#[derive(Debug)]
pub enum SessionError {
    /// The statement text is malformed ([`ParseError`] points at the
    /// offending token).
    Parse(ParseError),
    /// The request is semantically invalid, its constraints are
    /// unsatisfiable, or the optimizer itself failed.
    Optimizer(ml4all_core::OptimizerError),
    /// The named data source could not be resolved.
    Source(SourceError),
    /// GD execution failure.
    Gd(ml4all_gd::GdError),
    /// Substrate failure.
    Dataflow(ml4all_dataflow::DataflowError),
    /// A result name the request references is not bound on this
    /// engine.
    UnknownName(String),
    /// Model file problems.
    Model(ModelError),
    /// Filesystem problems.
    Io(std::io::Error),
    /// A predict request paired a model with data of a different
    /// dimensionality (previously an index panic deep in the dot kernel).
    DimensionMismatch {
        /// Weights in the model.
        model: usize,
        /// Features in the resolved data.
        data: usize,
    },
    /// The job observed its cancellation token and stopped cooperatively
    /// at a wave boundary, after completing `iterations` iterations.
    Cancelled {
        /// Iterations completed before the stop.
        iterations: u64,
    },
    /// A submitted job panicked; the payload is preserved as text.
    JobPanicked(String),
    /// A durability checkpoint could not be written, read, or matched to
    /// its job (corrupted file, checksum failure, foreign checkpoint).
    Checkpoint(CheckpointError),
}

impl SessionError {
    /// Wrap a parse-stage [`OptimizerError`], attaching the statement text
    /// to language errors so they render with a caret.
    pub(crate) fn from_parse(statement: &str, e: ml4all_core::OptimizerError) -> Self {
        match e {
            ml4all_core::OptimizerError::Language { span, message } => Self::Parse(ParseError {
                statement: statement.to_string(),
                span,
                message,
            }),
            other => Self::Optimizer(other),
        }
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "{e}"),
            Self::Optimizer(e) => write!(f, "{e}"),
            Self::Source(e) => write!(f, "{e}"),
            Self::Gd(e) => write!(f, "{e}"),
            Self::Dataflow(e) => write!(f, "{e}"),
            Self::UnknownName(n) => write!(f, "unknown result name `{n}`"),
            Self::Model(e) => write!(f, "model error: {e}"),
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::DimensionMismatch { model, data } => write!(
                f,
                "cannot score: the model has {model} weights but the data has {data} features"
            ),
            Self::Cancelled { iterations } => {
                write!(f, "job cancelled after {iterations} iterations")
            }
            Self::JobPanicked(m) => write!(f, "job panicked: {m}"),
            Self::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ml4all_core::OptimizerError> for SessionError {
    fn from(e: ml4all_core::OptimizerError) -> Self {
        Self::Optimizer(e)
    }
}
impl From<SourceError> for SessionError {
    fn from(e: SourceError) -> Self {
        Self::Source(e)
    }
}
impl From<ml4all_gd::GdError> for SessionError {
    fn from(e: ml4all_gd::GdError) -> Self {
        Self::Gd(e)
    }
}
impl From<ml4all_datasets::DatasetError> for SessionError {
    fn from(e: ml4all_datasets::DatasetError) -> Self {
        Self::Source(SourceError::Dataset(e))
    }
}
impl From<ml4all_dataflow::DataflowError> for SessionError {
    fn from(e: ml4all_dataflow::DataflowError) -> Self {
        Self::Dataflow(e)
    }
}
impl From<ModelError> for SessionError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}
impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
impl From<CheckpointError> for SessionError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_render_a_caret_under_the_token() {
        let src = "run classification on d.txt having zzz 1;";
        let session = Session::new(Engine::new());
        let err = session.execute(src).unwrap_err();
        let SessionError::Parse(parse) = &err else {
            panic!("expected Parse, got {err:?}");
        };
        assert_eq!(&src[parse.span.start..parse.span.end], "zzz");
        let rendered = err.to_string();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[1].trim(), src);
        // The caret line underlines exactly the `zzz` token.
        let caret_col = lines[2].find('^').unwrap();
        let token_col = lines[1].find("zzz").unwrap();
        assert_eq!(caret_col, token_col);
        assert_eq!(lines[2].matches('^').count(), 3);
    }

    #[test]
    fn end_of_input_errors_render_past_the_statement() {
        let session = Session::new(Engine::new());
        let err = session.execute("run classification").unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains('^'), "{rendered}");
    }

    #[test]
    fn semantic_errors_stay_typed() {
        let session = Session::new(Engine::new());
        let err = session
            .execute("run classification on adult having epsilon -1;")
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::Optimizer(OptimizerError::UnsatisfiableConstraint(_))
        ));
    }
}
