//! Datasets for the ml4all reproduction: LIBSVM file IO, synthetic workload
//! generators, and the paper's Table 2 dataset registry.
//!
//! The paper evaluates on LIBSVM real datasets (adult, covtype, yearpred,
//! rcv1, higgs) plus synthetic dense SVM data (svm1–svm3 and the SVM A /
//! SVM B scalability sweeps). The real files are not redistributable here,
//! so the [`registry`] builds **synthetic analogs matched on the columns of
//! Table 2** — task, #points, #features, size, density — while
//! [`libsvm`] lets genuine LIBSVM files drop in unchanged.
//!
//! Two scales coexist (see `ml4all_dataflow::PartitionedDataset`): the
//! *logical* descriptor carries Table 2's n/bytes so the cost model charges
//! paper-scale IO, while the *physical* rows are capped for laptop
//! execution — the paper's own Section 5 argument (error-sequence shape is
//! preserved under sampling) licenses exactly this.

pub mod catalog;
pub mod csv;
pub mod libsvm;
mod lines;
pub mod metrics;
pub mod number;
mod presize;
pub mod registry;
pub mod source;
pub mod split;
pub mod synth;

pub use catalog::{EvictedDataset, SharedResolver};
pub use metrics::{accuracy, mean_squared_error, score};
pub use registry::{DatasetSpec, Task};
pub use source::{parse_memory_budget, DataSource, FileFormat, SourceError, MEMORY_BUDGET_ENV};
pub use split::train_test_split;

/// Errors from dataset IO and construction.
#[derive(Debug)]
pub enum DatasetError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// A line could not be parsed as LIBSVM.
    Parse {
        /// 1-based line number.
        line_no: usize,
        /// Parse failure description.
        reason: String,
    },
    /// Substrate error while partitioning.
    Dataflow(ml4all_dataflow::DataflowError),
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Parse { line_no, reason } => write!(f, "line {line_no}: {reason}"),
            Self::Dataflow(e) => write!(f, "dataflow error: {e}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<ml4all_dataflow::DataflowError> for DatasetError {
    fn from(e: ml4all_dataflow::DataflowError) -> Self {
        Self::Dataflow(e)
    }
}
