//! Distributed dataflow substrate for the ml4all GD optimizer.
//!
//! The paper executes GD plans on a 4-node Spark/HDFS cluster through the
//! Rheem cross-platform layer. This crate is that substrate rebuilt as an
//! **in-process simulator**: computation over the data actually runs (in
//! memory, deterministically), while a [`ledger::CostLedger`] charges the
//! simulated wall-clock seconds that the paper's cost model attributes to
//! IO, CPU, and network (Section 7, Table 1, Equations 3–5).
//!
//! Why this substitution is faithful: training *time* in the paper is a
//! function of full scans, partition/page reads, wave-parallel CPU, and
//! network aggregation — precisely the quantities Equations 3–5 model. By
//! charging those equations while genuinely executing the math, the
//! simulator reproduces the paper's *relative* behaviour (which plan wins,
//! where crossovers fall, order-of-magnitude gaps) without the physical
//! cluster, and convergence behaviour (iteration counts, error sequences)
//! is real, not simulated.
//!
//! Key pieces:
//! - [`cluster::ClusterSpec`] — nodes × slots (`cap`), partition/page/packet
//!   sizes, IO/network/CPU constants, Spark-like cache capacity.
//! - [`descriptor::DatasetDescriptor`] — the logical view of a dataset
//!   (`n`, `d`, bytes, density) with the Table 1 derived quantities
//!   `p(D)`, `w(D)`, `k`, `lwp(D)`.
//! - [`dataset::PartitionedDataset`] — physical partitioned rows; may be a
//!   down-scaled physical sample of a larger logical dataset (the paper's
//!   own argument, Section 5: error-sequence shape is preserved under
//!   sampling).
//! - [`ledger::CostLedger`] / [`env::SimEnv`] — cost accounting and the
//!   charging primitives implementing Equations 3–5.
//! - [`backend::Backend`] — where waves run: the in-process local runtime
//!   or a deterministic simulated cluster whose per-node placement and
//!   broadcast/aggregate steps are metered into a
//!   [`ledger::UsageMeter`] beside the modelled costs.
//! - [`sampling`] — the three sampling strategies of Figure 4: Bernoulli,
//!   random-partition, shuffled-partition.
//! - [`slab`] — out-of-core columnar slab files: memory-mapped storage and
//!   a budget-bounded spilling builder for datasets larger than RAM.

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod backend;
pub mod checkpoint;
pub mod cluster;
pub mod columns;
pub mod dataset;
pub mod descriptor;
pub mod env;
mod hash;
pub mod ledger;
pub mod sampling;
pub mod slab;

pub use backend::Backend;
pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, fnv1a64, read_checkpoint, write_checkpoint, Checkpoint,
    CheckpointError, ExecState,
};
pub use cluster::{ClusterSpec, StorageMedium};
pub use columns::{ColumnStore, ColumnarBuilder};
pub use dataset::{PartitionScheme, PartitionedDataset};
pub use descriptor::DatasetDescriptor;
pub use env::SimEnv;
pub use ledger::{CostBreakdown, CostLedger, UsageMeter};
pub use ml4all_runtime::{derive_seed, CancelToken, Runtime, RNG_STREAM_VERSION};
pub use sampling::{SamplerSnapshot, SamplerState, SamplingMethod};
pub use slab::{atomic_write, open_slab, write_slab, MappedSlab, SlabError, SpillingBuilder};

/// Errors surfaced by the dataflow substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataflowError {
    /// A dataset was constructed with no points.
    EmptyDataset,
    /// A requested partition index does not exist.
    PartitionOutOfBounds { index: usize, partitions: usize },
    /// Sampling was requested from an empty physical dataset.
    NothingToSample,
}

impl std::fmt::Display for DataflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyDataset => write!(f, "dataset has no points"),
            Self::PartitionOutOfBounds { index, partitions } => {
                write!(
                    f,
                    "partition {index} out of bounds ({partitions} partitions)"
                )
            }
            Self::NothingToSample => write!(f, "cannot sample from an empty dataset"),
        }
    }
}

impl std::error::Error for DataflowError {}
