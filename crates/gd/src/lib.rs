//! The gradient-descent abstraction of the paper (Section 4) and the plan
//! executor that runs it over the dataflow substrate.
//!
//! The paper observes that GD algorithms share three phases — preparation,
//! processing, convergence — and abstracts them with **seven operators**:
//!
//! | Operator    | Phase        | Signature (paper)                  |
//! |-------------|--------------|------------------------------------|
//! | `Transform` | preparation  | `U → U_T`                          |
//! | `Stage`     | preparation  | `∅ \| U_T \| list⟨U_T⟩ → …`        |
//! | `Compute`   | processing   | `U_T → U_C`                        |
//! | `Update`    | processing   | `U_C → U_U`                        |
//! | `Sample`    | processing   | `n \| list⟨U⟩ → list⟨nb⟩ \| …`     |
//! | `Converge`  | convergence  | `U_U → U_Δ`                        |
//! | `Loop`      | convergence  | `U_Δ → true \| false`              |
//!
//! Those appear here as traits ([`operators`]) with reference
//! implementations, a [`plan::GdPlan`] vocabulary (BGD/SGD/MGD ×
//! eager/lazy × sampling strategy — Figure 5), and an [`executor`] that
//! wires them together over a [`ml4all_dataflow::PartitionedDataset`],
//! charging the simulated cost ledger while genuinely iterating the math.
//! There is one loop, [`execute`]; `Compute` is one method over a slice of
//! units, and how a slice is scored in SIMD batches — the rule that decides
//! the low bits of every model — is written once, in [`gradient`].
//!
//! Accelerated algorithms are expressed *in the same abstraction*, exactly
//! as Appendix C shows: [`svrg`] flattens SVRG's nested loop through
//! if/else operators, and [`linesearch`] implements BGD with backtracking
//! line search through a scalar-carrying `Compute`/`Update` pair.

pub mod context;
pub mod executor;
pub mod gradient;
pub mod linesearch;
pub mod objective;
pub mod operators;
pub mod plan;
pub mod step;
pub mod svrg;

pub use context::{Context, Extra};
pub use executor::{
    execute, execute_plan, execute_plan_observed, ExecHooks, IterationTick, StopReason,
    TrainParams, TrainResult,
};
pub use gradient::{Gradient, GradientKind, Regularizer};
pub use objective::{partitioned_loss, stream_loss};
pub use operators::{
    ComputeAcc, ComputeOp, ConvergeOp, GdOperators, LoopOp, SampleOp, SampleSize, StageOp, Support,
    TransformOp, UpdateOp, UpdateOutcome,
};
pub use plan::{GdPlan, GdVariant, TransformPolicy};
pub use step::StepSize;

/// Errors raised while constructing or executing GD plans.
#[derive(Debug, Clone, PartialEq)]
pub enum GdError {
    /// The plan combination is outside the Figure 5 search space
    /// (e.g. BGD with sampling, or lazy transformation with Bernoulli).
    InvalidPlan(String),
    /// The model diverged (non-finite weights) — typically a step size too
    /// large for the objective.
    Diverged { iteration: u64 },
    /// Substrate error.
    Dataflow(ml4all_dataflow::DataflowError),
    /// Operand shapes disagree.
    Linalg(ml4all_linalg::LinalgError),
}

impl std::fmt::Display for GdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidPlan(msg) => write!(f, "invalid GD plan: {msg}"),
            Self::Diverged { iteration } => {
                write!(
                    f,
                    "model diverged (non-finite weights) at iteration {iteration}"
                )
            }
            Self::Dataflow(e) => write!(f, "dataflow error: {e}"),
            Self::Linalg(e) => write!(f, "linalg error: {e}"),
        }
    }
}

impl std::error::Error for GdError {}

impl From<ml4all_dataflow::DataflowError> for GdError {
    fn from(e: ml4all_dataflow::DataflowError) -> Self {
        Self::Dataflow(e)
    }
}

impl From<ml4all_linalg::LinalgError> for GdError {
    fn from(e: ml4all_linalg::LinalgError) -> Self {
        Self::Linalg(e)
    }
}
