//! BGD with backtracking line search expressed in the seven-operator
//! abstraction — Appendix C, Listings 9–10.
//!
//! The nested line-search loop flattens into the plan loop: iterations
//! alternate between a *gradient* phase (compute `∇f(w)` and `f(w)`) and a
//! *probe* phase (evaluate `f(w − α∇f(w))` for the current candidate step).
//! `Update` either shrinks the step (`α ← βα`, Listing 10's `return null`
//! branch → [`UpdateOutcome::InternalOnly`]) or accepts the move. We use
//! the standard Armijo sufficient-decrease condition
//! `f(w) − f(w − αg) ≥ c·α·‖g‖²` (the paper's listing sketches the same
//! shrink-until-acceptable structure).

use ml4all_dataflow::{ColumnStore, PartitionedDataset, SimEnv};
use ml4all_linalg::{DenseVector, PointView};

use crate::context::{Context, Extra};
use crate::executor::{execute, ExecHooks, TrainParams, TrainResult};
use crate::gradient::{Gradient, GradientKind};
use crate::operators::{
    ComputeAcc, ComputeOp, FixedSample, GdOperators, IdentityTransform, L1Converge, SampleSize,
    StageOp, ToleranceLoop, UpdateOp, UpdateOutcome,
};
use crate::plan::GdPlan;
use crate::GdError;

/// Armijo constant `c` in the sufficient-decrease test.
const ARMIJO_C: f64 = 1e-4;
/// Step floor: below this the candidate is accepted unconditionally to
/// guarantee progress.
const MIN_STEP: f64 = 1e-12;

/// `Stage` for line-search BGD.
#[derive(Debug, Clone, Copy)]
pub struct LineSearchStage {
    /// Model dimensionality.
    pub dims: usize,
    /// Initial step size α₀.
    pub initial_step: f64,
    /// Shrink factor β ∈ (0, 1).
    pub beta: f64,
}

impl StageOp for LineSearchStage {
    fn stage(&self, ctx: &mut Context, _staged: &ColumnStore) {
        ctx.dims = self.dims;
        ctx.zero_weights();
        ctx.iteration = 0;
        ctx.put("step", Extra::Scalar(self.initial_step));
        ctx.put("step0", Extra::Scalar(self.initial_step));
        ctx.put("beta", Extra::Scalar(self.beta));
        ctx.put("isStepSizeIter", Extra::Flag(false));
    }
}

/// `Compute` for line-search BGD (Listing 9): gradient + objective in the
/// gradient phase; probe objective in the step-size phase. The gradient
/// phase runs the *fused* gradient+objective pass
/// ([`Gradient::accumulate_with_loss_batch`]), sharing one scoring pass
/// between the two outputs.
pub struct LineSearchCompute {
    /// Underlying gradient function.
    pub gradient: Box<dyn Gradient>,
}

impl ComputeOp for LineSearchCompute {
    fn compute(&self, units: &[PointView<'_>], ctx: &Context, acc: &mut ComputeAcc) {
        if ctx.flag("isStepSizeIter").unwrap_or(false) {
            let probe = ctx.vector("ls_w_probe").expect("probe weights staged");
            self.gradient
                .loss_batch(probe.as_slice(), units, &mut acc.scalar);
        } else {
            self.gradient.accumulate_with_loss_batch(
                ctx.weights.as_slice(),
                units,
                acc.primary.as_mut_slice(),
                &mut acc.scalar,
            );
        }
        acc.count += units.len() as u64;
    }
}

/// `Update` for line-search BGD (Listing 10).
#[derive(Debug, Clone, Copy)]
pub struct LineSearchUpdate;

impl LineSearchUpdate {
    fn probe_weights(w: &DenseVector, g: &DenseVector, step: f64) -> DenseVector {
        let mut probe = w.clone();
        probe.axpy(-step, g);
        probe
    }
}

impl UpdateOp for LineSearchUpdate {
    fn update(&self, acc: &ComputeAcc, ctx: &mut Context) -> UpdateOutcome {
        if acc.count == 0 {
            return UpdateOutcome::InternalOnly;
        }
        let inv = 1.0 / acc.count as f64;
        if !ctx.flag("isStepSizeIter").unwrap_or(false) {
            // Gradient phase: stash g, f(w), and the first probe point.
            let mut g = acc.primary.clone();
            g.scale(inv);
            let f_w = acc.scalar * inv;
            let step = ctx.scalar("step").expect("stage sets step");
            let probe = Self::probe_weights(&ctx.weights, &g, step);
            ctx.put("ls_f_w", Extra::Scalar(f_w));
            ctx.put("ls_grad_norm2", Extra::Scalar(g.l2_norm_squared()));
            ctx.put("ls_grad", Extra::Vector(g));
            ctx.put("ls_w_probe", Extra::Vector(probe));
            ctx.put("isStepSizeIter", Extra::Flag(true));
            UpdateOutcome::InternalOnly
        } else {
            // Probe phase: Armijo test on the candidate step.
            let f_probe = acc.scalar * inv;
            let f_w = ctx.scalar("ls_f_w").expect("gradient phase ran");
            let g_norm2 = ctx.scalar("ls_grad_norm2").expect("gradient phase ran");
            let step = ctx.scalar("step").expect("stage sets step");
            let sufficient = f_w - f_probe >= ARMIJO_C * step * g_norm2;
            if sufficient || step <= MIN_STEP || g_norm2 == 0.0 {
                // Accept: w ← w − α g; reset the step for the next round.
                let probe = ctx.vector("ls_w_probe").expect("probe staged").clone();
                ctx.weights = probe;
                let step0 = ctx.scalar("step0").expect("stage sets step0");
                ctx.put("step", Extra::Scalar(step0));
                ctx.put("isStepSizeIter", Extra::Flag(false));
                UpdateOutcome::Updated
            } else {
                // Shrink: α ← βα, recompute the probe point, stay probing.
                let beta = ctx.scalar("beta").expect("stage sets beta");
                let new_step = beta * step;
                let g = ctx.vector("ls_grad").expect("gradient phase ran").clone();
                let probe = Self::probe_weights(&ctx.weights, &g, new_step);
                ctx.put("step", Extra::Scalar(new_step));
                ctx.put("ls_w_probe", Extra::Vector(probe));
                UpdateOutcome::InternalOnly
            }
        }
    }
}

/// Build the line-search BGD operator bundle.
pub fn line_search_operators(
    gradient: GradientKind,
    dims: usize,
    initial_step: f64,
    beta: f64,
    tolerance: f64,
    max_iter: u64,
) -> GdOperators {
    GdOperators {
        transform: Box::new(IdentityTransform),
        stage: Box::new(LineSearchStage {
            dims,
            initial_step,
            beta,
        }),
        compute: Box::new(LineSearchCompute {
            gradient: Box::new(gradient),
        }),
        update: Box::new(LineSearchUpdate),
        sample: Box::new(FixedSample {
            size: SampleSize::All,
        }),
        converge: Box::new(L1Converge),
        loop_op: Box::new(ToleranceLoop {
            tolerance,
            max_iter,
        }),
    }
}

/// Run BGD with backtracking line search. `max_iter` counts *phases*
/// (gradient evaluations and probes alike), each of which scans the data —
/// exactly the cost structure the paper's footnote warns about for
/// stochastic algorithms.
pub fn execute_line_search_bgd(
    data: &PartitionedDataset,
    initial_step: f64,
    beta: f64,
    params: &TrainParams,
    env: &mut SimEnv,
) -> Result<TrainResult, GdError> {
    let ops = line_search_operators(
        params.gradient,
        data.descriptor().dims,
        initial_step,
        beta,
        params.tolerance,
        params.max_iter,
    );
    execute(
        &GdPlan::bgd(),
        data,
        &ops,
        params,
        env,
        &ExecHooks::default(),
    )
}
