//! SVRG (stochastic variance-reduced gradient, Johnson & Zhang) expressed
//! in the seven-operator abstraction — Appendix C, Algorithm 2, Listing 8.
//!
//! SVRG interleaves an *anchor* (batch) iteration every `m` iterations with
//! stochastic iterations in between. The paper's point is that the nested
//! loop "flattens" into the standard plan by putting if/else logic inside
//! `Sample`, `Compute`, and `Update`:
//!
//! - `Sample` returns *all* units on anchor iterations and one unit
//!   otherwise;
//! - `Compute` emits a single gradient on anchor iterations and a
//!   *pair* `(∇f_i(w), ∇f_i(w̃))` otherwise (the `Pair<double[],double[]>`
//!   of Listing 8);
//! - `Update` either refreshes the anchor `w̃` and full gradient `µ`, or
//!   applies the variance-reduced step `w ← w − α(∇f_i(w) − ∇f_i(w̃) + µ)`.

use ml4all_dataflow::{ColumnStore, PartitionedDataset, SamplingMethod, SimEnv};
use ml4all_linalg::{DenseVector, PointView};

use crate::context::{Context, Extra};
use crate::executor::{execute, ExecHooks, TrainParams, TrainResult};
use crate::gradient::{Gradient, GradientKind};
use crate::operators::{
    ComputeAcc, ComputeOp, GdOperators, IdentityTransform, L1Converge, SampleOp, SampleSize,
    StageOp, ToleranceLoop, UpdateOp, UpdateOutcome,
};
use crate::plan::{GdPlan, GdVariant, TransformPolicy};
use crate::GdError;

/// `Stage` for SVRG: zero model, anchor copy, zero full gradient.
#[derive(Debug, Clone, Copy)]
pub struct SvrgStage {
    /// Model dimensionality.
    pub dims: usize,
    /// Anchor refresh frequency `m`.
    pub update_frequency: u64,
    /// Constant step size α (SVRG's analysis requires a constant step).
    pub alpha: f64,
}

impl StageOp for SvrgStage {
    fn stage(&self, ctx: &mut Context, _staged: &ColumnStore) {
        ctx.dims = self.dims;
        ctx.zero_weights();
        ctx.iteration = 0;
        ctx.put("m", Extra::Int(self.update_frequency));
        ctx.put("alpha", Extra::Scalar(self.alpha));
        ctx.put("weightsBar", Extra::Vector(DenseVector::zeros(self.dims)));
        ctx.put("mu", Extra::Vector(DenseVector::zeros(self.dims)));
    }
}

/// `Sample` for SVRG: all units on anchor iterations, one otherwise.
#[derive(Debug, Clone, Copy)]
pub struct SvrgSample;

impl SampleOp for SvrgSample {
    fn size(&self, ctx: &Context) -> SampleSize {
        let m = ctx.int("m").unwrap_or(1).max(1);
        if (ctx.iteration % m) == 1 || m == 1 {
            SampleSize::All
        } else {
            SampleSize::Units(1)
        }
    }
}

/// `Compute` for SVRG (Listing 8): single gradient on anchor iterations,
/// pair of gradients otherwise.
pub struct SvrgCompute {
    /// Underlying gradient function.
    pub gradient: Box<dyn Gradient>,
}

impl ComputeOp for SvrgCompute {
    /// Row by row through the single-point gradient: SVRG's variance
    /// reduction subtracts two gradients of the same point, and its bits
    /// are those of the sequential dot.
    fn compute(&self, units: &[PointView<'_>], ctx: &Context, acc: &mut ComputeAcc) {
        let m = ctx.int("m").unwrap_or(1).max(1);
        let anchor = (ctx.iteration % m) == 1 || m == 1;
        for &point in units {
            self.gradient
                .accumulate(ctx.weights.as_slice(), point, acc.primary.as_mut_slice());
            if !anchor {
                let w_bar = ctx
                    .vector("weightsBar")
                    .expect("SvrgStage installs weightsBar");
                self.gradient.accumulate(
                    w_bar.as_slice(),
                    point,
                    acc.secondary_mut().as_mut_slice(),
                );
            }
        }
        acc.count += units.len() as u64;
    }
}

/// `Update` for SVRG (Algorithm 2).
#[derive(Debug, Clone, Copy)]
pub struct SvrgUpdate;

impl UpdateOp for SvrgUpdate {
    fn update(&self, acc: &ComputeAcc, ctx: &mut Context) -> UpdateOutcome {
        if acc.count == 0 {
            return UpdateOutcome::InternalOnly;
        }
        let m = ctx.int("m").unwrap_or(1).max(1);
        let alpha = ctx.scalar("alpha").unwrap_or(0.1);
        let anchor = (ctx.iteration % m) == 1 || m == 1;
        if anchor {
            // µ := (1/n) Σ ∇f_i(w̃ := w);  w := w − α µ.
            let mut mu = acc.primary.clone();
            mu.scale(1.0 / acc.count as f64);
            ctx.put("weightsBar", Extra::Vector(ctx.weights.clone()));
            let w = ctx.weights.as_mut_slice();
            for (wi, mi) in w.iter_mut().zip(mu.as_slice()) {
                *wi -= alpha * mi;
            }
            ctx.put("mu", Extra::Vector(mu));
        } else {
            // w := w − α (∇f_i(w) − ∇f_i(w̃) + µ).
            let mu = ctx
                .vector("mu")
                .expect("anchor iteration ran first")
                .clone();
            let inv = 1.0 / acc.count as f64;
            let secondary = acc
                .secondary
                .as_ref()
                .expect("stochastic compute emits pairs");
            let w = ctx.weights.as_mut_slice();
            for (((wi, gi), bi), mi) in w
                .iter_mut()
                .zip(acc.primary.as_slice())
                .zip(secondary.as_slice())
                .zip(mu.as_slice())
            {
                *wi -= alpha * (gi * inv - bi * inv + mi);
            }
        }
        UpdateOutcome::Updated
    }
}

/// Build the SVRG operator bundle.
pub fn svrg_operators(
    gradient: GradientKind,
    dims: usize,
    update_frequency: u64,
    alpha: f64,
    tolerance: f64,
    max_iter: u64,
) -> GdOperators {
    GdOperators {
        transform: Box::new(IdentityTransform),
        stage: Box::new(SvrgStage {
            dims,
            update_frequency,
            alpha,
        }),
        compute: Box::new(SvrgCompute {
            gradient: Box::new(gradient),
        }),
        update: Box::new(SvrgUpdate),
        sample: Box::new(SvrgSample),
        converge: Box::new(L1Converge),
        loop_op: Box::new(ToleranceLoop {
            tolerance,
            max_iter,
        }),
    }
}

/// Run SVRG over a dataset: the same executor and plan shape as SGD
/// (Figure 3a), with the SVRG operator implementations plugged in.
pub fn execute_svrg(
    data: &PartitionedDataset,
    sampling: SamplingMethod,
    update_frequency: u64,
    alpha: f64,
    params: &TrainParams,
    env: &mut SimEnv,
) -> Result<TrainResult, GdError> {
    let plan = GdPlan {
        variant: GdVariant::Stochastic,
        transform: TransformPolicy::Eager,
        sampling: Some(sampling),
    };
    let ops = svrg_operators(
        params.gradient,
        data.descriptor().dims,
        update_frequency,
        alpha,
        params.tolerance,
        params.max_iter,
    );
    execute(&plan, data, &ops, params, env, &ExecHooks::default())
}
