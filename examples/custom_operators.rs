//! Extending the abstraction with user-defined operators, the paper's UDF
//! story: "expert users could readily customize or override them".
//!
//! This example trains a **Huber-loss** regressor — a gradient the system
//! does not ship — with a custom `Compute`, and stops on an
//! objective-value delta instead of the weight delta with a custom
//! `Converge`. No executor changes needed: the same seven-operator plan
//! drives it.
//!
//! ```text
//! cargo run --release -p ml4all-bench --example custom_operators
//! ```

use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset, SimEnv};
use ml4all_gd::executor::{execute, ExecHooks};
use ml4all_gd::operators::{
    ComputeAcc, ComputeOp, ConvergeOp, FixedSample, GdOperators, IdentityTransform, SampleSize,
    StepUpdate, ToleranceLoop, ZeroStage,
};
use ml4all_gd::{Context, GdPlan, GradientKind, Regularizer, StepSize, TrainParams};
use ml4all_linalg::{DenseVector, PointView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Huber loss: quadratic near zero, linear past `delta` — robust to the
/// outliers this example injects.
struct HuberCompute {
    delta: f64,
}

impl HuberCompute {
    fn loss_of_residual(&self, r: f64) -> f64 {
        if r.abs() <= self.delta {
            0.5 * r * r
        } else {
            self.delta * (r.abs() - 0.5 * self.delta)
        }
    }
}

impl ComputeOp for HuberCompute {
    /// The one method a `Compute` has: the executor hands over consecutive
    /// slices of a partition's rows (or of a sampled wave's draws).
    fn compute(&self, units: &[PointView<'_>], ctx: &Context, acc: &mut ComputeAcc) {
        for point in units {
            let r = point.features.dot(ctx.weights.as_slice()) - point.label;
            // ∇ huber = r·x (|r| ≤ δ) or δ·sign(r)·x (|r| > δ).
            let factor = if r.abs() <= self.delta {
                r
            } else {
                self.delta * r.signum()
            };
            point.features.axpy_into(acc.primary.as_mut_slice(), factor);
            // Carry the objective value through the scalar channel so the
            // custom Converge can use it.
            acc.scalar += self.loss_of_residual(r);
        }
        acc.count += units.len() as u64;
    }
}

/// Converge on the change of the (sampled) objective value rather than the
/// weight delta.
struct ObjectiveConverge;

impl ConvergeOp for ObjectiveConverge {
    fn converge(&self, _previous: &DenseVector, ctx: &Context) -> f64 {
        let current = ctx.scalar("objective_now").unwrap_or(f64::INFINITY);
        let previous = ctx.scalar("objective_prev").unwrap_or(f64::INFINITY);
        (previous - current).abs()
    }
}

/// Update wrapper that stashes the objective value for `ObjectiveConverge`.
struct TrackedUpdate {
    inner: StepUpdate,
}

impl ml4all_gd::operators::UpdateOp for TrackedUpdate {
    fn update(&self, acc: &ComputeAcc, ctx: &mut Context) -> ml4all_gd::operators::UpdateOutcome {
        let objective = if acc.count > 0 {
            acc.scalar / acc.count as f64
        } else {
            f64::INFINITY
        };
        let prev = ctx.scalar("objective_now").unwrap_or(f64::INFINITY);
        ctx.put("objective_prev", ml4all_gd::Extra::Scalar(prev));
        ctx.put("objective_now", ml4all_gd::Extra::Scalar(objective));
        self.inner.update(acc, ctx)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterSpec::paper_testbed();

    // y = 3x − 1 with 10% gross outliers.
    let mut rng = StdRng::seed_from_u64(99);
    let points = (0..3000)
        .map(|_| {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let mut y = 3.0 * x - 1.0 + rng.gen_range(-0.05..0.05);
            if rng.gen::<f64>() < 0.10 {
                y += rng.gen_range(-20.0..20.0); // outlier
            }
            (y, [x, 1.0])
        })
        .collect();
    let data =
        PartitionedDataset::from_columns("huber", &points, PartitionScheme::RoundRobin, &cluster)?;

    let mut params = TrainParams::paper_defaults(GradientKind::LinearRegression);
    params.tolerance = 1e-9;
    params.max_iter = 3000;
    params.step = StepSize::Constant(0.5);

    let ops = GdOperators {
        transform: Box::new(IdentityTransform),
        stage: Box::new(ZeroStage { dims: 2 }),
        compute: Box::new(HuberCompute { delta: 0.5 }),
        update: Box::new(TrackedUpdate {
            inner: StepUpdate {
                step: params.step,
                regularizer: Regularizer::None,
            },
        }),
        sample: Box::new(FixedSample {
            size: SampleSize::All,
        }),
        converge: Box::new(ObjectiveConverge),
        loop_op: Box::new(ToleranceLoop {
            tolerance: params.tolerance,
            max_iter: params.max_iter,
        }),
    };

    let mut env = SimEnv::new(cluster);
    let result = execute(
        &GdPlan::bgd(),
        &data,
        &ops,
        &params,
        &mut env,
        &ExecHooks::default(),
    )?;
    println!(
        "huber regression: slope {:.3} (true 3.0), intercept {:.3} (true −1.0) — \
         {} iterations, objective-delta stop",
        result.weights[0], result.weights[1], result.iterations
    );
    assert!((result.weights[0] - 3.0).abs() < 0.15);
    assert!((result.weights[1] + 1.0).abs() < 0.15);
    println!("custom Compute + custom Converge ran through the unmodified executor.");
    Ok(())
}
