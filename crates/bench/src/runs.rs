//! Common run helpers shared by the experiment binaries.

use ml4all_core::chooser::{choose_plan, OptimizerConfig};
use ml4all_core::estimator::SpeculationConfig;
use ml4all_dataflow::{ClusterSpec, PartitionedDataset, SimEnv};
use ml4all_datasets::registry::DatasetSpec;
use ml4all_gd::executor::reference_operators;
use ml4all_gd::operators::GradientCompute;
use ml4all_gd::{
    execute_plan, ComputeAcc, ComputeOp, Context, GdError, GdOperators, GdPlan, GdVariant,
    TrainParams, TrainResult,
};
use ml4all_linalg::PointView;

use crate::harness::{task_gradient, BenchConfig};

/// Paper-default training parameters for a registry dataset.
pub fn params_for(spec: &DatasetSpec, cfg: &BenchConfig, tolerance: f64) -> TrainParams {
    let mut params = TrainParams::paper_defaults(task_gradient(spec.task));
    params.tolerance = tolerance;
    params.max_iter = cfg.max_iter();
    params.seed = cfg.seed;
    params
}

/// Execute one plan in a fresh environment; returns the result and the
/// simulated seconds.
pub fn run_plan(
    plan: &GdPlan,
    data: &PartitionedDataset,
    params: &TrainParams,
    cluster: &ClusterSpec,
) -> Result<TrainResult, GdError> {
    let mut env = SimEnv::new(cluster.clone());
    execute_plan(plan, data, params, &mut env)
}

/// The reference compute op without its
/// [`ComputeOp::writes_only_stored_indices`] promise.
struct DenseTailCompute(GradientCompute);

impl ComputeOp for DenseTailCompute {
    fn compute(&self, units: &[PointView<'_>], ctx: &Context, acc: &mut ComputeAcc) {
        self.0.compute(units, ctx, acc);
    }
}

/// [`reference_operators`] with a compute op that delegates to the
/// reference one but does not promise to write only a unit's stored
/// indices, so the executor runs its dense iteration tail on every wave:
/// the oracle that support-tail runs are compared against bit for bit,
/// with no switch in the executor itself.
pub fn dense_tail_operators(plan: &GdPlan, params: &TrainParams, dims: usize) -> GdOperators {
    let mut ops = reference_operators(plan, params, dims);
    ops.compute = Box::new(DenseTailCompute(GradientCompute::of(params.gradient)));
    ops
}

/// Exhaustively run every plan of the Figure 5 space (the Figure 8
/// protocol). Divergent plans are reported as `Err`.
pub fn run_all_plans(
    data: &PartitionedDataset,
    params: &TrainParams,
    cluster: &ClusterSpec,
    batch: usize,
) -> Vec<(GdPlan, Result<TrainResult, GdError>)> {
    ml4all_core::planspace::enumerate_plans(batch)
        .into_iter()
        .map(|plan| {
            let result = run_plan(&plan, data, params, cluster);
            (plan, result)
        })
        .collect()
}

/// Speculation settings used by the Section 8.2 experiments: tolerance
/// 0.1, 10 s budget, 1 000-point sample (quick mode shrinks the budget).
pub fn speculation_for(cfg: &BenchConfig) -> SpeculationConfig {
    let mut spec = SpeculationConfig::paper_experiments();
    spec.seed = cfg.seed;
    spec.max_iterations = if cfg.quick { 5_000 } else { 50_000 };
    if cfg.quick {
        spec.budget = std::time::Duration::from_secs(2);
    }
    spec
}

/// Let the optimizer pick the best plan *for a fixed GD algorithm* (the
/// Figure 9 / Table 4 protocol: "we used ML4all just to find the best plan
/// given a GD algorithm") and execute it.
pub fn best_plan_for_variant(
    variant: GdVariant,
    data: &PartitionedDataset,
    params: &TrainParams,
    cfg: &BenchConfig,
    cluster: &ClusterSpec,
) -> Result<(GdPlan, TrainResult), Box<dyn std::error::Error>> {
    let mut config = OptimizerConfig::new(params.gradient)
        .with_tolerance(params.tolerance)
        .with_max_iter(params.max_iter)
        .with_speculation(speculation_for(cfg))
        .with_pinned_variant(variant);
    config.step = params.step;
    config.seed = params.seed;
    let report = choose_plan(data, &config, cluster)?;
    let plan = report.best().plan;
    let result = run_plan(&plan, data, params, cluster)?;
    Ok((plan, result))
}

/// The three GD variants of the paper's comparisons, with the default
/// 1 000-unit mini-batch.
pub fn paper_variants() -> [GdVariant; 3] {
    [
        GdVariant::Batch,
        GdVariant::MiniBatch { batch: 1000 },
        GdVariant::Stochastic,
    ]
}

/// One cell of the Section 8.6 in-depth sweeps: run `variant` with a fixed
/// transformation/sampling combination on a registry dataset; `None` when
/// the plan is outside the search space (lazy + Bernoulli).
pub fn in_depth_cell(
    variant: ml4all_gd::GdVariant,
    transform: ml4all_gd::TransformPolicy,
    sampling: ml4all_dataflow::SamplingMethod,
    spec: &DatasetSpec,
    cfg: &BenchConfig,
    cluster: &ClusterSpec,
    tolerance: f64,
) -> Option<Result<TrainResult, GdError>> {
    let plan = GdPlan {
        variant,
        transform,
        sampling: Some(sampling),
    };
    if transform == ml4all_gd::TransformPolicy::Lazy
        && sampling == ml4all_dataflow::SamplingMethod::Bernoulli
    {
        return None;
    }
    let data = crate::harness::build_dataset(spec, cfg, cluster);
    let params = params_for(spec, cfg, tolerance);
    Some(run_plan(&plan, &data, &params, cluster))
}

/// The seven datasets of the Section 8.6 sweeps (adult … svm2).
pub fn in_depth_datasets() -> Vec<DatasetSpec> {
    ml4all_datasets::registry::table2()
        .into_iter()
        .take(7)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4all_datasets::registry;

    fn tiny_cfg() -> BenchConfig {
        BenchConfig {
            max_physical: 500,
            quick: true,
            seed: 3,
            max_physical_bytes: 64 * 1024 * 1024,
        }
    }

    #[test]
    fn run_all_plans_covers_the_space() {
        let cfg = tiny_cfg();
        let cluster = ClusterSpec::paper_testbed();
        let data = crate::harness::build_dataset(&registry::adult(), &cfg, &cluster);
        let mut params = params_for(&registry::adult(), &cfg, 0.01);
        params.max_iter = 20;
        let runs = run_all_plans(&data, &params, &cluster, 100);
        assert_eq!(runs.len(), 11);
        assert!(runs.iter().all(|(_, r)| r.is_ok()));
    }

    #[test]
    fn best_plan_for_variant_returns_matching_variant() {
        let cfg = tiny_cfg();
        let cluster = ClusterSpec::paper_testbed();
        let data = crate::harness::build_dataset(&registry::covtype(), &cfg, &cluster);
        let mut params = params_for(&registry::covtype(), &cfg, 0.05);
        params.max_iter = 50;
        let (plan, result) =
            best_plan_for_variant(GdVariant::Stochastic, &data, &params, &cfg, &cluster).unwrap();
        assert_eq!(plan.variant, GdVariant::Stochastic);
        assert!(result.iterations >= 1);
    }
}
