//! Common run helpers shared by the experiment binaries.

use ml4all_core::chooser::{choose_plan, OptimizerConfig};
use ml4all_core::estimator::SpeculationConfig;
use ml4all_dataflow::{ClusterSpec, PartitionedDataset, SamplingMethod, SimEnv};
use ml4all_datasets::registry::DatasetSpec;
use ml4all_gd::executor::reference_operators;
use ml4all_gd::operators::GradientCompute;
use ml4all_gd::{
    execute_plan, ComputeAcc, ComputeOp, Context, GdError, GdOperators, GdPlan, GdVariant,
    TrainParams, TrainResult, TransformPolicy,
};
use ml4all_linalg::PointView;

use crate::harness::{fmt_s, print_table, task_gradient, BenchConfig};
use crate::report::ExperimentRecord;

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
/// 0.1, 1 000-point sample, at most 50 000 speculative iterations (5 000 in
/// quick mode) in place of the paper's 10 s budget.
pub fn speculation_for(cfg: &BenchConfig) -> SpeculationConfig {
    let mut spec = SpeculationConfig::paper_experiments();
    spec.seed = cfg.seed;
    spec.max_iterations = if cfg.quick { 5_000 } else { 50_000 };
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
fn in_depth_cell(
    variant: GdVariant,
    transform: TransformPolicy,
    sampling: SamplingMethod,
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
    if transform == TransformPolicy::Lazy && sampling == SamplingMethod::Bernoulli {
        return None;
    }
    let data = crate::harness::build_dataset(spec, cfg, cluster);
    let params = params_for(spec, cfg, tolerance);
    Some(run_plan(&plan, &data, &params, cluster))
}

/// The seven datasets of the Section 8.6 sweeps (adult … svm2).
fn in_depth_datasets() -> Vec<DatasetSpec> {
    ml4all_datasets::registry::table2()
        .into_iter()
        .take(7)
        .collect()
}

/// Figures 13 and 17 (Sections 8.6.1 and Appendix E): the sampling effect
/// in `variant` under (a) eager and (b) lazy transformation, one column
/// per sampler. Each panel prints as `{figure}({panel}): {caption}`; the
/// cells are written as the `id` record titled `title`.
pub fn sampling_figure(variant: GdVariant, id: &str, figure: &str, caption: &str, title: &str) {
    use SamplingMethod::{Bernoulli, RandomPartition, ShuffledPartition};
    let mut json = Vec::new();
    for (panel, transform, samplers) in [
        (
            "a/eager",
            TransformPolicy::Eager,
            &[Bernoulli, RandomPartition, ShuffledPartition][..],
        ),
        (
            "b/lazy",
            TransformPolicy::Lazy,
            &[RandomPartition, ShuffledPartition][..],
        ),
    ] {
        let columns: Vec<_> = samplers
            .iter()
            .map(|&s| (s.label(), variant, transform, s))
            .collect();
        let title = format!("{figure}({panel}): {caption}");
        in_depth_panel(&title, panel, "sampling", &columns, &mut json);
    }
    ExperimentRecord::new(id, title, serde_json::Value::Array(json)).write();
}

/// Figures 14 and 18 (Sections 8.6.2 and Appendix E): the transformation
/// effect, eager vs lazy, with the sampling fixed to `sampling`, one panel
/// per `(panel, variant)`. Prints and records like [`sampling_figure`].
pub fn transform_figure(
    sampling: SamplingMethod,
    panels: [(&str, GdVariant); 2],
    id: &str,
    figure: &str,
    caption: &str,
    title: &str,
) {
    let mut json = Vec::new();
    for (panel, variant) in panels {
        let columns = [TransformPolicy::Eager, TransformPolicy::Lazy]
            .map(|t| (t.label(), variant, t, sampling));
        let title = format!("{figure}({panel}): {caption}");
        in_depth_panel(&title, panel, "transform", &columns, &mut json);
    }
    ExperimentRecord::new(id, title, serde_json::Value::Array(json)).write();
}

/// One panel of a Section 8.6 sweep: a row per in-depth dataset and a cell
/// per `(label, variant, transform, sampling)` column. Prints the table and
/// appends each cell to `json`, with the column label under `key`.
fn in_depth_panel(
    title: &str,
    panel: &str,
    key: &str,
    columns: &[(&str, GdVariant, TransformPolicy, SamplingMethod)],
    json: &mut Vec<serde_json::Value>,
) {
    let (cfg, cluster) = (BenchConfig::from_env(), ClusterSpec::paper_testbed());
    let mut rows = Vec::new();
    for spec in in_depth_datasets() {
        let mut row = vec![spec.name.clone()];
        for &(label, variant, transform, sampling) in columns {
            let cell = in_depth_cell(variant, transform, sampling, &spec, &cfg, &cluster, 1e-3);
            let (text, value) = match cell {
                Some(Ok(r)) => (fmt_s(r.sim_time_s), Some(r.sim_time_s)),
                Some(Err(e)) => (format!("fail: {e}"), None),
                None => ("—".into(), None),
            };
            let mut record = serde_json::Map::new();
            record.insert("panel".into(), serde_json::json!(panel));
            record.insert("dataset".into(), serde_json::json!(spec.name));
            record.insert(key.into(), serde_json::json!(label));
            record.insert("time_s".into(), serde_json::json!(value));
            json.push(serde_json::Value::Object(record));
            row.push(text);
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("dataset")
        .chain(columns.iter().map(|c| c.0))
        .collect();
    print_table(title, &headers, &rows);
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
