//! Price golden: the f64 bits of every Section 7.1 operator row, of every
//! plan's Equation 7–9 composition, and of the ledger and usage meter the
//! executor leaves behind when it runs each plan. The cost model, the
//! executor and the samplers all charge the same prices; this file pins
//! those prices on both sides, so moving where a price is written cannot
//! move a bit. Regenerate with `UPDATE_GOLDEN=1` only after an intended
//! change of prices.

use std::fmt::Write as _;

use ml4all_bench::golden::assert_golden;
use ml4all_core::cost::{OperatorCosts, PlanCostModel};
use ml4all_core::enumerate_plans;
use ml4all_dataflow::{
    Backend, ClusterSpec, ColumnStore, CostBreakdown, DatasetDescriptor, PartitionScheme,
    PartitionedDataset, SamplingMethod, SimEnv,
};
use ml4all_gd::linesearch::line_search_operators;
use ml4all_gd::operators::{
    FixedSample, GradientCompute, L1Converge, MeanCenterTransform, StatsStage, StepUpdate,
    ToleranceLoop,
};
use ml4all_gd::svrg::svrg_operators;
use ml4all_gd::{
    execute, ExecHooks, GdOperators, GdPlan, GradientKind, SampleSize, TrainParams, TrainResult,
    TransformPolicy,
};

const MB: u64 = 1024 * 1024;
const GB: u64 = 1024 * MB;
const SAMPLERS: [SamplingMethod; 3] = [
    SamplingMethod::Bernoulli,
    SamplingMethod::RandomPartition,
    SamplingMethod::ShuffledPartition,
];

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn vector(c: &CostBreakdown) -> String {
    format!(
        "[{} {} {} {}]",
        bits(c.io_s),
        bits(c.cpu_s),
        bits(c.net_s),
        bits(c.overhead_s)
    )
}

fn clusters() -> [(&'static str, ClusterSpec); 2] {
    [
        ("paper_testbed", ClusterSpec::paper_testbed()),
        ("local4", ClusterSpec::local(4)),
    ]
}

/// One partition, several waves, past the cache, sparse, and degenerate.
fn descriptors() -> [DatasetDescriptor; 5] {
    [
        DatasetDescriptor::new("adult-like", 100_827, 123, 7 * MB, 0.11),
        DatasetDescriptor::new("svm1-like", 5_516_800, 100, 10 * GB, 1.0),
        DatasetDescriptor::new("over-cache", 88_268_800, 100, 160 * GB, 1.0),
        DatasetDescriptor::new("rcv1-like", 677_399, 47_236, 12 * GB / 10, 1.5e-3),
        DatasetDescriptor::new("unit", 1, 1, 16, 1.0),
    ]
}

fn model_rows() -> String {
    let mut out = String::new();
    for (cluster, spec) in clusters() {
        for desc in descriptors() {
            let head = format!("row {cluster} {}", desc.name);
            let costs = OperatorCosts::new(&spec, &desc);
            let fixed = [
                ("job_init", costs.job_init_cost()),
                ("stage", costs.stage_cost()),
                ("transform_full", costs.transform_full_cost()),
                ("compute_full", costs.compute_full_cost()),
                ("update_aggregate", costs.update_cost(true)),
                ("update_driver", costs.update_cost(false)),
                ("converge_loop", costs.converge_loop_cost()),
                ("iteration_overhead", costs.iteration_overhead_cost()),
            ];
            for (name, cost) in fixed {
                let _ = writeln!(out, "{head} {name} {}", vector(&cost));
            }
            for m in [1, 1000] {
                let _ = writeln!(
                    out,
                    "{head} transform_units m={m} {}",
                    vector(&costs.transform_units_cost(m))
                );
                let _ = writeln!(
                    out,
                    "{head} compute_units m={m} {}",
                    vector(&costs.compute_units_cost(m))
                );
                for method in SAMPLERS {
                    let _ = writeln!(
                        out,
                        "{head} sample_{method} m={m} {}",
                        vector(&costs.sample_cost(method, m))
                    );
                }
            }

            let model = PlanCostModel::new(&spec, &desc);
            for plan in enumerate_plans(1000) {
                let _ = writeln!(
                    out,
                    "plan {cluster} {} {plan}: prep {} iter {} t1 {} t1000 {} prep_vec {} iter_vec {}",
                    desc.name,
                    bits(model.preparation_s(&plan)),
                    bits(model.per_iteration_s(&plan)),
                    bits(model.total_s(&plan, 1)),
                    bits(model.total_s(&plan, 1000)),
                    vector(&model.preparation_cost(&plan)),
                    vector(&model.per_iteration_cost(&plan)),
                );
            }
        }
    }
    out
}

const DIMS: usize = 5;

/// 64 rows of a noisy linear separator with a bias feature, from a
/// fixed LCG (no crate RNG, so the rows cannot move with one).
fn points() -> ColumnStore {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut unit = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    };
    (0..64)
        .map(|_| {
            let mut x: Vec<f64> = (0..DIMS - 1).map(|_| unit()).collect();
            let score = x[0] - 0.5 * x[1] + 0.25 * x[2] + 0.1 * unit();
            x.push(1.0);
            (if score >= 0.0 { 1.0 } else { -1.0 }, x)
        })
        .collect()
}

/// The 64 rows dealt into 4 physical partitions under a logical
/// descriptor of `bytes` (dealt at a quarter of the declared size per
/// partition, costed against the real cluster).
fn dataset(name: &str, n: u64, bytes: u64) -> PartitionedDataset {
    let desc = DatasetDescriptor::new(name, n, DIMS, bytes, 1.0);
    let dealing = ClusterSpec {
        partition_bytes: bytes.div_ceil(4),
        ..ClusterSpec::paper_testbed()
    };
    let data =
        PartitionedDataset::with_descriptor(desc, &points(), PartitionScheme::RoundRobin, &dealing)
            .expect("64 rows build");
    assert_eq!(data.num_partitions(), 4);
    data
}

fn params() -> TrainParams {
    let mut params = TrainParams::paper_defaults(GradientKind::Svm);
    params.tolerance = 0.0;
    params.max_iter = 7;
    params.seed = 11;
    params
}

/// Bundles whose charge sites the reference plans never reach.
fn custom_bundles() -> Vec<(&'static str, GdPlan, GdOperators)> {
    let params = params();
    let lazy_shuffle_sgd =
        GdPlan::sgd(TransformPolicy::Lazy, SamplingMethod::ShuffledPartition).unwrap();
    let lazy_random_mgd =
        GdPlan::mgd(24, TransformPolicy::Lazy, SamplingMethod::RandomPartition).unwrap();
    vec![
        (
            "svrg-lazy-shuffle",
            lazy_shuffle_sgd,
            svrg_operators(params.gradient, DIMS, 3, 0.05, 0.0, params.max_iter),
        ),
        (
            "linesearch-bgd",
            GdPlan::bgd(),
            line_search_operators(params.gradient, DIMS, 1.0, 0.5, 0.0, params.max_iter),
        ),
        (
            "stats-mean-center-lazy-mgd",
            lazy_random_mgd,
            GdOperators {
                transform: Box::new(MeanCenterTransform),
                stage: Box::new(StatsStage { dims: DIMS }),
                compute: Box::new(GradientCompute::of(params.gradient)),
                update: Box::new(StepUpdate {
                    step: params.step,
                    regularizer: params.regularizer,
                }),
                sample: Box::new(FixedSample {
                    size: SampleSize::Units(24),
                }),
                converge: Box::new(L1Converge),
                loop_op: Box::new(ToleranceLoop {
                    tolerance: 0.0,
                    max_iter: params.max_iter,
                }),
            },
        ),
    ]
}

fn run_line(head: &str, r: &TrainResult) -> String {
    let u = &r.usage;
    let nodes: Vec<String> = u.node_compute_s.iter().map(|&s| bits(s)).collect();
    format!(
        "{head}: iterations {} cost {} sim {} tuples {} bytes {} nodes [{}] waves {} shuffles {}\n",
        r.iterations,
        vector(&r.cost),
        bits(r.sim_time_s),
        u.tuples_scanned,
        u.bytes_shuffled,
        nodes.join(" "),
        u.waves,
        r.sampler_shuffles,
    )
}

fn executed_rows() -> String {
    let spec = ClusterSpec::paper_testbed();
    let backends = [
        ("local", Backend::Local),
        ("cluster", Backend::simulated_cluster(&spec)),
    ];
    let datasets = [
        dataset("one-partition", 100_000, 7 * MB),
        dataset("multi-partition", 5_516_800, 10 * GB),
    ];
    let params = params();
    let mut out = String::new();
    for data in &datasets {
        for (backend_name, backend) in &backends {
            let env = || SimEnv::new(spec.clone()).with_backend(backend.clone());
            let head =
                |label: &str| format!("run {} {backend_name} {label}", data.descriptor().name);
            for plan in enumerate_plans(24) {
                let ops = ml4all_gd::executor::reference_operators(&plan, &params, DIMS);
                let r = execute(
                    &plan,
                    data,
                    &ops,
                    &params,
                    &mut env(),
                    &ExecHooks::default(),
                )
                .unwrap_or_else(|e| panic!("{plan}: {e}"));
                out.push_str(&run_line(&head(&plan.to_string()), &r));
            }
            for (label, plan, ops) in custom_bundles() {
                let r = execute(
                    &plan,
                    data,
                    &ops,
                    &params,
                    &mut env(),
                    &ExecHooks::default(),
                )
                .unwrap_or_else(|e| panic!("{label}: {e}"));
                out.push_str(&run_line(&head(label), &r));
            }
        }
    }
    out
}

#[test]
fn operator_rows_plan_compositions_and_executed_ledgers_keep_their_bits() {
    let mut text = model_rows();
    text.push_str(&executed_rows());
    assert_golden("price_table.txt", &text);
}
