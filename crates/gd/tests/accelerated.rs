//! Integration tests for the accelerated algorithms of Appendix C: SVRG
//! and BGD with backtracking line search, both expressed through the same
//! seven-operator abstraction and executor as the plain plans.

use ml4all_dataflow::{
    ClusterSpec, ColumnStore, PartitionScheme, PartitionedDataset, SamplingMethod, SimEnv,
};
use ml4all_gd::linesearch::execute_line_search_bgd;
use ml4all_gd::svrg::execute_svrg;
use ml4all_gd::{partitioned_loss, GradientKind, Regularizer, StepSize, TrainParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn regression_points(n: usize, seed: u64) -> ColumnStore {
    // y = 2 x0 − x1 + 0.5 with small noise.
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x0: f64 = rng.gen_range(-1.0..1.0);
            let x1: f64 = rng.gen_range(-1.0..1.0);
            let y = 2.0 * x0 - x1 + 0.5 + rng.gen_range(-0.02..0.02);
            (y, [x0, x1, 1.0])
        })
        .collect()
}

fn dataset(n: usize, seed: u64) -> PartitionedDataset {
    PartitionedDataset::from_columns(
        "reg",
        &regression_points(n, seed),
        PartitionScheme::RoundRobin,
        &ClusterSpec::paper_testbed(),
    )
    .unwrap()
}

#[test]
fn svrg_converges_on_regression() {
    let data = dataset(1000, 5);
    let mut params = TrainParams::paper_defaults(GradientKind::LinearRegression);
    params.tolerance = 1e-5;
    params.max_iter = 3000;
    let mut env = SimEnv::new(ClusterSpec::paper_testbed());
    let result = execute_svrg(
        &data,
        SamplingMethod::ShuffledPartition,
        50,
        0.05,
        &params,
        &mut env,
    )
    .unwrap();
    let loss = partitioned_loss(
        &GradientKind::LinearRegression,
        &Regularizer::None,
        result.weights.as_slice(),
        &data,
    );
    assert!(loss < 0.05, "SVRG loss {loss}");
    assert!(
        (result.weights[0] - 2.0).abs() < 0.2,
        "w0 {}",
        result.weights[0]
    );
}

#[test]
fn svrg_variance_reduction_beats_plain_sgd_at_equal_steps() {
    use ml4all_gd::{execute_plan, GdPlan, TransformPolicy};
    let data = dataset(1000, 5);

    let mut params = TrainParams::paper_defaults(GradientKind::LinearRegression);
    params.tolerance = 0.0;
    params.max_iter = 600;
    params.step = StepSize::Constant(0.05);

    let mut env_svrg = SimEnv::new(ClusterSpec::paper_testbed());
    let svrg = execute_svrg(
        &data,
        SamplingMethod::ShuffledPartition,
        100,
        0.05,
        &params,
        &mut env_svrg,
    )
    .unwrap();

    let plan = GdPlan::sgd(TransformPolicy::Eager, SamplingMethod::ShuffledPartition).unwrap();
    let mut env_sgd = SimEnv::new(ClusterSpec::paper_testbed());
    let sgd = execute_plan(&plan, &data, &params, &mut env_sgd).unwrap();

    let loss = |w: &ml4all_linalg::DenseVector| {
        partitioned_loss(
            &GradientKind::LinearRegression,
            &Regularizer::None,
            w.as_slice(),
            &data,
        )
    };
    assert!(
        loss(&svrg.weights) < loss(&sgd.weights) + 1e-9,
        "svrg {} vs sgd {}",
        loss(&svrg.weights),
        loss(&sgd.weights)
    );
}

#[test]
fn line_search_bgd_converges_without_tuning() {
    let data = dataset(800, 9);
    let mut params = TrainParams::paper_defaults(GradientKind::LinearRegression);
    params.tolerance = 1e-6;
    params.max_iter = 4000; // counts phases: gradient + probe passes
    let mut env = SimEnv::new(ClusterSpec::paper_testbed());
    // Deliberately absurd initial step: backtracking must tame it.
    let result = execute_line_search_bgd(&data, 64.0, 0.5, &params, &mut env).unwrap();
    let loss = partitioned_loss(
        &GradientKind::LinearRegression,
        &Regularizer::None,
        result.weights.as_slice(),
        &data,
    );
    assert!(loss < 0.01, "line-search loss {loss}");
}

#[test]
fn line_search_probes_cost_extra_scans() {
    // The same model quality costs more simulated time than fixed-step BGD
    // because every probe is a full objective evaluation over the data.
    use ml4all_gd::{execute_plan, GdPlan};
    let data = dataset(800, 9);
    let mut params = TrainParams::paper_defaults(GradientKind::LinearRegression);
    params.tolerance = 1e-4;
    params.max_iter = 200;

    let mut env_ls = SimEnv::new(ClusterSpec::paper_testbed());
    let ls = execute_line_search_bgd(&data, 8.0, 0.5, &params, &mut env_ls).unwrap();

    params.step = StepSize::Constant(0.1);
    let mut env_bgd = SimEnv::new(ClusterSpec::paper_testbed());
    let bgd = execute_plan(&GdPlan::bgd(), &data, &params, &mut env_bgd).unwrap();

    // Line search performed at least one probe phase per accepted step.
    assert!(ls.iterations > bgd.iterations / 2);
    assert!(ls.cost.cpu_s > 0.0 && bgd.cost.cpu_s > 0.0);
}

#[test]
fn svrg_anchor_frequency_one_degenerates_to_batch() {
    let data = dataset(500, 13);
    let mut params = TrainParams::paper_defaults(GradientKind::LinearRegression);
    params.tolerance = 1e-6;
    params.max_iter = 500;
    let mut env = SimEnv::new(ClusterSpec::paper_testbed());
    let result = execute_svrg(
        &data,
        SamplingMethod::ShuffledPartition,
        1, // anchor every iteration → full gradient steps
        0.1,
        &params,
        &mut env,
    )
    .unwrap();
    let loss = partitioned_loss(
        &GradientKind::LinearRegression,
        &Regularizer::None,
        result.weights.as_slice(),
        &data,
    );
    assert!(loss < 0.05, "anchored-only SVRG loss {loss}");
}

#[test]
fn stats_stage_plus_mean_center_runs_through_the_executor() {
    // The Section 6 global-statistics path end to end: a Stage that
    // demands a full scan, a non-identity Transform consuming its output,
    // materialized eagerly by the executor.
    use ml4all_gd::executor::{execute, ExecHooks};
    use ml4all_gd::operators::{
        FixedSample, GdOperators, GradientCompute, L1Converge, MeanCenterTransform, SampleSize,
        StatsStage, StepUpdate, ToleranceLoop,
    };
    use ml4all_gd::{GdPlan, Regularizer};

    // Features with a strong offset: centering makes the intercept-free
    // regression solvable.
    let mut rng = StdRng::seed_from_u64(77);
    let points = (0..800)
        .map(|_| {
            let x: f64 = rng.gen_range(-1.0..1.0);
            // offset feature = x + 100; y = 2x
            (2.0 * x, [x + 100.0])
        })
        .collect();
    let data = PartitionedDataset::from_columns(
        "offset",
        &points,
        PartitionScheme::RoundRobin,
        &ClusterSpec::paper_testbed(),
    )
    .unwrap();

    let mut params = TrainParams::paper_defaults(GradientKind::LinearRegression);
    params.tolerance = 1e-8;
    params.max_iter = 3000;
    params.step = StepSize::Constant(0.5);
    let ops = GdOperators {
        transform: Box::new(MeanCenterTransform),
        stage: Box::new(StatsStage { dims: 1 }),
        compute: Box::new(GradientCompute::of(GradientKind::LinearRegression)),
        update: Box::new(StepUpdate {
            step: params.step,
            regularizer: Regularizer::None,
        }),
        sample: Box::new(FixedSample {
            size: SampleSize::All,
        }),
        converge: Box::new(L1Converge),
        loop_op: Box::new(ToleranceLoop {
            tolerance: params.tolerance,
            max_iter: params.max_iter,
        }),
    };
    let mut env = SimEnv::new(ClusterSpec::paper_testbed());
    let result = execute(
        &GdPlan::bgd(),
        &data,
        &ops,
        &params,
        &mut env,
        &ExecHooks::default(),
    )
    .unwrap();
    // After centering, the slope is recoverable.
    assert!(
        (result.weights[0] - 2.0).abs() < 0.05,
        "slope {}",
        result.weights[0]
    );
    // The stats scan was charged: preparation includes two full scans
    // (stats + eager transform), visible as extra IO versus a plain run.
    assert!(result.cost.io_s > 0.0);
}
