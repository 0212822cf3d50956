//! Cross-crate integration tests: the declarative front end, the
//! optimizer, the executor, and the metrics working together.

use ml4all_core::chooser::{choose_plan, OptimizerConfig};
use ml4all_core::estimator::SpeculationConfig;
use ml4all_core::lang::{parse_query, plan_query, Query};
use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset, SimEnv};
use ml4all_datasets::{registry, train_test_split};
use ml4all_gd::{execute_plan, Gradient, GradientKind};

fn quick_speculation() -> SpeculationConfig {
    SpeculationConfig {
        sample_size: 400,
        max_iterations: 5000,
        ..SpeculationConfig::default()
    }
}

#[test]
fn declarative_query_trains_a_usable_model() {
    let cluster = ClusterSpec::paper_testbed();
    let query = parse_query("run logistic() on adult having epsilon 0.01, max iter 4000;")
        .expect("query parses");
    let Query::Run(run) = query else {
        panic!("expected run query")
    };
    let mut config = plan_query(&run).expect("query plans");
    config = config.with_speculation(quick_speculation());

    let spec = registry::adult();
    let rows = spec.generate_columns(2500, 11);
    let (train, test) = train_test_split(&rows, 0.8, 11);
    let data = PartitionedDataset::with_descriptor(
        spec.descriptor(),
        &train,
        PartitionScheme::RoundRobin,
        &cluster,
    )
    .expect("dataset builds");

    let report = choose_plan(&data, &config, &cluster).expect("optimizer runs");
    let params = config.train_params();
    let mut env = SimEnv::new(cluster);
    let result =
        execute_plan(&report.best().plan, &data, &params, &mut env).expect("chosen plan executes");

    let gradient = config.gradient;
    assert_eq!(gradient, GradientKind::LogisticRegression);
    let preds: Vec<f64> = test
        .iter()
        .map(|p| gradient.predict(result.weights.as_slice(), p))
        .collect();
    let accuracy = ml4all_datasets::accuracy(&preds, test.labels());
    assert!(accuracy > 0.7, "accuracy {accuracy}");
}

#[test]
fn optimizer_never_picks_the_worst_plan() {
    // The paper's stated goal: "like database optimizers, the main goal
    // ... is to avoid the worst execution plans."
    let cluster = ClusterSpec::paper_testbed();
    for spec in [registry::adult(), registry::svm1(), registry::rcv1()] {
        let data = spec.build(1200, 5, &cluster).expect("dataset builds");
        let config = OptimizerConfig::new(ml4all_bench::task_gradient(spec.task))
            .with_tolerance(1e-3)
            .with_max_iter(300)
            .with_speculation(quick_speculation());
        let report = choose_plan(&data, &config, &cluster).expect("optimizer runs");

        // Execute best and worst; best must beat worst by a clear margin
        // whenever the worst is meaningfully bad.
        let params = config.train_params();
        let best = ml4all_bench::runs::run_plan(&report.best().plan, &data, &params, &cluster)
            .expect("best plan runs");
        let worst = ml4all_bench::runs::run_plan(&report.worst().plan, &data, &params, &cluster)
            .expect("worst plan runs");
        assert!(
            best.sim_time_s <= worst.sim_time_s * 1.05,
            "{}: chosen {} ({:.1}s) vs worst {} ({:.1}s)",
            spec.name,
            report.best().plan,
            best.sim_time_s,
            report.worst().plan,
            worst.sim_time_s
        );
    }
}

#[test]
fn estimator_tracks_reality_within_an_order_of_magnitude() {
    // The Figure 6 headline property, as an integration-level assertion
    // on a smooth (logistic) objective.
    let cluster = ClusterSpec::paper_testbed();
    let spec = registry::covtype();
    let data = spec.build(2500, 13, &cluster).expect("dataset builds");
    let mut params = ml4all_gd::TrainParams::paper_defaults(GradientKind::LogisticRegression);
    params.tolerance = 0.01;
    params.max_iter = 20_000;
    params.record_error_seq = false;

    let est = ml4all_core::estimator::estimate_iterations(
        &data,
        ml4all_gd::GdVariant::Batch,
        &params,
        0.01,
        &quick_speculation(),
        &cluster,
    )
    .expect("estimate");
    let real = ml4all_bench::runs::run_plan(&ml4all_gd::GdPlan::bgd(), &data, &params, &cluster)
        .expect("real run");
    assert!(real.converged(), "real run converged");
    let ratio = est.iterations.max(real.iterations) as f64
        / est.iterations.min(real.iterations).max(1) as f64;
    assert!(
        ratio <= 10.0,
        "estimated {} vs real {} (ratio {ratio:.1})",
        est.iterations,
        real.iterations
    );
}

#[test]
fn skewed_dataset_with_shuffle_sampling_hurts_test_error() {
    // The Section 8.5 rcv1 caveat: shuffled-partition sampling on a
    // label-sorted (contiguously partitioned) dataset biases the model.
    let cluster = ClusterSpec::paper_testbed();
    let spec = registry::rcv1();
    let rows = spec.generate_columns(2400, 3);
    let (train, test) = train_test_split(&rows, 0.8, 3);
    let data = PartitionedDataset::with_descriptor(
        spec.descriptor(),
        &train,
        PartitionScheme::Contiguous,
        &cluster,
    )
    .expect("dataset builds");

    let mut params = ml4all_gd::TrainParams::paper_defaults(GradientKind::LogisticRegression);
    params.tolerance = 0.0;
    // The bias is a partition-locality effect: keep the run short enough
    // that shuffled-partition sampling stays inside its first (single
    // class) partition, with a step large enough to actually absorb it.
    params.max_iter = 150;
    params.step = ml4all_gd::StepSize::Constant(0.5);
    let gradient = GradientKind::LogisticRegression;

    let mse_for = |sampling| {
        let plan = ml4all_gd::GdPlan {
            variant: ml4all_gd::GdVariant::Stochastic,
            transform: ml4all_gd::TransformPolicy::Eager,
            sampling: Some(sampling),
        };
        let r = ml4all_bench::runs::run_plan(&plan, &data, &params, &cluster).expect("runs");
        let preds: Vec<f64> = test
            .iter()
            .map(|p| gradient.predict(r.weights.as_slice(), p))
            .collect();
        ml4all_datasets::mean_squared_error(&preds, test.labels())
    };

    let shuffle_mse = mse_for(ml4all_dataflow::SamplingMethod::ShuffledPartition);
    let bernoulli_mse = mse_for(ml4all_dataflow::SamplingMethod::Bernoulli);
    assert!(
        shuffle_mse > bernoulli_mse,
        "shuffle {shuffle_mse} should exceed bernoulli {bernoulli_mse} on skewed data"
    );
}
