//! Exactness of the speculation cap stop: stopping Algorithm 1 once its
//! estimate clears the request's `max_iter` must not move a priced bit.
//! The bound behind the stop leaves out the point that ends a run by
//! converging below `ε_s`; this sweep is the gate that such a point has
//! not moved a BGD or MGD price. On the five registry analogs, at two target tolerances and
//! three speculation seeds, each variant's `min(estimate, max_iter)` equals
//! the unstopped run's (`max_iter = u64::MAX`), an estimate under the cap
//! is the unstopped one bit for bit, and the costed plan list the chooser
//! returns is the one the unstopped estimates price. One test per analog,
//! one thread per seed, so the sweep uses every core.

use ml4all_core::cost::PlanCostModel;
use ml4all_core::estimator::{estimate_on_sample, speculation_sample, SpeculationConfig};
use ml4all_core::{choose_plan, enumerate_plans, OptimizerConfig};
use ml4all_dataflow::{ClusterSpec, PartitionedDataset};
use ml4all_datasets::{registry, Task};
use ml4all_gd::{GdVariant, GradientKind};

fn gradient_of(task: Task) -> GradientKind {
    match task {
        Task::Svm => GradientKind::Svm,
        Task::LogisticRegression => GradientKind::LogisticRegression,
        Task::LinearRegression => GradientKind::LinearRegression,
    }
}

/// Sweep one analog; returns the speculation iterations run with the cap
/// stop and without it, summed over every case.
fn sweep(name: &str) -> (u64, u64) {
    let testbed = ClusterSpec::paper_testbed();
    let spec = registry::by_name(name).expect("registry dataset");
    let data = spec.build(4000, 7, &testbed).expect("build analog");
    let gradient = gradient_of(spec.task);
    std::thread::scope(|scope| {
        let seeds = [1, 2, 3].map(|seed| {
            let (data, testbed) = (&data, &testbed);
            scope.spawn(move || sweep_seed(name, data, gradient, testbed, seed))
        });
        seeds.into_iter().fold((0, 0), |(s, f), seed| {
            let (ds, df) = seed.join().expect("sweep thread");
            (s + ds, f + df)
        })
    })
}

fn sweep_seed(
    name: &str,
    data: &PartitionedDataset,
    gradient: GradientKind,
    testbed: &ClusterSpec,
    seed: u64,
) -> (u64, u64) {
    let model = PlanCostModel::new(testbed, data.descriptor());
    let spec_cfg = SpeculationConfig {
        seed,
        ..SpeculationConfig::default()
    };
    let base = OptimizerConfig::new(gradient).with_speculation(spec_cfg.clone());
    // The unstopped runs do not depend on the target tolerance: one per
    // variant serves both.
    let sample = speculation_sample(data, &spec_cfg, testbed).expect("sample");
    let mut full_params = base.train_params();
    full_params.max_iter = u64::MAX;
    let full: Vec<_> = [
        GdVariant::Batch,
        GdVariant::Stochastic,
        GdVariant::MiniBatch {
            batch: base.batch_size,
        },
    ]
    .into_iter()
    .map(|v| {
        let est = estimate_on_sample(&sample, v, &full_params, 1e-3, &spec_cfg, testbed)
            .expect("full speculation");
        (v, est)
    })
    .collect();

    let (mut stopped_iterations, mut full_iterations) = (0, 0);
    for eps in [1e-2, 1e-3] {
        let case = format!("{name} ε_d={eps} seed {seed}");
        let config = base.clone().with_tolerance(eps);
        let cap = config.max_iter;
        let report = choose_plan(data, &config, testbed).expect("choose");
        assert_eq!(report.estimates.len(), full.len(), "{case}");
        for (stopped, (variant, f)) in report.estimates.iter().zip(&full) {
            assert_eq!(stopped.variant, *variant, "{case}");
            let s = &stopped.estimate;
            let full_t = f.fit.iterations_for(eps);
            assert_eq!(s.iterations.min(cap), full_t.min(cap), "{case} {variant}");
            assert!(s.speculation_iterations <= f.speculation_iterations);
            if full_t < cap {
                // A binding estimate ran the whole speculation.
                assert_eq!(s.fit.a.to_bits(), f.fit.a.to_bits(), "{case} {variant}");
                assert_eq!(s.speculation_iterations, f.speculation_iterations);
            }
            stopped_iterations += s.speculation_iterations;
            full_iterations += f.speculation_iterations;
        }

        // The decision the unstopped estimates make: every plan priced at
        // `min(T, max_iter)`, ranked cheapest-first.
        let mut expected: Vec<_> = enumerate_plans(config.batch_size)
            .into_iter()
            .map(|plan| {
                let (_, f) = full
                    .iter()
                    .find(|(v, _)| *v == plan.variant)
                    .expect("every variant speculated");
                let t = f.fit.iterations_for(eps).min(cap).max(1);
                (plan, t, model.total_s(&plan, t))
            })
            .collect();
        expected.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("finite"));
        assert_eq!(report.choices.len(), expected.len(), "{case}");
        for (got, (plan, t, total_s)) in report.choices.iter().zip(&expected) {
            assert_eq!(got.plan, *plan, "{case}");
            assert_eq!(got.estimated_iterations, *t, "{case}");
            assert_eq!(got.total_s.to_bits(), total_s.to_bits(), "{case}");
        }
    }
    (stopped_iterations, full_iterations)
}

/// An analog whose estimates clear the cap: the stop must fire, or the
/// sweep would pass without testing it.
fn assert_stops(name: &str) {
    let (stopped, full) = sweep(name);
    assert!(stopped < full, "{name}: stopped {stopped} vs full {full}");
}

#[test]
fn adult_prices_as_the_full_run() {
    assert_stops("adult");
}

#[test]
fn covtype_prices_as_the_full_run() {
    assert_stops("covtype");
}

#[test]
fn svm1_prices_as_the_full_run() {
    assert_stops("svm1");
}

#[test]
fn rcv1_prices_as_the_full_run() {
    assert_stops("rcv1");
}

#[test]
fn yearpred_binds_and_runs_in_full() {
    let (stopped, full) = sweep("yearpred");
    assert_eq!(stopped, full);
}
