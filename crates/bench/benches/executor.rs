//! Microbenchmarks of the plan executor: wall-clock machine cost per
//! iteration of BGD and SGD plans (distinct from the *simulated* seconds
//! the cost ledger charges).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset, SamplingMethod, SimEnv};
use ml4all_datasets::synth::{sparse_classification, SparseClassConfig};
use ml4all_gd::{execute_plan, GdPlan, GradientKind, TrainParams, TransformPolicy};
use ml4all_linalg::{FeatureVec, LabeledPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dataset(n: usize, dims: usize) -> PartitionedDataset {
    let mut rng = StdRng::seed_from_u64(1);
    let points: Vec<LabeledPoint> = (0..n)
        .map(|_| {
            let xs: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let label = if xs[0] > 0.0 { 1.0 } else { -1.0 };
            LabeledPoint::new(label, FeatureVec::dense(xs))
        })
        .collect();
    PartitionedDataset::from_points(
        "bench",
        points,
        PartitionScheme::RoundRobin,
        &ClusterSpec::paper_testbed(),
    )
    .unwrap()
}

/// The benchmark's sparse shape: CSR rows 20 000 wide, 30 stored entries
/// each.
fn csr_dataset() -> PartitionedDataset {
    PartitionedDataset::from_points(
        "bench-csr",
        sparse_classification(&SparseClassConfig {
            n: 4_000,
            dims: 20_000,
            density: 30.0 / 20_000.0,
            noise: 0.05,
            skewed: false,
            seed: 2,
        }),
        PartitionScheme::RoundRobin,
        &ClusterSpec::paper_testbed(),
    )
    .unwrap()
}

fn bench_executor(c: &mut Criterion) {
    let data = dataset(10_000, 50);
    let csr = csr_dataset();
    let mut group = c.benchmark_group("executor");
    group.sample_size(20);

    group.bench_function("bgd_20_iterations_10k_points", |b| {
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0;
        params.max_iter = 20;
        params.record_error_seq = false;
        b.iter(|| {
            let mut env = SimEnv::new(ClusterSpec::paper_testbed());
            let r = execute_plan(&GdPlan::bgd(), &data, &params, &mut env).unwrap();
            black_box(r.iterations)
        })
    });

    group.bench_function("sgd_1000_iterations_shuffle", |b| {
        let plan = GdPlan::sgd(TransformPolicy::Lazy, SamplingMethod::ShuffledPartition).unwrap();
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0;
        params.max_iter = 1000;
        params.record_error_seq = false;
        b.iter(|| {
            let mut env = SimEnv::new(ClusterSpec::paper_testbed());
            let r = execute_plan(&plan, &data, &params, &mut env).unwrap();
            black_box(r.iterations)
        })
    });

    group.bench_function("mgd1k_100_iterations_bernoulli", |b| {
        let plan = GdPlan::mgd(1000, TransformPolicy::Eager, SamplingMethod::Bernoulli).unwrap();
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0;
        params.max_iter = 100;
        params.record_error_seq = false;
        b.iter(|| {
            let mut env = SimEnv::new(ClusterSpec::paper_testbed());
            let r = execute_plan(&plan, &data, &params, &mut env).unwrap();
            black_box(r.iterations)
        })
    });

    // One case on each side of the executor's iteration-tail selection:
    // a one-row wave reads 30 stored entries against 20 000 columns (tail
    // over the row's support), a 1 000-row wave reads 30 000 (dense tail).
    group.bench_function("sgd_1000_iterations_csr", |b| {
        let plan = GdPlan::sgd(TransformPolicy::Lazy, SamplingMethod::ShuffledPartition).unwrap();
        let mut params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
        params.tolerance = 0.0;
        params.max_iter = 1000;
        params.record_error_seq = false;
        b.iter(|| {
            let mut env = SimEnv::new(ClusterSpec::paper_testbed());
            let r = execute_plan(&plan, &csr, &params, &mut env).unwrap();
            black_box(r.iterations)
        })
    });

    group.bench_function("mgd1k_30_iterations_csr", |b| {
        let plan = GdPlan::mgd(
            1000,
            TransformPolicy::Eager,
            SamplingMethod::RandomPartition,
        )
        .unwrap();
        let mut params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
        params.tolerance = 0.0;
        params.max_iter = 30;
        params.record_error_seq = false;
        b.iter(|| {
            let mut env = SimEnv::new(ClusterSpec::paper_testbed());
            let r = execute_plan(&plan, &csr, &params, &mut env).unwrap();
            black_box(r.iterations)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_executor);
criterion_main!(benches);
