//! Property-based tests for the GD layer: gradient correctness against
//! numerical differentiation, executor determinism, and descent behaviour.

use ml4all_dataflow::{
    ClusterSpec, ColumnarBuilder, PartitionScheme, PartitionedDataset, SamplingMethod, SimEnv,
};
use ml4all_gd::{
    execute_plan, partitioned_loss, GdPlan, Gradient, GradientKind, Regularizer, StepSize,
    TrainParams, TransformPolicy,
};
use ml4all_linalg::{FeatureView, PointView};
use proptest::prelude::*;

/// A `(label, dense row)` pair, viewed with [`view`].
fn arb_point(dims: usize) -> impl Strategy<Value = (f64, Vec<f64>)> {
    (
        prop::collection::vec(-2.0f64..2.0, dims),
        prop_oneof![Just(-1.0f64), Just(1.0f64)],
    )
        .prop_map(|(xs, label)| (label, xs))
}

fn view((label, xs): &(f64, Vec<f64>)) -> PointView<'_> {
    PointView::new(*label, FeatureView::Dense(xs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gradients_match_numerical_differentiation(
        point in arb_point(4),
        w in prop::collection::vec(-2.0f64..2.0, 4),
        kind_ix in 0usize..2,
    ) {
        // Smooth losses only (hinge is non-differentiable at the margin).
        let kind = [GradientKind::LinearRegression, GradientKind::LogisticRegression][kind_ix];
        let eps = 1e-6;
        let mut analytic = vec![0.0; 4];
        kind.accumulate(&w, view(&point), &mut analytic);
        for j in 0..4 {
            let mut wp = w.clone();
            wp[j] += eps;
            let mut wm = w.clone();
            wm[j] -= eps;
            let numeric = (kind.loss(&wp, view(&point)) - kind.loss(&wm, view(&point))) / (2.0 * eps);
            prop_assert!(
                (numeric - analytic[j]).abs() < 1e-4 * (1.0 + analytic[j].abs()),
                "{kind:?} dim {j}: numeric {numeric} vs analytic {}",
                analytic[j]
            );
        }
    }

    #[test]
    fn hinge_subgradient_is_valid(
        point in arb_point(3),
        w in prop::collection::vec(-2.0f64..2.0, 3),
    ) {
        // Subgradient inequality: ℓ(v) ≥ ℓ(w) + g·(v − w) for hinge.
        let kind = GradientKind::Svm;
        let mut g = vec![0.0; 3];
        kind.accumulate(&w, view(&point), &mut g);
        let lw = kind.loss(&w, view(&point));
        for dv in [-0.5, 0.3, 1.0] {
            let v: Vec<f64> = w.iter().map(|x| x + dv).collect();
            let lv = kind.loss(&v, view(&point));
            let linear: f64 = g.iter().map(|gi| gi * dv).sum();
            prop_assert!(lv + 1e-9 >= lw + linear);
        }
    }
}

fn dataset(n: usize, seed: u64) -> PartitionedDataset {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|_| {
            let x0: f64 = rng.gen_range(-1.0..1.0);
            let x1: f64 = rng.gen_range(-1.0..1.0);
            let label = if x0 + 0.5 * x1 > 0.0 { 1.0 } else { -1.0 };
            (label, [x0, x1, 1.0])
        })
        .collect();
    PartitionedDataset::from_columns(
        "prop",
        &points,
        PartitionScheme::RoundRobin,
        &ClusterSpec::paper_testbed(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn executor_is_deterministic_per_seed(seed in 0u64..1000, iters in 5u64..50) {
        let data = dataset(300, 5);
        let plan = GdPlan::mgd(20, TransformPolicy::Eager, SamplingMethod::RandomPartition)
            .unwrap();
        let mut params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
        params.seed = seed;
        params.tolerance = 0.0;
        params.max_iter = iters;

        let mut env_a = SimEnv::new(ClusterSpec::paper_testbed());
        let a = execute_plan(&plan, &data, &params, &mut env_a).unwrap();
        let mut env_b = SimEnv::new(ClusterSpec::paper_testbed());
        let b = execute_plan(&plan, &data, &params, &mut env_b).unwrap();
        prop_assert_eq!(a.weights, b.weights);
        prop_assert_eq!(a.sim_time_s, b.sim_time_s);
    }

    #[test]
    fn bgd_monotonically_reduces_logistic_loss(seed in 0u64..100) {
        // With a constant, stable step, full-batch GD on the smooth convex
        // logistic loss must not increase the objective.
        let data = dataset(400, seed);
        let mut params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
        params.step = StepSize::Constant(0.2);
        params.tolerance = 0.0;

        let mut last = partitioned_loss(
            &GradientKind::LogisticRegression,
            &Regularizer::None,
            &[0.0, 0.0, 0.0],
            &data,
        );
        for iters in [5u64, 15, 40] {
            params.max_iter = iters;
            let mut env = SimEnv::new(ClusterSpec::paper_testbed());
            let r = execute_plan(&GdPlan::bgd(), &data, &params, &mut env).unwrap();
            let loss = partitioned_loss(
                &GradientKind::LogisticRegression,
                &Regularizer::None,
                r.weights.as_slice(),
                &data,
            );
            prop_assert!(loss <= last + 1e-9, "loss rose from {last} to {loss}");
            last = loss;
        }
    }

    #[test]
    fn sim_time_is_positive_and_additive_in_iterations(iters in 2u64..40) {
        let data = dataset(200, 3);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0;

        params.max_iter = iters;
        let mut env = SimEnv::new(ClusterSpec::paper_testbed());
        let full = execute_plan(&GdPlan::bgd(), &data, &params, &mut env).unwrap();

        params.max_iter = iters / 2;
        let mut env_half = SimEnv::new(ClusterSpec::paper_testbed());
        let half = execute_plan(&GdPlan::bgd(), &data, &params, &mut env_half).unwrap();

        prop_assert!(full.sim_time_s > half.sim_time_s);
        prop_assert!(half.sim_time_s > 0.0);
    }
}

/// The same logical data stored as a dense slab and as CSR (explicit
/// zeros dropped) trains to equivalent weights. Not bit-identical: the
/// batched dense kernels score rows in the fixed blocked reduction order
/// (`ml4all_linalg::simd::dot_blocked`), while CSR rows keep the
/// sequential stored-entry order — the two layouts round identically-
/// valued real sums differently. The layouts must still agree to within
/// rounding noise, and must run the same number of iterations.
fn check_dense_slab_vs_csr(seed: u64, sampler_ix: usize, iters: u64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let dims = 6usize;
    let mut dense_pts = Vec::new();
    let mut sparse_pts = ColumnarBuilder::new();
    for _ in 0..240 {
        // Roughly half the entries are exact zeros, so the CSR rows
        // genuinely skip storage the dense slab materializes.
        let xs: Vec<f64> = (0..dims)
            .map(|_| {
                if rng.gen::<f64>() < 0.5 {
                    0.0
                } else {
                    rng.gen_range(-1.0f64..1.0)
                }
            })
            .collect();
        let label = if xs.iter().sum::<f64>() > 0.0 {
            1.0
        } else {
            -1.0
        };
        let (idx, val): (Vec<u32>, Vec<f64>) = xs
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, v)| (i as u32, *v))
            .unzip();
        dense_pts.push((label, xs));
        sparse_pts.push_sparse(label, &idx, &val).unwrap();
    }
    let cluster = ClusterSpec::paper_testbed();
    let dense_ds = PartitionedDataset::from_columns(
        "dense",
        &dense_pts.into_iter().collect(),
        PartitionScheme::RoundRobin,
        &cluster,
    )
    .unwrap();
    let sparse_ds = PartitionedDataset::from_columns(
        "sparse",
        &sparse_pts.finish_with_dims(dims),
        PartitionScheme::RoundRobin,
        &cluster,
    )
    .unwrap();

    let sampling = [
        SamplingMethod::Bernoulli,
        SamplingMethod::RandomPartition,
        SamplingMethod::ShuffledPartition,
    ][sampler_ix];
    let plan = GdPlan::mgd(16, TransformPolicy::Eager, sampling).unwrap();
    let mut params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
    params.seed = seed ^ 0xC0FFEE;
    params.tolerance = 0.0;
    params.max_iter = iters;

    let mut env_d = SimEnv::new(cluster.clone());
    let d = execute_plan(&plan, &dense_ds, &params, &mut env_d).unwrap();
    let mut env_s = SimEnv::new(cluster);
    let s = execute_plan(&plan, &sparse_ds, &params, &mut env_s).unwrap();
    for (a, b) in d.weights.as_slice().iter().zip(s.weights.as_slice()) {
        let scale = a.abs().max(b.abs()).max(1.0);
        assert!(
            (a - b).abs() <= 1e-9 * scale,
            "dense {a} vs csr {b} diverged beyond rounding noise"
        );
    }
    assert_eq!(d.iterations, s.iterations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dense_slab_and_csr_train_equivalent_weights(
        seed in 0u64..500,
        sampler_ix in 0usize..3,
        iters in 5u64..40,
    ) {
        check_dense_slab_vs_csr(seed, sampler_ix, iters);
    }
}

/// Restores the default SIMD dispatch even if an assertion unwinds, so a
/// failure in one combination cannot leak forced-scalar mode into the rest
/// of the test binary.
struct ScalarGuard;

impl ScalarGuard {
    fn engage() -> Self {
        ml4all_linalg::simd::force_scalar(true);
        ScalarGuard
    }
}

impl Drop for ScalarGuard {
    fn drop(&mut self) {
        ml4all_linalg::simd::force_scalar(false);
    }
}

/// Two small datasets with the same rows in dense and CSR storage.
fn paired_datasets(n: usize, dims: usize, seed: u64) -> (PartitionedDataset, PartitionedDataset) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dense_pts = Vec::with_capacity(n);
    let mut sparse_pts = ColumnarBuilder::new();
    for _ in 0..n {
        let xs: Vec<f64> = (0..dims)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(-1.0..1.0)
                } else {
                    0.0
                }
            })
            .collect();
        let label = if xs.iter().sum::<f64>() > 0.0 {
            1.0
        } else {
            -1.0
        };
        let (idx, val): (Vec<u32>, Vec<f64>) = xs
            .iter()
            .enumerate()
            .filter(|(_, v)| **v != 0.0)
            .map(|(i, v)| (i as u32, *v))
            .unzip();
        dense_pts.push((label, xs));
        sparse_pts.push_sparse(label, &idx, &val).unwrap();
    }
    let cluster = ClusterSpec::paper_testbed();
    let dense = PartitionedDataset::from_columns(
        "d",
        &dense_pts.into_iter().collect(),
        PartitionScheme::RoundRobin,
        &cluster,
    )
    .unwrap();
    let sparse = PartitionedDataset::from_columns(
        "s",
        &sparse_pts.finish_with_dims(dims),
        PartitionScheme::RoundRobin,
        &cluster,
    )
    .unwrap();
    (dense, sparse)
}

/// The SIMD kernels use fixed, ISA-independent reduction orders, so a model
/// trained with the active ISA (AVX2 here, NEON on aarch64) must reproduce
/// the forced-scalar weights **bit for bit** — across storage layouts,
/// samplers, and worker counts. This is the contract that makes
/// `ML4ALL_FORCE_SCALAR=1` a valid debugging switch: it changes speed,
/// never results.
#[test]
fn simd_and_forced_scalar_weights_are_bit_identical() {
    use ml4all_dataflow::Runtime;
    use std::sync::Arc;

    let (dense, sparse) = paired_datasets(400, 12, 11);
    let cluster = ClusterSpec::paper_testbed();
    let samplers = [
        SamplingMethod::Bernoulli,
        SamplingMethod::RandomPartition,
        SamplingMethod::ShuffledPartition,
    ];
    for data in [&dense, &sparse] {
        for sampling in samplers {
            for workers in [1usize, 2, 8] {
                let plan = GdPlan::mgd(24, TransformPolicy::Eager, sampling).unwrap();
                let mut params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
                params.seed = 7;
                params.tolerance = 0.0;
                params.max_iter = 25;

                let mut env =
                    SimEnv::with_runtime(cluster.clone(), Arc::new(Runtime::new(workers)));
                let vector = execute_plan(&plan, data, &params, &mut env).unwrap();

                let scalar = {
                    let _guard = ScalarGuard::engage();
                    let mut env =
                        SimEnv::with_runtime(cluster.clone(), Arc::new(Runtime::new(workers)));
                    execute_plan(&plan, data, &params, &mut env).unwrap()
                };

                assert_eq!(
                    vector.weights,
                    scalar.weights,
                    "simd/scalar divergence: layout={} sampler={sampling:?} workers={workers}",
                    data.descriptor().name
                );
                assert_eq!(vector.iterations, scalar.iterations);
            }
        }
    }
}

/// Training on a memory-mapped slab file must be indistinguishable from
/// training on the same rows held in RAM: identical fingerprint (so the
/// plan cache may share entries) and bit-identical weights.
#[test]
fn mapped_slab_training_matches_in_memory() {
    use ml4all_dataflow::{open_slab, write_slab, ColumnarBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(23);
    let mut builder = ColumnarBuilder::new();
    let dims = 8;
    let mut row = vec![0.0f64; dims];
    for _ in 0..600 {
        for v in row.iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let label = if row.iter().sum::<f64>() > 0.0 {
            1.0
        } else {
            -1.0
        };
        builder.push_dense(label, &row);
    }
    let rows = builder.finish();

    let path = std::env::temp_dir().join(format!("ml4all-prop-slab-{}.slab", std::process::id()));
    write_slab(&path, &rows).unwrap();
    let mapped = open_slab(&path).unwrap();
    // The mapping keeps its pages alive after the unlink (unix) or owns a
    // heap copy (elsewhere), so the file itself can go away immediately.
    let _ = std::fs::remove_file(&path);
    assert!(mapped.is_mapped() || cfg!(not(unix)));

    let cluster = ClusterSpec::paper_testbed();
    let in_mem =
        PartitionedDataset::from_columns("slab-prop", &rows, PartitionScheme::Contiguous, &cluster)
            .unwrap();
    let on_disk = PartitionedDataset::from_columns(
        "slab-prop",
        &mapped,
        PartitionScheme::Contiguous,
        &cluster,
    )
    .unwrap();
    assert_eq!(in_mem.fingerprint(), on_disk.fingerprint());

    for sampling in [SamplingMethod::Bernoulli, SamplingMethod::ShuffledPartition] {
        let plan = GdPlan::mgd(32, TransformPolicy::Eager, sampling).unwrap();
        let mut params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
        params.seed = 41;
        params.tolerance = 0.0;
        params.max_iter = 30;

        let mut env_m = SimEnv::new(cluster.clone());
        let mem = execute_plan(&plan, &in_mem, &params, &mut env_m).unwrap();
        let mut env_d = SimEnv::new(cluster.clone());
        let disk = execute_plan(&plan, &on_disk, &params, &mut env_d).unwrap();

        assert_eq!(mem.weights, disk.weights, "sampler {sampling:?}");
        assert_eq!(mem.iterations, disk.iterations);
        assert_eq!(mem.sim_time_s, disk.sim_time_s);
    }
}
