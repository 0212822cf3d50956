//! MLlib baseline (Section 8.1): Spark MLlib 1.6.2's `GradientDescent`
//! rebuilt over the substrate.
//!
//! Modelled traits, each credited by the paper for MLlib's behaviour:
//!
//! - **Eager transformation only** — the input RDD is parsed up front.
//! - **Fraction-based Bernoulli sampling**: `miniBatchFraction = b/n`
//!   scans the *entire* dataset every iteration. For SGD the fraction is
//!   inflated ("we set the fraction slightly higher to reduce the chances
//!   that the sample will be empty", Section 8.4.1).
//! - **`treeAggregate`** two-level aggregation: extra stages and network
//!   versus ML4all's `mapPartitions`+`reduce` ("we used mapPartitions and
//!   reduce instead of treeAggregate, which resulted in better data
//!   locality").
//! - A **Spark job per iteration**, small data or not.
//! - A JVM/closure **CPU factor** on the gradient sweep.
//! - Cache-aware IO: datasets above cluster cache pay disk every iteration
//!   (the svm3 behaviour: "MLlib incurred disk IOs in each iteration").

use ml4all_dataflow::{PartitionedDataset, SimEnv, StorageMedium};
use ml4all_gd::{GdVariant, TrainParams, TrainResult};

use crate::{descend, BaselineError, Draw};
#[cfg(test)]
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The MLlib-like runner.
#[derive(Debug, Clone)]
pub struct MllibRunner {
    /// CPU multiplier on the distributed gradient sweep (closure
    /// serialization, Breeze boxing) relative to the hand-tuned substrate.
    pub cpu_factor: f64,
    /// `treeAggregate` depth (2 in MLlib's default).
    pub tree_depth: u64,
    /// Fraction inflation for SGD (expected sample ≈ this many units).
    pub sgd_fraction_inflation: f64,
}

impl Default for MllibRunner {
    fn default() -> Self {
        Self {
            cpu_factor: 2.0,
            tree_depth: 2,
            sgd_fraction_inflation: 5.0,
        }
    }
}

impl MllibRunner {
    /// Run a GD variant to convergence with MLlib's execution profile.
    pub fn run(
        &self,
        variant: GdVariant,
        data: &PartitionedDataset,
        params: &TrainParams,
        env: &mut SimEnv,
    ) -> Result<TrainResult, BaselineError> {
        let desc = data.descriptor().clone();
        let dims = desc.dims;
        let avg_nnz = desc.avg_nnz();

        env.charge_job_init();
        // Eager parse of the input RDD (textFile → LabeledPoint), cached.
        env.charge_full_scan_io(&desc, StorageMedium::Disk);
        env.charge_wave_cpu(&desc, env.spec.cpu_transform_s(avg_nnz) * self.cpu_factor);

        // `miniBatchFraction`: the expected sample over `n` units, capped
        // at the whole dataset.
        let units = match variant {
            GdVariant::Batch => None,
            GdVariant::Stochastic => Some(self.sgd_fraction_inflation),
            GdVariant::MiniBatch { batch } => Some(batch as f64),
        };
        let fraction_of = |n: f64| units.map_or(1.0, |u| (u / n).min(1.0));
        let fraction = fraction_of(desc.n as f64);
        let draw = if fraction >= 1.0 {
            Draw::All
        } else {
            Draw::Bernoulli(fraction_of(data.physical_n() as f64))
        };

        descend(data, params, env, draw, 0x4D4C_4C49, |env| {
            // One Spark job per iteration + the extra treeAggregate level.
            env.charge_iteration_overhead(true);
            env.ledger
                .charge_overhead(env.spec.stage_launch_s * (self.tree_depth - 1) as f64);

            // The sampled gradient sweep: a full scan with per-unit
            // Bernoulli tests, gradients only on included units.
            env.charge_full_scan_io(&desc, StorageMedium::Auto);
            env.charge_wave_cpu(&desc, env.spec.cpu_sample_test_s());
            env.charge_wave_cpu(
                &desc,
                env.spec.cpu_gradient_s(avg_nnz) * fraction * self.cpu_factor,
            );
            // treeAggregate: every partition ships a d-vector, then the
            // intermediate level ships again.
            let partials = desc.partitions(&env.spec) * self.tree_depth;
            env.charge_network(partials * dims as u64 * 8);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4all_dataflow::{ClusterSpec, PartitionScheme};
    use ml4all_gd::{execute_plan, GdPlan, GradientKind};

    fn dataset(n: usize, logical_bytes: u64) -> PartitionedDataset {
        let mut rng = StdRng::seed_from_u64(9);
        let points = (0..n)
            .map(|_| {
                let x0: f64 = rng.gen_range(-1.0..1.0);
                let x1: f64 = rng.gen_range(-1.0..1.0);
                let label = if x0 - x1 > 0.0 { 1.0 } else { -1.0 };
                (label, [x0, x1, 1.0])
            })
            .collect();
        let desc =
            ml4all_dataflow::DatasetDescriptor::new("mllib-test", n as u64, 3, logical_bytes, 1.0);
        PartitionedDataset::with_descriptor(
            desc,
            &points,
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap()
    }

    #[test]
    fn mllib_bgd_trains_a_model() {
        let data = dataset(2000, 1024 * 1024);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.max_iter = 200;
        params.tolerance = 0.01;
        let mut env = SimEnv::new(ClusterSpec::paper_testbed());
        let result = MllibRunner::default()
            .run(GdVariant::Batch, &data, &params, &mut env)
            .unwrap();
        assert!(result.iterations > 1);
        // The model separates reasonably.
        let correct = data
            .iter_views()
            .filter(|v| (v.features.dot(result.weights.as_slice()) >= 0.0) == (v.label > 0.0))
            .count();
        assert!(correct as f64 / data.physical_n() as f64 > 0.8);
    }

    #[test]
    fn mllib_is_slower_than_ml4all_best_plan_on_large_data() {
        // The Figure 9(c) shape: MLlib's per-iteration full scans vs
        // ML4all's shuffled-partition SGD.
        let data = dataset(5000, 10 * 1024 * 1024 * 1024);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.max_iter = 50;
        params.tolerance = 0.0;

        let mut env_mllib = SimEnv::new(ClusterSpec::paper_testbed());
        let mllib = MllibRunner::default()
            .run(GdVariant::Stochastic, &data, &params, &mut env_mllib)
            .unwrap();

        let plan = GdPlan::sgd(
            ml4all_gd::TransformPolicy::Lazy,
            ml4all_dataflow::SamplingMethod::ShuffledPartition,
        )
        .unwrap();
        let mut env_ours = SimEnv::new(ClusterSpec::paper_testbed());
        let ours = execute_plan(&plan, &data, &params, &mut env_ours).unwrap();

        // Cached 10 GB: MLlib's per-iteration scans cost ~2× end to end.
        assert!(
            mllib.sim_time_s > 2.0 * ours.sim_time_s,
            "mllib {} vs ml4all {}",
            mllib.sim_time_s,
            ours.sim_time_s
        );
    }

    #[test]
    fn mllib_gap_explodes_when_data_exceeds_cache() {
        // The Figure 10(a) tail: at 160 GB (svm3-scale) MLlib's Bernoulli
        // scans hit disk every iteration while shuffled-partition SGD
        // reads a partition's worth.
        let data = dataset(5000, 160 * 1024 * 1024 * 1024);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.max_iter = 10;
        params.tolerance = 0.0;

        let mut env_mllib = SimEnv::new(ClusterSpec::paper_testbed());
        let mllib = MllibRunner::default()
            .run(GdVariant::Stochastic, &data, &params, &mut env_mllib)
            .unwrap();

        let plan = GdPlan::sgd(
            ml4all_gd::TransformPolicy::Lazy,
            ml4all_dataflow::SamplingMethod::ShuffledPartition,
        )
        .unwrap();
        let mut env_ours = SimEnv::new(ClusterSpec::paper_testbed());
        let ours = execute_plan(&plan, &data, &params, &mut env_ours).unwrap();

        assert!(
            mllib.sim_time_s > 10.0 * ours.sim_time_s,
            "mllib {} vs ml4all {} — expected an order of magnitude",
            mllib.sim_time_s,
            ours.sim_time_s
        );
    }

    #[test]
    fn sgd_fraction_inflation_avoids_empty_samples_mostly() {
        let data = dataset(5000, 1024 * 1024);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.max_iter = 30;
        params.tolerance = 0.0;
        let mut env = SimEnv::new(ClusterSpec::paper_testbed());
        let result = MllibRunner::default()
            .run(GdVariant::Stochastic, &data, &params, &mut env)
            .unwrap();
        assert_eq!(result.iterations, 30);
    }

    #[test]
    fn mllib_pays_disk_io_when_dataset_exceeds_cache() {
        let spec = ClusterSpec::paper_testbed();
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.max_iter = 5;
        params.tolerance = 0.0;

        let fits = dataset(2000, spec.cache_bytes / 2);
        let mut env_fits = SimEnv::new(spec.clone());
        let r_fits = MllibRunner::default()
            .run(
                GdVariant::MiniBatch { batch: 100 },
                &fits,
                &params,
                &mut env_fits,
            )
            .unwrap();

        let spills = dataset(2000, spec.cache_bytes * 2);
        let mut env_spills = SimEnv::new(spec);
        let r_spills = MllibRunner::default()
            .run(
                GdVariant::MiniBatch { batch: 100 },
                &spills,
                &params,
                &mut env_spills,
            )
            .unwrap();

        // Per logical byte, the spilled dataset costs far more IO.
        let per_byte_fits = r_fits.cost.io_s / fits.descriptor().bytes as f64;
        let per_byte_spills = r_spills.cost.io_s / spills.descriptor().bytes as f64;
        assert!(per_byte_spills > 2.0 * per_byte_fits);
    }
}
