//! SystemML baseline (Section 8.1): SystemML 0.10 running hand-scripted
//! BGD/MGD/SGD in its R-like DML, hybrid execution mode.
//!
//! Modelled traits:
//!
//! - **Binary-block conversion**: SystemML ingests its own binary matrix
//!   format; the paper charges this conversion to SystemML's totals
//!   (Figure 9 shows the breakdown) — "the cost of converting data to its
//!   binary representation is higher than its training time itself" for
//!   small data.
//! - **Hybrid execution**: when the binary matrix fits the driver it runs
//!   locally (fast: binary format, no per-iteration Spark jobs); otherwise
//!   it runs distributed with heavy per-iteration overheads (instruction
//!   generation, buffer-pool exchange).
//! - **Dense out-of-memory failure**: "for all the dense synthetic
//!   datasets SystemML failed with out of memory exceptions" — modelled as
//!   a dense-block materialization limit.

use ml4all_dataflow::{PartitionedDataset, SimEnv, StorageMedium};
use ml4all_gd::{GdVariant, TrainParams, TrainResult};

use crate::{descend, BaselineError, Draw};
#[cfg(test)]
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The SystemML-like runner.
#[derive(Debug, Clone)]
pub struct SystemmlRunner {
    /// Binary matrices at or below this size run locally at the driver.
    pub local_threshold_bytes: u64,
    /// Dense matrices above this size fail with OOM during conversion.
    pub dense_oom_limit_bytes: u64,
    /// CPU factor for local execution (binary format is faster than the
    /// generic row path).
    pub local_cpu_factor: f64,
    /// CPU factor for distributed execution.
    pub dist_cpu_factor: f64,
    /// Fixed per-iteration overhead in distributed mode (DML instruction
    /// generation, buffer-pool exchange).
    pub dist_iter_overhead_s: f64,
}

impl Default for SystemmlRunner {
    fn default() -> Self {
        Self {
            local_threshold_bytes: 1024 * 1024 * 1024,
            dense_oom_limit_bytes: 4 * 1024 * 1024 * 1024,
            local_cpu_factor: 0.6,
            dist_cpu_factor: 3.0,
            dist_iter_overhead_s: 2.0,
        }
    }
}

/// Outcome of a SystemML run, separating the conversion pass the paper
/// plots as a stacked bar.
#[derive(Debug, Clone)]
pub struct SystemmlOutcome {
    /// Training result (post-conversion).
    pub result: TrainResult,
    /// Seconds spent converting the input to binary blocks.
    pub conversion_s: f64,
}

impl SystemmlRunner {
    /// Size of the dataset in SystemML's binary representation.
    pub fn binary_bytes(&self, desc: &ml4all_dataflow::DatasetDescriptor) -> u64 {
        if desc.density >= 0.5 {
            // Dense block: n × d × 8.
            desc.n * desc.dims as u64 * 8
        } else {
            // Sparse block: ~12 bytes per non-zero.
            (desc.n as f64 * desc.dims as f64 * desc.density * 12.0) as u64
        }
    }

    /// Whether this dataset runs locally after conversion.
    pub fn runs_locally(&self, desc: &ml4all_dataflow::DatasetDescriptor) -> bool {
        self.binary_bytes(desc) <= self.local_threshold_bytes
    }

    /// Run a GD variant with SystemML's execution profile.
    pub fn run(
        &self,
        variant: GdVariant,
        data: &PartitionedDataset,
        params: &TrainParams,
        env: &mut SimEnv,
    ) -> Result<SystemmlOutcome, BaselineError> {
        let desc = data.descriptor().clone();
        let dims = desc.dims;
        let avg_nnz = desc.avg_nnz();
        let binary = self.binary_bytes(&desc);
        if desc.density >= 0.5 && binary > self.dense_oom_limit_bytes {
            return Err(BaselineError::OutOfMemory {
                system: "systemml",
                required_bytes: binary,
                limit_bytes: self.dense_oom_limit_bytes,
            });
        }

        // ---- Conversion pass: text scan + binary write + block packing.
        let before_conversion = env.snapshot();
        env.charge_job_init();
        env.charge_full_scan_io(&desc, StorageMedium::Disk);
        env.charge_wave_cpu(&desc, env.spec.cpu_transform_s(avg_nnz) * 1.5);
        let binary_desc = ml4all_dataflow::DatasetDescriptor::new(
            format!("{}-binary", desc.name),
            desc.n,
            desc.dims,
            binary.max(1),
            desc.density,
        );
        env.charge_full_scan_io(&binary_desc, StorageMedium::Disk); // write-out
        let conversion_s = env.ledger.since(&before_conversion).total_s();

        let local = self.runs_locally(&desc);
        let m = variant.sample_size(desc.n);
        let draw = Draw::with_replacement(variant, data.physical_n());

        let result = descend(data, params, env, draw, 0x5953_4D4C, |env| {
            match variant {
                GdVariant::Batch => {
                    if local {
                        // Single-node pass over the binary matrix.
                        env.charge_sequential_read(binary, binary, StorageMedium::Auto);
                        env.charge_serial_cpu(
                            desc.n,
                            env.spec.cpu_gradient_s(avg_nnz) * self.local_cpu_factor,
                        );
                    } else {
                        env.ledger.charge_overhead(self.dist_iter_overhead_s);
                        env.charge_iteration_overhead(true);
                        env.charge_full_scan_io(&binary_desc, StorageMedium::Auto);
                        env.charge_wave_cpu(
                            &binary_desc,
                            env.spec.cpu_gradient_s(avg_nnz) * self.dist_cpu_factor,
                        );
                        let partials = binary_desc.partitions(&env.spec);
                        env.charge_network(partials * dims as u64 * 8 * 2);
                    }
                }
                GdVariant::Stochastic | GdVariant::MiniBatch { .. } => {
                    if local {
                        env.charge_serial_cpu(
                            m,
                            env.spec.cpu_gradient_s(avg_nnz) * self.local_cpu_factor,
                        );
                    } else {
                        // Distributed row sampling materializes a sub-matrix.
                        env.ledger.charge_overhead(self.dist_iter_overhead_s);
                        env.charge_iteration_overhead(true);
                        env.charge_full_scan_io(&binary_desc, StorageMedium::Auto);
                        env.charge_serial_cpu(
                            m,
                            env.spec.cpu_gradient_s(avg_nnz) * self.dist_cpu_factor,
                        );
                        env.charge_network(m * (dims as u64) * 8);
                    }
                }
            }
        })?;
        Ok(SystemmlOutcome {
            result,
            conversion_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4all_dataflow::{ClusterSpec, ColumnStore, DatasetDescriptor, PartitionScheme};
    use ml4all_gd::GradientKind;

    fn rows(n: usize, dims: usize) -> ColumnStore {
        let mut rng = StdRng::seed_from_u64(4);
        (0..n)
            .map(|_| {
                let xs: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let label = if xs[0] > 0.0 { 1.0 } else { -1.0 };
                (label, xs)
            })
            .collect()
    }

    fn dataset(n: usize, dims: usize, logical_bytes: u64, density: f64) -> PartitionedDataset {
        let desc = DatasetDescriptor::new("sysml-test", n as u64, dims, logical_bytes, density);
        PartitionedDataset::with_descriptor(
            desc,
            &rows(n, dims),
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap()
    }

    #[test]
    fn dense_synthetic_datasets_oom() {
        // svm1-like: 5.5 M × 100 dense → 4.4 GB binary > 4 GB limit.
        let data = dataset(1000, 100, 10 * 1024 * 1024 * 1024, 1.0);
        let mut big = data.descriptor().clone();
        big.n = 5_516_800;
        let runner = SystemmlRunner::default();
        assert!(runner.binary_bytes(&big) > runner.dense_oom_limit_bytes);

        let desc = DatasetDescriptor::new("svm1", 5_516_800, 100, 10 * 1024 * 1024 * 1024, 1.0);
        let data = PartitionedDataset::with_descriptor(
            desc,
            &rows(1000, 100),
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap();
        let params = TrainParams::paper_defaults(GradientKind::Svm);
        let mut env = SimEnv::new(ClusterSpec::paper_testbed());
        let err = runner
            .run(GdVariant::Batch, &data, &params, &mut env)
            .unwrap_err();
        assert!(matches!(err, BaselineError::OutOfMemory { .. }));
    }

    #[test]
    fn sparse_high_dimensional_data_does_not_oom() {
        // rcv1-like: sparse representation keeps the binary small.
        let runner = SystemmlRunner::default();
        let rcv1 = DatasetDescriptor::new(
            "rcv1",
            677_399,
            47_236,
            (1.2 * 1024.0 * 1024.0 * 1024.0) as u64,
            1.5e-3,
        );
        assert!(runner.binary_bytes(&rcv1) < runner.dense_oom_limit_bytes);
    }

    #[test]
    fn small_data_runs_locally_with_conversion_overhead() {
        let data = dataset(2000, 10, 7 * 1024 * 1024, 1.0);
        let runner = SystemmlRunner::default();
        assert!(runner.runs_locally(data.descriptor()));
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.max_iter = 50;
        params.tolerance = 0.0;
        let mut env = SimEnv::new(ClusterSpec::paper_testbed());
        let outcome = runner
            .run(GdVariant::Batch, &data, &params, &mut env)
            .unwrap();
        assert!(outcome.conversion_s > 0.0);
        assert_eq!(outcome.result.iterations, 50);
    }

    #[test]
    fn distributed_mode_is_much_slower_per_iteration_than_local() {
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.max_iter = 10;
        params.tolerance = 0.0;
        let runner = SystemmlRunner::default();

        let local = dataset(1000, 10, 50 * 1024 * 1024, 1.0);
        let mut env_local = SimEnv::new(ClusterSpec::paper_testbed());
        let r_local = runner
            .run(GdVariant::Batch, &local, &params, &mut env_local)
            .unwrap();

        // higgs-like: 11M × 28 dense ≈ 2.5 GB binary → distributed.
        // Physical rows must match the declared 28 dims for the math.
        let desc = DatasetDescriptor::new(
            "higgs",
            11_000_000,
            28,
            (7.4 * 1024.0 * 1024.0 * 1024.0) as u64,
            0.92,
        );
        assert!(!runner.runs_locally(&desc));
        let big = PartitionedDataset::with_descriptor(
            desc,
            &rows(1000, 28),
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap();
        let mut env_big = SimEnv::new(ClusterSpec::paper_testbed());
        let r_big = runner
            .run(GdVariant::Batch, &big, &params, &mut env_big)
            .unwrap();

        let local_iter = (r_local.result.sim_time_s - r_local.conversion_s) / 10.0;
        let big_iter = (r_big.result.sim_time_s - r_big.conversion_s) / 10.0;
        assert!(
            big_iter > 20.0 * local_iter,
            "distributed {big_iter} vs local {local_iter}"
        );
    }
}
