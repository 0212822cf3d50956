//! Per-operator cost estimation (Section 7.1, Equations 3–6).
//!
//! Each helper builds a scratch [`SimEnv`], charges the operations the
//! operator would perform, and reads off the simulated seconds. `Transform`,
//! `Compute`, `Sample`, `Converge` and `Loop` involve IO and CPU only;
//! `Update` is the only operator with a network term (the aggregated
//! compute outputs travel to a single node); `Stage` is CPU-only.
//!
//! Every operator is costed twice over: the `*_s` methods return the total
//! simulated seconds (the quantity Equations 7–9 compose), and the `*_cost`
//! methods return the full per-category [`CostBreakdown`] the charge left
//! in the scratch ledger — the vector online calibration rescales. The two
//! views are the same ledger read (`elapsed_s()` *is* the snapshot total),
//! so the scalar path is bit-identical with calibration compiled in or out.

use ml4all_dataflow::{
    ClusterSpec, CostBreakdown, DatasetDescriptor, SamplingMethod, SimEnv, StorageMedium,
};

/// Cost calculator for one dataset on one cluster.
#[derive(Debug, Clone)]
pub struct OperatorCosts<'a> {
    spec: &'a ClusterSpec,
    desc: &'a DatasetDescriptor,
}

impl<'a> OperatorCosts<'a> {
    /// New calculator.
    pub fn new(spec: &'a ClusterSpec, desc: &'a DatasetDescriptor) -> Self {
        Self { spec, desc }
    }

    fn scratch(&self) -> SimEnv {
        SimEnv::new(self.spec.clone())
    }

    /// The dataset descriptor this calculator costs against.
    pub fn descriptor(&self) -> &DatasetDescriptor {
        self.desc
    }

    /// `true` when iterations over this dataset run distributed.
    pub fn distributed(&self) -> bool {
        !self.desc.fits_one_partition(self.spec)
    }

    /// One-time job initialization.
    pub fn job_init_s(&self) -> f64 {
        self.spec.job_init_s
    }

    /// One-time job initialization as a cost vector (pure overhead).
    pub fn job_init_cost(&self) -> CostBreakdown {
        CostBreakdown {
            overhead_s: self.spec.job_init_s,
            ..CostBreakdown::default()
        }
    }

    /// `Stage` (`cS`): CPU-only parameter initialization.
    pub fn stage_cost(&self) -> CostBreakdown {
        let mut env = self.scratch();
        env.charge_serial_cpu(1, env.spec.cpu_stage_s(self.desc.dims));
        env.ledger.snapshot()
    }

    /// `Stage` total seconds.
    pub fn stage_s(&self) -> f64 {
        self.stage_cost().total_s()
    }

    /// `Transform` over the full dataset (`cT(D)`): first read comes from
    /// disk, plus wave-parallel parse CPU.
    pub fn transform_full_cost(&self) -> CostBreakdown {
        let mut env = self.scratch();
        env.charge_full_scan_io(self.desc, StorageMedium::Disk);
        env.charge_wave_cpu(self.desc, env.spec.cpu_transform_s(self.desc.avg_nnz()));
        env.ledger.snapshot()
    }

    /// `Transform` over the full dataset, total seconds.
    pub fn transform_full_s(&self) -> f64 {
        self.transform_full_cost().total_s()
    }

    /// `Transform` over `m` sampled units (`cT(mᵢ)`), driver-side.
    pub fn transform_units_cost(&self, m: u64) -> CostBreakdown {
        let mut env = self.scratch();
        env.charge_serial_cpu(m, env.spec.cpu_transform_s(self.desc.avg_nnz()));
        env.ledger.snapshot()
    }

    /// `Transform` over `m` sampled units, total seconds.
    pub fn transform_units_s(&self, m: u64) -> f64 {
        self.transform_units_cost(m).total_s()
    }

    /// `Compute` over the full dataset (`cC(D)`): a cache-aware scan plus
    /// wave-parallel gradient CPU.
    pub fn compute_full_cost(&self) -> CostBreakdown {
        let mut env = self.scratch();
        env.charge_full_scan_io(self.desc, StorageMedium::Auto);
        env.charge_wave_cpu(self.desc, env.spec.cpu_gradient_s(self.desc.avg_nnz()));
        env.ledger.snapshot()
    }

    /// `Compute` over the full dataset, total seconds.
    pub fn compute_full_s(&self) -> f64 {
        self.compute_full_cost().total_s()
    }

    /// `Compute` over `m` sampled units (`cC(mᵢ)`): the sample is shipped
    /// to the driver (hybrid execution) and processed serially.
    pub fn compute_units_cost(&self, m: u64) -> CostBreakdown {
        let mut env = self.scratch();
        if self.distributed() {
            env.charge_network(self.desc.unit_bytes().ceil() as u64 * m);
        }
        env.charge_serial_cpu(m, env.spec.cpu_gradient_s(self.desc.avg_nnz()));
        env.ledger.snapshot()
    }

    /// `Compute` over `m` sampled units, total seconds.
    pub fn compute_units_s(&self, m: u64) -> f64 {
        self.compute_units_cost(m).total_s()
    }

    /// `Update` (`cU`): the only operator with a network term — every
    /// active partition ships its partial aggregate (a `d`-vector) to one
    /// node, which then applies the step.
    pub fn update_cost(&self, batch_aggregation: bool) -> CostBreakdown {
        let mut env = self.scratch();
        if batch_aggregation && self.distributed() {
            let active = self.desc.partitions(self.spec);
            env.charge_network(active * self.desc.dims as u64 * 8);
        }
        env.charge_serial_cpu(1, env.spec.cpu_update_s(self.desc.dims));
        env.ledger.snapshot()
    }

    /// `Update` total seconds.
    pub fn update_s(&self, batch_aggregation: bool) -> f64 {
        self.update_cost(batch_aggregation).total_s()
    }

    /// `Converge` + `Loop` (`cCV + cL`): single-node model-vector pass.
    pub fn converge_loop_cost(&self) -> CostBreakdown {
        let mut env = self.scratch();
        env.charge_serial_cpu(1, env.spec.cpu_converge_s(self.desc.dims));
        env.ledger.snapshot()
    }

    /// `Converge` + `Loop` total seconds.
    pub fn converge_loop_s(&self) -> f64 {
        self.converge_loop_cost().total_s()
    }

    /// `Sample` (`cSP`): expected per-iteration cost of drawing `m` units
    /// with the given strategy (Figure 4 semantics).
    pub fn sample_cost(&self, method: SamplingMethod, m: u64) -> CostBreakdown {
        let mut env = self.scratch();
        match method {
            SamplingMethod::Bernoulli => {
                // Scan everything, test every unit.
                env.charge_full_scan_io(self.desc, StorageMedium::Auto);
                env.charge_wave_cpu(self.desc, env.spec.cpu_sample_test_s());
            }
            SamplingMethod::RandomPartition => {
                let unit_read_s = env.random_unit_read_s(self.desc, StorageMedium::Auto);
                for _ in 0..m {
                    env.ledger.charge_io(unit_read_s);
                }
                env.charge_serial_cpu(m, env.spec.cpu_sample_test_s());
            }
            SamplingMethod::ShuffledPartition => {
                // One partition shuffle (seek + sequential read +
                // Fisher–Yates over its k units) serves k sequential
                // draws; amortize it as m/k per iteration — identical to
                // the charge the sampler itself applies.
                let k = self.desc.units_per_partition(self.spec).max(1);
                let mut shuffle_env = self.scratch();
                shuffle_env.charge_seek(self.desc.bytes, StorageMedium::Auto);
                let partition_bytes = self
                    .desc
                    .bytes
                    .div_ceil(self.desc.partitions(self.spec))
                    .min(self.spec.partition_bytes);
                shuffle_env.charge_sequential_read(
                    partition_bytes,
                    self.desc.bytes,
                    StorageMedium::Auto,
                );
                shuffle_env.charge_serial_cpu(k, shuffle_env.spec.cpu_shuffle_unit_s());
                env.ledger
                    .charge_io(shuffle_env.elapsed_s() * m as f64 / k as f64);

                let unit_bytes = self.desc.unit_bytes().ceil() as u64;
                env.charge_sequential_read(unit_bytes * m, self.desc.bytes, StorageMedium::Auto);
                env.charge_serial_cpu(m, env.spec.cpu_sample_test_s());
            }
        }
        env.ledger.snapshot()
    }

    /// `Sample` total seconds.
    pub fn sample_s(&self, method: SamplingMethod, m: u64) -> f64 {
        self.sample_cost(method, m).total_s()
    }

    /// Per-iteration scheduling overhead: a stage launch on distributed
    /// data, the driver loop otherwise.
    pub fn iteration_overhead_cost(&self) -> CostBreakdown {
        let mut env = self.scratch();
        env.charge_iteration_overhead(self.distributed());
        env.ledger.snapshot()
    }

    /// Per-iteration scheduling overhead, total seconds.
    pub fn iteration_overhead_s(&self) -> f64 {
        self.iteration_overhead_cost().total_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::paper_testbed()
    }

    fn small() -> DatasetDescriptor {
        DatasetDescriptor::new("small", 100_000, 123, 7 * 1024 * 1024, 0.11)
    }

    fn large() -> DatasetDescriptor {
        DatasetDescriptor::new("large", 5_516_800, 100, 10 * 1024 * 1024 * 1024, 1.0)
    }

    #[test]
    fn transform_full_scales_with_dataset() {
        let s = spec();
        let (sd, ld) = (small(), large());
        let small_cost = OperatorCosts::new(&s, &sd).transform_full_s();
        let large_cost = OperatorCosts::new(&s, &ld).transform_full_s();
        assert!(large_cost > 10.0 * small_cost);
    }

    #[test]
    fn compute_units_is_independent_of_dataset_size() {
        // The SGD promise: per-iteration compute cost is O(1) in n.
        let s = spec();
        let (sd, ld) = (small(), large());
        let small_cost = OperatorCosts::new(&s, &sd).compute_units_s(1);
        let large_cost = OperatorCosts::new(&s, &ld).compute_units_s(1);
        // Not exactly equal (unit bytes differ → shipping cost) but within
        // two orders of magnitude of each other, vs ~1000× for full scans.
        assert!(large_cost < small_cost * 100.0);
    }

    #[test]
    fn breakdown_totals_match_the_scalar_view_bitwise() {
        let s = spec();
        let d = large();
        let costs = OperatorCosts::new(&s, &d);
        assert_eq!(
            costs.compute_full_cost().total_s().to_bits(),
            costs.compute_full_s().to_bits()
        );
        assert_eq!(
            costs
                .sample_cost(SamplingMethod::Bernoulli, 10)
                .total_s()
                .to_bits(),
            costs.sample_s(SamplingMethod::Bernoulli, 10).to_bits()
        );
        assert_eq!(
            costs.update_cost(true).total_s().to_bits(),
            costs.update_s(true).to_bits()
        );
        // The update network term lands in the net category.
        assert!(costs.update_cost(true).net_s > 0.0);
        assert_eq!(costs.update_cost(false).net_s, 0.0);
        // Job init is pure overhead.
        assert_eq!(costs.job_init_cost().total_s(), costs.job_init_s());
        assert_eq!(costs.job_init_cost().overhead_s, costs.job_init_s());
    }

    #[test]
    fn bernoulli_sampling_costs_like_a_scan() {
        let s = spec();
        let d = large();
        let costs = OperatorCosts::new(&s, &d);
        let bernoulli = costs.sample_s(SamplingMethod::Bernoulli, 1);
        let shuffle = costs.sample_s(SamplingMethod::ShuffledPartition, 1);
        assert!(
            bernoulli > 20.0 * shuffle,
            "bernoulli {bernoulli} vs shuffle {shuffle}"
        );
    }

    #[test]
    fn shuffle_beats_random_for_large_distributed_data() {
        let s = spec();
        let d = large();
        let costs = OperatorCosts::new(&s, &d);
        let random = costs.sample_s(SamplingMethod::RandomPartition, 1000);
        let shuffle = costs.sample_s(SamplingMethod::ShuffledPartition, 1000);
        assert!(shuffle < random, "shuffle {shuffle} vs random {random}");
    }

    #[test]
    fn update_network_term_only_for_distributed_batch() {
        let s = spec();
        let small_desc = small();
        let small_costs = OperatorCosts::new(&s, &small_desc);
        // Single-partition dataset → no network either way.
        assert!((small_costs.update_s(true) - small_costs.update_s(false)).abs() < 1e-12);
        let large_desc = large();
        let large_costs = OperatorCosts::new(&s, &large_desc);
        assert!(large_costs.update_s(true) > large_costs.update_s(false));
    }

    #[test]
    fn stage_and_converge_are_cheap_and_dimension_dependent() {
        let s = spec();
        let lo = DatasetDescriptor::new("lo", 1000, 10, 1024, 1.0);
        let hi = DatasetDescriptor::new("hi", 1000, 100_000, 1024, 1.0);
        assert!(
            OperatorCosts::new(&s, &hi).converge_loop_s()
                > OperatorCosts::new(&s, &lo).converge_loop_s()
        );
        assert!(OperatorCosts::new(&s, &lo).stage_s() < 1e-3);
    }
}
