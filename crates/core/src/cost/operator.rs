//! Per-operator cost rows (Section 7.1, Equations 3–6).
//!
//! Each row is the operator's one call into [`SimEnv`]'s price list — the
//! call the executor and the samplers make on the live environment — made
//! on a scratch environment and read off as the per-category
//! [`CostBreakdown`] it left: the vector online calibration rescales,
//! whose `total_s()` is the seconds Equations 7–9 compose.

use ml4all_dataflow::{ClusterSpec, CostBreakdown, DatasetDescriptor, SamplingMethod, SimEnv};

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

    /// The cluster this calculator costs on.
    pub(crate) fn spec(&self) -> &ClusterSpec {
        self.spec
    }

    /// The dataset descriptor this calculator costs against.
    pub fn descriptor(&self) -> &DatasetDescriptor {
        self.desc
    }

    /// `true` when iterations over this dataset run distributed.
    pub fn distributed(&self) -> bool {
        !self.desc.fits_one_partition(self.spec)
    }

    /// The cost vector `charge` leaves on a fresh environment.
    fn row(&self, charge: impl FnOnce(&mut SimEnv)) -> CostBreakdown {
        let mut env = SimEnv::new(self.spec.clone());
        charge(&mut env);
        env.ledger.snapshot()
    }

    /// One-time job initialization (pure overhead).
    pub fn job_init_cost(&self) -> CostBreakdown {
        self.row(SimEnv::charge_job_init)
    }

    /// `Stage` (`cS`): [`SimEnv::charge_stage`].
    pub fn stage_cost(&self) -> CostBreakdown {
        self.row(|env| env.charge_stage(self.desc))
    }

    /// `Transform` over the full dataset (`cT(D)`).
    pub fn transform_full_cost(&self) -> CostBreakdown {
        self.row(|env| env.charge_transform_scan(self.desc))
    }

    /// `Transform` over `m` sampled units (`cT(mᵢ)`), driver-side.
    pub fn transform_units_cost(&self, m: u64) -> CostBreakdown {
        self.row(|env| env.charge_transform_units(self.desc, m))
    }

    /// `Compute` over the full dataset (`cC(D)`).
    pub fn compute_full_cost(&self) -> CostBreakdown {
        self.row(|env| {
            env.charge_compute_scan(self.desc, false);
        })
    }

    /// `Compute` over `m` sampled units at the driver (`cC(mᵢ)`).
    pub fn compute_units_cost(&self, m: u64) -> CostBreakdown {
        self.row(|env| env.charge_compute_units(self.desc, m))
    }

    /// `Update` (`cU`), aggregating partials when `batch_aggregation`.
    pub fn update_cost(&self, batch_aggregation: bool) -> CostBreakdown {
        self.row(|env| env.charge_update(self.desc, batch_aggregation))
    }

    /// `Converge` + `Loop` (`cCV + cL`).
    pub fn converge_loop_cost(&self) -> CostBreakdown {
        self.row(|env| env.charge_converge(self.desc))
    }

    /// `Sample` (`cSP`): one draw of `m` units with `method` (Figure 4).
    pub fn sample_cost(&self, method: SamplingMethod, m: u64) -> CostBreakdown {
        self.row(|env| env.charge_sample(method, self.desc, m))
    }

    /// Per-iteration scheduling overhead.
    pub fn iteration_overhead_cost(&self) -> CostBreakdown {
        self.row(|env| env.charge_iteration_overhead(self.distributed()))
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
        let small_cost = OperatorCosts::new(&s, &sd).transform_full_cost().total_s();
        let large_cost = OperatorCosts::new(&s, &ld).transform_full_cost().total_s();
        assert!(large_cost > 10.0 * small_cost);
    }

    #[test]
    fn compute_units_is_independent_of_dataset_size() {
        // The SGD promise: per-iteration compute cost is O(1) in n.
        let s = spec();
        let (sd, ld) = (small(), large());
        let small_cost = OperatorCosts::new(&s, &sd).compute_units_cost(1).total_s();
        let large_cost = OperatorCosts::new(&s, &ld).compute_units_cost(1).total_s();
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
            costs.compute_full_cost().total_s().to_bits()
        );
        assert_eq!(
            costs
                .sample_cost(SamplingMethod::Bernoulli, 10)
                .total_s()
                .to_bits(),
            costs
                .sample_cost(SamplingMethod::Bernoulli, 10)
                .total_s()
                .to_bits()
        );
        assert_eq!(
            costs.update_cost(true).total_s().to_bits(),
            costs.update_cost(true).total_s().to_bits()
        );
        // The update network term lands in the net category.
        assert!(costs.update_cost(true).net_s > 0.0);
        assert_eq!(costs.update_cost(false).net_s, 0.0);
        // Job init is pure overhead.
        assert_eq!(
            costs.job_init_cost().total_s(),
            costs.job_init_cost().total_s()
        );
        assert_eq!(
            costs.job_init_cost().overhead_s,
            costs.job_init_cost().total_s()
        );
    }

    #[test]
    fn bernoulli_sampling_costs_like_a_scan() {
        let s = spec();
        let d = large();
        let costs = OperatorCosts::new(&s, &d);
        let bernoulli = costs.sample_cost(SamplingMethod::Bernoulli, 1).total_s();
        let shuffle = costs
            .sample_cost(SamplingMethod::ShuffledPartition, 1)
            .total_s();
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
        let random = costs
            .sample_cost(SamplingMethod::RandomPartition, 1000)
            .total_s();
        let shuffle = costs
            .sample_cost(SamplingMethod::ShuffledPartition, 1000)
            .total_s();
        assert!(shuffle < random, "shuffle {shuffle} vs random {random}");
    }

    #[test]
    fn update_network_term_only_for_distributed_batch() {
        let s = spec();
        let small_desc = small();
        let small_costs = OperatorCosts::new(&s, &small_desc);
        // Single-partition dataset → no network either way.
        assert!(
            (small_costs.update_cost(true).total_s() - small_costs.update_cost(false).total_s())
                .abs()
                < 1e-12
        );
        let large_desc = large();
        let large_costs = OperatorCosts::new(&s, &large_desc);
        assert!(large_costs.update_cost(true).total_s() > large_costs.update_cost(false).total_s());
    }

    #[test]
    fn stage_and_converge_are_cheap_and_dimension_dependent() {
        let s = spec();
        let lo = DatasetDescriptor::new("lo", 1000, 10, 1024, 1.0);
        let hi = DatasetDescriptor::new("hi", 1000, 100_000, 1024, 1.0);
        assert!(
            OperatorCosts::new(&s, &hi).converge_loop_cost().total_s()
                > OperatorCosts::new(&s, &lo).converge_loop_cost().total_s()
        );
        assert!(OperatorCosts::new(&s, &lo).stage_cost().total_s() < 1e-3);
    }
}
