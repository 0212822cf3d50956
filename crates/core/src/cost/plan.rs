//! Per-plan cost composition (Section 7.2, Equations 7–9).
//!
//! - **BGD** (Eq. 7):  `C = cS + cT(D) + T × (cC(D) + cU(D) + cCV + cL)`
//! - **MGD/SGD eager** (Eq. 8): `C = cS + cT(D) + T × (cSP(D) + cC(mᵢ) +
//!   cU(mᵢ) + cCV + cL)`
//! - **MGD/SGD lazy** (Eq. 9): `C = cS + T × (cSP(D) + cT(mᵢ) + cC(mᵢ) +
//!   cU(mᵢ) + cCV + cL)`
//!
//! plus the fixed job-initialization overhead and the per-iteration
//! scheduling overhead the substrate charges.
//!
//! One equation, two folds: each plan's equation is written once, as the
//! ordered operator rows it pays before the loop and per iteration. The
//! scalar costs fold the rows' `total_s()` left to right; the cost vectors
//! online calibration rescales fold the same rows with
//! [`CostBreakdown::plus`]. `prep + T × iter` is
//! [`PlanChoice::total_at`](crate::chooser::PlanChoice::total_at).

use ml4all_dataflow::{ClusterSpec, CostBreakdown, DatasetDescriptor};
use ml4all_gd::{GdPlan, GdVariant, TransformPolicy};

use super::operator::OperatorCosts;
use crate::chooser::PlanChoice;
use crate::platform::map_plan;

/// Cost model for all plans over one dataset on one cluster.
#[derive(Debug, Clone)]
pub struct PlanCostModel<'a> {
    costs: OperatorCosts<'a>,
}

/// Scalar fold of a plan's ordered rows (`None`: a row the plan skips):
/// the rows' totals, summed left to right.
fn fold_s(rows: &[Option<CostBreakdown>]) -> f64 {
    rows.iter()
        .flatten()
        .fold(0.0, |sum, row| sum + row.total_s())
}

/// Vector fold of the same rows: summed category-wise, left to right.
fn fold_cost(rows: &[Option<CostBreakdown>]) -> CostBreakdown {
    rows.iter()
        .flatten()
        .fold(CostBreakdown::default(), |sum, row| sum.plus(row))
}

impl<'a> PlanCostModel<'a> {
    /// New model.
    pub fn new(spec: &'a ClusterSpec, desc: &'a DatasetDescriptor) -> Self {
        Self {
            costs: OperatorCosts::new(spec, desc),
        }
    }

    /// Access the underlying operator costs.
    pub fn operators(&self) -> &OperatorCosts<'a> {
        &self.costs
    }

    /// What the plan pays once: job init, `Stage`, an eager `Transform`.
    fn preparation_rows(&self, plan: &GdPlan) -> [Option<CostBreakdown>; 3] {
        let eager = plan.transform == TransformPolicy::Eager;
        [
            Some(self.costs.job_init_cost()),
            Some(self.costs.stage_cost()),
            eager.then(|| self.costs.transform_full_cost()),
        ]
    }

    /// What the plan pays per iteration: the scheduling overhead, BGD's
    /// full `Compute` and aggregating `Update` or a sampled plan's
    /// `Sample`, `Compute` and driver `Update`, `Converge` + `Loop`, and
    /// last a lazy plan's per-unit `Transform`.
    fn iteration_rows(&self, plan: &GdPlan) -> [Option<CostBreakdown>; 6] {
        let overhead = Some(self.costs.iteration_overhead_cost());
        let converge = Some(self.costs.converge_loop_cost());
        match plan.variant {
            GdVariant::Batch => [
                overhead,
                Some(self.costs.compute_full_cost()),
                Some(self.costs.update_cost(true)),
                converge,
                None,
                None,
            ],
            GdVariant::Stochastic | GdVariant::MiniBatch { .. } => {
                let m = plan.variant.sample_size(self.costs.descriptor().n);
                let sampling = plan
                    .sampling
                    .expect("stochastic plans carry a sampling strategy");
                let lazy = plan.transform == TransformPolicy::Lazy;
                [
                    overhead,
                    Some(self.costs.sample_cost(sampling, m)),
                    Some(self.costs.compute_units_cost(m)),
                    Some(self.costs.update_cost(false)),
                    converge,
                    lazy.then(|| self.costs.transform_units_cost(m)),
                ]
            }
        }
    }

    /// One-time preparation cost: job init + `Stage` (+ eager `Transform`).
    pub fn preparation_s(&self, plan: &GdPlan) -> f64 {
        fold_s(&self.preparation_rows(plan))
    }

    /// Expected cost of one iteration of the plan.
    pub fn per_iteration_s(&self, plan: &GdPlan) -> f64 {
        fold_s(&self.iteration_rows(plan))
    }

    /// Total plan cost for `iterations` iterations (Equations 7–9).
    pub fn total_s(&self, plan: &GdPlan, iterations: u64) -> f64 {
        self.choice(*plan, iterations, false).total_s
    }

    /// One-time preparation cost as a per-category vector, so online
    /// calibration can rescale IO/CPU/net/overhead separately.
    pub fn preparation_cost(&self, plan: &GdPlan) -> CostBreakdown {
        fold_cost(&self.preparation_rows(plan))
    }

    /// Expected cost of one iteration as a per-category vector.
    pub fn per_iteration_cost(&self, plan: &GdPlan) -> CostBreakdown {
        fold_cost(&self.iteration_rows(plan))
    }

    /// `plan` costed for `iterations` iterations with its Appendix D
    /// mapping — a chooser row before calibration. `with_vectors` keeps
    /// the per-category vectors the calibrated chooser prices with.
    pub(crate) fn choice(&self, plan: GdPlan, iterations: u64, with_vectors: bool) -> PlanChoice {
        let (prep, iter) = (self.preparation_rows(&plan), self.iteration_rows(&plan));
        let mut choice = PlanChoice {
            plan,
            estimated_iterations: iterations,
            preparation_s: fold_s(&prep),
            per_iteration_s: fold_s(&iter),
            total_s: 0.0,
            mapping: map_plan(&plan, self.costs.descriptor(), self.costs.spec()),
            measured_s: None,
            calibrated_s: None,
            prep_cost: with_vectors.then(|| fold_cost(&prep)),
            iter_cost: with_vectors.then(|| fold_cost(&iter)),
        };
        choice.total_s = choice.total_at(iterations);
        choice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4all_dataflow::SamplingMethod;
    use ml4all_gd::GdError;

    fn spec() -> ClusterSpec {
        ClusterSpec::paper_testbed()
    }

    fn small() -> DatasetDescriptor {
        DatasetDescriptor::new("adult", 100_827, 123, 7 * 1024 * 1024, 0.11)
    }

    fn large() -> DatasetDescriptor {
        DatasetDescriptor::new("svm1", 5_516_800, 100, 10 * 1024 * 1024 * 1024, 1.0)
    }

    fn sgd(transform: TransformPolicy, sampling: SamplingMethod) -> Result<GdPlan, GdError> {
        GdPlan::sgd(transform, sampling)
    }

    #[test]
    fn bgd_total_grows_linearly_in_iterations() {
        let s = spec();
        let d = large();
        let model = PlanCostModel::new(&s, &d);
        let plan = GdPlan::bgd();
        let c100 = model.total_s(&plan, 100);
        let c200 = model.total_s(&plan, 200);
        let per_iter = model.per_iteration_s(&plan);
        assert!((c200 - c100 - 100.0 * per_iter).abs() < 1e-9);
    }

    #[test]
    fn cost_vectors_total_to_the_scalar_model() {
        let s = spec();
        let d = large();
        let model = PlanCostModel::new(&s, &d);
        for plan in [
            GdPlan::bgd(),
            sgd(TransformPolicy::Lazy, SamplingMethod::ShuffledPartition).unwrap(),
            GdPlan::mgd(1000, TransformPolicy::Eager, SamplingMethod::Bernoulli).unwrap(),
        ] {
            let prep = model.preparation_cost(&plan);
            let iter = model.per_iteration_cost(&plan);
            // The vectors are the same ledger charges; only float
            // association differs from the scalar composition.
            assert!(
                (prep.total_s() - model.preparation_s(&plan)).abs()
                    < 1e-9 * model.preparation_s(&plan).max(1.0),
                "{plan}: prep vector diverged"
            );
            assert!(
                (iter.total_s() - model.per_iteration_s(&plan)).abs()
                    < 1e-9 * model.per_iteration_s(&plan).max(1.0),
                "{plan}: per-iteration vector diverged"
            );
            assert!(iter.cpu_s > 0.0, "{plan}: every plan computes");
        }
    }

    #[test]
    fn lazy_sgd_skips_preparation_transform() {
        let s = spec();
        let d = large();
        let model = PlanCostModel::new(&s, &d);
        let eager = sgd(TransformPolicy::Eager, SamplingMethod::ShuffledPartition).unwrap();
        let lazy = sgd(TransformPolicy::Lazy, SamplingMethod::ShuffledPartition).unwrap();
        assert!(model.preparation_s(&eager) > model.preparation_s(&lazy) + 1.0);
        // Per-iteration, lazy pays the small per-unit transform instead.
        assert!(model.per_iteration_s(&lazy) >= model.per_iteration_s(&eager));
    }

    #[test]
    fn lazy_wins_for_few_iterations_eager_for_many() {
        // The crossover that motivates cost-based (not rule-based)
        // selection, Section 8.6.
        let s = spec();
        let d = large();
        let model = PlanCostModel::new(&s, &d);
        let eager = GdPlan::mgd(
            1000,
            TransformPolicy::Eager,
            SamplingMethod::ShuffledPartition,
        )
        .unwrap();
        let lazy = GdPlan::mgd(
            1000,
            TransformPolicy::Lazy,
            SamplingMethod::ShuffledPartition,
        )
        .unwrap();
        assert!(model.total_s(&lazy, 5) < model.total_s(&eager, 5));
        assert!(model.total_s(&eager, 1_000_000) < model.total_s(&lazy, 1_000_000));
    }

    #[test]
    fn sgd_iteration_is_far_cheaper_than_bgd_on_large_data() {
        let s = spec();
        let d = large();
        let model = PlanCostModel::new(&s, &d);
        let bgd = model.per_iteration_s(&GdPlan::bgd());
        let sgd_plan = sgd(TransformPolicy::Lazy, SamplingMethod::ShuffledPartition).unwrap();
        let sgd_cost = model.per_iteration_s(&sgd_plan);
        // The compute gap is O(n) vs O(1); the fixed per-iteration stage
        // launch compresses the end-to-end ratio (the paper's svm1 numbers
        // show ~7×: 1.4 s/iter BGD vs 0.2 s/iter MGD).
        assert!(
            bgd > 5.0 * sgd_cost,
            "bgd {bgd} vs sgd {sgd_cost}: the O(n) vs O(1) gap"
        );
    }

    #[test]
    fn bernoulli_sampling_costs_like_a_scan_on_large_data() {
        let s = spec();
        let d = large();
        let model = PlanCostModel::new(&s, &d);
        // The sampler component itself: Bernoulli pays a full scan while
        // shuffled-partition pays an amortized partition read. The fixed
        // per-iteration stage launch dilutes the end-to-end ratio, so the
        // comparison targets the Sample operator (cSP of Equation 8).
        let bernoulli = model
            .operators()
            .sample_cost(SamplingMethod::Bernoulli, 1)
            .total_s();
        let shuffle = model
            .operators()
            .sample_cost(SamplingMethod::ShuffledPartition, 1)
            .total_s();
        assert!(
            bernoulli > 20.0 * shuffle,
            "bernoulli {bernoulli} vs shuffle {shuffle}"
        );
        // And it still shows through end to end.
        let b_plan = sgd(TransformPolicy::Eager, SamplingMethod::Bernoulli).unwrap();
        let s_plan = sgd(TransformPolicy::Eager, SamplingMethod::ShuffledPartition).unwrap();
        assert!(model.per_iteration_s(&b_plan) > 1.3 * model.per_iteration_s(&s_plan));
    }

    #[test]
    fn small_data_shrinks_the_gap_between_samplers() {
        // On one-partition datasets Bernoulli's scan is cheap — the reason
        // eager-bernoulli wins small datasets in Figure 13(a).
        let s = spec();
        let d = small();
        let model = PlanCostModel::new(&s, &d);
        let bernoulli =
            GdPlan::mgd(1000, TransformPolicy::Eager, SamplingMethod::Bernoulli).unwrap();
        let random = GdPlan::mgd(
            1000,
            TransformPolicy::Eager,
            SamplingMethod::RandomPartition,
        )
        .unwrap();
        let ratio = model.per_iteration_s(&bernoulli) / model.per_iteration_s(&random);
        assert!(ratio < 10.0, "ratio {ratio}");
    }
}
