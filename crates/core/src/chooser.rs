//! The cost-based plan chooser: speculation-estimated iterations × modelled
//! cost per iteration, argmin over the Figure 5 plan space (Sections 3, 7).

use std::sync::Arc;
use std::time::Duration;

use ml4all_dataflow::{Backend, ClusterSpec, CostBreakdown, PartitionedDataset, SimEnv};
use ml4all_gd::{
    execute_plan, GdError, GdPlan, GdVariant, GradientKind, Regularizer, StepSize, TrainParams,
    TrainResult,
};
use ml4all_runtime::Runtime;
use serde::{Deserialize, Serialize};

use crate::calibration::{plan_feature_key, CalibrationSnapshot, CalibrationStamp};
use crate::cost::PlanCostModel;
use crate::estimator::{
    estimate_on_sample, speculation_sample, IterationsEstimate, SpeculationConfig,
};
use crate::planspace::enumerate_plans;
use crate::platform::PlatformMapping;
use crate::OptimizerError;

/// Where the iteration counts come from.
#[derive(Debug, Clone)]
pub enum IterationsSource {
    /// Speculate per GD variant (Algorithm 1). The default.
    Speculate(SpeculationConfig),
    /// The user fixed the iteration count (`max iter` without a tolerance):
    /// no speculation is needed and optimization takes well under 100 ms —
    /// the paper's observation in Section 8.3.
    Fixed(u64),
}

/// Optimizer configuration: the task, hyper-parameters, constraints, and
/// speculation settings.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Gradient function (Table 3 task).
    pub gradient: GradientKind,
    /// Step schedule (the paper pins `β/√i`, β = 1 everywhere).
    pub step: StepSize,
    /// Regularizer.
    pub regularizer: Regularizer,
    /// Requested tolerance ε (`having epsilon …`; default 1e-3 as in
    /// Appendix A).
    pub tolerance: f64,
    /// Iteration cap (`having max iter …`).
    pub max_iter: u64,
    /// Mini-batch size used for the MGD plans.
    pub batch_size: usize,
    /// Iteration-count source.
    pub iterations: IterationsSource,
    /// Optional training-time constraint (`having time …`): checked once,
    /// at choose time, against the best plan's predicted cost in simulated
    /// seconds ([`PlanChoice::ranking_s`]); if even that plan exceeds it,
    /// the optimizer reports the constraint to revisit. No clock is read.
    pub time_budget: Option<Duration>,
    /// Restrict the search to one GD algorithm (`using algorithm SGD`) —
    /// the optimizer then only picks sampling/transformation, as in the
    /// Figure 9 per-algorithm comparisons.
    pub pinned_variant: Option<GdVariant>,
    /// Restrict the search to one sampling strategy (`using sampler …`).
    pub pinned_sampling: Option<ml4all_dataflow::SamplingMethod>,
    /// RNG seed.
    pub seed: u64,
    /// Worker pool the per-variant speculative runs of Algorithm 1
    /// dispatch through (defaults to the process-wide runtime).
    pub runtime: Arc<Runtime>,
    /// Calibration state to price plans with ([`CalibrationSnapshot`]):
    /// per-category unit-cost scales plus the learned residual table.
    /// `None` (the default) and the identity snapshot price identically —
    /// bit for bit — to the static paper model.
    pub calibration: Option<CalibrationSnapshot>,
}

impl OptimizerConfig {
    /// Defaults: tolerance 1e-3, max 1 000 iterations, batch 1 000,
    /// speculation per Algorithm 1's defaults.
    pub fn new(gradient: GradientKind) -> Self {
        Self {
            gradient,
            step: StepSize::paper_default(),
            regularizer: Regularizer::None,
            tolerance: 1e-3,
            max_iter: 1000,
            batch_size: 1000,
            iterations: IterationsSource::Speculate(SpeculationConfig::default()),
            time_budget: None,
            pinned_variant: None,
            pinned_sampling: None,
            seed: 0,
            runtime: Runtime::global(),
            calibration: None,
        }
    }

    /// Set the tolerance.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Set the iteration cap.
    pub fn with_max_iter(mut self, max_iter: u64) -> Self {
        self.max_iter = max_iter;
        self
    }

    /// Fix the iteration count (skip speculation).
    pub fn with_fixed_iterations(mut self, iterations: u64) -> Self {
        self.iterations = IterationsSource::Fixed(iterations);
        self.max_iter = iterations;
        self
    }

    /// Set the speculation configuration.
    pub fn with_speculation(mut self, config: SpeculationConfig) -> Self {
        self.iterations = IterationsSource::Speculate(config);
        self
    }

    /// Set the `having time …` constraint on the best plan's predicted
    /// (simulated) training time.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Restrict the search to one GD algorithm.
    pub fn with_pinned_variant(mut self, variant: GdVariant) -> Self {
        self.pinned_variant = Some(variant);
        if let GdVariant::MiniBatch { batch } = variant {
            self.batch_size = batch;
        }
        self
    }

    /// Dispatch speculation through an explicit worker pool.
    pub fn with_runtime(mut self, runtime: Arc<Runtime>) -> Self {
        self.runtime = runtime;
        self
    }

    /// Price plans with this calibration snapshot.
    pub fn with_calibration(mut self, snapshot: CalibrationSnapshot) -> Self {
        self.calibration = Some(snapshot);
        self
    }

    /// The training parameters implied by this configuration.
    pub fn train_params(&self) -> TrainParams {
        TrainParams {
            gradient: self.gradient,
            step: self.step,
            regularizer: self.regularizer,
            tolerance: self.tolerance,
            max_iter: self.max_iter,
            seed: self.seed,
            record_error_seq: false,
            wall_budget: None,
        }
    }
}

/// One costed plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanChoice {
    /// The plan.
    pub plan: GdPlan,
    /// Iterations the optimizer expects it to run (estimate clamped by
    /// `max_iter`).
    pub estimated_iterations: u64,
    /// One-time preparation cost (job init + stage + eager transform).
    pub preparation_s: f64,
    /// Expected per-iteration cost.
    pub per_iteration_s: f64,
    /// Total estimated cost in simulated seconds.
    pub total_s: f64,
    /// Per-operator platform assignment (Appendix D) of this plan on this
    /// dataset — the `EXPLAIN` surface reports it alongside the cost.
    pub mapping: PlatformMapping,
    /// Ledger-**measured** execution cost in simulated seconds, filled
    /// when the caller profiled the plan through its mapped backend for
    /// the costed iteration count (`ExplainRequest::measured`); `None` on
    /// pure cost-model reports, or when the profiled run diverged.
    pub measured_s: Option<f64>,
    /// Total cost after calibration (unit-cost scales + residual factor),
    /// filled when the optimizer ran with a [`CalibrationSnapshot`]. This
    /// is the quantity the calibrated chooser ranks by; under the identity
    /// snapshot it equals [`PlanChoice::total_s`] bit for bit.
    pub calibrated_s: Option<f64>,
    /// Predicted one-time preparation cost as a per-category vector,
    /// filled on calibrated reports (the observation the calibrator
    /// compares against the measured ledger).
    pub prep_cost: Option<CostBreakdown>,
    /// Predicted per-iteration cost as a per-category vector, filled on
    /// calibrated reports.
    pub iter_cost: Option<CostBreakdown>,
}

impl PlanChoice {
    /// The cost the chooser ranks this plan by: calibrated when priced
    /// under a snapshot, the static model's total otherwise.
    pub fn ranking_s(&self) -> f64 {
        self.calibrated_s.unwrap_or(self.total_s)
    }

    /// Equations 7–9 at `iterations` iterations — `prep + T × iter` — in
    /// simulated seconds: [`PlanChoice::total_s`] is this at the estimated
    /// count, and a finished run is observed at the count it ran.
    pub fn total_at(&self, iterations: u64) -> f64 {
        self.preparation_s + iterations as f64 * self.per_iteration_s
    }

    /// [`PlanChoice::total_at`] per category; present on calibrated
    /// reports, which keep the cost vectors.
    pub fn cost_at(&self, iterations: u64) -> Option<CostBreakdown> {
        Some(Self::cost_of(
            &self.prep_cost?,
            &self.iter_cost?,
            iterations,
        ))
    }

    /// `prep + T × iter`, category-wise.
    pub(crate) fn cost_of(
        prep: &CostBreakdown,
        iter: &CostBreakdown,
        iterations: u64,
    ) -> CostBreakdown {
        prep.plus(&iter.times(iterations as f64))
    }
}

/// Per-variant speculation outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VariantEstimate {
    /// The variant speculated.
    pub variant: GdVariant,
    /// Its estimate.
    pub estimate: IterationsEstimate,
}

/// The optimizer's full report: every plan costed, cheapest first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimizerReport {
    /// Every plan the request leaves choosable, sorted by ascending total
    /// cost.
    pub choices: Vec<PlanChoice>,
    /// Speculation outcomes, one per GD variant among [`Self::choices`] in
    /// the order BGD, SGD, MGD: three on an unpinned request, one under a
    /// pinned algorithm, none when iterations were fixed.
    pub estimates: Vec<VariantEstimate>,
    /// Total simulated optimizer overhead: the one sample-collection job
    /// plus the speculative runs actually made (one per entry of
    /// [`Self::estimates`]).
    pub speculation_sim_s: f64,
    /// `true` when this report was served from a plan cache instead of a
    /// fresh optimization: speculation was skipped and every field (the
    /// speculation costs included) is the cached cold run's value.
    pub cache_hit: bool,
    /// Present when the report was priced under a calibration snapshot:
    /// the generation and residual confidence `explain` renders in its
    /// footer. `None` on static-model reports.
    pub calibration: Option<CalibrationStamp>,
}

impl OptimizerReport {
    /// The chosen (cheapest) plan.
    pub fn best(&self) -> &PlanChoice {
        &self.choices[0]
    }

    /// The worst plan — what the optimizer saved the user from
    /// (Figure 8's max bar).
    pub fn worst(&self) -> &PlanChoice {
        self.choices.last().expect("search space is non-empty")
    }

    /// The cheapest plan under **measured** costs — what the argmin would
    /// be if ledger-measured execution replaced the model. `None` unless
    /// every choice carries a measurement. Ties break toward the
    /// predicted-cheaper (earlier) choice, so a measured tie never reads
    /// as an argmin flip.
    pub fn measured_best(&self) -> Option<&PlanChoice> {
        let mut best: Option<(f64, &PlanChoice)> = None;
        for choice in &self.choices {
            let measured = choice.measured_s?;
            if best.is_none_or(|(b, _)| measured < b) {
                best = Some((measured, choice));
            }
        }
        best.map(|(_, choice)| choice)
    }
}

/// Whether two variants are the same GD algorithm (a mini-batch size does
/// not make a different one).
fn same_variant(a: &GdVariant, b: &GdVariant) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// The backend a plan mapping executes on (the Appendix D routing rule):
/// a mapping that places any operator on Spark runs through the simulated
/// cluster, a pure-driver mapping stays on the local runtime.
pub fn backend_for(mapping: &PlatformMapping, cluster: &ClusterSpec) -> Backend {
    if mapping.uses_cluster() {
        Backend::simulated_cluster(cluster)
    } else {
        Backend::Local
    }
}

/// Profile one costed choice: execute its plan through its mapped backend
/// — on the configuration's worker pool — for exactly the iteration count
/// the prediction was costed with (zero tolerance pins the run, so
/// measured and predicted cover the same work). This is the single
/// definition of the profiling protocol shared by `EXPLAIN`'s measured
/// column and the conformance harness. Returns `Ok(None)` when the run
/// diverges; other execution failures propagate.
pub fn profile_choice(
    choice: &PlanChoice,
    data: &PartitionedDataset,
    config: &OptimizerConfig,
    cluster: &ClusterSpec,
) -> Result<Option<TrainResult>, GdError> {
    let mut params = config.train_params();
    params.max_iter = choice.estimated_iterations;
    params.tolerance = 0.0;
    let backend = backend_for(&choice.mapping, cluster);
    let mut env =
        SimEnv::with_runtime(cluster.clone(), Arc::clone(&config.runtime)).with_backend(backend);
    match execute_plan(&choice.plan, data, &params, &mut env) {
        Ok(result) => Ok(Some(result)),
        Err(GdError::Diverged { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Run the optimizer: estimate iterations per GD variant the request leaves
/// choosable, cost those variants' plans, return them cheapest-first.
pub fn choose_plan(
    data: &PartitionedDataset,
    config: &OptimizerConfig,
    cluster: &ClusterSpec,
) -> Result<OptimizerReport, OptimizerError> {
    // The plan space this request prices: the Figure 5 plans less those a
    // pinned algorithm or sampler excludes.
    let mut plans = enumerate_plans(config.batch_size);
    plans.retain(|plan| {
        config
            .pinned_variant
            .is_none_or(|v| same_variant(&plan.variant, &v))
            && config
                .pinned_sampling
                .is_none_or(|s| plan.sampling.is_none() || plan.sampling == Some(s))
    });
    // Exactly the variants those plans use, in plan-space order (BGD, SGD,
    // MGD; each variant's plans are contiguous): an excluded algorithm's
    // estimate would never be read, so it is never speculated.
    let mut variants = [GdVariant::Batch; 3];
    let mut n = 0;
    for plan in &plans {
        if n == 0 || !same_variant(&variants[n - 1], &plan.variant) {
            variants[n] = plan.variant;
            n += 1;
        }
    }
    let variants = &variants[..n];

    let params = config.train_params();
    let mut estimates = Vec::new();
    let mut speculation_sim_s = 0.0;

    let variant_iterations: Vec<(GdVariant, u64)> = match &config.iterations {
        IterationsSource::Fixed(t) => variants.iter().map(|v| (*v, *t)).collect(),
        IterationsSource::Speculate(spec_cfg) => {
            // One Spark job collects the sample for every speculative run
            // (the ~4 s overhead of Section 8.3).
            let mut collect_env = SimEnv::new(cluster.clone());
            collect_env.charge_sample_collection(data.descriptor(), spec_cfg.sample_size as u64);
            speculation_sim_s += collect_env.elapsed_s();
            // The speculative runs share one sample `D′` and are otherwise
            // independent; dispatch them through the shared runtime worker
            // pool (each builds its own environment and seed inside
            // `estimate_on_sample`, so a variant's estimate is the same
            // whichever others run beside it). Results come back in variant
            // order, independent of the worker count; a lone run stays on
            // the calling thread.
            let sample = speculation_sample(data, spec_cfg, cluster)?;
            let results: Vec<Result<IterationsEstimate, OptimizerError>> =
                config.runtime.map_indexed(variants, |_, variant| {
                    estimate_on_sample(
                        &sample,
                        *variant,
                        &params,
                        config.tolerance,
                        spec_cfg,
                        cluster,
                    )
                });

            let mut out = Vec::with_capacity(variants.len());
            for (variant, result) in variants.iter().zip(results) {
                let estimate = result?;
                speculation_sim_s += estimate.speculation_sim_s;
                out.push((*variant, estimate.iterations));
                estimates.push(VariantEstimate {
                    variant: *variant,
                    estimate,
                });
            }
            out
        }
    };

    let desc = data.descriptor();
    let model = PlanCostModel::new(cluster, desc);
    let mut choices: Vec<PlanChoice> = plans
        .into_iter()
        .map(|plan| {
            let (_, t) = variant_iterations
                .iter()
                .find(|(v, _)| same_variant(v, &plan.variant))
                .expect("every plan variant was estimated");
            // The user's iteration cap bounds every plan.
            let t = (*t).min(config.max_iter).max(1);
            let mut choice = model.choice(plan, t, config.calibration.is_some());
            // Calibrated pricing: rescale the predicted cost vector by the
            // learned unit-cost scales and apply the residual factor for
            // this plan's feature key — keyed by the backend the mapping
            // executes on, as the run that feeds the residual is observed.
            // The vectors stay on the choice so the post-execution
            // observation can compare like with like.
            if let (Some(snapshot), Some(prep), Some(iter)) =
                (&config.calibration, choice.prep_cost, choice.iter_cost)
            {
                let backend = Backend::label(choice.mapping.uses_cluster());
                let key = plan_feature_key(&format!("{:?}", config.gradient), &plan, backend, desc);
                choice.calibrated_s =
                    Some(snapshot.calibrate_total(choice.total_s, &prep, &iter, t, &key));
            }
            choice
        })
        .collect();
    // Rank by the calibrated cost when one was computed; under the
    // identity snapshot `ranking_s() == total_s` bit for bit, so cold
    // calibrated runs sort exactly like the static model.
    choices.sort_by(|a, b| {
        a.ranking_s()
            .partial_cmp(&b.ranking_s())
            .expect("costs are finite")
    });

    if let Some(budget) = config.time_budget {
        let best = &choices[0];
        if best.ranking_s() > budget.as_secs_f64() {
            return Err(OptimizerError::UnsatisfiableConstraint(format!(
                "even the best plan ({}, {:.1}s estimated) exceeds the time budget of {:?}; \
                 revisit the `time` constraint",
                best.plan,
                best.ranking_s(),
                budget
            )));
        }
    }

    let calibration = config.calibration.as_ref().map(|s| CalibrationStamp {
        generation: s.generation,
        residual_confidence: s.residual_confidence(),
    });

    Ok(OptimizerReport {
        choices,
        estimates,
        speculation_sim_s,
        cache_hit: false,
        calibration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4all_dataflow::PartitionScheme;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, logical_bytes: u64) -> PartitionedDataset {
        let mut rng = StdRng::seed_from_u64(3);
        let points = (0..n)
            .map(|_| {
                let x0: f64 = rng.gen_range(-1.0..1.0);
                let x1: f64 = rng.gen_range(-1.0..1.0);
                let label = if x0 + x1 > 0.0 { 1.0 } else { -1.0 };
                (label, [x0, x1])
            })
            .collect();
        let desc = ml4all_dataflow::DatasetDescriptor::new(
            "chooser-test",
            (n as u64).max(logical_bytes / 100),
            2,
            logical_bytes,
            1.0,
        );
        PartitionedDataset::with_descriptor(
            desc,
            &points,
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap()
    }

    /// A separable CSR set: 64 columns, a handful of non-zeros a row.
    fn sparse_dataset(n: usize) -> PartitionedDataset {
        let mut rng = StdRng::seed_from_u64(4);
        let dims = 64u32;
        let mut rows = ml4all_dataflow::ColumnarBuilder::new();
        for _ in 0..n {
            let mut idx: Vec<u32> = (0..6).map(|_| rng.gen_range(0..dims)).collect();
            idx.sort_unstable();
            idx.dedup();
            let vals: Vec<f64> = idx.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
            let score: f64 = idx
                .iter()
                .zip(&vals)
                .map(|(&i, &v)| if i % 2 == 0 { v } else { -v })
                .sum();
            let label = if score > 0.0 { 1.0 } else { -1.0 };
            rows.push_sparse(label, &idx, &vals).unwrap();
        }
        PartitionedDataset::from_columns(
            "chooser-csr",
            &rows.finish_with_dims(dims as usize),
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap()
    }

    /// Every bit of an estimate, floats by their bit patterns.
    type EstimateBits = (u64, u64, u64, usize, u64, Vec<(u64, u64)>, u64);

    fn estimate_bits(e: &IterationsEstimate) -> EstimateBits {
        (
            e.iterations,
            e.fit.a.to_bits(),
            e.fit.r_squared.to_bits(),
            e.fit.points,
            e.speculation_iterations,
            e.pairs.iter().map(|&(i, err)| (i, err.to_bits())).collect(),
            e.speculation_sim_s.to_bits(),
        )
    }

    /// A costed row by its bits.
    fn choice_bits(c: &PlanChoice) -> (GdPlan, u64, u64) {
        (c.plan, c.estimated_iterations, c.total_s.to_bits())
    }

    #[test]
    fn a_pinned_variant_speculates_only_itself_bit_identically() {
        let cluster = ClusterSpec::paper_testbed();
        let spec_cfg = SpeculationConfig {
            sample_size: 300,
            max_iterations: 2000,
            ..Default::default()
        };
        for data in [dataset(3000, 1024 * 1024), sparse_dataset(3000)] {
            let config = OptimizerConfig::new(GradientKind::LogisticRegression)
                .with_tolerance(0.01)
                .with_speculation(spec_cfg.clone());
            let unpinned = choose_plan(&data, &config, &cluster).unwrap();
            assert_eq!(unpinned.estimates.len(), 3);
            let mut collect = SimEnv::new(cluster.clone());
            collect.charge_sample_collection(data.descriptor(), spec_cfg.sample_size as u64);
            for variant in [
                GdVariant::Batch,
                GdVariant::Stochastic,
                GdVariant::MiniBatch {
                    batch: config.batch_size,
                },
            ] {
                let pinned = choose_plan(
                    &data,
                    &config.clone().with_pinned_variant(variant),
                    &cluster,
                )
                .unwrap();
                assert_eq!(pinned.estimates.len(), 1, "{variant:?}");
                assert_eq!(pinned.estimates[0].variant, variant);
                let own = &pinned.estimates[0].estimate;
                let beside = unpinned
                    .estimates
                    .iter()
                    .find(|e| same_variant(&e.variant, &variant))
                    .unwrap();
                assert_eq!(
                    estimate_bits(own),
                    estimate_bits(&beside.estimate),
                    "{variant:?}: the estimate depends on the variants run beside it"
                );
                assert_eq!(
                    pinned.speculation_sim_s.to_bits(),
                    (collect.elapsed_s() + own.speculation_sim_s).to_bits(),
                    "{variant:?}: one collection plus one run"
                );
                let expected: Vec<_> = unpinned
                    .choices
                    .iter()
                    .filter(|c| same_variant(&c.plan.variant, &variant))
                    .map(choice_bits)
                    .collect();
                let priced: Vec<_> = pinned.choices.iter().map(choice_bits).collect();
                assert_eq!(priced, expected, "{variant:?}");
            }
            // A pinned sampler leaves every algorithm choosable.
            let sampled = choose_plan(
                &data,
                &OptimizerConfig {
                    pinned_sampling: Some(ml4all_dataflow::SamplingMethod::ShuffledPartition),
                    ..config.clone()
                },
                &cluster,
            )
            .unwrap();
            let all_bits = |r: &OptimizerReport| {
                r.estimates
                    .iter()
                    .map(|e| estimate_bits(&e.estimate))
                    .collect::<Vec<_>>()
            };
            assert_eq!(all_bits(&sampled), all_bits(&unpinned));
            assert_eq!(
                sampled.speculation_sim_s.to_bits(),
                unpinned.speculation_sim_s.to_bits()
            );
        }
    }

    #[test]
    fn fixed_iterations_skip_speculation() {
        let data = dataset(1000, 1024 * 1024);
        let config =
            OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(1000);
        let report = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap();
        assert!(report.estimates.is_empty());
        assert_eq!(report.speculation_sim_s, 0.0);
        assert_eq!(report.choices.len(), 11);
        // With 1000 iterations fixed on a small dataset, a cheap-iteration
        // plan must win over BGD.
        assert_ne!(report.best().plan.variant, GdVariant::Batch);
    }

    #[test]
    fn report_is_sorted_cheapest_first() {
        let data = dataset(1000, 1024 * 1024);
        let config =
            OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(100);
        let report = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap();
        for w in report.choices.windows(2) {
            assert!(w[0].total_s <= w[1].total_s);
        }
        assert!(report.best().total_s <= report.worst().total_s);
    }

    #[test]
    fn speculation_produces_estimates_for_all_variants() {
        let data = dataset(3000, 1024 * 1024);
        let spec_cfg = SpeculationConfig {
            sample_size: 300,
            max_iterations: 2000,
            ..Default::default()
        };
        let config = OptimizerConfig::new(GradientKind::LogisticRegression)
            .with_tolerance(0.01)
            .with_speculation(spec_cfg);
        let report = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap();
        assert_eq!(report.estimates.len(), 3);
        assert!(report.speculation_sim_s > 0.0);
        for variant in [
            GdVariant::Batch,
            GdVariant::Stochastic,
            GdVariant::MiniBatch { batch: 1000 },
        ] {
            assert!(report
                .estimates
                .iter()
                .any(|e| same_variant(&e.variant, &variant)));
        }
    }

    #[test]
    fn huge_dataset_with_many_iterations_avoids_bernoulli() {
        // 20 GB logical dataset: per-iteration full scans are ruinous.
        let data = dataset(2000, 20 * 1024 * 1024 * 1024);
        let config = OptimizerConfig::new(GradientKind::Svm).with_fixed_iterations(1000);
        let report = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap();
        assert!(report.best().plan.is_stochastic());
        assert_ne!(
            report.best().plan.sampling,
            Some(ml4all_dataflow::SamplingMethod::Bernoulli)
        );
        // And the worst plan is a full-scan-per-iteration one.
        let worst = report.worst();
        let worst_scans = worst.plan.variant == GdVariant::Batch
            || worst.plan.sampling == Some(ml4all_dataflow::SamplingMethod::Bernoulli);
        assert!(worst_scans, "worst = {}", worst.plan);
    }

    #[test]
    fn impossible_time_budget_is_reported_as_constraint() {
        let data = dataset(1000, 10 * 1024 * 1024 * 1024);
        let config = OptimizerConfig::new(GradientKind::Svm)
            .with_fixed_iterations(1000)
            .with_time_budget(Duration::from_millis(1));
        let err = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap_err();
        assert!(matches!(err, OptimizerError::UnsatisfiableConstraint(_)));
    }

    #[test]
    fn measured_best_requires_every_choice_profiled() {
        let data = dataset(1000, 1024 * 1024);
        let config =
            OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(100);
        let mut report = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap();
        assert!(report.measured_best().is_none());
        // Fill measurements that invert the predicted order: the measured
        // argmin must follow the measurements, not the ranking.
        let n = report.choices.len();
        for (i, choice) in report.choices.iter_mut().enumerate() {
            choice.measured_s = Some((n - i) as f64);
        }
        let best = report.measured_best().unwrap();
        assert_eq!(best.measured_s, Some(1.0));
        assert_eq!(best.plan, report.choices[n - 1].plan);
        // A measured tie breaks toward the predicted-cheaper choice, so a
        // tie never reads as an argmin flip.
        for choice in &mut report.choices {
            choice.measured_s = Some(7.0);
        }
        let best = report.measured_best().unwrap();
        assert_eq!(best.plan, report.choices[0].plan);
    }

    #[test]
    fn identity_calibration_prices_bit_identically() {
        use crate::calibration::CalibrationSnapshot;
        let data = dataset(1000, 1024 * 1024);
        let config =
            OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(100);
        let cold = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap();
        let calibrated = choose_plan(
            &data,
            &config
                .clone()
                .with_calibration(CalibrationSnapshot::identity()),
            &ClusterSpec::paper_testbed(),
        )
        .unwrap();
        assert_eq!(calibrated.choices.len(), cold.choices.len());
        for (a, b) in cold.choices.iter().zip(&calibrated.choices) {
            assert_eq!(a.plan, b.plan, "identity snapshot must not reorder");
            assert_eq!(
                a.total_s.to_bits(),
                b.calibrated_s.unwrap().to_bits(),
                "{}: identity calibration must be bitwise invisible",
                a.plan
            );
            assert!(b.prep_cost.is_some() && b.iter_cost.is_some());
        }
        let stamp = calibrated.calibration.unwrap();
        assert_eq!(stamp.generation, 0);
        assert_eq!(stamp.residual_confidence, 0.0);
        assert!(cold.calibration.is_none());
    }

    #[test]
    fn residual_factors_can_flip_the_argmin() {
        use crate::calibration::{plan_feature_key, CalibrationSnapshot, ResidualEntry};
        let data = dataset(1000, 1024 * 1024);
        let config =
            OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(100);
        let cluster = ClusterSpec::paper_testbed();
        let cold = choose_plan(&data, &config, &cluster).unwrap();
        let (first, second) = (cold.choices[0].plan, cold.choices[1].plan);
        // Teach the model that the static winner actually runs 100× its
        // prediction; a confident residual must demote it.
        let key = plan_feature_key(
            &format!("{:?}", config.gradient),
            &first,
            "local",
            data.descriptor(),
        );
        let mut snapshot = CalibrationSnapshot::identity();
        snapshot.generation = 7;
        snapshot.residuals = vec![ResidualEntry {
            key,
            factor: 100.0,
            observations: 10,
        }];
        snapshot.residuals.sort_by(|a, b| a.key.cmp(&b.key));
        let calibrated =
            choose_plan(&data, &config.clone().with_calibration(snapshot), &cluster).unwrap();
        assert_ne!(calibrated.best().plan, first, "the mispriced plan loses");
        assert_eq!(calibrated.best().plan, second);
        assert_eq!(calibrated.calibration.unwrap().generation, 7);
    }

    #[test]
    fn every_plan_is_priced_under_the_key_its_run_is_observed_under() {
        // A residual keyed by what a profiled run reports must reprice
        // exactly that plan: if the chooser spelled the backend
        // differently, the factor would silently never apply.
        use crate::calibration::{plan_feature_key, CalibrationSnapshot, ResidualEntry};
        let cluster = ClusterSpec::paper_testbed();
        let analogs = [
            (dataset(1000, 7 * 1024 * 1024), "local"),
            (dataset(2000, 10 * 1024 * 1024 * 1024), "simulated-cluster"),
        ];
        for (data, backend) in analogs {
            let config =
                OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(3);
            let report = choose_plan(&data, &config, &cluster).unwrap();
            assert_eq!(report.choices.len(), 11);
            for choice in &report.choices {
                let run = profile_choice(choice, &data, &config, &cluster)
                    .unwrap()
                    .expect("three iterations do not diverge");
                assert_eq!(run.backend, backend, "{}", choice.plan);
                let mut snapshot = CalibrationSnapshot::identity();
                snapshot.residuals = vec![ResidualEntry {
                    key: plan_feature_key(
                        &format!("{:?}", config.gradient),
                        &choice.plan,
                        run.backend,
                        data.descriptor(),
                    ),
                    factor: 2.0,
                    observations: 10,
                }];
                let priced =
                    choose_plan(&data, &config.clone().with_calibration(snapshot), &cluster)
                        .unwrap();
                let row = priced
                    .choices
                    .iter()
                    .find(|c| c.plan == choice.plan)
                    .expect("same plan space");
                assert_eq!(
                    row.calibrated_s.unwrap().to_bits(),
                    (row.total_s * 2.0).to_bits(),
                    "{}: priced under a different key than it is observed under",
                    choice.plan
                );
            }
        }
    }

    #[test]
    fn max_iter_caps_estimated_iterations() {
        let data = dataset(1000, 1024 * 1024);
        let config =
            OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(50);
        let report = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap();
        for c in &report.choices {
            assert!(c.estimated_iterations <= 50);
        }
    }
}
