//! The speculation-based iterations estimator — Section 5, Algorithm 1.
//!
//! To estimate how many iterations a GD algorithm needs to reach tolerance
//! `ε_d` on dataset `D`:
//!
//! 1. take a small sample `D′` of `D` (default 1 000 points);
//! 2. run the algorithm on `D′` until it reaches the (large) speculation
//!    tolerance `ε_s` (default 0.05) or the iteration cap
//!    `max_iterations` — the deterministic stand-in for the paper's time
//!    budget `B`, so the estimate is a pure function of the run;
//! 3. collect the error sequence `{(i, εᵢ)}`;
//! 4. fit `T(ε) = a/ε` and return `T(ε_d) = a/ε_d`.
//!
//! The sample size keeps the speculative runs fast, and — the paper's key
//! observation — the *shape* of the error sequence over a sample matches
//! the shape over the full data, so the fitted `a` transfers.
//!
//! Step 1 depends only on the data and the speculation seed, so the
//! chooser draws `D′` once ([`speculation_sample`], rows copied straight
//! into columnar storage) and runs steps 2–4 for BGD, SGD and MGD on that
//! one sample ([`estimate_on_sample`]); [`estimate_iterations`] is the
//! one-variant form that draws its own.

use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset, SamplingMethod, SimEnv};
use ml4all_gd::{execute_plan, GdPlan, GdVariant, TrainParams, TransformPolicy};
use serde::{Deserialize, Serialize};

use crate::curvefit::{running_min_error_seq, CurveFit};
use crate::OptimizerError;

/// Configuration of the speculation stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpeculationConfig {
    /// Sample size `|D′|` (paper default: 1 000).
    pub sample_size: usize,
    /// Speculation tolerance `ε_s` (paper default: 0.05; the experiments
    /// of Section 8.2 use 0.1).
    pub tolerance: f64,
    /// Cap on speculative iterations: the run stops here when `ε_s` is out
    /// of reach. It stands in for the paper's wall-clock budget `B`, so no
    /// timer can change an estimate.
    pub max_iterations: u64,
    /// RNG seed for the sample draw and the speculative run.
    pub seed: u64,
}

impl Default for SpeculationConfig {
    fn default() -> Self {
        Self {
            sample_size: 1000,
            tolerance: 0.05,
            max_iterations: 100_000,
            seed: 0x5EED,
        }
    }
}

impl SpeculationConfig {
    /// The Section 8.2 experiment settings: tolerance 0.1, sample 1 000.
    pub fn paper_experiments() -> Self {
        Self {
            tolerance: 0.1,
            ..Self::default()
        }
    }
}

/// Result of one speculative estimation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationsEstimate {
    /// Estimated iterations `T(ε_d)` to reach the requested tolerance.
    pub iterations: u64,
    /// The fitted curve.
    pub fit: CurveFit,
    /// Iterations actually executed during speculation.
    pub speculation_iterations: u64,
    /// Monotone `(iteration, error)` pairs the fit used.
    pub pairs: Vec<(u64, f64)>,
    /// Simulated cost of the speculative run: local GD on the collected
    /// sample, whose one collection job the chooser charges separately —
    /// the optimizer overhead visible in Figure 8.
    pub speculation_sim_s: f64,
}

/// Build the in-memory sample dataset `D′` (Algorithm 1, line 1).
///
/// The sample is a single-partition dataset whose descriptor reflects its
/// own (small) physical size: speculative runs execute at driver scale.
/// The drawn rows land in columnar storage directly
/// ([`PartitionedDataset::sample_rows`]); the chooser draws `D′` once and
/// speculates every variant on it.
pub fn speculation_sample(
    data: &PartitionedDataset,
    config: &SpeculationConfig,
    cluster: &ClusterSpec,
) -> Result<PartitionedDataset, OptimizerError> {
    let rows = data.sample_rows(config.sample_size, config.seed);
    let name = format!("{}-speculation", data.descriptor().name);
    Ok(PartitionedDataset::from_columns(
        name,
        &rows,
        PartitionScheme::RoundRobin,
        cluster,
    )?)
}

/// Estimate the iterations a GD variant needs to reach `target_tolerance`
/// on `data` (Algorithm 1): [`estimate_on_sample`] over a freshly drawn
/// [`speculation_sample`].
pub fn estimate_iterations(
    data: &PartitionedDataset,
    variant: GdVariant,
    params: &TrainParams,
    target_tolerance: f64,
    config: &SpeculationConfig,
    cluster: &ClusterSpec,
) -> Result<IterationsEstimate, OptimizerError> {
    estimate_on_sample(
        &speculation_sample(data, config, cluster)?,
        variant,
        params,
        target_tolerance,
        config,
        cluster,
    )
}

/// Algorithm 1, lines 2–4, on an already drawn sample `D′`. The
/// speculative plan runs the variant with eager transformation and
/// random-partition sampling *within the sample*, mirroring the paper
/// (BGD runs over all of `D′`; MGD and SGD draw from `D′`).
pub fn estimate_on_sample(
    sample: &PartitionedDataset,
    variant: GdVariant,
    params: &TrainParams,
    target_tolerance: f64,
    config: &SpeculationConfig,
    cluster: &ClusterSpec,
) -> Result<IterationsEstimate, OptimizerError> {
    let plan = speculative_plan(variant);

    let mut spec_params = params.clone();
    spec_params.tolerance = config.tolerance;
    spec_params.max_iter = config.max_iterations;
    spec_params.record_error_seq = true;
    // The run stops on `ε_s` or the cap alone, never on a clock.
    spec_params.wall_budget = None;
    spec_params.seed = config.seed;

    // Speculative runs execute locally on the already-collected sample:
    // no per-run Spark job (the chooser charges one collection job for
    // every variant it speculates, matching the paper's ~4 s overhead in
    // Section 8.3).
    let mut local_spec = cluster.clone();
    local_spec.job_init_s = 0.0;
    let mut env = SimEnv::new(local_spec);

    let result = execute_plan(&plan, sample, &spec_params, &mut env)?;
    let pairs = running_min_error_seq(&result.error_seq);
    let fit = match CurveFit::fit(&pairs) {
        Some(fit) => fit,
        None if result.converged() || result.final_delta <= config.tolerance => {
            // The run hit the speculation tolerance almost immediately
            // (typical for SGD on hinge losses, where one in-margin sample
            // yields a zero delta — the effect behind the paper's 4–8
            // iteration SGD runs on dense SVM data, Table 4). Anchor the
            // inverse law on the last observed point: `a = i·εᵢ`.
            let a = pairs.last().map(|&(i, e)| i as f64 * e).unwrap_or(0.0);
            CurveFit {
                a,
                r_squared: 1.0,
                points: pairs.len(),
            }
        }
        None => {
            return Err(OptimizerError::InsufficientSpeculation {
                plan: plan.name(),
                pairs: pairs.len(),
            })
        }
    };

    Ok(IterationsEstimate {
        iterations: fit.iterations_for(target_tolerance),
        fit,
        speculation_iterations: result.iterations,
        pairs,
        speculation_sim_s: env.elapsed_s(),
    })
}

fn speculative_plan(variant: GdVariant) -> GdPlan {
    match variant {
        GdVariant::Batch => GdPlan::bgd(),
        GdVariant::Stochastic | GdVariant::MiniBatch { .. } => GdPlan {
            variant,
            transform: TransformPolicy::Eager,
            sampling: Some(SamplingMethod::RandomPartition),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4all_gd::GradientKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize) -> PartitionedDataset {
        let mut rng = StdRng::seed_from_u64(3);
        let points = (0..n)
            .map(|_| {
                let x0: f64 = rng.gen_range(-1.0..1.0);
                let x1: f64 = rng.gen_range(-1.0..1.0);
                let label = if x0 + x1 > 0.0 { 1.0 } else { -1.0 };
                (label, [x0, x1])
            })
            .collect();
        PartitionedDataset::from_columns(
            "est",
            &points,
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap()
    }

    fn params() -> TrainParams {
        TrainParams::paper_defaults(GradientKind::LogisticRegression)
    }

    #[test]
    fn speculation_sample_is_capped_and_single_scale() {
        let data = dataset(5000);
        let cfg = SpeculationConfig {
            sample_size: 200,
            ..Default::default()
        };
        let sample = speculation_sample(&data, &cfg, &ClusterSpec::paper_testbed()).unwrap();
        assert_eq!(sample.physical_n(), 200);
        assert_eq!(sample.descriptor().n, 200);
    }

    #[test]
    fn bgd_estimate_extrapolates_beyond_speculation() {
        let data = dataset(4000);
        let cfg = SpeculationConfig {
            sample_size: 500,
            tolerance: 0.05,
            max_iterations: 5_000,
            seed: 1,
        };
        let est = estimate_iterations(
            &data,
            GdVariant::Batch,
            &params(),
            0.001,
            &cfg,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap();
        // Tighter tolerance must need at least as many iterations as were
        // run to reach the speculation tolerance.
        assert!(est.iterations >= est.speculation_iterations);
        assert!(est.fit.a > 0.0);
        assert!(!est.pairs.is_empty());
        assert!(est.speculation_sim_s > 0.0);
    }

    #[test]
    fn estimates_scale_inversely_with_tolerance() {
        let data = dataset(4000);
        let cfg = SpeculationConfig {
            sample_size: 500,
            max_iterations: 5_000,
            ..Default::default()
        };
        let cluster = ClusterSpec::paper_testbed();
        let coarse =
            estimate_iterations(&data, GdVariant::Batch, &params(), 0.01, &cfg, &cluster).unwrap();
        let fine =
            estimate_iterations(&data, GdVariant::Batch, &params(), 0.001, &cfg, &cluster).unwrap();
        // T(ε) = a/ε ⇒ 10× tighter tolerance ⇒ 10× the iterations (up to
        // the per-estimate ceil of `a/ε`, which skews the ratio slightly).
        let ratio = fine.iterations as f64 / coarse.iterations as f64;
        assert!(
            (ratio - 10.0).abs() < 0.5,
            "fine {} vs coarse {} (ratio {ratio:.2})",
            fine.iterations,
            coarse.iterations
        );
    }

    #[test]
    fn stochastic_variants_produce_estimates_too() {
        let data = dataset(4000);
        let cfg = SpeculationConfig {
            sample_size: 500,
            max_iterations: 3_000,
            ..Default::default()
        };
        let cluster = ClusterSpec::paper_testbed();
        for variant in [GdVariant::Stochastic, GdVariant::MiniBatch { batch: 50 }] {
            let est =
                estimate_iterations(&data, variant, &params(), 0.001, &cfg, &cluster).unwrap();
            assert!(est.iterations >= 1, "{variant:?}");
        }
    }

    #[test]
    fn iteration_cap_bounds_speculation() {
        let data = dataset(2000);
        let cfg = SpeculationConfig {
            sample_size: 500,
            tolerance: 1e-12, // unreachable → the cap is the only stop
            max_iterations: 300,
            seed: 5,
        };
        let estimate = || {
            estimate_iterations(
                &data,
                GdVariant::Batch,
                &params(),
                1e-3,
                &cfg,
                &ClusterSpec::paper_testbed(),
            )
            .unwrap()
        };
        let est = estimate();
        assert_eq!(est.speculation_iterations, cfg.max_iterations);
        assert_eq!(format!("{est:?}"), format!("{:?}", estimate()));
    }
}
