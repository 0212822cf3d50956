//! The speculation-based iterations estimator — Section 5, Algorithm 1.
//!
//! To estimate how many iterations a GD algorithm needs to reach tolerance
//! `ε_d` on dataset `D`:
//!
//! 1. take a small sample `D′` of `D` (default 1 000 points);
//! 2. run the algorithm on `D′` under `SpeculationLoop`, which feeds
//!    every convergence delta `(i, εᵢ)` to a running `a/ε` fit
//!    ([`RunningFit::push_min`]) before it asks the reference stop whether
//!    to go on. The run stops at the (large) speculation tolerance `ε_s`
//!    (default 0.05), at the iteration cap `max_iterations` — the
//!    deterministic stand-in for the paper's time budget `B`, so the
//!    estimate is a pure function of the run — or at the cap stop below;
//! 3. the loop's fit is the estimate: its running-min pairs, `a`, and R²,
//!    the run-ending point included;
//! 4. return `T(ε_d) = ⌈a/ε_d⌉`.
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
//!
//! **The cap stop.** The chooser prices a plan at `min(⌈a/ε_d⌉, max_iter)`,
//! so once `a` stays at or above `θ = max_iter · ε_d` the rest of the run
//! cannot move a priced bit. `a = Σ(i/εᵢ) / Σ(1/εᵢ²)` over the running-min
//! points, so the final `a` is a weighted mean of the current `a_k` and
//! each later point's `i′·ε′`. Speculation therefore stops at the first
//! new running-min point `k` with at least two points, `⌈a_k/ε_d⌉ ≥
//! max_iter` and `(k+1)·ε_s ≥ θ`: a later point that does not end the run
//! has `i′ ≥ k+1` and `ε′ ≥ ε_s`, so `i′·ε′ ≥ θ` and the mean stays at or
//! above the cap.
//!
//! The stop is exact except in one case: the point that would end the run
//! *by converging* below `ε_s`. Its `i′·ε′` may be anything and its weight
//! `1/ε′²` is the largest of all, so it can pull `a` under the cap. A BGD
//! or MGD delta is a step over a wave of rows and has not been seen to
//! fall far across `ε_s`: `tests/speculation_exactness.rs` (five registry
//! analogs, two target tolerances, three speculation seeds) and a 12-seed
//! probe found no priced value that moved. An SGD delta is one row's step,
//! and one draw can end the run orders of magnitude below every earlier
//! point: on the rcv1 analog at `ε_d = 10⁻³` (4 000 rows), 5 of 12
//! speculation seeds stopped at the cap while the full run, ending on a
//! delta as small as `1.5·10⁻⁴`, priced 1–870 iterations. So SGD
//! speculates under the cap `u64::MAX`, which turns the stop off, and runs
//! to `ε_s`; its iterations are one row each. A run whose estimate binds
//! (stays under the cap) runs exactly as without the stop, so its estimate
//! is unchanged.

use std::sync::{Arc, Mutex, PoisonError};

use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset, SamplingMethod, SimEnv};
use ml4all_gd::executor::reference_operators;
use ml4all_gd::{
    execute, Context, ExecHooks, GdOperators, GdPlan, GdVariant, LoopOp, TrainParams,
    TransformPolicy,
};
use serde::{Deserialize, Serialize};

use crate::curvefit::{iterations_at, CurveFit, RunningFit};
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
    /// Exact Algorithm 1 whenever it is below the request's `max_iter`.
    /// At or above it, BGD and MGD speculation may have stopped early (the
    /// module doc's cap stop), and the value then only shows that the
    /// estimate clears the cap. `min(iterations, max_iter)`, what the
    /// chooser prices, is then the full run's, except when the full run
    /// would have ended on a converging point below `ε_s` that pulls its
    /// estimate under the cap, which was not seen for BGD or MGD.
    pub iterations: u64,
    /// The fit the speculation loop kept as it ran, over [`Self::pairs`].
    /// A run that converged before a second point anchors `a = i·εᵢ` on its
    /// last point, with R² 1.
    pub fit: CurveFit,
    /// Iterations actually executed during speculation: until `ε_s`, the
    /// speculation cap, or (BGD and MGD) the first running-min point at
    /// which the estimate clears the request's `max_iter` and the bound of
    /// the module doc's cap stop holds, whichever comes first.
    pub speculation_iterations: u64,
    /// The running-min `(iteration, error)` pairs the loop kept: every
    /// delta that was finite, positive and a new best, up to and including
    /// the one the run stopped on.
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
/// (BGD runs over all of `D′`; MGD and SGD draw from `D′`). `params.max_iter`
/// is the cap the estimate is priced under: BGD and MGD speculation stops
/// once the estimate clears it under the bound of the module doc's cap
/// stop; pass `u64::MAX` for the full run, as SGD always speculates.
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
    // The loop keeps the fit; the executor records nothing.
    spec_params.record_error_seq = false;
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

    let ops = reference_operators(&plan, &spec_params, sample.descriptor().dims);
    // One row's step can end an SGD run far below every earlier point, the
    // case the cap stop does not cover (module doc): SGD runs to `ε_s`.
    let cap = if variant == GdVariant::Stochastic {
        u64::MAX
    } else {
        params.max_iter
    };
    let stop = SpeculationLoop::new(ops.loop_op, config.tolerance, target_tolerance, cap);
    let fit = Arc::clone(&stop.fit);
    let ops = GdOperators {
        loop_op: Box::new(stop),
        ..ops
    };
    let result = execute(
        &plan,
        sample,
        &ops,
        &spec_params,
        &mut env,
        &ExecHooks::default(),
    )?;
    let fit = std::mem::take(&mut *fit.lock().unwrap_or_else(PoisonError::into_inner));
    let curve = match fit.curve() {
        Some(curve) => curve,
        None if result.converged() || result.final_delta <= config.tolerance => {
            // The run hit the speculation tolerance almost immediately
            // (typical for SGD on hinge losses, where one in-margin sample
            // yields a zero delta — the effect behind the paper's 4–8
            // iteration SGD runs on dense SVM data, Table 4). Anchor the
            // inverse law on the last observed point: `a = i·εᵢ`.
            let a = fit.pairs().last().map_or(0.0, |&(i, e)| i as f64 * e);
            CurveFit {
                a,
                r_squared: 1.0,
                points: fit.pairs().len(),
            }
        }
        None => {
            return Err(OptimizerError::InsufficientSpeculation {
                plan: plan.name(),
                pairs: fit.pairs().len(),
            })
        }
    };

    Ok(IterationsEstimate {
        iterations: curve.iterations_for(target_tolerance),
        fit: curve,
        speculation_iterations: result.iterations,
        pairs: fit.into_pairs(),
        speculation_sim_s: env.elapsed_s(),
    })
}

/// Algorithm 1's `Loop`: the speculation stop it wraps (the reference
/// [`ToleranceLoop`](ml4all_gd::operators::ToleranceLoop) on `ε_s` and the
/// speculation cap) plus the running fit and the cap stop of the module
/// doc. Every delta goes to the fit before the wrapped stop is asked, so
/// the point that ends the run is fitted too. The fit sits behind a mutex
/// only because [`LoopOp::should_continue`] takes `&self` and the caller
/// reads the fit back after the run; one run's driver thread is its only
/// user while the run lasts.
pub(crate) struct SpeculationLoop {
    /// The speculation stop the cap stop adds to.
    base: Box<dyn LoopOp>,
    /// Speculation tolerance `ε_s`, for the floor `(k+1)·ε_s ≥ θ`.
    tolerance: f64,
    /// Target tolerance `ε_d` the estimate is for.
    target_tolerance: f64,
    /// The cap `max_iter` the estimate is priced under; `u64::MAX` turns
    /// the cap stop off.
    max_iter: u64,
    /// The running-min fit of the deltas seen so far.
    fit: Arc<Mutex<RunningFit>>,
}

impl SpeculationLoop {
    /// `base` with the running fit and the cap stop for estimating
    /// `target_tolerance` under the cap `max_iter`; `tolerance` is the
    /// `ε_s` that `base` stops on.
    pub(crate) fn new(
        base: Box<dyn LoopOp>,
        tolerance: f64,
        target_tolerance: f64,
        max_iter: u64,
    ) -> Self {
        Self {
            base,
            tolerance,
            target_tolerance,
            max_iter,
            fit: Arc::default(),
        }
    }
}

impl LoopOp for SpeculationLoop {
    fn should_continue(&self, delta: f64, ctx: &Context) -> bool {
        let mut fit = self.fit.lock().unwrap_or_else(PoisonError::into_inner);
        let k = ctx.iteration;
        let new_point = fit.push_min(k, delta);
        if !self.base.should_continue(delta, ctx) {
            return false;
        }
        // The cap stop at a new point: `⌈a_k/ε_d⌉ ≥ max_iter` and the floor
        // `(k+1)·ε_s ≥ θ = max_iter · ε_d`.
        let theta = self.max_iter as f64 * self.target_tolerance;
        !(new_point
            && self.max_iter < u64::MAX
            && (fit.a()).is_some_and(|a| iterations_at(a, self.target_tolerance) >= self.max_iter)
            && (k + 1) as f64 * self.tolerance >= theta)
    }
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
    use ml4all_gd::operators::ToleranceLoop;
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

    /// Feed `(iteration, delta)` boundaries to a loop; the iteration it
    /// stopped at, if it did.
    fn stops_at(op: &SpeculationLoop, boundaries: &[(u64, f64)]) -> Option<u64> {
        let mut ctx = Context::new(1);
        boundaries.iter().find_map(|&(i, delta)| {
            ctx.iteration = i;
            (!op.should_continue(delta, &ctx)).then_some(i)
        })
    }

    #[test]
    fn cap_stop_waits_for_the_floor_and_misses_only_a_converging_point() {
        // ε_s = 0.05, ε_d = 10⁻³, cap 1 000: θ = 1, so the floor
        // `(k+1)·ε_s ≥ θ` first holds at k = 19.
        let config = SpeculationConfig::default();
        let op_at = |target, max_iter| {
            let base = ToleranceLoop {
                tolerance: config.tolerance,
                max_iter: config.max_iterations,
            };
            SpeculationLoop::new(Box::new(base), config.tolerance, target, max_iter)
        };
        let op_with_cap = |max_iter| op_at(1e-3, max_iter);
        let op = || op_with_cap(1000);
        // a = 20 (T = 20 000) from the second point on, but k = 10 is
        // under the floor; the next new running min past it stops the run,
        // and a repeated or worse delta is no new point.
        let seq = [(5, 4.0), (10, 2.0), (15, 2.0), (18, 3.0), (20, 1.0)];
        assert_eq!(stops_at(&op(), &seq), Some(20));
        assert_eq!(stops_at(&op(), &seq[..4]), None);
        let prefix = [(5, 4.0), (10, 2.0), (20, 1.0)];
        let at_stop = CurveFit::fit(&prefix).unwrap().iterations_for(1e-3);
        assert!(at_stop >= 1000);
        // No point the run can go on past may pull the estimate under the
        // cap: it has `i′ ≥ 21` and `ε′ ≥ ε_s`, so `i′·ε′ ≥ θ`...
        for later in [(21, 0.05), (21, 0.9), (400, 0.05), (5000, 0.06)] {
            let pairs = [&prefix[..], &[later]].concat();
            let t = CurveFit::fit(&pairs).unwrap().iterations_for(1e-3);
            assert!(t >= 1000, "{later:?} priced {t}");
        }
        // ...but the point that ends the run by converging below `ε_s` is
        // the one case the bound does not cover: the full run prices 253.
        let converged = [&prefix[..], &[(25, 0.01)]].concat();
        assert_eq!(CurveFit::fit(&converged).unwrap().iterations_for(1e-3), 253);
        // The wrapped stop still ends the run below `ε_s`; under the cap
        // `u64::MAX` (the full run) nothing else does.
        assert_eq!(stops_at(&op(), &[(1, 1.0), (2, 0.04)]), Some(2));
        assert_eq!(stops_at(&op_with_cap(u64::MAX), &seq), None);
        // Not even at `ε_d = 0`, where every estimate is `u64::MAX`.
        assert_eq!(stops_at(&op_at(0.0, u64::MAX), &seq), None);
        // The loop fits each point before the wrapped stop is asked, so the
        // run-ending point is in the fit it keeps.
        let full = op_with_cap(u64::MAX);
        assert_eq!(stops_at(&full, &converged), Some(25));
        let fit = full.fit.lock().unwrap();
        assert_eq!(fit.pairs(), &converged[..]);
        assert_eq!(fit.curve().unwrap().iterations_for(1e-3), 253);
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
