//! Cost-model conformance: execute every plan-space point through its
//! mapped backend and compare the ledger-**measured** cost with the cost
//! model's **prediction** (Sections 5–7; the validation the paper performs
//! against its physical cluster, here against the instrumented simulator).
//!
//! Two properties are checked per dataset:
//!
//! 1. **Cost tracking** — for a fixed iteration count, every plan's
//!    measured total lies inside a stated band around its prediction. The
//!    bands ([`band_for`]) are tight for non-Bernoulli plans (the executor
//!    charges exactly the modelled equations; only float association
//!    differs) and wider for Bernoulli sampling, whose draw count is
//!    binomial and whose empty draws rescan (the model charges the single
//!    expected scan).
//! 2. **Argmin stability** — re-ranking the plan table by measured cost
//!    leaves the chooser's winner unchanged, so the optimizer would pick
//!    the same plan if it could observe real executions (Table 4's chosen
//!    plans as executable goldens).

use ml4all_calibrate::{Calibrator, CalibratorConfig, JobObservation};
use ml4all_core::calibration::{plan_feature_key, CalibrationSnapshot};
use ml4all_core::chooser::{choose_plan, profile_choice, OptimizerConfig};
use ml4all_dataflow::{ClusterSpec, SamplingMethod, RNG_STREAM_VERSION};
use ml4all_datasets::registry::DatasetSpec;
use ml4all_gd::GdVariant;
use serde::Serialize;

use crate::harness::task_gradient;

/// Relative tolerance for plans whose execution charges the exact model
/// equations (everything except Bernoulli sampling): only floating-point
/// association separates measured from predicted.
pub const EXACT_REL_TOL: f64 = 1e-6;

/// Measured/predicted band for Bernoulli **mini-batch** plans: the drawn
/// count is Binomial(n, m/n) per iteration, so per-run averages wander a
/// few percent around the modelled `m`.
pub const BERNOULLI_MGD_BAND: (f64, f64) = (0.85, 1.15);

/// Measured/predicted band for Bernoulli **SGD**: with inclusion
/// probability 1/n a draw comes back empty with probability ≈ 1/e and the
/// sampler rescans, so the measured scan cost concentrates near
/// e/(e−1) ≈ 1.58× the single modelled scan.
pub const BERNOULLI_SGD_BAND: (f64, f64) = (0.999, 2.2);

/// The conformance band for one plan, as `(lo, hi)` bounds on
/// measured/predicted.
pub fn band_for(plan: &ml4all_gd::GdPlan) -> (f64, f64) {
    match (plan.sampling, plan.variant) {
        (Some(SamplingMethod::Bernoulli), GdVariant::Stochastic) => BERNOULLI_SGD_BAND,
        (Some(SamplingMethod::Bernoulli), _) => BERNOULLI_MGD_BAND,
        _ => (1.0 - EXACT_REL_TOL, 1.0 + EXACT_REL_TOL),
    }
}

/// One plan-space point: prediction, measurement, and verdict.
#[derive(Debug, Clone, Serialize)]
pub struct ConformanceRow {
    /// Plan name (`MGD-eager-bernoulli`, …).
    pub plan: String,
    /// Backend the measurement executed on.
    pub backend: String,
    /// Cost-model prediction in simulated seconds.
    pub predicted_s: f64,
    /// Ledger-measured execution cost in simulated seconds.
    pub measured_s: f64,
    /// `measured_s / predicted_s`.
    pub ratio: f64,
    /// The `(lo, hi)` band this plan must satisfy.
    pub band: (f64, f64),
    /// `band.0 <= ratio <= band.1`.
    pub within_band: bool,
    /// Physical tuples the backend metered during the measurement.
    pub tuples_scanned: u64,
    /// Bytes the backend metered across the simulated interconnect.
    pub bytes_shuffled: u64,
}

/// The full sweep over one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct DatasetConformance {
    /// Registry dataset name.
    pub dataset: String,
    /// Fixed iteration count the sweep was costed and executed with.
    pub iterations: u64,
    /// All plan-space points, predicted-cheapest first.
    pub rows: Vec<ConformanceRow>,
    /// The chooser's winner under predicted costs.
    pub predicted_argmin: String,
    /// The winner when measured costs are substituted.
    pub measured_argmin: String,
}

impl DatasetConformance {
    /// `true` when substituting measured costs leaves the winner unchanged.
    pub fn argmin_stable(&self) -> bool {
        self.predicted_argmin == self.measured_argmin
    }
}

/// A whole conformance report (the CI JSON artifact).
#[derive(Debug, Clone, Serialize)]
pub struct ConformanceReport {
    /// RNG stream version the measurements reproduce under.
    pub rng_stream_version: u32,
    /// Per-dataset sweeps.
    pub datasets: Vec<DatasetConformance>,
}

impl ConformanceReport {
    /// Build a report over `sweeps`.
    pub fn new(datasets: Vec<DatasetConformance>) -> Self {
        Self {
            rng_stream_version: RNG_STREAM_VERSION,
            datasets,
        }
    }

    /// Serialize to pretty JSON for the CI artifact (pretty so successive
    /// CI runs diff line by line, not as one opaque blob).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("conformance report serializes")
    }

    /// Write the JSON artifact to the path named by the `CONFORMANCE_JSON`
    /// environment variable, if set. Returns the path written.
    pub fn write_if_requested(&self) -> Option<std::path::PathBuf> {
        let path = std::env::var_os("CONFORMANCE_JSON")?;
        let path = std::path::PathBuf::from(path);
        std::fs::write(&path, self.to_json()).expect("write conformance JSON");
        Some(path)
    }
}

/// Sweep every plan of the Figure 5 space on one registry dataset scaled
/// to `max_physical` rows: cost the table with `iterations` fixed, execute
/// each plan through its mapped backend for exactly that iteration count,
/// and record predicted vs measured.
pub fn sweep_dataset(
    spec: &DatasetSpec,
    max_physical: usize,
    iterations: u64,
    seed: u64,
    cluster: &ClusterSpec,
) -> DatasetConformance {
    sweep_with(spec, max_physical, iterations, seed, cluster, None, None)
}

/// The general sweep: optionally price the plan table under a
/// [`CalibrationSnapshot`] (the calibrated pass of the double sweep), and
/// optionally feed every (prediction, measurement) pair into a
/// [`Calibrator`] as it executes (the fitting pass). `predicted_s` is the
/// chooser's ranking cost — the calibrated total when a snapshot was
/// supplied, the static model's otherwise.
pub fn sweep_with(
    spec: &DatasetSpec,
    max_physical: usize,
    iterations: u64,
    seed: u64,
    cluster: &ClusterSpec,
    calibration: Option<CalibrationSnapshot>,
    mut observer: Option<&mut Calibrator>,
) -> DatasetConformance {
    let data = spec
        .build(max_physical, seed, cluster)
        .expect("registry dataset builds");
    let mut config =
        OptimizerConfig::new(task_gradient(spec.task)).with_fixed_iterations(iterations);
    config.seed = seed;
    if let Some(snapshot) = calibration {
        config = config.with_calibration(snapshot);
    }
    let mut report = choose_plan(&data, &config, cluster).expect("plan space is costable");

    let mut rows = Vec::with_capacity(report.choices.len());
    for choice in &mut report.choices {
        // The same profiling protocol EXPLAIN's measured column uses; a
        // diverging plan (Ok(None)) *is* a conformance failure here —
        // the model costed a plan that cannot execute.
        let result = profile_choice(choice, &data, &config, cluster)
            .expect("plan executes")
            .unwrap_or_else(|| panic!("{} diverged during conformance profiling", choice.plan));
        choice.measured_s = Some(result.sim_time_s);
        let predicted_s = choice.ranking_s();
        let ratio = result.sim_time_s / predicted_s;
        let band = band_for(&choice.plan);
        if let Some(cal) = observer.as_deref_mut() {
            // Feed the executed point to the fitting calibrator exactly as
            // the engine's post-job hook would: the analytical cost vector
            // at the executed iteration count against the run's ledger.
            cal.observe(&JobObservation {
                key: plan_feature_key(
                    &format!("{:?}", config.gradient),
                    &choice.plan,
                    result.backend,
                    data.descriptor(),
                ),
                predicted: choice.cost_at(iterations).unwrap_or_default(),
                predicted_total_s: choice.total_s,
                measured: result.cost,
                measured_total_s: result.sim_time_s,
                usage: result.usage.clone(),
            });
        }
        rows.push(ConformanceRow {
            plan: choice.plan.name(),
            backend: result.backend.to_string(),
            predicted_s,
            measured_s: result.sim_time_s,
            ratio,
            band,
            within_band: band.0 <= ratio && ratio <= band.1,
            tuples_scanned: result.usage.tuples_scanned,
            bytes_shuffled: result.usage.bytes_shuffled,
        });
    }

    DatasetConformance {
        dataset: spec.name.to_string(),
        iterations,
        rows,
        predicted_argmin: report.best().plan.name(),
        // One tie-break rule for "measured argmin" everywhere: the
        // report's own selection, not a re-implementation.
        measured_argmin: report
            .measured_best()
            .expect("every choice was profiled")
            .plan
            .name(),
    }
}

/// Calibrator settings for the conformance double sweep: a **single-pass
/// fit**, not an online tracker. `alpha = 0` freezes the unit-cost scales
/// at identity so every plan's residual is measured against the same
/// rescaled baseline it is later applied to (an EWMA-drifting scale would
/// reprice early observations against a baseline that no longer exists),
/// and `min_observations = 1` opens the confidence gate after the one
/// observation per plan shape the sweep produces.
pub fn conformance_fit() -> CalibratorConfig {
    CalibratorConfig {
        alpha: 0.0,
        min_observations: 1,
        ..CalibratorConfig::default()
    }
}

/// One plan of the cold/calibrated comparison: the same measurement
/// against both predictions, with relative errors.
#[derive(Debug, Clone, Serialize)]
pub struct CalibratedPlanRow {
    /// Plan name.
    pub plan: String,
    /// Ledger-measured execution cost (bit-identical across both sweeps —
    /// calibration changes pricing, never execution).
    pub measured_s: f64,
    /// The static model's prediction (sweep 1).
    pub cold_predicted_s: f64,
    /// The calibrated prediction (sweep 2).
    pub calibrated_predicted_s: f64,
    /// `|cold_predicted_s - measured_s| / measured_s`.
    pub cold_error: f64,
    /// `|calibrated_predicted_s - measured_s| / measured_s`.
    pub calibrated_error: f64,
}

/// The cold/calibrated double sweep over one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct CalibrationConformance {
    /// Registry dataset name.
    pub dataset: String,
    /// Fixed iteration count of both sweeps.
    pub iterations: u64,
    /// Calibration generation after the fitting pass (= plans observed).
    pub generation: u64,
    /// Residual-table confidence of the applied snapshot.
    pub residual_confidence: f64,
    /// Per-plan comparison, cold-cheapest first.
    pub rows: Vec<CalibratedPlanRow>,
    /// Mean relative error of the static model.
    pub cold_aggregate_error: f64,
    /// Mean relative error of the calibrated model.
    pub calibrated_aggregate_error: f64,
}

impl CalibrationConformance {
    /// `true` when calibration strictly tightened the aggregate error.
    pub fn strictly_tighter(&self) -> bool {
        self.calibrated_aggregate_error < self.cold_aggregate_error
    }
}

/// Run the double sweep on one dataset: sweep cold while fitting a
/// [`Calibrator`] from each executed plan, snapshot it, sweep again under
/// the snapshot, and pair the two predictions per plan. The fitting pass
/// prices under the identity snapshot — bit-identical to the static model
/// ([`CalibrationSnapshot::identity`]) but carrying the per-plan cost
/// vectors the observations need.
pub fn calibration_sweep(
    spec: &DatasetSpec,
    max_physical: usize,
    iterations: u64,
    seed: u64,
    cluster: &ClusterSpec,
) -> CalibrationConformance {
    let mut calibrator = Calibrator::new(conformance_fit());
    let cold = sweep_with(
        spec,
        max_physical,
        iterations,
        seed,
        cluster,
        Some(CalibrationSnapshot::identity()),
        Some(&mut calibrator),
    );
    let snapshot = calibrator.snapshot();
    let calibrated = sweep_with(
        spec,
        max_physical,
        iterations,
        seed,
        cluster,
        Some(snapshot.clone()),
        None,
    );

    let rows: Vec<CalibratedPlanRow> = cold
        .rows
        .iter()
        .map(|c| {
            // The calibrated chooser may re-rank the table; pair by plan.
            let k = calibrated
                .rows
                .iter()
                .find(|r| r.plan == c.plan)
                .unwrap_or_else(|| panic!("{} missing from the calibrated sweep", c.plan));
            assert_eq!(
                c.measured_s.to_bits(),
                k.measured_s.to_bits(),
                "{}: calibration must not perturb execution",
                c.plan
            );
            CalibratedPlanRow {
                plan: c.plan.clone(),
                measured_s: c.measured_s,
                cold_predicted_s: c.predicted_s,
                calibrated_predicted_s: k.predicted_s,
                cold_error: (c.predicted_s - c.measured_s).abs() / c.measured_s,
                calibrated_error: (k.predicted_s - k.measured_s).abs() / k.measured_s,
            }
        })
        .collect();

    let mean = |f: fn(&CalibratedPlanRow) -> f64| {
        rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64
    };
    CalibrationConformance {
        dataset: cold.dataset,
        iterations,
        generation: snapshot.generation,
        residual_confidence: snapshot.residual_confidence(),
        cold_aggregate_error: mean(|r| r.cold_error),
        calibrated_aggregate_error: mean(|r| r.calibrated_error),
        rows,
    }
}

/// The CI artifact of the calibration double sweep (`CALIBRATION_JSON`).
#[derive(Debug, Clone, Serialize)]
pub struct CalibrationReport {
    /// RNG stream version the measurements reproduce under.
    pub rng_stream_version: u32,
    /// Mean cold relative error across every dataset's plans.
    pub cold_total_error: f64,
    /// Mean calibrated relative error across every dataset's plans.
    pub calibrated_total_error: f64,
    /// Per-dataset double sweeps.
    pub datasets: Vec<CalibrationConformance>,
}

impl CalibrationReport {
    /// Build a report over per-dataset double sweeps.
    pub fn new(datasets: Vec<CalibrationConformance>) -> Self {
        let rows: Vec<&CalibratedPlanRow> = datasets.iter().flat_map(|d| d.rows.iter()).collect();
        let n = rows.len().max(1) as f64;
        Self {
            rng_stream_version: RNG_STREAM_VERSION,
            cold_total_error: rows.iter().map(|r| r.cold_error).sum::<f64>() / n,
            calibrated_total_error: rows.iter().map(|r| r.calibrated_error).sum::<f64>() / n,
            datasets,
        }
    }

    /// Serialize to pretty JSON for the CI artifact.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("calibration report serializes")
    }

    /// Write the JSON artifact to the path named by the `CALIBRATION_JSON`
    /// environment variable, if set. Returns the path written.
    pub fn write_if_requested(&self) -> Option<std::path::PathBuf> {
        let path = std::env::var_os("CALIBRATION_JSON")?;
        let path = std::path::PathBuf::from(path);
        std::fs::write(&path, self.to_json()).expect("write calibration JSON");
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4all_datasets::registry;

    #[test]
    fn sweep_covers_the_whole_plan_space() {
        let cluster = ClusterSpec::paper_testbed();
        let sweep = sweep_dataset(&registry::adult(), 600, 10, 3, &cluster);
        assert_eq!(sweep.rows.len(), 11);
        assert_eq!(sweep.iterations, 10);
        assert!(sweep.rows.iter().all(|r| r.predicted_s > 0.0));
        assert!(sweep.rows.iter().all(|r| r.measured_s > 0.0));
        // Predicted-cheapest ordering is preserved from the chooser.
        for w in sweep.rows.windows(2) {
            assert!(w[0].predicted_s <= w[1].predicted_s);
        }
    }

    #[test]
    fn bands_are_plan_dependent() {
        use ml4all_gd::{GdPlan, TransformPolicy};
        assert_eq!(
            band_for(&GdPlan::bgd()),
            (1.0 - EXACT_REL_TOL, 1.0 + EXACT_REL_TOL)
        );
        let sgd_b = GdPlan::sgd(TransformPolicy::Eager, SamplingMethod::Bernoulli).unwrap();
        assert_eq!(band_for(&sgd_b), BERNOULLI_SGD_BAND);
        let mgd_b = GdPlan::mgd(100, TransformPolicy::Eager, SamplingMethod::Bernoulli).unwrap();
        assert_eq!(band_for(&mgd_b), BERNOULLI_MGD_BAND);
    }

    #[test]
    fn the_double_sweep_tightens_every_plan_and_the_aggregate() {
        let cluster = ClusterSpec::paper_testbed();
        let cal = calibration_sweep(&registry::adult(), 600, 10, 3, &cluster);
        assert_eq!(cal.rows.len(), 11);
        assert_eq!(cal.generation, 11, "one observation per plan");
        assert_eq!(cal.residual_confidence, 1.0, "the fit gate is open");
        for row in &cal.rows {
            assert!(
                row.calibrated_error <= row.cold_error + 1e-6,
                "{}: calibrated {} vs cold {}",
                row.plan,
                row.calibrated_error,
                row.cold_error
            );
        }
        assert!(
            cal.strictly_tighter(),
            "aggregate {} !< {}",
            cal.calibrated_aggregate_error,
            cal.cold_aggregate_error
        );
        // The one-shot fit repriced each observed shape onto its own
        // measurement, so the calibrated error is numerically tiny.
        assert!(cal.calibrated_aggregate_error < 1e-9);
    }

    #[test]
    fn the_identity_priced_fitting_pass_matches_the_cold_sweep() {
        let cluster = ClusterSpec::paper_testbed();
        let cold = sweep_dataset(&registry::adult(), 600, 10, 3, &cluster);
        let identity = sweep_with(
            &registry::adult(),
            600,
            10,
            3,
            &cluster,
            Some(CalibrationSnapshot::identity()),
            None,
        );
        for (a, b) in cold.rows.iter().zip(&identity.rows) {
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.predicted_s.to_bits(), b.predicted_s.to_bits());
            assert_eq!(a.measured_s.to_bits(), b.measured_s.to_bits());
        }
        assert_eq!(cold.predicted_argmin, identity.predicted_argmin);
    }

    #[test]
    fn report_serializes_with_stream_version() {
        // Hand-built report: serialization needs no actual sweep.
        let report = ConformanceReport::new(vec![DatasetConformance {
            dataset: "unit".into(),
            iterations: 5,
            rows: vec![ConformanceRow {
                plan: "BGD".into(),
                backend: "local".into(),
                predicted_s: 2.0,
                measured_s: 2.0,
                ratio: 1.0,
                band: (0.9, 1.1),
                within_band: true,
                tuples_scanned: 0,
                bytes_shuffled: 0,
            }],
            predicted_argmin: "BGD".into(),
            measured_argmin: "BGD".into(),
        }]);
        let json = report.to_json();
        assert!(json.contains("\"rng_stream_version\""));
        assert!(json.contains("\"predicted_argmin\""));
        assert!(report.datasets[0].argmin_stable());
    }
}
