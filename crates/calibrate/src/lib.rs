//! Online calibration of the paper's analytical cost model, and the
//! mid-flight replanning policy built on top of it.
//!
//! The static model (Equations 3–9) prices plans from first principles:
//! bytes scanned over declared disk bandwidth, FLOPs over declared core
//! throughput, and so on. Real substrates drift from their declared specs,
//! and the drift is systematic — which makes it learnable. This crate
//! closes the loop, in three layers:
//!
//! 1. **Unit-cost scales** ([`Calibrator`]): after every executed job the
//!    engine feeds the (predicted cost vector, measured ledger) pair in as
//!    a [`JobObservation`]; a winsorized EWMA per ledger category
//!    (IO / CPU / network / overhead) refits the multiplicative scale each
//!    category's unit costs are off by.
//! 2. **Residual correction**: whatever the rescaled model still gets
//!    wrong per *plan shape* (algorithm × plan × backend × bucketed
//!    dataset shape — [`ml4all_core::plan_feature_key`]) is absorbed by a
//!    per-key multiplicative residual, also an EWMA, gated behind a
//!    minimum observation count so a single noisy job cannot steer the
//!    chooser.
//! 3. **Replanning trigger** ([`should_replan`]): during execution, each
//!    progress tick's delta implies an iteration count
//!    ([`observed_iterations`]); when it leaves `[0.5, 2]` times the count
//!    the running plan was priced at, past a warmup of 8 iterations, the
//!    trigger requests a yield ([`ml4all_gd::StopReason::Replan`]) so the
//!    engine can re-run the chooser on the iterations that observed count
//!    leaves and with calibrated costs.
//!
//! Everything here is deterministic: the learners are pure folds over the
//! observation sequence, the trigger is a pure function of each tick, and
//! the persisted profile round-trips f64 values exactly (the vendored JSON
//! writer emits shortest-roundtrip floats). The cold calibrator snapshots
//! to [`CalibrationSnapshot::identity`]-equivalent state, which the
//! chooser applies bit-invisibly.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ml4all_core::{CalibrationSnapshot, CostScales, ResidualEntry};
use ml4all_dataflow::{atomic_write, CostBreakdown, UsageMeter};
use ml4all_gd::IterationTick;
use serde::{Deserialize, Serialize};

/// Tuning knobs of the online learners.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibratorConfig {
    /// EWMA weight of the newest observation (0 = frozen, 1 = last-only).
    pub alpha: f64,
    /// Per-category scale clamp: observed ratios are winsorized into this
    /// band before they update a scale, so one pathological job cannot
    /// blow the model up (the "robust" in robust EWMA).
    pub scale_clamp: (f64, f64),
    /// Residual-factor clamp, same role as `scale_clamp`.
    pub residual_clamp: (f64, f64),
    /// A residual key needs at least this many observations before the
    /// chooser applies its factor.
    pub min_observations: u64,
}

impl Default for CalibratorConfig {
    fn default() -> Self {
        Self {
            alpha: 0.3,
            scale_clamp: (0.2, 5.0),
            residual_clamp: (0.1, 10.0),
            min_observations: 3,
        }
    }
}

/// One executed job, as the calibrator sees it: the analytical prediction
/// for the plan that actually ran (at the iteration count it actually
/// ran), and what the ledger measured.
#[derive(Debug, Clone)]
pub struct JobObservation {
    /// Plan-feature key of the executed plan
    /// ([`ml4all_core::plan_feature_key`]).
    pub key: String,
    /// Analytical cost vector: preparation + executed-iterations ×
    /// per-iteration, category-wise.
    pub predicted: CostBreakdown,
    /// Analytical scalar total for the same iteration count.
    pub predicted_total_s: f64,
    /// The executed run's ledger snapshot.
    pub measured: CostBreakdown,
    /// The executed run's total simulated seconds.
    pub measured_total_s: f64,
    /// Physical usage metered by the backend (tuples scanned, bytes
    /// shuffled, per-node busy seconds; empty on the local backend).
    pub usage: UsageMeter,
}

/// Internal residual state: EWMA factor plus the count that gates it.
#[derive(Debug, Clone, Copy)]
struct Residual {
    factor: f64,
    observations: u64,
}

/// The online learner. Feed it [`JobObservation`]s; take
/// [`Calibrator::snapshot`]s for the chooser; persist with
/// [`Calibrator::save`] / rebuild with [`Calibrator::load`].
#[derive(Debug, Clone)]
pub struct Calibrator {
    config: CalibratorConfig,
    scales: CostScales,
    residuals: BTreeMap<String, Residual>,
    generation: u64,
    observations: u64,
}

impl Calibrator {
    /// A cold calibrator: generation 0, identity scales, empty residual
    /// table. Its snapshot is bit-invisible to the chooser.
    pub fn new(config: CalibratorConfig) -> Self {
        Self {
            config,
            scales: CostScales::identity(),
            residuals: BTreeMap::new(),
            generation: 0,
            observations: 0,
        }
    }

    /// Rebuild a calibrator from a persisted snapshot.
    pub fn from_snapshot(snapshot: &CalibrationSnapshot, config: CalibratorConfig) -> Self {
        Self {
            config,
            scales: snapshot.scales,
            residuals: snapshot
                .residuals
                .iter()
                .map(|e| {
                    (
                        e.key.clone(),
                        Residual {
                            factor: e.factor,
                            observations: e.observations,
                        },
                    )
                })
                .collect(),
            generation: snapshot.generation,
            observations: snapshot.observations,
        }
    }

    /// Current calibration generation (bumped once per observed job).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total jobs observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Fold one executed job into the model: winsorized per-category EWMA
    /// on the unit-cost scales, then an EWMA residual for the job's
    /// plan-feature key on whatever the rescaled model still misses.
    /// Bumps the generation, which invalidates every cached plan choice.
    pub fn observe(&mut self, obs: &JobObservation) {
        let clamp = |v: f64, (lo, hi): (f64, f64)| v.clamp(lo, hi);
        let alpha = self.config.alpha;
        let pred = [
            obs.predicted.io_s,
            obs.predicted.cpu_s,
            obs.predicted.net_s,
            obs.predicted.overhead_s,
        ];
        let meas = [
            obs.measured.io_s,
            obs.measured.cpu_s,
            obs.measured.net_s,
            obs.measured.overhead_s,
        ];
        let mut scales = self.scales.as_array();
        for (i, scale) in scales.iter_mut().enumerate() {
            // A category the model priced at ~zero carries no signal for
            // its unit cost; skip rather than divide by noise.
            if pred[i] > 1e-9 && meas[i].is_finite() {
                let ratio = clamp(meas[i] / pred[i], self.config.scale_clamp);
                *scale += alpha * (ratio - *scale);
            }
        }
        self.scales = CostScales {
            io: scales[0],
            cpu: scales[1],
            net: scales[2],
            overhead: scales[3],
        };

        // Residual: measured total over the *rescaled* prediction, so the
        // per-key factor only absorbs what the scales cannot explain.
        let rescaled = obs
            .predicted
            .rescaled_total_s(self.scales.as_array())
            .max(1e-12);
        if obs.measured_total_s.is_finite() && obs.measured_total_s > 0.0 {
            let ratio = clamp(obs.measured_total_s / rescaled, self.config.residual_clamp);
            let entry = self.residuals.entry(obs.key.clone()).or_insert(Residual {
                factor: ratio,
                observations: 0,
            });
            entry.factor += alpha * (ratio - entry.factor);
            entry.observations += 1;
        }

        self.generation += 1;
        self.observations += 1;
    }

    /// An immutable view for the chooser: scales, gated residual table
    /// (sorted by key), and the generation stamp.
    pub fn snapshot(&self) -> CalibrationSnapshot {
        CalibrationSnapshot {
            generation: self.generation,
            scales: self.scales,
            residuals: self
                .residuals
                .iter()
                .map(|(key, r)| ResidualEntry {
                    key: key.clone(),
                    factor: r.factor,
                    observations: r.observations,
                })
                .collect(),
            min_observations: self.config.min_observations,
            observations: self.observations,
        }
    }

    /// Persist the profile crash-safely (temp + fsync + rename) as JSON.
    pub fn save(&self, path: &Path) -> Result<(), CalibrateError> {
        save_snapshot(&self.snapshot(), path)
    }

    /// Load a persisted profile; `Ok(None)` when none exists yet.
    pub fn load(path: &Path, config: CalibratorConfig) -> Result<Option<Self>, CalibrateError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CalibrateError::Io(e)),
        };
        let snapshot: CalibrationSnapshot =
            serde_json::from_str(&text).map_err(|e| CalibrateError::Format(e.to_string()))?;
        Ok(Some(Self::from_snapshot(&snapshot, config)))
    }
}

/// The profile's file name under an engine's `--state-dir`.
pub const PROFILE_FILE: &str = "calibration.json";

/// The profile path for a state directory.
pub fn profile_path(state_dir: &Path) -> PathBuf {
    state_dir.join(PROFILE_FILE)
}

/// [`Calibrator::save`] for a snapshot taken earlier, so a writer can
/// serialize and fsync the profile without holding the calibrator.
pub fn save_snapshot(snapshot: &CalibrationSnapshot, path: &Path) -> Result<(), CalibrateError> {
    let json =
        serde_json::to_string(snapshot).map_err(|e| CalibrateError::Format(e.to_string()))?;
    atomic_write(path, json.as_bytes())?;
    Ok(())
}

/// Calibration persistence errors.
#[derive(Debug)]
pub enum CalibrateError {
    /// Filesystem failure reading or writing the profile.
    Io(std::io::Error),
    /// The profile file exists but does not parse as a calibration
    /// snapshot.
    Format(String),
}

impl std::fmt::Display for CalibrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "calibration profile io error: {e}"),
            Self::Format(msg) => write!(f, "calibration profile malformed: {msg}"),
        }
    }
}

impl std::error::Error for CalibrateError {}

impl From<std::io::Error> for CalibrateError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Ticks at iterations below this never trigger a replan: the early
/// deltas describe the transient, not the rate the job converges at.
const REPLAN_WARMUP: u64 = 8;

/// A job replans when its observed iteration count leaves this band
/// around the priced one (`observed / priced`).
const REPLAN_BAND: (f64, f64) = (0.5, 2.0);

/// The iteration count a job's convergence implies at one point: the
/// curve `ε(i) = a/i` through `(iteration, delta)` has `a = delta ×
/// iteration`, so the job reaches `epsilon` after Algorithm 1's
/// `⌈a/epsilon⌉` ([`ml4all_core::curvefit::iterations_at`]) iterations.
/// Clamped to `[1, max_iter]`, the same `min(T, max_iter)` the chooser
/// prices a plan's iterations at. A function of the one point alone, so a
/// resumed run recomputes it bit for bit.
pub fn observed_iterations(iteration: u64, delta: f64, epsilon: f64, max_iter: u64) -> u64 {
    ml4all_core::curvefit::iterations_at(delta * iteration as f64, epsilon)
        .min(max_iter)
        .max(1)
}

/// Mid-flight replanning trigger: does `tick` contradict the `priced`
/// iteration count of the running plan (its chooser row's
/// `estimated_iterations`, already `min(T, max_iter)`)? It fires past
/// the warmup when the tick's delta is finite and positive and its
/// [`observed_iterations`] is outside `[0.5, 2]` times `priced`. A pure
/// function of the tick, so the decision is bit-identical across worker
/// counts, backends, and kill/resume boundaries.
pub fn should_replan(priced: u64, tick: &IterationTick, epsilon: f64, max_iter: u64) -> bool {
    if tick.iteration < REPLAN_WARMUP || !tick.delta.is_finite() || tick.delta <= 0.0 {
        return false;
    }
    let observed = observed_iterations(tick.iteration, tick.delta, epsilon, max_iter);
    let ratio = observed as f64 / priced as f64;
    !(REPLAN_BAND.0..=REPLAN_BAND.1).contains(&ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown(io: f64, cpu: f64, net: f64, overhead: f64) -> CostBreakdown {
        CostBreakdown {
            io_s: io,
            cpu_s: cpu,
            net_s: net,
            overhead_s: overhead,
        }
    }

    fn obs(key: &str, predicted: CostBreakdown, measured: CostBreakdown) -> JobObservation {
        JobObservation {
            key: key.into(),
            predicted_total_s: predicted.total_s(),
            measured_total_s: measured.total_s(),
            predicted,
            measured,
            usage: UsageMeter::default(),
        }
    }

    #[test]
    fn cold_calibrator_snapshots_to_identity() {
        let cal = Calibrator::new(CalibratorConfig::default());
        let snap = cal.snapshot();
        assert!(snap.is_identity());
        assert_eq!(snap.generation, 0);
        assert_eq!(snap.residuals.len(), 0);
    }

    #[test]
    fn scales_converge_toward_the_observed_ratio() {
        let mut cal = Calibrator::new(CalibratorConfig::default());
        let predicted = breakdown(10.0, 5.0, 2.0, 1.0);
        // The substrate's disk is 2× slower than declared; everything
        // else matches.
        let measured = breakdown(20.0, 5.0, 2.0, 1.0);
        for _ in 0..20 {
            cal.observe(&obs("k", predicted, measured));
        }
        let snap = cal.snapshot();
        assert!((snap.scales.io - 2.0).abs() < 1e-3, "io {}", snap.scales.io);
        assert!((snap.scales.cpu - 1.0).abs() < 1e-9);
        assert!((snap.scales.net - 1.0).abs() < 1e-9);
        assert_eq!(snap.generation, 20);
        // With the scales refit, the residual has nothing left to absorb.
        let factor = snap.residual_factor("k").expect("past the gate");
        assert!((factor - 1.0).abs() < 0.05, "residual {factor}");
    }

    #[test]
    fn residuals_absorb_shape_specific_error_and_gate_until_warm() {
        let mut cal = Calibrator::new(CalibratorConfig::default());
        // Categories agree (no scale signal is consistent here), but this
        // one plan shape measures 1.5× its prediction.
        let predicted = breakdown(4.0, 4.0, 1.0, 1.0);
        let measured = breakdown(6.0, 6.0, 1.5, 1.5);
        cal.observe(&obs("shape", predicted, measured));
        assert_eq!(
            cal.snapshot().residual_factor("shape"),
            None,
            "one observation is below the gate"
        );
        for _ in 0..10 {
            cal.observe(&obs("shape", predicted, measured));
        }
        let snap = cal.snapshot();
        // Scales drifted toward 1.5 too; the gated product of scale and
        // residual must reprice this key close to what was measured.
        let calibrated = snap.calibrate_total(
            predicted.total_s(),
            &predicted,
            &breakdown(0.0, 0.0, 0.0, 0.0),
            0,
            "shape",
        );
        let target = measured.total_s();
        assert!(
            (calibrated - target).abs() / target < 0.05,
            "calibrated {calibrated} vs measured {target}"
        );
    }

    #[test]
    fn pathological_observations_are_winsorized() {
        let mut cal = Calibrator::new(CalibratorConfig::default());
        let predicted = breakdown(1.0, 1.0, 1.0, 1.0);
        let measured = breakdown(1e9, 1e9, 1e9, 1e9);
        cal.observe(&obs("k", predicted, measured));
        let snap = cal.snapshot();
        for s in snap.scales.as_array() {
            assert!(s <= 5.0, "clamped: {s}");
        }
        for e in &snap.residuals {
            assert!(e.factor <= 10.0, "clamped: {}", e.factor);
        }
    }

    #[test]
    fn profile_round_trips_bit_exactly_through_json() {
        let dir = std::env::temp_dir().join(format!("ml4all-cal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = profile_path(&dir);
        let mut cal = Calibrator::new(CalibratorConfig::default());
        for i in 0..7u32 {
            let predicted = breakdown(3.0, 2.0, 0.5, 0.25);
            let measured = breakdown(3.7, 1.9, 0.6, 0.25 + f64::from(i) * 0.01);
            cal.observe(&obs(&format!("k{}", i % 3), predicted, measured));
        }
        cal.save(&path).unwrap();
        let loaded = Calibrator::load(&path, CalibratorConfig::default())
            .unwrap()
            .expect("profile exists");
        let (a, b) = (cal.snapshot(), loaded.snapshot());
        assert_eq!(a.generation, b.generation);
        assert_eq!(a.observations, b.observations);
        assert_eq!(a.scales.io.to_bits(), b.scales.io.to_bits());
        assert_eq!(a.scales.cpu.to_bits(), b.scales.cpu.to_bits());
        assert_eq!(a.scales.net.to_bits(), b.scales.net.to_bits());
        assert_eq!(a.scales.overhead.to_bits(), b.scales.overhead.to_bits());
        assert_eq!(a.residuals.len(), b.residuals.len());
        for (x, y) in a.residuals.iter().zip(&b.residuals) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.factor.to_bits(), y.factor.to_bits());
            assert_eq!(x.observations, y.observations);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_profile_loads_as_none_and_garbage_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("ml4all-cal-miss-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = profile_path(&dir);
        assert!(Calibrator::load(&path, CalibratorConfig::default())
            .unwrap()
            .is_none());
        std::fs::write(&path, b"not json").unwrap();
        match Calibrator::load(&path, CalibratorConfig::default()) {
            Err(CalibrateError::Format(_)) => {}
            other => panic!("expected a format error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replan_policy_is_a_pure_function_of_the_tick() {
        let tick = |iteration: u64, delta: f64| IterationTick {
            iteration,
            delta,
            sim_time_s: 0.0,
            cost: CostBreakdown::default(),
        };
        // delta 0.1 at iteration 10 → observed 1000 iterations at 1e-3.
        assert!(!should_replan(1000, &tick(10, 0.1), 1e-3, 5000), "priced");
        assert!(!should_replan(1000, &tick(10, 0.19), 1e-3, 5000), "in band");
        assert!(should_replan(1000, &tick(10, 0.5), 1e-3, 5000), "slower");
        assert!(should_replan(1000, &tick(10, 0.01), 1e-3, 5000), "faster");
        // Both counts at the cap: the job runs what it was priced for.
        assert!(!should_replan(400, &tick(10, 0.5), 1e-3, 400));
        // The warmup and a degenerate delta never trigger.
        assert!(!should_replan(1, &tick(4, 0.5), 1e-3, 5000));
        assert!(!should_replan(1, &tick(100, f64::NAN), 1e-3, 5000));
        assert!(!should_replan(1, &tick(100, 0.0), 1e-3, 5000));
    }

    #[test]
    fn revised_estimate_extrapolates_the_observed_point() {
        // delta 0.5 at iteration 10 → a = 5 → T(1e-3) = 5000.
        assert_eq!(observed_iterations(10, 0.5, 1e-3, u64::MAX), 5000);
        // The cap clamps it, as the chooser clamps a priced count.
        assert_eq!(observed_iterations(10, 0.5, 1e-3, 400), 400);
        // Never below one iteration; a degenerate tolerance is the cap.
        assert_eq!(observed_iterations(10, 1e-9, 1e-3, 5000), 1);
        assert_eq!(observed_iterations(10, f64::INFINITY, 1e-3, 5000), 5000);
        assert_eq!(observed_iterations(7, 0.5, 0.0, 5000), 5000);
        // The clamp's edges: `⌈0.5·8/0.25⌉ = 16` is kept at the cap 16 and
        // cut to 15, and `0.25·8/2 = 1` stays 1 while `0.25·9/2` rounds up.
        assert_eq!(observed_iterations(8, 0.5, 0.25, 16), 16);
        assert_eq!(observed_iterations(8, 0.5, 0.25, 15), 15);
        assert_eq!(observed_iterations(8, 0.25, 2.0, 5000), 1);
        assert_eq!(observed_iterations(9, 0.25, 2.0, 5000), 2);
    }
}
