//! Calibration state the chooser consumes: per-category unit-cost scales
//! and a learned multiplicative residual table.
//!
//! The types here are **plain data** — the online learners that produce
//! them live in the `ml4all-calibrate` crate; the chooser only *applies* a
//! [`CalibrationSnapshot`] at choose time. The cold snapshot
//! ([`CalibrationSnapshot::identity`]) is constructed so that applying it
//! is bit-identical to not applying anything: identity scales go through
//! [`CostBreakdown::rescaled_total_s`]'s `+0.0` corrections and an absent
//! (or gate-failed) residual multiplies by exactly `1.0`. Calibration can
//! therefore be wired in unconditionally without perturbing any decision
//! until real observations arrive.

use ml4all_dataflow::{CostBreakdown, DatasetDescriptor};
use ml4all_gd::GdPlan;
use serde::{Deserialize, Serialize};

use crate::chooser::PlanChoice;

/// Multiplicative unit-cost scales per ledger category, learned from
/// measured/predicted ratios. `1.0` everywhere = the static paper model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostScales {
    /// Disk/memory IO scale.
    pub io: f64,
    /// Compute scale.
    pub cpu: f64,
    /// Interconnect scale.
    pub net: f64,
    /// Fixed-overhead scale.
    pub overhead: f64,
}

impl CostScales {
    /// The static model: every scale exactly 1.0.
    pub fn identity() -> Self {
        Self {
            io: 1.0,
            cpu: 1.0,
            net: 1.0,
            overhead: 1.0,
        }
    }

    /// `[io, cpu, net, overhead]` for [`CostBreakdown::rescaled_total_s`].
    pub fn as_array(&self) -> [f64; 4] {
        [self.io, self.cpu, self.net, self.overhead]
    }

    /// `true` when every scale is exactly 1.0.
    pub fn is_identity(&self) -> bool {
        self.as_array().iter().all(|&s| s == 1.0)
    }
}

impl Default for CostScales {
    fn default() -> Self {
        Self::identity()
    }
}

/// One learned residual: the EWMA of measured/rescaled-predicted total for
/// one plan-feature key, with the observation count that gates it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResidualEntry {
    /// Plan-feature key ([`plan_feature_key`]).
    pub key: String,
    /// Multiplicative residual factor (measured / rescaled-predicted).
    pub factor: f64,
    /// Observations behind the factor.
    pub observations: u64,
}

/// An immutable view of calibration state at one generation, applied by
/// the chooser. Produced by `ml4all-calibrate`'s `Calibrator::snapshot()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationSnapshot {
    /// Monotone generation counter: bumped on every observed job, part of
    /// the plan-cache key so stale cached choices never replay.
    pub generation: u64,
    /// Per-category unit-cost scales.
    pub scales: CostScales,
    /// Residual table, sorted by key (binary-searchable, deterministic
    /// serialization order).
    pub residuals: Vec<ResidualEntry>,
    /// A residual is applied only once its key has at least this many
    /// observations — the cold-start confidence gate.
    pub min_observations: u64,
    /// Total jobs observed across all keys.
    pub observations: u64,
}

impl CalibrationSnapshot {
    /// The cold snapshot: generation 0, identity scales, empty residual
    /// table. Applying it is bit-identical to the static model.
    pub fn identity() -> Self {
        Self {
            generation: 0,
            scales: CostScales::identity(),
            residuals: Vec::new(),
            min_observations: 3,
            observations: 0,
        }
    }

    /// The residual factor for `key`, if present **and** past the
    /// confidence gate.
    pub fn residual_factor(&self, key: &str) -> Option<f64> {
        let idx = self
            .residuals
            .binary_search_by(|e| e.key.as_str().cmp(key))
            .ok()?;
        let entry = &self.residuals[idx];
        (entry.observations >= self.min_observations).then_some(entry.factor)
    }

    /// Calibrate a plan's total cost: rescale the predicted cost vector by
    /// the per-category unit-cost scales, then apply the residual factor
    /// for `key` when its gate passes.
    ///
    /// `total_s` is the scalar model's total (Equations 7–9); `prep` and
    /// `per_iter` are the same charges as category vectors. Identity
    /// scales + no residual return `total_s` bit for bit.
    pub fn calibrate_total(
        &self,
        total_s: f64,
        prep: &CostBreakdown,
        per_iter: &CostBreakdown,
        iterations: u64,
        key: &str,
    ) -> f64 {
        let combined = PlanChoice::cost_of(prep, per_iter, iterations);
        let rescaled = total_s
            + combined.io_s * (self.scales.io - 1.0)
            + combined.cpu_s * (self.scales.cpu - 1.0)
            + combined.net_s * (self.scales.net - 1.0)
            + combined.overhead_s * (self.scales.overhead - 1.0);
        rescaled * self.residual_factor(key).unwrap_or(1.0)
    }

    /// Confidence of the residual table: the fraction of keys past the
    /// observation gate (0.0 when the table is empty — pure cold start).
    pub fn residual_confidence(&self) -> f64 {
        if self.residuals.is_empty() {
            return 0.0;
        }
        let confident = self
            .residuals
            .iter()
            .filter(|e| e.observations >= self.min_observations)
            .count();
        confident as f64 / self.residuals.len() as f64
    }

    /// `true` when applying this snapshot cannot change any decision.
    pub fn is_identity(&self) -> bool {
        self.scales.is_identity() && self.residuals.iter().all(|e| e.factor == 1.0)
    }
}

/// The calibration stamp a costed report carries so `explain` can render
/// its footer (`calibration gen N, residual conf X`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibrationStamp {
    /// Generation the report was costed under.
    pub generation: u64,
    /// [`CalibrationSnapshot::residual_confidence`] at choose time.
    pub residual_confidence: f64,
}

/// The deterministic residual-model feature key for one execution:
/// algorithm × plan (variant/transform/sampler) × backend × bucketed
/// dataset shape (log₂ size, log₂ dims, dense/sparse). Bucketing keeps the
/// table small and lets observations generalize across nearby sizes.
pub fn plan_feature_key(
    gradient: &str,
    plan: &GdPlan,
    backend: &str,
    desc: &DatasetDescriptor,
) -> String {
    let n_bucket = 63 - desc.n.max(1).leading_zeros();
    let d_bucket = 63 - (desc.dims.max(1) as u64).leading_zeros();
    let density = if desc.density < 0.5 {
        "sparse"
    } else {
        "dense"
    };
    format!(
        "{gradient}|{}|{backend}|n{n_bucket}|d{d_bucket}|{density}",
        plan.name()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdowns() -> (f64, CostBreakdown, CostBreakdown) {
        let prep = CostBreakdown {
            io_s: 1.5,
            cpu_s: 0.25,
            net_s: 0.0,
            overhead_s: 0.1,
        };
        let iter = CostBreakdown {
            io_s: 0.01,
            cpu_s: 0.02,
            net_s: 0.005,
            overhead_s: 0.001,
        };
        let total = prep.total_s() + 100.0 * iter.total_s();
        (total, prep, iter)
    }

    #[test]
    fn identity_snapshot_is_bitwise_invisible() {
        let (total, prep, iter) = breakdowns();
        let snap = CalibrationSnapshot::identity();
        assert!(snap.is_identity());
        assert_eq!(
            snap.calibrate_total(total, &prep, &iter, 100, "any|key")
                .to_bits(),
            total.to_bits()
        );
        assert_eq!(snap.residual_confidence(), 0.0);
    }

    #[test]
    fn scales_rescale_their_category_only() {
        let (total, prep, iter) = breakdowns();
        let mut snap = CalibrationSnapshot::identity();
        snap.scales.cpu = 2.0;
        let calibrated = snap.calibrate_total(total, &prep, &iter, 100, "k");
        let cpu_total = prep.cpu_s + 100.0 * iter.cpu_s;
        assert!((calibrated - (total + cpu_total)).abs() < 1e-12);
    }

    #[test]
    fn residuals_gate_on_observations() {
        let (total, prep, iter) = breakdowns();
        let mut snap = CalibrationSnapshot::identity();
        snap.residuals = vec![
            ResidualEntry {
                key: "cold".into(),
                factor: 3.0,
                observations: 1,
            },
            ResidualEntry {
                key: "warm".into(),
                factor: 1.5,
                observations: 5,
            },
        ];
        assert_eq!(snap.residual_factor("cold"), None, "below the gate");
        assert_eq!(snap.residual_factor("warm"), Some(1.5));
        assert_eq!(snap.residual_factor("absent"), None);
        let calibrated = snap.calibrate_total(total, &prep, &iter, 100, "warm");
        assert!((calibrated - total * 1.5).abs() < 1e-9);
        assert!((snap.residual_confidence() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn feature_keys_bucket_dataset_shape() {
        let plan = GdPlan::bgd();
        let small = DatasetDescriptor::new("a", 1000, 16, 1024, 0.1);
        let big = DatasetDescriptor::new("b", 1_000_000, 16, 1024, 1.0);
        let k_small = plan_feature_key("LogisticRegression", &plan, "local", &small);
        let k_big = plan_feature_key("LogisticRegression", &plan, "local", &big);
        assert_ne!(k_small, k_big, "size buckets differ");
        assert!(k_small.contains("|sparse"));
        assert!(k_big.contains("|dense"));
        assert!(k_small.starts_with("LogisticRegression|BGD|local|"));
        // Same shape → same key (stability across runs).
        assert_eq!(
            k_small,
            plan_feature_key("LogisticRegression", &plan, "local", &small)
        );
    }
}
