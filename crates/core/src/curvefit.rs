//! Fitting the convergence curve `T(ε) = a/ε` (Section 5).
//!
//! Gradient methods on convex objectives converge at `O(1/ε)` or better, so
//! the paper fits the observed speculation pairs `{(εᵢ, i)}` to `T(ε) =
//! a/ε` and extrapolates the iterations needed for the target tolerance.
//! The least-squares estimate has the closed form
//! `a = Σᵢ (i/εᵢ) / Σᵢ (1/εᵢ²)`: two running sums (`FitSums`), so the
//! fit of a growing sequence costs O(1) per point.

use serde::{Deserialize, Serialize};

/// A fitted `T(ε) = a/ε` convergence curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CurveFit {
    /// The fitted coefficient `a` (dataset- and loss-dependent).
    pub a: f64,
    /// Coefficient of determination of the fit in `T` space.
    pub r_squared: f64,
    /// Number of points used.
    pub points: usize,
}

impl CurveFit {
    /// Fit from `(iteration, error)` observations. Pairs with non-positive
    /// or non-finite error are ignored. Returns `None` if fewer than two
    /// usable pairs remain.
    pub fn fit(pairs: &[(u64, f64)]) -> Option<Self> {
        let usable = || {
            pairs
                .iter()
                .filter(|(_, e)| e.is_finite() && *e > 0.0)
                .map(|&(i, e)| (i as f64, e))
        };
        let mut sums = FitSums::default();
        for (i, e) in usable() {
            sums.push(i, e);
        }
        let a = sums.a()?;

        // R² over the T(ε) predictions.
        let mean_i: f64 = usable().map(|(i, _)| i).sum::<f64>() / sums.points as f64;
        let ss_tot: f64 = usable().map(|(i, _)| (i - mean_i).powi(2)).sum();
        let ss_res: f64 = usable().map(|(i, e)| (i - a / e).powi(2)).sum();
        let r_squared = if ss_tot > 0.0 {
            (1.0 - ss_res / ss_tot).max(0.0)
        } else {
            1.0
        };
        Some(Self {
            a,
            r_squared,
            points: sums.points,
        })
    }

    /// Predicted iterations to reach tolerance `epsilon` — `T(ε) = a/ε`,
    /// rounded up, at least 1.
    pub fn iterations_for(&self, epsilon: f64) -> u64 {
        iterations_at(self.a, epsilon)
    }

    /// Predicted error after `iterations` — the inverse view `ε(i) = a/i`,
    /// used to draw the fitted curves of Figures 15–16.
    pub fn error_at(&self, iterations: u64) -> f64 {
        self.a / (iterations.max(1) as f64)
    }
}

/// `T(ε) = a/ε`, rounded up, at least 1; `u64::MAX` for `ε ≤ 0` or a
/// non-finite `a`.
fn iterations_at(a: f64, epsilon: f64) -> u64 {
    if epsilon <= 0.0 || !a.is_finite() {
        return u64::MAX;
    }
    (a / epsilon).ceil().max(1.0) as u64
}

/// The running sums of the closed-form fit, `Σ i/εᵢ` and `Σ 1/εᵢ²`, added
/// in push order: [`CurveFit::fit`] sums a whole sequence through them, and
/// speculation keeps them point by point, so both see the same `a` bit for
/// bit.
#[derive(Debug, Default)]
pub(crate) struct FitSums {
    /// `Σ i/εᵢ`.
    pub(crate) num: f64,
    /// `Σ 1/εᵢ²`.
    pub(crate) den: f64,
    /// Number of points pushed.
    pub(crate) points: usize,
}

impl FitSums {
    /// Add the point `(i, ε)`; `ε` must be finite and positive.
    pub(crate) fn push(&mut self, i: f64, e: f64) {
        self.num += i / e;
        self.den += 1.0 / (e * e);
        self.points += 1;
    }

    /// The least-squares `a = Σ(i/εᵢ) / Σ(1/εᵢ²)`, or `None` with fewer
    /// than two points or a degenerate sum.
    pub(crate) fn a(&self) -> Option<f64> {
        if self.points < 2 || self.den <= 0.0 || !self.num.is_finite() || !self.den.is_finite() {
            return None;
        }
        Some(self.num / self.den)
    }

    /// [`CurveFit::iterations_for`] of the fit so far, if there is one.
    pub(crate) fn iterations_for(&self, epsilon: f64) -> Option<u64> {
        self.a().map(|a| iterations_at(a, epsilon))
    }
}

/// Reduce a raw error sequence to its running minimum so that it maps each
/// iteration to the *best tolerance reached so far* — the monotone `T(ε)`
/// view Algorithm 1 fits. Stochastic plans produce noisy, non-monotone
/// deltas; without this the fit chases noise.
pub fn running_min_error_seq(raw: &[(u64, f64)]) -> Vec<(u64, f64)> {
    let mut out = Vec::with_capacity(raw.len());
    let mut best = f64::INFINITY;
    for &(i, e) in raw {
        if !e.is_finite() || e <= 0.0 {
            continue;
        }
        if e < best {
            best = e;
            out.push((i, best));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_inverse_law() {
        let a_true = 500.0;
        let pairs: Vec<(u64, f64)> = (1..100).map(|i| (i as u64, a_true / i as f64)).collect();
        let fit = CurveFit::fit(&pairs).unwrap();
        assert!((fit.a - a_true).abs() < 1e-6, "a = {}", fit.a);
        assert!(fit.r_squared > 0.999);
        assert_eq!(fit.iterations_for(0.5), 1000);
        assert!((fit.error_at(1000) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn tolerates_noise() {
        let a_true = 120.0;
        let pairs: Vec<(u64, f64)> = (1..200)
            .map(|i| {
                let noise = 1.0 + 0.05 * ((i as f64).sin());
                (i as u64, a_true / i as f64 * noise)
            })
            .collect();
        let fit = CurveFit::fit(&pairs).unwrap();
        assert!((fit.a - a_true).abs() / a_true < 0.1, "a = {}", fit.a);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(CurveFit::fit(&[]).is_none());
        assert!(CurveFit::fit(&[(1, 0.5)]).is_none());
        assert!(CurveFit::fit(&[(1, 0.0), (2, -1.0), (3, f64::NAN)]).is_none());
    }

    #[test]
    fn ignores_nonpositive_errors_but_uses_the_rest() {
        let fit = CurveFit::fit(&[(1, 10.0), (2, 5.0), (3, 0.0), (4, 2.5)]).unwrap();
        assert_eq!(fit.points, 3);
        assert!((fit.a - 10.0).abs() < 1e-9);
    }

    #[test]
    fn iterations_for_handles_edge_tolerances() {
        let fit = CurveFit::fit(&[(1, 1.0), (2, 0.5)]).unwrap();
        assert_eq!(fit.iterations_for(0.0), u64::MAX);
        assert_eq!(fit.iterations_for(-1.0), u64::MAX);
        assert!(fit.iterations_for(1e9) >= 1);
    }

    #[test]
    fn running_sums_equal_the_fit_on_every_prefix() {
        // A noisy, running-min-reduced sequence: the points speculation
        // feeds its running sums one by one.
        let raw: Vec<(u64, f64)> = (1..400u64)
            .map(|i| {
                let noise = 1.0 + 0.3 * ((i as f64) * 0.7).sin();
                (i, 37.0 / i as f64 * noise)
            })
            .collect();
        let pairs = running_min_error_seq(&raw);
        assert!(pairs.len() > 50);
        let mut sums = FitSums::default();
        for (n, &(i, e)) in pairs.iter().enumerate() {
            sums.push(i as f64, e);
            let fit = CurveFit::fit(&pairs[..=n]);
            assert_eq!(sums.a().map(f64::to_bits), fit.map(|f| f.a.to_bits()));
            assert_eq!(
                sums.iterations_for(1e-4),
                fit.map(|f| f.iterations_for(1e-4))
            );
            assert_eq!(sums.points, n + 1);
        }
    }

    #[test]
    fn running_min_is_monotone_decreasing() {
        let raw = vec![(1, 1.0), (2, 1.5), (3, 0.8), (4, 0.9), (5, 0.3)];
        let cleaned = running_min_error_seq(&raw);
        assert_eq!(cleaned, vec![(1, 1.0), (3, 0.8), (5, 0.3)]);
    }

    #[test]
    fn running_min_skips_invalid_entries() {
        let raw = vec![(1, f64::NAN), (2, 0.0), (3, 2.0), (4, 1.0)];
        assert_eq!(running_min_error_seq(&raw), vec![(3, 2.0), (4, 1.0)]);
    }
}
