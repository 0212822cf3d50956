//! Fitting the convergence curve `T(ε) = a/ε` (Section 5).
//!
//! Gradient methods on convex objectives converge at `O(1/ε)` or better, so
//! the paper fits the observed speculation pairs `{(εᵢ, i)}` to `T(ε) =
//! a/ε` and extrapolates the iterations needed for the target tolerance.
//! The least-squares estimate has the closed form
//! `a = Σᵢ (i/εᵢ) / Σᵢ (1/εᵢ²)`, two sums that [`RunningFit`] keeps point
//! by point: speculation fits as it runs, and [`CurveFit::fit`] and
//! [`running_min_error_seq`] fold a whole sequence through the same type.
//! Every `T = ⌈a/ε⌉` is [`iterations_at`].

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
        let mut fit = RunningFit::default();
        for &(i, e) in pairs {
            fit.push(i, e);
        }
        fit.curve()
    }

    /// Predicted iterations to reach tolerance `epsilon` — `T(ε) = a/ε`,
    /// rounded up, at least 1.
    pub fn iterations_for(&self, epsilon: f64) -> u64 {
        iterations_at(self.a, epsilon)
    }
}

/// `T(ε) = ⌈a/ε⌉`, at least 1; `u64::MAX` for `ε ≤ 0` or a non-finite `a`
/// (`as` saturates a count past `u64::MAX` to it).
pub fn iterations_at(a: f64, epsilon: f64) -> u64 {
    if epsilon <= 0.0 || !a.is_finite() {
        return u64::MAX;
    }
    (a / epsilon).ceil().max(1.0) as u64
}

/// Algorithm 1's fit of a growing `(i, εᵢ)` sequence: the kept pairs and
/// the sums `Σ i/εᵢ` and `Σ 1/εᵢ²`, added in push order, so a fit read
/// mid-sequence is the fit of that prefix bit for bit.
#[derive(Debug, Default)]
pub struct RunningFit {
    /// `Σ i/εᵢ`.
    num: f64,
    /// `Σ 1/εᵢ²`.
    den: f64,
    /// The kept points, in push order.
    pairs: Vec<(u64, f64)>,
}

impl RunningFit {
    /// Keep `(i, ε)` as a point of the fit if `ε` is finite and positive.
    /// Returns whether it was kept.
    pub fn push(&mut self, i: u64, e: f64) -> bool {
        if !(e.is_finite() && e > 0.0) {
            return false;
        }
        self.num += i as f64 / e;
        self.den += 1.0 / (e * e);
        self.pairs.push((i, e));
        true
    }

    /// [`RunningFit::push`] behind the running-min filter: keep `(i, ε)`
    /// only if `ε` is also below every kept error, so the pairs map each
    /// iteration to the *best tolerance reached so far*, the monotone
    /// `T(ε)` view Algorithm 1 fits. Stochastic plans produce noisy,
    /// non-monotone deltas; without this the fit chases noise.
    pub fn push_min(&mut self, i: u64, e: f64) -> bool {
        e < self.pairs.last().map_or(f64::INFINITY, |&(_, best)| best) && self.push(i, e)
    }

    /// The least-squares `a = Σ(i/εᵢ) / Σ(1/εᵢ²)`, or `None` with fewer
    /// than two points or a degenerate sum.
    pub fn a(&self) -> Option<f64> {
        if self.pairs.len() < 2 || self.den <= 0.0 || !self.num.is_finite() || !self.den.is_finite()
        {
            return None;
        }
        Some(self.num / self.den)
    }

    /// The fit so far with its R² in `T` space, if there is one.
    pub fn curve(&self) -> Option<CurveFit> {
        let a = self.a()?;
        let n = self.pairs.len();
        let mean_i: f64 = self.pairs.iter().map(|&(i, _)| i as f64).sum::<f64>() / n as f64;
        let ss_tot: f64 = (self.pairs.iter())
            .map(|&(i, _)| (i as f64 - mean_i).powi(2))
            .sum();
        let ss_res: f64 = (self.pairs.iter())
            .map(|&(i, e)| (i as f64 - a / e).powi(2))
            .sum();
        let r_squared = if ss_tot > 0.0 {
            (1.0 - ss_res / ss_tot).max(0.0)
        } else {
            1.0
        };
        Some(CurveFit {
            a,
            r_squared,
            points: n,
        })
    }

    /// The kept points, in push order.
    pub fn pairs(&self) -> &[(u64, f64)] {
        &self.pairs
    }

    /// The kept points, consuming the fit.
    pub fn into_pairs(self) -> Vec<(u64, f64)> {
        self.pairs
    }
}

/// Reduce a raw error sequence to the pairs [`RunningFit::push_min`]
/// keeps of it.
pub fn running_min_error_seq(raw: &[(u64, f64)]) -> Vec<(u64, f64)> {
    let mut fit = RunningFit::default();
    for &(i, e) in raw {
        fit.push_min(i, e);
    }
    fit.into_pairs()
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
        // A noisy raw delta sequence with every kind of point the filter
        // drops (repeats, rises, zero, negative, NaN, ±∞), ending on the
        // point that ends a run by converging far below the rest.
        let mut raw: Vec<(u64, f64)> = (1..400u64)
            .map(|i| {
                let noise = 1.0 + 0.3 * ((i as f64) * 0.7).sin();
                (i, 37.0 / i as f64 * noise)
            })
            .collect();
        for (i, bad) in [
            (7, 0.0),
            (40, -1.0),
            (41, f64::NAN),
            (90, f64::INFINITY),
            (91, f64::NEG_INFINITY),
            (150, 1e9),
        ] {
            raw[i - 1].1 = bad;
        }
        raw.push((400, 1e-6));
        let mut running = RunningFit::default();
        for (n, &(i, e)) in raw.iter().enumerate() {
            let kept = running.push_min(i, e);
            let pairs = running_min_error_seq(&raw[..=n]);
            assert_eq!(kept, pairs.last() == Some(&(i, e)), "point {n}");
            assert_eq!(running.pairs(), &pairs[..], "point {n}");
            let (got, want) = (running.curve(), CurveFit::fit(&pairs));
            assert_eq!(got.map(|f| f.a.to_bits()), want.map(|f| f.a.to_bits()));
            assert_eq!(
                got.map(|f| f.r_squared.to_bits()),
                want.map(|f| f.r_squared.to_bits())
            );
            assert_eq!(got.map(|f| f.points), want.map(|f| f.points));
            // The closed form, summed afresh over the kept pairs.
            if pairs.len() >= 2 {
                let num: f64 = pairs.iter().map(|&(i, e)| i as f64 / e).sum();
                let den: f64 = pairs.iter().map(|&(_, e)| 1.0 / (e * e)).sum();
                assert_eq!(running.a().map(f64::to_bits), Some((num / den).to_bits()));
            }
        }
        assert!(running.pairs().len() > 50);
        assert_eq!(running.pairs().last(), Some(&(400, 1e-6)));
        assert!(running
            .pairs()
            .iter()
            .all(|&(_, e)| e.is_finite() && e > 0.0));
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
