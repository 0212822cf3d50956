//! The gradient functions of Table 3 and the regularizers of Equation 1.

use ml4all_linalg::{LabeledPoint, PointView};
use serde::{Deserialize, Serialize};

/// A per-point (sub)gradient of a convex loss: the `∇f_i(w)` of Section 2.
///
/// The required methods take zero-copy [`PointView`]s — the shape the
/// columnar hot loop hands out — and accumulate `∇f_i(w)` into `acc`
/// instead of allocating a vector per point. Owned-[`LabeledPoint`]
/// conveniences are provided for API-boundary callers.
pub trait Gradient: Send + Sync {
    /// Accumulate the gradient of the point's loss at `w` into `acc`.
    fn accumulate_view(&self, w: &[f64], point: PointView<'_>, acc: &mut [f64]);

    /// The point's loss at `w` (used by line search, the objective-value
    /// diagnostics, and test-error reporting).
    fn loss_view(&self, w: &[f64], point: PointView<'_>) -> f64;

    /// Predict a label for a feature vector (for test-error measurement):
    /// the raw score for regression, its sign for classification.
    fn predict_view(&self, w: &[f64], point: PointView<'_>) -> f64;

    /// Fused gradient + objective pass: accumulate the gradient into `acc`
    /// and return the point's loss. Implementations that share the
    /// `w·x` dot product between the two (all of Table 3 do) override this
    /// to halve the hot-loop memory traffic; the default performs the two
    /// passes separately.
    fn accumulate_with_loss(&self, w: &[f64], point: PointView<'_>, acc: &mut [f64]) -> f64 {
        self.accumulate_view(w, point, acc);
        self.loss_view(w, point)
    }

    /// Accumulate four points in order. The default performs exactly four
    /// [`Gradient::accumulate_view`] calls; batched implementations may
    /// instead score all four dense rows with the fixed blocked reduction
    /// order of [`ml4all_linalg::simd::dot_blocked`] — deterministic and
    /// ISA-independent, but rounded differently from the sequential
    /// single-row dot. Everything after scoring runs in row order.
    fn accumulate_view4(&self, w: &[f64], points: [PointView<'_>; 4], acc: &mut [f64]) {
        for p in points {
            self.accumulate_view(w, p, acc);
        }
    }

    /// Accumulate eight points in order — the wider sibling of
    /// [`Gradient::accumulate_view4`], sized for 2×4-lane SIMD
    /// accumulators, with the same scoring-order caveat.
    fn accumulate_view8(&self, w: &[f64], points: [PointView<'_>; 8], acc: &mut [f64]) {
        let [p0, p1, p2, p3, p4, p5, p6, p7] = points;
        self.accumulate_view4(w, [p0, p1, p2, p3], acc);
        self.accumulate_view4(w, [p4, p5, p6, p7], acc);
    }

    /// Sum four point losses into `loss_acc` in order. The accumulator is
    /// threaded through (rather than returning a batch total) so the
    /// batched path adds each loss to the running sum in exactly the
    /// sequential order; per-row scores may use the batched dense order
    /// (see [`Gradient::accumulate_view4`]).
    fn loss_view4(&self, w: &[f64], points: [PointView<'_>; 4], loss_acc: &mut f64) {
        for p in points {
            *loss_acc += self.loss_view(w, p);
        }
    }

    /// Eight-point sibling of [`Gradient::loss_view4`].
    fn loss_view8(&self, w: &[f64], points: [PointView<'_>; 8], loss_acc: &mut f64) {
        let [p0, p1, p2, p3, p4, p5, p6, p7] = points;
        self.loss_view4(w, [p0, p1, p2, p3], loss_acc);
        self.loss_view4(w, [p4, p5, p6, p7], loss_acc);
    }

    /// Fused batched gradient + objective pass over four points: the
    /// batched analogue of `for p in points { *loss_acc +=
    /// self.accumulate_with_loss(w, p, acc) }`, where implementations can
    /// share one batched `w·x` pass between both outputs.
    fn accumulate_with_loss4(
        &self,
        w: &[f64],
        points: [PointView<'_>; 4],
        acc: &mut [f64],
        loss_acc: &mut f64,
    ) {
        for p in points {
            *loss_acc += self.accumulate_with_loss(w, p, acc);
        }
    }

    /// Eight-point sibling of [`Gradient::accumulate_with_loss4`].
    fn accumulate_with_loss8(
        &self,
        w: &[f64],
        points: [PointView<'_>; 8],
        acc: &mut [f64],
        loss_acc: &mut f64,
    ) {
        let [p0, p1, p2, p3, p4, p5, p6, p7] = points;
        self.accumulate_with_loss4(w, [p0, p1, p2, p3], acc, loss_acc);
        self.accumulate_with_loss4(w, [p4, p5, p6, p7], acc, loss_acc);
    }

    /// Predict labels for four points at once — four
    /// [`Gradient::predict_view`] calls, except that batched dense scoring
    /// may round raw regression scores differently (classification signs
    /// are unaffected for any non-degenerate margin).
    fn predict_view4(&self, w: &[f64], points: [PointView<'_>; 4]) -> [f64; 4] {
        let [p0, p1, p2, p3] = points;
        [
            self.predict_view(w, p0),
            self.predict_view(w, p1),
            self.predict_view(w, p2),
            self.predict_view(w, p3),
        ]
    }

    /// Predict labels for eight points at once — the wider sibling of
    /// [`Gradient::predict_view4`].
    fn predict_view8(&self, w: &[f64], points: [PointView<'_>; 8]) -> [f64; 8] {
        let [p0, p1, p2, p3, p4, p5, p6, p7] = points;
        let lo = self.predict_view4(w, [p0, p1, p2, p3]);
        let hi = self.predict_view4(w, [p4, p5, p6, p7]);
        [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]]
    }

    /// `true` only if every `accumulate_*` method adds to `acc` at the
    /// point's *stored* indices and nowhere else — the promise
    /// [`crate::operators::ComputeOp::writes_only_stored_indices`] forwards
    /// for a [`crate::operators::GradientCompute`]. The built-in
    /// [`GradientKind`]s make it; the default, `false`, is always safe.
    fn writes_only_stored_indices(&self) -> bool {
        false
    }

    /// Owned-point convenience for [`Gradient::accumulate_view`].
    fn accumulate(&self, w: &[f64], point: &LabeledPoint, acc: &mut [f64]) {
        self.accumulate_view(w, point.view(), acc);
    }

    /// Owned-point convenience for [`Gradient::loss_view`].
    fn loss(&self, w: &[f64], point: &LabeledPoint) -> f64 {
        self.loss_view(w, point.view())
    }

    /// Owned-point convenience for [`Gradient::predict_view`].
    fn predict(&self, w: &[f64], point: &LabeledPoint) -> f64 {
        self.predict_view(w, point.view())
    }
}

/// The ML tasks / gradient functions the system supports out of the box
/// (Table 3). Users can also implement [`Gradient`] directly, mirroring the
/// paper's UDF escape hatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GradientKind {
    /// Linear regression: `g = 2 (wᵀx − y) x`.
    LinearRegression,
    /// Logistic regression: `g = (−1 / (1 + e^{y wᵀx})) y x`.
    LogisticRegression,
    /// SVM (hinge): `g = −y x` if `y wᵀx < 1`, else `0`.
    Svm,
}

impl GradientKind {
    /// Short lowercase name as used in the declarative language
    /// (`squared()`, `logistic()`, `hinge()`).
    pub fn function_name(&self) -> &'static str {
        match self {
            Self::LinearRegression => "squared",
            Self::LogisticRegression => "logistic",
            Self::Svm => "hinge",
        }
    }

    /// `true` for classification tasks (labels in `{−1, +1}`).
    pub fn is_classification(&self) -> bool {
        !matches!(self, Self::LinearRegression)
    }
}

impl GradientKind {
    /// Gradient contribution given the precomputed score `w·x`: the shared
    /// second half of the plain and fused accumulation paths.
    #[inline]
    fn accumulate_scored(&self, score: f64, point: PointView<'_>, acc: &mut [f64]) {
        let y = point.label;
        match self {
            Self::LinearRegression => {
                point.features.axpy_into(acc, 2.0 * (score - y));
            }
            Self::LogisticRegression => {
                let margin = y * score;
                // −y x / (1 + e^{margin}); guard the exponential against
                // overflow for strongly-classified points.
                let factor = if margin > 35.0 {
                    0.0
                } else if margin < -35.0 {
                    -y
                } else {
                    -y / (1.0 + margin.exp())
                };
                if factor != 0.0 {
                    point.features.axpy_into(acc, factor);
                }
            }
            Self::Svm => {
                if y * score < 1.0 {
                    point.features.axpy_into(acc, -y);
                }
            }
        }
    }

    /// Batched `w·x` for four rows when a uniform batched kernel applies:
    /// all-dense rows of matching length go through the runtime-dispatched
    /// [`ml4all_linalg::simd::dot4`], all-sparse rows of matching
    /// dimensionality through the lockstep
    /// [`ml4all_linalg::simd::sparse_dot4`]. `None` means the caller must
    /// fall back to per-point processing (mixed storage or shape
    /// mismatch). Dense lanes follow the fixed blocked reduction order of
    /// [`ml4all_linalg::simd::dot_blocked`] — identical across ISAs, but
    /// not the sequential single-row order; sparse lanes stay bit-identical
    /// to the sequential [`ml4all_linalg::FeatureView::dot`].
    #[inline]
    fn scores4(w: &[f64], feats: [ml4all_linalg::FeatureView<'_>; 4]) -> Option<[f64; 4]> {
        use ml4all_linalg::{simd, FeatureView};
        match feats {
            [FeatureView::Dense(r0), FeatureView::Dense(r1), FeatureView::Dense(r2), FeatureView::Dense(r3)] =>
            {
                let n = w.len();
                (r0.len() == n && r1.len() == n && r2.len() == n && r3.len() == n)
                    // Equal-length re-slices let the compiler elide bounds
                    // checks inside the fused loop.
                    .then(|| simd::dot4([&r0[..n], &r1[..n], &r2[..n], &r3[..n]], w))
            }
            [FeatureView::Sparse {
                dim: d0,
                indices: i0,
                values: v0,
            }, FeatureView::Sparse {
                dim: d1,
                indices: i1,
                values: v1,
            }, FeatureView::Sparse {
                dim: d2,
                indices: i2,
                values: v2,
            }, FeatureView::Sparse {
                dim: d3,
                indices: i3,
                values: v3,
            }] => {
                let n = w.len();
                (d0 == n && d1 == n && d2 == n && d3 == n)
                    .then(|| simd::sparse_dot4([i0, i1, i2, i3], [v0, v1, v2, v3], w))
            }
            _ => None,
        }
    }

    /// Eight-row sibling of [`GradientKind::scores4`]: all-dense batches
    /// use the 2×4-lane [`ml4all_linalg::simd::dot8`] (one pass over `w`
    /// for all eight rows); anything else composes two four-row batches.
    #[inline]
    fn scores8(w: &[f64], feats: [ml4all_linalg::FeatureView<'_>; 8]) -> Option<[f64; 8]> {
        use ml4all_linalg::{simd, FeatureView};
        let n = w.len();
        if feats
            .iter()
            .all(|f| matches!(f, FeatureView::Dense(r) if r.len() == n))
        {
            let rows: [&[f64]; 8] = std::array::from_fn(|k| match feats[k] {
                FeatureView::Dense(r) => &r[..n],
                FeatureView::Sparse { .. } => unreachable!("checked all-dense"),
            });
            return Some(simd::dot8(rows, w));
        }
        let lo = Self::scores4(w, [feats[0], feats[1], feats[2], feats[3]])?;
        let hi = Self::scores4(w, [feats[4], feats[5], feats[6], feats[7]])?;
        Some([lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]])
    }

    /// Predicted label given the precomputed score `w·x`: the score's sign
    /// for classification, the raw score for regression.
    #[inline]
    fn score_to_prediction(&self, score: f64) -> f64 {
        if self.is_classification() {
            if score >= 0.0 {
                1.0
            } else {
                -1.0
            }
        } else {
            score
        }
    }

    /// Loss given the precomputed score `w·x`.
    #[inline]
    fn loss_scored(&self, score: f64, label: f64) -> f64 {
        match self {
            Self::LinearRegression => {
                let diff = score - label;
                diff * diff
            }
            Self::LogisticRegression => {
                let margin = label * score;
                if margin > 35.0 {
                    0.0
                } else if margin < -35.0 {
                    -margin
                } else {
                    (1.0 + (-margin).exp()).ln()
                }
            }
            Self::Svm => (1.0 - label * score).max(0.0),
        }
    }
}

impl Gradient for GradientKind {
    fn accumulate_view(&self, w: &[f64], point: PointView<'_>, acc: &mut [f64]) {
        let score = point.features.dot(w);
        self.accumulate_scored(score, point, acc);
    }

    /// Every arm of `accumulate_scored` is an `axpy_into` of the row.
    fn writes_only_stored_indices(&self) -> bool {
        true
    }

    fn loss_view(&self, w: &[f64], point: PointView<'_>) -> f64 {
        self.loss_scored(point.features.dot(w), point.label)
    }

    /// One `w·x` dot product feeds both the gradient and the loss.
    fn accumulate_with_loss(&self, w: &[f64], point: PointView<'_>, acc: &mut [f64]) -> f64 {
        let score = point.features.dot(w);
        self.accumulate_scored(score, point, acc);
        self.loss_scored(score, point.label)
    }

    /// Four rows share one batched scoring pass (runtime-dispatched SIMD
    /// for dense, lockstep ILP for CSR); the per-row post-score logic runs
    /// scalar in row order. Dense scores use the fixed blocked reduction
    /// order, so the batch is deterministic but rounds differently from
    /// four unbatched calls.
    fn accumulate_view4(&self, w: &[f64], points: [PointView<'_>; 4], acc: &mut [f64]) {
        match Self::scores4(w, std::array::from_fn(|k| points[k].features)) {
            Some(s) => {
                for k in 0..4 {
                    self.accumulate_scored(s[k], points[k], acc);
                }
            }
            None => {
                for p in points {
                    self.accumulate_view(w, p, acc);
                }
            }
        }
    }

    /// Eight rows per batched scoring pass — the SIMD sweet spot for the
    /// dense kernels (two 4-lane accumulators hide the add latency).
    fn accumulate_view8(&self, w: &[f64], points: [PointView<'_>; 8], acc: &mut [f64]) {
        match Self::scores8(w, std::array::from_fn(|k| points[k].features)) {
            Some(s) => {
                for k in 0..8 {
                    self.accumulate_scored(s[k], points[k], acc);
                }
            }
            None => {
                let [p0, p1, p2, p3, p4, p5, p6, p7] = points;
                self.accumulate_view4(w, [p0, p1, p2, p3], acc);
                self.accumulate_view4(w, [p4, p5, p6, p7], acc);
            }
        }
    }

    fn loss_view4(&self, w: &[f64], points: [PointView<'_>; 4], loss_acc: &mut f64) {
        match Self::scores4(w, std::array::from_fn(|k| points[k].features)) {
            Some(s) => {
                for k in 0..4 {
                    *loss_acc += self.loss_scored(s[k], points[k].label);
                }
            }
            None => {
                for p in points {
                    *loss_acc += self.loss_view(w, p);
                }
            }
        }
    }

    fn loss_view8(&self, w: &[f64], points: [PointView<'_>; 8], loss_acc: &mut f64) {
        match Self::scores8(w, std::array::from_fn(|k| points[k].features)) {
            Some(s) => {
                for k in 0..8 {
                    *loss_acc += self.loss_scored(s[k], points[k].label);
                }
            }
            None => {
                let [p0, p1, p2, p3, p4, p5, p6, p7] = points;
                self.loss_view4(w, [p0, p1, p2, p3], loss_acc);
                self.loss_view4(w, [p4, p5, p6, p7], loss_acc);
            }
        }
    }

    /// One batched `w·x` pass feeds both the gradient and the loss for
    /// four rows.
    fn accumulate_with_loss4(
        &self,
        w: &[f64],
        points: [PointView<'_>; 4],
        acc: &mut [f64],
        loss_acc: &mut f64,
    ) {
        match Self::scores4(w, std::array::from_fn(|k| points[k].features)) {
            Some(s) => {
                for k in 0..4 {
                    self.accumulate_scored(s[k], points[k], acc);
                    *loss_acc += self.loss_scored(s[k], points[k].label);
                }
            }
            None => {
                for p in points {
                    *loss_acc += self.accumulate_with_loss(w, p, acc);
                }
            }
        }
    }

    /// One batched `w·x` pass feeds both the gradient and the loss for
    /// eight rows.
    fn accumulate_with_loss8(
        &self,
        w: &[f64],
        points: [PointView<'_>; 8],
        acc: &mut [f64],
        loss_acc: &mut f64,
    ) {
        match Self::scores8(w, std::array::from_fn(|k| points[k].features)) {
            Some(s) => {
                for k in 0..8 {
                    self.accumulate_scored(s[k], points[k], acc);
                    *loss_acc += self.loss_scored(s[k], points[k].label);
                }
            }
            None => {
                let [p0, p1, p2, p3, p4, p5, p6, p7] = points;
                self.accumulate_with_loss4(w, [p0, p1, p2, p3], acc, loss_acc);
                self.accumulate_with_loss4(w, [p4, p5, p6, p7], acc, loss_acc);
            }
        }
    }

    fn predict_view4(&self, w: &[f64], points: [PointView<'_>; 4]) -> [f64; 4] {
        match Self::scores4(w, std::array::from_fn(|k| points[k].features)) {
            Some(s) => std::array::from_fn(|k| self.score_to_prediction(s[k])),
            None => std::array::from_fn(|k| self.predict_view(w, points[k])),
        }
    }

    fn predict_view8(&self, w: &[f64], points: [PointView<'_>; 8]) -> [f64; 8] {
        match Self::scores8(w, std::array::from_fn(|k| points[k].features)) {
            Some(s) => std::array::from_fn(|k| self.score_to_prediction(s[k])),
            None => std::array::from_fn(|k| self.predict_view(w, points[k])),
        }
    }

    fn predict_view(&self, w: &[f64], point: PointView<'_>) -> f64 {
        self.score_to_prediction(point.features.dot(w))
    }
}

/// The `R(w)` term of Equation 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Regularizer {
    /// No regularization (the paper's cross-system experiments fix all
    /// hyper-parameters identically and train unregularized).
    None,
    /// Ridge: `R(w) = (λ/2) ‖w‖²`, gradient `λ w`.
    L2 { lambda: f64 },
}

impl Regularizer {
    /// Gradient contribution added to the averaged data gradient.
    pub fn accumulate(&self, w: &[f64], acc: &mut [f64]) {
        if let Self::L2 { lambda } = self {
            for (a, wi) in acc.iter_mut().zip(w) {
                *a += lambda * wi;
            }
        }
    }

    /// Penalty value at `w`.
    pub fn penalty(&self, w: &[f64]) -> f64 {
        match self {
            Self::None => 0.0,
            Self::L2 { lambda } => 0.5 * lambda * w.iter().map(|x| x * x).sum::<f64>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4all_linalg::FeatureVec;

    fn pt(label: f64, xs: Vec<f64>) -> LabeledPoint {
        LabeledPoint::new(label, FeatureVec::dense(xs))
    }

    #[test]
    fn linreg_gradient_is_residual_scaled_features() {
        let g = GradientKind::LinearRegression;
        let p = pt(3.0, vec![1.0, 2.0]);
        let w = [1.0, 0.0]; // pred = 1, residual = -2
        let mut acc = vec![0.0; 2];
        g.accumulate(&w, &p, &mut acc);
        assert_eq!(acc, vec![-4.0, -8.0]);
        assert_eq!(g.loss(&w, &p), 4.0);
    }

    #[test]
    fn svm_gradient_is_zero_outside_margin() {
        let g = GradientKind::Svm;
        let p = pt(1.0, vec![2.0]);
        let mut acc = vec![0.0];
        g.accumulate(&[1.0], &p, &mut acc); // margin = 2 ≥ 1 → no gradient
        assert_eq!(acc, vec![0.0]);
        assert_eq!(g.loss(&[1.0], &p), 0.0);
        g.accumulate(&[0.0], &p, &mut acc); // margin = 0 < 1 → −y x
        assert_eq!(acc, vec![-2.0]);
        assert_eq!(g.loss(&[0.0], &p), 1.0);
    }

    #[test]
    fn logistic_gradient_has_correct_sign_and_magnitude() {
        let g = GradientKind::LogisticRegression;
        let p = pt(1.0, vec![1.0]);
        let mut acc = vec![0.0];
        g.accumulate(&[0.0], &p, &mut acc); // factor = −1/2
        assert!((acc[0] + 0.5).abs() < 1e-12);
        // Strongly correct classification → vanishing gradient, zero loss.
        let mut acc2 = vec![0.0];
        g.accumulate(&[100.0], &p, &mut acc2);
        assert_eq!(acc2[0], 0.0);
        assert_eq!(g.loss(&[100.0], &p), 0.0);
        // Strongly wrong classification → gradient −y x, loss ≈ |margin|.
        let mut acc3 = vec![0.0];
        g.accumulate(&[-100.0], &p, &mut acc3);
        assert_eq!(acc3[0], -1.0);
        assert_eq!(g.loss(&[-100.0], &p), 100.0);
    }

    #[test]
    fn logistic_loss_matches_gradient_numerically() {
        let g = GradientKind::LogisticRegression;
        let p = pt(-1.0, vec![0.7, -0.3]);
        let w = [0.2, 0.4];
        let eps = 1e-6;
        for j in 0..2 {
            let mut wp = w;
            wp[j] += eps;
            let mut wm = w;
            wm[j] -= eps;
            let numeric = (g.loss(&wp, &p) - g.loss(&wm, &p)) / (2.0 * eps);
            let mut acc = vec![0.0; 2];
            g.accumulate(&w, &p, &mut acc);
            assert!(
                (numeric - acc[j]).abs() < 1e-5,
                "dim {j}: numeric {numeric} vs analytic {}",
                acc[j]
            );
        }
    }

    #[test]
    fn linreg_loss_matches_gradient_numerically() {
        let g = GradientKind::LinearRegression;
        let p = pt(2.5, vec![1.5, -0.5]);
        let w = [0.3, 0.9];
        let eps = 1e-6;
        for j in 0..2 {
            let mut wp = w;
            wp[j] += eps;
            let mut wm = w;
            wm[j] -= eps;
            let numeric = (g.loss(&wp, &p) - g.loss(&wm, &p)) / (2.0 * eps);
            let mut acc = vec![0.0; 2];
            g.accumulate(&w, &p, &mut acc);
            assert!((numeric - acc[j]).abs() < 1e-4);
        }
    }

    #[test]
    fn fused_gradient_and_loss_matches_separate_passes() {
        let w = [0.3, -0.7];
        for kind in [
            GradientKind::LinearRegression,
            GradientKind::LogisticRegression,
            GradientKind::Svm,
        ] {
            for label in [1.0, -1.0] {
                let p = pt(label, vec![0.4, 1.2]);
                let mut acc_sep = vec![0.0; 2];
                kind.accumulate(&w, &p, &mut acc_sep);
                let loss_sep = kind.loss(&w, &p);
                let mut acc_fused = vec![0.0; 2];
                let loss_fused = kind.accumulate_with_loss(&w, p.view(), &mut acc_fused);
                assert_eq!(acc_sep, acc_fused, "{kind:?}");
                assert_eq!(loss_sep.to_bits(), loss_fused.to_bits(), "{kind:?}");
            }
        }
    }

    #[test]
    fn classification_predicts_sign_regression_predicts_score() {
        let p = pt(1.0, vec![2.0]);
        assert_eq!(GradientKind::Svm.predict(&[-1.0], &p), -1.0);
        assert_eq!(GradientKind::LogisticRegression.predict(&[1.0], &p), 1.0);
        assert_eq!(GradientKind::LinearRegression.predict(&[1.5], &p), 3.0);
    }

    #[test]
    fn l2_regularizer_adds_lambda_w() {
        let r = Regularizer::L2 { lambda: 0.1 };
        let mut acc = vec![0.0, 0.0];
        r.accumulate(&[1.0, -2.0], &mut acc);
        assert!((acc[0] - 0.1).abs() < 1e-12);
        assert!((acc[1] + 0.2).abs() < 1e-12);
        assert!((r.penalty(&[3.0, 4.0]) - 0.5 * 0.1 * 25.0).abs() < 1e-12);
        assert_eq!(Regularizer::None.penalty(&[3.0, 4.0]), 0.0);
    }

    #[test]
    fn function_names_match_language() {
        assert_eq!(GradientKind::Svm.function_name(), "hinge");
        assert_eq!(GradientKind::LogisticRegression.function_name(), "logistic");
        assert_eq!(GradientKind::LinearRegression.function_name(), "squared");
    }
}
