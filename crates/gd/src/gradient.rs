//! The gradient functions of Table 3 and the regularizers of Equation 1.
//!
//! # The batch rule
//!
//! The built-in gradients score a slice of rows (`w·x` each) in aligned
//! octets, then one trailing quad, then singly. An all-dense octet goes
//! through [`simd::dot8`]; any other octet is two quads. An all-dense quad
//! goes through [`simd::dot4`], an all-CSR quad through
//! [`simd::sparse_dot4`], any other quad and every trailing single through
//! the sequential [`FeatureView::dot`]. The dense batch kernels use the
//! fixed blocked reduction order of [`simd::dot_blocked`] — identical
//! across ISAs, but not the sequential single-row order — so *where* a row
//! stream is cut into batches decides the low bits of every model. The rule
//! lives in this module and nowhere else: callers hand slices to the
//! `*_batch` methods of [`Gradient`], and cut a longer stream with
//! [`Batches`], which only ever cuts at a multiple of
//! [`SCORE_LANES`].
//!
//! Accumulation never changes the order of any coordinate's adds: every
//! row's gradient is `coefficient · x` (zero coefficients skipped), added
//! in row order. An all-dense octet adds its eight rows in one
//! [`simd::axpy_rows`] pass, which keeps each 4-lane chunk of the
//! accumulator in a register across the rows — bit for bit the eight
//! single-row adds, with one load and store per chunk instead of eight.

use ml4all_linalg::{simd, FeatureView, PointView};
use serde::{Deserialize, Serialize};

/// A per-point (sub)gradient of a convex loss: the `∇f_i(w)` of Section 2.
///
/// Every method takes zero-copy [`PointView`]s — the one shape a row has —
/// and accumulates `∇f_i(w)` into `acc` instead of allocating a vector per
/// point.
pub trait Gradient: Send + Sync {
    /// Accumulate the gradient of the point's loss at `w` into `acc`.
    fn accumulate(&self, w: &[f64], point: PointView<'_>, acc: &mut [f64]);

    /// The point's loss at `w` (used by line search, the objective-value
    /// diagnostics, and test-error reporting).
    fn loss(&self, w: &[f64], point: PointView<'_>) -> f64;

    /// Predict a label for a feature vector (for test-error measurement):
    /// the raw score for regression, its sign for classification.
    fn predict(&self, w: &[f64], point: PointView<'_>) -> f64;

    /// Fused gradient + objective pass: accumulate the gradient into `acc`
    /// and return the point's loss. Implementations that share the
    /// `w·x` dot product between the two (all of Table 3 do) override this
    /// to halve the hot-loop memory traffic; the default performs the two
    /// passes separately.
    fn accumulate_with_loss(&self, w: &[f64], point: PointView<'_>, acc: &mut [f64]) -> f64 {
        self.accumulate(w, point, acc);
        self.loss(w, point)
    }

    /// Accumulate `points` in order. The default is one
    /// [`Gradient::accumulate`] per point; batched implementations may
    /// instead score the slice by the [batch rule](crate::gradient) —
    /// deterministic and ISA-independent, but dense rows scored in a batch
    /// round differently from the sequential single-row dot. Everything
    /// after scoring runs in row order.
    fn accumulate_batch(&self, w: &[f64], points: &[PointView<'_>], acc: &mut [f64]) {
        for &p in points {
            self.accumulate(w, p, acc);
        }
    }

    /// Add the points' losses to `loss_acc` in order. The accumulator is
    /// threaded through (rather than returning a batch total) so every
    /// loss joins the running sum in exactly the sequential order; scores
    /// follow [`Gradient::accumulate_batch`].
    fn loss_batch(&self, w: &[f64], points: &[PointView<'_>], loss_acc: &mut f64) {
        for &p in points {
            *loss_acc += self.loss(w, p);
        }
    }

    /// Fused [`Gradient::accumulate_batch`] + [`Gradient::loss_batch`]: one
    /// scoring pass feeds both outputs.
    fn accumulate_with_loss_batch(
        &self,
        w: &[f64],
        points: &[PointView<'_>],
        acc: &mut [f64],
        loss_acc: &mut f64,
    ) {
        for &p in points {
            *loss_acc += self.accumulate_with_loss(w, p, acc);
        }
    }

    /// Append one [`Gradient::predict`] label per point to `out`,
    /// except that batched dense scoring may round raw regression scores
    /// differently (classification signs are unaffected for any
    /// non-degenerate margin).
    fn predict_batch(&self, w: &[f64], points: &[PointView<'_>], out: &mut Vec<f64>) {
        out.extend(points.iter().map(|&p| self.predict(w, p)));
    }

    /// `true` only if every `accumulate_*` method adds to `acc` at the
    /// point's *stored* indices and nowhere else — the promise
    /// [`crate::operators::ComputeOp::writes_only_stored_indices`] forwards
    /// for a [`crate::operators::GradientCompute`]. The built-in
    /// [`GradientKind`]s make it; the default, `false`, is always safe.
    fn writes_only_stored_indices(&self) -> bool {
        false
    }
}

/// Rows in the widest scoring batch: a row stream cut only at multiples of
/// this keeps the [batch rule](self)'s cut points.
pub const SCORE_LANES: usize = 8;

/// An ordered row stream as consecutive slices off a fixed buffer held by
/// value (no heap), cut only at multiples of [`SCORE_LANES`]: scoring the
/// slices one after the other cuts the same octets, quad and singles as
/// scoring the whole stream at once.
pub struct Batches<'a, I> {
    rows: std::iter::Fuse<I>,
    buf: [PointView<'a>; SCORE_LANES],
}

impl<'a, I: Iterator<Item = PointView<'a>>> Batches<'a, I> {
    /// Batch `rows`.
    pub fn new(rows: I) -> Self {
        Self {
            rows: rows.fuse(),
            buf: [PointView::new(0.0, FeatureView::Dense(&[])); SCORE_LANES],
        }
    }

    /// The next slice; `None` once the stream is spent (an empty stream has
    /// no slices).
    #[inline]
    pub fn next_batch(&mut self) -> Option<&[PointView<'a>]> {
        let mut len = 0;
        for (slot, row) in self.buf.iter_mut().zip(self.rows.by_ref()) {
            *slot = row;
            len += 1;
        }
        (len > 0).then(|| &self.buf[..len])
    }
}

/// The `N` rows as dense slices of the model's width, if that is what they
/// all are.
#[inline]
fn dense_rows<'a, const N: usize>(rows: &[PointView<'a>], width: usize) -> Option<[&'a [f64]; N]> {
    let mut out: [&[f64]; N] = [&[]; N];
    for (slot, row) in out.iter_mut().zip(rows) {
        match row.features {
            // Equal-length re-slices let the compiler elide bounds checks
            // inside the fused kernel loop.
            FeatureView::Dense(r) if r.len() == width => *slot = &r[..width],
            _ => return None,
        }
    }
    Some(out)
}

/// Four scores by the quad arm of the [batch rule](self).
#[inline]
fn quad_scores(w: &[f64], quad: &[PointView<'_>]) -> [f64; 4] {
    if let Some(rows) = dense_rows::<4>(quad, w.len()) {
        return simd::dot4(rows, w);
    }
    let mut indices: [&[u32]; 4] = [&[]; 4];
    let mut values: [&[f64]; 4] = [&[]; 4];
    for (k, row) in quad.iter().enumerate() {
        match row.features {
            FeatureView::Sparse {
                dim,
                indices: i,
                values: v,
            } if dim == w.len() => {
                indices[k] = i;
                values[k] = v;
            }
            // Mixed storage or a shape mismatch: row by row.
            _ => return std::array::from_fn(|k| quad[k].features.dot(w)),
        }
    }
    simd::sparse_dot4(indices, values, w)
}

/// The [batch rule](self): score `rows` against `w` and hand `f` each
/// batch's scores beside its rows, batches in row order — plus, for an
/// all-dense octet, its rows as the dense slices they are.
#[inline]
fn for_each_scored<'a>(
    w: &[f64],
    rows: &[PointView<'a>],
    mut f: impl FnMut(&[f64], &[PointView<'a>], Option<&[&'a [f64]; SCORE_LANES]>),
) {
    let mut octets = rows.chunks_exact(SCORE_LANES);
    for octet in octets.by_ref() {
        match dense_rows::<SCORE_LANES>(octet, w.len()) {
            Some(dense) => f(&simd::dot8(dense, w), octet, Some(&dense)),
            None => {
                for quad in octet.chunks_exact(4) {
                    f(&quad_scores(w, quad), quad, None);
                }
            }
        }
    }
    // Fewer than eight rows are left: at most one quad, then singles.
    let mut quads = octets.remainder().chunks_exact(4);
    for quad in quads.by_ref() {
        f(&quad_scores(w, quad), quad, None);
    }
    for row in quads.remainder() {
        f(&[row.features.dot(w)], std::slice::from_ref(row), None);
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

    /// Inverse of [`GradientKind::function_name`]: the kind a canonical
    /// name spells. Front ends keep their own aliases on top.
    pub fn from_function_name(name: &str) -> Option<Self> {
        [Self::LinearRegression, Self::LogisticRegression, Self::Svm]
            .into_iter()
            .find(|kind| kind.function_name() == name)
    }

    /// `true` for classification tasks (labels in `{−1, +1}`).
    pub fn is_classification(&self) -> bool {
        !matches!(self, Self::LinearRegression)
    }
}

impl GradientKind {
    /// The point's gradient is `coefficient · x`, given the precomputed
    /// score `w·x` and the label `y`; a zero coefficient adds nothing and
    /// its row is skipped. The one place the Table 3 gradients live, for
    /// the row-by-row and the octet path alike. (Skipping is exact even for
    /// linear regression's zero, `score == y`: a finite score means finite
    /// features, so `0 · x` adds a signed zero, which changes no
    /// accumulator that starts at `+0.0` — one that only gains sums never
    /// holds `-0.0`.)
    #[inline]
    fn coefficient(&self, score: f64, y: f64) -> f64 {
        match self {
            Self::LinearRegression => 2.0 * (score - y),
            Self::LogisticRegression => {
                let margin = y * score;
                // −y / (1 + e^{margin}); guard the exponential against
                // overflow for strongly-classified points.
                if margin > 35.0 {
                    0.0
                } else if margin < -35.0 {
                    -y
                } else {
                    -y / (1.0 + margin.exp())
                }
            }
            Self::Svm => {
                if y * score < 1.0 {
                    -y
                } else {
                    0.0
                }
            }
        }
    }

    /// Gradient contribution given the precomputed score `w·x`: the shared
    /// second half of the plain and fused accumulation paths.
    #[inline]
    fn accumulate_scored(&self, score: f64, point: PointView<'_>, acc: &mut [f64]) {
        let c = self.coefficient(score, point.label);
        if c != 0.0 {
            point.features.axpy_into(acc, c);
        }
    }

    /// Add one scored batch's gradients to `acc` in row order: an all-dense
    /// octet in one [`simd::axpy_rows`] pass, any other batch row by row.
    #[inline]
    fn accumulate_scored_batch(
        &self,
        scores: &[f64],
        rows: &[PointView<'_>],
        dense: Option<&[&[f64]; SCORE_LANES]>,
        acc: &mut [f64],
    ) {
        match dense {
            Some(dense) => {
                let coefs: [f64; SCORE_LANES] =
                    std::array::from_fn(|k| self.coefficient(scores[k], rows[k].label));
                let width = acc.len().min(dense[0].len());
                simd::axpy_rows(&mut acc[..width], &coefs, dense);
            }
            None => {
                for (&score, &p) in scores.iter().zip(rows) {
                    self.accumulate_scored(score, p, acc);
                }
            }
        }
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
    fn accumulate(&self, w: &[f64], point: PointView<'_>, acc: &mut [f64]) {
        let score = point.features.dot(w);
        self.accumulate_scored(score, point, acc);
    }

    /// Every arm of `accumulate_scored` is an `axpy_into` of the row.
    fn writes_only_stored_indices(&self) -> bool {
        true
    }

    fn loss(&self, w: &[f64], point: PointView<'_>) -> f64 {
        self.loss_scored(point.features.dot(w), point.label)
    }

    /// One `w·x` dot product feeds both the gradient and the loss.
    fn accumulate_with_loss(&self, w: &[f64], point: PointView<'_>, acc: &mut [f64]) -> f64 {
        let score = point.features.dot(w);
        self.accumulate_scored(score, point, acc);
        self.loss_scored(score, point.label)
    }

    fn accumulate_batch(&self, w: &[f64], points: &[PointView<'_>], acc: &mut [f64]) {
        for_each_scored(w, points, |scores, rows, dense| {
            self.accumulate_scored_batch(scores, rows, dense, acc);
        });
    }

    fn loss_batch(&self, w: &[f64], points: &[PointView<'_>], loss_acc: &mut f64) {
        for_each_scored(w, points, |scores, rows, _| {
            for (&score, p) in scores.iter().zip(rows) {
                *loss_acc += self.loss_scored(score, p.label);
            }
        });
    }

    fn accumulate_with_loss_batch(
        &self,
        w: &[f64],
        points: &[PointView<'_>],
        acc: &mut [f64],
        loss_acc: &mut f64,
    ) {
        for_each_scored(w, points, |scores, rows, dense| {
            self.accumulate_scored_batch(scores, rows, dense, acc);
            for (&score, p) in scores.iter().zip(rows) {
                *loss_acc += self.loss_scored(score, p.label);
            }
        });
    }

    fn predict_batch(&self, w: &[f64], points: &[PointView<'_>], out: &mut Vec<f64>) {
        for_each_scored(w, points, |scores, _, _| {
            out.extend(scores.iter().map(|&score| self.score_to_prediction(score)));
        });
    }

    fn predict(&self, w: &[f64], point: PointView<'_>) -> f64 {
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

    fn pt(label: f64, xs: &[f64]) -> PointView<'_> {
        PointView::new(label, FeatureView::Dense(xs))
    }

    #[test]
    fn linreg_gradient_is_residual_scaled_features() {
        let g = GradientKind::LinearRegression;
        let p = pt(3.0, &[1.0, 2.0]);
        let w = [1.0, 0.0]; // pred = 1, residual = -2
        let mut acc = vec![0.0; 2];
        g.accumulate(&w, p, &mut acc);
        assert_eq!(acc, vec![-4.0, -8.0]);
        assert_eq!(g.loss(&w, p), 4.0);
    }

    #[test]
    fn svm_gradient_is_zero_outside_margin() {
        let g = GradientKind::Svm;
        let p = pt(1.0, &[2.0]);
        let mut acc = vec![0.0];
        g.accumulate(&[1.0], p, &mut acc); // margin = 2 ≥ 1 → no gradient
        assert_eq!(acc, vec![0.0]);
        assert_eq!(g.loss(&[1.0], p), 0.0);
        g.accumulate(&[0.0], p, &mut acc); // margin = 0 < 1 → −y x
        assert_eq!(acc, vec![-2.0]);
        assert_eq!(g.loss(&[0.0], p), 1.0);
    }

    #[test]
    fn logistic_gradient_has_correct_sign_and_magnitude() {
        let g = GradientKind::LogisticRegression;
        let p = pt(1.0, &[1.0]);
        let mut acc = vec![0.0];
        g.accumulate(&[0.0], p, &mut acc); // factor = −1/2
        assert!((acc[0] + 0.5).abs() < 1e-12);
        // Strongly correct classification → vanishing gradient, zero loss.
        let mut acc2 = vec![0.0];
        g.accumulate(&[100.0], p, &mut acc2);
        assert_eq!(acc2[0], 0.0);
        assert_eq!(g.loss(&[100.0], p), 0.0);
        // Strongly wrong classification → gradient −y x, loss ≈ |margin|.
        let mut acc3 = vec![0.0];
        g.accumulate(&[-100.0], p, &mut acc3);
        assert_eq!(acc3[0], -1.0);
        assert_eq!(g.loss(&[-100.0], p), 100.0);
    }

    #[test]
    fn logistic_loss_matches_gradient_numerically() {
        let g = GradientKind::LogisticRegression;
        let p = pt(-1.0, &[0.7, -0.3]);
        let w = [0.2, 0.4];
        let eps = 1e-6;
        for j in 0..2 {
            let mut wp = w;
            wp[j] += eps;
            let mut wm = w;
            wm[j] -= eps;
            let numeric = (g.loss(&wp, p) - g.loss(&wm, p)) / (2.0 * eps);
            let mut acc = vec![0.0; 2];
            g.accumulate(&w, p, &mut acc);
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
        let p = pt(2.5, &[1.5, -0.5]);
        let w = [0.3, 0.9];
        let eps = 1e-6;
        for j in 0..2 {
            let mut wp = w;
            wp[j] += eps;
            let mut wm = w;
            wm[j] -= eps;
            let numeric = (g.loss(&wp, p) - g.loss(&wm, p)) / (2.0 * eps);
            let mut acc = vec![0.0; 2];
            g.accumulate(&w, p, &mut acc);
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
                let p = pt(label, &[0.4, 1.2]);
                let mut acc_sep = vec![0.0; 2];
                kind.accumulate(&w, p, &mut acc_sep);
                let loss_sep = kind.loss(&w, p);
                let mut acc_fused = vec![0.0; 2];
                let loss_fused = kind.accumulate_with_loss(&w, p, &mut acc_fused);
                assert_eq!(acc_sep, acc_fused, "{kind:?}");
                assert_eq!(loss_sep.to_bits(), loss_fused.to_bits(), "{kind:?}");
            }
        }
    }

    /// Mixed dense/CSR batches — which no dataset constructor produces, so
    /// `tests/batch_contract.rs` cannot reach them — score per half: a
    /// uniform half through its quad kernel, a mixed one row by row.
    #[test]
    fn mixed_storage_batches_score_per_half() {
        let w: Vec<f64> = (0..11).map(|j| 0.37 * j as f64 - 1.9).collect();
        // Dense rows (label 1) store values only; CSR rows (label -1)
        // store four indices into an 11-wide space.
        let stored = |k: usize, dense: bool| -> (Vec<u32>, Vec<f64>) {
            if dense {
                let xs = (0..11).map(|j| ((k * 11 + j) as f64 * 0.73).sin());
                return (Vec::new(), xs.collect());
            }
            let idx = vec![k as u32 % 3, 4 + k as u32 % 2, 7, 10];
            let vals = idx
                .iter()
                .map(|&i| ((k + i as usize) as f64).cos())
                .collect();
            (idx, vals)
        };
        // D D D D | S S S S   D S D D | S S S S   S D S D   D
        let layout = "DDDDSSSSDSDDSSSSSDSDD";
        let storage: Vec<_> = (layout.bytes().enumerate())
            .map(|(k, c)| stored(k, c == b'D'))
            .collect();
        let rows: Vec<PointView<'_>> = (layout.bytes().zip(&storage))
            .map(|(c, (indices, values))| match c {
                b'D' => pt(1.0, values),
                _ => PointView::new(
                    -1.0,
                    FeatureView::Sparse {
                        dim: 11,
                        indices,
                        values,
                    },
                ),
            })
            .collect();
        let d = |k: usize| match rows[k].features {
            FeatureView::Dense(r) => r,
            FeatureView::Sparse { .. } => panic!("row {k} is sparse"),
        };
        let s = |k: usize| match rows[k].features {
            FeatureView::Sparse {
                indices, values, ..
            } => (indices, values),
            FeatureView::Dense(_) => panic!("row {k} is dense"),
        };
        let sparse4 = |k: usize| {
            let (i, v): (Vec<_>, Vec<_>) = (k..k + 4).map(s).unzip();
            simd::sparse_dot4([i[0], i[1], i[2], i[3]], [v[0], v[1], v[2], v[3]], &w)
        };
        let mut want = Vec::new();
        want.extend(simd::dot4([d(0), d(1), d(2), d(3)], &w));
        want.extend(sparse4(4));
        want.extend((8..12).map(|k| rows[k].features.dot(&w)));
        want.extend(sparse4(12));
        want.extend((16..21).map(|k| rows[k].features.dot(&w)));

        let mut got = Vec::new();
        for_each_scored(&w, &rows, |scores, _, _| got.extend_from_slice(scores));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));

        // The batch methods are that scoring plus Table 3 in row order.
        let kind = GradientKind::LogisticRegression;
        let (mut loss, mut want_loss) = (0.0, 0.0);
        kind.loss_batch(&w, &rows, &mut loss);
        for (score, row) in want.iter().zip(&rows) {
            want_loss += kind.loss_scored(*score, row.label);
        }
        assert_eq!(loss.to_bits(), want_loss.to_bits());
        // Golden: a different cut, kernel or summation order moves these bits.
        assert_eq!(loss.to_bits(), 0x4035_0fad_647b_9b37);
        let mut predicted = Vec::new();
        GradientKind::LinearRegression.predict_batch(&w, &rows, &mut predicted);
        assert_eq!(bits(&predicted), bits(&want));
    }

    #[test]
    fn classification_predicts_sign_regression_predicts_score() {
        let p = pt(1.0, &[2.0]);
        assert_eq!(GradientKind::Svm.predict(&[-1.0], p), -1.0);
        assert_eq!(GradientKind::LogisticRegression.predict(&[1.0], p), 1.0);
        assert_eq!(GradientKind::LinearRegression.predict(&[1.5], p), 3.0);
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
        for kind in [
            GradientKind::LinearRegression,
            GradientKind::LogisticRegression,
            GradientKind::Svm,
        ] {
            assert_eq!(
                GradientKind::from_function_name(kind.function_name()),
                Some(kind)
            );
        }
        assert_eq!(GradientKind::from_function_name("svm"), None);
        assert_eq!(GradientKind::LinearRegression.function_name(), "squared");
    }
}
