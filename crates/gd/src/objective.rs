//! Objective-value evaluation: `f(w) = Σ ℓ(x_i, y_i, w)/n + R(w)`
//! (Equation 1), used by line search, diagnostics, and test-error
//! reporting.

use ml4all_dataflow::PartitionedDataset;
use ml4all_linalg::PointView;

use crate::gradient::{Gradient, Regularizer};

/// Mean loss over a stream of rows plus the regularizer penalty.
pub fn stream_loss<'a>(
    gradient: &dyn Gradient,
    regularizer: &Regularizer,
    w: &[f64],
    points: impl Iterator<Item = PointView<'a>>,
) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in points {
        sum += gradient.loss(w, v);
        n += 1;
    }
    if n == 0 {
        regularizer.penalty(w)
    } else {
        sum / n as f64 + regularizer.penalty(w)
    }
}

/// Mean loss over every physical row of a partitioned dataset, straight
/// off the columnar storage — no materialization.
pub fn partitioned_loss(
    gradient: &dyn Gradient,
    regularizer: &Regularizer,
    w: &[f64],
    data: &PartitionedDataset,
) -> f64 {
    stream_loss(gradient, regularizer, w, data.iter_views())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::GradientKind;
    use ml4all_dataflow::ColumnStore;
    use ml4all_linalg::FeatureView;

    fn pts() -> ColumnStore {
        [(1.0, [1.0]), (-1.0, [1.0])].into_iter().collect()
    }

    #[test]
    fn svm_loss_at_zero_weights_is_one() {
        // hinge(0) = 1 for every point.
        let loss = stream_loss(&GradientKind::Svm, &Regularizer::None, &[0.0], pts().iter());
        assert!((loss - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_yields_penalty_only() {
        let reg = Regularizer::L2 { lambda: 2.0 };
        let loss = stream_loss(&GradientKind::Svm, &reg, &[3.0], std::iter::empty());
        assert!((loss - 9.0).abs() < 1e-12);
    }

    #[test]
    fn stream_and_slice_agree() {
        // Rows read off a store and rows borrowed from loose slices.
        let points = pts();
        let loose = [
            PointView::new(1.0, FeatureView::Dense(&[1.0])),
            PointView::new(-1.0, FeatureView::Dense(&[1.0])),
        ];
        let loss = |rows: &mut dyn Iterator<Item = PointView<'_>>| {
            stream_loss(
                &GradientKind::LogisticRegression,
                &Regularizer::None,
                &[0.5],
                rows,
            )
        };
        let a = loss(&mut points.iter());
        let b = loss(&mut loose.into_iter());
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn partitioned_loss_matches_materialized_loss() {
        use ml4all_dataflow::{ClusterSpec, PartitionScheme};
        let points = pts();
        let data = PartitionedDataset::from_columns(
            "obj",
            &points,
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap();
        let a = stream_loss(
            &GradientKind::Svm,
            &Regularizer::None,
            &[0.25],
            points.iter(),
        );
        let b = partitioned_loss(&GradientKind::Svm, &Regularizer::None, &[0.25], &data);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
