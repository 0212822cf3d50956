//! Labelled data points — the *data units* flowing through GD plans.
//!
//! A point is always borrowed: the columnar storage layer (contiguous
//! dense slabs and CSR) hands out [`PointView`]s, a label plus a borrowed
//! [`FeatureView`], so no stage of a plan allocates per point or chases
//! pointers. Rows enter that storage through its builder, never as owned
//! points.

use crate::FeatureView;

/// Bytes one stored label takes: its `f64` value.
pub const LABEL_BYTES: usize = 8;

/// A borrowed labelled data point: the unit the `Compute` operator
/// consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointView<'a> {
    /// Class label (`±1` for classification) or regression target.
    pub label: f64,
    /// Borrowed feature vector.
    pub features: FeatureView<'a>,
}

impl<'a> PointView<'a> {
    /// Construct a view.
    #[inline]
    pub fn new(label: f64, features: FeatureView<'a>) -> Self {
        Self { label, features }
    }

    /// Dimensionality of the feature space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.features.dim()
    }

    /// Approximate storage footprint in bytes (Table 1's `|D|_b`
    /// bookkeeping): the label plus the stored feature entries.
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        LABEL_BYTES + self.features.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDX: [u32; 2] = [1, 3];

    fn sparse<'a>(dim: usize, indices: &'a [u32], values: &'a [f64]) -> FeatureView<'a> {
        FeatureView::Sparse {
            dim,
            indices,
            values,
        }
    }

    #[test]
    fn dense_and_sparse_dot_agree() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let d = FeatureView::Dense(&[0.0, 5.0, 0.0, 1.0]);
        let s = sparse(4, &IDX, &[5.0, 1.0]);
        assert_eq!(d.dot(&w), s.dot(&w));
        assert_eq!(d.dot(&w), 14.0);
        assert_eq!((d.dim(), s.dim()), (4, 4));
        assert_eq!((d.nnz(), s.nnz()), (4, 2));
    }

    #[test]
    fn dense_and_sparse_axpy_agree() {
        let mut acc_d = vec![0.0; 3];
        let mut acc_s = vec![0.0; 3];
        let d = FeatureView::Dense(&[1.0, 0.0, -2.0]);
        let s = sparse(3, &[0, 2], &[1.0, -2.0]);
        d.axpy_into(&mut acc_d, 3.0);
        s.axpy_into(&mut acc_s, 3.0);
        assert_eq!(acc_d, acc_s);
        assert_eq!(acc_d, vec![3.0, 0.0, -6.0]);
    }

    #[test]
    fn to_dense_round_trips() {
        let mut out = vec![9.0; 7];
        sparse(4, &[0, 2], &[1.5, 2.5]).write_dense(&mut out);
        assert_eq!(out, [1.5, 0.0, 2.5, 0.0]);
        FeatureView::Dense(&[3.0, 4.0]).write_dense(&mut out);
        assert_eq!(out, [3.0, 4.0]);
        let p = PointView::new(-1.0, FeatureView::Dense(&out));
        assert_eq!((p.label, p.dim()), (-1.0, 2));
    }

    #[test]
    fn approx_bytes_tracks_storage() {
        let d = PointView::new(1.0, FeatureView::Dense(&[0.0; 10]));
        assert_eq!(d.approx_bytes(), 8 + 80);
        let s = PointView::new(1.0, sparse(1000, &[3], &[1.0]));
        assert_eq!(s.approx_bytes(), 8 + 12);
    }
}
