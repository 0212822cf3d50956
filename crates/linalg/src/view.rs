//! Borrowed, zero-copy feature vectors.
//!
//! The columnar storage layer (contiguous dense slabs and CSR) hands the
//! gradient hot loop [`FeatureView`]s: borrowed feature slices, no
//! per-point allocation or pointer chasing.

/// Bytes one stored dense entry takes: its `f64` value.
pub const DENSE_ENTRY_BYTES: usize = 8;
/// Bytes one stored sparse entry takes: a `u32` index and an `f64` value.
pub const SPARSE_ENTRY_BYTES: usize = 12;

/// A borrowed feature vector in either dense or sparse storage.
///
/// The `Transform` operator of the paper parses raw text into exactly this
/// shape: dense rows for comma-separated numeric files (Listing 1) and
/// `label [indices] [values]` units for LIBSVM input (Figure 3a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureView<'a> {
    /// A dense row borrowed from a contiguous slab.
    Dense(&'a [f64]),
    /// A sparse row borrowed from CSR storage: parallel index/value slices
    /// with strictly increasing indices within a declared dimensionality.
    Sparse {
        /// Declared dimensionality of the feature space.
        dim: usize,
        /// Stored indices (strictly increasing).
        indices: &'a [u32],
        /// Stored values, parallel to `indices`.
        values: &'a [f64],
    },
}

impl FeatureView<'_> {
    /// Dimensionality of the feature space.
    #[inline]
    pub fn dim(&self) -> usize {
        match self {
            Self::Dense(v) => v.len(),
            Self::Sparse { dim, .. } => *dim,
        }
    }

    /// Number of materialized (possibly non-zero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        match self {
            Self::Dense(v) => v.len(),
            Self::Sparse { indices, .. } => indices.len(),
        }
    }

    /// Dot product against a dense weight slice.
    #[inline]
    pub fn dot(&self, weights: &[f64]) -> f64 {
        match self {
            Self::Dense(v) => crate::dense::dot(v, weights),
            Self::Sparse {
                indices, values, ..
            } => indices
                .iter()
                .zip(values.iter())
                .map(|(&i, &v)| v * weights[i as usize])
                .sum(),
        }
    }

    /// `acc += alpha * self` into a dense accumulator.
    #[inline]
    pub fn axpy_into(&self, acc: &mut [f64], alpha: f64) {
        match self {
            Self::Dense(v) => crate::dense::axpy(acc, alpha, v),
            Self::Sparse {
                indices, values, ..
            } => {
                for (&i, &v) in indices.iter().zip(values.iter()) {
                    acc[i as usize] += alpha * v;
                }
            }
        }
    }

    /// Overwrite `out` with the row's `dim()` dense values, reusing its
    /// allocation.
    pub fn write_dense(&self, out: &mut Vec<f64>) {
        out.clear();
        match self {
            Self::Dense(v) => out.extend_from_slice(v),
            Self::Sparse {
                dim,
                indices,
                values,
            } => {
                out.resize(*dim, 0.0);
                for (&i, &v) in indices.iter().zip(values.iter()) {
                    out[i as usize] = v;
                }
            }
        }
    }

    /// Approximate storage footprint of the stored entries in bytes.
    #[inline]
    pub fn approx_bytes(&self) -> usize {
        match self {
            Self::Dense(v) => DENSE_ENTRY_BYTES * v.len(),
            Self::Sparse { indices, .. } => SPARSE_ENTRY_BYTES * indices.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointView;

    #[test]
    fn dense_and_sparse_views_agree_on_kernels() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let dense = FeatureView::Dense(&[0.0, 5.0, 0.0, 1.0]);
        let sparse = FeatureView::Sparse {
            dim: 4,
            indices: &[1, 3],
            values: &[5.0, 1.0],
        };
        assert_eq!(dense.dot(&w), sparse.dot(&w));
        assert_eq!(dense.dot(&w), 14.0);

        let mut acc_d = vec![0.0; 4];
        let mut acc_s = vec![0.0; 4];
        dense.axpy_into(&mut acc_d, 2.0);
        sparse.axpy_into(&mut acc_s, 2.0);
        assert_eq!(acc_d, acc_s);
        assert_eq!(dense.dim(), 4);
        assert_eq!(sparse.dim(), 4);
        assert_eq!(sparse.nnz(), 2);
    }

    #[test]
    fn views_round_trip_through_owned_points() {
        // A row's owned form is its dense value buffer; viewing that buffer
        // again gives back an equal row.
        let mut owned = Vec::new();
        let d = PointView::new(-1.0, FeatureView::Dense(&[1.5, 0.0, 2.5]));
        d.features.write_dense(&mut owned);
        assert_eq!(PointView::new(d.label, FeatureView::Dense(&owned)), d);

        let s = FeatureView::Sparse {
            dim: 5,
            indices: &[0, 4],
            values: &[1.0, 2.0],
        };
        s.write_dense(&mut owned);
        assert_eq!(owned, [1.0, 0.0, 0.0, 0.0, 2.0]);
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(FeatureView::Dense(&owned).dot(&w), s.dot(&w));
    }

    #[test]
    fn approx_feature_bytes_matches_point_accounting() {
        let d = PointView::new(1.0, FeatureView::Dense(&[0.0; 10]));
        assert_eq!(d.features.approx_bytes(), 80);
        assert_eq!(d.approx_bytes(), 8 + d.features.approx_bytes());
        let s = PointView::new(
            1.0,
            FeatureView::Sparse {
                dim: 1000,
                indices: &[3],
                values: &[1.0],
            },
        );
        assert_eq!(s.features.approx_bytes(), 12);
        assert_eq!(s.approx_bytes(), 8 + s.features.approx_bytes());
    }
}
