//! Dense and sparse linear-algebra primitives for the ml4all gradient-descent
//! optimizer.
//!
//! The gradient-descent operators of the paper (Section 4) work over *data
//! units*: labelled feature vectors that may be dense (e.g. the synthetic
//! `svm1`–`svm3` datasets of Table 2) or sparse (e.g. `rcv1` with density
//! `1.5e-3`). This crate provides the borrowed row type both layouts are
//! read through, [`PointView`] over a [`FeatureView`], plus the handful of
//! kernels every GD iteration needs: dot products against a dense weight
//! vector, scaled accumulation (`axpy`), and the norms used by the
//! `Converge` operator.
//!
//! # Example
//!
//! ```
//! use ml4all_linalg::{DenseVector, FeatureView, PointView};
//!
//! let w = DenseVector::new(vec![1.0, 10.0, 100.0, 1000.0]);
//! let dense = PointView::new(1.0, FeatureView::Dense(&[1.0, 0.0, 2.0, 0.0]));
//! let sparse = PointView::new(-1.0, FeatureView::Sparse {
//!     dim: 4,
//!     indices: &[0, 2],
//!     values: &[1.0, 2.0],
//! });
//! assert_eq!(dense.features.dot(w.as_slice()), sparse.features.dot(w.as_slice()));
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod dense;
pub mod point;
pub mod simd;
pub mod view;

pub use dense::DenseVector;
pub use point::{PointView, LABEL_BYTES};
pub use simd::Isa;
pub use view::{FeatureView, DENSE_ENTRY_BYTES, SPARSE_ENTRY_BYTES};

/// Error type for shape/validity violations of vectors and sparse rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Parallel index/value arrays of a sparse vector differ in length.
    IndexValueLengthMismatch { indices: usize, values: usize },
    /// Sparse indices must be strictly increasing.
    UnsortedIndices,
    /// Two operands disagree on dimensionality.
    DimensionMismatch { left: usize, right: usize },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::IndexValueLengthMismatch { indices, values } => {
                write!(f, "sparse vector has {indices} indices but {values} values")
            }
            Self::UnsortedIndices => write!(f, "sparse indices must be strictly increasing"),
            Self::DimensionMismatch { left, right } => {
                write!(f, "dimension mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}
