//! Dense vectors: the model vector `w` and dense feature rows.

use serde::{Deserialize, Serialize};

use crate::LinalgError;

/// A dense `f64` vector.
///
/// Used for the model vector `w`, gradient accumulators, and dense feature
/// rows. All binary operations check dimensions and the checked variants
/// return [`LinalgError::DimensionMismatch`] on disagreement; the unchecked
/// in-place kernels (`axpy`, `add_assign`) debug-assert instead because they
/// sit on the per-data-unit hot path of every GD iteration.
#[derive(Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct DenseVector(Vec<f64>);

impl Clone for DenseVector {
    fn clone(&self) -> Self {
        Self(self.0.clone())
    }

    /// Reuses `self`'s buffer (the derived `clone_from` would allocate a
    /// fresh one): the executor refreshes its previous-weights copy this
    /// way once per iteration.
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl DenseVector {
    /// Create a vector from raw values.
    pub fn new(values: Vec<f64>) -> Self {
        Self(values)
    }

    /// Create a zero vector of dimension `dim` (the `Stage` operator's
    /// default initial model, Listing 4).
    pub fn zeros(dim: usize) -> Self {
        Self(vec![0.0; dim])
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// `true` if the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the components.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Mutably borrow the components.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Consume into the underlying storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.0
    }

    /// Dot product with another dense vector.
    pub fn dot(&self, other: &Self) -> Result<f64, LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(dot(&self.0, &other.0))
    }

    /// `self += alpha * other` — the gradient-accumulation kernel.
    pub fn axpy(&mut self, alpha: f64, other: &Self) {
        debug_assert_eq!(self.dim(), other.dim());
        axpy(&mut self.0, alpha, &other.0);
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Self) {
        debug_assert_eq!(self.dim(), other.dim());
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.0 {
            *a *= alpha;
        }
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Self) -> Result<Self, LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(Self(
            self.0.iter().zip(&other.0).map(|(a, b)| a - b).collect(),
        ))
    }

    /// L1 norm: `sum |x_i|` — the delta of the paper's `Converge` reference
    /// implementation (Listing 5).
    pub fn l1_norm(&self) -> f64 {
        self.0.iter().map(|x| x.abs()).sum()
    }

    /// L2 norm.
    pub fn l2_norm(&self) -> f64 {
        self.l2_norm_squared().sqrt()
    }

    /// Squared L2 norm (avoids the square root on hot paths).
    pub fn l2_norm_squared(&self) -> f64 {
        self.0.iter().map(|x| x * x).sum()
    }

    /// L1 distance to another vector of the same dimension.
    pub fn l1_distance(&self, other: &Self) -> Result<f64, LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(self
            .0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b).abs())
            .sum())
    }

    /// L2 distance to another vector of the same dimension.
    pub fn l2_distance(&self, other: &Self) -> Result<f64, LinalgError> {
        if self.dim() != other.dim() {
            return Err(LinalgError::DimensionMismatch {
                left: self.dim(),
                right: other.dim(),
            });
        }
        Ok(self
            .0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt())
    }

    /// [`DenseVector::l1_distance`] summed over `support` only: strictly
    /// increasing indices outside which the two vectors agree. Bit-identical
    /// to the full distance under that condition — every skipped term is
    /// `+0.0`, an exact identity of the sequential sum once the first term
    /// has absorbed `Iterator::sum`'s `-0.0` seed — at a cost proportional
    /// to the support, not the dimension.
    ///
    /// # Panics
    /// If the dimensions differ or an index is out of range.
    pub fn l1_distance_at(&self, other: &Self, support: &[u32]) -> f64 {
        assert_eq!(self.dim(), other.dim());
        let (a, b) = (&self.0, &other.0);
        self.absorb_seed(
            support
                .iter()
                .map(|&i| (a[i as usize] - b[i as usize]).abs())
                .sum(),
        )
    }

    /// [`DenseVector::l2_distance`] summed over `support` only, under the
    /// contract of [`DenseVector::l1_distance_at`].
    pub fn l2_distance_at(&self, other: &Self, support: &[u32]) -> f64 {
        assert_eq!(self.dim(), other.dim());
        let (a, b) = (&self.0, &other.0);
        self.absorb_seed(
            support
                .iter()
                .map(|&i| {
                    let d = a[i as usize] - b[i as usize];
                    d * d
                })
                .sum(),
        )
        .sqrt()
    }

    /// What a sum of non-negative terms over a support reads once the full
    /// sum's skipped `+0.0` terms are counted: an empty support leaves
    /// `Iterator::sum`'s `-0.0` seed, which any term of a non-empty vector
    /// turns into `+0.0`.
    fn absorb_seed(&self, sum: f64) -> f64 {
        if self.is_empty() {
            sum
        } else {
            sum + 0.0
        }
    }

    /// Set every component to zero, keeping the allocation (workhorse
    /// accumulator pattern).
    pub fn fill_zero(&mut self) {
        self.0.fill(0.0);
    }
}

impl From<Vec<f64>> for DenseVector {
    fn from(values: Vec<f64>) -> Self {
        Self(values)
    }
}

impl std::ops::Index<usize> for DenseVector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl std::ops::IndexMut<usize> for DenseVector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

/// Dot product over raw slices (hot path; slices let LLVM elide bounds
/// checks).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x` over raw slices.
///
/// Elementwise, so the runtime-dispatched vector arm in [`crate::simd`]
/// produces bit-identical results to scalar code; it only changes speed.
#[inline]
pub fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    crate::simd::axpy(y, alpha, x);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_dim_and_zero_norm() {
        let v = DenseVector::zeros(7);
        assert_eq!(v.dim(), 7);
        assert_eq!(v.l2_norm(), 0.0);
        assert_eq!(v.l1_norm(), 0.0);
    }

    #[test]
    fn dot_of_orthogonal_vectors_is_zero() {
        let a = DenseVector::new(vec![1.0, 0.0]);
        let b = DenseVector::new(vec![0.0, 5.0]);
        assert_eq!(a.dot(&b).unwrap(), 0.0);
    }

    #[test]
    fn dot_rejects_dimension_mismatch() {
        let a = DenseVector::zeros(2);
        let b = DenseVector::zeros(3);
        assert_eq!(
            a.dot(&b),
            Err(LinalgError::DimensionMismatch { left: 2, right: 3 })
        );
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = DenseVector::new(vec![1.0, 2.0]);
        let x = DenseVector::new(vec![10.0, -10.0]);
        y.axpy(0.5, &x);
        assert_eq!(y.as_slice(), &[6.0, -3.0]);
    }

    #[test]
    fn sub_and_distances_agree() {
        let a = DenseVector::new(vec![3.0, -1.0]);
        let b = DenseVector::new(vec![1.0, 1.0]);
        let d = a.sub(&b).unwrap();
        assert_eq!(d.l1_norm(), a.l1_distance(&b).unwrap());
        assert!((d.l2_norm() - a.l2_distance(&b).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn scale_and_fill_zero() {
        let mut v = DenseVector::new(vec![2.0, -4.0]);
        v.scale(-0.5);
        assert_eq!(v.as_slice(), &[-1.0, 2.0]);
        v.fill_zero();
        assert_eq!(v.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn l2_norm_squared_matches_norm() {
        let v = DenseVector::new(vec![3.0, 4.0]);
        assert_eq!(v.l2_norm(), 5.0);
        assert_eq!(v.l2_norm_squared(), 25.0);
    }

    #[test]
    fn clone_from_reuses_the_buffer() {
        let src = DenseVector::new(vec![1.0, 2.0, 3.0]);
        let mut dst = DenseVector::zeros(3);
        let ptr = dst.as_slice().as_ptr();
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(ptr, dst.as_slice().as_ptr());
    }

    #[test]
    fn support_distances_match_the_seed_of_the_full_sums() {
        // An empty support over a non-empty vector is `+0.0`, as the full
        // sum of `+0.0` terms reads; over an empty vector both keep the
        // bare seed.
        let v = DenseVector::new(vec![1.5, -2.0]);
        for (at, full) in [
            (v.l1_distance_at(&v, &[]), v.l1_distance(&v).unwrap()),
            (v.l2_distance_at(&v, &[]), v.l2_distance(&v).unwrap()),
        ] {
            assert_eq!(at.to_bits(), full.to_bits());
            assert_eq!(at.to_bits(), 0.0f64.to_bits());
        }
        let e = DenseVector::zeros(0);
        assert_eq!(
            e.l1_distance_at(&e, &[]).to_bits(),
            e.l1_distance(&e).unwrap().to_bits()
        );
        assert_eq!(
            e.l2_distance_at(&e, &[]).to_bits(),
            e.l2_distance(&e).unwrap().to_bits()
        );
    }

    #[test]
    fn indexing_reads_and_writes() {
        let mut v = DenseVector::zeros(3);
        v[1] = 9.0;
        assert_eq!(v[1], 9.0);
    }
}
