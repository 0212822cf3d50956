//! Property-based tests for the linear-algebra kernels: algebraic laws that
//! must hold for any input, plus dense/sparse agreement.

use ml4all_linalg::{DenseVector, FeatureView};
use proptest::prelude::*;

const DIM: usize = 16;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3..1e3f64, len)
}

/// A random CSR row over a fixed dimension: a subset of indices (empty
/// included) and matching values.
fn sparse_row() -> impl Strategy<Value = (Vec<u32>, Vec<f64>)> {
    prop::collection::btree_set(0u32..DIM as u32, 0..DIM).prop_flat_map(|idx_set| {
        let indices: Vec<u32> = idx_set.into_iter().collect();
        let n = indices.len();
        (Just(indices), prop::collection::vec(-1e3..1e3f64, n))
    })
}

/// The row's dense materialization.
fn dense_of(row: &FeatureView<'_>) -> Vec<f64> {
    let mut out = Vec::new();
    row.write_dense(&mut out);
    out
}

proptest! {
    #[test]
    fn dot_is_symmetric(a in finite_vec(DIM), b in finite_vec(DIM)) {
        let va = DenseVector::new(a);
        let vb = DenseVector::new(b);
        let ab = va.dot(&vb).unwrap();
        let ba = vb.dot(&va).unwrap();
        prop_assert!((ab - ba).abs() <= 1e-9 * (1.0 + ab.abs()));
    }

    #[test]
    fn dot_is_linear_in_scaling(a in finite_vec(DIM), b in finite_vec(DIM), alpha in -100.0..100.0f64) {
        let va = DenseVector::new(a);
        let mut scaled = va.clone();
        scaled.scale(alpha);
        let vb = DenseVector::new(b);
        let lhs = scaled.dot(&vb).unwrap();
        let rhs = alpha * va.dot(&vb).unwrap();
        prop_assert!((lhs - rhs).abs() <= 1e-6 * (1.0 + rhs.abs()));
    }

    #[test]
    fn triangle_inequality_l2(a in finite_vec(DIM), b in finite_vec(DIM)) {
        let va = DenseVector::new(a);
        let vb = DenseVector::new(b);
        let mut sum = va.clone();
        sum.add_assign(&vb);
        prop_assert!(sum.l2_norm() <= va.l2_norm() + vb.l2_norm() + 1e-9);
    }

    #[test]
    fn l1_dominates_l2(a in finite_vec(DIM)) {
        let v = DenseVector::new(a);
        prop_assert!(v.l2_norm() <= v.l1_norm() + 1e-9);
    }

    #[test]
    fn sparse_dot_matches_dense(row in sparse_row(), w in finite_vec(DIM)) {
        let s = FeatureView::Sparse { dim: DIM, indices: &row.0, values: &row.1 };
        let dense = DenseVector::new(dense_of(&s));
        let dw = DenseVector::new(w.clone());
        let expect = dense.dot(&dw).unwrap();
        prop_assert!((s.dot(&w) - expect).abs() <= 1e-9 * (1.0 + expect.abs()));
    }

    #[test]
    fn sparse_axpy_matches_dense(row in sparse_row(), acc0 in finite_vec(DIM), alpha in -10.0..10.0f64) {
        let s = FeatureView::Sparse { dim: DIM, indices: &row.0, values: &row.1 };
        let mut sparse_acc = acc0.clone();
        s.axpy_into(&mut sparse_acc, alpha);

        let mut dense_acc = DenseVector::new(acc0);
        dense_acc.axpy(alpha, &DenseVector::new(dense_of(&s)));

        for (x, y) in sparse_acc.iter().zip(dense_acc.as_slice()) {
            prop_assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn featurevec_dot_agrees_between_layouts(row in sparse_row(), w in finite_vec(DIM)) {
        let fs = FeatureView::Sparse { dim: DIM, indices: &row.0, values: &row.1 };
        let dense = dense_of(&fs);
        let fd = FeatureView::Dense(&dense);
        let a = fs.dot(&w);
        let b = fd.dot(&w);
        prop_assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
    }

    #[test]
    fn axpy_then_negate_round_trips(y0 in finite_vec(DIM), x in finite_vec(DIM), alpha in -10.0..10.0f64) {
        let vx = DenseVector::new(x);
        let mut y = DenseVector::new(y0.clone());
        y.axpy(alpha, &vx);
        y.axpy(-alpha, &vx);
        for (a, b) in y.as_slice().iter().zip(&y0) {
            prop_assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn sub_is_inverse_of_add(a in finite_vec(DIM), b in finite_vec(DIM)) {
        let va = DenseVector::new(a.clone());
        let vb = DenseVector::new(b);
        let mut sum = va.clone();
        sum.add_assign(&vb);
        let back = sum.sub(&vb).unwrap();
        for (x, y) in back.as_slice().iter().zip(&a) {
            prop_assert!((x - y).abs() <= 1e-6 * (1.0 + y.abs()));
        }
    }

    // The support-ordered distances are the full distances, bit for bit,
    // whenever the vectors differ on the support only — empty (`mode` 0)
    // and full (`mode` 1) supports included.
    #[test]
    fn support_distances_equal_full_distances_bitwise(
        a in finite_vec(DIM),
        delta in finite_vec(DIM),
        picks in prop::collection::vec(0u32..2, DIM),
        mode in 0u32..4,
    ) {
        let support: Vec<u32> = (0..DIM as u32)
            .filter(|&i| mode == 1 || (mode > 1 && picks[i as usize] == 1))
            .collect();
        let mut b = a.clone();
        for &i in &support {
            b[i as usize] += delta[i as usize];
        }
        let (va, vb) = (DenseVector::new(a), DenseVector::new(b));
        prop_assert_eq!(
            va.l1_distance_at(&vb, &support).to_bits(),
            va.l1_distance(&vb).unwrap().to_bits()
        );
        prop_assert_eq!(
            va.l2_distance_at(&vb, &support).to_bits(),
            va.l2_distance(&vb).unwrap().to_bits()
        );
    }
}
