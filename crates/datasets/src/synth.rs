//! Synthetic workload generators.
//!
//! Each generator produces points whose learning behaviour mirrors the
//! corresponding Table 2 dataset class: dense separable SVM data (the
//! svm1–svm3 / SVM A / SVM B family), sparse logistic data with optional
//! label/ordering skew (the rcv1 analog — the skew is what makes the
//! shuffled-partition sampler's intra-partition bias visible, Section 8.5),
//! and dense linear-regression data (yearpred analog).

use ml4all_dataflow::{ColumnStore, ColumnarBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for dense classification data.
#[derive(Debug, Clone)]
pub struct DenseClassConfig {
    /// Number of points.
    pub n: usize,
    /// Features per point.
    pub dims: usize,
    /// Fraction of labels flipped after separation (0 = perfectly
    /// separable).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Dense, approximately linearly separable classification data: a hidden
/// unit separator `w*` labels uniform `[-1, 1]^d` points, then `noise`
/// fraction of labels are flipped. Rows are written straight into a
/// contiguous dense slab from a reusable row buffer.
pub fn dense_classification_columns(cfg: &DenseClassConfig) -> ColumnStore {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let w_star = random_unit_vector(cfg.dims, &mut rng);
    let mut b = ColumnarBuilder::with_dense_capacity(cfg.n, cfg.dims);
    let mut x = vec![0.0; cfg.dims];
    for _ in 0..cfg.n {
        for xi in &mut x {
            *xi = rng.gen_range(-1.0..1.0);
        }
        let score: f64 = x.iter().zip(&w_star).map(|(a, b)| a * b).sum();
        let mut label = if score >= 0.0 { 1.0 } else { -1.0 };
        if rng.gen::<f64>() < cfg.noise {
            label = -label;
        }
        b.push_dense(label, &x);
    }
    b.finish()
}

/// Parameters for sparse classification data.
#[derive(Debug, Clone)]
pub struct SparseClassConfig {
    /// Number of points.
    pub n: usize,
    /// Feature-space dimensionality.
    pub dims: usize,
    /// Expected fraction of non-zero features per point.
    pub density: f64,
    /// Label-flip noise fraction.
    pub noise: f64,
    /// When `true`, points are emitted sorted by label and the positive
    /// class uses a shifted feature distribution — the rcv1-style skew that
    /// biases single-partition samples under contiguous partitioning.
    pub skewed: bool,
    /// RNG seed.
    pub seed: u64,
}

/// Sparse classification data in the rcv1 mold, in CSR columnar form.
pub fn sparse_classification_columns(cfg: &SparseClassConfig) -> ColumnStore {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let nnz_per_point = ((cfg.dims as f64 * cfg.density).round() as usize).clamp(1, cfg.dims);
    // Hidden separator over a moderate subset of active dimensions.
    let active_dims = (nnz_per_point * 8).min(cfg.dims);
    let w_star = random_unit_vector(active_dims, &mut rng);

    // Rows stay as (label, indices, values) tuples until after the
    // optional label sort, then stream into the CSR slabs.
    let mut rows: Vec<(f64, Vec<u32>, Vec<f64>)> = (0..cfg.n)
        .map(|_| {
            let mut idx: Vec<u32> = Vec::with_capacity(nnz_per_point);
            // Sample distinct sorted indices, biased toward the active head
            // so the separator sees signal.
            while idx.len() < nnz_per_point {
                let i = if rng.gen::<f64>() < 0.7 {
                    rng.gen_range(0..active_dims as u32)
                } else {
                    rng.gen_range(0..cfg.dims as u32)
                };
                if !idx.contains(&i) {
                    idx.push(i);
                }
            }
            idx.sort_unstable();
            let vals: Vec<f64> = (0..idx.len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let score: f64 = idx
                .iter()
                .zip(&vals)
                .filter(|(i, _)| (**i as usize) < active_dims)
                .map(|(i, v)| v * w_star[*i as usize])
                .sum();
            let mut label = if score >= 0.0 { 1.0 } else { -1.0 };
            if rng.gen::<f64>() < cfg.noise {
                label = -label;
            }
            let mut vals = vals;
            if cfg.skewed && label > 0.0 {
                // Positive class gets a shifted value distribution (not
                // just a rescaled one — zero-mean features would leave
                // single-class gradients directionless): partition-local
                // samples then misrepresent the global distribution.
                for v in &mut vals {
                    *v = 0.5 * *v + 1.0;
                }
            }
            (label, idx, vals)
        })
        .collect();

    if cfg.skewed {
        // Label-sorted emission: with contiguous partitioning, whole
        // partitions end up single-class.
        rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("labels are finite"));
    }
    let mut b = ColumnarBuilder::new();
    for (label, idx, vals) in &rows {
        b.push_sparse(*label, idx, vals)
            .expect("generated indices are sorted and in range");
    }
    b.finish_with_dims(cfg.dims)
}

/// Parameters for dense regression data.
#[derive(Debug, Clone)]
pub struct RegressionConfig {
    /// Number of points.
    pub n: usize,
    /// Features per point.
    pub dims: usize,
    /// Additive Gaussian-ish noise amplitude on the target.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Dense linear-regression data: `y = w*·x + ν`, with features scaled by
/// `1/√d` so `‖x‖² ≈ O(1)`. Without the scaling, squared-loss SGD with the
/// paper's `β/√i` step (β = 1) is unstable in its early iterations for
/// wide feature spaces — the real LIBSVM regression datasets (yearpred)
/// ship feature-normalized for the same reason.
pub fn dense_regression_columns(cfg: &RegressionConfig) -> ColumnStore {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let w_star = random_unit_vector(cfg.dims, &mut rng);
    let scale = 1.0 / (cfg.dims.max(1) as f64).sqrt();
    let mut b = ColumnarBuilder::with_dense_capacity(cfg.n, cfg.dims);
    let mut x = vec![0.0; cfg.dims];
    for _ in 0..cfg.n {
        for xi in &mut x {
            *xi = rng.gen_range(-1.0..1.0) * scale;
        }
        let y: f64 = x.iter().zip(&w_star).map(|(a, b)| a * b).sum::<f64>()
            + rng.gen_range(-cfg.noise..cfg.noise.max(f64::MIN_POSITIVE));
        b.push_dense(y, &x);
    }
    b.finish()
}

fn random_unit_vector(dims: usize, rng: &mut StdRng) -> Vec<f64> {
    let mut v: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    } else if dims > 0 {
        v[0] = 1.0;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_classification_is_deterministic_and_balancedish() {
        let cfg = DenseClassConfig {
            n: 2000,
            dims: 10,
            noise: 0.0,
            seed: 42,
        };
        let a = dense_classification_columns(&cfg);
        let b = dense_classification_columns(&cfg);
        assert_eq!(a, b);
        let pos = a.labels().iter().filter(|&&l| l > 0.0).count();
        assert!(pos > 700 && pos < 1300, "positives {pos}");
    }

    #[test]
    fn noise_flips_labels() {
        let clean = dense_classification_columns(&DenseClassConfig {
            n: 1000,
            dims: 5,
            noise: 0.0,
            seed: 1,
        });
        let noisy = dense_classification_columns(&DenseClassConfig {
            n: 1000,
            dims: 5,
            noise: 0.3,
            seed: 1,
        });
        let flipped = (clean.labels().iter())
            .zip(noisy.labels())
            .filter(|(a, b)| a != b)
            .count();
        assert!(flipped > 200 && flipped < 400, "flipped {flipped}");
    }

    #[test]
    fn sparse_classification_has_requested_density() {
        let cfg = SparseClassConfig {
            n: 200,
            dims: 10_000,
            density: 0.0015,
            noise: 0.0,
            skewed: false,
            seed: 3,
        };
        let rows = sparse_classification_columns(&cfg);
        let avg_nnz = rows.total_nnz() as f64 / rows.len() as f64;
        assert!((avg_nnz - 15.0).abs() < 1.0, "avg nnz {avg_nnz}");
        assert!(rows.iter().all(|p| p.dim() == 10_000));
    }

    #[test]
    fn skewed_output_is_label_sorted() {
        let cfg = SparseClassConfig {
            n: 500,
            dims: 1000,
            density: 0.01,
            noise: 0.0,
            skewed: true,
            seed: 7,
        };
        let rows = sparse_classification_columns(&cfg);
        let labels = rows.labels();
        let first_pos = labels.iter().position(|&l| l > 0.0).unwrap();
        assert!(
            labels[first_pos..].iter().all(|&l| l > 0.0),
            "labels must be sorted"
        );
        assert!(labels[..first_pos].iter().all(|&l| l < 0.0));
    }

    #[test]
    fn regression_targets_track_linear_model() {
        let cfg = RegressionConfig {
            n: 500,
            dims: 4,
            noise: 1e-9,
            seed: 5,
        };
        let rows = dense_regression_columns(&cfg);
        // Noise-free targets must be bounded by ‖x‖·‖w*‖ ≤ √d.
        for label in rows.labels() {
            assert!(label.abs() <= (cfg.dims as f64).sqrt() + 1e-6);
        }
    }

    #[test]
    fn generators_differ_across_seeds() {
        let a = dense_classification_columns(&DenseClassConfig {
            n: 10,
            dims: 3,
            noise: 0.0,
            seed: 1,
        });
        let b = dense_classification_columns(&DenseClassConfig {
            n: 10,
            dims: 3,
            noise: 0.0,
            seed: 2,
        });
        assert_ne!(a, b);
    }
}
