//! The Table 2 dataset registry: every dataset of the paper's evaluation,
//! with its logical scale (n, d, bytes, density) and a builder producing a
//! physically capped [`PartitionedDataset`] analog.

use ml4all_dataflow::{
    ClusterSpec, ColumnStore, DatasetDescriptor, PartitionScheme, PartitionedDataset,
};
use serde::{Deserialize, Serialize};

use crate::synth::{
    dense_classification_columns, dense_regression_columns, sparse_classification_columns,
    DenseClassConfig, RegressionConfig, SparseClassConfig,
};
use crate::DatasetError;

const KB: u64 = 1024;
const MB: u64 = 1024 * KB;
const GB: u64 = 1024 * MB;

/// The ML task a dataset was used for in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Task {
    /// Support-vector machine (hinge loss).
    Svm,
    /// Logistic regression.
    LogisticRegression,
    /// Linear regression.
    LinearRegression,
}

impl Task {
    /// `true` for ±1-labelled tasks.
    pub fn is_classification(&self) -> bool {
        !matches!(self, Self::LinearRegression)
    }
}

/// One row of Table 2 (or one configuration of the SVM A / SVM B sweeps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: String,
    /// Task the paper ran on it.
    pub task: Task,
    /// Logical number of points.
    pub n: u64,
    /// Number of features.
    pub dims: usize,
    /// Logical on-disk size in bytes.
    pub bytes: u64,
    /// Fraction of non-zero values.
    pub density: f64,
    /// Label/ordering skew (the rcv1 analog sets this — Section 8.5's
    /// testing-error caveat depends on it).
    pub skewed: bool,
    /// Label noise of the synthetic analog, calibrated to the accuracy a
    /// linear model reaches on the real dataset (adult ≈ 85%, covtype
    /// binary ≈ 75%, higgs ≈ 70%, rcv1 ≈ 95%, synthetic svmN ≈ 98%). The
    /// noise level determines whether hinge-loss SGD can hit a zero
    /// gradient and stop early — the effect behind the paper's 4–8
    /// iteration SGD runs on svm1–svm3 (Table 4).
    pub noise: f64,
}

impl DatasetSpec {
    /// The logical descriptor used for all cost accounting.
    pub fn descriptor(&self) -> DatasetDescriptor {
        DatasetDescriptor::new(
            self.name.clone(),
            self.n,
            self.dims,
            self.bytes,
            self.density,
        )
    }

    /// Generate physical rows for this spec (at most `max_physical`) in
    /// contiguous columnar form — the layout the partitioner deals from.
    pub fn generate_columns(&self, max_physical: usize, seed: u64) -> ColumnStore {
        let n_phys = (self.n as usize).min(max_physical).max(2);
        match self.task {
            Task::Svm => dense_classification_columns(&DenseClassConfig {
                n: n_phys,
                dims: self.dims,
                noise: self.noise,
                seed,
            }),
            Task::LogisticRegression => {
                if self.density < 0.5 {
                    sparse_classification_columns(&SparseClassConfig {
                        n: n_phys,
                        dims: self.dims,
                        density: self.density,
                        noise: self.noise,
                        skewed: self.skewed,
                        seed,
                    })
                } else {
                    dense_classification_columns(&DenseClassConfig {
                        n: n_phys,
                        dims: self.dims,
                        noise: self.noise,
                        seed,
                    })
                }
            }
            Task::LinearRegression => dense_regression_columns(&RegressionConfig {
                n: n_phys,
                dims: self.dims,
                noise: self.noise,
                seed,
            }),
        }
    }

    /// Build the partitioned dataset: logical descriptor at Table 2 scale,
    /// physical rows capped at `max_physical`.
    pub fn build(
        &self,
        max_physical: usize,
        seed: u64,
        cluster: &ClusterSpec,
    ) -> Result<PartitionedDataset, DatasetError> {
        let rows = self.generate_columns(max_physical, seed);
        let scheme = if self.skewed {
            PartitionScheme::Contiguous
        } else {
            PartitionScheme::RoundRobin
        };
        Ok(PartitionedDataset::with_descriptor(
            self.descriptor(),
            &rows,
            scheme,
            cluster,
        )?)
    }
}

/// `adult` — LogR, 100 827 × 123, 7 MB, density 0.11.
pub fn adult() -> DatasetSpec {
    DatasetSpec {
        name: "adult".into(),
        task: Task::LogisticRegression,
        n: 100_827,
        dims: 123,
        bytes: 7 * MB,
        density: 0.11,
        skewed: false,
        noise: 0.15,
    }
}

/// `covtype` — LogR, 581 012 × 54, 68 MB, density 0.22.
pub fn covtype() -> DatasetSpec {
    DatasetSpec {
        name: "covtype".into(),
        task: Task::LogisticRegression,
        n: 581_012,
        dims: 54,
        bytes: 68 * MB,
        density: 0.22,
        skewed: false,
        noise: 0.25,
    }
}

/// `yearpred` — LinR, 463 715 × 90, 890 MB, dense.
pub fn yearpred() -> DatasetSpec {
    DatasetSpec {
        name: "yearpred".into(),
        task: Task::LinearRegression,
        n: 463_715,
        dims: 90,
        bytes: 890 * MB,
        density: 1.0,
        skewed: false,
        noise: 0.01,
    }
}

/// `rcv1` — LogR, 677 399 × 47 236, 1.2 GB, density 1.5e-3, skewed.
pub fn rcv1() -> DatasetSpec {
    DatasetSpec {
        name: "rcv1".into(),
        task: Task::LogisticRegression,
        n: 677_399,
        dims: 47_236,
        bytes: (1.2 * GB as f64) as u64,
        density: 1.5e-3,
        skewed: true,
        noise: 0.05,
    }
}

/// `higgs` — SVM, 11 M × 28, 7.4 GB, density 0.92.
pub fn higgs() -> DatasetSpec {
    DatasetSpec {
        name: "higgs".into(),
        task: Task::Svm,
        n: 11_000_000,
        dims: 28,
        bytes: (7.4 * GB as f64) as u64,
        density: 0.92,
        skewed: false,
        noise: 0.3,
    }
}

/// `svm1` — SVM, 5 516 800 × 100, 10 GB, dense.
pub fn svm1() -> DatasetSpec {
    DatasetSpec {
        name: "svm1".into(),
        task: Task::Svm,
        n: 5_516_800,
        dims: 100,
        bytes: 10 * GB,
        density: 1.0,
        skewed: false,
        noise: 0.02,
    }
}

/// `svm2` — SVM, 44 134 400 × 100, 80 GB, dense.
pub fn svm2() -> DatasetSpec {
    DatasetSpec {
        name: "svm2".into(),
        task: Task::Svm,
        n: 44_134_400,
        dims: 100,
        bytes: 80 * GB,
        density: 1.0,
        skewed: false,
        noise: 0.02,
    }
}

/// `svm3` — SVM, 88 268 800 × 100, 160 GB, dense. Does **not** fit the
/// paper cluster's 80 GB cache: every scan pays disk IO.
pub fn svm3() -> DatasetSpec {
    DatasetSpec {
        name: "svm3".into(),
        task: Task::Svm,
        n: 88_268_800,
        dims: 100,
        bytes: 160 * GB,
        density: 1.0,
        skewed: false,
        noise: 0.02,
    }
}

/// `SVM A` — the Figure 10(a) points sweep: dense 100-feature SVM data at
/// `points` rows, sized pro-rata to svm1 (10 GB / 5.5168 M points).
pub fn svm_a(points: u64) -> DatasetSpec {
    let bytes_per_point = 10.0 * GB as f64 / 5_516_800.0;
    DatasetSpec {
        name: format!("svmA-{points}"),
        task: Task::Svm,
        n: points,
        dims: 100,
        bytes: (points as f64 * bytes_per_point) as u64,
        density: 1.0,
        skewed: false,
        noise: 0.02,
    }
}

/// `SVM B` — the Figure 10(b) features sweep: 10 000 points at `dims`
/// features (180 MB at 1 000 features → 18 bytes/feature/point).
pub fn svm_b(dims: usize) -> DatasetSpec {
    DatasetSpec {
        name: format!("svmB-{dims}"),
        task: Task::Svm,
        n: 10_000,
        dims,
        bytes: 10_000 * dims as u64 * 18,
        density: 1.0,
        skewed: false,
        noise: 0.02,
    }
}

/// The eight named datasets of Table 2, in the paper's order.
pub fn table2() -> Vec<DatasetSpec> {
    vec![
        adult(),
        covtype(),
        yearpred(),
        rcv1(),
        higgs(),
        svm1(),
        svm2(),
        svm3(),
    ]
}

/// Look a named dataset up.
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    table2().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_eight_named_datasets() {
        let t = table2();
        assert_eq!(t.len(), 8);
        assert_eq!(t[0].name, "adult");
        assert_eq!(t[7].name, "svm3");
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("rcv1").is_some());
        assert!(by_name("mnist").is_none());
    }

    #[test]
    fn descriptors_match_table2_columns() {
        let a = adult().descriptor();
        assert_eq!(a.n, 100_827);
        assert_eq!(a.dims, 123);
        assert_eq!(a.bytes, 7 * MB);
        let r = rcv1();
        assert!(r.skewed);
        assert!((r.density - 1.5e-3).abs() < 1e-9);
    }

    #[test]
    fn svm3_exceeds_paper_cache() {
        let spec = ClusterSpec::paper_testbed();
        assert!(!spec.fits_in_cache(svm3().bytes));
        assert!(spec.fits_in_cache(svm2().bytes));
        assert!(spec.fits_in_cache(svm1().bytes));
    }

    #[test]
    fn build_caps_physical_points_but_keeps_logical_scale() {
        let cluster = ClusterSpec::paper_testbed();
        let ds = higgs().build(5_000, 1, &cluster).unwrap();
        assert_eq!(ds.physical_n(), 5_000);
        assert_eq!(ds.descriptor().n, 11_000_000);
        assert!(ds.num_partitions() > 1);
    }

    #[test]
    fn small_dataset_builds_at_full_scale_if_allowed() {
        let cluster = ClusterSpec::paper_testbed();
        let ds = adult().build(200_000, 1, &cluster).unwrap();
        assert_eq!(ds.physical_n(), 100_827);
        assert!((ds.physical_scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rcv1_analog_is_sparse_and_contiguous_skewed() {
        let cluster = ClusterSpec::paper_testbed();
        let ds = rcv1().build(1_000, 1, &cluster).unwrap();
        let avg_nnz: f64 = ds
            .iter_views()
            .map(|v| v.features.nnz() as f64)
            .sum::<f64>()
            / ds.physical_n() as f64;
        // density 1.5e-3 × 47 236 dims ≈ 71 nnz
        assert!((avg_nnz - 71.0).abs() < 5.0, "avg nnz {avg_nnz}");
        // Contiguous + label-sorted: the first partition must be
        // single-class.
        let first = ds.partition(0).unwrap();
        let first_labels: Vec<f64> = first.iter().map(|v| v.label).collect();
        assert!(first_labels.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn sweeps_scale_bytes_with_their_axis() {
        let a_small = svm_a(2_758_400);
        let a_big = svm_a(88_268_800);
        assert!((a_small.bytes as f64 - 5.0 * GB as f64).abs() / (GB as f64) < 0.1);
        assert!((a_big.bytes as f64 - 160.0 * GB as f64).abs() / (GB as f64) < 1.0);
        // svm_b sizes follow the paper's decimal figures: 180 MB at 1 000
        // features, 90 GB at 500 000.
        let b_small = svm_b(1_000);
        let b_big = svm_b(500_000);
        assert_eq!(b_small.bytes, 180_000_000);
        assert_eq!(b_big.bytes, 90_000_000_000);
        assert_eq!(b_big.bytes, 500 * b_small.bytes);
    }

    #[test]
    fn generated_task_shapes_match_spec() {
        let y = yearpred();
        let rows = y.generate_columns(100, 3);
        assert_eq!(rows.len(), 100);
        assert_eq!(rows.dims(), 90);
        // Regression labels are continuous, not ±1.
        assert!(rows.labels().iter().any(|l| l.abs() != 1.0));

        let h = higgs();
        let rows = h.generate_columns(100, 3);
        assert!(rows.labels().iter().all(|l| l.abs() == 1.0));
    }
}
