//! Logical dataset descriptors and the Table 1 derived quantities.
//!
//! The cost model never needs the rows themselves — only the shape of the
//! dataset: number of data units `n`, dimensionality `d`, total bytes
//! `|D|_b`, and density. From these and a [`ClusterSpec`] it derives the
//! partition/wave geometry of Table 1:
//!
//! - `p(D) = ceil(|D|_b / |P|_b)` — number of partitions,
//! - `w(D) = p(D) / cap` — number of waves,
//! - `k = ceil(n × |P|_b / |D|_b)` — data units per partition,
//! - `lwp(D)` — partitions in the last (partial) wave.

use serde::{Deserialize, Serialize};

use crate::cluster::ClusterSpec;

/// The logical view of a dataset: everything the cost model needs.
///
/// A descriptor may declare a larger scale than the physical rows held in
/// memory (see [`crate::dataset::PartitionedDataset`]); costs always follow
/// the *logical* numbers so that simulated times correspond to the paper's
/// dataset sizes (Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetDescriptor {
    /// Dataset name (e.g. `adult`, `svm1`).
    pub name: String,
    /// Number of data units (points) — `n`.
    pub n: u64,
    /// Number of features per unit — `d`.
    pub dims: usize,
    /// Total size in bytes — `|D|_b`.
    pub bytes: u64,
    /// Fraction of non-zero values (Table 2's density column).
    pub density: f64,
}

impl DatasetDescriptor {
    /// Construct a descriptor. `bytes` and `n` must be positive.
    pub fn new(name: impl Into<String>, n: u64, dims: usize, bytes: u64, density: f64) -> Self {
        let n = n.max(1);
        Self {
            name: name.into(),
            n,
            dims,
            bytes: bytes.max(1),
            density: density.clamp(0.0, 1.0),
        }
    }

    /// Derive a descriptor from physical rows (full scale): their count,
    /// width, approximate byte footprint and density.
    pub fn from_columns(name: impl Into<String>, rows: &crate::columns::ColumnStore) -> Self {
        // Labels cost 8 bytes each; dense entries 8, sparse entries 12.
        // Mixed-input rows upgraded to CSR are charged at their CSR
        // footprint (explicit zeros included): costs follow the layout the
        // rows are actually stored in.
        let bytes = rows.approx_bytes();
        let dims = rows.dims();
        let denom = (rows.len() as u64 * dims as u64).max(1);
        Self::new(
            name,
            rows.len() as u64,
            dims,
            bytes.max(1),
            rows.total_nnz() as f64 / denom as f64,
        )
    }

    /// Average bytes per data unit.
    pub fn unit_bytes(&self) -> f64 {
        self.bytes as f64 / self.n as f64
    }

    /// Average number of materialized features per unit (`d × density`,
    /// at least 1) — the `nnz` the CPU cost helpers expect.
    pub fn avg_nnz(&self) -> usize {
        ((self.dims as f64 * self.density).ceil() as usize).max(1)
    }

    /// `p(D)` — number of partitions.
    pub fn partitions(&self, spec: &ClusterSpec) -> u64 {
        self.bytes.div_ceil(spec.partition_bytes).max(1)
    }

    /// `w(D) = p(D) / cap` — number of waves (fractional).
    pub fn waves(&self, spec: &ClusterSpec) -> f64 {
        self.partitions(spec) as f64 / spec.cap() as f64
    }

    /// `k` — data units per (full) partition.
    pub fn units_per_partition(&self, spec: &ClusterSpec) -> u64 {
        let k = (self.n as f64 * spec.partition_bytes as f64 / self.bytes as f64).ceil() as u64;
        k.clamp(1, self.n)
    }

    /// `lwp(D)` — number of partitions processed in the last, partial wave
    /// (`0` when the partition count divides evenly into full waves).
    pub fn last_wave_partitions(&self, spec: &ClusterSpec) -> u64 {
        let p = self.partitions(spec);
        let full_waves = self.waves(spec).floor() as u64;
        p - full_waves * spec.cap() as u64
    }

    /// Bytes a single slot reads during the last, partial wave: a full
    /// partition if several remain, otherwise the actual tail bytes.
    pub fn last_wave_slot_bytes(&self, spec: &ClusterSpec) -> u64 {
        let lwp = self.last_wave_partitions(spec);
        if lwp == 0 {
            0
        } else if lwp >= 2 {
            spec.partition_bytes
        } else {
            // One partition left in the wave; it may be a partial tail.
            let p = self.partitions(spec);
            self.bytes
                .saturating_sub((p - 1) * spec.partition_bytes)
                .clamp(1, spec.partition_bytes)
        }
    }

    /// Data units a single slot processes during the last, partial wave
    /// (the `ceil(min(lwp(D), 1) × k)` term of Equation 4).
    pub fn last_wave_slot_units(&self, spec: &ClusterSpec) -> u64 {
        let lwp = self.last_wave_partitions(spec);
        let k = self.units_per_partition(spec);
        if lwp == 0 {
            0
        } else if lwp >= 2 {
            k
        } else {
            let p = self.partitions(spec);
            self.n.saturating_sub((p - 1) * k).clamp(1, k)
        }
    }

    /// `true` when the whole dataset fits inside a single partition — the
    /// condition under which ML4all maps operators to the local Java
    /// executor instead of Spark (Appendix D).
    pub fn fits_one_partition(&self, spec: &ClusterSpec) -> bool {
        self.partitions(spec) == 1
    }

    /// A scaled copy declaring `factor ×` the points and bytes (used by the
    /// scalability sweeps of Figure 10).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            name: self.name.clone(),
            n: ((self.n as f64 * factor).round() as u64).max(1),
            dims: self.dims,
            bytes: ((self.bytes as f64 * factor).round() as u64).max(1),
            density: self.density,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec::paper_testbed()
    }

    fn desc(n: u64, bytes: u64) -> DatasetDescriptor {
        DatasetDescriptor::new("t", n, 100, bytes, 1.0)
    }

    #[test]
    fn small_dataset_is_one_partition_one_wave() {
        let d = desc(1000, 7 * 1024 * 1024); // adult-sized: 7 MB
        assert_eq!(d.partitions(&spec()), 1);
        assert!(d.waves(&spec()) < 1.0);
        assert!(d.fits_one_partition(&spec()));
        assert_eq!(d.last_wave_partitions(&spec()), 1);
        assert_eq!(d.last_wave_slot_bytes(&spec()), d.bytes);
    }

    #[test]
    fn partition_count_matches_80gb_example() {
        // svm2: 80 GB / 128 MB = 640 partitions, 40 waves at cap 16.
        let d = desc(44_134_400, 80 * 1024 * 1024 * 1024);
        assert_eq!(d.partitions(&spec()), 640);
        assert!((d.waves(&spec()) - 40.0).abs() < 1e-12);
        assert_eq!(d.last_wave_partitions(&spec()), 0);
        assert_eq!(d.last_wave_slot_bytes(&spec()), 0);
    }

    #[test]
    fn partial_wave_is_detected() {
        // 85 partitions at cap 16 → 5 full waves + 5 leftover partitions
        // (the paper's own worked example uses 85 partitions / 20 slots).
        let d = desc(85_000, 85 * 128 * 1024 * 1024);
        assert_eq!(d.partitions(&spec()), 85);
        assert_eq!(d.waves(&spec()).floor() as u64, 5);
        assert_eq!(d.last_wave_partitions(&spec()), 5);
        assert_eq!(
            d.last_wave_slot_bytes(&spec()),
            spec().partition_bytes,
            "several partitions remain, each slot reads a full one"
        );
    }

    #[test]
    fn units_per_partition_is_n_for_single_partition() {
        let d = desc(12_345, 1024 * 1024);
        assert_eq!(d.units_per_partition(&spec()), 12_345);
    }

    #[test]
    fn units_per_partition_scales_with_bytes() {
        let d = desc(1_000_000, 10 * 128 * 1024 * 1024); // 10 partitions
        let k = d.units_per_partition(&spec());
        assert_eq!(k, 100_000);
    }

    #[test]
    fn scaled_multiplies_points_and_bytes() {
        let d = desc(100, 1000).scaled(2.5);
        assert_eq!(d.n, 250);
        assert_eq!(d.bytes, 2500);
    }

    #[test]
    fn from_points_sums_bytes() {
        let rows = [(1.0, [0.0; 4]), (-1.0, [0.0; 4])].into_iter().collect();
        let d = DatasetDescriptor::from_columns("p", &rows);
        assert_eq!(d.n, 2);
        assert_eq!(d.dims, 4);
        assert_eq!(d.bytes, 2 * (8 + 32));
        assert!((d.density - 1.0).abs() < 1e-12);
    }

    #[test]
    fn avg_nnz_reflects_density() {
        let d = DatasetDescriptor::new("s", 10, 1000, 1000, 0.0015);
        assert_eq!(d.avg_nnz(), 2);
        let dense = DatasetDescriptor::new("d", 10, 100, 1000, 1.0);
        assert_eq!(dense.avg_nnz(), 100);
    }
}
