//! Physical partitioned datasets.
//!
//! A [`PartitionedDataset`] pairs a logical [`DatasetDescriptor`] (the
//! scale the cost model charges for) with physical partitions stored in
//! contiguous columnar form ([`ColumnStore`]): a labels column plus either
//! a row-major dense slab or CSR, which is what the gradient hot loop
//! iterates with zero per-point allocation. For laptop-scale reproduction
//! of the paper's multi-gigabyte datasets, the physical rows may be a
//! deterministic down-sample of the declared logical scale — the paper's
//! own Section 5 argument (error-sequence shape is preserved under
//! sampling) is what licenses this.

use std::sync::{Arc, OnceLock};

use ml4all_linalg::PointView;
use rand::{Rng, SeedableRng};

use crate::cluster::ClusterSpec;
use crate::columns::{ColumnStore, ColumnarBuilder};
use crate::descriptor::DatasetDescriptor;
use crate::hash::WordHasher;
use crate::DataflowError;

/// How points are laid out across partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Deal points round-robin: partitions are statistically interchangeable.
    RoundRobin,
    /// Chunk points in their given order: preserves any ordering skew in the
    /// source (e.g. label-sorted dumps), which is what makes the
    /// shuffled-partition sampler's single-partition bias observable —
    /// the paper's rcv1 testing-error caveat (Section 8.5).
    Contiguous,
}

/// A dataset partitioned across the simulated cluster.
///
/// Partitions are immutable after construction and shared behind an
/// [`Arc`], so cloning a dataset (the source resolver hands out owned
/// values; the chooser clones for speculation) is O(1) rather than a deep
/// copy of every row.
#[derive(Debug, Clone)]
pub struct PartitionedDataset {
    desc: DatasetDescriptor,
    partitions: Arc<[ColumnStore]>,
    /// How the input rows were dealt into partitions — recorded so
    /// [`PartitionedDataset::iter_views_input_order`] can walk them back
    /// in their original order.
    scheme: PartitionScheme,
    /// Lazily computed content fingerprint, shared by every clone (the
    /// plan cache keys on it; computing it once per storage is enough).
    fingerprint: Arc<OnceLock<u64>>,
}

impl PartitionedDataset {
    /// Cap on physical partitions: keeps memory bounded while the logical
    /// descriptor may declare thousands of partitions.
    pub const MAX_PHYSICAL_PARTITIONS: usize = 64;

    /// Build from columnar rows, deriving the logical descriptor from the
    /// physical rows (full-scale dataset).
    pub fn from_columns(
        name: impl Into<String>,
        rows: &ColumnStore,
        scheme: PartitionScheme,
        spec: &ClusterSpec,
    ) -> Result<Self, DataflowError> {
        let desc = DatasetDescriptor::from_columns(name, rows);
        Self::with_descriptor(desc, rows, scheme, spec)
    }

    /// One physical partition per logical partition, capped; never more
    /// partitions than rows.
    fn physical_partitions(desc: &DatasetDescriptor, rows: usize, spec: &ClusterSpec) -> usize {
        (desc.partitions(spec) as usize)
            .clamp(1, Self::MAX_PHYSICAL_PARTITIONS)
            .min(rows)
    }

    /// Build from columnar rows with an explicit (possibly
    /// larger-than-physical) logical descriptor.
    ///
    /// [`PartitionScheme::Contiguous`] partitions are row windows of
    /// `rows`, sharing its storage whether it lives on the heap or in a
    /// memory-mapped slab file (see [`crate::slab`]), so an out-of-core
    /// dataset is never copied. [`PartitionScheme::RoundRobin`] deals the
    /// rows into per-partition copies; a single partition is `rows` itself
    /// either way.
    pub fn with_descriptor(
        desc: DatasetDescriptor,
        rows: &ColumnStore,
        scheme: PartitionScheme,
        spec: &ClusterSpec,
    ) -> Result<Self, DataflowError> {
        if rows.is_empty() {
            return Err(DataflowError::EmptyDataset);
        }
        let n = rows.len();
        let p = Self::physical_partitions(&desc, n, spec);
        let partitions: Vec<ColumnStore> = match scheme {
            PartitionScheme::RoundRobin if p > 1 => {
                // Pre-size a dense slab only when the source rows are
                // dense: a dense pre-allocation for CSR rows would survive
                // the builder's layout upgrade and pin dense-equivalent
                // memory for sparse data.
                let mut builders: Vec<ColumnarBuilder> = (0..p)
                    .map(|i| match rows.as_dense() {
                        Some(_) => ColumnarBuilder::with_dense_capacity(
                            n / p + usize::from(i < n % p),
                            rows.dims(),
                        ),
                        None => ColumnarBuilder::new(),
                    })
                    .collect();
                for (i, v) in rows.iter().enumerate() {
                    builders[i % p].push_view(v);
                }
                builders
                    .into_iter()
                    .map(|b| b.finish_with_dims(rows.dims()))
                    .collect()
            }
            // Contiguous windows; a single partition is the whole store.
            _ => {
                let chunk = contiguous_chunk(n, p);
                (0..p)
                    .map(|i| rows.window((i * chunk).min(n), ((i + 1) * chunk).min(n)))
                    .collect()
            }
        };
        Ok(Self {
            desc,
            partitions: partitions.into(),
            scheme,
            fingerprint: Arc::new(OnceLock::new()),
        })
    }

    /// The logical descriptor used for all cost accounting.
    pub fn descriptor(&self) -> &DatasetDescriptor {
        &self.desc
    }

    /// Physical partitions.
    pub fn partitions(&self) -> &[ColumnStore] {
        &self.partitions
    }

    /// Number of physical partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// A specific partition.
    pub fn partition(&self, index: usize) -> Result<&ColumnStore, DataflowError> {
        self.partitions
            .get(index)
            .ok_or(DataflowError::PartitionOutOfBounds {
                index,
                partitions: self.partitions.len(),
            })
    }

    /// Total physical rows in memory.
    pub fn physical_n(&self) -> usize {
        self.partitions.iter().map(ColumnStore::len).sum()
    }

    /// `physical rows / logical n` — 1.0 for full-scale datasets.
    pub fn physical_scale(&self) -> f64 {
        self.physical_n() as f64 / self.desc.n as f64
    }

    /// Iterate over every physical row as a zero-copy view
    /// (partition-major order).
    pub fn iter_views(&self) -> impl Iterator<Item = PointView<'_>> {
        self.partitions.iter().flat_map(|p| p.iter())
    }

    /// The scheme the input rows were dealt with.
    pub fn scheme(&self) -> PartitionScheme {
        self.scheme
    }

    /// Iterate over every physical row in the **original input order**
    /// (the order the rows were dealt from): round-robin dealing is
    /// walked back interleaved, contiguous dealing is partition-major
    /// already. The scoring path uses this so `predictions[i]` always
    /// corresponds to input row `i`, whatever the partitioning.
    pub fn iter_views_input_order(&self) -> impl Iterator<Item = PointView<'_>> {
        let p = self.partitions.len();
        let n = self.physical_n();
        // Mirrors the layout rules of `with_descriptor`: row `g` went to
        // (g % p, g / p) under round-robin, and to (g / chunk, g % chunk)
        // under contiguous windowing (one partition is the same under both).
        let chunk = contiguous_chunk(n, p);
        let scheme = self.scheme;
        (0..n).map(move |g| {
            let (pi, oi) = match scheme {
                PartitionScheme::RoundRobin => (g % p, g / p),
                PartitionScheme::Contiguous => (g / chunk, g % chunk),
            };
            self.view(pi, oi).expect("row in range")
        })
    }

    /// Every physical row's label in the **original input order**, as
    /// [`Self::iter_views_input_order`] visits the rows, streamed straight
    /// off the partitions' label columns (no row view, no copy). Consume
    /// it with `fold`/`for_each`: those run as plain loops over the
    /// columns.
    pub fn input_order_labels(&self) -> impl Iterator<Item = f64> + '_ {
        let parts = &self.partitions[..];
        match parts.first() {
            // Row `g` went to `(g % p, g / p)`: offset `o` of every
            // partition, in partition order, is the input run `o·p ..`;
            // only the front partitions reach the last offset.
            Some(first) if self.scheme == PartitionScheme::RoundRobin && parts.len() > 1 => {
                InputOrderLabels::Interleaved((0..first.len()).flat_map(move |offset| {
                    parts
                        .iter()
                        .filter_map(move |part| part.labels().get(offset).copied())
                }))
            }
            // Contiguous windows (one partition under either scheme) are
            // partition-major already.
            _ => InputOrderLabels::Partitioned(
                parts.iter().flat_map(|part| part.labels().iter().copied()),
            ),
        }
    }

    /// Borrow a row by `(partition, offset)` coordinates.
    #[inline]
    pub fn view(&self, partition: usize, offset: usize) -> Option<PointView<'_>> {
        self.partitions.get(partition)?.view(offset)
    }

    /// A deterministic content fingerprint of this dataset: the logical
    /// descriptor plus every physical row (labels and feature bits, in
    /// partition order). Two datasets with identical logical scale and
    /// identical physical rows fingerprint identically, even when built
    /// independently; any differing row changes the value with
    /// overwhelming probability. Computed once per underlying storage and
    /// cached (clones share the cache), so repeated callers — the plan
    /// cache keys on this — pay the O(rows × features) pass only once.
    ///
    /// The words go through a four-lane hasher on xxHash64's
    /// multiply-rotate round with its final avalanche, one 64-bit word
    /// per step. Builds before it hashed the same words byte by byte with
    /// FNV-1a, so plan-cache entries persisted by those builds carry
    /// other fingerprints and miss.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = WordHasher::new();
            // Length-prefixed, so the name cannot alias the fields after it.
            h.write_u64(self.desc.name.len() as u64);
            h.write_bytes(self.desc.name.as_bytes());
            h.write_u64(self.desc.n);
            h.write_u64(self.desc.dims as u64);
            h.write_u64(self.desc.bytes);
            h.write_u64(self.desc.density.to_bits());
            h.write_u64(self.partitions.len() as u64);
            for part in self.partitions.iter() {
                h.write_u64(part.len() as u64);
                for v in part.iter() {
                    h.write_u64(v.label.to_bits());
                    match v.features {
                        ml4all_linalg::FeatureView::Dense(values) => h.write_f64s(values),
                        ml4all_linalg::FeatureView::Sparse {
                            dim,
                            indices,
                            values,
                        } => {
                            h.write_u64(dim as u64);
                            for (&i, &x) in indices.iter().zip(values) {
                                h.write_u64(u64::from(i));
                                h.write_u64(x.to_bits());
                            }
                        }
                    }
                }
            }
            h.finish()
        })
    }

    /// An opaque identity of the shared partition storage: equal for
    /// clones of the same dataset (which share their `Arc`ed partitions),
    /// different for independently built datasets even when their rows are
    /// equal. Lets tests assert that concurrent jobs read the *same*
    /// resolved storage instead of cloning it.
    pub fn storage_id(&self) -> usize {
        Arc::as_ptr(&self.partitions) as *const ColumnStore as usize
    }

    /// A deterministic uniform sub-sample of `m` physical rows (used by the
    /// speculation-based iterations estimator, Algorithm 1 line 1), in
    /// partition-major order and pushed as views into one pre-sized
    /// builder. Returns all rows if `m >= physical_n`. A partial
    /// Fisher–Yates stops after the `m` draws instead of shuffling the
    /// full index vector.
    pub fn sample_rows(&self, m: usize, seed: u64) -> ColumnStore {
        let n = self.physical_n();
        let first = &self.partitions[0];
        let mut out = if first.as_dense().is_some() {
            ColumnarBuilder::with_dense_capacity(m.min(n), first.dims())
        } else {
            ColumnarBuilder::new()
        };
        if m >= n {
            for v in self.iter_views() {
                out.push_view(v);
            }
            return out.finish();
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut idx: Vec<u32> = (0..n as u32).collect();
        for i in 0..m {
            let j = rng.gen_range(i..n);
            idx.swap(i, j);
        }
        idx.truncate(m);
        idx.sort_unstable();

        // Walk the sorted global indices against the partition offsets.
        let mut pi = 0usize;
        let mut start = 0usize;
        for gi in idx {
            let gi = gi as usize;
            while gi >= start + self.partitions[pi].len() {
                start += self.partitions[pi].len();
                pi += 1;
            }
            out.push_view(
                self.partitions[pi]
                    .view(gi - start)
                    .expect("global index within partition"),
            );
        }
        out.finish()
    }
}

/// Rows per contiguous partition of `n` rows over `p`: `ceil(n/p)`-sized
/// chunks, front-filled, so trailing partitions may be short or empty.
fn contiguous_chunk(n: usize, p: usize) -> usize {
    n.div_ceil(p)
}

/// The two shapes of [`PartitionedDataset::input_order_labels`]: one
/// iterator type, each shape folding as its own loop nest.
enum InputOrderLabels<I, P> {
    Interleaved(I),
    Partitioned(P),
}

impl<I: Iterator<Item = f64>, P: Iterator<Item = f64>> Iterator for InputOrderLabels<I, P> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        match self {
            Self::Interleaved(labels) => labels.next(),
            Self::Partitioned(labels) => labels.next(),
        }
    }

    fn fold<B, F: FnMut(B, f64) -> B>(self, init: B, f: F) -> B {
        match self {
            Self::Interleaved(labels) => labels.fold(init, f),
            Self::Partitioned(labels) => labels.fold(init, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(n: usize) -> ColumnStore {
        (0..n)
            .map(|i| (if i % 2 == 0 { 1.0 } else { -1.0 }, [i as f64, 1.0]))
            .collect()
    }

    /// Ragged sparse rows; row `g` carries `g` at index 0, as in `points`.
    fn sparse_points(n: usize) -> ColumnStore {
        let mut b = ColumnarBuilder::new();
        for g in 0..n {
            let (indices, values): (&[u32], &[f64]) = if g % 2 == 0 {
                (&[0, 1], &[g as f64, 1.0])
            } else {
                (&[0], &[g as f64])
            };
            b.push_sparse(if g % 2 == 0 { 1.0 } else { -1.0 }, indices, values)
                .unwrap();
        }
        b.finish_with_dims(2)
    }

    type Rows = fn(usize) -> ColumnStore;

    /// Both row layouts, each carrying row `g`'s index in its first feature.
    const LAYOUTS: [(&str, Rows); 2] = [("dense", points), ("csr", sparse_points)];

    /// A 4-partition logical descriptor over `n` physical rows.
    fn four_partitions(n: usize) -> DatasetDescriptor {
        DatasetDescriptor::new("four", n as u64, 2, 4 * 128 * 1024 * 1024, 1.0)
    }

    fn views(ds: &PartitionedDataset) -> Vec<PointView<'_>> {
        ds.iter_views().collect()
    }

    fn spec() -> ClusterSpec {
        ClusterSpec::paper_testbed()
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let err = PartitionedDataset::from_columns(
            "e",
            &ColumnStore::empty(),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap_err();
        assert_eq!(err, DataflowError::EmptyDataset);
    }

    #[test]
    fn small_dataset_lands_in_one_partition() {
        let ds = PartitionedDataset::from_columns(
            "s",
            &points(100),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        assert_eq!(ds.num_partitions(), 1);
        assert_eq!(ds.physical_n(), 100);
        assert!((ds.physical_scale() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn logical_descriptor_controls_partition_count() {
        // Declare a 2 GB logical dataset backed by 1 000 physical rows:
        // 2 GB / 128 MB = 16 logical partitions → 16 physical partitions.
        let desc = DatasetDescriptor::new("big", 1_000_000, 2, 2 * 1024 * 1024 * 1024, 1.0);
        let ds = PartitionedDataset::with_descriptor(
            desc,
            &points(1000),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        assert_eq!(ds.num_partitions(), 16);
        assert_eq!(ds.physical_n(), 1000);
        assert!((ds.physical_scale() - 0.001).abs() < 1e-9);
    }

    #[test]
    fn physical_partitions_are_capped() {
        // 160 GB → 1280 logical partitions, capped at 64 physical.
        let desc = DatasetDescriptor::new("huge", 88_268_800, 100, 160 * 1024 * 1024 * 1024, 1.0);
        let ds = PartitionedDataset::with_descriptor(
            desc,
            &points(10_000),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        assert_eq!(
            ds.num_partitions(),
            PartitionedDataset::MAX_PHYSICAL_PARTITIONS
        );
    }

    #[test]
    fn contiguous_scheme_preserves_order_chunks() {
        let desc = DatasetDescriptor::new("c", 100, 2, 4 * 128 * 1024 * 1024, 1.0);
        let ds = PartitionedDataset::with_descriptor(
            desc,
            &points(100),
            PartitionScheme::Contiguous,
            &spec(),
        )
        .unwrap();
        assert_eq!(ds.num_partitions(), 4);
        // First partition holds the first chunk in order.
        let first = ds.partition(0).unwrap();
        assert_eq!(first.view(0).unwrap().features.dot(&[1.0, 0.0]), 0.0);
        assert_eq!(first.view(1).unwrap().features.dot(&[1.0, 0.0]), 1.0);
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let desc = DatasetDescriptor::new("r", 100, 2, 4 * 128 * 1024 * 1024, 1.0);
        let ds = PartitionedDataset::with_descriptor(
            desc,
            &points(100),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        for p in ds.partitions() {
            assert_eq!(p.len(), 25);
        }
    }

    #[test]
    fn contiguous_chunking_fills_front_partitions() {
        // n = 10, p = 4 → chunks of 3,3,3,1 (not the round-robin 3,3,2,2):
        // the pre-sizing must match the dealing so slabs never regrow.
        let desc = DatasetDescriptor::new("c", 10, 2, 4 * 128 * 1024 * 1024, 1.0);
        let ds = PartitionedDataset::with_descriptor(
            desc,
            &points(10),
            PartitionScheme::Contiguous,
            &spec(),
        )
        .unwrap();
        let lens: Vec<usize> = ds.partitions().iter().map(ColumnStore::len).collect();
        assert_eq!(lens, vec![3, 3, 3, 1]);
    }

    #[test]
    fn dense_points_build_contiguous_slabs() {
        let ds = PartitionedDataset::from_columns(
            "d",
            &points(10),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        let (labels, values, dims) = ds.partition(0).unwrap().as_dense().unwrap();
        assert_eq!(labels.len(), 10);
        assert_eq!(dims, 2);
        assert_eq!(values.len(), 20);
    }

    #[test]
    fn sample_points_is_deterministic_and_sized() {
        let ds = PartitionedDataset::from_columns(
            "s",
            &points(500),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        let a = ds.sample_rows(50, 42);
        let b = ds.sample_rows(50, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert_eq!(ds.sample_rows(10_000, 1).len(), 500);
    }

    #[test]
    fn sample_points_draws_distinct_rows() {
        let ds = PartitionedDataset::from_columns(
            "u",
            &points(200),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        let sample = ds.sample_rows(80, 7);
        let mut xs: Vec<f64> = sample.iter().map(|p| p.features.dot(&[1.0, 0.0])).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup();
        assert_eq!(xs.len(), 80, "a uniform sample never repeats a row");
    }

    #[test]
    fn fingerprint_is_content_based_and_shared_by_clones() {
        let a = PartitionedDataset::from_columns(
            "f",
            &points(200),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        // An independently built, identical dataset fingerprints equal...
        let b = PartitionedDataset::from_columns(
            "f",
            &points(200),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.storage_id(), b.storage_id());
        // ...a clone shares both the storage and the cached fingerprint...
        let c = a.clone();
        assert_eq!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.storage_id(), c.storage_id());
        // ...and any content difference (rows or name) changes the value.
        let fewer = PartitionedDataset::from_columns(
            "f",
            &points(199),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        assert_ne!(a.fingerprint(), fewer.fingerprint());
        let renamed = PartitionedDataset::from_columns(
            "g",
            &points(200),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        assert_ne!(a.fingerprint(), renamed.fingerprint());
    }

    /// A dataset of exactly these partitions, dense or CSR.
    fn of_partitions(parts: &[Vec<(f64, [f64; 3])>], sparse: bool) -> PartitionedDataset {
        let partitions: Vec<ColumnStore> = parts
            .iter()
            .map(|rows| {
                let mut b = ColumnarBuilder::new();
                for (label, features) in rows {
                    if sparse {
                        b.push_sparse(*label, &[0, 1, 2], features).unwrap();
                    } else {
                        b.push_dense(*label, features);
                    }
                }
                b.finish_with_dims(3)
            })
            .collect();
        PartitionedDataset {
            desc: DatasetDescriptor::new("s", 8, 3, 1024, 1.0),
            partitions: partitions.into(),
            scheme: PartitionScheme::Contiguous,
            fingerprint: Arc::new(OnceLock::new()),
        }
    }

    #[test]
    fn fingerprint_sees_every_bit_every_order_and_every_partition_edge() {
        let row = |r: usize| -> (f64, [f64; 3]) {
            let x = |j: usize| (r * 3 + j) as f64 * 0.37 - 1.5;
            (
                if r.is_multiple_of(2) { 1.0 } else { -1.0 },
                [x(0), x(1), x(2)],
            )
        };
        let base: Vec<Vec<(f64, [f64; 3])>> =
            vec![(0..4).map(row).collect(), (4..8).map(row).collect()];
        for sparse in [false, true] {
            let print = |parts: &[Vec<(f64, [f64; 3])>]| of_partitions(parts, sparse).fingerprint();
            let want = print(&base);
            assert_eq!(want, print(&base.clone()), "sparse {sparse}");
            for bit in 0..64 {
                let mut feature = base.clone();
                let x = &mut feature[1][2].1[1];
                *x = f64::from_bits(x.to_bits() ^ (1 << bit));
                assert_ne!(print(&feature), want, "sparse {sparse}: feature bit {bit}");
                let mut label = base.clone();
                let y = &mut label[0][3].0;
                *y = f64::from_bits(y.to_bits() ^ (1 << bit));
                assert_ne!(print(&label), want, "sparse {sparse}: label bit {bit}");
            }
            // Top-bit flips in two words, which cancel under word-wise
            // FNV-1a.
            let mut two = base.clone();
            for (r, j) in [(0, 0), (2, 1)] {
                let x = &mut two[1][r].1[j];
                *x = -*x;
            }
            assert_ne!(print(&two), want, "sparse {sparse}: two sign flips");
            let mut swapped = base.clone();
            swapped[0].swap(1, 2);
            assert_ne!(print(&swapped), want, "sparse {sparse}: rows swapped");
            let mut across = base.clone();
            let (first, second) = across.split_at_mut(1);
            std::mem::swap(&mut first[0][3], &mut second[0][0]);
            assert_ne!(print(&across), want, "sparse {sparse}: rows swapped across");
            let mut moved = base.clone();
            let last = moved[0].pop().unwrap();
            moved[1].insert(0, last);
            assert_ne!(print(&moved), want, "sparse {sparse}: row moved");
        }
    }

    #[test]
    fn contiguous_partitions_share_the_source_buffers() {
        let dense = points(10);
        let (_, values, dims) = dense.as_dense().unwrap();
        let ds = PartitionedDataset::with_descriptor(
            four_partitions(10),
            &dense,
            PartitionScheme::Contiguous,
            &spec(),
        )
        .unwrap();
        let mut row = 0;
        for part in ds.partitions() {
            let part_values = part.as_dense().unwrap().1;
            assert_eq!(part_values.as_ptr(), values[row * dims..].as_ptr());
            row += part.len();
        }

        let sparse = sparse_points(10);
        let (_, indptr, indices, values, _) = sparse.as_csr().unwrap();
        let ds = PartitionedDataset::with_descriptor(
            four_partitions(10),
            &sparse,
            PartitionScheme::Contiguous,
            &spec(),
        )
        .unwrap();
        let mut row = 0;
        for part in ds.partitions() {
            let (_, part_indptr, part_indices, part_values, _) = part.as_csr().unwrap();
            assert_eq!(part_indptr.as_ptr(), indptr[row..].as_ptr());
            assert_eq!(part_indices.as_ptr(), indices.as_ptr());
            assert_eq!(part_values.as_ptr(), values.as_ptr());
            row += part.len();
        }

        // A single round-robin partition is the source itself.
        for rows in [&dense, &sparse] {
            let one =
                PartitionedDataset::from_columns("one", rows, PartitionScheme::RoundRobin, &spec())
                    .unwrap();
            assert_eq!(one.num_partitions(), 1);
            let part = one.partition(0).unwrap();
            match (part.as_dense(), rows.as_dense()) {
                (Some(a), Some(b)) => assert_eq!(a.1.as_ptr(), b.1.as_ptr()),
                _ => {
                    let (a, b) = (part.as_csr().unwrap(), rows.as_csr().unwrap());
                    assert_eq!(a.1.as_ptr(), b.1.as_ptr());
                    assert_eq!(a.2.as_ptr(), b.2.as_ptr());
                    assert_eq!(a.3.as_ptr(), b.3.as_ptr());
                }
            }
        }
    }

    #[test]
    fn input_order_iteration_undoes_both_dealing_schemes() {
        for scheme in [PartitionScheme::RoundRobin, PartitionScheme::Contiguous] {
            for (layout, rows) in LAYOUTS {
                for n in [9usize, 10, 100] {
                    let ds = PartitionedDataset::with_descriptor(
                        four_partitions(n),
                        &rows(n),
                        scheme,
                        &spec(),
                    )
                    .unwrap();
                    assert_eq!(ds.num_partitions(), 4);
                    assert_eq!(ds.scheme(), scheme);
                    let order: Vec<f64> = ds
                        .iter_views_input_order()
                        .map(|v| v.features.dot(&[1.0, 0.0]))
                        .collect();
                    let expect: Vec<f64> = (0..n).map(|g| g as f64).collect();
                    assert_eq!(order, expect, "{scheme:?} {layout} n={n}");
                }
            }
        }
        // n = 9 over 4 contiguous partitions: chunks of 3 and an empty tail.
        let ds = PartitionedDataset::with_descriptor(
            four_partitions(9),
            &sparse_points(9),
            PartitionScheme::Contiguous,
            &spec(),
        )
        .unwrap();
        let lens: Vec<usize> = ds.partitions().iter().map(ColumnStore::len).collect();
        assert_eq!(lens, vec![3, 3, 3, 0]);
    }

    #[test]
    fn input_order_labels_equal_the_view_walk() {
        // Row `g` labelled `g`, so any order slip shows.
        fn dense(n: usize) -> ColumnStore {
            (0..n).map(|g| (g as f64, [g as f64, 1.0])).collect()
        }
        fn csr(n: usize) -> ColumnStore {
            let mut b = ColumnarBuilder::new();
            for g in 0..n {
                b.push_sparse(g as f64, &[0], &[g as f64]).unwrap();
            }
            b.finish_with_dims(2)
        }
        for scheme in [PartitionScheme::RoundRobin, PartitionScheme::Contiguous] {
            for (layout, rows) in [("dense", dense as Rows), ("csr", csr)] {
                for p in [1usize, 3, 4] {
                    for n in [0usize, 1, 10] {
                        let ds = if n == 0 {
                            // No constructor takes an empty store: build
                            // the degenerate case, p empty partitions.
                            PartitionedDataset {
                                desc: DatasetDescriptor::new("e", 1, 2, 1, 1.0),
                                partitions: vec![ColumnStore::empty(); p].into(),
                                scheme,
                                fingerprint: Arc::new(OnceLock::new()),
                            }
                        } else {
                            let bytes = p as u64 * 128 * 1024 * 1024;
                            let desc = DatasetDescriptor::new("l", n as u64, 2, bytes, 1.0);
                            PartitionedDataset::with_descriptor(desc, &rows(n), scheme, &spec())
                                .unwrap()
                        };
                        let case = format!("{scheme:?} {layout} p={p} n={n}");
                        let expected_p = if n == 0 { p } else { p.min(n) };
                        assert_eq!(ds.num_partitions(), expected_p, "{case}");
                        let walked: Vec<f64> =
                            ds.iter_views_input_order().map(|v| v.label).collect();
                        let labels: Vec<f64> = ds.input_order_labels().collect();
                        assert_eq!(labels, walked, "{case}");
                        let folded = ds.input_order_labels().fold(Vec::new(), |mut v, l| {
                            v.push(l);
                            v
                        });
                        assert_eq!(folded, walked, "{case}: folded");
                        assert_eq!(labels, (0..n).map(|g| g as f64).collect::<Vec<_>>());
                    }
                }
            }
        }
    }

    #[test]
    fn heap_and_mapped_stores_partition_identically() {
        let dir = std::env::temp_dir().join(format!("ml4all-dataset-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (layout, rows) in LAYOUTS {
            let heap = rows(9);
            let path = dir.join(format!("{layout}.slab"));
            crate::slab::write_slab(&path, &heap).unwrap();
            let mapped = crate::slab::open_slab(&path).unwrap();
            assert!(mapped.is_mapped());
            for scheme in [PartitionScheme::RoundRobin, PartitionScheme::Contiguous] {
                let build = |rows: &ColumnStore| {
                    PartitionedDataset::with_descriptor(four_partitions(9), rows, scheme, &spec())
                        .unwrap()
                };
                let (a, b) = (build(&heap), build(&mapped));
                let lens = |ds: &PartitionedDataset| -> Vec<usize> {
                    ds.partitions().iter().map(ColumnStore::len).collect()
                };
                assert_eq!(lens(&a), lens(&b), "{scheme:?} {layout}");
                assert_eq!(views(&a), views(&b), "{scheme:?} {layout}");
                assert_eq!(a.fingerprint(), b.fingerprint(), "{scheme:?} {layout}");
                if scheme == PartitionScheme::Contiguous {
                    assert!(b.partitions().iter().all(ColumnStore::is_mapped));
                }
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn point_lookup_round_trips() {
        let ds = PartitionedDataset::from_columns(
            "p",
            &points(10),
            PartitionScheme::RoundRobin,
            &spec(),
        )
        .unwrap();
        assert!(ds.view(0, 0).is_some());
        assert!(ds.view(9, 0).is_none());
        assert!(ds.partition(3).is_err());
        let p = ds.view(0, 0).unwrap();
        assert_eq!(p.label, 1.0);
        assert_eq!(p.features.dot(&[1.0, 0.0]), 0.0);
    }
}
