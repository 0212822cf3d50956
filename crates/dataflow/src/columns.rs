//! Contiguous columnar row storage: the physical layout behind every
//! partition of a [`crate::dataset::PartitionedDataset`].
//!
//! The paper's Section 4.1 data units — "a label, a set of indices, and a
//! set of values" — map directly onto two slab layouts:
//!
//! - **Dense**: one row-major `values` slab (`n × dims`) plus a `labels`
//!   column. A row is a borrowed `&[f64]` slice — no per-point heap
//!   allocation, no pointer chasing in the gradient hot loop.
//! - **CSR**: `indptr`/`indices`/`values` compressed sparse rows plus the
//!   `labels` column, for LIBSVM-shaped data like `rcv1`.
//!
//! Each column lives in a `SlabBuf`: a shared window into either an owned
//! `Vec` or a memory-mapped slab file (see [`crate::slab`]), so cloning a
//! store or cutting it into row windows copies nothing. The gradient
//! executor reads both through identical slices, so out-of-core datasets
//! run the same hot loop as in-memory ones.
//!
//! [`ColumnarBuilder`] ingests rows in either shape and upgrades a dense
//! slab to CSR transparently when sparse or ragged rows arrive, so loaders
//! can stream rows without pre-classifying the dataset.

use std::ops::{Deref, Range};
use std::sync::Arc;

use ml4all_linalg::{
    FeatureView, LinalgError, PointView, DENSE_ENTRY_BYTES, LABEL_BYTES, SPARSE_ENTRY_BYTES,
};

use crate::slab::MappedSlab;

/// Element types a [`SlabBuf`] can hold: plain old data whose bytes can be
/// reinterpreted straight out of a mapped file.
pub(crate) trait SlabElem:
    Copy + std::fmt::Debug + PartialEq + Send + Sync + 'static
{
}

impl SlabElem for f64 {}
impl SlabElem for u64 {}
impl SlabElem for u32 {}

/// A column buffer: a window of elements in shared storage — an owned
/// heap `Vec<T>` or a memory-mapped slab file, either behind an `Arc`.
/// Cloning and windowing bump a reference count and copy nothing, so every
/// partition cut from a store shares its columns, heap or mapped. Both
/// read as plain slices (via `Deref`) with no branch on the storage, so
/// everything downstream of the builder is storage-agnostic.
#[derive(Clone)]
pub(crate) struct SlabBuf<T: SlabElem> {
    /// The window. `'static` stands for "while `owner` is held": the slice
    /// only leaves the buffer re-borrowed for `&self` (see `as_slice`).
    elems: &'static [T],
    owner: Owner<T>,
}

/// What keeps a buffer's storage alive.
#[derive(Clone)]
enum Owner<T> {
    /// No storage: an empty buffer, built without allocating.
    Empty,
    Heap(Arc<Vec<T>>),
    Mapped(Arc<MappedSlab>),
}

impl<T: SlabElem> SlabBuf<T> {
    fn new() -> Self {
        Self {
            elems: &[],
            owner: Owner::Empty,
        }
    }

    /// A window of `len` elements at `byte_offset` into a mapping. The
    /// section must be aligned for `T` and lie inside the mapping — both
    /// hold by construction for slab-file sections, which start on page
    /// boundaries.
    pub(crate) fn mapped(map: Arc<MappedSlab>, byte_offset: usize, len: usize) -> Self {
        let size = std::mem::size_of::<T>();
        assert_eq!(
            byte_offset % size,
            0,
            "slab section offset must be aligned for its element type"
        );
        Self::share(Owner::Mapped(map), byte_offset / size, len)
    }

    /// Elements `start..start + len` of `owner`'s storage (for a mapping,
    /// counted in `T`-sized steps from its first byte), held for as long
    /// as the returned buffer holds `owner`.
    fn share(owner: Owner<T>, start: usize, len: usize) -> Self {
        let size = std::mem::size_of::<T>();
        let ptr: *const T = match &owner {
            Owner::Empty => return Self::new(),
            Owner::Heap(v) => v[start..start + len].as_ptr(),
            Owner::Mapped(map) => {
                let bytes = map
                    .bytes()
                    .get(start * size..(start + len) * size)
                    .expect("slab section must lie inside the mapping");
                assert!(
                    bytes.as_ptr().cast::<T>().is_aligned(),
                    "slab section offset must be aligned for its element type"
                );
                bytes.as_ptr().cast()
            }
        };
        // SAFETY: `ptr` starts `len` elements inside `owner`'s storage,
        // bounds-checked above, and is aligned: a `Vec`'s own elements, or
        // a mapped section checked above. Mapped bytes are initialised and
        // `T` is plain numeric data (`SlabElem`), valid for every bit
        // pattern. The storage stays alive and unwritten while `owner` is
        // held: a `Vec` frozen behind its `Arc`, or a read-only mapping.
        // The `'static` borrow never outlives `owner`: it is only handed
        // out re-borrowed for `&self`.
        let elems = unsafe { std::slice::from_raw_parts(ptr, len) };
        Self { elems, owner }
    }

    #[inline]
    fn as_slice(&self) -> &[T] {
        self.elems
    }

    /// A sub-buffer over `range`, sharing this one's storage.
    fn window(&self, range: Range<usize>) -> Self {
        Self {
            elems: &self.elems[range],
            owner: self.owner.clone(),
        }
    }

    fn is_mapped(&self) -> bool {
        matches!(self.owner, Owner::Mapped(_))
    }
}

impl<T: SlabElem> Deref for SlabBuf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: SlabElem> From<Vec<T>> for SlabBuf<T> {
    fn from(v: Vec<T>) -> Self {
        if v.is_empty() {
            return Self::new();
        }
        // Moving the `Vec` into its `Arc` leaves its elements in place.
        let len = v.len();
        Self::share(Owner::Heap(Arc::new(v)), 0, len)
    }
}

impl<T: SlabElem> std::fmt::Debug for SlabBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_mapped() {
            write!(f, "mapped:")?;
        }
        self.as_slice().fmt(f)
    }
}

impl<T: SlabElem> PartialEq for SlabBuf<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Dense slab storage: labels + a row-major value matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseColumns {
    dims: usize,
    labels: SlabBuf<f64>,
    values: SlabBuf<f64>,
}

/// CSR storage: labels + compressed sparse rows over a shared dimension.
///
/// `indptr` offsets are **absolute** positions into `indices`/`values`. A
/// full store has `indptr[0] == 0`; a [`ColumnStore::window`] shares the
/// complete `indices`/`values` buffers and narrows only `labels` and
/// `indptr`, so its first offset is generally non-zero.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrColumns {
    dim: usize,
    labels: SlabBuf<f64>,
    indptr: SlabBuf<u64>,
    indices: SlabBuf<u32>,
    values: SlabBuf<f64>,
}

/// A block of rows in contiguous columnar form.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnStore {
    /// Dense slab (`labels` + row-major `values`).
    Dense(DenseColumns),
    /// Compressed sparse rows.
    Csr(CsrColumns),
}

impl ColumnStore {
    /// An empty dense store (zero rows, zero dims).
    pub fn empty() -> Self {
        ColumnarBuilder::new().finish()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Self::Dense(d) => d.labels.len(),
            Self::Csr(c) => c.labels.len(),
        }
    }

    /// `true` when the store holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature-space dimensionality shared by every row.
    #[inline]
    pub fn dims(&self) -> usize {
        match self {
            Self::Dense(d) => d.dims,
            Self::Csr(c) => c.dim,
        }
    }

    /// Label column.
    #[inline]
    pub fn labels(&self) -> &[f64] {
        match self {
            Self::Dense(d) => &d.labels,
            Self::Csr(c) => &c.labels,
        }
    }

    /// Borrow row `i` as a zero-copy [`PointView`].
    #[inline]
    pub fn view(&self, i: usize) -> Option<PointView<'_>> {
        match self {
            Self::Dense(d) => {
                let label = *d.labels.get(i)?;
                let row = &d.values[i * d.dims..(i + 1) * d.dims];
                Some(PointView::new(label, FeatureView::Dense(row)))
            }
            Self::Csr(c) => {
                let label = *c.labels.get(i)?;
                let (lo, hi) = (c.indptr[i] as usize, c.indptr[i + 1] as usize);
                Some(PointView::new(
                    label,
                    FeatureView::Sparse {
                        dim: c.dim,
                        indices: &c.indices[lo..hi],
                        values: &c.values[lo..hi],
                    },
                ))
            }
        }
    }

    /// Iterate over every row as a [`PointView`].
    pub fn iter(&self) -> ColumnIter<'_> {
        ColumnIter {
            store: self,
            next: 0,
        }
    }

    /// Raw dense slab access (`labels`, row-major `values`, `dims`) — the
    /// branch-free fast path the gradient wave runs over.
    #[inline]
    pub fn as_dense(&self) -> Option<(&[f64], &[f64], usize)> {
        match self {
            Self::Dense(d) => Some((&d.labels, &d.values, d.dims)),
            Self::Csr(_) => None,
        }
    }

    /// Raw CSR access (`labels`, `indptr`, `indices`, `values`, `dim`).
    /// `indptr` offsets are absolute into `indices`/`values`; a window's
    /// first offset is generally non-zero (see [`CsrColumns`]).
    #[inline]
    #[allow(clippy::type_complexity)]
    pub fn as_csr(&self) -> Option<(&[f64], &[u64], &[u32], &[f64], usize)> {
        match self {
            Self::Dense(_) => None,
            Self::Csr(c) => Some((&c.labels, &c.indptr, &c.indices, &c.values, c.dim)),
        }
    }

    /// Sum of materialized (possibly non-zero) entries across all rows.
    pub fn total_nnz(&self) -> u64 {
        match self {
            Self::Dense(d) => d.values.len() as u64,
            Self::Csr(c) => match (c.indptr.first(), c.indptr.last()) {
                (Some(&lo), Some(&hi)) => hi - lo,
                _ => 0,
            },
        }
    }

    /// Approximate storage footprint in bytes (Table 1's `|D|_b`
    /// bookkeeping): 8 per label, 8 per dense entry, 12 per stored sparse
    /// entry (index and value).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            Self::Dense(d) => {
                (LABEL_BYTES * d.labels.len() + DENSE_ENTRY_BYTES * d.values.len()) as u64
            }
            Self::Csr(c) => {
                (LABEL_BYTES * c.labels.len()) as u64 + SPARSE_ENTRY_BYTES as u64 * self.total_nnz()
            }
        }
    }

    /// `true` when the store's columns borrow a memory-mapped slab file
    /// rather than owning heap buffers.
    pub fn is_mapped(&self) -> bool {
        match self {
            Self::Dense(d) => d.labels.is_mapped(),
            Self::Csr(c) => c.labels.is_mapped(),
        }
    }

    /// Rows `start..end` as a store sharing this one's storage, heap or
    /// mapped: O(1), nothing is copied. Contiguous partitions are cut this
    /// way, so a dataset larger than RAM is never duplicated.
    pub fn window(&self, start: usize, end: usize) -> ColumnStore {
        assert!(
            start <= end && end <= self.len(),
            "window {start}..{end} out of bounds for {} rows",
            self.len()
        );
        match self {
            Self::Dense(d) => Self::Dense(DenseColumns {
                dims: d.dims,
                labels: d.labels.window(start..end),
                values: d.values.window(start * d.dims..end * d.dims),
            }),
            Self::Csr(c) => Self::Csr(CsrColumns {
                dim: c.dim,
                labels: c.labels.window(start..end),
                indptr: c.indptr.window(start..end + 1),
                indices: c.indices.clone(),
                values: c.values.clone(),
            }),
        }
    }

    /// A dense store borrowing sections of a mapped slab file.
    pub(crate) fn from_mapped_dense(
        map: Arc<MappedSlab>,
        rows: usize,
        dims: usize,
        labels_off: usize,
        values_off: usize,
    ) -> Self {
        Self::Dense(DenseColumns {
            dims,
            labels: SlabBuf::mapped(Arc::clone(&map), labels_off, rows),
            values: SlabBuf::mapped(map, values_off, rows * dims),
        })
    }

    /// A CSR store borrowing sections of a mapped slab file.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_mapped_csr(
        map: Arc<MappedSlab>,
        rows: usize,
        dim: usize,
        nnz: usize,
        labels_off: usize,
        indptr_off: usize,
        indices_off: usize,
        values_off: usize,
    ) -> Self {
        Self::Csr(CsrColumns {
            dim,
            labels: SlabBuf::mapped(Arc::clone(&map), labels_off, rows),
            indptr: SlabBuf::mapped(Arc::clone(&map), indptr_off, rows + 1),
            indices: SlabBuf::mapped(Arc::clone(&map), indices_off, nnz),
            values: SlabBuf::mapped(map, values_off, nnz),
        })
    }

    /// Every row as a [`PointView`] borrowing this store, in row order —
    /// for writers and comparisons; nothing is copied.
    pub fn to_points(&self) -> Vec<PointView<'_>> {
        self.iter().collect()
    }
}

/// Iterator over the rows of a [`ColumnStore`].
#[derive(Debug, Clone)]
pub struct ColumnIter<'a> {
    store: &'a ColumnStore,
    next: usize,
}

impl<'a> Iterator for ColumnIter<'a> {
    type Item = PointView<'a>;

    #[inline]
    fn next(&mut self) -> Option<PointView<'a>> {
        let v = self.store.view(self.next)?;
        self.next += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.store.len().saturating_sub(self.next);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ColumnIter<'_> {}

/// Streaming builder for a [`ColumnStore`].
///
/// Starts as a dense slab on the first dense push; upgrades to CSR the
/// moment a sparse or ragged-width row arrives (existing dense rows are
/// rewritten as explicit CSR rows, which is numerically identical).
#[derive(Debug, Clone)]
pub struct ColumnarBuilder {
    repr: Repr,
}

/// Builders always own plain `Vec`s; conversion to [`SlabBuf`] happens
/// once at [`ColumnarBuilder::finish`].
#[derive(Debug, Clone)]
enum Repr {
    Empty,
    Dense {
        dims: usize,
        labels: Vec<f64>,
        values: Vec<f64>,
    },
    Csr {
        dim: usize,
        labels: Vec<f64>,
        indptr: Vec<u64>,
        indices: Vec<u32>,
        values: Vec<f64>,
    },
}

impl Default for ColumnarBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnarBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self { repr: Repr::Empty }
    }

    /// A builder pre-sized for `rows` rows of `dims` dense features.
    pub fn with_dense_capacity(rows: usize, dims: usize) -> Self {
        Self {
            repr: Repr::Dense {
                dims,
                labels: Vec::with_capacity(rows),
                values: Vec::with_capacity(rows * dims),
            },
        }
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Empty => 0,
            Repr::Dense { labels, .. } | Repr::Csr { labels, .. } => labels.len(),
        }
    }

    /// `true` when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stored entries pushed so far: the dense slab's values, or the CSR
    /// store's explicit entries.
    pub fn entries(&self) -> usize {
        match &self.repr {
            Repr::Empty => 0,
            Repr::Dense { values, .. } | Repr::Csr { values, .. } => values.len(),
        }
    }

    /// `(rows, entries)` the builder can still take before a column must
    /// grow.
    pub fn spare(&self) -> (usize, usize) {
        fn spare<T>(v: &Vec<T>) -> usize {
            v.capacity() - v.len()
        }
        match &self.repr {
            Repr::Empty => (0, 0),
            Repr::Dense { labels, values, .. } => (spare(labels), spare(values)),
            Repr::Csr {
                labels,
                indptr,
                indices,
                values,
                ..
            } => (
                spare(labels).min(spare(indptr)),
                spare(indices).min(spare(values)),
            ),
        }
    }

    /// Grow every column to hold exactly `rows` more rows with `entries`
    /// more stored entries among them ([`Vec::reserve_exact`]), so a
    /// reader that knows how much input remains sizes each column about
    /// once. An empty builder has no layout yet: its first row sets it.
    pub fn reserve_exact(&mut self, rows: usize, entries: usize) {
        match &mut self.repr {
            Repr::Empty => {}
            Repr::Dense { labels, values, .. } => {
                labels.reserve_exact(rows);
                values.reserve_exact(entries);
            }
            Repr::Csr {
                labels,
                indptr,
                indices,
                values,
                ..
            } => {
                labels.reserve_exact(rows);
                indptr.reserve_exact(rows);
                indices.reserve_exact(entries);
                values.reserve_exact(entries);
            }
        }
    }

    /// Approximate in-memory footprint of the rows pushed so far, in the
    /// same accounting as [`ColumnStore::approx_bytes`]. This is what a
    /// spilling ingester budgets against.
    pub fn approx_bytes(&self) -> u64 {
        match &self.repr {
            Repr::Empty => 0,
            Repr::Dense { labels, values, .. } => {
                (LABEL_BYTES * labels.len() + DENSE_ENTRY_BYTES * values.len()) as u64
            }
            Repr::Csr {
                labels, indices, ..
            } => (LABEL_BYTES * labels.len() + SPARSE_ENTRY_BYTES * indices.len()) as u64,
        }
    }

    /// Append a dense row.
    pub fn push_dense(&mut self, label: f64, row: &[f64]) {
        match &mut self.repr {
            Repr::Empty => {
                self.repr = Repr::Dense {
                    dims: row.len(),
                    labels: vec![label],
                    values: row.to_vec(),
                };
            }
            Repr::Dense {
                dims,
                labels,
                values,
            } if *dims == row.len() => {
                labels.push(label);
                values.extend_from_slice(row);
            }
            Repr::Dense { .. } => {
                // Ragged dense width: fall back to CSR.
                self.upgrade_to_csr(row.len());
                self.push_dense(label, row);
            }
            Repr::Csr {
                dim,
                labels,
                indptr,
                indices,
                values,
            } => {
                *dim = (*dim).max(row.len());
                labels.push(label);
                for (i, &v) in row.iter().enumerate() {
                    indices.push(i as u32);
                    values.push(v);
                }
                indptr.push(indices.len() as u64);
            }
        }
    }

    /// Append a sparse row. `indices` must be strictly increasing; the
    /// store's dimensionality grows to cover the largest index seen (use
    /// [`ColumnarBuilder::finish_with_dims`] to widen it further).
    pub fn push_sparse(
        &mut self,
        label: f64,
        indices: &[u32],
        values: &[f64],
    ) -> Result<(), LinalgError> {
        if indices.len() != values.len() {
            return Err(LinalgError::IndexValueLengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        if indices.windows(2).any(|w| w[0] >= w[1]) {
            return Err(LinalgError::UnsortedIndices);
        }
        let needed = indices.last().map_or(0, |&m| m as usize + 1);
        if !matches!(self.repr, Repr::Csr { .. }) {
            let dims = match &self.repr {
                Repr::Dense { dims, .. } => *dims,
                _ => 0,
            };
            self.upgrade_to_csr(dims.max(needed));
        }
        let Repr::Csr {
            dim,
            labels,
            indptr,
            indices: all_indices,
            values: all_values,
        } = &mut self.repr
        else {
            unreachable!("just upgraded to CSR");
        };
        *dim = (*dim).max(needed);
        labels.push(label);
        all_indices.extend_from_slice(indices);
        all_values.extend_from_slice(values);
        indptr.push(all_indices.len() as u64);
        Ok(())
    }

    /// Append a borrowed row (the partition-dealing path: rows move from
    /// one store into per-partition builders as views).
    pub fn push_view(&mut self, view: PointView<'_>) {
        match view.features {
            FeatureView::Dense(row) => self.push_dense(view.label, row),
            FeatureView::Sparse {
                dim,
                indices,
                values,
            } => {
                self.push_sparse(view.label, indices, values)
                    .expect("a view borrows already-validated storage");
                if let Repr::Csr { dim: d, .. } = &mut self.repr {
                    *d = (*d).max(dim);
                }
            }
        }
    }

    /// Finish, producing the columnar store.
    pub fn finish(self) -> ColumnStore {
        match self.repr {
            Repr::Empty => ColumnStore::Dense(DenseColumns {
                dims: 0,
                labels: SlabBuf::new(),
                values: SlabBuf::new(),
            }),
            Repr::Dense {
                dims,
                labels,
                values,
            } => ColumnStore::Dense(DenseColumns {
                dims,
                labels: labels.into(),
                values: values.into(),
            }),
            Repr::Csr {
                dim,
                labels,
                indptr,
                indices,
                values,
            } => ColumnStore::Csr(CsrColumns {
                dim,
                labels: labels.into(),
                indptr: indptr.into(),
                indices: indices.into(),
                values: values.into(),
            }),
        }
    }

    /// Finish, widening a CSR store's dimensionality to at least `dims`
    /// (LIBSVM's "pad to the model width" hint). Dense slabs keep their
    /// exact width — their dimensionality is structural, not declared.
    pub fn finish_with_dims(self, dims: usize) -> ColumnStore {
        let mut store = self.finish();
        if let ColumnStore::Csr(c) = &mut store {
            c.dim = c.dim.max(dims);
        }
        store
    }

    fn upgrade_to_csr(&mut self, dim: usize) {
        let repr = std::mem::replace(&mut self.repr, Repr::Empty);
        self.repr = match repr {
            Repr::Empty => Repr::Csr {
                dim,
                labels: Vec::new(),
                indptr: vec![0],
                indices: Vec::new(),
                values: Vec::new(),
            },
            Repr::Dense {
                dims,
                labels,
                values,
            } => {
                let n = labels.len();
                let mut indices = Vec::with_capacity(values.len());
                let mut indptr = Vec::with_capacity(n + 1);
                indptr.push(0);
                for _ in 0..n {
                    indices.extend(0..dims as u32);
                    indptr.push(indices.len() as u64);
                }
                Repr::Csr {
                    dim: dim.max(dims),
                    labels,
                    indptr,
                    indices,
                    values,
                }
            }
            Repr::Csr {
                dim: d,
                labels,
                indptr,
                indices,
                values,
            } => Repr::Csr {
                dim: d.max(dim),
                labels,
                indptr,
                indices,
                values,
            },
        };
    }
}

/// Build a store from `(label, dense row)` pairs through
/// [`ColumnarBuilder::push_dense`].
impl<R: AsRef<[f64]>> FromIterator<(f64, R)> for ColumnStore {
    fn from_iter<I: IntoIterator<Item = (f64, R)>>(iter: I) -> Self {
        let mut b = ColumnarBuilder::new();
        for (label, row) in iter {
            b.push_dense(label, row.as_ref());
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_rows_land_in_one_slab() {
        let mut b = ColumnarBuilder::new();
        b.push_dense(1.0, &[1.0, 2.0]);
        b.push_dense(-1.0, &[3.0, 4.0]);
        let store = b.finish();
        assert_eq!(store.len(), 2);
        assert_eq!(store.dims(), 2);
        let (labels, values, dims) = store.as_dense().unwrap();
        assert_eq!(labels, &[1.0, -1.0]);
        assert_eq!(values, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(dims, 2);
        let v = store.view(1).unwrap();
        assert_eq!(v.label, -1.0);
        assert_eq!(v.features.dot(&[1.0, 0.0]), 3.0);
        assert!(store.view(2).is_none());
    }

    #[test]
    fn sparse_rows_build_csr() {
        let mut b = ColumnarBuilder::new();
        b.push_sparse(1.0, &[1, 3], &[5.0, 1.0]).unwrap();
        b.push_sparse(-1.0, &[0], &[2.0]).unwrap();
        let store = b.finish_with_dims(6);
        assert_eq!(store.len(), 2);
        assert_eq!(store.dims(), 6);
        assert!(store.as_dense().is_none());
        let v = store.view(0).unwrap();
        assert_eq!(v.features.nnz(), 2);
        assert_eq!(v.features.dot(&[0.0, 1.0, 0.0, 1.0, 0.0, 0.0]), 6.0);
        assert_eq!(store.total_nnz(), 3);
    }

    #[test]
    fn mixed_rows_upgrade_dense_to_csr_identically() {
        let mut b = ColumnarBuilder::new();
        b.push_dense(1.0, &[1.0, 0.0, 2.0]);
        b.push_sparse(-1.0, &[2], &[7.0]).unwrap();
        let store = b.finish();
        assert_eq!(store.dims(), 3);
        let w = [1.0, 10.0, 100.0];
        assert_eq!(store.view(0).unwrap().features.dot(&w), 201.0);
        assert_eq!(store.view(1).unwrap().features.dot(&w), 700.0);
    }

    #[test]
    fn builder_rejects_invalid_sparse_rows() {
        let mut b = ColumnarBuilder::new();
        assert_eq!(
            b.push_sparse(1.0, &[2, 1], &[1.0, 1.0]).unwrap_err(),
            LinalgError::UnsortedIndices
        );
        assert!(matches!(
            b.push_sparse(1.0, &[1], &[]).unwrap_err(),
            LinalgError::IndexValueLengthMismatch { .. }
        ));
    }

    #[test]
    fn to_points_round_trips_both_layouts() {
        let store: ColumnStore = [(1.0, [1.0, 2.0]), (-1.0, [3.0, 4.0])]
            .into_iter()
            .collect();
        let points = store.to_points();
        assert_eq!(
            points,
            [
                PointView::new(1.0, FeatureView::Dense(&[1.0, 2.0])),
                PointView::new(-1.0, FeatureView::Dense(&[3.0, 4.0])),
            ]
        );
        // Views borrow the slab itself: the second row starts two values
        // into the one contiguous buffer.
        let (_, values, _) = store.as_dense().unwrap();
        let FeatureView::Dense(row) = points[1].features else {
            panic!("a dense store hands out dense rows");
        };
        assert!(std::ptr::eq(row.as_ptr(), values[2..].as_ptr()));

        let mut b = ColumnarBuilder::new();
        b.push_sparse(1.0, &[0, 4], &[1.0, 2.0]).unwrap();
        b.push_sparse(-1.0, &[2], &[3.0]).unwrap();
        let store = b.finish_with_dims(5);
        let sparse = |label, indices, values| {
            PointView::new(
                label,
                FeatureView::Sparse {
                    dim: 5,
                    indices,
                    values,
                },
            )
        };
        assert_eq!(
            store.to_points(),
            [
                sparse(1.0, &[0, 4], &[1.0, 2.0]),
                sparse(-1.0, &[2], &[3.0])
            ]
        );
    }

    #[test]
    fn approx_bytes_matches_point_accounting() {
        // 8 bytes per label plus 8 per dense or 12 per sparse entry.
        let dense: ColumnStore = [(1.0, [0.0; 10]), (-1.0, [0.0; 10])].into_iter().collect();
        assert_eq!(dense.approx_bytes(), 2 * (8 + 8 * 10));
        let mut b = ColumnarBuilder::new();
        b.push_sparse(1.0, &[3], &[1.0]).unwrap();
        b.push_sparse(1.0, &[0, 999], &[1.0, 2.0]).unwrap();
        assert_eq!(b.approx_bytes(), (8 + 12) + (8 + 2 * 12));
        assert_eq!(b.finish().approx_bytes(), (8 + 12) + (8 + 2 * 12));
    }

    #[test]
    fn empty_store_is_well_formed() {
        let store = ColumnStore::empty();
        assert!(store.is_empty());
        assert_eq!(store.iter().count(), 0);
        assert!(store.view(0).is_none());
        assert!(!store.is_mapped());
    }

    #[test]
    fn iterator_is_exact_size() {
        let mut b = ColumnarBuilder::with_dense_capacity(3, 1);
        for i in 0..3 {
            b.push_dense(i as f64, &[i as f64]);
        }
        let store = b.finish();
        let mut it = store.iter();
        assert_eq!(it.len(), 3);
        it.next();
        assert_eq!(it.len(), 2);
        let labels: Vec<f64> = store.iter().map(|v| v.label).collect();
        assert_eq!(labels, vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn dense_window_selects_the_right_rows() {
        let mut b = ColumnarBuilder::new();
        for i in 0..10 {
            b.push_dense(i as f64, &[i as f64, -(i as f64)]);
        }
        let store = b.finish();
        let w = store.window(3, 7);
        assert_eq!(w.len(), 4);
        assert_eq!(w.dims(), 2);
        assert_eq!(w.labels(), &[3.0, 4.0, 5.0, 6.0]);
        for (k, v) in w.iter().enumerate() {
            assert_eq!(v, store.view(3 + k).unwrap());
        }
    }

    #[test]
    fn csr_window_keeps_absolute_indptr() {
        let mut b = ColumnarBuilder::new();
        for i in 0..8u32 {
            b.push_sparse(i as f64, &[i, i + 10], &[1.0, 2.0]).unwrap();
        }
        let store = b.finish_with_dims(20);
        let w = store.window(2, 5);
        assert_eq!(w.len(), 3);
        assert_eq!(w.dims(), 20);
        assert_eq!(w.total_nnz(), 6);
        assert_eq!(w.approx_bytes(), 8 * 3 + 12 * 6);
        let (_, indptr, ..) = w.as_csr().unwrap();
        assert_eq!(indptr, &[4, 6, 8, 10]);
        for (k, v) in w.iter().enumerate() {
            assert_eq!(v, store.view(2 + k).unwrap());
        }
    }

    #[test]
    fn empty_window_is_well_formed() {
        let mut b = ColumnarBuilder::new();
        b.push_sparse(1.0, &[0], &[1.0]).unwrap();
        let store = b.finish();
        let w = store.window(1, 1);
        assert!(w.is_empty());
        assert_eq!(w.total_nnz(), 0);
    }
}
