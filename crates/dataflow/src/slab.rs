//! Out-of-core columnar slabs: a memory-mappable on-disk format for
//! [`ColumnStore`] plus a budget-bounded spilling builder.
//!
//! Datasets larger than the configured memory budget never materialize in
//! RAM. Ingestion streams rows into a [`SpillingBuilder`], which flushes
//! bounded in-memory segments to disk and finally merges them into one
//! **slab file**; the merged file is memory-mapped and served back as a
//! [`ColumnStore`] whose label/index/value buffers borrow the mapping
//! directly — the gradient hot loop reads mapped pages through the same
//! zero-copy [`ml4all_linalg::PointView`] path as in-memory slabs, and the
//! OS pages data in and out as the working set demands.
//!
//! # File format (version 1)
//!
//! Native-endian, a spill/cache format rather than an interchange format:
//!
//! ```text
//! offset 0   magic  b"ML4ASLAB"
//!        8   version u32 (= 1)
//!       12   kind    u32 (0 = dense, 1 = CSR)
//!       16   rows    u64
//!       24   dims    u64
//!       32   nnz     u64 (dense: rows × dims)
//! ```
//!
//! followed by page-aligned (4096-byte) sections, each in row order:
//! `labels: f64 × rows`, then for dense slabs `values: f64 × rows × dims`,
//! and for CSR `indptr: u64 × (rows + 1)`, `indices: u32 × nnz`,
//! `values: f64 × nnz`. Page alignment keeps every section aligned for its
//! element type under a whole-file mapping.
//!
//! On Unix the mapping is a direct `mmap(PROT_READ, MAP_PRIVATE)` (no
//! external crates — the two syscalls are declared here); elsewhere the
//! file is read into an 8-byte-aligned heap buffer, which loses the
//! out-of-core property but keeps every API identical.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ml4all_linalg::LinalgError;

use crate::columns::{ColumnStore, ColumnarBuilder};

/// Magic bytes opening every slab file.
pub const SLAB_MAGIC: [u8; 8] = *b"ML4ASLAB";
/// Current slab format version.
pub const SLAB_VERSION: u32 = 1;
/// Section alignment: one page, so every section is aligned for its
/// element type under a page-aligned whole-file mapping.
const SECTION_ALIGN: u64 = 4096;

const KIND_DENSE: u32 = 0;
const KIND_CSR: u32 = 1;

/// Errors from writing, opening, or spilling slab files.
#[derive(Debug)]
pub enum SlabError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// The file is not a valid slab (bad magic/version/sizes/indptr).
    Format(String),
    /// A pushed sparse row was invalid (unsorted or ragged indices).
    Row(LinalgError),
}

impl std::fmt::Display for SlabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "slab io error: {e}"),
            Self::Format(why) => write!(f, "invalid slab file: {why}"),
            Self::Row(e) => write!(f, "invalid row: {e}"),
        }
    }
}

impl std::error::Error for SlabError {}

impl From<std::io::Error> for SlabError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<LinalgError> for SlabError {
    fn from(e: LinalgError) -> Self {
        Self::Row(e)
    }
}

// ---------------------------------------------------------------------------
// Memory mapping
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 0x02;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// A read-only mapping of an entire file.
///
/// On Unix this is a real `mmap`: pages load lazily and the OS may evict
/// clean pages under memory pressure, which is what makes
/// larger-than-budget datasets trainable. The mapped file must not be
/// truncated while mapped (that is undefined at the OS level); spill files
/// are private to this process, so the hazard only applies to
/// user-supplied slab files. On non-Unix targets the "mapping" is an
/// 8-byte-aligned heap copy of the file.
#[derive(Debug)]
pub struct MappedSlab {
    #[cfg(unix)]
    ptr: *const u8,
    #[cfg(not(unix))]
    buf: Vec<u64>,
    len: usize,
}

// SAFETY: the mapping is read-only for its entire lifetime and owned by
// this value alone, so moving it to or sharing it with another thread
// cannot race.
unsafe impl Send for MappedSlab {}
// SAFETY: as for `Send`: every access is a read of immutable pages.
unsafe impl Sync for MappedSlab {}

impl MappedSlab {
    /// Map the whole of `file` (its current length) read-only.
    pub fn from_file(file: &mut File) -> std::io::Result<Self> {
        // `u64 → usize` must be checked, not truncated: on a 32-bit
        // target a >4 GiB file would otherwise map a silently wrapped
        // length and every section offset computed from the header would
        // read out of bounds.
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file too large to map on this platform",
            )
        })?;
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            if len == 0 {
                return Ok(Self {
                    ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                    len: 0,
                });
            }
            // SAFETY: a fresh read-only private mapping of `len > 0` bytes
            // of an open file; the result is checked against MAP_FAILED.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == sys::map_failed() {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Self {
                ptr: ptr as *const u8,
                len,
            })
        }
        #[cfg(not(unix))]
        {
            use std::io::Seek;
            file.seek(std::io::SeekFrom::Start(0))?;
            let mut buf = vec![0u64; len.div_ceil(8)];
            // SAFETY: `buf` owns `8 * ceil(len / 8) >= len` initialised
            // bytes, and any byte pattern is a valid `u64`.
            let bytes = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
            file.read_exact(bytes)?;
            Ok(Self { buf, len })
        }
    }

    /// The mapped bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` maps `len` readable bytes (or dangles with
        // `len == 0`) until `drop`, which needs `&mut self`.
        #[cfg(unix)]
        unsafe {
            std::slice::from_raw_parts(self.ptr, self.len)
        }
        // SAFETY: `buf` owns at least `len` initialised bytes.
        #[cfg(not(unix))]
        unsafe {
            std::slice::from_raw_parts(self.buf.as_ptr() as *const u8, self.len)
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-length mapping.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(unix)]
impl Drop for MappedSlab {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: unmaps exactly the region `from_file` mapped; no
            // borrow of it can outlive `self`.
            unsafe {
                sys::munmap(self.ptr as *mut core::ffi::c_void, self.len);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn align_up(off: u64) -> u64 {
    off.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Counter making temp-file names unique within the process.
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A process-unique temp path in the same directory as `path` (same
/// filesystem, so the final rename is atomic).
fn temp_sibling(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".into());
    path.with_file_name(format!("{name}.{}-{seq}.tmp", std::process::id()))
}

/// Best-effort fsync of the directory holding `path`, so the rename that
/// published `path` is itself durable. Failures are ignored: directory
/// handles are not syncable on every platform, and the data file is
/// already synced.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(if parent.as_os_str().is_empty() {
            Path::new(".")
        } else {
            parent
        }) {
            let _ = dir.sync_all();
        }
    }
}

/// Write `bytes` to `path` crash-safely: the bytes go to a temp file in
/// the same directory, are fsynced, and the temp file is renamed over
/// `path`. A crash at any point leaves either the previous file or the
/// complete new one, never a loadable half-write. Shared by slab spills,
/// checkpoint files, the persistent plan cache, and model persistence.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = temp_sibling(path);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    } else {
        sync_parent_dir(path);
    }
    result
}

/// Sequential slab-file writer tracking the running offset so sections can
/// be padded to page boundaries. Writes land in a temp sibling that
/// [`SectionWriter::finish`] fsyncs and renames into place, so a crash
/// mid-write can never leave a loadable half-slab at the destination.
struct SectionWriter {
    out: Option<BufWriter<File>>,
    offset: u64,
    tmp: PathBuf,
    dest: PathBuf,
}

impl SectionWriter {
    fn create(path: &Path) -> std::io::Result<Self> {
        let tmp = temp_sibling(path);
        Ok(Self {
            out: Some(BufWriter::new(File::create(&tmp)?)),
            offset: 0,
            tmp,
            dest: path.to_path_buf(),
        })
    }

    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.out.as_mut().expect("writer open").write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Pad with zeros to the next page boundary.
    fn pad_to_section(&mut self) -> std::io::Result<()> {
        const ZEROS: [u8; 256] = [0; 256];
        let mut need = (align_up(self.offset) - self.offset) as usize;
        while need > 0 {
            let n = need.min(ZEROS.len());
            self.write(&ZEROS[..n])?;
            need -= n;
        }
        Ok(())
    }

    fn finish(mut self) -> std::io::Result<()> {
        let result = (|| {
            let file = self
                .out
                .take()
                .expect("writer open")
                .into_inner()
                .map_err(|e| e.into_error())?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&self.tmp, &self.dest)
        })();
        match result {
            Ok(()) => {
                sync_parent_dir(&self.dest);
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&self.tmp);
                Err(e)
            }
        }
    }
}

impl Drop for SectionWriter {
    /// An abandoned writer (error mid-write) removes its temp file; the
    /// destination path was never touched.
    fn drop(&mut self) {
        if self.out.is_some() {
            self.out = None;
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Reinterpret a plain-data slice as native-endian bytes.
fn as_bytes<T: Copy>(s: &[T]) -> &[u8] {
    // SAFETY: the bytes of an initialised slice of padding-free numbers
    // (`f64`/`u64`/`u32` here), read for the slice's own lifetime.
    unsafe { std::slice::from_raw_parts(s.as_ptr() as *const u8, std::mem::size_of_val(s)) }
}

/// Per-row nnz counts of a store (dense rows count every materialized
/// entry, matching the dense→CSR upgrade of [`ColumnarBuilder`]).
fn row_nnz(store: &ColumnStore, i: usize) -> u64 {
    match store.as_csr() {
        Some((_, indptr, ..)) => indptr[i + 1] - indptr[i],
        None => store.dims() as u64,
    }
}

/// The absolute `indices`/`values` span a CSR `indptr` covers.
fn csr_span(indptr: &[u64]) -> (usize, usize) {
    match (indptr.first(), indptr.last()) {
        (Some(&lo), Some(&hi)) => (lo as usize, hi as usize),
        _ => (0, 0),
    }
}

/// Write `parts`, concatenated in order, as one slab file at `path`.
///
/// The result is dense only when every part is dense with one shared
/// width; any CSR part (or ragged dense widths) makes the output CSR, with
/// dense rows expanded to explicit entries — exactly the
/// [`ColumnarBuilder`] upgrade rule, so a spilled dataset round-trips to
/// the same logical rows the in-memory builder would have produced.
/// `dims` widens a CSR output like [`ColumnarBuilder::finish_with_dims`].
fn write_concatenated(path: &Path, parts: &[&ColumnStore], dims: usize) -> Result<(), SlabError> {
    let rows: u64 = parts.iter().map(|p| p.len() as u64).sum();
    let all_dense = parts.iter().all(|p| p.as_dense().is_some());
    let shared_width = parts.first().map_or(0, |p| p.dims());
    let dense = all_dense && parts.iter().all(|p| p.dims() == shared_width);
    let (kind, dim, nnz) = if dense {
        (KIND_DENSE, shared_width, rows * shared_width as u64)
    } else {
        let dim = parts.iter().map(|p| p.dims()).max().unwrap_or(0).max(dims);
        let nnz: u64 = parts.iter().map(|p| p.total_nnz()).sum();
        (KIND_CSR, dim, nnz)
    };

    let mut w = SectionWriter::create(path)?;
    w.write(&SLAB_MAGIC)?;
    w.write(&SLAB_VERSION.to_ne_bytes())?;
    w.write(&kind.to_ne_bytes())?;
    w.write(&rows.to_ne_bytes())?;
    w.write(&(dim as u64).to_ne_bytes())?;
    w.write(&nnz.to_ne_bytes())?;

    // Labels.
    w.pad_to_section()?;
    for p in parts {
        w.write(as_bytes(p.labels()))?;
    }

    if kind == KIND_DENSE {
        w.pad_to_section()?;
        for p in parts {
            let (_, values, _) = p.as_dense().expect("checked dense");
            w.write(as_bytes(values))?;
        }
        return Ok(w.finish()?);
    }

    // CSR indptr: rebase each part's offsets onto the running total.
    w.pad_to_section()?;
    let mut running = 0u64;
    w.write(&running.to_ne_bytes())?;
    for p in parts {
        for i in 0..p.len() {
            running += row_nnz(p, i);
            w.write(&running.to_ne_bytes())?;
        }
    }
    debug_assert_eq!(running, nnz);

    // Indices: CSR parts copy their indptr-delimited span (a window's
    // indptr is absolute into the full buffers); dense parts expand to
    // 0..width per row.
    w.pad_to_section()?;
    for p in parts {
        match p.as_csr() {
            Some((_, indptr, indices, _, _)) => {
                let (lo, hi) = csr_span(indptr);
                w.write(as_bytes(&indices[lo..hi]))?;
            }
            None => {
                let width = p.dims() as u32;
                let expanded: Vec<u32> = (0..width).collect();
                for _ in 0..p.len() {
                    w.write(as_bytes(&expanded))?;
                }
            }
        }
    }

    // Values: both layouts store row-order f64 runs.
    w.pad_to_section()?;
    for p in parts {
        match p.as_csr() {
            Some((_, indptr, _, values, _)) => {
                let (lo, hi) = csr_span(indptr);
                w.write(as_bytes(&values[lo..hi]))?;
            }
            None => {
                let (_, values, _) = p.as_dense().expect("dense");
                w.write(as_bytes(values))?;
            }
        }
    }
    Ok(w.finish()?)
}

/// Write a [`ColumnStore`] as a slab file at `path` (overwriting).
pub fn write_slab(path: impl AsRef<Path>, store: &ColumnStore) -> Result<(), SlabError> {
    write_concatenated(path.as_ref(), &[store], store.dims())
}

// ---------------------------------------------------------------------------
// Opening
// ---------------------------------------------------------------------------

fn read_u32(b: &[u8], off: usize) -> u32 {
    u32::from_ne_bytes(b[off..off + 4].try_into().expect("4 bytes"))
}

fn read_u64(b: &[u8], off: usize) -> u64 {
    u64::from_ne_bytes(b[off..off + 8].try_into().expect("8 bytes"))
}

/// Checked arithmetic over header-declared sizes: any overflow means the
/// header is corrupt, which must surface as a typed error rather than a
/// wrapped offset that reads out of bounds.
fn sec_add(a: u64, b: u64) -> Result<u64, SlabError> {
    a.checked_add(b)
        .ok_or_else(|| SlabError::Format("declared section sizes overflow".into()))
}

fn sec_mul(a: u64, b: u64) -> Result<u64, SlabError> {
    a.checked_mul(b)
        .ok_or_else(|| SlabError::Format("declared section sizes overflow".into()))
}

fn sec_align(off: u64) -> Result<u64, SlabError> {
    off.checked_next_multiple_of(SECTION_ALIGN)
        .ok_or_else(|| SlabError::Format("declared section sizes overflow".into()))
}

fn sec_usize(v: u64, what: &str) -> Result<usize, SlabError> {
    usize::try_from(v)
        .map_err(|_| SlabError::Format(format!("declared {what} too large for this platform")))
}

fn open_impl(path: &Path, delete_after_map: bool) -> Result<ColumnStore, SlabError> {
    let mut file = File::open(path)?;
    let mut header = [0u8; 40];
    file.read_exact(&mut header)
        .map_err(|_| SlabError::Format("file shorter than the slab header".into()))?;
    if header[..8] != SLAB_MAGIC {
        return Err(SlabError::Format("bad magic".into()));
    }
    let version = read_u32(&header, 8);
    if version != SLAB_VERSION {
        return Err(SlabError::Format(format!(
            "unsupported version {version} (expected {SLAB_VERSION})"
        )));
    }
    let kind = read_u32(&header, 12);
    let rows64 = read_u64(&header, 16);
    let dims64 = read_u64(&header, 24);
    let nnz64 = read_u64(&header, 32);

    if rows64 == 0 {
        return Ok(ColumnStore::empty());
    }

    // Validate the declared geometry against the *actual* file length,
    // in checked u64 arithmetic, before anything is mapped: a truncated
    // or corrupt slab must return a typed error, never an out-of-bounds
    // read through the mapping.
    let file_len = file.metadata()?.len();
    let need = |end: u64| -> Result<(), SlabError> {
        if end > file_len {
            Err(SlabError::Format(format!(
                "file is {file_len} bytes but the declared sections need {end}"
            )))
        } else {
            Ok(())
        }
    };
    let labels_off = SECTION_ALIGN;
    let labels_end = sec_add(labels_off, sec_mul(8, rows64)?)?;
    let (values_off, indptr_off, indices_off) = match kind {
        KIND_DENSE => {
            if nnz64 != sec_mul(rows64, dims64)? {
                return Err(SlabError::Format("dense nnz must equal rows × dims".into()));
            }
            let values_off = sec_align(labels_end)?;
            need(sec_add(values_off, sec_mul(8, nnz64)?)?)?;
            (values_off, 0, 0)
        }
        KIND_CSR => {
            let indptr_off = sec_align(labels_end)?;
            let indices_off = sec_align(sec_add(indptr_off, sec_mul(8, sec_add(rows64, 1)?)?)?)?;
            let values_off = sec_align(sec_add(indices_off, sec_mul(4, nnz64)?)?)?;
            need(sec_add(values_off, sec_mul(8, nnz64)?)?)?;
            (values_off, indptr_off, indices_off)
        }
        other => return Err(SlabError::Format(format!("unknown kind {other}"))),
    };
    let rows = sec_usize(rows64, "rows")?;
    let dims = sec_usize(dims64, "dims")?;
    let nnz = sec_usize(nnz64, "nnz")?;

    let map = Arc::new(MappedSlab::from_file(&mut file)?);
    drop(file);
    if delete_after_map {
        // On Unix the mapping keeps the pages alive after the unlink, so
        // spill files free their directory entry immediately; elsewhere the
        // bytes are already in memory.
        let _ = std::fs::remove_file(path);
    }

    match kind {
        KIND_DENSE => Ok(ColumnStore::from_mapped_dense(
            map,
            rows,
            dims,
            labels_off as usize,
            values_off as usize,
        )),
        KIND_CSR => {
            let store = ColumnStore::from_mapped_csr(
                map,
                rows,
                dims,
                nnz,
                labels_off as usize,
                indptr_off as usize,
                indices_off as usize,
                values_off as usize,
            );
            let (_, indptr, indices, ..) = store.as_csr().expect("just built CSR");
            if indptr[0] != 0
                || indptr[rows] != nnz as u64
                || indptr.windows(2).any(|w| w[0] > w[1])
            {
                return Err(SlabError::Format("indptr must ascend from 0 to nnz".into()));
            }
            if indices.iter().any(|&i| i as usize >= dims) {
                return Err(SlabError::Format("index out of the declared dims".into()));
            }
            Ok(store)
        }
        other => Err(SlabError::Format(format!("unknown kind {other}"))),
    }
}

/// Memory-map a slab file and serve it as a zero-copy [`ColumnStore`].
///
/// The file stays on disk (the mapping holds it open); every buffer of the
/// returned store borrows the mapping, shared by all clones and windows.
pub fn open_slab(path: impl AsRef<Path>) -> Result<ColumnStore, SlabError> {
    open_impl(path.as_ref(), false)
}

// ---------------------------------------------------------------------------
// Spilling
// ---------------------------------------------------------------------------

/// Counter making spill directories unique within the process.
static SPILL_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A fresh process-unique spill directory under the system temp dir.
pub fn fresh_spill_dir() -> PathBuf {
    let seq = SPILL_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("ml4all-spill-{}-{seq}", std::process::id()))
}

/// A [`ColumnarBuilder`] that never holds more than a budgeted number of
/// bytes in memory: rows stream in, bounded segments flush to slab files,
/// and [`SpillingBuilder::finish`] merges the segments into one mapped
/// slab. If the rows never exceed the budget, no file is written and the
/// result is a plain in-memory store — callers need not pre-classify
/// dataset sizes. Rows keep their push order in the merged result, so a
/// spilled ingestion is logically identical to an in-memory one.
#[derive(Debug)]
pub struct SpillingBuilder {
    dir: PathBuf,
    /// Flush the in-memory segment when it reaches this many bytes.
    flush_bytes: u64,
    builder: ColumnarBuilder,
    segments: Vec<PathBuf>,
}

impl SpillingBuilder {
    /// A builder spilling to a fresh directory under `dir` once the
    /// in-memory segment reaches a fraction of `budget_bytes`.
    pub fn new(dir: impl Into<PathBuf>, budget_bytes: u64) -> Result<Self, SlabError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            // A quarter of the budget per segment bounds peak usage at
            // segment + merge overhead well under the budget; the one-page
            // floor keeps degenerate budgets from flushing every row.
            flush_bytes: (budget_bytes / 4).max(4096),
            builder: ColumnarBuilder::new(),
            segments: Vec::new(),
        })
    }

    /// `true` once at least one segment has been flushed to disk.
    pub fn spilled(&self) -> bool {
        !self.segments.is_empty()
    }

    /// Append a dense row.
    pub fn push_dense(&mut self, label: f64, row: &[f64]) -> Result<(), SlabError> {
        self.builder.push_dense(label, row);
        self.maybe_flush()
    }

    /// Append a sparse row (strictly increasing indices).
    pub fn push_sparse(
        &mut self,
        label: f64,
        indices: &[u32],
        values: &[f64],
    ) -> Result<(), SlabError> {
        self.builder.push_sparse(label, indices, values)?;
        self.maybe_flush()
    }

    fn maybe_flush(&mut self) -> Result<(), SlabError> {
        if self.builder.approx_bytes() >= self.flush_bytes {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Result<(), SlabError> {
        let store = std::mem::take(&mut self.builder).finish();
        if store.is_empty() {
            return Ok(());
        }
        let path = self.dir.join(format!("seg-{}.slab", self.segments.len()));
        write_slab(&path, &store)?;
        self.segments.push(path);
        Ok(())
    }

    /// Finish, widening CSR output to at least `dims`. Returns an owned
    /// in-memory store when nothing spilled, otherwise merges every
    /// segment into one slab file, memory-maps it, and unlinks it (the
    /// mapping keeps the pages alive). The spill directory is removed
    /// either way — by the `Drop` impl once `self` goes out of scope.
    pub fn finish(mut self, dims: usize) -> Result<ColumnStore, SlabError> {
        if self.segments.is_empty() {
            return Ok(std::mem::take(&mut self.builder).finish_with_dims(dims));
        }
        self.flush()?;
        let opened: Vec<ColumnStore> = self
            .segments
            .iter()
            .map(open_slab)
            .collect::<Result<_, _>>()?;
        let parts: Vec<&ColumnStore> = opened.iter().collect();
        let merged_path = self.dir.join("merged.slab");
        write_concatenated(&merged_path, &parts, dims)?;
        drop(opened);
        open_impl(&merged_path, true)
    }
}

impl Drop for SpillingBuilder {
    /// Best-effort removal of the spill directory and anything left in
    /// it: segments (already merged or orphaned by an error) and, off
    /// unix, a merged slab that was copied rather than unlinked-while-
    /// mapped. The directory is process-private and uniquely named, so
    /// removing it wholesale can never race another builder.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::ColumnarBuilder;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ml4all-slab-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn dense_store(rows: usize, dims: usize) -> ColumnStore {
        let mut b = ColumnarBuilder::with_dense_capacity(rows, dims);
        for i in 0..rows {
            let row: Vec<f64> = (0..dims).map(|j| (i * dims + j) as f64 * 0.5).collect();
            b.push_dense(if i % 2 == 0 { 1.0 } else { -1.0 }, &row);
        }
        b.finish()
    }

    fn csr_store(rows: usize, dim: usize) -> ColumnStore {
        let mut b = ColumnarBuilder::new();
        for i in 0..rows {
            // Ragged nnz, including an empty row every 7th.
            let nnz = if i % 7 == 0 { 0 } else { 1 + i % 3 };
            let idx: Vec<u32> = (0..nnz).map(|k| ((i + k * 3) % dim) as u32).collect();
            let mut idx = idx;
            idx.sort_unstable();
            idx.dedup();
            let vals: Vec<f64> = idx
                .iter()
                .map(|&j| (i as f64) + f64::from(j) * 0.25)
                .collect();
            b.push_sparse(if i % 2 == 0 { 1.0 } else { -1.0 }, &idx, &vals)
                .unwrap();
        }
        b.finish_with_dims(dim)
    }

    #[test]
    fn dense_slab_round_trips_bitwise() {
        let dir = tmp("dense-rt");
        let store = dense_store(100, 7);
        let path = dir.join("d.slab");
        write_slab(&path, &store).unwrap();
        let mapped = open_slab(&path).unwrap();
        assert!(mapped.is_mapped());
        assert_eq!(mapped.len(), store.len());
        assert_eq!(mapped.dims(), store.dims());
        assert_eq!(mapped.to_points(), store.to_points());
        let (a, av, _) = store.as_dense().unwrap();
        let (b, bv, _) = mapped.as_dense().unwrap();
        assert_eq!(as_bytes(a), as_bytes(b));
        assert_eq!(as_bytes(av), as_bytes(bv));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csr_slab_round_trips_bitwise() {
        let dir = tmp("csr-rt");
        let store = csr_store(120, 11);
        let path = dir.join("c.slab");
        write_slab(&path, &store).unwrap();
        let mapped = open_slab(&path).unwrap();
        assert!(mapped.is_mapped());
        assert_eq!(mapped.dims(), 11);
        assert_eq!(mapped.total_nnz(), store.total_nnz());
        assert_eq!(mapped.to_points(), store.to_points());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn open_rejects_corrupt_files() {
        let dir = tmp("corrupt");
        let path = dir.join("x.slab");
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(open_slab(&path), Err(SlabError::Format(_))));
        std::fs::write(&path, [0u8; 64]).unwrap();
        assert!(matches!(open_slab(&path), Err(SlabError::Format(_))));
        // Valid header, truncated body.
        let store = dense_store(50, 5);
        write_slab(&path, &store).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 64]).unwrap();
        assert!(matches!(open_slab(&path), Err(SlabError::Format(_))));
        // Bad version.
        let mut bad = full.clone();
        bad[8] = 99;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(open_slab(&path), Err(SlabError::Format(_))));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn spilling_builder_stays_in_memory_under_budget() {
        let dir = fresh_spill_dir();
        let sb = {
            let mut sb = SpillingBuilder::new(&dir, 1 << 30).unwrap();
            for i in 0..100 {
                sb.push_dense(1.0, &[i as f64, 1.0]).unwrap();
            }
            sb
        };
        assert!(!sb.spilled());
        assert!(dir.is_dir());
        let store = sb.finish(0).unwrap();
        assert!(!store.is_mapped());
        assert_eq!(store.len(), 100);
        // The no-spill path must not leak its (empty) spill directory.
        assert!(!dir.exists(), "spill dir {dir:?} leaked");
    }

    #[test]
    fn dropped_builder_cleans_its_spill_directory() {
        // Abandoning a builder mid-ingestion (e.g. a parse error upstream)
        // must remove the directory and any flushed segments.
        let dir = fresh_spill_dir();
        {
            let mut sb = SpillingBuilder::new(&dir, 0).unwrap();
            for i in 0..200 {
                sb.push_dense(1.0, &[i as f64, 1.0]).unwrap();
            }
            assert!(sb.spilled());
            assert!(dir.is_dir());
        }
        assert!(!dir.exists(), "spill dir {dir:?} leaked after drop");
    }

    #[test]
    fn spilled_dense_ingestion_matches_in_memory_builder() {
        // A tiny budget forces several segments; the merged mapped store
        // must hold exactly the rows the in-memory builder would.
        let mut sb = SpillingBuilder::new(fresh_spill_dir(), 0).unwrap();
        let mut b = ColumnarBuilder::new();
        let mut row = [0.0f64; 64];
        for i in 0..2000 {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (i * 64 + j) as f64 * 0.125;
            }
            sb.push_dense(-1.0, &row).unwrap();
            b.push_dense(-1.0, &row);
        }
        assert!(sb.spilled());
        let mapped = sb.finish(0).unwrap();
        let owned = b.finish();
        assert!(mapped.is_mapped());
        assert_eq!(mapped.len(), 2000);
        let (ml, mv, md) = mapped.as_dense().unwrap();
        let (ol, ov, od) = owned.as_dense().unwrap();
        assert_eq!(md, od);
        assert_eq!(as_bytes(ml), as_bytes(ol));
        assert_eq!(as_bytes(mv), as_bytes(ov));
    }

    #[test]
    fn spilled_sparse_ingestion_matches_in_memory_builder() {
        let mut sb = SpillingBuilder::new(fresh_spill_dir(), 0).unwrap();
        let mut b = ColumnarBuilder::new();
        for i in 0..3000usize {
            let idx = [(i % 20) as u32, 20 + (i % 30) as u32];
            let vals = [i as f64, -(i as f64)];
            sb.push_sparse(1.0, &idx, &vals).unwrap();
            b.push_sparse(1.0, &idx, &vals).unwrap();
        }
        assert!(sb.spilled());
        let mapped = sb.finish(64).unwrap();
        let owned = b.finish_with_dims(64);
        assert!(mapped.is_mapped());
        assert_eq!(mapped.dims(), 64);
        assert_eq!(mapped.total_nnz(), owned.total_nnz());
        assert_eq!(mapped.to_points(), owned.to_points());
    }

    #[test]
    fn mixed_segments_merge_as_csr_like_the_builder_upgrade() {
        // Dense rows then sparse rows: the in-memory builder upgrades to
        // CSR; a spilled ingestion crossing a segment boundary must land on
        // the same logical rows.
        let mut sb = SpillingBuilder::new(fresh_spill_dir(), 0).unwrap();
        let mut b = ColumnarBuilder::new();
        for i in 0..1500usize {
            if i < 700 {
                let row = [i as f64, 1.0, 2.0];
                sb.push_dense(1.0, &row).unwrap();
                b.push_dense(1.0, &row);
            } else {
                let idx = [2u32];
                let vals = [i as f64];
                sb.push_sparse(-1.0, &idx, &vals).unwrap();
                b.push_sparse(-1.0, &idx, &vals).unwrap();
            }
        }
        let mapped = sb.finish(0).unwrap();
        let owned = b.finish();
        assert!(mapped.as_csr().is_some());
        assert_eq!(mapped.to_points(), owned.to_points());
    }

    #[test]
    fn empty_rows_slab_serves_empty_store() {
        let dir = tmp("empty");
        let path = dir.join("e.slab");
        write_slab(&path, &ColumnStore::empty()).unwrap();
        let store = open_slab(&path).unwrap();
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }
}
