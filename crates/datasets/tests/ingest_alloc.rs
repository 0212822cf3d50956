//! The file readers size each column from the file: reading a file of
//! known length requests its columns about once, not through a doubling
//! chain that requests about twice the final column in all.
//!
//! One `#[test]` only: the counters are process-wide, and the harness runs
//! tests of one binary on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use ml4all_dataflow::ColumnStore;
use ml4all_datasets::{csv, libsvm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes asked for by every request (`alloc`, `alloc_zeroed`, `realloc`).
static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: usize = 2_500;
const DIMS: usize = 50;

/// The same random rows as dense CSV and as LIBSVM text.
fn texts() -> (String, String) {
    let mut rng = StdRng::seed_from_u64(9);
    let (mut csv, mut libsvm) = (String::new(), String::new());
    for _ in 0..ROWS {
        let label = if rng.gen_range(0.0..1.0) < 0.5 { -1 } else { 1 };
        write!(csv, "{label}").unwrap();
        write!(libsvm, "{label}").unwrap();
        for i in 1..=DIMS {
            let x: f64 = rng.gen_range(-1.0..1.0);
            write!(csv, ",{x}").unwrap();
            write!(libsvm, " {i}:{x}").unwrap();
        }
        csv.push('\n');
        libsvm.push('\n');
    }
    (csv, libsvm)
}

/// Bytes `read` requests: the least of three reads, because the counter
/// is process-wide and a stray request only ever adds.
fn requested(read: impl Fn() -> ColumnStore) -> (u64, ColumnStore) {
    let mut least = u64::MAX;
    let mut store = ColumnStore::empty();
    for _ in 0..3 {
        let before = REQUESTED.load(Ordering::Relaxed);
        store = read();
        least = least.min(REQUESTED.load(Ordering::Relaxed) - before);
    }
    (least, store)
}

#[test]
fn file_readers_size_their_columns_from_the_file() {
    let dir = std::env::temp_dir().join(format!("ml4all-ingest-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (csv_text, libsvm_text) = texts();
    let (csv_path, libsvm_path) = (dir.join("rows.csv"), dir.join("rows.libsvm"));
    std::fs::write(&csv_path, csv_text).unwrap();
    std::fs::write(&libsvm_path, libsvm_text).unwrap();

    let (csv_bytes, dense) = requested(|| csv::read_csv_file_columns(&csv_path, None).unwrap());
    let (labels, values, dims) = dense.as_dense().expect("a dense slab");
    assert_eq!((labels.len(), dims), (ROWS, DIMS));
    let value_column = std::mem::size_of_val(values) as u64;
    assert!(
        csv_bytes * 4 <= value_column * 5,
        "CSV: {csv_bytes} bytes requested for a {value_column}-byte value column"
    );

    let (libsvm_bytes, sparse) =
        requested(|| libsvm::read_libsvm_file_columns(&libsvm_path, None).unwrap());
    let (labels, indptr, indices, values, dim) = sparse.as_csr().expect("a CSR store");
    assert_eq!((labels.len(), values.len(), dim), (ROWS, ROWS * DIMS, DIMS));
    let columns = [
        std::mem::size_of_val(labels),
        std::mem::size_of_val(indptr),
        std::mem::size_of_val(indices),
        std::mem::size_of_val(values),
    ]
    .iter()
    .sum::<usize>() as u64;
    assert!(
        libsvm_bytes * 4 <= columns * 5,
        "LIBSVM: {libsvm_bytes} bytes requested for {columns} bytes of columns"
    );
    let _ = std::fs::remove_dir_all(dir);
}
