//! Speculation keeps Algorithm 1's fit as it runs and records no raw error
//! sequence: estimating BGD, SGD and MGD on a 1 000-row, 20-feature sample
//! makes no single allocation request of 64 KiB or more, where a recorded
//! sequence would reserve 8 192 `(iteration, delta)` pairs (128 KiB) per
//! run.
//!
//! One `#[test]` only: the counters are process-wide, and the harness runs
//! tests of one binary on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use ml4all_core::estimator::{estimate_on_sample, SpeculationConfig};
use ml4all_dataflow::{ClusterSpec, ColumnStore, PartitionScheme, PartitionedDataset};
use ml4all_gd::{GdVariant, GradientKind, TrainParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Requests (`alloc`, `alloc_zeroed`, `realloc`) of at least [`LARGE`]
/// bytes.
static LARGE_REQUESTS: AtomicU64 = AtomicU64::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);

struct Counting;

impl Counting {
    fn count(size: usize) {
        if size >= LARGE.load(Ordering::Relaxed) {
            LARGE_REQUESTS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
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

const ROWS: usize = 1_000;
const DIMS: usize = 20;

/// A linearly separable sample `D′`: the speculation sample's shape.
fn sample() -> PartitionedDataset {
    let mut rng = StdRng::seed_from_u64(11);
    let points: ColumnStore = (0..ROWS)
        .map(|_| {
            let x: [f64; DIMS] = std::array::from_fn(|_| rng.gen_range(-1.0..1.0));
            let label = if x[0] + x[1] > 0.0 { 1.0 } else { -1.0 };
            (label, x)
        })
        .collect();
    PartitionedDataset::from_columns(
        "speculation",
        &points,
        PartitionScheme::RoundRobin,
        &ClusterSpec::paper_testbed(),
    )
    .unwrap()
}

#[test]
fn speculation_makes_no_large_request() {
    let sample = sample();
    let cluster = ClusterSpec::paper_testbed();
    let config = SpeculationConfig::default();
    // The defaults ask the executor to record the error sequence; the
    // estimator must not.
    let params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
    assert!(params.record_error_seq);
    LARGE.store(64 << 10, Ordering::Relaxed);
    for variant in [
        GdVariant::Batch,
        GdVariant::Stochastic,
        GdVariant::MiniBatch { batch: 50 },
    ] {
        let before = LARGE_REQUESTS.load(Ordering::Relaxed);
        let estimate =
            estimate_on_sample(&sample, variant, &params, 1e-3, &config, &cluster).unwrap();
        let large = LARGE_REQUESTS.load(Ordering::Relaxed) - before;
        assert!(estimate.speculation_iterations > 1, "{variant:?}");
        assert_eq!(large, 0, "{variant:?}: {large} requests of 64 KiB or more");
    }
    LARGE.store(usize::MAX, Ordering::Relaxed);
}
