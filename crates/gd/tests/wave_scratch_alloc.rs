//! A run allocates model-wide state only for what its plan uses: the
//! per-partition batch accumulators exist from the first batch wave on, so
//! a sampled run on four partitions requests no more model-sized blocks
//! than on one, and a batch run exactly one more per added partition.
//!
//! One `#[test]` only: the counters are process-wide, and the harness runs
//! tests of one binary on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ml4all_dataflow::{
    ClusterSpec, ColumnStore, ColumnarBuilder, DatasetDescriptor, PartitionScheme,
    PartitionedDataset, Runtime, SamplingMethod, SimEnv,
};
use ml4all_gd::executor::{execute, reference_operators, ExecHooks};
use ml4all_gd::{GdPlan, GradientKind, TrainParams, TransformPolicy};
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

/// Wide enough that no request but a model-sized one reaches `DIMS × 8`
/// bytes: the rows, the samplers' buffers and the ledger are all smaller.
const DIMS: usize = 20_000;
const ROWS: usize = 1_000;

fn rows() -> ColumnStore {
    let mut rng = StdRng::seed_from_u64(3);
    let mut rows = ColumnarBuilder::new();
    for _ in 0..ROWS {
        let label = if rng.gen_range(0.0..1.0) < 0.5 {
            -1.0
        } else {
            1.0
        };
        let mut idx: Vec<u32> = (0..8).map(|_| rng.gen_range(0..DIMS as u32)).collect();
        idx.sort_unstable();
        idx.dedup();
        let vals: Vec<f64> = idx.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
        rows.push_sparse(label, &idx, &vals).unwrap();
    }
    rows.finish_with_dims(DIMS)
}

/// The rows dealt round-robin into `partitions` partitions.
fn dataset(rows: &ColumnStore, partitions: u64) -> PartitionedDataset {
    let bytes = DatasetDescriptor::from_columns("wide", rows).bytes;
    let spec = ClusterSpec {
        partition_bytes: bytes.div_ceil(partitions),
        ..ClusterSpec::paper_testbed()
    };
    let data =
        PartitionedDataset::from_columns("wide", rows, PartitionScheme::RoundRobin, &spec).unwrap();
    assert_eq!(data.num_partitions() as u64, partitions);
    data
}

/// Model-sized requests of one five-iteration run: the least of three,
/// because the counter is process-wide and a stray request only ever adds.
fn large_requests(plan: &GdPlan, data: &PartitionedDataset, runtime: &Arc<Runtime>) -> u64 {
    let mut params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
    params.tolerance = 0.0;
    params.max_iter = 5;
    params.record_error_seq = false;
    let ops = reference_operators(plan, &params, DIMS);
    (0..3)
        .map(|_| {
            let mut env = SimEnv::with_runtime(ClusterSpec::paper_testbed(), Arc::clone(runtime));
            let before = LARGE_REQUESTS.load(Ordering::Relaxed);
            let result =
                execute(plan, data, &ops, &params, &mut env, &ExecHooks::default()).unwrap();
            let after = LARGE_REQUESTS.load(Ordering::Relaxed);
            assert_eq!(result.iterations, 5);
            after - before
        })
        .min()
        .expect("three runs")
}

#[test]
fn only_batch_waves_allocate_per_partition_accumulators() {
    let rows = rows();
    let (one, four) = (dataset(&rows, 1), dataset(&rows, 4));
    let runtime = Arc::new(Runtime::new(1));
    let sampled = [
        GdPlan::sgd(TransformPolicy::Eager, SamplingMethod::RandomPartition).unwrap(),
        GdPlan::sgd(TransformPolicy::Lazy, SamplingMethod::ShuffledPartition).unwrap(),
        GdPlan::mgd(32, TransformPolicy::Eager, SamplingMethod::Bernoulli).unwrap(),
        GdPlan::mgd(
            32,
            TransformPolicy::Eager,
            SamplingMethod::ShuffledPartition,
        )
        .unwrap(),
    ];
    LARGE.store(DIMS * 8, Ordering::Relaxed);
    for plan in &sampled {
        let (on_one, on_four) = (
            large_requests(plan, &one, &runtime),
            large_requests(plan, &four, &runtime),
        );
        assert!(
            on_four <= on_one,
            "{plan:?}: {on_four} model-sized requests on four partitions, {on_one} on one"
        );
    }
    let bgd = GdPlan::bgd();
    let (on_one, on_four) = (
        large_requests(&bgd, &one, &runtime),
        large_requests(&bgd, &four, &runtime),
    );
    assert_eq!(
        on_four,
        on_one + 3,
        "BGD: one accumulator per added partition"
    );
    LARGE.store(usize::MAX, Ordering::Relaxed);
}
