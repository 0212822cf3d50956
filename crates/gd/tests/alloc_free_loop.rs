//! The steady-state training loop allocates nothing per iteration: under a
//! counting global allocator, doubling `max_iter` adds no allocation
//! request at all, at 1, 2 and 4 workers — lazily transformed units
//! included, which are written to one reused buffer. The multi-partition
//! sets send every batch wave across the pool.
//!
//! One `#[test]` only: the counters are process-wide, and the harness runs
//! tests of one binary on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ml4all_dataflow::{
    ClusterSpec, ColumnarBuilder, DatasetDescriptor, PartitionScheme, PartitionedDataset, Runtime,
    SamplingMethod, SimEnv,
};
use ml4all_gd::executor::{execute, reference_operators, ExecHooks};
use ml4all_gd::operators::{MeanCenterTransform, StatsStage};
use ml4all_gd::{GdPlan, GradientKind, TrainParams, TransformPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every allocation request (`alloc`, `alloc_zeroed`, `realloc`).
static REQUESTS: AtomicU64 = AtomicU64::new(0);
/// Requests of at least [`LARGE`] bytes.
static LARGE_REQUESTS: AtomicU64 = AtomicU64::new(0);
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);

struct Counting;

impl Counting {
    fn count(size: usize) {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        if size >= LARGE.load(Ordering::Relaxed) {
            LARGE_REQUESTS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics.
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

const ROWS: usize = 2048;
const DENSE_DIMS: usize = 64;
const CSR_DIMS: usize = 4096;

/// `ROWS` rows dealt round-robin into `partitions` equal partitions.
fn dataset(dims: usize, sparse: bool, partitions: u64) -> PartitionedDataset {
    let mut rng = StdRng::seed_from_u64(1);
    let mut rows = ColumnarBuilder::new();
    for _ in 0..ROWS {
        let label = if rng.gen_range(0.0..1.0) < 0.5 {
            -1.0
        } else {
            1.0
        };
        if sparse {
            let mut idx: Vec<u32> = (0..6).map(|_| rng.gen_range(0..dims as u32)).collect();
            idx.sort_unstable();
            idx.dedup();
            let vals: Vec<f64> = idx.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
            rows.push_sparse(label, &idx, &vals).unwrap();
        } else {
            let xs: Vec<f64> = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
            rows.push_dense(label, &xs);
        }
    }
    let rows = rows.finish_with_dims(dims);
    let spec = ClusterSpec {
        partition_bytes: DatasetDescriptor::from_columns("alloc", &rows)
            .bytes
            .div_ceil(partitions),
        ..ClusterSpec::paper_testbed()
    };
    let data = PartitionedDataset::from_columns("alloc", &rows, PartitionScheme::RoundRobin, &spec)
        .unwrap();
    assert_eq!(data.num_partitions() as u64, partitions);
    data
}

/// `(all requests, model-sized requests)` of one whole run: the least of
/// three, because the counters are process-wide and the test harness's
/// own threads allocate now and then. A stray request only ever adds; an
/// allocation per iteration is in all three.
fn requests(
    plan: &Plan,
    data: &PartitionedDataset,
    runtime: &Arc<Runtime>,
    max_iter: u64,
) -> (u64, u64) {
    let runs = [(); 3].map(|()| requests_once(plan, data, runtime, max_iter));
    (
        runs.iter().map(|r| r.0).min().expect("three runs"),
        runs.iter().map(|r| r.1).min().expect("three runs"),
    )
}

/// A plan, and whether its units are mean-centered: a lazy `Transform`
/// (after a `Stage` that scans for the means) rewrites every unit it
/// hands to `Compute`.
type Plan = (GdPlan, bool);

fn requests_once(
    (plan, centered): &Plan,
    data: &PartitionedDataset,
    runtime: &Arc<Runtime>,
    max_iter: u64,
) -> (u64, u64) {
    let mut params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
    params.tolerance = 0.0;
    params.max_iter = max_iter;
    params.record_error_seq = false;
    let dims = data.descriptor().dims;
    let mut ops = reference_operators(plan, &params, dims);
    if *centered {
        ops.transform = Box::new(MeanCenterTransform);
        ops.stage = Box::new(StatsStage { dims });
    }
    let mut env = SimEnv::with_runtime(ClusterSpec::paper_testbed(), Arc::clone(runtime));
    let before = (
        REQUESTS.load(Ordering::Relaxed),
        LARGE_REQUESTS.load(Ordering::Relaxed),
    );
    let result = execute(plan, data, &ops, &params, &mut env, &ExecHooks::default()).unwrap();
    let after = (
        REQUESTS.load(Ordering::Relaxed),
        LARGE_REQUESTS.load(Ordering::Relaxed),
    );
    assert_eq!(result.iterations, max_iter);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn doubling_the_iterations_adds_no_allocation() {
    // Shuffled sampling on one partition serves every run below from its
    // first shuffle (at most 32 × 40 of its 2 048 rows); on equal
    // partitions a reshuffle never needs a larger order buffer — the
    // loop's one documented allocation site.
    let shuffled = SamplingMethod::ShuffledPartition;
    let lazy_sgd = GdPlan::sgd(TransformPolicy::Lazy, shuffled).unwrap();
    let lazy_mgd = GdPlan::mgd(32, TransformPolicy::Lazy, shuffled).unwrap();
    let plans: [(&str, Plan); 7] = [
        ("bgd", (GdPlan::bgd(), false)),
        (
            "mgd-32",
            (
                GdPlan::mgd(32, TransformPolicy::Eager, shuffled).unwrap(),
                false,
            ),
        ),
        (
            "mgd-32-bernoulli",
            (
                GdPlan::mgd(32, TransformPolicy::Eager, SamplingMethod::Bernoulli).unwrap(),
                false,
            ),
        ),
        ("sgd", (lazy_sgd, false)),
        (
            "sgd-random",
            (
                GdPlan::sgd(TransformPolicy::Eager, SamplingMethod::RandomPartition).unwrap(),
                false,
            ),
        ),
        ("sgd-centered", (lazy_sgd, true)),
        ("mgd-32-centered", (lazy_mgd, true)),
    ];
    for (store, dims, sparse) in [("dense", DENSE_DIMS, false), ("csr", CSR_DIMS, true)] {
        for partitions in [1, 4] {
            let data = dataset(dims, sparse, partitions);
            LARGE.store(dims * 8, Ordering::Relaxed);
            for workers in [1usize, 2, 4] {
                let runtime = Arc::new(Runtime::new(workers));
                for (name, plan) in &plans {
                    let label = format!(
                        "{name} on {store} rows in {partitions} partitions at {workers} workers"
                    );
                    // Once-per-process set-up (kernel dispatch, thread
                    // start) happens in a run of its own.
                    requests_once(plan, &data, &runtime, 1);
                    let (all_short, large_short) = requests(plan, &data, &runtime, 20);
                    let (all_long, large_long) = requests(plan, &data, &runtime, 40);
                    assert_eq!(
                        large_long, large_short,
                        "{label}: model-sized requests grew with the iteration count"
                    );
                    assert_eq!(
                        all_long, all_short,
                        "{label}: the loop allocated per iteration"
                    );
                }
            }
            LARGE.store(usize::MAX, Ordering::Relaxed);
        }
    }
}
