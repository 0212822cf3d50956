//! Reading and scoring with a bound model copies no weights:
//! `Engine::model` hands out the registry's shared model, and
//! `Engine::predict` by name scores with it and streams the labels off
//! their columns, so neither requests a block the size of the model; and
//! `Model::load` parses the file off one buffer, so the allocations it
//! makes do not grow with the model's width.
//!
//! One `#[test]` only: the counters are process-wide, and the harness runs
//! tests of one binary on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ml4all::{
    DataSource, Engine, GdVariant, GradientKind, Model, PredictRequest, SamplingMethod,
    TrainRequest,
};
use ml4all_core::estimator::SpeculationConfig;
use ml4all_dataflow::{ClusterSpec, ColumnarBuilder, PartitionScheme, PartitionedDataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Requests (`alloc`, `alloc_zeroed`, `realloc`) of any size.
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

/// Wider than the test set is long, so the predictions (one `f64` a row)
/// stay below a model-sized request.
const DIMS: usize = 20_000;
const ROWS: usize = 400;

/// Sparse rows, dealt round-robin over several partitions so the labels
/// stream interleaved.
fn wide_rows() -> PartitionedDataset {
    let mut rng = StdRng::seed_from_u64(5);
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
    let spec = ClusterSpec {
        partition_bytes: 16 * 1024,
        ..ClusterSpec::paper_testbed()
    };
    let data = PartitionedDataset::from_columns(
        "wide",
        &rows.finish_with_dims(DIMS),
        PartitionScheme::RoundRobin,
        &spec,
    )
    .unwrap();
    assert!(data.num_partitions() > 1);
    data
}

/// Requests `f` makes, as `counter` counts them: the least of three
/// calls, because the counters are process-wide and a stray request only
/// ever adds.
fn requests(counter: &AtomicU64, mut f: impl FnMut()) -> u64 {
    (0..3)
        .map(|_| {
            let before = counter.load(Ordering::Relaxed);
            f();
            counter.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("three calls")
}

#[test]
fn reading_and_scoring_a_bound_model_copy_no_weights() {
    let engine = Engine::new().with_speculation(SpeculationConfig {
        max_iterations: 20,
        ..SpeculationConfig::default()
    });
    engine.register_dataset("wide", wide_rows());
    let trained = engine
        .train(
            TrainRequest::new(
                GradientKind::LogisticRegression,
                DataSource::registered("wide"),
            )
            .algorithm(GdVariant::Stochastic)
            .sampler(SamplingMethod::RandomPartition)
            .max_iter(20)
            .named("m"),
        )
        .unwrap();
    let bound = engine.model("m").expect("bound model");
    assert!(Arc::ptr_eq(&bound, &trained.model), "one shared model");
    assert_eq!(bound.weights.dim(), DIMS);

    LARGE.store(DIMS * 8, Ordering::Relaxed);
    let model = requests(&LARGE_REQUESTS, || {
        assert!(engine.model("m").is_some());
    });
    let predict = requests(&LARGE_REQUESTS, || {
        let scored = engine
            .predict(PredictRequest::new(DataSource::registered("wide"), "m"))
            .unwrap();
        assert_eq!(scored.predictions.len(), ROWS);
    });
    LARGE.store(usize::MAX, Ordering::Relaxed);
    assert_eq!(model, 0, "Engine::model copied the weights");
    assert_eq!(predict, 0, "Engine::predict made a model-sized request");

    // Loading the wide model makes as many requests as loading a narrow
    // one: no per-weight line buffer.
    let file = |tag: &str| {
        std::env::temp_dir().join(format!("ml4all-alloc-{}-{tag}.txt", std::process::id()))
    };
    let (wide, narrow) = (file("wide"), file("narrow"));
    bound.save(&wide).unwrap();
    let small = Model::new(
        bound.gradient,
        bound.weights.as_slice()[..20].to_vec().into(),
    );
    small.save(&narrow).unwrap();
    let load = |path: &std::path::Path, dims: usize| {
        requests(&REQUESTS, || {
            assert_eq!(Model::load(path).unwrap().weights.dim(), dims);
        })
    };
    let (wide_loads, narrow_loads) = (load(&wide, DIMS), load(&narrow, 20));
    let _ = std::fs::remove_file(wide);
    let _ = std::fs::remove_file(narrow);
    assert_eq!(
        wide_loads, narrow_loads,
        "Model::load allocates per weight: {wide_loads} requests at d = {DIMS}, \
         {narrow_loads} at d = 20"
    );
}
