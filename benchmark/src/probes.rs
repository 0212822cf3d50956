//! Fixed-work probes of every layer, run by the traced run.
//!
//! Each probe times calls into one crate's public functions from outside
//! and reports the median of [`SAMPLES`] samples. Inputs come from
//! [`PROBE_SEED`], never from `--seed`: a probe does the same work in
//! every run of every workload, so its numbers compare across runs and
//! commits. The README maps each metric to the end-to-end metric and
//! workload it should move.

use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use ml4all::{DataSource, Engine, ExplainRequest, GradientKind, Model, TrainRequest};
use ml4all_calibrate::{Calibrator, CalibratorConfig, JobObservation};
use ml4all_core::calibration::plan_feature_key;
use ml4all_core::chooser::{choose_plan, OptimizerConfig};
use ml4all_core::estimator::{estimate_iterations, SpeculationConfig};
use ml4all_core::plancache::{PlanCache, PlanCacheKey};
use ml4all_dataflow::checkpoint::{encode_checkpoint, read_checkpoint, write_checkpoint};
use ml4all_dataflow::{
    open_slab, write_slab, Checkpoint, ClusterSpec, ExecState, PartitionScheme, PartitionedDataset,
    Runtime, SamplerState, SamplingMethod, SimEnv, RNG_STREAM_VERSION,
};
use ml4all_datasets::registry::{self, Task};
use ml4all_datasets::source::{read_data_file_with_budget, FileFormat};
use ml4all_datasets::{csv, libsvm, SharedResolver};
use ml4all_gd::{execute_plan, GdPlan, GdVariant, TrainParams};
use ml4all_linalg::{simd, DenseVector};
use ml4all_serve::admission::{Admission, TenantQuota};
use ml4all_serve::protocol::{encode_frame, encode_weights};
use ml4all_serve::{Client, Payload, Request, Response, ServeConfig, Server, WireTrained};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::floor::{scalar_dot_pass, FloorBlock};
use crate::gen::{self, CSV_SHAPE, DENSE_SHAPE, SPARSE_SHAPE};
use crate::replay::{
    decode_request, ENGINE_REGISTRY_CAP as REGISTRY_CAP, ENGINE_REGISTRY_SEED as REGISTRY_SEED,
};
use crate::serve_hot::{ServeHot, JOBS_PER_CYCLE};
use crate::spec::Metrics;
use crate::stats::median;
use crate::trace::{median_duration, Recorder};
use crate::train::{self, Train};
use crate::workload::{ClientOut, Error, System};

/// Samples behind every reported median.
const SAMPLES: usize = 15;
/// Seed of every probe input.
const PROBE_SEED: u64 = 0x0B5E_55ED;
/// Rows and iteration cap of the chooser-regret probe: small enough that
/// 11 plans × 3 datasets × 15 samples fit a traced run.
const REGRET_ROWS: usize = 600;
const REGRET_MAX_ITER: u64 = 200;
/// Speculative iterations a cold-choice probe may spend per variant (the
/// default cap of 100 000 costs seconds on a 47 000-wide model).
const CHOOSE_SPECULATION_CAP: u64 = 500;
/// Bytes the streaming kernel probe scans (the memory-bound case no gated
/// workload carries).
const STREAM_BYTES: usize = 64 << 20;

/// Median of [`SAMPLES`] values of `sample`.
fn med(mut sample: impl FnMut() -> f64) -> f64 {
    let values: Vec<f64> = (0..SAMPLES).map(|_| sample()).collect();
    median(&values)
}

/// Fallible [`med`].
fn try_med(mut sample: impl FnMut() -> Result<f64, Error>) -> Result<f64, Error> {
    let mut values = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        values.push(sample()?);
    }
    Ok(median(&values))
}

/// Seconds per call of `f`, `reps` calls timed together.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

/// Fallible [`per_call`]: the first error any call returned.
fn try_per_call<E: Into<Error>>(
    reps: usize,
    mut f: impl FnMut() -> Result<(), E>,
) -> Result<f64, Error> {
    let mut failed = None;
    let seconds = per_call(reps, || {
        if let Err(e) = f() {
            failed.get_or_insert(e);
        }
    });
    failed.map_or(Ok(seconds), |e| Err(e.into()))
}

/// Seconds one call of `f` takes, with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Run every probe and record its metric.
pub fn run(metrics: &mut Metrics, block: &FloorBlock, scratch: &Path) -> Result<(), Error> {
    let dir = scratch.join("probes");
    std::fs::create_dir_all(&dir)?;
    let hot = ServeHot::generate(PROBE_SEED)?;
    type Phase<'a> = &'a dyn Fn(&mut Metrics) -> Result<(), Error>;
    let phases: [(&str, Phase<'_>); 9] = [
        ("runtime", &runtime),
        ("linalg", &|m| linalg(m, block)),
        ("dataflow", &|m| dataflow(m, &dir)),
        ("gd", &|m| gd(m, &hot)),
        ("core", &core),
        ("calibrate", &calibrate),
        ("datasets", &|m| datasets(m, &dir)),
        ("ml4all", &|m| ml4all_layer(m, &hot, &dir)),
        ("serve", &|m| serve(m, &hot)),
    ];
    for (layer, phase) in phases {
        phase(metrics).map_err(|e| format!("{layer} probes: {e}"))?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn runtime(metrics: &mut Metrics) -> Result<(), Error> {
    let rt = Runtime::global();
    let mut slots = [0u64; 4];
    metrics.set(
        "runtime.scatter_overhead_us",
        med(|| {
            per_call(200, || {
                rt.scatter_indexed(&mut slots, |i, s| *s += i as u64)
            })
        }) * 1e6,
    );
    std::hint::black_box(slots);
    // From `spawn` returning to the job's first instruction on a worker.
    let (tx, rx) = mpsc::channel::<Instant>();
    let spawn_to_start = try_med(|| {
        let mut total = 0.0;
        for _ in 0..20 {
            let tx = tx.clone();
            let spawned = Instant::now();
            rt.spawn(move || {
                let _ = tx.send(Instant::now());
            });
            let started = rx.recv()?;
            total += started.saturating_duration_since(spawned).as_secs_f64();
        }
        Ok(total / 20.0)
    })?;
    metrics.set("runtime.spawn_to_start_us", spawn_to_start * 1e6);
    Ok(())
}

fn linalg(metrics: &mut Metrics, block: &FloorBlock) -> Result<(), Error> {
    let dims = FloorBlock::dims();
    let rows = block.rows();
    let n = rows.len() / dims;
    let w: Vec<f64> = (0..dims).map(|j| 0.01 * j as f64 - 0.2).collect();
    const PASSES: usize = 10;

    // L2-resident: the floor's own 2 000 × 50 block.
    let dot8_s = med(|| {
        per_call(PASSES, || {
            let mut acc = 0.0;
            for batch in rows.chunks_exact(8 * dims) {
                let lanes: [&[f64]; 8] = std::array::from_fn(|k| &batch[k * dims..(k + 1) * dims]);
                acc += simd::dot8(lanes, &w)[0];
            }
            std::hint::black_box(acc);
        })
    });
    metrics.set("linalg.dot8_l2_ns_per_row", dot8_s / n as f64 * 1e9);
    let scalar_s = med(|| {
        per_call(PASSES, || {
            std::hint::black_box(scalar_dot_pass(block, &w));
        })
    });
    metrics.set("linalg.dot8_vs_floor", scalar_s / dot8_s);
    let mut acc = vec![0.0; dims];
    let axpy_s = med(|| {
        per_call(PASSES, || {
            for row in rows.chunks_exact(dims) {
                simd::axpy(&mut acc, 1e-9, row);
            }
        })
    });
    std::hint::black_box(&acc);
    metrics.set("linalg.axpy_l2_ns_per_row", axpy_s / n as f64 * 1e9);

    // Gather dots over the CSR shape of `train_sparse`.
    let (srows, sdims, nnz) = SPARSE_SHAPE;
    let sparse = gen::sparse_rows(PROBE_SEED, srows, sdims, nnz);
    let (_, indptr, indices, values, _) = sparse.as_csr().ok_or("sparse rows are CSR")?;
    let wide: Vec<f64> = (0..sdims).map(|j| (j % 17) as f64 * 0.01).collect();
    let row = |r: usize| {
        let (lo, hi) = (indptr[r] as usize, indptr[r + 1] as usize);
        (&indices[lo..hi], &values[lo..hi])
    };
    let sparse_s = med(|| {
        per_call(PASSES, || {
            let mut acc = 0.0;
            for r in (0..srows).step_by(4) {
                let lanes: [(&[u32], &[f64]); 4] = std::array::from_fn(|k| row(r + k));
                acc += simd::sparse_dot4(lanes.map(|l| l.0), lanes.map(|l| l.1), &wide)[0];
            }
            std::hint::black_box(acc);
        })
    });
    metrics.set(
        "linalg.sparse_dot_ns_per_nnz",
        sparse_s / (srows * nnz) as f64 * 1e9,
    );

    // Memory-bound: a 64 MB stream against a copy of the same bytes, the
    // two timed alternately so host drift hits both.
    let stream_rows = STREAM_BYTES / 8 / dims / 8 * 8;
    let src: Vec<f64> = (0..stream_rows * dims).map(|i| (i % 251) as f64).collect();
    let mut dst = vec![0.0f64; src.len()];
    let bytes = (src.len() * 8) as f64;
    let mut stream = Vec::with_capacity(SAMPLES);
    let mut copy = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let (dot_s, _) = timed(|| {
            let mut acc = 0.0;
            for batch in src.chunks_exact(8 * dims) {
                let lanes: [&[f64]; 8] = std::array::from_fn(|k| &batch[k * dims..(k + 1) * dims]);
                acc += simd::dot8(lanes, &w)[0];
            }
            std::hint::black_box(acc);
        });
        let (copy_s, _) = timed(|| {
            dst.copy_from_slice(&src);
            std::hint::black_box(&dst);
        });
        stream.push(bytes / dot_s / 1e9);
        copy.push(bytes / copy_s / 1e9);
    }
    let (stream, copy) = (median(&stream), median(&copy));
    metrics.set("linalg.dot8_stream_gb_per_s", stream);
    metrics.set("linalg.memcpy_gb_per_s", copy);
    metrics.set("linalg.dot8_roofline_share", stream / copy);
    Ok(())
}

/// The dense probe set under the training cluster (4 partitions).
fn dense_set() -> Result<(ml4all_dataflow::ColumnStore, PartitionedDataset), Error> {
    let (rows, dims) = DENSE_SHAPE;
    let store = gen::dense_rows(PROBE_SEED, rows, dims);
    let data = train::partitioned(&store)?;
    Ok((store, data))
}

fn exec_state(dims: usize) -> ExecState {
    ExecState {
        iteration: 100,
        weights: (0..dims).map(|j| j as f64 * 1e-3 - 0.5).collect(),
        prev_weights: (0..dims).map(|j| j as f64 * 1e-3 - 0.49).collect(),
        final_delta: 0.012_345,
        error_seq: Vec::new(),
        rng_state: [1, 2, 3, 4],
        sampler: None,
        cost: Default::default(),
        usage: Default::default(),
    }
}

fn dataflow(metrics: &mut Metrics, dir: &Path) -> Result<(), Error> {
    let (store, data) = dense_set()?;
    let cluster = train::cluster();
    const DRAWS: usize = 1000;
    for (name, method) in [
        (
            "dataflow.sample_bernoulli_ns_per_draw",
            SamplingMethod::Bernoulli,
        ),
        (
            "dataflow.sample_random_ns_per_draw",
            SamplingMethod::RandomPartition,
        ),
        (
            "dataflow.sample_shuffle_ns_per_draw",
            SamplingMethod::ShuffledPartition,
        ),
    ] {
        let mut sampler = SamplerState::new(method);
        let mut env = SimEnv::new(cluster.clone());
        let mut rng = StdRng::seed_from_u64(PROBE_SEED);
        let mut out = Vec::with_capacity(2 * DRAWS);
        let per_draw = try_med(|| {
            let mut drawn = 0;
            let start = Instant::now();
            for _ in 0..20 {
                sampler.draw_into(&data, DRAWS, &mut env, &mut rng, &mut out)?;
                drawn += out.len();
            }
            Ok(start.elapsed().as_secs_f64() / drawn.max(1) as f64)
        })?;
        metrics.set(name, per_draw * 1e9);
    }

    // The fingerprint is memoised per storage, so every sample hashes a
    // freshly partitioned copy.
    let bytes = (store.len() * (store.dims() + 1) * 8) as f64;
    let fingerprint = try_med(|| {
        let fresh = train::partitioned(&store)?;
        let (seconds, print) = timed(|| fresh.fingerprint());
        std::hint::black_box(print);
        Ok(bytes / seconds / 1e9)
    })?;
    metrics.set("dataflow.fingerprint_gb_per_s", fingerprint);

    let checkpoint = |dims: usize| Checkpoint {
        key_hash: 0xC0FF_EE00,
        plan: GdPlan::bgd().to_string(),
        rng_stream_version: RNG_STREAM_VERSION,
        state: exec_state(dims),
    };
    let narrow = checkpoint(DENSE_SHAPE.1);
    let path = dir.join("probe.ckpt");
    metrics.set(
        "dataflow.checkpoint_write_ms",
        try_med(|| Ok(timed(|| write_checkpoint(&path, &narrow)).0))? * 1e3,
    );
    metrics.set(
        "dataflow.checkpoint_read_ms",
        try_med(|| {
            let (seconds, read) = timed(|| read_checkpoint(&path));
            read?;
            Ok(seconds)
        })? * 1e3,
    );
    metrics.set(
        "dataflow.checkpoint_bytes",
        encode_checkpoint(&narrow)?.len() as f64,
    );
    let wide = checkpoint(SPARSE_SHAPE.1);
    metrics.set(
        "dataflow.checkpoint_write_wide_ms",
        try_med(|| {
            let (seconds, written) = timed(|| write_checkpoint(&path, &wide));
            written?;
            Ok(seconds)
        })? * 1e3,
    );

    let slab = dir.join("probe.slab");
    let slab_mb = store.approx_bytes() as f64 / 1e6;
    metrics.set(
        "dataflow.slab_write_mb_per_s",
        try_med(|| {
            let (seconds, written) = timed(|| write_slab(&slab, &store));
            written?;
            Ok(slab_mb / seconds)
        })?,
    );
    metrics.set(
        "dataflow.slab_open_ms",
        try_med(|| {
            let (seconds, opened) = timed(|| open_slab(&slab));
            std::hint::black_box(opened?.len());
            Ok(seconds)
        })? * 1e3,
    );
    Ok(())
}

/// Seconds one `execute_plan` of `plan` takes.
fn execute_s(
    plan: &GdPlan,
    data: &PartitionedDataset,
    params: &TrainParams,
    cluster: &ClusterSpec,
) -> Result<f64, Error> {
    let mut env = SimEnv::with_runtime(cluster.clone(), Runtime::global());
    let (seconds, result) = timed(|| execute_plan(plan, data, params, &mut env));
    std::hint::black_box(result?.iterations);
    Ok(seconds)
}

fn gd(metrics: &mut Metrics, hot: &ServeHot) -> Result<(), Error> {
    let cluster = train::cluster();
    // Every job kind of the two training cycles, under the plan the engine
    // chose for it, for the cycle's own iteration count.
    for workload in [Train::dense(PROBE_SEED)?, Train::sparse(PROBE_SEED)?] {
        let data = train::partitioned(workload.rows())?;
        for (job, request, reference) in workload.kinds() {
            let params = request.config()?.train_params();
            let seconds = try_med(|| execute_s(&reference.gd_plan, &data, &params, &cluster))?;
            metrics.set(
                &format!("gd.{}_iter_us", job.key),
                seconds / job.iterations as f64 * 1e6,
            );
        }
    }
    // A BGD iteration over 4 partitions minus the same rows in 1.
    let (store, four) = dense_set()?;
    let one = PartitionedDataset::from_columns(
        "train",
        &store,
        PartitionScheme::RoundRobin,
        &ClusterSpec::paper_testbed(),
    )?;
    let mut params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
    params.tolerance = 0.0;
    params.max_iter = 50;
    params.record_error_seq = false;
    let mut differences = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let wide = execute_s(&GdPlan::bgd(), &four, &params, &cluster)?;
        let narrow = execute_s(&GdPlan::bgd(), &one, &params, &ClusterSpec::paper_testbed())?;
        differences.push((wide - narrow) / params.max_iter as f64);
    }
    metrics.set("gd.wave_overhead_us", median(&differences) * 1e6);

    // The hot serving job's plan for a single iteration: what
    // `execute_plan` costs before any gradient work pays off.
    let (request, reference) = hot.hot_job();
    let testbed = ClusterSpec::paper_testbed();
    let adult = registry::adult().build(REGISTRY_CAP, REGISTRY_SEED, &testbed)?;
    let mut params = request.config()?.train_params();
    params.max_iter = 1;
    metrics.set(
        "gd.execute_fixed_overhead_us",
        try_med(|| execute_s(&reference.gd_plan, &adult, &params, &testbed))? * 1e6,
    );
    Ok(())
}

fn gradient_of(task: Task) -> GradientKind {
    match task {
        Task::Svm => GradientKind::Svm,
        Task::LogisticRegression => GradientKind::LogisticRegression,
        Task::LinearRegression => GradientKind::LinearRegression,
    }
}

fn bounded_speculation() -> SpeculationConfig {
    SpeculationConfig {
        max_iterations: CHOOSE_SPECULATION_CAP,
        ..SpeculationConfig::default()
    }
}

fn core(metrics: &mut Metrics) -> Result<(), Error> {
    let cluster = ClusterSpec::paper_testbed();
    for name in ["adult", "covtype", "yearpred", "svm1", "rcv1"] {
        let spec = registry::by_name(name).ok_or("unknown registry dataset")?;
        let data = spec.build(REGISTRY_CAP, REGISTRY_SEED, &cluster)?;
        let config =
            OptimizerConfig::new(gradient_of(spec.task)).with_speculation(bounded_speculation());
        let seconds = try_med(|| {
            let (seconds, report) = timed(|| choose_plan(&data, &config, &cluster));
            std::hint::black_box(report?.choices.len());
            Ok(seconds)
        })?;
        metrics.set(&format!("core.choose_cold_ms.{name}"), seconds * 1e3);
    }

    let adult = registry::adult().build(REGISTRY_CAP, REGISTRY_SEED, &cluster)?;
    let params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
    let speculation = bounded_speculation();
    let mut speculated = 0;
    for (key, variant) in [
        ("bgd", GdVariant::Batch),
        ("sgd", GdVariant::Stochastic),
        ("mgd", GdVariant::MiniBatch { batch: 1000 }),
    ] {
        let mut iterations = 0;
        let seconds = try_med(|| {
            let (seconds, estimate) = timed(|| {
                estimate_iterations(&adult, variant, &params, 1e-3, &speculation, &cluster)
            });
            iterations = estimate?.speculation_iterations;
            Ok(seconds)
        })?;
        speculated += iterations;
        metrics.set(&format!("core.speculate_ms.{key}"), seconds * 1e3);
    }
    metrics.set("core.speculation_iterations", speculated as f64);

    // Costing alone: iterations fixed, nothing to speculate.
    let fixed = OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(100);
    let cost_s = try_med(|| try_per_call(20, || choose_plan(&adult, &fixed, &cluster).map(drop)))?;
    metrics.set("core.cost_11_plans_us", cost_s * 1e6);

    let cache = PlanCache::new();
    let request = TrainRequest::new(GradientKind::LogisticRegression, "adult").max_iter(100);
    let key = || {
        PlanCacheKey::new(
            adult.fingerprint(),
            &request.spec,
            request.seed,
            &SpeculationConfig::default(),
            &cluster,
            0,
        )
    };
    cache.insert(key(), &choose_plan(&adult, &fixed, &cluster)?);
    metrics.set(
        "core.plancache_get_us",
        med(|| {
            per_call(200, || {
                std::hint::black_box(cache.get(&key()).is_some());
            })
        }) * 1e6,
    );

    // The paper's Fig. 8 criterion on the wall clock: choose, then run all
    // 11 plans for their costed iterations; chosen ÷ fastest. A ratio of
    // runs made side by side, so it needs no speed correction.
    for name in ["adult", "covtype", "svm1"] {
        let spec = registry::by_name(name).ok_or("unknown registry dataset")?;
        let data = spec.build(REGRET_ROWS, REGISTRY_SEED, &cluster)?;
        let config = OptimizerConfig::new(gradient_of(spec.task))
            .with_speculation(bounded_speculation())
            .with_max_iter(REGRET_MAX_ITER);
        let report = choose_plan(&data, &config, &cluster)?;
        let regret = try_med(|| {
            let mut chosen = 0.0;
            let mut fastest = f64::INFINITY;
            for (rank, choice) in report.choices.iter().enumerate() {
                let mut params = config.train_params();
                params.max_iter = choice.estimated_iterations;
                params.tolerance = 0.0;
                let seconds = execute_s(&choice.plan, &data, &params, &cluster)?;
                if rank == 0 {
                    chosen = seconds;
                }
                fastest = fastest.min(seconds);
            }
            Ok(chosen / fastest)
        })?;
        metrics.set(&format!("core.chooser_regret.{name}"), regret);
    }
    Ok(())
}

fn calibrate(metrics: &mut Metrics) -> Result<(), Error> {
    let cluster = ClusterSpec::paper_testbed();
    let adult = registry::adult().build(REGISTRY_CAP, REGISTRY_SEED, &cluster)?;
    let fixed = OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(100);
    let mut calibrator = Calibrator::new(CalibratorConfig::default());
    let priced = choose_plan(
        &adult,
        &fixed.clone().with_calibration(calibrator.snapshot()),
        &cluster,
    )?;
    let best = priced.best();
    let (prep, iter) = match (&best.prep_cost, &best.iter_cost) {
        (Some(prep), Some(iter)) => (prep, iter),
        _ => return Err("a calibrated report carries its cost vectors".into()),
    };
    let predicted = prep.plus(&iter.times(100.0));
    let observation = JobObservation {
        key: plan_feature_key(
            &format!("{:?}", GradientKind::LogisticRegression),
            &best.plan,
            "local",
            adult.descriptor(),
        ),
        predicted,
        predicted_total_s: best.total_s,
        measured: predicted.times(1.1),
        measured_total_s: best.total_s * 1.1,
        usage: Default::default(),
    };
    metrics.set(
        "calibrate.observe_us",
        med(|| per_call(200, || calibrator.observe(&observation))) * 1e6,
    );
    // Costing the same 11 plans under the learned scales and residuals
    // (set against `core.cost_11_plans_us`).
    let calibrated = fixed.with_calibration(calibrator.snapshot());
    let seconds =
        try_med(|| try_per_call(20, || choose_plan(&adult, &calibrated, &cluster).map(drop)))?;
    metrics.set("calibrate.choose_calibrated_us", seconds * 1e6);
    Ok(())
}

fn datasets(metrics: &mut Metrics, dir: &Path) -> Result<(), Error> {
    let (train_rows, _, dims) = CSV_SHAPE;
    let csv_path = dir.join("probe.csv");
    std::fs::write(
        &csv_path,
        gen::csv_text(PROBE_SEED, 0, false, train_rows, dims),
    )?;
    let csv_mb = std::fs::metadata(&csv_path)?.len() as f64 / 1e6;
    metrics.set(
        "datasets.csv_ingest_mb_per_s",
        try_med(|| {
            let (seconds, read) = timed(|| csv::read_csv_file_columns(&csv_path, None));
            std::hint::black_box(read?.len());
            Ok(csv_mb / seconds)
        })?,
    );
    // A quarter of the file as the memory budget: the spilling ingester
    // flushes segments to `TMPDIR` (the scratch tree) and maps the merge.
    let budget = std::fs::metadata(&csv_path)?.len() / 4;
    metrics.set(
        "datasets.csv_ingest_spill_mb_per_s",
        try_med(|| {
            let (seconds, read) = timed(|| {
                read_data_file_with_budget(
                    dir,
                    Path::new("probe.csv"),
                    FileFormat::Csv,
                    None,
                    None,
                    Some(budget),
                )
            });
            let rows = read?;
            if !rows.is_mapped() {
                return Err("an over-budget file must come back mapped".into());
            }
            Ok(csv_mb / seconds)
        })?,
    );

    let (srows, sdims, nnz) = SPARSE_SHAPE;
    let libsvm_path = dir.join("probe.libsvm");
    libsvm::write_libsvm(
        std::fs::File::create(&libsvm_path)?,
        &gen::sparse_rows(PROBE_SEED, srows, sdims, nnz).to_points(),
    )?;
    let libsvm_mb = std::fs::metadata(&libsvm_path)?.len() as f64 / 1e6;
    metrics.set(
        "datasets.libsvm_ingest_mb_per_s",
        try_med(|| {
            let (seconds, read) = timed(|| libsvm::read_libsvm_file_columns(&libsvm_path, None));
            std::hint::black_box(read?.len());
            Ok(libsvm_mb / seconds)
        })?,
    );

    let cluster = ClusterSpec::paper_testbed();
    metrics.set(
        "datasets.registry_build_ms",
        try_med(|| {
            let (seconds, built) =
                timed(|| registry::adult().build(REGISTRY_CAP, REGISTRY_SEED, &cluster));
            std::hint::black_box(built?.physical_n());
            Ok(seconds)
        })? * 1e3,
    );
    let resolver = SharedResolver::new(dir, REGISTRY_CAP, REGISTRY_SEED, cluster);
    let source = DataSource::registry("adult");
    resolver.resolve(&source)?;
    metrics.set(
        "datasets.resolve_hot_us",
        med(|| {
            per_call(200, || {
                std::hint::black_box(resolver.resolve(&source).is_ok());
            })
        }) * 1e6,
    );
    Ok(())
}

fn ml4all_layer(metrics: &mut Metrics, hot: &ServeHot, dir: &Path) -> Result<(), Error> {
    let (request, reference) = hot.hot_job();
    let engine = Engine::new();
    engine.train(request.clone())?;
    let submit_join_s = try_med(|| {
        try_per_call(50, || {
            engine
                .submit(request.clone())
                .join()
                .map(drop)
                .map_err(|e| e.to_string())
        })
    })?;
    metrics.set("ml4all.submit_join_hot_us", submit_join_s * 1e6);

    // The same job's parts called directly: resolve, cache get, execute.
    let cluster = ClusterSpec::paper_testbed();
    let resolver = SharedResolver::new(".", REGISTRY_CAP, REGISTRY_SEED, cluster.clone());
    let data = resolver.resolve(&request.source)?;
    let cache = PlanCache::new();
    let config = request.config()?;
    let key = || {
        PlanCacheKey::new(
            data.fingerprint(),
            &request.spec,
            request.seed,
            &SpeculationConfig::default(),
            &cluster,
            0,
        )
    };
    cache.insert(key(), &choose_plan(&data, &config, &cluster)?);
    let params = config.train_params();
    let parts_s = try_med(|| {
        try_per_call(50, || -> Result<(), Error> {
            let data = resolver.resolve(&request.source)?;
            std::hint::black_box(cache.get(&key()).is_some());
            execute_s(&reference.gd_plan, &data, &params, &cluster).map(drop)
        })
    })?;
    metrics.set("ml4all.engine_overhead_us", (submit_join_s - parts_s) * 1e6);

    let explain = ExplainRequest::new(request.clone());
    engine.explain(explain.clone())?;
    metrics.set(
        "ml4all.explain_hit_us",
        try_med(|| {
            try_per_call(50, || {
                engine
                    .explain(explain.clone())
                    .map(drop)
                    .map_err(|e| e.to_string())
            })
        })? * 1e6,
    );

    let (_, dense) = dense_set()?;
    let model = Model::new(
        GradientKind::LogisticRegression,
        DenseVector::new((0..DENSE_SHAPE.1).map(|j| j as f64 * 0.01 - 0.25).collect()),
    );
    metrics.set(
        "ml4all.predict_batch_rows_per_s",
        med(|| {
            let seconds = per_call(20, || {
                std::hint::black_box(model.predict_batch(&dense).len());
            });
            DENSE_SHAPE.0 as f64 / seconds
        }),
    );

    // What a state dir adds to a warm job: the model file's atomic write.
    let durable = Engine::new().with_state_dir(dir.join("state"));
    durable.train(request.clone())?;
    let mut differences = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let (with_dir, trained) = timed(|| durable.train(request.clone()));
        trained?;
        let (without, trained) = timed(|| engine.train(request.clone()));
        trained?;
        differences.push(with_dir - without);
    }
    metrics.set("ml4all.state_dir_overhead_ms", median(&differences) * 1e3);
    Ok(())
}

fn serve(metrics: &mut Metrics, hot: &ServeHot) -> Result<(), Error> {
    let submit = Request::Submit {
        train: hot.wire_train().clone(),
    };
    let frame = encode_frame(&submit)?;
    metrics.set(
        "serve.encode_small_us",
        med(|| {
            per_call(200, || {
                std::hint::black_box(encode_frame(&submit).map(|f| f.len()).unwrap_or(0));
            })
        }) * 1e6,
    );
    metrics.set(
        "serve.decode_small_us",
        med(|| {
            per_call(200, || {
                std::hint::black_box(decode_request(&frame).is_ok());
            })
        }) * 1e6,
    );
    let weights: Vec<f64> = (0..SPARSE_SHAPE.1).map(|j| (j as f64).sin()).collect();
    let (numbers, bits) = encode_weights(&weights);
    let joined = Response::Ok(Payload::Joined(WireTrained {
        job: 1,
        status: "completed".into(),
        name: Some("wide".into()),
        plan: Some(GdPlan::bgd().to_string()),
        iterations: Some(100),
        converged: Some(false),
        sim_time_s: Some(12.5),
        weights: Some(numbers),
        weights_bits: Some(bits),
        error: None,
    }));
    metrics.set(
        "serve.encode_joined_wide_us",
        med(|| {
            per_call(3, || {
                std::hint::black_box(encode_frame(&joined).map(|f| f.len()).unwrap_or(0));
            })
        }) * 1e6,
    );
    let admission: Admission<u32> = Admission::new(4096, 8, TenantQuota::default());
    metrics.set(
        "serve.admission_cycle_ns",
        med(|| {
            per_call(1000, || {
                let offered = admission.offer("t0", 128, 1).is_ok();
                let dispatched = admission.try_next().is_some();
                admission.complete("t0");
                std::hint::black_box(offered && dispatched);
            })
        }) * 1e9,
    );

    metrics.set(
        "serve.boot_ms",
        try_med(|| {
            let start = Instant::now();
            let mut server = Server::start(Engine::new(), ServeConfig::default())?;
            let mut client = Client::connect(server.local_addr())?;
            client.hello("t0")?;
            drop(client);
            server.shutdown();
            Ok(start.elapsed().as_secs_f64())
        })? * 1e3,
    );

    // The verbs as the two tenants of `serve_hot` see them: two
    // connections in a closed loop, a span around every call.
    let epoch = Instant::now();
    const CYCLES: usize = 3;
    let mut system = hot.boot_with(2)?;
    let mut warm = vec![ClientOut::default(), ClientOut::default()];
    system.slice(1, &mut warm);
    let before = system.server_stats()?;
    let mut outs: Vec<ClientOut> = (0..2)
        .map(|_| ClientOut {
            time_jobs: true,
            job_s: Vec::with_capacity(CYCLES * JOBS_PER_CYCLE as usize),
            rec: Some(Recorder::new(epoch, CYCLES * JOBS_PER_CYCLE as usize * 4)),
            ..ClientOut::default()
        })
        .collect();
    system.slice(CYCLES, &mut outs);
    let after = system.server_stats()?;
    Box::new(system).shutdown();
    let jobs: u64 = outs.iter().map(|o| o.tally.jobs).sum();
    if outs.iter().any(|o| o.tally.failed > 0) {
        return Err("the serve probe's closed loop failed a check".into());
    }
    let job_s: Vec<f64> = outs.iter().flat_map(|o| o.job_s.iter().copied()).collect();
    let spans: Vec<_> = outs
        .into_iter()
        .filter_map(|o| o.rec)
        .flat_map(Recorder::into_spans)
        .collect();
    for (metric, span) in [
        ("serve.stats_rtt_us", "serve.stats_rtt"),
        ("serve.submit_rtt_us", "serve.submit_rtt"),
        ("serve.observe_stream_us", "serve.observe_stream"),
        ("serve.join_rtt_us", "serve.join_rtt"),
        ("serve.predict_rtt_us", "serve.predict_rtt"),
    ] {
        let seconds = median_duration(&spans, span).ok_or("a verb span is missing")?;
        metrics.set(metric, seconds * 1e6);
    }
    let in_process_us = metrics
        .get("ml4all.submit_join_hot_us")
        .ok_or("the ml4all probes run before the serve probes")?;
    metrics.set(
        "serve.wire_overhead_us",
        median(&job_s) * 1e6 - in_process_us,
    );
    let per_job = |after: u64, before: u64| (after - before) as f64 / jobs as f64;
    metrics.set(
        "serve.wakeups_per_job",
        per_job(after.wakeups, before.wakeups),
    );
    metrics.set(
        "serve.bytes_in_per_job",
        per_job(after.bytes_in, before.bytes_in),
    );
    metrics.set(
        "serve.bytes_out_per_job",
        per_job(after.bytes_out, before.bytes_out),
    );

    // Finding 3's shape: one connection, so every request waits for the
    // server and back with nothing else to run. Reported, never gated.
    let mut alone = hot.boot_with(1)?;
    let mut out = vec![ClientOut::default()];
    alone.slice(1, &mut out);
    out[0].time_jobs = true;
    out[0].job_s.reserve(2 * JOBS_PER_CYCLE as usize);
    alone.slice(2, &mut out);
    Box::new(alone).shutdown();
    metrics.set("wall.one_client_job_ms", median(&out[0].job_s) * 1e3);
    Ok(())
}
