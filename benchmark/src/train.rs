//! `train_dense` and `train_sparse`: one in-process caller, no wire, a
//! cycle of pinned jobs whose iteration counts are forced, then a block of
//! `Engine::predict` calls.
//!
//! The cluster's partition size is cut to 256 KiB so the small sets span
//! several partitions and every wave crosses the `runtime` pool. `gd`, the
//! `linalg` kernels, `dataflow::sampling` and `runtime` waves do the work;
//! `serve`, `core` speculation (a plan-cache hit after warm-up) and
//! `datasets` ingest are bypassed. The two shapes use the kernel and
//! executor layers the other way round — streaming 8-row dense dots
//! against gather dots and a wide O(d) update per tiny wave — so a gain
//! for one that costs the other fails the gate instead of netting out.

use std::time::Instant;

use ml4all::{
    DataSource, Engine, GdVariant, GradientKind, PredictRequest, SamplingMethod, TrainRequest,
};
use ml4all_core::estimator::SpeculationConfig;
use ml4all_dataflow::{ClusterSpec, ColumnStore, PartitionScheme, PartitionedDataset};

use crate::gen;
use crate::replay::HandEngine;
use crate::trace::Recorder;
use crate::workload::{ClientOut, Error, Reference, System, Workload};

/// Registered name of the training set.
const DATASET: &str = "train";
/// A tolerance no run reaches, so every job ends at its iteration cap.
const EPSILON: f64 = 1e-12;
const BATCH: usize = 1000;

/// One pinned job of the cycle.
#[derive(Debug, Clone, Copy)]
pub struct JobKind {
    /// Key of the matching `gd.<key>_iter_us` probe.
    pub key: &'static str,
    pub variant: GdVariant,
    pub sampler: Option<SamplingMethod>,
    pub iterations: u64,
}

const fn kind(
    key: &'static str,
    variant: GdVariant,
    sampler: Option<SamplingMethod>,
    iterations: u64,
) -> JobKind {
    JobKind {
        key,
        variant,
        sampler,
        iterations,
    }
}

const MGD: GdVariant = GdVariant::MiniBatch { batch: BATCH };

/// The dense cycle: BGD, the three MGD samplers, shuffled SGD.
pub const DENSE_JOBS: [JobKind; 5] = [
    kind("bgd_dense", GdVariant::Batch, None, 100),
    kind(
        "mgd_bernoulli_dense",
        MGD,
        Some(SamplingMethod::Bernoulli),
        100,
    ),
    kind(
        "mgd_random_dense",
        MGD,
        Some(SamplingMethod::RandomPartition),
        100,
    ),
    kind(
        "mgd_shuffle_dense",
        MGD,
        Some(SamplingMethod::ShuffledPartition),
        100,
    ),
    kind(
        "sgd_shuffle_dense",
        GdVariant::Stochastic,
        Some(SamplingMethod::ShuffledPartition),
        5000,
    ),
];

/// The sparse cycle: BGD, random MGD, shuffled SGD (an O(d) dense update
/// per one-row wave).
pub const SPARSE_JOBS: [JobKind; 3] = [
    kind("bgd_sparse", GdVariant::Batch, None, 100),
    kind(
        "mgd_random_sparse",
        MGD,
        Some(SamplingMethod::RandomPartition),
        30,
    ),
    kind(
        "sgd_shuffle_sparse",
        GdVariant::Stochastic,
        Some(SamplingMethod::ShuffledPartition),
        150,
    ),
];

/// What distinguishes the two training workloads besides their rows.
struct Shape {
    name: &'static str,
    jobs: &'static [JobKind],
    /// `Engine::predict` calls closing a cycle (≥ 2 ms in all on the
    /// defining host).
    predicts: usize,
    /// Timed set-ups per untraced run (about two seconds in all).
    setup_repetitions: usize,
}

const DENSE: Shape = Shape {
    name: "train_dense",
    jobs: &DENSE_JOBS,
    predicts: 40,
    setup_repetitions: 32,
};

const SPARSE: Shape = Shape {
    name: "train_sparse",
    jobs: &SPARSE_JOBS,
    predicts: 16,
    setup_repetitions: 18,
};

/// The cluster both training workloads run on: the paper's testbed with
/// 256 KiB partitions.
pub fn cluster() -> ClusterSpec {
    ClusterSpec {
        partition_bytes: 256 * 1024,
        ..ClusterSpec::paper_testbed()
    }
}

/// Cap on the cold speculation both training workloads boot with. The
/// jobs' tolerance is out of reach on purpose, and an unbounded
/// speculative SGD run over a 20 000-wide model costs seconds per cold
/// decision — set-up would measure nothing else. The cap changes no
/// decision here: variant and sampler are pinned.
pub fn speculation() -> SpeculationConfig {
    SpeculationConfig {
        max_iterations: 50,
        ..SpeculationConfig::default()
    }
}

/// The engine both training workloads (and their references) run on.
pub fn engine() -> Engine {
    Engine::with_cluster(cluster()).with_speculation(speculation())
}

/// The typed request of one job kind.
pub fn request(job: &JobKind, seed: u64, name: &str) -> TrainRequest {
    let mut request = TrainRequest::new(
        GradientKind::LogisticRegression,
        DataSource::registered(DATASET),
    )
    .algorithm(job.variant)
    .epsilon(EPSILON)
    .max_iter(job.iterations)
    .seed(seed)
    .named(name);
    if let Some(sampler) = job.sampler {
        request = request.sampler(sampler);
    }
    request
}

/// Partition `rows` the way both the engine and the replay register it.
pub fn partitioned(rows: &ColumnStore) -> Result<PartitionedDataset, Error> {
    Ok(PartitionedDataset::from_columns(
        DATASET,
        rows,
        PartitionScheme::RoundRobin,
        &cluster(),
    )?)
}

pub struct Train {
    shape: &'static Shape,
    rows: ColumnStore,
    requests: Vec<TrainRequest>,
    references: Vec<Reference>,
}

impl Train {
    pub fn dense(seed: u64) -> Result<Self, Error> {
        let (rows, dims) = gen::DENSE_SHAPE;
        Self::generate(&DENSE, gen::dense_rows(seed, rows, dims), seed)
    }

    pub fn sparse(seed: u64) -> Result<Self, Error> {
        let (rows, dims, nnz) = gen::SPARSE_SHAPE;
        Self::generate(&SPARSE, gen::sparse_rows(seed, rows, dims, nnz), seed)
    }

    fn generate(shape: &'static Shape, rows: ColumnStore, seed: u64) -> Result<Self, Error> {
        let jobs = shape.jobs;
        let requests: Vec<TrainRequest> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| request(job, seed, &format!("m{i}")))
            .collect();
        // The synchronous reference every submitted job must equal.
        let engine = engine();
        engine.register_dataset(DATASET, partitioned(&rows)?);
        let mut references = Vec::with_capacity(jobs.len());
        for (job, request) in jobs.iter().zip(&requests) {
            let trained = engine.train(request.clone())?;
            if trained.summary.iterations != job.iterations {
                return Err(format!(
                    "{}: the reference ran {} iterations, not the forced {}",
                    job.key, trained.summary.iterations, job.iterations
                )
                .into());
            }
            let model = engine
                .model(&trained.name)
                .ok_or("reference model unbound")?;
            references.push(Reference::new(&trained, &model));
        }
        Ok(Self {
            shape,
            rows,
            requests,
            references,
        })
    }

    /// The generated rows (the probes time the executor on them directly).
    pub fn rows(&self) -> &ColumnStore {
        &self.rows
    }

    /// Every job kind of the cycle with its request and its reference.
    pub fn kinds(&self) -> impl Iterator<Item = (&JobKind, &TrainRequest, &Reference)> {
        self.shape
            .jobs
            .iter()
            .zip(&self.requests)
            .zip(&self.references)
            .map(|((job, request), reference)| (job, request, reference))
    }

    fn cycle(&self, engine: &Engine, out: &mut ClientOut) {
        let cycle_start = Instant::now();
        if let Some(rec) = &out.rec {
            rec.next_op();
        }
        out.cycle_sim_time_s = 0.0;
        for (job, request, reference) in self.kinds() {
            let job_start = Instant::now();
            let joined = out.span("ml4all.submit_join", || {
                engine.submit(request.clone()).join()
            });
            let ok = match joined {
                Ok(trained) => {
                    trained.summary.iterations == job.iterations
                        && engine
                            .model(&trained.name)
                            .is_some_and(|m| reference.matches(&trained, m.weights.as_slice()))
                }
                Err(_) => false,
            };
            out.tally.check(ok);
            out.tally.jobs += 1;
            out.counters.iterations += job.iterations;
            out.counters.tuples += job.iterations * job.variant.sample_size(self.rows.len() as u64);
            out.cycle_sim_time_s += f64::from_bits(reference.sim_time_bits);
            if out.time_jobs {
                out.job_s.push(job_start.elapsed().as_secs_f64());
            }
        }
        let start = Instant::now();
        let mut scored_all = true;
        out.span("ml4all.predict_block", || {
            for _ in 0..self.shape.predicts {
                let scored =
                    engine.predict(PredictRequest::new(DataSource::registered(DATASET), "m0"));
                scored_all &= matches!(scored, Ok(p) if p.predictions.len() == self.rows.len());
            }
        });
        out.tally.predict_s += start.elapsed().as_secs_f64();
        out.tally.predict_rows += (self.shape.predicts * self.rows.len()) as u64;
        out.tally.check(scored_all);
        out.counters.cycles += 1;
        if out.time_jobs {
            out.cycle_s.push(cycle_start.elapsed().as_secs_f64());
        }
    }
}

struct TrainSystem<'a> {
    workload: &'a Train,
    engine: Engine,
}

impl System for TrainSystem<'_> {
    fn slice(&mut self, cycles: usize, outs: &mut [ClientOut]) {
        for _ in 0..cycles {
            self.workload.cycle(&self.engine, &mut outs[0]);
        }
    }

    fn shutdown(self: Box<Self>) {}
}

impl Workload for Train {
    fn name(&self) -> &'static str {
        self.shape.name
    }
    fn clients(&self) -> usize {
        1
    }
    fn jobs_per_cycle(&self) -> u64 {
        self.shape.jobs.len() as u64
    }
    fn setup_repetitions(&self) -> usize {
        self.shape.setup_repetitions
    }
    fn rss_cycles(&self) -> u64 {
        20
    }
    fn accounted_per_cycle(&self) -> bool {
        true
    }

    fn boot(&self) -> Result<Box<dyn System + '_>, Error> {
        let engine = engine();
        engine.register_dataset(DATASET, partitioned(&self.rows)?);
        Ok(Box::new(TrainSystem {
            workload: self,
            engine,
        }))
    }

    fn replay(&self, rec: &Recorder) -> Result<Vec<u32>, Error> {
        let engine = HandEngine::new(cluster(), ".").with_speculation(speculation());
        engine.register(DATASET, partitioned(&self.rows)?);
        // Unrecorded first cycle: decisions cached, as after warm-up.
        let warm = Recorder::new(Instant::now(), 256);
        for request in &self.requests {
            engine.train(request, &warm)?;
        }
        let model = self.references[0].model();
        let mut ops = Vec::with_capacity(crate::REPLAYS);
        for _ in 0..crate::REPLAYS {
            ops.push(rec.next_op());
            for (request, reference) in self.requests.iter().zip(&self.references) {
                engine.train(request, rec)?.check(reference)?;
            }
            for _ in 0..self.shape.predicts {
                let scored = engine.predict(&DataSource::registered(DATASET), &model, rec)?;
                if scored != self.rows.len() {
                    return Err(format!("replayed predict scored {scored} rows").into());
                }
            }
        }
        Ok(ops)
    }
}
