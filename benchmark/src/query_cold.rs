//! `query_cold`: the paper's declarative scenario on a cold system, one
//! client over TCP.
//!
//! Every op boots a calibrating engine on a fresh state dir and data dir
//! plus a server, then `Hello → Submit{train_k.csv} → Join →
//! Predict{test_k.csv} → shutdown`. CSV ingest (`datasets`), the
//! fingerprint and checkpoint fsyncs (`dataflow`), one cold speculation
//! and 11-plan costing (`core`), the calibrator's observe/persist and the
//! state-dir persistence of `ml4all` dominate: the write side of the
//! layers `serve_hot` only reads through hot caches. The job's tolerance
//! is out of reach, so it always ends at its iteration cap and every seed
//! does the same work.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ml4all::{DataSource, Engine, GradientKind, TrainRequest};
use ml4all_dataflow::ClusterSpec;
use ml4all_serve::{Client, ServeConfig, Server, WireSource, WireTrain};

use crate::gen::{self, CSV_PAIRS, CSV_SHAPE};
use crate::replay::HandEngine;
use crate::trace::Recorder;
use crate::workload::{ClientOut, Error, Reference, System, Workload};

const EPSILON: f64 = 1e-6;
const MAX_ITER: u64 = 500;
const CHECKPOINT_EVERY: u64 = 100;
const MODEL: &str = "q";
/// A linear model must at least beat this on the held-out rows.
const MIN_ACCURACY: f64 = 0.70;

pub struct QueryCold {
    /// Directory holding the generated `train_k.csv` / `test_k.csv`.
    inputs: PathBuf,
    /// Fresh op roots are made under here.
    scratch: PathBuf,
    seed: u64,
    references: Vec<Reference>,
    next_root: AtomicU64,
}

fn train_file(pair: usize) -> String {
    format!("train_{pair}.csv")
}

fn test_file(pair: usize) -> String {
    format!("test_{pair}.csv")
}

impl QueryCold {
    /// Write the CSV pairs under `scratch/inputs` and compute each pair's
    /// in-process reference. The text is dropped once written.
    pub fn generate(seed: u64, scratch: &Path) -> Result<Self, Error> {
        let inputs = scratch.join("inputs");
        std::fs::create_dir_all(&inputs)?;
        let (train_rows, test_rows, dims) = CSV_SHAPE;
        for pair in 0..CSV_PAIRS {
            std::fs::write(
                inputs.join(train_file(pair)),
                gen::csv_text(seed, pair, false, train_rows, dims),
            )?;
            std::fs::write(
                inputs.join(test_file(pair)),
                gen::csv_text(seed, pair, true, test_rows, dims),
            )?;
        }
        // A cold calibrator prices exactly like the static model, so the
        // reference needs neither a state dir nor a server.
        let mut references = Vec::with_capacity(CSV_PAIRS);
        for pair in 0..CSV_PAIRS {
            let engine = Engine::new().with_data_dir(&inputs).with_calibration();
            let trained = engine.train(in_process(pair, seed))?;
            let model = engine
                .model(&trained.name)
                .ok_or("reference model unbound")?;
            references.push(Reference::new(&trained, &model));
        }
        Ok(Self {
            inputs,
            scratch: scratch.to_path_buf(),
            seed,
            references,
            next_root: AtomicU64::new(0),
        })
    }

    fn wire_train(&self, pair: usize) -> WireTrain {
        let mut train = WireTrain::new("logistic", WireSource::File(train_file(pair)));
        train.epsilon = Some(EPSILON);
        train.max_iter = Some(MAX_ITER);
        train.checkpoint_every = Some(CHECKPOINT_EVERY);
        train.seed = Some(self.seed);
        train.name = Some(MODEL.into());
        train
    }

    /// A fresh op root with `state/` and `data/`, the pair's two files
    /// linked into `data/`.
    fn fresh_root(&self, pair: usize) -> Result<PathBuf, Error> {
        let n = self.next_root.fetch_add(1, Ordering::Relaxed);
        let root = self.scratch.join(format!("op-{n}"));
        std::fs::create_dir_all(root.join("state"))?;
        std::fs::create_dir_all(root.join("data"))?;
        for file in [train_file(pair), test_file(pair)] {
            std::fs::hard_link(self.inputs.join(&file), root.join("data").join(&file))?;
        }
        Ok(root)
    }

    /// One cold op, every answer checked. Returns the seconds its
    /// `Predict` took and the engine's exact counters.
    fn op(&self, pair: usize, out: &mut ClientOut) -> Result<(), Error> {
        let root = self.fresh_root(pair)?;
        let result = self.op_in(&root, pair, out);
        let _ = std::fs::remove_dir_all(&root);
        result
    }

    fn op_in(&self, root: &Path, pair: usize, out: &mut ClientOut) -> Result<(), Error> {
        let engine = out.span("ml4all.engine_boot", || {
            Engine::new()
                .with_data_dir(root.join("data"))
                .with_calibration()
                .with_state_dir(root.join("state"))
        });
        let mut server = out.span("serve.boot", || {
            Server::start(engine.clone(), ServeConfig::default())
        })?;
        let reference = &self.references[pair];
        let served = (|| -> Result<bool, Error> {
            let mut client = out.span("serve.connect", || -> Result<Client, Error> {
                let mut client = Client::connect(server.local_addr())?;
                client.hello("t0")?;
                Ok(client)
            })?;
            let id = out.span("serve.submit_rtt", || client.submit(&self.wire_train(pair)))?;
            let joined = out.span("serve.join_rtt", || client.join(id))?;
            let start = Instant::now();
            let scored = out.span("serve.predict_rtt", || {
                client.predict(MODEL, &WireSource::File(test_file(pair)))
            })?;
            out.tally.predict_s += start.elapsed().as_secs_f64();
            out.tally.predict_rows += CSV_SHAPE.1 as u64;
            Ok(reference.matches_wire(&joined)
                && scored.n == CSV_SHAPE.1 as u64
                && scored.accuracy.is_some_and(|a| a >= MIN_ACCURACY))
        })();
        out.span("serve.shutdown", || server.shutdown());
        out.counters.checkpoints += engine.checkpoints_written();
        out.counters.generation += engine.calibration().map_or(0, |c| c.generation);
        out.counters.iterations += reference.iterations;
        out.counters.tuples +=
            reference.iterations * reference.gd_plan.variant.sample_size(CSV_SHAPE.0 as u64);
        match served {
            Ok(true) => Ok(()),
            Ok(false) => Err("a cold op failed a correctness check".into()),
            Err(e) => Err(e),
        }
    }

    fn cycle(&self, out: &mut ClientOut) {
        let cycle_start = Instant::now();
        for pair in 0..CSV_PAIRS {
            let job_start = Instant::now();
            if let Some(rec) = &out.rec {
                rec.next_op();
            }
            let outcome = self.op(pair, out);
            if let Err(e) = &outcome {
                eprintln!("query_cold: op on pair {pair} failed: {e}");
            }
            out.tally.check(outcome.is_ok());
            out.tally.jobs += 1;
            if out.time_jobs {
                out.job_s.push(job_start.elapsed().as_secs_f64());
            }
        }
        out.counters.cycles += 1;
        out.cycle_sim_time_s = self
            .references
            .iter()
            .map(|r| f64::from_bits(r.sim_time_bits))
            .sum();
        if out.time_jobs {
            out.cycle_s.push(cycle_start.elapsed().as_secs_f64());
        }
    }
}

/// The typed request the wire request lowers onto.
fn in_process(pair: usize, seed: u64) -> TrainRequest {
    TrainRequest::new(
        GradientKind::LogisticRegression,
        DataSource::file(train_file(pair)),
    )
    .epsilon(EPSILON)
    .max_iter(MAX_ITER)
    .checkpoint_every(CHECKPOINT_EVERY)
    .seed(seed)
    .named(MODEL)
}

struct ColdSystem<'a> {
    workload: &'a QueryCold,
}

impl System for ColdSystem<'_> {
    fn slice(&mut self, cycles: usize, outs: &mut [ClientOut]) {
        for _ in 0..cycles {
            self.workload.cycle(&mut outs[0]);
        }
    }

    /// Nothing outlives an op: each one stops its own server.
    fn shutdown(self: Box<Self>) {}
}

impl Workload for QueryCold {
    fn name(&self) -> &'static str {
        "query_cold"
    }
    fn clients(&self) -> usize {
        1
    }
    fn jobs_per_cycle(&self) -> u64 {
        CSV_PAIRS as u64
    }
    fn setup_repetitions(&self) -> usize {
        12
    }
    fn rss_cycles(&self) -> u64 {
        4
    }
    fn accounted_per_cycle(&self) -> bool {
        false
    }

    fn boot(&self) -> Result<Box<dyn System + '_>, Error> {
        Ok(Box::new(ColdSystem { workload: self }))
    }

    fn replay(&self, rec: &Recorder) -> Result<Vec<u32>, Error> {
        let mut ops = Vec::with_capacity(crate::REPLAYS);
        for replay in 0..crate::REPLAYS {
            let pair = replay % CSV_PAIRS;
            let root = self.fresh_root(pair)?;
            ops.push(rec.next_op());
            let result = (|| -> Result<(), Error> {
                let engine = HandEngine::new(ClusterSpec::paper_testbed(), root.join("data"))
                    .with_calibration()
                    .with_state_dir(root.join("state"))?;
                let outcome = engine.wire_job(&self.wire_train(pair), rec)?;
                outcome.check(&self.references[pair])?;
                let model = self.references[pair].model();
                let scored = engine.predict(&DataSource::file(test_file(pair)), &model, rec)?;
                if scored != CSV_SHAPE.1 {
                    return Err(format!("replayed predict scored {scored} rows").into());
                }
                Ok(())
            })();
            let _ = std::fs::remove_dir_all(&root);
            result?;
        }
        Ok(ops)
    }
}
