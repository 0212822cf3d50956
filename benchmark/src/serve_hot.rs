//! `serve_hot`: two tenants on two TCP connections to one in-process
//! server, each looping `Submit → Observe(from 0) … ObserveEnd → Join` on
//! a memoised registry analog with a fixed request — a plan-cache hit.
//!
//! GD, speculation and ingest are a few microseconds of a ~150 µs job
//! here, so `serve` framing/JSON/admission/reactor and the `ml4all` job
//! lifecycle do the work. A kernel, chooser or ingest change must show
//! **no change** on this workload.

use std::time::Instant;

use ml4all::{DataSource, Engine, GradientKind, TrainRequest};
use ml4all_dataflow::ClusterSpec;
use ml4all_datasets::registry;
use ml4all_serve::{Client, ServeConfig, Server, WireSource, WireTrain};

use crate::replay::{HandEngine, ENGINE_REGISTRY_CAP};
use crate::trace::Recorder;
use crate::workload::{ClientOut, Error, Reference, System, Workload};

/// The registry analog every job trains on.
const DATASET: &str = "adult";
const MAX_ITER: u64 = 5;
/// Jobs per client per cycle; `Stats` closes the cycle.
pub const JOBS_PER_CYCLE: u64 = 100;
/// A `Predict` follows every this many jobs.
const PREDICT_EVERY: u64 = 10;
const MODEL: &str = "hot";

pub struct ServeHot {
    train: WireTrain,
    reference: Reference,
    rows: u64,
    tuples_per_iteration: u64,
}

impl ServeHot {
    /// The request is fixed but for its RNG seed, which comes from
    /// `--seed`; the reference is the in-process `Engine::train` result.
    pub fn generate(seed: u64) -> Result<Self, Error> {
        let mut train = WireTrain::new("logistic", WireSource::Registry(DATASET.into()));
        train.max_iter = Some(MAX_ITER);
        train.seed = Some(seed);
        train.name = Some(MODEL.into());
        let engine = Engine::new();
        let trained = engine.train(in_process(&train))?;
        let model = engine
            .model(&trained.name)
            .ok_or("reference model unbound")?;
        let spec = registry::by_name(DATASET).ok_or("unknown registry dataset")?;
        let rows = spec.n.min(ENGINE_REGISTRY_CAP as u64);
        Ok(Self {
            reference: Reference::new(&trained, &model),
            tuples_per_iteration: trained.summary.plan.variant.sample_size(rows),
            train,
            rows,
        })
    }

    /// The hot job as a typed request, and its in-process reference.
    pub fn hot_job(&self) -> (TrainRequest, &Reference) {
        (in_process(&self.train), &self.reference)
    }

    /// The hot job's wire form.
    pub fn wire_train(&self) -> &WireTrain {
        &self.train
    }

    /// Boot with `clients` connections (the probes also run one alone).
    pub fn boot_with(&self, clients: usize) -> Result<HotSystem<'_>, Error> {
        let server = Server::start(Engine::new(), ServeConfig::default())?;
        let mut connections = Vec::with_capacity(clients);
        for tenant in 0..clients {
            let mut client = Client::connect(server.local_addr())?;
            client.hello(&format!("t{tenant}"))?;
            connections.push(client);
        }
        Ok(HotSystem {
            workload: self,
            server,
            clients: connections,
        })
    }

    /// One cycle of one client.
    fn cycle(&self, client: &mut Client, out: &mut ClientOut) {
        let cycle_start = Instant::now();
        for job in 1..=JOBS_PER_CYCLE {
            let job_start = Instant::now();
            if let Some(rec) = &out.rec {
                rec.next_op();
            }
            let ok = self.job(client, out);
            out.tally.check(ok);
            out.tally.jobs += 1;
            if out.time_jobs {
                out.job_s.push(job_start.elapsed().as_secs_f64());
            }
            if job % PREDICT_EVERY == 0 {
                let start = Instant::now();
                let scored = out.span("serve.predict_rtt", || {
                    client.predict(MODEL, &WireSource::Registry(DATASET.into()))
                });
                out.tally.predict_s += start.elapsed().as_secs_f64();
                out.tally.predict_rows += self.rows;
                out.tally
                    .check(matches!(scored, Ok(info) if info.n == self.rows));
            }
        }
        let stats = out.span("serve.stats_rtt", || client.stats());
        out.tally.check(stats.is_ok());
        out.counters.cycles += 1;
        out.counters.iterations += JOBS_PER_CYCLE * self.reference.iterations;
        out.counters.tuples +=
            JOBS_PER_CYCLE * self.reference.iterations * self.tuples_per_iteration;
        out.cycle_sim_time_s = JOBS_PER_CYCLE as f64 * f64::from_bits(self.reference.sim_time_bits);
        if out.time_jobs {
            out.cycle_s.push(cycle_start.elapsed().as_secs_f64());
        }
    }

    /// `Submit → Observe … ObserveEnd → Join`, every answer checked.
    fn job(&self, client: &mut Client, out: &ClientOut) -> bool {
        let Ok(id) = out.span("serve.submit_rtt", || client.submit(&self.train)) else {
            return false;
        };
        let mut next_seq = 0;
        let mut gap_free = true;
        let status = out.span("serve.observe_stream", || {
            client.observe(id, 0, |seq, _event| {
                gap_free &= seq == next_seq;
                next_seq += 1;
            })
        });
        let joined = out.span("serve.join_rtt", || client.join(id));
        gap_free
            && next_seq > 0
            && matches!(status.as_deref(), Ok("completed"))
            && matches!(joined, Ok(joined) if self.reference.matches_wire(&joined))
    }
}

/// The typed request a wire request lowers onto.
fn in_process(train: &WireTrain) -> TrainRequest {
    let mut request = TrainRequest::new(
        GradientKind::LogisticRegression,
        DataSource::registry(DATASET),
    )
    .max_iter(MAX_ITER);
    if let Some(seed) = train.seed {
        request = request.seed(seed);
    }
    if let Some(name) = &train.name {
        request = request.named(name.clone());
    }
    request
}

pub struct HotSystem<'a> {
    workload: &'a ServeHot,
    server: Server,
    clients: Vec<Client>,
}

impl HotSystem<'_> {
    /// The transport counters of the server under test.
    pub fn server_stats(&mut self) -> Result<ml4all_serve::WireServerStats, Error> {
        Ok(self.clients[0].server_stats()?)
    }
}

impl System for HotSystem<'_> {
    fn slice(&mut self, cycles: usize, outs: &mut [ClientOut]) {
        let workload = self.workload;
        if let ([client], [out]) = (self.clients.as_mut_slice(), &mut *outs) {
            for _ in 0..cycles {
                workload.cycle(client, out);
            }
            return;
        }
        std::thread::scope(|s| {
            for (client, out) in self.clients.iter_mut().zip(outs.iter_mut()) {
                s.spawn(move || {
                    for _ in 0..cycles {
                        workload.cycle(client, out);
                    }
                });
            }
        });
    }

    fn shutdown(mut self: Box<Self>) {
        self.clients.clear();
        self.server.shutdown();
    }
}

impl Workload for ServeHot {
    fn name(&self) -> &'static str {
        "serve_hot"
    }
    fn clients(&self) -> usize {
        2
    }
    fn jobs_per_cycle(&self) -> u64 {
        JOBS_PER_CYCLE
    }
    fn setup_repetitions(&self) -> usize {
        40
    }
    fn rss_cycles(&self) -> u64 {
        // Past the server's 4 096-job replay history, so the resident set
        // has stopped growing.
        50
    }
    fn accounted_per_cycle(&self) -> bool {
        false
    }
    fn boot(&self) -> Result<Box<dyn System + '_>, Error> {
        Ok(Box::new(self.boot_with(self.clients())?))
    }

    fn replay(&self, rec: &Recorder) -> Result<Vec<u32>, Error> {
        // A warmed engine: the analog is memoised and the decision cached
        // by an unrecorded first job, as on the server after warm-up.
        let engine = HandEngine::new(ClusterSpec::paper_testbed(), ".");
        let warm = Recorder::new(Instant::now(), 64);
        engine.wire_job(&self.train, &warm)?;
        let mut ops = Vec::with_capacity(crate::REPLAYS);
        for _ in 0..crate::REPLAYS {
            ops.push(rec.next_op());
            engine.wire_job(&self.train, rec)?.check(&self.reference)?;
        }
        let model = self.reference.model();
        for _ in 0..crate::REPLAYS {
            rec.next_op();
            let scored = engine.predict(&DataSource::registry(DATASET), &model, rec)?;
            if scored as u64 != self.rows {
                return Err(format!("replayed predict scored {scored} rows").into());
            }
        }
        Ok(ops)
    }
}
