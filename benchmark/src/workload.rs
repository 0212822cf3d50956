//! What the four workloads have in common: the cycle contract, the
//! per-client tallies, and the reference a job's result is checked
//! against.
//!
//! Every workload is a **closed loop** of whole *cycles*: a cycle is a
//! fixed job sequence, so per-cycle counters are exact at any host speed,
//! and a client sends its next request only when the previous one has
//! completed. A workload names its client count; the whole process runs on
//! one vCPU ([`crate::host`]), so no gated number waits on an idle one.

use ml4all::{GdPlan, GradientKind, Model, Trained};
use ml4all_linalg::DenseVector;
use ml4all_serve::{f64_to_bits_hex, WireTrained};

use crate::trace::Recorder;

pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// Operation counts of one client.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations whose outcome was checked (jobs, predicts, stats).
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// Jobs completed (the denominator of `job_ms`).
    pub jobs: u64,
    /// Rows scored by the predict block.
    pub predict_rows: u64,
    /// Seconds the predict block took.
    pub predict_s: f64,
}

impl Tally {
    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.jobs += other.jobs;
        self.predict_rows += other.predict_rows;
        self.predict_s += other.predict_s;
    }
}

/// Exact per-cycle counters (the traced run prints them per cycle).
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub cycles: u64,
    /// GD iterations the jobs executed.
    pub iterations: u64,
    /// Data units those iterations consumed: iterations × the plan's
    /// nominal sample size (all rows for BGD, the batch for MGD, 1 for
    /// SGD).
    pub tuples: u64,
    /// Calibration generations reached (one per observed job).
    pub generation: u64,
    /// Durability checkpoints the engines wrote.
    pub checkpoints: u64,
}

impl Counters {
    pub fn merge(&mut self, other: &Counters) {
        self.cycles += other.cycles;
        self.iterations += other.iterations;
        self.tuples += other.tuples;
        self.generation += other.generation;
        self.checkpoints += other.checkpoints;
    }
}

/// Everything one client reports from a slice. The vectors are reserved
/// by the caller, so recording inside a timed slice does not allocate.
#[derive(Default)]
pub struct ClientOut {
    pub tally: Tally,
    pub counters: Counters,
    /// The paper's own cost of one cycle's chosen plans, simulated seconds.
    /// Overwritten by every cycle, not accumulated: a float sum over a
    /// time-bound number of cycles would not repeat to the bit.
    pub cycle_sim_time_s: f64,
    /// Record per-job and per-cycle latencies (traced run only).
    pub time_jobs: bool,
    pub job_s: Vec<f64>,
    pub cycle_s: Vec<f64>,
    /// Record a span per call into the system ("spans on" slices).
    pub rec: Option<Recorder>,
}

impl ClientOut {
    /// Time `f` as a span when spans are on.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.rec {
            Some(rec) => rec.span(name, f),
            None => f(),
        }
    }
}

/// A booted system under test.
pub trait System {
    /// Run `cycles` whole cycles on every client concurrently and return
    /// when the last client is done. `outs` has one entry per client.
    fn slice(&mut self, cycles: usize, outs: &mut [ClientOut]);

    /// Stop every server and join every thread the system started.
    fn shutdown(self: Box<Self>);
}

/// A workload: generated inputs plus the recipe to boot a system on them.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Closed-loop clients (1 or 2).
    fn clients(&self) -> usize;

    /// Jobs in one cycle of one client.
    fn jobs_per_cycle(&self) -> u64;

    /// Set-up repetitions the untraced run times (fixed per workload so
    /// the phase lasts about two seconds on the defining host).
    fn setup_repetitions(&self) -> usize;

    /// Cycles the first client completes before `peak_rss_mb` is read.
    fn rss_cycles(&self) -> u64;

    /// The set-up: boot engine and server, ingest or register the data
    /// through the crates, connect the clients. The caller adds the
    /// warm-up cycle and the tear-down.
    fn boot(&self) -> Result<Box<dyn System + '_>, Error>;

    /// Replay the workload's work by hand through the crates' public
    /// functions, in engine order, under `rec`, [`crate::REPLAYS`] times;
    /// `Err` when a replayed result is not bit-identical to the engine's.
    /// Returns the operation ids whose span sums `trace.accounted_share`
    /// sets against the measured latency: whole cycles when
    /// [`Workload::accounted_per_cycle`], single jobs otherwise.
    fn replay(&self, rec: &Recorder) -> Result<Vec<u32>, Error>;

    /// Whether a replayed operation is a whole cycle (in-process
    /// workloads) or one job (wire workloads, whose clients overlap).
    fn accounted_per_cycle(&self) -> bool;
}

/// The in-process `Engine::train` result a job must reproduce bit for bit.
#[derive(Debug, Clone)]
pub struct Reference {
    pub gd_plan: GdPlan,
    pub plan: String,
    pub iterations: u64,
    pub sim_time_bits: u64,
    pub weights_bits: Vec<u64>,
    /// The same weights in the wire's authoritative hex form.
    pub weights_hex: Vec<String>,
}

impl Reference {
    pub fn new(trained: &Trained, model: &Model) -> Self {
        let weights = model.weights.as_slice();
        Self {
            gd_plan: trained.summary.plan,
            plan: trained.summary.plan.to_string(),
            iterations: trained.summary.iterations,
            sim_time_bits: trained.summary.sim_time_s.to_bits(),
            weights_bits: weights.iter().map(|w| w.to_bits()).collect(),
            weights_hex: weights.iter().copied().map(f64_to_bits_hex).collect(),
        }
    }

    /// The reference weights as a logistic model (every workload trains
    /// one), for the replayed predicts.
    pub fn model(&self) -> Model {
        Model::new(
            GradientKind::LogisticRegression,
            DenseVector::new(
                self.weights_bits
                    .iter()
                    .map(|b| f64::from_bits(*b))
                    .collect(),
            ),
        )
    }

    /// An in-process job result against the reference.
    pub fn matches(&self, trained: &Trained, weights: &[f64]) -> bool {
        trained.summary.plan.to_string() == self.plan
            && trained.summary.iterations == self.iterations
            && trained.summary.sim_time_s.to_bits() == self.sim_time_bits
            && self.matches_weights(weights)
    }

    pub fn matches_weights(&self, weights: &[f64]) -> bool {
        weights.len() == self.weights_bits.len()
            && weights
                .iter()
                .zip(&self.weights_bits)
                .all(|(w, bits)| w.to_bits() == *bits)
    }

    /// A `Joined` payload against the reference.
    pub fn matches_wire(&self, joined: &WireTrained) -> bool {
        joined.status == "completed"
            && joined.plan.as_deref() == Some(self.plan.as_str())
            && joined.iterations == Some(self.iterations)
            && joined.sim_time_s.map(f64::to_bits) == Some(self.sim_time_bits)
            && joined.weights_bits.as_deref() == Some(self.weights_hex.as_slice())
    }
}
