//! Simulated baseline systems from the paper's evaluation (Section 8.1):
//! **MLlib**, **SystemML**, and the **Bismarck** abstraction, each rebuilt
//! over the same dataflow substrate with the behavioural traits the paper
//! attributes to it.
//!
//! | Baseline  | Modelled traits |
//! |-----------|-----------------|
//! | [`mllib`] | eager transformation only; fraction-based Bernoulli sampling (full scan per iteration; inflated fraction for SGD to dodge empty samples); `treeAggregate` two-level aggregation; JVM/closure CPU factor; per-iteration Spark job |
//! | [`systemml`] | binary-block conversion pass charged up front; hybrid execution (local when the binary fits the driver, distributed otherwise); out-of-memory failure on large dense data; per-iteration instruction-generation overhead in distributed mode |
//! | [`bismarck`] | `Prepare` UDF parallelized, but the fused Compute/Update runs serialized at one node; samples are `collect()`ed through the driver with dense materialization — overflowing the driver for high `n × d` (its Figure 11 failure mode) |
//!
//! The paper configures all systems identically (same gradients, step
//! sizes and convergence test), so the runners share one gradient-descent
//! loop and differ only in how an iteration draws its units, what each
//! step is charged to the ledger, and the preflight check that can fail a
//! run before it starts. Training times and models are therefore
//! comparable with ML4all's.

use std::time::Instant;

use ml4all_dataflow::{PartitionedDataset, SimEnv};
use ml4all_gd::executor::StopReason;
use ml4all_gd::{GdVariant, Gradient, TrainParams, TrainResult};
use ml4all_linalg::DenseVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod bismarck;
pub mod mllib;
pub mod systemml;

pub use bismarck::BismarckRunner;
pub use mllib::MllibRunner;
pub use systemml::SystemmlRunner;

/// Failure modes the paper observed in the baselines (these are *results*,
/// not panics — Figures 9 and 11 report them).
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// SystemML's dense-block out-of-memory failure ("for all the dense
    /// synthetic datasets SystemML failed with out of memory exceptions").
    OutOfMemory {
        /// System that failed.
        system: &'static str,
        /// Bytes the system attempted to materialize.
        required_bytes: u64,
        /// Its limit.
        limit_bytes: u64,
    },
    /// Bismarck's driver overflow on large `n × d` (rcv1 MGD(10k)/BGD,
    /// svm1 BGD in Figure 11).
    DriverOverflow {
        /// Bytes the fused operator must hold at the driver.
        required_bytes: u64,
        /// Driver memory.
        limit_bytes: u64,
    },
    /// Underlying GD failure (divergence etc.).
    Gd(ml4all_gd::GdError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfMemory {
                system,
                required_bytes,
                limit_bytes,
            } => write!(
                f,
                "{system}: out of memory ({required_bytes} bytes required, {limit_bytes} limit)"
            ),
            Self::DriverOverflow {
                required_bytes,
                limit_bytes,
            } => write!(
                f,
                "bismarck: driver overflow ({required_bytes} bytes required, {limit_bytes} limit)"
            ),
            Self::Gd(e) => write!(f, "gd error: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<ml4all_gd::GdError> for BaselineError {
    fn from(e: ml4all_gd::GdError) -> Self {
        Self::Gd(e)
    }
}

/// How one iteration draws its units from the physical rows.
#[derive(Debug, Clone, Copy)]
enum Draw {
    /// Every unit, in partition-major order.
    All,
    /// Every unit independently with this probability, one RNG draw per
    /// unit (MLlib's `miniBatchFraction` scan).
    Bernoulli(f64),
    /// This many uniform draws with replacement.
    Uniform(usize),
}

impl Draw {
    /// BGD takes every unit; MGD and SGD take `variant.sample_size` units
    /// with replacement (at least one).
    fn with_replacement(variant: GdVariant, n_phys: usize) -> Self {
        match variant {
            GdVariant::Batch => Self::All,
            _ => Self::Uniform((variant.sample_size(n_phys as u64) as usize).max(1)),
        }
    }
}

/// The gradient-descent loop every baseline runs. Each iteration calls
/// `charge_iteration` (the system's own per-iteration prices), charges the
/// update, draws its units, steps, checks divergence, and charges the L1
/// convergence test. `salt` seeds the system's RNG stream.
fn descend(
    data: &PartitionedDataset,
    params: &TrainParams,
    env: &mut SimEnv,
    draw: Draw,
    salt: u64,
    mut charge_iteration: impl FnMut(&mut SimEnv),
) -> Result<TrainResult, BaselineError> {
    let dims = data.descriptor().dims;
    let views: Vec<_> = data.iter_views().collect();
    let mut rng = StdRng::seed_from_u64(params.seed ^ salt);
    let mut weights = DenseVector::zeros(dims);
    let mut prev = weights.clone();
    let mut grad_acc = DenseVector::zeros(dims);
    let mut reg = vec![0.0; dims];
    let mut error_seq = Vec::new();
    let mut iteration = 0u64;
    let wall = params.wall_budget.map(|budget| (Instant::now(), budget));
    let (stop, final_delta) = loop {
        iteration += 1;
        charge_iteration(env);
        env.charge_serial_cpu(1, env.spec.cpu_update_s(dims));

        grad_acc.fill_zero();
        let mut count = 0u64;
        let mut add = |v| {
            params
                .gradient
                .accumulate(weights.as_slice(), v, grad_acc.as_mut_slice());
            count += 1;
        };
        match draw {
            Draw::All => views.iter().for_each(|&v| add(v)),
            Draw::Bernoulli(p) => {
                for &v in &views {
                    if rng.gen::<f64>() < p {
                        add(v);
                    }
                }
            }
            Draw::Uniform(m) => {
                for _ in 0..m {
                    add(views[rng.gen_range(0..views.len())]);
                }
            }
        }
        if count > 0 {
            let alpha = params.step.at(iteration);
            let scale = -alpha / count as f64;
            reg.fill(0.0);
            params.regularizer.accumulate(weights.as_slice(), &mut reg);
            for ((wi, gi), ri) in weights
                .as_mut_slice()
                .iter_mut()
                .zip(grad_acc.as_slice())
                .zip(&reg)
            {
                *wi += scale * gi - alpha * ri;
            }
        }
        if weights.as_slice().iter().any(|w| !w.is_finite()) {
            return Err(ml4all_gd::GdError::Diverged { iteration }.into());
        }

        let delta = weights
            .l1_distance(&prev)
            .expect("dimensions fixed per run");
        env.charge_serial_cpu(1, env.spec.cpu_converge_s(dims));
        prev.clone_from(&weights);
        if params.record_error_seq {
            error_seq.push((iteration, delta));
        }

        if delta < params.tolerance {
            break (StopReason::Converged, delta);
        }
        if iteration >= params.max_iter {
            break (StopReason::MaxIterations, delta);
        }
        if wall.is_some_and(|(start, budget)| start.elapsed() >= budget) {
            break (StopReason::WallBudget, delta);
        }
    };

    Ok(TrainResult {
        weights,
        iterations: iteration,
        stop,
        final_delta,
        cost: env.snapshot(),
        sim_time_s: env.elapsed_s(),
        error_seq,
        sampler_shuffles: 0,
        usage: env.ledger.usage().clone(),
        backend: env.backend().name(),
        rng_stream_version: ml4all_dataflow::RNG_STREAM_VERSION,
        resume_state: None,
    })
}
