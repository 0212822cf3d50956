//! The GD plan executor: wires the seven operators over a partitioned
//! dataset, genuinely iterating the optimization while charging the
//! simulated cost ledger (Equations 3–5) for every phase the paper's cost
//! model accounts for (Equations 7–9).
//!
//! [`execute`] is the loop: preparation (`Stage`, eager `Transform`), then
//! per iteration a wave (`Sample`, `Compute` — fed consecutive slices by
//! [`Batches`]), a tail (`Update`, `Converge`, tick) and a wave
//! boundary where checkpoints, cancellation, `Loop`, replan yields and the
//! wall budget are decided — the same boundary a resumed run starts at.
//! [`execute_plan`] and [`execute_plan_observed`] run it with the reference
//! operators.

use std::time::{Duration, Instant};

use ml4all_dataflow::{
    CancelToken, ColumnStore, ColumnarBuilder, CostBreakdown, ExecState, PartitionedDataset,
    SamplerState, SimEnv, UsageMeter, RNG_STREAM_VERSION,
};
use ml4all_linalg::{DenseVector, FeatureView, PointView};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::context::Context;
use crate::gradient::{Batches, GradientKind, Regularizer};
use crate::operators::{
    ComputeAcc, FixedSample, GdOperators, GradientCompute, IdentityTransform, L1Converge,
    SampleSize, StepUpdate, Support, ToleranceLoop, UpdateOutcome, ZeroStage,
};
use crate::plan::{GdPlan, GdVariant, TransformPolicy};
use crate::step::StepSize;
use crate::GdError;

/// Hyper-parameters and stopping criteria of one training run.
#[derive(Debug, Clone)]
pub struct TrainParams {
    /// Gradient function (Table 3 task).
    pub gradient: GradientKind,
    /// Step-size schedule.
    pub step: StepSize,
    /// Regularizer of Equation 1.
    pub regularizer: Regularizer,
    /// Convergence tolerance ε on the weight delta.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iter: u64,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Record the `(iteration, delta)` error sequence into
    /// [`TrainResult::error_seq`] (costs memory on long runs). Its readers
    /// are the figure binaries, the baselines and tests; engine jobs and
    /// speculation run with this `false`.
    pub record_error_seq: bool,
    /// Optional real wall-clock limit, set only from a request's
    /// `wall_limit`: the run stops at the first wave boundary after it
    /// expires. `None` — every optimizer decision, speculation included —
    /// reads no clock.
    pub wall_budget: Option<Duration>,
}

impl TrainParams {
    /// Defaults matching the paper's cross-system experiments: `β/√i` step
    /// with β = 1, no regularizer, tolerance 1e-3, max 1 000 iterations.
    pub fn paper_defaults(gradient: GradientKind) -> Self {
        Self {
            gradient,
            step: StepSize::paper_default(),
            regularizer: Regularizer::None,
            tolerance: 1e-3,
            max_iter: 1000,
            seed: 0,
            record_error_seq: true,
            wall_budget: None,
        }
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The convergence delta fell below the tolerance.
    Converged,
    /// The iteration cap was reached.
    MaxIterations,
    /// The request's wall-clock limit ([`TrainParams::wall_budget`]) ran
    /// out.
    WallBudget,
    /// A cooperative cancellation request ([`ExecHooks::cancel`]) was
    /// observed at a wave boundary. The result carries the state as of
    /// the last completed iteration — bit-identical to an uninterrupted
    /// run capped at that iteration count.
    Cancelled,
    /// The replan predicate ([`ExecHooks::replan`]) requested a yield at a
    /// tick boundary: the caller wants to re-run the plan chooser with
    /// fresh cost observations and possibly continue under a different
    /// plan. The result carries the full resume state
    /// ([`TrainResult::resume_state`]) of the boundary, so the continued
    /// run — same plan or not — is bit-identical to one that had chosen
    /// that continuation from the start.
    Replan,
}

/// One convergence checkpoint handed to [`ExecHooks::on_tick`]: the
/// iteration just completed, its convergence delta, and a snapshot of the
/// simulated cost ledger at that point.
#[derive(Debug, Clone)]
pub struct IterationTick {
    /// Iteration that just completed (1-based).
    pub iteration: u64,
    /// Convergence delta of that iteration.
    pub delta: f64,
    /// Simulated seconds elapsed so far.
    pub sim_time_s: f64,
    /// Cost ledger snapshot at the checkpoint.
    pub cost: CostBreakdown,
}

/// Cooperative observation hooks, checked at iteration (wave) boundaries:
/// the executor never interrupts a wave in flight, so a cancelled run
/// stops within one wave and its result is exactly the prefix an
/// uninterrupted run would have produced.
#[derive(Default)]
pub struct ExecHooks<'a> {
    /// Cancellation token. When latched, the loop breaks at the next
    /// iteration boundary with [`StopReason::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Emit an [`IterationTick`] every this many *converged-checked*
    /// iterations (0 = never). Internal-only iterations (line-search
    /// shrinks) do not tick.
    pub tick_every: u64,
    /// Checkpoint callback (progress streaming).
    pub on_tick: Option<&'a (dyn Fn(IterationTick) + Sync)>,
    /// Capture an [`ExecState`] durability checkpoint every this many
    /// converge-checked iterations (0 = never). Checkpoints are taken at
    /// wave boundaries, after the iteration's update and tick.
    pub checkpoint_every: u64,
    /// Durability-checkpoint callback: receives the full executor state at
    /// the boundary, sufficient to resume the run bit-identically. The
    /// hook owns the state: it may hand it off to be persisted later (or
    /// dropped, once a newer one supersedes it) rather than persist it
    /// inline, so the wave need not wait on storage.
    pub on_checkpoint: Option<&'a (dyn Fn(ExecState) + Sync)>,
    /// Resume from a previously captured [`ExecState`] instead of starting
    /// at iteration 0. The preparation phase (stage/transform) re-runs —
    /// it is deterministic — and then the ledger, RNG, sampler, and model
    /// state are restored to the boundary, so the continued run is
    /// bit-identical to the uninterrupted one. A cancel latched before the
    /// first resumed wave returns the checkpoint's exact prefix
    /// (iteration count unchanged), unlike a cold start which always runs
    /// one wave first.
    pub resume: Option<ExecState>,
    /// Mid-flight replanning predicate, evaluated on exactly the ticks
    /// [`ExecHooks::on_tick`] sees (so the decision is a pure function of
    /// the tick stream — deterministic across worker counts, backends, and
    /// kill/resume). Returning `true` stops the loop at that wave boundary
    /// with [`StopReason::Replan`] and the boundary's full
    /// [`ExecState`] in [`TrainResult::resume_state`]. Cancellation and
    /// natural convergence take precedence over a pending replan.
    pub replan: Option<&'a (dyn Fn(&IterationTick) -> bool + Sync)>,
}

/// Outcome of one training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Final model vector.
    pub weights: DenseVector,
    /// Iterations executed.
    pub iterations: u64,
    /// Why the loop stopped.
    pub stop: StopReason,
    /// Final convergence delta.
    pub final_delta: f64,
    /// Simulated cost breakdown charged during the run.
    pub cost: CostBreakdown,
    /// Total simulated seconds (the paper's "training time").
    pub sim_time_s: f64,
    /// `(iteration, delta)` pairs (empty unless requested).
    pub error_seq: Vec<(u64, f64)>,
    /// Partition shuffles triggered by the shuffled-partition sampler.
    pub sampler_shuffles: usize,
    /// Physical usage metered by the backend (empty on the local backend):
    /// tuples scanned, bytes shuffled, busy seconds per simulated node.
    pub usage: UsageMeter,
    /// Stable label of the backend the run executed on.
    pub backend: &'static str,
    /// RNG stream layout this run's seed reproduces under (see
    /// [`ml4all_dataflow::RNG_STREAM_VERSION`]): same-seed runs are bit
    /// identical only within one stream version.
    pub rng_stream_version: u32,
    /// Full resume state of the final wave boundary, captured only when
    /// the run yielded with [`StopReason::Replan`]: hand it back via
    /// [`ExecHooks::resume`] (under the same or a different plan) to
    /// continue bit-identically from the yield point.
    pub resume_state: Option<Box<ExecState>>,
}

impl TrainResult {
    /// `true` when the run hit the tolerance.
    pub fn converged(&self) -> bool {
        self.stop == StopReason::Converged
    }
}

/// Build the reference operator bundle for a plan (Figures 3a/3b wiring).
pub fn reference_operators(plan: &GdPlan, params: &TrainParams, dims: usize) -> GdOperators {
    let sample_size = match plan.variant {
        GdVariant::Batch => SampleSize::All,
        GdVariant::Stochastic => SampleSize::Units(1),
        GdVariant::MiniBatch { batch } => SampleSize::Units(batch),
    };
    GdOperators {
        transform: Box::new(IdentityTransform),
        stage: Box::new(ZeroStage { dims }),
        compute: Box::new(GradientCompute::of(params.gradient)),
        update: Box::new(StepUpdate {
            step: params.step,
            regularizer: params.regularizer,
        }),
        sample: Box::new(FixedSample { size: sample_size }),
        converge: Box::new(L1Converge),
        loop_op: Box::new(ToleranceLoop {
            tolerance: params.tolerance,
            max_iter: params.max_iter,
        }),
    }
}

/// Execute a plan with the reference operators.
pub fn execute_plan(
    plan: &GdPlan,
    data: &PartitionedDataset,
    params: &TrainParams,
    env: &mut SimEnv,
) -> Result<TrainResult, GdError> {
    execute_plan_observed(plan, data, params, env, &ExecHooks::default())
}

/// Execute a plan with the reference operators under observation hooks:
/// per-K-iteration convergence ticks and cooperative cancellation, both
/// honoured at wave boundaries.
pub fn execute_plan_observed(
    plan: &GdPlan,
    data: &PartitionedDataset,
    params: &TrainParams,
    env: &mut SimEnv,
    hooks: &ExecHooks<'_>,
) -> Result<TrainResult, GdError> {
    let dims = data.descriptor().dims;
    let ops = reference_operators(plan, params, dims);
    execute(plan, data, &ops, params, env, hooks)
}

/// One partition's reusable compute state: the partial aggregate, the
/// buffer a lazily transformed unit is written to, and an error slot for
/// transforms that fail mid-wave.
struct PartialSlot {
    acc: ComputeAcc,
    unit: Vec<f64>,
    error: Option<GdError>,
}

/// Per-partition scratch accumulators, allocated on the first batch wave
/// (`SampleSize::All`; a sampled run never allocates them) and reused by
/// every later one: a later wave performs no heap allocation at any
/// worker count (the pool queues its chunks as plain records, not boxes).
struct WaveScratch {
    slots: Vec<PartialSlot>,
}

impl WaveScratch {
    fn new(partitions: usize, dims: usize) -> Self {
        Self {
            slots: (0..partitions)
                .map(|_| PartialSlot {
                    acc: ComputeAcc::new(dims),
                    unit: Vec::new(),
                    error: None,
                })
                .collect(),
        }
    }

    fn slots_mut(&mut self) -> &mut [PartialSlot] {
        &mut self.slots
    }

    /// Reduce the wave: surface the first error in partition order, then
    /// merge partials left-to-right (bit-identical at any worker count).
    fn merge_into(&mut self, acc: &mut ComputeAcc) -> Result<(), GdError> {
        for slot in &mut self.slots {
            if let Some(e) = slot.error.take() {
                return Err(e);
            }
        }
        for slot in &self.slots {
            acc.merge(&slot.acc);
        }
        Ok(())
    }
}

/// Run `Transform` on one unit, writing into `scratch` if it must. The
/// result must keep the dataset's declared dimensionality: the model
/// vector is sized from the descriptor, so a wider unit would index past
/// the weights (and a narrower one silently drop features).
fn transform_unit<'a>(
    ops: &GdOperators,
    unit: PointView<'a>,
    ctx: &Context,
    dims: usize,
    scratch: &'a mut Vec<f64>,
) -> Result<PointView<'a>, GdError> {
    let t = ops.transform.transform(unit, ctx, scratch)?;
    if t.dim() != dims {
        return Err(GdError::InvalidPlan(format!(
            "transform produced a {}-dimensional unit but the dataset declares {dims}",
            t.dim()
        )));
    }
    Ok(t)
}

/// A sampled wave must read this many times fewer stored entries than the
/// model is wide for its iteration tail to run over the wave's support
/// instead of over all `d` coordinates. Measured (CHANGES.md, PR 13) on
/// CSR sets of d = 2 000, 20 000 and 100 000 at 10, 30 and 60 stored
/// entries per row, batch 1 to 500: the support tail — a sort, a dedup and
/// five gather passes — costs about 15 ns per stored entry, the dense
/// tail's five streaming passes 1.2–1.9 ns per coordinate, and the two
/// cross near `d / 10` at all three widths. The constant sits below that
/// crossing, where the support tail won every measurement.
const SUPPORT_TAIL_CROSSOVER: usize = 16;

/// The coordinates a sampled wave's rows store, collected while the wave
/// is small and sparse — the observation that selects the
/// support-proportional iteration tail.
struct WaveSupport {
    indices: Vec<u32>,
    /// Most stored entries a wave may read and still take the support tail.
    limit: usize,
    tracking: bool,
}

impl WaveSupport {
    fn new(dims: usize) -> Self {
        Self {
            indices: Vec::new(),
            limit: dims / SUPPORT_TAIL_CROSSOVER,
            tracking: false,
        }
    }

    /// Start a wave; `eligible` is whether the ops and the loop state allow
    /// the support tail at all this iteration.
    fn begin(&mut self, eligible: bool) {
        self.indices.clear();
        self.tracking = eligible;
    }

    /// Record sampled rows. A dense row, or one entry too many, ends the
    /// tracking: the wave takes the dense tail. Taking a batch keeps the
    /// untracked case — every wide or dense wave — at one branch per batch.
    #[inline]
    fn note(&mut self, rows: &[PointView<'_>]) {
        if !self.tracking {
            return;
        }
        for row in rows {
            match row.features {
                FeatureView::Sparse { indices, .. }
                    if self.indices.len() + indices.len() <= self.limit =>
                {
                    self.indices.extend_from_slice(indices);
                }
                _ => {
                    self.tracking = false;
                    return;
                }
            }
        }
    }

    /// The wave's support: sorted and de-duplicated if it was tracked to
    /// the end and the op kept its no-`secondary` promise.
    fn finish(&mut self, acc: &ComputeAcc) -> Support<'_> {
        if !self.tracking || acc.secondary.is_some() {
            return Support::All;
        }
        self.indices.sort_unstable();
        self.indices.dedup();
        Support::Indices(&self.indices)
    }
}

/// Run the compute operator over a partition's rows, cut into slices from
/// its first row — so the pass is deterministic and worker-count-independent.
fn compute_over<'a>(
    rows: impl Iterator<Item = PointView<'a>>,
    ops: &GdOperators,
    ctx: &Context,
    acc: &mut ComputeAcc,
) {
    let mut batches = Batches::new(rows);
    while let Some(units) = batches.next_batch() {
        ops.compute.compute(units, ctx, acc);
    }
}

/// Execute a plan with a custom operator bundle — the extension point that
/// SVRG, line search, and user-defined algorithms plug into — under
/// observation hooks (ticks, checkpoints, cancellation and replan yields,
/// all honoured at wave boundaries; [`ExecHooks::default`] for none).
pub fn execute(
    plan: &GdPlan,
    data: &PartitionedDataset,
    ops: &GdOperators,
    params: &TrainParams,
    env: &mut SimEnv,
    hooks: &ExecHooks<'_>,
) -> Result<TrainResult, GdError> {
    validate(plan)?;
    let wall = params.wall_budget.map(|budget| (Instant::now(), budget));
    let desc = data.descriptor().clone();
    let dims = desc.dims;
    let distributed = !desc.fits_one_partition(&env.spec);
    let mut rng = StdRng::seed_from_u64(params.seed);

    env.charge_job_init();

    // ---- Preparation phase: Stage (+ optional global-stats scan) ----
    let mut ctx = Context::new(dims);
    let staged = if ops.stage.needs_full_scan() {
        env.charge_transform_scan(&desc);
        data.sample_rows(4096, params.seed ^ 0x5747_4167)
    } else {
        ColumnStore::empty()
    };
    ops.stage.stage(&mut ctx, &staged);
    env.charge_stage(&desc);
    if ctx.dims != dims {
        return Err(GdError::InvalidPlan(format!(
            "stage set dims {} but dataset has {}",
            ctx.dims, dims
        )));
    }

    // ---- Preparation phase: eager Transform ----
    // The partitions the waves read: the dataset's own, or a materialized
    // transformed copy (also columnar) with the same `(partition, offset)`
    // coordinates.
    if plan.transform == TransformPolicy::Eager {
        env.charge_transform_scan(&desc);
    }
    let mut transformed: Vec<ColumnStore>;
    let parts: &[ColumnStore] =
        if plan.transform == TransformPolicy::Eager && !ops.transform.is_identity() {
            // The transform pass is a wave over the partitions (the CPU
            // charge above models exactly that); materialize each
            // partition's transformed copy — in columnar form — on the
            // shared worker pool.
            let results: Vec<Result<ColumnStore, GdError>> =
                env.runtime().map_indexed(data.partitions(), |_pi, part| {
                    let part_dims = part.dims();
                    // Dense pre-sizing only for dense sources: a dense
                    // pre-allocation would outlive a CSR layout upgrade.
                    let mut b = if part.as_dense().is_some() {
                        ColumnarBuilder::with_dense_capacity(part.len(), part_dims)
                    } else {
                        ColumnarBuilder::new()
                    };
                    let mut unit = Vec::new();
                    for v in part.iter() {
                        b.push_view(transform_unit(ops, v, &ctx, dims, &mut unit)?);
                    }
                    Ok(b.finish_with_dims(part_dims))
                });
            transformed = Vec::with_capacity(results.len());
            for partition in results {
                transformed.push(partition?);
            }
            &transformed
        } else {
            data.partitions()
        };

    // ---- Iterative phases: processing + convergence ----
    let mut sampler = plan.sampling.map(SamplerState::new);
    let mut prev_weights = ctx.weights.clone();
    let mut acc = ComputeAcc::new(dims);
    let mut error_seq = Vec::new();
    if params.record_error_seq {
        error_seq.reserve(params.max_iter.min(8192) as usize);
    }
    let mut final_delta = f64::INFINITY;
    // Resume: the deterministic preparation above re-ran from scratch;
    // now jump the mutable loop state to the checkpointed boundary. The
    // restored ledger already contains the original run's preparation
    // charges, so totals continue bit-identically.
    if let Some(rs) = &hooks.resume {
        if rs.weights.len() != dims {
            return Err(GdError::InvalidPlan(format!(
                "resume state has {} weights but the dataset declares {dims} dims",
                rs.weights.len()
            )));
        }
        ctx.iteration = rs.iteration;
        ctx.weights = DenseVector::new(rs.weights.clone());
        prev_weights = DenseVector::new(rs.prev_weights.clone());
        rng = StdRng::from_state(rs.rng_state);
        if let Some(snap) = &rs.sampler {
            sampler = Some(SamplerState::restore(snap));
        }
        env.ledger.restore(rs.cost, rs.usage.clone());
        final_delta = rs.final_delta;
        if params.record_error_seq {
            error_seq.extend_from_slice(&rs.error_seq);
        }
    }
    // Reused across every iteration: per-partition wave scratch (created
    // by the first batch wave), the sampled-coordinate and wave-support
    // buffers, the previous-weights copy, and the error sequence's backing
    // storage — the steady-state loop allocates nothing per iteration, at
    // any worker count (bar the shuffled-partition sampler's order buffer
    // growing when a reshuffle lands on a larger partition).
    let mut scratch: Option<WaveScratch> = None;
    let mut wave_support = WaveSupport::new(dims);
    let compute_writes_only_stored_indices = ops.compute.writes_only_stored_indices();
    // What lets a tail skip coordinates the wave did not touch: off the
    // support the weights were finite and equal to `prev_weights` before
    // the wave, so they still are. True of a staged or checkpointed model;
    // re-established by every dense tail, and lost only when an update
    // reports `InternalOnly` without saying it changed nothing.
    let mut tail_may_skip = !ctx.weights_diverged()
        && (ctx.weights.as_slice().iter())
            .zip(prev_weights.as_slice())
            .all(|(w, p)| w.to_bits() == p.to_bits());
    // Physical rows per partition, fixed for the whole run: the
    // simulated-cluster backend meters each batch wave against this
    // placement (computed once — the loop stays allocation-free).
    let wave_units: Vec<u64> = parts.iter().map(|p| p.len() as u64).collect();
    let model_bytes = (dims as u64) * 8;
    let mut coords: Vec<(usize, usize)> = Vec::new();
    let unit_bytes = desc.unit_bytes().ceil() as u64;
    let lazy_transform = plan.transform == TransformPolicy::Lazy && !ops.transform.is_identity();
    // A lazily transformed sampled unit's buffer, reused across waves.
    let mut driver_unit = Vec::new();
    // The wave boundary the loop stands at: the delta the last iteration
    // left to decide on (infinite after an internal-only one) and whether
    // a durability checkpoint falls due here. A cold start has none before
    // its first wave; a resumed run starts *at* the checkpointed boundary,
    // so a cancel latched between restore and the first wave yields the
    // checkpoint's exact prefix, and a checkpoint taken at a stopping
    // condition does not run extra iterations.
    let mut boundary = hooks.resume.as_ref().map(|rs| (rs.final_delta, false));
    let mut replan_requested = false;
    let mut resume_state: Option<Box<ExecState>> = None;

    let stop = loop {
        if let Some((delta, checkpoint_due)) = boundary {
            // Everything the loop mutates, sufficient to continue from
            // this boundary bit-identically.
            let capture = || ExecState {
                iteration: ctx.iteration,
                weights: ctx.weights.as_slice().to_vec(),
                prev_weights: prev_weights.as_slice().to_vec(),
                final_delta,
                error_seq: error_seq.clone(),
                rng_state: rng.state(),
                sampler: sampler.as_ref().map(SamplerState::snapshot),
                cost: env.snapshot(),
                usage: env.ledger.usage().clone(),
            };
            if let (true, Some(on_checkpoint)) = (checkpoint_due, hooks.on_checkpoint) {
                on_checkpoint(capture());
            }
            // Cooperative cancellation: observed once per iteration, after
            // the wave in flight completed — never mid-wave — so the result
            // is the exact prefix of an uninterrupted run.
            if hooks.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                break StopReason::Cancelled;
            }
            if !ops.loop_op.should_continue(delta, &ctx) {
                break if delta < params.tolerance {
                    StopReason::Converged
                } else {
                    StopReason::MaxIterations
                };
            }
            // Replan yield: only after cancellation and natural stopping
            // have had their say — a converged run never replans.
            if replan_requested {
                resume_state = Some(Box::new(capture()));
                break StopReason::Replan;
            }
            if wall.is_some_and(|(start, budget)| start.elapsed() >= budget) {
                break StopReason::WallBudget;
            }
        }
        ctx.iteration += 1;
        let size = ops.sample.size(&ctx);
        let aggregate = matches!(size, SampleSize::All);
        // On multi-partition data every iteration drives at least one
        // distributed action (a scan, a sample job, or a block fetch), so
        // it pays a stage launch; single-partition data loops at the
        // driver.
        env.charge_iteration_overhead(distributed);
        // `acc` is all-zero here: fresh on entry, cleared by every tail.
        wave_support.begin(
            compute_writes_only_stored_indices
                && tail_may_skip
                && matches!(size, SampleSize::Units(_)),
        );

        match size {
            SampleSize::All => {
                // Full scan: a batch iteration under lazy transformation
                // (SVRG's anchor iterations) transforms on the fly.
                let per_unit_s =
                    env.charge_compute_scan(&desc, plan.transform == TransformPolicy::Lazy);
                // The gradient wave the CPU charge models, executed for
                // real: each partition accumulates into its reused scratch
                // slot on the shared worker pool, and the partials reduce
                // in partition order — bit-identical at any worker count.
                let ctx_ref = &ctx;
                let scratch = scratch.get_or_insert_with(|| WaveScratch::new(parts.len(), dims));
                env.runtime()
                    .scatter_indexed(scratch.slots_mut(), |pi, slot| {
                        slot.acc.reset();
                        slot.error = None;
                        let cols = &parts[pi];
                        if lazy_transform {
                            // A lazily transformed unit is a unit of its
                            // own: `Compute` scores it singly.
                            for v in cols.iter() {
                                match transform_unit(ops, v, ctx_ref, dims, &mut slot.unit) {
                                    Ok(t) => ops.compute.compute(&[t], ctx_ref, &mut slot.acc),
                                    Err(e) => {
                                        slot.error = Some(e);
                                        return;
                                    }
                                }
                            }
                        } else {
                            // Dense slabs hand out rows straight off the
                            // raw columns: one enum match per partition
                            // instead of one per row.
                            match cols.as_dense() {
                                Some((labels, values, d)) => compute_over(
                                    (0..labels.len()).map(|i| {
                                        let row = &values[i * d..(i + 1) * d];
                                        PointView::new(labels[i], FeatureView::Dense(row))
                                    }),
                                    ops,
                                    ctx_ref,
                                    &mut slot.acc,
                                ),
                                None => compute_over(cols.iter(), ops, ctx_ref, &mut slot.acc),
                            }
                        }
                    });
                scratch.merge_into(&mut acc)?;
                // One broadcast/aggregate wave on the cluster backend:
                // meter the physical work each node just performed at the
                // per-unit seconds the scan charged.
                env.meter_cluster_wave(&wave_units, per_unit_s, model_bytes);
            }
            SampleSize::Units(m) => {
                let sampler = sampler.as_mut().ok_or_else(|| {
                    GdError::InvalidPlan(
                        "plan has no sampling strategy but the sample operator requested units"
                            .into(),
                    )
                })?;
                sampler.draw_into(data, m, env, &mut rng, &mut coords)?;
                let drawn = coords.len() as u64;
                if plan.transform == TransformPolicy::Lazy {
                    env.charge_transform_units(&desc, drawn);
                }
                // Hybrid execution: the (small) sample is shipped to the
                // driver, computed and updated there (Appendix D).
                env.meter_cluster_sample(drawn, unit_bytes);
                env.charge_compute_units(&desc, drawn);
                // Fused sampler→gradient pass: the freshly drawn
                // coordinates feed straight into `Compute`, cut from the
                // first draw, with no intermediate materialization. A
                // coordinate outside the store ends the wave.
                let mut missing = None;
                let views = coords.iter().map_while(|&(pi, oi)| {
                    let view = parts.get(pi).and_then(|p| p.view(oi));
                    if view.is_none() {
                        missing = Some(ml4all_dataflow::DataflowError::PartitionOutOfBounds {
                            index: pi,
                            partitions: data.num_partitions(),
                        });
                    }
                    view
                });
                if lazy_transform {
                    for v in views {
                        let t = transform_unit(ops, v, &ctx, dims, &mut driver_unit)?;
                        wave_support.note(&[t]);
                        ops.compute.compute(&[t], &ctx, &mut acc);
                    }
                } else {
                    let mut batches = Batches::new(views);
                    while let Some(units) = batches.next_batch() {
                        wave_support.note(units);
                        ops.compute.compute(units, &ctx, &mut acc);
                    }
                }
                if let Some(e) = missing {
                    return Err(e.into());
                }
            }
        }

        // The iteration tail, written once over a support: everything the
        // wave can have touched (`written`), then everything the update
        // says it changed (`changed`). Both are all of `d` unless the wave
        // and the ops qualified for less.
        let written = wave_support.finish(&acc);
        let (outcome, changed) = ops.update.update_on(&acc, &mut ctx, written);
        // An op's word on what it changed helps only while the rest of the
        // model is known good.
        let changed = if tail_may_skip { changed } else { Support::All };
        acc.reset_on(written);
        env.charge_update(&desc, aggregate);
        if changed.any_non_finite(ctx.weights.as_slice()) {
            return Err(GdError::Diverged {
                iteration: ctx.iteration,
            });
        }

        boundary = Some(match outcome {
            UpdateOutcome::Updated => {
                let d = ops.converge.converge_on(&prev_weights, &ctx, changed);
                env.charge_converge(&desc);
                changed.copy(&mut prev_weights, &ctx.weights);
                tail_may_skip = true;
                final_delta = d;
                if params.record_error_seq {
                    error_seq.push((ctx.iteration, d));
                }
                if hooks.tick_every > 0 && ctx.iteration.is_multiple_of(hooks.tick_every) {
                    let tick = IterationTick {
                        iteration: ctx.iteration,
                        delta: d,
                        sim_time_s: env.elapsed_s(),
                        cost: env.snapshot(),
                    };
                    if let Some(on_tick) = hooks.on_tick {
                        on_tick(tick.clone());
                    }
                    // The replan predicate sees exactly the tick stream,
                    // so its verdict is identical on every worker count,
                    // backend, and resumed continuation of this run.
                    if let Some(replan) = hooks.replan {
                        replan_requested = replan(&tick);
                    }
                }
                // Durability checkpoints fall on converge-checked
                // iterations, after the update, the convergence
                // bookkeeping and the tick.
                let checkpoint_due = hooks.checkpoint_every > 0
                    && ctx.iteration.is_multiple_of(hooks.checkpoint_every);
                (d, checkpoint_due)
            }
            // Internal-only iterations (line-search shrinks) skip the
            // convergence check; an infinite delta keeps the loop going.
            UpdateOutcome::InternalOnly => {
                tail_may_skip &= changed == Support::Indices(&[]);
                (f64::INFINITY, false)
            }
        });
    };

    Ok(TrainResult {
        weights: ctx.weights,
        iterations: ctx.iteration,
        stop,
        final_delta,
        cost: env.snapshot(),
        sim_time_s: env.elapsed_s(),
        error_seq,
        sampler_shuffles: sampler.map(|s| s.shuffles()).unwrap_or(0),
        usage: env.ledger.usage().clone(),
        backend: env.backend().name(),
        rng_stream_version: RNG_STREAM_VERSION,
        resume_state,
    })
}

fn validate(plan: &GdPlan) -> Result<(), GdError> {
    match plan.variant {
        GdVariant::Batch => {
            if plan.sampling.is_some() {
                return Err(GdError::InvalidPlan("BGD does not sample".into()));
            }
            if plan.transform == TransformPolicy::Lazy {
                return Err(GdError::InvalidPlan(
                    "BGD touches every unit every iteration; lazy transformation never pays off"
                        .into(),
                ));
            }
        }
        GdVariant::Stochastic | GdVariant::MiniBatch { .. } => {
            if plan.sampling.is_none() {
                return Err(GdError::InvalidPlan(
                    "stochastic variants need a sampling strategy".into(),
                ));
            }
            if plan.transform == TransformPolicy::Lazy
                && plan.sampling == Some(ml4all_dataflow::SamplingMethod::Bernoulli)
            {
                return Err(GdError::InvalidPlan(
                    "lazy transformation with Bernoulli sampling is never beneficial".into(),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod scratch_tests {
    use super::*;

    #[test]
    fn wave_scratch_accumulators_are_reused_across_waves() {
        let mut scratch = WaveScratch::new(4, 8);
        let ptrs: Vec<*const f64> = scratch
            .slots
            .iter()
            .map(|s| s.acc.primary.as_slice().as_ptr())
            .collect();
        let mut acc = ComputeAcc::new(8);
        for wave in 0..5 {
            for (pi, slot) in scratch.slots_mut().iter_mut().enumerate() {
                slot.acc.reset();
                slot.error = None;
                slot.acc.primary[0] = (wave * 10 + pi) as f64;
                slot.acc.count = 1;
            }
            acc.reset();
            scratch.merge_into(&mut acc).unwrap();
            assert_eq!(acc.count, 4);
            assert_eq!(acc.primary[0], (4 * (wave * 10) + 6) as f64);
        }
        let after: Vec<*const f64> = scratch
            .slots
            .iter()
            .map(|s| s.acc.primary.as_slice().as_ptr())
            .collect();
        assert_eq!(ptrs, after, "scratch accumulators must not reallocate");
    }

    #[test]
    fn wave_scratch_surfaces_errors_in_partition_order() {
        let mut scratch = WaveScratch::new(3, 2);
        scratch.slots[2].error = Some(GdError::InvalidPlan("later".into()));
        scratch.slots[1].error = Some(GdError::InvalidPlan("first".into()));
        let mut acc = ComputeAcc::new(2);
        match scratch.merge_into(&mut acc) {
            Err(GdError::InvalidPlan(msg)) => assert_eq!(msg, "first"),
            other => panic!("expected the earliest partition's error, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml4all_dataflow::{ClusterSpec, PartitionScheme, SamplingMethod};
    use rand::Rng;

    /// Linearly separable 2-D classification points around the separator
    /// x0 - x1 = 0, with an always-on bias feature.
    fn separable_points(n: usize, seed: u64) -> ColumnStore {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x0: f64 = rng.gen_range(-1.0..1.0);
                let x1: f64 = rng.gen_range(-1.0..1.0);
                let label = if x0 - x1 > 0.0 { 1.0 } else { -1.0 };
                (label, [x0, x1, 1.0])
            })
            .collect()
    }

    fn dataset(n: usize) -> PartitionedDataset {
        PartitionedDataset::from_columns(
            "separable",
            &separable_points(n, 7),
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap()
    }

    fn env() -> SimEnv {
        SimEnv::new(ClusterSpec::paper_testbed())
    }

    fn accuracy(weights: &DenseVector, points: &ColumnStore) -> f64 {
        let correct = points
            .iter()
            .filter(|p| {
                let score = p.features.dot(weights.as_slice());
                (score >= 0.0) == (p.label > 0.0)
            })
            .count();
        correct as f64 / points.len() as f64
    }

    #[test]
    fn bgd_converges_on_separable_svm() {
        let data = dataset(2000);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.01;
        params.max_iter = 2000;
        let mut env = env();
        let result = execute_plan(&GdPlan::bgd(), &data, &params, &mut env).unwrap();
        assert!(result.converged(), "stop = {:?}", result.stop);
        let pts = separable_points(500, 99);
        assert!(accuracy(&result.weights, &pts) > 0.9);
        assert!(result.sim_time_s > 0.0);
        assert_eq!(result.error_seq.len() as u64, result.iterations);
    }

    #[test]
    fn sgd_trains_a_usable_model() {
        let data = dataset(2000);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        // Tolerance 0 forces the full iteration budget: with a hinge loss a
        // single zero-gradient sample would otherwise stop SGD immediately
        // (the same effect behind the paper's 4-8 iteration SGD runs on the
        // dense synthetic datasets, Table 4).
        params.tolerance = 0.0;
        params.max_iter = 3000;
        let plan = GdPlan::sgd(TransformPolicy::Lazy, SamplingMethod::ShuffledPartition).unwrap();
        let mut env = env();
        let result = execute_plan(&plan, &data, &params, &mut env).unwrap();
        let pts = separable_points(500, 99);
        assert!(
            accuracy(&result.weights, &pts) > 0.85,
            "accuracy {}",
            accuracy(&result.weights, &pts)
        );
    }

    #[test]
    fn mgd_converges_with_all_samplers() {
        for sampling in [
            SamplingMethod::Bernoulli,
            SamplingMethod::RandomPartition,
            SamplingMethod::ShuffledPartition,
        ] {
            let data = dataset(2000);
            let mut params = TrainParams::paper_defaults(GradientKind::Svm);
            params.max_iter = 500;
            params.tolerance = 1e-3;
            let plan = GdPlan::mgd(100, TransformPolicy::Eager, sampling).unwrap();
            let mut env = env();
            let result = execute_plan(&plan, &data, &params, &mut env).unwrap();
            let pts = separable_points(500, 99);
            assert!(
                accuracy(&result.weights, &pts) > 0.85,
                "{sampling:?}: accuracy {}",
                accuracy(&result.weights, &pts)
            );
        }
    }

    #[test]
    fn logistic_regression_reduces_loss() {
        let data = dataset(1000);
        let params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
        let mut env = env();
        let result = execute_plan(&GdPlan::bgd(), &data, &params, &mut env).unwrap();
        let initial = crate::objective::partitioned_loss(
            &GradientKind::LogisticRegression,
            &Regularizer::None,
            &[0.0; 3],
            &data,
        );
        let trained = crate::objective::partitioned_loss(
            &GradientKind::LogisticRegression,
            &Regularizer::None,
            result.weights.as_slice(),
            &data,
        );
        assert!(trained < initial * 0.7, "loss {initial} -> {trained}");
    }

    #[test]
    fn linear_regression_fits_a_line() {
        // y = 3 x + 1 with slight noise.
        let mut rng = StdRng::seed_from_u64(11);
        let points = (0..500)
            .map(|_| {
                let x: f64 = rng.gen_range(-1.0..1.0);
                let y = 3.0 * x + 1.0 + rng.gen_range(-0.01..0.01);
                (y, [x, 1.0])
            })
            .collect();
        let data = PartitionedDataset::from_columns(
            "line",
            &points,
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap();
        let mut params = TrainParams::paper_defaults(GradientKind::LinearRegression);
        params.max_iter = 2000;
        params.tolerance = 1e-6;
        params.step = StepSize::Constant(0.25);
        let mut env = env();
        let result = execute_plan(&GdPlan::bgd(), &data, &params, &mut env).unwrap();
        assert!(
            (result.weights[0] - 3.0).abs() < 0.05,
            "slope {}",
            result.weights[0]
        );
        assert!(
            (result.weights[1] - 1.0).abs() < 0.05,
            "intercept {}",
            result.weights[1]
        );
    }

    #[test]
    fn divergence_is_reported_as_error() {
        let data = dataset(100);
        let mut params = TrainParams::paper_defaults(GradientKind::LinearRegression);
        params.step = StepSize::Constant(1e6); // absurd step → blow-up
        let mut env = env();
        let err = execute_plan(&GdPlan::bgd(), &data, &params, &mut env).unwrap_err();
        assert!(matches!(err, GdError::Diverged { .. }));
    }

    #[test]
    fn invalid_plans_are_rejected_by_executor() {
        let data = dataset(10);
        let params = TrainParams::paper_defaults(GradientKind::Svm);
        let mut env = env();
        let bad = GdPlan {
            variant: GdVariant::Batch,
            transform: TransformPolicy::Lazy,
            sampling: None,
        };
        assert!(matches!(
            execute_plan(&bad, &data, &params, &mut env),
            Err(GdError::InvalidPlan(_))
        ));
        let bad2 = GdPlan {
            variant: GdVariant::Stochastic,
            transform: TransformPolicy::Eager,
            sampling: None,
        };
        assert!(matches!(
            execute_plan(&bad2, &data, &params, &mut env),
            Err(GdError::InvalidPlan(_))
        ));
    }

    #[test]
    fn max_iterations_stop_is_reported() {
        let data = dataset(500);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0; // unreachable
        params.max_iter = 10;
        let mut env = env();
        let result = execute_plan(&GdPlan::bgd(), &data, &params, &mut env).unwrap();
        assert_eq!(result.iterations, 10);
        assert_eq!(result.stop, StopReason::MaxIterations);
        assert!(!result.converged());
    }

    #[test]
    fn ticks_fire_every_k_checked_iterations_with_ledger_snapshots() {
        let data = dataset(500);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0;
        params.max_iter = 25;
        let ticks = std::sync::Mutex::new(Vec::new());
        let on_tick = |t: IterationTick| ticks.lock().unwrap().push(t);
        let hooks = ExecHooks {
            cancel: None,
            tick_every: 10,
            on_tick: Some(&on_tick),
            ..Default::default()
        };
        let mut env = env();
        let result =
            execute_plan_observed(&GdPlan::bgd(), &data, &params, &mut env, &hooks).unwrap();
        let ticks = ticks.into_inner().unwrap();
        assert_eq!(
            ticks.iter().map(|t| t.iteration).collect::<Vec<_>>(),
            vec![10, 20]
        );
        // Ticks snapshot a monotonically advancing ledger, and the
        // reported deltas are the error sequence's entries.
        assert!(ticks[0].sim_time_s < ticks[1].sim_time_s);
        assert!(ticks[1].sim_time_s <= result.sim_time_s);
        for t in &ticks {
            let (_, d) = result.error_seq[t.iteration as usize - 1];
            assert_eq!(t.delta.to_bits(), d.to_bits());
            assert!(t.cost.total_s() > 0.0);
        }
    }

    #[test]
    fn cancellation_stops_at_the_next_wave_boundary_with_an_exact_prefix() {
        let data = dataset(800);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0;
        params.max_iter = 50;

        let mut env_full = env();
        let full = execute_plan(&GdPlan::bgd(), &data, &params, &mut env_full).unwrap();

        // Cancel from inside the tick at iteration 12: deterministic.
        let token = CancelToken::new();
        let tick_token = token.clone();
        let on_tick = move |t: IterationTick| {
            if t.iteration == 12 {
                tick_token.cancel();
            }
        };
        let hooks = ExecHooks {
            cancel: Some(token),
            tick_every: 1,
            on_tick: Some(&on_tick),
            ..Default::default()
        };
        let mut env_cancelled = env();
        let cancelled =
            execute_plan_observed(&GdPlan::bgd(), &data, &params, &mut env_cancelled, &hooks)
                .unwrap();
        assert_eq!(cancelled.stop, StopReason::Cancelled);
        assert_eq!(cancelled.iterations, 12);
        assert!(!cancelled.converged());
        // The cancelled run is the exact prefix of the uninterrupted one...
        assert_eq!(cancelled.error_seq[..], full.error_seq[..12]);
        // ...and bit-identical to an uninterrupted run capped at the
        // cancellation iteration.
        let mut params_capped = params.clone();
        params_capped.max_iter = 12;
        let mut env_capped = env();
        let capped = execute_plan(&GdPlan::bgd(), &data, &params_capped, &mut env_capped).unwrap();
        assert_eq!(cancelled.weights, capped.weights);
        assert_eq!(cancelled.error_seq, capped.error_seq);
        assert_eq!(cancelled.cost, capped.cost);
        assert_eq!(cancelled.sim_time_s.to_bits(), capped.sim_time_s.to_bits());
    }

    #[test]
    fn replan_yield_resumes_bit_identically_under_the_same_plan() {
        let data = dataset(800);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0;
        params.max_iter = 40;
        let plan = GdPlan::mgd(
            32,
            TransformPolicy::Eager,
            SamplingMethod::ShuffledPartition,
        )
        .unwrap();

        let mut env_full = env();
        let full = execute_plan(&plan, &data, &params, &mut env_full).unwrap();
        assert!(full.resume_state.is_none(), "no yield without a predicate");

        let trigger = |t: &IterationTick| t.iteration == 12;
        let hooks = ExecHooks {
            tick_every: 4,
            replan: Some(&trigger),
            ..Default::default()
        };
        let mut env_yield = env();
        let yielded = execute_plan_observed(&plan, &data, &params, &mut env_yield, &hooks).unwrap();
        assert_eq!(yielded.stop, StopReason::Replan);
        assert_eq!(yielded.iterations, 12);
        let state = *yielded.resume_state.expect("replan carries resume state");
        assert_eq!(state.iteration, 12);

        // Continuing from the yield (no predicate this time) is the
        // uninterrupted run, bit for bit.
        let hooks = ExecHooks {
            resume: Some(state),
            ..Default::default()
        };
        let mut env_res = env();
        let resumed = execute_plan_observed(&plan, &data, &params, &mut env_res, &hooks).unwrap();
        assert_eq!(resumed.weights, full.weights);
        assert_eq!(resumed.error_seq, full.error_seq);
        assert_eq!(resumed.cost, full.cost);
        assert_eq!(resumed.sim_time_s.to_bits(), full.sim_time_s.to_bits());
    }

    #[test]
    fn convergence_beats_a_pending_replan() {
        let data = dataset(2000);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.01;
        params.max_iter = 2000;
        // A predicate that always fires: the run must still converge
        // normally on the iteration where the tolerance is hit.
        let mut env_full = env();
        let full = execute_plan(&GdPlan::bgd(), &data, &params, &mut env_full).unwrap();
        assert!(full.converged());
        let trigger = |t: &IterationTick| t.iteration == full.iterations;
        let hooks = ExecHooks {
            tick_every: 1,
            replan: Some(&trigger),
            ..Default::default()
        };
        let mut env_r = env();
        let r = execute_plan_observed(&GdPlan::bgd(), &data, &params, &mut env_r, &hooks).unwrap();
        assert_eq!(r.stop, StopReason::Converged);
        assert!(r.resume_state.is_none());
    }

    #[test]
    fn pre_latched_token_cancels_after_the_first_wave() {
        let data = dataset(300);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0;
        params.max_iter = 1000;
        let token = CancelToken::new();
        token.cancel();
        let hooks = ExecHooks {
            cancel: Some(token),
            tick_every: 0,
            on_tick: None,
            ..Default::default()
        };
        let mut env = env();
        let result =
            execute_plan_observed(&GdPlan::bgd(), &data, &params, &mut env, &hooks).unwrap();
        assert_eq!(result.stop, StopReason::Cancelled);
        assert_eq!(result.iterations, 1, "stops within one wave");
    }

    #[test]
    fn checkpointed_runs_resume_bit_identically_from_every_boundary() {
        // Mini-batch + shuffled-partition sampling exercises the hardest
        // state to restore: the training RNG stream and the shuffle
        // cursor, on top of weights and the ledger.
        let data = dataset(800);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0;
        params.max_iter = 40;
        for plan in [
            GdPlan::bgd(),
            GdPlan::mgd(
                32,
                TransformPolicy::Eager,
                SamplingMethod::ShuffledPartition,
            )
            .unwrap(),
            GdPlan::mgd(16, TransformPolicy::Eager, SamplingMethod::Bernoulli).unwrap(),
        ] {
            let mut env_full = env();
            let full = execute_plan(&plan, &data, &params, &mut env_full).unwrap();

            let captured = std::sync::Mutex::new(Vec::new());
            let on_checkpoint = |s: ExecState| captured.lock().unwrap().push(s);
            let hooks = ExecHooks {
                checkpoint_every: 7,
                on_checkpoint: Some(&on_checkpoint),
                ..Default::default()
            };
            let mut env_chk = env();
            let chk = execute_plan_observed(&plan, &data, &params, &mut env_chk, &hooks).unwrap();
            assert_eq!(chk.weights, full.weights, "capturing must not perturb");
            let captured = captured.into_inner().unwrap();
            assert_eq!(captured.len(), 5, "40 iterations / every 7");

            for state in captured {
                let hooks = ExecHooks {
                    resume: Some(state),
                    ..Default::default()
                };
                let mut env_res = env();
                let resumed =
                    execute_plan_observed(&plan, &data, &params, &mut env_res, &hooks).unwrap();
                assert_eq!(resumed.iterations, full.iterations);
                assert_eq!(resumed.weights, full.weights);
                assert_eq!(resumed.error_seq, full.error_seq);
                assert_eq!(resumed.cost, full.cost);
                assert_eq!(resumed.sim_time_s.to_bits(), full.sim_time_s.to_bits());
                assert_eq!(resumed.sampler_shuffles, full.sampler_shuffles);
            }
        }
    }

    #[test]
    fn cancel_latched_before_the_first_resumed_wave_returns_the_exact_prefix() {
        let data = dataset(600);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0;
        params.max_iter = 30;
        let plan = GdPlan::mgd(
            32,
            TransformPolicy::Eager,
            SamplingMethod::ShuffledPartition,
        )
        .unwrap();
        let captured = std::sync::Mutex::new(Vec::new());
        let on_checkpoint = |s: ExecState| captured.lock().unwrap().push(s);
        let hooks = ExecHooks {
            checkpoint_every: 10,
            on_checkpoint: Some(&on_checkpoint),
            ..Default::default()
        };
        let mut env_chk = env();
        execute_plan_observed(&plan, &data, &params, &mut env_chk, &hooks).unwrap();
        let state = captured.into_inner().unwrap().remove(0);
        assert_eq!(state.iteration, 10);

        let token = CancelToken::new();
        token.cancel();
        let hooks = ExecHooks {
            cancel: Some(token),
            resume: Some(state.clone()),
            ..Default::default()
        };
        let mut env_res = env();
        let resumed = execute_plan_observed(&plan, &data, &params, &mut env_res, &hooks).unwrap();
        // Unlike a cold pre-latched start (which runs one wave), a resumed
        // run re-checks the token at the restored boundary: not a single
        // extra iteration runs, and the state is the checkpoint's, bit for
        // bit.
        assert_eq!(resumed.stop, StopReason::Cancelled);
        assert_eq!(resumed.iterations, 10);
        assert_eq!(resumed.weights.as_slice(), state.weights.as_slice());
        assert_eq!(resumed.final_delta.to_bits(), state.final_delta.to_bits());
        assert_eq!(resumed.cost, state.cost);
    }

    #[test]
    fn wall_budget_stops_long_runs() {
        let data = dataset(500);
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.tolerance = 0.0;
        params.max_iter = u64::MAX;
        params.wall_budget = Some(Duration::from_millis(50));
        let mut env = env();
        let result = execute_plan(&GdPlan::bgd(), &data, &params, &mut env).unwrap();
        assert_eq!(result.stop, StopReason::WallBudget);
    }

    #[test]
    fn lazy_sgd_is_cheaper_than_eager_sgd_for_few_iterations() {
        // Big logical dataset, few iterations: skipping the up-front
        // transform dominates — the Section 6 lazy-transformation argument.
        let spec = ClusterSpec::paper_testbed();
        let desc = ml4all_dataflow::DatasetDescriptor::new(
            "big",
            1_000_000,
            3,
            20 * 1024 * 1024 * 1024,
            1.0,
        );
        let data = PartitionedDataset::with_descriptor(
            desc,
            &separable_points(5000, 3),
            PartitionScheme::RoundRobin,
            &spec,
        )
        .unwrap();
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.max_iter = 20;
        params.tolerance = 0.0;

        let lazy = GdPlan::sgd(TransformPolicy::Lazy, SamplingMethod::ShuffledPartition).unwrap();
        let mut env_lazy = SimEnv::new(spec.clone());
        let lazy_result = execute_plan(&lazy, &data, &params, &mut env_lazy).unwrap();

        let eager = GdPlan::sgd(TransformPolicy::Eager, SamplingMethod::ShuffledPartition).unwrap();
        let mut env_eager = SimEnv::new(spec.clone());
        let eager_result = execute_plan(&eager, &data, &params, &mut env_eager).unwrap();

        assert!(
            lazy_result.sim_time_s * 2.0 < eager_result.sim_time_s,
            "lazy {} vs eager {}",
            lazy_result.sim_time_s,
            eager_result.sim_time_s
        );
    }

    #[test]
    fn cluster_backend_meters_usage_and_stays_bit_identical_to_local() {
        use ml4all_dataflow::Backend;
        let spec = ClusterSpec::paper_testbed();
        // 2 GB logical → 16 partitions → genuinely distributed waves.
        let desc = ml4all_dataflow::DatasetDescriptor::new(
            "big",
            1_000_000,
            3,
            2 * 1024 * 1024 * 1024,
            1.0,
        );
        let data = PartitionedDataset::with_descriptor(
            desc,
            &separable_points(1000, 3),
            PartitionScheme::RoundRobin,
            &spec,
        )
        .unwrap();
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.max_iter = 5;
        params.tolerance = 0.0;

        let mut env_local = SimEnv::new(spec.clone());
        let local = execute_plan(&GdPlan::bgd(), &data, &params, &mut env_local).unwrap();
        let mut env_cluster =
            SimEnv::new(spec.clone()).with_backend(Backend::simulated_cluster(&spec));
        let cluster = execute_plan(&GdPlan::bgd(), &data, &params, &mut env_cluster).unwrap();

        // The backend is an accounting overlay: math and charges identical.
        assert_eq!(local.weights, cluster.weights);
        assert_eq!(local.cost, cluster.cost);
        assert_eq!(local.sim_time_s.to_bits(), cluster.sim_time_s.to_bits());
        assert_eq!(local.backend, "local");
        assert_eq!(cluster.backend, "simulated-cluster");
        assert!(local.usage.is_empty());

        // The cluster run measured its physical work: one wave per
        // iteration, every physical row scanned per wave, the 3-dim model
        // broadcast to and aggregated from all 4 nodes.
        assert_eq!(cluster.usage.waves, 5);
        assert_eq!(cluster.usage.tuples_scanned, 5 * 1000);
        assert_eq!(cluster.usage.bytes_shuffled, 5 * 2 * (3 * 8) * 4);
        assert_eq!(cluster.usage.node_compute_s.len(), 4);
        assert!(cluster.usage.node_compute_s.iter().all(|&s| s > 0.0));
        assert_eq!(cluster.rng_stream_version, RNG_STREAM_VERSION);
    }

    #[test]
    fn sampled_plans_meter_driver_shipping_on_the_cluster_backend() {
        use ml4all_dataflow::Backend;
        let spec = ClusterSpec::paper_testbed();
        let desc = ml4all_dataflow::DatasetDescriptor::new(
            "big",
            1_000_000,
            3,
            2 * 1024 * 1024 * 1024,
            1.0,
        );
        let data = PartitionedDataset::with_descriptor(
            desc,
            &separable_points(1000, 3),
            PartitionScheme::RoundRobin,
            &spec,
        )
        .unwrap();
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.max_iter = 10;
        params.tolerance = 0.0;
        let plan = GdPlan::mgd(
            32,
            TransformPolicy::Eager,
            SamplingMethod::ShuffledPartition,
        )
        .unwrap();
        let mut env = SimEnv::new(spec.clone()).with_backend(Backend::simulated_cluster(&spec));
        let result = execute_plan(&plan, &data, &params, &mut env).unwrap();
        // 32 units × 10 iterations shipped to the driver; no batch waves.
        assert_eq!(result.usage.tuples_scanned, 320);
        assert!(result.usage.bytes_shuffled > 0);
        assert_eq!(result.usage.waves, 0);
        assert!(result.usage.node_compute_s.is_empty());
    }

    #[test]
    fn bgd_sim_time_scales_with_logical_size() {
        let spec = ClusterSpec::paper_testbed();
        let points = separable_points(2000, 3);
        let small_desc =
            ml4all_dataflow::DatasetDescriptor::new("s", 100_000, 3, 50 * 1024 * 1024, 1.0);
        let big_desc = ml4all_dataflow::DatasetDescriptor::new(
            "b",
            10_000_000,
            3,
            5 * 1024 * 1024 * 1024,
            1.0,
        );
        let mut params = TrainParams::paper_defaults(GradientKind::Svm);
        params.max_iter = 5;
        params.tolerance = 0.0;

        let small = PartitionedDataset::with_descriptor(
            small_desc,
            &points,
            PartitionScheme::RoundRobin,
            &spec,
        )
        .unwrap();
        let big = PartitionedDataset::with_descriptor(
            big_desc,
            &points,
            PartitionScheme::RoundRobin,
            &spec,
        )
        .unwrap();

        let mut env_s = SimEnv::new(spec.clone());
        let r_small = execute_plan(&GdPlan::bgd(), &small, &params, &mut env_s).unwrap();
        let mut env_b = SimEnv::new(spec);
        let r_big = execute_plan(&GdPlan::bgd(), &big, &params, &mut env_b).unwrap();
        // Compare data-dependent costs; fixed job-init overhead would
        // otherwise mask the scaling on these short runs.
        let work = |r: &TrainResult| r.cost.io_s + r.cost.cpu_s + r.cost.net_s;
        assert!(
            work(&r_big) > 5.0 * work(&r_small),
            "big {} vs small {}",
            work(&r_big),
            work(&r_small)
        );
    }
}
