//! The seven GD operators (Section 4) as traits, plus the reference
//! implementations the system ships (the paper: "we provide reference
//! implementations for all the common use cases; expert users could readily
//! customize or override them").

use ml4all_dataflow::ColumnStore;
use ml4all_linalg::{DenseVector, FeatureView, PointView};

use crate::context::{Context, Extra};
use crate::gradient::{Gradient, GradientKind, Regularizer};
use crate::step::StepSize;
use crate::GdError;

/// **Operator 1 — `Transform(U) → U_T`**: normalize one input unit. Units
/// arrive parsed: the text-to-unit step of Listing 1 / Figure 3a is the
/// ingest parser every file goes through (`ml4all_datasets::csv`,
/// `ml4all_datasets::libsvm`), which fills the columnar storage these
/// zero-copy rows are borrowed from.
pub trait TransformOp: Send + Sync {
    /// Produce a transformed data unit: `unit` itself, or a row written to
    /// `scratch` — a buffer the executor reuses from unit to unit, so a
    /// transform allocates nothing per unit. The written row is dense, or
    /// sparse over `unit`'s own indices with `scratch` as its values.
    fn transform<'a>(
        &self,
        unit: PointView<'a>,
        ctx: &Context,
        scratch: &'a mut Vec<f64>,
    ) -> Result<PointView<'a>, GdError>;

    /// `true` when `transform` returns every unit unchanged, letting the
    /// executor skip building a transformed copy.
    fn is_identity(&self) -> bool {
        false
    }
}

/// **Operator 2 — `Stage`**: set initial values for all algorithm-specific
/// parameters. May receive a (possibly empty) staged sample of data units
/// for initialization or global statistics (Figure 3b).
pub trait StageOp: Send + Sync {
    /// Initialize the context.
    fn stage(&self, ctx: &mut Context, staged: &ColumnStore);

    /// `true` if this operator needs a pass over the full dataset for
    /// global statistics (forces the executor to charge a scan even under
    /// lazy transformation — Section 6).
    fn needs_full_scan(&self) -> bool {
        false
    }
}

/// Which model coordinates one iteration's wave can have touched — what the
/// executor's iteration tail (accumulator clearing, `Update`, the
/// finiteness check, `Converge`, the previous-weights refresh) has to visit.
///
/// The executor passes [`Support::Indices`] only for a sampled wave over
/// CSR rows whose stored entries are few against the model width, computed
/// by a [`ComputeOp`] that makes the [`ComputeOp::writes_only_stored_indices`]
/// promise; every other wave is [`Support::All`], the dense tail. The two
/// tails are bit-identical: off the support the gradient sum is `+0.0`, so
/// a support-restricted op skips only exact identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support<'a> {
    /// Every coordinate.
    All,
    /// These coordinates only: strictly increasing model indices (the
    /// sorted, de-duplicated union of the sampled rows' stored indices).
    Indices(&'a [u32]),
}

impl Support<'_> {
    /// `true` when any of `values` on the support is NaN or infinite.
    pub(crate) fn any_non_finite(self, values: &[f64]) -> bool {
        match self {
            Self::All => any_non_finite(values),
            Self::Indices(idx) => idx.iter().any(|&i| !values[i as usize].is_finite()),
        }
    }

    /// `dst[i] = src[i]` over the support, into `dst`'s existing buffer.
    pub(crate) fn copy(self, dst: &mut DenseVector, src: &DenseVector) {
        match self {
            Self::All => dst.clone_from(src),
            Self::Indices(idx) => {
                let (dst, src) = (dst.as_mut_slice(), src.as_slice());
                for &i in idx {
                    dst[i as usize] = src[i as usize];
                }
            }
        }
    }
}

/// `true` when any of `values` is NaN or infinite, without a branch per
/// value. `v * 0.0` is a zero for a finite `v` and NaN otherwise, and a
/// NaN stays NaN through every later sum, so eight running sums, one per
/// lane, give the scalar scan's verdict. They vectorize; a
/// short-circuiting `any` does not, and took twice as long as the update
/// it guards on a d = 20 000 model.
fn any_non_finite(values: &[f64]) -> bool {
    const LANES: usize = 8;
    let mut chunks = values.chunks_exact(LANES);
    let mut sums = [0.0f64; LANES];
    for chunk in &mut chunks {
        for (sum, v) in sums.iter_mut().zip(chunk) {
            *sum += v * 0.0;
        }
    }
    sums.iter().any(|sum| sum.is_nan()) || chunks.remainder().iter().any(|v| !v.is_finite())
}

/// Accumulated output of `Compute` over the units of one iteration: the
/// aggregated `U_C`. `primary` is the gradient sum; `secondary` carries the
/// second component of pair-valued computes (SVRG's full-model gradient,
/// Listing 8); `scalar` carries scalar sums (line search's objective
/// difference, Listing 9).
#[derive(Debug, Clone)]
pub struct ComputeAcc {
    /// Sum of per-unit primary vectors.
    pub primary: DenseVector,
    /// Sum of per-unit secondary vectors, if the compute emits pairs.
    pub secondary: Option<DenseVector>,
    /// Sum of per-unit scalars.
    pub scalar: f64,
    /// Number of units accumulated.
    pub count: u64,
}

impl ComputeAcc {
    /// Fresh accumulator for a `dims`-dimensional model.
    pub fn new(dims: usize) -> Self {
        Self {
            primary: DenseVector::zeros(dims),
            secondary: None,
            scalar: 0.0,
            count: 0,
        }
    }

    /// Reset for reuse across iterations (keeps allocations).
    pub fn reset(&mut self) {
        self.primary.fill_zero();
        if let Some(s) = &mut self.secondary {
            s.fill_zero();
        }
        self.scalar = 0.0;
        self.count = 0;
    }

    /// [`ComputeAcc::reset`] for a wave that wrote `primary` on `support`
    /// only (and no `secondary`): clears exactly what was written.
    pub(crate) fn reset_on(&mut self, support: Support<'_>) {
        match support {
            Support::All => self.reset(),
            Support::Indices(idx) => {
                let primary = self.primary.as_mut_slice();
                for &i in idx {
                    primary[i as usize] = 0.0;
                }
                self.scalar = 0.0;
                self.count = 0;
            }
        }
    }

    /// Lazily materialize the secondary accumulator.
    pub fn secondary_mut(&mut self) -> &mut DenseVector {
        let dims = self.primary.dim();
        self.secondary
            .get_or_insert_with(|| DenseVector::zeros(dims))
    }

    /// Fold another accumulator (one partition's partial aggregate) into
    /// this one — the reduce side of the wave-parallel executor. Partial
    /// aggregates must be merged in partition order so the reduced sum is
    /// identical at any worker count.
    pub fn merge(&mut self, other: &ComputeAcc) {
        self.primary.add_assign(&other.primary);
        if let Some(s) = &other.secondary {
            self.secondary_mut().add_assign(s);
        }
        self.scalar += other.scalar;
        self.count += other.count;
    }
}

/// **Operator 3 — `Compute(U_T) → U_C`**: the core per-unit computation.
/// Units arrive as zero-copy [`PointView`]s borrowed from the columnar
/// storage (or from a `Transform`'s reused buffer).
pub trait ComputeOp: Send + Sync {
    /// Accumulate these units' contributions, in order. The executor hands
    /// over the rows of a partition, or the draws of a sampled wave, as
    /// consecutive slices cut by [`crate::gradient::Batches`], so an
    /// op may loop over the units one by one or pass the slice whole to the
    /// `*_batch` methods of [`Gradient`] and get the
    /// [batch rule](crate::gradient)'s scoring; a lazily transformed unit
    /// arrives alone.
    fn compute(&self, units: &[PointView<'_>], ctx: &Context, acc: &mut ComputeAcc);

    /// Opt in to the support-proportional iteration tail (see
    /// [`Support`]). Return `true` only if, for every unit, this op adds to
    /// `acc.primary` at the unit's *stored* indices and nowhere else, and
    /// never materializes `acc.secondary` — then a sampled wave over a few
    /// CSR rows leaves the accumulator `+0.0` off those rows' indices and
    /// the executor may skip them. The default, `false`, keeps the dense
    /// tail, which is correct for any op.
    fn writes_only_stored_indices(&self) -> bool {
        false
    }
}

/// Result of an `Update` application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// The model advanced; run `Converge`/`Loop` as usual.
    Updated,
    /// The iteration adjusted internal state only (e.g. a line-search step
    /// shrink, Listing 10 returning `null`); skip convergence checking.
    InternalOnly,
}

/// **Operator 4 — `Update(U_C) → U_U`**: fold the aggregated compute output
/// into the global parameters.
pub trait UpdateOp: Send + Sync {
    /// Apply the aggregate.
    fn update(&self, acc: &ComputeAcc, ctx: &mut Context) -> UpdateOutcome;

    /// [`UpdateOp::update`] for a wave that left `acc.primary` at `+0.0`
    /// off `support`; returns the outcome and the coordinates of
    /// `ctx.weights` the call may have changed. This is what the executor
    /// calls. An op opts in to the support-proportional tail by visiting
    /// only `support` and returning it, which it may do only where its full
    /// update is the identity on every weight whose gradient is `+0.0`
    /// (no weight decay, no per-coordinate state that moves on a zero
    /// gradient) — the result must equal the full update bit for bit. The
    /// default runs the full update and reports [`Support::All`].
    fn update_on<'s>(
        &self,
        acc: &ComputeAcc,
        ctx: &mut Context,
        support: Support<'s>,
    ) -> (UpdateOutcome, Support<'s>) {
        let _ = support;
        (self.update(acc, ctx), Support::All)
    }
}

/// How many units the next iteration should consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleSize {
    /// The whole dataset (batch iteration).
    All,
    /// `m` sampled units.
    Units(usize),
}

/// **Operator 5 — `Sample`**: scopes the iteration to parts of the input.
/// The physical draw is performed by the substrate's sampler; this trait
/// only decides the per-iteration sample size, which is what lets SVRG
/// interleave batch and stochastic iterations inside one plan (Appendix C).
pub trait SampleOp: Send + Sync {
    /// Sample size for the iteration about to run (`ctx.iteration` is
    /// already advanced).
    fn size(&self, ctx: &Context) -> SampleSize;
}

/// **Operator 6 — `Converge(U_U) → U_Δ`**: produce the convergence delta.
pub trait ConvergeOp: Send + Sync {
    /// Delta between the previous and current model.
    fn converge(&self, previous: &DenseVector, ctx: &Context) -> f64;

    /// [`ConvergeOp::converge`] given that `previous` and `ctx.weights`
    /// agree off `changed`. This is what the executor calls. An op opts in
    /// to the support-proportional tail by visiting only `changed`, which
    /// it may do only if the result equals the full delta bit for bit (see
    /// [`DenseVector::l1_distance_at`]). The default computes the full
    /// delta.
    fn converge_on(&self, previous: &DenseVector, ctx: &Context, changed: Support<'_>) -> f64 {
        let _ = changed;
        self.converge(previous, ctx)
    }
}

/// **Operator 7 — `Loop(U_Δ) → bool`**: decide whether to keep iterating.
pub trait LoopOp: Send + Sync {
    /// `true` to run another iteration.
    fn should_continue(&self, delta: f64, ctx: &Context) -> bool;
}

/// The full operator bundle executing one GD plan.
pub struct GdOperators {
    /// Parse/normalize input units.
    pub transform: Box<dyn TransformOp>,
    /// Initialize global parameters.
    pub stage: Box<dyn StageOp>,
    /// Per-unit core computation.
    pub compute: Box<dyn ComputeOp>,
    /// Fold aggregates into the model.
    pub update: Box<dyn UpdateOp>,
    /// Per-iteration sample-size policy.
    pub sample: Box<dyn SampleOp>,
    /// Convergence delta.
    pub converge: Box<dyn ConvergeOp>,
    /// Stopping condition.
    pub loop_op: Box<dyn LoopOp>,
}

// ---------------------------------------------------------------------
// Reference implementations
// ---------------------------------------------------------------------

/// Identity transform for already-parsed in-memory points.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityTransform;

impl TransformOp for IdentityTransform {
    fn transform<'a>(
        &self,
        unit: PointView<'a>,
        _ctx: &Context,
        _scratch: &'a mut Vec<f64>,
    ) -> Result<PointView<'a>, GdError> {
        Ok(unit)
    }

    fn is_identity(&self) -> bool {
        true
    }
}

/// A `Transform` that mean-centers dense features using the
/// dataset-wide statistics a [`StatsStage`] computed — the Section 6
/// escape hatch in action: even under *lazy* transformation, transforms
/// that need global statistics stay sound because `Stage` saw the data
/// first ("such possible cases are handled by passing the dataset to the
/// Stage operator beforehand").
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanCenterTransform;

impl TransformOp for MeanCenterTransform {
    fn transform<'a>(
        &self,
        unit: PointView<'a>,
        ctx: &Context,
        scratch: &'a mut Vec<f64>,
    ) -> Result<PointView<'a>, GdError> {
        let Some(means) = ctx.vector("feature_means") else {
            return Err(GdError::InvalidPlan(
                "MeanCenterTransform requires a StatsStage to compute feature_means".into(),
            ));
        };
        unit.features.write_dense(scratch);
        debug_assert_eq!(scratch.len(), means.dim());
        for (x, m) in scratch.iter_mut().zip(means.as_slice()) {
            *x -= m;
        }
        Ok(PointView::new(unit.label, FeatureView::Dense(scratch)))
    }
}

/// Reference `Stage` (Listing 4): zero weights, `step := 1.0`, `iter := 0`.
#[derive(Debug, Clone, Copy)]
pub struct ZeroStage {
    /// Model dimensionality.
    pub dims: usize,
}

impl StageOp for ZeroStage {
    fn stage(&self, ctx: &mut Context, _staged: &ColumnStore) {
        ctx.dims = self.dims;
        ctx.zero_weights();
        ctx.iteration = 0;
        ctx.put("step", Extra::Scalar(1.0));
    }
}

/// A `Stage` that additionally requires a full pass for global statistics
/// (feature means), demonstrating the Section 6 escape hatch that keeps
/// lazy transformation sound when `Transform` needs dataset-wide values.
#[derive(Debug, Clone, Copy)]
pub struct StatsStage {
    /// Model dimensionality.
    pub dims: usize,
}

impl StageOp for StatsStage {
    fn stage(&self, ctx: &mut Context, staged: &ColumnStore) {
        ctx.dims = self.dims;
        ctx.zero_weights();
        ctx.iteration = 0;
        ctx.put("step", Extra::Scalar(1.0));
        let mut means = DenseVector::zeros(self.dims);
        if !staged.is_empty() {
            for p in staged.iter() {
                p.features.axpy_into(means.as_mut_slice(), 1.0);
            }
            means.scale(1.0 / staged.len() as f64);
        }
        ctx.put("feature_means", Extra::Vector(means));
    }

    fn needs_full_scan(&self) -> bool {
        true
    }
}

/// Reference `Compute` (Listing 2): accumulate the task's gradient.
pub struct GradientCompute {
    /// The gradient function (Table 3) or a custom UDF.
    pub gradient: Box<dyn Gradient>,
}

impl GradientCompute {
    /// Compute for one of the built-in tasks.
    pub fn of(kind: GradientKind) -> Self {
        Self {
            gradient: Box::new(kind),
        }
    }
}

impl ComputeOp for GradientCompute {
    fn compute(&self, units: &[PointView<'_>], ctx: &Context, acc: &mut ComputeAcc) {
        self.gradient
            .accumulate_batch(ctx.weights.as_slice(), units, acc.primary.as_mut_slice());
        acc.count += units.len() as u64;
    }

    fn writes_only_stored_indices(&self) -> bool {
        self.gradient.writes_only_stored_indices()
    }
}

/// Reference `Update` (Listing 3): `w ← w − α_i ( Σg / count + ∇R(w) )`.
///
/// The `1/count` averaging matches MLlib's mini-batch semantics, which the
/// paper replicates so that the same step size behaves comparably across
/// BGD/MGD/SGD (Section 8.1).
#[derive(Debug, Clone, Copy)]
pub struct StepUpdate {
    /// Step schedule.
    pub step: StepSize,
    /// Regularizer term of Equation 1.
    pub regularizer: Regularizer,
}

impl UpdateOp for StepUpdate {
    fn update(&self, acc: &ComputeAcc, ctx: &mut Context) -> UpdateOutcome {
        self.update_on(acc, ctx, Support::All).0
    }

    fn update_on<'s>(
        &self,
        acc: &ComputeAcc,
        ctx: &mut Context,
        support: Support<'s>,
    ) -> (UpdateOutcome, Support<'s>) {
        if acc.count == 0 {
            return (UpdateOutcome::InternalOnly, Support::Indices(&[]));
        }
        let alpha = self.step.at(ctx.iteration);
        let scale = -alpha / acc.count as f64;
        let w = ctx.weights.as_mut_slice();
        let g = acc.primary.as_slice();
        match (self.regularizer, support) {
            // `w += scale·(+0.0)` adds `-0.0` for a finite negative scale —
            // the identity on every `w`, so off-support weights can be
            // skipped. Any other scale (a non-finite step turns every
            // weight NaN; a positive one flips `-0.0` weights) takes the
            // full pass below.
            (Regularizer::None, Support::Indices(idx))
                if scale.is_finite() && scale.is_sign_negative() =>
            {
                for &i in idx {
                    w[i as usize] += scale * g[i as usize];
                }
                return (UpdateOutcome::Updated, support);
            }
            // Fast path: no per-iteration regularizer buffer (this loop
            // runs once per iteration over the full model vector).
            (Regularizer::None, _) => {
                for (wi, gi) in w.iter_mut().zip(g) {
                    *wi += scale * gi;
                }
            }
            (Regularizer::L2 { lambda }, _) => {
                // The regularizer gradient `λw` applies at full strength
                // regardless of the sample size — to every weight, so
                // there is no support to restrict to.
                for (wi, gi) in w.iter_mut().zip(g) {
                    *wi += scale * gi - alpha * lambda * *wi;
                }
            }
        }
        (UpdateOutcome::Updated, Support::All)
    }
}

/// Fixed-size sampling policy for plain BGD/SGD/MGD plans.
#[derive(Debug, Clone, Copy)]
pub struct FixedSample {
    /// `All` for BGD; `Units(1)` for SGD; `Units(b)` for MGD.
    pub size: SampleSize,
}

impl SampleOp for FixedSample {
    fn size(&self, _ctx: &Context) -> SampleSize {
        self.size
    }
}

/// Reference `Converge` (Listing 5): L1 norm of the weight delta.
#[derive(Debug, Clone, Copy, Default)]
pub struct L1Converge;

impl ConvergeOp for L1Converge {
    fn converge(&self, previous: &DenseVector, ctx: &Context) -> f64 {
        ctx.weights
            .l1_distance(previous)
            .expect("weights dimensionality is fixed for a run")
    }

    fn converge_on(&self, previous: &DenseVector, ctx: &Context, changed: Support<'_>) -> f64 {
        match changed {
            Support::All => self.converge(previous, ctx),
            Support::Indices(idx) => ctx.weights.l1_distance_at(previous, idx),
        }
    }
}

/// L2 variant of `Converge`.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2Converge;

impl ConvergeOp for L2Converge {
    fn converge(&self, previous: &DenseVector, ctx: &Context) -> f64 {
        ctx.weights
            .l2_distance(previous)
            .expect("weights dimensionality is fixed for a run")
    }

    fn converge_on(&self, previous: &DenseVector, ctx: &Context, changed: Support<'_>) -> f64 {
        match changed {
            Support::All => self.converge(previous, ctx),
            Support::Indices(idx) => ctx.weights.l2_distance_at(previous, idx),
        }
    }
}

/// Reference `Loop` (Listing 6): run until `delta < tolerance` or
/// `max_iter` iterations.
#[derive(Debug, Clone, Copy)]
pub struct ToleranceLoop {
    /// Convergence tolerance ε.
    pub tolerance: f64,
    /// Iteration cap.
    pub max_iter: u64,
}

impl LoopOp for ToleranceLoop {
    fn should_continue(&self, delta: f64, ctx: &Context) -> bool {
        delta >= self.tolerance && ctx.iteration < self.max_iter
    }
}

/// `Loop` running a fixed number of iterations (Figure 3a's `i < 100`).
#[derive(Debug, Clone, Copy)]
pub struct FixedLoop {
    /// Number of iterations to run.
    pub iterations: u64,
}

impl LoopOp for FixedLoop {
    fn should_continue(&self, _delta: f64, ctx: &Context) -> bool {
        ctx.iteration < self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(dims: usize) -> Context {
        let mut c = Context::new(dims);
        ZeroStage { dims }.stage(&mut c, &ColumnStore::empty());
        c
    }

    /// The lane sums give the scalar scan's verdict for a non-finite value
    /// of every kind at every position, across chunk and remainder
    /// lengths, and for finite extremes.
    #[test]
    fn any_non_finite_matches_the_scalar_scan() {
        let odd = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let odd = odd
            .into_iter()
            .chain([f64::from_bits(0x7ff0_0000_dead_beef)]);
        for len in [0, 1, 7, 8, 9, 16, 23, 64] {
            let mut values: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            if len > 2 {
                values[0] = f64::MAX;
                values[1] = -f64::MAX;
                values[2] = f64::from_bits(1);
            }
            assert!(!any_non_finite(&values), "len {len}");
            for at in 0..len {
                for bad in odd.clone() {
                    let kept = std::mem::replace(&mut values[at], bad);
                    assert!(any_non_finite(&values), "len {len}, {bad} at {at}");
                    values[at] = kept;
                }
            }
        }
    }

    #[test]
    fn zero_stage_initializes_listing4_state() {
        let mut c = Context::new(0);
        ZeroStage { dims: 3 }.stage(&mut c, &ColumnStore::empty());
        assert_eq!(c.weights.dim(), 3);
        assert_eq!(c.scalar("step"), Some(1.0));
        assert_eq!(c.iteration, 0);
    }

    #[test]
    fn stats_stage_computes_means_and_demands_scan() {
        let s = StatsStage { dims: 2 };
        assert!(s.needs_full_scan());
        let pts = [(1.0, [2.0, 0.0]), (1.0, [4.0, 2.0])].into_iter().collect();
        let mut c = Context::new(0);
        s.stage(&mut c, &pts);
        let means = c.vector("feature_means").unwrap();
        assert_eq!(means.as_slice(), &[3.0, 1.0]);
    }

    #[test]
    fn gradient_compute_accumulates_counts() {
        let compute = GradientCompute::of(GradientKind::Svm);
        let c = ctx(1);
        let mut acc = ComputeAcc::new(1);
        let p = PointView::new(1.0, FeatureView::Dense(&[2.0]));
        compute.compute(&[p], &c, &mut acc);
        compute.compute(&[p], &c, &mut acc);
        assert_eq!(acc.count, 2);
        assert_eq!(acc.primary.as_slice(), &[-4.0]); // two hinge subgradients
    }

    #[test]
    fn step_update_averages_and_steps() {
        let update = StepUpdate {
            step: StepSize::Constant(0.5),
            regularizer: Regularizer::None,
        };
        let mut c = ctx(1);
        c.iteration = 1;
        let mut acc = ComputeAcc::new(1);
        acc.primary[0] = 4.0;
        acc.count = 2; // average gradient = 2.0
        assert_eq!(update.update(&acc, &mut c), UpdateOutcome::Updated);
        assert!((c.weights[0] + 1.0).abs() < 1e-12); // 0 − 0.5×2
    }

    #[test]
    fn step_update_on_empty_sample_is_internal_only() {
        let update = StepUpdate {
            step: StepSize::Constant(0.5),
            regularizer: Regularizer::None,
        };
        let mut c = ctx(2);
        let acc = ComputeAcc::new(2);
        assert_eq!(update.update(&acc, &mut c), UpdateOutcome::InternalOnly);
        assert_eq!(c.weights.l1_norm(), 0.0);
    }

    #[test]
    fn l2_regularized_update_shrinks_weights() {
        let update = StepUpdate {
            step: StepSize::Constant(0.1),
            regularizer: Regularizer::L2 { lambda: 1.0 },
        };
        let mut c = ctx(1);
        c.iteration = 1;
        c.weights[0] = 1.0;
        let mut acc = ComputeAcc::new(1);
        acc.count = 1; // zero gradient, only the regularizer acts
        update.update(&acc, &mut c);
        assert!((c.weights[0] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn converge_ops_measure_distance() {
        let mut c = ctx(2);
        c.weights[0] = 3.0;
        c.weights[1] = -4.0;
        let prev = DenseVector::zeros(2);
        assert_eq!(L1Converge.converge(&prev, &c), 7.0);
        assert!((L2Converge.converge(&prev, &c) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tolerance_loop_stops_on_either_condition() {
        let l = ToleranceLoop {
            tolerance: 0.01,
            max_iter: 10,
        };
        let mut c = ctx(1);
        c.iteration = 5;
        assert!(l.should_continue(0.1, &c));
        assert!(!l.should_continue(0.001, &c));
        c.iteration = 10;
        assert!(!l.should_continue(0.1, &c));
    }

    #[test]
    fn fixed_loop_counts_iterations() {
        let l = FixedLoop { iterations: 100 };
        let mut c = ctx(1);
        c.iteration = 99;
        assert!(l.should_continue(f64::INFINITY, &c));
        c.iteration = 100;
        assert!(!l.should_continue(0.0, &c));
    }

    #[test]
    fn compute_acc_reset_keeps_allocation() {
        let mut acc = ComputeAcc::new(3);
        acc.primary[0] = 1.0;
        acc.scalar = 5.0;
        acc.count = 9;
        acc.secondary_mut()[1] = 2.0;
        acc.reset();
        assert_eq!(acc.primary.l1_norm(), 0.0);
        assert_eq!(acc.scalar, 0.0);
        assert_eq!(acc.count, 0);
        assert_eq!(acc.secondary.as_ref().unwrap().l1_norm(), 0.0);
    }
}

#[cfg(test)]
mod mean_center_tests {
    use super::*;

    #[test]
    fn mean_center_requires_stats_stage() {
        let ctx = Context::new(2);
        let p = PointView::new(1.0, FeatureView::Dense(&[1.0, 2.0]));
        assert!(matches!(
            MeanCenterTransform.transform(p, &ctx, &mut Vec::new()),
            Err(GdError::InvalidPlan(_))
        ));
    }

    #[test]
    fn mean_center_subtracts_global_means() {
        let stage = StatsStage { dims: 2 };
        let pts = [(1.0, [2.0, 10.0]), (-1.0, [4.0, 30.0])]
            .into_iter()
            .collect();
        let mut ctx = Context::new(0);
        stage.stage(&mut ctx, &pts); // means = [3, 20]
        let mut scratch = Vec::new();
        let out =
            (MeanCenterTransform.transform(pts.view(0).unwrap(), &ctx, &mut scratch)).unwrap();
        assert_eq!(out, PointView::new(1.0, FeatureView::Dense(&[-1.0, -10.0])));
        assert!(!MeanCenterTransform.is_identity());
    }
}
