//! Edge-case parity between the executor's two iteration tails. The oracle
//! is the same run under a compute op that delegates to the reference one
//! but withholds the `writes_only_stored_indices` promise, so every wave
//! takes the dense tail; the run under test must equal it bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ml4all_dataflow::{
    ClusterSpec, ColumnStore, ColumnarBuilder, ExecState, PartitionScheme, PartitionedDataset,
    SamplingMethod, SimEnv,
};
use ml4all_gd::executor::reference_operators;
use ml4all_gd::operators::{GradientCompute, L1Converge, L2Converge};
use ml4all_gd::{
    execute, ComputeAcc, ComputeOp, Context, ConvergeOp, ExecHooks, GdError, GdOperators, GdPlan,
    GradientKind, StageOp, StepSize, Support, TrainParams, TrainResult, TransformPolicy,
};
use ml4all_linalg::{DenseVector, PointView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference compute op minus the support promise: the dense-tail
/// oracle.
struct NoPromise(GradientCompute);

impl ComputeOp for NoPromise {
    fn compute(&self, units: &[PointView<'_>], ctx: &Context, acc: &mut ComputeAcc) {
        self.0.compute(units, ctx, acc);
    }
}

/// The reference compute op, promise included, that checks what the tail
/// before it left behind: every wave must start from an all-zero
/// accumulator, however little of it the previous tail visited.
struct ChecksCleanStart(GradientCompute);

impl ChecksCleanStart {
    fn check(acc: &ComputeAcc) {
        if acc.count == 0 {
            assert!(acc.primary.as_slice().iter().all(|g| g.to_bits() == 0));
            assert!(acc.secondary.is_none());
            assert_eq!(acc.scalar.to_bits(), 0);
        }
    }
}

impl ComputeOp for ChecksCleanStart {
    fn compute(&self, units: &[PointView<'_>], ctx: &Context, acc: &mut ComputeAcc) {
        Self::check(acc);
        self.0.compute(units, ctx, acc);
    }
    fn writes_only_stored_indices(&self) -> bool {
        true
    }
}

/// A converge op that counts how its delegate was asked: the only way a
/// test can see which tail an iteration took.
struct Spy {
    inner: Box<dyn ConvergeOp>,
    on_support: Arc<AtomicU64>,
    on_all: Arc<AtomicU64>,
}

impl ConvergeOp for Spy {
    fn converge(&self, previous: &DenseVector, ctx: &Context) -> f64 {
        self.inner.converge(previous, ctx)
    }
    fn converge_on(&self, previous: &DenseVector, ctx: &Context, changed: Support<'_>) -> f64 {
        match changed {
            Support::All => self.on_all.fetch_add(1, Ordering::Relaxed),
            Support::Indices(_) => self.on_support.fetch_add(1, Ordering::Relaxed),
        };
        self.inner.converge_on(previous, ctx, changed)
    }
}

/// Stage that starts from a given model instead of zeros.
struct StartAt(Vec<f64>);

impl StageOp for StartAt {
    fn stage(&self, ctx: &mut Context, _staged: &ColumnStore) {
        ctx.dims = self.0.len();
        ctx.weights = DenseVector::new(self.0.clone());
        ctx.iteration = 0;
    }
}

/// A CSR row of a `dims`-wide space: `(dims, label, indices, values)`.
type CsrRow = (usize, f64, Vec<u32>, Vec<f64>);

fn sparse_point(label: f64, dims: usize, indices: Vec<u32>, values: Vec<f64>) -> CsrRow {
    (dims, label, indices, values)
}

/// `n` CSR rows over `dims` columns, each storing up to `max_nnz` entries
/// drawn from the first `pool` columns (a small pool forces rows of one
/// mini-batch to share indices).
fn csr_points(n: usize, dims: usize, max_nnz: usize, pool: usize, seed: u64) -> Vec<CsrRow> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let nnz = rng.gen_range(0..=max_nnz);
            let mut idx: Vec<u32> = (0..nnz).map(|_| rng.gen_range(0..pool as u32)).collect();
            idx.sort_unstable();
            idx.dedup();
            let vals = idx.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
            let label = if rng.gen_range(0.0..1.0) < 0.5 {
                -1.0
            } else {
                1.0
            };
            sparse_point(label, dims, idx, vals)
        })
        .collect()
}

fn dataset(points: Vec<CsrRow>) -> PartitionedDataset {
    let mut rows = ColumnarBuilder::new();
    let mut dims = 0;
    for (d, label, indices, values) in &points {
        dims = dims.max(*d);
        rows.push_sparse(*label, indices, values).unwrap();
    }
    PartitionedDataset::from_columns(
        "support-tail",
        &rows.finish_with_dims(dims),
        PartitionScheme::RoundRobin,
        &ClusterSpec::paper_testbed(),
    )
    .unwrap()
}

fn params(gradient: GradientKind, max_iter: u64) -> TrainParams {
    let mut p = TrainParams::paper_defaults(gradient);
    p.tolerance = 0.0;
    p.max_iter = max_iter;
    p.seed = 17;
    p
}

/// How many iterations of a run converged over a support / over all of `d`.
#[derive(Debug, PartialEq)]
struct Tails {
    support: u64,
    dense: u64,
}

/// One run: the bundle under test (`promise`) or the dense-tail oracle,
/// with `edit` applied to the reference bundle first.
fn run(
    plan: &GdPlan,
    data: &PartitionedDataset,
    params: &TrainParams,
    promise: bool,
    edit: &dyn Fn(&mut GdOperators),
) -> (Result<TrainResult, GdError>, Tails) {
    let mut ops = reference_operators(plan, params, data.descriptor().dims);
    edit(&mut ops);
    let compute = GradientCompute::of(params.gradient);
    ops.compute = if promise {
        Box::new(ChecksCleanStart(compute))
    } else {
        Box::new(NoPromise(compute))
    };
    let (on_support, on_all) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    ops.converge = Box::new(Spy {
        inner: std::mem::replace(&mut ops.converge, Box::new(L1Converge)),
        on_support: Arc::clone(&on_support),
        on_all: Arc::clone(&on_all),
    });
    let mut env = SimEnv::new(ClusterSpec::paper_testbed());
    let result = execute(plan, data, &ops, params, &mut env, &ExecHooks::default());
    let tails = Tails {
        support: on_support.load(Ordering::Relaxed),
        dense: on_all.load(Ordering::Relaxed),
    };
    (result, tails)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bit_identical(a: &TrainResult, b: &TrainResult, label: &str) {
    assert_eq!(
        bits(a.weights.as_slice()),
        bits(b.weights.as_slice()),
        "{label}: weights"
    );
    let seq = |r: &TrainResult| -> Vec<(u64, u64)> {
        r.error_seq.iter().map(|&(i, d)| (i, d.to_bits())).collect()
    };
    assert_eq!(seq(a), seq(b), "{label}: error sequence");
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
    assert_eq!(a.stop, b.stop, "{label}: stop reason");
    assert_eq!(
        a.final_delta.to_bits(),
        b.final_delta.to_bits(),
        "{label}: final delta"
    );
    assert_eq!(a.cost, b.cost, "{label}: cost ledger");
    assert_eq!(
        a.sim_time_s.to_bits(),
        b.sim_time_s.to_bits(),
        "{label}: simulated time"
    );
    assert_eq!(a.sampler_shuffles, b.sampler_shuffles, "{label}: shuffles");
}

/// Run both tails, demand bit-identity, and return the run under test with
/// the tails it took (the oracle must have taken none over a support).
fn parity(
    plan: &GdPlan,
    data: &PartitionedDataset,
    params: &TrainParams,
    edit: &dyn Fn(&mut GdOperators),
    label: &str,
) -> (TrainResult, Tails) {
    let (got, tails) = run(plan, data, params, true, edit);
    let (want, oracle_tails) = run(plan, data, params, false, edit);
    assert_eq!(oracle_tails.support, 0, "{label}: the oracle is all dense");
    let (got, want) = (got.unwrap(), want.unwrap());
    assert_bit_identical(&got, &want, label);
    (got, tails)
}

fn sgd(sampling: SamplingMethod) -> GdPlan {
    GdPlan::sgd(TransformPolicy::Eager, sampling).unwrap()
}

const NO_EDIT: &dyn Fn(&mut GdOperators) = &|_| {};

#[test]
fn rows_with_no_stored_entries_update_nothing_and_read_a_positive_zero_delta() {
    // Every third row is empty: its wave has `count > 0` and an empty
    // support, so the delta is the bare sum seed — which must read `+0.0`,
    // as the dense sum of `+0.0` terms does.
    let mut points = csr_points(300, 400, 12, 400, 3);
    for p in points.iter_mut().step_by(3) {
        *p = sparse_point(p.1, 400, vec![], vec![]);
    }
    let data = dataset(points);
    for gradient in [
        GradientKind::Svm,
        GradientKind::LogisticRegression,
        GradientKind::LinearRegression,
    ] {
        let (r, tails) = parity(
            &sgd(SamplingMethod::ShuffledPartition),
            &data,
            &params(gradient, 120),
            NO_EDIT,
            &format!("{gradient:?}"),
        );
        assert_eq!(tails.support, 120, "{gradient:?}: every wave is small");
        let zero_deltas = (r.error_seq.iter())
            .filter(|(_, d)| d.to_bits() == 0.0f64.to_bits())
            .count();
        assert!(zero_deltas >= 20, "{gradient:?}: empty rows were sampled");
        assert!(r.error_seq.iter().all(|(_, d)| d.is_sign_positive()));
    }
}

#[test]
fn a_wave_whose_every_factor_is_zero_keeps_the_model_and_both_tails_agree() {
    // Hinge loss outside the margin: rows are `2·label` on a few columns
    // and the model starts at all ones, so `y·w·x ≥ 2` everywhere — the
    // support is non-empty, the gradient on it all `+0.0`.
    let dims = 320;
    let mut rng = StdRng::seed_from_u64(5);
    let points = (0..200)
        .map(|i| {
            let label = if i % 2 == 0 { 1.0 } else { -1.0 };
            let mut idx: Vec<u32> = (0..6).map(|_| rng.gen_range(0..dims as u32)).collect();
            idx.sort_unstable();
            idx.dedup();
            let vals = vec![2.0 * label; idx.len()];
            sparse_point(label, dims, idx, vals)
        })
        .collect();
    let data = dataset(points);
    let start_at_ones: &dyn Fn(&mut GdOperators) =
        &|ops| ops.stage = Box::new(StartAt(vec![1.0; 320]));
    let (r, tails) = parity(
        &sgd(SamplingMethod::RandomPartition),
        &data,
        &params(GradientKind::Svm, 60),
        start_at_ones,
        "hinge outside the margin",
    );
    assert_eq!(tails.support, 60);
    assert!(r.weights.as_slice().iter().all(|&w| w == 1.0));
    assert!(r.error_seq.iter().all(|(_, d)| d.to_bits() == 0));
}

#[test]
fn indices_shared_by_the_rows_of_a_mini_batch_are_updated_once() {
    // 4 rows × ≤ 10 entries from a pool of 24 columns: every wave repeats
    // indices, and stays under the crossover of a 1 000-wide model.
    let data = dataset(csr_points(400, 1000, 10, 24, 9));
    for sampling in [
        SamplingMethod::Bernoulli,
        SamplingMethod::RandomPartition,
        SamplingMethod::ShuffledPartition,
    ] {
        let plan = GdPlan::mgd(4, TransformPolicy::Eager, sampling).unwrap();
        for (name, l2) in [("l1", false), ("l2", true)] {
            let with_converge: &dyn Fn(&mut GdOperators) = &|ops| {
                if l2 {
                    ops.converge = Box::new(L2Converge);
                }
            };
            let (_, tails) = parity(
                &plan,
                &data,
                &params(GradientKind::LogisticRegression, 80),
                with_converge,
                &format!("{sampling} {name}"),
            );
            assert!(tails.support >= 40, "{sampling} {name}: {tails:?}");
        }
    }
}

#[test]
fn a_one_dimensional_model_is_handled_by_whichever_tail_applies() {
    // d = 1 leaves room for no stored entry under the crossover: only
    // empty rows take the support tail (with an empty support).
    let points = (0..64)
        .map(|i| {
            let label = if i % 2 == 0 { 1.0 } else { -1.0 };
            if i % 4 == 3 {
                sparse_point(label, 1, vec![], vec![])
            } else {
                sparse_point(label, 1, vec![0], vec![0.5 * label + i as f64 * 0.01])
            }
        })
        .collect();
    let data = dataset(points);
    let (_, tails) = parity(
        &sgd(SamplingMethod::ShuffledPartition),
        &data,
        &params(GradientKind::LogisticRegression, 64),
        NO_EDIT,
        "d = 1",
    );
    assert_eq!(tails.support, 16, "the empty rows");
    assert_eq!(tails.dense, 48);
}

#[test]
fn a_non_finite_step_diverges_at_the_same_iteration_on_both_tails() {
    // The dense update turns every weight NaN — `±∞·(+0.0)` off the row's
    // columns; the support update would touch only those columns (none at
    // all for the empty rows of the second set), so it must stand down.
    let empty_rows = (0..50)
        .map(|_| sparse_point(1.0, 600, vec![], vec![]))
        .collect();
    for data in [
        dataset(csr_points(200, 600, 8, 600, 11)),
        dataset(empty_rows),
    ] {
        for step in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut p = params(GradientKind::LinearRegression, 50);
            p.step = StepSize::Constant(step);
            for promise in [true, false] {
                let (result, tails) = run(
                    &sgd(SamplingMethod::RandomPartition),
                    &data,
                    &p,
                    promise,
                    NO_EDIT,
                );
                assert_eq!(
                    result.unwrap_err(),
                    GdError::Diverged { iteration: 1 },
                    "step {step}, promise {promise}"
                );
                assert_eq!(
                    tails,
                    Tails {
                        support: 0,
                        dense: 0
                    }
                );
            }
        }
    }
}

#[test]
fn a_positive_scale_or_a_regularizer_takes_the_dense_update() {
    let data = dataset(csr_points(200, 600, 8, 600, 13));
    let plan = sgd(SamplingMethod::ShuffledPartition);
    // A negative step makes `scale` positive: `w += scale·(+0.0)` is no
    // longer the identity on a `-0.0` weight, so the update runs in full.
    let mut ascent = params(GradientKind::LogisticRegression, 40);
    ascent.step = StepSize::Constant(-0.01);
    let (_, tails) = parity(&plan, &data, &ascent, NO_EDIT, "negative step");
    assert_eq!(tails.support, 0);
    // Weight decay moves every coordinate.
    let mut decayed = params(GradientKind::LogisticRegression, 40);
    decayed.regularizer = ml4all_gd::Regularizer::L2 { lambda: 0.1 };
    let (_, tails) = parity(&plan, &data, &decayed, NO_EDIT, "l2 regularizer");
    assert_eq!(tails.support, 0);
}

#[test]
fn a_model_staged_out_of_step_with_itself_never_takes_the_support_tail_early() {
    // A stage that plants a non-finite weight: the dense tail reports it
    // on the first iteration wherever the first row lands, so the support
    // tail may not be trusted with that model.
    let data = dataset(csr_points(200, 600, 8, 300, 15));
    let mut start = vec![0.0; 600];
    start[599] = f64::INFINITY;
    let poisoned: &dyn Fn(&mut GdOperators) = &|ops| ops.stage = Box::new(StartAt(start.clone()));
    for promise in [true, false] {
        let (result, _) = run(
            &sgd(SamplingMethod::RandomPartition),
            &data,
            &params(GradientKind::LogisticRegression, 20),
            promise,
            poisoned,
        );
        assert_eq!(result.unwrap_err(), GdError::Diverged { iteration: 1 });
    }
}

#[test]
fn batch_and_wide_waves_keep_the_dense_tail() {
    let data = dataset(csr_points(400, 1000, 10, 1000, 19));
    let p = params(GradientKind::Svm, 12);
    let (_, tails) = parity(&GdPlan::bgd(), &data, &p, NO_EDIT, "bgd");
    assert_eq!(
        tails,
        Tails {
            support: 0,
            dense: 12
        }
    );
    // 200 rows × ~5 entries is far past 1 000 / 16.
    let wide = GdPlan::mgd(200, TransformPolicy::Eager, SamplingMethod::RandomPartition).unwrap();
    let (_, tails) = parity(&wide, &data, &p, NO_EDIT, "mgd-200");
    assert_eq!(
        tails,
        Tails {
            support: 0,
            dense: 12
        }
    );
}

#[test]
fn a_resumed_run_starts_from_a_clean_accumulator_and_retraces_the_run() {
    // Checkpoints land mid-run while every wave takes the support tail; the
    // compute op under test asserts, on the first unit of every wave —
    // the first wave after a resume included — that the accumulator it is
    // handed is all zeros.
    let data = dataset(csr_points(300, 2000, 10, 2000, 23));
    let plan = sgd(SamplingMethod::ShuffledPartition);
    let p = params(GradientKind::LogisticRegression, 60);
    let mut ops = reference_operators(&plan, &p, 2000);
    ops.compute = Box::new(ChecksCleanStart(GradientCompute::of(p.gradient)));
    let run = |resume: Option<ExecState>| {
        let captured = std::sync::Mutex::new(Vec::new());
        let on_checkpoint = |state: ExecState| captured.lock().unwrap().push(state);
        let hooks = ExecHooks {
            checkpoint_every: 7,
            on_checkpoint: Some(&on_checkpoint),
            resume,
            ..Default::default()
        };
        let mut env = SimEnv::new(ClusterSpec::paper_testbed());
        let result = execute(&plan, &data, &ops, &p, &mut env, &hooks).unwrap();
        (result, captured.into_inner().unwrap())
    };
    let (full, states) = run(None);
    assert_eq!(states.len(), 8, "60 iterations / every 7");
    for state in states {
        let label = format!("resumed from {}", state.iteration);
        assert_eq!(
            bits(&state.weights),
            bits(&state.prev_weights),
            "{label}: a checkpoint is taken after the refresh"
        );
        let (resumed, _) = run(Some(state));
        assert_bit_identical(&resumed, &full, &label);
    }
}
