//! Durability tier: jobs killed mid-run resume bit-identically to the
//! uninterrupted run — across backends, worker counts, and repeated
//! interruptions — and corrupted persisted artifacts (checkpoints, slabs)
//! are rejected typed, never resumed from and never a panic.
//!
//! The "kill" here is a wall-budget stop plus engine teardown: the engine
//! is dropped and a fresh one is pointed at the same state directory, so
//! every resumed segment exercises the full cold path — plan cache from
//! `plancache.json`, checkpoint from `checkpoints/`, model registry from
//! `models/` — exactly as after a process death.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ml4all::{
    CheckpointError, DataSource, Engine, ExplainRequest, GdVariant, GradientKind, JobEvent,
    Runtime, SamplingMethod, SessionError, TrainRequest,
};
use ml4all_bench::runs::dense_tail_operators;
use ml4all_core::estimator::SpeculationConfig;
use ml4all_core::plancache::PlanCacheKey;
use ml4all_dataflow::{ClusterSpec, CostBreakdown, ExecState, SimEnv};
use ml4all_gd::executor::reference_operators;
use ml4all_gd::{
    execute, ExecHooks, GdOperators, GdPlan, IterationTick, StopReason, TrainParams, TrainResult,
    TransformPolicy,
};

/// Iteration cap: every run's trajectory has exactly this length because
/// the tolerance is far out of reach.
const MAX_ITER: u64 = 400;
const SEED: u64 = 41;

fn speculation() -> SpeculationConfig {
    SpeculationConfig {
        sample_size: 300,
        max_iterations: 2000,
        ..SpeculationConfig::default()
    }
}

fn engine(workers: usize) -> Engine {
    Engine::new()
        .with_registry_cap(1000)
        .with_speculation(speculation())
        .with_runtime(Arc::new(Runtime::new(workers)))
}

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ml4all-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The job under test: a tolerance below reach keeps the loop running to
/// the iteration cap, so interrupted and uninterrupted runs share one
/// fixed-length trajectory to compare bit for bit.
///
/// `rcv1` (CSR, 47 236 columns, ~70 stored entries per row) is pinned to
/// SGD: every wave reads one short row, so the executor's iteration tail
/// runs over that row's support, and every checkpoint and kill lands while
/// it does.
fn request(dataset: &str) -> TrainRequest {
    let request = TrainRequest::new(
        GradientKind::LogisticRegression,
        DataSource::registry(dataset),
    )
    .epsilon(1e-12)
    .max_iter(MAX_ITER)
    .seed(SEED);
    if dataset == "rcv1" {
        request
            .algorithm(GdVariant::Stochastic)
            .sampler(SamplingMethod::ShuffledPartition)
    } else {
        request
    }
}

/// One progress tick, captured bit-exactly.
#[derive(Debug, PartialEq)]
struct Tick {
    delta: u64,
    sim_time: u64,
    cost: CostBreakdown,
}

/// The uninterrupted run: final state plus the full per-iteration
/// trajectory, the yardstick every resumed run is held against.
struct Reference {
    trained: ml4all::Trained,
    model: Arc<ml4all::Model>,
    ticks: HashMap<u64, Tick>,
}

fn run_reference(dataset: &str) -> Reference {
    let eng = engine(1);
    let handle = eng.submit(request(dataset).progress_every(1).named("ref"));
    let mut ticks = HashMap::new();
    for event in handle.progress() {
        if let JobEvent::Progress {
            iteration,
            delta,
            sim_time_s,
            cost,
        } = event
        {
            ticks.insert(
                iteration,
                Tick {
                    delta: delta.to_bits(),
                    sim_time: sim_time_s.to_bits(),
                    cost,
                },
            );
        }
    }
    let trained = handle.join().unwrap();
    let model = eng.model("ref").unwrap();
    Reference {
        trained,
        model,
        ticks,
    }
}

/// The tentpole acceptance sweep: a job interrupted twice — each time the
/// engine is torn down and rebuilt on the state directory — finishes
/// bit-identical to the uninterrupted run, on the driver-resident dataset
/// (local backend) and the cluster-mapped one (simulated cluster), at 1,
/// 2, and 8 workers.
#[test]
fn killed_jobs_resume_bit_identically_across_backends_and_workers() {
    for dataset in ["adult", "svm1", "rcv1"] {
        let reference = run_reference(dataset);
        let expected_backend = if dataset == "adult" {
            "local"
        } else {
            "simulated-cluster"
        };
        assert_eq!(reference.trained.summary.iterations, MAX_ITER);
        assert_eq!(reference.trained.summary.backend, expected_backend);

        for workers in [1usize, 2, 8] {
            let label = format!("{dataset} at {workers} workers");
            let dir = state_dir(&format!("sweep-{dataset}-{workers}"));

            // Segment 1: a tiny wall budget interrupts the job after a
            // few iterations; `checkpoint_every(1)` guarantees the last
            // completed boundary survives the "crash".
            let eng1 = engine(workers).with_state_dir(&dir);
            let seg1 = eng1
                .train(
                    request(dataset)
                        .checkpoint_every(1)
                        .wall_limit(Duration::from_millis(2))
                        .named("seg1"),
                )
                .unwrap();
            assert!(!seg1.summary.converged, "{label}");
            let it1 = seg1.summary.iterations;
            assert!(
                (1..MAX_ITER).contains(&it1),
                "{label}: segment 1 must stop on its wall budget mid-run, stopped at {it1}"
            );
            drop(eng1);

            // Segment 2: a fresh engine resumes and is interrupted again.
            // Its wall budget covers this segment only — progress past
            // `it1` proves the limit is not charged against the time the
            // checkpointed prefix already consumed.
            let eng2 = engine(workers).with_state_dir(&dir);
            let seg2 = eng2
                .train(
                    request(dataset)
                        .resume(true)
                        .checkpoint_every(1)
                        .wall_limit(Duration::from_millis(6))
                        .named("seg2"),
                )
                .unwrap();
            assert_eq!(eng2.jobs_resumed(), 1, "{label}");
            let it2 = seg2.summary.iterations;
            assert!(
                it2 > it1,
                "{label}: a resumed wall budget covers the new segment only ({it1} -> {it2})"
            );
            assert!(
                it2 < MAX_ITER,
                "{label}: segment 2 must stop on its wall budget mid-run"
            );
            drop(eng2);

            // Segment 3: resume once more and run to completion, replaying
            // the plan decision from disk and streaming every tick.
            let eng3 = engine(workers).with_state_dir(&dir);
            let handle = eng3.submit(request(dataset).resume(true).progress_every(1).named("fin"));
            let mut resumed_at = None;
            let mut cache_hit = false;
            let mut ticks = HashMap::new();
            for event in handle.progress() {
                match event {
                    JobEvent::PlanChosen { cache_hit: hit, .. } => cache_hit = hit,
                    JobEvent::Resumed { iteration } => resumed_at = Some(iteration),
                    JobEvent::Progress {
                        iteration,
                        delta,
                        sim_time_s,
                        cost,
                    } => {
                        ticks.insert(
                            iteration,
                            Tick {
                                delta: delta.to_bits(),
                                sim_time: sim_time_s.to_bits(),
                                cost,
                            },
                        );
                    }
                    _ => {}
                }
            }
            let fin = handle.join().unwrap();
            assert!(
                cache_hit,
                "{label}: the persisted plan decision replays from disk"
            );
            assert_eq!(
                resumed_at,
                Some(it2),
                "{label}: segment 3 resumes at segment 2's last boundary"
            );
            assert_eq!(eng3.jobs_resumed(), 1, "{label}");

            // The resumed tail retraces the uninterrupted trajectory tick
            // for tick, bit for bit.
            assert_eq!(ticks.len() as u64, MAX_ITER - it2, "{label}");
            for (iteration, tick) in &ticks {
                assert_eq!(
                    Some(tick),
                    reference.ticks.get(iteration),
                    "{label}: tick {iteration} diverged from the uninterrupted run"
                );
            }

            // Terminal state: identical to the uninterrupted run — model,
            // simulated clock, and cumulative usage across all segments.
            assert_eq!(fin.summary.iterations, MAX_ITER, "{label}");
            assert_eq!(fin.summary.plan, reference.trained.summary.plan, "{label}");
            assert_eq!(fin.summary.backend, expected_backend, "{label}");
            assert_eq!(
                fin.summary.sim_time_s.to_bits(),
                reference.trained.summary.sim_time_s.to_bits(),
                "{label}: simulated clock"
            );
            assert_eq!(
                fin.summary.usage, reference.trained.summary.usage,
                "{label}: usage metered across segments must sum to the uninterrupted run's"
            );
            assert_eq!(
                eng3.model("fin").unwrap().weights,
                reference.model.weights,
                "{label}: final weights"
            );

            // Completion spends the checkpoint.
            assert_eq!(
                std::fs::read_dir(dir.join("checkpoints")).unwrap().count(),
                0,
                "{label}: a finished job leaves no checkpoint behind"
            );
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn replan_engine(workers: usize) -> Engine {
    engine(workers).with_replanning()
}

/// Plant a doctored plan decision in `eng`'s cache: the *worst* plan is
/// served as the winner, priced at one iteration, so the count the
/// executed deltas imply falls far outside the replan band and the job
/// must replan mid-flight.
fn plant_misprediction(eng: &Engine, dataset: &str) -> ml4all::GdPlan {
    let cluster = eng.cluster().clone();
    let req = request(dataset);
    let mut doctored = eng.explain(ExplainRequest::new(request(dataset))).unwrap();
    doctored.choices.rotate_right(1);
    doctored.choices[0].estimated_iterations = 1;
    // The cache key the engine will look this up under: same registry
    // analog (cap 1000, seed 7 — the engine's materialization inputs),
    // same spec/seed/speculation/cluster, calibration generation 0.
    let spec = match dataset {
        "adult" => ml4all_datasets::registry::adult(),
        _ => ml4all_datasets::registry::svm1(),
    };
    let data = spec.build(1000, 7, &cluster).unwrap();
    let key = PlanCacheKey::new(
        data.fingerprint(),
        &req.spec,
        req.seed,
        &speculation(),
        &cluster,
        0,
    );
    eng.plan_cache().insert(key, &doctored);
    doctored.choices[0].plan
}

/// A replanned run's observables, captured bit-exactly.
struct ReplannedRun {
    trained: ml4all::Trained,
    model: Arc<ml4all::Model>,
    /// `(iteration, to-plan)` of the mid-flight switch.
    switch: (u64, ml4all::GdPlan),
    ticks: HashMap<u64, Tick>,
}

fn run_replanned(dataset: &str, workers: usize) -> ReplannedRun {
    let eng = replan_engine(workers);
    let bad = plant_misprediction(&eng, dataset);
    let handle = eng.submit(request(dataset).progress_every(1).named("rp"));
    let mut switch = None;
    let mut ticks = HashMap::new();
    for event in handle.progress() {
        match event {
            JobEvent::Replanned {
                iteration,
                from,
                to,
                cost_delta,
            } => {
                assert_eq!(from, bad, "the switch abandons the planted plan");
                assert_ne!(to, bad);
                assert!(cost_delta.is_finite());
                switch = Some((iteration, to));
            }
            JobEvent::Progress {
                iteration,
                delta,
                sim_time_s,
                cost,
            } => {
                ticks.insert(
                    iteration,
                    Tick {
                        delta: delta.to_bits(),
                        sim_time: sim_time_s.to_bits(),
                        cost,
                    },
                );
            }
            _ => {}
        }
    }
    let trained = handle.join().unwrap();
    assert_eq!(eng.replans(), 1);
    let switch = switch.expect("the misprediction must trigger a replan");
    assert_eq!(
        trained.summary.plan, switch.1,
        "the job finishes under the new plan"
    );
    let model = eng.model("rp").unwrap();
    ReplannedRun {
        trained,
        model,
        switch,
        ticks,
    }
}

/// Mid-flight replanning is deterministic: a planted misprediction makes
/// the job switch plans mid-run, and the switch iteration, every tick,
/// and the final weights are bit-identical at 1, 2, and 8 workers, on the
/// driver-resident dataset (local backend) and the cluster-mapped one —
/// and across a kill-and-resume whose segments straddle the switch point.
#[test]
fn induced_replans_are_bit_identical_across_workers_backends_and_resume() {
    for dataset in ["adult", "svm1"] {
        let reference = run_replanned(dataset, 1);
        assert_eq!(reference.trained.summary.iterations, MAX_ITER);

        for workers in [2usize, 8] {
            let label = format!("{dataset} at {workers} workers");
            let run = run_replanned(dataset, workers);
            assert_eq!(run.switch, reference.switch, "{label}: switch point");
            assert_eq!(run.ticks, reference.ticks, "{label}: trajectory");
            assert_eq!(
                run.trained.summary.sim_time_s.to_bits(),
                reference.trained.summary.sim_time_s.to_bits(),
                "{label}: simulated clock"
            );
            assert_eq!(
                run.model.weights, reference.model.weights,
                "{label}: final weights"
            );
        }

        // Kill and resume: wherever the wall budget lands relative to the
        // switch, the combined segments replay exactly one switch and
        // finish bit-identical to the uninterrupted replanned run.
        let label = format!("{dataset} killed and resumed");
        let dir = state_dir(&format!("replan-{dataset}"));
        let eng1 = replan_engine(2).with_state_dir(&dir);
        plant_misprediction(&eng1, dataset);
        // The divergence trigger rides the tick stream, so every segment
        // must tick at the reference cadence for the switch to land on
        // the same iteration.
        let seg1 = eng1
            .train(
                request(dataset)
                    .progress_every(1)
                    .checkpoint_every(1)
                    .wall_limit(Duration::from_millis(2))
                    .named("seg1"),
            )
            .unwrap();
        assert!(
            (1..MAX_ITER).contains(&seg1.summary.iterations),
            "{label}: segment 1 must stop on its wall budget mid-run"
        );
        let replans1 = eng1.replans();
        drop(eng1);

        let eng2 = replan_engine(2).with_state_dir(&dir);
        plant_misprediction(&eng2, dataset);
        let fin = eng2
            .train(request(dataset).resume(true).progress_every(1).named("fin"))
            .unwrap();
        assert_eq!(eng2.jobs_resumed(), 1, "{label}");
        assert_eq!(
            replans1 + eng2.replans(),
            1,
            "{label}: exactly one switch across segments"
        );
        assert_eq!(fin.summary.iterations, MAX_ITER, "{label}");
        assert_eq!(fin.summary.plan, reference.trained.summary.plan, "{label}");
        assert_eq!(
            fin.summary.sim_time_s.to_bits(),
            reference.trained.summary.sim_time_s.to_bits(),
            "{label}: simulated clock across segments"
        );
        assert_eq!(
            fin.summary.usage, reference.trained.summary.usage,
            "{label}: cumulative usage across segments"
        );
        assert_eq!(
            eng2.model("fin").unwrap().weights,
            reference.model.weights,
            "{label}: final weights"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// One executor run of the SGD-on-CSR job — checkpointing every 13
/// iterations, optionally resumed from `resume`, optionally yielding for a
/// replan at iteration `yield_at` — with every checkpoint it took.
fn run_observed(
    plan: &GdPlan,
    data: &ml4all_dataflow::PartitionedDataset,
    ops: &GdOperators,
    params: &TrainParams,
    resume: Option<&ExecState>,
    yield_at: Option<u64>,
) -> (TrainResult, Vec<ExecState>) {
    let captured = std::sync::Mutex::new(Vec::new());
    let on_checkpoint = |state: ExecState| captured.lock().unwrap().push(state);
    let trigger = |tick: &IterationTick| Some(tick.iteration) == yield_at;
    let hooks = ExecHooks {
        tick_every: 8,
        checkpoint_every: 13,
        on_checkpoint: Some(&on_checkpoint),
        resume: resume.cloned(),
        replan: Some(&trigger),
        ..Default::default()
    };
    let mut env = SimEnv::new(ClusterSpec::paper_testbed());
    let result = execute(plan, data, ops, params, &mut env, &hooks).unwrap();
    (result, captured.into_inner().unwrap())
}

/// Bitwise equality of two executor states: `PartialEq` on `f64` would let
/// a `-0.0` pass for a `+0.0`.
fn assert_same_state(a: &ExecState, b: &ExecState, label: &str) {
    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    assert_eq!(a.iteration, b.iteration, "{label}: iteration");
    assert_eq!(bits(&a.weights), bits(&b.weights), "{label}: weights");
    assert_eq!(
        bits(&a.prev_weights),
        bits(&b.prev_weights),
        "{label}: previous weights"
    );
    assert_eq!(a, b, "{label}: delta, error sequence, RNG cursor, ledger");
}

fn assert_same_run(a: &TrainResult, b: &TrainResult, label: &str) {
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
    assert_eq!(a.stop, b.stop, "{label}: stop");
    assert_eq!(
        a.weights
            .as_slice()
            .iter()
            .map(|w| w.to_bits())
            .collect::<Vec<_>>(),
        b.weights
            .as_slice()
            .iter()
            .map(|w| w.to_bits())
            .collect::<Vec<_>>(),
        "{label}: weights"
    );
    assert_eq!(a.error_seq, b.error_seq, "{label}: error sequence");
    assert_eq!(a.cost, b.cost, "{label}: ledger");
    assert_eq!(
        a.sim_time_s.to_bits(),
        b.sim_time_s.to_bits(),
        "{label}: simulated clock"
    );
    assert_eq!(a.sampler_shuffles, b.sampler_shuffles, "{label}: shuffles");
}

/// Checkpoints and a replan yield taken while the executor's iteration
/// tail runs over one row's support (SGD on the CSR `rcv1` analog) carry
/// the state the dense tail would have left — weights, previous weights,
/// ledger, RNG cursor — and both the resumed continuation and a handoff to
/// a different plan finish bit-identical to the dense tail doing the same.
/// The dense tail is the same bundle under a compute op that withholds the
/// support promise.
#[test]
fn sgd_on_csr_checkpoints_and_hands_off_mid_support_tail_bit_identically() {
    let cluster = ClusterSpec::paper_testbed();
    let data = ml4all_datasets::registry::rcv1()
        .build(1000, 7, &cluster)
        .unwrap();
    let dims = data.descriptor().dims;
    let sgd = GdPlan::sgd(TransformPolicy::Lazy, SamplingMethod::ShuffledPartition).unwrap();
    let mut params = TrainParams::paper_defaults(GradientKind::LogisticRegression);
    params.tolerance = 0.0;
    params.max_iter = 90;
    params.seed = SEED;
    let support = reference_operators(&sgd, &params, dims);
    let dense = dense_tail_operators(&sgd, &params, dims);

    // Uninterrupted, under both tails.
    let (full, states) = run_observed(&sgd, &data, &support, &params, None, None);
    let (full_dense, states_dense) = run_observed(&sgd, &data, &dense, &params, None, None);
    assert_same_run(&full, &full_dense, "uninterrupted");
    assert_eq!(states.len(), 6, "90 iterations / every 13");
    for (a, b) in states.iter().zip(&states_dense) {
        assert_same_state(a, b, &format!("checkpoint at {}", a.iteration));
    }

    // Killed at every checkpoint and resumed.
    for state in &states {
        let label = format!("resumed from {}", state.iteration);
        let (resumed, later) = run_observed(&sgd, &data, &support, &params, Some(state), None);
        assert_same_run(&resumed, &full, &label);
        let expected = states.iter().filter(|s| s.iteration > state.iteration);
        assert_eq!(later.len(), expected.clone().count(), "{label}");
        for (a, b) in later.iter().zip(expected) {
            assert_same_state(a, b, &label);
        }
    }

    // Replan yield at iteration 32, handed to a different plan: one whose
    // waves stay under the crossover (MGD-4, support tail) and one whose
    // waves do not (MGD-1000, dense tail).
    let (yielded, _) = run_observed(&sgd, &data, &support, &params, None, Some(32));
    let (yielded_dense, _) = run_observed(&sgd, &data, &dense, &params, None, Some(32));
    assert_eq!(yielded.stop, StopReason::Replan);
    assert_eq!(yielded.iterations, 32);
    let state = *yielded.resume_state.expect("a yield carries its state");
    let state_dense = *yielded_dense
        .resume_state
        .expect("a yield carries its state");
    assert_same_state(&state, &state_dense, "replan yield");
    for batch in [4usize, 1000] {
        let next = GdPlan::mgd(
            batch,
            TransformPolicy::Eager,
            SamplingMethod::ShuffledPartition,
        )
        .unwrap();
        let (continued, _) = run_observed(
            &next,
            &data,
            &reference_operators(&next, &params, dims),
            &params,
            Some(&state),
            None,
        );
        let (continued_dense, _) = run_observed(
            &next,
            &data,
            &dense_tail_operators(&next, &params, dims),
            &params,
            Some(&state_dense),
            None,
        );
        assert_eq!(continued.iterations, 90);
        assert_same_run(&continued, &continued_dense, &format!("handoff to {next}"));
    }
}

/// A corrupted or truncated checkpoint is rejected with a typed error —
/// never resumed from, never a panic — and leaves the engine healthy: once
/// the artifact is restored, the same request resumes and completes.
#[test]
fn damaged_checkpoints_are_rejected_typed_and_never_resumed() {
    let dir = state_dir("damaged-ckpt");
    let eng = engine(2).with_state_dir(&dir);
    eng.train(
        request("adult")
            .checkpoint_every(1)
            .wall_limit(Duration::from_millis(2))
            .named("seg1"),
    )
    .unwrap();
    let ckpt = std::fs::read_dir(dir.join("checkpoints"))
        .unwrap()
        .next()
        .expect("the interrupted job left a checkpoint")
        .unwrap()
        .path();
    let original = std::fs::read(&ckpt).unwrap();

    let resume = || eng.train(request("adult").resume(true).named("fin"));
    for damaged in [
        &original[..original.len() - 5], // truncated mid-payload
        &original[..12],                 // truncated inside the header
        b"garbage, not a checkpoint\n".as_slice(),
        b"".as_slice(),
    ] {
        std::fs::write(&ckpt, damaged).unwrap();
        let err = resume().unwrap_err();
        assert!(
            matches!(
                &err,
                SessionError::Checkpoint(
                    CheckpointError::Format(_) | CheckpointError::Checksum { .. }
                )
            ),
            "{} damaged bytes: expected a typed rejection, got {err:?}",
            damaged.len()
        );
    }

    // Restoring the artifact restores the job: it resumes and completes.
    std::fs::write(&ckpt, &original).unwrap();
    let fin = resume().unwrap();
    assert_eq!(fin.summary.iterations, MAX_ITER);
    assert_eq!(eng.jobs_resumed(), 1);
    let _ = std::fs::remove_dir_all(dir);
}

/// Truncating a persisted slab — any amount, down to an empty file — is a
/// typed `SlabError::Format`, caught by header validation before anything
/// is mapped.
#[test]
fn truncated_slabs_are_rejected_typed() {
    use ml4all_dataflow::{open_slab, write_slab, SlabError};
    use ml4all_datasets::synth::{dense_classification_columns, DenseClassConfig};

    let dir = state_dir("damaged-slab");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dense_classification_columns(&DenseClassConfig {
        n: 200,
        dims: 4,
        noise: 0.05,
        seed: 11,
    });
    let slab = dir.join("data.slab");
    write_slab(&slab, &store).unwrap();
    let intact = open_slab(&slab).unwrap();
    assert_eq!(intact.len(), 200);

    let bytes = std::fs::read(&slab).unwrap();
    for keep in [bytes.len() - 1, bytes.len() / 2, 16, 0] {
        std::fs::write(&slab, &bytes[..keep]).unwrap();
        assert!(
            matches!(open_slab(&slab), Err(SlabError::Format(_))),
            "a slab truncated to {keep} bytes must fail header validation"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}
