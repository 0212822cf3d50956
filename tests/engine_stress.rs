//! The concurrent-vs-serial determinism suite (the PR-5 acceptance bar):
//! a mixed batch of train/explain/predict jobs, submitted simultaneously
//! to one shared [`Engine`] on 1/2/8-worker pools and across both
//! backends (adult/covtype map locally, svm1/yearpred map onto the
//! simulated cluster), must produce bit-identical weights, summaries,
//! plan tables, and predictions to the same requests run sequentially —
//! and a plan-cache hit must return the same `PlanChoice` as a cold run
//! while skipping speculation.

use std::collections::HashMap;
use std::sync::Arc;

use ml4all::{
    render_report, DataSource, Engine, ExplainRequest, GradientKind, JobEvent, Model,
    PredictRequest, Runtime, SamplingMethod, TrainRequest, Trained,
};
use ml4all_core::estimator::SpeculationConfig;
use ml4all_gd::GdVariant;
use ml4all_linalg::DenseVector;

const SEEDS: u64 = 4;
const KINDS: usize = 8;

fn engine(workers: usize) -> Engine {
    Engine::new()
        .with_runtime(Arc::new(Runtime::new(workers)))
        .with_registry_cap(600)
        .with_speculation(SpeculationConfig {
            sample_size: 200,
            max_iterations: 800,
            ..SpeculationConfig::default()
        })
}

fn inline_model(dims: usize) -> Model {
    let weights: Vec<f64> = (0..dims).map(|i| ((i % 7) as f64 - 3.0) * 0.1).collect();
    Model::new(GradientKind::LogisticRegression, DenseVector::new(weights))
}

/// The 8 job kinds of the mix, parameterized by seed. Every (kind, seed)
/// pair produces a distinct plan-cache key, so cold/hit behaviour is
/// deterministic regardless of concurrent interleaving.
fn train_request(kind: usize, seed: u64) -> Option<TrainRequest> {
    let name = format!("k{kind}-s{seed}");
    match kind {
        0 => Some(
            TrainRequest::new(
                GradientKind::LogisticRegression,
                DataSource::registry("adult"),
            )
            .epsilon(0.02)
            .max_iter(150)
            .seed(seed)
            .named(name),
        ),
        1 => Some(
            TrainRequest::new(GradientKind::Svm, DataSource::registry("svm1"))
                .max_iter(10)
                .seed(seed)
                .named(name),
        ),
        2 => Some(
            TrainRequest::new(
                GradientKind::LogisticRegression,
                DataSource::registry("covtype"),
            )
            .max_iter(120)
            .algorithm(GdVariant::Stochastic)
            .sampler(SamplingMethod::ShuffledPartition)
            .seed(seed)
            .named(name),
        ),
        6 => Some(
            TrainRequest::new(
                GradientKind::LinearRegression,
                DataSource::registry("yearpred"),
            )
            .max_iter(40)
            .seed(seed)
            .named(name),
        ),
        _ => None,
    }
}

fn explain_request(kind: usize, seed: u64) -> Option<ExplainRequest> {
    match kind {
        3 => Some(ExplainRequest::new(
            TrainRequest::new(
                GradientKind::LogisticRegression,
                DataSource::registry("adult"),
            )
            .epsilon(0.05)
            .max_iter(300)
            .seed(seed),
        )),
        4 => Some(ExplainRequest::new(
            TrainRequest::new(GradientKind::Svm, DataSource::registry("svm1"))
                .max_iter(25)
                .seed(seed),
        )),
        _ => None,
    }
}

fn predict_request(kind: usize) -> Option<PredictRequest> {
    match kind {
        5 => Some(PredictRequest::new(
            DataSource::registry("adult"),
            inline_model(123),
        )),
        7 => Some(PredictRequest::new(
            DataSource::registry("covtype"),
            inline_model(54),
        )),
        _ => None,
    }
}

/// Everything comparable a job produced, rendered to comparable form.
#[derive(Debug, PartialEq)]
enum Outcome {
    Trained {
        plan: String,
        iterations: u64,
        converged: bool,
        sim_time_bits: u64,
        backend: &'static str,
        weight_bits: Vec<u64>,
    },
    Explained {
        table: String,
    },
    Predicted {
        prediction_bits: Vec<u64>,
        mse_bits: u64,
    },
}

fn trained_outcome(engine: &Engine, trained: &Trained) -> Outcome {
    let model = engine.model(&trained.name).expect("bound model");
    Outcome::Trained {
        plan: trained.summary.plan.name(),
        iterations: trained.summary.iterations,
        converged: trained.summary.converged,
        sim_time_bits: trained.summary.sim_time_s.to_bits(),
        backend: trained.summary.backend,
        weight_bits: model
            .weights
            .as_slice()
            .iter()
            .map(|w| w.to_bits())
            .collect(),
    }
}

fn run_one(engine: &Engine, kind: usize, seed: u64) -> Outcome {
    if let Some(request) = train_request(kind, seed) {
        let trained = engine.train(request).unwrap();
        trained_outcome(engine, &trained)
    } else if let Some(request) = explain_request(kind, seed) {
        let report = engine.explain(request).unwrap();
        Outcome::Explained {
            table: render_report(&report),
        }
    } else {
        let request = predict_request(kind).expect("kind covered");
        let p = engine.predict(request).unwrap();
        Outcome::Predicted {
            prediction_bits: p.predictions.iter().map(|x| x.to_bits()).collect(),
            mse_bits: p.mse.to_bits(),
        }
    }
}

/// The serial baseline: every job of the mix, one at a time, in kind-major
/// order on a single-worker engine.
fn serial_baseline() -> HashMap<(usize, u64), Outcome> {
    let engine = engine(1);
    let mut out = HashMap::new();
    for kind in 0..KINDS {
        for seed in 0..SEEDS {
            out.insert((kind, seed), run_one(&engine, kind, seed));
        }
    }
    out
}

#[test]
fn concurrent_mixed_jobs_match_the_serial_baseline_bit_for_bit() {
    let baseline = serial_baseline();
    assert_eq!(baseline.len(), KINDS * SEEDS as usize);

    for workers in [1usize, 2, 8] {
        let engine = engine(workers);
        // Trains go through Engine::submit (true jobs on the pool);
        // explains and predicts hammer the same engine from plain
        // threads — all 32 operations in flight together.
        let mut train_handles = Vec::new();
        for kind in 0..KINDS {
            for seed in 0..SEEDS {
                if let Some(request) = train_request(kind, seed) {
                    train_handles.push(((kind, seed), engine.submit(request)));
                }
            }
        }
        let mut results: HashMap<(usize, u64), Outcome> = HashMap::new();
        std::thread::scope(|scope| {
            let mut threads = Vec::new();
            for kind in 0..KINDS {
                for seed in 0..SEEDS {
                    if train_request(kind, seed).is_some() {
                        continue;
                    }
                    let engine = &engine;
                    threads.push((
                        (kind, seed),
                        scope.spawn(move || run_one(engine, kind, seed)),
                    ));
                }
            }
            for (key, thread) in threads {
                results.insert(key, thread.join().unwrap());
            }
        });
        for (key, handle) in train_handles {
            let trained = handle.join().unwrap();
            results.insert(key, trained_outcome(&engine, &trained));
        }

        assert_eq!(results.len(), baseline.len());
        for (key, outcome) in &results {
            assert_eq!(
                outcome, &baseline[key],
                "kind {} seed {} at {workers} workers diverged from the serial baseline",
                key.0, key.1
            );
        }

        // The plan-cache acceptance bar, on the same warmed engine: a
        // repeated decision is served as a hit, skips speculation, and
        // returns the same PlanChoice table as the cold run.
        let repeat = train_request(0, 0).unwrap();
        let cold_plan = match &baseline[&(0, 0)] {
            Outcome::Trained { plan, .. } => plan.clone(),
            other => panic!("kind 0 is a train job, got {other:?}"),
        };
        let report = engine.explain(ExplainRequest::new(repeat.clone())).unwrap();
        assert!(report.cache_hit, "repeated decision must be a cache hit");
        assert_eq!(report.best().plan.name(), cold_plan);
        let handle = engine.submit(repeat.named("repeat"));
        let events: Vec<JobEvent> = handle.progress().collect();
        assert!(
            events.iter().any(|e| matches!(
                e,
                JobEvent::PlanChosen {
                    cache_hit: true,
                    ..
                }
            )),
            "cache-hit marker missing from job events: {events:?}"
        );
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, JobEvent::SpeculationStarted)),
            "a cache hit must skip speculation"
        );
        let repeat_trained = handle.join().unwrap();
        match &baseline[&(0, 0)] {
            Outcome::Trained {
                iterations,
                sim_time_bits,
                ..
            } => {
                assert_eq!(repeat_trained.summary.iterations, *iterations);
                assert_eq!(repeat_trained.summary.sim_time_s.to_bits(), *sim_time_bits);
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn cancelling_some_jobs_leaves_concurrent_survivors_bit_identical() {
    let baseline = {
        let engine = engine(1);
        run_one(&engine, 0, 0)
    };
    let engine = engine(4);
    // A long-running victim next to a normal job: cancel the victim
    // immediately, then check the survivor against the serial baseline.
    let victim = engine.submit(
        TrainRequest::new(
            GradientKind::LogisticRegression,
            DataSource::registry("covtype"),
        )
        .epsilon(1e-12)
        .max_iter(5_000_000)
        .progress_every(1)
        .named("victim"),
    );
    let survivor = engine.submit(train_request(0, 0).unwrap());
    for event in victim.progress() {
        if matches!(event, JobEvent::Progress { .. }) {
            victim.cancel();
            break;
        }
    }
    assert!(matches!(
        victim.join().unwrap_err(),
        ml4all::SessionError::Cancelled { .. }
    ));
    let trained = survivor.join().unwrap();
    assert_eq!(
        trained_outcome(&engine, &trained),
        baseline,
        "a cancelled neighbour must not perturb surviving jobs"
    );
    assert!(engine.model("victim").is_none());
}
