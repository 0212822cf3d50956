//! The typed-API lowering property: executing a declarative statement and
//! executing the typed request it lowers onto are the *same computation* —
//! same chosen plan, same iteration count, and bit-identical weights for
//! the same seed.

use ml4all::{DataSource, Engine, GradientKind, Session, SessionOutput, TrainRequest, Trained};
use ml4all_core::estimator::SpeculationConfig;
use ml4all_core::lang::AlgorithmPin;
use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset, SamplingMethod};
use ml4all_datasets::synth::{dense_classification_columns, DenseClassConfig};
use proptest::prelude::*;

fn dataset() -> PartitionedDataset {
    let points = dense_classification_columns(&DenseClassConfig {
        n: 350,
        dims: 4,
        noise: 0.1,
        seed: 11,
    });
    PartitionedDataset::from_columns(
        "propdata",
        &points,
        PartitionScheme::RoundRobin,
        &ClusterSpec::paper_testbed(),
    )
    .unwrap()
}

fn quick_engine() -> Engine {
    let engine = Engine::new().with_speculation(SpeculationConfig {
        sample_size: 150,
        max_iterations: 400,
        ..SpeculationConfig::default()
    });
    engine.register_dataset("propdata", dataset());
    engine
}

fn quick_session() -> Session {
    Session::new(quick_engine())
}

/// Format the generated constraint set as an Appendix A statement.
#[allow(clippy::too_many_arguments)]
fn statement(
    epsilon: Option<f64>,
    max_iter: u64,
    algorithm: Option<&str>,
    sampler: Option<&str>,
    step: Option<f64>,
    batch: Option<u64>,
) -> String {
    let mut having = Vec::new();
    if let Some(e) = epsilon {
        having.push(format!("epsilon {e}"));
    }
    having.push(format!("max iter {max_iter}"));
    let mut using = Vec::new();
    if let Some(a) = algorithm {
        using.push(format!("algorithm {a}"));
    }
    if let Some(s) = sampler {
        using.push(format!("sampler {s}"));
    }
    if let Some(s) = step {
        using.push(format!("step {s}"));
    }
    if let Some(b) = batch {
        using.push(format!("batch {b}"));
    }
    let mut stmt = format!(
        "M = run logistic() on propdata having {}",
        having.join(", ")
    );
    if !using.is_empty() {
        stmt.push_str(&format!(" using {}", using.join(", ")));
    }
    stmt.push(';');
    stmt
}

/// Build the typed request the statement should lower onto.
fn typed_request(
    epsilon: Option<f64>,
    max_iter: u64,
    algorithm: Option<&str>,
    sampler: Option<&str>,
    step: Option<f64>,
    batch: Option<u64>,
) -> TrainRequest {
    let mut req = TrainRequest::new(
        GradientKind::LogisticRegression,
        DataSource::registered("propdata"),
    )
    .named("M");
    req.spec.epsilon = epsilon;
    req.spec.max_iter = Some(max_iter);
    req.spec.step = step;
    req.spec.batch = batch;
    req.spec.algorithm = algorithm.map(|a| match a {
        "BGD" => AlgorithmPin::Batch,
        "SGD" => AlgorithmPin::Stochastic,
        _ => AlgorithmPin::MiniBatch { batch: None },
    });
    req.spec.sampler = sampler.map(|s| match s {
        "bernoulli" => SamplingMethod::Bernoulli,
        "random" => SamplingMethod::RandomPartition,
        _ => SamplingMethod::ShuffledPartition,
    });
    req
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parsed_statement_and_typed_request_train_identically(
        epsilon in prop_oneof![Just(None), Just(Some(0.05)), Just(Some(0.02))],
        max_iter in 5u64..60,
        algorithm in prop_oneof![Just(None), Just(Some("BGD")), Just(Some("SGD")), Just(Some("MGD"))],
        sampler in prop_oneof![Just(None), Just(Some("bernoulli")), Just(Some("random")), Just(Some("shuffled"))],
        step in prop_oneof![Just(None), Just(Some(0.5)), Just(Some(2.0))],
        batch in prop_oneof![Just(None), Just(Some(25u64)), Just(Some(100u64))],
    ) {
        let stmt = statement(epsilon, max_iter, algorithm, sampler, step, batch);

        let parsed_session = quick_session();
        let out = parsed_session
            .execute(&stmt)
            .unwrap_or_else(|e| panic!("{stmt}: {e}"));
        let SessionOutput::Trained(Trained { name, summary: parsed, .. }) = out else {
            panic!("{stmt}: expected Trained");
        };
        prop_assert_eq!(&name, "M");

        let typed_engine = quick_engine();
        let Trained { summary: typed, .. } = typed_engine
            .train(typed_request(epsilon, max_iter, algorithm, sampler, step, batch))
            .unwrap_or_else(|e| panic!("typed twin of {stmt}: {e}"));

        prop_assert_eq!(parsed.plan, typed.plan, "{}: plan", stmt);
        prop_assert_eq!(parsed.iterations, typed.iterations, "{}: iterations", stmt);
        prop_assert_eq!(parsed.converged, typed.converged, "{}: converged", stmt);
        prop_assert_eq!(
            parsed.sim_time_s.to_bits(),
            typed.sim_time_s.to_bits(),
            "{}: sim time", stmt
        );
        prop_assert_eq!(
            parsed.speculation_s.to_bits(),
            typed.speculation_s.to_bits(),
            "{}: speculation overhead", stmt
        );

        // Same seed ⇒ bit-identical weights.
        let parsed_weights = parsed_session.engine().model("M").unwrap().weights.clone();
        let typed_weights = typed_engine.model("M").unwrap().weights.clone();
        prop_assert_eq!(parsed_weights, typed_weights, "{}: weights", stmt);
    }
}

/// The explain twin of the property: for any constraint set, the best row
/// of the explain report is the plan `run` executes.
#[test]
fn explain_best_row_matches_run_across_constraint_space() {
    for (epsilon, algorithm) in [
        (None, None),
        (Some(0.05), None),
        (Some(0.05), Some("SGD")),
        (None, Some("MGD")),
    ] {
        let stmt_body = statement(epsilon, 40, algorithm, None, None, None);
        let explain_stmt = format!("explain {}", stmt_body.trim_start_matches("M = run "));

        let session = quick_session();
        let SessionOutput::Explained { report } = session.execute(&explain_stmt).unwrap() else {
            panic!("{explain_stmt}: expected Explained");
        };
        let SessionOutput::Trained(Trained { summary, .. }) = session.execute(&stmt_body).unwrap()
        else {
            panic!("{stmt_body}: expected Trained");
        };
        assert_eq!(summary.plan, report.best().plan, "{stmt_body}");
    }
}

/// A pinned algorithm is the only one speculated: its speculation overhead
/// falls below the unpinned twin's, and its parsed and typed forms still
/// agree bit for bit.
#[test]
fn a_pinned_algorithm_speculates_less_than_its_unpinned_twin() {
    let typed = |algorithm| {
        let Trained { summary, .. } = quick_engine()
            .train(typed_request(Some(0.05), 40, algorithm, None, None, None))
            .unwrap();
        summary
    };
    let unpinned = typed(None);
    for algorithm in ["BGD", "SGD", "MGD"] {
        let pinned = typed(Some(algorithm));
        assert!(
            pinned.speculation_s > 0.0 && pinned.speculation_s < unpinned.speculation_s,
            "{algorithm}: {} s pinned, {} s unpinned",
            pinned.speculation_s,
            unpinned.speculation_s
        );
        let stmt = statement(Some(0.05), 40, Some(algorithm), None, None, None);
        let SessionOutput::Trained(Trained {
            summary: parsed, ..
        }) = quick_session().execute(&stmt).unwrap()
        else {
            panic!("{stmt}: expected Trained");
        };
        assert_eq!(parsed.plan, pinned.plan, "{stmt}");
        assert_eq!(
            parsed.speculation_s.to_bits(),
            pinned.speculation_s.to_bits(),
            "{stmt}"
        );
    }
}
