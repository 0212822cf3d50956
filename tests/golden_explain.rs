//! Golden-file snapshots of the rendered `explain` plan table, with and
//! without the measured column — the `EXPLAIN` surface is a contract, so
//! its exact rendering (column set, cost formatting, platform mappings,
//! RNG-stream footer) is pinned — plus the rendered `JobEvent` progress
//! trace of a cold-then-cached engine job pair. Regenerate with
//! `UPDATE_GOLDEN=1` after an intended change.

use ml4all::{
    render_report, render_trace, DataSource, Engine, ExplainRequest, GradientKind, JobEvent,
    TrainRequest,
};
use ml4all_bench::golden::assert_golden;
use ml4all_core::estimator::SpeculationConfig;

fn request(dataset: &str) -> TrainRequest {
    TrainRequest::new(
        GradientKind::LogisticRegression,
        DataSource::registry(dataset),
    )
    .max_iter(40)
}

#[test]
fn explain_table_snapshot_without_measured_column() {
    let engine = Engine::new();
    let report = engine
        .explain(ExplainRequest::new(request("adult")))
        .unwrap();
    assert!(report.choices.iter().all(|c| c.measured_s.is_none()));
    assert_golden("explain_adult.txt", &render_report(&report));
}

#[test]
fn explain_table_snapshot_with_measured_column() {
    let engine = Engine::new();
    let report = engine
        .explain(ExplainRequest::new(request("adult")).measured(true))
        .unwrap();
    assert!(report.choices.iter().all(|c| c.measured_s.is_some()));
    assert_golden("explain_adult_measured.txt", &render_report(&report));
}

#[test]
fn job_trace_snapshot_for_a_cold_then_cached_job_pair() {
    // The progress-stream surface is a contract too: speculation start,
    // the plan-chosen cost vector (with the cache marker), per-K ticks
    // carrying the ledger clock, and the completion line. Everything
    // rendered is deterministic — wall-clock never appears.
    let engine = Engine::new().with_speculation(SpeculationConfig {
        sample_size: 300,
        max_iterations: 2000,
        ..SpeculationConfig::default()
    });
    let request = || {
        TrainRequest::new(
            GradientKind::LogisticRegression,
            DataSource::registry("adult"),
        )
        .epsilon(0.01)
        .max_iter(2000)
        .progress_every(500)
    };
    let cold: Vec<JobEvent> = {
        let handle = engine.submit(request().named("cold"));
        let events = handle.progress().collect();
        handle.join().unwrap();
        events
    };
    let cached: Vec<JobEvent> = {
        let handle = engine.submit(request().named("cached"));
        let events = handle.progress().collect();
        handle.join().unwrap();
        events
    };
    let trace = format!(
        "--- cold submit ---\n{}--- repeated submit ---\n{}",
        render_trace(&cold),
        render_trace(&cached)
    );
    assert_golden("job_trace.txt", &trace);
}

#[test]
fn explain_table_snapshot_for_a_cluster_mapped_dataset() {
    // svm1 declares 10 GB: the table must show Spark placements and the
    // measured column comes from simulated-cluster executions.
    let engine = Engine::new();
    let report = engine
        .explain(ExplainRequest::new(request("svm1")).measured(true))
        .unwrap();
    let rendered = render_report(&report);
    assert!(rendered.contains("Spark"));
    assert_golden("explain_svm1_measured.txt", &rendered);
}
