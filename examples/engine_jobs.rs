//! Concurrent jobs on the [`Engine`]: submit several training requests at
//! once, stream their progress events, cancel one mid-flight, and watch a
//! repeated request hit the plan cache.
//!
//! ```text
//! cargo run --release --example engine_jobs
//! ```

use ml4all::{DataSource, Engine, GradientKind, JobEvent, SessionError, TrainRequest};
use ml4all_core::estimator::SpeculationConfig;

fn main() -> Result<(), SessionError> {
    let engine = Engine::new()
        .with_registry_cap(2000)
        .with_speculation(SpeculationConfig {
            sample_size: 300,
            max_iterations: 2000,
            ..SpeculationConfig::default()
        });

    // Two jobs in flight at once, on the shared worker pool.
    let adult = engine.submit(
        TrainRequest::new(
            GradientKind::LogisticRegression,
            DataSource::registry("adult"),
        )
        .epsilon(0.01)
        .max_iter(2000)
        .progress_every(250)
        .named("adult-model"),
    );
    let covtype = engine.submit(
        TrainRequest::new(
            GradientKind::LogisticRegression,
            DataSource::registry("covtype"),
        )
        .epsilon(0.01)
        .max_iter(2000)
        .named("covtype-model"),
    );

    // Stream the first job's events while both run.
    for event in adult.progress() {
        match event {
            JobEvent::SpeculationStarted => println!("[adult] speculating..."),
            JobEvent::PlanChosen {
                plan,
                total_s,
                cache_hit,
                ..
            } => println!(
                "[adult] plan {plan} (estimated {total_s:.2} simulated s, cache {})",
                if cache_hit { "hit" } else { "miss" }
            ),
            JobEvent::Progress {
                iteration, delta, ..
            } => println!("[adult] iter {iteration}: delta {delta:.5}"),
            JobEvent::Completed {
                name, iterations, ..
            } => println!("[adult] done: {name} after {iterations} iterations"),
            other => println!("[adult] {other:?}"),
        }
    }
    let adult = adult.join()?;
    let covtype = covtype.join()?;
    println!(
        "trained {} ({} iter) and {} ({} iter) concurrently",
        adult.name, adult.summary.iterations, covtype.name, covtype.summary.iterations
    );

    // A repeated request skips speculation: the plan cache serves it.
    let repeat = engine.submit(
        TrainRequest::new(
            GradientKind::LogisticRegression,
            DataSource::registry("adult"),
        )
        .epsilon(0.01)
        .max_iter(2000)
        .named("adult-again"),
    );
    let events: Vec<JobEvent> = repeat.progress().collect();
    let hit = events.iter().any(|e| {
        matches!(
            e,
            JobEvent::PlanChosen {
                cache_hit: true,
                ..
            }
        )
    });
    repeat.join()?;
    println!(
        "repeated request: plan cache {} ({} hits / {} misses so far)",
        if hit { "HIT" } else { "miss" },
        engine.plan_cache().hits(),
        engine.plan_cache().misses()
    );

    // Cooperative cancellation: the job stops at the next wave boundary.
    let doomed = engine.submit(
        TrainRequest::new(
            GradientKind::LogisticRegression,
            DataSource::registry("covtype"),
        )
        .epsilon(1e-12)
        .max_iter(5_000_000)
        .progress_every(1)
        .named("doomed"),
    );
    for event in doomed.progress() {
        if matches!(event, JobEvent::Progress { .. }) {
            doomed.cancel();
            break;
        }
    }
    match doomed.join() {
        Err(SessionError::Cancelled { iterations }) => {
            println!("cancelled the runaway job after {iterations} iterations");
        }
        other => println!("unexpected outcome: {other:?}"),
    }
    Ok(())
}
