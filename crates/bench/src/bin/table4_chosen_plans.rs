//! **Table 4 (Appendix E)** — the plan the optimizer chooses for each GD
//! algorithm on each dataset, and the iterations the chosen plan needs to
//! converge (tolerance 0.001, max 1 000 iterations).
//!
//! Driven through the public typed engine API: each dataset is registered
//! in an [`Engine`], `explain` dumps the full costed plan table once per
//! dataset, and a pinned-algorithm [`TrainRequest`] produces each cell —
//! the same path any user program takes, instead of a bespoke plan dump.

use ml4all::{DataSource, Engine, ExplainRequest, TrainRequest};
use ml4all_bench::runs::speculation_for;
use ml4all_bench::{build_dataset, print_table, task_gradient, BenchConfig, ExperimentRecord};
use ml4all_dataflow::ClusterSpec;
use ml4all_datasets::registry;
use ml4all_gd::GdVariant;

fn main() {
    let cfg = BenchConfig::from_env();
    let cluster = ClusterSpec::paper_testbed();
    let tolerance = 1e-3;
    let engine = Engine::with_cluster(cluster.clone()).with_speculation(speculation_for(&cfg));
    let mut rows = Vec::new();
    let mut json = Vec::new();

    for spec in registry::table2() {
        let data = build_dataset(&spec, &cfg, &cluster);
        engine.register_dataset(&spec.name, data);
        let request = |variant: Option<GdVariant>| {
            let mut r =
                TrainRequest::new(task_gradient(spec.task), DataSource::registered(&spec.name))
                    .epsilon(tolerance)
                    .max_iter(cfg.max_iter())
                    .seed(cfg.seed);
            if let Some(v) = variant {
                r = r.algorithm(v);
            }
            r
        };

        let mut row = vec![spec.name.clone()];
        let mut cells = serde_json::Map::new();
        cells.insert("dataset".into(), spec.name.clone().into());

        // The unrestricted costed plan table (what `explain <query>;`
        // prints), recorded for the appendix JSON.
        match engine.explain(ExplainRequest::new(request(None))) {
            Ok(report) => {
                let table: Vec<serde_json::Value> = report
                    .choices
                    .iter()
                    .map(|c| {
                        serde_json::json!({
                            "plan": c.plan.name(),
                            "estimated_iterations": c.estimated_iterations,
                            "total_s": c.total_s,
                            "mixed": c.mapping.is_mixed(),
                        })
                    })
                    .collect();
                cells.insert("plan_table".into(), serde_json::Value::Array(table));
            }
            Err(e) => {
                cells.insert(
                    "plan_table".into(),
                    serde_json::json!({"error": e.to_string()}),
                );
            }
        }

        // Table 4 columns: SGD, MGD, BGD.
        for variant in [
            GdVariant::Stochastic,
            GdVariant::MiniBatch { batch: 1000 },
            GdVariant::Batch,
        ] {
            match engine.train(request(Some(variant))) {
                Ok(trained) => {
                    let summary = trained.summary;
                    let plan_label = match variant {
                        GdVariant::Batch => format!("{}", summary.iterations),
                        _ => format!(
                            "{} {}-{}",
                            summary.iterations,
                            summary.plan.transform.label(),
                            summary.plan.sampling.map(|s| s.label()).unwrap_or("-")
                        ),
                    };
                    row.push(plan_label);
                    cells.insert(
                        variant.name().to_lowercase(),
                        serde_json::json!({
                            "plan": summary.plan.name(),
                            "iterations": summary.iterations,
                            "converged": summary.converged,
                            "time_s": summary.sim_time_s,
                        }),
                    );
                }
                Err(e) => {
                    row.push(format!("fail: {e}"));
                    cells.insert(
                        variant.name().to_lowercase(),
                        serde_json::json!({ "error": e.to_string() }),
                    );
                }
            }
        }
        rows.push(row);
        json.push(serde_json::Value::Object(cells));
    }

    // Mirror the paper's column layout: #iter + plan per algorithm.
    print_table(
        "Table 4: chosen plan per GD algorithm (iterations plan)",
        &["dataset", "SGD", "MGD(1k)", "BGD (#iter)"],
        &rows,
    );

    ExperimentRecord::new(
        "table4",
        "Table 4: chosen plans and iterations per algorithm",
        serde_json::Value::Array(json),
    )
    .write();
}
