//! **Figure 6(a–c)** — estimated vs real number of iterations for BGD,
//! MGD(1k), and SGD at tolerances {0.1, 0.01, 0.001} on adult and covtype
//! and {0.1, 0.01} on rcv1 (the paper skips rcv1 at 0.001: nothing
//! converged within three hours).
//!
//! Speculation settings per Section 8.2: tolerance 0.1, 1 000-point
//! sample, and the iteration cap of [`speculation_for`] in place of the
//! 10 s budget.

use ml4all_bench::runs::{paper_variants, params_for, run_plan, speculation_for};
use ml4all_bench::{build_dataset, print_table, BenchConfig, ExperimentRecord};
use ml4all_core::estimator::estimate_iterations;
use ml4all_dataflow::{ClusterSpec, SamplingMethod};
use ml4all_datasets::registry;
use ml4all_gd::{GdPlan, GdVariant, TransformPolicy};

fn actual_plan(variant: GdVariant) -> GdPlan {
    match variant {
        GdVariant::Batch => GdPlan::bgd(),
        v => GdPlan {
            variant: v,
            transform: TransformPolicy::Eager,
            sampling: Some(SamplingMethod::RandomPartition),
        },
    }
}

fn main() {
    let cfg = BenchConfig::from_env();
    let cluster = ClusterSpec::paper_testbed();
    let actual_cap: u64 = if cfg.quick { 20_000 } else { 200_000 };

    let cases: Vec<(ml4all_datasets::DatasetSpec, Vec<f64>)> = vec![
        (registry::adult(), vec![0.1, 0.01, 0.001]),
        (registry::covtype(), vec![0.1, 0.01, 0.001]),
        (registry::rcv1(), vec![0.1, 0.01]),
    ];

    let mut json = Vec::new();
    for (spec, tolerances) in cases {
        let data = build_dataset(&spec, &cfg, &cluster);
        let mut rows = Vec::new();
        for &tol in &tolerances {
            let mut row = vec![spec.name.clone(), format!("{tol}")];
            for variant in paper_variants() {
                // The real run's cap is the estimate's cap too, so the
                // estimate is Algorithm 1's full number wherever the real
                // run can reach it (speculation stops early only past it).
                let mut params = params_for(&spec, &cfg, tol);
                params.max_iter = actual_cap;
                // Estimated: Algorithm 1.
                let est = estimate_iterations(
                    &data,
                    variant,
                    &params,
                    tol,
                    &speculation_for(&cfg),
                    &cluster,
                );
                // Real: run the variant's reference plan to convergence
                // (uncapped within reason).
                let mut real_params = params.clone();
                real_params.record_error_seq = false;
                let real = run_plan(&actual_plan(variant), &data, &real_params, &cluster);

                let (est_it, real_it) = (
                    est.as_ref().map(|e| e.iterations).unwrap_or(0),
                    real.as_ref().map(|r| r.iterations).unwrap_or(0),
                );
                row.push(format!("{real_it}/{est_it}"));
                json.push(serde_json::json!({
                    "dataset": spec.name,
                    "tolerance": tol,
                    "variant": variant.name(),
                    "real_iterations": real_it,
                    "estimated_iterations": est_it,
                    "fit_a": est.as_ref().map(|e| e.fit.a).unwrap_or(f64::NAN),
                    "same_order": same_order(real_it, est_it),
                }));
            }
            rows.push(row);
        }
        print_table(
            &format!("Figure 6: {} — real/estimated iterations", spec.name),
            &["dataset", "eps", "BGD", "MGD(1k)", "SGD"],
            &rows,
        );
    }

    // The paper's headline check: estimates stay within the same order of
    // magnitude and preserve the BGD/MGD/SGD ordering.
    let ok = json
        .iter()
        .filter(|v| v["same_order"].as_bool() == Some(true))
        .count();
    println!("\nwithin one order of magnitude: {ok}/{} cells", json.len());

    ExperimentRecord::new(
        "fig06",
        "Figure 6: estimated vs real iterations",
        serde_json::Value::Array(json),
    )
    .write();
}

fn same_order(real: u64, est: u64) -> bool {
    if real == 0 || est == 0 {
        return false;
    }
    let ratio = real.max(est) as f64 / real.min(est) as f64;
    ratio <= 10.0
}
