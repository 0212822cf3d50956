//! **Figures 15–16 (Appendix E)** — the iterations-estimator curve fit
//! under different adaptive step sizes.
//!
//! Figure 15: BGD on adult with steps `1/√i`, `1/i`, `1/i²`; speculation
//! on a 1 000-point sample to tolerance 0.05, fitted `T(ε) = a/ε`
//! extrapolated to 0.001 and compared against the real run.
//!
//! Figure 16: step `1/i` on covtype, rcv1, and higgs.
//!
//! For each case the binary prints the speculation pairs, the fitted
//! curve's prediction at the target, and the real iteration count — the
//! textual equivalent of the paper's three-line plots (blue = speculation,
//! red = fit, green = real execution).

use ml4all_bench::runs::{params_for, run_plan};
use ml4all_bench::{build_dataset, print_table, BenchConfig, ExperimentRecord};
use ml4all_core::estimator::{estimate_iterations, SpeculationConfig};
use ml4all_dataflow::ClusterSpec;
use ml4all_datasets::registry;
use ml4all_gd::{GdPlan, GdVariant, StepSize};

fn main() {
    let cfg = BenchConfig::from_env();
    let cluster = ClusterSpec::paper_testbed();
    let target = 1e-3;
    let mut json = Vec::new();
    let mut rows = Vec::new();

    // (figure, dataset, step)
    let cases: Vec<(&str, ml4all_datasets::DatasetSpec, StepSize)> = vec![
        (
            "15a",
            registry::adult(),
            StepSize::BetaOverSqrtI { beta: 1.0 },
        ),
        ("15b", registry::adult(), StepSize::BetaOverI { beta: 1.0 }),
        (
            "15c",
            registry::adult(),
            StepSize::BetaOverISquared { beta: 1.0 },
        ),
        (
            "16a",
            registry::covtype(),
            StepSize::BetaOverI { beta: 1.0 },
        ),
        ("16b", registry::rcv1(), StepSize::BetaOverI { beta: 1.0 }),
        ("16c", registry::higgs(), StepSize::BetaOverI { beta: 1.0 }),
    ];

    for (figure, spec, step) in cases {
        let data = build_dataset(&spec, &cfg, &cluster);
        let mut params = params_for(&spec, &cfg, target);
        params.step = step;
        // The real run's cap is the estimate's cap too: the fitted curve is
        // Algorithm 1's full one wherever the real run can reach it.
        params.max_iter = if cfg.quick { 50_000 } else { 500_000 };

        let spec_cfg = SpeculationConfig {
            sample_size: 1000,
            tolerance: 0.05,
            max_iterations: if cfg.quick { 20_000 } else { 200_000 },
            seed: cfg.seed,
        };
        let est = estimate_iterations(
            &data,
            GdVariant::Batch,
            &params,
            target,
            &spec_cfg,
            &cluster,
        );

        let mut real_params = params.clone();
        real_params.record_error_seq = false;
        let real = run_plan(&GdPlan::bgd(), &data, &real_params, &cluster);

        let (est_it, fit_a, r2, spec_pairs) = match &est {
            Ok(e) => (e.iterations, e.fit.a, e.fit.r_squared, e.pairs.clone()),
            Err(_) => (0, f64::NAN, f64::NAN, vec![]),
        };
        let (real_it, real_converged) = match &real {
            Ok(r) => (r.iterations, r.converged()),
            Err(_) => (0, false),
        };

        println!(
            "\n-- Figure {figure}: {} with step {} --",
            spec.name,
            step.label()
        );
        // Print a handful of speculation pairs plus the fitted curve at
        // the same iterations (the plotted lines).
        let sample_points: Vec<String> = spec_pairs
            .iter()
            .step_by((spec_pairs.len() / 8).max(1))
            .map(|(i, e)| format!("({i}, {e:.4})"))
            .collect();
        println!("speculation pairs: {}", sample_points.join(" "));
        if fit_a.is_finite() {
            let fitted: Vec<String> = spec_pairs
                .iter()
                .step_by((spec_pairs.len() / 8).max(1))
                .map(|(i, _)| format!("({i}, {:.4})", fit_a / *i as f64))
                .collect();
            println!("fitted  a/i      : {}", fitted.join(" "));
        }
        println!(
            "fit: a = {fit_a:.3}, R² = {r2:.3} → T({target}) = {est_it}; real: {real_it} \
             iterations (converged: {real_converged})"
        );

        rows.push(vec![
            figure.to_string(),
            spec.name.clone(),
            step.label(),
            format!("{fit_a:.2}"),
            format!("{r2:.3}"),
            format!("{est_it}"),
            format!("{real_it}"),
        ]);
        json.push(serde_json::json!({
            "figure": figure,
            "dataset": spec.name,
            "step": step.label(),
            "fit_a": fit_a,
            "r_squared": r2,
            "estimated_iterations": est_it,
            "real_iterations": real_it,
            "real_converged": real_converged,
            "speculation_pairs": spec_pairs,
        }));
    }

    print_table(
        "Figures 15-16: curve fits per step size",
        &["fig", "dataset", "step", "a", "R²", "est T(1e-3)", "real"],
        &rows,
    );

    ExperimentRecord::new(
        "fig15_16",
        "Figures 15-16: estimator curve fitting under adaptive step sizes",
        serde_json::Value::Array(json),
    )
    .write();
}
