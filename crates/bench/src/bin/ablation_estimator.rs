//! **Ablation** — what the iterations estimator's pieces contribute.
//!
//! Variants compared against the real iteration counts on adult/covtype
//! (logistic regression) at tolerances {0.01, 0.001}:
//!
//! - `full`: running-min cleaning + least-squares `T(ε) = a/ε` fit
//!   (Algorithm 1 as shipped);
//! - `raw-fit`: least-squares fit over the *raw* noisy error sequence (no
//!   running-min monotonization);
//! - `last-anchor`: no fit at all — anchor `a = i·εᵢ` on the last
//!   observed point;
//! - `theory`: the sufficient-condition bound the paper argues is
//!   impractical (Section 5) — `k ≥ ‖w0 − w*‖² / (2αε)` with `w*`
//!   approximated by the speculation endpoint.

use ml4all_bench::runs::{params_for, run_plan, speculation_for};
use ml4all_bench::{build_dataset, print_table, BenchConfig, ExperimentRecord};
use ml4all_core::curvefit::{running_min_error_seq, CurveFit};
use ml4all_core::estimator::speculation_sample;
use ml4all_dataflow::{ClusterSpec, SimEnv};
use ml4all_datasets::registry;
use ml4all_gd::{execute_plan, GdPlan};

fn main() {
    let cfg = BenchConfig::from_env();
    let cluster = ClusterSpec::paper_testbed();
    let mut rows = Vec::new();
    let mut json = Vec::new();

    for spec in [registry::adult(), registry::covtype()] {
        let data = build_dataset(&spec, &cfg, &cluster);
        for tol in [0.01, 0.001] {
            let params = params_for(&spec, &cfg, tol);

            // One speculative BGD run provides the error sequence all
            // variants estimate from.
            let spec_cfg = speculation_for(&cfg);
            let sample = speculation_sample(&data, &spec_cfg, &cluster).expect("sample");
            let mut spec_params = params.clone();
            spec_params.tolerance = spec_cfg.tolerance;
            spec_params.max_iter = spec_cfg.max_iterations;
            spec_params.record_error_seq = true;
            let mut env = SimEnv::new(cluster.clone());
            let spec_run = execute_plan(&GdPlan::bgd(), &sample, &spec_params, &mut env)
                .expect("speculation runs");

            // Real iterations on the full (physical) dataset.
            let mut real_params = params.clone();
            real_params.max_iter = if cfg.quick { 20_000 } else { 100_000 };
            real_params.record_error_seq = false;
            let real = run_plan(&GdPlan::bgd(), &data, &real_params, &cluster)
                .expect("real run")
                .iterations;

            let cleaned = running_min_error_seq(&spec_run.error_seq);
            let full = CurveFit::fit(&cleaned).map(|f| f.iterations_for(tol));
            let raw = CurveFit::fit(&spec_run.error_seq).map(|f| f.iterations_for(tol));
            let anchor = cleaned.last().map(|&(i, e)| {
                let a = i as f64 * e;
                (a / tol).ceil().max(1.0) as u64
            });
            // Theory bound: k ≥ ‖w0 − w*‖² / (2αε), α from the schedule's
            // first step, w* ≈ speculation endpoint, w0 = 0.
            let w_star_norm2 = spec_run.weights.l2_norm_squared();
            let theory = Some(((w_star_norm2 / (2.0 * 1.0 * tol)).ceil() as u64).max(1));

            let fmt = |v: Option<u64>| match v {
                Some(v) => {
                    let ratio = v.max(real) as f64 / v.min(real).max(1) as f64;
                    format!("{v} ({ratio:.1}x)")
                }
                None => "fit failed".into(),
            };
            rows.push(vec![
                spec.name.clone(),
                format!("{tol}"),
                format!("{real}"),
                fmt(full),
                fmt(raw),
                fmt(anchor),
                fmt(theory),
            ]);
            json.push(serde_json::json!({
                "dataset": spec.name,
                "tolerance": tol,
                "real": real,
                "full": full,
                "raw_fit": raw,
                "last_anchor": anchor,
                "theory_bound": theory,
            }));
        }
    }

    print_table(
        "Ablation: estimator variants — estimated iterations (error factor vs real)",
        &[
            "dataset",
            "eps",
            "real",
            "full",
            "raw-fit",
            "last-anchor",
            "theory",
        ],
        &rows,
    );

    ExperimentRecord::new(
        "ablation_estimator",
        "Ablation: iterations-estimator variants",
        serde_json::Value::Array(json),
    )
    .write();
}
