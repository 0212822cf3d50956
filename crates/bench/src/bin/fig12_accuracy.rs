//! **Figure 12(a/b)** — testing error (mean squared error of predicted
//! labels) of MGD(1k) and SGD across MLlib, SystemML, and ML4all on the
//! first seven Table 2 datasets, 80/20 train/test split, identical
//! hyper-parameters.
//!
//! The interesting cell is rcv1 + SGD: ML4all's shuffled-partition
//! sampling on the skewed (label-sorted) dataset inflates its error
//! relative to MLlib — the Section 8.5 caveat.

use ml4all_baselines::{MllibRunner, SystemmlRunner};
use ml4all_bench::runs::{best_plan_for_variant, params_for};
use ml4all_bench::{print_table, BenchConfig, ExperimentRecord};
use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset, SimEnv};
use ml4all_datasets::{mean_squared_error, registry, train_test_split};
use ml4all_gd::{GdVariant, Gradient};

fn main() {
    let cfg = BenchConfig::from_env();
    let cluster = ClusterSpec::paper_testbed();
    let tolerance = 1e-3;
    let mut json = Vec::new();

    for (panel, variant) in [
        ("a/MGD", GdVariant::MiniBatch { batch: 1000 }),
        ("b/SGD", GdVariant::Stochastic),
    ] {
        let mut rows = Vec::new();
        for spec in registry::table2().into_iter().take(7) {
            // Generate at physical scale, split 80/20, rebuild the train
            // partitioned set with the same logical descriptor scaled by
            // 0.8 (the paper trains on the 80% split).
            let all = spec.generate_columns(cfg.physical_cap(&spec), cfg.seed);
            let (train, test) = train_test_split(&all, 0.8, cfg.seed ^ 0xACC);
            let scheme = if spec.skewed {
                PartitionScheme::Contiguous
            } else {
                PartitionScheme::RoundRobin
            };
            let mut desc = spec.descriptor();
            desc.n = (desc.n as f64 * 0.8) as u64;
            desc.bytes = (desc.bytes as f64 * 0.8) as u64;
            let data = PartitionedDataset::with_descriptor(desc, &train, scheme, &cluster)
                .expect("train split is non-empty");
            let params = params_for(&spec, &cfg, tolerance);
            let gradient = params.gradient;
            let mse_of = |weights: &ml4all_linalg::DenseVector| {
                let preds: Vec<f64> = (test.iter())
                    .map(|p| gradient.predict(weights.as_slice(), p))
                    .collect();
                mean_squared_error(&preds, test.labels())
            };

            let mut env = SimEnv::new(cluster.clone());
            let mllib = MllibRunner::default().run(variant, &data, &params, &mut env);
            let mut env = SimEnv::new(cluster.clone());
            let sysml = SystemmlRunner::default().run(variant, &data, &params, &mut env);
            let ours = best_plan_for_variant(variant, &data, &params, &cfg, &cluster);

            let cells = [
                mllib.as_ref().map(|r| mse_of(&r.weights)).ok(),
                sysml.as_ref().map(|o| mse_of(&o.result.weights)).ok(),
                ours.as_ref().map(|(_, r)| mse_of(&r.weights)).ok(),
            ];
            json.push(serde_json::json!({
                "panel": panel,
                "dataset": spec.name,
                "mllib_mse": cells[0],
                "systemml_mse": cells[1],
                "ml4all_mse": cells[2],
                "ml4all_plan": ours.as_ref().map(|(p, _)| p.name()).ok(),
                "skewed": spec.skewed,
            }));
            rows.push(vec![
                spec.name.clone(),
                fmt_mse(cells[0]),
                fmt_mse(cells[1]),
                fmt_mse(cells[2]),
                ours.as_ref()
                    .map(|(p, _)| p.name())
                    .unwrap_or_else(|_| "-".into()),
            ]);
        }
        print_table(
            &format!("Figure 12({panel}): testing error (MSE)"),
            &["dataset", "MLlib", "SystemML", "ML4all", "ML4all plan"],
            &rows,
        );
    }

    ExperimentRecord::new(
        "fig12",
        "Figure 12: testing error across systems",
        serde_json::Value::Array(json),
    )
    .write();
}

fn fmt_mse(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.3}"),
        _ => "fail".into(),
    }
}
