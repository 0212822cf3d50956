//! Quickstart: train a classifier with the cost-based GD optimizer.
//!
//! ```text
//! cargo run --release -p ml4all-bench --example quickstart
//! ```
//!
//! Builds the covtype analog (Table 2), lets the optimizer speculate and
//! pick among the 11 GD plans of Figure 5, executes the winner, and
//! reports the model's test error.

use ml4all_core::chooser::{choose_plan, OptimizerConfig};
use ml4all_core::estimator::SpeculationConfig;
use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset, SimEnv};
use ml4all_datasets::{mean_squared_error, registry, train_test_split};
use ml4all_gd::{execute_plan, Gradient, GradientKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A cluster to run on — the paper's 4-node testbed, simulated.
    let cluster = ClusterSpec::paper_testbed();

    // 2. Data: a laptop-scale analog of covtype with Table 2's logical
    //    shape (581 012 × 54, 68 MB). Swap in a real LIBSVM file with
    //    `ml4all_datasets::libsvm::read_libsvm_file_columns` if you have one.
    let spec = registry::covtype();
    let rows = spec.generate_columns(6000, 7);
    let (train, test) = train_test_split(&rows, 0.8, 7);
    let data = PartitionedDataset::with_descriptor(
        spec.descriptor(),
        &train,
        PartitionScheme::RoundRobin,
        &cluster,
    )?;

    // 3. Ask the optimizer for the best plan at tolerance 0.01.
    let config = OptimizerConfig::new(GradientKind::LogisticRegression)
        .with_tolerance(0.01)
        .with_max_iter(5000)
        .with_speculation(SpeculationConfig::default());
    let report = choose_plan(&data, &config, &cluster)?;
    println!(
        "optimizer chose {} (estimated {:.1}s for {} iterations; speculation cost {:.1}s)",
        report.best().plan,
        report.best().total_s,
        report.best().estimated_iterations,
        report.speculation_sim_s,
    );
    println!(
        "it avoided {} (estimated {:.1}s — {:.0}x worse)",
        report.worst().plan,
        report.worst().total_s,
        report.worst().total_s / report.best().total_s
    );

    // 4. Execute the chosen plan.
    let params = config.train_params();
    let mut env = SimEnv::new(cluster);
    let result = execute_plan(&report.best().plan, &data, &params, &mut env)?;
    println!(
        "trained in {} iterations — {:.1} simulated seconds (converged: {})",
        result.iterations,
        result.sim_time_s,
        result.converged()
    );

    // 5. Evaluate.
    let gradient = GradientKind::LogisticRegression;
    let predictions: Vec<f64> = (test.iter())
        .map(|p| gradient.predict(result.weights.as_slice(), p))
        .collect();
    println!(
        "test MSE: {:.3} over {} held-out points",
        mean_squared_error(&predictions, test.labels()),
        test.len()
    );
    Ok(())
}
