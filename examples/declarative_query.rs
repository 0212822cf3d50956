//! The declarative path end to end (Appendix A): write the ML task as a
//! query string, parse it, plan it, run it, persist the model, predict.
//!
//! ```text
//! cargo run --release -p ml4all-bench --example declarative_query
//! ```

use ml4all_core::lang::{parse_query, plan_query, Query};
use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset, SimEnv};
use ml4all_datasets::libsvm;
use ml4all_datasets::{accuracy, registry, train_test_split};
use ml4all_gd::{execute_plan, Gradient};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterSpec::paper_testbed();
    let workdir = std::env::temp_dir().join("ml4all-declarative-example");
    std::fs::create_dir_all(&workdir)?;

    // Materialize a small LIBSVM training file so the query refers to a
    // real path, exactly as a user would.
    let spec = registry::adult();
    let rows = spec.generate_columns(3000, 42);
    let (train, test) = train_test_split(&rows, 0.8, 42);
    let train_path = workdir.join("training_data.txt");
    libsvm::write_libsvm(std::fs::File::create(&train_path)?, &train.to_points())?;
    println!(
        "wrote {} training points to {}",
        train.len(),
        train_path.display()
    );

    // --- The query of the paper's Section 3 (with the logistic()
    // gradient function spelled out, Appendix A's Table 3 form) ------
    let query_text = format!(
        "run logistic() on {} having epsilon 0.01, max iter 5000;",
        train_path.display()
    );
    println!("\nquery: {query_text}");
    let query = parse_query(&query_text)?;
    let Query::Run(run) = query else {
        unreachable!("this example issues a run query");
    };

    // Planner: query → optimizer configuration (task → hinge gradient,
    // constraints → tolerance/max iter).
    let config = plan_query(&run)?;
    println!(
        "planned task: {:?} gradient, tolerance {}, max {} iterations",
        config.gradient, config.tolerance, config.max_iter
    );

    // Load the dataset the query names and hand it to the optimizer.
    let loaded = libsvm::read_libsvm_file_columns(&train_path, Some(spec.dims))?;
    let data = PartitionedDataset::from_columns(
        "training_data.txt",
        &loaded,
        PartitionScheme::RoundRobin,
        &cluster,
    )?;
    let report = ml4all_core::chooser::choose_plan(&data, &config, &cluster)?;
    println!("optimizer chose: {}", report.best().plan);

    let params = config.train_params();
    let mut env = SimEnv::new(cluster);
    let result = execute_plan(&report.best().plan, &data, &params, &mut env)?;
    println!(
        "trained: {} iterations, {:.1} simulated seconds",
        result.iterations, result.sim_time_s
    );

    // --- persist Q1 on my_model.txt ---------------------------------
    let model_path = workdir.join("my_model.txt");
    let persist = parse_query(&format!("persist Q1 on {};", model_path.display()))?;
    if let Query::Persist { path, .. } = persist {
        let body: Vec<String> = result
            .weights
            .as_slice()
            .iter()
            .map(f64::to_string)
            .collect();
        std::fs::write(&path, body.join("\n"))?;
        println!("\npersisted model to {path}");
    }

    // --- result = predict on test_data with my_model.txt ------------
    let test_path = workdir.join("test_data.txt");
    libsvm::write_libsvm(std::fs::File::create(&test_path)?, &test.to_points())?;
    let predict = parse_query(&format!(
        "result = predict on {} with {};",
        test_path.display(),
        model_path.display()
    ))?;
    if let Query::Predict { dataset, model } = predict {
        let weights: Vec<f64> = std::fs::read_to_string(model)?
            .lines()
            .map(|l| l.parse())
            .collect::<Result<_, _>>()?;
        let test_points = libsvm::read_libsvm_file_columns(dataset, Some(spec.dims))?;
        let gradient = config.gradient;
        let predictions: Vec<f64> = (test_points.iter())
            .map(|p| gradient.predict(&weights, p))
            .collect();
        println!(
            "prediction accuracy: {:.1}% over {} points",
            100.0 * accuracy(&predictions, test_points.labels()),
            test_points.len()
        );
    }
    Ok(())
}
