//! Accelerated GD algorithms expressed in the seven-operator abstraction
//! (Appendix C): SVRG and BGD with backtracking line search, compared
//! against plain BGD/SGD on the same regression task.
//!
//! ```text
//! cargo run --release -p ml4all-bench --example accelerated_gd
//! ```

use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset, SamplingMethod, SimEnv};
use ml4all_datasets::synth::{dense_regression_columns, RegressionConfig};
use ml4all_gd::linesearch::execute_line_search_bgd;
use ml4all_gd::svrg::execute_svrg;
use ml4all_gd::{
    execute_plan, stream_loss, GdPlan, GradientKind, Regularizer, StepSize, TrainParams,
    TransformPolicy,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterSpec::paper_testbed();
    let points = dense_regression_columns(&RegressionConfig {
        n: 4000,
        dims: 20,
        noise: 0.01,
        seed: 17,
    });
    let data = PartitionedDataset::from_columns(
        "regression",
        &points,
        PartitionScheme::RoundRobin,
        &cluster,
    )?;
    let loss_of = |w: &ml4all_linalg::DenseVector| {
        stream_loss(
            &GradientKind::LinearRegression,
            &Regularizer::None,
            w.as_slice(),
            points.iter(),
        )
    };

    let mut params = TrainParams::paper_defaults(GradientKind::LinearRegression);
    params.tolerance = 1e-7;
    params.max_iter = 2000;

    // Plain BGD with a fixed step.
    let mut bgd_params = params.clone();
    bgd_params.step = StepSize::Constant(0.5);
    let mut env = SimEnv::new(cluster.clone());
    let bgd = execute_plan(&GdPlan::bgd(), &data, &bgd_params, &mut env)?;
    println!(
        "BGD  (α=0.5)            : {:5} iterations, loss {:.2e}",
        bgd.iterations,
        loss_of(&bgd.weights)
    );

    // Plain SGD.
    let sgd_plan = GdPlan::sgd(TransformPolicy::Eager, SamplingMethod::ShuffledPartition)?;
    let mut sgd_params = params.clone();
    sgd_params.step = StepSize::Constant(0.05);
    let mut env = SimEnv::new(cluster.clone());
    let sgd = execute_plan(&sgd_plan, &data, &sgd_params, &mut env)?;
    println!(
        "SGD  (α=0.05)           : {:5} iterations, loss {:.2e}",
        sgd.iterations,
        loss_of(&sgd.weights)
    );

    // SVRG: anchor every 100 iterations (Algorithm 2 through the Sample/
    // Compute/Update if-else flattening of Listing 8).
    let mut env = SimEnv::new(cluster.clone());
    let svrg = execute_svrg(
        &data,
        SamplingMethod::ShuffledPartition,
        100,
        0.05,
        &params,
        &mut env,
    )?;
    println!(
        "SVRG (m=100, α=0.05)    : {:5} iterations, loss {:.2e}",
        svrg.iterations,
        loss_of(&svrg.weights)
    );

    // BGD + backtracking line search (Listings 9-10): no α tuning at all —
    // start from an absurd 64.0 and let Armijo shrink it.
    let mut env = SimEnv::new(cluster);
    let ls = execute_line_search_bgd(&data, 64.0, 0.5, &params, &mut env)?;
    println!(
        "BGD + line search (α₀=64): {:5} phases,    loss {:.2e}",
        ls.iterations,
        loss_of(&ls.weights)
    );

    println!(
        "\nSVRG reaches BGD-grade loss while touching ~1/{} of the data per \
         iteration between anchors.",
        data.physical_n()
    );
    Ok(())
}
