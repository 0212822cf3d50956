//! A tour of the optimizer's internals: the per-variant iteration
//! estimates (Algorithm 1), the full 11-plan cost table (Figure 5 ×
//! Equations 7–9), and how the choice flips as the dataset or tolerance
//! changes.
//!
//! ```text
//! cargo run --release -p ml4all-bench --example optimizer_tour
//! ```

use ml4all_core::chooser::{choose_plan, OptimizerConfig};
use ml4all_dataflow::ClusterSpec;
use ml4all_datasets::registry;
use ml4all_gd::GradientKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterSpec::paper_testbed();

    for (spec, gradient, tolerance) in [
        (registry::adult(), GradientKind::LogisticRegression, 1e-3),
        (registry::svm1(), GradientKind::Svm, 1e-3),
    ] {
        println!(
            "\n================= {} @ tolerance {tolerance} =================",
            spec.name
        );
        let data = spec.build(4000, 7, &cluster)?;

        let config = OptimizerConfig::new(gradient)
            .with_tolerance(tolerance)
            .with_max_iter(1000);
        let report = choose_plan(&data, &config, &cluster)?;

        println!("-- speculation (Algorithm 1) --");
        for est in &report.estimates {
            println!(
                "  {:>3}: fitted a = {:9.3} (R² {:.3}) → T({tolerance}) ≈ {} iterations \
                 [{} speculative iterations run]",
                est.variant.name(),
                est.estimate.fit.a,
                est.estimate.fit.r_squared,
                est.estimate.iterations,
                est.estimate.speculation_iterations,
            );
        }
        println!(
            "  speculation overhead: {:.1} simulated s",
            report.speculation_sim_s
        );

        println!("-- plan cost table (cheapest first) --");
        for (rank, c) in report.choices.iter().enumerate() {
            println!(
                "  {:>2}. {:24} prep {:8.2}s + {:>6} it × {:8.4}s = {:9.2}s{}",
                rank + 1,
                c.plan.name(),
                c.preparation_s,
                c.estimated_iterations,
                c.per_iteration_s,
                c.total_s,
                if rank == 0 { "   ← chosen" } else { "" }
            );
        }
        println!(
            "-- the optimizer avoided a {:.0}x slowdown ({} vs {})",
            report.worst().total_s / report.best().total_s,
            report.worst().plan,
            report.best().plan
        );
    }
    Ok(())
}
