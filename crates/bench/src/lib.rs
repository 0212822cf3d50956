//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Section 8 and Appendix E).
//!
//! One binary per experiment (see `src/bin/`); each prints the same rows or
//! series the paper reports and persists a JSON record under `results/` so
//! EXPERIMENTS.md is regenerable. `run_all` drives the full suite.
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `fig01_motivation` | Figure 1 (no all-times winner) |
//! | `fig06_iterations` | Figure 6(a–c) (estimated vs real iterations) |
//! | `fig07_cost` | Figure 7(a/b) (time estimates) |
//! | `fig08_effectiveness` | Figure 8 (min/max/chosen plan) |
//! | `fig09_systems` | Figure 9(a–c) (vs MLlib/SystemML) |
//! | `fig10_scalability` | Figure 10(a/b) (points/features sweeps) |
//! | `fig11_abstraction` | Figure 11(a–c) (vs Bismarck / pure Spark) |
//! | `fig12_accuracy` | Figure 12(a/b) (testing error) |
//! | `fig13_sampling_mgd` | Figure 13(a/b) |
//! | `fig14_transform` | Figure 14(a/b) |
//! | `fig15_16_curvefit` | Figures 15–16 (step-size curve fits) |
//! | `fig17_sampling_sgd` | Figure 17(a/b) (Appendix E) |
//! | `fig18_transform_random` | Figure 18(a/b) (Appendix E) |
//! | `table2_datasets` | Table 2 |
//! | `table4_chosen_plans` | Table 4 (Appendix E) |

pub mod conformance;
pub mod golden;
pub mod harness;
pub mod report;
pub mod runs;
pub mod wire_samples;

pub use conformance::{
    calibration_sweep, conformance_fit, sweep_dataset, sweep_with, CalibrationConformance,
    CalibrationReport, ConformanceReport, DatasetConformance,
};
pub use harness::{build_dataset, print_table, task_gradient, BenchConfig};
pub use report::ExperimentRecord;
