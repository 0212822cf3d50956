//! Cost-model conformance tier: every plan-space point executes through
//! its mapped backend (local or simulated cluster) and the ledger-measured
//! cost must track the model's prediction — the in-repo analog of the
//! paper's cluster validation (Sections 5–8, Table 4).
//!
//! The sweep runs BGD/SGD/MGD × samplers × transform policies on registry
//! datasets scaled to test size with a fixed iteration count, then asserts
//! (a) measured/predicted inside each plan's stated band and (b) the
//! chooser's argmin is unchanged when measured costs are substituted.
//! Set `CONFORMANCE_JSON=<path>` to persist the predicted-vs-measured
//! report (the CI artifact), and `UPDATE_GOLDEN=1` to regenerate the
//! golden chosen-plan table.

use std::sync::OnceLock;

use ml4all_bench::conformance::{
    calibration_sweep, sweep_dataset, CalibrationReport, ConformanceReport, DatasetConformance,
};
use ml4all_bench::golden::assert_golden;
use ml4all_dataflow::ClusterSpec;
use ml4all_datasets::registry;

/// Physical row cap: large enough that Bernoulli draw-count noise
/// averages out, small enough to keep the tier fast.
const MAX_PHYSICAL: usize = 1500;
/// Fixed iteration count every plan is costed and executed with.
const ITERATIONS: u64 = 25;
const SEED: u64 = 17;

/// The sweep datasets: a driver-resident dataset (adult, 7 MB), a
/// mid-size one (covtype, 68 MB), and a cluster-mapped one (svm1, 10 GB)
/// — one sweep per Appendix D placement regime.
fn sweeps() -> &'static [DatasetConformance] {
    static SWEEPS: OnceLock<Vec<DatasetConformance>> = OnceLock::new();
    SWEEPS.get_or_init(|| {
        let cluster = ClusterSpec::paper_testbed();
        [registry::adult(), registry::covtype(), registry::svm1()]
            .iter()
            .map(|spec| sweep_dataset(spec, MAX_PHYSICAL, ITERATIONS, SEED, &cluster))
            .collect()
    })
}

#[test]
fn measured_cost_tracks_prediction_within_stated_bands() {
    for sweep in sweeps() {
        for row in &sweep.rows {
            assert!(
                row.within_band,
                "{}/{} on {}: measured {:.4}s vs predicted {:.4}s (ratio {:.4}, band {:?})",
                sweep.dataset,
                row.plan,
                row.backend,
                row.measured_s,
                row.predicted_s,
                row.ratio,
                row.band
            );
        }
    }
}

#[test]
fn chooser_argmin_is_stable_under_measured_costs() {
    for sweep in sweeps() {
        assert!(
            sweep.argmin_stable(),
            "{}: predicted argmin {} but measured argmin {}",
            sweep.dataset,
            sweep.predicted_argmin,
            sweep.measured_argmin
        );
    }
}

#[test]
fn cluster_mapped_plans_execute_through_the_simulated_cluster() {
    let svm1 = sweeps().iter().find(|s| s.dataset == "svm1").unwrap();
    for row in &svm1.rows {
        assert_eq!(
            row.backend, "simulated-cluster",
            "{}: every svm1 plan maps onto the cluster",
            row.plan
        );
        assert!(
            row.tuples_scanned > 0,
            "{}: cluster executions are metered",
            row.plan
        );
    }
    let adult = sweeps().iter().find(|s| s.dataset == "adult").unwrap();
    assert!(
        adult.rows.iter().all(|r| r.backend == "local"),
        "adult fits one partition and stays at the driver"
    );
}

/// Table 4 as an executable golden: the chosen plan per dataset, pinned.
/// The conformance sweep proves the choice survives measured costs; this
/// test pins *which* plan that is.
#[test]
fn chosen_plans_match_the_golden_table() {
    let mut table = String::from("dataset  chosen-plan  backend-of-chosen\n");
    for sweep in sweeps() {
        let best = &sweep.rows[0];
        table.push_str(&format!(
            "{}  {}  {}\n",
            sweep.dataset, sweep.predicted_argmin, best.backend
        ));
    }
    assert_golden("table4_chosen_plans.txt", &table);
}

/// The calibration double sweep (the CI "cold, then calibrated" pass):
/// sweep every dataset cold while fitting a calibrator from the executed
/// plans, sweep again under the fitted snapshot, and require the
/// calibrated estimator to be no worse on **every** plan and strictly
/// tighter in aggregate. Set `CALIBRATION_JSON=<path>` to persist the
/// comparison (the CI artifact).
#[test]
fn calibration_strictly_tightens_conformance_error() {
    let cluster = ClusterSpec::paper_testbed();
    let mut datasets = Vec::new();
    for spec in [registry::adult(), registry::covtype(), registry::svm1()] {
        let cal = calibration_sweep(&spec, MAX_PHYSICAL, ITERATIONS, SEED, &cluster);
        assert_eq!(cal.rows.len(), 11, "{}: full plan space", cal.dataset);
        for row in &cal.rows {
            assert!(
                row.calibrated_error <= row.cold_error + 1e-6,
                "{}/{}: calibrated error {:.3e} worse than cold {:.3e}",
                cal.dataset,
                row.plan,
                row.calibrated_error,
                row.cold_error
            );
        }
        assert!(
            cal.strictly_tighter(),
            "{}: calibrated aggregate {:.3e} !< cold {:.3e}",
            cal.dataset,
            cal.calibrated_aggregate_error,
            cal.cold_aggregate_error
        );
        datasets.push(cal);
    }

    let report = CalibrationReport::new(datasets);
    assert!(
        report.calibrated_total_error < report.cold_total_error,
        "whole-suite aggregate must tighten: {:.3e} !< {:.3e}",
        report.calibrated_total_error,
        report.cold_total_error
    );
    if let Some(path) = report.write_if_requested() {
        eprintln!("wrote calibration report to {}", path.display());
    }
}

/// Persist the predicted-vs-measured report when CI asks for it.
#[test]
fn conformance_report_artifact() {
    let report = ConformanceReport::new(sweeps().to_vec());
    let json = report.to_json();
    assert!(json.contains("\"datasets\""));
    if let Some(path) = report.write_if_requested() {
        eprintln!("wrote conformance report to {}", path.display());
    }
}
