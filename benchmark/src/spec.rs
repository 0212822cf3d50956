//! The metric vocabulary: every name the program prints, with its unit,
//! and the check that it agrees with `BENCHMARK.json`.
//!
//! `BENCHMARK.json` is the contract a driver reads; these tables are what
//! the program can compute. A run refuses to print a result unless the
//! two agree name for name and unit for unit, every value is finite, and
//! no end-to-end value is zero.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::workload::Error;

/// `(name, unit)` of every end-to-end metric, printed by every workload
/// with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("job_ms", "ms"),
    ("predict_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
    ("allocs_per_job", "count"),
    ("alloc_kb_per_job", "KB"),
    ("succeeded_share", "share"),
];

/// `(name, unit)` of every per-layer metric, printed by every workload
/// with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 84] = [
    ("runtime.scatter_overhead_us", "us"),
    ("runtime.spawn_to_start_us", "us"),
    ("linalg.dot8_l2_ns_per_row", "ns"),
    ("linalg.axpy_l2_ns_per_row", "ns"),
    ("linalg.sparse_dot_ns_per_nnz", "ns"),
    ("linalg.dot8_vs_floor", "ratio"),
    ("linalg.dot8_stream_gb_per_s", "GB/s"),
    ("linalg.memcpy_gb_per_s", "GB/s"),
    ("linalg.dot8_roofline_share", "share"),
    ("dataflow.sample_bernoulli_ns_per_draw", "ns"),
    ("dataflow.sample_random_ns_per_draw", "ns"),
    ("dataflow.sample_shuffle_ns_per_draw", "ns"),
    ("dataflow.fingerprint_gb_per_s", "GB/s"),
    ("dataflow.checkpoint_write_ms", "ms"),
    ("dataflow.checkpoint_read_ms", "ms"),
    ("dataflow.checkpoint_bytes", "bytes"),
    ("dataflow.checkpoint_write_wide_ms", "ms"),
    ("dataflow.slab_write_mb_per_s", "MB/s"),
    ("dataflow.slab_open_ms", "ms"),
    ("gd.bgd_dense_iter_us", "us"),
    ("gd.mgd_bernoulli_dense_iter_us", "us"),
    ("gd.mgd_random_dense_iter_us", "us"),
    ("gd.mgd_shuffle_dense_iter_us", "us"),
    ("gd.sgd_shuffle_dense_iter_us", "us"),
    ("gd.bgd_sparse_iter_us", "us"),
    ("gd.mgd_random_sparse_iter_us", "us"),
    ("gd.sgd_shuffle_sparse_iter_us", "us"),
    ("gd.wave_overhead_us", "us"),
    ("gd.iterations", "count"),
    ("gd.tuples_scanned", "count"),
    ("gd.execute_fixed_overhead_us", "us"),
    ("core.choose_cold_ms.adult", "ms"),
    ("core.choose_cold_ms.covtype", "ms"),
    ("core.choose_cold_ms.yearpred", "ms"),
    ("core.choose_cold_ms.svm1", "ms"),
    ("core.choose_cold_ms.rcv1", "ms"),
    ("core.speculate_ms.bgd", "ms"),
    ("core.speculate_ms.sgd", "ms"),
    ("core.speculate_ms.mgd", "ms"),
    ("core.speculation_iterations", "count"),
    ("core.cost_11_plans_us", "us"),
    ("core.plancache_get_us", "us"),
    ("core.chooser_regret.adult", "ratio"),
    ("core.chooser_regret.covtype", "ratio"),
    ("core.chooser_regret.svm1", "ratio"),
    ("calibrate.observe_us", "us"),
    ("calibrate.choose_calibrated_us", "us"),
    ("calibrate.generation", "count"),
    ("datasets.csv_ingest_mb_per_s", "MB/s"),
    ("datasets.libsvm_ingest_mb_per_s", "MB/s"),
    ("datasets.csv_ingest_spill_mb_per_s", "MB/s"),
    ("datasets.registry_build_ms", "ms"),
    ("datasets.resolve_hot_us", "us"),
    ("ml4all.submit_join_hot_us", "us"),
    ("ml4all.engine_overhead_us", "us"),
    ("ml4all.explain_hit_us", "us"),
    ("ml4all.predict_batch_rows_per_s", "rows/s"),
    ("ml4all.state_dir_overhead_ms", "ms"),
    ("ml4all.checkpoints_written", "count"),
    ("ml4all.sim_time_s", "sim_s"),
    ("serve.encode_small_us", "us"),
    ("serve.decode_small_us", "us"),
    ("serve.encode_joined_wide_us", "us"),
    ("serve.admission_cycle_ns", "ns"),
    ("serve.stats_rtt_us", "us"),
    ("serve.submit_rtt_us", "us"),
    ("serve.observe_stream_us", "us"),
    ("serve.join_rtt_us", "us"),
    ("serve.predict_rtt_us", "us"),
    ("serve.wire_overhead_us", "us"),
    ("serve.wakeups_per_job", "count"),
    ("serve.bytes_in_per_job", "bytes"),
    ("serve.bytes_out_per_job", "bytes"),
    ("serve.boot_ms", "ms"),
    ("wall.setup_s", "s"),
    ("wall.job_ms", "ms"),
    ("wall.job_p50_ms", "ms"),
    ("wall.job_p90_ms", "ms"),
    ("wall.predict_rows_per_s", "rows/s"),
    ("wall.floor_ms", "ms"),
    ("wall.floor_spread", "share"),
    ("wall.one_client_job_ms", "ms"),
    ("trace.accounted_share", "share"),
    ("trace.overhead_share", "share"),
];

/// The four workloads, in suite order.
pub const WORKLOADS: [&str; 4] = ["serve_hot", "train_dense", "train_sparse", "query_cold"];

/// Metric values collected by name while a run measures.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line, in table order, after
    /// checking the collected values against `table`: nothing missing,
    /// nothing extra, everything finite, and (end-to-end only) nothing
    /// zero.
    pub fn to_json(&self, table: &[(&str, &str)], forbid_zero: bool) -> Result<Value, Error> {
        if let Some(extra) = self
            .0
            .keys()
            .find(|name| !table.iter().any(|(listed, _)| listed == name))
        {
            return Err(format!("metric `{extra}` was computed but is not listed").into());
        }
        let mut object = serde_json::Map::new();
        for (name, unit) in table {
            let value = self
                .get(name)
                .ok_or_else(|| format!("listed metric `{name}` was not computed"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})").into());
            }
            if forbid_zero && value == 0.0 {
                return Err(format!("end-to-end metric `{name}` is zero").into());
            }
            object.insert(
                (*name).to_string(),
                serde_json::json!({"value": value, "unit": *unit}),
            );
        }
        Ok(Value::Object(object))
    }
}

/// One metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Listed {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Present on end-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program reads.
#[derive(Debug)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Listed>,
    pub per_layer: Vec<Listed>,
}

impl Contract {
    pub fn load() -> Result<Self, Error> {
        let path = crate::scratch::benchmark_json_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Self, Error> {
        let root = Value::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<Vec<Listed>, Error> {
            root.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
                .iter()
                .map(|entry| {
                    let text = |field: &str| {
                        entry
                            .get(field)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("a `{key}` entry has no `{field}`"))
                    };
                    Ok(Listed {
                        name: text("name")?,
                        unit: text("unit")?,
                        better: text("better")?,
                        bound: entry.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Self {
            run_seconds: root
                .get("run_seconds")
                .and_then(Value::as_u64)
                .ok_or("BENCHMARK.json has no `run_seconds`")?,
            workloads: root
                .get("workloads")
                .and_then(Value::as_array)
                .ok_or("BENCHMARK.json has no `workloads`")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// `Err` unless the listed names and units are exactly the program's
    /// tables, in any order.
    pub fn check_tables(&self) -> Result<(), Error> {
        check_list("end_to_end", &self.end_to_end, &END_TO_END)?;
        check_list("per_layer", &self.per_layer, &PER_LAYER)?;
        let mut listed: Vec<&str> = self.workloads.iter().map(String::as_str).collect();
        let mut known = WORKLOADS.to_vec();
        listed.sort_unstable();
        known.sort_unstable();
        if listed != known {
            return Err(format!("BENCHMARK.json workloads {listed:?} are not {known:?}").into());
        }
        Ok(())
    }
}

fn check_list(key: &str, listed: &[Listed], table: &[(&str, &str)]) -> Result<(), Error> {
    for entry in listed {
        match table.iter().find(|(name, _)| *name == entry.name) {
            None => {
                return Err(format!(
                    "BENCHMARK.json lists `{}` under `{key}` but the program cannot print it",
                    entry.name
                )
                .into())
            }
            Some((_, unit)) if *unit != entry.unit => {
                return Err(format!(
                    "`{}` is listed in `{}` but printed in `{unit}`",
                    entry.name, entry.unit
                )
                .into())
            }
            Some(_) => {}
        }
    }
    if let Some((name, _)) = table
        .iter()
        .find(|(name, _)| !listed.iter().any(|entry| entry.name == *name))
    {
        return Err(format!("the program prints `{name}` but `{key}` does not list it").into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_printed_names_and_units() {
        let contract = Contract::load().expect("BENCHMARK.json beside benchmark/");
        contract.check_tables().unwrap();
        // Bounds: present on every end-to-end metric, at most 0.25, and
        // set-up time carries the largest.
        let setup = contract
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        for metric in &contract.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", metric.name);
            assert!(bound <= setup.bound.unwrap());
        }
        assert!(contract.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn a_missing_extra_zero_or_non_finite_metric_is_refused() {
        let table = [("a", "ms"), ("b", "count")];
        let mut metrics = Metrics::default();
        metrics.set("a", 1.5);
        assert!(metrics.to_json(&table, true).is_err(), "b is missing");
        metrics.set("b", 0.0);
        assert!(metrics.to_json(&table, true).is_err(), "b is zero");
        assert!(metrics.to_json(&table, false).is_ok());
        metrics.set("b", f64::NAN);
        assert!(metrics.to_json(&table, false).is_err(), "b is not finite");
        metrics.set("b", 2.0);
        metrics.set("c", 3.0);
        assert!(metrics.to_json(&table, true).is_err(), "c is extra");
    }

    #[test]
    fn a_unit_mismatch_is_refused() {
        let listed = [Listed {
            name: "a".into(),
            unit: "s".into(),
            better: "lower".into(),
            bound: None,
        }];
        assert!(check_list("x", &listed, &[("a", "ms")]).is_err());
        assert!(check_list("x", &listed, &[("a", "s")]).is_ok());
        assert!(check_list("x", &listed, &[("a", "s"), ("b", "s")]).is_err());
    }
}
