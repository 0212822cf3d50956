//! `compare A.json[,A2…] B.json[,B2…]`: two sides of suite files, metric
//! by metric, one row per workload.
//!
//! For every workload and end-to-end metric it prints both medians, B/A
//! with its base, the bound, and each side's quartile distance over its
//! median. A metric past its bound is a *REGRESSION*; where either side's
//! spread exceeds the bound the row reads *unresolved* — not *same* —
//! unless every run of one side beats every run of the other. Exact
//! counters must be equal at equal seeds.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::spec::{Contract, Listed, WORKLOADS};
use crate::stats::{median, quartile_spread};
use crate::workload::Error;

/// Per-layer metrics that are counts made by the program: they repeat
/// exactly at equal seeds, so any difference is a finding, not noise.
const EXACT_COUNTERS: [&str; 7] = [
    "gd.iterations",
    "gd.tuples_scanned",
    "calibrate.generation",
    "ml4all.checkpoints_written",
    "ml4all.sim_time_s",
    "dataflow.checkpoint_bytes",
    "core.speculation_iterations",
];

/// One run of a suite file.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
}

fn load_side(list: &str) -> Result<Vec<Run>, Error> {
    let mut runs = Vec::new();
    for path in list.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let root = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let entries = root
            .get("runs")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path} is not a suite file (no `runs`)"))?;
        for entry in entries {
            let field = |name: &str| {
                entry
                    .get(name)
                    .ok_or_else(|| format!("{path}: a run has no `{name}`"))
            };
            let metrics = field("result")?
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("{path}: a run has no metrics"))?
                .iter()
                .filter_map(|(name, m)| {
                    m.get("value")
                        .and_then(Value::as_f64)
                        .map(|v| (name.clone(), v))
                })
                .collect();
            runs.push(Run {
                workload: field("workload")?
                    .as_str()
                    .ok_or("workload is not a string")?
                    .to_string(),
                seed: field("seed")?.as_u64().ok_or("seed is not a number")?,
                trace: field("trace")?.as_bool().ok_or("trace is not a bool")?,
                metrics,
            });
        }
    }
    if runs.is_empty() {
        return Err(format!("no runs in `{list}`").into());
    }
    Ok(runs)
}

fn values(side: &[Run], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    side.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// The verdict on one metric of one workload.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Same,
    Better,
    Unresolved,
    Regression,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Self::Same => "same",
            Self::Better => "better",
            Self::Unresolved => "unresolved",
            Self::Regression => "REGRESSION",
        }
    }
}

/// How far median B is worse than median A, as a share of A (negative
/// when B is better).
pub fn worsening(median_a: f64, median_b: f64, higher: bool) -> f64 {
    if higher {
        (median_a - median_b) / median_a
    } else {
        (median_b - median_a) / median_a
    }
}

/// Judge side B against side A for a metric where `higher` says which way
/// is better and `bound` is the relative worsening that counts.
pub fn judge(a: &[f64], b: &[f64], higher: bool, bound: f64) -> Verdict {
    let worsening = worsening(median(a), median(b), higher);
    let noisy = quartile_spread(a) > bound || quartile_spread(b) > bound;
    let beats = |x: f64, y: f64| if higher { x > y } else { x < y };
    let b_beats_all = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let a_beats_all = a.iter().all(|&x| b.iter().all(|&y| beats(x, y)));
    if worsening > bound {
        if noisy && !a_beats_all {
            Verdict::Unresolved
        } else {
            Verdict::Regression
        }
    } else if noisy {
        if b_beats_all {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn spread_text(values: &[f64]) -> String {
    if values.len() < 2 {
        "n/a".into()
    } else {
        format!("{:.4}", quartile_spread(values))
    }
}

fn end_to_end(a: &[Run], b: &[Run], listed: &[Listed]) -> Result<u32, Error> {
    println!(
        "| workload | metric | median A (n) | median B (n) | B/A (base A) | bound | spread A | spread B | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut regressions = 0;
    for workload in WORKLOADS {
        for metric in listed {
            let (va, vb) = (
                values(a, workload, false, &metric.name),
                values(b, workload, false, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = metric.bound.ok_or("an end-to-end metric without a bound")?;
            let verdict = judge(&va, &vb, metric.better == "higher", bound);
            regressions += u32::from(verdict == Verdict::Regression);
            println!(
                "| {workload} | {} [{}] | {:.6} ({}) | {:.6} ({}) | {:.4} | {bound} | {} | {} | {} |",
                metric.name,
                metric.unit,
                median(&va),
                va.len(),
                median(&vb),
                vb.len(),
                median(&vb) / median(&va),
                spread_text(&va),
                spread_text(&vb),
                verdict.label()
            );
        }
    }
    Ok(regressions)
}

/// Exact counters of traced runs, matched by `(workload, seed)`.
fn exact_counters(a: &[Run], b: &[Run]) -> u32 {
    let mut mismatches = 0;
    for run_a in a.iter().filter(|r| r.trace) {
        let Some(run_b) = b
            .iter()
            .find(|r| r.trace && r.workload == run_a.workload && r.seed == run_a.seed)
        else {
            continue;
        };
        for counter in EXACT_COUNTERS {
            let (x, y) = (run_a.metrics.get(counter), run_b.metrics.get(counter));
            if x.map(|v| v.to_bits()) != y.map(|v| v.to_bits()) {
                mismatches += 1;
                println!(
                    "COUNTER MISMATCH {} seed {} {counter}: A {x:?} B {y:?}",
                    run_a.workload, run_a.seed
                );
            }
        }
    }
    mismatches
}

/// Per-layer medians side by side (no bounds: they locate a change, they
/// do not gate it).
fn per_layer(a: &[Run], b: &[Run], listed: &[Listed]) {
    println!();
    println!("| workload | per-layer metric | median A | median B | B/A (base A) |");
    println!("|---|---|---|---|---|");
    for workload in WORKLOADS {
        for metric in listed {
            let (va, vb) = (
                values(a, workload, true, &metric.name),
                values(b, workload, true, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let ratio = if ma == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.4}", mb / ma)
            };
            println!(
                "| {workload} | {} [{}] | {ma:.6} | {mb:.6} | {ratio} |",
                metric.name, metric.unit
            );
        }
    }
}

pub fn main(args: &[String]) -> Result<(), Error> {
    let [a, b] = args else {
        return Err("usage: compare A.json[,A2…] B.json[,B2…]".into());
    };
    let contract = Contract::load()?;
    let (a, b) = (load_side(a)?, load_side(b)?);
    let regressions = end_to_end(&a, &b, &contract.end_to_end)?;
    let mismatches = exact_counters(&a, &b);
    per_layer(&a, &b, &contract.per_layer);
    if regressions + mismatches > 0 {
        return Err(format!(
            "{regressions} regression(s) past the bound, {mismatches} exact-counter mismatch(es)"
        )
        .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_move_past_the_bound_is_a_regression_only_when_resolved() {
        let a = [10.0, 10.1, 9.9, 10.0];
        // Lower is better; B is 30% worse and tight.
        assert_eq!(
            judge(&a, &[13.0, 13.1, 12.9, 13.0], false, 0.15),
            Verdict::Regression
        );
        // The same medians, but B spreads past the bound and overlaps A.
        assert_eq!(
            judge(&a, &[9.5, 13.0, 13.2, 18.0], false, 0.15),
            Verdict::Unresolved
        );
        // Spread past the bound, yet every B run is worse than every A run.
        assert_eq!(
            judge(&a, &[12.0, 13.0, 16.0, 19.0], false, 0.15),
            Verdict::Regression
        );
    }

    #[test]
    fn within_the_bound_a_wide_spread_reads_unresolved_not_same() {
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&a, &[10.2, 10.0, 10.1, 10.3], false, 0.15),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &[8.0, 10.0, 10.4, 13.0], false, 0.15),
            Verdict::Unresolved
        );
        // Every B run beats every A run: better, however wide B spreads.
        assert_eq!(
            judge(&a, &[5.0, 7.0, 9.0, 9.5], false, 0.15),
            Verdict::Better
        );
        // Higher is better flips the direction.
        assert_eq!(
            judge(&a, &[13.0, 13.1, 12.9, 13.0], true, 0.15),
            Verdict::Better
        );
        assert_eq!(
            judge(&a, &[7.0, 7.1, 6.9, 7.0], true, 0.15),
            Verdict::Regression
        );
    }
}
