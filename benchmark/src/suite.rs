//! The suite and the A/A check: many runs, each in a fresh process.
//!
//! `suite` runs every workload untraced then traced into one result file
//! stamped with what the numbers depend on besides the code. `aa` runs two
//! ten-seed sweeps of the untraced run per workload — the second started
//! right after a from-scratch `cargo build`, the host state in which a
//! waiting connection's latency was seen to flip — and fails when any
//! metric's quartile distance exceeds half its bound or the two sets'
//! medians disagree by more than the bound.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{json, Value};

use crate::compare::worsening;
use crate::scratch::{bench_dir, results_dir};
use crate::spec::{Contract, WORKLOADS};
use crate::stats::{median, quartile_spread};
use crate::workload::Error;

/// Seeds of one A/A sweep.
const AA_SEEDS: u64 = 10;

fn read_first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers depend on besides the code.
fn stamp() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    json!({
        "nproc": std::thread::available_parallelism().map_or(1, usize::from),
        "cpu_model": cpu,
        "simd_isa": ml4all_linalg::simd::active_isa().name(),
        "rustc": command_line("rustc", &["--version"]),
        "git_sha": command_line("git", &["-C", &bench_dir().to_string_lossy(), "rev-parse", "HEAD"]),
        "load_average": read_first_line("/proc/loadavg"),
        "unix_time": unix_time()
    })
}

fn unix_time() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// One run in a fresh process; returns its parsed result line.
fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Value, Error> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} trace {} exited with {}: {}",
            u8::from(trace),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )
        .into());
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or("a run printed no result line")?;
    Ok(Value::parse(line).map_err(|e| format!("unparseable result line: {e}"))?)
}

/// `--seed`, `--seconds` and `--out` of the multi-run modes.
struct ModeArgs {
    seed: u64,
    seconds: u64,
    out: Option<PathBuf>,
}

fn parse_mode_args(args: &[String], default_seconds: u64) -> Result<ModeArgs, Error> {
    let mut parsed = ModeArgs {
        seed: 1,
        seconds: default_seconds,
        out: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--seed" => parsed.seed = value.parse()?,
            "--seconds" => parsed.seconds = value.parse()?,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }
    Ok(parsed)
}

fn write_results(out: Option<PathBuf>, stem: &str, document: &Value) -> Result<PathBuf, Error> {
    let path = match out {
        Some(path) => path,
        None => results_dir()?.join(format!("{stem}-{}.json", unix_time())),
    };
    std::fs::write(&path, document.to_json_string_pretty())?;
    Ok(path)
}

/// Every workload untraced then traced, each in a fresh process, into one
/// stamped result file.
pub fn suite(args: &[String]) -> Result<(), Error> {
    let contract = Contract::load()?;
    contract.check_tables()?;
    let args = parse_mode_args(args, contract.run_seconds)?;
    let stamp = stamp();
    let mut runs = Vec::new();
    let mut incorrect = 0;
    for workload in WORKLOADS {
        for trace in [false, true] {
            eprintln!("suite: {workload} --trace {}", u8::from(trace));
            let result = run_child(workload, args.seed, args.seconds, trace)?;
            incorrect += u64::from(result.get("correct").and_then(Value::as_bool) != Some(true));
            runs.push(json!({
                "workload": workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": trace,
                "result": result
            }));
        }
    }
    let document = json!({"stamp": stamp, "runs": Value::Array(runs)});
    let path = write_results(args.out, "suite", &document)?;
    println!("{}", path.display());
    if incorrect > 0 {
        return Err(format!("{incorrect} run(s) reported correct: false").into());
    }
    Ok(())
}

/// The metric values of one sweep: `values[metric]` in seed order.
fn sweep(
    workload: &str,
    first_seed: u64,
    seconds: u64,
    metrics: &[String],
) -> Result<Vec<Vec<f64>>, Error> {
    let mut values = vec![Vec::new(); metrics.len()];
    for seed in first_seed..first_seed + AA_SEEDS {
        eprintln!("aa: {workload} seed {seed}");
        let result = run_child(workload, seed, seconds, false)?;
        if result.get("correct").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{workload} seed {seed} reported correct: false").into());
        }
        for (metric, column) in metrics.iter().zip(&mut values) {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(metric.as_str()))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{workload} seed {seed} printed no `{metric}`"))?;
            column.push(value);
        }
    }
    Ok(values)
}

/// A from-scratch build of this package into a throw-away target
/// directory: both vCPUs saturated for tens of seconds, then idle — what
/// precedes the driver's first run in a checkout.
fn disturb_with_a_build(target: &Path) -> Result<(), Error> {
    eprintln!("aa: cargo build (from scratch, {})", target.display());
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .arg("--manifest-path")
        .arg(bench_dir().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .status()?;
    let _ = std::fs::remove_dir_all(target);
    if !status.success() {
        return Err(format!("the disturbance build failed with {status}").into());
    }
    Ok(())
}

/// Two ten-seed sweeps per workload, the second after a build.
pub fn aa(args: &[String]) -> Result<(), Error> {
    let contract = Contract::load()?;
    contract.check_tables()?;
    let args = parse_mode_args(args, contract.run_seconds)?;
    let names: Vec<String> = contract.end_to_end.iter().map(|m| m.name.clone()).collect();
    let build_dir = bench_dir()
        .join("tmp")
        .join(format!("aa-build-{}", std::process::id()));

    let mut first = Vec::new();
    for workload in WORKLOADS {
        first.push(sweep(workload, args.seed, args.seconds, &names)?);
    }
    disturb_with_a_build(&build_dir)?;
    let mut second = Vec::new();
    for workload in WORKLOADS {
        second.push(sweep(workload, args.seed + AA_SEEDS, args.seconds, &names)?);
    }

    println!(
        "| workload | metric | median A | median B | B/A (base A) | spread A | spread B | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut failures = 0;
    let mut rows = Vec::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in contract.end_to_end.iter().enumerate() {
            let (a, b) = (&first[w][m], &second[w][m]);
            let bound = metric.bound.ok_or("an end-to-end metric without a bound")?;
            let (median_a, median_b) = (median(a), median(b));
            let (spread_a, spread_b) = (quartile_spread(a), quartile_spread(b));
            let worsening = worsening(median_a, median_b, metric.better == "higher");
            let spread_ok = spread_a <= bound / 2.0 && spread_b <= bound / 2.0;
            let verdict = if !spread_ok {
                "SPREAD"
            } else if worsening.abs() > bound {
                "MEDIANS"
            } else {
                "ok"
            };
            failures += u32::from(verdict != "ok");
            println!(
                "| {workload} | {} | {median_a:.5} | {median_b:.5} | {:.4} | {spread_a:.4} | {spread_b:.4} | {bound} | {verdict} |",
                metric.name,
                median_b / median_a
            );
            rows.push(json!({
                "workload": *workload,
                "metric": metric.name.as_str(),
                "a": a.clone(),
                "b": b.clone(),
                "spread_a": spread_a,
                "spread_b": spread_b,
                "bound": bound,
                "verdict": verdict
            }));
        }
    }
    let document = json!({"stamp": stamp(), "seconds": args.seconds, "rows": Value::Array(rows)});
    let path = write_results(args.out, "aa", &document)?;
    println!("{}", path.display());
    if failures > 0 {
        return Err(format!(
            "{failures} metric(s) spread past half their bound or moved between the sets"
        )
        .into());
    }
    Ok(())
}
