//! The repeatable benchmark of the ml4all reproduction.
//!
//! ```text
//! ml4all-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! ml4all-benchmark [suite [--seed N] [--seconds S] [--out FILE]]    every workload, untraced then traced, one file
//! ml4all-benchmark aa [--seed N] [--seconds S] [--out FILE]         two ten-seed sweeps per workload, spreads checked
//! ml4all-benchmark compare A.json[,A2…] B.json[,B2…]                two sides of suite files, metric by metric
//! ```
//!
//! See `benchmark/README.md` for the noise model the design rests on and
//! the definition of every metric.

mod alloc;
mod compare;
mod floor;
mod gen;
mod host;
mod measure;
mod probes;
mod query_cold;
mod replay;
mod scratch;
mod serve_hot;
mod spec;
mod stats;
mod suite;
mod trace;
mod train;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use serde_json::json;

use crate::scratch::Scratch;
use crate::spec::{Contract, END_TO_END, PER_LAYER};
use crate::workload::{Error, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Times a traced run replays the workload's work by hand.
pub const REPLAYS: usize = 9;

/// The arguments of one run.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, Error> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`").into()),
                })
            }
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Generate the workload's inputs from the seed (outside any timed phase).
fn generate(args: &RunArgs, scratch: &Scratch) -> Result<Box<dyn Workload>, Error> {
    Ok(match args.workload.as_str() {
        "serve_hot" => Box::new(serve_hot::ServeHot::generate(args.seed)?),
        "train_dense" => Box::new(train::Train::dense(args.seed)?),
        "train_sparse" => Box::new(train::Train::sparse(args.seed)?),
        "query_cold" => Box::new(query_cold::QueryCold::generate(args.seed, scratch.path())?),
        other => return Err(format!("unknown workload `{other}`").into()),
    })
}

/// One run; returns the result line.
fn run(args: &RunArgs) -> Result<String, Error> {
    let started = Instant::now();
    let contract = Contract::load()?;
    contract.check_tables()?;
    // Before any thread exists: pinning is inherited by threads spawned
    // later, and both calls set environment variables.
    host::settle()?;
    let scratch = Scratch::create()?;
    let workload = generate(args, &scratch)?;
    let output = if args.trace {
        measure::traced(
            workload.as_ref(),
            args.seed,
            args.seconds,
            started,
            scratch.path(),
        )?
    } else {
        measure::untraced(workload.as_ref(), args.seconds, started)?
    };
    let (table, forbid_zero): (&[(&str, &str)], bool) = if args.trace {
        (&PER_LAYER, false)
    } else {
        (&END_TO_END, true)
    };
    let metrics = output.metrics.to_json(table, forbid_zero)?;
    if let Some(reason) = &output.incorrect {
        eprintln!("incorrect: {reason}");
    }
    for (name, unit) in table {
        if let Some(value) = output.metrics.get(name) {
            println!("{name:<40} {value:>16.6} {unit}");
        }
    }
    let line = json!({
        "correct": output.tally.failed == 0 && output.incorrect.is_none(),
        "attempted": output.tally.attempted,
        "failed": output.tally.failed,
        "metrics": metrics
    });
    Ok(line.to_json_string())
}

/// `floor [rounds]`: time the floor-op on one thread and on two at once,
/// round after round, unpinned, naming the vCPU each thread ran on — how
/// far this host's core speed moves, and where its scheduler puts two busy
/// threads, before any workload is blamed.
fn floor_audit(args: &[String]) -> Result<(), Error> {
    let rounds: usize = args.first().map_or(Ok(20), |r| r.parse())?;
    let mut floors = [floor::Floor::new(), floor::Floor::new()];
    println!("round  one_thread_ms  two_threads_ms (vCPU)");
    for round in 0..rounds {
        let one = floors[0].slice(floor::OPS_PER_SLICE) * 1e3;
        let two: Vec<(f64, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = floors
                .iter_mut()
                .map(|f| s.spawn(|| (f.slice(floor::OPS_PER_SLICE) * 1e3, host::current_cpu())))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (ms, cpu) = h.join().expect("floor thread");
                    cpu.map(|cpu| (ms, cpu))
                })
                .collect::<Result<_, _>>()
        })?;
        println!(
            "{round:>5}  {one:>13.4}  {:>8.4} ({})  {:>8.4} ({})",
            two[0].0, two[0].1, two[1].0, two[1].1
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None => suite::suite(&[]),
        Some("suite") => suite::suite(&args[1..]),
        Some("aa") => suite::aa(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("floor") => floor_audit(&args[1..]),
        Some(_) => parse_run_args(&args).and_then(|run_args| {
            // The result line is the last thing the run prints, after
            // every server is stopped and the scratch tree is gone.
            let line = run(&run_args)?;
            println!("{line}");
            Ok(())
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ml4all-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    /// The `[profile.release]` table of a manifest, as sorted
    /// `key = value` lines.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|line| line.trim() != "[profile.release]")
            .skip(1)
            .take_while(|line| !line.trim_start().starts_with('['))
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(|line| line.split_whitespace().collect::<Vec<_>>().join(" "))
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn release_profile_matches_the_root_manifest() {
        let nested = include_str!("../Cargo.toml");
        let root = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
            .expect("the root manifest");
        let profile = release_profile(&root);
        assert!(
            !profile.is_empty(),
            "the root manifest sets a release profile"
        );
        assert_eq!(
            release_profile(nested),
            profile,
            "benchmark/Cargo.toml must build with the root's release codegen settings"
        );
    }
}
