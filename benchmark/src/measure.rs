//! The two kinds of run: the untraced run that measures the end-to-end
//! metrics, and the traced run that measures the layers.
//!
//! Both drive a workload as `F0 W0 F1 W1 … Fn`: *work slices* of whole
//! cycles (≈ 0.4 s; the cycle count is fixed at warm-up) bracketed by
//! *floor slices* of [`OPS_PER_SLICE`] floor-ops on the one vCPU the process
//! is pinned to. A run is time-bound by `--seconds` and always ends on a
//! slice boundary.

use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::floor::{Floor, FLOOR_NOMINAL_MS, OPS_PER_SLICE};
use crate::spec::Metrics;
use crate::stats::{
    bracket_ratios, corrected, highest_supported_percentile, median, percentile, quartile_spread,
};
use crate::trace::{self, Recorder, Span};
use crate::workload::{ClientOut, Counters, Error, System, Tally, Workload};
use crate::{alloc, probes};

/// Target length of a work slice.
const WORK_SLICE_S: f64 = 0.4;
/// Floor-ops timed right after each set-up repetition.
const SETUP_FLOOR_OPS: usize = 4;
/// A window never has fewer work slices than this, however short
/// `--seconds` is.
const MIN_SLICES: usize = 4;
/// Share of a traced run's `--seconds` given to its closed-loop slices;
/// the replay and the fixed-work probes follow and take what they take.
const TRACED_SLICE_SHARE: f64 = 0.4;
/// Spans of the "spans on" slices kept for the trace file.
const TRACE_FILE_SPAN_CAP: usize = 4000;

/// What a run hands back to `main` for the result line.
pub struct RunOutput {
    pub metrics: Metrics,
    pub tally: Tally,
    /// A replay that diverged from the engine, or a failed probe check.
    pub incorrect: Option<String>,
}

fn fresh_outs(clients: usize, time_jobs: bool, capacity: usize) -> Vec<ClientOut> {
    (0..clients)
        .map(|_| ClientOut {
            time_jobs,
            job_s: Vec::with_capacity(capacity),
            cycle_s: Vec::with_capacity(capacity),
            ..ClientOut::default()
        })
        .collect()
}

/// Move the clients' tallies into `total`, returning the slice's own sum.
fn drain_tallies(outs: &mut [ClientOut], total: &mut Tally) -> Tally {
    let mut slice = Tally::default();
    for out in outs {
        slice.merge(&std::mem::take(&mut out.tally));
    }
    total.merge(&slice);
    slice
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One timed set-up: boot, one warm-up cycle, tear down.
fn timed_setup(workload: &dyn Workload, warm: &mut [ClientOut]) -> Result<f64, Error> {
    let start = Instant::now();
    let mut system = workload.boot()?;
    system.slice(1, warm);
    system.shutdown();
    Ok(start.elapsed().as_secs_f64())
}

/// The system a window runs on.
struct Warmed<'a> {
    system: Box<dyn System + 'a>,
    /// Whole cycles in one work slice, fixed here for the rest of the run.
    cycles: usize,
    /// Raw seconds of the boot and the first warm-up cycle.
    setup_s: f64,
}

/// Boot the system the window runs on, warm it up, and fix the number of
/// cycles in a work slice.
fn boot_and_warm<'a>(
    workload: &'a dyn Workload,
    warm: &mut [ClientOut],
) -> Result<Warmed<'a>, Error> {
    let start = Instant::now();
    let mut system = workload.boot()?;
    system.slice(1, warm);
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    system.slice(2, warm);
    let cycle_s = start.elapsed().as_secs_f64() / 2.0;
    Ok(Warmed {
        system,
        cycles: (WORK_SLICE_S / cycle_s).round().max(1.0) as usize,
        setup_s,
    })
}

/// What one work slice measured.
struct WorkSlice {
    wall_s: f64,
    tally: Tally,
    allocs: u64,
    alloc_bytes: u64,
}

impl WorkSlice {
    /// Wall seconds per job completed in the slice, all clients together.
    fn per_job_s(&self) -> f64 {
        self.wall_s / self.tally.jobs as f64
    }
}

fn work_slice(
    system: &mut dyn System,
    cycles: usize,
    outs: &mut [ClientOut],
    total: &mut Tally,
) -> WorkSlice {
    let (allocs0, bytes0) = alloc::totals();
    let start = Instant::now();
    system.slice(cycles, outs);
    let wall_s = start.elapsed().as_secs_f64();
    let (allocs1, bytes1) = alloc::totals();
    WorkSlice {
        wall_s,
        tally: drain_tallies(outs, total),
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
    }
}

/// Rows per second at the defining host's core speed: the per-row predict
/// time of each slice over its bracketing floor, inverted.
fn corrected_rows_per_s(slices: &[WorkSlice], floors: &[f64]) -> f64 {
    let per_row: Vec<f64> = slices
        .iter()
        .map(|s| s.tally.predict_s / s.tally.predict_rows as f64)
        .collect();
    1.0 / (corrected(&per_row, floors, FLOOR_NOMINAL_MS) * 1e-3)
}

/// The untraced run: every end-to-end metric.
pub fn untraced(
    workload: &dyn Workload,
    seconds: f64,
    started: Instant,
) -> Result<RunOutput, Error> {
    let clients = workload.clients();
    let mut floor = Floor::new();
    let mut total = Tally::default();
    let mut outs = fresh_outs(clients, false, 0);

    // Set-up phase: a fixed number of whole set-ups, each divided by
    // floor-ops timed right after it.
    let mut setup_ratios = Vec::new();
    for _ in 0..workload.setup_repetitions() {
        let setup_s = timed_setup(workload, &mut outs)?;
        setup_ratios.push(setup_s / floor.slice(SETUP_FLOOR_OPS));
    }
    let Warmed {
        mut system, cycles, ..
    } = boot_and_warm(workload, &mut outs)?;
    drain_tallies(&mut outs, &mut total);
    for out in &mut outs {
        out.counters = Counters::default();
    }

    let deadline = started + Duration::from_secs_f64(seconds);
    let mut floors = vec![floor.slice(OPS_PER_SLICE)];
    let mut slices: Vec<WorkSlice> = Vec::new();
    let mut rss_mb = None;
    while slices.len() < MIN_SLICES || Instant::now() < deadline {
        slices.push(work_slice(system.as_mut(), cycles, &mut outs, &mut total));
        floors.push(floor.slice(OPS_PER_SLICE));
        // Fixed work, not window end: read the high-water mark once the
        // first client has completed its fixed number of cycles.
        if rss_mb.is_none() && outs[0].counters.cycles >= workload.rss_cycles() {
            rss_mb = Some(peak_rss_mb()?);
        }
    }
    system.shutdown();
    let rss_mb = match rss_mb {
        Some(mb) => mb,
        None => peak_rss_mb()?,
    };

    let per_job_s: Vec<f64> = slices.iter().map(WorkSlice::per_job_s).collect();
    let per_job = |f: fn(&WorkSlice) -> u64| -> Vec<f64> {
        slices
            .iter()
            .map(|s| f(s) as f64 / s.tally.jobs as f64)
            .collect()
    };
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_ratios) * FLOOR_NOMINAL_MS * 1e-3);
    metrics.set("job_ms", corrected(&per_job_s, &floors, FLOOR_NOMINAL_MS));
    metrics.set("predict_rows_per_s", corrected_rows_per_s(&slices, &floors));
    metrics.set("peak_rss_mb", rss_mb);
    metrics.set("allocs_per_job", median(&per_job(|s| s.allocs)));
    metrics.set(
        "alloc_kb_per_job",
        median(&per_job(|s| s.alloc_bytes)) / 1024.0,
    );
    metrics.set(
        "succeeded_share",
        (total.attempted - total.failed) as f64 / total.attempted as f64,
    );
    Ok(RunOutput {
        metrics,
        tally: total,
        incorrect: None,
    })
}

/// The traced run: one set-up; closed-loop slices alternating spans off
/// and on; the hand replay; the fixed-work probes of every layer.
pub fn traced(
    workload: &dyn Workload,
    seed: u64,
    seconds: f64,
    started: Instant,
    scratch: &std::path::Path,
) -> Result<RunOutput, Error> {
    let clients = workload.clients();
    let epoch = Instant::now();
    let mut floor = Floor::new();
    let mut total = Tally::default();
    let mut metrics = Metrics::default();
    let mut warm = fresh_outs(clients, false, 0);

    let Warmed {
        mut system,
        cycles,
        setup_s,
    } = boot_and_warm(workload, &mut warm)?;
    metrics.set("wall.setup_s", setup_s);
    drain_tallies(&mut warm, &mut total);

    // Latency and span buffers are sized for the whole phase up front.
    let per_slice = cycles * workload.jobs_per_cycle() as usize;
    let expected_slices = (seconds * TRACED_SLICE_SHARE / WORK_SLICE_S) as usize + MIN_SLICES + 2;
    let capacity = per_slice * expected_slices * 2;
    let mut off = fresh_outs(clients, true, capacity);
    let mut on = fresh_outs(clients, true, capacity);
    for out in &mut on {
        out.rec = Some(Recorder::new(epoch, capacity * 2));
    }

    let deadline = started + Duration::from_secs_f64(seconds * TRACED_SLICE_SHARE);
    let mut floors = vec![floor.slice(OPS_PER_SLICE)];
    let mut slices: Vec<WorkSlice> = Vec::new();
    while slices.len() < 2 * MIN_SLICES || Instant::now() < deadline {
        // Even slices run with spans off, odd ones with spans on, so host
        // drift biases neither side.
        let outs = if slices.len().is_multiple_of(2) {
            &mut off
        } else {
            &mut on
        };
        slices.push(work_slice(system.as_mut(), cycles, outs, &mut total));
        floors.push(floor.slice(OPS_PER_SLICE));
    }
    system.shutdown();

    let per_job_s: Vec<f64> = slices.iter().map(WorkSlice::per_job_s).collect();
    let ratios = bracket_ratios(&per_job_s, &floors);
    let side = |parity: usize| -> Vec<f64> {
        ratios
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == parity)
            .map(|(_, r)| *r)
            .collect()
    };
    // Throughput is 1 / time per job, so 1 − on ÷ off throughput is
    // 1 − off ÷ on time per job.
    metrics.set(
        "trace.overhead_share",
        1.0 - median(&side(0)) / median(&side(1)),
    );

    let off_slices: Vec<&WorkSlice> = slices.iter().step_by(2).collect();
    let off_per_job: Vec<f64> = off_slices.iter().map(|s| s.per_job_s()).collect();
    metrics.set("wall.job_ms", median(&off_per_job) * 1e3);
    let off_rows_per_s: Vec<f64> = off_slices
        .iter()
        .map(|s| s.tally.predict_rows as f64 / s.tally.predict_s)
        .collect();
    metrics.set("wall.predict_rows_per_s", median(&off_rows_per_s));
    metrics.set("wall.floor_ms", median(&floors) * 1e3);
    metrics.set("wall.floor_spread", quartile_spread(&floors));

    let job_s: Vec<f64> = off.iter().flat_map(|o| o.job_s.iter().copied()).collect();
    let cycle_s: Vec<f64> = off.iter().flat_map(|o| o.cycle_s.iter().copied()).collect();
    // `wall.job_p90_ms` is the 90th percentile when at least ten samples
    // lie beyond it, else the highest percentile that has ten (the trace
    // file records which).
    let tail = highest_supported_percentile(job_s.len()).min(90.0);
    metrics.set("wall.job_p50_ms", percentile(&job_s, 50.0) * 1e3);
    metrics.set("wall.job_p90_ms", percentile(&job_s, tail) * 1e3);

    // Exact per-cycle counters of this workload (all clients together).
    let mut counters = Counters::default();
    for out in off.iter().chain(on.iter()) {
        counters.merge(&out.counters);
    }
    let client_cycles = counters.cycles as f64 / clients as f64;
    let per_cycle = |count: f64| count / client_cycles;
    metrics.set("gd.iterations", per_cycle(counters.iterations as f64));
    metrics.set("gd.tuples_scanned", per_cycle(counters.tuples as f64));
    metrics.set(
        "calibrate.generation",
        per_cycle(counters.generation as f64),
    );
    metrics.set(
        "ml4all.checkpoints_written",
        per_cycle(counters.checkpoints as f64),
    );
    metrics.set(
        "ml4all.sim_time_s",
        off.iter().map(|out| out.cycle_sim_time_s).sum(),
    );

    // The hand replay, checked bit for bit against the engine.
    let replay_rec = Recorder::new(epoch, 1 << 14);
    let replayed = workload.replay(&replay_rec);
    let replay_spans = replay_rec.into_spans();
    let (incorrect, accounted_ops) = match replayed {
        Ok(ops) => (None, ops),
        Err(e) => (Some(format!("replay: {e}")), Vec::new()),
    };
    let unit_s = if workload.accounted_per_cycle() {
        median(&cycle_s)
    } else {
        median(&job_s)
    };
    let own = trace::self_times_ns(&replay_spans);
    let accounted_s: Vec<f64> = accounted_ops
        .iter()
        .map(|op| {
            replay_spans
                .iter()
                .zip(&own)
                .filter(|(span, _)| span.op == *op)
                .map(|(_, ns)| *ns as f64 * 1e-9)
                .sum()
        })
        .collect();
    let accounted_share = if accounted_s.is_empty() {
        0.0
    } else {
        median(&accounted_s) / unit_s
    };
    metrics.set("trace.accounted_share", accounted_share);

    probes::run(&mut metrics, floor.block(), scratch)?;

    let on_spans: Vec<Span> = on
        .into_iter()
        .filter_map(|out| out.rec)
        .flat_map(Recorder::into_spans)
        .collect();
    write_trace_file(
        workload.name(),
        seed,
        &replay_spans,
        &on_spans,
        json!({
            "accounted_share": accounted_share,
            "accounted_unit": if workload.accounted_per_cycle() { "cycle" } else { "job" },
            "accounted_unit_ms": unit_s * 1e3,
            "job_latency_samples": job_s.len(),
            "job_tail_percentile": tail,
            "replays": accounted_ops.len()
        }),
    )?;
    Ok(RunOutput {
        metrics,
        tally: total,
        incorrect,
    })
}

/// Spans and per-name median self times go to
/// `benchmark/results/trace-<workload>.json` when the run ends.
fn write_trace_file(
    workload: &str,
    seed: u64,
    replay: &[Span],
    closed_loop: &[Span],
    summary: Value,
) -> Result<(), Error> {
    let self_us = |spans: &[Span]| -> Value {
        let mut object = serde_json::Map::new();
        for (name, seconds) in trace::median_self_time_per_op(spans) {
            object.insert(name.to_string(), json!(seconds * 1e6));
        }
        Value::Object(object)
    };
    let kept = &closed_loop[..closed_loop.len().min(TRACE_FILE_SPAN_CAP)];
    let document = json!({
        "workload": workload,
        "seed": seed,
        "summary": summary,
        "replay_self_time_median_us": self_us(replay),
        "closed_loop_self_time_median_us": self_us(closed_loop),
        "replay_spans": trace::spans_json(replay),
        "closed_loop_spans": trace::spans_json(kept),
        "closed_loop_spans_recorded": closed_loop.len()
    });
    let path = crate::scratch::results_dir()?.join(format!("trace-{workload}.json"));
    std::fs::write(path, document.to_json_string_pretty())?;
    Ok(())
}
