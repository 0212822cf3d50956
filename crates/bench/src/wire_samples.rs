//! Sample wire messages and a sample checkpoint, sized by a parameter —
//! one definition shared by the codec layer bench (`benches/wire.rs`) and
//! the codec test suites (allocation bounds, mutation fuzz), so they all
//! measure and attack the same frames.

use ml4all_dataflow::{
    Checkpoint, CostBreakdown, ExecState, SamplerSnapshot, SamplingMethod, UsageMeter,
};
use ml4all_serve::protocol::{
    encode_weights, f64_to_bits_hex, Payload, Request, Response, WireEvent, WireJob, WireSource,
    WireStats, WireTrain, WireTrained,
};

/// The hot job's `Submit`.
pub fn submit() -> Request {
    let mut train = WireTrain::new("logistic", WireSource::Registry("adult".into()));
    train.max_iter = Some(5);
    train.epsilon = Some(0.005);
    train.seed = Some(1);
    train.name = Some("hot".into());
    Request::Submit { train }
}

/// One `Progress` tick of an observe stream.
pub fn progress() -> Response {
    let (delta, sim_time_s) = (3.0115004556367104, 4.004015806548749);
    Response::Ok(Payload::Event {
        seq: 1,
        event: WireEvent::Progress {
            iteration: 2,
            delta,
            delta_bits: f64_to_bits_hex(delta),
            sim_time_s,
            sim_time_bits: f64_to_bits_hex(sim_time_s),
        },
    })
}

/// `d` weights with full-length digit strings.
pub fn weights(d: usize) -> Vec<f64> {
    (0..d).map(|j| (j as f64 * 0.37).sin()).collect()
}

/// A completed job's `Joined` carrying `d` weights in both wire forms.
pub fn joined(d: usize) -> Response {
    let (numbers, bits) = encode_weights(&weights(d));
    Response::Ok(Payload::Joined(WireTrained {
        job: 1,
        status: "completed".into(),
        name: Some("hot".into()),
        plan: Some("SGD-lazy-shuffle".into()),
        iterations: Some(5),
        converged: Some(false),
        sim_time_s: Some(4.010036191371873),
        weights: Some(numbers),
        weights_bits: Some(bits),
        error: None,
    }))
}

/// A tenant's `Stats` with a `rows`-job table (each row decodes to two
/// strings: its name and its status).
pub fn stats(rows: u64) -> Response {
    Response::Ok(Payload::Stats(WireStats {
        tenant: "t0".into(),
        in_flight: 0,
        queued: 0,
        queued_bytes: 0,
        quota_max_in_flight: 4,
        quota_max_queued_bytes: 262_144,
        global_in_flight: 0,
        global_capacity: 8,
        plan_cache_hits: rows,
        plan_cache_misses: 1,
        plan_cache_len: 1,
        checkpoints_written: 0,
        jobs_resumed: 0,
        calibration_generation: None,
        calibration_confidence: None,
        replans: 0,
        jobs: (1..=rows)
            .map(|job| WireJob {
                job,
                engine_id: Some(job),
                name: Some("hot".into()),
                status: "completed".into(),
            })
            .collect(),
    }))
}

/// A mid-run checkpoint of a `d`-dimensional model, sampler cursor and
/// awkward floats (NaN, `-0.0`, a subnormal) included.
pub fn checkpoint(d: usize) -> Checkpoint {
    let mut prev_weights = weights(d);
    for (slot, awkward) in prev_weights
        .iter_mut()
        .zip([-0.0, f64::NAN, f64::from_bits(1)])
    {
        *slot = awkward;
    }
    Checkpoint {
        key_hash: 0xdead_beef_cafe_f00d,
        plan: "SGD-lazy-shuffle".into(),
        rng_stream_version: 3,
        state: ExecState {
            iteration: 42,
            weights: weights(d),
            prev_weights,
            final_delta: 1e-9,
            error_seq: vec![(1, 0.5), (2, 0.25)],
            rng_state: [1, u64::MAX, 0, 0x0123_4567_89ab_cdef],
            sampler: Some(SamplerSnapshot {
                method: SamplingMethod::ShuffledPartition,
                shuffles: 2,
                cursor: Some((1, 3, vec![4, 0, 2, 1, 3])),
            }),
            cost: CostBreakdown {
                io_s: 1.25,
                cpu_s: 0.5,
                net_s: 0.0,
                overhead_s: 4.0,
            },
            usage: UsageMeter {
                tuples_scanned: 100,
                bytes_shuffled: 0,
                node_compute_s: vec![0.1, 0.2],
                waves: 3,
            },
        },
    }
}
