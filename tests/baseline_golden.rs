//! Baseline golden: the bits of every MLlib, SystemML and Bismarck run
//! over small dense and CSR analogs. Each row pins the iterations, the
//! stop rule, the final delta, the weights, the simulated clock, the four
//! ledger categories, the usage meter and SystemML's conversion seconds;
//! the failure modes (out of memory, driver overflow, divergence) pin
//! their error values. The runners share one math loop and keep their own
//! prices and preflight checks, so moving code between them cannot move a
//! bit. Regenerate with `UPDATE_GOLDEN=1` only after an intended change.

use std::fmt::Write as _;
use std::time::Duration;

use ml4all_baselines::{BaselineError, BismarckRunner, MllibRunner, SystemmlRunner};
use ml4all_bench::golden::assert_golden;
use ml4all_dataflow::{
    ClusterSpec, ColumnStore, ColumnarBuilder, CostBreakdown, DatasetDescriptor, PartitionScheme,
    PartitionedDataset, SimEnv,
};
use ml4all_gd::{GdVariant, GradientKind, Regularizer, StepSize, TrainParams, TrainResult};

const MB: u64 = 1024 * 1024;
const GB: u64 = 1024 * MB;
const DENSE_DIMS: usize = 5;
const CSR_DIMS: usize = 12;

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn vector(c: &CostBreakdown) -> String {
    format!(
        "[{} {} {} {}]",
        bits(c.io_s),
        bits(c.cpu_s),
        bits(c.net_s),
        bits(c.overhead_s)
    )
}

/// A fixed LCG in `[-1, 1)` (no crate RNG, so the rows cannot move with
/// one).
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// 64 dense rows of a noisy linear separator with a bias feature.
fn dense_rows() -> ColumnStore {
    let mut unit = lcg(0x9e37_79b9_7f4a_7c15);
    (0..64)
        .map(|_| {
            let mut x: Vec<f64> = (0..DENSE_DIMS - 1).map(|_| unit()).collect();
            let score = x[0] - 0.5 * x[1] + 0.25 * x[2] + 0.1 * unit();
            x.push(1.0);
            (if score >= 0.0 { 1.0 } else { -1.0 }, x)
        })
        .collect()
}

/// 64 CSR rows storing one to four of the first `CSR_DIMS - 1` columns
/// plus a bias column.
fn csr_rows() -> ColumnStore {
    let mut unit = lcg(0x2545_f491_4f6c_dd1d);
    let mut rows = ColumnarBuilder::new();
    for _ in 0..64 {
        let mut indices: Vec<u32> = (0..CSR_DIMS as u32 - 1)
            .filter(|_| unit() > 0.6)
            .take(4)
            .collect();
        if indices.is_empty() {
            indices.push(0);
        }
        indices.push(CSR_DIMS as u32 - 1);
        let values: Vec<f64> = indices
            .iter()
            .map(|&i| {
                if i as usize == CSR_DIMS - 1 {
                    1.0
                } else {
                    unit()
                }
            })
            .collect();
        let score: f64 = values.iter().take(values.len() - 1).sum::<f64>() + 0.1 * unit();
        let label = if score >= 0.0 { 1.0 } else { -1.0 };
        rows.push_sparse(label, &indices, &values)
            .expect("valid CSR row");
    }
    rows.finish_with_dims(CSR_DIMS)
}

struct Analog {
    data: PartitionedDataset,
    params: TrainParams,
}

fn analog(desc: DatasetDescriptor, rows: &ColumnStore, params: &TrainParams) -> Analog {
    let data = PartitionedDataset::with_descriptor(
        desc,
        rows,
        PartitionScheme::RoundRobin,
        &ClusterSpec::paper_testbed(),
    )
    .expect("64 rows build");
    Analog {
        data,
        params: params.clone(),
    }
}

fn base_params(gradient: GradientKind) -> TrainParams {
    let mut params = TrainParams::paper_defaults(gradient);
    params.tolerance = 0.0;
    params.max_iter = 7;
    params.seed = 11;
    params.record_error_seq = false;
    params
}

/// The analogs, named for the branch each one drives:
///
/// - `dense-small`: one partition; SystemML local; Bismarck one-partition;
///   MLlib's fraction reaches 1 at MGD(100);
/// - `dense-mid`: SystemML still local, Bismarck distributed;
/// - `dense-large`: SystemML distributed; Bismarck BGD overflows the
///   driver;
/// - `dense-huge`: SystemML runs out of memory;
/// - `csr-small` / `csr-large`: the sparse binary stays local / goes
///   distributed, with an L2 regularizer under logistic regression.
fn analogs() -> Vec<Analog> {
    let dense = dense_rows();
    let csr = csr_rows();
    let svm = base_params(GradientKind::Svm);
    let mut logreg = base_params(GradientKind::LogisticRegression);
    logreg.regularizer = Regularizer::L2 { lambda: 0.01 };
    vec![
        analog(
            DatasetDescriptor::new("dense-small", 64, DENSE_DIMS, 7 * MB, 1.0),
            &dense,
            &svm,
        ),
        analog(
            DatasetDescriptor::new("dense-mid", 5_516_800, DENSE_DIMS, 10 * GB, 1.0),
            &dense,
            &svm,
        ),
        analog(
            DatasetDescriptor::new("dense-large", 50_000_000, DENSE_DIMS, 100 * GB, 1.0),
            &dense,
            &svm,
        ),
        analog(
            DatasetDescriptor::new("dense-huge", 200_000_000, DENSE_DIMS, 400 * GB, 1.0),
            &dense,
            &svm,
        ),
        analog(
            DatasetDescriptor::new("csr-small", 64, CSR_DIMS, 7 * MB, 0.25),
            &csr,
            &logreg,
        ),
        analog(
            DatasetDescriptor::new("csr-large", 500_000_000, CSR_DIMS, 200 * GB, 0.25),
            &csr,
            &logreg,
        ),
    ]
}

const VARIANTS: [GdVariant; 4] = [
    GdVariant::Batch,
    GdVariant::MiniBatch { batch: 16 },
    GdVariant::MiniBatch { batch: 100 },
    GdVariant::Stochastic,
];

fn result_line(r: &TrainResult) -> String {
    let u = &r.usage;
    let weights: Vec<String> = r.weights.as_slice().iter().map(|&w| bits(w)).collect();
    let nodes: Vec<String> = u.node_compute_s.iter().map(|&s| bits(s)).collect();
    let mut line = format!(
        "iterations {} stop {:?} final_delta {} weights [{}] sim {} cost {} tuples {} bytes {} \
         nodes [{}] waves {} shuffles {}",
        r.iterations,
        r.stop,
        bits(r.final_delta),
        weights.join(" "),
        bits(r.sim_time_s),
        vector(&r.cost),
        u.tuples_scanned,
        u.bytes_shuffled,
        nodes.join(" "),
        u.waves,
        r.sampler_shuffles,
    );
    if !r.error_seq.is_empty() {
        let seq: Vec<String> = r
            .error_seq
            .iter()
            .map(|&(i, d)| format!("{i}:{}", bits(d)))
            .collect();
        let _ = write!(line, " error_seq [{}]", seq.join(" "));
    }
    line
}

/// Run all three systems on one analog and variant, one line each.
fn run_all(
    out: &mut String,
    tag: &str,
    variant: GdVariant,
    data: &PartitionedDataset,
    params: &TrainParams,
) {
    let env = || SimEnv::new(ClusterSpec::paper_testbed());
    let mut row = |system: &str, r: Result<String, BaselineError>| {
        let line = r.unwrap_or_else(|e| format!("error {e:?}"));
        let _ = writeln!(out, "{system} {tag}: {line}");
    };
    row(
        "mllib",
        MllibRunner::default()
            .run(variant, data, params, &mut env())
            .map(|r| result_line(&r)),
    );
    row(
        "systemml",
        SystemmlRunner::default()
            .run(variant, data, params, &mut env())
            .map(|o| {
                format!(
                    "{} conversion {}",
                    result_line(&o.result),
                    bits(o.conversion_s)
                )
            }),
    );
    row(
        "bismarck",
        BismarckRunner::default()
            .run(variant, data, params, &mut env())
            .map(|r| result_line(&r)),
    );
}

fn variant_label(v: GdVariant) -> String {
    match v {
        GdVariant::MiniBatch { batch } => format!("MGD({batch})"),
        other => other.name().to_string(),
    }
}

fn golden_text() -> String {
    let mut out = String::new();
    let analogs = analogs();
    for a in &analogs {
        let desc = a.data.descriptor();
        let name = &desc.name;
        let _ = writeln!(
            out,
            "analog {name}: partitions {} systemml_local {} bismarck_distributed {}",
            a.data.num_partitions(),
            SystemmlRunner::default().runs_locally(desc),
            !desc.fits_one_partition(&ClusterSpec::paper_testbed()),
        );
        for variant in VARIANTS {
            let tag = format!("{name} {}", variant_label(variant));
            run_all(&mut out, &tag, variant, &a.data, &a.params);
        }
    }

    // The stop rules other than the iteration cap, the error sequence,
    // and divergence, on the one-partition dense analog.
    let small = &analogs[0].data;
    let mut converge = base_params(GradientKind::Svm);
    converge.tolerance = 0.05;
    converge.max_iter = 1000;
    let mut budget = base_params(GradientKind::Svm);
    budget.wall_budget = Some(Duration::ZERO);
    let mut seq = base_params(GradientKind::Svm);
    seq.record_error_seq = true;
    let mut diverge = base_params(GradientKind::LinearRegression);
    diverge.step = StepSize::Constant(1.0e6);
    diverge.max_iter = 100;
    for (label, params) in [
        ("converge", converge),
        ("wall-budget", budget),
        ("error-seq", seq),
        ("diverge", diverge),
    ] {
        for variant in [GdVariant::Batch, GdVariant::MiniBatch { batch: 16 }] {
            let tag = format!("dense-small {} {label}", variant_label(variant));
            run_all(&mut out, &tag, variant, small, &params);
        }
    }
    out
}

#[test]
fn baseline_runs_keep_their_bits() {
    assert_golden("baseline_runs.txt", &golden_text());
}
