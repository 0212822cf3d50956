//! Decision golden: the optimizer's full cold report — the speculation
//! sample's rows and descriptor feed every number in it — hashed on dense,
//! CSR and memory-mapped inputs — one of them, yearpred's, decided by an
//! estimate under its cap — plus the weights a cold `Engine::train`
//! ends with on a CSV of the served cold query's shape. The report holds
//! no wall-clock field, so all of it must repeat bit for bit.
//! Regenerate with `UPDATE_GOLDEN=1` only after an intended change of
//! decisions.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ml4all::{DataSource, Engine, GradientKind, TrainRequest};
use ml4all_bench::golden::assert_golden;
use ml4all_core::estimator::SpeculationConfig;
use ml4all_core::{choose_plan, OptimizerConfig, OptimizerReport};
use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset};
use ml4all_datasets::source::read_data_file_with_budget;
use ml4all_datasets::{registry, FileFormat, Task};

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A deterministic value stream in `[-1, 1)` (no crate RNG, so the inputs
/// cannot move with one).
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

/// `rows × dims` labelled CSV text; with `zeros`, every third feature is
/// an exact zero.
fn csv_text(seed: u64, rows: usize, dims: usize, zeros: bool) -> String {
    let mut rng = Lcg(seed);
    let truth: Vec<f64> = (0..dims).map(|_| rng.unit()).collect();
    let mut text = String::new();
    let mut row = vec![0.0; dims];
    for _ in 0..rows {
        for (j, x) in row.iter_mut().enumerate() {
            *x = if zeros && j % 3 == 0 { 0.0 } else { rng.unit() };
        }
        let score: f64 = row.iter().zip(&truth).map(|(x, t)| x * t).sum();
        let label = if score + 0.1 * rng.unit() >= 0.0 {
            1
        } else {
            -1
        };
        let _ = write!(text, "{label}");
        for x in &row {
            let _ = write!(text, ",{x}");
        }
        text.push('\n');
    }
    text
}

/// The report's hash, its best plan and its per-variant estimates.
fn report_line(name: &str, report: OptimizerReport) -> String {
    let best = report.best().plan.to_string();
    let iterations: Vec<String> = report
        .estimates
        .iter()
        .map(|e| e.estimate.iterations.to_string())
        .collect();
    format!(
        "{name}: report fnv {:016x}, best {best}, estimated iterations {}\n",
        fnv(format!("{report:?}").as_bytes()),
        iterations.join("/")
    )
}

fn speculation() -> SpeculationConfig {
    SpeculationConfig {
        max_iterations: 200,
        ..SpeculationConfig::default()
    }
}

fn gradient_of(task: Task) -> GradientKind {
    match task {
        Task::Svm => GradientKind::Svm,
        Task::LogisticRegression => GradientKind::LogisticRegression,
        Task::LinearRegression => GradientKind::LinearRegression,
    }
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ml4all-decision-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn csv_dataset(
    dir: &Path,
    file: &str,
    budget: Option<u64>,
    cluster: &ClusterSpec,
) -> PartitionedDataset {
    let rows =
        read_data_file_with_budget(dir, Path::new(file), FileFormat::Auto, None, None, budget)
            .expect("read csv");
    assert_eq!(rows.is_mapped(), budget.is_some());
    let scheme = if rows.is_mapped() {
        PartitionScheme::Contiguous
    } else {
        PartitionScheme::RoundRobin
    };
    PartitionedDataset::from_columns(file, &rows, scheme, cluster).expect("partitions")
}

#[test]
fn decision_golden() {
    let mut out = String::new();
    let testbed = ClusterSpec::paper_testbed();
    for name in ["adult", "covtype", "svm1", "rcv1"] {
        let spec = registry::by_name(name).expect("registry dataset");
        let data = spec.build(3000, 7, &testbed).expect("build analog");
        let config = OptimizerConfig::new(gradient_of(spec.task)).with_speculation(speculation());
        let report = choose_plan(&data, &config, &testbed).expect("choose");
        out.push_str(&report_line(name, report));
    }

    // Yearpred's estimate binds — it stays under the 1 000-iteration cap,
    // so Algorithm 1's number, not the cap, picks the plan and prices it:
    // a broken estimator changes this decision, not only a hash.
    let spec = registry::by_name("yearpred").expect("registry dataset");
    let data = spec.build(4000, 7, &testbed).expect("build analog");
    let config = OptimizerConfig::new(gradient_of(spec.task)).with_tolerance(1e-3);
    let report = choose_plan(&data, &config, &testbed).expect("choose");
    let priced = report.best().estimated_iterations;
    assert!(priced < config.max_iter, "the yearpred estimate must bind");
    let _ = writeln!(out, "yearpred binding: best priced at {priced} iterations");
    out.push_str(&report_line("yearpred binding", report));

    // Small partitions, so the sample walks several of them: dealt
    // round-robin in memory, contiguous windows when spilled and mapped.
    let dir = scratch_dir();
    let small = ClusterSpec {
        partition_bytes: 32 * 1024,
        ..ClusterSpec::paper_testbed()
    };
    std::fs::write(dir.join("zeros.csv"), csv_text(3, 1500, 12, true)).expect("write csv");
    let config = OptimizerConfig::new(GradientKind::LogisticRegression)
        .with_tolerance(1e-4)
        .with_speculation(speculation());
    for (label, budget) in [
        ("dense csv with zeros", None),
        ("same csv spilled", Some(1024)),
    ] {
        let data = csv_dataset(&dir, "zeros.csv", budget, &small);
        let _ = writeln!(out, "{label}: {} partitions", data.num_partitions());
        let report = choose_plan(&data, &config, &small).expect("choose");
        out.push_str(&report_line(label, report));
    }

    // The served cold query's shape: 2 500 × 50, logistic, ε = 1e-6,
    // 500 iterations, default speculation.
    std::fs::write(dir.join("cold.csv"), csv_text(11, 2500, 50, false)).expect("write csv");
    let data = csv_dataset(&dir, "cold.csv", None, &testbed);
    let config = OptimizerConfig::new(GradientKind::LogisticRegression)
        .with_tolerance(1e-6)
        .with_max_iter(500);
    let report = choose_plan(&data, &config, &testbed).expect("choose");
    out.push_str(&report_line("cold query shape", report));
    let engine = Engine::new().with_data_dir(&dir);
    let trained = engine
        .train(
            TrainRequest::new(
                GradientKind::LogisticRegression,
                DataSource::file("cold.csv"),
            )
            .epsilon(1e-6)
            .max_iter(500)
            .seed(1),
        )
        .expect("train");
    let model = engine.model(&trained.name).expect("bound model");
    let bits: Vec<u8> = model
        .weights
        .as_slice()
        .iter()
        .flat_map(|w| w.to_bits().to_le_bytes())
        .collect();
    let _ = writeln!(
        out,
        "cold query train: {}, {} iterations, sim time {:016x}, weights fnv {:016x}",
        trained.summary.plan,
        trained.summary.iterations,
        trained.summary.sim_time_s.to_bits(),
        fnv(&bits)
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_golden("decision_reports.txt", &out);
}
