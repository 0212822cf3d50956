//! The statement language: Appendix A's declarative statements in,
//! trained models, predictions, and plan explanations out.
//!
//! A [`Session`] only parses and lowers. Each statement becomes one typed
//! request on its [`Engine`] — `run` → [`Engine::train`], `explain` →
//! [`Engine::explain`], `predict` → [`Engine::predict`], `persist` →
//! [`Engine::persist`] — so statements share the engine's dataset catalog,
//! plan cache, and model registry with every other holder. Everything
//! else (configuration, concurrency, progress streaming, cancellation) is
//! the engine's API.

use std::path::PathBuf;

use ml4all_core::chooser::OptimizerReport;
use ml4all_core::lang::{parse_statement, train_spec, Query, RunQuery};
use ml4all_datasets::csv::CsvColumns;
use ml4all_datasets::source::DataSource;

use crate::engine::{Engine, Predictions, Trained};
use crate::request::{ExplainRequest, ModelRef, PredictRequest, TrainRequest};
use crate::SessionError;

/// What a statement produced.
#[derive(Debug)]
pub enum SessionOutput {
    /// A `run` statement trained a model and bound it (explicit `Q1 =` or
    /// generated name).
    Trained(Trained),
    /// A `persist` statement wrote a model file.
    Persisted {
        /// Destination path.
        path: PathBuf,
    },
    /// A `predict` statement scored a dataset.
    Predicted(Predictions),
    /// An `explain` statement reported the optimizer's costed plan table.
    Explained {
        /// Every enumerated plan with modelled cost, estimated
        /// iterations, and per-operator platform mapping, cheapest first.
        report: OptimizerReport,
    },
}

/// The declarative statement front end over an [`Engine`].
pub struct Session {
    engine: Engine,
}

impl Session {
    /// Execute statements on `engine`.
    pub fn new(engine: Engine) -> Self {
        Self { engine }
    }

    /// The engine statements run on.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Execute one declarative statement: parse it, lower it onto a typed
    /// request, and run that on the engine. Language errors keep their
    /// token spans, so they render with a caret.
    pub fn execute(&self, statement: &str) -> Result<SessionOutput, SessionError> {
        let parse_error = |e| SessionError::from_parse(statement, e);
        let parsed = parse_statement(statement).map_err(parse_error)?;
        Ok(match parsed.query {
            Query::Run(run) => {
                let request = lower_run(run, parsed.name).map_err(parse_error)?;
                SessionOutput::Trained(self.engine.train(request)?)
            }
            Query::Explain(run) => {
                let request = lower_run(run, None).map_err(parse_error)?;
                SessionOutput::Explained {
                    report: self.engine.explain(ExplainRequest::new(request))?,
                }
            }
            Query::Persist { name, path } => SessionOutput::Persisted {
                path: self.engine.persist(&name, &path)?,
            },
            Query::Predict { dataset, model } => {
                let request =
                    PredictRequest::new(DataSource::named(dataset), ModelRef::Named(model));
                SessionOutput::Predicted(self.engine.predict(request)?)
            }
        })
    }
}

/// Lower a parsed `run` query to a typed [`TrainRequest`].
fn lower_run(
    run: RunQuery,
    name: Option<String>,
) -> Result<TrainRequest, ml4all_core::OptimizerError> {
    let spec = train_spec(&run)?;
    let mut source = DataSource::named(run.dataset);
    if let Some(c) = run.columns {
        source = source.with_columns(CsvColumns {
            label: c.label,
            features: c.features,
        });
    }
    let mut request = TrainRequest::new(spec.gradient, source);
    request.spec = spec;
    request.name = name;
    Ok(request)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GradientKind, SamplingMethod};
    use ml4all_core::estimator::SpeculationConfig;
    use ml4all_dataflow::{ClusterSpec, PartitionedDataset};
    use ml4all_datasets::synth::{dense_classification_columns, DenseClassConfig};
    use ml4all_gd::GdVariant;
    use std::path::Path;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ml4all-session-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_engine(dir: &Path) -> Engine {
        Engine::new()
            .with_data_dir(dir)
            .with_speculation(SpeculationConfig {
                sample_size: 300,
                max_iterations: 2000,
                ..SpeculationConfig::default()
            })
    }

    fn quick_session(dir: &Path) -> Session {
        Session::new(quick_engine(dir))
    }

    fn write_csv_dataset(dir: &Path, name: &str, n: usize) -> PathBuf {
        let points = dense_classification_columns(&DenseClassConfig {
            n,
            dims: 4,
            noise: 0.05,
            seed: 5,
        });
        let path = dir.join(name);
        ml4all_datasets::csv::write_csv(std::fs::File::create(&path).unwrap(), &points.to_points())
            .unwrap();
        path
    }

    fn in_memory_dataset(n: usize, cluster: &ClusterSpec) -> PartitionedDataset {
        let points = dense_classification_columns(&DenseClassConfig {
            n,
            dims: 4,
            noise: 0.05,
            seed: 5,
        });
        PartitionedDataset::from_columns(
            "mem",
            &points,
            ml4all_dataflow::PartitionScheme::RoundRobin,
            cluster,
        )
        .unwrap()
    }

    #[test]
    fn run_persist_predict_lifecycle() {
        let dir = tmp_dir("lifecycle");
        write_csv_dataset(&dir, "train.csv", 1200);
        write_csv_dataset(&dir, "test.csv", 300);
        let session = quick_session(&dir);

        let out = session
            .execute("Q1 = run logistic() on train.csv having epsilon 0.01, max iter 2000;")
            .unwrap();
        let SessionOutput::Trained(Trained { name, summary, .. }) = out else {
            panic!("expected Trained");
        };
        assert_eq!(name, "Q1");
        assert!(summary.iterations >= 1);

        let out = session.execute("persist Q1 on model.txt;").unwrap();
        let SessionOutput::Persisted { path } = out else {
            panic!("expected Persisted");
        };
        assert!(path.exists());

        let out = session
            .execute("result = predict on test.csv with model.txt;")
            .unwrap();
        let SessionOutput::Predicted(p) = out else {
            panic!("expected Predicted");
        };
        assert!(p.accuracy.unwrap() > 0.7, "accuracy {:?}", p.accuracy);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn registry_names_resolve_as_datasets() {
        let dir = tmp_dir("registry");
        let session = quick_session(&dir);
        let out = session
            .execute("run logistic() on adult having max iter 50;")
            .unwrap();
        let SessionOutput::Trained(Trained { name, .. }) = out else {
            panic!("expected Trained")
        };
        assert_eq!(name, "Q1"); // auto-generated
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn predict_accepts_session_result_names() {
        let dir = tmp_dir("byname");
        write_csv_dataset(&dir, "train.csv", 800);
        write_csv_dataset(&dir, "test.csv", 200);
        let session = quick_session(&dir);
        session
            .execute("M = run logistic() on train.csv having max iter 300;")
            .unwrap();
        let out = session.execute("predict on test.csv with M;").unwrap();
        assert!(matches!(out, SessionOutput::Predicted(_)));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn predict_resolves_registry_names() {
        // The PR-1 known gap: `predict on <registry-name> with M` now
        // works through the unified resolver.
        let dir = tmp_dir("predict-registry");
        let session = quick_session(&dir);
        session
            .execute("M = run logistic() on adult having max iter 200;")
            .unwrap();
        let out = session.execute("predict on adult with M;").unwrap();
        let SessionOutput::Predicted(p) = out else {
            panic!("expected Predicted")
        };
        assert_eq!(p.predictions.len(), 4000); // the registry cap
        assert!(p.accuracy.is_some());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn predict_resolves_registered_in_memory_datasets() {
        let dir = tmp_dir("predict-registered");
        let session = quick_session(&dir);
        let data = in_memory_dataset(600, &ClusterSpec::paper_testbed());
        session.engine().register_dataset("mydata", data);
        session
            .execute("M = run logistic() on mydata having max iter 300;")
            .unwrap();
        let out = session.execute("predict on mydata with M;").unwrap();
        let SessionOutput::Predicted(p) = out else {
            panic!("expected Predicted")
        };
        assert_eq!(p.predictions.len(), 600);
        assert!(p.accuracy.unwrap() > 0.7, "accuracy {:?}", p.accuracy);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn explain_reports_every_plan_and_matches_run() {
        // The acceptance bar: every enumerated plan with cost, estimated
        // iterations, and platform mapping; the best row is the plan
        // `run` executes for the same query and seed.
        let dir = tmp_dir("explain");
        let session = quick_session(&dir);
        let query = "logistic() on adult having epsilon 0.01, max iter 2000";
        let out = session.execute(&format!("explain {query};")).unwrap();
        let SessionOutput::Explained { report } = out else {
            panic!("expected Explained")
        };
        assert_eq!(report.choices.len(), 11);
        assert_eq!(report.estimates.len(), 3);
        assert!(!report.cache_hit, "first decision is cold");
        for choice in &report.choices {
            assert!(choice.total_s > 0.0);
            assert!(choice.estimated_iterations >= 1);
            assert!(!choice.mapping.describe().is_empty());
        }
        let out = session.execute(&format!("run {query};")).unwrap();
        let SessionOutput::Trained(Trained { summary, .. }) = out else {
            panic!("expected Trained")
        };
        assert_eq!(summary.plan, report.best().plan);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn repeated_statements_hit_the_plan_cache() {
        let dir = tmp_dir("statement-cache");
        let session = quick_session(&dir);
        let query = "explain logistic() on adult having epsilon 0.01, max iter 500;";
        let SessionOutput::Explained { report: cold } = session.execute(query).unwrap() else {
            panic!("expected Explained")
        };
        let SessionOutput::Explained { report: warm } = session.execute(query).unwrap() else {
            panic!("expected Explained")
        };
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(warm.best().plan, cold.best().plan);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cluster_mapped_plans_route_through_the_simulated_backend() {
        let dir = tmp_dir("backend-routing");
        let engine = quick_engine(&dir);
        // svm1 declares 10 GB logical: every plan maps onto the cluster.
        let trained = engine
            .train(TrainRequest::new(GradientKind::Svm, DataSource::registry("svm1")).max_iter(10))
            .unwrap();
        assert_eq!(trained.summary.backend, "simulated-cluster");
        assert!(
            !trained.summary.usage.is_empty(),
            "cluster runs must be metered: {:?}",
            trained.summary.usage
        );
        // adult fits one partition: pure-driver mapping stays local.
        let trained = engine
            .train(
                TrainRequest::new(
                    GradientKind::LogisticRegression,
                    DataSource::registry("adult"),
                )
                .max_iter(10),
            )
            .unwrap();
        assert_eq!(trained.summary.backend, "local");
        assert!(trained.summary.usage.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn measured_explain_profiles_every_plan() {
        let dir = tmp_dir("measured-explain");
        let engine = quick_engine(&dir);
        let request = || {
            TrainRequest::new(
                GradientKind::LogisticRegression,
                DataSource::registry("adult"),
            )
            .max_iter(15)
        };
        // Plain explain leaves the measured column empty...
        let report = engine.explain(ExplainRequest::new(request())).unwrap();
        assert!(report.choices.iter().all(|c| c.measured_s.is_none()));
        assert!(report.measured_best().is_none());
        // ...and the profiled form fills it for all 11 plans (also on a
        // plan-cache hit: measurement happens per request).
        let report = engine
            .explain(ExplainRequest::new(request()).measured(true))
            .unwrap();
        assert!(report.cache_hit);
        assert_eq!(report.choices.len(), 11);
        for choice in &report.choices {
            let measured = choice.measured_s.expect("every plan profiled");
            assert!(measured > 0.0);
        }
        let rendered = crate::render_report(&report);
        assert!(rendered.contains("measured(s)"));
        // The `run` verb still executes the predicted argmin.
        let trained = engine.train(request()).unwrap();
        assert_eq!(trained.summary.plan, report.best().plan);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn max_iter_only_requests_skip_speculation() {
        // The Section 8.3 fast path: a pure iteration budget needs no
        // speculative runs, in `train` and `explain` alike.
        let dir = tmp_dir("fixed-iterations");
        let engine = quick_engine(&dir);
        let request = || {
            TrainRequest::new(
                GradientKind::LogisticRegression,
                DataSource::registry("adult"),
            )
            .max_iter(50)
        };
        let trained = engine.train(request()).unwrap();
        assert_eq!(trained.summary.speculation_s, 0.0);
        let report = engine.explain(ExplainRequest::new(request())).unwrap();
        assert!(report.estimates.is_empty());
        assert_eq!(report.speculation_sim_s, 0.0);
        assert!(report.choices.iter().all(|c| c.estimated_iterations <= 50));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn typed_predict_accepts_inline_models_and_sources() {
        let dir = tmp_dir("typed-predict");
        let cluster = ClusterSpec::paper_testbed();
        let engine = quick_engine(&dir);
        let data = in_memory_dataset(500, &cluster);
        let trained = engine
            .train(TrainRequest::new(GradientKind::LogisticRegression, data.clone()).max_iter(200))
            .unwrap();
        let model = engine.model(&trained.name).unwrap();
        let p = engine.predict(PredictRequest::new(data, model)).unwrap();
        assert_eq!(p.predictions.len(), 500);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn typed_pins_restrict_the_chosen_plan() {
        let dir = tmp_dir("typed-pins");
        let engine = quick_engine(&dir);
        let trained = engine
            .train(
                TrainRequest::new(
                    GradientKind::LogisticRegression,
                    DataSource::registry("adult"),
                )
                .max_iter(100)
                .algorithm(GdVariant::Stochastic)
                .sampler(SamplingMethod::ShuffledPartition),
            )
            .unwrap();
        assert_eq!(trained.summary.plan.variant, GdVariant::Stochastic);
        assert!(
            trained.summary.plan.sampling.is_none()
                || trained.summary.plan.sampling == Some(SamplingMethod::ShuffledPartition)
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn persist_of_unknown_name_errors() {
        let dir = tmp_dir("unknown");
        let session = quick_session(&dir);
        let err = session.execute("persist Q9 on out.txt;").unwrap_err();
        assert!(matches!(err, SessionError::UnknownName(_)));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unresolvable_dataset_errors_as_source() {
        let dir = tmp_dir("unresolved");
        let session = quick_session(&dir);
        let err = session
            .execute("run logistic() on missing.csv having max iter 10;")
            .unwrap_err();
        assert!(matches!(err, SessionError::Source(_)), "{err:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn column_selection_flows_from_query_to_csv_reader() {
        let dir = tmp_dir("columns");
        // 5 columns: junk, label, junk, f1, f2.
        let mut body = String::new();
        for i in 0..600 {
            let x = (i as f64 / 600.0) * 2.0 - 1.0;
            let label = if x > 0.0 { 1.0 } else { -1.0 };
            body.push_str(&format!("9,{label},7,{x},{}\n", -x));
        }
        std::fs::write(dir.join("cols.csv"), body).unwrap();
        let session = quick_session(&dir);
        let out = session
            .execute("run logistic() on cols.csv:2, cols.csv:4-5 having max iter 500;")
            .unwrap();
        let SessionOutput::Trained(Trained { summary, .. }) = out else {
            panic!("expected Trained")
        };
        assert!(summary.iterations >= 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn libsvm_files_are_sniffed() {
        let dir = tmp_dir("sniff");
        let points = dense_classification_columns(&DenseClassConfig {
            n: 500,
            dims: 6,
            noise: 0.05,
            seed: 2,
        });
        ml4all_datasets::libsvm::write_libsvm(
            std::fs::File::create(dir.join("train.libsvm")).unwrap(),
            &points.to_points(),
        )
        .unwrap();
        let session = quick_session(&dir);
        let out = session
            .execute("run logistic() on train.libsvm having max iter 100;")
            .unwrap();
        assert!(matches!(out, SessionOutput::Trained(_)));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sessions_share_engine_state_when_wrapping_one() {
        let engine = Engine::new().with_speculation(SpeculationConfig {
            sample_size: 200,
            max_iterations: 1000,
            ..SpeculationConfig::default()
        });
        let session = Session::new(engine.clone());
        session
            .execute("M = run logistic() on adult having max iter 50;")
            .unwrap();
        // The model bound by the statement is visible on the engine.
        assert!(engine.model("M").is_some());
        let _ = session;
    }
}
