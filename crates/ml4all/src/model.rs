//! Trained-model persistence: the artifact behind `persist Q1 on
//! my_model.txt` and `predict … with my_model.txt` (Appendix A).
//!
//! The on-disk format is a small versioned text file — one header line,
//! the gradient function and dimensionality, then one weight per line —
//! so models are inspectable and diffable.

use std::fmt::Write as _;
use std::path::Path;

use ml4all_dataflow::PartitionedDataset;
use ml4all_gd::gradient::Batches;
use ml4all_gd::{Gradient, GradientKind};
use ml4all_linalg::{DenseVector, PointView};

const MAGIC: &str = "ml4all-model v1";

/// Errors from model persistence.
#[derive(Debug)]
pub enum ModelError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// The file is not a valid model (bad header, missing fields,
    /// truncated weights).
    Format(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "{e}"),
            Self::Format(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A trained model: weights plus the task needed to predict with them.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Gradient function the model was trained with.
    pub gradient: GradientKind,
    /// Model vector.
    pub weights: DenseVector,
}

impl Model {
    /// Create a model.
    pub fn new(gradient: GradientKind, weights: DenseVector) -> Self {
        Self { gradient, weights }
    }

    /// Predict a label for a row (sign for classification, raw score for
    /// regression).
    #[inline]
    pub fn predict(&self, point: PointView<'_>) -> f64 {
        self.gradient.predict(self.weights.as_slice(), point)
    }

    /// Score every row of a partitioned dataset, in the dataset's
    /// original input order (`predictions[i]` corresponds to input row
    /// `i`, whatever the partitioning), straight off the columnar
    /// storage. Rows go through
    /// the gradient's [batch rule](ml4all_gd::gradient), cut from the first
    /// input row — deterministic, though raw regression scores for batched
    /// dense rows round per the fixed blocked order rather than the per-row
    /// [`Model::predict`] order. This is the scoring path behind the
    /// `predict` verb.
    pub fn predict_batch(&self, data: &PartitionedDataset) -> Vec<f64> {
        let w = self.weights.as_slice();
        let mut out = Vec::with_capacity(data.physical_n());
        let mut batches = Batches::new(data.iter_views_input_order());
        while let Some(rows) = batches.next_batch() {
            self.gradient.predict_batch(w, rows, &mut out);
        }
        out
    }

    /// Save to disk, crash-safely: the file is staged to a temp sibling,
    /// fsynced, and renamed into place, so a crash mid-save can never
    /// leave a truncated model where a good one (or nothing) stood.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ModelError> {
        let mut text = format!(
            "{MAGIC}\ngradient: {}\ndims: {}\n",
            self.gradient.function_name(),
            self.weights.dim()
        );
        for w in self.weights.as_slice() {
            writeln!(text, "{w}").expect("writing to a String cannot fail");
        }
        ml4all_dataflow::atomic_write(path, text.as_bytes())?;
        Ok(())
    }

    /// Load from disk, validating the header. The file is read once and
    /// parsed off that buffer. The weight count `dims:` declares must match
    /// the weights that follow, and the file's size, not `dims:`, bounds
    /// the reservation, so a corrupt or hostile header is a
    /// [`ModelError::Format`], never a panic or an abort.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ModelError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)?;
        let text = std::str::from_utf8(&bytes)
            .map_err(|e| ModelError::Format(format!("{}: not text: {e}", path.display())))?;
        let mut lines = text.lines();
        let magic = lines
            .next()
            .ok_or_else(|| ModelError::Format(format!("{}: empty file", path.display())))?;
        if magic.trim() != MAGIC {
            return Err(ModelError::Format(format!(
                "{}: not an ml4all model (header {magic:?})",
                path.display()
            )));
        }
        let gradient_line = lines
            .next()
            .ok_or_else(|| ModelError::Format("missing gradient line".into()))?;
        let name = gradient_line.trim_start_matches("gradient:").trim();
        let gradient = GradientKind::from_function_name(name)
            .ok_or_else(|| ModelError::Format(format!("unknown gradient function {name:?}")))?;
        let dims_line = lines
            .next()
            .ok_or_else(|| ModelError::Format("missing dims line".into()))?;
        let dims: usize = dims_line
            .trim_start_matches("dims:")
            .trim()
            .parse()
            .map_err(|e| ModelError::Format(format!("bad dims: {e}")))?;
        // A weight takes at least a digit and a line break, so the file
        // bounds the reservation whatever `dims:` claims.
        let mut weights = Vec::with_capacity(dims.min(bytes.len() / 2 + 1));
        for line in lines {
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            weights.push(
                trimmed
                    .parse::<f64>()
                    .map_err(|e| ModelError::Format(format!("bad weight {trimmed:?}: {e}")))?,
            );
        }
        if weights.len() != dims {
            return Err(ModelError::Format(format!(
                "expected {dims} weights, found {}",
                weights.len()
            )));
        }
        Ok(Self {
            gradient,
            weights: DenseVector::new(weights),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ml4all-model-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn save_load_round_trips() {
        let model = Model::new(
            GradientKind::LogisticRegression,
            DenseVector::new(vec![1.5, -2.25, 0.0]),
        );
        let path = tmp("roundtrip.txt");
        model.save(&path).unwrap();
        let loaded = Model::load(&path).unwrap();
        assert_eq!(model, loaded);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn saved_weights_keep_the_one_line_display_format() {
        let weights = vec![
            -0.0,
            f64::from_bits(1), // the least subnormal
            1e300,
            3.0,
            0.1 + 0.2, // a long fraction: 0.30000000000000004
        ];
        let path = tmp("format.txt");
        Model::new(GradientKind::Svm, DenseVector::new(weights.clone()))
            .save(&path)
            .unwrap();
        let saved = std::fs::read_to_string(&path).unwrap();
        // The text a `format!("{w}\n")` per weight produced.
        let mut expected = String::from("ml4all-model v1\ngradient: hinge\ndims: 5\n");
        for w in &weights {
            expected.push_str(&format!("{w}\n"));
        }
        assert_eq!(saved, expected);
        let lines: Vec<&str> = saved.lines().skip(3).collect();
        assert_eq!(lines[0], "-0");
        assert_eq!(lines[1], format!("0.{}5", "0".repeat(323)));
        assert_eq!(lines[2], format!("1{}", "0".repeat(300)));
        assert_eq!(lines[3], "3");
        assert_eq!(lines[4], "0.30000000000000004");
        let loaded = Model::load(&path).unwrap();
        let bits = |ws: &[f64]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(loaded.weights.as_slice()), bits(&weights));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn all_gradient_kinds_round_trip() {
        for kind in [
            GradientKind::Svm,
            GradientKind::LogisticRegression,
            GradientKind::LinearRegression,
        ] {
            let path = tmp(kind.function_name());
            Model::new(kind, DenseVector::zeros(2)).save(&path).unwrap();
            assert_eq!(Model::load(&path).unwrap().gradient, kind);
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn rejects_foreign_files() {
        let path = tmp("garbage.txt");
        std::fs::write(&path, "not a model\n1\n2\n").unwrap();
        assert!(matches!(Model::load(&path), Err(ModelError::Format(_))));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_truncated_weights() {
        let path = tmp("truncated.txt");
        std::fs::write(&path, "ml4all-model v1\ngradient: hinge\ndims: 3\n1.0\n").unwrap();
        assert!(matches!(Model::load(&path), Err(ModelError::Format(_))));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_hostile_dims_headers_typed() {
        // Both once reached `Vec::with_capacity` unchecked: the first
        // panicked on capacity overflow, the second aborted the process
        // on an 8 TB allocation.
        for dims in [usize::MAX.to_string(), "1000000000000".to_string()] {
            let path = tmp(&format!("dims-{dims}.txt"));
            std::fs::write(
                &path,
                format!("ml4all-model v1\ngradient: hinge\ndims: {dims}\n1.0\n2.0\n"),
            )
            .unwrap();
            match Model::load(&path) {
                Err(ModelError::Format(m)) => assert!(m.contains("found 2"), "{m}"),
                other => panic!("dims {dims}: {other:?}"),
            }
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn rejects_surplus_weights() {
        let path = tmp("surplus.txt");
        std::fs::write(
            &path,
            "ml4all-model v1\ngradient: hinge\ndims: 1\n1.0\n2.0\n",
        )
        .unwrap();
        assert!(matches!(Model::load(&path), Err(ModelError::Format(_))));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn predicts_with_the_right_task_semantics() {
        use ml4all_linalg::FeatureView;
        let p = PointView::new(0.0, FeatureView::Dense(&[2.0]));
        let svm = Model::new(GradientKind::Svm, DenseVector::new(vec![-1.0]));
        assert_eq!(svm.predict(p), -1.0);
        let reg = Model::new(GradientKind::LinearRegression, DenseVector::new(vec![1.5]));
        assert_eq!(reg.predict(p), 3.0);
    }

    #[test]
    fn predict_batch_matches_per_point_predictions() {
        use ml4all_dataflow::{ClusterSpec, PartitionScheme};
        let points = (0..64)
            .map(|i| {
                let x = i as f64 / 32.0 - 1.0;
                (if x > 0.0 { 1.0 } else { -1.0 }, [x, 1.0])
            })
            .collect();
        let data = PartitionedDataset::from_columns(
            "pb",
            &points,
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap();
        let model = Model::new(
            GradientKind::LogisticRegression,
            DenseVector::new(vec![2.0, -0.5]),
        );
        let batched = model.predict_batch(&data);
        let one_by_one: Vec<f64> = data.iter_views().map(|v| model.predict(v)).collect();
        assert_eq!(batched, one_by_one);
        assert_eq!(batched.len(), 64);
    }
}
