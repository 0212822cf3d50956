//! Test-set metrics: the paper reports the mean squared error of predicted
//! labels against ground truth (Section 8.5, Figure 12). Both take the
//! labels column as a slice, so scoring a [`ml4all_dataflow::ColumnStore`]
//! hands its `labels()` straight through.

/// Mean squared error between per-point predictions and true labels.
/// For ±1 classification labels this equals 4 × misclassification rate
/// when predictions are themselves ±1 — the metric of Figure 12.
pub fn mean_squared_error(predictions: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(
        predictions.len(),
        labels.len(),
        "one prediction per test point"
    );
    if labels.is_empty() {
        return 0.0;
    }
    predictions
        .iter()
        .zip(labels)
        .map(|(pred, label)| {
            let d = pred - label;
            d * d
        })
        .sum::<f64>()
        / labels.len() as f64
}

/// Fraction of sign-correct predictions for ±1 labels.
pub fn accuracy(predictions: &[f64], labels: &[f64]) -> f64 {
    assert_eq!(predictions.len(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(pred, label)| (**pred >= 0.0) == (**label >= 0.0))
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_have_zero_mse() {
        let labels = [1.0, -1.0, 1.0];
        assert_eq!(mean_squared_error(&[1.0, -1.0, 1.0], &labels), 0.0);
        assert_eq!(accuracy(&[1.0, -1.0, 1.0], &labels), 1.0);
    }

    #[test]
    fn one_sign_error_in_four_is_mse_one() {
        // (±1 labels) one wrong of four: (2² + 0 + 0 + 0) / 4 = 1.
        let labels = [1.0, 1.0, -1.0, -1.0];
        let mse = mean_squared_error(&[-1.0, 1.0, -1.0, -1.0], &labels);
        assert!((mse - 1.0).abs() < 1e-12);
        assert!((accuracy(&[-1.0, 1.0, -1.0, -1.0], &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_sets_are_zero() {
        assert_eq!(mean_squared_error(&[], &[]), 0.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "one prediction per test point")]
    fn mismatched_lengths_panic() {
        mean_squared_error(&[1.0], &[1.0, 2.0]);
    }
}
