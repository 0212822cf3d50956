//! Test-set metrics: the paper reports the mean squared error of predicted
//! labels against ground truth (Section 8.5, Figure 12). The slice forms
//! take a labels column as it is, so scoring a
//! [`ml4all_dataflow::ColumnStore`] hands its `labels()` straight through;
//! [`score`] streams them, e.g. a partitioned set's labels in input order.

/// Mean squared error between per-point predictions and true labels.
/// For ±1 classification labels this equals 4 × misclassification rate
/// when predictions are themselves ±1 — the metric of Figure 12.
pub fn mean_squared_error(predictions: &[f64], labels: &[f64]) -> f64 {
    score(predictions, labels.iter().copied()).0
}

/// Fraction of sign-correct predictions for ±1 labels.
pub fn accuracy(predictions: &[f64], labels: &[f64]) -> f64 {
    score(predictions, labels.iter().copied()).1
}

/// [`mean_squared_error`] and [`accuracy`] in one pass over streamed
/// labels, summed sequentially in label order — so a stream scores
/// bit-identically to the same labels gathered into a slice, and need not
/// be gathered first.
pub fn score(predictions: &[f64], labels: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let mut preds = predictions.iter();
    let mut squared = -0.0;
    let mut correct = 0usize;
    // `for_each`, not a `for` loop: a stream of several columns runs as
    // one loop per column instead of stepping through its layers per
    // label.
    labels.into_iter().for_each(|label| {
        let pred = *preds.next().expect("one prediction per test point");
        let d = pred - label;
        squared += d * d;
        correct += usize::from((pred >= 0.0) == (label >= 0.0));
    });
    assert!(preds.next().is_none(), "one prediction per test point");
    if predictions.is_empty() {
        return (0.0, 0.0);
    }
    let n = predictions.len() as f64;
    (squared / n, correct as f64 / n)
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
