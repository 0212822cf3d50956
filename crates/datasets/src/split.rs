//! Train/test splitting — the paper's protocol for datasets without an
//! official test set: "we randomly split the initial dataset in training
//! (80%) and testing (20%)" (Section 8.5).

use ml4all_dataflow::{ColumnStore, ColumnarBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Deterministically split rows into `(train, test)` with `train_frac`
/// of the data in the training set (clamped to `[0, 1]`). Both sides keep
/// the rows' relative order and the source's dimensionality.
pub fn train_test_split(
    rows: &ColumnStore,
    train_frac: f64,
    seed: u64,
) -> (ColumnStore, ColumnStore) {
    let train_frac = train_frac.clamp(0.0, 1.0);
    let mut indices: Vec<usize> = (0..rows.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    let n_train = (rows.len() as f64 * train_frac).round() as usize;
    let mut in_train = vec![false; rows.len()];
    for &i in &indices[..n_train] {
        in_train[i] = true;
    }
    let (mut train, mut test) = (ColumnarBuilder::new(), ColumnarBuilder::new());
    for (v, to_train) in rows.iter().zip(in_train) {
        if to_train {
            train.push_view(v);
        } else {
            test.push_view(v);
        }
    }
    (
        train.finish_with_dims(rows.dims()),
        test.finish_with_dims(rows.dims()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(n: usize) -> ColumnStore {
        (0..n).map(|i| (i as f64, [i as f64])).collect()
    }

    #[test]
    fn split_is_80_20_by_default_protocol() {
        let (train, test) = train_test_split(&points(1000), 0.8, 1);
        assert_eq!(train.len(), 800);
        assert_eq!(test.len(), 200);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let (a_train, _) = train_test_split(&points(100), 0.8, 5);
        let (b_train, _) = train_test_split(&points(100), 0.8, 5);
        assert_eq!(a_train, b_train);
        let (c_train, _) = train_test_split(&points(100), 0.8, 6);
        assert_ne!(a_train, c_train);
    }

    #[test]
    fn split_partitions_without_loss_or_duplication() {
        let (train, test) = train_test_split(&points(101), 0.8, 2);
        let mut labels: Vec<f64> = train
            .labels()
            .iter()
            .chain(test.labels())
            .copied()
            .collect();
        labels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..101).map(|i| i as f64).collect();
        assert_eq!(labels, expect);
    }

    #[test]
    fn extreme_fractions_are_clamped() {
        let (train, test) = train_test_split(&points(10), 1.5, 0);
        assert_eq!(train.len(), 10);
        assert!(test.is_empty());
        let (train, test) = train_test_split(&points(10), -0.5, 0);
        assert!(train.is_empty());
        assert_eq!(test.len(), 10);
    }
}
