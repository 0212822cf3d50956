//! Input generation: every workload input is a pure function of `--seed`.
//!
//! The generator is the benchmark's own (SplitMix64), so a change to the
//! crates' synthetic-data code cannot silently change what is measured.
//! Shapes are fixed — only values vary with the seed — so every seed does
//! the same amount of work.

use ml4all_dataflow::{ColumnStore, ColumnarBuilder};

/// Rows × features of the dense training set (0.8 MB of features).
pub const DENSE_SHAPE: (usize, usize) = (2_000, 50);
/// Rows × features × stored entries per row of the CSR training set
/// (density 1.5e-3: 1.4 MB of CSR, a 160 KB model vector).
pub const SPARSE_SHAPE: (usize, usize, usize) = (4_000, 20_000, 30);
/// Rows of each `train_k.csv` / `test_k.csv`, and their feature count.
pub const CSV_SHAPE: (usize, usize, usize) = (2_500, 1_000, 50);
/// CSV pairs the cold-query workload cycles through.
pub const CSV_PAIRS: usize = 4;

/// SplitMix64: tiny, seedable, identical on every platform.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for stream `index` of `seed`, independent of the other
    /// streams.
    pub fn stream(seed: u64, index: u64) -> Self {
        let mut root = Self(seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
        Self(root.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// ±1 label of a row under a hidden linear model, with `flip` label noise.
fn label(score: f64, rng: &mut SplitMix, flip: f64) -> f64 {
    let clean = if score > 0.0 { 1.0 } else { -1.0 };
    if (rng.unit() + 1.0) / 2.0 < flip {
        -clean
    } else {
        clean
    }
}

/// `rows × dims` dense ±1-labelled rows.
pub fn dense_rows(seed: u64, rows: usize, dims: usize) -> ColumnStore {
    let mut rng = SplitMix::stream(seed, 1);
    let truth: Vec<f64> = (0..dims).map(|_| rng.unit()).collect();
    let mut builder = ColumnarBuilder::with_dense_capacity(rows, dims);
    let mut row = vec![0.0; dims];
    for _ in 0..rows {
        row.fill_with(|| rng.unit());
        let score: f64 = row.iter().zip(&truth).map(|(x, t)| x * t).sum();
        builder.push_dense(label(score, &mut rng, 0.05), &row);
    }
    builder.finish_with_dims(dims)
}

/// `rows × dims` CSR rows with exactly `nnz` stored entries each.
pub fn sparse_rows(seed: u64, rows: usize, dims: usize, nnz: usize) -> ColumnStore {
    let mut rng = SplitMix::stream(seed, 2);
    let truth: Vec<f64> = (0..dims).map(|_| rng.unit()).collect();
    let mut builder = ColumnarBuilder::new();
    let mut indices: Vec<u32> = Vec::with_capacity(nnz);
    let mut values: Vec<f64> = Vec::with_capacity(nnz);
    for _ in 0..rows {
        indices.clear();
        while indices.len() < nnz {
            let i = rng.below(dims) as u32;
            if !indices.contains(&i) {
                indices.push(i);
            }
        }
        indices.sort_unstable();
        values.clear();
        values.extend(indices.iter().map(|_| rng.unit()));
        let score: f64 = indices
            .iter()
            .zip(&values)
            .map(|(&i, v)| truth[i as usize] * v)
            .sum();
        builder
            .push_sparse(label(score, &mut rng, 0.05), &indices, &values)
            .expect("sorted, equal-length index/value rows");
    }
    builder.finish_with_dims(dims)
}

/// CSV text of `rows` rows (`label,f1,…,f50`, floats at full precision,
/// ≈ 1 KB per row) drawn from the hidden model of pair `pair`.
pub fn csv_text(seed: u64, pair: usize, test: bool, rows: usize, dims: usize) -> String {
    use std::fmt::Write as _;
    // Train and test share the pair's hidden model, not its rows.
    let mut model_rng = SplitMix::stream(seed, 100 + pair as u64);
    let truth: Vec<f64> = (0..dims).map(|_| model_rng.unit()).collect();
    let mut rng = SplitMix::stream(seed, 200 + 2 * pair as u64 + u64::from(test));
    let mut text = String::with_capacity(rows * (dims + 1) * 21);
    let mut row = vec![0.0; dims];
    for _ in 0..rows {
        row.fill_with(|| rng.unit());
        let score: f64 = row.iter().zip(&truth).map(|(x, t)| x * t).sum();
        let _ = write!(text, "{}", label(score, &mut rng, 0.02));
        for x in &row {
            let _ = write!(text, ",{x}");
        }
        text.push('\n');
    }
    text
}
