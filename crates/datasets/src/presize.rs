//! Column sizing for the file readers: a file's byte length and the bytes
//! per row read so far predict how many rows — and stored entries — are
//! still to come, so each column is allocated about once instead of through
//! a doubling chain that requests about twice the final column in all.

use std::fs::File;
use std::io;

use ml4all_dataflow::ColumnarBuilder;

/// Slack on each estimate, as a share of the rows it predicts: rows vary
/// in length, and an estimate that falls short costs one more copy of the
/// whole column, while one that overshoots costs only the slack.
const SLACK: f64 = 1.0 / 16.0;

/// Sizes a builder's columns from the file it is read from.
pub(crate) struct Presize {
    file_bytes: u64,
}

impl Presize {
    pub(crate) fn of(file: &File) -> io::Result<Self> {
        Ok(Self {
            file_bytes: file.metadata()?.len(),
        })
    }

    /// Make room for the next row, of `entries` stored entries, whose line
    /// ends `read` bytes into the file. Only when a column is full: then
    /// every column grows to hold the rows the rest of the file holds at
    /// the bytes (and entries) per row seen so far. The first row sizes
    /// the builder itself. Every row and every entry takes at least a byte
    /// of the file, so a reservation holds no more rows or entries than
    /// the rest of the file has bytes, plus the slack.
    pub(crate) fn room_for(&self, b: &mut ColumnarBuilder, read: u64, entries: usize) {
        let (spare_rows, spare_entries) = b.spare();
        if b.is_empty() || (spare_rows > 0 && spare_entries >= entries) {
            return;
        }
        let rows = (b.len() + 1) as f64;
        let rest = self.file_bytes.saturating_sub(read) as f64;
        let more = (rest / read.max(1) as f64 * rows * (1.0 + SLACK)).ceil();
        let entries_per_row = (b.entries() + entries) as f64 / rows;
        b.reserve_exact(
            1 + more as usize,
            entries + (more * entries_per_row).ceil() as usize,
        );
    }
}
