//! LIBSVM sparse text format reader/writer.
//!
//! Format: one point per line, `label idx:val idx:val …` with 1-based,
//! strictly increasing indices — the input format of the paper's real
//! datasets (Section 8.1 footnote 3). A row may have no `idx:val` token at
//! all (an all-zero point), which is how [`write_libsvm`] writes one.
//!
//! Lines come from the crate's one streaming line scanner (a bounded read
//! buffer, no whole-file read); tokens are split on whitespace. Each
//! index is read by `str::parse::<u32>`. Each label and value is exactly
//! the `f64` `str::parse::<f64>` reads from its text, or the same error:
//! the crate's number parser ([`crate::number`]) reads plain decimals
//! itself and hands every other token to `str::parse`.

use std::io::{BufWriter, Read, Write};
use std::path::Path;

use ml4all_dataflow::{ColumnStore, ColumnarBuilder};
use ml4all_linalg::{FeatureView, PointView};

use crate::lines::Lines;
use crate::number::parse_f64;
use crate::presize::Presize;
use crate::DatasetError;

/// Parse one LIBSVM line into reusable index/value buffers (cleared
/// first). `line_no` is used for error reporting only.
fn parse_line_into(
    line: &str,
    line_no: usize,
    indices: &mut Vec<u32>,
    values: &mut Vec<f64>,
) -> Result<f64, DatasetError> {
    indices.clear();
    values.clear();
    let mut parts = line.split_whitespace();
    let label = parts.next().ok_or_else(|| DatasetError::Parse {
        line_no,
        reason: "empty line".into(),
    })?;
    let label = parse_f64(label).map_err(|e| DatasetError::Parse {
        line_no,
        reason: format!("bad label: {e}"),
    })?;
    for tok in parts {
        let (i, v) = tok.split_once(':').ok_or_else(|| DatasetError::Parse {
            line_no,
            reason: format!("token {tok:?} is not idx:val"),
        })?;
        let idx: u32 = i.parse().map_err(|e| DatasetError::Parse {
            line_no,
            reason: format!("bad index {i:?}: {e}"),
        })?;
        if idx == 0 {
            return Err(DatasetError::Parse {
                line_no,
                reason: "LIBSVM indices are 1-based".into(),
            });
        }
        let val = parse_f64(v).map_err(|e| DatasetError::Parse {
            line_no,
            reason: format!("bad value {v:?}: {e}"),
        })?;
        indices.push(idx - 1);
        values.push(val);
    }
    Ok(label)
}

/// Stream LIBSVM rows into a row sink: each parsed
/// `(label, indices, values)` row (0-based, strictly increasing indices)
/// is handed to `sink` from reusable parse buffers — no per-row
/// allocation, nothing beyond the current row in memory. This is the
/// primitive both the in-memory reader and the out-of-core spilling
/// ingester are built on.
pub fn for_each_libsvm_row<R: Read>(
    reader: R,
    mut sink: impl FnMut(usize, f64, &[u32], &[f64]) -> Result<(), DatasetError>,
) -> Result<(), DatasetError> {
    libsvm_rows(reader, |line_no, _, label, indices, values| {
        sink(line_no, label, indices, values)
    })
}

/// [`for_each_libsvm_row`], also handing `sink` the bytes read through
/// each row's line (after its line number).
fn libsvm_rows<R: Read>(
    reader: R,
    mut sink: impl FnMut(usize, u64, f64, &[u32], &[f64]) -> Result<(), DatasetError>,
) -> Result<(), DatasetError> {
    let mut lines = Lines::new(reader);
    let mut indices: Vec<u32> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    while let Some((line_no, line)) = lines.next_line()? {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let label = parse_line_into(trimmed, line_no, &mut indices, &mut values)?;
        sink(line_no, lines.bytes_read(), label, &indices, &values)?;
    }
    Ok(())
}

/// Read a LIBSVM file from disk straight into CSR columnar storage: the
/// rows [`for_each_libsvm_row`] would hand out append to the shared
/// `indptr`/`indices`/`values` slabs, each column sized from the file's
/// length and the bytes per row read so far rather than grown by
/// doubling. When `dims` is `None` the dimensionality is inferred as the
/// maximum index seen (an explicit `dims` never shrinks below the
/// observed maximum).
pub fn read_libsvm_file_columns(
    path: impl AsRef<Path>,
    dims: Option<usize>,
) -> Result<ColumnStore, DatasetError> {
    let file = std::fs::File::open(path)?;
    let presize = Presize::of(&file)?;
    read_libsvm(file, dims, Some(&presize))
}

fn read_libsvm<R: Read>(
    reader: R,
    dims: Option<usize>,
    presize: Option<&Presize>,
) -> Result<ColumnStore, DatasetError> {
    let mut b = ColumnarBuilder::new();
    libsvm_rows(reader, |line_no, read, label, indices, values| {
        if let Some(presize) = presize {
            presize.room_for(&mut b, read, indices.len());
        }
        b.push_sparse(label, indices, values)
            .map_err(|e| DatasetError::Parse {
                line_no,
                reason: e.to_string(),
            })
    })?;
    Ok(b.finish_with_dims(dims.unwrap_or(0)))
}

/// Write rows in LIBSVM format (sparse layout regardless of storage;
/// zero-valued dense components are skipped).
pub fn write_libsvm<W: Write>(writer: W, points: &[PointView<'_>]) -> Result<(), DatasetError> {
    let mut out = BufWriter::new(writer);
    for p in points {
        write!(out, "{}", p.label)?;
        match p.features {
            FeatureView::Sparse {
                indices, values, ..
            } => {
                for (i, v) in indices.iter().zip(values) {
                    write!(out, " {}:{}", i + 1, v)?;
                }
            }
            FeatureView::Dense(row) => {
                for (i, v) in row.iter().enumerate() {
                    if *v != 0.0 {
                        write!(out, " {}:{}", i + 1, v)?;
                    }
                }
            }
        }
        writeln!(out)?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_file() {
        let text = "+1 2:0.1 4:0.4 10:0.3\n-1 3:0.3 4:0.5 9:0.5\n";
        let rows = read_libsvm(text.as_bytes(), None, None).unwrap();
        let pts = rows.to_points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].label, 1.0);
        assert_eq!(pts[0].dim(), 10);
        assert_eq!(pts[0].features.nnz(), 3);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "# header\n\n+1 1:1\n";
        let rows = read_libsvm(text.as_bytes(), None, None).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn explicit_dims_overrides_inference() {
        let rows = read_libsvm("1 1:1\n".as_bytes(), Some(100), None).unwrap();
        assert_eq!(rows.view(0).unwrap().dim(), 100);
        // But never shrinks below the observed maximum.
        let rows = read_libsvm("1 50:1\n".as_bytes(), Some(10), None).unwrap();
        assert_eq!(rows.view(0).unwrap().dim(), 50);
    }

    #[test]
    fn rejects_zero_index() {
        let err = read_libsvm("1 0:5\n".as_bytes(), None, None).unwrap_err();
        assert!(matches!(err, DatasetError::Parse { line_no: 1, .. }));
    }

    #[test]
    fn rejects_malformed_tokens() {
        assert!(read_libsvm("1 abc\n".as_bytes(), None, None).is_err());
        assert!(read_libsvm("x 1:1\n".as_bytes(), None, None).is_err());
        assert!(read_libsvm("1 1:zz\n".as_bytes(), None, None).is_err());
    }

    #[test]
    fn round_trip_preserves_points() {
        let text = "1 2:0.25 4:0.5\n-1 1:1\n";
        let rows = read_libsvm(text.as_bytes(), Some(4), None).unwrap();
        let mut buf = Vec::new();
        write_libsvm(&mut buf, &rows.to_points()).unwrap();
        let again = read_libsvm(buf.as_slice(), Some(4), None).unwrap();
        assert_eq!(rows, again);
    }

    #[test]
    fn dense_points_serialize_sparsely() {
        let pts = [PointView::new(1.0, FeatureView::Dense(&[0.0, 2.0, 0.0]))];
        let mut buf = Vec::new();
        write_libsvm(&mut buf, &pts).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "1 2:2\n");
    }
}
