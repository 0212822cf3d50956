//! CSV dense-format reader with the column selection of the declarative
//! language (`input.txt:2, input.txt:4-20` — Appendix A's Q2: "column 2 is
//! the label and attributes 4–20 are the features").
//!
//! Lines come from the crate's one streaming line scanner (a bounded read
//! buffer, no whole-file read); a line is trimmed, and blank and `#` lines
//! are skipped. Each field is the text up to the next `,`, trimmed as
//! `str::trim` trims it, and its value is exactly the `f64`
//! `str::parse::<f64>` reads from that text, or the same error. The
//! number parser ([`crate::number`]) starts at the field: a plain decimal
//! that it reads up to the `,` or the end of the line is the field, with
//! nothing to trim. Any other field is cut at the `,` by a byte search,
//! trimmed, and parsed by the same parser, which hands every token
//! outside its fast path to `str::parse`.

use std::io::Read;
use std::path::Path;

use ml4all_dataflow::{ColumnStore, ColumnarBuilder};
use ml4all_linalg::PointView;

use crate::lines::{find_byte, Lines};
use crate::number::{parse_f64, parse_prefix};
use crate::presize::Presize;
use crate::DatasetError;

/// `str::trim`, skipped where it is the identity: a field that begins and
/// ends with printable ASCII has no whitespace to trim at either end (an
/// ASCII byte is a whole char, and no printable one is whitespace).
#[inline]
fn trim(field: &str) -> &str {
    let bytes = field.as_bytes();
    match (bytes.first(), bytes.last()) {
        (Some(first), Some(last)) if first.is_ascii_graphic() && last.is_ascii_graphic() => field,
        _ => field.trim(),
    }
}

/// Column selection: 1-based label column and inclusive 1-based feature
/// range. `None` means "first column is the label, the rest are features"
/// (the language's default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsvColumns {
    /// 1-based label column.
    pub label: u32,
    /// 1-based inclusive feature range.
    pub features: (u32, u32),
}

/// Stream CSV rows (`v1,v2,…`, all numeric) into a row sink: each parsed
/// `(label, features)` row is handed to `sink` from a reusable field
/// buffer — no per-row allocation, and nothing beyond the read buffer and
/// the current row is held in memory. This is the primitive both the
/// in-memory reader and the out-of-core spilling ingester are built on.
pub fn for_each_csv_row<R: Read>(
    reader: R,
    columns: Option<CsvColumns>,
    mut sink: impl FnMut(f64, &[f64]) -> Result<(), DatasetError>,
) -> Result<(), DatasetError> {
    csv_rows(reader, columns, |_, label, features| sink(label, features))
}

/// [`for_each_csv_row`], also handing `sink` the bytes read through each
/// row's line.
fn csv_rows<R: Read>(
    reader: R,
    columns: Option<CsvColumns>,
    mut sink: impl FnMut(u64, f64, &[f64]) -> Result<(), DatasetError>,
) -> Result<(), DatasetError> {
    let mut lines = Lines::new(reader);
    let mut fields: Vec<f64> = Vec::new();
    while let Some((line_no, line)) = lines.next_line()? {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        fields.clear();
        let mut rest = trimmed;
        loop {
            // A field the parser reads to its end is a plain decimal with
            // no whitespace to trim; any other field is cut and trimmed.
            let (v, len) = match parse_prefix(rest.as_bytes()) {
                Some((v, len)) if matches!(rest.as_bytes().get(len), None | Some(b',')) => (v, len),
                _ => {
                    let len = find_byte(b',', rest.as_bytes()).unwrap_or(rest.len());
                    let tok = &rest[..len];
                    let v = parse_f64(trim(tok)).map_err(|e| DatasetError::Parse {
                        line_no,
                        reason: format!("bad number {tok:?}: {e}"),
                    })?;
                    (v, len)
                }
            };
            fields.push(v);
            match rest.get(len + 1..) {
                Some(next) => rest = next,
                None => break,
            }
        }
        let read = lines.bytes_read();
        match columns {
            None => {
                if fields.len() < 2 {
                    return Err(DatasetError::Parse {
                        line_no,
                        reason: "need a label and at least one feature".into(),
                    });
                }
                sink(read, fields[0], &fields[1..])?;
            }
            Some(cols) => {
                let label_ix = cols.label as usize;
                let (from, to) = (cols.features.0 as usize, cols.features.1 as usize);
                if label_ix == 0 || from == 0 || from > to {
                    return Err(DatasetError::Parse {
                        line_no,
                        reason: "column references are 1-based and ranges ascend".into(),
                    });
                }
                if fields.len() < label_ix || fields.len() < to {
                    return Err(DatasetError::Parse {
                        line_no,
                        reason: format!(
                            "row has {} columns but the query references column {}",
                            fields.len(),
                            label_ix.max(to)
                        ),
                    });
                }
                sink(read, fields[label_ix - 1], &fields[from - 1..to])?;
            }
        }
    }
    Ok(())
}

/// Read a CSV file from disk straight into contiguous columnar storage:
/// each row [`for_each_csv_row`] would hand out is appended to the dense
/// slab, each column sized from the file's length and the bytes per row
/// read so far rather than grown by doubling.
pub fn read_csv_file_columns(
    path: impl AsRef<Path>,
    columns: Option<CsvColumns>,
) -> Result<ColumnStore, DatasetError> {
    let file = std::fs::File::open(path)?;
    let presize = Presize::of(&file)?;
    read_csv(file, columns, Some(&presize))
}

fn read_csv<R: Read>(
    reader: R,
    columns: Option<CsvColumns>,
    presize: Option<&Presize>,
) -> Result<ColumnStore, DatasetError> {
    let mut b = ColumnarBuilder::new();
    csv_rows(reader, columns, |read, label, features| {
        if let Some(presize) = presize {
            presize.room_for(&mut b, read, features.len());
        }
        b.push_dense(label, features);
        Ok(())
    })?;
    Ok(b.finish())
}

/// Write rows as dense CSV (`label,f1,f2,…`).
pub fn write_csv<W: std::io::Write>(
    writer: W,
    points: &[PointView<'_>],
) -> Result<(), DatasetError> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(writer);
    let mut dense = Vec::new();
    for p in points {
        write!(out, "{}", p.label)?;
        p.features.write_dense(&mut dense);
        for v in &dense {
            write!(out, ",{v}")?;
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
    fn default_columns_take_label_first() {
        let rows = read_csv("1.0,2.0,3.0\n-1.0,0.5,0.25\n".as_bytes(), None, None).unwrap();
        let pts = rows.to_points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].label, 1.0);
        assert_eq!(pts[0].features.dot(&[1.0, 0.0]), 2.0);
        assert_eq!(pts[1].features.dot(&[0.0, 1.0]), 0.25);
    }

    #[test]
    fn explicit_columns_select_label_and_range() {
        // Q2's shape: label in column 2, features 4-5.
        let cols = CsvColumns {
            label: 2,
            features: (4, 5),
        };
        let rows = read_csv("9,1,8,10,20\n9,-1,8,30,40\n".as_bytes(), Some(cols), None).unwrap();
        let pts = rows.to_points();
        assert_eq!(pts[0].label, 1.0);
        assert_eq!(pts[0].dim(), 2);
        assert_eq!(pts[0].features.dot(&[1.0, 0.0]), 10.0);
        assert_eq!(pts[1].features.dot(&[0.0, 1.0]), 40.0);
    }

    #[test]
    fn out_of_range_columns_error() {
        let cols = CsvColumns {
            label: 2,
            features: (4, 9),
        };
        assert!(read_csv("1,2,3,4,5\n".as_bytes(), Some(cols), None).is_err());
        let zero = CsvColumns {
            label: 0,
            features: (1, 2),
        };
        assert!(read_csv("1,2,3\n".as_bytes(), Some(zero), None).is_err());
    }

    #[test]
    fn bad_numbers_error_with_line() {
        let err = read_csv("1,2\nx,3\n".as_bytes(), None, None).unwrap_err();
        match err {
            DatasetError::Parse { line_no, .. } => assert_eq!(line_no, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn skips_comments_and_blanks() {
        let rows = read_csv("# header\n\n1,2\n".as_bytes(), None, None).unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn round_trip() {
        let rows = read_csv("1,2,0\n-1,0,4\n".as_bytes(), None, None).unwrap();
        let mut buf = Vec::new();
        write_csv(&mut buf, &rows.to_points()).unwrap();
        let again = read_csv(buf.as_slice(), None, None).unwrap();
        assert_eq!(rows, again);
    }
}
