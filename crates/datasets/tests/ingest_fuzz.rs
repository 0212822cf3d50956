//! The CSV and LIBSVM readers against a naive reference on random byte
//! strings built from the fragments of the ingest-semantics golden:
//! digits, signs, `.`, `e`, `,`, `:`, space, tab, NBSP, `\r`, `\n`, `#`
//! and one invalid UTF-8 byte. The reference is `split` on `\n`, a UTF-8
//! check per line, `str::trim`, `split(',')` or `split_whitespace`, and
//! `str::parse`. The readers must never panic, and must hand out the
//! reference's rows bit for bit, then fail on the line where it fails.

use ml4all_datasets::csv::{for_each_csv_row, CsvColumns};
use ml4all_datasets::libsvm::for_each_libsvm_row;
use ml4all_datasets::DatasetError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FRAGMENTS: [&[u8]; 21] = [
    b"0",
    b"1",
    b"5",
    b"9",
    b"12345678",
    b"0.25",
    b"3.1415926535897932",
    b"-",
    b"+",
    b".",
    b"e",
    b",",
    b":",
    b" ",
    b"\t",
    "\u{a0}".as_bytes(),
    b"\r",
    b"\n",
    b"#",
    b"\xff",
    b"1:",
];

/// Rows as `(label bits, [(index, value bits)])`; a CSV row's indices are
/// its feature positions.
type Row = (u64, Vec<(u32, u64)>);

/// Where reading stopped short: a parse error on a line, or invalid
/// UTF-8.
#[derive(Debug, PartialEq)]
enum Stop {
    Line(usize),
    Utf8,
}

fn text(rng: &mut StdRng) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..rng.gen_range(0..60usize) {
        out.extend_from_slice(FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())]);
    }
    out
}

fn dense(label: f64, features: &[f64]) -> Row {
    let features = (0u32..).zip(features).map(|(i, x)| (i, x.to_bits()));
    (label.to_bits(), features.collect())
}

/// The reference lines: numbered, checked as UTF-8, trimmed, blank and
/// `#` lines dropped.
fn reference_lines(bytes: &[u8]) -> Vec<(usize, Result<&str, Stop>)> {
    bytes
        .split(|&b| b == b'\n')
        .enumerate()
        .map(|(i, line)| (i + 1, std::str::from_utf8(line).map_err(|_| Stop::Utf8)))
        .map(|(no, line)| (no, line.map(str::trim)))
        .filter(|(_, line)| !matches!(line, Ok(l) if l.is_empty() || l.starts_with('#')))
        .collect()
}

fn csv_reference(bytes: &[u8], columns: Option<CsvColumns>) -> (Vec<Row>, Option<Stop>) {
    let mut rows = Vec::new();
    for (no, line) in reference_lines(bytes) {
        let line = match line {
            Ok(line) => line,
            Err(stop) => return (rows, Some(stop)),
        };
        let fields: Result<Vec<f64>, _> = line.split(',').map(|t| t.trim().parse()).collect();
        let Ok(fields) = fields else {
            return (rows, Some(Stop::Line(no)));
        };
        let row = match columns {
            None if fields.len() >= 2 => dense(fields[0], &fields[1..]),
            Some(c) if fields.len() >= (c.label as usize).max(c.features.1 as usize) => {
                let (from, to) = (c.features.0 as usize, c.features.1 as usize);
                dense(fields[c.label as usize - 1], &fields[from - 1..to])
            }
            _ => return (rows, Some(Stop::Line(no))),
        };
        rows.push(row);
    }
    (rows, None)
}

fn libsvm_reference(bytes: &[u8]) -> (Vec<Row>, Option<Stop>) {
    let mut rows = Vec::new();
    for (no, line) in reference_lines(bytes) {
        let line = match line {
            Ok(line) => line,
            Err(stop) => return (rows, Some(stop)),
        };
        let mut tokens = line.split_whitespace();
        let label: Option<f64> = tokens.next().and_then(|t| t.parse().ok());
        let pairs: Option<Vec<(u32, u64)>> = tokens
            .map(|tok| {
                let (i, v) = tok.split_once(':')?;
                let i: u32 = i.parse().ok().filter(|&i| i > 0)?;
                let v: f64 = v.parse().ok()?;
                Some((i - 1, v.to_bits()))
            })
            .collect();
        match (label, pairs) {
            (Some(label), Some(pairs)) => rows.push((label.to_bits(), pairs)),
            _ => return (rows, Some(Stop::Line(no))),
        }
    }
    (rows, None)
}

fn stop(result: Result<(), DatasetError>) -> Option<Stop> {
    match result {
        Ok(()) => None,
        Err(DatasetError::Parse { line_no, .. }) => Some(Stop::Line(line_no)),
        Err(DatasetError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidData => Some(Stop::Utf8),
        Err(e) => panic!("unexpected error {e}"),
    }
}

fn csv_read(bytes: &[u8], columns: Option<CsvColumns>) -> (Vec<Row>, Option<Stop>) {
    let mut rows = Vec::new();
    let result = for_each_csv_row(bytes, columns, |label, features| {
        rows.push(dense(label, features));
        Ok(())
    });
    (rows, stop(result))
}

fn libsvm_read(bytes: &[u8]) -> (Vec<Row>, Option<Stop>) {
    let mut rows = Vec::new();
    let result = for_each_libsvm_row(bytes, |_, label, indices, values| {
        let pairs = indices.iter().zip(values).map(|(&i, v)| (i, v.to_bits()));
        rows.push((label.to_bits(), pairs.collect()));
        Ok(())
    });
    (rows, stop(result))
}

#[test]
fn readers_match_the_naive_reference_on_fragment_soup() {
    let mut rng = StdRng::seed_from_u64(12);
    let columns = [
        None,
        Some(CsvColumns {
            label: 2,
            features: (1, 1),
        }),
    ];
    let mut rows_seen = 0;
    for case in 0..20_000 {
        let bytes = text(&mut rng);
        for columns in columns {
            let want = csv_reference(&bytes, columns);
            assert_eq!(csv_read(&bytes, columns), want, "case {case} csv {bytes:?}");
            rows_seen += want.0.len();
        }
        let want = libsvm_reference(&bytes);
        assert_eq!(libsvm_read(&bytes), want, "case {case} libsvm {bytes:?}");
        rows_seen += want.0.len();
    }
    // The soup must also produce rows, not only errors.
    assert!(rows_seen > 1_000, "only {rows_seen} rows read");
}
