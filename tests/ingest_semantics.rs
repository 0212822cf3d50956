//! Ingest-semantics golden: what the CSV and LIBSVM readers hand back —
//! every row as `f64` bits, or the error — for inputs at the edges of the
//! text formats, through every read shape the readers meet: one whole
//! read, a reader returning 1…7 bytes per read, the format sniff, and the
//! spilling path that streams an over-budget file into a mapped slab.
//! Line splitting, UTF-8 checking, trimming and float parsing are the
//! contract here, not any one implementation of them. Regenerate with
//! `UPDATE_GOLDEN=1` only after an intended change of semantics.

use std::fmt::Write as _;
use std::io::Read;
use std::path::{Path, PathBuf};

use ml4all_bench::golden::assert_golden;
use ml4all_dataflow::ColumnStore;
use ml4all_datasets::csv::{for_each_csv_row, CsvColumns};
use ml4all_datasets::libsvm::for_each_libsvm_row;
use ml4all_datasets::source::read_data_file_with_budget;
use ml4all_datasets::FileFormat;
use ml4all_linalg::FeatureView;

/// Rows listed value by value up to this width; wider rows print a count
/// and a hash of their bits.
const LISTED: usize = 12;

/// A reader handing out at most `step` bytes per `read` call.
struct Trickle<'a> {
    rest: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn dense_row(label: f64, features: &[f64]) -> String {
    let mut s = format!("{:016x} [", label.to_bits());
    if features.len() <= LISTED {
        let bits: Vec<String> = features
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        s.push_str(&bits.join(" "));
    } else {
        let h = fnv(features.iter().map(|v| v.to_bits()));
        let _ = write!(s, "{} values, fnv {h:016x}", features.len());
    }
    s.push(']');
    s
}

fn sparse_row(label: f64, indices: &[u32], values: &[f64]) -> String {
    let mut s = format!("{:016x} [", label.to_bits());
    if indices.len() <= LISTED {
        let pairs: Vec<String> = indices
            .iter()
            .zip(values)
            .map(|(i, v)| format!("{i}:{:016x}", v.to_bits()))
            .collect();
        s.push_str(&pairs.join(" "));
    } else {
        let h = fnv(indices
            .iter()
            .zip(values)
            .flat_map(|(&i, v)| [u64::from(i), v.to_bits()]));
        let _ = write!(s, "{} entries, fnv {h:016x}", indices.len());
    }
    s.push(']');
    s
}

fn store_rows(store: &ColumnStore) -> String {
    let mut out = format!("  dims {}\n", store.dims());
    for v in store.iter() {
        let row = match v.features {
            FeatureView::Dense(values) => dense_row(v.label, values),
            FeatureView::Sparse {
                indices, values, ..
            } => sparse_row(v.label, indices, values),
        };
        let _ = writeln!(out, "  {row}");
    }
    out
}

fn outcome<E: std::fmt::Display>(mut rows: String, result: Result<(), E>) -> String {
    match result {
        Ok(()) => rows.push_str("  ok\n"),
        Err(e) => {
            let _ = writeln!(rows, "  error: {e}");
        }
    }
    rows
}

#[derive(Clone, Copy)]
enum Format {
    Csv(Option<CsvColumns>),
    LibSvm,
}

impl Format {
    fn name(self) -> String {
        match self {
            Self::Csv(None) => "csv".into(),
            Self::Csv(Some(c)) => format!(
                "csv label {} features {}-{}",
                c.label, c.features.0, c.features.1
            ),
            Self::LibSvm => "libsvm".into(),
        }
    }

    fn file_format(self) -> FileFormat {
        match self {
            Self::Csv(_) => FileFormat::Csv,
            Self::LibSvm => FileFormat::LibSvm,
        }
    }

    fn columns(self) -> Option<CsvColumns> {
        match self {
            Self::Csv(c) => c,
            Self::LibSvm => None,
        }
    }

    /// Rows from a reader through the streaming row primitive.
    fn stream(self, reader: impl Read) -> String {
        let mut rows = String::new();
        let result = match self {
            Self::Csv(columns) => for_each_csv_row(reader, columns, |label, features| {
                let _ = writeln!(rows, "  {}", dense_row(label, features));
                Ok(())
            }),
            Self::LibSvm => for_each_libsvm_row(reader, |line_no, label, indices, values| {
                let _ = writeln!(rows, "  {line_no}: {}", sparse_row(label, indices, values));
                Ok(())
            }),
        };
        outcome(rows, result)
    }

    /// Rows from a file through the resolver's ingestion routine.
    fn file(self, dir: &Path, name: &str, format: FileFormat, budget: Option<u64>) -> String {
        match read_data_file_with_budget(dir, Path::new(name), format, self.columns(), None, budget)
        {
            Ok(store) => {
                let mapped = if store.is_mapped() { "  mapped\n" } else { "" };
                outcome(
                    format!("{mapped}{}", store_rows(&store)),
                    Ok::<(), String>(()),
                )
            }
            Err(e) => outcome(String::new(), Err(e)),
        }
    }
}

fn csv_cases() -> Vec<(&'static str, Vec<u8>)> {
    let mut long = String::from("1");
    for k in 0..10_000 {
        let _ = write!(long, ",{}", (k % 17) as f64 * 0.0625);
    }
    long.push_str("\n-1");
    for _ in 0..10_000 {
        long.push_str(",0.5");
    }
    long.push('\n');
    vec![
        ("crlf", b"1,2,3\r\n-1,0.5,0.25\r\n".to_vec()),
        ("no final newline", b"1,2,3\n-1,4,5".to_vec()),
        (
            "blank and comment lines",
            b"# header\n\n   \n1,2,3\n  # indented comment\n\t\n-1,4,5\n".to_vec(),
        ),
        (
            "nbsp and tabs around tokens",
            "\u{a0}1\t,\t2\u{a0},\u{a0} 3\t\n-1 ,\u{a0}4,5\u{a0}\n"
                .as_bytes()
                .to_vec(),
        ),
        (
            "signs exponents specials",
            b"+1,1e-5,-0\n-1,inf,NaN\n1,-inf,1E+3\n-1,.5,5.\n".to_vec(),
        ),
        ("empty field", b"1,2,3\n1,,3\n".to_vec()),
        ("trailing comma", b"1,2,3\n1,2,\n".to_vec()),
        (
            "invalid utf8 on line 3",
            b"1,2,3\n-1,4,5\n1,\xff,6\n1,7,8\n".to_vec(),
        ),
        (
            "invalid utf8 in a comment",
            b"1,2,3\n# caf\xe9\n-1,4,5\n".to_vec(),
        ),
        ("carriage return only", b"1,2,3\r-1,4,5\r".to_vec()),
        ("single column", b"5\n".to_vec()),
        ("empty", Vec::new()),
        ("line longer than the read buffer", long.into_bytes()),
    ]
}

fn libsvm_cases() -> Vec<(&'static str, Vec<u8>)> {
    let mut long = String::from("1");
    for i in 1..=9_000 {
        let _ = write!(long, " {i}:0.5");
    }
    long.push_str("\n-1 3:1\n");
    vec![
        ("crlf", b"+1 1:0.5 3:2\r\n-1 2:1\r\n".to_vec()),
        ("no final newline", b"1 1:1\n-1 2:2".to_vec()),
        (
            "blank and comment lines",
            b"# header\n\n  \n1 1:1\n # indented\n-1 2:2\n".to_vec(),
        ),
        (
            "nbsp and tabs around tokens",
            "\u{a0}1\u{a0}1:0.5\t2:3\t\n-1\t\t4:1\n".as_bytes().to_vec(),
        ),
        (
            "signs exponents specials",
            b"+1 1:1e-5 2:-0 3:inf 4:NaN\n-1 1:+2 2:1E+3\n".to_vec(),
        ),
        ("label-only row", b"1\n-1 2:0.5\n".to_vec()),
        ("token without colon", b"1 1:1\n1 2\n".to_vec()),
        ("zero index", b"1 1:1\n1 0:5\n".to_vec()),
        ("unsorted indices", b"1 1:1\n1 3:1 2:1\n".to_vec()),
        ("empty value", b"1 1:\n".to_vec()),
        (
            "invalid utf8 on line 3",
            b"1 1:1\n-1 2:2\n1 3:\xff\n1 4:4\n".to_vec(),
        ),
        ("empty", Vec::new()),
        ("line longer than the read buffer", long.into_bytes()),
    ]
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ml4all-ingest-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Every read shape of one case; shapes that agree with the whole read
/// say so instead of repeating it.
fn render_case(out: &mut String, dir: &Path, format: Format, name: &str, bytes: &[u8]) {
    let _ = writeln!(out, "== {} / {name}", format.name());
    let whole = format.stream(bytes);
    let _ = write!(out, "whole read\n{whole}");
    for step in 1..=7 {
        let got = format.stream(Trickle { rest: bytes, step });
        if got == whole {
            let _ = writeln!(out, "{step}-byte reads: same");
        } else {
            let _ = write!(out, "{step}-byte reads\n{got}");
        }
    }
    // A leading comment line pushes the file over the 1 KiB budget, so
    // the spilling ingester takes it (every line number moves down one).
    let spilled = "spilled.txt";
    let mut padded = format!("#{}\n", "x".repeat(1100)).into_bytes();
    padded.extend_from_slice(bytes);
    std::fs::write(dir.join(spilled), &padded).expect("write spilled case");
    let _ = write!(
        out,
        "spilled (budget 1024, one leading comment line)\n{}",
        format.file(dir, spilled, format.file_format(), Some(1024))
    );
    // The sniff: a label-only first row is the one case where it is not
    // part of this contract (see the regression test in `source.rs`).
    if name != "label-only row" {
        let sniffed = "sniffed.txt";
        std::fs::write(dir.join(sniffed), bytes).expect("write sniffed case");
        let _ = write!(
            out,
            "sniffed (format auto, in memory)\n{}",
            format.file(dir, sniffed, FileFormat::Auto, None)
        );
    }
}

#[test]
fn ingest_semantics_golden() {
    let dir = scratch_dir();
    let mut out = String::new();
    let csv_formats = [
        Format::Csv(None),
        Format::Csv(Some(CsvColumns {
            label: 2,
            features: (1, 1),
        })),
    ];
    for format in csv_formats {
        for (name, bytes) in csv_cases() {
            render_case(&mut out, &dir, format, name, &bytes);
        }
    }
    for (name, bytes) in libsvm_cases() {
        render_case(&mut out, &dir, Format::LibSvm, name, &bytes);
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_golden("ingest_semantics.txt", &out);
}
