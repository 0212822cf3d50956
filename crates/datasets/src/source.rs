//! The first-class [`DataSource`] abstraction and its single resolver.
//!
//! Every front door of the system — typed `TrainRequest`s, `predict`
//! requests, the `explain` path, and the Appendix A statements — names its
//! input as a `DataSource` and resolves it through
//! [`SharedResolver`](crate::catalog::SharedResolver), so registered
//! in-memory datasets, Table 2 registry analogs, and LIBSVM/CSV files
//! behave identically everywhere.

use std::path::{Path, PathBuf};

use ml4all_dataflow::slab::{fresh_spill_dir, SlabError, SpillingBuilder};
use ml4all_dataflow::{ColumnStore, PartitionedDataset};

use crate::csv::{for_each_csv_row, read_csv_file_columns, CsvColumns};
use crate::libsvm::{for_each_libsvm_row, read_libsvm_file_columns};
use crate::lines::Lines;
use crate::DatasetError;

/// Environment variable bounding ingestion memory: when a data file is
/// larger than this many bytes (suffixes `k`/`m`/`g` accepted), it is
/// streamed through a spilling builder into a memory-mapped slab instead
/// of being materialized on the heap. Unset (the default) means
/// everything loads in memory.
pub const MEMORY_BUDGET_ENV: &str = "ML4ALL_MEMORY_BUDGET";

/// On-disk file format of a [`DataSource::File`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FileFormat {
    /// Sniff the format: a LIBSVM line has `idx:val` tokens; CSV does not.
    #[default]
    Auto,
    /// Comma-separated numeric rows.
    Csv,
    /// LIBSVM sparse rows (`label idx:val …`).
    LibSvm,
}

/// Where training or test data comes from.
#[derive(Debug, Clone)]
pub enum DataSource {
    /// A name resolved in precedence order: session-registered in-memory
    /// dataset, then Table 2 registry analog, then file on disk — the
    /// interpretation the declarative language uses for `on <dataset>`.
    Named {
        /// The dataset name or path as written.
        name: String,
        /// Optional CSV column selection (`file:2, file:4-20`).
        columns: Option<CsvColumns>,
    },
    /// Only a session-registered in-memory dataset.
    Registered(String),
    /// Only a Table 2 registry analog (`adult`, `covtype`, …).
    Registry(String),
    /// A data file on disk, resolved relative to the session's data dir.
    File {
        /// File path.
        path: PathBuf,
        /// Format, or [`FileFormat::Auto`] to sniff.
        format: FileFormat,
        /// Optional CSV column selection.
        columns: Option<CsvColumns>,
    },
    /// Data handed over directly, bypassing any catalog.
    InMemory(PartitionedDataset),
}

impl DataSource {
    /// A [`DataSource::Named`] source without column selection.
    pub fn named(name: impl Into<String>) -> Self {
        Self::Named {
            name: name.into(),
            columns: None,
        }
    }

    /// A session-registered in-memory source.
    pub fn registered(name: impl Into<String>) -> Self {
        Self::Registered(name.into())
    }

    /// A Table 2 registry source.
    pub fn registry(name: impl Into<String>) -> Self {
        Self::Registry(name.into())
    }

    /// A file source with format sniffing.
    pub fn file(path: impl Into<PathBuf>) -> Self {
        Self::File {
            path: path.into(),
            format: FileFormat::Auto,
            columns: None,
        }
    }

    /// Attach a CSV column selection (`Named` and `File` sources only;
    /// other variants ignore it).
    pub fn with_columns(mut self, selection: CsvColumns) -> Self {
        match &mut self {
            Self::Named { columns, .. } | Self::File { columns, .. } => {
                *columns = Some(selection);
            }
            _ => {}
        }
        self
    }
}

impl From<&str> for DataSource {
    fn from(name: &str) -> Self {
        Self::named(name)
    }
}

impl From<String> for DataSource {
    fn from(name: String) -> Self {
        Self::named(name)
    }
}

impl From<PartitionedDataset> for DataSource {
    fn from(data: PartitionedDataset) -> Self {
        Self::InMemory(data)
    }
}

/// Errors from resolving a [`DataSource`].
#[derive(Debug)]
pub enum SourceError {
    /// A [`DataSource::Named`] source matched nothing: not registered, not
    /// a registry name, and no file at the path.
    Unresolved(String),
    /// A [`DataSource::Registered`] source names nothing in the catalog.
    UnknownRegistered(String),
    /// A [`DataSource::Registry`] source names no Table 2 dataset.
    UnknownRegistry(String),
    /// The file exists but could not be read or parsed.
    Dataset(DatasetError),
    /// Substrate failure while partitioning.
    Dataflow(ml4all_dataflow::DataflowError),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unresolved(name) => write!(
                f,
                "`{name}` is not a registered dataset, a Table 2 registry name, \
                 or a readable file"
            ),
            Self::UnknownRegistered(name) => {
                write!(f, "no dataset registered under `{name}`")
            }
            Self::UnknownRegistry(name) => {
                write!(f, "`{name}` is not a Table 2 registry dataset")
            }
            Self::Dataset(e) => write!(f, "{e}"),
            Self::Dataflow(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<DatasetError> for SourceError {
    fn from(e: DatasetError) -> Self {
        Self::Dataset(e)
    }
}

impl From<ml4all_dataflow::DataflowError> for SourceError {
    fn from(e: ml4all_dataflow::DataflowError) -> Self {
        Self::Dataflow(e)
    }
}

/// Parse a memory-budget string: raw bytes, or a number with a
/// case-insensitive `k`/`m`/`g` suffix (`"512m"` → 512 MiB). Returns
/// `None` for anything unparseable.
pub fn parse_memory_budget(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'm' | b'M' => (&s[..s.len() - 1], 1 << 20),
        b'g' | b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits
        .trim()
        .parse::<u64>()
        .ok()
        .map(|v| v.saturating_mul(mult))
}

/// The ingestion memory budget configured via [`MEMORY_BUDGET_ENV`], if
/// any.
pub fn memory_budget_from_env() -> Option<u64> {
    std::env::var(MEMORY_BUDGET_ENV)
        .ok()
        .and_then(|v| parse_memory_budget(&v))
}

/// Read a data file into columnar rows: sniff the format when `Auto`, then
/// parse CSV (with optional column selection) or LIBSVM (with optional
/// dimensionality hint, padding sparse rows to a model width). The single
/// file-ingestion routine behind [`crate::catalog::SharedResolver`];
/// honours [`MEMORY_BUDGET_ENV`].
pub fn read_data_file(
    data_dir: &Path,
    path: &Path,
    format: FileFormat,
    columns: Option<CsvColumns>,
    dims_hint: Option<usize>,
) -> Result<ColumnStore, SourceError> {
    read_data_file_with_budget(
        data_dir,
        path,
        format,
        columns,
        dims_hint,
        memory_budget_from_env(),
    )
}

/// [`read_data_file`] with an explicit memory budget. A file whose on-disk
/// size exceeds `budget` bytes is streamed row-by-row through a
/// [`SpillingBuilder`] and comes back as a memory-mapped [`ColumnStore`]
/// ([`ColumnStore::is_mapped`] is `true`); peak heap usage stays bounded
/// by the budget however large the file. Under-budget files (or
/// `budget: None`) load in memory exactly as before. The two paths
/// produce bit-identical rows in identical order.
pub fn read_data_file_with_budget(
    data_dir: &Path,
    path: &Path,
    format: FileFormat,
    columns: Option<CsvColumns>,
    dims_hint: Option<usize>,
    budget: Option<u64>,
) -> Result<ColumnStore, SourceError> {
    let path = data_dir.join(path);
    let format = match format {
        FileFormat::Auto => {
            if looks_like_libsvm(&path).map_err(DatasetError::Io)? {
                FileFormat::LibSvm
            } else {
                FileFormat::Csv
            }
        }
        other => other,
    };
    if let Some(budget) = budget {
        let file_len = std::fs::metadata(&path).map_err(DatasetError::Io)?.len();
        if file_len > budget {
            return read_spilled(&path, format, columns, dims_hint, budget);
        }
    }
    match format {
        FileFormat::LibSvm => Ok(read_libsvm_file_columns(&path, dims_hint)?),
        _ => Ok(read_csv_file_columns(&path, columns)?),
    }
}

/// Carry a slab failure across the [`DatasetError`] boundary (its row
/// variant is handled separately, where a line number is known).
fn slab_err(e: SlabError) -> DatasetError {
    match e {
        SlabError::Io(io) => DatasetError::Io(io),
        other => DatasetError::Io(std::io::Error::other(other.to_string())),
    }
}

/// Stream a file through a [`SpillingBuilder`] into a memory-mapped slab.
fn read_spilled(
    path: &Path,
    format: FileFormat,
    columns: Option<CsvColumns>,
    dims_hint: Option<usize>,
    budget: u64,
) -> Result<ColumnStore, SourceError> {
    let mut sb = SpillingBuilder::new(fresh_spill_dir(), budget).map_err(slab_err)?;
    let file = std::fs::File::open(path).map_err(DatasetError::Io)?;
    match format {
        FileFormat::LibSvm => for_each_libsvm_row(file, |line_no, label, indices, values| {
            sb.push_sparse(label, indices, values).map_err(|e| match e {
                SlabError::Row(le) => DatasetError::Parse {
                    line_no,
                    reason: le.to_string(),
                },
                other => slab_err(other),
            })
        })?,
        _ => for_each_csv_row(file, columns, |label, features| {
            sb.push_dense(label, features).map_err(slab_err)
        })?,
    }
    Ok(sb.finish(dims_hint.unwrap_or(0)).map_err(slab_err)?)
}

/// Sniff the file format from the first ten lines: a LIBSVM line has
/// `idx:val` tokens; CSV does not. A label-only line (a LIBSVM point with
/// no stored feature) decides nothing, so the sniff keeps looking.
fn looks_like_libsvm(path: &Path) -> Result<bool, std::io::Error> {
    let mut lines = Lines::new(std::fs::File::open(path)?);
    while let Some((line_no, line)) = lines.next_line()? {
        let trimmed = line.trim();
        if !trimmed.is_empty() && !trimmed.starts_with('#') {
            let mut tokens = trimmed.split_whitespace();
            let label = tokens.next().unwrap_or_default();
            let mut rest = tokens.peekable();
            if rest.peek().is_some() || label.parse::<f64>().is_err() {
                return Ok(rest.any(|t| t.contains(':')));
            }
        }
        if line_no == 10 {
            break;
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::SharedResolver;
    use crate::synth::{dense_classification_columns, DenseClassConfig};
    use ml4all_dataflow::{ClusterSpec, ColumnStore, ColumnarBuilder, PartitionScheme};
    use ml4all_linalg::PointView;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ml4all-source-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn points(n: usize) -> ColumnStore {
        dense_classification_columns(&DenseClassConfig {
            n,
            dims: 3,
            noise: 0.05,
            seed: 9,
        })
    }

    fn resolver(dir: &Path, cluster: &ClusterSpec) -> SharedResolver {
        SharedResolver::new(dir, 500, 7, cluster.clone())
    }

    #[test]
    fn named_resolution_prefers_registered_over_registry() {
        let cluster = ClusterSpec::paper_testbed();
        let dir = tmp_dir("precedence");
        let r = resolver(&dir, &cluster);
        // Shadow the registry name `adult` with a tiny in-memory dataset.
        let mine = PartitionedDataset::from_columns(
            "mine",
            &points(40),
            PartitionScheme::RoundRobin,
            &cluster,
        )
        .unwrap();
        r.register("adult", mine);
        let got = r.resolve(&DataSource::named("adult")).unwrap();
        assert_eq!(got.physical_n(), 40);
        // The explicit Registry variant bypasses the catalog.
        let got = r.resolve(&DataSource::registry("adult")).unwrap();
        assert_eq!(got.descriptor().n, 100_827);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn named_falls_through_to_registry_then_file() {
        let cluster = ClusterSpec::paper_testbed();
        let dir = tmp_dir("fallthrough");
        let r = resolver(&dir, &cluster);
        // Registry hit.
        let got = r.resolve(&DataSource::named("covtype")).unwrap();
        assert_eq!(got.descriptor().n, 581_012);
        // File hit.
        crate::csv::write_csv(
            std::fs::File::create(dir.join("f.csv")).unwrap(),
            &points(25).to_points(),
        )
        .unwrap();
        let got = r.resolve(&DataSource::named("f.csv")).unwrap();
        assert_eq!(got.physical_n(), 25);
        // Nothing.
        let err = r.resolve(&DataSource::named("nope.csv")).unwrap_err();
        assert!(matches!(err, SourceError::Unresolved(_)));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resolve_points_covers_every_variant() {
        let cluster = ClusterSpec::paper_testbed();
        let dir = tmp_dir("points");
        let r = resolver(&dir, &cluster);
        let data = PartitionedDataset::from_columns(
            "reg",
            &points(30),
            PartitionScheme::RoundRobin,
            &cluster,
        )
        .unwrap();
        r.register("reg", data.clone());
        let scored = |source: &DataSource, dims_hint: Option<usize>| {
            r.resolve_for_predict(source, dims_hint).unwrap()
        };

        assert_eq!(
            scored(&DataSource::registered("reg"), None).physical_n(),
            30
        );
        assert_eq!(scored(&DataSource::InMemory(data), None).physical_n(), 30);
        assert_eq!(
            scored(&DataSource::registry("adult"), None).physical_n(),
            500
        );
        crate::libsvm::write_libsvm(
            std::fs::File::create(dir.join("p.libsvm")).unwrap(),
            &points(12).to_points(),
        )
        .unwrap();
        let pts = scored(&DataSource::file("p.libsvm"), Some(3));
        assert_eq!(pts.physical_n(), 12);
        assert_eq!(pts.view(0, 0).unwrap().dim(), 3);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unknown_names_error_by_variant() {
        let cluster = ClusterSpec::paper_testbed();
        let dir = tmp_dir("unknown");
        let r = resolver(&dir, &cluster);
        assert!(matches!(
            r.resolve(&DataSource::registered("ghost")).unwrap_err(),
            SourceError::UnknownRegistered(_)
        ));
        assert!(matches!(
            r.resolve(&DataSource::registry("mnist")).unwrap_err(),
            SourceError::UnknownRegistry(_)
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn memory_budget_parses_bytes_and_suffixes() {
        assert_eq!(parse_memory_budget("4096"), Some(4096));
        assert_eq!(parse_memory_budget("2k"), Some(2048));
        assert_eq!(parse_memory_budget(" 3M "), Some(3 << 20));
        assert_eq!(parse_memory_budget("1g"), Some(1 << 30));
        assert_eq!(parse_memory_budget("1G"), Some(1 << 30));
        assert_eq!(parse_memory_budget(""), None);
        assert_eq!(parse_memory_budget("lots"), None);
        assert_eq!(parse_memory_budget("-1"), None);
    }

    #[test]
    fn over_budget_files_come_back_mapped_with_identical_rows() {
        let dir = tmp_dir("budget-read");
        let rows = points(400);
        let pts = rows.to_points();
        crate::csv::write_csv(std::fs::File::create(dir.join("big.csv")).unwrap(), &pts).unwrap();
        crate::libsvm::write_libsvm(std::fs::File::create(dir.join("big.libsvm")).unwrap(), &pts)
            .unwrap();
        for (file, dims_hint) in [("big.csv", None), ("big.libsvm", Some(3))] {
            let in_mem = read_data_file_with_budget(
                &dir,
                Path::new(file),
                FileFormat::Auto,
                None,
                dims_hint,
                None,
            )
            .unwrap();
            let mapped = read_data_file_with_budget(
                &dir,
                Path::new(file),
                FileFormat::Auto,
                None,
                dims_hint,
                Some(1024),
            )
            .unwrap();
            assert!(!in_mem.is_mapped(), "{file}");
            assert!(mapped.is_mapped(), "{file}");
            assert_eq!(mapped.dims(), in_mem.dims(), "{file}");
            assert_eq!(mapped.to_points(), in_mem.to_points(), "{file}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn under_budget_files_stay_in_memory() {
        let dir = tmp_dir("budget-small");
        crate::csv::write_csv(
            std::fs::File::create(dir.join("small.csv")).unwrap(),
            &points(10).to_points(),
        )
        .unwrap();
        let rows = read_data_file_with_budget(
            &dir,
            Path::new("small.csv"),
            FileFormat::Auto,
            None,
            None,
            Some(1 << 30),
        )
        .unwrap();
        assert!(!rows.is_mapped());
        assert_eq!(rows.len(), 10);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn budget_env_resolves_files_into_mapped_window_partitions() {
        let cluster = ClusterSpec::paper_testbed();
        let dir = tmp_dir("budget-resolve");
        crate::csv::write_csv(
            std::fs::File::create(dir.join("big.csv")).unwrap(),
            &points(300).to_points(),
        )
        .unwrap();
        let r = resolver(&dir, &cluster);
        std::env::set_var(MEMORY_BUDGET_ENV, "1k");
        let resolved = r.resolve(&DataSource::named("big.csv"));
        std::env::remove_var(MEMORY_BUDGET_ENV);
        let mapped = resolved.unwrap();
        assert!(mapped.partitions().iter().all(ColumnStore::is_mapped));
        assert_eq!(mapped.scheme(), PartitionScheme::Contiguous);
        // Row-for-row identical (content and fingerprint) to an owned
        // contiguously-partitioned dataset over the same file.
        let rows =
            read_data_file(&dir, Path::new("big.csv"), FileFormat::Auto, None, None).unwrap();
        assert!(!rows.is_mapped());
        let owned = PartitionedDataset::from_columns(
            "big.csv",
            &rows,
            PartitionScheme::Contiguous,
            &cluster,
        )
        .unwrap();
        assert!(mapped.iter_views().eq(owned.iter_views()));
        assert_eq!(mapped.fingerprint(), owned.fingerprint());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn libsvm_output_with_an_all_zero_first_row_reads_back_through_the_sniff() {
        let cluster = ClusterSpec::paper_testbed();
        let dir = tmp_dir("label-only");
        let src = points(6);
        let (labels, values, _) = src.as_dense().unwrap();
        let mut b = ColumnarBuilder::new();
        for (i, (&label, row)) in labels.iter().zip(values.chunks(3)).enumerate() {
            b.push_dense(label, if i == 0 { &[0.0; 3] } else { row });
        }
        let pts = b.finish();
        crate::libsvm::write_libsvm(
            std::fs::File::create(dir.join("z.libsvm")).unwrap(),
            &pts.to_points(),
        )
        .unwrap();
        let text = std::fs::read_to_string(dir.join("z.libsvm")).unwrap();
        assert!(!text.lines().next().unwrap().contains(':'), "{text}");
        let rows =
            read_data_file(&dir, Path::new("z.libsvm"), FileFormat::Auto, None, Some(3)).unwrap();
        assert_eq!(rows.as_csr().map(|_| rows.len()), Some(6));
        let resolved = resolver(&dir, &cluster)
            .resolve_for_predict(&DataSource::file("z.libsvm"), Some(3))
            .unwrap();
        let dense = |p: PointView<'_>| {
            let mut values = Vec::new();
            p.features.write_dense(&mut values);
            (p.label, values)
        };
        assert!(resolved
            .iter_views_input_order()
            .map(dense)
            .eq(pts.iter().map(dense)));
        // A single-column CSV still reads as CSV (and is refused as one).
        std::fs::write(dir.join("one.csv"), "5\n6\n").unwrap();
        let err = read_data_file(&dir, Path::new("one.csv"), FileFormat::Auto, None, None);
        assert!(
            err.unwrap_err().to_string().contains("need a label"),
            "single-column CSV"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn column_selection_applies_to_named_files() {
        let cluster = ClusterSpec::paper_testbed();
        let dir = tmp_dir("columns");
        std::fs::write(dir.join("c.csv"), "9,1,7,0.5,0.25\n9,-1,7,0.1,0.9\n").unwrap();
        let r = resolver(&dir, &cluster);
        let src = DataSource::named("c.csv").with_columns(CsvColumns {
            label: 2,
            features: (4, 5),
        });
        let pts = r.resolve_for_predict(&src, None).unwrap();
        assert_eq!(pts.physical_n(), 2);
        let first = pts.iter_views_input_order().next().unwrap();
        assert_eq!(first.label, 1.0);
        assert_eq!(first.dim(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }
}
