//! The concurrent dataset layer behind an engine: a capped, LRU-evicting
//! catalog of registered in-memory datasets plus a memo of materialized
//! Table 2 registry analogs, shared by every verb of every concurrent job.
//!
//! Resolution through [`SharedResolver`] is `&self` and internally locked,
//! so many jobs can resolve the same name simultaneously; the resolved
//! [`PartitionedDataset`] values share their `Arc`ed partition storage, so
//! concurrent readers of `adult` all iterate the *same* physical rows —
//! no per-job clone, no per-job re-materialization.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset};

use crate::csv::CsvColumns;
use crate::registry;
use crate::source::{read_data_file, DataSource, FileFormat, SourceError};

/// A dataset pushed out of the registered-dataset catalog by a newer
/// registration (the catalog is capped; see [`SharedResolver::register`]).
#[derive(Debug, Clone)]
pub struct EvictedDataset {
    /// The name the dataset was registered under.
    pub name: String,
    /// The evicted dataset itself, so the caller can re-home it.
    pub dataset: PartitionedDataset,
}

/// A capped map with strict least-recently-used eviction.
///
/// Recency is a strictly increasing use counter bumped on every `get` and
/// `insert`, so the eviction order is fully deterministic: the entry whose
/// last use is oldest goes first, and ties are impossible.
#[derive(Debug)]
struct LruMap {
    cap: usize,
    tick: u64,
    entries: HashMap<String, (u64, PartitionedDataset)>,
}

impl LruMap {
    fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Clone the entry (O(1): partitions are `Arc`-shared) and mark it
    /// most recently used.
    fn get(&mut self, name: &str) -> Option<PartitionedDataset> {
        self.tick += 1;
        let (stamp, data) = self.entries.get_mut(name)?;
        *stamp = self.tick;
        Some(data.clone())
    }

    /// Insert (or replace) an entry as most recently used. When inserting
    /// a *new* name into a full map, the least-recently-used entry is
    /// evicted and returned.
    fn insert(&mut self, name: String, data: PartitionedDataset) -> Option<EvictedDataset> {
        self.tick += 1;
        let replacing = self.entries.contains_key(&name);
        let evicted = if !replacing && self.entries.len() >= self.cap {
            self.evict_lru()
        } else {
            None
        };
        self.entries.insert(name, (self.tick, data));
        evicted
    }

    /// Remove and return the least-recently-used entry.
    fn evict_lru(&mut self) -> Option<EvictedDataset> {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, (stamp, _))| *stamp)
            .map(|(k, _)| k.clone())?;
        self.entries
            .remove(&victim)
            .map(|(_, dataset)| EvictedDataset {
                name: victim,
                dataset,
            })
    }

    /// Change the cap, evicting (LRU-first) until the map fits it.
    /// Returns the evicted entries, oldest first.
    fn set_cap(&mut self, cap: usize) -> Vec<EvictedDataset> {
        self.cap = cap.max(1);
        let mut evicted = Vec::new();
        while self.entries.len() > self.cap {
            evicted.extend(self.evict_lru());
        }
        evicted
    }
}

/// Interior state of [`SharedResolver`], behind one mutex: the lock is
/// held only for map bookkeeping (clones are O(1)); file reads and analog
/// generation happen outside it.
#[derive(Debug)]
struct CatalogInner {
    /// User-registered in-memory datasets (capped; eviction surfaces).
    registered: LruMap,
    /// Materialized Table 2 analogs (capped; eviction is silent — an
    /// evicted analog is just re-generated on next use).
    analogs: LruMap,
}

/// The one dataset resolver: every engine verb of every concurrent job
/// resolves its [`DataSource`] here — registered in-memory datasets,
/// memoized Table 2 registry analogs, and CSV/LIBSVM files — behind
/// `&self`. A [`DataSource::Named`] name resolves in precedence order:
/// registered catalog, then Table 2 registry, then file on disk.
#[derive(Debug)]
pub struct SharedResolver {
    data_dir: PathBuf,
    registry_cap: usize,
    registry_seed: u64,
    cluster: ClusterSpec,
    inner: Mutex<CatalogInner>,
}

impl SharedResolver {
    /// Default cap on registered datasets (see
    /// [`SharedResolver::with_catalog_cap`]).
    pub const DEFAULT_CATALOG_CAP: usize = 64;

    /// A resolver reading files under `data_dir`, materializing registry
    /// analogs at `registry_cap` physical rows with `registry_seed`, and
    /// partitioning onto `cluster`.
    pub fn new(
        data_dir: impl Into<PathBuf>,
        registry_cap: usize,
        registry_seed: u64,
        cluster: ClusterSpec,
    ) -> Self {
        Self {
            data_dir: data_dir.into(),
            registry_cap,
            registry_seed,
            cluster,
            inner: Mutex::new(CatalogInner {
                registered: LruMap::new(Self::DEFAULT_CATALOG_CAP),
                analogs: LruMap::new(Self::DEFAULT_CATALOG_CAP),
            }),
        }
    }

    /// Cap the registered-dataset catalog at `cap` entries (min 1).
    /// Registering beyond the cap evicts in strict LRU order —
    /// least-recently-*used*, where both resolution and (re-)registration
    /// count as uses — and [`SharedResolver::register`] returns the
    /// evicted entry. Builder form of [`SharedResolver::set_catalog_cap`]
    /// (any entries a shrink pushes out are dropped).
    pub fn with_catalog_cap(mut self, cap: usize) -> Self {
        self.set_catalog_cap(cap);
        self
    }

    /// Change the registered-dataset cap in place, evicting (LRU-first)
    /// until the catalog fits it; the evicted entries are returned, oldest
    /// first. Registered datasets within the new cap are preserved.
    pub fn set_catalog_cap(&mut self, cap: usize) -> Vec<EvictedDataset> {
        self.inner
            .get_mut()
            .expect("catalog lock")
            .registered
            .set_cap(cap)
    }

    /// Point file resolution at a new base directory, in place. Registered
    /// datasets and memoized analogs are unaffected (neither depends on
    /// the data dir).
    pub fn set_data_dir(&mut self, dir: impl Into<PathBuf>) {
        self.data_dir = dir.into();
    }

    /// Change the registry-analog physical row cap, in place. The analog
    /// memo is cleared — entries materialized under the old cap have the
    /// wrong physical scale — while registered datasets are preserved.
    pub fn set_registry_cap(&mut self, cap: usize) {
        self.registry_cap = cap;
        let inner = self.inner.get_mut().expect("catalog lock");
        let analog_cap = inner.analogs.cap;
        inner.analogs = LruMap::new(analog_cap);
    }

    /// Base directory for relative file paths.
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Register an in-memory dataset under `name`, returning the entry the
    /// registration pushed out, if the catalog was at capacity. The evicted
    /// entry is always the least recently used one (deterministic; see
    /// [`SharedResolver::with_catalog_cap`]); re-registering an existing
    /// name replaces it in place and never evicts.
    pub fn register(
        &self,
        name: impl Into<String>,
        data: PartitionedDataset,
    ) -> Option<EvictedDataset> {
        self.inner
            .lock()
            .expect("catalog lock")
            .registered
            .insert(name.into(), data)
    }

    /// Resolve a source to a partitioned dataset. Registered and registry
    /// names are served from the shared catalog (one storage instance for
    /// every concurrent reader); files are read from disk on every call.
    pub fn resolve(&self, source: &DataSource) -> Result<PartitionedDataset, SourceError> {
        self.resolve_inner(source, None, PartitionScheme::RoundRobin)
    }

    /// Resolve a source for scoring: like [`SharedResolver::resolve`], but
    /// sparse LIBSVM files are padded to `dims_hint` (the model width) and
    /// file rows are partitioned contiguously so partition-major iteration
    /// preserves the file's row order (predictions stay in input order).
    pub fn resolve_for_predict(
        &self,
        source: &DataSource,
        dims_hint: Option<usize>,
    ) -> Result<PartitionedDataset, SourceError> {
        self.resolve_inner(source, dims_hint, PartitionScheme::Contiguous)
    }

    fn resolve_inner(
        &self,
        source: &DataSource,
        dims_hint: Option<usize>,
        file_scheme: PartitionScheme,
    ) -> Result<PartitionedDataset, SourceError> {
        match source {
            DataSource::InMemory(data) => Ok(data.clone()),
            DataSource::Registered(name) => self
                .inner
                .lock()
                .expect("catalog lock")
                .registered
                .get(name)
                .ok_or_else(|| SourceError::UnknownRegistered(name.clone())),
            DataSource::Registry(name) => self.resolve_registry(name),
            DataSource::File {
                path,
                format,
                columns,
            } => self.resolve_file(path, *format, *columns, dims_hint, file_scheme),
            // The `Named` precedence rule: registered catalog, then
            // Table 2 registry, then file on disk. The catalog check *and* lookup happen under one lock
            // acquisition, so a concurrent eviction between them cannot
            // turn a should-fall-through name into a spurious
            // `UnknownRegistered` error.
            DataSource::Named { name, columns } => {
                if let Some(hit) = self
                    .inner
                    .lock()
                    .expect("catalog lock")
                    .registered
                    .get(name)
                {
                    return Ok(hit);
                }
                if registry::by_name(name).is_some() {
                    return self.resolve_registry(name);
                }
                if !self.data_dir.join(name).is_file() {
                    return Err(SourceError::Unresolved(name.to_string()));
                }
                self.resolve_file(
                    Path::new(name),
                    FileFormat::Auto,
                    *columns,
                    dims_hint,
                    file_scheme,
                )
            }
        }
    }

    /// Serve a Table 2 analog from the memo, materializing it on first
    /// use. Generation happens outside the lock; if two jobs race on a
    /// cold name they generate the same (deterministic) rows and the
    /// second insert wins — later readers share one storage either way.
    fn resolve_registry(&self, name: &str) -> Result<PartitionedDataset, SourceError> {
        if let Some(hit) = self.inner.lock().expect("catalog lock").analogs.get(name) {
            return Ok(hit);
        }
        let spec = registry::by_name(name)
            .ok_or_else(|| SourceError::UnknownRegistry(name.to_string()))?;
        let built = spec.build(self.registry_cap, self.registry_seed, &self.cluster)?;
        self.inner
            .lock()
            .expect("catalog lock")
            .analogs
            .insert(name.to_string(), built.clone());
        Ok(built)
    }

    fn resolve_file(
        &self,
        path: &Path,
        format: FileFormat,
        columns: Option<CsvColumns>,
        dims_hint: Option<usize>,
        mut scheme: PartitionScheme,
    ) -> Result<PartitionedDataset, SourceError> {
        let rows = read_data_file(&self.data_dir, path, format, columns, dims_hint)?;
        let name = path.display().to_string();
        // An over-budget file (see `source::MEMORY_BUDGET_ENV`) comes back
        // memory-mapped: partition it into zero-copy contiguous windows
        // instead of re-dealing, which would copy it onto the heap. Mapped
        // datasets are therefore always contiguous — identical to the
        // predict scheme, and row-order-preserving either way.
        if rows.is_mapped() {
            scheme = PartitionScheme::Contiguous;
        }
        Ok(PartitionedDataset::from_columns(
            name,
            &rows,
            scheme,
            &self.cluster,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{dense_classification_columns, DenseClassConfig};

    fn points(n: usize, seed: u64) -> ml4all_dataflow::ColumnStore {
        dense_classification_columns(&DenseClassConfig {
            n,
            dims: 3,
            noise: 0.05,
            seed,
        })
    }

    fn mem(n: usize, seed: u64) -> PartitionedDataset {
        PartitionedDataset::from_columns(
            format!("mem-{seed}"),
            &points(n, seed),
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap()
    }

    fn resolver() -> SharedResolver {
        SharedResolver::new(".", 500, 7, ClusterSpec::paper_testbed())
    }

    #[test]
    fn registry_analogs_are_materialized_once_and_shared() {
        let r = resolver();
        let a = r.resolve(&DataSource::registry("adult")).unwrap();
        let b = r.resolve(&DataSource::named("adult")).unwrap();
        assert_eq!(
            a.storage_id(),
            b.storage_id(),
            "both readers share one materialized storage"
        );
        assert_eq!(a.physical_n(), 500);
    }

    #[test]
    fn eviction_is_strict_lru_and_returns_the_victim() {
        let r = resolver().with_catalog_cap(2);
        assert!(r.register("a", mem(10, 1)).is_none());
        assert!(r.register("b", mem(10, 2)).is_none());
        // Touch `a`: it becomes most recently used, so `b` is the victim.
        r.resolve(&DataSource::registered("a")).unwrap();
        let evicted = r.register("c", mem(10, 3)).expect("cap reached");
        assert_eq!(evicted.name, "b");
        assert_eq!(evicted.dataset.physical_n(), 10);
        assert!(r.resolve(&DataSource::registered("b")).is_err());
        assert!(r.resolve(&DataSource::registered("a")).is_ok());
        assert!(r.resolve(&DataSource::registered("c")).is_ok());
    }

    #[test]
    fn replacing_a_registered_name_never_evicts() {
        let r = resolver().with_catalog_cap(2);
        r.register("a", mem(10, 1));
        r.register("b", mem(10, 2));
        assert!(r.register("a", mem(20, 3)).is_none(), "in-place replace");
        assert_eq!(
            r.resolve(&DataSource::registered("a"))
                .unwrap()
                .physical_n(),
            20
        );
        assert!(r.resolve(&DataSource::registered("b")).is_ok());
    }

    #[test]
    fn registration_counts_as_use_for_lru_order() {
        let r = resolver().with_catalog_cap(2);
        r.register("a", mem(10, 1));
        r.register("b", mem(10, 2));
        // Re-registering `a` bumps it; `b` is now least recently used.
        r.register("a", mem(10, 1));
        let evicted = r.register("c", mem(10, 3)).unwrap();
        assert_eq!(evicted.name, "b");
    }

    #[test]
    fn shrinking_the_cap_evicts_down_in_lru_order() {
        let mut r = resolver();
        for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
            r.register(*name, mem(10, i as u64));
        }
        // Touch `a` and `c`: `b` and `d` are now the two oldest uses.
        r.resolve(&DataSource::registered("a")).unwrap();
        r.resolve(&DataSource::registered("c")).unwrap();
        let evicted = r.set_catalog_cap(2);
        let names: Vec<&str> = evicted.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["b", "d"], "oldest first");
        assert!(r.resolve(&DataSource::registered("a")).is_ok());
        assert!(r.resolve(&DataSource::registered("c")).is_ok());
        // The new cap is enforced from here on.
        let evicted = r.register("e", mem(10, 9)).expect("at cap");
        assert_eq!(evicted.name, "a");
    }

    #[test]
    fn set_registry_cap_invalidates_analogs_but_keeps_registrations() {
        let mut r = resolver();
        r.register("mine", mem(30, 4));
        let before = r.resolve(&DataSource::registry("adult")).unwrap();
        assert_eq!(before.physical_n(), 500);
        r.set_registry_cap(200);
        let after = r.resolve(&DataSource::registry("adult")).unwrap();
        assert_eq!(after.physical_n(), 200, "re-materialized at the new cap");
        assert_ne!(before.storage_id(), after.storage_id());
        assert_eq!(
            r.resolve(&DataSource::registered("mine"))
                .unwrap()
                .physical_n(),
            30,
            "registered datasets survive a registry-cap change"
        );
    }

    #[test]
    fn named_precedence_matches_the_serial_resolver() {
        let r = resolver();
        // Shadow the registry name with a registered dataset.
        r.register("adult", mem(40, 9));
        let got = r.resolve(&DataSource::named("adult")).unwrap();
        assert_eq!(got.physical_n(), 40);
        // The explicit registry variant bypasses the catalog.
        let got = r.resolve(&DataSource::registry("adult")).unwrap();
        assert_eq!(got.physical_n(), 500);
        // Unknown names error by variant.
        assert!(matches!(
            r.resolve(&DataSource::named("nope.csv")).unwrap_err(),
            SourceError::Unresolved(_)
        ));
        assert!(matches!(
            r.resolve(&DataSource::registry("mnist")).unwrap_err(),
            SourceError::UnknownRegistry(_)
        ));
    }

    #[test]
    fn predict_resolution_preserves_file_row_order() {
        let dir = std::env::temp_dir().join(format!("ml4all-catalog-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Labels encode the row index, features spread across partitions.
        let mut body = String::new();
        for i in 0..100 {
            body.push_str(&format!("{i},0.5,{}\n", i as f64 / 100.0));
        }
        std::fs::write(dir.join("ordered.csv"), body).unwrap();
        let r = SharedResolver::new(&dir, 500, 7, ClusterSpec::paper_testbed());
        let data = r
            .resolve_for_predict(&DataSource::named("ordered.csv"), None)
            .unwrap();
        let labels: Vec<f64> = data.iter_views().map(|v| v.label).collect();
        let expect: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(labels, expect, "partition-major order is file order");
        let _ = std::fs::remove_dir_all(dir);
    }
}
