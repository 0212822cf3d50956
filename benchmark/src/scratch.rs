//! Where the benchmark lives on disk, and its per-process scratch space.
//!
//! Everything a run writes goes under `benchmark/tmp/<pid>` (state dirs,
//! data dirs, CSV inputs, and — through `TMPDIR` — the spill files of the
//! out-of-core ingester) or `benchmark/results`. The scratch directory is
//! removed when the [`Scratch`] guard drops: on success, on a failed run,
//! and while a panic unwinds.

use std::path::{Path, PathBuf};

/// The `benchmark/` directory: `./benchmark` when run from the root of a
/// checkout (how the driver runs it), else where the package was built.
pub fn bench_dir() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        return std::fs::canonicalize(local).unwrap_or_else(|_| local.to_path_buf());
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `BENCHMARK.json`, beside the benchmark directory.
pub fn benchmark_json_path() -> PathBuf {
    bench_dir().join("..").join("BENCHMARK.json")
}

/// `benchmark/results`, created on demand.
pub fn results_dir() -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("results");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Owns `benchmark/tmp/<pid>`; dropping it removes the tree.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Create the directory and point `TMPDIR` at it, so
    /// `std::env::temp_dir()` — where the crates put spill files — stays
    /// inside the checkout. Call before any thread is spawned.
    pub fn create() -> std::io::Result<Self> {
        let root = bench_dir().join("tmp").join(std::process::id().to_string());
        // A stale tree under a recycled pid is not ours to trust.
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        std::env::set_var("TMPDIR", &root);
        Ok(Self { root })
    }

    /// The scratch root.
    pub fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
