//! The state directory: its layout, what an engine reloads from it, and
//! the one writer every file under it goes through except the models.
//!
//! ```text
//! DIR/
//!   plancache.json          # the optimizer's memoized decisions
//!   calibration.json        # the fitted cost-model profile
//!   models/<hex>.txt        # bound models, filename = hex(UTF-8 result name)
//!   checkpoints/<key>.ckpt  # one per interrupted job
//! ```
//!
//! A job never waits on an fsync it does not need. [`StateWriter`] keeps
//! one latest-wins slot per file: a checkpoint is offered as the captured
//! [`ExecState`], and the plan cache and the calibration profile as their
//! in-memory exports; the writer serializes a slot only when it gets to
//! it. A superseded or spent state is never encoded or written.
//! A drain task in its own runtime lane empties the slots: it is spawned
//! when work arrives and no drain is active, and exits when the slots are
//! empty. Every file still goes through [`atomic_write`], so after a crash
//! each file is its previous complete version or its new complete one.
//!
//! The rules that keep the engine's contracts:
//!
//! - *Whoever waits, writes.* Nothing blocks on a drain that has not
//!   started: a caller that needs a queued write done takes it and writes
//!   it on its own thread, and only a write already running is waited
//!   for. A 1-worker pool, or a last drop inside a pool worker, cannot
//!   deadlock. The drain holds the writer's state, never the engine.
//! - *Staleness bound.* A job that offers checkpoint k while its k−1 is
//!   still queued writes k itself (after a write of the file already in
//!   flight) and drops k−1. The checkpoint on disk or being written is
//!   therefore at most one interval behind the newest one offered, even
//!   when every worker is busy or the drain is stuck on a slow disk.
//! - *Completion spends* ([`JobCheckpoint::spend`]): the queued
//!   checkpoint is dropped, a write of it in flight is awaited, and the
//!   file is removed. A checkpoint taken at the job's iteration cap is
//!   dropped when offered: the run stops there, so it could only be spent
//!   (a cancel landing on that same boundary keeps the one before it).
//! - *Cancel and `wall_limit` keep* ([`JobCheckpoint::keep`]): the latest
//!   offered checkpoint is on disk before the job reports.
//! - *A refit is durable when its job returns*
//!   ([`StateWriter::settle_calibration`]): the profile's write overlaps
//!   the model's.
//! - *Last drop syncs*: dropping the writer — the engine's last clone —
//!   flushes every slot, as [`StateWriter::sync`] does.
//!
//! Model files do not come through here: `Joined` promises a persisted
//! model, so the engine writes them synchronously.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use ml4all_calibrate::{profile_path, save_snapshot, Calibrator, CalibratorConfig};
use ml4all_core::calibration::CalibrationSnapshot;
use ml4all_core::plancache::{PlanCache, PlanCacheEntry, PlanCacheKey};
use ml4all_dataflow::checkpoint::{fnv1a64, read_checkpoint, write_checkpoint, Checkpoint};
use ml4all_dataflow::{atomic_write, CheckpointError, ExecState, Runtime, RNG_STREAM_VERSION};
use ml4all_gd::GdPlan;

use crate::model::Model;
use crate::SessionError;

/// The runtime lane the drain task runs in, apart from every tenant's.
const WRITER_LANE: &str = "ml4all-state-writer";

/// The one writer of an engine's state directory (see the module docs).
pub(crate) struct StateWriter {
    shared: Arc<Shared>,
}

/// What the writer and its drain task share.
struct Shared {
    dir: PathBuf,
    slots: Mutex<Slots>,
    /// Notified whenever a write finishes or a drain exits.
    settled: Condvar,
    checkpoints_written: AtomicU64,
    checkpoints_superseded: AtomicU64,
    failures: AtomicU64,
}

#[derive(Default)]
struct Slots {
    /// The newest offered, unwritten state per file, oldest offer first.
    queued: Vec<(PathBuf, Payload)>,
    /// Files being written right now, by a drain or inline.
    writing: Vec<PathBuf>,
    /// A drain task is spawned and has not started.
    spawned: bool,
    /// A drain is running: the task, or a caller of `sync`.
    draining: bool,
}

/// What a file is written from; encoded only when it is written.
enum Payload {
    Checkpoint(Box<Checkpoint>),
    PlanCache(Vec<PlanCacheEntry>),
    Calibration(CalibrationSnapshot),
}

impl Slots {
    fn position(&self, path: &Path) -> Option<usize> {
        self.queued.iter().position(|(p, _)| p == path)
    }

    fn take(&mut self, path: &Path) -> Option<Payload> {
        let i = self.position(path)?;
        Some(self.queued.remove(i).1)
    }
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, slots: MutexGuard<'a, Slots>) -> MutexGuard<'a, Slots> {
        self.settled
            .wait(slots)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait out a write of `path` already in flight.
    fn wait_for<'a>(&self, mut slots: MutexGuard<'a, Slots>, path: &Path) -> MutexGuard<'a, Slots> {
        while slots.writing.iter().any(|p| p == path) {
            slots = self.wait(slots);
        }
        slots
    }

    /// Encode and write one file, counting the outcome. A panic while
    /// encoding counts as a failure and never strands a waiter.
    fn perform(&self, path: &Path, payload: &Payload) {
        let written = std::panic::catch_unwind(AssertUnwindSafe(|| match payload {
            Payload::Checkpoint(ckpt) => write_checkpoint(path, ckpt).is_ok(),
            Payload::PlanCache(entries) => serde_json::to_string_pretty(entries)
                .is_ok_and(|json| atomic_write(path, json.as_bytes()).is_ok()),
            Payload::Calibration(snapshot) => save_snapshot(snapshot, path).is_ok(),
        }))
        .unwrap_or(false);
        let counter = match (written, payload) {
            (false, _) => &self.failures,
            (true, Payload::Checkpoint(_)) => &self.checkpoints_written,
            (true, _) => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Write `payload` to `path` on this thread, after any write of the
    /// same file already in flight so an older state never lands last.
    /// The slots are unlocked while the file is written.
    fn write<'a>(
        &'a self,
        slots: MutexGuard<'a, Slots>,
        path: PathBuf,
        payload: Payload,
    ) -> MutexGuard<'a, Slots> {
        let mut slots = self.wait_for(slots, &path);
        slots.writing.push(path.clone());
        drop(slots);
        self.perform(&path, &payload);
        let mut slots = self.lock();
        if let Some(i) = slots.writing.iter().position(|p| *p == path) {
            slots.writing.swap_remove(i);
        }
        self.settled.notify_all();
        slots
    }

    /// Make the newest state offered for `path` durable before returning:
    /// a write in flight is awaited, a queued one is written here.
    fn settle(&self, path: &Path) {
        // A drain that took the queued state leaves it in flight.
        let mut slots = self.wait_for(self.lock(), path);
        if let Some(payload) = slots.take(path) {
            drop(self.write(slots, path.to_path_buf(), payload));
        }
    }

    /// Empty every slot on this thread; the caller has set `draining`.
    fn drain<'a>(&'a self, mut slots: MutexGuard<'a, Slots>) -> MutexGuard<'a, Slots> {
        while !slots.queued.is_empty() {
            let (path, payload) = slots.queued.remove(0);
            slots = self.write(slots, path, payload);
        }
        slots.draining = false;
        self.settled.notify_all();
        slots
    }

    /// Queue the state `payload` builds for `path`, replacing an
    /// unwritten older one, and make sure a drain will get to it.
    /// `payload` runs under the slot lock, so offers queue in the order
    /// their states were taken.
    fn offer(
        self: &Arc<Self>,
        path: PathBuf,
        payload: impl FnOnce() -> Payload,
        runtime: &Runtime,
    ) {
        let mut slots = self.lock();
        let payload = payload();
        match slots.position(&path) {
            Some(i) => slots.queued[i].1 = payload,
            None => slots.queued.push((path, payload)),
        }
        self.schedule(slots, runtime);
    }

    /// Spawn a drain task unless one is spawned or running already.
    fn schedule(self: &Arc<Self>, mut slots: MutexGuard<'_, Slots>, runtime: &Runtime) {
        if slots.spawned || slots.draining {
            return;
        }
        slots.spawned = true;
        drop(slots);
        let shared = Arc::clone(self);
        runtime.spawn_in_lane(WRITER_LANE, move || {
            let mut slots = shared.lock();
            slots.spawned = false;
            // A caller of `sync` that got here first drains for us.
            if !slots.draining {
                slots.draining = true;
                drop(shared.drain(slots));
            }
        });
    }
}

impl StateWriter {
    /// The state directory at `dir`, created (with its `checkpoints/` and
    /// `models/` subdirectories) if needed.
    ///
    /// # Panics
    ///
    /// Panics if the directories cannot be created: a serving engine must
    /// not come up silently non-durable.
    pub(crate) fn open(dir: PathBuf) -> Self {
        std::fs::create_dir_all(dir.join("checkpoints")).expect("create state dir");
        std::fs::create_dir_all(dir.join("models")).expect("create state dir");
        Self {
            shared: Arc::new(Shared {
                dir,
                slots: Mutex::new(Slots::default()),
                settled: Condvar::new(),
                checkpoints_written: AtomicU64::new(0),
                checkpoints_superseded: AtomicU64::new(0),
                failures: AtomicU64::new(0),
            }),
        }
    }

    /// Rehydrate `cache` from `plancache.json`: any persisted decision is
    /// served as a hit, bit-identical to the engine that made it. A file
    /// that cannot be read is skipped; one that does not parse panics.
    pub(crate) fn load_plan_cache(&self, cache: &PlanCache) -> Result<(), SessionError> {
        if let Ok(text) = std::fs::read_to_string(plan_cache_path(&self.shared.dir)) {
            let entries: Vec<PlanCacheEntry> =
                serde_json::from_str(&text).expect("corrupt plancache.json in state dir");
            cache.import(entries)?;
        }
        Ok(())
    }

    /// The model registry persisted under `models/`; foreign file names
    /// are skipped.
    pub(crate) fn load_models(&self) -> HashMap<String, Arc<Model>> {
        let mut models = HashMap::new();
        let dir = self.shared.dir.join("models");
        for entry in std::fs::read_dir(dir).expect("read state dir") {
            let path = entry.expect("read state dir").path();
            let Some(name) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(unhex_name)
            else {
                continue;
            };
            let model = Model::load(&path).expect("corrupt model in state dir");
            models.insert(name, Arc::new(model));
        }
        models
    }

    /// The persisted calibration profile, if there is one.
    pub(crate) fn load_calibrator(&self, config: CalibratorConfig) -> Option<Calibrator> {
        Calibrator::load(&profile_path(&self.shared.dir), config)
            .expect("corrupt calibration profile in state dir")
    }

    /// Where the model bound to `name` persists.
    pub(crate) fn model_path(&self, name: &str) -> PathBuf {
        self.shared
            .dir
            .join("models")
            .join(format!("{}.txt", hex_name(name)))
    }

    /// The checkpoint file of the job whose plan-cache key is `key`. The
    /// key string is unbounded, so the filename is its FNV-1a hash while
    /// the full identity travels inside the checkpoint (`key_hash`, plan,
    /// RNG stream version) and is re-validated on resume. The hash covers
    /// only the key's *durable identity* — the generation-independent
    /// prefix — so a calibration refit between a crash and its restart
    /// never orphans an in-flight checkpoint.
    pub(crate) fn checkpoint<'w>(
        &'w self,
        key: &PlanCacheKey,
        max_iter: u64,
        runtime: &'w Runtime,
    ) -> JobCheckpoint<'w> {
        let key_hash = fnv1a64(key.durable_identity().as_bytes());
        let file = format!("{key_hash:016x}.ckpt");
        JobCheckpoint {
            shared: &self.shared,
            runtime,
            path: self.shared.dir.join("checkpoints").join(file),
            key_hash,
            max_iter,
        }
    }

    /// Offer the plan cache as the engine's decisions left it. It is
    /// exported now, so an entry inserted later by hand is not persisted
    /// with it, and under the slot lock, so a later offer always holds
    /// every earlier one's entries. A newer offer replaces an unwritten
    /// one: a burst of decisions costs one write.
    pub(crate) fn offer_plan_cache(&self, cache: &PlanCache, runtime: &Runtime) {
        let path = plan_cache_path(&self.shared.dir);
        self.shared
            .offer(path, || Payload::PlanCache(cache.export()), runtime);
    }

    /// Offer the calibration profile. The caller holds the calibrator, so
    /// offers arrive in generation order.
    pub(crate) fn offer_calibration(&self, snapshot: CalibrationSnapshot, runtime: &Runtime) {
        let path = profile_path(&self.shared.dir);
        self.shared
            .offer(path, || Payload::Calibration(snapshot), runtime);
    }

    /// Make the offered calibration profile durable before returning; a
    /// drain already writing it is awaited, so its write overlaps
    /// whatever the job did since the offer.
    pub(crate) fn settle_calibration(&self) {
        self.shared.settle(&profile_path(&self.shared.dir));
    }

    /// Block until every write offered so far has reached disk or failed.
    /// A running write is awaited; queued ones are written on this thread.
    pub(crate) fn sync(&self) {
        let shared = &self.shared;
        let mut slots = shared.lock();
        loop {
            if slots.draining || !slots.writing.is_empty() {
                slots = shared.wait(slots);
            } else if slots.queued.is_empty() {
                return;
            } else {
                slots.draining = true;
                slots = shared.drain(slots);
            }
        }
    }

    pub(crate) fn checkpoints_written(&self) -> u64 {
        self.shared.checkpoints_written.load(Ordering::Relaxed)
    }

    pub(crate) fn checkpoints_superseded(&self) -> u64 {
        self.shared.checkpoints_superseded.load(Ordering::Relaxed)
    }

    pub(crate) fn failures(&self) -> u64 {
        self.shared.failures.load(Ordering::Relaxed)
    }
}

impl Drop for StateWriter {
    fn drop(&mut self) {
        self.sync();
    }
}

/// One job's checkpoint file and the writer it goes through.
pub(crate) struct JobCheckpoint<'w> {
    shared: &'w Arc<Shared>,
    runtime: &'w Runtime,
    path: PathBuf,
    /// The plan-cache key's durable identity; the plan and the RNG stream
    /// version travel beside it and are re-validated on resume, so a
    /// checkpoint can never silently seed a different job.
    pub(crate) key_hash: u64,
    /// The job's iteration cap: a run stops there.
    max_iter: u64,
}

impl JobCheckpoint<'_> {
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// The checkpoint on disk; `Ok(None)` when there is none.
    pub(crate) fn read(&self) -> Result<Option<Checkpoint>, CheckpointError> {
        match read_checkpoint(&self.path) {
            Ok(ckpt) => Ok(Some(ckpt)),
            Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The executor hook's body for a segment running `plan`: the
    /// captured state is handed to the writer, so a post-switch checkpoint
    /// carries the new plan and resume re-validates against what actually
    /// ran. It never fails the wave; a failed write is counted.
    pub(crate) fn offer(&self, plan: GdPlan, state: ExecState) {
        let shared = self.shared;
        if state.iteration >= self.max_iter {
            // The run stops here, so this checkpoint could only be spent.
            shared
                .checkpoints_superseded
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ckpt = Payload::Checkpoint(Box::new(Checkpoint {
            key_hash: self.key_hash,
            plan: plan.to_string(),
            rng_stream_version: RNG_STREAM_VERSION,
            state,
        }));
        let mut slots = shared.lock();
        if slots.take(&self.path).is_none() {
            slots.queued.push((self.path.clone(), ckpt));
            return shared.schedule(slots, self.runtime);
        }
        // The staleness bound: the writer has not even started on k−1, so
        // the job writes k itself rather than run further ahead of disk.
        shared
            .checkpoints_superseded
            .fetch_add(1, Ordering::Relaxed);
        drop(shared.write(slots, self.path.clone(), ckpt));
    }

    /// A completed job spends its checkpoint: the queued one is dropped,
    /// a write in flight is awaited, and the file is removed.
    pub(crate) fn spend(&self) {
        let shared = self.shared;
        let mut slots = shared.lock();
        if slots.take(&self.path).is_some() {
            shared
                .checkpoints_superseded
                .fetch_add(1, Ordering::Relaxed);
        }
        drop(shared.wait_for(slots, &self.path));
        match std::fs::remove_file(&self.path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                shared.failures.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// A cancelled or wall-limited job keeps its checkpoint: the latest
    /// offered one is on disk when this returns.
    pub(crate) fn keep(&self) {
        self.shared.settle(&self.path);
    }
}

fn plan_cache_path(dir: &Path) -> PathBuf {
    dir.join("plancache.json")
}

/// Filename-safe encoding of a model name: lowercase hex of its UTF-8
/// bytes, so arbitrary result names (`Q1`, `训练`, `a/b`) map to flat
/// files under `models/`.
pub(crate) fn hex_name(name: &str) -> String {
    name.bytes().map(|b| format!("{b:02x}")).collect()
}

/// Inverse of [`hex_name`]; `None` for file stems that are not exactly
/// its spelling — even-length lowercase hex of valid UTF-8 — so foreign
/// files are skipped, not fatal, and no two files name one model.
pub(crate) fn unhex_name(stem: &str) -> Option<String> {
    fn nibble(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            _ => None,
        }
    }
    let bytes: Option<Vec<u8>> = stem
        .as_bytes()
        .chunks(2)
        .map(|pair| match *pair {
            [hi, lo] => Some((nibble(hi)? << 4) | nibble(lo)?),
            _ => None,
        })
        .collect();
    String::from_utf8(bytes?).ok()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ml4all_core::estimator::SpeculationConfig;
    use ml4all_dataflow::{ClusterSpec, PartitionScheme, PartitionedDataset, Runtime};
    use ml4all_datasets::synth::{dense_classification_columns, DenseClassConfig};

    use crate::{Engine, ExplainRequest, GradientKind, JobEvent, SessionError, TrainRequest};

    fn engine(workers: usize) -> Engine {
        Engine::new()
            .with_registry_cap(1000)
            .with_speculation(SpeculationConfig {
                sample_size: 300,
                max_iterations: 2000,
                ..SpeculationConfig::default()
            })
            .with_runtime(Arc::new(Runtime::new(workers)))
    }

    fn state_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ml4all-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn with_data(engine: Engine) -> Engine {
        let columns = dense_classification_columns(&DenseClassConfig {
            n: 2000,
            dims: 4,
            noise: 0.05,
            seed: 5,
        });
        let data = PartitionedDataset::from_columns(
            "train",
            &columns,
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap();
        engine.register_dataset("train", data);
        engine
    }

    /// A tolerance below reach: the job runs to its iteration cap or its
    /// cancellation.
    fn request(seed: u64, max_iter: u64) -> TrainRequest {
        TrainRequest::new(GradientKind::LogisticRegression, "train")
            .epsilon(1e-12)
            .max_iter(max_iter)
            .seed(seed)
    }

    fn checkpoint_files(dir: &std::path::Path) -> Vec<String> {
        std::fs::read_dir(dir.join("checkpoints"))
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    }

    #[test]
    fn a_failed_plan_cache_write_is_counted_and_the_job_succeeds() {
        let dir = state_dir("failure");
        // A directory where the file should be: every write of it fails.
        std::fs::create_dir_all(dir.join("plancache.json")).unwrap();
        let engine = with_data(engine(2).with_state_dir(&dir));
        engine.train(request(9, 40).named("J")).unwrap();
        engine.sync();
        assert_eq!(engine.state_write_failures(), 1);
        assert!(engine.model("J").is_some());
        drop(engine);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn every_offered_checkpoint_is_written_or_superseded_and_none_survives() {
        for workers in [1, 2, 8] {
            let dir = state_dir(&format!("invariant-{workers}"));
            let engine = with_data(engine(workers).with_state_dir(&dir));
            let jobs: Vec<_> = (0..8)
                .map(|seed| engine.submit(request(seed, 30 + seed).checkpoint_every(1)))
                .collect();
            let offered: u64 = jobs
                .into_iter()
                .map(|job| job.join().unwrap().summary.iterations)
                .sum();
            assert_eq!(offered, (0..8).map(|seed| 30 + seed).sum::<u64>());
            assert_eq!(
                engine.checkpoints_written() + engine.checkpoints_superseded(),
                offered,
                "{workers} workers: every offer is written or superseded"
            );
            assert_eq!(engine.state_write_failures(), 0);
            drop(engine);
            assert_eq!(
                checkpoint_files(&dir),
                Vec::<String>::new(),
                "{workers} workers: no checkpoint or temp sibling survives"
            );
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn the_last_drop_persists_the_decision_and_the_profile_without_sync() {
        let dir = state_dir("reload");
        let first = with_data(engine(2).with_calibration().with_state_dir(&dir));
        first.train(request(3, 60).named("J")).unwrap();
        // A decision priced under the refit profile, offered last.
        let explain = || ExplainRequest::new(request(4, 60));
        let cold = first.explain(explain()).unwrap();
        assert!(!cold.cache_hit);
        let generation = first.calibration().unwrap().generation;
        assert_eq!(generation, 1);
        drop(first);

        let second = with_data(engine(2).with_calibration().with_state_dir(&dir));
        assert_eq!(second.calibration().unwrap().generation, generation);
        let warm = second.explain(explain()).unwrap();
        assert!(warm.cache_hit, "the decision reloads as a hit");
        assert_eq!(warm.best().plan, cold.best().plan);
        drop(second);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A decision persisted under another fingerprint of the same data,
    /// as a build that hashed the rows differently wrote it, does not
    /// stop the boot: the request misses and is decided afresh.
    #[test]
    fn a_decision_persisted_under_another_fingerprint_misses() {
        let dir = state_dir("old-fingerprint");
        let explain = || ExplainRequest::new(request(4, 60));
        let first = with_data(engine(2).with_state_dir(&dir));
        let cold = first.explain(explain()).unwrap();
        drop(first);

        let path = dir.join("plancache.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let at = text.find("|fp").expect("a persisted key") + 3;
        let moved = text.replace(&text[at - 3..at + 16], "|fp0123456789abcdef");
        assert_ne!(moved, text);
        std::fs::write(&path, moved).unwrap();

        let second = with_data(engine(2).with_state_dir(&dir));
        let again = second.explain(explain()).unwrap();
        assert!(
            !again.cache_hit,
            "an entry under another fingerprint misses"
        );
        assert_eq!(again.best().plan, cold.best().plan);
        drop(second);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_last_drop_inside_the_only_worker_drains_instead_of_waiting() {
        let dir = state_dir("worker-drop");
        let first = with_data(engine(1).with_state_dir(&dir));
        let job = first.submit(request(3, 60).named("J"));
        // The job's own clone is now the last: it drops on the pool's only
        // worker, ahead of the drain task queued behind it.
        drop(first);
        job.join().unwrap();

        let second = with_data(engine(1).with_state_dir(&dir));
        let report = second.explain(ExplainRequest::new(request(3, 60))).unwrap();
        assert!(report.cache_hit, "the dropped engine's decision is on disk");
        drop(second);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Holds its job at one progress tick until the test has cancelled
    /// it, so the cancellation lands on exactly that boundary.
    struct CancelAt {
        iteration: u64,
        gate: std::sync::Barrier,
    }

    impl crate::EventSink for CancelAt {
        fn event(&self, event: JobEvent) {
            if matches!(event, JobEvent::Progress { iteration, .. } if iteration == self.iteration)
            {
                self.gate.wait();
                self.gate.wait();
            }
        }

        fn finished(&self, _outcome: &Result<crate::Trained, SessionError>) {}
    }

    #[test]
    fn a_starved_writer_still_keeps_the_cancel_boundary() {
        let dir = state_dir("starved");
        // One worker, and the job occupies it: no drain task can start
        // until the job has reported, so every write it needs is its own.
        let engine = with_data(engine(1).with_state_dir(&dir));
        // An odd boundary: the job writes every second checkpoint itself,
        // and this one is still queued when the cancel lands.
        let sink = Arc::new(CancelAt {
            iteration: 11,
            gate: std::sync::Barrier::new(2),
        });
        let job = engine.submit_with_sink(
            request(9, 100_000).checkpoint_every(1).progress_every(1),
            "t",
            sink.clone(),
        );
        sink.gate.wait();
        job.cancel();
        sink.gate.wait();
        assert!(matches!(
            job.join(),
            Err(SessionError::Cancelled { iterations: 11 })
        ));
        let files = checkpoint_files(&dir);
        assert_eq!(files.len(), 1, "{files:?}");
        let ckpt =
            ml4all_dataflow::checkpoint::read_checkpoint(dir.join("checkpoints").join(&files[0]))
                .unwrap();
        assert_eq!(
            ckpt.state.iteration, 11,
            "the surviving checkpoint is the cancel boundary"
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(dir);
    }
}
