//! The shared parallel runtime of the ml4all reproduction.
//!
//! The paper's cost model is *wave-parallel*: Equations 3–5 charge CPU for
//! waves of `cap` parallel slots working over partitions. This crate is
//! the physical counterpart — one worker pool that both the GD executor
//! (per-partition gradient waves) and the plan chooser (the three
//! speculative runs of Algorithm 1) dispatch through, and that hosts every
//! detached job (submitted training jobs, served `Explain`/`Predict`),
//! instead of each layer spinning its own ad-hoc threads. `Runtime::new`
//! is the only place the system creates compute threads.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism at any worker count.** [`Runtime::map_indexed`]
//!    assigns work by *item index* and returns results in item order, so a
//!    caller that reduces the returned vector left-to-right gets
//!    bit-identical output whether the pool has 1, 2, or 8 workers.
//!    Per-item randomness comes from [`derive_seed`], which mixes a base
//!    seed with the item index — never from worker identity.
//! 2. **No deadlock under nesting.** A task may itself dispatch through
//!    the runtime (the chooser's speculative runs execute full GD plans).
//!    While any wave's tasks are queued, the submitting thread *helps*: it
//!    pops and runs them instead of blocking, and it parks only once
//!    every task of its own is running elsewhere, so a pool saturated
//!    with waiting parents still makes progress.
//! 3. **Panic transparency.** A panicking task poisons nothing: the first
//!    payload is captured and re-thrown on the submitting thread after
//!    the whole batch completes.

#![warn(clippy::undocumented_unsafe_blocks)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};

/// A detached unit of work ([`Runtime::spawn`]): one box per job.
type Job = Box<dyn FnOnce() + Send>;

/// Retired lanes kept for reuse, name and queue buffer both, so a tenant
/// whose lane drained between two jobs does not allocate a new lane.
const SPARE_LANES: usize = 16;

/// A wave's completion state, on its submitter's stack for the whole
/// wave. Chunks reach it through [`Chunk`] pointers.
struct Batch<'a> {
    /// Runs one chunk: the contiguous index range chunk `c` owns.
    body: &'a (dyn Fn(usize) + Sync),
    /// Chunks not yet finished; the submitter returns only at zero.
    remaining: AtomicUsize,
    /// The first panic payload of any chunk, re-thrown by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The submitter, unparked by whichever chunk finishes last.
    owner: Thread,
}

/// One queued wave chunk: a plain record, not a boxed closure. The batch
/// pointer's lifetime is erased; it stays valid because the submitter
/// does not return (and so does not free the batch) until every chunk of
/// it has finished.
struct Chunk {
    batch: NonNull<Batch<'static>>,
    index: usize,
}

// SAFETY: a `Chunk` only hands a shared `&Batch` to the thread that runs
// it, and every field of `Batch` is `Sync` (`&dyn Fn + Sync`, atomics, a
// `Mutex`, a `Thread`); its validity is argued at `Chunk`.
unsafe impl Send for Chunk {}

impl Chunk {
    /// Run this chunk, record a panic, and count it done. The last chunk
    /// to finish unparks the submitter through a `Thread` handle cloned
    /// *before* the decrement: from the moment `remaining` reaches zero
    /// the submitter may return and free the batch, so nothing of it is
    /// touched after the decrement.
    fn run(self) {
        let batch = self.batch.as_ptr();
        let owner = {
            // SAFETY: `remaining` is still above zero (this chunk has not
            // counted itself done), so the submitter is still waiting and
            // its batch is alive. The reference ends before the decrement.
            let batch = unsafe { &*batch };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (batch.body)(self.index))) {
                let mut slot = batch.panic.lock().expect("runtime panic slot");
                slot.get_or_insert(payload);
            }
            batch.owner.clone()
        };
        // SAFETY: as above; the batch is alive up to and including this
        // decrement, and it is the last access.
        if unsafe { (*batch).remaining.fetch_sub(1, Ordering::AcqRel) } == 1 {
            owner.unpark();
        }
    }
}

/// A retired or live detached-job lane: a tenant's name and its FIFO.
#[derive(Default)]
struct Lane {
    name: String,
    jobs: VecDeque<Job>,
}

/// The two job tiers behind one lock. Idle workers are the only threads
/// that wait on [`Shared::cv`]; a wave submitter waits by parking until
/// its own last chunk unparks it.
#[derive(Default)]
struct Queues {
    /// FIFO of pending wave chunks. One global queue keeps scheduling
    /// order deterministic-enough for helping and makes stealing trivial.
    batch: VecDeque<Chunk>,
    /// Detached jobs ([`Runtime::spawn`] /
    /// [`Runtime::spawn_in_lane`]): long-lived work that only
    /// otherwise-idle workers pick up, so a whole submitted job never
    /// delays the wave chunks of a batch already in flight. Jobs are
    /// grouped into per-lane FIFOs drained round-robin — the fairness
    /// hook a multi-tenant front end keys by tenant, so one lane queueing
    /// a burst cannot starve another lane's single job.
    lanes: Vec<Lane>,
    /// Retired lanes, emptied, kept for reuse (at most [`SPARE_LANES`]).
    spare: Vec<Lane>,
    /// Next lane to serve (round-robin cursor over `lanes`).
    next_lane: usize,
}

impl Queues {
    /// Append a detached job to `lane`, creating the lane on first use
    /// (lane order is creation order, so scheduling stays deterministic
    /// for a fixed submission sequence). A new lane takes a spare's name
    /// and buffer when one is left.
    fn push_detached(&mut self, lane: &str, job: Job) {
        match self.lanes.iter_mut().find(|l| l.name == lane) {
            Some(l) => l.jobs.push_back(job),
            None => {
                let mut l = self.spare.pop().unwrap_or_default();
                l.name.clear();
                l.name.push_str(lane);
                l.jobs.push_back(job);
                self.lanes.push(l);
            }
        }
    }

    /// Pop the next detached job, round-robin across non-empty lanes:
    /// each pop serves the cursor's lane and advances it, so a lane with
    /// a deep backlog yields to every other waiting lane between its own
    /// jobs. Empty lanes are retired (their slot — and cursor fairness —
    /// is reclaimed; a returning tenant simply re-registers at the tail).
    fn pop_detached(&mut self) -> Option<Job> {
        while !self.lanes.is_empty() {
            let idx = self.next_lane % self.lanes.len();
            let job = self.lanes[idx].jobs.pop_front();
            if job.is_some() && !self.lanes[idx].jobs.is_empty() {
                self.next_lane = (idx + 1) % self.lanes.len();
                return job;
            }
            // Retire the drained lane (or, defensively, a lane that was
            // already empty); the lane that shifts into its slot is
            // served next, which preserves the rotation order.
            let retired = self.lanes.remove(idx);
            if self.spare.len() < SPARE_LANES {
                self.spare.push(retired);
            }
            self.next_lane = if self.lanes.is_empty() {
                0
            } else {
                idx % self.lanes.len()
            };
            if job.is_some() {
                return job;
            }
        }
        None
    }

    /// Total queued detached jobs.
    #[cfg(test)]
    fn detached_len(&self) -> usize {
        self.lanes.iter().map(|l| l.jobs.len()).sum()
    }
}

struct Shared {
    queue: Mutex<Queues>,
    /// Idle workers wait here, and only they do. Each queued chunk or
    /// detached job sends one `notify_one`, waking at most one of them;
    /// only shutdown wakes them all.
    cv: Condvar,
    shutdown: AtomicBool,
    /// Workers waiting on `cv` right now.
    #[cfg(test)]
    idle: AtomicUsize,
    /// Idle wake-ups that found no work to take.
    #[cfg(test)]
    empty_wakeups: AtomicUsize,
    /// Times a wave submitter parked for its last chunks.
    #[cfg(test)]
    parks: AtomicUsize,
}

impl Shared {
    fn pop_chunk(&self) -> Option<Chunk> {
        self.queue.lock().expect("runtime queue").batch.pop_front()
    }
}

/// The worker pool. Cheap to share via [`Arc`]; see [`Runtime::global`]
/// for the process-wide instance.
pub struct Runtime {
    workers: usize,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Runtime {
    /// A pool of `workers` threads (clamped to at least 1): the only
    /// place the system creates compute threads. With one worker, waves
    /// run inline on the caller and the one thread hosts detached jobs.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queues::default()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            #[cfg(test)]
            idle: AtomicUsize::new(0),
            #[cfg(test)]
            empty_wakeups: AtomicUsize::new(0),
            #[cfg(test)]
            parks: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ml4all-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn runtime worker")
            })
            .collect();
        Self {
            workers,
            shared,
            handles,
        }
    }

    /// The process-wide runtime: `ML4ALL_WORKERS` workers if set,
    /// otherwise the machine's available parallelism.
    pub fn global() -> Arc<Runtime> {
        static GLOBAL: OnceLock<Arc<Runtime>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| {
                let workers = std::env::var("ML4ALL_WORKERS")
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        std::thread::available_parallelism()
                            .map(|n| n.get())
                            .unwrap_or(1)
                    });
                Arc::new(Runtime::new(workers))
            })
            .clone()
    }

    /// Number of worker threads (1 means waves run inline).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Apply `f` to every item of `items`, in parallel, returning results
    /// **in item order**. `f` receives `(index, &item)`.
    ///
    /// Work is split into contiguous index chunks (at most one per
    /// worker); the output vector depends only on `items` and `f`, never
    /// on the worker count — reduce it left-to-right for results that are
    /// bit-identical at any pool size.
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run_indexed(items.len(), |i| f(i, &items[i]))
    }

    /// Run `f(index, &mut slots[index])` for every slot, in parallel, each
    /// slot visited exactly once. The scratch-buffer primitive of the GD
    /// hot loop: per-partition accumulators live in `slots` across
    /// iterations, so a compute wave reuses their allocations instead of
    /// collecting a fresh result vector.
    ///
    /// Determinism matches [`Runtime::map_indexed`]: work is assigned by
    /// slot index, never by worker identity.
    pub fn scatter_indexed<T, F>(&self, slots: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        struct SendPtr<T>(*mut T);
        // SAFETY: the pointer is only dereferenced at distinct indices
        // (each task owns exactly one slot) while `slots` is exclusively
        // borrowed by this call.
        unsafe impl<T: Send> Send for SendPtr<T> {}
        // SAFETY: as for `Send`: tasks share the pointer only to reach
        // their own distinct slot.
        unsafe impl<T: Send> Sync for SendPtr<T> {}

        let base = SendPtr(slots.as_mut_ptr());
        let base = &base;
        self.for_each_indexed(slots.len(), |i| {
            // SAFETY: `i` is unique per task, so no two tasks alias a slot,
            // and `for_each_indexed` returns before `slots` is released.
            let slot = unsafe { &mut *base.0.add(i) };
            f(i, slot);
        });
    }

    /// Run `n` indexed tasks in parallel for their side effects only.
    ///
    /// Allocates nothing on any pool size. The indices are cut into at
    /// most `workers` contiguous chunks; the caller queues chunks 1.. as
    /// plain records pointing at a batch on its own stack, waking one
    /// idle worker per chunk, runs chunk 0 itself, helps with queued
    /// chunks, then parks until its last chunk finishes.
    pub fn for_each_indexed<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.workers == 1 || n <= 1 {
            for i in 0..n {
                f(i);
            }
            return;
        }
        let shared = &self.shared;
        let chunks = self.workers.min(n);
        let body = |c: usize| {
            for i in n * c / chunks..n * (c + 1) / chunks {
                f(i);
            }
        };
        let batch = Batch {
            body: &body,
            remaining: AtomicUsize::new(chunks),
            panic: Mutex::new(None),
            owner: std::thread::current(),
        };
        let erased = NonNull::from(&batch).cast::<Batch<'static>>();

        shared
            .queue
            .lock()
            .expect("runtime queue")
            .batch
            .extend((1..chunks).map(|index| Chunk {
                batch: erased,
                index,
            }));
        for _ in 1..chunks {
            shared.cv.notify_one();
        }
        Chunk {
            batch: erased,
            index: 0,
        }
        .run();

        // Help while chunks are queued: run queued chunks (ours or
        // anyone's) instead of blocking, so nested dispatch cannot
        // deadlock the pool — every chunk this call queued is either taken
        // by another thread or run here. Helping never picks up a
        // *detached* job: a whole submitted training job must not run
        // inside someone's wave wait.
        while batch.remaining.load(Ordering::Acquire) > 0 {
            let Some(chunk) = shared.pop_chunk() else {
                break;
            };
            chunk.run();
        }
        // Every chunk left is running on another thread; the last to
        // finish unparks this one. A stale unpark from an earlier wave
        // only makes `park` return early, and the loop parks again.
        while batch.remaining.load(Ordering::Acquire) > 0 {
            #[cfg(test)]
            shared.parks.fetch_add(1, Ordering::Relaxed);
            std::thread::park();
        }

        let payload = batch.panic.lock().expect("runtime panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Submit a detached, job-scoped unit of work: `job` runs to
    /// completion on one of the pool's workers — at every pool size,
    /// including the single worker — and the call returns immediately.
    ///
    /// Scheduling rules keep whole jobs from starving fine-grained waves:
    /// detached jobs sit in their own FIFO that only otherwise-idle
    /// workers pop — wave chunks from [`Runtime::for_each_indexed`]
    /// always take priority, and the helping loop of a waiting submitter
    /// never picks up a detached job. A detached job may itself dispatch
    /// waves through the runtime; the nesting guarantees of the batch
    /// path apply unchanged.
    ///
    /// Panics inside `job` are contained by the worker loop (the pool
    /// survives); callers that need to observe failure should catch
    /// panics themselves and record the outcome.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.spawn_in_lane("", job);
    }

    /// [`Runtime::spawn`] into a named fairness lane. Detached jobs are
    /// popped round-robin across lanes — one pop per lane per rotation —
    /// so a lane that queues a burst of jobs cannot starve another lane's
    /// single job: the fairness hook a serving front end keys by tenant.
    /// The empty lane name is the default lane [`Runtime::spawn`] uses.
    pub fn spawn_in_lane(&self, lane: &str, job: impl FnOnce() + Send + 'static) {
        self.shared
            .queue
            .lock()
            .expect("runtime queue")
            .push_detached(lane, Box::new(job));
        self.shared.cv.notify_one();
    }

    /// Run `n` indexed tasks in parallel, returning results in index
    /// order. Lower-level sibling of [`Runtime::map_indexed`]; expressed
    /// as a [`Runtime::scatter_indexed`] over per-index result slots so
    /// the batch-dispatch machinery lives in exactly one place.
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.workers == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        self.scatter_indexed(&mut slots, |i, slot| *slot = Some(f(i)));
        slots
            .into_iter()
            .map(|slot| slot.expect("every task completed"))
            .collect()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Raise the flag under the queue lock: an idle worker checks it
        // under that lock before it waits, so it either sees the flag or
        // is already waiting when the notify comes. Raised without the
        // lock, the notify could fall between a worker's check and its
        // wait, and the join below would wait for it forever.
        {
            let _queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.cv.notify_all();
        // A detached job holding the last reference drops the runtime on
        // one of its own workers; joining itself would panic in `drop`.
        // That worker exits on the shutdown flag once the job returns.
        let current = std::thread::current().id();
        for handle in self.handles.drain(..) {
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
    }
}

/// What an idle worker takes off the queues.
enum Work {
    Chunk(Chunk),
    Detached(Job),
}

fn worker_loop(shared: &Shared) {
    loop {
        let work = {
            let mut queue = shared.queue.lock().expect("runtime queue");
            loop {
                // Wave chunks always take priority; an otherwise-idle
                // worker hosts the next detached job.
                if let Some(chunk) = queue.batch.pop_front() {
                    break Work::Chunk(chunk);
                }
                if let Some(job) = queue.pop_detached() {
                    break Work::Detached(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                #[cfg(test)]
                shared.idle.fetch_add(1, Ordering::Relaxed);
                queue = shared.cv.wait(queue).expect("runtime condvar");
                #[cfg(test)]
                {
                    shared.idle.fetch_sub(1, Ordering::Relaxed);
                    if queue.batch.is_empty() && queue.lanes.is_empty() {
                        shared.empty_wakeups.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        };
        match work {
            // A chunk catches its own panic for its submitter.
            Work::Chunk(chunk) => chunk.run(),
            // Detached jobs are wrapped by their submitters; catching here
            // too keeps the worker thread alive through any failure.
            Work::Detached(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
        }
    }
}

/// A cooperative cancellation token shared between a job's owner and its
/// executor. Cancellation is a one-way latch: once set it stays set, and
/// executors observe it at wave (iteration) boundaries — a cancelled run
/// finishes the wave in flight, then stops.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latch the token: every holder observes the request from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Version of the deterministic RNG stream layout: the mapping from
/// `(seed, plan)` to the sequence of sampled coordinates and generated
/// rows. Same-seed runs reproduce bit for bit **within** one stream
/// version; across versions only statistical behaviour is preserved.
///
/// History: v1 drew Bernoulli samples with a per-unit coin-flip scan;
/// v2 switched to geometric skip sampling (same distribution, different
/// stream); v3 made the shuffled-partition sampler serve draws through an
/// incremental forward Fisher–Yates cursor (one `gen_range` per served
/// unit instead of a whole-partition permutation upfront — same uniform
/// permutation distribution, different stream). Bump this whenever a
/// sampler, seed-derivation rule, or generator changes the consumed
/// random stream, so that cross-build seed compatibility is explicit
/// instead of silently broken.
pub const RNG_STREAM_VERSION: u32 = 3;

/// Mix a base seed with a partition/task index into an independent,
/// deterministic per-item seed (SplitMix64 finalizer). Identical inputs
/// give identical seeds on every platform and at every worker count.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn map_returns_results_in_item_order() {
        let rt = Runtime::new(4);
        let items: Vec<u64> = (0..100).collect();
        let out = rt.map_indexed(&items, |i, x| (i as u64) * 1000 + x);
        let expect: Vec<u64> = (0..100).map(|i| i * 1000 + i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn results_are_identical_across_worker_counts() {
        let items: Vec<f64> = (0..57).map(|i| i as f64 * 0.1).collect();
        let reduce = |rt: &Runtime| -> f64 {
            rt.map_indexed(&items, |_, x| x.sin())
                .into_iter()
                .fold(0.0, |a, b| a + b)
        };
        let r1 = reduce(&Runtime::new(1));
        let r2 = reduce(&Runtime::new(2));
        let r8 = reduce(&Runtime::new(8));
        assert_eq!(r1.to_bits(), r2.to_bits());
        assert_eq!(r1.to_bits(), r8.to_bits());
    }

    /// Dropping a runtime whose workers are still going idle joins every
    /// one of them: the shutdown cannot slip between a worker's flag
    /// check and its wait. The drops run on a helper thread so a stranded
    /// worker fails the test instead of hanging it.
    #[test]
    fn dropping_a_fresh_runtime_joins_every_worker() {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..8000 {
                drop(Runtime::new(8));
            }
            let _ = done.send(());
        });
        assert!(
            finished.recv_timeout(Duration::from_secs(60)).is_ok(),
            "a dropped runtime waited on a worker that missed its shutdown"
        );
    }

    #[test]
    fn single_worker_runs_inline() {
        let rt = Runtime::new(1);
        assert_eq!(rt.workers(), 1);
        let caller = std::thread::current().id();
        let ids = rt.run_indexed(4, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn nested_dispatch_does_not_deadlock() {
        let rt = Arc::new(Runtime::new(2));
        // More outer tasks than workers, each dispatching inner tasks.
        let inner = Arc::clone(&rt);
        let out = rt.run_indexed(8, move |i| {
            inner.run_indexed(8, |j| i * j).into_iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| i * 28).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let rt = Runtime::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.run_indexed(8, |i| {
                if i == 5 {
                    panic!("boom {i}");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool survives and keeps working after a panic.
        assert_eq!(rt.run_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn scatter_indexed_visits_every_slot_exactly_once() {
        for workers in [1, 4] {
            let rt = Runtime::new(workers);
            let mut slots: Vec<u64> = vec![0; 123];
            rt.scatter_indexed(&mut slots, |i, s| *s += i as u64 + 1);
            let expect: Vec<u64> = (0..123).map(|i| i + 1).collect();
            assert_eq!(slots, expect, "at {workers} workers");
        }
    }

    #[test]
    fn for_each_indexed_propagates_panics_and_recovers() {
        let rt = Runtime::new(2);
        let hits = std::sync::atomic::AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.for_each_indexed(8, |i| {
                if i == 3 {
                    panic!("boom {i}");
                }
                hits.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(result.is_err());
        // The pool survives and keeps working after a panic.
        let ok = std::sync::atomic::AtomicUsize::new(0);
        rt.for_each_indexed(5, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn scatter_indexed_reuses_slot_allocations() {
        let rt = Runtime::new(2);
        let mut slots: Vec<Vec<f64>> = (0..8).map(|_| vec![0.0; 64]).collect();
        let ptrs: Vec<*const f64> = slots.iter().map(|s| s.as_ptr()).collect();
        for wave in 0..3 {
            rt.scatter_indexed(&mut slots, |i, s| {
                s.fill(0.0);
                s[0] = (wave * 100 + i) as f64;
            });
        }
        let after: Vec<*const f64> = slots.iter().map(|s| s.as_ptr()).collect();
        assert_eq!(ptrs, after, "slot buffers must not reallocate");
        assert_eq!(slots[3][0], 203.0);
    }

    #[test]
    fn derive_seed_is_deterministic_and_spreads() {
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
        assert_ne!(derive_seed(42, 3), derive_seed(42, 4));
        assert_ne!(derive_seed(42, 3), derive_seed(43, 3));
    }

    #[test]
    fn spawn_runs_detached_jobs_on_pooled_and_inline_runtimes() {
        for workers in [1usize, 4] {
            let rt = Arc::new(Runtime::new(workers));
            let (tx, rx) = std::sync::mpsc::channel();
            for i in 0..8u32 {
                let tx = tx.clone();
                let inner = Arc::clone(&rt);
                rt.spawn(move || {
                    // A detached job may itself dispatch waves.
                    let sum: u32 = inner.run_indexed(4, |j| i * j as u32).into_iter().sum();
                    tx.send(sum).unwrap();
                });
            }
            drop(tx);
            let mut got: Vec<u32> = rx.iter().collect();
            got.sort_unstable();
            let mut expect: Vec<u32> = (0..8).map(|i| i * 6).collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "at {workers} workers");
        }
    }

    #[test]
    fn one_worker_hosts_every_detached_job_on_its_one_thread() {
        let rt = Runtime::new(1);
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..8 {
            let tx = tx.clone();
            rt.spawn(move || tx.send(std::thread::current().id()).unwrap());
        }
        drop(tx);
        let threads: std::collections::HashSet<_> = rx.iter().collect();
        assert_eq!(threads.len(), 1, "eight jobs, one worker thread");
        assert!(!threads.contains(&std::thread::current().id()));
    }

    #[test]
    fn lanes_are_served_round_robin_not_fifo() {
        // Single-worker semantics via direct queue manipulation: queue a
        // deep backlog in lane A, then one job in lane B. Round-robin
        // must serve B's job second, not after A's whole backlog.
        let mut queues = Queues::default();
        let order = Arc::new(Mutex::new(Vec::new()));
        let push = |queues: &mut Queues, lane: &str, tag: &'static str| {
            let order = Arc::clone(&order);
            queues.push_detached(lane, Box::new(move || order.lock().unwrap().push(tag)));
        };
        for _ in 0..4 {
            push(&mut queues, "A", "A");
        }
        push(&mut queues, "B", "B");
        push(&mut queues, "C", "C");
        assert_eq!(queues.detached_len(), 6);
        while let Some(job) = queues.pop_detached() {
            job();
        }
        assert_eq!(
            *order.lock().unwrap(),
            ["A", "B", "C", "A", "A", "A"],
            "each rotation serves every waiting lane once"
        );
        assert_eq!(queues.detached_len(), 0);
    }

    #[test]
    fn lane_fairness_holds_under_a_live_pool() {
        // Saturate a 1-worker pool's detached tier: the first job holds
        // the only worker while lane "hog" queues a backlog and lane
        // "small" queues one job. The pool must run the small lane's job
        // before the hog's backlog drains.
        let rt = Runtime::new(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        // Pin both workers so later spawns definitely queue.
        let gate = Arc::new(Mutex::new(gate_rx));
        for _ in 0..2 {
            let gate = Arc::clone(&gate);
            rt.spawn_in_lane("pin", move || {
                gate.lock().unwrap().recv().unwrap();
            });
        }
        for i in 0..5 {
            let order = Arc::clone(&order);
            let done = done_tx.clone();
            rt.spawn_in_lane("hog", move || {
                order.lock().unwrap().push(format!("hog{i}"));
                done.send(()).unwrap();
            });
        }
        let small_order = Arc::clone(&order);
        let done = done_tx.clone();
        rt.spawn_in_lane("small", move || {
            small_order.lock().unwrap().push("small".to_string());
            done.send(()).unwrap();
        });
        // Release the pinned workers; all six queued jobs now drain.
        gate_tx.send(()).unwrap();
        gate_tx.send(()).unwrap();
        for _ in 0..6 {
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let order = order.lock().unwrap();
        let small_at = order.iter().position(|t| t == "small").unwrap();
        assert!(
            small_at <= 2,
            "lane `small` must be served within one rotation of the hog \
             backlog, got order {order:?}"
        );
    }

    #[test]
    fn detached_panic_does_not_kill_the_pool() {
        let rt = Runtime::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        rt.spawn(|| panic!("detached boom"));
        rt.spawn(move || tx.send(7u32).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 7);
        // Batch dispatch still works afterwards.
        assert_eq!(rt.run_indexed(3, |i| i), vec![0, 1, 2]);
    }

    /// A detached job pushed onto an idle pool wakes one worker, not the
    /// whole pool. Each job lands while all four workers wait: a
    /// broadcast would wake all four and leave three with nothing, about
    /// 3 000 empty wake-ups over the run.
    #[test]
    fn a_detached_job_wakes_at_most_one_idle_worker() {
        const JOBS: usize = 1_000;
        const WORKERS: usize = 4;
        let rt = Runtime::new(WORKERS);
        let (tx, rx) = std::sync::mpsc::channel();
        let all_idle = || rt.shared.idle.load(Ordering::Relaxed) == WORKERS;
        for i in 0..JOBS {
            // A worker woken but not yet scheduled still counts as idle,
            // so the pool must read idle twice, a moment apart.
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while !all_idle() || {
                std::thread::sleep(Duration::from_micros(50));
                !all_idle()
            } {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the pool never went idle"
                );
            }
            let tx = tx.clone();
            rt.spawn(move || tx.send(i).unwrap());
            assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), i);
        }
        let empty = rt.shared.empty_wakeups.load(Ordering::Relaxed);
        assert!(
            empty < JOBS,
            "{empty} idle wake-ups found no work over {JOBS} jobs: \
             more than one worker woke per job"
        );
    }

    /// Ten thousand two-chunk waves, each under a watchdog, with the
    /// worker's chunk finishing before the submitter parks, after it
    /// parks, and anywhere around the park.
    #[test]
    fn a_wave_never_misses_its_last_chunk() {
        const WAVES: usize = 10_000;
        let rt = Arc::new(Runtime::new(2));
        let pool = Arc::clone(&rt);
        let (tick, ticks) = std::sync::mpsc::channel();
        let waves = std::thread::spawn(move || {
            for wave in 0..WAVES {
                let started = AtomicBool::new(false);
                let done = AtomicBool::new(false);
                pool.for_each_indexed(2, |i| {
                    let spin_until = |flag: &AtomicBool| {
                        let deadline = std::time::Instant::now() + Duration::from_millis(50);
                        while !flag.load(Ordering::Acquire) && std::time::Instant::now() < deadline
                        {
                            std::hint::spin_loop();
                        }
                    };
                    if i == 0 {
                        started.store(true, Ordering::Release);
                        if wave % 3 == 0 {
                            // The other chunk finishes first.
                            spin_until(&done);
                        }
                        return;
                    }
                    match wave % 3 {
                        // Finishes long after the submitter parked.
                        1 => {
                            spin_until(&started);
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        // Finishes around the park, by a varying margin.
                        2 => (0..wave % 64 * 16).for_each(|_| std::hint::spin_loop()),
                        _ => {}
                    }
                    done.store(true, Ordering::Release);
                });
                tick.send(wave).unwrap();
            }
        });
        for wave in 0..WAVES {
            assert_eq!(
                ticks.recv_timeout(Duration::from_secs(10)),
                Ok(wave),
                "wave {wave} hung"
            );
        }
        waves.join().unwrap();
        let parks = rt.shared.parks.load(Ordering::Relaxed);
        assert!(parks > 0, "no submitter ever parked for its last chunk");
    }

    /// Detached jobs that hold every worker run nested waves whose inner
    /// chunk panics: each panic reaches its outer submitter, and the pool
    /// keeps serving both tiers afterwards.
    #[test]
    fn a_nested_panic_reaches_the_outer_submitter_on_a_busy_pool() {
        const WORKERS: usize = 3;
        let rt = Arc::new(Runtime::new(WORKERS));
        let (tx, rx) = std::sync::mpsc::channel();
        for job in 0..WORKERS {
            let tx = tx.clone();
            let pool = Arc::clone(&rt);
            rt.spawn(move || {
                let outer = catch_unwind(AssertUnwindSafe(|| {
                    pool.for_each_indexed(4, |i| {
                        let inner = pool.run_indexed(6, |j| {
                            if i == job % 4 && j == 5 {
                                panic!("inner boom {job}");
                            }
                            i * j
                        });
                        assert_eq!(inner.len(), 6);
                    })
                }));
                let message = outer
                    .err()
                    .and_then(|p| p.downcast_ref::<String>().cloned());
                tx.send(message).unwrap();
            });
        }
        let mut got: Vec<Option<String>> = (0..WORKERS)
            .map(|_| rx.recv_timeout(Duration::from_secs(10)).unwrap())
            .collect();
        got.sort();
        let expect: Vec<Option<String>> = (0..WORKERS)
            .map(|job| Some(format!("inner boom {job}")))
            .collect();
        assert_eq!(got, expect);
        assert_eq!(rt.run_indexed(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
        let (tx, rx) = std::sync::mpsc::channel();
        rt.spawn(move || tx.send(7u32).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 7);
    }

    #[test]
    fn cancel_token_latches_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled());
        assert!(!clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled());
        assert!(clone.is_cancelled());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let rt = Runtime::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(rt.map_indexed(&empty, |_, x| *x).is_empty());
        assert_eq!(rt.map_indexed(&[7u32], |_, x| *x * 2), vec![14]);
    }
}
