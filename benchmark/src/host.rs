//! What the host leaves to chance, fixed before a run starts: one vCPU,
//! two pool workers, one allocator arena.
//!
//! The defining host's guest kernel runs with `cpuset.sched_load_balance`
//! off: a thread stays on the vCPU it was created on, so two busy threads
//! can share one vCPU for seconds while the other idles, and which threads
//! of client, reactor and worker pool end up together differs from process
//! to process. Measured: the same two-thread floor slice read 6.3 ms per
//! floor-op for its first 1.4 s and 3.4 ms after, and the unpinned
//! `serve_hot` job 0.17, 0.22 and 0.26 ms in three sessions of one commit.
//!
//! The benchmark takes the lottery out: before any thread exists it pins
//! itself to the vCPU it is running on, and every thread the engine, the
//! server and the clients start later inherits that mask. A gated time is
//! therefore *CPU time per job on one core*, the floor runs on that same
//! core, and nothing ever waits for another vCPU to wake.
//!
//! Which pool worker picks up which job is the same lottery in small: with
//! glibc's per-thread arenas `train_dense` peaked at 8.7 MB resident when
//! one worker ran most jobs and at 9.6 MB when both did. One arena takes
//! that out too; on one vCPU it is never contended, and the timed metrics
//! read the same with it as without (measured on all four workloads).

use crate::workload::Error;

/// Workers of the crates' process-wide pool. `available_parallelism()`
/// reads the affinity mask, so a pinned process would get the inline
/// one-worker runtime, which no deployment on the defining host runs;
/// the benchmark fixes the pool at that host's two workers instead.
const POOL_WORKERS: &str = "2";

/// glibc's `M_ARENA_MAX` parameter of `mallopt`.
const M_ARENA_MAX: i32 = -8;

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// The vCPU the calling thread is running on.
pub fn current_cpu() -> Result<usize, Error> {
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
    let cpu = unsafe { sched_getcpu() };
    usize::try_from(cpu).map_err(|_| "sched_getcpu failed".into())
}

/// Pin the calling thread — the only one, so the whole process — to the
/// vCPU it is on, size the worker pool and cap the allocator at one arena.
/// Call before any thread is spawned and before `Runtime::global()` is
/// first used. Returns the vCPU.
pub fn settle() -> Result<usize, Error> {
    let cpu = current_cpu()?;
    // A 1 024-bit mask, the size glibc's `cpu_set_t` has.
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| format!("vCPU {cpu} is beyond the affinity mask"))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if status != 0 {
        return Err(format!(
            "sched_setaffinity to vCPU {cpu}: {}",
            std::io::Error::last_os_error()
        )
        .into());
    }
    std::env::set_var("ML4ALL_WORKERS", POOL_WORKERS);
    // SAFETY: `mallopt` only stores the parameter; no other thread exists
    // that could be allocating meanwhile.
    if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
        return Err("mallopt(M_ARENA_MAX, 1) was refused".into());
    }
    Ok(cpu)
}
