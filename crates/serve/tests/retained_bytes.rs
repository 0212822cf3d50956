//! What a served job costs the server once it is over: the bytes it still
//! holds for `Observe`/`Join` replay. A finished job keeps its model's d
//! weights once, as `f64`s, beside its event frames, its `Stats` row and
//! its record; no `Joined` frame outlives its write, neither the
//! protocol-2 header and raw block nor the protocol-1 frame, the weights
//! again as ≈ 32·d bytes of JSON text. Under a global allocator that
//! counts live bytes (allocated minus freed), hot-shaped jobs (adult,
//! d = 123, `Submit → Observe → Join` on a plan-cache hit, each measured
//! job joined once more over a protocol-1 connection) must leave at most
//! 8·d + 1 536 bytes each behind. A history that keeps every `Joined`
//! frame holds about twice that.
//!
//! One `#[test]` only: the counter is process-wide, and the harness runs
//! tests of one binary on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use ml4all::Engine;
use ml4all_serve::{Client, Payload, Request, ServeConfig, Server, WireSource, WireTrain};

/// Bytes allocated and not yet freed, process-wide.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The adult analog's width: its model's weight count.
const D: usize = 123;
/// Jobs run before the first reading: plan cache, dataset memo, worker
/// scratch buffers and the job table's first nodes.
const WARM_UP: usize = 64;
/// Jobs measured.
const JOBS: usize = 64;

/// One hot-shaped job: `Submit`, `Observe` from 0 to the end, `Join`.
/// Returns the job's id.
fn hot_job(client: &mut Client, train: &WireTrain) -> u64 {
    let job = client.submit(train).expect("submit");
    let status = client.observe(job, 0, |_, _| {}).expect("observe");
    assert_eq!(status, "completed");
    let joined = client.join(job).expect("join");
    assert_eq!(joined.weights_bits.expect("weights").len(), D);
    job
}

/// Live bytes once the jobs' workers have let go of what they drop after
/// posting their last frame.
fn live_after_settling() -> i64 {
    std::thread::sleep(std::time::Duration::from_millis(100));
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn a_joined_job_keeps_its_model_not_its_joined_text() {
    let server = Server::start(Engine::new(), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.hello("t0").expect("hello");
    // `Client::hello` negotiates protocol 2; a `Hello` naming no protocol
    // gets protocol 1, whose `Joined` is JSON text encoded in the lane.
    let mut json = Client::connect(server.local_addr()).expect("connect");
    let hello = Request::Hello {
        tenant: "t0".into(),
        protocol: None,
    };
    json.call(&hello).expect("hello");
    let mut train = WireTrain::new("logistic", WireSource::Registry("adult".into()));
    train.max_iter = Some(5);
    train.seed = Some(1);
    train.name = Some("hot".into());

    for _ in 0..WARM_UP {
        hot_job(&mut client, &train);
    }
    let before = live_after_settling();
    for _ in 0..JOBS {
        let job = hot_job(&mut client, &train);
        let Payload::Joined(joined) = json.call(&Request::Join { job }).expect("join") else {
            panic!("not a Joined answer");
        };
        assert_eq!(joined.weights_bits.expect("weights").len(), D);
    }
    let per_job = (live_after_settling() - before) / JOBS as i64;
    let bound = (8 * D + 1536) as i64;
    assert!(
        per_job <= bound,
        "the server keeps {per_job} live bytes per retained job, over 8·d + 1536 = {bound}"
    );
    // Every job is still in the history: nothing was pruned to get here.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs.len(), WARM_UP + JOBS);
    eprintln!("live bytes per retained job: {per_job} (bound {bound})");
}
