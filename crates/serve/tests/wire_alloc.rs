//! The wire codec allocates for what it hands back, not for what it
//! walks: under a counting global allocator, encoding a frame into a
//! reused buffer makes no request at all, and decoding one makes a request
//! per decoded `String`, a doubling series per decoded `Vec`, and a small
//! constant — nothing per JSON node, per key or per number. A codec that
//! goes through a `Value` tree makes several requests per node and fails
//! both halves by an order of magnitude.
//!
//! One `#[test]` only: the counters are process-wide, and the harness runs
//! tests of one binary on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ml4all_bench::wire_samples::{joined, stats};
use ml4all_serve::protocol::{encode_frame_into, Response};

/// Every allocation request (`alloc`, `alloc_zeroed`, `realloc`).
static REQUESTS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation requests made while `work` runs.
fn requests<T>(work: impl FnOnce() -> T) -> (u64, T) {
    let before = REQUESTS.load(Ordering::Relaxed);
    let out = work();
    (REQUESTS.load(Ordering::Relaxed) - before, out)
}

/// Requests a `Vec` makes growing to `len` elements by doubling from its
/// first capacity of four: one per capacity it passes through.
fn vec_growth(len: usize) -> u64 {
    let mut requests = 0;
    let mut capacity = 0;
    while capacity < len {
        capacity = (capacity * 2).max(4);
        requests += 1;
    }
    requests
}

/// Slack on a decode bound: the payload wrapper and nothing else.
const CONSTANT: u64 = 4;

#[test]
fn the_codec_allocates_for_its_output_only() {
    // (message, Strings a decode hands back, lengths of the Vecs it
    // hands back)
    let cases = [
        ("Joined d=123", joined(123), 3 + 123, vec![123, 123]),
        (
            "Joined d=20000",
            joined(20_000),
            3 + 20_000,
            vec![20_000, 20_000],
        ),
        // The tenant, then a name and a status per row.
        ("Stats 2048 rows", stats(2048), 1 + 2 * 2048, vec![2048]),
    ];
    let mut frame = Vec::new();
    for (label, message, strings, vecs) in &cases {
        // Warm-up grows the buffer; from then on encoding is free.
        frame.clear();
        encode_frame_into(&mut frame, message).expect("encode");
        let warm = frame.clone();
        frame.clear();
        let (encode_requests, ()) =
            requests(|| encode_frame_into(&mut frame, message).expect("encode"));
        assert_eq!(frame, warm, "{label}: the encoding is deterministic");
        assert_eq!(
            encode_requests, 0,
            "{label}: encoding into a warm buffer must not allocate"
        );

        let payload = &frame[4..];
        let (decode_requests, decoded) =
            requests(|| serde_json::from_slice::<Response>(payload).expect("decode"));
        let bound = strings + vecs.iter().map(|len| vec_growth(*len)).sum::<u64>() + CONSTANT;
        assert!(
            decode_requests <= bound,
            "{label}: decoding made {decode_requests} allocation requests, \
             its output accounts for at most {bound}"
        );
        // The bound is about the output, not slack: a request per JSON
        // node (there are more than two per decoded string) is far above.
        let mut again = Vec::new();
        encode_frame_into(&mut again, &decoded).expect("re-encode");
        assert_eq!(again, warm, "{label}: decode then encode is the identity");
    }
}
