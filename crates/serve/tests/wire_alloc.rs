//! The wire codec allocates for what it hands back, not for what it
//! walks: under a counting global allocator, encoding a frame into a
//! reused buffer makes no request at all, and decoding one makes a request
//! per decoded `String`, a doubling series per decoded `Vec`, and a small
//! constant — nothing per JSON node, per key or per number. A codec that
//! goes through a `Value` tree makes several requests per node and fails
//! both halves by an order of magnitude.
//!
//! The server side: a frame the server queues is one request, the
//! `Arc<[u8]>` it is shared as, building and encoding a `Joined` answer
//! costs the same requests at d = 20 000 as at d = 123, under either
//! protocol, and a `Stats` answer from encoded rows the same at 2 048 rows
//! as at 16. A decoded `Stats` row costs its name only: its status borrows
//! a literal. The client's decode of a protocol-2 `Joined` costs a
//! request per weight, its hex `String`, and a constant: no doubling
//! series.
//!
//! One `#[test]` only: the counters are process-wide, and the harness runs
//! tests of one binary on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ml4all_bench::wire_samples::{joined, progress, stats, weights};
use ml4all_serve::protocol::{
    encode_frame_into, encode_shared_frame, EncodedRow, JobRow, JoinedReply, Payload, Response,
    StatsReply,
};

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

    shared_frames_cost_one_request();
    joined_costs_no_request_per_weight();
    raw_joined_costs_the_same_at_any_width();
    stats_costs_no_request_per_row();
}

/// Past the first frame on a thread, which grows its scratch buffer,
/// every frame the server queues is exactly one allocation request.
fn shared_frames_cost_one_request() {
    let cases = [
        ("Event", progress()),
        ("Submitted", Response::Ok(Payload::Submitted { job: 9 })),
        (
            "ObserveEnd",
            Response::Ok(Payload::ObserveEnd {
                job: 9,
                status: "completed".into(),
            }),
        ),
    ];
    for (label, message) in &cases {
        let warm = encode_shared_frame(message).expect("encode");
        let (made, frame) = requests(|| encode_shared_frame(message).expect("encode"));
        assert_eq!(frame, warm, "{label}: the encoding is deterministic");
        assert_eq!(made, 1, "{label}: a shared frame is one allocation");
    }
}

/// `Joined` is written from the weight slice: nothing is allocated per
/// weight, so a wide answer costs what a narrow one does.
fn joined_costs_no_request_per_weight() {
    let build_and_encode = |weights: &[f64]| {
        requests(|| {
            let reply = JoinedReply {
                job: 1,
                status: "completed",
                name: Some("hot"),
                plan: Some("SGD-lazy-shuffle".to_string()),
                iterations: Some(5),
                converged: Some(false),
                sim_time_s: Some(4.010036191371873),
                weights: Some(weights),
                error: None,
            };
            encode_shared_frame(&reply).expect("encode").len()
        })
        .0
    };
    let (narrow, wide) = (weights(123), weights(20_000));
    // A wide frame drops the thread's scratch buffer after use, so each
    // measurement below starts from an empty one.
    build_and_encode(&wide);
    let narrow_requests = build_and_encode(&narrow);
    build_and_encode(&wide);
    let wide_requests = build_and_encode(&wide);
    assert_eq!(
        wide_requests, narrow_requests,
        "Joined at d = 20000 made {wide_requests} allocation requests, at d = 123 \
         {narrow_requests}"
    );
    // The plan text, the scratch buffer's first bytes and its one
    // reservation, the shared frame.
    assert!(
        narrow_requests <= 4,
        "Joined made {narrow_requests} allocation requests"
    );

    // Into a warm reused buffer the wide answer allocates nothing.
    let reply = JoinedReply {
        job: 1,
        status: "completed",
        weights: Some(&wide),
        ..JoinedReply::default()
    };
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, &reply).expect("encode");
    frame.clear();
    let (made, ()) = requests(|| encode_frame_into(&mut frame, &reply).expect("encode"));
    assert_eq!(
        made, 0,
        "encoding Joined into a warm buffer must not allocate"
    );
}

/// A completed `Joined` under protocol 2 is its JSON header and a copy of
/// the weights' bytes: the server's answer costs the same requests at
/// d = 20 000 as at d = 123, and the client's decode one per weight (its
/// hex `String`) and a constant, with no doubling vector.
fn raw_joined_costs_the_same_at_any_width() {
    let build_and_encode = |weights: &[f64]| {
        requests(|| {
            let reply = JoinedReply {
                job: 1,
                status: "completed",
                name: Some("hot"),
                plan: Some("SGD-lazy-shuffle".to_string()),
                iterations: Some(5),
                converged: Some(false),
                sim_time_s: Some(4.010036191371873),
                weights: Some(weights),
                error: None,
            };
            reply.encode_raw(|_| true).expect("encode").expect("fits")
        })
    };
    let (narrow, wide) = (weights(123), weights(20_000));
    // The first answer on the thread grows its scratch buffer.
    build_and_encode(&wide);
    let (narrow_requests, narrow_answer) = build_and_encode(&narrow);
    let (wide_requests, wide_answer) = build_and_encode(&wide);
    assert_eq!(
        wide_requests, narrow_requests,
        "a protocol-2 Joined at d = 20000 made {wide_requests} allocation requests, at \
         d = 123 {narrow_requests}"
    );
    // The plan text, the answer's buffer, its shared copy.
    assert!(
        narrow_requests <= 3,
        "a protocol-2 Joined made {narrow_requests} allocation requests"
    );

    for (d, answer) in [(123, narrow_answer), (20_000, wide_answer)] {
        let header_len = 4 + u32::from_be_bytes(answer[..4].try_into().expect("4 bytes")) as usize;
        let (header, block) = answer.split_at(header_len);
        let (decode_requests, joined) = requests(|| {
            let Ok(Response::Ok(Payload::Joined(mut joined))) =
                serde_json::from_slice::<Response>(&header[4..])
            else {
                panic!("not a Joined header");
            };
            joined.attach_weight_block(&block[4..]).expect("a block");
            joined
        });
        assert_eq!(joined.weights_bits.map(|bits| bits.len()), Some(d));
        // The status, name and plan; the two exact-size vectors; a hex
        // `String` per weight.
        let bound = 3 + 2 + d as u64 + CONSTANT;
        assert!(
            decode_requests <= bound,
            "decoding a protocol-2 Joined at d = {d} made {decode_requests} allocation \
             requests, its output accounts for at most {bound}"
        );
    }
}

/// `Stats` is written from rows encoded once: building and encoding the
/// answer costs the same requests at 2 048 rows as at 16, and decoding it
/// makes one request per row, its name, and none per status.
fn stats_costs_no_request_per_row() {
    let rows = |n: u64| -> Vec<EncodedRow> {
        (1..=n)
            .map(|job| {
                JobRow {
                    job,
                    engine_id: Some(job),
                    name: Some("hot"),
                    status: "completed",
                }
                .encode()
            })
            .collect()
    };
    let build_and_encode = |rows: &[EncodedRow]| {
        requests(|| {
            let reply = StatsReply {
                tenant: "t0",
                quota_max_in_flight: 4,
                global_capacity: 8,
                ..StatsReply::default()
            };
            reply
                .encode_shared(rows.len(), |table| {
                    for row in rows {
                        table.encoded(row);
                    }
                })
                .expect("encode")
                .len()
        })
        .0
    };
    let (narrow, wide) = (rows(16), rows(2048));
    // A 2 048-row frame drops the thread's scratch buffer after use, so
    // each measurement below starts from an empty one.
    build_and_encode(&wide);
    let narrow_requests = build_and_encode(&narrow);
    build_and_encode(&wide);
    let wide_requests = build_and_encode(&wide);
    assert_eq!(
        wide_requests, narrow_requests,
        "Stats with 2048 rows made {wide_requests} allocation requests, with 16 \
         {narrow_requests}"
    );
    // The scratch buffer's one reservation, the shared frame.
    assert!(
        narrow_requests <= 2,
        "Stats made {narrow_requests} allocation requests"
    );

    let mut frame = Vec::new();
    encode_frame_into(&mut frame, &stats(2048)).expect("encode");
    let (decode_requests, _) =
        requests(|| serde_json::from_slice::<Response>(&frame[4..]).expect("decode"));
    // The tenant, then a name per row; the rows' Vec.
    let bound = 1 + 2048 + vec_growth(2048) + CONSTANT;
    assert!(
        decode_requests <= bound,
        "decoding Stats with 2048 rows made {decode_requests} allocation requests, \
         its names account for at most {bound}"
    );
}
