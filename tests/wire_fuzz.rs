//! Fixed-seed mutation fuzz over the typed JSON decoders that read
//! untrusted bytes: `Request` and `Response` frames, the checkpoint
//! payload and `plancache.json` (`Vec<PlanCacheEntry>`).
//!
//! Then the client's read of protocol 2's raw weight block, against a
//! scripted server on a loopback socket: a block whose length is not a
//! multiple of 8, a missing block, a block cut at every byte, a completed
//! header that carries weights of its own, and a stray block on a
//! protocol-1 connection are each a typed `ClientError::Protocol`, and
//! randomly cut or re-sized answers are answered `Ok` or `Err`, never a
//! panic or a hang.
//!
//! Every mutant (see `tests/mutate.rs`: byte flips, truncations, nesting
//! bombs, duplicate and unknown keys, megabyte runs, perturbed numbers)
//! must be answered with `Ok` or `Err` — never a panic; on a thread with a
//! small stack — so recursion past the 128-level bound would overflow it;
//! within a live-allocation budget of a small multiple of the input
//! length. Two cross-checks ride along: a syntax error is the same
//! whatever the target type (the typed decoder and the `Value` decoder
//! agree on it, text and offset), and whatever decodes re-encodes to a
//! fixed point.
//!
//! One `#[test]` only: the allocation counters are process-wide, and the
//! harness runs tests of one binary on parallel threads. The seeds derive
//! from the names passed to `TestRng::for_test`, so every run — locally
//! and in CI — draws the same mutants.

mod mutate;

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;

use ml4all_bench::wire_samples;
use ml4all_core::PlanCacheEntry;
use ml4all_dataflow::{decode_checkpoint, encode_checkpoint, fnv1a64};
use ml4all_serve::protocol::{
    encode_frame, read_frame, write_frame, FrameIn, JoinedReply, Payload, Request, Response,
    WireError,
};
use ml4all_serve::{code, Client, ClientError, PROTOCOL_RAW_WEIGHTS, PROTOCOL_VERSION};
use mutate::{mutate, Limits};
use proptest::TestRng;
use serde_json::Value;

/// Bytes currently allocated, and the high-water mark since it was last
/// reset to the current level.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Tracking;

impl Tracking {
    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::grow(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block can both be live while the contents move.
        Self::grow(new_size);
        // SAFETY: as above.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        moved
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Live bytes a decode may hold beyond what was live before it, per input
/// byte. The steepest legitimate ratio is an array of empty strings:
/// three bytes of `"",` become a 24-byte `String` in a vector that, while
/// doubling, holds its old and its new buffer at once.
const BYTES_PER_INPUT_BYTE: usize = 32;
/// … plus room for error texts and the small fixed-size parts of a value.
const FIXED_BYTES: usize = 64 << 10;

/// Stack of the decoding thread. 128 levels of the deepest frame (a
/// `Value` inside an object) fit many times over; 100 000 would not.
const STACK_BYTES: usize = 512 << 10;

const MUTANTS_PER_TARGET: usize = 800;

/// The peak of live bytes above the starting level while `work` runs.
fn peak_during<T>(work: impl FnOnce() -> T) -> (usize, T) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = work();
    (PEAK.load(Ordering::Relaxed).saturating_sub(start), out)
}

/// Decode `input` as `T` under the budget, cross-check it against the
/// `Value` decoder, and — when it decodes — check the re-encoding is a
/// fixed point.
fn check<T: serde::Serialize + serde::Deserialize>(target: &str, case: usize, input: &[u8]) {
    let shown = || String::from_utf8_lossy(&input[..input.len().min(300)]).into_owned();
    let (peak, typed) = peak_during(|| serde_json::from_slice::<T>(input));
    let budget = BYTES_PER_INPUT_BYTE * input.len() + FIXED_BYTES;
    assert!(
        peak <= budget,
        "{target} #{case}: {peak} live bytes for {} input bytes: {}",
        input.len(),
        shown()
    );
    match (serde_json::from_slice::<Value>(input), &typed) {
        (Err(syntax), Ok(_)) => panic!(
            "{target} #{case}: decoded a document the validator refuses ({syntax}): {}",
            shown()
        ),
        (Err(syntax), Err(e)) => assert_eq!(
            e.to_string(),
            syntax.to_string(),
            "{target} #{case}: a syntax error does not depend on the target type: {}",
            shown()
        ),
        (Ok(_), _) => {}
    }
    if let Ok(value) = typed {
        let text = serde_json::to_string(&value).expect("encode");
        let again: T = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{target} #{case}: own output refused ({e}): {text}"));
        assert_eq!(
            serde_json::to_string(&again).expect("encode"),
            text,
            "{target} #{case}: encode ∘ decode is not a fixed point"
        );
    }
}

/// A checkpoint file around `payload`, checksum matching, through the
/// file decoder: `Ok`/`Err`, under the same budget.
fn check_checkpoint(case: usize, payload: &[u8]) {
    // The file format is text; a mutant that is not UTF-8 could not have
    // been read off disk as one.
    let Ok(payload) = std::str::from_utf8(payload) else {
        return;
    };
    if payload.contains('\n') || payload.contains('\r') {
        return; // would be a different (multi-line) file, not this payload
    }
    let file = format!(
        "ML4ACKPT v1\ncrc {:016x}\n{payload}\n",
        fnv1a64(payload.as_bytes())
    );
    let (peak, outcome) = peak_during(|| decode_checkpoint(&file));
    let budget = BYTES_PER_INPUT_BYTE * file.len() + FIXED_BYTES;
    assert!(
        peak <= budget,
        "checkpoint #{case}: {peak} live bytes for {} input bytes",
        file.len()
    );
    if let Ok(ckpt) = outcome {
        let again = encode_checkpoint(&ckpt).expect("encode");
        let text = String::from_utf8(again).expect("utf-8 file");
        let back = decode_checkpoint(&text).expect("own output decodes");
        assert_eq!(
            encode_checkpoint(&back).expect("encode"),
            text.as_bytes(),
            "checkpoint #{case}: encode ∘ decode is not a fixed point"
        );
    }
}

fn fuzz_all() {
    let limits = Limits {
        bomb_depth: 100_000,
        long_run: 1 << 20,
    };

    let request = serde_json::to_vec(&wire_samples::submit()).expect("request");
    let mut rng = TestRng::for_test("wire_fuzz::request");
    for case in 0..MUTANTS_PER_TARGET {
        check::<Request>("Request", case, &mutate(&mut rng, &request, limits));
    }

    let response = serde_json::to_vec(&wire_samples::joined(5)).expect("response");
    let mut rng = TestRng::for_test("wire_fuzz::response");
    for case in 0..MUTANTS_PER_TARGET {
        check::<Response>("Response", case, &mutate(&mut rng, &response, limits));
    }

    let entry = include_str!("golden/semantics_plancache_entry.json").trim_end();
    let entries = format!("[{entry},{entry}]").into_bytes();
    let mut rng = TestRng::for_test("wire_fuzz::plancache");
    for case in 0..MUTANTS_PER_TARGET {
        check::<Vec<PlanCacheEntry>>(
            "Vec<PlanCacheEntry>",
            case,
            &mutate(&mut rng, &entries, limits),
        );
    }

    let file = encode_checkpoint(&wire_samples::checkpoint(4)).expect("encode");
    let payload = file
        .split(|b| *b == b'\n')
        .nth(2)
        .expect("payload line")
        .to_vec();
    let mut rng = TestRng::for_test("wire_fuzz::checkpoint");
    for case in 0..MUTANTS_PER_TARGET {
        check_checkpoint(case, &mutate(&mut rng, &payload, limits));
    }
}

// ---------------------------------------------------------------------
// Protocol 2's raw weight block, read by the client
// ---------------------------------------------------------------------

/// A server on a loopback socket that reads one request frame per entry
/// of `answers` and writes that entry's bytes back, then closes.
fn scripted(answers: Vec<Vec<u8>>) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("address");
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for answer in answers {
            if !matches!(read_frame(&mut reader, 1 << 20), Ok(FrameIn::Frame(_))) {
                return;
            }
            // A client that gave up early has closed its end.
            let _ = (&stream).write_all(&answer);
        }
    });
    (addr, server)
}

/// The `Hello` answer naming `protocol`.
fn hello(protocol: u32) -> Vec<u8> {
    encode_frame(&Response::Ok(Payload::Hello {
        server: "scripted".into(),
        protocol,
        rng_stream_version: 1,
        max_frame: 1 << 20,
    }))
    .expect("encode")
}

/// A completed job's `Joined` reply over `weights`.
fn reply(weights: &[f64]) -> JoinedReply<'_> {
    JoinedReply {
        job: 1,
        status: "completed",
        name: Some("m"),
        plan: Some("SGD-lazy-shuffle".into()),
        iterations: Some(5),
        converged: Some(false),
        sim_time_s: Some(0.5),
        weights: Some(weights),
        error: None,
    }
}

/// Connect to a scripted server, say `Hello` and `Join`; the join's
/// outcome, and the scripted server once it has closed.
fn join_against(answers: Vec<Vec<u8>>) -> Result<ml4all_serve::WireTrained, ClientError> {
    let (addr, server) = scripted(answers);
    let mut client = Client::connect(addr).expect("connect");
    client.hello("t").expect("hello");
    let outcome = client.join(1);
    drop(client);
    server.join().expect("the scripted server");
    outcome
}

/// `outcome` is a typed protocol violation.
fn assert_protocol_error<T: std::fmt::Debug>(label: &str, outcome: Result<T, ClientError>) {
    match outcome {
        Err(ClientError::Protocol(_)) => {}
        other => panic!("{label}: expected a protocol error, got {other:?}"),
    }
}

fn raw_block_faults() {
    let weights = wire_samples::weights(123);
    let answer = reply(&weights)
        .encode_raw(|_| true)
        .expect("encode")
        .expect("fits")
        .to_vec();
    let header_len = 4 + u32::from_be_bytes(answer[..4].try_into().expect("4 bytes")) as usize;
    let (header, block) = answer.split_at(header_len);

    // The whole answer decodes to the weights, bit for bit.
    let joined = join_against(vec![hello(PROTOCOL_RAW_WEIGHTS), answer.clone()]).expect("join");
    let back: Vec<u64> = joined
        .weights
        .iter()
        .flatten()
        .map(|w| w.to_bits())
        .collect();
    let sent: Vec<u64> = weights.iter().map(|w| w.to_bits()).collect();
    assert_eq!(back, sent);

    // A block whose length is not a multiple of 8.
    for cut in [1, 3, 7, 9] {
        let mut bad = header.to_vec();
        write_frame(&mut bad, &block[4..block.len() - cut]).expect("frame");
        let outcome = join_against(vec![hello(PROTOCOL_RAW_WEIGHTS), bad]);
        assert_protocol_error(&format!("a block {cut} bytes short"), outcome);
    }

    // No block after a completed header, and a block cut at every byte,
    // its length prefix included: the server closes mid-answer.
    for cut in 0..block.len() {
        let mut bad = header.to_vec();
        bad.extend_from_slice(&block[..cut]);
        let outcome = join_against(vec![hello(PROTOCOL_RAW_WEIGHTS), bad]);
        assert_protocol_error(&format!("a block cut at byte {cut}"), outcome);
    }

    // A completed header that carries its weights, then a block.
    let mut doubled = encode_frame(&Response::Ok(Payload::Joined(joined.clone()))).expect("frame");
    doubled.extend_from_slice(block);
    let outcome = join_against(vec![hello(PROTOCOL_RAW_WEIGHTS), doubled]);
    assert_protocol_error("a header with weights", outcome);

    // Protocol 1 reads JSON only. A raw frame answering its `Join` is
    // unparseable; a stray one behind the JSON answer is read by the next
    // call, as unparseable.
    let json = encode_frame(&Response::Ok(Payload::Joined(joined))).expect("frame");
    let (addr, server) = scripted(vec![
        hello(PROTOCOL_VERSION),
        block.to_vec(),
        [json.as_slice(), block].concat(),
        Vec::new(),
    ]);
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.hello("t").expect("hello").protocol, PROTOCOL_VERSION);
    assert_protocol_error("a raw frame answering a JSON join", client.join(1));
    let outcome = client.join(1).expect("the JSON join");
    assert_eq!(outcome.weights_bits.expect("weights").len(), weights.len());
    assert_protocol_error("a stray raw frame", client.stats());
    drop(client);
    server.join().expect("the scripted server");

    // Cut or re-sized answers: `Ok` or a typed error, never a panic or a
    // hang (the scripted server closes after its answer).
    let mut rng = TestRng::for_test("wire_fuzz::raw_block");
    for case in 0..200 {
        let mut mutant = answer.clone();
        match rng.below(3) {
            0 => mutant.truncate(rng.below(answer.len() as u64) as usize),
            1 => {
                let at = header_len + rng.below(4) as usize;
                mutant[at] = rng.below(256) as u8;
            }
            _ => mutant.extend((0..rng.below(24)).map(|_| rng.below(256) as u8)),
        }
        match join_against(vec![hello(PROTOCOL_RAW_WEIGHTS), mutant]) {
            Ok(joined) => assert!(joined.weights.is_some(), "case {case}"),
            Err(ClientError::Protocol(_) | ClientError::Io(_)) => {}
            Err(e) => panic!("case {case}: {e}"),
        }
    }
}

/// A server that refuses protocol 2 is spoken to in protocol 1.
fn a_server_refusing_protocol_2_gets_protocol_1() {
    let refused = encode_frame(&Response::Err(WireError::new(
        code::UNSUPPORTED_PROTOCOL,
        "server speaks protocol 1, not 2",
    )))
    .expect("encode");
    let (addr, server) = scripted(vec![refused, hello(PROTOCOL_VERSION)]);
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.hello("t").expect("hello").protocol, PROTOCOL_VERSION);
    drop(client);
    server.join().expect("the scripted server");
}

#[test]
fn mutants_are_refused_or_decoded_within_stack_and_memory_bounds() {
    std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(fuzz_all)
        .expect("spawn the decoding thread")
        .join()
        .expect("a decoder panicked on a mutant (see the message above)");
    // After the decoders, whose live-byte budgets a loopback server on
    // another thread would disturb.
    raw_block_faults();
    a_server_refusing_protocol_2_gets_protocol_1();
}
