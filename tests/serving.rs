//! Integration tests for the `ml4all-serve` network front end: wire/
//! in-process bit-identity, tenant isolation, cancellation prefix
//! exactness, framing robustness, and the golden wire-frame snapshot
//! (`tests/golden/wire_frames.txt`, regenerate with `UPDATE_GOLDEN=1`).

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

mod mutate;

use ml4all::{DataSource, Engine, GradientKind, JobEvent, Runtime, TrainRequest};
use ml4all_bench::golden::assert_golden;
use ml4all_serve::{
    code, f64_to_bits_hex, protocol, Client, ClientError, Request, Response, ServeConfig, Server,
    TenantQuota, WireEvent, WireSource, WireTrain, PROTOCOL_RAW_WEIGHTS, PROTOCOL_VERSION,
};

fn serve(engine: Engine, config: ServeConfig) -> Server {
    Server::start(engine, config).expect("bind ephemeral port")
}

fn connect(server: &Server, tenant: &str) -> Client {
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.hello(tenant).expect("hello");
    client
}

fn adult_train(max_iter: u64, seed: u64, name: &str) -> WireTrain {
    let mut train = WireTrain::new("logistic", WireSource::Registry("adult".into()));
    train.max_iter = Some(max_iter);
    train.seed = Some(seed);
    train.name = Some(name.into());
    train
}

#[test]
fn wire_weights_are_bit_identical_to_in_process_and_share_the_plan_cache() {
    let engine = Engine::new();
    let server = serve(engine.clone(), ServeConfig::default());
    let mut client = connect(&server, "acme");

    let job = client.submit(&adult_train(40, 9, "wired")).expect("submit");
    let outcome = client.join(job).expect("join");
    assert_eq!(outcome.status, "completed");
    let wire_bits = outcome.weights_bits.expect("weights over the wire");
    assert_eq!(engine.plan_cache().misses(), 1);
    assert_eq!(engine.plan_cache().hits(), 0);

    // The same request submitted in process on the same engine: the
    // plan-cache key matches (the result name is not part of it), so
    // this is a cache hit — and the weights are bit-identical.
    let trained = engine
        .train(
            TrainRequest::new(
                GradientKind::LogisticRegression,
                DataSource::Registry("adult".into()),
            )
            .max_iter(40)
            .seed(9)
            .named("local"),
        )
        .expect("in-process train");
    assert_eq!(engine.plan_cache().hits(), 1, "second decision must hit");
    assert_eq!(trained.name, "local");
    let local_bits: Vec<String> = engine
        .model("local")
        .expect("bound model")
        .weights
        .as_slice()
        .iter()
        .map(|w| f64_to_bits_hex(*w))
        .collect();
    assert_eq!(wire_bits, local_bits, "wire weights must be bit-identical");

    // The decimal JSON numbers round-trip to the same bits too — the
    // hex form is authoritative, the float form must agree.
    let wire_floats = outcome.weights.expect("float weights");
    let float_bits: Vec<String> = wire_floats.iter().map(|w| f64_to_bits_hex(*w)).collect();
    assert_eq!(float_bits, wire_bits);

    // The wire model is bound under the tenant's namespace and
    // scoreable over the wire.
    let scores = client
        .predict("wired", &WireSource::Registry("adult".into()))
        .expect("predict");
    assert!(scores.n > 0);
    assert!(scores.accuracy.is_some(), "logistic is classification");
}

#[test]
fn tenants_cannot_observe_cancel_join_or_score_each_others_jobs() {
    let server = serve(Engine::new(), ServeConfig::default());
    let mut alpha = connect(&server, "tenant-a");
    let mut beta = connect(&server, "tenant-b");

    let job = alpha
        .submit(&adult_train(30, 0, "secret"))
        .expect("submit as a");

    let forbidden = |r: Result<(), ClientError>| match r {
        Err(ClientError::Server(e)) => assert_eq!(e.code, code::FORBIDDEN),
        other => panic!("expected forbidden, got {other:?}"),
    };
    forbidden(beta.cancel(job));
    forbidden(beta.join(job).map(|_| ()));
    forbidden(beta.observe(job, 0, |_, _| {}).map(|_| ()));

    // An id that does not exist is a distinct typed error.
    match alpha.cancel(999) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, code::UNKNOWN_JOB),
        other => panic!("expected unknown_job, got {other:?}"),
    }

    // Stats are tenant-scoped: beta sees no jobs, alpha sees exactly one.
    assert!(beta.stats().expect("stats").jobs.is_empty());
    let outcome = alpha.join(job).expect("join as a");
    assert_eq!(outcome.status, "completed");
    let stats = alpha.stats().expect("stats");
    assert_eq!(stats.tenant, "tenant-a");
    assert_eq!(stats.jobs.len(), 1);
    assert_eq!(stats.jobs[0].job, job);
    assert_eq!(stats.jobs[0].status, "completed");

    // Models are namespaced: beta cannot score alpha's result by name,
    // alpha can.
    match beta.predict("secret", &WireSource::Registry("adult".into())) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, code::FAILED),
        other => panic!("expected failed, got {other:?}"),
    }
    alpha
        .predict("secret", &WireSource::Registry("adult".into()))
        .expect("owner can score");
}

#[test]
fn wire_cancellation_reports_a_bit_identical_prefix_of_the_uncancelled_run() {
    let engine = Engine::new();

    // Reference trajectory: the same request run in process, uncancelled
    // to its iteration cap, ticks recorded per iteration.
    let spec = |name: &str| {
        TrainRequest::new(
            GradientKind::LogisticRegression,
            DataSource::Registry("adult".into()),
        )
        .epsilon(1e-12)
        .max_iter(60_000)
        .seed(3)
        .progress_every(25)
        .named(name)
    };
    let reference = engine.submit(spec("ref"));
    let mut reference_ticks: HashMap<u64, String> = HashMap::new();
    for event in reference.progress() {
        if let JobEvent::Progress {
            iteration, delta, ..
        } = event
        {
            reference_ticks.insert(iteration, f64_to_bits_hex(delta));
        }
    }
    reference.join().expect("reference run completes");

    // The same request over the wire, cancelled after the third tick by
    // a second connection of the same tenant.
    let server = serve(engine.clone(), ServeConfig::default());
    let mut observer = connect(&server, "acme");
    let mut controller = connect(&server, "acme");
    let mut train = adult_train(60_000, 3, "cut");
    train.epsilon = Some(1e-12);
    train.progress_every = Some(25);
    let job = observer.submit(&train).expect("submit");

    let mut wire_ticks: Vec<(u64, String)> = Vec::new();
    let mut cancel_sent = false;
    let mut saw_cancelled_event = false;
    let status = observer
        .observe(job, 0, |_, event| match event {
            WireEvent::Progress {
                iteration,
                delta_bits,
                ..
            } => {
                wire_ticks.push((*iteration, delta_bits.clone()));
                if wire_ticks.len() == 3 && !cancel_sent {
                    cancel_sent = true;
                    controller.cancel(job).expect("cancel over the wire");
                }
            }
            WireEvent::Cancelled { iterations } => {
                saw_cancelled_event = true;
                assert!(*iterations > 0, "partial progress must be reported");
            }
            _ => {}
        })
        .expect("observe");
    assert_eq!(status, "cancelled");
    assert!(saw_cancelled_event);
    assert!(wire_ticks.len() >= 3);

    let outcome = observer.join(job).expect("join");
    assert_eq!(outcome.status, "cancelled");
    let iterations = outcome.iterations.expect("partial iteration count");
    assert!(
        iterations > 0 && iterations < 60_000,
        "cancellation must land mid-run, got {iterations}"
    );
    assert!(outcome.weights.is_none(), "no model for a cancelled job");
    assert!(engine.model("acme:cut").is_none());

    // Prefix exactness: every tick the cancelled wire run emitted is
    // bit-identical to the uncancelled reference at that iteration.
    for (iteration, bits) in &wire_ticks {
        assert_eq!(
            Some(bits),
            reference_ticks.get(iteration),
            "tick at iteration {iteration} must match the reference"
        );
    }
}

#[test]
fn malformed_and_oversized_frames_get_typed_errors_and_the_connection_survives() {
    let config = ServeConfig {
        max_frame: 4096,
        ..ServeConfig::default()
    };
    let server = serve(Engine::new(), config);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let expect_err = |client: &mut Client, expected: &str| match client
        .read_response()
        .expect("typed response, live socket")
    {
        Response::Err(e) => assert_eq!(e.code, expected),
        Response::Ok(p) => panic!("expected {expected}, got {p:?}"),
    };

    // A fuzz batch of malformed payloads: every one must be answered
    // with `bad_frame` on a connection that stays alive.
    let malformed: [&[u8]; 8] = [
        b"",
        b"not json at all",
        b"42",
        b"\"NoSuchVerb\"",
        b"{\"Submit\":{}}",
        b"{\"Hello\":{\"tenant\":7}}",
        b"[1,2",
        b"\xff\xfe\x00garbage",
    ];
    for payload in malformed {
        client.send_raw(payload).expect("send");
        expect_err(&mut client, code::BAD_FRAME);
    }
    // Hostile nesting beyond the parser's depth cap is a typed refusal
    // too, not a stack overflow.
    let deep = "[".repeat(2_000);
    client.send_raw(deep.as_bytes()).expect("send");
    expect_err(&mut client, code::BAD_FRAME);

    // An oversized frame is drained and refused; the stream stays in
    // sync.
    client.send_raw(&vec![b'x'; 8192]).expect("send oversized");
    expect_err(&mut client, code::OVERSIZED_FRAME);

    assert_eq!(server.protocol_errors(), 10);

    // A generated batch on the same connection: fixed-seed mutants of
    // three valid requests (byte flips, truncations, nesting bombs,
    // duplicate and unknown keys, runs past the frame cap). No `Hello`
    // has been sent yet, so a mutant that still parses is answered
    // `hello_required`; every other one is a counted framing violation,
    // `bad_frame` or — grown past the cap — `oversized_frame`. Each gets
    // exactly one typed answer and the connection stays in sync.
    let seeds: Vec<Vec<u8>> = [
        Request::Submit {
            train: adult_train(10, 0, "fuzz"),
        },
        Request::Observe {
            job: 1,
            from: Some(0),
        },
        Request::Predict {
            model: "m".into(),
            source: WireSource::File("a.csv".into()),
        },
    ]
    .iter()
    .map(|request| {
        serde_json::to_string(request)
            .expect("serialize")
            .into_bytes()
    })
    .collect();
    let limits = mutate::Limits {
        bomb_depth: 3_000,
        long_run: 8_192,
    };
    let mut rng = proptest::TestRng::for_test("serving::malformed_frames");
    let mut violations = 0;
    for case in 0..600 {
        let mutant = mutate::mutate(&mut rng, &seeds[case % seeds.len()], limits);
        client.send_raw(&mutant).expect("send");
        match client.read_response().expect("typed response, live socket") {
            Response::Err(e) if e.code == code::HELLO_REQUIRED => {}
            Response::Err(e) if e.code == code::BAD_FRAME || e.code == code::OVERSIZED_FRAME => {
                violations += 1;
            }
            other => panic!("mutant #{case} got {other:?}"),
        }
    }
    assert!(violations > 300, "most mutants are malformed: {violations}");
    assert_eq!(server.protocol_errors(), 10 + violations);

    // The same connection still serves real traffic afterwards.
    client.hello("acme").expect("hello after fuzz");
    let job = client.submit(&adult_train(10, 0, "ok")).expect("submit");
    assert_eq!(client.join(job).expect("join").status, "completed");
}

#[test]
fn hello_gates_verbs_and_reports_the_rng_stream_version() {
    let server = serve(Engine::new(), ServeConfig::default());

    // Verbs before Hello are refused with hello_required.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.stats() {
        Err(ClientError::Server(e)) => assert_eq!(e.code, code::HELLO_REQUIRED),
        other => panic!("expected hello_required, got {other:?}"),
    }

    // A protocol version mismatch is refused with unsupported_protocol.
    match client.call(&Request::Hello {
        tenant: "acme".into(),
        protocol: Some(99),
    }) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, code::UNSUPPORTED_PROTOCOL),
        other => panic!("expected unsupported_protocol, got {other:?}"),
    }

    // A proper hello reports the server, the protocol it negotiated (the
    // client asks for the raw weight block), and the RNG stream version
    // that pins bit-level reproducibility.
    let hello = client.hello("acme").expect("hello");
    assert!(hello.server.starts_with("ml4all-serve "));
    assert_eq!(hello.protocol, PROTOCOL_RAW_WEIGHTS);
    assert_eq!(hello.rng_stream_version, ml4all::RNG_STREAM_VERSION);
    assert_eq!(hello.max_frame, ml4all_serve::DEFAULT_MAX_FRAME as u64);
    client.stats().expect("stats after hello");

    // A hello that names no protocol, or protocol 1, gets the JSON default.
    for protocol in [None, Some(PROTOCOL_VERSION)] {
        match client.call(&Request::Hello {
            tenant: "acme".into(),
            protocol,
        }) {
            Ok(protocol::Payload::Hello { protocol, .. }) => {
                assert_eq!(protocol, PROTOCOL_VERSION);
            }
            other => panic!("expected Hello, got {other:?}"),
        }
    }
}

#[test]
fn admission_refuses_over_quota_submissions_with_typed_busy_backpressure() {
    let config = ServeConfig {
        global_in_flight: 1,
        default_quota: TenantQuota {
            max_in_flight: 1,
            max_queued_bytes: 700,
        },
        ..ServeConfig::default()
    };
    let server = serve(Engine::new(), config);
    let mut client = connect(&server, "acme");

    // A long-running job occupies the single in-flight slot…
    let mut hog = adult_train(5_000_000, 0, "hog");
    hog.epsilon = Some(1e-12);
    hog.progress_every = Some(1);
    let hog_job = client.submit(&hog).expect("submit hog");
    // …wait until it is actually dispatched (its slot held, queue
    // empty), so the byte quota below fills deterministically.
    loop {
        let stats = client.stats().expect("stats");
        if stats.in_flight == 1 && stats.queued == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    // …then small submissions queue until the byte quota fills, at
    // which point the server answers typed `busy` with a retry hint.
    let mut queued = Vec::new();
    let busy = loop {
        match client.submit(&adult_train(5, 0, &format!("q{}", queued.len()))) {
            Ok(job) => queued.push(job),
            Err(e) => break e,
        }
        assert!(queued.len() < 50, "quota never filled");
    };
    assert!(busy.is_busy(), "expected busy, got {busy:?}");
    match busy {
        ClientError::Server(e) => {
            assert_eq!(e.code, code::BUSY);
            assert!(e.retry_after_ms.unwrap_or(0) > 0, "hint required");
        }
        other => panic!("expected server busy, got {other:?}"),
    }
    assert!(!queued.is_empty(), "some submissions fit the quota");

    // Nothing admitted was dropped: cancel the hog and every queued job
    // runs to completion.
    client.cancel(hog_job).expect("cancel hog");
    assert_eq!(client.join(hog_job).expect("join hog").status, "cancelled");
    for job in queued {
        assert_eq!(client.join(job).expect("join queued").status, "completed");
    }
}

#[test]
fn stats_job_table_walks_queued_running_and_terminal_rows() {
    let config = ServeConfig {
        global_in_flight: 1,
        ..ServeConfig::default()
    };
    let server = serve(Engine::new(), config);
    let mut client = connect(&server, "acme");
    let row = |client: &mut Client, job: u64| {
        let stats = client.stats().expect("stats");
        let jobs: Vec<u64> = stats.jobs.iter().map(|row| row.job).collect();
        assert!(jobs.is_sorted(), "rows are in submission order: {jobs:?}");
        stats
            .jobs
            .into_iter()
            .find(|row| row.job == job)
            .expect("own job is listed")
    };

    // The hog takes the only slot; the two behind it stay queued.
    let hog = client.submit(&hog_train("hog")).expect("submit hog");
    let next = client.submit(&adult_train(5, 0, "next")).expect("submit");
    let dropped = client
        .submit(&adult_train(5, 0, "dropped"))
        .expect("submit");
    let deadline = Instant::now() + Duration::from_secs(30);
    let hog_engine_id = loop {
        let hog_row = row(&mut client, hog);
        if hog_row.status == "running" {
            break hog_row.engine_id.expect("a running job was dispatched");
        }
        // Not yet picked up by a worker: `queued`, with or without an id.
        assert_eq!(hog_row.status, "queued");
        assert!(Instant::now() < deadline, "hog never started");
        std::thread::sleep(Duration::from_millis(5));
    };
    for queued in [next, dropped] {
        let queued_row = row(&mut client, queued);
        assert_eq!(queued_row.status, "queued");
        assert_eq!(queued_row.engine_id, None);
    }
    assert_eq!(row(&mut client, next).name.as_deref(), Some("next"));

    // Cancelled while queued: terminal without ever reaching the engine.
    // Cancelled while running: terminal, engine id kept.
    client.cancel(dropped).expect("cancel queued");
    client.cancel(hog).expect("cancel hog");
    assert_eq!(client.join(hog).expect("join hog").status, "cancelled");
    assert_eq!(client.join(next).expect("join next").status, "completed");
    assert_eq!(client.join(dropped).expect("join").status, "cancelled");

    let hog_row = row(&mut client, hog);
    assert_eq!(hog_row.status, "cancelled");
    assert_eq!(hog_row.engine_id, Some(hog_engine_id));
    let next_row = row(&mut client, next);
    assert_eq!(next_row.status, "completed");
    assert!(next_row.engine_id.expect("dispatched") > hog_engine_id);
    let dropped_row = row(&mut client, dropped);
    assert_eq!(dropped_row.status, "cancelled");
    assert_eq!(dropped_row.engine_id, None);
}

/// Raw-socket peer: complete the Hello handshake without a
/// [`Client`] so the test controls every byte on the wire afterwards.
fn raw_hello(server: &Server, tenant: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    protocol::write_message(
        &mut (&stream),
        &Request::Hello {
            tenant: tenant.into(),
            protocol: Some(PROTOCOL_VERSION),
        },
    )
    .expect("hello");
    match protocol::read_frame(&mut reader, 1 << 20).expect("hello response") {
        protocol::FrameIn::Frame(_) => {}
        other => panic!("expected hello frame, got {other:?}"),
    }
    (stream, reader)
}

/// Read one response frame a single byte at a time.
fn read_response_byte_by_byte(stream: &mut TcpStream) -> Response {
    let mut header = [0u8; 4];
    for byte in header.iter_mut() {
        stream
            .read_exact(std::slice::from_mut(byte))
            .expect("header byte");
    }
    let len = u32::from_be_bytes(header) as usize;
    let mut payload = vec![0u8; len];
    for byte in payload.iter_mut() {
        stream
            .read_exact(std::slice::from_mut(byte))
            .expect("payload byte");
    }
    serde_json::from_slice(&payload).expect("parse response")
}

/// A long-running, nearly silent job: occupies its slot until cancelled
/// and emits almost no progress events.
fn hog_train(name: &str) -> WireTrain {
    let mut train = adult_train(2_000_000_000, 0, name);
    train.epsilon = Some(1e-12);
    train.progress_every = Some(1_000_000_000);
    train
}

#[test]
fn byte_at_a_time_and_pipelined_frames_get_correct_responses() {
    let server = serve(Engine::new(), ServeConfig::default());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // Dribble the Hello frame one byte per syscall — the incremental
    // decoder must assemble it across arbitrarily small reads.
    let hello = protocol::encode_frame(&Request::Hello {
        tenant: "dribble".into(),
        protocol: Some(PROTOCOL_VERSION),
    })
    .expect("encode");
    for (i, byte) in hello.iter().enumerate() {
        stream.write_all(std::slice::from_ref(byte)).expect("write");
        if i % 7 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    match read_response_byte_by_byte(&mut stream) {
        Response::Ok(ml4all_serve::Payload::Hello { .. }) => {}
        other => panic!("expected hello, got {other:?}"),
    }

    // Two pipelined requests in ONE write: a fresh server assigns job 1,
    // so Submit and Join{1} can cross a frame boundary in one segment.
    // The server must answer both, in order.
    let mut pipelined = protocol::encode_frame(&Request::Submit {
        train: adult_train(5, 0, "dribble"),
    })
    .expect("encode submit");
    pipelined.extend_from_slice(
        &protocol::encode_frame(&Request::Join { job: 1 }).expect("encode join"),
    );
    stream.write_all(&pipelined).expect("pipelined write");
    match read_response_byte_by_byte(&mut stream) {
        Response::Ok(ml4all_serve::Payload::Submitted { job: 1 }) => {}
        other => panic!("expected submitted job 1, got {other:?}"),
    }
    match read_response_byte_by_byte(&mut stream) {
        Response::Ok(ml4all_serve::Payload::Joined(outcome)) => {
            assert_eq!(outcome.status, "completed");
        }
        other => panic!("expected joined, got {other:?}"),
    }
}

#[test]
fn half_open_connections_are_reaped_without_protocol_errors() {
    let server = serve(Engine::new(), ServeConfig::default());
    let mut control = connect(&server, "ops");
    let baseline = control.server_stats().expect("stats").active_connections;

    // Eight peers send a partial frame header and then vanish. The
    // partial header is not a protocol error — the peer is simply gone
    // mid-frame — but the reactor must notice the close and reap them.
    let half_open: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
            stream.write_all(&[0x00, 0x01]).expect("partial header");
            stream
        })
        .collect();
    let wait_for = |control: &mut Client, expected: u64| {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let active = control.server_stats().expect("stats").active_connections;
            if active == expected {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "active_connections stuck at {active}, wanted {expected}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    };
    wait_for(&mut control, baseline + 8);
    drop(half_open);
    wait_for(&mut control, baseline);
    assert_eq!(
        server.protocol_errors(),
        0,
        "half-open is not a protocol error"
    );
}

#[test]
fn observer_swarm_shares_the_reactor_and_replays_bit_identically() {
    let server = serve(Engine::new(), ServeConfig::default());
    let mut control = connect(&server, "watch");
    let job = control.submit(&hog_train("watched")).expect("submit");
    loop {
        if control.stats().expect("stats").in_flight >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let threads = || -> Option<u64> {
        std::fs::read_to_string("/proc/self/status")
            .ok()?
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
    };
    let threads_before = threads();

    // 256 observers attach as raw sockets — no client threads, and
    // (the point of the reactor) no server threads either.
    const SWARM: usize = 256;
    let mut swarm: Vec<(TcpStream, BufReader<TcpStream>)> = (0..SWARM)
        .map(|_| {
            let (stream, reader) = raw_hello(&server, "watch");
            protocol::write_message(&mut (&stream), &Request::Observe { job, from: Some(0) })
                .expect("observe");
            (stream, reader)
        })
        .collect();
    let baseline = control.server_stats().expect("stats").active_connections;
    assert!(baseline > SWARM as u64, "swarm registered: {baseline}");

    if let (Some(before), Some(after)) = (threads_before, threads()) {
        // Tolerance absorbs unrelated tests starting servers in this
        // process; a thread-per-connection server would add 256 here.
        assert!(
            after < before + 8,
            "observer swarm grew the thread count {before} -> {after}"
        );
    }

    // Terminate the watched job; every parked stream gets the terminal
    // frames pushed, and all of them see byte-identical sequences.
    control.cancel(job).expect("cancel");
    assert_eq!(control.join(job).expect("join").status, "cancelled");

    let drain = |reader: &mut BufReader<TcpStream>| -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        loop {
            match protocol::read_frame(reader, 1 << 20).expect("frame") {
                protocol::FrameIn::Frame(payload) => {
                    let done = String::from_utf8_lossy(&payload).contains("ObserveEnd");
                    frames.push(payload);
                    if done {
                        return frames;
                    }
                }
                other => panic!("observer stream broke: {other:?}"),
            }
        }
    };
    let reference: Vec<Vec<u8>> = drain(&mut swarm[0].1);
    assert!(
        reference
            .iter()
            .any(|f| String::from_utf8_lossy(f).contains("Cancelled")),
        "terminal event must be pushed"
    );
    for (i, (_stream, reader)) in swarm.iter_mut().enumerate().skip(1) {
        assert_eq!(
            drain(reader),
            reference,
            "observer {i} saw different bytes than observer 0"
        );
    }

    // A latecomer replaying the now-terminal job gets the same bytes.
    let (stream, mut reader) = raw_hello(&server, "watch");
    protocol::write_message(&mut (&stream), &Request::Observe { job, from: Some(0) })
        .expect("late observe");
    assert_eq!(
        drain(&mut reader),
        reference,
        "replay must be bit-identical"
    );
}

#[test]
fn stalled_readers_are_disconnected_as_slow_consumers() {
    // A tight write-buffer cap so a stalled reader trips it quickly.
    let config = ServeConfig {
        max_write_buffer: 16 << 10,
        ..ServeConfig::default()
    };
    let server = serve(Engine::new(), config);
    let mut control = connect(&server, "firehose");

    // A chatty job: one event per iteration, ~30 MB of event frames —
    // far more than the kernel socket buffers plus the 16 KiB cap.
    let mut chatty = adult_train(200_000, 0, "chatty");
    chatty.epsilon = Some(1e-12);
    chatty.progress_every = Some(1);
    let job = control.submit(&chatty).expect("submit");

    // The observer attaches and then never reads.
    let (stream, mut reader) = raw_hello(&server, "firehose");
    protocol::write_message(&mut (&stream), &Request::Observe { job, from: Some(0) })
        .expect("observe");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = control.server_stats().expect("stats");
        if stats.slow_consumer_disconnects >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "stalled reader never tripped the write-buffer cap"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Now drain what the server managed to send: a contiguous prefix of
    // event frames, then exactly one `slow_consumer` error, then EOF —
    // frame alignment is preserved even at the cut.
    let mut next_seq = 0u64;
    let mut saw_error = false;
    loop {
        match protocol::read_frame(&mut reader, 1 << 20).expect("frame") {
            protocol::FrameIn::Frame(payload) => {
                assert!(!saw_error, "no frames may follow the slow_consumer error");
                let response: Response = serde_json::from_slice(&payload).expect("parse");
                match response {
                    Response::Ok(ml4all_serve::Payload::Event { seq, .. }) => {
                        assert_eq!(seq, next_seq, "delivered events must be a prefix");
                        next_seq += 1;
                    }
                    Response::Err(e) => {
                        assert_eq!(e.code, code::SLOW_CONSUMER);
                        saw_error = true;
                    }
                    other => panic!("unexpected frame: {other:?}"),
                }
            }
            protocol::FrameIn::Eof => break,
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(
        saw_error,
        "the disconnect must carry a typed slow_consumer error"
    );
    assert!(next_seq > 0, "some events were delivered before the stall");
    assert_eq!(
        control
            .server_stats()
            .expect("stats")
            .slow_consumer_disconnects,
        1
    );

    // The job itself is unaffected by its slow observer.
    assert_eq!(control.join(job).expect("join").status, "completed");
}

#[test]
fn late_observer_drains_a_backlog_larger_than_the_write_cap() {
    // Same tight cap as the stalled-reader test — but this reader keeps
    // reading, so replay must be paced through the cap, not refused by
    // it. (A slow-consumer disconnect here would mean attach-time
    // backlog size is being confused with reader stalling.)
    let config = ServeConfig {
        max_write_buffer: 16 << 10,
        ..ServeConfig::default()
    };
    let server = serve(Engine::new(), config);
    let mut control = connect(&server, "archive");

    // ~2k buffered event frames (~300 KB) on a finished job: twenty
    // times the write cap.
    let mut chatty = adult_train(2_000, 0, "archived");
    chatty.epsilon = Some(1e-12);
    chatty.progress_every = Some(1);
    let job = control.submit(&chatty).expect("submit");
    assert_eq!(control.join(job).expect("join").status, "completed");

    let (stream, mut reader) = raw_hello(&server, "archive");
    protocol::write_message(&mut (&stream), &Request::Observe { job, from: Some(0) })
        .expect("observe");
    let mut next_seq = 0u64;
    loop {
        match protocol::read_frame(&mut reader, 1 << 20).expect("frame") {
            protocol::FrameIn::Frame(payload) => {
                if String::from_utf8_lossy(&payload).contains("ObserveEnd") {
                    break;
                }
                let response: Response = serde_json::from_slice(&payload).expect("parse");
                match response {
                    Response::Ok(ml4all_serve::Payload::Event { seq, .. }) => {
                        assert_eq!(seq, next_seq, "replay must be gapless");
                        next_seq += 1;
                    }
                    other => panic!("unexpected frame: {other:?}"),
                }
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(
        next_seq >= 2_000,
        "full backlog must replay, got {next_seq} frames"
    );
    assert_eq!(
        control
            .server_stats()
            .expect("stats")
            .slow_consumer_disconnects,
        0,
        "a reader that keeps up is not a slow consumer"
    );
}

#[test]
fn join_pipelined_behind_a_paced_observe_is_answered_after_the_stream() {
    // The late observer's setup, with a `Join` pipelined behind the
    // `Observe` in one write: the join waits for the paced stream to end,
    // then answers with the job's own weights.
    let config = ServeConfig {
        max_write_buffer: 16 << 10,
        ..ServeConfig::default()
    };
    let server = serve(Engine::new(), config);
    let mut control = connect(&server, "archive");
    let mut chatty = adult_train(2_000, 0, "archived");
    chatty.epsilon = Some(1e-12);
    chatty.progress_every = Some(1);
    let job = control.submit(&chatty).expect("submit");
    let direct = control.join(job).expect("join");
    assert_eq!(direct.status, "completed");

    let (mut stream, mut reader) = raw_hello(&server, "archive");
    let mut pipelined =
        protocol::encode_frame(&Request::Observe { job, from: Some(0) }).expect("encode");
    pipelined.extend_from_slice(&protocol::encode_frame(&Request::Join { job }).expect("encode"));
    stream.write_all(&pipelined).expect("pipelined write");

    let mut next_seq = 0u64;
    let joined = loop {
        let response = match protocol::read_frame(&mut reader, 1 << 20).expect("frame") {
            protocol::FrameIn::Frame(payload) => {
                serde_json::from_slice::<Response>(&payload).expect("parse")
            }
            other => panic!("unexpected: {other:?}"),
        };
        match response {
            Response::Ok(ml4all_serve::Payload::Event { seq, .. }) => {
                assert_eq!(seq, next_seq, "replay must be gapless");
                next_seq += 1;
            }
            Response::Ok(ml4all_serve::Payload::ObserveEnd { status, .. }) => {
                assert_eq!(status, "completed");
                assert!(next_seq >= 2_000, "full backlog before ObserveEnd");
                match protocol::read_frame(&mut reader, 1 << 20).expect("frame") {
                    protocol::FrameIn::Frame(payload) => break payload,
                    other => panic!("expected the Joined frame, got {other:?}"),
                }
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    };
    match serde_json::from_slice::<Response>(&joined).expect("parse") {
        Response::Ok(ml4all_serve::Payload::Joined(outcome)) => {
            assert_eq!(outcome.status, "completed");
            assert!(outcome.weights_bits.is_some());
            assert_eq!(outcome.weights_bits, direct.weights_bits);
        }
        other => panic!("expected Joined, got {other:?}"),
    }
    assert_eq!(
        control
            .server_stats()
            .expect("stats")
            .slow_consumer_disconnects,
        0
    );
}

#[test]
fn a_join_larger_than_the_write_cap_is_answered() {
    // adult has d = 123, so its protocol-1 `Joined` frame is ≈ 5 KB: over
    // a 4 KiB cap it is paced into the empty buffer, not refused. The
    // protocol-2 answer, ≈ 1.2 KB, fits.
    let config = ServeConfig {
        max_write_buffer: 4 << 10,
        ..ServeConfig::default()
    };
    let server = serve(Engine::new(), config);
    let mut client = connect(&server, "wide");
    let job = client.submit(&adult_train(50, 0, "wide")).expect("submit");
    let outcome = client.join(job).expect("join");
    assert_eq!(outcome.status, "completed");
    assert_eq!(outcome.weights.expect("weights").len(), 123);
    let mut json = connect_v1(&server, "wide");
    let outcome = json.join(job).expect("protocol-1 join");
    assert_eq!(outcome.weights.expect("weights").len(), 123);
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.slow_consumer_disconnects, 0);
}

/// A client that asks for protocol 1: every answer is JSON.
fn connect_v1(server: &Server, tenant: &str) -> Client {
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let hello = Request::Hello {
        tenant: tenant.into(),
        protocol: Some(PROTOCOL_VERSION),
    };
    match client.call(&hello) {
        Ok(protocol::Payload::Hello { protocol, .. }) => assert_eq!(protocol, PROTOCOL_VERSION),
        other => panic!("expected Hello, got {other:?}"),
    }
    client
}

#[test]
fn a_protocol_1_and_a_protocol_2_connection_join_one_job_alike() {
    let server = serve(Engine::new(), ServeConfig::default());
    let mut raw = connect(&server, "acme");
    let mut json = connect_v1(&server, "acme");
    let completed = raw.submit(&adult_train(5, 3, "mixed")).expect("submit");
    let cancelled = raw.submit(&hog_train("hog")).expect("submit hog");
    raw.cancel(cancelled).expect("cancel");
    let missing = WireTrain::new("logistic", WireSource::Registry("no-such-set".into()));
    let failed = raw.submit(&missing).expect("submit");
    for (job, status) in [
        (completed, "completed"),
        (cancelled, "cancelled"),
        (failed, "failed"),
    ] {
        // Either protocol first, then the other: one outcome, bit for bit.
        let first = raw.join(job).expect("protocol-2 join");
        let second = json.join(job).expect("protocol-1 join");
        let third = raw.join(job).expect("protocol-2 join again");
        assert_eq!(first.status, status);
        assert_eq!(format!("{first:?}"), format!("{second:?}"), "job {job}");
        assert_eq!(format!("{first:?}"), format!("{third:?}"), "job {job}");

        // A protocol-1 join after protocol-2 joins reads the frame a
        // protocol-1 server writes: the derived encoding of the outcome.
        let (stream, mut reader) = raw_hello(&server, "acme");
        let payload = raw_call(&stream, &mut reader, &Request::Join { job });
        let today =
            serde_json::to_vec(&Response::Ok(protocol::Payload::Joined(first))).expect("encode");
        assert!(payload == today, "job {job}: protocol-1 bytes");
    }
    // The completed job's block carried every weight.
    let outcome = raw.join(completed).expect("join");
    assert_eq!(outcome.weights_bits.expect("weights").len(), 123);
}

#[test]
fn a_one_shot_answer_larger_than_the_write_cap_goes_out_into_an_empty_buffer() {
    let config = ServeConfig {
        max_write_buffer: 1 << 10,
        ..ServeConfig::default()
    };
    let server = serve(Engine::new(), config);
    let mut client = connect(&server, "narrow");
    let report = client
        .explain(&adult_train(50, 0, "narrow"), false)
        .expect("explain");
    assert_eq!(report.choices.len(), 11);
    let stats = client.server_stats().expect("stats");
    assert_eq!(stats.slow_consumer_disconnects, 0);
}

#[test]
fn a_job_cancelled_while_queued_streams_one_cancelled_event() {
    let config = ServeConfig {
        global_in_flight: 1,
        ..ServeConfig::default()
    };
    let server = serve(Engine::new(), config);
    let mut client = connect(&server, "acme");

    // The hog takes the only slot, so the next job stays queued until
    // the hog ends; it is cancelled before its turn comes.
    let hog = client.submit(&hog_train("hog")).expect("submit hog");
    let queued = client.submit(&adult_train(5, 0, "queued")).expect("submit");
    client.cancel(queued).expect("cancel queued");
    client.cancel(hog).expect("cancel hog");

    let mut events = Vec::new();
    let status = client
        .observe(queued, 0, |seq, event| events.push((seq, event.clone())))
        .expect("observe");
    assert!(
        matches!(events[..], [(0, WireEvent::Cancelled { iterations: 0 })]),
        "exactly one Cancelled event at seq 0, got {events:?}"
    );
    assert_eq!(status, "cancelled");

    let outcome = client.join(queued).expect("join");
    assert_eq!(outcome.status, "cancelled");
    assert_eq!(outcome.iterations, Some(0));
    assert!(outcome.weights.is_none() && outcome.weights_bits.is_none());

    assert_eq!(client.join(hog).expect("join hog").status, "cancelled");
    let stats = client.stats().expect("stats");
    assert_eq!((stats.in_flight, stats.queued), (0, 0));
}

#[test]
fn golden_wire_frame_conversation() {
    let server = serve(Engine::new(), ServeConfig::default());
    let mut transcript = String::new();
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = std::io::BufWriter::new(stream);

    let send_raw =
        |writer: &mut std::io::BufWriter<TcpStream>, transcript: &mut String, payload: &str| {
            transcript.push_str("C: ");
            transcript.push_str(payload);
            transcript.push('\n');
            protocol::write_frame(writer, payload.as_bytes()).expect("write");
            writer.flush().expect("flush");
        };
    let recv = |reader: &mut std::io::BufReader<TcpStream>, transcript: &mut String| -> String {
        match protocol::read_frame(reader, 16 << 20).expect("read") {
            protocol::FrameIn::Frame(payload) => {
                let text = String::from_utf8(payload).expect("utf8 frame");
                transcript.push_str("S: ");
                transcript.push_str(&text);
                transcript.push('\n');
                text
            }
            other => panic!("expected frame, got {other:?}"),
        }
    };
    let send =
        |writer: &mut std::io::BufWriter<TcpStream>, transcript: &mut String, request: &Request| {
            let payload = serde_json::to_string(request).expect("serialize");
            transcript.push_str("C: ");
            transcript.push_str(&payload);
            transcript.push('\n');
            protocol::write_frame(writer, payload.as_bytes()).expect("write");
            writer.flush().expect("flush");
        };

    // Hello, then a tiny fixed-iteration job — every response below is
    // deterministic (simulated time only, no wall clock on the wire).
    send(
        &mut writer,
        &mut transcript,
        &Request::Hello {
            tenant: "acme".into(),
            protocol: Some(ml4all_serve::PROTOCOL_VERSION),
        },
    );
    recv(&mut reader, &mut transcript);
    let mut train = adult_train(4, 0, "g");
    train.progress_every = Some(2);
    send(&mut writer, &mut transcript, &Request::Submit { train });
    recv(&mut reader, &mut transcript);

    // Observe replays the full buffered stream: PlanChosen, two ticks,
    // Completed, then the terminator.
    send(
        &mut writer,
        &mut transcript,
        &Request::Observe {
            job: 1,
            from: Some(0),
        },
    );
    loop {
        let text = recv(&mut reader, &mut transcript);
        if text.contains("ObserveEnd") {
            break;
        }
    }

    // Cancelling a finished job is an idempotent no-op.
    send(&mut writer, &mut transcript, &Request::Cancel { job: 1 });
    recv(&mut reader, &mut transcript);

    // A malformed frame gets a typed error on the same connection.
    send_raw(&mut writer, &mut transcript, "{oops");
    recv(&mut reader, &mut transcript);

    // Wait for the in-flight slot to clear so the stats frame is
    // deterministic (the event pump frees it just after ObserveEnd).
    {
        let mut poller = connect(&server, "acme");
        loop {
            let stats = poller.stats().expect("stats");
            if stats.global_in_flight == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    send(&mut writer, &mut transcript, &Request::Stats);
    recv(&mut reader, &mut transcript);

    assert_golden("wire_frames.txt", &transcript);
}

#[test]
fn a_tenants_predict_overtakes_another_tenants_burst_of_cold_explains() {
    // Two workers: the engine runtime is the only pool, and `Explain` and
    // `Predict` run in their tenant's lane of it — FIFO within a lane,
    // round-robin across lanes.
    let engine = Engine::new().with_runtime(Arc::new(Runtime::new(2)));
    let server = serve(engine, ServeConfig::default());
    let mut beta = connect(&server, "tenant-b");
    let trained = beta.submit(&adult_train(20, 0, "mine")).expect("submit");
    assert_eq!(beta.join(trained).expect("join").status, "completed");

    // Tenant A: six connections, six cold measured explains (distinct
    // seeds, so each one speculates and then profiles every plan).
    let alphas: Vec<Client> = (0..6).map(|_| connect(&server, "tenant-a")).collect();
    let frame_len = |request: &Request| serde_json::to_vec(request).expect("serialize").len() + 4;
    let stats_len = frame_len(&Request::ServerStats);
    let mut expected_in = beta.server_stats().expect("server stats").bytes_in;
    let answers: Arc<Mutex<Vec<&'static str>>> = Arc::default();
    let mut explainers = Vec::new();
    for (seed, mut alpha) in (100..).zip(alphas) {
        let mut train = adult_train(500, seed, "cold");
        train.epsilon = Some(0.01);
        let request = Request::Explain {
            train,
            measured: Some(true),
        };
        expected_in += frame_len(&request) as u64;
        alpha
            .send_raw(&serde_json::to_vec(&request).expect("serialize"))
            .expect("send explain");
        let answers = Arc::clone(&answers);
        explainers.push(std::thread::spawn(move || {
            let response = alpha.read_response().expect("explain answer");
            assert!(matches!(response, Response::Ok(_)), "{response:?}");
            answers.lock().unwrap().push("a");
        }));
    }
    // B asks only once the reactor has read all six explains, so they
    // are already queued in A's lane.
    loop {
        expected_in += stats_len as u64;
        if beta.server_stats().expect("server stats").bytes_in >= expected_in {
            break;
        }
    }
    beta.predict("mine", &WireSource::Registry("adult".into()))
        .expect("predict");
    answers.lock().unwrap().push("b");
    for explainer in explainers {
        explainer.join().expect("explainer");
    }

    let answers = answers.lock().unwrap();
    let before_b = answers.iter().take_while(|who| **who == "a").count();
    assert!(
        before_b < 3,
        "B's predict must not wait behind A's backlog: answer order {answers:?}"
    );
}

/// One request on a raw connection; the payload of its answer frame.
fn raw_call(stream: &TcpStream, reader: &mut BufReader<TcpStream>, request: &Request) -> Vec<u8> {
    protocol::write_message(&mut &*stream, request).expect("send");
    match protocol::read_frame(reader, 1 << 20).expect("answer") {
        protocol::FrameIn::Frame(payload) => payload,
        other => panic!("expected a frame, got {other:?}"),
    }
}

/// The `status` of a `Joined` answer's payload.
fn joined_status(payload: &[u8]) -> String {
    match serde_json::from_slice(payload).expect("decode") {
        Response::Ok(protocol::Payload::Joined(joined)) => joined.status,
        other => panic!("expected Joined, got {other:?}"),
    }
}

#[test]
fn a_late_join_reads_the_first_joins_bytes_on_any_connection() {
    // A finished job keeps its `Joined` frame only until a join takes it;
    // a later join is answered from a frame re-encoded from the job's
    // model and outcome, which must be the same bytes.
    let server = serve(Engine::new(), ServeConfig::default());
    let mut owner = connect(&server, "acme");
    let completed = owner.submit(&adult_train(5, 3, "late")).expect("submit");
    let cancelled = owner.submit(&hog_train("hog")).expect("submit hog");
    owner.cancel(cancelled).expect("cancel");
    let missing = WireTrain::new("logistic", WireSource::Registry("no-such-set".into()));
    let failed = owner.submit(&missing).expect("submit");

    let (first, mut first_reader) = raw_hello(&server, "acme");
    let (second, mut second_reader) = raw_hello(&server, "acme");
    for stream in [&first, &second] {
        // A join that is never answered fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
    }
    for (job, status) in [
        (completed, "completed"),
        (cancelled, "cancelled"),
        (failed, "failed"),
    ] {
        let join = Request::Join { job };
        let taken = raw_call(&first, &mut first_reader, &join);
        assert_eq!(joined_status(&taken), status);
        for _ in 0..2 {
            let again = raw_call(&first, &mut first_reader, &join);
            assert!(
                again == taken,
                "job {job}: a late join on the same connection"
            );
            let other = raw_call(&second, &mut second_reader, &join);
            assert!(
                other == taken,
                "job {job}: a late join on another connection"
            );
        }
    }
    let weights = owner.join(completed).expect("join").weights_bits;
    assert_eq!(weights.expect("weights").len(), 123);
}

#[test]
fn two_joins_waiting_on_a_running_job_both_get_its_frame() {
    let server = serve(Engine::new(), ServeConfig::default());
    let mut owner = connect(&server, "acme");
    let hog = owner.submit(&hog_train("hog")).expect("submit hog");

    // Both joins are read by the reactor, and so wait on the running
    // job, before the job is cancelled.
    let join = Request::Join { job: hog };
    let joiners: Vec<_> = (0..2).map(|_| raw_hello(&server, "acme")).collect();
    for (stream, _) in &joiners {
        // A join that is never answered fails the test instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
    }
    let frame_len = |request: &Request| serde_json::to_vec(request).expect("serialize").len() + 4;
    let mut expected_in = owner.server_stats().expect("server stats").bytes_in;
    for (stream, _) in &joiners {
        protocol::write_message(&mut &*stream, &join).expect("send join");
        expected_in += frame_len(&join) as u64;
    }
    loop {
        expected_in += frame_len(&Request::ServerStats) as u64;
        if owner.server_stats().expect("server stats").bytes_in >= expected_in {
            break;
        }
    }
    owner.cancel(hog).expect("cancel");

    let answers: Vec<Vec<u8>> = joiners
        .into_iter()
        .map(
            |(_stream, mut reader)| match protocol::read_frame(&mut reader, 1 << 20) {
                Ok(protocol::FrameIn::Frame(payload)) => payload,
                other => panic!("expected a frame, got {other:?}"),
            },
        )
        .collect();
    assert_eq!(joined_status(&answers[0]), "cancelled");
    assert!(answers[0] == answers[1], "both joins read one frame");
}
