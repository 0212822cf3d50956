//! The serving front end's thread budget: `Server::start` adds exactly one
//! thread — the reactor — to a process whose engine runtime already exists,
//! and serving `Explain` and `Predict` adds none, because every job and
//! verb runs on the engine's one worker pool. A test binary of its own, so
//! no other test's threads come and go while it counts.

#![cfg(target_os = "linux")]

use ml4all::Engine;
use ml4all_serve::{Client, ServeConfig, Server, WireSource, WireTrain};

/// This process's threads, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn server_start_adds_only_the_reactor_thread() {
    let engine = Engine::new();
    let before = threads();
    let server = Server::start(engine, ServeConfig::default()).expect("bind");
    assert_eq!(threads(), before + 1, "the reactor is the one new thread");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.hello("acme").expect("hello");
    let mut train = WireTrain::new("logistic", WireSource::Registry("adult".into()));
    train.max_iter = Some(5);
    train.name = Some("m".into());
    client.explain(&train, false).expect("explain");
    let job = client.submit(&train).expect("submit");
    client.join(job).expect("join");
    client
        .predict("m", &WireSource::Registry("adult".into()))
        .expect("predict");
    assert_eq!(threads(), before + 1, "verbs run on the engine's pool");
}
