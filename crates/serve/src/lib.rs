//! `ml4all-serve`: a multi-tenant network serving front end over the
//! [`ml4all::Engine`].
//!
//! The paper's system is a long-running service in spirit — declarative
//! training requests arrive, the cost-based optimizer picks a plan, the
//! plan cache amortizes repeated decisions. This crate puts an actual
//! wire on that: a TCP server speaking length-prefixed JSON frames, with
//! a raw weight block negotiated for `Join` ([`protocol`]), per-tenant
//! admission control with typed `busy` backpressure and
//! deficit-round-robin fairness ([`admission`]), and a
//! blocking [`client`] used by the CLI, the load generator, and the
//! tests.
//!
//! Connection handling is a single-threaded [`reactor`]: nonblocking
//! sockets multiplexed over raw `epoll` syscall wrappers (the workspace
//! is offline-vendored, so no `mio`), an incremental frame decoder, and
//! push-mode event fan-out — a thousand idle observers cost file
//! descriptors, not threads. The engine's worker pool still does the
//! heavy lifting; see [`server`] for the architecture sketch.
//!
//! **Linux only**, the `ml4all` CLI binary included: `epoll` is the one
//! readiness backend.
//!
//! ```no_run
//! use ml4all::Engine;
//! use ml4all_serve::{Client, ServeConfig, Server, WireSource, WireTrain};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::start(Engine::new(), ServeConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! client.hello("acme")?;
//! let mut train = WireTrain::new("logistic", WireSource::Registry("adult".into()));
//! train.max_iter = Some(25);
//! let job = client.submit(&train)?;
//! let outcome = client.join(job)?;
//! assert_eq!(outcome.status, "completed");
//! # Ok(())
//! # }
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

#[cfg(not(target_os = "linux"))]
compile_error!("ml4all-serve is Linux-only: its reactor is built on epoll");

pub mod admission;
pub mod client;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use admission::{Admission, Busy, TenantQuota};
pub use client::{Client, ClientError, HelloInfo, PredictInfo};
pub use protocol::{
    code, f64_from_bits_hex, f64_to_bits_hex, JoinedReply, Payload, Request, Response, WireError,
    WireEvent, WireJob, WireReport, WireServerStats, WireSource, WireStats, WireTrain, WireTrained,
    DEFAULT_MAX_FRAME, PROTOCOL_RAW_WEIGHTS, PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server};
