//! A small blocking client for the serving protocol — used by the CLI,
//! the load generator, and the integration tests.

use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use ml4all::JobStatus;

use crate::protocol::{
    code, encode_frame_into, read_frame, write_frame, FrameIn, Payload, Request, Response,
    WireError, WireEvent, WireReport, WireServerStats, WireSource, WireStats, WireTrain,
    WireTrained, PROTOCOL_RAW_WEIGHTS, PROTOCOL_VERSION,
};

/// Client-side cap on a response frame (joins carry whole weight
/// vectors, so it is roomier than the server's request cap).
const CLIENT_MAX_FRAME: usize = 16 << 20;

/// What [`Client::hello`] learned about the server.
#[derive(Debug, Clone)]
pub struct HelloInfo {
    /// Server name and version.
    pub server: String,
    /// Wire protocol version in effect.
    pub protocol: u32,
    /// The server's deterministic RNG stream version.
    pub rng_stream_version: u32,
    /// The server's frame payload cap in bytes.
    pub max_frame: u64,
}

/// Scores from [`Client::predict`].
#[derive(Debug, Clone)]
pub struct PredictInfo {
    /// Points scored.
    pub n: u64,
    /// Mean squared error.
    pub mse: f64,
    /// Sign accuracy (classification models only).
    pub accuracy: Option<f64>,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server violated the protocol (unexpected payload, bad
    /// framing, closed mid-call).
    Protocol(String),
    /// The server answered with a typed error
    /// ([`WireError::retry_after_ms`] carries the backoff for `busy`).
    Server(WireError),
}

impl ClientError {
    /// `true` when the error is `busy` backpressure — retry after the
    /// hinted delay instead of failing.
    pub fn is_busy(&self) -> bool {
        matches!(self, Self::Server(e) if e.code == code::BUSY)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "io error: {e}"),
            Self::Protocol(m) => write!(f, "protocol violation: {m}"),
            Self::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// A blocking connection to a serving front end.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The outgoing frame, built in place and written in one call;
    /// reused across requests.
    frame: Vec<u8>,
    /// The server's last `Hello` answer named protocol 2: a completed
    /// `Joined` is followed by its weight block.
    raw_weights: bool,
}

impl Client {
    /// Connect (no `Hello` yet — call [`Client::hello`] next).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Request/response RPC: a Nagle-delayed request write stalls the
        // whole round trip, so always send eagerly.
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            frame: Vec::new(),
            raw_weights: false,
        })
    }

    /// Authenticate as `tenant` and negotiate the protocol version:
    /// protocol 2, whose `Joined` sends the weights as raw bytes, or
    /// protocol 1 from a server that refuses 2 as `unsupported_protocol`.
    /// Every verb answers the same under both.
    pub fn hello(&mut self, tenant: &str) -> Result<HelloInfo, ClientError> {
        let hello = |protocol| Request::Hello {
            tenant: tenant.to_string(),
            protocol: Some(protocol),
        };
        let answer = match self.call(&hello(PROTOCOL_RAW_WEIGHTS)) {
            Err(ClientError::Server(e)) if e.code == code::UNSUPPORTED_PROTOCOL => {
                self.call(&hello(PROTOCOL_VERSION))
            }
            answer => answer,
        };
        match answer? {
            Payload::Hello {
                server,
                protocol,
                rng_stream_version,
                max_frame,
            } => Ok(HelloInfo {
                server,
                protocol,
                rng_stream_version,
                max_frame,
            }),
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// Submit a training job; returns its server-assigned id. `busy`
    /// backpressure surfaces as [`ClientError::Server`] (check
    /// [`ClientError::is_busy`]).
    pub fn submit(&mut self, train: &WireTrain) -> Result<u64, ClientError> {
        match self.call(&Request::Submit {
            train: train.clone(),
        })? {
            Payload::Submitted { job } => Ok(job),
            other => Err(unexpected("Submitted", &other)),
        }
    }

    /// Stream a job's events from sequence `from`, invoking `visit` per
    /// event, until the stream terminates; returns the terminal status.
    pub fn observe(
        &mut self,
        job: u64,
        from: u64,
        mut visit: impl FnMut(u64, &WireEvent),
    ) -> Result<String, ClientError> {
        self.send(&Request::Observe {
            job,
            from: Some(from),
        })?;
        loop {
            let response = self.read_response_inner()?;
            match expect_ok(response)? {
                Payload::Event { seq, event } => visit(seq, &event),
                Payload::ObserveEnd { status, .. } => return Ok(status),
                other => return Err(unexpected("Event/ObserveEnd", &other)),
            }
        }
    }

    /// Request cooperative cancellation of a job.
    pub fn cancel(&mut self, job: u64) -> Result<(), ClientError> {
        match self.call(&Request::Cancel { job })? {
            Payload::Cancelled { .. } => Ok(()),
            other => Err(unexpected("Cancelled", &other)),
        }
    }

    /// Block until a job finishes; returns its outcome (bit-exact
    /// weights included on success), the same under either protocol.
    pub fn join(&mut self, job: u64) -> Result<WireTrained, ClientError> {
        match self.call(&Request::Join { job })? {
            Payload::Joined(outcome) => Ok(outcome),
            other => Err(unexpected("Joined", &other)),
        }
    }

    /// The optimizer's costed plan table for a request.
    pub fn explain(
        &mut self,
        train: &WireTrain,
        measured: bool,
    ) -> Result<WireReport, ClientError> {
        match self.call(&Request::Explain {
            train: train.clone(),
            measured: Some(measured),
        })? {
            Payload::Explained(report) => Ok(report),
            other => Err(unexpected("Explained", &other)),
        }
    }

    /// Score `source` with one of this tenant's bound models.
    pub fn predict(
        &mut self,
        model: &str,
        source: &WireSource,
    ) -> Result<PredictInfo, ClientError> {
        match self.call(&Request::Predict {
            model: model.to_string(),
            source: source.clone(),
        })? {
            Payload::Predicted { n, mse, accuracy } => Ok(PredictInfo { n, mse, accuracy }),
            other => Err(unexpected("Predicted", &other)),
        }
    }

    /// This tenant's admission counters and job table.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.call(&Request::Stats)? {
            Payload::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// The server's process-wide reactor counters (connections, bytes,
    /// wakeups, slow-consumer disconnects) — operational telemetry, not
    /// part of any deterministic surface.
    pub fn server_stats(&mut self) -> Result<WireServerStats, ClientError> {
        match self.call(&Request::ServerStats)? {
            Payload::ServerStats(stats) => Ok(stats),
            other => Err(unexpected("ServerStats", &other)),
        }
    }

    /// One request/response exchange, unwrapping `Ok`. A `Hello` answer
    /// sets the protocol the next answers are read under, and a completed
    /// `Joined` under protocol 2 comes back with its weight block read
    /// into `weights` and `weights_bits`.
    pub fn call(&mut self, request: &Request) -> Result<Payload, ClientError> {
        self.send(request)?;
        let response = self.read_response_inner()?;
        expect_ok(response)
    }

    /// Write an arbitrary payload as one frame — for protocol tests
    /// (malformed JSON, hostile sizes); pair with
    /// [`Client::read_response`].
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        self.frame.clear();
        write_frame(&mut self.frame, payload)?;
        self.writer.write_all(&self.frame)
    }

    /// Read one raw response frame — for protocol tests.
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        self.read_response_inner()
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        self.frame.clear();
        encode_frame_into(&mut self.frame, request)?;
        self.writer.write_all(&self.frame)
    }

    fn read_response_inner(&mut self) -> Result<Response, ClientError> {
        let payload = self.read_payload()?;
        let mut response = serde_json::from_slice(&payload)
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))?;
        match &mut response {
            Response::Ok(Payload::Hello { protocol, .. }) => {
                self.raw_weights = *protocol == PROTOCOL_RAW_WEIGHTS;
            }
            Response::Ok(Payload::Joined(joined))
                if self.raw_weights && joined.status == JobStatus::Completed.name() =>
            {
                let block = self.read_payload().map_err(|e| match e {
                    ClientError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                        ClientError::Protocol("eof inside the weight block".to_string())
                    }
                    e => e,
                })?;
                joined
                    .attach_weight_block(&block)
                    .map_err(ClientError::Protocol)?;
            }
            _ => {}
        }
        Ok(response)
    }

    /// The next frame's payload.
    fn read_payload(&mut self) -> Result<Vec<u8>, ClientError> {
        match read_frame(&mut self.reader, CLIENT_MAX_FRAME)? {
            FrameIn::Eof => Err(ClientError::Protocol(
                "server closed the connection mid-call".to_string(),
            )),
            FrameIn::Oversized { len } => Err(ClientError::Protocol(format!(
                "server sent an implausible {len}-byte frame"
            ))),
            FrameIn::Frame(payload) => Ok(payload),
        }
    }
}

/// Unwrap `Ok` or surface the server's typed error.
fn expect_ok(response: Response) -> Result<Payload, ClientError> {
    match response {
        Response::Ok(payload) => Ok(payload),
        Response::Err(e) => Err(ClientError::Server(e)),
    }
}

/// The server answered with a payload the verb cannot produce.
fn unexpected(wanted: &str, got: &Payload) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
