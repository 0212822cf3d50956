//! Checkpoint files: a versioned, checksummed on-disk snapshot of a GD
//! run at a wave boundary.
//!
//! A checkpoint captures everything the executor's loop mutates — the
//! model vector, the RNG stream position, the sampler cursor, the cost
//! ledger, and the iteration index — so a killed job can be restored and
//! continue **bit-identically** to the run that was interrupted: same
//! weights, same event stream suffix, same ledger totals. Identity
//! fields (a caller-supplied key hash, the plan name, and the RNG stream
//! version) bind the file to one logical job, so a stale or foreign
//! checkpoint is rejected with a typed error instead of silently
//! resuming the wrong run.
//!
//! # File format (version 1)
//!
//! Three lines of text, inspectable like the model format:
//!
//! ```text
//! ML4ACKPT v1
//! crc <16-hex FNV-1a-64 of the payload line>
//! <single-line JSON payload>
//! ```
//!
//! Every `f64` in the payload is stored as its IEEE-754 bit pattern (a
//! JSON integer), so the round trip is bit-exact by construction, NaNs
//! and signed zeros included. Files are written via
//! [`crate::slab::atomic_write`] (temp + fsync + rename), so a crash
//! mid-write leaves the previous checkpoint intact.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::ledger::{CostBreakdown, UsageMeter};
use crate::sampling::{SamplerSnapshot, SamplingMethod};
use crate::slab::atomic_write;

/// First line of every checkpoint file.
pub const CHECKPOINT_MAGIC: &str = "ML4ACKPT";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Errors from writing, reading, or validating checkpoint files.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying IO failure.
    Io(std::io::Error),
    /// The file is not a valid checkpoint (bad magic/version/payload).
    Format(String),
    /// The payload does not match its recorded checksum (torn or
    /// corrupted file).
    Checksum {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the payload as read.
        actual: u64,
    },
    /// A structurally valid checkpoint that belongs to a different job,
    /// plan, or RNG stream layout.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint io error: {e}"),
            Self::Format(why) => write!(f, "invalid checkpoint file: {why}"),
            Self::Checksum { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: recorded {expected:016x}, payload hashes to {actual:016x}"
            ),
            Self::Mismatch(why) => write!(f, "checkpoint does not match this job: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// FNV-1a 64-bit hash — the checkpoint checksum, and the stable hash the
/// engine uses to derive checkpoint file names from job keys.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The executor's full mutable state at a wave boundary: what a resumed
/// run needs to continue bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecState {
    /// Iterations completed (1-based count; the next iteration is
    /// `iteration + 1`).
    pub iteration: u64,
    /// Model vector after `iteration` updates.
    pub weights: Vec<f64>,
    /// Model vector one update earlier (convergence-delta operand).
    pub prev_weights: Vec<f64>,
    /// Convergence delta at `iteration`.
    pub final_delta: f64,
    /// `(iteration, delta)` convergence pairs recorded so far.
    pub error_seq: Vec<(u64, f64)>,
    /// xoshiro256++ state words of the training RNG stream.
    pub rng_state: [u64; 4],
    /// Sampler state, when the plan samples.
    pub sampler: Option<SamplerSnapshot>,
    /// Simulated-cost clock at the boundary.
    pub cost: CostBreakdown,
    /// Physical usage metered so far.
    pub usage: UsageMeter,
}

/// A checkpoint: executor state plus the identity fields binding it to
/// one logical job.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Caller-defined key hash (the engine hashes its plan-cache key), so
    /// a checkpoint can never be resumed under a different request.
    pub key_hash: u64,
    /// Display name of the plan that produced the state.
    pub plan: String,
    /// RNG stream layout the state was captured under.
    pub rng_stream_version: u32,
    /// The executor state.
    pub state: ExecState,
}

// --------------------------------------------------------------------------
// Wire payload: every f64 travels as its bit pattern (u64), which the
// vendored JSON number type preserves exactly.
// --------------------------------------------------------------------------

#[derive(Serialize, Deserialize)]
struct WireCursor {
    partition: u64,
    pos: u64,
    order: Vec<u32>,
}

#[derive(Serialize, Deserialize)]
struct WireSampler {
    method: SamplingMethod,
    shuffles: u64,
    cursor: Option<WireCursor>,
}

#[derive(Serialize, Deserialize)]
struct WireCost {
    io_s: u64,
    cpu_s: u64,
    net_s: u64,
    overhead_s: u64,
}

#[derive(Serialize, Deserialize)]
struct WireUsage {
    tuples_scanned: u64,
    bytes_shuffled: u64,
    node_compute_s: Vec<u64>,
    waves: u64,
}

#[derive(Serialize, Deserialize)]
struct WireCheckpoint {
    key_hash: u64,
    plan: String,
    rng_stream_version: u32,
    iteration: u64,
    weights: Vec<u64>,
    prev_weights: Vec<u64>,
    final_delta: u64,
    error_iters: Vec<u64>,
    error_deltas: Vec<u64>,
    rng_state: Vec<u64>,
    sampler: Option<WireSampler>,
    cost: WireCost,
    usage: WireUsage,
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|w| w.to_bits()).collect()
}

fn floats(v: &[u64]) -> Vec<f64> {
    v.iter().map(|w| f64::from_bits(*w)).collect()
}

impl WireCheckpoint {
    fn from_checkpoint(ckpt: &Checkpoint) -> Self {
        let s = &ckpt.state;
        Self {
            key_hash: ckpt.key_hash,
            plan: ckpt.plan.clone(),
            rng_stream_version: ckpt.rng_stream_version,
            iteration: s.iteration,
            weights: bits(&s.weights),
            prev_weights: bits(&s.prev_weights),
            final_delta: s.final_delta.to_bits(),
            error_iters: s.error_seq.iter().map(|(i, _)| *i).collect(),
            error_deltas: s.error_seq.iter().map(|(_, d)| d.to_bits()).collect(),
            rng_state: s.rng_state.to_vec(),
            sampler: s.sampler.as_ref().map(|snap| WireSampler {
                method: snap.method,
                shuffles: snap.shuffles,
                cursor: snap
                    .cursor
                    .as_ref()
                    .map(|(partition, pos, order)| WireCursor {
                        partition: *partition,
                        pos: *pos,
                        order: order.clone(),
                    }),
            }),
            cost: WireCost {
                io_s: s.cost.io_s.to_bits(),
                cpu_s: s.cost.cpu_s.to_bits(),
                net_s: s.cost.net_s.to_bits(),
                overhead_s: s.cost.overhead_s.to_bits(),
            },
            usage: WireUsage {
                tuples_scanned: s.usage.tuples_scanned,
                bytes_shuffled: s.usage.bytes_shuffled,
                node_compute_s: bits(&s.usage.node_compute_s),
                waves: s.usage.waves,
            },
        }
    }

    fn into_checkpoint(self) -> Result<Checkpoint, CheckpointError> {
        let rng_state: [u64; 4] = self.rng_state.as_slice().try_into().map_err(|_| {
            CheckpointError::Format(format!(
                "rng state must hold 4 words, found {}",
                self.rng_state.len()
            ))
        })?;
        if self.error_iters.len() != self.error_deltas.len() {
            return Err(CheckpointError::Format(format!(
                "error sequence length mismatch: {} iterations vs {} deltas",
                self.error_iters.len(),
                self.error_deltas.len()
            )));
        }
        let error_seq = self
            .error_iters
            .iter()
            .zip(&self.error_deltas)
            .map(|(i, d)| (*i, f64::from_bits(*d)))
            .collect();
        Ok(Checkpoint {
            key_hash: self.key_hash,
            plan: self.plan,
            rng_stream_version: self.rng_stream_version,
            state: ExecState {
                iteration: self.iteration,
                weights: floats(&self.weights),
                prev_weights: floats(&self.prev_weights),
                final_delta: f64::from_bits(self.final_delta),
                error_seq,
                rng_state,
                sampler: self.sampler.map(|s| SamplerSnapshot {
                    method: s.method,
                    shuffles: s.shuffles,
                    cursor: s.cursor.map(|c| (c.partition, c.pos, c.order)),
                }),
                cost: CostBreakdown {
                    io_s: f64::from_bits(self.cost.io_s),
                    cpu_s: f64::from_bits(self.cost.cpu_s),
                    net_s: f64::from_bits(self.cost.net_s),
                    overhead_s: f64::from_bits(self.cost.overhead_s),
                },
                usage: UsageMeter {
                    tuples_scanned: self.usage.tuples_scanned,
                    bytes_shuffled: self.usage.bytes_shuffled,
                    node_compute_s: floats(&self.usage.node_compute_s),
                    waves: self.usage.waves,
                },
            },
        })
    }
}

/// Serialize `ckpt` into the on-disk text format (without writing it).
/// The payload is encoded once, straight into the file image, behind a
/// checksum line that is patched in afterwards.
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Result<Vec<u8>, CheckpointError> {
    let mut file = format!("{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\ncrc ").into_bytes();
    let crc_at = file.len();
    file.extend_from_slice(b"0000000000000000\n");
    let payload_at = file.len();
    serde_json::to_writer(&mut file, &WireCheckpoint::from_checkpoint(ckpt))
        .map_err(|e| CheckpointError::Format(format!("payload serialization failed: {e}")))?;
    let crc = format!("{:016x}", fnv1a64(&file[payload_at..]));
    file[crc_at..crc_at + 16].copy_from_slice(crc.as_bytes());
    file.push(b'\n');
    Ok(file)
}

/// Write `ckpt` to `path` crash-safely (temp + fsync + rename).
pub fn write_checkpoint(path: impl AsRef<Path>, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
    Ok(atomic_write(path, &encode_checkpoint(ckpt)?)?)
}

/// Read and validate a checkpoint file; see [`decode_checkpoint`].
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
    decode_checkpoint(&std::fs::read_to_string(path.as_ref())?)
}

/// Validate a checkpoint file's text — magic, version, checksum, and
/// payload structure — and decode it. Identity validation against the
/// *expected* job is the caller's business ([`Checkpoint::key_hash`] and
/// friends).
pub fn decode_checkpoint(text: &str) -> Result<Checkpoint, CheckpointError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| CheckpointError::Format("empty file".into()))?;
    let version = header
        .strip_prefix(CHECKPOINT_MAGIC)
        .and_then(|rest| rest.trim().strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| CheckpointError::Format(format!("bad header {header:?}")))?;
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version} (expected {CHECKPOINT_VERSION})"
        )));
    }
    let crc_line = lines
        .next()
        .ok_or_else(|| CheckpointError::Format("missing checksum line".into()))?;
    let expected = crc_line
        .strip_prefix("crc ")
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| CheckpointError::Format(format!("bad checksum line {crc_line:?}")))?;
    let payload = lines
        .next()
        .ok_or_else(|| CheckpointError::Format("missing payload line".into()))?;
    let actual = fnv1a64(payload.as_bytes());
    if actual != expected {
        return Err(CheckpointError::Checksum { expected, actual });
    }
    let wire: WireCheckpoint = serde_json::from_str(payload)
        .map_err(|e| CheckpointError::Format(format!("bad payload: {e}")))?;
    wire.into_checkpoint()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ml4all-ckpt-{}-{tag}", std::process::id()))
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            key_hash: 0xdead_beef_cafe_f00d,
            plan: "SGD-lazy-shuffle".into(),
            rng_stream_version: 3,
            state: ExecState {
                iteration: 42,
                weights: vec![1.5, -0.0, f64::NAN, f64::from_bits(1)],
                prev_weights: vec![1.0, 2.0, 3.0, 4.0],
                final_delta: 1e-9,
                error_seq: vec![(1, 0.5), (2, 0.25), (3, 0.125)],
                rng_state: [1, u64::MAX, 0, 0x0123_4567_89ab_cdef],
                sampler: Some(SamplerSnapshot {
                    method: SamplingMethod::ShuffledPartition,
                    shuffles: 7,
                    cursor: Some((3, 12, vec![5, 1, 4, 0, 2, 3])),
                }),
                cost: CostBreakdown {
                    io_s: 1.25,
                    cpu_s: 0.5,
                    net_s: 0.0625,
                    overhead_s: 3.0,
                },
                usage: UsageMeter {
                    tuples_scanned: 1000,
                    bytes_shuffled: 2048,
                    node_compute_s: vec![0.5, 0.25],
                    waves: 5,
                },
            },
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let path = tmp("roundtrip");
        let ckpt = sample_checkpoint();
        write_checkpoint(&path, &ckpt).unwrap();
        let read = read_checkpoint(&path).unwrap();
        // NaN breaks PartialEq; compare through bit patterns.
        assert_eq!(bits(&read.state.weights), bits(&ckpt.state.weights));
        assert_eq!(read.state.prev_weights, ckpt.state.prev_weights);
        assert_eq!(read.state.error_seq, ckpt.state.error_seq);
        assert_eq!(read.state.rng_state, ckpt.state.rng_state);
        assert_eq!(read.state.sampler, ckpt.state.sampler);
        assert_eq!(read.state.cost, ckpt.state.cost);
        assert_eq!(read.state.usage, ckpt.state.usage);
        assert_eq!(read.key_hash, ckpt.key_hash);
        assert_eq!(read.plan, ckpt.plan);
        assert_eq!(read.state.iteration, 42);
        // Signed zero survives.
        assert_eq!(read.state.weights[1].to_bits(), (-0.0f64).to_bits());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let path = tmp("corrupt");
        write_checkpoint(&path, &sample_checkpoint()).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip one digit inside the payload.
        let flip = text.rfind("42").expect("iteration in payload");
        text.replace_range(flip..flip + 2, "43");
        std::fs::write(&path, text).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::Checksum { .. })
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncated_and_foreign_files_are_rejected_with_typed_errors() {
        let path = tmp("reject");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::Format(_))
        ));
        std::fs::write(&path, "not a checkpoint\n").unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::Format(_))
        ));
        std::fs::write(&path, "ML4ACKPT v99\ncrc 0\n{}\n").unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::Format(_))
        ));
        // Header but no payload.
        std::fs::write(&path, "ML4ACKPT v1\ncrc 00000000000000aa\n").unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(CheckpointError::Format(_))
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn checksum_pins_the_exact_payload_bytes() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
