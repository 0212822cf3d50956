//! The floor: the reference the benchmark runs beside the work.
//!
//! One *floor-op* is 40 passes of the ten-line logistic-regression BGD
//! loop — scalar `f64`, written here, calling no crate code — over a fixed
//! 2 000 × 50 dense block (0.8 MB, resident in a private L2) generated
//! from a constant, never from `--seed`. Core speed on a shared host moves
//! as a whole, so a core-bound job's time divided by the floor-op timed
//! right beside it repeats where the raw time does not.
//!
//! The floor never changes in a change that claims a gain: every
//! speed-corrected value is a multiple of it.

use std::time::Instant;

/// The floor-op's median on the defining host (2 vCPU Xeon @ 2.1 GHz),
/// two significant digits. Speed-corrected values are
/// `floor-ops per job × FLOOR_NOMINAL_MS`, so they read as "milliseconds
/// at the defining host's core speed".
pub const FLOOR_NOMINAL_MS: f64 = 3.2;

const ROWS: usize = 2_000;
const DIMS: usize = 50;
const PASSES: usize = 40;

/// Floor-ops in one floor slice of the window (≈ 80 ms).
pub const OPS_PER_SLICE: usize = 25;

/// The fixed block every floor-op scans.
pub struct FloorBlock {
    x: Vec<f64>,
    y: Vec<f64>,
}

impl FloorBlock {
    /// The same rows on every host and every seed (SplitMix64 from a
    /// constant).
    pub fn new() -> Self {
        let mut state = 0x5EED_F100_0000_0001u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let x: Vec<f64> = (0..ROWS * DIMS).map(|_| next()).collect();
        let y = x
            .chunks_exact(DIMS)
            .map(|row| {
                if row[0] + 0.5 * row[1] > 0.0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        Self { x, y }
    }

    /// The feature slab, row-major (the kernel probes scan the same rows).
    pub fn rows(&self) -> &[f64] {
        &self.x
    }

    /// Feature count per row.
    pub const fn dims() -> usize {
        DIMS
    }
}

/// Scratch reused across floor-ops (floor slices allocate nothing).
pub struct FloorScratch {
    w: [f64; DIMS],
    grad: [f64; DIMS],
}

impl FloorScratch {
    pub fn new() -> Self {
        Self {
            w: [0.0; DIMS],
            grad: [0.0; DIMS],
        }
    }
}

/// One floor-op; returns the final loss proxy so the work cannot be
/// optimised away.
pub fn floor_op(block: &FloorBlock, scratch: &mut FloorScratch) -> f64 {
    let FloorScratch { w, grad } = scratch;
    w.fill(0.0);
    for pass in 0..PASSES {
        grad.fill(0.0);
        for (row, &y) in block.x.chunks_exact(DIMS).zip(&block.y) {
            let mut z = 0.0;
            for j in 0..DIMS {
                z += row[j] * w[j];
            }
            let g = -y / (1.0 + (y * z).exp());
            for j in 0..DIMS {
                grad[j] += g * row[j];
            }
        }
        let step = 1.0 / ((pass + 1) as f64).sqrt() / ROWS as f64;
        for j in 0..DIMS {
            w[j] -= step * grad[j];
        }
    }
    w.iter().sum()
}

/// The scalar dot the floor-op is built on, over the whole block: the
/// baseline `linalg.dot8_vs_floor` compares the batched kernel with.
pub fn scalar_dot_pass(block: &FloorBlock, w: &[f64]) -> f64 {
    let mut acc = 0.0;
    for row in block.x.chunks_exact(DIMS) {
        let mut z = 0.0;
        for j in 0..DIMS {
            z += row[j] * w[j];
        }
        acc += z;
    }
    acc
}

/// The floor of one run: the block and the scratch, on the calling thread.
/// The process is pinned to one vCPU ([`crate::host`]), so the reference
/// runs on the very core the work runs on.
pub struct Floor {
    block: FloorBlock,
    scratch: FloorScratch,
}

impl Floor {
    pub fn new() -> Self {
        Self {
            block: FloorBlock::new(),
            scratch: FloorScratch::new(),
        }
    }

    /// The block (shared with the kernel probes).
    pub fn block(&self) -> &FloorBlock {
        &self.block
    }

    /// Run `ops` floor-ops; returns the mean seconds per floor-op.
    pub fn slice(&mut self, ops: usize) -> f64 {
        let start = Instant::now();
        for _ in 0..ops {
            std::hint::black_box(floor_op(&self.block, &mut self.scratch));
        }
        start.elapsed().as_secs_f64() / ops as f64
    }
}
