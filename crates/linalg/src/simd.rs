//! Runtime-dispatched SIMD kernels for batched row·weight dot products.
//!
//! The gradient hot loop spends almost all of its time computing `w·x` for
//! consecutive rows of a columnar slab. The batched dense kernels all
//! implement one **fixed blocked reduction order** — defined operationally
//! by [`dot_blocked`] — chosen so a vector unit can keep several
//! independent add chains in flight instead of serializing on a single
//! accumulator:
//!
//! 1. split the feature axis into blocks of four; block `b` accumulates
//!    elementwise products into lane `j % 4` of partial-sum group `b % 2`
//!    (eight independent partial sums per row, all starting from `-0.0`,
//!    the identity `f64: Sum` folds from);
//! 2. combine as `t[l] = a0[l] + a1[l]`, then `(t0 + t1) + (t2 + t3)`;
//! 3. fold any remaining tail features in ascending order.
//!
//! No FMA contraction, no data-dependent reassociation: every dispatch arm
//! (AVX2, NEON, scalar) performs this exact IEEE add/mul sequence, so the
//! kernels are **bit-identical across ISAs** — the scalar fallback is
//! always compiled and property-tested against the vector paths. Training
//! results therefore never depend on the host CPU, only on this documented
//! order. (Single-row [`crate::dense::dot`] keeps its strictly sequential
//! order; the batched kernels are a distinct, equally fixed order.)
//!
//! Dispatch is resolved once at runtime and cached:
//! - x86_64 with AVX2 → [`Isa::Avx2`] (4 rows × two 4-lane accumulator
//!   groups, `core::arch` intrinsics, no FMA),
//! - aarch64 → [`Isa::Neon`] (2-lane vector pairs emulating the 4-lane
//!   groups),
//! - anything else, or `ML4ALL_FORCE_SCALAR` set to a non-empty value other
//!   than `0`, → [`Isa::Scalar`].
//!
//! [`force_scalar`] additionally lets tests and benches flip the dispatch
//! in-process without touching the environment.

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction set selected for the batched kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar fallback (always compiled).
    Scalar,
    /// x86_64 AVX2 (256-bit, 4 `f64` lanes).
    Avx2,
    /// aarch64 NEON (128-bit, 2 `f64` lanes).
    Neon,
}

impl Isa {
    /// Human-readable name, used by diagnostics and the README dispatch
    /// matrix.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx2 => "avx2",
            Self::Neon => "neon",
        }
    }
}

const ISA_UNSET: u8 = 0;
const ISA_SCALAR: u8 = 1;
const ISA_AVX2: u8 = 2;
const ISA_NEON: u8 = 3;

/// Cached detection result (`ISA_UNSET` until first use).
static DETECTED: AtomicU8 = AtomicU8::new(ISA_UNSET);
/// In-process override: `1` forces the scalar path regardless of detection.
static FORCED_SCALAR: AtomicU8 = AtomicU8::new(0);

/// Force (or stop forcing) the scalar fallback for this process.
///
/// Intended for tests and benches that compare both dispatch arms without
/// re-launching the process. Because the vector kernels are bit-identical
/// to the scalar ones, flipping this concurrently from another thread can
/// never change numerical results — only which code path computes them.
pub fn force_scalar(on: bool) {
    FORCED_SCALAR.store(u8::from(on), Ordering::Relaxed);
}

/// The instruction set the batched kernels will use right now.
pub fn active_isa() -> Isa {
    if FORCED_SCALAR.load(Ordering::Relaxed) == 1 {
        return Isa::Scalar;
    }
    match DETECTED.load(Ordering::Relaxed) {
        ISA_SCALAR => Isa::Scalar,
        ISA_AVX2 => Isa::Avx2,
        ISA_NEON => Isa::Neon,
        _ => {
            let isa = detect();
            let code = match isa {
                Isa::Scalar => ISA_SCALAR,
                Isa::Avx2 => ISA_AVX2,
                Isa::Neon => ISA_NEON,
            };
            DETECTED.store(code, Ordering::Relaxed);
            isa
        }
    }
}

fn detect() -> Isa {
    let forced_by_env = std::env::var_os("ML4ALL_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if forced_by_env {
        return Isa::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Isa::Avx2;
    }
    #[cfg(target_arch = "aarch64")]
    return Isa::Neon;
    #[cfg(not(target_arch = "aarch64"))]
    Isa::Scalar
}

/// The canonical blocked dot product: the reduction order every batched
/// dense kernel implements, written out in portable scalar code.
///
/// Eight partial sums (two groups of four lanes) start at `-0.0`; feature
/// `j` lands in lane `j % 4` of group `(j / 4) % 2`; the groups combine as
/// `t[l] = a0[l] + a1[l]` then `(t0 + t1) + (t2 + t3)`; tail features past
/// the last full block of four fold in ascending order. For `r.len() < 4`
/// this degenerates to exactly [`crate::dense::dot`]'s sequential sum.
#[inline]
pub fn dot_blocked(r: &[f64], w: &[f64]) -> f64 {
    debug_assert_eq!(r.len(), w.len());
    let n = w.len();
    let nb = n / 4;
    let mut a = [[-0.0f64; 4]; 2];
    for b in 0..nb {
        let g = &mut a[b & 1];
        let j = 4 * b;
        for l in 0..4 {
            g[l] += r[j + l] * w[j + l];
        }
    }
    let t: [f64; 4] = std::array::from_fn(|l| a[0][l] + a[1][l]);
    let mut s = (t[0] + t[1]) + (t[2] + t[3]);
    for j in 4 * nb..n {
        s += r[j] * w[j];
    }
    s
}

/// Dot products of four equal-length dense rows against `w`.
///
/// Lane `k` of the result is bit-identical to
/// [`dot_blocked`]`(rows[k], w)` on every dispatch arm. Panics unless
/// every row is exactly `w.len()` long.
#[inline]
pub fn dot4(rows: [&[f64]; 4], w: &[f64]) -> [f64; 4] {
    assert!(
        rows.iter().all(|r| r.len() == w.len()),
        "row length != w.len()"
    );
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_isa` reported AVX2 on this CPU, and every row is
        // exactly `w.len()` long (asserted above).
        Isa::Avx2 => unsafe { dot4_avx2(rows, w) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `active_isa` reported NEON on this CPU, and every row is
        // exactly `w.len()` long (asserted above).
        Isa::Neon => unsafe { dot4_neon(rows, w) },
        _ => rows.map(|r| dot_blocked(r, w)),
    }
}

/// Dot products of eight equal-length dense rows against `w`.
///
/// Lane `k` of the result is bit-identical to
/// [`dot_blocked`]`(rows[k], w)` on every dispatch arm. Panics unless
/// every row is exactly `w.len()` long.
#[inline]
pub fn dot8(rows: [&[f64]; 8], w: &[f64]) -> [f64; 8] {
    assert!(
        rows.iter().all(|r| r.len() == w.len()),
        "row length != w.len()"
    );
    match active_isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_isa` reported AVX2 on this CPU, and every row is
        // exactly `w.len()` long (asserted above).
        Isa::Avx2 => unsafe { dot8_avx2(rows, w) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `active_isa` reported NEON on this CPU, and every row is
        // exactly `w.len()` long (asserted above).
        Isa::Neon => unsafe { dot8_neon(rows, w) },
        _ => rows.map(|r| dot_blocked(r, w)),
    }
}

/// `acc[j] += alpha * x[j]` over dense slices.
///
/// Purely elementwise — no reduction, so vector width cannot affect the
/// result; every lane performs the same single mul/add it would perform in
/// scalar code. Dispatch here is speed-only: the AVX2 arm processes four
/// lanes per instruction on the gradient-accumulation hot path.
#[inline]
pub fn axpy(acc: &mut [f64], alpha: f64, x: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        // SAFETY: `active_isa` reported AVX2 on this CPU; the body is
        // safe, bounds-checked Rust.
        unsafe { axpy_avx2(acc, alpha, x) };
        return;
    }
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += alpha * v;
    }
}

// The body is plain elementwise Rust: compiling it under the `avx2` target
// feature lets LLVM widen it to 256-bit lanes without any intrinsics.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(acc: &mut [f64], alpha: f64, x: &[f64]) {
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += alpha * v;
    }
}

/// Rows one [`axpy_rows`] call takes at most (a scoring octet).
const AXPY_ROWS_MAX: usize = 8;

/// `acc[j] += coefs[k] * rows[k][j]` for `k` in order, skipping every row
/// whose coefficient is zero — bit for bit the same as one [`axpy`] call
/// per non-zero-coefficient row, in row order.
///
/// Every coordinate sees the same mul/add sequence as under those calls;
/// what changes is that each 4-lane chunk of `acc` stays in a register
/// across the rows instead of being loaded and stored once per row. Takes
/// at most eight rows, each at least as long as `acc` (entries past
/// `acc.len()` are ignored, as [`axpy`] ignores them).
pub fn axpy_rows(acc: &mut [f64], coefs: &[f64], rows: &[&[f64]]) {
    debug_assert!(
        coefs.len() == rows.len() && rows.len() <= AXPY_ROWS_MAX,
        "axpy_rows takes one coefficient per row and at most {AXPY_ROWS_MAX} rows"
    );
    let n = acc.len();
    let mut live_coefs = [0.0f64; AXPY_ROWS_MAX];
    let mut live_rows: [&[f64]; AXPY_ROWS_MAX] = [&[]; AXPY_ROWS_MAX];
    let mut live = 0;
    for (&c, &row) in coefs.iter().zip(rows) {
        if c != 0.0 {
            live_coefs[live] = c;
            // The slice panics on a row shorter than `acc`, so both arms
            // read only inside every row.
            live_rows[live] = &row[..n];
            live += 1;
        }
    }
    let (coefs, rows) = (&live_coefs[..live], &live_rows[..live]);
    #[cfg(target_arch = "x86_64")]
    if active_isa() == Isa::Avx2 {
        // SAFETY: `active_isa` reported AVX2 on this CPU, and every row
        // was sliced to exactly `acc.len()` elements above.
        unsafe { axpy_rows_avx2(acc, coefs, rows) };
        return;
    }
    axpy_rows_from(0, acc, coefs, rows);
}

/// The scalar form of [`axpy_rows`] (the rows already filtered to live
/// ones) over coordinates `start..`.
#[inline]
fn axpy_rows_from(start: usize, acc: &mut [f64], coefs: &[f64], rows: &[&[f64]]) {
    for (j, a) in acc.iter_mut().enumerate().skip(start) {
        let mut s = *a;
        for (&c, row) in coefs.iter().zip(rows) {
            s += c * row[j];
        }
        *a = s;
    }
}

/// # Safety
///
/// The CPU must support AVX2, `coefs` and `rows` must have equal lengths,
/// and every row must be exactly `acc.len()` elements long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_rows_avx2(acc: &mut [f64], coefs: &[f64], rows: &[&[f64]]) {
    use core::arch::x86_64::*;
    debug_assert_eq!(coefs.len(), rows.len());
    debug_assert!(rows.iter().all(|r| r.len() == acc.len()));
    let n = acc.len();
    let k = rows.len().min(AXPY_ROWS_MAX);
    let mut c = [_mm256_setzero_pd(); AXPY_ROWS_MAX];
    let mut ptrs = [acc.as_ptr(); AXPY_ROWS_MAX];
    for r in 0..k {
        c[r] = _mm256_set1_pd(coefs[r]);
        ptrs[r] = rows[r].as_ptr();
    }
    let out = acc.as_mut_ptr();
    let mut j = 0;
    while j + 4 <= n {
        // SAFETY: `j + 4 <= n` and `acc` and every row hold `n` elements,
        // so each unaligned 4-lane load and the store stay in bounds.
        let mut a = _mm256_loadu_pd(out.add(j));
        for r in 0..k {
            a = _mm256_add_pd(a, _mm256_mul_pd(c[r], _mm256_loadu_pd(ptrs[r].add(j))));
        }
        _mm256_storeu_pd(out.add(j), a);
        j += 4;
    }
    axpy_rows_from(j, acc, coefs, rows);
}

/// Lockstep dot products of four CSR rows against a dense `w`.
///
/// Sparse rows have data-dependent index streams, so there is no profitable
/// lane-parallel load pattern without gather instructions; instead the four
/// rows are walked in lockstep with four independent accumulators (ILP, not
/// SIMD). Lane `k` is bit-identical to the sequential sparse dot of row `k`
/// (strictly ascending stored-entry order) — sparse scoring never departs
/// from the single-row order.
#[inline]
pub fn sparse_dot4(indices: [&[u32]; 4], values: [&[f64]; 4], w: &[f64]) -> [f64; 4] {
    let mut s = [-0.0f64; 4];
    let common = indices
        .iter()
        .map(|i| i.len())
        .min()
        .expect("four fixed lanes");
    for k in 0..common {
        s[0] += values[0][k] * w[indices[0][k] as usize];
        s[1] += values[1][k] * w[indices[1][k] as usize];
        s[2] += values[2][k] * w[indices[2][k] as usize];
        s[3] += values[3][k] * w[indices[3][k] as usize];
    }
    for lane in 0..4 {
        for k in common..indices[lane].len() {
            s[lane] += values[lane][k] * w[indices[lane][k] as usize];
        }
    }
    s
}

// ---------------------------------------------------------------------------
// AVX2 (x86_64)
//
// Each row keeps two 256-bit partial-sum vectors (groups a0/a1 of the
// blocked order) — eight independent add chains across the four rows, so
// the 4-cycle vector-add latency is fully hidden. Blocks of four features
// are consumed two at a time (even block → a0, odd block → a1); an odd
// trailing block lands in a0, matching `dot_blocked`'s `b % 2` rule. The
// horizontal combine and the scalar tail replicate the documented order
// exactly. `_mm256_mul_pd`/`_mm256_add_pd` only — never FMA.
// ---------------------------------------------------------------------------

// `inline(never)`: letting both of `dot8_avx2`'s calls inline merges two
// copies of the 10-register loop into one frame and spills the
// accumulators — measurably slower than the call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
unsafe fn dot4_avx2(rows: [&[f64]; 4], w: &[f64]) -> [f64; 4] {
    use core::arch::x86_64::*;
    let n = w.len();
    let nb = n / 4;
    let ptrs = [
        rows[0].as_ptr(),
        rows[1].as_ptr(),
        rows[2].as_ptr(),
        rows[3].as_ptr(),
    ];
    let mut a0 = [_mm256_set1_pd(-0.0); 4];
    let mut a1 = [_mm256_set1_pd(-0.0); 4];
    let mut b = 0usize;
    while b + 2 <= nb {
        let j = 4 * b;
        let w0 = _mm256_loadu_pd(w.as_ptr().add(j));
        let w1 = _mm256_loadu_pd(w.as_ptr().add(j + 4));
        for k in 0..4 {
            a0[k] = _mm256_add_pd(a0[k], _mm256_mul_pd(_mm256_loadu_pd(ptrs[k].add(j)), w0));
            a1[k] = _mm256_add_pd(
                a1[k],
                _mm256_mul_pd(_mm256_loadu_pd(ptrs[k].add(j + 4)), w1),
            );
        }
        b += 2;
    }
    if b < nb {
        let j = 4 * b;
        let w0 = _mm256_loadu_pd(w.as_ptr().add(j));
        for k in 0..4 {
            a0[k] = _mm256_add_pd(a0[k], _mm256_mul_pd(_mm256_loadu_pd(ptrs[k].add(j)), w0));
        }
    }
    let mut s = [-0.0f64; 4];
    for k in 0..4 {
        let mut t = [0.0f64; 4];
        _mm256_storeu_pd(t.as_mut_ptr(), _mm256_add_pd(a0[k], a1[k]));
        s[k] = (t[0] + t[1]) + (t[2] + t[3]);
    }
    let mut j = 4 * nb;
    while j < n {
        let wj = w[j];
        for k in 0..4 {
            s[k] += rows[k][j] * wj;
        }
        j += 1;
    }
    s
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot8_avx2(rows: [&[f64]; 8], w: &[f64]) -> [f64; 8] {
    let lo = dot4_avx2([rows[0], rows[1], rows[2], rows[3]], w);
    let hi = dot4_avx2([rows[4], rows[5], rows[6], rows[7]], w);
    [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]]
}

// ---------------------------------------------------------------------------
// NEON (aarch64)
//
// The 4-lane groups of the blocked order map onto pairs of 2-lane vectors:
// `a0 = (a0lo, a0hi)` covers lanes 0–1 and 2–3. Even blocks feed a0, odd
// blocks a1, the combine extracts lanes and adds in the documented order.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot_blocked_neon(r: &[f64], w: &[f64]) -> f64 {
    use core::arch::aarch64::*;
    let n = w.len();
    let nb = n / 4;
    let mut a0lo = vdupq_n_f64(-0.0);
    let mut a0hi = vdupq_n_f64(-0.0);
    let mut a1lo = vdupq_n_f64(-0.0);
    let mut a1hi = vdupq_n_f64(-0.0);
    let rp = r.as_ptr();
    let wp = w.as_ptr();
    let mut b = 0usize;
    while b + 2 <= nb {
        let j = 4 * b;
        a0lo = vaddq_f64(a0lo, vmulq_f64(vld1q_f64(rp.add(j)), vld1q_f64(wp.add(j))));
        a0hi = vaddq_f64(
            a0hi,
            vmulq_f64(vld1q_f64(rp.add(j + 2)), vld1q_f64(wp.add(j + 2))),
        );
        a1lo = vaddq_f64(
            a1lo,
            vmulq_f64(vld1q_f64(rp.add(j + 4)), vld1q_f64(wp.add(j + 4))),
        );
        a1hi = vaddq_f64(
            a1hi,
            vmulq_f64(vld1q_f64(rp.add(j + 6)), vld1q_f64(wp.add(j + 6))),
        );
        b += 2;
    }
    if b < nb {
        let j = 4 * b;
        a0lo = vaddq_f64(a0lo, vmulq_f64(vld1q_f64(rp.add(j)), vld1q_f64(wp.add(j))));
        a0hi = vaddq_f64(
            a0hi,
            vmulq_f64(vld1q_f64(rp.add(j + 2)), vld1q_f64(wp.add(j + 2))),
        );
    }
    let tlo = vaddq_f64(a0lo, a1lo);
    let thi = vaddq_f64(a0hi, a1hi);
    let t0 = vgetq_lane_f64::<0>(tlo);
    let t1 = vgetq_lane_f64::<1>(tlo);
    let t2 = vgetq_lane_f64::<0>(thi);
    let t3 = vgetq_lane_f64::<1>(thi);
    let mut s = (t0 + t1) + (t2 + t3);
    for j in 4 * nb..n {
        s += r[j] * w[j];
    }
    s
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot4_neon(rows: [&[f64]; 4], w: &[f64]) -> [f64; 4] {
    std::array::from_fn(|k| dot_blocked_neon(rows[k], w))
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot8_neon(rows: [&[f64]; 8], w: &[f64]) -> [f64; 8] {
    std::array::from_fn(|k| dot_blocked_neon(rows[k], w))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f64s without external crates.
    fn lcg_values(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            })
            .collect()
    }

    /// Held by every test that flips [`force_scalar`], so one test's flip
    /// back cannot land inside another's scalar section.
    static DISPATCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn batched_dots_match_blocked_order_bitwise_on_both_paths() {
        let _dispatch = DISPATCH.lock().expect("no test panics holding it");
        // Cover every remainder class (len % 4), an odd block count, and
        // empty rows; verify the active (possibly vector) path and the
        // forced-scalar path against the canonical blocked order, bitwise.
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 12, 13, 31, 50, 64] {
            let w = lcg_values(99, n);
            let rows: Vec<Vec<f64>> = (0..8).map(|i| lcg_values(i as u64 + 1, n)).collect();
            let refs8: [&[f64]; 8] = std::array::from_fn(|i| rows[i].as_slice());
            let refs4: [&[f64]; 4] = std::array::from_fn(|i| rows[i].as_slice());
            let expect: Vec<f64> = rows.iter().map(|r| dot_blocked(r, &w)).collect();

            let active4 = dot4(refs4, &w);
            let active8 = dot8(refs8, &w);
            force_scalar(true);
            let scalar4 = dot4(refs4, &w);
            let scalar8 = dot8(refs8, &w);
            assert_eq!(active_isa(), Isa::Scalar);
            force_scalar(false);

            for k in 0..4 {
                assert_eq!(active4[k].to_bits(), expect[k].to_bits(), "dot4 lane {k}");
                assert_eq!(scalar4[k].to_bits(), expect[k].to_bits());
            }
            for k in 0..8 {
                assert_eq!(active8[k].to_bits(), expect[k].to_bits(), "dot8 lane {k}");
                assert_eq!(scalar8[k].to_bits(), expect[k].to_bits());
            }
        }
    }

    #[test]
    fn axpy_rows_equals_sequential_axpy_calls_bitwise_on_both_paths() {
        let _dispatch = DISPATCH.lock().expect("no test panics holding it");
        let lengths = (0usize..=13).chain([50, 64]);
        for n in lengths {
            let rows: Vec<Vec<f64>> = (0..8).map(|i| lcg_values(i as u64 + 30, n)).collect();
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            // Every third coefficient is a zero (one of them negative) and
            // must be skipped exactly as the sequential caller skips it.
            let coefs: Vec<f64> = lcg_values(17, 8)
                .into_iter()
                .enumerate()
                .map(|(k, c)| match k % 3 {
                    1 if k == 4 => -0.0,
                    1 => 0.0,
                    _ => c,
                })
                .collect();
            let start = lcg_values(23, n);
            for k in 0..=8 {
                let mut want = start.clone();
                for (&c, row) in coefs[..k].iter().zip(&refs[..k]) {
                    if c != 0.0 {
                        axpy(&mut want, c, row);
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let mut active = start.clone();
                axpy_rows(&mut active, &coefs[..k], &refs[..k]);
                force_scalar(true);
                let mut scalar = start.clone();
                axpy_rows(&mut scalar, &coefs[..k], &refs[..k]);
                force_scalar(false);
                assert_eq!(bits(&active), bits(&want), "active arm, n {n}, k {k}");
                assert_eq!(bits(&scalar), bits(&want), "scalar arm, n {n}, k {k}");
            }
        }
    }

    #[test]
    fn blocked_order_degenerates_to_sequential_below_one_block() {
        for n in [0usize, 1, 2, 3] {
            let w = lcg_values(5, n);
            let r = lcg_values(6, n);
            assert_eq!(
                dot_blocked(&r, &w).to_bits(),
                crate::dense::dot(&r, &w).to_bits()
            );
        }
    }

    #[test]
    fn sparse_lockstep_matches_sequential_sparse_dot_bitwise() {
        let w = lcg_values(7, 32);
        let idx: [Vec<u32>; 4] = [
            vec![0, 3, 9, 31],
            vec![1, 2],
            vec![],
            vec![4, 5, 6, 7, 8, 30],
        ];
        let vals: Vec<Vec<f64>> = idx.iter().map(|i| lcg_values(42, i.len())).collect();
        let got = sparse_dot4(
            std::array::from_fn(|i| idx[i].as_slice()),
            std::array::from_fn(|i| vals[i].as_slice()),
            &w,
        );
        for lane in 0..4 {
            let expect: f64 = idx[lane]
                .iter()
                .zip(vals[lane].iter())
                .map(|(&i, &v)| v * w[i as usize])
                .sum();
            assert_eq!(got[lane].to_bits(), expect.to_bits(), "lane {lane}");
        }
    }

    #[test]
    fn isa_reports_a_known_name() {
        assert!(["scalar", "avx2", "neon"].contains(&active_isa().name()));
    }

    #[test]
    #[should_panic(expected = "row length != w.len()")]
    fn a_short_row_panics_instead_of_reading_past_its_end() {
        let w = lcg_values(3, 8);
        let short = lcg_values(4, 4);
        dot4([&w, &w, &w, &short], &w);
    }
}
