//! The one decimal-to-`f64` parser under the text readers: CSV values,
//! LIBSVM labels and LIBSVM values.
//!
//! [`parse_f64`] returns what `str::parse::<f64>` returns: the same bits
//! for every input it accepts and the same error for every input it
//! refuses. A plain decimal, `-?digits[.digits]` with at most 19
//! significant digits and at most 27 digits after the point, takes a
//! fast path:
//!
//! - its digits are read eight per step (one little-endian load, a test
//!   that all eight bytes are digits, three multiplies) into a mantissa
//!   `w < 10¹⁹` with the decimal exponent `q ≤ 0`;
//! - `w · 10^q` is rounded by Clinger's exact path when `w ≤ 2⁵³` and
//!   `q ≥ −22` (one IEEE division by an exactly representable power of
//!   ten), and otherwise by Eisel–Lemire (Lemire, *Number Parsing at a
//!   Gigabyte per Second*, arXiv:2101.11408) on a 128-bit power-of-five
//!   table. On `q ∈ [−27, 0]` that algorithm is exact and never needs its
//!   fallback.
//!
//! Both give the correctly rounded float, as the standard library does.
//! Every other token goes to `str::parse`, so its value or error is the
//! standard library's by construction. That covers exponents, more
//! digits, a leading `+` or `.`, a trailing `.`, `inf`/`NaN`, whitespace
//! and text that is no number at all.

use std::num::ParseFloatError;

/// Parse `s` as `str::parse::<f64>` does (see the module docs).
pub fn parse_f64(s: &str) -> Result<f64, ParseFloatError> {
    match plain(s.as_bytes()) {
        Some((value, len)) if len == s.len() => Ok(value),
        _ => s.parse(),
    }
}

/// [`parse_prefix`] out of line, for [`parse_f64`]. Inlined into
/// `parse_f64`, the fast path made the LIBSVM reader about 10 % slower on
/// a 4 000-row file; the CSV scan calls `parse_prefix` inline and gains.
#[inline(never)]
fn plain(bytes: &[u8]) -> Option<(f64, usize)> {
    parse_prefix(bytes)
}

/// The plain decimal at the start of `bytes` (the longest prefix
/// `-?digits[.digits]`) with its length in bytes, or `None` when `bytes`
/// does not start with one the fast path takes. A caller that finds the
/// prefix ends where its token ends has the token's exact value.
#[inline]
pub(crate) fn parse_prefix(bytes: &[u8]) -> Option<(f64, usize)> {
    let (negative, mut rest) = match bytes.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, bytes),
    };
    // Digits past the 19th significant one wrap `w`; such a token is
    // refused below, before `w` is used.
    let mut w = 0u64;
    let integer = read_digits(&mut rest, &mut w);
    if integer == 0 {
        return None;
    }
    let mut fraction = 0;
    if let [b'.', b'0'..=b'9', ..] = rest {
        rest = &rest[1..];
        fraction = read_digits(&mut rest, &mut w);
    }
    let len = bytes.len() - rest.len();
    if integer + fraction > 19 {
        let leading_zeros = bytes[usize::from(negative)..len]
            .iter()
            .take_while(|&&b| b == b'0' || b == b'.')
            .filter(|&&b| b == b'0')
            .count();
        if integer + fraction - leading_zeros > 19 {
            return None;
        }
    }
    let value = to_f64(w, fraction)?;
    Some((if negative { -value } else { value }, len))
}

/// Fold the ASCII digits at the start of `rest` into `w` (wrapping) and
/// step past them; how many there were.
#[inline]
fn read_digits(rest: &mut &[u8], w: &mut u64) -> usize {
    let start = rest.len();
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        let word = u64::from_le_bytes(*word);
        if !eight_digits(word) {
            break;
        }
        *w = w
            .wrapping_mul(100_000_000)
            .wrapping_add(eight_digit_value(word));
        *rest = tail;
    }
    while let Some((&b, tail)) = rest.split_first() {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        *w = w.wrapping_mul(10).wrapping_add(u64::from(digit));
        *rest = tail;
    }
    start - rest.len()
}

/// Whether all eight bytes of `word` are ASCII digits: each has the high
/// nibble 3, and adding 6 leaves it there. A byte whose + 6 carries into
/// the next byte has the high nibble F and fails on its own.
#[inline]
fn eight_digits(word: u64) -> bool {
    const HIGH: u64 = 0xF0F0_F0F0_F0F0_F0F0;
    (word & HIGH) | ((word.wrapping_add(0x0606_0606_0606_0606) & HIGH) >> 4)
        == 0x3333_3333_3333_3333
}

/// The value of eight ASCII digits read little-endian (the first digit in
/// the lowest byte): pairs, then quads, then the whole.
#[inline]
fn eight_digit_value(word: u64) -> u64 {
    const MASK: u64 = 0x0000_00FF_0000_00FF;
    const MUL1: u64 = 100 + (1_000_000 << 32);
    const MUL2: u64 = 1 + (10_000 << 32);
    let v = word - 0x3030_3030_3030_3030;
    let v = v * 10 + (v >> 8);
    let v1 = (v & MASK).wrapping_mul(MUL1);
    let v2 = ((v >> 16) & MASK).wrapping_mul(MUL2);
    u64::from((v1.wrapping_add(v2) >> 32) as u32)
}

/// Exactly representable powers of ten, for Clinger's path.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Most digits after the point the power-of-five table covers.
const MAX_FRACTION: usize = 27;

/// `w · 10^−fraction`, correctly rounded, or `None` past the table.
#[inline]
fn to_f64(w: u64, fraction: usize) -> Option<f64> {
    if w == 0 {
        return Some(0.0);
    }
    if w <= 1 << 53 && fraction < POW10.len() {
        return Some(w as f64 / POW10[fraction]);
    }
    if fraction > MAX_FRACTION {
        return None;
    }
    eisel_lemire(w, fraction)
}

/// `POW5[k]` is `5^−k` normalised to 128 bits: the top bit set and
/// rounded up, `⌈2^(z+127) / 5^k⌉` where `2^(z−1) < 5^k < 2^z`; `POW5[0]`
/// is `2¹²⁷`.
const POW5: [u128; MAX_FRACTION + 1] = pow5_table();

const fn pow5_table() -> [u128; MAX_FRACTION + 1] {
    let mut table = [1 << 127; MAX_FRACTION + 1];
    let mut k = 1;
    while k <= MAX_FRACTION {
        let d = 5u64.pow(k as u32);
        let z = 64 - d.leading_zeros();
        // Long division of 2^(z+127) by d, one quotient bit per step; the
        // quotient lies in [2¹²⁷, 2¹²⁸).
        let (mut quotient, mut remainder) = (0u128, 0u128);
        let mut bit = z + 127;
        loop {
            remainder = 2 * remainder + (bit == z + 127) as u128;
            quotient <<= 1;
            if remainder >= d as u128 {
                remainder -= d as u128;
                quotient |= 1;
            }
            if bit == 0 {
                break;
            }
            bit -= 1;
        }
        table[k] = quotient + 1;
        k += 1;
    }
    table
}

/// Eisel–Lemire for `w · 10^−k`, `k ≤ 27`, `w ≠ 0`: Rust's
/// `core::num::dec2flt::lemire::compute_float` for `f64`, cut to this
/// range, where the truncated product is always sufficient and the value
/// is a normal float.
fn eisel_lemire(w: u64, k: usize) -> Option<f64> {
    const MANTISSA_BITS: i32 = 52;
    // Mantissa bits, the hidden bit, a rounding bit, and a possible
    // leading zero of the product.
    const SHIFT_BASE: i32 = 64 - MANTISSA_BITS - 3;
    let q = -(k as i32);
    let lz = w.leading_zeros();
    let w = w << lz;
    let power = POW5[k];
    let (hi5, lo5) = ((power >> 64) as u64, power as u64);
    let first = u128::from(w) * u128::from(hi5);
    let (mut lo, mut hi) = (first as u64, (first >> 64) as u64);
    let mask = u64::MAX >> (MANTISSA_BITS + 3);
    if hi & mask == mask {
        let second_hi = ((u128::from(w) * u128::from(lo5)) >> 64) as u64;
        lo = lo.wrapping_add(second_hi);
        if second_hi > lo {
            hi += 1;
        }
    }
    let upper_bit = (hi >> 63) as i32;
    let mut mantissa = hi >> (upper_bit + SHIFT_BASE);
    // floor(q · log2(10)) + 63, the binary exponent of the product.
    let power2 = ((q * (152_170 + 65_536)) >> 16) + 63;
    let mut biased = power2 + upper_bit - lz as i32 + 1023;
    if biased <= 0 {
        // A subnormal: never for k ≤ 27, and `str::parse` if it were.
        return None;
    }
    // An exact halfway product rounds to even; q ≥ −4 is the standard
    // library's bound for where one can occur.
    if lo <= 1 && q >= -4 && mantissa & 3 == 1 && mantissa << (upper_bit + SHIFT_BASE) == hi {
        mantissa &= !1;
    }
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if mantissa >= 2 << MANTISSA_BITS {
        mantissa = 1 << MANTISSA_BITS;
        biased += 1;
    }
    mantissa &= !(1 << MANTISSA_BITS);
    Some(f64::from_bits(mantissa | (biased as u64) << MANTISSA_BITS))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// `parse_f64(s)` and `str::parse::<f64>(s)` agree: the same bits, or
    /// the same error text. A prefix the fast path takes also has the
    /// value the standard library reads from it.
    fn check(s: &str) {
        match (parse_f64(s), s.parse::<f64>()) {
            (Ok(got), Ok(want)) => assert_eq!(got.to_bits(), want.to_bits(), "{s:?}"),
            (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{s:?}"),
            (got, want) => panic!("{s:?}: {got:?} vs {want:?}"),
        }
        if let Some((value, len)) = parse_prefix(s.as_bytes()) {
            let want: f64 = s[..len].parse().expect("a taken prefix is a number");
            assert_eq!(value.to_bits(), want.to_bits(), "prefix of {s:?}");
        }
    }

    /// Prints of a random `f64` drawn from its bits: every exponent,
    /// subnormals included.
    fn printed(rng: &mut StdRng) -> Vec<String> {
        let x = f64::from_bits(rng.next_u64());
        let digits = rng.gen_range(0..=30usize);
        vec![format!("{x}"), format!("{x:e}"), format!("{x:.digits$}")]
    }

    /// A random token of 1–30 characters over digits, a sign, a point and
    /// an exponent; mostly plain decimals, so the fast path is exercised.
    fn token(rng: &mut StdRng) -> String {
        let mut s = String::new();
        match rng.gen_range(0..8u32) {
            0 => s.push('+'),
            1..=3 => s.push('-'),
            _ => {}
        }
        let len = rng.gen_range(1..=30usize);
        let point = rng.gen_bool(0.7).then(|| rng.gen_range(0..=len));
        let zeros = if rng.gen_bool(0.3) {
            rng.gen_range(0..=len)
        } else {
            0
        };
        for i in 0..len {
            if point == Some(i) {
                s.push('.');
            }
            let digit = if i < zeros { 0 } else { rng.gen_range(0..10u8) };
            s.push(char::from(b'0' + digit));
        }
        if point == Some(len) {
            s.push('.');
        }
        if rng.gen_bool(0.15) {
            s.push(if rng.gen_bool(0.5) { 'e' } else { 'E' });
            match rng.gen_range(0..3u32) {
                0 => s.push('-'),
                1 => s.push('+'),
                _ => {}
            }
            for _ in 0..rng.gen_range(0..=3u32) {
                s.push(char::from(b'0' + rng.gen_range(0..10u8)));
            }
        }
        s
    }

    fn sweep(seed: u64, n: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            for s in printed(&mut rng) {
                check(&s);
                check(&format!("-{s}"));
            }
            check(&token(&mut rng));
        }
    }

    #[test]
    fn hand_cases_match_std() {
        let two53 = 1u64 << 53;
        let cases = [
            two53 - 1,
            two53,
            two53 + 1,
            two53 + 2,
            u64::MAX,
            9_999_999_999_999_999_999,
        ]
        .map(|w| w.to_string());
        for s in &cases {
            check(s);
            check(&format!("{}.{}", &s[..1], &s[1..]));
            check(&format!("0.{s}"));
        }
        for s in [
            // 19 and 20 significant digits, with and without leading zeros.
            "1234567890123456789",
            "12345678901234567890",
            "0.1234567890123456789",
            "0.12345678901234567890",
            "000000000001234567890123456789",
            "0.0000000001234567890123456789",
            "1234567890.123456789",
            "1234567890.1234567891",
            "0.1000000000000000055511151231257827",
            "0.1",
            "0.3",
            "-0",
            "-0.0",
            "0",
            "0000.0001",
            "0.000000000000000000000000001",
            "0.0000000000000000000000000001",
            "0.123456789012345678901234567",
            // Clinger's last power of ten, Eisel–Lemire's last row, and
            // one digit past it.
            "0.0000001234567890123456",
            "0.00000001234567890123456",
            "0.00000001234567890123456789",
            "0.000000001234567890123456789",
            "9007199254740993",
            "9007199254740993.0",
            "0.9007199254740993",
            "2.2250738585072014",
            "1.7976931348623157",
            "1e308",
            "1e-400",
            "1e309",
            "inf",
            "-inf",
            "NaN",
            "nan",
            "infinity",
            ".5",
            "5.",
            "-.5",
            "+1",
            "+",
            "-",
            "",
            ".",
            " 1",
            "1 ",
            "1,",
            "1..2",
            "1.2.3",
            "--1",
            "0x10",
            "\u{a0}1",
            "12345678.12345678",
            "-87654321.87654321",
        ] {
            check(s);
        }
    }

    /// Shortest prints of values in [0, 1), which is what CSV writers emit,
    /// take the fast path, about a third of them through Eisel–Lemire.
    #[test]
    fn printed_unit_floats_take_the_fast_path() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut wide = 0;
        for _ in 0..1_000 {
            let x: f64 = rng.gen_range(0.0..1.0);
            let s = format!("{x}");
            assert_eq!(parse_prefix(s.as_bytes()), Some((x, s.len())), "{s}");
            let mantissa = s
                .get(2..)
                .map(|digits| digits.trim_start_matches('0').parse::<u64>());
            wide += usize::from(matches!(mantissa, Some(Ok(w)) if w > 1u64 << 53));
        }
        assert!(wide > 100, "{wide} of 1000 mantissas exceed 2^53");
    }

    #[test]
    fn random_numbers_match_std() {
        sweep(1, 5_000);
    }

    /// The long sweep; run with `cargo test --release -p ml4all-datasets
    /// -- --ignored number`.
    #[test]
    #[ignore = "long sweep, minutes in a debug build"]
    fn long_random_sweep_matches_std() {
        sweep(2, 2_000_000);
    }

    #[test]
    fn eight_digit_steps_match_digit_by_digit() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let mut word = [0u8; 8];
            for b in &mut word {
                *b = if rng.gen_bool(0.9) {
                    b'0' + rng.gen_range(0..10u8)
                } else {
                    rng.gen_range(0..=255u8)
                };
            }
            let all = word.iter().all(u8::is_ascii_digit);
            let packed = u64::from_le_bytes(word);
            assert_eq!(eight_digits(packed), all, "{word:?}");
            if all {
                let want = word.iter().fold(0, |w, &b| w * 10 + u64::from(b - b'0'));
                assert_eq!(eight_digit_value(packed), want, "{word:?}");
            }
        }
    }
}
