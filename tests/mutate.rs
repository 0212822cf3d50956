//! Fixed-seed mutations of a valid JSON document, shared by the decoder
//! fuzz (`tests/wire_fuzz.rs`) and the server's malformed-frame batch
//! (`tests/serving.rs`). The generator is the vendored proptest's
//! `TestRng`, seeded from a name, so a CI failure replays exactly.

use proptest::TestRng;

/// Sizes of the two unbounded-looking mutations.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Depth of an inserted nesting bomb is drawn from `1..=bomb_depth`.
    pub bomb_depth: usize,
    /// Length of the longest inserted run of one character (it lands
    /// inside a string, a number or between tokens, wherever the position
    /// falls); shorter runs are drawn too.
    pub long_run: usize,
}

fn position(rng: &mut TestRng, len: usize) -> usize {
    rng.below(len as u64 + 1) as usize
}

/// The offsets of every `needle` in `doc`.
fn occurrences(doc: &[u8], needle: &[u8]) -> Vec<usize> {
    doc.windows(needle.len())
        .enumerate()
        .filter(|(_, window)| *window == needle)
        .map(|(at, _)| at)
        .collect()
}

/// One mutant of `doc`: byte flips, a truncation, a nesting bomb
/// (`[[[[…` or `{"a":{"a":…`, closed or not), a duplicated or unknown
/// member, a long run of one character, or a perturbed number.
pub fn mutate(rng: &mut TestRng, doc: &[u8], limits: Limits) -> Vec<u8> {
    let mut out = doc.to_vec();
    match rng.below(8) {
        0 => {
            for _ in 0..=rng.below(4) {
                if !out.is_empty() {
                    let at = position(rng, out.len() - 1);
                    out[at] = rng.below(256) as u8;
                }
            }
        }
        1 => out.truncate(position(rng, doc.len())),
        2 => {
            let depth = 1 + position(rng, limits.bomb_depth - 1);
            let (open, close): (&[u8], &[u8]) = if rng.below(2) == 0 {
                (b"[", b"]")
            } else {
                (b"{\"a\":", b"}")
            };
            let mut bomb = open.repeat(depth);
            if rng.below(2) == 0 {
                bomb.extend_from_slice(b"1");
                bomb.extend_from_slice(&close.repeat(depth));
            }
            let at = position(rng, out.len());
            out.splice(at..at, bomb);
        }
        3 => {
            // Repeat the stretch between two member separators: for a
            // scalar member that is a duplicate key, otherwise shrapnel.
            let commas = occurrences(&out, b",\"");
            if commas.len() >= 2 {
                let first = position(rng, commas.len() - 2);
                let (from, to) = (commas[first], commas[first + 1]);
                let member = out[from..to].to_vec();
                let at = commas[position(rng, commas.len() - 1)];
                out.splice(at..at, member);
            }
        }
        4 => {
            let opens = occurrences(&out, b"{");
            if !opens.is_empty() {
                let at = opens[position(rng, opens.len() - 1)] + 1;
                out.splice(
                    at..at,
                    b"\"unknown\":[1,{\"x\":null,\"y\":\"\\u00e9\"}],"
                        .iter()
                        .copied(),
                );
            }
        }
        5 => {
            let fill = [b'a', b'9', b' ', b'\\', b'"', 0xc3][position(rng, 5)];
            let run = [16, 4096, limits.long_run][position(rng, 2)];
            let at = position(rng, out.len());
            out.splice(at..at, std::iter::repeat_n(fill, run));
        }
        6 => {
            let digits: Vec<usize> = (0..out.len())
                .filter(|at| out[*at].is_ascii_digit())
                .collect();
            if !digits.is_empty() {
                let at = digits[position(rng, digits.len() - 1)];
                let graft: &[u8] = [
                    &b"-"[..],
                    b".",
                    b"e",
                    b"e999",
                    b"1.0",
                    b"18446744073709551616",
                    b"-9223372036854775809",
                    b"00",
                ][position(rng, 7)];
                out.splice(at..at, graft.iter().copied());
            }
        }
        _ => {
            // Reverse a stretch: valid tokens in the wrong order.
            let (a, b) = (position(rng, out.len()), position(rng, out.len()));
            let (a, b) = (a.min(b), a.max(b));
            out[a..b].reverse();
        }
    }
    out
}
