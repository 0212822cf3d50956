//! The dataset fingerprint's hasher: a stream of 64-bit words through four
//! lanes of xxHash64's multiply-rotate round, then xxHash64's merge and
//! final avalanche. Word `i` of the stream goes to lane `i mod 4`, so the
//! four lanes' multiplies overlap, and the value depends only on the
//! words and their order. It is plain integer arithmetic, the same on
//! every target.
//!
//! Every round is a bijection of its lane for a fixed word and of the
//! word for a fixed lane, so changing any one word, in any bit, changes
//! its lane through every later round, and the rotate carries each bit
//! into the low bits of the next multiply. Word-wise FNV-1a has no such
//! carry: a word's top bit only ever flips the state's top bit, so top-bit
//! flips in two words cancel.

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;

#[inline]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Streaming word hasher (see the module docs).
pub(crate) struct WordHasher {
    lanes: [u64; 4],
    /// Words of the stripe being filled; `stripe[..filled]` are live.
    stripe: [u64; 4],
    filled: usize,
    words: u64,
}

impl WordHasher {
    pub(crate) fn new() -> Self {
        Self {
            // xxHash64's seed-0 lanes.
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            stripe: [0; 4],
            filled: 0,
            words: 0,
        }
    }

    #[inline]
    pub(crate) fn write_u64(&mut self, word: u64) {
        self.stripe[self.filled] = word;
        self.filled += 1;
        self.words += 1;
        if self.filled == 4 {
            for (lane, &word) in self.lanes.iter_mut().zip(&self.stripe) {
                *lane = round(*lane, word);
            }
            self.filled = 0;
        }
    }

    /// The bits of each value, in order: [`WordHasher::write_u64`] per
    /// value, with whole stripes fed straight to the lanes.
    pub(crate) fn write_f64s(&mut self, values: &[f64]) {
        let head = values.len().min((4 - self.filled) % 4);
        for x in &values[..head] {
            self.write_u64(x.to_bits());
        }
        let mut stripes = values[head..].chunks_exact(4);
        for stripe in stripes.by_ref() {
            for (lane, x) in self.lanes.iter_mut().zip(stripe) {
                *lane = round(*lane, x.to_bits());
            }
        }
        self.words += (values.len() - head - stripes.remainder().len()) as u64;
        for x in stripes.remainder() {
            self.write_u64(x.to_bits());
        }
    }

    /// Bytes packed into little-endian words, the last zero-padded. The
    /// caller writes the length first when the bytes could alias what
    /// follows them.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in self.lanes {
            h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h = h.wrapping_add(self.words.wrapping_mul(8));
        for &word in &self.stripe[..self.filled] {
            h = (h ^ round(0, word))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_stripes_hash_as_single_words() {
        let values: Vec<f64> = (0..13).map(|i| f64::from(i) * 1.25 - 3.0).collect();
        for lead in 0..5 {
            for len in 0..values.len() {
                let mut bulk = WordHasher::new();
                let mut single = WordHasher::new();
                for w in 0..lead {
                    bulk.write_u64(w);
                    single.write_u64(w);
                }
                bulk.write_f64s(&values[..len]);
                for x in &values[..len] {
                    single.write_u64(x.to_bits());
                }
                assert_eq!(bulk.finish(), single.finish(), "lead {lead} len {len}");
            }
        }
    }
}
