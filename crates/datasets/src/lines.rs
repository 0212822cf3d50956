//! The one line scanner under every text reader: CSV rows, LIBSVM rows and
//! the format sniff.
//!
//! A line is exactly what [`std::io::BufRead::read_line`] returns — the
//! bytes up to and including `\n`, or up to the end of input — checked as
//! UTF-8 on its own, with the same `InvalidData` error. The scanner works
//! on [`BufRead::fill_buf`]/[`BufRead::consume`] over a read buffer of
//! [`BUF_BYTES`], hands out a line that lies inside the buffer in place,
//! and assembles one that straddles reads in a reused carry buffer, so
//! reading allocates nothing per line and holds no more of the input than
//! the buffer and the longest line.

use std::io::{self, BufRead, BufReader, Read};

/// Read-buffer capacity.
const BUF_BYTES: usize = 64 * 1024;

/// Index of the first `needle` byte in `hay`, testing eight bytes per step.
pub(crate) fn find_byte(needle: u8, hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let pattern = LO * u64::from(needle);
    let mut words = hay.chunks_exact(8);
    let mut base = 0;
    for word in words.by_ref() {
        let x = u64::from_le_bytes(word.try_into().expect("eight-byte chunk")) ^ pattern;
        // A zero byte of `x` is a match. Borrows only run upward from a
        // true zero byte, so the lowest flagged byte is the first match.
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(base + (zero.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| base + i)
}

/// Streams the lines of a reader (see the module docs).
pub(crate) struct Lines<R> {
    reader: BufReader<R>,
    /// A line that straddles reads, assembled across them.
    carry: Vec<u8>,
    /// Length of the last line handed out in place; consumed on the next
    /// call, so the line can borrow the read buffer until then.
    pending: usize,
    line_no: usize,
    /// Bytes of the lines handed out so far.
    bytes_read: u64,
}

impl<R: Read> Lines<R> {
    pub(crate) fn new(reader: R) -> Self {
        Self {
            reader: BufReader::with_capacity(BUF_BYTES, reader),
            carry: Vec::new(),
            pending: 0,
            line_no: 0,
            bytes_read: 0,
        }
    }

    /// Bytes of input read through the last line handed out.
    pub(crate) fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// The next line with its 1-based number, or `None` at the end of
    /// input.
    pub(crate) fn next_line(&mut self) -> io::Result<Option<(usize, &str)>> {
        self.reader.consume(std::mem::take(&mut self.pending));
        self.carry.clear();
        loop {
            let buf = match self.reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                break;
            }
            match find_byte(b'\n', buf) {
                Some(i) if self.carry.is_empty() => {
                    self.pending = i + 1;
                    break;
                }
                Some(i) => {
                    self.carry.extend_from_slice(&buf[..=i]);
                    self.reader.consume(i + 1);
                    break;
                }
                None => {
                    let n = buf.len();
                    self.carry.extend_from_slice(buf);
                    self.reader.consume(n);
                }
            }
        }
        let line = if self.pending > 0 {
            &self.reader.buffer()[..self.pending]
        } else {
            &self.carry[..]
        };
        if line.is_empty() {
            return Ok(None);
        }
        self.line_no += 1;
        self.bytes_read += line.len() as u64;
        match std::str::from_utf8(line) {
            Ok(line) => Ok(Some((self.line_no, line))),
            Err(_) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader handing out at most `step` bytes per call.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.1.min(buf.len()).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    fn read_line_reference(text: &[u8]) -> Vec<String> {
        let mut reader = io::BufReader::new(text);
        let mut out = Vec::new();
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            out.push(std::mem::take(&mut line));
        }
        out
    }

    fn scanned(reader: impl Read) -> Vec<String> {
        let mut lines = Lines::new(reader);
        let mut out = Vec::new();
        while let Some((no, line)) = lines.next_line().unwrap() {
            assert_eq!(no, out.len() + 1);
            out.push(line.to_string());
        }
        out
    }

    #[test]
    fn find_byte_matches_a_linear_search() {
        let hay: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37) % 11).collect();
        for needle in 0..12u8 {
            for start in 0..hay.len() {
                let want = hay[start..].iter().position(|&b| b == needle);
                assert_eq!(find_byte(needle, &hay[start..]), want, "{needle} @ {start}");
            }
        }
        // High bytes next to the needle must not read as matches.
        assert_eq!(
            find_byte(b'\n', &[0x80, 0x8a, 0x0b, 0xff, 0, 9, 11, 0x8a, 10]),
            Some(8)
        );
    }

    #[test]
    fn lines_equal_read_line_at_every_read_size() {
        let long = "x".repeat(3 * BUF_BYTES + 5);
        let texts: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"\n".to_vec(),
            b"a\nb\r\n\nlast without newline".to_vec(),
            format!("{long}\nshort\n{long}").into_bytes(),
        ];
        for text in &texts {
            let want = read_line_reference(text);
            assert_eq!(scanned(text.as_slice()), want);
            for step in [1, 2, 3, 7, 4096] {
                assert_eq!(scanned(Trickle(text, step)), want, "step {step}");
            }
        }
    }

    #[test]
    fn invalid_utf8_fails_on_its_line_like_read_line() {
        let text = b"ok\n\xff\nnever\n";
        let mut lines = Lines::new(&text[..]);
        assert_eq!(lines.next_line().unwrap(), Some((1, "ok\n")));
        let err = lines.next_line().unwrap_err();
        let want = io::BufReader::new(&b"\xff\n"[..])
            .read_line(&mut String::new())
            .unwrap_err();
        assert_eq!(err.kind(), want.kind());
        assert_eq!(err.to_string(), want.to_string());
    }
}
