//! SWAR newline-scan properties: the `u64`-at-a-time scanner must be
//! indistinguishable from the byte-at-a-time scalar on *any* byte
//! soup, and the chunker built on it must keep the PR-6 trailing-line
//! guarantees at every read/target boundary.

use sclog_parse::swar::{find_newline_counted, find_newline_scalar};
use sclog_parse::LineChunker;
use sclog_testkit::{check, Gen};
use std::io::Read;

/// Adversarial byte soup: biased toward the bytes that break SWAR
/// tricks — newlines, NULs, CRs, 0x80/0xFF high bytes (which are also
/// invalid UTF-8 on their own) — plus plain printable filler, at
/// lengths straddling the 8-byte lane boundary.
fn byte_soup(g: &mut Gen) -> Vec<u8> {
    let len = g.usize_in(0..=64);
    (0..len)
        .map(|_| match g.below(8) {
            0 => b'\n',
            1 => 0x00,
            2 => b'\r',
            3 => 0x80,
            4 => 0xFF,
            5 => 0x0A ^ 0x80, // 0x8A: newline plus high bit, the classic SWAR false positive
            _ => g.int_in(0x20..=0x7E) as u8,
        })
        .collect()
}

#[test]
fn swar_agrees_with_scalar_on_byte_soup() {
    check("swar newline scan == scalar scan", |g| {
        let hay = byte_soup(g);
        let mut lanes = 0u64;
        assert_eq!(
            find_newline_counted(&hay, &mut lanes),
            find_newline_scalar(&hay),
            "haystack {hay:?}"
        );
        // The lane count can never exceed the full lanes available.
        assert!(lanes <= (hay.len() / 8) as u64, "haystack {hay:?}");
    });
}

#[test]
fn swar_agrees_with_scalar_at_every_offset() {
    // Sliding a window over one buffer exercises every alignment of
    // the newline relative to the 8-byte lanes.
    let mut buf = [b'x'; 40];
    for nl in 0..buf.len() {
        buf[nl] = b'\n';
        for start in 0..=buf.len() {
            let hay = &buf[start..];
            let mut lanes = 0u64;
            assert_eq!(
                find_newline_counted(hay, &mut lanes),
                find_newline_scalar(hay),
                "nl={nl} start={start}"
            );
        }
        buf[nl] = b'x';
    }
}

/// Yields `step` bytes per read and panics if read again after end of
/// input — the discipline a socket-like reader demands (same shape as
/// the unit-test `Strict` reader; duplicated here because integration
/// tests cannot see `#[cfg(test)]` helpers).
struct Strict<'a> {
    data: &'a [u8],
    pos: usize,
    step: usize,
    eof_seen: bool,
}

impl Read for Strict<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        assert!(!self.eof_seen, "read past EOF");
        let n = self.step.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        if n == 0 {
            self.eof_seen = true;
        }
        Ok(n)
    }
}

fn rechunk(data: &[u8], target: usize, step: usize) -> Vec<String> {
    LineChunker::with_target(
        Strict {
            data,
            pos: 0,
            step,
            eof_seen: false,
        },
        target,
    )
    .collect::<std::io::Result<_>>()
    .expect("in-memory reads cannot fail")
}

#[test]
fn chunker_is_identity_on_byte_soup() {
    // Concatenated chunks must equal the lossy decoding of the whole
    // input. Comparing post-decode is sound because chunk cuts land
    // just after `\n` (0x0A), a byte that can never appear inside a
    // multi-byte UTF-8 sequence — so decoding per-chunk or whole-input
    // replaces exactly the same bytes.
    check("chunker concat == whole-input lossy decode", |g| {
        let data = byte_soup(g);
        let target = g.usize_in(1..=24);
        let step = g.usize_in(1..=16);
        let chunks = rechunk(&data, target, step);
        assert_eq!(
            chunks.concat(),
            String::from_utf8_lossy(&data),
            "data {data:?} target={target} step={step}"
        );
        assert!(
            chunks.iter().all(|c| !c.is_empty()),
            "empty chunk emitted: data {data:?} target={target} step={step}"
        );
        for c in &chunks[..chunks.len().saturating_sub(1)] {
            assert!(
                c.ends_with('\n'),
                "non-final chunk cut mid-line: data {data:?} target={target} step={step}"
            );
        }
    });
}

#[test]
fn trailing_line_regression_survives_the_fast_path() {
    // PR-6 regression pinned to the SWAR rewrite: a final line with no
    // newline (including one cut right after its `\r`) must come out
    // whole, and the reader must never be driven past EOF, at every
    // boundary combination.
    let texts: [&[u8]; 6] = [
        b"no newline at all",
        b"one\ntwo\nthree",
        b"a\r\nb\r\nc\r",
        b"exact\n",
        b"seven-b\x00ytes\xFF\n tail",
        b"\n\n\n",
    ];
    for text in texts {
        for target in [1, 2, 7, 8, 9, 16, 1024] {
            for step in [1, 3, 8, 16 * 1024] {
                let chunks = rechunk(text, target, step);
                assert_eq!(
                    chunks.concat(),
                    String::from_utf8_lossy(text),
                    "{text:?} target={target} step={step}"
                );
            }
        }
    }
}
