//! The record type at rest and its delta-varint batch codec.
//!
//! One encoding serves both WAL frames and sealed segment payloads:
//! a leading record count, then per record a zigzag-varint timestamp
//! delta, a sequence delta, varint host and category ids, one byte
//! packing severity code and the survivor bit, and a varint message
//! index. Timestamps within a partition cluster tightly, so deltas
//! are usually one or two bytes against eight for a raw `i64`.

use std::io;

use sclog_types::segment::{severity_code, severity_from_code};
use sclog_types::{CategoryId, NodeId, Severity, Timestamp};

use crate::varint::{corrupt, get_i64, get_u64, put_i64, put_u64};

/// One alert at rest, in the store's own host/category namespace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredAlert {
    /// Time of the underlying message.
    pub time: Timestamp,
    /// Source node, interned in the store's catalog.
    pub host: NodeId,
    /// Category, registered in the store's catalog.
    pub category: CategoryId,
    /// Severity of the underlying message (`None` when the logging
    /// path records none, or when ground truth was unavailable).
    pub severity: Severity,
    /// Index of the underlying message in its system's parse order.
    pub message_index: usize,
    /// Whether the alert survived the spatio-temporal filter.
    pub filtered: bool,
    /// Store-global admission sequence; assigned on append and the
    /// tie-breaker that keeps scans deterministic across partitions.
    pub seq: u64,
}

/// The survivor bit's position in the packed severity byte.
const FILTERED_BIT: u8 = 0x80;

/// Encodes `records` (appending to `out`) in batch form.
pub fn encode_batch(records: &[StoredAlert], out: &mut Vec<u8>) {
    put_u64(out, records.len() as u64);
    let mut prev_time = 0i64;
    let mut prev_seq = 0u64;
    for r in records {
        put_i64(out, r.time.as_micros() - prev_time);
        prev_time = r.time.as_micros();
        put_i64(out, r.seq as i64 - prev_seq as i64);
        prev_seq = r.seq;
        put_u64(out, r.host.index() as u64);
        put_u64(out, r.category.index() as u64);
        out.push(severity_code(r.severity) | if r.filtered { FILTERED_BIT } else { 0 });
        put_u64(out, r.message_index as u64);
    }
}

/// Decodes one batch previously written by [`encode_batch`],
/// appending to `into`.
///
/// # Errors
///
/// `InvalidData` on truncation, an unknown severity code, trailing
/// garbage, or an implausible record count.
pub fn decode_batch(buf: &[u8], into: &mut Vec<StoredAlert>) -> io::Result<()> {
    let mut records = BatchDecoder::new(buf)?;
    into.reserve(records.remaining());
    for r in records.by_ref() {
        into.push(r?.alert());
    }
    records.finish()
}

/// One record as a batch holds it: ids and the severity code (already
/// validated), before any conversion to [`StoredAlert`]'s types.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RawRecord {
    pub(crate) time: i64,
    pub(crate) seq: u64,
    pub(crate) host: u32,
    pub(crate) category: u16,
    /// A valid `sclog_types::segment::severity_code`.
    pub(crate) severity: u8,
    pub(crate) filtered: bool,
    pub(crate) message_index: u64,
}

impl RawRecord {
    /// `r` in batch form.
    pub(crate) fn of(r: &StoredAlert) -> RawRecord {
        RawRecord {
            time: r.time.as_micros(),
            seq: r.seq,
            host: r.host.index() as u32,
            category: r.category.index() as u16,
            severity: severity_code(r.severity),
            filtered: r.filtered,
            message_index: r.message_index as u64,
        }
    }

    /// The record in the store's types.
    pub(crate) fn alert(self) -> StoredAlert {
        StoredAlert {
            time: Timestamp::from_micros(self.time),
            host: NodeId::from_index(self.host),
            category: CategoryId::from_index(self.category),
            severity: severity_from_code(self.severity).expect("validated at decode"),
            message_index: self.message_index as usize,
            filtered: self.filtered,
            seq: self.seq,
        }
    }
}

/// A batch's records, decoded one at a time in payload order, so a
/// payload can go straight into rows or into a
/// [`Block`](crate::Block)'s columns. Stops at the first error;
/// [`BatchDecoder::finish`] then checks nothing trails the last record.
pub(crate) struct BatchDecoder<'a> {
    buf: &'a [u8],
    pos: usize,
    remaining: usize,
    time: i64,
    seq: i64,
}

impl<'a> BatchDecoder<'a> {
    /// Reads the batch's record count.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a truncated or implausible count.
    pub(crate) fn new(buf: &'a [u8]) -> io::Result<BatchDecoder<'a>> {
        let mut pos = 0usize;
        let count = get_u64(buf, &mut pos)?;
        // Each record is at least 6 bytes; reject counts the buffer
        // cannot possibly hold before anyone reserves for them.
        if count > (buf.len() as u64) {
            return Err(corrupt("record count"));
        }
        Ok(BatchDecoder {
            buf,
            pos,
            remaining: count as usize,
            time: 0,
            seq: 0,
        })
    }

    /// Records not yet decoded.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// Checks the batch ended with its last record.
    ///
    /// # Errors
    ///
    /// `InvalidData` on records left undecoded or trailing bytes.
    pub(crate) fn finish(self) -> io::Result<()> {
        if self.remaining != 0 || self.pos != self.buf.len() {
            return Err(corrupt("batch (trailing bytes)"));
        }
        Ok(())
    }

    fn record(&mut self) -> io::Result<RawRecord> {
        let (buf, pos) = (self.buf, &mut self.pos);
        self.time = self
            .time
            .checked_add(get_i64(buf, pos)?)
            .ok_or_else(|| corrupt("timestamp delta"))?;
        self.seq = self
            .seq
            .checked_add(get_i64(buf, pos)?)
            .ok_or_else(|| corrupt("sequence delta"))?;
        if self.seq < 0 {
            return Err(corrupt("negative sequence"));
        }
        let host = get_u64(buf, pos)?;
        if host > u64::from(u32::MAX) {
            return Err(corrupt("host id"));
        }
        let category = get_u64(buf, pos)?;
        if category > u64::from(u16::MAX) {
            return Err(corrupt("category id"));
        }
        let packed = *buf.get(*pos).ok_or_else(|| corrupt("severity byte"))?;
        *pos += 1;
        let severity = packed & !FILTERED_BIT;
        if severity_from_code(severity).is_none() {
            return Err(corrupt("severity code"));
        }
        Ok(RawRecord {
            time: self.time,
            seq: self.seq as u64,
            host: host as u32,
            category: category as u16,
            severity,
            filtered: packed & FILTERED_BIT != 0,
            message_index: get_u64(buf, pos)?,
        })
    }
}

impl Iterator for BatchDecoder<'_> {
    type Item = io::Result<RawRecord>;

    fn next(&mut self) -> Option<io::Result<RawRecord>> {
        if self.remaining == 0 {
            return None;
        }
        let record = self.record();
        self.remaining -= 1;
        if record.is_err() {
            // Nothing more is decoded, and `finish` fails.
            (self.remaining, self.pos) = (0, usize::MAX);
        }
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_types::SyslogSeverity;

    fn sample() -> Vec<StoredAlert> {
        vec![
            StoredAlert {
                time: Timestamp::from_ymd_hms(2005, 3, 7, 7, 30, 0),
                host: NodeId::from_index(3),
                category: CategoryId::from_index(17),
                severity: Severity::None,
                message_index: 12,
                filtered: true,
                seq: 100,
            },
            StoredAlert {
                time: Timestamp::from_ymd_hms(2005, 3, 7, 7, 30, 1),
                host: NodeId::from_index(0),
                category: CategoryId::from_index(2),
                severity: Severity::Syslog(SyslogSeverity::Error),
                message_index: 13,
                filtered: false,
                seq: 103,
            },
        ]
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let records = sample();
        let mut buf = Vec::new();
        encode_batch(&records, &mut buf);
        let mut got = Vec::new();
        decode_batch(&buf, &mut got).unwrap();
        assert_eq!(got, records);
    }

    #[test]
    fn deltas_keep_close_records_small() {
        let records = sample();
        let mut buf = Vec::new();
        encode_batch(&records, &mut buf);
        // First record pays for the absolute microsecond timestamp;
        // the second, one second later, is a handful of bytes.
        assert!(buf.len() < 32, "got {} bytes", buf.len());
    }

    #[test]
    fn corruption_is_an_error_not_a_panic() {
        let records = sample();
        let mut buf = Vec::new();
        encode_batch(&records, &mut buf);
        for cut in 0..buf.len() {
            let mut got = Vec::new();
            assert!(
                decode_batch(&buf[..cut], &mut got).is_err(),
                "truncation at {cut} must error"
            );
        }
        let mut trailing = buf.clone();
        trailing.push(0);
        let mut got = Vec::new();
        assert!(decode_batch(&trailing, &mut got).is_err());
        // An unknown severity code must be rejected.
        let mut bad = Vec::new();
        encode_batch(
            &[StoredAlert {
                severity: Severity::None,
                ..records[0]
            }],
            &mut bad,
        );
        let sev_at = bad.len() - 2; // …, severity byte, message_index
        bad[sev_at] = 15; // out of range, filtered bit clear
        let mut got = Vec::new();
        assert!(decode_batch(&bad, &mut got).is_err());
    }
}
