//! Per-partition write-ahead log: the crash-safe tail of a partition.
//!
//! Layout: `WAL_MAGIC` (8 bytes) + format version `u16`, then frames
//! of `[len u32 LE][crc32 u32 LE][payload]` where the payload is one
//! [`encode_batch`] batch. Appends write a whole frame and sync;
//! recovery walks frames from the front and truncates the file at the
//! first torn or corrupt one, so a crash mid-append loses at most the
//! un-acknowledged frame and never yields a partial record.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use sclog_types::segment::{SEGMENT_FORMAT_VERSION, WAL_MAGIC};

use crate::crc::crc32;
use crate::record::{decode_batch, encode_batch, StoredAlert};
use crate::varint::corrupt;

/// Magic + version.
const HEADER_LEN: u64 = 8 + 2;

/// An open write-ahead log, positioned for appends.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    len: u64,
}

impl Wal {
    /// Opens (or creates) the WAL at `path`, recovering any surviving
    /// records. A torn tail is truncated at the last valid frame; a
    /// file too short to hold its header (the create itself tore) is
    /// rewritten empty, since the header is synced before any frame
    /// can have been acknowledged.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` for a foreign format version.
    pub fn open(path: &Path) -> io::Result<(Wal, Vec<StoredAlert>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        if bytes.len() < HEADER_LEN as usize || bytes[..8] != WAL_MAGIC {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(&WAL_MAGIC);
            header.extend_from_slice(&SEGMENT_FORMAT_VERSION.to_le_bytes());
            file.write_all(&header)?;
            file.sync_all()?;
            return Ok((
                Wal {
                    file,
                    path: path.to_path_buf(),
                    len: HEADER_LEN,
                },
                Vec::new(),
            ));
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != SEGMENT_FORMAT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("store: WAL format v{version}, this build reads v{SEGMENT_FORMAT_VERSION}"),
            ));
        }

        let mut records = Vec::new();
        let mut pos = HEADER_LEN as usize;
        while let Some(frame_end) = valid_frame_end(&bytes, pos, &mut records) {
            pos = frame_end;
        }
        if pos as u64 != bytes.len() as u64 {
            // Torn tail: drop everything from the first bad frame.
            file.set_len(pos as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                len: pos as u64,
            },
            records,
        ))
    }

    /// Appends one batch as a single synced frame, returning the bytes
    /// the frame added to the file.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing or syncing.
    pub fn append(&mut self, records: &[StoredAlert]) -> io::Result<u64> {
        let mut payload = Vec::new();
        encode_batch(records, &mut payload);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.len += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Discards every frame (after a seal), keeping the header.
    ///
    /// # Errors
    ///
    /// Any I/O failure truncating or syncing.
    pub fn reset(&mut self) -> io::Result<()> {
        self.file.set_len(HEADER_LEN)?;
        self.file.sync_all()?;
        self.file.seek(SeekFrom::Start(HEADER_LEN))?;
        self.len = HEADER_LEN;
        Ok(())
    }

    /// Bytes currently on disk, header included.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len == HEADER_LEN
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Validates the frame at `pos`; on success decodes it into `records`
/// and returns the frame's end offset. `None` means torn or corrupt.
fn valid_frame_end(bytes: &[u8], pos: usize, records: &mut Vec<StoredAlert>) -> Option<usize> {
    let header = bytes.get(pos..pos + 8)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    let payload = bytes.get(pos + 8..pos + 8 + len)?;
    if crc32(payload) != crc {
        return None;
    }
    let before = records.len();
    if decode_batch(payload, records).is_err() {
        records.truncate(before);
        return None;
    }
    Some(pos + 8 + len)
}

/// Decodes every valid frame in raw WAL `bytes` (test/tooling helper
/// mirroring recovery, without touching a file).
///
/// # Errors
///
/// `InvalidData` when the header itself is malformed.
pub fn replay(bytes: &[u8]) -> io::Result<Vec<StoredAlert>> {
    if bytes.len() < HEADER_LEN as usize || bytes[..8] != WAL_MAGIC {
        return Err(corrupt("WAL header"));
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    while let Some(end) = valid_frame_end(bytes, pos, &mut records) {
        pos = end;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_types::{CategoryId, NodeId, Severity, Timestamp};

    fn rec(seq: u64) -> StoredAlert {
        StoredAlert {
            time: Timestamp::from_micros(seq as i64 * 1000),
            host: NodeId::from_index(seq as u32 % 4),
            category: CategoryId::from_index(0),
            severity: Severity::None,
            message_index: seq as usize,
            filtered: seq.is_multiple_of(2),
            seq,
        }
    }

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sclog-store-waltest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.wal"))
    }

    #[test]
    fn append_reopen_recovers_all_frames() {
        let path = temp_wal("roundtrip");
        let _ = std::fs::remove_file(&path);
        let (mut wal, recovered) = Wal::open(&path).unwrap();
        assert!(recovered.is_empty());
        assert!(wal.is_empty());
        wal.append(&[rec(0), rec(1)]).unwrap();
        wal.append(&[rec(2)]).unwrap();
        drop(wal);
        let (wal, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered, vec![rec(0), rec(1), rec(2)]);
        assert!(!wal.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_last_valid_frame() {
        let path = temp_wal("torn");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&[rec(0)]).unwrap();
        let good_len = wal.len();
        wal.append(&[rec(1), rec(2)]).unwrap();
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (wal, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered, vec![rec(0)]);
        assert_eq!(wal.len(), good_len);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good_len,
            "torn frame physically removed"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_discards_frames_but_keeps_the_log_usable() {
        let path = temp_wal("reset");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = Wal::open(&path).unwrap();
        wal.append(&[rec(0)]).unwrap();
        wal.reset().unwrap();
        assert!(wal.is_empty());
        wal.append(&[rec(9)]).unwrap();
        drop(wal);
        let (_, recovered) = Wal::open(&path).unwrap();
        assert_eq!(recovered, vec![rec(9)]);
        std::fs::remove_file(&path).unwrap();
    }
}
