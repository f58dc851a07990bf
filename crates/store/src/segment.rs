//! Sealed segment files: header + zone map + CRC-framed payload.
//!
//! Layout (integers little-endian):
//!
//! ```text
//! SEGMENT_MAGIC (8)  version u16  zone_len u32
//! zone-map bytes     zone CRC32 u32
//! record payload     payload CRC32 u32
//! ```
//!
//! The zone map sits ahead of the payload with its own CRC so pruning
//! reads a few dozen bytes and never touches (or validates) the
//! payload. Opening a segment reads only the zone; `read_block`
//! fetches, CRC-checks and decodes the records into a columnar
//! [`Block`] on demand. The on-disk bytes are untouched by that
//! layout: the block exists only in memory.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use sclog_types::segment::{SEGMENT_FORMAT_VERSION, SEGMENT_MAGIC};
use sclog_types::CategoryRegistry;

use crate::column::Block;
use crate::crc::crc32;
use crate::record::{decode_batch, encode_batch, StoredAlert};
use crate::varint::corrupt;
use crate::zonemap::ZoneMap;

/// Fixed header size: magic + version + zone length.
const HEADER_LEN: usize = 8 + 2 + 4;

/// One sealed segment: its file path and resident zone map.
#[derive(Debug)]
pub struct Segment {
    /// Segment id within its partition (also names the file).
    pub id: u32,
    /// Path of the segment file.
    pub path: PathBuf,
    /// Resident summary used for pruning.
    pub zone: ZoneMap,
    /// Decoded columnar payload, memoized after the first un-pruned
    /// read when the store is configured to cache.
    cache: OnceLock<Arc<Block>>,
}

/// The file name of segment `id`.
pub fn segment_file_name(id: u32) -> String {
    format!("seg-{id:08}.seg")
}

/// Writes `records` as segment `id` in `dir`, returning the sealed
/// [`Segment`]. The file is written to a temporary name and renamed
/// into place so a crash mid-write never leaves a live, half-written
/// segment (unreferenced garbage is swept on open).
///
/// # Errors
///
/// Any I/O failure writing, syncing, or renaming the file.
///
/// # Panics
///
/// Panics on an empty batch — empty segments are never sealed.
pub fn write_segment(
    dir: &Path,
    id: u32,
    records: &[StoredAlert],
    categories: &CategoryRegistry,
) -> io::Result<Segment> {
    let mut payload = Vec::new();
    encode_batch(records, &mut payload);
    let mut zone = ZoneMap::build(records, categories);
    zone.payload_len = payload.len() as u64;

    let mut zone_bytes = Vec::new();
    zone.encode(&mut zone_bytes);

    let mut file_bytes = Vec::with_capacity(HEADER_LEN + zone_bytes.len() + payload.len() + 8);
    file_bytes.extend_from_slice(&SEGMENT_MAGIC);
    file_bytes.extend_from_slice(&SEGMENT_FORMAT_VERSION.to_le_bytes());
    file_bytes.extend_from_slice(&(zone_bytes.len() as u32).to_le_bytes());
    file_bytes.extend_from_slice(&zone_bytes);
    file_bytes.extend_from_slice(&crc32(&zone_bytes).to_le_bytes());
    file_bytes.extend_from_slice(&payload);
    file_bytes.extend_from_slice(&crc32(&payload).to_le_bytes());

    let path = dir.join(segment_file_name(id));
    let tmp = dir.join(format!("{}.tmp", segment_file_name(id)));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&file_bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(Segment {
        id,
        path,
        zone,
        cache: OnceLock::new(),
    })
}

impl Segment {
    /// Opens segment `id` in `dir`, reading and validating only the
    /// header and zone map.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic, foreign format version, zone CRC
    /// mismatch, or a file too short for its declared payload.
    pub fn open(dir: &Path, id: u32) -> io::Result<Segment> {
        let path = dir.join(segment_file_name(id));
        let mut file = File::open(&path)?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header)
            .map_err(|_| corrupt("segment header (truncated)"))?;
        if header[..8] != SEGMENT_MAGIC {
            return Err(corrupt("segment magic"));
        }
        let version = u16::from_le_bytes([header[8], header[9]]);
        if version != SEGMENT_FORMAT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "store: segment format v{version}, this build reads v{SEGMENT_FORMAT_VERSION}"
                ),
            ));
        }
        let zone_len =
            u32::from_le_bytes([header[10], header[11], header[12], header[13]]) as usize;
        if zone_len > 1 << 24 {
            return Err(corrupt("segment zone length"));
        }
        let mut zone_bytes = vec![0u8; zone_len + 4];
        file.read_exact(&mut zone_bytes)
            .map_err(|_| corrupt("segment zone (truncated)"))?;
        let crc_bytes: [u8; 4] = zone_bytes[zone_len..].try_into().expect("4 bytes");
        if crc32(&zone_bytes[..zone_len]) != u32::from_le_bytes(crc_bytes) {
            return Err(corrupt("segment zone CRC"));
        }
        let zone = ZoneMap::decode(&zone_bytes[..zone_len])?;
        let expected = (HEADER_LEN + zone_len + 4) as u64 + zone.payload_len + 4;
        if file.metadata()?.len() != expected {
            return Err(corrupt("segment length"));
        }
        Ok(Segment {
            id,
            path,
            zone,
            cache: OnceLock::new(),
        })
    }

    /// Reads, CRC-checks, and decodes the record payload into a
    /// [`Block`] sorted by `(time, seq)`. Returns the block plus the
    /// number of file bytes actually read (zero on a cache hit).
    /// `cache` memoizes the block for the segment's lifetime.
    ///
    /// # Errors
    ///
    /// `InvalidData` on payload CRC mismatch or a malformed batch.
    pub fn read_block(&self, cache: bool) -> io::Result<(Arc<Block>, u64)> {
        if cache {
            if let Some(hit) = self.cache.get() {
                return Ok((Arc::clone(hit), 0));
            }
        }
        let (payload, bytes_read) = self.read_payload()?;
        let block = Arc::new(Block::decode(payload, self.zone.count)?);
        if cache {
            // A concurrent reader may have raced us here; either copy
            // decoded from identical bytes, so keep whichever won.
            let _ = self.cache.set(Arc::clone(&block));
        }
        Ok((block, bytes_read))
    }

    /// Reads and decodes the records in payload (admission) order,
    /// uncached — what compaction rewrites, so a merged segment keeps
    /// the byte layout its inputs had.
    ///
    /// # Errors
    ///
    /// `InvalidData` on payload CRC mismatch or a malformed batch.
    pub fn read_records(&self) -> io::Result<Vec<StoredAlert>> {
        let (payload, _) = self.read_payload()?;
        let mut records = Vec::new();
        decode_batch(&payload, &mut records)?;
        if records.len() as u64 != self.zone.count {
            return Err(corrupt("segment record count"));
        }
        Ok(records)
    }

    /// The CRC-checked payload bytes, plus the file bytes read.
    fn read_payload(&self) -> io::Result<(Vec<u8>, u64)> {
        let mut file = File::open(&self.path)?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header)?;
        let zone_len = u32::from_le_bytes([header[10], header[11], header[12], header[13]]) as u64;
        file.seek(SeekFrom::Start(HEADER_LEN as u64 + zone_len + 4))?;
        let len = self.zone.payload_len as usize;
        let mut payload = vec![0u8; len + 4];
        file.read_exact(&mut payload)
            .map_err(|_| corrupt("segment payload (truncated)"))?;
        let crc_bytes: [u8; 4] = payload[len..].try_into().expect("4 bytes");
        if crc32(&payload[..len]) != u32::from_le_bytes(crc_bytes) {
            return Err(corrupt("segment payload CRC"));
        }
        let read = (HEADER_LEN as u64) + zone_len + 4 + payload.len() as u64;
        payload.truncate(len);
        Ok((payload, read))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_types::{AlertType, CategoryId, NodeId, Severity, SystemId, Timestamp};

    fn fixture() -> (CategoryRegistry, Vec<StoredAlert>) {
        let mut reg = CategoryRegistry::new();
        reg.register("CAT A", SystemId::Liberty, AlertType::Hardware);
        let records: Vec<StoredAlert> = (0..10)
            .map(|i| StoredAlert {
                time: Timestamp::from_micros(1_000_000 + i),
                host: NodeId::from_index(i as u32 % 3),
                category: CategoryId::from_index(0),
                severity: Severity::None,
                message_index: i as usize,
                filtered: i % 2 == 0,
                seq: i as u64,
            })
            .collect();
        (reg, records)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sclog-store-segtest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn seal_open_read_round_trip() {
        let (reg, records) = fixture();
        let dir = temp_dir("roundtrip");
        let sealed = write_segment(&dir, 7, &records, &reg).unwrap();
        let reopened = Segment::open(&dir, 7).unwrap();
        assert_eq!(reopened.zone, sealed.zone);
        assert_eq!(reopened.read_records().unwrap(), records);
        let (got, bytes) = reopened.read_block(true).unwrap();
        assert_eq!(
            (0..got.len()).map(|i| got.row(i)).collect::<Vec<_>>(),
            records
        );
        assert!(bytes > 0, "first read touches the file");
        let (_, bytes) = reopened.read_block(true).unwrap();
        assert_eq!(bytes, 0, "second read is a cache hit");
        let (_, bytes) = reopened.read_block(false).unwrap();
        assert!(bytes > 0, "uncached read touches the file again");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_payload_is_detected() {
        let (reg, records) = fixture();
        let dir = temp_dir("corrupt");
        let sealed = write_segment(&dir, 1, &records, &reg).unwrap();
        let mut bytes = std::fs::read(&sealed.path).unwrap();
        let flip = bytes.len() - 10; // inside the payload
        bytes[flip] ^= 0xFF;
        std::fs::write(&sealed.path, &bytes).unwrap();
        let reopened = Segment::open(&dir, 1).unwrap();
        assert!(reopened.read_block(false).is_err());
        assert!(reopened.read_records().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_version_is_refused() {
        let (reg, records) = fixture();
        let dir = temp_dir("version");
        let sealed = write_segment(&dir, 2, &records, &reg).unwrap();
        let mut bytes = std::fs::read(&sealed.path).unwrap();
        bytes[8] = 0xFF; // version low byte
        std::fs::write(&sealed.path, &bytes).unwrap();
        let err = Segment::open(&dir, 2).unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
