//! One `(system, day)` partition: a manifest of sealed segments plus
//! a WAL-backed in-memory tail.
//!
//! The manifest is the partition's source of truth — the id list of
//! live segments, the next id to allocate, and the highest sequence
//! already sealed. It is rewritten atomically (temp file + rename),
//! which makes every multi-file transition crash-safe:
//!
//! * **Seal**: write the segment file, commit the manifest (adds the
//!   id and advances `sealed_through`), then truncate the WAL. A
//!   crash between the last two steps replays WAL records already in
//!   a segment; recovery drops frames whose sequences are ≤
//!   `sealed_through`.
//! * **Compact**: write the merged segment, commit the manifest
//!   (swaps the run of small ids for the new one), then delete the
//!   old files. A crash at any point leaves either the old or the
//!   new segment set live; unreferenced files are swept on open.

use std::io;
use std::path::{Path, PathBuf};

use sclog_types::segment::{MANIFEST_MAGIC, SEGMENT_FORMAT_VERSION};
use sclog_types::CategoryRegistry;

use crate::crc::crc32;
use crate::record::StoredAlert;
use crate::segment::{segment_file_name, write_segment, Segment};
use crate::varint::{corrupt, get_u64, put_u64};
use crate::wal::Wal;

/// Manifest file name within a partition directory.
const MANIFEST_FILE: &str = "MANIFEST.bin";
/// WAL file name within a partition directory.
const WAL_FILE: &str = "wal.bin";

/// The durable index of one partition.
#[derive(Debug, Default, Clone, PartialEq)]
struct Manifest {
    /// Next segment id to allocate.
    next_id: u32,
    /// Highest sequence sealed into a segment, if any.
    sealed_through: Option<u64>,
    /// Live segment ids, in logical (seal) order.
    ids: Vec<u32>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, u64::from(self.next_id));
        // Option as varint: 0 = none, else value + 1.
        put_u64(&mut body, self.sealed_through.map_or(0, |s| s + 1));
        put_u64(&mut body, self.ids.len() as u64);
        for &id in &self.ids {
            put_u64(&mut body, u64::from(id));
        }
        let mut out = Vec::with_capacity(10 + body.len() + 4);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&SEGMENT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> io::Result<Manifest> {
        if bytes.len() < 14 || bytes[..8] != MANIFEST_MAGIC {
            return Err(corrupt("manifest magic"));
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != SEGMENT_FORMAT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "store: manifest format v{version}, this build reads v{SEGMENT_FORMAT_VERSION}"
                ),
            ));
        }
        let body = &bytes[10..bytes.len() - 4];
        let crc_bytes: [u8; 4] = bytes[bytes.len() - 4..].try_into().expect("4 bytes");
        if crc32(body) != u32::from_le_bytes(crc_bytes) {
            return Err(corrupt("manifest CRC"));
        }
        let mut pos = 0usize;
        let next_id = get_u64(body, &mut pos)?;
        if next_id > u64::from(u32::MAX) {
            return Err(corrupt("manifest next id"));
        }
        let sealed_through = match get_u64(body, &mut pos)? {
            0 => None,
            s => Some(s - 1),
        };
        let id_count = get_u64(body, &mut pos)?;
        if id_count > next_id {
            return Err(corrupt("manifest id count"));
        }
        let mut ids = Vec::with_capacity(id_count as usize);
        for _ in 0..id_count {
            let id = get_u64(body, &mut pos)?;
            if id >= next_id {
                return Err(corrupt("manifest segment id"));
            }
            ids.push(id as u32);
        }
        if pos != body.len() {
            return Err(corrupt("manifest (trailing bytes)"));
        }
        Ok(Manifest {
            next_id: next_id as u32,
            sealed_through,
            ids,
        })
    }

    fn persist(&self, dir: &Path) -> io::Result<()> {
        let path = dir.join(MANIFEST_FILE);
        let tmp = dir.join("MANIFEST.tmp");
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.encode())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)
    }

    fn load(dir: &Path) -> io::Result<Manifest> {
        match std::fs::read(dir.join(MANIFEST_FILE)) {
            Ok(bytes) => Manifest::decode(&bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Manifest::default()),
            Err(e) => Err(e),
        }
    }
}

/// One open `(system, day)` partition.
#[derive(Debug)]
pub struct Partition {
    dir: PathBuf,
    manifest: Manifest,
    wal: Wal,
    /// Unsealed records, mirrored in the WAL, in append order.
    pub tail: Vec<StoredAlert>,
    /// Sealed segments in logical order.
    pub sealed: Vec<Segment>,
}

impl Partition {
    /// Opens (or creates) the partition at `dir`: loads the manifest,
    /// opens every live segment's zone map, sweeps unreferenced
    /// segment and temp files, and recovers the WAL tail — dropping
    /// frames already covered by `sealed_through`.
    ///
    /// # Errors
    ///
    /// I/O failures or corruption in the manifest or a live segment's
    /// header/zone (a torn WAL tail is recovered, not an error).
    pub fn open(dir: &Path) -> io::Result<Partition> {
        std::fs::create_dir_all(dir)?;
        let manifest = Manifest::load(dir)?;
        let mut sealed = Vec::with_capacity(manifest.ids.len());
        for &id in &manifest.ids {
            sealed.push(Segment::open(dir, id)?);
        }
        sweep_garbage(dir, &manifest.ids)?;
        let (wal, mut tail) = Wal::open(&dir.join(WAL_FILE))?;
        if let Some(through) = manifest.sealed_through {
            tail.retain(|r| r.seq > through);
        }
        Ok(Partition {
            dir: dir.to_path_buf(),
            manifest,
            wal,
            tail,
            sealed,
        })
    }

    /// Appends `records` durably (one WAL frame) and to the tail,
    /// returning the bytes the frame added to the WAL.
    ///
    /// # Errors
    ///
    /// Any WAL write failure; the tail is untouched on error.
    pub fn append(&mut self, records: &[StoredAlert]) -> io::Result<u64> {
        if records.is_empty() {
            return Ok(0);
        }
        let bytes = self.wal.append(records)?;
        self.tail.extend_from_slice(records);
        Ok(bytes)
    }

    /// Seals the tail into a new segment, commits the manifest, and
    /// truncates the WAL. No-op on an empty tail.
    ///
    /// # Errors
    ///
    /// Any I/O failure; the partition stays consistent (see module
    /// docs for the crash ordering).
    pub fn seal(&mut self, categories: &CategoryRegistry) -> io::Result<()> {
        if self.tail.is_empty() {
            return Ok(());
        }
        let id = self.manifest.next_id;
        let segment = write_segment(&self.dir, id, &self.tail, categories)?;
        let max_seq = self.tail.iter().map(|r| r.seq).max().expect("non-empty");
        let mut next = self.manifest.clone();
        next.next_id = id + 1;
        next.sealed_through = Some(
            self.manifest
                .sealed_through
                .map_or(max_seq, |s| s.max(max_seq)),
        );
        next.ids.push(id);
        next.persist(&self.dir)?;
        self.manifest = next;
        self.sealed.push(segment);
        self.tail.clear();
        self.wal.reset()
    }

    /// Merges adjacent runs of at least two sealed segments that each
    /// hold fewer than `small_than` records. Returns the number of
    /// segments removed by merging (0 when nothing qualified).
    ///
    /// # Errors
    ///
    /// Any I/O failure reading runs or committing the merge.
    pub fn compact(&mut self, categories: &CategoryRegistry, small_than: u64) -> io::Result<usize> {
        let mut removed = 0usize;
        loop {
            let Some((start, len)) = first_small_run(&self.sealed, small_than) else {
                return Ok(removed);
            };
            let mut merged: Vec<StoredAlert> = Vec::new();
            for segment in &self.sealed[start..start + len] {
                merged.extend(segment.read_records()?);
            }
            let id = self.manifest.next_id;
            let segment = write_segment(&self.dir, id, &merged, categories)?;
            let mut next = self.manifest.clone();
            next.next_id = id + 1;
            next.ids.splice(start..start + len, [id]);
            next.persist(&self.dir)?;
            self.manifest = next;
            let old: Vec<Segment> = self.sealed.splice(start..start + len, [segment]).collect();
            for segment in old {
                // Best-effort: a leftover file is swept on next open.
                let _ = std::fs::remove_file(&segment.path);
            }
            removed += len - 1;
        }
    }

    /// Records in the partition (sealed + tail).
    pub fn record_count(&self) -> u64 {
        self.sealed.iter().map(|s| s.zone.count).sum::<u64>() + self.tail.len() as u64
    }
}

/// Finds the first run of ≥ 2 adjacent segments all smaller than
/// `small_than` records, as `(start, len)`.
fn first_small_run(sealed: &[Segment], small_than: u64) -> Option<(usize, usize)> {
    let mut start = None;
    for (i, segment) in sealed.iter().enumerate() {
        if segment.zone.count < small_than {
            let s = *start.get_or_insert(i);
            if i + 1 == sealed.len() && i > s {
                return Some((s, i + 1 - s));
            }
        } else {
            if let Some(s) = start.take() {
                if i - s >= 2 {
                    return Some((s, i - s));
                }
            }
        }
    }
    None
}

/// Removes segment and temp files not referenced by the manifest.
fn sweep_garbage(dir: &Path, live: &[u32]) -> io::Result<()> {
    let live_names: Vec<String> = live.iter().map(|&id| segment_file_name(id)).collect();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_garbage = name.ends_with(".tmp")
            || (name.starts_with("seg-")
                && name.ends_with(".seg")
                && !live_names.iter().any(|n| n == name));
        if is_garbage {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_types::{AlertType, CategoryId, NodeId, Severity, SystemId, Timestamp};

    fn registry() -> CategoryRegistry {
        let mut reg = CategoryRegistry::new();
        reg.register("CAT", SystemId::Liberty, AlertType::Hardware);
        reg
    }

    fn rec(seq: u64) -> StoredAlert {
        StoredAlert {
            time: Timestamp::from_micros(seq as i64 * 500_000),
            host: NodeId::from_index(seq as u32 % 3),
            category: CategoryId::from_index(0),
            severity: Severity::None,
            message_index: seq as usize,
            filtered: true,
            seq,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sclog-store-parttest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn seal_then_reopen_recovers_both_layers() {
        let reg = registry();
        let dir = temp_dir("layers");
        let mut p = Partition::open(&dir).unwrap();
        p.append(&[rec(0), rec(1)]).unwrap();
        p.seal(&reg).unwrap();
        p.append(&[rec(2)]).unwrap();
        assert_eq!(p.record_count(), 3);
        drop(p);
        let p = Partition::open(&dir).unwrap();
        assert_eq!(p.sealed.len(), 1);
        assert_eq!(p.sealed[0].zone.count, 2);
        assert_eq!(p.tail, vec![rec(2)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_frames_already_sealed_are_dropped_on_recovery() {
        let reg = registry();
        let dir = temp_dir("sealcrash");
        let mut p = Partition::open(&dir).unwrap();
        p.append(&[rec(0), rec(1)]).unwrap();
        // Simulate a crash between manifest commit and WAL truncate:
        // seal normally, then restore the pre-seal WAL bytes.
        let wal_path = dir.join(WAL_FILE);
        let wal_before = std::fs::read(&wal_path).unwrap();
        p.seal(&reg).unwrap();
        drop(p);
        std::fs::write(&wal_path, &wal_before).unwrap();
        let p = Partition::open(&dir).unwrap();
        assert_eq!(p.sealed.len(), 1);
        assert!(p.tail.is_empty(), "sealed records must not replay");
        assert_eq!(p.record_count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_merges_small_runs_and_survives_reopen() {
        let reg = registry();
        let dir = temp_dir("compact");
        let mut p = Partition::open(&dir).unwrap();
        for seq in 0..6u64 {
            p.append(&[rec(seq)]).unwrap();
            p.seal(&reg).unwrap();
        }
        assert_eq!(p.sealed.len(), 6);
        let removed = p.compact(&reg, 4).unwrap();
        assert_eq!(removed, 5);
        assert_eq!(p.sealed.len(), 1);
        assert_eq!(p.record_count(), 6);
        let records = p.sealed[0].read_records().unwrap();
        assert_eq!(records.len(), 6);
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
        drop(p);
        let p = Partition::open(&dir).unwrap();
        assert_eq!(p.sealed.len(), 1);
        assert_eq!(p.record_count(), 6);
        // Exactly one live segment file remains on disk.
        let seg_files = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.ends_with(".seg"))
            })
            .count();
        assert_eq!(seg_files, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreferenced_segment_files_are_swept() {
        let reg = registry();
        let dir = temp_dir("sweep");
        let mut p = Partition::open(&dir).unwrap();
        p.append(&[rec(0)]).unwrap();
        p.seal(&reg).unwrap();
        drop(p);
        // A garbage segment (e.g. compaction output whose manifest
        // commit never happened) and a stray temp file.
        std::fs::write(dir.join(segment_file_name(99)), b"junk").unwrap();
        std::fs::write(dir.join("MANIFEST.tmp"), b"junk").unwrap();
        let p = Partition::open(&dir).unwrap();
        assert_eq!(p.sealed.len(), 1);
        assert!(!dir.join(segment_file_name(99)).exists());
        assert!(!dir.join("MANIFEST.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
