//! The store facade: a catalog plus `(system, day)` partitions.
//!
//! Layout on disk, under one root directory:
//!
//! ```text
//! root/catalog.bin                  host + category tables
//! root/<system-slug>/<YYYY-MM-DD>/  one partition per (system, day)
//!     MANIFEST.bin  wal.bin  seg-XXXXXXXX.seg …
//! ```
//!
//! Appends assign a store-global admission sequence, route each
//! record to its partition, and land in that partition's WAL;
//! partitions whose tail reaches the configured threshold are sealed
//! into zone-mapped segments. Scans prune at two levels — whole
//! partitions by system and day, then sealed segments by zone map —
//! before any payload is read, then select from each segment's
//! columnar block a column at a time (see `column`).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use sclog_obs::{Counter, Recorder, Stage, ThreadRecorder};
use sclog_types::segment::{system_code, system_from_code, system_slug};
use sclog_types::{AlertType, CategoryId, NodeId, ScanStats, SystemId, Timestamp};

use crate::catalog::Catalog;
use crate::column::{Block, CompiledFilter, Covered, Run};
use crate::partition::Partition;
use crate::record::StoredAlert;
use crate::varint::corrupt;
use crate::zonemap::ScanFilter;

/// Microseconds in one day; the partitioning grain.
const DAY_MICROS: i64 = 86_400_000_000;

/// Catalog file name under the store root.
const CATALOG_FILE: &str = "catalog.bin";

/// Tuning knobs for a store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Tail size at which a partition is auto-sealed on append.
    pub seal_records: usize,
    /// Memoize decoded segment blocks for the store's lifetime.
    /// Serving daemons want this; benches measuring real reads do not.
    pub cache_payloads: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            seal_records: 4096,
            cache_payloads: true,
        }
    }
}

/// Obs handles for the store's hot paths. Register once (before any
/// worker thread is spawned — the obs registry seals at first
/// `thread()`), or use [`StoreMetrics::disabled`] for no-op handles.
#[derive(Debug, Clone, Copy)]
pub struct StoreMetrics {
    /// Sealed segments skipped by partition or zone-map pruning.
    pub segments_pruned: Counter,
    /// Sealed segments whose payload a scan actually visited.
    pub segments_scanned: Counter,
    /// Segment-file bytes read by scans (cache hits read zero).
    pub bytes_read: Counter,
    /// WAL append work.
    pub wal: Stage,
    /// Segment seal work.
    pub seal: Stage,
    /// Compaction work.
    pub compact: Stage,
}

impl StoreMetrics {
    /// Registers the store's metrics on `recorder`.
    pub fn register(recorder: &Recorder) -> StoreMetrics {
        StoreMetrics {
            segments_pruned: recorder.counter("store.segments_pruned"),
            segments_scanned: recorder.counter("store.segments_scanned"),
            bytes_read: recorder.counter("store.bytes_read"),
            wal: recorder.stage("store.wal"),
            seal: recorder.stage("store.seal"),
            compact: recorder.stage("store.compact"),
        }
    }

    /// No-op handles, safe to use through any thread recorder.
    pub fn disabled() -> StoreMetrics {
        StoreMetrics::register(&Recorder::disabled())
    }
}

/// An open segment store.
#[derive(Debug)]
pub struct SegmentStore {
    root: PathBuf,
    config: StoreConfig,
    catalog: Catalog,
    catalog_dirty: bool,
    /// Keyed by `(system code, day index)` so iteration groups a
    /// system's days contiguously in time order.
    partitions: BTreeMap<(u8, i64), Partition>,
    next_seq: u64,
}

/// The day index of `time` (days since the epoch, floored).
fn day_of(time: Timestamp) -> i64 {
    time.as_micros().div_euclid(DAY_MICROS)
}

/// The partition directory name for day index `day`.
fn day_dir_name(day: i64) -> String {
    let (y, m, d, _, _, _) = Timestamp::from_micros(day * DAY_MICROS).to_civil();
    format!("{y:04}-{m:02}-{d:02}")
}

/// Parses a `YYYY-MM-DD` partition directory name back to its day
/// index; `None` for foreign directory names.
fn parse_day_dir(name: &str) -> Option<i64> {
    let bytes = name.as_bytes();
    if bytes.len() != 10 || bytes[4] != b'-' || bytes[7] != b'-' {
        return None;
    }
    let year: i32 = name[..4].parse().ok()?;
    let month: u32 = name[5..7].parse().ok()?;
    let day: u32 = name[8..10].parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    Some(day_of(Timestamp::from_ymd_hms(year, month, day, 0, 0, 0)))
}

impl SegmentStore {
    /// Opens (or creates) the store rooted at `root`: loads the
    /// catalog, opens every partition (recovering WAL tails), and
    /// restores the global sequence counter past everything on disk.
    ///
    /// # Errors
    ///
    /// I/O failures, or corruption in the catalog, a manifest, or a
    /// live segment's zone.
    pub fn open(root: &Path, config: StoreConfig) -> io::Result<SegmentStore> {
        std::fs::create_dir_all(root)?;
        let catalog = Catalog::load(&root.join(CATALOG_FILE))?;
        let mut partitions = BTreeMap::new();
        let mut next_seq = 0u64;
        for entry in std::fs::read_dir(root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let slug = entry.file_name();
            let Some(system) = slug.to_str().and_then(slug_to_code) else {
                continue;
            };
            for day_entry in std::fs::read_dir(entry.path())? {
                let day_entry = day_entry?;
                let Some(day) = day_entry.file_name().to_str().and_then(parse_day_dir) else {
                    continue;
                };
                let partition = Partition::open(&day_entry.path())?;
                let high = partition
                    .sealed
                    .iter()
                    .map(|s| s.zone.max_seq)
                    .chain(partition.tail.iter().map(|r| r.seq))
                    .max();
                if let Some(high) = high {
                    next_seq = next_seq.max(high + 1);
                }
                partitions.insert((system, day), partition);
            }
        }
        Ok(SegmentStore {
            root: root.to_path_buf(),
            config,
            catalog,
            catalog_dirty: false,
            partitions,
            next_seq,
        })
    }

    /// The host/category name tables.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Interns a host name, returning its stable id.
    pub fn intern_host(&mut self, name: &str) -> NodeId {
        let before = self.catalog.hosts.len();
        let id = self.catalog.hosts.intern(name);
        self.catalog_dirty |= self.catalog.hosts.len() != before;
        id
    }

    /// Registers a category, returning its stable id.
    pub fn register_category(
        &mut self,
        name: &str,
        system: SystemId,
        class: AlertType,
    ) -> CategoryId {
        let before = self.catalog.categories.len();
        let id = self.catalog.categories.register(name, system, class);
        self.catalog_dirty |= self.catalog.categories.len() != before;
        id
    }

    /// Persists the catalog if any name was added since the last
    /// write. Called automatically before any record is appended, so
    /// on-disk records never reference an id the on-disk catalog
    /// lacks.
    ///
    /// # Errors
    ///
    /// Any I/O failure writing the catalog.
    pub fn flush_catalog(&mut self) -> io::Result<()> {
        if self.catalog_dirty {
            self.catalog.persist(&self.root.join(CATALOG_FILE))?;
            self.catalog_dirty = false;
        }
        Ok(())
    }

    /// Appends `records` durably. Each record's `seq` is assigned
    /// here (input order = admission order); records are routed to
    /// their `(system, day)` partition's WAL, and any partition whose
    /// tail reaches the seal threshold is sealed.
    ///
    /// # Errors
    ///
    /// Any I/O failure persisting the catalog, WAL frames, or a seal.
    pub fn append(
        &mut self,
        records: &[StoredAlert],
        rec: &ThreadRecorder,
        metrics: &StoreMetrics,
    ) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        self.flush_catalog()?;
        // Route in admission order, batching consecutive same-partition
        // records into one WAL frame each.
        let mut batches: BTreeMap<(u8, i64), Vec<StoredAlert>> = BTreeMap::new();
        for r in records {
            let mut routed = *r;
            routed.seq = self.next_seq;
            self.next_seq += 1;
            let system = system_code(self.catalog.categories.def(r.category).system);
            batches
                .entry((system, day_of(r.time)))
                .or_default()
                .push(routed);
        }
        let mut bytes = 0u64;
        let mut appended = 0u64;
        {
            let _span = rec.span(metrics.wal);
            for (key, batch) in &batches {
                let partition = self.partition_mut(*key)?;
                bytes += partition.append(batch)?;
                appended += batch.len() as u64;
            }
            rec.stage_items(metrics.wal, appended, bytes);
        }
        let seal_records = self.config.seal_records;
        for key in batches.keys() {
            let partition = self.partitions.get_mut(key).expect("just appended");
            if partition.tail.len() >= seal_records {
                let _span = rec.span(metrics.seal);
                let sealed = partition.tail.len() as u64;
                partition.seal(&self.catalog.categories)?;
                rec.stage_items(metrics.seal, sealed, 0);
            }
        }
        Ok(())
    }

    /// Seals every partition's tail (e.g. at end of ingest or on
    /// graceful shutdown) and flushes the catalog.
    ///
    /// # Errors
    ///
    /// Any I/O failure sealing or flushing.
    pub fn seal_all(&mut self, rec: &ThreadRecorder, metrics: &StoreMetrics) -> io::Result<()> {
        self.flush_catalog()?;
        let _span = rec.span(metrics.seal);
        let mut sealed = 0u64;
        for partition in self.partitions.values_mut() {
            sealed += partition.tail.len() as u64;
            partition.seal(&self.catalog.categories)?;
        }
        rec.stage_items(metrics.seal, sealed, 0);
        Ok(())
    }

    /// Compacts every partition: adjacent runs of segments smaller
    /// than half the seal threshold are merged. Returns the number of
    /// segments removed by merging.
    ///
    /// # Errors
    ///
    /// Any I/O failure reading or rewriting segments.
    pub fn compact(&mut self, rec: &ThreadRecorder, metrics: &StoreMetrics) -> io::Result<usize> {
        let _span = rec.span(metrics.compact);
        let threshold = (self.config.seal_records as u64 / 2).max(2);
        let mut removed = 0usize;
        for partition in self.partitions.values_mut() {
            removed += partition.compact(&self.catalog.categories, threshold)?;
        }
        rec.stage_items(metrics.compact, removed as u64, 0);
        Ok(removed)
    }

    /// Runs `filter` over the store, handing `visit` the matches of
    /// each sealed segment and of each partition's unsealed tail as
    /// sorted [`Run`]s of at most [`RUN_ROWS`](crate::RUN_ROWS) rows —
    /// the store's one scan loop. Within a segment (or tail) matches
    /// arrive in `(time, seq)` order; segments arrive in storage order
    /// (partitions by `(system, day)`, then segments, then the tail).
    /// Nothing beyond one decoded segment block is buffered, whatever
    /// the hit count.
    ///
    /// The filter is compiled once. Each segment's block is scanned a
    /// column at a time: the time window is a binary search on the
    /// sorted `time` column, every other predicate builds 64-row
    /// selection words from its own column, and — with `prune` set —
    /// a predicate the zone map proves true for every row is skipped.
    /// A partition's unsealed tail is copied into a sorted block of its
    /// own for the scan and selected the same way.
    ///
    /// With `prune` set, whole partitions are skipped by system and
    /// day and sealed segments by zone map before any payload is
    /// read; pruning and covering are conservative, so the matches are
    /// identical to a full scan's. The returned [`ScanStats`] is this
    /// scan's by-value accounting — what pruning skipped versus what
    /// was read and decoded — and the same numbers are credited to the
    /// cumulative `metrics` counters through `rec`.
    ///
    /// # Errors
    ///
    /// Any I/O failure or corruption reading a segment payload.
    pub fn scan_runs(
        &self,
        filter: &ScanFilter,
        prune: bool,
        rec: &ThreadRecorder,
        metrics: &StoreMetrics,
        mut visit: impl FnMut(&Run<'_>),
    ) -> io::Result<ScanStats> {
        let day_from = filter.from.map(day_of);
        let day_to = filter.to.map(day_of);
        let system = filter.system.map(system_code);
        let compiled = CompiledFilter::compile(filter, &self.catalog.categories);
        let mut stats = ScanStats::default();
        for (&(part_system, day), partition) in &self.partitions {
            let partition_pruned = prune
                && (system.is_some_and(|s| s != part_system)
                    || day_from.is_some_and(|d| day < d)
                    || day_to.is_some_and(|d| day > d));
            if partition_pruned {
                stats.partitions_pruned += 1;
                stats.zones_pruned += partition.sealed.len() as u64;
                continue;
            }
            stats.partitions_scanned += 1;
            for segment in &partition.sealed {
                if prune && !segment.zone.may_match(filter) {
                    stats.zones_pruned += 1;
                    continue;
                }
                let (block, read) = segment.read_block(self.config.cache_payloads)?;
                stats.zones_scanned += 1;
                stats.bytes_read += read;
                stats.rows_decoded += block.len() as u64;
                let covered = if prune {
                    compiled.covered(&segment.zone)
                } else {
                    Covered::default()
                };
                stats.zones_covered += u64::from(covered.all());
                stats.words_summarised += compiled.scan_block(&block, covered, &mut visit);
            }
            stats.rows_decoded += partition.tail.len() as u64;
            let block = Block::from_rows(&partition.tail)?;
            stats.words_summarised += compiled.scan_block(&block, Covered::default(), &mut visit);
        }
        rec.add(metrics.segments_pruned, stats.zones_pruned);
        rec.add(metrics.segments_scanned, stats.zones_scanned);
        rec.add(metrics.bytes_read, stats.bytes_read);
        Ok(stats)
    }

    /// [`SegmentStore::scan_runs`] one match at a time: `visit` sees
    /// every match, in `(time, seq)` order within each segment (or
    /// tail) and segments in storage order — not globally time-ordered.
    ///
    /// # Errors
    ///
    /// Any I/O failure or corruption reading a segment payload.
    pub fn scan_with(
        &self,
        filter: &ScanFilter,
        prune: bool,
        rec: &ThreadRecorder,
        metrics: &StoreMetrics,
        mut visit: impl FnMut(&StoredAlert),
    ) -> io::Result<ScanStats> {
        self.scan_runs(filter, prune, rec, metrics, |run| {
            run.alerts().for_each(|alert| visit(&alert));
        })
    }

    /// [`SegmentStore::scan_with`] collected and sorted by `(time,
    /// seq)` — time order with admission-order ties. O(hits) memory:
    /// the oracle streaming consumers are tested against.
    ///
    /// # Errors
    ///
    /// Any I/O failure or corruption reading a segment payload.
    pub fn scan(
        &self,
        filter: &ScanFilter,
        prune: bool,
        rec: &ThreadRecorder,
        metrics: &StoreMetrics,
    ) -> io::Result<(Vec<StoredAlert>, ScanStats)> {
        let mut out = Vec::new();
        let stats = self.scan_with(filter, prune, rec, metrics, |r| out.push(*r))?;
        out.sort_by_key(|r| (r.time, r.seq));
        Ok((out, stats))
    }

    /// Total records across all partitions (sealed + tails).
    pub fn record_count(&self) -> u64 {
        self.partitions.values().map(Partition::record_count).sum()
    }

    /// Open partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Sealed segments across all partitions.
    pub fn segment_count(&self) -> usize {
        self.partitions.values().map(|p| p.sealed.len()).sum()
    }

    /// The next sequence an append would assign (also the count of
    /// sequences ever assigned; used as a cheap store version).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn partition_mut(&mut self, key: (u8, i64)) -> io::Result<&mut Partition> {
        if !self.partitions.contains_key(&key) {
            let system = system_from_code(key.0).ok_or_else(|| corrupt("partition system code"))?;
            let dir = self
                .root
                .join(system_slug(system))
                .join(day_dir_name(key.1));
            self.partitions.insert(key, Partition::open(&dir)?);
        }
        Ok(self.partitions.get_mut(&key).expect("just inserted"))
    }
}

/// Inverse of [`system_slug`] for directory enumeration.
fn slug_to_code(slug: &str) -> Option<u8> {
    (0..u8::MAX).find(|&code| system_from_code(code).is_some_and(|s| system_slug(s) == slug))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_types::Severity;

    fn disabled_rec() -> ThreadRecorder {
        Recorder::disabled().thread("test")
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sclog-store-storetest-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn scan(store: &SegmentStore, f: &ScanFilter, prune: bool) -> (Vec<StoredAlert>, ScanStats) {
        let metrics = StoreMetrics::disabled();
        store.scan(f, prune, &disabled_rec(), &metrics).unwrap()
    }

    /// Two systems, two days, a few hosts; every tail sealed.
    fn build(root: &Path, seal_records: usize) -> SegmentStore {
        let mut store = SegmentStore::open(
            root,
            StoreConfig {
                seal_records,
                cache_payloads: false,
            },
        )
        .unwrap();
        let lib = store.register_category("PBS_CHK", SystemId::Liberty, AlertType::Software);
        let bgl = store.register_category("KERNDTLB", SystemId::BlueGeneL, AlertType::Hardware);
        let h0 = store.intern_host("sn373");
        let h1 = store.intern_host("r27-m1");
        let records: Vec<StoredAlert> = (0..40i64)
            .map(|i| StoredAlert {
                time: Timestamp::from_micros(i * DAY_MICROS / 20),
                host: if i % 2 == 0 { h0 } else { h1 },
                category: if i % 2 == 0 { lib } else { bgl },
                severity: Severity::None,
                message_index: i as usize,
                filtered: i % 4 == 0,
                seq: 0,
            })
            .collect();
        let (rec, metrics) = (disabled_rec(), StoreMetrics::disabled());
        store.append(&records, &rec, &metrics).unwrap();
        store.seal_all(&rec, &metrics).unwrap();
        store
    }

    #[test]
    fn append_seal_reopen_scan_round_trip() {
        let root = temp_root("roundtrip");
        let store = build(&root, 8);
        assert_eq!(store.record_count(), 40);
        assert_eq!(store.partition_count(), 4, "2 systems × 2 days");
        let (full, full_stats) = scan(&store, &ScanFilter::all(), false);
        assert_eq!(full.len(), 40);
        assert_eq!(full_stats.rows_decoded, 40, "full scan decodes every row");
        assert_eq!(full_stats.zones_pruned, 0, "nothing pruned without prune");
        assert_eq!(full_stats.partitions_scanned, 4);
        assert!(full
            .windows(2)
            .all(|w| (w[0].time, w[0].seq) <= (w[1].time, w[1].seq)));
        drop(store);

        let store = SegmentStore::open(&root, StoreConfig::default()).unwrap();
        assert_eq!(store.record_count(), 40);
        assert_eq!(store.next_seq(), 40);
        let (again, _) = scan(&store, &ScanFilter::all(), true);
        assert_eq!(again, full);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pruned_scan_equals_full_scan_on_filters() {
        let root = temp_root("prune");
        let store = build(&root, 8);
        let filters = [
            ScanFilter {
                system: Some(SystemId::Liberty),
                ..ScanFilter::all()
            },
            ScanFilter {
                from: Some(Timestamp::from_micros(DAY_MICROS)),
                to: Some(Timestamp::from_micros(DAY_MICROS + DAY_MICROS / 2)),
                ..ScanFilter::all()
            },
            ScanFilter {
                filtered: Some(true),
                classes: Some(0b001),
                ..ScanFilter::all()
            },
            ScanFilter {
                hosts: Some(vec![1]),
                ..ScanFilter::all()
            },
        ];
        for filter in &filters {
            let (pruned, pstats) = scan(&store, filter, true);
            let (full, fstats) = scan(&store, filter, false);
            assert_eq!(pruned, full, "filter {filter:?}");
            // Pruning only moves work from scanned to pruned.
            assert_eq!(
                pstats.zones_pruned + pstats.zones_scanned,
                fstats.zones_scanned,
                "filter {filter:?}"
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pruning_actually_skips_segments() {
        let root = temp_root("counters");
        let store = build(&root, 8);
        let recorder = Recorder::new();
        let metrics = StoreMetrics::register(&recorder);
        let rec = recorder.thread("scan");
        let filter = ScanFilter {
            system: Some(SystemId::Liberty),
            ..ScanFilter::all()
        };
        let (_, stats) = store.scan(&filter, true, &rec, &metrics).unwrap();
        drop(rec);
        let snapshot = recorder.snapshot();
        let pruned = snapshot.counter("store.segments_pruned").unwrap();
        let scanned = snapshot.counter("store.segments_scanned").unwrap();
        assert!(pruned > 0, "BlueGene/L partitions must be pruned");
        assert!(scanned > 0);
        assert!(snapshot.counter("store.bytes_read").unwrap() > 0);
        // The by-value stats and the global counters are one scan's
        // worth of the same accounting here.
        assert_eq!(stats.zones_pruned, pruned);
        assert_eq!(stats.zones_scanned, scanned);
        assert_eq!(
            stats.bytes_read,
            snapshot.counter("store.bytes_read").unwrap()
        );
        assert!(stats.partitions_pruned > 0, "off-system partitions skipped");
        assert!(stats.rows_decoded > 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wal_stage_bytes_equal_wal_file_growth() {
        let root = temp_root("walbytes");
        let mut store = SegmentStore::open(
            &root,
            StoreConfig {
                seal_records: 1_000,
                cache_payloads: false,
            },
        )
        .unwrap();
        let lib = store.register_category("PBS_CHK", SystemId::Liberty, AlertType::Software);
        let host = store.intern_host("sn373");
        let recorder = Recorder::new();
        let metrics = StoreMetrics::register(&recorder);
        let rec = recorder.thread("append");
        let wal_bytes = || -> u64 {
            let mut total = 0;
            for system in std::fs::read_dir(&root).unwrap() {
                let system = system.unwrap().path();
                if !system.is_dir() {
                    continue;
                }
                for day in std::fs::read_dir(system).unwrap() {
                    let wal = day.unwrap().path().join("wal.bin");
                    total += std::fs::metadata(wal).map_or(0, |m| m.len());
                }
            }
            total
        };
        // The first append into each partition also creates its WAL
        // header, which is not frame bytes: open both partitions first.
        let alert = |i: i64| StoredAlert {
            time: Timestamp::from_micros(i * DAY_MICROS / 3),
            host,
            category: lib,
            severity: Severity::None,
            message_index: i as usize,
            filtered: i % 2 == 0,
            seq: 0,
        };
        store
            .partition_mut((system_code(SystemId::Liberty), 0))
            .unwrap();
        store
            .partition_mut((system_code(SystemId::Liberty), 1))
            .unwrap();
        let before = wal_bytes();
        for batch in [vec![alert(0)], (0..6).map(alert).collect(), vec![alert(4)]] {
            store.append(&batch, &rec, &metrics).unwrap();
        }
        drop(rec);
        let report = recorder.snapshot().report();
        let wal = report.stage("store.wal").unwrap();
        assert_eq!(wal.items, 8);
        assert_eq!(wal.bytes, wal_bytes() - before);
        assert!(wal.bytes < 8 * std::mem::size_of::<StoredAlert>() as u64);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn compaction_preserves_scan_results() {
        let root = temp_root("compactscan");
        let mut store = build(&root, 4);
        let (before, _) = scan(&store, &ScanFilter::all(), false);
        let segments_before = store.segment_count();
        // Threshold seal_records/2 = 2: only sub-2-record segments
        // merge, so force a finer store to exercise merging.
        store
            .compact(&disabled_rec(), &StoreMetrics::disabled())
            .unwrap();
        let (after, _) = scan(&store, &ScanFilter::all(), true);
        assert_eq!(after, before);
        assert!(store.segment_count() <= segments_before);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
