//! The alert store behind the query server, backed by the on-disk
//! segment store (`sclog-store`).
//!
//! Each ingest run produces an [`IngestResult`] whose alerts speak the
//! run's private dialect: `NodeId`s from that reader's interner and
//! `CategoryId`s from whatever registry the ruleset was compiled
//! against. The store re-maps both into the segment store's durable
//! catalog on admission, so alerts from five different systems share
//! one namespace and a query can ask for `host=sn*` without caring
//! which run interned `sn373` first.
//!
//! Persistence model: admission goes through [`sclog_store`]'s WAL
//! and `(system, day)` partitions, so a daemon pointed at the same
//! directory boots from disk instead of re-running simulation and
//! ingest. Per-system ingest accounting (`/stats`) is persisted in a
//! small `stats.bin` sidecar next to the catalog; the per-run obs
//! reports are *not* persisted — after a cold boot,
//! `/obs?source=ingest` is empty because no ingest ran.
//!
//! Concurrency model: one `RwLock` around the whole store. Ingest
//! takes the write lock (rare: at startup and on explicit reload);
//! query workers take read locks (frequent, shared). A monotonically
//! increasing `version` lets the aggregation cache detect staleness
//! without holding any lock across the recompute.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard};

use sclog_core::IngestResult;
use sclog_obs::{Recorder, ThreadRecorder};
use sclog_parse::ParseStats;
pub use sclog_store::StoredAlert;
use sclog_store::{crc32, Run, ScanFilter, ScanStats, SegmentStore, StoreConfig, StoreMetrics};
use sclog_types::segment::{system_code, system_from_code, SEGMENT_FORMAT_VERSION};
use sclog_types::{AlertType, CategoryRegistry, Severity, SourceInterner, SystemId};

/// Leading magic of the per-system stats sidecar.
const STATS_MAGIC: [u8; 8] = *b"SCLGSTA\0";
/// Stats sidecar file name under the store root.
const STATS_FILE: &str = "stats.bin";

/// Per-system ingest accounting, served by `/stats`.
#[derive(Debug, Clone)]
pub struct SystemStats {
    /// The ingested system.
    pub system: SystemId,
    /// Line accounting from the parser.
    pub parse: ParseStats,
    /// Alerts the rules tagged.
    pub tagged: u64,
    /// Alerts surviving the spatio-temporal filter.
    pub filtered: u64,
    /// The ingest run's obs report (`sclog.obs.v1` JSON), when the run
    /// recorded one. Not persisted: `None` after a cold boot.
    pub obs_json: Option<String>,
}

/// Store contents guarded by the lock. Exposed read-only to query
/// handlers via [`AlertStore::read`].
#[derive(Debug)]
pub struct StoreInner {
    /// The durable segment store holding every admitted alert.
    pub segs: SegmentStore,
    /// Obs handles scans and appends report through.
    pub metrics: StoreMetrics,
    /// Per-system ingest accounting, in admission order.
    pub systems: Vec<SystemStats>,
    /// Bumped on every mutation; caches key off it. A store opened
    /// with existing records starts at 1 so "never computed" (0)
    /// stays distinguishable.
    pub version: u64,
}

impl StoreInner {
    /// Node names for every [`StoredAlert::host`].
    pub fn hosts(&self) -> &SourceInterner {
        &self.segs.catalog().hosts
    }

    /// Definitions for every [`StoredAlert::category`].
    pub fn categories(&self) -> &CategoryRegistry {
        &self.segs.catalog().categories
    }

    /// Resolves a stored alert's host name.
    pub fn host_name(&self, alert: &StoredAlert) -> &str {
        self.hosts().name(alert.host)
    }

    /// Resolves a stored alert's category name.
    pub fn category_name(&self, alert: &StoredAlert) -> &str {
        &self.categories().def(alert.category).name
    }

    /// Resolves a stored alert's owning system.
    pub fn system_of(&self, alert: &StoredAlert) -> SystemId {
        self.categories().def(alert.category).system
    }

    /// Resolves a stored alert's hardware/software class.
    pub fn class_of(&self, alert: &StoredAlert) -> AlertType {
        self.categories().def(alert.category).alert_type
    }

    /// Total alerts at rest (sealed segments plus WAL tails).
    pub fn alert_count(&self) -> u64 {
        self.segs.record_count()
    }

    /// Runs a pruned scan, handing `visit` each segment's (and each
    /// unsealed tail's) matches as [`Run`]s sorted by `(time, seq)`,
    /// crediting pruned/scanned/bytes counters to the store's metrics
    /// through `rec`, and returning this scan's by-value
    /// [`ScanStats`]. The server's read path: memory does not grow
    /// with the hit count.
    ///
    /// # Errors
    ///
    /// Any I/O failure or corruption reading a segment payload.
    pub fn scan_runs(
        &self,
        filter: &ScanFilter,
        rec: &ThreadRecorder,
        visit: impl FnMut(&Run<'_>),
    ) -> io::Result<ScanStats> {
        self.segs.scan_runs(filter, true, rec, &self.metrics, visit)
    }

    /// [`StoreInner::scan_runs`] one hit at a time: time-ordered
    /// within each run, runs in storage order.
    ///
    /// # Errors
    ///
    /// Any I/O failure or corruption reading a segment payload.
    pub fn scan_with(
        &self,
        filter: &ScanFilter,
        rec: &ThreadRecorder,
        visit: impl FnMut(&StoredAlert),
    ) -> io::Result<ScanStats> {
        self.segs.scan_with(filter, true, rec, &self.metrics, visit)
    }

    /// [`StoreInner::scan_with`] materialised: every hit, sorted by
    /// `(time, seq)` — time order with admission-order ties. The
    /// oracle the streaming consumers are tested against.
    ///
    /// # Errors
    ///
    /// Any I/O failure or corruption reading a segment payload.
    pub fn scan(
        &self,
        filter: &ScanFilter,
        rec: &ThreadRecorder,
    ) -> io::Result<(Vec<StoredAlert>, ScanStats)> {
        self.segs.scan(filter, true, rec, &self.metrics)
    }
}

/// Thread-safe alert store: write-locked ingest, read-locked queries.
///
/// [`AlertStore::new`] builds a throwaway store in a process-unique
/// temp directory (removed on drop); [`AlertStore::open`] binds to a
/// persistent directory that survives the process.
#[derive(Debug)]
pub struct AlertStore {
    inner: RwLock<StoreInner>,
    /// The owned throwaway directory, removed on drop; `None` for
    /// persistent stores.
    ephemeral: Option<PathBuf>,
}

impl Default for AlertStore {
    fn default() -> Self {
        AlertStore::new()
    }
}

impl Drop for AlertStore {
    fn drop(&mut self) {
        if let Some(dir) = &self.ephemeral {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Distinguishes ephemeral store directories within one process.
static EPHEMERAL_SEQ: AtomicU64 = AtomicU64::new(0);

impl AlertStore {
    /// An empty throwaway store in a fresh temp directory.
    ///
    /// # Panics
    ///
    /// Panics if the temp directory cannot be created — an ephemeral
    /// store has no caller-visible path to report I/O errors against.
    pub fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "sclogd-ephemeral-{}-{}",
            std::process::id(),
            EPHEMERAL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store =
            AlertStore::open(&dir).expect("store: cannot create ephemeral store in temp dir");
        store.ephemeral = Some(dir);
        store
    }

    /// Opens (or creates) a persistent store rooted at `dir`,
    /// recovering WAL tails and reloading `/stats` accounting.
    ///
    /// # Errors
    ///
    /// I/O failures, or corruption in the store's durable files.
    pub fn open(dir: &Path) -> io::Result<AlertStore> {
        let segs = SegmentStore::open(dir, StoreConfig::default())?;
        let systems = load_stats(&dir.join(STATS_FILE))?;
        let version = u64::from(segs.record_count() > 0 || !systems.is_empty());
        Ok(AlertStore {
            inner: RwLock::new(StoreInner {
                segs,
                metrics: StoreMetrics::disabled(),
                systems,
                version,
            }),
            ephemeral: None,
        })
    }

    /// Registers the store's obs counters and stages on `recorder`.
    /// Must run before the recorder's first `thread()` call (the
    /// registry seals there); until then the store uses no-op handles.
    pub fn register_metrics(&self, recorder: &Recorder) {
        write_lock(&self.inner).metrics = StoreMetrics::register(recorder);
    }

    /// Admits one ingest run. See [`AlertStore::ingest_with`]; this
    /// wrapper records no obs and treats any error as fatal.
    ///
    /// # Panics
    ///
    /// Panics if the run is refused or persisting it fails, or if a
    /// run's category re-registers under a different alert type.
    pub fn ingest(
        &self,
        system: SystemId,
        result: &IngestResult,
        registry: &CategoryRegistry,
        severities: &[Severity],
    ) {
        self.ingest_with(
            system,
            result,
            registry,
            severities,
            &Recorder::disabled().thread("ingest"),
        )
        .expect("store: ingest failed");
    }

    /// Admits one ingest run, durably.
    ///
    /// `registry` must be the registry the run's ruleset was compiled
    /// against (it resolves the run's `CategoryId`s). `severities`
    /// maps message index → severity; pass `&[]` when the source has
    /// no severity information — out-of-range indexes degrade to
    /// [`Severity::None`] rather than failing, since severity is
    /// advisory metadata, not part of the alert identity. WAL and
    /// seal work is credited to the store's metrics through `rec`.
    ///
    /// The run's alerts are labelled outside the lock. `result.tagged`
    /// and `result.filtered` are both in message order, the survivors
    /// a subsequence of the tagged alerts, so one merge walk over the
    /// two marks every survivor. Under the write lock, each distinct
    /// run category and host is then translated into the catalog once,
    /// through tables indexed by the run's own ids.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], with nothing admitted, if the
    /// tagged alerts are not in strictly increasing message order or a
    /// survivor is not one of them in that order. Otherwise any I/O
    /// failure appending to the store or persisting stats.
    ///
    /// # Panics
    ///
    /// Panics if a run's category re-registers under a different
    /// alert type — that means two rulesets disagree about a rule, a
    /// configuration bug worth failing loudly on.
    pub fn ingest_with(
        &self,
        system: SystemId,
        result: &IngestResult,
        registry: &CategoryRegistry,
        severities: &[Severity],
        rec: &ThreadRecorder,
    ) -> io::Result<()> {
        let refuse = |what: &str, index: usize| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("store: {what} at message {index}"),
            )
        };
        let mut survivors = result.filtered.iter().map(|a| a.message_index).peekable();
        let mut last = None;
        // Rows carry the run's own host and category ids until the
        // translation below.
        let mut batch = Vec::with_capacity(result.tagged.alerts.len());
        for alert in &result.tagged.alerts {
            let index = alert.message_index;
            if last >= Some(index) {
                return Err(refuse("tagged alert out of message order", index));
            }
            last = Some(index);
            if let Some(&survivor) = survivors.peek().filter(|&&s| s < index) {
                return Err(refuse("survivor not among the tagged alerts", survivor));
            }
            batch.push(StoredAlert {
                time: alert.time,
                host: alert.source,
                category: alert.category,
                severity: severities.get(index).copied().unwrap_or(Severity::None),
                message_index: index,
                filtered: survivors.next_if_eq(&index).is_some(),
                seq: 0, // assigned by the store on append
            });
        }
        if let Some(survivor) = survivors.next() {
            return Err(refuse("survivor not among the tagged alerts", survivor));
        }
        let mut categories = vec![None; registry.len()];
        let mut hosts = vec![None; result.sources.len()];

        let mut inner = write_lock(&self.inner);
        let inner = &mut *inner;
        for row in &mut batch {
            let (run_category, run_host) = (row.category, row.host);
            row.category = *categories[run_category.index()].get_or_insert_with(|| {
                let def = registry.def(run_category);
                inner
                    .segs
                    .register_category(&def.name, def.system, def.alert_type)
            });
            row.host = *hosts[run_host.index()]
                .get_or_insert_with(|| inner.segs.intern_host(result.sources.name(run_host)));
        }
        let metrics = inner.metrics;
        inner.segs.append(&batch, rec, &metrics)?;
        inner.systems.push(SystemStats {
            system,
            parse: result.parse,
            tagged: result.tagged.alerts.len() as u64,
            filtered: result.filtered.len() as u64,
            obs_json: result.obs.as_ref().map(|r| r.to_json()),
        });
        persist_stats(&inner.segs.root().join(STATS_FILE), &inner.systems)?;
        inner.version += 1;
        Ok(())
    }

    /// Seals every WAL tail into zone-mapped segments and compacts
    /// small adjacent segments — the end-of-ingest step that makes
    /// the next boot cold-scan-friendly.
    ///
    /// # Errors
    ///
    /// Any I/O failure sealing or compacting.
    pub fn finalize(&self, rec: &ThreadRecorder) -> io::Result<()> {
        let mut inner = write_lock(&self.inner);
        let inner = &mut *inner;
        let metrics = inner.metrics;
        inner.segs.seal_all(rec, &metrics)?;
        inner.segs.compact(rec, &metrics)?;
        Ok(())
    }

    /// A shared read view for query handlers.
    pub fn read(&self) -> RwLockReadGuard<'_, StoreInner> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The current mutation counter, for cache staleness checks.
    pub fn version(&self) -> u64 {
        self.read().version
    }
}

fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ------------------------------------------------------- stats sidecar

/// Serializes `/stats` accounting: magic, schema version, then one
/// fixed-width row per system, CRC-checked. The obs JSON is
/// deliberately omitted — it describes a run, not the store.
fn persist_stats(path: &Path, systems: &[SystemStats]) -> io::Result<()> {
    let mut body = Vec::with_capacity(2 + 4 + systems.len() * 49);
    body.extend_from_slice(&SEGMENT_FORMAT_VERSION.to_le_bytes());
    body.extend_from_slice(&(systems.len() as u32).to_le_bytes());
    for sys in systems {
        body.push(system_code(sys.system));
        for word in [
            sys.parse.parsed,
            sys.parse.empty,
            sys.parse.bad_timestamp,
            sys.parse.too_short,
            sys.tagged,
            sys.filtered,
        ] {
            body.extend_from_slice(&word.to_le_bytes());
        }
    }
    let mut bytes = Vec::with_capacity(8 + body.len() + 4);
    bytes.extend_from_slice(&STATS_MAGIC);
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&crc32(&body).to_le_bytes());
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
}

fn stats_corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("store: corrupt {what}"))
}

/// Loads the `/stats` sidecar; a missing file is an empty store's.
fn load_stats(path: &Path) -> io::Result<Vec<SystemStats>> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    if bytes.len() < 8 + 2 + 4 + 4 || bytes[..8] != STATS_MAGIC {
        return Err(stats_corrupt("stats header"));
    }
    let body = &bytes[8..bytes.len() - 4];
    let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != crc {
        return Err(stats_corrupt("stats checksum"));
    }
    if u16::from_le_bytes(body[..2].try_into().expect("2 bytes")) != SEGMENT_FORMAT_VERSION {
        return Err(stats_corrupt("stats version"));
    }
    let count = u32::from_le_bytes(body[2..6].try_into().expect("4 bytes")) as usize;
    let rows = &body[6..];
    if rows.len() != count * 49 {
        return Err(stats_corrupt("stats row count"));
    }
    let mut systems = Vec::with_capacity(count);
    for row in rows.chunks_exact(49) {
        let system = system_from_code(row[0]).ok_or_else(|| stats_corrupt("stats system"))?;
        let word =
            |i: usize| u64::from_le_bytes(row[1 + i * 8..9 + i * 8].try_into().expect("8 bytes"));
        systems.push(SystemStats {
            system,
            parse: ParseStats {
                parsed: word(0),
                empty: word(1),
                bad_timestamp: word(2),
                too_short: word(3),
            },
            tagged: word(4),
            filtered: word(5),
            obs_json: None,
        });
    }
    Ok(systems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_core::pipeline::ingest_batch;
    use sclog_core::IngestResult;
    use sclog_filter::SpatioTemporalFilter;
    use sclog_rules::RuleSet;

    fn test_rec() -> ThreadRecorder {
        Recorder::disabled().thread("test")
    }

    fn scan_all(inner: &StoreInner) -> Vec<StoredAlert> {
        inner
            .scan(&ScanFilter::all(), &test_rec())
            .expect("scan must succeed")
            .0
    }

    fn liberty_run() -> (IngestResult, CategoryRegistry) {
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
        let filter = SpatioTemporalFilter::paper();
        let text = "\
Mar  7 07:30:00 sn373 pbs_mom: task_check, cannot tm_reply to 10 task 1\n\
Mar  7 07:30:01 sn373 pbs_mom: task_check, cannot tm_reply to 11 task 1\n\
Mar  7 09:00:00 dn228 pbs_mom: task_check, cannot tm_reply to 12 task 1\n";
        let result = ingest_batch(SystemId::Liberty, text, &rules, &filter);
        (result, registry)
    }

    #[test]
    fn ingest_remaps_hosts_and_categories() {
        let (result, registry) = liberty_run();
        assert!(!result.tagged.is_empty(), "fixture must tag alerts");

        let store = AlertStore::new();
        store.ingest(SystemId::Liberty, &result, &registry, &[]);
        let inner = store.read();
        let alerts = scan_all(&inner);
        assert_eq!(alerts.len(), result.tagged.len());
        assert_eq!(inner.alert_count() as usize, alerts.len());
        assert_eq!(inner.version, 1);
        let names: Vec<&str> = alerts.iter().map(|a| inner.host_name(a)).collect();
        assert!(names.contains(&"sn373"));
        assert!(names.contains(&"dn228"));
        for alert in &alerts {
            assert_eq!(inner.system_of(alert), SystemId::Liberty);
        }
        // The 07:30:01 duplicate on the same node is within the 5 s
        // window: tagged but not a filter survivor.
        let survivors = alerts.iter().filter(|a| a.filtered).count();
        assert_eq!(survivors as u64, result.filtered.len() as u64);
        assert!(survivors < alerts.len());
    }

    #[test]
    fn double_ingest_merges_sorted_and_bumps_version() {
        let (result, registry) = liberty_run();
        let store = AlertStore::new();
        store.ingest(SystemId::Liberty, &result, &registry, &[]);
        store.ingest(SystemId::Liberty, &result, &registry, &[]);
        let inner = store.read();
        assert_eq!(inner.version, 2);
        let alerts = scan_all(&inner);
        assert_eq!(alerts.len(), 2 * result.tagged.len());
        assert!(alerts
            .windows(2)
            .all(|w| (w[0].time.as_micros(), w[0].seq) <= (w[1].time.as_micros(), w[1].seq)));
        // Same categories re-registered, not duplicated.
        let mut ids: Vec<u16> = alerts.iter().map(|a| a.category.index() as u16).collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.len() <= result.tagged.len());
        assert_eq!(inner.systems.len(), 2);
    }

    #[test]
    fn severity_lookup_degrades_to_none_out_of_range() {
        let (result, registry) = liberty_run();
        let store = AlertStore::new();
        let sev = vec![Severity::Syslog(sclog_types::SyslogSeverity::Error)];
        store.ingest(SystemId::Liberty, &result, &registry, &sev);
        let inner = store.read();
        for alert in &scan_all(&inner) {
            if alert.message_index == 0 {
                assert!(alert.severity.as_syslog().is_some());
            } else {
                assert!(alert.severity.is_none());
            }
        }
    }

    #[test]
    fn persistent_store_boots_from_disk() {
        let dir = std::env::temp_dir().join(format!("sclogd-store-boot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (result, registry) = liberty_run();

        let store = AlertStore::open(&dir).unwrap();
        assert_eq!(store.version(), 0, "fresh directory must look empty");
        store.ingest(SystemId::Liberty, &result, &registry, &[]);
        store.finalize(&test_rec()).unwrap();
        let alerts = scan_all(&store.read());
        drop(store);

        // Same directory, no ingest: alerts, names, and /stats rows
        // all come back; the version is nonzero so caches recompute.
        let store = AlertStore::open(&dir).unwrap();
        assert_eq!(store.version(), 1);
        let inner = store.read();
        assert_eq!(scan_all(&inner), alerts);
        assert_eq!(inner.systems.len(), 1);
        assert_eq!(inner.systems[0].system, SystemId::Liberty);
        assert_eq!(inner.systems[0].tagged, result.tagged.len() as u64);
        assert!(inner.systems[0].obs_json.is_none(), "obs is per-run only");
        assert!(alerts
            .iter()
            .any(|a| inner.host_name(a) == "sn373" || inner.host_name(a) == "dn228"));
        drop(inner);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn survivor_counts_match_the_runs_across_systems() {
        let store = AlertStore::new();
        let filter = SpatioTemporalFilter::paper();
        let mut want = Vec::new();
        for system in sclog_types::ALL_SYSTEMS {
            let log = sclog_simgen::generate(system, sclog_simgen::Scale::new(0.0005, 0.0001), 5);
            let mut registry = CategoryRegistry::new();
            let rules = RuleSet::builtin(system, &mut registry);
            let result = ingest_batch(system, &log.render(), &rules, &filter);
            assert!(
                !result.filtered.is_empty(),
                "{system:?} fixture has survivors"
            );
            store.ingest(system, &result, &registry, &[]);
            want.push((system, result.tagged.len(), result.filtered.len()));
        }
        let inner = store.read();
        let alerts = scan_all(&inner);
        for (system, tagged, filtered) in want {
            let mine = alerts.iter().filter(|a| inner.system_of(a) == system);
            let (n, kept) = mine.fold((0, 0), |(n, k), a| (n + 1, k + usize::from(a.filtered)));
            assert_eq!((n, kept), (tagged, filtered), "{system:?}");
        }
    }

    #[test]
    fn misordered_or_unmatched_survivors_are_refused() {
        // The fixture tags messages 0, 1, 2; 0 and 2 survive.
        let refused = |damage: fn(&mut IngestResult)| {
            let (mut result, registry) = liberty_run();
            let indexes = |alerts: &[sclog_types::Alert]| -> Vec<usize> {
                alerts.iter().map(|a| a.message_index).collect()
            };
            assert_eq!(indexes(&result.tagged.alerts), [0, 1, 2]);
            assert_eq!(indexes(&result.filtered), [0, 2]);
            damage(&mut result);
            let store = AlertStore::new();
            let err = store
                .ingest_with(SystemId::Liberty, &result, &registry, &[], &test_rec())
                .expect_err("a run that would be mislabelled must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
            let inner = store.read();
            assert_eq!((inner.version, inner.alert_count()), (0, 0));
            assert!(inner.hosts().is_empty() && inner.categories().is_empty());
        };
        // Survivors out of message order.
        refused(|r| r.filtered.swap(0, 1));
        // A survivor listed twice.
        refused(|r| r.filtered.insert(0, r.filtered[0]));
        // A survivor that was never tagged: between tagged alerts...
        refused(|r| {
            let untagged = r.tagged.alerts.remove(1);
            r.filtered.insert(1, untagged);
        });
        // ...and after the last one.
        refused(|r| {
            let mut late = r.filtered[1];
            late.message_index = 1_000;
            r.filtered.push(late);
        });
        // Tagged alerts out of message order.
        refused(|r| r.tagged.alerts.reverse());
    }

    #[test]
    fn ephemeral_store_cleans_up_its_directory() {
        let store = AlertStore::new();
        let dir = store.read().segs.root().to_path_buf();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists(), "ephemeral directory must be removed");
    }
}
