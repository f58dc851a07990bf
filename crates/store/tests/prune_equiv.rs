//! Pruned-scan ≡ full-scan equivalence: zone-map pruning may only
//! skip work, never change answers. Random stores (multiple systems,
//! days, hosts, categories, severities) are scanned with random
//! filters both ways and the results must be byte-identical.

use std::path::PathBuf;

use sclog_obs::Recorder;
use sclog_store::{ScanFilter, SegmentStore, StoreConfig, StoreMetrics, StoredAlert};
use sclog_testkit::{check_n, Gen};
use sclog_types::{AlertType, BglSeverity, Severity, SyslogSeverity, Timestamp, ALL_SYSTEMS};

const DAY_MICROS: i64 = 86_400_000_000;

fn random_severity(g: &mut Gen) -> Severity {
    match g.below(3) {
        0 => Severity::None,
        1 => Severity::Syslog(*g.pick(&[
            SyslogSeverity::Error,
            SyslogSeverity::Warning,
            SyslogSeverity::Info,
        ])),
        _ => Severity::Bgl(*g.pick(&[BglSeverity::Fatal, BglSeverity::Error, BglSeverity::Info])),
    }
}

fn random_filter(g: &mut Gen, store: &SegmentStore) -> ScanFilter {
    let mut filter = ScanFilter::all();
    if g.chance(0.5) {
        filter.from = Some(Timestamp::from_micros(g.int_in(0..=4 * DAY_MICROS)));
    }
    if g.chance(0.5) {
        filter.to = Some(Timestamp::from_micros(g.int_in(0..=4 * DAY_MICROS)));
    }
    if g.chance(0.3) {
        filter.system = Some(*g.pick(&ALL_SYSTEMS));
    }
    if g.chance(0.3) {
        // A random subset of known category indexes as a bitset
        // (possibly empty — matches nothing, prunes everything).
        let words = store.catalog().categories.len() / 64 + 1;
        let mut bits = vec![0u64; words];
        for i in 0..store.catalog().categories.len() {
            if g.chance(0.4) {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        filter.categories = Some(bits);
    }
    if g.chance(0.3) {
        let mut hosts: Vec<u32> = (0..store.catalog().hosts.len() as u32)
            .filter(|_| g.chance(0.4))
            .collect();
        hosts.sort_unstable();
        filter.hosts = Some(hosts);
    }
    if g.chance(0.3) {
        filter.severities = Some(g.below(1 << 15) as u16);
    }
    if g.chance(0.3) {
        filter.classes = Some(g.below(8) as u8);
    }
    if g.chance(0.3) {
        filter.filtered = Some(g.chance(0.5));
    }
    filter
}

#[test]
fn pruned_scan_is_result_identical_to_full_scan() {
    let case = std::cell::Cell::new(0u64);
    check_n("prune_equivalence", 10, |g| {
        case.set(case.get() + 1);
        let root: PathBuf = std::env::temp_dir().join(format!(
            "sclog-store-prune-{}-{}",
            std::process::id(),
            case.get()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let rec = Recorder::disabled().thread("prune");
        let metrics = StoreMetrics::disabled();
        let mut store = SegmentStore::open(
            &root,
            StoreConfig {
                // Tiny segments: many zone maps per partition, plus a
                // live tail in most partitions.
                seal_records: g.usize_in(2..=6),
                cache_payloads: g.chance(0.5),
            },
        )
        .unwrap();

        let mut categories = Vec::new();
        for i in 0..g.usize_in(2..=6) {
            let system = *g.pick(&ALL_SYSTEMS);
            let class = *g.pick(&[
                AlertType::Hardware,
                AlertType::Software,
                AlertType::Indeterminate,
            ]);
            categories.push(store.register_category(&format!("CAT_{i}"), system, class));
        }
        let hosts: Vec<_> = (0..g.usize_in(1..=5))
            .map(|i| store.intern_host(&format!("node-{i}")))
            .collect();

        let n = g.usize_in(5..=60);
        let records: Vec<StoredAlert> = (0..n)
            .map(|i| StoredAlert {
                time: Timestamp::from_micros(g.int_in(0..=3 * DAY_MICROS)),
                host: *g.pick(&hosts),
                category: *g.pick(&categories),
                severity: random_severity(g),
                message_index: i,
                filtered: g.chance(0.5),
                seq: 0,
            })
            .collect();
        store.append(&records, &rec, &metrics).unwrap();
        if g.chance(0.5) {
            store.seal_all(&rec, &metrics).unwrap();
        }
        if g.chance(0.3) {
            store.compact(&rec, &metrics).unwrap();
        }

        for _ in 0..8 {
            let filter = random_filter(g, &store);
            let (pruned, pstats) = store.scan(&filter, true, &rec, &metrics).unwrap();
            let (full, fstats) = store.scan(&filter, false, &rec, &metrics).unwrap();
            assert_eq!(pruned, full, "filter {filter:?}");
            // ScanStats consistency: an unpruned scan visits every
            // partition and zone; pruning may only move them to the
            // pruned side and may never decode *more* rows. Bytes are
            // cache-dependent, so they carry no invariant here.
            assert_eq!(fstats.zones_pruned, 0, "filter {filter:?}");
            assert_eq!(fstats.partitions_pruned, 0, "filter {filter:?}");
            assert_eq!(
                pstats.zones_pruned + pstats.zones_scanned,
                fstats.zones_scanned,
                "filter {filter:?}"
            );
            assert_eq!(
                pstats.partitions_pruned + pstats.partitions_scanned,
                fstats.partitions_scanned,
                "filter {filter:?}"
            );
            assert!(
                pstats.rows_decoded <= fstats.rows_decoded,
                "filter {filter:?}: pruned scan decoded more rows"
            );
            // Covering is a zone-map proof too: only a pruning scan
            // uses it, and only on segments it scanned.
            assert!(
                pstats.zones_covered <= pstats.zones_scanned,
                "filter {filter:?}"
            );
            assert_eq!(fstats.zones_covered, 0, "filter {filter:?}");
        }

        // Reopening the store changes no answer either.
        drop(store);
        let store = SegmentStore::open(&root, StoreConfig::default()).unwrap();
        let (all, _) = store
            .scan(&ScanFilter::all(), true, &rec, &metrics)
            .unwrap();
        assert_eq!(all.len(), n);
        std::fs::remove_dir_all(&root).unwrap();
    });
}
