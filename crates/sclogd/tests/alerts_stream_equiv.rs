//! Streaming `/alerts` ≡ sort-then-take: `render_alerts` keeps only
//! the `limit` smallest `(time, seq)` hits in a bounded heap while it
//! counts `total`, and its body must be byte-identical to the one the
//! materialising oracle builds — `StoreInner::scan` (every hit, sorted)
//! then `take(limit)` and `len()`.
//!
//! Stores are random and multi-system, mix sealed segments with
//! unsealed WAL tails, and draw times from a handful of instants so
//! equal timestamps land in several partitions at once and the order
//! between them is decided by `seq` alone.

use std::path::Path;

use sclog_obs::{Recorder, ThreadRecorder};
use sclog_store::{ScanFilter, ScanStats, SegmentStore, StoreConfig, StoreMetrics, StoredAlert};
use sclog_testkit::{check_n, Gen};
use sclog_types::json::{JsonArray, JsonObject};
use sclog_types::{AlertType, Severity, SyslogSeverity, Timestamp, ALL_SYSTEMS};
use sclogd::format::{render_alerts, scan_filter};
use sclogd::query::{Field, Query};
use sclogd::store::{AlertStore, StoreInner};

const DAY_SECS: i64 = 86_400;
/// 2005-03-07T00:00:00Z, a day inside the paper's collection windows.
const BASE_SECS: i64 = 1_110_153_600;

fn rec() -> ThreadRecorder {
    Recorder::disabled().thread("equiv")
}

/// The pre-streaming `render_alerts`, built on the sorted scan.
fn oracle(inner: &StoreInner, query: &Query) -> (String, ScanStats) {
    let (hits, stats) = inner.scan(&scan_filter(inner, query), &rec()).unwrap();
    let mut rows = JsonArray::new();
    let mut returned = 0u64;
    for alert in hits.iter().take(query.limit) {
        let mut obj = JsonObject::new();
        for field in &query.fields {
            match field {
                Field::Time => obj.str("time", &alert.time.to_iso_string()),
                Field::Host => obj.str("host", inner.host_name(alert)),
                Field::Category => obj.str("category", inner.category_name(alert)),
                Field::System => obj.str("system", &inner.system_of(alert).to_string()),
                Field::Class => obj.str("class", &inner.class_of(alert).to_string()),
                Field::Severity => obj.str("severity", &alert.severity.to_string()),
                Field::Index => obj.uint("index", alert.message_index as u64),
                Field::Filtered => obj.bool("filtered", alert.filtered),
            };
        }
        rows.push_raw(&obj.finish());
        returned += 1;
    }
    let mut body = JsonObject::new();
    body.uint("total", hits.len() as u64)
        .uint("returned", returned)
        .raw("alerts", &rows.finish());
    (body.finish(), stats)
}

/// Writes a random store under `root` straight through the segment
/// store — small seal threshold, several appends, optional seal — so
/// partitions end up with sealed segments, WAL tails, or both.
fn build_store(g: &mut Gen, root: &Path) {
    let rec = rec();
    let metrics = StoreMetrics::disabled();
    let mut segs = SegmentStore::open(
        root,
        StoreConfig {
            seal_records: g.usize_in(3..=24),
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
        categories.push(segs.register_category(&format!("CAT_{i}"), system, class));
    }
    let hosts: Vec<_> = (0..g.usize_in(1..=6))
        .map(|i| segs.intern_host(&format!("node-{i}")))
        .collect();
    // Few distinct instants over three days: ties within a partition
    // and across every system's partition for the same day.
    let instants: Vec<i64> = (0..g.usize_in(3..=12))
        .map(|_| BASE_SECS + g.int_in(0..=3 * DAY_SECS - 1))
        .collect();
    let mut index = 0usize;
    for _ in 0..g.usize_in(1..=3) {
        let batch: Vec<StoredAlert> = (0..g.usize_in(1..=120))
            .map(|_| {
                index += 1;
                StoredAlert {
                    time: Timestamp::from_micros(*g.pick(&instants) * 1_000_000),
                    host: *g.pick(&hosts),
                    category: *g.pick(&categories),
                    severity: *g.pick(&[
                        Severity::None,
                        Severity::Syslog(SyslogSeverity::Error),
                        Severity::Syslog(SyslogSeverity::Warning),
                    ]),
                    message_index: index,
                    filtered: g.chance(0.5),
                    seq: 0,
                }
            })
            .collect();
        segs.append(&batch, &rec, &metrics).unwrap();
    }
    if g.chance(0.3) {
        segs.seal_all(&rec, &metrics).unwrap();
    }
}

fn random_query(g: &mut Gen) -> String {
    let mut parts = vec![format!("limit={}", g.pick(&[1, 2, 100, 10_000]))];
    if g.chance(0.4) {
        let from = BASE_SECS + g.int_in(0..=2 * DAY_SECS);
        parts.push(format!("from={from}"));
        if g.chance(0.5) {
            parts.push(format!("to={}", from + g.int_in(0..=DAY_SECS)));
        }
    }
    if g.chance(0.3) {
        let system = g.pick(&["bgl", "thunderbird", "redstorm", "spirit", "liberty"]);
        parts.push(format!("system={system}"));
    }
    if g.chance(0.3) {
        let host = g.pick(&["node-1", "node-*", "node-[0-2]", "node-[!1]", "nope"]);
        parts.push(format!("host={host}"));
    }
    if g.chance(0.3) {
        parts.push(format!("category=CAT_{}", g.below(7)));
    }
    if g.chance(0.3) {
        parts.push(format!("class={}", g.pick(&["hardware", "software", "i"])));
    }
    if g.chance(0.3) {
        parts.push(format!("severity={}", g.pick(&["-", "error", "warning"])));
    }
    if g.chance(0.4) {
        parts.push(format!("filtered={}", g.pick(&["true", "false", "all"])));
    }
    if g.chance(0.4) {
        let fields = g.pick(&[
            "time",
            "time,host,category",
            "index,filtered,system,class,severity",
        ]);
        parts.push(format!("fields={fields}"));
    }
    parts.join("&")
}

#[test]
fn streaming_alerts_match_sort_then_take() {
    let case = std::cell::Cell::new(0u64);
    check_n("alerts_stream_equiv", 24, |g| {
        case.set(case.get() + 1);
        let root = std::env::temp_dir().join(format!(
            "sclogd-alerts-equiv-{}-{}",
            std::process::id(),
            case.get()
        ));
        let _ = std::fs::remove_dir_all(&root);
        build_store(g, &root);
        // Reopened through the daemon's own store: WAL tails recover
        // as unsealed tails beside the sealed segments.
        let store = AlertStore::open(&root).unwrap();
        {
            let inner = store.read();
            // Warm the payload cache so every scan below reads the
            // same bytes (zero) and the stats compare field for field.
            let metrics = StoreMetrics::disabled();
            inner
                .segs
                .scan_with(&ScanFilter::all(), false, &rec(), &metrics, |_| {})
                .unwrap();
            for _ in 0..16 {
                let text = random_query(g);
                let query = Query::parse(&text).unwrap();
                let (body, stats) = render_alerts(&inner, &query, &rec()).unwrap();
                let (want, want_stats) = oracle(&inner, &query);
                assert_eq!(body, want, "query {text}");
                assert_eq!(stats, want_stats, "query {text}");

                // The visitor sees exactly the oracle's hits, with the
                // same accounting.
                let filter = scan_filter(&inner, &query);
                let mut visited = Vec::new();
                let visit_stats = inner
                    .scan_with(&filter, &rec(), |a| visited.push(*a))
                    .unwrap();
                visited.sort_by_key(|a| (a.time, a.seq));
                let (sorted, scan_stats) = inner.scan(&filter, &rec()).unwrap();
                assert_eq!(visited, sorted, "query {text}");
                assert_eq!(visit_stats, scan_stats, "query {text}");
            }
        }
        drop(store);
        std::fs::remove_dir_all(&root).unwrap();
    });
}
