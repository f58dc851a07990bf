//! Streaming `/alerts` ≡ sort-then-take: `render_alerts` keeps only
//! the `limit` smallest `(time, seq)` hits in a bounded heap while it
//! counts `total`, and its body must be byte-identical to the one the
//! materialising oracle builds — `StoreInner::scan` (every hit, sorted)
//! then `take(limit)` and `len()`.
//!
//! Stores are random and multi-system, mix sealed segments with
//! unsealed WAL tails, and draw times from a handful of instants so
//! equal timestamps land in several partitions at once and the order
//! between them is decided by `seq` alone. Host and category names
//! carry quotes, backslashes, control characters and multi-byte UTF-8,
//! severities range over every syslog and BG/L level, and `fields=`
//! is a random non-empty subset in random order, so the one-buffer
//! writer is held to the `JsonObject` builders' bytes on every field.

use std::path::Path;

use sclog_obs::{Recorder, ThreadRecorder};
use sclog_store::{ScanFilter, ScanStats, SegmentStore, StoreConfig, StoreMetrics, StoredAlert};
use sclog_testkit::{check_n, Gen};
use sclog_types::json::{JsonArray, JsonObject};
use sclog_types::severity::{ALL_BGL_SEVERITIES, ALL_SYSLOG_SEVERITIES};
use sclog_types::{AlertType, Severity, Timestamp, ALL_SYSTEMS};
use sclogd::format::{render_alerts, scan_filter};
use sclogd::query::{Field, Query, ALL_FIELDS};
use sclogd::store::{AlertStore, StoreInner};

const DAY_SECS: i64 = 86_400;
/// 2005-03-07T00:00:00Z, a day inside the paper's collection windows.
const BASE_SECS: i64 = 1_110_153_600;
/// Name suffixes: plain, and each kind of byte JSON must escape or
/// must pass through untouched.
const NAME_TAILS: [&str; 7] = [
    "",
    "\"q\"",
    "back\\slash",
    "nl\nx",
    "\ttab",
    "ctl\u{1}",
    "é-日本-🙂",
];

/// The names a random store registered, for queries that pick one.
struct Names {
    hosts: Vec<String>,
    categories: Vec<String>,
}

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
fn build_store(g: &mut Gen, root: &Path) -> Names {
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
    let mut names = Names {
        hosts: Vec::new(),
        categories: Vec::new(),
    };
    let mut categories = Vec::new();
    for i in 0..g.usize_in(2..=6) {
        let system = *g.pick(&ALL_SYSTEMS);
        let class = *g.pick(&[
            AlertType::Hardware,
            AlertType::Software,
            AlertType::Indeterminate,
        ]);
        let name = format!("CAT_{i}{}", g.pick(&NAME_TAILS));
        categories.push(segs.register_category(&name, system, class));
        names.categories.push(name);
    }
    let mut hosts = Vec::new();
    for i in 0..g.usize_in(1..=6) {
        let name = format!("node-{i}{}", g.pick(&NAME_TAILS));
        hosts.push(segs.intern_host(&name));
        names.hosts.push(name);
    }
    let mut severities = vec![Severity::None];
    severities.extend(ALL_SYSLOG_SEVERITIES.map(Severity::Syslog));
    severities.extend(ALL_BGL_SEVERITIES.map(Severity::Bgl));
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
                    severity: *g.pick(&severities),
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
    names
}

/// Percent-encodes every byte but ASCII letters, digits, `-` and `_`.
fn encode(name: &str) -> String {
    name.bytes()
        .map(|b| match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => (b as char).to_string(),
            _ => format!("%{b:02X}"),
        })
        .collect()
}

/// A random query string, and whether it asks for a category by a
/// name with an escaped tail (one that needs percent-encoding).
fn random_query(g: &mut Gen, names: &Names) -> (String, bool) {
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
        let host = if g.chance(0.3) {
            encode(g.pick::<String>(&names.hosts))
        } else {
            let pattern = g.pick(&["node-1", "node-*", "node-[0-2]*", "node-[!1]*", "nope"]);
            (*pattern).to_owned()
        };
        parts.push(format!("host={host}"));
    }
    let mut escaped_category = false;
    if g.chance(0.3) {
        let category = if g.chance(0.5) {
            let name = g.pick::<String>(&names.categories);
            let encoded = encode(name);
            escaped_category = encoded != *name;
            encoded
        } else {
            format!("CAT_{}", g.below(7))
        };
        parts.push(format!("category={category}"));
    }
    if g.chance(0.3) {
        parts.push(format!("class={}", g.pick(&["hardware", "software", "i"])));
    }
    if g.chance(0.3) {
        let severity = g.pick(&["-", "error", "warning", "emerg", "fatal", "severe", "info"]);
        parts.push(format!("severity={severity}"));
    }
    if g.chance(0.4) {
        parts.push(format!("filtered={}", g.pick(&["true", "false", "all"])));
    }
    if g.chance(0.7) {
        // A random non-empty subset of the fields, in random order.
        let mut fields = ALL_FIELDS.to_vec();
        for i in (1..fields.len()).rev() {
            fields.swap(i, g.usize_in(0..=i));
        }
        fields.truncate(g.usize_in(1..=fields.len()));
        let keys: Vec<&str> = fields.iter().map(|f| f.key()).collect();
        parts.push(format!("fields={}", keys.join(",")));
    }
    (parts.join("&"), escaped_category)
}

#[test]
fn streaming_alerts_match_sort_then_take() {
    let case = std::cell::Cell::new(0u64);
    // Every escaped name tail, every severity name and a query by an
    // escaped category name must reach some compared body, or the
    // generators have stopped covering what the writer escapes.
    let mut must_see: Vec<String> = vec![
        "\\\"q\\\"".into(),
        "back\\\\slash".into(),
        "nl\\nx".into(),
        "\\ttab".into(),
        "ctl\\u0001".into(),
        "é-日本-🙂".into(),
    ];
    must_see.extend(ALL_SYSLOG_SEVERITIES.map(|s| format!("\"severity\":\"{s}\"")));
    must_see.extend(ALL_BGL_SEVERITIES.map(|s| format!("\"severity\":\"{s}\"")));
    let seen = std::cell::RefCell::new(vec![false; must_see.len()]);
    let escaped_category_hit = std::cell::Cell::new(false);
    check_n("alerts_stream_equiv", 24, |g| {
        case.set(case.get() + 1);
        let root = std::env::temp_dir().join(format!(
            "sclogd-alerts-equiv-{}-{}",
            std::process::id(),
            case.get()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let names = build_store(g, &root);
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
                let (text, escaped_category) = random_query(g, &names);
                let query = Query::parse(&text).unwrap();
                let (body, stats) = render_alerts(&inner, &query, &rec()).unwrap();
                let (want, want_stats) = oracle(&inner, &query);
                assert_eq!(body, want, "query {text}");
                assert_eq!(stats, want_stats, "query {text}");
                for (seen, needle) in seen.borrow_mut().iter_mut().zip(&must_see) {
                    *seen |= body.contains(needle.as_str());
                }
                if escaped_category {
                    escaped_category_hit
                        .set(escaped_category_hit.get() || !body.contains("\"returned\":0,"));
                }

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
    for (seen, needle) in seen.borrow().iter().zip(&must_see) {
        assert!(seen, "no compared body contained {needle}");
    }
    assert!(
        escaped_category_hit.get(),
        "no query by an escaped category name matched"
    );
}
