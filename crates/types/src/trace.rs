//! Report schema for the request-tracing layer.
//!
//! [`crate::obs`] defines the vocabulary of one cumulative recorder
//! snapshot; this module defines the vocabulary of *differences* and
//! *per-request* observations on top of it — the by-value scan
//! statistics the store hands back per query, the slow-query log
//! entries `sclogd` retains, and the timeline of deltas its background
//! sampler produces. The mechanics (snapshot subtraction, the history
//! ring, the sampler) live in `sclog-obs` and `sclogd`; as with the
//! obs schema, only the shared vocabulary and its JSON rendering live
//! here so producers and checkers agree without a recorder dependency.
//!
//! All durations are nanoseconds except [`QueryTrace::micros`], which
//! is microseconds — request latencies are what operators compare
//! against timeouts, and those are quoted in µs/ms.

use crate::json::{JsonArray, JsonObject};
use crate::obs::ObsReport;

/// The one schema version every trace-layer document carries.
///
/// Single definition site, enforced by `scripts/tidy.sh` check 9.
/// Version policy: adding a key to an object is compatible — readers
/// ignore keys they do not know, so `zones_covered` and
/// `words_summarised` joined the scan stats within v1 — while removing, renaming or re-typing a key, or
/// changing what one means, takes a new version.
pub const TRACE_FORMAT_VERSION: u16 = 1;

/// The schema tag written into every trace-layer JSON document.
pub const TRACE_SCHEMA: &str = "sclog.trace.v1";

/// By-value statistics for one store scan: what the zone maps pruned
/// versus what was actually read and decoded to answer the query.
///
/// The store also credits the same numbers to its global obs counters;
/// this struct is the per-request view that makes a single pathological
/// scan visible inside server-lifetime aggregates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// `(system, day)` partitions skipped wholesale by the filter.
    pub partitions_pruned: u64,
    /// Partitions the scan actually visited.
    pub partitions_scanned: u64,
    /// Sealed segments skipped — by partition pruning or a zone-map
    /// mismatch — without touching their payloads.
    pub zones_pruned: u64,
    /// Sealed segments whose payloads were read and filtered.
    pub zones_scanned: u64,
    /// Of the scanned segments, those answered without reading a
    /// predicate column: the zone map proved every row matches (an
    /// unconstrained filter covers every segment). Always
    /// `≤ zones_scanned`.
    pub zones_covered: u64,
    /// 64-row selection words whose host or category test was answered
    /// once for the whole word from the block's word summary (every
    /// row of the word holds one host, or one category). Low against
    /// `rows_decoded / 64` on a host- or category-filtered scan means
    /// the scanned rows are not bursty and were tested row by row.
    pub words_summarised: u64,
    /// Payload bytes read from disk (0 for payload-cache hits).
    pub bytes_read: u64,
    /// Stored rows decoded and offered to the filter (segment payloads
    /// plus unsealed tails).
    pub rows_decoded: u64,
}

impl ScanStats {
    /// Accumulates another scan's statistics into this one (for
    /// requests that trigger more than one scan).
    pub fn merge(&mut self, other: &ScanStats) {
        self.partitions_pruned += other.partitions_pruned;
        self.partitions_scanned += other.partitions_scanned;
        self.zones_pruned += other.zones_pruned;
        self.zones_scanned += other.zones_scanned;
        self.zones_covered += other.zones_covered;
        self.words_summarised += other.words_summarised;
        self.bytes_read += other.bytes_read;
        self.rows_decoded += other.rows_decoded;
    }

    /// Renders the statistics as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.uint("partitions_pruned", self.partitions_pruned)
            .uint("partitions_scanned", self.partitions_scanned)
            .uint("zones_pruned", self.zones_pruned)
            .uint("zones_scanned", self.zones_scanned)
            .uint("zones_covered", self.zones_covered)
            .uint("words_summarised", self.words_summarised)
            .uint("bytes_read", self.bytes_read)
            .uint("rows_decoded", self.rows_decoded);
        o.finish()
    }
}

/// One request in the slow-query log: who it was, what it asked,
/// how long it took, and what the scan had to touch to answer it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// Monotonic per-server request id (never reused within a run).
    pub trace_id: u64,
    /// The routed endpoint (`/alerts`, `/categories`, …, or `other`).
    pub endpoint: String,
    /// The query string, normalized (parameters sorted, empties
    /// dropped) so identical questions collate.
    pub query: String,
    /// End-to-end request latency in microseconds.
    pub micros: u64,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// Scan statistics, when the request ran a store scan (`None` for
    /// non-scanning endpoints and cache hits).
    pub scan: Option<ScanStats>,
}

impl QueryTrace {
    /// Renders the trace as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.uint("trace_id", self.trace_id)
            .str("endpoint", &self.endpoint)
            .str("query", &self.query)
            .uint("micros", self.micros)
            .uint("status", self.status as u64);
        if let Some(scan) = &self.scan {
            o.raw("scan", &scan.to_json());
        }
        o.finish()
    }
}

/// The slow-query log document served at `/obs/queries`: the retained
/// ring size plus the requested top-k entries, slowest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLogReport {
    /// How many traces the bounded ring currently retains.
    pub logged: u64,
    /// The reported entries, sorted by descending `micros`.
    pub queries: Vec<QueryTrace>,
}

impl QueryLogReport {
    /// Renders the log as one JSON document.
    pub fn to_json(&self) -> String {
        let mut queries = JsonArray::new();
        for q in &self.queries {
            queries.push_raw(&q.to_json());
        }
        let mut o = JsonObject::new();
        o.str("schema", TRACE_SCHEMA)
            .uint("logged", self.logged)
            .raw("queries", &queries.finish());
        o.finish()
    }
}

/// One timeline step: the recorder delta between two consecutive
/// history-ring snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSample {
    /// When the step ended, as nanoseconds since recorder creation —
    /// the relative-time stamp shared by every sample in a timeline.
    pub at_ns: u64,
    /// Everything that happened during the step, as an [`ObsReport`]
    /// whose totals are differences (gauges stay instantaneous).
    pub delta: ObsReport,
}

impl TimelineSample {
    /// Renders the sample as a JSON object.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.uint("at_ns", self.at_ns)
            .raw("delta", &self.delta.to_json());
        o.finish()
    }
}

/// The timeline document served at `/obs/timeline`: consecutive deltas
/// over the sampler's history ring, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// Consecutive-snapshot deltas in chronological order.
    pub samples: Vec<TimelineSample>,
}

impl TimelineReport {
    /// Renders the timeline as one JSON document.
    pub fn to_json(&self) -> String {
        let mut samples = JsonArray::new();
        for s in &self.samples {
            samples.push_raw(&s.to_json());
        }
        let mut o = JsonObject::new();
        o.str("schema", TRACE_SCHEMA)
            .raw("samples", &samples.finish());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_trace() -> QueryTrace {
        QueryTrace {
            trace_id: 7,
            endpoint: "/alerts".into(),
            query: "limit=5&system=bgl".into(),
            micros: 1_234,
            status: 200,
            scan: Some(ScanStats {
                partitions_pruned: 8,
                partitions_scanned: 2,
                zones_pruned: 40,
                zones_scanned: 3,
                zones_covered: 1,
                words_summarised: 9,
                bytes_read: 65_536,
                rows_decoded: 1_024,
            }),
        }
    }

    #[test]
    fn query_log_json_is_valid_and_carries_schema() {
        let report = QueryLogReport {
            logged: 1,
            queries: vec![sample_trace()],
        };
        let json = report.to_json();
        json::validate(&json).expect("query log renders valid JSON");
        assert!(json.starts_with(r#"{"schema":"sclog.trace.v1""#));
        for key in [
            "\"logged\"",
            "\"queries\"",
            "\"trace_id\"",
            "\"endpoint\"",
            "\"query\"",
            "\"micros\"",
            "\"status\"",
            "\"scan\"",
            "\"partitions_pruned\"",
            "\"partitions_scanned\"",
            "\"zones_pruned\"",
            "\"zones_scanned\"",
            "\"zones_covered\"",
            "\"words_summarised\"",
            "\"bytes_read\"",
            "\"rows_decoded\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn scanless_trace_omits_the_scan_key() {
        let trace = QueryTrace {
            scan: None,
            ..sample_trace()
        };
        let json = trace.to_json();
        json::validate(&json).expect("trace renders valid JSON");
        assert!(
            !json.contains("\"scan\""),
            "scanless trace leaked a scan: {json}"
        );
    }

    #[test]
    fn timeline_json_is_valid_and_carries_schema() {
        let report = TimelineReport {
            samples: vec![TimelineSample {
                at_ns: 500,
                delta: ObsReport {
                    wall_ns: 250,
                    attributed_ns: 0,
                    coverage: 1.0,
                    stages: Vec::new(),
                    workers: Vec::new(),
                    counters: Vec::new(),
                    gauges: Vec::new(),
                    histograms: Vec::new(),
                },
            }],
        };
        let json = report.to_json();
        json::validate(&json).expect("timeline renders valid JSON");
        assert!(json.starts_with(r#"{"schema":"sclog.trace.v1""#));
        for key in ["\"samples\"", "\"at_ns\"", "\"delta\"", "\"sclog.obs.v1\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn scan_stats_merge_adds_fieldwise() {
        let mut a = ScanStats {
            partitions_pruned: 1,
            partitions_scanned: 2,
            zones_pruned: 3,
            zones_scanned: 4,
            zones_covered: 7,
            words_summarised: 8,
            bytes_read: 5,
            rows_decoded: 6,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            ScanStats {
                partitions_pruned: 2,
                partitions_scanned: 4,
                zones_pruned: 6,
                zones_scanned: 8,
                zones_covered: 14,
                words_summarised: 16,
                bytes_read: 10,
                rows_decoded: 12,
            }
        );
    }
}
