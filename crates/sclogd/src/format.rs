//! Query evaluation and JSON rendering for `/alerts`.
//!
//! A parsed [`Query`] is translated into a [`ScanFilter`] the segment
//! store can prune with: time bounds and the system pass through
//! directly (they prune whole `(system, day)` partitions), names are
//! resolved against the store catalog into id sets and bitsets (which
//! prune sealed segments by zone map). Each segment's matches reach a
//! [`TopK`] in sorted runs: `total` adds a run's popcount while
//! `alerts` takes at most the run's first `limit` matches, so the
//! answer carries the first `limit` in `(time, seq)` order, a client
//! can see it was truncated, and memory stays O(`limit`).
//!
//! The body is written into one growing `String` with no allocation
//! per row: keys are literals, host and category names are quoted and
//! escaped in place by [`json::push_str`], system, class and severity are written
//! through their `Display`, and `time` through
//! [`Timestamp::write_iso`](sclog_types::Timestamp::write_iso). The
//! text is byte-for-byte what the `JsonObject` builders emit
//! (`tests/alerts_stream_equiv.rs` keeps that renderer as its oracle).

use std::fmt::Write as _;

use sclog_store::{ScanFilter, ScanStats, TopK};
use sclog_types::json;
use sclog_types::segment::{class_code, severity_code};

use crate::query::{Field, FilteredSelect, Query, SeveritySelect};
use crate::store::{StoreInner, StoredAlert};

/// Translates a query into the store's pruning filter.
///
/// The translation is exact, not approximate: a category or host name
/// with no catalog entry becomes an empty id set (matches nothing),
/// and a `host=*` pattern becomes no host constraint at all, so the
/// scan's answer equals the old linear evaluation alert-for-alert.
pub fn scan_filter(inner: &StoreInner, query: &Query) -> ScanFilter {
    let mut filter = ScanFilter {
        from: query.from,
        to: query.to,
        system: query.system,
        ..ScanFilter::all()
    };
    filter.filtered = match query.filtered {
        FilteredSelect::Survivors => Some(true),
        FilteredSelect::Discarded => Some(false),
        FilteredSelect::All => None,
    };
    if let Some(class) = query.class {
        filter.classes = Some(1u8 << class_code(class));
    }
    if let SeveritySelect::Exact(want) = query.severity {
        filter.severities = Some(1u16 << severity_code(want));
    }
    if let Some(category) = &query.category {
        let categories = inner.categories();
        let mut bits = vec![0u64; categories.len() / 64 + 1];
        for (id, def) in categories.iter() {
            if def.name == *category {
                bits[id.index() / 64] |= 1 << (id.index() % 64);
            }
        }
        filter.categories = Some(bits);
    }
    if let Some(host) = &query.host {
        if !host.matches_all() {
            // Interner order is id order, so the set arrives sorted,
            // as ScanFilter's binary search requires.
            let ids: Vec<u32> = inner
                .hosts()
                .iter()
                .filter(|(_, name)| host.matches(name))
                .map(|(id, _)| id.index() as u32)
                .collect();
            filter.hosts = Some(ids);
        }
    }
    filter
}

/// Appends one row's object, its `fields` in order, to `out`.
fn write_alert(out: &mut String, inner: &StoreInner, alert: &StoredAlert, fields: &[Field]) {
    out.push('{');
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Writing to a `String` cannot fail. System, class and
        // severity names are static ASCII with nothing to escape, so
        // their Display text goes in verbatim.
        match field {
            Field::Time => {
                out.push_str("\"time\":\"");
                alert.time.write_iso(out);
                out.push('"');
            }
            Field::Host => {
                out.push_str("\"host\":");
                json::push_str(inner.host_name(alert), out);
            }
            Field::Category => {
                out.push_str("\"category\":");
                json::push_str(inner.category_name(alert), out);
            }
            Field::System => {
                let _ = write!(out, "\"system\":\"{}\"", inner.system_of(alert));
            }
            Field::Class => {
                let _ = write!(out, "\"class\":\"{}\"", inner.class_of(alert));
            }
            Field::Severity => {
                let _ = write!(out, "\"severity\":\"{}\"", alert.severity);
            }
            Field::Index => {
                let _ = write!(out, "\"index\":{}", alert.message_index);
            }
            Field::Filtered => {
                let _ = write!(out, "\"filtered\":{}", alert.filtered);
            }
        }
    }
    out.push('}');
}

/// Runs the query through a pruned store scan and renders the
/// `/alerts` response body, returning the scan's by-value statistics
/// alongside it for the request's trace.
///
/// # Errors
///
/// An I/O or corruption failure reading the store, as a message for
/// the 500 body.
pub fn render_alerts(
    inner: &StoreInner,
    query: &Query,
    rec: &sclog_obs::ThreadRecorder,
) -> Result<(String, ScanStats), String> {
    let mut top = TopK::new(query.limit);
    let stats = inner
        .scan_runs(&scan_filter(inner, query), rec, |run| top.offer_run(run))
        .map_err(|e| e.to_string())?;
    let total = top.total();
    let hits = top.into_sorted();
    // Grows as rows are written: reserving `limit` rows up front costs
    // every small answer a large block.
    let mut body = String::new();
    let _ = write!(
        body,
        "{{\"total\":{total},\"returned\":{},\"alerts\":[",
        hits.len()
    );
    for (i, alert) in hits.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        write_alert(&mut body, inner, alert, &query.fields);
    }
    body.push_str("]}");
    Ok((body, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::AlertStore;
    use sclog_core::pipeline::ingest_batch;
    use sclog_filter::SpatioTemporalFilter;
    use sclog_obs::{Recorder, ThreadRecorder};
    use sclog_rules::RuleSet;
    use sclog_types::json::validate;
    use sclog_types::{CategoryRegistry, SystemId};

    fn test_rec() -> ThreadRecorder {
        Recorder::disabled().thread("test")
    }

    fn store_with_liberty() -> AlertStore {
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
        let filter = SpatioTemporalFilter::paper();
        let text = "\
Mar  7 07:30:00 sn373 pbs_mom: task_check, cannot tm_reply to 10 task 1\n\
Mar  7 07:30:01 sn373 pbs_mom: task_check, cannot tm_reply to 11 task 1\n\
Mar  7 09:00:00 dn228 pbs_mom: task_check, cannot tm_reply to 12 task 1\n";
        let result = ingest_batch(SystemId::Liberty, text, &rules, &filter);
        assert!(!result.tagged.is_empty());
        let store = AlertStore::new();
        store.ingest(SystemId::Liberty, &result, &registry, &[]);
        store
    }

    fn run(store: &AlertStore, query: &str) -> Vec<StoredAlert> {
        let inner = store.read();
        let q = Query::parse(query).unwrap();
        inner.scan(&scan_filter(&inner, &q), &test_rec()).unwrap().0
    }

    #[test]
    fn time_window_narrows_the_scan() {
        let store = store_with_liberty();
        let all = run(&store, "");
        assert_eq!(all.len(), 3);
        // From the last alert's own second onward: the early pair
        // (90 minutes before) must fall outside the range.
        let last_secs = all.last().unwrap().time.as_secs();
        let tail = run(&store, &format!("from={last_secs}"));
        assert!(!tail.is_empty() && tail.len() < all.len());
        // A window entirely after the log must match nothing.
        let empty = run(
            &store,
            &format!("from={}&to={}", last_secs + 3_600, last_secs + 7_200),
        );
        assert!(empty.is_empty(), "empty window must be an empty result");
    }

    #[test]
    fn host_and_filtered_predicates_compose() {
        let store = store_with_liberty();
        let on_sn = run(&store, "host=sn*");
        assert!(!on_sn.is_empty());
        {
            let inner = store.read();
            assert!(on_sn.iter().all(|a| inner.host_name(a).starts_with("sn")));
        }
        let survivors = run(&store, "host=sn*&filtered=true");
        assert!(survivors.len() < on_sn.len(), "duplicate must be discarded");
    }

    #[test]
    fn unknown_names_match_nothing() {
        let store = store_with_liberty();
        assert!(run(&store, "category=NO_SUCH_RULE").is_empty());
        assert!(run(&store, "host=no-such-node").is_empty());
    }

    #[test]
    fn rendered_body_is_valid_json_with_selected_fields() {
        let store = store_with_liberty();
        let inner = store.read();
        let q = Query::parse("fields=time,host,filtered&limit=2").unwrap();
        let (body, _) = render_alerts(&inner, &q, &test_rec()).unwrap();
        validate(&body).expect("body must be valid JSON");
        assert!(body.contains("\"total\":3"));
        assert!(body.contains("\"returned\":2"));
        assert!(body.contains("\"host\":\"sn373\""));
        assert!(!body.contains("\"category\""), "unselected field leaked");
    }
}
