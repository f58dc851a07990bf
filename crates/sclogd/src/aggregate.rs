//! Materialized aggregates over the store, cached by store version.
//!
//! The three aggregation endpoints (`/categories`, `/interarrival`,
//! `/hotspots`) walk every alert, which is the wrong thing to do per
//! request on a store that only changes when something is ingested.
//! One [`AggregateCache`] holds the rendered results keyed by the
//! store's mutation counter: a request under the current version is a
//! string clone; the first request after an ingest (or the first ever
//! against a store booted from disk) recomputes with one streaming
//! fold over the segment store's columns into dense per-id counters.
//! The `tagged` histogram is added a 64-row word at a time wherever a
//! word's rows share one category — the common case, since alerts
//! arrive in floods from one node and one category — and row by row
//! only in mixed words (see [`sclog_store::Run::count_categories`]).
//!
//! Hotspot top-`k` is applied at serve time from the cached full
//! ranking, so `k=5` and `k=50` share one computation.

use std::fmt::Write as _;
use std::io;
use std::sync::Mutex;

use sclog_obs::ThreadRecorder;
use sclog_stats::Summary;
use sclog_store::{ScanFilter, ScanStats};
use sclog_types::json::{self, JsonArray, JsonObject};

use crate::store::{AlertStore, StoreInner};

/// Rendered aggregates for one store version.
#[derive(Debug, Clone)]
struct Cached {
    version: u64,
    categories_json: String,
    interarrival_json: String,
    /// Full hotspot ranking: `(host, filtered-alert count)`, most
    /// alerts first, name-ordered within ties for determinism.
    hotspots: Vec<(String, u64)>,
}

/// Version-keyed cache of the aggregation endpoints' bodies.
#[derive(Debug, Default)]
pub struct AggregateCache {
    slot: Mutex<Option<Cached>>,
}

impl AggregateCache {
    /// An empty cache; the first request populates it.
    pub fn new() -> Self {
        AggregateCache::default()
    }

    /// Runs `f` over the current-version cache entry, recomputing it
    /// first if stale. The second element of the result is the
    /// recompute scan's statistics — `None` on a cache hit, which is
    /// how a request's trace distinguishes "free" aggregate serves
    /// from the one that paid for a full scan.
    fn with_current<R>(
        &self,
        store: &AlertStore,
        rec: &ThreadRecorder,
        f: impl FnOnce(&Cached) -> R,
    ) -> Result<(R, Option<ScanStats>), String> {
        let mut slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let stale = match &*slot {
            Some(cached) => cached.version != store.version(),
            None => true,
        };
        let mut scanned = None;
        if stale {
            let (cached, stats) = compute(&store.read(), rec).map_err(|e| e.to_string())?;
            *slot = Some(cached);
            scanned = Some(stats);
        }
        Ok((f(slot.as_ref().expect("cache populated above")), scanned))
    }

    /// `/categories` body: per-category tagged/filtered counts.
    ///
    /// # Errors
    ///
    /// A store read failure while recomputing, as a 500 body.
    pub fn categories(
        &self,
        store: &AlertStore,
        rec: &ThreadRecorder,
    ) -> Result<(String, Option<ScanStats>), String> {
        self.with_current(store, rec, |c| c.categories_json.clone())
    }

    /// `/interarrival` body: per-category interarrival summaries over
    /// filter survivors.
    ///
    /// # Errors
    ///
    /// A store read failure while recomputing, as a 500 body.
    pub fn interarrival(
        &self,
        store: &AlertStore,
        rec: &ThreadRecorder,
    ) -> Result<(String, Option<ScanStats>), String> {
        self.with_current(store, rec, |c| c.interarrival_json.clone())
    }

    /// `/hotspots` body: the `k` nodes with the most filter survivors.
    ///
    /// # Errors
    ///
    /// A store read failure while recomputing, as a 500 body.
    pub fn hotspots(
        &self,
        store: &AlertStore,
        rec: &ThreadRecorder,
        k: usize,
    ) -> Result<(String, Option<ScanStats>), String> {
        // Written into one buffer like `/alerts` rows: no allocation
        // per row, bytes identical to the `JsonObject` builders'.
        self.with_current(store, rec, |c| {
            let mut body = String::new();
            let _ = write!(body, "{{\"nodes\":{},\"hotspots\":[", c.hotspots.len());
            for (i, (host, count)) in c.hotspots.iter().take(k).enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str("{\"host\":");
                json::push_str(host, &mut body);
                let _ = write!(body, ",\"filtered\":{count}}}");
            }
            body.push_str("]}");
            body
        })
    }
}

fn compute(inner: &StoreInner, rec: &ThreadRecorder) -> io::Result<(Cached, ScanStats)> {
    // One fold over every segment's columns into dense counters
    // indexed by category and host id: the category column's word
    // summaries feed the tagged histogram, and only the rows the
    // survivor bitmap selects
    // are read for survivor counts, host counts and times. Survivor
    // times come sorted within each run but not across runs, so each
    // category's list is sorted afterwards: the same sorted multiset a
    // time-ordered scan yields, so gaps and summaries are
    // bit-identical to folding a sorted scan.
    let n_cats = inner.categories().len();
    let mut tagged = vec![0u64; n_cats];
    let mut filtered = vec![0u64; n_cats];
    let mut times: Vec<Vec<i64>> = vec![Vec::new(); n_cats];
    let mut per_host = vec![0u64; inner.hosts().len()];
    let scan_stats = inner.scan_runs(&ScanFilter::all(), rec, |run| {
        let block = run.block();
        let (cats, hosts, ts) = (block.categories(), block.hosts(), block.times());
        run.count_categories(|cat, n| tagged[cat as usize] += n);
        for i in run.survivor_rows() {
            let cat = cats[i] as usize;
            filtered[cat] += 1;
            times[cat].push(ts[i]);
            per_host[hosts[i] as usize] += 1;
        }
    })?;

    let mut categories = JsonArray::new();
    let mut interarrival = JsonArray::new();
    for (id, def) in inner.categories().iter() {
        let cat = id.index();
        if tagged[cat] == 0 {
            continue;
        }
        let mut obj = JsonObject::new();
        obj.str("category", &def.name)
            .str("system", &def.system.to_string())
            .str("class", &def.alert_type.to_string())
            .uint("tagged", tagged[cat])
            .uint("filtered", filtered[cat]);
        categories.push_raw(&obj.finish());

        let ts = &mut times[cat];
        ts.sort_unstable();
        let gaps: Vec<f64> = ts.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6).collect();
        let summary = Summary::from_slice(&gaps);
        let mut obj = JsonObject::new();
        obj.str("category", &def.name)
            .uint("gaps", summary.count() as u64);
        if summary.count() > 0 {
            obj.num("mean_s", summary.mean())
                .num("std_dev_s", summary.std_dev())
                .num("min_s", summary.min())
                .num("max_s", summary.max());
        }
        interarrival.push_raw(&obj.finish());
    }

    // Names are resolved once per host, not once per alert.
    let mut hotspots: Vec<(String, u64)> = inner
        .hosts()
        .iter()
        .filter(|(id, _)| per_host[id.index()] > 0)
        .map(|(id, name)| (name.to_owned(), per_host[id.index()]))
        .collect();
    hotspots.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let wrap = |rows: JsonArray, key: &str| {
        let mut body = JsonObject::new();
        body.raw(key, &rows.finish());
        body.finish()
    };
    Ok((
        Cached {
            version: inner.version,
            categories_json: wrap(categories, "categories"),
            interarrival_json: wrap(interarrival, "interarrival"),
            hotspots,
        },
        scan_stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_core::pipeline::ingest_batch;
    use sclog_filter::SpatioTemporalFilter;
    use sclog_obs::Recorder;
    use sclog_rules::RuleSet;
    use sclog_types::json::validate;
    use sclog_types::{CategoryRegistry, SystemId};

    fn test_rec() -> ThreadRecorder {
        Recorder::disabled().thread("test")
    }

    fn seeded_store() -> (AlertStore, CategoryRegistry, sclog_core::IngestResult) {
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
        let filter = SpatioTemporalFilter::paper();
        let text = "\
Mar  7 07:30:00 sn373 pbs_mom: task_check, cannot tm_reply to 10 task 1\n\
Mar  7 07:40:00 sn373 pbs_mom: task_check, cannot tm_reply to 11 task 1\n\
Mar  7 07:50:00 dn228 pbs_mom: task_check, cannot tm_reply to 12 task 1\n";
        let result = ingest_batch(SystemId::Liberty, text, &rules, &filter);
        let store = AlertStore::new();
        store.ingest(SystemId::Liberty, &result, &registry, &[]);
        (store, registry, result)
    }

    #[test]
    fn aggregates_are_valid_json_and_consistent() {
        let (store, _, result) = seeded_store();
        let rec = test_rec();
        let cache = AggregateCache::new();
        let (cats, scanned) = cache.categories(&store, &rec).unwrap();
        validate(&cats).unwrap();
        assert!(cats.contains("\"tagged\":3"), "body: {cats}");
        assert!(
            scanned.is_some_and(|s| s.rows_decoded == 3),
            "the recompute reports its scan: {scanned:?}"
        );

        let (inter, scanned) = cache.interarrival(&store, &rec).unwrap();
        validate(&inter).unwrap();
        assert!(scanned.is_none(), "cache hit must not claim a scan");
        // Three survivors 600 s apart → two gaps of exactly 600 s.
        assert!(result.filtered.len() == 3);
        assert!(inter.contains("\"gaps\":2"), "body: {inter}");
        assert!(inter.contains("\"mean_s\":600"), "body: {inter}");

        let (hot, _) = cache.hotspots(&store, &rec, 1).unwrap();
        validate(&hot).unwrap();
        assert!(hot.contains("\"nodes\":2"), "body: {hot}");
        assert!(hot.contains("\"host\":\"sn373\""), "sn373 has 2 survivors");
        assert!(!hot.contains("dn228"), "k=1 must truncate the ranking");
    }

    #[test]
    fn cache_invalidates_on_ingest_only() {
        let (store, registry, result) = seeded_store();
        let rec = test_rec();
        let cache = AggregateCache::new();
        let before = cache.categories(&store, &rec).unwrap().0;
        assert_eq!(
            before,
            cache.categories(&store, &rec).unwrap().0,
            "stable under reads"
        );
        store.ingest(SystemId::Liberty, &result, &registry, &[]);
        let after = cache.categories(&store, &rec).unwrap().0;
        assert_ne!(before, after, "ingest must invalidate");
        assert!(after.contains("\"tagged\":6"), "body: {after}");
    }
}
