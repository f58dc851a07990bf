//! Dense streaming aggregate fold ≡ the `HashMap` fold it replaced.
//!
//! `compute_reference` below is the pre-streaming aggregate code: one
//! sorted materialising scan folded through `HashMap`s keyed by
//! category id and host *name*. The served `/categories`,
//! `/interarrival` and `/hotspots` bodies (`k` = 1, 3 and every node)
//! must be byte-identical to what it renders, on a multi-system simgen store
//! that holds hosts tied on survivor count (ties order by name),
//! tagged categories with zero survivors, survivor times that reach
//! the fold out of time order, and both 64-row words whose rows share
//! one category (counted from the block's word summary) and mixed
//! words (counted row by row).

use std::collections::HashMap;

use sclog_core::pipeline::ingest_batch;
use sclog_filter::SpatioTemporalFilter;
use sclog_obs::{Recorder, ThreadRecorder};
use sclog_rules::RuleSet;
use sclog_simgen::{generate, Scale};
use sclog_stats::Summary;
use sclog_store::{ScanFilter, ScanStats, StoreMetrics};
use sclog_types::json::{JsonArray, JsonObject};
use sclog_types::{CategoryRegistry, SystemId, Timestamp};
use sclogd::aggregate::AggregateCache;
use sclogd::store::{AlertStore, StoreInner};

fn rec() -> ThreadRecorder {
    Recorder::disabled().thread("equiv")
}

/// Bodies the pre-streaming code served.
struct Reference {
    categories: String,
    interarrival: String,
    /// Full hotspot ranking: most survivors first, ties by name.
    hotspots: Vec<(String, u64)>,
    /// Whether two hosts share a survivor count.
    tied: bool,
    stats: ScanStats,
}

/// The pre-streaming `compute`, rendering bodies directly.
fn compute_reference(inner: &StoreInner) -> Reference {
    // One unfiltered scan, then one pass: per-category counts and
    // survivor times, per-host survivor counts. The scan returns
    // alerts time-sorted, so the collected times are too —
    // interarrival gaps are direct successive differences.
    let (alerts, stats) = inner.scan(&ScanFilter::all(), &rec()).unwrap();
    let mut tagged: HashMap<u16, u64> = HashMap::new();
    let mut filtered: HashMap<u16, u64> = HashMap::new();
    let mut times: HashMap<u16, Vec<i64>> = HashMap::new();
    let mut per_host: HashMap<&str, u64> = HashMap::new();
    for alert in &alerts {
        let cat = alert.category.index() as u16;
        *tagged.entry(cat).or_default() += 1;
        if alert.filtered {
            *filtered.entry(cat).or_default() += 1;
            times.entry(cat).or_default().push(alert.time.as_micros());
            *per_host.entry(inner.host_name(alert)).or_default() += 1;
        }
    }

    let mut cats: Vec<u16> = tagged.keys().copied().collect();
    cats.sort_unstable();

    let mut categories = JsonArray::new();
    let mut interarrival = JsonArray::new();
    for cat in cats {
        let id = sclog_types::CategoryId::from_index(cat);
        let def = inner.categories().def(id);
        let mut obj = JsonObject::new();
        obj.str("category", &def.name)
            .str("system", &def.system.to_string())
            .str("class", &def.alert_type.to_string())
            .uint("tagged", tagged[&cat])
            .uint("filtered", filtered.get(&cat).copied().unwrap_or(0));
        categories.push_raw(&obj.finish());

        let ts = times.get(&cat).map(Vec::as_slice).unwrap_or(&[]);
        let gaps: Vec<f64> = ts.windows(2).map(|w| (w[1] - w[0]) as f64 / 1e6).collect();
        let summary = Summary::from_slice(&gaps);
        let mut obj = JsonObject::new();
        obj.str("category", &def.name).uint("gaps", summary.count());
        if summary.count() > 0 {
            obj.num("mean_s", summary.mean())
                .num("std_dev_s", summary.std_dev())
                .num("min_s", summary.min())
                .num("max_s", summary.max());
        }
        interarrival.push_raw(&obj.finish());
    }

    let mut hotspots: Vec<(String, u64)> = per_host
        .into_iter()
        .map(|(h, n)| (h.to_owned(), n))
        .collect();
    hotspots.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let wrap = |rows: JsonArray, key: &str| {
        let mut body = JsonObject::new();
        body.raw(key, &rows.finish());
        body.finish()
    };
    Reference {
        categories: wrap(categories, "categories"),
        interarrival: wrap(interarrival, "interarrival"),
        tied: hotspots.windows(2).any(|w| w[0].1 == w[1].1),
        hotspots,
        stats,
    }
}

/// The `/hotspots?k=<k>` body the pre-streaming code rendered.
fn hotspots_body(ranking: &[(String, u64)], k: usize) -> String {
    let mut rows = JsonArray::new();
    for (host, count) in ranking.iter().take(k) {
        let mut obj = JsonObject::new();
        obj.str("host", host).uint("filtered", *count);
        rows.push_raw(&obj.finish());
    }
    let mut hot = JsonObject::new();
    hot.uint("nodes", ranking.len() as u64)
        .raw("hotspots", &rows.finish());
    hot.finish()
}

#[test]
fn dense_fold_matches_hashmap_reference() {
    let store = AlertStore::new();
    let filter = SpatioTemporalFilter::paper();
    // The last run replays BG/L an hour earlier: its alerts land after
    // the originals in every shared partition, so survivor times reach
    // the fold out of time order and only the per-category sort puts
    // them back.
    let bgl = Scale::new(0.05, 0.0001);
    let runs = [
        (SystemId::BlueGeneL, bgl, 0),
        (SystemId::Liberty, Scale::new(0.05, 0.0001), 0),
        (SystemId::Spirit, Scale::new(0.00002, 0.0001), 0),
        (SystemId::BlueGeneL, bgl, 3_600_000_000),
    ];
    for (i, (system, scale, shift)) in runs.into_iter().enumerate() {
        let log = generate(system, scale, 11);
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(system, &mut registry);
        let mut result = ingest_batch(system, &log.render(), &rules, &filter);
        for alert in &mut result.tagged.alerts {
            alert.time = Timestamp::from_micros(alert.time.as_micros() - shift);
        }
        // Strip the survivors of the run's first category, so the
        // store holds a tagged category with zero survivors.
        let victim = result.tagged.alerts[0].category;
        result.filtered.retain(|a| a.category != victim);
        store.ingest(system, &result, &registry, &[]);
        if i == 1 {
            // Seal the first two runs; the rest stay WAL tails.
            store.finalize(&rec()).unwrap();
        }
    }

    let inner = store.read();
    // Warm the payload cache so both scans read the same bytes (zero)
    // and their stats compare field for field.
    let metrics = StoreMetrics::disabled();
    inner
        .segs
        .scan_with(&ScanFilter::all(), false, &rec(), &metrics, |_| {})
        .unwrap();
    let want = compute_reference(&inner);
    let mut last_seen = HashMap::new();
    let mut out_of_order = false;
    inner
        .scan_with(&ScanFilter::all(), &rec(), |alert| {
            if alert.filtered {
                let prev = last_seen.insert(alert.category, alert.time);
                out_of_order |= prev.is_some_and(|prev| alert.time < prev);
            }
        })
        .unwrap();
    // The words the fold meets, by whether their rows share a category.
    let (mut uniform_words, mut mixed_words) = (0, 0);
    inner
        .scan_runs(&ScanFilter::all(), &rec(), |run| {
            let cats = run.block().categories();
            let mut words: Vec<usize> = run.rows().map(|i| i / 64).collect();
            words.dedup();
            for w in words {
                let word = &cats[w * 64..(w * 64 + 64).min(cats.len())];
                if word.iter().all(|&c| c == word[0]) {
                    uniform_words += 1;
                } else {
                    mixed_words += 1;
                }
            }
        })
        .unwrap();
    let nodes = inner.hosts().len();
    drop(inner);

    let cache = AggregateCache::new();
    let (categories, stats) = cache.categories(&store, &rec()).unwrap();
    assert_eq!(categories, want.categories);
    assert_eq!(stats, Some(want.stats), "the recompute reports its scan");
    assert_eq!(
        cache.interarrival(&store, &rec()).unwrap().0,
        want.interarrival
    );
    assert!(nodes > 3, "top-k must truncate at k = 1 and 3");
    for k in [1, 3, nodes] {
        assert_eq!(
            cache.hotspots(&store, &rec(), k).unwrap().0,
            hotspots_body(&want.hotspots, k),
            "k={k}"
        );
    }

    // The fixture must exercise what the comparison claims to cover.
    assert!(want.tied, "no hosts tied on survivor count");
    assert!(out_of_order, "survivor times arrive in time order");
    assert!(
        want.categories.contains("\"filtered\":0}"),
        "no zero-survivor category"
    );
    assert!(uniform_words > 0, "no one-category word");
    assert!(mixed_words > 0, "no mixed-category word");
}
