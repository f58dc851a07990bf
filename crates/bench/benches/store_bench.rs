//! Wall-clock benchmark for the on-disk segment store behind sclogd:
//! append throughput into WAL-backed partitions, zone-map pruning
//! versus a full scan on a narrow range query, streaming `scan_runs`
//! consumers versus the materialise-and-sort `scan` they replaced on
//! sclogd's read path, the column-at-a-time kernel versus a
//! row-at-a-time `ScanFilter::matches` loop over the same cached
//! segments, the same kernel versus row loops over bursty segments
//! (hosts and categories in runs, as alert floods come), and a cold
//! boot from sealed segments versus re-running simulation and ingest
//! (the boot path `--data` replaces).
//!
//! Emits one JSON record per benchmark on stdout plus six derived
//! records:
//!   {"record":"prune_speedup"}  full-scan / pruned-scan median ratio
//!                               on a one-day, one-system filter over
//!                               a multi-day five-system store
//!   {"record":"scan_agg"}       materialise+sort+fold / streaming
//!                               fold median ratio for a per-category
//!                               count over every record (the shape
//!                               of sclogd's aggregate recompute)
//!   {"record":"scan_limit"}     materialise+sort+take / streaming
//!                               count + top-100 heap median ratio on
//!                               a wide (survivors-only) filter — the
//!                               shape of a truncated `/alerts` answer
//!   {"record":"scan_count"}     row loop / column kernel median ratio
//!                               for count + top-100 on a survivors-only
//!                               filter and on a one-category filter,
//!                               with the block cache warm (a serving
//!                               daemon's regime)
//!   {"record":"scan_burst"}     row loops / column kernel median ratio
//!                               for a host-set count + top-100 and the
//!                               per-category count fold over segments
//!                               whose hosts and categories come in
//!                               runs — the word summaries' payoff
//!   {"record":"cold_boot"}      resimulate / cold-boot median ratio —
//!                               how much faster a daemon boots from
//!                               disk than from scratch
//! Human-readable summaries go to stderr.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use sclog_bench::BenchGroup;
use sclog_core::pipeline::ingest_batch;
use sclog_filter::SpatioTemporalFilter;
use sclog_obs::Recorder;
use sclog_rules::RuleSet;
use sclog_simgen::{generate, Scale};
use sclog_store::{ScanFilter, SegmentStore, StoreConfig, StoreMetrics, StoredAlert, TopK};
use sclog_types::json::JsonObject;
use sclog_types::{
    AlertType, CategoryId, NodeId, Severity, SyslogSeverity, SystemId, Timestamp, ALL_SYSTEMS,
};

const DAY_MICROS: i64 = 86_400_000_000;
/// Days of synthetic history per system.
const DAYS: i64 = 16;
/// Synthetic records per (system, day) partition.
const PER_DAY: usize = 300;

/// Deterministic splitmix64 so the synthetic store is identical on
/// every run and host.
struct Rng(u64);

impl Rng {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }
}

/// A multi-day, multi-system batch of synthetic alerts plus the
/// catalog ids they reference, generated against `store`'s catalog.
fn synthetic_records(store: &mut SegmentStore, rng: &mut Rng) -> Vec<StoredAlert> {
    let hosts: Vec<NodeId> = (0..64)
        .map(|i| store.intern_host(&format!("node-{i:03}")))
        .collect();
    let mut categories: Vec<CategoryId> = Vec::new();
    for system in ALL_SYSTEMS {
        for (i, class) in [AlertType::Hardware, AlertType::Software]
            .iter()
            .enumerate()
        {
            categories.push(store.register_category(
                &format!("{}_CAT_{i}", sclog_types::segment::system_slug(system)),
                system,
                *class,
            ));
        }
    }
    let cats_per_system = categories.len() / ALL_SYSTEMS.len();

    let mut records = Vec::with_capacity(ALL_SYSTEMS.len() * DAYS as usize * PER_DAY);
    for (s, _) in ALL_SYSTEMS.iter().enumerate() {
        for day in 0..DAYS {
            for i in 0..PER_DAY {
                let category = categories[s * cats_per_system + rng.next(2) as usize];
                records.push(StoredAlert {
                    time: Timestamp::from_micros(
                        day * DAY_MICROS + rng.next(DAY_MICROS as u64) as i64,
                    ),
                    host: hosts[rng.next(hosts.len() as u64) as usize],
                    category,
                    severity: match rng.next(3) {
                        0 => Severity::None,
                        1 => Severity::Syslog(SyslogSeverity::Error),
                        _ => Severity::Syslog(SyslogSeverity::Warning),
                    },
                    message_index: i,
                    filtered: rng.next(2) == 0,
                    seq: 0,
                });
            }
        }
    }
    records
}

/// Bursty synthetic records per Spirit day partition.
const BURST_PER_DAY: usize = 8192;

/// One system's `DAYS` days of alerts whose hosts and categories each
/// come in runs of 1–2000 rows, the way one node floods one message;
/// times ascend within each day.
fn bursty_records(store: &mut SegmentStore, rng: &mut Rng) -> Vec<StoredAlert> {
    let hosts: Vec<NodeId> = (0..64)
        .map(|i| store.intern_host(&format!("node-{i:03}")))
        .collect();
    let categories: Vec<CategoryId> = (0..4)
        .map(|i| {
            store.register_category(
                &format!("BURST_CAT_{i}"),
                SystemId::Spirit,
                AlertType::Hardware,
            )
        })
        .collect();
    let mut in_runs = |pool_len: usize, n: usize| {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let value = rng.next(pool_len as u64) as usize;
            let len = (1 + rng.next(2000) as usize).min(n - out.len());
            out.extend(std::iter::repeat_n(value, len));
        }
        out
    };
    let mut records = Vec::with_capacity(DAYS as usize * BURST_PER_DAY);
    for day in 0..DAYS {
        let host_runs = in_runs(hosts.len(), BURST_PER_DAY);
        let category_runs = in_runs(categories.len(), BURST_PER_DAY);
        for (i, (h, c)) in host_runs.into_iter().zip(category_runs).enumerate() {
            let step = DAY_MICROS / BURST_PER_DAY as i64;
            records.push(StoredAlert {
                time: Timestamp::from_micros(day * DAY_MICROS + i as i64 * step),
                host: hosts[h],
                category: categories[c],
                severity: Severity::None,
                message_index: i,
                filtered: i % 7 == 0,
                seq: 0,
            });
        }
    }
    records
}

/// Rows a truncated `/alerts` answer returns by default.
const LIMIT: usize = 100;

/// Prints a `{"record":name}` line: materialising / streaming medians.
fn derived_ratio(name: &str, hits: u64, streaming_ns: u128, materialised_ns: u128) {
    let speedup = materialised_ns as f64 / streaming_ns.max(1) as f64;
    let mut obj = JsonObject::new();
    obj.str("record", name)
        .uint("hits", hits)
        .uint("streaming_median_ns", streaming_ns as u64)
        .uint("materialised_median_ns", materialised_ns as u64)
        .num("speedup", speedup);
    println!("{}", obj.finish());
    eprintln!("store/{name}: streaming {speedup:.2}x the materialising scan ({hits} hits)");
}

fn bench_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sclog-store-bench-{}-{name}", std::process::id()))
}

fn fresh(root: &Path) -> SegmentStore {
    let _ = std::fs::remove_dir_all(root);
    SegmentStore::open(
        root,
        StoreConfig {
            // Payload caching off: scans measure real decode work, not
            // a warm in-memory copy — the regime a freshly booted
            // daemon is in.
            cache_payloads: false,
            ..StoreConfig::default()
        },
    )
    .expect("open bench store")
}

fn main() {
    let rec = Recorder::disabled().thread("bench");
    let metrics = StoreMetrics::disabled();

    // ---------------------------------------------------------- append
    let mut rng = Rng(7);
    let seed_root = bench_dir("seed");
    let mut seed_store = fresh(&seed_root);
    let records = synthetic_records(&mut seed_store, &mut rng);

    let mut group = BenchGroup::new("store");
    group
        .sample_size(10)
        .throughput_elements(records.len() as u64);
    let append_root = bench_dir("append");
    group.bench("append_fresh_store", || {
        let mut store = fresh(&append_root);
        let recs = synthetic_records(&mut store, &mut Rng(7));
        store.append(&recs, &rec, &metrics).expect("append");
        store.record_count()
    });
    let _ = std::fs::remove_dir_all(&append_root);

    // ---------------------------------------------- pruned vs full scan
    // One sealed, compacted store; the query asks for one day of one
    // system out of DAYS days and five systems, so zone maps can skip
    // almost every segment while the full scan decodes them all.
    seed_store.append(&records, &rec, &metrics).expect("append");
    seed_store.seal_all(&rec, &metrics).expect("seal");
    seed_store.compact(&rec, &metrics).expect("compact");
    let narrow = ScanFilter {
        from: Some(Timestamp::from_micros(3 * DAY_MICROS)),
        to: Some(Timestamp::from_micros(4 * DAY_MICROS - 1)),
        system: Some(SystemId::Spirit),
        ..ScanFilter::all()
    };
    let (pruned_hits, _) = seed_store
        .scan(&narrow, true, &rec, &metrics)
        .expect("pruned scan");
    let (full_hits, _) = seed_store
        .scan(&narrow, false, &rec, &metrics)
        .expect("full scan");
    assert_eq!(pruned_hits, full_hits, "pruning may never change answers");
    assert!(
        !pruned_hits.is_empty(),
        "narrow window must match something"
    );

    let (pruned_ns, full_ns) = group.bench_pair(
        "scan_pruned",
        || {
            seed_store
                .scan(&narrow, true, &rec, &metrics)
                .expect("scan")
        },
        "scan_full",
        || {
            seed_store
                .scan(&narrow, false, &rec, &metrics)
                .expect("scan")
        },
    );
    let mut speedup = JsonObject::new();
    speedup
        .str("record", "prune_speedup")
        .uint("store_records", seed_store.record_count())
        .uint("store_segments", seed_store.segment_count() as u64)
        .uint("window_hits", pruned_hits.len() as u64)
        .uint("pruned_median_ns", pruned_ns as u64)
        .uint("full_median_ns", full_ns as u64)
        .num("speedup", full_ns as f64 / pruned_ns.max(1) as f64);
    println!("{}", speedup.finish());
    eprintln!(
        "store/prune_speedup: {:.1}x ({} hits out of {} records)",
        full_ns as f64 / pruned_ns.max(1) as f64,
        pruned_hits.len(),
        seed_store.record_count(),
    );

    // ------------------------------- streaming consumers vs materialise
    // The same answers two ways: a `scan_runs` visitor that folds or
    // keeps a bounded top-k as runs stream past, and the sorted `scan`
    // followed by the same fold or take.
    let categories = seed_store.catalog().categories.len();
    let all = ScanFilter::all();
    let count_streamed = || {
        let mut counts = vec![0u64; categories];
        seed_store
            .scan_runs(&all, true, &rec, &metrics, |run| {
                let column = run.block().categories();
                run.rows().for_each(|i| counts[column[i] as usize] += 1);
            })
            .expect("scan");
        counts
    };
    let count_materialised = || {
        let mut counts = vec![0u64; categories];
        let (hits, _) = seed_store.scan(&all, true, &rec, &metrics).expect("scan");
        for r in &hits {
            counts[r.category.index()] += 1;
        }
        counts
    };
    assert_eq!(count_streamed(), count_materialised(), "folds must agree");
    let (agg_ns, agg_sorted_ns) = group.bench_pair(
        "scan_agg",
        count_streamed,
        "scan_agg_materialised",
        count_materialised,
    );
    derived_ratio("scan_agg", seed_store.record_count(), agg_ns, agg_sorted_ns);

    let wide = ScanFilter {
        filtered: Some(true),
        ..ScanFilter::all()
    };
    let top_streamed = || {
        let mut top = TopK::new(LIMIT);
        seed_store
            .scan_runs(&wide, true, &rec, &metrics, |run| top.offer_run(run))
            .expect("scan");
        (top.total(), top.into_sorted())
    };
    let top_materialised = || {
        let (hits, _) = seed_store.scan(&wide, true, &rec, &metrics).expect("scan");
        (
            hits.len() as u64,
            hits.into_iter().take(LIMIT).collect::<Vec<_>>(),
        )
    };
    let (wide_hits, _) = top_materialised();
    assert_eq!(
        top_streamed(),
        top_materialised(),
        "top-k is sort-then-take"
    );
    let (limit_ns, limit_sorted_ns) = group.bench_pair(
        "scan_limit",
        top_streamed,
        "scan_limit_materialised",
        top_materialised,
    );
    derived_ratio("scan_limit", wide_hits, limit_ns, limit_sorted_ns);

    // ------------------------------ column kernel vs row-at-a-time loop
    // Count + top-100 for the survivors and for one category, the
    // shapes of sclogd's full-scan and wide `/alerts` requests, over a
    // warm block cache. The row loop reads the same segments (a
    // system filter keeps exactly the partitions the category's zone
    // maps keep) and tests every row with `ScanFilter::matches`, as the
    // scan did before it selected a column at a time.
    drop(seed_store);
    let served = SegmentStore::open(&seed_root, StoreConfig::default()).expect("reopen");
    let registry = served.catalog().categories.clone();
    let one_category = ScanFilter {
        categories: Some(vec![1]),
        ..ScanFilter::all()
    };
    let category_system = ScanFilter {
        system: Some(registry.def(CategoryId::from_index(0)).system),
        ..ScanFilter::all()
    };
    let queries = [(&wide, &all), (&one_category, &category_system)];
    let count_kernel = || {
        queries.map(|(filter, _)| {
            let mut top = TopK::new(LIMIT);
            served
                .scan_runs(filter, true, &rec, &metrics, |run| top.offer_run(run))
                .expect("scan");
            (top.total(), top.into_sorted())
        })
    };
    let count_rows = || {
        queries.map(|(filter, segments)| {
            let mut top = TopK::new(LIMIT);
            served
                .scan_runs(segments, true, &rec, &metrics, |run| {
                    for r in run.alerts() {
                        if filter.matches(&r, &registry) {
                            top.offer(&r);
                        }
                    }
                })
                .expect("scan");
            (top.total(), top.into_sorted())
        })
    };
    let kernel_answers = count_kernel(); // also warms the block cache
    assert_eq!(kernel_answers, count_rows(), "kernel ≡ row oracle");
    let (kernel_ns, rows_ns) =
        group.bench_pair("scan_count", count_kernel, "scan_count_rows", count_rows);
    let hits: u64 = kernel_answers.iter().map(|(total, _)| total).sum();
    let speedup = rows_ns as f64 / kernel_ns.max(1) as f64;
    let mut obj = JsonObject::new();
    obj.str("record", "scan_count")
        .uint("hits", hits)
        .uint("kernel_median_ns", kernel_ns as u64)
        .uint("rows_median_ns", rows_ns as u64)
        .num("speedup", speedup);
    println!("{}", obj.finish());
    eprintln!("store/scan_count: column kernel {speedup:.1}x the row loop ({hits} hits)");

    drop(served);
    let _ = std::fs::remove_dir_all(&seed_root);

    // ------------------------- bursty blocks: kernel vs row loops
    // Segments whose hosts and categories come in runs, so most 64-row
    // words hold one host and one category: the kernel answers those
    // words from the block's word summaries. A host-set drill-down
    // (count + top-100; the row loop tests every row with
    // `ScanFilter::matches`) and the per-category count fold (the row
    // loop adds one per selected row), over warm blocks. The
    // random-host `scan_count` and `scan_agg` arms above have almost no
    // one-host words: they are the control without this property.
    let burst_root = bench_dir("burst");
    let mut burst_store = fresh(&burst_root);
    let bursty = bursty_records(&mut burst_store, &mut Rng(11));
    burst_store.append(&bursty, &rec, &metrics).expect("append");
    burst_store.seal_all(&rec, &metrics).expect("seal");
    drop(burst_store);
    let burst_store = SegmentStore::open(&burst_root, StoreConfig::default()).expect("reopen");
    let registry = burst_store.catalog().categories.clone();
    let categories = registry.len();
    let host_set = ScanFilter {
        hosts: Some((0..8).collect()),
        ..ScanFilter::all()
    };
    let burst_kernel = || {
        let mut top = TopK::new(LIMIT);
        let stats = burst_store
            .scan_runs(&host_set, true, &rec, &metrics, |run| top.offer_run(run))
            .expect("scan");
        let mut counts = vec![0u64; categories];
        burst_store
            .scan_runs(&all, true, &rec, &metrics, |run| {
                run.count_categories(|cat, n| counts[cat as usize] += n);
            })
            .expect("scan");
        (top.total(), top.into_sorted(), counts, stats)
    };
    let burst_rows = || {
        let mut top = TopK::new(LIMIT);
        let mut counts = vec![0u64; categories];
        burst_store
            .scan_runs(&all, true, &rec, &metrics, |run| {
                for r in run.alerts() {
                    if host_set.matches(&r, &registry) {
                        top.offer(&r);
                    }
                }
            })
            .expect("scan");
        burst_store
            .scan_runs(&all, true, &rec, &metrics, |run| {
                let column = run.block().categories();
                run.rows().for_each(|i| counts[column[i] as usize] += 1);
            })
            .expect("scan");
        (top.total(), top.into_sorted(), counts)
    };
    let (hits, top, counts, stats) = burst_kernel(); // also warms the block cache
    assert_eq!((hits, top, counts), burst_rows(), "kernel ≡ row loops");
    group.throughput_elements(bursty.len() as u64);
    let (kernel_ns, rows_ns) =
        group.bench_pair("scan_burst", burst_kernel, "scan_burst_rows", burst_rows);
    let speedup = rows_ns as f64 / kernel_ns.max(1) as f64;
    let mut obj = JsonObject::new();
    obj.str("record", "scan_burst")
        .uint("hits", hits)
        .uint("drill_down_rows_decoded", stats.rows_decoded)
        .uint("drill_down_words_summarised", stats.words_summarised)
        .uint("kernel_median_ns", kernel_ns as u64)
        .uint("rows_median_ns", rows_ns as u64)
        .num("speedup", speedup);
    println!("{}", obj.finish());
    eprintln!(
        "store/scan_burst: column kernel {speedup:.1}x the row loops ({hits} hits; \
         {} of the drill-down's {} words answered from summaries)",
        stats.words_summarised,
        stats.rows_decoded / 64,
    );
    drop(burst_store);
    let _ = std::fs::remove_dir_all(&burst_root);

    // ------------------------------------- cold boot vs re-simulation
    // The store is loaded from a real ingest run (simulate, render,
    // parse, tag, filter — the work a daemon without `--data` repeats
    // at every boot), then sealed. Cold boot replays none of it: open
    // the directory and scan.
    let scale = Scale::new(0.002, 0.002);
    let seed = 7;
    let resimulate = || {
        let log = generate(SystemId::BlueGeneL, scale, seed);
        let text = log.render();
        let mut registry = sclog_types::CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::BlueGeneL, &mut registry);
        let filter = SpatioTemporalFilter::paper();
        let result = ingest_batch(SystemId::BlueGeneL, &text, &rules, &filter);
        (result, registry)
    };
    let (result, registry) = resimulate();
    let boot_root = bench_dir("boot");
    let mut boot_store = fresh(&boot_root);
    let survivors: HashSet<usize> = result.filtered.iter().map(|a| a.message_index).collect();
    let stored: Vec<StoredAlert> = result
        .tagged
        .alerts
        .iter()
        .map(|alert| {
            let def = registry.def(alert.category);
            StoredAlert {
                time: alert.time,
                host: boot_store.intern_host(result.sources.name(alert.source)),
                category: boot_store.register_category(&def.name, def.system, def.alert_type),
                severity: Severity::None,
                message_index: alert.message_index,
                filtered: survivors.contains(&alert.message_index),
                seq: 0,
            }
        })
        .collect();
    boot_store.append(&stored, &rec, &metrics).expect("append");
    boot_store.seal_all(&rec, &metrics).expect("seal");
    boot_store.compact(&rec, &metrics).expect("compact");
    let alert_count = boot_store.record_count();
    drop(boot_store);

    group.throughput_elements(0);
    let (cold_ns, resim_ns) = group.bench_pair(
        "cold_boot",
        || {
            let store = SegmentStore::open(
                &boot_root,
                StoreConfig {
                    cache_payloads: false,
                    ..StoreConfig::default()
                },
            )
            .expect("open");
            store
                .scan(&ScanFilter::all(), true, &rec, &metrics)
                .expect("scan")
                .0
                .len()
        },
        "resimulate",
        || resimulate().0.tagged.alerts.len(),
    );
    let mut boot = JsonObject::new();
    boot.str("record", "cold_boot")
        .uint("alerts", alert_count)
        .uint("cold_boot_median_ns", cold_ns as u64)
        .uint("resimulate_median_ns", resim_ns as u64)
        .num("speedup", resim_ns as f64 / cold_ns.max(1) as f64);
    println!("{}", boot.finish());
    eprintln!(
        "store/cold_boot: {:.1}x faster than re-simulation ({} alerts)",
        resim_ns as f64 / cold_ns.max(1) as f64,
        alert_count,
    );
    let _ = std::fs::remove_dir_all(&boot_root);
}
