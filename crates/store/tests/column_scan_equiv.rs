//! Column-at-a-time scan ≡ the row oracle. The kernel sorts each
//! segment block by `(time, seq)` at decode, turns the time window into
//! a binary search, builds selection words from predicate columns and
//! skips any predicate a zone map proves for every row; none of that
//! may change an answer. For every random filter and `limit`, the
//! top-`limit` rows and `total` a [`TopK`] reads from the runs, and
//! the multiset of matches the visitor sees, must equal what
//! `ScanFilter::matches` selects from the records as appended.
//!
//! Stores hold sealed segments whose payloads are out of `(time, seq)`
//! order (two appends with interleaved times before each seal), some
//! longer than one run; unsealed WAL tails, some hundreds of rows
//! long; and times drawn from a few instants so
//! ties span partitions. Filters include ones that cover whole zones
//! (category and host supersets, a window around everything), empty
//! id sets, and every survivor mode; each store is scanned with the
//! block cache on (cold and warm) and off.
//!
//! Half the stores are bursty, like real alert floods: hosts and
//! categories come in runs of 1–300 rows, so blocks hold 64-row words
//! whose rows all share a host or a category — answered from the
//! block's word summaries — beside mixed words read row by row. The
//! suite checks it met uniform words inside and outside each
//! predicate, mixed words, and bursts across word and [`RUN_ROWS`]
//! boundaries, and that [`Run::count_categories`] equals a per-row
//! count of the selected rows.

use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;

use sclog_obs::{Recorder, ThreadRecorder};
use sclog_store::{
    Block, Run, ScanFilter, SegmentStore, StoreConfig, StoreMetrics, StoredAlert, TopK, RUN_ROWS,
};
use sclog_testkit::{check_n, Gen};
use sclog_types::{
    AlertType, BglSeverity, CategoryRegistry, Severity, SyslogSeverity, Timestamp, ALL_SYSTEMS,
};

const DAY_MICROS: i64 = 86_400_000_000;

fn rec() -> ThreadRecorder {
    Recorder::disabled().thread("equiv")
}

/// The records a random store was built from, with the `seq` the store
/// assigned each (admission order from 0), plus its id ranges.
struct Fixture {
    records: Vec<StoredAlert>,
    /// Whether a sealed segment holds two appends with interleaved
    /// times, so its payload is out of `(time, seq)` order.
    interleaved: bool,
    /// Whether one partition's unsealed tail holds over 512 rows.
    long_tail: bool,
    categories: usize,
    hosts: usize,
}

/// `n` values drawn from `pool` in runs of 1–300 equal values.
fn in_runs<T: Copy>(g: &mut Gen, pool: &[T], n: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let value = *g.pick(pool);
        let len = g.usize_in(1..=300).min(n - out.len());
        out.extend(std::iter::repeat_n(value, len));
    }
    out
}

fn build_store(g: &mut Gen, root: &Path) -> Fixture {
    let (rec, metrics) = (rec(), StoreMetrics::disabled());
    // Either only the explicit seals below cut segments (two appends
    // per segment), or small auto-seals cut many more.
    let explicit_seals = g.chance(0.5);
    let bursty = g.chance(0.5);
    let mut store = SegmentStore::open(
        root,
        StoreConfig {
            seal_records: if explicit_seals {
                usize::MAX
            } else {
                g.usize_in(8..=200)
            },
            cache_payloads: false,
        },
    )
    .unwrap();
    let categories: Vec<_> = (0..g.usize_in(2..=6))
        .map(|i| {
            let system = *g.pick(&ALL_SYSTEMS);
            let class = *g.pick(&[
                AlertType::Hardware,
                AlertType::Software,
                AlertType::Indeterminate,
            ]);
            (
                store.register_category(&format!("CAT_{i}"), system, class),
                system,
            )
        })
        .collect();
    let hosts: Vec<_> = (0..g.usize_in(1..=6))
        .map(|i| store.intern_host(&format!("node-{i}")))
        .collect();
    // A few instants over three days: ties inside a partition and
    // across every system's partition for the same day.
    let instants: Vec<i64> = (0..g.usize_in(3..=16))
        .map(|_| g.int_in(0..=3 * DAY_MICROS - 1))
        .collect();
    // The first partition's categories and instants: a batch drawn
    // from these lands in one segment.
    let first_day = instants[0].div_euclid(DAY_MICROS);
    let one_partition = (
        categories
            .iter()
            .filter(|c| c.1 == categories[0].1)
            .map(|c| c.0)
            .collect::<Vec<_>>(),
        instants
            .iter()
            .filter(|t| t.div_euclid(DAY_MICROS) == first_day)
            .copied()
            .collect::<Vec<_>>(),
    );
    let everywhere = (categories.iter().map(|c| c.0).collect(), instants.clone());
    let mut records = Vec::new();
    let mut interleaved = false;
    let batch = |g: &mut Gen, most: usize, (cats, times): &(Vec<_>, Vec<i64>)| {
        let n = g.usize_in(1..=most);
        // Each batch is time-sorted on its own, so it is the
        // interleaving of two batches that puts a payload out of order.
        let mut batch: Vec<StoredAlert> = (0..n)
            .map(|i| StoredAlert {
                time: Timestamp::from_micros(*g.pick(times)),
                host: *g.pick(&hosts),
                category: *g.pick(cats),
                severity: *g.pick(&[
                    Severity::None,
                    Severity::Syslog(SyslogSeverity::Error),
                    Severity::Syslog(SyslogSeverity::Warning),
                    Severity::Bgl(BglSeverity::Fatal),
                ]),
                message_index: i,
                filtered: g.chance(0.5),
                seq: 0,
            })
            .collect();
        batch.sort_by_key(|r| r.time);
        if bursty {
            // Runs over time order, so they survive into the sorted
            // blocks (split only where another batch's rows interleave).
            let runs = in_runs(g, &hosts, n).into_iter().zip(in_runs(g, cats, n));
            for (r, (host, category)) in batch.iter_mut().zip(runs) {
                (r.host, r.category) = (host, category);
            }
        }
        batch
    };
    let mut append = |store: &mut SegmentStore, batch: Vec<StoredAlert>| {
        store.append(&batch, &rec, &metrics).unwrap();
        for mut r in batch {
            r.seq = records.len() as u64;
            records.push(r);
        }
    };
    for round in 0..g.usize_in(1..=3) {
        // Now and then one segment longer than a run; a bursty store
        // always tries for one, so bursts meet run boundaries.
        let (most, pool) = if g.chance(0.15) || (bursty && round == 0) {
            (RUN_ROWS, &one_partition)
        } else if bursty {
            (400, &everywhere)
        } else {
            (80, &everywhere)
        };
        let (first, second) = (batch(g, most, pool), batch(g, most, pool));
        // Out of order once sealed together: a partition's share of
        // the second append starts before its share of the first ends.
        let partition = |r: &StoredAlert| {
            let system = categories.iter().find(|c| c.0 == r.category).unwrap().1;
            (system, r.time.as_micros().div_euclid(DAY_MICROS))
        };
        let mut latest = HashMap::new();
        for a in &first {
            let t = latest.entry(partition(a)).or_insert(a.time);
            *t = (*t).max(a.time);
        }
        interleaved |= explicit_seals
            && second
                .iter()
                .any(|b| latest.get(&partition(b)).is_some_and(|&t| b.time < t));
        append(&mut store, first);
        append(&mut store, second);
        store.seal_all(&rec, &metrics).unwrap();
    }
    // Unsealed tails, recovered from the WAL on reopen; now and then
    // one partition's tail runs to hundreds of rows.
    let mut long_tail = false;
    for _ in 0..g.usize_in(0..=2) {
        let tail = if explicit_seals && g.chance(0.3) {
            let tail = batch(g, 900, &one_partition);
            long_tail |= tail.len() > 512;
            tail
        } else {
            batch(g, 30, &everywhere)
        };
        append(&mut store, tail);
    }
    Fixture {
        records,
        interleaved,
        long_tail,
        categories: categories.len(),
        hosts: hosts.len(),
    }
}

/// A random filter, biased towards shapes that exercise covering: id
/// supersets, a window around every record, empty id sets.
fn random_filter(g: &mut Gen, fx: &Fixture) -> ScanFilter {
    let mut filter = ScanFilter::all();
    match g.below(4) {
        0 => {}
        1 => {
            // Wider than every zone: covers the time predicate.
            filter.from = Some(Timestamp::from_micros(-1));
            filter.to = Some(Timestamp::from_micros(3 * DAY_MICROS));
        }
        _ => {
            let from = g.int_in(0..=3 * DAY_MICROS);
            filter.from = g.chance(0.7).then(|| Timestamp::from_micros(from));
            filter.to = g
                .chance(0.7)
                .then(|| Timestamp::from_micros(from + g.int_in(0..=2 * DAY_MICROS)));
        }
    }
    if g.chance(0.5) {
        let p = *g.pick(&[0.0, 0.5, 0.8, 1.0]);
        let mut bits = vec![0u64; fx.categories / 64 + 1];
        for i in 0..fx.categories {
            if g.chance(p) {
                bits[i / 64] |= 1 << (i % 64);
            }
        }
        filter.categories = Some(bits);
    }
    if g.chance(0.5) {
        let p = *g.pick(&[0.0, 0.5, 0.8, 1.0]);
        filter.hosts = Some((0..fx.hosts as u32).filter(|_| g.chance(p)).collect());
    }
    if g.chance(0.2) {
        filter.system = Some(*g.pick(&ALL_SYSTEMS));
    }
    if g.chance(0.2) {
        filter.classes = Some(g.below(8) as u8);
    }
    if g.chance(0.3) {
        filter.severities = Some(g.below(1 << 15) as u16);
    }
    filter.filtered = *g.pick(&[None, Some(true), Some(false)]);
    filter
}

/// What the kernel exercised over the whole run, so the test fails if
/// a fixture change stops covering what it claims to cover.
#[derive(Default)]
struct Seen {
    covered_with_hosts: Cell<u64>,
    covered_with_categories: Cell<u64>,
    partly_covered: Cell<u64>,
    unsorted_payloads: Cell<u64>,
    multi_run_blocks: Cell<u64>,
    long_tails: Cell<u64>,
    /// Words a host predicate met: uniform with a passing host,
    /// uniform with a failing host, mixed.
    host_words: Words,
    /// The same for a category predicate.
    category_words: Words,
    /// A burst running from a mixed word into the next word.
    word_straddles: Cell<u64>,
    /// A burst running across a [`RUN_ROWS`] boundary.
    run_straddles: Cell<u64>,
}

#[derive(Default)]
struct Words {
    inside: Cell<u64>,
    outside: Cell<u64>,
    mixed: Cell<u64>,
}

impl Words {
    /// Tallies one word's values: uniform and passing (`pass` of its
    /// first row), uniform and failing, or mixed.
    fn tally<T: PartialEq>(&self, word: &[T], pass: bool) {
        if !uniform(word) {
            bump(&self.mixed);
        } else if pass {
            bump(&self.inside);
        } else {
            bump(&self.outside);
        }
    }
}

/// Whether every value of `word` is the same.
fn uniform<T: PartialEq>(word: &[T]) -> bool {
    word.iter().all(|v| *v == word[0])
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// Tallies the words `filter`'s host and category predicates meet in
/// an unpruned scan — every word its time window reaches — and the
/// bursts that straddle word and run boundaries in those blocks.
fn tally_words(
    store: &SegmentStore,
    filter: &ScanFilter,
    registry: &CategoryRegistry,
    seen: &Seen,
) {
    let (rec, metrics) = (rec(), StoreMetrics::disabled());
    let window = ScanFilter {
        from: filter.from,
        to: filter.to,
        ..ScanFilter::all()
    };
    let host_only = ScanFilter {
        hosts: filter.hosts.clone(),
        ..ScanFilter::all()
    };
    let category_only = ScanFilter {
        categories: filter.categories.clone(),
        system: filter.system,
        classes: filter.classes,
        ..ScanFilter::all()
    };
    let constrains_categories =
        filter.categories.is_some() || filter.system.is_some() || filter.classes.is_some();
    store
        .scan_runs(&window, false, &rec, &metrics, |run| {
            let block = run.block();
            let mut words: Vec<usize> = run.rows().map(|i| i / 64).collect();
            words.dedup();
            for w in words {
                let rows = w * 64..(w * 64 + 64).min(block.len());
                let first = block.row(rows.start);
                let hosts = block.hosts();
                if filter.hosts.is_some() {
                    let pass = host_only.matches(&first, registry);
                    seen.host_words.tally(&hosts[rows.clone()], pass);
                }
                if constrains_categories {
                    let pass = category_only.matches(&first, registry);
                    seen.category_words
                        .tally(&block.categories()[rows.clone()], pass);
                }
                if rows.end < block.len() && straddles(block, rows.end) {
                    let next = rows.end..(rows.end + 64).min(block.len());
                    if !uniform(&hosts[rows.clone()]) || !uniform(&hosts[next]) {
                        bump(&seen.word_straddles);
                    }
                    if rows.end % RUN_ROWS == 0 {
                        bump(&seen.run_straddles);
                    }
                }
            }
        })
        .unwrap();
}

/// Whether rows `at - 1` and `at` of `block` share host and category.
fn straddles(block: &Block, at: usize) -> bool {
    block.hosts()[at - 1] == block.hosts()[at]
        && block.categories()[at - 1] == block.categories()[at]
}

/// [`Run::count_categories`] must equal a per-row count of the
/// selected rows' categories.
fn check_category_counts(run: &Run<'_>, rows: &[usize]) {
    let mut got = HashMap::new();
    run.count_categories(|category, n| *got.entry(category).or_insert(0) += n);
    let mut want = HashMap::new();
    for &i in rows {
        *want.entry(run.block().categories()[i]).or_insert(0) += 1;
    }
    assert_eq!(got, want, "count_categories");
}

fn check_store(
    g: &mut Gen,
    store: &SegmentStore,
    fx: &Fixture,
    registry: &CategoryRegistry,
    seen: &Seen,
) {
    let (rec, metrics) = (rec(), StoreMetrics::disabled());
    for _ in 0..12 {
        let filter = random_filter(g, fx);
        tally_words(store, &filter, registry, seen);
        let mut want: Vec<StoredAlert> = fx
            .records
            .iter()
            .filter(|r| filter.matches(r, registry))
            .copied()
            .collect();
        want.sort_by_key(|r| (r.time, r.seq));

        for prune in [true, false] {
            for limit in [1, 2, 100, 10_000] {
                let mut top = TopK::new(limit);
                let stats = store
                    .scan_runs(&filter, prune, &rec, &metrics, |run| {
                        let rows: Vec<usize> = run.rows().collect();
                        assert_eq!(rows.len() as u64, run.count(), "filter {filter:?}");
                        let keys: Vec<_> = rows
                            .iter()
                            .map(|&i| (run.block().times()[i], run.block().seqs()[i]))
                            .collect();
                        assert!(
                            keys.windows(2).all(|w| w[0] < w[1]),
                            "run out of (time, seq) order: filter {filter:?}"
                        );
                        if run.block().len() > RUN_ROWS {
                            bump(&seen.multi_run_blocks);
                        }
                        check_category_counts(run, &rows);
                        top.offer_run(run);
                    })
                    .unwrap();
                assert_eq!(top.total(), want.len() as u64, "filter {filter:?}");
                let first: Vec<StoredAlert> = want.iter().take(limit).copied().collect();
                assert_eq!(top.into_sorted(), first, "filter {filter:?} limit {limit}");
                assert!(stats.zones_covered <= stats.zones_scanned);
                if prune && stats.zones_covered > 0 {
                    if filter.hosts.as_ref().is_some_and(|h| h.len() < fx.hosts) {
                        bump(&seen.covered_with_hosts);
                    }
                    if filter.categories.is_some() {
                        bump(&seen.covered_with_categories);
                    }
                    if stats.zones_covered < stats.zones_scanned {
                        bump(&seen.partly_covered);
                    }
                }
            }

            let mut visited = Vec::new();
            store
                .scan_with(&filter, prune, &rec, &metrics, |r| visited.push(*r))
                .unwrap();
            visited.sort_by_key(|r| (r.time, r.seq));
            assert_eq!(visited, want, "filter {filter:?}");
            let (sorted, _) = store.scan(&filter, prune, &rec, &metrics).unwrap();
            assert_eq!(sorted, want, "filter {filter:?}");
        }
    }
}

#[test]
fn column_scan_matches_the_row_oracle() {
    let case = Cell::new(0u64);
    let seen = Seen::default();
    check_n("column_scan_equiv", 40, |g| {
        case.set(case.get() + 1);
        let root = std::env::temp_dir().join(format!(
            "sclog-store-column-{}-{}",
            std::process::id(),
            case.get()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let fx = build_store(g, &root);
        // Sealed payloads keep admission order on disk; some must be
        // out of (time, seq) order for the decode-time sort to matter.
        if fx.interleaved {
            bump(&seen.unsorted_payloads);
        }
        if fx.long_tail {
            bump(&seen.long_tails);
        }
        for cache_payloads in [true, false] {
            let store = SegmentStore::open(
                &root,
                StoreConfig {
                    cache_payloads,
                    ..StoreConfig::default()
                },
            )
            .unwrap();
            let registry = store.catalog().categories.clone();
            assert_eq!(store.record_count(), fx.records.len() as u64);
            // With the cache on, the first pass fills it and the second
            // reads it.
            let passes = if cache_payloads { 2 } else { 1 };
            for _ in 0..passes {
                check_store(g, &store, &fx, &registry, &seen);
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    });
    for (what, count) in [
        (
            "a zone covered under a host subset",
            &seen.covered_with_hosts,
        ),
        (
            "a zone covered under a category set",
            &seen.covered_with_categories,
        ),
        (
            "a scan with covered and uncovered zones",
            &seen.partly_covered,
        ),
        (
            "a sealed payload out of time order",
            &seen.unsorted_payloads,
        ),
        ("a segment longer than one run", &seen.multi_run_blocks),
        ("a long unsealed tail", &seen.long_tails),
        (
            "a one-host word inside the host set",
            &seen.host_words.inside,
        ),
        (
            "a one-host word outside the host set",
            &seen.host_words.outside,
        ),
        ("a mixed-host word", &seen.host_words.mixed),
        (
            "a one-category word the filter admits",
            &seen.category_words.inside,
        ),
        (
            "a one-category word the filter refuses",
            &seen.category_words.outside,
        ),
        ("a mixed-category word", &seen.category_words.mixed),
        ("a burst across a word boundary", &seen.word_straddles),
        ("a burst across a run boundary", &seen.run_straddles),
    ] {
        assert!(count.get() > 0, "the fixture never produced {what}");
    }
}
