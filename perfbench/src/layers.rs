//! The traced run: per-layer busy time and exact counts.
//!
//! Each layer's public entry point is called by itself, from outside,
//! on the workload's own inputs, and timed as its own host-adjusted
//! block. Counts (lines, rule executions, rows decoded, segments) are
//! exact and repeat for the same seed. Nothing inside the program is
//! instrumented: the end-to-end run stays untraced, and
//! `trace.overhead_s` reports how much longer the write path measured
//! here, layer by layer, than the same work measured as one block.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use sclog_core::{IngestConfig, ObsConfig};
use sclog_filter::SpatioTemporalFilter;
use sclog_obs::Recorder;
use sclog_parse::LogReader;
use sclog_rules::{RuleSet, TagScratch};
use sclog_types::{CategoryRegistry, Severity};
use sclogd::aggregate::AggregateCache;
use sclogd::format::{render_alerts, scan_filter};
use sclogd::http::Request as HttpRequest;
use sclogd::query::Query;
use sclogd::store::AlertStore;

use crate::daemon::{boot, dir_bytes, get, ingest_one, Daemon, ScratchDir, INGEST_THREADS};
use crate::inputs::{
    history, narrow_query, pass_order, slice_picks, spirit_slices, stratified_anchors, Anchors,
    Rng, Shape, SystemLog, BASE_SCALE, BASE_SEED, PASS_SCALE, PASS_SEED, SCAN_QUERY, WIDE_QUERY,
};
use crate::probe::{Probe, Series};
use crate::run::Tally;
use crate::{Metric, Outcome, Workload};

/// Churn slices appended in the traced run.
const TRACE_SLICES: usize = 16;
/// Sample queries per `/alerts` shape.
const NARROW_QUERIES: usize = 48;
const WIDE_QUERIES: usize = 12;
const SCAN_QUERIES: usize = 12;
/// Stale-then-hit `/categories` rounds on fresh caches.
const AGGREGATE_ROUNDS: usize = 8;
/// `Query::parse` repetitions per timed sample (one parse is ~1 µs).
const PARSE_REPS: usize = 200;

/// What each per-layer metric should move, where, and where it should
/// stay flat: `(prefix, moves, on, flat on)`.
const LABELS: &[(&str, &str, &str, &str)] = &[
    ("parse.", "ingest_lines_per_s setup_s", "ingest", "serve"),
    (
        "rules.",
        "ingest_lines_per_s append_p50_ms",
        "ingest churn",
        "serve",
    ),
    ("filter.", "ingest_lines_per_s", "ingest", "serve"),
    ("pipeline.", "ingest_lines_per_s setup_s", "ingest", "serve"),
    (
        "store.append_busy_s store.finalize_busy_s store.bytes_written store.segments",
        "ingest_lines_per_s bytes_per_alert append_p50_ms",
        "ingest churn",
        "serve",
    ),
    (
        "store.scan_ms. store.rows_decoded_per_hit. store.zones_pruned_ratio.",
        "wide_p50_ms scan_p50_ms query_p99_ms peak_heap_mb refresh_p50_ms",
        "serve churn",
        "ingest",
    ),
    ("format.", "narrow_p50_ms wide_p50_ms", "serve", "ingest"),
    ("aggregate.", "refresh_p50_ms", "churn", "serve"),
    ("query.", "narrow_p50_ms", "serve", "ingest"),
    ("server.", "narrow_p50_ms query_per_s", "serve", "ingest"),
    ("trace.", "(tracing cost; no end-to-end metric)", "-", "-"),
];

fn label_of(name: &str) -> (&'static str, &'static str, &'static str) {
    LABELS
        .iter()
        .find(|(prefixes, ..)| prefixes.split(' ').any(|p| name.starts_with(p)))
        .map(|&(_, moves, on, flat)| (moves, on, flat))
        .expect("every per-layer metric has a label")
}

/// Times `f` as one block and files its seconds in `series`.
fn block<T>(probe: &mut Probe, series: &mut Series, f: impl FnOnce() -> T) -> T {
    let (out, t) = probe.time(f);
    series.file(t);
    out
}

#[derive(Default)]
struct WriteLayers {
    parse: Series,
    rules: Series,
    filter: Series,
    pipe1: Series,
    pipe2: Series,
    append: Series,
    finalize: Series,
    lines: u64,
    rejected: u64,
    counts: sclog_rules::TagCounts,
    pushed: u64,
    kept: u64,
    bytes_written: u64,
    segments: u64,
}

/// Runs every write-side layer by itself over `units`, appending into
/// a fresh store under `dir`, then finalizes it.
fn write_layers(
    units: &[&SystemLog],
    dir: ScratchDir,
    probe: &mut Probe,
    tally: &mut Tally,
) -> io::Result<WriteLayers> {
    let mut w = WriteLayers::default();
    let store = AlertStore::open(&dir.0)?;
    let recorder = Recorder::new();
    store.register_metrics(&recorder);
    let rec = recorder.thread("trace");
    for &unit in units {
        tally.attempted += 1;
        let stats = block(probe, &mut w.parse, || {
            let mut reader = LogReader::for_system(unit.system);
            reader.push_text(&unit.text);
            *reader.stats()
        });
        w.lines += stats.total();
        w.rejected += stats.rejected();

        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(unit.system, &mut registry);
        let mut scratch = TagScratch::new();
        block(probe, &mut w.rules, || {
            for line in sclog_parse::logical_lines(&unit.text) {
                black_box(rules.tag_line_with(line, &mut scratch));
            }
        });
        w.counts.merge(scratch.counts());

        let filter = SpatioTemporalFilter::paper();
        let run = |threads| {
            let config = IngestConfig {
                threads,
                obs: ObsConfig::on(),
                ..IngestConfig::default()
            };
            sclog_core::pipeline::ingest_stream(
                unit.system,
                unit.text.as_bytes(),
                &rules,
                &filter,
                config,
            )
        };
        let one = block(probe, &mut w.pipe1, || run(1))?;
        let result = block(probe, &mut w.pipe2, || run(INGEST_THREADS))?;
        tally.check(one.tagged.alerts == result.tagged.alerts, || {
            format!("{}: 1-thread and 2-thread ingest disagree", unit.system)
        });

        let kept = block(probe, &mut w.filter, || {
            let mut stream = filter.stream();
            result
                .tagged
                .alerts
                .iter()
                .filter(|a| stream.push(a))
                .count()
        });
        tally.check(kept == result.filtered.len(), || {
            format!(
                "{}: filter kept {kept}, ingest kept {}",
                unit.system,
                result.filtered.len()
            )
        });
        w.pushed += result.tagged.alerts.len() as u64;
        w.kept += kept as u64;

        let severities: &[Severity] = if result.parse.parsed as usize == unit.severities.len() {
            &unit.severities
        } else {
            &[]
        };
        block(probe, &mut w.append, || {
            store.ingest_with(unit.system, &result, &registry, severities, &rec)
        })?;
    }
    block(probe, &mut w.finalize, || store.finalize(&rec))?;
    w.bytes_written = dir_bytes(&dir.0)?;
    w.segments = store.read().segs.segment_count() as u64;
    Ok(w)
}

#[derive(Default)]
struct ShapeLayers {
    scan: Series,
    render: Series,
    handle: Series,
    socket: Series,
    rows: u64,
    hits: u64,
    zones_pruned: u64,
    zones_total: u64,
}

/// Sample `/alerts` query strings of one shape, seeded.
fn shape_queries(shape: Shape, n: usize, seed: u64, anchors: &Anchors) -> Vec<String> {
    match shape {
        Shape::Narrow => stratified_anchors(&mut Rng::new(seed, 0x7ACE), anchors, n)
            .into_iter()
            .map(narrow_query)
            .collect(),
        Shape::Wide => vec![WIDE_QUERY.to_owned(); n],
        _ => vec![SCAN_QUERY.to_owned(); n],
    }
}

/// Runs the read-side layers by themselves for each sample query.
fn read_layers(
    d: &Daemon,
    queries: &[String],
    probe: &mut Probe,
    parse: &mut Series,
    tally: &mut Tally,
) -> ShapeLayers {
    let mut s = ShapeLayers::default();
    for qs in queries {
        let t = Instant::now();
        for _ in 0..PARSE_REPS {
            black_box(Query::parse(black_box(qs)).is_ok());
        }
        parse.push(t.elapsed().as_secs_f64() / PARSE_REPS as f64);
        let q = Query::parse(qs).expect("sample queries parse");
        let (hits, render_total, scan_secs) = {
            let inner = d.state.store.read();
            let t = Instant::now();
            let scanned = inner.scan(&scan_filter(&inner, &q), &d.rec);
            let scan_secs = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let rendered = render_alerts(&inner, &q, &d.rec);
            let render_total = t.elapsed().as_secs_f64();
            match (scanned, rendered) {
                (Ok((hits, stats)), Ok(_)) => {
                    s.rows += stats.rows_decoded;
                    s.zones_pruned += stats.zones_pruned;
                    s.zones_total += stats.zones_pruned + stats.zones_scanned;
                    (hits.len() as u64, render_total, scan_secs)
                }
                _ => {
                    tally
                        .problems
                        .push(format!("in-process scan of {qs} failed"));
                    (0, render_total, scan_secs)
                }
            }
        };
        s.hits += hits;
        s.scan.push(scan_secs);
        s.render.push(render_total - scan_secs);
        let req = HttpRequest {
            method: "GET".to_owned(),
            path: "/alerts".to_owned(),
            query: qs.clone(),
        };
        let t = Instant::now();
        let resp = sclogd::server::handle(&d.state, &d.rec, &req);
        s.handle.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let reply = get(d.addr(), &format!("/alerts?{qs}"));
        s.socket.push(t.elapsed().as_secs_f64());
        for ok in [
            resp.status == 200,
            matches!(&reply, Ok(r) if r.status == 200),
        ] {
            tally.attempted += 1;
            tally.failed += u64::from(!ok);
        }
        let f = probe.end_block();
        for series in [
            &mut s.scan,
            &mut s.render,
            &mut s.handle,
            &mut s.socket,
            &mut *parse,
        ] {
            series.close(f);
        }
    }
    s
}

fn ms_median(s: &Series) -> (f64, f64) {
    let (raw, adj) = s.quantile(0.5);
    (raw * 1e3, adj * 1e3)
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The traced run of workload `w`.
pub fn traced(w: Workload, seed: u64, root: &Path, probe: &mut Probe) -> io::Result<Outcome> {
    let mut tally = Tally::default();
    eprintln!("perfbench: generating inputs");
    let base = history(BASE_SCALE, BASE_SEED);
    eprintln!("perfbench: boot");
    let (d, boot_steps) = boot(ScratchDir::new(root, "boot")?, &base, probe)?;
    let anchors = crate::anchors(&d);

    // The workload's write input, and the same work measured untraced
    // (one block per ingest run) — for serve, the boot's own ingest;
    // otherwise applied to the daemon, as the workload does.
    let pass;
    let slices;
    let (units, finalize): (Vec<&SystemLog>, bool) = match w {
        Workload::Serve => (base.iter().collect(), true),
        Workload::Ingest => {
            pass = history(PASS_SCALE, PASS_SEED);
            (
                pass_order(seed, 0).into_iter().map(|i| &pass[i]).collect(),
                true,
            )
        }
        Workload::Churn => {
            slices = spirit_slices();
            let picks = slice_picks(seed, TRACE_SLICES, slices.len());
            (picks.into_iter().map(|i| &slices[i]).collect(), false)
        }
    };
    let mut untraced = (0.0, 0.0);
    let mut add = |(raw, adj): (f64, f64)| {
        untraced.0 += raw;
        untraced.1 += adj;
    };
    if w == Workload::Serve {
        boot_steps[1..boot_steps.len() - 1]
            .iter()
            .copied()
            .for_each(&mut add);
    } else {
        eprintln!("perfbench: untraced write");
        for &unit in &units {
            let (one, t) = probe.time(|| ingest_one(&d.state.store, unit, &d.rec));
            one?;
            add(t);
        }
        if finalize {
            let (done, t) = probe.time(|| d.state.store.finalize(&d.rec));
            done?;
            add(t);
        }
    }
    eprintln!("perfbench: write layers");
    let wl = write_layers(&units, ScratchDir::new(root, "layers")?, probe, &mut tally)?;

    eprintln!("perfbench: read layers");
    let mut parse = Series::default();
    let mut shapes = Vec::new();
    for (shape, n) in [
        (Shape::Narrow, NARROW_QUERIES),
        (Shape::Wide, WIDE_QUERIES),
        (Shape::Scan, SCAN_QUERIES),
    ] {
        let queries = shape_queries(shape, n, seed, &anchors);
        shapes.push((
            shape,
            read_layers(&d, &queries, probe, &mut parse, &mut tally),
        ));
    }
    let mut recompute = Series::default();
    let mut hit = Series::default();
    for _ in 0..AGGREGATE_ROUNDS {
        let cache = AggregateCache::new();
        let t = Instant::now();
        let stale = cache.categories(&d.state.store, &d.rec);
        recompute.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let fresh = cache.categories(&d.state.store, &d.rec);
        hit.push(t.elapsed().as_secs_f64());
        let f = probe.end_block();
        recompute.close(f);
        hit.close(f);
        tally.check(
            matches!((&stale, &fresh), (Ok((a, Some(_))), Ok((b, None))) if a == b),
            || {
                "AggregateCache: stale call must scan, the next must hit with the same body"
                    .to_owned()
            },
        );
    }
    d.stop();

    let (p1, p2) = (wl.pipe1.sum(), wl.pipe2.sum());
    let layered_raw = wl.parse.sum().0 + wl.rules.sum().0 + wl.filter.sum().0;
    let layered = wl.parse.sum().1 + wl.rules.sum().1 + wl.filter.sum().1;
    // Churn never finalizes, so its untraced write has no finalize to
    // compare against.
    let fin = if finalize {
        wl.finalize.sum()
    } else {
        (0.0, 0.0)
    };
    let traced_write = (
        p2.0 + wl.append.sum().0 + fin.0,
        p2.1 + wl.append.sum().1 + fin.1,
    );
    let mut metrics = vec![
        Metric::timed("parse.busy_s", "s", wl.parse.sum()),
        Metric::exact("parse.lines", "count", wl.lines as f64),
        Metric::exact("parse.rejected", "count", wl.rejected as f64),
        Metric::timed("rules.busy_s", "s", wl.rules.sum()),
        Metric::exact(
            "rules.gated_ratio",
            "ratio",
            ratio(wl.counts.gated_out, wl.counts.lines),
        ),
        Metric::exact("rules.vm_execs", "count", wl.counts.vm_execs as f64),
        Metric::exact("rules.dfa_execs", "count", wl.counts.dfa_execs as f64),
        Metric::exact("rules.dfa_bailouts", "count", wl.counts.dfa_bailouts as f64),
        Metric::timed("filter.busy_s", "s", wl.filter.sum()),
        Metric::exact("filter.kept_ratio", "ratio", ratio(wl.kept, wl.pushed)),
        Metric::timed("pipeline.busy_s", "s", p2),
        Metric::timed("pipeline.speedup_2t", "x", (p1.0 / p2.0, p1.1 / p2.1)),
        Metric::timed(
            "pipeline.overlap",
            "x",
            (layered_raw / p2.0, layered / p2.1),
        ),
        Metric::timed("store.append_busy_s", "s", wl.append.sum()),
        Metric::timed("store.finalize_busy_s", "s", wl.finalize.sum()),
        Metric::exact("store.bytes_written", "B", wl.bytes_written as f64),
        Metric::exact("store.segments", "count", wl.segments as f64),
    ];
    for (shape, s) in &shapes {
        let n = shape.name();
        metrics.push(Metric::timed(
            format!("store.scan_ms.{n}"),
            "ms",
            ms_median(&s.scan),
        ));
        metrics.push(Metric::exact(
            format!("store.rows_decoded_per_hit.{n}"),
            "ratio",
            ratio(s.rows, s.hits),
        ));
        metrics.push(Metric::exact(
            format!("store.zones_pruned_ratio.{n}"),
            "ratio",
            ratio(s.zones_pruned, s.zones_total),
        ));
        tally.check(s.hits > 0, || format!("{n} sample queries matched nothing"));
    }
    for (shape, s) in &shapes {
        metrics.push(Metric::timed(
            format!("format.render_ms.{}", shape.name()),
            "ms",
            ms_median(&s.render),
        ));
    }
    metrics.push(Metric::timed(
        "aggregate.recompute_ms",
        "ms",
        ms_median(&recompute),
    ));
    metrics.push(Metric::timed("aggregate.hit_ms", "ms", ms_median(&hit)));
    let (raw, adj) = parse.quantile(0.5);
    metrics.push(Metric::timed(
        "query.parse_us",
        "us",
        (raw * 1e6, adj * 1e6),
    ));
    for (shape, s) in &shapes {
        metrics.push(Metric::timed(
            format!("server.handle_ms.{}", shape.name()),
            "ms",
            ms_median(&s.handle),
        ));
    }
    let narrow = &shapes[0].1;
    let (sock, hand) = (ms_median(&narrow.socket), ms_median(&narrow.handle));
    metrics.push(Metric::timed(
        "server.socket_overhead_ms",
        "ms",
        (sock.0 - hand.0, sock.1 - hand.1),
    ));
    metrics.push(Metric::timed(
        "trace.overhead_s",
        "s",
        (traced_write.0 - untraced.0, traced_write.1 - untraced.1),
    ));

    let labels: Vec<String> = metrics
        .iter()
        .map(|m| {
            let (moves, on, flat) = label_of(&m.name);
            format!(
                "\"{}\":{{\"moves\":\"{moves}\",\"on\":\"{on}\",\"flat_on\":\"{flat}\"}}",
                m.name
            )
        })
        .collect();
    Ok(Outcome {
        metrics,
        tally,
        extra: format!("\"labels\":{{{}}}", labels.join(",")),
    })
}
