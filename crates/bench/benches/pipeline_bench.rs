//! Wall-clock benchmarks for the ingestion pipeline, batch vs
//! streaming, on generated Liberty text.
//!
//! Arms:
//!
//! * `parse` / `parse_reader` — materialized vs chunked-incremental
//!   line parsing; `parse_header` — the header-only parse (time and
//!   source, no `Message`) the streaming path runs, paired with
//!   `parse`.
//! * `ingest_batch` — three serial materialized passes fed from text:
//!   parse everything, render-and-tag everything, filter everything.
//! * `ingest_stream` — the streaming pipeline: chunked read → parse →
//!   raw-line tagging on a worker pool → in-order filtering, bounded
//!   batches throughout.
//! * `study_stream` — `Study` end to end (generation included) through
//!   the streaming pipeline.
//!
//! Besides the per-arm timing records, two `meta` JSON records report
//! the ingest batch-vs-streaming speedup and the peak-in-flight memory
//! proxy (messages resident mid-pipeline vs the materialized whole
//! log).
//!
//! Emits one JSON record per benchmark on stdout; human-readable
//! summaries go to stderr.

use sclog_bench::BenchGroup;
use sclog_core::pipeline::{self, IngestConfig};
use sclog_core::{ObsConfig, Study};
use sclog_filter::SpatioTemporalFilter;
use sclog_parse::LogReader;
use sclog_rules::RuleSet;
use sclog_simgen::{generate, Scale};
use sclog_types::json::JsonObject;
use sclog_types::{CategoryRegistry, SystemId};

fn main() {
    let scale = Scale::new(0.05, 0.0002);
    let log = generate(SystemId::Liberty, scale, 2);
    let text = log.render();
    let lines = text.lines().count() as u64;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));

    let mut group = BenchGroup::new("pipeline_liberty");
    group.sample_size(20).throughput_elements(lines);
    // Full-message parse (the batch path) against the header-only
    // parse the streaming path runs, interleaved.
    group.bench_pair(
        "parse",
        || {
            let mut reader = LogReader::for_system(SystemId::Liberty);
            reader.push_text(&text);
            reader.stats().parsed
        },
        "parse_header",
        || {
            let mut reader = LogReader::for_system(SystemId::Liberty);
            for line in sclog_parse::logical_lines(&text) {
                reader.push_header(line);
            }
            reader.stats().parsed
        },
    );
    group.bench("parse_reader", || {
        let mut reader = LogReader::for_system(SystemId::Liberty);
        reader.push_reader(text.as_bytes()).unwrap();
        reader.stats().parsed
    });

    let mut registry = CategoryRegistry::new();
    let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
    let filter = SpatioTemporalFilter::paper();
    let config = IngestConfig::with_threads(threads);

    // Batch-vs-stream pairs interleave their samples so both arms see
    // the same frequency and allocator drift.
    let (batch_ns, stream_ns) = group.bench_pair(
        "ingest_batch",
        || {
            pipeline::ingest_batch(SystemId::Liberty, &text, &rules, &filter)
                .tagged
                .len()
        },
        "ingest_stream",
        || {
            pipeline::ingest_stream(SystemId::Liberty, text.as_bytes(), &rules, &filter, config)
                .unwrap()
                .tagged
                .len()
        },
    );

    let study = Study::with_scale(scale, 2).threads(threads);
    let study_stream_ns = group.bench("study_stream", || {
        study.run_system(SystemId::Liberty).raw_alerts()
    });

    // Memory proxy: one instrumented run of each streaming path.
    let ingest_run =
        pipeline::ingest_stream(SystemId::Liberty, text.as_bytes(), &rules, &filter, config)
            .unwrap();
    let study_run = study.run_system(SystemId::Liberty);
    let whole_log = study_run.messages() as u64;

    let speedup = batch_ns as f64 / stream_ns as f64;
    let mut rec = JsonObject::new();
    rec.str("name", "pipeline_liberty/meta_ingest")
        .uint("threads", threads as u64)
        .uint("batch_median_ns", batch_ns as u64)
        .uint("stream_median_ns", stream_ns as u64)
        .num("speedup_stream_vs_batch", speedup)
        .uint(
            "stream_peak_in_flight_messages",
            ingest_run.stats.peak_in_flight_messages as u64,
        )
        .uint(
            "stream_peak_in_flight_batches",
            ingest_run.stats.peak_in_flight_batches as u64,
        )
        .uint(
            "stream_in_flight_bound_batches",
            ingest_run.stats.in_flight_bound_batches as u64,
        )
        .uint("batch_peak_in_flight_messages", whole_log);
    println!("{}", rec.finish());
    eprintln!(
        "ingest: stream {speedup:.2}x batch; peak in-flight {} msgs \
         ({}/{} batches) vs whole log {whole_log}",
        ingest_run.stats.peak_in_flight_messages,
        ingest_run.stats.peak_in_flight_batches,
        ingest_run.stats.in_flight_bound_batches,
    );

    let stats = study_run.stats;
    let mut rec = JsonObject::new();
    rec.str("name", "pipeline_liberty/meta_study")
        .uint("threads", stats.threads as u64)
        .uint("stream_median_ns", study_stream_ns as u64)
        .uint(
            "stream_peak_in_flight_messages",
            stats.peak_in_flight_messages as u64,
        )
        .uint(
            "stream_in_flight_bound_messages",
            stats.in_flight_bound_messages.unwrap_or(0) as u64,
        );
    println!("{}", rec.finish());
    eprintln!(
        "study:  peak in-flight {} msgs (bound {}) vs whole log {whole_log}",
        stats.peak_in_flight_messages,
        stats.in_flight_bound_messages.unwrap_or(0),
    );
    assert!(
        stats.peak_in_flight_messages <= stats.in_flight_bound_messages.unwrap_or(usize::MAX),
        "study pipeline exceeded its configured in-flight bound"
    );

    // One observed run: the full `sclog.obs.v1` snapshot rides along in
    // the bench file so a timing regression can be read against the
    // stage waterfall that produced it (see scripts/bench.sh for the
    // record's keys).
    let obs_run = study.obs(ObsConfig::on()).run_system(SystemId::Liberty);
    let report = obs_run.obs.expect("obs was enabled");
    let tag_busy_ms = report.stage("tag").map_or(0.0, |s| s.busy_ns as f64 / 1e6);
    let mut rec = JsonObject::new();
    rec.str("record", "obs")
        .str("name", "pipeline_liberty/study_stream_obs")
        .uint("threads", stats.threads as u64)
        .num("coverage", report.coverage)
        .raw("report", &report.to_json());
    println!("{}", rec.finish());
    eprintln!(
        "obs:    {:.1}% of thread time attributed; tag busy {tag_busy_ms:.1} ms \
         over {} workers",
        report.coverage * 100.0,
        report.workers.len(),
    );
}
