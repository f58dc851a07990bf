//! Run report: a small Spirit-profile study with observability on.
//!
//! Emits the `sclog.obs.v1` JSON report on stdout and the human
//! waterfall on stderr, so `obs_report > report.json` captures the
//! machine-readable half while the terminal still shows the summary.
//!
//! With `--check`, additionally validates the report — JSON
//! well-formedness via `sclog_types::json::validate`, presence of the
//! keys the schema promises, span coverage of at least 95% of recorded
//! thread time, and every bounded gauge's peak within its bound — and
//! exits nonzero on any failure. The same mode validates the PR 10
//! trace layer: `sclog.trace.v1` serialization keys and the delta
//! invariant (the delta of identical snapshots is all-zero).
//! `scripts/verify.sh --obs-smoke` runs this mode.

use sclog_bench::HARNESS_SEED;
use sclog_core::{ObsConfig, Study};
use sclog_obs::{render, History, Recorder, TraceScope};
use sclog_types::json::validate;
use sclog_types::{ObsReport, QueryLogReport, QueryTrace, ScanStats, SystemId};
use std::process::ExitCode;

/// Counters the instrumented pipeline always registers; `--check`
/// fails if any is missing from the report.
const REQUIRED_COUNTERS: &[&str] = &[
    "tagger.lines",
    "tagger.bytes",
    "tagger.prefilter.gated_out",
    "tagger.prefilter.vm_execs",
    "tagger.prefilter.matches",
    "tagger.vm.eligible",
    "tagger.dfa.execs",
    "tagger.dfa.bailouts",
    "tagger.dfa.cache_evictions",
    "filter.alerts_in",
    "filter.alerts_kept",
    "simgen.messages",
    "simgen.failures",
];

/// Stages the study pipeline always runs.
const REQUIRED_STAGES: &[&str] = &["produce", "tag", "filter"];

/// Minimum fraction of recorded thread time the spans must attribute.
const MIN_COVERAGE: f64 = 0.95;

fn check(report: &ObsReport, json: &str) -> Result<(), String> {
    validate(json).map_err(|e| format!("report JSON does not parse: {e}"))?;
    if !json.contains("\"schema\":\"sclog.obs.v1\"") {
        return Err("schema tag sclog.obs.v1 missing".into());
    }
    for name in REQUIRED_COUNTERS {
        if report.counter(name).is_none() {
            return Err(format!("required counter {name} missing"));
        }
    }
    for name in REQUIRED_STAGES {
        if report.stage(name).is_none() {
            return Err(format!("required stage {name} missing"));
        }
    }
    if report.gauge("pipeline.in_flight_batches").is_none() {
        return Err("gauge pipeline.in_flight_batches missing".into());
    }
    for g in &report.gauges {
        if let Some(bound) = g.bound {
            if g.peak > bound {
                return Err(format!(
                    "gauge {} peak {} exceeds bound {bound}",
                    g.name, g.peak
                ));
            }
        }
        if g.current != 0 {
            return Err(format!(
                "gauge {} not drained: current {}",
                g.name, g.current
            ));
        }
    }
    if report.coverage < MIN_COVERAGE {
        return Err(format!(
            "span coverage {:.3} below required {MIN_COVERAGE}",
            report.coverage
        ));
    }
    if report.wall_ns == 0 || report.attributed_ns == 0 {
        return Err("report recorded no time".into());
    }
    check_dfa_accounting(report)?;
    Ok(())
}

/// The three-tier engine's books must balance: every VM-eligible regex
/// execution resolved in the lazy DFA or bailed out to the Pike VM.
fn check_dfa_accounting(report: &ObsReport) -> Result<(), String> {
    let get = |name: &str| {
        report
            .counter(name)
            .ok_or_else(|| format!("required counter {name} missing"))
    };
    let eligible = get("tagger.vm.eligible")?;
    let execs = get("tagger.dfa.execs")?;
    let bailouts = get("tagger.dfa.bailouts")?;
    if eligible != execs + bailouts {
        return Err(format!(
            "dfa accounting broken: eligible {eligible} != execs {execs} + bailouts {bailouts}"
        ));
    }
    Ok(())
}

/// The study pipeline never touches a `LineChunker`, so the chunker's
/// SWAR counter is validated on a small instrumented text-ingest run
/// (both serial and pooled arms). Nothing is printed on success —
/// stdout stays a single JSON report.
fn check_ingest_swar() -> Result<(), String> {
    let text = sclog_simgen::generate(
        SystemId::Spirit,
        sclog_simgen::Scale::new(0.02, 0.0005),
        HARNESS_SEED,
    )
    .render();
    let mut registry = sclog_types::CategoryRegistry::new();
    let rules = sclog_rules::RuleSet::builtin(SystemId::Spirit, &mut registry);
    let filter = sclog_filter::SpatioTemporalFilter::paper();
    for threads in [1, 2] {
        let config = sclog_core::IngestConfig {
            threads,
            chunk_bytes: 1024,
            text_queue: 2,
            obs: ObsConfig::on(),
        };
        let run = sclog_core::pipeline::ingest_stream(
            SystemId::Spirit,
            text.as_bytes(),
            &rules,
            &filter,
            config,
        )
        .map_err(|e| format!("ingest_stream failed: {e}"))?;
        let report = run.obs.ok_or("ingest run lost its obs report")?;
        let swar = report
            .counter("chunker.swar_blocks")
            .ok_or("required counter chunker.swar_blocks missing")?;
        if swar == 0 {
            return Err(format!(
                "chunker.swar_blocks is zero on a {}-line ingest (threads={threads})",
                report.counter("tagger.lines").unwrap_or(0)
            ));
        }
        check_dfa_accounting(&report).map_err(|e| format!("ingest (threads={threads}): {e}"))?;
    }
    Ok(())
}

/// Requires every zero-able field of a delta report to actually be
/// zero — the invariant `snap.delta(&snap) == 0` the trace layer
/// promises. Gauges are instantaneous readings, not rates, so they are
/// exempt by design.
fn require_zero_delta(delta: &ObsReport) -> Result<(), String> {
    if delta.wall_ns != 0 || delta.attributed_ns != 0 {
        return Err(format!(
            "self-delta recorded time: wall {} attributed {}",
            delta.wall_ns, delta.attributed_ns
        ));
    }
    for c in &delta.counters {
        if c.value != 0 {
            return Err(format!("self-delta counter {} is {}", c.name, c.value));
        }
    }
    for h in &delta.histograms {
        if h.count != 0 || h.sum != 0 || !h.buckets.is_empty() {
            return Err(format!("self-delta histogram {} not empty", h.name));
        }
    }
    for s in &delta.stages {
        if s.busy_ns != 0 || s.wait_ns != 0 || s.items != 0 || s.bytes != 0 {
            return Err(format!("self-delta stage {} not zero", s.name));
        }
    }
    Ok(())
}

/// The PR 10 trace layer: `TraceScope` deltas, the self-delta zero
/// invariant, and the `sclog.trace.v1` serialization of both report
/// shapes. Runs on a private recorder; nothing is printed on success.
fn check_trace() -> Result<(), String> {
    let rec = Recorder::new();
    let writes = rec.counter("trace_check.writes");
    let tr = rec.thread("trace-check");

    let scope = TraceScope::begin(&rec);
    tr.add(writes, 3);
    let delta = scope.finish();
    if delta.counter("trace_check.writes") != Some(3) {
        return Err(format!(
            "TraceScope delta saw {:?} writes, want 3",
            delta.counter("trace_check.writes")
        ));
    }

    let snap = rec.snapshot();
    require_zero_delta(&snap.delta(&snap))?;

    let mut history = History::new(4);
    history.record(rec.snapshot());
    tr.add(writes, 1);
    history.record(rec.snapshot());
    let timeline = history.timeline().to_json();
    validate(&timeline).map_err(|e| format!("timeline JSON does not parse: {e}"))?;
    for key in [
        "\"schema\":\"sclog.trace.v1\"",
        "\"samples\"",
        "\"at_ns\"",
        "\"delta\"",
    ] {
        if !timeline.contains(key) {
            return Err(format!("timeline report missing {key}"));
        }
    }

    let qlog = QueryLogReport {
        logged: 1,
        queries: vec![QueryTrace {
            trace_id: 7,
            endpoint: "/alerts".to_owned(),
            query: "limit=1".to_owned(),
            micros: 42,
            status: 200,
            scan: Some(ScanStats {
                rows_decoded: 5,
                ..ScanStats::default()
            }),
        }],
    };
    let qlog = qlog.to_json();
    validate(&qlog).map_err(|e| format!("query-log JSON does not parse: {e}"))?;
    for key in [
        "\"schema\":\"sclog.trace.v1\"",
        "\"logged\"",
        "\"queries\"",
        "\"trace_id\"",
        "\"endpoint\"",
        "\"query\"",
        "\"micros\"",
        "\"status\"",
        "\"scan\"",
        "\"words_summarised\"",
        "\"rows_decoded\":5",
    ] {
        if !qlog.contains(key) {
            return Err(format!("query-log report missing {key}"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let checking = std::env::args().any(|a| a == "--check");
    let run = Study::new(0.02, 0.0005, HARNESS_SEED)
        .threads(2)
        .chunk_size(512)
        .obs(ObsConfig::on())
        .run_system(SystemId::Spirit);
    let report = run.obs.expect("obs was enabled");
    let json = report.to_json();
    println!("{json}");
    eprintln!("{}", render(&report));
    if checking {
        if let Err(why) = check(&report, &json)
            .and_then(|()| check_ingest_swar())
            .and_then(|()| check_trace())
        {
            eprintln!("obs-smoke FAILED: {why}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "obs-smoke OK: {} stages, {} counters, coverage {:.1}%",
            report.stages.len(),
            report.counters.len(),
            report.coverage * 100.0
        );
    }
    ExitCode::SUCCESS
}
