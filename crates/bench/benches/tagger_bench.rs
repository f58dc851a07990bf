//! Wall-clock benchmark for the prefiltered tagging engine.
//!
//! The tagging loop is the hot path of the reproduction: Section 3.2's
//! expert rules must run over every one of the paper's 178 million
//! lines. This bench times the Aho-Corasick-prescanned engine serially
//! and on a 4-worker `TagPool` (through the streaming pipeline's
//! entry, `tag_filter_stream`), and the brute-force all-rules path
//! serially, on two workload shapes:
//!
//! * **Spirit** — mostly background ("mostly-untagged"), where the
//!   prescan rejects almost every line without running a single regex;
//! * **Liberty** — a heavier alert mix, where more lines survive the
//!   prescan and the candidate loop does real work.
//!
//! Emits one JSON record per benchmark on stdout (captured in
//! `BENCH_tagger.json` at the repo root); human-readable summaries go
//! to stderr.

use sclog_bench::{BenchGroup, HARNESS_SEED};
use sclog_core::pipeline::tag_filter_stream;
use sclog_filter::SpatioTemporalFilter;
use sclog_obs::Recorder;
use sclog_rules::{RuleSet, TagScratch};
use sclog_simgen::{generate, Scale};
use sclog_types::json::JsonObject;
use sclog_types::{CategoryRegistry, SystemId};

/// Workers for the parallel arm.
const THREADS: usize = 4;

/// One counted serial pass over the log, reported as a
/// `{"record":"tiers",...}` line: where the engine's work actually
/// went — prefilter-gated lines, lazy-DFA resolutions, and Pike-VM
/// fallbacks — so a timing shift in `BENCH_tagger.json` can be traced
/// to the tier whose share moved.
fn emit_tier_record(system: SystemId, rules: &RuleSet, log: &sclog_simgen::GenLog) {
    let mut scratch = TagScratch::new();
    for msg in &log.messages {
        let _ = rules.tag_message_with(msg, &log.interner, &mut scratch);
    }
    let counts = scratch.take_counts();
    assert_eq!(
        counts.vm_eligible,
        counts.dfa_execs + counts.dfa_bailouts,
        "{system}: tier accounting leaked"
    );
    let mut rec = JsonObject::new();
    rec.str("record", "tiers")
        .str("system", &format!("{system:?}").to_lowercase())
        .uint("lines", counts.lines)
        .uint("prefilter_gated", counts.gated_out)
        .uint("rule_checks", counts.vm_execs)
        .uint("vm_eligible", counts.vm_eligible)
        .uint("dfa_resolved", counts.dfa_execs)
        .uint("vm_fallback", counts.dfa_bailouts)
        .uint("dfa_cache_evictions", counts.dfa_evictions)
        .uint("matches", counts.matches);
    println!("{}", rec.finish());
    eprintln!(
        "{system}: tiers — {} lines, {} gated, {} rule checks, {} dfa-resolved, {} vm-fallback",
        counts.lines, counts.gated_out, counts.vm_execs, counts.dfa_execs, counts.dfa_bailouts
    );
}

/// Reports the measured serial-vs-parallel ratio as a
/// `{"record":"parallel_speedup",...}` line — only on hosts with more
/// than one CPU, where the ratio measures parallelism rather than
/// scheduling overhead.
fn emit_speedup_record(system: SystemId, serial_ns: u128, parallel_ns: u128) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 || parallel_ns == 0 {
        return;
    }
    let mut rec = JsonObject::new();
    rec.str("record", "parallel_speedup")
        .str("system", &format!("{system:?}").to_lowercase())
        .uint("host_cpus", cpus as u64)
        .uint("threads", THREADS as u64)
        .uint("serial_median_ns", serial_ns as u64)
        .uint("parallel_median_ns", parallel_ns as u64)
        .num("speedup", serial_ns as f64 / parallel_ns as f64);
    println!("{}", rec.finish());
}

fn bench_system(system: SystemId, scale: Scale) {
    let log = generate(system, scale, HARNESS_SEED);
    let mut registry = CategoryRegistry::new();
    let rules = RuleSet::builtin(system, &mut registry);

    // The two paths must agree before their speeds mean anything.
    let pre = rules.tag_messages(&log.messages, &log.interner);
    let brute = rules.tag_messages_unfiltered(&log.messages, &log.interner);
    assert_eq!(
        pre.alerts, brute.alerts,
        "{system}: prefiltered and brute-force tagging disagree"
    );
    eprintln!(
        "{system}: {} messages, {} tagged",
        log.len(),
        pre.alerts.len()
    );
    emit_tier_record(system, &rules, &log);

    let name = format!("tagger_{}", format!("{system:?}").to_lowercase());
    let mut group = BenchGroup::new(&name);
    group.sample_size(10).throughput_elements(log.len() as u64);

    // The parallel arm tags on the pipeline's pool with no ground
    // truth; its in-order filter runs on the consumer thread. Four
    // batches per worker, so one mostly-background batch does not
    // leave its worker idle at the tail.
    let filter = SpatioTemporalFilter::paper();
    let chunk = log.messages.len().div_ceil(THREADS * 4);
    let pooled = || {
        tag_filter_stream(
            &rules,
            &log.messages,
            &log.interner,
            None,
            &filter,
            THREADS,
            chunk,
            &Recorder::disabled(),
        )
        .0
    };
    assert_eq!(
        pooled().alerts,
        pre.alerts,
        "{system}: pooled and serial tagging disagree"
    );

    // The serial/parallel comparison interleaves its samples so the
    // pair is measured under the same drift (frequency scaling,
    // allocator state) rather than one arm after the other.
    let (serial, parallel) = group.bench_pair(
        "serial_prefiltered",
        || rules.tag_messages(&log.messages, &log.interner),
        "parallel4_prefiltered",
        pooled,
    );
    emit_speedup_record(system, serial, parallel);
    group.bench("serial_brute", || {
        rules.tag_messages_unfiltered(&log.messages, &log.interner)
    });
}

fn main() {
    // Spirit: tiny alert scale over a large background volume — the
    // shape where almost no line matches any rule.
    bench_system(SystemId::Spirit, Scale::new(0.00002, 0.0005));
    // Liberty: alert-heavier mix (Liberty has only 2,452 paper
    // alerts, so the alert scale must be much larger to tag anything).
    bench_system(SystemId::Liberty, Scale::new(0.05, 0.0003));
}
