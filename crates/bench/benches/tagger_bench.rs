//! Wall-clock benchmark for the prefiltered tagging engine.
//!
//! The tagging loop is the hot path of the reproduction: Section 3.2's
//! expert rules must run over every one of the paper's 178 million
//! lines. This bench times the Aho-Corasick-prescanned engine serially
//! and on a 4-worker `TagPool` (through the streaming pipeline's
//! entry, `tag_filter_stream`), and the brute-force all-rules path
//! serially, on two mostly-background workload shapes:
//!
//! * **Spirit** — a tiny alert scale over a large background volume,
//!   where the prescan rejects ~94% of lines without running a regex;
//! * **Liberty** — a background-only shape: Liberty's 2,452 paper
//!   alerts tag 126 of ~80 k lines, so the prescan gates almost all.
//!
//! The third group, **Spirit live**, is the alert-heavy case the
//! daemon's live ingest runs: Spirit raw lines at the end-to-end
//! benchmark's pass scale (~93% alerts, most of them surviving the
//! prescan) through `tag_line_with`, the streaming pipeline's call.
//! Its `prescan` arm runs only the literal prescan (the public
//! `AhoCorasick` over the catalog's required factors) on the same
//! lines, and a `{"record":"prescan_split",...}` line reports both in
//! ns/byte, splitting the live cost into prescan and confirmation.
//!
//! Emits one JSON record per benchmark on stdout (captured in
//! `BENCH_tagger.json` at the repo root); human-readable summaries go
//! to stderr.

use sclog_bench::{BenchGroup, HARNESS_SEED};
use sclog_core::pipeline::tag_filter_stream;
use sclog_filter::SpatioTemporalFilter;
use sclog_obs::Recorder;
use sclog_rules::{catalog, AhoCorasick, Predicate, RuleSet, TagCounts, TagScratch};
use sclog_simgen::{generate, Scale};
use sclog_types::json::JsonObject;
use sclog_types::{CategoryRegistry, SystemId};

/// Workers for the parallel arm.
const THREADS: usize = 4;

/// One counted serial pass, reported as a `{"record":"tiers",...}`
/// line: where the engine's work actually went — prefilter-gated
/// lines, lazy-DFA resolutions, and Pike-VM fallbacks — so a timing
/// shift in `BENCH_tagger.json` can be traced to the tier whose share
/// moved.
fn emit_tier_record(label: &str, counts: TagCounts) {
    assert_eq!(
        counts.vm_eligible,
        counts.dfa_execs + counts.dfa_bailouts,
        "{label}: tier accounting leaked"
    );
    let mut rec = JsonObject::new();
    rec.str("record", "tiers")
        .str("system", label)
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
        "{label}: tiers — {} lines, {} gated, {} rule checks, {} dfa-resolved, {} vm-fallback",
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
        .str("system", &label(system))
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
    let mut scratch = TagScratch::new();
    for msg in &log.messages {
        let _ = rules.tag_message_with(msg, &log.interner, &mut scratch);
    }
    emit_tier_record(&label(system), scratch.take_counts());

    let name = format!("tagger_{}", label(system));
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

/// The live pass's Spirit share: raw lines at the end-to-end
/// benchmark's pass scale, tagged one line at a time through
/// `tag_line_with` as `ingest_stream` does, beside a prescan-only arm
/// over the same lines.
fn bench_spirit_live(scale: Scale) {
    let system = SystemId::Spirit;
    let text = generate(system, scale, HARNESS_SEED).render();
    let lines: Vec<&str> = text.lines().collect();
    let bytes: u64 = lines.iter().map(|l| l.len() as u64).sum();
    let rules = RuleSet::builtin(system, &mut CategoryRegistry::new());

    // The prescan arm's automaton: every catalog rule's required
    // literal factors, each once, as the ruleset builds its own.
    let mut factors: Vec<String> = Vec::new();
    for spec in catalog(system) {
        let predicate = Predicate::parse(spec.rule).expect("catalog rules parse");
        for factor in predicate.required_literals().unwrap_or_default() {
            if !factors.contains(&factor) {
                factors.push(factor);
            }
        }
    }
    let prescan = AhoCorasick::new(&factors);

    // The two paths must agree before their speeds mean anything.
    let mut scratch = TagScratch::new();
    let mut tagged = 0;
    for line in &lines {
        let got = rules.tag_line_with(line, &mut scratch);
        assert_eq!(
            got,
            rules.tag_line_unfiltered(line),
            "spirit live: prefiltered and brute-force tagging disagree on {line:?}"
        );
        tagged += usize::from(got.is_some());
    }
    eprintln!(
        "spirit live: {} lines, {bytes} bytes, {tagged} tagged, {} factors",
        lines.len(),
        factors.len()
    );
    emit_tier_record("spirit_live", scratch.take_counts());

    let mut group = BenchGroup::new("tagger_spirit_live");
    group
        .sample_size(10)
        .throughput_elements(lines.len() as u64);
    let (live_ns, prescan_ns) = group.bench_pair(
        "serial_prefiltered",
        || {
            lines
                .iter()
                .filter(|line| rules.tag_line_with(line, &mut scratch).is_some())
                .count()
        },
        "prescan",
        || {
            let mut hits = 0u64;
            for line in &lines {
                prescan.scan(line.as_bytes(), |_| hits += 1);
            }
            hits
        },
    );
    let mut rec = JsonObject::new();
    rec.str("record", "prescan_split")
        .str("system", "spirit_live")
        .uint("lines", lines.len() as u64)
        .uint("bytes", bytes)
        .uint("factors", factors.len() as u64)
        .num("live_ns_per_byte", live_ns as f64 / bytes as f64)
        .num("prescan_ns_per_byte", prescan_ns as f64 / bytes as f64)
        .num("prescan_share", prescan_ns as f64 / live_ns as f64);
    println!("{}", rec.finish());
}

/// A system's lower-case name, as records and group names carry it.
fn label(system: SystemId) -> String {
    format!("{system:?}").to_lowercase()
}

fn main() {
    // Spirit: tiny alert scale over a large background volume — the
    // shape where almost no line matches any rule.
    bench_system(SystemId::Spirit, Scale::new(0.00002, 0.0005));
    // Liberty: background-only in practice. Liberty has only 2,452
    // paper alerts, so even this alert scale tags ~0.2% of lines.
    bench_system(SystemId::Liberty, Scale::new(0.05, 0.0003));
    // Spirit at the live pass's scale (`perfbench`'s `PASS_SCALE`):
    // ~93% alerts.
    bench_spirit_live(Scale::new(0.002, 0.00027));
}
