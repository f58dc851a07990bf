//! Property tests: the streaming pipeline is bit-identical to the
//! serial reference at every thread count and chunk size.
//!
//! Each case generates every system's log once and runs the full
//! thread×chunk matrix over the same in-memory data (regenerating per
//! combination would dominate the runtime); `Study::run` itself is
//! spot-checked against the serial passes on one sampled combination.
//! The thread counts include 3, which splits the pool's work unevenly.
//! Uses the in-tree `sclog-testkit` harness; set `SCLOG_PROP_CASES` /
//! `SCLOG_PROP_SEED` to rescale or replay.

use sclog_core::pipeline::{self, IngestConfig};
use sclog_core::Study;
use sclog_filter::{AlertFilter, SpatioTemporalFilter};
use sclog_obs::Recorder;
use sclog_rules::RuleSet;
use sclog_simgen::Scale;
use sclog_testkit::{check_n, Gen};
use sclog_types::{CategoryRegistry, ALL_SYSTEMS};

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];
const CHUNK_SIZES: [usize; 3] = [1, 64, 4096];

/// Property scale: small enough that the biggest systems stay in the
/// low thousands of messages, so the full thread×chunk×system matrix
/// runs in seconds under an unoptimized test build.
fn prop_scale() -> Scale {
    Scale::new(0.001, 0.00001)
}

/// Every system, every thread count, every chunk size: the streaming
/// tag+filter pipeline (the engine under `Study::run`) equals the
/// serial passes (`tag_messages`, `attach_truth`, batch filter)
/// exactly — tagged alerts, fused truth, and filtered output.
#[test]
fn study_streaming_equals_batch_everywhere() {
    check_n("study_streaming_equals_batch", 1, |g| {
        let seed = g.below(1 << 20);
        let filter = SpatioTemporalFilter::paper();
        for system in ALL_SYSTEMS.iter().copied() {
            let log = sclog_simgen::generate(system, prop_scale(), seed);
            let mut registry = CategoryRegistry::new();
            let rules = RuleSet::builtin(system, &mut registry);
            let mut expect = rules.tag_messages(&log.messages, &log.interner);
            expect.attach_truth(&log.truth);
            let expect_filtered = filter.filter(&expect.alerts);
            for &threads in &THREAD_COUNTS {
                for &chunk in &CHUNK_SIZES {
                    let (tagged, filtered, stats) = pipeline::tag_filter_stream(
                        &rules,
                        &log.messages,
                        &log.interner,
                        Some(&log.truth),
                        &filter,
                        threads,
                        chunk,
                        &Recorder::disabled(),
                    );
                    let tag = format!("{system:?} seed={seed} t={threads} c={chunk}");
                    assert_eq!(tagged.alerts, expect.alerts, "{tag}");
                    assert_eq!(filtered, expect_filtered, "{tag}");
                    assert!(
                        stats.peak_in_flight_batches <= stats.in_flight_bound_batches,
                        "{tag}"
                    );
                    assert!(
                        stats.peak_in_flight_messages <= stats.in_flight_bound_messages.unwrap(),
                        "{tag}"
                    );
                }
            }
        }
    });
}

/// `Study::run` (streaming) equals the serial passes over the same
/// generated log end to end, sampling one system and one
/// thread/chunk combination per case.
#[test]
fn study_run_matches_batch_run() {
    check_n("study_run_matches_batch_run", 2, |g| {
        let seed = g.below(1 << 20);
        let system = *g.pick(&ALL_SYSTEMS[..]);
        let threads = *g.pick(&THREAD_COUNTS);
        let chunk = *g.pick(&CHUNK_SIZES);
        let study = Study::with_scale(prop_scale(), seed);
        let run = study.threads(threads).chunk_size(chunk).run_system(system);
        let rules = RuleSet::builtin(system, &mut CategoryRegistry::new());
        let mut expect = rules.tag_messages(&run.log.messages, &run.log.interner);
        expect.attach_truth(&run.log.truth);
        let expect_filtered = SpatioTemporalFilter::paper().filter(&expect.alerts);
        let tag = format!("{system:?} seed={seed} t={threads} c={chunk}");
        assert_eq!(run.tagged.alerts, expect.alerts, "{tag}");
        assert_eq!(run.filtered, expect_filtered, "{tag}");
        // Refiltering the filtered output changes nothing: the filter
        // is idempotent on what it keeps.
        let again = SpatioTemporalFilter::paper().filter(&run.filtered);
        assert_eq!(again, run.filtered, "{tag}");
    });
}

/// Injects lines the parser must reject (or skip) into a rendered
/// log: blank and whitespace-only lines, lines cut to two tokens, a
/// garbled leading token, and an impossible `Feb 31` date, which
/// still moves syslog year recovery. Some kept lines get CRLF endings.
/// simgen text itself parses with no rejections, so without this the
/// streaming path would never see a rejected line.
fn inject_corruption(g: &mut Gen, text: &str) -> String {
    // About twenty injections per log, cycling through every kind, at
    // a seeded offset.
    let stride = (text.lines().count() / 20).max(1);
    let offset = g.below(stride as u64) as usize;
    let mut out = String::with_capacity(text.len() + text.len() / 8);
    for (i, line) in text.lines().enumerate() {
        if i % stride == offset {
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let bad = match (i / stride) % 5 {
                0 => String::new(),
                1 => " \t ".to_owned(),
                2 => tokens[..2].join(" "),
                3 => format!("Foo {}", tokens[1..].join(" ")),
                _ => format!("Feb 31 00:00:00 {}", tokens[3..].join(" ")),
            };
            out.push_str(&bad);
            out.push('\n');
        }
        out.push_str(line);
        out.push_str(if g.chance(0.05) { "\r\n" } else { "\n" });
    }
    out
}

/// Raw-line streaming ingestion equals the parse-then-render batch
/// path on every system's rendered log with corrupt lines injected:
/// same alerts, same filtered set, same parse accounting. The batch
/// path parses full messages; the streaming path parses headers only.
#[test]
fn ingest_streaming_equals_batch_everywhere() {
    check_n("ingest_streaming_equals_batch", 1, |g| {
        let seed = g.below(1 << 20);
        let chunk_bytes = *g.pick(&[256usize, 4 * 1024, 64 * 1024]);
        let filter = SpatioTemporalFilter::paper();
        for system in ALL_SYSTEMS.iter().copied() {
            let clean = sclog_simgen::generate(system, prop_scale(), seed).render();
            let text = inject_corruption(g, &clean);
            let mut registry = CategoryRegistry::new();
            let rules = RuleSet::builtin(system, &mut registry);
            let batch = pipeline::ingest_batch(system, &text, &rules, &filter);
            assert!(
                batch.parse.rejected() > 0 && batch.parse.empty > 0,
                "{system:?} seed={seed}: corruption must reach the parser: {:?}",
                batch.parse
            );
            for &threads in &THREAD_COUNTS {
                let config = IngestConfig {
                    threads,
                    chunk_bytes,
                    text_queue: 2,
                    ..IngestConfig::default()
                };
                let run = pipeline::ingest_stream(system, text.as_bytes(), &rules, &filter, config)
                    .unwrap();
                let tag = format!("{system:?} seed={seed} t={threads} cb={chunk_bytes}");
                assert_eq!(run.tagged.alerts, batch.tagged.alerts, "{tag}");
                assert_eq!(run.filtered, batch.filtered, "{tag}");
                assert_eq!(run.parse, batch.parse, "{tag}");
            }
        }
    });
}
