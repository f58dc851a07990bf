//! Property test: observability never changes the pipeline's output.
//!
//! The recorder is a side channel — turning it on must leave the
//! tagged alerts, fused ground truth, and filtered output bit-identical
//! at every thread count, and the report it produces must square with
//! the outputs it rode along with. The log is generated once per case;
//! the obs-on and obs-off runs consume the same in-memory data.
//! Uses the in-tree `sclog-testkit` harness; set `SCLOG_PROP_CASES` /
//! `SCLOG_PROP_SEED` to rescale or replay.

use sclog_core::pipeline::{self, IngestConfig};
use sclog_core::ObsConfig;
use sclog_filter::SpatioTemporalFilter;
use sclog_obs::Recorder;
use sclog_rules::RuleSet;
use sclog_simgen::Scale;
use sclog_testkit::check_n;
use sclog_types::{CategoryRegistry, SystemId};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Obs on vs obs off over the streaming tag+filter engine: identical
/// alerts and filtered output at 1, 2, and 8 threads, and the report
/// accounts for exactly the work the run did.
#[test]
fn recorder_leaves_stream_output_bit_identical() {
    check_n("obs_stream_equiv", 1, |g| {
        let seed = g.below(1 << 20);
        let system = *g.pick(&[SystemId::Liberty, SystemId::Spirit, SystemId::BlueGeneL]);
        let chunk = *g.pick(&[7usize, 64, 512]);
        let log = sclog_simgen::generate(system, Scale::new(0.002, 0.00002), seed);
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(system, &mut registry);
        let filter = SpatioTemporalFilter::paper();
        for &threads in &THREAD_COUNTS {
            let (plain_tagged, plain_filtered, _) = pipeline::tag_filter_stream(
                &rules,
                &log.messages,
                &log.interner,
                Some(&log.truth),
                &filter,
                threads,
                chunk,
                &Recorder::disabled(),
            );
            let recorder = Recorder::new();
            let (tagged, filtered, stats) = pipeline::tag_filter_stream(
                &rules,
                &log.messages,
                &log.interner,
                Some(&log.truth),
                &filter,
                threads,
                chunk,
                &recorder,
            );
            let tag = format!("{system:?} seed={seed} t={threads} c={chunk}");
            assert_eq!(tagged.alerts, plain_tagged.alerts, "{tag}");
            assert_eq!(filtered, plain_filtered, "{tag}");

            let report = recorder.snapshot().report();
            assert_eq!(
                report.counter("tagger.lines"),
                Some(log.messages.len() as u64),
                "{tag}"
            );
            assert_eq!(
                report.counter("filter.alerts_in"),
                Some(tagged.len() as u64),
                "{tag}"
            );
            assert_eq!(
                report.counter("filter.alerts_kept"),
                Some(filtered.len() as u64),
                "{tag}"
            );
            let tag_stage = report.stage("tag").expect("tag stage recorded");
            assert_eq!(tag_stage.items, log.messages.len() as u64, "{tag}");
            if threads > 1 {
                // The serial arm has no in-flight window to gauge.
                let gauge = report
                    .gauge("pipeline.in_flight_batches")
                    .expect("in-flight gauge recorded");
                assert_eq!(gauge.peak, stats.peak_in_flight_batches as u64, "{tag}");
                assert_eq!(gauge.current, 0, "{tag}: drained");
            }
        }
    });
}

/// Same property over the byte-ingestion pipeline: enabling obs in
/// `IngestConfig` changes nothing about parsing, tagging, or
/// filtering, and the parse counters match the reader's own stats.
#[test]
fn recorder_leaves_ingest_output_bit_identical() {
    check_n("obs_ingest_equiv", 1, |g| {
        let seed = g.below(1 << 20);
        let log = sclog_simgen::generate(SystemId::Liberty, Scale::new(0.002, 0.00002), seed);
        let text = log.render();
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
        let filter = SpatioTemporalFilter::paper();
        for &threads in &THREAD_COUNTS {
            let config = IngestConfig::with_threads(threads);
            let plain = pipeline::ingest_stream(
                SystemId::Liberty,
                text.as_bytes(),
                &rules,
                &filter,
                config,
            )
            .unwrap();
            assert!(plain.obs.is_none(), "obs off by default");
            let observed = pipeline::ingest_stream(
                SystemId::Liberty,
                text.as_bytes(),
                &rules,
                &filter,
                IngestConfig {
                    obs: ObsConfig::on(),
                    ..config
                },
            )
            .unwrap();
            let tag = format!("seed={seed} t={threads}");
            assert_eq!(observed.tagged.alerts, plain.tagged.alerts, "{tag}");
            assert_eq!(observed.filtered, plain.filtered, "{tag}");
            let report = observed.obs.expect("obs on yields a report");
            assert_eq!(
                report.counter("parse.lines"),
                Some(observed.parse.parsed),
                "{tag}"
            );
            assert_eq!(
                report.counter("tagger.lines"),
                Some(observed.parse.parsed),
                "{tag}"
            );
            assert!(report.stage("read").is_some(), "{tag}");
            assert!(report.stage("parse").is_some(), "{tag}");
        }
    });
}
