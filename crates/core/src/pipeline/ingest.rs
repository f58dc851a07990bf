//! Streaming ingestion of raw log text.
//!
//! Where the study pipeline tags an in-memory generated log, this
//! module ingests *text* — the shape of the paper's real workload,
//! 178 million raw lines — through four overlapped stages:
//!
//! ```text
//!  reader thread        parse stage (caller)      TagPool      consumer thread
//!  ─────────────        ────────────────────      ───────      ───────────────
//!  LineChunker     ──▶  push_header per line ──▶  tag the ──▶  reassemble,
//!  (bounded text        build LineBatch           RAW line     filter stream
//!   channel)            (spans + time/source)
//! ```
//!
//! The tagging stage works on the **raw line text**, not a re-rendered
//! message — exactly how the administrators' awk rules ran — which
//! also skips the render that dominates batch tagging cost. The parse
//! stage therefore reads only each line's header
//! ([`LogReader::push_header`]: the timestamp and the interned source,
//! under the same rejection rules and accounting as a full parse) into
//! a [`sclog_rules::LineRef`]; facility and body are never copied out,
//! so parsing a line allocates nothing and no stage ever holds the
//! whole log.
//!
//! [`ingest_batch`] is the materialize-everything reference: full
//! `Message` parse, identical output, whole-log working set. The
//! equivalence of the two paths (header vs full parse, raw-line vs
//! rendered-message tagging) is covered by property tests over all
//! five systems, corrupt lines included.

use super::{channel, drive, PipelineStats};
use sclog_filter::{AlertFilter, SpatioTemporalFilter};
use sclog_obs::{Counter, Histogram, ObsConfig, Recorder, Stage, ThreadRecorder};
use sclog_parse::{LineChunker, LogReader, ParseStats};
use sclog_rules::{LineBatch, LineRef, RuleSet, TagJob, TaggedLog};
use sclog_sync::thread;
use sclog_types::{Alert, ObsReport, SourceInterner, SystemId};
use std::io::Read;

/// Tuning knobs for [`ingest_stream`].
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Tagging worker threads (1 = inline serial pipeline).
    pub threads: usize,
    /// Target bytes per text chunk (one pool batch per chunk).
    pub chunk_bytes: usize,
    /// Capacity of the reader→parser text channel, in chunks.
    pub text_queue: usize,
    /// Observability: [`ObsConfig::on`] makes the run carry an
    /// [`ObsReport`] in [`IngestResult::obs`]. Off (the default) costs
    /// nothing.
    pub obs: ObsConfig,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            threads: 1,
            chunk_bytes: sclog_parse::DEFAULT_CHUNK_BYTES,
            text_queue: 4,
            obs: ObsConfig::off(),
        }
    }
}

impl IngestConfig {
    /// A config with the given worker count and default chunking.
    pub fn with_threads(threads: usize) -> Self {
        IngestConfig {
            threads,
            ..IngestConfig::default()
        }
    }
}

/// Everything ingestion produces.
#[derive(Debug)]
pub struct IngestResult {
    /// Alerts the expert rules tagged, in message order.
    pub tagged: TaggedLog,
    /// Alerts surviving the spatio-temporal filter: a subsequence of
    /// `tagged`, in message order.
    pub filtered: Vec<Alert>,
    /// Line accounting from the parser.
    pub parse: ParseStats,
    /// The interner naming every [`Alert::source`] in `tagged` — kept
    /// so consumers that outlive the call (a query server holding the
    /// alerts) can still resolve node names.
    pub sources: SourceInterner,
    /// Pipeline memory observations.
    pub stats: PipelineStats,
    /// The run report, when [`IngestConfig::obs`] was on.
    pub obs: Option<ObsReport>,
}

/// Ingests raw log text from a reader through the streaming pipeline.
///
/// A reader thread pulls text chunks into a bounded channel; the
/// calling thread parses each chunk's line headers and submits it as a
/// [`TagJob::Lines`] batch to the shared tag-and-filter loop, which
/// tags the raw lines on [`IngestConfig::threads`] workers (inline for
/// one) and filters them in order.
///
/// # Errors
///
/// Returns the first I/O error from `reader`; work completed before
/// the error is discarded.
///
/// # Panics
///
/// Panics if `threads`, `chunk_bytes` or `text_queue` is zero.
pub fn ingest_stream(
    system: SystemId,
    reader: impl Read + Send,
    rules: &RuleSet,
    filter: &SpatioTemporalFilter,
    config: IngestConfig,
) -> std::io::Result<IngestResult> {
    assert!(
        config.text_queue > 0,
        "text queue capacity must be positive"
    );
    let recorder = config.obs.recorder();
    let metrics = IngestMetrics::register(&recorder);
    let mut log_reader = LogReader::for_system(system);
    let (tagged, filtered, stats) = drive(
        rules,
        filter,
        config.threads,
        &recorder,
        "parser",
        |tr, submit| {
            thread::scope(|s| {
                let (text_tx, text_rx) = channel::bounded(config.text_queue);
                let tr_read = recorder.thread("reader");
                thread::spawn_in(s, move || {
                    let mut chunks = LineChunker::with_target(reader, config.chunk_bytes);
                    loop {
                        let item = {
                            // The chunker pulls from the underlying reader
                            // here — this is the stage's real I/O work.
                            let _busy = tr_read.span(metrics.read);
                            chunks.next()
                        };
                        let Some(chunk) = item else { break };
                        let bytes = chunk.as_ref().map_or(0, |t| t.len()) as u64;
                        tr_read.stage_items(metrics.read, 1, bytes);
                        let _wait = tr_read.wait_span(metrics.read);
                        if text_tx.send(chunk).is_err() {
                            break; // parse stage bailed on an earlier error
                        }
                    }
                    tr_read.add(metrics.swar_blocks, chunks.swar_blocks());
                });
                let next_chunk = || {
                    let _wait = tr.wait_span(metrics.parse);
                    text_rx.recv()
                };
                let mut next_index = 0usize;
                // An early return drops `text_rx`, so the reader thread
                // unblocks and exits before the scope joins it.
                while let Some(item) = next_chunk() {
                    let text = item?;
                    let lines = {
                        let _busy = tr.span(metrics.parse);
                        parse_chunk(&mut log_reader, &text, &mut next_index)
                    };
                    tr.observe(metrics.chunk_bytes, text.len() as u64);
                    tr.stage_items(metrics.parse, lines.len() as u64, text.len() as u64);
                    submit(TagJob::Lines(LineBatch { text, lines }));
                }
                metrics.flush_parse(tr, log_reader.stats());
                Ok::<(), std::io::Error>(())
            })
        },
    )?;
    let (_, ctx, parse) = log_reader.into_parts();
    Ok(IngestResult {
        tagged,
        filtered,
        parse,
        sources: ctx.interner,
        stats,
        obs: config
            .obs
            .is_enabled()
            .then(|| recorder.snapshot().report()),
    })
}

/// Metric handles specific to text ingestion, registered before the
/// pool seals the recorder.
#[derive(Debug, Clone, Copy)]
struct IngestMetrics {
    read: Stage,
    parse: Stage,
    /// Size distribution of the reader's text chunks.
    chunk_bytes: Histogram,
    /// 8-byte SWAR lanes the chunker's newline scan examined.
    swar_blocks: Counter,
    lines_parsed: Counter,
    lines_empty: Counter,
    lines_bad_timestamp: Counter,
    lines_too_short: Counter,
}

impl IngestMetrics {
    fn register(rec: &Recorder) -> Self {
        IngestMetrics {
            read: rec.stage("read"),
            parse: rec.stage("parse"),
            chunk_bytes: rec.histogram("pipeline.chunk_bytes"),
            swar_blocks: rec.counter("chunker.swar_blocks"),
            lines_parsed: rec.counter("parse.lines"),
            lines_empty: rec.counter("parse.empty"),
            lines_bad_timestamp: rec.counter("parse.bad_timestamp"),
            lines_too_short: rec.counter("parse.too_short"),
        }
    }

    /// Flushes the reader's final line accounting (kept as plain
    /// counters in [`ParseStats`] during the run).
    fn flush_parse(&self, tr: &ThreadRecorder, stats: &ParseStats) {
        tr.add(self.lines_parsed, stats.parsed);
        tr.add(self.lines_empty, stats.empty);
        tr.add(self.lines_bad_timestamp, stats.bad_timestamp);
        tr.add(self.lines_too_short, stats.too_short);
    }
}

/// Parses one text chunk line by line, returning a [`LineRef`] per
/// accepted line: its span in `text` plus the header fields from
/// [`LogReader::push_header`]. Nothing else of a line is parsed — the
/// tagger reads the raw span — so a line costs no allocation here.
/// Line splitting matches [`sclog_parse::logical_lines`]:
/// `\n`-separated, a trailing `\r` stripped from both the parsed text
/// and the recorded span — including on a final line that lacks its
/// terminating newline, so a CRLF log cut mid-ending parses the same
/// here as in the batch path.
fn parse_chunk(reader: &mut LogReader, text: &str, next_index: &mut usize) -> Vec<LineRef> {
    let mut lines = Vec::new();
    let mut pos = 0usize;
    for piece in text.split('\n') {
        if pos == text.len() {
            break; // trailing empty piece after a final newline
        }
        let start = pos;
        pos += piece.len() + 1;
        let line = piece.strip_suffix('\r').unwrap_or(piece);
        if let Some((time, source)) = reader.push_header(line) {
            lines.push(LineRef {
                start,
                end: start + line.len(),
                index: *next_index,
                time,
                source,
            });
            *next_index += 1;
        }
    }
    lines
}

/// The materialized reference path: parse every line into a full
/// `Message`, tag the rendered messages serially, filter once —
/// identical output to [`ingest_stream`], with the whole log as its
/// working set (reflected in the returned stats).
pub fn ingest_batch(
    system: SystemId,
    text: &str,
    rules: &RuleSet,
    filter: &SpatioTemporalFilter,
) -> IngestResult {
    let mut reader = LogReader::for_system(system);
    reader.push_text(text);
    let (messages, ctx, parse) = reader.into_parts();
    let tagged = rules.tag_messages(&messages, &ctx.interner);
    let filtered = filter.filter(&tagged.alerts);
    let n = messages.len();
    IngestResult {
        tagged,
        filtered,
        parse,
        sources: ctx.interner,
        stats: PipelineStats {
            threads: 1,
            batches: 1,
            peak_in_flight_batches: 1,
            in_flight_bound_batches: 1,
            peak_in_flight_messages: n,
            in_flight_bound_messages: Some(n),
        },
        obs: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_simgen::Scale;
    use sclog_types::CategoryRegistry;

    fn liberty_text() -> String {
        sclog_simgen::generate(SystemId::Liberty, Scale::new(0.01, 0.0002), 17).render()
    }

    fn liberty_rules() -> (RuleSet, CategoryRegistry) {
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
        (rules, registry)
    }

    #[test]
    fn stream_matches_batch_on_rendered_log() {
        let text = liberty_text();
        let (rules, _) = liberty_rules();
        let filter = SpatioTemporalFilter::paper();
        let batch = ingest_batch(SystemId::Liberty, &text, &rules, &filter);
        for threads in [1, 2, 4] {
            let config = IngestConfig {
                threads,
                chunk_bytes: 8 * 1024,
                text_queue: 3,
                obs: ObsConfig::off(),
            };
            let stream =
                ingest_stream(SystemId::Liberty, text.as_bytes(), &rules, &filter, config).unwrap();
            assert_eq!(stream.tagged.alerts, batch.tagged.alerts, "t={threads}");
            assert_eq!(stream.filtered, batch.filtered, "t={threads}");
            assert_eq!(stream.parse, batch.parse, "t={threads}");
            assert!(stream.stats.peak_in_flight_batches <= stream.stats.in_flight_bound_batches);
            assert!(
                stream.stats.peak_in_flight_messages < batch.stats.peak_in_flight_messages,
                "streaming working set beats whole-log materialization"
            );
        }
    }

    #[test]
    fn chunk_size_does_not_change_output() {
        let text = liberty_text();
        let (rules, _) = liberty_rules();
        let filter = SpatioTemporalFilter::paper();
        let reference = ingest_stream(
            SystemId::Liberty,
            text.as_bytes(),
            &rules,
            &filter,
            IngestConfig::default(),
        )
        .unwrap();
        for chunk_bytes in [64, 1024, 1 << 20] {
            let config = IngestConfig {
                threads: 2,
                chunk_bytes,
                text_queue: 2,
                obs: ObsConfig::off(),
            };
            let run =
                ingest_stream(SystemId::Liberty, text.as_bytes(), &rules, &filter, config).unwrap();
            assert_eq!(
                run.tagged.alerts, reference.tagged.alerts,
                "c={chunk_bytes}"
            );
            assert_eq!(run.filtered, reference.filtered, "c={chunk_bytes}");
        }
    }

    #[test]
    fn io_error_propagates_from_stream() {
        struct FailAfter(usize);
        impl Read for FailAfter {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("link down"));
                }
                self.0 -= 1;
                let line = b"Dec 12 00:00:01 ln1 kernel: hello\n";
                buf[..line.len()].copy_from_slice(line);
                Ok(line.len())
            }
        }
        let (rules, _) = liberty_rules();
        let filter = SpatioTemporalFilter::paper();
        for threads in [1, 2] {
            let config = IngestConfig {
                threads,
                chunk_bytes: 16,
                text_queue: 2,
                obs: ObsConfig::off(),
            };
            let err = ingest_stream(SystemId::Liberty, FailAfter(3), &rules, &filter, config)
                .unwrap_err();
            assert_eq!(err.to_string(), "link down", "t={threads}");
        }
    }

    #[test]
    fn crlf_text_streams_identical_to_batch() {
        // ISSUE-6 regression: CRLF line endings — including a final
        // line cut right after its `\r` — must parse and tag the same
        // through the chunked stream as through the batch path, at
        // every chunk size (so the cut can land on any boundary).
        let text = "Dec 12 00:00:01 ln1 pbs_mom: task_check, cannot tm_reply to 9 task 1\r\n\
                    Dec 12 00:00:02 ln2 kernel: quiet line\r\n\
                    Dec 12 00:00:03 ln3 pbs_mom: task_check, cannot tm_reply to 9 task 1\r";
        let (rules, _) = liberty_rules();
        let filter = SpatioTemporalFilter::paper();
        let batch = ingest_batch(SystemId::Liberty, text, &rules, &filter);
        assert_eq!(batch.parse.parsed, 3, "all three CRLF lines parse");
        for threads in [1, 2] {
            for chunk_bytes in [8, 70, 4096] {
                let config = IngestConfig {
                    threads,
                    chunk_bytes,
                    text_queue: 2,
                    obs: ObsConfig::off(),
                };
                let run =
                    ingest_stream(SystemId::Liberty, text.as_bytes(), &rules, &filter, config)
                        .unwrap();
                assert_eq!(
                    run.tagged.alerts, batch.tagged.alerts,
                    "t={threads} c={chunk_bytes}"
                );
                assert_eq!(run.parse, batch.parse, "t={threads} c={chunk_bytes}");
                assert_eq!(
                    run.sources.len(),
                    batch.sources.len(),
                    "t={threads} c={chunk_bytes}: interners agree"
                );
            }
        }
    }

    #[test]
    fn rejected_lines_are_counted_not_tagged() {
        let text = "Dec 12 00:00:01 ln1 pbs_mom: task_check, cannot tm_reply to 9 task 1\n\
                    total garbage\n\
                    \n";
        let (rules, _) = liberty_rules();
        let filter = SpatioTemporalFilter::paper();
        let run = ingest_stream(
            SystemId::Liberty,
            text.as_bytes(),
            &rules,
            &filter,
            IngestConfig::default(),
        )
        .unwrap();
        assert_eq!(run.parse.parsed, 1);
        assert_eq!(run.parse.rejected(), 1);
        assert_eq!(run.parse.empty, 1);
        assert_eq!(run.tagged.alerts.len(), 1);
        assert_eq!(run.tagged.alerts[0].message_index, 0);
    }
}
