//! The streaming bounded-memory pipeline.
//!
//! Tagging, truth attachment and filtering run over *bounded
//! batches*, with the stages overlapped. Both pipelines —
//! [`tag_filter_stream`] over an in-memory message slice (under
//! `Study::run`) and [`ingest_stream`] over raw text — run on one
//! private tag-and-filter loop, `drive`:
//!
//! ```text
//!  producer thread                 TagPool workers          consumer thread
//!  ────────────────────────        ────────────────         ────────────────────
//!  make TagJobs ──permit──▶        TagJob::run       ──▶    Reassembler (by seq)
//!        │     bounded queue       (one TagScratch             │ in order
//!        ▼                          per worker)                ▼
//!  blocks when the pool                                  SpatioTemporalStream
//!  is saturated ◀──────────── backpressure ─────────────  filtered alerts out
//! ```
//!
//! With one thread `drive` runs inline instead: each batch is
//! tagged on the producing thread by the same per-job function the
//! workers call ([`TagMetrics::run`]) and filtered right away.
//!
//! Order and results are bit-identical to the serial passes at any
//! thread count and chunk size: workers may finish out of order, but
//! the [`Reassembler`] releases batches strictly in submission order,
//! and within a batch alerts keep message order, so the filter sees
//! the exact sequence `tag_messages` would produce.
//!
//! In-flight data is bounded end to end: the pool's job queue bounds
//! *submitted* batches, and a permit [`channel`] bounds *unprocessed*
//! batches (submitted but not yet filtered), so a fast producer blocks
//! instead of buffering. [`PipelineStats`] reports the measured peak
//! against the configured bound.

pub mod channel;
mod ingest;

pub use ingest::{ingest_batch, ingest_stream, IngestConfig, IngestResult};

use sclog_filter::{SpatioTemporalFilter, SpatioTemporalStream};
use sclog_obs::{Counter, Peak, PeakGauge, Recorder, Stage, ThreadRecorder};
use sclog_rules::pool::{PoolClient, JOBS_PER_WORKER};
use sclog_rules::{RuleSet, TagJob, TagMetrics, TagPool, TagScratch, TaggedLog};
use sclog_sync::thread;
use sclog_types::{Alert, FailureId, Message, SourceInterner};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// Default messages per tagging batch.
pub const DEFAULT_CHUNK_MESSAGES: usize = 4096;

/// Restores submission order over out-of-order completions.
///
/// Push items keyed by their submission sequence number; pop releases
/// them strictly in `0, 1, 2, …` order, holding early arrivals until
/// their predecessors land.
///
/// # Examples
///
/// ```
/// use sclog_core::pipeline::Reassembler;
///
/// let mut r = Reassembler::new();
/// r.push(1, "b");
/// assert_eq!(r.pop_ready(), None, "0 has not arrived yet");
/// r.push(0, "a");
/// assert_eq!(r.pop_ready(), Some("a"));
/// assert_eq!(r.pop_ready(), Some("b"));
/// assert_eq!(r.pop_ready(), None);
/// ```
#[derive(Debug)]
pub struct Reassembler<T> {
    next: u64,
    pending: BTreeMap<u64, T>,
}

impl<T> Reassembler<T> {
    /// Creates an empty reassembler expecting sequence number 0 first.
    pub fn new() -> Self {
        Reassembler {
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Registers a completed item.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was already delivered or registered (a
    /// double-completion bug upstream).
    pub fn push(&mut self, seq: u64, item: T) {
        assert!(seq >= self.next, "sequence {seq} already delivered");
        let prev = self.pending.insert(seq, item);
        assert!(prev.is_none(), "sequence {seq} registered twice");
    }

    /// Releases the next in-order item, if it has arrived.
    pub fn pop_ready(&mut self) -> Option<T> {
        let item = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(item)
    }

    /// Items held out of order, waiting for a predecessor.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Evidence of a truncated stream, to be checked once the input has
    /// ended: `Some` when items are still stuck behind a sequence
    /// number that never arrived (a producer died mid-stream), `None`
    /// when everything reassembled.
    pub fn truncation(&self) -> Option<Truncation> {
        if self.pending.is_empty() {
            return None;
        }
        Some(Truncation {
            missing: self.next,
            held: self.pending.keys().copied().collect(),
        })
    }
}

impl<T> Default for Reassembler<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A completion stream that ended with a gap: some sequence number
/// never arrived (its producer died mid-stream), stranding later
/// completions behind it. Reported by [`Reassembler::truncation`] so
/// the consumer fails with an explicit diagnosis instead of hanging on
/// — or silently dropping — the stranded work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Truncation {
    /// The first sequence number that never arrived.
    pub missing: u64,
    /// Sequence numbers that did arrive but are stranded behind the
    /// gap, in order.
    pub held: Vec<u64>,
}

impl std::fmt::Display for Truncation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sequence {} never arrived; {} completed batch(es) stranded behind the gap",
            self.missing,
            self.held.len()
        )
    }
}

/// What the pipeline observed about its own memory behaviour.
///
/// "In flight" counts work submitted to the pool but not yet released
/// by the in-order consumer — the pipeline's working set. The batch
/// bound is hard: a permit channel of that capacity gates submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Worker threads used (1 = inline serial path).
    pub threads: usize,
    /// Batches submitted over the run.
    pub batches: u64,
    /// Highest number of batches in flight at once.
    pub peak_in_flight_batches: usize,
    /// The permit-channel capacity bounding
    /// [`PipelineStats::peak_in_flight_batches`].
    pub in_flight_bound_batches: usize,
    /// Highest number of messages in flight at once.
    pub peak_in_flight_messages: usize,
    /// Message-level bound, when batches have a fixed message count
    /// (the study pipeline); `None` for byte-chunked ingestion, where
    /// only the batch-level bound is configured.
    pub in_flight_bound_messages: Option<usize>,
}

/// Tags and filters a message slice through the streaming pipeline,
/// with ground truth fused into the tag loop when given.
///
/// Returns the tagged log (truth already attached), the filtered
/// alerts, and the pipeline's memory observations. Output is
/// bit-identical to `tag_messages` + `attach_truth` + batch filter for
/// every `threads`/`chunk` combination.
///
/// `recorder` sees stages `produce` (chunking + pool submission, with
/// permit waits attributed as queue wait), `tag` (inside the pool
/// workers) and `filter` (in-order reassembly + spatio-temporal
/// filtering, with idle `pool.recv` time as queue wait), the in-flight
/// gauges, the reassembler's pending high-water mark, and the tagger's
/// prefilter counters; with one thread, only `tag` and the counters.
/// [`Recorder::disabled`] reads no clock anywhere.
///
/// # Panics
///
/// Panics if `threads` or `chunk` is zero, or if `truth` is present
/// with a length different from `messages`.
#[allow(clippy::too_many_arguments)]
pub fn tag_filter_stream<'a>(
    rules: &'a RuleSet,
    messages: &'a [Message],
    interner: &'a SourceInterner,
    truth: Option<&'a [Option<FailureId>]>,
    filter: &SpatioTemporalFilter,
    threads: usize,
    chunk: usize,
    recorder: &Recorder,
) -> (TaggedLog, Vec<Alert>, PipelineStats) {
    assert!(chunk > 0, "chunk size must be positive");
    if let Some(t) = truth {
        assert_eq!(t.len(), messages.len(), "truth must align with messages");
    }
    let Ok((tagged, filtered, mut stats)) =
        drive(rules, filter, threads, recorder, "producer", |_, submit| {
            for (k, msgs) in messages.chunks(chunk).enumerate() {
                let base = k * chunk;
                submit(TagJob::Messages {
                    base,
                    msgs,
                    interner,
                    truth: truth.map(|t| &t[base..base + msgs.len()]),
                });
            }
            Ok::<(), Infallible>(())
        });
    stats.in_flight_bound_messages = Some(stats.in_flight_bound_batches * chunk);
    (tagged, filtered, stats)
}

/// Runs the tag and filter stages over the jobs `produce` submits.
///
/// `produce` runs on the calling thread with that thread's recorder
/// (labelled `producer`, or `serial` with one thread) and a submit
/// function; an error it returns ends the run once the work already
/// submitted has drained. With more than one thread, jobs go to a
/// [`TagPool`] behind the permit channel and a consumer thread filters
/// them in submission order; with one, each job is tagged and filtered
/// inline. The returned stats carry no message-level bound.
fn drive<'env, E>(
    rules: &'env RuleSet,
    filter: &SpatioTemporalFilter,
    threads: usize,
    recorder: &Recorder,
    producer: &str,
    produce: impl FnOnce(&ThreadRecorder, &mut dyn FnMut(TagJob<'env>)) -> Result<(), E>,
) -> Result<(TaggedLog, Vec<Alert>, PipelineStats), E> {
    assert!(threads > 0, "need at least one thread");
    let mut batches = 0u64;
    let (bound_batches, gauge, outcome) = if threads == 1 {
        let tag = TagMetrics::register(recorder);
        let counts = FilterCounts::register(recorder);
        let gauge = InFlightGauge::new(1);
        let tr = recorder.thread("serial");
        let mut scratch = TagScratch::new();
        let mut sink = Sink::new(filter);
        let produced = produce(&tr, &mut |job| {
            let len = job.len();
            gauge.acquire(len);
            sink.push(tag.run(&tr, rules, &mut scratch, job));
            gauge.release(len);
            batches += 1;
        });
        (1, gauge, produced.map(|()| sink.finish(&tr, counts)))
    } else {
        let job_cap = threads * JOBS_PER_WORKER;
        // Unprocessed batches: queued jobs + one per busy worker (the
        // consumer's reassembly window can never hold more, since an
        // out-of-order completion still occupies its submission permit).
        let bound_batches = job_cap + threads;
        let gauge = InFlightGauge::new(bound_batches);
        let stages = PoolStages::register(recorder);
        let counts = FilterCounts::register(recorder);
        gauge.adopt_into(recorder);
        let outcome = TagPool::scope(rules, threads, job_cap, recorder, |pool| {
            let (permit_tx, permit_rx) = channel::bounded::<()>(bound_batches);
            let gauge = &gauge;
            let tr_cons = recorder.thread("consumer");
            let tr_prod = recorder.thread(producer);
            thread::scope(|s| {
                let consumer = thread::spawn_in(s, move || {
                    consume(pool, permit_rx, gauge, filter, &tr_cons, stages, counts)
                });
                let produced = produce(&tr_prod, &mut |job| {
                    {
                        // Backpressure: block here while the bound is full.
                        let _wait = tr_prod.wait_span(stages.produce);
                        permit_tx.send(()).expect("consumer outlives producer");
                    }
                    let _busy = tr_prod.span(stages.produce);
                    let len = job.len();
                    gauge.acquire(len);
                    pool.submit(job);
                    tr_prod.stage_items(stages.produce, len as u64, 0);
                    batches += 1;
                });
                drop(permit_tx);
                pool.close();
                let out = consumer.join().expect("pipeline consumer panicked");
                produced.map(|()| out)
            })
        });
        (bound_batches, gauge, outcome)
    };
    let (alerts, filtered) = outcome?;
    let stats = PipelineStats {
        threads,
        batches,
        peak_in_flight_batches: gauge.peak_batches(),
        in_flight_bound_batches: bound_batches,
        peak_in_flight_messages: gauge.peak_messages(),
        in_flight_bound_messages: None,
    };
    Ok((TaggedLog { alerts }, filtered, stats))
}

/// The consumer thread: reassembles completed batches in submission
/// order, returns each one's permit, and filters its alerts.
fn consume(
    pool: &PoolClient<'_, '_>,
    permits: channel::Receiver<()>,
    gauge: &InFlightGauge,
    filter: &SpatioTemporalFilter,
    tr: &ThreadRecorder,
    stages: PoolStages,
    counts: FilterCounts,
) -> (Vec<Alert>, Vec<Alert>) {
    let mut reasm = Reassembler::new();
    let mut sink = Sink::new(filter);
    loop {
        let received = {
            // Idle until a worker completes a batch.
            let _wait = tr.wait_span(stages.filter);
            pool.recv()
        };
        let Some(batch) = received else { break };
        let _busy = tr.span(stages.filter);
        reasm.push(batch.seq, batch);
        tr.record_max(stages.pending_peak, reasm.pending() as u64);
        while let Some(b) = reasm.pop_ready() {
            gauge.release(b.len);
            let _ = permits.recv();
            tr.stage_items(stages.filter, b.alerts.len() as u64, 0);
            sink.push(b.alerts);
        }
    }
    if let Some(gap) = reasm.truncation() {
        panic!("tagging stream truncated: {gap}");
    }
    sink.finish(tr, counts)
}

/// The filter end of the pipeline: in-order alerts in, the tagged log
/// and its survivors out.
struct Sink {
    stream: SpatioTemporalStream,
    alerts: Vec<Alert>,
    filtered: Vec<Alert>,
}

impl Sink {
    fn new(filter: &SpatioTemporalFilter) -> Self {
        Sink {
            stream: filter.stream(),
            alerts: Vec::new(),
            filtered: Vec::new(),
        }
    }

    fn push(&mut self, batch: Vec<Alert>) {
        for a in batch {
            if self.stream.push(&a) {
                self.filtered.push(a);
            }
            self.alerts.push(a);
        }
    }

    fn finish(self, tr: &ThreadRecorder, counts: FilterCounts) -> (Vec<Alert>, Vec<Alert>) {
        tr.add(counts.alerts_in, self.stream.pushed());
        tr.add(counts.alerts_kept, self.stream.kept());
        (self.alerts, self.filtered)
    }
}

/// Stages only the pooled arm has (registered up front, before any
/// thread shard seals the recorder).
#[derive(Debug, Clone, Copy)]
struct PoolStages {
    produce: Stage,
    filter: Stage,
    /// High-water mark of batches the reassembler held out of order.
    pending_peak: Peak,
}

impl PoolStages {
    fn register(rec: &Recorder) -> Self {
        PoolStages {
            produce: rec.stage("produce"),
            filter: rec.stage("filter"),
            pending_peak: rec.peak("pipeline.reassembler.pending_peak"),
        }
    }
}

/// The filter's in/out tallies, recorded by both arms.
#[derive(Debug, Clone, Copy)]
struct FilterCounts {
    alerts_in: Counter,
    alerts_kept: Counter,
}

impl FilterCounts {
    fn register(rec: &Recorder) -> Self {
        FilterCounts {
            alerts_in: rec.counter("filter.alerts_in"),
            alerts_kept: rec.counter("filter.alerts_kept"),
        }
    }
}

/// Tracks in-flight batches and messages, remembering the peaks.
///
/// A thin bundle of two shared [`PeakGauge`]s: the batch gauge carries
/// the permit-channel capacity as its hard bound (never exceeded — the
/// `model_assert!` inside the gauge enforces the permit accounting on
/// every model-checked schedule, see `sclog-check`), the message gauge
/// is unbounded. Works with no recorder at all;
/// [`InFlightGauge::adopt_into`] surfaces both in a run report.
///
/// Clones share the underlying gauges (they are `Arc`-backed), so a
/// clone can be captured by a model-check invariant while the
/// original drives the protocol.
#[derive(Clone)]
pub struct InFlightGauge {
    batches: PeakGauge,
    messages: PeakGauge,
}

impl InFlightGauge {
    /// Creates the gauge pair; `bound_batches` is the hard bound the
    /// permit protocol promises never to exceed.
    pub fn new(bound_batches: usize) -> Self {
        InFlightGauge {
            batches: PeakGauge::new(Some(bound_batches as u64)),
            messages: PeakGauge::new(None),
        }
    }

    /// Registers both gauges with the recorder for the run report.
    pub fn adopt_into(&self, rec: &Recorder) {
        rec.adopt_gauge("pipeline.in_flight_batches", &self.batches);
        rec.adopt_gauge("pipeline.in_flight_messages", &self.messages);
    }

    /// Records a batch of `len` messages entering the pipeline.
    pub fn acquire(&self, len: usize) {
        self.batches.add(1);
        self.messages.add(len as u64);
    }

    /// Records a batch of `len` messages leaving (processed in order).
    pub fn release(&self, len: usize) {
        self.batches.sub(1);
        self.messages.sub(len as u64);
    }

    /// High-water mark of batches simultaneously in flight.
    pub fn peak_batches(&self) -> usize {
        self.batches.peak() as usize
    }

    /// High-water mark of messages simultaneously in flight.
    pub fn peak_messages(&self) -> usize {
        self.messages.peak() as usize
    }

    /// Batches in flight right now (exposed for model-check
    /// invariants; see `sclog-check`).
    pub fn current_batches(&self) -> usize {
        self.batches.current() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_filter::AlertFilter;
    use sclog_simgen::Scale;
    use sclog_types::{CategoryRegistry, SystemId};

    fn fixture() -> (sclog_simgen::GenLog, RuleSet) {
        let log = sclog_simgen::generate(SystemId::Liberty, Scale::new(0.01, 0.0002), 9);
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
        (log, rules)
    }

    #[test]
    fn reassembler_orders_and_guards() {
        let mut r: Reassembler<u32> = Reassembler::default();
        r.push(2, 2);
        r.push(0, 0);
        assert_eq!(r.pending(), 2);
        assert_eq!(r.pop_ready(), Some(0));
        assert_eq!(r.pop_ready(), None, "1 missing");
        r.push(1, 1);
        assert_eq!(r.pop_ready(), Some(1));
        assert_eq!(r.pop_ready(), Some(2));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "already delivered")]
    fn reassembler_rejects_replayed_seq() {
        let mut r = Reassembler::new();
        r.push(0, ());
        r.pop_ready();
        r.push(0, ());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn reassembler_rejects_duplicate_seq() {
        let mut r = Reassembler::new();
        r.push(3, ());
        r.push(3, ());
    }

    #[test]
    fn reassembler_reports_truncation() {
        let mut r = Reassembler::new();
        r.push(0, ());
        r.push(2, ());
        r.push(3, ());
        assert_eq!(r.pop_ready(), Some(()));
        assert_eq!(r.pop_ready(), None, "1 missing");
        let gap = r.truncation().expect("stream is truncated");
        assert_eq!(gap.missing, 1);
        assert_eq!(gap.held, vec![2, 3]);
        let rendered = gap.to_string();
        assert!(rendered.contains("sequence 1"), "{rendered}");
        assert!(rendered.contains("2 completed"), "{rendered}");
        r.push(1, ());
        while r.pop_ready().is_some() {}
        assert_eq!(r.truncation(), None, "gap filled, stream complete");
    }

    #[test]
    fn stream_matches_batch_reference() {
        let (log, rules) = fixture();
        let mut expect = rules.tag_messages(&log.messages, &log.interner);
        expect.attach_truth(&log.truth);
        let filter = SpatioTemporalFilter::paper();
        let expect_filtered = filter.filter(&expect.alerts);
        for (threads, chunk) in [(1, 64), (2, 1), (2, 512), (4, 4096), (3, 1_000_000)] {
            let (tagged, filtered, stats) = tag_filter_stream(
                &rules,
                &log.messages,
                &log.interner,
                Some(&log.truth),
                &filter,
                threads,
                chunk,
                &Recorder::disabled(),
            );
            assert_eq!(tagged.alerts, expect.alerts, "t={threads} c={chunk}");
            assert_eq!(filtered, expect_filtered, "t={threads} c={chunk}");
            assert_eq!(stats.batches, log.messages.len().div_ceil(chunk) as u64);
            assert!(stats.peak_in_flight_batches <= stats.in_flight_bound_batches);
            let bound = stats.in_flight_bound_messages.expect("fixed-chunk bound");
            assert!(
                stats.peak_in_flight_messages <= bound,
                "t={threads} c={chunk}: peak {} over bound {bound}",
                stats.peak_in_flight_messages,
            );
        }
    }

    #[test]
    fn truthless_stream_leaves_failures_unset() {
        let (log, rules) = fixture();
        let filter = SpatioTemporalFilter::paper();
        let (tagged, _, _) = tag_filter_stream(
            &rules,
            &log.messages,
            &log.interner,
            None,
            &filter,
            2,
            128,
            &Recorder::disabled(),
        );
        assert!(!tagged.alerts.is_empty());
        assert!(tagged.alerts.iter().all(|a| a.failure.is_none()));
    }

    #[test]
    fn peak_in_flight_is_bounded_with_tiny_chunks() {
        let (log, rules) = fixture();
        let filter = SpatioTemporalFilter::paper();
        let (_, _, stats) = tag_filter_stream(
            &rules,
            &log.messages,
            &log.interner,
            None,
            &filter,
            4,
            8,
            &Recorder::disabled(),
        );
        // Whole log would be tens of thousands of messages; the bound
        // keeps the pipeline to a handful of 8-message batches.
        let bound = stats.in_flight_bound_messages.unwrap();
        assert!(bound < log.messages.len() / 10);
        assert!(stats.peak_in_flight_messages <= bound);
    }

    #[test]
    #[should_panic(expected = "truth must align")]
    fn misaligned_truth_rejected() {
        let (log, rules) = fixture();
        let filter = SpatioTemporalFilter::paper();
        let _ = tag_filter_stream(
            &rules,
            &log.messages,
            &log.interner,
            Some(&log.truth[..1]),
            &filter,
            2,
            64,
            &Recorder::disabled(),
        );
    }
}
