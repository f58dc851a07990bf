//! A persistent scoped worker pool for batched tagging.
//!
//! Workers are spawned once per [`TagPool::scope`] and then tag any
//! number of batches out of a shared bounded queue, each with its own
//! long-lived [`TagScratch`], so a stream of thousands of small
//! batches pays for thread startup once.
//!
//! A batch is a [`TagJob`], one of the two pipeline sources:
//!
//! * **Messages** — a borrowed slice of an in-memory log, rendered and
//!   tagged exactly as [`RuleSet::tag_messages`] would, optionally
//!   fusing ground-truth attachment into the tag loop.
//! * **Lines** — an owned [`LineBatch`] of text from a streaming
//!   reader, tagged on the *raw line*. This is the paper-faithful path
//!   (the experts' awk rules ran on raw log lines) and skips
//!   re-rendering parsed messages back to text, which is most of the
//!   batch tagging cost.
//!
//! [`TagMetrics::run`] is the one place a job is tagged and its
//! prefilter tallies recorded: the pool's workers call it, and so does
//! the streaming pipeline's single-threaded arm.
//!
//! The job queue is bounded: submitting into a full pool blocks, which
//! is the backpressure that keeps a fast producer from buffering an
//! unbounded amount of in-flight text.

use crate::tagger::{RuleSet, TagCounts, TagScratch};
use sclog_obs::{Counter, Recorder, Stage, ThreadRecorder};
use sclog_sync::{thread, Condvar, Mutex};
use sclog_types::{Alert, FailureId, Message, NodeId, SourceInterner, Timestamp};
use std::collections::VecDeque;

/// One parsed line within a [`LineBatch`]: where its raw text lives in
/// the batch's text block, plus the header fields an [`Alert`] needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRef {
    /// Byte offset of the line's start in [`LineBatch::text`].
    pub start: usize,
    /// Byte offset one past the line's end.
    pub end: usize,
    /// Global index of this line's message in the parsed sequence.
    pub index: usize,
    /// Parsed timestamp.
    pub time: Timestamp,
    /// Parsed (interned) source.
    pub source: NodeId,
}

/// An owned chunk of raw log text with the parse metadata of its
/// lines. Only successfully parsed lines carry a [`LineRef`]; rejected
/// and empty lines are simply absent, matching the batch path (which
/// never sees them as messages either).
#[derive(Debug, Default)]
pub struct LineBatch {
    /// The chunk's raw text (line spans index into this).
    pub text: String,
    /// Parsed lines, in input order.
    pub lines: Vec<LineRef>,
}

/// A tagged batch, identified by the submission sequence number the
/// pool assigned — consumers reorder completions by `seq` to recover
/// submission order.
#[derive(Debug)]
pub struct TaggedBatch {
    /// Submission sequence number (0, 1, 2, … in submit order).
    pub seq: u64,
    /// Number of messages/lines the batch carried.
    pub len: usize,
    /// Alerts tagged from the batch, in batch order, with
    /// `message_index` already global.
    pub alerts: Vec<Alert>,
}

/// One batch of tagging work.
#[derive(Debug)]
pub enum TagJob<'env> {
    /// A borrowed message slice, rendered and tagged.
    Messages {
        /// Global index of `msgs[0]`.
        base: usize,
        /// The messages.
        msgs: &'env [Message],
        /// The interner naming the messages' sources.
        interner: &'env SourceInterner,
        /// Ground truth aligned with `msgs` (so `truth[i]` belongs to
        /// message `base + i`); fused into the tag loop when present.
        truth: Option<&'env [Option<FailureId>]>,
    },
    /// An owned text chunk, tagged on its raw lines.
    Lines(LineBatch),
}

impl TagJob<'_> {
    /// Number of messages or lines the job carries.
    pub fn len(&self) -> usize {
        match self {
            TagJob::Messages { msgs, .. } => msgs.len(),
            TagJob::Lines(batch) => batch.lines.len(),
        }
    }

    /// True if the job carries nothing to tag.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tags the job with `scratch`, returning its alerts in batch
    /// order with global message indices (and truth attached, for a
    /// message job that carries it).
    ///
    /// # Panics
    ///
    /// Panics if a message job's `truth` does not align with `msgs`.
    fn run(self, rules: &RuleSet, scratch: &mut TagScratch) -> Vec<Alert> {
        let mut alerts = Vec::new();
        match self {
            TagJob::Messages {
                base,
                msgs,
                interner,
                truth,
            } => {
                if let Some(t) = truth {
                    assert_eq!(t.len(), msgs.len(), "truth must align with messages");
                }
                for (i, msg) in msgs.iter().enumerate() {
                    if let Some(category) = rules.tag_message_with(msg, interner, scratch) {
                        let mut alert = Alert::new(msg.time, msg.source, category, base + i);
                        if let Some(truth) = truth {
                            alert.failure = truth[i];
                        }
                        alerts.push(alert);
                    }
                }
            }
            TagJob::Lines(batch) => {
                for line in &batch.lines {
                    let raw = &batch.text[line.start..line.end];
                    if let Some(category) = rules.tag_line_with(raw, scratch) {
                        alerts.push(Alert::new(line.time, line.source, category, line.index));
                    }
                }
            }
        }
        alerts
    }
}

/// The `tag` stage and the tagger's prefilter-effectiveness counters
/// ([`TagCounts`]), registered once per run.
#[derive(Debug, Clone, Copy)]
pub struct TagMetrics {
    stage: Stage,
    lines: Counter,
    bytes: Counter,
    gated_out: Counter,
    vm_execs: Counter,
    matches: Counter,
    vm_eligible: Counter,
    dfa_execs: Counter,
    dfa_bailouts: Counter,
    dfa_evictions: Counter,
}

impl TagMetrics {
    /// Registers the stage and counters; call before any thread shard
    /// seals the recorder.
    pub fn register(rec: &Recorder) -> Self {
        TagMetrics {
            stage: rec.stage("tag"),
            lines: rec.counter("tagger.lines"),
            bytes: rec.counter("tagger.bytes"),
            gated_out: rec.counter("tagger.prefilter.gated_out"),
            vm_execs: rec.counter("tagger.prefilter.vm_execs"),
            matches: rec.counter("tagger.prefilter.matches"),
            vm_eligible: rec.counter("tagger.vm.eligible"),
            dfa_execs: rec.counter("tagger.dfa.execs"),
            dfa_bailouts: rec.counter("tagger.dfa.bailouts"),
            dfa_evictions: rec.counter("tagger.dfa.cache_evictions"),
        }
    }

    /// Tags one job on the calling thread under a busy span of the
    /// `tag` stage, then flushes the scratch's tallies into `tr`. The
    /// tallies stay plain `u64`s in the scratch during the batch, so
    /// an enabled recorder adds no per-line cost to the tag loop.
    pub fn run(
        &self,
        tr: &ThreadRecorder,
        rules: &RuleSet,
        scratch: &mut TagScratch,
        job: TagJob<'_>,
    ) -> Vec<Alert> {
        let len = job.len();
        let alerts = {
            let _busy = tr.span(self.stage);
            job.run(rules, scratch)
        };
        let counts = scratch.take_counts();
        tr.stage_items(self.stage, len as u64, counts.bytes);
        self.flush(tr, counts);
        alerts
    }

    fn flush(&self, tr: &ThreadRecorder, counts: TagCounts) {
        tr.add(self.lines, counts.lines);
        tr.add(self.bytes, counts.bytes);
        tr.add(self.gated_out, counts.gated_out);
        tr.add(self.vm_execs, counts.vm_execs);
        tr.add(self.matches, counts.matches);
        tr.add(self.vm_eligible, counts.vm_eligible);
        tr.add(self.dfa_execs, counts.dfa_execs);
        tr.add(self.dfa_bailouts, counts.dfa_bailouts);
        tr.add(self.dfa_evictions, counts.dfa_evictions);
    }
}

struct PoolState<'env> {
    jobs: VecDeque<(u64, TagJob<'env>)>,
    results: VecDeque<TaggedBatch>,
    next_seq: u64,
    delivered: u64,
    closed: bool,
    /// A worker died mid-batch: its result can never arrive, so every
    /// blocked peer must wake and bail instead of waiting out its
    /// Condvar.
    aborted: bool,
}

struct PoolShared<'env> {
    state: Mutex<PoolState<'env>>,
    job_cap: usize,
    job_ready: Condvar,
    job_space: Condvar,
    result_ready: Condvar,
}

impl<'env> PoolShared<'env> {
    /// Locks the pool state, tolerating a poisoned mutex: a dying
    /// worker poisons it merely by taking the lock inside its abort
    /// guard, and the `aborted` flag — not the poison bit — is the
    /// pool's real death signal. Treating poison as fatal here would
    /// turn every cleanup path (including `CloseGuard::drop`, where a
    /// second panic aborts the process) into a crash.
    fn lock(&self) -> sclog_sync::MutexGuard<'_, PoolState<'env>> {
        self.state
            .lock()
            .unwrap_or_else(sclog_sync::PoisonError::into_inner)
    }
}

/// Handle for submitting batches to a running [`TagPool`] scope and
/// collecting tagged results. Shareable across threads (`&PoolClient`
/// is enough), so one stage can submit while another drains.
pub struct PoolClient<'pool, 'env> {
    shared: &'pool PoolShared<'env>,
}

/// The pool entry point; see [`TagPool::scope`].
#[derive(Debug)]
pub struct TagPool;

/// Default bound on queued (not yet claimed) jobs per worker.
pub const JOBS_PER_WORKER: usize = 2;

impl TagPool {
    /// Runs `f` with a pool of `threads` persistent workers tagging
    /// against `rules`. Workers live for the whole call: batches
    /// submitted through the [`PoolClient`] are tagged out of a shared
    /// queue (bounded at `job_cap`, with submission blocking while
    /// full) and handed back as [`TaggedBatch`]es in completion order.
    ///
    /// Each worker records its jobs, busy/queue-wait time and the
    /// prefilter tallies ([`TagMetrics`]) under a `tagger/{i}` thread
    /// label; pass [`Recorder::disabled`] to record nothing.
    ///
    /// When `f` returns, the pool drains remaining jobs and joins its
    /// workers; results not collected by then are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `job_cap` is zero, or if a worker thread
    /// panics (a rule engine bug).
    pub fn scope<'env, R>(
        rules: &'env RuleSet,
        threads: usize,
        job_cap: usize,
        recorder: &Recorder,
        f: impl FnOnce(&PoolClient<'_, 'env>) -> R,
    ) -> R {
        assert!(threads > 0, "need at least one worker");
        assert!(job_cap > 0, "job queue capacity must be positive");
        // Register every metric before the workers spawn — the first
        // per-thread shard seals the recorder's registry.
        let metrics = TagMetrics::register(recorder);
        let shared = PoolShared {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                results: VecDeque::new(),
                next_seq: 0,
                delivered: 0,
                closed: false,
                aborted: false,
            }),
            job_cap,
            job_ready: Condvar::new(),
            job_space: Condvar::new(),
            result_ready: Condvar::new(),
        };
        thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let shared = &shared;
                    thread::spawn_in(scope, move || {
                        worker(shared, rules, recorder.thread(&worker_label(i)), metrics)
                    })
                })
                .collect();
            let client = PoolClient { shared: &shared };
            // Close on every exit path: if `f` panics without this,
            // workers would wait on the job queue forever and the
            // scope's implicit join would deadlock the unwind.
            let guard = CloseGuard(&shared);
            let out = f(&client);
            drop(guard);
            for h in handles {
                h.join().expect("tag pool worker panicked");
            }
            out
        })
    }
}

impl<'env> PoolClient<'_, 'env> {
    /// Submits a job. Blocks while the job queue is full. Returns the
    /// batch's sequence number.
    ///
    /// # Panics
    ///
    /// Panics if called after [`PoolClient::close`], or if a worker
    /// has died.
    pub fn submit(&self, job: TagJob<'env>) -> u64 {
        let mut state = self.shared.lock();
        while state.jobs.len() >= self.shared.job_cap {
            assert!(!state.aborted, "tag pool aborted: a worker died");
            state = self
                .shared
                .job_space
                .wait(state)
                .unwrap_or_else(sclog_sync::PoisonError::into_inner);
        }
        assert!(!state.aborted, "tag pool aborted: a worker died");
        assert!(!state.closed, "submit after close");
        let seq = state.next_seq;
        state.next_seq += 1;
        state.jobs.push_back((seq, job));
        drop(state);
        self.shared.job_ready.notify_one();
        seq
    }

    /// Receives the next completed batch, blocking until one is ready.
    ///
    /// Returns `None` after [`PoolClient::close`] once every submitted
    /// batch has been delivered — the end-of-stream signal for a
    /// consumer running on its own thread. Also returns `None` if a
    /// worker died mid-batch: its result can never arrive, so the
    /// stream ends early and a sequence-ordering consumer (see
    /// `Reassembler::truncation` in `sclog-core`) diagnoses the gap
    /// instead of blocking forever.
    pub fn recv(&self) -> Option<TaggedBatch> {
        let mut state = self.shared.lock();
        loop {
            if let Some(r) = state.results.pop_front() {
                state.delivered += 1;
                return Some(r);
            }
            if state.aborted {
                return None;
            }
            if state.closed && state.delivered == state.next_seq {
                return None;
            }
            state = self
                .shared
                .result_ready
                .wait(state)
                .unwrap_or_else(sclog_sync::PoisonError::into_inner);
        }
    }

    /// Marks the job stream finished: workers exit once the queue
    /// drains, and [`PoolClient::recv`] returns `None` after the last
    /// result. Called automatically when the scope closure returns;
    /// call it earlier from a producer stage that knows it is done.
    pub fn close(&self) {
        let mut state = self.shared.lock();
        state.closed = true;
        drop(state);
        #[cfg(sclog_model)]
        if sclog_sync::model::mutation("pool_close_no_notify") {
            // Seeded bug: close without waking anyone — idle workers
            // stay parked on `job_ready` and a draining consumer on
            // `result_ready`, deadlocking the scope's join.
            return;
        }
        self.shared.job_ready.notify_all();
        self.shared.result_ready.notify_all();
    }
}

impl std::fmt::Debug for PoolClient<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolClient")
            .field("job_cap", &self.shared.job_cap)
            .finish()
    }
}

struct CloseGuard<'pool, 'env>(&'pool PoolShared<'env>);

impl Drop for CloseGuard<'_, '_> {
    fn drop(&mut self) {
        PoolClient { shared: self.0 }.close();
    }
}

/// Worker-exit guard: dropped during a panic (a rule-engine bug took
/// the worker down mid-batch), it flips the pool to `aborted` and
/// wakes every Condvar, so blocked submitters, receivers and idle
/// workers all observe the death promptly instead of deadlocking the
/// scope's join. A normal worker exit leaves the pool untouched.
struct AbortOnPanic<'pool, 'env>(&'pool PoolShared<'env>);

impl Drop for AbortOnPanic<'_, '_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let mut state = match self.0.state.lock() {
            Ok(guard) => guard,
            // The lock is only poisoned by another dying worker, whose
            // state is still fine for setting a flag.
            Err(poisoned) => poisoned.into_inner(),
        };
        state.aborted = true;
        drop(state);
        self.0.job_ready.notify_all();
        self.0.job_space.notify_all();
        self.0.result_ready.notify_all();
    }
}

/// Report label for worker `i`.
fn worker_label(i: usize) -> String {
    format!("tagger/{i}")
}

fn worker(shared: &PoolShared<'_>, rules: &RuleSet, tr: ThreadRecorder, metrics: TagMetrics) {
    let _abort = AbortOnPanic(shared);
    let mut scratch = TagScratch::new();
    loop {
        let job = {
            // Time spent here is queue wait: the worker is starved (or
            // draining at close), not working. The wake-up notify is
            // inside the span so lock handoff counts as wait too.
            let _wait = tr.wait_span(metrics.stage);
            let mut state = shared.lock();
            let job = loop {
                if state.aborted {
                    return;
                }
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.closed {
                    return;
                }
                state = shared
                    .job_ready
                    .wait(state)
                    .unwrap_or_else(sclog_sync::PoisonError::into_inner);
            };
            drop(state);
            shared.job_space.notify_one();
            job
        };
        let (seq, job) = job;
        let len = job.len();
        let alerts = metrics.run(&tr, rules, &mut scratch, job);
        let result = TaggedBatch { seq, len, alerts };
        {
            // Delivering the result contends on the same pool lock the
            // consumer drains — queue wait, not tagging work.
            let _wait = tr.wait_span(metrics.stage);
            let mut state = shared.lock();
            state.results.push_back(result);
            drop(state);
            shared.result_ready.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_types::{CategoryRegistry, Severity, SystemId};

    fn job<'a>(base: usize, msgs: &'a [Message], interner: &'a SourceInterner) -> TagJob<'a> {
        TagJob::Messages {
            base,
            msgs,
            interner,
            truth: None,
        }
    }

    fn liberty_fixture() -> (RuleSet, SourceInterner, Vec<Message>) {
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
        let mut interner = SourceInterner::new();
        let source = interner.intern("ln4");
        let msgs: Vec<Message> = (0..1000)
            .map(|i| {
                let body = if i % 5 == 0 {
                    "task_check, cannot tm_reply to 9 task 1"
                } else {
                    "quiet line with nothing of note"
                };
                Message::new(
                    SystemId::Liberty,
                    Timestamp::from_secs(1_102_809_600 + i),
                    source,
                    "pbs_mom",
                    Severity::None,
                    body,
                )
            })
            .collect();
        (rules, interner, msgs)
    }

    #[test]
    fn pool_matches_serial_over_many_batches() {
        let (rules, interner, msgs) = liberty_fixture();
        let serial = rules.tag_messages(&msgs, &interner);
        // Force a real multi-worker pool regardless of host CPU count.
        let mut batches = TagPool::scope(&rules, 3, 2, &Recorder::disabled(), |pool| {
            for (k, chunk) in msgs.chunks(64).enumerate() {
                pool.submit(job(k * 64, chunk, &interner));
            }
            pool.close();
            std::iter::from_fn(|| pool.recv()).collect::<Vec<_>>()
        });
        batches.sort_by_key(|b| b.seq);
        let merged: Vec<Alert> = batches.into_iter().flat_map(|b| b.alerts).collect();
        assert_eq!(merged, serial.alerts);
    }

    #[test]
    fn truth_is_fused_when_given() {
        let (rules, interner, msgs) = liberty_fixture();
        let truth: Vec<Option<FailureId>> = (0..msgs.len() as u64)
            .map(|i| (i % 5 == 0).then_some(FailureId(i)))
            .collect();
        let alerts = TagPool::scope(&rules, 2, 4, &Recorder::disabled(), |pool| {
            pool.submit(TagJob::Messages {
                base: 0,
                msgs: &msgs,
                interner: &interner,
                truth: Some(&truth),
            });
            pool.recv().expect("one batch").alerts
        });
        assert!(!alerts.is_empty());
        for a in &alerts {
            assert_eq!(a.failure, truth[a.message_index], "fused truth joins");
        }
    }

    #[test]
    fn line_batches_tag_raw_text() {
        let (rules, _, _) = liberty_fixture();
        let l1 = "Mar  7 14:30:05 dn228 pbs_mom: task_check, cannot tm_reply to 4418 task 1";
        let l2 = "Mar  7 14:30:06 dn228 pbs_mom: all quiet";
        let mut text = String::new();
        let mut lines = Vec::new();
        for (i, l) in [l1, l2].iter().enumerate() {
            let start = text.len();
            text.push_str(l);
            lines.push(LineRef {
                start,
                end: text.len(),
                index: 10 + i,
                time: Timestamp::from_secs(1_102_809_600 + i as i64),
                source: NodeId::from_index(3),
            });
        }
        let batch = TagPool::scope(&rules, 2, 2, &Recorder::disabled(), |pool| {
            pool.submit(TagJob::Lines(LineBatch { text, lines }));
            pool.recv().expect("one batch")
        });
        assert_eq!(batch.len, 2);
        assert_eq!(batch.alerts.len(), 1, "only the PBS line tags");
        assert_eq!(batch.alerts[0].message_index, 10);
        assert_eq!(batch.alerts[0].source, NodeId::from_index(3));
    }

    #[test]
    fn recv_returns_none_after_close_and_drain() {
        let (rules, interner, msgs) = liberty_fixture();
        TagPool::scope(&rules, 2, 2, &Recorder::disabled(), |pool| {
            pool.submit(job(0, &msgs[..10], &interner));
            pool.close();
            assert!(pool.recv().is_some());
            assert!(pool.recv().is_none());
            assert!(pool.recv().is_none(), "end of stream is sticky");
        });
    }

    #[test]
    fn consumer_on_other_thread_sees_all_batches() {
        let (rules, interner, msgs) = liberty_fixture();
        let n_batches = 10;
        let total = TagPool::scope(&rules, 2, 2, &Recorder::disabled(), |pool| {
            std::thread::scope(|s| {
                let consumer = s.spawn(|| {
                    let mut seen = 0u64;
                    while pool.recv().is_some() {
                        seen += 1;
                    }
                    seen
                });
                for (k, chunk) in msgs.chunks(msgs.len() / n_batches).enumerate() {
                    pool.submit(job(k, chunk, &interner));
                }
                pool.close();
                consumer.join().expect("consumer")
            })
        });
        assert_eq!(total, n_batches as u64);
    }

    #[test]
    fn seq_numbers_follow_submission_order() {
        let (rules, interner, msgs) = liberty_fixture();
        TagPool::scope(&rules, 4, 8, &Recorder::disabled(), |pool| {
            for (k, chunk) in msgs.chunks(100).enumerate() {
                let seq = pool.submit(job(k * 100, chunk, &interner));
                assert_eq!(seq, k as u64);
            }
        });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
        TagPool::scope(&rules, 0, 1, &Recorder::disabled(), |_| ());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_cap_rejected() {
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
        TagPool::scope(&rules, 1, 0, &Recorder::disabled(), |_| ());
    }

    #[test]
    fn scope_with_records_tag_stage_and_prefilter_counters() {
        let (rules, interner, msgs) = liberty_fixture();
        let rec = Recorder::new();
        TagPool::scope(&rules, 2, 4, &rec, |pool| {
            for (k, chunk) in msgs.chunks(100).enumerate() {
                pool.submit(job(k * 100, chunk, &interner));
            }
            pool.close();
            while pool.recv().is_some() {}
        });
        let report = rec.snapshot().report();
        assert_eq!(report.counter("tagger.lines"), Some(msgs.len() as u64));
        let matches = report.counter("tagger.prefilter.matches").unwrap();
        assert_eq!(matches, 200, "every fifth fixture line tags");
        let execs = report.counter("tagger.prefilter.vm_execs").unwrap();
        let gated = report.counter("tagger.prefilter.gated_out").unwrap();
        assert!(execs >= matches, "a match costs at least one execution");
        assert!(
            gated + execs >= msgs.len() as u64 - matches,
            "every untagged line is gated out or ran some regex"
        );
        let tag = report.stage("tag").expect("tag stage recorded");
        assert_eq!(tag.items, msgs.len() as u64);
        assert_eq!(tag.spans, 10, "one span per submitted batch");
        assert!(tag.bytes > 0);
        assert_eq!(report.workers.len(), 2);
        assert!(report.workers.iter().any(|w| w.label == "tagger/0"));
        assert!(report.workers.iter().any(|w| w.label == "tagger/1"));
    }

    /// A batch that panics the worker claiming it: the line span
    /// points past the end of the text, so the slice in `TagJob::run`
    /// blows up — the closest thing to a rule-engine bug we can
    /// inject from outside the crate's internals.
    fn poison_batch() -> LineBatch {
        LineBatch {
            text: "short".into(),
            lines: vec![LineRef {
                start: 0,
                end: 999,
                index: 0,
                time: Timestamp::from_secs(0),
                source: NodeId::from_index(0),
            }],
        }
    }

    #[test]
    fn dead_worker_ends_the_stream_instead_of_hanging() {
        // ISSUE-6 kill-one-worker regression: a worker dying mid-batch
        // must end the consumer's result stream (recv -> None) rather
        // than leave it waiting forever for a result that cannot come,
        // and the worker's panic must still surface out of the scope.
        let (rules, _, _) = liberty_fixture();
        let observed = std::sync::Arc::new(std::sync::Mutex::new(None::<u64>));
        let obs = std::sync::Arc::clone(&observed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            TagPool::scope(&rules, 2, 2, &Recorder::disabled(), |pool| {
                std::thread::scope(|s| {
                    let consumer = s.spawn(|| {
                        let mut seen = 0u64;
                        while pool.recv().is_some() {
                            seen += 1;
                        }
                        seen
                    });
                    pool.submit(TagJob::Lines(poison_batch()));
                    // No close() here: only the abort path can end the
                    // consumer's stream.
                    let seen = consumer.join().expect("consumer survives");
                    *obs.lock().unwrap() = Some(seen);
                })
            })
        }));
        assert!(outcome.is_err(), "worker panic propagates from the scope");
        let seen = observed
            .lock()
            .unwrap()
            .expect("consumer ran to completion");
        assert_eq!(seen, 0, "the poisoned batch is never delivered");
    }

    #[test]
    fn blocked_submitter_wakes_when_a_worker_dies() {
        // The producer side of the same regression: a submitter parked
        // on a full job queue (or racing the death) must wake and fail
        // loudly, not sleep through the abort.
        let (rules, _, _) = liberty_fixture();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            TagPool::scope(&rules, 1, 1, &Recorder::disabled(), |pool| loop {
                pool.submit(TagJob::Lines(poison_batch()));
            })
        }));
        let panic = outcome.expect_err("submitting into a dead pool fails");
        let msg = panic
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("worker died") || msg.contains("worker panicked"),
            "unexpected panic payload: {msg}"
        );
    }

    #[test]
    fn debug_impl() {
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
        TagPool::scope(&rules, 1, 1, &Recorder::disabled(), |pool| {
            assert!(format!("{pool:?}").contains("job_cap"));
        });
    }
}
