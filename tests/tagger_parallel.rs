//! Regression: pooled tagging must be byte-identical to serial tagging
//! for every thread count, on a realistic generated log large enough
//! to spread over many batches and workers (≥ 4096 messages).

use sclog::obs::Recorder;
use sclog::rules::{RuleSet, TagJob, TagPool};
use sclog::simgen::{generate, Scale};
use sclog::types::{Alert, CategoryRegistry, Message, SourceInterner, SystemId};

/// Tags `msgs` on a pool of `threads` workers in batches of `batch`
/// messages and reassembles the alerts in submission order.
fn pooled_alerts(
    rules: &RuleSet,
    msgs: &[Message],
    interner: &SourceInterner,
    threads: usize,
    batch: usize,
) -> Vec<Alert> {
    let mut batches = TagPool::scope(rules, threads, 2, &Recorder::disabled(), |pool| {
        for (k, chunk) in msgs.chunks(batch).enumerate() {
            pool.submit(TagJob::Messages {
                base: k * batch,
                msgs: chunk,
                interner,
                truth: None,
            });
        }
        pool.close();
        std::iter::from_fn(|| pool.recv()).collect::<Vec<_>>()
    });
    batches.sort_by_key(|b| b.seq);
    batches.into_iter().flat_map(|b| b.alerts).collect()
}

#[test]
fn parallel_tagging_is_identical_for_thread_counts_1_through_8() {
    let log = generate(SystemId::Liberty, Scale::new(0.01, 0.00003), 11);
    assert!(
        log.messages.len() >= 4096,
        "need enough messages to engage many batches, got {}",
        log.messages.len()
    );
    let mut registry = CategoryRegistry::new();
    let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
    let serial = rules.tag_messages(&log.messages, &log.interner);
    for threads in 1..=8 {
        let parallel = pooled_alerts(&rules, &log.messages, &log.interner, threads, 512);
        assert_eq!(
            serial.alerts, parallel,
            "thread count {threads} diverged from serial"
        );
    }
}

#[test]
fn parallel_tagging_handles_chunk_boundary_counts() {
    // Batch sizes that do not divide the message count evenly stress
    // the base-index arithmetic of the last (short) batch.
    let log = generate(SystemId::Spirit, Scale::new(0.0002, 0.00002), 13);
    let mut registry = CategoryRegistry::new();
    let rules = RuleSet::builtin(SystemId::Spirit, &mut registry);
    let serial = rules.tag_messages(&log.messages, &log.interner);
    for threads in [3, 5, 7] {
        for batch in [1, 7, 61] {
            let parallel = pooled_alerts(&rules, &log.messages, &log.interner, threads, batch);
            assert_eq!(serial.alerts, parallel, "threads={threads} batch={batch}");
        }
    }
}
