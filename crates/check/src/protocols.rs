//! Reusable protocol drivers for the model-check harnesses.
//!
//! Each driver runs one concurrent scenario over the *real* workspace
//! protocols (the bounded channel, the tag pool, the recorder, the
//! in-flight gauge) through the `sclog-sync` facade, and asserts its
//! correctness properties inline — so under `Model::check` every
//! assertion holds on every explored schedule, while a plain native
//! call (normal builds) still exercises the driver once.
//!
//! Everything synchronized is constructed *inside* the driver: model
//! primitives are registered per execution and must not leak across
//! schedules.

use sclog_core::pipeline::channel::{bounded, TrySendError};
use sclog_core::pipeline::InFlightGauge;
use sclog_obs::Recorder;
use sclog_rules::{LineBatch, RuleSet, TagJob, TagPool};
use sclog_sync::atomic::{AtomicBool, Ordering};
use sclog_sync::thread;
use sclog_sync::{Condvar, Mutex, PoisonError};

/// Tag a producer's `i`-th value so loss, duplication and per-producer
/// order are all checkable from the received multiset.
fn stamp(producer: usize, i: usize) -> u64 {
    ((producer as u64) << 32) | i as u64
}

/// `producers` threads each send `per_producer` stamped values through
/// a `capacity`-bounded channel; the calling thread consumes. Asserts
/// no message is lost or duplicated and each producer's values arrive
/// in order (FIFO per sender — the channel's delivery guarantee).
pub fn channel_no_loss(producers: usize, per_producer: usize, capacity: usize) {
    let (tx, rx) = bounded::<u64>(capacity);
    let mut got = Vec::new();
    thread::scope(|s| {
        for p in 0..producers {
            let tx = tx.clone();
            thread::spawn_in(s, move || {
                for i in 0..per_producer {
                    tx.send(stamp(p, i)).expect("receiver outlives producers");
                }
            });
        }
        drop(tx);
        while let Some(v) = rx.recv() {
            got.push(v);
        }
    });
    assert_eq!(got.len(), producers * per_producer, "message loss");
    let mut next = vec![0usize; producers];
    for v in got {
        let (p, i) = ((v >> 32) as usize, (v & 0xffff_ffff) as usize);
        assert_eq!(i, next[p], "producer {p} out of order or duplicated");
        next[p] = i + 1;
    }
}

/// The PR 6 bug shape: the receiver leaves while senders may still be
/// blocked on a full ring. Every such sender must wake and observe the
/// disconnect (send returns `Err`) instead of sleeping forever.
pub fn channel_close_while_blocked() {
    let (tx, rx) = bounded::<u64>(1);
    thread::scope(|s| {
        for p in 0..2u64 {
            let tx = tx.clone();
            thread::spawn_in(s, move || {
                // Sends race the receiver's departure; failing with
                // the value returned is fine, hanging is the bug.
                let _ = tx.send(p);
                let _ = tx.send(p + 10);
            });
        }
        drop(tx);
        assert!(rx.recv().is_some(), "at least one send lands");
        drop(rx);
    });
}

/// Request/reply over two capacity-1 channels. The responder only ever
/// learns about a request from the sender's wakeup, so a send that
/// skips its `notify` deadlocks the pair — the scenario that pins the
/// `send_skip_notify_ready` mutant.
pub fn channel_ping_pong(rounds: usize) {
    let (req_tx, req_rx) = bounded::<u64>(1);
    let (rep_tx, rep_rx) = bounded::<u64>(1);
    thread::scope(|s| {
        thread::spawn_in(s, move || {
            while let Some(v) = req_rx.recv() {
                rep_tx.send(v + 1).expect("requester awaits the reply");
            }
        });
        for i in 0..rounds as u64 {
            req_tx.send(i).expect("responder alive");
            assert_eq!(rep_rx.recv(), Some(i + 1), "reply matches request");
        }
        drop(req_tx);
    });
}

/// The streaming pipeline's permit protocol in miniature: a producer
/// takes a permit then raises the in-flight gauge, the consumer lowers
/// the gauge then returns the permit. The gauge's hard bound (a
/// `model_assert!` inside `PeakGauge::add`) must hold on every
/// schedule, and a registered invariant re-checks it at every
/// scheduling point in between.
pub fn gauge_permit_protocol(bound: usize, batches: usize) {
    let gauge = InFlightGauge::new(bound);
    #[cfg(sclog_model)]
    {
        let g = gauge.clone();
        sclog_sync::model::register_invariant("in_flight_within_bound", move || {
            let current = g.current_batches();
            assert!(
                current <= bound,
                "{current} batches in flight, bound {bound}"
            );
        });
    }
    let (permit_tx, permit_rx) = bounded::<()>(bound);
    let (tx, rx) = bounded::<usize>(bound);
    thread::scope(|s| {
        let gauge = &gauge;
        thread::spawn_in(s, move || {
            while let Some(len) = rx.recv() {
                gauge.release(len);
                let _ = permit_rx.recv();
            }
        });
        for _ in 0..batches {
            permit_tx.send(()).expect("consumer outlives producer");
            gauge.acquire(1);
            tx.send(1).expect("consumer outlives producer");
        }
        drop(tx);
        drop(permit_tx);
    });
    assert_eq!(gauge.current_batches(), 0, "permit accounting leaked");
    assert!(gauge.peak_batches() <= bound, "gauge peak exceeded bound");
}

/// Submit `batches` empty line batches to a [`TagPool`] and drain the
/// results. Covers the pool's job/result queues and the close/drain
/// handshake: every submitted batch must come back exactly once, and
/// the scope's worker join must terminate.
pub fn tagpool_close_drain(rules: &RuleSet, workers: usize, job_cap: usize, batches: usize) {
    let delivered = TagPool::scope(rules, workers, job_cap, &Recorder::disabled(), |pool| {
        for _ in 0..batches {
            pool.submit(TagJob::Lines(LineBatch::default()));
        }
        pool.close();
        let mut seqs: Vec<u64> = std::iter::from_fn(|| pool.recv()).map(|b| b.seq).collect();
        seqs.sort_unstable();
        seqs
    });
    let want: Vec<u64> = (0..batches as u64).collect();
    assert_eq!(delivered, want, "batch lost, duplicated, or invented");
}

/// Two threads race to create their recorder shards (which seals the
/// registry) and write to a pre-registered counter. The merged
/// snapshot must see both shards and the exact total — no torn
/// registration, no lost shard.
pub fn recorder_shard_registration() {
    let rec = Recorder::new();
    let c = rec.counter("check.writes");
    thread::scope(|s| {
        for i in 0..2 {
            let rec = &rec;
            thread::spawn_in(s, move || {
                let tr = rec.thread(&format!("shard/{i}"));
                tr.add(c, 1 + i);
            });
        }
    });
    let snap = rec.snapshot();
    assert_eq!(snap.counter("check.writes"), Some(3), "shard writes lost");
    assert_eq!(snap.as_report().workers.len(), 0, "no stage spans expected");
}

/// The sclogd accept/shutdown handshake, shaped without sockets: an
/// accept thread `try_send`s "connections" into the bounded ring until
/// the shutdown latch flips (refusing with a 503 when the ring is
/// full), a worker drains until the sender disconnects. Every accepted
/// connection must be served or refused — never stranded — and both
/// threads must terminate.
pub fn server_shutdown_handshake() {
    let shutdown = AtomicBool::new(false);
    let (conn_tx, conn_rx) = bounded::<u64>(1);
    let mut served = 0u64;
    let mut accepted = 0u64;
    let mut refused = 0u64;
    thread::scope(|s| {
        let shutdown = &shutdown;
        let worker = thread::spawn_in(s, move || {
            let mut n = 0u64;
            while conn_rx.recv().is_some() {
                n += 1;
            }
            n
        });
        let accept = thread::spawn_in(s, move || {
            let mut accepted = 0u64;
            let mut refused = 0u64;
            for conn in 0..3u64 {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match conn_tx.try_send(conn) {
                    Ok(()) => accepted += 1,
                    Err(TrySendError::Full(_)) => refused += 1,
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            (accepted, refused)
        });
        shutdown.store(true, Ordering::SeqCst);
        (accepted, refused) = accept.join().expect("accept thread");
        served = worker.join().expect("worker thread");
    });
    assert_eq!(served, accepted, "accepted connection stranded in the ring");
    assert!(accepted + refused <= 3, "phantom connections");
}

/// The sclogd timeline sampler's shutdown handshake
/// (`crates/sclogd/src/sampler.rs`), shaped without a clock: the
/// sampler parks on a condvar under the stop mutex and counts a
/// "sample" whenever it wakes with the flag still down; the stopping
/// side raises the flag under the same mutex, notifies, and joins.
/// The production wait carries a timeout; here it is a plain `wait`,
/// with the model's injected spurious wakeups standing in for timer
/// ticks — so the proof that the stop notify is never lost does not
/// lean on the clock bailing the thread out, which is strictly
/// stronger than what production needs. A stop that skips its notify
/// (the `sampler_stop_skip_notify` mutant) must strand the parked
/// sampler forever.
pub fn sampler_shutdown_handshake() {
    let stop = Mutex::new(false);
    let wake = Condvar::new();
    thread::scope(|s| {
        let (stop, wake) = (&stop, &wake);
        let sampler = thread::spawn_in(s, move || {
            let mut ticks = 0u64;
            let mut flag = stop.lock().unwrap_or_else(PoisonError::into_inner);
            while !*flag {
                flag = wake.wait(flag).unwrap_or_else(PoisonError::into_inner);
                if !*flag {
                    // In production this arm is a timer tick: take a
                    // sample, go back to sleep.
                    ticks += 1;
                }
            }
            ticks
        });
        *stop.lock().unwrap_or_else(PoisonError::into_inner) = true;
        #[cfg(sclog_model)]
        if sclog_sync::model::mutation("sampler_stop_skip_notify") {
            // Seeded bug: raise the flag but never wake the sampler.
            // With no timeout to bail it out, it stays parked and the
            // scope join deadlocks.
            return;
        }
        wake.notify_one();
        let _ticks = sampler.join().expect("sampler thread");
        assert!(
            *stop.lock().unwrap_or_else(PoisonError::into_inner),
            "stop flag must still be raised after the join"
        );
    });
}
