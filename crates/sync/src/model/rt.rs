//! The deterministic scheduler at the heart of model mode.
//!
//! One model execution = one run of the checked closure with every
//! facade operation routed through [`Runtime`]. Exactly one model
//! thread is ever runnable-and-running; each facade op is a *yield
//! point* where the scheduler picks the next thread to perform its
//! pending operation. The sequence of picks is the schedule; the DFS
//! in [`super::Model::check`] enumerates schedules by replaying a
//! recorded decision prefix and taking the first untried legal
//! alternative at the deepest branch (see DESIGN.md §14).

use std::collections::{HashSet, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe, Location};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};

use sclog_desim::RngStream;

use super::{Failure, FailureKind, ModelAbort};

/// How many trailing trace events a failure report keeps.
const TRACE_CAP: usize = 64;

/// Probability that the PCT sampler injects a spurious wakeup at a
/// decision point where one is possible and budget remains.
const PCT_SPURIOUS_P: f64 = 0.125;

static EPOCHS: StdAtomicU64 = StdAtomicU64::new(0);

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Runtime>, usize)>> =
        const { std::cell::RefCell::new(None) };
    static IN_MODEL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static IN_EXPLORER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static IN_INVARIANT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static LAST_PANIC: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

/// What a model thread is waiting for. A thread parked at a yield
/// point is *schedulable* iff its status's precondition holds, so the
/// scheduler never wastes a choice on a thread that would immediately
/// re-block (and a state with no schedulable unfinished thread is, by
/// construction, a deadlock).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    /// At a yield point whose operation can always proceed.
    Runnable,
    /// Wants to acquire mutex `.0`.
    BlockedMutex(usize),
    /// Parked in `Condvar::wait`; only a notify or an injected
    /// spurious wakeup moves it to `Reacquire`.
    BlockedCondvar { cv: usize, mutex: usize },
    /// Woken from a wait; wants to reacquire mutex `.0`.
    Reacquire(usize),
    /// Wants a read lock on rwlock `.0`.
    BlockedRead(usize),
    /// Wants the write lock on rwlock `.0`.
    BlockedWrite(usize),
    /// Joining thread `.0`.
    BlockedJoin(usize),
    /// Done (normally or by abort-unwind).
    Finished,
}

impl Status {
    fn describe(&self) -> String {
        match self {
            Status::Runnable => "runnable".to_string(),
            Status::BlockedMutex(m) => format!("blocked locking mutex #{m}"),
            Status::BlockedCondvar { cv, .. } => {
                format!("waiting on condvar #{cv} (no pending notify)")
            }
            Status::Reacquire(m) => format!("reacquiring mutex #{m} after wakeup"),
            Status::BlockedRead(l) => format!("blocked on read lock #{l}"),
            Status::BlockedWrite(l) => format!("blocked on write lock #{l}"),
            Status::BlockedJoin(t) => format!("joining t{t}"),
            Status::Finished => "finished".to_string(),
        }
    }
}

/// Per-object scheduler state. Object ids are assigned in first-use
/// order within an execution, which is deterministic per schedule.
pub(crate) enum Obj {
    /// A mutex: which thread logically holds it.
    Mutex { held_by: Option<usize> },
    /// A condvar: FIFO queue of waiting thread ids.
    Condvar { waiters: Vec<usize> },
    /// A reader-writer lock.
    RwLock {
        writer: Option<usize>,
        readers: Vec<usize>,
    },
    /// An atomic cell (bool/u64/usize all model as u64).
    Atomic { value: u64 },
}

pub(crate) struct ThreadState {
    pub(crate) status: Status,
    /// Operations performed so far — part of the state hash, so two
    /// states only merge when every thread is at the same point of
    /// its own history.
    ops: u64,
    site: &'static Location<'static>,
    name: String,
}

/// One decision point on the DFS path.
#[derive(Clone, Debug)]
pub(crate) struct Branch {
    /// Number of choices that existed here (replay divergence check).
    pub(crate) n: usize,
    /// Index of the choice taken on the current execution.
    pub(crate) taken: usize,
    /// Whether the previously running thread was still schedulable.
    /// If so, choice 0 is "continue it" and every other choice is a
    /// preemption; if not, the switch is forced and free.
    pub(crate) prev_runnable: bool,
    /// Preemptions consumed before this decision.
    pub(crate) preemptions_before: usize,
    /// State hash at this decision, inserted into the done-state set
    /// once the whole subtree below it has been explored.
    pub(crate) hash: u64,
}

#[derive(Clone, Copy, Debug)]
enum Choice {
    /// Schedule thread `.0` to perform its pending operation.
    Run(usize),
    /// Spuriously wake condvar-waiter `.0` and schedule it.
    Spurious(usize),
}

/// Scheduling strategy for one execution.
pub(crate) enum Mode {
    /// Replay `path[..]`, then extend depth-first (choice 0).
    Dfs { path: Vec<Branch>, cursor: usize },
    /// PCT-style randomized priorities with change points.
    Pct {
        rng: RngStream,
        prios: Vec<u64>,
        change_points: Vec<u64>,
        next_low: u64,
    },
}

pub(crate) struct SchedState {
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) objects: Vec<Obj>,
    running: Option<usize>,
    mode: Mode,
    preemptions: usize,
    spurious_left: u32,
    pub(crate) steps: u64,
    trace: VecDeque<String>,
    pub(crate) failure: Option<Failure>,
    pub(crate) aborting: bool,
    pub(crate) pruned_exit: bool,
    done: bool,
}

/// Per-execution limits and knobs, copied from the `Model` builder.
/// (The preemption bound lives in the explorer, not here: it
/// constrains which DFS alternatives are *generated*, never how a
/// single execution runs.)
pub(crate) struct ExecCfg {
    pub(crate) max_steps: u64,
    /// Active seeded-mutation name; only read by `model::mutation`,
    /// which exists solely under `--cfg sclog_model`.
    #[cfg_attr(not(sclog_model), allow(dead_code))]
    pub(crate) mutation: Option<String>,
    pub(crate) pruning: bool,
}

type Invariant = (String, Box<dyn Fn() + Send + Sync>);

/// The shared scheduler for one model execution. Every model thread
/// holds an `Arc` to it; the explorer holds one more and reads the
/// outcome after `wait_done`.
pub struct Runtime {
    sched: StdMutex<SchedState>,
    cv: StdCondvar,
    invariants: StdMutex<Vec<Invariant>>,
    pub(crate) cfg: ExecCfg,
    done_states: Arc<StdMutex<HashSet<u64>>>,
    pub(crate) epoch: u64,
}

fn abort_unwind() -> ! {
    std::panic::resume_unwind(Box::new(ModelAbort))
}

impl Runtime {
    pub(crate) fn new(cfg: ExecCfg, mode: Mode, spurious_budget: u32) -> Arc<Self> {
        Self::with_done_states(cfg, mode, spurious_budget, Arc::default())
    }

    pub(crate) fn with_done_states(
        cfg: ExecCfg,
        mode: Mode,
        spurious_budget: u32,
        done_states: Arc<StdMutex<HashSet<u64>>>,
    ) -> Arc<Self> {
        Arc::new(Runtime {
            sched: StdMutex::new(SchedState {
                threads: Vec::new(),
                objects: Vec::new(),
                // The root thread registers as t0 and starts
                // pre-scheduled; its first pick is not a decision.
                running: Some(0),
                mode,
                preemptions: 0,
                spurious_left: spurious_budget,
                steps: 0,
                trace: VecDeque::new(),
                failure: None,
                aborting: false,
                pruned_exit: false,
                done: false,
            }),
            cv: StdCondvar::new(),
            invariants: StdMutex::new(Vec::new()),
            cfg,
            done_states,
            epoch: EPOCHS.fetch_add(1, Ordering::Relaxed) + 1,
        })
    }

    /// The runtime and model-thread index of the calling OS thread,
    /// if it is a model thread of a live execution.
    pub(crate) fn current() -> Option<(Arc<Runtime>, usize)> {
        CURRENT.with(|c| c.borrow().clone())
    }

    pub(crate) fn set_current(rt: Arc<Runtime>, me: usize) {
        CURRENT.with(|c| *c.borrow_mut() = Some((rt, me)));
        IN_MODEL.set(true);
    }

    pub(crate) fn in_invariant() -> bool {
        IN_INVARIANT.get()
    }

    pub(crate) fn take_last_panic() -> Option<String> {
        LAST_PANIC.take()
    }

    /// Mark the calling (explorer) thread for the duration of
    /// [`run_execution`](super::Model::check)'s inner scope: std's
    /// "a scoped thread panicked" re-panic lands on it at every
    /// aborted execution's teardown and must not hit stderr.
    pub(crate) fn set_in_explorer(v: bool) {
        IN_EXPLORER.set(v);
    }

    /// Install the process-wide panic hook that silences panics on
    /// model threads (they are captured and reported through
    /// [`Failure`] instead) and scoped-join teardown noise on the
    /// explorer thread, while deferring to the previous hook
    /// everywhere else.
    pub(crate) fn install_panic_hook() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if IN_MODEL.get() {
                    LAST_PANIC.with(|p| *p.borrow_mut() = Some(info.to_string()));
                } else if IN_EXPLORER.get() && info.to_string().contains("scoped thread panicked") {
                    // Expected teardown shape; the explorer swallows
                    // the payload right after this hook runs.
                } else {
                    prev(info);
                }
            }));
        });
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.sched
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn is_aborting(&self) -> bool {
        self.lock().aborting
    }

    /// Register a new model thread; returns its index. The thread
    /// becomes a scheduling choice immediately but does not run until
    /// picked (its OS thread parks in [`Runtime::thread_start`]).
    pub(crate) fn register_thread(&self, name: &str, site: &'static Location<'static>) -> usize {
        let mut st = self.lock();
        let idx = st.threads.len();
        st.threads.push(ThreadState {
            status: Status::Runnable,
            ops: 0,
            site,
            name: name.to_string(),
        });
        if let Mode::Pct { rng, prios, .. } = &mut st.mode {
            prios.push(1_000_000 + rng.below(1_000_000));
        }
        idx
    }

    pub(crate) fn register_obj(&self, obj: Obj) -> usize {
        let mut st = self.lock();
        st.objects.push(obj);
        st.objects.len() - 1
    }

    pub(crate) fn register_invariant(&self, name: &str, f: Box<dyn Fn() + Send + Sync>) {
        self.invariants
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((name.to_string(), f));
    }

    fn check_invariants(self: &Arc<Self>) {
        let invs = self
            .invariants
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if invs.is_empty() {
            return;
        }
        IN_INVARIANT.set(true);
        for (name, f) in invs.iter() {
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                IN_INVARIANT.set(false);
                let msg = LAST_PANIC
                    .take()
                    .unwrap_or_else(|| "invariant closure panicked".to_string());
                let msg = format!("invariant '{name}' violated: {msg}");
                drop(invs);
                let mut st = self.lock();
                self.record_failure_locked(&mut st, FailureKind::Invariant, msg);
                drop(st);
                abort_unwind();
            }
        }
        IN_INVARIANT.set(false);
    }

    fn record_failure_locked(&self, st: &mut SchedState, kind: FailureKind, message: String) {
        // First failure wins; and once an abort (failure or prune
        // exit) is underway, secondary panics from the teardown
        // itself — e.g. std scope's "a scoped thread panicked"
        // replacement payload — are noise, not findings.
        if st.failure.is_none() && !st.aborting {
            let path = match &st.mode {
                Mode::Dfs { path, .. } => path.iter().map(|b| b.taken).collect(),
                Mode::Pct { .. } => Vec::new(),
            };
            st.failure = Some(Failure {
                kind,
                message,
                trace: st.trace.iter().cloned().collect(),
                path,
            });
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    /// Record a real (non-abort) panic from a model thread.
    pub(crate) fn record_panic(&self, me: usize, msg: String) {
        let mut st = self.lock();
        let name = st.threads[me].name.clone();
        self.record_failure_locked(
            &mut st,
            FailureKind::Panic,
            format!("t{me} ({name}) panicked: {msg}"),
        );
    }

    fn is_runnable(st: &SchedState, t: usize) -> bool {
        match st.threads[t].status {
            Status::Runnable => true,
            Status::BlockedMutex(m) | Status::Reacquire(m) => {
                matches!(st.objects[m], Obj::Mutex { held_by: None })
            }
            Status::BlockedCondvar { .. } => false,
            Status::BlockedRead(l) => {
                matches!(st.objects[l], Obj::RwLock { writer: None, .. })
            }
            Status::BlockedWrite(l) => {
                matches!(&st.objects[l], Obj::RwLock { writer: None, readers } if readers.is_empty())
            }
            Status::BlockedJoin(t2) => st.threads[t2].status == Status::Finished,
            Status::Finished => false,
        }
    }

    /// All choices at this decision point: schedulable threads
    /// (previously running thread first, so choice 0 never preempts),
    /// then — only if at least one thread can actually run — spurious
    /// wakeups. A state where *only* a spurious wakeup could make
    /// progress is a lost wakeup, and must be reported as a deadlock
    /// rather than silently rescued.
    fn compute_choices(st: &SchedState, prev: Option<usize>) -> Vec<Choice> {
        let mut out = Vec::new();
        if let Some(p) = prev {
            if Self::is_runnable(st, p) {
                out.push(Choice::Run(p));
            }
        }
        for t in 0..st.threads.len() {
            if Some(t) != prev && Self::is_runnable(st, t) {
                out.push(Choice::Run(t));
            }
        }
        if out.is_empty() {
            return out;
        }
        if st.spurious_left > 0 {
            for t in 0..st.threads.len() {
                if let Status::BlockedCondvar { mutex, .. } = st.threads[t].status {
                    if matches!(st.objects[mutex], Obj::Mutex { held_by: None }) {
                        out.push(Choice::Spurious(t));
                    }
                }
            }
        }
        out
    }

    fn state_hash(st: &SchedState) -> u64 {
        let mut h = DefaultHasher::new();
        st.threads.len().hash(&mut h);
        for t in &st.threads {
            t.ops.hash(&mut h);
            match t.status {
                Status::Runnable => 0u8.hash(&mut h),
                Status::BlockedMutex(m) => (1u8, m).hash(&mut h),
                Status::BlockedCondvar { cv, mutex } => (2u8, cv, mutex).hash(&mut h),
                Status::Reacquire(m) => (3u8, m).hash(&mut h),
                Status::BlockedRead(l) => (4u8, l).hash(&mut h),
                Status::BlockedWrite(l) => (5u8, l).hash(&mut h),
                Status::BlockedJoin(j) => (6u8, j).hash(&mut h),
                Status::Finished => 7u8.hash(&mut h),
            }
        }
        st.objects.len().hash(&mut h);
        for o in &st.objects {
            match o {
                Obj::Mutex { held_by } => (0u8, held_by).hash(&mut h),
                Obj::Condvar { waiters } => (1u8, waiters).hash(&mut h),
                Obj::RwLock { writer, readers } => (2u8, writer, readers).hash(&mut h),
                Obj::Atomic { value } => (3u8, value).hash(&mut h),
            }
        }
        st.preemptions.hash(&mut h);
        st.spurious_left.hash(&mut h);
        h.finish()
    }

    /// Pick the next thread to run. Called with the scheduler locked
    /// by the thread giving up the slot (`prev`).
    fn schedule_next(&self, st: &mut SchedState, prev: Option<usize>) {
        st.running = None;
        let prev_runnable = prev.is_some_and(|p| Self::is_runnable(st, p));
        let choices = Self::compute_choices(st, prev);
        if choices.is_empty() {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                st.done = true;
                self.cv.notify_all();
                return;
            }
            let mut lines = vec!["deadlock: no schedulable thread".to_string()];
            for (i, t) in st.threads.iter().enumerate() {
                if t.status != Status::Finished {
                    lines.push(format!(
                        "  t{i} ({}) {} @ {}:{}",
                        t.name,
                        t.status.describe(),
                        t.site.file(),
                        t.site.line()
                    ));
                }
            }
            self.record_failure_locked(st, FailureKind::Deadlock, lines.join("\n"));
            return;
        }
        let hash = Self::state_hash(st);
        let nchoices = choices.len();
        let taken = match &mut st.mode {
            Mode::Dfs { path, cursor } => {
                if *cursor < path.len() {
                    let b = &path[*cursor];
                    if b.n != nchoices {
                        let msg = format!(
                            "replay divergence at decision {}: recorded {} choices, recomputed {}",
                            *cursor, b.n, nchoices
                        );
                        self.record_failure_locked(st, FailureKind::Internal, msg);
                        return;
                    }
                    let t = path[*cursor].taken;
                    *cursor += 1;
                    t
                } else {
                    if self.cfg.pruning
                        && self
                            .done_states
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .contains(&hash)
                    {
                        st.pruned_exit = true;
                        st.aborting = true;
                        self.cv.notify_all();
                        return;
                    }
                    path.push(Branch {
                        n: nchoices,
                        taken: 0,
                        prev_runnable,
                        preemptions_before: st.preemptions,
                        hash,
                    });
                    *cursor += 1;
                    0
                }
            }
            Mode::Pct {
                rng,
                prios,
                change_points,
                next_low,
            } => {
                let run_len = choices
                    .iter()
                    .filter(|c| matches!(c, Choice::Run(_)))
                    .count();
                let n_spur = nchoices - run_len;
                if n_spur > 0 && rng.chance(PCT_SPURIOUS_P) {
                    run_len + rng.below(n_spur as u64) as usize
                } else {
                    if change_points.contains(&st.steps) {
                        // Priority change point: demote the thread
                        // that would be picked, below every initial
                        // priority.
                        if let Some(victim) = choices[..run_len]
                            .iter()
                            .filter_map(|c| match c {
                                Choice::Run(t) => Some(*t),
                                Choice::Spurious(_) => None,
                            })
                            .max_by_key(|&t| prios[t])
                        {
                            prios[victim] = *next_low;
                            *next_low = next_low.saturating_sub(1);
                        }
                    }
                    let (best, _) = choices[..run_len]
                        .iter()
                        .enumerate()
                        .filter_map(|(i, c)| match c {
                            Choice::Run(t) => Some((i, prios[*t])),
                            Choice::Spurious(_) => None,
                        })
                        .max_by_key(|&(_, p)| p)
                        .expect("run choices nonempty");
                    best
                }
            }
        };
        let choice = choices[taken];
        if prev_runnable && !matches!((choice, prev), (Choice::Run(t), Some(p)) if t == p) {
            st.preemptions += 1;
        }
        match choice {
            Choice::Run(t) => st.running = Some(t),
            Choice::Spurious(t) => {
                let Status::BlockedCondvar { cv, mutex } = st.threads[t].status else {
                    unreachable!("spurious choice for a non-waiting thread");
                };
                if let Obj::Condvar { waiters } = &mut st.objects[cv] {
                    waiters.retain(|&w| w != t);
                }
                st.threads[t].status = Status::Reacquire(mutex);
                st.spurious_left -= 1;
                let step = st.steps;
                Self::push_trace(st, format!("step {step}: spurious wakeup of t{t}"));
                st.running = Some(t);
            }
        }
        self.cv.notify_all();
    }

    fn push_trace(st: &mut SchedState, line: String) {
        if st.trace.len() == TRACE_CAP {
            st.trace.pop_front();
        }
        st.trace.push_back(line);
    }

    /// The core yield point. `prepare` runs before the scheduling
    /// decision (it publishes the op's precondition as the thread's
    /// new status and may mutate object state, e.g. a condvar wait
    /// releasing its mutex); `perform` runs once the thread is
    /// scheduled and commits the operation.
    pub(crate) fn yield_op<R>(
        self: &Arc<Self>,
        me: usize,
        site: &'static Location<'static>,
        desc: &str,
        prepare: impl FnOnce(&mut SchedState) -> Status,
        perform: impl FnOnce(&mut SchedState, usize) -> R,
    ) -> R {
        self.check_invariants();
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            abort_unwind();
        }
        st.steps += 1;
        if st.steps > self.cfg.max_steps {
            let msg = format!(
                "step budget exceeded ({} ops): livelock or a harness too large for the budget",
                self.cfg.max_steps
            );
            self.record_failure_locked(&mut st, FailureKind::StepBudget, msg);
            drop(st);
            abort_unwind();
        }
        let status = prepare(&mut st);
        st.threads[me].status = status;
        st.threads[me].site = site;
        self.schedule_next(&mut st, Some(me));
        while st.running != Some(me) && !st.aborting {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if st.aborting {
            drop(st);
            abort_unwind();
        }
        st.threads[me].status = Status::Runnable;
        st.threads[me].ops += 1;
        let step = st.steps;
        let name = st.threads[me].name.clone();
        Self::push_trace(
            &mut st,
            format!(
                "step {step}: t{me} ({name}) {desc} @ {}:{}",
                site.file(),
                site.line()
            ),
        );
        perform(&mut st, me)
    }

    /// Park a freshly spawned model thread until first scheduled.
    pub(crate) fn thread_start(&self, me: usize) {
        let mut st = self.lock();
        while st.running != Some(me) && !st.aborting {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if st.aborting {
            drop(st);
            abort_unwind();
        }
    }

    /// Mark a model thread finished and hand the slot to the next.
    pub(crate) fn thread_finish(&self, me: usize) {
        let mut st = self.lock();
        st.threads[me].status = Status::Finished;
        if st.aborting {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                st.done = true;
            }
            self.cv.notify_all();
            return;
        }
        if st.running == Some(me) {
            st.steps += 1;
            self.schedule_next(&mut st, Some(me));
        }
        if st.threads.iter().all(|t| t.status == Status::Finished) {
            st.done = true;
        }
        self.cv.notify_all();
    }

    /// Block the explorer until every model thread has finished
    /// (normally, by failure abort, or by prune-exit).
    pub(crate) fn wait_done(&self) {
        let mut st = self.lock();
        while !st.done {
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Outcome of a finished execution:
    /// `(dfs_path, failure, pruned_exit, steps)`.
    pub(crate) fn final_state(&self) -> (Vec<Branch>, Option<Failure>, bool, u64) {
        let st = self.lock();
        let path = match &st.mode {
            Mode::Dfs { path, .. } => path.clone(),
            Mode::Pct { .. } => Vec::new(),
        };
        (path, st.failure.clone(), st.pruned_exit, st.steps)
    }

    // ---- object-state accessors for the primitives ------------------

    pub(crate) fn mutex_holder_mut(st: &mut SchedState, id: usize) -> &mut Option<usize> {
        match &mut st.objects[id] {
            Obj::Mutex { held_by } => held_by,
            _ => unreachable!("object #{id} is not a mutex"),
        }
    }

    pub(crate) fn condvar_waiters_mut(st: &mut SchedState, id: usize) -> &mut Vec<usize> {
        match &mut st.objects[id] {
            Obj::Condvar { waiters } => waiters,
            _ => unreachable!("object #{id} is not a condvar"),
        }
    }

    pub(crate) fn rwlock_mut(
        st: &mut SchedState,
        id: usize,
    ) -> (&mut Option<usize>, &mut Vec<usize>) {
        match &mut st.objects[id] {
            Obj::RwLock { writer, readers } => (writer, readers),
            _ => unreachable!("object #{id} is not a rwlock"),
        }
    }

    pub(crate) fn atomic_mut(st: &mut SchedState, id: usize) -> &mut u64 {
        match &mut st.objects[id] {
            Obj::Atomic { value } => value,
            _ => unreachable!("object #{id} is not an atomic"),
        }
    }

    /// Wake thread `t` out of a condvar wait (notify path): it leaves
    /// the waiter queue and competes to reacquire its mutex.
    pub(crate) fn wake_waiter(st: &mut SchedState, t: usize) {
        let Status::BlockedCondvar { cv, mutex } = st.threads[t].status else {
            unreachable!("notify target t{t} is not waiting");
        };
        if let Obj::Condvar { waiters } = &mut st.objects[cv] {
            waiters.retain(|&w| w != t);
        }
        st.threads[t].status = Status::Reacquire(mutex);
    }

    /// Non-yielding release of a logically held mutex (guard drop).
    pub(crate) fn release_mutex(&self, id: usize, me: usize) {
        let mut st = self.lock();
        let aborting = st.aborting;
        let holder = Self::mutex_holder_mut(&mut st, id);
        if aborting {
            // Tolerate anything while tearing an execution down.
            if *holder == Some(me) {
                *holder = None;
            }
            return;
        }
        assert_eq!(
            *holder,
            Some(me),
            "model mutex #{id} released by a thread that does not hold it"
        );
        *holder = None;
    }

    /// Non-yielding release of an rwlock side (guard drop).
    pub(crate) fn release_rwlock(&self, id: usize, me: usize, write: bool) {
        let mut st = self.lock();
        let aborting = st.aborting;
        let (writer, readers) = Self::rwlock_mut(&mut st, id);
        if write {
            if !aborting {
                assert_eq!(*writer, Some(me), "model rwlock #{id} write-released badly");
            }
            if *writer == Some(me) {
                *writer = None;
            }
        } else if let Some(pos) = readers.iter().position(|&r| r == me) {
            readers.remove(pos);
        } else if !aborting {
            panic!("model rwlock #{id} read-released by a non-reader");
        }
    }

    /// Read an atomic's value without a scheduling point — used by
    /// invariant closures (which must not affect the schedule) and by
    /// abort-mode teardown.
    pub(crate) fn peek_atomic(&self, id: usize) -> u64 {
        let mut st = self.lock();
        *Self::atomic_mut(&mut st, id)
    }

    /// Write an atomic's value without a scheduling point (abort-mode
    /// teardown only).
    pub(crate) fn poke_atomic(&self, id: usize, v: u64) {
        let mut st = self.lock();
        *Self::atomic_mut(&mut st, id) = v;
    }
}

/// Identity cell tying a facade object to its per-execution scheduler
/// slot. Lazily registered on first use; re-use across executions is
/// a harness bug and panics with advice.
pub(crate) struct ObjCell {
    slot: StdMutex<Option<(u64, usize)>>,
}

impl ObjCell {
    pub(crate) const fn new() -> Self {
        ObjCell {
            slot: StdMutex::new(None),
        }
    }

    pub(crate) fn ensure(&self, rt: &Runtime, make: impl FnOnce() -> Obj) -> usize {
        let mut slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match *slot {
            Some((epoch, id)) if epoch == rt.epoch => id,
            Some(_) => panic!(
                "sclog-sync object reused across model executions — \
                 construct sync objects inside the checked closure"
            ),
            None => {
                let id = rt.register_obj(make());
                *slot = Some((rt.epoch, id));
                id
            }
        }
    }

    pub(crate) fn get(&self) -> usize {
        self.slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .expect("model object used before registration")
            .1
    }
}
