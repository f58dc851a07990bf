//! The tagging engine: applies a system's ruleset to parsed messages.
//!
//! Tagging is the pipeline's hot path — the paper runs every one of
//! its 178 million raw lines through the expert rule catalog — so the
//! engine is built around two ideas:
//!
//! * **Prefiltered matching.** Compiling a [`RuleSet`] extracts each
//!   rule's required literal factors and builds one Aho-Corasick
//!   prescan over all of them ([`crate::prefilter`]). Tagging a line
//!   scans it once, yielding a candidate-rule bitset; only candidates
//!   (plus the few rules with no extractable factor) run their
//!   regexes, still in catalog order so first-match-wins semantics
//!   are unchanged. [`RuleSet::tag_line_unfiltered`] keeps the
//!   brute-force path as the reference for equivalence tests and
//!   benchmarks.
//! * **Scratch reuse.** [`TagScratch`] owns the rendered-line buffer,
//!   the field spans, and the candidate bitset, so the per-message
//!   loop ([`RuleSet::tag_message_with`]) performs no per-line
//!   allocation. [`crate::TagPool`] keeps one scratch per worker.

use crate::catalog::{catalog, CategorySpec};
use crate::dfa::{DfaCache, DfaProgram};
use crate::lang::Predicate;
use crate::prefilter::RulePrefilter;
use crate::re::Regex;
use sclog_parse::{field_spans, render_native, render_native_into};
use sclog_types::{Alert, CategoryId, CategoryRegistry, Message, SourceInterner, SystemId};
use std::sync::atomic::{AtomicU64, Ordering};

/// One compiled rule within a [`RuleSet`].
#[derive(Debug)]
struct CompiledRule {
    predicate: Predicate,
    category: CategoryId,
    /// Whether the predicate inspects split fields (`$N`, `N >= 1`);
    /// whole-line rules skip field splitting entirely.
    uses_fields: bool,
    /// First slot of this rule's regexes in the ruleset's tier table
    /// (one slot per regex, predicate pre-order).
    tier_base: usize,
}

/// How one regex slot of a rule predicate executes in the hot loop.
#[derive(Debug)]
enum RegexTier {
    /// The pattern reduced to a plain literal: `is_match` is
    /// `str::contains` and never runs the Pike VM.
    Literal,
    /// Pike VM directly — the program was judged ineligible for lazy
    /// determinization ([`DfaProgram::new`] declined it).
    Vm,
    /// Lazy DFA with Pike-VM fallback on bailout.
    Dfa(DfaProgram),
}

/// Number of regex slots a predicate contributes to the tier table
/// (pre-order, matching the walk in `eval_pred`).
fn regex_count(pred: &Predicate) -> usize {
    match pred {
        Predicate::Line(_) | Predicate::Field(..) => 1,
        Predicate::Not(p) => regex_count(p),
        Predicate::And(a, b) | Predicate::Or(a, b) => regex_count(a) + regex_count(b),
    }
}

/// Appends the tier of every regex in `pred`, pre-order.
fn collect_tiers(pred: &Predicate, tiers: &mut Vec<RegexTier>) {
    match pred {
        Predicate::Line(re) | Predicate::Field(_, re) => tiers.push(if re.is_literal() {
            RegexTier::Literal
        } else {
            match DfaProgram::new(re) {
                Some(prog) => RegexTier::Dfa(prog),
                None => RegexTier::Vm,
            }
        }),
        Predicate::Not(p) => collect_tiers(p, tiers),
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            collect_tiers(a, tiers);
            collect_tiers(b, tiers);
        }
    }
}

/// Source of unique [`RuleSet`] stamps, so a scratch can tell whether
/// its per-slot DFA caches belong to the ruleset it is being used
/// with.
static RULESET_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    RULESET_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// Per-scratch lazy-DFA state: one bounded cache per DFA-eligible
/// regex slot, built on first use and keyed to a ruleset stamp.
#[derive(Debug, Default)]
struct DfaScratch {
    /// Stamp of the ruleset the caches were built for.
    stamp: u64,
    /// One entry per tier slot; `None` until the slot first executes.
    caches: Vec<Option<DfaCache>>,
}

impl DfaScratch {
    /// Points the scratch at a ruleset, dropping caches built for a
    /// different one. A stamp match is the no-op fast path.
    fn bind(&mut self, stamp: u64, slots: usize) {
        if self.stamp != stamp {
            self.caches.clear();
            self.caches.resize_with(slots, || None);
            self.stamp = stamp;
        }
    }
}

/// Reusable per-worker scratch for the tagging hot loop.
///
/// Owns the rendered-line buffer, the field spans, and the candidate
/// bitset, so tagging a message allocates nothing once the buffers
/// have warmed up. Create one per thread and pass it to
/// [`RuleSet::tag_message_with`] / [`RuleSet::tag_line_with`].
///
/// # Examples
///
/// ```
/// use sclog_rules::{RuleSet, TagScratch};
/// use sclog_types::{CategoryRegistry, SystemId};
///
/// let mut registry = CategoryRegistry::new();
/// let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
/// let mut scratch = TagScratch::new();
/// let line = "Mar  7 14:30:05 dn228 pbs_mom: task_check, cannot tm_reply to 4418 task 1";
/// let cat = rules.tag_line_with(line, &mut scratch).expect("should tag");
/// assert_eq!(registry.name(cat), "PBS_CHK");
/// ```
#[derive(Debug, Default)]
pub struct TagScratch {
    /// Rendered native line (reused across messages).
    line: String,
    /// Field byte spans of the current line.
    spans: Vec<(usize, usize)>,
    /// Candidate rule bitset filled by the prescan.
    candidates: Vec<u64>,
    /// Prefilter effectiveness tallies, accumulated per line.
    counts: TagCounts,
    /// Per-slot lazy-DFA caches (see [`crate::dfa`]).
    dfa: DfaScratch,
}

impl TagScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The prefilter effectiveness tallies accumulated so far.
    pub fn counts(&self) -> TagCounts {
        self.counts
    }

    /// Takes the accumulated tallies, resetting them to zero — how a
    /// pool worker flushes per-batch counts into its metric shard.
    pub fn take_counts(&mut self) -> TagCounts {
        std::mem::take(&mut self.counts)
    }
}

/// Prefilter effectiveness tallies for the tagging hot loop.
///
/// Plain `u64` increments accumulated in [`TagScratch`] (never atomics
/// — the hot loop stays free of shared state) and flushed at batch
/// granularity by whoever owns the scratch. Together they turn the
/// prescan's design claim into an observed ratio: of `lines` tagged,
/// `gated_out` never ran a single regex, and the rest cost `vm_execs`
/// candidate rule checks for `matches` hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagCounts {
    /// Lines run through the tag loop.
    pub lines: u64,
    /// Total bytes of those lines.
    pub bytes: u64,
    /// Lines the Aho-Corasick gate rejected outright (no candidate
    /// rule, so no regex ran at all).
    pub gated_out: u64,
    /// Candidate rule checks: every rule the prescan let through and
    /// the loop evaluated, whichever tier answered it (literal
    /// containment, the lazy DFA or the Pike VM). The tagger bench
    /// reports it as `rule_checks`; `vm_eligible` counts the regex
    /// evaluations inside them that needed an automaton.
    pub vm_execs: u64,
    /// Lines that matched some rule (i.e. produced an alert).
    pub matches: u64,
    /// Regex executions that would run a Pike VM (non-literal pattern
    /// actually evaluated on a string). Each is resolved by the DFA
    /// tier or bails to the VM, so
    /// `vm_eligible == dfa_execs + dfa_bailouts` always.
    pub vm_eligible: u64,
    /// VM-eligible executions the lazy DFA resolved by itself.
    pub dfa_execs: u64,
    /// VM-eligible executions that fell back to the Pike VM
    /// (ineligible program, non-ASCII input, or cache overflow).
    pub dfa_bailouts: u64,
    /// Bounded-cache clears forced by state-cache overflow.
    pub dfa_evictions: u64,
}

impl TagCounts {
    /// Adds another tally into this one.
    pub fn merge(&mut self, other: TagCounts) {
        self.lines += other.lines;
        self.bytes += other.bytes;
        self.gated_out += other.gated_out;
        self.vm_execs += other.vm_execs;
        self.matches += other.matches;
        self.vm_eligible += other.vm_eligible;
        self.dfa_execs += other.dfa_execs;
        self.dfa_bailouts += other.dfa_bailouts;
        self.dfa_evictions += other.dfa_evictions;
    }
}

/// A compiled per-system ruleset.
///
/// Rules are evaluated in catalog order; the first match tags the
/// message ("two alerts are in the same category if they were tagged by
/// the same expert rule").
///
/// # Examples
///
/// ```
/// use sclog_rules::{RuleSet, TagScratch};
/// use sclog_types::{CategoryRegistry, SystemId};
///
/// let mut registry = CategoryRegistry::new();
/// let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
/// let line = "Mar  7 14:30:05 dn228 pbs_mom: task_check, cannot tm_reply to 4418 task 1";
/// let cat = rules.tag_line_with(line, &mut TagScratch::new()).expect("should tag");
/// assert_eq!(registry.name(cat), "PBS_CHK");
/// ```
#[derive(Debug)]
pub struct RuleSet {
    system: SystemId,
    rules: Vec<CompiledRule>,
    prefilter: RulePrefilter,
    /// Execution tier of every rule regex, indexed by slot (see
    /// [`CompiledRule::tier_base`]).
    tiers: Vec<RegexTier>,
    /// Bound for each per-slot [`DfaCache`].
    dfa_max_states: usize,
    /// Unique id tying [`TagScratch`] DFA caches to this ruleset.
    stamp: u64,
}

impl RuleSet {
    /// Compiles the built-in catalog ruleset for a system, registering
    /// its categories.
    ///
    /// # Panics
    ///
    /// Panics if a built-in rule fails to compile (a bug, covered by
    /// tests).
    pub fn builtin(system: SystemId, registry: &mut CategoryRegistry) -> Self {
        Self::from_specs(system, catalog(system), registry)
    }

    /// Compiles an explicit list of category specs.
    ///
    /// # Panics
    ///
    /// Panics if a rule fails to parse or compile, or if a spec's
    /// system does not match `system`.
    pub fn from_specs(
        system: SystemId,
        specs: &[CategorySpec],
        registry: &mut CategoryRegistry,
    ) -> Self {
        let rules = specs
            .iter()
            .map(|spec| {
                assert_eq!(
                    spec.system, system,
                    "spec {} is for another system",
                    spec.name
                );
                let predicate = Predicate::parse(spec.rule)
                    .unwrap_or_else(|e| panic!("rule {} failed to compile: {e}", spec.name));
                let category = registry.register(spec.name, system, spec.alert_type);
                CompiledRule {
                    uses_fields: predicate.uses_fields(),
                    predicate,
                    category,
                    tier_base: 0,
                }
            })
            .collect();
        Self::with_rules(system, rules)
    }

    /// Compiles a ruleset from owned definitions (see
    /// [`crate::loader`]).
    pub(crate) fn from_loaded(
        system: SystemId,
        defs: &[crate::loader::RuleDef],
        registry: &mut CategoryRegistry,
    ) -> Self {
        let rules = defs
            .iter()
            .map(|d| {
                let predicate = Predicate::parse(&d.rule)
                    .unwrap_or_else(|e| panic!("rule {} failed to compile: {e}", d.name));
                let category = registry.register(&d.name, system, d.alert_type);
                CompiledRule {
                    uses_fields: predicate.uses_fields(),
                    predicate,
                    category,
                    tier_base: 0,
                }
            })
            .collect();
        Self::with_rules(system, rules)
    }

    /// Finishes construction: builds the literal-factor prescan and
    /// the per-regex execution-tier table over the compiled rules.
    fn with_rules(system: SystemId, mut rules: Vec<CompiledRule>) -> Self {
        let factors: Vec<Option<Vec<String>>> = rules
            .iter()
            .map(|r| r.predicate.required_literals())
            .collect();
        let mut tiers = Vec::new();
        for rule in &mut rules {
            rule.tier_base = tiers.len();
            collect_tiers(&rule.predicate, &mut tiers);
        }
        RuleSet {
            system,
            prefilter: RulePrefilter::new(&factors),
            rules,
            tiers,
            dfa_max_states: crate::dfa::DEFAULT_MAX_STATES,
            stamp: fresh_stamp(),
        }
    }

    /// Overrides the per-regex DFA state-cache bound (builder style).
    ///
    /// The default ([`crate::dfa::DEFAULT_MAX_STATES`]) comfortably
    /// holds every catalog pattern; the conformance suite sets tiny
    /// bounds to force the eviction and bailout paths. Results are
    /// identical for any bound — only the DFA-vs-VM split moves.
    pub fn with_dfa_cache_states(mut self, max_states: usize) -> Self {
        self.dfa_max_states = max_states;
        // New stamp: caches sized for the old bound must not be
        // reused.
        self.stamp = fresh_stamp();
        self
    }

    /// The system this ruleset belongs to.
    pub fn system(&self) -> SystemId {
        self.system
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the ruleset has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Tags one rendered log line using caller-owned scratch buffers:
    /// one Aho-Corasick prescan yields the candidate rules, and only
    /// those run their regexes, in catalog order (first match wins).
    pub fn tag_line_with(&self, line: &str, scratch: &mut TagScratch) -> Option<CategoryId> {
        let TagScratch {
            spans,
            candidates,
            counts,
            dfa,
            ..
        } = scratch;
        self.tag_line_parts(line, spans, candidates, counts, dfa)
    }

    /// Tags one rendered log line by checking every rule, with no
    /// prescan — the brute-force reference path the prefiltered
    /// engine is property-tested against (and benchmarked against in
    /// `tagger_bench`). Behaviour is identical by construction of the
    /// always-check set; speed is not.
    pub fn tag_line_unfiltered(&self, line: &str) -> Option<CategoryId> {
        let fields = sclog_parse::fields(line);
        self.rules
            .iter()
            .find(|r| r.predicate.matches_fields(line, &fields))
            .map(|r| r.category)
    }

    /// The prefiltered tag loop on split scratch parts (split so the
    /// rendered line can live in the same [`TagScratch`]).
    fn tag_line_parts(
        &self,
        line: &str,
        spans: &mut Vec<(usize, usize)>,
        candidates: &mut Vec<u64>,
        counts: &mut TagCounts,
        dfa: &mut DfaScratch,
    ) -> Option<CategoryId> {
        counts.lines += 1;
        counts.bytes += line.len() as u64;
        let execs_at_entry = counts.vm_execs;
        dfa.bind(self.stamp, self.tiers.len());
        self.prefilter.candidates(line, candidates);
        let mut have_spans = false;
        for (w, &word) in candidates.iter().enumerate() {
            let mut word = word;
            // Walk set bits in ascending order — bit order is catalog
            // order, preserving first-match-wins semantics.
            while word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let rule = &self.rules[idx];
                if rule.uses_fields && !have_spans {
                    field_spans(line, spans);
                    have_spans = true;
                }
                counts.vm_execs += 1;
                let mut slot = rule.tier_base;
                if self.eval_pred(&rule.predicate, &mut slot, line, spans, dfa, counts) {
                    counts.matches += 1;
                    return Some(rule.category);
                }
            }
        }
        if counts.vm_execs == execs_at_entry {
            counts.gated_out += 1;
        }
        None
    }

    /// Evaluates one predicate tree against a line, dispatching each
    /// leaf regex to its precompiled execution tier.
    ///
    /// `slot` tracks the leaf's index into [`RuleSet::tiers`] (and the
    /// matching per-thread DFA cache slot) in pre-order; short-circuited
    /// subtrees advance it without running anything, so every leaf
    /// always sees its own slot. Semantics mirror
    /// [`Predicate::matches_spans`] exactly — only the regex execution
    /// strategy differs.
    fn eval_pred(
        &self,
        pred: &Predicate,
        slot: &mut usize,
        line: &str,
        spans: &[(usize, usize)],
        dfa: &mut DfaScratch,
        counts: &mut TagCounts,
    ) -> bool {
        match pred {
            Predicate::Line(re) => {
                let here = *slot;
                *slot += 1;
                self.eval_regex(re, here, line, dfa, counts)
            }
            Predicate::Field(n, re) => {
                let here = *slot;
                *slot += 1;
                if *n == 0 {
                    self.eval_regex(re, here, line, dfa, counts)
                } else {
                    // A missing field is a plain non-match: the regex
                    // never runs, so nothing is counted against any
                    // tier (matching `matches_spans`).
                    spans
                        .get(*n - 1)
                        .is_some_and(|&(s, e)| self.eval_regex(re, here, &line[s..e], dfa, counts))
                }
            }
            Predicate::Not(p) => !self.eval_pred(p, slot, line, spans, dfa, counts),
            Predicate::And(a, b) => {
                if !self.eval_pred(a, slot, line, spans, dfa, counts) {
                    *slot += regex_count(b);
                    return false;
                }
                self.eval_pred(b, slot, line, spans, dfa, counts)
            }
            Predicate::Or(a, b) => {
                if self.eval_pred(a, slot, line, spans, dfa, counts) {
                    *slot += regex_count(b);
                    return true;
                }
                self.eval_pred(b, slot, line, spans, dfa, counts)
            }
        }
    }

    /// Runs the regex in tier slot `here` against `text` through the
    /// cheapest sound engine: literal containment, the lazy DFA, or
    /// the Pike VM (also the fallback when the DFA bails on non-ASCII
    /// input or a cache overflow).
    fn eval_regex(
        &self,
        re: &Regex,
        here: usize,
        text: &str,
        dfa: &mut DfaScratch,
        counts: &mut TagCounts,
    ) -> bool {
        match &self.tiers[here] {
            RegexTier::Literal => re.is_match(text),
            RegexTier::Vm => {
                counts.vm_eligible += 1;
                counts.dfa_bailouts += 1;
                re.is_match(text)
            }
            RegexTier::Dfa(prog) => {
                counts.vm_eligible += 1;
                let cache = dfa.caches[here]
                    .get_or_insert_with(|| DfaCache::with_max_states(self.dfa_max_states));
                let verdict = cache.matches(prog, text);
                counts.dfa_evictions += cache.take_evictions();
                match verdict {
                    Some(hit) => {
                        counts.dfa_execs += 1;
                        hit
                    }
                    None => {
                        counts.dfa_bailouts += 1;
                        re.is_match(text)
                    }
                }
            }
        }
    }

    /// Tags a message using caller-owned scratch: the native line is
    /// rendered into the scratch's reused buffer, then tagged through
    /// the prescan. The per-message loop built on this is
    /// allocation-free once the scratch has warmed up.
    pub fn tag_message_with(
        &self,
        msg: &Message,
        interner: &SourceInterner,
        scratch: &mut TagScratch,
    ) -> Option<CategoryId> {
        // Split borrows: the rendered line lives next to the span and
        // candidate buffers the tag loop writes into.
        let TagScratch {
            line,
            spans,
            candidates,
            counts,
            dfa,
        } = scratch;
        render_native_into(msg, interner, line);
        self.tag_line_parts(line, spans, candidates, counts, dfa)
    }

    /// Tags every message, producing the alert sequence.
    ///
    /// Messages are expected in time order (as logs are); the returned
    /// alerts preserve that order.
    pub fn tag_messages(&self, messages: &[Message], interner: &SourceInterner) -> TaggedLog {
        let mut scratch = TagScratch::new();
        let mut alerts = Vec::new();
        for (i, msg) in messages.iter().enumerate() {
            if let Some(category) = self.tag_message_with(msg, interner, &mut scratch) {
                alerts.push(Alert::new(msg.time, msg.source, category, i));
            }
        }
        TaggedLog { alerts }
    }

    /// Tags every message through the brute-force all-rules path (no
    /// prescan, no buffer reuse) — the reference implementation for
    /// equivalence tests and the benchmark baseline.
    pub fn tag_messages_unfiltered(
        &self,
        messages: &[Message],
        interner: &SourceInterner,
    ) -> TaggedLog {
        let mut alerts = Vec::new();
        for (i, msg) in messages.iter().enumerate() {
            let line = render_native(msg, interner);
            if let Some(category) = self.tag_line_unfiltered(&line) {
                alerts.push(Alert::new(msg.time, msg.source, category, i));
            }
        }
        TaggedLog { alerts }
    }
}

/// The output of tagging: the alert sequence in message order.
#[derive(Debug, Clone, Default)]
pub struct TaggedLog {
    /// Tagged alerts, ordered by message index (hence by time).
    pub alerts: Vec<Alert>,
}

impl TaggedLog {
    /// Number of alerts.
    pub fn len(&self) -> usize {
        self.alerts.len()
    }

    /// True if no messages were tagged.
    pub fn is_empty(&self) -> bool {
        self.alerts.is_empty()
    }

    /// Counts alerts per category.
    pub fn counts_by_category(&self) -> std::collections::HashMap<CategoryId, u64> {
        let mut out = std::collections::HashMap::new();
        for a in &self.alerts {
            *out.entry(a.category).or_insert(0) += 1;
        }
        out
    }

    /// Attaches ground-truth failure ids by message index (simulator
    /// output); indices without truth stay `None`.
    pub fn attach_truth(&mut self, truth: &[Option<sclog_types::FailureId>]) {
        for a in &mut self.alerts {
            if let Some(t) = truth.get(a.message_index) {
                a.failure = *t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{catalog, example_body};
    use sclog_types::{Message, NodeId, Severity, Timestamp};

    fn render_and_tag_all(system: SystemId) {
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(system, &mut registry);
        let mut interner = SourceInterner::new();
        let source = interner.intern("test-node");
        for spec in catalog(system) {
            let severity = match spec.severity {
                crate::catalog::CatSeverity::None => Severity::None,
                crate::catalog::CatSeverity::Bgl(s) => Severity::Bgl(s),
                crate::catalog::CatSeverity::Syslog(s) => Severity::Syslog(s),
            };
            let facility =
                crate::catalog::fill_template(spec.facility, crate::catalog::example_value);
            let msg = Message::new(
                system,
                Timestamp::from_ymd_hms(2006, 1, 15, 12, 0, 0),
                source,
                facility,
                severity,
                example_body(spec),
            );
            let tagged = rules.tag_message_with(&msg, &interner, &mut TagScratch::new());
            let got = tagged.map(|c| registry.name(c).to_owned());
            assert_eq!(
                got.as_deref(),
                Some(spec.name),
                "system {system}: body {:?} mis-tagged",
                example_body(spec)
            );
        }
    }

    #[test]
    fn every_category_tags_its_own_canonical_message() {
        for &sys in &sclog_types::ALL_SYSTEMS {
            render_and_tag_all(sys);
        }
    }

    #[test]
    fn background_messages_are_untagged() {
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Spirit, &mut registry);
        let mut interner = SourceInterner::new();
        let source = interner.intern("sn001");
        let benign = [
            "session opened for user root",
            "synchronized to NTP server 10.0.0.1",
            "ACCEPT IN=eth0 OUT= SRC=10.2.3.4",
            "running dkms autoinstaller",
        ];
        for body in benign {
            let msg = Message::new(
                SystemId::Spirit,
                Timestamp::from_ymd_hms(2005, 5, 5, 5, 5, 5),
                source,
                "kernel",
                Severity::None,
                body,
            );
            assert_eq!(
                rules.tag_message_with(&msg, &interner, &mut TagScratch::new()),
                None,
                "{body}"
            );
        }
    }

    #[test]
    fn tag_messages_produces_ordered_alerts() {
        let mut registry = CategoryRegistry::new();
        let rules = RuleSet::builtin(SystemId::Liberty, &mut registry);
        let mut interner = SourceInterner::new();
        let source = interner.intern("ln3");
        let mk = |secs: i64, body: &str| {
            Message::new(
                SystemId::Liberty,
                Timestamp::from_secs(1_102_809_600 + secs),
                source,
                "pbs_mom",
                Severity::None,
                body,
            )
        };
        let msgs = vec![
            mk(0, "task_check, cannot tm_reply to 1 task 1"),
            mk(1, "all quiet"),
            mk(
                2,
                "Bad file descriptor (9) in tm_request, job 2 not running",
            ),
        ];
        let tagged = rules.tag_messages(&msgs, &interner);
        assert_eq!(tagged.len(), 2);
        assert_eq!(tagged.alerts[0].message_index, 0);
        assert_eq!(tagged.alerts[1].message_index, 2);
        assert_eq!(registry.name(tagged.alerts[0].category), "PBS_CHK");
        assert_eq!(registry.name(tagged.alerts[1].category), "PBS_BFD");
        let counts = tagged.counts_by_category();
        assert_eq!(counts.len(), 2);
    }

    #[test]
    fn attach_truth_joins_by_index() {
        let mut tl = TaggedLog {
            alerts: vec![Alert::new(
                Timestamp::EPOCH,
                NodeId::from_index(0),
                CategoryId::from_index(0),
                1,
            )],
        };
        let truth = vec![None, Some(sclog_types::FailureId(9))];
        tl.attach_truth(&truth);
        assert_eq!(tl.alerts[0].failure, Some(sclog_types::FailureId(9)));
        assert!(!tl.is_empty());
    }
}
