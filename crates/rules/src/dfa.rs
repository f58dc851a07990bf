//! A lazy DFA tier over the Pike VM.
//!
//! The prefilter gates lines that hold none of a rule's required
//! literals away from the regex engine, but on alert-heavy logs most
//! lines survive it: the daemon's live mix of all five systems gates
//! about 37% of lines, Spirit alone about 7%. This module makes the
//! survivors cheap. Instead of
//! simulating the Thompson NFA thread set per character
//! ([`crate::re::Regex::is_match`]), the tagger determinizes the
//! compiled program *on the fly*: each distinct thread set the VM
//! could be in becomes one DFA state, built the first time it is
//! reached and cached, so a line that revisits known states costs one
//! table lookup per byte.
//!
//! The tier is strictly an accelerator — it must never change a match
//! result — so it bails back to the Pike VM whenever exactness would
//! be at risk:
//!
//! * **Ineligible programs** ([`DfaProgram::new`] returns `None`):
//!   oversized programs whose subset construction could explode. The
//!   decision uses the same [`crate::re::Regex::program`]
//!   introspection the audit crate runs on.
//! * **Non-ASCII input**: the DFA steps bytes, the VM steps chars;
//!   they agree exactly on ASCII, so the first byte ≥ 0x80 aborts to
//!   the VM ([`DfaCache::matches`] returns `None`).
//! * **Cache overflow**: the state cache is bounded by `max_states`.
//!   When a line needs one state more, the cache is cleared (counted
//!   as an eviction), the line bails to the VM, and the next line
//!   rebuilds from an empty cache.
//!
//! States are keyed by (sorted consuming program counters, match
//! flags). Transitions depend only on the consuming set, and the
//! flags capture everything anchors contributed, so two thread sets
//! with equal keys behave identically forever — memoizing on the key
//! is sound. Input bytes are collapsed into equivalence classes (two
//! bytes no consuming instruction distinguishes share a column).
//!
//! All transitions of a cache live in one flat table: a row per state,
//! a column per ASCII class plus a last *bail* column that every byte
//! ≥ 0x80 maps to. State ids are premultiplied by the row width, and
//! an entry into a state that has already matched carries a flag bit,
//! so the common step is one load and one compare; not-yet-built
//! transitions, the bail column and matches all sit above the flag.

use crate::re::{ProgInst, Regex};
use std::collections::HashMap;

/// Default bound on cached DFA states per regex; see
/// [`DfaCache::with_max_states`].
pub const DEFAULT_MAX_STATES: usize = 64;

/// Programs longer than this are not determinized: subset construction
/// over a huge program (e.g. `x{400}` expansions) costs more to build
/// than the VM costs to run.
const MAX_PROG_INSTS: usize = 256;

/// Table entry: transition not computed yet.
const UNKNOWN: u32 = u32::MAX;

/// Table entry of every state's bail column: a byte ≥ 0x80, where the
/// line leaves for the Pike VM.
const BAIL: u32 = u32::MAX - 1;

/// Flag on a table entry whose target state matches mid-text; every
/// entry below it is a plain premultiplied state id.
const MATCH: u32 = 1 << 31;

/// A Pike-VM program prepared for lazy determinization: the
/// instruction listing plus the byte equivalence classes of its
/// consuming instructions.
///
/// Immutable and shared (one per catalog regex, owned by the
/// [`crate::RuleSet`]); the mutable per-thread state lives in
/// [`DfaCache`].
pub struct DfaProgram {
    insts: Vec<ProgInst>,
    /// Byte → table column: an ASCII byte's equivalence class id, and
    /// the bail column (`class_count()`) for every byte ≥ 0x80. Boxed
    /// so that the tagger's per-regex tier table stays compact.
    classes: Box<[u8; 256]>,
    /// One representative byte per class (for building transitions).
    class_rep: Vec<u8>,
}

impl DfaProgram {
    /// Prepares `re` for lazy determinization, or `None` when the
    /// program is ineligible and the Pike VM should be used directly.
    pub fn new(re: &Regex) -> Option<DfaProgram> {
        let insts = re.program();
        if insts.len() > MAX_PROG_INSTS {
            return None;
        }
        let consuming: Vec<usize> = insts
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_consuming())
            .map(|(pc, _)| pc)
            .collect();
        // Two bytes belong to one class iff every consuming
        // instruction treats them identically; then they provably
        // drive identical transitions from every state.
        let mut classes = Box::new([0u8; 256]);
        let mut fingerprints: Vec<Vec<bool>> = Vec::new();
        let mut class_rep: Vec<u8> = Vec::new();
        for b in 0..128u8 {
            let fp: Vec<bool> = consuming
                .iter()
                .map(|&pc| insts[pc].matches_char(b as char))
                .collect();
            let id = match fingerprints.iter().position(|f| *f == fp) {
                Some(i) => i,
                None => {
                    fingerprints.push(fp);
                    class_rep.push(b);
                    class_rep.len() - 1
                }
            };
            classes[b as usize] = id as u8;
        }
        classes[0x80..].fill(class_rep.len() as u8);
        Some(DfaProgram {
            insts,
            classes,
            class_rep,
        })
    }

    /// Number of byte equivalence classes (transition-row width).
    pub fn class_count(&self) -> usize {
        self.class_rep.len()
    }

    /// Table row width: the classes plus the bail column.
    fn stride(&self) -> usize {
        self.class_rep.len() + 1
    }

    /// Epsilon closure of `seeds` under the position predicates
    /// `at_start`/`at_end`: returns the sorted consuming program
    /// counters reached, and whether `Match` was reached.
    fn close(&self, seeds: &[u32], at_start: bool, at_end: bool) -> (Vec<u32>, bool) {
        let mut visited = vec![false; self.insts.len()];
        let mut stack: Vec<usize> = seeds.iter().map(|&s| s as usize).collect();
        let mut consuming = Vec::new();
        let mut matched = false;
        while let Some(pc) = stack.pop() {
            if visited[pc] {
                continue;
            }
            visited[pc] = true;
            match &self.insts[pc] {
                ProgInst::Match => matched = true,
                ProgInst::Jump(t) => stack.push(*t),
                ProgInst::Split(a, b) => {
                    stack.push(*b);
                    stack.push(*a);
                }
                ProgInst::Start => {
                    if at_start {
                        stack.push(pc + 1);
                    }
                }
                ProgInst::End => {
                    if at_end {
                        stack.push(pc + 1);
                    }
                }
                ProgInst::Char(_) | ProgInst::Any | ProgInst::Class { .. } => {
                    consuming.push(pc as u32);
                }
            }
        }
        consuming.sort_unstable();
        (consuming, matched)
    }
}

impl std::fmt::Debug for DfaProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DfaProgram")
            .field("insts", &self.insts.len())
            .field("classes", &self.class_rep.len())
            .finish()
    }
}

/// One cached DFA state: a determinized Pike-VM thread set.
struct DfaState {
    /// Sorted consuming program counters of the thread set.
    consuming: Vec<u32>,
    /// `Match` is reachable here mid-text (without the end anchor).
    match_now: bool,
    /// `Match` is reachable here at end of text (a superset of
    /// `match_now`, since satisfying `$` only adds paths).
    match_eof: bool,
}

/// The bounded lazy-DFA state cache for one regex.
///
/// Mutable per-thread scratch: each tagging worker owns one cache per
/// DFA-eligible regex slot and reuses it line after line, so the
/// automaton is effectively built once per worker and amortized over
/// the whole log. Memory is bounded by `max_states` — on overflow the
/// cache clears (one recorded eviction) and the current line bails to
/// the Pike VM.
///
/// # Examples
///
/// ```
/// use sclog_rules::dfa::{DfaCache, DfaProgram};
/// use sclog_rules::re::Regex;
///
/// let re = Regex::new(r"EXT[0-9]-fs (error|warning)").unwrap();
/// let prog = DfaProgram::new(&re).expect("small program is eligible");
/// let mut cache = DfaCache::new();
/// let verdict = cache.matches(&prog, "kernel: EXT3-fs error (device sda5)");
/// assert_eq!(verdict, Some(true), "resolved without the Pike VM");
/// ```
pub struct DfaCache {
    /// Hard bound on `states.len()`; every growth site checks it.
    max_states: usize,
    states: Vec<DfaState>,
    /// Transition rows, `stride` entries per state in state order:
    /// state `i`'s row starts at its premultiplied id `i * stride`.
    /// Entries are lazily filled ([`UNKNOWN`] = not yet).
    table: Vec<u32>,
    /// (consuming set, match flags) → premultiplied state id.
    index: HashMap<(Vec<u32>, u8), u32>,
    /// Clears forced by the bound since the last
    /// [`DfaCache::take_evictions`].
    evictions: u64,
}

impl Default for DfaCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DfaCache {
    /// A cache bounded at [`DEFAULT_MAX_STATES`].
    pub fn new() -> Self {
        Self::with_max_states(DEFAULT_MAX_STATES)
    }

    /// A cache bounded at `max_states` cached states (minimum 1).
    ///
    /// Tiny bounds are valid — they just bail more: the conformance
    /// suite uses them to force the eviction/bailout paths.
    pub fn with_max_states(max_states: usize) -> Self {
        DfaCache {
            max_states: max_states.max(1),
            states: Vec::new(),
            table: Vec::new(),
            index: HashMap::new(),
            evictions: 0,
        }
    }

    /// Number of states currently cached.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Takes the eviction count accumulated since the last call.
    pub fn take_evictions(&mut self) -> u64 {
        std::mem::take(&mut self.evictions)
    }

    /// Interns the state for `seeds` and returns its premultiplied
    /// id, or `None` on cache overflow (after clearing the cache and
    /// recording the eviction).
    fn make_state(&mut self, prog: &DfaProgram, seeds: &[u32], at_start: bool) -> Option<u32> {
        let (consuming, match_now) = prog.close(seeds, at_start, false);
        let (_, match_eof) = prog.close(seeds, at_start, true);
        let key = (consuming, u8::from(match_now) | (u8::from(match_eof) << 1));
        if let Some(&id) = self.index.get(&key) {
            return Some(id);
        }
        let stride = prog.stride();
        // The second bound keeps every id below the match flag.
        if self.states.len() >= self.max_states || self.table.len() + stride > MATCH as usize {
            self.states.clear();
            self.table.clear();
            self.index.clear();
            self.evictions += 1;
            return None;
        }
        let id = self.table.len() as u32;
        self.states.push(DfaState {
            consuming: key.0.clone(),
            match_now,
            match_eof,
        });
        self.table.resize(self.table.len() + stride - 1, UNKNOWN);
        self.table.push(BAIL);
        self.index.insert(key, id);
        Some(id)
    }

    /// Builds the transition out of state `s` (premultiplied) on
    /// column `col`, records it in the table, and returns the entry:
    /// the target's id, flagged with [`MATCH`] when the target matches
    /// mid-text. `None` on cache overflow.
    fn transition(&mut self, prog: &DfaProgram, s: usize, col: usize) -> Option<u32> {
        let stride = prog.stride();
        let rep = prog.class_rep[col] as char;
        // Threads that consume this byte advance; pc 0 is re-seeded
        // for the unanchored search, exactly as the VM seeds every
        // start position.
        let mut seeds: Vec<u32> = self.states[s / stride]
            .consuming
            .iter()
            .filter(|&&pc| prog.insts[pc as usize].matches_char(rep))
            .map(|&pc| pc + 1)
            .collect();
        seeds.push(0);
        let t = self.make_state(prog, &seeds, false)?;
        let entry = if self.states[t as usize / stride].match_now {
            t | MATCH
        } else {
            t
        };
        self.table[s + col] = entry;
        Some(entry)
    }

    /// Runs the DFA over `text`: `Some(verdict)` when it resolved the
    /// match exactly, `None` when it bailed (non-ASCII byte or cache
    /// overflow) and the caller must fall back to
    /// [`crate::re::Regex::is_match`].
    ///
    /// The verdict, when produced, is bit-identical to the Pike VM's:
    /// unanchored substring search with the same `^`/`$`/`.`/class
    /// semantics. The conformance suite pins this on every catalog
    /// pattern.
    pub fn matches(&mut self, prog: &DfaProgram, text: &str) -> Option<bool> {
        if self.states.is_empty() {
            // State 0 is always the start state: the closure of pc 0
            // at position 0 (start anchor satisfied).
            self.make_state(prog, &[0], true)?;
        }
        if self.states[0].match_now {
            return Some(true);
        }
        let mut s = 0usize;
        for &b in text.as_bytes() {
            let col = prog.classes[b as usize] as usize;
            let next = self.table[s + col];
            if next < MATCH {
                s = next as usize;
                continue;
            }
            s = match next {
                BAIL => return None,
                UNKNOWN => match self.transition(prog, s, col)? {
                    t if t < MATCH => t as usize,
                    _ => return Some(true),
                },
                _ => return Some(true),
            };
        }
        Some(self.states[s / prog.stride()].match_eof)
    }
}

impl std::fmt::Debug for DfaCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DfaCache")
            .field("states", &self.states.len())
            .field("max_states", &self.max_states)
            .field("evictions", &self.evictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DFA answer for `pat` on `text` with a default cache, asserting
    /// agreement with the Pike VM when the DFA resolves.
    fn agree(pat: &str, text: &str) {
        let re = Regex::new(pat).unwrap();
        let prog = DfaProgram::new(&re).expect("test patterns are eligible");
        let mut cache = DfaCache::new();
        match cache.matches(&prog, text) {
            Some(got) => assert_eq!(got, re.is_match(text), "/{pat}/ on {text:?}"),
            None => assert!(
                !text.is_ascii(),
                "/{pat}/ on {text:?}: unexpected bailout on ASCII input"
            ),
        }
    }

    #[test]
    fn agrees_with_vm_on_core_constructs() {
        let pats = [
            "abc",
            "a.c",
            "ab*c",
            "ab+c",
            "ab?c",
            "^foo",
            "bar$",
            "^foo$",
            "^$",
            "(error|warning): disk",
            "[a-f0-9]+",
            "[^0-9]",
            r"\d+",
            r"\s",
            "a{2,4}b",
            "EXT[0-9]-fs (error|warning)",
            "mptscsih: .* attempting task abort",
        ];
        let texts = [
            "",
            "abc",
            "ac",
            "abbbc",
            "foobar",
            "a foo",
            "bar baz",
            "xbar",
            "warning: disk full",
            "notice: disk",
            "deadbeef42",
            "123",
            "caaab",
            "kernel: EXT3-fs error (device sda5)",
            "mptscsih: ioc0: attempting task abort!",
            "a\nb",
        ];
        for pat in pats {
            for text in texts {
                agree(pat, text);
            }
        }
    }

    #[test]
    fn reuses_cached_states_across_lines() {
        let re = Regex::new("task abort").unwrap();
        let prog = DfaProgram::new(&re).unwrap();
        let mut cache = DfaCache::new();
        assert_eq!(cache.matches(&prog, "attempting task abort!"), Some(true));
        let built = cache.state_count();
        assert!(built > 0);
        for _ in 0..3 {
            assert_eq!(cache.matches(&prog, "attempting task abort!"), Some(true));
            assert_eq!(cache.matches(&prog, "all quiet"), Some(false));
        }
        assert!(
            cache.state_count() <= built + 2,
            "revisited lines should mostly hit cached states"
        );
        assert_eq!(cache.take_evictions(), 0);
    }

    #[test]
    fn non_ascii_input_bails_to_the_vm() {
        let re = Regex::new("[^a]").unwrap();
        let prog = DfaProgram::new(&re).unwrap();
        let mut cache = DfaCache::new();
        assert_eq!(
            cache.matches(&prog, "aaïb"),
            None,
            "the ï byte arrives before any match is certain"
        );
        // A match completed before the non-ASCII byte still resolves:
        // the scan returns early without ever seeing it.
        assert_eq!(cache.matches(&prog, "ab ï"), Some(true));
        // The same cache still resolves ASCII lines afterwards.
        assert_eq!(cache.matches(&prog, "aaaa"), Some(false));
        assert_eq!(cache.matches(&prog, "ab"), Some(true));
    }

    #[test]
    fn tiny_cache_evicts_and_bails_but_recovers() {
        let re = Regex::new("(ab|cd|ef)+x").unwrap();
        let prog = DfaProgram::new(&re).unwrap();
        let mut cache = DfaCache::with_max_states(2);
        let vm = |t: &str| re.is_match(t);
        let texts = ["abcdefx", "ababab", "x", "efx", "zzzz"];
        let mut bailed = 0;
        for t in texts {
            match cache.matches(&prog, t) {
                Some(got) => assert_eq!(got, vm(t), "{t:?}"),
                None => bailed += 1,
            }
            assert!(cache.state_count() <= 2, "bound violated on {t:?}");
        }
        assert!(bailed > 0, "a 2-state bound must force bailouts");
        assert!(cache.take_evictions() > 0, "overflow must count evictions");
        assert_eq!(cache.take_evictions(), 0, "take drains the tally");
    }

    #[test]
    fn oversized_programs_are_ineligible() {
        let re = Regex::new("a{300}").unwrap();
        assert!(
            DfaProgram::new(&re).is_none(),
            "300-instruction expansion should not determinize"
        );
        assert!(DfaProgram::new(&Regex::new("a{3}").unwrap()).is_some());
    }

    #[test]
    fn byte_classes_collapse_indistinguishable_bytes() {
        let re = Regex::new(r"\d+x").unwrap();
        let prog = DfaProgram::new(&re).unwrap();
        // Classes: digits, 'x', everything else (and '\n' only if some
        // instruction distinguishes it — `.` is absent here).
        assert!(prog.class_count() <= 4, "{prog:?}");
        let mut cache = DfaCache::new();
        assert_eq!(cache.matches(&prog, "line 42x ok"), Some(true));
        assert_eq!(cache.matches(&prog, "line 42 ok"), Some(false));
    }

    #[test]
    fn debug_is_compact() {
        let re = Regex::new("ab").unwrap();
        let prog = DfaProgram::new(&re).unwrap();
        let mut cache = DfaCache::new();
        let _ = cache.matches(&prog, "ab");
        let s = format!("{prog:?} {cache:?}");
        assert!(s.contains("max_states"), "{s}");
        assert!(!s.contains('['), "tables must not be dumped: {s}");
    }
}
