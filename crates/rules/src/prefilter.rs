//! Multi-pattern literal prescan for the tagging engine.
//!
//! The paper's pipeline matches every raw line — 178 million of them
//! across the five systems — against the expert rule catalog before
//! filtering. Running up to 77 regexes per line is the dominant cost,
//! and production log indexers make exactly this fast with a cheap
//! multi-pattern literal prescan that gates the expensive matcher.
//!
//! This module supplies that prescan: an in-tree [`AhoCorasick`]
//! automaton (std-only, per the workspace's hermetic zero-external-
//! crates policy) built over the *required literal factors* extracted
//! from every rule's patterns ([`crate::re::Regex::required_literals`]).
//! One scan of the line yields the candidate rule set; only candidates
//! run their Pike VMs. Rules with no extractable factor live in an
//! always-check set, so the prescan is a pure optimization — it can
//! never change which rule tags a line.

use std::fmt;

/// Sentinel for "no trie child yet" during construction.
const ABSENT: u32 = u32::MAX;

/// A byte-oriented Aho-Corasick automaton for multi-pattern substring
/// search, stored as one flat DFA transition table.
///
/// Construction builds the classic keyword trie, then fills in every
/// missing edge in BFS order with the failure target's edge, so the
/// scan never follows a failure link: each byte is one table lookup.
/// The table's columns are *byte classes*, not bytes: every byte that
/// occurs in some pattern has a class of its own, and all other bytes
/// share one. The catalog's factors use a few dozen distinct bytes, so
/// a row is tens of entries instead of 256 and the whole table stays
/// cache-resident.
///
/// State ids are premultiplied by the row width (a state's id is the
/// index of its row), and the states that report a pattern are
/// numbered last, so the scan loop is
/// `s = table[s + class[b]]; if s >= match_base { report }`.
///
/// Outputs are per-match-state ranges into one id arena, closed over
/// failure chains at build time. Patterns are matched as raw bytes, so
/// UTF-8 needles work on UTF-8 haystacks.
///
/// # Examples
///
/// ```
/// use sclog_rules::prefilter::AhoCorasick;
///
/// let ac = AhoCorasick::new(["he", "she", "hers"]);
/// let mut hits = Vec::new();
/// ac.scan(b"ushers", |id| hits.push(id));
/// hits.sort_unstable();
/// hits.dedup();
/// assert_eq!(hits, vec![0, 1, 2]); // "he", "she", "hers" all occur
/// ```
pub struct AhoCorasick {
    /// Byte → class column.
    classes: [u8; 256],
    /// Row width: the number of byte classes.
    stride: usize,
    /// Complete transitions: `table[s + class]` is the premultiplied
    /// id of the state after reading a byte of `class` in state `s`.
    /// The root is state 0.
    table: Vec<u32>,
    /// Premultiplied id of the first state that reports a pattern;
    /// every state at or past it does, and no state before it does.
    match_base: u32,
    /// Prefix sums into `out_ids`: the `m`-th match state (id
    /// `match_base + m * stride`) reports `out_start[m]..out_start[m + 1]`.
    out_start: Vec<u32>,
    /// Pattern ids accepted on *entering* each match state, closed
    /// over failure links (a state also accepts every pattern its
    /// failure chain accepts).
    out_ids: Vec<u32>,
    /// Number of patterns the automaton was built over.
    patterns: usize,
}

impl AhoCorasick {
    /// Builds the automaton over `patterns`; pattern ids reported by
    /// [`AhoCorasick::scan`] are indices into this sequence.
    ///
    /// An empty pattern occurs trivially everywhere; it is reported
    /// once per scanned byte plus once for the empty haystack prefix.
    ///
    /// # Panics
    ///
    /// If the table would need more than `u32::MAX` entries.
    pub fn new<I, P>(patterns: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        let patterns: Vec<P> = patterns.into_iter().collect();

        // Byte classes from the pattern bytes: class 0 is shared by
        // every byte no pattern uses (when there is such a byte), and
        // each used byte gets the next class.
        let mut used = [false; 256];
        for pat in &patterns {
            for &b in pat.as_ref() {
                used[b as usize] = true;
            }
        }
        let mut classes = [0u8; 256];
        let mut stride = usize::from(used.contains(&false));
        for (b, _) in used.iter().enumerate().filter(|(_, &u)| u) {
            classes[b] = stride as u8;
            stride += 1;
        }

        // The keyword trie, one row of `stride` child slots per state.
        let mut trie: Vec<u32> = vec![ABSENT; stride];
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        for (id, pat) in patterns.iter().enumerate() {
            let mut state = 0usize;
            for &b in pat.as_ref() {
                let slot = state * stride + classes[b as usize] as usize;
                state = match trie[slot] {
                    ABSENT => {
                        let fresh = out.len();
                        trie[slot] = fresh as u32;
                        trie.resize(trie.len() + stride, ABSENT);
                        out.push(Vec::new());
                        fresh
                    }
                    t => t as usize,
                };
            }
            out[state].push(id as u32);
        }
        let states = out.len();
        assert!(
            u32::try_from(states * stride).is_ok(),
            "prefilter automaton exceeds u32 state ids"
        );

        // BFS (`order` doubles as the queue): a missing edge becomes
        // the failure target's edge, whose row is already complete
        // because the failure target is shallower. A real edge's
        // failure link is that same folded edge. Outputs close over
        // failure links on the way.
        let mut fail = vec![0u32; states];
        let mut order: Vec<u32> = Vec::with_capacity(states);
        order.push(0);
        let mut head = 0;
        while head < order.len() {
            let s = order[head] as usize;
            head += 1;
            let f = fail[s] as usize;
            if s != 0 && !out[f].is_empty() {
                let inherited = out[f].clone();
                out[s].extend(inherited);
            }
            for c in 0..stride {
                // The root's misses stay at the root.
                let folded = if s == 0 { 0 } else { trie[f * stride + c] };
                let t = trie[s * stride + c];
                if t == ABSENT {
                    trie[s * stride + c] = folded;
                } else {
                    fail[t as usize] = folded;
                    order.push(t);
                }
            }
        }

        // Renumber: states without outputs first, then match states,
        // each group in BFS order. The root stays 0 either way: with
        // no outputs it leads the first group, and with outputs (an
        // empty pattern) every state inherits them, so there is no
        // first group.
        let step = stride as u32;
        let mut new_id = vec![0u32; states];
        let mut next = 0u32;
        for &s in order.iter().filter(|&&s| out[s as usize].is_empty()) {
            new_id[s as usize] = next;
            next += step;
        }
        let match_base = next;
        for &s in order.iter().filter(|&&s| !out[s as usize].is_empty()) {
            new_id[s as usize] = next;
            next += step;
        }

        let mut table = vec![0u32; states * stride];
        for (old, row) in trie.chunks_exact(stride).enumerate() {
            let base = new_id[old] as usize;
            for (slot, &t) in table[base..base + stride].iter_mut().zip(row) {
                *slot = new_id[t as usize];
            }
        }

        let mut out_start = vec![0u32];
        let mut out_ids = Vec::new();
        for &s in &order {
            if !out[s as usize].is_empty() {
                out_ids.extend_from_slice(&out[s as usize]);
                out_start.push(out_ids.len() as u32);
            }
        }

        AhoCorasick {
            classes,
            stride,
            table,
            match_base,
            out_start,
            out_ids,
            patterns: patterns.len(),
        }
    }

    /// Number of patterns the automaton searches for.
    pub fn pattern_count(&self) -> usize {
        self.patterns
    }

    /// Pattern ids a match state reports.
    #[inline]
    fn outputs(&self, state: u32) -> &[u32] {
        let m = (state - self.match_base) as usize / self.stride;
        &self.out_ids[self.out_start[m] as usize..self.out_start[m + 1] as usize]
    }

    /// Scans `haystack`, invoking `on_match(pattern_id)` at every
    /// occurrence of every pattern (a pattern occurring `k` times is
    /// reported `k` times; callers deduplicate if they care).
    pub fn scan(&self, haystack: &[u8], mut on_match: impl FnMut(u32)) {
        let mut state = 0u32;
        if state >= self.match_base {
            self.outputs(state).iter().for_each(|&id| on_match(id));
        }
        for &b in haystack {
            state = self.table[state as usize + self.classes[b as usize] as usize];
            if state >= self.match_base {
                self.outputs(state).iter().for_each(|&id| on_match(id));
            }
        }
    }

    /// True if any pattern occurs in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        // A reporting root means an empty pattern, which occurs in
        // every haystack.
        if self.match_base == 0 {
            return true;
        }
        let mut state = 0u32;
        for &b in haystack {
            state = self.table[state as usize + self.classes[b as usize] as usize];
            if state >= self.match_base {
                return true;
            }
        }
        false
    }
}

impl fmt::Debug for AhoCorasick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AhoCorasick")
            .field("patterns", &self.patterns)
            .field("states", &(self.table.len() / self.stride))
            .field("classes", &self.stride)
            .field("match_states", &(self.out_start.len() - 1))
            .finish()
    }
}

/// The rule-level prescan: maps factor hits from one [`AhoCorasick`]
/// scan of a line to a candidate-rule bitset.
///
/// Built once per [`crate::RuleSet`] from each rule's required
/// literals; rules without factors are folded into an always-check
/// mask so they are candidates on every line.
pub(crate) struct RulePrefilter {
    ac: AhoCorasick,
    /// `factor_rules[pattern_id]` — indices of rules requiring that
    /// factor (a factor shared by several rules is stored once).
    factor_rules: Vec<Vec<u32>>,
    /// Bitset over rules with no extractable factor.
    always_mask: Vec<u64>,
}

impl RulePrefilter {
    /// Builds the prescan from per-rule factor lists (`None` = rule
    /// must always be checked).
    pub(crate) fn new(rule_factors: &[Option<Vec<String>>]) -> Self {
        let words = rule_factors.len().div_ceil(64);
        let mut always_mask = vec![0u64; words];
        let mut ids: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
        let mut patterns: Vec<&str> = Vec::new();
        let mut factor_rules: Vec<Vec<u32>> = Vec::new();
        for (r, f) in rule_factors.iter().enumerate() {
            match f {
                None => always_mask[r / 64] |= 1 << (r % 64),
                Some(alts) => {
                    for alt in alts {
                        let id = *ids.entry(alt).or_insert_with(|| {
                            patterns.push(alt);
                            factor_rules.push(Vec::new());
                            (patterns.len() - 1) as u32
                        });
                        let rules = &mut factor_rules[id as usize];
                        if rules.last() != Some(&(r as u32)) {
                            rules.push(r as u32);
                        }
                    }
                }
            }
        }
        RulePrefilter {
            ac: AhoCorasick::new(&patterns),
            factor_rules,
            always_mask,
        }
    }

    /// Fills `bits` with the candidate rule bitset for `line`: the
    /// always-check rules plus every rule at least one of whose
    /// factors occurs in the line.
    pub(crate) fn candidates(&self, line: &str, bits: &mut Vec<u64>) {
        bits.clear();
        bits.extend_from_slice(&self.always_mask);
        self.ac.scan(line.as_bytes(), |id| {
            for &r in &self.factor_rules[id as usize] {
                bits[(r / 64) as usize] |= 1 << (r % 64);
            }
        });
    }
}

impl fmt::Debug for RulePrefilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let always: u32 = self.always_mask.iter().map(|w| w.count_ones()).sum();
        f.debug_struct("RulePrefilter")
            .field("factors", &self.factor_rules.len())
            .field("always_check_rules", &always)
            .field("automaton", &self.ac)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation: pattern ids whose needle occurs.
    fn naive_hits(patterns: &[&str], haystack: &str) -> Vec<u32> {
        patterns
            .iter()
            .enumerate()
            .filter(|(_, p)| haystack.contains(**p))
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn ac_hits(patterns: &[&str], haystack: &str) -> Vec<u32> {
        let ac = AhoCorasick::new(patterns);
        let mut hits = Vec::new();
        ac.scan(haystack.as_bytes(), |id| hits.push(id));
        hits.sort_unstable();
        hits.dedup();
        hits
    }

    #[test]
    fn classic_keyword_set() {
        let pats = ["he", "she", "his", "hers"];
        assert_eq!(ac_hits(&pats, "ushers"), naive_hits(&pats, "ushers"));
        assert_eq!(ac_hits(&pats, "this"), naive_hits(&pats, "this"));
        assert_eq!(ac_hits(&pats, "xyz"), Vec::<u32>::new());
    }

    #[test]
    fn overlapping_and_nested_patterns() {
        let pats = ["aa", "aaa", "aaaa", "ab"];
        for hay in ["aaaa", "aab", "baaab", "", "a"] {
            assert_eq!(ac_hits(&pats, hay), naive_hits(&pats, hay), "{hay:?}");
        }
    }

    #[test]
    fn agrees_with_contains_on_log_like_lines() {
        let pats = [
            "EXT3-fs error",
            "task abort",
            "kernel panic",
            "tm_reply",
            "error",
        ];
        let lines = [
            "Mar  7 14:30:05 dn228 pbs_mom: task_check, cannot tm_reply to 4418 task 1",
            "kernel: EXT3-fs error (device sda5)",
            "all quiet on sn373",
            "KERNEL FATAL kernel panic",
        ];
        for line in lines {
            assert_eq!(ac_hits(&pats, line), naive_hits(&pats, line), "{line:?}");
        }
    }

    #[test]
    fn utf8_needles_match_bytewise() {
        let pats = ["naïve", "ïv"];
        assert_eq!(ac_hits(&pats, "a naïve plan"), vec![0, 1]);
        assert_eq!(ac_hits(&pats, "naive"), Vec::<u32>::new());
    }

    #[test]
    fn empty_pattern_hits_everywhere() {
        let ac = AhoCorasick::new([""]);
        let mut hits = 0;
        ac.scan(b"abc", |_| hits += 1);
        assert!(hits >= 1);
        assert!(ac.is_match(b""));
    }

    #[test]
    fn is_match_short_circuits() {
        let ac = AhoCorasick::new(["needle"]);
        assert!(ac.is_match(b"hay needle hay"));
        assert!(!ac.is_match(b"haystack"));
        assert_eq!(ac.pattern_count(), 1);
    }

    #[test]
    fn prefilter_marks_candidates_and_always_check() {
        // Rules: 0 wants "abc" or "xyz"; 1 has no factor; 2 wants "q".
        let factors = vec![
            Some(vec!["abc".to_string(), "xyz".to_string()]),
            None,
            Some(vec!["q".to_string()]),
        ];
        let pf = RulePrefilter::new(&factors);
        let mut bits = Vec::new();
        pf.candidates("zzz xyz zzz", &mut bits);
        assert_eq!(bits[0] & 0b111, 0b011); // rule 0 hit, rule 1 always
        pf.candidates("nothing here", &mut bits);
        assert_eq!(bits[0] & 0b111, 0b010); // only the always-check rule
        pf.candidates("q abc", &mut bits);
        assert_eq!(bits[0] & 0b111, 0b111);
    }

    #[test]
    fn prefilter_shares_duplicate_factors() {
        // Two rules keyed on the same factor both become candidates.
        let factors = vec![Some(vec!["dup".to_string()]), Some(vec!["dup".to_string()])];
        let pf = RulePrefilter::new(&factors);
        assert_eq!(pf.ac.pattern_count(), 1);
        let mut bits = Vec::new();
        pf.candidates("a dup b", &mut bits);
        assert_eq!(bits[0] & 0b11, 0b11);
    }

    #[test]
    fn debug_is_compact() {
        let ac = AhoCorasick::new(["abc"]);
        let s = format!("{ac:?}");
        assert!(s.contains("patterns"), "{s}");
        assert!(!s.contains('['), "dense tables must not be dumped: {s}");
    }

    #[test]
    fn match_states_are_numbered_last_in_premultiplied_rows() {
        // "abc"/"abd"/"xy" use six distinct bytes, plus the class every
        // other byte shares: seven columns. Seven states (root, a, ab,
        // abc, abd, x, xy), of which the three pattern ends report.
        let ac = AhoCorasick::new(["abc", "abd", "xy"]);
        assert_eq!(ac.stride, 7, "{ac:?}");
        assert_eq!(ac.table.len(), 7 * 7, "{ac:?}");
        assert_eq!(ac.match_base, 4 * 7, "{ac:?}");
        assert_eq!(ac.out_start.len() - 1, 3, "{ac:?}");
        assert_eq!(ac.classes[b'z' as usize], ac.classes[0xFF]);
        assert_ne!(ac.classes[b'a' as usize], ac.classes[b'b' as usize]);
        // Every entry is a premultiplied state id.
        for &t in &ac.table {
            assert_eq!(t as usize % ac.stride, 0, "entry {t} is not a row start");
            assert!((t as usize) < ac.table.len(), "entry {t} is past the table");
        }
        // Every state past the base has an output range, and each
        // reports at least one pattern.
        let rows = ac.table.len() / ac.stride;
        let past_base = rows - ac.match_base as usize / ac.stride;
        assert_eq!(past_base, ac.out_start.len() - 1);
        for s in (ac.match_base as usize..ac.table.len()).step_by(ac.stride) {
            assert!(
                !ac.outputs(s as u32).is_empty(),
                "match state {s} is silent"
            );
        }
        // The root (id 0) reports nothing without an empty pattern.
        assert!(ac.match_base > 0);
        // A byte no pattern uses steps every state back to the root.
        for s in (0..ac.table.len()).step_by(ac.stride) {
            assert_eq!(ac.table[s + ac.classes[b'q' as usize] as usize], 0);
        }
    }

    #[test]
    fn empty_pattern_makes_every_state_a_match_state() {
        let ac = AhoCorasick::new(["", "ab"]);
        assert_eq!(ac.match_base, 0, "{ac:?}");
        assert_eq!(ac.out_start.len() - 1, ac.table.len() / ac.stride);
    }

    #[test]
    fn all_256_bytes_in_patterns_need_no_shared_class() {
        let every: Vec<u8> = (0..=255).collect();
        let ac = AhoCorasick::new([every.as_slice()]);
        assert_eq!(ac.stride, 256, "{ac:?}");
        let mut hits = 0;
        ac.scan(&every, |_| hits += 1);
        assert_eq!(hits, 1);
    }

    #[test]
    fn deep_failure_chains_fold_into_the_table() {
        // Matching "aaab" forces misses deep in the trie whose answer
        // sits several failure links down; the table folds them all.
        let pats = ["aaaa", "aab", "ab", "b"];
        for hay in ["aaab", "aaaaaaab", "aaaxaab", "bbbb", "xaxbxaaaax"] {
            assert_eq!(ac_hits(&pats, hay), naive_hits(&pats, hay), "{hay:?}");
        }
    }

    #[test]
    fn random_pattern_sets_agree_with_contains() {
        // Patterns are drawn from a small alphabet of atoms (shared
        // prefixes and long failure chains), including multi-byte UTF-8
        // sequences that share a lead byte, raw bytes >= 0x80 and the
        // empty pattern. Haystacks add atoms no pattern uses, among
        // them a lone UTF-8 lead byte. Every occurrence counts.
        let pattern_atoms: [&[u8]; 7] = [
            b"a",
            b"b",
            b"c",
            "\u{ef}".as_bytes(),
            "\u{e9}".as_bytes(),
            &[0x80],
            &[0xFF],
        ];
        let hay_atoms: Vec<&[u8]> = pattern_atoms
            .iter()
            .copied()
            .chain([b"x".as_slice(), &[0xFE], &[0xC3], &[0x00]])
            .collect();
        sclog_testkit::check("table automaton counts every occurrence", |g| {
            let pats: Vec<Vec<u8>> = g.vec(1..=8, |g| {
                let n = if g.chance(0.1) { 0 } else { g.usize_in(1..=4) };
                (0..n)
                    .flat_map(|_| g.pick(&pattern_atoms).to_vec())
                    .collect()
            });
            let n = g.usize_in(0..=40);
            let hay: Vec<u8> = (0..n).flat_map(|_| g.pick(&hay_atoms).to_vec()).collect();
            let ac = AhoCorasick::new(&pats);
            let mut got = vec![0usize; pats.len()];
            ac.scan(&hay, |id| got[id as usize] += 1);
            let want: Vec<usize> = pats
                .iter()
                .map(|p| match p.len() {
                    0 => hay.len() + 1,
                    k => hay.windows(k).filter(|w| w == p).count(),
                })
                .collect();
            assert_eq!(got, want, "patterns {pats:?} haystack {hay:?}");
            assert_eq!(
                ac.is_match(&hay),
                want.iter().any(|&c| c > 0),
                "patterns {pats:?} haystack {hay:?}"
            );
        });
    }
}
