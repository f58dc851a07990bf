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

use std::collections::VecDeque;
use std::fmt;

/// Sentinel for "no trie child yet" during construction.
const ABSENT: u32 = u32::MAX;

/// A byte-oriented Aho-Corasick automaton for multi-pattern substring
/// search, stored in a cache-aware shelf layout.
///
/// Construction builds the classic keyword trie and its BFS failure
/// links, then renumbers every state by BFS order and splits them into
/// two shelves:
///
/// * **dense** — the root and its direct children keep complete
///   failure-folded 256-entry rows (one table lookup per byte). These
///   are the states the scan actually lives in on log text, and BFS
///   numbering packs them contiguously so the hot rows share cache
///   lines instead of being strewn across a megabyte-scale table.
/// * **sparse** — every deeper state stores only its real trie edges
///   as a sorted `(byte → target)` run in one flat interleaved arena,
///   plus an explicit failure link. A miss walks the failure chain
///   (strictly decreasing depth), terminating at a dense state whose
///   row is complete.
///
/// Outputs are flattened the same way: per-state `(start, end)` ranges
/// into one id arena, closed over failure chains at build time so the
/// scan never follows links to report matches. Patterns are matched as
/// raw bytes, so UTF-8 needles work on UTF-8 haystacks.
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
    /// Failure-folded 256-entry rows for states `0..dense_states`
    /// (the root and its children, in BFS order).
    dense: Vec<u32>,
    /// Number of states with dense rows; states at or past this index
    /// are sparse.
    dense_states: usize,
    /// Per-sparse-state `(start, end)` prefix sums into the sparse
    /// arenas; sparse state `s` (new id) owns run
    /// `sparse_idx[s - dense_states]..sparse_idx[s - dense_states + 1]`.
    sparse_idx: Vec<u32>,
    /// Sorted edge bytes of every sparse state, interleaved.
    sparse_bytes: Vec<u8>,
    /// Edge targets parallel to `sparse_bytes`.
    sparse_targets: Vec<u32>,
    /// Failure link of each sparse state (dense states never miss).
    sparse_fail: Vec<u32>,
    /// Per-state output ranges into `out_ids`, prefix sums.
    out_start: Vec<u32>,
    /// Pattern ids accepted on *entering* each state, closed over
    /// failure links (a state also accepts every pattern its failure
    /// chain accepts).
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
    pub fn new<I, P>(patterns: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        // Phase 1: the keyword trie, in dense scratch rows (construction
        // only; the scan-time layout is built in phase 3 and the scratch
        // is dropped).
        let mut trie: Vec<u32> = vec![ABSENT; 256];
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        let mut count = 0usize;
        for (id, pat) in patterns.into_iter().enumerate() {
            count += 1;
            let mut state = 0usize;
            for &b in pat.as_ref() {
                let slot = state * 256 + b as usize;
                state = if trie[slot] == ABSENT {
                    let fresh = out.len() as u32;
                    trie[slot] = fresh;
                    trie.resize(trie.len() + 256, ABSENT);
                    out.push(Vec::new());
                    fresh as usize
                } else {
                    trie[slot] as usize
                };
            }
            out[state].push(id as u32);
        }
        let states = out.len();

        // Phase 2: BFS failure links and output closure, recording the
        // visit order (the new state numbering) and each state's depth.
        let mut fail = vec![0u32; states];
        let mut depth = vec![0u32; states];
        let mut order: Vec<u32> = Vec::with_capacity(states);
        order.push(0);
        let mut queue = VecDeque::new();
        for &t in &trie[..256] {
            if t != ABSENT {
                depth[t as usize] = 1;
                queue.push_back(t);
            }
        }
        while let Some(s) = queue.pop_front() {
            order.push(s);
            let su = s as usize;
            let f = fail[su] as usize;
            if !out[f].is_empty() {
                let inherited = out[f].clone();
                out[su].extend(inherited);
            }
            for b in 0..256 {
                let t = trie[su * 256 + b];
                if t == ABSENT {
                    continue;
                }
                // Resolve the child's failure target along s's chain;
                // every state on the chain is shallower than s, so this
                // cannot land on the child itself.
                let mut f = fail[su] as usize;
                fail[t as usize] = loop {
                    let cand = trie[f * 256 + b];
                    if cand != ABSENT {
                        break cand;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = fail[f] as usize;
                };
                depth[t as usize] = depth[su] + 1;
                queue.push_back(t);
            }
        }

        // Phase 3: renumber by BFS order and lay out the shelves.
        let mut new_id = vec![0u32; states];
        for (i, &old) in order.iter().enumerate() {
            new_id[old as usize] = i as u32;
        }
        let dense_states = order
            .iter()
            .take_while(|&&s| depth[s as usize] <= 1)
            .count();

        let mut dense = vec![0u32; dense_states * 256];
        // Root row first: a missing edge stays at the root. Children's
        // rows then fold their misses through it — their failure state
        // is the root, whose row is already complete.
        for b in 0..256 {
            let t = trie[b];
            dense[b] = if t == ABSENT { 0 } else { new_id[t as usize] };
        }
        for (row, &old) in order[1..dense_states].iter().enumerate() {
            let base = (row + 1) * 256;
            let old_base = old as usize * 256;
            for b in 0..256 {
                let t = trie[old_base + b];
                dense[base + b] = if t == ABSENT {
                    dense[b]
                } else {
                    new_id[t as usize]
                };
            }
        }

        let mut sparse_idx = Vec::with_capacity(states - dense_states + 1);
        let mut sparse_bytes = Vec::new();
        let mut sparse_targets = Vec::new();
        let mut sparse_fail = Vec::with_capacity(states - dense_states);
        sparse_idx.push(0u32);
        for &old in &order[dense_states..] {
            let old_base = old as usize * 256;
            for b in 0..256 {
                let t = trie[old_base + b];
                if t != ABSENT {
                    sparse_bytes.push(b as u8);
                    sparse_targets.push(new_id[t as usize]);
                }
            }
            sparse_idx.push(sparse_bytes.len() as u32);
            sparse_fail.push(new_id[fail[old as usize] as usize]);
        }

        let mut out_start = Vec::with_capacity(states + 1);
        let mut out_ids = Vec::new();
        out_start.push(0u32);
        for &old in &order {
            out_ids.extend_from_slice(&out[old as usize]);
            out_start.push(out_ids.len() as u32);
        }

        AhoCorasick {
            dense,
            dense_states,
            sparse_idx,
            sparse_bytes,
            sparse_targets,
            sparse_fail,
            out_start,
            out_ids,
            patterns: count,
        }
    }

    /// Number of patterns the automaton searches for.
    pub fn pattern_count(&self) -> usize {
        self.patterns
    }

    /// One automaton step: the failure-folded transition from `state`
    /// on `b`. Dense states answer with one table lookup; sparse
    /// states probe their sorted edge run and fall down the failure
    /// chain on a miss, which strictly decreases depth and therefore
    /// terminates at a dense state.
    #[inline]
    fn step(&self, state: u32, b: u8) -> u32 {
        let mut s = state as usize;
        loop {
            if s < self.dense_states {
                return self.dense[s * 256 + b as usize];
            }
            let si = s - self.dense_states;
            let lo = self.sparse_idx[si] as usize;
            let hi = self.sparse_idx[si + 1] as usize;
            // Runs are tiny (typically one or two edges): a linear
            // probe of the sorted bytes beats binary search here.
            match self.sparse_bytes[lo..hi].iter().position(|&x| x == b) {
                Some(k) => return self.sparse_targets[lo + k],
                None => s = self.sparse_fail[si] as usize,
            }
        }
    }

    /// Output range of a state in `out_ids`.
    #[inline]
    fn out_range(&self, state: u32) -> std::ops::Range<usize> {
        self.out_start[state as usize] as usize..self.out_start[state as usize + 1] as usize
    }

    /// Scans `haystack`, invoking `on_match(pattern_id)` at every
    /// occurrence of every pattern (a pattern occurring `k` times is
    /// reported `k` times; callers deduplicate if they care).
    pub fn scan(&self, haystack: &[u8], mut on_match: impl FnMut(u32)) {
        for &id in &self.out_ids[self.out_range(0)] {
            on_match(id);
        }
        let mut state = 0u32;
        for &b in haystack {
            state = self.step(state, b);
            // Empty for the vast majority of states; check before
            // setting up the iterator.
            let range = self.out_range(state);
            if !range.is_empty() {
                for &id in &self.out_ids[range] {
                    on_match(id);
                }
            }
        }
    }

    /// True if any pattern occurs in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        if !self.out_range(0).is_empty() {
            return true;
        }
        let mut state = 0u32;
        for &b in haystack {
            state = self.step(state, b);
            if !self.out_range(state).is_empty() {
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
            .field("states", &(self.out_start.len() - 1))
            .field("dense_states", &self.dense_states)
            .field("sparse_edges", &self.sparse_bytes.len())
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
    fn shelf_split_puts_only_shallow_states_in_dense_rows() {
        // "abc"/"abd"/"xy": root + first letters {a, x} are dense; the
        // four deeper states (ab, abc, abd, xy) live on the sparse
        // shelf, and only "ab" has outgoing edges there.
        let ac = AhoCorasick::new(["abc", "abd", "xy"]);
        assert_eq!(ac.dense_states, 3, "{ac:?}");
        assert_eq!(ac.out_start.len() - 1, 7, "{ac:?}");
        assert_eq!(ac.sparse_fail.len(), 4);
        assert_eq!(ac.sparse_bytes.len(), 2);
        // Sparse edge runs are sorted by byte within each state.
        for w in 0..ac.sparse_idx.len() - 1 {
            let run = &ac.sparse_bytes[ac.sparse_idx[w] as usize..ac.sparse_idx[w + 1] as usize];
            assert!(run.windows(2).all(|p| p[0] < p[1]), "unsorted run {run:?}");
        }
    }

    #[test]
    fn deep_failure_chains_cross_the_shelf_boundary() {
        // Matching "aaab" forces misses deep on the sparse shelf that
        // must fall through several sparse failure links before a dense
        // row answers.
        let pats = ["aaaa", "aab", "ab", "b"];
        for hay in ["aaab", "aaaaaaab", "aaaxaab", "bbbb", "xaxbxaaaax"] {
            assert_eq!(ac_hits(&pats, hay), naive_hits(&pats, hay), "{hay:?}");
        }
    }

    #[test]
    fn random_pattern_sets_agree_with_contains() {
        // Small alphabet maximizes shared prefixes and failure-chain
        // traffic between the shelves.
        sclog_testkit::check("shelf automaton ≡ contains", |g| {
            let alphabet = [b'a', b'b', b'c'];
            let pats: Vec<String> = g.vec(1..=8, |g| {
                let n = g.usize_in(1..=6);
                (0..n)
                    .map(|_| *g.pick(&alphabet) as char)
                    .collect::<String>()
            });
            let pat_refs: Vec<&str> = pats.iter().map(String::as_str).collect();
            let n = g.usize_in(0..=40);
            let hay: String = (0..n).map(|_| *g.pick(&alphabet) as char).collect();
            assert_eq!(
                ac_hits(&pat_refs, &hay),
                naive_hits(&pat_refs, &hay),
                "patterns {pats:?} haystack {hay:?}"
            );
        });
    }
}
