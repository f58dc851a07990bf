//! Lazy-DFA conformance against the Pike VM, over exactly the pattern
//! population the engine serves: every regex in the 77-rule catalog is
//! determinized and matched against every system's canonical example
//! bodies plus testkit-sampled lines, and each resolved verdict must
//! equal the VM's. A forced-tiny cache then drives the eviction and
//! bailout paths while the tagger's output must stay bit-identical.

use sclog_rules::catalog::{catalog, example_body};
use sclog_rules::re::Regex;
use sclog_rules::{parse_ruleset, DfaCache, DfaProgram, RuleExpr, RuleSet, TagScratch};
use sclog_testkit::{check, Gen};
use sclog_types::{CategoryRegistry, SystemId, ALL_SYSTEMS};
use std::cell::Cell;

/// Collects the regex pattern literals of a rule expression, in
/// source order.
fn patterns(expr: &RuleExpr, out: &mut Vec<String>) {
    match expr {
        RuleExpr::Line(re) | RuleExpr::Field(_, re) => out.push(re.clone()),
        RuleExpr::Not(e) => patterns(e, out),
        RuleExpr::And(a, b) | RuleExpr::Or(a, b) => {
            patterns(a, out);
            patterns(b, out);
        }
    }
}

/// Every distinct pattern in the whole catalog, compiled.
fn catalog_regexes() -> Vec<(String, Regex)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for &sys in &ALL_SYSTEMS {
        for spec in catalog(sys) {
            let expr = RuleExpr::parse(spec.rule)
                .unwrap_or_else(|e| panic!("rule {} failed to parse: {e}", spec.name));
            let mut pats = Vec::new();
            patterns(&expr, &mut pats);
            for pat in pats {
                if seen.insert(pat.clone()) {
                    let re = Regex::new(&pat)
                        .unwrap_or_else(|e| panic!("pattern /{pat}/ failed to compile: {e}"));
                    out.push((pat, re));
                }
            }
        }
    }
    out
}

/// Every canonical example body across all five systems.
fn all_bodies() -> Vec<String> {
    ALL_SYSTEMS
        .iter()
        .flat_map(|&sys| catalog(sys).iter().map(example_body).collect::<Vec<_>>())
        .collect()
}

#[test]
fn every_catalog_pattern_is_dfa_eligible() {
    // The catalog is the workload the DFA tier exists for; if a rule
    // edit ever pushes a pattern past the program-size bound, the
    // silent fall back to the VM should be a visible choice, not an
    // accident.
    for (pat, re) in catalog_regexes() {
        if !re.is_literal() {
            assert!(
                DfaProgram::new(&re).is_some(),
                "catalog pattern /{pat}/ no longer determinizes"
            );
        }
    }
}

#[test]
fn dfa_agrees_with_vm_on_all_golden_bodies() {
    let bodies = all_bodies();
    let mut resolved = 0u64;
    for (pat, re) in catalog_regexes() {
        let Some(prog) = DfaProgram::new(&re) else {
            continue;
        };
        let mut cache = DfaCache::default();
        for body in &bodies {
            if let Some(verdict) = cache.matches(&prog, body) {
                resolved += 1;
                assert_eq!(
                    verdict,
                    re.is_match(body),
                    "DFA and VM disagree: /{pat}/ on {body:?}"
                );
            }
        }
    }
    assert!(resolved > 1000, "the matrix should mostly resolve via DFA");
}

#[test]
fn dfa_agrees_with_vm_on_sampled_lines() {
    let regexes = catalog_regexes();
    let bodies = all_bodies();
    check("dfa == vm on sampled lines", |g| {
        // Half free-form ASCII lines, half mutated golden bodies so
        // the samples stay near the patterns' accept boundaries.
        let text = if g.chance(0.5) {
            g.ascii_line(0..=120)
        } else {
            let mut t: String = g.pick(&bodies).clone();
            if g.chance(0.5) && !t.is_empty() {
                t.truncate(g.usize_in(0..=t.len()));
            }
            t
        };
        for (pat, re) in &regexes {
            let Some(prog) = DfaProgram::new(re) else {
                continue;
            };
            let mut cache = DfaCache::default();
            if let Some(verdict) = cache.matches(&prog, &text) {
                assert_eq!(
                    verdict,
                    re.is_match(&text),
                    "DFA and VM disagree: /{pat}/ on {text:?}"
                );
            }
        }
    });
}

#[test]
fn tiny_cache_still_agrees_where_it_resolves() {
    let bodies = all_bodies();
    let mut bailed = 0u64;
    let mut resolved = 0u64;
    for (pat, re) in catalog_regexes() {
        let Some(prog) = DfaProgram::new(&re) else {
            continue;
        };
        // Two states cannot hold any interesting automaton: every
        // overflow must clear, count an eviction, and bail — never
        // return a wrong verdict.
        let mut cache = DfaCache::with_max_states(2);
        for body in &bodies {
            match cache.matches(&prog, body) {
                Some(verdict) => {
                    resolved += 1;
                    assert_eq!(
                        verdict,
                        re.is_match(body),
                        "tiny-cache DFA and VM disagree: /{pat}/ on {body:?}"
                    );
                }
                None => bailed += 1,
            }
        }
        assert!(cache.state_count() <= 2, "cache bound violated: /{pat}/");
    }
    assert!(bailed > 0, "a 2-state cache must overflow somewhere");
    assert!(resolved > 0, "trivial patterns still fit 2 states");
}

/// Tags every line with both rulesets and asserts identical outcomes.
fn tags_agree(reference: &RuleSet, other: &RuleSet, lines: &[String], label: &str) {
    let mut scratch_a = TagScratch::new();
    let mut scratch_b = TagScratch::new();
    for line in lines {
        assert_eq!(
            reference.tag_line_with(line, &mut scratch_a),
            other.tag_line_with(line, &mut scratch_b),
            "{label}: tag diverged on {line:?}"
        );
    }
}

#[test]
fn forced_tiny_cache_keeps_tagging_bit_identical() {
    let bodies = all_bodies();
    let mut bailouts = 0u64;
    for &sys in &ALL_SYSTEMS {
        let reference = RuleSet::builtin(sys, &mut CategoryRegistry::new());
        let tiny = RuleSet::builtin(sys, &mut CategoryRegistry::new()).with_dfa_cache_states(1);
        tags_agree(&reference, &tiny, &bodies, "tiny cache");

        // And the accounting: every VM-eligible execution is either a
        // DFA resolve or a bailout, on both configurations.
        let mut scratch = TagScratch::new();
        for body in &bodies {
            let _ = tiny.tag_line_with(body, &mut scratch);
        }
        let counts = scratch.take_counts();
        assert_eq!(
            counts.vm_eligible,
            counts.dfa_execs + counts.dfa_bailouts,
            "{sys}: tier accounting leaked"
        );
        bailouts += counts.dfa_bailouts;
    }
    // Per system the prefilter may leave only literal-tier rules
    // running, so the overflow pressure is asserted in aggregate.
    assert!(bailouts > 0, "a 1-state cache must bail somewhere");
}

#[test]
fn default_cache_resolves_the_catalog_and_accounts_exactly() {
    let bodies = all_bodies();
    for &sys in &ALL_SYSTEMS {
        let rules = RuleSet::builtin(sys, &mut CategoryRegistry::new());
        let mut scratch = TagScratch::new();
        for body in &bodies {
            let _ = rules.tag_line_with(body, &mut scratch);
        }
        let counts = scratch.take_counts();
        assert_eq!(
            counts.vm_eligible,
            counts.dfa_execs + counts.dfa_bailouts,
            "{sys}: tier accounting leaked"
        );
        if counts.vm_eligible > 0 {
            assert!(
                counts.dfa_execs > 0,
                "{sys}: the default cache should resolve eligible ASCII bodies"
            );
        }
        assert_eq!(
            counts.dfa_evictions, 0,
            "{sys}: the default bound must hold every catalog pattern"
        );
    }
}

#[test]
fn non_ascii_lines_tag_identically_via_vm_fallback() {
    // Lines with bytes >= 0x80 make the DFA bail mid-scan; the result
    // must still match the brute-force all-rules oracle.
    for &sys in &ALL_SYSTEMS {
        let rules = RuleSet::builtin(sys, &mut CategoryRegistry::new());
        let mut scratch = TagScratch::new();
        for spec in catalog(sys) {
            let body = example_body(spec);
            for decorated in [
                format!("naïve {body}"),
                format!("{body} — trailing dash"),
                format!("\u{FFFD}{body}\u{FFFD}"),
            ] {
                assert_eq!(
                    rules.tag_line_with(&decorated, &mut scratch),
                    rules.tag_line_unfiltered(&decorated),
                    "{sys}: prefiltered/DFA path diverged on {decorated:?}"
                );
            }
        }
        let counts = scratch.take_counts();
        assert_eq!(
            counts.vm_eligible,
            counts.dfa_execs + counts.dfa_bailouts,
            "{sys}: tier accounting leaked"
        );
    }
}

#[test]
fn sampled_lines_tag_identically_across_cache_bounds() {
    // Engine-level property: for random lines, the default ruleset,
    // a tiny-cache ruleset, and the unfiltered oracle all agree.
    for &sys in &ALL_SYSTEMS {
        let rules = RuleSet::builtin(sys, &mut CategoryRegistry::new());
        let tiny = RuleSet::builtin(sys, &mut CategoryRegistry::new()).with_dfa_cache_states(2);
        let bodies: Vec<String> = catalog(sys).iter().map(example_body).collect();
        check("tagging agrees across cache bounds", |g| {
            let mut scratch = TagScratch::new();
            let mut tiny_scratch = TagScratch::new();
            let line = if g.chance(0.5) {
                g.ascii_line(0..=120)
            } else {
                format!("{} {}", g.pick(&bodies), g.ascii_line(0..=20))
            };
            let got = rules.tag_line_with(&line, &mut scratch);
            assert_eq!(
                got,
                tiny.tag_line_with(&line, &mut tiny_scratch),
                "{sys}: cache bound changed the tag on {line:?}"
            );
            assert_eq!(
                got,
                rules.tag_line_unfiltered(&line),
                "{sys}: prefiltered path diverged on {line:?}"
            );
        });
    }
}

/// Patterns whose verdicts depend on how non-ASCII text is stepped:
/// `.` and negated classes consume one char in the VM but would
/// consume one byte of a multi-byte char in a byte automaton, and
/// anchors then decide whether the length mismatch shows.
const STEPPING_PATTERNS: [&str; 12] = [
    "^a.b$",
    "a.b",
    "a..b",
    "a[^x]b",
    "[^a-z ]",
    "x.*y$",
    "ab+c",
    "(ab|cd)+e",
    "^[a-c]*$",
    "b$",
    "^.$",
    "^$",
];

/// A seeded line over a few ASCII letters with non-ASCII chars at
/// random positions, often right after a prefix that starts a match
/// of one of [`STEPPING_PATTERNS`].
fn stepping_line(g: &mut Gen) -> String {
    const ASCII: [&str; 7] = ["a", "b", "c", "d", "e", "x", " "];
    const WIDE: [&str; 5] = ["\u{ef}", "\u{e9}", "\u{20ac}", "\u{fffd}", "\u{1f600}"];
    const PARTIAL: [&str; 6] = ["a", "ab", "abb", "cd", "x", "a "];
    let mut line = String::new();
    for _ in 0..g.usize_in(0..=8) {
        match g.usize_in(0..=4) {
            0 => line.push_str(g.pick::<&str>(&WIDE)),
            1 => {
                line.push_str(g.pick::<&str>(&PARTIAL));
                line.push_str(g.pick::<&str>(&WIDE));
            }
            _ => line.push_str(g.pick::<&str>(&ASCII)),
        }
    }
    line
}

#[test]
fn tiny_caches_agree_with_vm_on_non_ascii_lines() {
    // The fixed case first: `.` must take all of `ï`, so the DFA may
    // not answer from its bytes.
    let re = Regex::new("^a.b$").unwrap();
    let prog = DfaProgram::new(&re).unwrap();
    assert!(re.is_match("a\u{ef}b"));
    assert_eq!(DfaCache::new().matches(&prog, "a\u{ef}b"), None);

    let resolved = Cell::new(0u64);
    let bailed = Cell::new(0u64);
    check("lazy DFA == Pike VM, 1-3 states, non-ASCII", |g| {
        let pat = *g.pick(&STEPPING_PATTERNS);
        let re = Regex::new(pat).unwrap();
        let prog = DfaProgram::new(&re).expect("small programs determinize");
        let bound = g.usize_in(1..=3);
        let mut cache = DfaCache::with_max_states(bound);
        // Several lines through one cache, so states and evictions
        // carry over from line to line.
        for _ in 0..4 {
            let line = stepping_line(g);
            match cache.matches(&prog, &line) {
                Some(verdict) => {
                    resolved.set(resolved.get() + 1);
                    assert_eq!(
                        verdict,
                        re.is_match(&line),
                        "{bound}-state DFA and VM disagree: /{pat}/ on {line:?}"
                    );
                }
                None => bailed.set(bailed.get() + 1),
            }
            assert!(cache.state_count() <= bound, "bound violated: /{pat}/");
        }
    });
    assert!(resolved.get() > 0 && bailed.get() > 0);
}

#[test]
fn tiny_cache_rulesets_tag_non_ascii_lines_like_the_oracle() {
    let text: String = STEPPING_PATTERNS
        .iter()
        .enumerate()
        .map(|(i, pat)| format!("R{i} H /{pat}/\n"))
        .collect();
    let defs = parse_ruleset(&text).unwrap();
    let rulesets: Vec<RuleSet> = (1..=3)
        .map(|bound| {
            RuleSet::from_defs(SystemId::Liberty, &defs, &mut CategoryRegistry::new())
                .with_dfa_cache_states(bound)
        })
        .collect();
    let oracle = &rulesets[0];
    assert!(oracle
        .tag_line_with("a\u{ef}b", &mut TagScratch::new())
        .is_some());
    check("tiny-cache tagging == unfiltered, non-ASCII", |g| {
        let rules = g.pick(&rulesets);
        let mut scratch = TagScratch::new();
        for _ in 0..4 {
            let line = stepping_line(g);
            assert_eq!(
                rules.tag_line_with(&line, &mut scratch),
                oracle.tag_line_unfiltered(&line),
                "tag diverged on {line:?}"
            );
        }
        let counts = scratch.take_counts();
        assert_eq!(
            counts.vm_eligible,
            counts.dfa_execs + counts.dfa_bailouts,
            "tier accounting leaked"
        );
    });
}
