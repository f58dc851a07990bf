//! Equivalence of the prefiltered tagging engine and the brute-force
//! all-rules path.
//!
//! The Aho-Corasick prescan is pure optimization: a candidate-rule
//! bitset plus an always-check set for factor-less rules must never
//! change which rule fires. These tests pin that down on generated
//! logs for all five systems, and separately check that every
//! catalog rule's extracted literal factors actually occur in the
//! rule's own example line — the soundness property the prescan
//! depends on.

use sclog::parse::render_native;
use sclog::rules::catalog::{catalog, example_body, example_value, fill_template};
use sclog::rules::{Predicate, RuleSet, TagScratch};
use sclog::simgen::{generate, Scale};
use sclog::types::{CategoryRegistry, ALL_SYSTEMS};
use sclog_testkit::{check_n, Gen};

/// Generation dominates runtime; mirrors `prop_invariants.rs`.
const PIPELINE_CASES: u64 = 12;

#[test]
fn prefiltered_tagging_equals_brute_force_on_generated_logs() {
    check_n(
        "prefiltered tagging equals brute force on generated logs",
        PIPELINE_CASES,
        |g| {
            let sys = *g.pick(&ALL_SYSTEMS);
            let seed = g.below(10_000);
            let log = generate(sys, Scale::new(0.002, 0.00005), seed);
            let mut registry = CategoryRegistry::new();
            let rules = RuleSet::builtin(sys, &mut registry);
            let pre = rules.tag_messages(&log.messages, &log.interner);
            let brute = rules.tag_messages_unfiltered(&log.messages, &log.interner);
            assert_eq!(
                pre.alerts, brute.alerts,
                "{sys} seed {seed}: prescan changed the tagging"
            );
        },
    );
}

#[test]
fn prefiltered_tagging_equals_brute_force_per_line() {
    // Line-level check including corrupted/garbled lines the message
    // path may render oddly: tag each rendered line both ways.
    check_n(
        "prefiltered tagging equals brute force per line",
        PIPELINE_CASES,
        |g: &mut Gen| {
            let sys = *g.pick(&ALL_SYSTEMS);
            let seed = g.below(10_000);
            let log = generate(sys, Scale::new(0.002, 0.00002), seed);
            let mut registry = CategoryRegistry::new();
            let rules = RuleSet::builtin(sys, &mut registry);
            for msg in &log.messages {
                let line = render_native(msg, &log.interner);
                assert_eq!(
                    rules.tag_line_with(&line, &mut TagScratch::new()),
                    rules.tag_line_unfiltered(&line),
                    "{sys} seed {seed}: divergence on line {line:?}"
                );
            }
        },
    );
}

#[test]
fn every_rule_factor_occurs_in_its_example_line() {
    // If a rule has required literals, its own example line — which
    // the rule must match by construction of the catalog — has to
    // contain at least one of them. A violation means the prescan
    // would suppress that rule on its canonical alert. Factors from
    // field-position rules may live in the facility or severity
    // token rather than the body, so check against the rendered-line
    // approximation `facility severity body` as well as the body.
    for &sys in &ALL_SYSTEMS {
        for spec in catalog(sys) {
            let pred = Predicate::parse(spec.rule)
                .unwrap_or_else(|e| panic!("rule {} failed to compile: {e}", spec.name));
            let Some(literals) = pred.required_literals() else {
                continue;
            };
            assert!(
                !literals.is_empty(),
                "{sys}/{}: empty factor set should be None",
                spec.name
            );
            let body = example_body(spec);
            let facility = fill_template(spec.facility, example_value);
            // The two native-line shapes around the body: syslog's
            // `facility: body` and BG/L's `FACILITY SEVERITY body`.
            let syslog = format!("{facility}: {body}");
            let bgl = format!(
                "{facility} {} {body}",
                format!("{:?}", spec.severity).to_uppercase()
            );
            assert!(
                literals
                    .iter()
                    .any(|l| syslog.contains(l.as_str()) || bgl.contains(l.as_str())),
                "{sys}/{}: none of the extracted factors {literals:?} \
                 occur in the example lines {syslog:?} / {bgl:?}",
                spec.name
            );
        }
    }
}
