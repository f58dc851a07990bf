//! Expert alert-tagging rules.
//!
//! Section 3.2 of the paper: "the heuristics provided by the
//! administrators were often in the form of regular expressions amenable
//! for consumption by the logsurfer utility … Examples of
//! alert-identifying rules using awk syntax include:
//!
//! ```text
//! /kernel: EXT3-fs error/
//! /PANIC_SP WE ARE TOASTED!/
//! ($5 ~ /KERNEL/ && /kernel panic/)
//! ```
//!
//! This crate implements that rule language ([`lang`]), a tagging engine
//! that applies a per-system ruleset to parsed messages ([`tagger`]),
//! the severity-field baseline tagger the paper compares against
//! ([`baseline`]), and the encoded rulesets for all 77 categories of
//! Table 4 ([`mod@catalog`]).
//!
//! # Prescan architecture
//!
//! Applying up to 77 regexes to every one of 178 million lines is the
//! hot loop of the whole reproduction, so the tagger does not run the
//! rules directly. At ruleset construction, [`re`] extracts from each
//! rule a *required literal factor* — a set of strings such that every
//! matching line must contain at least one of them — and [`prefilter`]
//! compiles all factors into a single in-tree Aho-Corasick automaton.
//! Tagging a line is then one automaton scan producing a candidate-rule
//! bitset; only candidate rules (plus the few factor-less rules in an
//! always-check set) run their regexes, in catalog order, so the first
//! match wins exactly as in the brute-force path. Per-message work is
//! allocation-free: rendering, field splitting and the candidate set
//! all reuse a caller-owned [`TagScratch`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod catalog;
pub mod dfa;
pub mod discover;
pub mod lang;
pub mod loader;
pub mod pool;
pub mod prefilter;
pub mod re;
pub mod tagger;

pub use baseline::{Confusion, SeverityBaseline};
pub use catalog::{catalog, CategorySpec};
pub use dfa::{DfaCache, DfaProgram};
pub use discover::{mine_templates, Template};
pub use lang::{Predicate, RuleExpr};
pub use loader::{export_builtin, parse_ruleset, render_ruleset, LoadError, RuleDef};
pub use pool::{LineBatch, LineRef, PoolClient, TagJob, TagMetrics, TagPool, TaggedBatch};
pub use prefilter::AhoCorasick;
pub use re::{ProgInst, Regex};
pub use tagger::{RuleSet, TagCounts, TagScratch, TaggedLog};
