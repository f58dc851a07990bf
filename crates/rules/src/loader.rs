//! Loading rulesets from text files.
//!
//! The paper's administrators supplied their heuristics "in the form of
//! regular expressions amenable for consumption by the logsurfer
//! utility". This module defines a plain-text ruleset format so a
//! deployment can maintain its expert rules outside the binary:
//!
//! ```text
//! # comment lines and blanks are ignored
//! # NAME  TYPE  RULE...
//! EXT_FS    H  /kernel: EXT3-fs error/
//! TOAST     I  /PANIC_SP WE ARE TOASTED!/
//! KERNPAN   I  ($4 ~ /KERNEL/ && /kernel panic/)
//! ```
//!
//! `TYPE` is the Table 4 code: `H`, `S`, or `I`.

use crate::lang::Predicate;
use crate::tagger::RuleSet;
use sclog_types::{AlertType, CategoryRegistry, SystemId};
use std::fmt;

/// An owned rule definition, as loaded from a ruleset file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleDef {
    /// Category name (also the rule's identity).
    pub name: String,
    /// Administrator-assigned subsystem type.
    pub alert_type: AlertType,
    /// Rule source in the language of [`crate::lang`].
    pub rule: String,
}

/// Errors from parsing a ruleset file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// A line did not have the `NAME TYPE RULE` shape.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// The type code was not `H`, `S`, or `I`.
    BadType {
        /// 1-based line number.
        line: usize,
        /// The offending code.
        code: String,
    },
    /// The rule source failed to parse or compile.
    BadRule {
        /// 1-based line number.
        line: usize,
        /// Category name.
        name: String,
        /// The underlying error message.
        message: String,
    },
    /// Two rules share a name.
    DuplicateName {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The duplicated name.
        name: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Malformed { line, text } => {
                write!(f, "line {line}: expected 'NAME TYPE RULE', got {text:?}")
            }
            LoadError::BadType { line, code } => {
                write!(f, "line {line}: type code must be H, S or I, got {code:?}")
            }
            LoadError::BadRule {
                line,
                name,
                message,
            } => {
                write!(f, "line {line}: rule {name} invalid: {message}")
            }
            LoadError::DuplicateName { line, name } => {
                write!(f, "line {line}: duplicate rule name {name}")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Parses a ruleset file into rule definitions.
///
/// # Errors
///
/// Returns the first [`LoadError`] encountered; every rule is
/// compile-checked.
pub fn parse_ruleset(text: &str) -> Result<Vec<RuleDef>, LoadError> {
    let mut out: Vec<RuleDef> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(name), Some(code)) = (it.next(), it.next()) else {
            return Err(LoadError::Malformed {
                line: line_no,
                text: line.to_owned(),
            });
        };
        // The rule is everything after the code token (it may contain
        // whitespace).
        let rule = line[name.len()..].trim_start()[code.len()..].trim_start();
        if rule.is_empty() {
            return Err(LoadError::Malformed {
                line: line_no,
                text: line.to_owned(),
            });
        }
        let alert_type = match code {
            "H" => AlertType::Hardware,
            "S" => AlertType::Software,
            "I" => AlertType::Indeterminate,
            other => {
                return Err(LoadError::BadType {
                    line: line_no,
                    code: other.to_owned(),
                })
            }
        };
        if let Err(e) = Predicate::parse(rule) {
            return Err(LoadError::BadRule {
                line: line_no,
                name: name.to_owned(),
                message: e.to_string(),
            });
        }
        if out.iter().any(|d| d.name == name) {
            return Err(LoadError::DuplicateName {
                line: line_no,
                name: name.to_owned(),
            });
        }
        out.push(RuleDef {
            name: name.to_owned(),
            alert_type,
            rule: rule.to_owned(),
        });
    }
    Ok(out)
}

/// Renders rule definitions back to the file format.
pub fn render_ruleset(defs: &[RuleDef]) -> String {
    let width = defs.iter().map(|d| d.name.len()).max().unwrap_or(0);
    let mut out = String::from("# NAME  TYPE  RULE\n");
    for d in defs {
        out.push_str(&format!(
            "{:<width$}  {}  {}\n",
            d.name,
            d.alert_type.code(),
            d.rule
        ));
    }
    out
}

/// Exports a system's built-in catalog in the ruleset file format.
pub fn export_builtin(system: SystemId) -> String {
    let defs: Vec<RuleDef> = crate::catalog::catalog(system)
        .iter()
        .map(|s| RuleDef {
            name: s.name.to_owned(),
            alert_type: s.alert_type,
            rule: s.rule.to_owned(),
        })
        .collect();
    render_ruleset(&defs)
}

impl RuleSet {
    /// Compiles a ruleset from loaded definitions, registering their
    /// categories.
    ///
    /// # Panics
    ///
    /// Panics if a rule fails to compile — [`parse_ruleset`] validates
    /// them, so this only fires on hand-built `RuleDef`s.
    pub fn from_defs(system: SystemId, defs: &[RuleDef], registry: &mut CategoryRegistry) -> Self {
        Self::from_loaded(system, defs, registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_types::{Message, NodeId, Severity, Timestamp};

    #[test]
    fn parses_and_compiles() {
        let defs = parse_ruleset(
            "# a comment\n\
             \n\
             EXT_FS  H  /kernel: EXT3-fs error/\n\
             KERNPAN I  ($4 ~ /KERNEL/ && /kernel panic/)\n",
        )
        .unwrap();
        assert_eq!(defs.len(), 2);
        assert_eq!(defs[0].name, "EXT_FS");
        assert_eq!(defs[0].alert_type, AlertType::Hardware);
        assert!(defs[1].rule.contains("$4"));
    }

    #[test]
    fn errors_are_located() {
        let err = parse_ruleset("GOOD H /x/\nBAD\n").unwrap_err();
        assert!(matches!(err, LoadError::Malformed { line: 2, .. }), "{err}");
        let err = parse_ruleset("A X /x/\n").unwrap_err();
        assert!(matches!(err, LoadError::BadType { line: 1, .. }));
        let err = parse_ruleset("A H /[unclosed/\n").unwrap_err();
        assert!(matches!(err, LoadError::BadRule { line: 1, .. }));
        assert!(err.to_string().contains('A'));
        let err = parse_ruleset("A H /x/\nA S /y/\n").unwrap_err();
        assert!(matches!(err, LoadError::DuplicateName { line: 2, .. }));
    }

    #[test]
    fn render_parse_round_trip() {
        let defs = parse_ruleset("A H /x/\nB S ($1 ~ /y/)\n").unwrap();
        let text = render_ruleset(&defs);
        let back = parse_ruleset(&text).unwrap();
        assert_eq!(defs, back);
    }

    #[test]
    fn builtin_export_round_trips_and_tags_identically() {
        for &sys in &sclog_types::ALL_SYSTEMS {
            let text = export_builtin(sys);
            let defs = parse_ruleset(&text)
                .unwrap_or_else(|e| panic!("{sys}: exported catalog failed to reload: {e}"));
            assert_eq!(defs.len(), crate::catalog::catalog(sys).len(), "{sys}");

            // Loaded rules tag the canonical bodies identically to the
            // builtin ruleset.
            let mut reg_a = CategoryRegistry::new();
            let builtin = RuleSet::builtin(sys, &mut reg_a);
            let mut reg_b = CategoryRegistry::new();
            let loaded = RuleSet::from_defs(sys, &defs, &mut reg_b);
            let mut interner = sclog_types::SourceInterner::new();
            let src = interner.intern("n1");
            for spec in crate::catalog::catalog(sys) {
                let msg = Message::new(
                    sys,
                    Timestamp::from_ymd_hms(2006, 1, 1, 0, 0, 0),
                    src,
                    crate::catalog::fill_template(spec.facility, crate::catalog::example_value),
                    match spec.severity {
                        crate::catalog::CatSeverity::None => Severity::None,
                        crate::catalog::CatSeverity::Bgl(s) => Severity::Bgl(s),
                        crate::catalog::CatSeverity::Syslog(s) => Severity::Syslog(s),
                    },
                    crate::catalog::example_body(spec),
                );
                let a = builtin
                    .tag_message_with(&msg, &interner, &mut crate::TagScratch::new())
                    .map(|c| reg_a.name(c).to_owned());
                let b = loaded
                    .tag_message_with(&msg, &interner, &mut crate::TagScratch::new())
                    .map(|c| reg_b.name(c).to_owned());
                assert_eq!(a, b, "{sys}: {} tags differ", spec.name);
            }
        }
        let _ = NodeId::from_index(0);
    }
}
