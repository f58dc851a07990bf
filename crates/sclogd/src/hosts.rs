//! A small host-pattern matcher for filter queries.
//!
//! Cluster operators name nodes in dense families (`sn373`, `dn228`,
//! `R02-M1-N0`), and a query like "every service node" wants a glob,
//! not an exact name. [`HostPattern`] supports the familiar shell
//! subset — `*` (any run), `?` (any one character), `[a-z0-9]`
//! character classes with `!` negation — plus comma-separated
//! alternatives, so `sn*,dn22[0-9]` matches both families in one
//! parameter.

use std::str::Chars;

/// One token of a compiled glob alternative.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    /// A literal character, matched exactly.
    Literal(char),
    /// `?`: exactly one character, any value.
    One,
    /// `*`: any run of characters, including none.
    Any,
    /// `[...]`: one character inside (or outside, if negated) a set of
    /// inclusive ranges; a lone character is the range `(c, c)`.
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
}

/// A compiled host pattern: comma-separated glob alternatives, matched
/// case-sensitively against interned host names.
///
/// # Examples
///
/// ```
/// use sclogd::hosts::HostPattern;
///
/// let p = HostPattern::parse("sn*,dn22[0-9]").unwrap();
/// assert!(p.matches("sn373"));
/// assert!(p.matches("dn228"));
/// assert!(!p.matches("ln1"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostPattern {
    alternatives: Vec<Vec<Tok>>,
}

impl HostPattern {
    /// Compiles a pattern.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an empty pattern, an empty
    /// alternative, or an unterminated/empty character class.
    pub fn parse(pattern: &str) -> Result<Self, String> {
        if pattern.is_empty() {
            return Err("empty host pattern".to_owned());
        }
        let mut alternatives = Vec::new();
        for alt in pattern.split(',') {
            if alt.is_empty() {
                return Err(format!("empty alternative in host pattern {pattern:?}"));
            }
            alternatives.push(compile_glob(alt)?);
        }
        Ok(HostPattern { alternatives })
    }

    /// Whether any alternative matches the whole of `name`.
    pub fn matches(&self, name: &str) -> bool {
        self.alternatives.iter().any(|alt| glob_match(alt, name))
    }

    /// True when the pattern is a single `*` — the match-everything
    /// case a filter can skip entirely.
    pub fn matches_all(&self) -> bool {
        self.alternatives.len() == 1 && self.alternatives[0] == vec![Tok::Any]
    }
}

fn compile_glob(glob: &str) -> Result<Vec<Tok>, String> {
    let mut toks = Vec::new();
    let mut chars = glob.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '*' => {
                // Runs of stars collapse to one: they match the same
                // strings and the collapse keeps backtracking linear.
                if toks.last() != Some(&Tok::Any) {
                    toks.push(Tok::Any);
                }
            }
            '?' => toks.push(Tok::One),
            '[' => {
                let negated = chars.peek() == Some(&'!');
                if negated {
                    chars.next();
                }
                let mut ranges = Vec::new();
                loop {
                    let lo = match chars.next() {
                        None => return Err(format!("unterminated class in {glob:?}")),
                        Some(']') if !ranges.is_empty() => break,
                        // A leading `]` is a literal member, per glob
                        // tradition; an empty class is an error.
                        Some(']') if ranges.is_empty() && negated => ']',
                        Some(']') => return Err(format!("empty class in {glob:?}")),
                        Some(c) => c,
                    };
                    if chars.peek() == Some(&'-') {
                        chars.next();
                        match chars.next() {
                            None => return Err(format!("unterminated class in {glob:?}")),
                            // A trailing `-` is a literal member.
                            Some(']') => {
                                ranges.push((lo, lo));
                                ranges.push(('-', '-'));
                                break;
                            }
                            Some(hi) if hi >= lo => ranges.push((lo, hi)),
                            Some(hi) => {
                                return Err(format!("inverted range {lo}-{hi} in {glob:?}"))
                            }
                        }
                    } else {
                        ranges.push((lo, lo));
                    }
                }
                toks.push(Tok::Class { negated, ranges });
            }
            c => toks.push(Tok::Literal(c)),
        }
    }
    Ok(toks)
}

/// Classic iterative glob match with single-star backtracking: on a
/// mismatch past a `*`, retry from the star with one more character
/// consumed. Collapsed stars keep this O(pattern × name). Walks `name`
/// by `char` without copying it; the backtrack point is a saved
/// iterator over the name's rest.
fn glob_match(toks: &[Tok], name: &str) -> bool {
    let mut t = 0usize;
    let mut rest = name.chars();
    let mut star: Option<(usize, Chars<'_>)> = None;
    loop {
        let mut after = rest.clone();
        let Some(c) = after.next() else {
            // Only trailing stars may remain.
            return toks[t..].iter().all(|tok| *tok == Tok::Any);
        };
        let matched = match toks.get(t) {
            Some(Tok::Any) => {
                star = Some((t, rest.clone()));
                t += 1;
                continue;
            }
            Some(Tok::Literal(l)) => *l == c,
            Some(Tok::One) => true,
            Some(Tok::Class { negated, ranges }) => {
                let inside = ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&c));
                inside != *negated
            }
            None => false,
        };
        if matched {
            t += 1;
            rest = after;
        } else if let Some((st, from)) = &mut star {
            // The star's rest is never shorter than `rest`, which is
            // not empty, so this consumes a character.
            from.next();
            t = *st + 1;
            rest = from.clone();
        } else {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pattern: &str, name: &str) -> bool {
        HostPattern::parse(pattern).unwrap().matches(name)
    }

    #[test]
    fn literals_and_wildcards() {
        assert!(m("sn373", "sn373"));
        assert!(!m("sn373", "sn3730"));
        assert!(m("sn*", "sn373"));
        assert!(m("sn*", "sn"));
        assert!(!m("sn*", "dn373"));
        assert!(m("*", ""));
        assert!(m("*", "anything"));
        assert!(m("sn?73", "sn373"));
        assert!(!m("sn?73", "sn73"));
        assert!(m("*73", "sn373"));
        assert!(m("s*3*3", "sn373"));
        assert!(!m("s*9", "sn373"));
    }

    #[test]
    fn classes_and_ranges() {
        assert!(m("dn22[0-9]", "dn228"));
        assert!(!m("dn22[0-7]", "dn228"));
        assert!(m("dn22[89]", "dn229"));
        assert!(m("R0[0-2]-M?", "R02-M1"));
        assert!(m("x[!0-9]", "xa"));
        assert!(!m("x[!0-9]", "x5"));
        assert!(m("a[-]b", "a-b"), "trailing dash is literal");
    }

    #[test]
    fn alternatives() {
        let p = HostPattern::parse("sn*,dn*,ln1").unwrap();
        assert!(p.matches("sn1"));
        assert!(p.matches("dn99"));
        assert!(p.matches("ln1"));
        assert!(!p.matches("ln2"));
        assert!(!p.matches_all());
        assert!(HostPattern::parse("*").unwrap().matches_all());
    }

    #[test]
    fn parse_errors() {
        for bad in ["", "a,,b", "x[", "x[]", "x[a", "x[z-a]"] {
            assert!(HostPattern::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn star_backtracking_terminates_on_adversarial_input() {
        // Collapsed stars keep the classic glob worst case linear-ish;
        // this input is the textbook exponential-backtracking trap.
        let p = HostPattern::parse("*a*a*a*a*a*a*a*a*b").unwrap();
        assert!(!p.matches(&"a".repeat(64)));
        assert!(p.matches(&format!("{}b", "a".repeat(64))));
    }

    #[test]
    fn unicode_names_do_not_panic() {
        assert!(m("naïve*", "naïve-node"));
        assert!(m("?", "é"));
    }

    /// The matcher over a collected `&[char]` name, as it stood before
    /// matching moved onto `&str`: the oracle for the test below.
    fn char_slice_match(toks: &[Tok], name: &[char]) -> bool {
        let (mut t, mut n) = (0usize, 0usize);
        let mut star: Option<(usize, usize)> = None;
        loop {
            if n == name.len() {
                return toks[t..].iter().all(|tok| *tok == Tok::Any);
            }
            let matched = match toks.get(t) {
                Some(Tok::Any) => {
                    star = Some((t, n));
                    t += 1;
                    continue;
                }
                Some(Tok::Literal(c)) => *c == name[n],
                Some(Tok::One) => true,
                Some(Tok::Class { negated, ranges }) => {
                    let inside = ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&name[n]));
                    inside != *negated
                }
                None => false,
            };
            if matched {
                t += 1;
                n += 1;
            } else if let Some((st, sn)) = star {
                t = st + 1;
                n = sn + 1;
                star = Some((st, sn + 1));
            } else {
                return false;
            }
        }
    }

    #[test]
    fn str_matcher_equals_the_char_slice_matcher() {
        // A small alphabet (multi-byte characters included) makes
        // matches, near misses and star backtracking all common.
        const ALPHABET: [char; 6] = ['s', 'n', '3', '-', 'é', '語'];
        sclog_testkit::check("host_glob_str_matcher", |g| {
            let mut pattern = String::new();
            for _ in 0..g.usize_in(1..=8) {
                match g.below(6) {
                    0 => pattern.push('*'),
                    1 => pattern.push('?'),
                    2 => {
                        let (a, b) = (*g.pick(&ALPHABET), *g.pick(&ALPHABET));
                        let (lo, hi) = (a.min(b), a.max(b));
                        let negate = if g.chance(0.3) { "!" } else { "" };
                        pattern.push_str(&format!("[{negate}{lo}-{hi}]"));
                    }
                    _ => pattern.push(*g.pick(&ALPHABET)),
                }
            }
            let compiled = HostPattern::parse(&pattern).unwrap();
            for _ in 0..16 {
                let name: String = (0..g.usize_in(0..=10))
                    .map(|_| *g.pick(&ALPHABET))
                    .collect();
                let chars: Vec<char> = name.chars().collect();
                let want = compiled
                    .alternatives
                    .iter()
                    .any(|alt| char_slice_match(alt, &chars));
                assert_eq!(
                    compiled.matches(&name),
                    want,
                    "pattern {pattern:?} name {name:?}"
                );
            }
        });
    }
}
