//! A small in-tree regular-expression engine.
//!
//! Covers exactly the subset the expert alert-tagging rules use:
//! literals, character classes (`[a-z]`, `[^…]`, `\d`/`\w`/`\s` and
//! their negations), the `.` wildcard, anchors `^`/`$`, the quantifiers
//! `*`/`+`/`?` and bounded repetition `{m}`/`{m,}`/`{m,n}`, grouping
//! `(…)`, and alternation `|`. Matching is unanchored substring search
//! (like `regex::Regex::is_match`) and runs on a Thompson-NFA thread
//! set ("Pike VM"), so it is linear in `pattern × text` with no
//! backtracking blow-up.
//!
//! Beyond matching, compilation performs *literal-factor analysis*
//! ([`Regex::required_literals`]): it extracts, where possible, a set
//! of literal strings such that every matching text must contain at
//! least one of them. The tagger's Aho-Corasick prescan
//! ([`crate::prefilter`]) is keyed on these factors, so most lines
//! never reach the NFA at all.
//!
//! Keeping this engine (~800 lines by now, half of them tests) in the
//! tree is what lets the whole workspace build offline with zero
//! external crates; the conformance suite in `tests/re_conformance.rs`
//! pins its behaviour — match matrix and extracted literal factors —
//! on every pattern in the shipped 77-rule catalog.

use std::fmt;

/// Error from compiling a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// A set of character ranges, possibly negated (`[^…]`).
#[derive(Debug, Clone, PartialEq)]
struct ClassSet {
    ranges: Vec<(char, char)>,
    negated: bool,
}

impl ClassSet {
    fn contains(&self, c: char) -> bool {
        let inside = self.ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
        inside != self.negated
    }
}

/// One compiled NFA instruction.
#[derive(Debug, Clone)]
enum Inst {
    /// Match one specific character.
    Char(char),
    /// Match any character (`.`; excludes `\n`, as the regex crate does
    /// by default).
    Any,
    /// Match one character in a class.
    Class(ClassSet),
    /// Assert start of text.
    Start,
    /// Assert end of text.
    End,
    /// Fork execution to both targets.
    Split(usize, usize),
    /// Unconditional jump.
    Jump(usize),
    /// Accept.
    Match,
}

/// One instruction of a compiled NFA program, as reported by
/// [`Regex::program`].
///
/// This is the public mirror of the engine's internal instruction set.
/// Program counters start at 0; control flows to `pc + 1` after a
/// consuming instruction or a satisfied assertion, except through
/// [`Split`](ProgInst::Split) / [`Jump`](ProgInst::Jump), whose targets
/// are absolute indices into the same listing. Every program ends with
/// exactly one [`Match`](ProgInst::Match).
#[derive(Debug, Clone, PartialEq)]
pub enum ProgInst {
    /// Consume one specific character.
    Char(char),
    /// Consume any character except `\n` (the `.` wildcard).
    Any,
    /// Consume one character inside (or, when `negated`, outside) the
    /// union of the inclusive `ranges`.
    Class {
        /// Inclusive `(lo, hi)` character ranges.
        ranges: Vec<(char, char)>,
        /// When true the instruction matches characters *not* covered
        /// by `ranges` (`[^…]` and `\D`/`\W`/`\S`).
        negated: bool,
    },
    /// Zero-width assertion: position 0 of the text.
    Start,
    /// Zero-width assertion: end of the text.
    End,
    /// Fork execution to both absolute targets.
    Split(usize, usize),
    /// Unconditional jump to an absolute target.
    Jump(usize),
    /// Accept.
    Match,
}

impl ProgInst {
    /// True for instructions that consume one character of input
    /// (`Char`, `Any`, `Class`); false for assertions and control flow.
    pub fn is_consuming(&self) -> bool {
        matches!(
            self,
            ProgInst::Char(_) | ProgInst::Any | ProgInst::Class { .. }
        )
    }

    /// For a consuming instruction, whether it accepts character `c`;
    /// always false for non-consuming instructions.
    pub fn matches_char(&self, c: char) -> bool {
        match self {
            ProgInst::Char(want) => *want == c,
            ProgInst::Any => c != '\n',
            ProgInst::Class { ranges, negated } => {
                let inside = ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
                inside != *negated
            }
            _ => false,
        }
    }
}

/// A compiled regular expression.
///
/// # Examples
///
/// ```
/// use sclog_rules::re::Regex;
///
/// let re = Regex::new(r"EXT[0-9]-fs (error|warning)").unwrap();
/// assert!(re.is_match("kernel: EXT3-fs error (device sda5)"));
/// assert!(!re.is_match("kernel: all quiet"));
/// ```
#[derive(Clone)]
pub struct Regex {
    pattern: String,
    prog: Vec<Inst>,
    /// Set when the pattern is a plain literal (no metacharacters after
    /// parsing — escapes like `\(` reduce to chars). Matching then
    /// short-circuits to `str::contains`, which is the hot path: most
    /// of the 77 catalog rules are literal substrings, and the tagger
    /// runs every rule against every rendered line.
    literal: Option<String>,
    /// Required literal factors (see [`Regex::required_literals`]).
    factors: Option<Vec<String>>,
}

impl fmt::Debug for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Regex")
            .field("pattern", &self.pattern)
            .finish()
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pattern)
    }
}

impl Regex {
    /// Compiles a pattern.
    ///
    /// # Errors
    ///
    /// Returns [`Error`] on syntax the engine does not accept:
    /// unbalanced groups or classes, dangling quantifiers, reversed
    /// ranges, or oversized bounded repetitions.
    pub fn new(pattern: &str) -> Result<Regex, Error> {
        let ast = Parser::new(pattern).parse()?;
        let mut prog = Vec::new();
        compile(&ast, &mut prog);
        prog.push(Inst::Match);
        let mut factors = analyze_factors(&ast).required;
        if let Some(alts) = &mut factors {
            alts.sort();
            alts.dedup();
        }
        Ok(Regex {
            pattern: pattern.to_owned(),
            prog,
            literal: literal_of(&ast),
            factors,
        })
    }

    /// The source pattern.
    pub fn as_str(&self) -> &str {
        &self.pattern
    }

    /// The pattern's *required literal factors*.
    ///
    /// When `Some`, every text this pattern matches contains at least
    /// one of the returned (non-empty, sorted, deduplicated) strings
    /// as a contiguous substring — a sound gate for a multi-pattern
    /// prescan: if none of the factors occur, `is_match` is guaranteed
    /// to return `false`. `None` means no factor could be extracted
    /// (e.g. `\d+`) and the pattern must always be checked.
    ///
    /// Factors come from the longest literal run every match must
    /// contain; an alternation contributes one factor per branch, and
    /// poisons extraction if any branch has none.
    ///
    /// # Examples
    ///
    /// ```
    /// use sclog_rules::re::Regex;
    ///
    /// let re = Regex::new(r"EXT[0-9]-fs (error|warning)").unwrap();
    /// assert_eq!(
    ///     re.required_literals().unwrap(),
    ///     &["error".to_string(), "warning".to_string()]
    /// );
    /// assert!(Regex::new(r"\d+").unwrap().required_literals().is_none());
    /// ```
    pub fn required_literals(&self) -> Option<&[String]> {
        self.factors.as_deref()
    }

    /// True when matching short-circuits to `str::contains` (the
    /// pattern reduced to a plain literal): such patterns never run
    /// the Pike VM, so the tagger's DFA tier skips them entirely.
    pub fn is_literal(&self) -> bool {
        self.literal.is_some()
    }

    /// The compiled NFA program, exposed for static analyzers.
    ///
    /// The listing mirrors the engine's internal instruction set
    /// one-to-one (same indices, same control flow), so an external
    /// pass can simulate, product-construct, or measure exactly the
    /// program the matcher runs. See [`ProgInst`] for the semantics of
    /// each instruction.
    pub fn program(&self) -> Vec<ProgInst> {
        self.prog
            .iter()
            .map(|inst| match inst {
                Inst::Char(c) => ProgInst::Char(*c),
                Inst::Any => ProgInst::Any,
                Inst::Class(set) => ProgInst::Class {
                    ranges: set.ranges.clone(),
                    negated: set.negated,
                },
                Inst::Start => ProgInst::Start,
                Inst::End => ProgInst::End,
                Inst::Split(a, b) => ProgInst::Split(*a, *b),
                Inst::Jump(t) => ProgInst::Jump(*t),
                Inst::Match => ProgInst::Match,
            })
            .collect()
    }

    /// True if the pattern matches anywhere in `text` (unanchored).
    pub fn is_match(&self, text: &str) -> bool {
        if let Some(lit) = &self.literal {
            return text.contains(lit.as_str());
        }
        let chars: Vec<char> = text.chars().collect();
        let n = chars.len();
        let mut current = ThreadSet::new(self.prog.len());
        let mut next = ThreadSet::new(self.prog.len());
        for i in 0..=n {
            // Unanchored search: seed a fresh attempt at every start
            // position (equivalent to a leading `.*?`).
            if add_thread(&self.prog, &mut current, 0, i, n) {
                return true;
            }
            let Some(&c) = chars.get(i) else {
                break;
            };
            for k in 0..current.list.len() {
                let pc = current.list[k];
                let consumed = match &self.prog[pc] {
                    Inst::Char(want) => *want == c,
                    Inst::Any => c != '\n',
                    Inst::Class(set) => set.contains(c),
                    _ => false,
                };
                if consumed && add_thread(&self.prog, &mut next, pc + 1, i + 1, n) {
                    return true;
                }
            }
            std::mem::swap(&mut current, &mut next);
            next.clear();
        }
        false
    }
}

/// A deduplicated set of live NFA program counters.
struct ThreadSet {
    on: Vec<bool>,
    list: Vec<usize>,
}

impl ThreadSet {
    fn new(len: usize) -> Self {
        ThreadSet {
            on: vec![false; len],
            list: Vec::new(),
        }
    }

    fn clear(&mut self) {
        // Reset every flag, not just the listed (consuming) pcs:
        // epsilon instructions are marked in `on` during closure
        // exploration without appearing in `list`, and a stale mark
        // would silently kill the closure at the next position.
        for f in &mut self.on {
            *f = false;
        }
        self.list.clear();
    }
}

/// Adds `pc` and its epsilon closure to `set`; returns true if the
/// closure reaches `Match`.
fn add_thread(prog: &[Inst], set: &mut ThreadSet, pc: usize, pos: usize, len: usize) -> bool {
    let mut stack = vec![pc];
    while let Some(pc) = stack.pop() {
        if set.on[pc] {
            continue;
        }
        set.on[pc] = true;
        match &prog[pc] {
            Inst::Match => return true,
            Inst::Jump(t) => stack.push(*t),
            Inst::Split(a, b) => {
                stack.push(*b);
                stack.push(*a);
            }
            Inst::Start => {
                if pos == 0 {
                    stack.push(pc + 1);
                }
            }
            Inst::End => {
                if pos == len {
                    stack.push(pc + 1);
                }
            }
            Inst::Char(_) | Inst::Any | Inst::Class(_) => set.list.push(pc),
        }
    }
    false
}

/// Returns the pattern's text when it is a pure literal — chars and
/// concatenations only, no classes, anchors, repeats, or alternation.
fn literal_of(ast: &Ast) -> Option<String> {
    fn push(ast: &Ast, out: &mut String) -> bool {
        match ast {
            Ast::Empty => true,
            Ast::Char(c) => {
                out.push(*c);
                true
            }
            Ast::Concat(parts) => parts.iter().all(|p| push(p, out)),
            _ => false,
        }
    }
    let mut s = String::new();
    push(ast, &mut s).then_some(s)
}

/// Literal-factor analysis result for one AST node.
struct FactorInfo {
    /// The node's *obligation*: when `Some`, every match of the node
    /// contains at least one of these non-empty strings as a
    /// substring.
    required: Option<Vec<String>>,
    /// `Some(s)` when the node matches exactly the string `s` and
    /// nothing else — such nodes fuse with adjacent ones into longer
    /// literal runs inside a concatenation.
    exact: Option<String>,
}

/// Strength of an obligation for prefiltering: the length of its
/// weakest alternative (the prescan must hit on *any* alternative, so
/// the shortest one bounds selectivity).
fn obligation_score(alts: &[String]) -> usize {
    alts.iter().map(String::len).min().unwrap_or(0)
}

/// Picks the stronger of two obligations: higher weakest-alternative
/// length wins, then fewer alternatives. Used both for concatenation
/// parts here and for `&&`-conjoined predicates in the rule language.
pub(crate) fn stronger_obligation(
    a: Option<Vec<String>>,
    b: Option<Vec<String>>,
) -> Option<Vec<String>> {
    match (a, b) {
        (Some(x), Some(y)) => {
            let (sx, sy) = (obligation_score(&x), obligation_score(&y));
            if sx > sy || (sx == sy && x.len() <= y.len()) {
                Some(x)
            } else {
                Some(y)
            }
        }
        (x, None) => x,
        (None, y) => y,
    }
}

/// Extracts required literal factors from an AST node.
///
/// Soundness invariant: if `required` is `Some(alts)`, then every text
/// the node matches contains at least one member of `alts`. Anchors
/// are treated as empty exact literals — they consume nothing, so the
/// characters on either side stay adjacent in any match.
fn analyze_factors(ast: &Ast) -> FactorInfo {
    match ast {
        Ast::Empty | Ast::Start | Ast::End => FactorInfo {
            required: None,
            exact: Some(String::new()),
        },
        Ast::Char(c) => FactorInfo {
            required: Some(vec![c.to_string()]),
            exact: Some(c.to_string()),
        },
        Ast::Any | Ast::Class(_) => FactorInfo {
            required: None,
            exact: None,
        },
        Ast::Concat(parts) => {
            let mut best: Option<Vec<String>> = None;
            let mut run = String::new();
            let mut unbroken = true;
            for p in parts {
                let f = analyze_factors(p);
                match f.exact {
                    // Exact parts extend the current contiguous run.
                    Some(s) => run.push_str(&s),
                    // Anything else ends the run; the part's own
                    // obligation still holds for the whole concat.
                    None => {
                        if !run.is_empty() {
                            best = stronger_obligation(best, Some(vec![std::mem::take(&mut run)]));
                        }
                        run.clear();
                        unbroken = false;
                        best = stronger_obligation(best, f.required);
                    }
                }
            }
            let exact = unbroken.then(|| run.clone());
            if !run.is_empty() {
                best = stronger_obligation(best, Some(vec![run]));
            }
            FactorInfo {
                required: best,
                exact,
            }
        }
        Ast::Alt(arms) => {
            // Every branch must contribute, or a match could slip
            // through the branch with no factor.
            let mut union: Vec<String> = Vec::new();
            for arm in arms {
                match analyze_factors(arm).required {
                    Some(alts) => union.extend(alts),
                    None => {
                        return FactorInfo {
                            required: None,
                            exact: None,
                        }
                    }
                }
            }
            FactorInfo {
                required: (!union.is_empty()).then_some(union),
                exact: None,
            }
        }
        Ast::Repeat { node, min, max } => {
            let f = analyze_factors(node);
            let exact = match (&f.exact, max) {
                // A fixed repetition of an exact literal is itself
                // exact (`a{3}` is "aaa").
                (Some(s), Some(mx)) if min == mx => Some(s.repeat(*min as usize)),
                _ => None,
            };
            let required = if *min >= 1 {
                match &exact {
                    Some(s) if !s.is_empty() => Some(vec![s.clone()]),
                    // At least one copy of the node matches, so its
                    // obligation carries over.
                    _ => f.required,
                }
            } else {
                None
            };
            FactorInfo { required, exact }
        }
    }
}

/// Parsed pattern AST.
#[derive(Debug, Clone)]
enum Ast {
    Empty,
    Char(char),
    Any,
    Class(ClassSet),
    Start,
    End,
    Concat(Vec<Ast>),
    Alt(Vec<Ast>),
    Repeat {
        node: Box<Ast>,
        min: u32,
        max: Option<u32>,
    },
}

/// Emits NFA instructions for `ast` onto `prog`.
fn compile(ast: &Ast, prog: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Char(c) => prog.push(Inst::Char(*c)),
        Ast::Any => prog.push(Inst::Any),
        Ast::Class(set) => prog.push(Inst::Class(set.clone())),
        Ast::Start => prog.push(Inst::Start),
        Ast::End => prog.push(Inst::End),
        Ast::Concat(parts) => {
            for p in parts {
                compile(p, prog);
            }
        }
        Ast::Alt(arms) => {
            // Chain of Splits; each arm jumps to the common end.
            let mut jumps = Vec::new();
            for (i, arm) in arms.iter().enumerate() {
                if i + 1 < arms.len() {
                    let split = prog.len();
                    prog.push(Inst::Split(0, 0));
                    compile(arm, prog);
                    jumps.push(prog.len());
                    prog.push(Inst::Jump(0));
                    let after = prog.len();
                    prog[split] = Inst::Split(split + 1, after);
                } else {
                    compile(arm, prog);
                }
            }
            let end = prog.len();
            for j in jumps {
                prog[j] = Inst::Jump(end);
            }
        }
        Ast::Repeat { node, min, max } => {
            // Mandatory copies…
            for _ in 0..*min {
                compile(node, prog);
            }
            match max {
                // …then an unbounded greedy loop (`x*`)…
                None => {
                    let split = prog.len();
                    prog.push(Inst::Split(0, 0));
                    compile(node, prog);
                    prog.push(Inst::Jump(split));
                    let after = prog.len();
                    prog[split] = Inst::Split(split + 1, after);
                }
                // …or (max − min) optional copies (`x?` each).
                Some(max) => {
                    let mut splits = Vec::new();
                    for _ in *min..*max {
                        splits.push(prog.len());
                        prog.push(Inst::Split(0, 0));
                        compile(node, prog);
                    }
                    let after = prog.len();
                    for s in splits {
                        prog[s] = Inst::Split(s + 1, after);
                    }
                }
            }
        }
    }
}

/// Cap on `{m,n}` bounds: generous for log rules, small enough that a
/// pathological pattern cannot balloon the compiled program.
const MAX_REPEAT: u32 = 512;

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    pattern: &'a str,
}

impl<'a> Parser<'a> {
    fn new(pattern: &'a str) -> Self {
        Parser {
            chars: pattern.chars().collect(),
            pos: 0,
            pattern,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn err(&self, msg: &str) -> Error {
        Error::new(format!(
            "{msg} at offset {} in /{}/",
            self.pos, self.pattern
        ))
    }

    fn parse(&mut self) -> Result<Ast, Error> {
        let ast = self.parse_alt()?;
        if let Some(c) = self.peek() {
            return Err(self.err(&format!("unexpected {c:?}")));
        }
        Ok(ast)
    }

    fn parse_alt(&mut self) -> Result<Ast, Error> {
        let mut arms = vec![self.parse_concat()?];
        while self.peek() == Some('|') {
            self.bump();
            arms.push(self.parse_concat()?);
        }
        Ok(if arms.len() == 1 {
            arms.pop().unwrap()
        } else {
            Ast::Alt(arms)
        })
    }

    fn parse_concat(&mut self) -> Result<Ast, Error> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.parse_repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().unwrap(),
            _ => Ast::Concat(parts),
        })
    }

    fn parse_repeat(&mut self) -> Result<Ast, Error> {
        let atom = self.parse_atom()?;
        let (min, max) = match self.peek() {
            Some('*') => {
                self.bump();
                (0, None)
            }
            Some('+') => {
                self.bump();
                (1, None)
            }
            Some('?') => {
                self.bump();
                (0, Some(1))
            }
            Some('{') => match self.try_parse_bounds()? {
                Some(b) => b,
                // `{` that opens no valid bound is a literal (regex
                // crate behaviour for e.g. `a{b`).
                None => return Ok(atom),
            },
            _ => return Ok(atom),
        };
        if matches!(atom, Ast::Start | Ast::End | Ast::Empty) {
            return Err(self.err("quantifier follows nothing repeatable"));
        }
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
        })
    }

    /// Parses `{m}`, `{m,}`, or `{m,n}` starting at `{`; returns `None`
    /// (consuming nothing) when the braces are not a valid bound.
    fn try_parse_bounds(&mut self) -> Result<Option<(u32, Option<u32>)>, Error> {
        let start = self.pos;
        self.bump(); // '{'
        let min = self.parse_number();
        let bounds = match (min, self.peek()) {
            (Some(m), Some('}')) => Some((m, Some(m))),
            (Some(m), Some(',')) => {
                self.bump();
                let max = self.parse_number();
                if self.peek() == Some('}') {
                    match max {
                        Some(x) if x < m => {
                            return Err(self.err("reversed repetition bounds"));
                        }
                        _ => Some((m, max)),
                    }
                } else {
                    None
                }
            }
            _ => None,
        };
        match bounds {
            Some((m, x)) => {
                self.bump(); // '}'
                if m > MAX_REPEAT || x.is_some_and(|x| x > MAX_REPEAT) {
                    return Err(self.err("repetition bound too large"));
                }
                Ok(Some((m, x)))
            }
            None => {
                self.pos = start;
                Ok(None)
            }
        }
    }

    fn parse_number(&mut self) -> Option<u32> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return None;
        }
        self.chars[start..self.pos]
            .iter()
            .collect::<String>()
            .parse()
            .ok()
    }

    fn parse_atom(&mut self) -> Result<Ast, Error> {
        match self.bump() {
            None => Ok(Ast::Empty),
            Some('(') => {
                let inner = self.parse_alt()?;
                if self.bump() != Some(')') {
                    return Err(self.err("unclosed group"));
                }
                Ok(inner)
            }
            Some(')') => Err(self.err("unmatched ')'")),
            Some('[') => self.parse_class(),
            Some('.') => Ok(Ast::Any),
            Some('^') => Ok(Ast::Start),
            Some('$') => Ok(Ast::End),
            Some('*') | Some('+') | Some('?') => Err(self.err("dangling quantifier")),
            Some('\\') => self.parse_escape(false),
            Some(c) => Ok(Ast::Char(c)),
        }
    }

    /// One `\x` escape. In class position (`in_class`), perl classes
    /// contribute their ranges; elsewhere they are standalone atoms.
    fn parse_escape(&mut self, in_class: bool) -> Result<Ast, Error> {
        let Some(c) = self.bump() else {
            return Err(self.err("trailing backslash"));
        };
        let perl = |ranges: &[(char, char)], negated: bool| {
            Ast::Class(ClassSet {
                ranges: ranges.to_vec(),
                negated,
            })
        };
        Ok(match c {
            'd' => perl(&[('0', '9')], false),
            'D' => perl(&[('0', '9')], true),
            'w' => perl(&[('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')], false),
            'W' => perl(&[('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')], true),
            's' => perl(
                &[
                    (' ', ' '),
                    ('\t', '\t'),
                    ('\n', '\n'),
                    ('\r', '\r'),
                    ('\u{b}', '\u{c}'),
                ],
                false,
            ),
            'S' => perl(
                &[
                    (' ', ' '),
                    ('\t', '\t'),
                    ('\n', '\n'),
                    ('\r', '\r'),
                    ('\u{b}', '\u{c}'),
                ],
                true,
            ),
            'n' => Ast::Char('\n'),
            't' => Ast::Char('\t'),
            'r' => Ast::Char('\r'),
            '0' => Ast::Char('\0'),
            c if c.is_ascii_alphanumeric() && !in_class => {
                return Err(self.err(&format!("unsupported escape \\{c}")));
            }
            c => Ast::Char(c),
        })
    }

    /// Parses a `[…]` class body (the `[` is already consumed).
    fn parse_class(&mut self) -> Result<Ast, Error> {
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges: Vec<(char, char)> = Vec::new();
        let mut first = true;
        loop {
            let c = match self.bump() {
                None => return Err(self.err("unclosed character class")),
                // `]` is literal only as the very first member.
                Some(']') if !first => break,
                Some(c) => c,
            };
            first = false;
            let lo = if c == '\\' {
                match self.parse_escape(true)? {
                    Ast::Char(c) => c,
                    Ast::Class(set) => {
                        if set.negated {
                            return Err(self.err("negated perl class inside [...]"));
                        }
                        ranges.extend(set.ranges);
                        continue;
                    }
                    _ => unreachable!("escapes are chars or classes"),
                }
            } else {
                c
            };
            // Range `lo-hi` (a trailing `-` is literal).
            if self.peek() == Some('-') && self.chars.get(self.pos + 1).is_some_and(|&c| c != ']') {
                self.bump();
                let hc = self
                    .bump()
                    .ok_or_else(|| self.err("unclosed character class"))?;
                let hi = if hc == '\\' {
                    match self.parse_escape(true)? {
                        Ast::Char(c) => c,
                        _ => return Err(self.err("perl class as range endpoint")),
                    }
                } else {
                    hc
                };
                if hi < lo {
                    return Err(self.err("reversed class range"));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        if ranges.is_empty() {
            return Err(self.err("empty character class"));
        }
        Ok(Ast::Class(ClassSet { ranges, negated }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Regex::new(pat).unwrap().is_match(text)
    }

    #[test]
    fn literal_substring_search_is_unanchored() {
        assert!(m("EXT3-fs error", "kernel: EXT3-fs error (device sda5)"));
        assert!(!m("EXT3-fs error", "kernel: ext3-fs error"));
        assert!(m("", "anything"));
        assert!(m("", ""));
    }

    #[test]
    fn dot_matches_any_but_newline() {
        assert!(m("a.c", "abc"));
        assert!(m("a.c", "a c"));
        assert!(!m("a.c", "a\nc"));
        assert!(!m("a.c", "ac"));
    }

    #[test]
    fn star_plus_question() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab+c", "abc"));
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
    }

    #[test]
    fn dot_star_bridges_gaps() {
        assert!(m(
            "mptscsih: .* attempting task abort",
            "mptscsih: ioc0: attempting task abort!"
        ));
        assert!(m(
            "gm_mapper.*assertion failed",
            "gm_mapper[123] assertion failed. x"
        ));
        assert!(!m(
            "gm_mapper.*assertion failed",
            "assertion failed in gm_mapper"
        ));
    }

    #[test]
    fn anchors() {
        assert!(m("^foo", "foobar"));
        assert!(!m("^foo", "a foo"));
        assert!(m("bar$", "foobar"));
        assert!(!m("bar$", "bar baz"));
        assert!(m("^foo$", "foo"));
        assert!(!m("^foo$", "foo "));
        assert!(m("^$", ""));
        assert!(!m("^$", "x"));
    }

    #[test]
    fn classes_and_ranges() {
        assert!(m("[abc]", "zebra-c"));
        assert!(!m("[abc]", "xyz"));
        assert!(m("[a-f0-9]+", "deadbeef42"));
        assert!(m("[^0-9]", "a1"));
        assert!(!m("[^0-9]", "123"));
        // `]` literal when first, `-` literal when trailing.
        assert!(m("[]x]", "]"));
        assert!(m("[a-]", "-"));
    }

    #[test]
    fn perl_classes() {
        assert!(m(r"\d+", "abc 123"));
        assert!(!m(r"\d", "abc"));
        assert!(m(r"\w+", "snake_case9"));
        assert!(m(r"\s", "a b"));
        assert!(!m(r"\S", "  \t "));
        assert!(m(r"[\d]", "7"));
        assert!(m(r"[\w.]+", "file.name"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "hotdog stand"));
        assert!(m("(error|warning): disk", "warning: disk full"));
        assert!(!m("(error|warning): disk", "notice: disk full"));
        assert!(m("a(bc)*d", "ad"));
        assert!(m("a(bc)*d", "abcbcd"));
        assert!(m("ab|cd|ef", "xxefxx"));
    }

    #[test]
    fn bounded_repetition() {
        assert!(m("a{3}", "baaab"));
        assert!(!m("^a{3}$", "aa"));
        assert!(!m("^a{3}$", "aaaa"));
        assert!(m("^a{2,}$", "aaaa"));
        assert!(!m("^a{2,}$", "a"));
        assert!(m("^a{1,3}$", "aa"));
        assert!(!m("^a{1,3}$", "aaaa"));
        assert!(m("(ab){2}", "xabab"));
    }

    #[test]
    fn invalid_braces_are_literal() {
        assert!(m("a{b", "xa{bx"));
        assert!(m("a{1,x}", "a{1,x}"));
        assert!(m("{", "{"));
    }

    #[test]
    fn escaped_metacharacters() {
        assert!(m(r"\(111\)", "refused (111) in open_demux"));
        assert!(m(r"gm_parity\.c", "PANIC: gm_parity.c:115"));
        assert!(!m(r"gm_parity\.c", "gm_parityXc"));
        assert!(m(r"I/O", "rejecting I/O to offline device"));
        assert!(m(r"\$\d", "cost $5"));
        assert!(m(r"a\{2}", "a{2}"));
        assert!(m(r"\\", r"back\slash"));
    }

    #[test]
    fn compile_errors() {
        for bad in [
            "(unclosed",
            "[unclosed",
            "([unclosed",
            ")",
            "*x",
            "+x",
            "?",
            "a{3,1}",
            "[z-a]",
            "[]",
            r"trailing\",
            r"\q",
            "a{600}",
        ] {
            assert!(Regex::new(bad).is_err(), "pattern {bad:?} should fail");
        }
    }

    #[test]
    fn error_messages_name_the_pattern() {
        let e = Regex::new("(a").unwrap_err();
        assert!(e.to_string().contains("(a"), "{e}");
        let e = Regex::new("[z-a]").unwrap_err();
        assert!(e.to_string().contains("reversed"), "{e}");
    }

    #[test]
    fn no_pathological_backtracking() {
        // Classic killer for backtracking engines; the thread-set VM
        // handles it in linear time.
        let re = Regex::new("(a*)*b").unwrap_or_else(|_| Regex::new("a*a*a*a*a*a*a*b").unwrap());
        let input = "a".repeat(4096);
        assert!(!re.is_match(&input));
        assert!(re.is_match(&(input + "b")));
    }

    #[test]
    fn literal_fast_path_agrees_with_the_vm() {
        // `[ ]` forces the VM path for an otherwise identical pattern;
        // the literal shortcut must give the same answers.
        let lit = Regex::new("EXT3-fs error").unwrap();
        let vm = Regex::new("EXT3-fs[ ]error").unwrap();
        for text in [
            "kernel: EXT3-fs error (device sda5)",
            "EXT3-fs error",
            "EXT3-fs  error",
            "ext3-fs error",
            "",
        ] {
            assert_eq!(lit.is_match(text), vm.is_match(text), "{text:?}");
        }
        // Escapes reduce to chars, so this stays on the fast path and
        // must still treat the metacharacters literally.
        assert!(m(r"\(111\)", "refused (111)"));
        assert!(!m(r"\(111\)", "refused 111"));
    }

    #[test]
    fn unicode_text_is_handled_per_char() {
        assert!(m("naïve", "a naïve plan"));
        assert!(m("n.ïve", "a naïve plan"));
        assert!(m("[^a]", "ü"));
    }

    fn factors(pat: &str) -> Option<Vec<String>> {
        Regex::new(pat)
            .unwrap()
            .required_literals()
            .map(<[String]>::to_vec)
    }

    fn lits(xs: &[&str]) -> Option<Vec<String>> {
        Some(xs.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn factor_of_pure_literal_is_itself() {
        assert_eq!(factors("EXT3-fs error"), lits(&["EXT3-fs error"]));
        assert_eq!(factors(r"gm_parity\.c"), lits(&["gm_parity.c"]));
        assert_eq!(factors(""), None);
    }

    #[test]
    fn factor_picks_longest_run_across_gaps() {
        assert_eq!(
            factors("mptscsih: .* attempting task abort"),
            lits(&[" attempting task abort"])
        );
        assert_eq!(factors(r"link \d+ down"), lits(&["link "]));
        assert_eq!(factors("a[0-9]bcdef"), lits(&["bcdef"]));
    }

    #[test]
    fn factor_ignores_anchors_and_keeps_adjacency() {
        assert_eq!(factors("^foo bar$"), lits(&["foo bar"]));
        assert_eq!(factors("^$"), None);
    }

    #[test]
    fn alternation_contributes_one_factor_per_branch() {
        assert_eq!(factors("(error|warning): disk"), lits(&[": disk"]));
        assert_eq!(factors("error|warning"), lits(&["error", "warning"]));
        // A factor-less branch poisons the whole alternation.
        assert_eq!(factors(r"error|\d+"), None);
    }

    #[test]
    fn repetition_factors() {
        assert_eq!(factors("a{3}"), lits(&["aaa"]));
        assert_eq!(factors("(ab)+x"), lits(&["ab"]));
        assert_eq!(factors("x(abc)?y"), lits(&["x"]));
        assert_eq!(factors("a*"), None);
        assert_eq!(factors(r"\d+"), None);
    }

    #[test]
    fn factors_are_sound_on_random_matching_texts() {
        // Every pattern with factors: any text it matches must contain
        // one of them (checked on a few handmade matching texts).
        let cases = [
            ("EXT[0-9]-fs (error|warning)", "x EXT3-fs warning y"),
            (
                "mptscsih: .* attempting task abort",
                "mptscsih: io attempting task abort!",
            ),
            ("^foo|bar$", "xbar"),
            ("a{2,4}b", "caaab"),
        ];
        for (pat, text) in cases {
            let re = Regex::new(pat).unwrap();
            assert!(re.is_match(text), "{pat} should match {text}");
            if let Some(f) = re.required_literals() {
                assert!(
                    f.iter().any(|l| text.contains(l.as_str())),
                    "factors {f:?} of /{pat}/ absent from matching text {text:?}"
                );
            }
        }
    }

    #[test]
    fn debug_and_display_show_pattern() {
        let re = Regex::new("a+b").unwrap();
        assert_eq!(re.as_str(), "a+b");
        assert_eq!(re.to_string(), "a+b");
        assert!(format!("{re:?}").contains("a+b"));
    }
}
