//! A tiny JSON *writer*.
//!
//! The pipeline only ever serializes — bench records, table/figure
//! dumps, experiment snapshots; nothing in the tree deserializes. So
//! instead of a serialization framework this module offers two small
//! push-style builders, [`JsonObject`] and [`JsonArray`], that emit
//! spec-compliant JSON text (escaped strings, `null` for non-finite
//! floats, no trailing commas). Writers that must not paper over a
//! NaN with `null` close with `try_finish`, which returns the typed
//! [`JsonError`] latched at write time.
//!
//! # Examples
//!
//! ```
//! use sclog_types::json::JsonObject;
//!
//! let mut rec = JsonObject::new();
//! rec.str("name", "filter_spirit/simultaneous")
//!     .int("iters", 20)
//!     .num("ns_per_iter", 1312.5);
//! assert_eq!(
//!     rec.finish(),
//!     r#"{"name":"filter_spirit/simultaneous","iters":20,"ns_per_iter":1312.5}"#
//! );
//! ```

use std::fmt::Write as _;

/// A write-time error latched by a builder and reported by
/// [`JsonObject::try_finish`] / [`JsonArray::try_finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// A NaN or infinite float was written. JSON has no spelling for
    /// these; the lenient `finish` path emits `null`, the strict
    /// `try_finish` path refuses the whole document.
    NonFinite {
        /// The object key or array index the value was written under.
        at: String,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::NonFinite { at } => {
                write!(
                    f,
                    "non-finite float written at {at:?} (JSON has no NaN/Infinity)"
                )
            }
        }
    }
}

impl std::error::Error for JsonError {}

/// Checks that `s` is one complete, syntactically valid JSON value.
///
/// A minimal recursive-descent validator (no value construction, no
/// number range checks beyond JSON's grammar) so tests and the
/// `--obs-smoke` gate can prove emitted documents parse without a
/// registry JSON crate. Returns the byte offset and a short message
/// for the first error.
///
/// # Examples
///
/// ```
/// use sclog_types::json::validate;
///
/// assert!(validate(r#"{"a":[1,2.5e3,null,"x\n"]}"#).is_ok());
/// assert!(validate(r#"{"a":}"#).is_err());
/// ```
pub fn validate(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at byte {}", *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => parse_string(b, pos),
        Some(b't') => expect(b, pos, "true"),
        Some(b'f') => expect(b, pos, "false"),
        Some(b'n') => expect(b, pos, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {}", *pos)),
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, ":")?;
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        parse_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {}", *pos));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at byte {}", *pos));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at byte {}", *pos));
        }
    }
    Ok(())
}

/// Escapes `s` as JSON string contents (no surrounding quotes) onto
/// `out`.
pub fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Writes a number the way JSON requires: non-finite values become
/// `null` (JSON has no NaN/Infinity).
fn push_num(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `s` as a quoted, escaped JSON string onto `out`.
pub fn push_str(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Builder for a JSON object. Fields are emitted in insertion order.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    buf: String,
    /// First write-time error, latched for [`JsonObject::try_finish`].
    err: Option<JsonError>,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            err: None,
        }
    }

    fn key(&mut self, name: &str) -> &mut Self {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        push_str(name, &mut self.buf);
        self.buf.push(':');
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, name: &str, value: &str) -> &mut Self {
        self.key(name);
        push_str(value, &mut self.buf);
        self
    }

    /// Adds an integer field.
    pub fn int(&mut self, name: &str, value: i64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds an unsigned integer field.
    pub fn uint(&mut self, name: &str, value: u64) -> &mut Self {
        self.key(name);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field (`null` if non-finite; a non-finite value
    /// also latches the error [`JsonObject::try_finish`] reports).
    pub fn num(&mut self, name: &str, value: f64) -> &mut Self {
        if !value.is_finite() && self.err.is_none() {
            self.err = Some(JsonError::NonFinite {
                at: name.to_owned(),
            });
        }
        self.key(name);
        push_num(value, &mut self.buf);
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a pre-rendered JSON value verbatim (e.g. a nested object or
    /// array from another builder).
    pub fn raw(&mut self, name: &str, json: &str) -> &mut Self {
        self.key(name);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(&self) -> String {
        let mut out = self.buf.clone();
        out.push('}');
        out
    }

    /// Closes the object like [`JsonObject::finish`], but returns the
    /// first write-time error instead of papering over it — the strict
    /// path for documents a machine will read back, where a silent
    /// `null` in place of a NaN would corrupt the record.
    ///
    /// # Errors
    ///
    /// [`JsonError::NonFinite`] if any [`JsonObject::num`] call wrote a
    /// NaN or infinity.
    pub fn try_finish(&self) -> Result<String, JsonError> {
        match &self.err {
            Some(e) => Err(e.clone()),
            None => Ok(self.finish()),
        }
    }
}

/// Builder for a JSON array.
#[derive(Debug, Clone, Default)]
pub struct JsonArray {
    buf: String,
    /// Elements pushed so far (names the index in error reports).
    len: usize,
    /// First write-time error, latched for [`JsonArray::try_finish`].
    err: Option<JsonError>,
}

impl JsonArray {
    /// Starts an empty array.
    pub fn new() -> Self {
        JsonArray {
            buf: String::from("["),
            len: 0,
            err: None,
        }
    }

    fn sep(&mut self) -> &mut Self {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.len += 1;
        self
    }

    /// Appends a string element.
    pub fn push_str(&mut self, value: &str) -> &mut Self {
        self.sep();
        push_str(value, &mut self.buf);
        self
    }

    /// Appends an integer element.
    pub fn push_int(&mut self, value: i64) -> &mut Self {
        self.sep();
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float element (`null` if non-finite; a non-finite
    /// value also latches the error [`JsonArray::try_finish`] reports).
    pub fn push_num(&mut self, value: f64) -> &mut Self {
        if !value.is_finite() && self.err.is_none() {
            self.err = Some(JsonError::NonFinite {
                at: format!("[{}]", self.len),
            });
        }
        self.sep();
        push_num(value, &mut self.buf);
        self
    }

    /// Appends a pre-rendered JSON value verbatim.
    pub fn push_raw(&mut self, json: &str) -> &mut Self {
        self.sep();
        self.buf.push_str(json);
        self
    }

    /// Closes the array and returns the JSON text.
    pub fn finish(&self) -> String {
        let mut out = self.buf.clone();
        out.push(']');
        out
    }

    /// Closes the array like [`JsonArray::finish`], but returns the
    /// first write-time error instead of papering over it.
    ///
    /// # Errors
    ///
    /// [`JsonError::NonFinite`] if any [`JsonArray::push_num`] call
    /// wrote a NaN or infinity.
    pub fn try_finish(&self) -> Result<String, JsonError> {
        match &self.err {
            Some(e) => Err(e.clone()),
            None => Ok(self.finish()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_object_and_array() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(JsonArray::new().finish(), "[]");
    }

    #[test]
    fn field_kinds_and_order() {
        let mut o = JsonObject::new();
        o.str("s", "x")
            .int("i", -3)
            .uint("u", 7)
            .num("f", 1.25)
            .bool("b", true);
        assert_eq!(o.finish(), r#"{"s":"x","i":-3,"u":7,"f":1.25,"b":true}"#);
    }

    #[test]
    fn escaping() {
        let mut o = JsonObject::new();
        o.str("k", "a\"b\\c\nd\te\u{1}");
        assert_eq!(o.finish(), r#"{"k":"a\"b\\c\nd\te\u0001"}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut a = JsonArray::new();
        a.push_num(f64::NAN).push_num(f64::INFINITY).push_num(0.5);
        assert_eq!(a.finish(), "[null,null,0.5]");
    }

    #[test]
    fn try_finish_rejects_non_finite_object_fields() {
        let mut o = JsonObject::new();
        o.num("ok", 1.5);
        assert_eq!(o.try_finish().unwrap(), r#"{"ok":1.5}"#);
        o.num("rate", f64::NAN).num("late", f64::NEG_INFINITY);
        let err = o.try_finish().unwrap_err();
        assert_eq!(
            err,
            JsonError::NonFinite { at: "rate".into() },
            "first offender is the one reported"
        );
        assert!(err.to_string().contains("rate"), "{err}");
        // The lenient path still renders, with null in place.
        assert_eq!(o.finish(), r#"{"ok":1.5,"rate":null,"late":null}"#);
    }

    #[test]
    fn try_finish_rejects_non_finite_array_elements() {
        let mut a = JsonArray::new();
        a.push_num(0.5).push_int(2);
        assert_eq!(a.try_finish().unwrap(), "[0.5,2]");
        a.push_num(f64::INFINITY);
        assert_eq!(
            a.try_finish().unwrap_err(),
            JsonError::NonFinite { at: "[2]".into() },
            "error names the element index"
        );
    }

    #[test]
    fn nesting_via_raw() {
        let mut inner = JsonArray::new();
        inner.push_int(1).push_int(2);
        let mut o = JsonObject::new();
        o.raw("xs", &inner.finish());
        let mut outer = JsonObject::new();
        outer.raw("inner", &o.finish());
        assert_eq!(outer.finish(), r#"{"inner":{"xs":[1,2]}}"#);
    }

    #[test]
    fn keys_are_escaped_too() {
        let mut o = JsonObject::new();
        o.int("a\"b", 1);
        assert_eq!(o.finish(), r#"{"a\"b":1}"#);
    }

    #[test]
    fn validate_accepts_what_the_writer_emits() {
        let mut inner = JsonArray::new();
        inner.push_num(f64::NAN).push_int(-3).push_str("x\n\"y\\");
        let mut o = JsonObject::new();
        o.raw("xs", &inner.finish())
            .num("f", 1.25e-3)
            .bool("b", false)
            .str("esc", "ctl\u{1}");
        validate(&o.finish()).expect("writer output must validate");
    }

    #[test]
    fn validate_accepts_scalars_and_whitespace() {
        for ok in [
            "0",
            "-12.5e+3",
            "true",
            "false",
            "null",
            r#""""#,
            " [ 1 , { \"a\" : [] } ] ",
            "{}",
        ] {
            validate(ok).unwrap_or_else(|e| panic!("{ok:?}: {e}"));
        }
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            r#"{'a':1}"#,
            "01e",
            "1 2",
            "nul",
            r#""unterminated"#,
            "\"raw\ncontrol\"",
            r#""bad \x escape""#,
            r#""bad \u12g4""#,
            "[1",
            "-",
            "1.",
            "1e",
        ] {
            assert!(validate(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn validate_flags_unescaped_control_characters() {
        // Every raw control byte (0x00..=0x1F) inside a string is a
        // spec violation; the same characters escaped are fine.
        for byte in 0x00u8..=0x1f {
            let doc = format!("\"ctl{}here\"", byte as char);
            let err = validate(&doc).expect_err(&format!("raw {byte:#04x} accepted"));
            assert!(err.contains("control"), "{byte:#04x}: {err}");
            let escaped = format!("\"ctl\\u{byte:04x}here\"");
            validate(&escaped).unwrap_or_else(|e| panic!("{escaped:?}: {e}"));
        }
        // Outside a string the same bytes are plain syntax errors, not
        // string-content errors (0x09/0x0a/0x0d are whitespace there).
        assert!(validate("\u{1}").is_err());
    }
}
