//! The three concrete line formats and their parsers.
//!
//! Every parse starts with one header step per format: tokenise the
//! line, apply the rejection rules (`EmptyLine`, `TooShort`,
//! `BadTimestamp`), recover the year, intern the source. Both
//! [`LineFormat::parse_header`] and [`LineFormat::parse`] run that
//! step; only `parse` goes on to cut the severity, facility and body
//! out of the rest of the line.

use crate::error::ParseError;
use sclog_types::time::{days_in_month, month_from_abbrev};
use sclog_types::{
    BglSeverity, Duration, Message, NodeId, Severity, SourceInterner, SyslogSeverity, SystemId,
    Timestamp,
};

/// Mutable state threaded through parsing: the source interner and the
/// year-recovery state for formats (BSD syslog) that omit the year.
#[derive(Debug)]
pub struct ParseContext {
    /// Interner mapping source names to compact ids.
    pub interner: SourceInterner,
    year: i32,
    last_month: u32,
}

impl ParseContext {
    /// Creates a context; `start_year` seeds year recovery for syslog.
    pub fn new(start_year: i32) -> Self {
        ParseContext {
            interner: SourceInterner::new(),
            year: start_year,
            last_month: 1,
        }
    }

    /// The year the next syslog line is assumed to fall in, before
    /// its own month is seen (rollover included).
    pub fn year(&self) -> i32 {
        self.year
    }

    /// Resolves the year for a syslog month token, detecting New Year
    /// rollover (a month far smaller than the last seen one).
    fn resolve_year(&mut self, month: u32) -> i32 {
        if month + 6 < self.last_month {
            self.year += 1;
        }
        self.last_month = month;
        self.year
    }
}

/// A log line format: renders [`Message`]s to their native text form and
/// parses text back.
///
/// Implementations must round-trip: `parse(render(m))` equals `m` up to
/// the format's timestamp granularity and severity support.
pub trait LineFormat {
    /// Renders a message as one log line (no trailing newline),
    /// appending to `out`. This is the buffer-reuse primitive the
    /// tagging hot loop uses; `out` is *not* cleared first.
    fn render_into(&self, msg: &Message, interner: &SourceInterner, out: &mut String);

    /// Renders a message as one log line (no trailing newline).
    ///
    /// Allocating convenience wrapper over [`LineFormat::render_into`].
    fn render(&self, msg: &Message, interner: &SourceInterner) -> String {
        let mut out = String::new();
        self.render_into(msg, interner, &mut out);
        out
    }

    /// Parses one line's header: its timestamp and interned source.
    ///
    /// This is the first step of [`LineFormat::parse`], so it accepts
    /// and rejects exactly the lines `parse` does, with the same
    /// error, and moves the year recovery and the interner exactly as
    /// `parse` would. On success it allocates nothing unless the
    /// source is a name the interner has not seen.
    ///
    /// # Errors
    ///
    /// The [`ParseError`] that [`LineFormat::parse`] returns for the
    /// same line.
    fn parse_header(
        &self,
        line: &str,
        ctx: &mut ParseContext,
    ) -> Result<(Timestamp, NodeId), ParseError>;

    /// Parses one line.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] only when the line is beyond recovery
    /// (empty, truncated before the body, or unrecoverable timestamp);
    /// garbled source/severity tokens are tolerated.
    fn parse(
        &self,
        line: &str,
        system: SystemId,
        ctx: &mut ParseContext,
    ) -> Result<Message, ParseError>;
}

/// What a format's header step yields: the line's time and interned
/// source, and its first `N` tokens, after which the body starts.
type Header<'a, const N: usize> = ((Timestamp, NodeId), [&'a str; N]);

/// The tokeniser every format shares: the first `N` whitespace-
/// separated tokens of `line`, as `str::split_whitespace` would yield
/// them. A blank line is [`ParseError::EmptyLine`]; fewer than `N`
/// tokens is [`ParseError::TooShort`] against the format's `needed`
/// field count.
///
/// Header tokens are ASCII on every real line, so bytes are scanned
/// directly; the first non-ASCII byte met before the `N`th token ends
/// hands the whole line to the `char`-level path, which also knows
/// the non-ASCII Unicode spaces.
fn leading_tokens<const N: usize>(line: &str, needed: usize) -> Result<[&str; N], ParseError> {
    let bytes = line.as_bytes();
    let mut tokens = [""; N];
    let mut pos = 0;
    for (found, token) in tokens.iter_mut().enumerate() {
        while bytes.get(pos).is_some_and(|&b| is_ascii_space(b)) {
            pos += 1;
        }
        if pos == bytes.len() {
            return Err(if found == 0 {
                ParseError::EmptyLine
            } else {
                ParseError::TooShort { found, needed }
            });
        }
        let start = pos;
        while let Some(&b) = bytes.get(pos).filter(|&&b| !is_ascii_space(b)) {
            if !b.is_ascii() {
                return leading_tokens_unicode(line, needed);
            }
            pos += 1;
        }
        *token = &line[start..pos];
    }
    Ok(tokens)
}

/// [`leading_tokens`] by `char`, for lines with non-ASCII header text.
fn leading_tokens_unicode<const N: usize>(
    line: &str,
    needed: usize,
) -> Result<[&str; N], ParseError> {
    if line.trim().is_empty() {
        return Err(ParseError::EmptyLine);
    }
    let mut tokens = [""; N];
    let mut it = line.split_whitespace();
    for (found, token) in tokens.iter_mut().enumerate() {
        *token = it.next().ok_or(ParseError::TooShort { found, needed })?;
    }
    Ok(tokens)
}

/// The ASCII characters `char::is_whitespace` accepts: tab, line
/// feed, vertical tab, form feed, carriage return and space.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// BSD syslog: `Nov  9 12:01:01 host facility: body`, optionally with a
/// severity token after the host (Red Storm's syslog path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyslogFormat {
    severity: bool,
}

impl SyslogFormat {
    /// The severity-less variant used by Liberty, Spirit, Thunderbird.
    pub fn plain() -> Self {
        SyslogFormat { severity: false }
    }

    /// The variant that records a severity token (Red Storm syslog).
    pub fn with_severity() -> Self {
        SyslogFormat { severity: true }
    }

    /// Header step: `month day hh:mm:ss host`.
    fn header<'a>(
        &self,
        line: &'a str,
        ctx: &mut ParseContext,
    ) -> Result<Header<'a, 4>, ParseError> {
        let needed = if self.severity { 5 } else { 4 };
        let tokens = leading_tokens(line, needed)?;
        let [mon_tok, day_tok, time_tok, host] = tokens;
        let bad = || ParseError::BadTimestamp {
            token: format!("{mon_tok} {day_tok} {time_tok}"),
        };
        let month = month_from_abbrev(mon_tok).ok_or_else(bad)?;
        let day: u32 = day_tok.parse().map_err(|_| bad())?;
        let (hh, mm, ss) = parse_hms(time_tok).ok_or_else(bad)?;
        let year = ctx.resolve_year(month);
        if day == 0 || day > days_in_month(year, month) || hh > 23 || mm > 59 || ss > 59 {
            return Err(bad());
        }
        let time = Timestamp::from_ymd_hms(year, month, day, hh, mm, ss);
        Ok(((time, ctx.interner.intern(host)), tokens))
    }
}

impl LineFormat for SyslogFormat {
    fn render_into(&self, msg: &Message, interner: &SourceInterner, out: &mut String) {
        use std::fmt::Write as _;
        let host = interner.name(msg.source);
        msg.time.write_syslog(out);
        let facility = if msg.facility.is_empty() {
            "unknown"
        } else {
            &msg.facility
        };
        if self.severity {
            let sev = msg.severity.as_syslog().map_or("-", SyslogSeverity::name);
            let _ = write!(out, " {host} {sev} {facility}: {body}", body = msg.body);
        } else {
            let _ = write!(out, " {host} {facility}: {body}", body = msg.body);
        }
    }

    fn parse_header(
        &self,
        line: &str,
        ctx: &mut ParseContext,
    ) -> Result<(Timestamp, NodeId), ParseError> {
        self.header(line, ctx).map(|(fields, _)| fields)
    }

    fn parse(
        &self,
        line: &str,
        system: SystemId,
        ctx: &mut ParseContext,
    ) -> Result<Message, ParseError> {
        let ((time, source), tokens) = self.header(line, ctx)?;
        let mut severity = Severity::None;
        let mut rest: &str = remainder_after(line, &tokens);
        if self.severity {
            let mut it2 = rest.split_whitespace();
            if let Some(tok) = it2.next() {
                // A garbled severity token is tolerated: it becomes part
                // of the facility/body instead.
                if let Ok(sev) = tok.parse::<SyslogSeverity>() {
                    severity = Severity::Syslog(sev);
                    rest = remainder_after(rest, &[tok]);
                }
            }
        }

        // Facility is the first token ending in ':'; if absent the whole
        // remainder is body with an empty facility (seen on corrupted
        // lines).
        let (facility, body) = split_facility(rest);
        Ok(Message {
            system,
            time,
            source,
            facility,
            severity,
            body,
        })
    }
}

/// BG/L RAS export: `2005-06-03-15.42.50.363779 LOCATION RAS FACILITY
/// SEVERITY body`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BglFormat;

impl BglFormat {
    /// Header step: `timestamp location RAS facility severity`. The
    /// "RAS" marker and the severity may be garbled; they carry no
    /// header data.
    fn header<'a>(line: &'a str, ctx: &mut ParseContext) -> Result<Header<'a, 5>, ParseError> {
        let tokens = leading_tokens(line, 5)?;
        let [ts_tok, loc, _, _, _] = tokens;
        let time = parse_bgl_timestamp(ts_tok).ok_or_else(|| ParseError::BadTimestamp {
            token: ts_tok.to_owned(),
        })?;
        Ok(((time, ctx.interner.intern(loc)), tokens))
    }
}

impl LineFormat for BglFormat {
    fn render_into(&self, msg: &Message, interner: &SourceInterner, out: &mut String) {
        use std::fmt::Write as _;
        let sev = msg.severity.as_bgl().map_or("-", BglSeverity::name);
        let facility = if msg.facility.is_empty() {
            "UNKNOWN"
        } else {
            &msg.facility
        };
        msg.time.write_bgl(out);
        let _ = write!(
            out,
            " {loc} RAS {facility} {sev} {body}",
            loc = interner.name(msg.source),
            body = msg.body
        );
    }

    fn parse_header(
        &self,
        line: &str,
        ctx: &mut ParseContext,
    ) -> Result<(Timestamp, NodeId), ParseError> {
        Self::header(line, ctx).map(|(fields, _)| fields)
    }

    fn parse(
        &self,
        line: &str,
        system: SystemId,
        ctx: &mut ParseContext,
    ) -> Result<Message, ParseError> {
        let ((time, source), tokens) = Self::header(line, ctx)?;
        let [_, _, _, facility, sev_tok] = tokens;
        let severity = sev_tok
            .parse::<BglSeverity>()
            .map_or(Severity::None, Severity::Bgl);
        Ok(Message {
            system,
            time,
            source,
            facility: facility.to_owned(),
            severity,
            body: remainder_after(line, &tokens).to_owned(),
        })
    }
}

/// Red Storm RAS-network event path: `EV <epoch-secs> <component>
/// <event> body`. Reliable TCP transport, no severity analog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventFormat;

impl EventFormat {
    /// Header step: `EV secs component event`. The marker may be
    /// garbled; an epoch that does not fit a [`Timestamp`] is
    /// unrecoverable.
    fn header<'a>(line: &'a str, ctx: &mut ParseContext) -> Result<Header<'a, 4>, ParseError> {
        let tokens = leading_tokens(line, 4)?;
        let [_, secs_tok, src, _] = tokens;
        let time = secs_tok
            .parse::<i64>()
            .ok()
            .and_then(|secs| secs.checked_mul(1_000_000))
            .map(Timestamp::from_micros)
            .ok_or_else(|| ParseError::BadTimestamp {
                token: secs_tok.to_owned(),
            })?;
        Ok(((time, ctx.interner.intern(src)), tokens))
    }
}

impl LineFormat for EventFormat {
    fn render_into(&self, msg: &Message, interner: &SourceInterner, out: &mut String) {
        use std::fmt::Write as _;
        let facility = if msg.facility.is_empty() {
            "ec_event"
        } else {
            &msg.facility
        };
        let _ = write!(
            out,
            "EV {secs} {src} {facility} {body}",
            secs = msg.time.as_secs(),
            src = interner.name(msg.source),
            body = msg.body
        );
    }

    fn parse_header(
        &self,
        line: &str,
        ctx: &mut ParseContext,
    ) -> Result<(Timestamp, NodeId), ParseError> {
        Self::header(line, ctx).map(|(fields, _)| fields)
    }

    fn parse(
        &self,
        line: &str,
        system: SystemId,
        ctx: &mut ParseContext,
    ) -> Result<Message, ParseError> {
        let ((time, source), tokens) = Self::header(line, ctx)?;
        Ok(Message {
            system,
            time,
            source,
            facility: tokens[3].to_owned(),
            severity: Severity::None,
            body: remainder_after(line, &tokens).to_owned(),
        })
    }
}

/// Parses `HH:MM:SS`.
fn parse_hms(tok: &str) -> Option<(u32, u32, u32)> {
    let mut parts = tok.split(':');
    let hh = parts.next()?.parse().ok()?;
    let mm = parts.next()?.parse().ok()?;
    let ss = parts.next()?.parse().ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some((hh, mm, ss))
}

/// Parses `YYYY-MM-DD-HH.MM.SS.ffffff`. The year must have at most
/// four digits, which keeps every accepted time inside [`Timestamp`]'s
/// range.
fn parse_bgl_timestamp(tok: &str) -> Option<Timestamp> {
    let mut parts = tok.splitn(4, '-');
    let year: i32 = parts.next()?.parse().ok()?;
    let month: u32 = parts.next()?.parse().ok()?;
    let day: u32 = parts.next()?.parse().ok()?;
    let tod = parts.next()?;
    let mut t = tod.split('.');
    let hh: u32 = t.next()?.parse().ok()?;
    let mm: u32 = t.next()?.parse().ok()?;
    let ss: u32 = t.next()?.parse().ok()?;
    let us: u32 = t.next()?.parse().ok()?;
    if !(0..=9999).contains(&year)
        || !(1..=12).contains(&month)
        || day == 0
        || day > days_in_month(year, month)
        || hh > 23
        || mm > 59
        || ss > 59
        || us >= 1_000_000
    {
        return None;
    }
    Some(Timestamp::from_ymd_hms(year, month, day, hh, mm, ss) + Duration::from_micros(us.into()))
}

/// Returns the tail of `line` after the given leading tokens, with one
/// separating space consumed.
fn remainder_after<'a>(line: &'a str, tokens: &[&str]) -> &'a str {
    let mut rest = line.trim_start();
    for tok in tokens {
        rest = rest
            .strip_prefix(tok)
            .unwrap_or(rest)
            .trim_start_matches([' ', '\t']);
    }
    rest
}

/// Splits `facility: body`, returning an empty facility if no token
/// ends with a colon.
fn split_facility(rest: &str) -> (String, String) {
    let mut it = rest.splitn(2, char::is_whitespace);
    match it.next() {
        Some(first) if first.ends_with(':') && first.len() > 1 => {
            let facility = first[..first.len() - 1].to_owned();
            let body = it.next().unwrap_or("").to_owned();
            (facility, body)
        }
        _ => (String::new(), rest.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sclog_types::NodeId;

    fn msg(
        system: SystemId,
        time: Timestamp,
        sev: Severity,
        facility: &str,
        body: &str,
    ) -> Message {
        Message {
            system,
            time,
            source: NodeId::from_index(0),
            facility: facility.to_owned(),
            severity: sev,
            body: body.to_owned(),
        }
    }

    fn interner_with(name: &str) -> SourceInterner {
        let mut i = SourceInterner::new();
        i.intern(name);
        i
    }

    #[test]
    fn ascii_space_is_char_whitespace() {
        for b in 0..=127u8 {
            assert_eq!(is_ascii_space(b), char::from(b).is_whitespace(), "{b:#x}");
        }
    }

    #[test]
    fn leading_tokens_match_split_whitespace() {
        let lines = [
            "",
            " ",
            "\t\r",
            "\u{3000}",
            " \u{a0} ",
            "a",
            " a ",
            "a b",
            "a\x0bb\x0cc d e f",
            "Jan  2 03:04:05 host kernel: x",
            "Jan\u{3000}2 03:04:05 h k",
            "Jan 2\u{a0}03 h",
            "é b c d",
            "a b c dé",
            "a b c d é",
            "a\u{85}b c d",
            "\u{2028}a b c d",
        ];
        for line in lines {
            let got = leading_tokens::<4>(line, 4);
            let want = if line.trim().is_empty() {
                Err(ParseError::EmptyLine)
            } else {
                let tokens: Vec<&str> = line.split_whitespace().take(4).collect();
                <[&str; 4]>::try_from(tokens.as_slice()).map_err(|_| ParseError::TooShort {
                    found: tokens.len(),
                    needed: 4,
                })
            };
            assert_eq!(got, want, "{line:?}");
        }
    }

    #[test]
    fn syslog_round_trip() {
        let f = SyslogFormat::plain();
        let interner = interner_with("dn228");
        let m = msg(
            SystemId::Liberty,
            Timestamp::from_ymd_hms(2005, 3, 7, 14, 30, 5),
            Severity::None,
            "pbs_mom",
            "task_check, cannot tm_reply to 4418 task 1",
        );
        let line = f.render(&m, &interner);
        assert_eq!(
            line,
            "Mar  7 14:30:05 dn228 pbs_mom: task_check, cannot tm_reply to 4418 task 1"
        );
        let mut ctx = ParseContext::new(2005);
        let parsed = f.parse(&line, SystemId::Liberty, &mut ctx).unwrap();
        assert_eq!(parsed.time, m.time);
        assert_eq!(ctx.interner.name(parsed.source), "dn228");
        assert_eq!(parsed.facility, "pbs_mom");
        assert_eq!(parsed.body, m.body);
        assert_eq!(parsed.severity, Severity::None);
    }

    #[test]
    fn syslog_with_severity_round_trip() {
        let f = SyslogFormat::with_severity();
        let interner = interner_with("nid00042");
        let m = msg(
            SystemId::RedStorm,
            Timestamp::from_ymd_hms(2006, 3, 19, 0, 0, 1),
            Severity::Syslog(SyslogSeverity::Crit),
            "kernel",
            "LustreError: timeout (sent at 300s ago)",
        );
        let line = f.render(&m, &interner);
        assert!(line.contains(" CRIT kernel: "), "{line}");
        let mut ctx = ParseContext::new(2006);
        let parsed = f.parse(&line, SystemId::RedStorm, &mut ctx).unwrap();
        assert_eq!(parsed.severity, Severity::Syslog(SyslogSeverity::Crit));
        assert_eq!(parsed.facility, "kernel");
        assert_eq!(parsed.body, m.body);
    }

    #[test]
    fn syslog_year_rollover() {
        let f = SyslogFormat::plain();
        let mut ctx = ParseContext::new(2004);
        let dec = f
            .parse("Dec 31 23:59:59 ln1 kernel: a", SystemId::Liberty, &mut ctx)
            .unwrap();
        let jan = f
            .parse("Jan  1 00:00:10 ln1 kernel: b", SystemId::Liberty, &mut ctx)
            .unwrap();
        assert_eq!(dec.time.to_civil().0, 2004);
        assert_eq!(jan.time.to_civil().0, 2005);
        assert_eq!(jan.time - dec.time, Duration::from_secs(11));
    }

    #[test]
    fn syslog_corrupted_severity_is_tolerated() {
        let f = SyslogFormat::with_severity();
        let mut ctx = ParseContext::new(2006);
        let parsed = f
            .parse(
                "Mar 19 10:00:00 nid1 CRXT kernel: body here",
                SystemId::RedStorm,
                &mut ctx,
            )
            .unwrap();
        // Garbled severity: token absorbed, severity None. The garbled
        // token is not a facility (no colon), so facility is empty and
        // the body keeps everything.
        assert_eq!(parsed.severity, Severity::None);
        assert!(parsed.body.contains("body here"));
    }

    #[test]
    fn syslog_missing_facility_keeps_body() {
        let f = SyslogFormat::plain();
        let mut ctx = ParseContext::new(2005);
        let parsed = f
            .parse(
                "Jan  2 03:04:05 sn373 no colon anywhere",
                SystemId::Spirit,
                &mut ctx,
            )
            .unwrap();
        assert_eq!(parsed.facility, "");
        assert_eq!(parsed.body, "no colon anywhere");
    }

    #[test]
    fn syslog_rejects_garbage_timestamp() {
        let f = SyslogFormat::plain();
        let mut ctx = ParseContext::new(2005);
        assert!(matches!(
            f.parse("Foo 99 99:99:99 host k: b", SystemId::Spirit, &mut ctx),
            Err(ParseError::BadTimestamp { .. })
        ));
        assert!(matches!(
            f.parse("Jan 42 03:04:05 host k: b", SystemId::Spirit, &mut ctx),
            Err(ParseError::BadTimestamp { .. })
        ));
        assert_eq!(
            f.parse("", SystemId::Spirit, &mut ctx),
            Err(ParseError::EmptyLine)
        );
        assert!(matches!(
            f.parse("Jan 2", SystemId::Spirit, &mut ctx),
            Err(ParseError::TooShort { .. })
        ));
    }

    #[test]
    fn bgl_round_trip() {
        let f = BglFormat;
        let interner = interner_with("R02-M1-N0-C:J12-U11");
        let m = Message {
            system: SystemId::BlueGeneL,
            time: Timestamp::from_ymd_hms(2005, 6, 3, 15, 42, 50) + Duration::from_micros(363_779),
            source: NodeId::from_index(0),
            facility: "KERNEL".into(),
            severity: Severity::Bgl(BglSeverity::Info),
            body: "instruction cache parity error corrected".into(),
        };
        let line = f.render(&m, &interner);
        assert_eq!(
            line,
            "2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected"
        );
        let mut ctx = ParseContext::new(2005);
        let parsed = f.parse(&line, SystemId::BlueGeneL, &mut ctx).unwrap();
        assert_eq!(parsed.time, m.time);
        assert_eq!(parsed.severity, m.severity);
        assert_eq!(parsed.facility, "KERNEL");
        assert_eq!(parsed.body, m.body);
        assert_eq!(ctx.interner.name(parsed.source), "R02-M1-N0-C:J12-U11");
    }

    #[test]
    fn bgl_microsecond_precision_survives() {
        let f = BglFormat;
        let mut ctx = ParseContext::new(2005);
        let parsed = f
            .parse(
                "2005-06-03-15.42.50.000001 R00 RAS KERNEL FATAL x",
                SystemId::BlueGeneL,
                &mut ctx,
            )
            .unwrap();
        assert_eq!(parsed.time.subsec_micros(), 1);
        assert_eq!(parsed.severity, Severity::Bgl(BglSeverity::Fatal));
    }

    #[test]
    fn bgl_corrupted_severity_tolerated() {
        let f = BglFormat;
        let mut ctx = ParseContext::new(2005);
        let parsed = f
            .parse(
                "2005-06-03-15.42.50.000000 R00 RAS KERNEL INF%% data TLB error",
                SystemId::BlueGeneL,
                &mut ctx,
            )
            .unwrap();
        assert_eq!(parsed.severity, Severity::None);
        assert_eq!(parsed.body, "data TLB error");
    }

    #[test]
    fn bgl_rejects_bad_timestamp() {
        let f = BglFormat;
        let mut ctx = ParseContext::new(2005);
        assert!(matches!(
            f.parse(
                "garbage R00 RAS KERNEL INFO x",
                SystemId::BlueGeneL,
                &mut ctx
            ),
            Err(ParseError::BadTimestamp { .. })
        ));
        assert!(matches!(
            f.parse(
                "2005-13-03-15.42.50.000000 R00 RAS KERNEL INFO x",
                SystemId::BlueGeneL,
                &mut ctx
            ),
            Err(ParseError::BadTimestamp { .. })
        ));
    }

    #[test]
    fn event_round_trip() {
        let f = EventFormat;
        let interner = interner_with("c3-0c1s4n2");
        let m = msg(
            SystemId::RedStorm,
            Timestamp::from_secs(1_142_800_000),
            Severity::None,
            "ec_heartbeat_stop",
            "src:::c3-0c1s4n2 svc:::c3-0c1s4n2 warn node heartbeat_fault",
        );
        let line = f.render(&m, &interner);
        assert!(line.starts_with("EV 1142800000 c3-0c1s4n2 ec_heartbeat_stop "));
        let mut ctx = ParseContext::new(2006);
        let parsed = f.parse(&line, SystemId::RedStorm, &mut ctx).unwrap();
        assert_eq!(parsed.time, m.time);
        assert_eq!(parsed.facility, "ec_heartbeat_stop");
        assert_eq!(parsed.body, m.body);
    }

    #[test]
    fn event_rejects_bad_epoch() {
        let f = EventFormat;
        let mut ctx = ParseContext::new(2006);
        assert!(matches!(
            f.parse("EV notanumber c0 ev body", SystemId::RedStorm, &mut ctx),
            Err(ParseError::BadTimestamp { .. })
        ));
    }

    #[test]
    fn truncated_body_still_parses() {
        // The paper's corrupted VAPI examples: truncated bodies.
        let f = SyslogFormat::plain();
        let mut ctx = ParseContext::new(2005);
        let parsed = f
            .parse(
                "Nov  9 12:01:01 tbird-admin1 kernel: VIPKL(1): [create_mr] MM_bld_hh_mr failed (-253:VAPI_EAGAI",
                SystemId::Thunderbird,
                &mut ctx,
            )
            .unwrap();
        assert!(parsed.body.ends_with("VAPI_EAGAI"));
    }
}

/// Red Storm's mixed log: RAS-network event lines (`EV …`) interleaved
/// with severity-carrying syslog lines, mirroring the paper's "several
/// logging paths".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RedStormFormat;

impl LineFormat for RedStormFormat {
    fn render_into(&self, msg: &Message, interner: &SourceInterner, out: &mut String) {
        if msg.facility.starts_with("ec_") {
            EventFormat.render_into(msg, interner, out)
        } else {
            SyslogFormat::with_severity().render_into(msg, interner, out)
        }
    }

    fn parse_header(
        &self,
        line: &str,
        ctx: &mut ParseContext,
    ) -> Result<(Timestamp, NodeId), ParseError> {
        if line.starts_with("EV ") {
            EventFormat.parse_header(line, ctx)
        } else {
            SyslogFormat::with_severity().parse_header(line, ctx)
        }
    }

    fn parse(
        &self,
        line: &str,
        system: SystemId,
        ctx: &mut ParseContext,
    ) -> Result<Message, ParseError> {
        if line.starts_with("EV ") {
            EventFormat.parse(line, system, ctx)
        } else {
            SyslogFormat::with_severity().parse(line, system, ctx)
        }
    }
}

#[cfg(test)]
mod redstorm_tests {
    use super::*;
    use sclog_types::NodeId;

    #[test]
    fn mixed_format_dispatches_both_paths() {
        let f = RedStormFormat;
        let mut interner = SourceInterner::new();
        interner.intern("c3-0c1s4n2");
        let ev = Message {
            system: SystemId::RedStorm,
            time: Timestamp::from_secs(1_142_800_000),
            source: NodeId::from_index(0),
            facility: "ec_heartbeat_stop".into(),
            severity: Severity::None,
            body: "src:::c3-0c1s4n2 warn node heartbeat_fault".into(),
        };
        let sys = Message {
            system: SystemId::RedStorm,
            time: Timestamp::from_secs(1_142_800_000),
            source: NodeId::from_index(0),
            facility: "kernel".into(),
            severity: Severity::Syslog(SyslogSeverity::Error),
            body: "LustreError: timeout".into(),
        };
        let ev_line = f.render(&ev, &interner);
        let sys_line = f.render(&sys, &interner);
        assert!(ev_line.starts_with("EV "));
        assert!(!sys_line.starts_with("EV "));
        let mut ctx = ParseContext::new(2006);
        let p1 = f.parse(&ev_line, SystemId::RedStorm, &mut ctx).unwrap();
        let p2 = f.parse(&sys_line, SystemId::RedStorm, &mut ctx).unwrap();
        assert_eq!(p1.facility, "ec_heartbeat_stop");
        assert_eq!(p1.time, ev.time);
        assert_eq!(p2.severity, Severity::Syslog(SyslogSeverity::Error));
    }
}
