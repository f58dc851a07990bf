//! Property tests: the header-only parse (`LineFormat::parse_header`,
//! `LogReader::push_header`) agrees with the full parse on hostile
//! input — every prefix truncation, garbled month/day/time/BG/L/epoch
//! tokens, impossible dates, blank and whitespace-only lines, CRLF
//! endings, non-ASCII text and the Red Storm `EV ` dispatch.
//!
//! Agreement means: the same `Ok`/`Err` (error value included), the
//! same `(time, source)`, the same `ParseStats`, the same interner
//! size and the same year-recovery state after every line of a
//! sequence. Set `SCLOG_PROP_CASES` / `SCLOG_PROP_SEED` to rescale or
//! replay.

use sclog_parse::{
    format_for, BglFormat, EventFormat, LineFormat, LogReader, ParseContext, ParseError,
    SyslogFormat,
};
use sclog_testkit::{check, Gen};
use sclog_types::{SystemId, ALL_SYSTEMS};

const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Tokens a damaged log puts where a header field belongs.
const GARBAGE: [&str; 24] = [
    "",
    "0",
    "00",
    "-1",
    "+5",
    "32",
    "30",
    "29",
    "99",
    "Foo",
    "jan",
    "JAN",
    "Jan2",
    "24:00:00",
    "12:60:00",
    "12:00:61",
    "12:00",
    "12:00:00:00",
    "1a:00:00",
    "::",
    "99999999999999999999",
    "9223372036854775807",
    "1e9",
    "é",
];

/// A well-formed line in one of `system`'s native forms, with fields
/// drawn so that some dates are impossible (Feb 30, Apr 31).
fn valid_line(g: &mut Gen, system: SystemId) -> String {
    let host = format!("n{}", g.below(6));
    let body = g.ascii_printable(0..=30);
    match system {
        SystemId::BlueGeneL => format!(
            "{:04}-{:02}-{:02}-{:02}.{:02}.{:02}.{:06} R{host} RAS KERNEL {} {body}",
            g.int_in(2004..=2006),
            g.int_in(1..=12),
            g.int_in(1..=31),
            g.int_in(0..=23),
            g.int_in(0..=59),
            g.int_in(0..=59),
            g.int_in(0..=999_999),
            g.pick(&["INFO", "FATAL", "INF%%", "-"]),
        ),
        SystemId::RedStorm if g.chance(0.5) => format!(
            "EV {} c{host} ec_{} {body}",
            g.int_in(1_100_000_000..=1_200_000_000),
            g.pick(&["heartbeat_stop", "console_log", "x"]),
        ),
        _ => {
            let sev = if system == SystemId::RedStorm {
                format!(" {}", g.pick(&["CRIT", "ERR", "CRXT", "-"]))
            } else {
                String::new()
            };
            format!(
                "{} {:>2} {:02}:{:02}:{:02} {host}{sev} {}: {body}",
                g.pick(&MONTHS),
                g.int_in(1..=31),
                g.int_in(0..=23),
                g.int_in(0..=59),
                g.int_in(0..=59),
                g.pick(&["kernel", "pbs_mom", "sshd[42]"]),
            )
        }
    }
}

/// Damages a line: one token garbled, a numeric field overflowed,
/// whitespace varied, non-ASCII or CR inserted, or the `EV ` marker
/// bent.
fn damage(g: &mut Gen, line: &str) -> String {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    match g.below(8) {
        0 if !tokens.is_empty() => {
            let at = g.usize_in(0..=tokens.len().min(5) - 1);
            let mut out: Vec<String> = tokens.iter().map(|t| (*t).to_owned()).collect();
            out[at] = (*g.pick(&GARBAGE)).to_owned();
            out.join(" ")
        }
        1 if !tokens.is_empty() => {
            // Overflow or extend a numeric field in place.
            let at = g.usize_in(0..=tokens.len().min(4) - 1);
            let mut out: Vec<String> = tokens.iter().map(|t| (*t).to_owned()).collect();
            out[at] = format!("{}{}", out[at], g.pick(&["0", "99999", "9999999999999"]));
            out.join(" ")
        }
        2 => tokens.join(*g.pick(&["\t", "  ", " \t ", "\u{3000}", "\u{a0}"])),
        3 => format!("{line}\r"),
        4 => {
            let cut = g.usize_in(0..=line.len());
            let cut = (0..=cut).rev().find(|&i| line.is_char_boundary(i)).unwrap();
            format!(
                "{}{}{}",
                &line[..cut],
                g.pick(&["é", "ü", "\u{3000}", "日本"]),
                &line[cut..]
            )
        }
        5 => (*g.pick(&["", " ", "\t\t", " \r", "\u{3000}", "\r"])).to_owned(),
        6 => {
            let bent = *g.pick(&["EV\t", "EVX ", "ev ", " EV ", "EV  "]);
            match line.strip_prefix("EV ") {
                Some(rest) => format!("{bent}{rest}"),
                None => format!("{bent}{line}"),
            }
        }
        _ => line.to_owned(),
    }
}

fn hostile_line(g: &mut Gen, system: SystemId) -> String {
    let mut line = valid_line(g, system);
    for _ in 0..g.usize_in(0..=2) {
        line = damage(g, &line);
    }
    line
}

/// Feeds `lines` to a full-parse reader and a header-only reader in
/// lockstep, checking the format-level results (errors compared by
/// value) and the readers' accounting after every line.
fn assert_agree(system: SystemId, lines: &[String]) {
    let format = format_for(system);
    let start_year = system.spec().start_date.0;
    let (mut full_ctx, mut header_ctx) =
        (ParseContext::new(start_year), ParseContext::new(start_year));
    let mut full = LogReader::for_system(system);
    let mut header = LogReader::for_system(system);
    for line in lines {
        let tag = format!("{system:?} {line:?}");
        let want = format
            .parse(line, system, &mut full_ctx)
            .map(|m| (m.time, m.source));
        let got = format.parse_header(line, &mut header_ctx);
        assert_eq!(got, want, "{tag}");
        assert_eq!(header_ctx.year(), full_ctx.year(), "{tag}: year state");
        assert_eq!(header_ctx.interner.len(), full_ctx.interner.len(), "{tag}");

        let want = full.push_line(line).map(|i| {
            let m = &full.messages()[i];
            (m.time, m.source)
        });
        assert_eq!(header.push_header(line), want, "{tag}");
        assert_eq!(header.stats(), full.stats(), "{tag}");
        assert_eq!(header.context().year(), full.context().year(), "{tag}");
        assert_eq!(
            header.context().interner.len(),
            full.context().interner.len(),
            "{tag}"
        );
    }
    assert!(header.messages().is_empty(), "push_header stores nothing");
}

#[test]
fn header_parse_agrees_with_full_parse_on_hostile_sequences() {
    check("header parse agrees on hostile sequences", |g| {
        for system in ALL_SYSTEMS {
            let n = g.usize_in(1..=40);
            let lines: Vec<String> = (0..n).map(|_| hostile_line(g, system)).collect();
            assert_agree(system, &lines);
        }
    });
}

#[test]
fn header_parse_agrees_on_every_prefix() {
    check("header parse agrees on every prefix", |g| {
        for system in ALL_SYSTEMS {
            let line = valid_line(g, system);
            let prefixes: Vec<String> = (0..=line.len())
                .filter(|&i| line.is_char_boundary(i))
                .map(|i| line[..i].to_owned())
                .collect();
            assert_agree(system, &prefixes);
        }
    });
}

/// An independent oracle for the field-count rule: a non-blank line
/// with fewer tokens than the format's header is `TooShort`, counted
/// by plain whitespace splitting — so a header step that starts
/// accepting short lines fails here even though `parse`, which is
/// built on it, would agree with it.
#[test]
fn short_lines_are_too_short() {
    // (format, full line, fields the format needs, header tokens).
    // Red Storm's syslog path names 5 fields but reads the severity
    // as optional, so its header step needs only 4 tokens.
    let cases: [(Box<dyn LineFormat>, &str, usize, usize); 4] = [
        (
            Box::new(SyslogFormat::plain()),
            "Jan  2 03:04:05 ln1 kernel: x",
            4,
            4,
        ),
        (
            Box::new(SyslogFormat::with_severity()),
            "Mar 19 10:00:00 nid1 CRIT kernel: z",
            5,
            4,
        ),
        (
            Box::new(EventFormat),
            "EV 1142800000 c3-0c1s4n2 ec_heartbeat_stop b",
            4,
            4,
        ),
        (
            Box::new(BglFormat),
            "2005-06-03-15.42.50.363779 R02 RAS KERNEL INFO w",
            5,
            5,
        ),
    ];
    for (format, line, needed, header_tokens) in cases {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        for found in 1..header_tokens {
            let short = tokens[..found].join(" ");
            let mut ctx = ParseContext::new(2005);
            assert_eq!(
                format.parse_header(&short, &mut ctx),
                Err(ParseError::TooShort { found, needed }),
                "{short:?}"
            );
            assert_eq!(ctx.interner.len(), 0, "a rejected line interns nothing");
        }
        let mut ctx = ParseContext::new(2005);
        assert!(format.parse_header(line, &mut ctx).is_ok(), "{line:?}");
    }
}

#[test]
fn year_rollover_survives_rejected_lines() {
    // A line whose month parses but whose day is impossible still
    // advances year recovery (the month is resolved before the date
    // is range-checked); both paths must carry that over.
    let lines: Vec<String> = [
        "Dec 30 23:59:59 ln1 kernel: a",
        "Feb 30 00:00:00 ln1 kernel: impossible date, month seen",
        "Dec 31 00:00:01 ln1 kernel: c",
        "Jan  1 00:00:02 ln1 kernel: b",
        "Jan",
        "   ",
        "Jan  1 00:00:03 ln1\r",
    ]
    .iter()
    .map(|l| (*l).to_owned())
    .collect();
    assert_agree(SystemId::Liberty, &lines);
    let mut reader = LogReader::for_system(SystemId::Liberty);
    for line in &lines {
        reader.push_header(line);
    }
    assert_eq!(
        reader.context().year(),
        2006,
        "two rollovers: Dec→Feb, Dec→Jan"
    );
    assert_eq!(reader.stats().parsed, 4);
    assert_eq!(reader.stats().bad_timestamp, 1);
    assert_eq!(reader.stats().too_short, 1);
    assert_eq!(reader.stats().empty, 1);
}

#[test]
fn out_of_range_epochs_and_years_are_bad_timestamps() {
    let mut ctx = ParseContext::new(2006);
    for line in [
        "EV 99999999999999999 c0 ec_x body",
        "EV -9223372036854775808 c0 ec_x body",
    ] {
        assert!(
            matches!(
                format_for(SystemId::RedStorm).parse_header(line, &mut ctx),
                Err(ParseError::BadTimestamp { .. })
            ),
            "{line}"
        );
    }
    let bgl = "300000-06-03-15.42.50.363779 R02 RAS KERNEL INFO x";
    assert!(matches!(
        format_for(SystemId::BlueGeneL).parse_header(bgl, &mut ctx),
        Err(ParseError::BadTimestamp { .. })
    ));
}
