//! Streaming log reading with parse statistics.

use crate::error::ParseError;
use crate::format::{LineFormat, ParseContext};
use sclog_types::{Message, NodeId, SystemId, Timestamp};

/// Counters describing how a log parsed.
///
/// The paper notes that even highly engineered RAS systems produce
/// corrupted entries; these statistics quantify how much of a log was
/// recoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParseStats {
    /// Lines successfully parsed into messages.
    pub parsed: u64,
    /// Empty lines skipped.
    pub empty: u64,
    /// Lines rejected for an unrecoverable timestamp.
    pub bad_timestamp: u64,
    /// Lines rejected as truncated beyond recovery.
    pub too_short: u64,
}

impl ParseStats {
    /// Total lines seen.
    pub fn total(&self) -> u64 {
        self.parsed + self.empty + self.bad_timestamp + self.too_short
    }

    /// Lines rejected for any reason other than being empty.
    pub fn rejected(&self) -> u64 {
        self.bad_timestamp + self.too_short
    }

    /// Counts one line's outcome, passing an accepted line's value on.
    fn record<T>(&mut self, outcome: Result<T, ParseError>) -> Option<T> {
        match &outcome {
            Ok(_) => self.parsed += 1,
            Err(ParseError::EmptyLine) => self.empty += 1,
            Err(ParseError::BadTimestamp { .. }) => self.bad_timestamp += 1,
            Err(ParseError::TooShort { .. }) => self.too_short += 1,
        }
        outcome.ok()
    }
}

/// Parses a stream of log lines in one system's format, accumulating
/// messages and [`ParseStats`].
///
/// # Examples
///
/// ```
/// use sclog_parse::{LogReader, SyslogFormat};
/// use sclog_types::SystemId;
///
/// let mut reader = LogReader::new(SystemId::Liberty, Box::new(SyslogFormat::plain()), 2004);
/// reader.push_line("Dec 12 00:00:01 ln1 kernel: hello");
/// reader.push_line("");
/// reader.push_line("corrupted beyond recovery");
/// assert_eq!(reader.stats().parsed, 1);
/// assert_eq!(reader.stats().empty, 1);
/// assert_eq!(reader.stats().rejected(), 1);
/// ```
pub struct LogReader {
    system: SystemId,
    format: Box<dyn LineFormat>,
    ctx: ParseContext,
    messages: Vec<Message>,
    stats: ParseStats,
}

impl std::fmt::Debug for LogReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogReader")
            .field("system", &self.system)
            .field("messages", &self.messages.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl LogReader {
    /// Creates a reader for one system.
    ///
    /// `start_year` seeds year recovery for formats without a year
    /// field; pass the year of the first log line (Table 2's start
    /// dates).
    pub fn new(system: SystemId, format: Box<dyn LineFormat>, start_year: i32) -> Self {
        LogReader {
            system,
            format,
            ctx: ParseContext::new(start_year),
            messages: Vec::new(),
            stats: ParseStats::default(),
        }
    }

    /// Creates a reader using the system's native format
    /// ([`crate::format_for`]) and Table 2 start year.
    pub fn for_system(system: SystemId) -> Self {
        let start_year = system.spec().start_date.0;
        LogReader::new(system, crate::format_for(system), start_year)
    }

    /// Parses one line, storing the message on success.
    ///
    /// Returns the index of the stored message, or `None` if the line
    /// was rejected (the rejection is counted in [`Self::stats`]).
    pub fn push_line(&mut self, line: &str) -> Option<usize> {
        let msg = self.format.parse(line, self.system, &mut self.ctx);
        let msg = self.stats.record(msg)?;
        self.messages.push(msg);
        Some(self.messages.len() - 1)
    }

    /// Parses only one line's header ([`LineFormat::parse_header`]):
    /// the same acceptance, [`ParseStats`] accounting, year recovery
    /// and interning as [`Self::push_line`], but nothing is stored and
    /// nothing is allocated for an accepted line. The streaming ingest
    /// path calls this: it tags the raw line and needs only the
    /// line's `(time, source)`.
    ///
    /// Returns `None` if the line was rejected.
    pub fn push_header(&mut self, line: &str) -> Option<(Timestamp, NodeId)> {
        let header = self.format.parse_header(line, &mut self.ctx);
        self.stats.record(header)
    }

    /// Parses every line from an iterator.
    pub fn push_lines<'a>(&mut self, lines: impl IntoIterator<Item = &'a str>) {
        for line in lines {
            self.push_line(line);
        }
    }

    /// Parses all lines of a text blob.
    ///
    /// Line splitting matches [`crate::logical_lines`]: `\n`-separated
    /// with one trailing `\r` stripped per line, *including* a final
    /// line that lacks its terminating newline. (`str::lines` would
    /// leave the stray `\r` on such a line, so a CRLF log whose last
    /// line was cut mid-ending used to render a message body ending in
    /// a carriage return — and to disagree with the chunked streaming
    /// path, which always stripped it.)
    pub fn push_text(&mut self, text: &str) {
        self.push_lines(crate::logical_lines(text));
    }

    /// Parses an entire byte stream incrementally, reading it in
    /// bounded whole-line chunks (see [`crate::LineChunker`]) instead
    /// of materializing the text first. Line accounting matches
    /// [`Self::push_text`] on the same bytes exactly.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from the underlying reader; lines
    /// parsed before the error are kept.
    pub fn push_reader(&mut self, reader: impl std::io::Read) -> std::io::Result<()> {
        for chunk in crate::LineChunker::new(reader) {
            self.push_text(&chunk?);
        }
        Ok(())
    }

    /// The messages parsed so far.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// Parse statistics so far.
    pub fn stats(&self) -> &ParseStats {
        &self.stats
    }

    /// Consumes the reader, returning messages, the parse context (with
    /// its interner), and statistics.
    pub fn into_parts(self) -> (Vec<Message>, ParseContext, ParseStats) {
        (self.messages, self.ctx, self.stats)
    }

    /// Access to the interner for resolving message sources.
    pub fn context(&self) -> &ParseContext {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{BglFormat, SyslogFormat};

    #[test]
    fn reader_accumulates_and_counts() {
        let mut r = LogReader::new(SystemId::Spirit, Box::new(SyslogFormat::plain()), 2005);
        r.push_text(
            "Jan  1 00:00:01 sn373 kernel: cciss: cmd has CHECK CONDITION\n\
             \n\
             Jan  1 00:00:02 sn373 kernel: cciss: cmd has CHECK CONDITION\n\
             ???\n",
        );
        assert_eq!(r.stats().parsed, 2);
        assert_eq!(r.stats().empty, 1);
        assert_eq!(r.stats().rejected(), 1);
        assert_eq!(r.stats().total(), 4);
        assert_eq!(r.messages().len(), 2);
        let (msgs, ctx, stats) = r.into_parts();
        assert_eq!(msgs.len(), 2);
        assert_eq!(ctx.interner.len(), 1);
        assert_eq!(stats.parsed, 2);
    }

    #[test]
    fn for_system_uses_native_format() {
        let mut r = LogReader::for_system(SystemId::BlueGeneL);
        assert!(r
            .push_line("2005-06-03-15.42.50.363779 R02 RAS KERNEL INFO cache parity error")
            .is_some());
        assert!(r.push_line("Jun  3 15:42:50 R02 kernel: x").is_none());

        let mut r = LogReader::for_system(SystemId::Liberty);
        assert!(r.push_line("Dec 12 00:00:01 ln1 kernel: x").is_some());
    }

    #[test]
    fn bgl_reader_keeps_micro_order() {
        let mut r = LogReader::new(SystemId::BlueGeneL, Box::new(BglFormat), 2005);
        r.push_line("2005-06-03-15.42.50.000002 R00 RAS KERNEL INFO a");
        r.push_line("2005-06-03-15.42.50.000001 R01 RAS KERNEL INFO b");
        assert_eq!(r.messages()[0].time.subsec_micros(), 2);
        assert_eq!(r.messages()[1].time.subsec_micros(), 1);
    }

    #[test]
    fn debug_is_nonempty() {
        let r = LogReader::for_system(SystemId::Liberty);
        assert!(format!("{r:?}").contains("Liberty"));
    }

    #[test]
    fn push_reader_matches_push_text() {
        let text = "Jan  1 00:00:01 sn373 kernel: cciss: cmd has CHECK CONDITION\n\
                    \n\
                    ???\n\
                    Jan  1 00:00:02 sn374 kernel: ok\n";
        let mut batch = LogReader::new(SystemId::Spirit, Box::new(SyslogFormat::plain()), 2005);
        batch.push_text(text);
        let mut stream = LogReader::new(SystemId::Spirit, Box::new(SyslogFormat::plain()), 2005);
        stream.push_reader(text.as_bytes()).unwrap();
        assert_eq!(stream.messages(), batch.messages());
        assert_eq!(stream.stats(), batch.stats());
    }

    #[test]
    fn push_reader_matches_push_text_on_trailing_edge_cases() {
        // ISSUE-6 regression matrix: a final line without `\n`, CRLF
        // endings (including a final line cut after its `\r`), and
        // inputs ending exactly on a chunk boundary must parse
        // identically chunked and whole, at every chunk target.
        let texts = [
            "Jan  1 00:00:01 sn373 kernel: no final newline",
            "Jan  1 00:00:01 sn373 kernel: a\r\nJan  1 00:00:02 sn374 kernel: b\r\n",
            "Jan  1 00:00:01 sn373 kernel: a\r\nJan  1 00:00:02 sn374 kernel: cut\r",
            "Jan  1 00:00:01 sn373 kernel: boundary\n",
            "\r\n\r\nJan  1 00:00:03 sn375 kernel: after blanks\r",
        ];
        for text in texts {
            let mut whole = LogReader::new(SystemId::Spirit, Box::new(SyslogFormat::plain()), 2005);
            whole.push_text(text);
            for target in [1, 4, text.len().max(1), 64 * 1024] {
                let mut chunked =
                    LogReader::new(SystemId::Spirit, Box::new(SyslogFormat::plain()), 2005);
                for chunk in crate::LineChunker::with_target(text.as_bytes(), target) {
                    chunked.push_text(&chunk.unwrap());
                }
                assert_eq!(chunked.messages(), whole.messages(), "{text:?} t={target}");
                assert_eq!(chunked.stats(), whole.stats(), "{text:?} t={target}");
            }
            for msg in whole.messages() {
                assert!(
                    !msg.body.contains('\r') && !msg.facility.contains('\r'),
                    "stray carriage return rendered into {msg:?}"
                );
            }
        }
    }

    #[test]
    fn push_reader_surfaces_io_errors() {
        struct Failing;
        impl std::io::Read for Failing {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("gone"))
            }
        }
        let mut r = LogReader::for_system(SystemId::Liberty);
        assert!(r.push_reader(Failing).is_err());
    }

    #[test]
    fn push_header_counts_like_push_line_and_stores_nothing() {
        let lines = [
            "Dec 12 00:00:01 ln1 kernel: a",
            "",
            "Dec 12",
            "Foo 12 00:00:01 ln1 kernel: b",
            "Jan  2 00:00:02 ln2 kernel: c",
        ];
        let mut full = LogReader::for_system(SystemId::Liberty);
        let mut header = LogReader::for_system(SystemId::Liberty);
        for line in lines {
            let msg = full.push_line(line).map(|i| {
                let m = &full.messages()[i];
                (m.time, m.source)
            });
            assert_eq!(header.push_header(line), msg, "{line:?}");
        }
        assert!(header.messages().is_empty());
        assert_eq!(header.stats(), full.stats());
        assert_eq!(header.context().year(), 2005, "rollover seen by both");
        assert_eq!(header.context().year(), full.context().year());
        assert_eq!(header.context().interner.len(), 2);
    }
}
