//! A deliberately small HTTP/1.1 server-side layer.
//!
//! `sclogd` serves a handful of GET endpoints to trusted tooling; it
//! does not need (and must not grow) a general web stack. What it
//! does need is to be unkillable by malformed input: every request is
//! read through hard caps — request-line length, header count, total
//! header bytes — and every way a request can be wrong maps to a 4xx
//! classification instead of a panic or an unbounded read. Responses
//! always carry `Content-Length` and `Connection: close`; one
//! request per connection keeps the state machine trivial.

use std::io::{self, BufRead, Read, Write};

/// Cap on the request line (method + target + version + CRLF).
pub const MAX_REQUEST_LINE: usize = 8192;
/// Cap on the number of header lines.
pub const MAX_HEADERS: usize = 64;
/// Cap on any single header line.
pub const MAX_HEADER_BYTES: usize = 8192;

/// A successfully parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, as sent (`GET`, `HEAD`, …).
    pub method: String,
    /// Decoded-enough path: the part of the target before `?`.
    pub path: String,
    /// The raw query string after `?` (empty when absent).
    pub query: String,
}

/// Everything that can go wrong reading a request head.
#[derive(Debug)]
pub enum RequestError {
    /// Request line exceeded [`MAX_REQUEST_LINE`] → 414.
    LineTooLong,
    /// Too many headers or an oversized header line → 431.
    HeadersTooLarge,
    /// Syntactically wrong request → 400, with a reason.
    Malformed(String),
    /// The socket failed or closed mid-request → no response owed.
    Io(io::Error),
}

impl RequestError {
    /// The response this error earns, or `None` when the connection
    /// is already dead and writing would be pointless.
    pub fn response(&self) -> Option<Response> {
        match self {
            RequestError::LineTooLong => Some(Response::text(414, "request line too long")),
            RequestError::HeadersTooLarge => Some(Response::text(431, "request headers too large")),
            RequestError::Malformed(why) => Some(Response::text(400, why)),
            RequestError::Io(_) => None,
        }
    }
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

fn malformed(why: impl Into<String>) -> RequestError {
    RequestError::Malformed(why.into())
}

/// Reads one line (terminated by `\n`, `\r\n` stripped) with a hard
/// byte cap. Returns `Ok(None)` on clean EOF before any byte.
fn read_line_capped(
    reader: &mut impl BufRead,
    cap: usize,
    over_cap: fn() -> RequestError,
) -> Result<Option<Vec<u8>>, RequestError> {
    let mut line = Vec::new();
    let mut limited = reader.take(cap as u64 + 1);
    limited.read_until(b'\n', &mut line)?;
    if line.is_empty() {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        return Err(if line.len() > cap {
            over_cap()
        } else {
            // EOF mid-line: the peer hung up, nothing to answer.
            RequestError::Io(io::ErrorKind::UnexpectedEof.into())
        });
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Reads and validates one request head from `reader`.
///
/// Headers are parsed for well-formedness and then discarded — no
/// endpoint takes a request body, and a nonzero `Content-Length` or
/// any `Transfer-Encoding` is rejected outright rather than leaving
/// unread bytes to be misread as a second request.
///
/// # Errors
///
/// See [`RequestError`]; every non-I/O variant maps to a 4xx.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, RequestError> {
    let line = read_line_capped(reader, MAX_REQUEST_LINE, || RequestError::LineTooLong)?
        .ok_or_else(|| RequestError::Io(io::ErrorKind::UnexpectedEof.into()))?;
    let line = String::from_utf8(line).map_err(|_| malformed("request line is not UTF-8"))?;

    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(malformed(
                "request line must be METHOD SP TARGET SP VERSION",
            ))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(malformed("method must be an uppercase token"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(malformed("only HTTP/1.0 and HTTP/1.1 are spoken here"));
    }
    if !target.starts_with('/') {
        return Err(malformed("target must be an absolute path"));
    }
    if target.bytes().any(|b| b.is_ascii_control()) {
        return Err(malformed("target contains control bytes"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut headers = 0usize;
    loop {
        let line = read_line_capped(reader, MAX_HEADER_BYTES, || RequestError::HeadersTooLarge)?
            .ok_or_else(|| RequestError::Io(io::ErrorKind::UnexpectedEof.into()))?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(RequestError::HeadersTooLarge);
        }
        let line = String::from_utf8(line).map_err(|_| malformed("header is not UTF-8"))?;
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("header without a colon"))?;
        if name.is_empty()
            || name
                .bytes()
                .any(|b| b.is_ascii_whitespace() || b.is_ascii_control())
        {
            return Err(malformed("invalid header name"));
        }
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") && value != "0" {
            return Err(malformed("request bodies are not accepted"));
        }
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(malformed("request bodies are not accepted"));
        }
    }
    Ok(Request {
        method: method.to_owned(),
        path,
        query,
    })
}

/// A response ready to be written: status, body, optional
/// `Retry-After` (the admission-control signal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (JSON or plain text per `content_type`).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Seconds for a `Retry-After` header, set on 503.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            body,
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// A plain-text response; a newline is appended for terminals.
    pub fn text(status: u16, msg: &str) -> Self {
        Response {
            status,
            body: format!("{msg}\n"),
            content_type: "text/plain; charset=utf-8",
            retry_after: None,
        }
    }

    /// The 503 sent when the accept queue is full.
    pub fn overloaded(retry_after_secs: u32) -> Self {
        let mut r = Response::text(503, "server saturated, retry later");
        r.retry_after = Some(retry_after_secs);
        r
    }

    /// Serializes head and body to the wire with one `write_all`: the
    /// stream is an unbuffered socket, where each `write` is a `send`.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors; callers treat them as the peer
    /// having gone away.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        // The head is under 160 bytes for every status and type sent.
        let mut wire = Vec::with_capacity(160 + self.body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        if let Some(secs) = self.retry_after {
            write!(wire, "Retry-After: {secs}\r\n")?;
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(self.body.as_bytes());
        w.write_all(&wire)?;
        w.flush()
    }
}

/// The reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_a_plain_get() {
        let req = parse(b"GET /alerts?host=sn* HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/alerts");
        assert_eq!(req.query, "host=sn*");
        let req = parse(b"GET / HTTP/1.0\n\n").unwrap();
        assert_eq!(req.path, "/");
        assert_eq!(req.query, "");
    }

    #[test]
    fn classifies_malformed_requests_as_4xx() {
        let cases: &[&[u8]] = &[
            b"GET\r\n\r\n",
            b"GET /\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET relative HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET /\x01 HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon\r\n\r\n",
            b"GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad name: x\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
            b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ];
        for raw in cases {
            match parse(raw) {
                Err(e) => {
                    let resp = e.response().unwrap_or_else(|| {
                        panic!("{:?} must earn a response", String::from_utf8_lossy(raw))
                    });
                    assert_eq!(resp.status, 400, "{:?}", String::from_utf8_lossy(raw));
                }
                Ok(req) => panic!("{:?} parsed as {req:?}", String::from_utf8_lossy(raw)),
            }
        }
    }

    #[test]
    fn caps_yield_414_and_431() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        match parse(long_target.as_bytes()) {
            Err(RequestError::LineTooLong) => {}
            other => panic!("expected LineTooLong, got {other:?}"),
        }
        assert_eq!(RequestError::LineTooLong.response().unwrap().status, 414);

        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            many.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        match parse(&many) {
            Err(RequestError::HeadersTooLarge) => {}
            other => panic!("expected HeadersTooLarge, got {other:?}"),
        }

        let big_header = format!(
            "GET / HTTP/1.1\r\nx: {}\r\n\r\n",
            "v".repeat(MAX_HEADER_BYTES)
        );
        match parse(big_header.as_bytes()) {
            Err(RequestError::HeadersTooLarge) => {}
            other => panic!("expected HeadersTooLarge, got {other:?}"),
        }
        assert_eq!(
            RequestError::HeadersTooLarge.response().unwrap().status,
            431
        );
    }

    #[test]
    fn truncated_requests_are_io_not_panic() {
        for raw in [
            &b"GET / HTTP/1.1"[..],
            &b"GET / HTTP/1.1\r\nHost: x"[..],
            &b""[..],
        ] {
            match parse(raw) {
                Err(RequestError::Io(_)) => {}
                other => panic!("{:?} -> {other:?}", String::from_utf8_lossy(raw)),
            }
        }
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{}".into()).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        Response::overloaded(1).write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
    }

    /// A sink that records each `write` call separately, the way an
    /// unbuffered socket turns each into one `send`.
    #[derive(Default)]
    struct CountingSink {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_per_reply() {
        let body = format!("{{\"alerts\":[{}]}}", "1,".repeat(4_000) + "1");
        for (resp, head) in [
            (
                Response::json(200, body.clone()),
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n",
                    body.len()
                ),
            ),
            (
                Response::overloaded(1),
                "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain; \
                 charset=utf-8\r\nContent-Length: 30\r\nConnection: close\r\n\
                 Retry-After: 1\r\n\r\n"
                    .to_owned(),
            ),
        ] {
            let mut sink = CountingSink::default();
            resp.write_to(&mut sink).unwrap();
            assert_eq!(sink.writes.len(), 1, "head and body must go in one write");
            assert_eq!(sink.writes[0], format!("{head}{}", resp.body).into_bytes());
        }
    }
}
