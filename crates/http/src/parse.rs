//! Incremental HTTP/1.1 message parsing.
//!
//! Parsers take the bytes buffered so far and either produce a complete
//! message plus the number of bytes consumed, or report that more input is
//! needed. Callers loop `read -> parse` until complete — the usual shape for
//! a blocking reader with keep-alive connections.

use crate::message::{Headers, Method, Request, Response, Status};
use bytes::Bytes;

/// Parse failures that can never be fixed by more input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The start line was malformed.
    BadStartLine(String),
    /// An unsupported method token.
    BadMethod(String),
    /// A header line without a colon, or invalid UTF-8.
    BadHeader(String),
    /// Content-Length was present but not a number.
    BadContentLength(String),
    /// The header section exceeded its 64 KiB cap or the declared body
    /// exceeded [`MAX_BODY`].
    TooLarge,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadStartLine(l) => write!(f, "bad start line: {l:?}"),
            ParseError::BadMethod(m) => write!(f, "bad method: {m:?}"),
            ParseError::BadHeader(h) => write!(f, "bad header: {h:?}"),
            ParseError::BadContentLength(v) => write!(f, "bad content-length: {v:?}"),
            ParseError::TooLarge => write!(f, "message exceeds the size cap"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Result of attempting to parse a buffered prefix.
#[derive(Debug)]
pub enum ParseOutcome<T> {
    /// A full message and how many input bytes it consumed.
    Complete(T, usize),
    /// Valid so far, but incomplete.
    Incomplete,
}

/// Sanity cap on the header section; the agent protocol's headers are tiny.
const MAX_HEAD: usize = 64 * 1024;

/// Cap on a declared `Content-Length`. The largest body any route serves is
/// the worker's `GET /traces?last=N`, capped at the journal's 4096 traces —
/// about 2 MiB of `TraceRecord` JSON — so 16 MiB leaves ample headroom for
/// it, for flight-recorder dumps and for invocation arguments and results,
/// while a hostile length cannot grow a connection's buffer without bound.
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// Find `\r\n\r\n`, returning the offset just past it.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// The head of a message, borrowed from the receive buffer.
struct Head<'a> {
    start_line: &'a str,
    /// The header lines after the start line.
    lines: &'a str,
    /// Length of the head, blank line included.
    head_len: usize,
    /// Total message length: head plus declared body.
    total: usize,
}

/// `start..end` of a header name or value within the header lines.
type Span = (usize, usize);

/// Each non-empty header line of `lines` as `(name, value)` spans,
/// trimmed.
fn header_fields(lines: &str) -> impl Iterator<Item = Result<(Span, Span), ParseError>> + '_ {
    let span = move |part: &str| {
        let start = part.as_ptr() as usize - lines.as_ptr() as usize;
        (start, start + part.len())
    };
    lines
        .split("\r\n")
        .filter(|line| !line.is_empty())
        .map(move |line| {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| ParseError::BadHeader(line.to_string()))?;
            Ok((span(name.trim()), span(value.trim())))
        })
}

fn parse_head(buf: &[u8]) -> Result<Option<Head<'_>>, ParseError> {
    let head_end = match find_head_end(buf) {
        Some(e) => e,
        None => {
            if buf.len() > MAX_HEAD {
                return Err(ParseError::TooLarge);
            }
            return Ok(None);
        }
    };
    if head_end > MAX_HEAD {
        return Err(ParseError::TooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| ParseError::BadHeader("non-utf8 header section".into()))?;
    let (start_line, lines) = head.split_once("\r\n").unwrap_or((head, ""));
    let mut content_length = 0usize;
    for field in header_fields(lines) {
        let (name, value) = field?;
        if lines[name.0..name.1].eq_ignore_ascii_case("content-length") {
            let value = &lines[value.0..value.1];
            content_length = value
                .parse()
                .map_err(|_| ParseError::BadContentLength(value.to_string()))?;
        }
    }
    if content_length > MAX_BODY {
        return Err(ParseError::TooLarge);
    }
    let total = head_end
        .checked_add(content_length)
        .ok_or(ParseError::TooLarge)?;
    Ok(Some(Head {
        start_line,
        lines,
        head_len: head_end,
        total,
    }))
}

impl Head<'_> {
    /// The header section, copied once out of the receive buffer.
    fn headers(&self) -> Headers {
        let mut headers = Headers::received(self.lines);
        // Every line was validated by `parse_head`.
        for (name, value) in header_fields(self.lines).flatten() {
            headers.push_span(name, value);
        }
        headers
    }

    fn body(&self, buf: &[u8]) -> Bytes {
        Bytes::copy_from_slice(&buf[self.head_len..self.total])
    }

    fn bad_start(&self) -> ParseError {
        ParseError::BadStartLine(self.start_line.to_string())
    }
}

/// Parse the head, or report how far the buffer is from a full message.
fn complete_head(buf: &[u8]) -> Result<Option<Head<'_>>, ParseError> {
    Ok(parse_head(buf)?.filter(|head| buf.len() >= head.total))
}

/// Try to parse one request from `buf`.
pub fn parse_request(buf: &[u8]) -> Result<ParseOutcome<Request>, ParseError> {
    let head = match complete_head(buf)? {
        Some(h) => h,
        None => return Ok(ParseOutcome::Incomplete),
    };
    let mut parts = head.start_line.split_whitespace();
    let method_tok = parts.next().ok_or_else(|| head.bad_start())?;
    let method =
        Method::parse(method_tok).ok_or_else(|| ParseError::BadMethod(method_tok.to_string()))?;
    let path = parts.next().ok_or_else(|| head.bad_start())?.to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1") => {}
        _ => return Err(head.bad_start()),
    }
    Ok(ParseOutcome::Complete(
        Request {
            method,
            path,
            headers: head.headers(),
            body: head.body(buf),
        },
        head.total,
    ))
}

/// Try to parse one response from `buf`.
pub fn parse_response(buf: &[u8]) -> Result<ParseOutcome<Response>, ParseError> {
    let head = match complete_head(buf)? {
        Some(h) => h,
        None => return Ok(ParseOutcome::Incomplete),
    };
    let mut parts = head.start_line.split_whitespace();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1") => {}
        _ => return Err(head.bad_start()),
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| head.bad_start())?;
    Ok(ParseOutcome::Complete(
        Response {
            status: Status(code),
            headers: head.headers(),
            body: head.body(buf),
        },
        head.total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_get() {
        let wire = b"GET / HTTP/1.1\r\nHost: a\r\n\r\n";
        match parse_request(wire).unwrap() {
            ParseOutcome::Complete(req, used) => {
                assert_eq!(req.method, Method::Get);
                assert_eq!(req.path, "/");
                assert_eq!(req.header("host"), Some("a"));
                assert_eq!(used, wire.len());
                assert!(req.body.is_empty());
            }
            _ => panic!("should be complete"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let wire = b"POST /invoke HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        match parse_request(wire).unwrap() {
            ParseOutcome::Complete(req, used) => {
                assert_eq!(req.method, Method::Post);
                assert_eq!(&req.body[..], b"hello");
                assert_eq!(used, wire.len());
            }
            _ => panic!("should be complete"),
        }
    }

    #[test]
    fn incomplete_head_needs_more() {
        assert!(matches!(
            parse_request(b"POST /invoke HTT").unwrap(),
            ParseOutcome::Incomplete
        ));
    }

    #[test]
    fn incomplete_body_needs_more() {
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(
            parse_request(wire).unwrap(),
            ParseOutcome::Incomplete
        ));
    }

    #[test]
    fn pipelined_messages_report_consumed() {
        let one = b"GET /a HTTP/1.1\r\n\r\n";
        let mut wire = one.to_vec();
        wire.extend_from_slice(b"GET /b HTTP/1.1\r\n\r\n");
        match parse_request(&wire).unwrap() {
            ParseOutcome::Complete(req, used) => {
                assert_eq!(req.path, "/a");
                assert_eq!(used, one.len());
                match parse_request(&wire[used..]).unwrap() {
                    ParseOutcome::Complete(req2, _) => assert_eq!(req2.path, "/b"),
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_bad_method() {
        let wire = b"BREW / HTTP/1.1\r\n\r\n";
        assert!(matches!(parse_request(wire), Err(ParseError::BadMethod(_))));
    }

    #[test]
    fn rejects_bad_content_length() {
        let wire = b"GET / HTTP/1.1\r\nContent-Length: xyz\r\n\r\n";
        assert!(matches!(
            parse_request(wire),
            Err(ParseError::BadContentLength(_))
        ));
    }

    #[test]
    fn rejects_missing_version() {
        let wire = b"GET /\r\n\r\n";
        assert!(matches!(
            parse_request(wire),
            Err(ParseError::BadStartLine(_))
        ));
    }

    #[test]
    fn rejects_header_without_colon() {
        let wire = b"GET / HTTP/1.1\r\nbadheader\r\n\r\n";
        assert!(matches!(parse_request(wire), Err(ParseError::BadHeader(_))));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok(&b"{\"ok\":true}"[..]).with_header("X-Duration-Ms", "3");
        let wire = resp.encode();
        match parse_response(&wire).unwrap() {
            ParseOutcome::Complete(r, used) => {
                assert_eq!(r.status, Status::OK);
                assert_eq!(r.header("x-duration-ms"), Some("3"));
                assert_eq!(r.body_str(), "{\"ok\":true}");
                assert_eq!(used, wire.len());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn request_roundtrip() {
        let req = Request::new(Method::Post, "/invoke")
            .with_header("Host", "x")
            .with_body(&b"payload"[..]);
        let wire = req.encode();
        match parse_request(&wire).unwrap() {
            ParseOutcome::Complete(r, used) => {
                assert_eq!(r.method, Method::Post);
                assert_eq!(r.path, "/invoke");
                assert_eq!(&r.body[..], b"payload");
                assert_eq!(used, wire.len());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn hostile_content_length_is_too_large() {
        // usize::MAX must not overflow `head_len + content_length`, and a
        // large valid length must not make the reader buffer without bound.
        for len in [usize::MAX, MAX_BODY + 1] {
            let req = format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\nx");
            assert!(matches!(
                parse_request(req.as_bytes()),
                Err(ParseError::TooLarge)
            ));
            let resp = format!("HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\n");
            assert!(matches!(
                parse_response(resp.as_bytes()),
                Err(ParseError::TooLarge)
            ));
        }
        let at_cap = format!("POST / HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\n");
        assert!(matches!(
            parse_request(at_cap.as_bytes()),
            Ok(ParseOutcome::Incomplete)
        ));
    }

    #[test]
    fn parsed_headers_keep_order_and_trim() {
        let wire = b"GET / HTTP/1.1\r\nA:  1 \r\nb: two\r\nA: 3\r\n\r\n";
        match parse_request(wire).unwrap() {
            ParseOutcome::Complete(req, _) => {
                let all: Vec<_> = req.headers.iter().collect();
                assert_eq!(all, [("A", "1"), ("b", "two"), ("A", "3")]);
                assert_eq!(req.header("a"), Some("1"), "first match wins");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn oversized_head_rejected() {
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        while wire.len() <= MAX_HEAD {
            wire.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        // No terminating blank line: parser must give up rather than wait.
        assert!(matches!(parse_request(&wire), Err(ParseError::TooLarge)));
    }
}
