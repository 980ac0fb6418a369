//! HTTP request/response value types and serialization.

use bytes::Bytes;
use std::borrow::Cow;
use std::fmt;

/// The request methods the agent protocol uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Post,
    Put,
    Delete,
    Head,
}

impl Method {
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            "HEAD" => Some(Method::Head),
            _ => None,
        }
    }
}

/// Response status codes used by the agent and worker APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    pub const OK: Status = Status(200);
    pub const BAD_REQUEST: Status = Status(400);
    pub const NOT_FOUND: Status = Status(404);
    pub const TOO_MANY_REQUESTS: Status = Status(429);
    pub const INTERNAL_ERROR: Status = Status(500);
    pub const SERVICE_UNAVAILABLE: Status = Status(503);

    pub fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// A header section: name/value pairs in arrival (or insertion) order.
///
/// A parsed section copies the received header lines once and keeps each
/// name and value as a span of that copy, so parsing costs no allocation per
/// header line. Headers set in code take `&'static str` names and values
/// without allocating, or owned `String`s where the text is computed.
#[derive(Clone, Default)]
pub struct Headers {
    /// The received header lines; empty for a message built in code.
    lines: String,
    fields: Vec<(Text, Text)>,
}

#[derive(Clone)]
enum Text {
    Set(Cow<'static, str>),
    /// `start..end` of [`Headers::lines`].
    Span(usize, usize),
}

impl Headers {
    /// An empty section over received header lines, for the parser to
    /// fill with [`Headers::push_span`].
    pub(crate) fn received(lines: &str) -> Self {
        Self {
            lines: lines.to_owned(),
            fields: Vec::with_capacity(8),
        }
    }

    /// A field whose name and value are `start..end` spans of the lines.
    pub(crate) fn push_span(&mut self, name: (usize, usize), value: (usize, usize)) {
        self.fields
            .push((Text::Span(name.0, name.1), Text::Span(value.0, value.1)));
    }

    pub fn push(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) {
        self.fields
            .push((Text::Set(name.into()), Text::Set(value.into())));
    }

    fn text<'a>(&'a self, t: &'a Text) -> &'a str {
        match t {
            Text::Set(s) => s,
            Text::Span(start, end) => &self.lines[*start..*end],
        }
    }

    /// `(name, value)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields
            .iter()
            .map(|(n, v)| (self.text(n), self.text(v)))
    }

    /// The first value under `name`, compared case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Header lines onto the wire, `Content-Length` (always recomputed)
    /// last.
    fn encode_into(&self, body_len: usize, out: &mut Vec<u8>) {
        for (k, v) in self.iter() {
            if k.eq_ignore_ascii_case("content-length") {
                continue;
            }
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"Content-Length: ");
        put_decimal(out, body_len);
        out.extend_from_slice(b"\r\n\r\n");
    }
}

impl fmt::Debug for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// `n` in decimal, without going through `format!`.
fn put_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// An HTTP/1.1 request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    pub path: String,
    pub headers: Headers,
    pub body: Bytes,
}

impl Request {
    pub fn new(method: Method, path: impl Into<String>) -> Self {
        Self {
            method,
            path: path.into(),
            headers: Headers::default(),
            body: Bytes::new(),
        }
    }

    pub fn with_body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into();
        self
    }

    pub fn with_header(
        mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) -> Self {
        self.headers.push(name, value);
        self
    }

    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }

    /// Append the wire form to `out`. `Content-Length` is always emitted.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(128 + self.body.len());
        out.extend_from_slice(self.method.as_str().as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.path.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        self.headers.encode_into(self.body.len(), out);
        out.extend_from_slice(&self.body);
    }

    /// Serialize onto the wire. `Content-Length` is always emitted.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out.into()
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: Status,
    pub headers: Headers,
    pub body: Bytes,
}

impl Response {
    pub fn new(status: Status) -> Self {
        Self {
            status,
            headers: Headers::default(),
            body: Bytes::new(),
        }
    }

    pub fn ok(body: impl Into<Bytes>) -> Self {
        Self::new(Status::OK).with_body(body)
    }

    pub fn with_body(mut self, body: impl Into<Bytes>) -> Self {
        self.body = body.into();
        self
    }

    pub fn with_header(
        mut self,
        name: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) -> Self {
        self.headers.push(name, value);
        self
    }

    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name)
    }

    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    /// Append the wire form to `out`. `Content-Length` is always emitted.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(128 + self.body.len());
        out.extend_from_slice(b"HTTP/1.1 ");
        put_decimal(out, self.status.0 as usize);
        out.push(b' ');
        out.extend_from_slice(self.status.reason().as_bytes());
        out.extend_from_slice(b"\r\n");
        self.headers.encode_into(self.body.len(), out);
        out.extend_from_slice(&self.body);
    }

    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_roundtrip() {
        for m in [
            Method::Get,
            Method::Post,
            Method::Put,
            Method::Delete,
            Method::Head,
        ] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("PATCH"), None);
    }

    #[test]
    fn status_reasons() {
        assert_eq!(Status::OK.reason(), "OK");
        assert!(Status::OK.is_success());
        assert!(!Status::INTERNAL_ERROR.is_success());
        assert_eq!(Status(599).reason(), "Unknown");
    }

    #[test]
    fn request_encode_includes_length() {
        let r = Request::new(Method::Post, "/invoke")
            .with_header("Host", "container")
            .with_body(&b"{\"x\":1}"[..]);
        let wire = r.encode();
        let text = std::str::from_utf8(&wire).unwrap();
        assert!(text.starts_with("POST /invoke HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.ends_with("{\"x\":1}"));
    }

    #[test]
    fn user_content_length_is_overridden() {
        let r = Request::new(Method::Get, "/").with_header("Content-Length", "999");
        let text = String::from_utf8(r.encode().to_vec()).unwrap();
        assert!(text.contains("Content-Length: 0\r\n"));
        assert!(!text.contains("999"));
    }

    #[test]
    fn header_lookup_case_insensitive() {
        let r = Response::new(Status::OK).with_header("X-Duration-Ms", "12");
        assert_eq!(r.header("x-duration-ms"), Some("12"));
        assert_eq!(r.header("missing"), None);
    }

    #[test]
    fn status_line_and_length_are_written_digit_by_digit() {
        let text = String::from_utf8(Response::new(Status(429)).encode().to_vec()).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\n\r\n"
        );
        let body = vec![b'x'; 1234];
        let wire = Request::new(Method::Put, "/p").with_body(body).encode();
        assert_eq!(
            &wire[..41],
            b"PUT /p HTTP/1.1\r\nContent-Length: 1234\r\n\r\n"
        );
        assert_eq!(wire.len(), 41 + 1234);
    }

    #[test]
    fn response_body_str() {
        let r = Response::ok(&b"hello"[..]);
        assert_eq!(r.body_str(), "hello");
    }
}
