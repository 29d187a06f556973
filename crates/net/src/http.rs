//! HTTP/1.1 request/response types and codec.
//!
//! Scope: exactly what the measurement path needs — GET/POST/HEAD,
//! Content-Length framing, case-insensitive headers, bounded header and
//! body sizes. Deliberately omitted (documented, smoltcp-style): chunked
//! transfer encoding, trailers, pipelining, HTTP/2, and TLS.

use bytes::Bytes;
use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, IoSlice, Read, Write};

/// Hard cap on the header block, matching common server defaults.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Hard cap on bodies accepted by this stack.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Hard cap on the number of headers per message.
pub const MAX_HEADERS: usize = 100;

/// Configurable per-message codec limits. The defaults reproduce the
/// historical hard caps; servers thread their own copies so a deployment
/// fronting the analysis pipeline can shrink the body budget without
/// rebuilding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Cap on the header block in bytes (exceeding it is a 431).
    pub max_header_bytes: usize,
    /// Cap on declared bodies in bytes (exceeding it is a 413).
    pub max_body_bytes: usize,
    /// Cap on the number of headers per message (exceeding it is a 431).
    pub max_headers: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_header_bytes: MAX_HEADER_BYTES,
            max_body_bytes: MAX_BODY_BYTES,
            max_headers: MAX_HEADERS,
        }
    }
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Socket-level failure.
    Io(String),
    /// The peer closed before a full message arrived.
    UnexpectedEof,
    /// Malformed request/status line or header.
    Malformed(&'static str),
    /// Unsupported method.
    BadMethod(String),
    /// Header block exceeded [`Limits::max_header_bytes`].
    HeadersTooLarge,
    /// More than [`Limits::max_headers`] headers in one message.
    TooManyHeaders(usize),
    /// Declared body exceeds [`Limits::max_body_bytes`].
    BodyTooLarge(usize),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::UnexpectedEof => write!(f, "connection closed mid-message"),
            HttpError::Malformed(what) => write!(f, "malformed {what}"),
            HttpError::BadMethod(m) => write!(f, "unsupported method {m:?}"),
            HttpError::HeadersTooLarge => write!(f, "header block too large"),
            HttpError::TooManyHeaders(n) => write!(f, "too many headers ({n})"),
            HttpError::BodyTooLarge(n) => write!(f, "declared body of {n} bytes too large"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e.to_string())
    }
}

/// Supported request methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET.
    Get,
    /// POST.
    Post,
    /// HEAD.
    Head,
}

impl Method {
    fn parse(s: &str) -> Result<Method, HttpError> {
        match s {
            "GET" => Ok(Method::Get),
            "POST" => Ok(Method::Post),
            "HEAD" => Ok(Method::Head),
            other => Err(HttpError::BadMethod(other.to_owned())),
        }
    }

    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
        }
    }
}

/// Response status subset used by the measurement stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200.
    Ok,
    /// 204.
    NoContent,
    /// 302 with a Location header (the IAB redirector experiments).
    Found,
    /// 400.
    BadRequest,
    /// 404.
    NotFound,
    /// 405 (router path exists, method does not).
    MethodNotAllowed,
    /// 413.
    PayloadTooLarge,
    /// 422 (the analysis service's "container decoded but is broken").
    UnprocessableEntity,
    /// 431 (header block or header count over the limit).
    HeaderFieldsTooLarge,
    /// 500.
    InternalError,
    /// 503 (load shed past the connection high-water mark).
    ServiceUnavailable,
}

impl Status {
    /// Numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::NoContent => 204,
            Status::Found => 302,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::MethodNotAllowed => 405,
            Status::PayloadTooLarge => 413,
            Status::UnprocessableEntity => 422,
            Status::HeaderFieldsTooLarge => 431,
            Status::InternalError => 500,
            Status::ServiceUnavailable => 503,
        }
    }

    /// Reason phrase.
    pub fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::NoContent => "No Content",
            Status::Found => "Found",
            Status::BadRequest => "Bad Request",
            Status::NotFound => "Not Found",
            Status::MethodNotAllowed => "Method Not Allowed",
            Status::PayloadTooLarge => "Payload Too Large",
            Status::UnprocessableEntity => "Unprocessable Entity",
            Status::HeaderFieldsTooLarge => "Request Header Fields Too Large",
            Status::InternalError => "Internal Server Error",
            Status::ServiceUnavailable => "Service Unavailable",
        }
    }

    fn from_code(code: u16) -> Status {
        match code {
            200 => Status::Ok,
            204 => Status::NoContent,
            302 => Status::Found,
            400 => Status::BadRequest,
            404 => Status::NotFound,
            405 => Status::MethodNotAllowed,
            413 => Status::PayloadTooLarge,
            422 => Status::UnprocessableEntity,
            431 => Status::HeaderFieldsTooLarge,
            503 => Status::ServiceUnavailable,
            _ => Status::InternalError,
        }
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Request target (path + optional query).
    pub target: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Bytes,
}

impl Request {
    /// New GET request.
    pub fn get(target: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            target: target.into(),
            headers: Vec::new(),
            body: Bytes::new(),
        }
    }

    /// New POST request with a body.
    pub fn post(target: impl Into<String>, body: impl Into<Bytes>) -> Request {
        Request {
            method: Method::Post,
            target: target.into(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Add a header (name lowercased).
    pub fn with_header(mut self, name: &str, value: &str) -> Request {
        self.headers
            .push((name.to_ascii_lowercase(), value.to_owned()));
        self
    }

    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Path portion of the target (before `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Query portion of the target, if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// Whether this request asks the server to close the connection after
    /// the response (`connection: close`). HTTP/1.1 defaults to keep-alive.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Serialize onto a writer with `Connection: close` framing — the
    /// one-request-per-connection shape the blocking client uses.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), HttpError> {
        self.write_into(w, true)
    }

    /// Serialize onto a writer, choosing the connection framing. Keep-alive
    /// clients pass `close = false` so the server holds the socket open.
    ///
    /// The request line and headers are formatted into one buffer, and
    /// they leave with the body in one vectored write (more only if the
    /// writer takes part of it): on a `TCP_NODELAY` socket each write is a
    /// segment of its own. The body is not copied to get there, so a `Vec`
    /// writer receives the request in one exact-size allocation.
    pub fn write_into<W: Write>(&self, w: &mut W, close: bool) -> Result<(), HttpError> {
        let mut head = Vec::with_capacity(128 + self.target.len());
        // Writing into a `Vec` cannot fail.
        let _ = write!(
            head,
            "{} {} HTTP/1.1\r\n",
            self.method.as_str(),
            self.target
        );
        let mut has_len = false;
        for (n, v) in &self.headers {
            if n == "content-length" {
                has_len = true;
            }
            let _ = write!(head, "{n}: {v}\r\n");
        }
        if !has_len && (!self.body.is_empty() || self.method == Method::Post) {
            let _ = write!(head, "content-length: {}\r\n", self.body.len());
        }
        if close {
            head.extend_from_slice(b"connection: close\r\n\r\n");
        } else {
            head.extend_from_slice(b"connection: keep-alive\r\n\r\n");
        }
        let mut parts = [IoSlice::new(&head), IoSlice::new(&self.body)];
        let mut parts = &mut parts[..];
        while !parts.is_empty() {
            match w.write_vectored(parts) {
                Ok(0) => return Err(HttpError::Io("connection took no bytes".into())),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Parse a request from a buffered reader with default [`Limits`].
    pub fn read_from<R: Read>(reader: &mut BufReader<R>) -> Result<Request, HttpError> {
        Request::read_from_limited(reader, &Limits::default())
    }

    /// Parse a request from a buffered reader under explicit limits — the
    /// blocking reference server's (`wla_oracle::server`) read path.
    pub fn read_from_limited<R: Read>(
        reader: &mut BufReader<R>,
        limits: &Limits,
    ) -> Result<Request, HttpError> {
        let start = read_line_limited(reader, limits)?;
        let (method, target) = parse_request_line(&start)?;
        let headers = read_headers(reader, limits)?;
        let body = read_body(reader, &headers, limits)?;
        Ok(Request {
            method,
            target,
            headers,
            body,
        })
    }
}

/// Parse `METHOD target HTTP/1.x` — shared by the streaming and the
/// incremental parser so both classify malformed lines identically.
fn parse_request_line(line: &str) -> Result<(Method, String), HttpError> {
    let mut parts = line.split_whitespace();
    let method = Method::parse(parts.next().ok_or(HttpError::Malformed("request line"))?)?;
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("request target"))?
        .to_owned();
    let version = parts.next().ok_or(HttpError::Malformed("http version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("http version"));
    }
    Ok((method, target))
}

/// Split one non-empty header line into its lowercased name and trimmed
/// value — shared by both parsers.
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let (name, value) = line.split_once(':').ok_or(HttpError::Malformed("header"))?;
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_owned()))
}

/// The first value of header `name`, matched case-insensitively, in
/// `headers`, whose names are lowercased: what [`Request::header`]
/// returns, and how a response's headers are read.
pub fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    let name = name.to_ascii_lowercase();
    headers
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_str())
}

/// Declared body length from the header list (no `content-length` means
/// 0). A value that is not `1*DIGIT` (RFC 9110 §8.6; `usize::from_str`
/// alone also takes a leading `+`), or that overflows, is malformed, and
/// so are two fields that disagree (RFC 9112 §6.3); oversized is
/// [`HttpError::BodyTooLarge`].
fn declared_body_len(headers: &[(String, String)], limits: &Limits) -> Result<usize, HttpError> {
    let malformed = || HttpError::Malformed("content-length");
    let mut declared = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        let v = v.trim();
        if !v.bytes().all(|b| b.is_ascii_digit()) {
            return Err(malformed());
        }
        let n: usize = v.parse().map_err(|_| malformed())?;
        if declared.is_some_and(|d| d != n) {
            return Err(malformed());
        }
        declared = Some(n);
    }
    let len = declared.unwrap_or(0);
    if len > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge(len));
    }
    Ok(len)
}

/// Incremental request parse out of a byte buffer — the nonblocking
/// server's read path, and the codec piece that makes pipelining work.
///
/// Returns `Ok(Some((request, consumed)))` when a complete request starts
/// at `buf[0]`, `Ok(None)` when more bytes are needed, and `Err` on the
/// same malformed-input taxonomy as [`Request::read_from_limited`] over the
/// same bytes. Back-to-back pipelined requests are parsed by repeated
/// calls, draining `consumed` bytes between them.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Option<(Request, usize)>, HttpError> {
    // Request line.
    let (line, mut pos) = match take_line(buf, 0, limits)? {
        Some(v) => v,
        None => return Ok(None),
    };
    let (method, target) = parse_request_line(&line)?;

    // Headers: bounded count and cumulative size, as the streaming parser.
    let mut headers = Vec::new();
    let mut total = 0usize;
    loop {
        let (line, next) = match take_line(buf, pos, limits)? {
            Some(v) => v,
            None => return Ok(None),
        };
        pos = next;
        if line.is_empty() {
            break;
        }
        total += line.len();
        if total > limits.max_header_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        if headers.len() == limits.max_headers {
            return Err(HttpError::TooManyHeaders(headers.len() + 1));
        }
        headers.push(parse_header_line(&line)?);
    }

    // Body, framed strictly on content-length.
    let len = declared_body_len(&headers, limits)?;
    if buf.len() - pos < len {
        return Ok(None);
    }
    let body = Bytes::copy_from_slice(&buf[pos..pos + len]);
    Ok(Some((
        Request {
            method,
            target,
            headers,
            body,
        },
        pos + len,
    )))
}

/// Take one `\n`-terminated line starting at `buf[start]`, stripping the
/// terminator and at most one preceding `\r`. `Ok(None)` means the line is
/// still incomplete; a terminator-free run past the header budget is the
/// same [`HttpError::HeadersTooLarge`] the streaming reader raises.
fn take_line(
    buf: &[u8],
    start: usize,
    limits: &Limits,
) -> Result<Option<(String, usize)>, HttpError> {
    match buf[start..].iter().position(|&b| b == b'\n') {
        Some(nl) => {
            if nl + 1 > limits.max_header_bytes {
                return Err(HttpError::HeadersTooLarge);
            }
            let mut line = &buf[start..start + nl];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            Ok(Some((
                line.iter().map(|&b| b as char).collect(),
                start + nl + 1,
            )))
        }
        None => {
            if buf.len() - start > limits.max_header_bytes {
                return Err(HttpError::HeadersTooLarge);
            }
            Ok(None)
        }
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status.
    pub status: Status,
    /// Headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Bytes,
}

impl Response {
    /// 200 response with a body and content type.
    pub fn ok(content_type: &str, body: impl Into<Bytes>) -> Response {
        Response {
            status: Status::Ok,
            headers: vec![("content-type".into(), content_type.into())],
            body: body.into(),
        }
    }

    /// 204 response.
    pub fn no_content() -> Response {
        Response {
            status: Status::NoContent,
            headers: Vec::new(),
            body: Bytes::new(),
        }
    }

    /// Error response with a plain-text body.
    pub fn error(status: Status, message: &str) -> Response {
        Response {
            status,
            headers: vec![("content-type".into(), "text/plain".into())],
            body: Bytes::copy_from_slice(message.as_bytes()),
        }
    }

    /// Serialize into a byte buffer, choosing the connection framing. Both
    /// servers (readiness-loop and the blocking reference) emit responses
    /// through this one function, which is what lets the equivalence suite
    /// pin their byte streams against each other.
    pub fn write_into(&self, out: &mut Vec<u8>, close: bool) {
        use std::io::Write as _;
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\n",
            self.status.code(),
            self.status.reason()
        );
        for (n, v) in &self.headers {
            let _ = write!(out, "{n}: {v}\r\n");
        }
        let _ = write!(out, "content-length: {}\r\n", self.body.len());
        if close {
            let _ = write!(out, "connection: close\r\n\r\n");
        } else {
            let _ = write!(out, "connection: keep-alive\r\n\r\n");
        }
        out.extend_from_slice(&self.body);
    }

    /// Parse a response from a buffered reader.
    pub fn read_from<R: Read>(reader: &mut BufReader<R>) -> Result<Response, HttpError> {
        let limits = Limits::default();
        let start = read_line_limited(reader, &limits)?;
        let mut parts = start.split_whitespace();
        let version = parts.next().ok_or(HttpError::Malformed("status line"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("http version"));
        }
        let code: u16 = parts
            .next()
            .and_then(|c| c.parse().ok())
            .ok_or(HttpError::Malformed("status code"))?;
        let headers = read_headers(reader, &limits)?;
        let body = read_body(reader, &headers, &limits)?;
        Ok(Response {
            status: Status::from_code(code),
            headers,
            body,
        })
    }
}

fn read_line_limited<R: Read>(
    reader: &mut BufReader<R>,
    limits: &Limits,
) -> Result<String, HttpError> {
    // Buffered read up to the newline: one read_until over the BufReader's
    // internal buffer instead of a syscall-shaped read() per byte. The
    // Take guard bounds how much a newline-free stream can make us buffer.
    let mut raw = Vec::new();
    let n = std::io::Read::take(&mut *reader, limits.max_header_bytes as u64 + 1)
        .read_until(b'\n', &mut raw)?;
    if n == 0 {
        return Err(HttpError::UnexpectedEof);
    }
    if raw.last() != Some(&b'\n') {
        // No terminator: either the peer closed mid-line or the line is
        // longer than the whole header budget.
        if n > limits.max_header_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        return Err(HttpError::UnexpectedEof);
    }
    raw.pop();
    // Strip one '\r' if it immediately precedes the '\n'. A bare '\r'
    // anywhere else is payload (e.g. inside a header value) and survives.
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    Ok(raw.into_iter().map(|b| b as char).collect())
}

fn read_headers<R: Read>(
    reader: &mut BufReader<R>,
    limits: &Limits,
) -> Result<Vec<(String, String)>, HttpError> {
    let mut headers = Vec::new();
    let mut total = 0usize;
    loop {
        let line = read_line_limited(reader, limits)?;
        if line.is_empty() {
            return Ok(headers);
        }
        total += line.len();
        if total > limits.max_header_bytes {
            return Err(HttpError::HeadersTooLarge);
        }
        if headers.len() == limits.max_headers {
            return Err(HttpError::TooManyHeaders(headers.len() + 1));
        }
        headers.push(parse_header_line(&line)?);
    }
}

fn read_body<R: Read>(
    reader: &mut BufReader<R>,
    headers: &[(String, String)],
    limits: &Limits,
) -> Result<Bytes, HttpError> {
    // A missing content-length means "no body"; a *present but
    // unparseable* one ("abc", negative, overflow) must be rejected —
    // treating it as 0 would desync framing on this connection and the
    // server would read the body bytes as the next request line.
    let len = declared_body_len(headers, limits)?;
    let mut body = vec![0u8; len];
    reader
        .read_exact(&mut body)
        .map_err(|_| HttpError::UnexpectedEof)?;
    Ok(Bytes::from(body))
}

/// Percent-decode a form-encoded component (`+` and `%XX`).
pub fn form_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                match u8::from_str_radix(hex, 16) {
                    Ok(b) => {
                        out.push(b);
                        i += 3;
                    }
                    Err(_) => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            other => {
                out.push(other);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encode a form component.
pub fn form_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// Parse an `application/x-www-form-urlencoded` body into pairs.
pub fn parse_form(body: &str) -> Vec<(String, String)> {
    body.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (form_decode(k), form_decode(v)),
            None => (form_decode(kv), String::new()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        Request::read_from(&mut BufReader::new(Cursor::new(buf))).unwrap()
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        resp.write_into(&mut buf, true);
        Response::read_from(&mut BufReader::new(Cursor::new(buf))).unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let req = Request::post("/beacon?x=1", &b"interface=Document"[..])
            .with_header("X-Requested-With", "com.facebook.katana");
        let back = roundtrip_request(&req);
        assert_eq!(back.method, Method::Post);
        assert_eq!(back.target, "/beacon?x=1");
        assert_eq!(back.path(), "/beacon");
        assert_eq!(back.query(), Some("x=1"));
        assert_eq!(back.header("x-requested-with"), Some("com.facebook.katana"));
        assert_eq!(&back.body[..], b"interface=Document");
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok("text/html", &b"<html></html>"[..]);
        let back = roundtrip_response(&resp);
        assert_eq!(back.status, Status::Ok);
        assert_eq!(header(&back.headers, "content-type"), Some("text/html"));
        assert_eq!(&back.body[..], b"<html></html>");
    }

    #[test]
    fn empty_get_has_no_body() {
        let back = roundtrip_request(&Request::get("/"));
        assert!(back.body.is_empty());
    }

    #[test]
    fn bad_method_rejected() {
        let raw = b"BREW /pot HTTP/1.1\r\n\r\n";
        let err = Request::read_from(&mut BufReader::new(Cursor::new(&raw[..]))).unwrap_err();
        assert!(matches!(err, HttpError::BadMethod(_)));
    }

    #[test]
    fn truncated_body_is_eof() {
        let raw = b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort";
        let err = Request::read_from(&mut BufReader::new(Cursor::new(&raw[..]))).unwrap_err();
        assert_eq!(err, HttpError::UnexpectedEof);
    }

    #[test]
    fn oversized_body_rejected_without_reading() {
        let raw = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err =
            Request::read_from(&mut BufReader::new(Cursor::new(raw.into_bytes()))).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge(_)));
    }

    #[test]
    fn header_bomb_rejected() {
        // 4000 short headers trip the count cap before the byte cap.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..4000 {
            raw.push_str(&format!("x-filler-{i}: aaaaaaaaaaaaaaaa\r\n"));
        }
        raw.push_str("\r\n");
        let err = Request::read_from(&mut BufReader::new(Cursor::new(raw.clone().into_bytes())))
            .unwrap_err();
        assert_eq!(err, HttpError::TooManyHeaders(MAX_HEADERS + 1));
        // The incremental parser classifies the same bytes identically.
        let err = parse_request(raw.as_bytes(), &Limits::default()).unwrap_err();
        assert_eq!(err, HttpError::TooManyHeaders(MAX_HEADERS + 1));
    }

    #[test]
    fn header_byte_bomb_rejected() {
        // Few headers, huge values: the byte cap fires with the count cap
        // still far away.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..10 {
            raw.push_str(&format!("x-big-{i}: {}\r\n", "v".repeat(2048)));
        }
        raw.push_str("\r\n");
        let err = Request::read_from(&mut BufReader::new(Cursor::new(raw.clone().into_bytes())))
            .unwrap_err();
        assert_eq!(err, HttpError::HeadersTooLarge);
        let err = parse_request(raw.as_bytes(), &Limits::default()).unwrap_err();
        assert_eq!(err, HttpError::HeadersTooLarge);
    }

    #[test]
    fn unparseable_content_length_is_malformed() {
        // "abc", a negative or signed value, and a value overflowing usize
        // must all be rejected, not silently framed as an empty body; so
        // must two fields that disagree. A repeat of one value frames it.
        let read = |raw: String| Request::read_from(&mut BufReader::new(Cursor::new(raw)));
        for bad in [
            "abc",
            "-5",
            "+5",
            "18446744073709551616",
            "12 34",
            "0x10",
            "5\r\ncontent-length: 7",
        ] {
            let raw = format!("POST / HTTP/1.1\r\ncontent-length: {bad}\r\n\r\nhello!!");
            let err = read(raw).unwrap_err();
            assert_eq!(err, HttpError::Malformed("content-length"), "value {bad:?}");
        }
        let repeated = "POST / HTTP/1.1\r\ncontent-length: 5\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(&read(repeated.into()).unwrap().body[..], b"hello");
    }

    #[test]
    fn missing_content_length_still_means_empty_body() {
        let raw = b"GET / HTTP/1.1\r\nhost: localhost\r\n\r\n";
        let req = Request::read_from(&mut BufReader::new(Cursor::new(&raw[..]))).unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn bare_cr_in_header_value_survives() {
        // Only a '\r' immediately before '\n' is line framing; a bare '\r'
        // inside a value is payload and must round-trip unchanged.
        let raw = b"GET / HTTP/1.1\r\nx-odd: a\rb\r\n\r\n";
        let req = Request::read_from(&mut BufReader::new(Cursor::new(&raw[..]))).unwrap();
        assert_eq!(req.header("x-odd"), Some("a\rb"));

        let resp = Response {
            status: Status::Ok,
            headers: vec![("x-odd".into(), "left\rright".into())],
            body: Bytes::new(),
        };
        let back = roundtrip_response(&resp);
        assert_eq!(header(&back.headers, "x-odd"), Some("left\rright"));
    }

    #[test]
    fn line_without_terminator_is_eof_not_empty() {
        let raw = b"GET / HTTP/1.1";
        let err = Request::read_from(&mut BufReader::new(Cursor::new(&raw[..]))).unwrap_err();
        assert_eq!(err, HttpError::UnexpectedEof);
    }

    #[test]
    fn newline_free_stream_hits_header_cap() {
        let raw = vec![b'A'; MAX_HEADER_BYTES + 64];
        let err = Request::read_from(&mut BufReader::new(Cursor::new(raw))).unwrap_err();
        assert_eq!(err, HttpError::HeadersTooLarge);
    }

    #[test]
    fn form_codec() {
        let pairs = parse_form("interface=Document&method=getElementById&arg=a+b%26c");
        assert_eq!(
            pairs,
            vec![
                ("interface".into(), "Document".into()),
                ("method".into(), "getElementById".into()),
                ("arg".into(), "a b&c".into()),
            ]
        );
    }

    /// Drive the incremental parser over `raw` split at the given chunk
    /// sizes, as the nonblocking server does across read() boundaries.
    fn parse_fragmented(raw: &[u8], chunks: &[usize], limits: &Limits) -> Vec<Request> {
        let mut buf: Vec<u8> = Vec::new();
        let mut requests = Vec::new();
        let mut fed = 0usize;
        let mut chunk_iter = chunks.iter().copied().chain(std::iter::repeat(raw.len()));
        while fed < raw.len() {
            let take = chunk_iter.next().unwrap().clamp(1, raw.len() - fed);
            buf.extend_from_slice(&raw[fed..fed + take]);
            fed += take;
            while let Some((req, consumed)) = parse_request(&buf, limits).expect("valid stream") {
                requests.push(req);
                buf.drain(..consumed);
            }
        }
        assert!(buf.is_empty(), "trailing unparsed bytes: {}", buf.len());
        requests
    }

    /// A writer that keeps what it is given and counts its write calls,
    /// taking up to `limit` bytes of a vectored write in one call, as a
    /// socket's `writev` does.
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
        limit: usize,
    }

    impl CountingWriter {
        fn new(limit: usize) -> CountingWriter {
            CountingWriter {
                bytes: Vec::new(),
                writes: 0,
                limit,
            }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            let before = self.bytes.len();
            for b in bufs {
                let room = self.limit - (self.bytes.len() - before);
                self.bytes.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A beacon POST, an IAB page GET with its `X-Requested-With` header
    /// and a `/healthz` GET each reach the writer in one write call, in
    /// both framings, and the bytes are the wire form; a writer that takes
    /// 7 bytes a call still receives all of them.
    #[test]
    fn a_request_leaves_in_one_write() {
        let beacon = Request::post("/beacon", &b"interface=Document&method=write"[..]);
        let page = Request::get("/page").with_header("X-Requested-With", "com.example.app");
        let healthz = Request::get("/healthz");
        let wire: [(&Request, &str); 3] = [
            (&beacon, "POST /beacon HTTP/1.1\r\ncontent-length: 31\r\n"),
            (
                &page,
                "GET /page HTTP/1.1\r\nx-requested-with: com.example.app\r\n",
            ),
            (&healthz, "GET /healthz HTTP/1.1\r\n"),
        ];
        for (request, head) in wire {
            for (close, framing) in [(true, "close"), (false, "keep-alive")] {
                let mut expect = format!("{head}connection: {framing}\r\n\r\n").into_bytes();
                expect.extend_from_slice(&request.body);
                let mut w = CountingWriter::new(usize::MAX);
                request.write_into(&mut w, close).unwrap();
                assert_eq!(w.writes, 1, "{} {close}", request.target);
                assert_eq!(w.bytes, expect, "{} {close}", request.target);
                let mut trickle = CountingWriter::new(7);
                request.write_into(&mut trickle, close).unwrap();
                assert_eq!(trickle.bytes, expect, "{} {close}", request.target);
                assert_eq!(trickle.writes, expect.len().div_ceil(7));
            }
        }
    }

    #[test]
    fn incremental_parses_pipelined_requests() {
        let mut raw = Vec::new();
        let first = Request::post("/beacon", &b"interface=Document&method=write"[..])
            .with_header("x-requested-with", "com.example");
        let second = Request::get("/page");
        let third = Request::post("/analyze", &b"\x00\x01binary body\xff"[..]);
        first.write_into(&mut raw, false).unwrap();
        second.write_into(&mut raw, false).unwrap();
        third.write_into(&mut raw, true).unwrap();

        let limits = Limits::default();
        // Whole buffer at once.
        let whole = parse_fragmented(&raw, &[raw.len()], &limits);
        assert_eq!(whole.len(), 3);
        assert_eq!(whole[0].path(), "/beacon");
        assert_eq!(whole[1].method, Method::Get);
        assert_eq!(&whole[2].body[..], b"\x00\x01binary body\xff");
        assert!(!whole[1].wants_close());
        assert!(whole[2].wants_close());
        // One byte at a time must yield the identical request sequence.
        let trickled = parse_fragmented(&raw, &vec![1; raw.len()], &limits);
        assert_eq!(whole, trickled);
    }

    #[test]
    fn incremental_reports_incomplete_not_error() {
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort";
        assert_eq!(parse_request(raw, &Limits::default()).unwrap(), None);
        let raw = b"GET / HT";
        assert_eq!(parse_request(raw, &Limits::default()).unwrap(), None);
    }

    #[test]
    fn incremental_body_cap_is_configurable() {
        let limits = Limits {
            max_body_bytes: 8,
            ..Limits::default()
        };
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 9\r\n\r\n123456789";
        assert_eq!(
            parse_request(raw, &limits).unwrap_err(),
            HttpError::BodyTooLarge(9)
        );
        let raw = b"POST /x HTTP/1.1\r\ncontent-length: 8\r\n\r\n12345678";
        let (req, consumed) = parse_request(raw, &limits).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(&req.body[..], b"12345678");
    }

    proptest! {
        #[test]
        fn prop_form_roundtrip(s in ".{0,80}") {
            prop_assert_eq!(form_decode(&form_encode(&s)), s);
        }

        /// Pipelined back-to-back requests parse to the same sequence no
        /// matter where the read boundaries fall — the codec property the
        /// nonblocking server's fragmented reads rely on.
        #[test]
        fn prop_pipelined_split_boundaries(
            bodies in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..96), 1..5),
            chunks in proptest::collection::vec(1usize..64, 1..32),
        ) {
            let mut raw = Vec::new();
            for (i, body) in bodies.iter().enumerate() {
                let close = i + 1 == bodies.len();
                Request::post(format!("/b/{i}"), body.clone())
                    .with_header("x-seq", &i.to_string())
                    .write_into(&mut raw, close)
                    .unwrap();
            }
            let limits = Limits::default();
            let whole = parse_fragmented(&raw, &[raw.len()], &limits);
            let split = parse_fragmented(&raw, &chunks, &limits);
            prop_assert_eq!(&whole, &split);
            prop_assert_eq!(whole.len(), bodies.len());
            for (i, req) in whole.iter().enumerate() {
                prop_assert_eq!(&req.body[..], &bodies[i][..]);
                prop_assert_eq!(req.header("x-seq"), Some(i.to_string().as_str()));
            }
        }

        /// The incremental parser agrees with the streaming reader on any
        /// single-request prefix: same request or same error taxonomy.
        #[test]
        fn prop_incremental_matches_streaming(raw in proptest::collection::vec(any::<u8>(), 0..512)) {
            let limits = Limits::default();
            let streamed = Request::read_from(&mut BufReader::new(Cursor::new(raw.clone())));
            match parse_request(&raw, &limits) {
                Ok(Some((req, _))) => prop_assert_eq!(Ok(req), streamed),
                // Incomplete buffer: the streaming side, which sees EOF
                // where we see "need more bytes", must report EOF.
                Ok(None) => prop_assert_eq!(streamed.unwrap_err(), HttpError::UnexpectedEof),
                Err(e) => prop_assert_eq!(streamed.unwrap_err(), e),
            }
        }

        #[test]
        fn prop_request_body_roundtrip(body in proptest::collection::vec(any::<u8>(), 0..1024)) {
            let req = Request::post("/b", body.clone());
            let back = roundtrip_request(&req);
            prop_assert_eq!(&back.body[..], &body[..]);
        }

        #[test]
        fn prop_parser_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Request::read_from(&mut BufReader::new(Cursor::new(raw.clone())));
            let _ = Response::read_from(&mut BufReader::new(Cursor::new(raw)));
        }
    }
}
