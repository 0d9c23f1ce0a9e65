//! The HTTP/1.1 wire codec: request/response types, a strict incremental
//! reader, and the response writer.
//!
//! The dialect is the small, well-behaved subset a JSON service needs —
//! `Content-Length`-framed bodies, keep-alive by default, no chunked
//! transfer coding (`Transfer-Encoding` is answered with `501`), no
//! continuation lines. Everything a client can get wrong maps to a
//! distinct [`HttpError`] so the connection loop can answer with the
//! right status code (or close silently for idle keep-alive timeouts)
//! — and never panic.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Hard ceilings the reader enforces while bytes arrive, so a misbehaving
/// peer cannot balloon memory before the service even sees the request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers (exceeding → `431`).
    pub max_head_bytes: usize,
    /// Maximum declared `Content-Length` (exceeding → `413`, body unread).
    pub max_body_bytes: usize,
    /// Wall-clock ceiling on reading one *started* message. The per-read
    /// socket timeout resets on every byte, so a slow-loris peer dripping
    /// one byte per poll could hold a worker forever; this bound caps the
    /// whole read (`408` once exceeded). `None` disables the check.
    pub max_read_time: Option<Duration>,
    /// Deadline granted to requests that carry no [`DEADLINE_HEADER`],
    /// measured from the first byte of the message. `None` means such
    /// requests never expire.
    pub default_deadline: Option<Duration>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 << 10,
            max_body_bytes: 1 << 20,
            max_read_time: Some(Duration::from_secs(30)),
            default_deadline: None,
        }
    }
}

/// The request header naming the client's deadline in milliseconds from
/// the moment the request started arriving. Once it lapses the client has
/// given up: the server abandons the work (before any durable append) and
/// answers `408`/`504` instead of computing an answer nobody reads.
pub const DEADLINE_HEADER: &str = "x-deadline-ms";

/// A parsed request head: everything up to (but not including) the
/// body. Produced by [`read_request_head`] so the server can run
/// admission control and deadline checks *after* the head is framed but
/// *before* the body transfer occupies the worker; [`read_request_body`]
/// turns it into a full [`Request`].
#[derive(Debug, Clone)]
pub struct RequestHead {
    /// The method verb, as sent (e.g. `GET`, `POST`, `DELETE`).
    pub method: String,
    /// The request target with any `?query` suffix stripped.
    pub path: String,
    /// Header `(name, value)` pairs; names are lowercased on parse.
    pub headers: Vec<(String, String)>,
    /// Whether the client asked for `Connection: close`.
    pub close: bool,
    /// When the client gives up on this request: parsed from
    /// [`DEADLINE_HEADER`], or [`Limits::default_deadline`] when absent.
    pub deadline: Option<Instant>,
    /// The declared `Content-Length` (0 when none was sent). The body
    /// may not have arrived yet.
    pub content_length: usize,
    /// When the first byte of the message arrived — the epoch for both
    /// the [`Limits::max_read_time`] budget and the deadline.
    started: Instant,
}

impl RequestHead {
    /// The first header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the request's deadline has already lapsed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// A synthetic head — for tests and admission-policy units that
    /// need a head without a wire read: `method` and `path` as given,
    /// no headers, no body, no deadline.
    pub fn synthetic(method: &str, path: &str) -> RequestHead {
        RequestHead {
            method: method.into(),
            path: path.into(),
            headers: vec![],
            close: false,
            deadline: None,
            content_length: 0,
            started: Instant::now(),
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method verb, as sent (e.g. `GET`, `POST`, `DELETE`).
    pub method: String,
    /// The request target with any `?query` suffix stripped.
    pub path: String,
    /// Header `(name, value)` pairs; names are lowercased on parse.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body (empty when none was sent).
    pub body: Vec<u8>,
    /// Whether the client asked for `Connection: close`.
    pub close: bool,
    /// When the client gives up on this request: parsed from
    /// [`DEADLINE_HEADER`], or [`Limits::default_deadline`] when absent.
    /// `None` means the request never expires.
    pub deadline: Option<Instant>,
}

impl Request {
    /// The first header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the request's deadline has already lapsed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Time left until the deadline (`None` when there is no deadline;
    /// zero once it lapsed).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The body as UTF-8 text.
    pub fn body_str(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(&self.body)
    }
}

/// An HTTP response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// The status code (reason phrase derived via [`reason`]).
    pub status: u16,
    /// Extra headers (`Content-Length` and `Connection` are emitted by the
    /// writer; don't add them here).
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: Vec<u8>,
    /// Ask the connection loop to close after this response.
    pub close: bool,
}

impl Response {
    /// A JSON response with `Content-Type: application/json`.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            headers: vec![("content-type".into(), "application/json".into())],
            body: body.into_bytes(),
            close: false,
        }
    }

    /// The transport's error shape, `{"error": {"code": …, "message": …}}`,
    /// with both strings escaped per RFC 8259 so any message (a quoted
    /// request line, control bytes) stays valid JSON.
    pub fn error(status: u16, code: &str, message: &str) -> Response {
        let mut body = String::from("{\"error\": {\"code\": ");
        push_json_string(&mut body, code);
        body.push_str(", \"message\": ");
        push_json_string(&mut body, message);
        body.push_str("}}");
        Response::json(status, body)
    }

    /// Marks the response as connection-closing and returns it.
    pub fn closing(mut self) -> Response {
        self.close = true;
        self
    }
}

/// Appends `text` as a JSON string literal (RFC 8259 §7).
fn push_json_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The canonical reason phrase for the status codes this stack emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Everything that can go wrong while reading one request (or response).
///
/// The connection loop turns each variant into the right close/answer
/// behavior — see [`HttpError::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Clean EOF before the first byte of a message: the peer hung up
    /// between requests. Not an error worth answering — just close.
    Closed,
    /// The read timed out before the first byte of a message arrived
    /// (an idle keep-alive connection). Close silently.
    IdleTimeout,
    /// The read timed out *mid-message* — head or body started but never
    /// finished. Answer `408` and close.
    Timeout,
    /// The request's own deadline ([`DEADLINE_HEADER`] or
    /// [`Limits::default_deadline`]) lapsed while the body was still
    /// arriving. Purely client-caused — the peer spent its whole budget
    /// on the upload — so it is answered `504` and accounted as a lapsed
    /// deadline, never as a protocol error.
    DeadlineLapsed,
    /// EOF mid-message: the peer promised more bytes (by `Content-Length`
    /// or an unfinished head) and hung up. Answer `400` and close.
    Truncated,
    /// The head is not parseable HTTP/1.1. Answer `400` and close.
    Malformed(String),
    /// The head exceeded [`Limits::max_head_bytes`]. Answer `431`.
    HeadTooLarge,
    /// The declared body exceeds [`Limits::max_body_bytes`]; the body is
    /// left unread. Answer `413` and close.
    BodyTooLarge,
    /// A framing the stack deliberately does not speak (chunked
    /// transfer coding). Answer `501` and close.
    Unsupported(String),
    /// The peer reset the connection (RST, aborted, broken pipe). Close
    /// silently — there is nobody left to answer.
    Reset,
    /// An underlying socket error (anything else). Close.
    Io(String),
}

impl HttpError {
    /// The status code to answer with, or `None` when the connection
    /// should close without a response.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Closed | HttpError::IdleTimeout | HttpError::Reset | HttpError::Io(_) => {
                None
            }
            HttpError::Timeout => Some(408),
            HttpError::DeadlineLapsed => Some(504),
            HttpError::Truncated | HttpError::Malformed(_) => Some(400),
            HttpError::HeadTooLarge => Some(431),
            HttpError::BodyTooLarge => Some(413),
            HttpError::Unsupported(_) => Some(501),
        }
    }

    /// A short machine-readable code for the error body.
    pub fn code(&self) -> &'static str {
        match self {
            HttpError::Closed => "closed",
            HttpError::IdleTimeout => "idle_timeout",
            HttpError::Timeout => "request_timeout",
            HttpError::DeadlineLapsed => "deadline_exceeded",
            HttpError::Truncated => "truncated_request",
            HttpError::Malformed(_) => "malformed_request",
            HttpError::HeadTooLarge => "head_too_large",
            HttpError::BodyTooLarge => "body_too_large",
            HttpError::Unsupported(_) => "not_implemented",
            HttpError::Reset => "peer_reset",
            HttpError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::IdleTimeout => write!(f, "idle keep-alive timeout"),
            HttpError::Timeout => write!(f, "timed out mid-request"),
            HttpError::DeadlineLapsed => {
                write!(f, "request deadline lapsed while the body was arriving")
            }
            HttpError::Truncated => write!(f, "peer hung up mid-request"),
            HttpError::Malformed(detail) => write!(f, "malformed request: {detail}"),
            HttpError::HeadTooLarge => write!(f, "request head exceeds the limit"),
            HttpError::BodyTooLarge => write!(f, "request body exceeds the limit"),
            HttpError::Unsupported(what) => write!(f, "unsupported: {what}"),
            HttpError::Reset => write!(f, "connection reset by peer"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Classifies one `read` outcome.
fn read_some(stream: &mut impl Read, buf: &mut Vec<u8>) -> Result<usize, HttpError> {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(0),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(HttpError::Timeout)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::BrokenPipe
                ) =>
            {
                return Err(HttpError::Reset)
            }
            Err(e) => return Err(HttpError::Io(e.to_string())),
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Reads one full request from `stream`, buffering through `buf`.
///
/// `buf` carries leftover bytes between calls (a pipelining client may
/// deliver the next request's head behind this one's body); the parsed
/// message is drained from its front. Timeouts come from the stream's
/// own `read_timeout`; which [`HttpError`] a timeout maps to depends on
/// whether the message had started.
///
/// Composes [`read_request_head`] + [`read_request_body`]; callers that
/// need to decide anything *between* the head and the body (admission
/// control, deadline checks) call the halves themselves.
pub fn read_request(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    limits: &Limits,
) -> Result<Request, HttpError> {
    let head = read_request_head(stream, buf, limits)?;
    read_request_body(stream, buf, head, limits)
}

/// Reads and parses one request head from `stream` (buffering through
/// `buf` like [`read_request`]), leaving the body — which may not have
/// arrived yet — unread. The head's bytes are drained from `buf`; any
/// body bytes the transport delivered alongside them stay at the front.
pub fn read_request_head(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    limits: &Limits,
) -> Result<RequestHead, HttpError> {
    let started = Instant::now();
    // The anti-drip bound: the socket timeout resets with every byte, so
    // a peer feeding one byte per poll would otherwise never trip it.
    let overdue = || {
        limits
            .max_read_time
            .is_some_and(|cap| started.elapsed() > cap)
    };
    // Phase 1: accumulate until the blank line ends the head.
    let head_end = loop {
        if let Some(end) = find_head_end(buf) {
            if end > limits.max_head_bytes {
                return Err(HttpError::HeadTooLarge);
            }
            break end;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        if !buf.is_empty() && overdue() {
            return Err(HttpError::Timeout);
        }
        match read_some(stream, buf) {
            Ok(0) if buf.is_empty() => return Err(HttpError::Closed),
            Ok(0) => return Err(HttpError::Truncated),
            Ok(_) => {}
            Err(HttpError::Timeout) if buf.is_empty() => return Err(HttpError::IdleTimeout),
            Err(e) => return Err(e),
        }
    };

    // Phase 2: parse the head.
    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or_else(|| HttpError::Malformed(format!("bad request line {request_line:?}")))?
        .to_string();
    let target = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or_else(|| HttpError::Malformed(format!("bad request target in {request_line:?}")))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        if name.is_empty() || name.ends_with(' ') || name.ends_with('\t') {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::Unsupported("chunked transfer coding".into()));
    }
    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    // HTTP/1.0 closes by default; 1.1 keeps alive unless asked otherwise.
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let close = match connection.as_deref() {
        Some("close") => true,
        Some("keep-alive") => false,
        _ => version == "HTTP/1.0",
    };

    // The client's deadline, measured from the first byte of the message
    // so drip-fed uploads spend their own budget.
    let deadline = match headers.iter().find(|(n, _)| n == DEADLINE_HEADER) {
        Some((_, v)) => {
            let ms = v
                .parse::<u64>()
                .map_err(|_| HttpError::Malformed(format!("bad {DEADLINE_HEADER} {v:?}")))?;
            Some(started + Duration::from_millis(ms))
        }
        None => limits.default_deadline.map(|d| started + d),
    };

    buf.drain(..head_end);
    Ok(RequestHead {
        method,
        path,
        headers,
        close,
        deadline,
        content_length,
        started,
    })
}

/// Reads the body promised by `head` — exactly `content_length` bytes —
/// and assembles the full [`Request`]. A deadline lapsing during the
/// transfer is [`HttpError::DeadlineLapsed`] (`504`, the client spent
/// its own budget), distinct from the server's read-time budget lapsing
/// ([`HttpError::Timeout`], `408`).
pub fn read_request_body(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    head: RequestHead,
    limits: &Limits,
) -> Result<Request, HttpError> {
    let overdue = || {
        limits
            .max_read_time
            .is_some_and(|cap| head.started.elapsed() > cap)
    };
    let lapsed = || head.deadline.is_some_and(|d| Instant::now() >= d);
    while buf.len() < head.content_length {
        if lapsed() {
            return Err(HttpError::DeadlineLapsed);
        }
        if overdue() {
            return Err(HttpError::Timeout);
        }
        match read_some(stream, buf) {
            Ok(0) => return Err(HttpError::Truncated),
            Ok(_) => {}
            // A stalled transfer surfaces as the socket timeout; when
            // the request's own deadline lapsed while we waited, that —
            // not the server's read budget — is the story to tell.
            Err(HttpError::Timeout) if lapsed() => return Err(HttpError::DeadlineLapsed),
            Err(e) => return Err(e),
        }
    }
    let body = buf[..head.content_length].to_vec();
    buf.drain(..head.content_length);

    Ok(Request {
        method: head.method,
        path: head.path,
        headers: head.headers,
        body,
        close: head.close,
        deadline: head.deadline,
    })
}

/// Writes `response` (status line, headers, framed body) to `stream` as
/// one buffer: one `write` call, so one segment under `TCP_NODELAY`,
/// unless the socket takes it in parts.
pub fn write_response(stream: &mut impl Write, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-length: {}\r\n",
        response.status,
        reason(response.status),
        response.body.len()
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if response.close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    let mut message = head.into_bytes();
    message.extend_from_slice(&response.body);
    stream.write_all(&message)?;
    stream.flush()
}

/// A parsed HTTP response (the client half of the codec).
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body.
    pub body: Vec<u8>,
    /// Whether the server asked to close the connection.
    pub close: bool,
}

impl ClientResponse {
    /// The body as UTF-8 text.
    pub fn body_str(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(&self.body)
    }
}

/// Reads one full response from `stream`, buffering through `buf` exactly
/// like [`read_request`].
pub fn read_client_response(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    limits: &Limits,
) -> Result<ClientResponse, HttpError> {
    let head_end = loop {
        if let Some(end) = find_head_end(buf) {
            break end;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        match read_some(stream, buf) {
            Ok(0) if buf.is_empty() => return Err(HttpError::Closed),
            Ok(0) => return Err(HttpError::Truncated),
            Ok(_) => {}
            Err(HttpError::Timeout) if buf.is_empty() => return Err(HttpError::IdleTimeout),
            Err(e) => return Err(e),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end - 4])
        .map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .filter(|_| version.starts_with("HTTP/1."))
        .ok_or_else(|| HttpError::Malformed(format!("bad status line {status_line:?}")))?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    let close = headers
        .iter()
        .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
    while buf.len() < head_end + content_length {
        match read_some(stream, buf) {
            Ok(0) => return Err(HttpError::Truncated),
            Ok(_) => {}
            Err(e) => return Err(e),
        }
    }
    let body = buf[head_end..head_end + content_length].to_vec();
    buf.drain(..head_end + content_length);
    Ok(ClientResponse {
        status,
        headers,
        body,
        close,
    })
}

/// Formats one request head + body the server-side reader accepts.
pub fn format_request(method: &str, path: &str, body: Option<&[u8]>, close: bool) -> Vec<u8> {
    format_request_with(method, path, body, close, &[])
}

/// [`format_request`] with extra `(name, value)` headers (e.g. the
/// [`DEADLINE_HEADER`]).
pub fn format_request_with(
    method: &str,
    path: &str,
    body: Option<&[u8]>,
    close: bool,
    extra: &[(String, String)],
) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nhost: localhost\r\n");
    for (name, value) in extra {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    if let Some(body) = body {
        out.push_str("content-type: application/json\r\n");
        out.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    if close {
        out.push_str("connection: close\r\n");
    }
    out.push_str("\r\n");
    let mut bytes = out.into_bytes();
    if let Some(body) = body {
        bytes.extend_from_slice(body);
    }
    bytes
}

/// A default per-read socket timeout tuned for a local service: long
/// enough for a slow client, short enough that a stuck worker frees
/// itself.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        let mut cursor = Cursor::new(bytes.to_vec());
        let mut buf = Vec::new();
        read_request(&mut cursor, &mut buf, &Limits::default())
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse(b"GET /v1/stats?verbose=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/stats");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(!req.close);
    }

    #[test]
    fn parses_a_post_with_content_length_body() {
        let req = parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 11\r\nConnection: close\r\n\r\nhello world",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello world");
        assert!(req.close);
    }

    #[test]
    fn pipelined_requests_stay_in_the_buffer() {
        let bytes = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".to_vec();
        let mut cursor = Cursor::new(bytes);
        let mut buf = Vec::new();
        let limits = Limits::default();
        let a = read_request(&mut cursor, &mut buf, &limits).unwrap();
        assert_eq!(a.path, "/a");
        assert!(!buf.is_empty(), "second request should be buffered");
        let b = read_request(&mut cursor, &mut buf, &limits).unwrap();
        assert_eq!(b.path, "/b");
        assert!(buf.is_empty());
    }

    #[test]
    fn classifies_malformed_heads() {
        for (bytes, want_code) in [
            (&b"NOT-HTTP\r\n\r\n"[..], "malformed_request"),
            (b"GET /x\r\n\r\n", "malformed_request"),
            (b"get /x HTTP/1.1\r\n\r\n", "malformed_request"),
            (b"GET /x SPDY/3\r\n\r\n", "malformed_request"),
            (b"GET /x HTTP/1.1\r\nno-colon\r\n\r\n", "malformed_request"),
            (
                b"POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
                "malformed_request",
            ),
            (
                b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
                "not_implemented",
            ),
        ] {
            let err = parse(bytes).unwrap_err();
            assert_eq!(err.code(), want_code, "for {bytes:?}");
            assert!(err.status().is_some());
        }
    }

    #[test]
    fn eof_before_and_mid_message_are_distinct() {
        assert_eq!(parse(b"").unwrap_err(), HttpError::Closed);
        assert_eq!(parse(b"GET /x HT").unwrap_err(), HttpError::Truncated);
        // Body shorter than the declared length.
        assert_eq!(
            parse(b"POST /x HTTP/1.1\r\ncontent-length: 50\r\n\r\nshort").unwrap_err(),
            HttpError::Truncated
        );
    }

    #[test]
    fn limits_are_enforced_before_reading_bodies() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 16,
            ..Limits::default()
        };
        let mut buf = Vec::new();
        let big_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        let err = read_request(&mut Cursor::new(big_head.into_bytes()), &mut buf, &limits);
        assert_eq!(err.unwrap_err(), HttpError::HeadTooLarge);
        buf.clear();
        // The oversized body is rejected from the header alone; its bytes
        // are never awaited.
        let err = read_request(
            &mut Cursor::new(b"POST /x HTTP/1.1\r\ncontent-length: 1000000\r\n\r\n".to_vec()),
            &mut buf,
            &limits,
        );
        assert_eq!(err.unwrap_err(), HttpError::BodyTooLarge);
    }

    #[test]
    fn response_round_trips_through_the_client_reader() {
        let response = Response::json(201, "{\"ok\": true}".into());
        let mut wire = Vec::new();
        write_response(&mut wire, &response).unwrap();
        let mut buf = Vec::new();
        let parsed =
            read_client_response(&mut Cursor::new(wire), &mut buf, &Limits::default()).unwrap();
        assert_eq!(parsed.status, 201);
        assert_eq!(parsed.body, b"{\"ok\": true}");
        assert!(!parsed.close);
    }

    #[test]
    fn a_response_is_one_write() {
        /// Accepts every byte, counting the `write` calls.
        #[derive(Default)]
        struct CountingWrite {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWrite {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut shed = Response::error(503, "overloaded", "retry later").closing();
        shed.headers.push(("retry-after".into(), "1".into()));
        for response in [Response::json(200, "{\"ok\": true}".into()), shed] {
            let mut wire = CountingWrite::default();
            write_response(&mut wire, &response).unwrap();
            assert_eq!(wire.writes, 1, "head and body go out together");
            let parsed = read_client_response(
                &mut Cursor::new(wire.bytes),
                &mut Vec::new(),
                &Limits::default(),
            )
            .unwrap();
            assert_eq!(parsed.status, response.status);
            assert_eq!(parsed.body, response.body);
            assert_eq!(parsed.close, response.close);
        }
    }

    #[test]
    fn error_bodies_escape_every_message_per_rfc_8259() {
        let body = |message: &str| {
            let response = Response::error(400, "malformed_request", message);
            String::from_utf8(response.body).unwrap()
        };
        assert_eq!(
            body("plain"),
            r#"{"error": {"code": "malformed_request", "message": "plain"}}"#
        );
        let quoted = HttpError::Malformed(format!("bad header line {:?}", "X\"Y")).to_string();
        assert_eq!(quoted, r#"malformed request: bad header line "X\"Y""#);
        assert!(body(&quoted).ends_with(r#""malformed request: bad header line \"X\\\"Y\""}}"#));
        assert!(body("a\\b\n\r\t").contains(r#""a\\b\n\r\t""#));
        assert!(body("\u{0}\u{1}\u{1f}é").contains(r#""\u0000\u0001\u001fé""#));
    }

    #[test]
    fn every_answered_read_error_is_in_the_api_error_table() {
        let all = [
            HttpError::Closed,
            HttpError::IdleTimeout,
            HttpError::Timeout,
            HttpError::DeadlineLapsed,
            HttpError::Truncated,
            HttpError::Malformed(String::new()),
            HttpError::HeadTooLarge,
            HttpError::BodyTooLarge,
            HttpError::Unsupported(String::new()),
            HttpError::Reset,
            HttpError::Io(String::new()),
        ];
        // Exhaustive on purpose: a new variant stops this compiling until
        // it is listed above.
        for error in &all {
            match error {
                HttpError::Closed
                | HttpError::IdleTimeout
                | HttpError::Timeout
                | HttpError::DeadlineLapsed
                | HttpError::Truncated
                | HttpError::Malformed(_)
                | HttpError::HeadTooLarge
                | HttpError::BodyTooLarge
                | HttpError::Unsupported(_)
                | HttpError::Reset
                | HttpError::Io(_) => {}
            }
        }
        let api = include_str!("../../../docs/API.md");
        for error in &all {
            let Some(status) = error.status() else {
                continue;
            };
            let row = format!("| {status} | `{}` |", error.code());
            assert!(api.contains(&row), "docs/API.md lacks the row {row:?}");
        }
    }

    #[test]
    fn http_10_and_connection_headers_drive_keep_alive() {
        let req = parse(b"GET /x HTTP/1.0\r\n\r\n").unwrap();
        assert!(req.close, "HTTP/1.0 defaults to close");
        let req = parse(b"GET /x HTTP/1.0\r\nconnection: keep-alive\r\n\r\n").unwrap();
        assert!(!req.close);
        let req = parse(b"GET /x HTTP/1.1\r\nconnection: close\r\n\r\n").unwrap();
        assert!(req.close);
    }

    #[test]
    fn deadline_header_and_default_deadline_populate_the_request() {
        let req = parse(b"GET /x HTTP/1.1\r\nx-deadline-ms: 250\r\n\r\n").unwrap();
        let remaining = req.remaining().expect("deadline set");
        assert!(remaining <= Duration::from_millis(250));
        assert!(!req.expired());

        // No header, no default: never expires.
        let req = parse(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.deadline.is_none() && req.remaining().is_none());

        // No header, but a per-Limits default.
        let limits = Limits {
            default_deadline: Some(Duration::from_secs(5)),
            ..Limits::default()
        };
        let mut buf = Vec::new();
        let req = read_request(
            &mut Cursor::new(b"GET /x HTTP/1.1\r\n\r\n".to_vec()),
            &mut buf,
            &limits,
        )
        .unwrap();
        assert!(req.deadline.is_some());

        // An already-lapsed deadline parses but reports expired.
        let req = parse(b"GET /x HTTP/1.1\r\nx-deadline-ms: 0\r\n\r\n").unwrap();
        assert!(req.expired());
        assert_eq!(req.remaining(), Some(Duration::ZERO));

        // A garbage value is a malformed request, not a panic.
        let err = parse(b"GET /x HTTP/1.1\r\nx-deadline-ms: soon\r\n\r\n").unwrap_err();
        assert_eq!(err.code(), "malformed_request");
    }

    #[test]
    fn head_and_body_halves_compose_and_split_at_the_body_boundary() {
        let bytes = b"POST /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nhelloGET /next HTTP/1.1\r\n\r\n";
        let mut cursor = Cursor::new(bytes.to_vec());
        let mut buf = Vec::new();
        let limits = Limits::default();
        let head = read_request_head(&mut cursor, &mut buf, &limits).unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/x");
        assert_eq!(head.content_length, 5);
        assert!(!head.expired());
        // The head is drained; the body (and the pipelined follower)
        // wait at the front of the buffer.
        assert!(buf.starts_with(b"hello"));
        let req = read_request_body(&mut cursor, &mut buf, head, &limits).unwrap();
        assert_eq!(req.body, b"hello");
        let next = read_request(&mut cursor, &mut buf, &limits).unwrap();
        assert_eq!(next.path, "/next");
    }

    #[test]
    fn a_deadline_lapsing_mid_body_is_504_not_408() {
        // The head arrives whole with a 20 ms deadline and a 1000-byte
        // promise; the body then drips too slowly to ever finish.
        struct SlowBody {
            sent_head: bool,
        }
        impl Read for SlowBody {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if !self.sent_head {
                    self.sent_head = true;
                    let head =
                        b"POST /x HTTP/1.1\r\nx-deadline-ms: 20\r\ncontent-length: 1000\r\n\r\n";
                    out[..head.len()].copy_from_slice(head);
                    return Ok(head.len());
                }
                std::thread::sleep(Duration::from_millis(5));
                out[0] = b'x';
                Ok(1)
            }
        }
        let mut buf = Vec::new();
        let err = read_request(
            &mut SlowBody { sent_head: false },
            &mut buf,
            &Limits::default(),
        )
        .unwrap_err();
        assert_eq!(err, HttpError::DeadlineLapsed);
        assert_eq!(err.status(), Some(504));
        assert_eq!(err.code(), "deadline_exceeded");
    }

    #[test]
    fn reset_maps_to_a_silent_close() {
        struct ResetStream;
        impl Read for ResetStream {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::ConnectionReset.into())
            }
        }
        let mut buf = Vec::new();
        let err = read_request(&mut ResetStream, &mut buf, &Limits::default()).unwrap_err();
        assert_eq!(err, HttpError::Reset);
        assert_eq!(err.status(), None, "nobody left to answer");
        assert_eq!(err.code(), "peer_reset");
    }

    #[test]
    fn a_drip_fed_head_is_cut_off_at_the_read_time_cap() {
        // A reader that yields one byte per call, forever — the socket
        // timeout would never fire because every read makes progress.
        struct Drip {
            data: &'static [u8],
            at: usize,
        }
        impl Read for Drip {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_millis(2));
                let b = self.data[self.at % self.data.len()];
                self.at += 1;
                out[0] = b;
                Ok(1)
            }
        }
        let limits = Limits {
            max_read_time: Some(Duration::from_millis(30)),
            ..Limits::default()
        };
        let mut buf = Vec::new();
        let started = Instant::now();
        let err = read_request(
            &mut Drip {
                data: b"GET /x HTTP/1.1\r\nx-pad: aaaaaaaa",
                at: 0,
            },
            &mut buf,
            &limits,
        )
        .unwrap_err();
        assert_eq!(err, HttpError::Timeout, "dripper must be cut off");
        assert!(started.elapsed() < Duration::from_secs(5), "and promptly");
    }

    #[test]
    fn format_request_with_carries_extra_headers() {
        let bytes = format_request_with(
            "GET",
            "/x",
            None,
            false,
            &[("x-deadline-ms".into(), "100".into())],
        );
        let req = parse(&bytes).unwrap();
        assert_eq!(req.header("x-deadline-ms"), Some("100"));
        assert!(req.deadline.is_some());
    }

    #[test]
    fn format_request_is_readable_by_the_server_side() {
        let bytes = format_request("POST", "/v1/x", Some(b"{\"a\":1}"), false);
        let req = parse(&bytes).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/x");
        assert_eq!(req.body, b"{\"a\":1}");
    }
}
