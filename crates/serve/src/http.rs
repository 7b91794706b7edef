//! A minimal HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! Hand-rolled on purpose — the workspace's no-external-deps house style —
//! and deliberately small: keep-alive per HTTP/1.1 defaults, the only
//! headers honoured are `Content-Length` (bounded), `Connection` and the
//! deadline header consumed by the handlers, and everything else is passed
//! through untouched. That covers every client the service targets:
//! `curl`, Prometheus scrapers, load generators and the repo's own tests.
//!
//! The read path is overload-hardened: [`Conn::read_request`] enforces one
//! *total* deadline from the first byte of a request to its last, re-arming
//! the socket timeout with the remaining budget before every `recv`. A
//! slowloris client that trickles one header byte per poll therefore still
//! exhausts the budget and gets [`HttpError::Timeout`] (answered `408`),
//! instead of resetting a per-`recv` timer forever. Waiting for the *first*
//! byte is separate (`idle_timeout`): expiring there is a normal keep-alive
//! close ([`HttpError::Closed`]), not a client error.
//!
//! The write path has one rule: **one response, one write, `TCP_NODELAY`**.
//! [`write_response`] and [`ChunkedResponse::chunk`] assemble head and
//! payload in the connection's reused buffer and hand the kernel one
//! segment's worth at a time; the connection loop sets `TCP_NODELAY` on
//! every accepted stream. Split writes on a Nagle socket cost a closed-loop
//! client the peer's delayed-ACK timer (≈ 40 ms) on every response.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest accepted header section, request line included.
const MAX_HEADER_BYTES: usize = 16 * 1024;

/// How often the first-byte wait wakes to poll the abort hook.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// After abort (shutdown) flips, how long the first-byte wait still accepts
/// bytes already in flight, so drained connections get an honest `503`
/// instead of a silent close.
const SHUTDOWN_GRACE: Duration = Duration::from_millis(200);

/// Read-buffer size; requests larger than this just take several `recv`s.
const READ_BUF: usize = 4096;

/// The Prometheus text exposition content type `/metrics` must serve —
/// scrapers negotiate on the `version` parameter, so a bare `text/plain`
/// is out of spec.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The NDJSON content type used by the streaming progress endpoint.
pub const NDJSON_CONTENT_TYPE: &str = "application/x-ndjson";

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Raw query string after `?`, or empty.
    pub query: String,
    /// Headers in arrival order, names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether HTTP/1.1 keep-alive semantics apply (version + `Connection`).
    keep_alive: bool,
}

impl Request {
    /// Whether the query string contains `key=1` or a bare `key` flag.
    pub fn flag(&self, key: &str) -> bool {
        self.query
            .split('&')
            .any(|kv| kv == key || kv == format!("{key}=1") || kv == format!("{key}=true"))
    }

    /// Value of query parameter `key` (`?key=value`), if present. A bare
    /// `key` with no `=` yields an empty string.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (k == key).then_some(v)
        })
    }

    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection may serve another request after this one:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with an explicit
    /// `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }
}

#[cfg(test)]
impl Request {
    /// A keep-alive `POST` of `body` to `path`, as the session loop hands
    /// it to the handlers.
    pub(crate) fn post(path: &str, body: &str) -> Self {
        Self {
            method: "POST".to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }
}

/// Errors from the read path; each maps to one connection outcome.
#[derive(Debug)]
#[non_exhaustive]
pub enum HttpError {
    /// Malformed request line or headers — answered `400`.
    Malformed(String),
    /// Body longer than the server accepts — answered `413`.
    TooLarge(usize),
    /// A request started arriving but missed the total read deadline
    /// (slowloris headers, stalled body) — answered `408`.
    Timeout,
    /// The peer went away (or keep-alive idled out) before sending a
    /// request — close silently, there is nobody to answer.
    Closed,
    /// Socket-level failure mid-request.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(what) => write!(f, "malformed request: {what}"),
            Self::TooLarge(cap) => write!(f, "request body exceeds {cap} bytes"),
            Self::Timeout => write!(f, "request read deadline exceeded"),
            Self::Closed => write!(f, "peer closed the connection"),
            Self::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A buffered connection reader that carries leftover bytes across
/// requests, so pipelined keep-alive clients are read correctly.
pub struct Conn<'a> {
    stream: &'a TcpStream,
    buf: [u8; READ_BUF],
    pos: usize,
    len: usize,
}

impl<'a> Conn<'a> {
    /// Wraps a blocking stream. The stream's read timeout is managed by
    /// this reader from here on.
    pub fn new(stream: &'a TcpStream) -> Self {
        Self {
            stream,
            buf: [0; READ_BUF],
            pos: 0,
            len: 0,
        }
    }

    fn buffered(&self) -> bool {
        self.pos < self.len
    }

    /// One `recv` bounded by `deadline`; returns the byte count (0 = EOF).
    /// Precondition: the buffer is drained.
    fn fill(&mut self, deadline: Instant) -> Result<usize, HttpError> {
        let now = Instant::now();
        if now >= deadline {
            return Err(HttpError::Timeout);
        }
        // Re-arm with the *remaining* budget: this is what defeats
        // slowloris — each byte received does not reset the clock.
        self.stream
            .set_read_timeout(Some((deadline - now).max(Duration::from_millis(1))))?;
        loop {
            match (&mut &*self.stream).read(&mut self.buf) {
                Ok(n) => {
                    self.pos = 0;
                    self.len = n;
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
                Err(e) => return Err(HttpError::Io(e)),
            }
        }
    }

    fn next_byte(&mut self, deadline: Instant) -> Result<Option<u8>, HttpError> {
        if !self.buffered() && self.fill(deadline)? == 0 {
            return Ok(None);
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(Some(b))
    }

    /// One `\n`-terminated line with the terminator (and a preceding `\r`)
    /// stripped. EOF mid-line is malformed: the request already started.
    fn read_line(
        &mut self,
        deadline: Instant,
        header_bytes: &mut usize,
    ) -> Result<String, HttpError> {
        let mut line = Vec::new();
        loop {
            match self.next_byte(deadline)? {
                None => return Err(HttpError::Malformed("unexpected end of request".into())),
                Some(b'\n') => break,
                Some(b) => line.push(b),
            }
            *header_bytes += 1;
            if *header_bytes > MAX_HEADER_BYTES {
                return Err(HttpError::Malformed("header section too long".into()));
            }
        }
        if line.last() == Some(&b'\r') {
            line.pop();
        }
        String::from_utf8(line).map_err(|_| HttpError::Malformed("header is not UTF-8".into()))
    }

    fn read_exact(&mut self, out: &mut [u8], deadline: Instant) -> Result<(), HttpError> {
        let mut filled = 0;
        while filled < out.len() {
            if !self.buffered() && self.fill(deadline)? == 0 {
                return Err(HttpError::Malformed(
                    "body shorter than Content-Length".into(),
                ));
            }
            let n = (self.len - self.pos).min(out.len() - filled);
            out[filled..filled + n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            filled += n;
        }
        Ok(())
    }

    /// Blocks until the first byte of the next request is available, up to
    /// `idle_timeout`, polling `abort` every [`IDLE_POLL`]. Once `abort`
    /// flips, bytes already in flight are still accepted for a short grace
    /// window so the request can be answered honestly.
    fn await_request(
        &mut self,
        idle_timeout: Duration,
        abort: &dyn Fn() -> bool,
    ) -> Result<(), HttpError> {
        if self.buffered() {
            return Ok(()); // pipelined bytes from the previous recv
        }
        let idle_deadline = Instant::now() + idle_timeout;
        let mut grace: Option<Instant> = None;
        loop {
            let now = Instant::now();
            if grace.is_none() && abort() {
                grace = Some(now + SHUTDOWN_GRACE);
            }
            let deadline = grace.map_or(idle_deadline, |g| g.min(idle_deadline));
            if now >= deadline {
                return Err(HttpError::Closed);
            }
            let slice = now + (deadline - now).min(IDLE_POLL);
            match self.fill(slice) {
                Ok(0) => return Err(HttpError::Closed),
                Ok(_) => return Ok(()),
                Err(HttpError::Timeout) => continue,
                // Reset while idle: nothing to answer.
                Err(HttpError::Io(_)) => return Err(HttpError::Closed),
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads and parses one request. `read_timeout` is the total budget
    /// from first byte to end of body; `idle_timeout` bounds the wait for
    /// the first byte (keep-alive); `abort` ends the idle wait early
    /// (graceful shutdown). Bodies longer than `max_body` are rejected.
    pub fn read_request(
        &mut self,
        max_body: usize,
        read_timeout: Duration,
        idle_timeout: Duration,
        abort: &dyn Fn() -> bool,
    ) -> Result<Request, HttpError> {
        self.await_request(idle_timeout, abort)?;
        let deadline = Instant::now() + read_timeout;
        let mut header_bytes = 0usize;

        let line = self.read_line(deadline, &mut header_bytes)?;
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_alphabetic()))
            .ok_or_else(|| HttpError::Malformed("bad request line".into()))?
            .to_ascii_uppercase();
        let target = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
        let version = parts.next().unwrap_or("HTTP/1.0");
        if !version.starts_with("HTTP/") {
            return Err(HttpError::Malformed(format!("bad version {version}")));
        }
        let http11 = version != "HTTP/1.0";
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };

        let mut headers: Vec<(String, String)> = Vec::new();
        let mut content_length = 0usize;
        loop {
            let header = self.read_line(deadline, &mut header_bytes)?;
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(HttpError::Malformed("header without a colon".into()));
            };
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::Malformed("bad Content-Length".into()))?;
            }
            headers.push((name, value));
        }
        if content_length > max_body {
            return Err(HttpError::TooLarge(max_body));
        }
        let mut body = vec![0u8; content_length];
        self.read_exact(&mut body, deadline)?;

        let connection = headers
            .iter()
            .find(|(n, _)| n == "connection")
            .map(|(_, v)| v.to_ascii_lowercase());
        let keep_alive = match connection.as_deref() {
            Some("close") => false,
            Some("keep-alive") => true,
            _ => http11,
        };
        Ok(Request {
            method,
            path,
            query,
            headers,
            body,
            keep_alive,
        })
    }
}

/// One response, ready to serialize. Built by the handlers; the connection
/// loop decides the `Connection` header.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Optional `Retry-After` (seconds) — set on 429/503 load sheds so
    /// honest clients know when to come back.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A response with no `Retry-After`.
    pub fn new(status: u16, content_type: &'static str, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type,
            body: body.into(),
            retry_after: None,
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self::new(status, "application/json", body)
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self::new(status, "text/plain", body)
    }

    /// Attaches a `Retry-After: secs` header.
    #[must_use]
    pub fn with_retry_after(mut self, secs: u32) -> Self {
        self.retry_after = Some(secs);
        self
    }
}

/// Reason phrase for every status this server can send.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Sends one response in **one** `write`: status line, headers and body are
/// serialised into `out` (cleared first — the connection loop owns it and
/// reuses it, so steady-state transport allocates nothing) and leave
/// together. A head and a body written separately would make the body wait
/// for the peer's delayed ACK of the head (≈ 40 ms per response in
/// closed-loop rhythm). `keep_alive` picks the `Connection` header; the
/// caller closes the stream when it is `false`.
pub fn write_response(
    mut stream: &TcpStream,
    out: &mut Vec<u8>,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    out.clear();
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len(),
    )?;
    if let Some(secs) = resp.retry_after {
        write!(out, "Retry-After: {secs}\r\n")?;
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(out, "Connection: {connection}\r\n\r\n")?;
    out.extend_from_slice(resp.body.as_bytes());
    stream.write_all(out)
}

/// An in-flight HTTP/1.1 chunked-transfer response.
///
/// Buffered responses carry `Content-Length`; streaming endpoints (NDJSON
/// progress) cannot know their length up front, so they use chunked
/// transfer encoding instead: each [`chunk`] sends a `{len:x}\r\n…\r\n`
/// frame — one `write` per frame, built in the connection's reused buffer,
/// for the same reason [`write_response`] sends one — and [`finish`] writes
/// the `0\r\n\r\n` terminator. The head pins `Connection: close` — a
/// stream's natural end is the terminator, and closing keeps the connection
/// loop out of the streaming path entirely.
///
/// Dropping without [`finish`] leaves the stream unterminated, which a
/// well-behaved client detects as a truncated body — the honest signal for
/// an aborted stream.
///
/// [`chunk`]: ChunkedResponse::chunk
/// [`finish`]: ChunkedResponse::finish
pub struct ChunkedResponse<'a> {
    stream: &'a TcpStream,
    buf: &'a mut Vec<u8>,
}

impl<'a> ChunkedResponse<'a> {
    /// Writes the response head and arms chunked encoding; `buf` is the
    /// scratch every later frame is assembled in.
    pub fn begin(
        mut stream: &'a TcpStream,
        buf: &'a mut Vec<u8>,
        status: u16,
        content_type: &str,
    ) -> std::io::Result<Self> {
        buf.clear();
        write!(
            buf,
            "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status),
        )?;
        stream.write_all(buf)?;
        Ok(Self { stream, buf })
    }

    /// Sends one chunk in one `write` so the client sees it immediately.
    /// Empty payloads are skipped — a zero-length chunk is the terminator.
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.buf.clear();
        write!(self.buf, "{:x}\r\n", data.len())?;
        self.buf.extend_from_slice(data);
        self.buf.extend_from_slice(b"\r\n");
        let mut stream = self.stream;
        stream.write_all(self.buf)
    }

    /// Writes the terminating zero-length chunk.
    pub fn finish(self) -> std::io::Result<()> {
        let mut stream = self.stream;
        stream.write_all(b"0\r\n\r\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;

    const NO_ABORT: fn() -> bool = || false;

    /// Sends `raw`, reads one request server-side, keeps the client socket
    /// alive until the server is done.
    fn roundtrip(raw: &str, max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            s.flush().unwrap();
            let _ = done_rx.recv(); // hold the socket open until read returns
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(&stream);
        let req = conn.read_request(
            max_body,
            Duration::from_secs(2),
            Duration::from_secs(2),
            &NO_ABORT,
        );
        let _ = done_tx.send(());
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_request_line_query_headers_and_body() {
        let req = roundtrip(
            "POST /query?explain=1 HTTP/1.1\r\nHost: x\r\nX-ACQ-Deadline-Ms: 250\r\n\
             Content-Length: 5\r\n\r\nhello",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.query, "explain=1");
        assert!(req.flag("explain"));
        assert!(!req.flag("verbose"));
        assert_eq!(req.header("x-acq-deadline-ms"), Some("250"));
        assert_eq!(req.header("X-ACQ-Deadline-Ms"), Some("250"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_header_and_version_drive_keep_alive() {
        let close = roundtrip("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 64).unwrap();
        assert!(!close.keep_alive());
        let old = roundtrip("GET / HTTP/1.0\r\nHost: x\r\n\r\n", 64).unwrap();
        assert!(!old.keep_alive(), "HTTP/1.0 defaults to close");
        let old_ka = roundtrip("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 64).unwrap();
        assert!(old_ka.keep_alive());
    }

    #[test]
    fn rejects_oversized_bodies_and_garbage() {
        let err = roundtrip("POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\n", 10).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge(10)), "{err}");
        let err = roundtrip("\x16\x03\x01\x02garbage\r\n\r\n", 10).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
        let err = roundtrip("GET / FTP/9.9\r\n\r\n", 10).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }

    #[test]
    fn stalled_request_times_out_and_pure_idle_closes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Half a request line, then silence: the total deadline fires.
            s.write_all(b"POST /qu").unwrap();
            s.flush().unwrap();
            let _ = done_rx.recv();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(&stream);
        let err = conn
            .read_request(
                64,
                Duration::from_millis(150),
                Duration::from_secs(2),
                &NO_ABORT,
            )
            .unwrap_err();
        assert!(matches!(err, HttpError::Timeout), "{err}");
        // A second read on the now-quiet connection idles out silently.
        let err = conn
            .read_request(
                64,
                Duration::from_millis(150),
                Duration::from_millis(150),
                &NO_ABORT,
            )
            .unwrap_err();
        assert!(matches!(err, HttpError::Closed), "{err}");
        let _ = done_tx.send(());
        client.join().unwrap();
    }

    #[test]
    fn abort_hook_ends_the_idle_wait() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(&stream);
        let t0 = Instant::now();
        let err = conn
            .read_request(64, Duration::from_secs(5), Duration::from_secs(30), &|| {
                true
            })
            .unwrap_err();
        assert!(matches!(err, HttpError::Closed), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "abort must beat the idle timeout, took {:?}",
            t0.elapsed()
        );
        drop(client);
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
                  GET /b HTTP/1.1\r\nHost: x\r\n\r\n",
            )
            .unwrap();
            s.flush().unwrap();
            let _ = done_rx.recv();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(&stream);
        let first = conn
            .read_request(
                64,
                Duration::from_secs(2),
                Duration::from_secs(2),
                &NO_ABORT,
            )
            .unwrap();
        assert_eq!(
            (first.path.as_str(), first.body.as_slice()),
            ("/a", &b"hi"[..])
        );
        let second = conn
            .read_request(
                64,
                Duration::from_secs(2),
                Duration::from_secs(2),
                &NO_ABORT,
            )
            .unwrap();
        assert_eq!(second.path, "/b");
        assert!(second.body.is_empty());
        let _ = done_tx.send(());
        client.join().unwrap();
    }

    #[test]
    fn query_params_parse_values_and_bare_keys() {
        let req = roundtrip(
            "GET /trace/1?window=15&format=chrome&bare HTTP/1.1\r\nHost: x\r\n\r\n",
            64,
        )
        .unwrap();
        assert_eq!(req.param("window"), Some("15"));
        assert_eq!(req.param("format"), Some("chrome"));
        assert_eq!(req.param("bare"), Some(""));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn chunked_responses_frame_and_terminate() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut raw = String::new();
            s.read_to_string(&mut raw).unwrap();
            raw
        });
        let (stream, _) = listener.accept().unwrap();
        let mut buf = Vec::new();
        let mut resp = ChunkedResponse::begin(&stream, &mut buf, 200, NDJSON_CONTENT_TYPE).unwrap();
        resp.chunk(b"{\"layer\":1}\n").unwrap();
        resp.chunk(b"").unwrap(); // empty payloads must not terminate the stream
        resp.chunk(b"{\"layer\":2}\n").unwrap();
        resp.finish().unwrap();
        drop(stream);
        let raw = reader.join().unwrap();
        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        assert!(
            raw.contains("Transfer-Encoding: chunked\r\n") && !raw.contains("Content-Length"),
            "{raw}"
        );
        assert!(raw.contains("Connection: close\r\n"), "{raw}");
        // 12 bytes per line -> hex "c" framing, then the terminator.
        assert!(raw.contains("c\r\n{\"layer\":1}\n\r\n"), "{raw}");
        assert!(raw.contains("c\r\n{\"layer\":2}\n\r\n"), "{raw}");
        assert!(raw.ends_with("0\r\n\r\n"), "{raw}");
    }

    #[test]
    fn reason_phrases_cover_every_emitted_status() {
        for (status, phrase) in [
            (200, "OK"),
            (202, "Accepted"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (405, "Method Not Allowed"),
            (408, "Request Timeout"),
            (413, "Payload Too Large"),
            (429, "Too Many Requests"),
            (500, "Internal Server Error"),
            (503, "Service Unavailable"),
        ] {
            assert_eq!(reason(status), phrase);
        }
        assert_eq!(reason(418), "Unknown");
    }

    #[test]
    fn responses_serialize_with_retry_after_and_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut raw = String::new();
            s.read_to_string(&mut raw).unwrap();
            raw
        });
        let (stream, _) = listener.accept().unwrap();
        let resp = Response::json(429, "{\"error\":\"rate limited\"}").with_retry_after(2);
        let mut out = b"stale bytes from the previous response".to_vec();
        write_response(&stream, &mut out, &resp, false).unwrap();
        drop(stream);
        let raw = reader.join().unwrap();
        // Exact bytes: the reused buffer is cleared first, and the header
        // order is the wire format clients have always seen.
        assert_eq!(
            raw,
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: 24\r\nRetry-After: 2\r\nConnection: close\r\n\r\n\
             {\"error\":\"rate limited\"}"
        );
    }
}
