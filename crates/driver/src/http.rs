//! Minimal HTTP/1.1 framing for the `nascentd` service and its clients.
//!
//! One request per connection (`Connection: close`), which keeps the
//! framing trivial and makes per-request backpressure exact: a queued
//! connection is a queued request.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request body (a benchmark source is a few KB; 8 MiB
/// leaves room for generated programs without letting a client pin
/// unbounded memory).
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// Largest accepted request line plus headers: the service reads a
/// handful of short headers, so 64 KiB bounds the memory one client can
/// pin before its body is even sized.
pub const MAX_HEAD: usize = 64 * 1024;

/// Time one request may take to arrive, counted from its first read: a
/// client that sends nothing, or trickles bytes, is cut off after it
/// instead of holding a worker.
pub const READ_DEADLINE: Duration = Duration::from_secs(2);

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// `GET`, `POST`, …
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Raw query string (the part after `?`, empty when absent).
    pub query: String,
    /// Body bytes (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The value of query parameter `key` (`a=1&b=2` syntax; no percent
    /// decoding — the service's parameters are plain tokens). A bare key
    /// with no `=` yields `Some("")`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// A stream whose reads share one deadline: each read blocks at most
/// until it, so the whole request, not each read, is bounded in time.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let timed_out = || {
            io::Error::new(
                io::ErrorKind::TimedOut,
                format!("request not received within {READ_DEADLINE:?}"),
            )
        };
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(timed_out());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf).map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => timed_out(),
            _ => e,
        })
    }
}

/// Reads one line of the request head, charging it to `budget`, the head
/// bytes still allowed. A line the budget cuts short is an error.
fn head_line(reader: &mut impl BufRead, budget: &mut u64) -> io::Result<String> {
    let mut line = String::new();
    let n = reader.take(*budget).read_line(&mut line)?;
    *budget -= n as u64;
    if *budget == 0 && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request line and headers exceed the {MAX_HEAD}-byte limit"),
        ));
    }
    Ok(line)
}

/// Reads one request from the stream within [`READ_DEADLINE`] of the
/// call, its head bounded by [`MAX_HEAD`] and its body by [`MAX_BODY`].
/// `Err` carries a human-readable reason suitable for a 400 response.
pub fn read_request(stream: &mut TcpStream) -> Result<HttpRequest, String> {
    let mut reader = BufReader::new(DeadlineReader {
        stream,
        deadline: Instant::now() + READ_DEADLINE,
    });
    let mut budget = MAX_HEAD as u64;
    let line =
        head_line(&mut reader, &mut budget).map_err(|e| format!("read request line: {e}"))?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("missing request target")?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut content_length = 0usize;
    loop {
        let header =
            head_line(&mut reader, &mut budget).map_err(|e| format!("read header: {e}"))?;
        if header.is_empty() {
            return Err("connection closed mid-headers".into());
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| "bad Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds limit"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    Ok(HttpRequest {
        method,
        path,
        query,
        body,
    })
}

/// Writes one response and flushes. Errors are ignored beyond reporting:
/// a client that hung up mid-response has already received its answer or
/// never will.
pub fn write_response(stream: &mut TcpStream, status: u16, content_type: &str, body: &[u8]) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

/// Client side: sends one request to `addr` and returns
/// `(status, body)`. Used by `bench_service`, the smoke tests, and any
/// Rust-side client of a running `nascentd`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body))
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read status: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line `{}`", status_line.trim()))?;
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        let n = reader
            .read_line(&mut header)
            .map_err(|e| format!("read header: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-headers".into());
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader
                .read_exact(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
        None => {
            reader
                .read_to_end(&mut body)
                .map_err(|e| format!("read body: {e}"))?;
        }
    }
    Ok((status, body))
}
