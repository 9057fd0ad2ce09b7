//! The one socket-discipline seam of the service: every byte the server
//! or the bundled client moves over TCP goes through this module.
//!
//! [`ConnGuard`] wraps an accepted connection with the three protections
//! raw `BufReader::lines()` lacks:
//!
//! * **deadlines** — `set_read_timeout` / `set_write_timeout` are applied
//!   at construction, so a slow-loris peer is evicted instead of pinning
//!   a worker thread forever;
//! * **bounded request framing** — the line reader buffers at most
//!   `max_request_bytes`; an unterminated request reports
//!   [`RequestRead::TooLarge`] instead of growing memory without bound;
//! * **single-write responses** — each response frame is assembled and
//!   written with one `write_all`, keeping the write deadline meaningful.
//!
//! The client half ([`call`], [`call_retry`], [`read_response_with`])
//! lives here for the same reason: `read_response` used to allocate
//! `vec![0u8; len]` from a wire-controlled header, so a bad (or
//! byzantine) server could OOM its clients. Response bodies above the
//! configured cap are rejected with `InvalidData` *before* allocation.
//!
//! `tests/hardening.rs` pins this seam over real TCP: a slow-loris peer
//! is evicted at the read deadline and an oversized request is refused.
//! A raw reader put in front of it makes the server wait for input no
//! client sends first, so the `serve` suites hang — no lint rule is
//! needed to catch it.

use crate::error::ServeError;
use crate::server::ServerConfig;
use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Read chunk size for the capped line reader.
const READ_CHUNK: usize = 4096;

/// Cap on a response *header* line (`ok <len>` / `err <kind> <len>`);
/// independent of the body cap so a garbage header can't run the reader
/// unbounded either.
const MAX_HEADER_BYTES: u64 = 4096;

/// Default client-side cap on response bodies (16 MiB).
pub const DEFAULT_MAX_RESPONSE_BYTES: usize = 16 << 20;

/// One request-line read outcome on a guarded connection.
#[derive(Debug, PartialEq, Eq)]
pub enum RequestRead {
    /// A complete request line (newline stripped, may still need
    /// trimming).
    Line(String),
    /// The peer closed the connection.
    Eof,
    /// More than `max_request_bytes` buffered without a newline — the
    /// caller should answer `err too-large` and close.
    TooLarge,
    /// The read deadline expired mid-request — the caller should answer
    /// `err timeout` (best effort) and close.
    TimedOut,
}

/// A server-side connection with deadlines and bounded framing applied.
pub struct ConnGuard {
    stream: TcpStream,
    /// Bytes received but not yet returned as lines.
    pending: Vec<u8>,
    max_request_bytes: usize,
}

impl ConnGuard {
    /// Wrap an accepted stream, applying nodelay and both deadlines from
    /// `config`.
    pub fn new(stream: TcpStream, config: &ServerConfig) -> io::Result<ConnGuard> {
        // Small request/response frames ping-pong on this socket; without
        // nodelay the Nagle + delayed-ACK interaction costs ~40ms per
        // turn.
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(some_timeout(config.read_timeout))?;
        stream.set_write_timeout(some_timeout(config.write_timeout))?;
        Ok(ConnGuard {
            stream,
            pending: Vec::new(),
            max_request_bytes: config.max_request_bytes.max(1),
        })
    }

    /// Read the next request line, enforcing the size cap and the read
    /// deadline. Pipelined lines already buffered are returned without
    /// touching the socket.
    pub fn read_request(&mut self) -> io::Result<RequestRead> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(RequestRead::Line(
                    String::from_utf8_lossy(&line).into_owned(),
                ));
            }
            if self.pending.len() > self.max_request_bytes {
                return Ok(RequestRead::TooLarge);
            }
            let mut chunk = [0u8; READ_CHUNK];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    if self.pending.is_empty() {
                        return Ok(RequestRead::Eof);
                    }
                    // a trailing unterminated line is still a request
                    let line = String::from_utf8_lossy(&self.pending).into_owned();
                    self.pending.clear();
                    return Ok(RequestRead::Line(line));
                }
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                    return Ok(RequestRead::TimedOut)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Frame and send one success response in a single write.
    pub fn write_ok(&mut self, body: &str) -> io::Result<()> {
        let frame = format!("ok {}\n{}", body.len(), body);
        self.stream.write_all(frame.as_bytes())
    }

    /// Frame and send one error response in a single write.
    pub fn write_err(&mut self, e: &ServeError) -> io::Result<()> {
        let frame = format!("err {} {}\n{}", e.kind.token(), e.message.len(), e.message);
        self.stream.write_all(frame.as_bytes())
    }
}

/// `Duration::ZERO` would make `set_read_timeout` error; treat it as "no
/// deadline" like the `None` the std API wants.
fn some_timeout(d: Duration) -> Option<Duration> {
    if d.is_zero() {
        None
    } else {
        Some(d)
    }
}

// ---------------------------------------------------------------- client

/// Client-side limits for one call: deadlines plus the response-size cap.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub read_timeout: Duration,
    pub write_timeout: Duration,
    /// Reject response bodies larger than this before allocating.
    pub max_response_bytes: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_response_bytes: DEFAULT_MAX_RESPONSE_BYTES,
        }
    }
}

/// One parsed response frame, with the error kind token preserved so
/// clients can distinguish retryable `busy` from terminal failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub ok: bool,
    /// The `err <kind>` token (`busy`, `not-found`, ...); `None` on `ok`.
    pub kind: Option<String>,
    pub body: String,
}

/// Send one request to a running server and return `(ok, body)` — the
/// client side of the protocol, used by `genmapper-cli call` and the load
/// harness. Applies the default [`ClientConfig`] deadlines and caps.
pub fn call(addr: &str, request: &str) -> io::Result<(bool, String)> {
    let resp = call_with(addr, request, &ClientConfig::default())?;
    Ok((resp.ok, resp.body))
}

/// [`call`] with explicit client limits, returning the full [`Response`].
pub fn call_with(addr: &str, request: &str, config: &ClientConfig) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(some_timeout(config.read_timeout))?;
    stream.set_write_timeout(some_timeout(config.write_timeout))?;
    stream.write_all(format!("{}\n", request.trim()).as_bytes())?;
    let mut reader = io::BufReader::new(stream);
    read_response_with(&mut reader, config.max_response_bytes)
}

/// Read one framed response from `reader`, with the default response-size
/// cap. Exposed so clients holding a persistent connection can reuse it.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<(bool, String)> {
    let resp = read_response_with(reader, DEFAULT_MAX_RESPONSE_BYTES)?;
    Ok((resp.ok, resp.body))
}

/// Read one framed response, rejecting headers that announce a body
/// larger than `max_response_bytes` with `InvalidData` *before*
/// allocating — the wire-controlled length must never size an
/// allocation unchecked.
pub fn read_response_with(
    reader: &mut impl BufRead,
    max_response_bytes: usize,
) -> io::Result<Response> {
    let mut header = String::new();
    if reader.by_ref().take(MAX_HEADER_BYTES).read_line(&mut header)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before response header",
        ));
    }
    let header = header.trim_end();
    let (ok, kind, len) = parse_response_header(header).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad header {header:?}"))
    })?;
    if len > max_response_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response of {len} bytes exceeds the {max_response_bytes}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))?;
    Ok(Response { ok, kind, body })
}

/// `ok <len>` / `err <kind> <len>` → `(ok, kind, len)`.
fn parse_response_header(header: &str) -> Option<(bool, Option<String>, usize)> {
    let mut words = header.split_whitespace();
    match words.next()? {
        "ok" => {
            let len = words.next()?.parse().ok()?;
            Some((true, None, len))
        }
        "err" => {
            let kind = words.next()?.to_owned();
            let len = words.next()?.parse().ok()?;
            Some((false, Some(kind), len))
        }
        _ => None,
    }
}

// ----------------------------------------------------------------- retry

/// Capped, jittered exponential backoff for the client call path.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for deterministic jitter (each backoff is scaled into
    /// [50%, 100%] of its nominal value).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            seed: 0x5eed,
        }
    }
}

/// The outcome of a retried call, with the attempt count surfaced so
/// harnesses can report how much retrying actually happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallReport {
    pub ok: bool,
    pub kind: Option<String>,
    pub body: String,
    /// Attempts actually made (1 = first try succeeded).
    pub attempts: u32,
}

/// [`call_with`] plus capped jittered retry for *read-class* requests:
/// connection-level failures and retryable server errors (`err busy`)
/// are retried up to `retry.attempts` times. Write requests are never
/// retried — a write whose response was lost may have executed, and the
/// protocol does not promise idempotence.
pub fn call_retry(
    addr: &str,
    request: &str,
    config: &ClientConfig,
    retry: &RetryPolicy,
) -> io::Result<CallReport> {
    let retryable_request = crate::handler::is_read_request(request);
    let attempts_cap = retry.attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let more = retryable_request && attempt < attempts_cap;
        match call_with(addr, request, config) {
            Ok(resp) => {
                let transient = resp
                    .kind
                    .as_deref()
                    .is_some_and(|k| k == "busy" || k == "unavailable");
                if !(transient && more) {
                    return Ok(CallReport {
                        ok: resp.ok,
                        kind: resp.kind,
                        body: resp.body,
                        attempts: attempt,
                    });
                }
            }
            Err(e) => {
                let transient = matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionRefused
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::NotConnected
                        | io::ErrorKind::UnexpectedEof
                );
                if !(transient && more) {
                    return Err(e);
                }
            }
        }
        std::thread::sleep(backoff_for(retry, attempt));
    }
}

/// The sleep before attempt `attempt + 1`: base doubled per retry, capped,
/// then deterministically jittered into [50%, 100%].
fn backoff_for(retry: &RetryPolicy, attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(16);
    let nominal = retry
        .base_backoff
        .saturating_mul(1u32 << exp)
        .min(retry.max_backoff);
    let r = splitmix(retry.seed ^ u64::from(attempt));
    let scale_milli = 500 + (r % 501); // 500..=1000 per-mille
    nominal.saturating_mul(scale_milli as u32) / 1000
}

/// SplitMix64 step — cheap deterministic jitter without a rand dep.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn response_header_parses() {
        assert_eq!(parse_response_header("ok 12"), Some((true, None, 12)));
        assert_eq!(
            parse_response_header("err not-found 3"),
            Some((false, Some("not-found".to_owned()), 3))
        );
        assert_eq!(parse_response_header("nope"), None);
        assert_eq!(parse_response_header("ok lots"), None);
        assert_eq!(parse_response_header(""), None);
    }

    #[test]
    fn oversized_response_header_is_rejected_before_allocation() {
        // a giant announced length must fail fast, not allocate
        let mut r = Cursor::new(b"ok 999999999999\nx".to_vec());
        let e = read_response_with(&mut r, 1 << 20).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("cap"), "{e}");
        // at exactly the cap the read proceeds
        let mut r = Cursor::new(b"ok 2\nhi".to_vec());
        let resp = read_response_with(&mut r, 2).unwrap();
        assert_eq!(resp.body, "hi");
        // one over fails
        let mut r = Cursor::new(b"ok 3\nhi!".to_vec());
        assert!(read_response_with(&mut r, 2).is_err());
    }

    #[test]
    fn error_kind_token_is_surfaced() {
        let mut r = Cursor::new(b"err busy 5\nshed!".to_vec());
        let resp = read_response_with(&mut r, 1024).unwrap();
        assert!(!resp.ok);
        assert_eq!(resp.kind.as_deref(), Some("busy"));
        assert_eq!(resp.body, "shed!");
    }

    #[test]
    fn unterminated_garbage_header_is_bounded() {
        // no newline in sight: the header read stops at MAX_HEADER_BYTES
        // and parsing fails instead of reading forever
        let junk = vec![b'x'; 64 * 1024];
        let mut r = Cursor::new(junk);
        let e = read_response_with(&mut r, 1024).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let retry = RetryPolicy::default();
        let b1 = backoff_for(&retry, 1);
        let b2 = backoff_for(&retry, 2);
        let b9 = backoff_for(&retry, 9);
        // jitter keeps every sleep within [50%, 100%] of nominal
        assert!(b1 >= Duration::from_millis(5) && b1 <= Duration::from_millis(10));
        assert!(b2 >= Duration::from_millis(10) && b2 <= Duration::from_millis(20));
        assert!(b9 <= retry.max_backoff, "{b9:?} capped");
        // deterministic: same policy, same attempt, same sleep
        assert_eq!(backoff_for(&retry, 3), backoff_for(&retry, 3));
    }
}
