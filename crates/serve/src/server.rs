//! The threaded request loop: N acceptor/worker threads over one
//! listening socket, deadline-guarded connections, admission-controlled
//! writes, and drain-bounded graceful shutdown.
//!
//! Every accepted socket is wrapped in a [`ConnGuard`]
//! before a byte is read — the deadline / size-cap seam `tests/hardening.rs`
//! drives over real TCP. The client helpers (`call`,
//! `read_response`) live in [`crate::conn`] and are re-exported here for
//! compatibility.

use crate::conn::{ConnGuard, RequestRead};
use crate::error::{ServeError, ServeErrorKind};
use crate::handler::{handle_request, RequestClass, RequestContext};
use genmapper::SharedGenMapper;
use relstore::sync::{Counter, SeqFlag};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::conn::{call, read_response};

/// Server configuration: bind/threading plus the hardening knobs
/// (deadlines, size caps, write budget, drain bound).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7070`. Port `0` picks a free port
    /// (tests, harnesses).
    pub addr: String,
    /// Worker threads accepting and serving connections.
    pub threads: usize,
    /// Per-connection read deadline: a connection idle (or dribbling an
    /// unfinished request) longer than this is evicted. Zero disables.
    pub read_timeout: Duration,
    /// Per-connection write deadline for one response frame. Zero
    /// disables.
    pub write_timeout: Duration,
    /// Cap on one request line; an over-budget line gets `err too-large`
    /// and the connection is closed.
    pub max_request_bytes: usize,
    /// Write-admission budget: writes admitted (queued or executing)
    /// beyond this are shed with retryable `err busy`. Reads are never
    /// admission-controlled.
    pub max_in_flight_writes: usize,
    /// How long [`Server::shutdown`] waits for workers to finish their
    /// in-flight connections before detaching them.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7070".to_owned(),
            threads: 4,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_request_bytes: 64 * 1024,
            max_in_flight_writes: 2,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Monotonic service counters, updated by workers as relaxed
/// [`Counter`]s — readers of the stats never block request handling.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub connections: Counter,
    pub requests: Counter,
    pub reads: Counter,
    pub writes: Counter,
    pub errors: Counter,
    /// Writes shed by admission control (`err busy`).
    pub shed_writes: Counter,
    /// Connections evicted at the read deadline.
    pub timeouts: Counter,
    /// Connections closed for an over-budget request line.
    pub oversized: Counter,
}

impl ServerStats {
    /// A plain-data copy of the request counters.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64) {
        (
            self.connections.get(),
            self.requests.get(),
            self.reads.get(),
            self.writes.get(),
            self.errors.get(),
        )
    }

    /// A plain-data copy of the hardening counters:
    /// `(shed_writes, timeouts, oversized)`.
    pub fn hardening_snapshot(&self) -> (u64, u64, u64) {
        (
            self.shed_writes.get(),
            self.timeouts.get(),
            self.oversized.get(),
        )
    }
}

/// A running annotation service.
pub struct Server {
    shared: Arc<SharedGenMapper>,
    local_addr: std::net::SocketAddr,
    stop: Arc<SeqFlag>,
    stats: Arc<ServerStats>,
    drain_timeout: Duration,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `shared` with `config.threads` workers.
    pub fn start(shared: Arc<SharedGenMapper>, config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(SeqFlag::default());
        let stats = Arc::new(ServerStats::default());
        let threads = config.threads.max(1);
        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let listener = listener.try_clone()?;
            let shared = shared.clone();
            let stop = stop.clone();
            let stats = stats.clone();
            let config = config.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&listener, &shared, &stop, &stats, &config))?,
            );
        }
        Ok(Server {
            shared,
            local_addr,
            stop,
            stats,
            drain_timeout: config.drain_timeout,
            workers,
        })
    }

    /// The bound address (resolves port `0` binds).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The shared system behind the server.
    pub fn shared(&self) -> &Arc<SharedGenMapper> {
        &self.shared
    }

    /// Service counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Graceful shutdown: stop accepting, unblock every worker, then wait
    /// up to `drain_timeout` for in-flight connections to finish. Workers
    /// that drain in time are joined; if the deadline passes, the
    /// stragglers are detached (their connections die at the read
    /// deadline) and `TimedOut` is returned.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop.set(true);
        // each worker sits in accept(); one self-connection apiece wakes
        // them to observe the stop flag
        for _ in 0..self.workers.len() {
            let _ = TcpStream::connect(self.local_addr);
        }
        let deadline = Instant::now() + self.drain_timeout;
        loop {
            if self.workers.iter().all(|w| w.is_finished()) {
                for worker in self.workers.drain(..) {
                    worker
                        .join()
                        .map_err(|_| io::Error::other("serve worker panicked"))?;
                }
                return Ok(());
            }
            if Instant::now() >= deadline {
                let stuck = self.workers.len();
                self.workers.clear();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "drain incomplete after {:?}: detached {stuck} worker(s) \
                         still serving connections",
                        self.drain_timeout
                    ),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Accept loop of one worker: serve a connection to completion, then
/// accept the next. The stop flag is checked after every accept so a
/// shutdown self-connection terminates the loop.
fn worker_loop(
    listener: &TcpListener,
    shared: &SharedGenMapper,
    stop: &SeqFlag,
    stats: &ServerStats,
    config: &ServerConfig,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.get() {
                    return;
                }
                continue;
            }
        };
        if stop.get() {
            return;
        }
        stats.connections.add(1);
        // a broken connection only ends that connection
        let _ = serve_connection(stream, shared, stop, stats, config);
    }
}

/// Serve one persistent connection: request lines in, framed responses
/// out, every byte through the [`ConnGuard`] seam. Deadline expiry and
/// over-budget requests close the connection after a best-effort error
/// frame.
fn serve_connection(
    stream: TcpStream,
    shared: &SharedGenMapper,
    stop: &SeqFlag,
    stats: &ServerStats,
    config: &ServerConfig,
) -> io::Result<()> {
    let mut conn = ConnGuard::new(stream, config)?;
    loop {
        match conn.read_request()? {
            RequestRead::Eof => break,
            RequestRead::TimedOut => {
                stats.timeouts.add(1);
                let _ = conn.write_err(&ServeError::timeout(format!(
                    "no complete request within {:?}; closing connection",
                    config.read_timeout
                )));
                break;
            }
            RequestRead::TooLarge => {
                stats.oversized.add(1);
                let _ = conn.write_err(&ServeError::too_large(format!(
                    "request line exceeds {} bytes; closing connection",
                    config.max_request_bytes
                )));
                break;
            }
            RequestRead::Line(line) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                if trimmed == "quit" {
                    break;
                }
                stats.requests.add(1);
                let ctx = RequestContext {
                    max_in_flight_writes: config.max_in_flight_writes,
                    stats: Some(stats),
                    draining: stop.get(),
                };
                match handle_request(shared, trimmed, &ctx) {
                    Ok((body, class)) => {
                        match class {
                            RequestClass::Read => stats.reads.add(1),
                            RequestClass::Write => stats.writes.add(1),
                        };
                        conn.write_ok(&body)?;
                    }
                    Err(e) => {
                        stats.errors.add(1);
                        if e.kind == ServeErrorKind::Busy {
                            stats.shed_writes.add(1);
                        }
                        conn.write_err(&e)?;
                    }
                }
                if stop.get() {
                    break;
                }
            }
        }
    }
    Ok(())
}
