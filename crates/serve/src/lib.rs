//! A concurrent annotation service over one
//! [`SharedGenMapper`](genmapper::SharedGenMapper).
//!
//! The paper deploys GenMapper behind a web interface queried by many
//! users while imports run in the back office (§5). This crate reproduces
//! that shape as a small threaded TCP service: every read request
//! (query / generate-view / pathfinding / stats) executes against the
//! currently published [`genmapper::Snapshot`] — an `Arc` handle obtained
//! in one lock-free-in-spirit clone — while write requests (imports,
//! materializations) run under the single writer lock and publish a fresh
//! snapshot when done. Readers never block on the writer.
//!
//! # Protocol
//!
//! One request per line, UTF-8: `<endpoint> [args...]\n`. The response is
//! a header line followed by a length-delimited body:
//!
//! ```text
//! ok <len>\n<len bytes of body>
//! err <kind> <len>\n<len bytes of message>
//! ```
//!
//! `kind` is one of `bad-request`, `not-found`, `too-large`, `busy`,
//! `timeout`, `unavailable`, `internal` — `busy` and `unavailable` are
//! retryable after backoff. Connections are persistent: clients may send
//! any number of requests; `quit` (or EOF) ends the connection. Query
//! words use the same grammar as the CLI REPL's `query` command.
//!
//! # Hardening
//!
//! The service treats every client as potentially slow or hostile
//! (DESIGN.md §15):
//!
//! * every accepted socket goes through the [`conn::ConnGuard`] seam —
//!   read/write deadlines plus a cap on the request line, so a slow-loris
//!   or unterminated request cannot pin a worker or grow memory;
//! * writes pass admission control ([`genmapper::SharedGenMapper::try_admit_write`]):
//!   beyond the configured in-flight budget they are shed with `err busy`
//!   instead of queueing invisibly behind the writer mutex — reads always
//!   proceed off the published snapshot;
//! * `health` / `ready` report liveness vs. drain state, and shed /
//!   timeout / oversize counters fold into `stats`;
//! * [`faultnet::FaultNet`] injects deterministic network faults
//!   (delays, disconnects, torn frames, stalls) for the chaos sweeps in
//!   `tests/chaos.rs`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod conn;
pub mod error;
pub mod faultnet;
pub mod handler;
pub mod server;

pub use conn::{
    call, call_retry, call_with, read_response, read_response_with, CallReport, ClientConfig,
    Response,
};
pub use error::{ServeError, ServeErrorKind};
pub use faultnet::{FaultNet, NetFaultPlan};
pub use handler::{handle_request, is_read_request, RequestContext};
pub use server::{Server, ServerConfig, ServerStats};
