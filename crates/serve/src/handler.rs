//! Per-endpoint request handlers.
//!
//! [`handle_request`] is the whole service brain: it parses one request
//! line, grabs either the published snapshot (reads) or the writer lock
//! (writes), and renders a text body. It holds no lock while executing a
//! read: the snapshot `Arc` comes out of a `relstore::sync::Swap`, which
//! hands out no guard to hold.

use crate::error::ServeError;
use crate::server::ServerStats;
use genmapper::cli::parse_query;
use genmapper::{ExportFormat, SharedGenMapper, Snapshot};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use std::fmt::Write as _;
use std::sync::Arc;

/// Whether a handled request went down the read or the write path
/// (service statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    Read,
    Write,
}

/// Per-request service context: the write-admission budget, the service
/// counters folded into the `stats` body, and the draining flag `ready`
/// reports on.
#[derive(Debug, Clone, Copy)]
pub struct RequestContext<'a> {
    /// Writes admitted (queued or executing) beyond this budget are shed
    /// with retryable `err busy`.
    pub max_in_flight_writes: usize,
    /// Service counters, when handling inside a running server; `None`
    /// in bare/unit use omits the `service:` line from `stats`.
    pub stats: Option<&'a ServerStats>,
    /// True once graceful drain began — `ready` flips to unavailable
    /// while reads keep answering.
    pub draining: bool,
}

impl Default for RequestContext<'static> {
    /// Bare context for direct/unit use: unlimited write budget, no
    /// service counters, not draining.
    fn default() -> Self {
        RequestContext {
            max_in_flight_writes: usize::MAX,
            stats: None,
            draining: false,
        }
    }
}

/// Largest `k` the `paths` endpoint answers. Yen's algorithm is quadratic
/// in `k` and reads are not admission-controlled, so an unbounded `k` lets
/// one request line occupy a worker for minutes; no client of this service
/// asks for more than a handful of alternatives. (The REPL serves one local
/// user and is not capped.)
const MAX_PATHS_K: usize = 100;

/// Whether a request line names a read-class endpoint. Read-class
/// requests answer from the published snapshot, are never
/// admission-controlled, and are safe for clients to retry; anything
/// else (including unknown verbs) is treated as non-retryable.
pub fn is_read_request(line: &str) -> bool {
    matches!(
        line.split_whitespace().next().unwrap_or(""),
        "ping"
            | "stats"
            | "sources"
            | "query"
            | "explain"
            | "view"
            | "path"
            | "paths"
            | "info"
            | "import-status"
            | "health"
            | "ready"
    )
}

/// Handle one request line against the shared system. Returns the
/// response body and the request class.
pub fn handle_request(
    shared: &SharedGenMapper,
    line: &str,
    ctx: &RequestContext<'_>,
) -> Result<(String, RequestClass), ServeError> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let Some((&verb, rest)) = words.split_first() else {
        return Err(ServeError::bad_request("empty request"));
    };
    match verb {
        // ---------------- read path: published snapshot only ----------
        "ping" => Ok(("pong\n".to_owned(), RequestClass::Read)),
        // liveness: answers as long as the request loop runs, even while
        // draining — orchestrators should not kill a draining process
        "health" => Ok(("ok\n".to_owned(), RequestClass::Read)),
        // readiness: unavailable once drain began, so load balancers stop
        // routing new work while in-flight requests finish
        "ready" => {
            if ctx.draining {
                return Err(ServeError::unavailable(
                    "draining: finishing in-flight requests, not accepting new work",
                ));
            }
            let (v0, v1) = shared.snapshot().version();
            Ok((
                format!(
                    "ready version={v0}.{v1} in_flight_writes={}\n",
                    shared.in_flight_writes()
                ),
                RequestClass::Read,
            ))
        }
        "stats" => {
            let snap = shared.snapshot();
            Ok((render_stats(&snap, ctx)?, RequestClass::Read))
        }
        "sources" => {
            let snap = shared.snapshot();
            let mut out = String::new();
            for s in snap.sources()? {
                let _ = writeln!(out, "{}\t{}\t{}", s.name, s.content, s.structure);
            }
            Ok((out, RequestClass::Read))
        }
        "query" => {
            let spec = parse_query(rest).map_err(|e| ServeError::bad_request(e.to_string()))?;
            let snap = shared.snapshot();
            Ok((snap.render_query(&spec, ExportFormat::Tsv)?, RequestClass::Read))
        }
        "explain" => {
            // the cost-based plan for a query, answered from the published
            // snapshot — the same planner the read path executes
            let spec = parse_query(rest).map_err(|e| ServeError::bad_request(e.to_string()))?;
            let snap = shared.snapshot();
            Ok((snap.explain(&spec)?, RequestClass::Read))
        }
        "view" => {
            // generate-view with an explicit export format
            let Some((&format, query_words)) = rest.split_first() else {
                return Err(ServeError::bad_request(
                    "usage: view <tsv|csv|json|md> <query words>",
                ));
            };
            let spec =
                parse_query(query_words).map_err(|e| ServeError::bad_request(e.to_string()))?;
            let format = ExportFormat::parse(format).ok_or_else(|| {
                ServeError::bad_request(format!("unknown view format {format:?}"))
            })?;
            let snap = shared.snapshot();
            Ok((snap.render_query(&spec, format)?, RequestClass::Read))
        }
        "path" => match rest {
            [from, to] => {
                let snap = shared.snapshot();
                let path = snap.find_path(from, to)?;
                Ok((format!("{}\n", path.join(" -> ")), RequestClass::Read))
            }
            _ => Err(ServeError::bad_request("usage: path <from> <to>")),
        },
        "paths" => match rest {
            [from, to, k] => {
                let k: usize = k
                    .parse()
                    .map_err(|_| ServeError::bad_request("paths takes a numeric k"))?;
                if k > MAX_PATHS_K {
                    return Err(ServeError::bad_request(format!(
                        "paths answers at most {MAX_PATHS_K} paths, got k = {k}"
                    )));
                }
                let snap = shared.snapshot();
                let mut out = String::new();
                for path in snap.find_paths(from, to, k)? {
                    let _ = writeln!(out, "{}", path.join(" -> "));
                }
                Ok((out, RequestClass::Read))
            }
            _ => Err(ServeError::bad_request("usage: paths <from> <to> <k>")),
        },
        "info" => match rest {
            [source, accession] => {
                let snap = shared.snapshot();
                let info = snap.object_info(source, accession)?;
                Ok((info.to_string(), RequestClass::Read))
            }
            _ => Err(ServeError::bad_request("usage: info <source> <accession>")),
        },
        "import-status" => {
            let status = shared.import_status();
            Ok((
                format!(
                    "writing={} completed={} version={}.{}\n",
                    status.writing,
                    status.completed,
                    status.published_version.0,
                    status.published_version.1
                ),
                RequestClass::Read,
            ))
        }
        // ---------------- write path: admission, single writer, publish
        "import" => match rest {
            ["demo", seed] => {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| ServeError::bad_request("import demo takes a numeric seed"))?;
                let permit = admit_write(shared, ctx)?;
                let n = permit.run(|gm| {
                    let eco = Ecosystem::generate(EcosystemParams::demo(seed));
                    Ok(gm.import_dumps(&eco.dumps)?.len())
                })?;
                let snap = shared.snapshot();
                Ok((
                    format!("imported {} dumps; {}\n", n, snap.cardinalities()?),
                    RequestClass::Write,
                ))
            }
            _ => Err(ServeError::bad_request("usage: import demo <seed>")),
        },
        "materialize" => match rest {
            ["composed", path @ ..] if path.len() >= 2 => {
                let permit = admit_write(shared, ctx)?;
                let (rel, n) = permit.run(|gm| gm.materialize_composed(path))?;
                Ok((
                    format!("materialized {rel} with {n} associations\n"),
                    RequestClass::Write,
                ))
            }
            ["subsumed", source] => {
                let permit = admit_write(shared, ctx)?;
                let (rel, n) = permit.run(|gm| gm.materialize_subsumed(source))?;
                Ok((
                    format!("materialized {rel} with {n} associations\n"),
                    RequestClass::Write,
                ))
            }
            _ => Err(ServeError::bad_request(
                "usage: materialize composed <s1> <s2> [...] | materialize subsumed <source>",
            )),
        },
        other => Err(ServeError::bad_request(format!(
            "unknown endpoint {other:?}"
        ))),
    }
}

/// Admit one write under the context's budget, or shed with a retryable
/// `err busy`. Holding the permit bounds the writer *queue* — the slot is
/// occupied while the write waits on the writer mutex, not just while it
/// executes.
fn admit_write<'a>(
    shared: &'a SharedGenMapper,
    ctx: &RequestContext<'_>,
) -> Result<genmapper::WritePermit<'a>, ServeError> {
    shared.try_admit_write(ctx.max_in_flight_writes).ok_or_else(|| {
        ServeError::busy(format!(
            "write budget exhausted ({} in flight, budget {}); retry after backoff",
            shared.in_flight_writes(),
            ctx.max_in_flight_writes
        ))
    })
}

/// The `stats` body: cardinalities, snapshot version, association total,
/// and — inside a running server — the service counters.
fn render_stats(snap: &Arc<Snapshot>, ctx: &RequestContext<'_>) -> Result<String, ServeError> {
    let cards = snap.cardinalities()?;
    let (v0, v1) = snap.version();
    let mut out = format!("{cards}\nsnapshot version {v0}.{v1}\n{}", snap.store_stats());
    if let Some(stats) = ctx.stats {
        let (connections, requests, reads, writes, errors) = stats.snapshot();
        let (shed_writes, timeouts, oversized) = stats.hardening_snapshot();
        let _ = writeln!(
            out,
            "service: connections={connections} requests={requests} reads={reads} \
             writes={writes} errors={errors} shed_writes={shed_writes} \
             timeouts={timeouts} oversized={oversized}"
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeErrorKind;
    use genmapper::GenMapper;

    fn shared() -> SharedGenMapper {
        let eco = Ecosystem::generate(EcosystemParams::demo(7));
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        SharedGenMapper::new(gm).unwrap()
    }

    fn bare() -> RequestContext<'static> {
        RequestContext::default()
    }

    #[test]
    fn read_endpoints_answer_from_the_snapshot() {
        let sh = shared();
        let ctx = bare();
        let (body, class) = handle_request(&sh, "ping", &ctx).unwrap();
        assert_eq!(body, "pong\n");
        assert_eq!(class, RequestClass::Read);

        let (body, _) = handle_request(&sh, "stats", &ctx).unwrap();
        assert!(body.contains("19 sources"), "stats: {body}");
        assert!(body.contains("snapshot version"));
        assert!(body.contains("object_rel") && body.contains("by_pair"), "index lines: {body}");
        assert!(
            !body.contains("service:"),
            "no service counters in bare context: {body}"
        );

        let (body, _) = handle_request(&sh, "sources", &ctx).unwrap();
        assert!(body.contains("LocusLink"));

        // every view body is the library's render of the same query, NULL
        // cells (the whole-source view's OMIM column) included
        for words in ["LocusLink:353 or Hugo GO", "Hugo or Location !OMIM"] {
            let spec = parse_query(&words.split_whitespace().collect::<Vec<_>>()).unwrap();
            let library = |format| sh.snapshot().query(&spec).unwrap().render(format).unwrap();
            let (body, _) = handle_request(&sh, &format!("query {words}"), &ctx).unwrap();
            assert_eq!(body, library(ExportFormat::Tsv), "query {words}");
            for format in ["tsv", "csv", "json", "md"] {
                let line = format!("view {format} {words}");
                let (body, _) = handle_request(&sh, &line, &ctx).unwrap();
                assert_eq!(body, library(ExportFormat::parse(format).unwrap()), "{line}");
            }
        }
        let (body, _) = handle_request(&sh, "query LocusLink:353 or Hugo GO", &ctx).unwrap();
        assert!(body.contains("\tAPRT\t"), "query: {body}");
        let (body, _) = handle_request(&sh, "view json Hugo or Location !OMIM", &ctx).unwrap();
        assert!(body.contains("\"OMIM\": null"), "a NULL cell: {body}");

        let (body, _) = handle_request(&sh, "path NetAffx GO", &ctx).unwrap();
        assert!(body.starts_with("NetAffx ->"));

        let (body, _) = handle_request(&sh, "paths NetAffx GO 2", &ctx).unwrap();
        assert!(body.lines().count() >= 1);

        let (body, _) = handle_request(&sh, "info LocusLink 353", &ctx).unwrap();
        assert!(body.contains("adenine phosphoribosyltransferase"));

        let (body, _) = handle_request(&sh, "import-status", &ctx).unwrap();
        assert!(body.starts_with("writing=false completed=0"));
    }

    #[test]
    fn health_and_ready_report_liveness_and_drain() {
        let sh = shared();
        let (body, class) = handle_request(&sh, "health", &bare()).unwrap();
        assert_eq!(body, "ok\n");
        assert_eq!(class, RequestClass::Read);

        let (body, _) = handle_request(&sh, "ready", &bare()).unwrap();
        assert!(body.starts_with("ready version="), "{body}");
        assert!(body.contains("in_flight_writes=0"), "{body}");

        let draining = RequestContext {
            draining: true,
            ..bare()
        };
        let e = handle_request(&sh, "ready", &draining).unwrap_err();
        assert_eq!(e.kind, ServeErrorKind::Unavailable);
        // liveness and reads still answer while draining
        assert!(handle_request(&sh, "health", &draining).is_ok());
        assert!(handle_request(&sh, "ping", &draining).is_ok());
    }

    #[test]
    fn stats_fold_in_service_counters_when_present() {
        let sh = shared();
        let stats = ServerStats::default();
        stats.shed_writes.add(3);
        let ctx = RequestContext {
            stats: Some(&stats),
            ..bare()
        };
        let (body, _) = handle_request(&sh, "stats", &ctx).unwrap();
        assert!(body.contains("service: connections=0"), "{body}");
        assert!(body.contains("shed_writes=3"), "{body}");
    }

    #[test]
    fn write_endpoints_go_through_the_writer_and_publish() {
        let sh = shared();
        let ctx = bare();
        let v0 = sh.snapshot().version();
        let (body, class) = handle_request(&sh, "materialize subsumed GO", &ctx).unwrap();
        assert!(body.starts_with("materialized"));
        assert_eq!(class, RequestClass::Write);
        assert_ne!(sh.snapshot().version(), v0, "write published a new snapshot");
        let (body, _) = handle_request(&sh, "import-status", &ctx).unwrap();
        assert!(body.contains("completed=1"));
    }

    #[test]
    fn writes_beyond_the_budget_are_shed_as_busy() {
        let sh = shared();
        // saturate the budget from outside, as a stuck write would
        let slot = sh.try_admit_write(1).unwrap();
        let ctx = RequestContext {
            max_in_flight_writes: 1,
            ..bare()
        };
        for write in ["materialize subsumed GO", "import demo 7"] {
            let e = handle_request(&sh, write, &ctx).unwrap_err();
            assert_eq!(e.kind, ServeErrorKind::Busy, "{write}");
            assert!(e.kind.is_retryable());
        }
        // reads are never admission-controlled
        assert!(handle_request(&sh, "query LocusLink:353 or Hugo", &ctx).is_ok());
        drop(slot);
        // the freed slot admits the same write
        assert!(handle_request(&sh, "materialize subsumed GO", &ctx).is_ok());
    }

    #[test]
    fn errors_carry_protocol_kinds() {
        let sh = shared();
        let ctx = bare();
        let e = handle_request(&sh, "frobnicate", &ctx).unwrap_err();
        assert_eq!(e.kind, ServeErrorKind::BadRequest);
        let e = handle_request(&sh, "path Nowhere GO", &ctx).unwrap_err();
        assert_eq!(e.kind, ServeErrorKind::NotFound);
        let e = handle_request(&sh, "query LocusLink", &ctx).unwrap_err();
        assert_eq!(e.kind, ServeErrorKind::BadRequest);
        // an unknown accession names the source as the client typed it
        let e = handle_request(&sh, "query LocusLink:nosuch or Hugo", &ctx).unwrap_err();
        assert_eq!(e.kind, ServeErrorKind::BadRequest);
        assert!(e.message.contains("LocusLink") && e.message.contains("nosuch"), "{}", e.message);
        // an empty accession list is refused, not widened to the whole source
        let e = handle_request(&sh, "query LocusLink: or Hugo", &ctx).unwrap_err();
        assert_eq!(e.kind, ServeErrorKind::BadRequest);
        // k is bounded on the wire: the largest allowed k answers, one more
        // is refused before any path search, and k = 0 asks for no path
        let (body, _) = handle_request(&sh, "paths NetAffx GO 100", &ctx).unwrap();
        assert!(body.starts_with("NetAffx ->"), "{body}");
        let e = handle_request(&sh, "paths NetAffx GO 101", &ctx).unwrap_err();
        assert_eq!(e.kind, ServeErrorKind::BadRequest);
        let (body, _) = handle_request(&sh, "paths NetAffx GO 0", &ctx).unwrap();
        assert_eq!(body, "");
        let e = handle_request(&sh, "", &ctx).unwrap_err();
        assert_eq!(e.kind, ServeErrorKind::BadRequest);
        // an isolated snapshot keeps answering while a write fails
        let e = handle_request(&sh, "materialize subsumed Nowhere", &ctx).unwrap_err();
        assert_eq!(e.kind, ServeErrorKind::NotFound);
        assert!(handle_request(&sh, "ping", &ctx).is_ok());
    }

    #[test]
    fn read_class_covers_exactly_the_snapshot_endpoints() {
        for read in [
            "ping", "stats", "sources", "query LocusLink:353", "explain x",
            "view md x", "path A B", "paths A B 2", "info A 1", "import-status",
            "health", "ready",
        ] {
            assert!(is_read_request(read), "{read} is read-class");
        }
        for other in ["import demo 7", "materialize subsumed GO", "quit", "frobnicate", ""] {
            assert!(!is_read_request(other), "{other} is not read-class");
        }
    }
}
