//! End-to-end service tests: a real TCP server, real client connections,
//! concurrent readers during a bulk import, and graceful shutdown.

use genmapper::{GenMapper, SharedGenMapper};
use serve::{call, Server, ServerConfig};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use relstore::sync::{SeqCount, SeqFlag};
use std::sync::Arc;

fn start_server(imported: bool, threads: usize) -> Server {
    let mut gm = GenMapper::in_memory().unwrap();
    if imported {
        let eco = Ecosystem::generate(EcosystemParams::demo(7));
        gm.import_dumps(&eco.dumps).unwrap();
    }
    let shared = Arc::new(SharedGenMapper::new(gm).unwrap());
    Server::start(
        shared,
        &ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            threads,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn endpoints_over_the_wire() {
    let server = start_server(true, 2);
    let addr = server.local_addr().to_string();

    let (ok, body) = call(&addr, "ping").unwrap();
    assert!(ok);
    assert_eq!(body, "pong\n");

    let (ok, body) = call(&addr, "stats").unwrap();
    assert!(ok);
    assert!(body.contains("19 sources"), "stats: {body}");

    let (ok, body) = call(&addr, "query LocusLink:353 or Hugo GO").unwrap();
    assert!(ok);
    assert!(body.contains("APRT"));

    // explain returns the cost-based plan tree for the same query, with
    // actual cardinalities from a one-shot instrumented snapshot run
    let (ok, plan) = call(&addr, "explain LocusLink:353 or Hugo GO").unwrap();
    assert!(ok, "explain: {plan}");
    assert!(plan.starts_with("generate-view OR"), "plan root: {plan}");
    assert!(plan.contains("target"), "target nodes: {plan}");
    assert!(plan.contains("actual="), "actuals: {plan}");
    let (ok, bad) = call(&addr, "explain").unwrap();
    assert!(!ok, "explain without a query must fail: {bad}");

    let (ok, body) = call(&addr, "path NetAffx GO").unwrap();
    assert!(ok);
    assert!(body.starts_with("NetAffx ->"));

    let (ok, body) = call(&addr, "no-such-endpoint").unwrap();
    assert!(!ok);
    assert!(body.contains("unknown endpoint"));

    let (_, _, reads, _, errors) = server.stats().snapshot();
    assert!(reads >= 5, "reads counted: {reads}");
    // two failed requests above: unknown endpoint + explain without query
    assert_eq!(errors, 2);

    server.shutdown().unwrap();
}

#[test]
fn persistent_connections_carry_many_requests() {
    let server = start_server(true, 2);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // a response that never comes fails the test instead of hanging it
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // one request at a time, then pipelined pairs sent in one write
    for pipelined in [1, 1, 1, 1, 2, 2, 2] {
        stream.write_all("stats\n".repeat(pipelined).as_bytes()).unwrap();
        for _ in 0..pipelined {
            let (ok, body) = serve::server::read_response(&mut reader).unwrap();
            assert!(ok);
            assert!(body.contains("snapshot version"));
        }
    }
    writeln!(stream, "quit").unwrap();
    let (connections, requests, ..) = server.stats().snapshot();
    assert_eq!(connections, 1);
    assert_eq!(requests, 10);
    server.shutdown().unwrap();
}

#[test]
fn readers_progress_during_bulk_import() {
    // start empty: the import below is the first real write
    let server = start_server(false, 4);
    let addr = server.local_addr().to_string();

    let stop = Arc::new(SeqFlag::default());
    let reads_done = Arc::new(SeqCount::default());
    let mut readers = Vec::new();
    for _ in 0..3 {
        let addr = addr.clone();
        let stop = stop.clone();
        let reads_done = reads_done.clone();
        readers.push(std::thread::spawn(move || {
            while !stop.get() {
                let (ok, _) = call(&addr, "import-status").unwrap();
                assert!(ok);
                reads_done.add(1);
            }
        }));
    }

    // the write: a full demo-ecosystem import through the service
    let (ok, body) = call(&addr, "import demo 7").unwrap();
    assert!(ok, "import failed: {body}");
    assert!(body.contains("19 sources"), "import summary: {body}");

    stop.set(true);
    for r in readers {
        r.join().unwrap();
    }
    assert!(
        reads_done.get() > 0,
        "readers progressed during the import"
    );

    // post-import reads see the new snapshot
    let (ok, body) = call(&addr, "query LocusLink:353 or Hugo").unwrap();
    assert!(ok, "query after import: {body}");
    assert!(body.contains("APRT"));
    server.shutdown().unwrap();
}

#[test]
fn graceful_shutdown_joins_all_workers() {
    let server = start_server(false, 3);
    let addr = server.local_addr().to_string();
    let (ok, _) = call(&addr, "ping").unwrap();
    assert!(ok);
    server.shutdown().unwrap();
    // the port no longer accepts requests (connect may succeed briefly on
    // some stacks, but a request gets no response)
    if let Ok((_, body)) = call(&addr, "ping") {
        panic!("server still answering after shutdown: {body}");
    }
}
