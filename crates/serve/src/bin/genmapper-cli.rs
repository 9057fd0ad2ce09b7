//! The GenMapper command-line front end: interactive REPL, annotation
//! service, and service client in one binary.
//!
//! ```text
//! genmapper-cli [OPTIONS]                  interactive shell (default)
//! genmapper-cli serve --addr H:P [OPTIONS] run the annotation service
//! genmapper-cli call --addr H:P <words..>  send one request to a service
//! ```
//!
//! REPL mode is the paper's interactive access (§5.1): `demo 7`,
//! `sources`, `query LocusLink:353 or Hugo GO`, `quit`.
//!
//! Service mode publishes MVCC snapshots: any number of clients read
//! (query/view/path/stats) while one writer imports or materializes;
//! readers never block on the writer. The service stops gracefully on
//! EOF or a `quit` line on stdin.
//!
//! Shared options:
//! * `--db DIR` opens (or creates) a durable store rooted at `DIR`.
//! * `--paged[=POOL_PAGES]` makes `--db` use paged table storage with a
//!   bounded buffer pool (default 64 pages).
//!
//! Serve-only options:
//! * `--addr HOST:PORT` bind address (default 127.0.0.1:7070; port 0
//!   picks a free port and prints it).
//! * `--threads N` service worker threads (default 4).
//! * `--demo SEED` pre-import a demo ecosystem before serving.

#![forbid(unsafe_code)]

use genmapper::cli::{CliOutcome, CliSession};
use genmapper::system::GenMapper;
use genmapper::SharedGenMapper;
use serve::{Server, ServerConfig};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;

const USAGE: &str = "usage: genmapper-cli [--db DIR [--paged[=POOL_PAGES]]]\n\
       genmapper-cli serve [--addr HOST:PORT] [--threads N] [--demo SEED] [store options]\n\
       genmapper-cli call [--addr HOST:PORT] <request words...>";

#[derive(Default)]
struct CliArgs {
    db: Option<PathBuf>,
    /// `Some(None)` = `--paged` with the default pool size.
    paged: Option<Option<usize>>,
    addr: Option<String>,
    threads: Option<usize>,
    demo: Option<u64>,
    /// Positional words (the request, in `call` mode).
    words: Vec<String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<CliArgs, String> {
    let mut parsed = CliArgs::default();
    let parse_pool = |value: &str| match value.parse() {
        Ok(0) | Err(_) => Err(format!("invalid --paged pool size {value:?}")),
        Ok(n) => Ok(n),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--db" {
            let value = args
                .next()
                .ok_or_else(|| "--db requires a directory".to_owned())?;
            parsed.db = Some(PathBuf::from(value));
        } else if let Some(value) = arg.strip_prefix("--db=") {
            parsed.db = Some(PathBuf::from(value));
        } else if arg == "--paged" {
            parsed.paged = Some(None);
        } else if let Some(value) = arg.strip_prefix("--paged=") {
            parsed.paged = Some(Some(parse_pool(value)?));
        } else if arg == "--addr" {
            let value = args
                .next()
                .ok_or_else(|| "--addr requires HOST:PORT".to_owned())?;
            parsed.addr = Some(value);
        } else if let Some(value) = arg.strip_prefix("--addr=") {
            parsed.addr = Some(value.to_owned());
        } else if arg == "--threads" {
            let value = args
                .next()
                .ok_or_else(|| "--threads requires a count".to_owned())?;
            parsed.threads =
                Some(value.parse().map_err(|_| {
                    format!("invalid --threads value {value:?}")
                })?);
        } else if let Some(value) = arg.strip_prefix("--threads=") {
            parsed.threads = Some(
                value
                    .parse()
                    .map_err(|_| format!("invalid --threads value {value:?}"))?,
            );
        } else if arg == "--demo" {
            let value = args
                .next()
                .ok_or_else(|| "--demo requires a seed".to_owned())?;
            parsed.demo = Some(
                value
                    .parse()
                    .map_err(|_| format!("invalid --demo seed {value:?}"))?,
            );
        } else if let Some(value) = arg.strip_prefix("--demo=") {
            parsed.demo = Some(
                value
                    .parse()
                    .map_err(|_| format!("invalid --demo seed {value:?}"))?,
            );
        } else if arg.starts_with("--") {
            return Err(format!("unknown argument {arg:?}; {USAGE}"));
        } else {
            parsed.words.push(arg);
            // everything after the first positional word is the request
            for rest in args.by_ref() {
                parsed.words.push(rest);
            }
        }
    }
    if parsed.paged.is_some() && parsed.db.is_none() {
        return Err(format!("--paged requires --db; {USAGE}"));
    }
    Ok(parsed)
}

fn open_system(args: &CliArgs) -> Result<GenMapper, String> {
    let gm = match &args.db {
        None => GenMapper::in_memory(),
        Some(dir) => match args.paged {
            None => GenMapper::open(dir),
            Some(pool_pages) => {
                let mut config = relstore::PoolConfig::default();
                if let Some(pages) = pool_pages {
                    config.pool_pages = pages;
                }
                GenMapper::open_paged(dir, config)
            }
        },
    };
    gm.map_err(|e| format!("failed to open store: {e}"))
}

fn run_repl(args: &CliArgs) -> Result<(), String> {
    let gm = open_system(args)?;
    let mut session = CliSession::with_system(gm);
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    println!("GenMapper shell — type 'help' for commands, 'demo 7' to load data");
    loop {
        print!("genmapper> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let (output, outcome) = session.execute_line(&line);
        print!("{output}");
        if outcome == CliOutcome::Quit {
            break;
        }
    }
    Ok(())
}

fn run_serve(args: &CliArgs) -> Result<(), String> {
    let mut gm = open_system(args)?;
    if let Some(seed) = args.demo {
        use sources::ecosystem::{Ecosystem, EcosystemParams};
        let eco = Ecosystem::generate(EcosystemParams::demo(seed));
        gm.import_dumps(&eco.dumps)
            .map_err(|e| format!("demo import failed: {e}"))?;
    }
    let shared = Arc::new(SharedGenMapper::new(gm).map_err(|e| format!("snapshot failed: {e}"))?);
    let config = ServerConfig {
        addr: args.addr.clone().unwrap_or_else(|| "127.0.0.1:7070".to_owned()),
        threads: args.threads.unwrap_or(4),
        // deadlines, size caps, write budget, drain bound
        ..ServerConfig::default()
    };
    let server =
        Server::start(shared, &config).map_err(|e| format!("failed to bind {}: {e}", config.addr))?;
    println!("serving on {} ({} threads); 'quit' or EOF stops", server.local_addr(), config.threads);
    // block on stdin so the service can be stopped gracefully from a pipe
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.trim() == "quit" => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
    }
    let (connections, requests, reads, writes, errors) = server.stats().snapshot();
    let (shed_writes, timeouts, oversized) = server.stats().hardening_snapshot();
    server
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    println!(
        "served {requests} requests ({reads} reads, {writes} writes, {errors} errors) over {connections} connections; \
         shed {shed_writes} writes, evicted {timeouts} timeouts, rejected {oversized} oversized"
    );
    Ok(())
}

fn run_call(args: &CliArgs) -> Result<bool, String> {
    if args.words.is_empty() {
        return Err(format!("call needs a request; {USAGE}"));
    }
    let addr = args.addr.clone().unwrap_or_else(|| "127.0.0.1:7070".to_owned());
    let request = args.words.join(" ");
    // read-class requests retry transient failures (connect errors,
    // `err busy`) with capped jittered backoff; writes go out once
    let report = serve::call_retry(&addr, &request, &serve::ClientConfig::default())
    .map_err(|e| format!("call to {addr} failed: {e}"))?;
    if report.attempts > 1 {
        eprintln!("({} attempts)", report.attempts);
    }
    if report.ok {
        print!("{}", report.body);
        if !report.body.ends_with('\n') {
            println!();
        }
    } else {
        eprintln!("error: {}", report.body);
    }
    Ok(report.ok)
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match argv.first().map(String::as_str) {
        Some("serve") | Some("call") => argv.remove(0),
        _ => String::new(),
    };
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let result = match mode.as_str() {
        "serve" => run_serve(&args).map(|()| true),
        "call" => run_call(&args),
        _ => run_repl(&args).map(|()| true),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
