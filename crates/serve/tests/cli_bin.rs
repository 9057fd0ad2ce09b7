//! Drive the compiled `genmapper-cli` binary through a scripted stdin
//! session — the closest offline equivalent of a user at the paper's
//! interactive interface.

use relstore::vfs::{RealVfs, Vfs};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// A fresh directory for a store the binary opens, removed on drop.
struct ScratchDir(PathBuf);

mod scratch {
    #![expect(
        clippy::disallowed_methods,
        reason = "a test's scratch directory: the store's own I/O goes through relstore::vfs"
    )]

    impl super::ScratchDir {
        pub fn new(label: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("{label}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            super::ScratchDir(dir)
        }
    }

    impl Drop for super::ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn run_script(script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_genmapper-cli"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let output = child.wait_with_output().expect("binary exits");
    assert!(output.status.success(), "cli exited with {:?}", output.status);
    String::from_utf8(output.stdout).expect("utf-8 output")
}

#[test]
fn scripted_session_through_the_binary() {
    let out = run_script(
        "demo 7\n\
         stats\n\
         search LocusLink adenine\n\
         path NetAffx GO\n\
         query LocusLink:353 or Hugo GO\n\
         export csv\n\
         quit\n",
    );
    assert!(out.contains("sources"), "stats shown");
    assert!(out.contains("Fact"), "type breakdown shown");
    assert!(out.contains("353"), "keyword search hit");
    assert!(out.contains("NetAffx ->"), "path printed");
    assert!(out.contains("APRT"), "query answered");
    assert!(out.contains("LocusLink,Hugo,GO"), "csv export");
}

#[test]
fn binary_survives_errors_and_eof() {
    // unknown commands and runtime errors must not kill the process; EOF
    // (no quit) must end it cleanly
    let out = run_script("nonsense\ninfo Nowhere 1\nsources\n");
    assert!(out.contains("parse error"));
    assert!(out.contains("error:"));
}

#[test]
fn a_worker_count_is_not_an_option() {
    // everything runs on the calling thread: there is no `--jobs` to set,
    // and the REPL has no `jobs` verb
    let refused = Command::new(env!("CARGO_BIN_EXE_genmapper-cli"))
        .args(["--jobs", "4"])
        .stdin(Stdio::null())
        .output()
        .expect("binary runs");
    assert!(!refused.status.success());
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("unknown argument \"--jobs\""), "{stderr}");
    assert!(stderr.contains("usage: genmapper-cli [--db DIR"), "{stderr}");
    let out = run_script("jobs 4\nhelp\n");
    assert!(out.contains("parse error: unknown command \"jobs\""), "{out}");
    assert!(out.contains("commands: demo "), "{out}");
    assert!(!out.contains(" jobs "), "the help line names no jobs verb: {out}");
}

#[test]
fn serve_mode_answers_calls_and_stops_on_quit() {
    use std::io::{BufRead, BufReader};

    let mut child = Command::new(env!("CARGO_BIN_EXE_genmapper-cli"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2", "--demo", "7"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    // the first stdout line announces the bound address
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("announce line");
    let addr = line
        .strip_prefix("serving on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected announce line {line:?}"))
        .to_owned();

    let (ok, body) = serve::call(&addr, "ping").expect("ping");
    assert!(ok);
    assert_eq!(body, "pong\n");
    let (ok, body) = serve::call(&addr, "query LocusLink:353 or Hugo").expect("query");
    assert!(ok, "query failed: {body}");
    assert!(body.contains("APRT"));

    // the quit line alone stops it: stdin stays open until it has exited
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin.write_all(b"quit\n").expect("quit written");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the binary") {
            break status;
        }
        assert!(std::time::Instant::now() < deadline, "serve ignored quit");
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    drop(stdin);
    assert!(status.success(), "serve exited with {status:?}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).expect("summary read");
    assert!(rest.contains("served "), "summary printed: {rest}");
}

#[test]
fn call_mode_round_trips_against_a_server() {
    let server = {
        use genmapper::GenMapper;
        use sources::ecosystem::{Ecosystem, EcosystemParams};
        let eco = Ecosystem::generate(EcosystemParams::demo(7));
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        let shared = std::sync::Arc::new(genmapper::SharedGenMapper::new(gm).unwrap());
        serve::Server::start(
            shared,
            &serve::ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                threads: 2,
                ..serve::ServerConfig::default()
            },
        )
        .unwrap()
    };
    let addr = server.local_addr().to_string();

    let out = Command::new(env!("CARGO_BIN_EXE_genmapper-cli"))
        .args(["call", "--addr", &addr, "stats"])
        .output()
        .expect("call runs");
    assert!(out.status.success());
    let body = String::from_utf8(out.stdout).expect("utf-8");
    assert!(body.contains("19 sources"), "stats over call: {body}");

    // protocol errors surface as exit code 1 with the message on stderr
    let out = Command::new(env!("CARGO_BIN_EXE_genmapper-cli"))
        .args(["call", "--addr", &addr, "path", "Nowhere", "GO"])
        .output()
        .expect("call runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert!(err.contains("unknown source"), "stderr: {err}");
    server.shutdown().unwrap();
}

#[test]
fn paged_store_without_the_paged_flag_is_refused_not_emptied() {
    use genmapper::system::GenMapper;
    use sources::ecosystem::{Ecosystem, EcosystemParams};

    // a checkpointed paged store whose pages are small enough to have sealed
    let scratch = ScratchDir::new("genmapper-cli-paged");
    let dir = &scratch.0;
    let config = relstore::PoolConfig {
        page_bytes: 4096,
        pool_pages: 8,
    };
    let sources = {
        let mut gm = GenMapper::open_paged(dir, config).expect("paged store opens");
        let eco = Ecosystem::generate(EcosystemParams::demo(7));
        gm.import_dumps(&eco.dumps).expect("demo imports");
        gm.checkpoint().expect("checkpoint");
        gm.cardinalities().expect("cardinalities").sources
    };
    let read_wal = || RealVfs.read(&dir.join("wal.log")).expect("wal reads").expect("wal exists");
    let wal = read_wal();

    let cli = |extra: &[&str]| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_genmapper-cli"))
            .arg("--db")
            .arg(dir)
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary starts");
        // the refused run exits before it reads this
        let _ = child.stdin.as_mut().expect("stdin piped").write_all(b"stats\nquit\n");
        child.wait_with_output().expect("binary exits")
    };
    let refused = cli(&[]);
    assert!(!refused.status.success(), "no shell over a store it cannot serve");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("failed to open store") && stderr.contains("open_paged"), "{stderr}");
    assert_eq!(read_wal(), wal, "WAL untouched");

    let served = cli(&["--paged=8"]);
    assert!(served.status.success(), "{}", String::from_utf8_lossy(&served.stderr));
    let stdout = String::from_utf8_lossy(&served.stdout);
    assert!(stdout.contains(&format!("{sources} sources")), "{stdout}");
}
