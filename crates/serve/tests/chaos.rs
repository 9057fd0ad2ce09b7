//! Deterministic network-fault sweep: every fault point must leave the
//! server serving — a fresh connection gets a bit-identical read at a
//! monotone snapshot version.
//!
//! The sweep drives a request mix through a [`FaultNet`] chaos proxy and
//! fires one planned fault per point: 25 op indices × 4 fault kinds
//! (disconnect, torn frame, stall past the deadline, latency spike) =
//! 100 points, plus 8 shutdown-during-load points — 108 in total. The
//! mix includes `import demo 7` writes, which are idempotent on the
//! demo-7 corpus, so the reference query body is a fixed point: its FNV
//! checksum must never change, no matter where a fault lands.

use genmapper::{GenMapper, SharedGenMapper};
use serve::{call, call_with, ClientConfig, FaultNet, NetFaultPlan, Server, ServerConfig};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use relstore::sync::SeqFlag;
use std::sync::Arc;
use std::time::Duration;

/// The reference read: resolved through two mapping paths, sensitive to
/// sources, mappings, and associations alike.
const REFERENCE_QUERY: &str = "query LocusLink:353 or Hugo GO";

/// Reads interleaved between writes while driving faults.
const READ_MIX: [&str; 4] = [REFERENCE_QUERY, "stats", "import-status", "ping"];

fn demo_shared() -> Arc<SharedGenMapper> {
    let eco = Ecosystem::generate(EcosystemParams::demo(7));
    let mut gm = GenMapper::in_memory().unwrap();
    gm.import_dumps(&eco.dumps).unwrap();
    Arc::new(SharedGenMapper::new(gm).unwrap())
}

fn chaos_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 4,
        // tight read deadline so stalled/severed proxy connections free
        // their workers quickly
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    }
}

/// FNV-1a over the response body — the bit-identity witness.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The snapshot version from `import-status`, as an ordered pair.
fn current_version(addr: &str) -> (u64, u64) {
    let (ok, body) = call(addr, "import-status").unwrap();
    assert!(ok, "import-status failed: {body}");
    let raw = body
        .split_whitespace()
        .find_map(|word| word.strip_prefix("version="))
        .unwrap_or_else(|| panic!("no version in {body:?}"));
    let (major, minor) = raw.split_once('.').unwrap_or_else(|| panic!("bad version {raw:?}"));
    (major.parse().unwrap(), minor.parse().unwrap())
}

/// After each fault point the server must hand a fresh connection the
/// bit-identical reference body at a non-decreasing version.
fn assert_serving(addr: &str, reference_sum: u64, last_version: &mut (u64, u64), point: &str) {
    let (ok, body) = call(addr, REFERENCE_QUERY)
        .unwrap_or_else(|e| panic!("{point}: fresh connection failed: {e}"));
    assert!(ok, "{point}: reference query errored: {body}");
    assert_eq!(
        fnv1a(body.as_bytes()),
        reference_sum,
        "{point}: reference body changed"
    );
    let version = current_version(addr);
    assert!(
        version >= *last_version,
        "{point}: version went backwards: {version:?} < {last_version:?}"
    );
    *last_version = version;
}

/// The proxy fault sweep over the fault indices of one parity: the two
/// halves are disjoint, together make the 100 points, and run side by side
/// (a stall point waits out its deadline, so they overlap well).
fn fault_sweep(parity: u64) {
    let server = Server::start(demo_shared(), &chaos_config()).unwrap();
    let addr = server.local_addr();
    let addr_str = addr.to_string();

    let (ok, reference) = call(&addr_str, REFERENCE_QUERY).unwrap();
    assert!(ok && reference.contains("APRT"), "reference read: {reference}");
    let reference_sum = fnv1a(reference.as_bytes());
    let mut last_version = current_version(&addr_str);

    // clients through the proxy give up fast and tolerate every error;
    // only the post-fault direct read is load-bearing
    let proxy_client = ClientConfig {
        read_timeout: Duration::from_millis(200),
        ..ClientConfig::default()
    };

    let mut points = 0u64;
    let mut injected = 0u64;
    for kind in ["disconnect", "torn", "stall", "delay"] {
        for idx in (1..=25u64).filter(|idx| idx % 2 == parity) {
            let mut plan = NetFaultPlan {
                seed: 0xc4a0_5000 + idx,
                ..NetFaultPlan::default()
            };
            match kind {
                "disconnect" => plan.disconnect_at = Some(idx),
                "torn" => plan.torn_at = Some(idx),
                "stall" => plan.stall_at = Some(idx),
                _ => {
                    plan.delay_at = Some(idx);
                    plan.delay = Duration::from_millis(50);
                }
            }
            let net = FaultNet::start(addr, plan).unwrap();
            let proxy = net.local_addr().to_string();
            // drive the mix until the planned op index is reached; each
            // request is at least two ops (request + response chunk)
            for i in 0..80u64 {
                if net.counters().total() >= 1 {
                    break;
                }
                let request = if i % 9 == 7 { "import demo 7" } else { READ_MIX[(i % 4) as usize] };
                let _ = call_with(&proxy, request, &proxy_client);
            }
            let fired = net.counters().total();
            net.shutdown();
            let point = format!("{kind}@{idx}");
            assert!(fired >= 1, "{point}: fault never fired");
            points += 1;
            injected += fired;
            assert_serving(&addr_str, reference_sum, &mut last_version, &point);
        }
    }
    let indices = (1..=25u64).filter(|idx| idx % 2 == parity).count() as u64;
    assert_eq!(points, 4 * indices, "this half covers its share of the 100 proxy fault points");
    assert!(injected >= points, "injected {injected} faults across {points} points");
    server.shutdown().unwrap();
}

#[test]
fn hundred_point_fault_sweep_leaves_the_server_serving() {
    fault_sweep(1);
}

#[test]
fn hundred_point_fault_sweep_second_half_leaves_the_server_serving() {
    fault_sweep(0);
}

#[test]
fn shutdown_under_load_leaves_the_snapshot_consistent() {
    let shared = demo_shared();
    // the probe server outlives every victim and witnesses consistency
    let probe = Server::start(shared.clone(), &chaos_config()).unwrap();
    let probe_addr = probe.local_addr().to_string();

    let (ok, reference) = call(&probe_addr, REFERENCE_QUERY).unwrap();
    assert!(ok, "{reference}");
    let reference_sum = fnv1a(reference.as_bytes());
    let mut last_version = current_version(&probe_addr);

    for point in 0..8u64 {
        let victim = Server::start(shared.clone(), &chaos_config()).unwrap();
        let victim_addr = victim.local_addr().to_string();
        let stop = Arc::new(SeqFlag::default());
        let loaders: Vec<_> = (0..3u64)
            .map(|loader| {
                let addr = victim_addr.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut i = loader;
                    while !stop.get() {
                        // one loader mixes writes in; shutdown lands on
                        // reads and an in-flight import alike
                        let request = if loader == 0 && i % 5 == 2 {
                            "import demo 7"
                        } else {
                            READ_MIX[(i % 4) as usize]
                        };
                        let _ = call(&addr, request);
                        i += 1;
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(25));
        victim.shutdown().unwrap_or_else(|e| panic!("point {point}: drain failed: {e}"));
        stop.set(true);
        for loader in loaders {
            loader.join().unwrap();
        }
        assert_serving(
            &probe_addr,
            reference_sum,
            &mut last_version,
            &format!("shutdown-under-load@{point}"),
        );
    }
    probe.shutdown().unwrap();
}
