//! `FaultNet` — a deterministic in-process chaos proxy for the service.
//!
//! PR 4 made disk failure injectable (`FaultVfs` + `FaultPlan`); this is
//! the network analog. A `FaultNet` listens on a local port, forwards
//! every connection to one upstream server, and counts every forwarded
//! chunk (either direction) on one global op counter. A seeded
//! [`NetFaultPlan`] names the op index at which to misbehave:
//!
//! * `delay_at` — hold the chunk for `delay` before forwarding (latency
//!   spike);
//! * `disconnect_at` — drop both directions mid-stream (peer vanished);
//! * `torn_at` — forward a seeded *prefix* of the chunk, then drop both
//!   directions (torn frame: the peer sees a truncated request or
//!   response);
//! * `stall_at` — stop forwarding but keep the sockets open (the failure
//!   deadlines exist for: silence, not closure).
//!
//! Chunk boundaries follow TCP, so op indexing is deterministic for the
//! small one-write frames this protocol uses; the sweep in
//! `tests/chaos.rs` drives enough requests per point that every planned
//! index is reached. Counters report what actually fired.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use relstore::sync::{SeqCount, SeqFlag};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often pump threads poll the stop flag while idle or stalled.
const POLL: Duration = Duration::from_millis(10);

/// One seeded fault plan: the global op index (1-based, counted over
/// forwarded chunks in both directions) at which each fault fires. Each
/// fault fires at most once per proxy.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    /// Delay the chunk at this op by `delay`, then forward normally.
    pub delay_at: Option<u64>,
    /// The delay injected at `delay_at`.
    pub delay: Duration,
    /// Drop both directions of the affected connection at this op.
    pub disconnect_at: Option<u64>,
    /// Forward a seeded prefix of the chunk at this op, then drop both
    /// directions.
    pub torn_at: Option<u64>,
    /// Stop forwarding at this op but keep the sockets open until the
    /// proxy shuts down.
    pub stall_at: Option<u64>,
    /// Seed for the torn-prefix length.
    pub seed: u64,
}

/// What actually fired, for sweep assertions.
#[derive(Debug, Default)]
pub struct FaultCounters {
    pub delays: SeqCount,
    pub disconnects: SeqCount,
    pub torn: SeqCount,
    pub stalls: SeqCount,
}

impl FaultCounters {
    /// `(delays, disconnects, torn, stalls)` injected so far.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.delays.get(),
            self.disconnects.get(),
            self.torn.get(),
            self.stalls.get(),
        )
    }

    /// Total faults injected.
    pub fn total(&self) -> u64 {
        let (d, x, t, s) = self.snapshot();
        d + x + t + s
    }
}

/// A running chaos proxy. Connect clients to [`local_addr`](Self::local_addr);
/// traffic forwards to the upstream address given at start, with the
/// plan's faults injected.
pub struct FaultNet {
    local_addr: SocketAddr,
    stop: Arc<SeqFlag>,
    acceptor: Option<JoinHandle<()>>,
    pumps: Arc<Mutex<Vec<JoinHandle<()>>>>,
    ops: Arc<SeqCount>,
    counters: Arc<FaultCounters>,
}

impl FaultNet {
    /// Bind a fresh local port and start proxying to `upstream`.
    pub fn start(upstream: SocketAddr, plan: NetFaultPlan) -> io::Result<FaultNet> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(SeqFlag::default());
        let pumps: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let ops = Arc::new(SeqCount::default());
        let counters = Arc::new(FaultCounters::default());
        let acceptor = {
            let stop = stop.clone();
            let pumps = pumps.clone();
            let ops = ops.clone();
            let counters = counters.clone();
            std::thread::Builder::new()
                .name("faultnet-acceptor".to_owned())
                .spawn(move || {
                    acceptor_loop(&listener, upstream, &plan, &stop, &pumps, &ops, &counters)
                })?
        };
        Ok(FaultNet {
            local_addr,
            stop,
            acceptor: Some(acceptor),
            pumps,
            ops,
            counters,
        })
    }

    /// The proxy's listening address (point clients here).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Chunks forwarded so far (both directions, all connections).
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// What actually fired.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Stop the proxy: kill all proxied connections (stalled ones
    /// included) and join every thread.
    pub fn shutdown(mut self) {
        self.stop.set(true);
        // unblock the acceptor
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.pumps.lock().unwrap_or_else(|p| p.into_inner());
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn acceptor_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: &NetFaultPlan,
    stop: &Arc<SeqFlag>,
    pumps: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    ops: &Arc<SeqCount>,
    counters: &Arc<FaultCounters>,
) {
    loop {
        let client = match listener.accept() {
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
        let server = match TcpStream::connect(upstream) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        // two pumps per connection; each holds handles on both sockets
        // (clones share descriptors) so a fault can sever the pair
        let (Ok(client2), Ok(server2)) = (client.try_clone(), server.try_clone()) else {
            continue;
        };
        let mut guard = pumps.lock().unwrap_or_else(|p| p.into_inner());
        for (src, dst) in [(client, server2), (server, client2)] {
            let plan = plan.clone();
            let stop = stop.clone();
            let ops = ops.clone();
            let counters = counters.clone();
            let spawned = std::thread::Builder::new()
                .name("faultnet-pump".to_owned())
                .spawn(move || pump(src, dst, &plan, &stop, &ops, &counters));
            if let Ok(handle) = spawned {
                guard.push(handle);
            }
        }
    }
}

/// Forward `src` → `dst` chunk by chunk, injecting the planned fault when
/// the global op counter hits its index. Any fault or stream end severs
/// both sockets (clones share the underlying descriptors, so the partner
/// pump ends too).
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    plan: &NetFaultPlan,
    stop: &SeqFlag,
    ops: &SeqCount,
    counters: &FaultCounters,
) {
    // short read timeout so the stop flag is polled even on idle streams
    let _ = src.set_read_timeout(Some(POLL));
    let mut buf = [0u8; 4096];
    loop {
        if stop.get() {
            return sever(&src, &dst);
        }
        let n = match src.read(&mut buf) {
            Ok(0) => return sever(&src, &dst),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                continue
            }
            Err(_) => return sever(&src, &dst),
        };
        let op = ops.add(1) + 1;
        if plan.disconnect_at == Some(op) {
            counters.disconnects.add(1);
            return sever(&src, &dst);
        }
        if plan.torn_at == Some(op) {
            counters.torn.add(1);
            // a strict prefix: at least 0, at most n-1 bytes make it out
            let keep = (torn_mix(plan.seed, op) % n as u64) as usize;
            let _ = dst.write_all(&buf[..keep]);
            return sever(&src, &dst);
        }
        if plan.stall_at == Some(op) {
            counters.stalls.add(1);
            // hold the chunk and the connection: the peer sees silence
            // until its deadline (or proxy shutdown)
            while !stop.get() {
                std::thread::sleep(POLL);
            }
            return sever(&src, &dst);
        }
        if plan.delay_at == Some(op) {
            counters.delays.add(1);
            std::thread::sleep(plan.delay);
        }
        if dst.write_all(&buf[..n]).is_err() {
            return sever(&src, &dst);
        }
    }
}

/// Kill both directions of a proxied pair.
fn sever(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

/// SplitMix64 over (seed, op) — the torn-prefix length source.
fn torn_mix(seed: u64, op: u64) -> u64 {
    let mut x = seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial upstream echo server for proxy unit tests.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            // serve a bounded number of connections then exit
            for _ in 0..8 {
                let Ok((mut stream, _)) = listener.accept() else {
                    return;
                };
                let mut buf = [0u8; 1024];
                while let Ok(n) = stream.read(&mut buf) {
                    if n == 0 || stream.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn forwards_cleanly_without_a_plan() {
        let (upstream, _srv) = echo_server();
        let net = FaultNet::start(upstream, NetFaultPlan::default()).unwrap();
        let mut conn = TcpStream::connect(net.local_addr()).unwrap();
        conn.write_all(b"hello").unwrap();
        let mut back = [0u8; 5];
        conn.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello");
        assert!(net.ops() >= 2, "request + response chunks counted");
        assert_eq!(net.counters().total(), 0);
        net.shutdown();
    }

    #[test]
    fn disconnect_fires_at_the_planned_op() {
        let (upstream, _srv) = echo_server();
        let plan = NetFaultPlan {
            disconnect_at: Some(2),
            ..NetFaultPlan::default()
        };
        let net = FaultNet::start(upstream, plan).unwrap();
        let mut conn = TcpStream::connect(net.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        // op 1 forwards the request; op 2 (the echo) is dropped and both
        // directions die — every client op from there on fails fast
        conn.write_all(b"one").unwrap();
        let mut back = [0u8; 3];
        assert!(
            conn.read_exact(&mut back).is_err(),
            "echo chunk must be dropped by the disconnect"
        );
        assert_eq!(net.counters().snapshot().1, 1, "disconnect fired");
        net.shutdown();
    }

    #[test]
    fn stall_holds_the_connection_past_a_deadline() {
        let (upstream, _srv) = echo_server();
        let plan = NetFaultPlan {
            stall_at: Some(1),
            ..NetFaultPlan::default()
        };
        let net = FaultNet::start(upstream, plan).unwrap();
        let mut conn = TcpStream::connect(net.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(80))).unwrap();
        conn.write_all(b"never-forwarded").unwrap();
        let mut b = [0u8; 1];
        let err = conn.read_exact(&mut b).unwrap_err();
        assert!(
            matches!(err.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
            "stall looks like silence, got {err:?}"
        );
        assert_eq!(net.counters().snapshot().3, 1, "stall fired");
        // shutdown releases the stalled pump promptly
        net.shutdown();
    }

    #[test]
    fn torn_forwards_a_strict_prefix() {
        let (upstream, _srv) = echo_server();
        let plan = NetFaultPlan {
            torn_at: Some(1),
            seed: 42,
            ..NetFaultPlan::default()
        };
        let net = FaultNet::start(upstream, plan).unwrap();
        let mut conn = TcpStream::connect(net.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        conn.write_all(b"0123456789").unwrap();
        let mut got = Vec::new();
        let _ = conn.read_to_end(&mut got);
        assert!(got.len() < 10, "echo of a torn request must be short: {got:?}");
        assert_eq!(net.counters().snapshot().2, 1, "torn fired");
        net.shutdown();
    }
}
