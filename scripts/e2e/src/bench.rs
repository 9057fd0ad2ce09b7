//! The measured run: set-up, then interleaved cycles of fixed-work laps.
//!
//! Every workload runs the same cycle, because every run must report
//! every end-to-end metric:
//!
//! ```text
//!   import lap    bulk-import the scratch ecosystem into a fresh store
//!   checkpoint    (timed for the per-layer list only)
//!   write lap     10 release re-imports, each timed; they stay in the WAL
//!   close
//!   recover lap   reopen + first oracle-checked answer
//!   read lap      replay the fixed read list against the main system
//! ```
//!
//! What a workload changes is the configuration: whether stores are
//! resident or paged, and whether reads go through `serve` over loopback,
//! through the library on the live store, or through the pager.

use crate::exec::{call_in_process, snapshot_version, Client};
use crate::gen::{self, Class, Mix, Request};
use crate::oracle::{fnv1a, Model};
use crate::refk::{RefKernel, SyncProbe};
use crate::stats::{self, Lap};
use crate::{alloc, traced};
use eav::EavBatch;
use genmapper::{GenMapper, SharedGenMapper};
use relstore::PoolConfig;
use serve::{Server, ServerConfig};
use sources::ecosystem::{Ecosystem, SourceDump};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Rows resident in memory; snapshot + WAL on disk.
    Resident,
    /// Rows in heap pages behind a buffer pool an eighth of the heap.
    Paged,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPath {
    /// `GenMapper`'s `&self` read entry points on the live store.
    InProcess,
    /// One connection to `serve::Server` (one worker) on loopback.
    Wire,
}

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub store: StoreKind,
    pub reads: ReadPath,
    pub mix: &'static Mix,
    /// Multiples of the mix in the read list, so a read lap is ~200 ms.
    pub repeat: usize,
    /// Main and scratch ecosystem sizes as fractions of `--scale`.
    pub main_fraction: f64,
    pub scratch_fraction: f64,
}

pub static WORKLOADS: [Workload; 3] = [
    Workload {
        name: "load_recover",
        store: StoreKind::Resident,
        reads: ReadPath::InProcess,
        mix: &gen::MIX_INTERACTIVE,
        repeat: 6,
        main_fraction: 1.0,
        scratch_fraction: 0.6,
    },
    Workload {
        name: "serve_reads",
        store: StoreKind::Resident,
        reads: ReadPath::Wire,
        mix: &gen::MIX_INTERACTIVE,
        repeat: 7,
        main_fraction: 1.0,
        scratch_fraction: 0.6,
    },
    Workload {
        name: "paged_live",
        store: StoreKind::Paged,
        reads: ReadPath::InProcess,
        mix: &gen::MIX_PAGED,
        repeat: 1,
        // see PAGE_BYTES: a paged store is only reopenable while no source
        // inserts more than ~3000 rows at once; at 0.4 of the default
        // scale (800 loci) the largest batch, LocusLink-GO, is ~2400 rows
        main_fraction: 0.4,
        scratch_fraction: 0.4,
    },
];

pub struct Config {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub self_test: bool,
    /// Private directory of this run; removed when the run ends.
    pub dir: PathBuf,
    pub started: Instant,
}

/// Page size of paged stores. relstore seals the whole open tail into one
/// page once it reaches this many bytes *or* 4096 rows, and refuses to
/// decode a page of more than 4096 slots (`implausible slot count`): with
/// the default 32 KiB, ~10-byte association rows reach the row cap first
/// and the next insert batch overshoots it, leaving a store that cannot
/// be reopened. At 8 KiB the byte threshold seals after ~800 rows, which
/// leaves room for one batch of up to ~3000 rows.
pub const PAGE_BYTES: usize = 8 * 1024;

/// Pool geometry for a paged store expected to hold `model`'s data, sized
/// so the heap is about eight times the pool.
pub fn pool_for(model: &Model) -> PoolConfig {
    let c = model.cardinalities();
    // measured heap extent after bulk load + checkpoint
    let heap_bytes = 20 * c.associations + 44 * c.objects;
    let page_bytes = PAGE_BYTES;
    PoolConfig {
        page_bytes,
        pool_pages: (heap_bytes / page_bytes / 8).max(4),
    }
}

pub fn open_store(kind: StoreKind, dir: &Path, pool: PoolConfig) -> Result<GenMapper, String> {
    let mut gm = match kind {
        StoreKind::Resident => GenMapper::open(dir),
        StoreKind::Paged => GenMapper::open_paged(dir, pool),
    }
    .map_err(|e| format!("open {}: {e}", dir.display()))?;
    // one thread per client or connection: client threads + workers <= nproc
    gm.set_jobs(1);
    Ok(gm)
}

/// `GenMapper::import_dumps` — the same pipeline call on the same store —
/// through the entry point that also returns the importer's own timers, of
/// which the benchmark needs one: the milliseconds spent waiting on WAL
/// syncs, which follow the host's storage and not its CPUs.
pub fn import_dumps(
    gm: &mut GenMapper,
    dumps: &[SourceDump],
) -> Result<(Vec<import::ImportReport>, f64), String> {
    let options = import::PipelineOptions {
        parse_threads: 1,
        ..import::PipelineOptions::default()
    };
    let (reports, timings) =
        import::run_pipeline_timed(gm.store_mut(), dumps, &options).map_err(err("import"))?;
    Ok((reports, timings.wal.as_secs_f64() * 1e3))
}

/// The reference kernel plus the bookkeeping that lets adjacent laps
/// share the slice between them.
pub struct Host {
    kernel: RefKernel,
    sync: SyncProbe,
    /// The last (compute, sync) slice pair.
    last_ms: (f64, f64),
    fresh: bool,
    pub slices_ms: Vec<f64>,
    pub sync_slices_ms: Vec<f64>,
}

impl Host {
    /// `dir` is where the reference `fsync` appends to its file.
    pub fn new(dir: &Path) -> Result<Host, String> {
        let mut kernel = RefKernel::new();
        kernel.slice(); // first touch of the arena
        let sync = SyncProbe::create(&dir.join("sync-probe")).map_err(err("sync probe"))?;
        Ok(Host {
            kernel,
            sync,
            last_ms: (0.0, 0.0),
            fresh: false,
            slices_ms: Vec::new(),
            sync_slices_ms: Vec::new(),
        })
    }

    /// One compute slice and one reference `fsync`.
    pub fn slice(&mut self) -> (f64, f64) {
        let ms = self.kernel.slice();
        // a failed probe reads as nominal storage: the run goes on and the
        // store's own syncs will report the real trouble
        let sync_ms = self.sync.slice().unwrap_or(crate::refk::SYNC_NOMINAL_MS);
        self.slices_ms.push(ms);
        self.sync_slices_ms.push(sync_ms);
        self.last_ms = (ms, sync_ms);
        self.last_ms
    }

    /// Untimed work ran: the last slice no longer brackets the next lap.
    pub fn stale(&mut self) {
        self.fresh = false;
    }

    /// Time `f` between two slices.
    pub fn lap<T>(&mut self, f: impl FnOnce() -> T) -> (T, Lap) {
        let before = if self.fresh {
            self.last_ms
        } else {
            self.slice()
        };
        let start = Instant::now();
        let out = f();
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        let after = self.slice();
        self.fresh = true;
        (
            out,
            Lap {
                raw_ms,
                ref_before_ms: before.0,
                ref_after_ms: after.0,
                sync_ref_before_ms: before.1,
                sync_ref_after_ms: after.1,
                sync_ms: 0.0,
            },
        )
    }
}

/// The main loaded system and how reads reach it.
pub enum Sys {
    Live(Box<GenMapper>),
    Served {
        server: Option<Server>,
        client: Client,
    },
}

impl Sys {
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        match self {
            Sys::Live(gm) => call_in_process(gm, line),
            Sys::Served { client, .. } => client.call(line),
        }
    }
}

/// Samples and laps of the measured window.
#[derive(Default)]
pub struct Recorder {
    pub import: Vec<Lap>,
    pub checkpoint: Vec<Lap>,
    pub write: Vec<Lap>,
    pub recover: Vec<Lap>,
    pub read: Vec<Lap>,
    /// Host-normalised milliseconds per sample.
    pub write_ms: Vec<f64>,
    pub recover_ms: Vec<f64>,
    pub view_ms: Vec<f64>,
    pub class_ms: [Vec<f64>; 4],
    pub import_assocs: u64,
    pub read_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Recorder {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// The scratch store the load/recover cycle works on.
pub struct Scratch {
    pub kind: StoreKind,
    pub pool: PoolConfig,
    pub dir: PathBuf,
    pub eco: Ecosystem,
    pub writes: Vec<Vec<SourceDump>>,
    /// Associations one bulk import creates.
    pub import_assocs: usize,
    /// Cardinalities after the bulk import and every write.
    pub final_cards: String,
    /// The request a reopened store must answer, and its verified hash.
    pub probe: (String, u64),
}

pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Bytes this process has passed to `write`-family calls.
pub fn wchar() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar: "))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The part of a body that must repeat: all of it, except that `stats`
/// appends a snapshot version and live service counters after its first
/// line.
pub fn stable(line: &str, body: &str) -> u64 {
    let part = if line == "stats" {
        body.lines().next().unwrap_or("")
    } else {
        body
    };
    fnv1a(part.as_bytes())
}

/// One request of the fixed list with the hash of its verified answer.
pub struct Expected {
    pub request: Request,
    pub hash: u64,
}

pub struct Run {
    pub cfg: Config,
    pub host: Host,
    pub sys: Sys,
    pub scratch: Scratch,
    pub list: Vec<Expected>,
    pub rec: Recorder,
    /// Highest snapshot version seen on the connection.
    pub version: (u64, u64),
    pub setup: SetupFacts,
    /// What the traced run accumulates besides spans.
    pub traced: Option<Box<traced::State>>,
    /// The server's (shed writes, timeouts, errors) at shutdown.
    pub server_counters: Option<(u64, u64, u64)>,
}

/// Counts and times fixed during set-up.
#[derive(Default, Clone)]
pub struct SetupFacts {
    pub setup_s: f64,
    pub setup_raw_s: f64,
    pub assocs: u64,
    pub objects: u64,
    pub disk_bytes: u64,
    pub write_bytes: u64,
    pub heap_bytes: u64,
    pub dump_bytes: u64,
    pub records: u64,
    pub pool_pages: usize,
    pub heap_file_bytes: u64,
    pub bulk_import_s: f64,
    pub bulk_checkpoint_s: f64,
    pub bulk_reopen_s: f64,
    pub publish_s: f64,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Acknowledged writes must survive a power cut: import, checkpoint and
/// one release re-import on `FaultVfs`, cut the power (unsynced bytes are
/// discarded), reboot, reopen, and compare with the oracle.
fn crash_check(scratch: &Scratch, batches: &[EavBatch], rec: &mut Recorder) -> Result<(), String> {
    use relstore::vfs::{FaultVfs, Vfs};
    let vfs = Arc::new(FaultVfs::new());
    let dir = Path::new("/gmbench-crash");
    let as_vfs = || -> Arc<dyn Vfs> { vfs.clone() };
    let mut model = Model::default();
    {
        let mut store = gam::GamStore::open_with_vfs(as_vfs(), dir).map_err(err("crash open"))?;
        for b in batches {
            import::Importer::new(&mut store)
                .import(b)
                .map_err(err("crash import"))?;
            model.apply(b);
        }
        store.checkpoint().map_err(err("crash checkpoint"))?;
        for dump in &scratch.writes[0] {
            let b = dump.parse().map_err(err("crash parse"))?;
            import::Importer::new(&mut store)
                .import(&b)
                .map_err(err("crash write"))?;
            model.apply(&b);
        }
        vfs.crash_now();
    }
    vfs.reboot();
    let store = gam::GamStore::open_with_vfs(as_vfs(), dir).map_err(err("crash reopen"))?;
    let got = store
        .cardinalities()
        .map_err(err("crash cardinalities"))?
        .to_string();
    let want = model.cardinalities().to_string();
    rec.check(got == want, || {
        format!("after power cut: {got}, want {want}")
    });
    let problems = store.verify_integrity().map_err(err("crash integrity"))?;
    rec.check(problems.is_empty(), || {
        format!("after power cut: {problems:?}")
    });
    Ok(())
}

impl Run {
    /// Everything before the first timed lap.
    pub fn set_up(cfg: Config) -> Result<Run, String> {
        let mut host = Host::new(&cfg.dir)?;
        let mut rec = Recorder::default();
        let mut laps: Vec<Lap> = Vec::new();
        let mut facts = SetupFacts::default();
        let w = cfg.workload;

        // inputs: generate, parse, model
        let params = gen::eco_params(cfg.seed, cfg.scale * w.main_fraction);
        let (eco, lap) = host.lap(|| Ecosystem::generate(params));
        laps.push(lap);
        let mut batches = Vec::with_capacity(eco.dumps.len());
        for dump in &eco.dumps {
            let (b, lap) = host.lap(|| dump.parse());
            laps.push(lap);
            batches.push(b.map_err(err("parse"))?);
        }
        let (model, lap) = host.lap(|| Model::from_batches(&batches));
        laps.push(lap);
        let cards = model.cardinalities();
        facts.assocs = cards.associations as u64;
        facts.objects = cards.objects as u64;
        facts.dump_bytes = eco.dump_bytes() as u64;
        facts.records = batches.iter().map(|b| b.records.len() as u64).sum();

        let mini_params = gen::mini_params(cfg.seed, cfg.scale * w.scratch_fraction);
        let ((mini, writes, mini_batches, mini_model, import_assocs), lap) = host.lap(|| {
            let mini = Ecosystem::generate(mini_params.clone());
            let writes = gen::release_writes(&mini, &mini_params);
            let mini_batches: Vec<EavBatch> = mini
                .dumps
                .iter()
                .map(|d| d.parse().expect("generated dumps parse"))
                .collect();
            let mut mini_model = Model::from_batches(&mini_batches);
            let import_assocs = mini_model.cardinalities().associations;
            for dump in writes.iter().flatten() {
                mini_model.apply(&dump.parse().expect("generated release dumps parse"));
            }
            (mini, writes, mini_batches, mini_model, import_assocs)
        });
        laps.push(lap);
        let pool = pool_for(&model);
        let scratch_pool = pool_for(&mini_model);
        facts.pool_pages = if w.store == StoreKind::Paged {
            pool.pool_pages
        } else {
            0
        };

        // the main store: bulk import, checkpoint, close, reopen
        let live0 = alloc::live_bytes();
        let main_dir = cfg.dir.join("main");
        let wchar0 = wchar();
        let mut gm = open_store(w.store, &main_dir, pool)?;
        for b in &batches {
            let (r, lap) = host.lap(|| gm.import_batch(b));
            facts.bulk_import_s += lap.norm_ms() / 1e3;
            laps.push(lap);
            let r = r.map_err(err("bulk import"))?;
            rec.check(!r.skipped, || format!("bulk import skipped {}", r.source));
        }
        let (r, lap) = host.lap(|| gm.checkpoint());
        facts.bulk_checkpoint_s = lap.norm_ms() / 1e3;
        laps.push(lap);
        r.map_err(err("bulk checkpoint"))?;
        facts.write_bytes = wchar() - wchar0;
        facts.disk_bytes = dir_bytes(&main_dir);
        if let Some(p) = gm.store().database().stats().map_err(err("stats"))?.pool {
            facts.heap_file_bytes = p.heap_bytes;
        }
        drop(gm);
        let (gm, lap) = host.lap(|| open_store(w.store, &main_dir, pool));
        facts.bulk_reopen_s = lap.norm_ms() / 1e3;
        laps.push(lap);
        let gm = gm?;
        let got = gm
            .cardinalities()
            .map_err(err("cardinalities"))?
            .to_string();
        rec.check(got == cards.to_string(), || {
            format!("main store holds {got}, want {cards}")
        });

        // publish and serve, or keep the live handle
        let mut sys = match w.reads {
            ReadPath::InProcess => Sys::Live(Box::new(gm)),
            ReadPath::Wire => {
                let (server, lap) = host.lap(|| -> Result<Server, String> {
                    let shared = Arc::new(SharedGenMapper::new(gm).map_err(err("publish"))?);
                    let config = ServerConfig {
                        addr: "127.0.0.1:0".to_owned(),
                        threads: 1,
                        // the connection idles while the other laps of
                        // a cycle run: seconds here, a minute at scale 1
                        read_timeout: std::time::Duration::from_secs(3600),
                        ..ServerConfig::default()
                    };
                    Server::start(shared, &config).map_err(err("server start"))
                });
                facts.publish_s = lap.norm_ms() / 1e3;
                laps.push(lap);
                let server = server?;
                let client = Client::connect(server.local_addr()).map_err(err("connect"))?;
                Sys::Served {
                    server: Some(server),
                    client,
                }
            }
        };

        // the fixed read list: first answers warm every cache and are
        // judged by the oracle before their hashes are trusted
        let requests = gen::read_list(&model, cfg.seed, w.mix, w.repeat);
        let mut list = Vec::with_capacity(requests.len());
        let mut judged = [0usize; 4];
        let (r, lap) = host.lap(|| -> Result<(), String> {
            for request in requests {
                let body = sys.call(&request.line);
                let body = match body {
                    Ok(b) => b,
                    Err(e) => {
                        rec.check(false, || format!("{}: {e}", request.line));
                        String::new()
                    }
                };
                let seen = &mut judged[request.class as usize];
                if *seen < ORACLE_SAMPLE {
                    *seen += 1;
                    let mut path = |from: &str, to: &str| -> Result<Vec<String>, String> {
                        let body = sys.call(&format!("path {from} {to}"))?;
                        Ok(body.trim_end().split(" -> ").map(str::to_owned).collect())
                    };
                    let verdict = model.check(&request.line, &body, &mut path);
                    rec.check(verdict.is_ok(), || {
                        format!("{}: {}", request.line, verdict.unwrap_err())
                    });
                }
                list.push(Expected {
                    hash: stable(&request.line, &body),
                    request,
                });
            }
            Ok(())
        });
        laps.push(lap);
        r?;
        if cfg.self_test {
            list[0].hash ^= 0x0100; // one flipped byte of one expected answer
        }

        // the scratch store, and the power-cut check on it
        let probe_line = format!(
            "info LocusLink {}",
            mini_model.wire_accessions("LocusLink")[0]
        );
        let scratch = Scratch {
            kind: w.store,
            pool: scratch_pool,
            dir: cfg.dir.join("scratch"),
            eco: mini,
            writes,
            import_assocs,
            final_cards: mini_model.cardinalities().to_string(),
            probe: (probe_line, 0),
        };
        let (r, lap) = host.lap(|| crash_check(&scratch, &mini_batches, &mut rec));
        laps.push(lap);
        r?;

        let mut run = Run {
            cfg,
            host,
            sys,
            scratch,
            list,
            rec,
            version: (0, 0),
            setup: facts,
            traced: None,
            server_counters: None,
        };
        // one untimed warm-up cycle; it also fixes the probe's answer,
        // judged by the oracle against the scratch model
        let mut warm = Recorder::default();
        std::mem::swap(&mut warm, &mut run.rec);
        run.cycle(Some(&mini_model))?;
        std::mem::swap(&mut warm, &mut run.rec);
        run.rec.attempted += warm.attempted;
        run.rec.failed += warm.failed;
        run.rec.failures.extend(warm.failures);
        for series in [
            &warm.import,
            &warm.checkpoint,
            &warm.write,
            &warm.recover,
            &warm.read,
        ] {
            laps.extend(series.iter().copied());
        }

        // heap of the loaded, published, warmed system
        run.setup.heap_bytes = alloc::live_bytes().saturating_sub(live0);
        drop(batches);
        drop(eco);

        // set-up ends here: wall time since process start, normalised by
        // the host factor its laps saw (slices themselves excluded)
        let wall_s = run.cfg.started.elapsed().as_secs_f64();
        let slices_s = run.host.slices_ms.iter().sum::<f64>() / 1e3;
        run.setup.setup_raw_s = wall_s;
        run.setup.setup_s =
            (wall_s - slices_s) * stats::norm_total_s(&laps) / stats::raw_total_s(&laps);
        run.host.stale();
        Ok(run)
    }

    /// One cycle of laps. `judge` (warm-up only) has the oracle check the
    /// reopened store's probe answer and records its hash.
    pub fn cycle(&mut self, judge: Option<&Model>) -> Result<(), String> {
        let Run {
            host, scratch, rec, ..
        } = self;
        let _ = std::fs::remove_dir_all(&scratch.dir);
        host.stale();

        // import lap
        let (r, mut lap) = host.lap(|| -> Result<(GenMapper, usize, f64), String> {
            let mut gm = open_store(scratch.kind, &scratch.dir, scratch.pool)?;
            let (reports, sync_ms) = import_dumps(&mut gm, &scratch.eco.dumps)?;
            let created = reports.iter().map(|r| r.associations_created).sum();
            Ok((gm, created, sync_ms))
        });
        let (mut gm, created, sync_ms) = r?;
        lap.sync_ms = sync_ms;
        rec.check(created == scratch.import_assocs, || {
            format!(
                "import created {created} associations, want {}",
                scratch.import_assocs
            )
        });
        rec.import.push(lap);
        rec.import_assocs += created as u64;

        // checkpoint
        let (r, lap) = host.lap(|| gm.checkpoint());
        r.map_err(err("checkpoint"))?;
        rec.checkpoint.push(lap);

        // write lap: release re-imports, left in the WAL
        let (r, mut lap) = host.lap(|| -> Result<Vec<(f64, f64)>, String> {
            let mut ms = Vec::with_capacity(scratch.writes.len());
            for write in &scratch.writes {
                let t = Instant::now();
                let (reports, sync_ms) = import_dumps(&mut gm, write)?;
                ms.push((t.elapsed().as_secs_f64() * 1e3, sync_ms));
                if reports.iter().any(|r| r.skipped) {
                    return Err("a release re-import was skipped".to_owned());
                }
            }
            Ok(ms)
        });
        for (ms, sync_ms) in r? {
            rec.check(true, String::new);
            rec.write_ms.push(lap.normalise(ms, sync_ms));
            lap.sync_ms += sync_ms;
        }
        rec.write.push(lap);
        drop(gm); // close
        host.stale();

        // recover lap: reopen, replay the WAL tail, first checked answer
        let mut bodies = Vec::new();
        let (r, lap) = host.lap(|| -> Result<Vec<f64>, String> {
            let t = Instant::now();
            let gm = open_store(scratch.kind, &scratch.dir, scratch.pool)?;
            let cards = gm
                .cardinalities()
                .map_err(err("cardinalities"))?
                .to_string();
            let body = call_in_process(&gm, &scratch.probe.0)?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            bodies.push((cards, body));
            Ok(vec![ms])
        });
        for ms in r? {
            rec.recover_ms.push(lap.normalise(ms, 0.0));
        }
        rec.recover.push(lap);
        for (cards, body) in bodies {
            rec.check(cards == scratch.final_cards, || {
                format!("reopened store holds {cards}, want {}", scratch.final_cards)
            });
            if let Some(model) = judge {
                let verdict = model.check(&scratch.probe.0, &body, &mut |_, _| {
                    Err("no path needed".to_owned())
                });
                rec.check(verdict.is_ok(), || {
                    format!("probe: {}", verdict.unwrap_err())
                });
                scratch.probe.1 = fnv1a(body.as_bytes());
            } else {
                rec.check(fnv1a(body.as_bytes()) == scratch.probe.1, || {
                    "reopened store answered the probe differently".to_owned()
                });
            }
        }
        host.stale();
        self.read_lap()
    }

    /// Replay the fixed read list once, closed loop, checking every body.
    fn read_lap(&mut self) -> Result<(), String> {
        let Run {
            host,
            sys,
            list,
            rec,
            version,
            ..
        } = self;
        let mut outcomes: Vec<(usize, f64, Result<String, String>)> =
            Vec::with_capacity(list.len());
        let (_, lap) = host.lap(|| {
            for (i, e) in list.iter().enumerate() {
                let t = Instant::now();
                let body = sys.call(&e.request.line);
                outcomes.push((i, t.elapsed().as_secs_f64() * 1e3, body));
            }
        });
        let h = lap.host_factor();
        for (i, ms, body) in outcomes {
            let e = &list[i];
            match body {
                Ok(body) => {
                    rec.check(stable(&e.request.line, &body) == e.hash, || {
                        format!("{}: answer changed", e.request.line)
                    });
                    if let Some(v) = snapshot_version(&body) {
                        rec.check(v >= *version, || {
                            format!("snapshot version went back to {v:?}")
                        });
                        *version = v.max(*version);
                    }
                }
                Err(msg) => rec.check(false, || format!("{}: {msg}", e.request.line)),
            }
            rec.class_ms[e.request.class as usize].push(ms / h);
            if e.request.class == Class::View {
                rec.view_ms.push(ms / h);
            }
        }
        rec.read_ops += list.len() as u64;
        rec.read.push(lap);
        Ok(())
    }

    /// Cycle until the measuring window has elapsed.
    pub fn measure(&mut self) -> Result<(), String> {
        let window = Instant::now();
        while window.elapsed().as_secs_f64() < self.cfg.seconds {
            if crate::trace::enabled() {
                traced::cycle(self)?;
            } else {
                self.cycle(None)?;
            }
        }
        Ok(())
    }

    /// Stop the server, remove the run directory.
    pub fn tear_down(&mut self) -> Result<(), String> {
        if let Sys::Served { server, client } = &mut self.sys {
            let _ = client.call("quit");
            if let Some(server) = server.take() {
                let (shed, timeouts, _) = server.stats().hardening_snapshot();
                self.server_counters = Some((shed, timeouts, server.stats().snapshot().4));
                server.shutdown().map_err(err("server shutdown"))?;
            }
        }
        let _ = std::fs::remove_dir_all(&self.cfg.dir);
        Ok(())
    }
}

/// Requests per class judged by the oracle in set-up; the rest of a class
/// are pinned to their first answer only.
const ORACLE_SAMPLE: usize = 24;

#[cfg(test)]
mod tests {
    use super::*;

    fn set_up(seed: u64, tag: &str) -> Run {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test run directory");
        let mut run = Run::set_up(Config {
            workload: &WORKLOADS[0],
            seed,
            seconds: 0.0,
            scale: 0.004,
            self_test: false,
            dir,
            started: Instant::now(),
        })
        .expect("set-up at a tiny scale");
        run.tear_down().expect("tear-down");
        run
    }

    /// Two runs of one seed get byte-identical request lists, verify the
    /// same answers and count the same bytes on disk; another seed gets
    /// different requests. (The heap and `wchar` counts are process-wide,
    /// so tests running beside this one would disturb them here; the
    /// benchmark itself runs alone, and prints them identical per seed.)
    #[test]
    fn one_seed_one_input() {
        let (a, b, c) = (set_up(5, "a"), set_up(5, "b"), set_up(6, "c"));
        let lines = |r: &Run| -> Vec<(String, u64)> {
            r.list
                .iter()
                .map(|e| (e.request.line.clone(), e.hash))
                .collect()
        };
        assert!(!a.list.is_empty());
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        assert_eq!(a.setup.assocs, b.setup.assocs);
        assert_eq!(a.setup.disk_bytes, b.setup.disk_bytes);
        assert_eq!(a.scratch.final_cards, b.scratch.final_cards);
        assert_eq!(a.scratch.probe, b.scratch.probe);
        for run in [&a, &b, &c] {
            assert_eq!(run.rec.failed, 0, "{:?}", run.rec.failures);
            assert!(run.rec.attempted > 100);
        }
    }

    #[test]
    fn a_flipped_expectation_is_counted_as_a_failure() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}-selftest", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test run directory");
        let mut run = Run::set_up(Config {
            workload: &WORKLOADS[0],
            seed: 5,
            seconds: 0.0,
            scale: 0.004,
            self_test: true,
            dir,
            started: Instant::now(),
        })
        .expect("set-up at a tiny scale");
        // the warm-up cycle already replayed the list against the
        // corrupted expectation
        run.tear_down().expect("tear-down");
        assert!(run.rec.failed >= 1);
    }
}
