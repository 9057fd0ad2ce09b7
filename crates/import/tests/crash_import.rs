//! End-to-end crash sweep over the import pipeline: a real (demo-scale)
//! ecosystem import runs against the fault-injecting VFS, a power cut is
//! simulated at every I/O operation, and after each cut the store must
//!
//! 1. reopen without error,
//! 2. pass full referential-integrity verification (every committed
//!    prefix is closed under the GAM foreign keys), and
//! 3. converge to a state *identical* to the fault-free import when the
//!    same dumps are re-imported — the source release tag is written last,
//!    so a half-imported source is never skipped by dedup.
//!
//! A pipeline call is one group-commit window: the tests at the end pin
//! that it fsyncs the WAL once, logs each dump's associations as one run,
//! and leaves what it imported durable whether it returns `Ok` or `Err`.

use gam::{GamError, GamRead, GamStore};
use import::{run_pipeline, PipelineOptions};
use relstore::sync::Counter;
use relstore::vfs::{FaultPlan, FaultVfs, Vfs, VfsFile};
use relstore::wal::{scan_wal, LoggedOp};
use relstore::{Row, RowId, StoreResult};
use sources::ecosystem::{Dialect, Ecosystem, EcosystemParams, SourceDump};
use std::path::Path;
use std::sync::Arc;

fn open(vfs: &FaultVfs) -> gam::GamResult<GamStore> {
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    GamStore::open_with_vfs(arc, Path::new("/db"))
}

/// Imports the dumps two at a time, checkpointing after each full pair,
/// then checkpoints once more.
fn import_all(vfs: &FaultVfs, eco: &Ecosystem) -> gam::GamResult<()> {
    let mut store = open(vfs)?;
    let options = PipelineOptions::default();
    for pair in eco.dumps.chunks(2) {
        run_pipeline(&mut store, pair, &options)?;
        if pair.len() == 2 {
            store.checkpoint()?;
        }
    }
    store.checkpoint()
}

/// Every row of every table, in table and row order, so two stores can be
/// compared for bit-identical logical content.
fn fingerprint(store: &GamStore) -> Vec<(String, RowId, Row)> {
    let db = store.database();
    let mut out = Vec::new();
    for name in db.table_names() {
        let table = db.table(name).unwrap();
        out.extend(table.scan().map(|(rid, row)| (name.to_owned(), rid, row.clone())));
    }
    out
}

/// The power-cut sweep over every other crash point, from the `half`-th
/// on: the two halves are disjoint, together cover every I/O operation of
/// the import, and run side by side.
fn crash_sweep(half: usize) {
    let eco = Ecosystem::generate(EcosystemParams::demo(11));

    // Fault-free reference run.
    let reference = FaultVfs::new();
    import_all(&reference, &eco).unwrap();
    let total_ops = reference.op_count();
    let expected = {
        let store = open(&reference).unwrap();
        assert!(store.verify_integrity().unwrap().is_empty());
        fingerprint(&store)
    };
    assert!(!expected.is_empty());
    assert!(
        total_ops >= 100,
        "sweep needs >=100 distinct crash points, import only has {total_ops}"
    );

    // Sweep every fault point, thinning only if the workload is huge; this
    // half takes every other one of them.
    let step = usize::max(1, total_ops as usize / 300);
    let mut crash_points = 0u64;
    for crash_at in (1..=total_ops).step_by(step).skip(half).step_by(2) {
        let vfs = FaultVfs::new();
        vfs.set_plan(FaultPlan {
            crash_at: Some(crash_at),
            fail_at: None,
            torn_seed: crash_at.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
        let outcome = import_all(&vfs, &eco);
        assert!(
            outcome.is_err() && vfs.crashed(),
            "op {crash_at}: power cut did not fire (of {total_ops})"
        );
        crash_points += 1;
        vfs.reboot();

        // 1+2: reopen succeeds and the committed prefix is referentially
        // closed.
        let store =
            open(&vfs).unwrap_or_else(|e| panic!("op {crash_at}: reopen failed: {e}"));
        let violations = store.verify_integrity().unwrap();
        assert!(
            violations.is_empty(),
            "op {crash_at}: integrity violations after recovery: {violations:?}"
        );
        drop(store);

        // 3: re-importing the same dumps converges on the reference state.
        import_all(&vfs, &eco)
            .unwrap_or_else(|e| panic!("op {crash_at}: re-import failed: {e}"));
        let store = open(&vfs).unwrap();
        let got = fingerprint(&store);
        assert!(
            got == expected,
            "op {crash_at}: re-import diverged from the fault-free state \
             ({} vs {} rows)",
            got.len(),
            expected.len()
        );
    }
    assert!(
        crash_points >= 50,
        "only {crash_points} crash points exercised in this half"
    );
}

#[test]
fn import_crash_sweep_recovers_and_reimports_identically() {
    crash_sweep(0);
}

#[test]
fn import_crash_sweep_second_half_recovers_and_reimports_identically() {
    crash_sweep(1);
}

/// Injected I/O errors (not power cuts) during import: the run fails, but
/// the store reopens clean and a retry converges.
#[test]
fn import_io_errors_are_recoverable() {
    let eco = Ecosystem::generate(EcosystemParams::demo(12));
    let reference = FaultVfs::new();
    import_all(&reference, &eco).unwrap();
    let total_ops = reference.op_count();
    let expected = {
        let store = open(&reference).unwrap();
        fingerprint(&store)
    };

    // A coarse sample is enough here; the power-cut sweep is exhaustive.
    for fail_at in (1..=total_ops).step_by(17) {
        let vfs = FaultVfs::new();
        vfs.set_plan(FaultPlan {
            crash_at: None,
            fail_at: Some(fail_at),
            torn_seed: fail_at,
        });
        assert!(import_all(&vfs, &eco).is_err(), "op {fail_at}");
        vfs.set_plan(FaultPlan::default());

        let store = open(&vfs)
            .unwrap_or_else(|e| panic!("op {fail_at}: reopen after I/O error failed: {e}"));
        assert!(store.verify_integrity().unwrap().is_empty(), "op {fail_at}");
        drop(store);
        import_all(&vfs, &eco).unwrap();
        let got = fingerprint(&open(&vfs).unwrap());
        assert_eq!(got.len(), expected.len(), "op {fail_at}");
        assert!(got == expected, "op {fail_at}: diverged");
    }
}

/// A [`FaultVfs`] that counts the fsyncs of the WAL's handles (the log is
/// only ever opened for appending).
struct WalSyncs {
    inner: FaultVfs,
    syncs: Arc<Counter>,
}

struct CountedFile {
    inner: Box<dyn VfsFile>,
    syncs: Arc<Counter>,
}

impl VfsFile for CountedFile {
    fn write_all(&mut self, data: &[u8]) -> StoreResult<()> {
        self.inner.write_all(data)
    }
    fn sync(&mut self) -> StoreResult<()> {
        self.syncs.add(1);
        self.inner.sync()
    }
}

impl Vfs for WalSyncs {
    fn open_append(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>> {
        let inner = self.inner.open_append(path)?;
        if path.file_name() != Some(relstore::db::WAL_FILE.as_ref()) {
            return Ok(inner);
        }
        Ok(Box::new(CountedFile { inner, syncs: self.syncs.clone() }))
    }
    fn create(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>> {
        self.inner.create(path)
    }
    fn read(&self, path: &Path) -> StoreResult<Option<Vec<u8>>> {
        self.inner.read(path)
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        self.inner.read_at(path, offset, len)
    }
    fn remove(&self, path: &Path) -> StoreResult<()> {
        self.inner.remove(path)
    }
    fn file_len(&self, path: &Path) -> StoreResult<Option<u64>> {
        self.inner.file_len(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> StoreResult<()> {
        self.inner.rename(from, to)
    }
    fn truncate(&self, path: &Path, len: u64) -> StoreResult<()> {
        self.inner.truncate(path, len)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn sync_dir(&self, dir: &Path) -> StoreResult<()> {
        self.inner.sync_dir(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> StoreResult<()> {
        self.inner.create_dir_all(dir)
    }
}

/// A store on `vfs` whose tables are checkpointed, so the WAL holds only
/// what comes after.
fn checkpointed(vfs: Arc<dyn Vfs>) -> GamStore {
    let mut store = GamStore::open_with_vfs(vfs, Path::new("/db")).unwrap();
    store.checkpoint().unwrap();
    store
}

/// A pipeline call pays one WAL fsync however many dumps it imports (and
/// none when it skips them all), and a power cut right after it returns
/// loses nothing of them.
#[test]
fn a_pipeline_call_syncs_the_wal_once_and_a_power_cut_after_it_loses_nothing() {
    let eco = Ecosystem::generate(EcosystemParams::demo(11));
    let vfs = FaultVfs::new();
    let syncs = Arc::new(Counter::default());
    let mut store = checkpointed(Arc::new(WalSyncs { inner: vfs.clone(), syncs: syncs.clone() }));
    let before = syncs.get();
    let reports = run_pipeline(&mut store, &eco.dumps[..4], &PipelineOptions::default()).unwrap();
    assert!(reports.iter().filter(|r| r.associations_created > 0).count() >= 3);
    assert_eq!(syncs.get() - before, 1, "a call of 4 dumps fsynced the WAL {} times", syncs.get() - before);
    // the same call again skips every dump, writes nothing and syncs nothing
    let again = run_pipeline(&mut store, &eco.dumps[..4], &PipelineOptions::default()).unwrap();
    assert!(again.iter().all(|r| r.skipped));
    assert_eq!(syncs.get() - before, 1, "a call that wrote nothing fsynced the WAL");
    let expected = fingerprint(&store);
    drop(store);
    vfs.crash_now();
    vfs.reboot();
    assert!(fingerprint(&open(&vfs).unwrap()) == expected, "the power cut lost an imported dump");
}

/// Each dump that adds associations logs them as one `OBJECT_REL` insert
/// run, every mapping's together.
#[test]
fn a_dump_logs_its_associations_as_one_insert_run() {
    let eco = Ecosystem::generate(EcosystemParams::demo(11));
    let vfs = FaultVfs::new();
    let mut store = checkpointed(Arc::new(vfs.clone()));
    let reports = run_pipeline(&mut store, &eco.dumps, &PipelineOptions::default()).unwrap();
    let wal = vfs.peek(&Path::new("/db").join(relstore::db::WAL_FILE)).unwrap();
    let runs = scan_wal(&wal)
        .unwrap()
        .committed_ops
        .iter()
        .filter(|op| matches!(op, LoggedOp::InsertRun { table, .. } if *table == gam::schema::tables::OBJECT_REL))
        .count();
    let adding = reports.iter().filter(|r| r.associations_created > 0).count();
    assert!(adding >= 10, "only {adding} dumps add associations");
    assert_eq!(runs, adding);
}

/// A call whose second dump fails after writing still closes its window
/// with the fsync: after a power cut the first dump is whole and stamped,
/// the failing one's write is there, and the third never ran.
#[test]
fn a_call_whose_second_dump_fails_leaves_the_first_durable() {
    let eco = Ecosystem::generate(EcosystemParams::demo(11));
    // a satellite that links to itself: its object is inserted, then its
    // annotation mapping is refused
    let looped = SourceDump {
        name: "SwissProt".into(),
        dialect: Dialect::Satellite,
        text: "#satellite\tSwissProt\n#release\tr1\n#hub\tSwissProt\naccession,name,links\nLOOP:1,loop,SwissProt=P1\n".into(),
    };
    let dumps = [eco.dumps[0].clone(), looped, eco.dumps[1].clone()];
    let vfs = FaultVfs::new();
    let mut store = checkpointed(Arc::new(vfs.clone()));
    let failed = run_pipeline(&mut store, &dumps, &PipelineOptions::default());
    assert!(matches!(failed, Err(GamError::Invalid(_))), "{failed:?}");
    drop(store);
    vfs.crash_now();
    vfs.reboot();

    let mut alone = GamStore::in_memory().unwrap();
    let first = run_pipeline(&mut alone, &dumps[..1], &PipelineOptions::default()).unwrap();
    let store = open(&vfs).unwrap();
    let source = |name: &str| store.find_source(name).unwrap();
    assert_eq!(source(&dumps[0].name).and_then(|s| s.release), Some(first[0].release.clone()));
    assert_eq!(store.cardinalities().unwrap().associations, alone.cardinalities().unwrap().associations);
    let looped = source("SwissProt").unwrap();
    assert!(store.find_object(looped.id, "LOOP:1").unwrap().is_some(), "the failing dump's write was not synced");
    assert_eq!(looped.release, None);
    assert_eq!(source(&dumps[2].name).and_then(|s| s.release), None);
}
