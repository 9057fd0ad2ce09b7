//! Recovery-degradation matrix: damaged checkpoint and WAL files must never
//! prevent an open from producing a consistent state. Open falls back to
//! the newest *valid* page directory plus the valid committed WAL prefix,
//! and the [`RecoveryReport`](relstore::RecoveryReport) records every
//! degradation it performed. The ladder is one code path; every case runs
//! pool-less and pooled. What an open cannot serve — sealed pages without
//! a pool, the files of a superseded format, a directory of a newer
//! version, a whole WAL frame it cannot decode — it refuses without
//! touching, and it reads each file it needs once.

use relstore::codec::crc32;
use relstore::db::{heap_file_name, PAGEDIR_FILE, PAGEDIR_PREV_FILE, WAL_FILE};
use relstore::schema::{Column, Schema};
use relstore::value::{Value, ValueType};
use relstore::vfs::{FaultVfs, RealVfs, Vfs, VfsFile, VfsReader};
use relstore::sync::Counter;
use relstore::{Database, PoolConfig, RowId, SnapshotSource, StoreError, StoreResult};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use testkit::TempDir;

fn schema() -> Schema {
    Schema::builder("t")
        .column(Column::new("id", ValueType::Int))
        .primary_key(&["id"])
        .build()
        .unwrap()
}

/// Pages of a few rows and a pool of two: the seeded stores seal pages and
/// evict them.
fn open_paged(dir: &Path) -> StoreResult<Database> {
    let config = PoolConfig {
        page_bytes: 64,
        pool_pages: 2,
    };
    Database::open_paged(dir, config)
}

type Open = fn(&Path) -> StoreResult<Database>;
const MODES: [(&str, Open); 2] = [("open", Database::open), ("open_paged", open_paged)];

fn test_dir(name: &str) -> TempDir {
    TempDir::new(&format!("relstore-recovery-{name}"))
}

fn insert_range(db: &mut Database, range: std::ops::Range<i64>) {
    db.with_txn(|txn| {
        for i in range.clone() {
            txn.insert("t", vec![Value::Int(i)])?;
        }
        Ok(())
    })
    .unwrap();
}

fn ids(db: &Database) -> Vec<i64> {
    let mut out: Vec<i64> = db
        .table("t")
        .unwrap()
        .scan()
        .map(|(_, row)| match row.get(0) {
            Value::Int(i) => *i,
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

/// Build a directory with two checkpoints and a live WAL tail:
/// `pagedir.prev` holds 0..10 (epoch 1), `pagedir.bin` holds 0..20
/// (epoch 2), and the WAL (epoch 2) commits 20..30.
fn seeded_dir(name: &str, open: Open) -> TempDir {
    let dir = test_dir(name);
    let mut db = open(&dir).unwrap();
    db.create_table(schema()).unwrap();
    insert_range(&mut db, 0..10);
    db.checkpoint().unwrap();
    insert_range(&mut db, 10..20);
    db.checkpoint().unwrap();
    insert_range(&mut db, 20..30);
    drop(db);
    assert!(RealVfs.exists(&dir.join(PAGEDIR_PREV_FILE)));
    dir
}

/// Every way of damaging the primary directory must degrade identically:
/// fall back to `pagedir.prev`. The live WAL belongs to the newer epoch,
/// so it is recognized as inconsistent with the fallback and discarded —
/// recovery yields the consistent epoch-1 state rather than an error.
#[test]
fn corrupt_primary_snapshot_falls_back_to_previous() {
    type Corruptor = fn(&mut Vec<u8>);
    let cases: [(&str, Corruptor); 4] = [
        ("truncated-body", |data| data.truncate(data.len() / 2)),
        ("flipped-crc", |data| data[8] ^= 0xff),
        ("bad-magic", |data| data[0] = b'X'),
        ("bad-version", |data| data[4] = 0),
    ];
    for (mode, open) in MODES {
        for (name, corrupt) in cases {
            let case = format!("{mode} {name}");
            let dir = seeded_dir(&format!("ckpt-{mode}-{name}"), open);
            let path = dir.join(PAGEDIR_FILE);
            let mut data = dir.read(&path);
            corrupt(&mut data);
            dir.write(&path, &data);

            let db = open(&dir).unwrap();
            let report = db.recovery_report().unwrap().clone();
            assert_eq!(report.snapshot, SnapshotSource::Fallback, "case {case}");
            assert_eq!(report.epoch, 1, "case {case}");
            assert!(report.wal_stale, "case {case}");
            assert_eq!(ids(&db), (0..10).collect::<Vec<_>>(), "case {case}");
            drop(db);

            // The degraded open repaired the directory: a second open is clean.
            let db = open(&dir).unwrap();
            let report = db.recovery_report().unwrap();
            assert!(!report.wal_stale, "case {case} reopen");
            assert_eq!(ids(&db), (0..10).collect::<Vec<_>>(), "case {case} reopen");
        }
    }
}

/// With both directory copies damaged the database still opens — as empty,
/// the only consistent state left — instead of erroring out.
#[test]
fn both_snapshots_corrupt_degrades_to_empty() {
    for (mode, open) in MODES {
        let dir = seeded_dir(&format!("both-bad-{mode}"), open);
        for file in [PAGEDIR_FILE, PAGEDIR_PREV_FILE] {
            let path = dir.join(file);
            let mut data = dir.read(&path);
            let n = data.len();
            data[n / 2] ^= 0xff;
            dir.write(&path, &data);
        }
        let db = open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.snapshot, SnapshotSource::None, "{mode}");
        assert_eq!(report.epoch, 0, "{mode}");
        assert!(report.wal_stale, "{mode}");
        assert!(db.table("t").is_err(), "{mode}: no table survives a total wipe");
    }
}

/// Crash window of the checkpoint protocol: after `pagedir.bin` was
/// renamed to `pagedir.prev` but before the new directory landed. The
/// primary is missing, the WAL still carries the fallback's epoch, so its
/// committed transactions replay on top of the fallback — nothing is lost.
#[test]
fn missing_primary_replays_wal_onto_fallback() {
    for (mode, open) in MODES {
        let dir = test_dir(&format!("missing-primary-{mode}"));
        let mut db = open(&dir).unwrap();
        db.create_table(schema()).unwrap();
        insert_range(&mut db, 0..10);
        db.checkpoint().unwrap(); // epoch 1
        insert_range(&mut db, 10..20); // WAL, epoch 1
        drop(db);
        // Simulate the interrupted second checkpoint.
        RealVfs.rename(&dir.join(PAGEDIR_FILE), &dir.join(PAGEDIR_PREV_FILE)).unwrap();

        let db = open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.snapshot, SnapshotSource::Fallback, "{mode}");
        assert_eq!(report.epoch, 1, "{mode}");
        assert!(!report.wal_stale, "{mode}");
        assert!(report.wal_txns >= 1, "{mode}");
        assert_eq!(ids(&db), (0..20).collect::<Vec<_>>(), "{mode}");
    }
}

/// The same crash window combined with a torn WAL tail: the committed
/// prefix replays, the torn suffix is truncated and reported.
#[test]
fn fallback_snapshot_with_torn_wal_keeps_committed_prefix() {
    for (mode, open) in MODES {
        let dir = test_dir(&format!("fallback-torn-{mode}"));
        let mut db = open(&dir).unwrap();
        db.create_table(schema()).unwrap();
        insert_range(&mut db, 0..10);
        db.checkpoint().unwrap(); // epoch 1
        insert_range(&mut db, 10..20); // committed, epoch 1
        insert_range(&mut db, 20..30); // committed, epoch 1 — will be torn
        drop(db);
        RealVfs.rename(&dir.join(PAGEDIR_FILE), &dir.join(PAGEDIR_PREV_FILE)).unwrap();
        let wal_path = dir.join(WAL_FILE);
        let mut wal = dir.read(&wal_path);
        wal.truncate(wal.len() - 5); // tear the final commit frame
        dir.write(&wal_path, &wal);

        let db = open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        assert_eq!(report.snapshot, SnapshotSource::Fallback, "{mode}");
        assert!(!report.wal_stale, "{mode}");
        assert!(report.wal_torn_at.is_some(), "{mode}");
        // txn 20..30 lost its commit marker: committed prefix only.
        assert_eq!(ids(&db), (0..20).collect::<Vec<_>>(), "{mode}");
    }
}

/// Random byte flips anywhere in the WAL never break open: recovery keeps
/// a prefix of the committed transactions (the CRC catches the damage) and
/// the store stays internally consistent.
#[test]
fn wal_bitflips_degrade_to_a_committed_prefix() {
    for seed in 0..8u64 {
        let dir = test_dir(&format!("wal-flip-{seed}"));
        let mut db = Database::open(&dir).unwrap();
        db.create_table(schema()).unwrap();
        db.checkpoint().unwrap(); // table creation is durable via checkpoint
        for batch in 0..6 {
            insert_range(&mut db, batch * 5..(batch + 1) * 5);
        }
        drop(db);
        let wal_path = dir.join(WAL_FILE);
        let mut wal = dir.read(&wal_path);
        // deterministic pseudo-random flip position
        let pos = (seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(12345) as usize)
            % wal.len();
        wal[pos] ^= 0x40;
        dir.write(&wal_path, &wal);

        let db = Database::open(&dir).unwrap();
        let report = db.recovery_report().unwrap();
        let got = ids(&db);
        // a prefix of whole batches: length divisible by 5, contiguous 0..n
        assert!(report.wal_txns <= 6, "seed {seed}");
        assert_eq!(got.len() % 5, 0, "seed {seed}: {got:?}");
        assert_eq!(got, (0..got.len() as i64).collect::<Vec<_>>(), "seed {seed}");
    }
}

// ---- opens that must not be served the wrong way ----------------------

/// 100 rows checkpointed, then 10 more in one committed transaction that
/// lives only in the WAL.
fn checkpointed_plus_wal_tail(name: &str, open: Open) -> TempDir {
    let dir = test_dir(name);
    let mut db = open(&dir).unwrap();
    db.create_table(schema()).unwrap();
    insert_range(&mut db, 0..100);
    db.checkpoint().unwrap();
    insert_range(&mut db, 100..110);
    drop(db);
    dir
}

fn dir_image(dir: &TempDir) -> Vec<(PathBuf, Vec<u8>)> {
    dir.files().into_iter().map(|path| (path.clone(), dir.read(&path))).collect()
}

/// A paged directory opened without a pool used to come up empty and reset
/// the WAL, losing the ten acknowledged commits in it. It is refused, with
/// nothing touched, and the right open still sees every row.
#[test]
fn paged_directory_opened_without_a_pool_is_refused_untouched() {
    let dir = checkpointed_plus_wal_tail("paged-opened-plain", open_paged);
    let before = dir_image(&dir);
    match Database::open(&dir) {
        Err(StoreError::Unsupported(msg)) => assert!(msg.contains("open_paged"), "{msg}"),
        other => panic!("pool-less open of a paged directory: {other:?}"),
    }
    assert_eq!(dir_image(&dir), before, "a refused open changes nothing");
    let db = open_paged(&dir).unwrap();
    assert_eq!(db.recovery_report().unwrap().wal_txns, 1);
    assert_eq!(ids(&db), (0..110).collect::<Vec<_>>());
}

/// A page directory from a newer build — whole, its checksum good, its
/// version one past the newest this build writes — is refused by both
/// opens, naming the version, and nothing is touched: no fallback to
/// `pagedir.prev`, no WAL reset as stale, no directory written over it.
#[test]
fn a_directory_from_a_newer_version_is_refused_untouched() {
    let dense = Schema::builder("d")
        .column(Column::new("id", ValueType::Int))
        .dense_key("id")
        .build()
        .unwrap();
    for (mode, open) in MODES {
        let dir = seeded_dir(&format!("newer-version-{mode}"), open);
        // a dense key is written at this build's newest directory version
        let mut db = open(&dir).unwrap();
        db.create_table(dense.clone()).unwrap();
        db.with_txn(|txn| txn.insert("d", vec![Value::Int(1)]).map(drop)).unwrap();
        db.checkpoint().unwrap();
        insert_range(&mut db, 30..40);
        drop(db);
        let path = dir.join(PAGEDIR_FILE);
        let mut data = dir.read(&path);
        let newer = u32::from_le_bytes(data[4..8].try_into().unwrap()) + 1;
        data[4..8].copy_from_slice(&newer.to_le_bytes());
        let crc = crc32(&data[12..]);
        data[8..12].copy_from_slice(&crc.to_le_bytes());
        dir.write(&path, &data);

        let before = dir_image(&dir);
        for name in [PAGEDIR_FILE, PAGEDIR_PREV_FILE, WAL_FILE] {
            assert!(before.iter().any(|(file, _)| file.ends_with(name)), "{mode}: {name}");
        }
        for (reopen, open) in MODES {
            match open(&dir) {
                Err(StoreError::Unsupported(msg)) => {
                    assert!(msg.contains(&format!("version {newer}")), "{msg}")
                }
                other => panic!("{reopen} of a version-{newer} directory: {other:?}"),
            }
            assert_eq!(
                dir_image(&dir),
                before,
                "{mode} store, {reopen}: a refused open changes nothing"
            );
        }
    }
}

/// A whole WAL frame — its length and checksum good — that this build
/// cannot decode is refused, not cut off as a torn tail together with the
/// acknowledged commit behind it: an unknown tag (a newer build's record)
/// is `Unsupported` naming the tag, a known tag whose body does not decode
/// is `Corrupt`, and every file is left as it was. The same frame with its
/// checksum broken is a torn tail: the open keeps the commit in front of it.
#[test]
fn a_whole_wal_frame_that_does_not_decode_is_refused_untouched() {
    let frame = |payload: &[u8], crc: u32| {
        [&(payload.len() as u32).to_le_bytes()[..], &crc.to_le_bytes(), payload].concat()
    };
    for (mode, open) in MODES {
        // checkpoint, commit 1; then commit 2, whose frames are cut out to
        // go behind the frame under test
        let dir = test_dir(&format!("undecodable-frame-{mode}"));
        let mut db = open(&dir).unwrap();
        db.create_table(schema()).unwrap();
        db.checkpoint().unwrap();
        insert_range(&mut db, 1..2);
        drop(db);
        let first = dir.read(WAL_FILE);
        let mut db = open(&dir).unwrap();
        insert_range(&mut db, 2..3);
        drop(db);
        let both = dir.read(WAL_FILE);
        let (head, second) = both.split_at(first.len());
        assert_eq!(head, &first[..], "{mode}: the reopen rewrote the log");

        let cases: [(&str, &[u8]); 2] = [("unknown tag", &[7, 0]), ("insert body", &[1, 9, b't'])];
        for (case, payload) in cases {
            dir.write(dir.join(WAL_FILE), [&first[..], &frame(payload, crc32(payload)), second].concat());
            let before = dir_image(&dir);
            match (open(&dir), case) {
                (Err(StoreError::Unsupported(msg)), "unknown tag") => assert!(msg.contains("tag 7"), "{msg}"),
                (Err(StoreError::Corrupt(_)), "insert body") => {}
                (other, _) => panic!("{mode}, {case}: {other:?}"),
            }
            assert_eq!(dir_image(&dir), before, "{mode}, {case}: a refused open changes nothing");
        }

        let payload = [7, 0];
        dir.write(dir.join(WAL_FILE), [&first[..], &frame(&payload, !crc32(&payload)), second].concat());
        let db = open(&dir).unwrap();
        assert_eq!(db.recovery_report().unwrap().wal_torn_at, Some(first.len() as u64), "{mode}");
        assert_eq!(ids(&db), [1], "{mode}: a torn frame keeps the commit in front of it");
        drop(db);
    }
}

/// Forwards every call to `inner`, counting whole-file reads by path, the
/// readers opened and the reads made by path and position.
struct Counting {
    inner: Arc<dyn Vfs>,
    reads: Mutex<HashMap<PathBuf, usize>>,
    readers: Counter,
    read_ats: Counter,
}

impl Counting {
    fn over(inner: Arc<dyn Vfs>) -> Arc<Self> {
        let (reads, readers, read_ats) = Default::default();
        Arc::new(Counting { inner, reads, readers, read_ats })
    }

    /// Readers opened and reads made by path so far.
    fn heap_reads(&self) -> (usize, usize) {
        (self.readers.get() as usize, self.read_ats.get() as usize)
    }
}

impl Vfs for Counting {
    fn read(&self, path: &Path) -> StoreResult<Option<Vec<u8>>> {
        *self.reads.lock().unwrap().entry(path.to_owned()).or_default() += 1;
        self.inner.read(path)
    }
    fn open_reader(self: Arc<Self>, path: &Path) -> StoreResult<Box<dyn VfsReader>> {
        self.readers.add(1);
        self.inner.clone().open_reader(path)
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        self.read_ats.add(1);
        self.inner.read_at(path, offset, len)
    }
    fn open_append(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>> {
        self.inner.open_append(path)
    }
    fn create(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>> {
        self.inner.create(path)
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

/// An open reads each file once: the WAL is read and scanned once — the
/// writer appends behind the scan's committed prefix without reading the
/// log again — and so is the page directory. Heap pages are read by range.
#[test]
fn open_reads_the_wal_and_the_page_directory_once() {
    for (mode, open) in MODES {
        let dir = checkpointed_plus_wal_tail(&format!("read-once-{mode}"), open);
        let vfs = Counting::over(Arc::new(RealVfs));
        let db = match mode {
            "open" => Database::open_with_vfs(vfs.clone(), &dir),
            _ => Database::open_paged_with_vfs(vfs.clone(), &dir, PoolConfig { page_bytes: 64, pool_pages: 2 }),
        }
        .unwrap();
        let reads = vfs.reads.lock().unwrap().clone();
        assert_eq!(db.recovery_report().unwrap().wal_txns, 1, "{mode}");
        assert_eq!(ids(&db), (0..110).collect::<Vec<_>>(), "{mode}");
        for file in [WAL_FILE, PAGEDIR_FILE] {
            assert_eq!(reads.get(&dir.join(file)), Some(&1), "{mode}: {file} in {reads:?}");
        }
        assert_eq!(reads.len(), 2, "{mode}: {reads:?}");
        drop(db);
    }
}

/// A paged store reads its heap through one reader, opened at the first
/// fault and held: reading every row three times through a two-page pool
/// opens the heap once and reads no page by path. A compaction moves the
/// heap to a new file and the reader with it, so once the old file is
/// removed every row still reads — a reader kept across the swap would
/// read the old file at the new file's offsets.
#[test]
fn the_pool_holds_one_reader_on_its_heap_and_compaction_re_points_it() {
    let scratch = test_dir("one-reader");
    let backends: [(&str, Arc<dyn Vfs>, PathBuf); 2] = [
        ("real", Arc::new(RealVfs), scratch.to_path_buf()),
        ("fault", Arc::new(FaultVfs::new()), PathBuf::from("/db")),
    ];
    for (backend, inner, dir) in backends {
        let vfs = Counting::over(inner);
        let config = PoolConfig { page_bytes: 64, pool_pages: 2 };
        let mut db = Database::open_paged_with_vfs(vfs.clone(), &dir, config).unwrap();
        db.create_table(schema()).unwrap();
        insert_range(&mut db, 0..100);
        db.checkpoint().unwrap();
        // rewritten pages leave superseded images in the heap, so the
        // compacted heap holds each page at another offset
        db.with_txn(|txn| (0..100).step_by(7).try_for_each(|id| txn.delete("t", RowId(id))))
            .unwrap();
        db.checkpoint().unwrap();
        drop(db);
        let expected: Vec<i64> = (0..100).filter(|id| id % 7 != 0).collect();

        let before = vfs.heap_reads();
        let mut db = Database::open_paged_with_vfs(vfs.clone(), &dir, config).unwrap();
        for _ in 0..3 {
            assert_eq!(ids(&db), expected, "{backend}");
        }
        assert!(db.stats().unwrap().pool.unwrap().misses > 3 * 2, "{backend}: the rows outgrow the pool");
        let (readers, read_ats) = vfs.heap_reads();
        assert_eq!((readers - before.0, read_ats - before.1), (1, 0), "{backend}: one reader, no read by path");

        let old_heap = dir.join(heap_file_name(1));
        assert!(vfs.exists(&old_heap), "{backend}");
        db.compact().unwrap();
        vfs.remove(&old_heap).unwrap();
        assert_eq!(ids(&db), expected, "{backend}: rows after the old heap is gone");
        let (readers, read_ats) = vfs.heap_reads();
        assert_eq!((readers - before.0, read_ats - before.1), (2, 0), "{backend}: the reader followed the heap");
        drop(db);
        let db = Database::open_paged_with_vfs(vfs.clone(), &dir, config).unwrap();
        assert_eq!(ids(&db), expected, "{backend}: reopened on the compacted heap");
        drop(db);
    }
}

/// A directory written without a pool opens with one — the WAL tail
/// replays, the tail pages out — and holds the same rows from then on,
/// through checkpoint and reopen. Once pages are sealed it is a paged
/// directory; while none are (pages too large to fill) either open serves it.
#[test]
fn pool_less_directory_opens_paged() {
    for page_bytes in [64, 32 * 1024] {
        let config = PoolConfig {
            page_bytes,
            pool_pages: 2,
        };
        let dir = checkpointed_plus_wal_tail(&format!("plain-opened-paged-{page_bytes}"), Database::open);
        let rows = |db: &Database| db.table("t").unwrap().scan().collect::<Vec<_>>();
        let expected = rows(&Database::open(&dir).unwrap());
        assert_eq!(expected.len(), 110);

        let mut db = Database::open_paged(&dir, config).unwrap();
        assert_eq!(db.recovery_report().unwrap().wal_txns, 1);
        assert_eq!(rows(&db), expected, "page_bytes {page_bytes}");
        db.checkpoint().unwrap();
        let sealed = db.stats().unwrap().pool.unwrap().heap_bytes > 0;
        assert_eq!(sealed, page_bytes == 64, "replay settles the tail it extends");
        drop(db);

        let db = Database::open_paged(&dir, config).unwrap();
        assert_eq!(rows(&db), expected, "page_bytes {page_bytes}: paged reopen");
        // the reopened pool knows the heap file's extent before it writes
        let heap = RealVfs.file_len(&dir.join(heap_file_name(1))).unwrap().unwrap_or(0);
        let heap_bytes = db.stats().unwrap().pool.unwrap().heap_bytes;
        assert_eq!(heap_bytes, heap, "page_bytes {page_bytes}: heap_bytes after reopen");
        drop(db);
        match Database::open(&dir) {
            Ok(db) if !sealed => assert_eq!(rows(&db), expected, "never sealed: pool-less reopen"),
            Err(StoreError::Unsupported(_)) if sealed => {}
            other => panic!("page_bytes {page_bytes}: pool-less reopen: {other:?}"),
        }
    }
}

/// `snapshot.bin` was the pool-less checkpoint before the page directory
/// became the one catalog. A directory holding only that is refused by
/// both opens, and its WAL — which extends a checkpoint this build cannot
/// read — is left exactly as it was.
#[test]
fn legacy_snapshot_directory_is_refused_untouched() {
    for legacy in ["snapshot.bin", "snapshot.prev"] {
        for (mode, open) in MODES {
            let dir = checkpointed_plus_wal_tail(&format!("legacy-{legacy}-{mode}"), Database::open);
            RealVfs.remove(&dir.join(PAGEDIR_FILE)).unwrap();
            dir.write(dir.join(legacy), b"RSSN");
            let wal = dir.read(WAL_FILE);
            match open(&dir) {
                Err(StoreError::Unsupported(msg)) => {
                    assert!(msg.contains("pre-PR-20") && msg.contains(legacy), "{msg}")
                }
                other => panic!("{mode} of a {legacy} directory: {other:?}"),
            }
            assert_eq!(dir.read(WAL_FILE), wal, "{mode} {legacy}");
        }
    }
}
