//! The database: a catalog of tables with transactions and durability.
//!
//! * [`Database::in_memory`] gives a volatile database.
//! * [`Database::open`] attaches a directory: state is the last
//!   [checkpoint](Database::checkpoint)'s page directory plus a replay of
//!   the write-ahead log's committed transactions. Recovery places rows
//!   first — directory, then replay — and builds each index once at the
//!   end. [`Database::open_paged`] does the same with a buffer pool, so
//!   row bodies page out to a heap file.
//!
//! Transactions are single-writer (the `&mut self` receiver enforces it at
//! compile time). A [`Transaction`] applies changes eagerly — reads through
//! the transaction see its own writes — while recording redo records for
//! the WAL and undo records for rollback. Dropping a transaction without
//! committing rolls it back.

use crate::codec::walk_cell;
use crate::error::{StoreError, StoreResult};
use crate::page::PageId;
use crate::pager::{
    decode_catalog, encode_page_directory, page_directory_body, PagedCatalog, Pager, PoolConfig,
};
use crate::row::RowId;
use crate::schema::Schema;
use crate::stats::{DbStats, TableStats};
use crate::table::Table;
use crate::value::Value;
use crate::vfs::{RealVfs, Vfs};
use crate::wal::{push_runs, scan_wal, LogRecord, LoggedOp, WalWriter, MAX_RUN_BYTES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Write-ahead log file name.
pub const WAL_FILE: &str = "wal.log";
/// Primary page-directory file name: the checkpointed catalog.
pub const PAGEDIR_FILE: &str = "pagedir.bin";
/// Previous page directory, kept as a fallback until the next checkpoint.
pub const PAGEDIR_PREV_FILE: &str = "pagedir.prev";
/// The checkpoint files of builds before the page directory was the one
/// catalog; a directory that holds only these is refused, not read.
const LEGACY_SNAPSHOT_FILES: [&str; 2] = ["snapshot.bin", "snapshot.prev"];

/// Heap file for a given generation. Compaction bumps the generation and
/// rewrites live pages into the new file; the page directory names which
/// generation is current.
pub fn heap_file_name(generation: u64) -> String {
    format!("heap.{generation}.bin")
}

struct Durability {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    wal: WalWriter,
    /// Epoch of the checkpoint the current WAL extends.
    epoch: u64,
}

/// Which checkpoint recovery loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotSource {
    /// `pagedir.bin` was present and valid.
    Primary,
    /// `pagedir.bin` was missing or corrupt; `pagedir.prev` was used.
    Fallback,
    /// No valid checkpoint existed (fresh database, or both copies bad).
    None,
}

/// What [`Database::open`] found and did. Recovery *degrades* instead of
/// failing: a corrupt primary checkpoint falls back to the previous one, a
/// stale WAL (epoch mismatch after an interrupted checkpoint) is
/// discarded, a torn WAL tail is truncated. This report makes those
/// decisions observable so callers can log them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Which checkpoint file was loaded.
    pub snapshot: SnapshotSource,
    /// Epoch of the recovered state.
    pub epoch: u64,
    /// Committed transactions replayed from the WAL.
    pub wal_txns: u64,
    /// WAL operations discarded for lack of a commit marker.
    pub wal_discarded_ops: usize,
    /// Byte offset of a torn WAL tail, if one was truncated away.
    pub wal_torn_at: Option<u64>,
    /// True if the whole WAL was discarded because its epoch did not match
    /// the checkpoint (one was interrupted between the directory rename
    /// and the log reset; the log's contents live in the checkpoint).
    pub wal_stale: bool,
}

/// An embedded relational database.
pub struct Database {
    tables: BTreeMap<String, Table>,
    durability: Option<Durability>,
    /// The buffer pool tables page their rows through
    /// ([`Database::open_paged`]); without one every table's tail never
    /// seals and all rows stay in memory.
    pager: Option<Arc<Pager>>,
    /// Catalog numbers that go into the page directory at checkpoint.
    heap_gen: u64,
    next_table_id: u32,
    next_txid: u64,
    /// When `true` (the default) every commit fsyncs the WAL. Group commit
    /// ([`set_sync_on_commit`](Self::set_sync_on_commit)) turns this off so
    /// a bulk loader can commit many transactions and pay one
    /// [`sync_wal`](Self::sync_wal) at the end of the batch.
    sync_on_commit: bool,
    /// What recovery found when this database was opened (durable only).
    recovery: Option<RecoveryReport>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.keys().collect::<Vec<_>>())
            .field("durable", &self.durability.is_some())
            .finish()
    }
}

impl Database {
    /// A volatile in-memory database.
    pub fn in_memory() -> Self {
        Database {
            tables: BTreeMap::new(),
            durability: None,
            pager: None,
            heap_gen: 1,
            next_table_id: 1,
            next_txid: 1,
            sync_on_commit: true,
            recovery: None,
        }
    }

    /// Open (or create) a durable database in `dir` whose rows all stay in
    /// memory: load the last checkpoint, replay committed WAL records, and
    /// keep the WAL open for appends.
    pub fn open(dir: &Path) -> StoreResult<Self> {
        Self::open_with_vfs(Arc::new(RealVfs), dir)
    }

    /// [`open`](Self::open) against an explicit I/O backend (crash tests
    /// substitute [`FaultVfs`](crate::vfs::FaultVfs)).
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, dir: &Path) -> StoreResult<Self> {
        Self::recover(vfs, dir, None)
    }

    /// Open (or create) a paged durable database in `dir`: row bodies live
    /// in slotted heap pages behind a buffer pool of `config.pool_pages`
    /// pages, so datasets far larger than the pool still serve indexed
    /// lookups with bounded resident memory. A directory written without a
    /// pool opens too: its tables page out from their first write on.
    pub fn open_paged(dir: &Path, config: PoolConfig) -> StoreResult<Self> {
        Self::open_paged_with_vfs(Arc::new(RealVfs), dir, config)
    }

    /// [`open_paged`](Self::open_paged) against an explicit I/O backend.
    pub fn open_paged_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        config: PoolConfig,
    ) -> StoreResult<Self> {
        Self::recover(vfs, dir, Some(config))
    }

    /// The one open path. Recovery degrades rather than errors on
    /// storage-level damage:
    ///
    /// 1. Load `pagedir.bin`; if missing or corrupt, fall back to
    ///    `pagedir.prev`; if neither is valid, start from an empty
    ///    catalog. (A crash can only corrupt the directory *being
    ///    written*, which the checkpoint protocol keeps separate from the
    ///    last good one, so the fallback is always at most one checkpoint
    ///    old.) Only the *directory* is loaded — with a pool, every sealed
    ///    page's heap location is registered and the pages are streamed
    ///    once, at the end, to build the indexes.
    /// 2. Read the WAL. Replay its committed transactions only if its
    ///    epoch matches the checkpoint's; a mismatch means the WAL is stale
    ///    (interrupted checkpoint) and it is discarded — its effects are
    ///    already inside the newer checkpoint.
    /// 3. Truncate any torn WAL tail and, if the WAL was stale, reset it
    ///    to the checkpoint's epoch, completing the interrupted checkpoint.
    ///
    /// A directory this open cannot serve is refused instead, before the
    /// WAL is looked at: sealed pages with no `pool` to fault them through,
    /// or only the checkpoint files of a build that predates the page
    /// directory. What recovery did is available from
    /// [`recovery_report`](Self::recovery_report).
    fn recover(vfs: Arc<dyn Vfs>, dir: &Path, pool: Option<PoolConfig>) -> StoreResult<Self> {
        vfs.create_dir_all(dir)?;
        let mut found = None;
        for (file, source) in [
            (PAGEDIR_FILE, SnapshotSource::Primary),
            (PAGEDIR_PREV_FILE, SnapshotSource::Fallback),
        ] {
            let Some(data) = vfs.read(&dir.join(file))? else {
                continue;
            };
            match page_directory_body(&data) {
                // torn or rotted: the older generation is the better one
                Err(StoreError::Corrupt(_)) => {}
                Err(e) => return Err(e),
                // whole, as its writer left it: what is wrong inside it is
                // refused, not degraded around
                Ok(body) => {
                    found = Some((decode_catalog(body)?, source));
                    break;
                }
            }
        }
        let (catalog, source) = match found {
            Some(found) => found,
            None => {
                if let Some(legacy) = LEGACY_SNAPSHOT_FILES
                    .iter()
                    .find(|file| vfs.exists(&dir.join(file)))
                {
                    return Err(StoreError::Unsupported(format!(
                        "{} holds {legacy} and no page directory: the store was written \
                         by a pre-PR-20 build, whose checkpoint format is no longer read",
                        dir.display()
                    )));
                }
                (PagedCatalog::empty(), SnapshotSource::None)
            }
        };
        let pager = match pool {
            None => None,
            Some(config) => {
                // the pool reports the heap file's extent from the open on
                let heap_path = dir.join(heap_file_name(catalog.heap_gen));
                let heap_len = vfs.file_len(&heap_path)?.unwrap_or(0);
                let pager = Pager::new(vfs.clone(), heap_path, config);
                pager.set_heap_len(heap_len);
                Some(Arc::new(pager))
            }
        };
        let mut tables = BTreeMap::new();
        for meta in catalog.tables {
            let table = Table::recovered(meta, pager.clone())?;
            tables.insert(table.name().to_owned(), table);
        }
        let mut db = Database {
            tables,
            durability: None,
            pager,
            heap_gen: catalog.heap_gen,
            next_table_id: catalog.next_table_id,
            next_txid: 1,
            sync_on_commit: true,
            recovery: None,
        };
        db.attach_wal(vfs, dir, catalog.epoch, source)?;
        Ok(db)
    }

    /// Second half of [`recover`](Self::recover): read and scan the WAL
    /// once, replay its committed transactions over the recovered tables
    /// when its epoch matches `epoch`, reset it when stale (completing an
    /// interrupted checkpoint), and leave it open for appends. The tables
    /// arrive under recovery — rows only — and replay only places rows;
    /// once the rows are final every index is built, once, which is also
    /// where a unique violation or a miscounted page directory surfaces.
    /// Nothing is written before that, so a log this build cannot read is
    /// refused untouched.
    fn attach_wal(
        &mut self,
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        epoch: u64,
        source: SnapshotSource,
    ) -> StoreResult<()> {
        let wal_path = dir.join(WAL_FILE);
        let data = vfs.read(&wal_path)?.unwrap_or_default();
        let recovery = scan_wal(&data)?;
        let (committed, cut) = (recovery.committed_bytes, recovery.committed_bytes < data.len() as u64);
        let wal_epoch = recovery.epoch.unwrap_or(0);
        let wal_has_content = recovery.committed_txns > 0
            || recovery.discarded_ops > 0
            || recovery.epoch.is_some()
            || !recovery.committed_ops.is_empty();
        let stale = wal_has_content && wal_epoch != epoch;
        let mut report = RecoveryReport {
            snapshot: source,
            epoch,
            wal_txns: 0,
            wal_discarded_ops: 0,
            wal_torn_at: recovery.torn_at,
            wal_stale: stale,
        };
        if !stale {
            report.wal_txns = recovery.committed_txns;
            report.wal_discarded_ops = recovery.discarded_ops;
            for op in recovery.committed_ops {
                self.apply_replayed(op)?;
            }
            self.next_txid = recovery.committed_txns + 1;
        }
        drop(data);
        for table in self.tables.values_mut() {
            table.build_indexes()?;
        }
        let mut wal = WalWriter::open(vfs.clone(), &wal_path, committed, cut)?;
        if stale {
            // Complete the interrupted checkpoint: the directory already
            // holds this WAL's effects, so clear it and stamp the epoch.
            wal.reset(epoch)?;
        }
        // The WAL file (and the directory itself) may have just been
        // created; sync the directory so the entries survive a power cut.
        vfs.sync_dir(dir)?;
        self.durability = Some(Durability {
            dir: dir.to_owned(),
            vfs,
            wal,
            epoch,
        });
        self.recovery = Some(report);
        Ok(())
    }

    /// What recovery found when this database was opened (`None` for
    /// in-memory databases).
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The VFS this database's durable state goes through, so callers
    /// staging auxiliary files next to the store share its fault model.
    /// In-memory databases have no VFS of their own and get [`RealVfs`].
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        match &self.durability {
            Some(d) => d.vfs.clone(),
            None => Arc::new(RealVfs),
        }
    }

    /// Construct a table under the next table id, behind this database's
    /// buffer pool if it has one.
    fn make_table(&mut self, schema: Schema) -> Table {
        let id = self.next_table_id;
        self.next_table_id += 1;
        Table::create(schema, self.pager.clone(), id)
    }

    /// Apply one committed operation of the log. A logged row is read by
    /// the cell walk: a run stores each cell as it was logged, an update
    /// takes the values it lends.
    fn apply_replayed(&mut self, op: LoggedOp<'_>) -> StoreResult<()> {
        match op {
            LoggedOp::InsertRun { table, first, count, cells } => {
                self.table_mut_internal(table)?.insert_cells(first, count, cells)
            }
            LoggedOp::Delete { table, row_id } => {
                self.table_mut_internal(table)?.delete(row_id).map(drop)
            }
            LoggedOp::Update { table, row_id, cell } => {
                let mut values = Vec::new();
                walk_cell(row_id, cell, |_, value| values.push(value.to_value()))?;
                self.table_mut_internal(table)?.update(row_id, values).map(drop)
            }
            LoggedOp::Commit | LoggedOp::Epoch { .. } => Ok(()),
            LoggedOp::CreateTable { schema } => {
                // The checkpoint may already contain the table if the WAL
                // predates it (it cannot on the normal checkpoint path, but
                // degraded recovery tolerates it); the checkpoint wins.
                if !self.tables.contains_key(schema.name()) {
                    let table = self.make_table(schema).unindexed();
                    self.tables.insert(table.name().to_owned(), table);
                }
                Ok(())
            }
        }
    }

    /// Create a table. On durable databases the schema is WAL-logged and
    /// synced immediately: committed rows may land in this table before the
    /// next checkpoint, and replaying them requires the table to exist.
    pub fn create_table(&mut self, schema: Schema) -> StoreResult<()> {
        let name = schema.name().to_owned();
        if self.tables.contains_key(&name) {
            return Err(StoreError::TableExists(name));
        }
        if let Some(durability) = &mut self.durability {
            let record = LogRecord::CreateTable {
                schema: schema.clone(),
            };
            durability.wal.log(std::slice::from_ref(&record), true)?;
        }
        let table = self.make_table(schema);
        self.tables.insert(name, table);
        Ok(())
    }

    /// Create a table if it does not already exist. An existing table must
    /// have identical columns; a difference confined to the index list —
    /// the primary key is the index `"pk"` — or to the dense key is
    /// reconciled in place (missing indexes are built from the live rows,
    /// extra ones dropped, a new dense key checked against every row), so
    /// changing a schema's keys and indexes does not invalidate
    /// previously-persisted databases.
    pub fn ensure_table(&mut self, schema: Schema) -> StoreResult<()> {
        if let Some(existing) = self.tables.get_mut(schema.name()) {
            if existing.schema() == &schema {
                return Ok(());
            }
            if existing.schema().columns() == schema.columns() {
                return existing.reconcile_indexes(schema);
            }
            return Err(StoreError::InvalidSchema(format!(
                "table {} exists with a different schema",
                schema.name()
            )));
        }
        self.create_table(schema)
    }

    /// Read access to a table.
    pub fn table(&self, name: &str) -> StoreResult<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_owned()))
    }

    fn table_mut_internal(&mut self, name: &str) -> StoreResult<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_owned()))
    }

    /// Names of all tables (sorted).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Begin a transaction. Only one can exist at a time (enforced by the
    /// mutable borrow).
    pub fn begin(&mut self) -> Transaction<'_> {
        let txid = self.next_txid;
        self.next_txid += 1;
        Transaction {
            db: self,
            txid,
            redo: Vec::new(),
            undo: Vec::new(),
            closed: false,
        }
    }

    /// Convenience: run `f` inside a transaction and commit, rolling back on
    /// error.
    pub fn with_txn<T>(
        &mut self,
        f: impl FnOnce(&mut Transaction<'_>) -> StoreResult<T>,
    ) -> StoreResult<T> {
        let mut txn = self.begin();
        match f(&mut txn) {
            Ok(v) => {
                txn.commit()?;
                Ok(v)
            }
            Err(e) => {
                txn.rollback()?;
                Err(e)
            }
        }
    }

    /// Toggle per-commit WAL fsync (group commit). With syncing off,
    /// committed transactions are appended to the WAL (buffered) but only
    /// become durable at the next [`sync_wal`](Self::sync_wal) /
    /// [`checkpoint`](Self::checkpoint) or when syncing is re-enabled and a
    /// commit runs. Atomicity is unaffected: commit markers still delimit
    /// transactions, so a crash loses at most the unsynced *suffix* of
    /// commits, never a partial transaction.
    pub fn set_sync_on_commit(&mut self, sync: bool) {
        self.sync_on_commit = sync;
    }

    /// Whether commits currently fsync the WAL.
    pub fn sync_on_commit(&self) -> bool {
        self.sync_on_commit
    }

    /// Flush and fsync the WAL, making every committed transaction durable.
    /// No-op (Ok) for in-memory databases.
    pub fn sync_wal(&mut self) -> StoreResult<()> {
        if let Some(durability) = &mut self.durability {
            durability.wal.sync()?;
        }
        Ok(())
    }

    /// Publish the current state as a new page directory and truncate the
    /// WAL. No-op (Ok) for in-memory databases.
    ///
    /// With a buffer pool, **only dirty pages** are written to the heap and
    /// synced first; the directory then names every page's heap location
    /// and carries each table's open tail inline. Without a pool there are
    /// no pages and the tail is the whole table. The sequence is crash-safe
    /// at every step:
    ///
    /// 1. flush + fsync the heap, so a durable directory only ever
    ///    references fully-synced page images,
    /// 2. write + fsync the new directory (epoch N+1) to a temp file,
    /// 3. rename the current directory to `pagedir.prev`,
    /// 4. rename the temp file to `pagedir.bin`,
    /// 5. fsync the directory (the renames are not durable before this),
    /// 6. reset the WAL, stamping it with epoch N+1,
    /// 7. unlink the heap generation just below the older of the two the
    ///    directories now name: neither names it any more.
    ///
    /// A crash before step 5 recovers from the old directory + old WAL
    /// (possibly via `pagedir.prev`); a crash after it recovers from the
    /// new directory, discarding the now-stale WAL by its epoch mismatch.
    /// A crash before step 7 leaks that generation; the next checkpoint
    /// unlinks it unless a compaction came first.
    pub fn checkpoint(&mut self) -> StoreResult<()> {
        self.publish(self.heap_gen)
    }

    /// [`checkpoint`](Self::checkpoint), where `displaced` is the heap
    /// generation the directory about to become `pagedir.prev` names:
    /// `heap_gen`, except inside a compaction.
    fn publish(&mut self, displaced: u64) -> StoreResult<()> {
        let Some(durability) = &mut self.durability else {
            return Ok(());
        };
        let new_epoch = durability.epoch + 1;
        if let Some(pager) = &self.pager {
            pager.flush_and_sync()?;
        }
        let data = encode_page_directory(&PagedCatalog {
            epoch: new_epoch,
            heap_gen: self.heap_gen,
            next_table_id: self.next_table_id,
            tables: self
                .tables
                .values()
                .map(Table::to_paged_meta)
                .collect::<StoreResult<_>>()?,
        });
        let vfs = durability.vfs.as_ref();
        let primary = durability.dir.join(PAGEDIR_FILE);
        let tmp = primary.with_extension("tmp");
        {
            let mut f = vfs.create(&tmp)?;
            f.write_all(&data)?;
            f.sync()?;
        }
        if vfs.exists(&primary) {
            vfs.rename(&primary, &durability.dir.join(PAGEDIR_PREV_FILE))?;
        }
        vfs.rename(&tmp, &primary)?;
        vfs.sync_dir(&durability.dir)?;
        durability.wal.reset(new_epoch)?;
        durability.epoch = new_epoch;
        // the directories name `displaced` and `heap_gen`; the generation
        // before the older of them is named by neither
        let stale = durability.dir.join(heap_file_name(displaced.saturating_sub(1)));
        if displaced > 1 && vfs.exists(&stale) {
            vfs.remove(&stale)?;
            vfs.sync_dir(&durability.dir)?;
        }
        Ok(())
    }

    /// Rewrite the heap keeping only live pages, then checkpoint. Paged
    /// heaps are copy-on-write — a mutated page is appended at a new
    /// offset, orphaning its old image — so a long-lived database
    /// accumulates dead bytes that only compaction reclaims. The new
    /// generation's heap is fully written and synced before the directory
    /// that references it is published. The old generation stays: the
    /// fallback directory `pagedir.prev` still names it, so the next
    /// checkpoint unlinks it. Without a buffer pool there is no heap and
    /// this is just [`checkpoint`](Self::checkpoint), which rewrites
    /// everything anyway.
    pub fn compact(&mut self) -> StoreResult<()> {
        let (Some(pager), Some(durability)) = (&self.pager, &self.durability) else {
            return self.checkpoint();
        };
        let new_path = durability.dir.join(heap_file_name(self.heap_gen + 1));
        let pids: Vec<PageId> = self.tables.values().flat_map(|t| t.page_ids()).collect();
        pager.compact_into(&new_path, &pids)?;
        self.heap_gen += 1;
        self.publish(self.heap_gen - 1)
    }

    /// Gather statistics. Fails if an index lookup fails — silently
    /// reporting zero would mask a corrupted catalog.
    pub fn stats(&self) -> StoreResult<DbStats> {
        let mut tables = Vec::with_capacity(self.tables.len());
        for t in self.tables.values() {
            let mut indexes = Vec::new();
            for d in t.schema().indexes() {
                indexes.push((d.name.clone(), t.index_stats(&d.name)?));
            }
            tables.push(TableStats {
                name: t.name().to_owned(),
                rows: t.len(),
                indexes,
            });
        }
        Ok(DbStats {
            tables,
            wal_bytes: self
                .durability
                .as_ref()
                .map(|d| d.wal.bytes_written())
                .unwrap_or(0),
            pool: self.pager.as_ref().map(|p| p.stats()),
        })
    }
}

/// Undo information for rollback.
enum Undo {
    /// The `count` rows inserted from `first` on, as one run.
    Insert { table: String, first: RowId, count: u64 },
    Delete { table: String, row_id: RowId, values: Vec<Value> },
    Update { table: String, row_id: RowId, old: Vec<Value> },
}

/// An open transaction. Writes are applied eagerly (read-your-writes) and
/// made durable on [`commit`](Transaction::commit);
/// [`rollback`](Transaction::rollback) or drop undoes them.
pub struct Transaction<'db> {
    db: &'db mut Database,
    txid: u64,
    redo: Vec<LogRecord>,
    undo: Vec<Undo>,
    closed: bool,
}

impl<'db> Transaction<'db> {
    fn check_open(&self) -> StoreResult<()> {
        if self.closed {
            Err(StoreError::TransactionClosed)
        } else {
            Ok(())
        }
    }

    /// The transaction id (reflected in the WAL commit marker).
    pub fn txid(&self) -> u64 {
        self.txid
    }

    /// Read access to a table, seeing this transaction's own writes.
    pub fn table(&self, name: &str) -> StoreResult<&Table> {
        self.db.table(name)
    }

    /// Insert a row: logged as a run of one.
    pub fn insert(&mut self, table: &str, values: Vec<Value>) -> StoreResult<RowId> {
        self.check_open()?;
        let mut cell = Vec::new();
        let row_id = self.db.table_mut_internal(table)?.insert_logged(&values, &mut cell)?;
        self.logged_run(table, row_id, 1, cell)?;
        Ok(row_id)
    }

    /// Record `count` rows inserted into `table` from `first` on, their
    /// cells `cells`: one entry to undo, and — where there is a log — one
    /// run to redo.
    fn logged_run(&mut self, table: &str, first: RowId, count: u64, cells: Vec<u8>) -> StoreResult<()> {
        self.undo.push(Undo::Insert {
            table: table.to_owned(),
            first,
            count,
        });
        match self.db.durability {
            Some(_) => push_runs(&mut self.redo, table, first, count, cells, MAX_RUN_BYTES),
            None => Ok(()),
        }
    }

    /// Insert many rows at once. Unique constraints are pre-checked for the
    /// whole batch (against existing rows and within the batch), rows land
    /// in contiguous slots, and each secondary index is rebuilt bulk from
    /// the key-sorted batch instead of being maintained per row. On error
    /// nothing is inserted. Semantically identical to a loop of
    /// [`insert`](Self::insert) calls that all succeed; logged as one run,
    /// each row encoded once for the table and the log alike.
    ///
    /// Returns the first row's id: row `i` of the batch is at `first + i`.
    /// An empty batch inserts and logs nothing and returns the id its first
    /// row would have had.
    /// A row is anything that holds its values as a slice: a `Vec<Value>`,
    /// or a fixed-size array that costs no allocation a row.
    pub fn insert_batch<R: AsRef<[Value]>>(&mut self, table: &str, rows: Vec<R>) -> StoreResult<RowId> {
        self.check_open()?;
        let t = self.db.table_mut_internal(table)?;
        if rows.is_empty() {
            return Ok(t.next_row_id());
        }
        let mut cells = Vec::new();
        let first = t.insert_run(&rows, &mut cells)?;
        self.logged_run(table, first, rows.len() as u64, cells)?;
        Ok(first)
    }

    /// Delete a row by id.
    pub fn delete(&mut self, table: &str, row_id: RowId) -> StoreResult<()> {
        self.check_open()?;
        let t = self.db.table_mut_internal(table)?;
        let old = t.delete(row_id)?;
        // an in-memory database keeps no redo: there is no log to write
        if self.db.durability.is_some() {
            self.redo.push(LogRecord::Delete {
                table: table.to_owned(),
                row_id,
            });
        }
        self.undo.push(Undo::Delete {
            table: table.to_owned(),
            row_id,
            values: old.into_values(),
        });
        Ok(())
    }

    /// Update a row in place.
    pub fn update(&mut self, table: &str, row_id: RowId, values: Vec<Value>) -> StoreResult<()> {
        self.check_open()?;
        let logged = self.db.durability.is_some().then(|| values.clone());
        let old = self.db.table_mut_internal(table)?.update(row_id, values)?;
        if let Some(values) = logged {
            self.redo.push(LogRecord::Update {
                table: table.to_owned(),
                row_id,
                values,
            });
        }
        self.undo.push(Undo::Update {
            table: table.to_owned(),
            row_id,
            old: old.into_values(),
        });
        Ok(())
    }

    /// Commit: append redo records and a commit marker to the WAL in one
    /// buffered write, then sync — unless the database is in group-commit
    /// mode ([`Database::set_sync_on_commit`]), where the sync is deferred.
    /// A commit that fails is rolled back, and none of its records stays in
    /// the log: what recovery replays is what was acknowledged.
    pub fn commit(mut self) -> StoreResult<()> {
        self.check_open()?;
        if let Some(durability) = &mut self.db.durability {
            self.redo.push(LogRecord::Commit { txid: self.txid });
            if let Err(e) = durability.wal.log(&self.redo, self.db.sync_on_commit) {
                self.rollback_inner()?;
                return Err(e);
            }
        }
        self.closed = true;
        Ok(())
    }

    /// Roll back every applied change, in reverse order.
    pub fn rollback(mut self) -> StoreResult<()> {
        self.check_open()?;
        self.rollback_inner()
    }

    fn rollback_inner(&mut self) -> StoreResult<()> {
        self.closed = true;
        while let Some(undo) = self.undo.pop() {
            match undo {
                Undo::Insert { table, first, count } => {
                    let t = self.db.table_mut_internal(&table)?;
                    for row_id in (first.0..first.0 + count).rev() {
                        t.delete(RowId(row_id))?;
                    }
                }
                Undo::Delete {
                    table,
                    row_id,
                    values,
                } => {
                    self.db.table_mut_internal(&table)?.restore(row_id, values)?;
                }
                Undo::Update {
                    table,
                    row_id,
                    old,
                } => {
                    self.db.table_mut_internal(&table)?.update(row_id, old)?;
                }
            }
        }
        self.redo.clear();
        Ok(())
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.closed {
            // Best-effort rollback; failures here indicate internal
            // inconsistency and surface in debug builds.
            let result = self.rollback_inner();
            debug_assert!(result.is_ok(), "rollback on drop failed: {result:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn schema(name: &str) -> Schema {
        Schema::builder(name)
            .column(Column::new("id", ValueType::Int))
            .column(Column::new("name", ValueType::Text))
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    fn tmpdir(name: &str) -> testkit::TempDir {
        testkit::TempDir::new(&format!("relstore-db-{name}"))
    }

    #[test]
    fn create_and_catalog() {
        let mut db = Database::in_memory();
        db.create_table(schema("a")).unwrap();
        db.create_table(schema("b")).unwrap();
        assert!(matches!(
            db.create_table(schema("a")),
            Err(StoreError::TableExists(_))
        ));
        assert_eq!(db.table_names(), vec!["a", "b"]);
        assert!(db.table("c").is_err());
        // ensure_table tolerates identical schema, rejects different
        db.ensure_table(schema("a")).unwrap();
        let other = Schema::builder("a")
            .column(Column::new("x", ValueType::Int))
            .build()
            .unwrap();
        assert!(db.ensure_table(other).is_err());
    }

    #[test]
    fn ensure_table_reconciles_index_only_differences() {
        let dir = tmpdir("index-evolution");
        let with_index = || {
            Schema::builder("t")
                .column(Column::new("id", ValueType::Int))
                .column(Column::new("name", ValueType::Text))
                .primary_key(&["id"])
                .index("by_name", &["name"])
                .build()
                .unwrap()
        };
        {
            // v1 of the schema: no secondary index
            let mut db = Database::open(&dir).unwrap();
            db.ensure_table(schema("t")).unwrap();
            db.with_txn(|txn| {
                txn.insert("t", vec![Value::Int(1), Value::text("x")])?;
                txn.insert("t", vec![Value::Int(2), Value::text("x")])?;
                Ok(())
            })
            .unwrap();
            db.checkpoint().unwrap(); // checkpoint persists the v1 schema
        }
        {
            // v2 adds by_name: reopen must backfill it from existing rows
            let mut db = Database::open(&dir).unwrap();
            db.ensure_table(with_index()).unwrap();
            let t = db.table("t").unwrap();
            assert_eq!(t.lookup("by_name", &[Value::text("x")]).unwrap().len(), 2);
            // maintenance continues through transactions
            db.with_txn(|txn| {
                txn.insert("t", vec![Value::Int(3), Value::text("x")])?;
                Ok(())
            })
            .unwrap();
            assert_eq!(
                db.table("t").unwrap().lookup("by_name", &[Value::text("x")]).unwrap().len(),
                3
            );
        }
        // column differences are still rejected
        let mut db = Database::in_memory();
        db.ensure_table(schema("t")).unwrap();
        let other = Schema::builder("t")
            .column(Column::new("x", ValueType::Int))
            .build()
            .unwrap();
        assert!(matches!(
            db.ensure_table(other),
            Err(StoreError::InvalidSchema(_))
        ));
    }

    #[test]
    fn ensure_table_reconciles_the_primary_key_like_any_index() {
        let keyless = || {
            Schema::builder("t")
                .column(Column::new("id", ValueType::Int))
                .column(Column::new("name", ValueType::Text))
                .index("by_name", &["name"])
                .build()
                .unwrap()
        };
        let insert = |db: &mut Database, id: i64, name: &str| {
            db.with_txn(|txn| txn.insert("t", vec![Value::Int(id), Value::text(name)]))
        };
        let mut db = Database::in_memory();
        db.create_table(schema("t")).unwrap();
        insert(&mut db, 1, "x").unwrap();
        insert(&mut db, 2, "x").unwrap();
        // a key no longer declared is dropped, and no longer enforced
        db.ensure_table(keyless()).unwrap();
        assert!(db.table("t").unwrap().schema().primary_key().is_empty());
        assert!(matches!(
            db.table("t").unwrap().lookup("pk", &[Value::Int(1)]),
            Err(StoreError::NoSuchIndex { .. })
        ));
        let twin = insert(&mut db, 1, "y").unwrap();
        // a newly declared key the rows violate is refused, table as it was
        assert!(matches!(
            db.ensure_table(schema("t")),
            Err(StoreError::UniqueViolation { index, .. }) if index == "pk"
        ));
        let t = db.table("t").unwrap();
        assert_eq!(t.schema(), &keyless());
        assert_eq!(t.lookup("by_name", &[Value::text("x")]).unwrap().len(), 2);
        // once the rows allow it the key is built from them, and enforced
        db.with_txn(|txn| txn.delete("t", twin).map(|_| ())).unwrap();
        db.ensure_table(schema("t")).unwrap();
        let hit = db.table("t").unwrap().lookup_unique("pk", &[Value::Int(2)]).unwrap();
        assert_eq!(hit.unwrap().get(1), &Value::text("x"));
        assert!(matches!(
            insert(&mut db, 2, "z"),
            Err(StoreError::UniqueViolation { .. })
        ));
    }

    #[test]
    fn transaction_commit_and_read_your_writes() {
        let mut db = Database::in_memory();
        db.create_table(schema("t")).unwrap();
        let mut txn = db.begin();
        txn.insert("t", vec![Value::Int(1), Value::text("x")]).unwrap();
        // read-your-writes
        assert_eq!(txn.table("t").unwrap().len(), 1);
        txn.commit().unwrap();
        assert_eq!(db.table("t").unwrap().len(), 1);
    }

    #[test]
    fn rollback_undoes_everything_in_order() {
        let mut db = Database::in_memory();
        db.create_table(schema("t")).unwrap();
        db.with_txn(|txn| {
            txn.insert("t", vec![Value::Int(1), Value::text("a")])?;
            txn.insert("t", vec![Value::Int(2), Value::text("b")])?;
            Ok(())
        })
        .unwrap();

        let mut txn = db.begin();
        let r3 = txn.insert("t", vec![Value::Int(3), Value::text("c")]).unwrap();
        txn.update("t", RowId(0), vec![Value::Int(1), Value::text("a2")]).unwrap();
        txn.delete("t", RowId(1)).unwrap();
        assert_eq!(txn.table("t").unwrap().len(), 2);
        let _ = r3;
        txn.rollback().unwrap();

        let t = db.table("t").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(RowId(0)).unwrap().get(1), &Value::text("a"));
        assert_eq!(t.get(RowId(1)).unwrap().get(1), &Value::text("b"));
        assert!(t.get(RowId(2)).is_err());
        // unique key of rolled-back insert is free again
        db.with_txn(|txn| {
            txn.insert("t", vec![Value::Int(3), Value::text("c")])?;
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn drop_without_commit_rolls_back() {
        let mut db = Database::in_memory();
        db.create_table(schema("t")).unwrap();
        {
            let mut txn = db.begin();
            txn.insert("t", vec![Value::Int(1), Value::text("x")]).unwrap();
            // dropped here
        }
        assert_eq!(db.table("t").unwrap().len(), 0);
    }

    #[test]
    fn with_txn_rolls_back_on_error() {
        let mut db = Database::in_memory();
        db.create_table(schema("t")).unwrap();
        let err = db.with_txn(|txn| {
            txn.insert("t", vec![Value::Int(1), Value::text("x")])?;
            txn.insert("t", vec![Value::Int(1), Value::text("dup")])?; // pk violation
            Ok(())
        });
        assert!(err.is_err());
        assert_eq!(db.table("t").unwrap().len(), 0);
    }

    #[test]
    fn durable_roundtrip_via_wal_only() {
        let dir = tmpdir("wal-only");
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_table(schema("t")).unwrap();
            db.with_txn(|txn| {
                txn.insert("t", vec![Value::Int(1), Value::text("x")])?;
                txn.insert("t", vec![Value::Int(2), Value::text("y")])?;
                Ok(())
            })
            .unwrap();
        } // drop without checkpoint: state only in WAL
        {
            // the WAL-logged CreateTable record lets replay rebuild the
            // table even though no checkpoint was ever written
            let db = Database::open(&dir).unwrap();
            let t = db.table("t").unwrap();
            assert_eq!(t.len(), 2);
            assert_eq!(
                t.lookup_unique("pk", &[Value::Int(2)]).unwrap().unwrap().get(1),
                &Value::text("y")
            );
        }
    }

    #[test]
    fn durable_roundtrip_with_checkpoint_then_wal() {
        let dir = tmpdir("checkpoint-wal");
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_table(schema("t")).unwrap();
            db.with_txn(|txn| {
                txn.insert("t", vec![Value::Int(1), Value::text("x")])?;
                Ok(())
            })
            .unwrap();
            db.checkpoint().unwrap(); // checkpoint captures schema + row 1
            db.with_txn(|txn| {
                txn.insert("t", vec![Value::Int(2), Value::text("y")])?;
                txn.update("t", RowId(0), vec![Value::Int(1), Value::text("x2")])?;
                Ok(())
            })
            .unwrap();
            // no checkpoint: second txn lives only in the WAL
        }
        {
            let db = Database::open(&dir).unwrap();
            let t = db.table("t").unwrap();
            assert_eq!(t.len(), 2);
            assert_eq!(t.get(RowId(0)).unwrap().get(1), &Value::text("x2"));
            assert_eq!(t.get(RowId(1)).unwrap().get(1), &Value::text("y"));
        }
    }

    #[test]
    fn group_commit_defers_sync_but_preserves_commits() {
        let dir = tmpdir("group-commit");
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_table(schema("t")).unwrap();
            db.checkpoint().unwrap();
            db.set_sync_on_commit(false);
            assert!(!db.sync_on_commit());
            for i in 0..3 {
                db.with_txn(|txn| {
                    txn.insert("t", vec![Value::Int(i), Value::text("x")])?;
                    Ok(())
                })
                .unwrap();
            }
            db.sync_wal().unwrap();
            db.set_sync_on_commit(true);
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.table("t").unwrap().len(), 3);
        }
    }

    /// An in-memory database keeps no redo, yet its transactions commit and
    /// roll back exactly as a durable one's: the same rows, the same index
    /// entries, after every step.
    #[test]
    fn an_in_memory_batch_commits_and_rolls_back_like_a_durable_one() {
        let vfs = crate::vfs::FaultVfs::new();
        let durable = Database::open_with_vfs(Arc::new(vfs), Path::new("/db")).unwrap();
        let mut dbs = [Database::in_memory(), durable];
        let rows = |ids: std::ops::Range<i64>| ids.map(|i| [Value::Int(i), Value::text(format!("r{i}"))]).collect::<Vec<_>>();
        let observed = |db: &Database| {
            let t = db.table("t").unwrap();
            (t.scan().collect::<Vec<_>>(), t.index_entry_list("pk").unwrap(), t.index_stats("pk").unwrap())
        };
        for db in &mut dbs {
            db.create_table(schema("t")).unwrap();
        }
        let steps: [&dyn Fn(&mut Database); 5] = [
            &|db| db.with_txn(|txn| txn.insert_batch("t", rows(0..40)).map(drop)).unwrap(),
            &|db| {
                let mut txn = db.begin();
                txn.insert_batch("t", rows(40..60)).unwrap();
                assert_eq!(txn.redo.is_empty(), txn.db.durability.is_none(), "redo only where there is a log");
                txn.rollback().unwrap();
            },
            &|db| {
                let mut txn = db.begin();
                (3..9).try_for_each(|id| txn.delete("t", RowId(id))).unwrap();
                txn.update("t", RowId(10), vec![Value::Int(100), Value::text("moved")]).unwrap();
                assert!(txn.insert_batch("t", rows(39..41)).is_err(), "pk 39 is taken");
                txn.rollback().unwrap();
            },
            &|db| db.with_txn(|txn| txn.delete("t", RowId(5))).unwrap(),
            &|db| db.with_txn(|txn| txn.insert_batch("t", rows(5..6)).map(drop)).unwrap(),
        ];
        for (n, step) in steps.iter().enumerate() {
            dbs.iter_mut().for_each(step);
            assert_eq!(observed(&dbs[0]), observed(&dbs[1]), "after step {n}");
        }
        assert_eq!(dbs[0].table("t").unwrap().len(), 40);
    }

    #[test]
    fn insert_batch_commits_and_rolls_back_like_per_row_inserts() {
        let dir = tmpdir("insert-batch");
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_table(schema("t")).unwrap();
            db.checkpoint().unwrap();
            db.with_txn(|txn| {
                let first = txn.insert_batch(
                    "t",
                    vec![
                        vec![Value::Int(1), Value::text("a")],
                        vec![Value::Int(2), Value::text("b")],
                    ],
                )?;
                assert_eq!(first, RowId(0));
                // an empty batch inserts and logs nothing
                assert_eq!(txn.insert_batch("t", Vec::<Vec<Value>>::new())?, RowId(2));
                Ok(())
            })
            .unwrap();
            // rollback undoes a batch insert, every row of it
            let mut txn = db.begin();
            let rows = (3..6).map(|i| vec![Value::Int(i), Value::text("c")]).collect();
            txn.insert_batch("t", rows).unwrap();
            txn.rollback().unwrap();
            assert_eq!(db.table("t").unwrap().len(), 2);
            assert!(db.table("t").unwrap().lookup_unique("pk", &[Value::Int(5)]).unwrap().is_none());
        }
        {
            // WAL replay restores the batch rows (redo is one run)
            let db = Database::open(&dir).unwrap();
            let t = db.table("t").unwrap();
            assert_eq!(t.len(), 2);
            assert_eq!(t.get(RowId(1)).unwrap().get(1), &Value::text("b"));
        }
    }

    #[test]
    fn uncommitted_txn_is_not_recovered() {
        let dir = tmpdir("uncommitted");
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_table(schema("t")).unwrap();
            db.checkpoint().unwrap();
            db.with_txn(|txn| {
                txn.insert("t", vec![Value::Int(1), Value::text("keep")])?;
                Ok(())
            })
            .unwrap();
            let mut txn = db.begin();
            txn.insert("t", vec![Value::Int(2), Value::text("lost")]).unwrap();
            // txn dropped without commit: rolled back locally, nothing in WAL
        }
        {
            let db = Database::open(&dir).unwrap();
            let t = db.table("t").unwrap();
            assert_eq!(t.len(), 1);
            assert_eq!(t.get(RowId(0)).unwrap().get(1), &Value::text("keep"));
        }
    }

    #[test]
    fn checkpoint_resets_wal_and_stats_report() {
        let dir = tmpdir("stats");
        let mut db = Database::open(&dir).unwrap();
        db.create_table(schema("t")).unwrap();
        db.with_txn(|txn| {
            txn.insert("t", vec![Value::Int(1), Value::text("x")])?;
            Ok(())
        })
        .unwrap();
        assert!(db.stats().unwrap().wal_bytes > 0);
        db.checkpoint().unwrap();
        assert_eq!(db.stats().unwrap().wal_bytes, 0);
        let stats = db.stats().unwrap();
        assert_eq!(stats.rows("t"), 1);
        assert_eq!(stats.tables[0].indexes[0].0, "pk");
    }

    #[test]
    fn recovery_report_reflects_clean_and_replayed_opens() {
        let dir = tmpdir("recovery-report");
        {
            let mut db = Database::open(&dir).unwrap();
            let report = db.recovery_report().unwrap();
            assert_eq!(report.snapshot, SnapshotSource::None);
            assert_eq!(report.epoch, 0);
            assert_eq!(report.wal_txns, 0);
            db.create_table(schema("t")).unwrap();
            db.checkpoint().unwrap();
            db.with_txn(|txn| {
                txn.insert("t", vec![Value::Int(1), Value::text("x")])?;
                Ok(())
            })
            .unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            let report = db.recovery_report().unwrap();
            assert_eq!(report.snapshot, SnapshotSource::Primary);
            assert_eq!(report.epoch, 1);
            assert_eq!(report.wal_txns, 1);
            assert!(!report.wal_stale);
            assert!(report.wal_torn_at.is_none());
        }
        assert!(Database::in_memory().recovery_report().is_none());
    }

    fn paged_config() -> PoolConfig {
        PoolConfig {
            page_bytes: 256,
            pool_pages: 2,
        }
    }

    #[test]
    fn paged_roundtrip_checkpoint_then_wal() {
        use crate::vfs::FaultVfs;
        let vfs = FaultVfs::new();
        let dir = Path::new("/db");
        {
            let mut db =
                Database::open_paged_with_vfs(Arc::new(vfs.clone()), dir, paged_config()).unwrap();
            db.create_table(schema("t")).unwrap();
            db.with_txn(|txn| {
                for i in 0..50 {
                    txn.insert("t", vec![Value::Int(i), Value::text(format!("r{i}"))])?;
                }
                Ok(())
            })
            .unwrap();
            db.checkpoint().unwrap();
            // post-checkpoint writes live only in the WAL
            db.with_txn(|txn| {
                txn.insert("t", vec![Value::Int(50), Value::text("wal")])?;
                txn.update("t", RowId(3), vec![Value::Int(3), Value::text("upd")])?;
                txn.delete("t", RowId(7))?;
                Ok(())
            })
            .unwrap();
        }
        {
            let db =
                Database::open_paged_with_vfs(Arc::new(vfs.clone()), dir, paged_config()).unwrap();
            let report = db.recovery_report().unwrap();
            assert_eq!(report.snapshot, SnapshotSource::Primary);
            assert_eq!(report.wal_txns, 1);
            let t = db.table("t").unwrap();
            assert_eq!(t.len(), 50);
            assert_eq!(t.get(RowId(3)).unwrap().get(1), &Value::text("upd"));
            assert_eq!(t.get(RowId(50)).unwrap().get(1), &Value::text("wal"));
            assert!(t.get(RowId(7)).is_err());
            // indexed lookup through the pool
            assert_eq!(
                t.lookup_unique("pk", &[Value::Int(42)]).unwrap().unwrap().get(1),
                &Value::text("r42")
            );
            let stats = db.stats().unwrap();
            let pool = stats.pool.expect("paged db reports pool stats");
            assert!(pool.resident <= 2, "pool capacity bounds residency");
        }
    }

    #[test]
    fn bulk_loaded_default_pages_reopen() {
        // ~10-byte rows reach the 4096-slot cap long before 32 KiB: a
        // batch sealed as one 10 000-slot page would checkpoint fine and
        // never decode again
        use crate::vfs::FaultVfs;
        let vfs = FaultVfs::new();
        let dir = Path::new("/db");
        let config = PoolConfig::default();
        assert_eq!(config.page_bytes, 32 * 1024);
        let before: Vec<_> = {
            let mut db =
                Database::open_paged_with_vfs(Arc::new(vfs.clone()), dir, config).unwrap();
            db.create_table(schema("t")).unwrap();
            db.with_txn(|txn| {
                let rows = (0..10_000).map(|i| vec![Value::Int(i), Value::text("abcd")]);
                txn.insert_batch("t", rows.collect())?;
                Ok(())
            })
            .unwrap();
            db.checkpoint().unwrap();
            db.table("t").unwrap().scan().collect()
        };
        assert_eq!(before.len(), 10_000);
        let db = Database::open_paged_with_vfs(Arc::new(vfs), dir, config).unwrap();
        let t = db.table("t").unwrap();
        assert_eq!(t.scan().collect::<Vec<_>>(), before);
        assert_eq!(t.next_row_id(), RowId(10_000));
        assert_eq!(
            t.lookup_unique("pk", &[Value::Int(9_999)]).unwrap().unwrap().get(0),
            &Value::Int(9_999)
        );
    }

    #[test]
    fn paged_wal_only_roundtrip_creates_paged_tables() {
        use crate::vfs::FaultVfs;
        let vfs = FaultVfs::new();
        let dir = Path::new("/db");
        {
            let mut db =
                Database::open_paged_with_vfs(Arc::new(vfs.clone()), dir, paged_config()).unwrap();
            db.create_table(schema("t")).unwrap();
            db.with_txn(|txn| {
                txn.insert("t", vec![Value::Int(1), Value::text("x")])?;
                Ok(())
            })
            .unwrap();
            // no checkpoint: everything lives in the WAL
        }
        {
            let db =
                Database::open_paged_with_vfs(Arc::new(vfs.clone()), dir, paged_config()).unwrap();
            let t = db.table("t").unwrap();
            assert_eq!(t.len(), 1);
            // the replayed CreateTable made a *paged* table, so a second
            // checkpoint can describe it in the page directory
            let mut db = db;
            db.checkpoint().unwrap();
        }
    }

    #[test]
    fn paged_compact_reclaims_dead_heap_bytes() {
        use crate::vfs::FaultVfs;
        let vfs = FaultVfs::new();
        let dir = Path::new("/db");
        let mut db =
            Database::open_paged_with_vfs(Arc::new(vfs.clone()), dir, paged_config()).unwrap();
        db.create_table(schema("t")).unwrap();
        db.with_txn(|txn| {
            for i in 0..80 {
                txn.insert("t", vec![Value::Int(i), Value::text(format!("v{i}"))])?;
            }
            Ok(())
        })
        .unwrap();
        db.checkpoint().unwrap();
        // churn: copy-on-write updates orphan old page images in gen 1
        for round in 0..4 {
            db.with_txn(|txn| {
                for i in 0..80 {
                    txn.update(
                        "t",
                        RowId(i),
                        vec![Value::Int(i as i64), Value::text(format!("u{round}-{i}"))],
                    )?;
                }
                Ok(())
            })
            .unwrap();
            db.checkpoint().unwrap();
        }
        let bloated = vfs
            .peek(&dir.join(heap_file_name(1)))
            .expect("gen-1 heap exists")
            .len();
        db.compact().unwrap();
        // `pagedir.prev` still names gen 1: it goes at the next checkpoint
        assert!(vfs.exists(&dir.join(heap_file_name(1))), "fallback heap kept");
        let compacted = vfs
            .peek(&dir.join(heap_file_name(2)))
            .expect("gen-2 heap exists")
            .len();
        assert!(
            compacted < bloated,
            "compaction must shrink the heap ({compacted} vs {bloated})"
        );
        // data intact, and the compacted generation reopens cleanly
        assert_eq!(db.table("t").unwrap().get(RowId(5)).unwrap().get(1), &Value::text("u3-5"));
        db.checkpoint().unwrap();
        assert!(!vfs.exists(&dir.join(heap_file_name(1))), "old heap unlinked");
        drop(db);
        let db =
            Database::open_paged_with_vfs(Arc::new(vfs.clone()), dir, paged_config()).unwrap();
        let t = db.table("t").unwrap();
        assert_eq!(t.len(), 80);
        assert_eq!(t.get(RowId(5)).unwrap().get(1), &Value::text("u3-5"));
    }

    #[test]
    fn compaction_keeps_the_heap_the_fallback_directory_names() {
        use crate::vfs::FaultVfs;
        let vfs = FaultVfs::new();
        let dir = Path::new("/db");
        let open = || {
            Database::open_paged_with_vfs(Arc::new(vfs.clone()), dir, paged_config()).unwrap()
        };
        let mut db = open();
        db.create_table(schema("t")).unwrap();
        db.with_txn(|txn| {
            for i in 0..80 {
                txn.insert("t", vec![Value::Int(i), Value::text(format!("v{i}"))])?;
            }
            Ok(())
        })
        .unwrap();
        db.checkpoint().unwrap();
        let before: Vec<_> = db.table("t").unwrap().scan().collect();
        db.compact().unwrap();
        drop(db);
        // rot the primary directory: open must fall back to `pagedir.prev`,
        // whose pages live in the pre-compaction heap
        let primary = dir.join(PAGEDIR_FILE);
        let mut rotten = vfs.peek(&primary).unwrap();
        let mid = rotten.len() / 2;
        rotten[mid] ^= 0xff;
        let mut f = vfs.create(&primary).unwrap();
        f.write_all(&rotten).unwrap();
        f.sync().unwrap();
        let db = open();
        assert_eq!(db.recovery_report().unwrap().snapshot, SnapshotSource::Fallback);
        assert_eq!(db.table("t").unwrap().scan().collect::<Vec<_>>(), before);
    }

    #[test]
    fn paged_compact_of_a_store_that_never_sealed_a_page() {
        use crate::vfs::FaultVfs;
        let vfs = FaultVfs::new();
        let dir = Path::new("/db");
        let mut db =
            Database::open_paged_with_vfs(Arc::new(vfs.clone()), dir, paged_config()).unwrap();
        db.create_table(schema("t")).unwrap();
        db.with_txn(|txn| txn.insert("t", vec![Value::Int(1), Value::text("x")]))
            .unwrap();
        // the only row is in the open tail: no heap generation exists yet
        assert!(!vfs.exists(&dir.join(heap_file_name(1))));
        db.compact().unwrap();
        drop(db);
        let db = Database::open_paged_with_vfs(Arc::new(vfs), dir, paged_config()).unwrap();
        assert_eq!(db.table("t").unwrap().len(), 1);
    }

    #[test]
    fn paged_checkpoint_writes_only_dirty_pages() {
        use crate::vfs::FaultVfs;
        let vfs = FaultVfs::new();
        let dir = Path::new("/db");
        let mut db =
            Database::open_paged_with_vfs(Arc::new(vfs.clone()), dir, paged_config()).unwrap();
        db.create_table(schema("t")).unwrap();
        db.with_txn(|txn| {
            for i in 0..400 {
                txn.insert("t", vec![Value::Int(i), Value::text(format!("v{i}"))])?;
            }
            Ok(())
        })
        .unwrap();
        db.checkpoint().unwrap();
        let full = vfs.peek(&dir.join(heap_file_name(1))).unwrap().len();
        // touch a single row: the next checkpoint appends only the page(s)
        // holding it, not the whole table
        db.with_txn(|txn| {
            txn.update("t", RowId(0), vec![Value::Int(0), Value::text("dirty")])?;
            Ok(())
        })
        .unwrap();
        db.checkpoint().unwrap();
        let after = vfs.peek(&dir.join(heap_file_name(1))).unwrap().len();
        let delta = after - full;
        assert!(delta > 0, "the dirty page must be rewritten");
        assert!(
            delta < full / 10,
            "one dirty row must not rewrite the whole heap ({delta} of {full})"
        );
    }

    /// A commit the WAL could not take is rolled back, and none of its
    /// records stays behind, so the next commit goes on where the write
    /// failed. A failed fsync leaves what the log holds unknown: every
    /// commit after it is refused until a checkpoint rebuilds the log.
    #[test]
    fn a_failed_commit_is_undone_and_a_failed_fsync_refuses_commits_until_a_checkpoint() {
        use crate::vfs::{FaultPlan, FaultVfs};
        let vfs = FaultVfs::new();
        let open = || Database::open_with_vfs(Arc::new(vfs.clone()), Path::new("/db")).unwrap();
        let insert = |db: &mut Database, id| {
            db.with_txn(|txn| txn.insert("t", vec![Value::Int(id), Value::text("x")]).map(drop))
        };
        let fail_in = |ops| {
            let fail_at = Some(vfs.op_count() + ops);
            vfs.set_plan(FaultPlan { crash_at: None, fail_at, torn_seed: 3 });
        };
        let mut db = open();
        db.create_table(schema("t")).unwrap();
        insert(&mut db, 1).unwrap();
        fail_in(1); // the commit's write
        assert!(matches!(insert(&mut db, 2), Err(StoreError::Io(_))));
        assert!(db.table("t").unwrap().lookup_unique("pk", &[Value::Int(2)]).unwrap().is_none());
        insert(&mut db, 2).unwrap();
        fail_in(2); // the commit's fsync
        assert!(matches!(insert(&mut db, 3), Err(StoreError::Io(_))));
        assert!(matches!(insert(&mut db, 4), Err(StoreError::WalFailed)));
        assert!(matches!(db.sync_wal(), Err(StoreError::WalFailed)));
        db.checkpoint().unwrap();
        insert(&mut db, 4).unwrap();
        drop(db);
        vfs.crash_now();
        vfs.reboot();
        let ids: Vec<Value> = open().table("t").unwrap().scan().map(|(_, row)| row.get(0).clone()).collect();
        assert_eq!(ids, [1, 2, 4].map(Value::Int));
    }

    #[test]
    fn crash_between_snapshot_rename_and_wal_reset_discards_stale_wal() {
        // Simulate the checkpoint protocol interrupted after step 4: the
        // new directory is in place but the WAL still holds the pre-
        // checkpoint transactions. Replaying them would double-apply.
        let dir = tmpdir("stale-wal");
        let wal_backup;
        {
            let mut db = Database::open(&dir).unwrap();
            db.create_table(schema("t")).unwrap();
            db.checkpoint().unwrap();
            db.with_txn(|txn| {
                txn.insert("t", vec![Value::Int(1), Value::text("x")])?;
                Ok(())
            })
            .unwrap();
            wal_backup = dir.read(WAL_FILE);
            db.checkpoint().unwrap(); // epoch 2, WAL reset
        }
        // put the stale (epoch 1) WAL back, as if the reset never ran
        dir.write(WAL_FILE, &wal_backup);
        {
            let db = Database::open(&dir).unwrap();
            let report = db.recovery_report().unwrap();
            assert!(report.wal_stale, "stale WAL must be detected");
            assert_eq!(report.epoch, 2);
            // the row exists exactly once (from the checkpoint, not replay)
            assert_eq!(db.table("t").unwrap().len(), 1);
        }
        // the stale WAL was reset on open: reopening is clean
        {
            let db = Database::open(&dir).unwrap();
            assert!(!db.recovery_report().unwrap().wal_stale);
            assert_eq!(db.table("t").unwrap().len(), 1);
        }
    }
}
