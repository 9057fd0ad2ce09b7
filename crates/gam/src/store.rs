//! [`GamStore`] — a typed facade over a [`relstore::Database`] holding the
//! four GAM tables.
//!
//! The store hands out application-level ids (`SourceId`, `ObjectId`, ...)
//! that are their rows' addresses: each table's id column is a relstore
//! dense key, so a new row's id is the table's next row id + 1
//! ([`SourceId::of_row`] and its kin) and a read by id is one read at row
//! id `id − 1`. No counter is kept or seeded; a row id burnt by a refused
//! commit burns its id with it, and no later row moves.
//!
//! Write batching: single-row helpers (`create_object`, `add_association`)
//! run one transaction each, which is fine in memory; bulk loaders
//! (`add_objects_bulk`, `add_associations_bulk`) commit one transaction per
//! batch, and a durable import commits them inside one group-commit window
//! ([`GamStore::with_group_commit`]), so it pays one WAL sync per call
//! rather than one per row.

use crate::error::{GamError, GamResult};
use crate::ids::{ObjectId, ObjectRelId, SourceId, SourceRelId};
use crate::index::{MappingIndex, MappingIndexBuilder};
use crate::mapping::{Association, Mapping};
use crate::model::{
    GamObject, ObjectRef, RelType, Source, SourceContent, SourceRel, SourceStructure,
};
use crate::schema::{all_schemas, tables};
use crate::snapshot::{lend_each, GamRead};
use relstore::row::Row;
use relstore::value::{Value, ValueRef};
use relstore::{Database, RowId};
use std::path::Path;

mod stamped {
    use crate::error::GamResult;
    use relstore::Database;

    /// The database behind the store's mutation stamp. A read derefs to
    /// `&Database`; the one `&mut Database` is [`mutate`](Self::mutate),
    /// which advances the stamp first. A mutator that skips the stamp does
    /// not compile (E0596), so a cache keyed on
    /// [`GamStore::mutation_count`](super::GamStore::mutation_count) cannot
    /// miss a write.
    pub(super) struct Stamped {
        db: Database,
        mutations: u64,
    }

    impl std::ops::Deref for Stamped {
        type Target = Database;

        fn deref(&self) -> &Database {
            &self.db
        }
    }

    impl Stamped {
        pub(super) fn new(db: Database) -> Self {
            Stamped { db, mutations: 0 }
        }

        pub(super) fn mutations(&self) -> u64 {
            self.mutations
        }

        pub(super) fn mutate(&mut self) -> &mut Database {
            self.mutations += 1;
            &mut self.db
        }

        // Durability, not content: these leave the stamp where it is.

        pub(super) fn checkpoint(&mut self) -> GamResult<()> {
            Ok(self.db.checkpoint()?)
        }

        pub(super) fn set_sync_on_commit(&mut self, sync: bool) {
            self.db.set_sync_on_commit(sync);
        }

        pub(super) fn sync_wal(&mut self) -> GamResult<()> {
            Ok(self.db.sync_wal()?)
        }
    }
}

/// Typed store over the GAM tables.
pub struct GamStore {
    db: stamped::Stamped,
    import_seq: u64,
}

impl std::fmt::Debug for GamStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GamStore")
            .field("import_seq", &self.import_seq)
            .field("mutations", &self.db.mutations())
            .finish()
    }
}

impl GamStore {
    /// A fresh, volatile store.
    pub fn in_memory() -> GamResult<Self> {
        let mut db = Database::in_memory();
        for schema in all_schemas()? {
            db.create_table(schema)?;
        }
        Self::wrap(db)
    }

    /// Open (or create) a durable store in `dir`.
    pub fn open(dir: &Path) -> GamResult<Self> {
        Self::open_with_vfs(std::sync::Arc::new(relstore::vfs::RealVfs), dir)
    }

    /// [`open`](Self::open) against an explicit I/O backend. Crash tests
    /// pass a [`FaultVfs`](relstore::vfs::FaultVfs) to exercise recovery.
    pub fn open_with_vfs(vfs: std::sync::Arc<dyn relstore::vfs::Vfs>, dir: &Path) -> GamResult<Self> {
        let mut db = Database::open_with_vfs(vfs, dir)?;
        for schema in all_schemas()? {
            db.ensure_table(schema)?;
        }
        Self::wrap(db)
    }

    /// Open (or create) a durable store whose tables live in slotted heap
    /// pages behind a buffer pool — annotation sets larger than RAM stay
    /// queryable with resident memory bounded by `config.pool_pages`.
    pub fn open_paged(dir: &Path, config: relstore::PoolConfig) -> GamResult<Self> {
        Self::open_paged_with_vfs(std::sync::Arc::new(relstore::vfs::RealVfs), dir, config)
    }

    /// [`open_paged`](Self::open_paged) against an explicit I/O backend.
    pub fn open_paged_with_vfs(
        vfs: std::sync::Arc<dyn relstore::vfs::Vfs>,
        dir: &Path,
        config: relstore::PoolConfig,
    ) -> GamResult<Self> {
        let mut db = Database::open_paged_with_vfs(vfs, dir, config)?;
        for schema in all_schemas()? {
            db.ensure_table(schema)?;
        }
        Self::wrap(db)
    }

    /// What recovery found when this store was opened (`None` for
    /// in-memory stores).
    pub fn recovery_report(&self) -> Option<&relstore::RecoveryReport> {
        self.db.recovery_report()
    }

    /// Check referential integrity across the four GAM tables: every
    /// OBJECT belongs to an existing SOURCE, every SOURCE_REL connects two
    /// existing SOURCEs, and every OBJECT_REL references an existing
    /// SOURCE_REL and two existing OBJECTs. (That every id is unique is
    /// relstore's dense-key invariant, not checked here.) Returns the list
    /// of violations (empty when the store is consistent).
    ///
    /// Crash recovery must never break these invariants: transactions are
    /// atomic, and the importer orders its writes so every committed
    /// prefix is closed under the references above.
    pub fn verify_integrity(&self) -> GamResult<Vec<String>> {
        use std::collections::HashSet;
        let int = |row: &Row, column: usize| row.get(column).as_int().unwrap_or(-1);
        // every pass is a `for_each_row`: a page that cannot be read is this
        // call's error, never a shorter table
        let ids_of = |table: &str| -> GamResult<HashSet<i64>> {
            let mut ids = HashSet::new();
            self.db.table(table)?.for_each_row(|_, row| {
                ids.extend(row.get(0).as_int());
                Ok(())
            })?;
            Ok(ids)
        };
        let source_ids = ids_of(tables::SOURCE)?;
        let object_ids = ids_of(tables::OBJECT)?;
        let source_rel_ids = ids_of(tables::SOURCE_REL)?;
        let mut violations = Vec::new();
        self.db.table(tables::OBJECT)?.for_each_row(|_, row| {
            let sid = int(row, 1);
            if !source_ids.contains(&sid) {
                violations.push(format!(
                    "OBJECT {} references missing SOURCE {sid}",
                    int(row, 0)
                ));
            }
            Ok(())
        })?;
        self.db.table(tables::SOURCE_REL)?.for_each_row(|_, row| {
            let id = int(row, 0);
            for col in [1, 2] {
                let sid = int(row, col);
                if !source_ids.contains(&sid) {
                    violations.push(format!(
                        "SOURCE_REL {id} references missing SOURCE {sid}"
                    ));
                }
            }
            Ok(())
        })?;
        self.db.table(tables::OBJECT_REL)?.for_each_row(|_, row| {
            let id = int(row, 0);
            let srel = int(row, 1);
            if !source_rel_ids.contains(&srel) {
                violations.push(format!(
                    "OBJECT_REL {id} references missing SOURCE_REL {srel}"
                ));
            }
            for col in [2, 3] {
                let oid = int(row, col);
                if !object_ids.contains(&oid) {
                    violations.push(format!(
                        "OBJECT_REL {id} references missing OBJECT {oid}"
                    ));
                }
            }
            Ok(())
        })?;
        Ok(violations)
    }

    fn wrap(db: Database) -> GamResult<Self> {
        let mut import_seq = 0;
        db.table(tables::SOURCE)?.for_each_row(|_, row| {
            import_seq = import_seq.max(row.get(5).as_int().unwrap_or(0) as u64);
            Ok(())
        })?;
        Ok(GamStore {
            db: stamped::Stamped::new(db),
            import_seq,
        })
    }

    /// [`GamRead::cardinalities`], callable without importing [`GamRead`]:
    /// gmbench's power-cut check (`scripts/e2e/src/bench.rs`) calls it so,
    /// and that file is the benchmark's own, changed only with it. The one
    /// read kept twice.
    pub fn cardinalities(&self) -> GamResult<GamCardinalities> {
        GamRead::cardinalities(self)
    }

    /// How many writes this store has made to its tables. Any cache
    /// derived from GAM content must key on this (together with its own
    /// inputs) and treat a changed count as an invalidation.
    pub fn mutation_count(&self) -> u64 {
        self.db.mutations()
    }

    /// Write a snapshot and truncate the WAL (no-op for in-memory stores).
    pub fn checkpoint(&mut self) -> GamResult<()> {
        self.db.checkpoint()
    }

    /// Access the underlying database (read paths and statistics).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The VFS this store's durable state goes through. Auxiliary files
    /// written next to the store (e.g. import staging) must use it so
    /// crash sweeps can fault-inject them too.
    pub fn vfs(&self) -> std::sync::Arc<dyn relstore::vfs::Vfs> {
        self.db.vfs()
    }

    /// Run `body` in a WAL group-commit window: transactions it commits
    /// append their redo records to the log but defer the fsync.
    /// Atomicity is unaffected (a crash can only lose a suffix of whole
    /// commits, never a partial transaction); the import pipeline uses this
    /// to pay one fsync per call instead of one per logical step.
    ///
    /// A window opened while one is open joins it: its body runs in the
    /// outer window, and only the outermost window closes. On every way
    /// out of that one — `body` done or failed — sync-on-commit is
    /// restored and the WAL fsynced once, making everything committed
    /// inside the window durable; a window that wrote nothing (a pipeline
    /// call whose dumps were all skipped) has nothing to sync. The body's
    /// error comes first, then the fsync's.
    pub fn with_group_commit<T>(
        &mut self,
        body: impl FnOnce(&mut Self) -> GamResult<T>,
    ) -> GamResult<T> {
        if !self.db.sync_on_commit() {
            return body(self);
        }
        self.db.set_sync_on_commit(false);
        let before = self.db.mutations();
        let out = body(self);
        self.db.set_sync_on_commit(true);
        let synced = if self.db.mutations() == before { Ok(()) } else { self.db.sync_wal() };
        out.and_then(|out| synced.map(|()| out))
    }

    // ------------------------------------------------------------------
    // Row conversions
    // ------------------------------------------------------------------

    // An owned row gives its strings to the record built from it.

    fn take_text(cell: &mut Value) -> Option<String> {
        match std::mem::replace(cell, Value::Null) {
            Value::Text(text) => Some(text),
            _ => None,
        }
    }

    // A borrowed row (a batched probe's, a scan's or a cursor's) copies
    // only the strings.
    fn source_from_ref(row: &Row) -> GamResult<Source> {
        Ok(Source {
            id: SourceId::from_i64(row.get(0).as_int().unwrap_or_default()),
            name: row.get(1).as_text().unwrap_or_default().to_owned(),
            content: SourceContent::from_code(row.get(2).as_int().unwrap_or(-1))?,
            structure: SourceStructure::from_code(row.get(3).as_int().unwrap_or(-1))?,
            release: row.get(4).as_text().map(str::to_owned),
            imported_seq: row.get(5).as_int().unwrap_or(0) as u64,
        })
    }

    fn object_from_row(row: Row) -> GamObject {
        let mut cells = row.into_values();
        GamObject {
            id: ObjectId::from_i64(cells[0].as_int().unwrap_or_default()),
            source: SourceId::from_i64(cells[1].as_int().unwrap_or_default()),
            accession: Self::take_text(&mut cells[2]).unwrap_or_default(),
            text: Self::take_text(&mut cells[3]),
            number: cells[4].as_float(),
        }
    }

    /// A borrowed `OBJECT` row, lent on as it stands.
    fn object_ref(row: &Row) -> ObjectRef<'_> {
        ObjectRef {
            id: ObjectId::from_i64(row.get(0).as_int().unwrap_or_default()),
            source: SourceId::from_i64(row.get(1).as_int().unwrap_or_default()),
            accession: row.get(2).as_text().unwrap_or_default(),
            text: row.get(3).as_text(),
            number: row.get(4).as_float(),
        }
    }

    /// Apply `f` to the live row whose id is `id`, read through `rows`:
    /// an id is its row's address (the tables' dense key), so this is one
    /// read at row id `id − 1`; `None` if no live row is there.
    fn with_row_by_id<T>(
        rows: &mut relstore::RowCursor<'_>,
        id: i64,
        f: impl FnOnce(&Row) -> T,
    ) -> GamResult<Option<T>> {
        match RowId::of_dense_key(id) {
            Some(row_id) => Ok(rows.with(row_id, f)?),
            None => Ok(None),
        }
    }

    /// The id the next row of `table` gets: its next row id + 1.
    fn next_id<I>(&self, table: &str, of_row: fn(RowId) -> GamResult<I>) -> GamResult<I> {
        of_row(self.db.table(table)?.next_row_id())
    }

    fn source_rel_from_ref(row: &Row) -> GamResult<SourceRel> {
        Ok(SourceRel {
            id: SourceRelId::from_i64(row.get(0).as_int().unwrap_or_default()),
            source1: SourceId::from_i64(row.get(1).as_int().unwrap_or_default()),
            source2: SourceId::from_i64(row.get(2).as_int().unwrap_or_default()),
            rel_type: RelType::from_code(row.get(3).as_int().unwrap_or(-1))?,
            derivation: row.get(4).as_text().map(str::to_owned),
        })
    }

    /// Every live row of `table`, decoded, in row order. A page that cannot
    /// be read is the caller's error, not a shorter list.
    fn decode_rows<T>(
        table: &relstore::Table,
        decode: impl Fn(Row) -> GamResult<T>,
    ) -> GamResult<Vec<T>> {
        let mut rows = table.scan();
        let out: Vec<T> = rows.by_ref().map(|(_, row)| decode(row)).collect::<GamResult<_>>()?;
        rows.finish()?;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // SOURCE
    // ------------------------------------------------------------------

    /// Register a new source. Fails if the name is taken.
    pub fn create_source(
        &mut self,
        name: &str,
        content: SourceContent,
        structure: SourceStructure,
        release: Option<&str>,
    ) -> GamResult<Source> {
        if name.is_empty() {
            return Err(GamError::Invalid("source name is empty".into()));
        }
        let id = self.next_id(tables::SOURCE, SourceId::of_row)?;
        self.import_seq += 1;
        let seq = self.import_seq;
        let row = vec![
            Value::Int(id.as_i64()),
            Value::text(name),
            Value::Int(content.code()),
            Value::Int(structure.code()),
            release.map(Value::text).unwrap_or(Value::Null),
            Value::Int(seq as i64),
        ];
        self.db.mutate().with_txn(|txn| txn.insert(tables::SOURCE, row))?;
        Ok(Source {
            id,
            name: name.to_owned(),
            content,
            structure,
            release: release.map(str::to_owned),
            imported_seq: seq,
        })
    }

    /// Look up many sources by name in one ordered pass over the `by_name`
    /// index instead of one point lookup per name. Results align with the
    /// input. The importer uses this to resolve every annotation target and
    /// partition of a batch up front.
    pub fn find_sources(&self, names: &[&str]) -> GamResult<Vec<Option<Source>>> {
        let mut hits: Vec<Option<Source>> = vec![None; names.len()];
        let mut decode_err = None;
        self.db.table(tables::SOURCE)?.for_each_match(
            "by_name",
            names.iter().map(|name| [Value::text(*name)]),
            |n, row| match Self::source_from_ref(row) {
                Ok(source) => hits[n] = Some(source),
                Err(e) => decode_err = Some(e),
            },
        )?;
        decode_err.map_or(Ok(hits), Err)
    }

    /// A source's row id and values, read at its address.
    fn source_row(&self, id: SourceId) -> GamResult<(RowId, Vec<Value>)> {
        let row_id = RowId::of_dense_key(id.as_i64()).ok_or(GamError::UnknownSource(id))?;
        let values = self.db.table(tables::SOURCE)?.cursor().with(row_id, |row| row.values().to_vec())?;
        Ok((row_id, values.ok_or(GamError::UnknownSource(id))?))
    }

    /// Update a source's content/structure classification. Used when a
    /// stub source (created to hold annotation targets) is later filled by
    /// its own authoritative dump.
    pub fn update_source_meta(
        &mut self,
        id: SourceId,
        content: SourceContent,
        structure: SourceStructure,
    ) -> GamResult<()> {
        let (row_id, mut values) = self.source_row(id)?;
        values[2] = Value::Int(content.code());
        values[3] = Value::Int(structure.code());
        self.db
            .mutate()
            .with_txn(|txn| txn.update(tables::SOURCE, row_id, values))?;
        Ok(())
    }

    /// Update a source's release tag (re-import bookkeeping).
    pub fn set_source_release(&mut self, id: SourceId, release: &str) -> GamResult<()> {
        let (row_id, mut values) = self.source_row(id)?;
        values[4] = Value::text(release);
        self.import_seq += 1;
        values[5] = Value::Int(self.import_seq as i64);
        self.db
            .mutate()
            .with_txn(|txn| txn.update(tables::SOURCE, row_id, values))?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // OBJECT
    // ------------------------------------------------------------------

    /// Insert a new object. Fails on duplicate (source, accession).
    pub fn create_object(
        &mut self,
        source: SourceId,
        accession: &str,
        text: Option<&str>,
        number: Option<f64>,
    ) -> GamResult<ObjectId> {
        let id = self.next_id(tables::OBJECT, ObjectId::of_row)?;
        let obj = GamObject {
            id,
            source,
            accession: accession.to_owned(),
            text: text.map(str::to_owned),
            number,
        };
        obj.validate()?;
        let row = object_row(&obj);
        self.db.mutate().with_txn(|txn| txn.insert(tables::OBJECT, row))?;
        Ok(id)
    }

    /// Object-level duplicate elimination (paper §4.1: "at the object level
    /// we compare object accessions"): return the existing object's id, or
    /// insert and return the new id. The boolean reports whether an insert
    /// happened.
    pub fn ensure_object(
        &mut self,
        source: SourceId,
        accession: &str,
        text: Option<&str>,
        number: Option<f64>,
    ) -> GamResult<(ObjectId, bool)> {
        if let Some(existing) = self.find_object(source, accession)? {
            return Ok((existing.id, false));
        }
        Ok((self.create_object(source, accession, text, number)?, true))
    }

    /// Insert many objects in one transaction. Duplicates (by accession)
    /// resolve to the existing id. Returns ids aligned with the input and
    /// the number of fresh inserts.
    pub fn add_objects_bulk(
        &mut self,
        source: SourceId,
        objects: &[(String, Option<String>, Option<f64>)],
    ) -> GamResult<(Vec<ObjectId>, usize)> {
        let refs: Vec<(&str, Option<&str>, Option<f64>)> = objects
            .iter()
            .map(|(a, t, n)| (a.as_str(), t.as_deref(), *n))
            .collect();
        self.add_objects_bulk_ref(source, &refs)
    }

    /// Borrowed-key variant of [`add_objects_bulk`](Self::add_objects_bulk):
    /// the importer passes accessions interned from the batch arena, so no
    /// owned `String`s are built on the hot path. Dedup decisions, id
    /// assignment order and store contents are identical to a per-row
    /// `ensure_object` loop: the whole batch is resolved against the
    /// `by_accession` index first
    /// ([`resolve_accessions`](GamRead::resolve_accessions)), then the fresh
    /// rows — first occurrence wins within the batch — are inserted in
    /// input order via one batch insert with bulk index maintenance.
    pub fn add_objects_bulk_ref(
        &mut self,
        source: SourceId,
        objects: &[(&str, Option<&str>, Option<f64>)],
    ) -> GamResult<(Vec<ObjectId>, usize)> {
        for (accession, _, _) in objects {
            if accession.is_empty() {
                return Err(GamError::Invalid("object accession is empty".into()));
            }
        }
        let keys: Vec<&str> = objects.iter().map(|(a, _, _)| *a).collect();
        let existing = self.resolve_accessions(source, &keys)?;
        let src_i64 = source.as_i64();
        let mut ids = Vec::with_capacity(objects.len());
        let mut rows: Vec<[Value; 5]> = Vec::new();
        let mut seen: std::collections::HashMap<&str, ObjectId> = std::collections::HashMap::with_capacity(objects.len());
        let first = self.db.table(tables::OBJECT)?.next_row_id().0;
        for (i, (accession, text, number)) in objects.iter().enumerate() {
            if let Some(id) = existing[i] {
                ids.push(id);
                continue;
            }
            if let Some(id) = seen.get(accession) {
                ids.push(*id);
                continue;
            }
            let id = ObjectId::of_row(RowId(first + rows.len() as u64))?;
            rows.push([
                Value::Int(id.as_i64()),
                Value::Int(src_i64),
                Value::text(*accession),
                text.map(Value::text).unwrap_or(Value::Null),
                number.map(Value::Float).unwrap_or(Value::Null),
            ]);
            seen.insert(accession, id);
            ids.push(id);
        }
        let created = rows.len();
        if created > 0 {
            self.db.mutate().with_txn(|txn| txn.insert_batch(tables::OBJECT, rows))?;
        }
        Ok((ids, created))
    }

    /// Case-insensitive substring search over object names within a
    /// source (the interactive interface's keyword search): the source's
    /// `by_accession` entries, in accession order, capped at `limit`.
    pub fn search_objects(
        &self,
        source: SourceId,
        needle: &str,
        limit: usize,
    ) -> GamResult<Vec<GamObject>> {
        let needle = needle.to_ascii_lowercase();
        self.objects_where(source, limit, |row| {
            row.get(3)
                .as_text()
                .is_some_and(|text| text.to_ascii_lowercase().contains(&needle))
        })
    }

    /// Objects of a source whose accession starts with `prefix` (e.g. all
    /// `GO:00091…` terms), ordered by accession, capped at `limit`.
    pub fn objects_with_accession_prefix(
        &self,
        source: SourceId,
        prefix: &str,
        limit: usize,
    ) -> GamResult<Vec<GamObject>> {
        self.objects_where(source, limit, |row| {
            row.get(2).as_text().is_some_and(|acc| acc.starts_with(prefix))
        })
    }

    /// The first `limit` objects of a source, in accession order, whose
    /// row passes `keep`.
    fn objects_where(
        &self,
        source: SourceId,
        limit: usize,
        keep: impl Fn(&Row) -> bool,
    ) -> GamResult<Vec<GamObject>> {
        let mut out = Vec::new();
        self.db.table(tables::OBJECT)?.for_each_prefix(
            "by_accession",
            &[Value::Int(source.as_i64())],
            |row| {
                if out.len() < limit && keep(row) {
                    out.push(Self::object_ref(row).into());
                }
            },
        )?;
        Ok(out)
    }

    // ------------------------------------------------------------------
    // SOURCE_REL
    // ------------------------------------------------------------------

    /// Register a mapping between two sources.
    pub fn create_source_rel(
        &mut self,
        source1: SourceId,
        source2: SourceId,
        rel_type: RelType,
        derivation: Option<&str>,
    ) -> GamResult<SourceRelId> {
        let id = self.next_id(tables::SOURCE_REL, SourceRelId::of_row)?;
        let rel = SourceRel {
            id,
            source1,
            source2,
            rel_type,
            derivation: derivation.map(str::to_owned),
        };
        rel.validate()?;
        // both endpoints must exist
        self.get_source(source1)?;
        self.get_source(source2)?;
        let row = vec![
            Value::Int(id.as_i64()),
            Value::Int(source1.as_i64()),
            Value::Int(source2.as_i64()),
            Value::Int(rel_type.code()),
            rel.derivation
                .as_deref()
                .map(Value::text)
                .unwrap_or(Value::Null),
        ];
        self.db.mutate().with_txn(|txn| txn.insert(tables::SOURCE_REL, row))?;
        Ok(id)
    }

    /// Delete a mapping and all its associations (used when re-deriving a
    /// materialized mapping).
    pub fn delete_source_rel(&mut self, id: SourceRelId) -> GamResult<usize> {
        // ensure it exists first: its row is then the one at its address
        self.get_source_rel(id)?;
        let rel_row = RowId::of_dense_key(id.as_i64()).ok_or(GamError::UnknownSourceRel(id))?;
        // the association row ids come from OBJECT_REL(by_pair) under the
        // mapping's prefix, in row order, so the cascade logs and touches
        // pages ascending
        let assoc_ids: Vec<relstore::RowId> = self
            .db
            .table(tables::OBJECT_REL)?
            .lookup_row_ids("by_pair", &[Value::Int(id.as_i64())])?;
        let removed = assoc_ids.len();
        self.db.mutate().with_txn(|txn| {
            for rid in assoc_ids {
                txn.delete(tables::OBJECT_REL, rid)?;
            }
            txn.delete(tables::SOURCE_REL, rel_row)
        })?;
        Ok(removed)
    }

    // ------------------------------------------------------------------
    // OBJECT_REL
    // ------------------------------------------------------------------

    /// Add one association to a mapping. Returns `false` (without error) if
    /// the identical (mapping, object1, object2) pair already exists.
    pub fn add_association(
        &mut self,
        source_rel: SourceRelId,
        object1: ObjectId,
        object2: ObjectId,
        evidence: Option<f64>,
    ) -> GamResult<bool> {
        let mut added = 0;
        let assoc = Association {
            from: object1,
            to: object2,
            evidence,
        };
        self.add_associations_bulk([(source_rel, assoc)], &mut added)?;
        Ok(added == 1)
    }

    /// Add many associations in one transaction, skipping duplicates.
    /// Each item names its mapping, so one call may fill several mappings:
    /// the importer inserts a whole dump's associations this way, as one
    /// batch and one WAL run record. `added` is incremented per fresh
    /// insert.
    ///
    /// Duplicate elimination is sort-based: the distinct
    /// `(mapping, object1, object2)` triples of the batch are resolved
    /// against the `by_pair` index in one ordered merge pass, then fresh
    /// triples (first occurrence wins within the batch) are inserted in
    /// input order with contiguous ids — the same decisions and id sequence
    /// a per-row probe loop, or one call per mapping in the same order,
    /// produces.
    ///
    /// A mapping that was never issued or has been deleted is
    /// [`GamError::UnknownSourceRel`], each distinct mapping checked once
    /// before anything is written. (That each object belongs to its
    /// mapping's sources is the caller's invariant: checking it would cost
    /// a lookup per row.)
    pub fn add_associations_bulk(
        &mut self,
        associations: impl IntoIterator<Item = (SourceRelId, Association)>,
        added: &mut usize,
    ) -> GamResult<()> {
        let assocs: Vec<(SourceRelId, Association)> = associations.into_iter().collect();
        let mut rels: Vec<SourceRelId> = assocs.iter().map(|&(rel, _)| rel).collect();
        rels.sort_unstable();
        rels.dedup();
        for &rel in &rels {
            self.get_source_rel(rel)?;
        }
        if assocs.is_empty() {
            return Ok(());
        }
        // An association's id is its row id + 1: row ids are never reused,
        // so neither are these, and no counter has to be seeded at open.
        let first = self.db.table(tables::OBJECT_REL)?.next_row_id().0;
        let first_id = ObjectRelId::of_row(RowId(first))?;
        for &(source_rel, assoc) in &assocs {
            let rec = crate::model::ObjectRel {
                id: first_id,
                source_rel,
                object1: assoc.from,
                object2: assoc.to,
                evidence: assoc.evidence,
            };
            rec.validate()?;
        }
        // the distinct triples, sorted, and each association's slot among them
        let mut order: Vec<([i64; 3], usize)> = assocs
            .iter()
            .enumerate()
            .map(|(n, (rel, a))| ([rel.as_i64(), a.from.as_i64(), a.to.as_i64()], n))
            .collect();
        order.sort_unstable();
        let (mut triples, mut slots) = (Vec::new(), vec![0; assocs.len()]);
        for (triple, n) in order {
            if triples.last() != Some(&triple) {
                triples.push(triple);
            }
            slots[n] = triples.len() - 1;
        }
        let mut exists = vec![false; triples.len()];
        self.db.table(tables::OBJECT_REL)?.for_each_match_id(
            "by_pair",
            triples.iter().map(|triple| triple.map(ValueRef::Int)),
            |n, _| exists[n] = true,
        )?;
        let mut rows: Vec<[Value; 5]> = Vec::new();
        let mut seen = vec![false; triples.len()];
        for ((rel, assoc), slot) in assocs.iter().zip(slots) {
            if exists[slot] || seen[slot] {
                continue;
            }
            seen[slot] = true;
            let id = ObjectRelId::of_row(RowId(first + rows.len() as u64))?;
            rows.push([
                Value::Int(id.as_i64()),
                Value::Int(rel.as_i64()),
                Value::Int(assoc.from.as_i64()),
                Value::Int(assoc.to.as_i64()),
                assoc.evidence.map(Value::Float).unwrap_or(Value::Null),
            ]);
            *added += 1;
        }
        if !rows.is_empty() {
            self.db.mutate().with_txn(|txn| txn.insert_batch(tables::OBJECT_REL, rows))?;
        }
        Ok(())
    }
}

/// The store's reads: each by the index or the address named in its doc.
impl GamRead for GamStore {
    fn sources(&self) -> GamResult<Vec<Source>> {
        let table = self.db.table(tables::SOURCE)?;
        let mut out = Self::decode_rows(table, |row| Self::source_from_ref(&row))?;
        out.sort_by_key(|s| s.id);
        Ok(out)
    }

    fn find_source(&self, name: &str) -> GamResult<Option<Source>> {
        let hit = self
            .db
            .table(tables::SOURCE)?
            .lookup_unique("by_name", &[Value::text(name)])?;
        hit.as_ref().map(Self::source_from_ref).transpose()
    }

    /// One read, of the row at `id − 1`.
    fn get_source(&self, id: SourceId) -> GamResult<Source> {
        let mut rows = self.db.table(tables::SOURCE)?.cursor();
        Self::with_row_by_id(&mut rows, id.as_i64(), Self::source_from_ref)?
            .transpose()?
            .ok_or(GamError::UnknownSource(id))
    }

    fn objects_of(&self, source: SourceId) -> GamResult<Vec<GamObject>> {
        let rows = self
            .db
            .table(tables::OBJECT)?
            .lookup_prefix("by_accession", &[Value::Int(source.as_i64())])?;
        Ok(rows.into_iter().map(Self::object_from_row).collect())
    }

    fn object_ids_of(&self, source: SourceId) -> GamResult<Vec<ObjectId>> {
        let mut ids = Vec::new();
        self.db.table(tables::OBJECT)?.for_each_prefix(
            "by_accession",
            &[Value::Int(source.as_i64())],
            |row| ids.push(ObjectId::from_i64(row.get(0).as_int().unwrap_or_default())),
        )?;
        Ok(ids)
    }

    /// Number of objects of a source, counted off the `by_accession` index:
    /// no row is read (and on a paged store no page faulted).
    fn object_count(&self, source: SourceId) -> GamResult<usize> {
        Ok(self
            .db
            .table(tables::OBJECT)?
            .index_prefix_count("by_accession", &[Value::Int(source.as_i64())])?)
    }

    fn find_object(&self, source: SourceId, accession: &str) -> GamResult<Option<GamObject>> {
        let hit = self.db.table(tables::OBJECT)?.lookup_unique(
            "by_accession",
            &[Value::Int(source.as_i64()), Value::text(accession)],
        )?;
        Ok(hit.map(Self::object_from_row))
    }

    /// One read, of the row at `id − 1`.
    fn get_object(&self, id: ObjectId) -> GamResult<GamObject> {
        let mut rows = self.db.table(tables::OBJECT)?.cursor();
        Self::with_row_by_id(&mut rows, id.as_i64(), |row| GamObject::from(Self::object_ref(row)))?
            .ok_or(GamError::UnknownObject(id))
    }

    /// Each object borrowed from its row, every row read by id through one
    /// cursor: ascending ids pin each page once, and no object is built.
    fn with_objects(
        &self,
        ids: &[ObjectId],
        f: &mut dyn FnMut(usize, ObjectRef<'_>),
    ) -> GamResult<()> {
        let mut rows = self.db.table(tables::OBJECT)?.cursor();
        lend_each(ids, |n, id| {
            let lent = Self::with_row_by_id(&mut rows, id.as_i64(), |row| f(n, Self::object_ref(row)))?;
            Ok(lent.is_some())
        })
    }

    /// The importer's replacement for per-row `find_object` calls: one
    /// ordered pass over the `by_accession` index that reads no row. Each
    /// probe borrows its accession, and a match is answered by its row id:
    /// an object's id is its row's address.
    fn resolve_accessions(
        &self,
        source: SourceId,
        accessions: &[&str],
    ) -> GamResult<Vec<Option<ObjectId>>> {
        let src = ValueRef::Int(source.as_i64());
        let (mut hits, mut bad) = (vec![None; accessions.len()], None);
        self.db.table(tables::OBJECT)?.for_each_match_id(
            "by_accession",
            accessions.iter().map(|acc| [src, ValueRef::Text(acc)]),
            |n, row_id| match ObjectId::of_row(row_id) {
                Ok(id) => hits[n] = Some(id),
                Err(e) => bad = Some(e),
            },
        )?;
        bad.map_or(Ok(hits), Err)
    }

    fn source_rels(&self) -> GamResult<Vec<SourceRel>> {
        let table = self.db.table(tables::SOURCE_REL)?;
        let mut out = Self::decode_rows(table, |row| Self::source_rel_from_ref(&row))?;
        out.sort_by_key(|r| r.id);
        Ok(out)
    }

    /// One read, of the row at `id − 1`.
    fn get_source_rel(&self, id: SourceRelId) -> GamResult<SourceRel> {
        let mut rows = self.db.table(tables::SOURCE_REL)?.cursor();
        Self::with_row_by_id(&mut rows, id.as_i64(), Self::source_rel_from_ref)?
            .transpose()?
            .ok_or(GamError::UnknownSourceRel(id))
    }

    /// One probe of `by_pair`, which lists a pair's mappings in id order.
    fn source_rels_between(
        &self,
        source1: SourceId,
        source2: SourceId,
    ) -> GamResult<Vec<SourceRel>> {
        let rows = self.db.table(tables::SOURCE_REL)?.lookup(
            "by_pair",
            &[Value::Int(source1.as_i64()), Value::Int(source2.as_i64())],
        )?;
        rows.iter().map(Self::source_rel_from_ref).collect()
    }

    fn load_mapping(&self, id: SourceRelId) -> GamResult<Mapping> {
        let rel = self.get_source_rel(id)?;
        let rows = self
            .db
            .table(tables::OBJECT_REL)?
            .lookup_prefix("by_pair", &[Value::Int(id.as_i64())])?;
        let mut pairs = Vec::with_capacity(rows.len());
        for row in rows {
            pairs.push(Association {
                from: ObjectId::from_i64(row.get(2).as_int().unwrap_or_default()),
                to: ObjectId::from_i64(row.get(3).as_int().unwrap_or_default()),
                evidence: row.get(4).as_float(),
            });
        }
        Ok(Mapping {
            from: rel.source1,
            to: rel.source2,
            rel_type: rel.rel_type,
            pairs,
        })
    }

    /// The `by_pair` index delivers rows in
    /// `(object1, object2)` order with one row per pair, so the forward
    /// arrays build in a single pass with no sort or dedup, and the batched
    /// columnar scan decodes only the three needed columns block-by-block
    /// instead of materializing per-row references.
    fn load_mapping_index(&self, id: SourceRelId) -> GamResult<MappingIndex> {
        let rel = self.get_source_rel(id)?;
        let mut b = MappingIndexBuilder::new(rel.source1, rel.source2, rel.rel_type);
        self.db.table(tables::OBJECT_REL)?.scan_prefix_columnar(
            "by_pair",
            &[Value::Int(id.as_i64())],
            &["object1_id", "object2_id"],
            &["evidence"],
            4096,
            |block| {
                for i in 0..block.len() {
                    b.push(
                        ObjectId::from_i64(block.ints[0][i]),
                        ObjectId::from_i64(block.ints[1][i]),
                        block.floats[0][i],
                    );
                }
            },
        )?;
        Ok(b.finish())
    }

    /// Answered from the mapping's prefix of the `by_pair` index without
    /// materializing any rows.
    fn association_count(&self, id: SourceRelId) -> GamResult<usize> {
        Ok(self
            .db
            .table(tables::OBJECT_REL)?
            .index_prefix_count("by_pair", &[Value::Int(id.as_i64())])?)
    }

    /// Both roles probed, `by_object1` and `by_object2`, then sorted into
    /// the order a [`crate::GamSnapshot`] derives from its CSR indexes.
    fn associations_of_object(
        &self,
        object: ObjectId,
    ) -> GamResult<Vec<(SourceRelId, Association)>> {
        let table = self.db.table(tables::OBJECT_REL)?;
        let key = [Value::Int(object.as_i64())];
        let mut found = Vec::new();
        // stream rows straight off the indexes: no intermediate `Vec<&Row>`
        // is materialized before the oriented pairs are built
        let roles = [("by_object1", false, 3), ("by_object2", true, 2)];
        for (index, as_range, partner_column) in roles {
            table.for_each_lookup(index, &key, |row| {
                let id = |column| row.get(column).as_int().unwrap_or_default();
                let association = Association {
                    from: object,
                    to: ObjectId::from_i64(id(partner_column)),
                    evidence: row.get(4).as_float(),
                };
                found.push((SourceRelId::from_i64(id(1)), as_range, association));
            })?;
        }
        // (mapping, role, partner) is unique: `by_pair` is a unique index
        found.sort_unstable_by_key(|&(rel, as_range, assoc)| (rel, as_range, assoc.to));
        Ok(found
            .into_iter()
            .map(|(rel, _, assoc)| (rel, assoc))
            .collect())
    }

    fn object_counts_per_source(&self) -> GamResult<Vec<(SourceId, usize)>> {
        Ok(self
            .db
            .table(tables::OBJECT)?
            .group_count("source_id")?
            .into_iter()
            .map(|(v, n)| (SourceId::from_i64(v.as_int().unwrap_or_default()), n))
            .collect())
    }

    fn mapping_type_counts(&self) -> GamResult<Vec<(RelType, usize, usize)>> {
        let mut per_type: std::collections::BTreeMap<i64, (usize, usize)> =
            std::collections::BTreeMap::new();
        for rel in self.source_rels()? {
            let entry = per_type.entry(rel.rel_type.code()).or_default();
            entry.0 += 1;
            entry.1 += self.association_count(rel.id)?;
        }
        per_type
            .into_iter()
            .map(|(code, (mappings, associations))| {
                Ok((RelType::from_code(code)?, mappings, associations))
            })
            .collect()
    }

    fn cardinalities(&self) -> GamResult<GamCardinalities> {
        Ok(GamCardinalities {
            sources: self.db.table(tables::SOURCE)?.len(),
            objects: self.db.table(tables::OBJECT)?.len(),
            mappings: self.db.table(tables::SOURCE_REL)?.len(),
            associations: self.db.table(tables::OBJECT_REL)?.len(),
        })
    }
}

/// The four headline cardinalities GenMapper reports in §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GamCardinalities {
    pub sources: usize,
    pub objects: usize,
    pub mappings: usize,
    pub associations: usize,
}

impl std::fmt::Display for GamCardinalities {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sources, {} objects, {} mappings, {} associations",
            self.sources, self.objects, self.mappings, self.associations
        )
    }
}

fn object_row(obj: &GamObject) -> Vec<Value> {
    vec![
        Value::Int(obj.id.as_i64()),
        Value::Int(obj.source.as_i64()),
        Value::text(obj.accession.as_str()),
        obj.text.as_deref().map(Value::text).unwrap_or(Value::Null),
        obj.number.map(Value::Float).unwrap_or(Value::Null),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GamRead;

    fn store() -> GamStore {
        GamStore::in_memory().unwrap()
    }

    fn gene_source(s: &mut GamStore, name: &str) -> Source {
        s.create_source(name, SourceContent::Gene, SourceStructure::Flat, Some("r1"))
            .unwrap()
    }

    #[test]
    fn source_lifecycle() {
        let mut s = store();
        let ll = gene_source(&mut s, "LocusLink");
        assert_eq!(ll.id, SourceId(1));
        assert_eq!(s.find_source("LocusLink").unwrap().unwrap().id, ll.id);
        assert!(s.find_source("GO").unwrap().is_none());
        assert!(s.create_source("LocusLink", SourceContent::Gene, SourceStructure::Flat, None).is_err());
        assert!(s.create_source("", SourceContent::Gene, SourceStructure::Flat, None).is_err());
        let got = s.get_source(ll.id).unwrap();
        assert_eq!(got.release.as_deref(), Some("r1"));
        s.set_source_release(ll.id, "r2").unwrap();
        let got = s.get_source(ll.id).unwrap();
        assert_eq!(got.release.as_deref(), Some("r2"));
        assert!(got.imported_seq > ll.imported_seq);
        assert_eq!(s.sources().unwrap().len(), 1);
        assert!(matches!(
            s.get_source(SourceId(99)),
            Err(GamError::UnknownSource(_))
        ));
    }

    /// Every `pub fn (&mut self)` that can change GAM content advances
    /// `mutation_count()`, the key every derived cache is built on (one
    /// level up, `genmapper`'s `cache_invalidated_by_every_mutating_entry_point`
    /// checks the same of `GenMapper`). The durability controls —
    /// `checkpoint`, `with_group_commit` — change no content and are left
    /// out.
    #[test]
    fn every_mutating_entry_point_advances_mutation_count() {
        fn advances<T>(
            s: &mut GamStore,
            what: &str,
            f: impl FnOnce(&mut GamStore) -> GamResult<T>,
        ) -> T {
            let before = s.mutation_count();
            let out = f(s).unwrap();
            assert!(s.mutation_count() > before, "{what} left mutation_count() at {before}");
            out
        }
        let mut s = store();
        let (gene, flat) = (SourceContent::Gene, SourceStructure::Flat);
        let ll = advances(&mut s, "create_source", |s| s.create_source("LL", gene, flat, None));
        let go = advances(&mut s, "create_source", |s| s.create_source("GO", gene, flat, None));
        advances(&mut s, "update_source_meta", |s| s.update_source_meta(ll.id, gene, flat));
        advances(&mut s, "set_source_release", |s| s.set_source_release(ll.id, "r2"));
        let a = advances(&mut s, "create_object", |s| s.create_object(ll.id, "1", None, None));
        let (b, _) = advances(&mut s, "ensure_object", |s| s.ensure_object(go.id, "2", None, None));
        let (c, _) = advances(&mut s, "add_objects_bulk", |s| {
            s.add_objects_bulk(ll.id, &[("3".into(), None, None)])
        });
        let (d, _) = advances(&mut s, "add_objects_bulk_ref", |s| {
            s.add_objects_bulk_ref(go.id, &[("4", None, None)])
        });
        let rel = advances(&mut s, "create_source_rel", |s| {
            s.create_source_rel(ll.id, go.id, RelType::Fact, None)
        });
        advances(&mut s, "add_association", |s| s.add_association(rel, a, b, None));
        advances(&mut s, "add_associations_bulk", |s| {
            let assoc = Association { from: c[0], to: d[0], evidence: None };
            s.add_associations_bulk([(rel, assoc)], &mut 0)
        });
        advances(&mut s, "delete_source_rel", |s| s.delete_source_rel(rel));
    }

    #[test]
    fn object_dedup_by_accession() {
        let mut s = store();
        let ll = gene_source(&mut s, "LocusLink");
        let (id1, created) = s.ensure_object(ll.id, "353", Some("APRT"), None).unwrap();
        assert!(created);
        let (id2, created) = s.ensure_object(ll.id, "353", None, None).unwrap();
        assert!(!created);
        assert_eq!(id1, id2);
        // same accession in a different source is a different object
        let ug = gene_source(&mut s, "Unigene");
        let (id3, created) = s.ensure_object(ug.id, "353", None, None).unwrap();
        assert!(created);
        assert_ne!(id1, id3);
        assert_eq!(s.object_count(ll.id).unwrap(), 1);
        assert_eq!(s.cardinalities().unwrap().objects, 2);
    }

    #[test]
    fn bulk_objects_dedup_within_and_across_batches() {
        let mut s = store();
        let ll = gene_source(&mut s, "LocusLink");
        let batch: Vec<(String, Option<String>, Option<f64>)> = vec![
            ("1".into(), Some("a".into()), None),
            ("2".into(), None, Some(2.0)),
            ("1".into(), None, None), // dup within batch
        ];
        let (ids, created) = s.add_objects_bulk(ll.id, &batch).unwrap();
        assert_eq!(created, 2);
        assert_eq!(ids[0], ids[2]);
        // across batches
        let (ids2, created) = s
            .add_objects_bulk(ll.id, &[("2".into(), None, None), ("3".into(), None, None)])
            .unwrap();
        assert_eq!(created, 1);
        assert_eq!(ids2[0], ids[1]);
        assert_eq!(s.object_count(ll.id).unwrap(), 3);
        // empty accession rejected, transaction rolled back
        let err = s.add_objects_bulk(ll.id, &[("4".into(), None, None), ("".into(), None, None)]);
        assert!(err.is_err());
        assert_eq!(s.object_count(ll.id).unwrap(), 3, "failed batch fully rolled back");
    }

    #[test]
    fn keyword_and_prefix_search() {
        let mut s = store();
        let ll = gene_source(&mut s, "LocusLink");
        s.create_object(ll.id, "353", Some("adenine phosphoribosyltransferase"), None)
            .unwrap();
        s.create_object(ll.id, "354", Some("alcohol dehydrogenase"), None)
            .unwrap();
        s.create_object(ll.id, "999", None, None).unwrap();
        let other = gene_source(&mut s, "Other");
        s.create_object(other.id, "353", Some("adenine thing elsewhere"), None)
            .unwrap();

        // keyword search is per source and case-insensitive
        let hits = s.search_objects(ll.id, "ADENINE", 10).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].accession, "353");
        let hits = s.search_objects(ll.id, "ase", 10).unwrap();
        assert_eq!(hits.len(), 2, "matches both enzymes");
        let hits = s.search_objects(ll.id, "ase", 1).unwrap();
        assert_eq!(hits.len(), 1, "limit respected");
        assert!(s.search_objects(ll.id, "zzz", 10).unwrap().is_empty());

        // accession prefix search
        let hits = s.objects_with_accession_prefix(ll.id, "35", 10).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].accession, "353");
        let hits = s.objects_with_accession_prefix(ll.id, "9", 10).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn searches_on_a_paged_store_filter_objects_of_their_source() {
        use relstore::vfs::FaultVfs;
        let vfs = FaultVfs::new();
        let pool = relstore::PoolConfig { page_bytes: 256, pool_pages: 2 };
        let mut s =
            GamStore::open_paged_with_vfs(std::sync::Arc::new(vfs), Path::new("/db"), pool)
                .unwrap();
        let names = ["Adenine kinase", "ALCOHOL dehydrogenase", "kinase-like", "unnamed"];
        let sources: Vec<Source> =
            ["A", "B", "C"].iter().map(|n| gene_source(&mut s, n)).collect();
        for (k, src) in sources.iter().enumerate() {
            // inserted out of accession order, some without a name
            let rows: Vec<(String, Option<String>, Option<f64>)> = (0..60)
                .map(|i| (i * 37 + k) % 60)
                .map(|i| {
                    let text = (i % 5 != 4).then(|| format!("{} {i}", names[i % 4]));
                    (format!("{}{i}", ["p", "q"][i % 2]), text, None)
                })
                .collect();
            s.add_objects_bulk(src.id, &rows).unwrap();
        }
        s.checkpoint().unwrap();
        for src in &sources {
            let all = s.objects_of(src.id).unwrap();
            for needle in ["", "KINASE", "dehydro", "1", "zzz"] {
                let want = needle.to_ascii_lowercase();
                for limit in [0, 3, 100] {
                    let expected: Vec<GamObject> = all
                        .iter()
                        .filter(|o| {
                            o.text.as_deref().is_some_and(|t| t.to_ascii_lowercase().contains(&want))
                        })
                        .take(limit)
                        .cloned()
                        .collect();
                    assert_eq!(s.search_objects(src.id, needle, limit).unwrap(), expected);
                }
            }
            for prefix in ["", "p", "q1", "p58", "r"] {
                for limit in [0, 3, 100] {
                    let expected: Vec<GamObject> = all
                        .iter()
                        .filter(|o| o.accession.starts_with(prefix))
                        .take(limit)
                        .cloned()
                        .collect();
                    assert_eq!(
                        s.objects_with_accession_prefix(src.id, prefix, limit).unwrap(),
                        expected
                    );
                }
            }
        }
    }

    #[test]
    fn mapping_roundtrip_and_orientation() {
        let mut s = store();
        let ll = gene_source(&mut s, "LocusLink");
        let go = s
            .create_source("GO", SourceContent::Other, SourceStructure::Network, None)
            .unwrap();
        let (l1, _) = s.ensure_object(ll.id, "353", None, None).unwrap();
        let (g1, _) = s.ensure_object(go.id, "GO:0009116", None, None).unwrap();
        let rel = s
            .create_source_rel(ll.id, go.id, RelType::Fact, None)
            .unwrap();
        assert!(s.add_association(rel, l1, g1, None).unwrap());
        assert!(!s.add_association(rel, l1, g1, None).unwrap(), "duplicate skipped");
        let map = s.load_mapping(rel).unwrap();
        assert_eq!(map.from, ll.id);
        assert_eq!(map.to, go.id);
        assert_eq!(map.len(), 1);
        assert_eq!(map.pairs[0], Association::fact(l1, g1));
        assert_eq!(s.association_count(rel).unwrap(), 1);

        // find in both orientations
        let (found, fwd) = s.find_source_rel(ll.id, go.id, None).unwrap().unwrap();
        assert_eq!(found.id, rel);
        assert!(fwd);
        let (found, fwd) = s.find_source_rel(go.id, ll.id, None).unwrap().unwrap();
        assert_eq!(found.id, rel);
        assert!(!fwd);
        assert!(s
            .find_source_rel(ll.id, go.id, Some(RelType::Similarity))
            .unwrap()
            .is_none());
    }

    #[test]
    fn source_rel_validation_and_missing_sources() {
        let mut s = store();
        let ll = gene_source(&mut s, "LocusLink");
        // annotation self-mapping rejected
        assert!(s
            .create_source_rel(ll.id, ll.id, RelType::Fact, None)
            .is_err());
        // IS_A self-relation allowed
        let isa = s.create_source_rel(ll.id, ll.id, RelType::IsA, None);
        assert!(isa.is_ok());
        // unknown endpoint rejected
        assert!(s
            .create_source_rel(ll.id, SourceId(42), RelType::Fact, None)
            .is_err());
    }

    #[test]
    fn associations_of_object_both_roles() {
        let mut s = store();
        let a = gene_source(&mut s, "A");
        let b = gene_source(&mut s, "B");
        let (ao, _) = s.ensure_object(a.id, "a1", None, None).unwrap();
        let (bo, _) = s.ensure_object(b.id, "b1", None, None).unwrap();
        let rel = s.create_source_rel(a.id, b.id, RelType::Fact, None).unwrap();
        s.add_association(rel, ao, bo, Some(0.8)).unwrap();
        let from_a = s.associations_of_object(ao).unwrap();
        assert_eq!(from_a.len(), 1);
        assert_eq!(from_a[0].1.to, bo);
        let from_b = s.associations_of_object(bo).unwrap();
        assert_eq!(from_b.len(), 1);
        assert_eq!(from_b[0].1.to, ao, "reverse role is re-oriented");
        assert_eq!(from_b[0].1.evidence, Some(0.8));
    }

    #[test]
    fn load_mapping_index_equals_load_mapping() {
        let mut s = store();
        let a = gene_source(&mut s, "A");
        let b = gene_source(&mut s, "B");
        let rel = s.create_source_rel(a.id, b.id, RelType::Similarity, None).unwrap();
        let mut objs_a = Vec::new();
        let mut objs_b = Vec::new();
        for i in 0..40 {
            objs_a.push(s.ensure_object(a.id, &format!("a{i}"), None, None).unwrap().0);
            objs_b.push(s.ensure_object(b.id, &format!("b{i}"), None, None).unwrap().0);
        }
        // skewed fan-out with a mix of facts and scores, inserted unsorted
        let mut added = 0;
        let mut assocs = Vec::new();
        for i in (0..40).rev() {
            let ev = if i % 3 == 0 { None } else { Some(i as f64 / 40.0) };
            assocs.push(Association { from: objs_a[i % 7], to: objs_b[i], evidence: ev });
        }
        s.add_associations_bulk(assocs.iter().map(|&a| (rel, a)), &mut added).unwrap();
        let via_rows = s.load_mapping(rel).unwrap();
        let idx = s.load_mapping_index(rel).unwrap();
        assert_eq!(idx.from, via_rows.from);
        assert_eq!(idx.to, via_rows.to);
        assert_eq!(idx.rel_type, via_rows.rel_type);
        // by_pair order is already canonical, so no dedup is needed to match
        let roundtrip = idx.to_mapping();
        assert_eq!(roundtrip.pairs.len(), via_rows.pairs.len());
        for (x, y) in roundtrip.pairs.iter().zip(&via_rows.pairs) {
            assert_eq!((x.from, x.to), (y.from, y.to));
            assert_eq!(x.evidence.map(f64::to_bits), y.evidence.map(f64::to_bits));
        }
        assert!(s.load_mapping_index(SourceRelId(99)).is_err());
    }

    #[test]
    fn delete_source_rel_cascades() {
        let mut s = store();
        let a = gene_source(&mut s, "A");
        let b = gene_source(&mut s, "B");
        let (ao, _) = s.ensure_object(a.id, "a1", None, None).unwrap();
        let (bo, _) = s.ensure_object(b.id, "b1", None, None).unwrap();
        let rel = s.create_source_rel(a.id, b.id, RelType::Composed, None).unwrap();
        s.add_association(rel, ao, bo, Some(0.5)).unwrap();
        let removed = s.delete_source_rel(rel).unwrap();
        assert_eq!(removed, 1);
        assert!(s.get_source_rel(rel).is_err());
        assert_eq!(s.cardinalities().unwrap().associations, 0);
    }

    /// The `object_rel_id` of every stored association, in row order.
    fn object_rel_ids(s: &GamStore) -> Vec<i64> {
        let table = s.db.table(tables::OBJECT_REL).unwrap();
        table.scan().filter_map(|(_, row)| row.get(0).as_int()).collect()
    }

    /// An association id is unique because it is its row's address: a
    /// row that repeats id 1 at row id 1 is refused by relstore, naming the
    /// table, and nothing is written.
    #[test]
    fn an_association_id_that_is_not_its_row_address_is_refused() {
        let mut s = store();
        let a = gene_source(&mut s, "A");
        let b = gene_source(&mut s, "B");
        let (ao, _) = s.ensure_object(a.id, "a1", None, None).unwrap();
        let (bo, _) = s.ensure_object(b.id, "b1", None, None).unwrap();
        let rel = s.create_source_rel(a.id, b.id, RelType::Fact, None).unwrap();
        s.add_association(rel, ao, bo, None).unwrap();
        assert_eq!(object_rel_ids(&s), vec![1]);
        let forged = [1, rel.as_i64(), bo.as_i64(), ao.as_i64()].map(Value::Int);
        let forged = forged.into_iter().chain([Value::Null]).collect();
        match s.db.mutate().with_txn(|txn| txn.insert(tables::OBJECT_REL, forged)) {
            Err(relstore::StoreError::DenseKeyViolation { table, row_id: 1, key }) => {
                assert_eq!((table.as_str(), key.as_str()), (tables::OBJECT_REL, "1"))
            }
            other => panic!("a repeated association id was taken: {other:?}"),
        }
        assert_eq!(object_rel_ids(&s), vec![1]);
        assert_eq!(s.verify_integrity().unwrap(), Vec::<String>::new());
    }

    #[test]
    fn verify_integrity_fails_on_a_page_it_cannot_read() {
        use relstore::vfs::{FaultVfs, Vfs};
        let vfs = FaultVfs::new();
        let dir = Path::new("/db");
        let open = || {
            let pool = relstore::PoolConfig { page_bytes: 256, pool_pages: 2 };
            GamStore::open_paged_with_vfs(std::sync::Arc::new(vfs.clone()), dir, pool).unwrap()
        };
        let mut s = open();
        let a = gene_source(&mut s, "A");
        let b = gene_source(&mut s, "B");
        let accessions: Vec<String> = (0..200).map(|i| format!("x{i}")).collect();
        let keys: Vec<_> = accessions.iter().map(|acc| (acc.as_str(), None, None)).collect();
        let (from, _) = s.add_objects_bulk_ref(a.id, &keys).unwrap();
        let (to, _) = s.add_objects_bulk_ref(b.id, &keys).unwrap();
        let rel = s.create_source_rel(a.id, b.id, RelType::Fact, None).unwrap();
        let pairs: Vec<_> = from.iter().zip(&to).map(|(f, t)| Association::fact(*f, *t)).collect();
        for batch in pairs.chunks(25) {
            // a batch seals as one page: several make several
            s.add_associations_bulk(batch.iter().map(|&a| (rel, a)), &mut 0).unwrap();
        }
        s.checkpoint().unwrap();
        drop(s);
        // reopened, the two-page pool holds a sliver of the heap: the first
        // sealed OBJECT_REL page is on disk only
        let s = open();
        assert_eq!(s.verify_integrity().unwrap(), Vec::<String>::new());
        let pagedir = vfs.read(&dir.join("pagedir.bin")).unwrap().unwrap();
        let catalog = relstore::pager::decode_page_directory(&pagedir).unwrap();
        let object_rel = catalog.tables.iter().find(|t| t.schema.name() == tables::OBJECT_REL);
        let pages = &object_rel.unwrap().pages;
        assert!(pages.len() > 4, "OBJECT_REL must outgrow the pool");
        let heap = dir.join(format!("heap.{}.bin", catalog.heap_gen));
        let mut bytes = vfs.read(&heap).unwrap().unwrap();
        bytes[(pages[0].loc.offset + pages[0].loc.len as u64 - 1) as usize] ^= 0x01;
        // in place: the pool holds the heap file open
        vfs.truncate(&heap, 0).unwrap();
        vfs.open_append(&heap).unwrap().write_all(&bytes).unwrap();
        // a store it could not finish reading is an error, not a clean bill
        match s.verify_integrity() {
            Err(GamError::Store(relstore::StoreError::Corrupt(msg))) => {
                assert!(msg.contains("checksum"), "{msg}")
            }
            other => panic!("an unreadable OBJECT_REL page passed as {other:?}"),
        }
        // the catalog passes over the same pool still answer
        assert_eq!(s.sources().unwrap().len(), 2);
        assert_eq!(s.source_rels().unwrap().len(), 1);
    }

    #[test]
    fn associations_under_an_unknown_mapping_are_refused_before_any_write() {
        let mut s = store();
        let a = gene_source(&mut s, "A");
        let b = gene_source(&mut s, "B");
        let (ao, _) = s.ensure_object(a.id, "a1", None, None).unwrap();
        let (bo, _) = s.ensure_object(b.id, "b1", None, None).unwrap();
        let deleted = s.create_source_rel(a.id, b.id, RelType::Fact, None).unwrap();
        s.delete_source_rel(deleted).unwrap();
        for id in [SourceRelId(99), deleted] {
            let mut added = 0;
            let bulk = s.add_associations_bulk([(id, Association::fact(ao, bo))], &mut added);
            assert!(matches!(bulk, Err(GamError::UnknownSourceRel(got)) if got == id));
            assert_eq!(added, 0);
            let single = s.add_association(id, ao, bo, Some(0.5));
            assert!(matches!(single, Err(GamError::UnknownSourceRel(got)) if got == id));
        }
        assert_eq!(s.cardinalities().unwrap().associations, 0);
        assert_eq!(s.verify_integrity().unwrap(), Vec::<String>::new());
    }

    #[test]
    fn per_source_object_counts() {
        let mut s = store();
        let a = gene_source(&mut s, "A");
        let b = gene_source(&mut s, "B");
        for i in 0..5 {
            s.create_object(a.id, &format!("a{i}"), None, None).unwrap();
        }
        s.create_object(b.id, "b0", None, None).unwrap();
        let counts = s.object_counts_per_source().unwrap();
        assert_eq!(counts, vec![(a.id, 5), (b.id, 1)]);
    }

    #[test]
    fn mapping_type_breakdown() {
        let mut s = store();
        let a = gene_source(&mut s, "A");
        let b = gene_source(&mut s, "B");
        let (ao, _) = s.ensure_object(a.id, "a1", None, None).unwrap();
        let (bo, _) = s.ensure_object(b.id, "b1", None, None).unwrap();
        let fact = s.create_source_rel(a.id, b.id, RelType::Fact, None).unwrap();
        let sim = s.create_source_rel(a.id, b.id, RelType::Similarity, None).unwrap();
        let isa = s.create_source_rel(a.id, a.id, RelType::IsA, None).unwrap();
        s.add_association(fact, ao, bo, None).unwrap();
        s.add_association(sim, ao, bo, Some(0.5)).unwrap();
        let (a2, _) = s.ensure_object(a.id, "a2", None, None).unwrap();
        s.add_association(isa, a2, ao, None).unwrap();
        s.add_association(isa, ao, a2, None).unwrap();
        let counts = s.mapping_type_counts().unwrap();
        assert_eq!(
            counts,
            vec![
                (RelType::Fact, 1, 1),
                (RelType::Similarity, 1, 1),
                (RelType::IsA, 1, 2),
            ]
        );
    }

    #[test]
    fn evidence_validation() {
        let mut s = store();
        let a = gene_source(&mut s, "A");
        let b = gene_source(&mut s, "B");
        let (ao, _) = s.ensure_object(a.id, "a1", None, None).unwrap();
        let (bo, _) = s.ensure_object(b.id, "b1", None, None).unwrap();
        let rel = s.create_source_rel(a.id, b.id, RelType::Similarity, None).unwrap();
        assert!(s.add_association(rel, ao, bo, Some(1.5)).is_err());
        assert_eq!(s.cardinalities().unwrap().associations, 0);
    }

    #[test]
    fn find_sources_aligns_hits_with_probe_order() {
        let mut s = store();
        let a = gene_source(&mut s, "A");
        let c = gene_source(&mut s, "C");
        let hits = s.find_sources(&["C", "missing", "A", "C"]).unwrap();
        assert_eq!(hits.len(), 4);
        assert_eq!(hits[0].as_ref().unwrap().id, c.id);
        assert!(hits[1].is_none());
        assert_eq!(hits[2].as_ref().unwrap().id, a.id);
        assert_eq!(hits[3].as_ref().unwrap().id, c.id);
        assert!(s.find_sources(&[]).unwrap().is_empty());
    }

    #[test]
    fn resolve_accessions_agrees_with_find_object_dense_and_sparse() {
        let mut s = store();
        let ll = gene_source(&mut s, "LocusLink");
        for i in 0..200 {
            s.create_object(ll.id, &format!("acc{i:03}"), None, None).unwrap();
        }
        // a probe set that covers most of the source
        let dense: Vec<String> = (0..150).map(|i| format!("acc{i:03}")).collect();
        let mut dense_refs: Vec<&str> = dense.iter().map(String::as_str).collect();
        dense_refs.push("nope");
        let hits = s.resolve_accessions(ll.id, &dense_refs).unwrap();
        assert!(hits[..150].iter().all(Option::is_some));
        assert!(hits[150].is_none());
        // a handful of probes across the whole source; answers must match find_object
        let sparse = ["acc000", "acc199", "zzz", "acc007"];
        let hits = s.resolve_accessions(ll.id, &sparse).unwrap();
        for (acc, hit) in sparse.iter().zip(&hits) {
            let expect = s.find_object(ll.id, acc).unwrap().map(|o| o.id);
            assert_eq!(*hit, expect, "mismatch for {acc}");
        }
        // duplicate probes align to the same id
        let hits = s.resolve_accessions(ll.id, &["acc005", "acc005"]).unwrap();
        assert_eq!(hits[0], hits[1]);
        assert!(hits[0].is_some());
    }

    #[test]
    fn get_objects_answers_in_input_order_repeats_included() {
        let mut s = store();
        let ll = gene_source(&mut s, "LocusLink");
        let ids: Vec<ObjectId> = (0..5)
            .map(|i| s.create_object(ll.id, &format!("acc{i}"), Some("name"), None).unwrap())
            .collect();
        let each = |ids: &[ObjectId]| -> Vec<GamObject> {
            ids.iter().map(|&id| s.get_object(id).unwrap()).collect()
        };
        // distinct ids out of order, then the same ids with repeats
        let distinct = [ids[3], ids[0], ids[4]];
        assert_eq!(s.get_objects(&distinct).unwrap(), each(&distinct));
        let repeated = [ids[2], ids[2], ids[1], ids[2]];
        assert_eq!(s.get_objects(&repeated).unwrap(), each(&repeated));
        assert!(matches!(
            s.get_objects(&[ids[0], ObjectId(999)]),
            Err(GamError::UnknownObject(ObjectId(999)))
        ));
    }

    /// A `create_object` whose WAL write fails leaves no object behind,
    /// in memory or in the log: the retry is stored under the next id (the
    /// failure burnt one row id and the id with it), read back by id, and
    /// it and the commit after it survive a power cut.
    #[test]
    fn a_create_object_the_wal_refused_is_not_stored_and_the_next_one_is() {
        use relstore::vfs::{FaultPlan, FaultVfs};
        let vfs = FaultVfs::new();
        let open = || GamStore::open_with_vfs(std::sync::Arc::new(vfs.clone()), Path::new("/db")).unwrap();
        let mut s = open();
        let ll = gene_source(&mut s, "LocusLink");
        let fail_at = Some(vfs.op_count() + 1);
        vfs.set_plan(FaultPlan { crash_at: None, fail_at, torn_seed: 7 });
        assert!(s.create_object(ll.id, "353", Some("APRT"), None).is_err());
        assert!(s.find_object(ll.id, "353").unwrap().is_none());
        let id = s.create_object(ll.id, "353", Some("APRT"), None).unwrap();
        assert_eq!(s.get_object(id).unwrap().accession, "353");
        let go = gene_source(&mut s, "GO");
        drop(s);
        vfs.crash_now();
        vfs.reboot();
        let s = open();
        assert_eq!(s.find_object(ll.id, "353").unwrap().map(|o| o.id), Some(id));
        assert_eq!(s.get_object(id).unwrap().text.as_deref(), Some("APRT"));
        assert_eq!(s.get_source(go.id).unwrap(), go);
        assert_eq!(s.verify_integrity().unwrap(), Vec::<String>::new());
    }

    /// A `delete_source_rel` whose commit the WAL refuses is rolled back, and
    /// its rollback costs O(k log n): each of the k restored associations
    /// revives the dead mark its delete left in the run — none re-enters
    /// the delta — so every index reads as before. The mapping
    /// holds 4 000 of 12 000 associations, a third of each index's run:
    /// more than a merge would take, had a removal merged.
    #[test]
    fn a_refused_mapping_delete_rolls_back_by_reviving_dead_marks() {
        use relstore::vfs::{FaultPlan, FaultVfs};
        let vfs = FaultVfs::new();
        let open = || GamStore::open_with_vfs(std::sync::Arc::new(vfs.clone()), Path::new("/db")).unwrap();
        let mut s = open();
        let (a, b) = (gene_source(&mut s, "A"), gene_source(&mut s, "B"));
        let objects = |s: &mut GamStore, source: SourceId, n: usize| {
            let names: Vec<(String, Option<String>, Option<f64>)> = (0..n).map(|i| (format!("o{i}"), None, None)).collect();
            s.add_objects_bulk(source, &names).unwrap().0
        };
        let (from, to) = (objects(&mut s, a.id, 200), objects(&mut s, b.id, 60));
        let mut rels = Vec::new();
        for (n, ty) in [(8_000, RelType::Similarity), (4_000, RelType::Composed)] {
            let rel = s.create_source_rel(a.id, b.id, ty, None).unwrap();
            let pairs = (0..n).map(|i| Association { from: from[i % 200], to: to[i / 200], evidence: None });
            s.add_associations_bulk(pairs.map(|a| (rel, a)), &mut 0).unwrap();
            rels.push(rel);
        }
        s.checkpoint().unwrap();
        drop(s);
        let mut s = open();
        let observed = |s: &GamStore| {
            let t = s.db.table(tables::OBJECT_REL).unwrap();
            let indexes = ["by_pair", "by_object1", "by_object2"];
            indexes.map(|ix| (t.index_stats(ix).unwrap(), t.index_entry_list(ix).unwrap()))
        };
        let before = observed(&s);
        assert!(before.iter().all(|(stats, _)| (stats.entries, stats.delta, stats.dead) == (12_000, 0, 0)));
        vfs.set_plan(FaultPlan { crash_at: None, fail_at: Some(vfs.op_count() + 1), torn_seed: 7 });
        assert!(s.delete_source_rel(rels[1]).is_err(), "the WAL refuses the commit");
        for ((after, entries), (stats, want)) in observed(&s).into_iter().zip(before) {
            assert_eq!(entries, want);
            assert_eq!((after.entries, after.delta, after.dead), (12_000, 0, 0), "the restores revived dead marks");
            // the run keeps the dead-mark bitset its first removal allocated
            assert_eq!(after.bytes, stats.bytes + 8 * 12_000usize.div_ceil(64));
        }
        assert_eq!(s.load_mapping(rels[1]).unwrap().pairs.len(), 4_000);
    }

    /// A commit the WAL refused burns one row id, and the id with it; each
    /// of the 1 000 objects created after it is still read at its address,
    /// by `get_object` and `with_objects`, live and after a power cut, and
    /// `OBJECT` keeps no stored `pk` index for those reads.
    #[test]
    fn objects_after_a_refused_commit_are_read_at_their_address_without_a_pk_index() {
        use relstore::vfs::{FaultPlan, FaultVfs};
        let vfs = FaultVfs::new();
        let open = || GamStore::open_with_vfs(std::sync::Arc::new(vfs.clone()), Path::new("/db")).unwrap();
        let mut s = open();
        let ll = gene_source(&mut s, "LocusLink");
        let first = s.create_object(ll.id, "0", None, None).unwrap();
        let fail_at = Some(vfs.op_count() + 1);
        vfs.set_plan(FaultPlan { crash_at: None, fail_at, torn_seed: 7 });
        assert!(s.create_object(ll.id, "refused", None, None).is_err());
        let burnt = ObjectId(first.0 + 1);
        let ids: Vec<ObjectId> = (1..=1000)
            .map(|k| s.create_object(ll.id, &k.to_string(), Some(&format!("n{k}")), None).unwrap())
            .collect();
        assert_eq!(ids[0], ObjectId(burnt.0 + 1), "the refused commit burns its id");
        let check = |s: &GamStore, when: &str| {
            assert!(matches!(s.get_object(burnt), Err(GamError::UnknownObject(id)) if id == burnt), "{when}");
            let want: Vec<(usize, ObjectId, String, Option<String>)> = (1..)
                .zip(&ids)
                .map(|(k, &id)| (k - 1, id, k.to_string(), Some(format!("n{k}"))))
                .collect();
            let got: Vec<_> = ids
                .iter()
                .enumerate()
                .map(|(n, &id)| {
                    let o = s.get_object(id).unwrap();
                    (n, o.id, o.accession, o.text)
                })
                .collect();
            assert_eq!(got, want, "get_object, {when}");
            let mut lent = Vec::new();
            s.with_objects(&ids, &mut |n, o| {
                lent.push((n, o.id, o.accession.to_owned(), o.text.map(str::to_owned)))
            })
            .unwrap();
            assert_eq!(lent, want, "with_objects, {when}");
            let stats = s.database().stats().unwrap();
            let object = stats.tables.iter().find(|t| t.name == tables::OBJECT).unwrap();
            let names: Vec<&str> = object.indexes.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(names, ["by_accession"], "{when}");
            let pk = s.database().table(tables::OBJECT).unwrap().index_stats("pk");
            assert!(matches!(pk, Err(relstore::StoreError::NoSuchIndex { .. })), "{when}: {pk:?}");
        };
        check(&s, "live");
        drop(s);
        vfs.crash_now();
        vfs.reboot();
        check(&open(), "after a power cut");
    }

    #[test]
    fn bulk_ref_matches_per_row_ensure_object() {
        let mut a = store();
        let mut b = store();
        let sa = gene_source(&mut a, "S");
        let sb = gene_source(&mut b, "S");
        // pre-populate both stores identically so the batch hits existing rows
        a.create_object(sa.id, "pre", Some("t"), None).unwrap();
        b.create_object(sb.id, "pre", Some("t"), None).unwrap();
        let batch: Vec<(&str, Option<&str>, Option<f64>)> = vec![
            ("x", Some("first"), None),
            ("pre", None, None),
            ("y", None, Some(1.0)),
            ("x", Some("second wins? no: first"), None),
        ];
        let (ids, created) = a.add_objects_bulk_ref(sa.id, &batch).unwrap();
        let mut expect_ids = Vec::new();
        let mut expect_created = 0;
        for (acc, text, num) in &batch {
            let (id, fresh) = b.ensure_object(sb.id, acc, *text, *num).unwrap();
            expect_ids.push(id);
            if fresh {
                expect_created += 1;
            }
        }
        assert_eq!(ids, expect_ids);
        assert_eq!(created, expect_created);
        let mut objs_a = a.objects_of(sa.id).unwrap();
        let mut objs_b = b.objects_of(sb.id).unwrap();
        objs_a.sort_by_key(|o| o.id);
        objs_b.sort_by_key(|o| o.id);
        assert_eq!(objs_a, objs_b);
    }

    #[test]
    fn group_commit_window_survives_reopen() {
        let dir = testkit::TempDir::new("gam-group-commit");
        let (src_id, rel_id) = {
            let mut s = GamStore::open(&dir).unwrap();
            // snapshot the empty schema so reopen can replay the WAL
            // (relstore recovery needs tables from a snapshot); the whole
            // batch below then lives only in group-committed WAL frames
            s.checkpoint().unwrap();
            s.with_group_commit(|s| {
                let src = gene_source(s, "A");
                let go = s.create_source("GO", SourceContent::Other, SourceStructure::Network, None)?;
                let (ids, created) = s.add_objects_bulk_ref(src.id, &[("a1", None, None), ("a2", None, None)])?;
                assert_eq!(created, 2);
                let (g, _) = s.ensure_object(go.id, "GO:1", None, None)?;
                let rel = s.create_source_rel(src.id, go.id, RelType::Fact, None)?;
                let mut added = 0;
                let dup = Association::fact(ids[0], g); // dup within batch
                let batch = vec![Association::fact(ids[0], g), Association::fact(ids[1], g), dup];
                s.add_associations_bulk(batch.into_iter().map(|a| (rel, a)), &mut added)?;
                assert_eq!(added, 2);
                Ok((src.id, rel))
            })
            .unwrap()
        };
        let s = GamStore::open(&dir).unwrap();
        assert_eq!(s.find_source("A").unwrap().unwrap().id, src_id);
        assert_eq!(s.object_count(src_id).unwrap(), 2);
        assert_eq!(s.association_count(rel_id).unwrap(), 2);
    }

    /// A group-commit window whose body fails after a write still closes:
    /// the write is durable when the window returns the body's error, and
    /// the next commit on the same store syncs on its own. Each survives a
    /// power cut.
    #[test]
    fn a_failed_group_commit_window_is_synced_and_closed() {
        use relstore::vfs::FaultVfs;
        for commit_after in [false, true] {
            let vfs = FaultVfs::new();
            let open = || GamStore::open_with_vfs(std::sync::Arc::new(vfs.clone()), Path::new("/db")).unwrap();
            let mut s = open();
            s.checkpoint().unwrap();
            let failed = s.with_group_commit(|s| {
                gene_source(s, "InWindow");
                Err::<(), _>(GamError::Invalid("the body fails after its write".into()))
            });
            assert!(matches!(failed, Err(GamError::Invalid(_))));
            if commit_after {
                gene_source(&mut s, "AfterWindow");
            }
            drop(s);
            vfs.crash_now();
            vfs.reboot();
            let s = open();
            if commit_after {
                assert!(s.find_source("AfterWindow").unwrap().is_some(), "the window left sync-on-commit off");
            } else {
                assert!(s.find_source("InWindow").unwrap().is_some(), "the window's write was not synced");
            }
        }
    }

    #[test]
    fn durable_store_preserves_ids_across_reopen() {
        let dir = testkit::TempDir::new("gam-reopen");
        let (src_id, obj_id, rel_id, g, deleted_id);
        {
            let mut s = GamStore::open(&dir).unwrap();
            let src = gene_source(&mut s, "LocusLink");
            src_id = src.id;
            obj_id = s.create_object(src.id, "353", Some("APRT"), None).unwrap();
            let go = s
                .create_source("GO", SourceContent::Other, SourceStructure::Network, None)
                .unwrap();
            g = s.create_object(go.id, "GO:1", None, None).unwrap();
            rel_id = s.create_source_rel(src.id, go.id, RelType::Fact, None).unwrap();
            s.add_association(rel_id, obj_id, g, None).unwrap();
            // the newest mapping goes again, and its association ids with it
            let newest = s.create_source_rel(src.id, go.id, RelType::Composed, None).unwrap();
            s.add_association(newest, obj_id, g, Some(0.5)).unwrap();
            deleted_id = object_rel_ids(&s)[1];
            s.delete_source_rel(newest).unwrap();
            s.checkpoint().unwrap();
        }
        {
            let mut s = GamStore::open(&dir).unwrap();
            // existing data visible
            assert_eq!(s.find_source("LocusLink").unwrap().unwrap().id, src_id);
            assert_eq!(s.load_mapping(rel_id).unwrap().len(), 1);
            // id counters resume beyond existing data
            let next = s
                .create_source("New", SourceContent::Other, SourceStructure::Flat, None)
                .unwrap();
            assert!(next.id.raw() > 2);
            let new_obj = s.create_object(next.id, "x", None, None).unwrap();
            assert!(new_obj.raw() > obj_id.raw());
            // an association id is never issued twice
            let other = s.create_object(src_id, "354", None, None).unwrap();
            s.add_association(rel_id, other, g, None).unwrap();
            assert!(!object_rel_ids(&s).contains(&deleted_id), "{deleted_id} reissued");
            assert_eq!(s.verify_integrity().unwrap(), Vec::<String>::new());
        }
    }
}
