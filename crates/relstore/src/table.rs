//! Heap tables with slotted storage and index maintenance.
//!
//! A [`Table`] owns its rows as page images ([`crate::page`]): sealed ones
//! behind the buffer pool ([`crate::pager`]) plus an open tail of images it
//! appends to, whose head a seal hands to the pool as it stands. A table
//! with no pool is a table whose tail never seals. Either way a row in
//! memory is its encoded cell, decoded when a read asks for it. Row ids are
//! monotonically assigned and never reused; deleting a row tombstones its
//! slot. Every declared index (including the primary key, named `"pk"`) is
//! maintained on insert/update/delete and kept resident — only row bodies
//! page out, so an indexed point lookup faults exactly the pages it touches.
//! Recovery places rows first and builds every index once afterwards
//! (`Table::build_indexes`): a table under recovery has no index
//! structures at all until then.
//!
//! A table whose schema declares a dense key
//! ([`Schema::dense_key`]) keeps no structure for it: every row holds its
//! row id + 1 in column 0 — checked at every write and in the pass that
//! builds the indexes — so a key is its row's address, and a `"pk"` read
//! ([`Table::lookup_unique`]) is one read by row id with a liveness check.
//!
//! Reads name their index: [`Table::lookup`], [`Table::for_each_prefix`]
//! and their kin probe one declared index, and [`Table::for_each_row`] is
//! the full scan. There is no planner choosing between them.

use std::borrow::Cow;
use std::sync::Arc;

use crate::error::{StoreError, StoreResult};
use crate::index::{format_key, IndexBuilder, IndexKey, IndexStore, KeySpec};
use crate::codec::{get_count, get_value_into};
use crate::page::{PageId, PageImage, MAX_PAGE_SLOTS};
use crate::pager::{PageDirEntry, PagedTableMeta, Pager};
use crate::row::{Row, RowId};
use crate::schema::{IndexDef, Schema};
use crate::stats::IndexStats;
use crate::value::Value;

/// One block of a batched columnar scan
/// ([`Table::scan_prefix_columnar`]): the requested columns decoded into
/// parallel buffers for `len` rows. Buffers are reused across blocks — a
/// sink must not hold on to them past its call.
#[derive(Debug)]
pub struct ColumnarBlock {
    len: usize,
    /// One buffer per requested int column, in request order.
    pub ints: Vec<Vec<i64>>,
    /// One buffer per requested float column, in request order.
    pub floats: Vec<Vec<Option<f64>>>,
}

impl ColumnarBlock {
    /// Rows in this block.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A sealed page of a table: `slots` consecutive row ids starting at
/// `base`, owned by the buffer pool under
/// `PageId { table_id, page_no: <position in the page list> }`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SealedPage {
    pub(crate) base: u64,
    pub(crate) slots: u32,
}

/// Row storage: a contiguous list of sealed pages covering row ids
/// `[0, tail_base)` plus the open tail covering `[tail_base, ..)`. Without
/// a buffer pool the tail never seals: `pages` stays empty and the tail is
/// the whole table.
#[derive(Debug)]
struct PagedRows {
    /// The pool sealed pages live behind; `None` keeps every row in the tail.
    pager: Option<Arc<Pager>>,
    table_id: u32,
    pages: Vec<SealedPage>,
    /// The open tail, as the page images it will be sealed in: all but the
    /// last hold exactly [`MAX_PAGE_SLOTS`] slots, so a row id's image is a
    /// division away. Under a pool, more than one is a batch yet to settle.
    tail: Vec<PageImage>,
    tail_base: u64,
}

/// Where a row id lives.
enum Loc {
    /// Open tail: image `tail[i]`, slot `j`.
    Tail(usize, usize),
    /// Sealed page `pages[i]`, slot `j`.
    Page(usize, usize),
    /// At or beyond the high-water mark.
    Beyond,
}

impl PagedRows {
    fn new(pager: Option<Arc<Pager>>, table_id: u32) -> Self {
        PagedRows {
            pager,
            table_id,
            pages: Vec::new(),
            tail: Vec::new(),
            tail_base: 0,
        }
    }

    /// The pool behind sealed page `idx` and the page's id there. Only a
    /// pooled store ever seals ([`Table::recovered`] refuses sealed pages
    /// without a pool), so a missing pool is corruption of this structure.
    fn sealed(&self, idx: usize) -> StoreResult<(&Arc<Pager>, PageId)> {
        let pager = self.pager.as_ref().ok_or_else(|| {
            StoreError::Corrupt(format!("sealed page {idx} in a table without a buffer pool"))
        })?;
        Ok((
            pager,
            PageId {
                table_id: self.table_id,
                page_no: idx as u32,
            },
        ))
    }

    /// One past the highest assigned row id.
    fn high_water(&self) -> u64 {
        let end = |last: &PageImage| last.base + last.slot_count() as u64;
        self.tail.last().map_or(self.tail_base, end)
    }

    fn locate(&self, id: u64) -> Loc {
        if id >= self.tail_base {
            let off = (id - self.tail_base) as usize;
            let (i, slot) = (off / MAX_PAGE_SLOTS, off % MAX_PAGE_SLOTS);
            match self.tail.get(i) {
                Some(image) if slot < image.slot_count() => Loc::Tail(i, slot),
                _ => Loc::Beyond,
            }
        } else {
            // Sealed pages tile [0, tail_base) contiguously; find the page
            // whose base is the greatest one <= id.
            let idx = match self.pages.binary_search_by(|p| p.base.cmp(&id)) {
                Ok(i) => i,
                Err(0) => return Loc::Beyond,
                Err(i) => i - 1,
            };
            let slot = (id - self.pages[idx].base) as usize;
            if slot < self.pages[idx].slots as usize {
                Loc::Page(idx, slot)
            } else {
                Loc::Beyond
            }
        }
    }

    /// The tail image the next slot goes into. Pushing to it cannot fail, so
    /// callers order it after index maintenance and stay consistent.
    fn open_image(&mut self) -> &mut PageImage {
        let next = self.high_water();
        PageImage::open(&mut self.tail, self.table_id, self.pages.len(), next)
    }

    /// Run the seal check deferred by one or more pushes: seal
    /// the head of the open tail into the buffer pool while it is full (by
    /// bytes against the configured page size, or by the slot cap — an
    /// image behind it means it met the cap). An error leaves every pushed
    /// row stored (in the tail or in a resident pool frame) — only the
    /// page-out I/O failed. Without a pool there is nothing to seal into.
    fn settle(&mut self) -> StoreResult<()> {
        let Some(page_bytes) = self.pager.as_ref().map(|p| p.config().page_bytes) else {
            return Ok(());
        };
        while self.tail.first().is_some_and(|head| {
            self.tail.len() > 1
                || head.slot_count() >= MAX_PAGE_SLOTS
                || head.live_bytes() >= page_bytes
        }) {
            self.seal_tail()?;
        }
        Ok(())
    }

    /// Seal the head of the open tail: its image goes to the pool as it
    /// stands, and what is behind it is the new tail. The page is recorded
    /// in `pages` *before* the pool install, so an eviction error inside
    /// `install` (which still leaves the new frame resident and dirty)
    /// keeps table and pool consistent.
    fn seal_tail(&mut self) -> StoreResult<()> {
        let mut image = self.tail.remove(0);
        image.shrink_to_fit();
        let idx = self.pages.len();
        debug_assert_eq!((image.page_no, image.base), (idx as u32, self.tail_base));
        self.pages.push(SealedPage {
            base: image.base,
            slots: image.slot_count() as u32,
        });
        self.tail_base += image.slot_count() as u64;
        let (pager, pid) = self.sealed(idx)?;
        pager.install(pid, image)
    }

    /// Extend with tombstones until the high-water mark reaches `target`
    /// (gap fill for replayed sparse row ids).
    fn fill_gap_to(&mut self, target: u64) -> StoreResult<()> {
        // `target` may come straight from a file: a row id no memory could
        // hold is corruption, not an abort (under a pool the gap seals as it
        // grows, a page of tombstones at a time)
        let images = usize::try_from(target.saturating_sub(self.high_water()) / MAX_PAGE_SLOTS as u64);
        if self.pager.is_none() && self.tail.try_reserve(images.unwrap_or(usize::MAX)).is_err() {
            return Err(StoreError::Corrupt(format!("row id {target} exceeds addressable slots")));
        }
        while self.high_water() < target {
            self.open_image().push(None);
            self.settle()?;
        }
        Ok(())
    }

    /// Point the slot at `id` (below the high-water mark) at `values` —
    /// `None` tombstones it — after `old` has read what it wants out of the
    /// slot's image, or refused. No other row of the image is touched; a
    /// sealed page is marked dirty; an error means nothing was written.
    fn replace<T>(
        &mut self,
        id: u64,
        values: Option<&[Value]>,
        old: impl FnOnce(&PageImage, usize) -> StoreResult<T>,
    ) -> StoreResult<T> {
        let rewrite = move |image: &mut PageImage, slot: usize| -> StoreResult<T> {
            let old = old(image, slot)?;
            image.set(slot, values)?;
            Ok(old)
        };
        match self.locate(id) {
            Loc::Beyond => Err(StoreError::Corrupt(format!(
                "slot write at {id} beyond high-water mark {}",
                self.high_water()
            ))),
            Loc::Tail(i, slot) => rewrite(&mut self.tail[i], slot),
            Loc::Page(idx, slot) => {
                let (pager, pid) = self.sealed(idx)?;
                pager.mutate(pid, move |image| rewrite(image, slot))?
            }
        }
    }

    /// Visit every live row in row-id order, propagating sink errors and
    /// page-fault I/O errors. Each sealed page is faulted exactly once and
    /// every row passes through one scratch row.
    fn for_each(&self, f: &mut dyn FnMut(RowId, &Row) -> StoreResult<()>) -> StoreResult<()> {
        let mut scratch = Row::new(Vec::new());
        let mut rows_of = |image: &PageImage| -> StoreResult<()> {
            for slot in 0..image.slot_count() {
                if image.row_into(slot, &mut scratch)? {
                    f(RowId(image.base + slot as u64), &scratch)?;
                }
            }
            Ok(())
        };
        for idx in 0..self.pages.len() {
            let (pager, pid) = self.sealed(idx)?;
            rows_of(pager.pin(pid)?.as_ref())?;
        }
        self.tail.iter().try_for_each(rows_of)
    }
}

/// A read cursor over a table's rows that keeps the last page image it was
/// handed, so index-driven loops that touch several rows of the same page
/// ask the pool for it once instead of per row. A row comes out of its cell
/// *owned* — decoded straight into the row that is returned — *borrowed* —
/// decoded over the cursor's one scratch row, text buffers reused — or by
/// *columns*, value by value with no row built. [`Table::cursor`] hands one
/// out for reads by row id, which lend their rows borrowed.
pub struct RowCursor<'a> {
    store: &'a PagedRows,
    cached: Option<(usize, Arc<PageImage>)>,
    scratch: Row,
}

impl<'a> RowCursor<'a> {
    fn new(store: &'a PagedRows) -> Self {
        RowCursor {
            store,
            cached: None,
            scratch: Row::new(Vec::new()),
        }
    }

    /// The image holding row `id` and the row's slot in it — a tail image,
    /// or a sealed page from `cached` if it is the last one asked for (a
    /// function of the fields, so the scratch row stays free). `None` at or
    /// beyond the high-water mark.
    fn image<'c>(
        store: &'c PagedRows,
        cached: &'c mut Option<(usize, Arc<PageImage>)>,
        id: RowId,
    ) -> StoreResult<Option<(&'c PageImage, usize)>> {
        let (idx, slot) = match store.locate(id.0) {
            Loc::Beyond => return Ok(None),
            Loc::Tail(i, slot) => return Ok(Some((&store.tail[i], slot))),
            Loc::Page(idx, slot) => (idx, slot),
        };
        let entry = match cached.take() {
            Some(entry) if entry.0 == idx => entry,
            _ => {
                let (pager, pid) = store.sealed(idx)?;
                (idx, pager.pin(pid)?)
            }
        };
        Ok(Some((&cached.insert(entry).1, slot)))
    }

    /// The live row at `id`, owned; `Ok(None)` for tombstones and
    /// out-of-range ids.
    fn owned(&mut self, id: RowId) -> StoreResult<Option<Row>> {
        match Self::image(self.store, &mut self.cached, id)? {
            Some((image, slot)) => image.row(slot),
            None => Ok(None),
        }
    }

    /// Apply `f` to the live row at `id`, borrowed; `Ok(None)` for
    /// tombstones and out-of-range ids.
    pub fn with<T>(&mut self, id: RowId, f: impl FnOnce(&Row) -> T) -> StoreResult<Option<T>> {
        let Some((image, slot)) = Self::image(self.store, &mut self.cached, id)? else {
            return Ok(None);
        };
        let live = image.row_into(slot, &mut self.scratch)?;
        Ok(live.then(|| f(&self.scratch)))
    }

    /// Feed `f` the values of the live row at `id` by ordinal, one at a
    /// time straight from its cell: no row is built.
    fn columns(&mut self, id: RowId, mut f: impl FnMut(usize, &Value)) -> StoreResult<Option<()>> {
        let Some((image, slot)) = Self::image(self.store, &mut self.cached, id)? else {
            return Ok(None);
        };
        image.read_cell(slot, |cell| {
            let mut value = Value::Null;
            (0..get_count(cell, 1, "row value")?)
                .try_for_each(|ord| get_value_into(cell, &mut value).map(|()| f(ord, &value)))
        })
    }
}

/// An index entry pointed at a dead or out-of-range slot: indexes and row
/// storage have diverged — surfaced as corruption instead of a panic.
fn dead_index_ref(table: &str, id: RowId) -> StoreError {
    StoreError::Corrupt(format!(
        "index references dead row {} in table {table}",
        id.0
    ))
}

/// Owning iterator over a table's live rows in row-id order (see
/// [`Table::scan`]).
///
/// Paged stores fault pages in through the buffer pool as the iterator
/// advances; a page-fault I/O error or a damaged cell ends the iteration
/// early (an `Iterator` cannot yield a `Result` without changing every call
/// site). Paths that must distinguish "end of data" from an error call
/// [`finish`](Self::finish), or use [`Table::for_each_row`] instead.
pub struct Scan<'a> {
    cursor: RowCursor<'a>,
    next_id: u64,
    high: u64,
    error: Option<StoreError>,
}

impl Scan<'_> {
    /// How the iteration ended: the error that cut it short, if one did.
    pub fn finish(self) -> StoreResult<()> {
        self.error.map_or(Ok(()), Err)
    }
}

impl Iterator for Scan<'_> {
    type Item = (RowId, Row);

    fn next(&mut self) -> Option<(RowId, Row)> {
        while self.error.is_none() && self.next_id < self.high {
            let id = RowId(self.next_id);
            self.next_id += 1;
            match self.cursor.owned(id) {
                Ok(Some(row)) => return Some((id, row)),
                Ok(None) => continue,
                Err(e) => self.error = Some(e),
            }
        }
        None
    }
}

/// A table: schema, row storage, and indexes.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    /// Row slots: pool-backed sealed pages plus the open tail. A slot is
    /// `None` for deleted rows.
    store: PagedRows,
    live: usize,
    /// One structure per `schema.indexes()` entry, in the same order — or
    /// none at all while the table is being recovered: every mutator
    /// maintains exactly the indexes that exist, so replay only places
    /// rows, and [`Table::build_indexes`] ends the recovery.
    indexes: Vec<IndexStore>,
}

/// Build the indexes `defs` of `schema` over the live rows of `store` —
/// the one place rows become an index. One pass over the rows (one fault per
/// page) projects every key into its index's [`IndexBuilder`], which
/// receives them in row-id order and sorts them only if that is not already
/// key order; under a dense key it also checks each row's key. Returns the
/// structures and the number of live rows seen; the builders are sized once
/// for the `expect` rows the caller counts on.
fn index_rows(
    schema: &Schema,
    defs: &[&IndexDef],
    store: &PagedRows,
    expect: usize,
) -> StoreResult<(Vec<IndexStore>, usize)> {
    // the count may come from a file: one no memory could hold is corruption
    let corrupt = |_| StoreError::Corrupt(format!("table {}: {expect} live rows", schema.name()));
    let builders = defs.iter().map(|def| IndexBuilder::new(KeySpec::new(schema, def), expect).map_err(corrupt));
    let mut builders = builders.collect::<StoreResult<Vec<_>>>()?;
    let mut live = 0usize;
    store.for_each(&mut |id, row| {
        live += 1;
        check_dense(schema, id, row.values())?;
        for builder in &mut builders {
            builder.push(builder.spec().row_key(row.values())?, id);
        }
        Ok(())
    })?;
    let built = defs
        .iter()
        .zip(builders)
        .map(|(def, builder)| builder.finish(schema.name(), def))
        .collect::<StoreResult<_>>()?;
    Ok((built, live))
}

/// Refuse the row `values` at `row_id` if `schema` declares a dense key
/// and the row's key is not its row id + 1.
fn check_dense(schema: &Schema, row_id: RowId, values: &[Value]) -> StoreResult<()> {
    if !schema.dense_key() || row_id.dense_key().is_some_and(|key| values[0] == Value::Int(key)) {
        return Ok(());
    }
    Err(StoreError::DenseKeyViolation {
        table: schema.name().to_owned(),
        row_id: row_id.0,
        key: values[0].to_string(),
    })
}

/// The row a dense-key probe `[Int(k)]` addresses, live or not.
fn dense_row(key: &[Value]) -> Option<RowId> {
    match key {
        [Value::Int(k)] => RowId::of_dense_key(*k),
        _ => None,
    }
}

impl Table {
    /// Create an empty table for `schema` whose rows all stay in memory.
    pub fn new(schema: Schema) -> Self {
        Table::create(schema, None, 0)
    }

    /// Create an empty table known to its database as `table_id`: with a
    /// `pager` its row bodies page out behind that pool, without one its
    /// tail never seals.
    pub(crate) fn create(schema: Schema, pager: Option<Arc<Pager>>, table_id: u32) -> Self {
        let indexes = schema
            .indexes()
            .iter()
            .map(|d| IndexStore::new(KeySpec::new(&schema, d), d.unique))
            .collect();
        Table {
            schema,
            store: PagedRows::new(pager, table_id),
            live: 0,
            indexes,
        }
    }

    /// Put the table under recovery: drop its index structures so replayed
    /// writes only place rows, until [`build_indexes`](Self::build_indexes).
    pub(crate) fn unindexed(mut self) -> Self {
        self.indexes.clear();
        self
    }

    /// Reattach a table to its recovered page-directory entry, under
    /// recovery; the tail's images are moved in as they stand. The sealed
    /// pages must tile `[0, tail_base)` contiguously (anything else is a
    /// corrupt directory), and sealed pages need the pool they were sealed
    /// into: without one the open is refused, untouched, naming the one
    /// that serves it. No page is read here: `live` is the directory's
    /// count, verified against the pages when
    /// [`build_indexes`](Self::build_indexes) streams them.
    pub(crate) fn recovered(
        meta: PagedTableMeta<'static>,
        pager: Option<Arc<Pager>>,
    ) -> StoreResult<Table> {
        let schema = meta.schema.into_owned();
        if pager.is_none() && !meta.pages.is_empty() {
            return Err(StoreError::Unsupported(format!(
                "table {} has {} sealed heap pages, which need a buffer pool: \
                 open this directory with open_paged",
                schema.name(),
                meta.pages.len()
            )));
        }
        let mut expect = 0u64;
        for (i, p) in meta.pages.iter().enumerate() {
            if p.base != expect {
                return Err(StoreError::Corrupt(format!(
                    "page directory of table {}: page {i} starts at {} but previous pages end at {expect}",
                    schema.name(),
                    p.base
                )));
            }
            expect += p.slots as u64;
        }
        if expect != meta.tail_base {
            return Err(StoreError::Corrupt(format!(
                "page directory of table {}: sealed pages end at {expect} but tail starts at {}",
                schema.name(),
                meta.tail_base
            )));
        }
        let mut store = PagedRows::new(pager, meta.table_id);
        for (i, entry) in meta.pages.iter().enumerate() {
            let (pager, pid) = store.sealed(i)?;
            pager.register(pid, entry.loc);
        }
        store.pages = meta
            .pages
            .iter()
            .map(|e| SealedPage {
                base: e.base,
                slots: e.slots,
            })
            .collect();
        store.tail_base = meta.tail_base;
        store.tail = meta.tail.into_owned();
        Ok(Table {
            schema,
            live: meta.live as usize,
            indexes: Vec::new(),
            store,
        })
    }

    /// End recovery: build every declared index from the rows as they now
    /// stand. Fails — leaving the table unindexed — with `UniqueViolation`
    /// if the rows break a unique index, or `Corrupt` if the pages do not
    /// hold the live-row count recovery arrived at.
    pub(crate) fn build_indexes(&mut self) -> StoreResult<()> {
        let defs: Vec<&IndexDef> = self.schema.indexes().iter().collect();
        let (indexes, live) = index_rows(&self.schema, &defs, &self.store, self.live)?;
        if live != self.live {
            return Err(StoreError::Corrupt(format!(
                "table {}: recovery accounts for {} live rows but storage holds {live}",
                self.schema.name(),
                self.live
            )));
        }
        self.indexes = indexes;
        Ok(())
    }

    /// Page ids of all sealed pages.
    pub(crate) fn page_ids(&self) -> Vec<PageId> {
        (0..self.store.pages.len() as u32)
            .map(|page_no| PageId {
                table_id: self.store.table_id,
                page_no,
            })
            .collect()
    }

    /// This table's page-directory entry at a checkpoint: every sealed
    /// page's heap location (valid only after the pool has flushed — a page
    /// without a location is corruption) plus the tail, borrowed.
    pub(crate) fn to_paged_meta(&self) -> StoreResult<PagedTableMeta<'_>> {
        let p = &self.store;
        let mut pages = Vec::with_capacity(p.pages.len());
        for (i, sp) in p.pages.iter().enumerate() {
            let (pager, pid) = p.sealed(i)?;
            let loc = pager.directory_loc(pid).ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "page {i} of table {} has no heap location at checkpoint",
                    self.schema.name()
                ))
            })?;
            pages.push(PageDirEntry {
                base: sp.base,
                slots: sp.slots,
                loc,
            });
        }
        Ok(PagedTableMeta {
            schema: Cow::Borrowed(&self.schema),
            table_id: p.table_id,
            live: self.live as u64,
            pages,
            tail_base: p.tail_base,
            tail: Cow::Borrowed(&p.tail),
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The table name (delegates to the schema).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the table holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The row id the next insert will receive.
    pub fn next_row_id(&self) -> RowId {
        RowId(self.store.high_water())
    }

    /// Declarations paired with the structures that exist for them (none
    /// while the table is under recovery).
    fn indexed(&self) -> impl Iterator<Item = (&IndexDef, &IndexStore)> {
        self.schema.indexes().iter().zip(&self.indexes)
    }

    /// The key of `values` under every index, in index order.
    fn keys_of(&self, values: &[Value]) -> StoreResult<Vec<IndexKey>> {
        self.indexes
            .iter()
            .map(|ix| ix.spec().row_key(values))
            .collect()
    }

    /// Fail if any of `keys` (the keys of the row `values`) is already
    /// taken in a unique index.
    fn check_unique(&self, keys: &[IndexKey], values: &[Value]) -> StoreResult<()> {
        match self
            .indexed()
            .zip(keys)
            .find(|((_, ix), key)| ix.would_conflict(key))
        {
            Some(((def, _), _)) => Err(self.violation(def, values)),
            None => Ok(()),
        }
    }

    /// Enter the row at `row_id` under its `keys` (pre-checked with
    /// [`check_unique`](Self::check_unique)) into every index.
    fn enter(&mut self, keys: Vec<IndexKey>, row_id: RowId) {
        for (ix, key) in self.indexes.iter_mut().zip(keys) {
            ix.insert(key, row_id);
        }
    }

    /// The error for the row `values` colliding in unique index `def`.
    fn violation(&self, def: &IndexDef, values: &[Value]) -> StoreError {
        let key: Vec<Value> = def.columns.iter().map(|&c| values[c].clone()).collect();
        StoreError::UniqueViolation {
            table: self.schema.name().to_owned(),
            index: def.name.clone(),
            key: format_key(&key),
        }
    }

    /// Insert a row, returning its new row id.
    pub fn insert(&mut self, values: Vec<Value>) -> StoreResult<RowId> {
        self.schema.check_row(&values)?;
        let row_id = RowId(self.store.high_water());
        check_dense(&self.schema, row_id, &values)?;
        // Check unique constraints before mutating anything.
        let keys = self.keys_of(&values)?;
        self.check_unique(&keys, &values)?;
        self.enter(keys, row_id);
        self.store.open_image().push(Some(&values));
        self.live += 1;
        // The row is fully inserted and indexed at this point; a seal
        // (page-out) error leaves the table consistent and is retried on
        // the next insert.
        self.store.settle()?;
        Ok(row_id)
    }

    /// Insert many rows at once, returning their new ids in input order.
    ///
    /// All-or-nothing: every row is schema-checked (a dense key included)
    /// and every unique index is probed — against existing keys *and* for
    /// duplicates within the batch — before anything mutates, so an error
    /// leaves the table untouched.
    /// Rows then land in contiguous slots and each index is extended from
    /// one key-sorted run of the batch (each key projected once, inserted
    /// in ascending order) rather than maintained per row.
    pub fn insert_batch(&mut self, rows: &[Vec<Value>]) -> StoreResult<Vec<RowId>> {
        rows.iter().try_for_each(|values| self.schema.check_row(values))?;
        let first = self.store.high_water();
        let row_ids: Vec<RowId> = (0..rows.len() as u64)
            .map(|i| RowId(first + i))
            .collect();
        for (row, id) in rows.iter().zip(&row_ids) {
            check_dense(&self.schema, *id, row)?;
        }
        let mut runs = Vec::with_capacity(self.indexes.len());
        for (def, ix) in self.indexed() {
            let mut run: Vec<(IndexKey, RowId)> = rows
                .iter()
                .zip(&row_ids)
                .map(|(row, id)| Ok((ix.spec().row_key(row)?, *id)))
                .collect::<StoreResult<_>>()?;
            run.sort_unstable();
            if def.unique {
                // the sorted keys seek the index through one cursor
                let mut cursor = ix.cursor();
                let clash = run
                    .windows(2)
                    .find(|pair| pair[0].0 == pair[1].0)
                    .map(|pair| &pair[0])
                    .or_else(|| {
                        run.iter().find(|(key, _)| !ix.seek(key, &mut cursor, |_| false))
                    });
                if let Some((_, id)) = clash {
                    return Err(self.violation(def, &rows[(id.0 - first) as usize]));
                }
            }
            runs.push(run);
        }
        for (ix, run) in self.indexes.iter_mut().zip(runs) {
            ix.insert_sorted(run);
        }
        for row in rows {
            self.store.open_image().push(Some(row));
        }
        self.live += row_ids.len();
        self.store.settle()?;
        Ok(row_ids)
    }

    /// Place a row at a specific id, used by WAL replay on a
    /// table under recovery (no index is touched). The id must be at or
    /// beyond the current high-water mark; the gap (if any) is filled with
    /// tombstones so later replayed ids stay aligned.
    pub(crate) fn insert_at(&mut self, row_id: RowId, values: Vec<Value>) -> StoreResult<()> {
        self.schema.check_row(&values)?;
        check_dense(&self.schema, row_id, &values)?;
        if row_id.0 < self.store.high_water() {
            return Err(StoreError::Corrupt(format!(
                "replayed insert at {row_id} below high-water mark {}",
                self.store.high_water()
            )));
        }
        self.store.fill_gap_to(row_id.0)?;
        self.store.open_image().push(Some(&values));
        self.live += 1;
        self.store.settle()
    }

    /// Restore a previously-deleted row into its original (tombstoned)
    /// slot, re-entering it into all indexes. Used by transaction rollback
    /// to undo deletes.
    pub(crate) fn restore(&mut self, row_id: RowId, values: Vec<Value>) -> StoreResult<()> {
        self.schema.check_row(&values)?;
        check_dense(&self.schema, row_id, &values)?;
        let keys = self.keys_of(&values)?;
        self.check_unique(&keys, &values)?;
        // Fallible page I/O first: if the slot write fails nothing has
        // changed; the index inserts after it cannot conflict (pre-checked).
        self.store.replace(row_id.0, Some(&values), |image, slot| match image.raw_cell(slot) {
            None => Ok(()),
            Some(_) => Err(StoreError::Corrupt(format!(
                "restore target {row_id} is not a tombstone"
            ))),
        })?;
        self.enter(keys, row_id);
        self.live += 1;
        Ok(())
    }

    /// Fetch a live row by id.
    pub fn get(&self, row_id: RowId) -> StoreResult<Row> {
        RowCursor::new(&self.store)
            .owned(row_id)?
            .ok_or_else(|| StoreError::NoSuchRow {
                table: self.name().to_owned(),
                row_id: row_id.0,
            })
    }

    /// Delete a row by id, returning the removed row.
    pub fn delete(&mut self, row_id: RowId) -> StoreResult<Row> {
        let old = if row_id.0 < self.store.high_water() {
            self.store.replace(row_id.0, None, PageImage::row)?
        } else {
            None
        };
        let row = old.ok_or_else(|| StoreError::NoSuchRow {
            table: self.schema.name().to_owned(),
            row_id: row_id.0,
        })?;
        self.live -= 1;
        for ix in &mut self.indexes {
            let key = ix.spec().row_key(row.values())?;
            ix.remove(&key, row_id);
        }
        Ok(row)
    }

    /// Replace the row at `row_id` with new values (index-maintained),
    /// returning the row they replaced.
    pub fn update(&mut self, row_id: RowId, values: Vec<Value>) -> StoreResult<Row> {
        self.schema.check_row(&values)?;
        check_dense(&self.schema, row_id, &values)?;
        let old = self.get(row_id)?;
        let old_keys = self.keys_of(old.values())?;
        let new_keys = self.keys_of(&values)?;
        // unique pre-check, ignoring this row's own entries
        let clash = self
            .indexed()
            .zip(old_keys.iter().zip(&new_keys))
            .find(|((_, ix), (old_key, new_key))| new_key != old_key && ix.would_conflict(new_key));
        if let Some(((def, _), _)) = clash {
            return Err(self.violation(def, &values));
        }
        // Fallible page I/O first (an error means the slot was not
        // written), then the pre-checked index delta.
        self.store.replace(row_id.0, Some(&values), |_, _| Ok(()))?;
        for (ix, (old_key, new_key)) in self
            .indexes
            .iter_mut()
            .zip(old_keys.into_iter().zip(new_keys))
        {
            if old_key != new_key {
                ix.remove(&old_key, row_id);
                ix.insert(new_key, row_id);
            }
        }
        Ok(old)
    }

    /// Iterate live rows in row-id order, yielding owned rows.
    ///
    /// On a paged table this faults pages in through the buffer pool; an
    /// error ends the iteration early and [`Scan::finish`] reports it.
    pub fn scan(&self) -> Scan<'_> {
        Scan {
            cursor: RowCursor::new(&self.store),
            next_id: 0,
            high: self.store.high_water(),
            error: None,
        }
    }

    /// A cursor for reading rows by row id, each lent borrowed
    /// ([`RowCursor::with`]): consecutive reads that fall on one sealed
    /// page pin it once.
    pub fn cursor(&self) -> RowCursor<'_> {
        RowCursor::new(&self.store)
    }

    /// Visit every live row in row-id order without cloning, propagating
    /// sink errors and page-fault I/O errors. This is the streaming
    /// substrate for reindexing and aggregate scans.
    pub fn for_each_row(
        &self,
        mut f: impl FnMut(RowId, &Row) -> StoreResult<()>,
    ) -> StoreResult<()> {
        self.store.for_each(&mut f)
    }

    /// The structure of a named index.
    fn index(&self, name: &str) -> StoreResult<&IndexStore> {
        self.indexed()
            .find(|(def, _)| def.name == name)
            .map(|(_, ix)| ix)
            .ok_or_else(|| StoreError::NoSuchIndex {
                table: self.name().to_owned(),
                index: name.to_owned(),
            })
    }

    /// Stream the rows behind index entries through one page cursor.
    /// `entries` feeds row ids to the sink it is given and stops when the
    /// sink returns `false`; `visit` reads each id's row off the cursor in
    /// the shape its caller wants and says whether it was live. An index
    /// entry without a live row is corruption, never a panic.
    fn walk(
        &self,
        entries: impl FnOnce(&mut dyn FnMut(RowId) -> bool),
        mut visit: impl FnMut(&mut RowCursor<'_>, RowId) -> StoreResult<Option<()>>,
    ) -> StoreResult<()> {
        let mut cursor = RowCursor::new(&self.store);
        let mut outcome = Ok(());
        entries(&mut |id| {
            outcome = match visit(&mut cursor, id) {
                Ok(Some(())) => Ok(()),
                Ok(None) => Err(dead_index_ref(self.schema.name(), id)),
                Err(e) => Err(e),
            };
            outcome.is_ok()
        });
        outcome
    }

    /// Rows under an exact key of `ix` (none if `key` cannot match).
    fn walk_key(
        &self,
        ix: &IndexStore,
        key: &[Value],
        visit: impl FnMut(&mut RowCursor<'_>, RowId) -> StoreResult<Option<()>>,
    ) -> StoreResult<()> {
        match ix.spec().probe(key) {
            Some(key) => self.walk(
                |sink| {
                    ix.lookup(&key, sink);
                },
                visit,
            ),
            None => Ok(()),
        }
    }

    /// Rows under every key of `ix` that starts with `prefix`, in key order.
    fn walk_prefix(
        &self,
        ix: &IndexStore,
        prefix: &[Value],
        visit: impl FnMut(&mut RowCursor<'_>, RowId) -> StoreResult<Option<()>>,
    ) -> StoreResult<()> {
        match ix.spec().probe(prefix) {
            Some(prefix) => self.walk(
                |sink| {
                    ix.visit_prefix(&prefix, sink);
                },
                visit,
            ),
            None => Ok(()),
        }
    }

    /// Exact-key lookup on a named index.
    pub fn lookup(&self, index: &str, key: &[Value]) -> StoreResult<Vec<Row>> {
        let mut out = Vec::new();
        self.walk_key(self.index(index)?, key, |cursor, id| {
            Ok(cursor.owned(id)?.map(|row| out.push(row)))
        })?;
        Ok(out)
    }

    /// Prefix lookup on a composite index (fixes the first `prefix.len()`
    /// key columns).
    pub fn lookup_prefix(&self, index: &str, prefix: &[Value]) -> StoreResult<Vec<Row>> {
        let mut out = Vec::new();
        self.walk_prefix(self.index(index)?, prefix, |cursor, id| {
            Ok(cursor.owned(id)?.map(|row| out.push(row)))
        })?;
        Ok(out)
    }

    /// Whether `index` names this table's dense key: `"pk"` on a table
    /// whose schema declares one, answered by address.
    fn dense(&self, index: &str) -> bool {
        index == "pk" && self.schema.dense_key()
    }

    /// Unique-index point lookup returning at most one row: one index
    /// probe, one row decoded straight into what is returned. On a dense
    /// key the probe is the key's address.
    pub fn lookup_unique(&self, index: &str, key: &[Value]) -> StoreResult<Option<Row>> {
        if self.dense(index) {
            return match dense_row(key) {
                Some(id) => RowCursor::new(&self.store).owned(id),
                None => Ok(None),
            };
        }
        let ix = self.index(index)?;
        let mut hit = None;
        if let Some(key) = ix.spec().probe(key) {
            ix.lookup(&key, |id| {
                hit = Some(id);
                false
            });
        }
        let Some(id) = hit else {
            return Ok(None);
        };
        let row = RowCursor::new(&self.store).owned(id)?;
        row.map(Some).ok_or_else(|| dead_index_ref(self.schema.name(), id))
    }

    /// Exact-key lookup streamed row by row, without materializing a
    /// `Vec<Row>` of candidates first.
    pub fn for_each_lookup(
        &self,
        index: &str,
        key: &[Value],
        mut f: impl FnMut(&Row),
    ) -> StoreResult<()> {
        self.walk_key(self.index(index)?, key, |cursor, id| cursor.with(id, &mut f))
    }

    /// Prefix lookup streamed row by row, in key order: the borrowed twin
    /// of [`lookup_prefix`](Self::lookup_prefix).
    pub fn for_each_prefix(
        &self,
        index: &str,
        prefix: &[Value],
        mut f: impl FnMut(&Row),
    ) -> StoreResult<()> {
        self.walk_prefix(self.index(index)?, prefix, |cursor, id| cursor.with(id, &mut f))
    }

    /// Batched exact-key resolution: `f(n, row)` for every row whose key in
    /// the named index equals the full key `probes[n]`, in key order — what
    /// one [`lookup`](Self::lookup) per probe finds. The probes are sorted
    /// and each distinct one is sought from where the one before it ended,
    /// through one [`crate::index::Cursor`], so a batch costs
    /// O(probes · log gap), not a pass over the span between the least and
    /// the greatest probe. A row is read only where a key matches: a probe
    /// that matches nothing faults no page.
    pub fn for_each_match<P: AsRef<[Value]>>(
        &self,
        index: &str,
        probes: impl IntoIterator<Item = P>,
        mut f: impl FnMut(usize, &Row),
    ) -> StoreResult<()> {
        let ix = self.index(index)?;
        let mut keys: Vec<(IndexKey, usize)> = probes
            .into_iter()
            .enumerate()
            .filter_map(|(n, probe)| Some((ix.spec().probe(probe.as_ref())?, n)))
            .collect();
        if !keys.is_sorted() {
            keys.sort_unstable();
        }
        // `asked` is the run of probes equal to the key being read
        let asked = std::cell::Cell::new(&keys[..0]);
        self.walk(
            |sink| {
                let mut cursor = ix.cursor();
                for probes in keys.chunk_by(|a, b| a.0 == b.0) {
                    asked.set(probes);
                    if !ix.seek(&probes[0].0, &mut cursor, &mut *sink) {
                        return;
                    }
                }
            },
            |cursor, id| cursor.with(id, |row| asked.get().iter().for_each(|&(_, n)| f(n, row))),
        )
    }

    /// Row ids under every key of a named index that starts with `prefix`
    /// (its leading key columns), in row order. An exact key is the full
    /// prefix: the key encoding is prefix-free, so nothing longer matches.
    pub fn lookup_row_ids(&self, index: &str, prefix: &[Value]) -> StoreResult<Vec<RowId>> {
        let ix = self.index(index)?;
        let mut ids = Vec::new();
        if let Some(prefix) = ix.spec().probe(prefix) {
            ix.visit_prefix(&prefix, |id| {
                ids.push(id);
                true
            });
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Number of rows under a key prefix of a composite index.
    pub fn index_prefix_count(&self, index: &str, prefix: &[Value]) -> StoreResult<usize> {
        let ix = self.index(index)?;
        let mut n = 0;
        if let Some(prefix) = ix.spec().probe(prefix) {
            ix.visit_prefix(&prefix, |_| {
                n += 1;
                true
            });
        }
        Ok(n)
    }

    /// Batched columnar scan over an index prefix: rows are visited in index
    /// key order and decoded straight into per-column buffers that are
    /// handed to `sink` one block at a time. Compared to
    /// [`lookup_prefix`](Self::lookup_prefix) this never materializes the
    /// candidate row-id/row vectors and touches only the requested
    /// columns, which is what bulk loaders (e.g. mapping-index construction
    /// over `OBJECT_REL`) want. The columns are read straight from each
    /// row's cell; no row is built. Returns the total number of rows visited.
    ///
    /// `int_cols` decode with [`Value::as_int`] semantics (non-int values
    /// become 0); `float_cols` decode with [`Value::as_float`] semantics
    /// (NULL and non-float values become `None`).
    pub fn scan_prefix_columnar(
        &self,
        index: &str,
        prefix: &[Value],
        int_cols: &[&str],
        float_cols: &[&str],
        block_rows: usize,
        mut sink: impl FnMut(&ColumnarBlock),
    ) -> StoreResult<usize> {
        let ix = self.index(index)?;
        let int_ords: Vec<usize> = int_cols
            .iter()
            .map(|c| self.schema.column_index(c))
            .collect::<StoreResult<_>>()?;
        let float_ords: Vec<usize> = float_cols
            .iter()
            .map(|c| self.schema.column_index(c))
            .collect::<StoreResult<_>>()?;
        let block_rows = block_rows.max(1);
        let mut block = ColumnarBlock {
            len: 0,
            ints: vec![Vec::with_capacity(block_rows); int_ords.len()],
            floats: vec![Vec::with_capacity(block_rows); float_ords.len()],
        };
        let mut total = 0usize;
        self.walk_prefix(ix, prefix, |cursor, id| {
            // every buffer grows by its default; the row's cells overwrite it
            block.ints.iter_mut().for_each(|buf| buf.push(0));
            block.floats.iter_mut().for_each(|buf| buf.push(None));
            let found = cursor.columns(id, |ord, value| {
                for (buf, _) in block.ints.iter_mut().zip(&int_ords).filter(|(_, &o)| o == ord) {
                    buf[block.len] = value.as_int().unwrap_or(0);
                }
                for (buf, _) in block.floats.iter_mut().zip(&float_ords).filter(|(_, &o)| o == ord) {
                    buf[block.len] = value.as_float();
                }
            })?;
            block.len += 1;
            total += 1;
            if block.len == block_rows {
                sink(&block);
                block.len = 0;
                block.ints.iter_mut().for_each(Vec::clear);
                block.floats.iter_mut().for_each(Vec::clear);
            }
            Ok(found)
        })?;
        if block.len > 0 {
            sink(&block);
        }
        Ok(total)
    }

    /// Adopt `schema`'s index list — the primary key included, as the
    /// index `"pk"` — and its dense key, keeping the table's columns as they
    /// are. The caller (`Database::ensure_table`) has already verified that
    /// name and columns match; this method builds any indexes present only
    /// in the new schema from the live rows, drops indexes no longer
    /// declared, and reuses unchanged ones. A dense key the table did not
    /// have is checked against every live row first: off the stored `"pk"`
    /// on column 0 where there is one, else in the pass over the rows. All
    /// new structures are built before anything is swapped, so a failure
    /// (a unique violation or a dense-key violation surfaced by existing
    /// data) leaves the table intact.
    pub(crate) fn reconcile_indexes(&mut self, schema: Schema) -> StoreResult<()> {
        let kept = |def: &IndexDef| self.schema.indexes().iter().position(|old| old == def);
        let fresh: Vec<&IndexDef> = schema
            .indexes()
            .iter()
            .filter(|def| kept(def).is_none())
            .collect();
        let mut rows_checked = !schema.dense_key() || self.schema.dense_key();
        if !rows_checked && self.schema.primary_key() == [0] {
            self.check_dense_off_pk(&schema)?;
            rows_checked = true;
        }
        // dropping indexes reads no row (and faults no page)
        let built = if fresh.is_empty() && rows_checked {
            Vec::new()
        } else {
            index_rows(&schema, &fresh, &self.store, self.live)?.0
        };
        let mut built = built.into_iter();
        let slots: Vec<Option<usize>> = schema.indexes().iter().map(kept).collect();
        let mut old: Vec<Option<IndexStore>> = std::mem::take(&mut self.indexes)
            .into_iter()
            .map(Some)
            .collect();
        self.indexes = slots
            .into_iter()
            .filter_map(|slot| match slot {
                Some(pos) => old[pos].take(),
                None => built.next(),
            })
            .collect();
        self.schema = schema;
        Ok(())
    }

    /// Check that every live row holds its row id + 1 as the dense key
    /// `schema` declares, reading the entries of the table's stored `"pk"`
    /// on column 0: one per live row, so no row is read.
    fn check_dense_off_pk(&self, schema: &Schema) -> StoreResult<()> {
        let ix = self.index("pk")?;
        let mut outcome = Ok(());
        ix.visit_all(|key, id| {
            outcome = ix.spec().decode(&key).and_then(|key| check_dense(schema, id, &key));
            outcome.is_ok()
        });
        outcome
    }

    /// Entry count of a named index (for stats).
    pub fn index_entries(&self, name: &str) -> StoreResult<usize> {
        Ok(self.index(name)?.entry_count())
    }

    /// Entries and resident bytes of a named index (for stats).
    pub fn index_stats(&self, name: &str) -> StoreResult<IndexStats> {
        Ok(self.index(name)?.stats())
    }

    /// All entries of a named index as `(key column values, row id)`, in
    /// key order then row-id order — the index's full observable content,
    /// for equivalence checks.
    pub fn index_entry_list(&self, name: &str) -> StoreResult<Vec<(Vec<Value>, RowId)>> {
        let ix = self.index(name)?;
        let mut entries = Vec::with_capacity(ix.entry_count());
        ix.visit_all(|key, id| {
            entries.push((key, id));
            true
        });
        entries.into_iter().map(|(key, id)| Ok((ix.spec().decode(&key)?, id))).collect()
    }

    /// `SELECT column, COUNT(*) GROUP BY column`: live-row counts per
    /// distinct value of a column, in value order.
    pub fn group_count(&self, column: &str) -> StoreResult<Vec<(Value, usize)>> {
        let ordinal = self.schema.column_index(column)?;
        let mut counts: std::collections::BTreeMap<Value, usize> =
            std::collections::BTreeMap::new();
        self.for_each_row(|_, row| {
            *counts.entry(row.get(ordinal).clone()).or_default() += 1;
            Ok(())
        })?;
        Ok(counts.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::{decode_page_directory, encode_page_directory, PagedCatalog, PoolConfig};
    use crate::schema::Column;
    use crate::value::ValueType;
    use crate::vfs::FaultVfs;
    use std::path::PathBuf;

    fn object_schema() -> Schema {
        Schema::builder("object")
            .column(Column::new("object_id", ValueType::Int))
            .column(Column::new("source_id", ValueType::Int))
            .column(Column::new("accession", ValueType::Text))
            .column(Column::nullable("text", ValueType::Text))
            .primary_key(&["object_id"])
            .unique_index("by_acc", &["source_id", "accession"])
            .index("by_source", &["source_id"])
            .build()
            .unwrap()
    }

    fn object_table() -> Table {
        Table::new(object_schema())
    }

    /// A paged object table over a fresh in-memory fault VFS. Tiny pages
    /// (`page_bytes`) force frequent seals; a small pool forces eviction.
    fn paged_object_table(pool_pages: usize, page_bytes: usize) -> Table {
        let vfs = FaultVfs::new();
        let pager = Arc::new(Pager::new(
            Arc::new(vfs),
            PathBuf::from("/db/heap.1.bin"),
            PoolConfig {
                page_bytes,
                pool_pages,
            },
        ));
        Table::create(object_schema(), Some(pager), 1)
    }

    fn obj(id: i64, src: i64, acc: &str) -> Vec<Value> {
        vec![
            Value::Int(id),
            Value::Int(src),
            Value::text(acc),
            Value::Null,
        ]
    }

    #[test]
    fn insert_get_scan() {
        let mut t = object_table();
        let r0 = t.insert(obj(1, 10, "A")).unwrap();
        let r1 = t.insert(obj(2, 10, "B")).unwrap();
        assert_eq!(r0, RowId(0));
        assert_eq!(r1, RowId(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(r1).unwrap().get(2), &Value::text("B"));
        let all: Vec<_> = t.scan().map(|(id, _)| id).collect();
        assert_eq!(all, vec![RowId(0), RowId(1)]);
    }

    #[test]
    fn insert_batch_matches_per_row_inserts() {
        let mut a = object_table();
        let mut b = object_table();
        let rows: Vec<Vec<Value>> = vec![
            obj(3, 1, "zz"),
            obj(1, 1, "aa"),
            obj(2, 2, "aa"),
            obj(4, 1, "mm"),
        ];
        let batch_ids = a.insert_batch(&rows).unwrap();
        let row_ids: Vec<RowId> = rows.into_iter().map(|r| b.insert(r).unwrap()).collect();
        assert_eq!(batch_ids, row_ids);
        assert_eq!(a.len(), b.len());
        for id in &batch_ids {
            assert_eq!(a.get(*id).unwrap(), b.get(*id).unwrap());
        }
        // indexes answer identically
        for key in [&[Value::Int(1)][..], &[Value::Int(2)][..]] {
            assert_eq!(
                a.lookup_prefix("by_acc", key).unwrap(),
                b.lookup_prefix("by_acc", key).unwrap()
            );
        }
    }

    #[test]
    fn insert_batch_rejects_conflicts_without_mutating() {
        let mut t = object_table();
        t.insert(obj(1, 1, "aa")).unwrap();
        // conflict against existing rows
        let err = t.insert_batch(&[obj(2, 1, "bb"), obj(3, 1, "aa")]);
        assert!(matches!(err, Err(StoreError::UniqueViolation { .. })));
        assert_eq!(t.len(), 1, "nothing inserted on conflict");
        // duplicate within the batch itself
        let err = t.insert_batch(&[obj(2, 1, "bb"), obj(3, 1, "bb")]);
        assert!(matches!(err, Err(StoreError::UniqueViolation { .. })));
        assert_eq!(t.len(), 1);
        // a clean batch still works afterwards
        let ids = t.insert_batch(&[obj(2, 1, "bb"), obj(3, 1, "cc")]).unwrap();
        assert_eq!(ids, vec![RowId(1), RowId(2)]);
    }

    #[test]
    fn batched_match_reads_rows_only_under_matching_keys() {
        let mut t = object_table();
        for (id, acc) in [(1, "b"), (2, "d"), (3, "a"), (4, "f")] {
            t.insert(obj(id, 1, acc)).unwrap();
        }
        t.insert(obj(5, 2, "c")).unwrap();
        let probe = |src: i64, acc: &str| vec![Value::Int(src), Value::text(acc)];
        // unsorted, with a repeat, a miss inside the range and one beyond it
        let probes = [probe(1, "d"), probe(2, "c"), probe(1, "c"), probe(1, "b"), probe(1, "d"), probe(9, "z")];
        let mut seen = Vec::new();
        t.for_each_match("by_acc", &probes, |n, row| seen.push((n, row.get(0).as_int().unwrap())))
            .unwrap();
        assert_eq!(seen, vec![(3, 1), (0, 2), (4, 2), (1, 5)], "key order, repeats in probe order");
        // a non-unique index hands every row under the key to its probe
        let mut seen = Vec::new();
        t.for_each_match("by_source", [[Value::Int(2)], [Value::Int(1)]], |n, row| {
            seen.push((n, row.get(0).as_int().unwrap()))
        })
        .unwrap();
        assert_eq!(seen, vec![(1, 1), (1, 2), (1, 3), (1, 4), (0, 5)]);
        // probes no key can equal: a prefix, a wrong type, one value too many
        let never = [vec![Value::Int(1)], probe(1, "b")[1..].to_vec(), [probe(1, "b"), probe(1, "b")].concat()];
        t.for_each_match("by_acc", &never, |n, _| panic!("probe {n} matched")).unwrap();
        t.for_each_match("by_acc", Vec::<Vec<Value>>::new(), |_, _| panic!()).unwrap();
        assert!(matches!(
            t.for_each_match("nope", &probes, |_, _| {}),
            Err(StoreError::NoSuchIndex { .. })
        ));
    }

    #[test]
    fn unique_constraints_enforced_atomically() {
        let mut t = object_table();
        t.insert(obj(1, 10, "A")).unwrap();
        // duplicate pk
        let err = t.insert(obj(1, 11, "B")).unwrap_err();
        assert!(matches!(err, StoreError::UniqueViolation { ref index, .. } if index == "pk"));
        // duplicate composite unique key
        let err = t.insert(obj(2, 10, "A")).unwrap_err();
        assert!(matches!(err, StoreError::UniqueViolation { ref index, .. } if index == "by_acc"));
        // failed inserts must not have touched any index
        assert_eq!(t.len(), 1);
        t.insert(obj(2, 10, "B")).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn delete_frees_keys_but_not_ids() {
        let mut t = object_table();
        let r = t.insert(obj(1, 10, "A")).unwrap();
        t.delete(r).unwrap();
        assert_eq!(t.len(), 0);
        assert!(t.get(r).is_err());
        assert!(t.delete(r).is_err());
        // key is reusable, id is not
        let r2 = t.insert(obj(1, 10, "A")).unwrap();
        assert_eq!(r2, RowId(1));
    }

    #[test]
    fn update_maintains_indexes() {
        let mut t = object_table();
        let r = t.insert(obj(1, 10, "A")).unwrap();
        t.insert(obj(2, 10, "B")).unwrap();
        t.update(r, obj(1, 11, "C")).unwrap();
        assert!(t.lookup("by_acc", &[Value::Int(10), Value::text("A")]).unwrap().is_empty());
        assert_eq!(
            t.lookup("by_acc", &[Value::Int(11), Value::text("C")]).unwrap().len(),
            1
        );
        // update into an existing unique key fails and leaves state intact
        let err = t.update(r, obj(1, 10, "B")).unwrap_err();
        assert!(matches!(err, StoreError::UniqueViolation { .. }));
        assert_eq!(t.get(r).unwrap().get(2), &Value::text("C"));
    }

    #[test]
    fn prefix_lookup() {
        let mut t = object_table();
        t.insert(obj(1, 10, "A")).unwrap();
        t.insert(obj(2, 10, "B")).unwrap();
        t.insert(obj(3, 11, "A")).unwrap();
        let hits = t.lookup_prefix("by_acc", &[Value::Int(10)]).unwrap();
        assert_eq!(hits.len(), 2);
    }

    /// `object_schema()` with `object_id` a dense key in place of `pk`.
    fn dense_schema() -> Schema {
        Schema::builder("object")
            .column(Column::new("object_id", ValueType::Int))
            .column(Column::new("source_id", ValueType::Int))
            .column(Column::new("accession", ValueType::Text))
            .column(Column::nullable("text", ValueType::Text))
            .dense_key("object_id")
            .unique_index("by_acc", &["source_id", "accession"])
            .index("by_source", &["source_id"])
            .build()
            .unwrap()
    }

    fn off_its_address<T: std::fmt::Debug>(r: StoreResult<T>) -> bool {
        matches!(r, Err(StoreError::DenseKeyViolation { ref table, .. }) if table == "object")
    }

    /// A dense key is its row's address: every write that would put
    /// another value there is refused, naming the table, before anything
    /// changes; the `pk` reads answer by address, a tombstone as absent;
    /// no index is kept for it.
    #[test]
    fn a_dense_key_is_checked_at_every_write_and_read_by_address() {
        let pager = Arc::new(Pager::new(
            Arc::new(FaultVfs::new()),
            PathBuf::from("/db/heap.1.bin"),
            PoolConfig { page_bytes: 128, pool_pages: 2 },
        ));
        let pk = |t: &Table, id: i64| t.lookup_unique("pk", &[Value::Int(id)]).unwrap();
        for mut t in [Table::new(dense_schema()), Table::create(dense_schema(), Some(pager), 1)] {
            assert!(off_its_address(t.insert(obj(2, 10, "A"))));
            assert_eq!((t.next_row_id(), t.len()), (RowId(0), 0));
            assert_eq!(t.insert(obj(1, 10, "A")).unwrap(), RowId(0));
            // a batch is checked whole before any of it lands
            assert!(off_its_address(t.insert_batch(&[obj(2, 10, "B"), obj(4, 10, "C")])));
            assert_eq!((t.next_row_id(), t.len()), (RowId(1), 1));
            let batch: Vec<_> = (2..40).map(|id| obj(id, 10, &format!("B{id}"))).collect();
            assert_eq!(t.insert_batch(&batch).unwrap().last(), Some(&RowId(38)));
            assert!(off_its_address(t.update(RowId(1), obj(5, 10, "B"))));
            t.update(RowId(1), obj(2, 11, "B2")).unwrap();
            let old = t.delete(RowId(38)).unwrap();
            assert!(off_its_address(t.restore(RowId(38), obj(38, 10, "B39"))));
            assert_eq!(pk(&t, 2).unwrap().get(2), &Value::text("B2"));
            // the deleted row and ids that address no row are absent
            for absent in [39, 40, 0, -1, i64::MIN, i64::MAX] {
                assert_eq!(pk(&t, absent), None, "{absent}");
            }
            t.restore(RowId(38), old.into_values()).unwrap();
            assert_eq!(pk(&t, 39).unwrap().get(2), &Value::text("B39"));
            // no structure is kept: `pk` is no index
            assert!(matches!(t.index_stats("pk"), Err(StoreError::NoSuchIndex { .. })));
            assert_eq!(t.indexes.len(), 2);
        }
        // replay checks the key as it places the row
        let mut t = Table::new(dense_schema()).unindexed();
        assert!(off_its_address(t.insert_at(RowId(3), obj(3, 10, "A"))));
        t.insert_at(RowId(3), obj(4, 10, "A")).unwrap();
        t.build_indexes().unwrap();
        assert_eq!(pk(&t, 4).unwrap().get(0), &Value::Int(4));
        t.delete(RowId(3)).unwrap();
        assert_eq!(pk(&t, 4), None, "only a tombstone is left");
    }

    /// Rows recovered under a dense schema are checked in the pass that
    /// builds the indexes, and a table that gains a dense key is checked
    /// before it drops anything: off its stored `pk` where it has one, off
    /// the rows where not. Either way a row off its address is refused,
    /// naming the table, and the table is left as it was.
    #[test]
    fn rows_that_do_not_tile_are_refused_at_recovery_and_at_reconcile() {
        let keyless = Schema::builder("object")
            .column(Column::new("object_id", ValueType::Int))
            .column(Column::new("source_id", ValueType::Int))
            .column(Column::new("accession", ValueType::Text))
            .column(Column::nullable("text", ValueType::Text))
            .unique_index("by_acc", &["source_id", "accession"])
            .build()
            .unwrap();
        for (schema, tiles) in [(object_schema(), true), (object_schema(), false), (keyless, false)] {
            let mut t = Table::new(schema.clone());
            for id in [1, 2, if tiles { 3 } else { 4 }] {
                t.insert(obj(id, 10, &format!("A{id}"))).unwrap();
            }
            // the same rows recovered under the dense schema
            let mut meta = t.to_paged_meta().unwrap();
            meta.schema = Cow::Owned(dense_schema());
            let meta = decode_page_directory(&encode_page_directory(&PagedCatalog {
                tables: vec![meta],
                ..PagedCatalog::empty()
            }))
            .unwrap()
            .tables
            .remove(0);
            let mut recovered = Table::recovered(meta, None).unwrap();
            let reconciled = t.reconcile_indexes(dense_schema());
            if tiles {
                recovered.build_indexes().unwrap();
                reconciled.unwrap();
                assert_eq!(t.schema(), &dense_schema());
                assert_eq!(t.lookup_unique("pk", &[Value::Int(3)]).unwrap(), recovered.get(RowId(2)).ok());
            } else {
                assert!(off_its_address(recovered.build_indexes()));
                assert!(off_its_address(reconciled));
                assert_eq!(t.schema(), &schema, "a refused reconcile changes nothing");
            }
        }
    }

    #[test]
    fn insert_at_replay_semantics() {
        let mut t = object_table().unindexed();
        t.insert_at(RowId(3), obj(1, 10, "A")).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.next_row_id(), RowId(4));
        // below high-water mark is corrupt
        assert!(t.insert_at(RowId(2), obj(2, 10, "B")).is_err());
        // replayed updates and deletes place rows too, and miss loudly
        t.update(RowId(3), obj(1, 11, "A2")).unwrap();
        assert!(matches!(
            t.update(RowId(1), obj(9, 9, "Z")),
            Err(StoreError::NoSuchRow { .. })
        ));
        assert!(matches!(t.delete(RowId(9)), Err(StoreError::NoSuchRow { .. })));
        // no index exists until recovery ends
        assert!(matches!(
            t.lookup("pk", &[Value::Int(1)]),
            Err(StoreError::NoSuchIndex { .. })
        ));
        t.build_indexes().unwrap();
        assert_eq!(
            t.lookup("by_acc", &[Value::Int(11), Value::text("A2")]).unwrap().len(),
            1
        );
        // normal insert continues above, index-maintained
        assert_eq!(t.insert(obj(2, 10, "B")).unwrap(), RowId(4));
        assert!(t.insert(obj(2, 12, "C")).is_err(), "pk is enforced again");
    }

    #[test]
    fn build_indexes_rejects_rows_that_break_a_unique_index() {
        let mut t = object_table().unindexed();
        t.insert_at(RowId(0), obj(1, 10, "A")).unwrap();
        t.insert_at(RowId(1), obj(2, 10, "A")).unwrap(); // same (source, accession)
        let err = t.build_indexes().unwrap_err();
        assert!(matches!(
            err,
            StoreError::UniqueViolation { ref table, ref index, ref key }
                if table == "object" && index == "by_acc" && key == "(10, A)"
        ));
    }

    #[test]
    fn bulk_built_indexes_equal_maintained_ones() {
        let mut grown = object_table();
        let mut placed = object_table().unindexed();
        for i in (0..200i64).rev() {
            let row = obj(i, i % 7, &format!("ACC{}", i % 50 * 7 + i / 50));
            let id = grown.insert(row.clone()).unwrap();
            placed.insert_at(id, row).unwrap();
        }
        for id in (0..200u64).step_by(9) {
            grown.delete(RowId(id)).unwrap();
            placed.delete(RowId(id)).unwrap();
        }
        placed.build_indexes().unwrap();
        for def in grown.schema().indexes() {
            assert_eq!(
                grown.index_entry_list(&def.name).unwrap(),
                placed.index_entry_list(&def.name).unwrap(),
                "index {}",
                def.name
            );
        }
    }

    #[test]
    fn group_count_skips_deleted_rows() {
        let mut t = object_table();
        for i in 0..10 {
            t.insert(obj(i, i % 3, &format!("A{i}"))).unwrap();
        }
        t.delete(RowId(0)).unwrap(); // deleted rows excluded
        let counts = t.group_count("source_id").unwrap();
        assert_eq!(
            counts,
            vec![
                (Value::Int(0), 3), // 0,3,6,9 minus deleted row 0
                (Value::Int(1), 3),
                (Value::Int(2), 3),
            ]
        );
        assert!(t.group_count("nope").is_err());
    }

    #[test]
    fn columnar_prefix_scan_matches_row_lookup() {
        let mut t = Table::new(
            Schema::builder("obj_rel")
                .column(Column::new("id", ValueType::Int))
                .column(Column::new("rel", ValueType::Int))
                .column(Column::new("o1", ValueType::Int))
                .column(Column::new("o2", ValueType::Int))
                .column(Column::nullable("evidence", ValueType::Float))
                .primary_key(&["id"])
                .unique_index("by_pair", &["rel", "o1", "o2"])
                .build()
                .unwrap(),
        );
        for i in 0..100i64 {
            let ev = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Float(i as f64 / 100.0)
            };
            t.insert(vec![
                Value::Int(i),
                Value::Int(i % 2),
                Value::Int(i / 2),
                Value::Int(1000 + i),
                ev,
            ])
            .unwrap();
        }
        // reference: row-at-a-time decode through lookup_prefix
        let reference: Vec<(i64, i64, Option<f64>)> = t
            .lookup_prefix("by_pair", &[Value::Int(1)])
            .unwrap()
            .into_iter()
            .map(|r| {
                (
                    r.get(2).as_int().unwrap(),
                    r.get(3).as_int().unwrap(),
                    r.get(4).as_float(),
                )
            })
            .collect();
        // columnar scan with a small block size to exercise block reuse
        let mut got = Vec::new();
        let visited = t
            .scan_prefix_columnar(
                "by_pair",
                &[Value::Int(1)],
                &["o1", "o2"],
                &["evidence"],
                7,
                |block| {
                    for i in 0..block.len() {
                        got.push((block.ints[0][i], block.ints[1][i], block.floats[0][i]));
                    }
                },
            )
            .unwrap();
        assert_eq!(visited, 50);
        assert_eq!(got, reference);
        assert_eq!(t.index_prefix_count("by_pair", &[Value::Int(1)]).unwrap(), 50);
        assert_eq!(t.index_prefix_count("by_pair", &[Value::Int(9)]).unwrap(), 0);
        assert!(t
            .scan_prefix_columnar("by_pair", &[], &["nope"], &[], 8, |_| {})
            .is_err());
    }

    #[test]
    fn streaming_lookup_and_counts_match_lookup() {
        let mut t = object_table();
        for i in 0..30 {
            t.insert(obj(i, i % 3, &format!("A{i}"))).unwrap();
        }
        let key = [Value::Int(2)];
        let reference: Vec<Row> = t.lookup("by_source", &key).unwrap();
        let mut streamed = Vec::new();
        t.for_each_lookup("by_source", &key, |r| streamed.push(r.clone()))
            .unwrap();
        assert_eq!(streamed, reference);
        let ids = t.lookup_row_ids("by_source", &key).unwrap();
        assert_eq!(ids.len(), reference.len());
        assert!(t.lookup_row_ids("by_source", &[Value::Int(99)]).unwrap().is_empty());
        // a leading-column prefix of a composite key finds the same rows, in
        // row order although "A11" sorts before "A2" in the key
        assert_eq!(t.lookup_row_ids("by_acc", &key).unwrap(), ids);
        assert_eq!(t.index_prefix_count("by_acc", &key).unwrap(), ids.len());
        // the full key is the full prefix: "A20" does not start with it
        assert_eq!(
            t.lookup_row_ids("by_acc", &[Value::Int(2), Value::text("A2")]).unwrap(),
            vec![RowId(2)]
        );
    }

    #[test]
    fn reconcile_indexes_builds_and_drops() {
        let mut t = object_table();
        for i in 0..20 {
            t.insert(obj(i, i % 4, &format!("A{i}"))).unwrap();
        }
        // new schema: same columns/pk, one extra index, one dropped
        let schema2 = Schema::builder("object")
            .column(Column::new("object_id", ValueType::Int))
            .column(Column::new("source_id", ValueType::Int))
            .column(Column::new("accession", ValueType::Text))
            .column(Column::nullable("text", ValueType::Text))
            .primary_key(&["object_id"])
            .unique_index("by_acc", &["source_id", "accession"])
            .index("by_accession", &["accession"])
            .build()
            .unwrap();
        t.reconcile_indexes(schema2).unwrap();
        // the new index serves lookups over pre-existing rows
        assert_eq!(
            t.lookup("by_accession", &[Value::text("A7")]).unwrap().len(),
            1
        );
        // the dropped index is gone, reused ones still work
        assert!(t.lookup("by_source", &[Value::Int(1)]).is_err());
        assert_eq!(
            t.lookup("by_acc", &[Value::Int(1), Value::text("A5")]).unwrap().len(),
            1
        );
        // index maintenance continues on the reconciled set
        t.insert(obj(100, 9, "Z")).unwrap();
        assert_eq!(t.lookup("by_accession", &[Value::text("Z")]).unwrap().len(), 1);
    }

    #[test]
    fn reconcile_unique_violation_leaves_table_intact() {
        let mut t = object_table();
        t.insert(obj(1, 10, "A")).unwrap();
        t.insert(obj(2, 11, "A")).unwrap(); // same accession, different source
        let bad = Schema::builder("object")
            .column(Column::new("object_id", ValueType::Int))
            .column(Column::new("source_id", ValueType::Int))
            .column(Column::new("accession", ValueType::Text))
            .column(Column::nullable("text", ValueType::Text))
            .primary_key(&["object_id"])
            .unique_index("by_acc", &["source_id", "accession"])
            .unique_index("uniq_accession", &["accession"])
            .build()
            .unwrap();
        let err = t.reconcile_indexes(bad).unwrap_err();
        assert!(matches!(err, StoreError::UniqueViolation { ref index, .. } if index == "uniq_accession"));
        // old index set still live and consistent
        assert_eq!(t.lookup("by_source", &[Value::Int(10)]).unwrap().len(), 1);
    }

    #[test]
    fn lookup_unique_and_missing_index() {
        let mut t = object_table();
        t.insert(obj(1, 10, "A")).unwrap();
        let hit = t
            .lookup_unique("pk", &[Value::Int(1)])
            .unwrap()
            .expect("row exists");
        assert_eq!(hit.get(2), &Value::text("A"));
        assert!(t.lookup_unique("pk", &[Value::Int(9)]).unwrap().is_none());
        assert!(matches!(
            t.lookup("nope", &[Value::Int(1)]),
            Err(StoreError::NoSuchIndex { .. })
        ));
    }

    // ---- paged storage ----

    /// Drive the same operation sequence against a resident table and a
    /// paged one, then demand identical answers from every read path.
    fn assert_tables_equal(a: &Table, b: &Table) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.next_row_id(), b.next_row_id());
        let sa: Vec<_> = a.scan().collect();
        let sb: Vec<_> = b.scan().collect();
        assert_eq!(sa, sb);
        let mut via_stream = Vec::new();
        b.for_each_row(|id, row| {
            via_stream.push((id, row.clone()));
            Ok(())
        })
        .unwrap();
        assert_eq!(sa, via_stream);
        for src in 0..5i64 {
            let key = [Value::Int(src)];
            let owned = a.lookup("by_source", &key).unwrap();
            assert_eq!(owned, b.lookup("by_source", &key).unwrap());
            // the borrowed and the columnar shape read what the owned one does
            let by_acc = b.lookup_prefix("by_acc", &key).unwrap();
            let mut borrowed = Vec::new();
            b.for_each_prefix("by_acc", &key, |row| borrowed.push(row.clone())).unwrap();
            assert_eq!(borrowed, by_acc);
            let mut ids = Vec::new();
            b.scan_prefix_columnar("by_acc", &key, &["object_id", "accession"], &["text"], 7, |block| {
                assert!(block.ints[1].iter().all(|&v| v == 0), "text reads as 0");
                assert!(block.floats[0].iter().all(Option::is_none));
                ids.extend_from_slice(&block.ints[0]);
            })
            .unwrap();
            let want: Vec<i64> = by_acc.iter().filter_map(|r| r.get(0).as_int()).collect();
            assert_eq!(ids, want);
        }
        // the full scan
        assert_eq!(a.scan().collect::<Vec<_>>(), b.scan().collect::<Vec<_>>());
    }

    #[test]
    fn paged_matches_resident_under_mixed_workload() {
        for pool_pages in [1usize, 2, 8] {
            let mut resident = object_table();
            let mut paged = paged_object_table(pool_pages, 128);
            for i in 0..120i64 {
                let row = obj(i, i % 5, &format!("ACC{i}"));
                resident.insert(row.clone()).unwrap();
                paged.insert(row).unwrap();
            }
            for i in (0..120u64).step_by(7) {
                resident.delete(RowId(i)).unwrap();
                paged.delete(RowId(i)).unwrap();
            }
            for i in (1..120u64).step_by(11) {
                if i % 7 == 0 {
                    continue; // already deleted
                }
                let row = obj(i as i64, (i as i64 % 5) + 10, &format!("UPD{i}"));
                resident.update(RowId(i), row.clone()).unwrap();
                paged.update(RowId(i), row).unwrap();
            }
            assert_tables_equal(&resident, &paged);
            assert!(
                !paged.page_ids().is_empty(),
                "tiny pages must have sealed (pool={pool_pages})"
            );
        }
    }

    /// `t` as a checkpoint writes it and a reopen reads it back, behind the
    /// pool it had; the directory's bytes come along.
    fn reopened(t: &Table) -> (Table, Vec<u8>) {
        if let Some(pager) = &t.store.pager {
            pager.flush_and_sync().unwrap();
        }
        let directory = encode_page_directory(&PagedCatalog {
            tables: vec![t.to_paged_meta().unwrap()],
            ..PagedCatalog::empty()
        });
        let meta = decode_page_directory(&directory).unwrap().tables.remove(0);
        let mut back = Table::recovered(meta, t.store.pager.clone()).unwrap();
        back.build_indexes().unwrap();
        (back, directory)
    }

    #[test]
    fn a_pool_less_table_crosses_image_edges_as_a_paged_one_does() {
        let edge = MAX_PAGE_SLOTS as u64;
        let trio = || [object_table(), paged_object_table(4, 64), paged_object_table(4, 32 * 1024)];
        for rows in [edge - 1, edge, edge + 1, 2 * edge + 1] {
            let mut tables = trio();
            for t in &mut tables {
                let bulk: Vec<_> = (0..rows as i64 - 1).map(|i| obj(i, i % 5, &format!("A{i}"))).collect();
                t.insert_batch(&bulk).unwrap();
                t.insert(obj(rows as i64 - 1, (rows as i64 - 1) % 5, "last")).unwrap();
                // the first and the last slot of every image, and of the table
                let edges = (0..rows).filter(|id| [0, edge - 1].contains(&(id % edge)) || id + 1 == rows);
                for id in edges {
                    let i = id as i64;
                    assert_eq!(t.get(RowId(id)).unwrap().get(0), &Value::Int(i));
                    let old = t.update(RowId(id), obj(i, (i + 1) % 5, &format!("U{i}"))).unwrap();
                    assert_eq!(old.get(1), &Value::Int(i % 5));
                    let gone = t.delete(RowId(id)).unwrap();
                    assert_eq!(gone.get(2), &Value::text(format!("U{i}")));
                    assert!(matches!(t.get(RowId(id)), Err(StoreError::NoSuchRow { .. })));
                    if id % 2 == 0 {
                        t.restore(RowId(id), gone.into_values()).unwrap();
                    }
                }
            }
            let [resident, small, large] = &tables;
            assert!(resident.page_ids().is_empty());
            assert_eq!(resident.store.tail.len() as u64, rows.div_ceil(edge));
            assert!(small.page_ids().len() as u64 >= rows / edge, "a batch seals at the slot cap");
            for paged in [small, large] {
                assert_tables_equal(resident, paged);
                assert_tables_equal(resident, &reopened(paged).0);
            }
            let (back, directory) = reopened(resident);
            assert_tables_equal(resident, &back);
            assert_eq!(directory, reopened(&back).1, "a reopened tail checkpoints to the same bytes");
        }
    }

    #[test]
    fn a_replayed_row_id_gap_reads_the_same_pool_less_and_paged() {
        let trio = || [object_table(), paged_object_table(4, 64), paged_object_table(4, 32 * 1024)];
        // a replayed gap of 2^20 row ids, and the rows around it
        let mut tables = trio().map(Table::unindexed);
        for t in &mut tables {
            t.insert_at(RowId(5), obj(0, 1, "before")).unwrap();
            t.insert_at(RowId((1 << 20) + 5), obj(1, 1, "after")).unwrap();
            t.build_indexes().unwrap();
            assert_eq!(t.insert(obj(2, 2, "next")).unwrap(), RowId((1 << 20) + 6));
            assert_eq!(t.len(), 3);
            assert!(matches!(t.get(RowId(1 << 20)), Err(StoreError::NoSuchRow { .. })));
        }
        let [resident, small, large] = &tables;
        assert_eq!(resident.store.tail.len(), (1 << 20) / MAX_PAGE_SLOTS + 1);
        for paged in [small, large] {
            assert_eq!(paged.page_ids().len(), (1 << 20) / MAX_PAGE_SLOTS);
            assert_tables_equal(resident, paged);
            assert_tables_equal(resident, &reopened(paged).0);
        }
        assert_tables_equal(resident, &reopened(resident).0);
        // a row id no memory could hold is refused, not attempted
        assert!(matches!(
            object_table().unindexed().insert_at(RowId(u64::MAX - 1), obj(0, 0, "x")),
            Err(StoreError::Corrupt(_))
        ));
    }

    /// The tail slots the parent build wrote into a page directory: a
    /// marker, and behind a `1` the row as `put_row` encodes it.
    fn tail_as_rows_encode(rows: &[Option<Row>]) -> Vec<u8> {
        let mut out = Vec::new();
        for slot in rows {
            out.push(slot.is_some() as u8);
            if let Some(row) = slot {
                crate::codec::put_row(&mut out, row.values());
            }
        }
        out
    }

    #[test]
    fn a_churned_tail_seals_and_checkpoints_to_the_bytes_of_its_rows() {
        testkit::cases(48, |rng| {
            // one store that never seals, one whose page is too large to
            // fill: both hold every row below in their open tail
            let mut tables = [object_table(), paged_object_table(2, 1 << 20)];
            let mut model: Vec<Option<Row>> = Vec::new();
            for step in 0..rng.gen_range(1..400i64) {
                let id = rng.below(model.len() + 1) as u64;
                let name = "n".repeat(rng.below(40));
                let values = obj(step, step % 5, &format!("{name}{step}"));
                let delete = rng.gen_bool(0.5);
                for t in &mut tables {
                    match model.get(id as usize) {
                        None => drop(t.insert(values.clone()).unwrap()),
                        Some(None) => t.restore(RowId(id), values.clone()).unwrap(),
                        Some(Some(_)) if delete => drop(t.delete(RowId(id)).unwrap()),
                        Some(Some(_)) => drop(t.update(RowId(id), values.clone()).unwrap()),
                    }
                }
                let [resident, _] = &tables;
                let now = resident.get(RowId(id)).ok();
                match model.get_mut(id as usize) {
                    Some(slot) => *slot = now,
                    None => model.push(now),
                }
            }
            let [resident, paged] = &mut tables;
            // the directory: slot count, then the slots
            let directory = reopened(resident).1;
            let mut want = Vec::new();
            crate::codec::put_varint(&mut want, model.len() as u64);
            want.extend_from_slice(&tail_as_rows_encode(&model));
            assert_eq!(directory[directory.len() - want.len()..], want);
            assert_eq!(reopened(paged).1[directory.len() - want.len()..], want);
            // the seal: the image goes to the pool as it stands, and to disk
            // as `from_rows` would have built it
            paged.store.seal_tail().unwrap();
            let (pager, pid) = paged.store.sealed(0).unwrap();
            assert_eq!(
                pager.pin(pid).unwrap().encode(),
                PageImage::from_rows(1, 0, 0, &model).encode()
            );
            assert_tables_equal(resident, paged);
        });
        // one instance, as the parent build wrote it
        let mut t = object_table();
        for (i, acc) in ["b", "d", "a"].iter().enumerate() {
            t.insert(obj(i as i64, 1, acc)).unwrap();
        }
        t.update(RowId(0), obj(0, 2, "bb")).unwrap();
        t.delete(RowId(1)).unwrap();
        let hex: String = reopened(&t).1.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, CHURNED_DIRECTORY);
    }

    /// Captured from the build before the tail held cells (PR 23).
    const CHURNED_DIRECTORY: &str = concat!(
        "5253504401000000c2141e8000010101066f626a65637404096f626a6563745f",
        "6964000009736f757263655f6964000009616363657373696f6e020004746578",
        "7402010100020662795f616363010201020962795f736f757263650001010002",
        "00000301040100010403026262000001040104010203016100",
    );

    #[test]
    fn paged_get_faults_pages_through_tiny_pool() {
        let mut t = paged_object_table(1, 128);
        for i in 0..80i64 {
            t.insert(obj(i, i % 3, &format!("ACC{i}"))).unwrap();
        }
        // point lookups across the whole id space with a one-page pool:
        // every sealed-page hit may evict the previous page
        for i in 0..80u64 {
            assert_eq!(t.get(RowId(i)).unwrap().get(0), &Value::Int(i as i64));
        }
        assert!(t.page_ids().len() >= 2, "expected several sealed pages");
    }

    #[test]
    fn a_cursor_lends_rows_by_id_and_pins_each_page_once() {
        let pager = Arc::new(Pager::new(
            Arc::new(FaultVfs::new()),
            PathBuf::from("/db/heap.1.bin"),
            PoolConfig { page_bytes: 128, pool_pages: 1 },
        ));
        let mut t = Table::create(object_schema(), Some(pager.clone()), 1);
        for i in 0..80i64 {
            t.insert(obj(i, i % 3, &format!("ACC{i}"))).unwrap();
        }
        t.delete(RowId(5)).unwrap();
        let pages = t.page_ids().len() as u64;
        assert!(pages >= 2, "expected several sealed pages");
        let before = pager.stats().misses;
        let mut rows = t.cursor();
        let lent: Vec<Option<Row>> = (0..90).map(|i| rows.with(RowId(i), Row::clone).unwrap()).collect();
        drop(rows);
        assert!(pager.stats().misses - before <= pages, "ascending ids fault each page once");
        for (i, row) in lent.iter().enumerate() {
            assert_eq!(row.as_ref(), t.get(RowId(i as u64)).ok().as_ref(), "row {i}");
        }
        assert!(lent[5].is_none() && lent[80..].iter().all(Option::is_none));
    }

    #[test]
    fn scan_hands_its_error_to_finish_and_a_damaged_cell_fails_at_its_read() {
        use crate::vfs::Vfs;
        let vfs = FaultVfs::new();
        let heap = PathBuf::from("/db/heap.1.bin");
        let config = PoolConfig {
            page_bytes: 128,
            pool_pages: 1,
        };
        let pager = Arc::new(Pager::new(Arc::new(vfs.clone()), heap.clone(), config));
        let mut t = Table::create(object_schema(), Some(pager.clone()), 1);
        for i in 0..60i64 {
            t.insert(obj(i, i % 4, &format!("ACC{i}"))).unwrap();
        }
        pager.flush_and_sync().unwrap();
        let mut scan = t.scan();
        assert_eq!(scan.by_ref().count(), 60);
        scan.finish().unwrap();
        // flip a byte of page 1 where it lies in the heap: its checksum fails
        let loc = pager.directory_loc(t.page_ids()[1]).unwrap();
        let mut bytes = vfs.read(&heap).unwrap().unwrap();
        bytes[loc.offset as usize + 20] ^= 0x40;
        vfs.create(&heap).unwrap().write_all(&bytes).unwrap();
        let first_page = t.store.pages[0].slots as usize;
        let mut scan = t.scan();
        assert_eq!(scan.by_ref().count(), first_page, "page 0 still reads");
        assert!(matches!(scan.finish(), Err(StoreError::Corrupt(_))));
        assert!(matches!(t.for_each_row(|_, _| Ok(())), Err(StoreError::Corrupt(_))));
        // rows of the pages around it are unaffected, whatever the shape
        assert_eq!(t.get(RowId(0)).unwrap().get(0), &Value::Int(0));
        assert_eq!(t.lookup("pk", &[Value::Int(59)]).unwrap().len(), 1);
        assert!(matches!(t.get(RowId(first_page as u64)), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn paged_insert_at_and_restore_semantics() {
        let mut t = paged_object_table(2, 128).unindexed();
        t.insert_at(RowId(3), obj(1, 10, "A")).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.next_row_id(), RowId(4));
        assert!(t.insert_at(RowId(2), obj(2, 10, "B")).is_err());
        t.build_indexes().unwrap();
        assert_eq!(t.insert(obj(2, 10, "B")).unwrap(), RowId(4));
        // delete + restore round-trips through the paged slot
        let row = t.delete(RowId(3)).unwrap();
        assert_eq!(t.len(), 1);
        t.restore(RowId(3), row.values().to_vec()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(RowId(3)).unwrap().get(0), &Value::Int(1));
    }

    #[test]
    fn paged_recovery_rebuilds_indexes_from_pages() {
        let vfs = FaultVfs::new();
        let heap = PathBuf::from("/db/heap.1.bin");
        let config = PoolConfig {
            page_bytes: 128,
            pool_pages: 2,
        };
        let pager = Arc::new(Pager::new(Arc::new(vfs.clone()), heap.clone(), config));
        let mut t = Table::create(object_schema(), Some(pager.clone()), 1);
        for i in 0..60i64 {
            t.insert(obj(i, i % 4, &format!("ACC{i}"))).unwrap();
        }
        t.delete(RowId(5)).unwrap();
        // checkpoint: flush dirty pages so every sealed page has a location
        pager.flush_and_sync().unwrap();
        let meta = t.to_paged_meta().unwrap();
        assert_eq!(meta.live, 59);
        assert!(meta.pages.len() >= 2, "tiny pages must have sealed");
        // what recovery decodes owns its schema and tail
        let owned = |live: u64| PagedTableMeta {
            schema: Cow::Owned(object_schema()),
            tail: Cow::Owned(meta.tail.to_vec()),
            pages: meta.pages.clone(),
            live,
            ..meta
        };
        // rebuild on a fresh pager over the same heap file, as recovery does
        let pager2 = Arc::new(Pager::new(Arc::new(vfs), heap, config));
        let recovered = |meta: PagedTableMeta<'static>| {
            let mut t = Table::recovered(meta, Some(pager2.clone()))?;
            t.build_indexes().map(|()| t)
        };
        // a directory whose live count disagrees with its pages is corrupt
        assert!(matches!(recovered(owned(58)), Err(StoreError::Corrupt(_))));
        let t2 = recovered(owned(59)).unwrap();
        assert_eq!(t2.len(), 59);
        let a: Vec<_> = t.scan().collect();
        let b: Vec<_> = t2.scan().collect();
        assert_eq!(a, b);
        assert_eq!(
            t2.lookup("by_source", &[Value::Int(2)]).unwrap(),
            t.lookup("by_source", &[Value::Int(2)]).unwrap()
        );
        // contiguity violations are rejected
        let mut gapped = owned(59);
        gapped.pages[1].base += 1;
        assert!(matches!(recovered(gapped), Err(StoreError::Corrupt(_))));
        // sealed pages without a pool are refused, naming the open that works
        match Table::recovered(owned(59), None) {
            Err(StoreError::Unsupported(msg)) => assert!(msg.contains("open_paged"), "{msg}"),
            other => panic!("sealed pages opened without a pool: {other:?}"),
        }
    }
}
