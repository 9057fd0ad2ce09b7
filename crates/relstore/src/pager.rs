//! The buffer pool: faulting, evicting, write-back, and the page directory.
//!
//! A [`Pager`] owns one *heap file* of appended page images (see
//! [`crate::page`]) and a bounded pool of frames, each holding one page as
//! it is on disk — a [`PageImage`] behind an `Arc`. Tables request pages
//! with [`Pager::pin`], which hands out a clone of that `Arc`: the holder
//! reads rows out of the image for as long as it likes, and the frame stays
//! evictable — eviction drops the pool's reference, not the holder's. When
//! the pool is full a clock sweep picks an unreferenced victim *before* the
//! newcomer is inserted; dirty victims are written back as a
//! *copy-on-write append* to the heap file (never in place), so the durable
//! bytes of the last checkpoint are immutable and a power cut can only tear
//! the unsynced tail — exactly the fault model [`crate::vfs::FaultVfs`]
//! simulates.
//!
//! Durability is cooperative with the database's checkpoint bracket:
//! evicted-page appends are *not* synced; `Pager::flush_and_sync` makes
//! every dirty page durable, and the caller then writes the *page
//! directory* (`encode_page_directory`) naming, per table, which heap
//! offset holds each page. Recovery trusts only the directory: torn or
//! superseded images beyond it are never referenced.

use crate::codec::{crc32, get_count, get_u32, get_u8, get_varint, put_varint, skip_row};
use crate::error::{StoreError, StoreResult};
use crate::page::{PageId, PageImage, MAX_PAGE_SLOTS};
use crate::row::Row;
use crate::schema::{get_schema, put_schema, Schema};
use crate::stats::PoolStats;
use crate::sync::Mutex;
use crate::vfs::{Vfs, VfsFile};
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Buffer-pool sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Target page size in bytes: a table seals its open tail page once
    /// the encoded rows reach this size. A single row larger than a page
    /// still fits (images are length-framed), so this is a target, not a
    /// hard bound.
    pub page_bytes: usize,
    /// Pool capacity in pages: the pool never holds more frames than this
    /// (images a reader still holds live on outside it until released).
    pub pool_pages: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            page_bytes: 32 * 1024,
            pool_pages: 64,
        }
    }
}

/// Where a page image lives in the heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskLoc {
    pub offset: u64,
    pub len: u32,
}

/// One resident page.
struct Frame {
    /// The page image, shared with whoever holds a pin. Mutation goes
    /// through `Arc::make_mut` (a holder keeps the pre-mutation image,
    /// which is fine: a pin is a read lease taken before the write).
    image: Arc<PageImage>,
    dirty: bool,
    /// Clock reference bit (second-chance).
    referenced: bool,
}

/// Monotonic pool metrics, readable without the pool lock so concurrent
/// snapshot readers can poll `stats()` while a writer holds the pool.
/// Relaxed ordering is enough: each counter is an independent tally, not
/// a synchronization point.
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writeback_pages: AtomicU64,
    writeback_bytes: AtomicU64,
    checkpoint_pages: AtomicU64,
    checkpoint_bytes: AtomicU64,
}

struct PoolInner {
    frames: HashMap<PageId, Frame>,
    /// Resident page ids, swept by the clock hand.
    clock: Vec<PageId>,
    hand: usize,
    /// Page → current heap location (the *live* directory; durable only
    /// once written into a checkpointed page directory).
    directory: HashMap<PageId, DiskLoc>,
    heap_path: PathBuf,
    heap: Option<Box<dyn VfsFile>>,
    /// Physical append offset. Refreshed from the file when the handle is
    /// (re)opened, so short writes from injected faults cannot desync it.
    heap_len: u64,
    heap_len_known: bool,
}

/// A faulting/evicting buffer pool over one heap file.
pub struct Pager {
    vfs: Arc<dyn Vfs>,
    config: PoolConfig,
    pool: Mutex<PoolInner>,
    /// Outside the pool lock: bumped with the lock held, but readable by
    /// any thread at any time (see [`Pager::stats`]).
    counters: Counters,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.pool.lock();
        f.debug_struct("Pager")
            .field("heap_path", &inner.heap_path)
            .field("resident", &inner.frames.len())
            .field("config", &self.config)
            .finish()
    }
}

impl Pager {
    /// A pool over `heap_path` (created lazily on first write-back).
    pub fn new(vfs: Arc<dyn Vfs>, heap_path: PathBuf, config: PoolConfig) -> Self {
        Pager {
            vfs,
            config: PoolConfig {
                page_bytes: config.page_bytes.max(64),
                pool_pages: config.pool_pages.max(1),
            },
            pool: Mutex::new(PoolInner {
                frames: HashMap::new(),
                clock: Vec::new(),
                hand: 0,
                directory: HashMap::new(),
                heap_path,
                heap: None,
                heap_len: 0,
                heap_len_known: false,
            }),
            counters: Counters::default(),
        }
    }

    /// Pool sizing this pager was built with.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Recovery: declare that `pid` lives at `loc` in the heap file.
    pub(crate) fn register(&self, pid: PageId, loc: DiskLoc) {
        let mut inner = self.pool.lock();
        inner.directory.insert(pid, loc);
    }

    /// Recovery: the heap file already holds `len` bytes.
    pub(crate) fn set_heap_len(&self, len: u64) {
        let mut inner = self.pool.lock();
        inner.heap_len = len;
        inner.heap_len_known = true;
    }

    /// Current heap location of a page, if it has ever been written.
    pub(crate) fn directory_loc(&self, pid: PageId) -> Option<DiskLoc> {
        self.pool.lock().directory.get(&pid).copied()
    }

    /// Install a freshly sealed page as a dirty frame (it has no disk
    /// image yet). Room is made first; an eviction error still leaves the
    /// new frame installed and consistent.
    pub(crate) fn install(&self, pid: PageId, image: PageImage) -> StoreResult<()> {
        let mut inner = self.pool.lock();
        if inner.frames.contains_key(&pid) {
            return Err(StoreError::Corrupt(format!("page {pid:?} sealed twice")));
        }
        let room = self.make_room(&mut inner);
        Self::insert(&mut inner, pid, Arc::new(image), true);
        room
    }

    /// The image of a page, faulted in from the heap file if necessary:
    /// lock, look up, set the reference bit, clone the `Arc`.
    pub fn pin(&self, pid: PageId) -> StoreResult<Arc<PageImage>> {
        let mut inner = self.pool.lock();
        if let Some(frame) = inner.frames.get_mut(&pid) {
            frame.referenced = true;
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(frame.image.clone());
        }
        self.fault(&mut inner, pid)
    }

    /// Run `f` over the page's image, marking the page dirty. The closure
    /// runs under the pool lock and must not reenter the pager. Any
    /// eviction I/O happens *before* `f` runs, so an error means the
    /// mutation was not applied.
    pub(crate) fn mutate<T>(
        &self,
        pid: PageId,
        f: impl FnOnce(&mut PageImage) -> T,
    ) -> StoreResult<T> {
        let mut inner = self.pool.lock();
        if inner.frames.contains_key(&pid) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fault(&mut inner, pid)?;
        }
        let frame = inner.frames.get_mut(&pid).ok_or_else(|| {
            StoreError::Corrupt(format!("page {pid:?} vanished during mutate"))
        })?;
        frame.referenced = true;
        frame.dirty = true;
        Ok(f(Arc::make_mut(&mut frame.image)))
    }

    /// A page's bytes as the live directory places them in the heap file.
    fn read_image(&self, inner: &PoolInner, pid: PageId) -> StoreResult<Vec<u8>> {
        let loc = *inner.directory.get(&pid).ok_or_else(|| {
            StoreError::Corrupt(format!("page {pid:?} missing from heap directory"))
        })?;
        let image = self
            .vfs
            .read_at(&inner.heap_path, loc.offset, loc.len as usize)?
            .ok_or_else(|| StoreError::Corrupt("heap file missing".into()))?;
        if image.len() != loc.len as usize {
            let (got, want) = (image.len(), loc.len);
            return Err(StoreError::Corrupt(format!("page {pid:?} truncated: {got} of {want} bytes")));
        }
        Ok(image)
    }

    /// A miss: read and parse the page, make room, then insert it as a
    /// clean frame. A failed read or parse leaves the pool as it was.
    fn fault(&self, inner: &mut PoolInner, pid: PageId) -> StoreResult<Arc<PageImage>> {
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let image = PageImage::parse(self.read_image(inner, pid)?)?;
        if image.table_id != pid.table_id || image.page_no != pid.page_no {
            return Err(StoreError::Corrupt(format!(
                "page identity mismatch: wanted {pid:?}, found table {} page {}",
                image.table_id, image.page_no
            )));
        }
        self.make_room(inner)?;
        let image = Arc::new(image);
        Self::insert(inner, pid, image.clone(), false);
        Ok(image)
    }

    fn insert(inner: &mut PoolInner, pid: PageId, image: Arc<PageImage>, dirty: bool) {
        inner.frames.insert(pid, Frame { image, dirty, referenced: true });
        inner.clock.push(pid);
    }

    /// Evict until one more frame fits under the cap. Called before the
    /// newcomer is inserted, so it is never its own victim.
    fn make_room(&self, inner: &mut PoolInner) -> StoreResult<()> {
        while inner.frames.len() >= self.config.pool_pages {
            self.evict_one(inner)?;
        }
        Ok(())
    }

    /// One clock sweep: clear reference bits until the hand meets an
    /// unreferenced frame, and evict that one (the second lap at the
    /// latest). The pool must not be empty.
    fn evict_one(&self, inner: &mut PoolInner) -> StoreResult<()> {
        loop {
            if inner.hand >= inner.clock.len() {
                inner.hand = 0;
            }
            let pid = *inner.clock.get(inner.hand).ok_or_else(|| {
                StoreError::Corrupt("eviction from an empty buffer pool".into())
            })?;
            let frame = inner.frames.get_mut(&pid).ok_or_else(|| {
                StoreError::Corrupt(format!("clock names non-resident page {pid:?}"))
            })?;
            if frame.referenced {
                frame.referenced = false;
                inner.hand += 1;
                continue;
            }
            if frame.dirty {
                let bytes = self.write_back(inner, pid)?;
                self.counters.writeback_pages.fetch_add(1, Ordering::Relaxed);
                self.counters.writeback_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            inner.frames.remove(&pid);
            inner.clock.swap_remove(inner.hand);
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
    }

    /// Append a frame's current image to the heap file (copy-on-write)
    /// and point the live directory at it. Not synced — durability comes
    /// from the checkpoint bracket.
    fn write_back(&self, inner: &mut PoolInner, pid: PageId) -> StoreResult<u64> {
        let image = match inner.frames.get(&pid) {
            Some(f) => f.image.encode(),
            None => {
                return Err(StoreError::Corrupt(format!(
                    "write-back of non-resident page {pid:?}"
                )))
            }
        };
        self.append_image(inner, pid, &image)?;
        if let Some(f) = inner.frames.get_mut(&pid) {
            f.dirty = false;
        }
        Ok(image.len() as u64)
    }

    /// Append one page image, recording its location. On failure the heap
    /// handle is dropped so the next append re-derives the true file
    /// extent (a short write must not desync recorded offsets).
    fn append_image(&self, inner: &mut PoolInner, pid: PageId, image: &[u8]) -> StoreResult<()> {
        if inner.heap.is_none() {
            let handle = self.vfs.open_append(&inner.heap_path)?;
            if !inner.heap_len_known {
                inner.heap_len = self.vfs.file_len(&inner.heap_path)?.unwrap_or(0);
                inner.heap_len_known = true;
            }
            inner.heap = Some(handle);
        }
        let offset = inner.heap_len;
        let result = match inner.heap.as_mut() {
            Some(h) => h.write_all(image),
            None => Err(StoreError::Corrupt("heap handle missing".into())),
        };
        if let Err(e) = result {
            inner.heap = None;
            inner.heap_len_known = false;
            return Err(e);
        }
        inner.heap_len = offset + image.len() as u64;
        inner.directory.insert(
            pid,
            DiskLoc {
                offset,
                len: image.len() as u32,
            },
        );
        Ok(())
    }

    /// Checkpoint support: write back every dirty frame (sorted for
    /// deterministic I/O order) and fsync the heap file. Returns
    /// `(pages, bytes)` flushed.
    pub(crate) fn flush_and_sync(&self) -> StoreResult<(u64, u64)> {
        let mut inner = self.pool.lock();
        let mut dirty: Vec<PageId> = inner
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(pid, _)| *pid)
            .collect();
        dirty.sort_unstable();
        let mut pages = 0u64;
        let mut bytes = 0u64;
        for pid in dirty {
            bytes += self.write_back(&mut inner, pid)?;
            pages += 1;
        }
        if let Some(h) = inner.heap.as_mut() {
            if let Err(e) = h.sync() {
                inner.heap = None;
                inner.heap_len_known = false;
                return Err(e);
            }
        }
        self.counters.checkpoint_pages.fetch_add(pages, Ordering::Relaxed);
        self.counters.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok((pages, bytes))
    }

    /// Compaction: rewrite exactly `pids` (every live page, in the
    /// caller's order) into a fresh heap file at `new_path`, fsync it,
    /// and atomically swap the pool's directory and heap handle to it.
    /// The old heap file is left for the caller to unlink once the new
    /// page directory is durable.
    pub(crate) fn compact_into(&self, new_path: &Path, pids: &[PageId]) -> StoreResult<()> {
        let mut inner = self.pool.lock();
        let mut file = self.vfs.create(new_path)?;
        let mut new_dir: HashMap<PageId, DiskLoc> = HashMap::with_capacity(pids.len());
        let mut offset = 0u64;
        for &pid in pids {
            let image = match inner.frames.get(&pid) {
                Some(f) => f.image.encode(),
                None => {
                    let image = self.read_image(&inner, pid)?;
                    // validate before re-writing, every cell included:
                    // compaction must not launder a corrupt image into a
                    // fresh heap
                    let page = PageImage::parse(image.clone())?;
                    let mut scratch = Row::new(Vec::new());
                    for slot in 0..page.slot_count() {
                        page.row_into(slot, &mut scratch)?;
                    }
                    image
                }
            };
            file.write_all(&image)?;
            new_dir.insert(
                pid,
                DiskLoc {
                    offset,
                    len: image.len() as u32,
                },
            );
            offset += image.len() as u64;
        }
        file.sync()?;
        inner.directory = new_dir;
        inner.heap_path = new_path.to_owned();
        inner.heap = Some(file);
        inner.heap_len = offset;
        inner.heap_len_known = true;
        for f in inner.frames.values_mut() {
            f.dirty = false;
        }
        Ok(())
    }

    /// Snapshot of the pool metrics. The monotonic counters are read from
    /// atomics without the pool lock, so concurrent readers can poll this
    /// while a writer is mid-eviction; only the residency census briefly
    /// takes the lock.
    pub fn stats(&self) -> PoolStats {
        let (resident, pinned, dirty, heap_bytes) = {
            let inner = self.pool.lock();
            (
                inner.frames.len(),
                inner
                    .frames
                    .values()
                    .filter(|f| Arc::strong_count(&f.image) > 1)
                    .count(),
                inner.frames.values().filter(|f| f.dirty).count(),
                inner.heap_len,
            )
        };
        PoolStats {
            page_bytes: self.config.page_bytes,
            pool_pages: self.config.pool_pages,
            resident,
            pinned,
            dirty,
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            writeback_pages: self.counters.writeback_pages.load(Ordering::Relaxed),
            writeback_bytes: self.counters.writeback_bytes.load(Ordering::Relaxed),
            checkpoint_pages: self.counters.checkpoint_pages.load(Ordering::Relaxed),
            checkpoint_bytes: self.counters.checkpoint_bytes.load(Ordering::Relaxed),
            heap_bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// Page directory: the one durable catalog, for pooled and pool-less stores
// ---------------------------------------------------------------------------

const DIR_MAGIC: &[u8; 4] = b"RSPD";
/// The newest page-directory version: 2 is the first whose schemas may
/// carry a dense key (a column flag that version 1 readers would take for
/// "nullable"). A directory is written at the oldest version that holds
/// it, so one without a dense key is version 1, byte for byte as before.
const DIR_VERSION: u32 = 2;

/// Directory entry for one sealed page of a table (`page_no` is the
/// position in the table's page list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageDirEntry {
    pub base: u64,
    pub slots: u32,
    pub loc: DiskLoc,
}

/// Per-table recovery metadata carried by the page directory. A checkpoint
/// borrows the schema and the tail from the live table (the tail of a
/// pool-less table is the whole table — it must not be copied to be
/// written); recovery owns what it decoded and moves it into the table.
#[derive(Debug, Clone)]
pub struct PagedTableMeta<'a> {
    pub schema: Cow<'a, Schema>,
    pub table_id: u32,
    pub live: u64,
    pub pages: Vec<PageDirEntry>,
    /// Row id of the first open-tail slot.
    pub tail_base: u64,
    /// The open tail's rows, stored inline, as the table holds them: images
    /// of `MAX_PAGE_SLOTS` slots each but the last — at most a page of
    /// rows under a buffer pool, every row of the table without one.
    pub tail: Cow<'a, [PageImage]>,
}

/// Everything recovery needs besides the WAL: which heap generation is
/// live and where every page of every table lives inside it.
#[derive(Debug, Clone)]
pub struct PagedCatalog<'a> {
    pub epoch: u64,
    pub heap_gen: u64,
    pub next_table_id: u32,
    pub tables: Vec<PagedTableMeta<'a>>,
}

impl PagedCatalog<'_> {
    /// The catalog of a directory nothing has been checkpointed into.
    pub fn empty() -> Self {
        PagedCatalog {
            epoch: 0,
            heap_gen: 1,
            next_table_id: 1,
            tables: Vec::new(),
        }
    }
}

/// Encode a page directory: `[magic][version][crc32][body]`.
pub fn encode_page_directory(catalog: &PagedCatalog<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(DIR_MAGIC);
    let dense = catalog.tables.iter().any(|t| t.schema.dense_key());
    let version: u32 = if dense { DIR_VERSION } else { 1 };
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&[0; 4]); // the checksum, once the body is known
    put_varint(&mut out, catalog.epoch);
    put_varint(&mut out, catalog.heap_gen);
    put_varint(&mut out, catalog.next_table_id as u64);
    put_varint(&mut out, catalog.tables.len() as u64);
    for t in &catalog.tables {
        put_schema(&mut out, &t.schema);
        put_varint(&mut out, t.table_id as u64);
        put_varint(&mut out, t.live);
        put_varint(&mut out, t.pages.len() as u64);
        for p in &t.pages {
            put_varint(&mut out, p.base);
            put_varint(&mut out, p.slots as u64);
            put_varint(&mut out, p.loc.offset);
            put_varint(&mut out, p.loc.len as u64);
        }
        put_varint(&mut out, t.tail_base);
        put_varint(&mut out, t.tail.iter().map(PageImage::slot_count).sum::<usize>() as u64);
        for image in t.tail.iter() {
            for slot in 0..image.slot_count() {
                match image.raw_cell(slot) {
                    None => out.push(0),
                    Some(cell) => {
                        out.push(1);
                        out.extend_from_slice(cell);
                    }
                }
            }
        }
    }
    let crc = crc32(&out[12..]);
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Check a page directory's frame — magic, CRC, version — and return the
/// body inside it. A file that fails as [`StoreError::Corrupt`] was torn or
/// has rotted; a body that passes is what its writer wrote, whatever
/// [`decode_catalog`] finds. A whole directory of a version past the
/// newest this build reads is [`StoreError::Unsupported`]: a newer build
/// wrote it, and this one refuses it rather than degrade around it.
pub fn page_directory_body(data: &[u8]) -> StoreResult<&[u8]> {
    if data.len() < 12 {
        return Err(StoreError::Corrupt("page directory too short".into()));
    }
    if &data[0..4] != DIR_MAGIC {
        return Err(StoreError::Corrupt("bad page directory magic".into()));
    }
    let crc = u32::from_le_bytes([data[8], data[9], data[10], data[11]]);
    let body = &data[12..];
    if crc32(body) != crc {
        return Err(StoreError::Corrupt("page directory checksum mismatch".into()));
    }
    match u32::from_le_bytes([data[4], data[5], data[6], data[7]]) {
        0 => Err(StoreError::Corrupt("page directory version 0".into())),
        version if version > DIR_VERSION => Err(StoreError::Unsupported(format!(
            "page directory version {version} was written by a newer build; \
             this one reads versions up to {DIR_VERSION}"
        ))),
        _ => Ok(body),
    }
}

/// Decode and CRC-verify a page directory.
pub fn decode_page_directory(data: &[u8]) -> StoreResult<PagedCatalog<'static>> {
    decode_catalog(page_directory_body(data)?)
}

/// Decode the body of a page directory.
pub fn decode_catalog(body: &[u8]) -> StoreResult<PagedCatalog<'static>> {
    let mut buf = body;
    let epoch = get_varint(&mut buf)?;
    let heap_gen = get_varint(&mut buf)?;
    let next_table_id = get_u32(&mut buf, "next table id")?;
    // a table is at least a name, one column, and six counts
    let ntables = get_count(&mut buf, 11, "table")?;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let schema = get_schema(&mut buf)?;
        let table_id = get_u32(&mut buf, "table id")?;
        let live = get_varint(&mut buf)?;
        let npages = get_count(&mut buf, 4, "page")?;
        let mut pages = Vec::with_capacity(npages);
        for _ in 0..npages {
            let base = get_varint(&mut buf)?;
            let slots = get_u32(&mut buf, "page slot count")?;
            let offset = get_varint(&mut buf)?;
            let len = get_u32(&mut buf, "page length")?;
            pages.push(PageDirEntry {
                base,
                slots,
                loc: DiskLoc { offset, len },
            });
        }
        let tail_base = get_varint(&mut buf)?;
        // a tail may be a whole table: bounded by the bytes that remain (a
        // slot is at least its marker). A cell is copied as written once its
        // tags and lengths are known to stay inside the file; the index
        // build decodes it.
        let ntail = get_count(&mut buf, 1, "tail slot")?;
        let mut tail = Vec::with_capacity(ntail.div_ceil(MAX_PAGE_SLOTS));
        for slot in 0..ntail as u64 {
            // a base that wraps tiles with no run of pages: `recovered` refuses it
            let image = PageImage::open(&mut tail, table_id, npages, tail_base.wrapping_add(slot));
            match get_u8(&mut buf, "page directory truncated")? {
                0 => image.push(None),
                1 => {
                    let at = buf;
                    skip_row(&mut buf)?;
                    image.push_cell(&at[..at.len() - buf.len()]);
                }
                other => return Err(StoreError::Corrupt(format!("bad tail slot marker {other}"))),
            }
        }
        tail.last_mut().map(PageImage::shrink_to_fit);
        tables.push(PagedTableMeta {
            schema: Cow::Owned(schema),
            table_id,
            live,
            pages,
            tail_base,
            tail: Cow::Owned(tail),
        });
    }
    Ok(PagedCatalog {
        epoch,
        heap_gen,
        next_table_id,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{Value, ValueType};
    use crate::vfs::FaultVfs;
    use std::path::PathBuf;

    fn heap() -> PathBuf {
        PathBuf::from("/db/heap.1.bin")
    }

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::text(format!("payload-{i}"))])
    }

    fn pid(no: u32) -> PageId {
        PageId {
            table_id: 1,
            page_no: no,
        }
    }

    fn pager(pool_pages: usize) -> (Arc<Pager>, FaultVfs) {
        let vfs = FaultVfs::new();
        let pager = Arc::new(Pager::new(
            Arc::new(vfs.clone()),
            heap(),
            PoolConfig {
                page_bytes: 256,
                pool_pages,
            },
        ));
        (pager, vfs)
    }

    /// Install `rows` as page `no` with base row id `base`.
    fn install(pager: &Pager, no: u32, base: u64, rows: &[Option<Row>]) {
        let image = PageImage::from_rows(1, no, base, rows);
        pager.install(pid(no), image).unwrap();
    }

    #[test]
    fn install_pin_evict_and_refault() {
        let (pager, _vfs) = pager(2);
        for no in 0..4u32 {
            let rows: Vec<_> = (0..3).map(|i| Some(row((no * 3 + i) as i64))).collect();
            install(&pager, no, no as u64 * 3, &rows);
            assert!(pager.stats().resident <= 2, "room is made before the insert");
        }
        let stats = pager.stats();
        assert_eq!(stats.resident, 2, "pool capped at 2 pages");
        assert!(stats.evictions >= 2);
        assert!(stats.writeback_pages >= 2, "dirty victims written back");
        // evicted pages fault back in with identical contents
        for no in 0..4u32 {
            let page = pager.pin(pid(no)).unwrap();
            assert_eq!(page.slot_count(), 3);
            assert_eq!(page.row(1).unwrap().unwrap(), row((no * 3 + 1) as i64));
            assert!(pager.stats().resident <= 2);
        }
    }

    #[test]
    fn a_held_page_survives_its_frames_eviction() {
        let (pager, _vfs) = pager(1);
        install(&pager, 0, 0, &[Some(row(0))]);
        let held = pager.pin(pid(0)).unwrap();
        assert_eq!(pager.stats().pinned, 1);
        // pool of 1: installing and reading page 1 evicts page 0's frame,
        // held or not — the pool never overcommits
        install(&pager, 1, 1, &[Some(row(1))]);
        assert_eq!(pager.stats().resident, 1);
        assert_eq!(pager.pin(pid(1)).unwrap().row(0).unwrap().unwrap(), row(1));
        assert_eq!(pager.stats().resident, 1);
        assert_eq!(pager.stats().pinned, 0, "page 0 is no longer a frame");
        // the holder's image is its own reference: still whole
        assert_eq!(held.row(0).unwrap().unwrap(), row(0));
        drop(held);
        // and the evicted page faults back from its write-back
        let again = pager.pin(pid(0)).unwrap();
        assert_eq!(again.row(0).unwrap().unwrap(), row(0));
        assert_eq!(pager.stats().resident, 1);
        assert_eq!(pager.stats().pinned, 1);
        drop(again);
        assert_eq!(pager.stats().pinned, 0);
    }

    #[test]
    fn mutate_marks_dirty_and_checkpoint_flush_clears() {
        let (pager, vfs) = pager(4);
        install(&pager, 0, 0, &[Some(row(0)), Some(row(1))]);
        let (p1, _) = pager.flush_and_sync().unwrap();
        assert_eq!(p1, 1);
        assert_eq!(pager.stats().dirty, 0);
        // mutation re-dirties; flush appends a new image (copy-on-write)
        let before = pager.stats().heap_bytes;
        pager.mutate(pid(0), |page| page.set(1, None)).unwrap().unwrap();
        assert_eq!(pager.stats().dirty, 1);
        let (p2, b2) = pager.flush_and_sync().unwrap();
        assert_eq!(p2, 1);
        assert!(b2 > 0);
        let after = pager.stats().heap_bytes;
        assert!(after > before, "copy-on-write appends, never overwrites");
        // a clean pool flushes nothing
        assert_eq!(pager.flush_and_sync().unwrap(), (0, 0));
        // the durable bytes on the fault vfs really grew append-only
        assert_eq!(vfs.peek(&heap()).unwrap().len() as u64, after);
    }

    #[test]
    fn a_failed_eviction_leaves_the_mutation_unapplied() {
        let (pager, vfs) = pager(1);
        install(&pager, 0, 0, &[Some(row(0))]);
        install(&pager, 1, 1, &[Some(row(1))]); // page 0 written back and evicted
        // page 1 is dirty; mutating page 0 must evict it first — and cannot
        vfs.set_plan(crate::vfs::FaultPlan {
            fail_at: Some(vfs.op_count() + 1),
            ..Default::default()
        });
        assert!(pager.mutate(pid(0), |page| page.set(0, None)).is_err());
        assert_eq!(pager.stats().resident, 1);
        // page 0 was not touched, and page 1 is still whole in its frame
        assert_eq!(pager.pin(pid(1)).unwrap().row(0).unwrap().unwrap(), row(1));
        assert_eq!(pager.pin(pid(0)).unwrap().row(0).unwrap().unwrap(), row(0));
    }

    #[test]
    fn torn_heap_tail_is_detected_by_page_crc() {
        let (pager, vfs) = pager(4);
        let rows: Vec<Option<Row>> = (0..4).map(|i| Some(row(i))).collect();
        install(&pager, 0, 0, &rows);
        pager.flush_and_sync().unwrap();
        let loc = pager.directory_loc(pid(0)).unwrap();
        // a torn image (cut short) must fail CRC, not decode garbage
        let full = vfs.read_at(&heap(), loc.offset, loc.len as usize).unwrap().unwrap();
        for cut in [1usize, 8, full.len() - 1] {
            assert!(PageImage::parse(full[..cut].to_vec()).is_err());
        }
    }

    #[test]
    fn compaction_rewrites_live_pages_into_new_generation() {
        let (pager, vfs) = pager(2);
        for no in 0..4u32 {
            let rows: Vec<_> = (0..4).map(|i| Some(row((no * 4 + i) as i64))).collect();
            install(&pager, no, no as u64 * 4, &rows);
        }
        pager.flush_and_sync().unwrap();
        // churn: every page rewritten once → heap holds superseded images
        for no in 0..4u32 {
            pager.mutate(pid(no), |page| page.set(0, None)).unwrap().unwrap();
        }
        pager.flush_and_sync().unwrap();
        let old_bytes = pager.stats().heap_bytes;
        let new_path = PathBuf::from("/db/heap.2.bin");
        let pids: Vec<PageId> = (0..4).map(pid).collect();
        pager.compact_into(&new_path, &pids).unwrap();
        let new_bytes = pager.stats().heap_bytes;
        assert!(new_bytes < old_bytes, "compaction reclaims superseded images");
        assert!(vfs.exists(&new_path));
        // contents survive, served from the new heap
        for no in 0..4u32 {
            let page = pager.pin(pid(no)).unwrap();
            assert!(page.row(0).unwrap().is_none());
            assert_eq!(page.row(1).unwrap().unwrap(), row((no * 4 + 1) as i64));
        }
    }

    /// A directory is version 2 only where a schema declares a dense key;
    /// the flag round-trips, and a plain catalog stays version 1.
    #[test]
    fn a_directory_is_written_at_the_version_its_schemas_need() {
        let build = |dense: bool| {
            let b = Schema::builder("t").column(Column::new("id", ValueType::Int));
            let b = if dense { b.dense_key("id") } else { b.primary_key(&["id"]) };
            b.build().unwrap()
        };
        for (dense, version) in [(false, 1u8), (true, 2)] {
            let catalog = PagedCatalog {
                epoch: 1,
                heap_gen: 1,
                next_table_id: 2,
                tables: vec![PagedTableMeta {
                    schema: Cow::Owned(build(dense)),
                    table_id: 1,
                    live: 0,
                    pages: Vec::new(),
                    tail_base: 0,
                    tail: Vec::new().into(),
                }],
            };
            let data = encode_page_directory(&catalog);
            assert_eq!(data[4..8], [version, 0, 0, 0]);
            let back = decode_page_directory(&data).unwrap();
            assert_eq!(back.tables[0].schema.dense_key(), dense);
            assert_eq!(*back.tables[0].schema, build(dense));
        }
    }

    #[test]
    fn page_directory_roundtrip_and_corruption() {
        let schema = Schema::builder("t")
            .column(Column::new("id", ValueType::Int))
            .column(Column::new("name", ValueType::Text))
            .primary_key(&["id"])
            .build()
            .unwrap();
        let other = Schema::builder("u")
            .column(Column::new("id", ValueType::Int))
            .column(Column::new("name", ValueType::Text))
            .index("by_name", &["name"])
            .build()
            .unwrap();
        // the whole table as one tail, borrowed as a checkpoint borrows it;
        // the trailing tombstones carry the high-water mark
        let whole = [PageImage::from_rows(2, 0, 0, &[Some(row(0)), None, Some(row(2)), None, None])];
        fn rows_of(tail: &[PageImage]) -> Vec<Option<Row>> {
            let slots = |image| (0..PageImage::slot_count(image)).map(move |slot| image.row(slot).unwrap());
            tail.iter().flat_map(slots).collect()
        }
        let catalog = PagedCatalog {
            epoch: 9,
            heap_gen: 3,
            next_table_id: 3,
            tables: vec![
                PagedTableMeta {
                    schema: Cow::Owned(schema),
                    table_id: 1,
                    live: 5,
                    pages: vec![
                        PageDirEntry {
                            base: 0,
                            slots: 4,
                            loc: DiskLoc { offset: 0, len: 100 },
                        },
                        PageDirEntry {
                            base: 4,
                            slots: 2,
                            loc: DiskLoc { offset: 100, len: 60 },
                        },
                    ],
                    tail_base: 6,
                    tail: vec![PageImage::from_rows(1, 2, 6, &[Some(row(6)), None, Some(row(8))])].into(),
                },
                PagedTableMeta {
                    schema: Cow::Borrowed(&other),
                    table_id: 2,
                    live: 2,
                    pages: Vec::new(),
                    tail_base: 0,
                    tail: Cow::Borrowed(&whole),
                },
            ],
        };
        let data = encode_page_directory(&catalog);
        let back = decode_page_directory(&data).unwrap();
        assert_eq!(back.epoch, 9);
        assert_eq!(back.heap_gen, 3);
        assert_eq!(back.next_table_id, 3);
        assert_eq!(back.tables.len(), 2);
        for (t, want) in back.tables.iter().zip(&catalog.tables) {
            assert_eq!(t.schema, want.schema);
            assert_eq!(t.table_id, want.table_id);
            assert_eq!(t.live, want.live);
            assert_eq!(t.pages, want.pages);
            assert_eq!(t.tail_base, want.tail_base);
            assert_eq!(rows_of(&t.tail), rows_of(&want.tail));
            // a decoded image knows the page it would be sealed as
            let identity = |image: &PageImage| (image.table_id, image.page_no, image.base);
            assert_eq!(
                t.tail.iter().map(identity).collect::<Vec<_>>(),
                want.tail.iter().map(identity).collect::<Vec<_>>()
            );
        }
        assert_eq!(back.tables[1].tail[0].slot_count(), 5, "trailing tombstones survive");

        let mut bad = data.clone();
        bad[0] = b'X';
        assert!(decode_page_directory(&bad).is_err());
        // version 0 is rot; a version past this build's is a newer build's
        let mut bad = data.clone();
        bad[4] = 0;
        assert!(matches!(decode_page_directory(&bad), Err(StoreError::Corrupt(_))));
        bad[4] = DIR_VERSION as u8 + 1;
        assert!(matches!(decode_page_directory(&bad), Err(StoreError::Unsupported(_))));
        let mut bad = data.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x01;
        assert!(decode_page_directory(&bad).is_err());
        assert!(decode_page_directory(&data[..6]).is_err());
    }
}
