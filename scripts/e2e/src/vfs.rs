//! A counting `Vfs`: forwards to the real filesystem and counts what
//! relstore asks of it.

use relstore::vfs::{RealVfs, Vfs, VfsFile};
use relstore::StoreResult;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Statistics only: the counters publish no other data.
#[derive(Debug, Default)]
pub struct VfsCounts {
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
    pub write_bytes: AtomicU64,
    pub syncs: AtomicU64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsSnapshot {
    pub reads: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub syncs: u64,
}

impl VfsCounts {
    pub fn snapshot(&self) -> VfsSnapshot {
        VfsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

impl VfsSnapshot {
    pub fn since(self, earlier: VfsSnapshot) -> VfsSnapshot {
        VfsSnapshot {
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            syncs: self.syncs - earlier.syncs,
        }
    }
}

#[derive(Default)]
pub struct CountingVfs {
    inner: RealVfs,
    pub counts: Arc<VfsCounts>,
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counts: Arc<VfsCounts>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, data: &[u8]) -> StoreResult<()> {
        self.counts
            .write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.write_all(data)
    }

    fn sync(&mut self) -> StoreResult<()> {
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

impl CountingVfs {
    fn wrap(&self, file: StoreResult<Box<dyn VfsFile>>) -> StoreResult<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: file?,
            counts: self.counts.clone(),
        }))
    }

    fn count_read(&self, data: &StoreResult<Option<Vec<u8>>>) {
        if let Ok(Some(bytes)) = data {
            self.counts.reads.fetch_add(1, Ordering::Relaxed);
            self.counts
                .read_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
    }
}

impl Vfs for CountingVfs {
    fn open_append(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>> {
        self.wrap(self.inner.open_append(path))
    }

    fn create(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>> {
        self.wrap(self.inner.create(path))
    }

    fn read(&self, path: &Path) -> StoreResult<Option<Vec<u8>>> {
        let data = self.inner.read(path);
        self.count_read(&data);
        data
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        let data = self.inner.read_at(path, offset, len);
        self.count_read(&data);
        data
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
        self.counts.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync_dir(dir)
    }

    fn create_dir_all(&self, dir: &Path) -> StoreResult<()> {
        self.inner.create_dir_all(dir)
    }
}
