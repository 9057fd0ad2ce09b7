//! Pluggable I/O backends: the real filesystem and a fault-injecting
//! simulator.
//!
//! Every durability-relevant operation the storage engine performs — file
//! writes, fsyncs, renames, truncations, directory syncs — goes through the
//! [`Vfs`] trait. Production code uses [`RealVfs`] (a thin `std::fs`
//! shim); crash tests use [`FaultVfs`], an in-memory filesystem that
//! models what a power cut can actually do:
//!
//! * file content written but not fsynced may survive only as an arbitrary
//!   prefix (a *torn tail*, chosen deterministically from a seed),
//! * directory entries created or renamed but not followed by a directory
//!   sync revert to their last synced state,
//! * a crash freezes the durable image; every handle opened before the
//!   crash returns errors until [`FaultVfs::reboot`] is called.
//!
//! The buffer pool holds a [`VfsReader`] on its heap file: [`RealVfs`]'s
//! keeps the file open for `pread`, [`FaultVfs`]'s holds the inode like its
//! other handles, and any other backend's reads by path.
//!
//! Faults are scheduled with a [`FaultPlan`] counting operations: fail the
//! Nth op with an injected error (short write included), or power-cut at
//! the Nth op. Because the op counter is deterministic for a deterministic
//! workload, a harness can run once fault-free to learn the op count and
//! then sweep a crash through every single point.

use crate::error::{StoreError, StoreResult};
use crate::sync::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// An open file handle.
pub trait VfsFile: Send + Sync {
    /// Append/write the full buffer (buffered by the OS; durable only after
    /// [`sync`](Self::sync)).
    fn write_all(&mut self, data: &[u8]) -> StoreResult<()>;
    /// Flush file content to stable storage (fsync / fdatasync).
    fn sync(&mut self) -> StoreResult<()>;
}

/// A handle that reads one file at positions, held open across reads.
pub trait VfsReader: Send + Sync {
    /// Read `len` bytes at `offset`; past the end of the file the read
    /// comes back short or fails.
    fn read_at(&self, offset: u64, len: usize) -> StoreResult<Vec<u8>>;
}

/// A filesystem backend.
pub trait Vfs: Send + Sync + 'static {
    /// Open a file for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>>;
    /// Create (or truncate) a file for writing.
    fn create(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>>;
    /// Read a whole file; `None` if it does not exist.
    fn read(&self, path: &Path) -> StoreResult<Option<Vec<u8>>>;
    /// Read up to `len` bytes starting at `offset`; `None` if the file does
    /// not exist. Fewer bytes than requested means the range ran past the
    /// end of the file — callers validate lengths (pages are CRC-framed).
    /// Like [`read`](Self::read), reads are not fault-charged.
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>>;
    /// A reader held on `path`: the buffer pool's one way into its heap
    /// file. By default it reads by path through [`read_at`](Self::read_at);
    /// a backend that can hold the file open overrides it. Not charged.
    fn open_reader(self: Arc<Self>, path: &Path) -> StoreResult<Box<dyn VfsReader>> {
        Ok(Box::new(PathReader(self, path.to_owned())))
    }
    /// Remove a file. The entry's disappearance is durable only after
    /// [`sync_dir`](Self::sync_dir). Removing a missing file is an error.
    fn remove(&self, path: &Path) -> StoreResult<()>;
    /// Current length of a file in bytes; `None` if it does not exist.
    /// Not fault-charged (a metadata read).
    fn file_len(&self, path: &Path) -> StoreResult<Option<u64>>;
    /// Atomically rename `from` to `to` (replacing `to`). The new directory
    /// entry is durable only after [`sync_dir`](Self::sync_dir).
    fn rename(&self, from: &Path, to: &Path) -> StoreResult<()>;
    /// Truncate a file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> StoreResult<()>;
    /// Whether a file currently exists.
    fn exists(&self, path: &Path) -> bool;
    /// Fsync a directory, making entry creations/renames/removals durable.
    fn sync_dir(&self, dir: &Path) -> StoreResult<()>;
    /// Create a directory (and parents). Idempotent.
    fn create_dir_all(&self, dir: &Path) -> StoreResult<()>;
}

/// [`Vfs::open_reader`]'s default: every read goes by path.
struct PathReader<V: ?Sized>(Arc<V>, PathBuf);

impl<V: Vfs + ?Sized> VfsReader for PathReader<V> {
    fn read_at(&self, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
        self.0.read_at(&self.1, offset, len)?.ok_or_else(|| not_found("read target", &self.1))
    }
}

// ---------------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------------

/// The production backend: delegates to `std::fs`.
#[derive(Debug, Clone, Default)]
pub struct RealVfs;

struct RealFile(fs::File);

impl VfsFile for RealFile {
    fn write_all(&mut self, data: &[u8]) -> StoreResult<()> {
        self.0.write_all(data)?;
        Ok(())
    }

    fn sync(&mut self) -> StoreResult<()> {
        self.0.sync_data()?;
        Ok(())
    }
}

/// A file held open: a read is one `pread`.
#[cfg(unix)]
struct RealReader(fs::File);

#[cfg(unix)]
impl VfsReader for RealReader {
    fn read_at(&self, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
        let mut buf = vec![0; len];
        std::os::unix::fs::FileExt::read_exact_at(&self.0, &mut buf, offset)?;
        Ok(buf)
    }
}

#[expect(
    clippy::disallowed_methods,
    reason = "the one shim over std::fs: everything durable reaches the disk through here"
)]
impl Vfs for RealVfs {
    fn open_append(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>> {
        let file = fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Box::new(RealFile(file)))
    }

    fn create(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(fs::File::create(path)?)))
    }

    fn read(&self, path: &Path) -> StoreResult<Option<Vec<u8>>> {
        match fs::read(path) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    #[cfg(unix)]
    fn open_reader(self: Arc<Self>, path: &Path) -> StoreResult<Box<dyn VfsReader>> {
        Ok(Box::new(RealReader(fs::File::open(path)?)))
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = match fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = Vec::with_capacity(len);
        file.take(len as u64).read_to_end(&mut buf)?;
        Ok(Some(buf))
    }

    fn remove(&self, path: &Path) -> StoreResult<()> {
        fs::remove_file(path)?;
        Ok(())
    }

    fn file_len(&self, path: &Path) -> StoreResult<Option<u64>> {
        match fs::metadata(path) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> StoreResult<()> {
        fs::rename(from, to)?;
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> StoreResult<()> {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_data()?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn sync_dir(&self, dir: &Path) -> StoreResult<()> {
        // Opening a directory read-only and fsyncing it is the POSIX idiom
        // for making entry renames durable.
        dir_sync_outcome(fs::File::open(dir)?.sync_all())
    }

    fn create_dir_all(&self, dir: &Path) -> StoreResult<()> {
        fs::create_dir_all(dir)?;
        Ok(())
    }
}

/// A directory fsync's result as [`RealVfs::sync_dir`] reports it. Some
/// filesystems do not support fsync on a directory handle and say so with
/// `EINVAL` (`ErrorKind::InvalidInput`); that alone stays best-effort, as
/// in production databases. Any other error — `EIO` above all — means the
/// renames may not be durable and propagates.
fn dir_sync_outcome(result: std::io::Result<()>) -> StoreResult<()> {
    match result {
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => Ok(()),
        other => Ok(other?),
    }
}

// ---------------------------------------------------------------------------
// Fault-injecting filesystem
// ---------------------------------------------------------------------------

/// A deterministic fault schedule, counted in vfs operations (writes,
/// syncs, renames, truncations, directory syncs — reads are free).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Simulate a power cut at the Nth operation (1-based): the operation
    /// does not take effect, the durable image freezes, and every
    /// subsequent operation fails until [`FaultVfs::reboot`].
    pub crash_at: Option<u64>,
    /// Fail the Nth operation (1-based) with an injected I/O error. A
    /// failing write applies a seeded *prefix* of its buffer first (a
    /// short write), so callers see data partially on disk.
    pub fail_at: Option<u64>,
    /// Seed for torn-tail lengths and short-write prefixes.
    pub torn_seed: u64,
}

/// One simulated inode: the current (page-cache) content and the content
/// as of the last file sync.
#[derive(Debug, Clone, Default)]
struct Inode {
    current: Vec<u8>,
    synced: Vec<u8>,
}

#[derive(Default)]
struct FaultState {
    inodes: Vec<Inode>,
    /// Directory as seen by running code.
    live: HashMap<PathBuf, usize>,
    /// Directory as of the last `sync_dir` — what survives a power cut.
    durable: HashMap<PathBuf, usize>,
    plan: FaultPlan,
    ops: u64,
    crashed: bool,
    /// Bumped on every reboot; stale handles refuse to operate.
    generation: u64,
}

/// An in-memory filesystem with injectable faults and power-cut
/// simulation. Cloning shares the underlying state, so a test can keep a
/// handle while the store owns another.
#[derive(Clone, Default)]
pub struct FaultVfs {
    state: std::sync::Arc<Mutex<FaultState>>,
}

/// One xorshift round over a nonzero word: spreads `torn_seed ^ op` so the
/// surviving prefix of a torn write is a pure function of the plan and the
/// fault point. Not a generator — nothing carries state between calls.
fn scramble(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

fn injected_err(what: &str, op: u64) -> StoreError {
    StoreError::Io(std::io::Error::other(format!("injected fault: {what} (op {op})")))
}

fn not_found(what: &str, path: &Path) -> StoreError {
    let msg = format!("{what} missing: {}", path.display());
    StoreError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, msg))
}

fn power_cut_err() -> StoreError {
    StoreError::Io(std::io::Error::other("simulated power failure"))
}

impl FaultState {
    /// Account one fault-eligible operation. Returns `Ok(op_number)` if the
    /// operation should proceed normally.
    fn charge(&mut self, what: &str) -> StoreResult<u64> {
        if self.crashed {
            return Err(power_cut_err());
        }
        self.ops += 1;
        if self.plan.crash_at == Some(self.ops) {
            self.crashed = true;
            return Err(power_cut_err());
        }
        if self.plan.fail_at == Some(self.ops) {
            return Err(injected_err(what, self.ops));
        }
        Ok(self.ops)
    }

    /// What an inode's content collapses to on power cut: the synced image
    /// plus, if the unsynced content merely appends to it, a seeded prefix
    /// of the appended tail (the part of the page cache the kernel happened
    /// to flush).
    fn crash_content(&self, idx: usize) -> Vec<u8> {
        let inode = &self.inodes[idx];
        let synced_len = inode.synced.len();
        if inode.current.len() >= synced_len && inode.current[..synced_len] == inode.synced[..] {
            let extra = inode.current.len() - synced_len;
            let keep = if extra == 0 {
                0
            } else {
                let seed =
                    (self.plan.torn_seed ^ self.ops ^ (idx as u64).wrapping_mul(0x9e37_79b9)) | 1;
                (scramble(seed) as usize) % (extra + 1)
            };
            inode.current[..synced_len + keep].to_vec()
        } else {
            // Non-append rewrite (e.g. an unsynced truncate): all-or-nothing
            // at the granularity we model — revert to the synced image.
            inode.synced.clone()
        }
    }
}

impl FaultVfs {
    /// A fresh, empty, fault-free filesystem.
    pub fn new() -> Self {
        FaultVfs::default()
    }

    /// Install a fault plan. Op counting continues from the current count.
    pub fn set_plan(&self, plan: FaultPlan) {
        self.state.lock().plan = plan;
    }

    /// Operations performed so far (the sweep domain for crash points).
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops
    }

    /// Whether a simulated power cut has occurred.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Simulate an immediate power cut (outside any planned fault).
    pub fn crash_now(&self) {
        self.state.lock().crashed = true;
    }

    /// "Power back on": collapse every file to its durable image (synced
    /// directory entries, synced content plus a seeded torn tail of
    /// unsynced appends), invalidate all pre-crash handles, and clear the
    /// fault plan so recovery runs fault-free.
    pub fn reboot(&self) {
        let mut s = self.state.lock();
        let contents: Vec<(usize, Vec<u8>)> = s
            .durable
            .values()
            .map(|&idx| (idx, s.crash_content(idx)))
            .collect();
        for (idx, content) in contents {
            s.inodes[idx].current = content.clone();
            s.inodes[idx].synced = content;
        }
        s.live = s.durable.clone();
        s.crashed = false;
        s.plan = FaultPlan::default();
        s.generation += 1;
    }

    /// Current content of a live file (test helper).
    pub fn peek(&self, path: &Path) -> Option<Vec<u8>> {
        let s = self.state.lock();
        s.live.get(path).map(|&idx| s.inodes[idx].current.clone())
    }
}

struct FaultFile {
    vfs: FaultVfs,
    inode: usize,
    generation: u64,
}

impl FaultVfs {
    /// The simulator's state, locked, unless the power is cut.
    fn powered(&self) -> StoreResult<MutexGuard<'_, FaultState>> {
        let s = self.state.lock();
        if s.crashed {
            return Err(power_cut_err());
        }
        Ok(s)
    }

    fn handle(&self, inode: usize, generation: u64) -> FaultFile {
        FaultFile { vfs: self.clone(), inode, generation }
    }
}

impl FaultFile {
    fn with_state<T>(
        &self,
        f: impl FnOnce(&mut FaultState, usize) -> StoreResult<T>,
    ) -> StoreResult<T> {
        let mut s = self.vfs.state.lock();
        if s.generation != self.generation {
            return Err(StoreError::Io(std::io::Error::other(
                "stale file handle (opened before reboot)",
            )));
        }
        let inode = self.inode;
        f(&mut s, inode)
    }
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, data: &[u8]) -> StoreResult<()> {
        self.with_state(|s, inode| {
            match s.charge("write") {
                Ok(_) => {
                    s.inodes[inode].current.extend_from_slice(data);
                    Ok(())
                }
                Err(e) => {
                    if !s.crashed && !data.is_empty() {
                        // Injected failure mid-write: a seeded prefix made it
                        // into the page cache (short write).
                        let keep = (scramble((s.plan.torn_seed ^ s.ops) | 1) as usize)
                            % (data.len() + 1);
                        let prefix = data[..keep].to_vec();
                        s.inodes[inode].current.extend_from_slice(&prefix);
                    }
                    Err(e)
                }
            }
        })
    }

    fn sync(&mut self) -> StoreResult<()> {
        self.with_state(|s, inode| {
            s.charge("fsync")?;
            let current = s.inodes[inode].current.clone();
            s.inodes[inode].synced = current;
            Ok(())
        })
    }
}

/// A handle reads too, uncharged; not after a crash or a reboot.
impl VfsReader for FaultFile {
    fn read_at(&self, offset: u64, len: usize) -> StoreResult<Vec<u8>> {
        self.with_state(|s, inode| match s.crashed {
            true => Err(power_cut_err()),
            false => Ok(slice_at(&s.inodes[inode].current, offset, len)),
        })
    }
}

/// Up to `len` bytes of `data` from `offset`, cut at its end.
fn slice_at(data: &[u8], offset: u64, len: usize) -> Vec<u8> {
    let start = (offset as usize).min(data.len());
    let end = start.saturating_add(len).min(data.len());
    data[start..end].to_vec()
}

impl Vfs for FaultVfs {
    fn open_append(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>> {
        let mut s = self.powered()?;
        let inode = match s.live.get(path) {
            Some(&idx) => idx,
            None => {
                // Creating a directory entry is fault-eligible.
                s.charge("create")?;
                s.inodes.push(Inode::default());
                let idx = s.inodes.len() - 1;
                s.live.insert(path.to_owned(), idx);
                idx
            }
        };
        Ok(Box::new(self.handle(inode, s.generation)))
    }

    fn create(&self, path: &Path) -> StoreResult<Box<dyn VfsFile>> {
        let mut s = self.powered()?;
        s.charge("create")?;
        // Truncating create always gets a fresh inode: if the old entry was
        // durable it survives a crash untouched until the next sync_dir.
        s.inodes.push(Inode::default());
        let idx = s.inodes.len() - 1;
        s.live.insert(path.to_owned(), idx);
        Ok(Box::new(self.handle(idx, s.generation)))
    }

    fn read(&self, path: &Path) -> StoreResult<Option<Vec<u8>>> {
        let s = self.powered()?;
        Ok(s.live.get(path).map(|&idx| s.inodes[idx].current.clone()))
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> StoreResult<Option<Vec<u8>>> {
        let s = self.powered()?;
        Ok(s.live.get(path).map(|&idx| slice_at(&s.inodes[idx].current, offset, len)))
    }

    fn open_reader(self: Arc<Self>, path: &Path) -> StoreResult<Box<dyn VfsReader>> {
        let s = self.powered()?;
        let inode = *s.live.get(path).ok_or_else(|| not_found("read target", path))?;
        Ok(Box::new(self.handle(inode, s.generation)))
    }

    fn file_len(&self, path: &Path) -> StoreResult<Option<u64>> {
        let s = self.powered()?;
        Ok(s.live.get(path).map(|&idx| s.inodes[idx].current.len() as u64))
    }

    fn remove(&self, path: &Path) -> StoreResult<()> {
        let mut s = self.state.lock();
        s.charge("remove")?;
        if s.live.remove(path).is_none() {
            return Err(not_found("remove target", path));
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> StoreResult<()> {
        let mut s = self.state.lock();
        s.charge("rename")?;
        let Some(idx) = s.live.remove(from) else {
            return Err(not_found("rename source", from));
        };
        s.live.insert(to.to_owned(), idx);
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> StoreResult<()> {
        let mut s = self.state.lock();
        s.charge("truncate")?;
        let Some(&idx) = s.live.get(path) else {
            return Err(not_found("truncate target", path));
        };
        s.inodes[idx].current.truncate(len as usize);
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.state.lock().live.contains_key(path)
    }

    fn sync_dir(&self, dir: &Path) -> StoreResult<()> {
        let mut s = self.state.lock();
        s.charge("sync_dir")?;
        // Make the live entries of `dir` durable and drop durable entries
        // that no longer exist live (renamed or replaced).
        let in_dir =
            |p: &Path| p.parent().map(|parent| parent == dir).unwrap_or(false);
        let updates: Vec<(PathBuf, usize)> = s
            .live
            .iter()
            .filter(|(p, _)| in_dir(p))
            .map(|(p, &i)| (p.clone(), i))
            .collect();
        let removals: Vec<PathBuf> = s
            .durable
            .keys()
            .filter(|p| in_dir(p) && !s.live.contains_key(*p))
            .cloned()
            .collect();
        for (p, i) in updates {
            s.durable.insert(p, i);
        }
        for p in removals {
            s.durable.remove(&p);
        }
        Ok(())
    }

    fn create_dir_all(&self, _dir: &Path) -> StoreResult<()> {
        self.powered().map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn p(name: &str) -> PathBuf {
        PathBuf::from("/db").join(name)
    }

    #[test]
    fn real_vfs_roundtrip() {
        let dir = testkit::TempDir::new("relstore-vfs-roundtrip");
        let vfs = RealVfs;
        let path = dir.join("real.bin");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"hello ").unwrap();
        f.write_all(b"world").unwrap();
        f.sync().unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap().unwrap(), b"hello world");
        vfs.truncate(&path, 5).unwrap();
        assert_eq!(vfs.read(&path).unwrap().unwrap(), b"hello");
        let renamed = dir.join("real2.bin");
        vfs.rename(&path, &renamed).unwrap();
        assert!(!vfs.exists(&path));
        assert!(vfs.exists(&renamed));
        vfs.sync_dir(&dir).unwrap();
        assert!(vfs.read(&dir.join("never")).unwrap().is_none());
    }

    #[test]
    fn directory_fsync_is_best_effort_only_where_unsupported() {
        use std::io::{Error, ErrorKind};
        assert!(dir_sync_outcome(Ok(())).is_ok());
        assert!(dir_sync_outcome(Err(Error::from(ErrorKind::InvalidInput))).is_ok());
        assert!(dir_sync_outcome(Err(Error::other("EIO"))).is_err());
        #[cfg(target_os = "linux")]
        {
            // EINVAL: no directory fsync on this filesystem; EIO: a failed one
            assert!(dir_sync_outcome(Err(Error::from_raw_os_error(22))).is_ok());
            assert!(dir_sync_outcome(Err(Error::from_raw_os_error(5))).is_err());
        }
    }

    #[test]
    fn fault_vfs_basic_io() {
        let vfs = FaultVfs::new();
        let mut f = vfs.open_append(&p("a")).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync().unwrap();
        assert_eq!(vfs.read(&p("a")).unwrap().unwrap(), b"abc");
        // append handle on an existing file continues at the end
        let mut g = vfs.open_append(&p("a")).unwrap();
        g.write_all(b"def").unwrap();
        assert_eq!(vfs.read(&p("a")).unwrap().unwrap(), b"abcdef");
        assert!(vfs.exists(&p("a")));
        assert!(!vfs.exists(&p("b")));
    }

    #[test]
    fn unsynced_appends_survive_only_as_torn_prefix() {
        for seed in 0..16 {
            let vfs = FaultVfs::new();
            let mut f = vfs.open_append(&p("wal")).unwrap();
            f.write_all(b"durable!").unwrap();
            f.sync().unwrap();
            vfs.sync_dir(Path::new("/db")).unwrap();
            f.write_all(b"0123456789").unwrap(); // never synced
            vfs.set_plan(FaultPlan {
                torn_seed: seed,
                ..FaultPlan::default()
            });
            vfs.crash_now();
            vfs.reboot();
            let data = vfs.read(&p("wal")).unwrap().unwrap();
            assert!(data.len() >= 8 && data.len() <= 18, "len {}", data.len());
            assert_eq!(&data[..8], b"durable!");
            assert_eq!(&data[8..], &b"0123456789"[..data.len() - 8]);
        }
    }

    #[test]
    fn entry_not_durable_without_dir_sync() {
        let vfs = FaultVfs::new();
        let mut f = vfs.open_append(&p("a")).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync().unwrap(); // file content synced, entry never synced
        vfs.crash_now();
        vfs.reboot();
        assert!(!vfs.exists(&p("a")), "entry must vanish without sync_dir");
    }

    #[test]
    fn rename_without_dir_sync_reverts_on_crash() {
        let vfs = FaultVfs::new();
        let dir = Path::new("/db");
        let mut f = vfs.create(&p("old")).unwrap();
        f.write_all(b"v1").unwrap();
        f.sync().unwrap();
        vfs.sync_dir(dir).unwrap();
        // overwrite via tmp + rename, but never sync the dir
        let mut t = vfs.create(&p("tmp")).unwrap();
        t.write_all(b"v2").unwrap();
        t.sync().unwrap();
        vfs.rename(&p("tmp"), &p("old")).unwrap();
        assert_eq!(vfs.read(&p("old")).unwrap().unwrap(), b"v2");
        vfs.crash_now();
        vfs.reboot();
        assert_eq!(vfs.read(&p("old")).unwrap().unwrap(), b"v1");
        // with the dir sync the rename sticks
        let mut t = vfs.create(&p("tmp")).unwrap();
        t.write_all(b"v3").unwrap();
        t.sync().unwrap();
        vfs.rename(&p("tmp"), &p("old")).unwrap();
        vfs.sync_dir(dir).unwrap();
        vfs.crash_now();
        vfs.reboot();
        assert_eq!(vfs.read(&p("old")).unwrap().unwrap(), b"v3");
    }

    #[test]
    fn unsynced_truncate_reverts_on_crash() {
        let vfs = FaultVfs::new();
        let mut f = vfs.open_append(&p("wal")).unwrap();
        f.write_all(b"0123456789").unwrap();
        f.sync().unwrap();
        vfs.sync_dir(Path::new("/db")).unwrap();
        vfs.truncate(&p("wal"), 4).unwrap(); // never synced
        vfs.crash_now();
        vfs.reboot();
        assert_eq!(vfs.read(&p("wal")).unwrap().unwrap(), b"0123456789");
    }

    #[test]
    fn crash_at_op_freezes_and_stale_handles_fail() {
        let vfs = FaultVfs::new();
        let mut f = vfs.open_append(&p("a")).unwrap();
        f.write_all(b"one").unwrap();
        f.sync().unwrap();
        vfs.sync_dir(Path::new("/db")).unwrap();
        let at = vfs.op_count() + 1;
        vfs.set_plan(FaultPlan {
            crash_at: Some(at),
            ..FaultPlan::default()
        });
        assert!(f.write_all(b"two").is_err(), "crash op must fail");
        assert!(vfs.crashed());
        assert!(f.sync().is_err(), "post-crash ops must fail");
        assert!(vfs.read(&p("a")).is_err());
        vfs.reboot();
        assert_eq!(vfs.read(&p("a")).unwrap().unwrap(), b"one");
        // the pre-crash handle is stale after reboot
        assert!(f.write_all(b"x").is_err());
        // a fresh handle works
        let mut g = vfs.open_append(&p("a")).unwrap();
        g.write_all(b"!").unwrap();
        assert_eq!(vfs.read(&p("a")).unwrap().unwrap(), b"one!");
    }

    #[test]
    fn fail_at_injects_error_including_short_write() {
        let vfs = FaultVfs::new();
        let mut f = vfs.open_append(&p("a")).unwrap();
        f.write_all(b"ok").unwrap();
        let at = vfs.op_count() + 1;
        vfs.set_plan(FaultPlan {
            fail_at: Some(at),
            torn_seed: 7,
            ..FaultPlan::default()
        });
        let err = f.write_all(b"0123456789").unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        // a prefix of the failed write may be present, never the whole tail
        // plus more; subsequent ops succeed (not a crash)
        let data = vfs.read(&p("a")).unwrap().unwrap();
        assert!(data.starts_with(b"ok"));
        assert!(data.len() <= 12);
        f.write_all(b"z").unwrap();
    }

    #[test]
    fn read_at_slices_and_clamps() {
        let vfs = FaultVfs::new();
        let mut f = vfs.open_append(&p("heap")).unwrap();
        f.write_all(b"0123456789").unwrap();
        assert_eq!(vfs.read_at(&p("heap"), 2, 4).unwrap().unwrap(), b"2345");
        // past-EOF ranges clamp rather than error
        assert_eq!(vfs.read_at(&p("heap"), 8, 10).unwrap().unwrap(), b"89");
        assert_eq!(vfs.read_at(&p("heap"), 99, 4).unwrap().unwrap(), b"");
        assert!(vfs.read_at(&p("nope"), 0, 1).unwrap().is_none());
        // reads are free: only the create + write were charged
        assert_eq!(vfs.op_count(), 2);

        let dir = testkit::TempDir::new("relstore-vfs-read-at");
        let real = RealVfs;
        let path = dir.join("read_at.bin");
        let mut f = real.create(&path).unwrap();
        f.write_all(b"0123456789").unwrap();
        drop(f);
        assert_eq!(real.read_at(&path, 2, 4).unwrap().unwrap(), b"2345");
        assert_eq!(real.read_at(&path, 8, 10).unwrap().unwrap(), b"89");
        assert!(real.read_at(&dir.join("never"), 0, 1).unwrap().is_none());
    }

    #[test]
    fn remove_is_durable_only_after_dir_sync() {
        let vfs = FaultVfs::new();
        let dir = Path::new("/db");
        let mut f = vfs.create(&p("old")).unwrap();
        f.write_all(b"v1").unwrap();
        f.sync().unwrap();
        vfs.sync_dir(dir).unwrap();
        // unsynced removal reverts on crash
        vfs.remove(&p("old")).unwrap();
        assert!(!vfs.exists(&p("old")));
        vfs.crash_now();
        vfs.reboot();
        assert_eq!(vfs.read(&p("old")).unwrap().unwrap(), b"v1");
        // synced removal sticks
        vfs.remove(&p("old")).unwrap();
        vfs.sync_dir(dir).unwrap();
        vfs.crash_now();
        vfs.reboot();
        assert!(!vfs.exists(&p("old")));
        assert!(vfs.remove(&p("old")).is_err());
    }

    #[test]
    fn op_count_is_deterministic() {
        let run = || {
            let vfs = FaultVfs::new();
            let mut f = vfs.open_append(&p("a")).unwrap();
            for i in 0..10 {
                f.write_all(format!("rec{i}").as_bytes()).unwrap();
                if i % 3 == 0 {
                    f.sync().unwrap();
                }
            }
            vfs.sync_dir(Path::new("/db")).unwrap();
            vfs.op_count()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trait_object_usable_through_arc() {
        let fault = FaultVfs::new();
        let vfs: Arc<dyn Vfs> = Arc::new(fault.clone());
        let mut f = vfs.open_append(&p("a")).unwrap();
        f.write_all(b"via dyn").unwrap();
        f.sync().unwrap();
        assert_eq!(fault.peek(&p("a")).unwrap(), b"via dyn");
    }
}
