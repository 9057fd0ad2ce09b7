//! Write-ahead log.
//!
//! Every committed transaction appends its operations followed by a commit
//! marker. Each record is framed as `[len u32][crc32 u32][payload]`; a
//! checksum or length mismatch marks the end of the valid prefix (a torn
//! tail from a crash), and recovery ignores everything after it. Operations
//! whose commit marker is missing (the transaction was mid-commit at crash
//! time) are likewise discarded, giving atomic, durable transactions. A
//! whole frame that does not decode is no torn tail: the open is refused,
//! as cutting it off would cut off every acknowledged commit behind it.
//!
//! Inserted rows are logged as **runs**: one record per insert batch (a
//! single insert is a run of one) holding the table, the first row id, the
//! row count and the rows' cells back to back — the very bytes the table's
//! open tail stores, each row encoded once. A cell's own encoding says where
//! it ends, so a run carries no per-row length, checksum, table name or row
//! id. Replay walks each cell once ([`crate::table`]) and refuses a run
//! whose count disagrees with its cells, whose cell runs past the payload or
//! is no row, or behind whose last cell bytes trail — `Corrupt`, naming the
//! table and the row. A per-row insert frame (tag 1) of a log written
//! before runs existed is read as a run of one, so such a log replays in
//! place; this build writes no such frame.
//!
//! Recovery reads the log once and scans it once ([`scan_wal`]) into
//! [`LoggedOp`]s borrowed from that buffer, a run still the cells it was
//! logged as; the writer opens behind the scan's committed prefix
//! ([`WalWriter::open`]) and never reads the log itself.
//!
//! After a checkpoint the log is reset and stamped with an *epoch* record
//! matching the checkpoint it now extends. Recovery replays a log only onto
//! the checkpoint of the same epoch; a mismatch means a crash interrupted the
//! directory-rename/log-reset sequence, and the stale log is discarded (its
//! contents are already folded into the newer checkpoint). Logs from before
//! epochs were introduced carry no epoch record and replay as epoch 0.
//!
//! All I/O goes through a [`Vfs`] backend so crash tests can substitute the
//! fault-injecting simulator in [`crate::vfs`].

use crate::codec::{crc32, get_str, get_u8, get_varint, put_row, put_str, put_varint, skip_row};
use crate::error::{StoreError, StoreResult};
use crate::row::RowId;
use crate::value::Value;
use crate::vfs::{Vfs, VfsFile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One inserted row, as builds before runs logged it; read as a run of one.
const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_UPDATE: u8 = 3;
const OP_COMMIT: u8 = 4;
const OP_EPOCH: u8 = 5;
const OP_CREATE: u8 = 6;
// 7 is taken by no build: tests use it as the tag of a newer one.
const OP_INSERT_RUN: u8 = 8;

/// Flush the in-process buffer to the backend once it grows past this, so
/// large group-commit batches reach the page cache incrementally (as the
/// old `BufWriter` did) instead of accumulating unboundedly.
const FLUSH_THRESHOLD: usize = 64 * 1024;

/// A log record as a transaction writes it; the scan reads it back as a
/// [`LoggedOp`].
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// `count` rows inserted at consecutive row ids from `first`, their
    /// cells — each as [`put_row`] encodes it — back to back in `cells`.
    InsertRun {
        table: String,
        first: RowId,
        count: u64,
        cells: Vec<u8>,
    },
    Delete {
        table: String,
        row_id: RowId,
    },
    Update {
        table: String,
        row_id: RowId,
        values: Vec<Value>,
    },
    /// Commit marker for transaction `txid`; makes all preceding records of
    /// that transaction durable.
    Commit { txid: u64 },
    /// Written as the first record after a reset: this log extends the
    /// checkpoint of the given epoch and must not be replayed onto any other.
    Epoch { epoch: u64 },
    /// A table created since the last checkpoint. Logged outside any
    /// transaction and immediately durable — without it, committed row
    /// operations on a never-checkpointed table would be unreplayable.
    CreateTable { schema: crate::schema::Schema },
}

impl LogRecord {
    /// The run of `rows` inserted into `table` from row id `first`, each row
    /// encoded into the run's cells.
    pub fn insert_run(table: &str, first: RowId, rows: &[Vec<Value>]) -> LogRecord {
        let mut cells = Vec::new();
        rows.iter().for_each(|row| put_row(&mut cells, row));
        LogRecord::InsertRun {
            table: table.to_owned(),
            first,
            count: rows.len() as u64,
            cells,
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            LogRecord::InsertRun {
                table,
                first,
                count,
                cells,
            } => {
                buf.push(OP_INSERT_RUN);
                put_str(buf, table);
                put_varint(buf, first.0);
                put_varint(buf, *count);
                buf.extend_from_slice(cells);
            }
            LogRecord::Delete { table, row_id } => {
                buf.push(OP_DELETE);
                put_str(buf, table);
                put_varint(buf, row_id.0);
            }
            LogRecord::Update {
                table,
                row_id,
                values,
            } => {
                buf.push(OP_UPDATE);
                put_str(buf, table);
                put_varint(buf, row_id.0);
                put_row(buf, values);
            }
            LogRecord::Commit { txid } => {
                buf.push(OP_COMMIT);
                put_varint(buf, *txid);
            }
            LogRecord::Epoch { epoch } => {
                buf.push(OP_EPOCH);
                put_varint(buf, *epoch);
            }
            LogRecord::CreateTable { schema } => {
                buf.push(OP_CREATE);
                crate::schema::put_schema(buf, schema);
            }
        }
    }
}

/// A record as the scan finds it, borrowed from the log's one read buffer:
/// a logged run stays the cells [`put_row`] wrote, for replay to check and
/// store as they are. Its `count` is as read: replay checks it against the
/// cells.
#[derive(Debug, PartialEq)]
pub enum LoggedOp<'a> {
    InsertRun { table: &'a str, first: RowId, count: u64, cells: &'a [u8] },
    Delete { table: &'a str, row_id: RowId },
    Update { table: &'a str, row_id: RowId, cell: &'a [u8] },
    Commit,
    Epoch { epoch: u64 },
    CreateTable { schema: crate::schema::Schema },
}

impl<'a> LoggedOp<'a> {
    /// Decode a whole frame payload. A tag this build does not know is
    /// `Unsupported` (a newer build wrote it); a known one whose body does
    /// not decode to exactly the payload is `Corrupt`.
    fn decode(mut buf: &'a [u8]) -> StoreResult<LoggedOp<'a>> {
        let buf = &mut buf;
        let op = match get_u8(buf, "empty log record")? {
            OP_INSERT_RUN => LoggedOp::InsertRun {
                table: get_str(buf)?,
                first: RowId(get_varint(buf)?),
                count: get_varint(buf)?,
                cells: std::mem::take(buf),
            },
            OP_INSERT => LoggedOp::InsertRun {
                table: get_str(buf)?,
                first: RowId(get_varint(buf)?),
                count: 1,
                cells: std::mem::take(buf),
            },
            OP_DELETE => LoggedOp::Delete {
                table: get_str(buf)?,
                row_id: RowId(get_varint(buf)?),
            },
            OP_UPDATE => LoggedOp::Update {
                table: get_str(buf)?,
                row_id: RowId(get_varint(buf)?),
                cell: std::mem::take(buf),
            },
            OP_COMMIT => get_varint(buf).map(|_txid| LoggedOp::Commit)?,
            OP_EPOCH => LoggedOp::Epoch { epoch: get_varint(buf)? },
            OP_CREATE => LoggedOp::CreateTable { schema: crate::schema::get_schema(buf)? },
            tag => return Err(StoreError::Unsupported(format!("WAL record tag {tag}: a newer build wrote the log"))),
        };
        match buf.len() {
            0 => Ok(op),
            n => Err(StoreError::Corrupt(format!("a WAL record leaves {n} bytes unread"))),
        }
    }
}

/// Most cell bytes one run carries. A frame's length is a `u32`, so the
/// cells of a batch past this are logged as several runs.
pub(crate) const MAX_RUN_BYTES: usize = 1 << 30;

/// Push onto `redo` the log of `count` rows inserted into `table` from row
/// id `first`, whose cells are `cells`: one run, or where the cells pass
/// `max_bytes`, consecutive runs split at cell boundaries, each at most
/// `max_bytes` unless one cell alone is larger.
pub(crate) fn push_runs(
    redo: &mut Vec<LogRecord>,
    table: &str,
    first: RowId,
    count: u64,
    cells: Vec<u8>,
    max_bytes: usize,
) -> StoreResult<()> {
    if cells.len() <= max_bytes {
        redo.push(LogRecord::InsertRun { table: table.to_owned(), first, count, cells });
        return Ok(());
    }
    let (mut rest, mut row) = (&cells[..], first.0);
    while !rest.is_empty() {
        let (start, mut taken) = (rest, 0);
        while !rest.is_empty() {
            let mut next = rest;
            skip_row(&mut next)?;
            if taken > 0 && start.len() - next.len() > max_bytes {
                break;
            }
            (rest, taken) = (next, taken + 1);
        }
        let cells = start[..start.len() - rest.len()].to_vec();
        redo.push(LogRecord::InsertRun { table: table.to_owned(), first: RowId(row), count: taken, cells });
        row += taken;
    }
    Ok(())
}

/// Frame each record in place at the end of `frames`: its payload is
/// encoded behind a header that is filled in once the payload's length and
/// checksum are known.
fn encode_frames(records: &[LogRecord], frames: &mut Vec<u8>) {
    for record in records {
        let head = frames.len();
        frames.extend_from_slice(&[0; 8]);
        record.encode(frames);
        let payload = &frames[head + 8..];
        let (len, crc) = (payload.len() as u32, crc32(payload));
        frames[head..head + 4].copy_from_slice(&len.to_le_bytes());
        frames[head + 4..head + 8].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Appender over a WAL file.
pub struct WalWriter {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    /// Frames appended but not yet handed to the backend.
    buf: Vec<u8>,
    /// Bytes of whole frames the file holds: where a failed write is cut
    /// back to.
    len: u64,
    /// Set when an fsync failed, or a cut did: what the file holds is then
    /// unknown (a kernel may drop the pages a failed fsync could not
    /// write), so nothing more is acknowledged until a reopen, or a
    /// [`reset`](Self::reset), rebuilds the log.
    failed: bool,
    /// Bytes appended since opening (for stats).
    bytes_written: u64,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("bytes_written", &self.bytes_written)
            .finish()
    }
}

impl WalWriter {
    /// Open (creating if absent) a WAL for appending behind its first
    /// `committed` bytes, where [`scan_wal`] found its last commit (or
    /// epoch) marker to end. With `cut` the file holds more than that and
    /// is first truncated back: appending behind a torn frame would hide
    /// every later record from recovery, and appending behind the trailing
    /// ops of a never-committed transaction would let the *next* commit
    /// marker wrongly adopt them. The log is not read here.
    pub fn open(vfs: Arc<dyn Vfs>, path: &Path, committed: u64, cut: bool) -> StoreResult<Self> {
        if cut {
            vfs.truncate(path, committed)?;
        }
        let file = vfs.open_append(path)?;
        Ok(WalWriter {
            path: path.to_owned(),
            vfs,
            file,
            buf: Vec::new(),
            len: committed,
            failed: false,
            bytes_written: 0,
        })
    }

    /// Refuse to take anything once the log has failed (see `failed`).
    fn usable(&self) -> StoreResult<()> {
        if self.failed {
            Err(StoreError::WalFailed)
        } else {
            Ok(())
        }
    }

    /// Append one record (buffered; call [`sync`](Self::sync) to make it
    /// durable).
    pub fn append(&mut self, record: &LogRecord) -> StoreResult<()> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Append many records as one buffered write. Framing is identical to
    /// per-record [`append`](Self::append) — the batch is an encoding
    /// convenience, not a recovery unit — so readers cannot tell the two
    /// apart. Durability still requires [`sync`](Self::sync); group commit
    /// appends every transaction of an import batch and syncs once.
    pub fn append_batch(&mut self, records: &[LogRecord]) -> StoreResult<()> {
        self.usable()?;
        let before = self.buf.len();
        encode_frames(records, &mut self.buf);
        self.bytes_written += (self.buf.len() - before) as u64;
        if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush()?;
        }
        Ok(())
    }

    /// Hand the buffered frames to the file. A write that fails may have
    /// left a torn frame behind, which would hide every later frame from
    /// recovery: the file is cut back to its last whole frame, and the
    /// frames stay buffered.
    fn flush(&mut self) -> StoreResult<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.file.write_all(&self.buf) {
            return self.cut(self.len).and(Err(e));
        }
        self.len += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flush buffers and fsync the file. A failed fsync fails the log.
    pub fn sync(&mut self) -> StoreResult<()> {
        self.usable()?;
        self.flush()?;
        self.file.sync().inspect_err(|_| self.failed = true)
    }

    /// The end of the log, written and buffered: a mark for
    /// [`rewind`](Self::rewind).
    fn end(&self) -> u64 {
        self.len + self.buf.len() as u64
    }

    /// Drop every frame appended past `mark`, buffered or written.
    fn rewind(&mut self, mark: u64) -> StoreResult<()> {
        self.bytes_written = self.bytes_written.saturating_sub(self.end().saturating_sub(mark));
        match mark.checked_sub(self.len) {
            Some(buffered) => {
                self.buf.truncate(buffered as usize);
                Ok(())
            }
            None => {
                self.buf.clear();
                self.cut(mark)
            }
        }
    }

    /// Append `records` as one unit — with `sync`, durably — or none of
    /// them: an error rewinds the log to where it stood, so a caller that
    /// undoes its change on the error leaves nothing recovery would replay.
    pub fn log(&mut self, records: &[LogRecord], sync: bool) -> StoreResult<()> {
        let mark = self.end();
        let logged = self.append_batch(records).and_then(|()| if sync { self.sync() } else { Ok(()) });
        logged.or_else(|e| self.rewind(mark).and(Err(e)))
    }

    /// Cut the file back to `len` bytes and append from there on; a cut
    /// that fails fails the log.
    fn cut(&mut self, len: u64) -> StoreResult<()> {
        let reopened = self.vfs.truncate(&self.path, len).and_then(|()| self.vfs.open_append(&self.path));
        match reopened {
            Ok(file) => {
                self.file = file;
                self.len = len;
                Ok(())
            }
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    /// Truncate the log to zero length (after a checkpoint makes it obsolete)
    /// and stamp it with the epoch of that checkpoint. The new epoch record
    /// is synced, and so is the parent directory, before returning. A reset
    /// cut short fails the log: frames appended behind a missing stamp
    /// would be discarded as stale.
    pub fn reset(&mut self, epoch: u64) -> StoreResult<()> {
        self.failed = true;
        self.buf.clear();
        self.vfs.truncate(&self.path, 0)?;
        self.file = self.vfs.open_append(&self.path)?;
        let mut frame = Vec::new();
        encode_frames(std::slice::from_ref(&LogRecord::Epoch { epoch }), &mut frame);
        self.file.write_all(&frame)?;
        self.file.sync()?;
        if let Some(parent) = self.path.parent() {
            self.vfs.sync_dir(parent)?;
        }
        self.len = frame.len() as u64;
        self.failed = false;
        // The epoch stamp is bookkeeping, not payload: report zero so
        // "bytes since reset" keeps meaning what callers expect.
        self.bytes_written = 0;
        Ok(())
    }

    /// Bytes appended by this writer since it was opened or reset.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

/// Result of scanning a WAL: the records of every *committed* transaction,
/// in commit order, borrowed from the scanned bytes, plus diagnostics about
/// discarded data.
#[derive(Debug, Default)]
pub struct WalRecovery<'a> {
    /// Operations belonging to committed transactions, in log order.
    pub committed_ops: Vec<LoggedOp<'a>>,
    /// Number of committed transactions found.
    pub committed_txns: u64,
    /// Operations discarded because their commit marker was missing.
    pub discarded_ops: usize,
    /// If the file ended with a torn/corrupt record, the byte offset of the
    /// valid prefix.
    pub torn_at: Option<u64>,
    /// Length of the prefix recovery actually keeps: up to and including
    /// the last commit (or epoch) marker. Trailing ops without a marker
    /// and any torn tail lie beyond this.
    pub committed_bytes: u64,
    /// Epoch stamped into the log, if any. Pre-epoch logs report `None`
    /// and are treated as epoch 0.
    pub epoch: Option<u64>,
}

/// Scan a WAL image once and classify its records. A frame whose length or
/// checksum does not hold — an empty one included, as no record is empty —
/// is a torn tail and ends the valid prefix; a whole frame that does not
/// decode is an error (`LoggedOp::decode`), never taken for one, as the
/// committed frames behind it would go with it.
pub fn scan_wal(data: &[u8]) -> StoreResult<WalRecovery<'_>> {
    let mut recovery = WalRecovery::default();
    let mut offset = 0usize;
    let mut pending = Vec::new();
    while offset < data.len() {
        let frame = data.get(offset..offset + 8).map(|head| {
            let word = |at: usize| u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
            (word(0) as usize, word(4))
        });
        let body_start = offset + 8;
        let payload = match frame {
            Some((len, crc)) if len > 0 && data.len() - body_start >= len => {
                let payload = &data[body_start..body_start + len];
                (crc32(payload) == crc).then_some(payload)
            }
            _ => None,
        };
        let Some(payload) = payload else {
            recovery.torn_at = Some(offset as u64);
            break;
        };
        offset = body_start + payload.len();
        match LoggedOp::decode(payload)? {
            LoggedOp::Commit => {
                recovery.committed_txns += 1;
                recovery.committed_ops.append(&mut pending);
                recovery.committed_bytes = offset as u64;
            }
            LoggedOp::Epoch { epoch } => {
                recovery.epoch = Some(epoch);
                recovery.committed_bytes = offset as u64;
            }
            // Table creation is logged outside any transaction (the
            // single-writer API cannot interleave it with one), so it is
            // committed the moment it is durable.
            create @ LoggedOp::CreateTable { .. } => {
                recovery.committed_ops.push(create);
                recovery.committed_bytes = offset as u64;
            }
            op => pending.push(op),
        }
    }
    recovery.discarded_ops = pending.len();
    Ok(recovery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::vfs::RealVfs;
    use testkit::TempDir;

    /// A log's path in a fresh scratch directory, which lives as long as
    /// the directory handle.
    fn tmp(name: &str) -> (TempDir, PathBuf) {
        let dir = TempDir::new("relstore-wal");
        let path = dir.join(name);
        (dir, path)
    }

    fn read(path: &Path) -> Vec<u8> {
        RealVfs.read(path).unwrap().unwrap()
    }

    /// A writer over a log that does not exist yet.
    fn fresh(path: &Path) -> WalWriter {
        WalWriter::open(Arc::new(RealVfs), path, 0, false).unwrap()
    }

    fn ins(table: &str, id: u64, v: i64) -> LogRecord {
        LogRecord::insert_run(table, RowId(id), &[vec![Value::Int(v)]])
    }

    /// The cell `ins(.., v)` logs its row as.
    fn cell(v: i64) -> Vec<u8> {
        let mut cell = Vec::new();
        put_row(&mut cell, &[Value::Int(v)]);
        cell
    }

    fn logged<'a>(table: &'a str, id: u64, cell: &'a [u8]) -> LoggedOp<'a> {
        LoggedOp::InsertRun { table, first: RowId(id), count: 1, cells: cell }
    }

    #[test]
    fn roundtrip_committed_transactions() {
        let (_dir, path) = tmp("roundtrip.wal");
        let mut w = fresh(&path);
        w.append(&ins("t", 0, 1)).unwrap();
        w.append(&ins("t", 1, 2)).unwrap();
        w.append(&LogRecord::Commit { txid: 1 }).unwrap();
        w.append(&LogRecord::Delete {
            table: "t".into(),
            row_id: RowId(0),
        })
        .unwrap();
        w.append(&LogRecord::Commit { txid: 2 }).unwrap();
        w.sync().unwrap();

        let data = read(&path);
        let r = scan_wal(&data).unwrap();
        assert_eq!(r.committed_txns, 2);
        assert_eq!(r.committed_ops.len(), 3);
        assert_eq!(r.discarded_ops, 0);
        assert!(r.torn_at.is_none());
        assert_eq!(r.committed_bytes, data.len() as u64);
        assert_eq!(r.committed_ops[0], logged("t", 0, &cell(1)));
        assert_eq!(r.committed_ops[2], LoggedOp::Delete { table: "t", row_id: RowId(0) });
    }

    #[test]
    fn append_batch_is_frame_identical_to_per_record_appends() {
        let (_one, one) = tmp("batch-one.wal");
        let (_many, many) = tmp("batch-many.wal");
        let records = vec![
            ins("t", 0, 1),
            ins("t", 1, 2),
            LogRecord::Commit { txid: 1 },
            ins("t", 2, 3),
            LogRecord::Commit { txid: 2 },
        ];
        let mut w1 = fresh(&one);
        for r in &records {
            w1.append(r).unwrap();
        }
        w1.sync().unwrap();
        let mut w2 = fresh(&many);
        w2.append_batch(&records).unwrap();
        w2.sync().unwrap();
        assert_eq!(w1.bytes_written(), w2.bytes_written());
        let data = read(&many);
        assert_eq!(read(&one), data);
        let r = scan_wal(&data).unwrap();
        assert_eq!(r.committed_txns, 2);
        assert_eq!(r.committed_ops.len(), 3);
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let (_dir, path) = tmp("uncommitted.wal");
        let mut w = fresh(&path);
        w.append(&ins("t", 0, 1)).unwrap();
        w.append(&LogRecord::Commit { txid: 1 }).unwrap();
        w.append(&ins("t", 1, 2)).unwrap(); // never committed
        w.sync().unwrap();

        let data = read(&path);
        let r = scan_wal(&data).unwrap();
        assert_eq!(r.committed_ops.len(), 1);
        assert_eq!(r.discarded_ops, 1);
        assert!(r.committed_bytes < data.len() as u64);
    }

    #[test]
    fn torn_record_ends_recovery() {
        let (_dir, path) = tmp("torn.wal");
        let mut w = fresh(&path);
        w.append(&ins("t", 0, 1)).unwrap();
        w.append(&LogRecord::Commit { txid: 1 }).unwrap();
        w.append(&ins("t", 1, 2)).unwrap();
        w.append(&LogRecord::Commit { txid: 2 }).unwrap();
        w.sync().unwrap();

        // chop off the last 3 bytes to tear the final frame
        let data = read(&path);
        let data = &data[..data.len() - 3];
        let r = scan_wal(data).unwrap();
        assert_eq!(r.committed_txns, 1);
        assert_eq!(r.committed_ops.len(), 1);
        assert!(r.torn_at.is_some());
        // the torn tail contained the second txn's op, now discarded
        assert_eq!(r.discarded_ops, 1);
    }

    #[test]
    fn reopen_truncates_torn_tail_so_new_records_are_recoverable() {
        // Regression: append-after-torn-tail used to bury every later
        // record behind the corrupt frame, where recovery never looks.
        let (dir, path) = tmp("reopen-torn.wal");
        let mut w = fresh(&path);
        w.append(&ins("t", 0, 1)).unwrap();
        w.append(&LogRecord::Commit { txid: 1 }).unwrap();
        w.append(&ins("t", 1, 2)).unwrap();
        w.append(&LogRecord::Commit { txid: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);
        let data = read(&path);
        dir.write(&path, &data[..data.len() - 3]);

        // reopen as recovery does: one read, one scan, the writer told
        // where the committed prefix ends
        let data = read(&path);
        let r = scan_wal(&data).unwrap();
        let cut = r.committed_bytes < data.len() as u64;
        let mut w = WalWriter::open(Arc::new(RealVfs), &path, r.committed_bytes, cut).unwrap();
        w.append(&ins("t", 2, 9)).unwrap();
        w.append(&LogRecord::Commit { txid: 3 }).unwrap();
        w.sync().unwrap();

        let data = read(&path);
        let r = scan_wal(&data).unwrap();
        assert!(r.torn_at.is_none(), "torn tail must be gone after reopen");
        assert_eq!(r.committed_txns, 2);
        assert_eq!(r.committed_ops.len(), 2);
        assert_eq!(r.committed_ops[1], logged("t", 2, &cell(9)));
        assert_eq!(r.discarded_ops, 0);
    }

    #[test]
    fn corrupted_crc_ends_recovery() {
        let (_dir, path) = tmp("badcrc.wal");
        let mut w = fresh(&path);
        w.append(&ins("t", 0, 1)).unwrap();
        w.append(&LogRecord::Commit { txid: 1 }).unwrap();
        w.sync().unwrap();
        let mut data = read(&path);
        // flip a payload byte of the first record
        let victim = 9;
        data[victim] ^= 0xff;

        let r = scan_wal(&data).unwrap();
        assert_eq!(r.committed_txns, 0);
        assert_eq!(r.torn_at, Some(0));
    }

    /// Frames `payloads` as the writer frames a record.
    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for payload in payloads {
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32(payload).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    #[test]
    fn a_whole_frame_that_does_not_decode_is_refused_not_taken_for_a_torn_tail() {
        let mut committed = Vec::new();
        encode_frames(&[ins("t", 0, 1), LogRecord::Commit { txid: 1 }], &mut committed);
        let commit_2 = {
            let mut out = Vec::new();
            encode_frames(&[ins("t", 1, 2), LogRecord::Commit { txid: 2 }], &mut out);
            out
        };
        let reject = |bad: &[u8]| {
            let log = [&committed[..], &framed(&[bad]), &commit_2].concat();
            scan_wal(&log).map(|r| r.committed_txns).unwrap_err()
        };
        match reject(&[7, 1, 2]) {
            StoreError::Unsupported(msg) => assert!(msg.contains("tag 7"), "{msg}"),
            other => panic!("unknown tag: {other:?}"),
        }
        let mut insert = Vec::new();
        ins("t", 1, 2).encode(&mut insert);
        for bad in [&insert[..3], &[OP_COMMIT, 1, 0][..], &[OP_DELETE, 1, b't'][..]] {
            assert!(matches!(reject(bad), StoreError::Corrupt(_)), "{bad:?}");
        }
        // a zeroed header is no frame any build writes: a torn tail
        let log = [&committed[..], &[0; 12], &commit_2].concat();
        let r = scan_wal(&log).unwrap();
        assert_eq!((r.committed_txns, r.torn_at), (1, Some(committed.len() as u64)));
    }

    /// A per-row insert frame, as builds before runs wrote one (tag 1: the
    /// table, the row id, the cell), is read as a run of one.
    #[test]
    fn a_per_row_insert_frame_is_read_as_a_run_of_one() {
        let mut payload = vec![OP_INSERT];
        put_str(&mut payload, "t");
        put_varint(&mut payload, 5);
        payload.extend_from_slice(&cell(9));
        let mut commit = Vec::new();
        encode_frames(&[LogRecord::Commit { txid: 1 }], &mut commit);
        let log = [framed(&[&payload]), commit].concat();
        let r = scan_wal(&log).unwrap();
        assert_eq!(r.committed_ops, [logged("t", 5, &cell(9))]);
    }

    /// A batch is one frame whatever its size, holding each row's cell
    /// once; a batch whose cells pass the most one run carries is split at
    /// cell boundaries into runs that replay to the same rows.
    #[test]
    fn a_batch_is_one_run_and_splits_only_past_the_most_a_run_carries() {
        let rows: Vec<Vec<Value>> = (0..100).map(|v| vec![Value::Int(v), Value::text("acc")]).collect();
        let LogRecord::InsertRun { cells, .. } = LogRecord::insert_run("t", RowId(7), &rows) else {
            panic!("a run");
        };
        let mut one = Vec::new();
        push_runs(&mut one, "t", RowId(7), 100, cells.clone(), MAX_RUN_BYTES).unwrap();
        assert_eq!(one, [LogRecord::insert_run("t", RowId(7), &rows)]);
        let per_row: usize = (0..100).map(|i| {
            let mut frame = Vec::new();
            encode_frames(&[LogRecord::insert_run("t", RowId(7 + i as u64), &rows[i..=i])], &mut frame);
            frame.len()
        }).sum();
        let mut frame = Vec::new();
        encode_frames(&one, &mut frame);
        assert!(frame.len() < cells.len() + 16 && cells.len() < per_row, "{} / {} / {per_row}", frame.len(), cells.len());

        // a cell is 7 or 8 bytes here: runs of at most 50 bytes
        let mut split = Vec::new();
        push_runs(&mut split, "t", RowId(7), 100, cells.clone(), 50).unwrap();
        let mut next = 7;
        let mut joined = Vec::new();
        for run in &split {
            let LogRecord::InsertRun { first, count, cells: part, .. } = run else {
                panic!("a run");
            };
            assert!(part.len() <= 50 && *count > 0, "{count} rows in {} bytes", part.len());
            assert_eq!(first.0, next);
            next += count;
            joined.extend_from_slice(part);
        }
        assert_eq!((next, joined), (107, cells));
    }

    #[test]
    fn an_empty_log_is_an_empty_recovery() {
        let r = scan_wal(&[]).unwrap();
        assert_eq!(r.committed_ops.len(), 0);
        assert!(r.torn_at.is_none());
        assert!(r.epoch.is_none());
    }

    #[test]
    fn reset_truncates_and_stamps_epoch() {
        let (_dir, path) = tmp("reset.wal");
        let mut w = fresh(&path);
        w.append(&ins("t", 0, 1)).unwrap();
        w.append(&LogRecord::Commit { txid: 1 }).unwrap();
        w.sync().unwrap();
        w.reset(7).unwrap();
        assert_eq!(w.bytes_written(), 0);
        // writer still usable after reset
        w.append(&ins("t", 0, 9)).unwrap();
        w.append(&LogRecord::Commit { txid: 2 }).unwrap();
        w.sync().unwrap();
        let data = read(&path);
        let r = scan_wal(&data).unwrap();
        assert_eq!(r.epoch, Some(7));
        assert_eq!(r.committed_ops.len(), 1);
        assert_eq!(r.committed_ops[0], logged("t", 0, &cell(9)));
    }

    #[test]
    fn pre_epoch_logs_report_no_epoch() {
        let (_dir, path) = tmp("no-epoch.wal");
        let mut w = fresh(&path);
        w.append(&ins("t", 0, 1)).unwrap();
        w.append(&LogRecord::Commit { txid: 1 }).unwrap();
        w.sync().unwrap();
        let data = read(&path);
        let r = scan_wal(&data).unwrap();
        assert!(r.epoch.is_none());
        assert_eq!(r.committed_txns, 1);
    }

    #[test]
    fn large_batch_spills_before_sync() {
        // More than FLUSH_THRESHOLD of frames must not accumulate in the
        // writer; spilled bytes appear in the file even before sync.
        let (_dir, path) = tmp("spill.wal");
        let mut w = fresh(&path);
        let big: Vec<LogRecord> = (0..4096).map(|i| ins("table_name", i, i as i64)).collect();
        w.append_batch(&big).unwrap();
        assert!(w.bytes_written() as usize > FLUSH_THRESHOLD);
        assert!(RealVfs.file_len(&path).unwrap().unwrap() > 0);
        w.append(&LogRecord::Commit { txid: 1 }).unwrap();
        w.sync().unwrap();
        let data = read(&path);
        assert_eq!(scan_wal(&data).unwrap().committed_ops.len(), 4096);
    }
}
