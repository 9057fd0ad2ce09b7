//! Format identity: the bytes one fixed store leaves on disk — WAL frames
//! (the table's creation among them), a sealed page image and
//! `pagedir.bin`, with a pool and without — are pinned. The paged images
//! were captured before the codec moved from `bytes::{Bytes, BytesMut}` to
//! slices; the pool-less directory when it became the one checkpoint
//! format; the log when inserts became runs (`PER_ROW_WAL` is the same
//! log as the build before runs wrote it, kept as a fixture that must
//! still open to the same rows). Any change to an on-disk encoding moves
//! them.

use relstore::db::{heap_file_name, PAGEDIR_FILE, WAL_FILE};
use relstore::schema::{Column, Schema};
use relstore::value::{Value, ValueType};
use relstore::vfs::{FaultVfs, Vfs};
use relstore::{Database, PoolConfig, RowId};
use std::path::Path;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::builder("gene")
        .column(Column::new("id", ValueType::Int))
        .column(Column::new("symbol", ValueType::Text))
        .column(Column::nullable("score", ValueType::Float))
        .column(Column::nullable("raw", ValueType::Bytes))
        .primary_key(&["id"])
        .index("by_symbol", &["symbol"])
        .build()
        .unwrap()
}

fn row(id: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::text(format!("SYM{id}")),
        if id % 2 == 0 {
            Value::Float(id as f64 / 8.0)
        } else {
            Value::Null
        },
        if id % 3 == 0 {
            Value::bytes(vec![id as u8, 0, 0xff])
        } else {
            Value::Null
        },
    ]
}

/// Four rows checkpointed into the table `schema()` created, then one
/// insert, one update and one delete left in the log.
fn fill(db: &mut Database) {
    db.with_txn(|txn| {
        for id in [-3, 0, 353, 1 << 40] {
            txn.insert("gene", row(id))?;
        }
        Ok(())
    })
    .unwrap();
    db.checkpoint().unwrap();
    db.with_txn(|txn| {
        txn.insert("gene", row(6))?;
        txn.update("gene", RowId(1), row(2))?;
        txn.delete("gene", RowId(0))
    })
    .unwrap();
    db.sync_wal().unwrap();
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn image(vfs: &FaultVfs, dir: &str, file: &str) -> String {
    hex(&vfs.peek(&Path::new(dir).join(file)).unwrap())
}

#[test]
fn resident_store_images_are_byte_identical() {
    let vfs = FaultVfs::new();
    let mut db = Database::open_with_vfs(Arc::new(vfs.clone()), Path::new("/db")).unwrap();
    db.create_table(schema()).unwrap();
    // until the first checkpoint, the log is what creates the table
    assert_eq!(image(&vfs, "/db", WAL_FILE), CREATE_WAL);
    fill(&mut db);
    assert_eq!(image(&vfs, "/db", PAGEDIR_FILE), RESIDENT_PAGEDIR);
    assert_eq!(image(&vfs, "/db", WAL_FILE), WAL);
}

/// A batch is logged as one run: the table, the first row id, the count,
/// then the rows' cells back to back — the bytes the tail stores.
#[test]
fn a_batch_is_logged_as_one_run() {
    let vfs = FaultVfs::new();
    let mut db = Database::open_with_vfs(Arc::new(vfs.clone()), Path::new("/db")).unwrap();
    db.create_table(schema()).unwrap();
    db.checkpoint().unwrap();
    db.with_txn(|txn| txn.insert_batch("gene", vec![row(1), row(7), row(4)]).map(drop)).unwrap();
    db.sync_wal().unwrap();
    assert_eq!(image(&vfs, "/db", WAL_FILE), BATCH_WAL);
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

/// Every row of every table, in row order.
fn rows(db: &Database) -> Vec<(RowId, Vec<Value>)> {
    db.table("gene").unwrap().scan().map(|(id, row)| (id, row.into_values())).collect()
}

/// A log the build before runs wrote — its insert a per-row frame — opens,
/// with a pool and without, to the rows the same log written as runs opens
/// to, and the store then takes new writes and reopens to them.
#[test]
fn a_log_of_per_row_insert_frames_opens_to_the_same_rows() {
    let config = PoolConfig {
        page_bytes: 64,
        pool_pages: 2,
    };
    for paged in [false, true] {
        let open = |vfs: &FaultVfs| {
            let vfs: Arc<dyn Vfs> = Arc::new(vfs.clone());
            match paged {
                false => Database::open_with_vfs(vfs, Path::new("/db")),
                true => Database::open_paged_with_vfs(vfs, Path::new("/db"), config),
            }
            .unwrap()
        };
        let vfs = FaultVfs::new();
        let mut db = open(&vfs);
        db.create_table(schema()).unwrap();
        fill(&mut db);
        drop(db);
        let want = rows(&open(&vfs));
        assert_eq!(want.iter().map(|(id, _)| id.0).collect::<Vec<_>>(), [1, 2, 3, 4], "paged {paged}");

        let mut file = vfs.create(&Path::new("/db").join(WAL_FILE)).unwrap();
        file.write_all(&unhex(PER_ROW_WAL)).unwrap();
        file.sync().unwrap();
        drop(file);
        let mut db = open(&vfs);
        assert_eq!(rows(&db), want, "paged {paged}: the per-row log");
        db.with_txn(|txn| txn.insert("gene", row(9)).map(drop)).unwrap();
        drop(db);
        let db = open(&vfs);
        assert_eq!(rows(&db)[..4], want[..], "paged {paged}");
        assert_eq!(rows(&db)[4], (RowId(5), row(9)), "paged {paged}");
    }
}

#[test]
fn paged_store_images_are_byte_identical() {
    let vfs = FaultVfs::new();
    let config = PoolConfig {
        page_bytes: 64,
        pool_pages: 2,
    };
    let mut db =
        Database::open_paged_with_vfs(Arc::new(vfs.clone()), Path::new("/pg"), config).unwrap();
    db.create_table(schema()).unwrap();
    fill(&mut db);
    assert_eq!(image(&vfs, "/pg", WAL_FILE), WAL);
    // a second checkpoint rewrites the touched page behind the first image
    // and writes the open tail (one live row) into the directory
    db.checkpoint().unwrap();
    assert_eq!(image(&vfs, "/pg", PAGEDIR_FILE), PAGEDIR);
    assert_eq!(image(&vfs, "/pg", &heap_file_name(1)), HEAP);
}

const RESIDENT_PAGEDIR: &str = concat!(
    "5253504401000000d6eeaf8c010102010467656e650402696400000673796d62",
    "6f6c02000573636f726501010372617703010100010962795f73796d626f6c00",
    "0101010400000401040105030553594d2d33000403fd00ff0104010003045359",
    "4d3002000000000000000004030000ff010401c205030653594d333533000001",
    "0401808080808040031053594d31303939353131363237373736020000000000",
    "00404200",
);
const CREATE_WAL: &str = concat!(
    "33000000d604a65d060467656e650402696400000673796d626f6c0200057363",
    "6f726501010372617703010100010962795f73796d626f6c000101",
);
/// The log `fill` leaves: the insert a run of one (tag 8: table, first
/// row id 4, count 1, the cell), then the update, the delete and the commit.
const WAL: &str = concat!(
    "020000002cd6a94b05011f00000089ddc66d080467656e65040104010c030453",
    "594d3602000000000000e83f04030600ff1a000000d87881dd030467656e6501",
    "040104030453594d3202000000000000d03f0007000000e5594bec020467656e",
    "650002000000d7b6bbcb0402",
);
/// The same log as the build before runs wrote it: the insert one per-row
/// frame (tag 1: table, row id 4, the cell).
const PER_ROW_WAL: &str = concat!(
    "020000002cd6a94b05011e000000b850e628010467656e650404010c03045359",
    "4d3602000000000000e83f04030600ff1a000000d87881dd030467656e650104",
    "0104030453594d3202000000000000d03f0007000000e5594bec020467656e65",
    "0002000000d7b6bbcb0402",
);
const BATCH_WAL: &str = concat!(
    "020000002cd6a94b0501310000008ec57019080467656e650003040102030453",
    "594d31000004010e030453594d370000040108030453594d3402000000000000",
    "e03f00020000006de7b2520401",
);
const PAGEDIR: &str = concat!(
    "525350440100000090e7f276020102010467656e650402696400000673796d62",
    "6f6c02000573636f726501010372617703010100010962795f73796d626f6c00",
    "01010104010004695504010104010c030453594d3602000000000000e83f0403",
    "0600ff",
);
const HEAP: &str = concat!(
    "52535047f41c707a0100000401112836040105030553594d2d33000403fd00ff",
    "040100030453594d3002000000000000000004030000ff0401c205030653594d",
    "33353300000401808080808040031053594d3130393935313136323737373602",
    "000000000000404200525350472067adc1010000040001142204010403045359",
    "4d3202000000000000d03f000401c205030653594d3335330000040180808080",
    "8040031053594d3130393935313136323737373602000000000000404200",
);
