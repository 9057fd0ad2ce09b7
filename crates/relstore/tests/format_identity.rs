//! Format identity: the bytes one fixed store leaves on disk — WAL frames
//! (the table's creation among them), a sealed page image and
//! `pagedir.bin`, with a pool and without — are pinned. The WAL and paged images were captured before the codec moved
//! from `bytes::{Bytes, BytesMut}` to slices; the pool-less directory when
//! it became the one checkpoint format. Any change to an on-disk encoding
//! moves them.

use relstore::db::{heap_file_name, PAGEDIR_FILE, WAL_FILE};
use relstore::schema::{Column, Schema};
use relstore::value::{Value, ValueType};
use relstore::vfs::FaultVfs;
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
const WAL: &str = concat!(
    "020000002cd6a94b05011e000000b850e628010467656e650404010c03045359",
    "4d3602000000000000e83f04030600ff1a000000d87881dd030467656e650104",
    "0104030453594d3202000000000000d03f0007000000e5594bec020467656e65",
    "0002000000d7b6bbcb0402",
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
