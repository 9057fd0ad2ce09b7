//! Index build equivalence: the encoded keys order exactly as the values
//! they encode, an index bulk-built at recovery equals the one maintained
//! row by row, and `open` rebuilds — or refuses — from any mix of page
//! directory and WAL. A seeded deterministic sweep: a failure pins to a round number.

use relstore::codec::{crc32, put_varint};
use relstore::db::{PAGEDIR_FILE, WAL_FILE};
use relstore::index::{IndexBuilder, IndexKey, IndexStore, KeySpec};
use relstore::schema::{Column, IndexDef, Schema};
use relstore::pager::{decode_page_directory, encode_page_directory};
use relstore::stats::IndexStats;
use relstore::vfs::{FaultVfs, Vfs};
use relstore::wal::{LogRecord, WalWriter};
use relstore::{Database, PoolConfig, Row, RowId, StoreError, Table, Value, ValueType};
use std::path::Path;
use std::sync::Arc;
use testkit::Prng;

const TYPES: [ValueType; 4] = [
    ValueType::Int,
    ValueType::Float,
    ValueType::Text,
    ValueType::Bytes,
];

/// A value of `ty` from a pool that is mostly edge cases: sign and range
/// limits, the float zoo, empty strings, shared prefixes, embedded zero
/// bytes, and strings long enough to spill out of the inline key.
fn value(st: &mut Prng, ty: ValueType, nullable: bool) -> Value {
    if nullable && st.below(5) == 0 {
        return Value::Null;
    }
    match ty {
        ValueType::Int => Value::Int(match st.below(10) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => -1,
            3 => 0,
            4 => i64::MIN + 1,
            5 => -(st.below(1000) as i64),
            _ => st.below(12) as i64,
        }),
        ValueType::Float => Value::Float(match st.below(10) {
            0 => f64::NEG_INFINITY,
            1 => f64::INFINITY,
            2 => f64::NAN,
            3 => -0.0,
            4 => 0.0,
            5 => f64::MIN_POSITIVE,
            6 => -f64::NAN,
            7 => -(st.below(100) as f64) / 8.0,
            _ => st.below(8) as f64 / 4.0,
        }),
        ValueType::Text => {
            let pool = [
                "",
                "a",
                "a\0",
                "a\0b",
                "a\u{1}",
                "ab",
                "abc",
                "b",
                "\0",
                "é",
                "GO:0009116",
            ];
            let mut s = pool[st.below(pool.len())].to_owned();
            if st.below(8) == 0 {
                s.push_str(&"z".repeat(20 + st.below(30)));
                s.push_str(pool[st.below(pool.len())]);
            }
            Value::Text(s)
        }
        ValueType::Bytes => {
            let pool: [&[u8]; 8] = [
                &[],
                &[0],
                &[0, 0],
                &[0, 1],
                &[0, 255],
                &[1],
                &[255],
                &[255, 0],
            ];
            let mut b = pool[st.below(pool.len())].to_vec();
            if st.below(8) == 0 {
                b.extend_from_slice(&[st.below(256) as u8; 30]);
                b.extend_from_slice(pool[st.below(pool.len())]);
            }
            Value::Bytes(b)
        }
    }
}

/// A random schema: an int id first (the usual primary key), then one to
/// four columns of any type and nullability, one to three secondary
/// indexes over one to three of all the columns, any of them unique.
fn schema(st: &mut Prng, name: &str) -> Schema {
    let extra = 1 + st.below(4);
    let mut names = vec!["c0".to_owned()];
    let mut b = Schema::builder(name).column(Column::new("c0", ValueType::Int));
    for i in 1..=extra {
        let (n, ty) = (format!("c{i}"), TYPES[st.below(4)]);
        b = b.column(if st.below(2) == 0 {
            Column::nullable(&n, ty)
        } else {
            Column::new(&n, ty)
        });
        names.push(n);
    }
    b = match st.below(4) {
        0 => b, // no primary key at all
        1 => b.primary_key(&["c0", "c1"]),
        _ => b.primary_key(&["c0"]),
    };
    for i in 0..1 + st.below(3) {
        let cols: Vec<&str> = (0..1 + st.below(3))
            .map(|_| names[st.below(names.len())].as_str())
            .collect();
        let index = format!("ix{i}");
        b = if st.below(3) == 0 {
            b.unique_index(&index, &cols)
        } else {
            b.index(&index, &cols)
        };
    }
    b.build().unwrap()
}

fn row(st: &mut Prng, schema: &Schema) -> Vec<Value> {
    let mut values: Vec<Value> = schema
        .columns()
        .iter()
        .map(|c| value(st, c.ty, c.nullable))
        .collect();
    // ids mostly fresh, sometimes colliding
    values[0] = Value::Int(st.below(400) as i64 - 100);
    values
}

// ---- (i) key order and round trip -------------------------------------

#[test]
fn encoded_key_order_is_value_order_and_keys_round_trip() {
    let mut st = Prng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
    for round in 0..60 {
        let schema = schema(&mut st, "t");
        let rows: Vec<Vec<Value>> = (0..40).map(|_| row(&mut st, &schema)).collect();
        for def in schema.indexes() {
            let spec = KeySpec::new(&schema, def);
            let tuples: Vec<Vec<Value>> = rows
                .iter()
                .map(|r| def.columns.iter().map(|&c| r[c].clone()).collect())
                .collect();
            let keys: Vec<_> = rows.iter().map(|r| spec.row_key(r).unwrap()).collect();
            for (x, kx) in tuples.iter().zip(&keys) {
                assert_eq!(&spec.decode(kx).unwrap(), x, "round {round}: round trip");
                assert_eq!(
                    &spec.probe(x).unwrap(),
                    kx,
                    "round {round}: probe is the row key"
                );
                for (y, ky) in tuples.iter().zip(&keys) {
                    assert_eq!(kx.cmp(ky), x.cmp(y), "round {round}: {x:?} vs {y:?}");
                }
                // a probe over the leading columns is a prefix of exactly
                // the keys that share them, and sorts like the short tuple
                for n in 0..x.len() {
                    let prefix = spec.probe(&x[..n]).unwrap();
                    assert_eq!(spec.decode(&prefix).unwrap(), x[..n], "round {round}");
                    for (y, ky) in tuples.iter().zip(&keys) {
                        assert_eq!(ky.starts_with(&prefix), y[..n] == x[..n], "round {round}");
                        assert_eq!(prefix.cmp(ky), x[..n].cmp(&y[..]), "round {round}");
                    }
                }
            }
        }
    }
}

// ---- (ii) + (iii): bulk-built == maintained, across every reopen -------

/// An index's entries: key column values and row id, in index order.
type Entries = Vec<(Vec<Value>, RowId)>;

/// Everything observable about a table: rows by id, counts, and every
/// index's entries in order.
#[derive(Debug, PartialEq)]
struct Observed {
    len: usize,
    next_row_id: RowId,
    rows: Vec<(RowId, Row)>,
    indexes: Vec<(String, Entries)>,
}

fn observe(table: &Table) -> Observed {
    Observed {
        len: table.len(),
        next_row_id: table.next_row_id(),
        rows: table.scan().collect(),
        indexes: table
            .schema()
            .indexes()
            .iter()
            .map(|d| (d.name.clone(), table.index_entry_list(&d.name).unwrap()))
            .collect(),
    }
}

fn observe_db(db: &Database) -> Vec<(String, Observed)> {
    db.table_names()
        .into_iter()
        .map(|n| (n.to_owned(), observe(db.table(n).unwrap())))
        .collect()
}

/// An index's entries must be exactly its rows' keys: derive them from a
/// scan with `Value` order alone and compare.
fn assert_indexes_match_rows(table: &Table, context: &str) {
    let rows: Vec<(RowId, Row)> = table.scan().collect();
    assert_eq!(rows.len(), table.len(), "{context}: len");
    for def in table.schema().indexes() {
        let mut expect: Entries = rows
            .iter()
            .map(|(id, r)| (r.project(&def.columns), *id))
            .collect();
        expect.sort();
        assert_eq!(
            table.index_entry_list(&def.name).unwrap(),
            expect,
            "{context}: index {}",
            def.name
        );
    }
}

fn open(vfs: &FaultVfs, pool: Option<usize>) -> Database {
    let vfs: Arc<dyn Vfs> = Arc::new(vfs.clone());
    match pool {
        None => Database::open_with_vfs(vfs, Path::new("/db")),
        Some(pool_pages) => Database::open_paged_with_vfs(
            vfs,
            Path::new("/db"),
            PoolConfig {
                page_bytes: 128,
                pool_pages,
            },
        ),
    }
    .unwrap()
}

/// A stretch of random writes; failed ones (unique violations) roll back
/// and are part of the test. `may_checkpoint` gates snapshots so some
/// stores stay WAL-only.
fn churn(
    st: &mut Prng,
    db: &mut Database,
    schemas: &mut Vec<Schema>,
    ops: usize,
    may_checkpoint: bool,
) {
    for _ in 0..ops {
        let s = schemas[st.below(schemas.len())].clone();
        let live: Vec<RowId> = db
            .table(s.name())
            .unwrap()
            .scan()
            .map(|(id, _)| id)
            .collect();
        match st.below(16) {
            0..=5 => {
                let r = row(st, &s);
                let _ = db.with_txn(|txn| txn.insert(s.name(), r));
            }
            6 | 7 => {
                let rows: Vec<_> = (0..2 + st.below(12)).map(|_| row(st, &s)).collect();
                let _ = db.with_txn(|txn| txn.insert_batch(s.name(), rows));
            }
            8..=10 if !live.is_empty() => {
                let (id, r) = (live[st.below(live.len())], row(st, &s));
                let _ = db.with_txn(|txn| txn.update(s.name(), id, r));
            }
            11 | 12 if !live.is_empty() => {
                // several deletes, often the newest rows: high-water marks
                // above the last live row
                let n = 1 + st.below(3).min(live.len() - 1);
                let ids: Vec<RowId> = live[live.len() - n..].to_vec();
                db.with_txn(|txn| ids.iter().try_for_each(|id| txn.delete(s.name(), *id)))
                    .unwrap();
            }
            13 if may_checkpoint => db.checkpoint().unwrap(),
            14 if schemas.len() < 3 => {
                let fresh = schema(st, &format!("t{}", schemas.len()));
                db.create_table(fresh.clone()).unwrap();
                schemas.push(fresh);
            }
            _ => {}
        }
    }
}

#[test]
fn reopened_store_equals_the_closed_one() {
    let mut st = Prng::seed_from_u64(0xD1B5_4A32_D192_ED03);
    for round in 0..48 {
        // resident, or paged under each pool size; reopened under another
        let pools = [None, Some(1), Some(2), Some(8)];
        let pool = pools[round % 4];
        let reopen_pool = pool.map(|_| [1, 2, 8][st.below(3)]);
        let wal_only = round % 6 == 5;
        let vfs = FaultVfs::new();
        let mut db = open(&vfs, pool);
        let mut schemas = vec![schema(&mut st, "t0")];
        db.create_table(schemas[0].clone()).unwrap();
        for cycle in 0..3 {
            let ops = 20 + st.below(60);
            churn(&mut st, &mut db, &mut schemas, ops, !wal_only);
            let context = format!("round {round} cycle {cycle} pool {pool:?}->{reopen_pool:?}");
            let closed = observe_db(&db);
            for name in db.table_names() {
                assert_indexes_match_rows(db.table(name).unwrap(), &context);
            }
            // (ii) close -> open: page directory + WAL tail
            drop(db);
            db = open(&vfs, reopen_pool);
            assert_eq!(observe_db(&db), closed, "{context}: reopen");
        }
    }
}

// ---- (iv) recovery that must refuse ------------------------------------

fn unique_schema() -> Schema {
    Schema::builder("t")
        .column(Column::new("id", ValueType::Int))
        .column(Column::new("acc", ValueType::Text))
        .primary_key(&["id"])
        .unique_index("by_acc", &["acc"])
        .build()
        .unwrap()
}

/// A checkpointed store of three rows with one more committed in the WAL.
fn seeded(pool: Option<usize>) -> FaultVfs {
    let vfs = FaultVfs::new();
    let mut db = open(&vfs, pool);
    db.create_table(unique_schema()).unwrap();
    db.with_txn(|txn| {
        for (i, acc) in ["aa", "bb", "qq"].iter().enumerate() {
            txn.insert("t", vec![Value::Int(i as i64), Value::text(*acc)])?;
        }
        Ok(())
    })
    .unwrap();
    db.checkpoint().unwrap();
    db.with_txn(|txn| txn.insert("t", vec![Value::Int(3), Value::text("dd")]))
        .unwrap();
    vfs
}

/// Commit `ops` as one more transaction at the end of the store's WAL.
fn append_to_wal(vfs: &FaultVfs, ops: Vec<LogRecord>) {
    let mut wal = WalWriter::open(Arc::new(vfs.clone()), &Path::new("/db").join(WAL_FILE)).unwrap();
    wal.append_batch(&ops).unwrap();
    wal.append(&LogRecord::Commit { txid: 99 }).unwrap();
    wal.sync().unwrap();
}

fn try_open(vfs: &FaultVfs, pool: Option<usize>) -> Result<Database, StoreError> {
    let vfs: Arc<dyn Vfs> = Arc::new(vfs.clone());
    match pool {
        None => Database::open_with_vfs(vfs, Path::new("/db")),
        Some(pool_pages) => Database::open_paged_with_vfs(
            vfs,
            Path::new("/db"),
            PoolConfig {
                page_bytes: 128,
                pool_pages,
            },
        ),
    }
}

#[test]
fn open_refuses_rows_that_contradict_an_index() {
    let insert = |row_id: u64, id: i64, acc: &str| LogRecord::Insert {
        table: "t".into(),
        row_id: RowId(row_id),
        values: vec![Value::Int(id), Value::text(acc)],
    };
    for pool in [None, Some(1), Some(8)] {
        // the seeded store itself reopens, and a well-formed tail extends it
        let vfs = seeded(pool);
        append_to_wal(&vfs, vec![insert(4, 4, "ee")]);
        let db = try_open(&vfs, pool).unwrap();
        assert_eq!(db.table("t").unwrap().len(), 5);
        assert_indexes_match_rows(db.table("t").unwrap(), "well-formed tail");
        drop(db);

        // a duplicate in a secondary unique index, then in the primary key
        for (dup, index) in [(insert(4, 4, "bb"), "by_acc"), (insert(4, 1, "zz"), "pk")] {
            let vfs = seeded(pool);
            append_to_wal(&vfs, vec![dup]);
            let err = try_open(&vfs, pool).unwrap_err();
            assert!(
                matches!(&err, StoreError::UniqueViolation { table, index: ix, .. }
                    if table == "t" && ix == index),
                "pool {pool:?}: {err:?}"
            );
        }

        // a duplicate that a later record of the same log resolves is fine:
        // only the final rows have to satisfy the index
        let vfs = seeded(pool);
        append_to_wal(
            &vfs,
            vec![
                insert(4, 4, "bb"),
                LogRecord::Delete {
                    table: "t".into(),
                    row_id: RowId(1),
                },
            ],
        );
        let db = try_open(&vfs, pool).unwrap();
        assert_indexes_match_rows(db.table("t").unwrap(), "resolved duplicate");
        drop(db);

        // update and delete of rows that do not exist
        for op in [
            LogRecord::Update {
                table: "t".into(),
                row_id: RowId(40),
                values: vec![Value::Int(40), Value::text("zz")],
            },
            LogRecord::Delete {
                table: "t".into(),
                row_id: RowId(40),
            },
        ] {
            let vfs = seeded(pool);
            append_to_wal(&vfs, vec![op]);
            let err = try_open(&vfs, pool).unwrap_err();
            assert!(
                matches!(err, StoreError::NoSuchRow { row_id: 40, .. }),
                "pool {pool:?}: {err:?}"
            );
        }

        // an insert below the high-water mark, and one that is not a row
        let vfs = seeded(pool);
        append_to_wal(&vfs, vec![insert(2, 9, "zz")]);
        assert!(matches!(try_open(&vfs, pool), Err(StoreError::Corrupt(_))));
        let vfs = seeded(pool);
        append_to_wal(
            &vfs,
            vec![LogRecord::Insert {
                table: "t".into(),
                row_id: RowId(4),
                values: vec![Value::text("not an id"), Value::text("zz")],
            }],
        );
        assert!(matches!(
            try_open(&vfs, pool),
            Err(StoreError::SchemaViolation(_))
        ));
    }
}

/// `image` with its checksum re-sealed — what a buggy writer (not a torn
/// write) would have left.
fn resealed(mut image: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&image[12..]);
    image[8..12].copy_from_slice(&crc.to_le_bytes());
    image
}

#[test]
fn open_refuses_a_snapshot_holding_a_duplicate_unique_key() {
    // three short rows never fill a page: with or without a pool they sit
    // in the directory's inline tail
    for pool in [None, Some(2)] {
        let vfs = seeded(pool);
        let path = Path::new("/db").join(PAGEDIR_FILE);
        let mut image = vfs.peek(&path).unwrap();
        // rewrite row 2's accession "qq" to "bb"
        let at = image.windows(2).position(|w| w == b"qq").unwrap();
        image[at..at + 2].copy_from_slice(b"bb");
        let mut file = vfs.create(&path).unwrap();
        file.write_all(&resealed(image)).unwrap();
        file.sync().unwrap();
        let err = try_open(&vfs, pool).unwrap_err();
        assert!(
            matches!(&err, StoreError::UniqueViolation { index, key, .. }
                if index == "by_acc" && key == "(bb)"),
            "pool {pool:?}: {err:?}"
        );
    }
}

#[test]
fn counts_read_from_a_file_are_not_trusted() {
    let vfs = FaultVfs::new();
    let mut db = open(&vfs, None);
    db.create_table(unique_schema()).unwrap();
    db.with_txn(|txn| {
        txn.insert("t", vec![Value::Int(0), Value::text("zz")])?;
        txn.insert("t", vec![Value::Int(1), Value::text("aa")])?;
        txn.delete("t", RowId(0))
    })
    .unwrap();
    db.checkpoint().unwrap();
    let image = vfs.peek(&Path::new("/db").join(PAGEDIR_FILE)).unwrap();
    assert_eq!(decode_page_directory(&image).unwrap().tables[0].tail[0].slot_count(), 2);
    // the body ends: tail base (0), tail slot count (2), a tombstone
    // marker, then a live marker and its row — arity, int, text: 1 + 2 + 4
    let ntail_at = image.len() - 7 - 1 - 1 - 1;
    assert_eq!(
        image[ntail_at - 1..ntail_at + 3],
        [0, 2, 0, 1],
        "located the tail slot count"
    );
    let corrupt = |image: Vec<u8>, what: &str| match decode_page_directory(&image) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
        other => panic!("{what}: must be corrupt, got {other:?}"),
    };
    // a directory that claims 2^40 tail slots (and re-seals its checksum)
    // must be rejected by arithmetic on the bytes that remain, not by
    // allocating
    let mut forged = image[..ntail_at].to_vec();
    forged.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20]); // varint 2^40
    forged.extend_from_slice(&image[ntail_at + 1..]);
    corrupt(resealed(forged), "tail slot count");
    // a slot is a tombstone (0) or a row (1), nothing else
    let mut forged = image.clone();
    forged[ntail_at + 1] = 7;
    corrupt(resealed(forged), "bad tail slot marker 7");
    // and neither survives without the re-sealed checksum, or the magic
    let mut forged = image.clone();
    forged[ntail_at + 1] = 7;
    corrupt(forged, "checksum mismatch");
    let mut forged = image;
    forged[0] = b'X';
    corrupt(forged, "bad page directory magic");

    // a sealed page's length of 2^32 + n behind a valid checksum is refused
    // by either open, not read as n
    let vfs = FaultVfs::new();
    let mut db = open(&vfs, Some(2));
    db.create_table(unique_schema()).unwrap();
    db.with_txn(|txn| {
        (0..20).try_for_each(|i| {
            txn.insert("t", vec![Value::Int(i), Value::text(format!("acc{i}"))]).map(drop)
        })
    })
    .unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let path = Path::new("/db").join(PAGEDIR_FILE);
    let mut catalog = decode_page_directory(&vfs.peek(&path).unwrap()).unwrap();
    let loc = &mut catalog.tables[0].pages[0].loc;
    let len = u64::from(loc.len);
    loc.len = 0x0fed_cba9; // a marker no other field of this directory spells
    let (mut marker, mut wide) = (Vec::new(), Vec::new());
    put_varint(&mut marker, 0x0fed_cba9);
    put_varint(&mut wide, (1 << 32) + len);
    let image = encode_page_directory(&catalog);
    let at = image.windows(marker.len()).position(|w| w == marker).unwrap();
    let forged = [&image[..at], &wide[..], &image[at + marker.len()..]].concat();
    let mut file = vfs.create(&path).unwrap();
    file.write_all(&resealed(forged)).unwrap();
    file.sync().unwrap();
    for pool in [None, Some(2)] {
        match try_open(&vfs, pool) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("page length"), "{msg}"),
            other => panic!("pool {pool:?}: a page length of 2^32 + {len} must be corrupt: {other:?}"),
        }
    }
}

/// A tail cell that is not a row, in a directory whose checksum is right: a
/// writer's defect, not a torn write. No older generation explains it, so
/// `open` refuses — with or without a pool, at the directory's own walk of
/// the cell where that cannot find the cell's end, at the index build's
/// decode where it can — and nothing is allocated on the forged numbers.
#[test]
fn open_refuses_a_damaged_tail_cell_behind_a_valid_checksum() {
    for pool in [None, Some(2)] {
        let path = Path::new("/db").join(PAGEDIR_FILE);
        let image = seeded(pool).peek(&path).unwrap();
        // row 2 ends the file: marker, arity 2, Int(2), Text "qq" (tag, len, bytes)
        let cell = [1, 2, 1, 4, 3, 2, b'q', b'q'];
        let at = image.len() - cell.len();
        assert_eq!(image[at..], cell, "located the last tail cell");
        let forge = |patch: &dyn Fn(&mut Vec<u8>)| {
            let vfs = seeded(pool);
            let mut forged = image.clone();
            patch(&mut forged);
            let mut file = vfs.create(&path).unwrap();
            file.write_all(&resealed(forged)).unwrap();
            file.sync().unwrap();
            match try_open(&vfs, pool) {
                Err(StoreError::Corrupt(msg)) => msg,
                other => panic!("pool {pool:?}: must be corrupt, got {other:?}"),
            }
        };
        // an arity that runs off the end of the file, small or absurd
        let msg = forge(&|image| image[at + 1] = 9);
        assert!(msg.contains("row value count 9"), "{msg}");
        let msg = forge(&|image| {
            image.truncate(at + 1);
            image.extend_from_slice(&[0xff; 9]);
            image.push(0x01); // varint 2^64 - 1
        });
        assert!(msg.contains("row value count"), "{msg}");
        // a tag no value has
        let msg = forge(&|image| image[at + 4] = 9);
        assert!(msg.contains("unknown value tag 9"), "{msg}");
        // a text length past the end of the file: 2^40 bytes are never reserved
        let msg = forge(&|image| {
            image.truncate(at + 5);
            image.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20, b'q', b'q']);
        });
        assert!(msg.contains("payload truncated"), "{msg}");
        // text that is not UTF-8: the walk passes it, the index build reads it
        let msg = forge(&|image| image[at + 6..].copy_from_slice(&[0xff, 0xfe]));
        assert!(msg.contains("not UTF-8"), "{msg}");
    }
}

// ---- (v) the run and its delta -----------------------------------------

/// One table with every index shape: a fixed-width unique key (`pk`), a
/// fixed-width multi key (`by_grp`), a variable-width unique key
/// (`by_acc`), a variable-width multi key led by a nullable column
/// (`by_score`) and a fixed-width multi key led by a float (`by_w`).
fn shapes() -> Schema {
    Schema::builder("t")
        .column(Column::new("id", ValueType::Int))
        .column(Column::new("grp", ValueType::Int))
        .column(Column::new("acc", ValueType::Text))
        .column(Column::nullable("score", ValueType::Float))
        .column(Column::new("w", ValueType::Float))
        .primary_key(&["id"])
        .index("by_grp", &["grp"])
        .unique_index("by_acc", &["acc"])
        .index("by_score", &["score", "acc"])
        .index("by_w", &["w", "id"])
        .build()
        .unwrap()
}

/// A row; its `w` is the float `grp` ulps above 1.0 — near it for a small
/// group, anywhere (NaN and negatives included) for an extreme one — so a
/// float key column's span follows the group's.
fn shape_row(id: i64, acc: i64, grp: i64, score: Option<usize>) -> Vec<Value> {
    let score = score.map_or(Value::Null, |s| Value::Float(s as f64 / 4.0));
    let w = f64::from_bits(1f64.to_bits().wrapping_add(grp as u64));
    vec![Value::Int(id), Value::Int(grp), Value::text(format!("A{acc}")), score, Value::Float(w)]
}

/// A group: mostly one of eight neighbours, sometimes a negative one,
/// `i64::MIN`, `i64::MAX`, or one `2³² − 1` or `2³²` above the neighbours,
/// either side of what a `u32` lane spans.
fn group(st: &mut Prng) -> i64 {
    match st.below(64) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => (1 << 32) - 1 + st.below(2) as i64,
        3..=6 => -1 - st.below(8) as i64,
        _ => st.below(8) as i64,
    }
}

/// A row whose keys are mostly fresh; one in ten reuses an older id or
/// accession, which may be taken.
fn churn_row(st: &mut Prng, fresh: &mut i64) -> Vec<Value> {
    *fresh += 1;
    let mut key = || match st.below(10) {
        0 => st.below(*fresh as usize) as i64,
        _ => *fresh,
    };
    let (id, acc) = (key(), key());
    let score = st.below(5);
    shape_row(id, acc, group(st), score.checked_sub(1))
}

fn index_stats(db: &Database, index: &str) -> IndexStats {
    let stats = db.stats().unwrap();
    let table = stats.tables.iter().find(|t| t.name == "t").unwrap();
    table.indexes.iter().find(|(name, _)| name == index).unwrap().1
}

/// Entries in the run: the live ones outside the delta, plus the dead. It
/// changes only when a merge (or a reopen) builds a new run.
fn run_len(ix: IndexStats) -> usize {
    ix.entries - ix.delta + ix.dead
}

/// Every index read of `table` against what a scan derives: the entry
/// list, and for a few keys it holds and one it does
/// not, `lookup`, `lookup_prefix` and `index_prefix_count` on the leading
/// column, and one `for_each_match` over all of them with a repeat.
fn assert_reads_match_scan(table: &Table, st: &mut Prng, context: &str) {
    let rows: Vec<(RowId, Row)> = table.scan().collect();
    let row = |id: &RowId| rows.iter().find(|(r, _)| r == id).unwrap().1.clone();
    for def in table.schema().indexes() {
        let (name, context) = (&def.name, format!("{context}: {}", def.name));
        let mut expect: Entries = rows.iter().map(|(id, r)| (r.project(&def.columns), *id)).collect();
        expect.sort();
        assert_eq!(table.index_entry_list(name).unwrap(), expect, "{context}: entries");
        let absent = [Value::Int(-1), Value::Int(-1), Value::text("none"), Value::Float(-1.0), Value::Float(2.5)];
        let mut probes: Vec<Vec<Value>> = vec![def.columns.iter().map(|&c| absent[c].clone()).collect()];
        for _ in 0..3.min(expect.len()) {
            probes.push(expect[st.below(expect.len())].0.clone());
        }
        probes.push(probes[st.below(probes.len())].clone());
        for key in &probes {
            let under: Vec<Row> = expect.iter().filter(|(k, _)| k == key).map(|(_, id)| row(id)).collect();
            assert_eq!(table.lookup(name, key).unwrap(), under, "{context}: lookup {key:?}");
            let lead: Vec<Row> = expect.iter().filter(|(k, _)| k[0] == key[0]).map(|(_, id)| row(id)).collect();
            assert_eq!(table.lookup_prefix(name, &key[..1]).unwrap(), lead, "{context}: prefix {key:?}");
            assert_eq!(table.index_prefix_count(name, &key[..1]).unwrap(), lead.len(), "{context}");
        }
        // key order, then row order, then probe order
        let mut asked: Vec<(&Vec<Value>, usize)> = probes.iter().zip(0..).collect();
        asked.sort();
        let mut want = Vec::new();
        for same in asked.chunk_by(|a, b| a.0 == b.0) {
            for (_, id) in expect.iter().filter(|(k, _)| k == same[0].0) {
                want.extend(same.iter().map(|&(_, n)| (n, row(id))));
            }
        }
        let mut got = Vec::new();
        table.for_each_match(name, &probes, |n, row| got.push((n, row.clone()))).unwrap();
        assert_eq!(got, want, "{context}: for_each_match {probes:?}");
    }
}

/// What the sweep saw happen to one index.
#[derive(Debug, Default)]
struct Seen {
    merges: usize,
    run_deletes: usize,
    delta_deletes: usize,
}

#[test]
fn run_and_delta_reads_equal_a_scan_through_every_merge() {
    const INDEXES: [&str; 5] = ["pk", "by_grp", "by_acc", "by_score", "by_w"];
    let mut st = Prng::seed_from_u64(0x0000_DE17_A50F_2026);
    for pool in [None, Some(1), Some(2), Some(8)] {
        let vfs = FaultVfs::new();
        let mut db = open(&vfs, pool);
        db.create_table(shapes()).unwrap();
        let mut fresh = 0;
        let mut seen: [Seen; 5] = Default::default();
        for step in 0..300 {
            let context = format!("pool {pool:?} step {step}");
            let before = INDEXES.map(|ix| index_stats(&db, ix));
            let live: Vec<RowId> = db.table("t").unwrap().scan().map(|(id, _)| id).collect();
            let mut deleted = false;
            match st.below(20) {
                0..=5 => {
                    let row = churn_row(&mut st, &mut fresh);
                    let _ = db.with_txn(|txn| txn.insert("t", row));
                }
                6..=8 => {
                    let rows = (0..2 + st.below(14)).map(|_| churn_row(&mut st, &mut fresh)).collect();
                    let _ = db.with_txn(|txn| txn.insert_batch("t", rows));
                }
                9..=11 if !live.is_empty() => {
                    // the newest rows (their entries likely in the delta) or any
                    let n = (1 + st.below(4)).min(live.len());
                    let ids: Vec<RowId> = match st.gen_bool(0.5) {
                        true => live[live.len() - n..].to_vec(),
                        false => (0..n).map(|_| live[st.below(live.len())]).collect(),
                    };
                    let mut ids = ids;
                    ids.sort();
                    ids.dedup();
                    db.with_txn(|txn| ids.iter().try_for_each(|&id| txn.delete("t", id))).unwrap();
                    deleted = true;
                }
                12 | 13 if !live.is_empty() => {
                    let (id, row) = (live[st.below(live.len())], churn_row(&mut st, &mut fresh));
                    let _ = db.with_txn(|txn| txn.update("t", id, row));
                }
                14 | 15 if !live.is_empty() => {
                    // a delete, an update and an insert, rolled back
                    let (gone, moved) = (live[st.below(live.len())], live[st.below(live.len())]);
                    let (row, new) = (churn_row(&mut st, &mut fresh), churn_row(&mut st, &mut fresh));
                    let mut txn = db.begin();
                    let _ = txn.delete("t", gone);
                    let _ = txn.update("t", moved, row);
                    let _ = txn.insert("t", new);
                    txn.rollback().unwrap();
                }
                16 => db.checkpoint().unwrap(),
                17 if st.below(8) == 0 => {
                    drop(db);
                    db = open(&vfs, pool);
                    assert_reads_match_scan(db.table("t").unwrap(), &mut st, &context);
                    continue;
                }
                _ => {}
            }
            let after = INDEXES.map(|ix| index_stats(&db, ix));
            for ((seen, b), a) in seen.iter_mut().zip(before).zip(after) {
                if run_len(a) != run_len(b) {
                    seen.merges += 1;
                } else if deleted {
                    seen.run_deletes += usize::from(a.dead > b.dead);
                    seen.delta_deletes += usize::from(a.delta < b.delta);
                }
            }
            assert_reads_match_scan(db.table("t").unwrap(), &mut st, &context);
        }
        for (ix, seen) in INDEXES.iter().zip(&seen) {
            assert!(
                seen.merges >= 3 && seen.run_deletes > 0 && seen.delta_deletes > 0,
                "pool {pool:?} index {ix}: {seen:?}"
            );
        }
    }
}

/// `shapes` holding rows 0..64, checkpointed and reopened under `pool`:
/// every index is one run, with no delta and no dead marks.
fn frozen(pool: Option<usize>) -> (FaultVfs, Database) {
    let vfs = FaultVfs::new();
    let mut db = open(&vfs, pool);
    db.create_table(shapes()).unwrap();
    let rows = (0..64).map(|i| shape_row(i, i, i % 4, Some(i as usize % 5))).collect();
    db.with_txn(|txn| txn.insert_batch("t", rows).map(drop)).unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let db = open(&vfs, pool);
    for ix in ["pk", "by_grp", "by_acc", "by_score", "by_w"] {
        assert_eq!(index_stats(&db, ix), IndexStats { entries: 64, bytes: index_stats(&db, ix).bytes, ..IndexStats::default() });
    }
    (vfs, db)
}

/// Bulk-build index `def` from `entries`, as a table's open does.
fn build(def: &IndexDef, spec: KeySpec, entries: Vec<(IndexKey, RowId)>) -> IndexStore {
    let mut builder = IndexBuilder::new(spec, entries.len()).unwrap();
    entries.into_iter().for_each(|(key, row)| builder.push(key, row));
    builder.finish("t", def).unwrap()
}

/// `by_acc` of `shapes` bulk-built over accessions `A0..A64` at rows 0..64.
fn frozen_by_acc() -> (KeySpec, IndexStore) {
    let schema = shapes();
    let def = schema.index("by_acc").unwrap();
    let spec = KeySpec::new(&schema, def);
    let run = (0..64).map(|i| (spec.probe(&[Value::text(format!("A{i}"))]).unwrap(), RowId(i))).collect();
    (spec.clone(), build(def, spec, run))
}

fn insert(db: &mut Database, row: Vec<Value>) -> Result<RowId, StoreError> {
    db.with_txn(|txn| txn.insert("t", row))
}

fn violation_on(result: Result<impl std::fmt::Debug, StoreError>, index: &str) {
    assert!(
        matches!(&result, Err(StoreError::UniqueViolation { index: ix, .. }) if ix == index),
        "{index}: {result:?}"
    );
}

#[test]
fn a_unique_key_taken_in_the_run_is_rejected() {
    for pool in [None, Some(2)] {
        let (_vfs, mut db) = frozen(pool);
        violation_on(insert(&mut db, shape_row(5, 100, 0, None)), "pk");
        violation_on(insert(&mut db, shape_row(100, 7, 0, None)), "by_acc");
        violation_on(db.with_txn(|txn| txn.update("t", RowId(1), shape_row(1, 7, 0, None))), "by_acc");
        assert_eq!(index_stats(&db, "by_acc").delta, 0, "nothing was entered");
        assert_indexes_match_rows(db.table("t").unwrap(), "refused");
    }
    let (spec, ix) = frozen_by_acc();
    assert!(ix.would_conflict(&spec.probe(&[Value::text("A7")]).unwrap()));
}

#[test]
fn a_unique_key_taken_in_the_delta_is_rejected() {
    for pool in [None, Some(2)] {
        let (_vfs, mut db) = frozen(pool);
        insert(&mut db, shape_row(100, 100, 0, None)).unwrap();
        assert_eq!((index_stats(&db, "pk").delta, index_stats(&db, "by_acc").delta), (1, 1));
        violation_on(insert(&mut db, shape_row(100, 101, 0, None)), "pk");
        violation_on(insert(&mut db, shape_row(101, 100, 0, None)), "by_acc");
        let batch = vec![shape_row(102, 102, 0, None), shape_row(103, 100, 0, None)];
        violation_on(db.with_txn(|txn| txn.insert_batch("t", batch)), "by_acc");
        violation_on(db.with_txn(|txn| txn.update("t", RowId(1), shape_row(1, 100, 0, None))), "by_acc");
        assert_indexes_match_rows(db.table("t").unwrap(), "refused");
    }
    let (spec, mut ix) = frozen_by_acc();
    let key = spec.probe(&[Value::text("fresh")]).unwrap();
    ix.insert(key.clone(), RowId(70));
    assert!(ix.would_conflict(&key), "the delta holds the key");
}

#[test]
fn a_dead_run_entrys_key_is_taken_again() {
    for pool in [None, Some(2)] {
        let (_vfs, mut db) = frozen(pool);
        db.with_txn(|txn| txn.delete("t", RowId(5))).unwrap();
        assert_eq!(index_stats(&db, "pk").dead, 1);
        let again = insert(&mut db, shape_row(5, 5, 1, None)).unwrap();
        assert_eq!(again, RowId(64));
        let table = db.table("t").unwrap();
        assert_eq!(table.lookup_row_ids("pk", &[Value::Int(5)]).unwrap(), [again]);
        assert_eq!(table.lookup_row_ids("by_acc", &[Value::text("A5")]).unwrap(), [again]);
        assert_indexes_match_rows(table, "re-taken");
    }
    let (spec, mut ix) = frozen_by_acc();
    let key = spec.probe(&[Value::text("A5")]).unwrap();
    ix.remove(&key, RowId(5));
    assert!(!ix.would_conflict(&key));
    ix.insert(key, RowId(99));
    assert_eq!(ix.entry_count(), 64);
}

#[test]
fn a_multi_index_reinsert_of_a_held_entry_is_a_no_op() {
    let schema = shapes();
    let def = schema.index("by_grp").unwrap();
    let spec = KeySpec::new(&schema, def);
    let grp = |g: i64| spec.probe(&[Value::Int(g)]).unwrap();
    let run = (0..64).map(|i| (grp(i % 4), RowId(i as u64))).collect();
    let mut ix = build(def, spec.clone(), run);
    ix.insert(grp(1), RowId(5));
    assert_eq!((ix.entry_count(), ix.stats().delta), (64, 0), "held in the run");
    ix.insert(grp(1), RowId(99));
    ix.insert(grp(1), RowId(99));
    assert_eq!((ix.entry_count(), ix.stats().delta), (65, 1), "held in the delta");
    let mut under = Vec::new();
    ix.lookup(&grp(1), |id| {
        under.push(id);
        true
    });
    let want: Vec<RowId> = (1..64).step_by(4).chain([99]).map(RowId).collect();
    assert_eq!(under, want);
}

#[test]
fn a_rollback_restores_a_deleted_run_entry() {
    for pool in [None, Some(2)] {
        let (_vfs, mut db) = frozen(pool);
        let mut txn = db.begin();
        txn.delete("t", RowId(10)).unwrap();
        txn.update("t", RowId(11), shape_row(11, 500, 3, None)).unwrap();
        txn.rollback().unwrap();
        for ix in ["pk", "by_grp", "by_acc", "by_score", "by_w"] {
            let stats = index_stats(&db, ix);
            assert_eq!((stats.entries, stats.dead), (64, 0), "{ix}: the run entries live again");
        }
        let table = db.table("t").unwrap();
        assert_eq!(table.lookup_row_ids("by_acc", &[Value::text("A10")]).unwrap(), [RowId(10)]);
        assert!(table.lookup_row_ids("by_acc", &[Value::text("A500")]).unwrap().is_empty());
        assert_indexes_match_rows(table, "rolled back");
    }
}

/// Whether an index's run holds its keys in `u32` lanes: a `pk`, `by_grp`
/// or `by_w` entry then weighs 8 or 12 B in the run (key lanes and a `u32`
/// row id), not 12 or 20.
fn narrow(db: &Database, index: &str) -> bool {
    let ix = index_stats(db, index);
    let per_entry = if index == "by_w" { 12 } else { 8 };
    ix.bytes - 48 * ix.delta < (per_entry + 2) * run_len(ix)
}

#[test]
fn a_probe_outside_the_runs_lanes_is_answered_by_the_delta() {
    for pool in [None, Some(2)] {
        let (_vfs, mut db) = frozen(pool);
        // ids 0..64 and groups 0..4 sit in narrow runs; one row lies below
        // every lane, one past the top
        let below = insert(&mut db, shape_row(-7, 100, -(1 << 40), None)).unwrap();
        let above = insert(&mut db, shape_row(1 << 40, 101, 1 << 40, None)).unwrap();
        for ix in ["pk", "by_grp", "by_w"] {
            assert_eq!(index_stats(&db, ix).delta, 2, "{ix}");
            assert!(narrow(&db, ix), "{ix}: the delta holds the far keys");
        }
        for (id, grp, row) in [(-7, -(1 << 40), below), (1 << 40, 1 << 40, above)] {
            let table = db.table("t").unwrap();
            assert_eq!(table.lookup_row_ids("pk", &[Value::Int(id)]).unwrap(), [row]);
            assert_eq!(table.lookup_row_ids("by_grp", &[Value::Int(grp)]).unwrap(), [row]);
            let probes = [[Value::Int(id)], [Value::Int(5)]];
            let mut matched = Vec::new();
            table.for_each_match("pk", &probes, |n, _| matched.push(n)).unwrap();
            assert_eq!(matched, if id < 5 { [0, 1] } else { [1, 0] }, "in key order");
            assert_eq!(table.lookup("pk", &[Value::Int(id)]).unwrap().len(), 1);
            violation_on(insert(&mut db, shape_row(id, 200, 0, None)), "pk");
        }
        assert_reads_match_scan(db.table("t").unwrap(), &mut Prng::seed_from_u64(7), "outside the lanes");
    }
}

#[test]
fn a_run_goes_wide_for_an_outlier_and_narrow_again_without_it() {
    for pool in [None, Some(2)] {
        let (_vfs, mut db) = frozen(pool);
        let mut st = Prng::seed_from_u64(11);
        // nine rows are more than an eighth of the run: the batch merges at
        // once, and its last row's id, group and w lie 2^33 past the rest
        let mut rows: Vec<_> = (64..72).map(|i| shape_row(i, i, i % 4, None)).collect();
        rows.push(shape_row(1 << 33, 72, 1 << 33, None));
        let ids = db.with_txn(|txn| txn.insert_batch("t", rows)).unwrap();
        for ix in ["pk", "by_grp", "by_w"] {
            assert_eq!((index_stats(&db, ix).delta, run_len(index_stats(&db, ix))), (0, 73), "{ix}");
            assert!(!narrow(&db, ix), "{ix}: the outlier takes the run wide");
        }
        assert_reads_match_scan(db.table("t").unwrap(), &mut st, "wide");
        // the outlier deleted, then a batch that merges its dead mark away
        db.with_txn(|txn| txn.delete("t", ids[8]).map(drop)).unwrap();
        let rows = (73..83).map(|i| shape_row(i, i, i % 4, None)).collect();
        db.with_txn(|txn| txn.insert_batch("t", rows).map(drop)).unwrap();
        for ix in ["pk", "by_grp", "by_w"] {
            let stats = index_stats(&db, ix);
            assert_eq!((stats.delta, stats.dead, run_len(stats)), (0, 0, 82), "{ix}");
            assert!(narrow(&db, ix), "{ix}: narrow again");
        }
        assert_reads_match_scan(db.table("t").unwrap(), &mut st, "narrow again");
        // a unique key held only by a narrow run entry is taken
        violation_on(insert(&mut db, shape_row(70, 500, 0, None)), "pk");
        assert_eq!(index_stats(&db, "pk").delta, 0, "nothing was entered");
    }
}
