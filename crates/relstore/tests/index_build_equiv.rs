//! Index build equivalence: the encoded keys order exactly as the values
//! they encode, an index bulk-built at recovery equals the one maintained
//! row by row, and `open` rebuilds — or refuses — from any mix of page
//! directory and WAL. A seeded deterministic sweep: a failure pins to a round number.

use relstore::codec::{crc32, put_varint};
use relstore::db::{heap_file_name, PAGEDIR_FILE, WAL_FILE};
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
    let path = Path::new("/db").join(WAL_FILE);
    let len = vfs.file_len(&path).unwrap().unwrap_or(0);
    let mut wal = WalWriter::open(Arc::new(vfs.clone()), &path, len, false).unwrap();
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
    let insert =
        |row_id: u64, id: i64, acc: &str| LogRecord::insert_run("t", RowId(row_id), &[vec![Value::Int(id), Value::text(acc)]]);
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
            vec![LogRecord::insert_run("t", RowId(4), &[vec![Value::text("not an id"), Value::text("zz")]])],
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

/// Re-frame the store's WAL, each frame under a valid checksum, with the
/// body of its one logged run — from row `first` on: the count, then the
/// cells — replaced by `patch` of it: a writer's defect behind the frame's
/// checksum, not a torn write.
fn patch_logged_run(vfs: &FaultVfs, first: u8, patch: &dyn Fn(&mut Vec<u8>)) {
    let path = Path::new("/db").join(WAL_FILE);
    let wal = vfs.peek(&path).unwrap();
    let (mut out, mut at, mut patched) = (Vec::new(), 0, 0);
    while at < wal.len() {
        let len = u32::from_le_bytes(wal[at..at + 4].try_into().unwrap()) as usize;
        let mut payload = wal[at + 8..at + 8 + len].to_vec();
        at += 8 + len;
        if payload[0] == 8 {
            // a run: its tag, the table "t", the first row id, then the body
            assert_eq!(payload[..4], [8, 1, b't', first], "located the logged run");
            let mut body = payload.split_off(4);
            patch(&mut body);
            payload.extend_from_slice(&body);
            patched += 1;
        }
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
    }
    assert_eq!(patched, 1, "the log holds one run");
    let mut file = vfs.create(&path).unwrap();
    file.write_all(&out).unwrap();
    file.sync().unwrap();
}

/// [`patch_logged_run`] of a store whose one logged run is the single
/// insert of row 3: `patch` gets that row's cell.
fn patch_logged_cell(vfs: &FaultVfs, patch: &dyn Fn(&mut Vec<u8>)) {
    patch_logged_run(vfs, 3, &|body| {
        assert_eq!(body[0], 1, "a run of one");
        let mut cell = body.split_off(1);
        patch(&mut cell);
        body.extend_from_slice(&cell);
    });
}

/// A tail cell that is not a row, in a directory whose checksum is right: a
/// writer's defect, not a torn write. No older generation explains it, so
/// `open` refuses — with or without a pool, at the directory's own walk of
/// the cell where that cannot find the cell's end, at the index build's
/// cell walk where it can — and nothing is allocated on the forged numbers.
/// A logged cell behind a valid frame checksum is refused by replay's walk.
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
        // text that is not UTF-8: the directory's walk passes it, the cell walk reads it
        let msg = forge(&|image| image[at + 6..].copy_from_slice(&[0xff, 0xfe]));
        assert!(msg.contains("not UTF-8"), "{msg}");
        // a text value in the Int key column `id`: Text "x" for Int(2)
        let msg = forge(&|image| image.splice(at + 2..at + 4, [3, 1, b'x']).for_each(drop));
        assert!(msg.contains("row cell 0 does not conform to its indexed column type INT"), "{msg}");
        // a NULL in the key column `acc`, which is not nullable
        let msg = forge(&|image| image.splice(at + 4.., [0]).for_each(drop));
        assert!(msg.contains("row cell 1 does not conform to its indexed column type TEXT"), "{msg}");
        // bytes the directory's walk leaves behind the last cell
        let msg = forge(&|image| image.push(0));
        assert!(msg.contains("page directory leaves 1 bytes unread"), "{msg}");
        // a logged cell with a byte behind its row: the frame's length says
        // where the run ends, and the walk of its last cell does not use it up
        let vfs = seeded(pool);
        patch_logged_cell(&vfs, &|cell| cell.push(0));
        match try_open(&vfs, pool) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("table t: 1 bytes trail logged row #3"), "{msg}"),
            other => panic!("pool {pool:?}: must be corrupt, got {other:?}"),
        }
    }
}

/// A logged run whose bytes disagree with themselves behind a valid frame
/// checksum — its count against its cells, a cell that runs past the
/// payload or is no row, bytes behind its last cell — is refused as
/// `Corrupt`, naming the table and the row, and the open writes nothing.
#[test]
fn a_damaged_run_behind_a_valid_checksum_is_refused_and_nothing_is_written() {
    for pool in [None, Some(2)] {
        let seeded_run = || {
            let vfs = FaultVfs::new();
            let mut db = open(&vfs, pool);
            db.create_table(unique_schema()).unwrap();
            db.checkpoint().unwrap();
            let rows = ["aa", "bb", "qq"].iter().enumerate().map(|(i, acc)| vec![Value::Int(i as i64), Value::text(*acc)]);
            db.with_txn(|txn| txn.insert_batch("t", rows.collect()).map(drop)).unwrap();
            vfs
        };
        // the body: count 3, then the cells of rows 0 to 2, 7 bytes each
        let cell = |i: u8, acc: u8| [2, 1, 2 * i, 3, 2, acc, acc];
        let body = [&[3][..], &cell(0, b'a'), &cell(1, b'b'), &cell(2, b'q')].concat();
        type Patch = dyn Fn(&mut Vec<u8>);
        let cases: [(&str, &Patch); 6] = [
            ("a logged run of 99 rows from #0 in 21 bytes of cells", &|b| b[0] = 99),
            ("a logged run of 0 rows from #0", &|b| b[0] = 0),
            ("a logged run of 4 rows from #0 ends its cells before row #3", &|b| b[0] = 4),
            ("logged row #2: text payload truncated", &|b| b.truncate(b.len() - 1)),
            ("logged row #1: unknown value tag 9", &|b| b[1 + 7 + 3] = 9),
            ("7 bytes trail logged row #1, the last of its run", &|b| b[0] = 2),
        ];
        for (what, patch) in cases {
            let vfs = seeded_run();
            patch_logged_run(&vfs, 0, &|logged| {
                assert_eq!(logged[..], body, "located the run's body");
                patch(logged);
            });
            let files = |vfs: &FaultVfs| {
                let names = [WAL_FILE.into(), PAGEDIR_FILE.into(), heap_file_name(0), heap_file_name(1)];
                names.map(|name: String| vfs.peek(&Path::new("/db").join(name)))
            };
            let before = files(&vfs);
            match try_open(&vfs, pool) {
                Err(StoreError::Corrupt(msg)) => assert!(msg.contains(&format!("table t: {what}")), "pool {pool:?}: {msg}"),
                other => panic!("pool {pool:?}, {what}: must be corrupt, got {:?}", other.map(|db| observe_db(&db))),
            }
            assert_eq!(files(&vfs), before, "pool {pool:?}, {what}: the refused open wrote");
        }
    }
}

// ---- (iv b) byte mutations of stored cells ------------------------------

/// `id` is a dense key and `acc` a unique one, so a mutated cell can take
/// its row off its address, repeat a key, break a column's type, or stop
/// being a row at all.
fn dense_schema() -> Schema {
    Schema::builder("t")
        .column(Column::new("id", ValueType::Int))
        .column(Column::new("acc", ValueType::Text))
        .dense_key("id")
        .unique_index("by_acc", &["acc"])
        .build()
        .unwrap()
}

const DENSE_ROWS: [(i64, &str); 4] = [(1, "aa"), (2, "bb"), (3, "qq"), (4, "dd")];

/// The first `checkpointed` rows of `DENSE_ROWS` checkpointed — in the
/// directory's tail, with or without a pool — and the rest committed in
/// the WAL as one batch: one logged run.
fn dense_seeded_at(pool: Option<usize>, checkpointed: usize) -> FaultVfs {
    let vfs = FaultVfs::new();
    let mut db = open(&vfs, pool);
    db.create_table(dense_schema()).unwrap();
    let rows = |rows: &[(i64, &str)]| rows.iter().map(|&(id, acc)| vec![Value::Int(id), Value::text(acc)]).collect();
    db.with_txn(|txn| txn.insert_batch("t", rows(&DENSE_ROWS[..checkpointed])).map(drop)).unwrap();
    db.checkpoint().unwrap();
    db.with_txn(|txn| txn.insert_batch("t", rows(&DENSE_ROWS[checkpointed..])).map(drop)).unwrap();
    vfs
}

/// Rows 0 to 2 of `DENSE_ROWS` checkpointed and row 3 committed in the WAL.
fn dense_seeded(pool: Option<usize>) -> FaultVfs {
    dense_seeded_at(pool, 3)
}

/// Flip a bit, overwrite a byte, truncate, or insert one to four bytes.
fn mutate(st: &mut Prng, cell: &mut Vec<u8>) {
    let at = st.below(cell.len());
    match st.below(4) {
        0 => cell[at] ^= 1 << st.below(8),
        1 => cell[at] = st.below(256) as u8,
        2 => cell.truncate(at),
        _ => {
            let bytes: Vec<u8> = (0..1 + st.below(4)).map(|_| st.below(256) as u8).collect();
            let at = at + st.below(2);
            cell.splice(at..at, bytes).for_each(drop);
        }
    }
}

/// What opening a store whose row `row` is stored as `cell` must give.
#[derive(Debug)]
enum Want {
    /// The cell decodes whole to a row that fits the schema, its address
    /// and its unique key: the store holds these rows.
    Rows(Vec<Vec<Value>>),
    /// The cell is a row, but not one the store may hold: a typed refusal.
    Refused,
    /// The cell is no row at all.
    Corrupt,
}

fn expected(row: usize, cell: &[u8]) -> Want {
    let mut rest = cell;
    let Some(values) = relstore::codec::get_row(&mut rest).ok().filter(|_| rest.is_empty()) else {
        return Want::Corrupt;
    };
    let mut rows = dense_rows(4);
    rows[row] = values;
    judged(rows)
}

/// The first `n` rows of `DENSE_ROWS`.
fn dense_rows(n: usize) -> Vec<Vec<Value>> {
    DENSE_ROWS[..n].iter().map(|&(id, acc)| vec![Value::Int(id), Value::text(acc)]).collect()
}

/// What opening a store of `rows`, each a whole row, must give.
fn judged(rows: Vec<Vec<Value>>) -> Want {
    let fits = |r: &Vec<Value>| matches!(r[..], [Value::Int(_), Value::Text(_)]);
    let at_address = rows.iter().enumerate().all(|(i, r)| r.first() == Some(&Value::Int(i as i64 + 1)));
    let unique = rows.iter().all(|r| rows.iter().filter(|s| s.get(1) == r.get(1)).count() == 1);
    match rows.iter().all(fits) && at_address && unique {
        true => Want::Rows(rows),
        false => Want::Refused,
    }
}

/// What opening a store of rows 0 and 1 of `DENSE_ROWS`, behind which the
/// log holds a run from row 2 whose body is `body`, must give: the count
/// must be the number of rows the cells hold, back to back and whole.
fn expected_run(body: &[u8]) -> Want {
    let mut rest = body;
    let Ok(count) = relstore::codec::get_varint(&mut rest) else {
        return Want::Corrupt;
    };
    let mut rows = dense_rows(2);
    for _ in 0..count {
        match relstore::codec::get_row(&mut rest) {
            Ok(row) => rows.push(row),
            _ => return Want::Corrupt,
        }
    }
    match count > 0 && rest.is_empty() {
        true => judged(rows),
        false => Want::Corrupt,
    }
}

/// Seeded byte mutations of the last tail cell of a resealed page
/// directory, of the logged cell of a run of one, and of the body — count
/// and cells — of a logged run of two, each in a re-framed WAL, with and
/// without a pool. Each open gives exactly the rows the mutated bytes
/// decode to, with every index agreeing and a second open equal to the
/// first, or fails as `Corrupt` (always, where the bytes hold no rows),
/// `SchemaViolation` (a logged row off its schema), `UniqueViolation` or
/// `DenseKeyViolation`. A panic fails the test; an allocation sized by a
/// forged count would abort it.
#[test]
fn mutated_cells_open_to_their_rows_or_are_refused() {
    let dir_path = Path::new("/db").join(PAGEDIR_FILE);
    for pool in [None, Some(2)] {
        let image = dense_seeded(pool).peek(&dir_path).unwrap();
        // row 2 ends the directory: marker, arity 2, Int(3), Text "qq"
        let tail_cell = [2, 1, 6, 3, 2, b'q', b'q'];
        let at = image.len() - tail_cell.len();
        assert_eq!(image[at - 1..], [&[1][..], &tail_cell].concat(), "located the last tail cell");
        let logged_cell = [2, 1, 8, 3, 2, b'd', b'd'];
        // a run of rows 2 and 3: count 2, then their cells
        let run_body = [&[2][..], &tail_cell, &logged_cell].concat();
        let mut st = Prng::seed_from_u64(0x5EED_CE11 + pool.unwrap_or(0) as u64);
        for case in 0..384 {
            let (row, original) = match case % 3 {
                0 => (2, &tail_cell[..]),
                1 => (3, &logged_cell[..]),
                _ => (4, &run_body[..]),
            };
            let mut cell = original.to_vec();
            for _ in 0..1 + st.below(2) {
                if !cell.is_empty() {
                    mutate(&mut st, &mut cell);
                }
            }
            let vfs = dense_seeded_at(pool, if row == 4 { 2 } else { 3 });
            match row {
                2 => {
                    let mut file = vfs.create(&dir_path).unwrap();
                    file.write_all(&resealed([&image[..at], &cell].concat())).unwrap();
                    file.sync().unwrap();
                }
                3 => patch_logged_cell(&vfs, &|logged| {
                    assert_eq!(logged[..], logged_cell, "located the logged cell");
                    *logged = cell.clone();
                }),
                _ => patch_logged_run(&vfs, 2, &|logged| {
                    assert_eq!(logged[..], run_body, "located the logged run");
                    *logged = cell.clone();
                }),
            }
            let what = if row == 4 { "the run from row 2".to_owned() } else { format!("row {row}") };
            let context = format!("pool {pool:?} case {case}: {what} stored as {cell:?}");
            let want = if row == 4 { expected_run(&cell) } else { expected(row, &cell) };
            match (want, try_open(&vfs, pool)) {
                (Want::Rows(rows), Ok(db)) => {
                    let table = db.table("t").unwrap();
                    let got: Vec<Vec<Value>> = table.scan().map(|(_, r)| r.into_values()).collect();
                    assert_eq!(got, rows, "{context}");
                    assert_indexes_match_rows(table, &context);
                    let first = observe_db(&db);
                    drop(db);
                    assert_eq!(observe_db(&try_open(&vfs, pool).unwrap()), first, "{context}: reopen");
                }
                (Want::Corrupt, Err(StoreError::Corrupt(_))) => {}
                (
                    Want::Refused,
                    Err(
                        StoreError::Corrupt(_)
                        | StoreError::SchemaViolation(_)
                        | StoreError::UniqueViolation { .. }
                        | StoreError::DenseKeyViolation { .. },
                    ),
                ) => {}
                (want, got) => panic!("{context}: expected {want:?}, opened {:?}", got.map(|db| observe_db(&db))),
            }
        }
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
    ix.insert(key.clone(), RowId(70)).unwrap();
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
    ix.insert(key, RowId(99)).unwrap();
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
    ix.insert(grp(1), RowId(5)).unwrap();
    assert_eq!((ix.entry_count(), ix.stats().delta), (64, 0), "held in the run");
    ix.insert(grp(1), RowId(99)).unwrap();
    ix.insert(grp(1), RowId(99)).unwrap();
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
        let first = db.with_txn(|txn| txn.insert_batch("t", rows)).unwrap();
        for ix in ["pk", "by_grp", "by_w"] {
            assert_eq!((index_stats(&db, ix).delta, run_len(index_stats(&db, ix))), (0, 73), "{ix}");
            assert!(!narrow(&db, ix), "{ix}: the outlier takes the run wide");
        }
        assert_reads_match_scan(db.table("t").unwrap(), &mut st, "wide");
        // the outlier deleted, then a batch that merges its dead mark away
        db.with_txn(|txn| txn.delete("t", RowId(first.0 + 8)).map(drop)).unwrap();
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

/// Every (key, row) entry `ix` holds, in the order it reads them.
fn all_entries(ix: &IndexStore) -> Vec<(IndexKey, RowId)> {
    let mut out = Vec::new();
    ix.visit_all(|key, row| {
        out.push((key, row));
        true
    });
    out
}

/// The bulk build's radix sort against a `sort_unstable` reference and the
/// index maintained entry by entry: thousands of entries pushed in shuffled
/// row order (so the row cell takes its passes too) or in ascending row
/// order (so it takes none), over one to four integer key columns whose
/// lanes span one, two or three 11-bit digits or the full 32 bits, with row
/// ids spanning one to three digits, and repeated keys in multi indexes. A
/// repeated key in a unique index is still refused, naming the key.
#[test]
fn radix_sorted_runs_equal_a_comparison_sort_and_the_maintained_index() {
    let mut builder = Schema::builder("r");
    for c in 0..4 {
        builder = builder.column(Column::new(format!("c{c}"), ValueType::Int));
    }
    let names = ["c0", "c1", "c2", "c3"];
    for k in 1..=4 {
        builder = builder.index(&format!("m{k}"), &names[..k]).unique_index(&format!("u{k}"), &names[..k]);
    }
    let schema = builder.build().unwrap();
    testkit::cases(24, |st| {
        let k = 1 + st.below(4);
        let unique = st.gen_bool(0.5);
        let def = schema.index(&format!("{}{k}", if unique { "u" } else { "m" })).unwrap();
        let spec = KeySpec::new(&schema, def);
        // each column's lanes span exactly `spans[c]`: its base and its base
        // plus the span both occur
        let spans: Vec<u64> = (0..k).map(|_| *st.pick(&[(1 << 11) - 1, (1 << 22) - 1, 1 << 31, u32::MAX.into()])).collect();
        let bases: Vec<i64> = (0..k).map(|_| st.gen_range(-(1i64 << 40)..(1i64 << 40))).collect();
        let n = 5_000 + st.below(3_000);
        // a small pool of offsets makes keys repeat; a wide draw mostly not
        let pool: Vec<u64> = (0..1 + st.below(40)).map(|_| st.next_u64()).collect();
        let mut keys: Vec<Vec<i64>> = (0..n)
            .map(|i| {
                (0..k)
                    .map(|c| {
                        let offset = match i {
                            0 => 0,
                            1 => spans[c],
                            _ if st.gen_bool(0.3) => *st.pick(&pool) % (spans[c] + 1),
                            _ => st.next_u64() % (spans[c] + 1),
                        };
                        bases[c] + offset as i64
                    })
                    .collect()
            })
            .collect();
        if unique {
            let mut seen = std::collections::HashSet::new();
            keys.retain(|key| seen.insert(key.clone()));
        }
        let gap = *st.pick(&[1u64, 3, 700, 500_000]);
        let mut entries: Vec<(IndexKey, RowId)> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let values: Vec<Value> = key.iter().map(|&v| Value::Int(v)).collect();
                (spec.probe(&values).unwrap(), RowId(i as u64 * gap))
            })
            .collect();
        if st.gen_bool(0.75) {
            for i in (1..entries.len()).rev() {
                entries.swap(i, st.below(i + 1));
            }
        }
        let context = format!("{k} columns, spans {spans:?}, row gap {gap}, unique {unique}");
        let built = build(def, spec.clone(), entries.clone());
        let mut maintained = IndexStore::new(spec.clone(), unique);
        entries.iter().for_each(|(key, row)| maintained.insert(key.clone(), *row).unwrap());
        let mut reference = entries.clone();
        reference.sort_unstable();
        assert_eq!(all_entries(&built), reference, "{context}: built run");
        assert_eq!(all_entries(&maintained), reference, "{context}: maintained index");
        // the run took `u32` cells: the path that radix-sorts
        let cells = (k + 1) * std::mem::size_of::<u32>();
        assert!(built.stats().bytes < (cells + 1) * reference.len(), "{context}: {:?}", built.stats());

        if unique {
            let (key, _) = entries[st.below(entries.len())].clone();
            let values = spec.decode(&key).unwrap();
            entries.push((key, RowId(entries.len() as u64 * gap + 1)));
            let mut builder = IndexBuilder::new(spec.clone(), entries.len()).unwrap();
            entries.into_iter().for_each(|(key, row)| builder.push(key, row));
            match builder.finish("r", def) {
                Err(StoreError::UniqueViolation { table, index, key }) => {
                    assert_eq!((table.as_str(), index.as_str()), ("r", def.name.as_str()), "{context}");
                    assert_eq!(key, relstore::index::format_key(&values), "{context}");
                }
                other => panic!("{context}: a repeated unique key built {:?}", other.map(|ix| ix.stats())),
            }
        }
    });
}

// ---- (vi) batches, single writes and rollbacks against a model ---------

/// The sweep's three key shapes: one lane (`one`), two lanes (`two`, whose
/// second column has an outlier 2⁴⁰ off, so its lanes take two cells when
/// it is held), and a variable-width unique key shaped like `by_accession`
/// (`acc`).
fn sweep_schema() -> Schema {
    Schema::builder("s")
        .column(Column::new("a", ValueType::Int))
        .column(Column::new("b", ValueType::Int))
        .column(Column::new("acc", ValueType::Text))
        .index("one", &["a"])
        .index("two", &["a", "b"])
        .unique_index("acc", &["a", "acc"])
        .build()
        .unwrap()
}

type Model = std::collections::BTreeSet<(Vec<Value>, RowId)>;

/// A read's sink that keeps every row id it is fed.
fn into(out: &mut Vec<RowId>) -> impl FnMut(RowId) -> bool + '_ {
    |id| {
        out.push(id);
        true
    }
}

/// The sweep's state: each index beside its model, and the live rows.
struct Sweep {
    indexes: Vec<(IndexDef, IndexStore, Model)>,
    rows: std::collections::BTreeMap<RowId, [Value; 3]>,
    next: u64,
    /// Keys past every one held so far, for appended batches.
    past: i64,
}

impl Sweep {
    fn new(first: u64) -> Sweep {
        let schema = sweep_schema();
        let indexes = schema
            .indexes()
            .iter()
            .map(|def| (def.clone(), IndexStore::new(KeySpec::new(&schema, def), def.unique), Model::new()))
            .collect();
        Sweep { indexes, rows: Default::default(), next: first, past: 1_000 }
    }

    /// A row: keys drawn from a small pool, so they repeat, or appended
    /// past every key held; one in twenty `b`s is the outlier.
    fn row(&mut self, st: &mut Prng, append: bool) -> [Value; 3] {
        let a = match append {
            true => {
                self.past += 1 + st.below(3) as i64;
                self.past
            }
            false => st.below(40) as i64,
        };
        let b = if st.below(20) == 0 { 1 << 40 } else { st.below(500) as i64 };
        [Value::Int(a), Value::Int(b), Value::text(format!("A{}", st.below(4_000)))]
    }

    fn key(def: &IndexDef, row: &[Value]) -> Vec<Value> {
        def.columns.iter().map(|&c| row[c].clone()).collect()
    }

    /// Whether the unique `acc` would refuse `rows`: a key repeated among
    /// them, or held already.
    fn refused(&self, rows: &[[Value; 3]]) -> bool {
        let (def, _, model) = &self.indexes[2];
        let mut keys: Vec<Vec<Value>> = rows.iter().map(|r| Self::key(def, r)).collect();
        keys.sort();
        keys.windows(2).any(|w| w[0] == w[1]) || keys.iter().any(|k| model.range((k.clone(), RowId(0))..).next().is_some_and(|(h, _)| h == k))
    }

    /// Enter `rows` as one batch per index, as a table does: every batch is
    /// built and checked before any is absorbed. Returns whether it went in.
    fn batch(&mut self, rows: Vec<[Value; 3]>) -> bool {
        let first = RowId(self.next);
        let batches: Vec<_> = self.indexes.iter().map(|(_, ix, _)| ix.batch(&rows, first).unwrap()).collect();
        let clash = self.indexes.iter().zip(&batches).find_map(|((_, ix, _), b)| ix.clash(b));
        assert_eq!(clash.is_some(), self.refused(&rows), "clash {clash:?}");
        if clash.is_some() {
            return false;
        }
        for ((def, ix, model), batch) in self.indexes.iter_mut().zip(batches) {
            ix.absorb(batch).unwrap();
            for (n, row) in rows.iter().enumerate() {
                model.insert((Self::key(def, row), RowId(first.0 + n as u64)));
            }
        }
        for row in rows {
            self.rows.insert(RowId(self.next), row);
            self.next += 1;
        }
        true
    }

    /// Take `id`'s entries out of every index: dead marks.
    fn remove(&mut self, id: RowId) -> [Value; 3] {
        let row = self.rows.remove(&id).unwrap();
        for (def, ix, model) in &mut self.indexes {
            let key = Self::key(def, &row);
            ix.remove(&ix.spec().probe(&key).unwrap(), id);
            assert!(model.remove(&(key, id)));
        }
        row
    }

    /// Enter `row` at `id` one entry per index, as a restore or an update
    /// does: a batch of one, or a revived dead mark.
    fn put(&mut self, id: RowId, row: [Value; 3]) {
        for (def, ix, model) in &mut self.indexes {
            let key = Self::key(def, &row);
            ix.insert(ix.spec().probe(&key).unwrap(), id).unwrap();
            model.insert((key, id));
        }
        self.rows.insert(id, row);
    }

    fn live(&self, st: &mut Prng) -> Option<RowId> {
        let n = self.rows.len();
        (n > 0).then(|| *self.rows.keys().nth(st.below(n)).unwrap())
    }

    /// Every read of every index against its model and against the index
    /// `IndexBuilder` builds from the live rows.
    fn check(&self, st: &mut Prng, context: &str) {
        for (def, ix, model) in &self.indexes {
            let context = format!("{context}: {}", def.name);
            let spec = ix.spec();
            let mut builder = IndexBuilder::new(spec.clone(), self.rows.len()).unwrap();
            self.rows.iter().for_each(|(id, row)| builder.push_row(row, *id).unwrap());
            let rebuilt = builder.finish("s", def).unwrap();
            let want: Vec<(Vec<Value>, RowId)> = model.iter().cloned().collect();
            for index in [ix, &rebuilt] {
                let mut all = Vec::new();
                index.visit_all(|key, id| {
                    all.push((spec.decode(&key).unwrap(), id));
                    true
                });
                assert_eq!(all, want, "{context}: visit_all");
            }
            assert_eq!(ix.entry_count(), model.len(), "{context}");
            // some keys held, one past every key and one never drawn
            let mut keys: Vec<Vec<Value>> = (0..6.min(want.len())).map(|_| want[st.below(want.len())].0.clone()).collect();
            keys.push(Self::key(def, &[Value::Int(i64::MAX), Value::Int(0), Value::text("none")]));
            keys.push(Self::key(def, &[Value::Int(-1), Value::Int(-1), Value::text("")]));
            keys.sort();
            keys.dedup();
            let (mut cursor, mut rebuilt_cursor) = (ix.cursor(), rebuilt.cursor());
            for key in &keys {
                let under: Vec<RowId> = want.iter().filter(|(k, _)| k == key).map(|e| e.1).collect();
                let probe = spec.probe(key).unwrap();
                for (index, cursor) in [(ix, &mut cursor), (&rebuilt, &mut rebuilt_cursor)] {
                    let (mut looked, mut sought, mut prefixed) = (Vec::new(), Vec::new(), Vec::new());
                    index.lookup(&probe, into(&mut looked));
                    index.seek(&probe, cursor, into(&mut sought));
                    index.visit_prefix(&spec.probe(&key[..1]).unwrap(), into(&mut prefixed));
                    assert_eq!(looked, under, "{context}: lookup {key:?}");
                    assert_eq!(sought, under, "{context}: seek {key:?}");
                    let lead: Vec<RowId> = want.iter().filter(|(k, _)| k[0] == key[0]).map(|e| e.1).collect();
                    assert_eq!(prefixed, lead, "{context}: prefix {key:?}");
                }
            }
        }
    }
}

/// The write path against a model, after every step: batches of 1 to 2 000
/// rows, appended past every key or interleaved with the held ones, single
/// inserts, deletes and updates, rolled-back batches and rolled-back
/// deletes, from row ids at 0 or straddling 2³², over one-lane,
/// two-lane and variable-width keys. Every index reads as its model and as
/// the index `IndexBuilder` builds from the same rows.
#[test]
fn batched_single_and_rolled_back_writes_read_as_a_model_and_a_rebuilt_index() {
    let mut seen = [0usize; 7];
    testkit::cases(10, |st| {
        let mut sweep = Sweep::new(*st.pick(&[0, u64::from(u32::MAX) - 700]));
        for step in 0..40 {
            let context = format!("step {step}");
            let op = st.below(8);
            match op {
                0..=2 => {
                    let n = match st.below(4) {
                        0 => 1,
                        1 => 2 + st.below(30),
                        2 => 100 + st.below(300),
                        _ => 1_000 + st.below(1_001),
                    };
                    let append = st.gen_bool(0.5);
                    let rows = (0..n).map(|_| sweep.row(st, append)).collect();
                    sweep.batch(rows);
                }
                3 => {
                    let row = sweep.row(st, false);
                    if !sweep.refused(std::slice::from_ref(&row)) {
                        let id = RowId(sweep.next);
                        sweep.next += 1;
                        sweep.put(id, row);
                    }
                }
                4 => {
                    for _ in 0..1 + st.below(20) {
                        if let Some(id) = sweep.live(st) {
                            sweep.remove(id);
                        }
                    }
                }
                5 => {
                    if let Some(id) = sweep.live(st) {
                        let old = sweep.remove(id);
                        let new = sweep.row(st, false);
                        let row = if sweep.refused(std::slice::from_ref(&new)) { old } else { new };
                        sweep.put(id, row);
                    }
                }
                6 => {
                    // a batch that commits nowhere: its rows deleted again,
                    // last first
                    let append = st.gen_bool(0.5);
                    let rows: Vec<_> = (0..1 + st.below(500)).map(|_| sweep.row(st, append)).collect();
                    let first = sweep.next;
                    if sweep.batch(rows) {
                        (first..sweep.next).rev().for_each(|id| drop(sweep.remove(RowId(id))));
                    }
                }
                _ => {
                    // deletes rolled back: each entry revived, last first
                    let ids: std::collections::BTreeSet<RowId> = (0..1 + st.below(200)).filter_map(|_| sweep.live(st)).collect();
                    let gone: Vec<_> = ids.into_iter().map(|id| (id, sweep.remove(id))).collect();
                    let dead: usize = sweep.indexes.iter().map(|(_, ix, _)| ix.stats().dead).sum();
                    gone.into_iter().rev().for_each(|(id, row)| sweep.put(id, row));
                    let after: usize = sweep.indexes.iter().map(|(_, ix, _)| ix.stats().dead).sum();
                    assert!(after <= dead, "{context}: a restore revives, it adds no dead mark");
                }
            }
            seen[op.min(6)] += 1;
            sweep.check(st, &context);
        }
    });
    assert!(seen.iter().all(|&n| n > 10), "every kind of step ran: {seen:?}");
}
