//! Seeded sweeps over the storage engine: codec round-trips, index/scan
//! equivalence, and durability.

use relstore::codec;
use relstore::db::Database;
use relstore::predicate::Predicate;
use relstore::row::Row;
use relstore::schema::{Column, Schema};
use relstore::table::Table;
use relstore::value::{Value, ValueType};
use relstore::vfs::FaultVfs;
use std::path::Path;
use std::sync::Arc;
use testkit::{cases, text, Prng, TempDir};

/// Any `i64`, with the edges and a small colliding range drawn often
/// enough that duplicate keys and sign boundaries occur in most cases.
fn int(rng: &mut Prng) -> i64 {
    match rng.below(4) {
        0 => *rng.pick(&[0, 1, -1, i64::MIN, i64::MAX]),
        1 | 2 => rng.gen_range(-20..20),
        _ => rng.next_u64() as i64,
    }
}

fn float(rng: &mut Prng) -> f64 {
    match rng.below(3) {
        0 => *rng.pick(&[
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ]),
        1 => rng.gen_f64() * 2.0 - 1.0,
        // every bit pattern, NaN payloads and subnormals included
        _ => f64::from_bits(rng.next_u64()),
    }
}

fn value(rng: &mut Prng) -> Value {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:_.-";
    match rng.below(5) {
        0 => Value::Null,
        1 => Value::Int(int(rng)),
        2 => Value::Float(float(rng)),
        3 => Value::Text(text(rng, ALPHABET, 0..=24)),
        _ => Value::Bytes((0..rng.below(32)).map(|_| rng.below(256) as u8).collect()),
    }
}

fn row(rng: &mut Prng) -> Vec<Value> {
    (0..rng.below(8)).map(|_| value(rng)).collect()
}

#[test]
fn codec_value_roundtrip() {
    cases(256, |rng| {
        let v = value(rng);
        let mut buf = Vec::new();
        codec::put_value(&mut buf, &v);
        let mut b = &buf[..];
        assert_eq!(codec::get_value(&mut b).unwrap(), v);
        assert!(b.is_empty());
    });
}

#[test]
fn codec_row_roundtrip() {
    cases(256, |rng| {
        let row = row(rng);
        let mut buf = Vec::new();
        codec::put_row(&mut buf, &row);
        assert_eq!(codec::get_row(&mut &buf[..]).unwrap(), row);
    });
}

#[test]
fn codec_rejects_random_garbage_without_panicking() {
    cases(256, |rng| {
        // half the cases are pure noise, half an encoded row with a few
        // bytes overwritten, so the decoder gets past the first tag
        let mut data: Vec<u8> = Vec::new();
        if rng.gen_bool(0.5) {
            codec::put_row(&mut data, &row(rng));
            for _ in 0..rng.below(4) {
                if !data.is_empty() {
                    let at = rng.below(data.len());
                    data[at] = rng.below(256) as u8;
                }
            }
            data.truncate(rng.below(data.len() + 1));
        } else {
            data.extend((0..rng.below(64)).map(|_| rng.below(256) as u8));
        }
        // must never panic; errors are fine
        let _ = codec::get_row(&mut &data[..]);
    });
}

#[test]
fn value_ordering_is_total_and_consistent() {
    use std::cmp::Ordering;
    cases(256, |rng| {
        let (a, b, c) = (value(rng), value(rng), value(rng));
        // antisymmetry
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // transitivity (spot form): if a<=b and b<=c then a<=c
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            assert_ne!(a.cmp(&c), Ordering::Greater);
        }
    });
}

fn test_schema() -> Schema {
    Schema::builder("t")
        .column(Column::new("id", ValueType::Int))
        .column(Column::new("grp", ValueType::Int))
        .column(Column::nullable("txt", ValueType::Text))
        .primary_key(&["id"])
        .index("by_grp", &["grp"])
        .build()
        .unwrap()
}

/// A randomized op sequence applied both to a Table and a Vec mirror.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64, Option<String>),
    Delete(usize),
    Update(usize, i64, Option<String>),
}

fn opt_text(rng: &mut Prng) -> Option<String> {
    rng.gen_bool(0.5)
        .then(|| text(rng, b"abcdefghijklmnopqrstuvwxyz", 0..=6))
}

fn op(rng: &mut Prng) -> Op {
    match rng.below(3) {
        0 => Op::Insert(int(rng), rng.gen_range(0..10), opt_text(rng)),
        1 => Op::Delete(rng.below(64)),
        _ => Op::Update(rng.below(64), rng.gen_range(0..10), opt_text(rng)),
    }
}

fn ops(rng: &mut Prng, max: usize) -> Vec<Op> {
    (0..rng.below(max)).map(|_| op(rng)).collect()
}

/// After any op sequence, an index-served select returns exactly the
/// rows a full scan filter would.
#[test]
fn index_select_equals_scan() {
    cases(64, |rng| {
        let mut table = Table::new(test_schema());
        let mut live: Vec<relstore::row::RowId> = Vec::new();
        for op in ops(rng, 80) {
            match op {
                Op::Insert(id, g, t) => {
                    let row = vec![
                        Value::Int(id),
                        Value::Int(g),
                        t.map(Value::text).unwrap_or(Value::Null),
                    ];
                    if let Ok(rid) = table.insert(row) {
                        live.push(rid);
                    }
                }
                Op::Delete(i) => {
                    if !live.is_empty() {
                        let rid = live.remove(i % live.len());
                        table.delete(rid).unwrap();
                    }
                }
                Op::Update(i, g, t) => {
                    if !live.is_empty() {
                        let rid = live[i % live.len()];
                        let old_id = table.get(rid).unwrap().get(0).clone();
                        let row = vec![
                            old_id,
                            Value::Int(g),
                            t.map(Value::text).unwrap_or(Value::Null),
                        ];
                        table.update(rid, row).unwrap();
                    }
                }
            }
        }
        for g in 0..10 {
            let p = Predicate::eq("grp", Value::Int(g));
            let via_index = table.select(&p).unwrap();
            let bound = p.bind(table.schema()).unwrap();
            let via_scan: Vec<Row> = table
                .scan()
                .filter(|(_, r)| bound.matches(r.values()))
                .map(|(_, r)| r.clone())
                .collect();
            assert_eq!(via_index, via_scan);
        }
    });
}

/// Checkpoint and reopen preserves live rows, ids — the high-water mark
/// included, whatever was deleted at the end — and index behaviour.
#[test]
fn snapshot_roundtrip() {
    cases(64, |rng| {
        let vfs = FaultVfs::new();
        let open = || Database::open_with_vfs(Arc::new(vfs.clone()), Path::new("/db")).unwrap();
        let mut db = open();
        db.create_table(test_schema()).unwrap();
        let mut live: Vec<relstore::row::RowId> = Vec::new();
        for op in ops(rng, 60) {
            if let Op::Insert(id, g, t) = op {
                let row = vec![
                    Value::Int(id),
                    Value::Int(g),
                    t.map(Value::text).unwrap_or(Value::Null),
                ];
                if let Ok(rid) = db.with_txn(|txn| txn.insert("t", row)) {
                    live.push(rid);
                }
            } else if let Op::Delete(i) = op {
                if !live.is_empty() {
                    let rid = live.remove(i % live.len());
                    db.with_txn(|txn| txn.delete("t", rid)).unwrap();
                }
            }
        }
        db.checkpoint().unwrap();
        let reopened = open();
        assert_eq!(reopened.recovery_report().unwrap().wal_txns, 0);
        let (table, back) = (db.table("t").unwrap(), reopened.table("t").unwrap());
        assert_eq!(back.len(), table.len());
        assert_eq!(back.next_row_id(), table.next_row_id());
        for (rid, row) in table.scan() {
            assert_eq!(back.get(rid).unwrap(), row);
            let hit = back.lookup_unique("pk", &[row.get(0).clone()]).unwrap();
            assert_eq!(hit.as_ref(), Some(&row));
        }
    });
}

/// Committed transactions survive reopen; the WAL replay reconstructs
/// exactly the committed state.
#[test]
fn durability_replay_equals_memory() {
    cases(16, |rng| {
        let batches: Vec<Vec<(i64, i64)>> = (0..rng.gen_range(1..5))
            .map(|_| {
                (0..rng.gen_range(1..10))
                    .map(|_| (int(rng), rng.gen_range(0..5)))
                    .collect()
            })
            .collect();
        let dir = TempDir::new("relstore-prop");

        let mut expected: Vec<(i64, i64)> = Vec::new();
        {
            let mut db = Database::open(dir.path()).unwrap();
            db.create_table(test_schema()).unwrap();
            db.checkpoint().unwrap();
            for batch in &batches {
                let mut txn = db.begin();
                let mut ok = true;
                let mut staged = Vec::new();
                for (id, g) in batch {
                    match txn.insert("t", vec![Value::Int(*id), Value::Int(*g), Value::Null]) {
                        Ok(_) => staged.push((*id, *g)),
                        Err(_) => { ok = false; break; }
                    }
                }
                if ok {
                    txn.commit().unwrap();
                    expected.extend(staged);
                } else {
                    txn.rollback().unwrap();
                }
            }
        }
        let db = Database::open(dir.path()).unwrap();
        let t = db.table("t").unwrap();
        assert_eq!(t.len(), expected.len());
        for (id, g) in &expected {
            let hit = t.lookup_unique("pk", &[Value::Int(*id)]).unwrap().unwrap();
            assert_eq!(hit.get(1), &Value::Int(*g));
        }
    });
}
