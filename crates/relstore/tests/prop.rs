//! Property-based tests for the storage engine: codec round-trips,
//! index/scan equivalence, and durability.

use proptest::prelude::*;
use relstore::codec;
use relstore::db::Database;
use relstore::predicate::Predicate;
use relstore::row::Row;
use relstore::schema::{Column, Schema};
use relstore::table::Table;
use relstore::value::{Value, ValueType};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9:_.-]{0,24}".prop_map(Value::Text),
        proptest::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
    ]
}

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(arb_value(), 0..8)
}

proptest! {
    #[test]
    fn codec_value_roundtrip(v in arb_value()) {
        let mut buf = bytes::BytesMut::new();
        codec::put_value(&mut buf, &v);
        let mut b = buf.freeze();
        let back = codec::get_value(&mut b).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(b.len(), 0);
    }

    #[test]
    fn codec_row_roundtrip(row in arb_row()) {
        let mut buf = bytes::BytesMut::new();
        codec::put_row(&mut buf, &row);
        let mut b = buf.freeze();
        let back = codec::get_row(&mut b).unwrap();
        prop_assert_eq!(back, row);
    }

    #[test]
    fn codec_rejects_random_garbage_without_panicking(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        // must never panic; errors are fine
        let mut b = bytes::Bytes::from(data);
        let _ = codec::get_row(&mut b);
    }

    #[test]
    fn value_ordering_is_total_and_consistent(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        // antisymmetry
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // transitivity (spot form): if a<=b and b<=c then a<=c
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
        }
    }
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

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<i64>(), 0i64..10, proptest::option::of("[a-z]{0,6}"))
            .prop_map(|(id, g, t)| Op::Insert(id, g, t)),
        (0usize..64).prop_map(Op::Delete),
        (0usize..64, 0i64..10, proptest::option::of("[a-z]{0,6}"))
            .prop_map(|(i, g, t)| Op::Update(i, g, t)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After any op sequence, an index-served select returns exactly the
    /// rows a full scan filter would.
    #[test]
    fn index_select_equals_scan(ops in proptest::collection::vec(arb_op(), 0..80)) {
        let mut table = Table::new(test_schema());
        let mut live: Vec<relstore::row::RowId> = Vec::new();
        for op in ops {
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
            prop_assert_eq!(via_index, via_scan);
        }
    }

    /// Snapshot encode/decode preserves live rows, ids, and index behaviour.
    #[test]
    fn snapshot_roundtrip(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let mut table = Table::new(test_schema());
        let mut live: Vec<relstore::row::RowId> = Vec::new();
        for op in ops {
            if let Op::Insert(id, g, t) = op {
                let row = vec![
                    Value::Int(id),
                    Value::Int(g),
                    t.map(Value::text).unwrap_or(Value::Null),
                ];
                if let Ok(rid) = table.insert(row) {
                    live.push(rid);
                }
            } else if let Op::Delete(i) = op {
                if !live.is_empty() {
                    let rid = live.remove(i % live.len());
                    table.delete(rid).unwrap();
                }
            }
        }
        let data = relstore::snapshot::encode_snapshot(std::iter::once(&table), 0).unwrap();
        let back = relstore::snapshot::decode_snapshot(&data).unwrap().0.pop().unwrap();
        prop_assert_eq!(back.len(), table.len());
        prop_assert_eq!(back.next_row_id(), table.next_row_id());
        for (rid, row) in table.scan() {
            prop_assert_eq!(back.get(rid).unwrap(), row);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Committed transactions survive reopen; the WAL replay reconstructs
    /// exactly the committed state.
    #[test]
    fn durability_replay_equals_memory(batches in proptest::collection::vec(
        proptest::collection::vec((any::<i64>(), 0i64..5), 1..10), 1..5))
    {
        let dir = std::env::temp_dir()
            .join("relstore-prop")
            .join(format!("case-{}", std::process::id()))
            .join(format!("{:x}", rand_suffix(&batches)));
        let _ = std::fs::remove_dir_all(&dir);

        let mut expected: Vec<(i64, i64)> = Vec::new();
        {
            let mut db = Database::open(&dir).unwrap();
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
        {
            let db = Database::open(&dir).unwrap();
            let t = db.table("t").unwrap();
            prop_assert_eq!(t.len(), expected.len());
            for (id, g) in &expected {
                let hit = t.lookup_unique("pk", &[Value::Int(*id)]).unwrap().unwrap();
                prop_assert_eq!(hit.get(1), &Value::Int(*g));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Cheap deterministic hash so parallel proptest cases use distinct dirs.
fn rand_suffix(batches: &[Vec<(i64, i64)>]) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    batches.hash(&mut h);
    h.finish()
}
