//! Paged ≡ resident equivalence: a database whose tables live in slotted
//! heap pages behind a buffer pool must be observationally identical to a
//! resident one for any workload, any pool size (down to a single page),
//! any checkpoint cadence, and across reopen and compaction. Both sides
//! run over an in-memory [`FaultVfs`] with no faults planned, so the
//! comparison is deterministic and touches no real disk.

use relstore::row::RowId;
use relstore::schema::{Column, Schema};
use relstore::value::{Value, ValueType};
use relstore::vfs::{FaultVfs, Vfs};
use relstore::{Database, PoolConfig, StoreError};
use std::path::Path;
use std::sync::Arc;
use testkit::{cases, text, Prng};

fn schema() -> Schema {
    Schema::builder("t")
        .column(Column::new("id", ValueType::Int))
        .column(Column::new("grp", ValueType::Int))
        .column(Column::nullable("txt", ValueType::Text))
        .primary_key(&["id"])
        .index("by_grp", &["grp"])
        .build()
        .unwrap()
}

fn dyn_vfs(vfs: &FaultVfs) -> Arc<dyn Vfs> {
    Arc::new(vfs.clone())
}

fn open_resident(vfs: &FaultVfs) -> Database {
    let mut db = Database::open_with_vfs(dyn_vfs(vfs), Path::new("/db")).unwrap();
    db.ensure_table(schema()).unwrap();
    db
}

fn open_paged(vfs: &FaultVfs, pool_pages: usize) -> Database {
    let config = PoolConfig {
        page_bytes: 256,
        pool_pages,
    };
    let mut db = Database::open_paged_with_vfs(dyn_vfs(vfs), Path::new("/db"), config).unwrap();
    db.ensure_table(schema()).unwrap();
    db
}

/// One step of a randomized workload, applied to both databases.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64, i64, Option<String>),
    Delete(usize),
    Update(usize, i64, Option<String>),
    Checkpoint,
}

/// Inserts dominate (4 : 1 : 2 : 1); ids come from a range small enough
/// that duplicate-key inserts must fail identically on both sides.
fn op(rng: &mut Prng) -> Op {
    let txt = |rng: &mut Prng| {
        rng.gen_bool(0.5)
            .then(|| text(rng, b"abcdefghijklmnopqrstuvwxyz", 0..=6))
    };
    match rng.below(8) {
        0..=3 => {
            let id = if rng.gen_bool(0.7) {
                rng.gen_range(-40..40)
            } else {
                rng.next_u64() as i64
            };
            Op::Insert(id, rng.gen_range(0..10), txt(rng))
        }
        4 => Op::Delete(rng.below(64)),
        5 | 6 => Op::Update(rng.below(64), rng.gen_range(0..10), txt(rng)),
        _ => Op::Checkpoint,
    }
}

/// Apply `ops` to both databases, asserting every step has the same
/// outcome (same row ids assigned, same errors surfaced).
fn apply_ops(resident: &mut Database, paged: &mut Database, ops: &[Op]) {
    let mut live: Vec<RowId> = Vec::new();
    for op in ops {
        match op {
            Op::Insert(id, g, t) => {
                let row = vec![
                    Value::Int(*id),
                    Value::Int(*g),
                    t.clone().map(Value::text).unwrap_or(Value::Null),
                ];
                let a = resident.with_txn(|txn| txn.insert("t", row.clone()));
                let b = paged.with_txn(|txn| txn.insert("t", row));
                match (a, b) {
                    (Ok(ra), Ok(rb)) => {
                        assert_eq!(ra, rb, "diverging row ids for insert {id}");
                        live.push(ra);
                    }
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("diverging insert outcome: {a:?} vs {b:?}"),
                }
            }
            Op::Delete(i) => {
                if !live.is_empty() {
                    let rid = live.remove(i % live.len());
                    resident.with_txn(|txn| txn.delete("t", rid)).unwrap();
                    paged.with_txn(|txn| txn.delete("t", rid)).unwrap();
                }
            }
            Op::Update(i, g, t) => {
                if !live.is_empty() {
                    let rid = live[i % live.len()];
                    let old_id = resident.table("t").unwrap().get(rid).unwrap().get(0).clone();
                    let row = vec![
                        old_id,
                        Value::Int(*g),
                        t.clone().map(Value::text).unwrap_or(Value::Null),
                    ];
                    resident
                        .with_txn(|txn| txn.update("t", rid, row.clone()))
                        .unwrap();
                    paged.with_txn(|txn| txn.update("t", rid, row)).unwrap();
                }
            }
            Op::Checkpoint => {
                resident.checkpoint().unwrap();
                paged.checkpoint().unwrap();
            }
        }
    }
}

/// Full observational comparison: row count, id allocation, every live
/// row by id, scan order, and index-served selects.
fn assert_same(resident: &Database, paged: &Database, context: &str) {
    let rt = resident.table("t").unwrap();
    let pt = paged.table("t").unwrap();
    assert_eq!(rt.len(), pt.len(), "{context}: row count");
    assert_eq!(rt.next_row_id(), pt.next_row_id(), "{context}: id allocation");
    let r_rows: Vec<_> = rt.scan().collect();
    let p_rows: Vec<_> = pt.scan().collect();
    assert_eq!(r_rows, p_rows, "{context}: scan");
    for (rid, row) in &r_rows {
        assert_eq!(
            &pt.get(*rid).unwrap(),
            row,
            "{context}: point lookup of {rid:?}"
        );
    }
    for g in 0..10 {
        let key = [Value::Int(g)];
        assert_eq!(
            rt.lookup("by_grp", &key).unwrap(),
            pt.lookup("by_grp", &key).unwrap(),
            "{context}: index lookup grp={g}"
        );
    }
}

/// A `delete_source_rel`-shaped cascade on both stores: every row under one
/// `by_grp` key, in row order, one `txn.delete` at a time inside one
/// transaction. Tombstoning a sealed slot is O(row): the pool faults each
/// page the doomed rows live on at most once, however small it is.
fn cascade_delete(resident: &mut Database, paged: &mut Database, p_vfs: &FaultVfs, grp: i64) {
    let doomed = paged
        .table("t")
        .unwrap()
        .lookup_row_ids("by_grp", &[Value::Int(grp)])
        .unwrap();
    // a checkpoint's page directory says which sealed page holds which row
    paged.checkpoint().unwrap();
    let pagedir = p_vfs.read(Path::new("/db/pagedir.bin")).unwrap().unwrap();
    let catalog = relstore::pager::decode_page_directory(&pagedir).unwrap();
    let pages = &catalog.tables[0].pages;
    let mut touched: Vec<usize> = doomed
        .iter()
        .filter_map(|rid| pages.iter().position(|p| (p.base..p.base + p.slots as u64).contains(&rid.0)))
        .collect();
    touched.dedup();
    let misses = |db: &Database| db.stats().unwrap().pool.unwrap().misses;
    let before = misses(paged);
    for db in [&mut *resident, &mut *paged] {
        db.with_txn(|txn| doomed.iter().try_for_each(|rid| txn.delete("t", *rid)))
            .unwrap();
    }
    let faulted = misses(paged) - before;
    assert!(
        faulted <= touched.len() as u64 + 1,
        "{} rows on {} pages cost {faulted} page faults",
        doomed.len(),
        touched.len()
    );
}

/// Run one equivalence case end-to-end: apply the workload to both
/// stores, compare, tombstone every row of one key range and compare, then
/// checkpoint + reopen the paged side (possibly with a different pool size)
/// and compare again, then compact and compare once more, then reopen each
/// directory in the other mode.
fn check_equivalence(ops: &[Op], pool_pages: usize, reopen_pool_pages: usize) {
    let r_vfs = FaultVfs::new();
    let p_vfs = FaultVfs::new();
    let mut resident = open_resident(&r_vfs);
    let mut paged = open_paged(&p_vfs, pool_pages);
    apply_ops(&mut resident, &mut paged, ops);
    assert_same(&resident, &paged, "after workload");
    cascade_delete(&mut resident, &mut paged, &p_vfs, 3);
    assert_same(&resident, &paged, "after cascade delete");

    // Durability round-trip: both sides checkpoint, reopen, and still
    // agree — the paged side possibly under a different pool size, which
    // must change performance only, never contents.
    resident.checkpoint().unwrap();
    paged.checkpoint().unwrap();
    drop(resident);
    drop(paged);
    let resident = open_resident(&r_vfs);
    let mut paged = open_paged(&p_vfs, reopen_pool_pages);
    assert_same(&resident, &paged, "after reopen");

    // Compaction rewrites the heap; contents must be untouched.
    paged.compact().unwrap();
    assert_same(&resident, &paged, "after compact");

    // Each directory opened in the other mode. A pool-less directory gains
    // a pool: same contents, and it pages out from here on. A paged one
    // opens pool-less only while it has never sealed a page; otherwise it
    // is refused untouched, and still opens paged.
    drop(resident);
    let upgraded = open_paged(&r_vfs, reopen_pool_pages);
    assert_same(&upgraded, &paged, "pool-less directory opened paged");
    drop(paged);
    match Database::open_with_vfs(dyn_vfs(&p_vfs), Path::new("/db")) {
        Ok(plain) => assert_same(&plain, &upgraded, "never-sealed directory opened pool-less"),
        Err(StoreError::Unsupported(_)) => {
            assert_same(&upgraded, &open_paged(&p_vfs, pool_pages), "refused, then reopened paged")
        }
        Err(e) => panic!("paged directory opened pool-less: {e}"),
    }
}

/// One long fixed workload across the pool-size grid.
#[test]
fn fixed_workloads_paged_equals_resident() {
    let mut ops = Vec::new();
    for i in 0..120i64 {
        ops.push(Op::Insert(i, i % 10, (i % 3 == 0).then(|| format!("row-{i}"))));
        if i % 17 == 0 {
            ops.push(Op::Checkpoint);
        }
        if i % 5 == 0 {
            ops.push(Op::Update(i as usize / 2, (i + 3) % 10, Some("upd".into())));
        }
        if i % 7 == 0 {
            ops.push(Op::Delete(i as usize / 3));
        }
    }
    // duplicate-PK inserts must fail identically on both sides
    ops.push(Op::Insert(3, 0, None));
    for &(pool, reopen_pool) in &[(1usize, 1usize), (1, 8), (2, 2), (8, 1), (64, 64)] {
        check_equivalence(&ops, pool, reopen_pool);
    }
}

/// Random workloads, random pool sizes (including a single-page pool),
/// random reopen pool size: paged and resident stores must stay
/// observationally identical through workload, reopen, and compaction.
#[test]
fn random_workloads_paged_equals_resident() {
    cases(32, |rng| {
        let ops: Vec<Op> = (0..rng.below(120)).map(|_| op(rng)).collect();
        let pool_pages = *rng.pick(&[1usize, 2, 8]);
        let reopen_pool_pages = *rng.pick(&[1usize, 2, 8]);
        check_equivalence(&ops, pool_pages, reopen_pool_pages);
    });
}
