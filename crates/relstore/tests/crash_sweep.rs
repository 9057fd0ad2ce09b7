//! Exhaustive crash-point sweep over the storage engine.
//!
//! One deterministic workload (32 committed batches with periodic
//! checkpoints) runs against the in-memory [`FaultVfs`], once fault-free
//! to learn its total I/O operation count, then once per operation with a
//! simulated power cut at exactly that operation. After every cut the
//! filesystem collapses to its durable image, the database is reopened,
//! and three invariants are checked:
//!
//! 1. **Committed prefix** — the surviving rows are exactly the first `n`
//!    whole batches for some `n`: no torn transaction, no hole, no
//!    reordering — and `n` covers every batch whose commit returned `Ok`
//!    before the cut (commits sync by default, so an acknowledged batch
//!    is durable).
//! 2. **Reopen never fails** — recovery degrades (fallback snapshot,
//!    truncated WAL tail, discarded stale WAL) instead of erroring.
//! 3. **Convergence** — resuming the workload after recovery reaches a
//!    state identical to the fault-free run.

use relstore::schema::{Column, Schema};
use relstore::value::{Value, ValueType};
use relstore::vfs::{FaultPlan, FaultVfs, Vfs};
use relstore::{Database, PoolConfig};
use std::path::Path;
use std::sync::Arc;

const BATCHES: i64 = 32;
const BATCH_ROWS: i64 = 5;
const CHECKPOINT_EVERY: i64 = 4;

fn schema() -> Schema {
    Schema::builder("t")
        .column(Column::new("id", ValueType::Int))
        .column(Column::new("payload", ValueType::Text))
        .primary_key(&["id"])
        .build()
        .unwrap()
}

fn dyn_vfs(vfs: &FaultVfs) -> Arc<dyn Vfs> {
    Arc::new(vfs.clone())
}

fn open(vfs: &FaultVfs) -> relstore::error::StoreResult<Database> {
    let mut db = Database::open_with_vfs(dyn_vfs(vfs), Path::new("/db"))?;
    db.ensure_table(schema())?;
    Ok(db)
}

/// Paged open with pages small enough that the workload spans many pages
/// and a pool tiny enough that evictions (and their unsynced writebacks)
/// happen mid-workload — so power cuts land inside page-granular I/O and
/// the torn-write generator garbles partial page images.
fn open_paged(vfs: &FaultVfs) -> relstore::error::StoreResult<Database> {
    let config = PoolConfig {
        page_bytes: 256,
        pool_pages: 2,
    };
    let mut db = Database::open_paged_with_vfs(dyn_vfs(vfs), Path::new("/db"), config)?;
    db.ensure_table(schema())?;
    Ok(db)
}

fn insert_batch(db: &mut Database, batch: i64) -> relstore::error::StoreResult<()> {
    db.with_txn(|txn| {
        for i in 0..BATCH_ROWS {
            let id = batch * BATCH_ROWS + i;
            txn.insert("t", vec![Value::Int(id), Value::text(format!("row-{id}"))])?;
        }
        Ok(())
    })
}

/// Run (or resume) the workload to completion, checkpointing periodically.
/// `db` may already hold a recovered prefix of whole batches; `acked`
/// counts the batches whose commit returned `Ok`.
fn run_to_completion(db: &mut Database, acked: &mut i64) -> relstore::error::StoreResult<()> {
    let have = db.table("t")?.len() as i64;
    assert_eq!(have % BATCH_ROWS, 0, "recovered a torn batch");
    for batch in have / BATCH_ROWS..BATCHES {
        insert_batch(db, batch)?;
        *acked = batch + 1;
        if (batch + 1) % CHECKPOINT_EVERY == 0 {
            db.checkpoint()?;
        }
    }
    db.checkpoint()?;
    Ok(())
}

fn sorted_ids(db: &Database) -> Vec<i64> {
    let mut out: Vec<i64> = db
        .table("t")
        .unwrap()
        .scan()
        .map(|(_, row)| match row.get(0) {
            Value::Int(i) => *i,
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    out.sort_unstable();
    out
}

type Open = fn(&FaultVfs) -> relstore::error::StoreResult<Database>;

/// The sweep runs pool-less, at every operation, and paged — where heap
/// appends, eviction writebacks and page-directory swaps all become
/// distinct crash points, and a cut mid-page must never surface a torn page
/// (the per-page CRC plus the sync-heap-before-directory ordering make
/// partially-written images unreachable). Page writebacks multiply the op
/// count well past the pool-less run's, so the paged sweep samples about
/// 160 crash points evenly: the quadratic sweep stays bounded while still
/// hitting every phase of the workload.
#[test]
fn every_crash_point_recovers_and_converges() {
    let modes: [(&str, Open, Option<u64>); 2] =
        [("open", open, None), ("open_paged", open_paged, Some(160))];
    for (mode, open, sample) in modes {
        // Fault-free reference run: learn the op count and final state.
        let reference = FaultVfs::new();
        {
            let mut db = open(&reference).unwrap();
            run_to_completion(&mut db, &mut 0).unwrap();
        }
        let total_ops = reference.op_count();
        let expected: Vec<i64> = (0..BATCHES * BATCH_ROWS).collect();
        {
            let db = open(&reference).unwrap();
            assert_eq!(sorted_ids(&db), expected, "{mode}: reference state");
        }

        let step = sample.map_or(1, |points| (total_ops / points).max(1)) as usize;
        let mut crash_points = 0u64;
        for crash_at in (1..=total_ops).step_by(step) {
            let vfs = FaultVfs::new();
            vfs.set_plan(FaultPlan {
                crash_at: Some(crash_at),
                fail_at: None,
                torn_seed: crash_at.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            });
            let mut acked = 0;
            let outcome = open(&vfs).and_then(|mut db| run_to_completion(&mut db, &mut acked));
            assert!(
                outcome.is_err() && vfs.crashed(),
                "{mode} op {crash_at}: power cut did not fire (of {total_ops})"
            );
            crash_points += 1;

            // Power is restored: unsynced state is gone, plan cleared.
            vfs.reboot();

            // Invariants 1+2: reopen succeeds on the durable image alone and
            // yields a whole-batch prefix of the workload.
            let db = open(&vfs)
                .unwrap_or_else(|e| panic!("{mode} op {crash_at}: reopen failed: {e}"));
            let ids = sorted_ids(&db);
            assert_eq!(
                ids.len() as i64 % BATCH_ROWS,
                0,
                "{mode} op {crash_at}: torn batch survived: {} rows",
                ids.len()
            );
            assert_eq!(
                ids,
                (0..ids.len() as i64).collect::<Vec<_>>(),
                "{mode} op {crash_at}: recovered rows are not a contiguous prefix"
            );
            assert!(
                ids.len() as i64 >= acked * BATCH_ROWS,
                "{mode} op {crash_at}: {acked} batches acknowledged, {} rows recovered",
                ids.len()
            );
            drop(db);

            // Invariant 3: resuming the workload converges to the reference.
            let mut db = open(&vfs).unwrap();
            run_to_completion(&mut db, &mut 0).unwrap();
            drop(db);
            let db = open(&vfs).unwrap();
            assert_eq!(
                sorted_ids(&db),
                expected,
                "{mode} op {crash_at}: did not converge"
            );
        }
        assert!(
            crash_points >= 100,
            "{mode}: only {crash_points} crash points exercised"
        );
    }
}

/// The same sweep with injected I/O *errors* instead of power cuts: the
/// failed operation surfaces as an error to the caller, but nothing is
/// silently lost — reopening on the same (non-rebooted) filesystem and
/// resuming still converges.
#[test]
fn every_failed_io_op_leaves_a_recoverable_store() {
    let reference = FaultVfs::new();
    {
        let mut db = open(&reference).unwrap();
        run_to_completion(&mut db, &mut 0).unwrap();
    }
    let total_ops = reference.op_count();
    let expected: Vec<i64> = (0..BATCHES * BATCH_ROWS).collect();

    // Every op: an error swallowed at any one of them would let the
    // workload finish, and the assert below catches exactly that.
    for fail_at in 1..=total_ops {
        let vfs = FaultVfs::new();
        vfs.set_plan(FaultPlan {
            crash_at: None,
            fail_at: Some(fail_at),
            torn_seed: fail_at,
        });
        let outcome = open(&vfs).and_then(|mut db| run_to_completion(&mut db, &mut 0));
        assert!(outcome.is_err(), "op {fail_at}: injected error vanished");
        // clear the plan but keep the filesystem (no power cut happened)
        vfs.set_plan(FaultPlan::default());

        let mut db = open(&vfs)
            .unwrap_or_else(|e| panic!("op {fail_at}: reopen after I/O error failed: {e}"));
        let ids = sorted_ids(&db);
        assert_eq!(ids.len() as i64 % BATCH_ROWS, 0, "op {fail_at}: torn batch");
        run_to_completion(&mut db, &mut 0).unwrap();
        drop(db);
        let db = open(&vfs).unwrap();
        assert_eq!(sorted_ids(&db), expected, "op {fail_at}: did not converge");
    }
}
