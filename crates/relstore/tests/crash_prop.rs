//! Seeded crash sweeps: random workload shapes (batch sizes, checkpoint
//! cadence, group commit) crossed with random power-cut points must always
//! recover to a consistent committed prefix and converge on resume.

use relstore::schema::{Column, Schema};
use relstore::value::{Value, ValueType};
use relstore::vfs::{FaultPlan, FaultVfs, Vfs};
use relstore::{Database, PoolConfig};
use std::path::Path;
use std::sync::Arc;
use testkit::{cases, Prng};

fn schema() -> Schema {
    Schema::builder("t")
        .column(Column::new("id", ValueType::Int))
        .primary_key(&["id"])
        .build()
        .unwrap()
}

fn open(vfs: &FaultVfs) -> relstore::error::StoreResult<Database> {
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut db = Database::open_with_vfs(arc, Path::new("/db"))?;
    db.ensure_table(schema())?;
    Ok(db)
}

/// Paged open with 128-byte pages so even tiny workloads span page
/// boundaries; `pool_pages` down to 1 forces an eviction writeback on
/// nearly every touch.
fn open_paged(vfs: &FaultVfs, pool_pages: usize) -> relstore::error::StoreResult<Database> {
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let config = PoolConfig {
        page_bytes: 128,
        pool_pages,
    };
    let mut db = Database::open_paged_with_vfs(arc, Path::new("/db"), config)?;
    db.ensure_table(schema())?;
    Ok(db)
}

/// One crash-and-converge check: run the workload with a power cut at
/// `crash_at`, reboot, and verify the committed-prefix and convergence
/// invariants. `open` decides resident vs paged (and the pool size).
fn check_crash_and_converge(
    open: &dyn Fn(&FaultVfs) -> relstore::error::StoreResult<Database>,
    batches: &[usize],
    ckpt_every: usize,
    group_commit: bool,
    crash_at: u64,
    torn_seed: u64,
) {
    let vfs = FaultVfs::new();
    vfs.set_plan(FaultPlan {
        crash_at: Some(crash_at),
        fail_at: None,
        torn_seed,
    });
    let outcome = open(&vfs).and_then(|mut db| run(&mut db, batches, ckpt_every, group_commit));
    assert!(outcome.is_err(), "crash_at {crash_at} did not fire");
    vfs.reboot();

    let db = open(&vfs)
        .unwrap_or_else(|e| panic!("crash_at {crash_at}: reopen failed: {e}"));
    let got = sorted_ids(&db);
    assert_eq!(
        got,
        (0..got.len() as i64).collect::<Vec<_>>(),
        "crash_at {crash_at}: not a contiguous prefix"
    );
    let boundaries = prefix_sums(batches);
    if !group_commit {
        assert!(
            boundaries.contains(&got.len()),
            "crash_at {crash_at}: {} rows is not a batch boundary of {batches:?}",
            got.len()
        );
    } else {
        assert!(got.len() <= *boundaries.last().unwrap());
    }
    drop(db);

    let expected: Vec<i64> = (0..*boundaries.last().unwrap() as i64).collect();
    let mut db = open(&vfs).unwrap();
    run(&mut db, batches, ckpt_every, group_commit).unwrap();
    drop(db);
    let db = open(&vfs).unwrap();
    assert_eq!(sorted_ids(&db), expected, "crash_at {crash_at}: did not converge");
}

/// Run the workload described by `batches` (sizes of consecutive committed
/// transactions over ids 0..sum) from wherever the store currently is,
/// checkpointing after every `ckpt_every`-th batch.
fn run(
    db: &mut Database,
    batches: &[usize],
    ckpt_every: usize,
    group_commit: bool,
) -> relstore::error::StoreResult<()> {
    db.set_sync_on_commit(!group_commit);
    let mut next = db.table("t")?.len() as i64;
    let boundaries = prefix_sums(batches);
    for i in 0..batches.len() {
        let end = boundaries[i + 1] as i64;
        if next >= end {
            continue; // batch already recovered
        }
        db.with_txn(|txn| {
            for id in next..end {
                txn.insert("t", vec![Value::Int(id)])?;
            }
            Ok(())
        })?;
        next = end;
        if group_commit {
            db.sync_wal()?;
        }
        if (i + 1) % ckpt_every == 0 {
            db.checkpoint()?;
        }
    }
    db.checkpoint()?;
    Ok(())
}

fn prefix_sums(batches: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(batches.len() + 1);
    let mut acc = 0;
    out.push(0);
    for &b in batches {
        acc += b;
        out.push(acc);
    }
    out
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

/// The same property over a fixed grid of workloads, at every other crash
/// point of each.
#[test]
fn fixed_grid_crash_points_recover_and_converge() {
    let configs: &[(&[usize], usize, bool)] = &[
        (&[3, 1, 5, 2], 2, false),
        (&[1, 1, 1, 1, 1, 1], 3, true),
        (&[7, 2], 1, true),
        (&[4], 4, false),
    ];
    for &(batches, ckpt_every, group_commit) in configs {
        let reference = FaultVfs::new();
        {
            let mut db = open(&reference).unwrap();
            run(&mut db, batches, ckpt_every, group_commit).unwrap();
        }
        let total_ops = reference.op_count();
        let expected: Vec<i64> =
            (0..*prefix_sums(batches).last().unwrap() as i64).collect();
        for crash_at in (1..=total_ops).step_by(2) {
            let vfs = FaultVfs::new();
            vfs.set_plan(FaultPlan {
                crash_at: Some(crash_at),
                fail_at: None,
                torn_seed: crash_at ^ 0xdead_beef,
            });
            let outcome =
                open(&vfs).and_then(|mut db| run(&mut db, batches, ckpt_every, group_commit));
            assert!(outcome.is_err(), "crash_at {crash_at} did not fire");
            vfs.reboot();

            let db = open(&vfs).unwrap();
            let got = sorted_ids(&db);
            assert_eq!(got, (0..got.len() as i64).collect::<Vec<_>>());
            if !group_commit {
                assert!(
                    prefix_sums(batches).contains(&got.len()),
                    "crash_at {crash_at}: {} rows is not a batch boundary of {batches:?}",
                    got.len()
                );
            }
            drop(db);

            let mut db = open(&vfs).unwrap();
            run(&mut db, batches, ckpt_every, group_commit).unwrap();
            drop(db);
            let db = open(&vfs).unwrap();
            assert_eq!(sorted_ids(&db), expected, "crash_at {crash_at}");
        }
    }
}

/// The fixed grid against paged storage: every crash point now lands
/// among heap appends, eviction writebacks, and page-directory swaps, and
/// the single-page pool configurations force writeback on nearly every
/// page touch.
#[test]
fn fixed_grid_crash_points_recover_and_converge_paged() {
    let configs: &[(&[usize], usize, bool, usize)] = &[
        (&[3, 1, 5, 2], 2, false, 1),
        (&[1, 1, 1, 1, 1, 1], 3, true, 2),
        (&[7, 2], 1, true, 8),
        (&[4], 4, false, 1),
    ];
    for &(batches, ckpt_every, group_commit, pool_pages) in configs {
        let reference = FaultVfs::new();
        {
            let mut db = open_paged(&reference, pool_pages).unwrap();
            run(&mut db, batches, ckpt_every, group_commit).unwrap();
        }
        let total_ops = reference.op_count();
        let opener =
            |vfs: &FaultVfs| -> relstore::error::StoreResult<Database> { open_paged(vfs, pool_pages) };
        // Paged I/O multiplies the op count; sample evenly instead of
        // sweeping every point so the grid stays fast.
        let step = (total_ops / 48).max(1) as usize;
        for crash_at in (1..=total_ops).step_by(step) {
            check_crash_and_converge(
                &opener,
                batches,
                ckpt_every,
                group_commit,
                crash_at,
                crash_at ^ 0xdead_beef,
            );
        }
    }
}

/// A random workload shape: batch sizes, checkpoint cadence, group commit.
fn workload(rng: &mut Prng) -> (Vec<usize>, usize, bool) {
    let batches = (0..rng.gen_range(1..10)).map(|_| rng.gen_range(1..8)).collect();
    (batches, rng.gen_range(1..5), rng.gen_bool(0.5))
}

/// A power cut somewhere in the fault-free run's `total_ops` operations.
fn crash_point(rng: &mut Prng, total_ops: u64) -> u64 {
    1 + (rng.gen_f64() * (total_ops - 1) as f64) as u64
}

/// Whatever survives a random power cut is ids `0..n` where `n` is a batch
/// boundary (with per-commit sync) or at most the full set (group commit
/// may persist several batches per sync), and resuming converges on the
/// fault-free state.
#[test]
fn random_crash_points_recover_and_converge() {
    cases(48, |rng| {
        let (batches, ckpt_every, group_commit) = workload(rng);
        // Fault-free run to learn the op count.
        let reference = FaultVfs::new();
        {
            let mut db = open(&reference).unwrap();
            run(&mut db, &batches, ckpt_every, group_commit).unwrap();
        }
        let crash_at = crash_point(rng, reference.op_count());
        let torn_seed = rng.next_u64();
        check_crash_and_converge(&open, &batches, ckpt_every, group_commit, crash_at, torn_seed);
    });
}

/// The same property over paged storage with a random pool size,
/// including a single-page pool (maximal eviction pressure — every
/// page touch can force an unsynced writeback that the power cut then
/// tears).
#[test]
fn random_crash_points_recover_and_converge_paged() {
    cases(48, |rng| {
        let (batches, ckpt_every, group_commit) = workload(rng);
        let pool_pages = *rng.pick(&[1usize, 2, 8]);
        let opener = |vfs: &FaultVfs| open_paged(vfs, pool_pages);
        let reference = FaultVfs::new();
        {
            let mut db = opener(&reference).unwrap();
            run(&mut db, &batches, ckpt_every, group_commit).unwrap();
        }
        let crash_at = crash_point(rng, reference.op_count());
        let torn_seed = rng.next_u64();
        check_crash_and_converge(&opener, &batches, ckpt_every, group_commit, crash_at, torn_seed);
    });
}
