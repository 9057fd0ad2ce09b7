//! Seeded crash sweeps: random workload shapes (batch sizes, checkpoint
//! cadence, group commit) crossed with random power-cut points must always
//! recover to a consistent committed prefix that holds every row
//! acknowledged durable before the cut, and converge on resume.

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

/// Open pool-less, or paged behind `pool` pages: 128-byte pages so even
/// tiny workloads span page boundaries, and a pool down to 1 page forces an
/// eviction writeback on nearly every touch.
fn open(vfs: &FaultVfs, pool: Option<usize>) -> relstore::error::StoreResult<Database> {
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let mut db = match pool {
        None => Database::open_with_vfs(arc, Path::new("/db"))?,
        Some(pool_pages) => {
            let config = PoolConfig {
                page_bytes: 128,
                pool_pages,
            };
            Database::open_paged_with_vfs(arc, Path::new("/db"), config)?
        }
    };
    db.ensure_table(schema())?;
    Ok(db)
}

/// One crash-and-converge check: run the workload with a power cut at
/// `crash_at`, reboot, and verify the committed-prefix and convergence
/// invariants, pool-less or behind a pool of `pool` pages.
fn check_crash_and_converge(
    pool: Option<usize>,
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
    let open = |vfs: &FaultVfs| open(vfs, pool);
    let mut acked = 0;
    let outcome =
        open(&vfs).and_then(|mut db| run(&mut db, batches, ckpt_every, group_commit, &mut acked));
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
    assert!(
        got.len() >= acked,
        "crash_at {crash_at}: {acked} rows acknowledged durable, {} recovered",
        got.len()
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
    run(&mut db, batches, ckpt_every, group_commit, &mut 0).unwrap();
    drop(db);
    let db = open(&vfs).unwrap();
    assert_eq!(sorted_ids(&db), expected, "crash_at {crash_at}: did not converge");
}

/// Run the workload described by `batches` (sizes of consecutive committed
/// transactions over ids 0..sum) from wherever the store currently is,
/// checkpointing after every `ckpt_every`-th batch. `acked` ends at the
/// rows acknowledged durable: a commit's `Ok` with per-commit sync, a
/// `sync_wal`'s `Ok` under group commit.
fn run(
    db: &mut Database,
    batches: &[usize],
    ckpt_every: usize,
    group_commit: bool,
    acked: &mut usize,
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
        *acked = end as usize;
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

/// Ops of the fault-free run of a workload: the range crash points come from.
fn fault_free_ops(
    pool: Option<usize>,
    batches: &[usize],
    ckpt_every: usize,
    group_commit: bool,
) -> u64 {
    let reference = FaultVfs::new();
    let mut db = open(&reference, pool).unwrap();
    run(&mut db, batches, ckpt_every, group_commit, &mut 0).unwrap();
    reference.op_count()
}

/// The same property over a fixed grid of workloads: pool-less at every
/// other crash point of each; paged — where every crash point lands among
/// heap appends, eviction writebacks and page-directory swaps, and the
/// single-page pools force a writeback on nearly every page touch — at
/// about 48 evenly sampled points, because paged I/O multiplies the op
/// count.
#[test]
fn fixed_grid_crash_points_recover_and_converge() {
    let configs: &[(&[usize], usize, bool, usize)] = &[
        (&[3, 1, 5, 2], 2, false, 1),
        (&[1, 1, 1, 1, 1, 1], 3, true, 2),
        (&[7, 2], 1, true, 8),
        (&[4], 4, false, 1),
    ];
    for &(batches, ckpt_every, group_commit, pool_pages) in configs {
        for pool in [None, Some(pool_pages)] {
            let total_ops = fault_free_ops(pool, batches, ckpt_every, group_commit);
            let step = match pool {
                None => 2,
                Some(_) => (total_ops / 48).max(1) as usize,
            };
            for crash_at in (1..=total_ops).step_by(step) {
                check_crash_and_converge(
                    pool,
                    batches,
                    ckpt_every,
                    group_commit,
                    crash_at,
                    crash_at ^ 0xdead_beef,
                );
            }
        }
    }
}

/// A random workload shape: batch sizes, checkpoint cadence, group commit.
fn workload(rng: &mut Prng) -> (Vec<usize>, usize, bool) {
    let batches = (0..rng.gen_range(1..10)).map(|_| rng.gen_range(1..8)).collect();
    (batches, rng.gen_range(1..5), rng.gen_bool(0.5))
}

/// Whatever survives a random power cut is ids `0..n` where `n` is a batch
/// boundary (with per-commit sync) or at most the full set (group commit
/// may persist several batches per sync), and resuming converges on the
/// fault-free state — pool-less, and paged with a random pool size,
/// including a single-page pool (maximal eviction pressure: every page
/// touch can force an unsynced writeback that the power cut then tears).
#[test]
fn random_crash_points_recover_and_converge() {
    cases(48, |rng| {
        let (batches, ckpt_every, group_commit) = workload(rng);
        for pool in [None, Some(*rng.pick(&[1usize, 2, 8]))] {
            let total_ops = fault_free_ops(pool, &batches, ckpt_every, group_commit);
            // a power cut somewhere in the fault-free run
            let crash_at = 1 + (rng.gen_f64() * (total_ops - 1) as f64) as u64;
            let torn_seed = rng.next_u64();
            check_crash_and_converge(pool, &batches, ckpt_every, group_commit, crash_at, torn_seed);
        }
    });
}
