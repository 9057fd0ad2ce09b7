//! End-to-end crash sweep over the import pipeline: a real (demo-scale)
//! ecosystem import runs against the fault-injecting VFS, a power cut is
//! simulated at every I/O operation, and after each cut the store must
//!
//! 1. reopen without error,
//! 2. pass full referential-integrity verification (every committed
//!    prefix is closed under the GAM foreign keys), and
//! 3. converge to a state *identical* to the fault-free import when the
//!    same dumps are re-imported — the source release tag is written last,
//!    so a half-imported source is never skipped by dedup.

use gam::GamStore;
use import::{run_pipeline, PipelineOptions};
use relstore::vfs::{FaultPlan, FaultVfs, Vfs};
use relstore::{Row, RowId};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use std::path::Path;
use std::sync::Arc;

fn open(vfs: &FaultVfs) -> gam::GamResult<GamStore> {
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    GamStore::open_with_vfs(arc, Path::new("/db"))
}

/// Imports the dumps two at a time, checkpointing after each full pair,
/// then checkpoints once more.
fn import_all(vfs: &FaultVfs, eco: &Ecosystem) -> gam::GamResult<()> {
    let mut store = open(vfs)?;
    let options = PipelineOptions::default();
    for pair in eco.dumps.chunks(2) {
        run_pipeline(&mut store, pair, &options)?;
        if pair.len() == 2 {
            store.checkpoint()?;
        }
    }
    store.checkpoint()
}

/// Every row of every table, in table and row order, so two stores can be
/// compared for bit-identical logical content.
fn fingerprint(store: &GamStore) -> Vec<(String, RowId, Row)> {
    let db = store.database();
    let mut out = Vec::new();
    for name in db.table_names() {
        let table = db.table(name).unwrap();
        out.extend(table.scan().map(|(rid, row)| (name.to_owned(), rid, row.clone())));
    }
    out
}

/// The power-cut sweep over every other crash point, from the `half`-th
/// on: the two halves are disjoint, together cover every I/O operation of
/// the import, and run side by side.
fn crash_sweep(half: usize) {
    let eco = Ecosystem::generate(EcosystemParams::demo(11));

    // Fault-free reference run.
    let reference = FaultVfs::new();
    import_all(&reference, &eco).unwrap();
    let total_ops = reference.op_count();
    let expected = {
        let store = open(&reference).unwrap();
        assert!(store.verify_integrity().unwrap().is_empty());
        fingerprint(&store)
    };
    assert!(!expected.is_empty());
    assert!(
        total_ops >= 100,
        "sweep needs >=100 distinct crash points, import only has {total_ops}"
    );

    // Sweep every fault point, thinning only if the workload is huge; this
    // half takes every other one of them.
    let step = usize::max(1, total_ops as usize / 300);
    let mut crash_points = 0u64;
    for crash_at in (1..=total_ops).step_by(step).skip(half).step_by(2) {
        let vfs = FaultVfs::new();
        vfs.set_plan(FaultPlan {
            crash_at: Some(crash_at),
            fail_at: None,
            torn_seed: crash_at.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        });
        let outcome = import_all(&vfs, &eco);
        assert!(
            outcome.is_err() && vfs.crashed(),
            "op {crash_at}: power cut did not fire (of {total_ops})"
        );
        crash_points += 1;
        vfs.reboot();

        // 1+2: reopen succeeds and the committed prefix is referentially
        // closed.
        let store =
            open(&vfs).unwrap_or_else(|e| panic!("op {crash_at}: reopen failed: {e}"));
        let violations = store.verify_integrity().unwrap();
        assert!(
            violations.is_empty(),
            "op {crash_at}: integrity violations after recovery: {violations:?}"
        );
        drop(store);

        // 3: re-importing the same dumps converges on the reference state.
        import_all(&vfs, &eco)
            .unwrap_or_else(|e| panic!("op {crash_at}: re-import failed: {e}"));
        let store = open(&vfs).unwrap();
        let got = fingerprint(&store);
        assert!(
            got == expected,
            "op {crash_at}: re-import diverged from the fault-free state \
             ({} vs {} rows)",
            got.len(),
            expected.len()
        );
    }
    assert!(
        crash_points >= 50,
        "only {crash_points} crash points exercised in this half"
    );
}

#[test]
fn import_crash_sweep_recovers_and_reimports_identically() {
    crash_sweep(0);
}

#[test]
fn import_crash_sweep_second_half_recovers_and_reimports_identically() {
    crash_sweep(1);
}

/// Injected I/O errors (not power cuts) during import: the run fails, but
/// the store reopens clean and a retry converges.
#[test]
fn import_io_errors_are_recoverable() {
    let eco = Ecosystem::generate(EcosystemParams::demo(12));
    let reference = FaultVfs::new();
    import_all(&reference, &eco).unwrap();
    let total_ops = reference.op_count();
    let expected = {
        let store = open(&reference).unwrap();
        fingerprint(&store)
    };

    // A coarse sample is enough here; the power-cut sweep is exhaustive.
    for fail_at in (1..=total_ops).step_by(17) {
        let vfs = FaultVfs::new();
        vfs.set_plan(FaultPlan {
            crash_at: None,
            fail_at: Some(fail_at),
            torn_seed: fail_at,
        });
        assert!(import_all(&vfs, &eco).is_err(), "op {fail_at}");
        vfs.set_plan(FaultPlan::default());

        let store = open(&vfs)
            .unwrap_or_else(|e| panic!("op {fail_at}: reopen after I/O error failed: {e}"));
        assert!(store.verify_integrity().unwrap().is_empty(), "op {fail_at}");
        drop(store);
        import_all(&vfs, &eco).unwrap();
        let got = fingerprint(&open(&vfs).unwrap());
        assert_eq!(got.len(), expected.len(), "op {fail_at}");
        assert!(got == expected, "op {fail_at}: diverged");
    }
}
