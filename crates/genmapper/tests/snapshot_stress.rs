//! Multi-threaded MVCC stress tests: concurrent readers over published
//! snapshots while a single writer mutates the store.
//!
//! Invariants pinned here:
//! 1. Readers only ever observe fully-published snapshots — every version
//!    a reader sees has a complete single-threaded reference result that
//!    was recorded *before* publication.
//! 2. Concurrent snapshot reads are bit-identical to the single-threaded
//!    live path at the same version (ResolvedView equality covers every
//!    cell string; ObjectInfo equality covers the f64 evidence values).
//! 3. Readers make progress while the writer holds its lock.
//! 4. The versions one reader observes never go backwards.

use genmapper::{GenMapper, QuerySpec, ResolvedView, SharedGenMapper};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use std::collections::HashMap;
use relstore::sync::{SeqCount, SeqFlag};
use std::sync::{Arc, Mutex};

fn demo_system() -> GenMapper {
    let eco = Ecosystem::generate(EcosystemParams::demo(7));
    let mut gm = GenMapper::in_memory().unwrap();
    gm.import_dumps(&eco.dumps).unwrap();
    gm
}

fn specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::source("LocusLink")
            .accessions(["353"])
            .target("Hugo")
            .target("GO")
            .target("Location")
            .target("OMIM"),
        QuerySpec::source("LocusLink").target("GO").target("OMIM").and(),
        QuerySpec::source("NetAffx").target("GO"),
    ]
}

/// Reference results for one published version, computed single-threaded
/// on the live system before publication.
type Expected = HashMap<(u64, u64), Vec<ResolvedView>>;

fn reference_results(gm: &GenMapper) -> Vec<ResolvedView> {
    specs().iter().map(|s| gm.query(s).unwrap()).collect()
}

#[test]
fn concurrent_readers_see_only_published_versions_bit_identically() {
    let sh = Arc::new(SharedGenMapper::new(demo_system()).unwrap());
    let expected: Arc<Mutex<Expected>> = Arc::new(Mutex::new(HashMap::new()));

    // reference for the initial publication
    sh.with_writer(|gm| {
        expected
            .lock()
            .unwrap()
            .insert(gm.version_stamp(), reference_results(gm));
        Ok(())
    })
    .unwrap();

    let done = Arc::new(SeqFlag::default());
    let checked = Arc::new(SeqCount::default());

    std::thread::scope(|scope| {
        // ---- single writer: mutate, record reference, publish ----
        {
            let sh = sh.clone();
            let expected = expected.clone();
            let done = done.clone();
            scope.spawn(move || {
                let eco = Ecosystem::generate(EcosystemParams::demo(7));
                for round in 0..4u32 {
                    sh.with_writer(|gm| {
                        match round % 4 {
                            0 => {
                                gm.materialize_subsumed("GO").map(|_| ())?;
                            }
                            1 => {
                                gm.materialize_composed(&["Unigene", "LocusLink", "GO"])
                                    .map(|_| ())?;
                            }
                            2 => {
                                gm.import_dumps(&eco.dumps).map(|_| ())?;
                            }
                            _ => {
                                gm.save_path(
                                    "affx-go",
                                    &["NetAffx", "Unigene", "LocusLink", "GO"],
                                )?;
                            }
                        }
                        // the single-threaded reference, recorded BEFORE
                        // this state is published
                        expected
                            .lock()
                            .unwrap()
                            .insert(gm.version_stamp(), reference_results(gm));
                        Ok(())
                    })
                    .unwrap();
                }
                done.set(true);
            });
        }

        // ---- many readers: snapshot, query, compare to the reference ----
        for reader in 0..4 {
            let sh = sh.clone();
            let expected = expected.clone();
            let done = done.clone();
            let checked = checked.clone();
            scope.spawn(move || {
                let specs = specs();
                let mut last_version = (0, 0);
                while !done.get() {
                    let snap = sh.snapshot();
                    let version = snap.version();
                    assert!(
                        version >= last_version,
                        "reader {reader}: version went backwards: {version:?} after {last_version:?}"
                    );
                    last_version = version;
                    let results: Vec<ResolvedView> =
                        specs.iter().map(|s| snap.query(s).unwrap()).collect();
                    let map = expected.lock().unwrap();
                    let reference = map.get(&version).unwrap_or_else(|| {
                        panic!(
                            "reader {reader} observed unpublished version {version:?} \
                             (published references: {:?})",
                            map.keys().collect::<Vec<_>>()
                        )
                    });
                    assert_eq!(
                        &results, reference,
                        "reader {reader}: snapshot answers diverge at {version:?}"
                    );
                    checked.add(1);
                }
            });
        }
    });

    assert!(
        checked.get() > 0,
        "readers verified at least one snapshot"
    );
    // the final published snapshot matches a fresh single-threaded pass
    let final_snap = sh.snapshot();
    let map = expected.lock().unwrap();
    assert_eq!(
        map.get(&final_snap.version())
            .expect("final version has a reference"),
        &specs()
            .iter()
            .map(|s| final_snap.query(s).unwrap())
            .collect::<Vec<_>>()
    );
}

#[test]
fn readers_never_block_on_a_slow_writer() {
    let sh = Arc::new(SharedGenMapper::new(demo_system()).unwrap());
    let reads_during_write = Arc::new(SeqCount::default());
    let done = Arc::new(SeqFlag::default());

    std::thread::scope(|scope| {
        {
            let sh = sh.clone();
            let reads = reads_during_write.clone();
            let done = done.clone();
            scope.spawn(move || {
                let spec = &specs()[0];
                while !done.get() {
                    let snap = sh.snapshot();
                    let view = snap.query(spec).unwrap();
                    assert!(!view.is_empty());
                    if sh.import_status().writing {
                        reads.add(1);
                    }
                }
            });
        }
        // a deliberately slow writer: holds the writer lock for ~200ms
        sh.with_writer(|gm| {
            let end = std::time::Instant::now() + std::time::Duration::from_millis(200);
            gm.materialize_subsumed("GO").map(|_| ())?;
            while std::time::Instant::now() < end {
                std::thread::yield_now();
            }
            Ok(())
        })
        .unwrap();
        done.set(true);
    });

    assert!(
        reads_during_write.get() > 0,
        "snapshot reads completed while the writer held its lock"
    );
}

#[test]
fn snapshot_equivalence_under_repeated_capture() {
    // capture N snapshots at the same version from different cache
    // temperatures: cold, after one query, after all queries — every one
    // answers bit-identically
    let gm = demo_system();
    let reference = reference_results(&gm);
    let cold = gm.capture_snapshot().unwrap();
    let warm_results: Vec<ResolvedView> = specs().iter().map(|s| gm.query(s).unwrap()).collect();
    assert_eq!(warm_results, reference);
    let warm = gm.capture_snapshot().unwrap();
    for snap in [&cold, &warm] {
        let got: Vec<ResolvedView> = specs().iter().map(|s| snap.query(s).unwrap()).collect();
        assert_eq!(got, reference);
        assert_eq!(snap.version(), gm.version_stamp());
        assert_eq!(
            snap.object_info("LocusLink", "353").unwrap(),
            gm.object_info("LocusLink", "353").unwrap()
        );
    }
}
