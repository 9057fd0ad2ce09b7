//! Durability integration: checkpoint + WAL recovery at system level,
//! including failure injection (torn WAL, corrupt snapshot).

use gam::GamRead;
use genmapper::{GenMapper, QuerySpec};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use std::fs;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("genmapper-persistence").join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn full_ecosystem_survives_reopen() {
    let dir = tmpdir("full");
    let eco = Ecosystem::generate(EcosystemParams::demo(55));
    let cards = {
        let mut gm = GenMapper::open(&dir).unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        gm.checkpoint().unwrap();
        gm.cardinalities().unwrap()
    };
    {
        let mut gm = GenMapper::open(&dir).unwrap();
        assert_eq!(gm.cardinalities().unwrap(), cards);
        // operators work on the recovered store
        let view = gm
            .query(&QuerySpec::source("LocusLink").accessions(["353"]).target("GO"))
            .unwrap();
        assert!(!view.is_empty());
        let composed = gm.compose(&["Unigene", "LocusLink", "GO"], None).unwrap();
        assert!(!composed.is_empty());
        // re-import after reopen is still deduplicated
        let reports = gm.import_dumps(&eco.dumps).unwrap();
        assert!(reports.iter().all(|r| r.skipped));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn work_after_checkpoint_is_replayed_from_wal() {
    let dir = tmpdir("wal-tail");
    let eco = Ecosystem::generate(EcosystemParams::demo(56));
    {
        let mut gm = GenMapper::open(&dir).unwrap();
        // import only the first three sources, checkpoint, then import the
        // GO-free remainder — the tail lives only in the WAL
        gm.import_dumps(&eco.dumps[..3]).unwrap();
        gm.checkpoint().unwrap();
        gm.import_dumps(&eco.dumps[3..6]).unwrap();
        // no checkpoint here
    }
    {
        let gm = GenMapper::open(&dir).unwrap();
        let sources = gm.sources().unwrap();
        let names: Vec<&str> = sources.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"Enzyme"), "WAL-only source recovered");
        assert!(names.contains(&"Hugo"));
        assert!(names.contains(&"OMIM"));
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn materializations_survive_reopen() {
    let dir = tmpdir("materialize");
    let eco = Ecosystem::generate(EcosystemParams::demo(57));
    let n = {
        let mut gm = GenMapper::open(&dir).unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        let (_, n) = gm
            .materialize_composed(&["Unigene", "LocusLink", "GO"])
            .unwrap();
        gm.checkpoint().unwrap();
        n
    };
    {
        let gm = GenMapper::open(&dir).unwrap();
        let direct = gm.map("Unigene", "GO").unwrap();
        assert_eq!(direct.len(), n, "materialized mapping recovered intact");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_recovers_to_last_commit() {
    let dir = tmpdir("torn");
    let eco = Ecosystem::generate(EcosystemParams::demo(58));
    let cards_before_tail;
    {
        let mut gm = GenMapper::open(&dir).unwrap();
        gm.import_dumps(&eco.dumps[..2]).unwrap();
        gm.checkpoint().unwrap();
        gm.import_dumps(&eco.dumps[2..3]).unwrap();
        cards_before_tail = gm.cardinalities().unwrap();
    }
    // tear off the last 5 bytes of the WAL: the final frame is torn, every
    // fully committed transaction before it must survive
    let wal = dir.join("wal.log");
    let data = fs::read(&wal).unwrap();
    assert!(data.len() > 16, "WAL holds the tail import");
    fs::write(&wal, &data[..data.len() - 5]).unwrap();
    {
        let gm = GenMapper::open(&dir).unwrap();
        let cards = gm.cardinalities().unwrap();
        // at most the torn transaction is missing; sources imported before
        // it are intact
        assert!(cards.sources >= 2);
        assert!(cards.objects <= cards_before_tail.objects);
        let ll = gm.source_id("LocusLink").unwrap();
        assert!(gm.store().object_count(ll).unwrap() > 0);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_degrades_and_is_reported() {
    let dir = tmpdir("corrupt-snapshot");
    {
        let mut gm = GenMapper::open(&dir).unwrap();
        let eco = Ecosystem::generate(EcosystemParams::demo(59));
        gm.import_dumps(&eco.dumps[..1]).unwrap();
        gm.checkpoint().unwrap();
    }
    let checkpoint = dir.join("pagedir.bin");
    let mut data = fs::read(&checkpoint).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0xff;
    fs::write(&checkpoint, &data).unwrap();
    // Corruption is detected (CRC) and the store degrades to the newest
    // valid state instead of refusing to open. Only one checkpoint
    // generation exists here, so that state is empty — and the WAL, which
    // predates the corrupt checkpoint's epoch, is discarded as stale. The
    // recovery report says exactly what happened.
    let gm = GenMapper::open(&dir).unwrap();
    let report = gm.store().recovery_report().unwrap();
    assert_eq!(report.snapshot, relstore::SnapshotSource::None);
    assert!(report.wal_stale, "pre-checkpoint WAL is stale after fallback");
    assert_eq!(gm.cardinalities().unwrap().sources, 0);
    // A corrupt primary with an intact previous generation instead
    // degrades to that generation (covered in relstore/tests/recovery.rs).
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_wal_and_resumes() {
    let dir = tmpdir("truncate");
    let eco = Ecosystem::generate(EcosystemParams::demo(60));
    {
        let mut gm = GenMapper::open(&dir).unwrap();
        gm.import_dumps(&eco.dumps[..2]).unwrap();
        gm.checkpoint().unwrap();
        // the reset WAL holds nothing but the new epoch stamp
        let stamp = fs::metadata(dir.join("wal.log")).unwrap().len();
        assert!(stamp > 0 && stamp <= 32, "epoch-only WAL, got {stamp} bytes");
        // continue appending after truncation
        gm.import_dumps(&eco.dumps[2..3]).unwrap();
        assert!(fs::metadata(dir.join("wal.log")).unwrap().len() > stamp);
    }
    {
        let mut gm = GenMapper::open(&dir).unwrap();
        assert!(gm.source_id("Unigene").is_ok());
        gm.checkpoint().unwrap();
    }
    // a store reopened on an epoch-only WAL keeps the stamp, so what it
    // commits before closing again is replayed at the next open
    let cards = {
        let mut gm = GenMapper::open(&dir).unwrap();
        gm.import_dumps(&eco.dumps[3..4]).unwrap();
        gm.cardinalities().unwrap()
    };
    assert_eq!(GenMapper::open(&dir).unwrap().cardinalities().unwrap(), cards);
    let _ = fs::remove_dir_all(&dir);
}
