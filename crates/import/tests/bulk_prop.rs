//! Seeded equivalence sweeps for the bulk-import fast path: on random dump
//! shapes the batched importer must be **bit-identical** to the
//! per-row reference implementation — the same `ImportReport`, the same
//! source rows, objects, mappings and association pairs, in the same id
//! order. A second block checks that re-imports are idempotent.

use eav::{EavBatch, EavRecord, SourceMeta};
use gam::model::{SourceContent, SourceStructure};
use gam::{GamRead, GamStore};
use import::Importer;
use testkit::{cases, text, Prng};

/// Accessions over a small pool so in-batch duplicates are common; a slice
/// of them carry stray padding (normalized away) or are blank (dropped).
fn acc(rng: &mut Prng) -> String {
    let n = rng.below(24);
    match rng.below(8) {
        0..=5 => format!("a{n}"),
        6 => format!("  a{n} "),
        _ => " ".to_owned(),
    }
}

fn opt_text(rng: &mut Prng, max_len: usize) -> Option<String> {
    rng.gen_bool(0.5)
        .then(|| text(rng, b"abcdefghijklmnopqrstuvwxyz", 1..=max_len))
}

fn record(rng: &mut Prng, targets: &[&str]) -> EavRecord {
    match rng.below(3) {
        0 => EavRecord::Object {
            accession: acc(rng),
            text: opt_text(rng, 6),
            number: rng.gen_bool(0.5).then(|| rng.gen_f64() * 10.0),
        },
        1 => EavRecord::Annotation {
            entity: acc(rng),
            target: (*rng.pick(targets)).to_owned(),
            accession: acc(rng),
            text: opt_text(rng, 4),
            // occasionally out of [0,1]: sanitization must drop those
            evidence: rng.gen_bool(0.5).then(|| rng.gen_f64() * 1.4 - 0.2),
        },
        _ => EavRecord::IsA {
            child: acc(rng),
            parent: acc(rng),
        },
    }
}

/// A random dump for `name`. Targets never include the batch's own name
/// (a Fact self-mapping is rejected by the store, in both import paths),
/// but do include the other batch names so cross- and back-references are
/// exercised.
fn batch(rng: &mut Prng, name: &str, targets: &[&str]) -> EavBatch {
    EavBatch {
        meta: SourceMeta {
            name: name.to_owned(),
            release: (*rng.pick(&["r1", "r2"])).to_owned(),
            content: if rng.gen_bool(0.5) {
                SourceContent::Gene
            } else {
                SourceContent::Other
            },
            structure: if rng.gen_bool(0.5) {
                SourceStructure::Network
            } else {
                SourceStructure::Flat
            },
            partitions: (0..rng.below(3))
                .map(|_| (*rng.pick(&["P1", "P2"])).to_owned())
                .collect(),
        },
        records: (0..rng.below(60)).map(|_| record(rng, targets)).collect(),
    }
}

fn batch_sequence(rng: &mut Prng) -> Vec<EavBatch> {
    (0..rng.gen_range(1..5))
        .map(|_| match rng.below(3) {
            0 => batch(rng, "S0", &["GO", "Hugo", "OMIM", "S1"]),
            1 => batch(rng, "S1", &["GO", "Hugo", "S0"]),
            _ => batch(rng, "GO", &["Hugo", "S0", "S1"]),
        })
        .collect()
}

/// Full-store comparison: identical ids, rows and association pairs.
fn assert_same_stores(a: &GamStore, b: &GamStore) {
    assert_eq!(a.cardinalities().unwrap(), b.cardinalities().unwrap());
    let sources_a = a.sources().unwrap();
    assert_eq!(&sources_a, &b.sources().unwrap());
    for src in &sources_a {
        assert_eq!(
            a.objects_of(src.id).unwrap(),
            b.objects_of(src.id).unwrap(),
            "objects diverge for {}",
            &src.name
        );
    }
    let rels_a = a.source_rels().unwrap();
    assert_eq!(&rels_a, &b.source_rels().unwrap());
    for rel in &rels_a {
        let ma = a.load_mapping(rel.id).unwrap();
        let mb = b.load_mapping(rel.id).unwrap();
        assert_eq!(ma.pairs.len(), mb.pairs.len());
        for (x, y) in ma.pairs.iter().zip(&mb.pairs) {
            assert_eq!((x.from, x.to), (y.from, y.to));
            // evidence compared by bit pattern, not float tolerance
            assert_eq!(x.evidence.map(f64::to_bits), y.evidence.map(f64::to_bits));
        }
    }
}

/// Bulk path ≡ per-row path: same reports, same store, for any batch
/// sequence (stubs, re-imports, partitions, IS_A, both mapping kinds).
#[test]
fn bulk_import_equals_per_row() {
    cases(48, |rng| {
        let batches = batch_sequence(rng);
        let mut bulk = GamStore::in_memory().unwrap();
        let mut per_row = GamStore::in_memory().unwrap();
        for batch in &batches {
            let a = Importer::new(&mut bulk).import(batch).unwrap();
            let b = Importer::new(&mut per_row).import_per_row(batch).unwrap();
            assert_eq!(a, b, "reports diverge for {}", &batch.meta.name);
        }
        assert_same_stores(&bulk, &per_row);
    });
}

/// Importing by value (the pipeline's no-clone path) ≡ importing the
/// same batch by reference.
#[test]
fn owned_import_equals_borrowed() {
    cases(48, |rng| {
        let batches = batch_sequence(rng);
        let mut borrowed = GamStore::in_memory().unwrap();
        let mut owned = GamStore::in_memory().unwrap();
        for batch in &batches {
            let a = Importer::new(&mut borrowed).import(batch).unwrap();
            let b = Importer::new(&mut owned).import_owned(batch.clone()).unwrap();
            assert_eq!(a, b);
        }
        assert_same_stores(&borrowed, &owned);
    });
}

/// Re-importing already-integrated batches changes nothing: the same
/// release is skipped outright; a bumped release runs incrementally
/// but dedups every object and association.
#[test]
fn reimport_is_idempotent() {
    cases(48, |rng| {
        let batches = batch_sequence(rng);
        let mut store = GamStore::in_memory().unwrap();
        for batch in &batches {
            Importer::new(&mut store).import(batch).unwrap();
        }
        let cards = store.cardinalities().unwrap();
        for batch in &batches {
            let report = Importer::new(&mut store).import(batch).unwrap();
            if report.skipped {
                assert_eq!(report.objects_created, 0);
            } else {
                // incremental path: everything dedups
                assert_eq!(report.objects_created, 0);
                assert_eq!(report.associations_created, 0);
                assert_eq!(report.mappings_created, 0);
                assert!(report.stub_sources_created.is_empty());
            }
            assert_eq!(&store.cardinalities().unwrap(), &cards);
        }
        // a fresh release over identical content also creates nothing
        if let Some(first) = batches.first() {
            let mut bumped = first.clone();
            bumped.meta.release = "zz-new".to_owned();
            let report = Importer::new(&mut store).import(&bumped).unwrap();
            assert!(!report.skipped);
            assert_eq!(report.objects_created, 0);
            assert_eq!(report.associations_created, 0);
            assert_eq!(&store.cardinalities().unwrap(), &cards);
            let src = store.find_source(&first.meta.name).unwrap().unwrap();
            assert_eq!(src.release.as_deref(), Some("zz-new"));
        }
    });
}
