//! Seeded sweeps over the GAM store: duplicate elimination, id stability,
//! mapping round-trips, and cardinality accounting under random workloads.

use gam::model::{RelType, SourceContent, SourceStructure};
use gam::{Association, GamStore, ObjectId};
use std::collections::{BTreeMap, BTreeSet};
use testkit::{cases, text, Prng, TempDir};

/// `[A-Z]{1,2}[0-9]{1,4}`, over three letters and three digits so that a
/// few dozen draws repeat accessions.
fn accession(rng: &mut Prng) -> String {
    text(rng, b"ABC", 1..=2) + &text(rng, b"012", 1..=4)
}

fn accessions(rng: &mut Prng, max: usize) -> Vec<String> {
    (0..rng.gen_range(1..max)).map(|_| accession(rng)).collect()
}

/// ensure_object is idempotent per (source, accession): the number of
/// stored objects equals the number of distinct accessions, and ids
/// are stable across repeats.
#[test]
fn object_dedup_matches_distinct_accessions() {
    cases(32, |rng| {
        let accessions = accessions(rng, 60);
        let mut store = GamStore::in_memory().unwrap();
        let src = store
            .create_source("S", SourceContent::Gene, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let mut first_id: BTreeMap<&str, ObjectId> = BTreeMap::new();
        for acc in &accessions {
            let (id, created) = store.ensure_object(src, acc, None, None).unwrap();
            match first_id.get(acc.as_str()) {
                Some(&prev) => {
                    assert!(!created);
                    assert_eq!(prev, id, "id stable for {}", acc);
                }
                None => {
                    assert!(created);
                    first_id.insert(acc, id);
                }
            }
        }
        let distinct: BTreeSet<&String> = accessions.iter().collect();
        assert_eq!(store.object_count(src).unwrap(), distinct.len());
        assert_eq!(store.cardinalities().unwrap().objects, distinct.len());
    });
}

/// Bulk insert and per-row insert agree: same ids for same accessions,
/// same final count.
#[test]
fn bulk_and_single_inserts_agree() {
    cases(32, |rng| {
        let accessions = accessions(rng, 50);
        let rows: Vec<(String, Option<String>, Option<f64>)> =
            accessions.iter().map(|a| (a.clone(), None, None)).collect();

        let mut bulk_store = GamStore::in_memory().unwrap();
        let src_b = bulk_store
            .create_source("S", SourceContent::Gene, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let (bulk_ids, _) = bulk_store.add_objects_bulk(src_b, &rows).unwrap();

        let mut single_store = GamStore::in_memory().unwrap();
        let src_s = single_store
            .create_source("S", SourceContent::Gene, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let mut single_ids = Vec::new();
        for acc in &accessions {
            let (id, _) = single_store.ensure_object(src_s, acc, None, None).unwrap();
            single_ids.push(id);
        }
        assert_eq!(bulk_ids, single_ids);
        assert_eq!(
            bulk_store.object_count(src_b).unwrap(),
            single_store.object_count(src_s).unwrap()
        );
    });
}

/// Associations round-trip through load_mapping with exact pair
/// dedup: stored count equals distinct (from, to) pairs, and the
/// inverse orientation mirrors them.
#[test]
fn association_storage_roundtrip() {
    cases(32, |rng| {
        let pairs: Vec<(usize, usize, Option<f64>)> = (0..rng.below(80))
            .map(|_| {
                let evidence = rng.gen_bool(0.5).then(|| rng.gen_f64());
                (rng.below(20), rng.below(20), evidence)
            })
            .collect();
        let mut store = GamStore::in_memory().unwrap();
        let a = store
            .create_source("A", SourceContent::Gene, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let b = store
            .create_source("B", SourceContent::Other, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let mut a_ids = Vec::new();
        let mut b_ids = Vec::new();
        for i in 0..20 {
            a_ids.push(store.create_object(a, &format!("a{i}"), None, None).unwrap());
            b_ids.push(store.create_object(b, &format!("b{i}"), None, None).unwrap());
        }
        let rel = store.create_source_rel(a, b, RelType::Fact, None).unwrap();
        let assocs: Vec<Association> = pairs
            .iter()
            .map(|&(f, t, e)| Association {
                from: a_ids[f],
                to: b_ids[t],
                evidence: e,
            })
            .collect();
        let mut added = 0;
        store
            .add_associations_bulk(rel, assocs.iter().copied(), &mut added)
            .unwrap();
        let distinct: BTreeSet<(ObjectId, ObjectId)> =
            assocs.iter().map(|x| (x.from, x.to)).collect();
        assert_eq!(added, distinct.len());
        let mapping = store.load_mapping(rel).unwrap();
        assert_eq!(mapping.len(), distinct.len());
        let loaded: BTreeSet<(ObjectId, ObjectId)> =
            mapping.pairs.iter().map(|x| (x.from, x.to)).collect();
        assert_eq!(&loaded, &distinct);
        // inverse mirrors
        let inv = mapping.inverse();
        let inv_pairs: BTreeSet<(ObjectId, ObjectId)> =
            inv.pairs.iter().map(|x| (x.to, x.from)).collect();
        assert_eq!(&inv_pairs, &distinct);
        // cardinality accounting
        assert_eq!(store.cardinalities().unwrap().associations, distinct.len());
    });
}

/// A durable store reopened from disk answers identically to the
/// in-memory original, for random small contents.
#[test]
fn durable_reopen_equivalence() {
    cases(8, |rng| {
        let accessions = accessions(rng, 25);
        let links: Vec<(usize, usize)> = (0..rng.below(40))
            .map(|_| (rng.below(25), rng.below(25)))
            .collect();
        let dir = TempDir::new("gam-prop");
        let cards;
        let rel;
        {
            let mut store = GamStore::open(dir.path()).unwrap();
            let a = store
                .create_source("A", SourceContent::Gene, SourceStructure::Flat, Some("r1"))
                .unwrap()
                .id;
            let b = store
                .create_source("B", SourceContent::Other, SourceStructure::Flat, None)
                .unwrap()
                .id;
            let mut a_ids = Vec::new();
            let mut b_ids = Vec::new();
            for acc in &accessions {
                let (id, _) = store.ensure_object(a, acc, None, None).unwrap();
                a_ids.push(id);
                let (id, _) = store
                    .ensure_object(b, &format!("x{acc}"), None, None)
                    .unwrap();
                b_ids.push(id);
            }
            rel = store.create_source_rel(a, b, RelType::Fact, None).unwrap();
            let mut added = 0;
            store
                .add_associations_bulk(
                    rel,
                    links.iter().map(|&(i, j)| {
                        Association::fact(a_ids[i % a_ids.len()], b_ids[j % b_ids.len()])
                    }),
                    &mut added,
                )
                .unwrap();
            store.checkpoint().unwrap();
            cards = store.cardinalities().unwrap();
        }
        {
            let store = GamStore::open(dir.path()).unwrap();
            assert_eq!(store.cardinalities().unwrap(), cards);
            assert_eq!(store.load_mapping(rel).unwrap().len(), cards.associations);
            let src = store.find_source("A").unwrap().unwrap();
            assert_eq!(src.release.as_deref(), Some("r1"));
        }
    });
}
