//! `Table::for_each_match` — the batched key resolution behind
//! `find_sources` — answers what one `lookup_unique` per probe answers,
//! pool-less and paged, and reads a row only where a key matches: a batch
//! that matches nothing faults no page. Its id-only seek loop,
//! `Table::for_each_match_id` — behind `resolve_accessions` and the
//! `by_pair` duplicate check — answers the ids of those rows, over owned
//! or borrowed probes alike, and reads no row at all.

use gam::model::{SourceContent, SourceStructure};
use gam::schema::tables;
use gam::{GamRead, GamStore, SourceId};
use relstore::vfs::FaultVfs;
use relstore::{PoolConfig, Row, RowId, Value, ValueRef};
use std::path::Path;
use std::sync::Arc;
use testkit::{cases, text, Prng};

/// Three sources of a few hundred objects each, checkpointed — pool-less,
/// or behind a two-page pool the `OBJECT` heap outgrows many times over.
fn populated(rng: &mut Prng, paged: bool) -> (GamStore, Vec<SourceId>) {
    let vfs = Arc::new(FaultVfs::new());
    let mut store = if paged {
        let config = PoolConfig {
            page_bytes: 256,
            pool_pages: 2,
        };
        GamStore::open_paged_with_vfs(vfs, Path::new("/db"), config).unwrap()
    } else {
        GamStore::open_with_vfs(vfs, Path::new("/db")).unwrap()
    };
    let sources: Vec<SourceId> = ["Hugo", "GO", "LocusLink"]
        .iter()
        .map(|name| {
            let source = store
                .create_source(name, SourceContent::Gene, SourceStructure::Flat, None)
                .unwrap();
            let objects: Vec<(String, Option<String>, Option<f64>)> = (0..rng.gen_range(100..300usize))
                .map(|_| (stored(rng), Some("a name long enough to fill pages".into()), None))
                .collect();
            store.add_objects_bulk(source.id, &objects).unwrap();
            source.id
        })
        .collect();
    store.checkpoint().unwrap();
    (store, sources)
}

/// Accessions the stores hold: `[B-D]{1,2}[0-9]{1,3}`, so draws repeat.
fn stored(rng: &mut Prng) -> String {
    text(rng, b"BCD", 1..=2) + &text(rng, b"0123456789", 1..=3)
}

/// A probe set: accessions that may be stored, accessions that never are —
/// inside the stored range (`C-7`), below it (`A..`, empty) and above it
/// (`Z..`) — in no order and with repeats.
fn probe_set(rng: &mut Prng, hits: bool, misses: bool) -> Vec<String> {
    let mut probes = Vec::new();
    for _ in 0..rng.gen_range(1..80usize) {
        if hits {
            probes.push(stored(rng));
        }
        if misses {
            let body = text(rng, b"0123456789", 0..=3);
            probes.push(match rng.below(4) {
                0 => format!("A{body}"),
                1 => format!("Z{body}"),
                2 => format!("C-{body}"),
                _ => String::new(),
            });
        }
        if rng.gen_bool(0.3) {
            let again = probes[rng.below(probes.len())].clone();
            probes.push(again);
        }
    }
    probes
}

/// The rows `for_each_match` hands each probe of `probes`.
fn matched(store: &GamStore, table: &str, index: &str, probes: &[Vec<Value>]) -> Vec<Vec<Row>> {
    let mut got = vec![Vec::new(); probes.len()];
    store
        .database()
        .table(table)
        .unwrap()
        .for_each_match(index, probes, |n, row| got[n].push(row.clone()))
        .unwrap();
    got
}

/// The row ids `for_each_match_id` hands each probe of `probes`, asked
/// once with the owned probes and once with them borrowed; the two must
/// agree.
fn matched_ids(store: &GamStore, table: &str, index: &str, probes: &[Vec<Value>]) -> Vec<Vec<RowId>> {
    let table = store.database().table(table).unwrap();
    let mut got = vec![Vec::new(); probes.len()];
    table.for_each_match_id(index, probes, |n, id| got[n].push(id)).unwrap();
    let borrowed: Vec<Vec<ValueRef<'_>>> = probes.iter().map(|probe| probe.iter().map(Value::view).collect()).collect();
    let mut again = vec![Vec::new(); probes.len()];
    table.for_each_match_id(index, &borrowed, |n, id| again[n].push(id)).unwrap();
    assert_eq!(got, again, "owned and borrowed probes");
    got
}

/// What one `lookup_unique` per probe finds.
fn looked_up(store: &GamStore, table: &str, index: &str, probes: &[Vec<Value>]) -> Vec<Vec<Row>> {
    let table = store.database().table(table).unwrap();
    probes
        .iter()
        .map(|probe| table.lookup_unique(index, probe).unwrap().into_iter().collect())
        .collect()
}

fn pool_misses(store: &GamStore) -> u64 {
    store.database().stats().unwrap().pool.map_or(0, |pool| pool.misses)
}

#[test]
fn batched_match_equals_one_lookup_per_probe() {
    cases(12, |rng| {
        for paged in [false, true] {
            let (store, sources) = populated(rng, paged);
            let source = *rng.pick(&sources);
            let src = Value::Int(source.as_i64());
            for (hits, misses) in [(false, false), (false, true), (true, false), (true, true)] {
                let accessions = match (hits, misses) {
                    (false, false) => Vec::new(),
                    _ => probe_set(rng, hits, misses),
                };
                let mut probes: Vec<Vec<Value>> = accessions
                    .iter()
                    .map(|acc| vec![src.clone(), Value::text(acc.as_str())])
                    .collect();
                if hits && misses {
                    // probes no key can equal: an accession where the source
                    // goes, a number where the accession goes, a bare prefix,
                    // one value too many
                    probes.push(vec![Value::text("B1"), Value::text("B1")]);
                    probes.push(vec![src.clone(), Value::Int(1)]);
                    probes.push(vec![src.clone()]);
                    probes.push(vec![src.clone(), Value::text("B1"), Value::Null]);
                }
                let before = pool_misses(&store);
                let got = matched(&store, tables::OBJECT, "by_accession", &probes);
                if !hits {
                    assert!(got.iter().all(Vec::is_empty));
                    assert_eq!(pool_misses(&store), before, "a batch of misses reads no row");
                }
                let want = looked_up(&store, tables::OBJECT, "by_accession", &probes);
                assert_eq!(got, want);

                // by id: an object's row sits at its id − 1, and no row is read
                let before = pool_misses(&store);
                let ids = matched_ids(&store, tables::OBJECT, "by_accession", &probes);
                assert_eq!(pool_misses(&store), before, "an id-only batch reads no row");
                let want_ids: Vec<Vec<RowId>> = want
                    .iter()
                    .map(|rows| rows.iter().map(|row| RowId(row.get(0).as_int().unwrap() as u64 - 1)).collect())
                    .collect();
                assert_eq!(ids, want_ids);

                // the store's own batched reads, against their per-key twins
                let refs: Vec<&str> = accessions.iter().map(String::as_str).collect();
                let resolved = store.resolve_accessions(source, &refs).unwrap();
                let one_by_one: Vec<_> = refs
                    .iter()
                    .map(|acc| store.find_object(source, acc).unwrap().map(|o| o.id))
                    .collect();
                assert_eq!(resolved, one_by_one);
            }
            let names = ["GO", "Enzyme", "Hugo", "", "GO", "LocusLink", "Aa"];
            let found = store.find_sources(&names).unwrap();
            let one_by_one: Vec<_> = names.iter().map(|n| store.find_source(n).unwrap()).collect();
            assert_eq!(found, one_by_one);
            assert_eq!(found.iter().flatten().count(), 4);
        }
    });
}
