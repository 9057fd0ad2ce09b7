//! Store ≡ snapshot on the object- and association-level reads, as a
//! seeded deterministic sweep: 50 random stores with several mappings
//! per source pair, IS_A self-mappings, shared object pairs and deleted
//! mappings. For every object and every mapping id — issued, deleted or
//! never issued — [`GamStore`] and [`GamSnapshot`] must answer
//! `associations_of_object`, `association_count` and
//! `load_mapping_index_shared` identically, the first in the documented
//! order, rebuilt here from `load_mapping` alone; and they must answer the
//! object lookups identically at the edges of the snapshot's id-indexed
//! table (id 0, just past the last id, `u64::MAX`), errors included —
//! `with_objects` lending, in input order, what `get_object` finds one id
//! at a time and failing with the least unknown id. The next test does the
//! same for accessions that differ only slightly, and the one after for an
//! id no object holds inside the table, the one a refused commit burnt.
//! The one after pins what capture costs on a paged store, in buffer-pool
//! misses rather than time.
//! The last two are store ≡ store across a reopen that changes the
//! schemas: a directory checkpointed under earlier releases' schemas
//! (literals here, frozen images of those formats), each id a stored `pk`
//! or no key at all, is reconciled in place to dense keys, answers every
//! [`GamRead`] call as before, and persists the declared schemas; one whose
//! ids do not tile its rows is refused, naming the table.

use gam::model::{SourceContent, SourceStructure};
use gam::schema::{self, tables};
use gam::{
    Association, GamError, GamObject, GamRead, GamResult, GamSnapshot, GamStore, ObjectId, RelType,
    SourceId, SourceRelId,
};
use relstore::vfs::{FaultVfs, Vfs};
use relstore::{Column, Database, PoolConfig, Schema, ValueType};
use std::path::Path;
use std::sync::Arc;
use testkit::Prng;

fn evidence(st: &mut Prng) -> Option<f64> {
    match st.below(4) {
        0 => None,
        1 => Some(1.0),
        _ => Some(st.below(1001) as f64 / 1000.0),
    }
}

/// Fill `store` with a random GAM; returns the sources' object ids.
fn populate(store: &mut GamStore, st: &mut Prng) -> Vec<(SourceId, Vec<ObjectId>)> {
    let n_sources = 2 + st.below(4);
    let mut sources: Vec<(SourceId, Vec<ObjectId>)> = Vec::new();
    for i in 0..n_sources {
        let id = store
            .create_source(
                &format!("S{i}"),
                SourceContent::Other,
                SourceStructure::Network,
                None,
            )
            .unwrap()
            .id;
        let objects = (0..st.below(12))
            .map(|k| {
                store
                    .create_object(id, &format!("s{i}-{k}"), None, None)
                    .unwrap()
            })
            .collect();
        sources.push((id, objects));
    }
    let mut rels = Vec::new();
    for _ in 0..1 + st.below(8) {
        let (from, to) = (st.below(n_sources), st.below(n_sources));
        let rel_type = match (from == to, st.below(2)) {
            (true, _) => RelType::IsA,
            (false, 0) => RelType::Fact,
            (false, _) => RelType::Similarity,
        };
        let rel = store
            .create_source_rel(sources[from].0, sources[to].0, rel_type, None)
            .unwrap();
        rels.push((rel, from, to));
    }
    // interleave the mappings' inserts so row order is not mapping order
    for _ in 0..st.below(60) {
        let (rel, from, to) = rels[st.below(rels.len())];
        let (domain, range) = (&sources[from].1, &sources[to].1);
        if domain.is_empty() || range.is_empty() {
            continue;
        }
        let (o1, o2) = (
            domain[st.below(domain.len())],
            range[st.below(range.len())],
        );
        store.add_association(rel, o1, o2, evidence(st)).unwrap();
    }
    if st.below(3) == 0 {
        let (rel, _, _) = rels.swap_remove(st.below(rels.len()));
        store.delete_source_rel(rel).unwrap();
    }
    sources
}

/// The documented order, from `load_mapping` alone: by mapping id, the
/// object's associations as domain before those as range, each by partner.
fn expected_associations(store: &GamStore, object: ObjectId) -> Vec<(SourceRelId, Association)> {
    let mut out = Vec::new();
    for rel in store.source_rels().unwrap() {
        let pairs = store.load_mapping(rel.id).unwrap().pairs;
        let mut as_domain: Vec<Association> =
            pairs.iter().filter(|a| a.from == object).copied().collect();
        as_domain.sort_by_key(|a| a.to);
        let mut as_range: Vec<Association> = pairs
            .iter()
            .filter(|a| a.to == object)
            .map(|a| Association {
                from: object,
                to: a.from,
                evidence: a.evidence,
            })
            .collect();
        as_range.sort_by_key(|a| a.to);
        out.extend(as_domain.into_iter().chain(as_range).map(|a| (rel.id, a)));
    }
    out
}

fn same<T: std::fmt::Debug>(snap: GamResult<T>, store: GamResult<T>, what: &str) {
    assert_eq!(format!("{snap:?}"), format!("{store:?}"), "{what}");
}

/// What a reader lent for `batch` — each object with its input position —
/// and the id it then failed with, if it failed with `UnknownObject`.
type Lent = (Vec<(usize, GamObject)>, Option<ObjectId>);

fn lent(read: &dyn GamRead, batch: &[ObjectId]) -> Lent {
    let mut objects = Vec::new();
    let outcome = read.with_objects(batch, &mut |n, object| objects.push((n, object.into())));
    match outcome {
        Ok(()) => (objects, None),
        Err(GamError::UnknownObject(id)) => (objects, Some(id)),
        Err(e) => panic!("with_objects failed with {e}"),
    }
}

/// What `with_objects` must lend for `batch`, from `get_object` one id at
/// a time: every object found, in input order, and the least id none is.
fn lent_per_id(read: &dyn GamRead, batch: &[ObjectId]) -> Lent {
    let mut objects = Vec::new();
    let mut unknown: Option<ObjectId> = None;
    for (n, &id) in batch.iter().enumerate() {
        match read.get_object(id) {
            Ok(object) => objects.push((n, object)),
            Err(GamError::UnknownObject(_)) => unknown = Some(unknown.map_or(id, |u| u.min(id))),
            Err(e) => panic!("get_object({id}) failed with {e}"),
        }
    }
    (objects, unknown)
}

/// `with_objects` on the store and on the snapshot lends what per-id
/// `get_object` on the store finds, and `get_objects` answers it in input
/// order when every id is known.
fn lending_agrees(s: &dyn GamRead, n: &dyn GamRead, batch: &[ObjectId], what: &str) {
    let want = lent_per_id(s, batch);
    assert_eq!(lent(s, batch), want, "store {what}");
    assert_eq!(lent(n, batch), want, "snapshot {what}");
    if want.1.is_none() {
        let objects: Vec<GamObject> = want.0.into_iter().map(|(_, object)| object).collect();
        assert_eq!(s.get_objects(batch).unwrap(), objects, "store get_objects {what}");
        assert_eq!(n.get_objects(batch).unwrap(), objects, "snapshot get_objects {what}");
    }
}

#[test]
fn store_and_snapshot_agree_on_every_object_and_mapping() {
    let mut with_associations = 0;
    for round in 0..50u64 {
        let mut st = Prng::seed_from_u64(round);
        let mut store = GamStore::in_memory().unwrap();
        let sources = populate(&mut store, &mut st);
        let snap = GamSnapshot::capture(&store).unwrap();
        let (s, n): (&dyn GamRead, &dyn GamRead) = (&store, &snap);
        for object in sources.iter().flat_map(|(_, objects)| objects) {
            let live = s.associations_of_object(*object).unwrap();
            assert_eq!(
                live,
                expected_associations(&store, *object),
                "round {round} {object}"
            );
            assert_eq!(
                n.associations_of_object(*object).unwrap(),
                live,
                "round {round} {object}"
            );
            with_associations += usize::from(!live.is_empty());
        }
        object_lookups_agree(s, n, &sources, &mut st, round);
        // every id ever issued (a deleted one among them) and two never issued
        let issued = store.cardinalities().unwrap().mappings as u32 + 1;
        for id in (0..issued + 3).map(SourceRelId) {
            let what = format!("round {round} mapping {id}");
            same(n.association_count(id), s.association_count(id), &what);
            same(
                n.load_mapping_index_shared(id),
                s.load_mapping_index_shared(id),
                &what,
            );
        }
    }
    assert!(
        with_associations > 200,
        "the sweep must not be vacuous: {with_associations}"
    );
}

/// `get_object` for every issued id and the ids around them, `get_objects`
/// over ascending, shuffled and repeated ids and with an unknown id in the
/// middle, `find_object` and `resolve_accessions`: the store's answers,
/// errors included.
fn object_lookups_agree(
    s: &dyn GamRead,
    n: &dyn GamRead,
    sources: &[(SourceId, Vec<ObjectId>)],
    st: &mut Prng,
    round: u64,
) {
    let ids: Vec<ObjectId> = sources
        .iter()
        .flat_map(|(_, objects)| objects.clone())
        .collect();
    let max = ids.iter().map(|id| id.0).max().unwrap_or(0);
    let edges = [0, max + 1, max + 2, max + 3, u64::MAX].map(ObjectId);
    for &id in ids.iter().chain(&edges) {
        same(
            n.get_object(id),
            s.get_object(id),
            &format!("round {round} get_object {id}"),
        );
    }
    let mut ascending = ids.clone();
    ascending.sort_unstable();
    let mut shuffled = ids.clone();
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, st.below(i + 1));
    }
    let repeated: Vec<ObjectId> = ids
        .iter()
        .flat_map(|&id| [id, id])
        .chain(ids.first().copied())
        .collect();
    let mut unknown_inside = shuffled.clone();
    unknown_inside.insert(shuffled.len() / 2, ObjectId(max + 1));
    // the least unknown id is neither the first nor the last of these
    let mut edges_around = vec![ObjectId(u64::MAX), ObjectId(max + 2)];
    edges_around.extend(repeated.iter().rev());
    edges_around.extend([ObjectId(max + 1), ObjectId(max + 3)]);
    for (what, batch) in [
        ("ascending", ascending),
        ("shuffled", shuffled),
        ("repeated", repeated),
        ("unknown inside", unknown_inside),
        ("edges", edges.to_vec()),
        ("edges around", edges_around),
    ] {
        let what = format!("round {round} get_objects {what}");
        same(n.get_objects(&batch), s.get_objects(&batch), &what);
        lending_agrees(s, n, &batch, &what);
    }
    let unknown = SourceId(sources.len() as u32 + 1);
    for &(source, _) in sources.iter().chain([&(unknown, Vec::new())]) {
        let mut accessions: Vec<String> = (0..3)
            .map(|_| format!("s{}-{}", st.below(6), st.below(14)))
            .collect();
        accessions.push(String::new());
        for acc in &accessions {
            let what = format!("round {round} find_object {source} {acc:?}");
            same(
                n.find_object(source, acc),
                s.find_object(source, acc),
                &what,
            );
        }
        let refs: Vec<&str> = accessions.iter().map(String::as_str).collect();
        let what = format!("round {round} resolve_accessions {source}");
        same(
            n.resolve_accessions(source, &refs),
            s.resolve_accessions(source, &refs),
            &what,
        );
    }
}

/// `find_object` and `resolve_accessions` agree on store and snapshot over
/// accessions that differ only slightly — shared prefixes (`GO:1`,
/// `GO:10`, `GO:1\0`), case only, a non-ASCII `ÿ` — over absent
/// accessions, another source's accession, an empty source and an unknown
/// one, and over batches unsorted, sorted and with repeats. The snapshot
/// finds an accession through an open-addressed table of slab positions:
/// a probe must compare the whole accession and its source, and walk on
/// past the slots other objects took.
#[test]
fn accession_lookups_agree_over_near_equal_accessions() {
    const STEMS: [&str; 6] = ["GO:1", "GO:10", "GO:1\0", "go:1", "Go:1", "\u{ff}"];
    let (mut hits, mut misses) = (0, 0);
    testkit::cases(40, |st| {
        let mut store = GamStore::in_memory().unwrap();
        let sources: Vec<SourceId> = (0..3)
            .map(|i| {
                let (content, structure) = (SourceContent::Other, SourceStructure::Flat);
                store.create_source(&format!("S{i}"), content, structure, None).unwrap().id
            })
            .collect();
        // the third source stays empty; the two others share some accessions
        let mut held: Vec<Vec<String>> = vec![Vec::new(); sources.len()];
        for (k, &source) in sources[..2].iter().enumerate() {
            let accessions: Vec<(String, Option<String>, Option<f64>)> = (0..st.below(40))
                .map(|_| {
                    let tail = testkit::text(st, b"Oo01:\0\xff", 0..=3);
                    (format!("{}{tail}", st.pick(&STEMS)), None, None)
                })
                .collect();
            store.add_objects_bulk(source, &accessions).unwrap();
            held[k] = accessions.into_iter().map(|(acc, _, _)| acc).collect();
        }
        let snap = GamSnapshot::capture(&store).unwrap();
        let (s, n): (&dyn GamRead, &dyn GamRead) = (&store, &snap);
        let unknown = SourceId(sources.len() as u32 + 1);
        for (k, &source) in sources.iter().chain([&unknown]).enumerate() {
            let mut probes: Vec<String> = held.iter().flatten().cloned().collect();
            let folded: Vec<String> = probes
                .iter()
                .flat_map(|acc| [acc.to_ascii_uppercase(), acc.to_ascii_lowercase()])
                .collect();
            probes.extend(folded);
            probes.extend(STEMS.iter().map(|stem| stem.to_string()));
            probes.extend((0..8).map(|_| testkit::text(st, b"GOgo01:\0\xff", 0..=6)));
            for i in (1..probes.len()).rev() {
                probes.swap(i, st.below(i + 1));
            }
            for acc in &probes {
                let found = s.find_object(source, acc).unwrap();
                assert_eq!(n.find_object(source, acc).unwrap(), found, "source {k} {acc:?}");
                if found.is_some() {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            let mut sorted = probes.clone();
            sorted.sort_unstable();
            for batch in [probes, sorted] {
                let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
                let want = s.resolve_accessions(source, &refs).unwrap();
                assert_eq!(n.resolve_accessions(source, &refs).unwrap(), want, "source {k}");
            }
        }
    });
    assert!(
        hits > 500 && misses > 500,
        "the sweep must not be vacuous: {hits} hits, {misses} misses"
    );
}

/// A store whose object ids have a gap — the id of a `create_object` the
/// WAL refused, burnt with its row id: the snapshot's table holds an empty
/// entry for the missing id, which both sides answer as unknown, and the
/// object past the gap is found by id. A refused `create_source` leaves
/// the same gap in the source ids, and the source past it is found too.
/// A row that would close the gap by hand, an id that is not its row's
/// address, is refused.
#[test]
fn an_id_no_object_holds_is_unknown_to_store_and_snapshot() {
    use relstore::vfs::FaultPlan;
    let dir = Path::new("/db");
    let disk = FaultVfs::new();
    let vfs = || -> Arc<dyn Vfs> { Arc::new(disk.clone()) };
    let (source, gap) = {
        let mut store = GamStore::open_with_vfs(vfs(), dir).unwrap();
        let source = store
            .create_source("S", SourceContent::Other, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let last = (0..3)
            .map(|k| {
                store
                    .create_object(source, &format!("o{k}"), None, None)
                    .unwrap()
            })
            .last()
            .unwrap();
        let fail_at = Some(disk.op_count() + 1);
        disk.set_plan(FaultPlan { crash_at: None, fail_at, torn_seed: 3 });
        assert!(store.create_object(source, "refused", None, None).is_err());
        let past = store.create_object(source, "past-the-gap", None, None).unwrap();
        assert_eq!(past, ObjectId(last.0 + 2), "the refused commit burnt one id");
        // a refused `create_source` burns a source id the same way
        let fail_at = Some(disk.op_count() + 1);
        disk.set_plan(FaultPlan { crash_at: None, fail_at, torn_seed: 3 });
        let (content, structure) = (SourceContent::Other, SourceStructure::Flat);
        assert!(store.create_source("refused", content, structure, None).is_err());
        let after = store.create_source("T", content, structure, None).unwrap().id;
        assert_eq!(after, SourceId(source.0 + 2), "the refused commit burnt one source id");
        store.checkpoint().unwrap();
        (source, ObjectId(last.0 + 1))
    };
    {
        let mut raw = Database::open_with_vfs(vfs(), dir).unwrap();
        // the next row is row id `gap + 1`: the gap's id is not its address
        let row = vec![
            relstore::Value::Int(gap.as_i64()),
            relstore::Value::Int(source.as_i64()),
            relstore::Value::text("in-the-gap"),
            relstore::Value::Null,
            relstore::Value::Null,
        ];
        let mut txn = raw.begin();
        match txn.insert(tables::OBJECT, row) {
            Err(relstore::StoreError::DenseKeyViolation { table, .. }) => assert_eq!(table, tables::OBJECT),
            other => panic!("a row off its address was taken: {other:?}"),
        }
    }
    let store = GamStore::open_with_vfs(vfs(), dir).unwrap();
    let snap = GamSnapshot::capture(&store).unwrap();
    let (s, n): (&dyn GamRead, &dyn GamRead) = (&store, &snap);
    assert!(s.get_object(gap).is_err());
    let past = ObjectId(gap.0 + 1);
    assert_eq!(s.get_object(past).unwrap().accession, "past-the-gap");
    for id in (0..gap.0 + 3).map(ObjectId) {
        same(
            n.get_object(id),
            s.get_object(id),
            &format!("get_object {id}"),
        );
        assert_eq!(
            snap.object(id),
            s.get_object(id).ok().as_ref(),
            "object {id}"
        );
    }
    for id in (0..source.0 + 4).map(SourceId) {
        same(n.get_source(id), s.get_source(id), &format!("get_source {id}"));
        same(n.objects_of(id), s.objects_of(id), &format!("objects_of {id}"));
    }
    same(n.find_source("T"), s.find_source("T"), "find_source past the gap");
    for batch in [vec![past, gap], vec![ObjectId(1), past]] {
        same(n.get_objects(&batch), s.get_objects(&batch), "get_objects");
    }
    // the row past the gap is at its address, the gap's row a tombstone
    let around: Vec<ObjectId> = (0..gap.0 + 3).rev().map(ObjectId).collect();
    assert_eq!(lent(s, &[past]).0, [(0, s.get_object(past).unwrap())]);
    lending_agrees(s, n, &around, "around the gap");
    lending_agrees(s, n, &[past, ObjectId(1), past], "past the gap");
    same(
        n.associations_of_object(gap),
        s.associations_of_object(gap),
        "associations_of_object",
    );
}

#[test]
fn capture_walks_a_paged_store_about_once() {
    let dir = std::env::temp_dir()
        .join("gam-snapshot-equiv")
        .join("paged-capture");
    let _ = std::fs::remove_dir_all(&dir);
    let config = relstore::PoolConfig {
        page_bytes: 512,
        pool_pages: 2,
    };
    let objects = {
        let mut store = GamStore::open_paged(&dir, config).unwrap();
        let mut st = Prng::seed_from_u64(7);
        store.begin_group_commit();
        let a = store
            .create_source("A", SourceContent::Gene, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let b = store
            .create_source("B", SourceContent::Other, SourceStructure::Flat, None)
            .unwrap()
            .id;
        // a page seals between transactions, so load in many small ones
        let mut ids = [Vec::new(), Vec::new()];
        for chunk in 0..40 {
            for (side, (source, prefix)) in [(a, "a"), (b, "b")].into_iter().enumerate() {
                let batch: Vec<(String, Option<String>, Option<f64>)> = (0..10)
                    .map(|i| (format!("{prefix}{:04}", chunk * 10 + i), None, None))
                    .collect();
                ids[side].extend(store.add_objects_bulk(source, &batch).unwrap().0);
            }
        }
        let [a_ids, b_ids] = ids;
        let rel = store.create_source_rel(a, b, RelType::Fact, None).unwrap();
        // in key order, as from a sorted dump: the mapping's index scan is
        // then sequential in the heap, while a per-object probe of the
        // range side still lands on a random page every time
        let mut pairs: Vec<(ObjectId, ObjectId)> = (0..1200)
            .map(|_| (a_ids[st.below(400)], b_ids[st.below(400)]))
            .collect();
        pairs.sort_unstable();
        for chunk in pairs.chunks(20) {
            let facts = chunk.iter().map(|&(from, to)| Association::fact(from, to));
            store.add_associations_bulk(rel, facts, &mut 0).unwrap();
        }
        store.end_group_commit().unwrap();
        store.checkpoint().unwrap();
        a_ids.len() + b_ids.len()
    };
    let store = GamStore::open_paged(&dir, config).unwrap();
    let misses = |s: &GamStore| s.database().stats().unwrap().pool.unwrap().misses;
    // the heap's page count, as the misses of one scan of every table
    let cold = misses(&store);
    for table in [
        tables::SOURCE,
        tables::OBJECT,
        tables::SOURCE_REL,
        tables::OBJECT_REL,
    ] {
        store.database().table(table).unwrap().scan().count();
    }
    let heap_pages = misses(&store) - cold;
    assert!(
        heap_pages > 40,
        "a heap of {heap_pages} pages must dwarf the pool of 2"
    );
    let before = misses(&store);
    let snap = GamSnapshot::capture(&store).unwrap();
    let capture = misses(&store) - before;
    assert_eq!(
        snap.cardinalities().unwrap().associations,
        store.cardinalities().unwrap().associations
    );
    // measured: 86 misses over 46 heap pages; a capture that probes the
    // store once per object took 1 193 here, more than one per object
    assert!(
        capture <= 3 * heap_pages && capture < objects as u64,
        "capture cost {capture} pool misses over {heap_pages} heap pages, {objects} objects"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The four GAM schemas as earlier releases declared them: every id a
/// stored primary key `pk`, and (`pk_on_object_rel`, releases before
/// `OBJECT_REL` lost its key index) `OBJECT_REL` with two more indexes, or
/// (the release before dense keys) with no key at all.
fn stored_key_schemas(pk_on_object_rel: bool) -> Vec<Schema> {
    let source = Schema::builder(tables::SOURCE)
        .column(Column::new("source_id", ValueType::Int))
        .column(Column::new("name", ValueType::Text))
        .column(Column::new("content", ValueType::Int))
        .column(Column::new("structure", ValueType::Int))
        .column(Column::nullable("release", ValueType::Text))
        .column(Column::new("imported_seq", ValueType::Int))
        .primary_key(&["source_id"])
        .unique_index("by_name", &["name"]);
    let object = Schema::builder(tables::OBJECT)
        .column(Column::new("object_id", ValueType::Int))
        .column(Column::new("source_id", ValueType::Int))
        .column(Column::new("accession", ValueType::Text))
        .column(Column::nullable("text", ValueType::Text))
        .column(Column::nullable("number", ValueType::Float))
        .primary_key(&["object_id"])
        .unique_index("by_accession", &["source_id", "accession"]);
    let source_rel = Schema::builder(tables::SOURCE_REL)
        .column(Column::new("source_rel_id", ValueType::Int))
        .column(Column::new("source1_id", ValueType::Int))
        .column(Column::new("source2_id", ValueType::Int))
        .column(Column::new("type", ValueType::Int))
        .column(Column::nullable("derivation", ValueType::Text))
        .primary_key(&["source_rel_id"])
        .index("by_pair", &["source1_id", "source2_id"]);
    let object_rel = Schema::builder(tables::OBJECT_REL)
        .column(Column::new("object_rel_id", ValueType::Int))
        .column(Column::new("source_rel_id", ValueType::Int))
        .column(Column::new("object1_id", ValueType::Int))
        .column(Column::new("object2_id", ValueType::Int))
        .column(Column::nullable("evidence", ValueType::Float));
    let (source_rel, object_rel) = if pk_on_object_rel {
        (
            source_rel.index("by_source2", &["source2_id"]),
            object_rel
                .primary_key(&["object_rel_id"])
                .unique_index("by_pair", &["source_rel_id", "object1_id", "object2_id"])
                .index("by_source_rel", &["source_rel_id"]),
        )
    } else {
        let by_pair = ["source_rel_id", "object1_id", "object2_id"];
        (source_rel, object_rel.unique_index("by_pair", &by_pair))
    };
    let object_rel = object_rel
        .index("by_object1", &["object1_id"])
        .index("by_object2", &["object2_id"]);
    [source, object, source_rel, object_rel].into_iter().map(|b| b.build().unwrap()).collect()
}

/// Every [`GamRead`] answer over every source, object and mapping id the
/// store knows — and some it does not — rendered for comparison.
fn answers(read: &dyn GamRead) -> Vec<String> {
    let mut out = Vec::new();
    macro_rules! say {
        ($answer:expr) => {
            out.push(format!("{:?}", $answer))
        };
    }
    let sources = read.sources().unwrap();
    say!(sources);
    let ids: Vec<SourceId> = sources.iter().map(|s| s.id).chain([SourceId(99)]).collect();
    for name in sources.iter().map(|s| s.name.as_str()).chain(["missing"]) {
        say!(read.find_source(name));
    }
    for &s in &ids {
        say!(read.get_source(s));
        say!(read.object_ids_of(s));
        say!(read.object_count(s));
        let objects = read.objects_of(s);
        say!(objects);
        let objects = objects.unwrap_or_default();
        let mut accessions: Vec<&str> = objects.iter().map(|o| o.accession.as_str()).collect();
        accessions.push("nope");
        say!(read.resolve_accessions(s, &accessions));
        say!(read.find_object(s, "nope"));
        for object in &objects {
            say!(read.find_object(s, &object.accession));
            say!(read.get_object(object.id));
            say!(read.associations_of_object(object.id));
        }
        for &t in &ids {
            say!(read.source_rels_between(s, t));
            say!(read.find_source_rel(s, t, None));
        }
    }
    say!(read.get_object(ObjectId(9_999)));
    say!(read.source_rels());
    // issued, deleted and never issued
    for rel in (0..12).map(SourceRelId) {
        say!(read.get_source_rel(rel));
        say!(read.load_mapping(rel));
        say!(read.load_mapping_index(rel));
        say!(read.association_count(rel));
    }
    say!(read.object_counts_per_source());
    say!(read.mapping_type_counts());
    say!(read.cardinalities());
    out
}

/// A directory whose ids are stored keys — or no key, for `OBJECT_REL` at
/// the release before dense keys — opens with every id dense: no `pk` is
/// left, every read answers as before the schemas changed, and the next
/// checkpoint persists the dense schemas. Where a stored `pk` is on column
/// 0 the upgrade checks the dense rule off its entries and faults no page.
#[test]
fn a_directory_checkpointed_under_the_old_schemas_is_upgraded_in_place() {
    let dir = Path::new("/db");
    let pools = [
        None,
        Some(PoolConfig {
            page_bytes: 64,
            pool_pages: 2,
        }),
    ];
    for (round, pool) in (0..8u64).zip(pools.into_iter().cycle()) {
        let pk_on_object_rel = round % 4 < 2;
        let disk = FaultVfs::new();
        let vfs = || -> Arc<dyn Vfs> { Arc::new(disk.clone()) };
        let open_store = || match pool {
            Some(config) => GamStore::open_paged_with_vfs(vfs(), dir, config).unwrap(),
            None => GamStore::open_with_vfs(vfs(), dir).unwrap(),
        };
        let open_raw = || match pool {
            Some(config) => Database::open_paged_with_vfs(vfs(), dir, config).unwrap(),
            None => Database::open_with_vfs(vfs(), dir).unwrap(),
        };
        let index_names = |store: &GamStore, table: &str| -> Vec<String> {
            let stats = store.database().stats().unwrap();
            let table = stats.tables.iter().find(|t| t.name == table).unwrap();
            table.indexes.iter().map(|(name, _)| name.clone()).collect()
        };

        let mut store = open_store();
        populate(&mut store, &mut Prng::seed_from_u64(round));
        let before = answers(&store);
        store.checkpoint().unwrap();
        drop(store);
        // the same rows under an earlier release's key and index declarations
        let mut raw = open_raw();
        for old in stored_key_schemas(pk_on_object_rel) {
            raw.ensure_table(old).unwrap();
        }
        raw.checkpoint().unwrap();
        drop(raw);
        let raw = open_raw();
        for old in stored_key_schemas(pk_on_object_rel) {
            assert_eq!(raw.table(old.name()).unwrap().schema(), &old);
        }
        drop(raw);

        let misses = |s: &GamStore| s.database().stats().unwrap().pool.map(|p| p.misses);
        let mut store = open_store();
        let upgrade_misses = misses(&store);
        let what = format!("round {round}, pool {pool:?}, pk on OBJECT_REL {pk_on_object_rel}");
        assert_eq!(
            index_names(&store, tables::OBJECT_REL),
            ["by_pair", "by_object1", "by_object2"]
        );
        assert_eq!(index_names(&store, tables::SOURCE_REL), ["by_pair"]);
        assert_eq!(index_names(&store, tables::OBJECT), ["by_accession"]);
        assert_eq!(index_names(&store, tables::SOURCE), ["by_name"]);
        assert_eq!(answers(&store), before, "{what}");
        assert!(store.verify_integrity().unwrap().is_empty(), "{what}");
        store.checkpoint().unwrap();
        drop(store);
        let raw = open_raw();
        for new in schema::all_schemas().unwrap() {
            assert_eq!(raw.table(new.name()).unwrap().schema(), &new, "{what}");
        }
        drop(raw);
        if pk_on_object_rel {
            // dropping indexes and checking ids off the stored keys faulted
            // no page
            assert_eq!(upgrade_misses, misses(&open_store()), "{what}");
        }
    }
}

/// A directory whose object ids do not tile its rows — written by hand
/// under the stored-key schemas, id 4 at row id 2 — is refused at open with
/// the typed error that names the table; no second path reads it.
#[test]
fn a_directory_whose_ids_do_not_tile_is_refused_naming_the_table() {
    let dir = Path::new("/db");
    let disk = FaultVfs::new();
    let mut raw = Database::open_with_vfs(Arc::new(disk.clone()), dir).unwrap();
    for old in stored_key_schemas(false) {
        raw.create_table(old).unwrap();
    }
    raw.with_txn(|txn| {
        use relstore::Value::{self, Int, Null};
        txn.insert(tables::SOURCE, vec![Int(1), Value::text("S"), Int(0), Int(0), Null, Int(1)])?;
        for id in [1, 2, 4] {
            txn.insert(tables::OBJECT, vec![Int(id), Int(1), Value::text(format!("o{id}")), Null, Null])?;
        }
        Ok(())
    })
    .unwrap();
    raw.checkpoint().unwrap();
    drop(raw);
    match GamStore::open_with_vfs(Arc::new(disk.clone()), dir) {
        Err(GamError::Store(relstore::StoreError::DenseKeyViolation { table, row_id, key })) => {
            assert_eq!((table.as_str(), row_id, key.as_str()), (tables::OBJECT, 2, "4"))
        }
        other => panic!("a directory off its addresses opened: {other:?}"),
    }
}
