//! Read-only access to GAM content: the [`GamRead`] trait and the
//! immutable [`GamSnapshot`].
//!
//! The operators and the pathfinder only ever *read* the four GAM tables.
//! [`GamRead`] captures exactly that surface, with two implementors, and
//! each read is written once per implementor:
//!
//! * [`GamStore`] — the live store; reads go through the relational
//!   database (and, for paged stores, the buffer pool). A read by id is
//!   one read of the row at `id − 1`: every GAM id is its row's address.
//! * [`GamSnapshot`] — an immutable copy of the GAM content, captured from
//!   a store at a quiescent point. Reads never touch the database again,
//!   so any number of threads can query a snapshot while a writer mutates
//!   the live store. Each association is held once, in its mapping's CSR
//!   [`MappingIndex`]; each mapping at `id − 1` of one table; each object
//!   once, in one slab grouped by source, found by id through a table
//!   indexed by `id − 1` (object ids are handed out densely from 1) and by
//!   accession through a hash table of slab positions, which holds no
//!   accession of its own.
//!   [`GamSnapshot::object`] lends an object out of that slab without a
//!   copy, which is how a served view is rendered straight from the
//!   snapshot.
//!
//! Both lend objects through [`GamRead::with_objects`] rather than copy
//! them: the snapshot from its slab, the store from the `OBJECT` row at
//! `id − 1`, read through one row cursor.
//!
//! Every `GamSnapshot` accessor returns exactly what the corresponding
//! `GamStore` accessor returned at capture time — including ordering and
//! error values — pinned by the equivalence tests below and the seeded
//! sweep in `tests/snapshot_equiv.rs`. This is the foundation of the
//! system's MVCC read path: the writer captures a snapshot after a batch of
//! mutations and publishes it with one atomic `Arc` swap; readers execute
//! entirely against the published snapshot.

use crate::error::{GamError, GamResult};
use crate::ids::{ObjectId, SourceId, SourceRelId};
use crate::index::MappingIndex;
use crate::mapping::{Association, Mapping};
use crate::model::{GamObject, ObjectRef, RelType, Source, SourceRel};
use crate::store::{GamCardinalities, GamStore};
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

/// The read-only surface of a GAM store. `Sync` is a supertrait so one
/// reader can serve the concurrent per-target resolution of
/// `generate_view_idx` and be shared across service handler threads.
pub trait GamRead: Sync {
    /// All `SOURCE` rows, ordered by id.
    fn sources(&self) -> GamResult<Vec<Source>>;

    /// Find a source by its unique name.
    fn find_source(&self, name: &str) -> GamResult<Option<Source>>;

    /// Fetch a source by id.
    fn get_source(&self, id: SourceId) -> GamResult<Source>;

    /// All objects of a source, in accession order.
    fn objects_of(&self, source: SourceId) -> GamResult<Vec<GamObject>>;

    /// Ids of all objects of a source, in accession order.
    fn object_ids_of(&self, source: SourceId) -> GamResult<Vec<ObjectId>>;

    /// Number of objects of a source.
    fn object_count(&self, source: SourceId) -> GamResult<usize>;

    /// Find an object by (source, accession).
    fn find_object(&self, source: SourceId, accession: &str) -> GamResult<Option<GamObject>>;

    /// Fetch an object by id.
    fn get_object(&self, id: ObjectId) -> GamResult<GamObject>;

    /// Lend the objects of `ids`, in input order: `f(n, object)` for the
    /// object of `ids[n]`, borrowed where the reader holds it, nothing
    /// copied. An id no object holds is passed over, and once every other
    /// id has been lent the call fails with [`GamError::UnknownObject`] of
    /// the least such id. The default reads each id through
    /// [`get_object`](Self::get_object).
    fn with_objects(
        &self,
        ids: &[ObjectId],
        f: &mut dyn FnMut(usize, ObjectRef<'_>),
    ) -> GamResult<()> {
        lend_each(ids, |n, id| match self.get_object(id) {
            Ok(object) => {
                f(n, ObjectRef::from(&object));
                Ok(true)
            }
            Err(GamError::UnknownObject(_)) => Ok(false),
            Err(e) => Err(e),
        })
    }

    /// Fetch many objects by id, in input order, repeats included: each
    /// object [`with_objects`](Self::with_objects) lends, copied out.
    fn get_objects(&self, ids: &[ObjectId]) -> GamResult<Vec<GamObject>> {
        let mut out = Vec::with_capacity(ids.len());
        self.with_objects(ids, &mut |_, object| out.push(object.into()))?;
        Ok(out)
    }

    /// Resolve many accessions of one source to object ids, in input
    /// order; unknown accessions come back as `None`.
    fn resolve_accessions(
        &self,
        source: SourceId,
        accessions: &[&str],
    ) -> GamResult<Vec<Option<ObjectId>>>;

    /// All `SOURCE_REL` rows, ordered by id.
    fn source_rels(&self) -> GamResult<Vec<SourceRel>>;

    /// Fetch a source-level relationship by id.
    fn get_source_rel(&self, id: SourceRelId) -> GamResult<SourceRel>;

    /// All relationships stored with exactly this (source1, source2)
    /// orientation.
    fn source_rels_between(
        &self,
        source1: SourceId,
        source2: SourceId,
    ) -> GamResult<Vec<SourceRel>>;

    /// First relationship between two sources in either orientation; the
    /// flag is `true` when stored as (source1, source2).
    fn find_source_rel(
        &self,
        source1: SourceId,
        source2: SourceId,
        rel_type: Option<RelType>,
    ) -> GamResult<Option<(SourceRel, bool)>> {
        for rel in self.source_rels_between(source1, source2)? {
            if rel_type.is_none_or(|t| rel.rel_type == t) {
                return Ok(Some((rel, true)));
            }
        }
        for rel in self.source_rels_between(source2, source1)? {
            if rel_type.is_none_or(|t| rel.rel_type == t) {
                return Ok(Some((rel, false)));
            }
        }
        Ok(None)
    }

    /// Load a stored mapping's associations in canonical order.
    fn load_mapping(&self, id: SourceRelId) -> GamResult<Mapping>;

    /// Load a stored mapping directly in CSR form.
    fn load_mapping_index(&self, id: SourceRelId) -> GamResult<MappingIndex>;

    /// [`load_mapping_index`](Self::load_mapping_index) behind an `Arc`.
    /// Snapshots override this to hand out their pre-built shared index
    /// without copying.
    fn load_mapping_index_shared(&self, id: SourceRelId) -> GamResult<Arc<MappingIndex>> {
        Ok(Arc::new(self.load_mapping_index(id)?))
    }

    /// Number of associations of a mapping.
    fn association_count(&self, id: SourceRelId) -> GamResult<usize>;

    /// All associations touching an object, in either role, each oriented
    /// so `from` is the queried object, ordered by (mapping id, object as
    /// domain before object as range, partner id).
    fn associations_of_object(
        &self,
        object: ObjectId,
    ) -> GamResult<Vec<(SourceRelId, Association)>>;

    /// Object counts per source, ordered by source id — the per-source
    /// inventory the interactive source list shows.
    fn object_counts_per_source(&self) -> GamResult<Vec<(SourceId, usize)>>;

    /// Mapping and association counts broken down by relationship type —
    /// the six-way classification of paper §3 (Fact/Similarity imported,
    /// Contains/IS_A structural, Composed/Subsumed derived).
    fn mapping_type_counts(&self) -> GamResult<Vec<(RelType, usize, usize)>>;

    /// The four headline table cardinalities.
    fn cardinalities(&self) -> GamResult<GamCardinalities>;
}

/// Visit `ids` in order, `find(n, id)` saying whether an object holds
/// `id`; the least id none holds is the error, once every id was visited.
pub(crate) fn lend_each(
    ids: &[ObjectId],
    mut find: impl FnMut(usize, ObjectId) -> GamResult<bool>,
) -> GamResult<()> {
    let mut unknown: Option<ObjectId> = None;
    for (n, &id) in ids.iter().enumerate() {
        if !find(n, id)? {
            unknown = Some(unknown.map_or(id, |least| least.min(id)));
        }
    }
    unknown.map_or(Ok(()), |id| Err(GamError::UnknownObject(id)))
}

/// Which end of a mapping a source sits at.
#[derive(Debug, Clone, Copy)]
enum Role {
    Domain,
    Range,
}

/// A fully materialized, immutable copy of a store's GAM content.
///
/// Capture walks the store's own public read API — per source and per
/// mapping, never per object — so every accessor reproduces the store's
/// answers, ordering included, as of the capture point. Nothing is held
/// twice: each object once, in one slab, found by id through `by_id` and
/// by accession through `by_accession`, two tables of slab positions;
/// each association once, in the CSR index of its mapping. The per-object
/// view ([`GamRead::associations_of_object`]) is answered from the forward
/// and inverse arrays of the mappings that touch the object's source,
/// which relies on the GAM invariant that an association's objects belong
/// to its mapping's two sources.
#[derive(Debug, Clone)]
pub struct GamSnapshot {
    /// Ordered by id, as the store lists them.
    sources: Vec<Source>,
    source_by_name: HashMap<String, usize>,
    /// Every object, grouped by source (in the order of `sources`), each
    /// source's run in the store's accession order.
    objects: Vec<GamObject>,
    /// Per source, where its run of `objects` starts; one more entry
    /// closes the last run.
    run_starts: Vec<u32>,
    /// Indexed by `id − 1`: one more than the object's position in
    /// `objects`, or 0 for an id no object holds.
    by_id: Vec<u32>,
    /// Open addressing over `objects`: one more than an object's position,
    /// at the first free slot from the hash of its (source, accession);
    /// 0 for a free slot. It holds no accession — a probe compares with
    /// the object in the slab — and at most half its slots are taken, so
    /// every probe ends at a free one.
    by_accession: Vec<u32>,
    hasher: RandomState,
    /// Indexed by `id − 1`: the mapping and its CSR index, `None` for an id
    /// no mapping holds (deleted, or burnt by a refused commit).
    mappings: Vec<Option<(SourceRel, Arc<MappingIndex>)>>,
    /// Per source, the mappings with that source at either end, in
    /// (mapping id, domain before range) order; a self-mapping is listed
    /// in both roles.
    mappings_of: Vec<Vec<(SourceRelId, Arc<MappingIndex>, Role)>>,
    counts_per_source: Vec<(SourceId, usize)>,
    type_counts: Vec<(RelType, usize, usize)>,
    cards: GamCardinalities,
}

impl GamSnapshot {
    /// Capture the store's current GAM content. The borrow guarantees no
    /// mutation happens mid-capture.
    pub fn capture(store: &GamStore) -> GamResult<GamSnapshot> {
        let sources = store.sources()?;
        let mut source_by_name = HashMap::with_capacity(sources.len());
        let cards = store.cardinalities()?;
        let mut objects: Vec<GamObject> = Vec::with_capacity(cards.objects);
        let mut run_starts = Vec::with_capacity(sources.len() + 1);
        for (slab, s) in sources.iter().enumerate() {
            source_by_name.insert(s.name.clone(), slab);
            run_starts.push(position(objects.len())?);
            objects.extend(store.objects_of(s.id)?);
        }
        run_starts.push(position(objects.len())?);
        objects.shrink_to_fit();
        // ids are dense from 1, so the table is about as long as the slab
        let max_id = objects.iter().map(|o| o.id.0).max().unwrap_or(0);
        let mut by_id = vec![0; usize::try_from(max_id).map_err(|_| unindexable(max_id))?];
        let hasher = RandomState::new();
        let mut by_accession = vec![0; (2 * objects.len()).next_power_of_two()];
        let mask = by_accession.len() - 1;
        for (pos, o) in objects.iter().enumerate() {
            if let Some(slot) = slot(o.id.0) {
                by_id[slot] = position(pos + 1)?;
            }
            let mut at = hasher.hash_one((o.source, o.accession.as_str())) as usize & mask;
            while by_accession[at] != 0 {
                at = (at + 1) & mask;
            }
            by_accession[at] = position(pos + 1)?;
        }

        let mut mappings = Vec::new();
        let mut mappings_of = vec![Vec::new(); sources.len()];
        // the rels come ordered by id and Domain is pushed first, which is
        // the documented (mapping id, role) order of every per-source list
        for r in store.source_rels()? {
            let index = Arc::new(store.load_mapping_index(r.id)?);
            for (source, role) in [(r.source1, Role::Domain), (r.source2, Role::Range)] {
                if let Some(slab) = slab_of(&sources, source) {
                    mappings_of[slab].push((r.id, index.clone(), role));
                }
            }
            let at = slot(r.id.0.into()).ok_or(GamError::UnknownSourceRel(r.id))?;
            if mappings.len() <= at {
                mappings.resize(at + 1, None);
            }
            mappings[at] = Some((r, index));
        }

        Ok(GamSnapshot {
            counts_per_source: store.object_counts_per_source()?,
            type_counts: store.mapping_type_counts()?,
            cards,
            sources,
            source_by_name,
            objects,
            run_starts,
            by_id,
            by_accession,
            hasher,
            mappings,
            mappings_of,
        })
    }

    /// The object with this id, borrowed from the snapshot; `None` for an
    /// id no object holds.
    pub fn object(&self, id: ObjectId) -> Option<&GamObject> {
        let pos = self.by_id.get(slot(id.0)?)?.checked_sub(1)?;
        self.objects.get(pos as usize)
    }

    /// A source's objects, in accession order.
    fn objects_in(&self, source: SourceId) -> &[GamObject] {
        slab_of(&self.sources, source).map_or(&[][..], |slab| {
            &self.objects[self.run_starts[slab] as usize..self.run_starts[slab + 1] as usize]
        })
    }

    /// The object of `source` with this accession, probed for in
    /// `by_accession` from the hash of the pair.
    fn object_by_accession(&self, source: SourceId, accession: &str) -> Option<&GamObject> {
        let mask = self.by_accession.len() - 1;
        let mut at = self.hasher.hash_one((source, accession)) as usize & mask;
        loop {
            let object = &self.objects[self.by_accession[at].checked_sub(1)? as usize];
            if object.source == source && object.accession == accession {
                return Some(object);
            }
            at = (at + 1) & mask;
        }
    }

    fn mapping(&self, id: SourceRelId) -> Option<&(SourceRel, Arc<MappingIndex>)> {
        self.mappings.get(slot(id.0.into())?)?.as_ref()
    }

    fn index(&self, id: SourceRelId) -> GamResult<&Arc<MappingIndex>> {
        self.mapping(id).map(|(_, index)| index).ok_or(GamError::UnknownSourceRel(id))
    }
}

/// Where id `id` sits in a table indexed by `id − 1`; `None` for id 0 or
/// an id past the address space.
fn slot(id: u64) -> Option<usize> {
    usize::try_from(id.checked_sub(1)?).ok()
}

/// A source's position in `sources`, which is ordered by id. Not `id − 1`:
/// a `create_source` a commit refused burns its id with its row id.
fn slab_of(sources: &[Source], id: SourceId) -> Option<usize> {
    sources.binary_search_by_key(&id, |s| s.id).ok()
}

/// A position in the object slab, as the snapshot's tables hold it.
fn position(pos: usize) -> GamResult<u32> {
    u32::try_from(pos).map_err(|_| unindexable(pos as u64))
}

fn unindexable(n: u64) -> GamError {
    GamError::Invalid(format!("a snapshot indexes fewer than 2^32 objects; {n} is past that"))
}

impl GamRead for GamSnapshot {
    fn sources(&self) -> GamResult<Vec<Source>> {
        Ok(self.sources.clone())
    }

    fn find_source(&self, name: &str) -> GamResult<Option<Source>> {
        Ok(self.source_by_name.get(name).map(|&i| self.sources[i].clone()))
    }

    fn get_source(&self, id: SourceId) -> GamResult<Source> {
        slab_of(&self.sources, id)
            .map(|i| self.sources[i].clone())
            .ok_or(GamError::UnknownSource(id))
    }

    fn objects_of(&self, source: SourceId) -> GamResult<Vec<GamObject>> {
        Ok(self.objects_in(source).to_vec())
    }

    fn object_ids_of(&self, source: SourceId) -> GamResult<Vec<ObjectId>> {
        Ok(self.objects_in(source).iter().map(|o| o.id).collect())
    }

    fn object_count(&self, source: SourceId) -> GamResult<usize> {
        Ok(self.objects_in(source).len())
    }

    fn find_object(&self, source: SourceId, accession: &str) -> GamResult<Option<GamObject>> {
        Ok(self.object_by_accession(source, accession).cloned())
    }

    fn get_object(&self, id: ObjectId) -> GamResult<GamObject> {
        self.object(id).cloned().ok_or(GamError::UnknownObject(id))
    }

    fn with_objects(
        &self,
        ids: &[ObjectId],
        f: &mut dyn FnMut(usize, ObjectRef<'_>),
    ) -> GamResult<()> {
        lend_each(ids, |n, id| Ok(self.object(id).map(|object| f(n, object.into())).is_some()))
    }

    fn resolve_accessions(
        &self,
        source: SourceId,
        accessions: &[&str],
    ) -> GamResult<Vec<Option<ObjectId>>> {
        Ok(accessions
            .iter()
            .map(|acc| self.object_by_accession(source, acc).map(|o| o.id))
            .collect())
    }

    fn source_rels(&self) -> GamResult<Vec<SourceRel>> {
        Ok(self.mappings.iter().flatten().map(|(rel, _)| rel.clone()).collect())
    }

    fn get_source_rel(&self, id: SourceRelId) -> GamResult<SourceRel> {
        self.mapping(id)
            .map(|(rel, _)| rel.clone())
            .ok_or(GamError::UnknownSourceRel(id))
    }

    fn source_rels_between(
        &self,
        source1: SourceId,
        source2: SourceId,
    ) -> GamResult<Vec<SourceRel>> {
        // in id order, as the store's `by_pair` lists one pair
        Ok(self
            .mappings
            .iter()
            .flatten()
            .map(|(rel, _)| rel)
            .filter(|rel| (rel.source1, rel.source2) == (source1, source2))
            .cloned()
            .collect())
    }

    fn load_mapping(&self, id: SourceRelId) -> GamResult<Mapping> {
        // the store's load_mapping returns canonical order, which is
        // exactly what the CSR round-trip produces (pinned by the gam
        // index tests and the equivalence tests below)
        Ok(self.index(id)?.to_mapping())
    }

    fn load_mapping_index(&self, id: SourceRelId) -> GamResult<MappingIndex> {
        Ok((**self.index(id)?).clone())
    }

    fn load_mapping_index_shared(&self, id: SourceRelId) -> GamResult<Arc<MappingIndex>> {
        self.index(id).cloned()
    }

    fn association_count(&self, id: SourceRelId) -> GamResult<usize> {
        // like the store's index count, an unknown mapping has none
        Ok(self.mapping(id).map_or(0, |(_, index)| index.len()))
    }

    fn associations_of_object(
        &self,
        object: ObjectId,
    ) -> GamResult<Vec<(SourceRelId, Association)>> {
        let Some(slab) = self.object(object).and_then(|o| slab_of(&self.sources, o.source)) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (rel, idx, role) in &self.mappings_of[slab] {
            // one association, given the partner and its forward position
            let mut push = |to, pos| {
                let association = Association {
                    from: object,
                    to,
                    evidence: idx.evidence_at(pos),
                };
                out.push((*rel, association));
            };
            // both bucket kinds are sorted by partner id
            match role {
                Role::Domain => {
                    if let Some(bucket) = idx.domain_bucket(object) {
                        for pos in idx.fwd_range(bucket) {
                            push(idx.to_at(pos), pos);
                        }
                    }
                }
                Role::Range => {
                    if let Some(bucket) = idx.range_bucket(object) {
                        for p in idx.inv_range(bucket) {
                            push(idx.inv_from_at(p), idx.inv_fwd_pos(p));
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    fn object_counts_per_source(&self) -> GamResult<Vec<(SourceId, usize)>> {
        Ok(self.counts_per_source.clone())
    }

    fn mapping_type_counts(&self) -> GamResult<Vec<(RelType, usize, usize)>> {
        Ok(self.type_counts.clone())
    }

    fn cardinalities(&self) -> GamResult<GamCardinalities> {
        Ok(self.cards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SourceContent, SourceStructure};

    /// A store exercising every shape the snapshot must reproduce: several
    /// sources, mixed evidence, both rel orientations, two mappings over
    /// one source pair sharing an object pair, a structural self-mapping
    /// with an object (`GO:0001`) that is both child and parent, a deleted
    /// mapping, a source with no objects, objects with no associations.
    fn fixture() -> GamStore {
        let mut s = GamStore::in_memory().unwrap();
        let a = s
            .create_source("Alpha", SourceContent::Gene, SourceStructure::Flat, Some("r1"))
            .unwrap()
            .id;
        let b = s
            .create_source("Beta", SourceContent::Protein, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let go = s
            .create_source("GO", SourceContent::Other, SourceStructure::Network, None)
            .unwrap()
            .id;
        s.create_source("Empty", SourceContent::Other, SourceStructure::Flat, None)
            .unwrap();
        let ao: Vec<ObjectId> = (0..5)
            .map(|i| s.create_object(a, &format!("a{i}"), Some(&format!("gene {i}")), None).unwrap())
            .collect();
        let bo: Vec<ObjectId> = (0..4)
            .map(|i| s.create_object(b, &format!("b{i}"), None, Some(i as f64)).unwrap())
            .collect();
        let go_o: Vec<ObjectId> = (0..3)
            .map(|i| s.create_object(go, &format!("GO:000{i}"), None, None).unwrap())
            .collect();
        let ab = s.create_source_rel(a, b, RelType::Fact, None).unwrap();
        let ba = s.create_source_rel(b, a, RelType::Similarity, None).unwrap();
        let ag = s.create_source_rel(a, go, RelType::Fact, None).unwrap();
        let isa = s.create_source_rel(go, go, RelType::IsA, None).unwrap();
        s.add_association(ab, ao[0], bo[0], None).unwrap();
        s.add_association(ab, ao[1], bo[1], None).unwrap();
        s.add_association(ba, bo[2], ao[2], Some(0.75)).unwrap();
        s.add_association(ba, bo[0], ao[0], Some(0.5)).unwrap();
        s.add_association(ag, ao[0], go_o[0], None).unwrap();
        s.add_association(ag, ao[3], go_o[2], None).unwrap();
        s.add_association(isa, go_o[1], go_o[0], None).unwrap();
        s.add_association(isa, go_o[2], go_o[1], None).unwrap();
        let gone = s.create_source_rel(b, go, RelType::Fact, None).unwrap();
        s.add_association(gone, bo[0], go_o[0], None).unwrap();
        let ab_sim = s.create_source_rel(a, b, RelType::Similarity, None).unwrap();
        s.add_association(ab_sim, ao[0], bo[0], Some(0.9)).unwrap();
        s.add_association(ab_sim, ao[4], bo[0], Some(0.25)).unwrap();
        assert_eq!(s.delete_source_rel(gone).unwrap(), 1);
        s
    }

    /// Both results, rendered: `GamError` is not `PartialEq`, and `{:?}`
    /// keeps `-0.0` and `0.0` apart.
    fn same<T: std::fmt::Debug>(snap: GamResult<T>, store: GamResult<T>, what: &str) {
        assert_eq!(format!("{snap:?}"), format!("{store:?}"), "{what}");
    }

    #[test]
    fn snapshot_reproduces_every_store_answer() {
        let store = fixture();
        let snap = GamSnapshot::capture(&store).unwrap();
        let s: &dyn GamRead = &store;
        let n: &dyn GamRead = &snap;

        assert_eq!(n.sources().unwrap(), s.sources().unwrap());
        assert_eq!(n.cardinalities().unwrap(), s.cardinalities().unwrap());
        assert_eq!(
            n.object_counts_per_source().unwrap(),
            s.object_counts_per_source().unwrap()
        );
        assert_eq!(n.mapping_type_counts().unwrap(), s.mapping_type_counts().unwrap());
        assert_eq!(n.source_rels().unwrap(), s.source_rels().unwrap());

        for name in ["Alpha", "Beta", "GO", "Empty", "Nope"] {
            assert_eq!(n.find_source(name).unwrap(), s.find_source(name).unwrap(), "{name}");
        }
        for src in s.sources().unwrap() {
            assert_eq!(n.get_source(src.id).unwrap(), s.get_source(src.id).unwrap());
            assert_eq!(n.objects_of(src.id).unwrap(), s.objects_of(src.id).unwrap());
            assert_eq!(n.object_ids_of(src.id).unwrap(), s.object_ids_of(src.id).unwrap());
            assert_eq!(n.object_count(src.id).unwrap(), s.object_count(src.id).unwrap());
            for acc in ["a0", "a4", "b2", "GO:0001", "missing"] {
                assert_eq!(
                    n.find_object(src.id, acc).unwrap(),
                    s.find_object(src.id, acc).unwrap(),
                    "{} / {acc}",
                    src.name
                );
            }
            let keys = ["a1", "b0", "a1", "GO:0002", "zzz"];
            assert_eq!(
                n.resolve_accessions(src.id, &keys).unwrap(),
                s.resolve_accessions(src.id, &keys).unwrap()
            );
            for other in s.sources().unwrap() {
                assert_eq!(
                    n.source_rels_between(src.id, other.id).unwrap(),
                    s.source_rels_between(src.id, other.id).unwrap()
                );
                for t in [None, Some(RelType::Fact), Some(RelType::IsA)] {
                    assert_eq!(
                        n.find_source_rel(src.id, other.id, t).unwrap(),
                        s.find_source_rel(src.id, other.id, t).unwrap()
                    );
                }
            }
            for obj in s.objects_of(src.id).unwrap() {
                assert_eq!(n.get_object(obj.id).unwrap(), s.get_object(obj.id).unwrap());
                assert_eq!(
                    n.associations_of_object(obj.id).unwrap(),
                    s.associations_of_object(obj.id).unwrap()
                );
            }
        }
        for rel in s.source_rels().unwrap() {
            assert_eq!(n.get_source_rel(rel.id).unwrap(), s.get_source_rel(rel.id).unwrap());
            assert_eq!(
                n.association_count(rel.id).unwrap(),
                s.association_count(rel.id).unwrap()
            );
            let sm = s.load_mapping(rel.id).unwrap();
            let nm = n.load_mapping(rel.id).unwrap();
            assert_eq!((nm.from, nm.to, nm.rel_type), (sm.from, sm.to, sm.rel_type));
            let bits = |m: &Mapping| -> Vec<(ObjectId, ObjectId, Option<u64>)> {
                m.pairs
                    .iter()
                    .map(|a| (a.from, a.to, a.evidence.map(f64::to_bits)))
                    .collect()
            };
            assert_eq!(bits(&nm), bits(&sm), "rel {}", rel.id);
            assert_eq!(
                n.load_mapping_index(rel.id).unwrap(),
                s.load_mapping_index(rel.id).unwrap()
            );
            assert_eq!(
                *n.load_mapping_index_shared(rel.id).unwrap(),
                *s.load_mapping_index_shared(rel.id).unwrap()
            );
        }
    }

    #[test]
    fn snapshot_error_values_match_store() {
        let store = fixture();
        let snap = GamSnapshot::capture(&store).unwrap();
        let s: &dyn GamRead = &store;
        let n: &dyn GamRead = &snap;
        let known = store.find_source("Alpha").unwrap().unwrap().id;
        // never issued, and issued then deleted (the fixture's `gone`)
        let deleted = SourceRelId(5);
        assert!(store.get_source_rel(deleted).is_err());
        assert!(store.get_source_rel(SourceRelId(6)).is_ok());
        for bad in [SourceId(0), SourceId(999)] {
            same(n.get_source(bad), s.get_source(bad), "get_source");
            same(n.objects_of(bad), s.objects_of(bad), "objects_of");
            same(n.object_ids_of(bad), s.object_ids_of(bad), "object_ids_of");
            same(n.object_count(bad), s.object_count(bad), "object_count");
            same(n.find_object(bad, "a0"), s.find_object(bad, "a0"), "find_object");
            same(
                n.resolve_accessions(bad, &["a0", "zzz"]),
                s.resolve_accessions(bad, &["a0", "zzz"]),
                "resolve_accessions",
            );
            for (x, y) in [(bad, known), (known, bad), (bad, bad)] {
                same(n.source_rels_between(x, y), s.source_rels_between(x, y), "rels_between");
                same(n.find_source_rel(x, y, None), s.find_source_rel(x, y, None), "find_rel");
            }
        }
        for bad in [ObjectId(0), ObjectId(999)] {
            same(n.get_object(bad), s.get_object(bad), "get_object");
            same(n.associations_of_object(bad), s.associations_of_object(bad), "assocs_of");
        }
        for bad in [SourceRelId(0), deleted, SourceRelId(999)] {
            same(n.get_source_rel(bad), s.get_source_rel(bad), "get_source_rel");
            same(n.load_mapping(bad), s.load_mapping(bad), "load_mapping");
            same(n.load_mapping_index(bad), s.load_mapping_index(bad), "load_mapping_index");
            same(
                n.load_mapping_index_shared(bad),
                s.load_mapping_index_shared(bad),
                "load_mapping_index_shared",
            );
            same(n.association_count(bad), s.association_count(bad), "association_count");
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut store = fixture();
        let snap = GamSnapshot::capture(&store).unwrap();
        let before = snap.cardinalities().unwrap();
        let a = store.find_source("Alpha").unwrap().unwrap().id;
        store.create_object(a, "late", None, None).unwrap();
        store
            .create_source("Late", SourceContent::Other, SourceStructure::Flat, None)
            .unwrap();
        assert_eq!(snap.cardinalities().unwrap(), before);
        assert!(snap.find_source("Late").unwrap().is_none());
        assert!(snap.find_object(a, "late").unwrap().is_none());
        assert_ne!(store.cardinalities().unwrap(), before);
    }
}
