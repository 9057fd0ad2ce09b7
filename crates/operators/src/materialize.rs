//! Materialization of derived mappings.
//!
//! Paper §2: "Results of such operators that are of general interest, e.g.
//! new mappings derived from existing mappings, can be materialized in the
//! central database." A materialized Composed or Subsumed mapping becomes
//! an ordinary `SOURCE_REL` + `OBJECT_REL` set and is found by `Map` like
//! any imported mapping, which is how repeated queries are accelerated
//! (ablation A3 in DESIGN.md).

use crate::exec::ExecConfig;
use gam::model::RelType;
use gam::{GamError, GamRead, GamResult, GamStore, Mapping, SourceRelId};

/// Store a derived mapping. `derivation` documents how it was produced
/// (e.g. the mapping path `"Unigene-LocusLink-GO"`). If a mapping of the
/// same derived type with the same derivation already exists between the
/// two sources, it is dropped and rebuilt (re-materialization after new
/// imports). Returns the mapping id and the number of associations stored.
///
/// Only derived (Composed / Subsumed) mappings are accepted: the
/// drop-previous step deletes by `(type, derivation)`, so letting an
/// imported type through could delete an imported mapping that happens to
/// carry the same derivation string.
pub fn materialize(
    store: &mut GamStore,
    mapping: &Mapping,
    derivation: &str,
) -> GamResult<(SourceRelId, usize)> {
    if !mapping.rel_type.is_derived() {
        return Err(GamError::Invalid(format!(
            "only derived mappings are materialized, not {:?}",
            mapping.rel_type
        )));
    }
    // drop any previous materialization with the same derivation
    for rel in store.source_rels_between(mapping.from, mapping.to)? {
        if rel.rel_type == mapping.rel_type && rel.derivation.as_deref() == Some(derivation) {
            store.delete_source_rel(rel.id)?;
        }
    }
    let rel = store.create_source_rel(mapping.from, mapping.to, mapping.rel_type, Some(derivation))?;
    let mut added = 0;
    store.add_associations_bulk(rel, mapping.pairs.iter().copied(), &mut added)?;
    Ok((rel, added))
}

/// Derive and materialize the Subsumed mapping of a taxonomy source in one
/// step. Returns the mapping id and association count.
pub fn materialize_subsumed(
    store: &mut GamStore,
    source: gam::SourceId,
) -> GamResult<(SourceRelId, usize)> {
    let sub = crate::subsume::subsume(&*store, source)?;
    materialize(store, &sub, "subsumed(IS_A)")
}

/// Compose along a path and materialize the result, recording the path as
/// the derivation. Returns the mapping id and association count.
pub fn materialize_composed(
    store: &mut GamStore,
    path: &[gam::SourceId],
) -> GamResult<(SourceRelId, usize)> {
    let mut composed =
        crate::compose::compose_path_idx(&*store, path, &ExecConfig::sequential())?.to_mapping();
    composed.rel_type = RelType::Composed;
    let names: GamResult<Vec<String>> = path
        .iter()
        .map(|&s| Ok(store.get_source(s)?.name))
        .collect();
    let derivation = names?.join("-");
    materialize(store, &composed, &derivation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::map;
    use gam::model::{SourceContent, SourceStructure};
    use gam::SourceId;

    fn three_source_store() -> (GamStore, Vec<SourceId>) {
        let mut s = GamStore::in_memory().unwrap();
        let ids: Vec<SourceId> = ["A", "B", "C"]
            .iter()
            .map(|n| {
                s.create_source(n, SourceContent::Gene, SourceStructure::Flat, None)
                    .unwrap()
                    .id
            })
            .collect();
        let a0 = s.create_object(ids[0], "a0", None, None).unwrap();
        let b0 = s.create_object(ids[1], "b0", None, None).unwrap();
        let c0 = s.create_object(ids[2], "c0", None, None).unwrap();
        let c1 = s.create_object(ids[2], "c1", None, None).unwrap();
        let ab = s.create_source_rel(ids[0], ids[1], RelType::Fact, None).unwrap();
        let bc = s.create_source_rel(ids[1], ids[2], RelType::Fact, None).unwrap();
        s.add_association(ab, a0, b0, None).unwrap();
        s.add_association(bc, b0, c0, None).unwrap();
        s.add_association(bc, b0, c1, None).unwrap();
        (s, ids)
    }

    #[test]
    fn composed_mapping_becomes_mappable() {
        let (mut s, ids) = three_source_store();
        // no direct A->C mapping yet
        assert!(map(&s, ids[0], ids[2]).is_err());
        let (rel, n) = materialize_composed(&mut s, &ids).unwrap();
        assert_eq!(n, 2);
        // now Map finds it
        let m = map(&s, ids[0], ids[2]).unwrap();
        assert_eq!(m.len(), 2);
        let stored = s.get_source_rel(rel).unwrap();
        assert_eq!(stored.rel_type, RelType::Composed);
        assert_eq!(stored.derivation.as_deref(), Some("A-B-C"));
    }

    #[test]
    fn rematerialization_replaces_not_duplicates() {
        let (mut s, ids) = three_source_store();
        let (rel1, _) = materialize_composed(&mut s, &ids).unwrap();
        let before = s.cardinalities().unwrap();
        let (rel2, n) = materialize_composed(&mut s, &ids).unwrap();
        assert_ne!(rel1, rel2, "old mapping dropped, new created");
        assert_eq!(n, 2);
        let after = s.cardinalities().unwrap();
        assert_eq!(before.mappings, after.mappings);
        assert_eq!(before.associations, after.associations);
        assert!(s.get_source_rel(rel1).is_err());
    }

    #[test]
    fn imported_mapping_types_are_refused_and_untouched() {
        let (mut s, ids) = three_source_store();
        // an imported Fact mapping that happens to carry a derivation string
        let a1 = s.create_object(ids[0], "a1", None, None).unwrap();
        let c0 = s.find_object(ids[2], "c0").unwrap().unwrap().id;
        let imported = s
            .create_source_rel(ids[0], ids[2], RelType::Fact, Some("A-B-C"))
            .unwrap();
        s.add_association(imported, a1, c0, None).unwrap();
        let before = s.cardinalities().unwrap();

        let mut fact = map(&s, ids[0], ids[2]).unwrap();
        assert_eq!(fact.rel_type, RelType::Fact);
        let err = materialize(&mut s, &fact, "A-B-C").unwrap_err();
        assert!(matches!(err, GamError::Invalid(_)), "{err}");
        assert_eq!(s.cardinalities().unwrap(), before, "store untouched");
        assert_eq!(s.load_mapping(imported).unwrap().len(), 1);

        // the same associations as a derived mapping are accepted and leave
        // the imported one alone
        fact.rel_type = RelType::Composed;
        materialize(&mut s, &fact, "A-B-C").unwrap();
        assert_eq!(s.load_mapping(imported).unwrap().len(), 1);
    }

    #[test]
    fn subsumed_materialization() {
        let mut s = GamStore::in_memory().unwrap();
        let go = s
            .create_source("GO", SourceContent::Other, SourceStructure::Network, None)
            .unwrap()
            .id;
        let a = s.create_object(go, "GO:1", None, None).unwrap();
        let b = s.create_object(go, "GO:2", None, None).unwrap();
        let c = s.create_object(go, "GO:3", None, None).unwrap();
        let rel = s.create_source_rel(go, go, RelType::IsA, None).unwrap();
        s.add_association(rel, b, a, None).unwrap();
        s.add_association(rel, c, b, None).unwrap();
        let (sub_rel, n) = materialize_subsumed(&mut s, go).unwrap();
        assert_eq!(n, 3);
        let stored = s.get_source_rel(sub_rel).unwrap();
        assert_eq!(stored.rel_type, RelType::Subsumed);
        assert_eq!(stored.derivation.as_deref(), Some("subsumed(IS_A)"));
        // the subsumed mapping is loadable and complete
        let loaded = s.load_mapping(sub_rel).unwrap();
        assert_eq!(loaded.len(), 3);
    }
}
