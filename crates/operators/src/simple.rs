//! The `Map` operation.

use gam::{GamError, GamRead, GamResult, Mapping, MappingIndex, SourceId};
#[cfg(test)]
use gam::GamStore;

/// The paper's `Map(S, T)`: "searches the database for an existing mapping
/// between S and T and returns the corresponding object associations."
///
/// All stored mappings between the two sources (Fact, Similarity, and
/// previously materialized Composed ones) are merged and oriented
/// `from → to`; duplicate pairs keep their best evidence. Returns
/// [`GamError::NoMapping`] when no mapping exists in either direction.
pub fn map(store: &dyn GamRead, from: SourceId, to: SourceId) -> GamResult<Mapping> {
    let mut merged: Option<Mapping> = None;
    for rel in store.source_rels_between(from, to)? {
        if rel.rel_type.is_structural() {
            continue;
        }
        let m = store.load_mapping(rel.id)?;
        merged = Some(match merged {
            None => m,
            Some(mut acc) => {
                acc.pairs.extend(m.pairs);
                acc
            }
        });
    }
    for rel in store.source_rels_between(to, from)? {
        if rel.rel_type.is_structural() || from == to {
            continue;
        }
        let m = store.load_mapping(rel.id)?.inverse();
        merged = Some(match merged {
            None => m,
            Some(mut acc) => {
                acc.pairs.extend(m.pairs);
                acc
            }
        });
    }
    match merged {
        Some(mut m) => {
            m.from = from;
            m.to = to;
            m.dedup();
            Ok(m)
        }
        None => Err(GamError::NoMapping { from, to }),
    }
}

/// [`map`] in CSR form. When a single stored, non-structural mapping backs
/// the pair — by far the common case — the index streams straight out of
/// [`GamRead::load_mapping_index`] (on the live store, one batched
/// `OBJECT_REL` scan) with no per-row allocation, no sort and no dedup;
/// stored the other way round, that index is flipped ([`MappingIndex::inverted`]), again with
/// no sort. Otherwise it canonicalizes the merged [`map`] result. Either
/// way the index holds exactly `map(store, from, to)` in canonical form.
pub fn map_index(store: &dyn GamRead, from: SourceId, to: SourceId) -> GamResult<MappingIndex> {
    let stored = |a, b| -> GamResult<Vec<_>> {
        let rels = store.source_rels_between(a, b)?;
        Ok(rels.into_iter().filter(|r| !r.rel_type.is_structural()).collect())
    };
    let forward = stored(from, to)?;
    let inverse = if from == to { Vec::new() } else { stored(to, from)? };
    match (&forward[..], &inverse[..]) {
        ([one], []) => store.load_mapping_index(one.id),
        ([], [one]) => Ok(store.load_mapping_index(one.id)?.inverted()),
        _ => Ok(MappingIndex::build(map(store, from, to)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam::model::{RelType, SourceContent, SourceStructure};
    use gam::ObjectId;

    fn setup() -> (GamStore, SourceId, SourceId, Vec<ObjectId>, Vec<ObjectId>) {
        let mut s = GamStore::in_memory().unwrap();
        let a = s
            .create_source("A", SourceContent::Gene, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let b = s
            .create_source("B", SourceContent::Gene, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let ao: Vec<ObjectId> = (0..4)
            .map(|i| s.create_object(a, &format!("a{i}"), None, None).unwrap())
            .collect();
        let bo: Vec<ObjectId> = (0..4)
            .map(|i| s.create_object(b, &format!("b{i}"), None, None).unwrap())
            .collect();
        (s, a, b, ao, bo)
    }

    #[test]
    fn map_returns_oriented_associations() {
        let (mut s, a, b, ao, bo) = setup();
        let rel = s.create_source_rel(a, b, RelType::Fact, None).unwrap();
        s.add_association(rel, ao[0], bo[0], None).unwrap();
        s.add_association(rel, ao[1], bo[1], None).unwrap();

        let m = map(&s, a, b).unwrap();
        assert_eq!(m.from, a);
        assert_eq!(m.len(), 2);
        // reversed orientation inverts pairs
        let m = map(&s, b, a).unwrap();
        assert_eq!(m.from, b);
        assert!(m.pairs.iter().any(|p| p.from == bo[0] && p.to == ao[0]));
    }

    #[test]
    fn map_merges_fact_and_similarity() {
        let (mut s, a, b, ao, bo) = setup();
        let fact = s.create_source_rel(a, b, RelType::Fact, None).unwrap();
        let sim = s.create_source_rel(a, b, RelType::Similarity, None).unwrap();
        s.add_association(fact, ao[0], bo[0], None).unwrap();
        s.add_association(sim, ao[1], bo[1], Some(0.6)).unwrap();
        // same pair in both: fact (evidence 1.0) wins
        s.add_association(sim, ao[0], bo[0], Some(0.5)).unwrap();

        let m = map(&s, a, b).unwrap();
        assert_eq!(m.len(), 2);
        let p00 = m.pairs.iter().find(|p| p.from == ao[0]).unwrap();
        assert_eq!(p00.evidence, None, "fact association dominates");
        let p11 = m.pairs.iter().find(|p| p.from == ao[1]).unwrap();
        assert_eq!(p11.evidence, Some(0.6));
    }

    #[test]
    fn map_skips_structural_relationships() {
        let (mut s, a, _b, ao, _) = setup();
        let isa = s.create_source_rel(a, a, RelType::IsA, None).unwrap();
        s.add_association(isa, ao[0], ao[1], None).unwrap();
        assert!(matches!(
            map(&s, a, a),
            Err(GamError::NoMapping { .. })
        ));
    }

    #[test]
    fn missing_mapping_is_an_error() {
        let (s, a, b, _, _) = setup();
        assert!(matches!(map(&s, a, b), Err(GamError::NoMapping { .. })));
    }

    #[test]
    fn map_index_equals_map_in_all_shapes() {
        let bits = |m: &Mapping| -> Vec<(ObjectId, ObjectId, Option<u64>)> {
            m.pairs
                .iter()
                .map(|a| (a.from, a.to, a.evidence.map(f64::to_bits)))
                .collect()
        };
        // single forward rel: the batched fast path
        let (mut s, a, b, ao, bo) = setup();
        let rel = s.create_source_rel(a, b, RelType::Fact, None).unwrap();
        s.add_association(rel, ao[0], bo[0], None).unwrap();
        s.add_association(rel, ao[1], bo[1], Some(0.5)).unwrap();
        let idx = map_index(&s, a, b).unwrap();
        let reference = map(&s, a, b).unwrap();
        assert_eq!(bits(&idx.to_mapping()), bits(&reference));
        assert_eq!((idx.from, idx.to, idx.rel_type), (reference.from, reference.to, reference.rel_type));

        // reversed orientation has no forward rel: merged/inverted path
        let idx = map_index(&s, b, a).unwrap();
        let reference = map(&s, b, a).unwrap();
        assert_eq!(bits(&idx.to_mapping()), bits(&reference));

        // a second (similarity) rel with an overlapping pair: merged path
        let sim = s.create_source_rel(a, b, RelType::Similarity, None).unwrap();
        s.add_association(sim, ao[0], bo[0], Some(0.4)).unwrap();
        s.add_association(sim, ao[2], bo[2], Some(0.8)).unwrap();
        let idx = map_index(&s, a, b).unwrap();
        let reference = map(&s, a, b).unwrap();
        assert_eq!(bits(&idx.to_mapping()), bits(&reference));

        // no mapping at all: same error
        let c = s
            .create_source("Cx", SourceContent::Gene, SourceStructure::Flat, None)
            .unwrap()
            .id;
        assert!(matches!(map_index(&s, a, c), Err(GamError::NoMapping { .. })));
    }
}
