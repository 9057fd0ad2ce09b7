//! Derivation of `Subsumed` relationships from a taxonomy's IS_A structure.
//!
//! Paper §3: "Subsumed relationships are automatically derived from the
//! IS_A structure of a source and contain the associations of a term in a
//! taxonomy to all subsumed terms in the term hierarchy. This is motivated
//! by the fact that if a gene is annotated with a particular GO term, it is
//! often necessary to consider the subsumed terms for more detailed gene
//! functions."
//!
//! The result maps each term to every *descendant* (subsumed term) in the
//! IS_A DAG — the transitive closure of the inverted IS_A mapping,
//! excluding the reflexive pairs.

use gam::mapping::Association;
use gam::model::RelType;
use gam::{GamError, GamRead, GamResult, Mapping, ObjectId, SourceId};
#[cfg(test)]
use gam::GamStore;
use std::collections::{BTreeMap, BTreeSet};

/// Derive the Subsumed mapping of a Network source from its stored IS_A
/// mapping. Fails with [`GamError::Invalid`] if the IS_A structure is
/// cyclic (a corrupt taxonomy) or missing.
pub fn subsume(store: &dyn GamRead, source: SourceId) -> GamResult<Mapping> {
    let (rel, _) = store
        .find_source_rel(source, source, Some(RelType::IsA))?
        .ok_or_else(|| GamError::Invalid(format!("source {source} has no IS_A structure")))?;
    let isa = store.load_mapping(rel.id)?;
    subsume_isa(&isa)
}

/// Pure closure over an in-memory IS_A mapping (`child → parent` pairs).
pub fn subsume_isa(isa: &Mapping) -> GamResult<Mapping> {
    // children[p] = direct children of p
    let mut children: BTreeMap<ObjectId, Vec<ObjectId>> = BTreeMap::new();
    let mut nodes: BTreeSet<ObjectId> = BTreeSet::new();
    for assoc in &isa.pairs {
        children.entry(assoc.to).or_default().push(assoc.from);
        nodes.insert(assoc.from);
        nodes.insert(assoc.to);
    }

    // Detect cycles with an iterative three-color DFS over the child
    // relation; a cyclic taxonomy would make the closure infinite.
    let mut color: BTreeMap<ObjectId, u8> = BTreeMap::new(); // 0 white 1 grey 2 black
    for &start in &nodes {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack = vec![(start, false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                color.insert(node, 2);
                continue;
            }
            // a node pushed twice while white pops the second time black:
            // its first expansion's `(node, true)` lay above this entry
            if color.get(&node) == Some(&2) {
                continue;
            }
            color.insert(node, 1);
            stack.push((node, true));
            if let Some(kids) = children.get(&node) {
                for &kid in kids {
                    match color.get(&kid).copied().unwrap_or(0) {
                        1 => {
                            return Err(GamError::Invalid(
                                "IS_A structure contains a cycle".into(),
                            ))
                        }
                        2 => {}
                        _ => stack.push((kid, false)),
                    }
                }
            }
        }
    }

    // Closure: descendants(t) = union over children c of {c} ∪ descendants(c).
    // Process in reverse topological order via memoized DFS.
    let mut memo: BTreeMap<ObjectId, BTreeSet<ObjectId>> = BTreeMap::new();
    fn descendants(
        node: ObjectId,
        children: &BTreeMap<ObjectId, Vec<ObjectId>>,
        memo: &mut BTreeMap<ObjectId, BTreeSet<ObjectId>>,
    ) -> BTreeSet<ObjectId> {
        if let Some(d) = memo.get(&node) {
            return d.clone();
        }
        let mut out = BTreeSet::new();
        if let Some(kids) = children.get(&node) {
            for &kid in kids {
                out.insert(kid);
                out.extend(descendants(kid, children, memo));
            }
        }
        memo.insert(node, out.clone());
        out
    }

    let mut result = Mapping::empty(isa.from, isa.from, RelType::Subsumed);
    for &node in &nodes {
        for desc in descendants(node, &children, &mut memo) {
            result.pairs.push(Association::fact(node, desc));
        }
    }
    result.sort();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam::model::{SourceContent, SourceStructure};

    fn isa(pairs: &[(u64, u64)]) -> Mapping {
        Mapping {
            from: SourceId(1),
            to: SourceId(1),
            rel_type: RelType::IsA,
            pairs: pairs
                .iter()
                .map(|&(c, p)| Association::fact(ObjectId(c), ObjectId(p)))
                .collect(),
        }
    }

    #[test]
    fn chain_closure() {
        // 3 IS_A 2 IS_A 1
        let s = subsume_isa(&isa(&[(3, 2), (2, 1)])).unwrap();
        assert_eq!(s.rel_type, RelType::Subsumed);
        let pairs: Vec<(u64, u64)> = s.pairs.iter().map(|a| (a.from.0, a.to.0)).collect();
        assert_eq!(pairs, vec![(1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn dag_with_multiple_parents() {
        //    1   2
        //     \ / \
        //      3   4
        //      |
        //      5
        let s = subsume_isa(&isa(&[(3, 1), (3, 2), (4, 2), (5, 3)])).unwrap();
        let pairs: BTreeSet<(u64, u64)> = s.pairs.iter().map(|a| (a.from.0, a.to.0)).collect();
        let expected: BTreeSet<(u64, u64)> =
            [(1, 3), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5)].into();
        assert_eq!(pairs, expected);
    }

    #[test]
    fn closure_properties() {
        let s = subsume_isa(&isa(&[(3, 2), (2, 1), (4, 2)])).unwrap();
        let set: BTreeSet<(ObjectId, ObjectId)> =
            s.pairs.iter().map(|a| (a.from, a.to)).collect();
        // irreflexive
        assert!(set.iter().all(|(a, b)| a != b));
        // transitive
        for &(a, b) in &set {
            for &(c, d) in &set {
                if b == c {
                    assert!(set.contains(&(a, d)), "missing ({a}, {d})");
                }
            }
        }
        // no duplicates
        assert_eq!(set.len(), s.pairs.len());
    }

    #[test]
    fn cycle_detected() {
        assert!(subsume_isa(&isa(&[(1, 2), (2, 3), (3, 1)])).is_err());
        assert!(subsume_isa(&isa(&[(1, 2), (2, 1)])).is_err());
    }

    #[test]
    fn empty_isa_closure_is_empty() {
        let s = subsume_isa(&isa(&[])).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn store_integration() {
        let mut s = GamStore::in_memory().unwrap();
        let go = s
            .create_source("GO", SourceContent::Other, SourceStructure::Network, None)
            .unwrap()
            .id;
        let root = s.create_object(go, "GO:1", None, None).unwrap();
        let mid = s.create_object(go, "GO:2", None, None).unwrap();
        let leaf = s.create_object(go, "GO:3", None, None).unwrap();
        let rel = s.create_source_rel(go, go, RelType::IsA, None).unwrap();
        s.add_association(rel, mid, root, None).unwrap();
        s.add_association(rel, leaf, mid, None).unwrap();

        let sub = subsume(&s, go).unwrap();
        assert_eq!(sub.len(), 3);
        assert!(sub.pairs.contains(&Association::fact(root, leaf)));

        // source without IS_A fails
        let flat = s
            .create_source("Flat", SourceContent::Gene, SourceStructure::Flat, None)
            .unwrap()
            .id;
        assert!(subsume(&s, flat).is_err());
    }
}
