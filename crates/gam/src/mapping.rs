//! The [`Mapping`] currency: a source-level relationship together with its
//! object-level associations, as manipulated by the high-level operators
//! (paper §4.2, Table 2).

use crate::ids::{ObjectId, SourceId};
use crate::model::RelType;
use std::collections::BTreeSet;

/// One object-level association inside a mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Association {
    /// Object on the domain side (belongs to [`Mapping::from`]).
    pub from: ObjectId,
    /// Object on the range side (belongs to [`Mapping::to`]).
    pub to: ObjectId,
    /// Plausibility in `[0, 1]`; `None` for fact associations.
    pub evidence: Option<f64>,
}

impl Association {
    /// A fact association (no evidence value).
    pub fn fact(from: ObjectId, to: ObjectId) -> Self {
        Association {
            from,
            to,
            evidence: None,
        }
    }

    /// An association with evidence.
    pub fn scored(from: ObjectId, to: ObjectId, evidence: f64) -> Self {
        Association {
            from,
            to,
            evidence: Some(evidence),
        }
    }

    /// Effective evidence for composition: facts count as 1.0.
    pub fn effective_evidence(&self) -> f64 {
        self.evidence.unwrap_or(1.0)
    }
}

/// A materialized (in-memory) mapping between two sources: the unit that
/// `Map` returns and that `Compose`, `RestrictDomain`, `RestrictRange` and
/// `GenerateView` consume.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// Domain source (the paper's `S`).
    pub from: SourceId,
    /// Range source (the paper's `T`).
    pub to: SourceId,
    /// Relationship type of the backing `SOURCE_REL` row(s).
    pub rel_type: RelType,
    /// The associations. Not necessarily deduplicated; see
    /// [`Mapping::dedup`].
    pub pairs: Vec<Association>,
}

impl Mapping {
    /// An empty mapping between two sources.
    pub fn empty(from: SourceId, to: SourceId, rel_type: RelType) -> Self {
        Mapping {
            from,
            to,
            rel_type,
            pairs: Vec::new(),
        }
    }

    /// Number of associations.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if the mapping holds no associations.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The paper's `Domain(map)`: `SELECT DISTINCT S FROM map`.
    pub fn domain(&self) -> BTreeSet<ObjectId> {
        self.pairs.iter().map(|a| a.from).collect()
    }

    /// The paper's `Range(map)`: `SELECT DISTINCT T FROM map`.
    pub fn range(&self) -> BTreeSet<ObjectId> {
        self.pairs.iter().map(|a| a.to).collect()
    }

    /// The paper's `RestrictDomain(map, s)`: `SELECT * FROM map WHERE S in s`.
    pub fn restrict_domain(&self, objects: &BTreeSet<ObjectId>) -> Mapping {
        Mapping {
            from: self.from,
            to: self.to,
            rel_type: self.rel_type,
            pairs: self
                .pairs
                .iter()
                .filter(|a| objects.contains(&a.from))
                .copied()
                .collect(),
        }
    }

    /// The paper's `RestrictRange(map, t)`: `SELECT * FROM map WHERE T in t`.
    pub fn restrict_range(&self, objects: &BTreeSet<ObjectId>) -> Mapping {
        Mapping {
            from: self.from,
            to: self.to,
            rel_type: self.rel_type,
            pairs: self
                .pairs
                .iter()
                .filter(|a| objects.contains(&a.to))
                .copied()
                .collect(),
        }
    }

    /// Swap domain and range.
    pub fn inverse(&self) -> Mapping {
        Mapping {
            from: self.to,
            to: self.from,
            rel_type: self.rel_type,
            pairs: self
                .pairs
                .iter()
                .map(|a| Association {
                    from: a.to,
                    to: a.from,
                    evidence: a.evidence,
                })
                .collect(),
        }
    }

    /// Remove duplicate (from, to) pairs, keeping the highest evidence
    /// (facts, counting as 1.0, dominate scored associations; a fact also
    /// beats an explicit `Some(1.0)` score, so ties cannot depend on input
    /// order). The comparator is a total order under which tied elements
    /// are bit-identical, which makes the result a pure function of the
    /// pair *multiset* — any producer emitting the same pairs in any order
    /// (a stepping or a galloping merge join) dedups to the same mapping —
    /// and lets the sort run unstable and in place, without the
    /// temporary buffer a stable sort allocates.
    pub fn dedup(&mut self) {
        self.pairs.sort_unstable_by(|a, b| {
            (a.from, a.to)
                .cmp(&(b.from, b.to))
                .then_with(|| b.effective_evidence().total_cmp(&a.effective_evidence()))
                .then_with(|| a.evidence.is_some().cmp(&b.evidence.is_some()))
        });
        self.pairs.dedup_by_key(|a| (a.from, a.to));
    }

    /// Sort associations for deterministic output.
    pub fn sort(&mut self) {
        self.pairs
            .sort_by_key(|a| (a.from, a.to));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Mapping {
        Mapping {
            from: SourceId(1),
            to: SourceId(2),
            rel_type: RelType::Fact,
            pairs: vec![
                Association::fact(ObjectId(1), ObjectId(10)),
                Association::fact(ObjectId(2), ObjectId(20)),
                Association::fact(ObjectId(2), ObjectId(21)),
            ],
        }
    }

    #[test]
    fn table2_domain_and_range() {
        // Table 2: map = {s1<->t1, s2<->t2}; Domain = {s1, s2}; Range = {t1, t2}
        let map = Mapping {
            from: SourceId(1),
            to: SourceId(2),
            rel_type: RelType::Fact,
            pairs: vec![
                Association::fact(ObjectId(1), ObjectId(11)),
                Association::fact(ObjectId(2), ObjectId(12)),
            ],
        };
        assert_eq!(map.domain(), [ObjectId(1), ObjectId(2)].into());
        assert_eq!(map.range(), [ObjectId(11), ObjectId(12)].into());
    }

    #[test]
    fn table2_restrictions() {
        // RestrictDomain(map, {s1}) = {s1<->t1}
        let map = m();
        let restricted = map.restrict_domain(&[ObjectId(1)].into());
        assert_eq!(restricted.pairs, vec![Association::fact(ObjectId(1), ObjectId(10))]);
        // RestrictRange(map, {t2}) = {s2<->t2}
        let restricted = map.restrict_range(&[ObjectId(20)].into());
        assert_eq!(restricted.pairs, vec![Association::fact(ObjectId(2), ObjectId(20))]);
        // restriction to the full domain is identity
        let full = map.restrict_domain(&map.domain());
        assert_eq!(full.pairs, map.pairs);
    }

    #[test]
    fn domain_is_distinct() {
        let map = m();
        assert_eq!(map.domain().len(), 2); // object 2 appears twice
        assert_eq!(map.range().len(), 3);
    }

    #[test]
    fn inverse_twice_is_identity() {
        let map = m();
        assert_eq!(map.inverse().inverse(), map);
        let inv = map.inverse();
        assert_eq!(inv.from, SourceId(2));
        assert_eq!(inv.domain(), map.range());
    }

    #[test]
    fn dedup_keeps_best_evidence() {
        let mut map = Mapping {
            from: SourceId(1),
            to: SourceId(2),
            rel_type: RelType::Similarity,
            pairs: vec![
                Association::scored(ObjectId(1), ObjectId(10), 0.4),
                Association::scored(ObjectId(1), ObjectId(10), 0.9),
                Association::fact(ObjectId(2), ObjectId(20)),
                Association::scored(ObjectId(2), ObjectId(20), 0.99),
            ],
        };
        map.dedup();
        assert_eq!(map.len(), 2);
        assert_eq!(map.pairs[0].evidence, Some(0.9));
        // fact (1.0) beats 0.99
        assert_eq!(map.pairs[1].evidence, None);
    }

    #[test]
    fn dedup_is_order_independent_even_on_ties() {
        // fact and scored(1.0) tie on effective evidence; the canonical
        // tie-break must pick the fact regardless of input order
        for pairs in [
            vec![
                Association::fact(ObjectId(1), ObjectId(10)),
                Association::scored(ObjectId(1), ObjectId(10), 1.0),
            ],
            vec![
                Association::scored(ObjectId(1), ObjectId(10), 1.0),
                Association::fact(ObjectId(1), ObjectId(10)),
            ],
        ] {
            let mut map = Mapping {
                from: SourceId(1),
                to: SourceId(2),
                rel_type: RelType::Similarity,
                pairs,
            };
            map.dedup();
            assert_eq!(map.len(), 1);
            assert_eq!(map.pairs[0].evidence, None);
        }
    }

    #[test]
    fn effective_evidence() {
        assert_eq!(Association::fact(ObjectId(1), ObjectId(2)).effective_evidence(), 1.0);
        assert_eq!(
            Association::scored(ObjectId(1), ObjectId(2), 0.25).effective_evidence(),
            0.25
        );
    }
}
