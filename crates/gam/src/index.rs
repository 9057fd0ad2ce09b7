//! Compressed-sparse-row (CSR) form of a [`Mapping`]: the physical
//! representation the system caches and joins.
//!
//! A [`MappingIndex`] stores a canonical (deduplicated, `(from, to)`-sorted)
//! mapping as two adjacency views:
//!
//! * **forward** — distinct domain objects in `fwd_keys`, with
//!   `fwd_offsets[i]..fwd_offsets[i + 1]` delimiting key `i`'s slice of the
//!   `fwd_to` targets array;
//! * **inverse** — distinct range objects in `inv_keys`, whose buckets hold
//!   the domain partner (`inv_from`) and the *forward position*
//!   (`inv_pos`) of each association, so range-side traversals can reach
//!   the shared evidence columns without a second copy.
//!
//! Evidence is columnar: `evidence[pos]` holds the effective evidence of
//! forward position `pos` (facts as `1.0`) and a bitmask records which
//! positions are facts, so `Option<f64>` round-trips losslessly — including
//! the distinction between a fact and an explicit `Some(1.0)` score, and
//! exact bit patterns of scored values.
//!
//! `Domain`/`Range` are the key arrays themselves; `RestrictDomain` /
//! `RestrictRange` are binary searches over them (iterating whichever side
//! is smaller); `Compose` in `operators` merge-joins `inv_keys` against the
//! other index's `fwd_keys`. Every operation is pinned bit-identical to the
//! `Vec<Association>` definitions by the seeded sweep in
//! `crates/operators/tests/algebra_equiv.rs`.

use crate::ids::{ObjectId, SourceId};
use crate::mapping::{Association, Mapping};
use crate::model::RelType;
use std::collections::BTreeSet;
use std::ops::Range;

/// Cardinality and skew statistics collected while sealing an index in
/// [`MappingIndexBuilder::finish`]. They are a pure function of the
/// association multiset (so two equal indexes always carry equal stats)
/// and cost nothing beyond the offset arrays the builder derives anyway.
/// The query planner in `operators::plan` reads them to estimate
/// intermediate Compose cardinalities and to pick a join strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexStats {
    /// Number of associations (`len()`).
    pub len: usize,
    /// Distinct domain objects (`domain_keys().len()`).
    pub domain_keys: usize,
    /// Distinct range objects (`range_keys().len()`).
    pub range_keys: usize,
    /// Widest forward bucket (max associations per domain object).
    pub max_fwd_fanout: usize,
    /// Widest inverse bucket (max associations per range object).
    pub max_inv_fanout: usize,
    /// Associations carrying an explicit score (non-fact). Zero means the
    /// index is pure facts, whose Compose products are exact — the planner
    /// only reorders chains when this holds for every step.
    pub scored: usize,
    /// Largest effective evidence over all associations (facts count as
    /// 1.0; 0.0 when empty). Floor pushdown beneath a Compose step is only
    /// sound when every *other* step multiplies by at most 1.0.
    pub max_effective: f64,
    /// Smallest effective evidence (1.0 when empty). Together with
    /// `max_effective`, certifies every score lies in `[0, 1]` — the
    /// monotonicity precondition of the planner's floor pushdown.
    pub min_effective: f64,
}

impl IndexStats {
    /// Mean forward fanout (associations per distinct domain object).
    pub fn avg_fwd_fanout(&self) -> f64 {
        if self.domain_keys == 0 {
            0.0
        } else {
            self.len as f64 / self.domain_keys as f64
        }
    }

    /// Mean inverse fanout (associations per distinct range object).
    pub fn avg_inv_fanout(&self) -> f64 {
        if self.range_keys == 0 {
            0.0
        } else {
            self.len as f64 / self.range_keys as f64
        }
    }

    /// Cheap skew ratio: widest forward bucket over the mean. 1.0 for
    /// perfectly uniform fanout, large when a hub object dominates.
    pub fn fwd_skew(&self) -> f64 {
        let avg = self.avg_fwd_fanout();
        if avg == 0.0 {
            1.0
        } else {
            self.max_fwd_fanout as f64 / avg
        }
    }
}

/// A canonical mapping in compressed-sparse-row form. Construction always
/// goes through [`MappingIndex::build`] or [`MappingIndexBuilder`], so an
/// instance is canonical by invariant: keys strictly ascending, buckets
/// sorted, one association per (from, to).
#[derive(Debug, Clone, PartialEq)]
pub struct MappingIndex {
    /// Domain source (the paper's `S`).
    pub from: SourceId,
    /// Range source (the paper's `T`).
    pub to: SourceId,
    /// Relationship type of the backing `SOURCE_REL` row(s).
    pub rel_type: RelType,
    fwd_keys: Vec<ObjectId>,
    fwd_offsets: Vec<u32>,
    fwd_to: Vec<ObjectId>,
    /// Effective evidence per forward position (facts count as 1.0).
    evidence: Vec<f64>,
    /// Bit `pos` set ⇔ forward position `pos` is a fact (`evidence: None`).
    fact_mask: Vec<u64>,
    inv_keys: Vec<ObjectId>,
    inv_offsets: Vec<u32>,
    inv_from: Vec<ObjectId>,
    inv_pos: Vec<u32>,
    /// Build-time statistics (see [`IndexStats`]), cached with the index so
    /// the planner never rescans the arrays.
    stats: IndexStats,
}

impl MappingIndex {
    /// Index a mapping. Non-canonical inputs are deduplicated first (via
    /// [`Mapping::dedup`], whose tie-break makes the result a pure function
    /// of the pair multiset); already-canonical inputs — anything loaded
    /// from the store or already deduplicated — skip the sort entirely.
    pub fn build(mut mapping: Mapping) -> MappingIndex {
        let canonical = mapping
            .pairs
            .windows(2)
            .all(|w| (w[0].from, w[0].to) < (w[1].from, w[1].to));
        if !canonical {
            mapping.dedup();
        }
        let mut b = MappingIndexBuilder::new(mapping.from, mapping.to, mapping.rel_type);
        for a in &mapping.pairs {
            b.push(a.from, a.to, a.evidence);
        }
        b.finish()
    }

    /// An empty index between two sources.
    pub fn empty(from: SourceId, to: SourceId, rel_type: RelType) -> MappingIndex {
        MappingIndexBuilder::new(from, to, rel_type).finish()
    }

    /// Number of associations.
    pub fn len(&self) -> usize {
        self.fwd_to.len()
    }

    /// Build-time cardinality/skew statistics (see [`IndexStats`]).
    pub fn stats(&self) -> &IndexStats {
        &self.stats
    }

    /// True if the index holds no associations.
    pub fn is_empty(&self) -> bool {
        self.fwd_to.is_empty()
    }

    /// Distinct domain objects, ascending (the paper's `Domain(map)` as a
    /// zero-copy slice).
    pub fn domain_keys(&self) -> &[ObjectId] {
        &self.fwd_keys
    }

    /// Distinct range objects, ascending.
    pub fn range_keys(&self) -> &[ObjectId] {
        &self.inv_keys
    }

    /// The paper's `Domain(map)` in the operators' `BTreeSet` currency.
    pub fn domain(&self) -> BTreeSet<ObjectId> {
        self.fwd_keys.iter().copied().collect()
    }

    /// The paper's `Range(map)`.
    pub fn range(&self) -> BTreeSet<ObjectId> {
        self.inv_keys.iter().copied().collect()
    }

    /// Forward positions of domain key `i`.
    pub fn fwd_range(&self, i: usize) -> Range<usize> {
        self.fwd_offsets[i] as usize..self.fwd_offsets[i + 1] as usize
    }

    /// Inverse positions of range key `i`.
    pub fn inv_range(&self, i: usize) -> Range<usize> {
        self.inv_offsets[i] as usize..self.inv_offsets[i + 1] as usize
    }

    /// Target object at forward position `pos`.
    pub fn to_at(&self, pos: usize) -> ObjectId {
        self.fwd_to[pos]
    }

    /// Domain partner at inverse position `pos`.
    pub fn inv_from_at(&self, pos: usize) -> ObjectId {
        self.inv_from[pos]
    }

    /// Forward position backing inverse position `pos` (shared evidence).
    pub fn inv_fwd_pos(&self, pos: usize) -> usize {
        self.inv_pos[pos] as usize
    }

    /// Evidence at forward position `pos`, reconstructing `None` for facts.
    pub fn evidence_at(&self, pos: usize) -> Option<f64> {
        if self.fact_mask[pos / 64] >> (pos % 64) & 1 == 1 {
            None
        } else {
            Some(self.evidence[pos])
        }
    }

    /// Effective evidence at forward position `pos` (facts count as 1.0).
    pub fn effective_evidence_at(&self, pos: usize) -> f64 {
        self.evidence[pos]
    }

    /// Bucket index of a domain object, if present.
    pub fn domain_bucket(&self, obj: ObjectId) -> Option<usize> {
        self.fwd_keys.binary_search(&obj).ok()
    }

    /// Bucket index of a range object, if present.
    pub fn range_bucket(&self, obj: ObjectId) -> Option<usize> {
        self.inv_keys.binary_search(&obj).ok()
    }

    /// Domain key owning forward position `pos` (binary search over the
    /// offsets array; forward buckets are never empty).
    pub fn key_of_pos(&self, pos: usize) -> ObjectId {
        let i = self.fwd_offsets.partition_point(|&o| o as usize <= pos) - 1;
        self.fwd_keys[i]
    }

    /// Associations in canonical (from, to) order.
    pub fn iter(&self) -> impl Iterator<Item = Association> + '_ {
        self.fwd_keys.iter().enumerate().flat_map(move |(i, &k)| {
            self.fwd_range(i).map(move |pos| Association {
                from: k,
                to: self.fwd_to[pos],
                evidence: self.evidence_at(pos),
            })
        })
    }

    /// Materialize back into the `Vec`-based currency, in canonical order —
    /// bit-identical to the mapping this index was built from (after its
    /// dedup).
    pub fn to_mapping(&self) -> Mapping {
        Mapping {
            from: self.from,
            to: self.to,
            rel_type: self.rel_type,
            pairs: self.iter().collect(),
        }
    }

    fn emit_bucket(&self, i: usize, out: &mut Vec<Association>) {
        let key = self.fwd_keys[i];
        for pos in self.fwd_range(i) {
            out.push(Association {
                from: key,
                to: self.fwd_to[pos],
                evidence: self.evidence_at(pos),
            });
        }
    }

    /// The paper's `RestrictDomain(map, s)` as binary searches over the
    /// forward key array, iterating whichever of the two sorted sides is
    /// smaller. Output order equals the canonical pair order, i.e. exactly
    /// what [`Mapping::restrict_domain`] yields on the canonical mapping.
    pub fn restrict_domain(&self, objects: &BTreeSet<ObjectId>) -> Mapping {
        let mut pairs = Vec::new();
        if objects.len() <= self.fwd_keys.len() {
            for &obj in objects {
                if let Ok(i) = self.fwd_keys.binary_search(&obj) {
                    self.emit_bucket(i, &mut pairs);
                }
            }
        } else {
            for (i, &k) in self.fwd_keys.iter().enumerate() {
                if objects.contains(&k) {
                    self.emit_bucket(i, &mut pairs);
                }
            }
        }
        Mapping {
            from: self.from,
            to: self.to,
            rel_type: self.rel_type,
            pairs,
        }
    }

    /// The paper's `RestrictRange(map, t)` via the inverse view: gather the
    /// forward positions of every selected range bucket, sort them, and
    /// emit — reproducing the canonical pair order of
    /// [`Mapping::restrict_range`].
    pub fn restrict_range(&self, objects: &BTreeSet<ObjectId>) -> Mapping {
        let mut positions: Vec<u32> = Vec::new();
        if objects.len() <= self.inv_keys.len() {
            for &obj in objects {
                if let Ok(i) = self.inv_keys.binary_search(&obj) {
                    positions.extend_from_slice(&self.inv_pos[self.inv_range(i)]);
                }
            }
        } else {
            for (i, &k) in self.inv_keys.iter().enumerate() {
                if objects.contains(&k) {
                    positions.extend_from_slice(&self.inv_pos[self.inv_range(i)]);
                }
            }
        }
        positions.sort_unstable();
        let pairs = positions
            .iter()
            .map(|&pos| {
                let pos = pos as usize;
                Association {
                    from: self.key_of_pos(pos),
                    to: self.fwd_to[pos],
                    evidence: self.evidence_at(pos),
                }
            })
            .collect();
        Mapping {
            from: self.from,
            to: self.to,
            rel_type: self.rel_type,
            pairs,
        }
    }

    /// The inverse mapping (`T → S`), in canonical form, built from the
    /// arrays this index already holds: the inverse side becomes the
    /// forward side and the forward side the inverse, and the evidence
    /// columns are permuted into the new forward order through
    /// [`inv_fwd_pos`](Self::inv_fwd_pos). No sort runs and no
    /// [`Mapping`] is built; the result equals
    /// `MappingIndex::build(self.to_mapping().inverse())`.
    pub fn inverted(&self) -> MappingIndex {
        let n = self.len();
        let mut evidence = Vec::with_capacity(n);
        let mut fact_mask = vec![0u64; self.fact_mask.len()];
        // the new inverse side points each old forward position at the new
        // forward position its association moved to
        let mut inv_pos = vec![0u32; n];
        for (pos, &old) in self.inv_pos.iter().enumerate() {
            let old = old as usize;
            evidence.push(self.evidence[old]);
            fact_mask[pos / 64] |= (self.fact_mask[old / 64] >> (old % 64) & 1) << (pos % 64);
            inv_pos[old] = pos as u32;
        }
        let stats = IndexStats {
            domain_keys: self.stats.range_keys,
            range_keys: self.stats.domain_keys,
            max_fwd_fanout: self.stats.max_inv_fanout,
            max_inv_fanout: self.stats.max_fwd_fanout,
            ..self.stats
        };
        MappingIndex {
            from: self.to,
            to: self.from,
            rel_type: self.rel_type,
            fwd_keys: self.inv_keys.clone(),
            fwd_offsets: self.inv_offsets.clone(),
            fwd_to: self.inv_from.clone(),
            evidence,
            fact_mask,
            inv_keys: self.fwd_keys.clone(),
            inv_offsets: self.fwd_offsets.clone(),
            inv_from: self.fwd_to.clone(),
            inv_pos,
            stats,
        }
    }

    /// Keep only associations with effective evidence `>= floor`,
    /// preserving canonical order (equivalent to `retain` on the pairs).
    pub fn filter_evidence(&self, floor: f64) -> MappingIndex {
        let mut b = MappingIndexBuilder::new(self.from, self.to, self.rel_type);
        for (i, &k) in self.fwd_keys.iter().enumerate() {
            for pos in self.fwd_range(i) {
                if self.evidence[pos] >= floor {
                    b.push(k, self.fwd_to[pos], self.evidence_at(pos));
                }
            }
        }
        b.finish()
    }
}

/// Streaming constructor for a [`MappingIndex`]: feed associations in
/// strictly ascending `(from, to)` order (one per pair) and call
/// [`finish`](MappingIndexBuilder::finish). The batched `OBJECT_REL` load
/// path pushes straight from the store's `by_pair` index scan, which
/// delivers exactly that order, so no sort or dedup runs at load time.
#[derive(Debug)]
pub struct MappingIndexBuilder {
    from: SourceId,
    to: SourceId,
    rel_type: RelType,
    fwd_keys: Vec<ObjectId>,
    fwd_offsets: Vec<u32>,
    fwd_to: Vec<ObjectId>,
    evidence: Vec<f64>,
    fact_mask: Vec<u64>,
    last: Option<(ObjectId, ObjectId)>,
}

impl MappingIndexBuilder {
    /// Start an empty index between two sources.
    pub fn new(from: SourceId, to: SourceId, rel_type: RelType) -> Self {
        MappingIndexBuilder {
            from,
            to,
            rel_type,
            fwd_keys: Vec::new(),
            fwd_offsets: Vec::new(),
            fwd_to: Vec::new(),
            evidence: Vec::new(),
            fact_mask: Vec::new(),
            last: None,
        }
    }

    /// Append one association. Pairs must arrive in strictly ascending
    /// `(from, to)` order.
    pub fn push(&mut self, from: ObjectId, to: ObjectId, evidence: Option<f64>) {
        assert!(
            self.last.is_none_or(|prev| prev < (from, to)),
            "MappingIndexBuilder::push out of order: {:?} after {:?}",
            (from, to),
            self.last
        );
        self.last = Some((from, to));
        let pos = self.fwd_to.len();
        assert!(pos < u32::MAX as usize, "MappingIndex overflows u32 positions");
        if self.fwd_keys.last() != Some(&from) {
            self.fwd_keys.push(from);
            self.fwd_offsets.push(pos as u32);
        }
        self.fwd_to.push(to);
        self.evidence.push(evidence.unwrap_or(1.0));
        if pos / 64 == self.fact_mask.len() {
            self.fact_mask.push(0);
        }
        if evidence.is_none() {
            self.fact_mask[pos / 64] |= 1 << (pos % 64);
        }
    }

    /// Seal the forward arrays and derive the inverse view.
    pub fn finish(mut self) -> MappingIndex {
        let n = self.fwd_to.len();
        self.fwd_offsets.push(n as u32);
        // inverse: (to, from, fwd position), sorted; (to, from) is unique
        // because (from, to) is
        let mut tmp: Vec<(ObjectId, ObjectId, u32)> = Vec::with_capacity(n);
        for (i, &k) in self.fwd_keys.iter().enumerate() {
            let lo = self.fwd_offsets[i] as usize;
            let hi = self.fwd_offsets[i + 1] as usize;
            for pos in lo..hi {
                tmp.push((self.fwd_to[pos], k, pos as u32));
            }
        }
        tmp.sort_unstable();
        let mut inv_keys = Vec::new();
        let mut inv_offsets = Vec::new();
        let mut inv_from = Vec::with_capacity(n);
        let mut inv_pos = Vec::with_capacity(n);
        for (to, from, pos) in tmp {
            if inv_keys.last() != Some(&to) {
                inv_keys.push(to);
                inv_offsets.push(inv_from.len() as u32);
            }
            inv_from.push(from);
            inv_pos.push(pos);
        }
        inv_offsets.push(n as u32);
        let max_fanout = |offsets: &[u32]| {
            offsets
                .windows(2)
                .map(|w| (w[1] - w[0]) as usize)
                .max()
                .unwrap_or(0)
        };
        let facts: usize = self.fact_mask.iter().map(|w| w.count_ones() as usize).sum();
        let stats = IndexStats {
            len: n,
            domain_keys: self.fwd_keys.len(),
            range_keys: inv_keys.len(),
            max_fwd_fanout: max_fanout(&self.fwd_offsets),
            max_inv_fanout: max_fanout(&inv_offsets),
            scored: n - facts,
            max_effective: self.evidence.iter().fold(0.0, |a: f64, &e| a.max(e)),
            min_effective: self.evidence.iter().fold(1.0, |a: f64, &e| a.min(e)),
        };
        MappingIndex {
            from: self.from,
            to: self.to,
            rel_type: self.rel_type,
            fwd_keys: self.fwd_keys,
            fwd_offsets: self.fwd_offsets,
            fwd_to: self.fwd_to,
            evidence: self.evidence,
            fact_mask: self.fact_mask,
            inv_keys,
            inv_offsets,
            inv_from,
            inv_pos,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Mapping {
        Mapping {
            from: SourceId(1),
            to: SourceId(2),
            rel_type: RelType::Similarity,
            pairs: vec![
                Association::scored(ObjectId(1), ObjectId(10), 0.5),
                Association::fact(ObjectId(1), ObjectId(11)),
                Association::scored(ObjectId(2), ObjectId(10), 1.0),
                Association::fact(ObjectId(4), ObjectId(12)),
                Association::scored(ObjectId(4), ObjectId(13), 0.25),
            ],
        }
    }

    fn bits(m: &Mapping) -> Vec<(ObjectId, ObjectId, Option<u64>)> {
        m.pairs
            .iter()
            .map(|a| (a.from, a.to, a.evidence.map(f64::to_bits)))
            .collect()
    }

    #[test]
    fn roundtrip_is_bit_identical_to_canonical_mapping() {
        let m = sample();
        let idx = MappingIndex::build(m.clone());
        assert_eq!(idx.len(), 5);
        assert_eq!(bits(&idx.to_mapping()), bits(&m));
        assert_eq!(idx.to_mapping(), m);
        // non-canonical input dedups first
        let mut shuffled = m.clone();
        shuffled.pairs.reverse();
        shuffled.pairs.push(Association::scored(ObjectId(1), ObjectId(10), 0.1));
        let idx2 = MappingIndex::build(shuffled);
        assert_eq!(bits(&idx2.to_mapping()), bits(&m));
    }

    #[test]
    fn fact_and_certain_score_stay_distinct() {
        let m = Mapping {
            from: SourceId(1),
            to: SourceId(2),
            rel_type: RelType::Fact,
            pairs: vec![
                Association::fact(ObjectId(1), ObjectId(10)),
                Association::scored(ObjectId(1), ObjectId(11), 1.0),
            ],
        };
        let idx = MappingIndex::build(m);
        assert_eq!(idx.evidence_at(0), None);
        assert_eq!(idx.evidence_at(1), Some(1.0));
        assert_eq!(idx.effective_evidence_at(0), 1.0);
        assert_eq!(idx.effective_evidence_at(1), 1.0);
    }

    #[test]
    fn domain_and_range_match_vec_implementation() {
        let m = sample();
        let idx = MappingIndex::build(m.clone());
        assert_eq!(idx.domain(), m.domain());
        assert_eq!(idx.range(), m.range());
        assert_eq!(idx.domain_keys(), &[ObjectId(1), ObjectId(2), ObjectId(4)]);
        assert_eq!(
            idx.range_keys(),
            &[ObjectId(10), ObjectId(11), ObjectId(12), ObjectId(13)]
        );
    }

    #[test]
    fn restricts_match_vec_implementation() {
        let m = sample();
        let idx = MappingIndex::build(m.clone());
        let subsets: [BTreeSet<ObjectId>; 4] = [
            BTreeSet::new(),
            [ObjectId(1)].into(),
            [ObjectId(1), ObjectId(4), ObjectId(99)].into(),
            m.domain(),
        ];
        for s in &subsets {
            assert_eq!(bits(&idx.restrict_domain(s)), bits(&m.restrict_domain(s)));
        }
        let subsets: [BTreeSet<ObjectId>; 4] = [
            BTreeSet::new(),
            [ObjectId(10)].into(),
            [ObjectId(10), ObjectId(13), ObjectId(99)].into(),
            m.range(),
        ];
        for t in &subsets {
            assert_eq!(bits(&idx.restrict_range(t)), bits(&m.restrict_range(t)));
        }
    }

    /// Flipping an index equals indexing the flipped mapping, array for
    /// array and stat for stat — facts, explicit 1.0 scores and a fact
    /// mask past one word included — and flipping twice is the identity.
    #[test]
    fn inverted_equals_the_index_of_the_inverse() {
        let mut wide = sample();
        wide.pairs = (0..150u64)
            .map(|i| {
                let (from, to) = (ObjectId(i / 3), ObjectId(1000 + i * 37 % 101));
                match i % 3 {
                    0 => Association::fact(from, to),
                    1 => Association::scored(from, to, 1.0),
                    _ => Association::scored(from, to, i as f64 / 200.0),
                }
            })
            .collect();
        let empty = Mapping { pairs: Vec::new(), ..sample() };
        for m in [sample(), wide, empty] {
            let idx = MappingIndex::build(m.clone());
            let flipped = idx.inverted();
            assert_eq!(flipped, MappingIndex::build(m.inverse()));
            assert_eq!(bits(&flipped.to_mapping()), bits(&MappingIndex::build(m.inverse()).to_mapping()));
            assert_eq!(flipped.inverted(), idx);
        }
    }

    #[test]
    fn inverse_view_is_consistent() {
        let m = sample();
        let idx = MappingIndex::build(m.clone());
        // walking the inverse view reconstructs the same association set
        let mut via_inverse: Vec<(ObjectId, ObjectId, Option<u64>)> = Vec::new();
        for (i, &to) in idx.range_keys().iter().enumerate() {
            for p in idx.inv_range(i) {
                let fwd = idx.inv_fwd_pos(p);
                assert_eq!(idx.to_at(fwd), to);
                assert_eq!(idx.key_of_pos(fwd), idx.inv_from_at(p));
                via_inverse.push((
                    idx.inv_from_at(p),
                    to,
                    idx.evidence_at(fwd).map(f64::to_bits),
                ));
            }
        }
        via_inverse.sort_unstable();
        let mut expected = bits(&m);
        expected.sort_unstable();
        assert_eq!(via_inverse, expected);
    }

    #[test]
    fn filter_evidence_equals_retain() {
        let m = sample();
        let idx = MappingIndex::build(m.clone());
        for floor in [0.0, 0.3, 0.6, 1.0] {
            let filtered = idx.filter_evidence(floor);
            let mut reference = m.clone();
            reference.pairs.retain(|a| a.effective_evidence() >= floor);
            assert_eq!(bits(&filtered.to_mapping()), bits(&reference));
        }
    }

    #[test]
    fn empty_index() {
        let idx = MappingIndex::empty(SourceId(1), SourceId(2), RelType::Fact);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.domain_keys().is_empty());
        assert!(idx.range_keys().is_empty());
        assert!(idx.to_mapping().is_empty());
        assert_eq!(idx.restrict_domain(&[ObjectId(1)].into()).len(), 0);
    }

    #[test]
    fn stats_summarize_the_association_multiset() {
        let idx = MappingIndex::build(sample());
        let s = *idx.stats();
        assert_eq!(s.len, 5);
        assert_eq!(s.domain_keys, 3);
        assert_eq!(s.range_keys, 4);
        // object 1 and object 4 both map twice; object 10 is hit twice
        assert_eq!(s.max_fwd_fanout, 2);
        assert_eq!(s.max_inv_fanout, 2);
        assert_eq!(s.scored, 3);
        assert_eq!(s.max_effective, 1.0);
        assert_eq!(s.min_effective, 0.25);
        assert!((s.avg_fwd_fanout() - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.fwd_skew() - 2.0 / (5.0 / 3.0)).abs() < 1e-12);
        // stats are recomputed by every constructor, so filtered indexes
        // describe themselves, not their parent
        let filtered = idx.filter_evidence(0.6);
        assert_eq!(filtered.stats().len, 3);
        assert_eq!(filtered.stats().scored, 1);
        let empty = MappingIndex::empty(SourceId(1), SourceId(2), RelType::Fact);
        assert_eq!(empty.stats().len, 0);
        assert_eq!(empty.stats().max_effective, 0.0);
        assert_eq!(empty.stats().min_effective, 1.0);
        assert_eq!(empty.stats().fwd_skew(), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn builder_rejects_out_of_order_pushes() {
        let mut b = MappingIndexBuilder::new(SourceId(1), SourceId(2), RelType::Fact);
        b.push(ObjectId(2), ObjectId(1), None);
        b.push(ObjectId(1), ObjectId(1), None);
    }
}
