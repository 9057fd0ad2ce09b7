//! The `Compose` operation: transitivity of associations.
//!
//! Paper §4.2: "Compose takes as input a so-called mapping path consisting
//! of two or more mappings connecting two sources with each other ... it
//! can use a relational join operation to combine map1: S1↔S2 and map2:
//! S2↔S3, which share a common source S2, and produce as output a mapping
//! between S1 and S3."
//!
//! Evidence combination: the composed association's evidence is the
//! product of the constituents' effective evidence (facts count as 1.0),
//! reflecting the paper's note that composition may weaken plausibility —
//! "the use of mappings containing associations of reduced evidence is a
//! promising subject for future research". Two all-fact inputs therefore
//! compose into fact associations.
//!
//! An evidence floor (`compose_idx`'s `min_evidence`,
//! `compose_path_idx_with_threshold`) drops composed associations whose
//! combined evidence falls below it — multiplication for combination,
//! thresholding for acceptance. It also bounds the paper's noted risk that
//! "Compose may lead to wrong associations when the transitivity
//! assumption does not hold": low-confidence chains are exactly where
//! transitivity breaks.
//!
//! The join is a sorted merge over CSR [`MappingIndex`]es, stepping or
//! galloping as [`cost::choose_strategy`] picks per join; both emit the
//! same association multiset into the same canonical dedup, so the choice
//! never shows in the output.

use crate::plan::cost::{self, JoinStrategy};
use crate::ExecConfig;
use gam::mapping::Association;
use gam::model::RelType;
use gam::{GamError, GamRead, GamResult, Mapping, MappingIndex, ObjectId, SourceId};

/// The one validity check for a caller-supplied evidence floor.
pub(crate) fn check_floor(min_evidence: f64) -> GamResult<()> {
    if !(0.0..=1.0).contains(&min_evidence) {
        return Err(GamError::BadEvidence(min_evidence));
    }
    Ok(())
}

/// First index `>= start` whose key is `>= target`, found by exponential
/// (galloping) search: a jump of distance `d` costs `O(log d)`, so merging
/// a small key array against a huge one costs the small side's length
/// times a logarithm rather than a linear walk over the huge side.
fn gallop(keys: &[ObjectId], start: usize, target: ObjectId) -> usize {
    let mut step = 1;
    while start + step < keys.len() && keys[start + step] < target {
        step <<= 1;
    }
    let lo = start + (step >> 1);
    let hi = (start + step).min(keys.len());
    lo + keys[lo..hi].partition_point(|&k| k < target)
}

/// Join one left association (forward position `lpos`, domain object
/// `l_from`) with every right association of domain bucket `j`.
/// `min_evidence` is applied **during** the join, so pairs below the floor
/// are never allocated; this equals composing fully and filtering
/// afterwards because duplicates are later deduped to their maximum
/// evidence, and the maximum survives the floor iff any duplicate does.
#[inline]
fn join_bucket(
    left: &MappingIndex,
    lpos: usize,
    l_from: ObjectId,
    right: &MappingIndex,
    j: usize,
    min_evidence: Option<f64>,
    out: &mut Vec<Association>,
) {
    let l_ev = left.evidence_at(lpos);
    for q in right.fwd_range(j) {
        let evidence = match (l_ev, right.evidence_at(q)) {
            (None, None) => None, // fact ∘ fact = fact
            _ => Some(left.effective_evidence_at(lpos) * right.effective_evidence_at(q)),
        };
        if let Some(floor) = min_evidence {
            if evidence.unwrap_or(1.0) < floor {
                continue;
            }
        }
        out.push(Association {
            from: l_from,
            to: right.to_at(q),
            evidence,
        });
    }
}

/// Sorted merge join over the left index's range keys and the right
/// index's domain keys — both already sorted and distinct, so the join
/// needs no hash table at all. When one key array dwarfs the other
/// ([`cost::GALLOP_RATIO`]), the caller flags the long side's cursor to
/// gallop; the flags only affect speed, never the emitted multiset.
fn merge_join_idx(
    left: &MappingIndex,
    right: &MappingIndex,
    min_evidence: Option<f64>,
    gallop_left: bool,
    gallop_right: bool,
) -> Vec<Association> {
    let lk = left.range_keys();
    let rk = right.domain_keys();
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lk.len() && j < rk.len() {
        if lk[i] < rk[j] {
            i = if gallop_left { gallop(lk, i, rk[j]) } else { i + 1 };
        } else if rk[j] < lk[i] {
            j = if gallop_right { gallop(rk, j, lk[i]) } else { j + 1 };
        } else {
            // every left association arriving at the shared middle
            // object (via the inverse view) joins every right one leaving it
            for p in left.inv_range(i) {
                let lpos = left.inv_fwd_pos(p);
                join_bucket(left, lpos, left.inv_from_at(p), right, j, min_evidence, &mut out);
            }
            i += 1;
            j += 1;
        }
    }
    out
}

/// Compose two mappings sharing a middle source (`left.to == right.from`),
/// optionally with an evidence floor: composed associations whose combined
/// evidence falls below it are dropped. Output pairs are deduplicated
/// keeping the strongest evidence.
///
/// The physical join is picked from the operands' statistics by
/// [`cost::choose_strategy`]. Both strategies emit the same association
/// multiset, and the dedup is a pure function of that multiset, so the
/// resulting index is bit-identical whichever is chosen.
pub fn compose_idx(
    left: &MappingIndex,
    right: &MappingIndex,
    min_evidence: Option<f64>,
) -> GamResult<MappingIndex> {
    if let Some(floor) = min_evidence {
        check_floor(floor)?;
    }
    if left.to != right.from {
        return Err(GamError::Invalid(format!(
            "compose: mappings do not share a source ({} vs {})",
            left.to, right.from
        )));
    }
    let (gl, gr) = match cost::choose_strategy(left.stats(), right.stats()) {
        JoinStrategy::Merge => (false, false),
        JoinStrategy::Gallop { left, right } => (left, right),
    };
    let mut merged = Mapping {
        from: left.from,
        to: right.to,
        rel_type: RelType::Composed,
        pairs: merge_join_idx(left, right, min_evidence, gl, gr),
    };
    // the dedup leaves the mapping canonical, so build skips the sort
    merged.dedup();
    Ok(MappingIndex::build(merged))
}

/// Compose along a mapping path of sources, loading each step with
/// [`map_index`](crate::simple::map_index). The path must name at least
/// two sources; a two-source path degenerates to `Map` itself. The chain
/// is planned and executed by the planner (`plan::plan_chain`). The
/// [`ExecConfig`] argument carries nothing.
pub fn compose_path_idx(
    store: &dyn GamRead,
    path: &[SourceId],
    _cfg: &ExecConfig,
) -> GamResult<MappingIndex> {
    crate::plan::plan_chain(store, path, None, false).map(|(idx, _)| idx)
}

/// [`compose_path_idx`] with an evidence floor applied at every step, so
/// implausible chains are pruned early instead of multiplying through.
pub fn compose_path_idx_with_threshold(
    store: &dyn GamRead,
    path: &[SourceId],
    min_evidence: f64,
) -> GamResult<MappingIndex> {
    crate::plan::plan_chain(store, path, Some(min_evidence), false).map(|(idx, _)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam::model::{SourceContent, SourceStructure};
    use gam::GamStore;

    fn m(from: u32, to: u32, pairs: &[(u64, u64, Option<f64>)]) -> MappingIndex {
        MappingIndex::build(Mapping {
            from: SourceId(from),
            to: SourceId(to),
            rel_type: RelType::Fact,
            pairs: pairs
                .iter()
                .map(|&(f, t, e)| Association {
                    from: ObjectId(f),
                    to: ObjectId(t),
                    evidence: e,
                })
                .collect(),
        })
    }

    fn compose(left: &MappingIndex, right: &MappingIndex) -> GamResult<Mapping> {
        compose_idx(left, right, None).map(|i| i.to_mapping())
    }

    fn compose_floor(left: &MappingIndex, right: &MappingIndex, f: f64) -> GamResult<Mapping> {
        compose_idx(left, right, Some(f)).map(|i| i.to_mapping())
    }

    #[test]
    fn paper_example_unigene_go_via_locuslink() {
        // "the new mapping Unigene<->GO can be derived by combining two
        // existing mappings, Unigene<->LocusLink and LocusLink<->GO"
        let unigene_locuslink = m(1, 2, &[(10, 20, None), (11, 21, None)]);
        let locuslink_go = m(2, 3, &[(20, 30, None), (20, 31, None), (22, 32, None)]);
        let unigene_go = compose(&unigene_locuslink, &locuslink_go).unwrap();
        assert_eq!(unigene_go.from, SourceId(1));
        assert_eq!(unigene_go.to, SourceId(3));
        assert_eq!(unigene_go.rel_type, RelType::Composed);
        assert_eq!(unigene_go.len(), 2);
        assert!(unigene_go.pairs.contains(&Association::fact(ObjectId(10), ObjectId(30))));
        assert!(unigene_go.pairs.contains(&Association::fact(ObjectId(10), ObjectId(31))));
    }

    #[test]
    fn evidence_multiplies() {
        let ab = m(1, 2, &[(1, 2, Some(0.8))]);
        let bc = m(2, 3, &[(2, 3, Some(0.5)), (2, 4, None)]);
        let ac = compose(&ab, &bc).unwrap();
        assert_eq!(ac.len(), 2);
        let to3 = ac.pairs.iter().find(|p| p.to == ObjectId(3)).unwrap();
        assert!((to3.evidence.unwrap() - 0.4).abs() < 1e-12);
        // scored ∘ fact keeps the score
        let to4 = ac.pairs.iter().find(|p| p.to == ObjectId(4)).unwrap();
        assert!((to4.evidence.unwrap() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fact_compose_fact_stays_fact() {
        let ab = m(1, 2, &[(1, 2, None)]);
        let bc = m(2, 3, &[(2, 3, None)]);
        let ac = compose(&ab, &bc).unwrap();
        assert_eq!(ac.pairs[0].evidence, None);
    }

    #[test]
    fn duplicate_derivations_keep_best_evidence() {
        // two middle objects both lead from 1 to 9 with different strengths
        let ab = m(1, 2, &[(1, 2, Some(0.9)), (1, 3, Some(0.2))]);
        let bc = m(2, 3, &[(2, 9, Some(0.9)), (3, 9, Some(0.9))]);
        let ac = compose(&ab, &bc).unwrap();
        assert_eq!(ac.len(), 1);
        assert!((ac.pairs[0].evidence.unwrap() - 0.81).abs() < 1e-12);
    }

    #[test]
    fn bad_inputs_rejected() {
        let ab = m(1, 2, &[]);
        let cd = m(3, 4, &[]);
        assert!(compose(&ab, &cd).is_err(), "no shared middle source");
        let bc = m(2, 3, &[]);
        assert!(compose_floor(&ab, &bc, 1.5).is_err());
        assert!(compose_floor(&ab, &bc, f64::NAN).is_err());
    }

    #[test]
    fn compose_is_associative() {
        let ab = m(1, 2, &[(1, 10, Some(0.5)), (2, 11, None)]);
        let bc = m(2, 3, &[(10, 20, Some(0.8)), (11, 21, None)]);
        let cd = m(3, 4, &[(20, 30, None), (21, 31, Some(0.5))]);
        let left = compose(&compose_idx(&ab, &bc, None).unwrap(), &cd).unwrap();
        let right = compose(&ab, &compose_idx(&bc, &cd, None).unwrap()).unwrap();
        assert_eq!(left.pairs.len(), right.pairs.len());
        for (l, r) in left.pairs.iter().zip(&right.pairs) {
            assert_eq!((l.from, l.to), (r.from, r.to));
            match (l.evidence, r.evidence) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-12),
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn threshold_prunes_weak_chains() {
        let ab = m(1, 2, &[(1, 2, Some(0.9)), (5, 6, Some(0.3))]);
        let bc = m(2, 3, &[(2, 3, Some(0.8)), (6, 7, Some(0.9))]);
        // unthresholded: both chains survive (0.72 and 0.27)
        let all = compose(&ab, &bc).unwrap();
        assert_eq!(all.len(), 2);
        // threshold 0.5 keeps only the strong chain
        let strong = compose_floor(&ab, &bc, 0.5).unwrap();
        assert_eq!(strong.len(), 1);
        assert_eq!(strong.pairs[0].from, ObjectId(1));
        // threshold 0 is the identity policy
        assert_eq!(compose_floor(&ab, &bc, 0.0).unwrap(), all);
        // facts (evidence 1.0) always survive
        let facts = m(1, 2, &[(1, 2, None)]);
        let more = m(2, 3, &[(2, 3, None)]);
        assert_eq!(compose_floor(&facts, &more, 0.99).unwrap().len(), 1);
    }

    #[test]
    fn threshold_in_join_equals_filter_after() {
        // the join-time floor must match compose-then-retain, including
        // where two derivations of one pair straddle the floor
        let left = m(1, 2, &[(1, 10, Some(0.9)), (1, 11, Some(0.3)), (2, 11, None), (3, 10, Some(0.4))]);
        let right = m(2, 3, &[(10, 20, Some(0.7)), (11, 20, None), (11, 22, Some(0.2))]);
        let mut reference = compose(&left, &right).unwrap();
        reference.pairs.retain(|a| a.effective_evidence() >= 0.5);
        assert_eq!(compose_floor(&left, &right, 0.5).unwrap(), reference);
    }

    fn bits(pairs: &[Association]) -> Vec<(ObjectId, ObjectId, Option<u64>)> {
        pairs
            .iter()
            .map(|a| (a.from, a.to, a.evidence.map(f64::to_bits)))
            .collect()
    }

    /// Deterministic pseudo-random mapping pair sharing a middle source.
    fn random_pair(seed: u64, n: usize, left_dom: u64, mid: u64, right_dom: u64) -> (MappingIndex, MappingIndex) {
        let mut rng = testkit::Prng::seed_from_u64(seed);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for _ in 0..n {
            let e = match rng.below(3) {
                0 => None,
                _ => Some(rng.below(1000) as f64 / 1000.0),
            };
            left.push((rng.gen_range(0..left_dom), rng.gen_range(0..mid), e));
            right.push((rng.gen_range(0..mid), rng.gen_range(0..right_dom), e.map(|v| 1.0 - v)));
        }
        (m(1, 2, &left), m(2, 3, &right))
    }

    /// The two physical joins, called directly: stepping merge and every
    /// galloping flag combination must dedup to the same bits, with and
    /// without a floor.
    #[test]
    fn merge_and_gallop_emit_the_same_pairs() {
        // balanced, left-heavy and right-heavy key counts, and empty sides
        let shapes = [
            random_pair(0x9e3779b97f4a7c15, 400, 40, 30, 40),
            random_pair(7, 300, 500, 300, 4),
            random_pair(11, 300, 4, 12, 500),
            random_pair(13, 0, 10, 10, 10),
        ];
        for (k, (l, r)) in shapes.iter().enumerate() {
            for floor in [None, Some(0.25)] {
                let canon = |pairs| {
                    let mut m = Mapping {
                        from: l.from,
                        to: r.to,
                        rel_type: RelType::Composed,
                        pairs,
                    };
                    m.dedup();
                    bits(&m.pairs)
                };
                let merge = canon(merge_join_idx(l, r, floor, false, false));
                for (gl, gr) in [(true, false), (false, true), (true, true)] {
                    let gallop = canon(merge_join_idx(l, r, floor, gl, gr));
                    assert_eq!(gallop, merge, "shape {k} floor {floor:?} gallop {gl}/{gr}");
                }
            }
        }
    }

    #[test]
    fn gallop_finds_lower_bound() {
        let keys: Vec<ObjectId> = (0..100).map(|i| ObjectId(i * 2)).collect();
        for start in [0, 3, 50, 99] {
            for target in [0u64, 1, 7, 120, 198, 199, 500] {
                let got = gallop(&keys, start, ObjectId(target));
                let want = start
                    + keys[start..].partition_point(|&k| k < ObjectId(target));
                assert_eq!(got, want, "start={start} target={target}");
            }
        }
    }

    #[test]
    fn compose_path_in_store() {
        let mut s = GamStore::in_memory().unwrap();
        let ids: Vec<SourceId> = ["Affy", "Unigene", "LocusLink", "GO"]
            .iter()
            .map(|n| {
                s.create_source(n, SourceContent::Gene, SourceStructure::Flat, None)
                    .unwrap()
                    .id
            })
            .collect();
        let mut objs = Vec::new();
        for (i, &src) in ids.iter().enumerate() {
            objs.push(s.create_object(src, &format!("o{i}"), None, None).unwrap());
        }
        for (i, w) in ids.windows(2).enumerate() {
            let rel = s
                .create_source_rel(w[0], w[1], RelType::Fact, None)
                .unwrap();
            s.add_association(rel, objs[i], objs[i + 1], None).unwrap();
        }
        let cfg = ExecConfig::sequential();
        let m = compose_path_idx(&s, &ids, &cfg).unwrap();
        assert_eq!((m.from, m.to, m.rel_type), (ids[0], ids[3], RelType::Composed));
        assert_eq!(m.to_mapping().pairs, vec![Association::fact(objs[0], objs[3])]);

        // two-source path is just Map
        let m2 = compose_path_idx(&s, &ids[..2], &cfg).unwrap();
        assert_eq!(m2.rel_type, RelType::Fact);
        // degenerate path and invalid floor rejected
        assert!(compose_path_idx(&s, &ids[..1], &cfg).is_err());
        assert!(compose_path_idx_with_threshold(&s, &ids[..1], 0.5).is_err());
        assert!(matches!(
            compose_path_idx_with_threshold(&s, &ids, 2.0),
            Err(GamError::BadEvidence(_))
        ));
        // missing step mapping surfaces as NoMapping
        assert!(matches!(
            compose_path_idx(&s, &[ids[0], ids[2]], &cfg),
            Err(GamError::NoMapping { .. })
        ));
    }
}
