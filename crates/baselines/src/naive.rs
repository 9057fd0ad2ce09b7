//! A deliberately naive reference implementation of the mapping algebra —
//! the oracle the executor in `operators` is tested against.
//!
//! Everything here is the definition written down, not an algorithm:
//! `Map` concatenates the stored mappings, `Compose` is a nested loop over
//! two association lists (paper Table 2), a mapping path is a lazy left
//! fold, and `GenerateView` is Figure 5 line by line over `BTreeSet`s.
//! No index, no statistics, no threads, no rewrite. It depends on `gam`'s
//! data types only, so it shares no code with the executor it judges.
//!
//! Evidence rules (DESIGN.md §6): fact ∘ fact stays a fact (`None`); any
//! other combination multiplies effective evidence (facts count 1.0);
//! duplicate `(from, to)` pairs keep the strongest evidence, a fact
//! beating an explicit `Some(1.0)`; an evidence floor drops combinations
//! below it at every join of a path, and the path's first step up front.

use gam::{Association, GamError, GamRead, GamResult, Mapping, ObjectId, RelType, SourceId};
use std::collections::{BTreeMap, BTreeSet};

/// `a` is strictly stronger evidence than `b`.
fn stronger(a: Option<f64>, b: Option<f64>) -> bool {
    match a.unwrap_or(1.0).total_cmp(&b.unwrap_or(1.0)) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => a.is_none() && b.is_some(),
    }
}

/// One association per `(from, to)`, the strongest, in key order.
fn strongest_per_pair(pairs: impl IntoIterator<Item = Association>) -> Vec<Association> {
    let mut best: BTreeMap<(ObjectId, ObjectId), Option<f64>> = BTreeMap::new();
    for a in pairs {
        best.entry((a.from, a.to))
            .and_modify(|e| {
                if stronger(a.evidence, *e) {
                    *e = a.evidence;
                }
            })
            .or_insert(a.evidence);
    }
    best.into_iter()
        .map(|((from, to), evidence)| Association { from, to, evidence })
        .collect()
}

fn check_floor(floor: Option<f64>) -> GamResult<()> {
    match floor {
        Some(f) if !(0.0..=1.0).contains(&f) => Err(GamError::BadEvidence(f)),
        _ => Ok(()),
    }
}

/// `Map(S, T)`: every stored annotation mapping between the two sources,
/// in either orientation, merged and oriented `from → to`. The result
/// carries the relationship type of the first stored mapping found
/// (forward orientation first).
pub fn map(store: &dyn GamRead, from: SourceId, to: SourceId) -> GamResult<Mapping> {
    let mut rel_type = None;
    let mut pairs = Vec::new();
    for rel in store.source_rels_between(from, to)? {
        if !rel.rel_type.is_structural() {
            rel_type.get_or_insert(rel.rel_type);
            pairs.extend(store.load_mapping(rel.id)?.pairs);
        }
    }
    if from != to {
        for rel in store.source_rels_between(to, from)? {
            if !rel.rel_type.is_structural() {
                rel_type.get_or_insert(rel.rel_type);
                pairs.extend(store.load_mapping(rel.id)?.inverse().pairs);
            }
        }
    }
    let rel_type = rel_type.ok_or(GamError::NoMapping { from, to })?;
    Ok(Mapping {
        from,
        to,
        rel_type,
        pairs: strongest_per_pair(pairs),
    })
}

/// `Compose(left, right)` as a nested loop: every left association whose
/// range object equals a right association's domain object yields one
/// composed association. With a `floor`, combinations below it are dropped.
pub fn compose(left: &Mapping, right: &Mapping, floor: Option<f64>) -> GamResult<Mapping> {
    check_floor(floor)?;
    if left.to != right.from {
        return Err(GamError::Invalid(format!(
            "compose: mappings do not share a source ({} vs {})",
            left.to, right.from
        )));
    }
    let mut out = Vec::new();
    for l in &left.pairs {
        for r in &right.pairs {
            if l.to != r.from {
                continue;
            }
            let evidence = match (l.evidence, r.evidence) {
                (None, None) => None,
                _ => Some(l.effective_evidence() * r.effective_evidence()),
            };
            if floor.is_some_and(|f| evidence.unwrap_or(1.0) < f) {
                continue;
            }
            out.push(Association {
                from: l.from,
                to: r.to,
                evidence,
            });
        }
    }
    Ok(Mapping {
        from: left.from,
        to: right.to,
        rel_type: RelType::Composed,
        pairs: strongest_per_pair(out),
    })
}

/// `Compose` along a mapping path, as a lazy left fold in caller order:
/// each step is loaded with [`map`] only when the fold reaches it, and the
/// fold stops as soon as nothing is left to join — so a chain that empties
/// before a missing step is empty, and one that reaches it fails with that
/// step's `NoMapping`.
pub fn compose_path(
    store: &dyn GamRead,
    path: &[SourceId],
    floor: Option<f64>,
) -> GamResult<Mapping> {
    check_floor(floor)?;
    if path.len() < 2 {
        return Err(GamError::Invalid(
            "compose path needs at least two sources".into(),
        ));
    }
    let mut acc = map(store, path[0], path[1])?;
    if let Some(f) = floor {
        acc.pairs.retain(|a| a.effective_evidence() >= f);
    }
    for step in path[1..].windows(2) {
        let right = map(store, step[0], step[1])?;
        acc = compose(&acc, &right, floor)?;
        if acc.is_empty() {
            break;
        }
    }
    acc.from = path[0];
    acc.to = path[path.len() - 1];
    if path.len() > 2 {
        acc.rel_type = RelType::Composed;
    }
    Ok(acc)
}

/// One target column of a view: the already-determined mapping
/// `Mi: S ↔ Ti` plus Figure 5's per-target parameters.
#[derive(Debug, Clone)]
pub struct ViewTarget {
    /// `Mi`, oriented from the view's source to this target.
    pub mapping: Mapping,
    /// The relevant target objects `ti`; `None` covers all of `Ti`.
    pub objects: Option<BTreeSet<ObjectId>>,
    /// Whether the target is negated (`NOT`).
    pub negated: bool,
    /// Associations below this effective evidence do not count.
    pub min_evidence: Option<f64>,
}

/// `GenerateView` (Figure 5) over the source objects `s`: the rows of the
/// view, sorted, each `[source object, T1, ..., Tm]` with `None` for NULL.
/// `and` selects the inner join, otherwise the left outer join. The figure
/// determines each `Mi` inside its loop, so `targets` yields them lazily:
/// the first failing target, in order, is the view's error.
pub fn generate_view(
    s: &BTreeSet<ObjectId>,
    targets: impl IntoIterator<Item = GamResult<ViewTarget>>,
    and: bool,
) -> GamResult<Vec<Vec<Option<ObjectId>>>> {
    // V = s; each row is (source object, target cells so far)
    let mut rows: Vec<(ObjectId, Vec<Option<ObjectId>>)> =
        s.iter().map(|&o| (o, Vec::new())).collect();
    for target in targets {
        let target = target?;
        check_floor(target.min_evidence)?;
        let mi_full: Vec<Association> = strongest_per_pair(target.mapping.pairs.iter().copied())
            .into_iter()
            .filter(|a| {
                target
                    .min_evidence
                    .is_none_or(|f| a.effective_evidence() >= f)
            })
            .collect();
        // mi = RestrictRange(RestrictDomain(Mi, s), ti)
        let mi: Vec<Association> = mi_full
            .iter()
            .filter(|a| s.contains(&a.from))
            .filter(|a| target.objects.as_ref().is_none_or(|t| t.contains(&a.to)))
            .copied()
            .collect();
        // objects of s appearing in this column, each with its values
        // (an empty list is a NULL cell)
        let mut column: BTreeMap<ObjectId, Vec<ObjectId>> = BTreeMap::new();
        if target.negated {
            // sî = s \ Domain(mi); mî = RestrictDomain(Mi, sî) right outer
            // join sî — every object of sî appears, annotated or NULL
            let covered: BTreeSet<ObjectId> = mi.iter().map(|a| a.from).collect();
            for &obj in s.difference(&covered) {
                let values = mi_full.iter().filter(|a| a.from == obj).map(|a| a.to);
                column.insert(obj, values.collect());
            }
        } else {
            for a in &mi {
                column.entry(a.from).or_default().push(a.to);
            }
        }
        // V = V inner join / left outer join mi on S
        let mut next = Vec::new();
        for (key, cells) in rows {
            let values: Vec<Option<ObjectId>> = match column.get(&key) {
                Some(values) if !values.is_empty() => values.iter().copied().map(Some).collect(),
                Some(_) => vec![None],
                None if and => Vec::new(),
                None => vec![None],
            };
            for v in values {
                next.push((key, [cells.clone(), vec![v]].concat()));
            }
        }
        rows = next;
    }
    let mut rows: Vec<Vec<Option<ObjectId>>> = rows
        .into_iter()
        .map(|(key, cells)| [vec![Some(key)], cells].concat())
        .collect();
    rows.sort();
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(from: u32, to: u32, pairs: &[(u64, u64, Option<f64>)]) -> Mapping {
        Mapping {
            from: SourceId(from),
            to: SourceId(to),
            rel_type: RelType::Fact,
            pairs: pairs
                .iter()
                .map(|&(f, t, evidence)| Association {
                    from: ObjectId(f),
                    to: ObjectId(t),
                    evidence,
                })
                .collect(),
        }
    }

    #[test]
    fn paper_example_unigene_go_via_locuslink() {
        // "the new mapping Unigene<->GO can be derived by combining two
        // existing mappings, Unigene<->LocusLink and LocusLink<->GO"
        let ug_ll = m(1, 2, &[(10, 20, None), (11, 21, None)]);
        let ll_go = m(2, 3, &[(20, 30, None), (20, 31, None), (22, 32, None)]);
        let ug_go = compose(&ug_ll, &ll_go, None).unwrap();
        assert_eq!((ug_go.from, ug_go.to), (SourceId(1), SourceId(3)));
        assert_eq!(ug_go.rel_type, RelType::Composed);
        assert_eq!(
            ug_go.pairs,
            vec![
                Association::fact(ObjectId(10), ObjectId(30)),
                Association::fact(ObjectId(10), ObjectId(31)),
            ]
        );
    }

    #[test]
    fn evidence_multiplies_dedups_and_floors() {
        let ab = m(1, 2, &[(1, 2, Some(0.9)), (1, 3, Some(0.2)), (5, 6, None)]);
        let bc = m(
            2,
            3,
            &[(2, 9, Some(0.9)), (3, 9, Some(0.9)), (6, 9, Some(1.0))],
        );
        let ac = compose(&ab, &bc, None).unwrap();
        // two derivations of 1→9 keep the stronger; fact ∘ 1.0 is scored
        assert_eq!(ac.pairs.len(), 2);
        assert!((ac.pairs[0].evidence.unwrap() - 0.81).abs() < 1e-12);
        assert_eq!(ac.pairs[1].evidence, Some(1.0));
        // the floor drops the weak derivation, never the strong one
        assert_eq!(compose(&ab, &bc, Some(0.5)).unwrap(), ac);
        assert_eq!(compose(&ab, &bc, Some(0.9)).unwrap().pairs.len(), 1);
        assert!(matches!(
            compose(&ab, &bc, Some(f64::NAN)),
            Err(GamError::BadEvidence(_))
        ));
        assert!(compose(&ab, &m(7, 8, &[]), None).is_err());
    }

    #[test]
    fn fact_beats_explicit_one_in_either_order() {
        for pairs in [
            [(1, 2, None), (1, 2, Some(1.0))],
            [(1, 2, Some(1.0)), (1, 2, None)],
        ] {
            let got = strongest_per_pair(m(1, 2, &pairs).pairs);
            assert_eq!(got, vec![Association::fact(ObjectId(1), ObjectId(2))]);
        }
    }

    #[test]
    fn figure5_negation_keeps_other_annotations() {
        // l0: o0; l1: —; l2: o1. NOT o0 keeps l1 (NULL) and l2 (with o1).
        let s: BTreeSet<ObjectId> = [0, 1, 2].map(ObjectId).into();
        let omim = m(1, 2, &[(0, 10, None), (2, 11, None)]);
        let target = ViewTarget {
            mapping: omim,
            objects: Some([ObjectId(10)].into()),
            negated: true,
            min_evidence: None,
        };
        let rows = generate_view(&s, [Ok(target)], true).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Some(ObjectId(1)), None],
                vec![Some(ObjectId(2)), Some(ObjectId(11))],
            ]
        );
    }
}
