//! `GenerateView` — the paper's Figure 5 algorithm.
//!
//! ```text
//! GenerateView(S, s, T1, t1, ..., Tm, tm, [AND|OR], {negated})
//!   V = s
//!   For i = 1..m
//!     Determine mapping Mi: S↔Ti           // Map or Compose
//!     mi = RestrictDomain(Mi, s)
//!     mi = RestrictRange(mi, ti)
//!     If negated[Ti]
//!       sî = s \ Domain(mi)
//!       mî = RestrictDomain(Mi, sî)
//!       mi = mî right outer join sî on S   // preserve objects without associations
//!     End If
//!     V = V inner join / left outer join mi on S   // AND / OR
//!   End For
//! ```
//!
//! The result is "a view of m+1 attributes, S, T1, ..., Tm, containing
//! tuples of related objects from the corresponding sources".
//!
//! Each `Mi` is a shared CSR [`MappingIndex`]: restriction, negation and
//! the evidence floor run as offset-array probes on the immutable index,
//! so no per-call copy or hash map of `Mi` is built. The literal
//! set-at-a-time transcription of the figure lives in `baselines::naive`
//! as the test oracle.

use crate::plan::{plan_chain, ExplainNode};
use crate::simple::map_index;
use crate::ExecConfig;
use gam::{GamError, GamRead, GamResult, MappingIndex, ObjectId, SourceId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// How per-target sub-mappings are combined into the view (paper §4.2:
/// "the mappings can be combined using the logical operators AND or OR").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Inner join: objects must relate to every target.
    And,
    /// Left outer join: objects keep NULL columns for missing targets.
    Or,
}

/// One target column of the requested view.
#[derive(Debug, Clone)]
pub struct TargetSpec {
    /// The target source `Ti`.
    pub target: SourceId,
    /// The relevant target objects `ti`; `None` covers all of `Ti`.
    pub objects: Option<BTreeSet<ObjectId>>,
    /// Whether this target's mapping is negated (`NOT`).
    pub negated: bool,
    /// Optional mapping path for Compose when no direct mapping exists.
    /// Must start at the view's source and end at `target`.
    pub path: Option<Vec<SourceId>>,
    /// Minimum effective evidence for associations to count (facts count
    /// as 1.0). Implements the paper's future-work direction of handling
    /// "mappings containing associations of reduced evidence": weak links
    /// neither produce rows nor block a negation.
    pub min_evidence: Option<f64>,
}

impl TargetSpec {
    /// A plain target covering all of its objects.
    pub fn all(target: SourceId) -> Self {
        TargetSpec {
            target,
            objects: None,
            negated: false,
            path: None,
            min_evidence: None,
        }
    }

    /// Restrict to a subset of target objects.
    pub fn restricted(target: SourceId, objects: BTreeSet<ObjectId>) -> Self {
        TargetSpec {
            target,
            objects: Some(objects),
            negated: false,
            path: None,
            min_evidence: None,
        }
    }

    /// Negate this target.
    pub fn negated(mut self) -> Self {
        self.negated = true;
        self
    }

    /// Use an explicit mapping path.
    pub fn via(mut self, path: Vec<SourceId>) -> Self {
        self.path = Some(path);
        self
    }

    /// Require a minimum effective evidence on this target's associations.
    pub fn min_evidence(mut self, threshold: f64) -> Self {
        self.min_evidence = Some(threshold);
        self
    }
}

/// A complete view request.
#[derive(Debug, Clone)]
pub struct ViewQuery {
    /// The source `S` to be annotated.
    pub source: SourceId,
    /// The relevant source objects `s`; `None` covers all of `S`.
    pub objects: Option<BTreeSet<ObjectId>>,
    /// The targets `T1..Tm`.
    pub targets: Vec<TargetSpec>,
    /// AND or OR combination.
    pub combine: Combine,
}

impl ViewQuery {
    /// A query over all objects of `source`, OR-combined.
    pub fn new(source: SourceId) -> Self {
        ViewQuery {
            source,
            objects: None,
            targets: Vec::new(),
            combine: Combine::Or,
        }
    }

    /// Add a target column.
    pub fn target(mut self, spec: TargetSpec) -> Self {
        self.targets.push(spec);
        self
    }

    /// Set the combine mode.
    pub fn combine(mut self, combine: Combine) -> Self {
        self.combine = combine;
        self
    }

    /// Restrict the source objects.
    pub fn objects(mut self, objects: BTreeSet<ObjectId>) -> Self {
        self.objects = Some(objects);
        self
    }
}

/// The materialized annotation view: one column for the source object and
/// one per target; rows are tuples of related object ids, with `None` for
/// missing (outer-joined or negated) annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationView {
    pub source: SourceId,
    pub targets: Vec<SourceId>,
    /// Rows of arity `1 + targets.len()`, in ascending order. Column 0 (the
    /// source object) is always `Some`.
    pub rows: ViewRows,
}

impl AnnotationView {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Distinct source objects appearing in the view.
    pub fn source_objects(&self) -> BTreeSet<ObjectId> {
        self.rows
            .iter()
            .filter_map(|r| r[0])
            .collect()
    }

    /// Distinct values of a target column (ignoring NULLs). Column index 0
    /// is the first target.
    pub fn target_objects(&self, column: usize) -> BTreeSet<ObjectId> {
        self.rows
            .iter()
            .filter_map(|r| r[column + 1])
            .collect()
    }
}

/// A view's rows as one row-major grid of cells, `arity` cells a row.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewRows {
    arity: usize,
    cells: Vec<Option<ObjectId>>,
}

impl ViewRows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cells.len() / self.arity
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The rows, in ascending order.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, Option<ObjectId>> {
        self.cells.chunks_exact(self.arity)
    }

    /// Every cell, row after row.
    pub fn cells(&self) -> &[Option<ObjectId>] {
        &self.cells
    }
}

/// How [`generate_view_idx`] obtains the CSR index of `Mi: S ↔ Ti` —
/// "using either the Map or Compose operation" (Figure 5) — for targets
/// without an explicit path. Implementations may search the source graph
/// for a mapping path, and can hand out shared, pre-built indexes behind
/// an [`Arc`]: the GenMapper system's versioned cache does exactly that,
/// so repeated views probe one immutable index.
pub trait IndexResolver {
    /// Produce the canonical index of the mapping oriented `from → to`.
    fn resolve_index(
        &self,
        store: &dyn GamRead,
        from: SourceId,
        to: SourceId,
    ) -> GamResult<Arc<MappingIndex>>;
}

/// One resolved target column in mini-CSR form: `keys` are the surviving
/// source objects (ascending), `offsets[i]..offsets[i + 1]` delimits key
/// `i`'s annotation values. A key with an empty bucket is an object
/// present with NULL (negation semantics) — distinct from an absent key,
/// which the AND fold drops.
struct TargetColumn {
    keys: Vec<ObjectId>,
    offsets: Vec<u32>,
    values: Vec<ObjectId>,
}

impl TargetColumn {
    fn get(&self, obj: ObjectId) -> Option<&[ObjectId]> {
        let i = self.keys.binary_search(&obj).ok()?;
        Some(&self.values[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }
}

/// Determine one target's `Mi: S → Ti` — "using either the Map or Compose
/// operation" (Figure 5). A target with an explicit path takes the direct
/// mapping when one exists and otherwise a planned Compose chain along the
/// path; any other target asks `resolver`. [`generate_view_idx`] and
/// [`explain_view`] both resolve targets here; `traced` also returns the
/// plan tree of what ran.
fn resolve_target_idx(
    store: &dyn GamRead,
    source: SourceId,
    spec: &TargetSpec,
    resolver: &dyn IndexResolver,
    traced: bool,
) -> GamResult<(Arc<MappingIndex>, Option<ExplainNode>)> {
    let leaf = |mi: &MappingIndex, how: &str| {
        traced.then(|| {
            let label = format!("map S{}→S{}{how}", source.raw(), spec.target.raw());
            ExplainNode::leaf(label, mi.len())
        })
    };
    let Some(path) = &spec.path else {
        let mi = resolver.resolve_index(store, source, spec.target)?;
        let node = leaf(&mi, " (resolver)");
        return Ok((mi, node));
    };
    match map_index(store, source, spec.target) {
        Ok(mi) => {
            let node = leaf(&mi, "");
            Ok((Arc::new(mi), node))
        }
        Err(GamError::NoMapping { .. }) => {
            let (mi, node) = plan_chain(store, path, None, traced)?;
            Ok((Arc::new(mi), node))
        }
        Err(e) => Err(e),
    }
}

/// Project a resolved `Mi` into its mini-CSR column over the source
/// objects `s` — everything in Figure 5 after "Determine mapping" and
/// before the AND/OR join fold. A surviving source object maps to its
/// annotation values (empty = object present with NULL, e.g. negation).
fn project_target_column(
    mi: &MappingIndex,
    spec: &TargetSpec,
    s: &BTreeSet<ObjectId>,
) -> GamResult<TargetColumn> {
    if let Some(threshold) = spec.min_evidence {
        crate::compose::check_floor(threshold)?;
    }
    // keep iff effective evidence clears the floor
    let keep = |pos: usize| match spec.min_evidence {
        Some(floor) => mi.effective_evidence_at(pos) >= floor,
        None => true,
    };
    let ti = spec.objects.as_ref();
    let mut keys = Vec::new();
    let mut offsets: Vec<u32> = Vec::new();
    let mut values: Vec<ObjectId> = Vec::new();
    if spec.negated {
        // sî = s \ Domain(RestrictRange(RestrictDomain(Mi, s), ti)); each
        // object of sî appears with its other (un-restricted) annotations
        // or an empty bucket (→ NULL row)
        for &obj in s {
            let start = values.len() as u32;
            let mut covered = false;
            if let Some(i) = mi.domain_bucket(obj) {
                covered = mi.fwd_range(i).any(|pos| {
                    keep(pos) && ti.is_none_or(|t| t.contains(&mi.to_at(pos)))
                });
                if !covered {
                    for pos in mi.fwd_range(i) {
                        if keep(pos) {
                            values.push(mi.to_at(pos));
                        }
                    }
                }
            }
            if !covered {
                keys.push(obj);
                offsets.push(start);
            }
        }
    } else {
        // mi = RestrictRange(RestrictDomain(Mi, s), ti)
        for &obj in s {
            if let Some(i) = mi.domain_bucket(obj) {
                let start = values.len() as u32;
                for pos in mi.fwd_range(i) {
                    if keep(pos) {
                        let to = mi.to_at(pos);
                        if ti.is_none_or(|t| t.contains(&to)) {
                            values.push(to);
                        }
                    }
                }
                if values.len() as u32 > start {
                    keys.push(obj);
                    offsets.push(start);
                }
            }
        }
    }
    offsets.push(values.len() as u32);
    Ok(TargetColumn {
        keys,
        offsets,
        values,
    })
}

/// `V = s`: the query's source objects, all of `S` when none are given.
fn view_sources(store: &dyn GamRead, query: &ViewQuery) -> GamResult<BTreeSet<ObjectId>> {
    match &query.objects {
        Some(set) => Ok(set.clone()),
        None => Ok(store.object_ids_of(query.source)?.into_iter().collect()),
    }
}

/// Execute `GenerateView` against a store, resolving mappings with
/// `resolver` (or along each target's explicit path when given).
///
/// Each target's Map/Compose + restrict pipeline runs in target order, so
/// the first failing target is the view's error; the AND/OR join then
/// makes one pass over the source objects. The [`ExecConfig`] argument
/// carries nothing.
pub fn generate_view_idx(
    store: &dyn GamRead,
    query: &ViewQuery,
    resolver: &dyn IndexResolver,
    _cfg: &ExecConfig,
) -> GamResult<AnnotationView> {
    let s = view_sources(store, query)?;
    let columns = query
        .targets
        .iter()
        .map(|spec| {
            let (mi, _) = resolve_target_idx(store, query.source, spec, resolver, false)?;
            project_target_column(&mi, spec, &s)
        })
        .collect::<GamResult<Vec<_>>>()?;
    Ok(fold_columns(&s, &columns, query))
}

/// Explain a view query: run it as [`generate_view_idx`] does — the same
/// per-target resolution, the same projection and fold, one target after
/// another and uncached where the resolution is a planned chain — and
/// return the plan tree with estimated vs actual cardinalities.
pub fn explain_view(
    store: &dyn GamRead,
    query: &ViewQuery,
    resolver: &dyn IndexResolver,
) -> GamResult<ExplainNode> {
    let s = view_sources(store, query)?;
    let mut children = Vec::with_capacity(query.targets.len());
    let mut columns = Vec::with_capacity(query.targets.len());
    for spec in &query.targets {
        let (mi, chain) = resolve_target_idx(store, query.source, spec, resolver, true)?;
        // Column estimate: covered source objects × average fanout.
        let st = mi.stats();
        let est = (s.len().min(st.domain_keys) as f64 * st.avg_fwd_fanout()).round() as u64;
        let column = project_target_column(&mi, spec, &s)?;
        let mut tags = Vec::new();
        if spec.negated {
            tags.push("NOT".to_string());
        }
        if let Some(f) = spec.min_evidence {
            tags.push(format!("floor≥{f}"));
        }
        let tag = if tags.is_empty() {
            String::new()
        } else {
            format!(" [{}]", tags.join(", "))
        };
        children.push(ExplainNode {
            label: format!("target S{}{}", spec.target.raw(), tag),
            strategy: None,
            estimated: Some(est),
            actual: Some(column.values.len() as u64),
            children: chain.into_iter().collect(),
        });
        columns.push(column);
    }
    let view = fold_columns(&s, &columns, query);
    let combine = match query.combine {
        Combine::And => "AND",
        Combine::Or => "OR",
    };
    Ok(ExplainNode {
        label: format!(
            "generate-view {} S{} over {} objects",
            combine,
            query.source.raw(),
            s.len()
        ),
        strategy: None,
        estimated: None,
        actual: Some(view.len() as u64),
        children,
    })
}

/// Figure 5's `V = V ⋈ mi` for every target at once: one pass over the
/// source objects `s`, ascending. Each object looks up its slice in every
/// column; AND drops it when a column lacks it, OR gives it an empty slice.
/// The cartesian product of the slices goes straight into the row-major
/// grid, the last column turning fastest, and an empty slice is one NULL
/// cell. Every slice is ascending and distinct and NULL only ever stands
/// alone in its column, so the rows come out sorted.
fn fold_columns(s: &BTreeSet<ObjectId>, columns: &[TargetColumn], query: &ViewQuery) -> AnnotationView {
    let arity = 1 + columns.len();
    let mut cells = Vec::with_capacity(s.len() * arity);
    let mut slices: Vec<&[ObjectId]> = Vec::with_capacity(columns.len());
    // odometer over the slice positions; it rolls back to all zeros after
    // each object's last row
    let mut digits = vec![0usize; columns.len()];
    'objects: for &obj in s {
        slices.clear();
        for column in columns {
            match column.get(obj) {
                Some(values) => slices.push(values),
                None if query.combine == Combine::And => continue 'objects,
                None => slices.push(&[]),
            }
        }
        let count: usize = slices.iter().map(|v| v.len().max(1)).product();
        for _ in 0..count {
            cells.push(Some(obj));
            cells.extend(slices.iter().zip(&digits).map(|(v, &d)| v.get(d).copied()));
            for (d, v) in digits.iter_mut().zip(&slices).rev() {
                *d += 1;
                if *d < v.len() {
                    break;
                }
                *d = 0;
            }
        }
    }
    let rows = ViewRows { arity, cells };
    debug_assert!(rows.iter().zip(rows.iter().skip(1)).all(|(a, b)| a < b));
    AnnotationView {
        source: query.source,
        targets: query.targets.iter().map(|t| t.target).collect(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gam::model::{RelType, SourceContent, SourceStructure};
    use gam::GamStore;

    /// Resolver that only retrieves directly stored mappings.
    struct Direct;

    impl IndexResolver for Direct {
        fn resolve_index(
            &self,
            store: &dyn GamRead,
            from: SourceId,
            to: SourceId,
        ) -> GamResult<Arc<MappingIndex>> {
            crate::simple::map_index(store, from, to).map(Arc::new)
        }
    }

    fn generate_view(store: &GamStore, query: &ViewQuery) -> GamResult<AnnotationView> {
        generate_view_idx(store, query, &Direct, &ExecConfig::sequential())
    }

    /// A view's rows as owned tuples.
    fn rows(view: &AnnotationView) -> Vec<Vec<Option<ObjectId>>> {
        view.rows.iter().map(<[_]>::to_vec).collect()
    }

    /// Fixture: loci annotated with GO terms and OMIM diseases.
    /// locus l0: go g0, omim o0
    /// locus l1: go g0, g1
    /// locus l2: omim o1
    /// locus l3: (nothing)
    struct Fix {
        store: GamStore,
        s: SourceId,
        go: SourceId,
        omim: SourceId,
        l: Vec<ObjectId>,
        g: Vec<ObjectId>,
        o: Vec<ObjectId>,
    }

    fn fix() -> Fix {
        let mut store = GamStore::in_memory().unwrap();
        let s = store
            .create_source("LocusLink", SourceContent::Gene, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let go = store
            .create_source("GO", SourceContent::Other, SourceStructure::Network, None)
            .unwrap()
            .id;
        let omim = store
            .create_source("OMIM", SourceContent::Other, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let l: Vec<ObjectId> = (0..4)
            .map(|i| store.create_object(s, &format!("l{i}"), None, None).unwrap())
            .collect();
        let g: Vec<ObjectId> = (0..2)
            .map(|i| store.create_object(go, &format!("g{i}"), None, None).unwrap())
            .collect();
        let o: Vec<ObjectId> = (0..2)
            .map(|i| store.create_object(omim, &format!("o{i}"), None, None).unwrap())
            .collect();
        let rgo = store.create_source_rel(s, go, RelType::Fact, None).unwrap();
        let rom = store.create_source_rel(s, omim, RelType::Fact, None).unwrap();
        store.add_association(rgo, l[0], g[0], None).unwrap();
        store.add_association(rgo, l[1], g[0], None).unwrap();
        store.add_association(rgo, l[1], g[1], None).unwrap();
        store.add_association(rom, l[0], o[0], None).unwrap();
        store.add_association(rom, l[2], o[1], None).unwrap();
        Fix {
            store,
            s,
            go,
            omim,
            l,
            g,
            o,
        }
    }

    #[test]
    fn empty_target_list_returns_source_subset() {
        let f = fix();
        let view = generate_view(&f.store, &ViewQuery::new(f.s)).unwrap();
        assert_eq!(view.len(), 4);
        assert_eq!(view.source_objects().len(), 4);
        // restricted
        let q = ViewQuery::new(f.s).objects([f.l[1], f.l[2]].into());
        let view = generate_view(&f.store, &q).unwrap();
        assert_eq!(view.source_objects(), [f.l[1], f.l[2]].into());
    }

    #[test]
    fn or_view_pads_missing_annotations() {
        let f = fix();
        let q = ViewQuery::new(f.s)
            .target(TargetSpec::all(f.go))
            .combine(Combine::Or);
        let view = generate_view(&f.store, &q).unwrap();
        // l0: 1 row, l1: 2 rows, l2: NULL row, l3: NULL row
        assert_eq!(view.len(), 5);
        assert!(rows(&view).contains(&vec![Some(f.l[2]), None]));
        assert!(rows(&view).contains(&vec![Some(f.l[3]), None]));
        assert!(rows(&view).contains(&vec![Some(f.l[1]), Some(f.g[1])]));
        assert_eq!(view.source_objects().len(), 4, "OR preserves all objects");
    }

    #[test]
    fn and_view_requires_all_targets() {
        let f = fix();
        let q = ViewQuery::new(f.s)
            .target(TargetSpec::all(f.go))
            .target(TargetSpec::all(f.omim))
            .combine(Combine::And);
        let view = generate_view(&f.store, &q).unwrap();
        // only l0 has both GO and OMIM annotations
        assert_eq!(view.source_objects(), [f.l[0]].into());
        assert_eq!(rows(&view), vec![vec![Some(f.l[0]), Some(f.g[0]), Some(f.o[0])]]);
    }

    #[test]
    fn and_is_subset_of_or() {
        let f = fix();
        let base = ViewQuery::new(f.s)
            .target(TargetSpec::all(f.go))
            .target(TargetSpec::all(f.omim));
        let and_view =
            generate_view(&f.store, &base.clone().combine(Combine::And)).unwrap();
        let or_view = generate_view(&f.store, &base.combine(Combine::Or)).unwrap();
        for row in and_view.rows.iter() {
            assert!(or_view.rows.iter().any(|r| r == row), "AND row {row:?} missing from OR");
        }
        assert!(or_view.source_objects().is_superset(&and_view.source_objects()));
    }

    #[test]
    fn restricted_target_subset() {
        let f = fix();
        // only GO term g1 is of interest
        let q = ViewQuery::new(f.s)
            .target(TargetSpec::restricted(f.go, [f.g[1]].into()))
            .combine(Combine::And);
        let view = generate_view(&f.store, &q).unwrap();
        assert_eq!(view.source_objects(), [f.l[1]].into());
    }

    #[test]
    fn negation_partitions_the_source() {
        let f = fix();
        // the paper's canonical query shape: loci NOT associated with OMIM
        let q = ViewQuery::new(f.s)
            .target(TargetSpec::all(f.omim).negated())
            .combine(Combine::And);
        let negated = generate_view(&f.store, &q).unwrap();
        assert_eq!(negated.source_objects(), [f.l[1], f.l[3]].into());
        // all negated rows carry NULL in the OMIM column
        assert!(negated.rows.iter().all(|r| r[1].is_none()));

        // positive counterpart
        let q = ViewQuery::new(f.s)
            .target(TargetSpec::all(f.omim))
            .combine(Combine::And);
        let positive = generate_view(&f.store, &q).unwrap();
        assert_eq!(positive.source_objects(), [f.l[0], f.l[2]].into());

        // together they partition s
        let union: BTreeSet<ObjectId> = negated
            .source_objects()
            .union(&positive.source_objects())
            .copied()
            .collect();
        assert_eq!(union.len(), 4);
        assert!(negated
            .source_objects()
            .is_disjoint(&positive.source_objects()));
    }

    #[test]
    fn negated_subset_shows_other_annotations() {
        let f = fix();
        // negate only disease o0: objects lacking o0, with their other
        // OMIM annotations preserved (the paper's right outer join)
        let q = ViewQuery::new(f.s)
            .target(TargetSpec::restricted(f.omim, [f.o[0]].into()).negated())
            .combine(Combine::And);
        let view = generate_view(&f.store, &q).unwrap();
        assert_eq!(view.source_objects(), [f.l[1], f.l[2], f.l[3]].into());
        // l2 lacks o0 but has o1, which the right outer join preserves
        assert!(rows(&view).contains(&vec![Some(f.l[2]), Some(f.o[1])]));
        assert!(rows(&view).contains(&vec![Some(f.l[1]), None]));
    }

    #[test]
    fn figure3_shape_multiple_targets_or() {
        // Figure 3 is an OR view over LocusLink with several annotation
        // columns; objects with several GO terms repeat with one row each.
        let f = fix();
        let q = ViewQuery::new(f.s)
            .objects([f.l[0], f.l[1]].into())
            .target(TargetSpec::all(f.go))
            .target(TargetSpec::all(f.omim))
            .combine(Combine::Or);
        let view = generate_view(&f.store, &q).unwrap();
        assert_eq!(view.targets, vec![f.go, f.omim]);
        // l0: (g0, o0); l1: (g0, NULL), (g1, NULL)
        assert_eq!(view.len(), 3);
        assert!(view.rows.iter().all(|r| r.len() == 3));
        assert_eq!(view.target_objects(0), [f.g[0], f.g[1]].into());
        assert_eq!(view.target_objects(1), [f.o[0]].into());
    }

    #[test]
    fn missing_mapping_propagates() {
        let mut f = fix();
        let lonely = f
            .store
            .create_source("Lonely", SourceContent::Other, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let q = ViewQuery::new(f.s).target(TargetSpec::all(lonely));
        assert!(generate_view(&f.store, &q).is_err());
    }

    #[test]
    fn evidence_threshold_filters_weak_links() {
        let mut f = fix();
        // add a scored similarity mapping LocusLink -> GO with one weak
        // and one strong association on locus l3 (otherwise unannotated)
        let sim = f
            .store
            .create_source_rel(f.s, f.go, RelType::Similarity, None)
            .unwrap();
        f.store.add_association(sim, f.l[3], f.g[0], Some(0.2)).unwrap();
        f.store.add_association(sim, f.l[3], f.g[1], Some(0.95)).unwrap();

        // without a threshold, both similarity links surface
        let q = ViewQuery::new(f.s)
            .objects([f.l[3]].into())
            .target(TargetSpec::all(f.go))
            .combine(Combine::And);
        let view = generate_view(&f.store, &q).unwrap();
        assert_eq!(view.len(), 2);

        // threshold 0.5 drops the weak link
        let q = ViewQuery::new(f.s)
            .objects([f.l[3]].into())
            .target(TargetSpec::all(f.go).min_evidence(0.5))
            .combine(Combine::And);
        let view = generate_view(&f.store, &q).unwrap();
        assert_eq!(rows(&view), vec![vec![Some(f.l[3]), Some(f.g[1])]]);

        // threshold above every link: the object no longer counts as
        // annotated, so the negated query now includes it
        let q = ViewQuery::new(f.s)
            .objects([f.l[3]].into())
            .target(TargetSpec::all(f.go).min_evidence(0.99).negated())
            .combine(Combine::And);
        let view = generate_view(&f.store, &q).unwrap();
        assert_eq!(view.source_objects(), [f.l[3]].into());

        // facts (evidence-free) always pass thresholds
        let q = ViewQuery::new(f.s)
            .objects([f.l[0]].into())
            .target(TargetSpec::all(f.go).min_evidence(0.99))
            .combine(Combine::And);
        let view = generate_view(&f.store, &q).unwrap();
        assert!(!view.is_empty());

        // invalid threshold is an error
        let q = ViewQuery::new(f.s).target(TargetSpec::all(f.go).min_evidence(1.5));
        assert!(generate_view(&f.store, &q).is_err());
    }

    #[test]
    fn errors_surface_in_target_order() {
        let mut f = fix();
        let lonely = f
            .store
            .create_source("Lonely", SourceContent::Other, SourceStructure::Flat, None)
            .unwrap()
            .id;
        // two failing targets: the reported error must name the first one
        // (an invalid threshold on GO)
        let q = ViewQuery::new(f.s)
            .target(TargetSpec::all(f.go).min_evidence(7.0))
            .target(TargetSpec::all(lonely));
        let err = generate_view(&f.store, &q).unwrap_err();
        assert!(matches!(err, gam::GamError::BadEvidence(_)), "{err}");
    }

    #[test]
    fn explicit_path_compose_in_view() {
        let mut f = fix();
        // add a second hop: OMIM -> Disease registry; view LocusLink ->
        // registry via the explicit path
        let reg = f
            .store
            .create_source("Registry", SourceContent::Other, SourceStructure::Flat, None)
            .unwrap()
            .id;
        let r0 = f.store.create_object(reg, "r0", None, None).unwrap();
        let rel = f
            .store
            .create_source_rel(f.omim, reg, RelType::Fact, None)
            .unwrap();
        f.store.add_association(rel, f.o[0], r0, None).unwrap();
        let q = ViewQuery::new(f.s)
            .target(TargetSpec::all(reg).via(vec![f.s, f.omim, reg]))
            .combine(Combine::And);
        let view = generate_view(&f.store, &q).unwrap();
        assert_eq!(rows(&view), vec![vec![Some(f.l[0]), Some(r0)]]);
    }

    /// Sources S, A, B, C: s0 relates to a0..a2, b0 and c0, c1 (fanouts
    /// 3 × 1 × 2); s1 only to a1. Associations go in out of order.
    fn fanout_fix() -> (GamStore, Vec<SourceId>, Vec<Vec<ObjectId>>) {
        let mut store = GamStore::in_memory().unwrap();
        let (mut ids, mut objs) = (Vec::new(), Vec::new());
        for (name, n) in [("S", 2), ("A", 3), ("B", 1), ("C", 2)] {
            let src = store
                .create_source(name, SourceContent::Other, SourceStructure::Flat, None)
                .unwrap()
                .id;
            let o: Vec<ObjectId> = (0..n)
                .map(|i| store.create_object(src, &format!("{name}{i}"), None, None).unwrap())
                .collect();
            ids.push(src);
            objs.push(o);
        }
        let pairs: [(usize, &[(usize, usize)]); 3] = [
            (1, &[(0, 2), (0, 0), (1, 1), (0, 1)]),
            (2, &[(0, 0)]),
            (3, &[(0, 1), (0, 0)]),
        ];
        for (t, links) in pairs {
            let rel = store.create_source_rel(ids[0], ids[t], RelType::Fact, None).unwrap();
            for &(from, to) in links {
                store.add_association(rel, objs[0][from], objs[t][to], None).unwrap();
            }
        }
        (store, ids, objs)
    }

    #[test]
    fn one_pass_fold_writes_the_cartesian_product_in_row_order() {
        let (store, ids, o) = fanout_fix();
        let q = ViewQuery::new(ids[0])
            .objects([o[0][0]].into())
            .target(TargetSpec::all(ids[1]))
            .target(TargetSpec::all(ids[2]))
            .target(TargetSpec::all(ids[3]))
            .combine(Combine::And);
        let view = generate_view(&store, &q).unwrap();
        let mut want = Vec::new();
        for &a in &o[1] {
            for &c in &o[3] {
                want.push(vec![Some(o[0][0]), Some(a), Some(o[2][0]), Some(c)]);
            }
        }
        // ascending as the fold wrote it: nothing sorts the grid afterwards
        assert!(want.is_sorted());
        assert_eq!(rows(&view), want);
        assert_eq!(view.len(), 6);
        assert_eq!(view.rows.cells().len(), 6 * 4);
    }

    #[test]
    fn and_drops_an_object_a_column_lacks_and_or_keeps_it_with_null() {
        let (store, ids, o) = fanout_fix();
        let base = ViewQuery::new(ids[0])
            .target(TargetSpec::all(ids[1]))
            .target(TargetSpec::all(ids[2]));
        let and = generate_view(&store, &base.clone().combine(Combine::And)).unwrap();
        assert_eq!(and.source_objects(), [o[0][0]].into());
        assert_eq!(and.len(), 3);
        let or = generate_view(&store, &base.combine(Combine::Or)).unwrap();
        let last = vec![Some(o[0][1]), Some(o[1][1]), None];
        assert_eq!(rows(&or).last(), Some(&last));
        assert_eq!(or.len(), 4);
    }

    #[test]
    fn negated_empty_bucket_is_a_null_cell_not_a_dropped_row() {
        let f = fix();
        // l1 has GO terms and no OMIM: its negated OMIM bucket is present
        // and empty, so AND keeps both of its GO rows with a NULL beside them
        let q = ViewQuery::new(f.s)
            .target(TargetSpec::all(f.go))
            .target(TargetSpec::all(f.omim).negated())
            .combine(Combine::And);
        let view = generate_view(&f.store, &q).unwrap();
        assert_eq!(
            rows(&view),
            vec![vec![Some(f.l[1]), Some(f.g[0]), None], vec![Some(f.l[1]), Some(f.g[1]), None]]
        );
    }

    #[test]
    fn zero_targets_give_the_source_subset_one_cell_a_row() {
        let f = fix();
        let q = ViewQuery::new(f.s).objects([f.l[2], f.l[1]].into()).combine(Combine::And);
        let view = generate_view(&f.store, &q).unwrap();
        assert_eq!(rows(&view), vec![vec![Some(f.l[1])], vec![Some(f.l[2])]]);
    }

    #[test]
    fn explain_counts_the_rows_the_view_has() {
        let f = fix();
        let queries = [
            ViewQuery::new(f.s).target(TargetSpec::all(f.go)).target(TargetSpec::all(f.omim)),
            ViewQuery::new(f.s)
                .target(TargetSpec::all(f.go))
                .target(TargetSpec::all(f.omim).negated())
                .combine(Combine::And),
            ViewQuery::new(f.s).combine(Combine::And),
        ];
        for q in &queries {
            let tree = explain_view(&f.store, q, &Direct).unwrap();
            let view = generate_view(&f.store, q).unwrap();
            assert_eq!(tree.actual, Some(view.rows.len() as u64), "{}", tree.render());
        }
    }

    /// `explain_view` resolves each target as `generate_view_idx` does, on
    /// its own: two targets whose explicit paths share the prefix S0→S1→S2
    /// each get exactly the tree a traced `plan_chain` along that path
    /// alone gives — nothing composed for one target is reused by another.
    #[test]
    fn explain_plans_each_target_path_alone() {
        let mut store = GamStore::in_memory().unwrap();
        let mut ids = Vec::new();
        let mut objs = Vec::new();
        for i in 0..4 {
            let s = store
                .create_source(&format!("S{i}"), SourceContent::Other, SourceStructure::Flat, None)
                .unwrap()
                .id;
            ids.push(s);
            let o: Vec<ObjectId> = (0..3)
                .map(|j| store.create_object(s, &format!("s{i}o{j}"), None, None).unwrap())
                .collect();
            objs.push(o);
        }
        for h in 0..3 {
            let rel = store
                .create_source_rel(ids[h], ids[h + 1], RelType::Similarity, None)
                .unwrap();
            for (&a, &b) in objs[h].iter().zip(&objs[h + 1]) {
                store.add_association(rel, a, b, Some(0.5)).unwrap();
            }
        }
        let paths = [ids.clone(), ids[..3].to_vec()];
        let q = ViewQuery::new(ids[0])
            .target(TargetSpec::all(ids[3]).via(paths[0].clone()))
            .target(TargetSpec::all(ids[2]).via(paths[1].clone()));
        let tree = explain_view(&store, &q, &Direct).unwrap();
        assert!(!tree.render().contains("(memo)"), "{}", tree.render());
        for (target, path) in tree.children.iter().zip(&paths) {
            let (_, alone) = plan_chain(&store, path, None, true).unwrap();
            assert_eq!(target.children, vec![alone.unwrap()], "{}", tree.render());
        }
        assert_eq!(tree.actual, Some(generate_view(&store, &q).unwrap().len() as u64));
    }
}
