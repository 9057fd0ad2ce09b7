//! The one equivalence suite for the one executor: `compose_idx*`,
//! `compose_path_idx*` and `generate_view_idx` against the deliberately
//! naive oracle in `baselines::naive` (nested-loop Compose, lazy left fold,
//! Figure 5 line by line), bit for bit — evidence is compared through
//! `f64::to_bits`, so a reassociated product, a sign-of-zero slip, or a
//! fact (`None`) turning into `Some(1.0)` fails. A seeded deterministic
//! sweep: a failure pins to a round number.
//!
//! What the executor is licensed to do differently from the oracle — pick
//! merge / gallop per join, push floors down, reorder fact chains, join
//! all of a view's targets in one pass over its source objects, load steps
//! eagerly — is exactly what each sweep arms.

use baselines::naive::{self, ViewTarget};
use gam::model::{SourceContent, SourceStructure};
use gam::{
    Association, GamCardinalities, GamError, GamObject, GamRead, GamResult, GamStore, Mapping,
    MappingIndex, ObjectId, RelType, Source, SourceId, SourceRel, SourceRelId,
};
use operators::plan::cost::{choose_strategy, JoinStrategy};
use operators::{
    compose_idx, compose_path_idx, compose_path_idx_with_threshold,
    generate_view_idx, map_index, Combine, ExecConfig, IndexResolver, TargetSpec, ViewQuery,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use testkit::Prng;

const FLOORS: [Option<f64>; 4] = [None, Some(0.0), Some(0.5), Some(1.0)];
const BAD_FLOORS: [f64; 3] = [f64::NAN, -0.1, 1.1];

/// A valid floor: the fixed grid, or now and then a random one.
fn floor(st: &mut Prng) -> Option<f64> {
    match st.below(6) {
        k @ 0..=3 => FLOORS[k],
        _ => Some(st.below(1001) as f64 / 1000.0),
    }
}

/// Evidence from a pool heavy on collisions: facts, an explicit 1.0 (ties
/// with a fact's effective evidence), 0.0, and a coarse grid so duplicate
/// derivations of one pair often tie or straddle a floor.
fn evidence(st: &mut Prng, facts_only: bool) -> Option<f64> {
    if facts_only {
        return None;
    }
    match st.below(8) {
        0 | 1 => None,
        2 => Some(1.0),
        3 => Some(0.0),
        4 => Some(0.5),
        _ => Some(st.below(1001) as f64 / 1000.0),
    }
}

fn bits(m: &Mapping) -> Vec<(ObjectId, ObjectId, Option<u64>)> {
    m.pairs
        .iter()
        .map(|a| (a.from, a.to, a.evidence.map(f64::to_bits)))
        .collect()
}

/// Header and association bits of a mapping, the unit of comparison.
type MappingBits = (
    SourceId,
    SourceId,
    RelType,
    Vec<(ObjectId, ObjectId, Option<u64>)>,
);

/// Results compare as values: equal output, or the same error text.
fn index_bits(r: GamResult<MappingIndex>) -> Result<MappingBits, String> {
    r.map(|i| (i.from, i.to, i.rel_type, bits(&i.to_mapping())))
        .map_err(|e| e.to_string())
}

fn mapping_bits(r: GamResult<Mapping>) -> Result<MappingBits, String> {
    r.map(|m| (m.from, m.to, m.rel_type, bits(&m)))
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Single joins
// ---------------------------------------------------------------------

/// A random mapping `from → to` of up to `n` pairs over the given key
/// spaces; `wild` mixes in evidence above 1.0, which no store accepts but
/// an in-memory index can carry.
fn random_mapping(
    st: &mut Prng,
    from: u32,
    to: u32,
    n: usize,
    dom: u64,
    rng: u64,
    wild: bool,
) -> Mapping {
    let facts_only = st.below(5) == 0;
    let pairs = (0..n)
        .map(|_| Association {
            from: ObjectId(st.gen_range(0..dom)),
            to: ObjectId(st.gen_range(0..rng)),
            evidence: match st.below(6) {
                0 if wild => Some(1.5),
                _ => evidence(st, facts_only),
            },
        })
        .collect();
    Mapping {
        from: SourceId(from),
        to: SourceId(to),
        rel_type: RelType::Similarity,
        pairs,
    }
}

fn check_join(l: &MappingIndex, r: &MappingIndex, floor: Option<f64>, ctx: &str) {
    let (lm, rm) = (l.to_mapping(), r.to_mapping());
    let want = mapping_bits(naive::compose(&lm, &rm, floor));
    let got = compose_idx(l, r, floor);
    assert_eq!(index_bits(got), want, "{ctx} floor={floor:?}");
}

#[test]
fn joins_match_the_nested_loop() {
    let mut st = Prng::seed_from_u64(0x9E37_79B9_7F4A_7C15);
    // (left pairs, right pairs, left domain, middle, right range): empty,
    // 1:1, balanced, dense, and a many-keyed side against a few-keyed one
    // in both directions (arming each gallop flag)
    let shapes: [(usize, usize, u64, u64, u64); 6] = [
        (0, 0, 4, 4, 4),
        (1, 1, 1, 1, 1),
        (120, 120, 30, 20, 30),
        (300, 300, 8, 5, 8),
        (400, 6, 50, 300, 8),
        (6, 400, 8, 300, 50),
    ];
    let mut strategies = Vec::new();
    for round in 0..48 {
        let (nl, nr, ld, mid, rr) = shapes[round % shapes.len()];
        let wild = round % 4 == 3;
        let l = MappingIndex::build(random_mapping(&mut st, 1, 2, nl, ld, mid, wild));
        let r = MappingIndex::build(random_mapping(&mut st, 2, 3, nr, mid, rr, wild));
        strategies.push(choose_strategy(l.stats(), r.stats()));
        let f = floor(&mut st);
        check_join(&l, &r, f, &format!("round {round}"));
        for bad in BAD_FLOORS {
            check_join(&l, &r, Some(bad), &format!("round {round}"));
            let got = compose_idx(&l, &r, Some(bad));
            assert!(
                matches!(got, Err(GamError::BadEvidence(_))),
                "round {round} floor {bad}"
            );
        }
    }
    // the shapes above reach every strategy
    for want in [
        JoinStrategy::Merge,
        JoinStrategy::Gallop {
            left: true,
            right: false,
        },
        JoinStrategy::Gallop {
            left: false,
            right: true,
        },
    ] {
        assert!(strategies.contains(&want), "{want:?} never chosen");
    }
    // operands that share no middle source are refused alike
    let l = MappingIndex::build(random_mapping(&mut st, 1, 2, 10, 4, 4, false));
    let r = MappingIndex::build(random_mapping(&mut st, 3, 4, 10, 4, 4, false));
    check_join(&l, &r, None, "mismatched sources");
}

#[test]
fn a_large_join_matches_the_nested_loop() {
    let mut st = Prng::seed_from_u64(0x5DEE_CE66_D1CE_CAFE);
    let n = 8_992;
    let l = MappingIndex::build(random_mapping(&mut st, 1, 2, n * 2, 4000, 3000, false));
    let r = MappingIndex::build(random_mapping(&mut st, 2, 3, 2500, 3000, 500, false));
    for f in [None, Some(0.5)] {
        check_join(&l, &r, f, "big join");
    }
}

/// The index primitives the executor probes — Domain, Range, the two
/// restrictions and the evidence filter — equal the flat `Mapping`
/// definitions (paper Table 2) on the same canonical pairs.
#[test]
fn index_restrictions_match_the_flat_mapping() {
    let mut st = Prng::seed_from_u64(0x7AB1_E200_7AB1_E200);
    for round in 0..40 {
        let (dom, rng) = [(1, 1), (40, 40), (3, 120), (120, 3)][round % 4];
        let n = st.below(300);
        let idx = MappingIndex::build(random_mapping(&mut st, 1, 2, n, dom, rng, false));
        let flat = idx.to_mapping();
        assert_eq!(
            bits(&MappingIndex::build(flat.clone()).to_mapping()),
            bits(&flat),
            "round {round}"
        );
        assert_eq!(
            (idx.domain(), idx.range(), idx.len()),
            (flat.domain(), flat.range(), flat.len())
        );
        let picks: BTreeSet<ObjectId> =
            (0..40).map(|_| ObjectId(st.gen_range(0..130))).collect();
        for subset in [&picks, &flat.domain(), &flat.range()] {
            assert_eq!(
                bits(&idx.restrict_domain(subset)),
                bits(&flat.restrict_domain(subset)),
                "round {round}"
            );
            assert_eq!(
                bits(&idx.restrict_range(subset)),
                bits(&flat.restrict_range(subset)),
                "round {round}"
            );
        }
        let f = st.below(1001) as f64 / 1000.0;
        let mut kept = flat.clone();
        kept.pairs.retain(|a| a.effective_evidence() >= f);
        assert_eq!(
            bits(&idx.filter_evidence(f).to_mapping()),
            bits(&kept),
            "round {round} floor {f}"
        );
    }
}

// ---------------------------------------------------------------------
// Chains through a real store
// ---------------------------------------------------------------------

struct Chain {
    store: GamStore,
    ids: Vec<SourceId>,
    objs: Vec<Vec<ObjectId>>,
}

/// A store holding the sources `S0..Sn` with `width` objects each, and no
/// mapping yet.
fn chain_sources(sources: usize, width: usize) -> Chain {
    let mut store = GamStore::in_memory().unwrap();
    let mut ids = Vec::new();
    let mut objs = Vec::new();
    for i in 0..sources {
        let s = store
            .create_source(
                &format!("S{i}"),
                SourceContent::Other,
                SourceStructure::Flat,
                None,
            )
            .unwrap()
            .id;
        ids.push(s);
        objs.push(
            (0..width)
                .map(|j| {
                    store
                        .create_object(s, &format!("s{i}o{j}"), None, None)
                        .unwrap()
                })
                .collect::<Vec<_>>(),
        );
    }
    Chain { store, ids, objs }
}

/// Store `edges` (object indexes into sources `a` and `b`) as one mapping
/// between them, in the given orientation.
fn add_hop(
    c: &mut Chain,
    a: usize,
    b: usize,
    edges: &BTreeMap<(usize, usize), Option<f64>>,
    reversed: bool,
    ty: RelType,
) {
    let (from, to) = if reversed { (b, a) } else { (a, b) };
    let rel = c
        .store
        .create_source_rel(c.ids[from], c.ids[to], ty, None)
        .unwrap();
    let assocs: Vec<Association> = edges
        .iter()
        .map(|(&(i, j), &evidence)| {
            let (x, y) = (c.objs[a][i], c.objs[b][j]);
            let (from, to) = if reversed { (y, x) } else { (x, y) };
            Association { from, to, evidence }
        })
        .collect();
    let mut added = 0;
    c.store
        .add_associations_bulk(assocs.into_iter().map(|a| (rel, a)), &mut added)
        .unwrap();
}

fn random_edges(
    st: &mut Prng,
    n: usize,
    width: usize,
    facts_only: bool,
) -> BTreeMap<(usize, usize), Option<f64>> {
    (0..n)
        .map(|_| {
            (
                (st.below(width), st.below(width)),
                evidence(st, facts_only),
            )
        })
        .collect()
}

/// A random chain of `sources` sources. Hops are sometimes stored against
/// the chain's direction (Map must invert them) and sometimes split over
/// two stored mappings with overlapping pairs (Map must merge them);
/// sparse hops make chains that empty half way reachable.
fn random_chain(st: &mut Prng, sources: usize, width: usize, facts_only: bool) -> Chain {
    let mut c = chain_sources(sources, width);
    for h in 0..sources - 1 {
        let n = match st.below(6) {
            0 => 0,
            1 => 2,
            _ => width + st.below(3 * width),
        };
        let edges = random_edges(st, n, width, facts_only);
        add_hop(
            &mut c,
            h,
            h + 1,
            &edges,
            st.below(4) == 0,
            RelType::Similarity,
        );
        if st.below(4) == 0 {
            let extra = random_edges(st, width, width, true);
            add_hop(&mut c, h, h + 1, &extra, st.gen_bool(0.5), RelType::Fact);
        }
    }
    c
}

fn check_chain(store: &dyn GamRead, path: &[SourceId], floor: Option<f64>, ctx: &str) {
    let want = mapping_bits(naive::compose_path(store, path, floor));
    let got = match floor {
        None => compose_path_idx(store, path, &ExecConfig::sequential()),
        Some(f) => compose_path_idx_with_threshold(store, path, f),
    };
    assert_eq!(index_bits(got), want, "{ctx} floor={floor:?}");
}

#[test]
fn chains_match_the_lazy_left_fold() {
    let mut st = Prng::seed_from_u64(0x0DDB_1A5E_5BAD_5EED);
    for round in 0..60 {
        // 1 hop (plain Map) now and then, otherwise 2–6 hops
        let sources = if round % 10 == 0 {
            2
        } else {
            3 + st.below(5)
        };
        // all-fact chains of 3+ steps arm the reordering rewrite
        let facts_only = st.below(3) == 0;
        let c = random_chain(&mut st, sources, 6, facts_only);
        let ctx = format!("round {round} sources={sources} facts_only={facts_only}");
        for f in FLOORS.into_iter().chain([floor(&mut st)]) {
            check_chain(&c.store, &c.ids, f, &ctx);
        }
        // every prefix is a chain too, down to the too-short ones
        for k in 0..sources {
            check_chain(&c.store, &c.ids[..k], None, &format!("{ctx} prefix {k}"));
        }
        for bad in BAD_FLOORS {
            check_chain(&c.store, &c.ids, Some(bad), &ctx);
            // the floor is judged before the path
            check_chain(&c.store, &c.ids[..1], Some(bad), &ctx);
            let got = compose_path_idx_with_threshold(&c.store, &c.ids[..1], bad);
            assert!(
                matches!(got, Err(GamError::BadEvidence(_))),
                "{ctx} floor {bad}"
            );
        }
    }
}

/// A three-source chain with a first hop of some 16 000 associations.
fn big_chain(st: &mut Prng) -> Chain {
    let width = 3000;
    let mut c = chain_sources(3, width);
    let first = random_edges(st, 16_384, width, false);
    add_hop(&mut c, 0, 1, &first, false, RelType::Similarity);
    let second = random_edges(st, 2000, width, false);
    add_hop(&mut c, 1, 2, &second, false, RelType::Similarity);
    c
}

#[test]
fn a_large_chain_and_its_view_match() {
    let mut st = Prng::seed_from_u64(0x0B16_C4A1_4B16_C4A1);
    let c = big_chain(&mut st);
    // floor 0.5 is pushed down: the join then sees filtered steps
    for f in [None, Some(0.5)] {
        check_chain(&c.store, &c.ids, f, "big chain");
    }
    let q = ViewQuery::new(c.ids[0]).target(TargetSpec::all(c.ids[2]).via(c.ids.clone()));
    check_view(&c.store, &q, "big chain view");
}

// ---------------------------------------------------------------------
// The step-load-failure fallback
// ---------------------------------------------------------------------

/// A 4-hop chain whose hop `missing` has no stored mapping and, when
/// `severed` names a hop, whose hop `severed` shares no object with the
/// one before it — so the fold's accumulator empties there.
fn chain_with_gap(missing: usize, severed: Option<usize>, scored: bool) -> Chain {
    let width = 4;
    let mut c = chain_sources(5, width);
    for h in (0..4).filter(|&h| h != missing) {
        // hops map object i to i (and i+1); a severed hop leaves from
        // object 3 only, which the hop before it never reaches
        let mut edges = BTreeMap::new();
        let e = scored.then_some(0.9);
        if severed == Some(h) {
            edges.insert((3, 0), e);
        } else {
            for i in 0..2 {
                edges.insert((i, i), e);
                edges.insert((i, i + 1), e);
            }
        }
        add_hop(&mut c, h, h + 1, &edges, false, RelType::Similarity);
    }
    c
}

#[test]
fn missing_step_is_an_error_only_if_the_fold_reaches_it() {
    for missing in 0..4 {
        // the fold always loads steps 0 and 1; from step 2 on, a hop
        // severed earlier empties the chain before the gap is seen
        let severable: Vec<Option<usize>> = std::iter::once(None)
            .chain((1..missing).map(Some))
            .collect();
        for severed in severable {
            for scored in [false, true] {
                let c = chain_with_gap(missing, severed, scored);
                let ctx = format!("missing={missing} severed={severed:?} scored={scored}");
                for f in [None, Some(0.5)] {
                    check_chain(&c.store, &c.ids, f, &ctx);
                }
                let got = compose_path_idx(&c.store, &c.ids, &ExecConfig::sequential());
                match severed {
                    Some(_) => {
                        let idx = got.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert!(idx.is_empty(), "{ctx}");
                        assert_eq!(
                            (idx.from, idx.to, idx.rel_type),
                            (c.ids[0], c.ids[4], RelType::Composed),
                            "{ctx}"
                        );
                    }
                    None => match got {
                        Err(GamError::NoMapping { from, to }) => {
                            assert_eq!((from, to), (c.ids[missing], c.ids[missing + 1]), "{ctx}")
                        }
                        other => panic!("{ctx}: expected NoMapping, got {other:?}"),
                    },
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------

/// Resolver that only retrieves directly stored mappings.
struct Direct;

impl IndexResolver for Direct {
    fn resolve_index(
        &self,
        store: &dyn GamRead,
        from: SourceId,
        to: SourceId,
    ) -> GamResult<Arc<MappingIndex>> {
        map_index(store, from, to).map(Arc::new)
    }
}

/// Figure 5 through the oracle: each `Mi` is Map, or Compose along the
/// target's explicit path when no direct mapping exists.
fn oracle_view(store: &dyn GamRead, q: &ViewQuery) -> GamResult<Vec<Vec<Option<ObjectId>>>> {
    let s: BTreeSet<ObjectId> = match &q.objects {
        Some(set) => set.clone(),
        None => store.object_ids_of(q.source)?.into_iter().collect(),
    };
    let targets = q.targets.iter().map(|spec| {
        let mapping = match (naive::map(store, q.source, spec.target), &spec.path) {
            (Err(GamError::NoMapping { .. }), Some(path)) => {
                naive::compose_path(store, path, None)?
            }
            (direct, _) => direct?,
        };
        Ok(ViewTarget {
            mapping,
            objects: spec.objects.clone(),
            negated: spec.negated,
            min_evidence: spec.min_evidence,
        })
    });
    naive::generate_view(&s, targets, q.combine == Combine::And)
}

fn check_view(store: &dyn GamRead, q: &ViewQuery, ctx: &str) {
    let want = oracle_view(store, q).map_err(|e| e.to_string());
    let got = generate_view_idx(store, q, &Direct, &ExecConfig::sequential())
        .map(|v| {
            assert_eq!(v.source, q.source);
            assert_eq!(
                v.targets,
                q.targets.iter().map(|t| t.target).collect::<Vec<_>>()
            );
            v.rows.iter().map(<[_]>::to_vec).collect::<Vec<_>>()
        })
        .map_err(|e| e.to_string());
    assert_eq!(got, want, "{ctx}");
}

fn random_subset(st: &mut Prng, objs: &[ObjectId]) -> BTreeSet<ObjectId> {
    objs.iter().copied().filter(|_| st.below(3) > 0).collect()
}

/// Decorate a target with random negation, floor and object restriction.
fn decorate(st: &mut Prng, mut spec: TargetSpec, objs: &[ObjectId]) -> TargetSpec {
    if st.below(3) == 0 {
        spec = spec.negated();
    }
    if let Some(f) = floor(st) {
        spec = spec.min_evidence(f);
    }
    if st.below(3) == 0 {
        spec.objects = Some(random_subset(st, objs));
    }
    spec
}

#[test]
fn views_match_figure_5() {
    let mut st = Prng::seed_from_u64(0x0F16_0005_0F16_0005);
    for round in 0..60 {
        let sources = 3 + st.below(4);
        let facts_only = st.below(3) == 0;
        let c = random_chain(&mut st, sources, 6, facts_only);
        let n = sources;
        // deep walks the whole chain; mid and (with 4+ sources) short stop
        // earlier on the same path, each target composing its own prefix;
        // direct has no path and goes through the resolver
        let mut q = ViewQuery::new(c.ids[0]);
        let deep = TargetSpec::all(c.ids[n - 1]).via(c.ids.clone());
        q = q.target(decorate(&mut st, deep, &c.objs[n - 1]));
        let mid = TargetSpec::all(c.ids[n - 2]).via(c.ids[..n - 1].to_vec());
        q = q.target(decorate(&mut st, mid, &c.objs[n - 2]));
        if n >= 4 && st.gen_bool(0.5) {
            let short = TargetSpec::all(c.ids[n - 3]).via(c.ids[..n - 2].to_vec());
            q = q.target(decorate(&mut st, short, &c.objs[n - 3]));
        }
        if st.gen_bool(0.5) {
            q = q.target(decorate(&mut st, TargetSpec::all(c.ids[1]), &c.objs[1]));
        }
        if st.gen_bool(0.5) {
            q = q.combine(Combine::And);
        }
        if st.below(3) == 0 {
            q = q.objects(random_subset(&mut st, &c.objs[0]));
        }
        let ctx = format!("round {round} sources={sources} facts_only={facts_only} {q:?}");
        check_view(&c.store, &q, &ctx);

        // a bad floor on one target is that target's error — unless an
        // earlier target already failed
        let mut bad = q.clone();
        let k = st.below(bad.targets.len());
        bad.targets[k].min_evidence = Some(BAD_FLOORS[round % 3]);
        check_view(&c.store, &bad, &format!("{ctx} bad floor on target {k}"));
        if k > 0 {
            // S0 has no mapping to itself: target 0 now fails first
            bad.targets[0] = TargetSpec::all(c.ids[0]);
            let err = generate_view_idx(&c.store, &bad, &Direct, &ExecConfig::sequential())
                .unwrap_err();
            assert!(matches!(err, GamError::NoMapping { .. }), "{ctx}: {err}");
            check_view(&c.store, &bad, &format!("{ctx} two failing targets"));
        }
    }
    // no targets at all: the view is the source subset
    let c = random_chain(&mut st, 3, 6, false);
    check_view(&c.store, &ViewQuery::new(c.ids[0]), "no targets");
}

// ---------------------------------------------------------------------
// Evidence no store accepts
// ---------------------------------------------------------------------

/// A `GamRead` over hand-written mappings, so chains can carry evidence
/// outside `[0, 1]` — which `GamStore` refuses on insert but the planner
/// still guards against: pushing a floor beneath the joins is only sound
/// while products can only shrink.
struct Mappings(Vec<Mapping>);

impl Mappings {
    fn rel(&self, i: usize) -> SourceRel {
        SourceRel {
            id: SourceRelId(i as u32),
            source1: self.0[i].from,
            source2: self.0[i].to,
            rel_type: self.0[i].rel_type,
            derivation: None,
        }
    }

    fn mapping(&self, id: SourceRelId) -> GamResult<&Mapping> {
        let missing = || GamError::Invalid(format!("no mapping {id}"));
        self.0.get(id.0 as usize).ok_or_else(missing)
    }
}

fn unused<T>() -> GamResult<T> {
    Err(GamError::Invalid(
        "not part of the mapping algebra's read path".into(),
    ))
}

impl GamRead for Mappings {
    fn source_rels_between(
        &self,
        source1: SourceId,
        source2: SourceId,
    ) -> GamResult<Vec<SourceRel>> {
        Ok((0..self.0.len())
            .map(|i| self.rel(i))
            .filter(|r| (r.source1, r.source2) == (source1, source2))
            .collect())
    }
    fn load_mapping(&self, id: SourceRelId) -> GamResult<Mapping> {
        self.mapping(id).cloned()
    }
    fn load_mapping_index(&self, id: SourceRelId) -> GamResult<MappingIndex> {
        self.mapping(id).cloned().map(MappingIndex::build)
    }
    fn sources(&self) -> GamResult<Vec<Source>> {
        unused()
    }
    fn find_source(&self, _: &str) -> GamResult<Option<Source>> {
        unused()
    }
    fn get_source(&self, _: SourceId) -> GamResult<Source> {
        unused()
    }
    fn objects_of(&self, _: SourceId) -> GamResult<Vec<GamObject>> {
        unused()
    }
    fn object_ids_of(&self, _: SourceId) -> GamResult<Vec<ObjectId>> {
        unused()
    }
    fn object_count(&self, _: SourceId) -> GamResult<usize> {
        unused()
    }
    fn find_object(&self, _: SourceId, _: &str) -> GamResult<Option<GamObject>> {
        unused()
    }
    fn get_object(&self, _: ObjectId) -> GamResult<GamObject> {
        unused()
    }
    fn resolve_accessions(&self, _: SourceId, _: &[&str]) -> GamResult<Vec<Option<ObjectId>>> {
        unused()
    }
    fn source_rels(&self) -> GamResult<Vec<SourceRel>> {
        unused()
    }
    fn get_source_rel(&self, _: SourceRelId) -> GamResult<SourceRel> {
        unused()
    }
    fn association_count(&self, _: SourceRelId) -> GamResult<usize> {
        unused()
    }
    fn associations_of_object(&self, _: ObjectId) -> GamResult<Vec<(SourceRelId, Association)>> {
        unused()
    }
    fn object_counts_per_source(&self) -> GamResult<Vec<(SourceId, usize)>> {
        unused()
    }
    fn mapping_type_counts(&self) -> GamResult<Vec<(RelType, usize, usize)>> {
        unused()
    }
    fn cardinalities(&self) -> GamResult<GamCardinalities> {
        unused()
    }
}

#[test]
fn floors_follow_the_fold_when_evidence_exceeds_one() {
    let m = |from: u32, to: u32, pairs: &[(u64, u64, Option<f64>)]| Mapping {
        from: SourceId(from),
        to: SourceId(to),
        rel_type: RelType::Similarity,
        pairs: pairs
            .iter()
            .map(|&(f, t, evidence)| Association {
                from: ObjectId(f),
                to: ObjectId(t),
                evidence,
            })
            .collect(),
    };
    let path = [SourceId(1), SourceId(2), SourceId(3)];
    // 1.5 × 0.4 = 0.6 clears the floor although the second step alone
    // does not: pushing the floor beneath the join would lose the pair
    let rises = Mappings(vec![
        m(1, 2, &[(1, 10, Some(1.5))]),
        m(2, 3, &[(10, 20, Some(0.4))]),
    ]);
    check_chain(&rises, &path, Some(0.5), "rises above the floor");
    let got =
        compose_path_idx_with_threshold(&rises, &path, 0.5).unwrap();
    assert_eq!(
        got.to_mapping().pairs,
        vec![Association::scored(ObjectId(1), ObjectId(20), 1.5 * 0.4)]
    );
    // 0.4 × 1.5 = 0.6 too, but the fold floors its first step: applying
    // the floor only to the finished chain would keep the pair
    let sinks = Mappings(vec![
        m(1, 2, &[(1, 10, Some(0.4))]),
        m(2, 3, &[(10, 20, Some(1.5))]),
    ]);
    check_chain(&sinks, &path, Some(0.5), "below the floor at step one");
    let got =
        compose_path_idx_with_threshold(&sinks, &path, 0.5).unwrap();
    assert!(got.is_empty());

    let mut st = Prng::seed_from_u64(0x0E11_DE2C_E0FF_1CE5);
    for round in 0..40 {
        let hops = 2 + st.below(3);
        let steps: Vec<Mapping> = (0..hops)
            .map(|h| random_mapping(&mut st, h as u32 + 1, h as u32 + 2, 14, 5, 5, true))
            .collect();
        let path: Vec<SourceId> = (1..=hops as u32 + 1).map(SourceId).collect();
        let reader = Mappings(steps);
        for f in FLOORS.into_iter().chain([floor(&mut st)]) {
            check_chain(&reader, &path, f, &format!("wild round {round}"));
        }
    }
}
