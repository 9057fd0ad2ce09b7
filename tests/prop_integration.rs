//! Seeded integration sweeps over randomly-shaped ecosystems.

use gam::model::RelType;
use gam::GamRead;
use genmapper::{GenMapper, QuerySpec, TargetQuery};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use sources::universe::UniverseParams;
use std::collections::BTreeSet;
use testkit::{cases, Prng};

fn params(rng: &mut Prng) -> EcosystemParams {
    EcosystemParams {
        universe: UniverseParams {
            seed: rng.gen_range(1..1_000),
            n_loci: rng.gen_range(40..120),
            n_go_terms: rng.gen_range(20..60),
            n_enzymes: 15,
            n_omim: 12,
            n_interpro: 15,
            probesets_per_locus: 1.2,
            protein_fraction: 0.6,
        },
        n_satellites: rng.gen_range(1..4),
        satellite_objects: 15,
        satellite_links: 2,
        satellite_hubs: 2,
        satellite_scored_fraction: 0.3,
    }
}

/// The whole pipeline holds its invariants on arbitrary ecosystem
/// shapes: idempotent re-import, consistent mapping endpoints,
/// AND ⊆ OR, negation partitions, inverse symmetry of Map.
#[test]
fn pipeline_invariants() {
    cases(12, |rng| {
        let eco = Ecosystem::generate(params(rng));
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        let cards = gm.cardinalities().unwrap();
        assert!(cards.sources >= 10);
        assert!(cards.objects > 0);

        // idempotence
        let again = gm.import_dumps(&eco.dumps).unwrap();
        assert!(again.iter().all(|r| r.skipped));
        assert_eq!(gm.cardinalities().unwrap(), cards);

        // Map is symmetric under inversion
        let fwd = gm.map("LocusLink", "GO").unwrap();
        let back = gm.map("GO", "LocusLink").unwrap();
        assert_eq!(fwd.len(), back.len());
        let fwd_pairs: BTreeSet<_> = fwd.iter().map(|p| (p.from, p.to)).collect();
        let back_pairs: BTreeSet<_> = back.iter().map(|p| (p.to, p.from)).collect();
        assert_eq!(fwd_pairs, back_pairs);

        // AND ⊆ OR on a two-target view
        let base = QuerySpec::source("LocusLink").target("GO").target("OMIM");
        let and_view = gm.query(&base.clone().and()).unwrap();
        let or_view = gm.query(&base.or()).unwrap();
        let and_objs: BTreeSet<String> = and_view.rows().filter_map(|r| r.cell_text(0).map(str::to_owned)).collect();
        let or_objs: BTreeSet<String> = or_view.rows().filter_map(|r| r.cell_text(0).map(str::to_owned)).collect();
        assert!(and_objs.is_subset(&or_objs));
        assert_eq!(or_objs.len(), eco.universe.loci.len(), "OR covers the whole source");

        // negation partitions
        let with = gm.query(&QuerySpec::source("LocusLink").target("OMIM").and()).unwrap();
        let without = gm.query(&QuerySpec::source("LocusLink")
            .target_spec(TargetQuery::new("OMIM").negated()).and()).unwrap();
        let with_set: BTreeSet<String> = with.rows().filter_map(|r| r.cell_text(0).map(str::to_owned)).collect();
        let without_set: BTreeSet<String> = without.rows().filter_map(|r| r.cell_text(0).map(str::to_owned)).collect();
        assert!(with_set.is_disjoint(&without_set));
        assert_eq!(with_set.len() + without_set.len(), eco.universe.loci.len());
    });
}

/// Composition along the canonical path equals ground truth derived
/// from the universe directly, for every cluster.
#[test]
fn compose_matches_ground_truth() {
    cases(12, |rng| {
        let eco = Ecosystem::generate(params(rng));
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        let composed = gm.compose(&["Unigene", "LocusLink", "GO"], None).unwrap();
        let ug = gm.source_id("Unigene").unwrap();
        // build expected pairs from the universe
        let mut expected: BTreeSet<(String, String)> = BTreeSet::new();
        for cluster in &eco.universe.unigene {
            for &l in &cluster.loci {
                for &t in &eco.universe.loci[l].go_terms {
                    expected.insert((cluster.acc.clone(), eco.universe.go_terms[t].acc.clone()));
                }
            }
        }
        let mut got: BTreeSet<(String, String)> = BTreeSet::new();
        for p in composed.iter() {
            let from = gm.store().get_object(p.from).unwrap();
            let to = gm.store().get_object(p.to).unwrap();
            assert_eq!(from.source, ug);
            got.insert((from.accession, to.accession));
        }
        assert_eq!(got, expected);
    });
}

/// The Subsumed closure is a strict superset of IS_A, transitive, and
/// acyclic for every generated GO taxonomy.
#[test]
fn subsume_properties() {
    cases(12, |rng| {
        let eco = Ecosystem::generate(params(rng));
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        let go = gm.source_id("GO").unwrap();
        let subsumed = operators::subsume(gm.store(), go).unwrap();
        let (isa_rel, _) = gm.store().find_source_rel(go, go, Some(RelType::IsA)).unwrap().unwrap();
        let isa = gm.store().load_mapping(isa_rel.id).unwrap();
        let closure: BTreeSet<_> = subsumed.pairs.iter().map(|p| (p.from, p.to)).collect();
        // every IS_A edge (child -> parent) appears inverted in the closure
        for edge in &isa.pairs {
            assert!(closure.contains(&(edge.to, edge.from)));
        }
        // transitive
        for &(a, b) in closure.iter().take(200) {
            for &(c, d) in closure.iter().take(200) {
                if b == c {
                    assert!(closure.contains(&(a, d)));
                }
            }
        }
        // irreflexive (acyclic taxonomy)
        assert!(closure.iter().all(|(a, b)| a != b));
    });
}

/// Views are deterministic: two independently-built systems from the
/// same seed answer identically.
#[test]
fn determinism_across_rebuilds() {
    cases(12, |rng| {
        let params = EcosystemParams::demo(rng.gen_range(1..500));
        let build = || {
            let eco = Ecosystem::generate(params.clone());
            let mut gm = GenMapper::in_memory().unwrap();
            gm.import_dumps(&eco.dumps).unwrap();
            gm.query(&QuerySpec::source("LocusLink")
                .target("GO").target("Hugo").or())
                .unwrap()
        };
        assert_eq!(build(), build());
    });
}
