//! End-to-end integration: generate → parse → import → query, validated
//! against the generator's ground truth (the `Universe`).

use genmapper::{GenMapper, QuerySpec, TargetQuery};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use sources::universe::Universe;
use std::collections::BTreeSet;

fn system(seed: u64) -> (GenMapper, Ecosystem) {
    let eco = Ecosystem::generate(EcosystemParams::demo(seed));
    let mut gm = GenMapper::in_memory().unwrap();
    let reports = gm.import_dumps(&eco.dumps).unwrap();
    assert!(reports.iter().all(|r| !r.skipped));
    (gm, eco)
}

#[test]
fn every_core_source_is_registered_with_metadata() {
    let (gm, _) = system(100);
    let sources = gm.sources().unwrap();
    let names: Vec<&str> = sources.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "LocusLink",
        "GO",
        "Unigene",
        "Enzyme",
        "Hugo",
        "OMIM",
        "NetAffx",
        "SwissProt",
        "InterPro",
        "GeneMap",
        // pseudo-targets from LocusLink records
        "Location",
        "Chr",
        // GO partitions via Contains
        "GO.BiologicalProcess",
        "GO.MolecularFunction",
        "GO.CellularComponent",
    ] {
        assert!(names.contains(&expected), "missing source {expected}");
    }
    // GO keeps its Network structure even though LocusLink stubbed it first
    let go = sources.iter().find(|s| s.name == "GO").unwrap();
    assert_eq!(go.structure, gam::model::SourceStructure::Network);
}

#[test]
fn view_matches_universe_ground_truth() {
    let (gm, eco) = system(101);
    let u: &Universe = &eco.universe;
    // check 10 loci: the GO column of the view equals the universe's
    // annotation set for that locus
    for locus in u.loci.iter().take(10) {
        let spec = QuerySpec::source("LocusLink")
            .accessions([locus.id.to_string()])
            .target("GO");
        let view = gm.query(&spec).unwrap();
        let got: BTreeSet<&str> = view.rows().filter_map(|r| r.cell_text(1)).collect();
        let expected: BTreeSet<&str> = locus
            .go_terms
            .iter()
            .map(|&t| u.go_terms[t].acc.as_str())
            .collect();
        assert_eq!(got, expected, "GO annotations of locus {}", locus.id);
    }
}

#[test]
fn hugo_symbols_resolve_for_all_loci() {
    let (gm, eco) = system(102);
    let spec = QuerySpec::source("LocusLink").target("Hugo").or();
    let view = gm.query(&spec).unwrap();
    // exactly one Hugo symbol per locus, never NULL
    assert_eq!(view.len(), eco.universe.loci.len());
    for row in view.rows() {
        assert!(row.cell_text(1).is_some(), "every locus has a symbol");
    }
    let symbols: BTreeSet<&str> = view.rows().filter_map(|r| r.cell_text(1)).collect();
    assert_eq!(symbols.len(), eco.universe.loci.len(), "symbols are unique");
}

#[test]
fn multi_hop_composition_equals_ground_truth() {
    let (gm, eco) = system(103);
    let u = &eco.universe;
    // Unigene -> GO via LocusLink: expected = union of member loci's terms
    let composed = gm.compose(&["Unigene", "LocusLink", "GO"], None).unwrap();
    assert!(!composed.is_empty());
    // pick the cluster of locus 353
    let cluster = &u.unigene[u.locus_353().unigene];
    let ug = gm.source_id("Unigene").unwrap();
    let go = gm.source_id("GO").unwrap();
    let cluster_obj = gm.store().find_object(ug, &cluster.acc).unwrap().unwrap();
    let got: BTreeSet<String> = composed
        .iter()
        .filter(|p| p.from == cluster_obj.id)
        .map(|p| gm.store().get_object(p.to).unwrap().accession)
        .collect();
    let expected: BTreeSet<String> = cluster
        .loci
        .iter()
        .flat_map(|&l| u.loci[l].go_terms.iter().map(|&t| u.go_terms[t].acc.clone()))
        .collect();
    assert_eq!(got, expected);
    let _ = go;
}

#[test]
fn negation_complements_exactly() {
    let (gm, eco) = system(104);
    let with_omim = gm
        .query(&QuerySpec::source("LocusLink").target("OMIM").and())
        .unwrap();
    let without_omim = gm
        .query(
            &QuerySpec::source("LocusLink")
                .target_spec(TargetQuery::new("OMIM").negated())
                .and(),
        )
        .unwrap();
    let with_set: BTreeSet<&str> = with_omim.rows().filter_map(|r| r.cell_text(0)).collect();
    let without_set: BTreeSet<&str> = without_omim
        .rows()
        .filter_map(|r| r.cell_text(0))
        .collect();
    // ground truth from the universe
    let expected_with: BTreeSet<String> = eco
        .universe
        .loci
        .iter()
        .filter(|l| !l.omim.is_empty())
        .map(|l| l.id.to_string())
        .collect();
    let got_with: BTreeSet<String> = with_set.iter().map(|s| (*s).to_owned()).collect();
    assert_eq!(got_with, expected_with);
    assert_eq!(
        with_set.len() + without_set.len(),
        eco.universe.loci.len(),
        "negation partitions the source"
    );
}

#[test]
fn reimport_is_idempotent_and_new_release_is_incremental() {
    let (mut gm, eco) = system(105);
    let before = gm.cardinalities().unwrap();
    // same dumps again: all skipped
    let reports = gm.import_dumps(&eco.dumps).unwrap();
    assert!(reports.iter().all(|r| r.skipped));
    assert_eq!(gm.cardinalities().unwrap(), before);

    // a new LocusLink release with one extra locus
    let mut batch = eco.dumps[0].parse().unwrap();
    batch.meta.release = "2004-01".into();
    batch.push(eav::EavRecord::named_object("424242", "a new gene"));
    batch.push(eav::EavRecord::annotation("424242", "GO", "GO:0009116"));
    let report = gm.import_batch(&batch).unwrap();
    assert!(!report.skipped);
    assert_eq!(report.objects_created, 1);
    assert_eq!(report.associations_created, 1);
    let after = gm.cardinalities().unwrap();
    assert_eq!(after.objects, before.objects + 1);
    assert_eq!(after.associations, before.associations + 1);
    assert_eq!(after.mappings, before.mappings, "no new mappings needed");

    // and the new object is queryable
    let view = gm
        .query(&QuerySpec::source("LocusLink").accessions(["424242"]).target("GO"))
        .unwrap();
    assert_eq!(view.rows().next().unwrap().cell_text(1), Some("GO:0009116"));
}

#[test]
fn satellite_sources_join_the_graph() {
    let (gm, eco) = system(106);
    // every satellite reaches GO through its hub
    for dump in &eco.dumps[10..] {
        let path = gm.find_path(&dump.name, "GO").unwrap();
        assert_eq!(path.first().map(String::as_str), Some(dump.name.as_str()));
        assert_eq!(path.last().map(String::as_str), Some("GO"));
        // and a view across the composed path works
        let spec = QuerySpec::source(dump.name.as_str()).target("GO").and();
        let view = gm.query(&spec).unwrap();
        assert!(
            !view.is_empty(),
            "satellite {} produced an empty GO view",
            dump.name
        );
    }
}

#[test]
fn cardinalities_are_consistent_with_reports() {
    let (gm, eco) = system(107);
    let cards = gm.cardinalities().unwrap();
    // objects reported by the store match the universe plus pseudo targets
    assert!(cards.objects > eco.universe.loci.len());
    // every association's mapping exists and endpoints belong to the
    // mapping's sources
    let rels = gm.store().source_rels().unwrap();
    for rel in &rels {
        let mapping = gm.store().load_mapping(rel.id).unwrap();
        for pair in mapping.pairs.iter().take(50) {
            let from = gm.store().get_object(pair.from).unwrap();
            let to = gm.store().get_object(pair.to).unwrap();
            assert_eq!(from.source, rel.source1, "mapping {} domain side", rel.id);
            assert_eq!(to.source, rel.source2, "mapping {} range side", rel.id);
        }
    }
    assert_eq!(cards.mappings, rels.len());
}

/// The counts EXPERIMENTS F2 and F5 quote for the demo ecosystem of seed 7:
/// what the import builds, and Figure 5's OR / AND / AND+NOT views over
/// LocusLink with GO and OMIM, the two AND variants partitioning the loci.
#[test]
fn demo_7_pins_the_figure_2_and_figure_5_counts() {
    let (gm, eco) = system(7);
    let cards = gm.cardinalities().unwrap();
    let f2 = (eco.dumps.len(), eco.dump_bytes(), cards.sources, cards.objects, cards.mappings, cards.associations);
    assert_eq!(f2, (14, 77_838, 19, 1_223, 35, 2_245));

    let loci = |spec: &QuerySpec| -> (usize, BTreeSet<String>) {
        let view = gm.query(spec).unwrap();
        (view.len(), view.rows().filter_map(|r| r.cell_text(0).map(str::to_owned)).collect())
    };
    let both = QuerySpec::source("LocusLink").target("GO").target("OMIM");
    let (or_rows, or) = loci(&both.clone().or());
    let (and_rows, and) = loci(&both.and());
    let (not_rows, not) = loci(
        &QuerySpec::source("LocusLink")
            .target("GO")
            .target_spec(TargetQuery::new("OMIM").negated())
            .and(),
    );
    assert!(and.is_disjoint(&not));
    assert_eq!(and.union(&not).cloned().collect::<BTreeSet<_>>(), or);
    // (rows, distinct loci) of the OR, AND and AND+NOT views
    let f5 = [(or_rows, or.len()), (and_rows, and.len()), (not_rows, not.len())];
    assert_eq!(f5, [(375, 120), (108, 35), (267, 85)]);
}

/// EXPERIMENTS S5-scale's factor-0.25 row and S5-profiling (§5.2) on the
/// same data: the medium ecosystem of seed 13 with its object counts
/// scaled by a quarter, imported, then with the paper's flagship derived
/// mappings materialized; and the count of every stage of the functional
/// profiling pipeline over its chip, from probe sets through detection
/// and differential calls to the GO terms profiled.
#[test]
fn quarter_scale_deployment_and_its_profiling_counts() {
    use profiling::{ExpressionParams, ExpressionStudy, FunctionalProfile};
    let mut params = EcosystemParams::medium(13);
    params.universe = params.universe.scaled(0.25);
    params.satellite_objects /= 4;
    let eco = Ecosystem::generate(params);
    let mut gm = GenMapper::in_memory().unwrap();
    gm.import_dumps(&eco.dumps).unwrap();
    gm.materialize_composed(&["Unigene", "LocusLink", "GO"]).unwrap();
    gm.materialize_subsumed("GO").unwrap();
    let cards = gm.cardinalities().unwrap();
    let row = (cards.sources, cards.objects, cards.associations, cards.mappings, eco.dump_bytes());
    assert_eq!(row, (27, 5_050, 12_889, 69, 336_586));

    let study = ExpressionStudy::simulate(&eco.universe, ExpressionParams::default());
    let r = FunctionalProfile::run(&mut gm, &study).unwrap();
    assert_eq!(r.probe_counts, (693, 336, 30), "probe sets: on chip, detected, differential");
    let mapped = (r.study_clusters, r.study_loci, r.population_loci);
    assert_eq!(mapped, (29, 31, 294), "UniGene clusters, study and background loci");
    assert_eq!((r.annotated_study, r.annotated_population, r.enrichment.len()), (31, 294, 99));
    let per_root: Vec<usize> = r.namespace_breakdown.iter().map(|(_, _, n)| *n).collect();
    assert_eq!(per_root, [38, 29, 32], "terms under biological_process, molecular_function, cellular_component");
}
