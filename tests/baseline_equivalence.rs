//! Cross-system equivalence: on questions all three systems can answer,
//! GenMapper (generic GAM), the SRS-style store (link navigation) and the
//! star-schema warehouse must return the same answers. On questions only
//! GenMapper can answer, the baselines fail in their characteristic ways.

use baselines::{SrsStore, StarWarehouse};
use genmapper::{GenMapper, QuerySpec, TargetQuery};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use std::collections::BTreeSet;

struct Systems {
    gm: GenMapper,
    srs: SrsStore,
    star: StarWarehouse,
    eco: Ecosystem,
}

fn build(seed: u64) -> Systems {
    let eco = Ecosystem::generate(EcosystemParams::demo(seed));
    let mut gm = GenMapper::in_memory().unwrap();
    gm.import_dumps(&eco.dumps).unwrap();

    let mut srs = SrsStore::new();
    for dump in &eco.dumps {
        srs.load(&dump.parse().unwrap());
    }

    let mut star = StarWarehouse::new().unwrap();
    star.integrate(&eco.dumps[0].parse().unwrap()).unwrap(); // LocusLink only
    Systems { gm, srs, star, eco }
}

#[test]
fn single_source_lookup_agrees_everywhere() {
    let s = build(70);
    // gene 353's GO annotations
    let gm_terms: BTreeSet<String> = s
        .gm
        .query(&QuerySpec::source("LocusLink").accessions(["353"]).target("GO"))
        .unwrap()
        .rows()
        .filter_map(|r| r.cell_text(1).map(str::to_owned))
        .collect();
    let srs_terms: BTreeSet<String> = s
        .srs
        .navigate("LocusLink", "353", "GO")
        .into_iter()
        .map(str::to_owned)
        .collect();
    let star_loci = |term: &str| s.star.loci_with_go(term).unwrap();
    assert_eq!(gm_terms, srs_terms);
    for term in &gm_terms {
        assert!(
            star_loci(term).contains(&"353".to_owned()),
            "star bridge misses {term}"
        );
    }
    assert!(gm_terms.contains("GO:0009116"));
}

#[test]
fn location_query_gam_vs_star() {
    let s = build(71);
    let location = s.eco.universe.locus_353().location.clone();
    let gm_loci: BTreeSet<String> = s
        .gm
        .query(
            &QuerySpec::source("LocusLink")
                .target_spec(TargetQuery::new("Location").accessions([location.as_str()]))
                .and(),
        )
        .unwrap()
        .rows()
        .filter_map(|r| r.cell_text(0).map(str::to_owned))
        .collect();
    let star_loci: BTreeSet<String> = s.star.loci_at_location(&location).unwrap().into_iter().collect();
    assert_eq!(gm_loci, star_loci);
    assert!(gm_loci.contains("353"));
}

#[test]
fn join_query_gam_vs_srs_navigation() {
    let s = build(72);
    // which UniGene clusters are annotated (via LocusLink) with the
    // pinned GO term? GenMapper composes; SRS must navigate per entry.
    let term = "GO:0009116";
    let gm_clusters: BTreeSet<String> = s
        .gm
        .query(
            &QuerySpec::source("Unigene")
                .target_spec(TargetQuery::new("GO").accessions([term]))
                .and(),
        )
        .unwrap()
        .rows()
        .filter_map(|r| r.cell_text(0).map(str::to_owned))
        .collect();
    let srs_clusters: BTreeSet<String> = s
        .srs
        .navigate_join("Unigene", &["LocusLink", "GO"], term)
        .hits
        .into_iter()
        .collect();
    assert_eq!(gm_clusters, srs_clusters);
    assert!(!gm_clusters.is_empty());
}

#[test]
fn srs_cannot_answer_joins_without_navigation() {
    let s = build(73);
    // the SRS data model itself holds only per-source indexes and one-hop
    // links: there is no API surface that answers a multi-source
    // constraint in one call, and single entries know nothing about GO
    // unless the record carries a direct link
    let entry = s.srs.get("Unigene", &s.eco.universe.unigene[0].acc).unwrap();
    assert!(!entry.links.contains_key("GO"), "no direct Unigene->GO link exists");
    assert!(entry.links.contains_key("LocusLink"));
}

#[test]
fn star_schema_rejects_unanticipated_sources_gam_accepts_them() {
    let mut s = build(74);
    // a satellite source the star schema never anticipated
    let satellite = s.eco.dumps[10].parse().unwrap();
    let err = s.star.integrate(&satellite).unwrap_err();
    assert!(matches!(
        err,
        baselines::StarError::SchemaEvolutionRequired { .. }
    ));
    // GenMapper already integrated it: views work immediately
    let spec = QuerySpec::source(satellite.meta.name.as_str())
        .target("GO")
        .and();
    let view = s.gm.query(&spec).unwrap();
    assert!(!view.is_empty());
}

#[test]
fn star_loses_unmodeled_annotations_gam_keeps_them() {
    let s = build(75);
    // the Enzyme annotation of locus 353 is not in the star schema
    assert!(s.star.gene("353").unwrap().is_some());
    // (no bridge for Enzyme: loci_with_go is the only bridge query, and
    // row_count reflects the loss)
    let gm_enzyme = s
        .gm
        .query(&QuerySpec::source("LocusLink").accessions(["353"]).target("Enzyme"))
        .unwrap();
    assert!(gm_enzyme.rows().any(|r| r.cell_text(1) == Some("2.4.2.7")));
}
