//! Evidence-aware querying end to end: NetAffx similarity links carry
//! confidences; thresholded views and thresholded composition must treat
//! them soundly (paper §4.2's future-work direction on reduced-evidence
//! mappings).

use gam::GamRead;
use genmapper::{GenMapper, QuerySpec, TargetQuery};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use std::collections::BTreeSet;

fn system(seed: u64) -> (GenMapper, Ecosystem) {
    let eco = Ecosystem::generate(EcosystemParams::demo(seed));
    let mut gm = GenMapper::in_memory().unwrap();
    gm.import_dumps(&eco.dumps).unwrap();
    (gm, eco)
}

#[test]
fn thresholded_view_is_monotone_in_the_threshold() {
    let (mut gm, _) = system(201);
    // NetAffx -> Unigene links are scored in [0.5, 1.0]
    let rows_at = |gm: &mut GenMapper, threshold: Option<f64>| -> usize {
        let mut target = TargetQuery::new("Unigene");
        if let Some(t) = threshold {
            target = target.min_evidence(t);
        }
        gm.query(&QuerySpec::source("NetAffx").target_spec(target).and())
            .unwrap()
            .len()
    };
    let all = rows_at(&mut gm, None);
    let t00 = rows_at(&mut gm, Some(0.0));
    let t75 = rows_at(&mut gm, Some(0.75));
    let t99 = rows_at(&mut gm, Some(0.99));
    assert_eq!(all, t00, "zero threshold is a no-op");
    assert!(t75 < all, "0.75 must drop some scored links ({t75} vs {all})");
    assert!(t99 <= t75);
    assert!(t75 > 0, "strong links survive");
}

#[test]
fn threshold_affects_negation_consistently() {
    let (gm, _) = system(202);
    // probes WITH a confident Unigene link + probes WITHOUT one partition
    // the chip at every threshold
    let netaffx = gm.source_id("NetAffx").unwrap();
    let total = gm.store().object_count(netaffx).unwrap();
    for threshold in [0.6, 0.9] {
        let with: BTreeSet<String> = gm
            .query(
                &QuerySpec::source("NetAffx")
                    .target_spec(TargetQuery::new("Unigene").min_evidence(threshold))
                    .and(),
            )
            .unwrap()
            .rows()
            .filter_map(|r| r.cell_text(0).map(str::to_owned))
            .collect();
        let without: BTreeSet<String> = gm
            .query(
                &QuerySpec::source("NetAffx")
                    .target_spec(TargetQuery::new("Unigene").min_evidence(threshold).negated())
                    .and(),
            )
            .unwrap()
            .rows()
            .filter_map(|r| r.cell_text(0).map(str::to_owned))
            .collect();
        assert!(with.is_disjoint(&without), "threshold {threshold}");
        assert_eq!(with.len() + without.len(), total, "threshold {threshold}");
    }
}

#[test]
fn thresholded_composition_prunes_weak_probe_annotations() {
    let (gm, _) = system(203);
    let netaffx = gm.source_id("NetAffx").unwrap();
    let unigene = gm.source_id("Unigene").unwrap();
    let locuslink = gm.source_id("LocusLink").unwrap();
    let go = gm.source_id("GO").unwrap();
    let path = [netaffx, unigene, locuslink, go];
    let compose = |floor| {
        operators::compose_path_idx_with_threshold(gm.store(), &path, floor).map(|i| i.to_mapping())
    };
    let cfg = operators::ExecConfig::sequential();
    let unfiltered = operators::compose_path_idx(gm.store(), &path, &cfg).unwrap().to_mapping();
    let strict = compose(0.9).unwrap();
    let lax = compose(0.0).unwrap();
    // the executor and the nested-loop oracle agree on the real ecosystem
    assert_eq!(unfiltered, baselines::naive::compose_path(gm.store(), &path, None).unwrap());
    assert_eq!(strict, baselines::naive::compose_path(gm.store(), &path, Some(0.9)).unwrap());
    assert_eq!(lax.len(), unfiltered.len());
    assert!(strict.len() < unfiltered.len());
    // every surviving association really satisfies the floor
    for a in &strict.pairs {
        assert!(a.effective_evidence() >= 0.9 - 1e-12);
    }
    // surviving associations are a subset of the unfiltered result
    let all: BTreeSet<_> = unfiltered.pairs.iter().map(|a| (a.from, a.to)).collect();
    for a in &strict.pairs {
        assert!(all.contains(&(a.from, a.to)));
    }
}

#[test]
fn mapping_type_counts_match_cardinalities() {
    let (gm, _) = system(204);
    let counts = gm.store().mapping_type_counts().unwrap();
    let cards = gm.cardinalities().unwrap();
    let mappings: usize = counts.iter().map(|(_, m, _)| m).sum();
    let associations: usize = counts.iter().map(|(_, _, a)| a).sum();
    assert_eq!(mappings, cards.mappings);
    assert_eq!(associations, cards.associations);
    // the demo ecosystem exercises facts, similarities, structure
    let types: BTreeSet<String> = counts.iter().map(|(t, _, _)| t.to_string()).collect();
    assert!(types.contains("Fact"));
    assert!(types.contains("Similarity"));
    assert!(types.contains("IS_A"));
    assert!(types.contains("Contains"));
}
