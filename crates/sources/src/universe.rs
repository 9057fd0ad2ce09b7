//! The shared ground truth from which every synthetic source is rendered.
//!
//! All cross-references in the generated dumps (a LocusLink record's GO
//! terms, a SwissProt entry's LocusLink link, a NetAffx probe set's UniGene
//! cluster, ...) are drawn from one [`Universe`], so that — as with the
//! curated web-links the paper exploits — links in different sources agree
//! and compose transitively. Generation is fully deterministic in the seed.

use crate::prng::Prng;

/// Size and shape parameters of the universe.
#[derive(Debug, Clone, PartialEq)]
pub struct UniverseParams {
    /// RNG seed; equal seeds give byte-identical universes.
    pub seed: u64,
    /// Number of genetic loci (LocusLink entries). The paper's deployment
    /// handles ~40 000 genes on microarrays.
    pub n_loci: usize,
    /// Number of GO terms across the three namespaces.
    pub n_go_terms: usize,
    /// Number of Enzyme classification leaf entries.
    pub n_enzymes: usize,
    /// Number of OMIM disease entries.
    pub n_omim: usize,
    /// Number of InterPro domain entries.
    pub n_interpro: usize,
    /// Probe sets per locus on the microarray (NetAffx).
    pub probesets_per_locus: f64,
    /// Fraction of loci with a SwissProt protein product.
    pub protein_fraction: f64,
}

impl Default for UniverseParams {
    fn default() -> Self {
        UniverseParams {
            seed: 42,
            n_loci: 2_000,
            n_go_terms: 600,
            n_enzymes: 120,
            n_omim: 300,
            n_interpro: 250,
            probesets_per_locus: 1.4,
            protein_fraction: 0.7,
        }
    }
}

impl UniverseParams {
    /// A small universe for unit tests.
    pub fn tiny(seed: u64) -> Self {
        UniverseParams {
            seed,
            n_loci: 120,
            n_go_terms: 60,
            n_enzymes: 25,
            n_omim: 30,
            n_interpro: 40,
            probesets_per_locus: 1.3,
            protein_fraction: 0.7,
        }
    }

    /// Scale every cardinality by `factor` (used by the scale benches).
    pub fn scaled(mut self, factor: f64) -> Self {
        let scale = |n: usize| ((n as f64 * factor).round() as usize).max(8);
        self.n_loci = scale(self.n_loci);
        self.n_go_terms = scale(self.n_go_terms);
        self.n_enzymes = scale(self.n_enzymes);
        self.n_omim = scale(self.n_omim);
        self.n_interpro = scale(self.n_interpro);
        self
    }
}

/// One GO term.
#[derive(Debug, Clone, PartialEq)]
pub struct GoTerm {
    /// Accession, e.g. `GO:0009116`.
    pub acc: String,
    /// Term name.
    pub name: String,
    /// Namespace index: 0 = biological_process, 1 = molecular_function,
    /// 2 = cellular_component.
    pub namespace: usize,
    /// Indices of `is_a` parents within the same namespace (empty for the
    /// namespace root).
    pub parents: Vec<usize>,
}

/// GO namespace names in canonical order.
pub const GO_NAMESPACES: [&str; 3] = [
    "biological_process",
    "molecular_function",
    "cellular_component",
];

/// GO partition (sub-taxonomy) display names, as used for `Contains`
/// relationships (paper §3).
pub const GO_PARTITIONS: [&str; 3] = ["BiologicalProcess", "MolecularFunction", "CellularComponent"];

/// One Enzyme Commission entry. Internal nodes of the EC hierarchy are
/// materialized so IS_A edges are complete.
#[derive(Debug, Clone, PartialEq)]
pub struct Enzyme {
    /// EC number, e.g. `2.4.2.7` (leaves) or `2.4.2` (internal).
    pub ec: String,
    /// Description.
    pub name: String,
    /// Index of the parent class, `None` for top-level classes.
    pub parent: Option<usize>,
    /// True for 4-component leaf entries that loci may reference.
    pub is_leaf: bool,
}

/// One InterPro domain.
#[derive(Debug, Clone, PartialEq)]
pub struct InterProDomain {
    /// Accession, e.g. `IPR000312`.
    pub acc: String,
    /// Domain name.
    pub name: String,
    /// Parent domain (InterPro maintains a parent/child hierarchy).
    pub parent: Option<usize>,
}

/// One OMIM entry.
#[derive(Debug, Clone, PartialEq)]
pub struct OmimEntry {
    /// OMIM number, e.g. `102600`.
    pub id: u32,
    /// Title.
    pub title: String,
    /// Indices of associated loci.
    pub loci: Vec<usize>,
}

/// One UniGene cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct UnigeneCluster {
    /// Accession, e.g. `Hs.28914`.
    pub acc: String,
    /// Cluster title.
    pub title: String,
    /// Indices of member loci (usually one).
    pub loci: Vec<usize>,
}

/// One SwissProt protein.
#[derive(Debug, Clone, PartialEq)]
pub struct Protein {
    /// Primary accession, e.g. `P07741`.
    pub acc: String,
    /// Entry name, e.g. `APRT_HUMAN`.
    pub entry_name: String,
    /// Index of the encoding locus.
    pub locus: usize,
    /// Indices of InterPro domains.
    pub domains: Vec<usize>,
}

/// One Affymetrix probe set (NetAffx).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSet {
    /// Accession, e.g. `31353_at`.
    pub acc: String,
    /// Index of the targeted UniGene cluster.
    pub unigene: usize,
    /// Index of the locus, when NetAffx publishes it directly (it often
    /// does not, which is exactly why composed mappings matter).
    pub locus: Option<usize>,
}

/// One genetic locus (LocusLink entry) — the hub object most sources
/// cross-reference (paper Figure 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Locus {
    /// Numeric LocusLink accession, e.g. `353`.
    pub id: u32,
    /// Official Hugo gene symbol, e.g. `APRT`.
    pub symbol: String,
    /// Gene name, e.g. `adenine phosphoribosyltransferase`.
    pub name: String,
    /// Chromosome, `1`..`22`, `X`, `Y`.
    pub chromosome: String,
    /// Cytogenetic location, e.g. `16q24`.
    pub location: String,
    /// Genomic start coordinate (basepairs) on the chromosome.
    pub position: u64,
    /// Index of the enzyme entry, for enzyme-coding genes.
    pub enzyme: Option<usize>,
    /// Indices of annotated GO terms.
    pub go_terms: Vec<usize>,
    /// Indices of associated OMIM entries.
    pub omim: Vec<usize>,
    /// Index of the UniGene cluster containing this locus.
    pub unigene: usize,
}

/// The complete ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Universe {
    pub params: UniverseParams,
    pub go_terms: Vec<GoTerm>,
    pub enzymes: Vec<Enzyme>,
    pub interpro: Vec<InterProDomain>,
    pub omim: Vec<OmimEntry>,
    pub unigene: Vec<UnigeneCluster>,
    pub loci: Vec<Locus>,
    pub proteins: Vec<Protein>,
    pub probesets: Vec<ProbeSet>,
}

/// Syllables used to fabricate pronounceable names deterministically.
const SYLLABLES: [&str; 16] = [
    "ade", "nin", "phos", "pho", "ribo", "syl", "trans", "fer", "ase", "kin",
    "gen", "lac", "mut", "oxi", "dehy", "cyt",
];

fn fab_name(rng: &mut Prng, min_syl: usize, max_syl: usize) -> String {
    let n = rng.gen_range(min_syl..=max_syl);
    let mut s = String::new();
    for _ in 0..n {
        s.push_str(SYLLABLES[rng.gen_range(0..SYLLABLES.len())]);
    }
    s
}

fn fab_symbol(rng: &mut Prng, index: usize) -> String {
    let letters: Vec<char> = "ABCDEFGHKLMNPRSTUVWXYZ".chars().collect();
    let a = letters[rng.gen_range(0..letters.len())];
    let b = letters[rng.gen_range(0..letters.len())];
    let c = letters[rng.gen_range(0..letters.len())];
    format!("{a}{b}{c}{index}")
}

impl Universe {
    /// Generate a universe from parameters. Deterministic in
    /// `params.seed`.
    pub fn generate(params: UniverseParams) -> Universe {
        let mut rng = Prng::seed_from_u64(params.seed);
        let go_terms = gen_go(&mut rng, params.n_go_terms);
        let enzymes = gen_enzymes(&mut rng, params.n_enzymes);
        let interpro = gen_interpro(&mut rng, params.n_interpro);
        let (loci, unigene, omim) = gen_loci(&mut rng, &params, &go_terms, &enzymes);
        let proteins = gen_proteins(&mut rng, &params, &loci, &interpro);
        let probesets = gen_probesets(&mut rng, &params, &loci);
        Universe {
            params,
            go_terms,
            enzymes,
            interpro,
            omim,
            unigene,
            loci,
            proteins,
            probesets,
        }
    }

    /// The locus the paper uses as its running example (Figure 1 / Table
    /// 1): accession 353, symbol APRT. The generator pins locus index 0 to
    /// these values so examples and tests can reproduce the paper's rows.
    pub fn locus_353(&self) -> &Locus {
        &self.loci[0]
    }
}

fn gen_go(rng: &mut Prng, n: usize) -> Vec<GoTerm> {
    let n = n.max(6);
    let mut terms: Vec<GoTerm> = Vec::with_capacity(n);
    // Terms 0..3 are the namespace roots.
    let root_names = ["biological_process", "molecular_function", "cellular_component"];
    for (ns, name) in root_names.iter().enumerate() {
        terms.push(GoTerm {
            acc: format!("GO:{:07}", 8150 + ns),
            name: (*name).to_owned(),
            namespace: ns,
            parents: Vec::new(),
        });
    }
    // Pin the paper's example term GO:0009116 "nucleoside metabolism" as a
    // biological_process child of the root.
    terms.push(GoTerm {
        acc: "GO:0009116".to_owned(),
        name: "nucleoside metabolism".to_owned(),
        namespace: 0,
        parents: vec![0],
    });
    for i in terms.len()..n {
        let namespace = rng.gen_range(0..3);
        // candidate parents: earlier terms of the same namespace
        let candidates: Vec<usize> = (0..i)
            .filter(|&j| terms[j].namespace == namespace)
            .collect();
        let mut parents = Vec::new();
        let n_parents = if candidates.len() > 1 && rng.gen_bool(0.15) {
            2
        } else {
            1
        };
        while parents.len() < n_parents {
            let p = candidates[rng.gen_range(0..candidates.len())];
            if !parents.contains(&p) {
                parents.push(p);
            }
        }
        terms.push(GoTerm {
            acc: format!("GO:{:07}", 10_000 + i),
            name: format!("{} {}", fab_name(rng, 2, 3), fab_name(rng, 2, 3)),
            namespace,
            parents,
        });
    }
    terms
}

fn gen_enzymes(rng: &mut Prng, n_leaves: usize) -> Vec<Enzyme> {
    // EC hierarchy: class.subclass.subsubclass.serial. Materialize the
    // internal nodes on demand.
    let mut enzymes: Vec<Enzyme> = Vec::new();
    let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    let ensure = |enzymes: &mut Vec<Enzyme>,
                      index: &mut std::collections::HashMap<String, usize>,
                      ec: String,
                      name: String,
                      parent: Option<usize>,
                      is_leaf: bool| {
        if let Some(&i) = index.get(&ec) {
            return i;
        }
        let i = enzymes.len();
        enzymes.push(Enzyme {
            ec: ec.clone(),
            name,
            parent,
            is_leaf,
        });
        index.insert(ec, i);
        i
    };
    // Pin the paper's 2.4.2.7 (adenine phosphoribosyltransferase).
    let c2 = ensure(&mut enzymes, &mut index, "2".into(), "Transferases".into(), None, false);
    let c24 = ensure(&mut enzymes, &mut index, "2.4".into(), "Glycosyltransferases".into(), Some(c2), false);
    let c242 = ensure(&mut enzymes, &mut index, "2.4.2".into(), "Pentosyltransferases".into(), Some(c24), false);
    ensure(
        &mut enzymes,
        &mut index,
        "2.4.2.7".into(),
        "adenine phosphoribosyltransferase".into(),
        Some(c242),
        true,
    );
    let mut serial = 1u32;
    while enzymes.iter().filter(|e| e.is_leaf).count() < n_leaves {
        let class = rng.gen_range(1..=6u32);
        let sub = rng.gen_range(1..=9u32);
        let subsub = rng.gen_range(1..=9u32);
        serial += 1;
        let class_name = match class {
            1 => "Oxidoreductases",
            2 => "Transferases",
            3 => "Hydrolases",
            4 => "Lyases",
            5 => "Isomerases",
            _ => "Ligases",
        };
        let ci = ensure(&mut enzymes, &mut index, class.to_string(), class_name.into(), None, false);
        let si = ensure(
            &mut enzymes,
            &mut index,
            format!("{class}.{sub}"),
            format!("{class_name} subclass {sub}"),
            Some(ci),
            false,
        );
        let ssi = ensure(
            &mut enzymes,
            &mut index,
            format!("{class}.{sub}.{subsub}"),
            format!("{class_name} sub-subclass {sub}.{subsub}"),
            Some(si),
            false,
        );
        let name = format!("{} {}", fab_name(rng, 2, 3), "ase");
        ensure(
            &mut enzymes,
            &mut index,
            format!("{class}.{sub}.{subsub}.{serial}"),
            name,
            Some(ssi),
            true,
        );
    }
    enzymes
}

fn gen_interpro(rng: &mut Prng, n: usize) -> Vec<InterProDomain> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let parent = if i > 0 && rng.gen_bool(0.3) {
            Some(rng.gen_range(0..i))
        } else {
            None
        };
        out.push(InterProDomain {
            acc: format!("IPR{:06}", 312 + i),
            name: format!("{} domain", fab_name(rng, 2, 4)),
            parent,
        });
    }
    out
}

fn gen_loci(
    rng: &mut Prng,
    params: &UniverseParams,
    go_terms: &[GoTerm],
    enzymes: &[Enzyme],
) -> (Vec<Locus>, Vec<UnigeneCluster>, Vec<OmimEntry>) {
    let chromosomes: Vec<String> = (1..=22u8)
        .map(|c| c.to_string())
        .chain(["X".to_owned(), "Y".to_owned()])
        .collect();
    let leaf_enzymes: Vec<usize> = enzymes
        .iter()
        .enumerate()
        .filter(|(_, e)| e.is_leaf)
        .map(|(i, _)| i)
        .collect();
    let ec_2427 = enzymes.iter().position(|e| e.ec == "2.4.2.7").unwrap();
    let go_9116 = go_terms.iter().position(|t| t.acc == "GO:0009116").unwrap();

    let mut loci = Vec::with_capacity(params.n_loci);
    let mut clusters: Vec<UnigeneCluster> = Vec::new();
    for i in 0..params.n_loci {
        let (id, symbol, name, chromosome, location) = if i == 0 {
            // the paper's running example, pinned
            (
                353,
                "APRT".to_owned(),
                "adenine phosphoribosyltransferase".to_owned(),
                "16".to_owned(),
                "16q24".to_owned(),
            )
        } else {
            let chrom = chromosomes[rng.gen_range(0..chromosomes.len())].clone();
            let arm = if rng.gen_bool(0.5) { 'p' } else { 'q' };
            let band = rng.gen_range(11..37);
            (
                1000 + i as u32 * 3 + rng.gen_range(0..2) as u32,
                fab_symbol(rng, i),
                format!("{} {}", fab_name(rng, 3, 5), fab_name(rng, 2, 4)),
                chrom.clone(),
                format!("{chrom}{arm}{band}"),
            )
        };
        let enzyme = if i == 0 {
            Some(ec_2427)
        } else if !leaf_enzymes.is_empty() && rng.gen_bool(0.15) {
            Some(leaf_enzymes[rng.gen_range(0..leaf_enzymes.len())])
        } else {
            None
        };
        let mut gos = Vec::new();
        if i == 0 {
            gos.push(go_9116);
        }
        let n_go = rng.gen_range(1..=5usize);
        // skip namespace roots (indices 0..3) as direct annotations
        while gos.len() < n_go && go_terms.len() > 4 {
            let t = rng.gen_range(3..go_terms.len());
            if !gos.contains(&t) {
                gos.push(t);
            }
        }
        // UniGene cluster: mostly 1:1, occasionally merge into previous
        let unigene = if i > 0 && rng.gen_bool(0.05) {
            let c = clusters.len() - 1;
            clusters[c].loci.push(i);
            c
        } else {
            clusters.push(UnigeneCluster {
                acc: format!("Hs.{}", 10_000 + clusters.len() * 7 + rng.gen_range(0..5)),
                title: name.clone(),
                loci: vec![i],
            });
            clusters.len() - 1
        };
        loci.push(Locus {
            id,
            symbol,
            name,
            chromosome,
            location,
            position: rng.gen_range(1_000_000..240_000_000),
            enzyme,
            go_terms: gos,
            omim: Vec::new(),
            unigene,
        });
    }

    // OMIM entries attach to loci afterwards so each entry knows its loci.
    let mut omim = Vec::with_capacity(params.n_omim);
    for j in 0..params.n_omim {
        let id = if j == 0 { 102_600 } else { 100_000 + j as u32 * 13 };
        let n_loci = rng.gen_range(1..=2usize);
        let mut entry_loci = Vec::new();
        if j == 0 {
            entry_loci.push(0); // APRT deficiency -> locus 353
        }
        while entry_loci.len() < n_loci {
            let l = rng.gen_range(0..loci.len());
            if !entry_loci.contains(&l) {
                entry_loci.push(l);
            }
        }
        for &l in &entry_loci {
            loci[l].omim.push(j);
        }
        omim.push(OmimEntry {
            id,
            title: format!("{} deficiency", fab_name(rng, 3, 4).to_uppercase()),
            loci: entry_loci,
        });
    }
    (loci, clusters, omim)
}

fn gen_proteins(
    rng: &mut Prng,
    params: &UniverseParams,
    loci: &[Locus],
    interpro: &[InterProDomain],
) -> Vec<Protein> {
    let mut out = Vec::new();
    for (i, locus) in loci.iter().enumerate() {
        let has_protein = i == 0 || rng.gen_bool(params.protein_fraction);
        if !has_protein {
            continue;
        }
        let acc = if i == 0 {
            "P07741".to_owned() // real APRT_HUMAN accession
        } else {
            format!("P{:05}", 10_000 + i * 3 + rng.gen_range(0..3))
        };
        let mut domains = Vec::new();
        if !interpro.is_empty() {
            let n = rng.gen_range(1..=3usize);
            while domains.len() < n {
                let d = rng.gen_range(0..interpro.len());
                if !domains.contains(&d) {
                    domains.push(d);
                }
            }
        }
        out.push(Protein {
            acc,
            entry_name: format!("{}_HUMAN", locus.symbol),
            locus: i,
            domains,
        });
    }
    out
}

fn gen_probesets(rng: &mut Prng, params: &UniverseParams, loci: &[Locus]) -> Vec<ProbeSet> {
    let mut out = Vec::new();
    let mut serial = 1000u32;
    for (i, locus) in loci.iter().enumerate() {
        let mut n = params.probesets_per_locus.floor() as usize;
        if rng.gen_bool(params.probesets_per_locus.fract()) {
            n += 1;
        }
        let n = n.max(usize::from(i == 0)); // locus 353 always on the chip
        for _ in 0..n {
            serial += rng.gen_range(1..5);
            out.push(ProbeSet {
                acc: format!("{serial}_at"),
                unigene: locus.unigene,
                // NetAffx publishes the locus link for ~60% of probe sets
                locus: rng.gen_bool(0.6).then_some(i),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Universe {
        Universe::generate(UniverseParams::tiny(7))
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Universe::generate(UniverseParams::tiny(7));
        let b = Universe::generate(UniverseParams::tiny(7));
        assert_eq!(a, b);
        let c = Universe::generate(UniverseParams::tiny(8));
        assert_ne!(a, c);
    }

    #[test]
    fn paper_running_example_is_pinned() {
        let u = tiny();
        let l = u.locus_353();
        assert_eq!(l.id, 353);
        assert_eq!(l.symbol, "APRT");
        assert_eq!(l.name, "adenine phosphoribosyltransferase");
        assert_eq!(l.location, "16q24");
        assert_eq!(u.enzymes[l.enzyme.unwrap()].ec, "2.4.2.7");
        let go_accs: Vec<&str> = l.go_terms.iter().map(|&t| u.go_terms[t].acc.as_str()).collect();
        assert!(go_accs.contains(&"GO:0009116"));
        assert!(u.omim[0].loci.contains(&0));
        assert_eq!(u.omim[0].id, 102_600);
        assert!(u.proteins.iter().any(|p| p.acc == "P07741" && p.locus == 0));
        assert!(u.probesets.iter().any(|p| p.locus == Some(0) || u.unigene[p.unigene].loci.contains(&0)));
    }

    #[test]
    fn go_taxonomy_is_acyclic_with_namespace_roots() {
        let u = tiny();
        assert!(u.go_terms.len() >= 60);
        for (i, t) in u.go_terms.iter().enumerate() {
            for &p in &t.parents {
                assert!(p < i, "parents precede children: term {i} -> {p}");
                assert_eq!(u.go_terms[p].namespace, t.namespace);
            }
        }
        // exactly the three roots have no parents
        let roots: Vec<usize> = u
            .go_terms
            .iter()
            .enumerate()
            .filter(|(_, t)| t.parents.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(roots, vec![0, 1, 2]);
    }

    #[test]
    fn enzyme_hierarchy_is_consistent() {
        let u = tiny();
        let leaves = u.enzymes.iter().filter(|e| e.is_leaf).count();
        assert!(leaves >= 25);
        for e in &u.enzymes {
            let dots = e.ec.matches('.').count();
            assert_eq!(e.is_leaf, dots == 3, "{} leaf flag", e.ec);
            match e.parent {
                Some(p) => {
                    let parent = &u.enzymes[p];
                    assert!(e.ec.starts_with(&format!("{}.", parent.ec)));
                }
                None => assert_eq!(dots, 0, "only top classes lack parents"),
            }
        }
        // no duplicate EC numbers
        let mut ecs: Vec<&str> = u.enzymes.iter().map(|e| e.ec.as_str()).collect();
        ecs.sort_unstable();
        let before = ecs.len();
        ecs.dedup();
        assert_eq!(before, ecs.len());
    }

    #[test]
    fn cross_references_are_in_range() {
        let u = tiny();
        for l in &u.loci {
            assert!(l.unigene < u.unigene.len());
            for &g in &l.go_terms {
                assert!(g < u.go_terms.len());
            }
            for &o in &l.omim {
                assert!(o < u.omim.len());
            }
            if let Some(e) = l.enzyme {
                assert!(u.enzymes[e].is_leaf);
            }
        }
        for p in &u.proteins {
            assert!(p.locus < u.loci.len());
            for &d in &p.domains {
                assert!(d < u.interpro.len());
            }
        }
        for ps in &u.probesets {
            assert!(ps.unigene < u.unigene.len());
            if let Some(l) = ps.locus {
                // the probe set's locus must live in the probe set's cluster
                assert!(u.unigene[ps.unigene].loci.contains(&l));
            }
        }
        // unigene membership is bidirectional
        for (ci, c) in u.unigene.iter().enumerate() {
            for &l in &c.loci {
                assert_eq!(u.loci[l].unigene, ci);
            }
        }
        // omim membership is bidirectional
        for (oi, o) in u.omim.iter().enumerate() {
            for &l in &o.loci {
                assert!(u.loci[l].omim.contains(&oi));
            }
        }
    }

    #[test]
    fn accessions_are_unique_per_collection() {
        let u = tiny();
        fn assert_unique<'a>(items: impl Iterator<Item = &'a str>, what: &str) {
            let mut v: Vec<&str> = items.collect();
            let before = v.len();
            v.sort_unstable();
            v.dedup();
            assert_eq!(before, v.len(), "{what} accessions unique");
        }
        assert_unique(u.go_terms.iter().map(|t| t.acc.as_str()), "GO");
        assert_unique(u.unigene.iter().map(|c| c.acc.as_str()), "UniGene");
        assert_unique(u.proteins.iter().map(|p| p.acc.as_str()), "SwissProt");
        assert_unique(u.probesets.iter().map(|p| p.acc.as_str()), "NetAffx");
        assert_unique(u.interpro.iter().map(|d| d.acc.as_str()), "InterPro");
        let mut ids: Vec<u32> = u.loci.iter().map(|l| l.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "locus ids unique");
        let mut oids: Vec<u32> = u.omim.iter().map(|o| o.id).collect();
        oids.sort_unstable();
        let obefore = oids.len();
        oids.dedup();
        assert_eq!(obefore, oids.len(), "omim ids unique");
    }

    #[test]
    fn scaled_params() {
        let p = UniverseParams::default().scaled(2.0);
        assert_eq!(p.n_loci, 4_000);
        let p = UniverseParams::default().scaled(0.001);
        assert!(p.n_loci >= 8, "floor prevents degenerate universes");
    }
}
