//! Satellite dialect — a generic flat-file format standing in for the long
//! tail of the 60+ sources GenMapper integrates (paper §5).
//!
//! Real deployments integrate many small, structurally similar sources:
//! pathway collections, marker panels, clone libraries, expression-study
//! gene lists. Each satellite source here is a CSV-like dump whose objects
//! link to the accessions of one or more hub sources (LocusLink, Unigene,
//! SwissProt, GO). Links may carry a computed confidence (`acc~0.87`),
//! which the importer turns into a Similarity mapping separate from the
//! Fact mapping — so one satellite contributes up to
//! `2 × hubs` mappings, reproducing the paper's mapping-to-source ratio
//! (500+ mappings over 60+ sources):
//!
//! ```text
//! #satellite PathwayDB03
//! #release r1
//! #hub LocusLink
//! #hub GO
//! accession,name,links
//! PW03:0001,glycolysis variant 1,LocusLink=353;1021~0.91|GO=GO:0010001
//! ```

use crate::prng::Prng;
use crate::universe::Universe;
use crate::ParseError;
use eav::{EavBatch, EavRecord, SourceMeta};
use gam::model::{SourceContent, SourceStructure};
use std::fmt::Write as _;

/// The hubs a satellite's objects may link against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hub {
    LocusLink,
    Unigene,
    SwissProt,
    Go,
}

impl Hub {
    /// Hub source name as registered in GAM.
    pub fn source_name(self) -> &'static str {
        match self {
            Hub::LocusLink => super::names::LOCUSLINK,
            Hub::Unigene => super::names::UNIGENE,
            Hub::SwissProt => super::names::SWISSPROT,
            Hub::Go => super::names::GO,
        }
    }

    fn from_name(name: &str) -> Option<Hub> {
        match name {
            "LocusLink" => Some(Hub::LocusLink),
            "Unigene" => Some(Hub::Unigene),
            "SwissProt" => Some(Hub::SwissProt),
            "GO" => Some(Hub::Go),
            _ => None,
        }
    }

    /// Content class satellites of this (primary) hub carry.
    fn content(self) -> SourceContent {
        match self {
            Hub::LocusLink | Hub::Unigene => SourceContent::Gene,
            Hub::SwissProt => SourceContent::Protein,
            Hub::Go => SourceContent::Other,
        }
    }

    /// All hubs, for round-robin assignment.
    pub fn all() -> [Hub; 4] {
        [Hub::LocusLink, Hub::Unigene, Hub::SwissProt, Hub::Go]
    }
}

/// Parameters for one satellite dump.
#[derive(Debug, Clone)]
pub struct SatelliteSpec {
    /// Source name, e.g. `PathwayDB03`.
    pub name: String,
    /// Hubs the satellite links to (first hub decides the content class).
    pub hubs: Vec<Hub>,
    /// Number of objects.
    pub n_objects: usize,
    /// Total links per object, distributed round-robin over the hubs.
    pub links_per_object: usize,
    /// Fraction of links that carry a computed confidence (Similarity).
    pub scored_fraction: f64,
    /// RNG seed for link selection.
    pub seed: u64,
}

fn hub_accessions(u: &Universe, hub: Hub) -> Vec<String> {
    match hub {
        Hub::LocusLink => u.loci.iter().map(|l| l.id.to_string()).collect(),
        Hub::Unigene => u.unigene.iter().map(|c| c.acc.clone()).collect(),
        Hub::SwissProt => u.proteins.iter().map(|p| p.acc.clone()).collect(),
        Hub::Go => u.go_terms.iter().map(|t| t.acc.clone()).collect(),
    }
}

/// Render a satellite dump.
pub fn generate(u: &Universe, spec: &SatelliteSpec) -> String {
    assert!(!spec.hubs.is_empty(), "satellite needs at least one hub");
    let mut rng = Prng::seed_from_u64(spec.seed);
    let pools: Vec<Vec<String>> = spec.hubs.iter().map(|&h| hub_accessions(u, h)).collect();
    let mut out = String::new();
    let _ = writeln!(out, "#satellite\t{}", spec.name);
    let _ = writeln!(out, "#release\tr1");
    for hub in &spec.hubs {
        let _ = writeln!(out, "#hub\t{}", hub.source_name());
    }
    let _ = writeln!(out, "accession,name,links");
    let prefix: String = spec
        .name
        .chars()
        .filter(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
        .collect();
    for i in 0..spec.n_objects {
        // collect links grouped by hub
        let mut per_hub: Vec<Vec<String>> = vec![Vec::new(); spec.hubs.len()];
        for j in 0..spec.links_per_object {
            let h = (i + j) % spec.hubs.len();
            let pool = &pools[h];
            if pool.is_empty() {
                continue;
            }
            let acc = &pool[rng.gen_range(0..pool.len())];
            let link = if rng.gen_bool(spec.scored_fraction) {
                format!("{acc}~{:.3}", 0.5 + rng.gen_f64() * 0.5)
            } else {
                acc.clone()
            };
            if !per_hub[h].contains(&link) {
                per_hub[h].push(link);
            }
        }
        let groups: Vec<String> = spec
            .hubs
            .iter()
            .zip(&per_hub)
            .filter(|(_, links)| !links.is_empty())
            .map(|(hub, links)| format!("{}={}", hub.source_name(), links.join(";")))
            .collect();
        let _ = writeln!(
            out,
            "{prefix}:{i:05},{} entry {i},{}",
            spec.name,
            groups.join("|")
        );
    }
    out
}

/// Parse a satellite dump into EAV staging records.
pub fn parse(text: &str) -> Result<EavBatch, ParseError> {
    const D: &str = "Satellite";
    let mut name: Option<String> = None;
    let mut release: Option<String> = None;
    let mut hubs: Vec<Hub> = Vec::new();
    let mut records = Vec::new();
    let mut saw_header = false;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let (key, value) = rest
                .split_once('\t')
                .ok_or_else(|| ParseError::at(D, lineno, "header without value"))?;
            match key {
                "satellite" => name = Some(value.to_owned()),
                "release" => release = Some(value.to_owned()),
                "hub" => hubs.push(
                    Hub::from_name(value)
                        .ok_or_else(|| ParseError::at(D, lineno, "unknown hub"))?,
                ),
                other => return Err(ParseError::at(D, lineno, format!("unknown header {other}"))),
            }
            continue;
        }
        if line == "accession,name,links" {
            saw_header = true;
            continue;
        }
        if !saw_header {
            return Err(ParseError::at(D, lineno, "data before CSV header"));
        }
        if hubs.is_empty() {
            return Err(ParseError::at(D, lineno, "data before #hub header"));
        }
        let fields: Vec<&str> = line.splitn(3, ',').collect();
        if fields.len() != 3 {
            return Err(ParseError::at(D, lineno, "expected 3 CSV fields"));
        }
        let (acc, obj_name, groups) = (fields[0], fields[1], fields[2]);
        if acc.is_empty() {
            return Err(ParseError::at(D, lineno, "empty accession"));
        }
        records.push(EavRecord::named_object(acc, obj_name));
        for group in groups.split('|').filter(|s| !s.is_empty()) {
            let (hub_name, links) = group
                .split_once('=')
                .ok_or_else(|| ParseError::at(D, lineno, "link group without hub prefix"))?;
            let hub = Hub::from_name(hub_name)
                .ok_or_else(|| ParseError::at(D, lineno, "link group names unknown hub"))?;
            if !hubs.contains(&hub) {
                return Err(ParseError::at(D, lineno, "link group hub was not declared"));
            }
            for link in links.split(';').filter(|s| !s.is_empty()) {
                match link.split_once('~') {
                    Some((target_acc, score)) => {
                        let evidence: f64 = score
                            .parse()
                            .map_err(|_| ParseError::at(D, lineno, "bad link confidence"))?;
                        if !(0.0..=1.0).contains(&evidence) {
                            return Err(ParseError::at(D, lineno, "confidence outside [0,1]"));
                        }
                        records.push(EavRecord::similarity(
                            acc,
                            hub.source_name(),
                            target_acc,
                            evidence,
                        ));
                    }
                    None => {
                        records.push(EavRecord::annotation(acc, hub.source_name(), link));
                    }
                }
            }
        }
    }
    if hubs.is_empty() {
        return Err(ParseError::general(D, "missing #hub header"));
    }
    let mut batch = EavBatch {
        meta: SourceMeta {
            name: name.ok_or_else(|| ParseError::general(D, "missing #satellite header"))?,
            release: release.ok_or_else(|| ParseError::general(D, "missing #release header"))?,
            content: hubs[0].content(),
            structure: SourceStructure::Flat,
            partitions: Vec::new(),
        },
        records,
    };
    batch.sanitize();
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseParams;

    fn spec() -> SatelliteSpec {
        SatelliteSpec {
            name: "PathwayDB03".into(),
            hubs: vec![Hub::LocusLink, Hub::Go],
            n_objects: 25,
            links_per_object: 4,
            scored_fraction: 0.5,
            seed: 99,
        }
    }

    #[test]
    fn roundtrip_multi_hub() {
        let u = Universe::generate(UniverseParams::tiny(13));
        let batch = parse(&generate(&u, &spec())).unwrap();
        assert_eq!(batch.meta.name, "PathwayDB03");
        assert_eq!(batch.meta.content, SourceContent::Gene);
        let (objects, annotations, _) = batch.counts();
        assert_eq!(objects, 25);
        assert!(annotations > 25, "several links per object");
        assert_eq!(batch.referenced_targets(), vec!["GO", "LocusLink"]);
        // both scored and unscored links exist
        let mut scored = 0;
        let mut facts = 0;
        let lo_ids: std::collections::HashSet<String> =
            u.loci.iter().map(|l| l.id.to_string()).collect();
        let go_ids: std::collections::HashSet<&str> =
            u.go_terms.iter().map(|t| t.acc.as_str()).collect();
        for r in &batch.records {
            if let EavRecord::Annotation {
                target,
                accession,
                evidence,
                ..
            } = r
            {
                match evidence {
                    Some(e) => {
                        assert!((0.5..=1.0).contains(e));
                        scored += 1;
                    }
                    None => facts += 1,
                }
                match target.as_str() {
                    "LocusLink" => assert!(lo_ids.contains(accession)),
                    "GO" => assert!(go_ids.contains(accession.as_str())),
                    other => panic!("unexpected target {other}"),
                }
            }
        }
        assert!(scored > 0 && facts > 0);
    }

    #[test]
    fn single_hub_and_all_hubs() {
        let u = Universe::generate(UniverseParams::tiny(13));
        for hub in Hub::all() {
            let s = SatelliteSpec {
                hubs: vec![hub],
                name: format!("Sat{}", hub.source_name()),
                ..spec()
            };
            let batch = parse(&generate(&u, &s)).unwrap();
            assert_eq!(batch.referenced_targets(), vec![hub.source_name()]);
        }
        let s = SatelliteSpec {
            hubs: Hub::all().to_vec(),
            links_per_object: 8,
            ..spec()
        };
        let batch = parse(&generate(&u, &s)).unwrap();
        assert_eq!(batch.referenced_targets().len(), 4);
    }

    #[test]
    fn deterministic() {
        let u = Universe::generate(UniverseParams::tiny(13));
        assert_eq!(generate(&u, &spec()), generate(&u, &spec()));
    }

    #[test]
    fn malformed() {
        assert!(parse("").is_err(), "missing headers");
        assert!(parse("#satellite\tX\n#release\tr\n#hub\tMystery\n").is_err());
        let h = "#satellite\tX\n#release\tr\n#hub\tGO\naccession,name,links\n";
        assert!(parse(&format!("{h}onlyone\n")).is_err());
        assert!(parse(&format!("{h},noacc,GO=GO:1\n")).is_err());
        assert!(parse(&format!("{h}X:1,n,nogroup\n")).is_err(), "link without hub prefix");
        assert!(parse(&format!("{h}X:1,n,LocusLink=353\n")).is_err(), "undeclared hub");
        assert!(parse(&format!("{h}X:1,n,GO=GO:1~bad\n")).is_err());
        assert!(parse(&format!("{h}X:1,n,GO=GO:1~1.5\n")).is_err());
        assert!(parse("#satellite\tX\n#release\tr\n#hub\tGO\nrow,before,header\n").is_err());
        // object with no links is fine
        let b = parse(&format!("{h}X:1,thing,\n")).unwrap();
        assert_eq!(b.counts(), (1, 0, 0));
    }
}
