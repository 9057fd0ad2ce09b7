//! NetAffx dialect — the vendor annotation CSV for Affymetrix probe sets.
//!
//! `probeset,unigene,locuslink,confidence` with `---` for missing values,
//! as Affymetrix CSVs use. NetAffx is the paper's example of a vendor-based
//! source (§1) and the entry point of the §5.2 profiling pipeline: its
//! proprietary probe identifiers must be mapped to UniGene before GO
//! annotations can be derived.
//!
//! The `confidence` column carries an evidence value: probe-to-cluster
//! assignments are computed alignments, so the emitted records are
//! Similarity (not Fact) annotations.

use crate::dialects::names;
use crate::prng::Prng;
use crate::universe::Universe;
use crate::ParseError;
use eav::{EavBatch, EavRecord, SourceMeta};
use std::fmt::Write as _;

/// Release tag (NetAffx annotation build).
pub const RELEASE: &str = "na34";

/// Render the NetAffx CSV. Confidence values are derived from a seeded RNG
/// keyed by the universe's seed so dumps stay deterministic.
pub fn generate(u: &Universe) -> String {
    let mut rng = Prng::seed_from_u64(u.params.seed ^ 0xAFF1);
    let mut out = String::from("probeset,unigene,locuslink,confidence\n");
    for ps in &u.probesets {
        let unigene = &u.unigene[ps.unigene].acc;
        let locus = ps
            .locus
            .map(|l| u.loci[l].id.to_string())
            .unwrap_or_else(|| "---".to_owned());
        let confidence = 0.5 + rng.gen_f64() * 0.5;
        let _ = writeln!(out, "{},{unigene},{locus},{confidence:.3}", ps.acc);
    }
    out
}

/// Parse a NetAffx CSV into EAV staging records.
pub fn parse(text: &str) -> Result<EavBatch, ParseError> {
    const D: &str = "NetAffx";
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "probeset,unigene,locuslink,confidence")) => {}
        _ => return Err(ParseError::general(D, "missing or bad CSV header")),
    }
    let mut batch = EavBatch::new(SourceMeta::flat_gene(names::NETAFFX, RELEASE));
    for (lineno, line) in lines {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 4 {
            return Err(ParseError::at(D, lineno, "expected 4 CSV fields"));
        }
        let (probeset, unigene, locus, confidence) = (fields[0], fields[1], fields[2], fields[3]);
        if probeset.is_empty() {
            return Err(ParseError::at(D, lineno, "empty probe set id"));
        }
        let confidence: f64 = confidence
            .parse()
            .map_err(|_| ParseError::at(D, lineno, "bad confidence value"))?;
        if !(0.0..=1.0).contains(&confidence) {
            return Err(ParseError::at(D, lineno, "confidence outside [0,1]"));
        }
        batch.push(EavRecord::object(probeset));
        if unigene != "---" {
            batch.push(EavRecord::similarity(
                probeset,
                names::UNIGENE,
                unigene,
                confidence,
            ));
        }
        if locus != "---" {
            batch.push(EavRecord::similarity(
                probeset,
                names::LOCUSLINK,
                locus,
                confidence,
            ));
        }
    }
    batch.sanitize();
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseParams;

    #[test]
    fn roundtrip() {
        let u = Universe::generate(UniverseParams::tiny(9));
        let batch = parse(&generate(&u)).unwrap();
        let (objects, annotations, _) = batch.counts();
        assert_eq!(objects, u.probesets.len());
        let with_locus = u.probesets.iter().filter(|p| p.locus.is_some()).count();
        assert_eq!(annotations, u.probesets.len() + with_locus);
        // all annotations carry evidence (similarity links)
        for r in &batch.records {
            if let EavRecord::Annotation { evidence, .. } = r {
                let e = evidence.expect("NetAffx links are scored");
                assert!((0.5..=1.0).contains(&e));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let u = Universe::generate(UniverseParams::tiny(9));
        assert_eq!(generate(&u), generate(&u));
    }

    #[test]
    fn malformed() {
        assert!(parse("bad header\n").is_err());
        let h = "probeset,unigene,locuslink,confidence\n";
        assert!(parse(&format!("{h}a,b,c\n")).is_err());
        assert!(parse(&format!("{h}a,Hs.1,---,notanum\n")).is_err());
        assert!(parse(&format!("{h}a,Hs.1,---,1.5\n")).is_err());
        assert!(parse(&format!("{h},Hs.1,---,0.9\n")).is_err());
    }
}
