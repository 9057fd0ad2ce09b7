//! Staged EAV records.

use std::fmt;

/// One record of parse output.
///
/// The `Annotation` variant is the paper's Table 1 row: for LocusLink locus
/// 353 the parser emits `(353, Hugo, APRT, "adenine
/// phosphoribosyltransferase")`, `(353, Location, 16q24, -)`,
/// `(353, Enzyme, 2.4.2.7, -)`, `(353, GO, GO:0009116, "nucleoside
/// metabolism")`, and so on.
#[derive(Debug, Clone, PartialEq)]
pub enum EavRecord {
    /// Declares an object of the parsed source itself.
    Object {
        /// Source-specific identifier.
        accession: String,
        /// Optional textual component (name).
        text: Option<String>,
        /// Optional numeric representation.
        number: Option<f64>,
    },
    /// An annotation: the parsed entity cross-references an object of a
    /// target source.
    Annotation {
        /// Accession of the annotated object in the parsed source.
        entity: String,
        /// Name of the target source providing the annotation (may be a
        /// pseudo-source such as `Location`).
        target: String,
        /// Accession of the annotating object in the target source.
        accession: String,
        /// Optional textual component of the annotating object.
        text: Option<String>,
        /// Optional evidence in `[0, 1]`; present for computed
        /// (Similarity) relationships, absent for facts.
        evidence: Option<f64>,
    },
    /// An intra-source `IS_A` edge (taxonomy sources only): `child IS_A
    /// parent`.
    IsA { child: String, parent: String },
}

impl EavRecord {
    /// Convenience constructor for an object record.
    pub fn object(accession: impl Into<String>) -> Self {
        EavRecord::Object {
            accession: accession.into(),
            text: None,
            number: None,
        }
    }

    /// Convenience constructor for a named object record.
    pub fn named_object(accession: impl Into<String>, text: impl Into<String>) -> Self {
        EavRecord::Object {
            accession: accession.into(),
            text: Some(text.into()),
            number: None,
        }
    }

    /// Convenience constructor for a fact annotation.
    pub fn annotation(
        entity: impl Into<String>,
        target: impl Into<String>,
        accession: impl Into<String>,
    ) -> Self {
        EavRecord::Annotation {
            entity: entity.into(),
            target: target.into(),
            accession: accession.into(),
            text: None,
            evidence: None,
        }
    }

    /// Convenience constructor for an annotation with a text component.
    pub fn annotation_with_text(
        entity: impl Into<String>,
        target: impl Into<String>,
        accession: impl Into<String>,
        text: impl Into<String>,
    ) -> Self {
        EavRecord::Annotation {
            entity: entity.into(),
            target: target.into(),
            accession: accession.into(),
            text: Some(text.into()),
            evidence: None,
        }
    }

    /// Convenience constructor for a similarity annotation.
    pub fn similarity(
        entity: impl Into<String>,
        target: impl Into<String>,
        accession: impl Into<String>,
        evidence: f64,
    ) -> Self {
        EavRecord::Annotation {
            entity: entity.into(),
            target: target.into(),
            accession: accession.into(),
            text: None,
            evidence: Some(evidence),
        }
    }

    /// Convenience constructor for an `IS_A` edge.
    pub fn is_a(child: impl Into<String>, parent: impl Into<String>) -> Self {
        EavRecord::IsA {
            child: child.into(),
            parent: parent.into(),
        }
    }

    /// Normalize whitespace in all string fields (parse output from flat
    /// files commonly carries stray padding).
    pub fn normalize(&mut self) {
        fn trim(s: &mut String) {
            let t = s.trim();
            if t.len() != s.len() {
                *s = t.to_owned();
            }
        }
        fn trim_opt(s: &mut Option<String>) {
            if let Some(inner) = s {
                let t = inner.trim();
                if t.is_empty() {
                    *s = None;
                } else if t.len() != inner.len() {
                    *inner = t.to_owned();
                }
            }
        }
        match self {
            EavRecord::Object { accession, text, .. } => {
                trim(accession);
                trim_opt(text);
            }
            EavRecord::Annotation {
                entity,
                target,
                accession,
                text,
                ..
            } => {
                trim(entity);
                trim(target);
                trim(accession);
                trim_opt(text);
            }
            EavRecord::IsA { child, parent } => {
                trim(child);
                trim(parent);
            }
        }
    }

    /// True if [`normalize`](Self::normalize) would leave the record
    /// unchanged: no stray padding, no blank-but-present text. Lets the
    /// importer skip cloning batches that are already clean.
    pub fn is_normalized(&self) -> bool {
        fn clean(s: &str) -> bool {
            s.trim().len() == s.len()
        }
        fn clean_opt(s: &Option<String>) -> bool {
            s.as_deref().is_none_or(|t| !t.trim().is_empty() && clean(t))
        }
        match self {
            EavRecord::Object { accession, text, .. } => clean(accession) && clean_opt(text),
            EavRecord::Annotation {
                entity,
                target,
                accession,
                text,
                ..
            } => clean(entity) && clean(target) && clean(accession) && clean_opt(text),
            EavRecord::IsA { child, parent } => clean(child) && clean(parent),
        }
    }

    /// True if the record is structurally valid: non-empty keys, evidence
    /// (when present) within `[0, 1]`.
    pub fn is_valid(&self) -> bool {
        match self {
            EavRecord::Object { accession, .. } => !accession.is_empty(),
            EavRecord::Annotation {
                entity,
                target,
                accession,
                evidence,
                ..
            } => {
                !entity.is_empty()
                    && !target.is_empty()
                    && !accession.is_empty()
                    && evidence.is_none_or(|e| (0.0..=1.0).contains(&e) && !e.is_nan())
            }
            EavRecord::IsA { child, parent } => {
                !child.is_empty() && !parent.is_empty() && child != parent
            }
        }
    }
}

impl fmt::Display for EavRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EavRecord::Object { accession, text, .. } => {
                write!(f, "O {accession}")?;
                if let Some(t) = text {
                    write!(f, " ({t})")?;
                }
                Ok(())
            }
            EavRecord::Annotation {
                entity,
                target,
                accession,
                ..
            } => write!(f, "A {entity} -[{target}]-> {accession}"),
            EavRecord::IsA { child, parent } => write!(f, "I {child} IS_A {parent}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_for_locus_353() {
        // The paper's Table 1 quadruples, as a parser would emit them.
        let rows = [EavRecord::annotation_with_text("353", "Hugo", "APRT", "adenine phosphoribosyltransferase"),
            EavRecord::annotation("353", "Location", "16q24"),
            EavRecord::annotation("353", "Enzyme", "2.4.2.7"),
            EavRecord::annotation_with_text("353", "GO", "GO:0009116", "nucleoside metabolism")];
        assert!(rows.iter().all(EavRecord::is_valid));
        assert_eq!(rows[0].to_string(), "A 353 -[Hugo]-> APRT");
    }

    #[test]
    fn normalization() {
        let mut r = EavRecord::Annotation {
            entity: " 353 ".into(),
            target: "GO ".into(),
            accession: " GO:1".into(),
            text: Some("   ".into()),
            evidence: None,
        };
        r.normalize();
        match r {
            EavRecord::Annotation {
                entity,
                target,
                accession,
                text,
                ..
            } => {
                assert_eq!(entity, "353");
                assert_eq!(target, "GO");
                assert_eq!(accession, "GO:1");
                assert_eq!(text, None, "blank text collapses to None");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn validity_rules() {
        assert!(!EavRecord::object("").is_valid());
        assert!(EavRecord::object("353").is_valid());
        assert!(!EavRecord::annotation("", "GO", "x").is_valid());
        assert!(!EavRecord::annotation("353", "", "x").is_valid());
        assert!(!EavRecord::annotation("353", "GO", "").is_valid());
        assert!(!EavRecord::similarity("a", "b", "c", 1.2).is_valid());
        assert!(!EavRecord::similarity("a", "b", "c", f64::NAN).is_valid());
        assert!(EavRecord::similarity("a", "b", "c", 0.7).is_valid());
        assert!(!EavRecord::is_a("x", "x").is_valid(), "self IS_A rejected");
        assert!(EavRecord::is_a("x", "y").is_valid());
    }

    #[test]
    fn is_normalized_agrees_with_normalize() {
        let dirty = [
            EavRecord::object(" 353"),
            EavRecord::named_object("353", "  "),
            EavRecord::annotation("353", "GO ", "x"),
            EavRecord::is_a("a ", "b"),
        ];
        for r in dirty {
            assert!(!r.is_normalized(), "{r} should read as dirty");
            let mut n = r.clone();
            n.normalize();
            assert!(n.is_normalized(), "{n} should be clean after normalize");
        }
        assert!(EavRecord::named_object("353", "APRT").is_normalized());
    }

    #[test]
    fn display_forms() {
        assert_eq!(EavRecord::named_object("353", "APRT").to_string(), "O 353 (APRT)");
        assert_eq!(EavRecord::is_a("a", "b").to_string(), "I a IS_A b");
    }
}
