//! Typed records for the four GAM tables and their enumerations.

use crate::error::{GamError, GamResult};
use crate::ids::{ObjectId, ObjectRelId, SourceId, SourceRelId};
use std::fmt;

/// Content category of a source (paper Figure 4: "Gene, Protein, Other").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceContent {
    Gene,
    Protein,
    Other,
}

impl SourceContent {
    /// Integer code as stored in the `SOURCE.content` column.
    pub fn code(self) -> i64 {
        match self {
            SourceContent::Gene => 0,
            SourceContent::Protein => 1,
            SourceContent::Other => 2,
        }
    }

    /// Decode a stored integer code.
    pub fn from_code(code: i64) -> GamResult<Self> {
        Ok(match code {
            0 => SourceContent::Gene,
            1 => SourceContent::Protein,
            2 => SourceContent::Other,
            _ => {
                return Err(GamError::BadEnumCode {
                    what: "source content",
                    code,
                })
            }
        })
    }
}

impl fmt::Display for SourceContent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SourceContent::Gene => "Gene",
            SourceContent::Protein => "Protein",
            SourceContent::Other => "Other",
        })
    }
}

/// Structure of a source (paper Figure 4: "Flat, Network"). A *Network*
/// source organizes its objects in a structure such as a taxonomy or a
/// database schema; a *Flat* source is a plain object collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceStructure {
    Flat,
    Network,
}

impl SourceStructure {
    /// Integer code as stored in the `SOURCE.structure` column.
    pub fn code(self) -> i64 {
        match self {
            SourceStructure::Flat => 0,
            SourceStructure::Network => 1,
        }
    }

    /// Decode a stored integer code.
    pub fn from_code(code: i64) -> GamResult<Self> {
        Ok(match code {
            0 => SourceStructure::Flat,
            1 => SourceStructure::Network,
            _ => {
                return Err(GamError::BadEnumCode {
                    what: "source structure",
                    code,
                })
            }
        })
    }
}

impl fmt::Display for SourceStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SourceStructure::Flat => "Flat",
            SourceStructure::Network => "Network",
        })
    }
}

/// Type of a source-level relationship (paper §3).
///
/// * **Annotation** relationships are imported from external sources:
///   [`Fact`](RelType::Fact) (taken as facts, e.g. a gene's genome
///   position) and [`Similarity`](RelType::Similarity) (computed, e.g.
///   sequence homology), the latter typically carrying evidence values.
/// * **Structural** relationships capture source structure:
///   [`Contains`](RelType::Contains) (source ↔ its partitions) and
///   [`IsA`](RelType::IsA) (term hierarchy inside a taxonomy).
/// * **Derived** relationships are computed by GenMapper itself:
///   [`Composed`](RelType::Composed) (transitive combination of mappings)
///   and [`Subsumed`](RelType::Subsumed) (closure of the IS_A structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelType {
    Fact,
    Similarity,
    Contains,
    IsA,
    Composed,
    Subsumed,
}

impl RelType {
    /// Integer code as stored in the `SOURCE_REL.type` column.
    pub fn code(self) -> i64 {
        match self {
            RelType::Fact => 0,
            RelType::Similarity => 1,
            RelType::Contains => 2,
            RelType::IsA => 3,
            RelType::Composed => 4,
            RelType::Subsumed => 5,
        }
    }

    /// Decode a stored integer code.
    pub fn from_code(code: i64) -> GamResult<Self> {
        Ok(match code {
            0 => RelType::Fact,
            1 => RelType::Similarity,
            2 => RelType::Contains,
            3 => RelType::IsA,
            4 => RelType::Composed,
            5 => RelType::Subsumed,
            _ => {
                return Err(GamError::BadEnumCode {
                    what: "relationship type",
                    code,
                })
            }
        })
    }

    /// Imported annotation relationship (Fact or Similarity).
    pub fn is_annotation(self) -> bool {
        matches!(self, RelType::Fact | RelType::Similarity)
    }

    /// Structural relationship (Contains or IsA).
    pub fn is_structural(self) -> bool {
        matches!(self, RelType::Contains | RelType::IsA)
    }

    /// Relationship derived by GenMapper (Composed or Subsumed).
    pub fn is_derived(self) -> bool {
        matches!(self, RelType::Composed | RelType::Subsumed)
    }

    /// All relationship types.
    pub fn all() -> [RelType; 6] {
        [
            RelType::Fact,
            RelType::Similarity,
            RelType::Contains,
            RelType::IsA,
            RelType::Composed,
            RelType::Subsumed,
        ]
    }
}

impl fmt::Display for RelType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RelType::Fact => "Fact",
            RelType::Similarity => "Similarity",
            RelType::Contains => "Contains",
            RelType::IsA => "IS_A",
            RelType::Composed => "Composed",
            RelType::Subsumed => "Subsumed",
        })
    }
}

/// A row of the `SOURCE` table.
#[derive(Debug, Clone, PartialEq)]
pub struct Source {
    pub id: SourceId,
    /// Source name, unique (e.g. "LocusLink", "GO.BiologicalProcess").
    pub name: String,
    pub content: SourceContent,
    pub structure: SourceStructure,
    /// Audit information used for duplicate elimination at the source
    /// level: the release tag of the imported dump (paper §4.1 "we examine
    /// source names and audit information, such as date and release").
    pub release: Option<String>,
    /// Monotonic import sequence number (audit date surrogate).
    pub imported_seq: u64,
}

/// A row of the `OBJECT` table.
#[derive(Debug, Clone, PartialEq)]
pub struct GamObject {
    pub id: ObjectId,
    pub source: SourceId,
    /// Source-specific identifier, unique within the source.
    pub accession: String,
    /// Optional textual component (e.g. the object's name).
    pub text: Option<String>,
    /// Optional numeric representation.
    pub number: Option<f64>,
}

impl GamObject {
    /// Validate domain constraints.
    pub fn validate(&self) -> GamResult<()> {
        if self.accession.is_empty() {
            return Err(GamError::Invalid("object accession is empty".into()));
        }
        Ok(())
    }
}

/// An `OBJECT` row lent by a reader ([`crate::GamRead::with_objects`]): the
/// strings borrowed where the reader holds them, nothing copied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectRef<'a> {
    pub id: ObjectId,
    pub source: SourceId,
    pub accession: &'a str,
    pub text: Option<&'a str>,
    pub number: Option<f64>,
}

impl<'a> From<&'a GamObject> for ObjectRef<'a> {
    fn from(object: &'a GamObject) -> Self {
        ObjectRef {
            id: object.id,
            source: object.source,
            accession: &object.accession,
            text: object.text.as_deref(),
            number: object.number,
        }
    }
}

impl From<ObjectRef<'_>> for GamObject {
    fn from(object: ObjectRef<'_>) -> Self {
        GamObject {
            id: object.id,
            source: object.source,
            accession: object.accession.to_owned(),
            text: object.text.map(str::to_owned),
            number: object.number,
        }
    }
}

/// A row of the `SOURCE_REL` table: a mapping between two sources (or
/// within one source, for structural relationships).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceRel {
    pub id: SourceRelId,
    pub source1: SourceId,
    pub source2: SourceId,
    pub rel_type: RelType,
    /// For derived mappings, a human-readable derivation (e.g. the mapping
    /// path "Unigene-LocusLink-GO" of a Composed mapping).
    pub derivation: Option<String>,
}

impl SourceRel {
    /// Validate domain constraints: structural relationships live within or
    /// below a source; annotation mappings connect two distinct sources.
    pub fn validate(&self) -> GamResult<()> {
        if self.rel_type.is_annotation() && self.source1 == self.source2 {
            return Err(GamError::Invalid(format!(
                "annotation mapping {} relates source {} to itself",
                self.id, self.source1
            )));
        }
        Ok(())
    }
}

/// A row of the `OBJECT_REL` table: one association between two objects,
/// belonging to a source-level mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectRel {
    pub id: ObjectRelId,
    pub source_rel: SourceRelId,
    pub object1: ObjectId,
    pub object2: ObjectId,
    /// Computed plausibility of the association in `[0, 1]`; `None` for
    /// fact associations.
    pub evidence: Option<f64>,
}

impl ObjectRel {
    /// Validate domain constraints.
    pub fn validate(&self) -> GamResult<()> {
        if let Some(e) = self.evidence {
            if !(0.0..=1.0).contains(&e) || e.is_nan() {
                return Err(GamError::BadEvidence(e));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_codes_roundtrip() {
        for c in [SourceContent::Gene, SourceContent::Protein, SourceContent::Other] {
            assert_eq!(SourceContent::from_code(c.code()).unwrap(), c);
        }
        for s in [SourceStructure::Flat, SourceStructure::Network] {
            assert_eq!(SourceStructure::from_code(s.code()).unwrap(), s);
        }
        for t in RelType::all() {
            assert_eq!(RelType::from_code(t.code()).unwrap(), t);
        }
        assert!(SourceContent::from_code(99).is_err());
        assert!(SourceStructure::from_code(-1).is_err());
        assert!(RelType::from_code(6).is_err());
    }

    #[test]
    fn reltype_classification_partitions() {
        for t in RelType::all() {
            let flags = [t.is_annotation(), t.is_structural(), t.is_derived()];
            assert_eq!(flags.iter().filter(|f| **f).count(), 1, "{t} in exactly one class");
        }
        assert!(RelType::Fact.is_annotation());
        assert!(RelType::Similarity.is_annotation());
        assert!(RelType::Contains.is_structural());
        assert!(RelType::IsA.is_structural());
        assert!(RelType::Composed.is_derived());
        assert!(RelType::Subsumed.is_derived());
    }

    #[test]
    fn display_matches_paper_vocabulary() {
        assert_eq!(RelType::IsA.to_string(), "IS_A");
        assert_eq!(RelType::Composed.to_string(), "Composed");
        assert_eq!(SourceContent::Gene.to_string(), "Gene");
        assert_eq!(SourceStructure::Network.to_string(), "Network");
    }

    #[test]
    fn validation_rules() {
        let obj = GamObject {
            id: ObjectId(1),
            source: SourceId(1),
            accession: String::new(),
            text: None,
            number: None,
        };
        assert!(obj.validate().is_err());

        let rel = SourceRel {
            id: SourceRelId(1),
            source1: SourceId(1),
            source2: SourceId(1),
            rel_type: RelType::Fact,
            derivation: None,
        };
        assert!(rel.validate().is_err());
        let rel = SourceRel {
            rel_type: RelType::IsA,
            ..rel
        };
        assert!(rel.validate().is_ok(), "structural self-relations are fine");

        let assoc = ObjectRel {
            id: ObjectRelId(1),
            source_rel: SourceRelId(1),
            object1: ObjectId(1),
            object2: ObjectId(2),
            evidence: Some(1.5),
        };
        assert!(assoc.validate().is_err());
        let assoc = ObjectRel {
            evidence: Some(f64::NAN),
            ..assoc
        };
        assert!(assoc.validate().is_err());
        let assoc = ObjectRel {
            evidence: Some(0.9),
            ..assoc
        };
        assert!(assoc.validate().is_ok());
    }
}
