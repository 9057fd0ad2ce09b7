//! Batches of parse output with source metadata.

use crate::record::EavRecord;
use gam::model::{SourceContent, SourceStructure};

/// Metadata of the source a batch was parsed from. The `release` tag is
/// the audit information used for duplicate elimination at the source level
/// (paper §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceMeta {
    /// Source name, e.g. `LocusLink`.
    pub name: String,
    /// Release/version tag of the parsed dump, e.g. `2003-10`.
    pub release: String,
    /// Content classification.
    pub content: SourceContent,
    /// Structure classification (`Network` for taxonomy sources).
    pub structure: SourceStructure,
    /// Names of sub-divisions this source `Contains` (e.g. GO's
    /// `BiologicalProcess`, `MolecularFunction`, `CellularComponent`).
    pub partitions: Vec<String>,
}

impl SourceMeta {
    /// A flat gene source with no partitions.
    pub fn flat_gene(name: impl Into<String>, release: impl Into<String>) -> Self {
        SourceMeta {
            name: name.into(),
            release: release.into(),
            content: SourceContent::Gene,
            structure: SourceStructure::Flat,
            partitions: Vec::new(),
        }
    }

    /// A network (taxonomy) source.
    pub fn network(
        name: impl Into<String>,
        release: impl Into<String>,
        content: SourceContent,
    ) -> Self {
        SourceMeta {
            name: name.into(),
            release: release.into(),
            content,
            structure: SourceStructure::Network,
            partitions: Vec::new(),
        }
    }
}

/// Everything parsed from one source dump.
#[derive(Debug, Clone, PartialEq)]
pub struct EavBatch {
    pub meta: SourceMeta,
    pub records: Vec<EavRecord>,
}

impl EavBatch {
    /// An empty batch for a source.
    pub fn new(meta: SourceMeta) -> Self {
        EavBatch {
            meta,
            records: Vec::new(),
        }
    }

    /// Append a record.
    pub fn push(&mut self, record: EavRecord) {
        self.records.push(record);
    }

    /// Normalize all records and drop invalid ones; returns how many were
    /// dropped (malformed lines from dirty flat files).
    pub fn sanitize(&mut self) -> usize {
        for r in &mut self.records {
            r.normalize();
        }
        let before = self.records.len();
        self.records.retain(EavRecord::is_valid);
        before - self.records.len()
    }

    /// True if [`sanitize`](Self::sanitize) would be a no-op: every record
    /// is already normalized and valid. The importer uses this to avoid
    /// cloning clean batches.
    pub fn is_clean(&self) -> bool {
        self.records.iter().all(|r| r.is_normalized() && r.is_valid())
    }

    /// Count records by kind: (objects, annotations, is_a edges).
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut objects = 0;
        let mut annotations = 0;
        let mut isa = 0;
        for r in &self.records {
            match r {
                EavRecord::Object { .. } => objects += 1,
                EavRecord::Annotation { .. } => annotations += 1,
                EavRecord::IsA { .. } => isa += 1,
            }
        }
        (objects, annotations, isa)
    }

    /// Distinct target source names referenced by annotation records,
    /// sorted. These are the sources `Import` must relate against.
    pub fn referenced_targets(&self) -> Vec<&str> {
        let mut targets: Vec<&str> = self
            .records
            .iter()
            .filter_map(|r| match r {
                EavRecord::Annotation { target, .. } => Some(target.as_str()),
                _ => None,
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> EavBatch {
        let mut b = EavBatch::new(SourceMeta::flat_gene("LocusLink", "r1"));
        b.push(EavRecord::named_object("353", "APRT"));
        b.push(EavRecord::annotation("353", "Hugo", "APRT"));
        b.push(EavRecord::annotation("353", "GO", "GO:0009116"));
        b.push(EavRecord::annotation("353", "GO", "GO:0006139"));
        b
    }

    #[test]
    fn counts_and_targets() {
        let b = batch();
        assert_eq!(b.counts(), (1, 3, 0));
        assert_eq!(b.referenced_targets(), vec!["GO", "Hugo"]);
    }

    #[test]
    fn sanitize_drops_invalid() {
        let mut b = batch();
        b.push(EavRecord::object("  ")); // trims to empty -> invalid
        b.push(EavRecord::annotation("", "GO", "x"));
        b.push(EavRecord::is_a(" t1 ", "t1")); // self loop after trim
        let dropped = b.sanitize();
        assert_eq!(dropped, 3);
        assert_eq!(b.records.len(), 4);
    }

    #[test]
    fn clean_batches_are_detected() {
        let mut b = batch();
        assert!(b.is_clean());
        b.push(EavRecord::object(" padded "));
        assert!(!b.is_clean());
        b.sanitize();
        assert!(b.is_clean());
        b.push(EavRecord::is_a("x", "x")); // normalized but invalid
        assert!(!b.is_clean());
    }

    #[test]
    fn meta_constructors() {
        let m = SourceMeta::flat_gene("Unigene", "b171");
        assert_eq!(m.structure, SourceStructure::Flat);
        assert_eq!(m.content, SourceContent::Gene);
        let m = SourceMeta::network("GO", "2003-12", SourceContent::Other);
        assert_eq!(m.structure, SourceStructure::Network);
    }
}
