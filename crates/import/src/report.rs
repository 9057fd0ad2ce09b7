//! Import reports: what one batch did to the database.

use std::fmt;
use std::time::Duration;

/// Wall-clock spent per import phase, accumulated across batches.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ImportTimings {
    /// Parsing dumps into EAV batches (filled in by the pipeline; a bare
    /// [`Importer`](crate::Importer) never parses).
    pub parse: Duration,
    /// Resolution and grouping: sanitize, annotation grouping, batched
    /// source lookups, symbol-map construction.
    pub resolve: Duration,
    /// Store mutations: bulk object and association inserts.
    pub insert: Duration,
    /// The wait on the group-commit window's WAL fsync: once a batch for a
    /// bare [`Importer`](crate::Importer), once a call for the pipeline
    /// (whose window the importers join, so theirs read about zero).
    pub wal: Duration,
}

impl ImportTimings {
    /// Fold another sample into this one.
    pub fn absorb(&mut self, other: &ImportTimings) {
        self.parse += other.parse;
        self.resolve += other.resolve;
        self.insert += other.insert;
        self.wal += other.wal;
    }

    /// Total across all phases.
    pub fn total(&self) -> Duration {
        self.parse + self.resolve + self.insert + self.wal
    }
}

/// Outcome of importing one EAV batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Source name the batch belonged to.
    pub source: String,
    /// Release tag of the batch.
    pub release: String,
    /// True if the whole batch was skipped because the same (name,
    /// release) was already imported.
    pub skipped: bool,
    /// True if the source row was created by this import (false for
    /// re-imports and for previously-created stubs now being filled).
    pub source_created: bool,
    /// Objects inserted, per owning source (the parsed source itself plus
    /// any annotation targets).
    pub objects_created: usize,
    /// Object records that resolved to existing objects (dedup hits).
    pub objects_deduped: usize,
    /// Target sources newly registered as stubs.
    pub stub_sources_created: Vec<String>,
    /// Source-level mappings (SOURCE_REL rows) created.
    pub mappings_created: usize,
    /// Object associations inserted.
    pub associations_created: usize,
    /// Association records skipped as duplicates.
    pub associations_deduped: usize,
    /// Malformed records dropped during sanitization.
    pub records_dropped: usize,
    /// Dump lines quarantined by lenient parsing (empty unless the
    /// pipeline ran with a non-zero error budget and the dump needed it).
    pub quarantined: Vec<sources::QuarantinedLine>,
}

impl ImportReport {
    /// A report for a batch skipped by source-level dedup.
    pub fn skipped(source: &str, release: &str) -> Self {
        ImportReport {
            source: source.to_owned(),
            release: release.to_owned(),
            skipped: true,
            ..Default::default()
        }
    }
}

impl fmt::Display for ImportReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.skipped {
            return write!(f, "{} ({}): skipped, already imported", self.source, self.release);
        }
        write!(
            f,
            "{} ({}): +{} objects ({} deduped), +{} mappings, +{} associations ({} deduped)",
            self.source,
            self.release,
            self.objects_created,
            self.objects_deduped,
            self.mappings_created,
            self.associations_created,
            self.associations_deduped,
        )?;
        if !self.stub_sources_created.is_empty() {
            write!(f, ", stubs: {}", self.stub_sources_created.join(", "))?;
        }
        if !self.quarantined.is_empty() {
            write!(f, ", {} quarantined", self.quarantined.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let r = ImportReport::skipped("GO", "200312");
        assert!(r.to_string().contains("skipped"));
        let r = ImportReport {
            source: "LocusLink".into(),
            release: "r1".into(),
            objects_created: 10,
            associations_created: 25,
            stub_sources_created: vec!["Hugo".into()],
            ..Default::default()
        };
        let text = r.to_string();
        assert!(text.contains("+10 objects"));
        assert!(text.contains("stubs: Hugo"));
    }
}
