//! The generic EAV→GAM importer.
//!
//! The default path ([`Importer::import`] / [`Importer::import_owned`]) is
//! batch-oriented: annotation records are grouped with borrowed keys (the
//! batch itself is the string arena), all partition/target source names are
//! resolved in one index pass, object accessions resolve through the
//! store's batched accession resolver, and every store write lands inside
//! one WAL group-commit window so a batch pays a single fsync. The
//! pre-batching implementation survives as
//! [`Importer::import_per_row`] — the reference the equivalence property
//! tests and benchmarks compare against; both paths make identical dedup
//! decisions and assign identical ids.

use crate::report::{ImportReport, ImportTimings};
use eav::{EavBatch, EavRecord};
use gam::mapping::Association;
use gam::model::{RelType, SourceContent, SourceStructure};
use gam::{GamError, GamRead, GamResult, GamStore, ObjectId, SourceId};
use std::collections::BTreeMap;
use std::time::Instant;

/// Imports EAV batches into a [`GamStore`], applying source- and
/// object-level duplicate elimination.
pub struct Importer<'a> {
    store: &'a mut GamStore,
    timings: ImportTimings,
}

impl<'a> Importer<'a> {
    /// Wrap a store.
    pub fn new(store: &'a mut GamStore) -> Self {
        Importer {
            store,
            timings: ImportTimings::default(),
        }
    }

    /// Per-phase wall-clock accumulated by this importer (resolve, insert,
    /// wal; parse is filled in by the pipeline).
    pub fn timings(&self) -> ImportTimings {
        self.timings
    }

    /// Import one batch. The batch is sanitized (normalized, invalid
    /// records dropped) before integration; already-clean batches are
    /// imported without copying.
    pub fn import(&mut self, batch: &EavBatch) -> GamResult<ImportReport> {
        if batch.is_clean() {
            self.import_sanitized(batch, 0)
        } else {
            let mut owned = batch.clone();
            let dropped = owned.sanitize();
            self.import_sanitized(&owned, dropped)
        }
    }

    /// Import one batch by value, sanitizing in place. The pipeline hands
    /// its parse output here so no batch is ever cloned.
    pub fn import_owned(&mut self, mut batch: EavBatch) -> GamResult<ImportReport> {
        let dropped = batch.sanitize();
        self.import_sanitized(&batch, dropped)
    }

    fn import_sanitized(&mut self, batch: &EavBatch, dropped: usize) -> GamResult<ImportReport> {
        let start = Instant::now();
        let insert0 = self.timings.insert;
        let wal0 = self.timings.wal;
        let mut report = ImportReport {
            source: batch.meta.name.clone(),
            release: batch.meta.release.clone(),
            records_dropped: dropped,
            ..Default::default()
        };

        // ---- source-level duplicate elimination -----------------------
        let existing = self.store.find_source(&batch.meta.name)?;
        if let Some(src) = &existing {
            if src.release.as_deref() == Some(batch.meta.release.as_str()) {
                // Same name and audit info: the batch is already in.
                report.skipped = true;
                self.timings.resolve += start.elapsed();
                return Ok(report);
            }
        }

        // Everything the batch writes commits inside one group-commit
        // window: the WAL is fsynced once, at the end.
        self.store.begin_group_commit();
        let body = self.import_body(existing, batch, &mut report);
        let wal_start = Instant::now();
        let synced = self.store.end_group_commit();
        self.timings.wal += wal_start.elapsed();
        body?;
        synced?;
        let attributed = (self.timings.insert - insert0) + (self.timings.wal - wal0);
        self.timings.resolve += start.elapsed().saturating_sub(attributed);
        Ok(report)
    }

    fn import_body(
        &mut self,
        existing: Option<gam::model::Source>,
        batch: &EavBatch,
        report: &mut ImportReport,
    ) -> GamResult<()> {
        let source = match existing {
            Some(existing) => {
                // Incremental re-import: relate new records against the
                // existing objects. The source's own dump is authoritative
                // for its classification, so a stub created from
                // cross-references is upgraded here.
                if existing.content != batch.meta.content
                    || existing.structure != batch.meta.structure
                {
                    self.store.update_source_meta(
                        existing.id,
                        batch.meta.content,
                        batch.meta.structure,
                    )?;
                }
                existing
            }
            None => {
                report.source_created = true;
                self.store.create_source(
                    &batch.meta.name,
                    batch.meta.content,
                    batch.meta.structure,
                    None,
                )?
            }
        };

        // ---- annotation groups, keyed by (target, kind) ----------------
        // Separate fact and similarity associations per target: they back
        // distinct SOURCE_REL rows of different types. Keys borrow from
        // the batch; iteration order matches the owned-key map the per-row
        // path used, so stub creation order (and thus ids) is unchanged.
        type AnnotationRow<'r> = (&'r str, &'r str, Option<&'r str>, Option<f64>);
        let mut groups: BTreeMap<(&str, bool), Vec<AnnotationRow<'_>>> = BTreeMap::new();
        for record in &batch.records {
            if let EavRecord::Annotation {
                entity,
                target,
                accession,
                text,
                evidence,
            } = record
            {
                groups
                    .entry((target.as_str(), evidence.is_some()))
                    .or_default()
                    .push((entity, accession, text.as_deref(), *evidence));
            }
        }

        // ---- batched source resolution (partitions + targets) ----------
        // One sorted index pass answers every partition and annotation
        // target lookup for this batch; stubs created below are recorded
        // in `known` so later groups see them, exactly as per-group
        // `find_source` calls would.
        let pnames: Vec<String> = batch
            .meta
            .partitions
            .iter()
            .map(|p| format!("{}.{}", batch.meta.name, p))
            .collect();
        let mut probe: Vec<&str> = pnames.iter().map(String::as_str).collect();
        probe.extend(groups.keys().map(|(target, _)| *target));
        let hits = self.store.find_sources(&probe)?;
        let mut known: BTreeMap<&str, SourceId> = BTreeMap::new();
        for (name, hit) in probe.iter().zip(&hits) {
            if let Some(s) = hit {
                known.insert(name, s.id);
            }
        }
        known.insert(batch.meta.name.as_str(), source.id);

        // ---- partitions (Contains relationships) ----------------------
        for pname in &pnames {
            let pid = match known.get(pname.as_str()) {
                Some(id) => *id,
                None => {
                    report.stub_sources_created.push(pname.clone());
                    let id = self
                        .store
                        .create_source(pname, batch.meta.content, batch.meta.structure, None)?
                        .id;
                    known.insert(pname.as_str(), id);
                    id
                }
            };
            if self
                .store
                .find_source_rel(source.id, pid, Some(RelType::Contains))?
                .is_none()
            {
                self.store
                    .create_source_rel(source.id, pid, RelType::Contains, None)?;
                report.mappings_created += 1;
            }
        }

        // ---- objects of the parsed source ------------------------------
        // Merge Object records by accession (a dump may first declare the
        // accession and later add its name), preferring non-empty fields.
        let mut own_objects: BTreeMap<&str, (Option<&str>, Option<f64>)> = BTreeMap::new();
        for record in &batch.records {
            match record {
                EavRecord::Object {
                    accession,
                    text,
                    number,
                } => {
                    let entry = own_objects.entry(accession.as_str()).or_default();
                    if let Some(t) = text.as_deref() {
                        entry.0 = Some(t);
                    }
                    if let Some(n) = *number {
                        entry.1 = Some(n);
                    }
                }
                // entities referenced by annotations/edges belong to this
                // source too, even if never declared explicitly
                EavRecord::Annotation { entity, .. } => {
                    own_objects.entry(entity.as_str()).or_default();
                }
                EavRecord::IsA { child, parent } => {
                    own_objects.entry(child.as_str()).or_default();
                    own_objects.entry(parent.as_str()).or_default();
                }
            }
        }
        let object_rows: Vec<(&str, Option<&str>, Option<f64>)> = own_objects
            .iter()
            .map(|(acc, (text, number))| (*acc, *text, *number))
            .collect();
        let t = Instant::now();
        let inserted = self.store.add_objects_bulk_ref(source.id, &object_rows);
        self.timings.insert += t.elapsed();
        let (ids, created) = inserted?;
        report.objects_created += created;
        report.objects_deduped += object_rows.len() - created;
        // symbol table: accession -> id for every object of this source
        // touched by the batch; association building below never goes
        // back to the store for an id
        let own_ids: BTreeMap<&str, ObjectId> = object_rows
            .iter()
            .map(|(acc, _, _)| *acc)
            .zip(ids)
            .collect();

        // ---- annotation relationships ----------------------------------
        for ((target_name, scored), rows) in &groups {
            let target = match known.get(target_name) {
                Some(id) => *id,
                None => {
                    // unknown target: register a stub source so its
                    // accessions have a home until the real dump arrives
                    report.stub_sources_created.push((*target_name).to_owned());
                    let id = self
                        .store
                        .create_source(
                            target_name,
                            stub_content(target_name),
                            SourceStructure::Flat,
                            None,
                        )?
                        .id;
                    known.insert(target_name, id);
                    id
                }
            };
            // objects on the target side (relate to existing data)
            let mut merged: BTreeMap<&str, Option<&str>> = BTreeMap::new();
            for (_, acc, text, _) in rows {
                let entry = merged.entry(acc).or_default();
                if text.is_some() {
                    *entry = *text;
                }
            }
            let target_rows: Vec<(&str, Option<&str>, Option<f64>)> =
                merged.iter().map(|(acc, text)| (*acc, *text, None)).collect();
            let t = Instant::now();
            let inserted = self.store.add_objects_bulk_ref(target, &target_rows);
            self.timings.insert += t.elapsed();
            let (tids, created) = inserted?;
            report.objects_created += created;
            report.objects_deduped += target_rows.len() - created;
            let target_ids: BTreeMap<&str, ObjectId> = target_rows
                .iter()
                .map(|(acc, _, _)| *acc)
                .zip(tids)
                .collect();

            let rel_type = if *scored {
                RelType::Similarity
            } else {
                RelType::Fact
            };
            // Reuse an existing mapping in either orientation (the reverse
            // direction exists when the target's own dump linked back to
            // this source first); associations must follow the stored
            // orientation.
            let (rel, forward) = match self
                .store
                .find_source_rel(source.id, target, Some(rel_type))?
            {
                Some((rel, fwd)) => (rel.id, fwd),
                None => {
                    report.mappings_created += 1;
                    (
                        self.store
                            .create_source_rel(source.id, target, rel_type, None)?,
                        true,
                    )
                }
            };
            let mut assocs = Vec::with_capacity(rows.len());
            for (entity, acc, _, evidence) in rows {
                let from = *own_ids.get(entity).ok_or_else(|| {
                    GamError::Invalid(format!(
                        "annotation entity {entity} missing from source {}",
                        batch.meta.name
                    ))
                })?;
                let to = *target_ids.get(acc).ok_or_else(|| {
                    GamError::Invalid(format!(
                        "annotating object {acc} missing from target {target_name}"
                    ))
                })?;
                let (o1, o2) = if forward { (from, to) } else { (to, from) };
                assocs.push(Association {
                    from: o1,
                    to: o2,
                    evidence: *evidence,
                });
            }
            let mut added = 0;
            let total = assocs.len();
            let t = Instant::now();
            let inserted = self.store.add_associations_bulk(rel, assocs, &mut added);
            self.timings.insert += t.elapsed();
            inserted?;
            report.associations_created += added;
            report.associations_deduped += total - added;
        }

        // ---- structural IS_A relationships ----------------------------
        let isa_edges: Vec<(&str, &str)> = batch
            .records
            .iter()
            .filter_map(|r| match r {
                EavRecord::IsA { child, parent } => Some((child.as_str(), parent.as_str())),
                _ => None,
            })
            .collect();
        if !isa_edges.is_empty() {
            let rel = match self
                .store
                .find_source_rel(source.id, source.id, Some(RelType::IsA))?
            {
                Some((rel, _)) => rel.id,
                None => {
                    report.mappings_created += 1;
                    self.store
                        .create_source_rel(source.id, source.id, RelType::IsA, None)?
                }
            };
            let mut assocs = Vec::with_capacity(isa_edges.len());
            for (child, parent) in isa_edges {
                let from = *own_ids.get(child).ok_or_else(|| {
                    GamError::Invalid(format!("IS_A child {child} missing from its source"))
                })?;
                let to = *own_ids.get(parent).ok_or_else(|| {
                    GamError::Invalid(format!("IS_A parent {parent} missing from its source"))
                })?;
                assocs.push(Association::fact(from, to));
            }
            let mut added = 0;
            let total = assocs.len();
            let t = Instant::now();
            let inserted = self.store.add_associations_bulk(rel, assocs, &mut added);
            self.timings.insert += t.elapsed();
            inserted?;
            report.associations_created += added;
            report.associations_deduped += total - added;
        }

        // The release tag is written *last*: the source-level dedup check
        // skips a dump whose recorded release already matches, so stamping
        // it only after every record landed means a crash mid-import leaves
        // the source without the new release and the re-import runs again
        // instead of being silently skipped against a half-loaded store.
        self.store
            .set_source_release(source.id, &batch.meta.release)?;

        Ok(())
    }

    /// The pre-batching reference implementation: one store lookup per
    /// accession, one transaction per logical step, one WAL fsync per
    /// commit. The equivalence property tests assert this path and the
    /// bulk path produce identical reports and store contents; the import
    /// benchmark uses it as the baseline. Not used by the pipeline.
    #[doc(hidden)]
    pub fn import_per_row(&mut self, batch: &EavBatch) -> GamResult<ImportReport> {
        let mut batch = batch.clone();
        let dropped = batch.sanitize();
        let mut report = ImportReport {
            source: batch.meta.name.clone(),
            release: batch.meta.release.clone(),
            records_dropped: dropped,
            ..Default::default()
        };

        let source = match self.store.find_source(&batch.meta.name)? {
            Some(existing) => {
                if existing.release.as_deref() == Some(batch.meta.release.as_str()) {
                    report.skipped = true;
                    return Ok(report);
                }
                if existing.content != batch.meta.content
                    || existing.structure != batch.meta.structure
                {
                    self.store.update_source_meta(
                        existing.id,
                        batch.meta.content,
                        batch.meta.structure,
                    )?;
                }
                existing
            }
            None => {
                report.source_created = true;
                self.store.create_source(
                    &batch.meta.name,
                    batch.meta.content,
                    batch.meta.structure,
                    None,
                )?
            }
        };

        for partition in &batch.meta.partitions {
            let pname = format!("{}.{}", batch.meta.name, partition);
            let pid = match self.store.find_source(&pname)? {
                Some(s) => s.id,
                None => {
                    report.stub_sources_created.push(pname.clone());
                    self.store
                        .create_source(&pname, batch.meta.content, batch.meta.structure, None)?
                        .id
                }
            };
            if self
                .store
                .find_source_rel(source.id, pid, Some(RelType::Contains))?
                .is_none()
            {
                self.store
                    .create_source_rel(source.id, pid, RelType::Contains, None)?;
                report.mappings_created += 1;
            }
        }

        let mut own_objects: BTreeMap<&str, (Option<&str>, Option<f64>)> = BTreeMap::new();
        for record in &batch.records {
            match record {
                EavRecord::Object {
                    accession,
                    text,
                    number,
                } => {
                    let entry = own_objects.entry(accession.as_str()).or_default();
                    if let Some(t) = text.as_deref() {
                        entry.0 = Some(t);
                    }
                    if let Some(n) = *number {
                        entry.1 = Some(n);
                    }
                }
                EavRecord::Annotation { entity, .. } => {
                    own_objects.entry(entity.as_str()).or_default();
                }
                EavRecord::IsA { child, parent } => {
                    own_objects.entry(child.as_str()).or_default();
                    own_objects.entry(parent.as_str()).or_default();
                }
            }
        }
        for (acc, (text, number)) in &own_objects {
            let (_, fresh) = self.store.ensure_object(source.id, acc, *text, *number)?;
            if fresh {
                report.objects_created += 1;
            } else {
                report.objects_deduped += 1;
            }
        }

        type AnnotationRow<'r> = (&'r str, &'r str, Option<&'r str>, Option<f64>);
        let mut groups: BTreeMap<(String, bool), Vec<AnnotationRow<'_>>> = BTreeMap::new();
        for record in &batch.records {
            if let EavRecord::Annotation {
                entity,
                target,
                accession,
                text,
                evidence,
            } = record
            {
                groups
                    .entry((target.clone(), evidence.is_some()))
                    .or_default()
                    .push((entity, accession, text.as_deref(), *evidence));
            }
        }
        for ((target_name, scored), rows) in &groups {
            let target = match self.store.find_source(target_name)? {
                Some(existing) => existing.id,
                None => {
                    report.stub_sources_created.push(target_name.clone());
                    self.store
                        .create_source(
                            target_name,
                            stub_content(target_name),
                            SourceStructure::Flat,
                            None,
                        )?
                        .id
                }
            };
            let mut merged: BTreeMap<&str, Option<&str>> = BTreeMap::new();
            for (_, acc, text, _) in rows {
                let entry = merged.entry(acc).or_default();
                if text.is_some() {
                    *entry = *text;
                }
            }
            for (acc, text) in &merged {
                let (_, fresh) = self.store.ensure_object(target, acc, *text, None)?;
                if fresh {
                    report.objects_created += 1;
                } else {
                    report.objects_deduped += 1;
                }
            }

            let rel_type = if *scored {
                RelType::Similarity
            } else {
                RelType::Fact
            };
            let (rel, forward) = match self
                .store
                .find_source_rel(source.id, target, Some(rel_type))?
            {
                Some((rel, fwd)) => (rel.id, fwd),
                None => {
                    report.mappings_created += 1;
                    (
                        self.store
                            .create_source_rel(source.id, target, rel_type, None)?,
                        true,
                    )
                }
            };
            for (entity, acc, _, evidence) in rows {
                let from = self.store.find_object(source.id, entity)?.ok_or_else(|| {
                    GamError::Invalid(format!(
                        "annotation entity {entity} missing from source {}",
                        batch.meta.name
                    ))
                })?;
                let to = self.store.find_object(target, acc)?.ok_or_else(|| {
                    GamError::Invalid(format!(
                        "annotating object {acc} missing from target {target_name}"
                    ))
                })?;
                let (o1, o2) = if forward {
                    (from.id, to.id)
                } else {
                    (to.id, from.id)
                };
                if self.store.add_association(rel, o1, o2, *evidence)? {
                    report.associations_created += 1;
                } else {
                    report.associations_deduped += 1;
                }
            }
        }

        let isa_edges: Vec<(&str, &str)> = batch
            .records
            .iter()
            .filter_map(|r| match r {
                EavRecord::IsA { child, parent } => Some((child.as_str(), parent.as_str())),
                _ => None,
            })
            .collect();
        if !isa_edges.is_empty() {
            let rel = match self
                .store
                .find_source_rel(source.id, source.id, Some(RelType::IsA))?
            {
                Some((rel, _)) => rel.id,
                None => {
                    report.mappings_created += 1;
                    self.store
                        .create_source_rel(source.id, source.id, RelType::IsA, None)?
                }
            };
            for (child, parent) in isa_edges {
                let from = self.store.find_object(source.id, child)?.ok_or_else(|| {
                    GamError::Invalid(format!("IS_A child {child} missing from its source"))
                })?;
                let to = self.store.find_object(source.id, parent)?.ok_or_else(|| {
                    GamError::Invalid(format!("IS_A parent {parent} missing from its source"))
                })?;
                if self.store.add_association(rel, from.id, to.id, None)? {
                    report.associations_created += 1;
                } else {
                    report.associations_deduped += 1;
                }
            }
        }

        // Release written last — see `import_body` for the crash rationale.
        self.store
            .set_source_release(source.id, &batch.meta.release)?;

        Ok(report)
    }
}

/// Heuristic content class for stub targets: gene-ish hubs are Gene,
/// everything else inherits a neutral `Other`.
fn stub_content(name: &str) -> SourceContent {
    match name {
        "LocusLink" | "Unigene" | "Hugo" => SourceContent::Gene,
        "SwissProt" | "InterPro" => SourceContent::Protein,
        _ => SourceContent::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eav::SourceMeta;

    fn store() -> GamStore {
        GamStore::in_memory().unwrap()
    }

    fn locuslink_batch() -> EavBatch {
        let mut b = EavBatch::new(SourceMeta::flat_gene("LocusLink", "r1"));
        b.push(EavRecord::object("353"));
        b.push(EavRecord::named_object("353", "adenine phosphoribosyltransferase"));
        b.push(EavRecord::annotation("353", "Hugo", "APRT"));
        b.push(EavRecord::annotation("353", "Location", "16q24"));
        b.push(EavRecord::annotation("353", "Enzyme", "2.4.2.7"));
        b.push(EavRecord::annotation_with_text("353", "GO", "GO:0009116", "nucleoside metabolism"));
        b.push(EavRecord::object("1234"));
        b.push(EavRecord::annotation("1234", "GO", "GO:0009116"));
        b
    }

    #[test]
    fn basic_import_creates_everything() {
        let mut s = store();
        let report = Importer::new(&mut s).import(&locuslink_batch()).unwrap();
        assert!(report.source_created);
        assert!(!report.skipped);
        // objects: 2 loci + APRT + 16q24 + 2.4.2.7 + GO:0009116
        assert_eq!(report.objects_created, 6);
        assert_eq!(report.associations_created, 5);
        // one Fact mapping per target
        assert_eq!(report.mappings_created, 4);
        assert_eq!(
            report.stub_sources_created,
            vec!["Enzyme", "GO", "Hugo", "Location"]
        );
        // object text landed on both sides
        let ll = s.find_source("LocusLink").unwrap().unwrap();
        let locus = s.find_object(ll.id, "353").unwrap().unwrap();
        assert_eq!(locus.text.as_deref(), Some("adenine phosphoribosyltransferase"));
        let go = s.find_source("GO").unwrap().unwrap();
        let term = s.find_object(go.id, "GO:0009116").unwrap().unwrap();
        assert_eq!(term.text.as_deref(), Some("nucleoside metabolism"));
    }

    #[test]
    fn same_release_is_skipped_entirely() {
        let mut s = store();
        Importer::new(&mut s).import(&locuslink_batch()).unwrap();
        let before = s.cardinalities().unwrap();
        let report = Importer::new(&mut s).import(&locuslink_batch()).unwrap();
        assert!(report.skipped);
        assert_eq!(s.cardinalities().unwrap(), before, "idempotent re-import");
    }

    #[test]
    fn new_release_is_incremental() {
        let mut s = store();
        Importer::new(&mut s).import(&locuslink_batch()).unwrap();
        let mut updated = locuslink_batch();
        updated.meta.release = "r2".into();
        updated.push(EavRecord::object("999"));
        updated.push(EavRecord::annotation("999", "GO", "GO:0009116"));
        let report = Importer::new(&mut s).import(&updated).unwrap();
        assert!(!report.skipped);
        assert!(!report.source_created);
        // only the new locus is inserted; everything else dedups
        assert_eq!(report.objects_created, 1);
        assert_eq!(report.associations_created, 1);
        assert_eq!(report.associations_deduped, 5);
        assert!(report.stub_sources_created.is_empty());
        assert_eq!(report.mappings_created, 0, "existing mappings reused");
        let src = s.find_source("LocusLink").unwrap().unwrap();
        assert_eq!(src.release.as_deref(), Some("r2"));
    }

    #[test]
    fn relates_against_previously_imported_target() {
        // paper: "if GO has already been integrated into GAM, re-importing
        // LocusLink only requires to relate the new LocusLink objects with
        // the existing GO terms"
        let mut s = store();
        let mut go = EavBatch::new(SourceMeta::network(
            "GO",
            "200312",
            SourceContent::Other,
        ));
        go.meta.partitions = vec!["BiologicalProcess".into()];
        go.push(EavRecord::named_object("GO:0008150", "biological_process"));
        go.push(EavRecord::named_object("GO:0009116", "nucleoside metabolism"));
        go.push(EavRecord::is_a("GO:0009116", "GO:0008150"));
        let go_report = Importer::new(&mut s).import(&go).unwrap();
        assert_eq!(go_report.objects_created, 2);
        assert_eq!(go_report.mappings_created, 2); // Contains + IS_A
        assert_eq!(go_report.stub_sources_created, vec!["GO.BiologicalProcess"]);

        let ll_report = Importer::new(&mut s).import(&locuslink_batch()).unwrap();
        // GO:0009116 already exists: no new GO object
        assert!(!ll_report.stub_sources_created.contains(&"GO".to_owned()));
        let go_src = s.find_source("GO").unwrap().unwrap();
        assert_eq!(s.object_count(go_src.id).unwrap(), 2);
        // GO source keeps its Network structure (not overwritten by stubs)
        assert_eq!(go_src.structure, SourceStructure::Network);
        // the LocusLink->GO mapping references the existing term
        let ll = s.find_source("LocusLink").unwrap().unwrap();
        let (rel, fwd) = s.find_source_rel(ll.id, go_src.id, Some(RelType::Fact)).unwrap().unwrap();
        assert!(fwd);
        let mapping = s.load_mapping(rel.id).unwrap();
        assert_eq!(mapping.len(), 2);
    }

    #[test]
    fn stub_filled_by_later_full_import() {
        let mut s = store();
        // LocusLink first: creates a GO stub holding GO:0009116
        Importer::new(&mut s).import(&locuslink_batch()).unwrap();
        // now the full GO arrives
        let mut go = EavBatch::new(SourceMeta::network("GO", "200312", SourceContent::Other));
        go.push(EavRecord::named_object("GO:0008150", "biological_process"));
        go.push(EavRecord::named_object("GO:0009116", "nucleoside metabolism"));
        go.push(EavRecord::is_a("GO:0009116", "GO:0008150"));
        let report = Importer::new(&mut s).import(&go).unwrap();
        assert!(!report.source_created, "stub reused");
        assert_eq!(report.objects_created, 1, "only the root is new");
        assert_eq!(report.objects_deduped, 1);
        // the stub's release is now the real one
        let go_src = s.find_source("GO").unwrap().unwrap();
        assert_eq!(go_src.release.as_deref(), Some("200312"));
    }

    #[test]
    fn similarity_and_fact_mappings_are_separate() {
        let mut s = store();
        let mut b = EavBatch::new(SourceMeta::flat_gene("NetAffx", "na34"));
        b.push(EavRecord::object("1000_at"));
        b.push(EavRecord::similarity("1000_at", "Unigene", "Hs.1", 0.9));
        b.push(EavRecord::annotation("1000_at", "Unigene", "Hs.1"));
        let report = Importer::new(&mut s).import(&b).unwrap();
        assert_eq!(report.mappings_created, 2);
        let na = s.find_source("NetAffx").unwrap().unwrap();
        let ug = s.find_source("Unigene").unwrap().unwrap();
        let fact = s.find_source_rel(na.id, ug.id, Some(RelType::Fact)).unwrap().unwrap();
        let sim = s
            .find_source_rel(na.id, ug.id, Some(RelType::Similarity))
            .unwrap()
            .unwrap();
        assert_ne!(fact.0.id, sim.0.id);
        let sim_map = s.load_mapping(sim.0.id).unwrap();
        assert_eq!(sim_map.pairs[0].evidence, Some(0.9));
    }

    #[test]
    fn isa_edges_build_intra_source_mapping() {
        let mut s = store();
        let mut b = EavBatch::new(SourceMeta::network("Enzyme", "33.0", SourceContent::Other));
        b.push(EavRecord::is_a("2.4.2.7", "2.4.2"));
        b.push(EavRecord::is_a("2.4.2", "2.4"));
        let report = Importer::new(&mut s).import(&b).unwrap();
        // implicit objects created from edge endpoints
        assert_eq!(report.objects_created, 3);
        let ez = s.find_source("Enzyme").unwrap().unwrap();
        let (rel, _) = s.find_source_rel(ez.id, ez.id, Some(RelType::IsA)).unwrap().unwrap();
        let map = s.load_mapping(rel.id).unwrap();
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn dropped_records_are_counted() {
        let mut s = store();
        let mut b = EavBatch::new(SourceMeta::flat_gene("X", "r1"));
        b.push(EavRecord::object("ok"));
        b.push(EavRecord::object(""));
        b.push(EavRecord::is_a("a", "a"));
        let report = Importer::new(&mut s).import(&b).unwrap();
        assert_eq!(report.records_dropped, 2);
        assert_eq!(report.objects_created, 1);
    }

    #[test]
    fn bulk_and_per_row_paths_agree_on_the_demo_sequence() {
        // The locked-down equivalence: identical reports and identical
        // store contents across a sequence that exercises stubs, dedup,
        // both mapping kinds, partitions, IS_A edges and re-imports.
        // (Random shapes are covered by the proptests in tests/bulk_prop.rs.)
        let mut go = EavBatch::new(SourceMeta::network("GO", "200312", SourceContent::Other));
        go.meta.partitions = vec!["BiologicalProcess".into()];
        go.push(EavRecord::named_object("GO:0008150", "biological_process"));
        go.push(EavRecord::named_object("GO:0009116", "nucleoside metabolism"));
        go.push(EavRecord::is_a("GO:0009116", "GO:0008150"));
        let mut na = EavBatch::new(SourceMeta::flat_gene("NetAffx", "na34"));
        na.push(EavRecord::object("1000_at"));
        na.push(EavRecord::similarity("1000_at", "Unigene", "Hs.1", 0.9));
        na.push(EavRecord::annotation("1000_at", "Unigene", "Hs.1"));
        na.push(EavRecord::annotation("1000_at", "LocusLink", "353"));
        let mut ll2 = locuslink_batch();
        ll2.meta.release = "r2".into();
        ll2.push(EavRecord::object("999"));
        let sequence = [locuslink_batch(), go, na, ll2];

        let mut bulk = store();
        let mut per_row = store();
        for batch in &sequence {
            let a = Importer::new(&mut bulk).import(batch).unwrap();
            let b = Importer::new(&mut per_row).import_per_row(batch).unwrap();
            assert_eq!(a, b, "reports diverge for {}", batch.meta.name);
        }
        assert_eq!(
            bulk.cardinalities().unwrap(),
            per_row.cardinalities().unwrap()
        );
        for src in bulk.sources().unwrap() {
            let other = per_row.find_source(&src.name).unwrap().unwrap();
            assert_eq!(src, other, "source rows diverge for {}", src.name);
            assert_eq!(
                bulk.objects_of(src.id).unwrap(),
                per_row.objects_of(other.id).unwrap(),
                "objects diverge for {}",
                src.name
            );
        }
        for rel in bulk.source_rels().unwrap() {
            let a = bulk.load_mapping(rel.id).unwrap();
            let b = per_row.load_mapping(rel.id).unwrap();
            assert_eq!(a.pairs, b.pairs, "mapping {} diverges", rel.id);
        }
    }

    #[test]
    fn import_owned_matches_borrowed_import() {
        let mut s1 = store();
        let mut s2 = store();
        let mut dirty = locuslink_batch();
        dirty.push(EavRecord::object("  padded  "));
        dirty.push(EavRecord::object(" "));
        let a = Importer::new(&mut s1).import(&dirty).unwrap();
        let b = Importer::new(&mut s2).import_owned(dirty).unwrap();
        assert_eq!(a, b);
        assert_eq!(s1.cardinalities().unwrap(), s2.cardinalities().unwrap());
        assert_eq!(a.records_dropped, 1, "blank accession dropped");
    }

    #[test]
    fn timings_cover_the_phases() {
        let mut s = store();
        let mut imp = Importer::new(&mut s);
        imp.import(&locuslink_batch()).unwrap();
        let t = imp.timings();
        assert!(t.insert > std::time::Duration::ZERO, "insert time recorded");
        assert_eq!(t.parse, std::time::Duration::ZERO, "parse is the pipeline's");
    }
}
