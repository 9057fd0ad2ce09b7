//! The product's mutant table: which suite catches what.
//!
//! Every row is a textual mutant of the real sources of relstore, gam,
//! import, operators, genmapper, serve and two of their neighbours — a
//! regression someone could plausibly commit — with what kills it: the
//! failing tests as `package/suite::test` (`lib` for a crate's in-module
//! tests; `(+n)`: n more tests of that suite fail too), a rustc error, a
//! clippy lint, or `none:` and why it survives.
//! `scripts/mutants.py` applies each row of this table and of genlint's
//! (`crates/genlint/tests/mutants.rs`) in a scratch clone and records the
//! kills; CHANGES lists the last run. Here only the needles are checked, so
//! the table cannot rot: a needle must occur exactly once in its file.
//!
//! The table decides which suites stay. A test file is kept while it is
//! the sole killer of at least two rows across both tables; one that kills
//! only what others kill too is folded into the suite that kills its
//! mutants. Every paper operation of §4.1 and §4.2 is named by a row.

use testkit::Mutant;

const MUTANTS: &[Mutant] = &[
    // --- storage: WAL, checkpoint, page and directory decode, codec, index run/delta, pool, batched probes ---
    Mutant {
        what: "WAL replay applies the operations of an uncommitted tail",
        path: "crates/relstore/src/wal.rs",
        needle: "            op => pending.push(op),",
        replacement: "            op => recovery.committed_ops.push(op),",
        killer: "relstore/lib::wal::tests::torn_record_ends_recovery (+1), relstore/crash_prop::fixed_grid_crash_points_recover_and_converge (+1), relstore/crash_sweep::every_failed_io_op_leaves_a_recoverable_store (+1), relstore/recovery::fallback_snapshot_with_torn_wal_keeps_committed_prefix (+1)",
    },
    Mutant {
        what: "WAL replay skips the frame checksum",
        path: "crates/relstore/src/wal.rs",
        needle: "        if crc32(payload) != crc {",
        replacement: "        if payload.is_empty() && crc32(payload) != crc {",
        killer: "relstore/recovery::wal_bitflips_degrade_to_a_committed_prefix",
    },
    Mutant {
        what: "the WAL's epoch stamp does not end its committed prefix",
        path: "crates/relstore/src/wal.rs",
        needle: "                recovery.epoch = Some(epoch);\n                recovery.committed_bytes = offset as u64;",
        replacement: "                recovery.epoch = Some(epoch);",
        killer: "tests/persistence::checkpoint_truncates_wal_and_resumes",
    },
    Mutant {
        what: "a WAL stamped with an older epoch is replayed over the checkpoint",
        path: "crates/relstore/src/db.rs",
        needle: "let stale = wal_has_content && wal_epoch != epoch;",
        replacement: "let stale = wal_has_content && wal_epoch > epoch;",
        killer: "import/crash_import::import_crash_sweep_second_half_recovers_and_reimports_identically (+2), relstore/lib::db::tests::crash_between_snapshot_rename_and_wal_reset_discards_stale_wal, relstore/crash_prop::fixed_grid_crash_points_recover_and_converge (+1), relstore/crash_sweep::every_crash_point_recovers_and_converges (+1)",
    },
    Mutant {
        what: "open gives up at a torn primary page directory instead of falling back",
        path: "crates/relstore/src/db.rs",
        needle: "                Err(StoreError::Corrupt(_)) => {}",
        replacement: "                Err(StoreError::Corrupt(_)) => break,",
        killer: "relstore/recovery::corrupt_primary_snapshot_falls_back_to_previous",
    },
    Mutant {
        what: "checkpoint keeps no previous page directory to fall back to",
        path: "crates/relstore/src/db.rs",
        needle: "        if vfs.exists(&primary) {\n            vfs.rename(&primary, &durability.dir.join(PAGEDIR_PREV_FILE))?;\n        }\n",
        replacement: "",
        killer: "relstore/recovery::corrupt_primary_snapshot_falls_back_to_previous (+1)",
    },
    Mutant {
        what: "page directory decode skips the checksum",
        path: "crates/relstore/src/pager.rs",
        needle: "    if crc32(body) != crc {",
        replacement: "    if body.is_empty() && crc32(body) != crc {",
        killer: "tests/persistence::corrupt_snapshot_degrades_and_is_reported, relstore/index_build_equiv::counts_read_from_a_file_are_not_trusted, relstore/recovery::corrupt_primary_snapshot_falls_back_to_previous (+1)",
    },
    Mutant {
        what: "page directory decode accepts a future format version",
        path: "crates/relstore/src/pager.rs",
        needle: "    if version == 0 || version > DIR_VERSION {",
        replacement: "    if version == 0 {",
        killer: "relstore/lib::pager::tests::page_directory_roundtrip_and_corruption, relstore/recovery::corrupt_primary_snapshot_falls_back_to_previous",
    },
    Mutant {
        what: "page directory format version bumped without a migration",
        path: "crates/relstore/src/pager.rs",
        needle: "const DIR_VERSION: u32 = 1;",
        replacement: "const DIR_VERSION: u32 = 2;",
        killer: "relstore/lib::table::tests::a_churned_tail_seals_and_checkpoints_to_the_bytes_of_its_rows, relstore/format_identity::resident_store_images_are_byte_identical (+1)",
    },
    Mutant {
        what: "page image decode skips the checksum",
        path: "crates/relstore/src/page.rs",
        needle: "        if crc32(buf) != crc {",
        replacement: "        if buf.is_empty() && crc32(buf) != crc {",
        killer: "gam/lib::store::tests::verify_integrity_fails_on_a_page_it_cannot_read, relstore/lib::page::tests::corruption_detected (+1)",
    },
    Mutant {
        what: "WAL record tag renumbered",
        path: "crates/relstore/src/wal.rs",
        needle: "const OP_CREATE: u8 = 6;",
        replacement: "const OP_CREATE: u8 = 7;",
        killer: "relstore/format_identity::resident_store_images_are_byte_identical",
    },
    Mutant {
        what: "zigzag encoding drops the sign of negative integers",
        path: "crates/relstore/src/codec.rs",
        needle: "    ((v << 1) ^ (v >> 63)) as u64",
        replacement: "    (v << 1) as u64",
        killer: "relstore/lib::codec::tests::value_roundtrips (+2), relstore/format_identity::paged_store_images_are_byte_identical (+1), relstore/index_build_equiv::a_probe_outside_the_runs_lanes_is_answered_by_the_delta (+2)",
    },
    Mutant {
        what: "index insert leaves a re-inserted dead run entry dead",
        path: "crates/relstore/src/index.rs",
        needle: "            Some(i) if self.run.is_dead(i) => self.run.mark(i, false),",
        replacement: "            Some(i) if self.run.is_dead(i) => {}",
        killer: "relstore/lib::index::tests::run_delta_and_dead_marks_read_as_the_entries_they_hold, relstore/index_build_equiv::a_rollback_restores_a_deleted_run_entry (+1)",
    },
    Mutant {
        what: "index insert never merges its delta into the run",
        path: "crates/relstore/src/index.rs",
        needle: "                self.delta.insert((key, row_id));\n            }\n        }\n        self.settle();",
        replacement: "                self.delta.insert((key, row_id));\n            }\n        }",
        killer: "relstore/heap_weight::a_row_in_memory_weighs_its_cell_and_its_slot",
    },
    Mutant {
        what: "a merged index run keeps its over-estimated capacity",
        path: "crates/relstore/src/index.rs",
        needle: "                run.words.shrink_to_fit(); // the estimate counts dead entries' words too\n",
        replacement: "",
        killer: "none: capacity only; no gate weighs an index merged after deletes (heap_weight's grown leg deletes nothing)",
    },
    Mutant {
        what: "the pool evicts a dirty page without writing it back",
        path: "crates/relstore/src/pager.rs",
        needle: "            if frame.dirty {\n                let bytes = self.write_back(inner, pid)?;",
        replacement: "            if frame.dirty && inner.frames.len() > self.config.pool_pages {\n                let bytes = self.write_back(inner, pid)?;",
        killer: "9 suites, among them gam/lib::store::tests::verify_integrity_fails_on_a_page_it_cannot_read, gam/batched_match::batched_match_equals_one_lookup_per_probe, gam/snapshot_equiv::a_directory_checkpointed_under_the_old_schemas_is_upgraded_in_place (+1)",
    },
    Mutant {
        what: "the clock sweep ignores reference bits",
        path: "crates/relstore/src/pager.rs",
        needle: "            if frame.referenced {\n                frame.referenced = false;",
        replacement: "            if frame.referenced && inner.hand == usize::MAX {\n                frame.referenced = false;",
        killer: "none: eviction order only, so the pool's hit rate (gmbench paged_live relstore.pool_hit_rate), not an answer",
    },
    Mutant {
        what: "a pool hit does not set the reference bit",
        path: "crates/relstore/src/pager.rs",
        needle: "        if let Some(frame) = inner.frames.get_mut(&pid) {\n            frame.referenced = true;",
        replacement: "        if let Some(frame) = inner.frames.get_mut(&pid) {",
        killer: "none: eviction order only, so the pool's hit rate (gmbench paged_live relstore.pool_hit_rate), not an answer",
    },
    Mutant {
        what: "group commit's closing sync flushes without an fsync",
        path: "crates/relstore/src/db.rs",
        needle: "        if let Some(durability) = &mut self.durability {\n            durability.wal.sync()?;\n        }",
        replacement: "        if let Some(durability) = &mut self.durability {\n            durability.wal.append_batch(&[])?;\n        }",
        killer: "5 suites, among them gam/lib::store::tests::group_commit_window_survives_reopen, tests/persistence::checkpoint_truncates_wal_and_resumes (+1), import/crash_import::import_crash_sweep_second_half_recovers_and_reimports_identically (+1)",
    },
    Mutant {
        what: "a batched key probe answers only the first of repeated probes",
        path: "crates/relstore/src/table.rs",
        needle: "|cursor, id| cursor.with(id, |row| asked.get().iter().for_each(|&(_, n)| f(n, row))),",
        replacement: "|cursor, id| cursor.with(id, |row| asked.get().iter().take(1).for_each(|&(_, n)| f(n, row))),",
        killer: "gam/lib::snapshot::tests::snapshot_reproduces_every_store_answer (+2), gam/batched_match::batched_match_equals_one_lookup_per_probe, relstore/lib::table::tests::batched_match_reads_rows_only_under_matching_keys, relstore/index_build_equiv::a_run_goes_wide_for_an_outlier_and_narrow_again_without_it (+2)",
    },
    Mutant {
        what: "a batched key probe seeks unsorted probes in input order",
        path: "crates/relstore/src/table.rs",
        needle: "        if !keys.is_sorted() {\n            keys.sort_unstable();\n        }\n",
        replacement: "",
        killer: "6 suites, among them gam/lib::snapshot::tests::snapshot_reproduces_every_store_answer (+3), gam/batched_match::batched_match_equals_one_lookup_per_probe, import/bulk_prop::owned_import_equals_borrowed (+2), clippy: variable does not need to be mutable",
    },
    Mutant {
        what: "rollback of an update keeps the new values",
        path: "crates/relstore/src/db.rs",
        needle: "                    self.db.table_mut_internal(&table)?.update(row_id, old)?;",
        replacement: "                    self.db.table_mut_internal(&table)?.update(row_id, old).ok();",
        killer: "none: `.ok()` drops only the restoring update's error, which no test provokes; genlint's error-swallow rule is what reports it",
    },
    Mutant {
        what: "page images carry another magic",
        path: "crates/relstore/src/page.rs",
        needle: "pub const PAGE_MAGIC: &[u8; 4] = b\"RSPG\";",
        replacement: "pub const PAGE_MAGIC: &[u8; 4] = b\"RSPH\";",
        killer: "relstore/format_identity::paged_store_images_are_byte_identical",
    },
    Mutant {
        what: "index stats leave the key cells out of an index's bytes",
        path: "crates/relstore/src/index.rs",
        needle: "                + size_of::<u32>() * (run.ends.capacity() + run.cells.capacity())",
        replacement: "                + size_of::<u32>() * run.ends.capacity()",
        killer: "relstore/lib::index::tests::bulk_build_equals_per_row_maintenance (+1), relstore/heap_weight::a_row_in_memory_weighs_its_cell_and_its_slot, relstore/index_build_equiv::a_run_goes_wide_for_an_outlier_and_narrow_again_without_it",
    },
    // --- the GAM store: dedup, Domain/Range/Restrict, snapshot capture ---
    Mutant {
        what: "association dedup lets a pair repeated within one batch through",
        path: "crates/gam/src/store.rs",
        needle: "            if exists[slot] || seen[slot] {",
        replacement: "            if exists[slot] {",
        killer: "6 suites, among them gam/lib::store::tests::group_commit_window_survives_reopen, gam/snapshot_equiv::capture_walks_a_paged_store_about_once, tests/baseline_equivalence::srs_cannot_answer_joins_without_navigation",
    },
    Mutant {
        what: "association dedup re-adds a pair already stored",
        path: "crates/gam/src/store.rs",
        needle: "            if exists[slot] || seen[slot] {",
        replacement: "            if seen[slot] {",
        killer: "20 suites, among them bench/lib::tests::fixtures_build, gam/lib::store::tests::mapping_roundtrip_and_orientation, gam/snapshot_equiv::a_directory_checkpointed_under_the_old_schemas_is_upgraded_in_place (+1)",
    },
    Mutant {
        what: "object dedup gives an accession repeated within one batch a second object",
        path: "crates/gam/src/store.rs",
        needle: "            if let Some(id) = seen.get(accession) {\n                ids.push(*id);\n                continue;\n            }\n",
        replacement: "",
        killer: "gam/lib::store::tests::bulk_objects_dedup_within_and_across_batches (+1), gam/batched_match::batched_match_equals_one_lookup_per_probe",
    },
    Mutant {
        what: "Mapping::dedup keeps the weaker of two scored duplicates",
        path: "crates/gam/src/mapping.rs",
        needle: ".then_with(|| b.effective_evidence().total_cmp(&a.effective_evidence()))",
        replacement: ".then_with(|| a.effective_evidence().total_cmp(&b.effective_evidence()))",
        killer: "gam/lib::index::tests::roundtrip_is_bit_identical_to_canonical_mapping (+1), operators/lib::compose::tests::duplicate_derivations_keep_best_evidence (+3), operators/algebra_equiv::a_join_above_the_parallel_threshold_hashes_and_still_matches (+5)",
    },
    Mutant {
        what: "Mapping's Domain collects the range side",
        path: "crates/gam/src/mapping.rs",
        needle: "    pub fn domain(&self) -> BTreeSet<ObjectId> {\n        self.pairs.iter().map(|a| a.from).collect()",
        replacement: "    pub fn domain(&self) -> BTreeSet<ObjectId> {\n        self.pairs.iter().map(|a| a.to).collect()",
        killer: "gam/lib::index::tests::domain_and_range_match_vec_implementation (+4), operators/algebra_equiv::index_restrictions_match_the_flat_mapping",
    },
    Mutant {
        what: "Mapping's RestrictRange filters on the domain side",
        path: "crates/gam/src/mapping.rs",
        needle: "                .filter(|a| objects.contains(&a.to))",
        replacement: "                .filter(|a| objects.contains(&a.from))",
        killer: "gam/lib::index::tests::restricts_match_vec_implementation (+1), operators/algebra_equiv::index_restrictions_match_the_flat_mapping",
    },
    Mutant {
        what: "MappingIndex's Range answers the domain keys",
        path: "crates/gam/src/index.rs",
        needle: "    pub fn range(&self) -> BTreeSet<ObjectId> {\n        self.inv_keys.iter().copied().collect()",
        replacement: "    pub fn range(&self) -> BTreeSet<ObjectId> {\n        self.fwd_keys.iter().copied().collect()",
        killer: "gam/lib::index::tests::domain_and_range_match_vec_implementation, operators/algebra_equiv::index_restrictions_match_the_flat_mapping",
    },
    Mutant {
        what: "MappingIndex's RestrictDomain scans only the first key of a large probe set",
        path: "crates/gam/src/index.rs",
        needle: "            for (i, &k) in self.fwd_keys.iter().enumerate() {\n                if objects.contains(&k) {\n                    self.emit_bucket(i, &mut pairs);\n                }",
        replacement: "            for (i, &k) in self.fwd_keys.iter().enumerate().take(1) {\n                if objects.contains(&k) {\n                    self.emit_bucket(i, &mut pairs);\n                }",
        killer: "operators/algebra_equiv::index_restrictions_match_the_flat_mapping",
    },
    Mutant {
        what: "a fact association reads back as evidence 1.0",
        path: "crates/gam/src/index.rs",
        needle: "        if self.fact_mask[pos / 64] >> (pos % 64) & 1 == 1 {",
        replacement: "        if self.fact_mask[pos / 64] >> (pos % 64) & 1 == 2 {",
        killer: "7 suites, among them gam/lib::index::tests::fact_and_certain_score_stay_distinct (+7), gam/snapshot_equiv::store_and_snapshot_agree_on_every_object_and_mapping, genmapper/lib::snapshot::tests::snapshot_pathfinding_and_object_info_match (+1), clippy: incompatible bit mask: `_ & 1` can never be equal to `2`",
    },
    Mutant {
        what: "snapshot capture files a mapping under its domain source only",
        path: "crates/gam/src/snapshot.rs",
        needle: "for (source, role) in [(r.source1, Role::Domain), (r.source2, Role::Range)] {",
        replacement: "for (source, role) in [(r.source1, Role::Domain)] {",
        killer: "gam/lib::snapshot::tests::snapshot_reproduces_every_store_answer, gam/snapshot_equiv::store_and_snapshot_agree_on_every_object_and_mapping, genmapper/lib::snapshot::tests::snapshot_pathfinding_and_object_info_match, genmapper/snapshot_stress::snapshot_equivalence_under_repeated_capture, clippy: variant `Range` is never constructed",
    },
    Mutant {
        what: "snapshot capture keeps only the first mapping of a source pair",
        path: "crates/gam/src/snapshot.rs",
        needle: "                slot.insert(store.source_rels_between(key.0, key.1)?);",
        replacement: "                slot.insert(vec![r.clone()]);",
        killer: "gam/lib::snapshot::tests::snapshot_reproduces_every_store_answer",
    },
    Mutant {
        what: "associations_of_object orders by partner before role",
        path: "crates/gam/src/store.rs",
        needle: "found.sort_unstable_by_key(|&(rel, as_range, assoc)| (rel, as_range, assoc.to));",
        replacement: "found.sort_unstable_by_key(|&(rel, as_range, assoc)| (rel, assoc.to, as_range));",
        killer: "gam/snapshot_equiv::store_and_snapshot_agree_on_every_object_and_mapping",
    },
    Mutant {
        what: "deleting a mapping leaves its associations behind",
        path: "crates/gam/src/store.rs",
        needle: "            for rid in assoc_ids {\n                txn.delete(tables::OBJECT_REL, rid)?;\n            }\n",
        replacement: "",
        killer: "gam/lib::snapshot::tests::snapshot_error_values_match_store (+3), gam/snapshot_equiv::a_directory_checkpointed_under_the_old_schemas_is_upgraded_in_place (+1), operators/lib::materialize::tests::rematerialization_replaces_not_duplicates",
    },
    Mutant {
        what: "a release stamp leaves the import sequence where it was",
        path: "crates/gam/src/store.rs",
        needle: "        self.import_seq += 1;\n        values[5]",
        replacement: "        values[5]",
        killer: "none: nothing reads a source's import sequence back; it is written for operators inspecting SOURCE rows",
    },
    Mutant {
        what: "closing a group-commit window skips the WAL sync",
        path: "crates/gam/src/store.rs",
        needle: "        self.db.set_sync_on_commit(true);\n        self.db.sync_wal()?;",
        replacement: "        self.db.set_sync_on_commit(true);",
        killer: "gam/lib::store::tests::group_commit_window_survives_reopen, tests/persistence::checkpoint_truncates_wal_and_resumes (+1), import/crash_import::import_crash_sweep_second_half_recovers_and_reimports_identically (+1)",
    },
    Mutant {
        what: "a reopened store hands out object ids from one again",
        path: "crates/gam/src/store.rs",
        needle: "        let next_object = (max_id(tables::OBJECT)? + 1) as u64;",
        replacement: "        let next_object = 1u64;",
        killer: "gam/lib::store::tests::durable_store_preserves_ids_across_reopen, tests/persistence::checkpoint_truncates_wal_and_resumes, import/crash_import::import_crash_sweep_second_half_recovers_and_reimports_identically (+2)",
    },
    Mutant {
        what: "mapping type counts count a mapping's associations as one",
        path: "crates/gam/src/store.rs",
        needle: "            entry.1 += self.association_count(rel.id)?;",
        replacement: "            entry.1 += 1;",
        killer: "gam/lib::store::tests::mapping_type_breakdown, tests/evidence::mapping_type_counts_match_cardinalities",
    },
    Mutant {
        what: "snapshot capture loads every mapping twice",
        path: "crates/gam/src/snapshot.rs",
        needle: "            let index = Arc::new(store.load_mapping_index(r.id)?);",
        replacement: "            let index = Arc::new(store.load_mapping_index(r.id).and_then(|_| store.load_mapping_index(r.id))?);",
        killer: "none: capture cost is gated in pool misses on a paged store, and the second load hits the pages the first just faulted in",
    },
    // --- §4.1 import: dedup, release skip, the release tag written last ---
    Mutant {
        what: "import release skip: the bulk path re-imports a release it already holds",
        path: "crates/import/src/importer.rs",
        needle: "            if src.release.as_deref() == Some(batch.meta.release.as_str()) {\n                // Same name",
        replacement: "            if src.release.as_deref() == Some(\"\") {\n                // Same name",
        killer: "7 suites, among them genmapper/lib::shared::tests::only_a_content_change_recaptures_the_store, tests/end_to_end::reimport_is_idempotent_and_new_release_is_incremental, tests/persistence::full_ecosystem_survives_reopen",
    },
    Mutant {
        what: "import release skip: the per-row path re-imports a release it already holds",
        path: "crates/import/src/importer.rs",
        needle: "                if existing.release.as_deref() == Some(batch.meta.release.as_str()) {\n                    report.skipped = true;\n                    return Ok(report);\n                }\n",
        replacement: "",
        killer: "import/bulk_prop::bulk_import_equals_per_row",
    },
    Mutant {
        what: "import release tag written first: a source is stamped before its records land",
        path: "crates/import/src/importer.rs",
        needle: "        // ---- annotation groups, keyed by (target, kind) ----------------",
        replacement: "        self.store.set_source_release(source.id, &batch.meta.release)?;\n        // ---- annotation groups, keyed by (target, kind) ----------------",
        killer: "import/lib::importer::tests::bulk_and_per_row_paths_agree_on_the_demo_sequence, import/bulk_prop::bulk_import_equals_per_row, import/crash_import::import_crash_sweep_second_half_recovers_and_reimports_identically (+2)",
    },
    Mutant {
        what: "import dedup: objects deduplicated on the bulk path go uncounted",
        path: "crates/import/src/importer.rs",
        needle: "        report.objects_deduped += object_rows.len() - created;\n",
        replacement: "",
        killer: "import/lib::importer::tests::bulk_and_per_row_paths_agree_on_the_demo_sequence (+1), import/bulk_prop::bulk_import_equals_per_row",
    },
    Mutant {
        what: "import dedup: associations deduplicated on the bulk path go uncounted",
        path: "crates/import/src/importer.rs",
        needle: "            report.associations_created += added;\n            report.associations_deduped += total - added;\n        }\n\n        // ---- structural IS_A",
        replacement: "            report.associations_created += added;\n        }\n\n        // ---- structural IS_A",
        killer: "import/lib::importer::tests::new_release_is_incremental (+1), import/bulk_prop::bulk_import_equals_per_row, clippy: unused variable: `total`",
    },
    Mutant {
        what: "import stores IS_A edges parent to child",
        path: "crates/import/src/importer.rs",
        needle: "                assocs.push(Association::fact(from, to));",
        replacement: "                assocs.push(Association::fact(to, from));",
        killer: "import/lib::importer::tests::bulk_and_per_row_paths_agree_on_the_demo_sequence, import/bulk_prop::bulk_import_equals_per_row, profiling/lib::pipeline::tests::namespace_breakdown_covers_profiled_terms (+2)",
    },
    Mutant {
        what: "a re-import keeps a stub's structure when only the structure changed",
        path: "crates/import/src/importer.rs",
        needle: "                // cross-references is upgraded here.\n                if existing.content != batch.meta.content\n                    || existing.structure != batch.meta.structure\n                {",
        replacement: "                // cross-references is upgraded here.\n                if existing.content != batch.meta.content {",
        killer: "tests/end_to_end::every_core_source_is_registered_with_metadata, import/lib::importer::tests::bulk_and_per_row_paths_agree_on_the_demo_sequence, import/bulk_prop::bulk_import_equals_per_row",
    },
    Mutant {
        what: "serial lenient parsing ignores the error budget",
        path: "crates/import/src/pipeline.rs",
        needle: "        return dumps.iter().map(|d| d.parse_lenient(budget)).collect();",
        replacement: "        return dumps.iter().map(|d| d.parse_lenient(0)).collect();",
        killer: "import/lib::pipeline::tests::error_budget_imports_clean_records_and_reports_quarantine",
    },
    Mutant {
        what: "import files a reverse-oriented mapping's pairs forwards",
        path: "crates/import/src/importer.rs",
        needle: "                let (o1, o2) = if forward { (from, to) } else { (to, from) };",
        replacement: "                let (o1, o2) = (from, to);",
        killer: "genmapper/lib::snapshot::tests::snapshot_pathfinding_and_object_info_match, genmapper/snapshot_stress::snapshot_equivalence_under_repeated_capture, tests/end_to_end::cardinalities_are_consistent_with_reports, import/bulk_prop::bulk_import_equals_per_row, clippy: unused variable: `forward`",
    },
    // --- §4.2 operators: Map, Compose and its evidence product, Figure 5's AND/OR/NOT, Subsumed, materialize ---
    Mutant {
        what: "Map drops the inverse orientation of a mapping",
        path: "crates/operators/src/simple.rs",
        needle: "        if rel.rel_type.is_structural() || from == to {",
        replacement: "        if rel.rel_type.is_structural() || from != to {",
        killer: "11 suites, among them genmapper/lib::cli::tests::session_drives_the_full_workflow (+4), genmapper/cache_invalidation::cached_results_never_go_stale, genmapper/snapshot_stress::concurrent_readers_see_only_published_versions_bit_identically",
    },
    Mutant {
        what: "Map's one-mapping fast path ignores a mapping stored the other way round",
        path: "crates/operators/src/simple.rs",
        needle: "    if forward.len() == 1 && !has_inverse {",
        replacement: "    if forward.len() == 1 {",
        killer: "operators/algebra_equiv::chains_match_the_lazy_left_fold (+1), clippy: unused variable: `has_inverse`",
    },
    Mutant {
        what: "Compose evidence product: the minimum instead of the product",
        path: "crates/operators/src/compose.rs",
        needle: "            _ => Some(left.effective_evidence_at(lpos) * right.effective_evidence_at(q)),",
        replacement: "            _ => Some(left.effective_evidence_at(lpos).min(right.effective_evidence_at(q))),",
        killer: "operators/lib::compose::tests::duplicate_derivations_keep_best_evidence (+1), operators/algebra_equiv::a_chain_above_the_parallel_threshold_hashes_and_still_matches (+4)",
    },
    Mutant {
        what: "Compose turns fact ∘ fact into evidence 1.0",
        path: "crates/operators/src/compose.rs",
        needle: "            (None, None) => None, // fact ∘ fact = fact",
        replacement: "            (None, None) => Some(1.0), // fact ∘ fact = fact",
        killer: "genmapper/cache_invalidation::cached_results_never_go_stale, operators/lib::compose::tests::fact_compose_fact_stays_fact (+2), operators/algebra_equiv::a_join_above_the_parallel_threshold_hashes_and_still_matches (+4)",
    },
    Mutant {
        what: "Compose's evidence floor drops associations exactly at the floor",
        path: "crates/operators/src/compose.rs",
        needle: "            if evidence.unwrap_or(1.0) < floor {",
        replacement: "            if evidence.unwrap_or(1.0) <= floor {",
        killer: "operators/algebra_equiv::a_join_above_the_parallel_threshold_hashes_and_still_matches (+4)",
    },
    Mutant {
        what: "Compose's merge join forgets the evidence floor",
        path: "crates/operators/src/compose.rs",
        needle: "        JoinStrategy::Merge => vec![merge_join_idx(left, right, min_evidence, false, false)],",
        replacement: "        JoinStrategy::Merge => vec![merge_join_idx(left, right, None, false, false)],",
        killer: "operators/lib::compose::tests::threshold_in_join_equals_filter_after (+1), operators/algebra_equiv::a_join_above_the_parallel_threshold_hashes_and_still_matches (+4)",
    },
    Mutant {
        what: "Compose's hash join skips the last domain bucket",
        path: "crates/operators/src/compose.rs",
        needle: "    let buckets: Vec<usize> = (0..left.domain_keys().len()).collect();",
        replacement: "    let buckets: Vec<usize> = (0..left.domain_keys().len().saturating_sub(1)).collect();",
        killer: "operators/lib::compose::tests::merge_gallop_and_hash_emit_the_same_pairs, operators/algebra_equiv::a_join_above_the_parallel_threshold_hashes_and_still_matches (+1)",
    },
    Mutant {
        what: "Figure 5 AND keeps a row with no annotation, as OR does",
        path: "crates/operators/src/view.rs",
        needle: "                    Combine::And => {} // inner join drops the row",
        replacement: "                    Combine::And => next.push(row),",
        killer: "7 suites, among them genmapper/lib::cli::tests::session_drives_the_full_workflow (+1), tests/baseline_equivalence::location_query_gam_vs_star (+1), tests/end_to_end::negation_complements_exactly",
    },
    Mutant {
        what: "Figure 5 OR drops a row with no annotation, as AND does",
        path: "crates/operators/src/view.rs",
        needle: "                    Combine::Or => {\n                        let mut extended = row;\n                        extended.push(None);\n                        next.push(extended);\n                    }",
        replacement: "                    Combine::Or => {}",
        killer: "tests/prop_integration::pipeline_invariants, operators/lib::view::tests::figure3_shape_multiple_targets_or (+1), operators/algebra_equiv::views_match_figure_5 (+1)",
    },
    Mutant {
        what: "Figure 5 NOT ignores the target restriction when deciding coverage",
        path: "crates/operators/src/view.rs",
        needle: "                    keep(pos) && ti.is_none_or(|t| t.contains(&mi.to_at(pos)))",
        replacement: "                    keep(pos)",
        killer: "operators/lib::view::tests::negated_subset_shows_other_annotations, operators/algebra_equiv::views_match_figure_5",
    },
    Mutant {
        what: "Figure 5 NOT drops an uncovered object's other annotations",
        path: "crates/operators/src/view.rs",
        needle: "                        if keep(pos) {\n                            values.push(mi.to_at(pos));\n                        }\n                    }\n                }\n            }\n            if !covered {",
        replacement: "                        let _ = keep(pos);\n                    }\n                }\n            }\n            if !covered {",
        killer: "operators/lib::view::tests::negated_subset_shows_other_annotations, operators/algebra_equiv::views_match_figure_5",
    },
    Mutant {
        what: "GenerateView's RestrictRange keeps every target object",
        path: "crates/operators/src/view.rs",
        needle: "                        if ti.is_none_or(|t| t.contains(&to)) {",
        replacement: "                        if ti.is_none_or(|t| !t.is_empty()) {",
        killer: "tests/baseline_equivalence::join_query_gam_vs_srs_navigation (+1), operators/lib::view::tests::restricted_target_subset, operators/algebra_equiv::views_match_figure_5",
    },
    Mutant {
        what: "GenerateView's evidence floor drops associations exactly at the floor",
        path: "crates/operators/src/view.rs",
        needle: "        Some(floor) => mi.effective_evidence_at(pos) >= floor,",
        replacement: "        Some(floor) => mi.effective_evidence_at(pos) > floor,",
        killer: "operators/algebra_equiv::views_match_figure_5",
    },
    Mutant {
        what: "Subsumed stops at direct children",
        path: "crates/operators/src/subsume.rs",
        needle: "                out.extend(descendants(kid, children, memo));\n",
        replacement: "",
        killer: "tests/prop_integration::subsume_properties, operators/lib::materialize::tests::subsumed_materialization (+4)",
    },
    Mutant {
        what: "Subsumed's push-time cycle arm removed",
        path: "crates/operators/src/subsume.rs",
        needle: "                        1 => {\n                            return Err(GamError::Invalid(\n                                \"IS_A structure contains a cycle\".into(),\n                            ))\n                        }\n                        2 => {}",
        replacement: "                        1 | 2 => {}",
        killer: "operators/lib: the test binary dies, a cyclic IS_A recursing until the stack overflows",
    },
    Mutant {
        what: "materialize keeps the previous materialization of the same derivation",
        path: "crates/operators/src/materialize.rs",
        needle: "        if rel.rel_type == mapping.rel_type && rel.derivation.as_deref() == Some(derivation) {",
        replacement: "        if rel.rel_type != mapping.rel_type && rel.derivation.as_deref() == Some(derivation) {",
        killer: "operators/lib::materialize::tests::imported_mapping_types_are_refused_and_untouched (+1)",
    },
    Mutant {
        what: "materialize names a composed derivation with another separator",
        path: "crates/operators/src/materialize.rs",
        needle: "    let derivation = names?.join(\"-\");",
        replacement: "    let derivation = names?.join(\"/\");",
        killer: "genmapper/lib::system::tests::materialization_speeds_up_and_survives_reuse, operators/lib::materialize::tests::composed_mapping_becomes_mappable",
    },
    Mutant {
        what: "Figure 5 NOT with an evidence floor counts a weak association as coverage",
        path: "crates/operators/src/view.rs",
        needle: "                    keep(pos) && ti.is_none_or(|t| t.contains(&mi.to_at(pos)))",
        replacement: "                    ti.is_none_or(|t| t.contains(&mi.to_at(pos)))",
        killer: "tests/evidence::threshold_affects_negation_consistently, operators/lib::view::tests::evidence_threshold_filters_weak_links, operators/algebra_equiv::views_match_figure_5",
    },
    Mutant {
        what: "Subsumed pairs every term with itself",
        path: "crates/operators/src/subsume.rs",
        needle: "    for &node in &nodes {\n        for desc in descendants(node, &children, &mut memo) {",
        replacement: "    for &node in &nodes {\n        result.pairs.push(Association::fact(node, node));\n        for desc in descendants(node, &children, &mut memo) {",
        killer: "tests/prop_integration::subsume_properties, operators/lib::materialize::tests::subsumed_materialization (+4), profiling/lib::pipeline::tests::namespace_breakdown_covers_profiled_terms",
    },
    // --- the system: versioned caches, snapshot publication, write admission, query parsing, export ---
    Mutant {
        what: "a cache invalidation keeps the old version's cache",
        path: "crates/genmapper/src/system.rs",
        needle: "        self.version += 1;\n        self.cache = Arc::default();",
        replacement: "        self.version += 1;",
        killer: "genmapper/lib::snapshot::tests::snapshot_and_live_system_share_one_cache_per_version (+2), genmapper/cache_invalidation::cached_results_never_go_stale",
    },
    Mutant {
        what: "the mapping cache keys every evidence floor alike",
        path: "crates/genmapper/src/system.rs",
        needle: "            min_evidence_bits: min_evidence.map(f64::to_bits),",
        replacement: "            min_evidence_bits: min_evidence.map(|floor| floor.floor().to_bits()),",
        killer: "genmapper/lib::system::tests::compose_is_cached_per_floor",
    },
    Mutant {
        what: "the mapping cache keys a composed path by its ends only",
        path: "crates/genmapper/src/system.rs",
        needle: "            path: Some(path.to_vec()),",
        replacement: "            path: None,",
        killer: "genmapper/cache_invalidation::cached_results_never_go_stale",
    },
    Mutant {
        what: "capture_snapshot reuses the read copy after the store moved",
        path: "crates/genmapper/src/system.rs",
        needle: "            Some((count, reader)) if count == at => reader,",
        replacement: "            Some((_, reader)) => reader,",
        killer: "genmapper/lib::shared::tests::only_a_content_change_recaptures_the_store (+1), serve/serve_e2e::readers_progress_during_bulk_import",
    },
    Mutant {
        what: "a write's snapshot is captured but never published",
        path: "crates/genmapper/src/shared.rs",
        needle: "                *self.published.write() = Arc::new(snap);",
        replacement: "                drop(snap);",
        killer: "genmapper/lib::shared::tests::only_a_content_change_recaptures_the_store (+2), serve/lib::handler::tests::write_endpoints_go_through_the_writer_and_publish, serve/serve_e2e::readers_progress_during_bulk_import",
    },
    Mutant {
        what: "a finished write is not counted as completed",
        path: "crates/genmapper/src/shared.rs",
        needle: "        self.completed.fetch_add(1, Ordering::SeqCst);\n",
        replacement: "",
        killer: "genmapper/lib::shared::tests::failed_writer_op_republishes_current_state (+2), serve/lib::handler::tests::write_endpoints_go_through_the_writer_and_publish",
    },
    Mutant {
        what: "write admission lets one write past the budget",
        path: "crates/genmapper/src/shared.rs",
        needle: "            if current >= max_in_flight {",
        replacement: "            if current > max_in_flight {",
        killer: "genmapper/lib::shared::tests::write_admission_sheds_beyond_the_budget (+1), serve/lib::handler::tests::writes_beyond_the_budget_are_shed_as_busy, serve/hardening::shed_writes_succeed_on_retry_once_the_budget_frees (+1)",
    },
    Mutant {
        what: "query parsing reads `and` as OR",
        path: "crates/genmapper/src/cli.rs",
        needle: "        Some(&\"and\") => true,",
        replacement: "        Some(&\"and\") => false,",
        killer: "genmapper/lib::cli::tests::parse_query_syntax (+1)",
    },
    Mutant {
        what: "query parsing drops a target's negation",
        path: "crates/genmapper/src/cli.rs",
        needle: "            Some(b) => (true, b),",
        replacement: "            Some(b) => (false, b),",
        killer: "genmapper/lib::cli::tests::parse_query_syntax (+1)",
    },
    Mutant {
        what: "query parsing drops a target's evidence floor",
        path: "crates/genmapper/src/cli.rs",
        needle: "        target.min_evidence = min_evidence;\n",
        replacement: "",
        killer: "genmapper/lib::cli::tests::parse_query_syntax, clippy: unused variable: `min_evidence`",
    },
    Mutant {
        what: "TSV export writes NULL cells as the text NULL",
        path: "crates/genmapper/src/resolved.rs",
        needle: "                .map(|c| c.as_ref().map(|c| c.accession.as_str()).unwrap_or(\"\"))\n                .collect();\n            let _ = writeln!(out, \"{}\", cells.join(\"\\t\"));",
        replacement: "                .map(|c| c.as_ref().map(|c| c.accession.as_str()).unwrap_or(\"NULL\"))\n                .collect();\n            let _ = writeln!(out, \"{}\", cells.join(\"\\t\"));",
        killer: "genmapper/lib::resolved::tests::tsv_export",
    },
    Mutant {
        what: "CSV export leaves a field holding a quote unquoted",
        path: "crates/genmapper/src/resolved.rs",
        needle: "            if s.contains(',') || s.contains('\"') || s.contains('\\n') {",
        replacement: "            if s.contains(',') || s.contains('\\n') {",
        killer: "genmapper/lib::resolved::tests::csv_export_quotes_when_needed",
    },
    Mutant {
        what: "GenMapper::checkpoint leaves the store uncheckpointed",
        path: "crates/genmapper/src/system.rs",
        needle: "    pub fn checkpoint(&mut self) -> GamResult<()> {\n        self.store.checkpoint()",
        replacement: "    pub fn checkpoint(&mut self) -> GamResult<()> {\n        Ok(())",
        killer: "tests/persistence::checkpoint_truncates_wal_and_resumes (+1), serve/cli_bin::paged_store_without_the_paged_flag_is_refused_not_emptied",
    },
    Mutant {
        what: "a view target's evidence floor is lost between query and plan",
        path: "crates/genmapper/src/system.rs",
        needle: "        ts.min_evidence = t.min_evidence;\n",
        replacement: "",
        killer: "tests/evidence::thresholded_view_is_monotone_in_the_threshold",
    },
    Mutant {
        what: "thresholded Compose ignores its evidence floor",
        path: "crates/genmapper/src/system.rs",
        needle: "                    floor,\n",
        replacement: "                    floor.min(0.0),\n",
        killer: "genmapper/lib::system::tests::compose_is_cached_per_floor",
    },
    Mutant {
        what: "the writing flag is raised only after the write ran",
        path: "crates/genmapper/src/shared.rs",
        needle: "        self.writing.store(true, Ordering::SeqCst);\n        let result = f(&mut gm);",
        replacement: "        let result = f(&mut gm);\n        self.writing.store(true, Ordering::SeqCst);",
        killer: "none: no test samples import-status while a write runs; the flag is only reported",
    },
    // --- the service: wire framing, admission, drain, the client, the CLI binary ---
    Mutant {
        what: "the request cap applies only while no newline is buffered",
        path: "crates/serve/src/conn.rs",
        needle: "            if newline.unwrap_or(self.pending.len()) > self.max_request_bytes {",
        replacement: "            if newline.is_none() && self.pending.len() > self.max_request_bytes {",
        killer: "serve/hardening::oversized_request_is_rejected_and_the_connection_closed",
    },
    Mutant {
        what: "an oversized request is not counted",
        path: "crates/serve/src/server.rs",
        needle: "                stats.oversized.fetch_add(1, Ordering::Relaxed);\n",
        replacement: "",
        killer: "serve/hardening::oversized_request_is_rejected_and_the_connection_closed",
    },
    Mutant {
        what: "a connection keeps serving after shutdown began",
        path: "crates/serve/src/server.rs",
        needle: "                if stop.load(Ordering::SeqCst) {\n                    break;\n                }\n",
        replacement: "",
        killer: "none: a persistent connection then ends at its read deadline instead of after its in-flight request; shutdown still completes within drain_timeout, which is what the drain tests gate",
    },
    Mutant {
        what: "import writes bypass write admission",
        path: "crates/serve/src/handler.rs",
        needle: "                let permit = admit_write(shared, ctx)?;\n                let n = permit.run(|gm| {",
        replacement: "                let n = shared.with_writer(|gm| {",
        killer: "serve/lib::handler::tests::writes_beyond_the_budget_are_shed_as_busy",
    },
    Mutant {
        what: "query is no longer classed as a retryable read",
        path: "crates/serve/src/handler.rs",
        needle: "            | \"query\"\n",
        replacement: "",
        killer: "serve/lib::handler::tests::read_class_covers_exactly_the_snapshot_endpoints",
    },
    Mutant {
        what: "paths is capped ten times higher over the wire",
        path: "crates/serve/src/handler.rs",
        needle: "                if k > MAX_PATHS_K {",
        replacement: "                if k > MAX_PATHS_K * 10 {",
        killer: "serve/lib::handler::tests::errors_carry_protocol_kinds",
    },
    Mutant {
        what: "ready answers while draining",
        path: "crates/serve/src/handler.rs",
        needle: "            if ctx.draining {\n                return Err(ServeError::unavailable(",
        replacement: "            if ctx.draining && ctx.max_in_flight_writes == 0 {\n                return Err(ServeError::unavailable(",
        killer: "serve/lib::handler::tests::health_and_ready_report_liveness_and_drain",
    },
    Mutant {
        what: "a success frame carries a stray newline after its body",
        path: "crates/serve/src/conn.rs",
        needle: "        let frame = format!(\"ok {}\\n{}\", body.len(), body);",
        replacement: "        let frame = format!(\"ok {}\\n{}\\n\", body.len(), body);",
        killer: "serve/serve_e2e::persistent_connections_carry_many_requests",
    },
    Mutant {
        what: "the client reads a response body past its cap",
        path: "crates/serve/src/conn.rs",
        needle: "    if len > max_response_bytes {",
        replacement: "    if len > max_response_bytes.saturating_mul(2) {",
        killer: "serve/lib::conn::tests::oversized_response_header_is_rejected_before_allocation",
    },
    Mutant {
        what: "call_retry gives up on unavailable",
        path: "crates/serve/src/conn.rs",
        needle: "                    .is_some_and(|k| k == \"busy\" || k == \"unavailable\");",
        replacement: "                    .is_some_and(|k| k == \"busy\");",
        killer: "none: the server answers `unavailable` only to `ready` while draining, after which it is gone, so no test can see a retry succeed",
    },
    Mutant {
        what: "the CLI exits 0 when its store fails to open",
        path: "crates/serve/src/bin/genmapper-cli.rs",
        needle: "        Err(e) => {\n            eprintln!(\"{e}\");\n            std::process::exit(1);",
        replacement: "        Err(e) => {\n            eprintln!(\"{e}\");\n            std::process::exit(0);",
        killer: "serve/cli_bin::paged_store_without_the_paged_flag_is_refused_not_emptied",
    },
    Mutant {
        what: "serve mode ignores a quit line on stdin",
        path: "crates/serve/src/bin/genmapper-cli.rs",
        needle: "            Ok(_) if line.trim() == \"quit\" => break,",
        replacement: "            Ok(_) if line.trim() == \"exit\" => break,",
        killer: "serve/cli_bin::serve_mode_answers_calls_and_stops_on_quit",
    },
    Mutant {
        what: "a blank request line closes the connection",
        path: "crates/serve/src/server.rs",
        needle: "                if trimmed.is_empty() {\n                    continue;\n                }",
        replacement: "                if trimmed.is_empty() {\n                    break;\n                }",
        killer: "none: no test sends a blank line on a connection that carries more requests",
    },
    Mutant {
        what: "read_request drops the pipelined requests behind a line",
        path: "crates/serve/src/conn.rs",
        needle: "let mut line: Vec<u8> = self.pending.drain(..=pos).collect();",
        replacement: "let mut line: Vec<u8> = self.pending.drain(..).take(pos + 1).collect();",
        killer: "serve/serve_e2e::persistent_connections_carry_many_requests",
    },
    // --- the baselines, the generator and the path finder ---
    Mutant {
        what: "the star warehouse files a gene's location as its chromosome",
        path: "crates/baselines/src/star.rs",
        needle: "                        facts.entry(entity).or_default()[3] = Some(accession);",
        replacement: "                        facts.entry(entity).or_default()[2] = Some(accession);",
        killer: "baselines/lib::star::tests::anticipated_queries_work, tests/baseline_equivalence::location_query_gam_vs_star",
    },
    Mutant {
        what: "the star warehouse integrates any source as gene facts",
        path: "crates/baselines/src/star.rs",
        needle: "        if batch.meta.name != \"LocusLink\" {",
        replacement: "        if batch.meta.name.is_empty() {",
        killer: "baselines/lib::star::tests::unanticipated_source_requires_evolution, tests/baseline_equivalence::star_schema_rejects_unanticipated_sources_gam_accepts_them",
    },
    Mutant {
        what: "NetAffx confidences printed with two decimals",
        path: "crates/sources/src/dialects/netaffx.rs",
        needle: "{confidence:.3}",
        replacement: "{confidence:.2}",
        killer: "sources/dump_identity::demo_7_dumps_hash_to_the_pinned_values",
    },
    Mutant {
        what: "NetAffx indexes CSV fields without counting them",
        path: "crates/sources/src/dialects/netaffx.rs",
        needle: "        if fields.len() != 4 {\n            return Err(ParseError::at(D, lineno, \"expected 4 CSV fields\"));\n        }\n",
        replacement: "",
        killer: "sources/lib::dialects::netaffx::tests::malformed, sources/parser_fuzz::truncated_valid_dumps_never_panic",
    },
    Mutant {
        what: "path search explores depth first",
        path: "crates/pathfinder/src/graph.rs",
        needle: "                    queue.push_back(edge.to);",
        replacement: "                    queue.push_front(edge.to);",
        killer: "tests/baseline_equivalence::join_query_gam_vs_srs_navigation",
    },
    Mutant {
        what: "SRS join navigation follows back-links of the wrong source",
        path: "crates/baselines/src/srs.rs",
        needle: "                        if back_src == *hop {",
        replacement: "                        if back_src != *hop {",
        killer: "none: no test asks a join whose answer depends on back-links",
    },
    Mutant {
        what: "satellite dumps carry another release",
        path: "crates/sources/src/dialects/satellite.rs",
        needle: "    let _ = writeln!(out, \"#release\\tr1\");",
        replacement: "    let _ = writeln!(out, \"#release\\tr2\");",
        killer: "sources/dump_identity::demo_7_dumps_hash_to_the_pinned_values",
    },
    Mutant {
        what: "the Hugo parser indexes CSV fields without counting them",
        path: "crates/sources/src/dialects/hugo.rs",
        needle: "        if fields.len() != 3 {\n            return Err(ParseError::at(D, lineno, \"expected 3 CSV fields\"));\n        }\n",
        replacement: "",
        killer: "sources/lib::dialects::hugo::tests::malformed, sources/parser_fuzz::truncated_valid_dumps_never_panic",
    },
];

/// The paper's operations (§4.1 import rules, §4.2 operators): each must
/// be named by the `what` of at least one row.
const OPERATIONS: &[&str] = &[
    "import dedup",
    "import release skip",
    "import release tag",
    "Map",
    "Compose",
    "evidence product",
    "Domain",
    "Range",
    "Restrict",
    "Figure 5 AND",
    "Figure 5 OR",
    "Figure 5 NOT",
    "Subsumed",
    "materialize",
];

/// The layers the table must reach, by the crate directory of the path.
const CRATES: &[&str] = &["relstore", "gam", "import", "operators", "genmapper", "serve"];

#[test]
fn every_product_needle_matches_once() {
    let root = testkit::workspace_root(env!("CARGO_MANIFEST_DIR"));
    let stale: Vec<String> = MUTANTS.iter().filter_map(|m| m.apply(&root).err()).collect();
    assert!(stale.is_empty(), "{}", stale.join("\n"));
}

#[test]
fn the_table_names_every_operation_and_layer_and_each_row_its_killer() {
    for m in MUTANTS {
        assert!(!m.killer.is_empty(), "{}: name its killer (or `none: <why>`)", m.what);
    }
    for op in OPERATIONS {
        assert!(MUTANTS.iter().any(|m| m.what.contains(op)), "no row names {op}");
    }
    for krate in CRATES {
        let dir = format!("crates/{krate}/");
        let rows = MUTANTS.iter().filter(|m| m.path.starts_with(&dir)).count();
        assert!(rows >= 8, "{krate} has {rows} rows; the table wants 8");
    }
}
