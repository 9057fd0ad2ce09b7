//! The mutant table: what each genlint rule catches that nothing else
//! does.
//!
//! Every row is a textual mutant of the *real* workspace sources — a
//! regression someone could plausibly commit — with the findings the
//! shipped `genlint.toml` must report for it, by rule. `killer` names
//! what else kills the mutant: a rustc error, a clippy lint, a Tier-1
//! test, or `none:` and why it survives. Those kills are checked in a
//! scratch clone by `scripts/mutants.py`, which runs this table and the
//! product's (`tests/mutants.rs`) alike; CHANGES lists each run. Only
//! the `fires` column is re-checked here, on every run.
//!
//! The table decides what genlint keeps. A rule stays only while at least
//! two rows are killed by it alone — `fires` names only that rule and
//! `killer` is empty — which `every_rule_alone_kills_two_mutants` checks;
//! a rule whose every catch is also a compile error, a clippy lint or a
//! failing test is redundant and goes.
//!
//! The workspace is parsed once; each row re-parses only the file it
//! mutates and runs the full scan ([`genlint::scan_files`]: per-file
//! rules, graph pass, baseline). A needle that no longer occurs exactly
//! once fails the test ([`testkit::Mutant::apply`]), so the table cannot
//! silently rot.

use genlint::config;
use genlint::rules::rule_names;
use genlint::source::SourceFile;
use testkit::Mutant;

/// Rules of the findings the scan reports for a row's mutant, in report
/// order. A row whose `killer` is empty is killed by these alone.
type Fires = &'static [&'static str];

const CRASH_SWEEP: &str = "crash_sweep::every_crash_point_recovers_and_converges";
const FAILED_IO_SWEEP: &str = "crash_sweep::every_failed_io_op_leaves_a_recoverable_store, \
                               crash_import::import_io_errors_are_recoverable";
const READ_ENTRY: &str = "rustc E0596: a &GenMapper or Arc<Snapshot> caller";
const RUN_SWEEP: &str = "index_build_equiv::run_and_delta_reads_equal_a_scan_through_every_merge";

const MUTANTS: &[(Mutant, Fires)] = &[
    // --- checkpoint and WAL durability: the crash sweeps' to judge ---
    (Mutant {
        what: "checkpoint publishes a page directory it never fsynced",
        path: "crates/relstore/src/db.rs",
        needle: "f.write_all(&data)?;\n            f.sync()?;",
        replacement: "f.write_all(&data)?;",
        killer: CRASH_SWEEP,
    }, &[]),
    (Mutant {
        what: "checkpoint resets the WAL before the directory rename is durable",
        path: "crates/relstore/src/db.rs",
        needle: "vfs.rename(&tmp, &primary)?;\n        vfs.sync_dir(&durability.dir)?;",
        replacement: "vfs.rename(&tmp, &primary)?;",
        killer: CRASH_SWEEP,
    }, &[]),
    (Mutant {
        what: "checkpoint resets the WAL above the rename of the new directory",
        path: "crates/relstore/src/db.rs",
        needle: "vfs.rename(&tmp, &primary)?;\n        vfs.sync_dir(&durability.dir)?;\n        durability.wal.reset(new_epoch)?;",
        replacement: "durability.wal.reset(new_epoch)?;\n        vfs.rename(&tmp, &primary)?;\n        vfs.sync_dir(&durability.dir)?;",
        killer: CRASH_SWEEP,
    }, &[]),
    (Mutant {
        what: "checkpoint drops the page directory's fsync error",
        path: "crates/relstore/src/db.rs",
        needle: "f.sync()?;",
        replacement: "let _ = f.sync();",
        killer: FAILED_IO_SWEEP,
    }, &["error-swallow"]),
    (Mutant {
        what: "checkpoint drops the directory fsync's error",
        path: "crates/relstore/src/db.rs",
        needle: "vfs.rename(&tmp, &primary)?;\n        vfs.sync_dir(&durability.dir)?;",
        replacement: "vfs.rename(&tmp, &primary)?;\n        vfs.sync_dir(&durability.dir).ok();",
        killer: FAILED_IO_SWEEP,
    }, &["error-swallow"]),
    (Mutant {
        what: "commit acknowledges without syncing the WAL",
        path: "crates/relstore/src/db.rs",
        needle: "durability.wal.log(&self.redo, self.db.sync_on_commit)",
        replacement: "durability.wal.log(&self.redo, false)",
        killer: "19 relstore and gam tests, db::tests::durable_roundtrip_via_wal_only and crash_sweep among them",
    }, &[]),
    (Mutant {
        what: "WalWriter::sync flushes but never fsyncs",
        path: "crates/relstore/src/wal.rs",
        needle: "self.flush()?;\n        self.file.sync()",
        replacement: "self.flush()",
        killer: "crash_sweep, crash_prop, crash_import::import_crash_sweep_recovers_and_reimports_identically",
    }, &[]),
    (Mutant {
        what: "WalWriter::reset syncs neither the epoch stamp nor the directory",
        path: "crates/relstore/src/wal.rs",
        needle: "self.file.write_all(&frame)?;\n        self.file.sync()?;\n        if let Some(parent) = self.path.parent() {\n            self.vfs.sync_dir(parent)?;\n        }",
        replacement: "self.file.write_all(&frame)?;",
        killer: "none: the truncate is synced, a lost epoch stamp leaves an empty WAL that \
                 recovers to the checkpoint, and the next commit's sync makes the stamp durable",
    }, &[]),
    (Mutant {
        what: "WalWriter::open appends behind a torn tail",
        path: "crates/relstore/src/wal.rs",
        needle: "        if cut {\n            vfs.truncate(path, committed)?;\n        }\n",
        replacement: "",
        killer: "wal::tests::reopen_truncates_torn_tail_so_new_records_are_recoverable, clippy: unused variable: `cut`",
    }, &[]),
    (Mutant {
        what: "the scan takes a whole undecodable frame for a torn tail",
        path: "crates/relstore/src/wal.rs",
        needle: "        offset = body_start + payload.len();\n        match LoggedOp::decode(payload)? {",
        replacement: "        let Ok(op) = LoggedOp::decode(payload) else {\n            recovery.torn_at = Some(offset as u64);\n            break;\n        };\n        offset = body_start + payload.len();\n        match op {",
        killer: "wal::tests::a_whole_frame_that_does_not_decode_is_refused_not_taken_for_a_torn_tail, \
                 recovery::a_whole_wal_frame_that_does_not_decode_is_refused_untouched",
    }, &[]),
    (Mutant {
        what: "replay stores a logged cell without checking its values against the schema",
        path: "crates/relstore/src/table.rs",
        needle: "        fits &= schema.columns().get(ordinal).is_none_or(|c| c.admits(value));\n",
        replacement: "",
        killer: "index_build_equiv::open_refuses_rows_that_contradict_an_index, clippy: variable does not need to be mutable",
    }, &[]),
    // --- error-swallow ---
    (Mutant {
        what: "RealVfs drops a file fsync's error",
        path: "crates/relstore/src/vfs.rs",
        needle: "self.0.sync_data()?;",
        replacement: "let _ = self.0.sync_data();",
        killer: "",
    }, &["error-swallow"]),
    (Mutant {
        what: "RealVfs::truncate drops its fsync's error",
        path: "crates/relstore/src/vfs.rs",
        needle: "file.sync_data()?;",
        replacement: "let _ = file.sync_data();",
        killer: "",
    }, &["error-swallow"]),
    (Mutant {
        what: "RealVfs drops a write's error",
        path: "crates/relstore/src/vfs.rs",
        needle: "self.0.write_all(data)?;",
        replacement: "let _ = self.0.write_all(data);",
        killer: "",
    }, &["error-swallow"]),
    (Mutant {
        what: "RealVfs::sync_dir treats EIO like an unsupported directory fsync",
        path: "crates/relstore/src/vfs.rs",
        needle: "Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => Ok(()),",
        replacement: "Err(_) => Ok(()),",
        killer: "vfs::tests::directory_fsync_is_best_effort_only_where_unsupported",
    }, &[]),
    (Mutant {
        what: "checkpoint drops the error of unlinking the heap no directory names",
        path: "crates/relstore/src/db.rs",
        needle: "            vfs.remove(&stale)?;",
        replacement: "            vfs.remove(&stale).ok();",
        killer: "",
    }, &["error-swallow"]),
    // `unwrap_or` defaulting: the deleted cross-file half caught the third
    // of these only
    (Mutant {
        what: "Database::stats reports an empty index for one it failed to read",
        path: "crates/relstore/src/db.rs",
        needle: "t.index_stats(&d.name)?",
        replacement: "t.index_stats(&d.name).unwrap_or_default()",
        killer: "none: unreachable, stats() asks only for indexes the schema declares",
    }, &[]),
    (Mutant {
        what: "Pager::append_image takes a failed heap stat for a missing heap",
        path: "crates/relstore/src/pager.rs",
        needle: "self.vfs.file_len(&inner.heap_path)?.unwrap_or(0)",
        replacement: "self.vfs.file_len(&inner.heap_path).unwrap_or(None).unwrap_or(0)",
        killer: "none: FaultVfs never fails a file_len short of a power cut",
    }, &[]),
    (Mutant {
        what: "Transaction::insert ignores a closed transaction",
        path: "crates/relstore/src/db.rs",
        needle: "self.check_open()?;\n        let mut cell = Vec::new();",
        replacement: "self.check_open().unwrap_or(());\n        let mut cell = Vec::new();",
        killer: "none: commit and rollback consume the Transaction, so no caller inserts into a closed one",
    }, &[]),
    // --- the index run and its delta: index_build_equiv's to judge ---
    (Mutant {
        what: "a merge keeps the run's dead entries",
        path: "crates/relstore/src/index.rs",
        needle: "let mut live = range.filter(|&i| !src.is_dead(i));",
        replacement: "let mut live = range.filter(|_| true);",
        killer: RUN_SWEEP,
    }, &[]),
    (Mutant {
        what: "an exact-key probe skips the delta, so a unique key held there is free",
        path: "crates/relstore/src/index.rs",
        needle: "let delta = std::iter::from_fn(|| cursor.delta.next_if(|(d, _)| d == key));",
        replacement: "let delta = std::iter::empty();",
        killer: "index_build_equiv::a_unique_key_taken_in_the_delta_is_rejected",
    }, &[]),
    (Mutant {
        what: "a read ignores the run's dead marks",
        path: "crates/relstore/src/index.rs",
        needle: "range.filter(|&i| !self.run.is_dead(i)).all(",
        replacement: "range.filter(|_| true).all(",
        killer: RUN_SWEEP,
    }, &[]),
    // --- the run's lanes: index_build_equiv's and index.rs's sweeps to judge ---
    (Mutant {
        what: "a run's lanes ignore their columns' bases: every lane is an offset from 0",
        path: "crates/relstore/src/index.rs",
        needle: "base: if key_width == 1 { span.lo } else { [0; INLINE_WORDS] },",
        replacement: "base: [0; INLINE_WORDS],",
        killer: "34 workspace tests: index::tests::run_delta_and_dead_marks_read_as_the_entries_they_hold, \
                 index_build_equiv's named run/delta cases, heap_weight, gam's reopen tests among them",
    }, &[]),
    (Mutant {
        what: "a probe outside the run's lanes skips the delta, so a key held there is free",
        path: "crates/relstore/src/index.rs",
        needle: "            None => 0..0,\n        };\n        let delta = self.delta.range((key.clone(), RowId(0))..);",
        replacement: "            None => return true,\n        };\n        let delta = self.delta.range((key.clone(), RowId(0))..);",
        killer: "index_build_equiv::{a_probe_outside_the_runs_lanes_is_answered_by_the_delta, \
                 run_and_delta_reads_equal_a_scan_through_every_merge}, \
                 index::tests::run_delta_and_dead_marks_read_as_the_entries_they_hold, \
                 and three gam/import tests",
    }, &[]),
    (Mutant {
        what: "a merge keeps the old run's bounds, dead entries' included, so a run never narrows again",
        path: "crates/relstore/src/index.rs",
        needle: "        if old.dead_count > 0 {\n            // the old bounds",
        replacement: "        if false {\n            // the old bounds",
        killer: "index_build_equiv::a_run_goes_wide_for_an_outlier_and_narrow_again_without_it, \
                 index::tests::run_delta_and_dead_marks_read_as_the_entries_they_hold",
    }, &[]),
    (Mutant {
        what: "a merge block-copies key lanes across a changed base",
        path: "crates/relstore/src/index.rs",
        needle: "let cells = |run: &Run| (run.key_width, run.row_width, run.base);",
        replacement: "let cells = |run: &Run| (run.key_width, run.row_width);",
        killer: "index_build_equiv::{run_and_delta_reads_equal_a_scan_through_every_merge, \
                 reopened_store_equals_the_closed_one}, index.rs's two run tests, \
                 relstore prop and paged_prop, 17 genmapper tests; snapshot_stress hangs",
    }, &[]),
    (Mutant {
        what: "a radix pass drops a cell's top digit",
        path: "crates/relstore/src/index.rs",
        needle: "let bits = u64::BITS - greatest(cell).leading_zeros();",
        replacement: "let bits = (u64::BITS - greatest(cell).leading_zeros()).saturating_sub(DIGIT_BITS);",
        killer: "24 workspace tests: index_build_equiv::radix_sorted_runs_equal_a_comparison_sort_and_the_maintained_index \
                 and 11 more index_build_equiv tests, index::tests::bulk_build_equals_per_row_maintenance, \
                 heap_weight, persistence and crash_import among them",
    }, &[]),
    // --- wal-bracket: the group-commit window ---
    (Mutant {
        what: "Importer::import opens a group-commit window and never closes it",
        path: "crates/import/src/importer.rs",
        needle: "let synced = self.store.end_group_commit();",
        replacement: "let synced: GamResult<()> = Ok(());",
        killer: "persistence::checkpoint_truncates_wal_and_resumes, \
                 crash_import::import_crash_sweep_recovers_and_reimports_identically",
    }, &["wal-bracket"]),
    (Mutant {
        what: "Importer::import propagates the body's error from inside the window",
        path: "crates/import/src/importer.rs",
        needle: "let body = self.import_body(existing, batch, &mut report);",
        replacement: "self.import_body(existing, batch, &mut report)?;\n        let body: GamResult<()> = Ok(());",
        killer: "",
    }, &["wal-bracket"]),
    (Mutant {
        what: "Importer::import returns early for an empty batch inside the window",
        path: "crates/import/src/importer.rs",
        needle: "let body = self.import_body(existing, batch, &mut report);",
        replacement: "if batch.records.is_empty() {\n            return Ok(report);\n        }\n        let body = self.import_body(existing, batch, &mut report);",
        killer: "",
    }, &["wal-bracket"]),
    // --- atomics-discipline ---
    (Mutant {
        what: "the writer-busy flag is published Relaxed",
        path: "crates/genmapper/src/shared.rs",
        needle: "self.writing.store(true, Ordering::SeqCst);",
        replacement: "self.writing.store(true, Ordering::Relaxed);",
        killer: "",
    }, &["atomics-discipline"]),
    (Mutant {
        what: "the completed-writes counter is bumped Relaxed",
        path: "crates/genmapper/src/shared.rs",
        needle: "self.completed.fetch_add(1, Ordering::SeqCst);",
        replacement: "self.completed.fetch_add(1, Ordering::Relaxed);",
        killer: "",
    }, &["atomics-discipline"]),
    (Mutant {
        what: "write admission's CAS succeeds Relaxed",
        path: "crates/genmapper/src/shared.rs",
        needle: "current + 1,\n                Ordering::SeqCst,",
        replacement: "current + 1,\n                Ordering::Relaxed,",
        killer: "",
    }, &["atomics-discipline"]),
    (Mutant {
        what: "a write permit is released Relaxed",
        path: "crates/genmapper/src/shared.rs",
        needle: "self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);",
        replacement: "self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);",
        killer: "",
    }, &["atomics-discipline"]),
    (Mutant {
        what: "a connection reads the stop flag Relaxed",
        path: "crates/serve/src/server.rs",
        needle: "draining: stop.load(Ordering::SeqCst),",
        replacement: "draining: stop.load(Ordering::Relaxed),",
        killer: "",
    }, &["atomics-discipline"]),
    // --- cache-coherence ---
    (Mutant {
        what: "a new GamStore mutator that skips bump_mutations",
        path: "crates/gam/src/store.rs",
        needle: "    // ------------------------------------------------------------------\n    // OBJECT_REL\n",
        replacement: "    /// Drop a mapping's associations, keeping the mapping.\n    pub fn clear_associations(&mut self, id: SourceRelId) -> GamResult<()> {\n        let ids = self.db.table(tables::OBJECT_REL)?.lookup_row_ids(\"by_pair\", &[Value::Int(id.as_i64())])?;\n        Ok(self.db.with_txn(|txn| ids.iter().try_for_each(|&rid| txn.delete(tables::OBJECT_REL, rid).map(drop)))?)\n    }\n\n    // ------------------------------------------------------------------\n    // OBJECT_REL\n",
        killer: "",
    }, &["cache-coherence"]),
    (Mutant {
        what: "GamStore::update_source_meta skips bump_mutations",
        path: "crates/gam/src/store.rs",
        needle: "    ) -> GamResult<()> {\n        self.bump_mutations();\n        let (row_id, mut values) = self.source_row(id)?;",
        replacement: "    ) -> GamResult<()> {\n        let (row_id, mut values) = self.source_row(id)?;",
        killer: "store::tests::every_mutating_entry_point_advances_mutation_count",
    }, &["cache-coherence"]),
    (Mutant {
        what: "a new GenMapper mutator that skips invalidate_caches",
        path: "crates/genmapper/src/system.rs",
        needle: "    /// Derive and materialize the Subsumed mapping of a taxonomy source.\n",
        replacement: "    /// Delete a mapping and its associations.\n    pub fn drop_mapping(&mut self, id: SourceRelId) -> GamResult<usize> {\n        self.store.delete_source_rel(id)\n    }\n\n    /// Derive and materialize the Subsumed mapping of a taxonomy source.\n",
        killer: "",
    }, &["cache-coherence"]),
    (Mutant {
        what: "GenMapper::materialize_subsumed skips invalidate_caches",
        path: "crates/genmapper/src/system.rs",
        needle: "let id = self.source_id(source)?;\n        self.invalidate_caches();\n",
        replacement: "let id = self.source_id(source)?;\n",
        killer: "system::tests::cache_invalidated_by_every_mutating_entry_point",
    }, &["cache-coherence"]),
    // --- vfs-bypass ---
    (Mutant {
        what: "open sizes the heap file through std::fs",
        path: "crates/relstore/src/db.rs",
        needle: "let heap_len = vfs.file_len(&heap_path)?.unwrap_or(0);",
        replacement: "let heap_len = std::fs::metadata(&heap_path).map_or(0, |m| m.len());",
        killer: "crash_sweep::every_crash_point_recovers_and_converges, index_build_equiv::reopened_store_equals_the_closed_one (+2)",
    }, &["vfs-bypass"]),
    (Mutant {
        what: "checkpoint looks for the heap no directory names through std::fs",
        path: "crates/relstore/src/db.rs",
        needle: "if displaced > 1 && vfs.exists(&stale) {",
        replacement: "if displaced > 1 && std::fs::metadata(&stale).is_ok() {",
        killer: "db::tests::paged_compact_reclaims_dead_heap_bytes",
    }, &["vfs-bypass"]),
    (Mutant {
        what: "open reads the WAL through std::fs where the Vfs has none",
        path: "crates/relstore/src/db.rs",
        needle: "let data = vfs.read(&wal_path)?.unwrap_or_default();",
        replacement: "let data = vfs.read(&wal_path)?.or_else(|| std::fs::read(&wal_path).ok()).unwrap_or_default();",
        killer: "",
    }, &["vfs-bypass"]),
    (Mutant {
        what: "open looks for pre-PR-20 checkpoint files through std::fs",
        path: "crates/relstore/src/db.rs",
        needle: ".find(|file| vfs.exists(&dir.join(file)))",
        replacement: ".find(|file| std::fs::metadata(dir.join(file)).is_ok())",
        killer: "",
    }, &["vfs-bypass"]),
    // --- lock-order-graph: all lock nesting, in a function or across calls ---
    (Mutant {
        what: "with_writer takes published above writer",
        path: "crates/genmapper/src/shared.rs",
        needle: "let mut gm = self.writer.lock();",
        replacement: "let current = self.published.read();\n        let mut gm = self.writer.lock();\n        drop(current);",
        killer: "",
    }, &["lock-order-graph"]),
    (Mutant {
        what: "with_writer holds published across the whole write",
        path: "crates/genmapper/src/shared.rs",
        needle: "let mut gm = self.writer.lock();",
        replacement: "let current = self.published.read();\n        let mut gm = self.writer.lock();",
        killer: "rustc unused_variables under clippy -D warnings; the genmapper tests hang",
    }, &["lock-order-graph", "lock-order-graph"]),
    (Mutant {
        what: "Pager::install locks pool again while holding it",
        path: "crates/relstore/src/pager.rs",
        needle: "let room = self.make_room(&mut inner);",
        replacement: "let room = self.make_room(&mut self.pool.lock());",
        killer: "the relstore tests hang (self-deadlock on pool)",
    }, &["lock-order-graph"]),
    (Mutant {
        what: "Pager::install calls directory_loc, which locks pool, while holding it",
        path: "crates/relstore/src/pager.rs",
        needle: "if inner.frames.contains_key(&pid) {\n            return Err(StoreError::Corrupt(format!(\"page {pid:?} sealed twice\")));",
        replacement: "if inner.frames.contains_key(&pid) || self.directory_loc(pid).is_some() {\n            return Err(StoreError::Corrupt(format!(\"page {pid:?} sealed twice\")));",
        killer: "the relstore tests hang (self-deadlock on pool)",
    }, &["lock-order-graph"]),
    (Mutant {
        what: "import_status holds published while snapshot() takes it again",
        path: "crates/genmapper/src/shared.rs",
        needle: "    pub fn import_status(&self) -> ImportStatus {\n",
        replacement: "    pub fn import_status(&self) -> ImportStatus {\n        let _pin = self.published.read();\n",
        killer: "",
    }, &["lock-order-graph"]),
    // --- lock-discipline: guard-free calls ---
    (Mutant {
        what: "GenMapper::query runs the executor holding captured",
        path: "crates/genmapper/src/system.rs",
        needle: "run_query(&self.store, &self.cache, spec)",
        replacement: "let _memo = self.captured.lock();\n        run_query(&self.store, &self.cache, spec)",
        killer: "",
    }, &["lock-discipline"]),
    (Mutant {
        what: "GenMapper::explain runs the executor holding captured",
        path: "crates/genmapper/src/system.rs",
        needle: "run_explain(&self.store, &self.cache, spec)",
        replacement: "let _memo = self.captured.lock();\n        run_explain(&self.store, &self.cache, spec)",
        killer: "",
    }, &["lock-discipline"]),
    // the deleted read-entry half: rustc's already
    (Mutant {
        what: "GenMapper::query takes &mut self",
        path: "crates/genmapper/src/system.rs",
        needle: "pub fn query(&self, spec: &QuerySpec)",
        replacement: "pub fn query(&mut self, spec: &QuerySpec)",
        killer: READ_ENTRY,
    }, &["cache-coherence"]),
    (Mutant {
        what: "GenMapper::explain takes &mut self",
        path: "crates/genmapper/src/system.rs",
        needle: "pub fn explain(&self, spec: &QuerySpec)",
        replacement: "pub fn explain(&mut self, spec: &QuerySpec)",
        killer: "rustc E0596: snapshot::tests::snapshot_query_matches_live_system",
    }, &["cache-coherence"]),
    (Mutant {
        what: "GenMapper::capture_snapshot takes &mut self",
        path: "crates/genmapper/src/system.rs",
        needle: "pub fn capture_snapshot(&self)",
        replacement: "pub fn capture_snapshot(&mut self)",
        killer: READ_ENTRY,
    }, &["cache-coherence"]),
    (Mutant {
        what: "Snapshot::query takes &mut self",
        path: "crates/genmapper/src/snapshot.rs",
        needle: "pub fn query(&self, spec: &QuerySpec)",
        replacement: "pub fn query(&mut self, spec: &QuerySpec)",
        killer: READ_ENTRY,
    }, &[]),
    // --- the deleted socket-discipline ---
    (Mutant {
        what: "serve_connection reads a line through a raw BufReader first",
        path: "crates/serve/src/server.rs",
        needle: "let mut conn = ConnGuard::new(stream, config)?;",
        replacement: "let mut greeting = String::new();\n    std::io::BufRead::read_line(&mut std::io::BufReader::new(&stream), &mut greeting)?;\n    let mut conn = ConnGuard::new(stream, config)?;",
        killer: "the serve tests hang: the server waits for a line no client sends first",
    }, &[]),
    (Mutant {
        what: "serve_connection reads the raw socket to EOF first",
        path: "crates/serve/src/server.rs",
        needle: "let mut conn = ConnGuard::new(stream, config)?;",
        replacement: "let mut greeting = String::new();\n    std::io::Read::read_to_string(&mut &stream, &mut greeting)?;\n    let mut conn = ConnGuard::new(stream, config)?;",
        killer: "the serve tests hang: the server waits for an EOF no client sends first",
    }, &[]),
    // --- the deleted no-panic: clippy's now ---
    (Mutant {
        what: "GamStore::create_source panics on an empty name",
        path: "crates/gam/src/store.rs",
        needle: "return Err(GamError::Invalid(\"source name is empty\".into()));",
        replacement: "panic!(\"source name is empty\");",
        killer: "clippy::panic; store::tests::source_lifecycle",
    }, &[]),
    (Mutant {
        what: "PageImage::parse declares a bad magic unreachable",
        path: "crates/relstore/src/page.rs",
        needle: "return Err(StoreError::Corrupt(\"bad page magic\".into()));",
        replacement: "unreachable!(\"bad page magic\");",
        killer: "clippy::unreachable; page::tests::corruption_detected",
    }, &[]),
    (Mutant {
        what: "PageImage::parse leaves large slot counts unimplemented",
        path: "crates/relstore/src/page.rs",
        needle: "return Err(StoreError::Corrupt(format!(\"implausible slot count {nslots}\")));",
        replacement: "unimplemented!(\"pages of {nslots} slots\");",
        killer: "clippy::unimplemented; \
                 page::tests::a_bad_slot_directory_behind_a_valid_checksum_is_refused_at_parse",
    }, &[]),
    (Mutant {
        what: "subsume leaves IS_A cycles as todo",
        path: "crates/operators/src/subsume.rs",
        needle: "1 => {\n                            return Err(GamError::Invalid(\n                                \"IS_A structure contains a cycle\".into(),\n                            ))\n                        }",
        replacement: "1 => todo!(\"IS_A structure contains a cycle\"),",
        killer: "clippy::todo; subsume::tests::cycle_detected",
    }, &[]),
    (Mutant {
        what: "Importer unwraps the source lookup",
        path: "crates/import/src/importer.rs",
        needle: "let existing = self.store.find_source(&batch.meta.name)?;",
        replacement: "let existing = self.store.find_source(&batch.meta.name).unwrap();",
        killer: "clippy::unwrap_used",
    }, &[]),
    (Mutant {
        what: "GenMapper::map expects a known source",
        path: "crates/genmapper/src/system.rs",
        needle: "let from = self.source_id(from)?;",
        replacement: "let from = self.source_id(from).expect(\"source registered\");",
        killer: "clippy::expect_used",
    }, &[]),
];

#[test]
fn every_mutant_is_reported_as_the_table_says() {
    let root = testkit::workspace_root(env!("CARGO_MANIFEST_DIR"));
    let toml = std::fs::read_to_string(root.join("genlint.toml")).expect("genlint.toml");
    let cfg = config::parse(&toml).expect("shipped config parses");
    let mut files = genlint::parse_workspace(&root).expect("parse workspace");
    let mut wrong = Vec::new();
    for (row, (m, fires)) in MUTANTS.iter().enumerate() {
        let mutated = match m.apply(&root) {
            Ok(mutated) => mutated,
            Err(stale) => {
                wrong.push(format!("#{row} {stale}"));
                continue;
            }
        };
        let slot = files
            .iter()
            .position(|f| f.rel_path == m.path)
            .unwrap_or_else(|| panic!("#{row}: {} is not scanned", m.path));
        let original = std::mem::replace(&mut files[slot], SourceFile::parse(m.path, &mutated));
        let result = genlint::scan_files(&files, &cfg);
        files[slot] = original;
        let fired: Vec<&str> = result.findings.iter().map(|f| f.rule).collect();
        if fired != *fires {
            wrong.push(format!(
                "#{row} {}: expected {:?}, got:\n{}",
                m.what,
                fires,
                genlint::report::human(&result)
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn every_rule_alone_kills_two_mutants() {
    for (m, fires) in MUTANTS {
        assert!(
            !fires.is_empty() || !m.killer.is_empty(),
            "{}: a row no rule reports must name its killer (or `none:`)",
            m.what
        );
    }
    for rule in rule_names() {
        let sole: Vec<&str> = MUTANTS
            .iter()
            .filter(|(m, fires)| m.killer.is_empty() && !fires.is_empty() && fires.iter().all(|f| *f == rule))
            .map(|(m, _)| m.what)
            .collect();
        assert!(
            sole.len() >= 2,
            "{rule} alone kills {} mutant(s) {sole:?}: a rule earns its place with two",
            sole.len()
        );
    }
}
