//! The load pipeline: Parse every dump, then Import the batches.
//!
//! Both phases run on the calling thread, in dump order: first every dump
//! is parsed into an EAV batch, then the batches are imported one after
//! another into the central database (GenMapper loads into one MySQL
//! instance the same way). All parsed batches are held until the import
//! phase starts, so a parse failure aborts the run before anything is
//! written.
//!
//! The import phase is one WAL group-commit window
//! ([`GamStore::with_group_commit`]): each batch's importer joins it, and
//! the WAL is fsynced once, as the call returns — `Ok` or `Err`, so a batch
//! imported before a failing one is durable all the same.

use crate::importer::Importer;
use crate::report::{ImportReport, ImportTimings};
use gam::{GamError, GamResult, GamStore};
use sources::ecosystem::SourceDump;
use std::time::Instant;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Read by nothing: dumps are parsed on the calling thread. gmbench's
    /// link to it is its only reason to exist; ROADMAP item 1 deletes it.
    pub parse_threads: usize,
    /// Per-dump error budget for lenient parsing: up to this many
    /// malformed lines are quarantined (reported, not imported) before a
    /// dump fails the run. `0` keeps the historical strict behaviour.
    pub error_budget: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            parse_threads: 1,
            error_budget: 0,
        }
    }
}

/// Parse all dumps and import them, in dump order. Returns one report per
/// dump. A parse failure aborts the run with an error naming the dump.
pub fn run_pipeline(
    store: &mut GamStore,
    dumps: &[SourceDump],
    options: &PipelineOptions,
) -> GamResult<Vec<ImportReport>> {
    run_pipeline_timed(store, dumps, options).map(|(reports, _)| reports)
}

/// [`run_pipeline`] plus per-phase wall-clock timings (parse / resolve /
/// insert / wal), accumulated across all batches; `wal` is the call's one
/// fsync.
pub fn run_pipeline_timed(
    store: &mut GamStore,
    dumps: &[SourceDump],
    options: &PipelineOptions,
) -> GamResult<(Vec<ImportReport>, ImportTimings)> {
    let mut timings = ImportTimings::default();
    let parse_start = Instant::now();
    let parsed = parse_dumps_lenient(dumps, options.error_budget)
        .map_err(|e| GamError::Invalid(format!("parse failed: {e}")))?;
    timings.parse += parse_start.elapsed();
    let mut reports = Vec::with_capacity(parsed.len());
    let mut body_done = Instant::now();
    let closed = store.with_group_commit(|store| {
        let imported = parsed.into_iter().try_for_each(|lp| {
            let mut importer = Importer::new(store);
            let imported = importer.import_owned(lp.batch);
            timings.absorb(&importer.timings());
            let mut report = imported?;
            report.quarantined = lp.quarantined;
            reports.push(report);
            Ok(())
        });
        body_done = Instant::now();
        imported
    });
    timings.wal += body_done.elapsed();
    closed.map(|()| (reports, timings))
}

/// Parse every dump in order with a per-dump quarantine budget: malformed
/// lines are removed and reported instead of failing the dump, up to
/// `budget` lines each. `budget == 0` is the strict behaviour.
pub fn parse_dumps_lenient(
    dumps: &[SourceDump],
    budget: usize,
) -> Result<Vec<sources::LenientParse>, sources::ParseError> {
    dumps.iter().map(|d| d.parse_lenient(budget)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sources::ecosystem::{Ecosystem, EcosystemParams};

    #[test]
    fn pipeline_imports_demo_ecosystem() {
        let eco = Ecosystem::generate(EcosystemParams::demo(31));
        let mut store = GamStore::in_memory().unwrap();
        let reports = run_pipeline(&mut store, &eco.dumps, &PipelineOptions::default()).unwrap();
        assert_eq!(reports.len(), eco.dumps.len());
        assert!(reports.iter().all(|r| !r.skipped));
        let cards = store.cardinalities().unwrap();
        // 10 core + 4 satellites + GO partitions + pseudo-target stubs
        assert!(cards.sources >= 14, "got {} sources", cards.sources);
        assert!(cards.objects > 500);
        assert!(cards.associations > 500);
        assert!(cards.mappings >= 15);
        // re-running the pipeline is a no-op (source-level dedup)
        let again = run_pipeline(&mut store, &eco.dumps, &PipelineOptions::default()).unwrap();
        assert!(again.iter().all(|r| r.skipped));
        assert_eq!(store.cardinalities().unwrap(), cards);
    }

    #[test]
    fn timed_pipeline_reports_phase_durations() {
        let eco = Ecosystem::generate(EcosystemParams::demo(36));
        let mut store = GamStore::in_memory().unwrap();
        let (reports, timings) =
            run_pipeline_timed(&mut store, &eco.dumps, &PipelineOptions::default()).unwrap();
        assert_eq!(reports.len(), eco.dumps.len());
        assert!(timings.parse > std::time::Duration::ZERO);
        assert!(timings.total() >= timings.parse + timings.insert);
    }

    #[test]
    fn order_independence_of_import() {
        // Importing sources in a different order yields the same
        // cardinalities (ids differ, content does not).
        let eco = Ecosystem::generate(EcosystemParams::demo(33));
        let mut fwd = GamStore::in_memory().unwrap();
        run_pipeline(&mut fwd, &eco.dumps, &PipelineOptions::default()).unwrap();
        let mut rev_dumps = eco.dumps.clone();
        rev_dumps.reverse();
        let mut rev = GamStore::in_memory().unwrap();
        run_pipeline(&mut rev, &rev_dumps, &PipelineOptions::default()).unwrap();
        assert_eq!(
            fwd.cardinalities().unwrap(),
            rev.cardinalities().unwrap()
        );
    }

    #[test]
    fn parse_failure_is_reported_with_source() {
        let mut eco = Ecosystem::generate(EcosystemParams::demo(34));
        eco.dumps[2].text = "garbage that is not unigene".into();
        let mut store = GamStore::in_memory().unwrap();
        let err = run_pipeline(&mut store, &eco.dumps, &PipelineOptions::default()).unwrap_err();
        assert!(err.to_string().contains("parse failed"));
    }

    #[test]
    fn error_budget_imports_clean_records_and_reports_quarantine() {
        // Corrupt one LocusLink field line; with a budget the run succeeds,
        // loads everything else, and reports the quarantined line.
        let mut eco = Ecosystem::generate(EcosystemParams::demo(34));
        let clean_cards = {
            let mut store = GamStore::in_memory().unwrap();
            run_pipeline(&mut store, &eco.dumps, &PipelineOptions::default()).unwrap();
            store.cardinalities().unwrap()
        };
        let mut lines: Vec<String> = eco.dumps[0].text.lines().map(str::to_owned).collect();
        let bad = lines.iter().position(|l| l.starts_with("CHR:")).unwrap();
        lines[bad] = "CHR:".to_owned(); // empty field value -> parse error
        eco.dumps[0].text = lines.join("\n") + "\n";

        // Strict (default) run still fails fast.
        let mut strict = GamStore::in_memory().unwrap();
        let err =
            run_pipeline(&mut strict, &eco.dumps, &PipelineOptions::default()).unwrap_err();
        assert!(err.to_string().contains("parse failed"));

        let options = PipelineOptions {
            error_budget: 3,
            ..PipelineOptions::default()
        };
        let mut store = GamStore::in_memory().unwrap();
        let reports = run_pipeline(&mut store, &eco.dumps, &options).unwrap();
        let q: Vec<_> = reports.iter().flat_map(|r| &r.quarantined).collect();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].line, bad + 1);
        assert!(reports[0].to_string().contains("1 quarantined"));
        // exactly one annotation record was lost relative to the clean run
        let cards = store.cardinalities().unwrap();
        assert_eq!(cards.sources, clean_cards.sources);
        assert_eq!(cards.objects, clean_cards.objects);
        assert_eq!(cards.associations, clean_cards.associations - 1);
    }
}
