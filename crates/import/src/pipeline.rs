//! The load pipeline: parallel Parse, serial Import.
//!
//! Parsing is pure, CPU-bound, per-source work — it fans out across
//! scoped worker threads. Import mutates the central database
//! and runs serially in dump order (GenMapper loads into one MySQL
//! instance the same way). Batches are handed over through a bounded
//! channel so memory stays proportional to the number of workers, not the
//! number of dumps.

use crate::importer::Importer;
use crate::report::{ImportReport, ImportTimings};
use gam::{GamError, GamResult, GamStore};
use sources::ecosystem::SourceDump;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Parser worker threads. `1` parses inline without spawning.
    pub parse_threads: usize,
    /// Per-dump error budget for lenient parsing: up to this many
    /// malformed lines are quarantined (reported, not imported) before a
    /// dump fails the run. `0` keeps the historical strict behaviour.
    pub error_budget: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            parse_threads: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            error_budget: 0,
        }
    }
}

/// Parse all dumps (in parallel) and import them (serially, in dump
/// order). Returns one report per dump. A parse failure aborts the run
/// with an error naming the dump.
pub fn run_pipeline(
    store: &mut GamStore,
    dumps: &[SourceDump],
    options: &PipelineOptions,
) -> GamResult<Vec<ImportReport>> {
    run_pipeline_timed(store, dumps, options).map(|(reports, _)| reports)
}

/// [`run_pipeline`] plus per-phase wall-clock timings (parse / resolve /
/// insert / wal), accumulated across all batches.
pub fn run_pipeline_timed(
    store: &mut GamStore,
    dumps: &[SourceDump],
    options: &PipelineOptions,
) -> GamResult<(Vec<ImportReport>, ImportTimings)> {
    let mut timings = ImportTimings::default();
    let parse_start = Instant::now();
    let parsed = parse_dumps_lenient(dumps, options.parse_threads, options.error_budget)
        .map_err(|e| GamError::Invalid(format!("parse failed: {e}")))?;
    timings.parse += parse_start.elapsed();
    let mut reports = Vec::with_capacity(parsed.len());
    for lp in parsed {
        let mut importer = Importer::new(store);
        let mut report = importer.import_owned(lp.batch)?;
        report.quarantined = lp.quarantined;
        timings.absorb(&importer.timings());
        reports.push(report);
    }
    Ok((reports, timings))
}

/// Parse dumps on up to `threads` workers, preserving dump order in the
/// result.
pub fn parse_dumps(
    dumps: &[SourceDump],
    threads: usize,
) -> Result<Vec<eav::EavBatch>, sources::ParseError> {
    Ok(parse_dumps_lenient(dumps, threads, 0)?
        .into_iter()
        .map(|lp| lp.batch)
        .collect())
}

/// [`parse_dumps`] with a per-dump quarantine budget: malformed lines are
/// removed and reported instead of failing the dump, up to `budget` lines
/// each. `budget == 0` is exactly the strict behaviour.
pub fn parse_dumps_lenient(
    dumps: &[SourceDump],
    threads: usize,
    budget: usize,
) -> Result<Vec<sources::LenientParse>, sources::ParseError> {
    if threads <= 1 || dumps.len() <= 1 {
        return dumps.iter().map(|d| d.parse_lenient(budget)).collect();
    }
    let n = dumps.len();
    let mut slots: Vec<Option<Result<sources::LenientParse, sources::ParseError>>> =
        (0..n).map(|_| None).collect();
    let cursor = AtomicUsize::new(0);
    let slots_ptr = std::sync::Mutex::new(&mut slots);

    // a worker panic is a bug in this crate, not a parse failure: the scope
    // joins every worker, then panics on this thread instead of masking it
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let result = dumps[i].parse_lenient(budget);
                // a poisoned slot mutex only means another worker
                // panicked while holding it; the slots themselves are
                // plain writes, safe to keep filling
                let mut guard = slots_ptr.lock().unwrap_or_else(|p| p.into_inner());
                guard[i] = Some(result);
            });
        }
    });

    let mut out = Vec::with_capacity(n);
    for (i, slot) in slots.into_iter().enumerate() {
        out.push(slot.ok_or_else(|| sources::ParseError {
            dialect: "pipeline",
            line: None,
            reason: format!("parser worker abandoned dump #{i}"),
        })??);
    }
    Ok(out)
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
    fn parallel_parse_matches_serial_parse() {
        let eco = Ecosystem::generate(EcosystemParams::demo(32));
        let serial = parse_dumps(&eco.dumps, 1).unwrap();
        let parallel = parse_dumps(&eco.dumps, 4).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a, b);
        }
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

        // the budget holds on the parallel parse and on the serial one
        for parse_threads in [PipelineOptions::default().parse_threads, 1] {
            let options = PipelineOptions {
                error_budget: 3,
                parse_threads,
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
}
