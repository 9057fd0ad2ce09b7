//! `import` — the generic Import step of GenMapper's two-phase data
//! integration (paper §4.1).
//!
//! *Parse* (in the `sources` crate) is the only source-specific code; this
//! crate is the "generic EAV-to-GAM transformation and migration module
//! \[that\] only needs to be implemented once":
//!
//! * **source-level duplicate elimination** — source name plus audit
//!   information (release tag) decide whether a batch is new, a re-import
//!   of the same release (skipped), or an incremental update;
//! * **object-level duplicate elimination** — accessions are compared
//!   within the target source, so re-imports relate new records to
//!   existing objects instead of inserting twice;
//! * **relating against existing data** — annotation targets that are
//!   already integrated (e.g. GO when LocusLink is re-imported) are looked
//!   up, not recreated; unknown targets are registered as stub sources so
//!   their accessions have a home until the real dump arrives;
//! * **structural relationships** — `IS_A` edges become an intra-source
//!   mapping; declared partitions become `Contains` relationships
//!   (GO → BiologicalProcess/...);
//! * **annotation relationships** — records without evidence go into a
//!   `Fact` mapping, scored records into a `Similarity` mapping.
//!
//! [`pipeline`] adds the driver that parses many dumps in parallel
//! (scoped threads) and imports them serially, as GenMapper's
//! loader did against its central MySQL database.

// Non-test code on the import/query path must propagate errors, never
// panic: one malformed dump line must not take down a whole import.
// Tier-1 runs clippy with `-D warnings`, so these lints are the gate.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
pub mod importer;
pub mod pipeline;
pub mod report;

pub use importer::Importer;
pub use pipeline::{parse_dumps_lenient, run_pipeline, run_pipeline_timed, PipelineOptions};
pub use report::{ImportReport, ImportTimings};
