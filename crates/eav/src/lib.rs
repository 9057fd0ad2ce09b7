//! `eav` — the uniform staging format between `Parse` and `Import`.
//!
//! GenMapper integrates a new source in two steps (paper §4.1): a
//! source-specific **Parse** step whose output is "uniformly stored in a
//! simple EAV format" (paper Table 1 shows the rows for LocusLink locus
//! 353), and a generic **Import** step that transforms EAV into GAM.
//!
//! This crate defines that intermediate representation:
//!
//! * [`EavRecord`] — one staged fact: an object definition, an annotation
//!   (entity → target source → accession, the Table 1 quadruple), or an
//!   intra-source `IS_A` edge for taxonomy sources,
//! * [`EavBatch`] — everything parsed from one source dump, with the
//!   source's metadata (name, release for audit, content/structure
//!   classification, partitions) — the staging area, held in memory
//!   between Parse and Import.

#![forbid(unsafe_code)]

pub mod batch;
pub mod record;

pub use batch::{EavBatch, SourceMeta};
pub use record::EavRecord;
